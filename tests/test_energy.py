import cmath
import math

import numpy as np
import pytest

from hstorsion import energy as energy_module
from hstorsion import metric
from hstorsion import torsion as torsion_module
from hstorsion.backends import FormComplex, build_complex, format_complex, parse_model
from hstorsion.cohomology import cohomology_table
from hstorsion.energy import (AeppliPoint, corollary_check, differential,
                              differential_riesz, differential_special,
                              energy, fd_differential, fd_step_sweep,
                              gradient_descent)
from hstorsion.forms import Bidegree, Form, conjugate, zero_form
from hstorsion.metric import HermitianStructure, MetricError
from hstorsion.models import STRETCH_TEXT
from hstorsion.torsion import TorsionReport, min_norm_torsion, torsion_form

from conftest import node_values, weyl_certifies

# (mode, j, c): the potential terms c e_mode dz^j of a spectral n = 2 model
# with modes axis K 2, on the axes x_1, x_2, y_1, y_2 (z_j = x_j + i y_j)
N2K2_POTENTIAL = [((2, 0, 0, 0), 2, 0.05), ((0, 2, 0, 0), 1, 0.03 + 0.01j),
                  ((0, 0, -2, 0), 2, 0.02j)]


def _xi_with_rho(H):
    """A (1,0)-form xi with del(xi) equal to the torsion form of H."""
    cx = H.complex
    rep = torsion_form(H)
    x, _ = H.lstsq((1, 0), [("del", rep.rho20.coeffs)])
    return Form(cx.catalog, Bidegree(1, 0), x), rep


def test_energy_zero_at_kahler(torus_H):
    f, rep = energy(torus_H)
    assert f <= 1e-20
    assert rep.norm <= 1e-10


def test_energy_positive_off_kahler(spectral_H):
    f, rep = energy(spectral_H)
    assert f > 1e-4
    assert abs(f - rep.norm**2) <= 1e-14 * (1 + f)


def test_energy_accepts_aeppli_point(spectral_cx, spectral_H):
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    f1, _ = energy(pt)
    f2, _ = energy(spectral_H)
    assert abs(f1 - f2) <= 1e-14 * (1 + f2)


def test_differential_matches_finite_differences(spectral_cx, spectral_H, rng):
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    for _ in range(3):
        v = spectral_cx.random_form(1, 0, rng)
        ex = differential(pt, v)
        fd = fd_differential(pt, v, h=1e-5)
        assert abs(ex - fd) <= 1e-6 * (1 + abs(ex))


def test_fd_step_sweep_second_order(spectral_cx, spectral_H, rng):
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    v = spectral_cx.random_form(1, 0, rng)
    errors, best = fd_step_sweep(pt, v, steps=(1e-2, 1e-3, 1e-4))
    ex = abs(differential(pt, v))
    assert best <= 1e-4 * (1 + ex)
    # central differences: error drops ~100x per decade until roundoff
    assert errors[1e-3] <= 0.1 * errors[1e-2] + 1e-12


def test_differential_vanishes_at_kahler(torus_H, torus_cx):
    c = differential_riesz(torus_H)
    assert np.abs(c).max() <= 1e-10
    for i in range(torus_cx.dims(1, 0)):
        e = zero_form(torus_cx.catalog, 1, 0)
        e.coeffs[i] = 1.0
        assert abs(differential(torus_H, e)) <= 1e-10


def test_special_formula_matches_general(spectral_H):
    xi, rep = _xi_with_rho(spectral_H)
    val, pre = differential_special(spectral_H, xi)
    assert pre <= 1e-10
    general = differential(spectral_H, xi, rep.rho20)
    assert abs(val - general) <= 1e-8 * (1 + abs(general))


def test_special_formula_at_n2():
    # below n = 3 the wedge term's bidegree exceeds (n, n), so the special
    # differential is 2 ||rho||^2: the general formula and a central finite
    # difference agree, and the corollary runs
    cx = build_complex(parse_model("kind spectral\nn 2\nmodes axis K 1\n"
                                   "potential 1 0 0 0 u 2 := 0.04\n"))
    H = HermitianStructure(cx, omega=cx.metric_form())
    xi, rep = _xi_with_rho(H)
    value, pre = differential_special(H, xi)
    assert pre <= 1e-15 and value == 2.0 * rep.norm**2 > 0
    fd = fd_differential(AeppliPoint(cx, H.omega), xi)
    for other in (differential(H, xi, rep.rho20), fd):
        assert abs(value - other) <= 1e-10 * value
    cor = corollary_check(H, xi)
    assert cor.wedge_term == 0.0 and cor.differential_value == value
    assert not cor.differential_vanishes and cor.conclusion == "inconclusive"


def test_special_formula_precondition_enforced(spectral_H, rng):
    xi = spectral_H.complex.random_form(1, 0, rng)
    with pytest.raises(ValueError):
        differential_special(spectral_H, xi)


def test_corollary_refutation_witness(spectral_H):
    # at a non-critical point dbar(xi) cannot be semi-positive when the
    # differential is nonzero; the checker must produce a witness
    xi, _ = _xi_with_rho(spectral_H)
    rep = corollary_check(spectral_H, xi)
    assert rep.conclusion == "inconclusive"
    assert rep.positivity.verdict == "refuted"
    assert rep.positivity.witness is not None
    assert rep.rho_norm > 0


def test_corollary_derives_kahler(torus_H, torus_cx):
    # at a Kahler point with xi = 0: dbar(xi) = 0 is weakly semi-positive
    # and the differential vanishes, so the report concludes rho = 0
    xi = zero_form(torus_cx.catalog, 1, 0)
    rep = corollary_check(torus_H, xi)
    assert rep.conclusion == "kahler"
    assert rep.differential_vanishes
    assert rep.rho_norm <= 1e-10


def test_corollary_needs_a_certified_verdict(torus_H, torus_cx, monkeypatch):
    # the same Kahler point, with dbar(xi) semi-positive at the nodes only:
    # a verdict the Weyl bound does not certify concludes nothing
    xi = zero_form(torus_cx.catalog, 1, 0)
    nodes_only = metric.PositivityReport("semi-positive", margin=0.0)
    monkeypatch.setattr(energy_module, "check_weak_positivity", lambda H, u: nodes_only)
    rep = corollary_check(torus_H, xi)
    assert rep.differential_vanishes and rep.conclusion == "inconclusive"
    assert str(rep.positivity) == "semi-positive (nodes only, margin=0.000e+00)"


def test_corollary_check_computes_the_torsion_form_once(torus_cx, monkeypatch):
    # differential_special and corollary_check both read the torsion form of
    # one metric, which torsion_form computes once per metric and keeps
    built = []

    def counted(**fields):
        built.append(fields)
        return TorsionReport(**fields)

    monkeypatch.setattr(torsion_module, "TorsionReport", counted)
    H = HermitianStructure(torus_cx, h=np.eye(3))
    rep = corollary_check(H, zero_form(torus_cx.catalog, 1, 0))
    assert rep.conclusion == "kahler" and len(built) == 1


@pytest.fixture(scope="module")
def spectral_flow(spectral_cx, spectral_H):
    return gradient_descent(AeppliPoint(spectral_cx, spectral_H.omega), max_iters=100)


def test_gradient_descent_monotone_and_converges(spectral_flow):
    res = spectral_flow
    assert res.status == "converged"
    assert res.energy <= 1e-6
    assert res.d_residual <= 1e-4
    es = [row["energy"] for row in res.history]
    assert all(b <= a + 1e-12 for a, b in zip(es, es[1:]))
    assert all("potential" in row for row in res.history)
    assert all(row["margin"] > 0 for row in res.history)


@pytest.mark.parametrize("max_iters", [0, 1, 2])
def test_last_row_of_a_cut_flow_has_its_own_gradient_norm(spectral_cx, spectral_H,
                                                          spectral_flow, max_iters):
    # a flow cut at max_iters ends on the point its last step accepted; the
    # last row reads that point's gradient norm, which the uncut flow reads
    # at the start of its next iteration (1.075, 0.281, 0.073)
    res = gradient_descent(AeppliPoint(spectral_cx, spectral_H.omega), max_iters=max_iters)
    assert res.status == "max_iters" and len(res.history) == max_iters + 1
    last, ref = res.history[-1], spectral_flow.history[max_iters]
    assert last["energy"] == ref["energy"]
    assert last["grad_norm"] == ref["grad_norm"]
    assert abs(last["grad_norm"] - [1.0747, 0.2808, 0.0735][max_iters]) <= 1e-4


def test_flow_stalls_at_a_small_gradient_norm(spectral_cx, spectral_H, spectral_flow,
                                             monkeypatch):
    # the uncut flow reads gradient norms 1.075, then 0.281: with GRAD_TOL
    # between them it takes one step and stalls on its second point
    monkeypatch.setattr(energy_module, "GRAD_TOL", 0.5)
    res = gradient_descent(AeppliPoint(spectral_cx, spectral_H.omega))
    assert res.status == "stalled" and len(res.history) == 2
    assert [row["grad_norm"] for row in res.history] == [
        row["grad_norm"] for row in spectral_flow.history[:2]]
    assert res.energy == spectral_flow.history[1]["energy"]


def test_gradient_descent_stays_at_kahler(torus_cx, torus_H):
    pt = AeppliPoint(torus_cx, torus_H.omega)
    res = gradient_descent(pt, max_iters=5)
    assert res.status == "converged"
    assert np.abs(res.point.u.coeffs).max() <= 1e-12


def test_flow_from_zero_builds_its_start_metric_once(torus_cx, monkeypatch):
    # the flat torus converges at iteration 0, with no trial: the start
    # point's structure is the only metric built, and it gives the Riesz Gram
    built = []
    init = metric.HermitianStructure.__init__
    monkeypatch.setattr(metric.HermitianStructure, "__init__",
                        lambda self, *a, **k: built.append(1) or init(self, *a, **k))
    res = gradient_descent(AeppliPoint(torus_cx, torus_cx.metric_form()))
    assert res.status == "converged" and len(res.history) == 1
    assert len(built) == 1


def test_gradient_descent_history_is_certified(spectral_cx, spectral_flow):
    # the history's energies come from the min-norm oracle; the Green
    # formula, derived independently, gives the same energy at every row's
    # point, and the line search takes the steps it took when every
    # accepted point ran the full torsion_form: one row for the start point
    # and one per accepted step, each point once
    res = spectral_flow
    assert [row["step"] for row in res.history] == [1.0] + [0.0625] * 7
    assert [row["iter"] for row in res.history] == list(range(8))
    assert len({row["energy"] for row in res.history}) == 8
    for row in res.history:
        u = Form(spectral_cx.catalog, Bidegree(1, 0), row["potential"])
        rep = torsion_form(AeppliPoint(spectral_cx, res.point.omega0, u).structure())
        assert abs(rep.norm**2 - row["energy"]) <= 1e-12 * row["energy"]
    cert = res.certificate
    assert abs(cert.norm**2 - res.energy) <= 1e-12 * res.energy
    assert cert.closedness_residual <= 1e-8 and cert.minimality_gap <= 1e-6


@pytest.mark.parametrize("name, rows", [("spectral", 8), ("torus", 1)])
def test_flow_runs_torsion_form_once(name, rows, request, monkeypatch):
    # one certificate per flow, on its final point: after the spectral
    # flow's seven accepted steps, and on the flat torus, converged at
    # iteration 0
    cx = request.getfixturevalue(f"{name}_cx")
    calls = []
    monkeypatch.setattr(energy_module, "torsion_form",
                        lambda H: calls.append(H) or torsion_form(H))
    res = gradient_descent(AeppliPoint(cx, cx.metric_form()))
    assert res.status == "converged" and len(res.history) == rows
    assert len(calls) == 1 and calls[0] is res.point.structure()


def test_gradient_descent_positivity_floor_blocks(spectral_cx, spectral_H, monkeypatch):
    # a floor of twice the initial margin rejects every trial on positivity
    monkeypatch.setattr(energy_module, "POSITIVITY_FRAC", 2.0)
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    res = gradient_descent(pt, max_iters=5)
    assert res.status == "positivity_blocked"
    assert len(res.history) == 1 and np.abs(res.point.u.coeffs).max() == 0.0


def test_cached_structure_still_tests_the_floor(spectral_cx, spectral_H):
    # a floor asked for after the structure is built is decided, not ignored
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    H = pt.structure()
    margin = H.positivity_margin
    assert pt.structure(0.5 * margin) is H
    with pytest.raises(MetricError, match="above"):
        pt.structure(2.0 * margin)


def _n2_text(K, potential, grid=""):
    """The flat spectral n = 2 torus with modes axis K moved by the given
    potential terms, on the default grid or on `grid g`."""
    return f"kind spectral\nn 2\nmodes axis K {K}\n{grid}" + "".join(
        f"potential {' '.join(map(str, m))} u {j} := {format_complex(c)}\n"
        for m, j, c in potential)


@pytest.fixture(scope="module")
def n2k2_flow_sweeps():
    """The flow on the spectral n = 2, K = 2 model, and the positivity
    sweeps it runs, as a log of the events "build" and ("built",
    certified, refused) around each HermitianStructure built, with
    certified whether its Weyl bound clears its floor (weyl_certifies) and
    refused whether it raised, "margin" and "done" around each smallest
    eigenvalue, "values" for each pass that forms node values slab by slab
    (_node_slabs), and "sweep" for each Cholesky sweep over the slabs
    (_sweep); with the margin, the all-node eigvalsh minimum and max|h| of
    each smallest eigenvalue."""
    log, margins = [], []
    sweep, init = metric._sweep, metric.HermitianStructure.__init__
    smallest, values = metric._smallest_eigenvalue, metric._node_slabs

    def build(self, *args, floor=0.0, **kwargs):
        log.append("build")
        refused = True
        try:
            init(self, *args, floor=floor, **kwargs)
            refused = False
        finally:
            log.append(("built", weyl_certifies(self, floor), refused))

    def margin(M):
        log.append("margin")
        lo = smallest(M)
        log.append("done")
        margins.append((lo[0], np.linalg.eigvalsh(M).min(), np.abs(M).max()))
        return lo

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_sweep", lambda *a: log.append("sweep") or sweep(*a))
        mp.setattr(metric, "_node_slabs", lambda *a: log.append("values") or values(*a))
        mp.setattr(metric.HermitianStructure, "__init__", build)
        mp.setattr(metric, "_smallest_eigenvalue", margin)
        cx = build_complex(parse_model(_n2_text(2, N2K2_POTENTIAL)))
        res = gradient_descent(AeppliPoint(cx, cx.metric_form()))
    return res, log, margins


def _sweeps_between(log, start, end):
    """The number of sweeps inside each start ... end pair of the log."""
    counts, inside = [], False
    for event in log:
        if event == start:
            counts.append(0)
            inside = True
        elif event == end:
            inside = False
        elif event == "sweep" and inside:
            counts[-1] += 1
    return counts


def _builds(log):
    """(certified, refused, events) for each build in the log, events the
    "values" and "sweep" inside it."""
    builds, events = [], None
    for event in log:
        if event == "build":
            events = []
        elif isinstance(event, tuple):
            builds.append((event[1], event[2], events))
            events = None
        elif events is not None:
            events.append(event)
    return builds


def test_line_search_trial_sweeps_positivity_once(n2k2_flow_sweeps):
    # the floor is decided where a trial's structure is built: a build the
    # Weyl bound certifies forms no node values and runs no sweep; every
    # other build forms its node values and runs one sweep, and when the
    # nodes pass, forms its cell-centre values and runs one more sweep.  No
    # sweep runs outside a build or a smallest eigenvalue's proof
    res, log, _ = n2k2_flow_sweeps
    builds = _builds(log)
    proofs = _sweeps_between(log, "margin", "done")
    assert res.status == "converged" and len(builds) > len(res.history)
    kinds = set()
    for certified, refused, events in builds:
        if certified:
            expected = []
        elif refused:
            expected = ["values", "sweep"]
        else:
            expected = ["values", "sweep"] * 2
        assert events == expected
        kinds.add((certified, refused))
    # this flow has all three kinds of build: the start metric passes the
    # nodes and the cell centres, six trials are refused at the nodes
    assert kinds == {(True, False), (False, True), (False, False)}
    assert log.count("sweep") == sum(e.count("sweep") for _, _, e in builds) + sum(proofs)


def test_weyl_certificate_agrees_with_the_nodes_along_a_flow(spectral_cx, spectral_H,
                                                             monkeypatch):
    # every metric the flow on SPECTRAL_TEXT builds, the refused trials
    # included: the Weyl bound is at most the smallest eigenvalue at every
    # node, and where it clears the floor, the node sweep agrees
    built = []
    init = metric.HermitianStructure.__init__

    def build(self, *args, floor=0.0, **kwargs):
        built.append((self, floor))
        init(self, *args, floor=floor, **kwargs)

    monkeypatch.setattr(metric.HermitianStructure, "__init__", build)
    gradient_descent(AeppliPoint(spectral_cx, spectral_H.omega), max_iters=100)
    certified = 0
    for H, floor in built:
        nodes = node_values(H.complex, H._herm)
        assert metric._weyl_bound(H.complex.catalog, H._herm)[0] <= (
            np.linalg.eigvalsh(nodes).min())
        if weyl_certifies(H, floor):
            certified += 1
            assert metric._positive_above(nodes, floor)
    assert 0 < certified < len(built)


def test_flow_margins_need_one_round(n2k2_flow_sweeps):
    # the potentials of this model do not depend on their own z_j, so the
    # diagonal of h(x) is constant on the start metric; ranked by the 2 x 2
    # principal submatrices, every margin's first 64 candidates hold the
    # minimum, and the one proof sweep accepts it
    res, log, margins = n2k2_flow_sweeps
    assert len(res.history) == 13
    assert _sweeps_between(log, "margin", "done") == [1] * len(margins)
    for lo, eig, scale in margins:
        assert abs(lo - eig) <= 1e-13 * scale


def _n2_invariants(K, potential, grid=""):
    """(F, torsion norm, cohomology dimensions, Gram matrix per bidegree)
    of the flat spectral n = 2 torus with modes axis K moved by the given
    potential terms, on the default grid or on `grid g`.  On n = 2 the
    (2,0) Gram, in which F is measured, is the same for every metric
    (|dz^1 ^ dz^2|^2 dV is constant), so it is the Grams of the other
    bidegrees that see the quadrature."""
    cx = build_complex(parse_model(_n2_text(K, potential, grid)))
    H = HermitianStructure(cx, omega=cx.metric_form())
    f, rep = energy(H)
    dims = {pq: (e["dbar"], e["bc"], e["aeppli"])
            for pq, e in cohomology_table(H).entries.items()}
    return f, rep.norm, dims, {(p, q): H.gram(p, q) for p in range(3) for q in range(3)}


def test_energy_invariant_under_a_grid_isometry():
    # z_1 -> i z_1 pulls e_m back to e_(m_3, m_2, -m_1, m_4) and dz^1 to
    # i dz^1, which moves the potential on axis 1 to axis 3 and the one on
    # axis 3 to axis 1; then a translation by grid steps s of the 9-node
    # grid multiplies the coefficient of e_m by exp(2 pi i m . s / 9).  Both
    # map the quadrature grid to itself and act on every basis by a unitary
    # matrix, so neither the numbers nor the Gram spectra may change.
    moved = [((m[2], m[1], -m[0], m[3]), j, c * (1j if j == 1 else 1))
             for m, j, c in N2K2_POTENTIAL]
    steps = (1, 0, 3, 2)
    moved = [(m, j, c * cmath.exp(2j * cmath.pi * np.dot(m, steps) / 9))
             for m, j, c in moved]
    f, norm, dims, grams = _n2_invariants(2, N2K2_POTENTIAL)
    f2, norm2, dims2, grams2 = _n2_invariants(2, moved)
    assert f > 0.1
    assert abs(f2 - f) <= 1e-12 * f and abs(norm2 - norm) <= 1e-12 * norm
    assert dims2 == dims
    for pq, G in grams.items():
        w, w2 = np.linalg.eigvalsh(G), np.linalg.eigvalsh(grams2[pq])
        assert np.abs(w2 - w).max() <= 1e-12 * w.max(), pq


def test_energy_invariant_under_the_doubling_cover():
    # modes axis K 2 holds {0, +-2 e_a}.  With the potential's modes
    # doubled and its coefficients halved, h(x) of the K = 2 model is
    # h(2 x) of the K = 1 model: its pullback by the doubling map of every
    # axis, a covering of degree 4^n, divided by 4.  F(lambda omega) =
    # lambda^n F(omega), so the energies agree.  On 9 nodes per axis the
    # doubling map permutes the nodes, so the Fourier coefficient of the
    # pointwise pairing at 2 d of the K = 2 model is the one at d of the
    # K = 1 model on the same grid, and the Grams agree entry by entry.
    base = [(tuple(a // 2 for a in m), j, 2 * c) for m, j, c in N2K2_POTENTIAL]
    f, norm, dims, _ = _n2_invariants(1, base)
    f2, norm2, dims2, grams2 = _n2_invariants(2, N2K2_POTENTIAL)
    assert abs(f2 - f) <= 1e-12 * f and abs(norm2 - norm) <= 1e-12 * norm
    assert dims2 == dims
    grams = _n2_invariants(1, base, grid="grid 9\n")[3]
    for pq, G in grams.items():
        assert np.abs(grams2[pq] - G).max() <= 1e-12 * np.abs(G).max(), pq


def test_n3_energy_invariant_under_the_doubling_cover(spectral_H):
    # the n = 3 covering oracle: as on n = 2 above, h(x) of the K = 2 model
    # is h(2 x) of SPECTRAL_TEXT's, so F and the torsion norm agree.  Its
    # det h reaches the 3-fold sums of the modes, among them +-6 e_a, which
    # the minor spectra fold onto the frequencies -+3 e_a of the 9-node grid
    cx = build_complex(parse_model(STRETCH_TEXT))
    assert cx.n_nodes == 9**6
    f, rep = energy(HermitianStructure(cx, omega=cx.metric_form()))
    f0, rep0 = energy(spectral_H)
    assert abs(f - f0) <= 1e-12 * f0
    assert abs(rep.norm - rep0.norm) <= 1e-12 * rep0.norm


# n = 4 with modes 0, +-e_1, +-e_2 (5 x 5 nodes): the smallest model on
# which dF has its higher-dimensional term
N4_TEXT = """kind spectral
n 4
mode 0 0 0 0 0 0 0 0
mode 1 0 0 0 0 0 0 0
mode -1 0 0 0 0 0 0 0
mode 0 1 0 0 0 0 0 0
mode 0 -1 0 0 0 0 0 0
potential 1 0 0 0 0 0 0 0 u 2 := 0.2
potential 0 1 0 0 0 0 0 0 u 3 := 0.15+0.1i
potential -1 0 0 0 0 0 0 0 u 4 := 0.1i
"""


# the same shape at n = 5, the first n where omega^{n-4} enters the term
N5_TEXT = """kind spectral
n 5
mode 0 0 0 0 0 0 0 0 0 0
mode 1 0 0 0 0 0 0 0 0 0
mode -1 0 0 0 0 0 0 0 0 0
mode 0 1 0 0 0 0 0 0 0 0
mode 0 -1 0 0 0 0 0 0 0 0
potential 1 0 0 0 0 0 0 0 0 0 u 2 := 0.2
potential 0 1 0 0 0 0 0 0 0 0 u 3 := 0.15+0.1i
potential -1 0 0 0 0 0 0 0 0 0 u 5 := 0.1i
"""


def _per_basis_wedge_functional(H, rho):
    """The reference of _torsion_wedge_functional: one integrate_product of
    e_j ^ rho ^ conj(rho) ^ dbar(omega) ^ omega^{n-4} / (n-4)! per (1,0)
    basis form e_j."""
    cx, n = H.complex, H.n
    tail = [rho, conjugate(rho), cx.apply_dbar(H.omega)] + [H.omega] * (n - 4)
    b = np.zeros(cx.dims(1, 0), dtype=complex)
    for j in range(len(b)):
        e = zero_form(cx.catalog, 1, 0)
        e.coeffs[j] = 1.0
        b[j] = H.integrate_product([e] + tail, 1.0 / math.factorial(n - 4))
    return b


@pytest.mark.parametrize("text", [N4_TEXT, N5_TEXT], ids=["n4", "n5"])
def test_wedge_functional_matches_the_per_basis_integrals(text, monkeypatch):
    # one pass over the nodes gives every coefficient of the per-basis
    # integrals, evaluating each tail form once: rho, dbar(omega),
    # conj(rho), and omega n - 4 times
    cx = build_complex(parse_model(text))
    H = HermitianStructure(cx, omega=cx.metric_form())
    rho = energy(H)[1].rho20
    evaluated = []
    evaluate = FormComplex.evaluate
    monkeypatch.setattr(FormComplex, "evaluate",
                        lambda self, u: evaluated.append(u.bidegree) or evaluate(self, u))
    b = energy_module._torsion_wedge_functional(H, rho)
    assert len(evaluated) == 3 + (cx.n - 4)
    monkeypatch.undo()
    ref = _per_basis_wedge_functional(H, rho)
    assert np.abs(ref).max() > 0.1
    assert np.abs(b - ref).max() <= 1e-13 * np.abs(ref).max()


def test_differential_has_the_higher_dimensional_term(rng):
    # for n >= 4, dF gains 2 Re int u ^ rho ^ conj(rho) ^ dbar(omega_{n-3});
    # here it is non-zero, and the differential with it matches central
    # finite differences of F along unit directions, whose O(h^2) error is
    # about 1e-9 relative at h = 1e-5
    cx = build_complex(parse_model(N4_TEXT))
    assert (cx.n, cx.catalog.n_modes, cx.n_nodes) == (4, 5, 25)
    H = HermitianStructure(cx, omega=cx.metric_form())
    _, rep = energy(H)
    assert np.abs(energy_module._torsion_wedge_functional(H, rep.rho20)).max() > 0.1
    pt = AeppliPoint(cx, H.omega)
    for _ in range(3):
        v = cx.random_form(1, 0, rng)
        v = (1 / np.linalg.norm(v.coeffs)) * v
        ex = differential(pt, v)
        fd = fd_differential(pt, v, h=1e-5)
        assert abs(ex - fd) <= 1e-8 * abs(ex)


def test_differential_matches_finite_differences_at_n5(rng):
    # the n = 5 term, with its omega factor, against central finite
    # differences of F, as at n = 4
    cx = build_complex(parse_model(N5_TEXT))
    assert (cx.n, cx.catalog.n_modes, cx.n_nodes) == (5, 5, 25)
    pt = AeppliPoint(cx, cx.metric_form())
    for _ in range(2):
        v = cx.random_form(1, 0, rng)
        v = (1 / np.linalg.norm(v.coeffs)) * v
        ex = differential(pt, v)
        fd = fd_differential(pt, v, h=1e-5)
        assert abs(ex - fd) <= 1e-8 * abs(ex)
