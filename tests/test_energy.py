import cmath

import numpy as np
import pytest

from hstorsion import metric
from hstorsion.backends import build_complex, format_complex, parse_model
from hstorsion.cohomology import cohomology_table
from hstorsion.energy import (AeppliPoint, corollary_check, differential,
                              differential_riesz, differential_special,
                              energy, fd_differential, fd_step_sweep,
                              gradient_descent)
from hstorsion.forms import Bidegree, Form, zero_form
from hstorsion.metric import HermitianStructure, MetricError
from hstorsion.torsion import min_norm_torsion, torsion_form

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
    assert res.status == "converged" and len(res.history) == 2
    assert len(built) == 1


def test_gradient_descent_history_is_certified(spectral_cx, spectral_flow):
    # trials are judged by the min-norm oracle alone, the history by the
    # certified formula: both energies agree at every accepted iterate, and
    # the line search takes the steps it took when every trial ran the full
    # torsion_form
    res = spectral_flow
    assert [row["step"] for row in res.history] == [1.0] + [0.0625] * 8
    for row in res.history:
        u = Form(spectral_cx.catalog, Bidegree(1, 0), row["potential"])
        H = AeppliPoint(spectral_cx, res.point.omega0, u).structure()
        f = H.norm(min_norm_torsion(H)) ** 2
        assert abs(f - row["energy"]) <= 1e-12 * row["energy"]


def test_gradient_descent_positivity_floor_blocks(spectral_cx, spectral_H):
    # a floor of twice the initial margin rejects every trial on positivity
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    res = gradient_descent(pt, max_iters=5, positivity_frac=2.0)
    assert res.status == "positivity_blocked"
    assert len(res.history) == 2 and np.abs(res.point.u.coeffs).max() == 0.0


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
    sweeps (_positive_above) it runs, as a log of the events "build" and
    "built" around each HermitianStructure built, "margin" and "done"
    around each smallest eigenvalue, and "sweep"; with the margin, the
    all-node eigvalsh minimum and max|h| of each smallest eigenvalue."""
    log, margins = [], []
    sweep, init = metric._positive_above, metric.HermitianStructure.__init__
    smallest = metric._smallest_eigenvalue

    def build(self, *args, **kwargs):
        log.append("build")
        try:
            init(self, *args, **kwargs)
        finally:
            log.append("built")

    def margin(M):
        log.append("margin")
        lo = smallest(M)
        log.append("done")
        margins.append((lo[0], np.linalg.eigvalsh(M).min(), np.abs(M).max()))
        return lo

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "_positive_above", lambda *a: log.append("sweep") or sweep(*a))
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


def test_line_search_trial_sweeps_positivity_once(n2k2_flow_sweeps):
    # the floor is decided where a trial's structure is built: every
    # metric the flow builds, the start and one per trial, runs one sweep,
    # and no sweep runs outside a build or a smallest eigenvalue's proof
    res, log, _ = n2k2_flow_sweeps
    builds = _sweeps_between(log, "build", "built")
    proofs = _sweeps_between(log, "margin", "done")
    assert res.status == "converged" and len(builds) > len(res.history)
    assert builds == [1] * len(builds)
    assert log.count("sweep") == len(builds) + sum(proofs)


def test_flow_margins_need_one_round(n2k2_flow_sweeps):
    # the potentials of this model do not depend on their own z_j, so the
    # diagonal of h(x) is constant on the start metric; ranked by the 2 x 2
    # principal submatrices, every margin's first 64 candidates hold the
    # minimum, and the one proof sweep accepts it
    res, log, margins = n2k2_flow_sweeps
    assert len(res.history) == 14
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


# SPECTRAL_TEXT's potentials moved to 2 e_a, with halved coefficients, on
# modes axis K 2 and its 9^6 nodes
STRETCH_TEXT = """kind spectral
n 3
modes axis K 2
potential 2 0 0 0 0 0 u 2 := 0.02
potential 0 2 0 0 0 0 u 3 := 0.015+0.01i
potential 0 0 0 2 0 0 u 1 := 0.01i
"""


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

