import csv

import numpy as np
import pytest

from hstorsion import backends, cli, cohomology, deform, metric
from hstorsion.backends import (FormComplex, Model, ModelError, ModelTemplate,
                                build_complex, parse_model)
from hstorsion.cohomology import checked_counts, cohomology_table, green_operator
from hstorsion.deform import (FamilyTable, HypothesisError, family_diagnostics,
                              kahler_in_class, min_ddbar_solution,
                              neumann_dbar_solution, parse_family)
from hstorsion.energy import differential_riesz
from hstorsion.forms import Bidegree, Form, conjugate
from hstorsion.metric import HermitianStructure
from hstorsion.torsion import torsion_form

from conftest import (FAMILY_TEXT, IWASAWA_TEXT, N2K2_FAMILY, POTENTIAL_FAMILY,
                      SPECTRAL_TEXT, TORUS_TEXT, node_values, random_hermitian_structure)

TORUS_POTENTIAL_FAMILY = """kind spectral
n 3
modes axis K 1
potential 1 0 0 0 0 0 u 2 := poly(0, 0.04)
potential 0 1 0 0 0 0 u 3 := poly(0, 0.03+0.02i)
t_samples := 0 0.25 0.5
"""


def test_min_ddbar_properties(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    cx = H.complex
    x = cx.random_form(0, 0, rng)
    v = Form(cx.catalog, Bidegree(1, 1), cx.ddbar_matrix(0, 0) @ x.coeffs)
    sol = min_ddbar_solution(H, v)
    back = cx.ddbar_matrix(0, 0) @ sol.u.coeffs
    assert np.linalg.norm(back - v.coeffs) <= 1e-8 * (1 + np.linalg.norm(v.coeffs))
    assert sol.residual <= 1e-8
    assert H.norm(sol.u) <= H.norm(x) + 1e-10  # minimality


def test_min_ddbar_rejects_off_image(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    v = H.complex.random_form(1, 1, rng)
    with pytest.raises(HypothesisError):
        min_ddbar_solution(H, v)


def test_neumann_solution(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    cx = H.complex
    psi = cx.random_form(0, 1, rng)
    rho = cx.apply_dbar(psi)  # guaranteed dbar-exact
    sol = neumann_dbar_solution(H, rho)
    assert H.norm(cx.apply_dbar(sol.phi) - rho) <= 1e-8 * (1 + H.norm(rho))
    assert sol.commutation_gap <= 1e-8
    assert H.norm(sol.phi) <= H.norm(psi) + 1e-10


def _solution_operator_metric(name):
    """SPECTRAL_TEXT, SPECTRAL_TEXT moved by a random potential, the n = 2,
    K = 2 family at t = 0.5, or a random invariant torus or Iwasawa
    metric."""
    rng = np.random.default_rng(len(name))
    if name.startswith(("torus", "iwasawa")):
        text = TORUS_TEXT if name.startswith("torus") else IWASAWA_TEXT
        return random_hermitian_structure(build_complex(parse_model(text)), rng, amp=0.5)
    if name == "n2k2-t0.5":
        cx = build_complex(parse_family(N2K2_FAMILY).model(0.5))
        return HermitianStructure(cx, omega=cx.metric_form())
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    w = cx.metric_form()
    if name == "spectral-random":
        u = 0.01 * cx.random_form(1, 0, rng)
        w = w + cx.apply_dbar(u) + cx.apply_del(conjugate(u))
    return HermitianStructure(cx, omega=w)


def test_neumann_gap_sees_a_wrong_green_operator(spectral_cx, monkeypatch):
    # the gap compares the least-squares phi with Green' dbar* rho: with
    # every Green operator scaled by 1 + 1e-3 the formula's side moves by
    # 1e-3 ||phi|| (4.6e-5 of 1 + ||rho|| for SPECTRAL_TEXT's rho^{0,2}),
    # and phi does not
    pinv = cohomology.GramEig.pinv
    gaps = []
    for scale in (1.0, 1 + 1e-3):
        monkeypatch.setattr(cohomology.GramEig, "pinv",
                            property(lambda ge, s=scale: s * pinv.func(ge)))
        H = HermitianStructure(spectral_cx, omega=spectral_cx.metric_form())
        gaps.append(neumann_dbar_solution(H, torsion_form(H).rho02).commutation_gap)
    assert gaps[0] <= 1e-14 and gaps[1] > 1e-6


def test_kahler_in_class_builds_no_green_operator(torus_cx, rng, monkeypatch):
    # the candidate's potential is the lstsq's solution, whose residual is
    # also the hypothesis distance: no Laplacian is diagonalized
    calls = []
    gram_eig = cohomology.gram_eig
    monkeypatch.setattr(cohomology, "gram_eig", lambda *a: calls.append(1) or gram_eig(*a))
    kr = kahler_in_class(random_hermitian_structure(torus_cx, rng))
    assert kr.d_residual <= 1e-12 and not calls


def _solve_based(H, kind, v, which):
    """D* Green v for D = kind, the Green operator of the Laplacian which
    and D* by a solve with the source Gram (adjoint_matrix), independent of
    the Cholesky factors that HermitianStructure.apply_adjoint reads."""
    dp, dq = {"dbar": (0, 1), "ddbar": (1, 1)}[kind]
    src = (v.p - dp, v.q - dq)
    A = getattr(H.complex, f"{kind}_matrix")(*src)
    return H.adjoint_matrix(A, src, (v.p, v.q)) @ (
        green_operator(H, v.p, v.q, which).pinv @ v.coeffs)


def _agree(x, ref):
    return np.abs(x - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1e-300)


@pytest.mark.parametrize("name", ["spectral", "spectral-random", "n2k2-t0.5",
                                  "torus-random", "iwasawa-random0", "iwasawa-random1"])
def test_solution_operators_match_the_solve_based_adjoint(name):
    # min_ddbar_solution, neumann_dbar_solution and kahler_in_class solve by
    # the whitened lstsq; the Green-operator formulas D* Green v with D* by a
    # solve give the same forms
    H = _solution_operator_metric(name)
    cx = H.complex
    rng = np.random.default_rng(3)
    nontrivial = 0
    for (p, q) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        v = cx.apply_del(cx.apply_dbar(cx.random_form(p, q, rng)))
        assert _agree(min_ddbar_solution(H, v).u.coeffs, _solve_based(H, "ddbar", v, "bc"))
        rho = cx.apply_dbar(cx.random_form(q + 1, p, rng))
        assert _agree(neumann_dbar_solution(H, rho).phi.coeffs,
                      _solve_based(H, "dbar", rho, "dbar"))
        nontrivial += H.norm(v) > 1e-6 and H.norm(rho) > 1e-6
    assert nontrivial or name.startswith("torus")
    if not name.startswith("iwasawa"):
        u_min = kahler_in_class(H).u_min.coeffs
        assert _agree(u_min, -_solve_based(H, "ddbar", cx.apply_del(H.omega), "bc"))
        assert name.startswith("torus") or np.abs(u_min).max() > 1e-6


def test_kahler_in_class_trivial_at_kahler(torus_H):
    kr = kahler_in_class(torus_H)
    assert kr.u_norm <= 1e-12
    assert kr.d_residual <= 1e-12
    assert torus_H.norm(kr.omega_tilde - torus_H.omega) <= 1e-12


def test_kahler_in_class_spectral(spectral_H):
    kr = kahler_in_class(spectral_H)
    assert kr.d_residual <= 1e-8
    assert kr.hypothesis_distance <= 1e-8
    assert kr.positivity.verdict == "positive"
    # the candidate sits in the same Aeppli potential class by construction
    cx = spectral_H.complex
    diff = kr.omega_tilde - spectral_H.omega
    u = kr.u_min
    rebuilt = cx.apply_del(conjugate(u)) + cx.apply_dbar(u)
    assert spectral_H.norm(diff - rebuilt) <= 1e-10


def test_kahler_in_class_evaluates_the_candidate_once(spectral_H, monkeypatch):
    # kahler_in_class builds the candidate's structure, which splits its
    # coefficients once and, certified by the Weyl bound, forms no node
    # values; the positivity verdict is formed when first read, as for any
    # form: a second split, h(x) once, one smallest eigenvalue and, as the
    # Weyl bound certifies it, no cell-centre values; a second read forms
    # nothing
    splits, passes, smallest = [], [], []
    split, slabs = metric._hermitian_split, metric._node_slabs
    eig = metric._smallest_eigenvalue
    monkeypatch.setattr(metric, "_hermitian_split",
                        lambda *a: splits.append(split(*a)) or splits[-1])
    monkeypatch.setattr(metric, "_node_slabs",
                        lambda cx, c: passes.append(c) or slabs(cx, c))
    monkeypatch.setattr(metric, "_smallest_eigenvalue",
                        lambda *a: smallest.append(1) or eig(*a))
    kr = kahler_in_class(spectral_H)
    assert len(splits) == 1 and not passes and not smallest
    verdict = kr.positivity
    assert len(splits) == 2 and len(smallest) == 1
    h_coeffs, _ = splits[1]
    assert len(passes) == 1 and passes[0] is h_coeffs
    assert kr.positivity is verdict
    assert (len(splits), len(passes), len(smallest)) == (2, 1, 1)
    assert verdict.verdict == "positive" and verdict.certified
    h = node_values(spectral_H.complex, h_coeffs)
    assert verdict.margin == np.linalg.eigvalsh(h).min()


def test_kahler_in_class_refuses_iwasawa(iwasawa_H):
    with pytest.raises(HypothesisError) as err:
        kahler_in_class(iwasawa_H)
    assert "distance" in str(err.value)


def test_parse_family_and_instantiate():
    spec = parse_family(FAMILY_TEXT)
    assert spec.t_samples == [0.0, 0.5, 1.0]
    m0 = spec.model(0.0)
    m1 = spec.model(1.0)
    cx0 = build_complex(m0)
    cx1 = build_complex(m1)
    assert np.abs(cx0.del_matrix(1, 0)).max() <= 1e-14  # torus at t = 0
    assert np.abs(cx1.del_matrix(1, 0)).max() > 0.5  # Iwasawa at t = 1


def test_parse_family_requires_zero_sample():
    with pytest.raises(Exception):
        parse_family(FAMILY_TEXT.replace("0 0.5 1", "0.5 1"))


@pytest.mark.parametrize("bad", ["poly(0, x)", "poly(0,, -1)", "poly(0, 1j)"])
def test_parse_family_bad_coefficient_has_line(bad):
    with pytest.raises(ModelError) as err:
        parse_family(FAMILY_TEXT.replace("poly(0, -1)", bad))
    assert err.value.line == 3


def test_family_flags_dimension_jump():
    table = family_diagnostics(parse_family(FAMILY_TEXT))
    rows = {row["t"]: row for row in table.rows}
    assert rows[0.0]["feasible"] and not rows[0.0]["flagged"]
    assert rows[1.0]["flagged"]  # infeasible + cohomology jump
    assert 0.5 in table.flagged and 1.0 in table.flagged


def test_family_torsion_scaling():
    table = family_diagnostics(parse_family(TORUS_POTENTIAL_FAMILY))
    rows = {row["t"]: row for row in table.rows}
    assert not table.flagged
    assert rows[0.0]["rho_norm"] <= 1e-10
    # rho_t vanishes at least linearly in t
    assert rows[0.25]["rho_diff"] <= 0.6 * rows[0.5]["rho_diff"]
    for t in (0.25, 0.5):
        assert rows[t]["kahler_d_residual"] <= 1e-8


def test_family_samples_share_one_assembly_per_structure(monkeypatch):
    # the structure constants of a potential family do not move with t, so
    # its samples share one assembly (none when a live complex already
    # holds the structure); FAMILY_TEXT's d phi^3 moves with t, so each of
    # its samples assembles its own
    assembled, built = [], []
    assemble = FormComplex._assemble
    monkeypatch.setattr(FormComplex, "_assemble",
                        lambda self: assembled.append(self._structure) or assemble(self))
    monkeypatch.setattr(deform, "build_complex",
                        lambda model: built.append(build_complex(model)) or built[-1])
    alive = list(backends._STRUCTURES.values())  # kept alive for the count
    for text, structures in [(TORUS_POTENTIAL_FAMILY, 1), (FAMILY_TEXT, 3)]:
        assembled.clear()
        built.clear()
        family_diagnostics(parse_family(text))
        shared = {id(cx._structure) for cx in built}
        assert len(built) == 3 and len(shared) == structures
        # each structure that was not alive before assembled exactly once
        assert sorted(map(id, assembled)) == sorted(shared - set(map(id, alive)))
    # a structure that breaks d^2 = 0 is refused, and not kept, while a
    # valid complex on the same one-node lattice is alive
    valid = build_complex(parse_model(IWASAWA_TEXT))
    broken = Model(n=3, d_phi={1: {("e", 1, 2): 1.0}, 2: {("e", 2, 3): 1.0}})
    for _ in range(2):
        with pytest.raises(ModelError, match=r"delbar\^2 != 0 at bidegree \(0,1\)"):
            build_complex(broken)
    assert valid.del_matrix(0, 0).shape == (3, 1)


def test_family_crit_sup_is_the_loop_over_directions():
    # reference: the sup of |dF| over e_j and i e_j, one direction at a
    # time, normalized by the Gram norm of the direction
    spec = parse_family(TORUS_POTENTIAL_FAMILY)
    spec.t_samples = [0.0, 0.5]
    row = family_diagnostics(spec).rows[1]
    cx = build_complex(spec.model(0.5))
    H = HermitianStructure(cx, omega=cx.metric_form())
    c = differential_riesz(H, torsion_form(H).rho20)
    G = H.gram(1, 0)
    sup = 0.0
    for j in range(len(c)):
        e = np.zeros(len(c), dtype=complex)
        e[j] = 1.0
        nrm = np.sqrt(max((np.conj(e) @ (G @ e)).real, 1e-300))
        sup = max(sup, abs(np.real(np.conj(c) @ e)) / nrm,
                  abs(np.real(np.conj(c) @ (1j * e))) / nrm)
    assert sup > 0 and row["crit_sup"] == sup


def test_family_csv_roundtrip(tmp_path):
    # the family command writes one CSV row per sample, the columns of
    # FamilyTable.FIELDS, empty where a row has no value
    path = tmp_path / "family.model"
    path.write_text(FAMILY_TEXT)
    assert cli.run(["family", "--model", str(path), "--out", str(tmp_path)]) == 0
    table = family_diagnostics(parse_family(FAMILY_TEXT))
    with open(tmp_path / "family.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == FamilyTable.FIELDS
    assert [{k: str(row.get(k, "")) for k in FamilyTable.FIELDS}
            for row in table.rows] == rows
    assert rows[2]["rho_norm"] == ""  # t = 1 is infeasible


def test_family_flags_unreliable_kernel_split(monkeypatch):
    # the t = 0 sample is the flat torus, feasible and unflagged; a kernel
    # split reported unreliable by the dimension columns flags it
    spec = parse_family(FAMILY_TEXT)
    spec.t_samples = [0.0]
    assert not family_diagnostics(spec).flagged

    def unreliable(H, keys):
        return [(kernel, separated and key != ("dbar", 0, 1), rank)
                for key, (kernel, separated, rank) in zip(keys, checked_counts(H, keys))]

    monkeypatch.setattr(deform, "checked_counts", unreliable)
    table = family_diagnostics(spec)
    assert table.flagged == [0.0] and table.rows[0]["flagged"]


def test_family_diagnostics_needs_t_samples():
    # a model template read without the family flag has no t_samples
    with pytest.raises(ModelError, match="missing 't_samples' line") as err:
        family_diagnostics(ModelTemplate("kind invariant\nn 2\n"))
    assert err.value.line == 2


def test_kahler_candidate_that_is_not_a_metric_is_measured_in_the_input_geometry(
        spectral_H, monkeypatch):
    # a candidate refused as a metric keeps the input's structure: its
    # d-residual and positivity verdict are taken in the input's geometry
    kept = kahler_in_class(spectral_H)

    def refuse(cx, omega):
        raise metric.MetricError("not positive")

    monkeypatch.setattr(deform, "HermitianStructure", refuse)
    kr = kahler_in_class(spectral_H)
    assert kr.structure is spectral_H and kept.structure is not spectral_H
    assert np.array_equal(kr.omega_tilde.coeffs, kept.omega_tilde.coeffs)
    dp, dq = spectral_H.complex.d_full(kr.omega_tilde)
    assert kr.d_residual == ((spectral_H.norm(dp) + spectral_H.norm(dq))
                             / (1.0 + spectral_H.norm(kr.omega_tilde)))
    assert kr.positivity == metric.check_weak_positivity(spectral_H, kr.omega_tilde)


# three feasible, unflagged samples of an invariant n = 2 family
INVARIANT_N2_FAMILY = ("kind invariant\nn 2\nmetric h 1 1 := poly(1, 0.5)\n"
                       "metric h 2 2 := 1\nt_samples := 0 0.5 1\n")


def _family_csv(tmp_path):
    path = tmp_path / "family.model"
    path.write_text(INVARIANT_N2_FAMILY)
    assert cli.run(["family", "--model", str(path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "family.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def test_family_leaves_beta_residual_empty_when_neumann_refuses(tmp_path, monkeypatch):
    def refuse(H, rho):
        raise HypothesisError("right-hand side is not dbar-exact")

    monkeypatch.setattr(deform, "neumann_dbar_solution", refuse)
    rows = _family_csv(tmp_path)
    assert len(rows) == 3
    assert all(r["feasible"] == "True" and r["beta_residual"] == ""
               and float(r["kahler_d_residual"]) <= 1e-10 for r in rows)


def test_family_writes_the_kahler_refusal(tmp_path, monkeypatch):
    message = "right-hand side is not del-dbar-exact: relative distance 1.000e+00"

    def refuse(H):
        raise HypothesisError(message)

    monkeypatch.setattr(deform, "kahler_in_class", refuse)
    rows = _family_csv(tmp_path)
    assert len(rows) == 3
    assert all(r["kahler_distance"] == message and r["kahler_d_residual"] == ""
               and float(r["beta_residual"]) <= 1e-10 for r in rows)


@pytest.mark.parametrize("text", [FAMILY_TEXT, POTENTIAL_FAMILY, N2K2_FAMILY],
                         ids=["invariant", "potential", "n2k2"])
def test_family_columns_equal_the_cohomology_table(text):
    # family and cohomology_table count each harmonic dimension one way:
    # every sample's columns are the table's entries at the sample metric
    template = parse_family(text)
    rows = family_diagnostics(template).rows
    assert [row["t"] for row in rows] == sorted(template.t_samples)
    for row in rows:
        cx = build_complex(template.model(row["t"]))
        entries = cohomology_table(HermitianStructure(cx, omega=cx.metric_form())).entries
        assert [row["h_bc_02"], row["h_bc_21"], row["h_dbar_01"], row["h_dbar_02"]] == [
            entries[(0, 2)]["bc"], entries[(2, 1)]["bc"], entries[(0, 1)]["dbar"],
            entries[(0, 2)]["dbar"]], row["t"]
