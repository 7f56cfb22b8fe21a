import csv
import dataclasses

import numpy as np
import pytest

from hstorsion import cli, cohomology, deform, metric
from hstorsion.backends import ModelError, build_complex, parse_model
from hstorsion.cohomology import green_operator
from hstorsion.deform import (FamilyTable, HypothesisError, family_diagnostics,
                              kahler_in_class, min_ddbar_solution,
                              neumann_dbar_solution, parse_family)
from hstorsion.energy import differential_riesz
from hstorsion.forms import Bidegree, Form, conjugate
from hstorsion.metric import HermitianStructure
from hstorsion.torsion import torsion_form

from conftest import random_hermitian_structure

FAMILY_TEXT = """kind invariant
n 3
d 3 := poly(0, -1) * e(1,2)
t_samples := 0 0.5 1
"""

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
    # HermitianStructure splits the candidate's coefficients and forms its
    # h(x) once; its positivity verdict reads that split, those node
    # matrices and the metric's own smallest eigenvalue instead of forming
    # and diagonalizing them again
    splits, node_values, smallest = [], [], []
    split, values = metric._hermitian_split, metric._node_values
    eig = metric._smallest_eigenvalue
    monkeypatch.setattr(metric, "_hermitian_split",
                        lambda *a: splits.append(split(*a)) or splits[-1])
    monkeypatch.setattr(metric, "_node_values",
                        lambda cx, c: node_values.append(c) or values(cx, c))
    monkeypatch.setattr(metric, "_smallest_eigenvalue",
                        lambda *a: smallest.append(1) or eig(*a))
    kr = kahler_in_class(spectral_H)
    assert len(splits) == 1 and len(smallest) == 1
    h_coeffs, _ = splits[0]
    assert sum(c is h_coeffs for c in node_values) == 1
    assert kr.positivity.verdict == "positive"
    h = values(spectral_H.complex, h_coeffs)
    assert kr.positivity.margin == np.linalg.eigvalsh(h).min()


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


def test_family_crit_sup_is_the_loop_over_directions():
    # reference: the sup of |dF| over e_j and i e_j, one direction at a
    # time, normalized by the Gram norm of the direction
    spec = parse_family(TORUS_POTENTIAL_FAMILY)
    spec = dataclasses.replace(spec, t_samples=[0.0, 0.5])
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
    spec = dataclasses.replace(spec, t_samples=[0.0])
    assert not family_diagnostics(spec).flagged

    def unreliable(H, p, q, which="bc", rcond=cohomology.KERNEL_RCOND):
        ge = green_operator(H, p, q, which, rcond)
        if (p, q, which) == (0, 1, "dbar"):
            ge = dataclasses.replace(ge, separation_ok=False)
        return ge

    monkeypatch.setattr(deform, "green_operator", unreliable)
    table = family_diagnostics(spec)
    assert table.flagged == [0.0] and table.rows[0]["flagged"]
