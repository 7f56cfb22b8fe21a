import numpy as np
import pytest

from hstorsion.backends import ModelError, build_complex, parse_model
from hstorsion.deform import (FamilySpec, HypothesisError, family_diagnostics,
                              kahler_in_class, min_ddbar_solution,
                              neumann_dbar_solution, parse_family)
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


def test_family_csv_roundtrip(tmp_path):
    table = family_diagnostics(parse_family(TORUS_POTENTIAL_FAMILY))
    out = tmp_path / "family.csv"
    table.to_csv(out)
    text = out.read_text().splitlines()
    assert text[0].split(",")[:2] == ["t", "feasible"]
    assert len(text) == 1 + len(table.rows)
