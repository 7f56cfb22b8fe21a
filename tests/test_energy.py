import numpy as np
import pytest

from hstorsion.energy import (AeppliPoint, corollary_check, differential,
                              differential_riesz, differential_special,
                              energy, fd_differential, fd_step_sweep,
                              gradient_descent)
from hstorsion.forms import Bidegree, Form, zero_form
from hstorsion.torsion import torsion_form


def _xi_with_rho(H):
    """A (1,0)-form xi with del(xi) equal to the torsion form of H."""
    cx = H.complex
    rep = torsion_form(H)
    A = cx.del_matrix(1, 0)
    x, _ = H.lstsq((1, 0), [(A, (2, 0), rep.rho20.coeffs)])
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


def test_gradient_descent_monotone_and_converges(spectral_cx, spectral_H):
    pt = AeppliPoint(spectral_cx, spectral_H.omega)
    res = gradient_descent(pt, max_iters=100)
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
