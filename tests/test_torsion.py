import dataclasses

import numpy as np
import pytest

from hstorsion.backends import build_complex, parse_model
from hstorsion.forms import conjugate
from hstorsion.metric import HermitianStructure
from hstorsion.torsion import (NotHermitianSymplectic, classify, hs_feasible,
                               min_norm_torsion, torsion_form)


def test_flat_torus_all_flags(torus_H):
    cls = classify(torus_H)
    assert cls.kahler and cls.skt and cls.balanced
    assert cls.strongly_gauduchon and cls.hermitian_symplectic
    for r in cls.residuals.values():
        assert r <= 1e-12


def test_iwasawa_flags(iwasawa_H):
    cls = classify(iwasawa_H)
    assert not cls.kahler
    assert not cls.skt
    assert cls.balanced
    assert cls.strongly_gauduchon
    assert not cls.hermitian_symplectic
    assert cls.residuals["hermitian_symplectic"] > 0.1


def test_spectral_perturbed_flags(spectral_H):
    cls = classify(spectral_H)
    assert not cls.kahler  # the potential perturbation is not d-closed
    assert cls.skt  # Aeppli-potential metrics satisfy del dbar omega = 0
    assert cls.hermitian_symplectic
    assert cls.truncated_power


def test_single_mode_power_is_not_truncated():
    # with the zero mode alone there is nothing for omega^{n-1} to lose
    cx = build_complex(parse_model("kind spectral\nn 3\nmodes axis K 0\n"))
    assert not classify(HermitianStructure(cx, omega=cx.metric_form())).truncated_power


def test_hs_feasibility_residuals(spectral_H, iwasawa_H):
    feas = hs_feasible(spectral_H)
    assert feas.feasible and feas.residual <= 1e-10
    bad = hs_feasible(iwasawa_H)
    assert not bad.feasible


def test_torsion_zero_at_kahler(torus_H):
    rep = torsion_form(torus_H)
    assert rep.norm <= 1e-12
    assert rep.residual_constraint <= 1e-12


def test_torsion_solves_the_system(spectral_H):
    H = spectral_H
    cx = H.complex
    rep = torsion_form(H)
    dw = cx.apply_del(H.omega)
    assert H.norm(cx.apply_dbar(rep.rho20) + dw) <= 1e-10 * (1 + H.norm(dw))
    assert H.norm(cx.apply_del(rep.rho20)) <= 1e-10 * (1 + H.norm(dw))
    assert np.allclose(rep.rho02.coeffs, conjugate(rep.rho20).coeffs)
    assert rep.norm > 0


def test_torsion_matches_minimal_norm_oracle(spectral_H):
    rep = torsion_form(spectral_H)
    assert rep.minimality_gap <= 1e-8


def test_certificate_violated_only_above_its_thresholds(spectral_H):
    # the closedness residual may reach 1e-8 and the minimality gap 1e-6
    rep = dataclasses.replace(torsion_form(spectral_H), residual_closed=0.0)
    assert not rep.violated
    for name, bound in (("residual_constraint", 1e-8), ("minimality_gap", 1e-6)):
        assert not dataclasses.replace(rep, **{name: bound}).violated
        assert dataclasses.replace(rep, **{name: 1.01 * bound}).violated


def test_closed_residual_vanishes_at_n2():
    # del of a (2,0)-form is the zero (2,0)-form at n = 2, of norm 0.0
    cx = build_complex(parse_model("kind spectral\nn 2\nmodes axis K 1\n"
                                   "potential 1 0 0 0 u 2 := 0.04\n"))
    rep = torsion_form(HermitianStructure(cx, omega=cx.metric_form()))
    assert rep.norm > 0 and rep.residual_closed == 0.0


def test_torsion_orthogonal_to_homogeneous_kernel(spectral_H):
    # rho is G-orthogonal to {sigma : del sigma = 0, dbar sigma = 0}
    H = spectral_H
    cx = H.complex
    rep = torsion_form(H)
    A = np.vstack([cx.del_matrix(2, 0), cx.dbar_matrix(2, 0)])
    _, _, Vh = np.linalg.svd(A)
    s = np.linalg.svd(A, compute_uv=False)
    rank = int((s > 1e-10 * s[0]).sum())
    kernel = Vh[rank:].conj().T  # columns span ker A
    G = H.gram(2, 0)
    overlap = np.abs(kernel.conj().T @ (G @ rep.rho20.coeffs)).max()
    assert overlap <= 1e-8 * (1 + rep.norm)


def test_torsion_raises_when_infeasible(iwasawa_H):
    with pytest.raises(NotHermitianSymplectic):
        torsion_form(iwasawa_H)


def test_torsion_scales_linearly_in_small_perturbations(spectral_cx):
    # for omega_t = flat + t (dbar u + del conj u), rho_t = t del(u) + O(t^2)
    cx = spectral_cx
    rng = np.random.default_rng(3)
    u = 0.05 * cx.random_form(1, 0, rng)
    norms = []
    for t in (0.02, 0.01):
        flat = HermitianStructure(cx, h=np.eye(3))
        wt = flat.omega + t * (cx.apply_dbar(u) + cx.apply_del(conjugate(u)))
        Ht = HermitianStructure(cx, omega=wt)
        norms.append(torsion_form(Ht).norm)
    ratio = norms[0] / norms[1]
    assert abs(ratio - 2.0) <= 0.1


def test_closedness_system_solved_once_per_metric_and_tol(spectral_cx):
    H = HermitianStructure(spectral_cx, omega=spectral_cx.metric_form())
    feas = hs_feasible(H)
    assert hs_feasible(H) is feas
    assert min_norm_torsion(H) is feas.rho_min
    assert hs_feasible(HermitianStructure(spectral_cx, h=np.eye(3))) is not feas
