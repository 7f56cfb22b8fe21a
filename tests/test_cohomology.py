import math

import numpy as np
import pytest
import scipy.linalg

from hstorsion.cohomology import (cohomology_table, gram_eig, green_operator,
                                  harmonic_projection, laplacian_bc,
                                  laplacian_dbar)
from hstorsion.forms import conjugate

from conftest import random_hermitian_structure


def test_gram_eig_basic(rng):
    N = 8
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    G = A @ A.conj().T + N * np.eye(N)
    B = rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))
    M = np.linalg.solve(G, B @ B.conj().T)  # G-self-adjoint PSD, rank 3
    eig = gram_eig(M, scipy.linalg.cholesky(G, lower=False))
    assert eig.kernel_dim == N - 3
    # pinv inverts on the image: M pinv M = M
    assert np.allclose(M @ eig.pinv @ M, M, atol=1e-10)
    # projector idempotent, G-self-adjoint, annihilated by M
    P = eig.kernel_projector
    assert np.allclose(P @ P, P, atol=1e-10)
    assert np.allclose(G @ P, (G @ P).conj().T, atol=1e-10)
    assert np.allclose(M @ P, 0.0, atol=1e-10)


def test_laplacians_gram_self_adjoint_psd(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    G = H.gram(1, 1)
    for L in (laplacian_bc(H, 1, 1), laplacian_dbar(H, 1, 1)):
        GL = G @ L
        assert np.allclose(GL, GL.conj().T, atol=1e-10)
        w = np.linalg.eigvalsh(0.5 * (GL + GL.conj().T))
        assert w.min() >= -1e-10 * max(abs(w).max(), 1.0)


def test_bc_laplacian_conjugation_symmetry(iwasawa_H):
    # conjugate . Delta_BC = Delta_BC . conjugate between (p,q) and (q,p)
    H = iwasawa_H
    cx = H.complex
    for (p, q) in [(2, 0), (2, 1), (1, 0)]:
        L_pq = laplacian_bc(H, p, q)
        L_qp = laplacian_bc(H, q, p)
        rng = np.random.default_rng(p * 7 + q)
        for _ in range(3):
            u = cx.random_form(p, q, rng)
            a = conjugate(type(u)(cx.catalog, u.bidegree, L_pq @ u.coeffs))
            b_coeffs = L_qp @ conjugate(u).coeffs
            assert np.allclose(a.coeffs, b_coeffs, atol=1e-10)


def test_green_property(iwasawa_cx, rng):
    # E green(E, g) = g - harmonic(g), and green vanishes on harmonics
    H = random_hermitian_structure(iwasawa_cx, rng)
    for which in ("bc", "dbar"):
        for (p, q) in [(2, 0), (1, 1)]:
            g = H.complex.random_form(p, q, rng)
            eig = green_operator(H, p, q, which)
            L = (laplacian_bc if which == "bc" else laplacian_dbar)(H, p, q)
            harm = harmonic_projection(H, g, which)
            resid = L @ (eig.pinv @ g.coeffs) - (g.coeffs - harm.coeffs)
            assert np.linalg.norm(resid) <= 1e-8 * (1 + np.linalg.norm(g.coeffs))
            assert np.linalg.norm(eig.pinv @ harm.coeffs) <= 1e-8


def test_green_form_wrapper(iwasawa_H, rng):
    # green_operator is gram_eig of the chosen Laplacian in the Gram geometry
    H = iwasawa_H
    g = H.complex.random_form(2, 0, rng)
    out = green_operator(H, 2, 0, "bc").pinv @ g.coeffs
    eig = gram_eig(laplacian_bc(H, 2, 0),
                   scipy.linalg.cholesky(H.gram(2, 0), lower=False))
    assert np.allclose(out, eig.pinv @ g.coeffs)


def test_operator_bundle(iwasawa_H):
    # both Laplacians' spectral data at one bidegree
    G = iwasawa_H.gram(1, 1)
    for which, lap in (("bc", laplacian_bc), ("dbar", laplacian_dbar)):
        L = lap(iwasawa_H, 1, 1)
        eig = green_operator(iwasawa_H, 1, 1, which)
        P = eig.kernel_projector
        assert np.allclose(P @ P, P, atol=1e-10)
        assert np.allclose(G @ P, (G @ P).conj().T, atol=1e-10)
        assert eig.cutoff > 0
        assert np.allclose(L @ eig.pinv @ L, L, atol=1e-8)


def test_flat_torus_dimensions(torus_H):
    # all differentials vanish, so every dimension is the space dimension
    n = torus_H.n
    table = cohomology_table(torus_H)
    for p in range(n + 1):
        for q in range(n + 1):
            d = math.comb(n, p) * math.comb(n, q)
            e = table.entries[(p, q)]
            assert e["dbar"] == e["bc"] == e["aeppli"] == d


def test_iwasawa_dimensions(iwasawa_H):
    table = cohomology_table(iwasawa_H)
    assert table.entries[(1, 0)]["dbar"] == 3
    assert table.entries[(0, 1)]["dbar"] == 2
    assert table.entries[(0, 2)]["bc"] == 3
    assert table.entries[(1, 1)]["bc"] == 4
    assert table.entries[(1, 1)]["aeppli"] == 8


def test_bc_aeppli_duality(iwasawa_H):
    # h_BC^{p,q} = h_A^{n-p,n-q}
    n = iwasawa_H.n
    table = cohomology_table(iwasawa_H)
    for p in range(n + 1):
        for q in range(n + 1):
            assert (table.entries[(p, q)]["bc"]
                    == table.entries[(n - p, n - q)]["aeppli"])


def test_bc_pq_symmetry(iwasawa_H):
    table = cohomology_table(iwasawa_H)
    n = iwasawa_H.n
    for p in range(n + 1):
        for q in range(n + 1):
            assert table.entries[(p, q)]["bc"] == table.entries[(q, p)]["bc"]


def test_cross_checks_recorded(iwasawa_H):
    table = cohomology_table(iwasawa_H)
    assert len(table.cross_checks) > 0
    for name, p, q, a, b in table.cross_checks:
        assert a == b


def test_green_dbar_commutation(iwasawa_cx, rng):
    # dbar* Green_dbar = Green_dbar dbar* on the image of the Laplacian
    H = random_hermitian_structure(iwasawa_cx, rng)
    p, q = 1, 1
    L = laplacian_dbar(H, p, q)
    g = H.complex.random_form(p, q, rng)
    v = type(g)(H.complex.catalog, g.bidegree, L @ g.coeffs)  # in Im Delta
    e_here = green_operator(H, p, q, "dbar")
    e_down = green_operator(H, p, q - 1, "dbar")
    lhs = H.apply_dbar_adjoint(
        type(g)(H.complex.catalog, g.bidegree, e_here.pinv @ v.coeffs))
    rhs = e_down.pinv @ H.apply_dbar_adjoint(v).coeffs
    assert np.linalg.norm(lhs.coeffs - rhs) <= 1e-8 * (1 + np.linalg.norm(rhs))
