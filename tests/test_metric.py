import gc
import weakref
from itertools import combinations

import numpy as np
import pytest

from hstorsion.backends import build_complex, parse_model
from hstorsion.forms import conjugate, wedge, zero_form
from hstorsion.metric import (HermitianStructure, MetricError,
                              check_strong_positivity_11,
                              check_weak_positivity)

from conftest import random_hermitian_structure

N2K2_TEXT = """kind spectral
n 2
modes axis K 2
potential 2 0 0 0 u 2 := 0.05
potential 0 2 0 0 u 1 := 0.03+0.01i
potential 0 0 -2 0 u 2 := 0.02i
"""


@pytest.fixture(scope="module")
def n2k2_H():
    cx = build_complex(parse_model(N2K2_TEXT))
    return HermitianStructure(cx, omega=cx.metric_form())


def _bidegrees(H):
    return [(p, q) for p in range(H.n + 1) for q in range(H.n + 1)]


def _minors(A, k):
    """det A(x)[I, K] over the k-subsets I, K of range(n), shape (X, C, C)."""
    idx = [list(I) for I in combinations(range(A.shape[-1]), k)]
    out = [[np.linalg.det(A[:, I][:, :, K]) if k else np.ones(len(A)) for K in idx]
           for I in idx]
    return np.array(out).transpose(2, 0, 1)


def _reference_gram(H, p, q):
    """Spectral Gram matrix the direct way: minors of h^{-T} by determinants,
    the full-grid FFT of the pointwise pairing, one mode block at a time."""
    cx, cat = H.complex, H.complex.catalog
    A = np.swapaxes(np.linalg.inv(H.h_nodes), 1, 2)
    deth = np.real(np.linalg.det(H.h_nodes))
    S, M, grid = cat.struct_dim(p, q), cat.n_modes, cx.grid
    Q = np.einsum("xab,xcd,x->xacbd", np.conj(_minors(A, p)), _minors(A, q), deth)
    axes = tuple(range(len(grid)))
    Qhat = np.fft.fftn(Q.reshape(*grid, S, S), axes=axes) / cx.n_nodes
    G = np.empty((M * S, M * S), dtype=complex)
    for i, mi in enumerate(cat.modes):
        for j, mj in enumerate(cat.modes):
            diff = tuple((a - b) % g for a, b, g in zip(mi, mj, grid))
            G[i * S:(i + 1) * S, j * S:(j + 1) * S] = Qhat[diff]
    return 0.5 * (G + G.conj().T)


def test_gram_hermitian_positive(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    for (p, q) in [(1, 0), (1, 1), (2, 1)]:
        G = H.gram(p, q)
        assert np.allclose(G, G.conj().T, atol=1e-12)
        w = np.linalg.eigvalsh(G)
        assert w.min() > 0


@pytest.mark.parametrize("name", ["spectral_H", "n2k2_H"])
def test_gram_matches_fft_reference(name, request):
    H = request.getfixturevalue(name)
    for p, q in _bidegrees(H):
        G, ref = H.gram(p, q), _reference_gram(H, p, q)
        assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("name", ["spectral_H", "n2k2_H"])
def test_gram_conjugation_invariant(name, request):
    # <<conj u, conj v>> = conj <<u, v>>, so G(q,p) = K conj(G(p,q)) K^T
    H = request.getfixturevalue(name)
    for p, q in _bidegrees(H):
        K = H.complex.catalog.conj_permutation(p, q)
        G, Gc = H.gram(q, p), K @ np.conj(H.gram(p, q)) @ K.T
        assert np.abs(G - Gc).max() <= 1e-13 * np.abs(G).max()


def test_compound_inverse_identity(spectral_H, rng):
    # Cauchy-Binet: compound_k(h^{-1}) compound_k(h) = I at every node; the
    # invariant n = 4 metric reaches the general minors (k = 2)
    cx4 = build_complex(parse_model("kind invariant\nn 4\n"))
    for H in (spectral_H, random_hermitian_structure(cx4, rng)):
        for k in range(H.n + 1):
            inv_k = np.swapaxes(H._compound(k), 1, 2)  # compound of A^T = h^{-1}
            prod = inv_k @ _minors(H.h_nodes, k)
            assert np.abs(prod - np.eye(prod.shape[-1])).max() <= 1e-12


def test_difference_weights_belong_to_their_complex():
    flat = "kind spectral\nn 2\nmodes axis K 1\n"
    cxs = [build_complex(parse_model(flat + f"grid {g}\n")) for g in (5, 7)]
    tables = [cx.mode_difference_weights()[0] for cx in cxs]
    for cx, W in zip(cxs, tables):
        assert W.shape == (21, cx.n_nodes)  # zero and one of each +-d: 1 + 40 / 2
        assert cx.mode_difference_weights()[0] is W
        G = HermitianStructure(cx, h=np.eye(2)).gram(1, 1)
        assert np.abs(G - np.eye(len(G))).max() <= 1e-14
    ref = weakref.ref(tables[0])
    del cxs, tables, cx, W
    gc.collect()
    assert ref() is None


def test_norm_of_omega(spectral_H):
    # <<omega, omega>> = n * volume for any Hermitian metric
    H = spectral_H
    lhs = H.ip(H.omega, H.omega).real
    assert abs(lhs - H.n * H.volume()) <= 1e-10 * (1 + abs(lhs))


def test_integrate_top_normalization(torus_H):
    # integral of omega^n / n! is the volume, 1 for the flat torus
    assert abs(torus_H.volume() - 1.0) <= 1e-12


def test_star_on_omega_powers(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    n = H.n
    for k in range(n + 1):
        lhs = H.hodge_star(H.omega_power(k))
        rhs = H.omega_power(n - k)
        assert H.norm(lhs - rhs) <= 1e-10 * (1 + H.norm(rhs))


def test_star_squared_is_minus_identity_odd_degrees(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    for (p, q) in [(1, 0), (0, 1), (2, 1), (1, 2)]:
        u = H.complex.random_form(p, q, rng)
        ss = H.hodge_star(H.hodge_star(u))
        assert H.norm(ss + u) <= 1e-12 * (1 + H.norm(u))


def test_star_defines_the_inner_product(spectral_H, rng):
    # int t ^ star(conj u) = <<t, u>> on every bidegree tested
    H = spectral_H
    cx = H.complex
    for (p, q) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
        t = cx.random_form(p, q, rng)
        u = cx.random_form(p, q, rng)
        lhs = H.integrate_product([t, H.hodge_star(conjugate(u))])
        rhs = H.ip(t, u)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


def test_primitive_form_star_formula(iwasawa_cx, rng):
    # star u = (-1)^{d(d+1)/2} i^{p-q} u ^ omega_{n-p-q} for primitive u
    H = random_hermitian_structure(iwasawa_cx, rng)
    n = H.n
    for (p, q) in [(1, 0), (0, 1), (2, 0), (1, 1)]:
        u = H.complex.random_form(p, q, rng)
        # project onto the primitive part: subtract omega ^ (Lambda u) part
        L = H.lefschetz_matrix(p - 1, q - 1) if p >= 1 and q >= 1 else None
        if L is not None and L.size:
            Lad = H.adjoint_matrix(L, (p - 1, q - 1), (p, q))
            lam = Lad @ u.coeffs
            sol = np.linalg.lstsq(Lad @ L, lam, rcond=None)[0]
            u.coeffs = u.coeffs - L @ sol
        assert H.is_primitive(u)
        d = p + q
        sign = (-1.0) ** (d * (d + 1) // 2) * (1j) ** (p - q)
        rhs = sign * wedge(u, H.omega_power(n - p - q))
        assert H.norm(H.hodge_star(u) - rhs) <= 1e-8 * (1 + H.norm(u))


def test_adjointness(spectral_H, rng):
    H = spectral_H
    cx = H.complex
    for (p, q) in [(1, 0), (1, 1), (2, 0)]:
        u = cx.random_form(p, q, rng)
        v = cx.random_form(p + 1, q, rng)
        lhs = H.ip(cx.apply_del(u), v)
        rhs = H.ip(u, H.apply_del_adjoint(v))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        w = cx.random_form(p, q + 1, rng)
        lhs = H.ip(cx.apply_dbar(u), w)
        rhs = H.ip(u, H.apply_dbar_adjoint(w))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_codifferential_identity_on_omega(spectral_H):
    # star(del* omega) = dbar(omega_{n-1}); nontrivial on the perturbed
    # spectral metric (both sides vanish identically on the test nilmanifold)
    H = spectral_H
    n = H.n
    lhs = H.hodge_star(H.apply_del_adjoint(H.omega))
    rhs = H.complex.apply_dbar(H.omega_power(n - 1))
    assert H.norm(rhs) > 0.1
    assert H.norm(lhs - rhs) <= 1e-10 * (1 + H.norm(rhs))


def test_codifferential_star_formula(iwasawa_cx, rng):
    # del* = -star dbar star on every bidegree
    H = random_hermitian_structure(iwasawa_cx, rng)
    for (p, q) in [(2, 1), (2, 0), (1, 1), (3, 1)]:
        v = H.complex.random_form(p, q, rng)
        lhs = H.apply_del_adjoint(v)
        rhs = H.hodge_star(H.complex.apply_dbar(H.hodge_star(v)))
        assert H.norm(lhs + rhs) <= 1e-10 * (1 + H.norm(v))


def test_non_positive_metric_rejected(torus_cx):
    h = np.diag([1.0, 1.0, -0.5]).astype(complex)
    with pytest.raises(MetricError):
        HermitianStructure(torus_cx, h=h)


def test_non_hermitian_metric_rejected(torus_cx):
    h = np.eye(3, dtype=complex)
    h[0, 1] = 0.3
    with pytest.raises(MetricError):
        HermitianStructure(torus_cx, h=h)


def test_strong_positivity_11(torus_H, torus_cx, rng):
    pos = check_strong_positivity_11(torus_H, torus_H.omega)
    assert pos.verdict == "positive" and pos.certified
    u = torus_cx.random_form(1, 1, rng)
    u = 0.5 * (u + conjugate(u))  # real but indefinite
    rep = check_strong_positivity_11(torus_H, u)
    assert rep.verdict in ("refuted", "semi-positive", "positive")


def test_weak_positivity_omega_power(torus_H):
    rep = check_weak_positivity(torus_H, torus_H.omega_power(2))
    assert rep.verdict in ("positive", "semi-positive")
    zero = zero_form(torus_H.complex.catalog, 2, 2)
    rep0 = check_weak_positivity(torus_H, zero)
    assert rep0.verdict != "refuted"
