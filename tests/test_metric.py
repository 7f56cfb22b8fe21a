import gc
import math
import weakref
from itertools import combinations

import numpy as np
import pytest

from hstorsion import metric
from hstorsion.backends import build_complex, parse_model
from hstorsion.forms import DegreeError, conjugate, wedge, zero_form
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


# a first axis with more nodes than the others
GRID7_TEXT = """kind spectral
n 2
modes axis K 1
grid 7 5 5 5
potential 1 0 0 0 u 2 := 0.05
potential 0 1 0 0 u 1 := 0.03+0.01i
potential 0 0 -1 0 u 2 := 0.02i
"""


@pytest.fixture(scope="module")
def random13_H(spectral_cx):
    # a random potential metric on all 13 modes of n = 3, K = 1: its det h
    # reaches the 3-fold sums of the modes, whose components +-3 alias to
    # -+2 on the 5-node grid
    rng = np.random.default_rng(5)
    v = 0.005 * spectral_cx.random_form(1, 0, rng)
    omega = (spectral_cx.metric_form() + spectral_cx.apply_dbar(v)
             + spectral_cx.apply_del(conjugate(v)))
    return HermitianStructure(spectral_cx, omega=omega)


@pytest.fixture(scope="module")
def random_iwasawa_H(iwasawa_cx):
    return random_hermitian_structure(iwasawa_cx, np.random.default_rng(6))


@pytest.fixture(scope="module")
def n2k2_H():
    cx = build_complex(parse_model(N2K2_TEXT))
    return HermitianStructure(cx, omega=cx.metric_form())


@pytest.fixture(scope="module")
def grid7_H():
    cx = build_complex(parse_model(GRID7_TEXT))
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


@pytest.mark.parametrize("name", ["spectral_H", "n2k2_H", "grid7_H", "random13_H",
                                  "random_iwasawa_H"])
def test_gram_matches_fft_reference(name, request):
    # every bidegree, (0,0) and (n,n) included, against the full-grid FFT of
    # Q(x): random13_H's det h has sums of modes that alias on the grid,
    # grid7_H has unequal per-axis grids, and Iwasawa has no axes
    H = request.getfixturevalue(name)
    for p, q in _bidegrees(H):
        G, ref = H.gram(p, q), _reference_gram(H, p, q)
        assert np.abs(G - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sums_of_modes_alias_on_the_grid(spectral_cx, alias_H):
    # the 3-fold sums of the 13 modes take 377 values, and 12 pairs of them
    # (+-3 e_a against -+2 e_a) are one frequency on 5 nodes; the Gram
    # contraction and the minor spectra must count each frequency once
    # (random13_H above), also when the sums alias off the axes (alias_H)
    for cx, count, frequencies in ((spectral_cx, 377, 365), (alias_H.complex, 25, 21)):
        modes = cx.catalog.modes
        sums = {tuple(map(sum, zip(a, b, c))) for a in modes for b in modes for c in modes}
        assert len(sums) == count and len(cx.frequencies(3)[0]) == frequencies


@pytest.mark.parametrize("name", ["spectral_H", "n2k2_H"])
def test_gram_conjugation_invariant(name, request):
    # <<conj u, conj v>> = conj <<u, v>>, so G(q,p) = K conj(G(p,q)) K^T;
    # checked on the determinant + fftn reference, which computes every
    # bidegree on its own (gram derives the p > q ones this way)
    H = request.getfixturevalue(name)
    for p, q in _bidegrees(H):
        K = H.complex.catalog.conj_permutation(p, q)
        G, Gc = _reference_gram(H, q, p), K @ np.conj(_reference_gram(H, p, q)) @ K.T
        assert np.abs(G - Gc).max() <= 1e-13 * np.abs(G).max()


def test_compound_inverse_identity(spectral_H, rng):
    # Cauchy-Binet: compound_k(h^{-1}) compound_k(h) = I at every node, for
    # the compounds the Gram spectra transform, completed from their entries
    # a <= b as Hermitian matrices; the invariant n = 4 metric reaches the
    # general minors (k = 2), n = 1 and n = 2 the edge sizes of the Laplace
    # and Jacobi tables, and on one node the minors are the minor spectra
    metrics = [spectral_H]
    for n in (1, 2, 4):
        cx = build_complex(parse_model(f"kind invariant\nn {n}\n"))
        metrics.append(random_hermitian_structure(cx, rng))
    for H in metrics:
        minors = H._node_minors()
        for k in range(H.n + 1):
            _, _, _, expand, lower, _ = metric._jacobi_tables(H.n)[k]
            # conj(C_k), C_k the compound of A = h^{-T}, so conj(C_k)^T is
            # the compound of h^{-1}
            upper = metric._compounds(minors, k)
            compound = upper[expand]
            compound[lower] = np.conj(compound[lower])
            C = len(_minors(H.h_nodes[:1], k)[0])
            prod = np.conj(compound).reshape(C, C, -1).transpose(2, 1, 0) @ _minors(H.h_nodes, k)
            assert np.abs(prod - np.eye(C)).max() <= 1e-12


def test_difference_weights_belong_to_their_complex():
    # the quadrature tables of a lattice live as long as its complexes, and
    # the flat metric's Gram(1,1) is the identity on both grids
    flat = "kind spectral\nn 2\nmodes axis K 1\n"
    cxs = [build_complex(parse_model(flat + f"grid {g}\n")) for g in (5, 7)]
    for cx in cxs:
        G = HermitianStructure(cx, h=np.eye(2)).gram(1, 1)
        assert np.abs(G - np.eye(len(G))).max() <= 1e-14
    tables = [cxs[0].mode_differences(), cxs[0].frequencies(2), cxs[0].frequencies(4)]
    refs = [weakref.ref(tables[0][0]), weakref.ref(tables[1][0]),
            weakref.ref(tables[2][1][0][0]), weakref.ref(tables[2][3][1])]
    del cxs, tables, cx, G
    gc.collect()
    assert all(ref() is None for ref in refs)


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


def test_negative_floor_still_requires_a_positive_metric(torus_cx):
    # a floor below 0 does not let a metric that is not positive definite through
    h = np.diag([1.0, 1.0, -0.5]).astype(complex)
    with pytest.raises(MetricError, match="min eigenvalue"):
        HermitianStructure(torus_cx, h=h, floor=-1.0)
    assert HermitianStructure(torus_cx, h=np.eye(3), floor=-1.0).positivity_margin == 1.0


def test_singular_metric_rejected(torus_cx):
    with pytest.raises(MetricError):
        HermitianStructure(torus_cx, h=np.diag([1.0, 1.0, 0.0]))


def test_metric_indefinite_at_one_node_rejected(spectral_cx):
    # h(x) = (1 - s f(x)) I with f = sum of cos(2 pi x_a) over the 6 real
    # axes: f = 6 only at the node x = 0 and at most 5 + cos(2 pi / 5)
    # elsewhere, so with 1/6 < s < 1/5.31 h is indefinite at one node of 5^6
    cx = spectral_cx
    cat = cx.catalog
    s = 1.0 / 5.7
    omega = cx.hermitian_form(np.eye(cx.n))
    for m in cat.modes:
        if sum(map(abs, m)) == 1:
            for j in range(1, cx.n + 1):
                omega.coeffs[cat.flat_index(m, (j,), (j,))] = -0.5 * s * (
                    omega.coeffs[cat.flat_index(cat.zero_mode, (j,), (j,))])
    # omega's coefficient matrices are Hermitian, so h(x) is c(x)
    h = -1j * cx.evaluate(omega).reshape(-1, cx.n, cx.n)
    bad = np.linalg.eigvalsh(h).min(axis=1) <= 0
    assert bad.sum() == 1 and len(bad) == 5**6
    with pytest.raises(MetricError, match="min eigenvalue"):
        HermitianStructure(cx, omega=omega)


def test_positivity_margin_and_positive_above(spectral_H):
    H = spectral_H
    margin = H.positivity_margin
    assert margin == np.linalg.eigvalsh(H.h_nodes).min()
    assert H.positive_above(0.99 * margin) and not H.positive_above(1.01 * margin)


def _lapack_positive_above(M, c):
    try:
        np.linalg.cholesky(M - c * np.eye(M.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _node_contiguous(M):
    """The matrices M(x) stored as h_nodes stores them: a view of (n, n, X)."""
    return np.ascontiguousarray(M.transpose(1, 2, 0)).transpose(2, 0, 1)


def _positive_batch(rng, X, n):
    A = rng.standard_normal((X, n, n)) + 1j * rng.standard_normal((X, n, n))
    return A @ A.conj().transpose(0, 2, 1) / n + 0.1 * np.eye(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("X", [1, 5**6])
def test_positive_above_decides_as_lapack_cholesky(n, X, rng):
    M = _positive_batch(rng, X, n)
    lo = np.linalg.eigvalsh(M).min()
    # c = 0 and shifts on both sides of the smallest eigenvalue
    decisions = []
    for c in (0.0, -1.0, 0.5 * lo, 0.999 * lo, 1.001 * lo, 2.0 * lo):
        expected = _lapack_positive_above(M, c)
        assert metric._positive_above(M, c) == expected
        assert metric._positive_above(_node_contiguous(M), c) == expected
        decisions.append(expected)
    assert decisions == [True] * 4 + [False] * 2


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize("node", [0, 4321, 5**6 - 1])
def test_positive_above_finds_one_indefinite_node(column, node, rng):
    # one node whose factorization first fails at the given column, under
    # a unitary change of basis that keeps the leading columns positive
    M = _positive_batch(rng, 5**6, 3)
    d = np.array([1.0, 2.0, 3.0])
    d[column] = -1e-3
    Q, _ = np.linalg.qr(np.eye(3) + 0.01 * rng.standard_normal((3, 3)))
    M[node] = (Q * d) @ Q.T
    for c in (0.0, 1e-6):
        assert not _lapack_positive_above(M, c)
        assert not metric._positive_above(M, c)
        assert not metric._positive_above(_node_contiguous(M), c)
    M[node] = (Q * np.abs(d)) @ Q.T
    assert _lapack_positive_above(M, 0.0) and metric._positive_above(M, 0.0)


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("column", [1, 2])
def test_positive_above_refuses_a_zero_pivot(column, c, rng):
    # a singular positive semidefinite node: the pivot of the given column
    # is exactly (1 + c) - c - 1 * 1 = 0, in the middle or the last column
    M = _node_contiguous(_positive_batch(rng, 5**6, 3))
    block = np.eye(3)
    block[column - 1:column + 1, column - 1:column + 1] = 1.0
    M[777] = block + c * np.eye(3)
    assert not _lapack_positive_above(M, c)
    assert not metric._positive_above(M, c)
    assert metric._positive_above(M, c - 1e-3) == _lapack_positive_above(M, c - 1e-3)


@pytest.mark.parametrize("entry", [(1, 1), (2, 0), (2, 1)])
def test_positive_above_refuses_nan(entry, rng):
    # np.linalg.cholesky returns a factor of NaNs here instead of raising,
    # so the sweep's refusal is checked on its own
    M = _node_contiguous(_positive_batch(rng, 5**6, 3))
    M[99][entry] = np.nan
    M[99][entry[::-1]] = np.nan
    assert not metric._positive_above(M, 0.0)


def test_positive_above_reads_the_lower_triangle(rng):
    # as zpotrf does: the strict upper triangle is never read
    M = _positive_batch(rng, 5**6, 3)
    lo = np.linalg.eigvalsh(M).min()
    iu = np.triu_indices(3, 1)
    M[:, iu[0], iu[1]] = 1e300
    for c in (0.5 * lo, 1.001 * lo):
        assert metric._positive_above(M, c) == _lapack_positive_above(M, c)
    assert metric._positive_above(M, 0.5 * lo)


def _kept_minors(h, k):
    """The reference determinants of the k-minors _node_minors keeps: every
    entry of h for k = 1, the entries a <= b otherwise, shape (rows, X)."""
    ref = _minors(h, k).transpose(1, 2, 0).reshape(-1, len(h))
    return ref if k == 1 else ref[metric._jacobi_tables(h.shape[-1])[k][2]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_minors_are_determinants_of_submatrices(n, rng):
    # every minor the node table builds, at every node, against
    # np.linalg.det; h(x) is Hermitian, as the table assumes when it reads a
    # lower cofactor as the conjugate of an upper one (from n = 5 on)
    assert any(len(lower[0]) for _, _, lower in metric._node_tables(n)) == (n >= 5)
    A = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n))
    h = A + A.conj().transpose(0, 2, 1)
    for B in (h, _node_contiguous(h)):
        minors = metric._node_minors(B)
        assert len(minors) == n + 1
        for k in range(n + 1):
            ref = _kept_minors(h, k)
            assert minors[k].shape == ref.shape
            assert np.abs(minors[k] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_minors_of_the_spectral_metric(spectral_H):
    h = spectral_H.h_nodes
    for k, minor in enumerate(spectral_H._node_minors()):
        ref = _kept_minors(h, k)
        assert np.abs(minor - ref).max() <= 1e-13 * np.abs(ref).max()


# n = 3 with modes off the axes: 3 (1, 1, 0, 0, 0, 0) = (3, 3, ...) is the
# frequency (-2, -2, ...) on 5 nodes, so the 3-minors' spectra fold
ALIAS_TEXT = """kind spectral
n 3
mode 0 0 0 0 0 0
mode 1 1 0 0 0 0
mode -1 -1 0 0 0 0
mode 0 1 0 0 0 -1
mode 0 -1 0 0 0 1
potential 1 1 0 0 0 0 u 3 := 0.04+0.01i
potential 0 1 0 0 0 -1 u 1 := 0.03
potential -1 -1 0 0 0 0 u 2 := 0.02i
"""


@pytest.fixture(scope="module")
def alias_H():
    cx = build_complex(parse_model(ALIAS_TEXT))
    return HermitianStructure(cx, omega=cx.metric_form())


@pytest.mark.parametrize("name", ["spectral_H", "n2k2_H", "alias_H", "random_iwasawa_H"])
def test_minor_spectra_match_fft_of_determinants(name, request):
    # the spectra built from omega's mode coefficients against np.fft.fftn
    # of every minor taken by np.linalg.det at the nodes: equal on S_k, and
    # the reference vanishes off S_k
    H = request.getfixturevalue(name)
    cx, h = H.complex, H.h_nodes
    for k, spectrum in enumerate(H._minor_spectra()):
        C = math.comb(H.n, k)
        values = _minors(h, k).reshape(*cx.grid, C * C)
        ref = np.fft.fftn(values, axes=tuple(range(len(cx.grid)))) / cx.n_nodes
        ref = ref.reshape(-1, C * C).T
        at = cx._flat_frequency(cx.frequencies(k)[0])
        scale = np.abs(ref).max()
        assert spectrum.shape == (C * C, len(at))
        assert np.abs(spectrum - ref[:, at]).max() <= 1e-13 * scale
        assert np.abs(np.delete(ref, at, axis=1)).max(initial=0.0) <= 1e-13 * scale


def _late_argmin_metric(cx):
    """On n = 3: h(x) = (1.5 + 0.3 f) I - (0.3 + 0.2 f) O, O the all-ones
    matrix less I, with f the mean of cos(2 pi x_a) over the axes.  Its
    smallest eigenvalue 0.9 - 0.1 f is least at the node x = 0, where the
    estimate that ranks the candidate nodes, the least eigenvalue
    1.2 + 0.1 f of its 2 x 2 principal submatrices, is largest."""
    I, O = np.eye(3), np.ones((3, 3)) - np.eye(3)
    omega = cx.hermitian_form(1.5 * I - 0.3 * O)
    for m in cx.catalog.modes:
        if any(m):
            omega = omega + cx.hermitian_form((0.3 * I - 0.2 * O) / 12, m)
    return omega


@pytest.fixture(scope="module")
def late_argmin_H(spectral_cx):
    return HermitianStructure(spectral_cx, omega=_late_argmin_metric(spectral_cx))


def test_smallest_eigenvalue_grows_past_a_late_argmin(late_argmin_H, monkeypatch):
    H, h = late_argmin_H, late_argmin_H.h_nodes
    eigs = np.linalg.eigvalsh(h)
    assert np.argmin(eigs.min(axis=1)) == 0
    assert np.argmax(np.linalg.eigvalsh(h[:, :2, :2]).min(axis=1)) == 0
    proofs = []
    positive_above = metric._positive_above
    monkeypatch.setattr(metric, "_positive_above",
                        lambda *a: proofs.append(positive_above(*a)) or proofs[-1])
    assert H.positivity_margin == eigs.min()
    assert H._smallest_eigenvalue()[1] == 0
    # refuted with 64, 512 and 4096 candidates; then all 5^6 nodes are read
    assert proofs == [False, False, False] and len(h) == 5**6


def test_refutation_names_the_node_and_eigenvector_of_eigvalsh(late_argmin_H):
    # h(x) - 0.85 I is indefinite wherever f > 1/2, and least at x = 0
    H = late_argmin_H
    u = H.omega - H.complex.hermitian_form(0.85 * np.eye(3))
    h = metric._node_values(H.complex, metric._hermitian_split(H.complex, u)[0])
    eigs = np.linalg.eigvalsh(h)
    node = int(np.argmin(eigs.min(axis=1)))
    rep = check_strong_positivity_11(H, u)
    assert rep.verdict == "refuted" and rep.margin == eigs.min()
    assert rep.witness[0] == node == 0
    assert np.array_equal(rep.witness[1], np.linalg.eigh(h[node])[1][:, 0])


def test_smallest_eigenvalue_at_one_node(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    assert H.positivity_margin == np.linalg.eigvalsh(H.h_nodes).min()
    rep = check_strong_positivity_11(H, -1.0 * H.omega)
    assert rep.verdict == "refuted" and rep.witness[0] == 0
    assert rep.margin == np.linalg.eigvalsh(-H.h_nodes).min()
    assert np.array_equal(rep.witness[1], np.linalg.eigh(-H.h_nodes[0])[1][:, 0])


def test_non_hermitian_metric_rejected(torus_cx):
    h = np.eye(3, dtype=complex)
    h[0, 1] = 0.3
    with pytest.raises(MetricError):
        HermitianStructure(torus_cx, h=h)


@pytest.mark.parametrize("asymmetry, real", [(0.99e-12, True), (1.01e-12, False)])
def test_reality_boundary(torus_cx, asymmetry, real):
    # a constant off-diagonal asymmetry, measured against 1e-12 max(1,
    # max|omega|): |conj(omega) - omega| = 2 |a_m| = asymmetry
    h = np.eye(3, dtype=complex)
    h[0, 1] += asymmetry
    if real:
        HermitianStructure(torus_cx, h=h)
    else:
        with pytest.raises(MetricError, match="not real"):
            HermitianStructure(torus_cx, h=h)


def test_node_deviation_refutes_a_metric_that_builds(torus_cx):
    # the asymmetry 4e-13 passes the reality test (tolerance 1e-12 since
    # max|omega| < 1), but on h = 1e-4 I the deviation of c(x) from its
    # Hermitian part, 2e-13, exceeds 1e-9 max|h(x)| = 1e-13
    h = 1e-4 * np.eye(3, dtype=complex)
    h[0, 1] += 4e-13
    H = HermitianStructure(torus_cx, h=h)
    for u in (H.omega, 1.0 * H.omega):
        rep = check_strong_positivity_11(H, u)
        assert rep.verdict == "refuted" and rep.certified
        assert rep.witness == "non-Hermitian coefficients" and rep.margin == -2.0e-13


def test_lstsq_reads_the_whitened_operators(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    cx = H.complex
    b = [np.zeros(cx.dims(3, 0), dtype=complex), cx.random_form(2, 1, rng).coeffs]
    x, residual = H.lstsq((2, 0), [("del", b[0]), ("dbar", b[1])])
    keys = [("whitened", "del", 2, 0), ("whitened", "dbar", 2, 0)]
    assert all(key in H._memo for key in keys)

    def by_hand(scale):
        # rows whitened here: R_dst A R_src^{-1}, targets R_dst b
        Rinv = H.chol_inv(2, 0)
        At = np.vstack([H.chol(3, 0) @ cx.del_matrix(2, 0) @ Rinv,
                        scale * (H.chol(2, 1) @ cx.dbar_matrix(2, 0) @ Rinv)])
        bt = np.concatenate([H.chol(3, 0) @ b[0], H.chol(2, 1) @ b[1]])
        y, *_ = np.linalg.lstsq(At, bt, rcond=None)
        return Rinv @ y, float(np.linalg.norm(At @ y - bt))

    x_ref, residual_ref = by_hand(1.0)
    assert np.array_equal(x, x_ref) and residual == residual_ref
    # the rows are read from the memo: a changed entry changes the solve
    H._memo[keys[1]] = 2.0 * H._memo[keys[1]]
    x, residual = H.lstsq((2, 0), [("del", b[0]), ("dbar", b[1])])
    x_ref, residual_ref = by_hand(2.0)
    assert np.array_equal(x, x_ref) and residual == residual_ref


def test_strong_positivity_11(torus_H, torus_cx, rng):
    pos = check_strong_positivity_11(torus_H, torus_H.omega)
    assert pos.verdict == "positive" and pos.certified
    u = torus_cx.random_form(1, 1, rng)
    u = 0.5 * (u + conjugate(u))  # real but indefinite
    rep = check_strong_positivity_11(torus_H, u)
    assert rep.verdict in ("refuted", "semi-positive", "positive")


def test_positivity_report_line(torus_H):
    # the report names the verdict, whether an exact test backs it, and the
    # margin
    pos = check_strong_positivity_11(torus_H, torus_H.omega)
    assert str(pos) == "positive (certified, margin=1.000e+00)"
    assert str(metric.PositivityReport("refuted", margin=-0.5)) == "refuted (margin=-5.000e-01)"


def test_weak_positivity_omega_power(torus_H):
    rep = check_weak_positivity(torus_H, torus_H.omega_power(2))
    assert rep.verdict in ("positive", "semi-positive")
    zero = zero_form(torus_H.complex.catalog, 2, 2)
    rep0 = check_weak_positivity(torus_H, zero)
    assert rep0.verdict != "refuted"


def test_weak_positivity_is_certified_or_refused():
    # exact certificates in (0,0), (1,1), (n-1,n-1) and (n,n); a middle
    # bidegree (here (2,2) on n = 4) has none and raises
    cx = build_complex(parse_model("kind invariant\nn 4\n"))
    H = HermitianStructure(cx, h=np.eye(4))
    for k in (0, 1, 3, 4):
        rep = check_weak_positivity(H, H.omega_power(k))
        assert rep.verdict == "positive" and rep.certified, k
    assert check_weak_positivity(H, -H.omega_power(4)).verdict == "refuted"
    with pytest.raises(DegreeError):
        check_weak_positivity(H, H.omega_power(2))
