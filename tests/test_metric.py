import gc
import math
import tracemalloc
import weakref
from itertools import combinations

import numpy as np
import pytest

from hstorsion import metric
from hstorsion.backends import build_complex, parse_model
from hstorsion.forms import DegreeError, conjugate, wedge, zero_form
from hstorsion.metric import (HermitianStructure, MetricError,
                              check_weak_positivity)
from hstorsion.models import SPECTRAL_TEXT, STRETCH_TEXT

from conftest import h_nodes, node_values, random_hermitian_structure, weyl_certifies

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
    A = np.swapaxes(np.linalg.inv(h_nodes(H)), 1, 2)
    deth = np.real(np.linalg.det(h_nodes(H)))
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
    # <<conj u, conj v>> = conj <<u, v>>, so G(q,p) = K conj(G(p,q)) K^T for
    # K the signed permutation of conjugation; checked on the determinant +
    # fftn reference, which computes every bidegree on its own (gram derives
    # the p > q ones this way)
    H = request.getfixturevalue(name)
    for p, q in _bidegrees(H):
        index, sign = H.complex.catalog.conj_permutation(p, q)
        K = np.zeros((len(index), len(index)))
        K[np.arange(len(index)), index] = sign
        G, Gc = _reference_gram(H, q, p), K @ np.conj(_reference_gram(H, p, q)) @ K.T
        assert np.abs(G - Gc).max() <= 1e-13 * np.abs(G).max()


def _invariant_metrics(rng):
    """Random invariant metrics on n = 1, 2 and 4: one node, where every
    frequency set is {0}, and the edge and general sizes of the tables."""
    return [random_hermitian_structure(build_complex(parse_model(f"kind invariant\nn {n}\n")), rng)
            for n in (1, 2, 4)]


def test_compound_inverse_identity(spectral_H, rng):
    # Cauchy-Binet: compound_k(h^{-1}) compound_k(h) = I at every node.  With
    # N_k = C_k det h, C_k the compound of h^{-T}, that is
    # N_k(x)^T compound_k(h(x)) = det h(x) I: N_k evaluated from its spectrum
    # on S_{n-k} (a polynomial, so exactly) at 200 nodes, det h and
    # compound_k(h) by np.linalg.det
    for H in [spectral_H] + _invariant_metrics(rng):
        cx = H.complex
        nodes = rng.choice(cx.n_nodes, size=min(200, cx.n_nodes), replace=False)
        x = cx.nodes()[nodes]
        h = h_nodes(H)[nodes]
        det = np.real(np.linalg.det(h))
        for k in range(H.n + 1):
            s = cx.frequencies(H.n - k)[0]
            N = H._spectrum(k, False) @ np.exp(2j * np.pi * s @ x.T)
            C = math.comb(H.n, k)
            prod = N.reshape(C, C, -1).transpose(2, 1, 0) @ _minors(h, k)
            assert np.abs(prod / det[:, None, None] - np.eye(C)).max() <= 1e-12


@pytest.mark.parametrize("name", ["spectral_H", "alias_H", "invariant"])
def test_compound_spectra_match_fft_of_the_inverse(name, request, rng):
    # every conj(C_k) spectrum, formed by convolving conj(N_k) with the
    # spectrum of 1 / det h, against np.fft.fftn of the compounds of
    # h(x)^{-T}, taken by np.linalg.inv and np.linalg.det at the nodes, at
    # every frequency of S_{n-k+2}; alias_H's sets fold on the grid
    metrics = _invariant_metrics(rng) if name == "invariant" else [request.getfixturevalue(name)]
    for H in metrics:
        cx = H.complex
        A = np.swapaxes(np.linalg.inv(h_nodes(H)), 1, 2)
        for k in range(H.n + 1):
            C = math.comb(H.n, k)
            values = np.conj(_minors(A, k)).reshape(*cx.grid, C * C)
            ref = np.fft.fftn(values, axes=tuple(range(len(cx.grid)))) / cx.n_nodes
            k_set = cx.frequencies(H.n - k + 2)[0]
            at = np.ravel_multi_index(tuple(k_set.T), cx.grid) if cx.grid else [0]
            ref = ref.reshape(-1, C * C).T[:, at]
            spectrum = H._spectrum(k, True)
            assert spectrum.shape == ref.shape
            assert np.abs(spectrum - ref).max() <= 1e-14 * np.abs(ref).max()


def test_compound_spectra_hold_no_node_tables(spectral_H, spectral_cx):
    # forming every conj(C_k) spectrum of a metric on the 5^6 grid keeps
    # its transient arrays to a few rows of X = 15625 node values (X * 16 B
    # = 0.25 MB): no (X, C * C) array of compounds or node minors
    for k in range(spectral_H.n + 1):
        spectral_H._spectrum(k, True)  # the lattice's tables
    H = HermitianStructure(spectral_cx, omega=spectral_cx.metric_form())
    tracemalloc.start()
    try:
        for k in range(H.n + 1):
            H._spectrum(k, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_margin_and_centre_sweep_hold_no_whole_grid_table(spectral_H, spectral_cx):
    # the margin of a metric on the 5^6 grid holds its own h(x), 9 * X * 16
    # B = 2.25 MB, through its estimate, candidates and proof; the proof and
    # the cell-centre sweep form one slab of X / 5 nodes at a time, and
    # nothing stays.  Measured: 3.17 MB
    spectral_H.positivity_margin  # the lattice's tables
    H = HermitianStructure(spectral_cx, omega=spectral_cx.metric_form())
    tracemalloc.start()
    try:
        H.positivity_margin
        assert metric._centre_refutation(spectral_cx, H._herm, 0.0) is None
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4e6 and held <= 1e4


def _plane_waves(cx):
    """The whole grid's plane-wave matrix E[x, m] = exp(2 pi i m . x), the
    grid_values of each mode's unit spectrum."""
    k = cx.frequencies(1)
    at = cx._positions(1, cx._modes(), k[0][:1])[:, 0]
    return cx.grid_values(np.eye(len(at), dtype=complex)[at], k).T


def _table_product(E, coeffs):
    """The node values of the mode coefficients coeffs, shape (X, k, k), as
    one product with the plane-wave matrix E."""
    kk = coeffs.shape[-1]
    return (coeffs.reshape(-1, kk * kk).T @ E.T).reshape(kk, kk, -1).transpose(2, 0, 1)


@pytest.mark.parametrize("text", [SPECTRAL_TEXT, N2K2_TEXT, STRETCH_TEXT],
                         ids=["spectral", "n2k2", "stretch"])
def test_slab_node_values_have_the_bits_of_the_table_product(text, rng):
    # h(x), its cell-centre values and those of random coefficients, formed
    # slab by slab, equal one product with the whole grid's plane-wave
    # matrix bit for bit: with modes on one axis each, a plane wave is one
    # axis's phase, which the slab waves or the slab's phase hold exactly,
    # and BLAS rounds the nodes of a padded slab as in the whole-grid product
    cx = build_complex(parse_model(text))
    H = HermitianStructure(cx, omega=cx.metric_form())
    E = _plane_waves(cx)
    shape = (cx.catalog.n_modes, cx.n, cx.n)
    for coeffs in (H._herm, metric._centre_coefficients(cx, H._herm),
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
        assert np.array_equal(node_values(cx, coeffs), _table_product(E, coeffs))


def test_slab_node_values_of_modes_on_several_axes(alias_H, rng):
    # modes such as (1, 1, 0, 0, 0, 0) take the phase of the slab's axis
    # and the slab waves of the others: 1e-15 of the table product
    cx = alias_H.complex
    E = _plane_waves(cx)
    shape = (cx.catalog.n_modes, cx.n, cx.n)
    for coeffs in (alias_H._herm, metric._centre_coefficients(cx, alias_H._herm),
                   rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
        ref = _table_product(E, coeffs)
        assert np.abs(node_values(cx, coeffs) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_difference_weights_belong_to_their_complex():
    # the quadrature tables of a lattice live as long as its complexes, and
    # the flat metric's Gram(1,1) is the identity on both grids
    flat = "kind spectral\nn 2\nmodes axis K 1\n"
    cxs = [build_complex(parse_model(flat + f"grid {g}\n")) for g in (5, 7)]
    for cx in cxs:
        G = HermitianStructure(cx, h=np.eye(2)).gram(1, 1)
        assert np.abs(G - np.eye(len(G))).max() <= 1e-14
    tables = [cxs[0].mode_differences(), cxs[0].frequencies(2), cxs[0].frequencies(4),
              cxs[0].shifts(4, 1), cxs[0].slab_waves()]
    refs = [weakref.ref(tables[0][0]), weakref.ref(tables[1][0]),
            weakref.ref(tables[2][1][0][0]), weakref.ref(tables[3]), weakref.ref(tables[4][0])]
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
    # int t ^ star(conj u) = <<t, u>> on every bidegree, p > q included
    H = spectral_H
    cx = H.complex
    for (p, q) in _bidegrees(H):
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
        assert H.is_primitive(u)[0]
        d = p + q
        sign = (-1.0) ** (d * (d + 1) // 2) * (1j) ** (p - q)
        rhs = sign * wedge(u, H.omega_power(n - p - q))
        assert H.norm(H.hodge_star(u) - rhs) <= 1e-8 * (1 + H.norm(u))


def test_is_primitive_refuses_omega_wedge(iwasawa_cx, rng):
    # L* runs through the Cholesky factors, here far from the identity: the
    # primitive part of a form passes, omega ^ v does not (L is injective
    # below the middle degree, so L* L v != 0)
    H = random_hermitian_structure(iwasawa_cx, rng)
    for (p, q) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        R = H.chol(p - 1, q - 1)
        assert np.abs(R - np.eye(len(R))).max() > 0.05
        v = H.complex.random_form(p - 1, q - 1, rng)
        ok, res = H.is_primitive(wedge(H.omega, v))
        assert not ok and res > 0.1 * H.norm(v)
        if p + q > H.n:  # L is onto: no primitive form but 0
            continue
        u = H.complex.random_form(p, q, rng)
        L = H.lefschetz_matrix(p - 1, q - 1)
        Lad = H.adjoint_matrix(L, (p - 1, q - 1), (p, q))
        u.coeffs = u.coeffs - L @ np.linalg.solve(Lad @ L, Lad @ u.coeffs)
        assert H.is_primitive(u)[0]


def test_adjointness(spectral_H, rng):
    H = spectral_H
    cx = H.complex
    for (p, q) in [(1, 0), (1, 1), (2, 0)]:
        u = cx.random_form(p, q, rng)
        v = cx.random_form(p + 1, q, rng)
        lhs = H.ip(cx.apply_del(u), v)
        rhs = H.ip(u, H.apply_adjoint("del", v))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        w = cx.random_form(p, q + 1, rng)
        lhs = H.ip(cx.apply_dbar(u), w)
        rhs = H.ip(u, H.apply_adjoint("dbar", w))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_apply_adjoint_refuses_below_degree_zero(iwasawa_H):
    cx = iwasawa_H.complex
    for kind, (p, q) in [("del", (0, 2)), ("dbar", (2, 0)), ("ddbar", (1, 0)),
                         ("ddbar", (0, 1))]:
        with pytest.raises(DegreeError, match="negative bidegree"):
            iwasawa_H.apply_adjoint(kind, zero_form(cx.catalog, p, q))


def test_codifferential_identity_on_omega(spectral_H):
    # star(del* omega) = dbar(omega_{n-1}); nontrivial on the perturbed
    # spectral metric (both sides vanish identically on the test nilmanifold)
    H = spectral_H
    n = H.n
    lhs = H.hodge_star(H.apply_adjoint("del", H.omega))
    rhs = H.complex.apply_dbar(H.omega_power(n - 1))
    assert H.norm(rhs) > 0.1
    assert H.norm(lhs - rhs) <= 1e-10 * (1 + H.norm(rhs))


def test_codifferential_star_formula(iwasawa_cx, rng):
    # del* = -star dbar star on every bidegree
    H = random_hermitian_structure(iwasawa_cx, rng)
    for (p, q) in [(2, 1), (2, 0), (1, 1), (3, 1)]:
        v = H.complex.random_form(p, q, rng)
        lhs = H.apply_adjoint("del", v)
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
    h = -1j * np.concatenate(list(cx.evaluate(omega))).reshape(-1, cx.n, cx.n)
    bad = np.linalg.eigvalsh(h).min(axis=1) <= 0
    assert bad.sum() == 1 and len(bad) == 5**6
    with pytest.raises(MetricError, match="min eigenvalue"):
        HermitianStructure(cx, omega=omega)


def test_positivity_margin_and_positive_above(spectral_H):
    H = spectral_H
    margin = H.positivity_margin
    assert margin == np.linalg.eigvalsh(h_nodes(H)).min()
    # the floor is decided by the constructor
    HermitianStructure(H.complex, omega=H.omega, floor=0.99 * margin)
    with pytest.raises(MetricError, match="above"):
        HermitianStructure(H.complex, omega=H.omega, floor=1.01 * margin)


# h_11 = 1 + 1.2 cos(2 pi x_1) on n = 2: least, -0.2, at x_1 = 1/2, which is
# no node of the 5 per axis; at the nodes it is least at x_1 = 2/5 and 3/5,
# 1 + 1.2 cos(4 pi / 5) = 0.029
NEGATIVE_BETWEEN_NODES_TEXT = """kind spectral
n 2
modes axis K 1
metric_mode 1 0 0 0 h 1 1 := 0.6
metric_mode -1 0 0 0 h 1 1 := 0.6
"""


def test_metric_negative_between_the_nodes_is_refused():
    # the nodes pass, the Weyl bound 1 - 1.2 does not decide, and the sweep
    # of the cell centres, half a step off every axis, refuses the metric
    # with a point where x_1 = 1/2
    cx = build_complex(parse_model(NEGATIVE_BETWEEN_NODES_TEXT))
    h, _ = metric._hermitian_split(cx.catalog, -1j * cx.metric_form().coeffs.reshape(-1, 2, 2))
    nodes = np.linalg.eigvalsh(node_values(cx, h)).min()
    assert abs(nodes - (1 + 1.2 * math.cos(0.8 * math.pi))) <= 1e-14 and nodes > 0
    assert abs(metric._weyl_bound(cx.catalog, h)[0] + 0.2) <= 1e-14
    with pytest.raises(MetricError, match=r"between the nodes: min eigenvalue -2\.000e-01 "
                                          r"at x = \(0\.5, "):
        HermitianStructure(cx, omega=cx.metric_form())


def test_positivity_verdict_refutes_between_the_nodes_as_the_constructor_does():
    # the verdict on the metric the constructor refuses, read against the
    # flat metric, is the same refutation: the bound does not certify the
    # nodes, and the cell-centre sweep names the point and eigenvalue that
    # the constructor's error names
    cx = build_complex(parse_model(NEGATIVE_BETWEEN_NODES_TEXT))
    with pytest.raises(MetricError) as refused:
        HermitianStructure(cx, omega=cx.metric_form())
    rep = check_weak_positivity(HermitianStructure(cx, h=np.eye(2)), cx.metric_form())
    assert rep.verdict == "refuted" and rep.certified
    assert abs(rep.margin + 0.2) <= 1e-14 and str(rep) == "refuted (certified, margin=-2.000e-01)"
    x, v = rep.witness
    point = ", ".join(f"{c:g}" for c in x)
    assert str(refused.value).endswith(f"at x = ({point})") and x[0] == 0.5
    assert np.allclose(np.abs(v), [1.0, 0.0])


def test_weyl_bound_of_one_cosine(spectral_cx, node_passes):
    # h(x) = diag(1 + 0.3 cos 2 pi x_1, 2, 3): h_0 = diag(1, 2, 3) and
    # h_{+-e_1} = diag(0.15, 0, 0), so the bound is 1 - 2 * 0.15 = 0.7, the
    # least value of h(x), at x_1 = 1/2, and sum_m ||h_m||_2 = 3.3.  It
    # certifies the metric with no node values; above 0.7 the nodes decide
    cx = spectral_cx
    omega = cx.hermitian_form(np.diag([1.0, 2.0, 3.0]))
    for m in ((1, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0)):
        omega = omega + cx.hermitian_form(np.diag([0.15, 0.0, 0.0]), m)
    H = HermitianStructure(cx, omega=omega)
    bound, scale = metric._weyl_bound(cx.catalog, H._herm)
    assert abs(bound - 0.7) <= 1e-15 and abs(scale - 3.3) <= 1e-15
    HermitianStructure(cx, omega=omega, floor=0.69)
    assert node_passes == []
    margin = 1 + 0.3 * math.cos(0.8 * math.pi)
    assert abs(H.positivity_margin - margin) <= 1e-15 and len(node_passes) == 1
    HermitianStructure(cx, omega=omega, floor=0.71)
    assert len(node_passes) == 3  # the nodes, then the cell centres
    with pytest.raises(MetricError, match="above"):
        HermitianStructure(cx, omega=omega, floor=margin + 1e-9)


def test_weyl_allowance_leaves_the_floor_to_the_nodes(torus_cx, node_passes):
    # h = I: the bound is exactly 1, which does not clear the floor 1 by its
    # rounding allowance 1e-12, so the node sweep decides, and h - I is not
    # positive definite
    H = HermitianStructure(torus_cx, h=np.eye(3))
    assert metric._weyl_bound(torus_cx.catalog, H._herm) == (1.0, 1.0) and node_passes == []
    HermitianStructure(torus_cx, h=np.eye(3), floor=1.0 - 1e-13)
    assert len(node_passes) == 2
    with pytest.raises(MetricError, match="above 1.000e"):
        HermitianStructure(torus_cx, h=np.eye(3), floor=1.0)


@pytest.mark.parametrize("name", ["torus_H", "iwasawa_H", "random_iwasawa_H", "spectral_H",
                                  "n2k2_H", "grid7_H", "random13_H", "late_argmin_H"])
def test_weyl_certificate_agrees_with_the_nodes(name, request):
    # the Weyl bound is at most the smallest eigenvalue at every node, and
    # where it certifies a metric, the node sweep agrees
    H = request.getfixturevalue(name)
    nodes = node_values(H.complex, H._herm)
    assert metric._weyl_bound(H.complex.catalog, H._herm)[0] <= np.linalg.eigvalsh(nodes).min()
    if weyl_certifies(H, 0.0):
        assert metric._positive_above(nodes, 0.0)


def test_weyl_bound_near_the_positivity_boundary(node_passes):
    # 100 random spectral n = 2, K = 1 metrics whose Weyl bound lies within
    # 0.05 of 0; in every second one the oscillation is mostly one cosine
    # along the least eigenvector of h_0, so the bound is nearly tight and
    # h(x) comes within about 0.05 of singular.  The bound is at most the
    # smallest eigenvalue at every node and cell centre; a metric it
    # certifies is built with no node values and passes the node sweep, and
    # one it does not is refused only where a node or cell centre is not
    # positive
    cx = build_complex(parse_model("kind spectral\nn 2\nmodes axis K 1\n"))
    cat = cx.catalog
    zero = cat.mode_pos[cat.zero_mode]
    rng = np.random.default_rng(21)
    counts = {"certified": 0, "built": 0, "refused": 0}
    for k in range(100):
        shape = (cat.n_modes, 2, 2)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h0 = c[zero] @ c[zero].conj().T
        if k % 2:
            v = np.linalg.eigh(h0)[1][:, :1]
            c *= 0.001
            m = rng.choice([m for m in range(cat.n_modes) if m != zero])
            c[m] += np.exp(2j * np.pi * rng.uniform()) * (v @ v.conj().T)
        c[zero] = 0
        h = metric._hermitian_split(cat, c)[0]
        h *= (1 + rng.uniform(-0.05, 0.05)) / sum(
            np.linalg.svd(hm, compute_uv=False)[0] for hm in h)
        h[zero] = h0 / np.linalg.eigvalsh(h0)[0]
        omega = metric.Form(cat, metric.Bidegree(1, 1), 1j * h.reshape(-1))
        values = [node_values(cx, h),
                  node_values(cx, metric._centre_coefficients(cx, h))]
        passes = len(node_passes)
        least = min(np.linalg.eigvalsh(v).min() for v in values)
        assert metric._weyl_bound(cat, h)[0] <= least + 1e-14
        try:
            H = HermitianStructure(cx, omega=omega)
        except MetricError:
            assert least <= 0
            counts["refused"] += 1
            continue
        assert least > 0
        if weyl_certifies(H, 0.0):
            counts["certified"] += 1
            assert len(node_passes) == passes and metric._positive_above(values[0], 0.0)
        else:
            counts["built"] += 1
    assert min(counts.values()) >= 10, counts


def _lapack_positive_above(M, c):
    try:
        np.linalg.cholesky(M - c * np.eye(M.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _node_contiguous(M):
    """The matrices M(x) stored as _node_slabs forms them: a view of (n, n, X)."""
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


def _det_from_spectrum(H):
    """det h(x) at every node as _inverse_det derives it: grid_values of its
    exact spectrum on S_n, the last of the minor spectra."""
    cx = H.complex
    return cx.grid_values(H._minor_spectra()[-1], cx.frequencies(H.n))[0].real


def _random_mode_metric(n, rng):
    """A random metric on n with modes 0 and +-e_1, 5 nodes on the axis
    x_1: h(x) = h_0 + B exp(2 pi i x_1) + B^H exp(-2 pi i x_1), B a full
    random n x n matrix.  Few modes keep the complex small at n = 6."""
    unit = [(1,) + (0,) * (2 * n - 1)]
    modes = [(0,) * (2 * n)] + unit + [tuple(-c for c in m) for m in unit]
    text = f"kind spectral\nn {n}\n" + "".join(
        "mode " + " ".join(map(str, m)) + "\n" for m in modes)
    cx = build_complex(parse_model(text))
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    omega = cx.hermitian_form(np.eye(n) + 0.2 * A @ A.conj().T / n)
    for m in unit:
        B = 0.1 / n * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        omega = (omega + cx.hermitian_form(B, m)
                 + cx.hermitian_form(B.conj().T, tuple(-c for c in m)))
    return HermitianStructure(cx, omega=omega)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_minors_are_determinants_of_submatrices(n, rng):
    # det h(x) from its spectrum on S_n, the last of the minor spectra, at
    # every node against np.linalg.det of h(x); for n >= 3 the n-fold sums
    # of the modes, +-3 e_1 and beyond, alias on the 5 nodes of the axis
    H = _random_mode_metric(n, rng)
    ref = np.real(np.linalg.det(h_nodes(H)))
    det = _det_from_spectrum(H)
    assert det.shape == (5,) and np.ptp(ref) > 0.1 * np.abs(ref).max()
    assert np.abs(det - ref).max() <= 1e-13 * np.abs(ref).max()


def test_minors_of_the_spectral_metric(spectral_H):
    ref = np.real(np.linalg.det(h_nodes(spectral_H)))
    det = _det_from_spectrum(spectral_H)
    assert np.abs(det - ref).max() <= 1e-13 * np.abs(ref).max()


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
    cx, h = H.complex, h_nodes(H)
    for k, spectrum in enumerate(H._minor_spectra()):
        C = math.comb(H.n, k)
        values = _minors(h, k).reshape(*cx.grid, C * C)
        ref = np.fft.fftn(values, axes=tuple(range(len(cx.grid)))) / cx.n_nodes
        ref = ref.reshape(-1, C * C).T
        k_set = cx.frequencies(k)[0]
        at = np.ravel_multi_index(tuple(k_set.T), cx.grid) if cx.grid else [0]
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
    H, h = late_argmin_H, h_nodes(late_argmin_H)
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
    h = node_values(H.complex, metric._hermitian_split(
        H.complex.catalog, -1j * u.coeffs.reshape(-1, 3, 3))[0])
    eigs = np.linalg.eigvalsh(h)
    node = int(np.argmin(eigs.min(axis=1)))
    rep = check_weak_positivity(H, u)
    assert rep.verdict == "refuted" and rep.margin == eigs.min()
    assert rep.witness[0] == node == 0
    assert np.array_equal(rep.witness[1], np.linalg.eigh(h[node])[1][:, 0])


def test_smallest_eigenvalue_at_one_node(iwasawa_cx, rng):
    H = random_hermitian_structure(iwasawa_cx, rng)
    assert H.positivity_margin == np.linalg.eigvalsh(h_nodes(H)).min()
    rep = check_weak_positivity(H, -1.0 * H.omega)
    assert rep.verdict == "refuted" and rep.witness[0] == 0
    assert rep.margin == np.linalg.eigvalsh(-h_nodes(H)).min()
    assert np.array_equal(rep.witness[1], np.linalg.eigh(-h_nodes(H)[0])[1][:, 0])


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


# h(x) = diag(1 + 0.6 cos 2 pi x_1, 1 + 0.6 cos 2 pi x_2): least at the
# nodes 1 + 0.6 cos(4 pi / 5) = 0.515, and 0.4 at the cell centre x = 1/2;
# its Weyl bound 1 - 4 * 0.3 = -0.2 certifies nothing
NODES_ONLY_TEXT = """kind spectral
n 2
modes axis K 1
metric_mode 1 0 0 0 h 1 1 := 0.3
metric_mode -1 0 0 0 h 1 1 := 0.3
metric_mode 0 1 0 0 h 2 2 := 0.3
metric_mode 0 -1 0 0 h 2 2 := 0.3
"""


@pytest.fixture(scope="module")
def nodes_only_H():
    cx = build_complex(parse_model(NODES_ONLY_TEXT))
    return HermitianStructure(cx, omega=cx.metric_form())


@pytest.mark.parametrize("name", ["torus_H", "iwasawa_H", "spectral_H", "n2k2_H",
                                  "nodes_only_H"])
def test_verdict_on_omega_is_the_verdict_on_a_copy(name, request, node_passes):
    # H.omega is judged as any form is: its verdict equals that on the copy
    # 1.0 * omega.  Each forms h(x) once, and a verdict the Weyl bound does
    # not certify also forms the cell-centre values, which pass, as they
    # passed when H was built
    H = request.getfixturevalue(name)
    reports = []
    for u in (H.omega, 1.0 * H.omega):
        before = len(node_passes)
        reports.append(check_weak_positivity(H, u))
        assert len(node_passes) - before == (1 if reports[-1].certified else 2)
    assert reports[0] == reports[1] and reports[0].verdict == "positive"
    assert reports[0].margin == H.positivity_margin
    if name == "nodes_only_H":
        assert str(reports[0]) == "positive (nodes only, margin=5.146e-01)"


def test_node_deviation_refutes_a_metric_that_builds(torus_cx):
    # the asymmetry 4e-13 passes the reality test (tolerance 1e-12 since
    # max|omega| < 1), but on h = 1e-4 I the deviation of c(x) from its
    # Hermitian part, 2e-13, exceeds 1e-9 max|h(x)| = 1e-13
    h = 1e-4 * np.eye(3, dtype=complex)
    h[0, 1] += 4e-13
    H = HermitianStructure(torus_cx, h=h)
    for u in (H.omega, 1.0 * H.omega):
        rep = check_weak_positivity(H, u)
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
    pos = check_weak_positivity(torus_H, torus_H.omega)
    assert pos.verdict == "positive" and pos.certified
    u = torus_cx.random_form(1, 1, rng)
    u = 0.5 * (u + conjugate(u))  # real but indefinite
    rep = check_weak_positivity(torus_H, u)
    assert rep.verdict in ("refuted", "semi-positive", "positive")


def test_positivity_certified_is_a_bool(torus_H, torus_cx):
    # every branch stores a Python bool, not a numpy one: the positive and
    # semi-positive verdicts compare the Weyl bound, a refutation is True;
    # test_weak_positivity_certified_by_the_weyl_bound reads the False
    zero = zero_form(torus_cx.catalog, 0, 0)
    for u, verdict in ((torus_H.omega, "positive"), (zero, "semi-positive"),
                       (-1.0 * torus_H.omega, "refuted")):
        rep = check_weak_positivity(torus_H, u)
        assert rep.verdict == verdict and rep.certified is True


def test_positivity_report_line(torus_H):
    # the report names the verdict, whether an exact test backs it, and the
    # margin
    pos = check_weak_positivity(torus_H, torus_H.omega)
    assert str(pos) == "positive (certified, margin=1.000e+00)"
    assert str(metric.PositivityReport("refuted", margin=-0.5)) == "refuted (margin=-5.000e-01)"


def test_weak_positivity_omega_power(torus_H):
    rep = check_weak_positivity(torus_H, torus_H.omega_power(2))
    assert rep.verdict in ("positive", "semi-positive")
    zero = zero_form(torus_H.complex.catalog, 2, 2)
    rep0 = check_weak_positivity(torus_H, zero)
    assert rep0.verdict != "refuted"


@pytest.mark.parametrize("shift, verdict", [(0.0, "semi-positive"), (-1.0, "refuted"),
                                            (1.0, "positive")])
def test_weak_positivity_has_one_rule_in_every_bidegree(shift, verdict):
    # f = 1e6 (1 - cos 2 pi x_1) - 1e-8 + shift on n = 2: least at the nodes
    # x_1 = 0, where -1e-8 is rounding against max|f| = 2e6.  As a function,
    # as f omega and as f omega_2 it gets one verdict, which scaling by 1e6
    # does not change, and a refutation names a node with x_1 = 0
    cx = build_complex(parse_model("kind spectral\nn 2\nmodes axis K 1\n"))
    H, cat = HermitianStructure(cx, h=np.eye(2)), cx.catalog
    f = zero_form(cat, 0, 0)
    f.coeffs[cat.flat_index(cat.zero_mode, (), ())] = 1e6 - 1e-8 + shift
    for m in ((1, 0, 0, 0), (-1, 0, 0, 0)):
        f.coeffs[cat.flat_index(m, (), ())] = -0.5e6
    for u in (f, wedge(f, H.omega), wedge(f, H.omega_power(2))):
        for scale in (1.0, 1e6):
            rep = check_weak_positivity(H, scale * u)
            assert rep.verdict == verdict and rep.certified, (u.bidegree, scale)
            assert abs(rep.margin - scale * (shift - 1e-8)) <= 1e-9 * scale
            if verdict == "refuted":
                assert cx.nodes()[rep.witness[0], 0] == 0.0


@pytest.mark.parametrize("amp, by_bound", [(0.6, False), (0.5, False), (0.45, True)])
def test_weak_positivity_certified_by_the_weyl_bound(spectral_cx, amp, by_bound):
    # f = 1 + 2 amp cos(2 pi x_1) on n = 3 is positive at the nodes, least
    # 1 + 2 amp cos(4 pi / 5), and least on the torus at x_1 = 1/2, a cell
    # centre, where its Weyl bound 1 - 2 amp lies.  With amp = 0.45 the
    # bound 0.1 certifies it, as a function and times omega_k, k = 1, 2, 3
    # (every bidegree with a certificate).  With amp = 0.6 and 0.5 the bound
    # does not, and the cell centres decide: f = -0.2 there is a certified
    # refutation naming x_1 = 1/2, and f = 0 leaves it positive at the
    # nodes only
    cx = spectral_cx
    cat = cx.catalog
    H = HermitianStructure(cx, h=np.eye(3))
    f = zero_form(cat, 0, 0)
    f.coeffs[cat.flat_index(cat.zero_mode, (), ())] = 1.0
    for m in ((1, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0)):
        f.coeffs[cat.flat_index(m, (), ())] = amp
    least = 1 + 2 * amp * math.cos(0.8 * math.pi)
    for k in range(4):
        rep = check_weak_positivity(H, wedge(f, H.omega_power(k)) if k else f)
        if amp > 0.5:
            assert rep.verdict == "refuted" and rep.certified, k
            assert abs(rep.margin - (1 - 2 * amp)) <= 1e-14 and rep.witness[0][0] == 0.5
            continue
        assert rep.verdict == "positive" and rep.certified is by_bound, k
        assert abs(rep.margin - least) <= 1e-14
        assert str(rep).startswith("positive (certified, " if by_bound
                                   else "positive (nodes only, ")


@pytest.mark.parametrize("name", ["torus_H", "spectral_H", "n2k2_H"])
def test_weak_positivity_refutes_a_form_that_is_not_real(name, request):
    # a weakly positive form is real: i u and (1 + 0.1 i) u, for u = omega_p
    # in the bidegrees (0,0), (n-1,n-1) and (n,n), are refuted by their
    # non-Hermitian coefficients, though their Hermitian parts are 0 and
    # positive.  Real forms are decided by their eigenvalues: u, -u, and
    # r = s + conj(s) for a random s, whose anti-Hermitian part is exactly 0
    H = request.getfixturevalue(name)
    cx, n = H.complex, H.n
    rng = np.random.default_rng(n)
    for p in (0, n - 1, n):
        u = H.omega_power(p)
        for v in (1j * u, (1 + 0.1j) * u):
            rep = check_weak_positivity(H, v)
            assert rep.verdict == "refuted" and rep.certified, p
            assert rep.witness == "non-Hermitian coefficients" and rep.margin < 0
        assert check_weak_positivity(H, u).verdict == "positive", p
        rep = check_weak_positivity(H, -u)
        assert rep.verdict == "refuted" and isinstance(rep.witness, tuple), p
        s = cx.random_form(p, p, rng)
        rep = check_weak_positivity(H, s + conjugate(s))
        assert isinstance(rep.witness, tuple) or rep.witness is None, p
        if p == 0:
            least = min(v[:, 0].real.min() for v in cx.evaluate(s + conjugate(s)))
            assert abs(rep.margin - least) <= 1e-12 * np.abs(s.coeffs).sum()


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
