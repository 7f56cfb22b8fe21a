"""Hermitian structures: Gram matrices, Hodge star, adjoints, integration,
volume and positivity tests.

Conventions.  A metric is a positive (1,1)-form

    omega = i * sum_{j,k} h_{jk} dz^j ^ dzbar^k,      h Hermitian > 0.

The induced inner product on (1,0)-covectors is the inverse matrix in the
transposed orientation, <dz^j, dz^k> = (h^{-1})_{kj}, extended to
Lambda^{p,q} by minor determinants.
The integration functional is normalized so the canonical orientation form

    tau = i dz^1^dzbar^1 ^ ... ^ i dz^n^dzbar^n = i^{n^2} e_vol

has total integral 1 (unit-volume model); then dV_omega = omega_n and the
flat metric has volume 1.

Everything metric-dependent (Gram matrices, star, adjoints, integrals) is
evaluated with one shared quadrature rule, so the pointwise identities
u ^ star(vbar) = <u,v> dV and the primitive-form star formula close exactly
at the discrete level.

A Gram matrix pairs conj(C_p) with N_q = C_q det h, C_k the k-th compound
of h^{-T}.  N_k is a polynomial in h(x); every spectrum is an exact
convolution of omega's mode coefficients, and of the one rational scalar
1 / det h, the only function a metric transforms from node values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate, combinations, product

import numpy as np

from .backends import FormComplex
from .forms import (Bidegree, DegreeError, Form, _Memo, wedge, wedge_values,
                    zero_form)

__all__ = [
    "HermitianStructure",
    "PositivityReport",
    "MetricError",
    "check_weak_positivity",
]

PRIMITIVE_TOL = 1e-10

# the bidegree step (dp, dq) of each structure operator that whitened() reads
_STEPS = {"del": (1, 0), "dbar": (0, 1), "ddbar": (1, 1)}


class MetricError(ValueError):
    """Raised for non-positive metrics or incompatible inputs."""


@functools.lru_cache(maxsize=None)
def _laplace_tables(n):
    """For k = 1..n, the index tables of the Laplace expansion of the k x k
    minors det h[I_a, I_b] of an n x n matrix h along their first column,
    over the pairs (a, b), flattened, of the k-subsets I_a of range(n) in
    lexicographic order: entry[ab, i] is the flat index of
    (I_a[i], I_b[0]) among the n x n entries, and cofactor[ab, i] the flat
    index of (I_a minus I_a[i], I_b minus I_b[0]) among the pairs of
    (k-1)-subsets; term i has the sign (-1)^i."""
    subsets = [list(combinations(range(n), k)) for k in range(n + 1)]
    tables = []
    for k in range(1, n + 1):
        below = {s: i for i, s in enumerate(subsets[k - 1])}
        C = len(below)
        pairs = np.array([
            [[(I[i] * n + K[0], below[I[:i] + I[i + 1:]] * C + below[K[1:]])
              for i in range(k)] for K in subsets[k]] for I in subsets[k]]).reshape(-1, k, 2)
        tables.append((pairs[..., 0], pairs[..., 1]))
    return tables


@functools.lru_cache(maxsize=None)
def _jacobi_tables(n):
    """For k = 0..n, over the C x C entries (a, b), flattened, of the
    k-subsets I_a of range(n) in lexicographic order: the row of
    det h[I_a^c, I_b^c] among the flat (n-k)-minors (the complements are
    the (n-k)-subsets in reverse order) and the sign
    (-1)^(sum I_a + sum I_b) of Jacobi's complementary minors."""
    tables = []
    for k in range(n + 1):
        sign = np.array([(-1.0) ** sum(I) for I in combinations(range(n), k)])
        C = len(sign)
        a, b = np.divmod(np.arange(C * C), C)
        tables.append(((C - 1 - a) * C + C - 1 - b, (sign[a] * sign[b])[:, None]))
    return tables


def _minor_spectra(h, folds):
    """The grid spectra of det h(x)[I_a, I_b] for every pair (a, b) of
    k-subsets, flattened, k = 0..n, as (C * C, |S_k|) arrays, from the mode
    coefficients h of h(x), shape (n * n, modes): by the discrete
    convolution theorem, each product of the Laplace expansion along the
    first column is a convolution of a 1-mode spectrum with an S_{k-1}
    spectrum, folded onto S_k (folds[k - 1] = FormComplex.fold(k))."""
    sign = (-1.0) ** np.arange(len(folds))
    minors = [np.ones((1, 1), dtype=complex)]
    for k, ((entry, cofactor), (order, starts)) in enumerate(
            zip(_laplace_tables(len(folds)), folds), start=1):
        terms = np.matmul((h[entry] * sign[:k, None]).transpose(0, 2, 1),
                          minors[-1][cofactor])
        minors.append(np.add.reduceat(terms.reshape(len(terms), -1)[:, order], starts, axis=1))
    return minors


def _sweep(slabs, c) -> bool:
    """True when M(x) - c I is positive definite at every node of every
    slab of slabs, Hermitian node matrices of shape (Y, n, n) each: one
    Cholesky sweep (_positive_above) per slab, stopping at the first slab
    that fails."""
    return all(_positive_above(M, c) for M in slabs)


def _positive_above(M, c) -> bool:
    """True when M(x) - c I is positive definite for every Hermitian M(x)
    of M, shape (X, n, n), decided by one Cholesky factorization swept
    across the nodes: each step is one array operation on all X nodes,
    read from rows of M that are contiguous when M is node-contiguous.

    Column j of the factor L is M[j:, j] - sum_{k<j} L[j:, k] conj(L[j, k]);
    its head, less c, is the pivot d_j = Re M_jj - c - sum_k |L_jk|^2, and
    the rest is scaled by 1 / sqrt(d_j).  M - c I is positive definite
    exactly when every pivot is > 0; a NaN pivot fails.  Like LAPACK's
    zpotrf it reads only the lower triangle and the real diagonal, and
    stops at the first column with a pivot that is not positive."""
    n = M.shape[-1]
    rows = M.transpose(1, 2, 0)
    L = np.empty((n, n, len(M)), dtype=complex)
    for j in range(n):
        col = rows[j:, j]
        if j:
            col = np.subtract(col, np.add.reduce(L[j:, :j] * L[j, :j].conj(), axis=1),
                              out=L[j:, j])
        # the pivot head - c is > 0 exactly when head > c; NaN is neither
        head = col[0].real
        if not np.minimum.reduce(head) > c:
            return False
        if j + 1 < n:
            np.multiply(col[1:], 1 / np.sqrt(head - c), out=L[j + 1:, j])
    return True


def _pair_estimate(M):
    """(estimate, max|M|) of the Hermitian matrices M(x), shape (Y, n, n):
    at each node the least smallest eigenvalue of the 2 x 2 principal
    submatrices (the diagonal when n = 1), formed one pair (i, j) at a time,
    and max|M| read from the real diagonal and the upper triangle."""
    diagonal = np.real(np.diagonal(M, axis1=1, axis2=2))
    estimate = diagonal.min(axis=1)
    scale = np.abs(diagonal).max()
    for i, j in combinations(range(M.shape[-1]), 2):
        # the smaller eigenvalue of the submatrix on rows i, j, one node row
        # at a time
        off = np.abs(M[:, i, j])
        scale = max(scale, off.max())
        gap = np.hypot(0.5 * (diagonal[:, i] - diagonal[:, j]), off, out=off)
        np.minimum(estimate, 0.5 * (diagonal[:, i] + diagonal[:, j]) - gap, out=estimate)
    return estimate, scale


def _smallest_eigenvalue(slabs):
    """(lo, node, M(node), max|M|): the smallest eigenvalue of the
    Hermitian matrices M(x), given as the list of their slabs in node
    order, each of shape (Y, n, n), the first node among those searched
    where it is attained, a copy of the matrix there, and max|M| over the
    nodes (_pair_estimate).

    eigvalsh runs only on a candidate set of nodes, the 64 whose estimate
    (_pair_estimate, slab by slab) is least, an upper bound of the
    smallest eigenvalue by Cauchy interlacing, exact when n = 2.  It gives
    lo.  One Cholesky factorization of M(x) - (lo - delta) I swept across
    the nodes slab by slab (_sweep), with delta = 1e-13 max|M|, then
    proves that no node lies below lo - delta.  Until it does, the
    candidate set grows eightfold; once it covers every node, lo is the
    minimum over all of them."""
    estimates, scales = zip(*map(_pair_estimate, slabs))
    estimate, scale = np.concatenate(estimates), float(max(scales))
    size, Y = 64, len(slabs[0])
    while True:
        size = min(size, len(estimate))
        nodes = np.sort(np.argpartition(estimate, size - 1)[:size])
        M = np.concatenate([S[nodes[nodes // Y == s] - s * Y] for s, S in enumerate(slabs)])
        eigs = np.linalg.eigvalsh(M).min(axis=1)
        best = int(np.argmin(eigs))
        lo, node = float(eigs[best]), int(nodes[best])
        if size == len(estimate) or _sweep(slabs, lo - 1e-13 * scale):
            return lo, node, M[best].copy(), scale
        size *= 8


def _hermitian_split(cat, c):
    """(h, a), each shape (modes, k, k), for the coefficient matrices c_m of
    c(x) = sum_m c_m e_m(x): h_m = (c_m + c_{-m}^H) / 2, the coefficients of
    the Hermitian part (c(x) + c(x)^H) / 2, and a_m = c_m - h_m."""
    h = c + np.conj(c[cat.mode_neg_index()]).transpose(0, 2, 1)
    h *= 0.5
    return h, c - h


def _weyl_bound(cat, h):
    """(bound, scale) for the Hermitian mode coefficients h, shape
    (modes, k, k), of M(x) = sum_m h_m e_m(x): by Weyl's inequality,
    bound = lambda_min(h_0) - sum_{m != 0} ||h_m||_2 is at most the
    smallest eigenvalue of M(x) at every point of the torus, not only at
    the nodes, and scale = sum_m ||h_m||_2 bounds ||M(x)||_2.  With one
    mode the sum is empty and bound is lambda_min(h_0)."""
    zero = cat.mode_pos[cat.zero_mode]
    eigs = np.linalg.eigvalsh(h[zero])
    scale = max(-eigs[0], eigs[-1])
    if len(h) == 1:
        return float(eigs[0]), float(scale)
    norms = np.linalg.norm(np.delete(h, zero, axis=0), ord=2, axis=(1, 2)).sum()
    return float(eigs[0] - norms), float(scale + norms)


def _node_slabs(cx: FormComplex, coeffs):
    """sum_m coeffs_m exp(2 pi i m . x) at the nodes x of each slab
    (FormComplex.node_slabs), shape (Y, k, k), for coeffs of shape
    (modes, k, k): node-contiguous, a view of a (k, k, Y) array, so each
    entry's node values form one row."""
    k = coeffs.shape[-1]
    for values in cx.node_slabs(coeffs.reshape(-1, k * k)):
        yield values.reshape(k, k, -1).transpose(2, 0, 1)


def _centre_coefficients(cx: FormComplex, coeffs):
    """The mode coefficients whose node values are those of coeffs at the
    cell centres x + delta, delta half a grid step on every axis: coeffs_m
    exp(2 pi i m . delta)."""
    phase = np.exp(1j * np.pi * (cx._modes() / np.array(cx.grid)).sum(axis=1))
    return coeffs * phase[:, None, None]


def _centre_refutation(cx: FormComplex, coeffs, c):
    """None when M(x) - c I is positive definite at every cell centre x
    (_centre_coefficients of the mode coefficients coeffs of M), swept slab
    by slab; otherwise (lo, x, v): the smallest eigenvalue over the
    centres, the first centre x where it lies and its eigenvector v."""
    shifted = _centre_coefficients(cx, coeffs)
    if _sweep(_node_slabs(cx, shifted), c):
        return None
    lo, node, at, _ = _smallest_eigenvalue(list(_node_slabs(cx, shifted)))
    x = cx.nodes()[node] + 0.5 / np.array(cx.grid)
    return lo, x, np.linalg.eigh(at)[1][:, 0]


def _whiten_plan(cx: FormComplex):
    """Per structure, the batches of HermitianStructure.whiten_all: the
    bidegrees grouped by dimension N, {N: [(p, q), ...]}, and the structure
    operators grouped by shape, as (whitened memo keys, stacked matrices,
    (N_dst, positions of the targets among the bidegrees of N_dst),
    (N_src, positions of the sources))."""

    def build():
        n = cx.n
        shapes = {}
        for bd in product(range(n + 1), repeat=2):
            shapes.setdefault(cx.dims(*bd), []).append(bd)
        where = {bd: (N, i) for N, bds in shapes.items() for i, bd in enumerate(bds)}
        groups = {}
        for kind, (dp, dq) in _STEPS.items():
            for p, q in product(range(n + 1 - dp), range(n + 1 - dq)):
                (N_dst, i), (N_src, j) = where[(p + dp, q + dq)], where[(p, q)]
                groups.setdefault((N_dst, N_src), []).append(((kind, p, q), i, j))
        operators = []
        for (N_dst, N_src), group in groups.items():
            ops, dst, src = zip(*group)
            A = np.stack([getattr(cx, f"{kind}_matrix")(p, q) for kind, p, q in ops])
            operators.append(([("whitened", *op) for op in ops], A,
                              (N_dst, list(dst)), (N_src, list(src))))
        return shapes, operators

    return cx._cached("whiten plan", build)


class HermitianStructure(_Memo):
    """A positive Hermitian metric on a FormComplex.

    Built either from an n x n constant Hermitian matrix or from a (1,1)
    metric form living on the complex, and refused with MetricError unless
    h(x) - max(floor, 0) I is positive definite at every node.  The Weyl
    bound of omega's coefficients (_weyl_bound) decides that with no node
    values when it clears the floor by its rounding allowance 1e-12 max(1,
    sum_m ||h_m||_2), and then h(x) is positive definite on the whole
    torus.  Otherwise one Cholesky sweep of the node matrices decides, and
    a metric that passes it is swept once more at the cell centres, where
    a negative eigenvalue is refused with the point it lies at.  Each
    sweep forms h(x) one slab at a time, and no node values are kept: only
    what is read from them (the margin, its node and max|h|).  Immutable
    after construction; Gram, star, adjoint and the other derived matrices
    are cached per bidegree in one memo.
    """

    def __init__(self, complex_: FormComplex, h=None, omega: Form | None = None,
                 floor: float = 0.0):
        super().__init__()
        self.complex = complex_
        self.n = complex_.n
        if (h is None) == (omega is None):
            raise ValueError("provide exactly one of h or omega")
        if omega is None:
            h = np.asarray(h, dtype=complex)
            if h.shape != (self.n, self.n):
                raise MetricError(f"h must be {self.n}x{self.n}")
            omega = complex_.hermitian_form(h)
        self.omega = omega
        if (omega.p, omega.q) != (1, 1):
            raise MetricError("metric form must have bidegree (1,1)")
        # omega's Hermitian coefficients h_m and anti-Hermitian a_m; omega is
        # real when a_m vanishes, as |conj(omega) - omega| = 2 |a_m|
        self._herm, anti = _hermitian_split(
            complex_.catalog, -1j * omega.coeffs.reshape(-1, self.n, self.n))
        if 2 * np.abs(anti).max() > 1e-12 * max(1.0, np.abs(omega.coeffs).max()):
            raise MetricError("metric form is not real")
        floor = max(floor, 0.0)
        bound, scale = _weyl_bound(complex_.catalog, self._herm)
        if bound > floor + 1e-12 * max(1.0, scale):
            return
        if not _sweep(_node_slabs(complex_, self._herm), floor):
            raise MetricError(
                f"metric not positive definite above {floor:.3e}" if floor else
                f"metric not positive definite: min eigenvalue {self.positivity_margin:.3e}")
        refuted = _centre_refutation(complex_, self._herm, 0.0)
        if refuted:
            lo, x, _ = refuted
            raise MetricError(f"metric not positive definite between the nodes: min "
                              f"eigenvalue {lo:.3e} at x = ({', '.join(f'{v:g}' for v in x)})")

    # -- pointwise data ----------------------------------------------------

    def _smallest_eigenvalue(self):
        """_smallest_eigenvalue of h(x), computed when first read from node
        values formed for it alone."""
        return self._cached("smallest_eigenvalue", lambda: _smallest_eigenvalue(
            list(_node_slabs(self.complex, self._herm))))

    @property
    def positivity_margin(self) -> float:
        """The smallest eigenvalue of h(x) over the nodes, computed when
        first read; no node lies more than 1e-13 max|h| below it (see
        _smallest_eigenvalue)."""
        return self._smallest_eigenvalue()[0]

    def _minor_spectra(self):
        """The grid spectra of every minor of h(x), from omega's Hermitian
        coefficients h_m (see _minor_spectra), computed when first read."""
        n = self.n
        return self._cached("minor spectra", lambda: _minor_spectra(
            self._herm.reshape(-1, n * n).T, [self.complex.fold(k) for k in range(1, n + 1)]))

    def _inverse_det(self):
        """The grid spectrum D of 1 / det h(x) on S_{2n}, the frequencies a
        compound reads, computed when first read: one transform of the
        reciprocal of det h(x), synthesized at the nodes (grid_values) from
        its exact spectrum on S_n, the last of the minor spectra."""

        def build():
            cx = self.complex
            det = cx.grid_values(self._minor_spectra()[-1], cx.frequencies(self.n))[0].real
            return cx.grid_transform(1 / det[None], cx.frequencies(2 * self.n))[0] / len(det)

        return self._cached("inverse det", build)

    def _spectrum(self, k, compound):
        """The Fourier coefficients (1 / X) sum_x f(x) exp(-2 pi i s . x),
        shape (C * C, |S|), once per metric, of f = N_k, a polynomial of
        degree n - k in h(x), at all s of frequencies(n - k), or with
        compound of f = conj(C_k) at the s of frequencies(n - k + 2) that
        a Gram (k, q) reads.

        N_k is read from the minor spectra by Jacobi's complementary
        minors (_jacobi_tables), with no node values.  conj(C_0) is 1.  For
        k >= 1, conj(C_k) = conj(N_k) / det h, and conj(N_k) has its
        spectrum on S_{n-k}, conj(N_k^(-s)) at s, so by the discrete
        convolution theorem conj(C_k)^(t) is exactly the sum over s of
        S_{n-k} of conj(N_k^(s)) D(t + s), D from _inverse_det."""

        def build():
            if not compound:
                # Jacobi, A = h^{-T}: det A[I, K] det h = (-1)^(sum I + sum K) det h[I^c, K^c]
                rows, sign = _jacobi_tables(self.n)[k]
                return self._minor_spectra()[-1 - k][rows] * sign
            j = self.n - k
            if not k:
                # zero is the first frequency of every set
                spectrum = np.zeros((1, len(self.complex.frequencies(j + 2)[0])), dtype=complex)
                spectrum[0, 0] = 1.0
                return spectrum
            index = self.complex.sum_index(2 * self.n, j, j + 2)
            return np.conj(self._spectrum(k, False)) @ self._inverse_det()[index]

        return self._cached(("spectrum", k, compound), build)

    # -- Gram matrices -------------------------------------------------------

    def gram(self, p, q):
        """L^2 Gram matrix G with <<u, v>> = v^H G u in the basis order.

        The (i, j) mode block is the grid Fourier coefficient at m_i - m_j
        of the pointwise pairing Q(x) = conj(C_p(x)) (x) N_q(x), exact for
        the 4 max|m| + 1 grid: by the discrete convolution theorem, the sum
        of N_q^(m) (x) conj(C_p)^(m_i - m_j - m) over the few m where
        N_q^(m) != 0, both spectra from _spectrum.  For p > q it is
        gram(q, p) under conjugation."""

        def build():
            cat = self.complex.catalog
            if p > q:
                # <<conj u, conj v>> = conj <<u, v>>; the signs square away
                index, _ = cat.conj_permutation(q, p)
                return np.conj(self.gram(q, p))[np.ix_(index, index)]
            nh, na = math.comb(self.n, p), math.comb(self.n, q)
            S = nh * na
            _, index = self.complex.mode_differences()
            shifts = self.complex.shifts(self.n - p + 2, self.n - q)
            # <dz^j, dz^k> = (h^{-1})_{kj}; this orientation makes |omega|^2 = n.
            # Q[(I,J),(K,L)] = conj(C_p[I,K]) * N_q[J,L]; its coefficient at
            # the row d_r is sum_s N_q^(s) conj(C_p)^(d_r - s)
            N = self._spectrum(q, False)
            half = self._spectrum(p, True)[:, shifts].reshape(-1, N.shape[1]) @ N.T
            half = half.reshape(nh, nh, -1, na, na).transpose(2, 0, 3, 1, 4).reshape(-1, S, S)
            # Q(x) is Hermitian, so its coefficient at -d is the conjugate
            # transpose of the one at d
            table = np.concatenate([half, half.conj().transpose(0, 2, 1)])
            MS = cat.n_modes * S
            G = table[index].transpose(0, 2, 1, 3).reshape(MS, MS)
            return 0.5 * (G + G.conj().T)

        return self._cached(("gram", p, q), build)

    def chol(self, p, q):
        """Upper-triangular R with gram = R^H R, in LAPACK's column-major
        layout, which fixes how the products with R round."""
        return self._cached(("chol", p, q), lambda: np.asfortranarray(
            np.linalg.cholesky(self.gram(p, q), upper=True)))

    def chol_inv(self, p, q):
        """R^{-1} for the Cholesky factor R = chol(p, q)."""
        return self._cached(("chol_inv", p, q), lambda: np.linalg.inv(self.chol(p, q)))

    def whitened(self, kind, p, q):
        """R_dst A R_src^{-1} for A the structure operator kind ("del",
        "dbar" or "ddbar") on Lambda^{p,q} and R the Cholesky factors of the
        two Grams.  In these orthonormal frames the Gram adjoint of A is the
        conjugate transpose: R_src A* R_dst^{-1} = whitened(kind, p, q)^H."""

        def build():
            dp, dq = _STEPS[kind]
            A = getattr(self.complex, f"{kind}_matrix")(p, q)
            return self.chol(p + dp, q + dq) @ A @ self.chol_inv(p, q)

        return self._cached(("whitened", kind, p, q), build)

    def whiten_all(self):
        """Fill chol, chol_inv and whitened on every bidegree: one batched
        Cholesky, one batched inverse and one batched product per shape
        (_whiten_plan).  Entries already in the memo are kept; a batched
        factor has the same bits as chol and chol_inv compute alone.
        Returns the bidegrees grouped by dimension, {N: [(p, q), ...]}."""
        shapes, operators = _whiten_plan(self.complex)
        memo, R, Rinv = self._memo, {}, {}
        for N, bidegrees in shapes.items():
            R[N] = np.linalg.cholesky(np.stack([self.gram(*bd) for bd in bidegrees]),
                                      upper=True)
            # each factor in Fortran order, as chol stores it
            R[N] = R[N].transpose(0, 2, 1).copy().transpose(0, 2, 1)
            Rinv[N] = np.linalg.inv(R[N])
            for bd, r, r_inv in zip(bidegrees, R[N], Rinv[N]):
                memo.setdefault(("chol", *bd), r)
                memo.setdefault(("chol_inv", *bd), r_inv)
        for keys, A, (N_dst, dst), (N_src, src) in operators:
            for key, w in zip(keys, R[N_dst][dst] @ A @ Rinv[N_src][src]):
                memo.setdefault(key, w)
        return shapes

    def lstsq(self, src, blocks):
        """Minimal-norm least squares in the Gram geometry.

        blocks is a list of (kind, b): the structure operator A = kind
        ("del", "dbar" or "ddbar") on Lambda^src and a target b in the
        bidegree A maps to.  Returns (x, residual): the x of least L^2 norm
        among the minimizers of sum ||A x - b||^2, each term measured in
        the Gram norm of its target bidegree, and the square root of that
        minimum.  In the orthonormal frames of the Cholesky factors the
        operators are whitened(kind, *src) and the targets R_dst b, so one
        Euclidean lstsq solves it."""
        p, q = src
        At = np.vstack([self.whitened(kind, p, q) for kind, _ in blocks])
        bt = np.concatenate([self.chol(p + _STEPS[kind][0], q + _STEPS[kind][1]) @ b
                             for kind, b in blocks])
        y, *_ = np.linalg.lstsq(At, bt, rcond=None)
        return self.chol_inv(p, q) @ y, float(np.linalg.norm(At @ y - bt))

    def ip(self, u: Form, v: Form) -> complex:
        """L^2_omega inner product, linear in u, antilinear in v."""
        if u.bidegree != v.bidegree:
            raise DegreeError("inner product requires equal bidegrees")
        G = self.gram(u.p, u.q)
        return complex(np.conj(v.coeffs) @ (G @ u.coeffs))

    def norm(self, u: Form) -> float:
        val = self.ip(u, u)
        return math.sqrt(max(val.real, 0.0))

    # -- integration ---------------------------------------------------------

    @property
    def _vol_unit(self):
        # integral of the canonical basis (n,n)-covector e_vol over the
        # unit-volume model: tau = i^{n^2} e_vol integrates to 1
        return (1j) ** (-(self.n**2))

    def _node_product(self, forms):
        """(slabs, bidegree) of the pointwise wedge f_1 ^ ... ^ f_k: per
        slab in node order, its values at the slab's nodes, shape (Y,
        struct_dim); each form is evaluated once (FormComplex.evaluate)."""
        cx = self.complex
        bds = list(accumulate(f.bidegree for f in forms))

        def slabs():
            for values in zip(*map(cx.evaluate, forms)):
                product = values[0]
                for bd, f, v in zip(bds, forms[1:], values[1:]):
                    product = wedge_values(cx.catalog, bd, f.bidegree, product, v)
                yield product

        return slabs(), bds[-1]

    def integrate_product(self, forms, scale=1.0) -> complex:
        """Exact integral of scale * f_1 ^ ... ^ f_k without intermediate
        Galerkin truncation: pointwise wedge on the quadrature grid.

        The product must have total bidegree (n,n); the grid is exact for up
        to four truncated-mode factors (more when degrees permit)."""
        slabs, bd = self._node_product(forms)
        if (bd.p, bd.q) != (self.n, self.n):
            raise DegreeError(f"product bidegree {tuple(bd)} is not (n,n)")
        total = sum(values[:, 0].sum() for values in slabs)
        return complex(total / self.complex.n_nodes * self._vol_unit * scale)

    def volume(self) -> float:
        return self.integrate_product([self.omega] * self.n, 1.0 / math.factorial(self.n)).real

    # -- omega powers ----------------------------------------------------------

    def omega_power(self, k: int) -> Form:
        """omega_k = omega^k / k!; the (0,0) unit form for k = 0."""
        if not (0 <= k <= self.n):
            raise DegreeError(f"omega power {k} out of range 0..{self.n}")
        cat = self.complex.catalog
        if k == 0:
            u = zero_form(cat, 0, 0)
            u.coeffs[cat.flat_index(cat.zero_mode, (), ())] = 1.0
            return u
        u = self.omega
        for _ in range(k - 1):
            u = wedge(u, self.omega)
        return (1.0 / math.factorial(k)) * u

    # -- pairing and Hodge star ---------------------------------------------

    def star_matrix(self, p, q):
        """Matrix of the complex-linear Hodge star Lambda^{p,q} ->
        Lambda^{n-q,n-p}, defined through the discrete pairing identity
        integral(t ^ star u) = <<t, conj(u)>> for all t in Lambda^{q,p}.

        The (q,p) x (n-q,n-p) pairing is a unit signed permutation:
        e_m dz^I dzbar^J pairs only with e_{-m} dz^{I^c} dzbar^{J^c}, to the
        sign of wedge_table times _vol_unit.  So the star is a row scatter,
        divided by those pairings, of a column gather of gram(q, p)^T."""

        def build():
            cat = self.complex.catalog
            n = self.n
            index, sign = cat.conj_permutation(q, p)
            # G(q,p)^T times the conjugation (p,q) -> (q,p)
            rhs = self.gram(q, p).T[:, index] * sign
            # the table lists the (q,p) structs in order, each with its one
            # complement s2
            _, s2, pairing, _ = np.array(
                cat.wedge_table(Bidegree(q, p), Bidegree(n - q, n - p))).T
            cols = (cat.mode_neg_index()[:, None] * len(s2) + s2).reshape(-1)
            star = np.empty_like(rhs)
            star[cols] = rhs / (np.tile(pairing, cat.n_modes) * self._vol_unit)[:, None]
            return star

        return self._cached(("star", p, q), build)

    def hodge_star(self, u: Form) -> Form:
        S = self.star_matrix(u.p, u.q)
        return Form(
            self.complex.catalog, Bidegree(self.n - u.q, self.n - u.p), S @ u.coeffs
        )

    # -- adjoints ----------------------------------------------------------

    def adjoint_matrix(self, A, src_bd, dst_bd):
        """Gram adjoint G_src^{-1} A^H G_dst of A : Lambda^{src} -> Lambda^{dst}
        by a solve, without the Cholesky factors; <<A u, v>> = <<u, A* v>>."""
        G_src = self.gram(*src_bd)
        G_dst = self.gram(*dst_bd)
        return np.linalg.solve(G_src, A.conj().T @ G_dst)

    def apply_adjoint(self, kind, u: Form) -> Form:
        """The Gram adjoint of the structure operator kind ("del", "dbar"
        or "ddbar") applied to u, into the bidegree kind maps from: as
        R_src^{-1} W^H R_dst u for W = whitened(kind, src), three products
        with a vector.  Below degree 0 Bidegree raises DegreeError."""
        dp, dq = _STEPS[kind]
        src = Bidegree(u.p - dp, u.q - dq)
        W = self.whitened(kind, *src)
        return Form(self.complex.catalog, src, self.chol_inv(*src) @ (
            W.conj().T @ (self.chol(u.p, u.q) @ u.coeffs)))

    # -- Lefschetz operator and primitivity -----------------------------------

    def lefschetz_matrix(self, p, q):
        """Matrix of L_omega = omega ^ . : Lambda^{p,q} -> Lambda^{p+1,q+1}."""

        def build():
            cat = self.complex.catalog
            cols = []
            for i in range(cat.dim(p, q)):
                e = zero_form(cat, p, q)
                e.coeffs[i] = 1.0
                cols.append(wedge(self.omega, e).coeffs)
            return np.array(cols).T

        return self._cached(("lefschetz", p, q), build)

    def is_primitive(self, u: Form):
        """(verdict, residual): true iff ||L*_omega u|| <= 1e-10 ||u||, with
        L* u = R_src^{-1} R_src^{-H} L^H G u through the Cholesky factor
        R_src of the source Gram."""
        if u.p == 0 or u.q == 0:
            return True, 0.0
        src = (u.p - 1, u.q - 1)
        Rinv = self.chol_inv(*src)
        lu = Form(self.complex.catalog, Bidegree(*src), Rinv @ (Rinv.conj().T @ (
            self.lefschetz_matrix(*src).conj().T @ (self.gram(u.p, u.q) @ u.coeffs))))
        nu = self.norm(u)
        res = self.norm(lu)
        return res <= PRIMITIVE_TOL * max(nu, 1e-300), res


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


@dataclass
class PositivityReport:
    verdict: str  # positive | semi-positive | refuted
    witness: object = None
    margin: float = 0.0
    # True when the verdict holds on the whole torus: a refutation names a
    # point, and a positive or semi-positive verdict needs the Weyl bound
    certified: bool = False

    def __str__(self):
        grade = ("certified, " if self.certified else
                 "" if self.verdict == "refuted" else "nodes only, ")
        return f"{self.verdict} ({grade}margin={self.margin:.3e})"


def _eigenvalue_verdict(smallest, bound, tol):
    """Verdict on Hermitian matrices M(x) from smallest, the (lo, node,
    M(node), max|M|) of _smallest_eigenvalue over every node, with
    tolerance tol.
    A refutation carries (node, eigenvector of lo) and is certified; a
    positive or semi-positive verdict is certified when bound, a lower
    bound of the smallest eigenvalue over the whole torus, passes the same
    test."""
    lo, node, at, _ = smallest
    if lo > tol:
        return PositivityReport("positive", margin=lo, certified=bool(bound > tol))
    if lo >= -tol:
        return PositivityReport("semi-positive", margin=lo, certified=bool(bound >= -tol))
    _, v = np.linalg.eigh(at)
    return PositivityReport("refuted", witness=(node, v[:, 0]), margin=lo, certified=True)


def check_weak_positivity(H: HermitianStructure, u: Form) -> PositivityReport:
    """Weak positivity of a (p,p)-form by pairing against decomposable
    positive (n-p,n-p)-forms, in the bidegrees (0,0), (1,1), (n-1,n-1) and
    (n,n); any other bidegree raises DegreeError.  In (1,1) strong and weak
    positivity coincide.

    Each bidegree reads the mode coefficients c_m of a matrix-valued c(x)
    whose Hermitian forms are the pairings.  A weakly positive form is
    real, so a form whose c(x) deviates from Hermitian at some node by
    more than 1e-9 max|Hermitian part| is refuted; the anti-Hermitian part
    a(x) is formed at the nodes, slab by slab, only when its coefficient
    bound sum_m max|a_m| does not clear that test.  Otherwise the verdict
    is that of the Hermitian part's eigenvalues at the nodes, certified on
    the whole torus by its Weyl bound (_eigenvalue_verdict), with tolerance
    1e-12 max|Hermitian part|; a verdict the bound does not certify is
    refuted, naming the point, by an eigenvalue below -tolerance at a cell
    centre (_centre_refutation)."""
    n, p = H.n, u.p
    cx = H.complex
    if u.p != u.q:
        raise DegreeError("weak-positivity test requires a (p,p)-form")
    k = n - p
    if p == 1:
        # u = i sum_m c_m e_m dz ^ dzbar
        c = -1j * u.coeffs.reshape(-1, n, n)
    elif p == 0 or k == 0:
        # a function, or one times e_vol = i^{-n^2} tau, as 1 x 1 matrices
        c = u.coeffs.reshape(-1, 1, 1) * (H._vol_unit if p else 1.0)
    elif k == 1:
        # pairing is the form M[j,k] = value of u ^ i dz^j ^ dzbar^k: wedge
        # u against every (1,1) struct basis covector at once; it is
        # linear in u, so u's mode coefficients give M's
        cat = cx.catalog
        basis = np.eye(cat.struct_dim(1, 1))
        top = wedge_values(cat, u.bidegree, Bidegree(1, 1),
                           u.coeffs.reshape(cat.n_modes, 1, -1), basis)
        c = (1j * top[..., 0] * H._vol_unit).reshape(-1, n, n)
    else:
        raise DegreeError(f"no weak-positivity certificate in bidegree ({p},{p}) for n={n}")
    h, a = _hermitian_split(cx.catalog, c)
    smallest = _smallest_eigenvalue(list(_node_slabs(cx, h)))
    scale = max(smallest[3], 1e-300)
    # how far the coefficient matrices c(x) are from Hermitian at the nodes;
    # sum_m max|a_m| bounds every entry of a(x), up to the rounding of the
    # node sums, which 1 + 1e-12 covers
    dev = 0.0
    if (1 + 1e-12) * np.abs(a).max(axis=(1, 2)).sum() > 1e-9 * scale:
        dev = max(float(np.abs(M).max()) for M in _node_slabs(cx, a))
    if dev > 1e-9 * scale:
        return PositivityReport("refuted", witness="non-Hermitian coefficients",
                                margin=-dev, certified=True)
    rep = _eigenvalue_verdict(smallest, _weyl_bound(cx.catalog, h)[0], 1e-12 * scale)
    # a verdict at the nodes only is swept at the cell centres
    refuted = None if rep.certified else _centre_refutation(cx, h, -1e-12 * scale)
    if refuted:
        return PositivityReport("refuted", witness=refuted[1:], margin=refuted[0],
                                certified=True)
    return rep
