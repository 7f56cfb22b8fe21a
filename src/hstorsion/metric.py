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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .backends import FormComplex
from .forms import (Bidegree, DegreeError, Form, _Memo, wedge, wedge_values,
                    zero_form)

__all__ = [
    "HermitianStructure",
    "PositivityReport",
    "MetricError",
    "check_weak_positivity",
    "check_strong_positivity_11",
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
    (-1)^(sum I_a + sum I_b) of Jacobi's complementary minors; the entries
    with a <= b, the position among them of each entry's (min, max), and
    the entries with a > b; and for each entry a <= b, the row of
    det h[I_b^c, I_a^c], an entry a' <= b' of the (n-k)-minors, among the
    rows _node_minors keeps of them."""
    tables = []
    for k in range(n + 1):
        sign = np.array([(-1.0) ** sum(I) for I in combinations(range(n), k)])
        C = len(sign)
        a, b = np.divmod(np.arange(C * C), C)
        rows, upper = (C - 1 - a) * C + C - 1 - b, np.flatnonzero(a <= b)
        expand = np.searchsorted(upper, np.minimum(a, b) * C + np.maximum(a, b))
        # _node_minors keeps every entry of h(x) and, from the 2-minors up,
        # the entries a <= b, in the order of upper (C(n, k) = C(n, n - k))
        node = rows[(b * C + a)[upper]]
        tables.append((rows, (sign[a] * sign[b])[:, None], upper, expand,
                       np.flatnonzero(a > b), expand[node] if n - k > 1 else node))
    return tables


@functools.lru_cache(maxsize=None)
def _node_tables(n):
    """For k = 2..n, the Laplace expansion (_laplace_tables) of the minors
    det h[I_a, I_b] with a <= b, read from the rows _node_minors keeps one
    size below: entry, the row of each cofactor, and the terms whose
    cofactor is a lower minor, read as the conjugate of its transpose.
    There are none for k = 2, where every entry of h is kept, and none for
    k = n, whose column (1, ..., n-1) is the last (n-1)-subset."""
    jacobi, tables = _jacobi_tables(n), []
    for k, (entry, cofactor) in enumerate(_laplace_tables(n)[1:], start=2):
        upper = jacobi[k][2]
        entry, cofactor = entry[upper], cofactor[upper]
        lower = np.zeros(cofactor.shape, dtype=bool)
        if k > 2:
            C = math.comb(n, k - 1)
            lower = cofactor // C > cofactor % C
            cofactor = jacobi[k - 1][3][cofactor]
        tables.append((entry, cofactor, lower.nonzero()))
    return tables


def _node_minors(h):
    """det h(x)[I_a, I_b] for the k-subsets I_a <= I_b of range(n) in
    lexicographic order, k = 0..n, of h with shape (X, n, n): rows over the
    nodes, in the order of _jacobi_tables(n)[k][2]; for k = 1 the rows are
    every entry of h (a view when h is node-contiguous, as h_nodes is),
    and det h is the n-minor.  Each size comes from the one below by
    Laplace expansion along the first column (_node_tables)."""
    n, X = h.shape[-1], len(h)
    rows = h.transpose(1, 2, 0).reshape(n * n, X)
    sign = (-1.0) ** np.arange(n)
    minors = [np.ones((1, X), dtype=complex), rows]
    for k, (entry, cofactor, lower) in enumerate(_node_tables(n), start=2):
        # sum_i (-1)^i h[I_i, K_0] det h[I \ I_i, K \ K_0]
        terms = minors[-1][cofactor]
        terms[lower] = np.conj(terms[lower])
        terms *= rows[entry]
        minors.append(np.matmul(sign[:k], terms))
    return minors


def _minor_spectra(h, folds):
    """The grid spectra of det h(x)[I_a, I_b] for every pair (a, b) of
    k-subsets, flattened, k = 0..n, as (C * C, |S_k|) arrays, from the mode
    coefficients h of h(x), shape (n * n, modes): by the discrete
    convolution theorem, each product of the Laplace expansion along the
    first column is a convolution of a 1-mode spectrum with an S_{k-1}
    spectrum, folded onto S_k (folds[k - 1] = frequencies(k)[4])."""
    sign = (-1.0) ** np.arange(len(folds))
    minors = [np.ones((1, 1), dtype=complex)]
    for k, ((entry, cofactor), (order, starts)) in enumerate(
            zip(_laplace_tables(len(folds)), folds), start=1):
        terms = np.matmul((h[entry] * sign[:k, None]).transpose(0, 2, 1),
                          minors[-1][cofactor])
        minors.append(np.add.reduceat(terms.reshape(len(terms), -1)[:, order], starts, axis=1))
    return minors


def _complementary_minors(minors, k):
    """N_k = C_k det h, C_k the k-th compound of A = h^{-T}, as rows over
    the flattened C x C entries (a, b), from the minor spectra by Jacobi:
    det A[I, K] det h = (-1)^(sum I + sum K) det h[I^c, K^c] (see
    _jacobi_tables)."""
    rows, sign = _jacobi_tables(len(minors) - 1)[k][:2]
    return minors[-1 - k][rows] * sign


def _compounds(minors, k):
    """conj(C_k)(x) = conj(N_k)(x) / det h(x) for the entries a <= b of the
    k-subsets, rows over the nodes, from the node minors of _node_minors:
    by Jacobi, entry (a, b) is (-1)^(sum I_a + sum I_b)
    det h[I_b^c, I_a^c] / det h, an upper minor read with no conjugation."""
    n = len(minors) - 1
    _, sign, upper, _, _, node = _jacobi_tables(n)[k]
    values = minors[n - k][node] * sign[upper]
    values /= np.real(minors[n])
    return values


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


def _smallest_eigenvalue(M):
    """(lo, node): the smallest eigenvalue of the Hermitian matrices M(x),
    shape (X, n, n), and the first node among those searched where it is
    attained.

    eigvalsh runs only on a candidate set of nodes, the 64 whose estimate
    is least: the least smallest eigenvalue of the 2 x 2 principal
    submatrices of M(x) (the diagonal when n = 1), an upper bound of the
    smallest eigenvalue by Cauchy interlacing, exact when n = 2.  It gives
    lo.  One Cholesky factorization of M(x) - (lo - delta) I swept across
    the nodes (_positive_above), with delta = 1e-13 max|M|, then proves
    that no node lies below lo - delta.  Until it does, the candidate set
    grows eightfold; once it covers every node, lo is the minimum over all
    of them."""
    diagonal = np.real(np.diagonal(M, axis1=1, axis2=2))
    estimate = diagonal.min(axis=1)
    # max|M|, read from the real diagonal and the upper triangle
    scale = np.abs(diagonal).max()
    for i, j in combinations(range(M.shape[-1]), 2):
        # the smaller eigenvalue of the submatrix on rows i, j, one node row
        # at a time
        off = np.abs(M[:, i, j])
        scale = max(scale, off.max())
        gap = np.hypot(0.5 * (diagonal[:, i] - diagonal[:, j]), off, out=off)
        np.minimum(estimate, 0.5 * (diagonal[:, i] + diagonal[:, j]) - gap, out=estimate)
    delta = 1e-13 * scale
    size = 64
    while True:
        size = min(size, len(M))
        nodes = np.sort(np.argpartition(estimate, size - 1)[:size])
        eigs = np.linalg.eigvalsh(M[nodes]).min(axis=1)
        best = int(np.argmin(eigs))
        lo, node = float(eigs[best]), int(nodes[best])
        if size == len(M) or _positive_above(M, lo - delta):
            return lo, node
        size *= 8


def _hermitian_split(cx: FormComplex, u: Form):
    """(h, a), each shape (modes, n, n), for a (1,1)-form u = i sum_m c_m
    e_m dz ^ dzbar: h_m = (c_m + c_{-m}^H) / 2, the coefficients of the
    Hermitian part of c(x), and a_m = c_m - h_m."""
    n = cx.n
    c = -1j * u.coeffs.reshape(-1, n, n)
    h = c + np.conj(c[cx.catalog.mode_neg_index()]).transpose(0, 2, 1)
    h *= 0.5
    return h, c - h


def _node_values(cx: FormComplex, coeffs):
    """sum_m coeffs_m exp(2 pi i m . x) at every node x, shape (X, n, n),
    for coeffs of shape (modes, n, n): one product with the plane-wave
    matrix, stored node-contiguous (a view of an (n, n, X) array, so each
    entry's node values form one row)."""
    n = cx.n
    values = coeffs.reshape(-1, n * n).T @ cx.eval_matrix().T
    return values.reshape(n, n, -1).transpose(2, 0, 1)


def _whiten_plan(cx: FormComplex):
    """Per complex, the batches of HermitianStructure.whiten_all: the
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
    h(x) - max(floor, 0) I is positive definite at every node, which one
    Cholesky sweep decides.  Immutable after construction; Gram, star, adjoint and
    the other derived matrices are cached per bidegree in one memo.
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
        self._herm, self._anti = _hermitian_split(complex_, omega)
        if 2 * np.abs(self._anti).max() > 1e-12 * max(1.0, np.abs(omega.coeffs).max()):
            raise MetricError("metric form is not real")
        # h(x) at every quadrature node, shape (X, n, n), node-contiguous
        self.h_nodes = _node_values(complex_, self._herm)
        floor = max(floor, 0.0)
        if not self.positive_above(floor):
            raise MetricError(
                f"metric not positive definite above {floor:.3e}" if floor else
                f"metric not positive definite: min eigenvalue {self.positivity_margin:.3e}")

    # -- pointwise data ----------------------------------------------------

    def positive_above(self, c) -> bool:
        """True when h(x) - c I is positive definite at every node, decided
        by one Cholesky factorization swept across the nodes, each step one
        operation on whole rows of node values (see _positive_above)."""
        return _positive_above(self.h_nodes, c)

    def _smallest_eigenvalue(self):
        """(margin, node) of _smallest_eigenvalue(h), computed when first
        read."""
        return self._cached("smallest_eigenvalue",
                            lambda: _smallest_eigenvalue(self.h_nodes))

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
            self._herm.reshape(-1, n * n).T,
            [self.complex.frequencies(k)[4] for k in range(1, n + 1)]))

    def _node_minors(self):
        """_node_minors(h(x)), computed when first read."""
        return self._cached("node minors", lambda: _node_minors(self.h_nodes))

    def _spectrum(self, k, compound):
        """The Fourier coefficients (1 / X) sum_x f(x) exp(-2 pi i s . x),
        shape (C * C, |S|), once per metric, of f = N_k, a polynomial of
        degree n - k in h(x), at all s of frequencies(n - k), or with
        compound of f = conj(C_k) at the s of frequencies(n - k + 2) that
        a Gram (k, q) reads.

        N_k is read from the minor spectra, with no node values.
        conj(C_0) is the constant 1.  For k >= 1, conj(C_k)(x) is formed
        at the nodes from the upper node minors (_compounds) and
        transformed.  It is Hermitian: the entry (b, a) at s is the
        conjugate of (a, b) at -s, so only the entries a <= b are formed
        and transformed."""

        def build():
            if not compound:
                return _complementary_minors(self._minor_spectra(), k)
            frequencies = self.complex.frequencies(self.n - k + 2)
            if not k:
                # zero is the first frequency of every set
                spectrum = np.zeros((1, len(frequencies[0])), dtype=complex)
                spectrum[0, 0] = 1.0
                return spectrum
            _, _, _, expand, lower, _ = _jacobi_tables(self.n)[k]
            values = _compounds(self._node_minors(), k)
            transform = self.complex.grid_transform(values, frequencies)
            spectrum = (transform / values.shape[1])[expand]
            spectrum[lower] = np.conj(spectrum[lower][:, frequencies[2]])
            return spectrum

        return self._cached(("spectrum", k, compound), build)

    # -- Gram matrices -------------------------------------------------------

    def gram(self, p, q):
        """L^2 Gram matrix G with <<u, v>> = v^H G u in the basis order.

        The (i, j) mode block is the grid Fourier coefficient at m_i - m_j
        of the pointwise pairing Q(x) = conj(C_p(x)) (x) N_q(x), exact for
        the 4 max|m| + 1 grid: by the discrete convolution theorem, the sum
        of N_q^(m) (x) conj(C_p)^(m_i - m_j - m) over the few m where
        N_q^(m) != 0.  For p > q it is gram(q, p) under conjugation."""

        def build():
            cat = self.complex.catalog
            if p > q:
                # <<conj u, conj v>> = conj <<u, v>>
                K = cat.conj_permutation(q, p)
                return K @ np.conj(self.gram(q, p)) @ K.T
            nh, na = math.comb(self.n, p), math.comb(self.n, q)
            S = nh * na
            _, index = self.complex.mode_differences()
            shifts = self.complex.frequencies(self.n - p + 2)[3][self.n - q]
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

    def integrate_product(self, forms, scale=1.0) -> complex:
        """Exact integral of scale * f_1 ^ ... ^ f_k without intermediate
        Galerkin truncation: pointwise wedge on the quadrature grid.

        The product must have total bidegree (n,n); the grid is exact for up
        to four truncated-mode factors (more when degrees permit)."""
        cx = self.complex
        cat = cx.catalog
        bd = Bidegree(0, 0)
        for f in forms:
            bd = bd + f.bidegree
        if (bd.p, bd.q) != (self.n, self.n):
            raise DegreeError(f"product bidegree {tuple(bd)} is not (n,n)")
        vals = cx.evaluate(forms[0])
        cur_bd = forms[0].bidegree
        for f in forms[1:]:
            vals = wedge_values(cat, cur_bd, f.bidegree, vals, cx.evaluate(f))
            cur_bd = cur_bd + f.bidegree
        return complex(vals[:, 0].mean() * self._vol_unit * scale)

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

    def pairing_matrix(self, p, q):
        """B with B[i,c] = integral of e_i^{(p,q)} ^ e_c^{(n-p,n-q)}."""

        def build():
            cat = self.complex.catalog
            n = self.n
            table = cat.wedge_table(Bidegree(p, q), Bidegree(n - p, n - q))
            M = cat.n_modes
            S1 = cat.struct_dim(p, q)
            S2 = cat.struct_dim(n - p, n - q)
            neg = cat.mode_neg_index()
            B = np.zeros((M * S1, M * S2), dtype=complex)
            for s1, s2, sign, _ in table:
                for mi in range(M):
                    B[mi * S1 + s1, neg[mi] * S2 + s2] = sign * self._vol_unit
            return B

        return self._cached(("pairing", p, q), build)

    def star_matrix(self, p, q):
        """Matrix of the complex-linear Hodge star Lambda^{p,q} ->
        Lambda^{n-q,n-p}, defined through the discrete pairing identity
        integral(t ^ star u) = <<t, conj(u)>> for all t in Lambda^{q,p}."""
        # B: (q,p) x (n-q,n-p) pairing; K: conjugation (p,q) -> (q,p)
        return self._cached(("star", p, q), lambda: np.linalg.solve(
            self.pairing_matrix(q, p),
            self.gram(q, p).T @ self.complex.catalog.conj_permutation(p, q)))

    def hodge_star(self, u: Form) -> Form:
        S = self.star_matrix(u.p, u.q)
        return Form(
            self.complex.catalog, Bidegree(self.n - u.q, self.n - u.p), S @ u.coeffs
        )

    # -- adjoints ----------------------------------------------------------

    def adjoint_matrix(self, A, src_bd, dst_bd):
        """Gram adjoint of A : Lambda^{src} -> Lambda^{dst}, i.e.
        G_src^{-1} A^H G_dst; exact discrete adjointness <<A u, v>> = <<u, A* v>>."""
        G_src = self.gram(*src_bd)
        G_dst = self.gram(*dst_bd)
        return np.linalg.solve(G_src, A.conj().T @ G_dst)

    def del_adjoint(self, p, q):
        """Adjoint of del : Lambda^{p,q} -> Lambda^{p+1,q} (maps back down)."""
        return self._cached(("del*", p, q), lambda: self.adjoint_matrix(
            self.complex.del_matrix(p, q), (p, q), (p + 1, q)))

    def dbar_adjoint(self, p, q):
        return self._cached(("dbar*", p, q), lambda: self.adjoint_matrix(
            self.complex.dbar_matrix(p, q), (p, q), (p, q + 1)))

    def ddbar_adjoint(self, p, q):
        return self._cached(("ddbar*", p, q), lambda: self.adjoint_matrix(
            self.complex.ddbar_matrix(p, q), (p, q), (p + 1, q + 1)))

    def _apply_adjoint(self, kind, u: Form) -> Form:
        """The Gram adjoint of kind applied to u, as R_src^{-1} W^H R_dst u
        for W = whitened(kind, src): three products with a vector, on the
        operators a Laplacian on src reads."""
        dp, dq = _STEPS[kind]
        src = Bidegree(u.p - dp, u.q - dq)
        W = self.whitened(kind, *src)
        return Form(self.complex.catalog, src, self.chol_inv(*src) @ (
            W.conj().T @ (self.chol(u.p, u.q) @ u.coeffs)))

    def apply_del_adjoint(self, u: Form) -> Form:
        if u.p == 0:
            raise DegreeError("del* undefined below (1,0)")
        return self._apply_adjoint("del", u)

    def apply_dbar_adjoint(self, u: Form) -> Form:
        if u.q == 0:
            raise DegreeError("dbar* undefined below (0,1)")
        return self._apply_adjoint("dbar", u)

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
        """(verdict, residual): true iff ||L*_omega u|| <= 1e-10 ||u||."""
        if u.p == 0 or u.q == 0:
            return True, 0.0
        Lstar = self.adjoint_matrix(
            self.lefschetz_matrix(u.p - 1, u.q - 1), (u.p - 1, u.q - 1), (u.p, u.q)
        )
        lu = Form(self.complex.catalog, Bidegree(u.p - 1, u.q - 1), Lstar @ u.coeffs)
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
    certified: bool = False  # True when backed by an exact eigenvalue test

    def __str__(self):
        grade = "certified, " if self.certified else ""
        return f"{self.verdict} ({grade}margin={self.margin:.3e})"


def check_strong_positivity_11(H: HermitianStructure, u: Form) -> PositivityReport:
    """Exact eigenvalue test for (1,1)-forms, where strong and weak positivity
    coincide.  For u = H.omega itself it reads H's Hermitian split, node
    matrices and smallest eigenvalue instead of forming them again."""
    if (u.p, u.q) != (1, 1):
        raise DegreeError("strong-positivity test requires bidegree (1,1)")
    if u is H.omega:
        a, herm, smallest = H._anti, H.h_nodes, H._smallest_eigenvalue()
    else:
        h, a = _hermitian_split(H.complex, u)
        herm, smallest = _node_values(H.complex, h), None
    # how far the coefficient matrices c(x) are from Hermitian at the nodes
    dev = float(np.abs(_node_values(H.complex, a)).max())
    scale = max(np.abs(herm).max(), 1e-300)
    if dev > 1e-9 * scale:
        return PositivityReport("refuted", witness="non-Hermitian coefficients",
                                margin=-dev, certified=True)
    return _eigenvalue_verdict(herm, smallest)


def _eigenvalue_verdict(M, smallest=None):
    """Certified verdict on Hermitian matrices M, shape (X, n, n), from the
    smallest eigenvalue over every node (_smallest_eigenvalue(M) unless
    given as smallest), with tolerance 1e-12 times the largest entry; a
    refutation carries (node, eigenvector of that eigenvalue)."""
    lo, node = smallest or _smallest_eigenvalue(M)
    tol = 1e-12 * max(np.abs(M).max(), 1e-300)
    if lo > tol:
        return PositivityReport("positive", margin=lo, certified=True)
    if lo >= -tol:
        return PositivityReport("semi-positive", margin=lo, certified=True)
    _, v = np.linalg.eigh(M[node])
    return PositivityReport("refuted", witness=(node, v[:, 0]), margin=lo, certified=True)


def check_weak_positivity(H: HermitianStructure, u: Form) -> PositivityReport:
    """Weak positivity of a (p,p)-form by pairing against decomposable
    positive (n-p,n-p)-forms, decided by an exact certificate in the
    bidegrees (0,0), (1,1), (n-1,n-1) and (n,n); any other bidegree raises
    DegreeError.
    """
    n = H.n
    p = u.p
    if u.p != u.q:
        raise DegreeError("weak-positivity test requires a (p,p)-form")
    k = n - p
    if p == 0 or k == 0:
        # a function, or a function times e_vol = i^{-n^2} tau
        vals = np.real(H.complex.evaluate(u)[:, 0] * (H._vol_unit if p else 1.0))
        lo = float(vals.min())
        verdict = "positive" if lo > 0 else ("semi-positive" if lo >= -1e-12 else "refuted")
        return PositivityReport(verdict, margin=lo, certified=True)
    if p == 1:
        return check_strong_positivity_11(H, u)
    if k == 1:
        # pairing is the Hermitian form M[j,k] = value of u ^ i dz^j ^ dzbar^k:
        # wedge u against every (1,1) struct basis covector at once
        vals = H.complex.evaluate(u)[:, None, :]
        basis = np.eye(H.complex.catalog.struct_dim(1, 1))
        top = wedge_values(H.complex.catalog, u.bidegree, Bidegree(1, 1), vals, basis)
        M = (1j * top[..., 0] * H._vol_unit).reshape(-1, n, n)
        M = 0.5 * (M + np.conj(np.swapaxes(M, 1, 2)))
        return _eigenvalue_verdict(M)
    raise DegreeError(f"no weak-positivity certificate in bidegree ({p},{p}) for n={n}")
