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

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.linalg

from .backends import FormComplex
from .forms import (Bidegree, DegreeError, Form, _Memo, conjugate, wedge,
                    wedge_values, zero_form)

__all__ = [
    "HermitianStructure",
    "PositivityReport",
    "MetricError",
    "check_weak_positivity",
    "check_strong_positivity_11",
]

PRIMITIVE_TOL = 1e-10


class MetricError(ValueError):
    """Raised for non-positive metrics or incompatible inputs."""


class HermitianStructure(_Memo):
    """A positive Hermitian metric on a FormComplex.

    Built either from an n x n constant Hermitian matrix or from a (1,1)
    metric form living on the complex.  Immutable after construction; Gram,
    star, adjoint and the other derived matrices are cached per bidegree in
    one memo.
    """

    def __init__(self, complex_: FormComplex, h=None, omega: Form | None = None):
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
        reality = conjugate(omega) - omega
        if np.abs(reality.coeffs).max() > 1e-12 * max(1.0, np.abs(omega.coeffs).max()):
            raise MetricError("metric form is not real")
        self._h_nodes, _ = _hermitian_coefficient_matrix(complex_, omega)
        eigs = np.linalg.eigvalsh(self._h_nodes)
        self.positivity_margin = float(eigs.min())
        if self.positivity_margin <= 0:
            raise MetricError(
                f"metric not positive definite: min eigenvalue {self.positivity_margin:.3e}"
            )

    # -- pointwise data ----------------------------------------------------

    @property
    def h_nodes(self):
        """h(x) at every quadrature node, shape (X, n, n)."""
        return self._h_nodes

    def _inverse_and_volume(self):
        """A = h^{-T} and det h (real) at every node, once per metric."""
        return self._cached("_inverse_and_volume", lambda: (
            np.ascontiguousarray(np.swapaxes(np.linalg.inv(self._h_nodes), 1, 2)),
            np.real(np.linalg.det(self._h_nodes))))

    def _compound(self, k):
        """The k-th compound of A = h^{-T} at every node, shape (X, C, C):
        C[x, a, b] = det A(x)[I_a, I_b] over the k-subsets I_a of range(n)
        in lexicographic order.  Shared by the holomorphic (k = p) and the
        antiholomorphic (k = q) factor of every bidegree."""

        def build():
            A, deth = self._inverse_and_volume()
            n = self.n
            if k == 0:
                return np.ones((len(A), 1, 1), dtype=complex)
            if k == 1:
                return A
            if k == n:
                return np.asarray(1.0 / deth, dtype=complex)[:, None, None]
            if k == n - 1:
                # Jacobi's complementary minors: the a-th (n-1)-subset omits
                # c_a, and det (h^{-1})[K, I] = (-1)^(i+k) h[i, k] / det h
                # for K, I omitting k, i
                c = np.arange(n - 1, -1, -1)
                sign = (-1.0) ** (c[:, None] + c[None, :])
                return self._h_nodes[:, c[:, None], c[None, :]] * (
                    sign / deth[:, None, None])
            idx = np.array(list(combinations(range(n), k)))
            return np.linalg.det(A[:, idx[:, None, :, None], idx[None, :, None, :]])

        return self._cached(("_compound", k), build)

    def _pointwise_pairing(self, p, q):
        """Q(x) with pointwise <u,v>_omega dV_omega = v(x)^H Q(x) u(x) over
        the struct basis, dV_omega = det(h) tau, as an (X, S*S) array whose
        columns run over Q[(I,J),(K,L)] in the order (I, K, J, L).  Read
        once per bidegree, by gram, so it is not kept."""
        # <dz^j, dz^k> = (h^{-1})_{kj}; this orientation makes |omega|^2 = n.
        # Q[(I,J),(K,L)] = conj(det A[I,K]) * det A[J,L] * det h
        _, deth = self._inverse_and_volume()
        X = len(deth)
        Ch = np.conj(self._compound(p)).reshape(X, -1, 1)
        Ca = (self._compound(q) * deth[:, None, None]).reshape(X, 1, -1)
        return (Ch * Ca).reshape(X, -1)

    # -- Gram matrices -------------------------------------------------------

    def gram(self, p, q):
        """L^2 Gram matrix G with <<u, v>> = v^H G u in the basis order.

        The (i, j) mode block is the grid Fourier coefficient of Q at
        m_i - m_j, exact for the 4 max|m| + 1 grid; one product with the
        complex's mode-difference weights computes all of them."""

        def build():
            cat = self.complex.catalog
            nh, na = math.comb(self.n, p), math.comb(self.n, q)
            S = nh * na
            W, index = self.complex.mode_difference_weights()
            half = (W @ self._pointwise_pairing(p, q)).reshape(-1, nh, nh, na, na)
            half = half.transpose(0, 1, 3, 2, 4).reshape(-1, S, S)
            # Q(x) is Hermitian, so its coefficient at -d is the conjugate
            # transpose of the one at d
            table = np.concatenate([half, half.conj().transpose(0, 2, 1)])
            MS = cat.n_modes * S
            G = table[index].transpose(0, 2, 1, 3).reshape(MS, MS)
            return 0.5 * (G + G.conj().T)

        return self._cached(("gram", p, q), build)

    def chol(self, p, q):
        """Upper-triangular R with gram = R^H R."""
        return self._cached(("chol", p, q), lambda: scipy.linalg.cholesky(
            self.gram(p, q), lower=False))

    def lstsq(self, src, blocks):
        """Minimal-norm least squares in the Gram geometry.

        blocks is a list of (A, dst, b) with A : Lambda^src -> Lambda^dst.
        Returns (x, residual): the x of least L^2 norm among the minimizers
        of sum ||A x - b||^2, each term measured in the Gram norm of its
        dst, and the square root of that minimum.  Both norms are whitened
        by the Cholesky factors, so one Euclidean lstsq solves it."""
        Rs = self.chol(*src)
        Rs_inv = scipy.linalg.solve_triangular(Rs, np.eye(Rs.shape[0]), lower=False)
        At = np.vstack([self.chol(*dst) @ A @ Rs_inv for A, dst, _ in blocks])
        bt = np.concatenate([self.chol(*dst) @ b for _, dst, b in blocks])
        y, *_ = np.linalg.lstsq(At, bt, rcond=None)
        x = scipy.linalg.solve_triangular(Rs, y, lower=False)
        return x, float(np.linalg.norm(At @ y - bt))

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

    def integrate_top(self, u: Form) -> complex:
        """Integral of an (n,n)-form."""
        if (u.p, u.q) != (self.n, self.n):
            raise DegreeError("integrate_top requires an (n,n)-form")
        cat = self.complex.catalog
        zero_mode = tuple([0] * len(cat.modes[0]))
        c0 = u.coeffs[cat.flat_index(zero_mode, tuple(range(1, self.n + 1)),
                                     tuple(range(1, self.n + 1)))]
        return complex(c0 * self._vol_unit)

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
            zero_mode = tuple([0] * len(cat.modes[0]))
            u.coeffs[cat.flat_index(zero_mode, (), ())] = 1.0
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

    def apply_del_adjoint(self, u: Form) -> Form:
        if u.p == 0:
            raise DegreeError("del* undefined below (1,0)")
        return Form(
            self.complex.catalog,
            Bidegree(u.p - 1, u.q),
            self.del_adjoint(u.p - 1, u.q) @ u.coeffs,
        )

    def apply_dbar_adjoint(self, u: Form) -> Form:
        if u.q == 0:
            raise DegreeError("dbar* undefined below (0,1)")
        return Form(
            self.complex.catalog,
            Bidegree(u.p, u.q - 1),
            self.dbar_adjoint(u.p, u.q - 1) @ u.coeffs,
        )

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
    verdict: str  # positive | semi-positive | refuted | inconclusive
    witness: object = None
    samples_used: int = 0
    margin: float = 0.0
    certified: bool = False  # True when backed by an exact eigenvalue test

    def __str__(self):
        grade = "certified" if self.certified else "sampling"
        return (
            f"{self.verdict} ({grade}, margin={self.margin:.3e}, "
            f"samples={self.samples_used})"
        )


def _pairing_values(H: HermitianStructure, u: Form, alphas):
    """Pointwise value of u ^ i a_1 ^ abar_1 ^ ... relative to tau at every
    quadrature node; alphas is a (k, n) complex array of (1,0) covectors."""
    cx = H.complex
    cat = cx.catalog
    vals = cx.evaluate(u)
    cur_bd = u.bidegree
    for a in alphas:
        # i a ^ abar as a constant (1,1) struct coefficient array, whose
        # (j,k) struct order is the row-major order of the outer product
        c = (1j * np.outer(a, np.conj(a))).reshape(-1)
        vals = wedge_values(cat, cur_bd, Bidegree(1, 1), vals, c)
        cur_bd = cur_bd + Bidegree(1, 1)
    return np.real(vals[:, 0] * H._vol_unit)


def _hermitian_coefficient_matrix(cx: FormComplex, u: Form):
    """For a (1,1)-form u = i sum c_{jk} dz^j^dzbar^k, the Hermitian part of
    the matrix c(x) at every node, shape (X, n, n), and the largest
    deviation of c(x) from it."""
    vals = cx.evaluate(u).reshape(-1, cx.n, cx.n)
    c = -1j * vals
    herm = 0.5 * (c + np.conj(np.swapaxes(c, 1, 2)))
    dev = np.abs(c - herm).max()
    return herm, float(dev)


def check_strong_positivity_11(H: HermitianStructure, u: Form) -> PositivityReport:
    """Exact eigenvalue test for (1,1)-forms, where strong and weak positivity
    coincide."""
    if (u.p, u.q) != (1, 1):
        raise DegreeError("strong-positivity test requires bidegree (1,1)")
    herm, dev = _hermitian_coefficient_matrix(H.complex, u)
    scale = max(np.abs(herm).max(), 1e-300)
    if dev > 1e-9 * scale:
        return PositivityReport("refuted", witness="non-Hermitian coefficients",
                                margin=-dev, certified=True)
    eigs = np.linalg.eigvalsh(herm)
    lo = float(eigs.min())
    tol = 1e-12 * scale
    if lo > tol:
        return PositivityReport("positive", margin=lo, certified=True)
    if lo >= -tol:
        return PositivityReport("semi-positive", margin=lo, certified=True)
    # witness: eigenvector of the most negative eigenvalue at its node
    node = int(np.argmin(eigs.min(axis=-1)))
    w, v = np.linalg.eigh(herm[node])
    alpha = v[:, 0]
    return PositivityReport("refuted", witness=(node, alpha), margin=lo, certified=True)


def check_weak_positivity(
    H: HermitianStructure, u: Form, samples: int = 512, seed: int = 0
) -> PositivityReport:
    """Weak positivity of a (p,p)-form by pairing against decomposable
    positive (n-p,n-p)-forms.

    Refutation is sound (a witness pairing is strictly negative); positive /
    semi-positive verdicts are sampling-grade except in bidegrees (1,1) and
    (n-1,n-1), where an exact eigenvalue certificate decides.
    """
    n = H.n
    p = u.p
    if u.p != u.q:
        raise DegreeError("weak-positivity test requires a (p,p)-form")
    k = n - p
    if p == 0:
        vals = np.real(H.complex.evaluate(u)[:, 0])
        lo = float(vals.min())
        verdict = "positive" if lo > 0 else ("semi-positive" if lo >= -1e-12 else "refuted")
        return PositivityReport(verdict, margin=lo, certified=True)
    if p == 1:
        rep = check_strong_positivity_11(H, u)
        return rep
    if k == 1:
        # pairing is the Hermitian form M[j,k] = value of u ^ i dz^j ^ dzbar^k:
        # wedge u against every (1,1) struct basis covector at once
        vals = H.complex.evaluate(u)[:, None, :]
        basis = np.eye(H.complex.catalog.struct_dim(1, 1))
        top = wedge_values(H.complex.catalog, u.bidegree, Bidegree(1, 1), vals, basis)
        M = (1j * top[..., 0] * H._vol_unit).reshape(-1, n, n)
        M = 0.5 * (M + np.conj(np.swapaxes(M, 1, 2)))
        eigs = np.linalg.eigvalsh(M)
        lo = float(eigs.min())
        scale = max(np.abs(M).max(), 1e-300)
        tol = 1e-12 * scale
        if lo > tol:
            return PositivityReport("positive", margin=lo, certified=True)
        if lo >= -tol:
            return PositivityReport("semi-positive", margin=lo, certified=True)
        node = int(np.argmin(eigs.min(axis=-1)))
        w, v = np.linalg.eigh(M[node])
        return PositivityReport("refuted", witness=(node, v[:, 0]), margin=lo,
                                certified=True)

    # middle bidegrees: deterministic low-discrepancy sampling
    from scipy.stats import qmc

    scale_u = max(np.abs(u.coeffs).max(), 1e-300)
    worst = (np.inf, None)
    count = 0
    # coordinate-axis tuples first
    for axes in combinations(range(n), k):
        alphas = np.eye(n, dtype=complex)[list(axes)]
        vals = _pairing_values(H, u, alphas)
        count += 1
        lo = float(vals.min())
        if lo < worst[0]:
            worst = (lo, alphas)
    sampler = qmc.Halton(d=2 * n * k, scramble=True, seed=seed)
    pts = sampler.random(samples)
    for row in pts:
        z = (2 * row - 1).reshape(k, 2 * n)
        alphas = z[:, :n] + 1j * z[:, n:]
        nrm = np.linalg.norm(alphas, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        alphas = alphas / nrm
        vals = _pairing_values(H, u, alphas)
        count += 1
        lo = float(vals.min())
        if lo < worst[0]:
            worst = (lo, alphas)
    lo = worst[0]
    tol = 1e-12 * scale_u
    if lo < -tol:
        return PositivityReport("refuted", witness=worst[1], margin=lo,
                                samples_used=count)
    if lo > 1e-9 * scale_u:
        return PositivityReport("positive", margin=lo, samples_used=count)
    return PositivityReport("semi-positive", margin=lo, samples_used=count)
