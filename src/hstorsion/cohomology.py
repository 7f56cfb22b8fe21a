"""Bott-Chern, Aeppli and Dolbeault cohomology on a metrized form complex.

Laplacians are assembled from the structure operators and their Gram
adjoints; kernels, Green operators and harmonic projectors come from a
Gram-aware eigendecomposition.  Dimension counts are always computed two
independent ways (harmonic kernel vs quotient ranks) and must agree.  The
quotient ranks depend only on the complex and are counted once per complex;
the spectral data of a Laplacian is computed once per metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .forms import Form
from .metric import HermitianStructure

__all__ = [
    "GramEig",
    "gram_eig",
    "laplacian_bc",
    "laplacian_dbar",
    "green_operator",
    "harmonic_projection",
    "CohomologyTable",
    "cohomology_table",
    "CohomologyMismatch",
]

KERNEL_RCOND = 1e-10


# ---------------------------------------------------------------------------
# Gram-aware spectral decomposition
# ---------------------------------------------------------------------------


@dataclass
class GramEig:
    """Spectral data of a G-self-adjoint PSD operator M.

    eigenvalues: ascending, real,
    kernel_dim: count of eigenvalues below cutoff,
    cutoff: absolute kernel threshold used,
    separation_ok: False when some eigenvalue sits within a factor 100 of
        the cutoff, signalling an unreliable kernel split,
    vectors: orthonormal eigenvectors V of R M R^{-1}, for G = R^H R,
    R, Rinv: the Cholesky factor of G and its inverse.

    pinv (the pseudoinverse vanishing on ker M, the Green operator) and
    kernel_projector (the G-orthogonal projector onto ker M) are formed
    when first read.
    """

    eigenvalues: np.ndarray
    kernel_dim: int
    cutoff: float
    separation_ok: bool
    vectors: np.ndarray
    R: np.ndarray
    Rinv: np.ndarray

    @functools.cached_property
    def pinv(self):
        w, V = self.eigenvalues, self.vectors
        nonzero = ~(w < self.cutoff)
        winv = np.zeros_like(w)
        winv[nonzero] = 1.0 / w[nonzero]
        return self.Rinv @ (V * winv) @ V.conj().T @ self.R

    @functools.cached_property
    def kernel_projector(self):
        Vk = self.vectors[:, self.eigenvalues < self.cutoff]
        return self.Rinv @ Vk @ Vk.conj().T @ self.R


def gram_eig(M, R, Rinv, rcond=KERNEL_RCOND) -> GramEig:
    """Diagonalize a G-self-adjoint positive semidefinite matrix M.

    R is the upper Cholesky factor of the Hermitian positive definite G,
    G = R^H R, and Rinv its inverse, as HermitianStructure.chol and
    chol_inv return them.  Conjugating by R turns M into an honest
    Hermitian matrix, so eigh applies."""
    Mt = R @ M @ Rinv
    Mt = 0.5 * (Mt + Mt.conj().T)
    w, V = np.linalg.eigh(Mt)
    scale = max(float(w[-1]), 1.0) if len(w) else 1.0
    cutoff = rcond * scale
    kdim = int((w < cutoff).sum())
    near = (np.abs(w) > cutoff / 100) & (np.abs(w) < cutoff * 100) & (np.abs(w) > 0)
    return GramEig(w, kdim, cutoff, not near.any(), V, R, Rinv)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------


def laplacian_bc(H: HermitianStructure, p, q):
    """Fourth-order Bott-Chern Laplacian on Lambda^{p,q}:

    del* del + dbar* dbar + (del dbar)*(del dbar) + (del dbar)(del dbar)*
      + (del* dbar)*(del* dbar) + (del* dbar)(del* dbar)*
    """
    cx = H.complex
    n = H.n
    N = cx.dims(p, q)
    L = np.zeros((N, N), dtype=complex)
    if p + 1 <= n:
        d = cx.del_matrix(p, q)
        L += H.del_adjoint(p, q) @ d
    if q + 1 <= n:
        db = cx.dbar_matrix(p, q)
        L += H.dbar_adjoint(p, q) @ db
    if p + 1 <= n and q + 1 <= n:
        dd = cx.ddbar_matrix(p, q)
        L += H.ddbar_adjoint(p, q) @ dd
    if p >= 1 and q >= 1:
        dd = cx.ddbar_matrix(p - 1, q - 1)
        L += dd @ H.ddbar_adjoint(p - 1, q - 1)
    if q + 1 <= n and p >= 1:
        # T = del* dbar : (p,q) -> (p,q+1) -> (p-1,q+1)
        T = H.del_adjoint(p - 1, q + 1) @ cx.dbar_matrix(p, q)
        L += H.adjoint_matrix(T, (p, q), (p - 1, q + 1)) @ T
    if p + 1 <= n and q >= 1:
        # S = del* dbar : (p+1,q-1) -> (p+1,q) -> (p,q)
        S = H.del_adjoint(p, q) @ cx.dbar_matrix(p + 1, q - 1)
        L += S @ H.adjoint_matrix(S, (p + 1, q - 1), (p, q))
    return L


def laplacian_dbar(H: HermitianStructure, p, q):
    """Dolbeault Laplacian dbar dbar* + dbar* dbar on Lambda^{p,q}."""
    cx = H.complex
    n = H.n
    N = cx.dims(p, q)
    L = np.zeros((N, N), dtype=complex)
    if q + 1 <= n:
        db = cx.dbar_matrix(p, q)
        L += H.dbar_adjoint(p, q) @ db
    if q >= 1:
        db = cx.dbar_matrix(p, q - 1)
        L += db @ H.dbar_adjoint(p, q - 1)
    return L


_LAPLACIANS = {"bc": laplacian_bc, "dbar": laplacian_dbar}


def green_operator(H: HermitianStructure, p, q, which="bc", rcond=KERNEL_RCOND):
    """GramEig bundle for the chosen Laplacian on Lambda^{p,q}; its pinv is
    the Green operator (inverse off the harmonic space, zero on it).
    Computed once per metric and key."""
    return H._cached(("green", p, q, which, rcond), lambda: gram_eig(
        _LAPLACIANS[which](H, p, q), H.chol(p, q), H.chol_inv(p, q), rcond))


def harmonic_projection(H: HermitianStructure, u: Form, which="bc"):
    """G-orthogonal projection of u onto the harmonic space of the chosen
    Laplacian in its bidegree."""
    ge = green_operator(H, u.p, u.q, which)
    return Form(H.complex.catalog, u.bidegree, ge.kernel_projector @ u.coeffs)


# ---------------------------------------------------------------------------
# dimension counts
# ---------------------------------------------------------------------------


def _rank(A, rcond=KERNEL_RCOND):
    if A is None or A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int((s > rcond * s[0]).sum())


def _stack_kernel_dim(mats, N, rcond=KERNEL_RCOND):
    """dim of the joint kernel of the given operators on a space of dim N."""
    mats = [m for m in mats if m is not None and m.size]
    if not mats:
        return N
    return N - _rank(np.vstack(mats), rcond)


@dataclass
class CohomologyTable:
    """Hodge-type dimension table over all bidegrees.

    entries[(p,q)] = {"dbar": .., "bc": .., "aeppli": ..}; the cross_checks
    list records (name, p, q, kernel_count, rank_count) for every comparison
    performed (all pairs must agree or construction raises); unreliable
    lists the (name, p, q) whose kernel split has an eigenvalue within a
    factor 100 of the cutoff (GramEig.separation_ok is False).
    """

    n: int
    entries: dict = field(default_factory=dict)
    cross_checks: list = field(default_factory=list)
    unreliable: list = field(default_factory=list)

    def __str__(self):
        lines = ["p q  h_dbar  h_bc  h_aeppli"]
        for r in self.rows():
            lines.append(f"{r['p']} {r['q']}  {r['h_dbar']:6d}  {r['h_bc']:4d}  "
                         f"{r['h_aeppli']:8d}")
        return "\n".join(lines)

    def rows(self):
        for (p, q), e in sorted(self.entries.items()):
            yield {"p": p, "q": q, "h_dbar": e["dbar"], "h_bc": e["bc"],
                   "h_aeppli": e["aeppli"]}


class CohomologyMismatch(RuntimeError):
    """Kernel-count and quotient-rank dimension computations disagree."""


def _kernel_dim(table, H, p, q, which, rcond):
    """Harmonic-space dimension of the chosen Laplacian, recording an
    unreliable kernel split in the table."""
    ge = green_operator(H, p, q, which, rcond)
    if not ge.separation_ok:
        table.unreliable.append((which, p, q))
    return ge.kernel_dim


def _quotient_dims(cx, p, q, rcond):
    """(h_dbar, h_bc, h_aeppli) at (p,q) as quotient ranks of the complex's
    operators, counted once per complex and rcond: dim ker dbar - rank dbar,
    dim ker[del; dbar] - rank del dbar, and dim ker(del dbar) -
    rank[del | dbar]."""

    def build():
        n = cx.n
        N = cx.dims(p, q)
        db = cx.dbar_matrix(p, q) if q + 1 <= n else None
        d_in = cx.del_matrix(p - 1, q) if p >= 1 else None
        db_in = cx.dbar_matrix(p, q - 1) if q >= 1 else None
        dd_in = cx.ddbar_matrix(p - 1, q - 1) if (p >= 1 and q >= 1) else None
        dd = cx.ddbar_matrix(p, q) if (p + 1 <= n and q + 1 <= n) else None
        d = cx.del_matrix(p, q) if p + 1 <= n else None
        h_dbar = _stack_kernel_dim([db], N, rcond) - _rank(db_in, rcond)
        h_bc = _stack_kernel_dim([d, db], N, rcond) - _rank(dd_in, rcond)
        im = [m for m in (d_in, db_in) if m is not None and m.size]
        im_rank = _rank(np.hstack(im), rcond) if im else 0
        return h_dbar, h_bc, _stack_kernel_dim([dd], N, rcond) - im_rank

    return cx._cached(("quotient_dims", p, q, rcond), build)


def cohomology_table(H: HermitianStructure, rcond=KERNEL_RCOND) -> CohomologyTable:
    """Dolbeault, Bott-Chern and Aeppli dimensions at every bidegree.

    h_dbar and h_bc are computed both as harmonic-kernel counts of this
    metric and as quotient ranks of the complex; a disagreement raises
    CohomologyMismatch.  h_aeppli uses the quotient formula
    dim ker(del dbar) - rank[del | dbar]."""
    n = H.n
    table = CohomologyTable(n=n)
    for p in range(n + 1):
        for q in range(n + 1):
            h_dbar_rank, h_bc_rank, h_aeppli = _quotient_dims(H.complex, p, q, rcond)
            h_dbar_ker = _kernel_dim(table, H, p, q, "dbar", rcond)
            table.cross_checks.append(("dbar", p, q, h_dbar_ker, h_dbar_rank))
            if h_dbar_ker != h_dbar_rank:
                raise CohomologyMismatch(
                    f"h_dbar({p},{q}): kernel {h_dbar_ker} vs rank {h_dbar_rank}"
                )

            h_bc_ker = _kernel_dim(table, H, p, q, "bc", rcond)
            table.cross_checks.append(("bc", p, q, h_bc_ker, h_bc_rank))
            if h_bc_ker != h_bc_rank:
                raise CohomologyMismatch(
                    f"h_bc({p},{q}): kernel {h_bc_ker} vs rank {h_bc_rank}"
                )

            table.entries[(p, q)] = {
                "dbar": h_dbar_ker,
                "bc": h_bc_ker,
                "aeppli": h_aeppli,
            }
    return table
