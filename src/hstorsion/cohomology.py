"""Bott-Chern, Aeppli and Dolbeault cohomology on a metrized form complex.

Laplacians are returned whitened, R L R^{-1} for the Cholesky factors R of
the Grams: Hermitian sums of squares of the whitened structure operators.
Every harmonic dimension is counted two independent ways, in one function
(checked_counts): as the kernel of its Laplacian, from eigenvalues alone
with one eigvalsh per dimension, and as a quotient rank of the complex,
counted once per structure; the two must agree.  Each Laplacian is summed
once per metric, and Green operators and harmonic projectors come from one
eigh of it, built once per metric and key, and only by the solvers that
apply one.
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
    "quotient_dims",
    "checked_counts",
    "CohomologyMismatch",
]

# the kernel cutoff of every count, relative to max(largest eigenvalue, 1)
# or to the largest singular value
KERNEL_RCOND = 1e-10


# ---------------------------------------------------------------------------
# Gram-aware spectral decomposition
# ---------------------------------------------------------------------------


@dataclass
class GramEig:
    """Spectral data of a G-self-adjoint PSD operator M, G = R^H R.

    eigenvalues: ascending, real,
    kernel_dim: count of eigenvalues below cutoff,
    cutoff: absolute kernel threshold used,
    separation_ok: False when some eigenvalue sits within a factor 100 of
        the cutoff, signalling an unreliable kernel split,
    vectors: orthonormal eigenvectors V of R M R^{-1},
    R, Rinv: the Cholesky factor of G and its inverse.

    pinv (the pseudoinverse of M vanishing on ker M, the Green operator)
    and kernel_projector (the G-orthogonal projector onto ker M) are formed
    in the coefficient frame when first read.
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


def _kernel_split(w):
    """(kernel_dim, cutoff, separation_ok) of ascending eigenvalues w, over
    the last axis: the cutoff is KERNEL_RCOND * max(largest eigenvalue, 1),
    and a split is unreliable when some nonzero eigenvalue lies within a
    factor 100 of it."""
    cutoff = KERNEL_RCOND * np.maximum(w[..., -1], 1.0)
    c = cutoff[..., None]
    a = np.abs(w)
    near = (a > c / 100) & (a < c * 100) & (a > 0)
    return (w < c).sum(-1), cutoff, ~near.any(-1)


def gram_eig(Lt, R, Rinv) -> GramEig:
    """Diagonalize a G-self-adjoint positive semidefinite M given whitened,
    as the Hermitian Lt = R M R^{-1}, for R the upper Cholesky factor of G,
    G = R^H R, and Rinv its inverse, as HermitianStructure.chol and chol_inv
    return them.  eigh reads only the lower triangle of Lt."""
    w, V = np.linalg.eigh(Lt)
    kdim, cutoff, ok = _kernel_split(w)
    return GramEig(w, int(kdim), float(cutoff), bool(ok), V, R, Rinv)


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------
#
# With G = R^H R on every bidegree, a Laplacian L is G-self-adjoint exactly
# when R L R^{-1} is Hermitian, and in these frames an adjoint is a
# conjugate transpose (HermitianStructure.whitened).  So each Laplacian is
# assembled whitened, as a sum of X^H X and X X^H terms: Hermitian positive
# semidefinite by construction, with no solve.


def _sum_of_squares(up, down):
    """The sum of X^H X over the X in up and of Y Y^H over the Y in down."""
    return sum([X.conj().T @ X for X in up] + [Y @ Y.conj().T for Y in down])


def laplacian_bc(H: HermitianStructure, p, q):
    """R Delta_BC R^{-1} on Lambda^{p,q}, for the fourth-order Bott-Chern
    Laplacian del* del + dbar* dbar + (del dbar)*(del dbar)
    + (del dbar)(del dbar)* + (del* dbar)*(del* dbar) + (del* dbar)(del* dbar)*;
    the cross terms T = del* dbar and S = del* dbar (one bidegree down)
    whiten to D^H B."""
    n, W = H.n, H.whitened
    up, down = [], []
    if p < n:
        up.append(W("del", p, q))
    if q < n:
        up.append(W("dbar", p, q))
    if p < n and q < n:
        up.append(W("ddbar", p, q))
    if p and q:
        down.append(W("ddbar", p - 1, q - 1))
    if p and q < n:
        # T : (p,q) -> (p,q+1) -> (p-1,q+1)
        up.append(W("del", p - 1, q + 1).conj().T @ W("dbar", p, q))
    if p < n and q:
        # S : (p+1,q-1) -> (p+1,q) -> (p,q)
        down.append(W("del", p, q).conj().T @ W("dbar", p + 1, q - 1))
    return _sum_of_squares(up, down)


def laplacian_dbar(H: HermitianStructure, p, q):
    """R Delta_dbar R^{-1} on Lambda^{p,q}, for dbar dbar* + dbar* dbar."""
    return _sum_of_squares([H.whitened("dbar", p, q)] if q < H.n else [],
                           [H.whitened("dbar", p, q - 1)] if q else [])


_LAPLACIANS = {"bc": laplacian_bc, "dbar": laplacian_dbar}


def _laplacian(H: HermitianStructure, which, p, q):
    """The whitened Laplacian which ("bc" or "dbar") on Lambda^{p,q},
    summed once per metric and kept in its memo, where the eigenvalue
    counts and the Green operators read it."""
    return H._cached(("laplacian", which, p, q), lambda: _LAPLACIANS[which](H, p, q))


def green_operator(H: HermitianStructure, p, q, which="bc"):
    """GramEig bundle for the chosen Laplacian on Lambda^{p,q}; its pinv is
    the Green operator (inverse off the harmonic space, zero on it).
    Computed once per metric and key."""
    return H._cached(("green", p, q, which), lambda: gram_eig(
        _laplacian(H, which, p, q), H.chol(p, q), H.chol_inv(p, q)))


def harmonic_projection(H: HermitianStructure, u: Form, which="bc"):
    """G-orthogonal projection of u onto the harmonic space of the chosen
    Laplacian in its bidegree."""
    ge = green_operator(H, u.p, u.q, which)
    return Form(H.complex.catalog, u.bidegree, ge.kernel_projector @ u.coeffs)


# ---------------------------------------------------------------------------
# dimension counts
# ---------------------------------------------------------------------------


def _rank(A):
    if A is None or A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] == 0:
        return 0
    return int((s > KERNEL_RCOND * s[0]).sum())


def _stack_kernel_dim(mats, N):
    """dim of the joint kernel of the given operators on a space of dim N."""
    mats = [m for m in mats if m is not None and m.size]
    if not mats:
        return N
    return N - _rank(np.vstack(mats))


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


def quotient_dims(cx, p, q):
    """(h_dbar, h_bc, h_aeppli) at (p,q) as quotient ranks of the complex's
    operators, counted once per structure: dim ker dbar - rank dbar,
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
        h_dbar = _stack_kernel_dim([db], N) - _rank(db_in)
        h_bc = _stack_kernel_dim([d, db], N) - _rank(dd_in)
        im = [m for m in (d_in, db_in) if m is not None and m.size]
        im_rank = _rank(np.hstack(im)) if im else 0
        return h_dbar, h_bc, _stack_kernel_dim([dd], N) - im_rank

    return cx._cached(("quotient_dims", p, q), build)


def checked_counts(H: HermitianStructure, keys):
    """[(kernel_dim, separation_ok, rank)] of the Laplacians (which, p, q) of
    keys, in their order: the kernel count of the Laplacian from its
    eigenvalues alone, with one eigvalsh per dimension of every key of that
    dimension, and the quotient rank of the complex it must equal.  The
    first key whose two counts differ raises CohomologyMismatch."""
    by_dim = {}
    for key in keys:
        by_dim.setdefault(H.complex.dims(*key[1:]), []).append(key)
    split = {}
    for group in by_dim.values():
        kdim, _, separated = _kernel_split(np.linalg.eigvalsh(
            np.stack([_laplacian(H, which, p, q) for which, p, q in group])))
        split.update(zip(group, zip(kdim.tolist(), separated.tolist())))
    out = []
    for which, p, q in keys:
        kernel, separated = split[(which, p, q)]
        rank = quotient_dims(H.complex, p, q)[("dbar", "bc").index(which)]
        if kernel != rank:
            raise CohomologyMismatch(f"h_{which}({p},{q}): kernel {kernel} vs rank {rank}")
        out.append((kernel, separated, rank))
    return out


def cohomology_table(H: HermitianStructure) -> CohomologyTable:
    """Dolbeault, Bott-Chern and Aeppli dimensions at every bidegree.

    h_dbar and h_bc are computed both as harmonic-kernel counts of this
    metric and as quotient ranks of the complex (checked_counts, after one
    whiten_all); a disagreement raises CohomologyMismatch.  h_aeppli uses
    the quotient formula dim ker(del dbar) - rank[del | dbar].  The table
    reads eigenvalues only and builds no Green operator."""
    n = H.n
    table = CohomologyTable(n=n)
    H.whiten_all()
    keys = [(which, p, q) for p in range(n + 1) for q in range(n + 1)
            for which in ("dbar", "bc")]
    for (which, p, q), (kernel, separated, rank) in zip(keys, checked_counts(H, keys)):
        if not separated:
            table.unreliable.append((which, p, q))
        table.cross_checks.append((which, p, q, kernel, rank))
    for p in range(n + 1):
        for q in range(n + 1):
            h_dbar, h_bc, h_aeppli = quotient_dims(H.complex, p, q)
            table.entries[(p, q)] = {"dbar": h_dbar, "bc": h_bc, "aeppli": h_aeppli}
    return table
