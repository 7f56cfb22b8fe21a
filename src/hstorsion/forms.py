"""Bigraded exterior algebra over an enumerated basis.

A (p,q)-form is a complex coefficient vector over basis elements

    e_mode * dz^{i_1} ^ ... ^ dz^{i_p} ^ dzbar^{j_1} ^ ... ^ dzbar^{j_q}

with strictly increasing multi-indices I, J in {1..n} and a backend-dependent
scalar mode label (the unit label () for invariant complexes, an integer
lattice vector for the Fourier torus).  The basis order is lexicographic on
(mode, I, J) and every operator matrix in the package is expressed in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

__all__ = [
    "Bidegree",
    "BasisIndex",
    "BasisCatalog",
    "Form",
    "DegreeError",
    "merge_sign",
    "wedge_values",
]


class DegreeError(ValueError):
    """Raised for out-of-range or incompatible bidegrees."""


@dataclass(frozen=True, order=True)
class Bidegree:
    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise DegreeError(f"negative bidegree ({self.p},{self.q})")

    def __add__(self, other: "Bidegree") -> "Bidegree":
        return Bidegree(self.p + other.p, self.q + other.q)

    def __iter__(self):
        yield self.p
        yield self.q


@dataclass(frozen=True)
class BasisIndex:
    """One basis element: scalar mode label plus holomorphic and
    antiholomorphic multi-indices (1-based, strictly increasing)."""

    mode: tuple
    holo: tuple
    anti: tuple


def merge_sign(a: tuple, b: tuple):
    """Merge two strictly increasing index tuples.

    Returns (sign, merged) where sign is the parity of the shuffle sorting
    the concatenation a+b, or (0, None) on a repeated index.
    """
    # count inversions between the two sorted blocks
    inversions = 0
    j = 0
    for x in a:
        while j < len(b) and b[j] < x:
            j += 1
        if j < len(b) and b[j] == x:
            return 0, None
        inversions += j
    merged = tuple(sorted(a + b))
    if len(merged) != len(a) + len(b):
        return 0, None
    return (-1 if inversions % 2 else 1), merged


def sort_covectors_sign(holo, anti):
    """Canonicalize an arbitrary covector word (holo list, anti list given in
    wedge order as one sequence holo+anti already split by type is NOT assumed;
    inputs are the holo labels and anti labels in their current wedge order,
    with all holo factors standing before all anti factors).

    Returns (sign, I, J) or (0, None, None) if a covector repeats.
    """
    sign = 1
    for seq in (holo, anti):
        arr = list(seq)
        # insertion sort, tracking parity; lists are tiny
        for i in range(1, len(arr)):
            j = i
            while j > 0 and arr[j - 1] > arr[j]:
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
                sign = -sign
                j -= 1
        if any(arr[i] == arr[i + 1] for i in range(len(arr) - 1)):
            return 0, None, None
        if seq is holo:
            I = tuple(arr)
        else:
            J = tuple(arr)
    return sign, I, J


class _Memo:
    """One keyed cache per object for data derived from immutable state."""

    def __init__(self):
        self._memo = {}

    def _cached(self, key, build):
        """The value stored under key, computed by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


class BasisCatalog(_Memo):
    """Enumerated bases of every Lambda^{p,q} for a fixed dimension and mode
    set, plus the structural (mode-independent) wedge and conjugation data.

    Immutable after construction; all tables are cached.
    """

    def __init__(self, n: int, modes=((),)):
        if n < 1:
            raise DegreeError(f"complex dimension must be >= 1, got {n}")
        super().__init__()
        self.n = n
        modes = [tuple(int(c) for c in m) for m in modes]
        if not modes:
            raise ValueError("mode set must be nonempty")
        neg = {tuple(-c for c in m) for m in modes}
        if neg != set(modes):
            raise ValueError("mode set must be closed under negation")
        self.modes = tuple(sorted(set(modes)))
        self.mode_pos = {m: i for i, m in enumerate(self.modes)}
        self.n_modes = len(self.modes)

    # -- enumeration ---------------------------------------------------

    def check_bidegree(self, p, q):
        if not (0 <= p <= self.n and 0 <= q <= self.n):
            raise DegreeError(f"bidegree ({p},{q}) out of range for n={self.n}")

    def struct_indices(self, p, q):
        """Ordered (I, J) pairs for Lambda^{p,q}, mode factored out."""
        self.check_bidegree(p, q)

        def build():
            idx = [
                (I, J)
                for I in combinations(range(1, self.n + 1), p)
                for J in combinations(range(1, self.n + 1), q)
            ]
            return idx, {s: i for i, s in enumerate(idx)}

        return self._cached(("struct", p, q), build)

    def struct_dim(self, p, q):
        self.check_bidegree(p, q)
        return comb(self.n, p) * comb(self.n, q)

    def dim(self, p, q):
        return self.n_modes * self.struct_dim(p, q)

    def basis(self, p, q):
        """Full ordered basis of Lambda^{p,q} as BasisIndex objects."""
        structs, _ = self.struct_indices(p, q)
        return [
            BasisIndex(m, I, J) for m in self.modes for (I, J) in structs
        ]

    def flat_index(self, mode, I, J, p=None, q=None):
        if p is None:
            p, q = len(I), len(J)
        _, pos = self.struct_indices(p, q)
        return self.mode_pos[tuple(mode)] * self.struct_dim(p, q) + pos[(tuple(I), tuple(J))]

    # -- structural wedge table ----------------------------------------

    def wedge_table(self, bd1: Bidegree, bd2: Bidegree):
        """List of (s1, s2, sign, s_out) for the covector part of the wedge
        Lambda^{bd1} x Lambda^{bd2} -> Lambda^{bd1+bd2}."""
        p, q = bd1.p + bd2.p, bd1.q + bd2.q
        if p > self.n or q > self.n:
            raise DegreeError(
                f"wedge degree overflow: ({bd1.p},{bd1.q})+({bd2.p},{bd2.q}) exceeds n={self.n}"
            )

        def build():
            s1_list, _ = self.struct_indices(bd1.p, bd1.q)
            s2_list, _ = self.struct_indices(bd2.p, bd2.q)
            _, out_pos = self.struct_indices(p, q)
            table = []
            for a, (I1, J1) in enumerate(s1_list):
                for b, (I2, J2) in enumerate(s2_list):
                    sI, I = merge_sign(I1, I2)
                    if sI == 0:
                        continue
                    sJ, J = merge_sign(J1, J2)
                    if sJ == 0:
                        continue
                    # move the J1 block past the I2 block
                    swap = -1 if (len(J1) * len(I2)) % 2 else 1
                    table.append((a, b, sI * sJ * swap, out_pos[(I, J)]))
            return table

        return self._cached(("wedge", *bd1, *bd2), build)

    # -- mode arithmetic -------------------------------------------------

    def mode_sum_index(self):
        """Matrix S with S[i,j] = index of modes[i]+modes[j], or -1 if the sum
        leaves the mode set (Galerkin truncation)."""

        def build():
            M = self.n_modes
            S = np.full((M, M), -1, dtype=int)
            for i, mi in enumerate(self.modes):
                for j, mj in enumerate(self.modes):
                    s = tuple(a + b for a, b in zip(mi, mj))
                    S[i, j] = self.mode_pos.get(s, -1)
            return S

        return self._cached("mode_sum", build)

    def mode_neg_index(self):
        return self._cached("mode_neg", lambda: np.array(
            [self.mode_pos[tuple(-c for c in m)] for m in self.modes]
        ))

    # -- conjugation -----------------------------------------------------

    def conj_permutation(self, p, q):
        """Real signed permutation K with conj(u) = K @ conj(u.coeffs),
        mapping Lambda^{p,q} -> Lambda^{q,p}."""

        def build():
            structs, _ = self.struct_indices(p, q)
            _, out_pos = self.struct_indices(q, p)
            sign = -1.0 if (p * q) % 2 else 1.0
            S_in = self.struct_dim(p, q)
            S_out = self.struct_dim(q, p)
            neg = self.mode_neg_index()
            K = np.zeros((self.n_modes * S_out, self.n_modes * S_in))
            for mi in range(self.n_modes):
                mo = neg[mi]
                for s, (I, J) in enumerate(structs):
                    K[mo * S_out + out_pos[(J, I)], mi * S_in + s] = sign
            return K

        return self._cached(("conj", p, q), build)


@dataclass
class Form:
    """A pure-bidegree form: coefficient vector over the catalog's basis."""

    catalog: BasisCatalog
    bidegree: Bidegree
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        expected = self.catalog.dim(self.bidegree.p, self.bidegree.q)
        if self.coeffs.shape != (expected,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"expected ({expected},) for bidegree {tuple(self.bidegree)}"
            )

    @property
    def p(self):
        return self.bidegree.p

    @property
    def q(self):
        return self.bidegree.q

    def copy(self):
        return Form(self.catalog, self.bidegree, self.coeffs.copy())

    def __add__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        return Form(self.catalog, self.bidegree, self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        self._check_compatible(other)
        return Form(self.catalog, self.bidegree, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "Form":
        return Form(self.catalog, self.bidegree, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Form(self.catalog, self.bidegree, -self.coeffs)

    def _check_compatible(self, other):
        if self.catalog is not other.catalog:
            raise ValueError("forms live over different catalogs")
        if self.bidegree != other.bidegree:
            raise DegreeError(
                f"bidegree mismatch {tuple(self.bidegree)} vs {tuple(other.bidegree)}"
            )

    def coeff_norm(self):
        return float(np.linalg.norm(self.coeffs))


def zero_form(catalog: BasisCatalog, p: int, q: int) -> Form:
    return Form(catalog, Bidegree(p, q), np.zeros(catalog.dim(p, q), dtype=complex))


def basis_form(catalog: BasisCatalog, mode, I, J) -> Form:
    p, q = len(I), len(J)
    u = zero_form(catalog, p, q)
    u.coeffs[catalog.flat_index(mode, I, J)] = 1.0
    return u


def wedge_values(catalog: BasisCatalog, bd1: Bidegree, bd2: Bidegree, a, b):
    """Covector-wise wedge of coefficient arrays over the struct bases:
    out[..., s_out] = sum of sign * a[..., s1] * b[..., s2] over
    catalog.wedge_table(bd1, bd2), broadcasting over the leading axes (nodes,
    modes, ...) of a and b."""
    table = catalog.wedge_table(bd1, bd2)
    bd = bd1 + bd2
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(shape + (catalog.struct_dim(bd.p, bd.q),), dtype=complex)
    for s1, s2, sign, so in table:
        out[..., so] += sign * a[..., s1] * b[..., s2]
    return out


def wedge(u: Form, v: Form) -> Form:
    """Wedge product with the canonical reordering sign convention.

    On a truncated-mode catalog, products whose mode sums leave the mode set
    are projected out (Galerkin).
    """
    if u.catalog is not v.catalog:
        raise ValueError("forms live over different catalogs")
    cat = u.catalog
    M = cat.n_modes
    a = u.coeffs.reshape(M, 1, -1)
    b = v.coeffs.reshape(1, M, -1)
    prod = wedge_values(cat, u.bidegree, v.bidegree, a, b)  # (M, M, So)
    msum = cat.mode_sum_index()
    valid = msum >= 0
    bd = u.bidegree + v.bidegree
    out = np.zeros((M, prod.shape[-1]), dtype=complex)
    np.add.at(out, msum[valid], prod[valid])
    return Form(cat, bd, out.reshape(-1))


def conjugate(u: Form) -> Form:
    """Complex conjugate: (p,q) -> (q,p), mode m -> -m, with the reordering
    sign between the (I,J) and (J,I) bases.  An involution."""
    cat = u.catalog
    K = cat.conj_permutation(u.p, u.q)
    return Form(cat, Bidegree(u.q, u.p), K @ np.conj(u.coeffs))
