"""Concrete finite-dimensional form complexes and the model-file parser.

Every model is a Fourier-truncated torus with unit periods in its axes,
z_j = x_j + i x_{n+j}, whose (1,0) coframe generators may carry structure
constants.  A spectral model has 2n axes and no structure constants; a
Lie-algebra (invariant) model is the torus with no axes: one mode, one
quadrature node, and left-invariant forms.  One assembly gives del and
delbar per bidegree in the fixed basis order of forms.BasisCatalog, and the
CLI writes every basis row of a form, zero or not.
"""

from __future__ import annotations

import cmath
import math
import re
import weakref
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .forms import (
    BasisCatalog,
    Bidegree,
    Form,
    _Memo,
    basis_form,
    conjugate,
    wedge,
    zero_form,
)

__all__ = [
    "Model",
    "FormComplex",
    "ModelError",
    "parse_model",
    "ModelTemplate",
    "parse_complex",
    "format_complex",
    "build_complex",
]

STRUCTURE_TOL = 1e-12
_HOLO, _ANTI = Bidegree(1, 0), Bidegree(0, 1)  # the bidegrees of dz^j, dzbar^j

# (modes, grid) -> the memo of the quadrature tables that depend only on them,
# held by every live complex on that lattice and freed with the last one
_LATTICES = weakref.WeakValueDictionary()


class ModelError(ValueError):
    """Model file syntax or validation error; carries line/column info."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if column is not None:
                loc += f", col {column}"
            loc += ": "
        super().__init__(loc + message)
        self.line = line
        self.column = column


@dataclass
class Model:
    """A finite model of a compact complex manifold: Fourier-truncated forms
    on a torus with unit periods in its axes, z_j = x_j + i x_{n+j}, whose
    (1,0) coframe generators phi^k may have non-zero differentials.

    A Lie-algebra model is the torus with no axes: mode set ((),), grid (),
    one formal node.  A spectral model has 2n axes and no structure
    constants.  d_phi[k] maps a 2-form label to the coefficient of d phi^k;
    labels are ("e", i, j) = phi^i ^ phi^j (i < j), ("f", i, j) = phi^i ^
    phibar^j and ("g", i, j) = phibar^i ^ phibar^j (i < j), which must
    vanish (integrability).
    """

    n: int
    d_phi: dict = field(default_factory=dict)
    mode_set: tuple = ((),)
    grid: tuple = ()  # quadrature nodes per axis
    metric: np.ndarray | None = None  # constant part, n x n Hermitian
    metric_modes: dict = field(default_factory=dict)  # mode -> n x n coeff matrix
    # (1,0) potential u, mode -> length-n vector; the metric gains
    # dbar(u) + del(conj u), which keeps it Hermitian-symplectic
    potential_modes: dict = field(default_factory=dict)

    def validate(self, lines=None):
        """Raise ModelError on malformed structure constants, a malformed
        mode set, a grid too coarse for exact quadrature, or a metric or
        potential coefficient on a mode outside the mode set.  lines maps
        what a directive declared to its source line, where known: k for
        d phi^k, "grid", ("mode", m) and "mode" (the first) for mode lines,
        and ("metric", m) or ("potential", m) for a coefficient on mode m.
        d^2 = 0 is checked on the assembled complex."""
        lines = lines or {}
        for k, terms in self.d_phi.items():
            line = lines.get(k)
            if not (1 <= k <= self.n):
                raise ModelError(f"generator index {k} out of range 1..{self.n}", line)
            for (kind, i, j), c in terms.items():
                if kind not in ("e", "f", "g"):
                    raise ModelError(f"unknown 2-form label {kind}", line)
                if not (1 <= i <= self.n and 1 <= j <= self.n):
                    raise ModelError(f"index out of range in {kind}({i},{j})", line)
                if kind in ("e", "g") and i >= j:
                    raise ModelError(f"{kind}({i},{j}) requires i < j", line)
                if kind == "g" and c != 0:
                    raise ModelError(
                        f"d phi^{k} has a (0,2) component {kind}({i},{j}); "
                        "complex structure is not integrable", line)
        axes = len(self.grid)
        modes = {tuple(m) for m in self.mode_set}
        if axes not in (0, 2 * self.n) or any(len(m) != axes for m in modes):
            raise ModelError(f"modes and grid must have 0 or {2 * self.n} axes")
        if (0,) * axes not in modes:
            raise ModelError("mode set must contain the zero mode", lines.get("mode"))
        for m in map(tuple, self.mode_set):
            if tuple(-c for c in m) not in modes:
                raise ModelError(f"mode set not symmetric: missing -{m}",
                                 lines.get(("mode", m)))
        for a, g in enumerate(self.grid):
            floor = 4 * max(abs(m[a]) for m in modes) + 1
            if g < floor:
                raise ModelError(
                    f"grid size {g} on axis {a + 1} below 4*max|m|+1 = {floor}; "
                    "quadrature would not be exact for 4-factor products",
                    lines.get("grid"),
                )
        for kind, declared in (("metric", self.metric_modes),
                               ("potential", self.potential_modes)):
            for m in declared:
                if tuple(m) not in modes:
                    raise ModelError(f"{kind} mode {tuple(m)} is not in the mode set",
                                     lines.get((kind, tuple(m))))


class FormComplex(_Memo):
    """A finite bigraded complex with del and delbar matrices per bidegree.

    Immutable after construction.  It also carries the quadrature grid,
    the node plane-wave matrix and the grid transform used by every
    metric-dependent computation downstream; a model with no axes has one
    node.  Their tables are shared with every live complex on the same
    (modes, grid).
    """

    def __init__(self, model: Model):
        super().__init__()
        self.catalog = BasisCatalog(model.n, model.mode_set)
        self.n = model.n
        self.model = model
        key = (self.catalog.modes, self.grid)
        self._lattice = _LATTICES.get(key)
        if self._lattice is None:
            self._lattice = _LATTICES[key] = _Memo()
        self._del = {}
        self._dbar = {}
        self._assemble()
        self._check_complex_identities()

    # -- assembly -------------------------------------------------------

    def _leibniz_terms(self):
        """The structure-constant part of d, as d = sum_k d phi^k ^ iota_k
        + d phibar^k ^ iotabar_k with d phibar^k = conj(d phi^k), where
        iota_k removes phi^k.  Returns, per bidegree step (1,0) (del) and
        (0,1) (dbar), the list of (c, word, (bd, k)): c times the wedge by
        the covectors of word, a tuple of (bidegree, index) in wedge order,
        after removing covector k of bidegree bd."""
        cat, zero = self.catalog, self.catalog.zero_mode
        terms = {_HOLO: [], _ANTI: []}
        for k in range(1, self.n + 1):
            d_phi = _d_phi_forms(cat, self.model.d_phi.get(k, {}))
            for bd, gen in ((_HOLO, d_phi), (_ANTI, map(conjugate, d_phi))):
                for u in gen:
                    structs, _ = cat.struct_indices(u.p, u.q)
                    values = u.coeffs.reshape(cat.n_modes, -1)[cat.mode_pos[zero]]
                    terms[Bidegree(u.p - bd.p, u.q - bd.q)] += [
                        (c, tuple((_HOLO, i) for i in I) + tuple((_ANTI, j) for j in J),
                         (bd, k))
                        for (I, J), c in zip(structs, values) if c != 0]
        return terms

    def _assemble(self):
        """del and dbar on every Lambda^{p,q}, one mode block at a time.

        On e_m phi^I ^ phibar^J each is the sum of a mode part, the symbol
        pi i (m_j - i m_{n+j}) (del) or pi i (m_j + i m_{n+j}) (dbar) times
        dz^j ^ (dzbar^j ^), which vanishes when there are no axes, and the
        mode-independent Leibniz part of the structure constants."""
        cat, n, M = self.catalog, self.n, self.catalog.n_modes
        # a mode with no axes is the zero vector, whose symbol vanishes
        m = np.zeros((M, 2 * n))
        m[:, : len(cat.modes[0])] = cat.modes
        steps = {_HOLO: (self._del, np.pi * 1j * (m[:, :n] - 1j * m[:, n:])),
                 _ANTI: (self._dbar, np.pi * 1j * (m[:, :n] + 1j * m[:, n:]))}
        leibniz = self._leibniz_terms()
        ar = np.arange(M)
        for p, q in product(range(n + 1), repeat=2):
            S = cat.struct_dim(p, q)
            for step, (mats, symbol) in steps.items():
                if p + step.p > n or q + step.q > n:
                    mats[(p, q)] = np.zeros((0, M * S), dtype=complex)
                    continue
                So = cat.struct_dim(p + step.p, q + step.q)
                block = np.zeros((M, So, S), dtype=complex)
                block += np.einsum("mj,jrs->mrs", symbol, cat.covector_wedge(step, p, q))
                for c, word, (bd, k) in leibniz[step]:
                    lo = (p - bd.p, q - bd.q)
                    if min(lo) < 0:
                        continue
                    # removing a covector is the transpose of wedging by it
                    mat = cat.covector_wedge(bd, *lo)[k - 1].T
                    for w, j in reversed(word):
                        mat = cat.covector_wedge(w, *lo)[j - 1] @ mat
                        lo = (lo[0] + w.p, lo[1] + w.q)
                    block += c * mat
                out = np.zeros((M, So, M, S), dtype=complex)
                out[ar, :, ar, :] = block
                mats[(p, q)] = out.reshape(M * So, M * S)

    def _check_complex_identities(self):
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                d1 = self.del_matrix(p, q)
                db1 = self.dbar_matrix(p, q)
                if p + 2 <= self.n:
                    r = np.abs(self.del_matrix(p + 1, q) @ d1).max() if d1.size else 0.0
                    if r > STRUCTURE_TOL * max(1.0, np.abs(d1).max()):
                        raise ModelError(f"del^2 != 0 at bidegree ({p},{q}): {r:.2e}")
                if q + 2 <= self.n:
                    r = np.abs(self.dbar_matrix(p, q + 1) @ db1).max() if db1.size else 0.0
                    if r > STRUCTURE_TOL * max(1.0, np.abs(db1).max()):
                        raise ModelError(f"delbar^2 != 0 at bidegree ({p},{q}): {r:.2e}")
                if p + 1 <= self.n and q + 1 <= self.n:
                    anti = self.dbar_matrix(p + 1, q) @ d1 + self.del_matrix(p, q + 1) @ db1
                    r = np.abs(anti).max() if anti.size else 0.0
                    scale = max(1.0, np.abs(d1).max(), np.abs(db1).max()) ** 2
                    if r > STRUCTURE_TOL * scale * 100:
                        raise ModelError(
                            f"del delbar + delbar del != 0 at ({p},{q}): {r:.2e}"
                        )

    # -- operator access --------------------------------------------------

    def dims(self, p, q):
        return self.catalog.dim(p, q)

    def del_matrix(self, p, q):
        return self._del[(p, q)]

    def dbar_matrix(self, p, q):
        return self._dbar[(p, q)]

    def ddbar_matrix(self, p, q):
        """del delbar : Lambda^{p,q} -> Lambda^{p+1,q+1}, formed once per
        complex."""
        return self._cached(("ddbar", p, q),
                            lambda: self.del_matrix(p, q + 1) @ self.dbar_matrix(p, q))

    def apply_del(self, u: Form) -> Form:
        p, q = u.p, u.q
        if p >= self.n:
            return zero_form(self.catalog, self.n, q)
        return Form(self.catalog, Bidegree(p + 1, q), self.del_matrix(p, q) @ u.coeffs)

    def apply_dbar(self, u: Form) -> Form:
        p, q = u.p, u.q
        if q >= self.n:
            return zero_form(self.catalog, p, self.n)
        return Form(self.catalog, Bidegree(p, q + 1), self.dbar_matrix(p, q) @ u.coeffs)

    def d_full(self, u: Form):
        """(del u, delbar u); d u is their sum."""
        return self.apply_del(u), self.apply_dbar(u)

    # -- quadrature / evaluation -------------------------------------------

    @property
    def grid(self):
        return tuple(self.model.grid)

    def nodes(self):
        """Quadrature node coordinates, shape (X, axes); with no axes, the
        one formal node has no coordinates."""
        j = np.indices(self.grid).reshape(len(self.grid), self.n_nodes)
        return np.ascontiguousarray(j.T / np.array(self.grid))

    def eval_matrix(self):
        """Plane-wave matrix E with E[x, m] = exp(2 pi i m . x_node); [[1]]
        when there are no axes."""
        return self._lattice._cached("eval", lambda: np.exp(
            2j * np.pi * (self.nodes() @ np.array(self.catalog.modes).T)))

    def _flat_frequency(self, k):
        """The flat grid index of integer frequencies k, shape (..., axes)."""
        strides = [math.prod(self.grid[a + 1:]) for a in range(len(self.grid))]
        return (k % np.array(self.grid, dtype=int)) @ np.array(strides, dtype=int)

    def mode_differences(self):
        """(rows, index): the distinct mode differences d = m_i - m_j with
        d >= -d (lexicographically) as rows, shape (R, axes), in
        lexicographic order; index[i, j] is r where m_i - m_j = rows[r] and
        R + r where it is -rows[r]."""

        def build():
            modes = self.catalog.modes
            diffs = [tuple(a - b for a, b in zip(mi, mj)) for mi in modes for mj in modes]
            reps = [max(d, tuple(-c for c in d)) for d in diffs]
            rows = sorted(set(reps))
            at = {d: r for r, d in enumerate(rows)}
            index = np.reshape([at[rep] + len(rows) * (d != rep)
                                for d, rep in zip(diffs, reps)], (len(modes),) * 2)
            return np.array(rows, dtype=int).reshape(len(rows), len(self.grid)), index

        return self._lattice._cached("differences", build)

    def frequencies(self, j):
        """(k, steps, neg, shifts, fold): S_j, the j-fold sums of modes mod
        the grid, each once (sums that alias are one frequency), as rows k
        in flat order (zero, in every S_j, is first), where a polynomial of
        degree j in h(x) has its grid spectrum; the plan of grid_transform;
        k[neg] = -k; the position shifts[i][r, s] of d_r - s, for the rows
        d_r of mode_differences() and the s of S_i, i <= j - 2; and for
        j >= 1 the fold (order, starts) of the products m_i + s_t of the
        modes with S_{j-1}, flat as i * |S_{j-1}| + t, onto S_j: in order,
        the products of each frequency of S_j form one run, which starts at
        starts (None for j = 0)."""

        def build():
            axes, grid = len(self.grid), np.array(self.grid, dtype=int)
            modes = np.array(self.catalog.modes, dtype=int).reshape(self.catalog.n_modes, axes)
            k = np.zeros((1, axes), dtype=int)
            for _ in range(j):
                k = (k[:, None] + modes).reshape(len(k) * len(modes), axes)
                k = k[np.unique(self._flat_frequency(k), return_index=True)[1]] % grid
            # per axis from the last, the suffixes (k_a, ..., k_last) of the
            # set: each is k_a and the position of the rest the step before
            steps, at, count = [], np.zeros(len(k), dtype=int), 1
            for a in reversed(range(axes)):
                _, first, after = np.unique(k[:, a] * count + at, return_index=True,
                                            return_inverse=True)
                x = np.arange(grid[a])
                steps.append((_unit_phases(np.outer(x, x), grid[a]), at[first], k[first, a]))
                at, count = after.reshape(-1), len(first)
            flat, rows = self._flat_frequency(k), self.mode_differences()[0][:, None]
            shifts = [np.searchsorted(flat, self._flat_frequency(rows - self.frequencies(i)[0]))
                      for i in range(j - 1)]
            fold = None
            if j:
                sums = np.searchsorted(flat, self._flat_frequency(
                    modes[:, None] + self.frequencies(j - 1)[0])).reshape(-1)
                order = np.argsort(sums, kind="stable")
                fold = order, np.searchsorted(sums[order], np.arange(len(k)))
            return k, steps, np.searchsorted(flat, self._flat_frequency(-k)), shifts, fold

        return self._lattice._cached(("frequencies", j), build)

    def grid_transform(self, values, frequencies):
        """sum_x values[f, x] exp(-2 pi i k . x), shape (F, |S|), for values
        of shape (F, X) at the k of frequencies(j): per axis from the last,
        one product with its DFT matrix (phases reduced exactly in
        integers), then a gather of the set's suffixes (k_a, ..., k_last),
        so a small set costs little.  With no axes it is the identity."""
        F = len(values)
        out = values.reshape(F, 1, -1)
        for phases, rest, k in frequencies[1]:
            g = len(phases)
            out = (out.reshape(-1, g) @ phases).reshape(F, out.shape[1], -1, g)
            out = out.transpose(0, 1, 3, 2)[:, rest, k]
        return out.reshape(F, -1)

    @property
    def n_nodes(self):
        return int(np.prod(self.grid))

    def evaluate(self, u: Form):
        """Pointwise covector coefficients, shape (X, struct_dim)."""
        M = self.catalog.n_modes
        S = self.catalog.struct_dim(u.p, u.q)
        return self.eval_matrix() @ u.coeffs.reshape(M, S)

    def mode_coefficients(self, values):
        """Inverse of evaluate: exact Fourier coefficients on the grid for
        the in-set modes, which are frequencies(1).  values has shape (X, S)."""
        k = self.frequencies(1)
        modes = np.array(self.catalog.modes, dtype=int).reshape(len(k[0]), len(self.grid))
        at = np.searchsorted(self._flat_frequency(k[0]), self._flat_frequency(modes))
        return (self.grid_transform(values.T, k)[:, at].T / self.n_nodes).reshape(-1)

    # -- helpers -----------------------------------------------------------

    def zero(self, p, q):
        return zero_form(self.catalog, p, q)

    def basis_form(self, mode, I, J):
        return basis_form(self.catalog, mode, I, J)

    def hermitian_form(self, h, mode=None) -> Form:
        """The (1,1)-form i sum_jk h_jk e_mode dz^j ^ dzbar^k for an n x n
        matrix h; the zero mode by default."""
        cat = self.catalog
        mode = cat.zero_mode if mode is None else mode
        u = zero_form(cat, 1, 1)
        S = cat.struct_dim(1, 1)
        start = cat.mode_pos[tuple(mode)] * S
        # the (1,1) struct basis is (j,k) in row-major order
        u.coeffs[start : start + S] = 1j * np.asarray(h).reshape(S)
        return u

    def metric_form(self) -> Form:
        """The model's declared metric as a (1,1) form, omega = i h_jk dz^j
        ^ dzbar^k; identity metric when the model declares none."""
        n = self.n
        cat = self.catalog
        h0 = self.model.metric
        u = self.hermitian_form(np.eye(n, dtype=complex) if h0 is None else h0)
        for mode, mat in self.model.metric_modes.items():
            u = u + self.hermitian_form(mat, mode)
        pot = self.model.potential_modes
        if pot:
            v = zero_form(cat, 1, 0)
            for mode, vec in pot.items():
                for j in range(n):
                    if vec[j] != 0:
                        v.coeffs[cat.flat_index(tuple(mode), (j + 1,), ())] = vec[j]
            u = u + self.apply_dbar(v) + self.apply_del(conjugate(v))
        return u

    def random_form(self, p, q, rng):
        c = rng.standard_normal(self.dims(p, q)) + 1j * rng.standard_normal(
            self.dims(p, q)
        )
        return Form(self.catalog, Bidegree(p, q), c)


def _unit_phases(r, L):
    """exp(-2 pi i r / L) for integer r, with r reduced to (-L/2, L/2]
    first, so the phase of a whole period is exactly 1."""
    r = np.asarray(r) % L
    return np.exp(-2j * np.pi * np.where(2 * r > L, r - L, r) / L)


def _d_phi_forms(cat: BasisCatalog, terms):
    """d phi^k on the zero mode as its (2,0) part (n >= 2) and (1,1) part,
    from its terms; validate admits only zero (0,2) terms g(i,j)."""
    zero = cat.zero_mode
    d_phi = [zero_form(cat, 2, 0)] if cat.n >= 2 else []
    d_phi.append(zero_form(cat, 1, 1))
    for (kind, i, j), c in terms.items():
        if kind == "e":
            d_phi[0].coeffs[cat.flat_index(zero, (i, j), ())] += c
        elif kind == "f":
            d_phi[-1].coeffs[cat.flat_index(zero, (i,), (j,))] += c
    return d_phi


def _d_squared(model: Model):
    """k -> the largest coefficient of d(d phi^k), by the Leibniz rule
    d(a ^ b) = da ^ b - a ^ db on every term a ^ b of d phi^k.  d^2 is a
    derivation, so it vanishes on every form exactly when it vanishes on
    every phi^k (and so on every conj(phi^k))."""
    cat = BasisCatalog(model.n)  # no axes: its one mode is ()
    d = {k: _d_phi_forms(cat, terms) for k, terms in model.d_phi.items()}
    out = {}
    for k, terms in model.d_phi.items():
        parts = {}
        for (kind, i, j), c in terms.items():  # a g(i,j) term is zero
            a, anti = basis_form(cat, (), (i,), ()), kind == "f"
            b = basis_form(cat, (), *(((), (j,)) if anti else ((j,), ())))
            db = [conjugate(v) if anti else v for v in d.get(j, [])]
            for x, y, s in [(u, b, c) for u in d.get(i, [])] + [(a, v, -c) for v in db]:
                bd = x.bidegree + y.bidegree
                if max(bd) <= model.n:  # a wedge past degree n is zero
                    parts[bd] = parts.get(bd, 0) + s * wedge(x, y).coeffs
        out[k] = max((np.abs(v).max() for v in parts.values()), default=0.0)
    return out


def build_complex(model: Model) -> FormComplex:
    """Assemble the validated model into a FormComplex."""
    model.validate()
    return FormComplex(model)


# ---------------------------------------------------------------------------
# model file parser
# ---------------------------------------------------------------------------

_COMPLEX_RE = re.compile(
    r"""^\s*
        (?P<re>[+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?
        \s*
        (?P<im>[+-]\s*\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)?\s*(?P<i>i)?
        \s*$""",
    re.VERBOSE,
)


def parse_complex(text, line=None):
    """Complex literal 'a+bi', 'a-bi', 'a', or 'bi'."""
    m = _COMPLEX_RE.match(text)
    if not m or not (m["re"] or m["i"]) or (m["im"] and not m["i"]):
        raise ModelError(f"bad complex literal {text!r}", line)
    re_part, im_part = m["re"], m["im"]
    if m["i"] and im_part is None:  # 'bi' or 'i'
        re_part, im_part = None, re_part or "1"
    return complex(float(re_part or 0), float("".join((im_part or "0").split())))


def format_complex(z) -> str:
    """The literal form 'a+bi' read back by parse_complex; 'a' when the
    imaginary part is zero, and -0.0 written as 0.0."""
    z = complex(z)
    re = z.real + 0.0  # normalize -0.0
    if z.imag == 0.0:
        return repr(re)
    sign = "+" if z.imag >= 0 else "-"
    return f"{re!r}{sign}{abs(z.imag)!r}i"


_TERM_RE = re.compile(
    r"^\s*(?P<coef>.+?)\s*\*\s*(?P<kind>[efg])\s*\(\s*(?P<i>\d+)\s*,\s*(?P<j>\d+)\s*\)\s*$"
)


def _check_hermitian(entries, zero):
    """Raise ModelError, naming the entry's line, unless h_{-m}[k,j] =
    conj(h_m[j,k]) for every declared entry, within the reality tolerance of
    HermitianStructure; the constant part (mode None) adds to mode zero."""
    h, where = {}, {}
    for (m, j, k), (c, ln) in sorted(entries.items(), key=lambda e: e[1][1]):
        key = (zero if m is None else m, j, k)
        h[key] = h.get(key, 0) + c
        where.setdefault(key, ln)
    tol = 1e-12 * max([1.0] + [abs(c) for c in h.values()])
    for (m, j, k), ln in where.items():
        neg = tuple(-a for a in m)
        if abs(h[m, j, k] - np.conj(h.get((neg, k, j), 0))) > tol:
            raise ModelError(f"metric is not Hermitian: h {j} {k} on mode {m} is "
                             f"not the conjugate of h {k} {j} on mode {neg}", ln)


# size caps, checked on the n, grid or modes line before anything is
# allocated; the largest model in use, spectral n = 3 with modes axis K 2,
# has 9^6 = 531,441 nodes
MAX_N = 6
MAX_NODES = 1 << 20
_ENTRY_RE = {
    "metric": (r"metric\s+()h\s+(\d+)\s+(\d+)", "h <i> <j>"),
    "metric_mode": (r"metric_mode\s+((?:-?\d+\s+)+)h\s+(\d+)\s+(\d+)", "<2n ints> h <i> <j>"),
    "potential": (r"potential\s+((?:-?\d+\s+)+)u\s+(\d+)()", "<2n ints> u <j>"),
}


def _ints(tokens, line, what):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ModelError(f"{what} must be integers", line) from None


def _once(lines, key, line, what):
    """Record key as declared on line; a second declaration is an error."""
    if key in lines:
        raise ModelError(f"repeated {what} (first on line {lines[key]})", line)
    lines[key] = line


def _coefficient(text, line, family):
    """A complex literal, or the coefficients (c0, c1, ...) of poly(c0, c1,
    ...), a polynomial in t that only a family may make non-constant."""
    m = re.fullmatch(r"\s*poly\((.*)\)\s*", text)
    if m is None:
        return parse_complex(text, line)
    coefs = tuple(parse_complex(c, line) for c in m.group(1).split(","))
    if not family and any(coefs[1:]):
        raise ModelError("a poly(...) that depends on t belongs in a family file", line)
    return coefs


def _value(coef, t, line):
    """A coefficient at t; a polynomial sums c_k t^k, its signed zeros
    normalized as format_complex writes them."""
    if not isinstance(coef, tuple):
        return coef
    try:
        z = sum(c * t**k for k, c in enumerate(coef))
    except OverflowError:
        z = complex("inf")
    if not cmath.isfinite(z):
        raise ModelError(f"coefficient is not finite at t = {t!r}", line)
    return complex(z.real + 0.0, z.imag + 0.0)


class ModelTemplate:
    """A model file, or a family file when family is set, read by the one
    line loop of the grammar (see the package README).  Each coefficient
    stays a complex literal or the coefficient tuple of a poly(...), and
    each directive keeps its line in the file.  Raises ModelError with the
    line of the first error; a missing directive names the last line."""

    def __init__(self, text: str, family: bool = False):
        self.kind = self.n = self.axis_spec = self.grid = self.t_samples = None
        self.lines = {}  # what a directive declared -> its line, see Model.validate
        self.d_terms = {}  # k -> [((label, i, j), coefficient)]
        self.modes = []  # [(mode, line)] of the 'mode' lines
        self.metric_entries = {}  # (mode or None, i, j) -> (coefficient, line)
        self.potential_entries = {}  # (mode, j) -> (coefficient, line)
        lines, ln = self.lines, 0
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                self._read(line, ln, family)
        lines["end"] = max(ln, 1)
        for what, missing in (("kind", self.kind is None), ("n", self.n is None),
                              ("t_samples", family and self.t_samples is None)):
            if missing:
                raise ModelError(f"missing '{what}' line", lines["end"])

    def _read(self, line, ln, family):
        lines, tok = self.lines, line.split()
        head = tok[0]
        if head in ("kind", "n", "grid", "modes", "t_samples"):
            _once(lines, head, ln, f"'{head}'")
        if head in ("mode", "modes", "grid", "potential", "metric_mode"):
            lines.setdefault("spectral", ln)
        if head == "kind":
            if len(tok) != 2 or tok[1] not in ("invariant", "spectral"):
                raise ModelError("kind must be 'invariant' or 'spectral'", ln)
            self.kind = tok[1]
        elif head == "n":
            if len(tok) != 2:
                raise ModelError("expected 'n <int>'", ln)
            self.n = _ints(tok[1:], ln, "n")[0]
            if not 1 <= self.n <= MAX_N:
                raise ModelError(f"n must be in 1..{MAX_N}, got {self.n}", ln)
        elif head == "d":
            if self.kind != "invariant":
                raise ModelError("'d' lines require kind invariant (declare kind first)", ln)
            m = re.match(r"^d\s+(\d+)\s*:=\s*(.*)$", line)
            if not m:
                raise ModelError("expected 'd <k> := <terms>'", ln)
            k = _ints([m.group(1)], ln, "d index")[0]
            _once(lines, k, ln, f"'d {k}'")
            rhs, terms = m.group(2).strip(), []
            # terms are split on a '+' right after the ')' of a label
            for part in re.split(r"(?<=\))\s*\+", rhs) if rhs not in ("0", "") else []:
                tm = _TERM_RE.match(part)
                if not tm:
                    raise ModelError(f"bad term {part.strip()!r}", ln)
                i, j = _ints(tm.group("i", "j"), ln, "term indices")
                terms.append(((tm.group("kind"), i, j),
                              _coefficient(tm.group("coef"), ln, family)))
            self.d_terms[k] = terms
        elif head == "modes":
            if not re.fullmatch(r"modes\s+axis\s+K\s+-?\d+", line):
                raise ModelError("expected 'modes axis K <int>'", ln)
            self.axis_spec = _ints(tok[3:], ln, "K")[0]
            if self.axis_spec < 0:
                raise ModelError(f"modes axis K must be at least 0, got {self.axis_spec}", ln)
        elif head == "mode":
            mode = tuple(_ints(tok[1:], ln, "mode components"))
            _once(lines, ("mode", mode), ln, f"mode {mode}")
            lines.setdefault("mode", ln)
            self.modes.append((mode, ln))
        elif head == "grid":
            self.grid = _ints(tok[1:], ln, "grid values")
            if not self.grid:
                raise ModelError("grid requires an integer", ln)
        elif head == "t_samples":
            if not family:
                raise ModelError("'t_samples' belongs in a family file", ln)
            values = re.fullmatch(r"t_samples\s*:?=?\s*(.*)", line).group(1)
            try:
                self.t_samples = [float(x) for x in re.split(r"[,\s]+", values) if x]
            except ValueError:
                raise ModelError("t_samples must be a list of reals", ln) from None
            if not all(map(math.isfinite, self.t_samples)):
                raise ModelError("t_samples must be finite", ln)
            if 0.0 not in self.t_samples:
                raise ModelError("t_samples must include 0", ln)
        elif head in _ENTRY_RE:
            pattern, what = _ENTRY_RE[head]
            m = re.fullmatch(pattern + r"\s*:=\s*(.*)", line)
            if not m:
                raise ModelError(f"expected '{head} {what} := <complex>'", ln)
            mode = tuple(_ints(m.group(1).split(), ln, "mode components"))
            key = ((None,) if head == "metric" else (mode,)) + tuple(
                _ints(filter(None, m.group(2, 3)), ln, "indices"))
            _once(lines, (head,) + key, ln, f"'{head}' entry")
            entries = self.potential_entries if head == "potential" else self.metric_entries
            entries[key] = (_coefficient(m.group(4), ln, family), ln)
            if head != "metric":
                lines.setdefault(("potential" if head == "potential" else "metric", mode), ln)
        else:
            raise ModelError(f"unknown directive {head!r}", ln)

    def model(self, t=0.0) -> Model:
        """The validated Model with every coefficient evaluated at t."""
        n, lines = self.n, self.lines
        if self.kind == "invariant" and "spectral" in lines:
            raise ModelError("spectral directives in an invariant model", lines["spectral"])
        metric_entries = {key: (_value(c, t, ln), ln)
                          for key, (c, ln) in self.metric_entries.items()}
        metric_modes = {}  # the constant part under mode None
        for (mk, i, j), (c, ln) in metric_entries.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise ModelError(f"metric index ({i},{j}) out of range 1..{n}", ln)
            if mk is not None and len(mk) != 2 * n:
                raise ModelError(
                    f"metric_mode mode has {len(mk)} components, expected {2 * n}", ln)
            metric_modes.setdefault(mk, np.zeros((n, n), dtype=complex))[i - 1, j - 1] = c
        const_h = metric_modes.pop(None, None)
        d_phi = {k: {} for k in self.d_terms}
        for k, terms in self.d_terms.items():
            for key, c in terms:
                d_phi[k][key] = d_phi[k].get(key, 0) + _value(c, t, lines[k])
        if self.kind == "invariant":
            model = Model(n=n, d_phi=d_phi, metric=const_h)
        else:
            for mode, ln in self.modes:
                if len(mode) != 2 * n:
                    raise ModelError(f"mode has {len(mode)} components, expected {2 * n}", ln)
                if self.axis_spec is not None:
                    raise ModelError("'mode' lines cannot be combined with 'modes axis K'", ln)
            if self.axis_spec is not None:
                # the zero mode and +-K e_a for every lattice axis a
                K = self.axis_spec
                modes = [(0,) * (2 * n)] + [
                    tuple(s if b == a else 0 for b in range(2 * n))
                    for a in range(2 * n) for s in (K, -K)]
            elif self.modes:
                modes = [mode for mode, _ in self.modes]
            else:
                raise ModelError("spectral model needs 'modes axis K' or 'mode' lines",
                                 lines["end"])
            floor = [4 * max(abs(m[a]) for m in modes) + 1 for a in range(2 * n)]
            grid = self.grid or [max(floor)]
            if len(grid) == 1:
                if grid[0] < 1:
                    raise ModelError(f"grid size {grid[0]} below 1", lines["grid"])
                # one value: that many nodes on every axis that carries modes
                grid = [grid[0] if f > 1 else 1 for f in floor]
            elif len(grid) != 2 * n:
                raise ModelError(f"grid takes 1 or {2 * n} values, got {len(grid)}",
                                 lines["grid"])
            if math.prod(grid) > MAX_NODES:
                raise ModelError(f"{math.prod(grid)} nodes exceed the cap {MAX_NODES}",
                                 lines.get("grid", lines.get("modes", lines.get("mode"))))
            potential_modes = {}
            for (mk, j), (c, ln) in self.potential_entries.items():
                if len(mk) != 2 * n:
                    raise ModelError(f"potential mode has {len(mk)} components, "
                                     f"expected {2 * n}", ln)
                if not (1 <= j <= n):
                    raise ModelError(f"potential index {j} out of range 1..{n}", ln)
                potential_modes.setdefault(mk, np.zeros(n, dtype=complex))[j - 1] = _value(
                    c, t, ln)
            model = Model(n=n, mode_set=tuple(modes), grid=tuple(grid), metric=const_h,
                          metric_modes=metric_modes, potential_modes=potential_modes)
        model.validate(lines)
        _check_hermitian(metric_entries, (0,) * len(model.grid))
        scale = max((abs(c) for cs in d_phi.values() for c in cs.values()), default=0.0)
        for k, r in sorted(_d_squared(model).items(), key=lambda kr: lines[kr[0]]):
            if r > STRUCTURE_TOL * max(1.0, scale):
                raise ModelError(f"d(d phi^{k}) != 0: {r:.2e}", lines[k])
        return model


def parse_model(text: str) -> Model:
    """Parse the line-oriented model grammar; see the package README for the
    full syntax.  Raises ModelError with line information."""
    return ModelTemplate(text).model(0.0)
