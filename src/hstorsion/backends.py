"""Concrete finite-dimensional form complexes and the model-file parser.

Two backends:

* invariant -- left-invariant forms on a complex Lie-algebra model given by
  the differentials of the (1,0) coframe generators;
* spectral  -- Fourier-truncated forms on the complex torus with unit periods
  in every real coordinate, z_j = x_j + i x_{n+j}.

Both expose the matrices of d-split operators del and delbar per bidegree in
the fixed basis order of forms.BasisCatalog.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .forms import (
    BasisCatalog,
    Bidegree,
    DegreeError,
    Form,
    basis_form,
    conjugate,
    sort_covectors_sign,
    zero_form,
)

__all__ = [
    "InvariantModel",
    "SpectralTorusModel",
    "FormComplex",
    "ModelError",
    "parse_model",
    "parse_complex",
    "format_complex",
    "build_complex",
]

STRUCTURE_TOL = 1e-12


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
class InvariantModel:
    """Complex Lie-algebra model: d of each (1,0) generator phi^k expressed in
    the canonical 2-form basis.

    d_phi[k] maps a 2-form label to its coefficient; labels are
    ("e", i, j) = phi^i ^ phi^j, ("f", i, j) = phi^i ^ phibar^j,
    ("g", i, j) = phibar^i ^ phibar^j  (i < j for e/g).
    """

    n: int
    d_phi: dict = field(default_factory=dict)
    metric: np.ndarray | None = None

    def validate(self):
        for k, terms in self.d_phi.items():
            if not (1 <= k <= self.n):
                raise ModelError(f"generator index {k} out of range 1..{self.n}")
            for (kind, i, j), c in terms.items():
                if kind not in ("e", "f", "g"):
                    raise ModelError(f"unknown 2-form label {kind}")
                if not (1 <= i <= self.n and 1 <= j <= self.n):
                    raise ModelError(f"index out of range in {kind}({i},{j})")
                if kind in ("e", "g") and i >= j:
                    raise ModelError(f"{kind}({i},{j}) requires i < j")
                if kind == "g" and abs(c) > STRUCTURE_TOL:
                    raise ModelError(
                        f"d phi^{k} has a (0,2) component {kind}({i},{j}); "
                        "complex structure is not integrable"
                    )
        # d^2 = 0 is checked on the assembled complex in build_complex


@dataclass
class SpectralTorusModel:
    """Fourier truncation on the torus: finite symmetric mode set in Z^{2n}
    and a per-axis quadrature node count."""

    n: int
    mode_set: tuple
    grid: tuple
    metric: np.ndarray | None = None  # constant part, n x n Hermitian
    metric_modes: dict = field(default_factory=dict)  # mode -> n x n coeff matrix
    # (1,0) potential u, mode -> length-n vector; the metric gains
    # dbar(u) + del(conj u), which keeps it Hermitian-symplectic
    potential_modes: dict = field(default_factory=dict)

    def validate(self, grid_line=None):
        """Raise ModelError on a malformed mode set or a grid too coarse for
        exact quadrature; grid_line is the source line of the grid, if any."""
        modes = {tuple(m) for m in self.mode_set}
        if any(len(m) != 2 * self.n for m in modes):
            raise ModelError(f"modes must have {2 * self.n} components")
        if tuple([0] * (2 * self.n)) not in modes:
            raise ModelError("mode set must contain the zero mode")
        for m in modes:
            if tuple(-c for c in m) not in modes:
                raise ModelError(f"mode set not symmetric: missing -{m}")
        maxm = [max(abs(m[a]) for m in modes) for a in range(2 * self.n)]
        for a, (g, mm) in enumerate(zip(self.grid, maxm)):
            if g < 4 * mm + 1:
                raise ModelError(
                    f"grid size {g} on axis {a + 1} below 4*max|m|+1 = {4 * mm + 1}; "
                    "quadrature would not be exact for 4-factor products",
                    grid_line,
                )

    @staticmethod
    def axis_modes(n, K):
        """The zero mode and +-K e_a for every lattice axis a."""
        z = [0] * (2 * n)
        modes = [tuple(z)]
        for a in range(2 * n):
            for s in (K, -K):
                m = list(z)
                m[a] = s
                modes.append(tuple(m))
        return tuple(modes)


class FormComplex:
    """A finite bigraded complex with del and delbar matrices per bidegree.

    Immutable after construction.  For the spectral backend it also carries
    the quadrature grid, node plane-wave matrix and weights used by every
    metric-dependent computation downstream.
    """

    def __init__(self, catalog: BasisCatalog, backend: str, model):
        self.catalog = catalog
        self.n = catalog.n
        self.backend = backend
        self.model = model
        self._del = {}
        self._dbar = {}
        self._eval_matrix = None
        self._difference_weights = None
        self._build_differentials()
        self._check_complex_identities()

    # -- assembly -------------------------------------------------------

    def _d_generator_forms(self):
        """d phi^k and d phibar^k as (2,0)+(1,1) / (1,1)+(0,2) coefficient
        dictionaries over covector words, invariant backend only."""
        model = self.model
        dz = {}  # k -> list of (coef, holo_tuple, anti_tuple)
        for k in range(1, self.n + 1):
            terms = []
            for (kind, i, j), c in model.d_phi.get(k, {}).items():
                if abs(c) <= 0:
                    continue
                if kind == "e":
                    terms.append((c, (i, j), ()))
                elif kind == "f":
                    terms.append((c, (i,), (j,)))
                else:
                    terms.append((c, (), (i, j)))
            dz[k] = terms
        return dz

    def _build_differentials(self):
        n = self.n
        for p in range(n + 1):
            for q in range(n + 1):
                dim = self.catalog.dim(p, q)
                dpq = (
                    np.zeros((self.catalog.dim(p + 1, q), dim), dtype=complex)
                    if p < n
                    else np.zeros((0, dim), dtype=complex)
                )
                dbpq = (
                    np.zeros((self.catalog.dim(p, q + 1), dim), dtype=complex)
                    if q < n
                    else np.zeros((0, dim), dtype=complex)
                )
                self._del[(p, q)] = dpq
                self._dbar[(p, q)] = dbpq
        if self.backend == "invariant":
            self._fill_invariant()
        else:
            self._fill_spectral()

    def _fill_invariant(self):
        n = self.n
        dz = self._d_generator_forms()
        # d phibar^k = conjugate of d phi^k
        dzbar = {
            k: [(np.conj(c), J, I) for (c, I, J) in terms]
            for k, terms in dz.items()
        }
        for p in range(n + 1):
            for q in range(n + 1):
                structs, _ = self.catalog.struct_indices(p, q)
                for col, (I, J) in enumerate(structs):
                    word = [("h", i) for i in I] + [("a", j) for j in J]
                    for pos, (typ, lbl) in enumerate(word):
                        gen_terms = dz[lbl] if typ == "h" else dzbar[lbl]
                        rest = word[:pos] + word[pos + 1 :]
                        rest_h = tuple(l for t, l in rest if t == "h")
                        rest_a = tuple(l for t, l in rest if t == "a")
                        parity = -1 if pos % 2 else 1
                        for c, gh, ga in gen_terms:
                            # (d gen) ^ rest, with d gen in front
                            s, Ho, Ao = sort_covectors_sign(
                                tuple(gh) + rest_h, tuple(ga) + rest_a
                            )
                            if s == 0:
                                continue
                            # move the anti part of d gen past rest's holo part
                            swap = -1 if (len(ga) * len(rest_h)) % 2 else 1
                            coef = parity * swap * s * c
                            po, qo = len(Ho), len(Ao)
                            if po > n or qo > n:
                                continue
                            row = self.catalog.flat_index((), Ho, Ao, po, qo)
                            if (po, qo) == (p + 1, q):
                                self._del[(p, q)][row, col] += coef
                            elif (po, qo) == (p, q + 1):
                                self._dbar[(p, q)][row, col] += coef
                            else:
                                raise ModelError(
                                    "differential leaves the (p+1,q)/(p,q+1) "
                                    "bidegrees; model is not integrable"
                                )

    def _fill_spectral(self):
        n = self.n
        modes = np.array(self.catalog.modes)  # (M, 2n)
        # d e_m = e_m * sum_j [ pi*i*(m_j - i m_{n+j}) dz^j
        #                     + pi*i*(m_j + i m_{n+j}) dzbar^j ]
        c_del = np.pi * 1j * (modes[:, :n] - 1j * modes[:, n:])  # (M, n)
        c_dbar = np.pi * 1j * (modes[:, :n] + 1j * modes[:, n:])
        for p in range(n + 1):
            for q in range(n + 1):
                structs, _ = self.catalog.struct_indices(p, q)
                S = self.catalog.struct_dim(p, q)
                for col_s, (I, J) in enumerate(structs):
                    for j in range(1, n + 1):
                        # dz^j ^ phi^I ^ phibar^J
                        if j not in I and p + 1 <= n:
                            s, Ho, Ao = sort_covectors_sign((j,) + I, J)
                            So = self.catalog.struct_dim(p + 1, q)
                            _, pos = self.catalog.struct_indices(p + 1, q)
                            r = pos[(Ho, Ao)]
                            for mi in range(len(modes)):
                                self._del[(p, q)][mi * So + r, mi * S + col_s] += (
                                    s * c_del[mi, j - 1]
                                )
                        # dzbar^j ^ phi^I ^ phibar^J: move past the p holos
                        if j not in J and q + 1 <= n:
                            s, Ho, Ao = sort_covectors_sign(I, (j,) + J)
                            swap = -1 if p % 2 else 1
                            So = self.catalog.struct_dim(p, q + 1)
                            _, pos = self.catalog.struct_indices(p, q + 1)
                            r = pos[(Ho, Ao)]
                            for mi in range(len(modes)):
                                self._dbar[(p, q)][mi * So + r, mi * S + col_s] += (
                                    swap * s * c_dbar[mi, j - 1]
                                )

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
        """del delbar : Lambda^{p,q} -> Lambda^{p+1,q+1}."""
        return self.del_matrix(p, q + 1) @ self.dbar_matrix(p, q)

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

    # -- quadrature / evaluation (spectral) -------------------------------

    @property
    def grid(self):
        if self.backend != "spectral":
            return (1,)
        return tuple(self.model.grid)

    def nodes(self):
        """Quadrature node coordinates, shape (X, 2n); invariant backend has
        the single formal node."""
        if self.backend != "spectral":
            return np.zeros((1, 0))
        axes = [np.arange(g) / g for g in self.grid]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def eval_matrix(self):
        """Plane-wave matrix E with E[x, m] = exp(2 pi i m . x_node); the
        invariant backend returns [[1]]."""
        if self._eval_matrix is None:
            if self.backend != "spectral":
                self._eval_matrix = np.ones((1, 1), dtype=complex)
            else:
                x = self.nodes()
                m = np.array(self.catalog.modes)
                self._eval_matrix = np.exp(2j * np.pi * (x @ m.T))
        return self._eval_matrix

    def mode_difference_weights(self):
        """Quadrature at the differences of two modes, for the Gram matrices.

        Returns (W, index).  W[r, x] = exp(-2 pi i d_r . x_node) / X over
        the distinct differences d_r = m_i - m_j with d_r >= -d_r
        (lexicographically), so W @ f holds the Fourier coefficients of a
        node function f at those d_r; index[i, j] is r where m_i - m_j = d_r
        and len(W) + r where m_i - m_j = -d_r.  The invariant backend
        returns ([[1]], [[0]])."""
        if self._difference_weights is None:
            pos, rows, flipped = {}, [], []
            for mi in self.catalog.modes:
                for mj in self.catalog.modes:
                    d = tuple(a - b for a, b in zip(mi, mj))
                    rep = max(d, tuple(-c for c in d))
                    rows.append(pos.setdefault(rep, len(pos)))
                    flipped.append(d != rep)
            M = self.catalog.n_modes
            index = (np.array(rows) + len(pos) * np.array(flipped)).reshape(M, M)
            D = np.array(list(pos), dtype=int).reshape(len(pos), -1)
            grid = np.array(self.grid)[: D.shape[1]]  # no axes when invariant
            # d . x in whole units of 1/L, reduced to (-L/2, L/2] before exp
            L = math.lcm(*grid.tolist())
            j = np.indices(tuple(grid)).reshape(len(grid), self.n_nodes)
            r = (D * (L // grid)) @ j % L
            r = np.where(2 * r > L, r - L, r)
            W = np.exp(-2j * np.pi * r / L) / self.n_nodes
            self._difference_weights = (W, index)
        return self._difference_weights

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
        the in-set modes.  values has shape (X, S)."""
        if self.backend != "spectral":
            return np.asarray(values).reshape(-1)
        grid = self.grid
        S = values.shape[1]
        v = np.asarray(values, dtype=complex).reshape(*grid, S)
        ax = tuple(range(len(grid)))
        chat = np.fft.fftn(v, axes=ax) / self.n_nodes
        out = np.empty((self.catalog.n_modes, S), dtype=complex)
        for i, m in enumerate(self.catalog.modes):
            idx = tuple(mi % g for mi, g in zip(m, grid))
            out[i] = chat[idx]
        return out.reshape(-1)

    # -- helpers -----------------------------------------------------------

    def zero(self, p, q):
        return zero_form(self.catalog, p, q)

    def basis_form(self, mode, I, J):
        return basis_form(self.catalog, mode, I, J)

    def hermitian_form(self, h, mode=None) -> Form:
        """The (1,1)-form i sum_jk h_jk e_mode dz^j ^ dzbar^k for an n x n
        matrix h; the zero mode by default."""
        cat = self.catalog
        if mode is None:
            mode = tuple([0] * len(cat.modes[0]))
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
        for mode, mat in getattr(self.model, "metric_modes", {}).items():
            if tuple(mode) not in cat.modes:
                raise ModelError(f"metric_mode {mode} is not in the mode set")
            u = u + self.hermitian_form(mat, mode)
        pot = getattr(self.model, "potential_modes", {})
        if pot:
            v = zero_form(cat, 1, 0)
            for mode, vec in pot.items():
                if tuple(mode) not in cat.modes:
                    raise ModelError(f"potential mode {mode} is not in the mode set")
                for j in range(n):
                    if vec[j] != 0:
                        v.coeffs[cat.flat_index(tuple(mode), (j + 1,), ())] = vec[j]
            u = u + self.apply_dbar(v) + self.apply_del(conjugate(v))
        return u

    def random_form(self, p, q, rng, real=False):
        c = rng.standard_normal(self.dims(p, q)) + 1j * rng.standard_normal(
            self.dims(p, q)
        )
        u = Form(self.catalog, Bidegree(p, q), c)
        if real:
            u = 0.5 * (u + conjugate(u)) if p == q else u
        return u


def build_complex(model) -> FormComplex:
    """Assemble the validated model into a FormComplex."""
    model.validate()
    if isinstance(model, InvariantModel):
        return FormComplex(BasisCatalog(model.n, ((),)), "invariant", model)
    if isinstance(model, SpectralTorusModel):
        return FormComplex(
            BasisCatalog(model.n, model.mode_set), "spectral", model
        )
    raise TypeError(f"unknown model type {type(model)!r}")


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
    t = text.strip()
    m = _COMPLEX_RE.match(t)
    if not m or (m.group("im") and not m.group("i")):
        raise ModelError(f"bad complex literal {text!r}", line)
    if m.group("i"):
        if m.group("im") is not None:
            re_part = float(m.group("re")) if m.group("re") else 0.0
            im_part = float(m.group("im").replace(" ", ""))
        else:
            re_part = 0.0
            im_part = float(m.group("re")) if m.group("re") else 1.0
    else:
        if m.group("im") is not None:
            raise ModelError(f"bad complex literal {text!r}", line)
        if m.group("re") is None:
            raise ModelError(f"bad complex literal {text!r}", line)
        re_part = float(m.group("re"))
        im_part = 0.0
    return complex(re_part, im_part)


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


def _split_terms(rhs):
    """Split a sum of terms on top-level '+' (not inside a coefficient sign)."""
    parts = []
    depth = 0
    cur = ""
    for ch in rhs:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0 and cur.strip().endswith((")",)):
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    return parts


def parse_model(text: str):
    """Parse the line-oriented model grammar; see the package README for the
    full syntax.  Raises ModelError with line information."""
    kind = None
    n = None
    d_phi = {}
    mode_lines = []  # (mode, line)
    axis_spec = None
    grid = grid_ln = None
    metric_entries = {}  # (mode or None, i, j) -> (complex, line)
    potential_entries = {}  # (mode, j) -> (complex, line)
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        head = tok[0]
        if head == "kind":
            if len(tok) != 2 or tok[1] not in ("invariant", "spectral"):
                raise ModelError("kind must be 'invariant' or 'spectral'", ln)
            kind = tok[1]
        elif head == "n":
            try:
                n = int(tok[1])
            except (IndexError, ValueError):
                raise ModelError("n requires an integer", ln)
            if n < 1:
                raise ModelError(f"n must be at least 1, got {n}", ln)
        elif head == "d":
            if kind != "invariant":
                raise ModelError("'d' lines require kind invariant (declare kind first)", ln)
            m = re.match(r"^d\s+(\d+)\s*:=\s*(.*)$", line)
            if not m:
                raise ModelError("expected 'd <k> := <terms>'", ln)
            k = int(m.group(1))
            rhs = m.group(2).strip()
            terms = {}
            if rhs not in ("0", ""):
                for part in _split_terms(rhs):
                    tm = _TERM_RE.match(part)
                    if not tm:
                        raise ModelError(f"bad term {part.strip()!r}", ln)
                    c = parse_complex(tm.group("coef"), ln)
                    key = (tm.group("kind"), int(tm.group("i")), int(tm.group("j")))
                    terms[key] = terms.get(key, 0) + c
            d_phi[k] = terms
        elif head == "modes":
            if not re.fullmatch(r"modes\s+axis\s+K\s+-?\d+", line):
                raise ModelError("expected 'modes axis K <int>'", ln)
            axis_spec = int(tok[3])
        elif head == "mode":
            try:
                mode_lines.append((tuple(int(t) for t in tok[1:]), ln))
            except ValueError:
                raise ModelError("mode components must be integers", ln)
        elif head == "grid":
            try:
                grid = [int(t) for t in tok[1:]]
            except ValueError:
                raise ModelError("grid values must be integers", ln)
            if not grid:
                raise ModelError("grid requires an integer", ln)
            grid_ln = ln
        elif head == "metric":
            m = re.match(r"^metric\s+h\s+(\d+)\s+(\d+)\s*:=\s*(.*)$", line)
            if not m:
                raise ModelError("expected 'metric h <i> <j> := <complex>'", ln)
            metric_entries[(None, int(m.group(1)), int(m.group(2)))] = (
                parse_complex(m.group(3), ln), ln)
        elif head == "potential":
            m = re.match(
                r"^potential\s+((?:-?\d+\s+)+)u\s+(\d+)\s*:=\s*(.*)$", line
            )
            if not m:
                raise ModelError(
                    "expected 'potential <2n ints> u <j> := <complex>'", ln
                )
            mode = tuple(int(t) for t in m.group(1).split())
            potential_entries[(mode, int(m.group(2)))] = (
                parse_complex(m.group(3), ln), ln)
        elif head == "metric_mode":
            m = re.match(
                r"^metric_mode\s+((?:-?\d+\s+)+)h\s+(\d+)\s+(\d+)\s*:=\s*(.*)$", line
            )
            if not m:
                raise ModelError(
                    "expected 'metric_mode <2n ints> h <i> <j> := <complex>'", ln
                )
            mode = tuple(int(t) for t in m.group(1).split())
            metric_entries[(mode, int(m.group(2)), int(m.group(3)))] = (
                parse_complex(m.group(4), ln), ln)
        else:
            raise ModelError(f"unknown directive {head!r}", ln)
    if kind is None:
        raise ModelError("missing 'kind' line")
    if n is None:
        raise ModelError("missing 'n' line")

    const_h = None
    metric_modes = {}
    for (mk, i, j), (c, ln) in metric_entries.items():
        if not (1 <= i <= n and 1 <= j <= n):
            raise ModelError(f"metric index ({i},{j}) out of range 1..{n}", ln)
        if mk is None:
            if const_h is None:
                const_h = np.zeros((n, n), dtype=complex)
            const_h[i - 1, j - 1] = c
        elif len(mk) != 2 * n:
            raise ModelError(
                f"metric_mode mode has {len(mk)} components, expected {2 * n}", ln)
        else:
            metric_modes.setdefault(mk, np.zeros((n, n), dtype=complex))[i - 1, j - 1] = c

    if kind == "invariant":
        if (mode_lines or axis_spec is not None or grid is not None
                or potential_entries or metric_modes):
            raise ModelError("spectral directives in an invariant model")
        model = InvariantModel(n=n, d_phi=d_phi, metric=const_h)
        model.validate()
        # d^2 = 0 and integrability checked by assembling once
        build_complex(model)
        return model

    for mode, ln in mode_lines:
        if len(mode) != 2 * n:
            raise ModelError(f"mode has {len(mode)} components, expected {2 * n}", ln)
        if axis_spec is not None:
            raise ModelError("'mode' lines cannot be combined with 'modes axis K'", ln)
    if axis_spec is not None:
        modes = SpectralTorusModel.axis_modes(n, axis_spec)
    elif mode_lines:
        modes = tuple(mode for mode, _ in mode_lines)
    else:
        raise ModelError("spectral model needs 'modes axis K' or 'mode' lines")
    floor = [4 * max(abs(m[a]) for m in modes) + 1 for a in range(2 * n)]
    if grid is None:
        grid = [max(floor)]
    if len(grid) == 1:
        # one value: that many nodes on every axis that carries modes
        grid = [grid[0] if f > 1 else 1 for f in floor]
    elif len(grid) != 2 * n:
        raise ModelError(f"grid takes 1 or {2 * n} values, got {len(grid)}", grid_ln)
    potential_modes = {}
    for (mk, j), (c, ln) in potential_entries.items():
        if len(mk) != 2 * n:
            raise ModelError(f"potential mode has {len(mk)} components, expected {2 * n}", ln)
        if not (1 <= j <= n):
            raise ModelError(f"potential index {j} out of range 1..{n}", ln)
        potential_modes.setdefault(mk, np.zeros(n, dtype=complex))[j - 1] = c
    model = SpectralTorusModel(
        n=n,
        mode_set=tuple(modes),
        grid=tuple(grid),
        metric=const_h,
        metric_modes=metric_modes,
        potential_modes=potential_modes,
    )
    model.validate(grid_line=grid_ln)
    return model
