"""Minimal-norm solution operators, the Kahler construction inside an
Aeppli potential class, and deformation-family diagnostics.

The two solution operators are Green-operator formulas for the minimal
L^2-norm solutions of del dbar u = v and dbar phi = rho; both are checked
against their preconditions (membership of the right-hand side in the
operator image) before being applied.  Families are given by model files
whose numeric coefficients may be polynomials in a real parameter t; each
sample is instantiated, validated and measured independently.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .backends import (ModelError, build_complex, format_complex, parse_complex,
                       parse_model)
from .cohomology import KERNEL_RCOND, green_operator
from .energy import differential_riesz
from .forms import Bidegree, Form, conjugate
from .metric import HermitianStructure, MetricError, check_strong_positivity_11
from .torsion import CLASSIFY_TOL, hs_feasible, torsion_form

__all__ = [
    "HypothesisError",
    "MinSolution",
    "min_ddbar_solution",
    "NeumannSolution",
    "neumann_dbar_solution",
    "KahlerReport",
    "kahler_in_class",
    "FamilySpec",
    "parse_family",
    "FamilyTable",
    "family_diagnostics",
]


class HypothesisError(ValueError):
    """A solution operator was applied outside its validity hypothesis."""


# ---------------------------------------------------------------------------
# minimal-norm solution operators
# ---------------------------------------------------------------------------


@dataclass
class MinSolution:
    """Minimal-norm solution with certification numbers.

    residual: relative equation residual of the returned solution,
    image_distance: relative distance of the right-hand side to the
        operator's image (precondition quantity),
    norm: solution norm in the source Gram geometry.
    """

    u: Form
    residual: float
    image_distance: float
    norm: float


def min_ddbar_solution(H: HermitianStructure, v: Form,
                       tol: float = CLASSIFY_TOL,
                       rcond: float = KERNEL_RCOND) -> MinSolution:
    """Minimal L^2-norm solution of del dbar u = v via the Green-operator
    formula u = (del dbar)* Delta_BC^{-1} v.

    Requires v in the image of del dbar (relative distance <= tol)."""
    p, q = v.p, v.q
    if p < 1 or q < 1:
        raise HypothesisError("right-hand side must have bidegree >= (1,1)")
    cx = H.complex
    A = cx.ddbar_matrix(p - 1, q - 1)
    _, dist = H.lstsq((p - 1, q - 1), [(A, (p, q), v.coeffs)])
    scale = 1.0 + H.norm(v)
    if dist > tol * scale:
        raise HypothesisError(
            f"right-hand side is not del-dbar-exact: relative distance "
            f"{dist / scale:.3e}"
        )
    ge = green_operator(H, p, q, "bc", rcond)
    u_c = H.ddbar_adjoint(p - 1, q - 1) @ (ge.pinv @ v.coeffs)
    u = Form(cx.catalog, Bidegree(p - 1, q - 1), u_c)
    res = H.norm(Form(cx.catalog, v.bidegree, A @ u_c) - v) / scale
    return MinSolution(u=u, residual=res, image_distance=dist / scale,
                       norm=H.norm(u))


@dataclass
class NeumannSolution:
    """Minimal-norm dbar-potential with its certification numbers.

    commutation_gap measures || dbar* Green rho - Green dbar* rho ||, the
    operator-identity used to pass the formula through limits."""

    phi: Form
    residual: float
    image_distance: float
    commutation_gap: float
    norm: float


def neumann_dbar_solution(H: HermitianStructure, rho: Form,
                          tol: float = CLASSIFY_TOL,
                          rcond: float = KERNEL_RCOND) -> NeumannSolution:
    """Minimal L^2-norm solution of dbar phi = rho via the Neumann formula
    phi = dbar* Delta_dbar^{-1} rho.

    Requires rho dbar-exact (relative distance <= tol)."""
    p, q = rho.p, rho.q
    if q < 1:
        raise HypothesisError("right-hand side must have dbar-degree >= 1")
    cx = H.complex
    A = cx.dbar_matrix(p, q - 1)
    _, dist = H.lstsq((p, q - 1), [(A, (p, q), rho.coeffs)])
    scale = 1.0 + H.norm(rho)
    if dist > tol * scale:
        raise HypothesisError(
            f"right-hand side is not dbar-exact: relative distance "
            f"{dist / scale:.3e}"
        )
    ge = green_operator(H, p, q, "dbar", rcond)
    phi_c = H.dbar_adjoint(p, q - 1) @ (ge.pinv @ rho.coeffs)
    phi = Form(cx.catalog, Bidegree(p, q - 1), phi_c)
    res = H.norm(Form(cx.catalog, rho.bidegree, A @ phi_c) - rho) / scale
    # commutation: dbar* Green = Green' dbar* on the lower bidegree
    ge_low = green_operator(H, p, q - 1, "dbar", rcond)
    other = ge_low.pinv @ (H.dbar_adjoint(p, q - 1) @ rho.coeffs)
    gap = H.norm(phi - Form(cx.catalog, phi.bidegree, other)) / scale
    return NeumannSolution(phi=phi, residual=res, image_distance=dist / scale,
                           commutation_gap=gap, norm=H.norm(phi))


# ---------------------------------------------------------------------------
# Kahler construction in the potential class
# ---------------------------------------------------------------------------


@dataclass
class KahlerReport:
    """Certification of the constructed candidate metric.

    The candidate differs from the input by del conj(u_min) + dbar u_min,
    so potential-class membership is exact by construction."""

    u_min: Form
    omega_tilde: Form
    d_residual: float
    hypothesis_distance: float
    positivity: object
    u_norm: float


def kahler_in_class(H: HermitianStructure, tol: float = CLASSIFY_TOL,
                    rcond: float = KERNEL_RCOND) -> KahlerReport:
    """Candidate closed metric omega + del conj(u_min) + dbar u_min with
    u_min = -(del dbar)* Delta_BC^{-1}(del omega).

    Requires del omega in Im(del dbar); the candidate is d-closed exactly
    when that hypothesis holds, and its positivity is reported but not
    guaranteed."""
    cx = H.complex
    dw = cx.apply_del(H.omega)  # (2,1)
    _, dist = H.lstsq((1, 0), [(cx.ddbar_matrix(1, 0), (2, 1), dw.coeffs)])
    scale = 1.0 + H.norm(dw)
    if dist > tol * scale:
        raise HypothesisError(
            f"del omega is not del-dbar-exact: relative distance "
            f"{dist / scale:.3e}"
        )
    ge = green_operator(H, 2, 1, "bc", rcond)
    u_c = -(H.ddbar_adjoint(1, 0) @ (ge.pinv @ dw.coeffs))
    u = Form(cx.catalog, Bidegree(1, 0), u_c)
    wt = H.omega + cx.apply_del(conjugate(u)) + cx.apply_dbar(u)
    dp, dq = cx.d_full(wt)
    try:
        Ht = HermitianStructure(cx, omega=wt)
        d_res = (Ht.norm(dp) + Ht.norm(dq)) / (1.0 + Ht.norm(wt))
        pos = check_strong_positivity_11(Ht, wt)
    except MetricError:
        d_res = (H.norm(dp) + H.norm(dq)) / (1.0 + H.norm(wt))
        pos = check_strong_positivity_11(H, wt)
    return KahlerReport(
        u_min=u,
        omega_tilde=wt,
        d_residual=d_res,
        hypothesis_distance=dist / scale,
        positivity=pos,
        u_norm=H.norm(u),
    )


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

_POLY_RE = re.compile(r"poly\(\s*([^)]*)\)")
_TSAMPLES_RE = re.compile(r"^t_samples\s*:?=?\s*(.*)$")


def _poly_coefficients(args, line=None):
    """The complex literals c0, c1, ... of 'poly(c0, c1, ...)'."""
    return [parse_complex(c, line) for c in args.split(",")]


@dataclass
class FamilySpec:
    """A one-parameter family of models: template lines whose poly(...)
    coefficients are evaluated at each sample of t."""

    template_lines: list
    t_samples: list

    def __post_init__(self):
        if not any(t == 0.0 for t in self.t_samples):
            raise ModelError("t_samples must include 0")

    def instantiate_text(self, t: float) -> str:
        out = []
        for line in self.template_lines:
            def sub(m):
                coefs = _poly_coefficients(m.group(1))
                val = sum(c * t**k for k, c in enumerate(coefs))
                return format_complex(val)
            out.append(_POLY_RE.sub(sub, line))
        return "\n".join(out) + "\n"

    def model(self, t: float):
        return parse_model(self.instantiate_text(t))


def parse_family(text: str) -> FamilySpec:
    """Split a family file into its t_samples directive and the model
    template; every model instantiated at a sample must validate."""
    t_samples = None
    template = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        m = _TSAMPLES_RE.match(stripped)
        if m:
            try:
                t_samples = [float(x) for x in re.split(r"[,\s]+", m.group(1)) if x]
            except ValueError:
                raise ModelError("t_samples must be a list of reals", ln)
            continue
        for m in _POLY_RE.finditer(raw):
            _poly_coefficients(m.group(1), ln)
        template.append(raw)
    if not t_samples:
        raise ModelError("family file needs a 't_samples' line")
    spec = FamilySpec(template_lines=template, t_samples=t_samples)
    for t in t_samples:
        spec.model(t)  # validation side effect
    return spec


@dataclass
class FamilyTable:
    """Per-sample diagnostics; rows are aligned to the t grid."""

    rows: list = field(default_factory=list)
    flagged: list = field(default_factory=list)  # t values of flagged rows

    FIELDS = [
        "t", "feasible", "h_bc_02", "h_bc_21", "h_dbar_01", "h_dbar_02",
        "rho_norm", "rho_diff", "crit_sup", "beta_residual",
        "kahler_distance", "kahler_d_residual", "flagged",
    ]

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=self.FIELDS)
            w.writeheader()
            for row in self.rows:
                w.writerow({k: row.get(k, "") for k in self.FIELDS})

    def __str__(self):
        lines = ["  ".join(self.FIELDS)]
        for row in self.rows:
            lines.append("  ".join(str(row.get(k, "")) for k in self.FIELDS))
        return "\n".join(lines)


def _dims_row(H):
    """The four dimension columns, and whether every kernel split behind
    them is reliable (GramEig.separation_ok)."""
    row, reliable = {}, True
    for label, (p, q), which in [("h_bc_02", (0, 2), "bc"),
                                 ("h_bc_21", (2, 1), "bc"),
                                 ("h_dbar_01", (0, 1), "dbar"),
                                 ("h_dbar_02", (0, 2), "dbar")]:
        ge = green_operator(H, p, q, which)
        row[label] = ge.kernel_dim
        reliable = reliable and ge.separation_ok
    return row, reliable


def family_diagnostics(spec: FamilySpec, tol: float = CLASSIFY_TOL,
                       directions: int | None = None,
                       flow_first: bool = False,
                       flow_kwargs: dict | None = None) -> FamilyTable:
    """Measure the family at every sample: cohomology dimensions, torsion
    norms and drift from t=0, the criticality sup over a fixed direction
    set, the Neumann potential residual for the (0,2) torsion, and the
    Kahler-construction numbers.

    Rows whose dimension counts differ from the t=0 row are flagged (the
    constant-dimension hypothesis of the deformation propositions fails
    there); rows with an unreliable kernel split and infeasible metrics are
    flagged as well, the latter with their torsion columns left empty.
    With flow_first, each sample's metric is first driven to a critical
    point of the energy before being measured."""
    table = FamilyTable()
    samples = sorted(spec.t_samples, key=lambda t: (t != 0.0, abs(t), t))
    base_dims = None
    rho0 = None
    H0 = None
    for t in samples:
        model = spec.model(t)
        cx = build_complex(model)
        H = HermitianStructure(cx, omega=cx.metric_form())
        if flow_first:
            from .energy import AeppliPoint, gradient_descent

            res = gradient_descent(AeppliPoint(cx, H.omega),
                                   **(flow_kwargs or {}))
            H = res.point.structure()
        row = {"t": t}
        dims, reliable = _dims_row(H)
        row.update(dims)
        feas = hs_feasible(H, tol=tol)
        row["feasible"] = feas.feasible
        flagged = not reliable
        if base_dims is None:
            base_dims = {k: row[k] for k in
                         ("h_bc_02", "h_bc_21", "h_dbar_01", "h_dbar_02")}
        elif any(row[k] != base_dims[k] for k in base_dims):
            flagged = True
        if feas.feasible:
            rep = torsion_form(H, tol=tol)
            row["rho_norm"] = rep.norm
            if t == 0.0:
                rho0, H0 = rep.rho, H
            if rho0 is not None and rep.rho.coeffs.shape == rho0.coeffs.shape:
                row["rho_diff"] = H0.norm(
                    Form(H0.complex.catalog, Bidegree(2, 0),
                         rep.rho.coeffs - rho0.coeffs)
                )
            c = differential_riesz(H, rep.rho20)
            N = len(c)
            k = N if directions is None else min(directions, N)
            # sup of |dF| over the first k coordinate directions and their
            # i-rotations, normalized in the base Gram
            G = H.gram(1, 0)
            sup = 0.0
            for j in range(k):
                e = np.zeros(N, dtype=complex)
                e[j] = 1.0
                nrm = np.sqrt(max((np.conj(e) @ (G @ e)).real, 1e-300))
                sup = max(sup, abs(np.real(np.conj(c) @ e)) / nrm,
                          abs(np.real(np.conj(c) @ (1j * e))) / nrm)
            row["crit_sup"] = sup
            try:
                nb = neumann_dbar_solution(H, rep.rho02, tol=tol)
                row["beta_residual"] = nb.residual
            except HypothesisError:
                row["beta_residual"] = ""
            try:
                kr = kahler_in_class(H, tol=tol)
                row["kahler_distance"] = kr.hypothesis_distance
                row["kahler_d_residual"] = kr.d_residual
            except HypothesisError as e:
                row["kahler_distance"] = str(e)
                row["kahler_d_residual"] = ""
        else:
            flagged = True
        row["flagged"] = flagged
        if flagged:
            table.flagged.append(t)
        table.rows.append(row)
    table.rows.sort(key=lambda r: r["t"])
    return table
