"""Minimal-norm solution operators, the Kahler construction inside an
Aeppli potential class, and deformation-family diagnostics.

The two solution operators are Green-operator formulas for the minimal
L^2-norm solutions of del dbar u = v and dbar phi = rho; both are checked
against their preconditions (membership of the right-hand side in the
operator image) before being applied.  A family is a model template whose
coefficients may be polynomials in a real parameter t; each sample is
instantiated, validated and measured independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backends import ModelError, ModelTemplate, build_complex
from .cohomology import green_operator
from .energy import AeppliPoint, differential_riesz, gradient_descent
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


def _green_solve(H: HermitianStructure, v: Form, src, which: str, tol: float):
    """The minimal-norm solution x of D x = v for D = del dbar (which "bc")
    or dbar (which "dbar") on Lambda^src, by x = D* Green v, after checking
    that v lies in the image of D (relative distance <= tol): the distance
    is the residual of H.lstsq on the whitened D.

    Returns (x, residual, image_distance, scale) with residual and distance
    relative to scale = 1 + ||v||."""
    cx = H.complex
    kind = "ddbar" if which == "bc" else "dbar"
    _, dist = H.lstsq(src, [(kind, v.coeffs)])
    scale = 1.0 + H.norm(v)
    if dist > tol * scale:
        raise HypothesisError(
            f"right-hand side is not {'del-dbar' if which == 'bc' else 'dbar'}-exact: "
            f"relative distance {dist / scale:.3e}"
        )
    x_c = getattr(H, f"{kind}_adjoint")(*src) @ (
        green_operator(H, v.p, v.q, which).pinv @ v.coeffs)
    x = Form(cx.catalog, Bidegree(*src), x_c)
    A = getattr(cx, f"{kind}_matrix")(*src)
    res = H.norm(Form(cx.catalog, v.bidegree, A @ x_c) - v) / scale
    return x, res, dist / scale, scale


def min_ddbar_solution(H: HermitianStructure, v: Form,
                       tol: float = CLASSIFY_TOL) -> MinSolution:
    """Minimal L^2-norm solution of del dbar u = v via the Green-operator
    formula u = (del dbar)* Delta_BC^{-1} v.

    Requires v in the image of del dbar (relative distance <= tol)."""
    if v.p < 1 or v.q < 1:
        raise HypothesisError("right-hand side must have bidegree >= (1,1)")
    u, res, dist, _ = _green_solve(H, v, (v.p - 1, v.q - 1), "bc", tol)
    return MinSolution(u=u, residual=res, image_distance=dist, norm=H.norm(u))


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
                          tol: float = CLASSIFY_TOL) -> NeumannSolution:
    """Minimal L^2-norm solution of dbar phi = rho via the Neumann formula
    phi = dbar* Delta_dbar^{-1} rho.

    Requires rho dbar-exact (relative distance <= tol)."""
    p, q = rho.p, rho.q
    if q < 1:
        raise HypothesisError("right-hand side must have dbar-degree >= 1")
    phi, res, dist, scale = _green_solve(H, rho, (p, q - 1), "dbar", tol)
    # commutation: dbar* Green = Green' dbar* on the lower bidegree
    ge_low = green_operator(H, p, q - 1, "dbar")
    other = ge_low.pinv @ (H.dbar_adjoint(p, q - 1) @ rho.coeffs)
    gap = H.norm(phi - Form(H.complex.catalog, phi.bidegree, other)) / scale
    return NeumannSolution(phi=phi, residual=res, image_distance=dist,
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


def kahler_in_class(H: HermitianStructure, tol: float = CLASSIFY_TOL) -> KahlerReport:
    """Candidate closed metric omega + del conj(u_min) + dbar u_min with
    u_min = -(del dbar)* Delta_BC^{-1}(del omega), the negative of the
    minimal-norm solution of del dbar u = del omega.

    Requires del omega in Im(del dbar); the candidate is d-closed exactly
    when that hypothesis holds, and its positivity is reported but not
    guaranteed."""
    cx = H.complex
    sol = min_ddbar_solution(H, cx.apply_del(H.omega), tol)
    u = -sol.u
    wt = H.omega + cx.apply_del(conjugate(u)) + cx.apply_dbar(u)
    dp, dq = cx.d_full(wt)
    try:
        Ht = HermitianStructure(cx, omega=wt)
    except MetricError:  # not a metric: measure the candidate in H's geometry
        Ht = H
    d_res = (Ht.norm(dp) + Ht.norm(dq)) / (1.0 + Ht.norm(wt))
    pos = check_strong_positivity_11(Ht, wt)
    return KahlerReport(
        u_min=u,
        omega_tilde=wt,
        d_residual=d_res,
        hypothesis_distance=sol.image_distance,
        positivity=pos,
        u_norm=sol.norm,
    )


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

@dataclass
class FamilySpec:
    """A one-parameter family of models: a model template whose poly(...)
    coefficients are evaluated at each sample of t."""

    template: ModelTemplate
    t_samples: list

    def __post_init__(self):
        if not any(t == 0.0 for t in self.t_samples):
            raise ModelError("t_samples must include 0")

    def model(self, t: float):
        return self.template.model(t)


def parse_family(text: str) -> FamilySpec:
    """Read a family file, a model file with a t_samples line; every model
    instantiated at a sample must validate."""
    template = ModelTemplate(text, family=True)
    spec = FamilySpec(template, template.t_samples)
    for t in spec.t_samples:
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
                       flow_first: bool = False,
                       flow_kwargs: dict | None = None) -> FamilyTable:
    """Measure the family at every sample: cohomology dimensions, torsion
    norms and drift from t=0, the criticality sup over the coordinate
    directions of the (1,0) potentials and their i-rotations, the Neumann
    potential residual for the (0,2) torsion, and the Kahler-construction
    numbers.

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
        cx = build_complex(spec.model(t))
        point = AeppliPoint(cx, cx.metric_form())
        if flow_first:
            point = gradient_descent(point, **(flow_kwargs or {})).point
        H = point.structure()
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
                rho0, H0 = rep.rho20, H
            if rho0 is not None and rep.rho20.coeffs.shape == rho0.coeffs.shape:
                row["rho_diff"] = H0.norm(
                    Form(H0.complex.catalog, Bidegree(2, 0),
                         rep.rho20.coeffs - rho0.coeffs)
                )
            # sup of |dF| over the coordinate directions e_j and i e_j,
            # normalized in the Gram geometry of the (1,0)-forms
            c = differential_riesz(H, rep.rho20)
            nrm = np.sqrt(np.maximum(H.gram(1, 0).diagonal().real, 1e-300))
            row["crit_sup"] = float(np.max(np.maximum(np.abs(c.real), np.abs(c.imag)) / nrm))
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
