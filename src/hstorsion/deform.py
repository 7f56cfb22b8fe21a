"""Minimal-norm solution operators, the Kahler construction inside an
Aeppli potential class, and deformation-family diagnostics.

The two solution operators give the minimal L^2-norm solutions of
del dbar u = v and dbar phi = rho by the one whitened least-squares solve
(HermitianStructure.lstsq), whose residual first checks their precondition:
the right-hand side lies in the operator image.  The Neumann solution is
checked against the Green-operator formula, with the adjoint by a solve.  A
family is a model template whose coefficients may be polynomials in a real
parameter t; each sample is instantiated, validated and measured
independently.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .backends import ModelError, ModelTemplate, build_complex
from .cohomology import CohomologyMismatch, checked_counts, green_operator
from .energy import differential_riesz
from .forms import Bidegree, Form, conjugate
from .metric import (HermitianStructure, MetricError, PositivityReport,
                     check_weak_positivity)
from .torsion import CLASSIFY_TOL, hs_feasible, torsion_form

__all__ = [
    "HypothesisError",
    "MinSolution",
    "min_ddbar_solution",
    "NeumannSolution",
    "neumann_dbar_solution",
    "KahlerReport",
    "kahler_in_class",
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


def _min_norm_solve(H: HermitianStructure, v: Form, src, kind: str):
    """The minimal-norm solution x of D x = v for D = kind ("ddbar" or
    "dbar") on Lambda^src, by H.lstsq on the whitened D, after checking that
    v lies in the image of D (relative distance <= CLASSIFY_TOL): the
    distance is the residual of that lstsq.  The equation residual is
    recomputed from the unwhitened D.

    Returns (x, residual, image_distance, scale) with residual and distance
    relative to scale = 1 + ||v||."""
    cx = H.complex
    x, dist = H.lstsq(src, [(kind, v.coeffs)])
    scale = 1.0 + H.norm(v)
    if dist > CLASSIFY_TOL * scale:
        raise HypothesisError(
            f"right-hand side is not {'del-dbar' if kind == 'ddbar' else 'dbar'}-exact: "
            f"relative distance {dist / scale:.3e}"
        )
    A = getattr(cx, f"{kind}_matrix")(*src)
    res = H.norm(Form(cx.catalog, v.bidegree, A @ x) - v) / scale
    return Form(cx.catalog, Bidegree(*src), x), res, dist / scale, scale


def min_ddbar_solution(H: HermitianStructure, v: Form) -> MinSolution:
    """Minimal L^2-norm solution of del dbar u = v, the one the
    Green-operator formula u = (del dbar)* Delta_BC^{-1} v gives.

    Requires v in the image of del dbar (relative distance <= CLASSIFY_TOL)."""
    if v.p < 1 or v.q < 1:
        raise HypothesisError("right-hand side must have bidegree >= (1,1)")
    u, res, dist, _ = _min_norm_solve(H, v, (v.p - 1, v.q - 1), "ddbar")
    return MinSolution(u=u, residual=res, image_distance=dist, norm=H.norm(u))


@dataclass
class NeumannSolution:
    """Minimal-norm dbar-potential with its certification numbers.

    commutation_gap measures || phi - Green' dbar* rho ||, relative to
    1 + ||rho||: the distance of the least-squares phi from the Neumann
    formula passed through the identity dbar* Green = Green' dbar* (used to
    pass it through limits), with Green' the Green operator of the source
    bidegree and dbar* by a solve with the Grams."""

    phi: Form
    residual: float
    image_distance: float
    commutation_gap: float
    norm: float


def neumann_dbar_solution(H: HermitianStructure, rho: Form) -> NeumannSolution:
    """Minimal L^2-norm solution of dbar phi = rho, the one the Neumann
    formula phi = dbar* Delta_dbar^{-1} rho gives.

    Requires rho dbar-exact (relative distance <= CLASSIFY_TOL)."""
    p, q = rho.p, rho.q
    if q < 1:
        raise HypothesisError("right-hand side must have dbar-degree >= 1")
    phi, res, dist, scale = _min_norm_solve(H, rho, (p, q - 1), "dbar")
    # the formula's other side, Green' dbar* rho on the lower bidegree, with
    # dbar* by a solve, independent of the Cholesky factors
    dbar_star = H.adjoint_matrix(H.complex.dbar_matrix(p, q - 1), (p, q - 1), (p, q))
    other = green_operator(H, p, q - 1, "dbar").pinv @ (dbar_star @ rho.coeffs)
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
    so potential-class membership is exact by construction.  The report
    keeps the candidate's HermitianStructure (the input's when the
    candidate is not a metric), left out of repr and compare, and forms
    the positivity verdict from it when positivity is first read."""

    u_min: Form
    omega_tilde: Form
    d_residual: float
    hypothesis_distance: float
    u_norm: float
    structure: HermitianStructure = field(repr=False, compare=False)

    @functools.cached_property
    def positivity(self) -> PositivityReport:
        """check_weak_positivity of the candidate, formed on first read."""
        return check_weak_positivity(self.structure, self.omega_tilde)


def kahler_in_class(H: HermitianStructure) -> KahlerReport:
    """Candidate closed metric omega + del conj(u_min) + dbar u_min with
    u_min = -(del dbar)* Delta_BC^{-1}(del omega), the negative of the
    minimal-norm solution of del dbar u = del omega.

    Requires del omega in Im(del dbar); the candidate is d-closed exactly
    when that hypothesis holds.  Its positivity is not guaranteed, and the
    report forms the verdict only when it is read: building the candidate's
    structure takes no node values when the Weyl bound certifies it."""
    cx = H.complex
    sol = min_ddbar_solution(H, cx.apply_del(H.omega))
    u = -sol.u
    wt = H.omega + cx.apply_del(conjugate(u)) + cx.apply_dbar(u)
    dp, dq = cx.d_full(wt)
    try:
        Ht = HermitianStructure(cx, omega=wt)
    except MetricError:  # not a metric: measure the candidate in H's geometry
        Ht = H
    d_res = (Ht.norm(dp) + Ht.norm(dq)) / (1.0 + Ht.norm(wt))
    return KahlerReport(
        u_min=u,
        omega_tilde=wt,
        d_residual=d_res,
        hypothesis_distance=sol.image_distance,
        u_norm=sol.norm,
        structure=Ht,
    )


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

def parse_family(text: str) -> ModelTemplate:
    """Read a family file, a model file with a t_samples line, as the
    template of its models; the model at every sample must validate."""
    template = ModelTemplate(text, family=True)
    for t in template.t_samples:
        template.model(t)  # validation side effect
    return template


@dataclass
class FamilyTable:
    """Per-sample diagnostics; rows are aligned to the t grid."""

    rows: list = field(default_factory=list)
    flagged: list = field(default_factory=list)  # t values of flagged rows
    uncertified: list = field(default_factory=list)  # t of violated certificates

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


# the dimension columns of a family row and the Laplacians they count
_DIMS = {"h_bc_02": ("bc", 0, 2), "h_bc_21": ("bc", 2, 1),
         "h_dbar_01": ("dbar", 0, 1), "h_dbar_02": ("dbar", 0, 2)}


def _dims_row(H, t):
    """The four dimension columns of the sample t, each a kernel count that
    must equal the complex's quotient rank (else CohomologyMismatch), and
    whether every kernel split behind them is reliable (separation_ok)."""
    try:
        counts = checked_counts(H, list(_DIMS.values()))
    except CohomologyMismatch as e:
        raise CohomologyMismatch(f"{e} (sample t = {t!r})") from None
    return ({label: kernel for label, (kernel, _, _) in zip(_DIMS, counts)},
            all(separated for _, separated, _ in counts))


def family_diagnostics(template: ModelTemplate) -> FamilyTable:
    """Measure the family of a template at every sample of its t_samples,
    which must include 0: cohomology dimensions, torsion
    norms and drift from t=0, the criticality sup over the coordinate
    directions of the (1,0) potentials and their i-rotations, the Neumann
    potential residual for the (0,2) torsion, and the Kahler-construction
    numbers.

    Rows whose dimension counts differ from the t=0 row are flagged (the
    constant-dimension hypothesis of the deformation propositions fails
    there); rows with an unreliable kernel split and infeasible metrics are
    flagged as well, the latter with their torsion columns left empty.  A
    feasible sample whose torsion certificate is violated is listed in
    uncertified.  Every sample's model is validated before any is measured."""
    if template.t_samples is None:
        raise ModelError("missing 't_samples' line", template.lines["end"])
    if 0.0 not in template.t_samples:
        raise ModelError("t_samples must include 0")
    models = {t: template.model(t) for t in template.t_samples}
    table = FamilyTable()
    base_dims = None
    rho0 = None
    H0 = None
    for t in sorted(models, key=lambda t: (t != 0.0, abs(t), t)):
        cx = build_complex(models[t])
        try:
            H = HermitianStructure(cx, omega=cx.metric_form())
        except MetricError as e:
            raise MetricError(f"{e} (sample t = {t!r})") from None
        row = {"t": t}
        dims, reliable = _dims_row(H, t)
        row.update(dims)
        feas = hs_feasible(H)
        row["feasible"] = feas.feasible
        flagged = not reliable
        if base_dims is None:
            base_dims = dims
        elif dims != base_dims:
            flagged = True
        if feas.feasible:
            rep = torsion_form(H)
            if rep.violated:
                table.uncertified.append(t)
            row["rho_norm"] = rep.norm
            if t == 0.0:
                rho0, H0 = rep.rho20, H
            if rho0 is not None:
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
                nb = neumann_dbar_solution(H, rep.rho02)
                row["beta_residual"] = nb.residual
            except HypothesisError:
                row["beta_residual"] = ""
            try:
                kr = kahler_in_class(H)
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
