"""Metric classification and the (2,0) torsion form of Hermitian-symplectic
metrics.

A metric omega is Hermitian-symplectic when the closedness system

    del rho = 0,    dbar rho = -del omega

admits a (2,0) solution rho; equivalently Omega = rho + omega + conj(rho)
is a real d-closed 2-form with (1,1) part omega.  The torsion form is the
unique solution of minimal L^2_omega norm.  It is computed two ways: the
closed Green-operator formula

    rho = -Delta_BC^{-1}( dbar* del omega + dbar* del del* del omega )

and an independent minimal-norm least-squares oracle; both are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import green_operator
from .forms import Bidegree, Form, conjugate
from .metric import HermitianStructure

__all__ = [
    "MetricClassification",
    "classify",
    "HSFeasibility",
    "hs_feasible",
    "min_norm_torsion",
    "TorsionReport",
    "torsion_form",
    "NotHermitianSymplectic",
]

CLASSIFY_TOL = 1e-8


class NotHermitianSymplectic(RuntimeError):
    """Torsion form requested for a metric with no closed completion."""


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass
class MetricClassification:
    """Structure flags for a Hermitian metric with their residuals.

    Residuals are relative (scaled by 1 + the norm of the quantity tested);
    a flag is True when its residual is at most tol.  The balanced and
    strongly-Gauduchon tests use omega^{n-1}; on a complex with more than one
    mode that power is mode-truncated, which the `truncated_power` flag records.
    """

    tol: float
    kahler: bool
    skt: bool
    balanced: bool
    strongly_gauduchon: bool
    hermitian_symplectic: bool
    residuals: dict = field(default_factory=dict)
    truncated_power: bool = False

    def __str__(self):
        rows = []
        for name in ("kahler", "skt", "balanced", "strongly_gauduchon",
                     "hermitian_symplectic"):
            rows.append(
                f"{name:22s} {str(getattr(self, name)):5s} "
                f"residual={self.residuals[name]:.3e}"
            )
        return "\n".join(rows)


def _rel(value, scale):
    return value / (1.0 + scale)


def classify(H: HermitianStructure, tol: float = CLASSIFY_TOL) -> MetricClassification:
    """Decide the standard metric classes for H.omega with residuals."""
    cx = H.complex
    n = H.n
    w = H.omega
    scale = H.norm(w)
    dw_p, dw_q = cx.d_full(w)
    res_kahler = _rel(H.norm(dw_p) + H.norm(dw_q), scale)

    ddbar_w = Form(cx.catalog, Bidegree(2, 2), cx.ddbar_matrix(1, 1) @ w.coeffs)
    res_skt = _rel(H.norm(ddbar_w), scale)

    wk = H.omega_power(n - 1)
    truncated = cx.catalog.n_modes > 1 and n - 1 >= 2
    dwk_p, dwk_q = cx.d_full(wk)
    res_balanced = _rel(H.norm(dwk_p) + H.norm(dwk_q), H.norm(wk))

    # strongly Gauduchon: del(omega^{n-1}) is dbar-exact in (n, n-1), measured
    # by the residual of H.lstsq on the whitened dbar of the (n, n-2)-forms
    v = dwk_p
    nv = H.norm(v)
    if nv <= tol * (1.0 + H.norm(wk)):
        res_sg = 0.0
    else:
        _, dist = H.lstsq((n, n - 2), [("dbar", v.coeffs)])
        res_sg = _rel(dist, H.norm(wk))

    feas = hs_feasible(H, tol=tol)
    res_hs = feas.residual

    return MetricClassification(
        tol=tol,
        kahler=res_kahler <= tol,
        skt=res_skt <= tol,
        balanced=res_balanced <= tol,
        strongly_gauduchon=res_sg <= tol,
        hermitian_symplectic=feas.feasible,
        residuals={
            "kahler": res_kahler,
            "skt": res_skt,
            "balanced": res_balanced,
            "strongly_gauduchon": res_sg,
            "hermitian_symplectic": res_hs,
        },
        truncated_power=truncated,
    )


# ---------------------------------------------------------------------------
# Hermitian-symplectic feasibility (minimal-norm oracle)
# ---------------------------------------------------------------------------


@dataclass
class HSFeasibility:
    """Outcome of the closedness system for a candidate (2,0) completion."""

    feasible: bool
    residual: float  # relative joint residual of (del rho, dbar rho + del omega)
    rho_min: Form | None  # minimal-norm least-squares solution
    tol: float


def hs_feasible(H: HermitianStructure, tol: float = CLASSIFY_TOL) -> HSFeasibility:
    """Solve del rho = 0, dbar rho = -del omega in the least-squares sense,
    picking the minimal L^2_omega-norm solution (H.lstsq on the whitened
    del and dbar of the (2,0)-forms).

    Feasibility holds when the joint residual (Gram norms on the target
    spaces) is at most tol relative to 1 + ||del omega||.  Solved once per
    metric and tol."""

    def build():
        cx = H.complex
        dw = cx.apply_del(H.omega)  # (2,1)
        # del rho = 0 (from n = 3 on) and dbar rho = -del omega
        blocks = [("del", np.zeros(cx.dims(3, 0), dtype=complex))] if H.n >= 3 else []
        blocks.append(("dbar", -dw.coeffs))
        x, resid = H.lstsq((2, 0), blocks)
        rel = resid / (1.0 + H.norm(dw))
        return HSFeasibility(
            feasible=rel <= tol,
            residual=rel,
            rho_min=Form(cx.catalog, Bidegree(2, 0), x),
            tol=tol,
        )

    return H._cached(("hs_feasible", tol), build)


def min_norm_torsion(H: HermitianStructure, tol: float = CLASSIFY_TOL) -> Form:
    """The minimal-norm solution of the closedness system (the oracle of
    torsion_form, without its certificate).

    Raises NotHermitianSymplectic when the system is infeasible at
    tolerance tol."""
    feas = hs_feasible(H, tol=tol)
    if not feas.feasible:
        raise NotHermitianSymplectic(
            f"closedness system infeasible: relative residual {feas.residual:.3e}"
        )
    return feas.rho_min


# ---------------------------------------------------------------------------
# torsion form
# ---------------------------------------------------------------------------


@dataclass
class TorsionReport:
    """Torsion form with its certification residuals.

    rho20: (2,0) torsion form from the Green-operator formula,
    rho02: its (0,2) conjugate,
    residual_constraint: relative norm of dbar(rho) + del(omega),
    residual_closed: relative norm of del(rho),
    minimality_gap: ||rho_formula - rho_oracle|| / (1 + ||rho_oracle||)
        against the independent minimal-norm least-squares solution,
    norm: L^2_omega norm of rho (sqrt of the energy).
    """

    rho20: Form
    rho02: Form
    residual_constraint: float
    residual_closed: float
    minimality_gap: float
    norm: float

    @property
    def closedness_residual(self) -> float:
        return self.residual_constraint + self.residual_closed


def torsion_form(H: HermitianStructure, tol: float = CLASSIFY_TOL) -> TorsionReport:
    """The (2,0) torsion form of a Hermitian-symplectic metric.

    Raises NotHermitianSymplectic when the closedness system is infeasible
    at tolerance tol."""
    rho_min = min_norm_torsion(H, tol=tol)
    cx = H.complex
    w = H.omega
    dw = cx.apply_del(w)  # (2,1)
    term1 = H.apply_dbar_adjoint(dw)  # (2,0)
    inner = H.apply_del_adjoint(dw)  # (1,1)
    term2 = H.apply_dbar_adjoint(cx.apply_del(inner))  # (2,0)
    src = term1 + term2
    ge = green_operator(H, 2, 0, "bc")
    rho = Form(cx.catalog, Bidegree(2, 0), -(ge.pinv @ src.coeffs))

    scale = 1.0 + H.norm(dw)
    res_constraint = H.norm(cx.apply_dbar(rho) + dw) / scale
    res_closed = H.norm(cx.apply_del(rho)) / scale if H.n >= 3 else 0.0

    gap = H.norm(rho - rho_min) / (1.0 + H.norm(rho_min))
    return TorsionReport(
        rho20=rho,
        rho02=conjugate(rho),
        residual_constraint=res_constraint,
        residual_closed=res_closed,
        minimality_gap=gap,
        norm=H.norm(rho),
    )
