"""The torsion energy functional on an Aeppli potential class, its
differential, and a projected gradient descent.

Metrics are parametrized by a fixed Hermitian-symplectic base omega_0 and a
(1,0)-form potential u through

    omega_u = omega_0 + del conj(u) + dbar u,

which sweeps the Aeppli class of omega_0.  The functional is
F(omega) = ||rho_omega||^2 for the (2,0) torsion form rho_omega; its
differential along gamma = dbar u + del conj(u) is

    dF(gamma) = -2 Re <<u, dbar* omega>> + 2 Re int u ^ rho ^ conj(rho)
                                                   ^ dbar(omega_{n-3}),

whose second term vanishes identically in complex dimension 3.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .forms import Bidegree, Form, conjugate, wedge_values, zero_form
from .metric import HermitianStructure, MetricError, check_weak_positivity
from .torsion import CLASSIFY_TOL, TorsionReport, min_norm_torsion, torsion_form

__all__ = [
    "AeppliPoint",
    "energy",
    "differential",
    "differential_riesz",
    "differential_special",
    "CorollaryReport",
    "corollary_check",
    "fd_differential",
    "fd_step_sweep",
    "FlowResult",
    "gradient_descent",
]


# ---------------------------------------------------------------------------
# points of the potential class
# ---------------------------------------------------------------------------


class AeppliPoint:
    """A metric omega_0 + del conj(u) + dbar u in the potential class of a
    Hermitian-symplectic base metric."""

    def __init__(self, complex_, omega0: Form, u: Form | None = None):
        self.complex = complex_
        self.omega0 = omega0
        if u is None:
            u = zero_form(complex_.catalog, 1, 0)
        if (u.p, u.q) != (1, 0):
            raise ValueError("potential must be a (1,0)-form")
        self.u = u
        self._structure = None

    def realized(self) -> Form:
        cx = self.complex
        return (
            self.omega0
            + cx.apply_del(conjugate(self.u))
            + cx.apply_dbar(self.u)
        )

    def structure(self, floor: float = 0.0) -> HermitianStructure:
        """The metric's structure, built on the first call.  Raises
        MetricError unless h(x) - floor I is positive definite at every
        node, which the HermitianStructure constructor decides, also for a
        later call with floor > 0."""
        if self._structure is None:
            self._structure = HermitianStructure(self.complex, omega=self.realized(),
                                                 floor=floor)
        elif floor > 0:
            HermitianStructure(self.complex, omega=self._structure.omega, floor=floor)
        return self._structure

    def moved(self, v: Form) -> "AeppliPoint":
        return AeppliPoint(self.complex, self.omega0, self.u + v)


# ---------------------------------------------------------------------------
# energy and differential
# ---------------------------------------------------------------------------


def _structure(target) -> HermitianStructure:
    if isinstance(target, AeppliPoint):
        return target.structure()
    return target


def energy(target):
    """(F, TorsionReport) for an AeppliPoint or HermitianStructure."""
    rep = torsion_form(_structure(target))
    return rep.norm**2, rep


def _torsion_wedge_functional(H: HermitianStructure, rho: Form):
    """Coefficients b with int e_j ^ rho ^ conj(rho) ^ dbar(omega_{n-3})
    = b_j over the (1,0) basis e_j = e_m dz^k, in its flat order (m, k);
    zero below n = 4.  The tail is wedged once at the nodes, then dz^k ^
    tail for every k at once, paired with the plane waves of each slab,
    waves * phases[s] (FormComplex.slab_waves)."""
    cx, n = H.complex, H.n
    if n < 4:
        return np.zeros(cx.dims(1, 0), dtype=complex)
    # dbar(omega_{n-3}) = dbar(omega) ^ omega^{n-4} / (n-4)!; 2-forms commute
    slabs, bd = H._node_product([rho, cx.apply_dbar(H.omega), conjugate(rho)]
                                + [H.omega] * (n - 4))
    waves, phases = cx.slab_waves()
    b = 0.0
    for values, phase in zip(slabs, phases):
        top = wedge_values(cx.catalog, Bidegree(1, 0), bd, np.eye(n), values[:, None, :])
        b = b + phase[:, None] * (waves @ top[..., 0])
    scale = H._vol_unit / (math.factorial(n - 4) * cx.n_nodes)
    return b.reshape(-1) * scale


def differential_riesz(H: HermitianStructure, rho: Form | None = None):
    """Riesz data of the differential of F at H.omega.

    Returns c with dF(gamma_v) = Re(c^H v) for potential directions v, where
    gamma_v = dbar v + del conj(v)."""
    if rho is None:
        _, rep = energy(H)
        rho = rep.rho20
    a = H.apply_adjoint("dbar", H.omega).coeffs  # dbar* omega, a (1,0)-form
    G = H.gram(1, 0)
    c = -2.0 * (G @ a)
    b = _torsion_wedge_functional(H, rho)
    c = c + 2.0 * np.conj(b)
    return c


def _riesz_gradient(G, c):
    """(g, slope, |g|) of the functional v -> Re(c^H v) in the Gram G: its
    Riesz representative g = G^{-1} c, slope = Re(c^H g) = |g|^2 in that
    Gram, and |g| = sqrt(max(slope, 0))."""
    g = np.linalg.solve(G, c)
    slope = float(np.real(np.conj(c) @ g))
    return g, slope, math.sqrt(max(slope, 0.0))


def differential(target, v: Form, rho: Form | None = None) -> float:
    """dF along the potential direction v (variation gamma = dbar v
    + del conj(v)) at an AeppliPoint or HermitianStructure."""
    H = _structure(target)
    c = differential_riesz(H, rho)
    return float(np.real(np.conj(c) @ v.coeffs))


def differential_special(target, xi: Form):
    """dF along gamma = dbar xi + del conj(xi) for the special case where
    the torsion form is rho = del xi:

        dF(gamma) = 2 ||rho||^2 + 2 Re int dbar(xi) ^ rho ^ conj(rho)
                                            ^ omega_{n-3}.

    Returns (value, precondition_residual); the residual measures
    ||rho - del xi|| relative to 1 + ||rho||, and a residual above
    CLASSIFY_TOL raises instead."""
    H = _structure(target)
    cx = H.complex
    n = H.n
    _, rep = energy(H)
    rho = rep.rho20
    dxi = cx.apply_del(xi)
    pre = H.norm(rho - dxi) / (1.0 + H.norm(rho))
    if pre > CLASSIFY_TOL:
        raise ValueError(
            f"torsion form is not del(xi): relative residual {pre:.3e}"
        )
    corr = 0.0  # below n = 3 the wedge's bidegree exceeds (n, n)
    if n >= 3:
        tail = [rho, conjugate(rho)] + [H.omega] * (n - 3)
        corr = H.integrate_product([cx.apply_dbar(xi)] + tail, 1.0 / math.factorial(n - 3))
    value = 2.0 * rep.norm**2 + 2.0 * corr.real
    return value, pre


@dataclass
class CorollaryReport:
    """Numerical replay of the criticality-implies-Kahler argument.

    When dbar(xi) is weakly semi-positive its wedge term against
    rho ^ conj(rho) ^ omega_{n-3} is non-negative, so a vanishing special
    differential 2||rho||^2 + (term >= 0) forces rho = 0."""

    positivity: object  # PositivityReport for dbar(xi)
    wedge_term: float
    differential_value: float
    differential_vanishes: bool
    rho_norm: float
    conclusion: str  # "kahler" | "inconclusive"


def corollary_check(target, xi: Form) -> CorollaryReport:
    """Check the hypotheses and conclusion of the criticality corollary at
    a point whose torsion form is rho = del xi; the differential vanishes
    when it is at most 1e-8 times 1 + ||rho||^2, and the conclusion is
    "kahler" only on a certified semi-positivity verdict for dbar(xi)."""
    H = _structure(target)
    value, _ = differential_special(H, xi)
    _, rep = energy(H)
    rho = rep.rho20
    wedge_term = value - 2.0 * rep.norm**2
    pos = check_weak_positivity(H, H.complex.apply_dbar(xi))
    scale = 1.0 + rep.norm**2
    vanishes = abs(value) <= 1e-8 * scale
    # semi-positive on the whole torus, not only at the nodes
    semi = pos.certified and pos.verdict in ("positive", "semi-positive")
    if semi and vanishes:
        conclusion = "kahler"  # 2||rho||^2 <= 0 forces rho = 0
    else:
        conclusion = "inconclusive"
    return CorollaryReport(
        positivity=pos,
        wedge_term=wedge_term,
        differential_value=value,
        differential_vanishes=vanishes,
        rho_norm=rep.norm,
        conclusion=conclusion,
    )


def fd_differential(point: AeppliPoint, v: Form, h: float = 1e-4):
    """Central finite difference of F along the potential direction v."""
    fp, _ = energy(point.moved(h * v).structure())
    fm, _ = energy(point.moved((-h) * v).structure())
    return (fp - fm) / (2.0 * h)


def fd_step_sweep(point: AeppliPoint, v: Form,
                  steps=(1e-2, 1e-3, 1e-4, 1e-5, 1e-6)):
    """Compare the analytic differential with central finite differences over
    a log sweep of step sizes.

    Returns (errors, best) where errors[h] is the absolute mismatch at step h
    and best is the smallest mismatch over the sweep."""
    exact = differential(point, v)
    errors = {}
    for h in steps:
        errors[h] = abs(fd_differential(point, v, h=h) - exact)
    return errors, min(errors.values())


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------


@dataclass
class FlowResult:
    """Trace of the energy descent.

    status: converged | stalled | positivity_blocked | max_iters,
    energy: F at the final point, from the minimal-norm oracle,
    certificate: torsion_form of the final point (the Green-formula torsion
        form with its closedness residuals and gap to the oracle),
    history: one dict per accepted iterate with keys
        iter, energy, grad_norm, step, margin, d_residual, potential
    (energy from the oracle; potential is a copy of the (1,0) potential
    coefficients).
    """

    status: str
    point: AeppliPoint
    energy: float
    d_residual: float
    certificate: TorsionReport
    history: list = field(default_factory=list)
    elapsed: float = 0.0


def _d_residual(H: HermitianStructure) -> float:
    dw_p, dw_q = H.complex.d_full(H.omega)
    return H.norm(dw_p) + H.norm(dw_q)


# the flow converges once F <= F_TOL and the d-residual <= D_TOL, and
# stalls once the gradient norm is <= GRAD_TOL; a line search starts from at
# most STEP0, asks the Armijo decrease ARMIJO * step * slope, keeps the
# positivity margin above POSITIVITY_FRAC times the initial one and gives up
# below MIN_STEP
F_TOL, D_TOL, GRAD_TOL, ARMIJO, STEP0, MIN_STEP = 1e-6, 1e-4, 1e-9, 1e-4, 1.0, 1e-14
POSITIVITY_FRAC = 1e-6


def gradient_descent(point0: AeppliPoint, max_iters: int = 500) -> FlowResult:
    """Projected gradient descent of F over the potential class.

    The gradient is the Riesz representative of dF in the fixed Gram
    geometry of the start metric's (1,0)-forms (the metric of point0, built
    once), so the flow stays inside the potential parametrization by
    construction.  Armijo backtracking halves the step until sufficient
    decrease holds and the realized metric keeps a positivity margin above
    POSITIVITY_FRAC times the initial margin.

    Every point, the start point and each trial, is judged by the
    minimal-norm solution rho of its closedness system (min_norm_torsion,
    which raises NotHermitianSymplectic on an infeasible one): F = ||rho||^2
    is the Armijo energy, and an accepted trial keeps it, with its rho for
    the differential, as its history row.  torsion_form runs once, on the
    final point, and is the result's certificate.
    """
    t0 = time.monotonic()
    cx = point0.complex
    point = point0
    H = point.structure()
    G0 = H.gram(1, 0)
    floor = POSITIVITY_FRAC * H.positivity_margin
    rho = min_norm_torsion(H)
    f = H.norm(rho) ** 2
    history = []
    status = "max_iters"
    step = STEP0

    def row(it, grad_norm, d_residual):
        return {"iter": it, "energy": f, "grad_norm": grad_norm, "step": step,
                "margin": H.positivity_margin, "d_residual": d_residual,
                "potential": point.u.coeffs.copy()}

    for it in range(max_iters + 1):
        g, slope, gnorm = _riesz_gradient(G0, differential_riesz(H, rho))
        history.append(row(it, gnorm, _d_residual(H)))
        if f <= F_TOL and history[-1]["d_residual"] <= D_TOL:
            status = "converged"
            break
        if it == max_iters:  # status max_iters, on the last accepted point
            break
        if gnorm <= GRAD_TOL:
            status = "stalled"
            break
        direction = Form(cx.catalog, Bidegree(1, 0), -g)
        step = min(STEP0, 2.0 * step)
        blocked_only = True
        while step >= MIN_STEP:
            trial = point.moved(step * direction)
            try:
                # the Weyl bound or one Cholesky sweep decides positivity
                # above the floor
                Ht = trial.structure(floor)
            except MetricError:
                step *= 0.5
                continue
            blocked_only = False
            rt = min_norm_torsion(Ht)
            ft = Ht.norm(rt) ** 2
            if ft <= f - ARMIJO * step * slope:
                point, H, f, rho = trial, Ht, ft, rt
                break
            step *= 0.5
        else:
            status = "positivity_blocked" if blocked_only else "stalled"
            break
    return FlowResult(status=status, point=point, energy=f,
                      d_residual=history[-1]["d_residual"],
                      certificate=torsion_form(H), history=history,
                      elapsed=time.monotonic() - t0)
