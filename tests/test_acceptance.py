"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single PASS/FAIL line (visible with pytest -v -s or in
captured output) and then asserts, so a red run names the broken guarantee
directly.  Tolerances are stated inline and are not adjusted per platform.
"""

import math
import time

import numpy as np
import pytest

from hstorsion.backends import build_complex, parse_model
from hstorsion.cohomology import (cohomology_table, green_operator,
                                  harmonic_projection)
from hstorsion.deform import family_diagnostics, kahler_in_class, parse_family
from hstorsion.energy import (AeppliPoint, corollary_check, differential,
                              differential_riesz, differential_special,
                              energy, fd_differential, gradient_descent)
from hstorsion.forms import Bidegree, Form, conjugate, wedge, zero_form
from hstorsion.metric import HermitianStructure
from hstorsion.torsion import torsion_form

from conftest import (FAMILY_TEXT, IWASAWA_TEXT, POTENTIAL_FAMILY, SPECTRAL_TEXT,
                      TORUS_TEXT, coefficient_laplacian, random_hermitian_structure)


def _report(num, name, ok, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}  [{detail}]"
    print(line)
    assert ok, line


def _builtin_complexes():
    return [build_complex(parse_model(t))
            for t in (TORUS_TEXT, IWASAWA_TEXT, SPECTRAL_TEXT)]


def _perturbed_structure(cx, rng, amp=0.005):
    u = amp * cx.random_form(1, 0, rng)
    flat = HermitianStructure(cx, h=np.eye(cx.n)).omega
    w = flat + cx.apply_dbar(u) + cx.apply_del(conjugate(u))
    return HermitianStructure(cx, omega=w), u


# --------------------------------------------------------------------------
# 1. complex identities
# --------------------------------------------------------------------------


def test_criterion_01_complex_identities():
    t0 = time.monotonic()
    worst = 0.0
    for cx in _builtin_complexes():
        n = cx.n
        for p in range(n + 1):
            for q in range(n + 1):
                if p + 2 <= n:
                    M = cx.del_matrix(p + 1, q) @ cx.del_matrix(p, q)
                    worst = max(worst, np.abs(M).max() if M.size else 0.0)
                if q + 2 <= n:
                    M = cx.dbar_matrix(p, q + 1) @ cx.dbar_matrix(p, q)
                    worst = max(worst, np.abs(M).max() if M.size else 0.0)
                if p + 1 <= n and q + 1 <= n:
                    M = (cx.del_matrix(p, q + 1) @ cx.dbar_matrix(p, q)
                         + cx.dbar_matrix(p + 1, q) @ cx.del_matrix(p, q))
                    worst = max(worst, np.abs(M).max() if M.size else 0.0)
    # the adjoint complexes of 100 random metrics must satisfy the mirrored
    # identities (these do depend on the metric)
    cx = build_complex(parse_model(IWASAWA_TEXT))
    rng = np.random.default_rng(11)
    for _ in range(100):
        H = random_hermitian_structure(cx, rng)

        def del_adjoint(p, q):  # by a solve
            return H.adjoint_matrix(cx.del_matrix(p, q), (p, q), (p + 1, q))

        def dbar_adjoint(p, q):
            return H.adjoint_matrix(cx.dbar_matrix(p, q), (p, q), (p, q + 1))

        A = dbar_adjoint(1, 0) @ dbar_adjoint(1, 1)  # (1,2) -> (1,0)
        worst = max(worst, np.abs(A).max())
        B = (del_adjoint(0, 1) @ dbar_adjoint(1, 1)
             + dbar_adjoint(0, 1) @ del_adjoint(0, 2))
        worst = max(worst, np.abs(B).max())
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(1, "complex identities", ok,
            f"worst {worst:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Hodge star
# --------------------------------------------------------------------------


def test_criterion_02_hodge_star():
    cx = build_complex(parse_model(IWASAWA_TEXT))
    rng = np.random.default_rng(22)
    n = cx.n
    worst_power = 0.0
    worst_invol = 0.0
    for _ in range(5):
        H = random_hermitian_structure(cx, rng)
        for k in range(n + 1):
            err = H.norm(H.hodge_star(H.omega_power(k)) - H.omega_power(n - k))
            worst_power = max(worst_power, err / (1 + H.norm(H.omega_power(n - k))))
        for (p, q) in [(1, 0), (0, 1), (2, 1), (1, 2), (3, 2)]:
            u = cx.random_form(p, q, rng)
            err = H.norm(H.hodge_star(H.hodge_star(u)) + u) / (1 + H.norm(u))
            worst_invol = max(worst_invol, err)
    # primitive-form formula on 50 random primitive forms
    H = random_hermitian_structure(cx, np.random.default_rng(23))
    worst_prim = 0.0
    count = 0
    bidegrees = [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]
    rng = np.random.default_rng(24)
    while count < 50:
        p, q = bidegrees[count % len(bidegrees)]
        u = cx.random_form(p, q, rng)
        if p >= 1 and q >= 1:
            L = H.lefschetz_matrix(p - 1, q - 1)
            Lad = H.adjoint_matrix(L, (p - 1, q - 1), (p, q))
            sol = np.linalg.lstsq(Lad @ L, Lad @ u.coeffs, rcond=None)[0]
            u.coeffs = u.coeffs - L @ sol
        assert H.is_primitive(u)[0]
        d = p + q
        sign = (-1.0) ** (d * (d + 1) // 2) * (1j) ** (p - q)
        rhs = sign * wedge(u, H.omega_power(H.n - p - q))
        worst_prim = max(worst_prim,
                         H.norm(H.hodge_star(u) - rhs) / (1 + H.norm(u)))
        count += 1
    ok = worst_power <= 1e-10 and worst_prim <= 1e-8 and worst_invol <= 1e-12
    _report(2, "hodge star", ok,
            f"powers {worst_power:.2e}, primitive {worst_prim:.2e}, "
            f"involution {worst_invol:.2e}")


# --------------------------------------------------------------------------
# 3. adjointness, decompositions, Green property
# --------------------------------------------------------------------------


def test_criterion_03_adjointness_and_green():
    cx = build_complex(parse_model(IWASAWA_TEXT))
    rng = np.random.default_rng(33)
    worst_adj = 0.0
    pairs = 0
    while pairs < 200:
        H = random_hermitian_structure(cx, rng)
        for (p, q) in [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]:
            u = cx.random_form(p, q, rng)
            if p + 1 <= cx.n:
                v = cx.random_form(p + 1, q, rng)
                lhs = H.ip(cx.apply_del(u), v)
                rhs = H.ip(u, H.apply_adjoint("del", v))
                worst_adj = max(worst_adj, abs(lhs - rhs) / (1 + abs(lhs)))
                pairs += 1
            if q + 1 <= cx.n:
                w = cx.random_form(p, q + 1, rng)
                lhs = H.ip(cx.apply_dbar(u), w)
                rhs = H.ip(u, H.apply_adjoint("dbar", w))
                worst_adj = max(worst_adj, abs(lhs - rhs) / (1 + abs(lhs)))
                pairs += 1
    worst_dec = 0.0
    H = random_hermitian_structure(cx, np.random.default_rng(34))
    for which in ("bc", "dbar"):
        for (p, q) in [(2, 0), (1, 1), (0, 2)]:
            g = cx.random_form(p, q, np.random.default_rng(35 + p + q))
            eig = green_operator(H, p, q, which)
            L = coefficient_laplacian(H, which, p, q)
            harm = harmonic_projection(H, g, which)
            # two-space decomposition: g = harmonic + Laplacian of Green
            resid = g.coeffs - harm.coeffs - L @ (eig.pinv @ g.coeffs)
            worst_dec = max(worst_dec,
                            np.linalg.norm(resid) / max(np.linalg.norm(g.coeffs), 1e-30))
            # Green kills harmonics
            worst_dec = max(worst_dec, np.linalg.norm(eig.pinv @ harm.coeffs))
    ok = worst_adj <= 1e-10 and worst_dec <= 1e-8
    _report(3, "adjointness and Green property", ok,
            f"adjoint {worst_adj:.2e} on {pairs} pairs, decomposition {worst_dec:.2e}")


# --------------------------------------------------------------------------
# 4. cohomology tables
# --------------------------------------------------------------------------


def test_criterion_04_cohomology_tables():
    torus = HermitianStructure(build_complex(parse_model(TORUS_TEXT)), h=np.eye(3))
    iwa = build_complex(parse_model(IWASAWA_TEXT))
    iwaH = HermitianStructure(iwa, h=np.eye(3))
    # dual-method agreement is enforced inside cohomology_table (raises)
    t_torus = cohomology_table(torus)
    t_iwa = cohomology_table(iwaH)
    spec = build_complex(parse_model(SPECTRAL_TEXT))
    t_spec = cohomology_table(HermitianStructure(spec, omega=spec.metric_form()))
    checks = (t_torus.entries[(0, 2)]["bc"] == 3
              and t_torus.entries[(1, 1)]["aeppli"] == 9
              and t_iwa.entries[(0, 1)]["dbar"] == 2)
    agree = all(a == b for _, _, _, a, b in
                t_torus.cross_checks + t_iwa.cross_checks + t_spec.cross_checks)
    ok = checks and agree
    _report(4, "cohomology tables", ok,
            f"torus h_bc(0,2)={t_torus.entries[(0, 2)]['bc']}, "
            f"h_a(1,1)={t_torus.entries[(1, 1)]['aeppli']}, "
            f"iwasawa h_dbar(0,1)={t_iwa.entries[(0, 1)]['dbar']}, "
            f"dual-method exact={agree}")


# --------------------------------------------------------------------------
# 5. torsion formula vs oracle on perturbed spectral metrics
# --------------------------------------------------------------------------


def test_criterion_05_torsion_formula():
    t0 = time.monotonic()
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    rng = np.random.default_rng(55)
    worst_res = 0.0
    worst_gap = 0.0
    for k in range(20):
        H, _ = _perturbed_structure(cx, rng, amp=0.003 + 0.0005 * k)
        rep = torsion_form(H)
        worst_res = max(worst_res, rep.residual_constraint, rep.residual_closed)
        worst_gap = max(worst_gap, rep.minimality_gap)
    elapsed = time.monotonic() - t0
    ok = worst_res <= 1e-8 and worst_gap <= 1e-6 and elapsed < 60.0
    _report(5, "torsion formula", ok,
            f"20 metrics, residual {worst_res:.2e}, oracle gap {worst_gap:.2e}, "
            f"{elapsed:.0f}s")


# --------------------------------------------------------------------------
# 6. differential of F vs finite differences
# --------------------------------------------------------------------------


def test_criterion_06_differential():
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    rng = np.random.default_rng(66)
    worst_rel = 0.0
    second_order = True
    pairs = 0
    for _ in range(5):
        H, u0 = _perturbed_structure(cx, rng, amp=0.005)
        point = AeppliPoint(cx, H.omega)
        _, rep = energy(H)
        c = differential_riesz(H, rep.rho20)
        for _ in range(4):
            v = cx.random_form(1, 0, rng)
            exact = float(np.real(np.conj(c) @ v.coeffs))
            errs = {h: abs(fd_differential(point, v, h=h) - exact)
                    for h in (1e-2, 1e-3)}
            best = min(errs.values())
            worst_rel = max(worst_rel, best / (1 + abs(exact)))
            # central differences: a decade in step is two decades in error
            if errs[1e-2] > 1e-9:
                second_order &= errs[1e-3] <= 0.05 * errs[1e-2]
            pairs += 1
    # Kahler point: the differential vanishes in every basis direction
    torus = build_complex(parse_model(TORUS_TEXT))
    Hk = HermitianStructure(torus, h=np.eye(3))
    ck = differential_riesz(Hk)
    kahler_sup = float(np.abs(ck).max())
    for i in range(torus.dims(1, 0)):
        e = zero_form(torus.catalog, 1, 0)
        e.coeffs[i] = 1.0
        kahler_sup = max(kahler_sup, abs(differential(Hk, e)))
    ok = worst_rel <= 1e-4 and second_order and kahler_sup <= 1e-10
    _report(6, "differential of F", ok,
            f"{pairs} pairs, best-step rel {worst_rel:.2e}, "
            f"second-order {second_order}, kahler sup {kahler_sup:.2e}")


# --------------------------------------------------------------------------
# 7. specialized differential formula
# --------------------------------------------------------------------------


def test_criterion_07_special_formula():
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    rng = np.random.default_rng(77)
    worst = 0.0
    for k in range(20):
        H, _ = _perturbed_structure(cx, rng, amp=0.003 + 0.0005 * k)
        rep = torsion_form(H)
        xi = Form(cx.catalog, Bidegree(1, 0),
                  H.lstsq((1, 0), [("del", rep.rho20.coeffs)])[0])
        val, pre = differential_special(H, xi)
        assert pre <= 1e-8
        general = differential(H, xi, rep.rho20)
        worst = max(worst, abs(val - general) / (1 + abs(general)))
    # the n=3 correction term is dbar(omega_{n-3}) = dbar(1) = 0
    H, _ = _perturbed_structure(cx, np.random.default_rng(78))
    w0 = H.omega_power(0)
    tail = H.norm(cx.apply_dbar(w0)) if cx.dims(0, 1) else 0.0
    ok = worst <= 1e-8 and tail <= 1e-12
    _report(7, "specialized differential", ok,
            f"20 points, formula gap {worst:.2e}, n=3 term {tail:.2e}")


# --------------------------------------------------------------------------
# 8. flow to Kahler
# --------------------------------------------------------------------------


def test_criterion_08_flow():
    t0 = time.monotonic()
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    assert len(cx.catalog.modes) == 13
    H = HermitianStructure(cx, omega=cx.metric_form())
    assert H.positivity_margin >= 0.5
    point = AeppliPoint(cx, H.omega)
    res = gradient_descent(point, max_iters=500)
    elapsed = time.monotonic() - t0
    es = [row["energy"] for row in res.history]
    monotone = all(b <= a + 1e-12 for a, b in zip(es, es[1:]))
    ok = (res.status == "converged" and res.energy <= 1e-6
          and res.d_residual <= 1e-4 and len(res.history) - 1 <= 500
          and monotone and elapsed < 300.0)
    _report(8, "flow to Kahler", ok,
            f"status {res.status}, F {res.energy:.1e}, "
            f"d-residual {res.d_residual:.1e}, "
            f"{len(res.history) - 1} iters, monotone {monotone}, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# 9. Kahler construction along a potential family
# --------------------------------------------------------------------------


def test_criterion_09_kahler_construction():
    cx = build_complex(parse_model("kind spectral\nn 3\nmodes axis K 1\n"))
    rng = np.random.default_rng(99)
    v = 0.01 * cx.random_form(1, 0, rng)
    flat = HermitianStructure(cx, h=np.eye(3)).omega
    gamma = cx.apply_del(conjugate(v)) + cx.apply_dbar(v)
    worst_d = 0.0
    all_positive = True
    threshold = 0.5  # sampled |t| below which positivity is expected
    for t in (0.0, 0.1, 0.2, -0.2, 0.4):
        assert abs(t) < threshold
        Ht = HermitianStructure(cx, omega=flat + t * gamma)
        kr = kahler_in_class(Ht)
        worst_d = max(worst_d, kr.d_residual)
        all_positive &= kr.positivity.verdict == "positive"
        if t == 0.0:
            exact_zero = float(np.abs(kr.u_min.coeffs).max()) == 0.0
    ok = worst_d <= 1e-8 and all_positive and exact_zero
    _report(9, "Kahler construction", ok,
            f"d-residual {worst_d:.2e}, positive {all_positive}, "
            f"u_min(0) exactly zero {exact_zero}")


# --------------------------------------------------------------------------
# 10. closedness diagnostics along families
# --------------------------------------------------------------------------

def _flowed_crit_sup(template, t):
    """family_diagnostics' crit_sup of the sample at t, measured after a
    gradient flow of its metric towards a critical point of the energy."""
    cx = build_complex(template.model(t))
    H = gradient_descent(AeppliPoint(cx, cx.metric_form())).point.structure()
    c = differential_riesz(H, torsion_form(H).rho20)
    nrm = np.sqrt(np.maximum(H.gram(1, 0).diagonal().real, 1e-300))
    return float(np.max(np.maximum(np.abs(c.real), np.abs(c.imag)) / nrm))


def test_criterion_10_family_diagnostics():
    spec = parse_family(POTENTIAL_FAMILY)
    table = family_diagnostics(spec)
    rows = {row["t"]: row for row in table.rows}
    assert not table.flagged
    ts = [0.0625, 0.125, 0.25, 0.5]
    diffs = [rows[t]["rho_diff"] for t in ts]
    # observed convergence order of rho_t -> rho_0 on the dyadic grid
    orders = [math.log2(diffs[i + 1] / diffs[i]) for i in range(len(ts) - 1)]
    order_ok = min(orders) >= 1.0 - 0.1
    # criticality sup at 0 vs pre-flowed t != 0 samples
    sup0 = _flowed_crit_sup(spec, 0.0)
    sup_rest = max(_flowed_crit_sup(spec, t) for t in ts)
    crit_ok = sup0 <= sup_rest + 1e-6
    jump = family_diagnostics(parse_family(FAMILY_TEXT))
    jump_ok = 1.0 in jump.flagged
    ok = order_ok and crit_ok and jump_ok
    _report(10, "family diagnostics", ok,
            f"order {min(orders):.2f}, crit sup0 {sup0:.1e} vs {sup_rest:.1e}, "
            f"jump flagged {jump_ok}")


# --------------------------------------------------------------------------
# 11. corollary checker
# --------------------------------------------------------------------------


def test_criterion_11_corollary_checker():
    t0 = time.monotonic()
    # semi-positive dbar(xi) + vanishing differential -> rho = 0
    torus = build_complex(parse_model(TORUS_TEXT))
    Hk = HermitianStructure(torus, h=np.eye(3))
    xi0 = zero_form(torus.catalog, 1, 0)
    good = corollary_check(Hk, xi0)
    derives = (good.conclusion == "kahler" and good.differential_vanishes
               and good.rho_norm <= 1e-10)
    # indefinite dbar(xi) -> refutation witness
    cx = build_complex(parse_model(SPECTRAL_TEXT))
    H, _ = _perturbed_structure(cx, np.random.default_rng(111))
    rep = torsion_form(H)
    xi = Form(cx.catalog, Bidegree(1, 0),
              H.lstsq((1, 0), [("del", rep.rho20.coeffs)])[0])
    bad = corollary_check(H, xi)
    refutes = (bad.positivity.verdict == "refuted"
               and bad.positivity.witness is not None
               and bad.conclusion == "inconclusive")
    elapsed = time.monotonic() - t0
    ok = derives and refutes and elapsed < 10.0
    _report(11, "corollary checker", ok,
            f"derives rho=0 {derives}, refutation witness {refutes}, "
            f"{elapsed:.1f}s")
