"""The benchmark's workloads: seeded inputs, the operations they run through
hstorsion, and the checks on every output.

Each workload runs in *units*, the smallest piece of work that is repeated
unchanged: one CLI command for the flow and family workloads, a fixed batch
of operations for the sweep.  A unit is a list of ops; an op's ``run`` is
timed, its ``check`` (untimed) returns the list of problems found.

The flow and family inputs are a fixed base model (the SPECTRAL_TEXT
potentials of the README on n=3, K=1, and a two-potential family shaped like
acceptance criterion 10's POTENTIAL_FAMILY on n=2, K=2) moved by a seeded
holomorphic isometry of the flat torus that maps the quadrature grid to
itself: a permutation of the complex coordinates, a rotation z_j -> i^k z_j
of each coordinate and a translation by grid steps.
Every seed therefore poses the same problem in other coordinates: the model
text, the basis order and the phases differ, but the flow takes the same
line-search path, so run time does not depend on the seed.  The sweep draws
a fresh random metric for every op; its cost does not depend on it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math

import numpy as np

from hstorsion import backends, cli, cohomology, deform, energy, metric, torsion
from hstorsion.forms import Bidegree, Form

CLOSED_TOL = 1e-8   # torsion closedness residual
GAP_TOL = 1e-6      # formula vs min-norm oracle
D_TOL = 1e-8        # d-residual of a Kahler candidate, Neumann residual

TORUS_TEXT = "kind invariant\nn 3\n"
IWASAWA_TEXT = "kind invariant\nn 3\nd 3 := -1 * e(1,2)\n"

# (mode, component j, coefficient) of the potential u_j e_mode dz^j
FLOW_POTENTIAL = [((1, 0, 0, 0, 0, 0), 2, 0.04),
                  ((0, 1, 0, 0, 0, 0), 3, 0.03 + 0.02j),
                  ((0, 0, 0, 1, 0, 0), 1, 0.02j)]
# the shape of acceptance criterion 10's POTENTIAL_FAMILY, on n=2, K=2
FAMILY_POTENTIAL = [((2, 0, 0, 0), 2, 0.04),
                    ((0, 2, 0, 0), 1, 0.03 + 0.02j)]
FAMILY_T = (0.0, 0.0625, 0.125, 0.25, 0.5)
K1_GRID = 5  # 4K+1 nodes per axis for modes axis K 1
K2_GRID = 9  # and for modes axis K 2

# Iwasawa manifold, invariant forms: (h_dbar, h_bc, h_aeppli) per bidegree,
# as in Angella, J. Geom. Anal. 23 (2013), "The cohomologies of the Iwasawa
# manifold and of its small deformations".
IWASAWA_TABLE = {
    (0, 0): (1, 1, 1), (0, 1): (2, 2, 3), (0, 2): (2, 3, 2), (0, 3): (1, 1, 1),
    (1, 0): (3, 2, 3), (1, 1): (6, 4, 8), (1, 2): (6, 6, 6), (1, 3): (3, 2, 3),
    (2, 0): (3, 3, 2), (2, 1): (6, 6, 6), (2, 2): (6, 8, 4), (2, 3): (3, 3, 2),
    (3, 0): (1, 1, 1), (3, 1): (2, 2, 3), (3, 2): (2, 3, 2), (3, 3): (1, 1, 1),
}


def torus_table(n):
    """Every cohomology of a torus (or of its spectral truncation) has
    dimension C(n,p) C(n,q) in bidegree (p,q)."""
    return {(p, q): (math.comb(n, p) * math.comb(n, q),) * 3
            for p in range(n + 1) for q in range(n + 1)}


def fmt_complex(z):
    z = complex(z)
    if z.imag == 0:
        return repr(z.real + 0.0)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real + 0.0!r}{sign}{abs(z.imag)!r}i"


def parse_complex(text):
    text = text.strip()
    return complex(text[:-1] + "j") if text.endswith("i") else complex(float(text))


class TorusIsometry:
    """A seeded holomorphic isometry of the flat torus R^2n / Z^2n, with
    z_j = x_j + i x_{n+j}, that maps the uniform grid of g nodes per axis to
    itself; pulls back potentials u_j e_m dz^j."""

    def __init__(self, n, grid, rng):
        self.n = n
        self.perm = rng.permutation(n)
        self.rot = rng.integers(0, 4, n)
        self.shift = rng.integers(0, grid, 2 * n) / grid

    def pull_back(self, mode, j, c):
        n = self.n
        m = list(mode)
        for a in range(n):
            for _ in range(self.rot[a]):  # z -> i z sends (x, y) to (-y, x)
                m[a], m[n + a] = m[n + a], -m[a]
        c = complex(c) * 1j ** int(self.rot[j - 1])
        out = [0] * (2 * n)
        for a in range(n):
            out[self.perm[a]], out[n + self.perm[a]] = m[a], m[n + a]
        c *= np.exp(2j * np.pi * float(np.dot(out, self.shift)))
        return tuple(out), int(self.perm[j - 1]) + 1, c


def _potential_lines(iso, potential, fmt):
    lines = []
    for mode, j, c in potential:
        m, j2, c2 = iso.pull_back(mode, j, c)
        lines.append(f"potential {' '.join(map(str, m))} u {j2} := {fmt(c2)}")
    return lines


def flow_model_text(rng):
    iso = TorusIsometry(3, K1_GRID, rng)
    return "\n".join(["kind spectral", "n 3", "modes axis K 1"]
                     + _potential_lines(iso, FLOW_POTENTIAL, fmt_complex)) + "\n"


def family_text(rng):
    iso = TorusIsometry(2, K2_GRID, rng)
    lines = _potential_lines(iso, FAMILY_POTENTIAL,
                             lambda c: f"poly(0, {fmt_complex(c)})")
    return "\n".join(["kind spectral", "n 2", "modes axis K 2"] + lines
                     + ["t_samples := " + " ".join(map(str, FAMILY_T))]) + "\n"


def run_cli(argv):
    """hstorsion.cli.run in-process with its report printing captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Op:
    def __init__(self, run, check):
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


class FlowWorkload:
    """`hstorsion flow` on a spectral n=3, K=1 model with three potentials."""

    name = "flow-n3k1"
    unit_label = "one flow command"
    tail_pct = 100
    trace_units = 1
    warmup = False
    # per-layer metrics that must record at least one call in a traced run
    layers = ("backends.build_complex", "metric.gram", "torsion.hs_feasible",
              "torsion.torsion_form", "energy.gradient_descent", "cli.run")

    def __init__(self, rng, out):
        self.out = out
        self.text = flow_model_text(rng)
        self.model_path = out / "flow.model"
        self.model_path.write_text(self.text)
        self.results = []

    def setup(self):
        self.cx = backends.build_complex(backends.parse_model(self.text))

    def unit(self, rng, k):
        out = self.out / f"flow-{k}"
        return [Op(lambda: run_cli(["flow", "--model", str(self.model_path),
                                    "--out", str(out)]),
                   lambda rc: self.check(rc, out))]

    def check(self, rc, out):
        if rc != 0:
            return [f"flow exit code {rc}"]
        problems = []
        report = (out / "flow_report.txt").read_text()
        if "status: converged" not in report:
            problems.append("flow did not converge")
        rows = read_csv(out / "flow.csv")
        es = [float(r["energy"]) for r in rows]
        if any(b > a + 1e-12 for a, b in zip(es, es[1:])):
            problems.append("energy increased along accepted steps")
        # certify the final point again from the written potential
        cx = self.cx
        u = np.zeros(cx.dims(1, 0), dtype=complex)
        for r in read_csv(out / "flow_potential.csv"):
            u[int(r["index"])] = parse_complex(r["value"])
        point = energy.AeppliPoint(cx, cx.metric_form(),
                                   Form(cx.catalog, Bidegree(1, 0), u))
        f, tr = energy.energy(point)
        if abs(f - es[-1]) > 1e-9 * abs(es[-1]):
            problems.append(f"final energy {es[-1]!r} not reproduced: {f!r}")
        if tr.closedness_residual > CLOSED_TOL or tr.minimality_gap > GAP_TOL:
            problems.append("torsion certificate of the final point failed")
        self.results.append({"iterations": len(rows) - 1, "final_energy": es[-1],
                             "initial_energy": es[0], "final_torsion_norm": tr.norm,
                             "closedness": tr.closedness_residual,
                             "gap": tr.minimality_gap})
        return problems


class FamilyWorkload:
    """`hstorsion family` on a five-sample potential family on the spectral
    n=2, K=2 torus."""

    name = "family-n2k2"
    unit_label = "one family command"
    tail_pct = 100
    trace_units = 5
    warmup = False
    layers = ("backends.build_complex", "metric.gram", "metric.chol",
              "metric.adjoint_matrix", "cohomology.laplacian",
              "cohomology.gram_eig", "deform.kahler_in_class",
              "deform.neumann_dbar_solution", "cli.run")

    def __init__(self, rng, out):
        self.out = out
        self.text = family_text(rng)
        self.model_path = out / "family.model"
        self.model_path.write_text(self.text)
        self.results = []

    def setup(self):
        backends.build_complex(deform.parse_family(self.text).model(0.0))

    def unit(self, rng, k):
        out = self.out / f"family-{k}"
        return [Op(lambda: run_cli(["family", "--model", str(self.model_path),
                                    "--out", str(out)]),
                   lambda rc: self.check(rc, out))]

    def check(self, rc, out):
        if rc != 0:
            return [f"family exit code {rc}"]
        rows = {float(r["t"]): r for r in read_csv(out / "family.csv")}
        if sorted(rows) != list(FAMILY_T):
            return [f"family rows {sorted(rows)}"]
        problems = []
        dims = torus_table(2)
        for t, r in rows.items():
            if r["feasible"] != "True" or r["flagged"] != "False":
                problems.append(f"t={t}: infeasible or flagged")
            for col, (p, q) in [("h_bc_02", (0, 2)), ("h_bc_21", (2, 1)),
                                ("h_dbar_01", (0, 1)), ("h_dbar_02", (0, 2))]:
                if int(r[col]) != dims[(p, q)][0]:
                    problems.append(f"t={t}: {col}={r[col]}")
            for col in ("beta_residual", "kahler_distance", "kahler_d_residual"):
                if not float(r[col]) <= D_TOL:
                    problems.append(f"t={t}: {col}={r[col]}")
        if float(rows[0.0]["rho_norm"]) != 0.0:
            problems.append("torsion of the flat metric is not zero")
        # rho_t - rho_0 = O(t): observed order on the dyadic samples
        diffs = [float(rows[t]["rho_diff"]) for t in FAMILY_T[1:]]
        if any(d <= 0 for d in diffs) or min(
                math.log2(b / a) for a, b in zip(diffs, diffs[1:])) < 0.9:
            problems.append(f"torsion drift not of order one in t: {diffs}")
        self.results.append({f"{col}@{t}": float(rows[t][col]) for t in FAMILY_T
                             for col in ("rho_norm", "rho_diff", "crit_sup")})
        return problems


# ---------------------------------------------------------------------------
# cold-metric sweep
# ---------------------------------------------------------------------------


def sweep_op(H):
    """One cold metric through classify, cohomology_table, energy with
    differential_riesz, and kahler_in_class."""
    out = {"flags": torsion.classify(H)}
    table = cohomology.cohomology_table(H)
    out["table"] = {pq: (e["dbar"], e["bc"], e["aeppli"])
                    for pq, e in table.entries.items()}
    try:
        f, tr = energy.energy(H)
        c = energy.differential_riesz(H, tr.rho20)
        out.update(F=f, torsion_norm=tr.norm, closed=tr.closedness_residual,
                   gap=tr.minimality_gap, riesz_norm=float(np.linalg.norm(c)))
    except torsion.NotHermitianSymplectic:
        out["energy"] = "NotHermitianSymplectic"
    try:
        kr = deform.kahler_in_class(H)
        out.update(kahler_d=kr.d_residual, kahler_u_norm=kr.u_norm)
    except deform.HypothesisError:
        out["kahler"] = "HypothesisError"
    return out


def check_sweep(res, table, hermitian_symplectic):
    """Problems in a sweep op's outputs; an H-s metric must certify its
    torsion and Kahler candidate, any other must be refused by both."""
    problems = []
    if res["table"] != table:
        problems.append("cohomology table differs from the reference")
    cls = res["flags"]
    if cls.hermitian_symplectic != hermitian_symplectic:
        problems.append(f"hermitian_symplectic flag {cls.hermitian_symplectic}")
    if hermitian_symplectic:
        if "F" not in res or "kahler_d" not in res:
            problems.append("energy or kahler refused an H-s metric")
        elif (res["closed"] > CLOSED_TOL or res["gap"] > GAP_TOL
              or res["kahler_d"] > D_TOL):
            problems.append("torsion or kahler certificate failed")
    elif "F" in res or "kahler_d" in res:
        problems.append("energy or kahler accepted a non-H-s metric")
    return problems


class InvariantSweep:
    """Cold random invariant metrics on the flat torus and on Iwasawa,
    alternating."""

    name = "sweep-invariant-n3"
    unit_label = "20 ops: 10 torus and 10 Iwasawa metrics"
    pairs_per_unit = 10
    tail_pct = 95
    trace_units = 10
    warmup = True
    layers = ("backends.build_complex", "metric.HermitianStructure",
              "cohomology.laplacian", "cohomology.gram_eig",
              "cohomology.cohomology_table", "torsion.classify",
              "energy.differential_riesz", "forms.wedge")

    def __init__(self, rng, out):
        self.results = []

    def setup(self):
        self.torus = backends.build_complex(backends.parse_model(TORUS_TEXT))
        self.iwasawa = backends.build_complex(backends.parse_model(IWASAWA_TEXT))

    def unit(self, rng, k):
        ops = []
        for _ in range(self.pairs_per_unit):
            for cx, table, hs in [(self.torus, torus_table(3), True),
                                  (self.iwasawa, IWASAWA_TABLE, False)]:
                A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                h = np.eye(3) + 0.2 * (A @ A.conj().T) / 3
                ops.append(Op(
                    lambda cx=cx, h=h: sweep_op(metric.HermitianStructure(cx, h=h)),
                    lambda res, table=table, hs=hs: self.check(res, table, hs)))
        return ops

    def check(self, res, table, hs):
        problems = check_sweep(res, table, hs)
        flags = res["flags"]
        if hs and not (flags.kahler and flags.skt and flags.balanced
                       and flags.strongly_gauduchon):
            problems.append("flat torus metric not in every class")
        if len(self.results) < 2:
            self.results.append({"model": "torus" if hs else "iwasawa"} | {
                k: res[k] for k in ("F", "torsion_norm", "riesz_norm") if k in res})
        return problems


WORKLOADS = {w.name: w for w in (FlowWorkload, FamilyWorkload, InvariantSweep)}
