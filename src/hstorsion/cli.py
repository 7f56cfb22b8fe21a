"""Command-line interface: classify metrics, compute torsion forms and
energies, run gradient flows, build Kahler candidates, sweep families and
self-test the built-in models.

Exit codes: 0 success, 1 input or validation error, 2 violated numerical
contract (an internal cross-check such as formula-vs-oracle failed, or a
numerical breakdown such as a failed factorization).
Reports are written as a text file plus CSV files in the output directory;
complex CSV fields use the literal form a+bi.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backends import build_complex, format_complex, parse_model
from .cohomology import CohomologyMismatch, cohomology_table
from .deform import (FamilySpec, HypothesisError, family_diagnostics,
                     kahler_in_class, parse_family)
from .energy import AeppliPoint, differential_riesz, energy, gradient_descent
from .forms import conjugate
from .metric import HermitianStructure
from .models import IWASAWA_TEXT, SPECTRAL_TEXT, TORUS_TEXT
from .torsion import (CLASSIFY_TOL, NotHermitianSymplectic, classify,
                      torsion_form)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2


def _model_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class Report:
    """Accumulates the text report and writes it with a standard header."""

    def __init__(self, args, model_text=None):
        self.lines = [
            f"hstorsion {__version__}",
            f"command: {args.command}",
            f"model: {getattr(args, 'model', None)}",
            f"model_hash: {_model_hash(model_text) if model_text else '-'}",
            f"tol: {args.tol}",
            f"seed: {args.seed}",
            "",
        ]

    def add(self, *lines):
        for line in lines:
            self.lines.append(str(line))
            print(line)

    def write(self, out_dir: Path, name: str):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text("\n".join(self.lines) + "\n")


def _write_csv(path: Path, fieldnames, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fieldnames)
        w.writeheader()
        for row in rows:
            w.writerow({k: row[k] for k in fieldnames if k in row})


def _load(args):
    text = Path(args.model).read_text()
    model = parse_model(text)
    cx = build_complex(model)
    H = HermitianStructure(cx, omega=cx.metric_form())
    return text, cx, H


def _form_rows(cx, u):
    rows = []
    for i, b in enumerate(cx.catalog.basis(u.p, u.q)):
        if u.coeffs[i] != 0:
            rows.append(
                {
                    "index": i,
                    "mode": " ".join(map(str, b.mode)),
                    "holo": " ".join(map(str, b.holo)),
                    "anti": " ".join(map(str, b.anti)),
                    "value": format_complex(u.coeffs[i]),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args):
    text, cx, H = _load(args)
    rep = Report(args, text)
    cls = classify(H, tol=args.tol)
    rep.add(str(cls))
    if cls.truncated_power:
        rep.add("note: balanced / strongly-Gauduchon tests use a mode-"
                "truncated omega power on this backend")
    table = cohomology_table(H)
    if args.bidegree:
        for p, q in args.bidegree:
            if (p, q) not in table.entries:
                raise ValueError(f"bidegree {p},{q} out of range for n={H.n}")
        table.entries = {pq: table.entries[pq] for pq in args.bidegree}
    rep.add("", str(table))
    out = Path(args.out)
    _write_csv(out / "classify.csv",
               ["flag", "value", "residual"],
               [{"flag": k, "value": getattr(cls, k), "residual": cls.residuals[k]}
                for k in cls.residuals])
    _write_csv(out / "cohomology.csv", ["p", "q", "h_dbar", "h_bc", "h_aeppli"],
               table.rows())
    rep.write(out, "classify_report.txt")
    return EXIT_OK


def cmd_torsion(args):
    text, cx, H = _load(args)
    rep = Report(args, text)
    try:
        tr = torsion_form(H, tol=args.tol)
    except NotHermitianSymplectic as e:
        rep.add(f"not Hermitian-symplectic: {e}")
        rep.write(Path(args.out), "torsion_report.txt")
        return EXIT_INPUT
    rep.add(
        f"torsion norm: {tr.norm:.12e}",
        f"closedness residual: {tr.closedness_residual:.3e}",
        f"minimality gap vs oracle: {tr.minimality_gap:.3e}",
    )
    out = Path(args.out)
    _write_csv(out / "torsion.csv",
               ["index", "mode", "holo", "anti", "value"],
               _form_rows(cx, tr.rho))
    rep.write(out, "torsion_report.txt")
    if tr.closedness_residual > 1e-8 or tr.minimality_gap > 1e-6:
        rep.add("contract violation: torsion certification exceeded tolerance")
        rep.write(out, "torsion_report.txt")
        return EXIT_CONTRACT
    return EXIT_OK


def cmd_energy(args):
    text, cx, H = _load(args)
    rep = Report(args, text)
    try:
        f, tr = energy(H, tol=args.tol)
    except NotHermitianSymplectic as e:
        rep.add(f"not Hermitian-symplectic: {e}")
        rep.write(Path(args.out), "energy_report.txt")
        return EXIT_INPUT
    c = differential_riesz(H, tr.rho20)
    G = H.gram(1, 0)
    gnorm = float(np.sqrt(max(np.real(np.conj(c) @ np.linalg.solve(G, c)), 0.0)))
    rep.add(
        f"energy F: {f:.12e}",
        f"torsion norm: {tr.norm:.12e}",
        f"differential norm: {gnorm:.6e}",
    )
    out = Path(args.out)
    _write_csv(out / "energy.csv",
               ["energy", "torsion_norm", "differential_norm"],
               [{"energy": f, "torsion_norm": tr.norm, "differential_norm": gnorm}])
    rep.write(out, "energy_report.txt")
    return EXIT_OK


def cmd_flow(args):
    text, cx, H = _load(args)
    rep = Report(args, text)
    point = AeppliPoint(cx, H.omega)
    try:
        res = gradient_descent(point, max_iters=args.max_iters, tol=args.tol)
    except NotHermitianSymplectic as e:
        rep.add(f"not Hermitian-symplectic: {e}")
        rep.write(Path(args.out), "flow_report.txt")
        return EXIT_INPUT
    rep.add(
        f"status: {res.status}",
        f"final energy: {res.energy:.6e}",
        f"final d-residual: {res.d_residual:.6e}",
        f"iterations: {len(res.history) - 1}",
        f"elapsed: {res.elapsed:.1f}s",
    )
    out = Path(args.out)
    _write_csv(out / "flow.csv",
               ["iter", "energy", "grad_norm", "step", "margin", "d_residual"],
               res.history)
    _write_csv(out / "flow_potential.csv",
               ["index", "mode", "holo", "anti", "value"],
               _form_rows(cx, res.point.u))
    rep.write(out, "flow_report.txt")
    es = [row["energy"] for row in res.history]
    if any(b > a + 1e-12 for a, b in zip(es, es[1:])):
        rep.add("contract violation: energy increased along accepted steps")
        rep.write(out, "flow_report.txt")
        return EXIT_CONTRACT
    return EXIT_OK


def cmd_kahler(args):
    text, cx, H = _load(args)
    rep = Report(args, text)
    try:
        kr = kahler_in_class(H, tol=args.tol)
    except HypothesisError as e:
        rep.add(f"hypothesis failure: {e}")
        rep.write(Path(args.out), "kahler_report.txt")
        return EXIT_INPUT
    rep.add(
        f"|u_min|: {kr.u_norm:.6e}",
        f"d residual of candidate: {kr.d_residual:.3e}",
        f"hypothesis distance: {kr.hypothesis_distance:.3e}",
        f"positivity: {kr.positivity}",
    )
    out = Path(args.out)
    _write_csv(out / "kahler_potential.csv",
               ["index", "mode", "holo", "anti", "value"],
               _form_rows(cx, kr.u_min))
    _write_csv(out / "kahler_metric.csv",
               ["index", "mode", "holo", "anti", "value"],
               _form_rows(cx, kr.omega_tilde))
    rep.write(out, "kahler_report.txt")
    if kr.d_residual > 1e-8:
        rep.add("contract violation: candidate not d-closed despite hypothesis")
        rep.write(out, "kahler_report.txt")
        return EXIT_CONTRACT
    return EXIT_OK


def cmd_family(args):
    text = Path(args.model).read_text()
    spec = parse_family(text)
    if args.t_samples:
        spec = FamilySpec(spec.template_lines, args.t_samples)
    rep = Report(args, text)
    table = family_diagnostics(spec, tol=args.tol)
    rep.add(str(table))
    if table.flagged:
        rep.add(f"flagged samples (dimension jump or infeasible): {table.flagged}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table.to_csv(out / "family.csv")
    rep.write(out, "family_report.txt")
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(args):
    rep = Report(args)
    checks = []

    def check(name, fn):
        try:
            ok, info = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, info = False, f"exception: {e}"
        checks.append((name, ok, info))
        rep.add(f"{'PASS' if ok else 'FAIL'}  {name}  {info}")

    def torus_classify():
        cx = build_complex(parse_model(TORUS_TEXT))
        H = HermitianStructure(cx, omega=cx.metric_form())
        cls = classify(H)
        ok = all([cls.kahler, cls.skt, cls.balanced, cls.strongly_gauduchon,
                  cls.hermitian_symplectic])
        tr = torsion_form(H)
        ok = ok and tr.norm <= 1e-10
        return ok, f"torsion norm {tr.norm:.1e}"

    def iwasawa_flags():
        cx = build_complex(parse_model(IWASAWA_TEXT))
        H = HermitianStructure(cx, omega=cx.metric_form())
        cls = classify(H)
        ok = (cls.balanced and not cls.skt and not cls.kahler
              and not cls.hermitian_symplectic)
        return ok, f"hs residual {cls.residuals['hermitian_symplectic']:.2e}"

    def spectral_pipeline():
        cx = build_complex(parse_model(SPECTRAL_TEXT))
        rng = np.random.default_rng(args.seed)
        u = 0.01 * cx.random_form(1, 0, rng)
        w = cx.metric_form() + cx.apply_dbar(u) + cx.apply_del(conjugate(u))
        H = HermitianStructure(cx, omega=w)
        tr = torsion_form(H)
        ok = tr.closedness_residual <= 1e-8 and tr.minimality_gap <= 1e-6
        point = AeppliPoint(cx, w)
        res = gradient_descent(point, max_iters=args.max_iters)
        ok = ok and res.status == "converged"
        return ok, (f"gap {tr.minimality_gap:.1e}, flow {res.status} "
                    f"F={res.energy:.1e}")

    check("flat torus: classify + zero torsion", torus_classify)
    check("iwasawa: balanced, non-SKT, not H-s", iwasawa_flags)
    check("perturbed spectral torus: torsion + flow", spectral_pipeline)

    out = Path(args.out)
    _write_csv(out / "selftest.csv", ["name", "passed", "info"],
               [{"name": n, "passed": ok, "info": info} for n, ok, info in checks])
    rep.write(out, "selftest_report.txt")
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_CONTRACT


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _bidegree(text):
    try:
        p, q = text.split(",")
        return int(p), int(q)
    except ValueError:
        raise argparse.ArgumentTypeError("expected p,q")


def _t_list(text):
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a list of reals")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hstorsion",
        description="Torsion forms, energy descent and Kahler constructions "
                    "on finite form complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != "selftest":
            p.add_argument("--model", required=True, help="model or family file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--tol", type=float, default=CLASSIFY_TOL)
        p.add_argument("--seed", type=int, default=0)
        if name == "classify":
            p.add_argument("--bidegree", action="append", type=_bidegree,
                           metavar="p,q")
        if name in ("flow", "selftest"):
            p.add_argument("--max-iters", type=int, default=500)
        if name == "family":
            p.add_argument("--t-samples", type=_t_list)
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "torsion": cmd_torsion,
    "energy": cmd_energy,
    "flow": cmd_flow,
    "kahler": cmd_kahler,
    "family": cmd_family,
    "selftest": cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, CohomologyMismatch) as e:
        # numerical breakdowns; LinAlgError is a ValueError, so it goes first
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except (OSError, ValueError) as e:  # ModelError, MetricError, bad values
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
