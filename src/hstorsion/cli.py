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
import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backends import ModelError, ModelTemplate, build_complex, format_complex, parse_model
from .cohomology import CohomologyMismatch, cohomology_table
from .deform import (FamilyTable, HypothesisError, family_diagnostics,
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

    def fail(self, line, code=EXIT_CONTRACT):
        """End the report with a failure's reason, also printed to stderr;
        returns the exit code."""
        self.lines.append(line)
        print(line, file=sys.stderr)
        return code

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


def _load(text):
    cx = build_complex(parse_model(text))
    return HermitianStructure(cx, omega=cx.metric_form())


def _write_form(path: Path, u):
    """One row per basis element of u's bidegree, zero coefficients included,
    so the row set does not depend on rounding."""
    _write_csv(path, ["index", "mode", "holo", "anti", "value"], [
        {"index": i, "mode": " ".join(map(str, b.mode)),
         "holo": " ".join(map(str, b.holo)), "anti": " ".join(map(str, b.anti)),
         "value": format_complex(c)}
        for i, (b, c) in enumerate(zip(u.catalog.basis(u.p, u.q), u.coeffs))])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args, text, rep):
    H = _load(text)
    cls = classify(H, tol=args.tol)
    rep.add(str(cls))
    if cls.truncated_power:
        rep.add("note: balanced / strongly-Gauduchon tests use a mode-"
                "truncated omega power")
    table = cohomology_table(H)
    if args.bidegree:
        for p, q in args.bidegree:
            if (p, q) not in table.entries:
                raise ValueError(f"bidegree {p},{q} out of range for n={H.n}")
        table.entries = {pq: table.entries[pq] for pq in args.bidegree}
    rep.add("", str(table))
    for which, p, q in table.unreliable:
        if (p, q) in table.entries:
            rep.add(f"unreliable kernel split: {which} Laplacian at ({p},{q}) "
                    "has an eigenvalue within 100x of the cutoff")
    out = Path(args.out)
    _write_csv(out / "classify.csv",
               ["flag", "value", "residual"],
               [{"flag": k, "value": getattr(cls, k), "residual": cls.residuals[k]}
                for k in cls.residuals])
    _write_csv(out / "cohomology.csv", ["p", "q", "h_dbar", "h_bc", "h_aeppli"],
               table.rows())
    return EXIT_OK


def cmd_torsion(args, text, rep):
    tr = torsion_form(_load(text), tol=args.tol)
    rep.add(
        f"torsion norm: {tr.norm:.12e}",
        f"closedness residual: {tr.closedness_residual:.3e}",
        f"minimality gap vs oracle: {tr.minimality_gap:.3e}",
    )
    _write_form(Path(args.out) / "torsion.csv", tr.rho20)
    if tr.closedness_residual > 1e-8 or tr.minimality_gap > 1e-6:
        return rep.fail("contract violation: torsion certification exceeded tolerance")
    return EXIT_OK


def cmd_energy(args, text, rep):
    H = _load(text)
    f, tr = energy(H, tol=args.tol)
    c = differential_riesz(H, tr.rho20)
    G = H.gram(1, 0)
    gnorm = float(np.sqrt(max(np.real(np.conj(c) @ np.linalg.solve(G, c)), 0.0)))
    rep.add(
        f"energy F: {f:.12e}",
        f"torsion norm: {tr.norm:.12e}",
        f"differential norm: {gnorm:.6e}",
    )
    _write_csv(Path(args.out) / "energy.csv",
               ["energy", "torsion_norm", "differential_norm"],
               [{"energy": f, "torsion_norm": tr.norm, "differential_norm": gnorm}])
    return EXIT_OK


def cmd_flow(args, text, rep):
    cx = build_complex(parse_model(text))
    res = gradient_descent(AeppliPoint(cx, cx.metric_form()),
                           max_iters=args.max_iters, tol=args.tol)
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
    _write_form(out / "flow_potential.csv", res.point.u)
    es = [row["energy"] for row in res.history]
    if any(b > a + 1e-12 for a, b in zip(es, es[1:])):
        return rep.fail("contract violation: energy increased along accepted steps")
    return EXIT_OK


def cmd_kahler(args, text, rep):
    kr = kahler_in_class(_load(text), tol=args.tol)
    rep.add(
        f"|u_min|: {kr.u_norm:.6e}",
        f"d residual of candidate: {kr.d_residual:.3e}",
        f"hypothesis distance: {kr.hypothesis_distance:.3e}",
        f"positivity: {kr.positivity}",
    )
    out = Path(args.out)
    _write_form(out / "kahler_potential.csv", kr.u_min)
    _write_form(out / "kahler_metric.csv", kr.omega_tilde)
    if kr.d_residual > 1e-8:
        return rep.fail("contract violation: candidate not d-closed despite hypothesis")
    return EXIT_OK


def cmd_family(args, text, rep):
    spec = parse_family(text)
    if args.t_samples:
        spec = dataclasses.replace(spec, t_samples=args.t_samples)
    table = family_diagnostics(spec, tol=args.tol)
    rep.add(str(table))
    if table.flagged:
        rep.add("flagged samples (dimension jump, unreliable kernel split or "
                f"infeasible): {table.flagged}")
    _write_csv(Path(args.out) / "family.csv", FamilyTable.FIELDS, table.rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def cmd_selftest(args, text, rep):
    checks = []

    def check(name, fn):
        try:
            ok, info = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, info = False, f"exception: {e}"
        checks.append((name, ok, info))
        rep.add(f"{'PASS' if ok else 'FAIL'}  {name}  {info}")

    def torus_classify():
        H = _load(TORUS_TEXT)
        cls = classify(H)
        ok = all([cls.kahler, cls.skt, cls.balanced, cls.strongly_gauduchon,
                  cls.hermitian_symplectic])
        tr = torsion_form(H)
        ok = ok and tr.norm <= 1e-10
        return ok, f"torsion norm {tr.norm:.1e}"

    def iwasawa_flags():
        H = _load(IWASAWA_TEXT)
        cls = classify(H)
        ok = (cls.balanced and not cls.skt and not cls.kahler
              and not cls.hermitian_symplectic)
        return ok, f"hs residual {cls.residuals['hermitian_symplectic']:.2e}"

    def spectral_pipeline():
        cx = build_complex(parse_model(SPECTRAL_TEXT))
        rng = np.random.default_rng(args.seed)
        u = 0.01 * cx.random_form(1, 0, rng)
        point = AeppliPoint(cx, cx.metric_form() + cx.apply_dbar(u)
                            + cx.apply_del(conjugate(u)))
        tr = torsion_form(point.structure())
        ok = tr.closedness_residual <= 1e-8 and tr.minimality_gap <= 1e-6
        res = gradient_descent(point, max_iters=args.max_iters)
        ok = ok and res.status == "converged"
        return ok, (f"gap {tr.minimality_gap:.1e}, flow {res.status} "
                    f"F={res.energy:.1e}")

    check("flat torus: classify + zero torsion", torus_classify)
    check("iwasawa: balanced, non-SKT, not H-s", iwasawa_flags)
    check("perturbed spectral torus: torsion + flow", spectral_pipeline)

    _write_csv(Path(args.out) / "selftest.csv", ["name", "passed", "info"],
               [{"name": n, "passed": ok, "info": info} for n, ok, info in checks])
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
    """Parse argv, run the command and write its report, on every exit once
    the model file is read, with the reason of a refusal or failure as its
    last line.  Refusals and bad input exit 1, numerical breakdowns 2; a
    model with n < 2 is bad input to every metric command."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        text = Path(args.model).read_text() if args.command != "selftest" else None
        rep = Report(args, text)
        try:
            if text is not None:
                template = ModelTemplate(text, args.command == "family")
                if template.n < 2:
                    raise ModelError("the metric commands read (2,0)- and (0,2)-forms, "
                                     "which need n >= 2", template.lines["n"])
            code = _COMMANDS[args.command](args, text, rep)
        except NotHermitianSymplectic as e:
            rep.add(f"not Hermitian-symplectic: {e}")
            code = EXIT_INPUT
        except HypothesisError as e:
            rep.add(f"hypothesis failure: {e}")
            code = EXIT_INPUT
        except (np.linalg.LinAlgError, CohomologyMismatch) as e:
            # numerical breakdowns; LinAlgError is a ValueError, so it goes first
            code = rep.fail(f"numerical failure: {e}")
        except ValueError as e:  # ModelError, MetricError, bad values
            code = rep.fail(f"error: {e}", EXIT_INPUT)
        rep.write(Path(args.out), f"{args.command}_report.txt")
        return code
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
