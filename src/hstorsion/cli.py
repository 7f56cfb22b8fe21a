"""Command-line interface: classify metrics, compute torsion forms and
energies, run gradient flows, build Kahler candidates and sweep families.

Exit codes: 0 success, 1 input or validation error, 2 violated numerical
contract (an internal cross-check such as formula-vs-oracle failed, or a
numerical breakdown such as a failed factorization).
Reports are written as a text file plus CSV files in the output directory;
complex CSV fields use the literal form a+bi.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .backends import ModelError, ModelTemplate, build_complex, format_complex
from .cohomology import CohomologyMismatch, cohomology_table
from .deform import (FamilyTable, HypothesisError, family_diagnostics,
                     kahler_in_class)
from .energy import (AeppliPoint, _riesz_gradient, differential_riesz, energy,
                     gradient_descent)
from .metric import HermitianStructure
from .torsion import NotHermitianSymplectic, classify, torsion_form

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONTRACT = 2


def _model_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class Report:
    """Accumulates the text report and writes it with a standard header."""

    def __init__(self, args, model_text):
        self.lines = [
            f"hstorsion {__version__}",
            f"command: {args.command}",
            f"model: {args.model}",
            f"model_hash: {_model_hash(model_text)}",
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


def _load(template):
    cx = build_complex(template.model())
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


def cmd_classify(args, template, rep):
    H = _load(template)
    cls = classify(H)
    rep.add(str(cls))
    if cls.truncated_power:
        rep.add("note: balanced / strongly-Gauduchon tests use a mode-"
                "truncated omega power")
    table = cohomology_table(H)
    rep.add("", str(table))
    for which, p, q in table.unreliable:
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


def _add_certificate(rep, tr):
    """Add a TorsionReport's closedness residual and minimality gap to the
    report."""
    rep.add(
        f"closedness residual: {tr.closedness_residual:.3e}",
        f"minimality gap vs oracle: {tr.minimality_gap:.3e}",
    )


def cmd_torsion(args, template, rep):
    tr = torsion_form(_load(template))
    rep.add(f"torsion norm: {tr.norm:.12e}")
    _add_certificate(rep, tr)
    _write_form(Path(args.out) / "torsion.csv", tr.rho20)
    if tr.violated:
        return rep.fail("contract violation: torsion certification exceeded tolerance")
    return EXIT_OK


def cmd_energy(args, template, rep):
    H = _load(template)
    f, tr = energy(H)
    _, _, gnorm = _riesz_gradient(H.gram(1, 0), differential_riesz(H, tr.rho20))
    rep.add(
        f"energy F: {f:.12e}",
        f"torsion norm: {tr.norm:.12e}",
        f"differential norm: {gnorm:.6e}",
    )
    _add_certificate(rep, tr)
    _write_csv(Path(args.out) / "energy.csv",
               ["energy", "torsion_norm", "differential_norm"],
               [{"energy": f, "torsion_norm": tr.norm, "differential_norm": gnorm}])
    if tr.violated:
        return rep.fail("contract violation: torsion certification exceeded tolerance")
    return EXIT_OK


def cmd_flow(args, template, rep):
    cx = build_complex(template.model())
    res = gradient_descent(AeppliPoint(cx, cx.metric_form()), max_iters=args.max_iters)
    rep.add(
        f"status: {res.status}",
        f"final energy: {res.energy:.6e}",
        f"final d-residual: {res.d_residual:.6e}",
        f"iterations: {len(res.history) - 1}",
        f"elapsed: {res.elapsed:.1f}s",
    )
    _add_certificate(rep, res.certificate)
    out = Path(args.out)
    _write_csv(out / "flow.csv",
               ["iter", "energy", "grad_norm", "step", "margin", "d_residual"],
               res.history)
    _write_form(out / "flow_potential.csv", res.point.u)
    es = [row["energy"] for row in res.history]
    if any(b > a + 1e-12 for a, b in zip(es, es[1:])):
        return rep.fail("contract violation: energy increased along accepted steps")
    if res.certificate.violated:
        return rep.fail("contract violation: torsion certification of the final point "
                        "exceeded tolerance")
    return EXIT_OK


def cmd_kahler(args, template, rep):
    kr = kahler_in_class(_load(template))
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


def cmd_family(args, template, rep):
    table = family_diagnostics(template)
    rep.add(str(table))
    if table.flagged:
        rep.add("flagged samples (dimension jump, unreliable kernel split or "
                f"infeasible): {table.flagged}")
    _write_csv(Path(args.out) / "family.csv", FamilyTable.FIELDS, table.rows)
    if table.uncertified:
        return rep.fail("contract violation: torsion certification exceeded tolerance "
                        f"at t = {table.uncertified}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _nonnegative(text):
    """An argparse type: an int, refused when negative."""
    value = int(text)
    if value >= 0:
        return value
    raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")


_nonnegative.__name__ = "int"  # argparse's "invalid int value"


@functools.cache  # a parse leaves no state in the parser
def build_parser():
    parser = argparse.ArgumentParser(
        prog="hstorsion",
        description="Torsion forms, energy descent and Kahler constructions "
                    "on finite form complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="model or family file")
        p.add_argument("--out", default=".", help="output directory")
        if name == "flow":
            p.add_argument("--max-iters", type=_nonnegative, default=500)
    return parser


_COMMANDS = {
    "classify": cmd_classify,
    "torsion": cmd_torsion,
    "energy": cmd_energy,
    "flow": cmd_flow,
    "kahler": cmd_kahler,
    "family": cmd_family,
}


def run(argv=None) -> int:
    """Parse argv, read the model file, run the command on the file's one
    ModelTemplate and write its report, on every exit once the model file is
    read, with the reason of a refusal or failure as its last line.  Refusals
    and bad input exit 1, numerical breakdowns 2; a model with n < 2 is bad
    input to every command."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else 0
    try:
        text = Path(args.model).read_text()
        rep = Report(args, text)
        try:
            template = ModelTemplate(text, args.command == "family")
            if template.n < 2:
                raise ModelError("the metric commands read (2,0)- and (0,2)-forms, "
                                 "which need n >= 2", template.lines["n"])
            code = _COMMANDS[args.command](args, template, rep)
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
