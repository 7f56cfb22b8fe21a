import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hstorsion
from hstorsion import backends, cli, cohomology, deform, metric
from hstorsion.backends import FormComplex, format_complex, parse_complex
from hstorsion.cli import EXIT_CONTRACT, EXIT_INPUT, EXIT_OK, run
from hstorsion.cohomology import CohomologyMismatch, cohomology_table
from hstorsion.deform import kahler_in_class
from hstorsion.energy import energy, gradient_descent
from hstorsion.torsion import torsion_form

from conftest import (FAMILY_TEXT, IWASAWA_TEXT, N2K2_FAMILY, POTENTIAL_FAMILY,
                      SPECTRAL_TEXT, TORUS_TEXT)

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.model"
    path.write_text(TORUS_TEXT)
    return str(path)


@pytest.fixture
def iwasawa_file(tmp_path):
    path = tmp_path / "iwasawa.model"
    path.write_text(IWASAWA_TEXT)
    return str(path)


@pytest.fixture
def spectral_file(tmp_path):
    path = tmp_path / "spectral.model"
    path.write_text(SPECTRAL_TEXT)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_format_complex():
    assert format_complex(1.5) == "1.5"
    assert format_complex(1 + 2j) == "1.0+2.0i"
    assert format_complex(-0.5j) == "0.0-0.5i"
    assert format_complex(complex(-0.0, 0.25)) == "0.0+0.25i"


def test_classify_command(torus_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["classify", "--model", torus_file, "--out", str(out)])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "kahler" in text
    rows = _read_csv(out / "classify.csv")
    flags = {r["flag"]: r["value"] for r in rows}
    assert flags["kahler"] == "True"
    coh = _read_csv(out / "cohomology.csv")
    assert len(coh) == 16  # all bidegrees for n = 3
    assert (out / "classify_report.txt").exists()


def test_classify_reports_unreliable_kernel_split(iwasawa_file, tmp_path,
                                                   monkeypatch):
    # a kernel cutoff of 0.1 puts the Iwasawa Laplacians' eigenvalue 1
    # within 100x of it; classify writes one line per unreliable split
    out = tmp_path / "out"
    assert run(["classify", "--model", iwasawa_file, "--out", str(out)]) == EXIT_OK
    assert "unreliable" not in (out / "classify_report.txt").read_text()
    tables = []

    def table(H):
        tables.append(cohomology_table(H))
        return tables[-1]

    monkeypatch.setattr(cohomology, "KERNEL_RCOND", 0.1)
    monkeypatch.setattr(cli, "cohomology_table", table)
    code = run(["classify", "--model", iwasawa_file, "--out", str(out)])
    assert code == EXIT_OK
    lines = [line for line in (out / "classify_report.txt").read_text().splitlines()
             if line.startswith("unreliable kernel split")]
    assert lines == [f"unreliable kernel split: {which} Laplacian at ({p},{q}) has an "
                     "eigenvalue within 100x of the cutoff"
                     for which, p, q in tables[0].unreliable]
    assert ("unreliable kernel split: dbar Laplacian at (0,1) has an eigenvalue "
            "within 100x of the cutoff") in lines


_WRONG_FLAGS = [
    ["torsion", "--bidegree", "1,1"],
    ["classify", "--max-iters", "5"],
    ["energy", "--t-samples", "0 1"],
    ["family", "--bidegree", "0,1"],
    ["kahler", "--max-iters", "5"],
    ["flow", "--seed", "1"],
]


# no command takes a tolerance, a filter of the classify table or a family's
# sample list: tolerances are constants, and the samples are the family
# file's t_samples line
@pytest.mark.parametrize("argv", _WRONG_FLAGS + [
    argv for argv in ([command, *flag] for command in cli._COMMANDS
                      for flag in (["--tol", "1e-6"], ["--bidegree", "1,1"],
                                   ["--t-samples", "0 1"]))
    if argv not in _WRONG_FLAGS])
def test_flag_on_wrong_subcommand(argv, torus_file, tmp_path):
    out = tmp_path / "out"
    code = run(argv[:1] + ["--model", torus_file, "--out", str(out)] + argv[1:])
    assert code == EXIT_INPUT
    assert not out.exists()


@pytest.mark.parametrize("argv", [["selftest"]])
def test_unknown_command_writes_nothing(argv, tmp_path, capsys):
    # the built-in models are checked by Tier-1 tests, not by a command
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == EXIT_INPUT
    assert f"invalid choice: '{argv[0]}'" in capsys.readouterr().err
    assert not out.exists()


def test_runs_in_one_process_share_no_state(spectral_file, tmp_path):
    # the parser is built once; a flag's value must not outlive its parse
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["flow", "--model", spectral_file, "--out", str(first),
                "--max-iters", "0"]) == EXIT_OK
    assert run(["flow", "--model", spectral_file, "--out", str(second)]) == EXIT_OK
    assert len(_read_csv(first / "flow.csv")) == 1
    assert len(_read_csv(second / "flow.csv")) == 8


def test_torsion_command(spectral_file, spectral_cx, tmp_path):
    out = tmp_path / "out"
    code = run(["torsion", "--model", spectral_file, "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "torsion.csv")
    assert rows and all("i" in r["value"] or "." in r["value"] for r in rows)
    # every basis row, zero or not
    assert [int(r["index"]) for r in rows] == list(range(spectral_cx.dims(2, 0)))


def test_torsion_rejects_non_hs(iwasawa_file, tmp_path):
    code = run(["torsion", "--model", iwasawa_file, "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_energy_command(spectral_file, tmp_path):
    out = tmp_path / "out"
    code = run(["energy", "--model", spectral_file, "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "energy.csv")
    assert float(rows[0]["energy"]) > 0


def test_flow_command(spectral_file, tmp_path):
    out = tmp_path / "out"
    code = run(["flow", "--model", spectral_file, "--out", str(out),
                "--max-iters", "100"])
    assert code == EXIT_OK
    hist = _read_csv(out / "flow.csv")
    assert len(hist) >= 2
    energies = [float(r["energy"]) for r in hist]
    assert energies[-1] <= 1e-6
    assert (out / "flow_potential.csv").exists()
    report = (out / "flow_report.txt").read_text()
    assert "converged" in report
    # the final point's torsion certificate, as the torsion report prints it
    lines = report.splitlines()
    cert = {k: float(v) for k, _, v in (line.partition(": ") for line in lines[-2:])}
    assert list(cert) == ["closedness residual", "minimality gap vs oracle"]
    assert cert["closedness residual"] <= 1e-8 and cert["minimality gap vs oracle"] <= 1e-6


def test_kahler_command(spectral_file, iwasawa_file, tmp_path):
    out = tmp_path / "out"
    code = run(["kahler", "--model", spectral_file, "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "kahler_metric.csv").exists()
    code = run(["kahler", "--model", iwasawa_file, "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_family_command(tmp_path):
    fam = tmp_path / "family.model"
    fam.write_text(FAMILY_TEXT)
    out = tmp_path / "out"
    code = run(["family", "--model", str(fam), "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "family.csv")
    assert [r["t"] for r in rows] == ["0.0", "0.5", "1.0"]
    assert rows[2]["flagged"] == "True"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_tol_must_be_finite_and_nonnegative(command, tol, torus_file, tmp_path, capsys):
    # a NaN or negative tolerance turned every classify flag False with
    # exit 0, and inf made Iwasawa Hermitian-symplectic; every verdict now
    # reads the constant CLASSIFY_TOL, and no command takes a tolerance
    code = run([command, "--model", torus_file, "--out", str(tmp_path), f"--tol={tol}"])
    assert code == EXIT_INPUT
    assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.txt")) and not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("samples, error", [
    ("0 nan", "t_samples must be finite"),
    ("0 inf", "t_samples must be finite"),
    ("", "t_samples must include 0"),
    ("0.5 1", "t_samples must include 0"),
    ("0 x", "t_samples must be a list of reals"),
    ("0 -0 1", "t_samples repeats 0.0"),
])
def test_t_samples_checked_as_a_family_file_line(samples, error, tmp_path, capsys):
    # the samples of a family are its file's t_samples line: "0 nan" would
    # write a nan row, "" none and "0 -0 1" two rows for t = 0
    fam = tmp_path / "family.model"
    fam.write_text(FAMILY_TEXT.replace("t_samples := 0 0.5 1", f"t_samples := {samples}"))
    code = run(["family", "--model", str(fam), "--out", str(tmp_path)])
    assert code == EXIT_INPUT
    assert f"error: line 4: {error}" in capsys.readouterr().err
    assert not (tmp_path / "family.csv").exists()


@pytest.mark.parametrize("command", ["flow"])
def test_max_iters_must_be_nonnegative(command, spectral_file, tmp_path, capsys):
    # -3 ran as 0 iterations and exited 0
    code = run([command, "--model", spectral_file, "--out", str(tmp_path),
                "--max-iters", "-3"])
    assert code == EXIT_INPUT
    assert "argument --max-iters: expected a finite value >= 0, got '-3'" in (
        capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


def test_missing_model_file(tmp_path):
    code = run(["classify", "--model", str(tmp_path / "nope.model"),
                "--out", str(tmp_path)])
    assert code == EXIT_INPUT


def test_bad_model_text(tmp_path, capsys):
    # bad input, a metric that is not positive definite included, exits 1
    # with the error as the last line of the report and on stderr
    for command, text, error in [
        ("classify", "kind widget\nn 3\n",
         "error: line 1: kind must be 'invariant' or 'spectral'"),
        ("family", "kind invariant\nn 3\nt_samples := 0 1\nn 3\n",
         "error: line 4: repeated 'n' (first on line 2)"),
        ("torsion", "kind invariant\nn 3\nmetric h 1 1 := 1\nmetric h 2 2 := 1\n"
         "metric h 3 3 := -1\n", "error: metric not positive definite"),
        # a literal past the float range, not an infinity that breaks the SVD
        ("classify", "kind invariant\nn 3\nd 3 := 1e400 * e(1,2)\n",
         "error: line 3: complex literal '1e400' is not finite"),
        # a finite coefficient whose square overflows is refused before any
        # product of del and dbar is formed
        *((command, "kind invariant\nn 3\nd 3 := 1e160 * e(1,2)\n",
           "error: line 3: d coefficient of size 1.0e+160 overflows the float range when "
           "squared") for command in ("classify", "torsion")),
        # a family names the sample whose metric is refused
        ("family", "kind spectral\nn 2\nmodes axis K 1\n"
         "potential 1 0 0 0 u 2 := poly(0, 0.5)\nt_samples := 0 0.25 1\n",
         "error: metric not positive definite: min eigenvalue -5.708e-01 (sample t = 1.0)"),
    ]:
        bad = tmp_path / "bad.model"
        bad.write_text(text)
        out = tmp_path / command
        assert run([command, "--model", str(bad), "--out", str(out)]) == EXIT_INPUT
        lines = (out / f"{command}_report.txt").read_text().splitlines()
        assert lines[1] == f"command: {command}" and lines[-1].startswith(error)
        assert capsys.readouterr().err.startswith(error)


@pytest.mark.parametrize("command, target, error", [
    ("classify", "cohomology_table", CohomologyMismatch("h_bc(1,1): kernel 4 vs rank 5")),
    ("torsion", "torsion_form", np.linalg.LinAlgError("not positive definite")),
])
def test_numerical_failure_exits_2(command, target, error, torus_file, tmp_path,
                                   monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    out = tmp_path / "out"
    code = run([command, "--model", torus_file, "--out", str(out)])
    assert code == EXIT_CONTRACT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[1] == f"command: {command}"
    assert lines[-1] == f"numerical failure: {error}"


@pytest.mark.parametrize("command, refusal", [
    ("torsion", "not Hermitian-symplectic: closedness system infeasible"),
    ("energy", "not Hermitian-symplectic: closedness system infeasible"),
    ("flow", "not Hermitian-symplectic: closedness system infeasible"),
    ("kahler", "hypothesis failure: right-hand side is not del-dbar-exact"),
])
def test_refusal_exits_1_with_its_report(command, refusal, iwasawa_file, tmp_path):
    out = tmp_path / "out"
    assert run([command, "--model", iwasawa_file, "--out", str(out)]) == EXIT_INPUT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[1] == f"command: {command}" and lines[4] == ""
    assert len(lines) == 6 and lines[5].startswith(refusal)
    assert sorted(p.name for p in out.iterdir()) == [f"{command}_report.txt"]


@pytest.mark.parametrize("command", ["classify", "torsion", "energy", "flow", "kahler",
                                     "family"])
def test_metric_commands_refuse_n_below_2(command, tmp_path):
    # n = 1 parses (the grammar allows it), but every metric command reads
    # (2,0)- and (0,2)-forms: refused as bad input on the n line, with the
    # report written, before the family's samples are read (t = 1e200
    # overflows its poly)
    model = tmp_path / "n1.model"
    family = ("metric h 1 1 := poly(1, 0, 1)\nt_samples := 0 1e200\n"
              if command == "family" else "")
    model.write_text("kind invariant\nn 1\n" + family)
    out = tmp_path / "out"
    assert run([command, "--model", str(model), "--out", str(out)]) == EXIT_INPUT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[-1] == ("error: line 2: the metric commands read (2,0)- and (0,2)-forms, "
                         "which need n >= 2")


@pytest.mark.parametrize("command", ["classify", "torsion", "energy", "flow", "kahler",
                                     "family"])
def test_metric_negative_between_the_nodes_exits_1(command, tmp_path):
    # h_11 = 1 + 1.2 cos(2 pi x_1) is positive at every node but -0.2 at
    # x_1 = 1/2: refused as bad input, with the point; the family's t = 0
    # sample is this model
    model = tmp_path / "m.model"
    c = "poly(0.6, -0.6)" if command == "family" else "0.6"
    model.write_text("kind spectral\nn 2\nmodes axis K 1\n"
                     f"metric_mode 1 0 0 0 h 1 1 := {c}\n"
                     f"metric_mode -1 0 0 0 h 1 1 := {c}\n"
                     + ("t_samples := 0 0.5 1\n" if command == "family" else ""))
    out = tmp_path / "out"
    assert run([command, "--model", str(model), "--out", str(out)]) == EXIT_INPUT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[-1].startswith("error: metric not positive definite between the nodes: "
                                "min eigenvalue -2.000e-01 at x = (0.5, ")
    assert sorted(p.name for p in out.iterdir()) == [f"{command}_report.txt"]


@pytest.mark.parametrize("command", ["classify", "torsion", "energy", "flow", "kahler",
                                     "family"])
def test_metric_command_parses_its_file_once(command, torus_file, tmp_path, monkeypatch):
    # run hands the ModelTemplate it reads for the n check to the command
    made = []
    init = backends.ModelTemplate.__init__
    monkeypatch.setattr(backends.ModelTemplate, "__init__",
                        lambda self, *a, **kw: made.append(1) or init(self, *a, **kw))
    family = tmp_path / "family.model"
    family.write_text(FAMILY_TEXT)
    model = str(family) if command == "family" else torus_file
    assert run([command, "--model", model, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert len(made) == 1


def _violating_torsion(H):
    return dataclasses.replace(torsion_form(H), residual_closed=1.0)


def _violating_energy(H):
    f, tr = energy(H)
    return f, dataclasses.replace(tr, residual_closed=1.0)


def _violating_flow(point, **kwargs):
    res = gradient_descent(point, **kwargs)
    res.history.append(dict(res.history[-1], energy=res.history[-1]["energy"] + 1.0))
    return res


def _violating_flow_certificate(point, **kwargs):
    res = gradient_descent(point, **kwargs)
    res.certificate = dataclasses.replace(res.certificate, residual_closed=1.0)
    return res


def _violating_kahler(H):
    return dataclasses.replace(kahler_in_class(H), d_residual=1.0)


@pytest.mark.parametrize("command, target, violate", [
    ("torsion", "torsion_form", _violating_torsion),
    ("energy", "energy", _violating_energy),
    ("flow", "gradient_descent", _violating_flow),
    ("flow", "gradient_descent", _violating_flow_certificate),
    ("kahler", "kahler_in_class", _violating_kahler),
])
def test_contract_violation_exits_2_with_its_report(command, target, violate,
                                                    torus_file, tmp_path,
                                                    monkeypatch):
    # the report ends with the one violation, and the CSVs are still written
    monkeypatch.setattr(cli, target, violate)
    out = tmp_path / "out"
    assert run([command, "--model", torus_file, "--out", str(out)]) == EXIT_CONTRACT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[1] == f"command: {command}"
    assert lines[-1].startswith("contract violation: ")
    assert sum(line.startswith("contract violation") for line in lines) == 1
    csv_name = {"torsion": "torsion.csv", "energy": "energy.csv", "flow": "flow.csv",
                "kahler": "kahler_potential.csv"}[command]
    assert (out / csv_name).exists()


# SPECTRAL_TEXT's shape with h_33 = 1e-8: the Green formula's torsion form
# collapses (norm 4e-53, where the oracle's is about 1e-5), and its
# certificate says so
ILL_CONDITIONED_TEXT = """kind spectral
n 3
modes axis K 1
metric h 1 1 := 1
metric h 2 2 := 1
metric h 3 3 := 1e-8
potential 1 0 0 0 0 0 u 2 := 0.04
"""


@pytest.mark.parametrize("command, csv_name", [("torsion", "torsion.csv"),
                                               ("energy", "energy.csv")])
def test_ill_conditioned_torsion_fails_its_certificate(command, csv_name, tmp_path):
    # energy printed F = 1.9e-105 and exited 0 where torsion exited 2
    path = tmp_path / "ill.model"
    path.write_text(ILL_CONDITIONED_TEXT)
    out = tmp_path / "out"
    assert run([command, "--model", str(path), "--out", str(out)]) == EXIT_CONTRACT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[-1] == "contract violation: torsion certification exceeded tolerance"
    closed = next(line for line in lines if line.startswith("closedness residual: "))
    assert float(closed.partition(": ")[2]) > 1e-8
    assert (out / csv_name).exists()


def test_ill_conditioned_family_fails_its_dimension_check(tmp_path):
    # the family's dimension columns read the harmonic kernels, which the
    # ill-conditioned metric inflates; h_bc_02 read 27 with exit 0
    path = tmp_path / "ill.family"
    path.write_text(ILL_CONDITIONED_TEXT + "t_samples := 0 0.5\n")
    out = tmp_path / "out"
    assert run(["family", "--model", str(path), "--out", str(out)]) == EXIT_CONTRACT
    lines = (out / "family_report.txt").read_text().splitlines()
    assert lines[-1] == "numerical failure: h_bc(0,2): kernel 27 vs rank 3 (sample t = 0.0)"


def test_family_exits_2_on_a_violated_sample_certificate(tmp_path, monkeypatch):
    # every sample is feasible; a raised minimality gap violates each
    # sample's certificate, and family.csv is still written
    monkeypatch.setattr(deform, "torsion_form", lambda H: dataclasses.replace(
        torsion_form(H), minimality_gap=1.0))
    path = tmp_path / "family.model"
    path.write_text("kind invariant\nn 2\nmetric h 1 1 := poly(1, 0.5)\n"
                    "metric h 2 2 := 1\nt_samples := 0 0.5 1\n")
    out = tmp_path / "out"
    assert run(["family", "--model", str(path), "--out", str(out)]) == EXIT_CONTRACT
    assert len(_read_csv(out / "family.csv")) == 3
    lines = (out / "family_report.txt").read_text().splitlines()
    assert lines[-1] == ("contract violation: torsion certification exceeded tolerance "
                         "at t = [0.0, 0.5, 1.0]")


def test_report_header(torus_file, tmp_path):
    out = tmp_path / "out"
    run(["classify", "--model", torus_file, "--out", str(out)])
    head = (out / "classify_report.txt").read_text().splitlines()[:5]
    assert head == [
        f"hstorsion {hstorsion.__version__}",
        "command: classify",
        f"model: {torus_file}",
        f"model_hash: {hashlib.sha256(TORUS_TEXT.encode()).hexdigest()[:12]}",
        "",
    ]


def test_python_m_hstorsion(torus_file, tmp_path):
    src = str(Path(hstorsion.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hstorsion", "classify", "--model", torus_file,
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "classify_report.txt").exists()


def test_operator_entries_whose_products_overflow_end_with_a_report(tmp_path):
    # each coefficient squares within the float range, but del on phi^1 ^
    # phi^2 has the entry -(a + b) = -2e154, whose square does not: the
    # command ends with its report and a reason, exit 1 or 2.  numpy warns
    # on the overflowing arrays, so the command runs in its own process
    model = tmp_path / "sum.model"
    model.write_text("kind invariant\nn 3\nd 1 := 1e154 * e(1,3)\nd 2 := 1e154 * e(2,3)\n")
    src = str(Path(hstorsion.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hstorsion", "classify", "--model", str(model),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode in (EXIT_INPUT, EXIT_CONTRACT), proc.stderr
    last = (tmp_path / "out" / "classify_report.txt").read_text().splitlines()[-1]
    assert last.startswith(("error: ", "numerical failure: "))


def test_import_does_no_numeric_work():
    # importing the command layer loads no scipy and builds none of the
    # per-n tables, so a command's set-up is the interpreter and the imports
    src = str(Path(hstorsion.__file__).resolve().parents[1])
    code = ("import sys, hstorsion.cli\n"
            "from hstorsion import metric\n"
            "print('scipy' in sys.modules, [f.cache_info().currsize for f in (\n"
            "    metric._laplace_tables, metric._jacobi_tables)])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "False [0, 0]"


def test_family_runs_five_laplacians_and_two_green_operators_per_sample(tmp_path,
                                                                       monkeypatch):
    # the dimension columns count the Bott-Chern Laplacians at (0,2), (2,1)
    # and the Dolbeault ones at (0,1), (0,2) from eigenvalues alone; Green
    # operators are built only by the torsion form, of the Bott-Chern (2,0),
    # and by the Neumann gap, of the Dolbeault (0,1), which reads the one
    # the count summed; the Neumann and Kahler solves read no other
    # Laplacian, and none is summed twice on one metric
    calls, greens = [], []

    def recorded(lap):
        def laplacian(H, p, q):
            calls.append((H, p, q, lap, lap(H, p, q)))
            return calls[-1][-1]
        return laplacian

    for which, lap in list(cohomology._LAPLACIANS.items()):
        monkeypatch.setitem(cohomology._LAPLACIANS, which, recorded(lap))
    gram_eig = cohomology.gram_eig
    monkeypatch.setattr(cohomology, "gram_eig", lambda Lt, R, Rinv: greens.append(
        next(c[:4] for c in calls if c[-1] is Lt)) or gram_eig(Lt, R, Rinv))
    path = tmp_path / "family.model"
    path.write_text("kind invariant\nn 2\nmetric h 1 1 := poly(1, 0.5)\n"
                    "metric h 2 2 := 1\nt_samples := 0 0.5 1\n")
    assert run(["family", "--model", str(path), "--out", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "family.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(r["flagged"] == "False" and r["beta_residual"] != ""
               and r["kahler_d_residual"] != "" for r in rows)
    assert len(calls) == 5 * 3
    keys = [(id(c[0]), *c[1:4]) for c in calls]
    assert len(set(keys)) == 5 * 3
    dbar = cohomology.laplacian_dbar
    assert len(greens) == 2 * 3
    assert {g[1:] for g in greens} == {(2, 0, cohomology.laplacian_bc), (0, 1, dbar)}


def test_family_forms_no_node_values_on_a_potential_family(tmp_path, monkeypatch):
    # every sample metric and Kahler candidate of this family is certified
    # by the Weyl bound, and no family.csv column reads the candidate's
    # positivity verdict: no h(x) or other node values, and no plane-wave
    # table, is formed
    node_values, tables = [], []
    values, slab_waves = metric._node_slabs, FormComplex.slab_waves
    monkeypatch.setattr(metric, "_node_slabs",
                        lambda cx, c: node_values.append(1) or values(cx, c))
    monkeypatch.setattr(FormComplex, "slab_waves",
                        lambda self: tables.append(1) or slab_waves(self))
    path = tmp_path / "family.model"
    path.write_text(N2K2_FAMILY)
    assert run(["family", "--model", str(path), "--out", str(tmp_path)]) == EXIT_OK
    assert len(_read_csv(tmp_path / "family.csv")) == 5
    assert node_values == [] and tables == []


# the CSV columns compared to 1e-12 relative to the largest entry of the
# column, and the certificate columns (residuals and distances), which
# need only stay at most 1e-8; every other column, integers, booleans and
# basis labels, is compared exactly
VALUE_COLUMNS = {"rho_norm", "rho_diff", "crit_sup", "value"}
CERTIFICATE_COLUMNS = {"beta_residual", "kahler_distance", "kahler_d_residual"}


@pytest.mark.parametrize("command, text, golden", [
    ("family", POTENTIAL_FAMILY, {"family.csv": "potential_family.csv"}),
    ("family", N2K2_FAMILY, {"family.csv": "family_n2k2.csv"}),
    ("kahler", SPECTRAL_TEXT, {"kahler_potential.csv": "spectral_kahler_potential.csv",
                               "kahler_metric.csv": "spectral_kahler_metric.csv"}),
], ids=["potential_family", "family_n2k2", "spectral_kahler"])
def test_csvs_match_the_golden_outputs(command, text, golden, tmp_path):
    # tests/golden holds these CSVs as the commands wrote them when the
    # files were added; a change that moves one must say so
    path = tmp_path / "m.model"
    path.write_text(text)
    assert run([command, "--model", str(path), "--out", str(tmp_path)]) == EXIT_OK
    for name, ref_name in golden.items():
        rows, ref = _read_csv(tmp_path / name), _read_csv(GOLDEN / ref_name)
        assert len(rows) == len(ref) and list(rows[0]) == list(ref[0])
        for col in ref[0]:
            got, want = [r[col] for r in rows], [r[col] for r in ref]
            if col in VALUE_COLUMNS:
                a, b = (np.array([parse_complex(v) for v in vs]) for vs in (got, want))
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), (name, col)
            elif col in CERTIFICATE_COLUMNS:
                assert [v == "" for v in got] == [v == "" for v in want], (name, col)
                assert all(float(v) <= 1e-8 for v in got + want if v != ""), (name, col)
            else:
                assert got == want, (name, col)
