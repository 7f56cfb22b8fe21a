import csv
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hstorsion
from hstorsion import cli, cohomology
from hstorsion.backends import format_complex
from hstorsion.cli import EXIT_CONTRACT, EXIT_INPUT, EXIT_OK, run
from hstorsion.cohomology import CohomologyMismatch, cohomology_table
from hstorsion.deform import kahler_in_class
from hstorsion.energy import gradient_descent
from hstorsion.torsion import torsion_form

from conftest import IWASAWA_TEXT, SPECTRAL_TEXT, TORUS_TEXT

FAMILY_TEXT = """kind invariant
n 3
d 3 := poly(0, -1) * e(1,2)
t_samples := 0 0.5 1
"""


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


def test_classify_bidegree_filter(iwasawa_file, tmp_path):
    out = tmp_path / "out"
    code = run(["classify", "--model", iwasawa_file, "--out", str(out),
                "--bidegree", "0,1", "--bidegree", "1,1"])
    assert code == EXIT_OK
    report = (out / "classify_report.txt").read_text()
    assert "0 1" in report and "1 1" in report
    coh = _read_csv(out / "cohomology.csv")
    assert [(r["p"], r["q"]) for r in coh] == [("0", "1"), ("1", "1")]
    code = run(["classify", "--model", iwasawa_file, "--out", str(out),
                "--bidegree", "4,0"])
    assert code == EXIT_INPUT


def test_classify_reports_unreliable_kernel_split(iwasawa_file, tmp_path,
                                                   monkeypatch):
    # rcond 0.1 puts the Iwasawa Laplacians' eigenvalue 1 within 100x of the
    # cutoff; classify writes one line per unreliable split it shows
    out = tmp_path / "out"
    assert run(["classify", "--model", iwasawa_file, "--out", str(out)]) == EXIT_OK
    assert "unreliable" not in (out / "classify_report.txt").read_text()
    tables = []

    def table(H):
        tables.append(cohomology_table(H, rcond=0.1))
        return tables[-1]

    monkeypatch.setattr(cli, "cohomology_table", table)
    code = run(["classify", "--model", iwasawa_file, "--out", str(out),
                "--bidegree", "0,1", "--bidegree", "0,0"])
    assert code == EXIT_OK
    lines = [line for line in (out / "classify_report.txt").read_text().splitlines()
             if line.startswith("unreliable kernel split")]
    assert lines == [
        "unreliable kernel split: dbar Laplacian at (0,1) has an eigenvalue "
        "within 100x of the cutoff",
        "unreliable kernel split: bc Laplacian at (0,1) has an eigenvalue "
        "within 100x of the cutoff"]
    assert len(tables[0].unreliable) > len(lines)


@pytest.mark.parametrize("argv", [
    ["torsion", "--bidegree", "1,1"],
    ["classify", "--max-iters", "5"],
    ["energy", "--t-samples", "0 1"],
    ["family", "--bidegree", "0,1"],
    ["kahler", "--max-iters", "5"],
])
def test_flag_on_wrong_subcommand(argv, torus_file, tmp_path):
    code = run(argv[:1] + ["--model", torus_file, "--out", str(tmp_path)]
               + argv[1:])
    assert code == EXIT_INPUT


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


def test_family_t_samples_override(tmp_path):
    fam = tmp_path / "family.model"
    fam.write_text(FAMILY_TEXT)
    out = tmp_path / "out"
    code = run(["family", "--model", str(fam), "--out", str(out),
                "--t-samples", "0 0.25"])
    assert code == EXIT_OK
    rows = _read_csv(out / "family.csv")
    assert [r["t"] for r in rows] == ["0.0", "0.25"]


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
    assert lines[1] == f"command: {command}" and lines[6] == ""
    assert len(lines) == 8 and lines[7].startswith(refusal)
    assert sorted(p.name for p in out.iterdir()) == [f"{command}_report.txt"]


@pytest.mark.parametrize("command", ["classify", "torsion", "energy", "flow", "kahler",
                                     "family"])
def test_metric_commands_refuse_n_below_2(command, tmp_path):
    # n = 1 parses (the grammar allows it), but every metric command reads
    # (2,0)- and (0,2)-forms: refused as bad input on the n line, with the
    # report written
    model = tmp_path / "n1.model"
    family = "t_samples := 0 1\n" if command == "family" else ""
    model.write_text("kind invariant\nn 1\n" + family)
    out = tmp_path / "out"
    assert run([command, "--model", str(model), "--out", str(out)]) == EXIT_INPUT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[-1] == ("error: line 2: the metric commands read (2,0)- and (0,2)-forms, "
                         "which need n >= 2")


def _violating_torsion(H, **kwargs):
    return dataclasses.replace(torsion_form(H, **kwargs), residual_closed=1.0)


def _violating_flow(point, **kwargs):
    res = gradient_descent(point, **kwargs)
    res.history[-1]["energy"] += 1.0
    return res


def _violating_kahler(H, **kwargs):
    return dataclasses.replace(kahler_in_class(H, **kwargs), d_residual=1.0)


@pytest.mark.parametrize("command, target, violate", [
    ("torsion", "torsion_form", _violating_torsion),
    ("flow", "gradient_descent", _violating_flow),
    ("kahler", "kahler_in_class", _violating_kahler),
])
def test_contract_violation_exits_2_with_its_report(command, target, violate,
                                                    torus_file, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(cli, target, violate)
    out = tmp_path / "out"
    assert run([command, "--model", torus_file, "--out", str(out)]) == EXIT_CONTRACT
    lines = (out / f"{command}_report.txt").read_text().splitlines()
    assert lines[1] == f"command: {command}"
    assert lines[-1].startswith("contract violation: ")
    assert sum(line.startswith("contract violation") for line in lines) == 1


def test_report_header(torus_file, tmp_path):
    out = tmp_path / "out"
    run(["classify", "--model", torus_file, "--out", str(out)])
    head = (out / "classify_report.txt").read_text().splitlines()[:6]
    assert head[0].startswith("hstorsion ")
    assert head[1] == "command: classify"
    assert head[3].startswith("model_hash: ")
    assert len(head[3].split()[-1]) == 12


def test_python_m_hstorsion(torus_file, tmp_path):
    src = str(Path(hstorsion.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "hstorsion", "classify", "--model", torus_file,
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "out" / "classify_report.txt").exists()


def test_import_does_no_numeric_work():
    # importing the command layer loads no scipy and builds none of the
    # per-n tables, so a command's set-up is the interpreter and the imports
    src = str(Path(hstorsion.__file__).resolve().parents[1])
    code = ("import sys, hstorsion.cli\n"
            "from hstorsion import metric\n"
            "print('scipy' in sys.modules, [f.cache_info().currsize for f in (\n"
            "    metric._laplace_tables, metric._jacobi_tables, metric._node_tables)])\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "False [0, 0, 0]"


def test_family_runs_five_laplacians_per_sample(tmp_path, monkeypatch):
    # the dimension columns take the Bott-Chern Laplacians at (0,2), (2,1)
    # and the Dolbeault ones at (0,1), (0,2); the torsion form adds the
    # Bott-Chern (2,0); the Neumann and Kahler solves reuse (0,2), (0,1)
    # and (2,1) from the metric's memo
    calls = []
    for which, lap in list(cohomology._LAPLACIANS.items()):
        monkeypatch.setitem(cohomology._LAPLACIANS, which,
                            lambda H, p, q, which=which, lap=lap:
                            calls.append((H, p, q, which)) or lap(H, p, q))
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
    assert len({(id(H), p, q, w) for H, p, q, w in calls}) == len(calls)
