import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hstorsion
from hstorsion import cli
from hstorsion.backends import format_complex
from hstorsion.cli import EXIT_CONTRACT, EXIT_INPUT, EXIT_OK, run
from hstorsion.cohomology import CohomologyMismatch

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


def test_torsion_command(spectral_file, tmp_path):
    out = tmp_path / "out"
    code = run(["torsion", "--model", spectral_file, "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_csv(out / "torsion.csv")
    assert rows and all("i" in r["value"] or "." in r["value"] for r in rows)


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


def test_bad_model_text(tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_text("kind widget\nn 3\n")
    code = run(["classify", "--model", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command, target, error", [
    ("classify", "cohomology_table", CohomologyMismatch("h_bc(1,1): kernel 4 vs rank 5")),
    ("torsion", "torsion_form", np.linalg.LinAlgError("not positive definite")),
])
def test_numerical_failure_exits_2(command, target, error, torus_file, tmp_path,
                                   monkeypatch):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, fail)
    code = run([command, "--model", torus_file, "--out", str(tmp_path)])
    assert code == EXIT_CONTRACT


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
