"""Smoke tests: each script under scripts/ exits 0 on a tiny input and
writes output that reads back, and exits 2 on an option it cannot serve."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=60)


def test_mc_scaling_study_writes_rows(tmp_path):
    out = tmp_path / "mc.json"
    proc = run_script("mc_scaling_study.py", "--trials", "200",
                      "--horizons", "100,400", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(out.read_text())
    assert rep["trials"] == 200 and rep["epsilon"] == 0.5
    assert [row["T"] for row in rep["rows"]] == [100, 400]
    assert all(row["mean"] > 0 and row["never_hit"] >= 0 for row in rep["rows"])


def test_mc_scaling_study_reads_a_negative_x0_after_a_space(tmp_path):
    out = tmp_path / "mc.json"
    proc = run_script("mc_scaling_study.py", "--trials", "100", "--horizons", "100",
                      "--x0", "-1e-3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["x0"] == -1e-3


def test_mc_scaling_study_rejects_shapes_that_need_knots():
    # "piecewise" needs knots and slopes, which no option passes
    proc = run_script("mc_scaling_study.py", "--shape", "piecewise", "--trials", "200",
                      "--horizons", "100")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "invalid choice" in proc.stderr


@pytest.mark.parametrize("args, message", [
    (("--trials", "50", "--horizons", "100"), "need at least 100 trials"),
    (("--horizons", "100,x"), "not a comma-separated list of integers: '100,x'"),
    (("--epsilon", "2"), "epsilon must lie in (0, 1]"),
    (("--epsilon", "-1e-3"), "epsilon must lie in (0, 1]"),
    (("--seed", "-1", "--horizons", "100"), "argument --seed: must lie in [0, 2^64), got -1"),
    (("--trials", "100", "--horizons", "100,0"), "--horizons must all be >= 1, got 0"),
], ids=["trials", "horizons", "epsilon", "epsilon-negative-exponent", "seed-negative",
        "horizon-zero"])
def test_mc_scaling_study_exits_2_on_inputs_it_cannot_serve(args, message):
    proc = run_script("mc_scaling_study.py", *args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("args, message", [
    (("--dims", "x"), "argument --dims: not a comma-separated list of integers: 'x'"),
    (("--T", "0"), "argument --T: must be >= 1, got 0"),
    (("--dims", "8", "--T", "4"), "--dims must be >= 1 and hold some d <= --T, "
                                  "got --dims 8 and --T 4"),
    (("--dims", "0,2", "--T", "4"), "--dims must be >= 1 and hold some d <= --T, "
                                    "got --dims 0,2 and --T 4"),
], ids=["dims-not-integers", "T-zero", "no-d-below-T", "d-zero"])
def test_bound_vs_dimension_exits_2_before_making_its_out_dir(tmp_path, args, message):
    out_dir = tmp_path / "out"
    proc = run_script("bound_vs_dimension.py", *args, "--out-dir", str(out_dir))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"bound_vs_dimension.py: error: {message}"]
    assert not out_dir.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "path-under-file"])
def test_bound_vs_dimension_exits_2_on_an_out_dir_it_cannot_make(tmp_path, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out_dir = blocker / "sub" if under else blocker
    proc = run_script("bound_vs_dimension.py", "--T", "4", "--dims", "1",
                      "--out-dir", str(out_dir))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and str(out_dir) in errors[0]


def test_bound_vs_dimension_writes_curves(tmp_path):
    proc = run_script("bound_vs_dimension.py", "--T", "64", "--dims", "1,2,4",
                      "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for family in ("sc", "lip-dec", "lip-fixed"):
        with open(tmp_path / f"curve_{family}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["d"]) for row in rows] == [1, 2, 4]
        assert all(float(row["final_suboptimality"]) > float(row["bound"])
                   for row in rows)
        with open(tmp_path / f"sweep_{family}.csv", newline="") as fh:
            assert all(row["pass"] == "True" for row in csv.DictReader(fh))
    slopes = json.loads((tmp_path / "slopes.json").read_text())
    assert slopes["T"] == 64
    for family in ("sc", "lip-dec", "lip-fixed"):
        slope = slopes["families"][family]["slope"]
        assert math.isfinite(slope) and slope > 0
