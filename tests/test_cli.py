import json
import math
import os
import time

import pytest

from lastiter import cli


def run(argv):
    return cli.main(argv)


def test_verify_json_report(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--family", "lip-fixed", "--d", "8", "--T", "64",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["family"] == "lip-fixed" and rep["d"] == 8 and rep["T"] == 64
    assert rep["max_deviation"] <= 1e-9
    assert rep["pass"] is True
    assert rep["final_value"] > rep["bound"]


def test_verify_json_reports_oracle_drift(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["verify", "--family", "sc", "--d", "8", "--T", "64",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["divergences"] == {"count": 0, "first": []}


def test_sweep_failure_report_carries_mismatch_and_drift(tmp_path, capsys):
    # a negative tolerance fails every row at its first iterate
    code = run(["sweep", "--family", "sc", "--d", "2", "--T", "4", "--tol", "-1",
                "--out", str(tmp_path / "s.csv")])
    assert code == 1
    (row,) = json.loads(capsys.readouterr().err)["failures"]
    assert row["first_mismatch"] == 1 and row["pass"] is False
    assert row["divergences"] == {"count": 0, "first": []}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_job_exception_is_a_failing_row(jobs, tmp_path, monkeypatch, capsys):
    # one job's final iterate leaves the ball, so eval_f raises the ValueError
    # a real run would; the workers are forked after the patch, so they raise
    # too, the other jobs still finish and the report carries the text
    real = cli.cons.eval_f

    def off_ball(inst, x):
        return real(inst, x + 2.0 if inst.d == 4 else x)

    monkeypatch.setattr(cli.cons, "eval_f", off_ball)
    out, curve = tmp_path / "s.csv", tmp_path / "c.csv"
    code = run(["sweep", "--family", "sc", "--d", "2,4,8", "--T", "64", "--jobs", jobs,
                "--curve-out", str(curve), "--out", str(out)])
    assert code == 1
    lines = out.read_text().splitlines()
    assert len(lines) == 4 and lines[2] == "sc,4,64,,,,False"
    assert lines[1].startswith("sc,2,64,") and lines[3].startswith("sc,8,64,")
    assert [l.split(",")[0] for l in curve.read_text().splitlines()] == ["d", "2", "8"]
    (row,) = json.loads(capsys.readouterr().err)["failures"]
    assert row == {"family": "sc", "d": 4, "T": 64, "max_deviation": None,
                   "first_mismatch": None, "divergences": None, "pass": False,
                   "error": "ValueError: x lies outside the unit ball"}


def test_sweep_dead_worker_is_a_failing_row(tmp_path, monkeypatch, capsys):
    # one forked worker exits without raising, which breaks the pool; the grid
    # is still written, the dead job's row carries the pool's error, and any
    # other job either finished or was lost with the pool
    real = cli._verify_point

    def dying(job):
        if job[1] == 8:
            os._exit(3)
        return real(job)

    monkeypatch.setattr(cli, "_verify_point", dying)
    out, curve = tmp_path / "s.csv", tmp_path / "c.csv"
    code = run(["sweep", "--family", "sc", "--d", "2,4,8", "--T", "64", "--jobs", "2",
                "--curve-out", str(curve), "--out", str(out)])
    assert code == 1
    rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
    assert [r[1] for r in rows] == ["2", "4", "8"]
    assert rows[2][3:] == ["", "", "", "False"]
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert failures[-1]["d"] == 8
    assert all(f["error"].startswith("BrokenProcessPool: ") for f in failures)
    lost = {f["d"] for f in failures}
    assert all(r[6] == "True" for r in rows if int(r[1]) not in lost)
    assert curve.read_text().splitlines()[0] == "d,final_suboptimality,bound"


def test_sweep_all_jobs_failing_leaves_a_header_only_curve(tmp_path, monkeypatch, capsys):
    def broken(job):
        raise ValueError("non-finite subgradient")

    monkeypatch.setattr(cli, "_verify_point", broken)
    out, curve = tmp_path / "s.csv", tmp_path / "c.csv"
    curve.write_text("d,final_suboptimality,bound\n2,0.5,0.25\n")   # an earlier run's
    code = run(["sweep", "--family", "sc", "--d", "2,4", "--T", "64", "--x-axis", "T",
                "--curve-out", str(curve), "--out", str(out)])
    assert code == 1
    assert curve.read_text() == "T,final_suboptimality,bound\n"
    assert out.read_text().splitlines()[1:] == ["sc,2,64,,,,False", "sc,4,64,,,,False"]
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert [f["error"] for f in failures] == ["ValueError: non-finite subgradient"] * 2


def test_lowerbound_csv(tmp_path):
    out = tmp_path / "lb.csv"
    code = run(["lowerbound", "--family", "sc", "--d", "2", "--T", "4",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,d,T,final_value,bound,ratio,pass"
    cells = lines[1].split(",")
    assert cells[0] == "sc"
    assert float(cells[4]) == pytest.approx(math.log(2) / 20, rel=1e-12)


def test_certify_exits_clean(tmp_path):
    out = tmp_path / "cert.json"
    code = run(["certify", "--family", "sc", "--d", "4", "--T", "16",
                "--samples", "2000", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    kinds = {c["kind"] for c in rep["checks"]}
    assert kinds == {"lipschitz", "strong_convexity"}
    assert rep["pass"] is True


def test_walk_json_and_csv(tmp_path):
    out = tmp_path / "walk.json"
    code = run(["walk", "--n", "100", "--profile", "quadratic", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["suboptimality"] <= rep["bound_value"]
    assert rep["residual"] <= 1e-12
    assert rep["pass"] is True

    out_csv = tmp_path / "walk.csv"
    code = run(["walk", "--n", "10", "--profile", "linear", "--slope", "0.5",
                "--format", "csv", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "i,x,a_i,p_i,f_x"
    assert len(lines) == 12
    assert float(lines[1].split(",")[2]) == 0.75


def test_mc_csv_and_json(tmp_path):
    out_csv = tmp_path / "mc.csv"
    args = ["mc", "--shape", "abs", "--epsilon", "0.5", "--T", "100",
            "--trials", "400", "--x0", "0.5"]
    code = run(args + ["--format", "csv", "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "trial,final_x,final_suboptimality,last_visit_t,hit_S"
    assert len(lines) == 401

    out_json = tmp_path / "mc.json"
    code = run(args + ["--out", str(out_json)])
    assert code == 0
    rep = json.loads(out_json.read_text())
    assert rep["trials"] == 400 and rep["T"] == 100
    assert rep["mean"] >= 0 and rep["se"] >= 0
    assert isinstance(rep["tail"], list)


@pytest.mark.parametrize("epsilon, degenerate, fitted", [
    ("1", True, False), ("0.5", False, True)])
def test_mc_flags_degenerate_oracle_and_tail_fit(tmp_path, epsilon, degenerate, fitted):
    # at epsilon = 1, P[+G] is 0 or 1 on both segments: every trial follows one
    # zigzag, so no tail can be fitted; at epsilon = 1/2 both fields stay quiet
    out = tmp_path / "mc.json"
    code = run(["mc", "--epsilon", epsilon, "--T", "400", "--trials", "2000",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["oracle_degenerate"] is degenerate
    if fitted:
        assert rep["tail_fit_status"] is None and rep["fitted_rate"] < 0
    else:
        assert rep["tail_fit_status"].startswith("insufficient trials for a tail fit")
        assert rep["fitted_rate"] is None and rep["tail"] == []


def test_sweep_csv_curve_and_idempotence(tmp_path):
    out = tmp_path / "sweep.csv"
    curve = tmp_path / "curve.csv"
    argv = ["sweep", "--family", "sc", "--d", "2,4,8", "--T", "256",
            "--out", str(out), "--curve-out", str(curve)]
    assert run(argv) == 0
    first = out.read_bytes()
    lines = out.read_text().splitlines()
    assert lines[0] == "family,d,T,final_value,bound,ratio,pass"
    assert len(lines) == 4
    assert all(line.endswith("True") for line in lines[1:])

    clines = curve.read_text().splitlines()
    assert clines[0] == "d,final_suboptimality,bound"
    finals = [float(l.split(",")[1]) for l in clines[1:]]
    assert finals == sorted(finals)  # grows with dimension

    # reruns produce identical bytes
    assert run(argv) == 0
    assert out.read_bytes() == first


def test_sweep_skips_invalid_pairs_and_rejects_empty(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["sweep", "--family", "lip-dec", "--d", "4,128", "--T", "64",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2  # only d=4 is valid
    with pytest.raises(SystemExit):
        run(["sweep", "--family", "sc", "--d", "128", "--T", "64", "--out", str(out)])


def test_sweep_parallel_matches_serial(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(["sweep", "--family", "lip-fixed", "--d", "1,2,4", "--T", "64,128",
                "--out", str(a)]) == 0
    assert run(["sweep", "--family", "lip-fixed", "--d", "1,2,4", "--T", "64,128",
                "--jobs", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("family=sc\nd=2\nT=4\nformat=json\n")
    out = tmp_path / "o.json"
    code = run(["lowerbound", "--config", str(cfg), "--d", "4", "--T", "16",
                "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["family"] == "sc"  # from the file
    assert rep["d"] == 4 and rep["T"] == 16  # flags win


def test_jobs_default_from_environment(monkeypatch):
    monkeypatch.setenv(cli.JOBS_ENV, "3")
    args = cli._build_parser().parse_args(
        ["sweep", "--family", "sc", "--d", "2", "--T", "64"])
    assert args.jobs == 3


def test_jobs_below_one_is_a_usage_error(monkeypatch, capsys):
    argv = ["sweep", "--family", "sc", "--d", "2", "--T", "4"]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--jobs", "0"])
    assert exc.value.code == 2
    monkeypatch.setenv(cli.JOBS_ENV, "0")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error:" in l]
    assert len(errors) == 2 and all("--jobs" in l for l in errors)


@pytest.mark.parametrize("argv, message", [
    (["verify", "--family", "sc", "--d", "2", "--T", "4"], "Unable to allocate 7.28 TiB"),
    (["sweep", "--family", "sc", "--d", "2", "--T", "4,8"], "Unable to allocate 7.28 TiB"),
    (["sweep", "--family", "sc", "--d", "2", "--T", "4,8", "--jobs", "2"], ""),
], ids=["verify", "sweep", "sweep-jobs2"])
def test_out_of_memory_is_a_usage_error(argv, message, monkeypatch, capsys):
    # no real allocation: the verifier raises what numpy raises for a huge T
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli.cons, "verify_instance", no_memory)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", "-"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == f"lastiter: error: {message or 'out of memory'}"


def test_out_of_memory_under_jobs_cancels_the_queued_jobs(tmp_path, monkeypatch, capsys):
    # the first job runs out of memory; the jobs still queued behind it are
    # cancelled, so only those already handed to a worker may still run
    ran = tmp_path / "ran"

    def first_out_of_memory(inst, *args, **kwargs):
        with open(ran, "a") as fh:
            fh.write(f"{inst.T}\n")
        if inst.T == 4:
            raise MemoryError("")
        time.sleep(0.05)
        return real(inst, *args, **kwargs)

    real = cli.cons.verify_instance
    monkeypatch.setattr(cli.cons, "verify_instance", first_out_of_memory)
    T = [str(t) for t in range(4, 28)]
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--family", "sc", "--d", "2", "--T", ",".join(T), "--jobs", "2",
             "--out", "-"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == "lastiter: error: out of memory"
    assert len(ran.read_text().split()) < len(T) // 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--family", "nope", "--d", "2", "--T", "4"])
    assert exc.value.code == 2


def test_verify_dump_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    code = run(["verify", "--family", "sc", "--d", "2", "--T", "4",
                "--dump-trace", str(trace), "--out", str(tmp_path / "r.json")])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,g_1,g_2,f_value"
    assert len(lines) == 6  # header + T+1 iterates


def test_failure_report_shape(capsys):
    code = cli._fail([{"family": "sc", "d": 2, "T": 4, "pass": False}])
    assert code == 1
    err = capsys.readouterr().err
    assert json.loads(err) == {"failures": [{"family": "sc", "d": 2, "T": 4,
                                             "pass": False}]}


def test_emit_curve_contract():
    with pytest.raises(ValueError):
        cli.emit_curve([], x_axis="d")
    with pytest.raises(ValueError):
        cli.emit_curve([{"d": 1, "T": 2, "final_value": 0.1, "bound": 0.05}],
                       x_axis="q")
    head, rows = cli.emit_curve(
        [{"d": 4, "T": 2, "final_value": 0.2, "bound": 0.1},
         {"d": 2, "T": 2, "final_value": 0.1, "bound": 0.05}])
    assert head == ["d", "final_suboptimality", "bound"]
    assert rows[0][0] == 2 and rows[1][0] == 4


@pytest.mark.parametrize("argv", [
    ["walk", "--n", "0"],
    ["certify", "--family", "sc", "--d", "2", "--T", "4", "--samples", "0"],
    ["mc", "--T", "0", "--trials", "200"],
    ["mc", "--T", "100", "--trials", "50"],
    ["mc", "--T", "100", "--trials", "200", "--x0", "5"],
    ["lowerbound", "--family", "sc", "--d", "5", "--T", "2"],
    ["lowerbound", "--family", "sc", "--d", "2", "--T", "4", "--out", "{missing}"],
    ["sweep", "--family", "sc", "--d", "128", "--T", "64"],
    ["lowerbound", "--config", "{missing}", "--d", "2", "--T", "4"],
    ["lowerbound", "--config", "{badcfg}", "--d", "2", "--T", "4"],
    ["lowerbound", "--family", "sc", "--d", "2", "--T", "4", "--config"],
    ["verify", "--family", "sc", "--d", "2", "--T", "4", "--tol", "nan"],
    ["sweep", "--family", "sc", "--d", "2", "--T", "4", "--tol", "nan"],
    ["sweep", "--family", "sc", "--d", "0,2", "--T", "4", "--jobs", "2"],
], ids=["walk-n0", "certify-samples0", "mc-T0", "mc-trials50", "mc-x0-outside",
        "lowerbound-d-above-T", "out-missing-dir", "sweep-empty-grid",
        "config-missing", "config-line-without-equals", "config-without-path",
        "verify-tol-nan", "sweep-tol-nan", "sweep-d0-jobs2"])
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("family sc\n")
    argv = [a.format(missing=tmp_path / "missing" / "x.json", badcfg=badcfg)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("lastiter: error: ")
