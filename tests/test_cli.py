import json
import math
import os
import time
import tracemalloc
import warnings
from concurrent.futures import Future

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
    # the strong-convexity check has no ratio: null, not NaN, in the JSON
    assert [c["worst_ratio"] for c in rep["checks"] if c["kind"] == "strong_convexity"] == [None]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, code", [
    (["lowerbound", "--family", "lip-dec", "--d", "4", "--T", "64"], 0),
    (["verify", "--family", "sc", "--d", "4", "--T", "64"], 0),
    (["verify", "--family", "sc", "--d", "4", "--T", "64", "--tol", "-1"], 1),
    (["certify", "--family", "sc", "--d", "4", "--T", "16", "--samples", "200"], 0),
    (["certify", "--family", "lip-fixed", "--d", "4", "--T", "16", "--samples", "200"], 0),
    (["walk", "--n", "50"], 0),
    (["mc", "--T", "100", "--trials", "200"], 0),
    (["mc", "--T", "100", "--trials", "200", "--kmax", "2", "--epsilon", "1"], 0),
], ids=["lowerbound", "verify", "verify-failing", "certify-sc", "certify-lip-fixed",
        "walk", "mc", "mc-degenerate"])
def test_json_outputs_are_strict_json(argv, code, tmp_path, capsys):
    # no NaN or Infinity, which strict parsers (jq, JSON.parse) reject
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == code
    assert isinstance(_strict_json(out.read_text()), dict)
    if code:
        assert isinstance(_strict_json(capsys.readouterr().err), dict)


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


def test_walk_method_power_iteration_is_a_usage_error(capsys):
    # the library keeps it as a cross-check; the CLI offers the O(n) routes
    with pytest.raises(SystemExit) as exc:
        run(["walk", "--n", "10", "--method", "power_iteration"])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error" in l]
    assert len(errors) == 1
    assert errors[0].startswith("lastiter walk: error: argument --method: invalid choice")


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


def test_mc_checks_the_trial_floor_before_simulating(monkeypatch, capsys):
    def simulate_paths(*args, **kwargs):
        raise AssertionError("simulate_paths ran")
    monkeypatch.setattr(cli.nl, "simulate_paths", simulate_paths)
    with pytest.raises(SystemExit) as exc:
        run(["mc", "--T", "100", "--trials", "50"])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "lastiter: error: need at least 100 trials for a stable mean"


@pytest.mark.parametrize("kmax", ["1", "0", "-3"])
def test_mc_checks_kmax_before_simulating(kmax, monkeypatch, capsys):
    # a tail fit needs two bins with k >= 1, whatever the trial count
    def simulate_paths(*args, **kwargs):
        raise AssertionError("simulate_paths ran")
    monkeypatch.setattr(cli.nl, "simulate_paths", simulate_paths)
    with pytest.raises(SystemExit) as exc:
        run(["mc", "--T", "400", "--trials", "5000", "--kmax", kmax])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"lastiter: error: kmax must be >= 2 for a tail fit, got {kmax}"


SEED_RUNS = {
    "mc": ["mc", "--T", "100", "--trials", "100", "--format", "csv"],
    "certify": ["certify", "--family", "sc", "--d", "2", "--T", "4", "--samples", "10"],
}


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_mc_seed_outside_64_bits_is_a_usage_error(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["mc", "--T", "100", "--trials", "100", "--seed", seed])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error" in l]
    assert errors == [f"lastiter mc: error: argument --seed: must lie in [0, 2^64), got {seed}"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "1.5"])
def test_certify_seed_outside_64_bits_is_a_usage_error(seed, capsys):
    # numpy's default_rng takes any integer >= 0, so only the shared --seed
    # type keeps certify to the range mc accepts
    with pytest.raises(SystemExit) as exc:
        run(SEED_RUNS["certify"] + ["--seed", seed])
    assert exc.value.code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if "error" in l]
    why = "not an integer: '1.5'" if seed == "1.5" else f"must lie in [0, 2^64), got {seed}"
    assert errors == [f"lastiter certify: error: argument --seed: {why}"]


@pytest.mark.parametrize("command", sorted(SEED_RUNS))
@pytest.mark.parametrize("seed", ["0", str(2 ** 64 - 1)])
def test_seed_at_either_end_of_64_bits_runs(command, seed, tmp_path):
    out = tmp_path / "out"
    assert run(SEED_RUNS[command] + ["--seed", seed, "--out", str(out)]) == 0
    assert out.read_text()


_STEP = "the fixed step 4D/(G sqrt(T)) is {}, not a finite positive float, for {}"


@pytest.mark.parametrize("flags, message", [
    (["--diameter", "inf"], "diameter and grad_bound must be finite and positive"),
    (["--grad-bound", "inf"], "diameter and grad_bound must be finite and positive"),
    # finite, but the step 4D/(G sqrt(T)) overflows, underflows, or sqrt(T) overflows
    (["--diameter", "1e308"], _STEP.format("inf", "diameter=1e+308, grad_bound=1.0, T=100")),
    (["--diameter", "1e-300", "--grad-bound", "1e300"],
     _STEP.format("0.0", "diameter=1e-300, grad_bound=1e+300, T=100")),
    (["--T", str(10 ** 400)], _STEP.format("0.0", f"diameter=1.0, grad_bound=1.0, T={10 ** 400}")),
], ids=["diameter-inf", "grad-bound-inf", "diameter-1e308", "step-underflow", "T-beyond-floats"])
def test_mc_rejects_non_finite_inputs(flags, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(SystemExit) as exc:
            run(["mc", "--T", "100", "--trials", "100", *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [l for l in err.splitlines() if "error" in l]
    assert errors == [f"lastiter: error: {message}"]


@pytest.mark.parametrize("family, T", [
    ("sc", 2 ** 60),            # t - q rounded away in the closed form: a false failure
    ("lip-fixed", 10 ** 19),    # a TypeError traceback
    ("lip-fixed", 10 ** 22),    # an OverflowError traceback
], ids=["sc-2^60", "lip-fixed-1e19", "lip-fixed-1e22"])
def test_T_beyond_exact_float_step_indices_is_a_usage_error(family, T, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["lowerbound", "--family", family, "--d", "2", "--T", str(T)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [l for l in err.splitlines() if "error" in l]
    assert errors == [f"lastiter: error: need T <= 2**53 - 1, so that every step index "
                      f"is an exact float, got T={T}"]


@pytest.mark.parametrize("family", ["sc", "lip-dec", "lip-fixed"])
def test_largest_T_with_exact_step_indices_passes(family, tmp_path):
    out = tmp_path / "lb.json"
    assert run(["lowerbound", "--family", family, "--d", "1000", "--T", str(2 ** 53 - 1),
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_lowerbound_memory_does_not_grow_with_T():
    # the closed form reads the d step sizes of the kicked window; a prefix
    # over all T steps would take 80 MB here
    tracemalloc.start()
    try:
        rec = cli._closed_form_record("lip-dec", 2, 10 ** 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec["pass"] is True
    assert peak < 1 << 20, peak


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


def test_sweep_asks_for_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a fork pool starts all of its workers at the first submit; this
    # executor runs each job inline and records the worker count asked for
    asked = []

    class InlineExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    out = tmp_path / "s.csv"
    assert run(["sweep", "--family", "sc", "--d", "2", "--T", "4,8", "--jobs", "64",
                "--out", str(out)]) == 0
    assert asked == [2]
    assert len(out.read_text().splitlines()) == 3


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


def test_config_prefix_reads_the_file(tmp_path):
    # argparse takes any prefix of --config as --config; each reads the file
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("family=lip-dec\nd=2\nT=8\nformat=csv\n")
    outs = {}
    for flag in ("--config", "--conf", "--c"):
        outs[flag] = tmp_path / f"{flag.strip('-')}.csv"
        assert run(["verify", flag, str(cfg), "--out", str(outs[flag])]) == 0
    first = outs["--config"].read_bytes()
    assert first.startswith(b"family,d,T,max_deviation,final_value,bound,pass\nlip-dec,2,8,")
    assert all(out.read_bytes() == first for out in outs.values())


@pytest.mark.parametrize("key", ["config", "conf", "c"])
def test_config_file_naming_a_config_file_is_a_usage_error(key, tmp_path, capsys):
    # argparse would take the line as --config (or a prefix of it) and ignore it
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"family=sc\nd=2\nT=4\n{key}={tmp_path / 'other.cfg'}\n")
    with pytest.raises(SystemExit) as exc:
        run(["lowerbound", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"lastiter: error: config file {cfg} names another config file "
        f"({key}={tmp_path / 'other.cfg'}); config files do not nest")
    assert not (tmp_path / "o.json").exists()


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


@pytest.mark.parametrize("argv, code", [
    (["mc", "--T", "100", "--trials", "100", "--x0", "-1e-3"], 0),
    (["mc", "--T", "100", "--trials", "100", "--x0=-1e-3"], 0),
    # a negative tolerance fails every row at its first iterate
    (["verify", "--family", "sc", "--d", "2", "--T", "4", "--tol", "-1e-3"], 1),
], ids=["mc-x0", "mc-x0-joined", "verify-tol"])
def test_negative_float_after_a_space_is_a_value(argv, code, tmp_path):
    out = tmp_path / "out.json"
    assert run([*argv, "--out", str(out)]) == code
    rep = json.loads(out.read_text())
    assert rep.get("x0", rep.get("tol")) == -1e-3


def test_only_a_negative_number_after_a_bare_flag_is_attached():
    argv = ["mc", "--x0", "-.5", "--tol=-1", "-2", "--out", "-", "--a", "-x",
            "--", "-inf", "--kmax", "-3"]
    assert cli.attach_negative_numbers(argv) == [
        "mc", "--x0=-.5", "--tol=-1", "-2", "--out", "-", "--a", "-x",
        "--", "-inf", "--kmax=-3"]


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("tol", ["-inf", "-nan"])
def test_negative_non_finite_tol_is_the_finite_tol_error(command, tol, capsys):
    with pytest.raises(SystemExit) as exc:
        run([command, "--family", "sc", "--d", "2", "--T", "4", "--tol", tol])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "lastiter: error: tol must be finite, not NaN or infinite")


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
    ["verify", "--family", "sc", "--d", "2", "--T", "4", "--tol", "inf"],
    ["sweep", "--family", "sc", "--d", "2", "--T", "4", "--tol=-inf"],
    ["sweep", "--family", "sc", "--d", "0,2", "--T", "4", "--jobs", "2"],
    ["certify", "--family", "sc", "--d", "2", "--T", "4", "--format", "csv"],
    ["lowerbound", "--family", "sc", "--d", "2", "--T", "4", "--seed", "1"],
], ids=["walk-n0", "certify-samples0", "mc-T0", "mc-trials50", "mc-x0-outside",
        "lowerbound-d-above-T", "out-missing-dir", "sweep-empty-grid",
        "config-missing", "config-line-without-equals", "config-without-path",
        "verify-tol-nan", "sweep-tol-nan", "verify-tol-inf", "sweep-tol-minus-inf",
        "sweep-d0-jobs2", "certify-format",
        "lowerbound-seed"])
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("family sc\n")
    argv = [a.format(missing=tmp_path / "missing" / "x.json", badcfg=badcfg)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("lastiter: error: ")
