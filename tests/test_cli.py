import json
import math

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
], ids=["walk-n0", "certify-samples0", "mc-T0", "mc-trials50", "mc-x0-outside",
        "lowerbound-d-above-T", "out-missing-dir", "sweep-empty-grid",
        "config-missing", "config-line-without-equals"])
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("family sc\n")
    argv = [a.format(missing=tmp_path / "missing" / "x.json", badcfg=badcfg)
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith("lastiter: error: ")
