import yaml

import pytest

from pmpsim import load_scenario, run_scenario
from pmpsim.bwreq import BandwidthManager
from pmpsim.cli import main
from pmpsim.phy import GrantKind, IllegalMapError, MapIE


def run_cli(*argv):
    return main(list(argv))


def tiny_file(tmp_path, **overrides):
    doc = {
        "name": "clitiny",
        "stations": {"count": 2},
        "flows": [{"kind": "ftp", "src": 1, "dst": 2}],
        "run": {"duration_us": 1_000_000, "seed": 3},
    }
    doc.update(overrides)
    path = tmp_path / "tiny.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_run_writes_csv(tmp_path):
    out = tmp_path / "out.csv"
    rc = run_cli("run", "--scenario", tiny_file(tmp_path), "--out", str(out))
    assert rc == 0
    text = out.read_text()
    assert text.startswith("scenario,scheduler_bs,scheduler_ss,seed,scope,metric")
    assert "clitiny,wfq,wfq,3," in text


def test_run_repeatable_byte_identical(tmp_path):
    scenario = tiny_file(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("run", "--scenario", scenario, "--out", str(a)) == 0
    assert run_cli("run", "--scenario", scenario, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_scheduler_override(tmp_path):
    out = tmp_path / "out.csv"
    rc = run_cli("run", "--scenario", tiny_file(tmp_path),
                 "--bs-scheduler", "dwrr", "--ss-scheduler", "fifo",
                 "--out", str(out))
    assert rc == 0
    assert "clitiny,dwrr,fifo,3," in out.read_text()


def test_validate_builtin():
    assert run_cli("validate", "--scenario", "paper-pmp") == 0


def test_validate_unknown_name_exit_1():
    assert run_cli("validate", "--scenario", "no-such-scenario") == 1


def test_print_scenario_roundtrips(tmp_path):
    out = tmp_path / "paper.yaml"
    assert run_cli("print-scenario", "--scenario", "paper-pmp", "--out", str(out)) == 0
    assert run_cli("validate", "--scenario", str(out)) == 0


def test_compare_verdicts_and_grid(tmp_path, capsys):
    scenario = tiny_file(tmp_path)
    out_dir = tmp_path / "cmp"
    rc = run_cli("compare", "--scenario", scenario, "--schedulers", "wfq,dwrr",
                 "--seeds", "1,2", "--out-dir", str(out_dir))
    assert rc == 0
    report = (out_dir / "report.txt").read_text()
    assert "delay_s@bs: wfq < dwrr in" in report
    assert "throughput_bps@bs: wfq > dwrr in" in report
    assert (out_dir / "comparison.csv").exists()
    assert (out_dir / "run_wfq_seed1.csv").exists()
    assert (out_dir / "run_dwrr_seed2.csv").exists()


def test_compare_single_scheduler_rejected(tmp_path):
    rc = run_cli("compare", "--scenario", tiny_file(tmp_path),
                 "--schedulers", "fifo", "--seeds", "1",
                 "--out-dir", str(tmp_path / "x"))
    assert rc == 1


def test_compare_single_seed_flagged_low_confidence(tmp_path):
    out_dir = tmp_path / "cmp1"
    rc = run_cli("compare", "--scenario", tiny_file(tmp_path),
                 "--schedulers", "wfq,fifo", "--seeds", "7",
                 "--out-dir", str(out_dir))
    assert rc == 0
    assert "low confidence" in (out_dir / "report.txt").read_text()


def test_compare_repeatable(tmp_path):
    scenario = tiny_file(tmp_path)
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    for d in (d1, d2):
        assert run_cli("compare", "--scenario", scenario, "--schedulers",
                       "wfq,dwrr", "--seeds", "1", "--out-dir", str(d)) == 0
    assert (d1 / "report.txt").read_bytes() == (d2 / "report.txt").read_bytes()
    assert (d1 / "comparison.csv").read_bytes() == (d2 / "comparison.csv").read_bytes()


def test_oversubscribed_ugs_exit_2(tmp_path, monkeypatch, capsys):
    # validate rejects a load whose unsolicited grants cannot fit (exit 1); the
    # per-frame check still stops a run whose grants outgrow the uplink
    issue = BandwidthManager.issue_unsolicited
    monkeypatch.setattr(BandwidthManager, "issue_unsolicited",
                        lambda self, now: issue(self, now) * 1000)
    assert run_cli("run", "--out", str(tmp_path / "x.csv")) == 2
    assert "unsolicited grants need" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_illegal_map_exit_2(tmp_path, monkeypatch, capsys):
    # every map's first data grant overlaps the next IE: the per-frame check
    # runs without record_audit and stops the run
    build = BandwidthManager.build_ul_map

    def overlapping(self, frame_index, now):
        ul_map = build(self, frame_index, now)
        ul_map.ies.insert(0, MapIE(1, 1, 0, 8, GrantKind.DATA))
        return ul_map

    monkeypatch.setattr(BandwidthManager, "build_ul_map", overlapping)
    with pytest.raises(IllegalMapError, match="frame 0: illegal uplink map"):
        run_scenario(load_scenario("paper-pmp"))
    assert run_cli("run", "--out", str(tmp_path / "x.csv")) == 2
    assert "illegal uplink map (overlap)" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_duration_flag_overrides(tmp_path):
    out = tmp_path / "out.csv"
    rc = run_cli("run", "--scenario", tiny_file(tmp_path), "--duration", "2",
                 "--out", str(out))
    assert rc == 0
    # 2 s at 1 s buckets: bucket starts 0 and 1 appear
    assert ",load_bps,1.000000," in out.read_text()


def _run(**overrides):
    """argv of `run` on the tiny scenario with these top-level overrides."""
    return lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path, **overrides),
                             "--out", str(tmp_path / "x.csv")]


def _flow(kind, **fields):
    return _run(flows=[{"kind": kind, "src": 1, "dst": 2, **fields}])


def _compare_into(blocked):
    """compare whose --out-dir holds a directory named `blocked`."""
    def argv(tmp_path):
        (tmp_path / "cmp" / blocked).mkdir(parents=True)
        return ["compare", "--scenario", tiny_file(tmp_path), "--seeds", "1",
                "--out-dir", str(tmp_path / "cmp")]
    return argv


def _binary_file(tmp_path):
    path = tmp_path / "binary.yaml"
    path.write_bytes(b"\xff\xfe\x00 not text")
    return ["validate", "--scenario", str(path)]


@pytest.mark.parametrize("argv,path", [
    (_flow("http", page_rate_per_s=0), "flows[0].page_rate_per_s"),
    (_flow("http", page_rate_per_s=-2.5), "flows[0].page_rate_per_s"),
    (_flow("http", pareto_alpha="abc"), "flows[0].pareto_alpha"),
    (_flow("http", pareto_alpha=1.0), "flows[0].pareto_alpha"),
    (_flow("video", sigma=-0.5), "flows[0].sigma"),
    (_run(frame=3), "frame: must be a mapping"),
    # a squared sigma past the float range
    (_flow("video", sigma=1e200), "flows[0].sigma: must be a finite number <= 10"),
    # a mean page gap of 1e6 / rate past the float range
    (_flow("http", page_rate_per_s=1e-320), "flows[0].page_rate_per_s: must be a finite"),
    (_flow("http", mean_page_bytes=10**400), "flows[0].mean_page_bytes: must be <="),
    (_flow("voice", packet_bytes=1, rate_bps=20_000_000), "flows[0]: packet_bytes at rate_bps"),
    (_flow("ftp", start_us=1_000_000, stop_us=10), "flows[0].stop_us: must be after start_us"),
    (_flow("http", mean_page_bytes=600_000), "flows[0]: mean_page_bytes must not exceed"),
    # no capacity: a run that delivers nothing and exits 0
    (_run(frame={"coding_rate": 0}), "frame.coding_rate: must lie in (0, 1]"),
    (_run(frame={"efficiency_factor": "-1/2"}), "frame.efficiency_factor: must lie in (0, 1]"),
    (_run(name="a,b"), "name: must not contain a comma"),
    (_run(name="a\nb"), "name: must not contain a comma"),
    (_run(flows=[{"kind": "ftp", "src": 1, "dst": 2}] * 32_768), "flows: at most 32767 flows"),
    (_run(flows=[{"kind": "ftp", "dst": 2}]), "flows[0]: flow needs src and dst"),
    (_run(flows=[{"kind": "voice", "src": 1}]), "flows[0]: flow needs src and dst"),
    (lambda tmp_path: ["validate", "--scenario", str(tmp_path)], ": cannot read: "),
    (_binary_file, "binary.yaml: cannot read: "),
    (lambda tmp_path: ["compare", "--scenario", tiny_file(tmp_path), "--seeds", "1,x",
                       "--out-dir", str(tmp_path / "cmp")], "--seeds: expected"),
    # the command line's own inputs
    (lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path),
                       "--out", str(tmp_path / "missing" / "x.csv")], "--out: no directory"),
    (lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path), "--out", str(tmp_path)],
     "is a directory"),
    (lambda tmp_path: ["print-scenario", "--out", str(tmp_path / "missing" / "x.yaml")],
     "--out: cannot write"),
    (lambda tmp_path: ["compare", "--scenario", tiny_file(tmp_path), "--schedulers", "wfq,wfq",
                       "--out-dir", str(tmp_path / "cmp")], "--schedulers: wfq is given twice"),
    (lambda tmp_path: ["compare", "--scenario", tiny_file(tmp_path), "--seeds", "1,2,1",
                       "--out-dir", str(tmp_path / "cmp")], "--seeds: 1 is given twice"),
    (lambda tmp_path: ["compare", "--scenario", tiny_file(tmp_path), "--seeds", "1",
                       "--out-dir", tiny_file(tmp_path)], "--out-dir: cannot create"),
    # a seed a file's run.seed would reject: Random(-3) draws as Random(3) does
    (lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path), "--seed", "-3",
                       "--out", str(tmp_path / "x.csv")], "--seed: must be >= 0, got -3"),
    (lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path), "--seed", str(2**53 + 1),
                       "--out", str(tmp_path / "x.csv")], "--seed: must be <= "),
    (lambda tmp_path: ["compare", "--scenario", tiny_file(tmp_path), "--seeds=-1,2",
                       "--out-dir", str(tmp_path / "cmp")], "--seeds: must be >= 0, got -1"),
    # a run.duration_us past 2^53, or none at all
    (lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path), "--duration", "99999999999999",
                       "--out", str(tmp_path / "x.csv")], "--duration: must lie in 1..9007199254"),
    (lambda tmp_path: ["run", "--scenario", tiny_file(tmp_path), "--duration", "0",
                       "--out", str(tmp_path / "x.csv")], "--duration: must lie in 1.."),
    (lambda tmp_path: ["compare", "--scenario", tiny_file(tmp_path), "--duration", "-2",
                       "--out-dir", str(tmp_path / "cmp")], "--duration: must lie in 1.."),
    # 40 Mb/s in 1000 B packets: 62500 B of grants a frame, past the uplink's 55503 B
    (lambda tmp_path: ["validate", "--scenario", tiny_file(tmp_path, flows=[
        {"kind": "voice", "src": 1, "dst": 2, "rate_bps": 40_000_000, "packet_bytes": 1000}])],
     "flows[0]: unsolicited grants need up to 62500 B a frame but uplink capacity is 55503 B"),
    # a silent ertPS flow keeps a grant of request_bytes, here above its talk grant of 100 B
    (lambda tmp_path: ["validate", "--scenario", tiny_file(
        tmp_path, stations={"count": 3}, contention={"request_bytes": 30_000},
        flows=[{"kind": "voip_silence", "src": 1, "dst": 2},
               {"kind": "voip_silence", "src": 2, "dst": 3}])],
     "flows[1]: unsolicited grants need up to 60000 B a frame"),
    (_compare_into("run_wfq_seed1.csv"), "--out-dir: cannot write "),
    (_compare_into("comparison.csv"), "comparison.csv: Is a directory"),
    (_compare_into("report.txt"), "report.txt: Is a directory"),
], ids=["rate-zero", "rate-negative", "alpha-text", "alpha-one", "sigma-negative",
        "frame-not-mapping", "sigma-huge", "rate-subnormal", "page-bytes-huge",
        "voice-period-zero", "stop-before-start", "page-mean-over-max", "coding-rate-zero",
        "efficiency-negative", "name-comma",
        "name-newline", "too-many-flows", "flow-no-src", "flow-no-dst",
        "scenario-is-directory", "scenario-not-text",
        "seed-not-integer", "run-out-no-directory", "run-out-is-directory",
        "print-out-no-directory", "compare-scheduler-twice", "compare-seed-twice",
        "compare-out-dir-is-file", "seed-negative", "seed-too-large", "compare-seed-negative",
        "duration-too-large", "duration-zero", "duration-negative", "unsolicited-over-capacity",
        "ertps-silent-over-capacity",
        "compare-run-csv-is-directory",
        "compare-grid-is-directory", "compare-report-is-directory"])
def test_bad_scenario_exit_1_with_path(tmp_path, capsys, argv, path):
    assert run_cli(*argv(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: ") and path in err, err


@pytest.mark.parametrize("argv,message", [
    (["run", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["run", "--bs-scheduler", "edf"], "argument --bs-scheduler: invalid choice: 'edf'"),
    (["simulate"], "argument command: invalid choice: 'simulate'"),
    ([], "the following arguments are required: command"),
    (["run", "--no-such-flag"], "unrecognized arguments: --no-such-flag"),
    # compare runs the seeds of --seeds only; a prefix is not the flag it
    # begins. Both are refused before the scenario is looked for.
    (["compare", "--seed", "7", "--seeds", "1", "--scenario", "missing.yaml"],
     "unrecognized arguments: --seed"),
    (["run", "--see", "3"], "unrecognized arguments: --see 3"),
], ids=["seed-not-integer", "scheduler-unknown", "command-unknown", "command-missing",
        "flag-unknown", "compare-seed", "flag-abbreviated"])
def test_command_line_error_exit_1(capsys, argv, message):
    # exit 2 is reserved for runtime invariant violations
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 1
    assert message in capsys.readouterr().err


def test_run_checks_out_path_before_running(tmp_path, monkeypatch):
    def no_run(_scenario):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setattr("pmpsim.cli.run_scenario", no_run)
    assert run_cli("run", "--scenario", tiny_file(tmp_path),
                   "--out", str(tmp_path / "missing" / "x.csv")) == 1
