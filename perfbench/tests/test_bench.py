"""The benchmark harness: clean tracing, faithful outputs, and its contract."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import bench
import run as entry
import tracer
import widecell
from pmpsim import load_scenario, run_scenario

ROOT = Path(__file__).resolve().parents[2]


def _small_cell(tmp_path, scheduler="wfq"):
    return widecell.write(tmp_path / "small.yaml", 5, scheduler,
                          stations=10, duration_us=1_000_000)


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_tracer_restores_originals_and_keeps_outputs(tmp_path):
    cell = _small_cell(tmp_path)
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in tracer.TARGETS}
    t = tracer.Tracer()
    t.install()
    try:
        assert not tracer.is_untraced()
        t.run_unit(bench.invoke, ["run", "--scenario", str(cell),
                                  "--out", str(tmp_path / "traced.csv")])
    finally:
        t.restore()
    assert tracer.is_untraced()
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, (owner, attr)

    bench.invoke(["run", "--scenario", str(cell), "--out", str(tmp_path / "plain.csv")])
    assert _digest(tmp_path / "traced.csv") == _digest(tmp_path / "plain.csv")

    result = run_scenario(load_scenario(str(cell)))
    spans, counters = t.unit_totals()[0], t.unit_counters[0]
    values = {name: fn(spans, counters) for name, _, fn in bench.LAYER_METRICS}
    assert values["kernel.events"] == result.dispatched
    assert values["traffic.sdus"] == result.summary.generated_packets["cell"]
    assert values["stations.on_map.calls"] == 10 * counters["phy.maps"]
    assert counters["phy.illegal_maps"] == 0
    # every station reads every IE of the map at least once
    assert counters["stations.on_map.ies_scanned"] >= 10 * counters["phy.map_ies"]
    assert 0 < values["stations.on_map.ie_hit_ratio"] <= 1 / 10


def test_counted_ies_count_only_reads_inside_on_map():
    t = tracer.Tracer()
    t.unit_counters.append(tracer.Counter())
    ies = t.CountedIes([1, 2, 3])
    two_passes = t.wrap(tracer.ON_MAP, lambda xs: [x for x in xs] + [x for x in xs])
    assert two_passes(ies) == [1, 2, 3, 1, 2, 3]
    assert t.counters["stations.on_map.ies_scanned"] == 6
    t.wrap("elsewhere", list)(ies)
    assert t.counters["stations.on_map.ies_scanned"] == 6


def test_self_time_excludes_tracer_bookkeeping():
    t = tracer.Tracer()
    t.calibrate()
    child = t.wrap("child", lambda: None, after=lambda _args, _result: sum(range(5000)))
    parent = t.wrap("parent", lambda: [child() for _ in range(1000)])
    t.run_unit(parent)
    spans = t.unit_totals()[0]
    calls, bookkeeping_s, _ = spans[tracer.BOOKKEEPING]
    assert calls == 1000
    assert spans["parent"][1] >= bookkeeping_s
    assert spans["parent"][2] < 0.05 * bookkeeping_s


def test_spans_nest_and_round_trip(tmp_path):
    cell = _small_cell(tmp_path, "dwrr")
    t = tracer.Tracer()
    t.install()
    try:
        t.run_unit(bench.invoke, ["run", "--scenario", str(cell),
                                  "--out", str(tmp_path / "out.csv")])
    finally:
        t.restore()
    n = t.dump(tmp_path / "spans.bin")
    names, f = tracer.load_spans(tmp_path / "spans.bin")
    assert n == len(f["name"]) > 1000
    assert names[f["name"][0]] == tracer.UNIT and f["parent"][0] == -1
    for i in range(1, n):
        p = f["parent"][i]
        assert 0 <= p < i
        assert f["start_s"][p] <= f["start_s"][i] <= f["end_s"][i] <= f["end_s"][p]


def test_compare_grid_digests_equal_direct_compare(tmp_path):
    grid = bench.CompareGrid(1, tmp_path)
    assert grid.seeds == [1, 2, 3, 4, 5]
    ours = grid.unit(tmp_path / "bench")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "pmpsim.cli", "compare", "--scenario", "paper-pmp",
                    "--schedulers", "wfq,dwrr", "--seeds", "1,2,3,4,5",
                    "--out-dir", str(tmp_path / "direct")],
                   check=True, capture_output=True, env=env, timeout=300)
    for (sched, seed), path in ours.items():
        direct = tmp_path / "direct" / f"run_{sched}_seed{seed}.csv"
        assert _digest(path) == _digest(direct), (sched, seed)


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(entry.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_run_prints_result_line():
    proc = _run(ROOT, "--workload", "wide-dwrr", "--seed", "2", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "compare-grid", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
