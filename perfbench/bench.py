"""Workloads, closed-loop measurement, correctness checks and reporting.

Every workload is a closed loop with one caller in one process: a unit is
one pmpsim invocation through `pmpsim.cli.main`, and the next unit starts
only after the previous one has returned. Units repeat the same inputs, so
every repetition must write byte-identical CSVs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import pmpsim.cli
import pmpsim.metrics
from pmpsim.scenario import load_scenario

import widecell
from tracer import BOOKKEEPING, HANDLER_SPANS, RECORD_METHODS, UNIT, Tracer, is_untraced

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 21
# Share of --seconds a traced invocation spends traced; the rest runs untraced.
# One compare-grid unit already records about three million spans.
TRACED_SHARE = 1 / 4
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "sim_speed": "s/s", "setup_s": "s", "peak_rss_mb": "MB"}
MODEL_FIELDS = (("sim.bs_delay_s", "bs", "delay_s"),
                ("sim.bs_throughput_bps", "bs", "throughput_bps"),
                ("sim.collisions", "cell", "collisions"),
                ("sim.unused_grant_bytes", "cell", "unused_grant_bytes"))

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pmpsim
sc = pmpsim.load_scenario(sys.argv[2])
sc.scheduler_bs = sc.scheduler_ss = sys.argv[3]
sc.seed = int(sys.argv[4])
pmpsim.SimulationRun(sc)
print(time.perf_counter() - t0)
"""


class RunFailed(RuntimeError):
    """pmpsim returned a non-zero exit code."""


def invoke(argv: list[str]) -> None:
    """`pmpsim <argv>` in this process, its report discarded."""
    with redirect_stdout(io.StringIO()):
        code = pmpsim.cli.main(argv)
    if code != 0:
        raise RunFailed(f"pmpsim {' '.join(argv)} exited with {code}")


# --------------------------------------------------------------- workloads

class CompareGrid:
    """`pmpsim compare` of WFQ and DWRR on paper-pmp over five seeds.

    The grid's seeds are the workload seed and the four after it, so seed 1
    is the paper's own experiment (seeds 1-5).
    """
    schedulers = ("wfq", "dwrr")

    def __init__(self, seed: int, work_dir: Path):
        self.scenario = "paper-pmp"
        self.seeds = [seed + i for i in range(5)]
        self.runs = [(s, x) for s in self.schedulers for x in self.seeds]
        self.sim_seconds = len(self.runs) * load_scenario(self.scenario).duration_us / 1e6

    def unit(self, d: Path) -> dict[tuple[str, int], Path]:
        invoke(["compare", "--scenario", self.scenario,
                "--schedulers", ",".join(self.schedulers),
                "--seeds", ",".join(map(str, self.seeds)), "--out-dir", str(d)])
        return self.csv_paths(d)

    def csv_paths(self, d: Path) -> dict[tuple[str, int], Path]:
        return {(s, x): d / f"run_{s}_seed{x}.csv" for s, x in self.runs}

    def check(self, d: Path, summaries: dict) -> list[str]:
        """The grid file must hold exactly the values of the per-run CSVs."""
        expected = {f"{s},{x},{scope},{metric},{summaries[(s, x)][(scope, metric)]:.6f}"
                    for s, x in self.runs for scope, metric, _ in pmpsim.cli.VERDICT_METRICS}
        lines = (d / "comparison.csv").read_text().splitlines()[1:]
        if set(lines) != expected or len(lines) != len(expected):
            return ["comparison.csv does not match the per-run CSV summaries"]
        return []


class WideCell:
    """`pmpsim run` of the generated wide cell, then its summary read back."""

    def __init__(self, scheduler: str, seed: int, work_dir: Path):
        self.scenario = str(widecell.write(
            work_dir / f"wide-{scheduler}-seed{seed}.yaml", seed, scheduler))
        self.runs = [(scheduler, widecell.RUN_SEED)]
        self.sim_seconds = widecell.DURATION_US / 1e6

    def unit(self, d: Path) -> dict[tuple[str, int], Path]:
        csvs = self.csv_paths(d)
        csv = str(csvs[self.runs[0]])
        invoke(["run", "--scenario", self.scenario, "--out", csv])
        pmpsim.metrics.read_summary_csv(csv)
        return csvs

    def csv_paths(self, d: Path) -> dict[tuple[str, int], Path]:
        return {self.runs[0]: d / "run.csv"}

    def check(self, d: Path, summaries: dict) -> list[str]:
        return []


def make_workload(name: str, seed: int, work_dir: Path):
    if name == "compare-grid":
        return CompareGrid(seed, work_dir)
    return WideCell(name.removeprefix("wide-"), seed, work_dir)



# ------------------------------------------------------------- measurement

class Tally:
    """Runs attempted and failed in one benchmark invocation, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, runs: int, message: str) -> None:
        self.failed += runs
        self.errors.append(message)
        print(f"perfbench: FAILED: {message}", file=sys.stderr)


def timed(unit, d: Path):
    t0 = time.perf_counter()
    result = unit(d)
    return time.perf_counter() - t0, result


def closed_loop(wl, seconds: float, work_dir: Path, time_unit, digests: dict,
                tally: Tally, after_unit=None) -> list[float]:
    """Run units back to back until `seconds` have passed; returns unit times.

    A run fails when its unit raises, its CSV is missing, or its CSV digest
    differs from the first digest recorded for the same (scheduler, seed).
    Only units whose runs all succeed contribute a time. The first unit's
    directory is kept for `check_outputs`; later ones are removed.
    """
    times = []
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        d = work_dir / f"unit{i}"
        d.mkdir(parents=True)
        tally.attempted += len(wl.runs)
        try:
            secs, csvs = time_unit(wl.unit, d)
        except Exception:
            traceback.print_exc()
            tally.fail(len(wl.runs), f"unit {i} raised")
        else:
            ok = True
            for run, path in csvs.items():
                if not path.is_file():
                    ok = False
                    tally.fail(1, f"{run}: no CSV written")
                    continue
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                if digests.setdefault(run, digest) != digest:
                    ok = False
                    tally.fail(1, f"{run}: CSV digest {digest} differs from {digests[run]}")
            if ok:
                times.append(secs)
                if after_unit is not None:
                    after_unit(csvs)
        if i:
            shutil.rmtree(d)
        i += 1
        if time.perf_counter() >= t_end:
            return times


def check_outputs(wl, d: Path, digests: dict, tally: Tally) -> dict:
    """Content checks on a kept unit; returns the modelled output per run.

    Each CSV must account for every generated packet and byte as delivered,
    dropped or still queued, and the workload's own check must pass.
    """
    model, summaries = {}, {}
    for (sched, seed), path in wl.csv_paths(d).items():
        if not path.is_file():
            continue
        summary = pmpsim.metrics.read_summary_csv(str(path))
        summaries[(sched, seed)] = summary
        for unit in ("packets", "bytes"):
            generated = summary[("cell", f"generated_{unit}")]
            accounted = sum(summary[("cell", key)] for key in (
                f"delivered_{unit}", f"dropped_{unit}", f"queued_{unit}_end"))
            if generated != accounted:
                tally.fail(1, f"{sched}/seed{seed}: {generated} {unit} generated, "
                              f"{accounted} accounted for")
        model[f"{sched}/seed{seed}"] = {
            "csv_sha256": digests[(sched, seed)],
            **{name: summary[(scope, metric)] for name, scope, metric in MODEL_FIELDS}}
    if len(summaries) == len(wl.runs):
        for message in wl.check(d, summaries):
            tally.fail(1, message)
    return model


def measure_setup(wl, tally: Tally) -> list[float]:
    """Set-up times in fresh interpreters: import, load_scenario, SimulationRun."""
    scheduler, seed = wl.runs[0]
    cmd = [sys.executable, "-I", "-c", SETUP_CHILD, str(ROOT / "src"), wl.scenario,
           scheduler, str(seed)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):  # the first one fills caches and is dropped
        tally.attempted += 1
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            tally.fail(1, f"set-up exited with {proc.returncode}: {proc.stderr.strip()}")
        elif i:
            samples.append(float(proc.stdout.split()[-1]))
    return samples


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


# -------------------------------------------------------- per-layer metrics

_NONE = (0, 0.0, 0.0)


def _calls(*names):
    return lambda spans, c: sum(spans.get(n, _NONE)[0] for n in names)


def _total(*names):
    return lambda spans, c: sum(spans.get(n, _NONE)[1] for n in names)


def _own(*names):
    return lambda spans, c: sum(spans.get(n, _NONE)[2] for n in names)


def _count(name):
    return lambda spans, c: c[name]


def _ratio(num, den):
    return lambda spans, c: num(spans, c) / den(spans, c) if den(spans, c) else 0.0


HANDLERS = tuple(HANDLER_SPANS.values())
RECORDS = tuple(f"metrics.{m}" for m in RECORD_METHODS)


def _sched_metrics(role: str):
    return [(f"sched.{role}.enqueue.calls", "count", _calls(f"sched.{role}.enqueue")),
            (f"sched.{role}.enqueue_s", "s", _total(f"sched.{role}.enqueue")),
            (f"sched.{role}.select.calls", "count", _calls(f"sched.{role}.select")),
            (f"sched.{role}.select_s", "s", _total(f"sched.{role}.select")),
            (f"sched.{role}.select.packets", "count", _count(f"sched.{role}.select.packets"))]


# (name, unit, value of one traced unit from its span totals and counters).
# kernel.us_per_event and trace.overhead_ratio come from unit times instead.
LAYER_METRICS = [
    ("kernel.events", "count", _calls(*HANDLERS)),
    ("kernel.dispatch_self_s", "s", _own("kernel.run_until")),
    ("traffic.sdus", "count", _calls("engine.ingest")),
    ("traffic.self_s", "s", _own("kernel.handler.packet-arrival")),
    ("engine.setup_s", "s", _total("engine.setup")),
    ("engine.ingest_self_s", "s", _own("engine.ingest")),
    ("scenario.load_s", "s", _total("scenario.load_scenario")),
    *_sched_metrics("grant"),
    ("sched.grant.trim_tail.calls", "count", _calls("sched.grant.trim_tail")),
    ("sched.grant.trim_tail_s", "s", _total("sched.grant.trim_tail")),
    *_sched_metrics("dl"),
    *_sched_metrics("ss"),
    ("bwreq.build_ul_map_self_s", "s", _own("bwreq.build_ul_map")),
    ("bwreq.on_request.calls", "count", _calls("bwreq.on_request")),
    ("bwreq.on_request_self_s", "s", _own("bwreq.on_request")),
    ("bwreq.run_contention_s", "s", _total("bwreq.run_contention")),
    ("bwreq.contention.attempts", "count", _count("bwreq.contention.attempts")),
    ("bwreq.contention.delivered", "count", _count("bwreq.contention.delivered")),
    ("bwreq.contention.success_ratio", "ratio",
     _ratio(_count("bwreq.contention.delivered"), _count("bwreq.contention.attempts"))),
    ("bwreq.grant_bytes", "B", _count("bwreq.grant_bytes")),
    ("bwreq.grant.unused_ratio", "ratio",
     _ratio(_count("bwreq.unused_grant_bytes"), _count("bwreq.grant_bytes"))),
    ("stations.frame_tick_self_s", "s", _own("stations.frame_tick")),
    ("stations.on_map.calls", "count", _calls("stations.on_map")),
    ("stations.on_map_self_s", "s", _own("stations.on_map")),
    ("stations.on_map.ies_scanned", "count", _count("stations.on_map.ies_scanned")),
    # an on_map that reads only its own IEs, or none through the list, scores 1
    ("stations.on_map.ie_hit_ratio", "ratio",
     _ratio(_count("stations.on_map.ie_hits"),
            lambda spans, c: max(c["stations.on_map.ies_scanned"],
                                 c["stations.on_map.ie_hits"]))),
    ("metrics.record.calls", "count", _calls(*RECORDS)),
    ("metrics.record_s", "s", _total(*RECORDS)),
    ("metrics.build_s", "s", _total("metrics.build_series", "metrics.build_summary")),
    ("metrics.emit_csv_s", "s", _total("metrics.emit_csv")),
    ("metrics.csv_rows", "count", _count("metrics.csv_rows")),
    ("phy.validate_map_s", "s", _total("phy.validate_map")),
    ("cli.read_summary_s", "s", _total("cli.read_summary_csv")),
    ("cli.self_s", "s", _own("cli.cmd_compare", "cli.cmd_run")),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
PER_LAYER_UNITS.update({"kernel.us_per_event": "us", "trace.overhead_ratio": "ratio"})


def layer_metrics(tracer: Tracer, traced: list[float],
                  untraced: list[float]) -> tuple[dict, dict]:
    """Per-layer values: the median over traced units of each unit's value.

    Times take the middle pair's mean; counts and ratios, which repeat
    exactly from unit to unit, take the lower middle value. Also returns the
    median traced unit time, less the calibrated tracer work and the
    bookkeeping spans, over the median untraced one: what is left above 1 is
    tracer cost that the calibration misses and that the span times still
    carry, also given per span.
    """
    totals = tracer.unit_totals()
    units = list(zip(totals, tracer.unit_counters))
    out = {}
    for name, unit, fn in LAYER_METRICS:
        median = statistics.median if unit == "s" else statistics.median_low
        out[name] = median(fn(spans, c) for spans, c in units)
    out["kernel.us_per_event"] = statistics.median(untraced) / out["kernel.events"] * 1e6
    out["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    corrected = statistics.median(spans[UNIT][1] - spans.get(BOOKKEEPING, _NONE)[1]
                                  for spans in totals)
    residual = corrected / statistics.median(untraced)
    residual_ns = (corrected - statistics.median(untraced)) / (len(tracer.name_ix)
                                                              / len(totals)) * 1e9
    return out, {"trace.corrected_over_untraced": residual,
                 "trace.residual_ns_per_span": residual_ns}


# ---------------------------------------------------------------- stamping

def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def stamp(workload: str, seed: int, trace: bool) -> dict:
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "git_sha": _git_sha(),
            "loadavg_start": _loadavg()}


# --------------------------------------------------------------- the runs

def measure_end_to_end(wl, seconds: float, work: Path, tally: Tally) -> dict:
    if not is_untraced():
        raise RuntimeError("pmpsim is still instrumented; refusing to time it")
    digests: dict = {}
    times = closed_loop(wl, seconds, work, timed, digests, tally)
    rss = peak_rss_mb()
    model = check_outputs(wl, work / "unit0", digests, tally)
    setup = measure_setup(wl, tally)
    if not times or not setup:
        return {"model": {"runs": model}}
    return {
        "metrics": {"wall_s": statistics.median(times),
                    "sim_speed": wl.sim_seconds / statistics.median(times),
                    "setup_s": statistics.median(setup),
                    "peak_rss_mb": rss},
        "units": END_TO_END_UNITS,
        "samples": {"wall_s": times, "setup_s": setup},
        "model": {"runs": model},
    }


def measure_layers(wl, seconds: float, work: Path, tally: Tally, spans_path: Path) -> dict:
    tracer = Tracer()
    digests: dict = {}

    def count_rows(csvs):
        tracer.counters["metrics.csv_rows"] += sum(
            p.read_bytes().count(b"\n") - 1 for p in csvs.values())

    tracer.install()
    try:
        traced = closed_loop(wl, seconds * TRACED_SHARE, work / "traced", tracer.run_unit,
                             digests, tally, after_unit=count_rows)
    finally:
        tracer.restore()
    if not is_untraced():
        raise RuntimeError("tracer left pmpsim instrumented")
    untraced = closed_loop(wl, seconds * (1 - TRACED_SHARE), work / "untraced", timed,
                           digests, tally)
    model = check_outputs(wl, work / "traced" / "unit0", digests, tally)
    for i, c in enumerate(tracer.unit_counters):
        if c["phy.illegal_maps"]:
            tally.fail(len(wl.runs), f"traced unit {i}: {c['phy.illegal_maps']} illegal "
                                     f"uplink maps out of {c['phy.maps']}")
    if not traced or not untraced:
        return {"model": {"runs": model}}
    metrics, residual = layer_metrics(tracer, traced, untraced)
    n_spans = tracer.dump(spans_path)
    return {
        "metrics": metrics,
        "units": PER_LAYER_UNITS,
        "samples": {"traced_unit_s": traced, "untraced_unit_s": untraced},
        "counts": {"phy.illegal_maps": sum(c["phy.illegal_maps"] for c in tracer.unit_counters),
                   "spans": n_spans},
        "tracer_cost_ns": {k: round(v * 1e9, 1) for k, v in tracer.cost.items()},
        "residual": residual,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "model": {"runs": model, "kernel.events": metrics["kernel.events"]},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    info = result["stamp"]
    print(f"perfbench {info['workload']} seed={info['seed']} trace={info['trace']} "
          f"python={info['python']} nproc={info['nproc']} git={info['git_sha'][:12]}")
    print(f"  loadavg start: {info['loadavg_start']}   end: {info['loadavg_end']}")
    samples = result.get("samples", {})
    notes = {"wall_s": f"median of {len(samples.get('wall_s', ()))} units",
             "sim_speed": f"median of {len(samples.get('wall_s', ()))} units",
             "setup_s": f"median of {len(samples.get('setup_s', ()))} fresh interpreters",
             "kernel.us_per_event": f"untraced, median of "
                                    f"{len(samples.get('untraced_unit_s', ()))} units",
             "trace.overhead_ratio": f"median of {len(samples.get('traced_unit_s', ()))} "
                                     f"traced over median of "
                                     f"{len(samples.get('untraced_unit_s', ()))} untraced units"}
    for name, value in result.get("metrics", {}).items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<34} {_fmt(value):>14} {result['units'][name]}{note}")
    print(f"  {'fail_ratio':<34} {result['failed']}/{result['attempted']}")
    for key, value in result.get("counts", {}).items():
        print(f"  {key:<34} {value:>14}")
    if "tracer_cost_ns" in result:
        costs = " ".join(f"{k}={v}" for k, v in result["tracer_cost_ns"].items())
        print(f"  tracer work taken out of the span times, ns each: {costs}")
        r = result["residual"]
        print(f"  traced unit time less that and {BOOKKEEPING}, over untraced: "
              f"{r['trace.corrected_over_untraced']:.4f} "
              f"({r['trace.residual_ns_per_span']:.0f} ns per span left in the span times)")
    model = result["model"]
    print("  modelled output (unvalidated: no reference data, no error figure; not gated):")
    if "kernel.events" in model:
        print(f"    kernel.events per unit: {model['kernel.events']}")
    for run, values in model["runs"].items():
        fields = " ".join(f"{k}={_fmt(v)}" for k, v in values.items() if k != "csv_sha256")
        print(f"    {run}: sha256={values['csv_sha256'][:16]} {fields}")
    print(f"  full result: {result['result_file']}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    info = stamp(workload, seed, trace)
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-seed{seed}-", dir=OUT))
    try:
        wl = make_workload(workload, seed, work)
        if trace:
            result = measure_layers(wl, seconds, work, tally,
                                    OUT / f"spans-{workload}.bin")
        else:
            result = measure_end_to_end(wl, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    info["loadavg_end"] = _loadavg()
    result_file = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    result.update(stamp=info, attempted=tally.attempted, failed=tally.failed,
                  errors=tally.errors, result_file=str(result_file.relative_to(ROOT)))
    result_file.write_text(json.dumps(result, indent=1, default=str) + "\n")
    report(result)
    if "metrics" not in result:
        print("perfbench: no unit completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0
