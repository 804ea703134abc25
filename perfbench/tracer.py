"""Spans and counters around calls into pmpsim, for the traced benchmark run.

Nothing in pmpsim is edited. `Tracer.install` replaces a few module and class
attributes (the CLI commands, `load_scenario`, `run_scenario`,
`read_summary_csv`, `SimulationRun.__init__`, `RunResult.write_csv`), and the
replacement `__init__` wraps the methods of each new run's own objects:
kernel, schedulers by role, bandwidth manager, stations and metrics
collector. `Tracer.restore` puts every replaced attribute back; objects of
runs that have finished are dropped with their wrappers.

Spans go into flat typed arrays in memory (name, start, end, parent index)
and are written out once, by `dump`, when the benchmark ends; `load_spans`
reads them back.

The tracer's own work is kept out of the times it reports. Counting done
after a call runs in a `trace.bookkeeping` span of its own. What cannot be
put in a span (the wrapper around each span, the lookup in the wrapped
`Simulator.schedule`, the counting pass over an uplink map's IEs) is timed
by `calibrate` before the tracer is installed and subtracted in
`unit_totals`: a span's self time is its duration minus its direct
children's durations, minus the tracer work charged to it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import pmpsim.cli
import pmpsim.metrics
from pmpsim.engine import RunResult, SimulationRun
from pmpsim.kernel import EventKind, Simulator
from pmpsim.phy import validate_map

UNIT = "unit"
BOOKKEEPING = "trace.bookkeeping"
ON_MAP = "stations.on_map"
# (owner, attribute, span name) replaced by Tracer.install; the callers look
# these names up at call time, so replacing the attribute reaches every call.
TARGETS = (
    (pmpsim.cli, "cmd_compare", "cli.cmd_compare"),
    (pmpsim.cli, "cmd_run", "cli.cmd_run"),
    (pmpsim.cli, "load_scenario", "scenario.load_scenario"),
    (pmpsim.cli, "run_scenario", "engine.run_scenario"),
    (pmpsim.cli, "read_summary_csv", "cli.read_summary_csv"),
    (pmpsim.metrics, "read_summary_csv", "cli.read_summary_csv"),
    (RunResult, "write_csv", "metrics.emit_csv"),
    (SimulationRun, "__init__", "engine.setup"),
)
HANDLER_SPANS = {kind: f"kernel.handler.{kind.value}" for kind in EventKind}
RECORD_METHODS = ("record_offered", "record_bs_ingress", "record_delivery",
                  "record_drop", "record_unused_grant", "record_collisions")
CALIBRATION_CALLS = 20_000
CALIBRATION_REPEATS = 7


def is_untraced() -> bool:
    """True when every attribute that `Tracer.install` replaces is the original."""
    return not any(hasattr(vars(owner)[attr], "__wrapped__") for owner, attr, _ in TARGETS)


def _noop(_):
    return None


class _Handler:
    def fire(self, _):
        return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ix = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        # tracer seconds spent inside a span outside any child span
        self.charged = array("d")
        self._stack = [-1]
        self.unit_roots: list[int] = []
        self.unit_counters: list[Counter] = []
        self._patches: list[tuple[object, str, object]] = []
        # seconds the tracer adds, by where it adds them; set by `calibrate`
        self.cost = {"span_inside": 0.0, "span_outside": 0.0, "schedule": 0.0,
                     "ies_pass": 0.0, "ies_scan": 0.0}
        self.CountedIes = self._counted_ies_type()

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, after=None):
        """`fn` inside a span called `name`.

        `after(args, result)` runs after the span ends, in a
        `trace.bookkeeping` span of its own.
        """
        nid = self._name_id(name)
        if after is not None:
            after = self.wrap(BOOKKEEPING, after)
        stack, names, parents, charged = self._stack, self.name_ix, self.parent, self.charged
        starts, ends, clock = self.start, self.end, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            charged.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @property
    def counters(self) -> Counter:
        return self.unit_counters[-1]

    def run_unit(self, fn, *args):
        """Run one workload unit under a root span; returns (seconds, result)."""
        self.unit_roots.append(len(self.name_ix))
        self.unit_counters.append(Counter())
        result = self.wrap(UNIT, fn)(*args)
        idx = self.unit_roots[-1]
        return self.end[idx] - self.start[idx], result

    def _counted_ies_type(self):
        """A list type for `UlMap.ies` that counts the IEs `on_map` reads.

        Every pass over the list (an `iter` call) counts its whole length
        when the innermost open span is `stations.on_map`, so each pass of a
        filter over the map counts every IE it reads.
        """
        stack, names, charged, cost = self._stack, self.name_ix, self.charged, self.cost
        unit_counters, on_map = self.unit_counters, self._name_id(ON_MAP)
        list_iter = list.__iter__

        class CountedIes(list):
            __slots__ = ()

            def __iter__(self):
                top = stack[-1]
                if top >= 0:
                    if names[top] == on_map:
                        unit_counters[-1]["stations.on_map.ies_scanned"] += len(self)
                        charged[top] += cost["ies_scan"]
                    else:
                        charged[top] += cost["ies_pass"]
                return list_iter(self)

        return CountedIes

    # ----------------------------------------------------------- calibration

    def calibrate(self) -> None:
        """Time the tracer's own work per span, schedule call and IE pass.

        A probe tracer wraps empty calls. Per span, `span_inside` is what the
        wrapper adds between the two clock reads (so to the span's own
        duration) and `span_outside` what it adds around them (so to the
        parent's). Each figure is the fastest of several repeats, less the
        same loop without the tracer.
        """
        probe = Tracer()
        probe.unit_counters.append(Counter())
        n = CALIBRATION_CALLS
        loops = range(n)
        clock = time.perf_counter

        def best(body) -> float:
            times = []
            for _ in range(CALIBRATION_REPEATS):
                t0 = clock()
                body()
                times.append(clock() - t0)
            return min(times) / n

        def calls(fn, arg):
            def body():
                for _ in loops:
                    fn(arg)
            return body

        def empty():
            for _ in loops:
                pass

        call = best(calls(_noop, None)) - best(empty)
        wrapped_s = best(calls(probe.wrap("probe", _noop), None))
        recorded = statistics.median(e - s for s, e in zip(probe.start, probe.end))
        inside = recorded - call
        outside = wrapped_s - best(calls(_noop, None)) - inside

        # Spans opened from here on are parents for the charges below.
        probe._open_span(ON_MAP)
        scan = probe.CountedIes()
        probe._open_span("probe.parent")
        passes = probe.CountedIes()
        pass_s = best(calls(iter, passes)) - best(calls(iter, []))
        probe._stack.pop()
        scan_s = best(calls(iter, scan)) - best(calls(iter, []))

        handler = _Handler()

        def scheduling(traced: bool):
            def body():
                sim = Simulator()
                if traced:
                    probe._trace_schedule(sim)
                schedule, kind = sim.schedule, EventKind.PACKET_ARRIVAL
                for i in loops:
                    schedule(i, kind, handler.fire)
            return body

        schedule_s = best(scheduling(True)) - best(scheduling(False))
        self.cost.update(span_inside=inside, span_outside=outside, schedule=schedule_s,
                         ies_pass=pass_s, ies_scan=scan_s)

    def _open_span(self, name: str) -> None:
        idx = len(self.name_ix)
        self.name_ix.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.charged.append(0.0)
        self._stack.append(idx)

    # -------------------------------------------------------------- patching

    def install(self) -> None:
        self.calibrate()
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            if attr == "__init__":
                replacement = self._traced_init(original)
            else:
                replacement = self.wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_init(self, original):
        init = self.wrap("engine.setup", original)
        instrument = self.wrap(BOOKKEEPING, self._instrument)

        def traced_init(run, *args, **kwargs):
            init(run, *args, **kwargs)
            instrument(run)

        traced_init.__wrapped__ = original
        return traced_init

    # ------------------------------------------------------- per-run objects

    def _trace_schedule(self, sim) -> None:
        """Wrap each handler `sim.schedule` receives in a span named by its kind.

        One wrapper is made per (kind, handler) and reused; the lookup is
        keyed by the kind's id, since hashing an Enum member runs Python code.
        """
        schedule = sim.schedule
        stack, charged, cost = self._stack, self.charged, self.cost
        span_names = {id(kind): name for kind, name in HANDLER_SPANS.items()}
        wrappers: dict = {}

        def traced_schedule(fire_at, kind, handler, payload=None):
            key = (id(kind), handler)
            traced = wrappers.get(key)
            if traced is None:
                traced = wrappers[key] = self.wrap(span_names[id(kind)], handler)
            top = stack[-1]
            if top >= 0:
                charged[top] += cost["schedule"]
            return schedule(fire_at, kind, traced, payload)

        sim.schedule = traced_schedule

    def _instrument(self, run) -> None:
        sim = run.sim
        sim.run_until = self.wrap("kernel.run_until", sim.run_until)
        self._trace_schedule(sim)
        run.ingest = self.wrap("engine.ingest", run.ingest)

        self._instrument_sched("grant", run.bw.scheduler, trim=True)
        self._instrument_sched("dl", run.bs.dl_sched)
        for ss in run.sss.values():
            self._instrument_sched("ss", ss.local_sched)

        bw = run.bw
        bw.build_ul_map = self.wrap("bwreq.build_ul_map", bw.build_ul_map,
                                    after=self._map_checker(run.cfg))
        bw.on_request = self.wrap("bwreq.on_request", bw.on_request)
        bw.run_contention = self.wrap("bwreq.run_contention", bw.run_contention,
                                      after=self._count_contention)
        run.bs.frame_tick = self.wrap("stations.frame_tick", run.bs.frame_tick)
        ies_by_ss = {"map": None, "counts": Counter()}  # of the map being consumed
        for ss in run.sss.values():
            ss.on_map = self.wrap(ON_MAP, ss.on_map,
                                  after=self._on_map_counter(ss.ss_id, ies_by_ss))

        m = run.metrics
        for method in RECORD_METHODS:
            setattr(m, method, self.wrap(f"metrics.{method}", getattr(m, method)))
        m.build_series = self.wrap("metrics.build_series", m.build_series)
        m.build_summary = self.wrap("metrics.build_summary", m.build_summary,
                                    after=self._count_unused)

    def _instrument_sched(self, role: str, sched, trim: bool = False) -> None:
        def count_packets(_args, decisions):
            self.counters[f"sched.{role}.select.packets"] += sum(
                len(d.packet_ids) for d in decisions)

        sched.enqueue = self.wrap(f"sched.{role}.enqueue", sched.enqueue)
        sched.select = self.wrap(f"sched.{role}.select", sched.select, after=count_packets)
        if trim:
            sched.trim_tail = self.wrap(f"sched.{role}.trim_tail", sched.trim_tail)

    def _map_checker(self, cfg):
        """Check every map `build_ul_map` returns with `validate_map`, count its
        grants, and make its IE list count what `on_map` reads."""
        validate = self.wrap("phy.validate_map", validate_map)

        def check(_args, ul_map):
            c = self.counters
            c["phy.maps"] += 1
            if validate(ul_map, cfg) is not None:
                c["phy.illegal_maps"] += 1
            c["phy.map_ies"] += len(ul_map.ies)
            c["bwreq.grant_bytes"] += sum(ie.grant_bytes for ie in list.__iter__(ul_map.ies))
            ul_map.ies = self.CountedIes(ul_map.ies)

        return check

    def _count_contention(self, _args, result) -> None:
        delivered, collided = result
        c = self.counters
        c["bwreq.contention.delivered"] += len(delivered)
        c["bwreq.contention.attempts"] += len(delivered) + len(collided)

    def _count_unused(self, _args, summary) -> None:
        self.counters["bwreq.unused_grant_bytes"] += summary.unused_grant_bytes

    def _on_map_counter(self, ss_id: int, ies_by_ss: dict):
        def count(args, _result):
            ul_map = args[1]
            if ies_by_ss["map"] is not ul_map:
                ies_by_ss["map"] = ul_map
                ies_by_ss["counts"] = Counter(ie.ss_id for ie in list.__iter__(ul_map.ies))
            self.counters["stations.on_map.ie_hits"] += ies_by_ss["counts"][ss_id]

        return count

    # ------------------------------------------------------------- analysis

    def unit_totals(self) -> list[dict[str, tuple[int, float, float]]]:
        """Per unit: span name -> (calls, total seconds, self seconds).

        Both times have the calibrated tracer work taken out: a span's own
        wrapper cost and its charges, each direct child's outer wrapper
        cost, and, for the total, the same for every span below it.
        """
        n = len(self.name_ix)
        inside, outside = self.cost["span_inside"], self.cost["span_outside"]
        # own_bias: tracer seconds in a span outside its children;
        # bias: tracer seconds anywhere in a span's duration
        own_bias = array("d", (inside + c for c in self.charged))
        bias = array("d", own_bias)
        child = array("d", bytes(8 * n))
        parent, start, end = self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):  # children come after their parent
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                own_bias[p] += outside
                bias[p] += outside + bias[i]
        bounds = self.unit_roots + [n]
        out = []
        for u in range(len(self.unit_roots)):
            calls = [0] * len(self.names)
            total = [0.0] * len(self.names)
            own = [0.0] * len(self.names)
            for i in range(bounds[u], bounds[u + 1]):
                k = self.name_ix[i]
                d = end[i] - start[i]
                calls[k] += 1
                total[k] += d - bias[i]
                own[k] += d - child[i] - own_bias[i]
            out.append({name: (calls[k], total[k], own[k])
                        for k, name in enumerate(self.names) if calls[k]})
        return out

    def dump(self, path: Path) -> int:
        """Write every span to `path`; returns the number written.

        The file is one JSON header line (span names, count, byte order, the
        calibrated tracer costs and the array fields), then the arrays
        `name` (index into names), `parent` (span index, -1 for a root),
        `start_s` and `end_s` (perf_counter seconds) and `charged_s` (tracer
        seconds charged to the span) back to back. `load_spans` reads it.
        """
        header = {"names": self.names, "count": len(self.name_ix), "byteorder": sys.byteorder,
                  "tracer_cost_s": self.cost,
                  "fields": [[f, a.typecode] for f, a in self._fields()]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in self._fields():
                arr.tofile(fh)
        return len(self.name_ix)

    def _fields(self):
        return (("name", self.name_ix), ("parent", self.parent),
                ("start_s", self.start), ("end_s", self.end), ("charged_s", self.charged))


def load_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Read a span file written by `Tracer.dump`: (names, arrays by field)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["byteorder"] != sys.byteorder:
            raise ValueError(f"{path}: written on a {header['byteorder']}-endian host")
        fields = {}
        for name, typecode in header["fields"]:
            arr = array(typecode)
            arr.fromfile(fh, header["count"])
            fields[name] = arr
    return header["names"], fields
