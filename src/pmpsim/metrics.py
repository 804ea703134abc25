"""Run observables: delay, throughput, offered load, interface counters.

Everything is collected into contiguous time buckets plus run-wide
summaries. Delay means are packet-weighted; throughput and load are
bit-weighted. The BS delay scope holds the uplink-hop delay (source MAC
enqueue to BS reception); cell/station/flow delay scopes hold end-to-end
delay through the relay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

from .qos import MacSdu

DELAY = "delay_s"
THROUGHPUT = "throughput_bps"
LOAD = "load_bps"
IFACE_SENT = "iface_sent_bps"
IFACE_RECV = "iface_recv_bps"

SCOPE_CELL = "cell"
SCOPE_BS = "bs"


def ss_scope(ss_id: int) -> str:
    return f"ss_{ss_id:02d}"


def flow_scope(cid: int) -> str:
    return f"flow_{cid:05d}"


@dataclass
class RunMeta:
    scenario: str
    scheduler_bs: str
    scheduler_ss: str
    seed: int


@dataclass
class MetricSeries:
    name: str
    scope: str
    bucket_width_us: int
    samples: list[tuple[int, float]] = field(default_factory=list)  # (bucket_start_us, value)


class _Welford:
    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        d = x - self.mean
        self.mean += d / self.count
        self.m2 += d * (x - self.mean)

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0


@dataclass
class RunSummary:
    means: dict[tuple[str, str], float] = field(default_factory=dict)
    delay_var: dict[str, float] = field(default_factory=dict)
    generated_packets: dict[str, int] = field(default_factory=dict)
    generated_bytes: dict[str, int] = field(default_factory=dict)
    delivered_packets: dict[str, int] = field(default_factory=dict)
    delivered_bytes: dict[str, int] = field(default_factory=dict)
    dropped_packets: dict[str, int] = field(default_factory=dict)
    dropped_bytes: dict[str, int] = field(default_factory=dict)
    queued_packets_end: dict[str, int] = field(default_factory=dict)
    queued_bytes_end: dict[str, int] = field(default_factory=dict)
    unused_grant_bytes: int = 0
    collisions: int = 0


class MetricsCollector:
    def __init__(self, bucket_us: int, duration_us: int,
                 flow_cids: list[int], ss_ids: list[int]):
        self.bucket_us = bucket_us
        self.duration_us = duration_us
        self.flow_scopes = {cid: flow_scope(cid) for cid in flow_cids}
        self.ss_scopes = {s: ss_scope(s) for s in ss_ids}
        self._bits: dict[tuple[str, str], dict[int, int]] = {}
        self._delay: dict[str, dict[int, list]] = {}
        self._delay_stats: dict[str, _Welford] = {}
        self._counts: dict[str, dict[str, int]] = {}  # scope -> counter name -> value
        self.unused_grant_bytes = 0
        self.collisions = 0

    # ------------------------------------------------------------ recording

    def _add_bits(self, scope: str, metric: str, t: int, bits: int) -> None:
        buckets = self._bits.setdefault((scope, metric), {})
        b = t // self.bucket_us
        buckets[b] = buckets.get(b, 0) + bits

    def _add_delay(self, scope: str, t: int, delay_s: float) -> None:
        buckets = self._delay.setdefault(scope, {})
        cell = buckets.setdefault(t // self.bucket_us, [0.0, 0])
        cell[0] += delay_s
        cell[1] += 1
        self._delay_stats.setdefault(scope, _Welford()).add(delay_s)

    def _count(self, scope: str, name: str, packets: int, nbytes: int) -> None:
        c = self._counts.setdefault(scope, {})
        c[name + "_packets"] = c.get(name + "_packets", 0) + packets
        c[name + "_bytes"] = c.get(name + "_bytes", 0) + nbytes

    def record_offered(self, sdu: MacSdu, src_ss: int) -> None:
        bits = sdu.size_bytes * 8
        t = sdu.created_at
        for scope in (SCOPE_CELL, self.flow_scopes[sdu.flow_cid], self.ss_scopes[src_ss]):
            self._add_bits(scope, LOAD, t, bits)
            self._count(scope, "generated", 1, sdu.size_bytes)

    def record_bs_ingress(self, sdu: MacSdu, t: int, src_ss: int) -> None:
        """Uplink SDU handed up at the BS: hop delay, BS load, interface in."""
        bits = sdu.size_bytes * 8
        self._add_delay(SCOPE_BS, t, (t - sdu.created_at) / 1e6)
        self._add_bits(SCOPE_BS, LOAD, t, bits)
        self._add_bits(SCOPE_BS, IFACE_RECV, t, bits)
        self._add_bits(self.ss_scopes[src_ss], IFACE_SENT, t, bits)

    def record_delivery(self, sdu: MacSdu, t: int, dst_ss: int) -> None:
        if sdu.delivered_at is not None:
            raise RuntimeError(f"double delivery of sdu {sdu.id}")
        sdu.delivered_at = t
        bits = sdu.size_bytes * 8
        delay_s = (t - sdu.created_at) / 1e6
        fscope = self.flow_scopes[sdu.flow_cid]
        dscope = self.ss_scopes[dst_ss]
        for scope in (SCOPE_CELL, SCOPE_BS, fscope, dscope):
            self._add_bits(scope, THROUGHPUT, t, bits)
        for scope in (SCOPE_CELL, fscope, dscope):
            self._add_delay(scope, t, delay_s)
            self._count(scope, "delivered", 1, sdu.size_bytes)
        self._add_bits(SCOPE_BS, IFACE_SENT, t, bits)
        self._add_bits(dscope, IFACE_RECV, t, bits)

    def record_drop(self, sdu: MacSdu, where: str) -> None:
        for scope in (SCOPE_CELL, self.flow_scopes[sdu.flow_cid]):
            self._count(scope, "dropped", 1, sdu.size_bytes)
            self._count(scope, f"dropped_{where}", 1, sdu.size_bytes)

    def record_unused_grant(self, nbytes: int) -> None:
        self.unused_grant_bytes += nbytes

    def record_collisions(self, n: int) -> None:
        self.collisions += n

    # ------------------------------------------------------------ finishing

    def build_series(self) -> list[MetricSeries]:
        n_buckets = -(-self.duration_us // self.bucket_us)
        out = []
        for (scope, metric), buckets in sorted(self._bits.items()):
            series = MetricSeries(metric, scope, self.bucket_us)
            for b in range(n_buckets):
                bits = buckets.get(b, 0)
                series.samples.append((b * self.bucket_us, bits * 1e6 / self.bucket_us))
            out.append(series)
        for scope, buckets in sorted(self._delay.items()):
            series = MetricSeries(DELAY, scope, self.bucket_us)
            for b in sorted(buckets):
                total, count = buckets[b]
                series.samples.append((b * self.bucket_us, total / count))
            out.append(series)
        return out

    def build_summary(self, queued_packets: dict[str, int],
                      queued_bytes: dict[str, int]) -> RunSummary:
        s = RunSummary()
        dur_s = self.duration_us / 1e6
        for (scope, metric), buckets in self._bits.items():
            s.means[(scope, metric)] = sum(buckets.values()) / dur_s
        for scope, stats in self._delay_stats.items():
            s.means[(scope, DELAY)] = stats.mean
            s.delay_var[scope] = stats.variance
        for scope, counters in self._counts.items():
            for name, target in (("generated", (s.generated_packets, s.generated_bytes)),
                                 ("delivered", (s.delivered_packets, s.delivered_bytes)),
                                 ("dropped", (s.dropped_packets, s.dropped_bytes))):
                target[0][scope] = counters.get(name + "_packets", 0)
                target[1][scope] = counters.get(name + "_bytes", 0)
        s.queued_packets_end = dict(queued_packets)
        s.queued_bytes_end = dict(queued_bytes)
        s.unused_grant_bytes = self.unused_grant_bytes
        s.collisions = self.collisions
        return s


def emit_csv(fh: IO[str], meta: RunMeta, series: list[MetricSeries],
             summary: RunSummary) -> None:
    """Deterministic CSV: one row per sample, summary rows at bucket -1."""
    prefix = f"{meta.scenario},{meta.scheduler_bs},{meta.scheduler_ss},{meta.seed}"
    fh.write("scenario,scheduler_bs,scheduler_ss,seed,scope,metric,bucket_start_s,value\n")

    rows: list[tuple[str, str, float, float]] = []
    for (scope, metric), value in summary.means.items():
        rows.append((scope, metric, -1.0, value))
    for scope, var in summary.delay_var.items():
        rows.append((scope, "delay_var_s2", -1.0, var))
    for attr, name in ((summary.generated_packets, "generated_packets"),
                       (summary.generated_bytes, "generated_bytes"),
                       (summary.delivered_packets, "delivered_packets"),
                       (summary.delivered_bytes, "delivered_bytes"),
                       (summary.dropped_packets, "dropped_packets"),
                       (summary.dropped_bytes, "dropped_bytes"),
                       (summary.queued_packets_end, "queued_packets_end"),
                       (summary.queued_bytes_end, "queued_bytes_end")):
        for scope, value in attr.items():
            rows.append((scope, name, -1.0, float(value)))
    rows.append((SCOPE_CELL, "unused_grant_bytes", -1.0, float(summary.unused_grant_bytes)))
    rows.append((SCOPE_CELL, "collisions", -1.0, float(summary.collisions)))
    for s in series:
        for bucket_start_us, value in s.samples:
            rows.append((s.scope, s.name, bucket_start_us / 1e6, value))

    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    for scope, metric, bucket_s, value in rows:
        fh.write(f"{prefix},{scope},{metric},{bucket_s:.6f},{value:.6f}\n")


def read_summary_csv(path: str) -> dict[tuple[str, str], float]:
    """Re-read a run CSV's summary rows (bucket_start_s == -1) by (scope, metric)."""
    out: dict[tuple[str, str], float] = {}
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        idx = {name: i for i, name in enumerate(header)}
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if float(parts[idx["bucket_start_s"]]) == -1.0:
                out[(parts[idx["scope"]], parts[idx["metric"]])] = float(parts[idx["value"]])
    return out
