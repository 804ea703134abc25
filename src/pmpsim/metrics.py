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
    samples: list[tuple[int, float]] = field(default_factory=list)  # (bucket_start_us, value)


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


class _Scope:
    """What one scope recorded: bits per bucket by metric, delay [sum, count]
    per bucket with running (Welford) statistics, and [packets, bytes] by
    counter. An empty container, or n == 0, means nothing was recorded.
    """
    __slots__ = ("bits", "delay", "counts", "n", "mean", "m2")

    def __init__(self):
        self.bits: dict[str, dict[int, int]] = {LOAD: {}, THROUGHPUT: {},
                                                IFACE_SENT: {}, IFACE_RECV: {}}
        self.delay: dict[int, list] = {}
        self.counts: dict[str, list[int]] = {}
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add_delay(self, b: int, x: float) -> None:
        cell = self.delay.setdefault(b, [0.0, 0])
        cell[0] += x
        cell[1] += 1
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)

    def count(self, counter: str, nbytes: int) -> None:
        c = self.counts.get(counter)
        if c is None:
            self.counts[counter] = [1, nbytes]
        else:
            c[0] += 1
            c[1] += nbytes


class MetricsCollector:
    def __init__(self, bucket_us: int, duration_us: int,
                 flow_cids: list[int], ss_ids: list[int]):
        self.bucket_us = bucket_us
        self.duration_us = duration_us
        self._cell, self._bs = _Scope(), _Scope()
        self._flows = {cid: _Scope() for cid in flow_cids}
        self._sss = {s: _Scope() for s in ss_ids}
        self._scopes = {SCOPE_CELL: self._cell, SCOPE_BS: self._bs,
                        **{flow_scope(cid): sc for cid, sc in self._flows.items()},
                        **{ss_scope(s): sc for s, sc in self._sss.items()}}
        # flow cid -> (source station, [(load buckets, scope)] of cell, flow, source)
        self._offered: dict[int, tuple[int, list]] = {}
        self.unused_grant_bytes = 0
        self.collisions = 0

    # ------------------------------------------------------------ recording

    def record_offered(self, sdu: MacSdu, src_ss: int) -> None:
        cached = self._offered.get(sdu.flow_cid)
        if cached is None or cached[0] != src_ss:
            cached = self._offered[sdu.flow_cid] = (src_ss, [
                (sc.bits[LOAD], sc)
                for sc in (self._cell, self._flows[sdu.flow_cid], self._sss[src_ss])])
        bits = sdu.size_bytes * 8
        b = sdu.created_at // self.bucket_us
        for buckets, sc in cached[1]:
            buckets[b] = buckets.get(b, 0) + bits
            sc.count("generated", sdu.size_bytes)

    def record_bs_ingress(self, sdu: MacSdu, t: int, src_ss: int) -> None:
        """Uplink SDU handed up at the BS: hop delay, BS load, interface in."""
        bits = sdu.size_bytes * 8
        b = t // self.bucket_us
        bs = self._bs
        bs.add_delay(b, (t - sdu.created_at) / 1e6)
        for buckets in (bs.bits[LOAD], bs.bits[IFACE_RECV], self._sss[src_ss].bits[IFACE_SENT]):
            buckets[b] = buckets.get(b, 0) + bits

    def record_delivery(self, sdu: MacSdu, t: int, dst_ss: int) -> None:
        if sdu.delivered_at is not None:
            raise RuntimeError(f"double delivery of sdu {sdu.id}")
        sdu.delivered_at = t
        bits = sdu.size_bytes * 8
        b = t // self.bucket_us
        delay_s = (t - sdu.created_at) / 1e6
        bs, dst = self._bs, self._sss[dst_ss]
        for sc in (self._cell, self._flows[sdu.flow_cid], dst):
            buckets = sc.bits[THROUGHPUT]
            buckets[b] = buckets.get(b, 0) + bits
            sc.add_delay(b, delay_s)
            sc.count("delivered", sdu.size_bytes)
        for buckets in (bs.bits[THROUGHPUT], bs.bits[IFACE_SENT], dst.bits[IFACE_RECV]):
            buckets[b] = buckets.get(b, 0) + bits

    def record_drop(self, sdu: MacSdu, where: str) -> None:
        for sc in (self._cell, self._flows[sdu.flow_cid]):
            sc.count("dropped", sdu.size_bytes)
            sc.count(f"dropped_{where}", sdu.size_bytes)

    def record_unused_grant(self, nbytes: int) -> None:
        self.unused_grant_bytes += nbytes

    def record_collisions(self, n: int) -> None:
        self.collisions += n

    # ------------------------------------------------------------ finishing

    def build_series(self) -> list[MetricSeries]:
        n_buckets = -(-self.duration_us // self.bucket_us)
        scopes = sorted(self._scopes.items())
        out = []
        for name, sc in scopes:
            for metric, buckets in sorted(sc.bits.items()):
                if buckets:
                    out.append(MetricSeries(metric, name, [
                        (b * self.bucket_us, buckets.get(b, 0) * 1e6 / self.bucket_us)
                        for b in range(n_buckets)]))
        for name, sc in scopes:
            if sc.delay:
                out.append(MetricSeries(DELAY, name, [
                    (b * self.bucket_us, total / count)
                    for b, (total, count) in sorted(sc.delay.items())]))
        return out

    def build_summary(self, queued_packets: dict[str, int],
                      queued_bytes: dict[str, int]) -> RunSummary:
        s = RunSummary()
        dur_s = self.duration_us / 1e6
        for name, sc in sorted(self._scopes.items()):
            for metric, buckets in sorted(sc.bits.items()):
                if buckets:
                    s.means[(name, metric)] = sum(buckets.values()) / dur_s
            if sc.n:
                s.means[(name, DELAY)] = sc.mean
                s.delay_var[name] = sc.m2 / sc.n
            if sc.counts:
                for counter, packets, nbytes in (
                        ("generated", s.generated_packets, s.generated_bytes),
                        ("delivered", s.delivered_packets, s.delivered_bytes),
                        ("dropped", s.dropped_packets, s.dropped_bytes)):
                    packets[name], nbytes[name] = sc.counts.get(counter, (0, 0))
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
