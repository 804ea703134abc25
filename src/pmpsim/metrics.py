"""Run observables: delay, throughput, offered load, interface counters.

Everything is collected into contiguous time buckets plus run-wide
summaries. Delay means are packet-weighted; throughput and load are
bit-weighted. The BS delay scope holds the uplink-hop delay (source MAC
enqueue to BS reception); cell/station/flow delay scopes hold end-to-end
delay through the relay.
"""

from __future__ import annotations

from typing import IO, Iterator

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


class RunMeta:
    def __init__(self, scenario: str, scheduler_bs: str, scheduler_ss: str, seed: int):
        self.scenario = scenario
        self.scheduler_bs = scheduler_bs
        self.scheduler_ss = scheduler_ss
        self.seed = seed


class MetricSeries:
    def __init__(self, name: str, scope: str, samples: list[tuple[int, float]]):
        self.name = name
        self.scope = scope
        self.samples = samples  # (bucket_start_us, value)


# the per-scope counters of a RunSummary, each a dict by scope
COUNTERS = ("generated_packets", "generated_bytes", "delivered_packets",
            "delivered_bytes", "dropped_packets", "dropped_bytes",
            "queued_packets_end", "queued_bytes_end")


class RunSummary:
    """Run-wide figures: means by (scope, metric), the delay variance and each
    of COUNTERS by scope, and two cell-wide totals."""

    def __init__(self):
        self.means: dict[tuple[str, str], float] = {}
        self.delay_var: dict[str, float] = {}
        for name in COUNTERS:
            setattr(self, name, {})
        self.unused_grant_bytes = 0
        self.collisions = 0


class ConservationError(RuntimeError):
    """A packet or byte went missing: generated != delivered + queued + dropped."""


def _record() -> dict:
    """One flow's record, in whole bits and microseconds. "offered" (by
    creation time), "hop" (received at the BS) and "delivered" map a bucket
    to [bits, packets, sum_us, sum_sq_us] of its packets; the delay fields of
    "offered" stay 0. "src" and "relay" hold the [packets, bytes] dropped there.
    """
    return {"offered": {}, "hop": {}, "delivered": {}, "src": [0, 0], "relay": [0, 0]}


def _add(buckets: dict[int, list[int]], b: int, bits: int, delay_us: int) -> None:
    r = buckets.get(b)
    if r is None:
        buckets[b] = [bits, 1, delay_us, delay_us * delay_us]
    else:
        r[0] += bits
        r[1] += 1
        r[2] += delay_us
        r[3] += delay_us * delay_us


def _merge(flows: list[dict], part: str) -> dict[int, list[int]]:
    """The bucket-wise sum of one part of several flows' records."""
    out: dict[int, list[int]] = {}
    for f in flows:
        for b, r in f[part].items():
            acc = out.get(b)
            out[b] = r if acc is None else [x + y for x, y in zip(acc, r)]
    return out


def _totals(buckets: dict[int, list[int]]) -> tuple[int, int]:
    """(packets, bytes) over all buckets."""
    return sum(r[1] for r in buckets.values()), sum(r[0] for r in buckets.values()) // 8


def _counts(offered: dict, delivered: dict, droppers: list[dict],
            places: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """(packets, bytes) generated, delivered, and dropped at `places` of `droppers`."""
    return {"generated": _totals(offered), "delivered": _totals(delivered),
            "dropped": tuple(sum(f[p][i] for f in droppers for p in places)
                             for i in (0, 1))}


class MetricsCollector:
    """Records each packet event in its flow's record; every scope is built
    at the end as an exact sum of flow records."""

    def __init__(self, bucket_us: int, duration_us: int,
                 flows: dict[int, tuple[int, int]]):
        self.bucket_us = bucket_us
        self.duration_us = duration_us
        self._flows = {cid: _record() for cid in sorted(flows)}
        # station -> (records of the flows it sources, of the flows it receives)
        self._stations: dict[int, tuple[list[dict], list[dict]]] = {}
        for cid, (src, dst) in flows.items():
            self._stations.setdefault(src, ([], []))[0].append(self._flows[cid])
            self._stations.setdefault(dst, ([], []))[1].append(self._flows[cid])
        self.unused_grant_bytes = 0
        self.collisions = 0

    # ------------------------------------------------------------ recording

    def record_offered(self, sdu: MacSdu) -> None:
        _add(self._flows[sdu.cid]["offered"], sdu.created_at // self.bucket_us,
             sdu.size_bytes * 8, 0)

    def record_bs_ingress(self, sdu: MacSdu, t: int) -> None:
        """Uplink SDU handed up at the BS: the uplink hop."""
        _add(self._flows[sdu.cid]["hop"], t // self.bucket_us,
             sdu.size_bytes * 8, t - sdu.created_at)

    def record_delivery(self, sdu: MacSdu, t: int) -> None:
        if sdu.delivered_at is not None:
            raise RuntimeError(f"double delivery of sdu {sdu.id}")
        sdu.delivered_at = t
        _add(self._flows[sdu.cid]["delivered"], t // self.bucket_us,
             sdu.size_bytes * 8, t - sdu.created_at)

    def record_drop(self, sdu: MacSdu, where: str) -> None:
        """`where` is "src" (the source station's queue) or "relay" (the BS's)."""
        d = self._flows[sdu.cid][where]
        d[0] += 1
        d[1] += sdu.size_bytes

    def record_unused_grant(self, nbytes: int) -> None:
        self.unused_grant_bytes += nbytes

    def record_collisions(self, n: int) -> None:
        self.collisions += n

    # ------------------------------------------------------------ finishing

    def _scopes(self) -> Iterator[tuple]:
        """Yield every scope as (name, {metric: bit buckets}, delay buckets,
        counts or None), one at a time. A flow and the cell count end to end.
        A station counts the flows it sources on its sending side, with the
        drops at its own queues, and the flows it receives on its receiving
        side. The BS counts the uplink hop as its load and input, and the
        deliveries as its output."""
        every = list(self._flows.values())
        for name, flows in [(flow_scope(cid), [f]) for cid, f in self._flows.items()] + [
                (SCOPE_CELL, every)]:
            offered, delivered = _merge(flows, "offered"), _merge(flows, "delivered")
            yield (name, {LOAD: offered, THROUGHPUT: delivered}, delivered,
                   _counts(offered, delivered, flows, ("src", "relay")))
        hop, delivered = _merge(every, "hop"), _merge(every, "delivered")
        yield (SCOPE_BS, {LOAD: hop, IFACE_RECV: hop, THROUGHPUT: delivered,
                          IFACE_SENT: delivered}, hop, None)
        for ss_id, (sources, receives) in self._stations.items():
            offered, hop = _merge(sources, "offered"), _merge(sources, "hop")
            delivered = _merge(receives, "delivered")
            yield (ss_scope(ss_id), {LOAD: offered, IFACE_SENT: hop, THROUGHPUT: delivered,
                                     IFACE_RECV: delivered},
                   delivered, _counts(offered, delivered, sources, ("src",)))

    def build_series(self) -> list[MetricSeries]:
        n_buckets = -(-self.duration_us // self.bucket_us)
        out = []
        for name, bits, delay, _ in self._scopes():
            for metric, buckets in sorted(bits.items()):
                if buckets:
                    out.append(MetricSeries(metric, name, [
                        (b * self.bucket_us,
                         (buckets[b][0] if b in buckets else 0) * 1e6 / self.bucket_us)
                        for b in range(n_buckets)]))
            if delay:
                out.append(MetricSeries(DELAY, name, [
                    (b * self.bucket_us, sum_us / (count * 1_000_000))
                    for b, (_, count, sum_us, _) in sorted(delay.items())]))
        return out

    def build_summary(self, queued: dict[int, tuple[int, int]]) -> RunSummary:
        """Run-wide figures; `queued` holds each flow's (packets, bytes) still
        queued at the end. Raises ConservationError if a flow or the cell
        generated other than it delivered, dropped and still queues."""
        s = RunSummary()
        dur_s = self.duration_us / 1e6
        ends = {flow_scope(cid): queued[cid] for cid in self._flows}
        ends[SCOPE_CELL] = tuple(map(sum, zip(*ends.values()))) or (0, 0)
        for name, bits, delay, counts in self._scopes():
            for metric, buckets in sorted(bits.items()):
                if buckets:
                    s.means[(name, metric)] = sum(r[0] for r in buckets.values()) / dur_s
            if delay:
                n, total, total_sq = (sum(r[i] for r in delay.values()) for i in (1, 2, 3))
                s.means[(name, DELAY)] = total / (n * 1_000_000)
                s.delay_var[name] = (n * total_sq - total * total) / (n * n * 10**12)
            if counts and any(packets for packets, _ in counts.values()):
                for counter, (packets, nbytes) in counts.items():
                    getattr(s, f"{counter}_packets")[name] = packets
                    getattr(s, f"{counter}_bytes")[name] = nbytes
            end = ends.get(name)
            if end is not None:
                s.queued_packets_end[name], s.queued_bytes_end[name] = end
                gen = counts["generated"]
                acc = tuple(map(sum, zip(counts["delivered"], counts["dropped"], end)))
                if gen != acc:
                    raise ConservationError(
                        f"{name}: generated {gen} != delivered+dropped+queued {acc}")
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
    for name in COUNTERS:
        for scope, value in getattr(summary, name).items():
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
