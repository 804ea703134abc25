"""Independent brute-force reference schedulers, and a reference metrics collector.

Written separately from the package, in plain step-by-step style, so the
production schedulers can be checked against them output-for-output.

Each `*_frames` reference takes its queues as [(cid, parameter), ...] and a
sequence of frames. A frame is (enqueues, trims, budget): enqueues is a list
of (cid, pid, size, arrival), trims a list of (cid, target_bytes) applied
like `trim_tail`, and budget the byte budget of that frame's select. State
(tags, virtual time, deficits, open visits, the rotation pointer) carries
from one frame to the next. The result holds, per frame, the flat
[(cid, pid, size), ...] list of served packets and each queue's rotation
credit after the select ({cid: credit}; always 0 for wfq and fifo).

The single-shot `*_reference` functions are one frame of the same reference:
they take queues as (cid, weight_or_quantum, [(pid, size), ...]) and return
the served list of that frame.

`FanoutCollector` is the reference for `pmpsim.metrics.MetricsCollector`:
it writes each event into every scope it counts toward as the event happens,
with float delay sums and running (Welford) statistics.
"""

from fractions import Fraction


def _state(queues):
    return sorted(
        ({"cid": c, "param": p, "packets": [], "last": 0,
          "credit": 0, "open": False} for c, p in queues),
        key=lambda s: s["cid"])


def _trim(s, target):
    """Cut bytes from the tail until the queue holds target bytes.

    A packet cut short keeps its tag. A queue trimmed empty loses its credit
    and its open visit.
    """
    excess = sum(p[1] for p in s["packets"]) - target
    while excess > 0:
        tail = s["packets"][-1]
        if tail[1] > excess:
            tail[1] -= excess
            excess = 0
        else:
            s["packets"].pop()
            excess -= tail[1]
    if not s["packets"]:
        s["credit"] = 0
        s["open"] = False


def _frames(state, frames, tag, select):
    by_cid = {s["cid"]: s for s in state}
    out = []
    for enqueues, trims, budget in frames:
        for cid, pid, size, arrival in enqueues:
            s = by_cid[cid]
            s["packets"].append([pid, size, tag(s, size, arrival)])
        for cid, target in trims:
            _trim(by_cid[cid], target)
        out.append((select(budget), {s["cid"]: s["credit"] for s in state}))
    return out


def wfq_frames(queues, frames):
    """queues: list of (cid, weight).

    A packet's tag is max(V, the queue's previous tag) + size/weight, where V
    is the largest tag served so far. The smallest head tag is served first,
    ties to the lower cid; a head larger than the budget left ends the frame.
    """
    state = _state(queues)
    clock = {"v": 0}

    def tag(s, size, arrival):
        s["last"] = max(clock["v"], s["last"]) + Fraction(size, s["param"])
        return s["last"]

    def select(budget):
        served = []
        remaining = budget
        while True:
            best = None
            for s in state:
                if not s["packets"]:
                    continue
                if best is None or s["packets"][0][2] < best["packets"][0][2]:
                    best = s
            if best is None:
                break
            pid, size, t = best["packets"][0]
            if size > remaining:
                break
            best["packets"].pop(0)
            remaining -= size
            if t > clock["v"]:
                clock["v"] = t
            served.append((best["cid"], pid, size))
        return served

    return _frames(state, frames, tag, select)


def fifo_frames(queues, frames):
    """queues: list of (cid, ignored). Earliest head arrival first, ties to the lower cid."""
    state = _state(queues)

    def select(budget):
        served = []
        remaining = budget
        while True:
            best = None
            for s in state:
                if not s["packets"]:
                    continue
                if best is None or s["packets"][0][2] < best["packets"][0][2]:
                    best = s
            if best is None:
                break
            pid, size, _ = best["packets"][0]
            if size > remaining:
                break
            best["packets"].pop(0)
            remaining -= size
            served.append((best["cid"], pid, size))
        return served

    return _frames(state, frames, lambda s, size, arrival: arrival, select)


def dwrr_frames(queues, frames):
    """queues: list of (cid, quantum).

    The rotation visits queues in cid order. A visit adds the quantum to the
    queue's deficit once, then serves head packets while the deficit covers
    them. A visit the frame budget cuts short stays open: the rotation moves
    on, and when it returns the queue goes on without a new quantum; after
    such a resumed visit the queue's next visit follows at once. A queue
    left empty loses its deficit.
    """
    state = _state(queues)
    pos = {"ptr": 0}

    def select(budget):
        served = []
        remaining = budget
        n = len(state)
        while any(s["packets"] and s["packets"][0][1] <= remaining for s in state):
            s = state[pos["ptr"] % n]
            if not s["packets"] or s["packets"][0][1] > remaining:
                pos["ptr"] += 1
                continue
            resumed = s["open"]
            if not resumed:
                s["credit"] += s["param"]
                s["open"] = True
            blocked = False
            while s["packets"]:
                pid, size, _ = s["packets"][0]
                if size > s["credit"]:
                    break
                if size > remaining:
                    blocked = True
                    break
                s["packets"].pop(0)
                s["credit"] -= size
                remaining -= size
                served.append((s["cid"], pid, size))
            if not s["packets"]:
                s["credit"] = 0
            if blocked:
                pos["ptr"] += 1
            else:
                s["open"] = False
                if not resumed:
                    pos["ptr"] += 1
        return served

    return _frames(state, frames, lambda s, size, arrival: 0, select)


def wrr_frames(queues, frames):
    """queues: list of (cid, weight).

    The rotation visits queues in cid order; a visit may send up to weight
    packets, whatever their size. A visit the frame budget cuts short stays
    open with the packets it has left, as in dwrr_frames; a visit that ends
    any other way forfeits what it has left.
    """
    state = _state(queues)
    pos = {"ptr": 0}

    def select(budget):
        served = []
        remaining = budget
        n = len(state)
        while any(s["packets"] and s["packets"][0][1] <= remaining for s in state):
            s = state[pos["ptr"] % n]
            if not s["packets"] or s["packets"][0][1] > remaining:
                pos["ptr"] += 1
                continue
            resumed = s["open"]
            if not resumed:
                s["credit"] = s["param"]
                s["open"] = True
            blocked = False
            while s["packets"] and s["credit"] > 0:
                pid, size, _ = s["packets"][0]
                if size > remaining:
                    blocked = True
                    break
                s["packets"].pop(0)
                s["credit"] -= 1
                remaining -= size
                served.append((s["cid"], pid, size))
            if blocked:
                pos["ptr"] += 1
            else:
                s["open"] = False
                s["credit"] = 0
                if not resumed:
                    pos["ptr"] += 1
        return served

    return _frames(state, frames, lambda s, size, arrival: 0, select)


def _one_frame(frames_fn, queues, budget, arrivals=None):
    enqueues = [(cid, pid, size, arrivals[cid][i] if arrivals else 0)
                for cid, _, packets in queues for i, (pid, size) in enumerate(packets)]
    return frames_fn([(cid, p) for cid, p, _ in queues], [(enqueues, [], budget)])[0][0]


def wfq_reference(queues, budget):
    """queues: list of (cid, weight, packets). Tags = cumulative size/weight."""
    return _one_frame(wfq_frames, queues, budget)


def dwrr_reference(queues, budget):
    """queues: list of (cid, quantum, packets)."""
    return _one_frame(dwrr_frames, queues, budget)


def wrr_reference(queues, budget):
    """queues: list of (cid, weight, packets). Serves up to weight packets per visit."""
    return _one_frame(wrr_frames, queues, budget)


def fifo_reference(queues, budget):
    """queues: list of (cid, arrivals, packets); arrivals parallel to packets."""
    return _one_frame(fifo_frames, [(c, 1, p) for c, _, p in queues], budget,
                      arrivals={c: a for c, a, _ in queues})


# ------------------------------------------------------------------ metrics

class _FanoutScope:
    """What one scope recorded: bits per bucket by metric, delay [sum_s, count]
    per bucket with running (Welford) statistics, and [packets, bytes] by
    counter. An empty container, or n == 0, means nothing was recorded."""

    def __init__(self):
        self.bits = {"load_bps": {}, "throughput_bps": {},
                     "iface_sent_bps": {}, "iface_recv_bps": {}}
        self.delay = {}
        self.counts = {}
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add_bits(self, metric, b, bits):
        self.bits[metric][b] = self.bits[metric].get(b, 0) + bits

    def add_delay(self, b, x):
        cell = self.delay.setdefault(b, [0.0, 0])
        cell[0] += x
        cell[1] += 1
        self.n += 1
        d = x - self.mean
        self.mean += d / self.n
        self.m2 += d * (x - self.mean)

    def count(self, counter, nbytes):
        c = self.counts.setdefault(counter, [0, 0])
        c[0] += 1
        c[1] += nbytes


class FanoutCollector:
    """The cell, the BS, each station and each flow keep their own scope, and
    every record call names the stations involved. A flow and the cell count
    end to end; a station counts its own flows' load, uplink sends and source
    drops, and the flows it receives; the BS counts the uplink hop in and the
    deliveries out."""

    def __init__(self, bucket_us, duration_us, flow_cids, ss_ids):
        self.bucket_us = bucket_us
        self.duration_us = duration_us
        self.cell, self.bs = _FanoutScope(), _FanoutScope()
        self.flows = {cid: _FanoutScope() for cid in flow_cids}
        self.sss = {s: _FanoutScope() for s in ss_ids}

    def scopes(self):
        named = {"cell": self.cell, "bs": self.bs}
        named.update({f"flow_{cid:05d}": sc for cid, sc in self.flows.items()})
        named.update({f"ss_{s:02d}": sc for s, sc in self.sss.items()})
        return sorted(named.items())

    def record_offered(self, sdu, src_ss):
        b = sdu.created_at // self.bucket_us
        for sc in (self.cell, self.flows[sdu.cid], self.sss[src_ss]):
            sc.add_bits("load_bps", b, sdu.size_bytes * 8)
            sc.count("generated", sdu.size_bytes)

    def record_bs_ingress(self, sdu, t, src_ss):
        b = t // self.bucket_us
        self.bs.add_delay(b, (t - sdu.created_at) / 1e6)
        self.bs.add_bits("load_bps", b, sdu.size_bytes * 8)
        self.bs.add_bits("iface_recv_bps", b, sdu.size_bytes * 8)
        self.sss[src_ss].add_bits("iface_sent_bps", b, sdu.size_bytes * 8)

    def record_delivery(self, sdu, t, dst_ss):
        b = t // self.bucket_us
        dst = self.sss[dst_ss]
        for sc in (self.cell, self.flows[sdu.cid], dst):
            sc.add_bits("throughput_bps", b, sdu.size_bytes * 8)
            sc.add_delay(b, (t - sdu.created_at) / 1e6)
            sc.count("delivered", sdu.size_bytes)
        self.bs.add_bits("throughput_bps", b, sdu.size_bytes * 8)
        self.bs.add_bits("iface_sent_bps", b, sdu.size_bytes * 8)
        dst.add_bits("iface_recv_bps", b, sdu.size_bytes * 8)

    def record_drop(self, sdu, where, src_ss):
        scopes = [self.cell, self.flows[sdu.cid]]
        if where == "src":
            scopes.append(self.sss[src_ss])
        for sc in scopes:
            sc.count("dropped", sdu.size_bytes)

    def build_series(self):
        """{(scope, metric): [(bucket_start_us, value), ...]}"""
        out = {}
        n_buckets = -(-self.duration_us // self.bucket_us)
        for name, sc in self.scopes():
            for metric, buckets in sc.bits.items():
                if buckets:
                    out[(name, metric)] = [
                        (b * self.bucket_us, buckets.get(b, 0) * 1e6 / self.bucket_us)
                        for b in range(n_buckets)]
            if sc.delay:
                out[(name, "delay_s")] = [(b * self.bucket_us, total / count)
                                          for b, (total, count) in sorted(sc.delay.items())]
        return out

    def build_summary(self):
        """(means {(scope, metric): value}, delay_var {scope: value},
        counts {(scope, counter): (packets, bytes)})"""
        means, delay_var, counts = {}, {}, {}
        for name, sc in self.scopes():
            for metric, buckets in sc.bits.items():
                if buckets:
                    means[(name, metric)] = sum(buckets.values()) / (self.duration_us / 1e6)
            if sc.n:
                means[(name, "delay_s")] = sc.mean
                delay_var[name] = sc.m2 / sc.n
            if sc.counts:
                for counter in ("generated", "delivered", "dropped"):
                    counts[(name, counter)] = tuple(sc.counts.get(counter, (0, 0)))
        return means, delay_var, counts
