"""Source models: ftp, streaming video, http, VoIP with silence suppression,
and plain voice.

Application frames larger than the flow MTU are emitted as back-to-back
MTU-sized MAC SDUs (the convergence sublayer hands the MAC IP-sized
packets), so no SDU ever exceeds what a single uplink allocation can
carry. All draws come from the traffic substream of the run's seeded
random source, which keeps the emitted sequence identical across
scheduler variants of the same seed.
"""

from __future__ import annotations

import math
from typing import Callable

from .kernel import EventKind, RandomSource, Simulator
from .scenario import FlowSpec, Scenario

# ingest(cid, size_bytes) is called once per emitted SDU, at the event time
IngestFn = Callable[[int, int], None]


def _split_burst(total: int, mtu: int) -> list[int]:
    sizes = [mtu] * (total // mtu)
    if total % mtu:
        sizes.append(total % mtu)
    return sizes


class TrafficSource:
    def __init__(self, spec: FlowSpec, cid: int, rng: RandomSource):
        self.spec = spec
        self.cid = cid
        self.rng = rng

    def start(self, sim: Simulator, stop_us: int, ingest: IngestFn) -> None:
        self.sim = sim
        self.stop_us = min(stop_us, self.spec.stop_us or stop_us)
        self.ingest = ingest
        if self.spec.start_us < self.stop_us:
            sim.schedule(self.spec.start_us, EventKind.PACKET_ARRIVAL, self._fire)

    def _reschedule(self, at: int) -> None:
        if at < self.stop_us:
            self.sim.schedule(at, EventKind.PACKET_ARRIVAL, self._fire)

    def _fire(self, _):
        raise NotImplementedError


class VoiceSource(TrafficSource):
    """Constant bit rate: one fixed packet every packet_bytes*8/rate seconds."""

    def __init__(self, spec, cid, rng):
        super().__init__(spec, cid, rng)
        self.period_us = spec.packet_period_us()

    def _fire(self, _):
        self.ingest(self.cid, self.spec.packet_bytes)
        self._reschedule(self.sim.now + self.period_us)


class VoipSource(VoiceSource):
    """Voice with silence suppression: exponential talk/silence phases."""

    def __init__(self, spec, cid, rng):
        super().__init__(spec, cid, rng)
        self.talking = True
        self.phase_ends = 0
        self._drawn = False

    def _advance_phase(self, now: int) -> None:
        if not self._drawn:
            self.phase_ends = now + self._phase_len(talking=True)
            self._drawn = True
        while now >= self.phase_ends:
            self.talking = not self.talking
            self.phase_ends += self._phase_len(self.talking)

    def _phase_len(self, talking: bool) -> int:
        mean = self.spec.talk_mean_us if talking else self.spec.silence_mean_us
        return max(1, int(self.rng.traffic_expovariate(mean)))

    def _fire(self, _):
        now = self.sim.now
        self._advance_phase(now)
        if self.talking:
            self.ingest(self.cid, self.spec.packet_bytes)
        self._reschedule(now + self.period_us)


class VideoSource(TrafficSource):
    """Periodic frames with truncated-lognormal sizes, emitted as MTU bursts."""

    def __init__(self, spec, cid, rng):
        super().__init__(spec, cid, rng)
        self.mu = math.log(spec.mean_frame_bytes) - spec.sigma ** 2 / 2

    def _fire(self, _):
        size = int(self.rng.traffic_lognormvariate(self.mu, self.spec.sigma))
        size = max(1, min(size, self.spec.max_frame_bytes))
        for sdu in _split_burst(size, self.spec.mtu_bytes):
            self.ingest(self.cid, sdu)
        self._reschedule(self.sim.now + self.spec.frame_interval_us)


class FtpSource(TrafficSource):
    """Back-to-back fixed-size packets at a configured offered rate."""

    def __init__(self, spec, cid, rng):
        super().__init__(spec, cid, rng)
        self._k = 0

    def _fire(self, _):
        self.ingest(self.cid, self.spec.packet_bytes)
        self._k += 1
        nxt = self.spec.start_us + (
            self._k * self.spec.packet_bytes * 8_000_000) // self.spec.rate_bps
        self._reschedule(nxt)


class HttpSource(TrafficSource):
    """Poisson page requests; page sizes bounded-Pareto, emitted as MTU bursts.

    A page burst is paced at page_pace_bps (at least 1 bit/s: the
    server/transport feeding the station), so large pages arrive over
    milliseconds rather than in one instant.
    """

    def __init__(self, spec, cid, rng):
        super().__init__(spec, cid, rng)
        # scale so the unbounded Pareto mean equals mean_page_bytes
        self.xm = spec.mean_page_bytes * (spec.pareto_alpha - 1) / spec.pareto_alpha
        self._chunks: list[int] = []

    def _fire(self, _):
        now = self.sim.now
        if not self._chunks:
            size = int(self.xm * self.rng.traffic_paretovariate(self.spec.pareto_alpha))
            size = max(1, min(size, self.spec.max_page_bytes))
            self._chunks = _split_burst(size, self.spec.mtu_bytes)
        chunk = self._chunks.pop(0)
        self.ingest(self.cid, chunk)
        if self._chunks:
            pace = chunk * 8_000_000 // self.spec.page_pace_bps
            self._reschedule(now + max(1, pace))
        else:
            gap = max(1, int(self.rng.traffic_expovariate(1e6 / self.spec.page_rate_per_s)))
            self._reschedule(now + gap)


_SOURCES = {"voice": VoiceSource, "voip_silence": VoipSource, "video": VideoSource,
            "ftp": FtpSource, "http": HttpSource}


def make_source(spec: FlowSpec, cid: int, rng: RandomSource) -> TrafficSource:
    return _SOURCES[spec.kind](spec, cid, rng)


# --------------------------------------------------------------- built-ins

def build_paper_scenario() -> Scenario:
    """The five-station PMP cell: one BS, five SSs, five crossing flows.

    The uplink subframe share is sized so the default traffic mix loads the
    uplink to just under its capacity; that is the operating point where
    the choice of grant scheduler is visible in delay and throughput.
    The literal traffic matrix leaves one station silent and one flow
    without a destination; here the silence-suppressed VoIP flow runs
    SS5 -> SS4 so all five stations participate (see build_literal_scenario
    for the alternative reading).
    """
    return Scenario.from_dict({
        "name": "paper-pmp",
        "frame": {"frame_duration_us": 12_500, "ttg_us": 106, "rtg_us": 60,
                  "dl_fraction": "189/200", "channel_bandwidth_hz": 20_000_000},
        "stations": {"count": 5},
        "schedulers": {"bs": "wfq", "ss": "wfq"},
        "flows": [{"kind": "ftp", "src": 1, "dst": 2},
                  {"kind": "video", "src": 2, "dst": 3},
                  {"kind": "http", "src": 3, "dst": 4},
                  {"kind": "voip_silence", "src": 5, "dst": 4},
                  {"kind": "voice", "src": 4, "dst": 1}],
        "run": {"seed": 1, "duration_us": 60_000_000, "bucket_us": 1_000_000},
    })


def build_literal_scenario() -> Scenario:
    """Strict reading of the traffic matrix: both voice flows leave SS4."""
    sc = build_paper_scenario()
    sc.name = "paper-pmp-literal"
    sc.flows[3] = FlowSpec.from_dict(
        {"kind": "voip_silence", "src": 4, "dst": 1}, "flows[3]")
    sc.validate()
    return sc


def builtin_scenarios() -> dict[str, Callable[[], Scenario]]:
    return {"paper-pmp": build_paper_scenario,
            "paper-pmp-literal": build_literal_scenario}
