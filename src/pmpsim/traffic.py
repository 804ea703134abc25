"""Source models: ftp, streaming video, http, VoIP with silence suppression,
and plain voice.

Each traffic kind is a generator over its flow's emission instants, made
from the flow's entry (a scenario.FlowSpec) and a random stream. It is
resumed once per instant, the first time at the flow's start_us, and yields
the SDU sizes to emit at that instant and the time of its next one. It draws
only while resumed, so each draw belongs to one instant, in a fixed order.
`Emitter` turns a source into PACKET_ARRIVAL events, one per instant;
without a kernel, a source can be iterated directly.

Application frames larger than the flow MTU are emitted as back-to-back
MTU-sized MAC SDUs (the convergence sublayer hands the MAC IP-sized
packets), so no SDU ever exceeds what a single uplink allocation can
carry. All draws come from the random stream the source is given: in a
run, the traffic substream of the seeded random source, which keeps the
emitted sequence identical across scheduler variants of the same seed.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Iterator, Sequence

from .kernel import EventKind

# ingest(cid, size_bytes) is called once per emitted SDU, at the event time
IngestFn = Callable[[int, int], None]
# (SDU sizes emitted at this instant, time of the next instant)
Source = Iterator[tuple[Sequence[int], int]]
_ARRIVAL = EventKind.PACKET_ARRIVAL  # a module name: reading an Enum member costs ~0.1 us


def _split_burst(total: int, mtu: int) -> list[int]:
    sizes = [mtu] * (total // mtu)
    if total % mtu:
        sizes.append(total % mtu)
    return sizes


def voice(spec, rng: random.Random) -> Source:
    """Constant bit rate: one fixed packet every packet_bytes*8/rate seconds."""
    sizes, period = (spec.packet_bytes,), spec.packet_period_us()
    for nxt in itertools.count(spec.start_us + period, period):
        yield sizes, nxt


def voip_silence(spec, rng: random.Random) -> Source:
    """Voice with silence suppression: exponential talk/silence phases."""
    sizes, period = (spec.packet_bytes,), spec.packet_period_us()
    # a silence that ends at the start: the first instant draws a talk phase
    now = flip_at = spec.start_us
    talking = False
    while True:
        while now >= flip_at:
            talking = not talking
            mean = spec.talk_mean_us if talking else spec.silence_mean_us
            flip_at += max(1, int(rng.expovariate(1.0 / mean)))
        now += period
        yield (sizes if talking else ()), now


def video(spec, rng: random.Random) -> Source:
    """Periodic frames with truncated-lognormal sizes, emitted as MTU bursts."""
    mu = math.log(spec.mean_frame_bytes) - spec.sigma ** 2 / 2
    for nxt in itertools.count(spec.start_us + spec.frame_interval_us, spec.frame_interval_us):
        size = int(rng.lognormvariate(mu, spec.sigma))
        size = max(1, min(size, spec.max_frame_bytes))
        yield _split_burst(size, spec.mtu_bytes), nxt


def ftp(spec, rng: random.Random) -> Source:
    """Back-to-back fixed-size packets at a configured offered rate."""
    sizes = (spec.packet_bytes,)
    for k in itertools.count(1):
        yield sizes, spec.start_us + k * spec.packet_bytes * 8_000_000 // spec.rate_bps


def http(spec, rng: random.Random) -> Source:
    """Poisson page requests; page sizes bounded-Pareto, emitted as MTU bursts.

    A page burst is paced at page_pace_bps (at least 1 bit/s: the
    server/transport feeding the station), so large pages arrive over
    milliseconds rather than in one instant.
    """
    # scale so the unbounded Pareto mean equals mean_page_bytes
    xm = spec.mean_page_bytes * (spec.pareto_alpha - 1) / spec.pareto_alpha
    mean = 1e6 / spec.page_rate_per_s
    now = spec.start_us
    while True:
        size = int(xm * rng.paretovariate(spec.pareto_alpha))
        size = max(1, min(size, spec.max_page_bytes))
        *paced, last = _split_burst(size, spec.mtu_bytes)
        for chunk in paced:
            now += max(1, chunk * 8_000_000 // spec.page_pace_bps)
            yield (chunk,), now
        now += max(1, int(rng.expovariate(1.0 / mean)))
        yield (last,), now


def make_source(spec, rng: random.Random) -> Source:
    """The flow's source, drawing from rng; nothing runs until it is resumed."""
    kinds = {"voice": voice, "voip_silence": voip_silence, "video": video,
             "ftp": ftp, "http": http}
    return kinds[spec.kind](spec, rng)


class Emitter:
    """One flow's source on the kernel: a PACKET_ARRIVAL event per emission
    instant from start_us until before stop_us. The handler is a bound method,
    not a closure, so a finished run holds no reference cycle through its source."""

    def __init__(self, spec, cid: int, rng: random.Random, end_us: int,
                 schedule: Callable, ingest: IngestFn):
        self.source = make_source(spec, rng)
        self.cid, self.schedule, self.ingest = cid, schedule, ingest
        self.stop_us = min(end_us, spec.stop_us or end_us)
        if spec.start_us < self.stop_us:
            schedule(spec.start_us, _ARRIVAL, self.fire)

    def fire(self, _) -> None:
        sizes, nxt = next(self.source)
        for size in sizes:
            self.ingest(self.cid, size)
        if nxt < self.stop_us:
            self.schedule(nxt, _ARRIVAL, self.fire)
