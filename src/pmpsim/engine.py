"""World assembly and the per-frame protocol loop for one simulation run.

A run owns its entire world: kernel, stations, connections, schedulers,
generators, and metrics. Per frame: the BS serves the downlink and builds
the uplink map at frame start; at uplink-subframe start every SS consumes
its grants, answers polls, and the contention region resolves. Each flow
has one connection, which its source station, the BS relay and the grant
table share: an uplink arrival joins the BS relay queue of the same cid.
"""

from __future__ import annotations

from typing import IO, Optional

from .bwreq import BandwidthManager, ContentionState
from .kernel import EventKind, Simulator
from .metrics import (ConservationError, MetricSeries, MetricsCollector, RunMeta,
                      RunSummary, emit_csv)
from .phy import UlMap
from .qos import Connection, MacSdu
from .sched import PacketScheduler, SchedulableQueue, make_scheduler
from .scenario import Scenario
from .stations import BaseStation, SubscriberStation, TransmissionRecord
from .traffic import Emitter


class RunResult:
    def __init__(self, meta: RunMeta, summary: RunSummary, series: list[MetricSeries],
                 dispatched: int, audit: Optional[list[TransmissionRecord]] = None,
                 ul_maps: Optional[list[UlMap]] = None):
        self.meta = meta
        self.summary = summary
        self.series = series
        self.dispatched = dispatched
        self.audit = audit
        self.ul_maps = ul_maps

    def write_csv(self, fh: IO[str]) -> None:
        emit_csv(fh, self.meta, self.series, self.summary)


class SimulationRun:
    def __init__(self, scenario: Scenario, record_audit: bool = False):
        scenario.validate()
        self.scenario = scenario
        self.cfg = scenario.frame
        self.sim = Simulator(scenario.seed)
        self.audit: Optional[list[TransmissionRecord]] = [] if record_audit else None
        self.ul_maps: Optional[list[UlMap]] = [] if record_audit else None

        # odd cids: flow i is the CSV's flow_XXXXX number 2i+1
        self.metrics = MetricsCollector(
            scenario.bucket_us, scenario.duration_us,
            flows={2 * i + 1: (spec.src, spec.dst) for i, spec in enumerate(scenario.flows)})
        self.bs = BaseStation(make_scheduler(scenario.scheduler_bs), self.cfg, self.metrics)
        self.bw = BandwidthManager(
            self.cfg, make_scheduler(scenario.scheduler_bs),
            request_bytes=scenario.contention.request_bytes,
            min_contention_slots=scenario.contention.min_slots)
        self.sss: dict[int, SubscriberStation] = {}
        for ss_id in range(1, scenario.station_count + 1):
            contention = ContentionState(
                ss_id, min_window=scenario.contention.min_window,
                max_window=scenario.contention.max_window)
            self.sss[ss_id] = SubscriberStation(
                ss_id, make_scheduler(scenario.scheduler_ss), contention)

        # cid -> (its source queue, the queue's packet cap, the station's scheduler)
        self._uplink: dict[int, tuple[SchedulableQueue, int, PacketScheduler]] = {}
        for i, spec in enumerate(scenario.flows):
            conn = Connection(
                2 * i + 1, spec.cls, spec.src, spec.dst, queue_cap_packets=spec.queue_packets,
                weight=spec.weight, quantum=spec.weight * scenario.base_quantum_bytes,
                grant_interval_us=spec.grant_interval_us, chunk_bytes=spec.mtu_bytes,
                rate_bps=spec.rate_bps, packet_bytes=spec.packet_bytes)
            ss = self.sss[spec.src]
            self._uplink[conn.cid] = (ss.add_uplink(conn), conn.queue_cap_packets, ss.local_sched)
            self.bs.add_downlink(conn)
            self.bw.register_flow(conn)
        self._sdu_counter = 0

    # -------------------------------------------------------------- hooks

    def ingest(self, cid: int, size_bytes: int) -> None:
        """A generator emitted one SDU onto its flow's connection."""
        queue, cap, sched = self._uplink[cid]
        sdu = MacSdu(self._sdu_counter, cid, size_bytes, self.sim.now)
        self._sdu_counter += 1
        self.metrics.record_offered(sdu)
        if len(queue.packets) >= cap:
            self.metrics.record_drop(sdu, "src")
            return
        sched.enqueue(cid, sdu.id, size_bytes, arrival=sdu.created_at, payload=sdu)

    # -------------------------------------------------------------- frames

    def _frame_start(self, n: int) -> None:
        ul_map = self.bs.frame_tick(self, n)
        if self.ul_maps is not None:
            self.ul_maps.append(ul_map)
        _, _, ul_start, frame_end = self.cfg.frame_boundaries(n)
        self.sim.schedule(ul_start, EventKind.UL_SUBFRAME_START, self._ul_start, (n, ul_map))
        if frame_end < self.scenario.duration_us:
            self.sim.schedule(frame_end, EventKind.FRAME_START, self._frame_start, n + 1)

    def _ul_start(self, frame: tuple[int, UlMap]) -> None:
        n, ul_map = frame
        ul_start = self.sim.now
        for ss in self.sss.values():  # in ss_id order
            ss.on_map(self, ul_map, n, ul_start)
        slots = ul_map.contention_bytes // self.scenario.contention.request_bytes
        # only a station with a request pending draws a backoff
        states = [ss.contention for ss in self.sss.values() if ss.contention.pending is not None]
        delivered, collided = self.bw.run_contention(states, slots, self.sim.rng)
        for _slot, req in delivered:
            self.bw.on_request(req)
        self.metrics.record_collisions(len(collided))

    # ----------------------------------------------------------------- run

    def run(self) -> RunResult:
        end_us, traffic = self.scenario.duration_us, self.sim.rng.traffic
        # cids in flow order; each emitter lives in the event queue until its flow stops
        for cid, spec in zip(self.bw.flows, self.scenario.flows):
            Emitter(spec, cid, traffic, end_us, self.sim.schedule, self.ingest)
        self.sim.schedule(0, EventKind.FRAME_START, self._frame_start, 0)
        self.sim.run_until(end_us)

        # (packets, bytes) each flow still holds, at its source and at the relay
        queued = {}
        dl = self.bs.dl_sched
        for cid, conn in self.bw.flows.items():
            local = self.sss[conn.src].local_sched
            queued[cid] = (local.pending(cid) + dl.pending(cid),
                           local.backlog_bytes(cid) + dl.backlog_bytes(cid))
        summary = self.metrics.build_summary(queued)
        meta = RunMeta(self.scenario.name, self.scenario.scheduler_bs,
                       self.scenario.scheduler_ss, self.scenario.seed)
        return RunResult(meta, summary, self.metrics.build_series(),
                         self.sim.dispatched, self.audit, self.ul_maps)


def run_scenario(scenario: Scenario, record_audit: bool = False) -> RunResult:
    return SimulationRun(scenario, record_audit=record_audit).run()
