"""Base station and subscriber station state machines.

The BS schedules the downlink and builds the uplink map each frame; every
SS consumes the grants addressed to it, answers polls, and contends for
bandwidth when it has no other way to ask. All SS-to-SS traffic relays
through the BS, so end-to-end delay spans uplink queueing, BS queueing,
and downlink scheduling.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .bwreq import BwRequest
from .phy import Direction, GrantKind, IllegalMapError, MapIE, UlMap, validate_map
from .qos import Connection, RequestMode, SchedulingClass
from .sched import PacketScheduler


@dataclass(slots=True)
class TransmissionRecord:
    frame_index: int
    direction: Direction
    cid: int
    nbytes: int
    start_us: int
    end_us: int


def transmit(run, sched: PacketScheduler, n: int, direction: Direction, subframe_start: int,
             offset: int, budget: int, arrive) -> int:
    """Send the packets `sched.select(budget)` picks back to back from byte
    `offset` of the subframe that starts at `subframe_start`; `arrive(sdu, t)`
    takes each one when its last byte is sent. Returns the bytes sent."""
    cfg = run.cfg
    cursor = offset
    for dec in sched.select(budget):
        for sdu in dec.payloads:
            start_t = subframe_start + cfg.tx_time_us(cursor)
            cursor += sdu.size_bytes
            end_t = subframe_start + cfg.tx_time_us(cursor)
            if run.audit is not None:
                run.audit.append(TransmissionRecord(
                    n, direction, sdu.cid, sdu.size_bytes, start_t, end_t))
            arrive(sdu, end_t)
    return cursor - offset


class BaseStation:
    def __init__(self, dl_scheduler: PacketScheduler):
        self.dl_sched = dl_scheduler  # the relay queues, one per flow, keyed by its cid

    def add_downlink(self, conn: Connection) -> None:
        self.dl_sched.add_queue(conn.cid, weight=conn.weight, quantum=conn.quantum)

    def frame_tick(self, run, n: int) -> UlMap:
        """Per-frame BS work: serve the downlink, then build the uplink map."""
        cfg = run.cfg
        _, dl_start, _, _ = cfg.frame_boundaries(n)
        dl_cap = cfg.subframe_capacity_bytes(Direction.DOWNLINK)
        map_bytes = -(-dl_cap * run.scenario.map_overhead_fraction.numerator
                      // run.scenario.map_overhead_fraction.denominator)
        transmit(run, self.dl_sched, n, Direction.DOWNLINK, dl_start, map_bytes,
                 dl_cap - map_bytes, run.metrics.record_delivery)
        ul_map = run.bw.build_ul_map(n, now=run.sim.now)
        violation = validate_map(ul_map, cfg)
        if violation is not None:
            raise IllegalMapError(f"frame {n}: illegal uplink map ({violation})")
        return ul_map

    def receive_uplink(self, run, sdu, arrival_us: int) -> None:
        """Hand an uplink SDU to the relay; it joins its flow's downlink queue."""
        if self.dl_sched.pending(sdu.cid) >= run.bw.flows[sdu.cid].queue_cap_packets:
            run.metrics.record_drop(sdu, "relay")
            return
        self.dl_sched.enqueue(sdu.cid, sdu.id, sdu.size_bytes,
                              arrival=arrival_us, payload=sdu)


class SubscriberStation:
    def __init__(self, ss_id: int, local_scheduler: PacketScheduler, contention_state):
        self.ss_id = ss_id
        self.local_sched = local_scheduler
        self.contention = contention_state
        self.conns: list[Connection] = []  # the flows it sources, in cid order

    def add_uplink(self, conn: Connection) -> None:
        bisect.insort(self.conns, conn, key=lambda c: c.cid)
        self.local_sched.add_queue(conn.cid, weight=conn.weight, quantum=conn.quantum)

    def _merged_windows(self, ies: list[MapIE]) -> list[tuple[int, int]]:
        """Coalesce this station's contiguous data grants into (offset, length)
        fill windows."""
        windows: list[tuple[int, int]] = []
        for ie in sorted(ies, key=lambda e: e.offset_bytes):
            if windows and windows[-1][0] + windows[-1][1] == ie.offset_bytes:
                offset, length = windows[-1]
                windows[-1] = (offset, length + ie.grant_bytes)
            else:
                windows.append((ie.offset_bytes, ie.grant_bytes))
        return windows

    def on_map(self, run, ul_map: UlMap, n: int, ul_start: int) -> None:
        mine = [ie for ie in ul_map.ies if ie.ss_id == self.ss_id]
        my_data = [ie for ie in mine if ie.kind is GrantKind.DATA]
        my_polls = [ie for ie in mine if ie.kind is GrantKind.POLL]

        sent_data = False
        for offset, length in self._merged_windows(my_data):
            served = transmit(run, self.local_sched, n, Direction.UPLINK, ul_start, offset,
                              length, run.uplink_arrival)
            sent_data = sent_data or served > 0
            run.metrics.record_unused_grant(length - served)

        polled = set()
        for ie in my_polls:
            backlog = self.local_sched.backlog_bytes(ie.cid)
            if backlog > 0:
                run.bw.on_request(BwRequest(ie.cid, backlog))
                polled.add(ie.cid)
            else:
                # nothing to ask for: the request is suppressed, the poll wasted
                run.metrics.record_unused_grant(ie.grant_bytes)

        piggyback_ok = sent_data and not run.scenario.strict_paper
        for conn in self.conns:
            backlog = self.local_sched.backlog_bytes(conn.cid)
            if conn.cls is SchedulingClass.ERTPS:
                # grant-size adjustment piggybacked on this frame's allocation
                run.bw.set_ertps_talking(conn.cid, backlog > 0)
                continue
            if conn.mode is RequestMode.UNSOLICITED or backlog == 0:
                continue
            if piggyback_ok and conn.cid not in polled:
                run.bw.on_request(BwRequest(conn.cid, backlog))

        self._maybe_contend(run, piggyback_ok, polled)

    def _maybe_contend(self, run, piggyback_ok: bool, polled: set[int]) -> None:
        """Queue a contention request for flows with no signalling path this frame."""
        if piggyback_ok:
            return
        best_cid = None
        best_backlog = 0
        for conn in self.conns:
            if conn.mode is RequestMode.UNSOLICITED or conn.cid in polled:
                continue
            backlog = self.local_sched.backlog_bytes(conn.cid)
            if backlog > best_backlog:
                best_cid, best_backlog = conn.cid, backlog
        if best_cid is None:
            return
        if self.contention.pending is not None:
            if self.contention.pending.cid == best_cid:
                self.contention.pending.bytes_requested = best_backlog
            return
        self.contention.pending = BwRequest(best_cid, best_backlog)
