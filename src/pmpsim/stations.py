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
from fractions import Fraction

from .bwreq import BwRequest
from .phy import Direction, FrameConfig, GrantKind, IllegalMapError, UlMap, validate_map
from .qos import Connection, RequestMode, SchedulingClass
from .sched import PacketScheduler, SchedulableQueue


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
    tx_time_us, audit = run.cfg.tx_time_us, run.audit
    cursor = offset
    for dec in sched.select(budget):
        for sdu in dec.payloads:
            start = cursor
            cursor += sdu.size_bytes
            end_t = subframe_start + tx_time_us(cursor)
            if audit is not None:
                audit.append(TransmissionRecord(n, direction, sdu.cid, sdu.size_bytes,
                                                subframe_start + tx_time_us(start), end_t))
            arrive(sdu, end_t)
    return cursor - offset


class BaseStation:
    def __init__(self, dl_scheduler: PacketScheduler, cfg: FrameConfig,
                 map_overhead_fraction: Fraction):
        self.dl_sched = dl_scheduler  # the relay queues, one per flow, keyed by its cid
        self._relay: dict[int, tuple[SchedulableQueue, int]] = {}  # cid -> (queue, packet cap)
        dl_cap = cfg.subframe_capacity_bytes(Direction.DOWNLINK)
        # the DL map opens the downlink subframe; the relay data fills the rest
        self.dl_map_bytes = -(-dl_cap * map_overhead_fraction.numerator
                              // map_overhead_fraction.denominator)
        self.dl_data_bytes = dl_cap - self.dl_map_bytes

    def add_downlink(self, conn: Connection) -> None:
        queue = self.dl_sched.add_queue(conn.cid, weight=conn.weight, quantum=conn.quantum)
        self._relay[conn.cid] = (queue, conn.queue_cap_packets)

    def frame_tick(self, run, n: int) -> UlMap:
        """Per-frame BS work: serve the downlink, then build the uplink map."""
        cfg = run.cfg
        _, dl_start, _, _ = cfg.frame_boundaries(n)
        transmit(run, self.dl_sched, n, Direction.DOWNLINK, dl_start, self.dl_map_bytes,
                 self.dl_data_bytes, run.metrics.record_delivery)
        ul_map = run.bw.build_ul_map(n, now=run.sim.now)
        violation = validate_map(ul_map, cfg)
        if violation is not None:
            raise IllegalMapError(f"frame {n}: illegal uplink map ({violation})")
        return ul_map

    def receive_uplink(self, run, sdu, arrival_us: int) -> None:
        """Hand an uplink SDU to the relay; it joins its flow's downlink queue."""
        queue, cap = self._relay[sdu.cid]
        if len(queue.packets) >= cap:
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

    def add_uplink(self, conn: Connection) -> SchedulableQueue:
        """Source the flow of `conn` here; returns its queue."""
        bisect.insort(self.conns, conn, key=lambda c: c.cid)
        return self.local_sched.add_queue(conn.cid, weight=conn.weight, quantum=conn.quantum)

    def on_map(self, run, ul_map: UlMap, n: int, ul_start: int) -> None:
        ss_id = self.ss_id
        # the map lists each station's IEs together, in offset order
        mine = [ie for ie in ul_map.ies if ie.ss_id == ss_id]
        sent_data = False
        polled = []
        if mine:
            windows: list[list[int]] = []  # contiguous data grants as [offset, length]
            polls = []
            for ie in mine:
                if ie.kind is GrantKind.POLL:
                    polls.append(ie)
                elif windows and windows[-1][0] + windows[-1][1] == ie.offset_bytes:
                    windows[-1][1] += ie.grant_bytes
                else:
                    windows.append([ie.offset_bytes, ie.grant_bytes])
            for offset, length in windows:
                served = transmit(run, self.local_sched, n, Direction.UPLINK, ul_start,
                                  offset, length, run.uplink_arrival)
                sent_data = sent_data or served > 0
                run.metrics.record_unused_grant(length - served)
            for ie in polls:
                backlog = self.local_sched.backlog_bytes(ie.cid)
                if backlog > 0:
                    run.bw.on_request(BwRequest(ie.cid, backlog))
                    polled.append(ie.cid)
                else:
                    # nothing to ask for: the request is suppressed, the poll wasted
                    run.metrics.record_unused_grant(ie.grant_bytes)

        # Flows with no signalling path this frame: piggyback each on the data
        # sent, or else queue one contention request for the largest backlog.
        piggyback_ok = sent_data and not run.scenario.strict_paper
        best_cid = None
        best_backlog = 0
        for conn in self.conns:
            cid = conn.cid
            backlog = self.local_sched.backlog_bytes(cid)
            if conn.cls is SchedulingClass.ERTPS:
                # grant-size adjustment piggybacked on this frame's allocation
                run.bw.set_ertps_talking(cid, backlog > 0)
            elif conn.mode is RequestMode.UNSOLICITED or backlog == 0 or cid in polled:
                continue
            elif piggyback_ok:
                run.bw.on_request(BwRequest(cid, backlog))
            elif backlog > best_backlog:
                best_cid, best_backlog = cid, backlog
        if best_cid is None:
            return
        pending = self.contention.pending
        if pending is None:
            self.contention.pending = BwRequest(best_cid, best_backlog)
        elif pending.cid == best_cid:
            pending.bytes_requested = best_backlog
