"""Base station and subscriber station state machines.

The BS schedules the downlink and builds the uplink map each frame; every
SS consumes the grants addressed to it, answers polls, and contends for
bandwidth when it has no other way to ask. All SS-to-SS traffic relays
through the BS, so end-to-end delay spans uplink queueing, BS queueing,
and downlink scheduling.
"""

from __future__ import annotations

from .bwreq import BwRequest
from .metrics import MetricsCollector
from .phy import Direction, FrameConfig, GrantKind, IllegalMapError, UlMap, validate_map
from .qos import Connection, MacSdu, RequestMode, SchedulingClass
from .sched import PacketScheduler, SchedulableQueue


class TransmissionRecord:
    __slots__ = ("frame_index", "direction", "cid", "nbytes", "start_us", "end_us")

    def __init__(self, frame_index: int, direction: Direction, cid: int, nbytes: int,
                 start_us: int, end_us: int):
        self.frame_index = frame_index
        self.direction = direction
        self.cid = cid
        self.nbytes = nbytes
        self.start_us = start_us
        self.end_us = end_us


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
                 metrics: MetricsCollector):
        self.dl_sched = dl_scheduler  # the relay queues, one per flow, keyed by its cid
        # its record_* methods are looked up at each call, so a wrapper set on
        # the collector after the run is built sees every record
        self.metrics = metrics
        self._relay: dict[int, tuple[SchedulableQueue, int]] = {}  # cid -> (queue, packet cap)
        # the DL map opens the downlink subframe; the relay data fills the rest
        self.dl_data_bytes = cfg.subframe_capacity_bytes(Direction.DOWNLINK) - cfg.dl_map_bytes

    def add_downlink(self, conn: Connection) -> None:
        queue = self.dl_sched.add_queue(conn.cid, weight=conn.weight, quantum=conn.quantum)
        self._relay[conn.cid] = (queue, conn.queue_cap_packets)

    def frame_tick(self, run, n: int) -> UlMap:
        """Per-frame BS work at the frame start: serve the downlink, then build
        the uplink map."""
        cfg, now = run.cfg, run.sim.now
        transmit(run, self.dl_sched, n, Direction.DOWNLINK, now, cfg.dl_map_bytes,
                 self.dl_data_bytes, self.metrics.record_delivery)
        ul_map = run.bw.build_ul_map(n, now=now)
        violation = validate_map(ul_map, cfg)
        if violation is not None:
            raise IllegalMapError(f"frame {n}: illegal uplink map ({violation})")
        return ul_map

    def receive_uplink(self, sdu: MacSdu, t: int) -> None:
        """An uplink SDU reaches the BS at t; it joins its flow's relay queue."""
        self.metrics.record_bs_ingress(sdu, t)
        queue, cap = self._relay[sdu.cid]
        if len(queue.packets) >= cap:
            self.metrics.record_drop(sdu, "relay")
            return
        self.dl_sched.enqueue(sdu.cid, sdu.id, sdu.size_bytes, arrival=t, payload=sdu)


class SubscriberStation:
    def __init__(self, ss_id: int, local_scheduler: PacketScheduler, contention_state):
        self.ss_id = ss_id
        self.local_sched = local_scheduler
        self.contention = contention_state
        self.conns: list[Connection] = []  # the flows it sources, in cid order

    def add_uplink(self, conn: Connection) -> SchedulableQueue:
        """Source the flow of `conn` here; returns its queue. Flows come in
        ascending cid order, which BandwidthManager.register_flow enforces."""
        self.conns.append(conn)
        return self.local_sched.add_queue(conn.cid, weight=conn.weight, quantum=conn.quantum)

    def on_map(self, run, ul_map: UlMap, n: int, ul_start: int) -> None:
        ss_id = self.ss_id
        # build_ul_map lists a station's DATA IEs back to back, ahead of its
        # polls: one data window from the offset of the first
        mine = [ie for ie in ul_map.ies if ie.ss_id == ss_id]
        sent_data = False
        polled = []
        if mine:
            length = 0
            polls = []
            for ie in mine:
                if ie.kind is GrantKind.POLL:
                    polls.append(ie)
                else:
                    length += ie.grant_bytes
            if len(polls) < len(mine):
                served = transmit(run, self.local_sched, n, Direction.UPLINK, ul_start,
                                  mine[0].offset_bytes, length, run.bs.receive_uplink)
                sent_data = served > 0
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
