"""Base station and subscriber station state machines.

The BS schedules the downlink and builds the uplink map each frame; every
SS consumes the grants addressed to it, answers polls, and contends for
bandwidth when it has no other way to ask. All SS-to-SS traffic relays
through the BS, so end-to-end delay spans uplink queueing, BS queueing,
and downlink scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bwreq import BwRequest
from .phy import Direction, GrantKind, IllegalMapError, MapIE, UlMap, validate_map
from .qos import Connection, RequestMode, SchedulingClass, requires_request
from .sched import PacketScheduler


@dataclass(slots=True)
class TransmissionRecord:
    frame_index: int
    direction: Direction
    cid: int
    nbytes: int
    start_us: int
    end_us: int


class BaseStation:
    def __init__(self, dl_scheduler: PacketScheduler):
        self.dl_sched = dl_scheduler
        self.conns: dict[int, Connection] = {}  # downlink connections by cid
        self.relay_map: dict[int, int] = {}     # uplink cid -> downlink cid

    def add_downlink(self, conn: Connection, ul_cid: int, weight: int, quantum: int) -> None:
        self.conns[conn.cid] = conn
        self.relay_map[ul_cid] = conn.cid
        self.dl_sched.add_queue(conn.cid, weight=weight, quantum=quantum)

    def frame_tick(self, run, n: int) -> UlMap:
        """Per-frame BS work: serve the downlink, then build the uplink map."""
        cfg = run.cfg
        _, dl_start, _, _ = cfg.frame_boundaries(n)
        dl_cap = cfg.subframe_capacity_bytes(Direction.DOWNLINK)
        map_bytes = -(-dl_cap * run.scenario.map_overhead_fraction.numerator
                      // run.scenario.map_overhead_fraction.denominator)
        cursor = map_bytes
        for dec in self.dl_sched.select(dl_cap - map_bytes):
            for sdu in dec.payloads:
                start_t = dl_start + cfg.tx_time_us(cursor)
                cursor += sdu.size_bytes
                end_t = dl_start + cfg.tx_time_us(cursor)
                run.deliver_downlink(sdu, n, start_t, end_t)
        ul_map = run.bw.build_ul_map(n, now=run.sim.now)
        violation = validate_map(ul_map, cfg)
        if violation is not None:
            raise IllegalMapError(f"frame {n}: illegal uplink map ({violation})")
        return ul_map

    def receive_uplink(self, run, sdu, n: int, arrival_us: int) -> None:
        """Hand an uplink SDU to the relay; it joins the downlink queue."""
        dl_cid = self.relay_map[sdu.cid]
        conn = self.conns[dl_cid]
        if self.dl_sched.pending(dl_cid) >= conn.queue_cap_packets:
            run.metrics.record_drop(sdu, "relay")
            return
        sdu.cid = dl_cid
        self.dl_sched.enqueue(dl_cid, sdu.id, sdu.size_bytes,
                              arrival=arrival_us, payload=sdu)


class SubscriberStation:
    def __init__(self, ss_id: int, local_scheduler: PacketScheduler, contention_state):
        self.ss_id = ss_id
        self.local_sched = local_scheduler
        self.contention = contention_state
        self.conns: dict[int, Connection] = {}  # uplink connections by cid

    def add_uplink(self, conn: Connection, weight: int, quantum: int) -> None:
        self.conns[conn.cid] = conn
        self.local_sched.add_queue(conn.cid, weight=weight, quantum=quantum)

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
        cfg = run.cfg
        mine = [ie for ie in ul_map.ies if ie.ss_id == self.ss_id]
        my_data = [ie for ie in mine if ie.kind is GrantKind.DATA]
        my_polls = [ie for ie in mine if ie.kind is GrantKind.POLL]

        sent_data = False
        for offset, length in self._merged_windows(my_data):
            cursor = offset
            served = 0
            for dec in self.local_sched.select(length):
                for sdu in dec.payloads:
                    start_t = ul_start + cfg.tx_time_us(cursor)
                    cursor += sdu.size_bytes
                    end_t = ul_start + cfg.tx_time_us(cursor)
                    served += sdu.size_bytes
                    sent_data = True
                    run.uplink_arrival(sdu, n, start_t, end_t)
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
        for cid in sorted(self.conns):
            cls = self.conns[cid].cls
            backlog = self.local_sched.backlog_bytes(cid)
            if cls is SchedulingClass.ERTPS:
                # grant-size adjustment piggybacked on this frame's allocation
                run.bw.set_ertps_talking(cid, backlog > 0)
                continue
            if requires_request(cls) is RequestMode.UNSOLICITED or backlog == 0:
                continue
            if piggyback_ok and cid not in polled:
                run.bw.on_request(BwRequest(cid, backlog))

        self._maybe_contend(run, piggyback_ok, polled)

    def _maybe_contend(self, run, piggyback_ok: bool, polled: set[int]) -> None:
        """Queue a contention request for flows with no signalling path this frame."""
        if piggyback_ok:
            return
        best_cid = None
        best_backlog = 0
        for cid in sorted(self.conns):
            if requires_request(self.conns[cid].cls) is RequestMode.UNSOLICITED or cid in polled:
                continue
            backlog = self.local_sched.backlog_bytes(cid)
            if backlog > best_backlog:
                best_cid, best_backlog = cid, backlog
        if best_cid is None:
            return
        if self.contention.pending is not None:
            if self.contention.pending.cid == best_cid:
                self.contention.pending.bytes_requested = best_backlog
            return
        self.contention.pending = BwRequest(best_cid, best_backlog)
