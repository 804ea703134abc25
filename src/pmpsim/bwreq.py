"""Bandwidth request and grant machinery on the BS side.

UGS and ertPS flows receive unsolicited periodic grants; rtPS and nrtPS
are polled; nrtPS and BE may contend in the contention region, resolved
by slotted exponential backoff. Outstanding requests are aggregate: a new
request replaces the previous figure for that connection. The per-frame
uplink map allocates capacity in priority order: unsolicited grants,
unicast polls, data grants picked by the configured scheduler, and the
residue becomes the contention window.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .kernel import RandomSource
from .phy import Direction, FrameConfig, GrantKind, MapIE, UlMap
from .qos import Connection, RequestMode, SchedulingClass
from .sched import PacketScheduler


class OversubscribedUgsError(RuntimeError):
    """Fixed unsolicited grants alone exceed the uplink capacity."""


@dataclass
class BwRequest:
    cid: int
    bytes_requested: int


@dataclass
class ContentionState:
    ss_id: int
    min_window: int = 8
    max_window: int = 1024
    window: int = 8
    pending: Optional[BwRequest] = None
    backoff_remaining: Optional[int] = None  # None = not yet drawn


class BandwidthManager:
    """Aggregates requests and builds the per-frame uplink map.

    `flows` is the grant table, each flow's connection by cid. The poll and
    unsolicited schedules hold the next due time per connection.
    Outstanding request bytes are the grant scheduler's backlog. Flows are
    registered in ascending cid order, so every table iterates in cid order.
    """

    def __init__(self, cfg: FrameConfig, scheduler: PacketScheduler, *,
                 request_bytes: int = 8, min_contention_slots: int = 4):
        self.cfg = cfg
        self.scheduler = scheduler
        self.request_bytes = request_bytes
        self.min_contention_slots = min_contention_slots
        self.capacity = cfg.subframe_capacity_bytes(Direction.UPLINK)
        self.flows: dict[int, Connection] = {}
        self.poll_next: dict[int, int] = {}
        self.unsolicited_next: dict[int, int] = {}
        self.unsolicited_size: dict[int, int] = {}
        self._chunk_pid = 0

    def register_flow(self, conn: Connection) -> None:
        cid, last = conn.cid, next(reversed(self.flows), -1)
        if cid <= last:
            raise ValueError(f"cid {cid} registered after cid {last}; "
                             f"flows must come in ascending cid order")
        self.flows[cid] = conn
        if conn.mode is RequestMode.UNSOLICITED:
            self.unsolicited_next[cid] = 0
            self.unsolicited_size[cid] = conn.talk_grant_bytes
        else:
            if conn.mode is RequestMode.POLL:
                self.poll_next[cid] = 0
            self.scheduler.add_queue(cid, weight=conn.weight, quantum=conn.quantum)

    # ------------------------------------------------------------- requests

    def on_request(self, req: BwRequest) -> None:
        """Aggregate semantics: the new figure replaces the old one.

        The grant queue is adjusted by the difference only, so unchanged
        head-of-line request chunks keep their scheduler position.
        """
        conn = self.flows[req.cid]
        if conn.mode is RequestMode.UNSOLICITED:
            raise ValueError(f"cid {req.cid} holds unsolicited grants, requests are invalid")
        current = self.scheduler.backlog_bytes(req.cid)
        if req.bytes_requested < current:
            self.scheduler.trim_tail(req.cid, req.bytes_requested)
        else:
            left = req.bytes_requested - current
            while left > 0:
                size = min(left, conn.chunk_bytes)
                self.scheduler.enqueue(req.cid, self._chunk_pid, size)
                self._chunk_pid += 1
                left -= size

    def set_ertps_talking(self, cid: int, talking: bool) -> None:
        """ertPS grant-size adjustment; takes effect from the next frame.

        A silent flow keeps only the minimal request-carrying allocation.
        """
        conn = self.flows[cid]
        if conn.cls is not SchedulingClass.ERTPS:
            raise ValueError("only ertPS grants are adjustable")
        self.unsolicited_size[cid] = conn.talk_grant_bytes if talking else self.request_bytes

    # --------------------------------------------------------------- grants

    def issue_unsolicited(self, now: int) -> list[tuple[int, int]]:
        grants = []
        for cid in self.unsolicited_next:
            while self.unsolicited_next[cid] <= now:
                grants.append((cid, self.unsolicited_size[cid]))
                self.unsolicited_next[cid] += self.flows[cid].grant_interval_us
        return grants

    def poll_flows(self, now: int) -> list[int]:
        due = []
        for cid in self.poll_next:
            if self.poll_next[cid] <= now:
                while self.poll_next[cid] <= now:
                    self.poll_next[cid] += self.flows[cid].grant_interval_us
                due.append(cid)
        return due

    def build_ul_map(self, frame_index: int, now: int) -> UlMap:
        capacity = self.capacity
        unsolicited = self.issue_unsolicited(now)
        unsol_total = sum(b for _, b in unsolicited)
        if unsol_total > capacity:
            raise OversubscribedUgsError(
                f"unsolicited grants need {unsol_total} B but uplink capacity is {capacity} B")

        polls = []
        polls_total = 0
        for cid in self.poll_flows(now):
            if unsol_total + polls_total + self.request_bytes <= capacity:
                polls.append(cid)
                polls_total += self.request_bytes

        floor = self.min_contention_slots * self.request_bytes
        data_budget = max(0, capacity - unsol_total - polls_total - floor)
        granted: dict[int, int] = {}
        for dec in self.scheduler.select(data_budget):
            granted[dec.cid] = granted.get(dec.cid, 0) + dec.bytes
        data_total = sum(granted.values())

        contention_bytes = capacity - unsol_total - polls_total - data_total
        slots = contention_bytes // self.request_bytes

        # Stations in ss_id order, each with its unsolicited, data and poll grants
        # in cid order: the lists are in cid order already, and the sort is stable.
        flows, rb = self.flows, self.request_bytes
        grants = [(flows[cid].src, cid, nbytes, GrantKind.DATA) for cid, nbytes in unsolicited]
        grants += [(flows[cid].src, cid, granted[cid], GrantKind.DATA) for cid in sorted(granted)]
        grants += [(flows[cid].src, cid, rb, GrantKind.POLL) for cid in polls]
        grants.sort(key=itemgetter(0))
        ies = []
        cursor = 0
        for ss_id, cid, nbytes, kind in grants:
            ies.append(MapIE(cid, ss_id, cursor, nbytes, kind))
            cursor += nbytes
        return UlMap(frame_index, ies, cursor, slots * rb)

    # ----------------------------------------------------------- contention

    @staticmethod
    def run_contention(states: list[ContentionState], contention_slots: int,
                       rng: RandomSource) -> tuple[list[tuple[int, BwRequest]], list[int]]:
        """One frame of slotted contention.

        `states` must be in ss_id order: backoffs are drawn from `rng` in that
        order, so it fixes every draw. Returns (delivered, collided):
        delivered pairs each request with the slot it succeeded in; collided
        lists the cids whose windows doubled.
        """
        if contention_slots < 1:
            return [], []
        transmitters: dict[int, list[ContentionState]] = {}
        for st in states:
            if st.pending is None:
                continue
            if st.backoff_remaining is None:
                st.backoff_remaining = rng.draw_uniform(st.window)
            if st.backoff_remaining < contention_slots:
                transmitters.setdefault(st.backoff_remaining, []).append(st)
            else:
                st.backoff_remaining -= contention_slots
        delivered: list[tuple[int, BwRequest]] = []
        collided: list[int] = []
        for slot in sorted(transmitters):
            group = transmitters[slot]
            if len(group) == 1:
                st = group[0]
                delivered.append((slot, st.pending))
                st.pending = None
                st.window = st.min_window
                st.backoff_remaining = None
            else:
                for st in group:
                    collided.append(st.pending.cid)
                    st.window = min(st.window * 2, st.max_window)
                    st.backoff_remaining = rng.draw_uniform(st.window)
        return delivered, collided
