"""Queue-service disciplines: WFQ, DWRR, WRR, and FIFO.

All four share one contract: packets are enqueued per connection, and
select(budget) returns the packets to transmit this frame, never exceeding
the budget and never splitting a packet. Scheduler state (virtual time,
deficits, rotation pointer) persists across frames.

The four are two selection loops. WFQ and FIFO serve the backlogged head
with the smallest tag, a finish tag or an arrival time, from a heap of
heads. DWRR and WRR visit the queues in rotation and spend a per-visit
credit, in bytes or in packets. Neither loop scans every queue per packet.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from typing import Any

SCHEDULER_NAMES = ("wfq", "dwrr", "wrr", "fifo")


class QueuedPacket:
    __slots__ = ("pid", "size", "tag", "payload")

    def __init__(self, pid: int, size: int, tag: Any = 0, payload: Any = None):
        self.pid = pid
        self.size = size
        self.tag = tag  # service key of the min-tag loop; the rotation loop ignores it
        self.payload = payload


class ServiceDecision:
    """A maximal consecutive run of packets served from one queue."""

    def __init__(self, cid: int, bytes: int, packet_ids: list[int], payloads: list[Any]):
        self.cid = cid
        self.bytes = bytes
        self.packet_ids = packet_ids
        self.payloads = payloads


class SchedulableQueue:
    __slots__ = ("cid", "weight", "quantum", "packets", "deficit",
                 "last_finish_tag", "visit_open", "backlog_bytes")

    def __init__(self, cid: int, weight: int = 1, quantum: int = 1):
        if weight < 1:
            raise ValueError("weight must be >= 1")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.cid = cid
        self.weight = weight
        self.quantum = quantum
        self.packets: deque[QueuedPacket] = deque()
        self.deficit = 0          # rotation credit left, in bytes or packets
        self.last_finish_tag = 0
        self.visit_open = False   # current rotation visit already credited
        self.backlog_bytes = 0


class PacketScheduler:
    """Shared queue bookkeeping; subclasses implement select()."""

    def __init__(self):
        self.queues: dict[int, SchedulableQueue] = {}
        self._order: list[SchedulableQueue] = []  # ascending cid, the round-robin visit order

    def add_queue(self, cid: int, weight: int = 1, quantum: int = 1) -> SchedulableQueue:
        if cid in self.queues:
            raise ValueError(f"queue for cid {cid} already exists")
        q = SchedulableQueue(cid, weight, quantum)
        self.queues[cid] = q
        bisect.insort(self._order, q, key=lambda x: x.cid)
        return q

    def enqueue(self, cid: int, pid: int, size: int, arrival: int = 0,
                payload: Any = None) -> None:
        if size < 1:
            raise ValueError("packet size must be >= 1")
        q = self.queues[cid]
        q.packets.append(QueuedPacket(pid, size, arrival, payload))
        q.backlog_bytes += size

    def trim_tail(self, cid: int, target_bytes: int) -> None:
        """Shrink a queue from the tail until its backlog is target_bytes.

        Used for aggregate-request shrinkage; a trimmed-empty queue loses
        its deficit and visit state like a served-empty one.
        """
        q = self.queues[cid]
        while q.backlog_bytes > target_bytes:
            tail = q.packets[-1]
            excess = q.backlog_bytes - target_bytes
            if tail.size > excess:
                tail.size -= excess
                q.backlog_bytes -= excess
            else:
                q.packets.pop()
                q.backlog_bytes -= tail.size
        if not q.packets:
            q.deficit = 0
            q.visit_open = False

    def pending(self, cid: int) -> int:
        return len(self.queues[cid].packets)

    def backlog_bytes(self, cid: int) -> int:
        return self.queues[cid].backlog_bytes

    def select(self, budget: int) -> list[ServiceDecision]:
        raise NotImplementedError

    @staticmethod
    def _emit(decisions: list[ServiceDecision], cid: int, pkt: QueuedPacket) -> None:
        if decisions and decisions[-1].cid == cid:
            d = decisions[-1]
            d.bytes += pkt.size
            d.packet_ids.append(pkt.pid)
            d.payloads.append(pkt.payload)
        else:
            decisions.append(ServiceDecision(cid, pkt.size, [pkt.pid], [pkt.payload]))


class MinTagScheduler(PacketScheduler):
    """Serves the backlogged head with the smallest tag; ties go to the lower cid.

    A heap holds (tag, cid, seq, packet) per queue head; seq is unique, so
    comparisons never reach the packet. An entry whose packet is no longer
    its queue's head (after trim_tail) is dropped when it surfaces. A head
    larger than the budget left ends selection (no fragmentation). Serving
    a packet advances virtual_time to its tag.
    """

    def __init__(self):
        super().__init__()
        self.virtual_time = 0
        self._heads: list[tuple[Any, int, int, QueuedPacket]] = []
        self._seq = 0

    def tag(self, queue: SchedulableQueue, size: int, arrival: int) -> Any:
        """Service key of a new packet: its arrival time."""
        return arrival

    def enqueue(self, cid: int, pid: int, size: int, arrival: int = 0,
                payload: Any = None) -> None:
        if size < 1:
            raise ValueError("packet size must be >= 1")
        q = self.queues[cid]
        pkt = QueuedPacket(pid, size, self.tag(q, size, arrival), payload)
        q.packets.append(pkt)
        q.backlog_bytes += size
        if len(q.packets) == 1:  # a new head
            heapq.heappush(self._heads, (pkt.tag, cid, self._seq, pkt))
            self._seq += 1

    def select(self, budget: int) -> list[ServiceDecision]:
        decisions: list[ServiceDecision] = []
        remaining = budget
        heads, queues = self._heads, self.queues
        vt = self.virtual_time
        while heads:
            tag, cid, _, pkt = heads[0]
            q = queues[cid]
            if not q.packets or q.packets[0] is not pkt:
                heapq.heappop(heads)  # trimmed away
                continue
            if pkt.size > remaining:
                break
            q.packets.popleft()
            q.backlog_bytes -= pkt.size
            remaining -= pkt.size
            if tag > vt:
                vt = tag
            self._emit(decisions, cid, pkt)
            if q.packets:
                head = q.packets[0]
                heapq.heapreplace(heads, (head.tag, cid, self._seq, head))
                self._seq += 1
            else:
                heapq.heappop(heads)
        self.virtual_time = vt
        return decisions


class WfqScheduler(MinTagScheduler):
    """Weighted fair queueing via virtual-time finish tags.

    Tags are assigned at enqueue: tag = max(V, last_finish_tag) + size/weight.
    Service picks the minimum-tag head packet; the virtual clock advances to
    the tag of each served packet (self-clocked rule). So over any
    backlogged window each flow's byte share tends to weight_i / sum(weights).

    Tags are exact integers in units of 1/tag_scale, the lcm of the queue
    weights. Every queue is added before the first packet is enqueued, and
    add_queue raises ValueError after it, so no tag is ever given out under a
    scale that a later weight would change.
    """

    def __init__(self):
        super().__init__()
        self.tag_scale = 1

    def add_queue(self, cid: int, weight: int = 1, quantum: int = 1) -> SchedulableQueue:
        if self._seq:
            raise ValueError(f"queue for cid {cid} added after the first packet")
        q = super().add_queue(cid, weight, quantum)
        self.tag_scale = math.lcm(self.tag_scale, weight)
        return q

    def finish_tag(self, queue: SchedulableQueue, size: int, arrival: int = 0) -> int:
        vt, last = self.virtual_time, queue.last_finish_tag
        tag = (last if last > vt else vt) + size * (self.tag_scale // queue.weight)
        queue.last_finish_tag = tag
        return tag

    tag = finish_tag  # the service key; arrival plays no part


class FifoScheduler(MinTagScheduler):
    """Global arrival order across all queues; ties broken by cid ascending."""


class RotationScheduler(PacketScheduler):
    """Round robin in cid order with a per-visit credit.

    Each rotation visit credits the queue once, then serves head packets
    while the credit covers their cost and the frame budget covers their
    size. A head the credit does not cover ends the visit, and the credit
    left carries to the next one. A head larger than the remaining budget
    suspends the visit without re-crediting it next frame, which keeps the
    credit below one visit's credit plus the largest cost at every frame
    boundary. Serving a queue empty resets its credit.
    """

    byte_credit = True  # credit quantum bytes, cost = size; else weight packets, cost 1

    def __init__(self):
        super().__init__()
        self._pointer = 0

    def select(self, budget: int) -> list[ServiceDecision]:
        decisions: list[ServiceDecision] = []
        remaining = budget
        order = self._order
        n = len(order)
        if n == 0:
            return decisions
        by_bytes = self.byte_credit
        ptr = self._pointer % n
        # Selection ends after n consecutive slots with nothing servable:
        # nothing is served in between, so that is every queue, and the lap
        # ends on the slot where it started.
        skipped = 0
        while skipped < n:
            q = order[ptr]
            if not q.packets or q.packets[0].size > remaining:
                ptr = (ptr + 1) % n
                skipped += 1
                continue
            skipped = 0
            resumed = q.visit_open
            if not q.visit_open:
                q.deficit += q.quantum if by_bytes else q.weight
                q.visit_open = True
            budget_blocked = False
            while q.packets:
                pkt = q.packets[0]
                cost = pkt.size if by_bytes else 1
                if cost > q.deficit:
                    break
                if pkt.size > remaining:
                    budget_blocked = True
                    break
                q.packets.popleft()
                q.backlog_bytes -= pkt.size
                q.deficit -= cost
                remaining -= pkt.size
                self._emit(decisions, q.cid, pkt)
            if not q.packets:
                q.deficit = 0
            if budget_blocked:
                # the visit stays open: the queue keeps its credit and is not
                # re-credited when the rotation returns to it
                ptr = (ptr + 1) % n
            else:
                q.visit_open = False
                if not resumed:
                    ptr = (ptr + 1) % n
                # a completed resumed visit does not consume the rotation
                # slot: the queue takes its fresh credited visit next, so
                # every pass nets exactly one credit per backlogged queue
        self._pointer = ptr
        return decisions


class DwrrScheduler(RotationScheduler):
    """Deficit round robin: a visit credits the queue's quantum in bytes and
    each packet costs its size, so the deficit stays below quantum + max
    packet size at every frame boundary.
    """


class WrrScheduler(RotationScheduler):
    """Weighted round robin: up to weight_i packets per visit, size-blind.

    A visit credits weight packets and each packet costs 1. Such a visit
    ends only with its credit spent or its queue empty, so no credit
    carries to the next visit.
    """

    byte_credit = False


def make_scheduler(name: str) -> PacketScheduler:
    try:
        cls = {"wfq": WfqScheduler, "dwrr": DwrrScheduler,
               "wrr": WrrScheduler, "fifo": FifoScheduler}[name]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; choose from {SCHEDULER_NAMES}")
    return cls()
