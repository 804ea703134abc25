"""Connection-oriented QoS model: connections and service classes.

Every data packet belongs to exactly one connection (CID); each connection
carries the scheduling class of its flow. The five scheduling classes differ
in how they obtain uplink bandwidth.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional


class SchedulingClass(Enum):
    UGS = "UGS"
    RTPS = "rtPS"
    ERTPS = "ertPS"
    NRTPS = "nrtPS"
    BE = "BE"


class RequestMode(Enum):
    POLL = "poll"
    CONTENTION = "contention"
    UNSOLICITED = "unsolicited"


def requires_request(cls: SchedulingClass) -> RequestMode:
    """How a class obtains uplink bandwidth.

    UGS and ertPS receive unsolicited grants; rtPS and nrtPS are polled
    (nrtPS at a much longer interval, and it may also contend); BE relies
    on contention.
    """
    if cls in (SchedulingClass.UGS, SchedulingClass.ERTPS):
        return RequestMode.UNSOLICITED
    if cls in (SchedulingClass.RTPS, SchedulingClass.NRTPS):
        return RequestMode.POLL
    return RequestMode.CONTENTION


class MacSdu:
    __slots__ = ("id", "cid", "size_bytes", "created_at", "delivered_at")

    def __init__(self, id: int, cid: int, size_bytes: int, created_at: int):
        self.id = id
        self.cid = cid  # the flow's connection, on both hops
        self.size_bytes = size_bytes
        self.created_at = created_at
        self.delivered_at: Optional[int] = None


def talk_grant_bytes(grant_interval_us: int, rate_bps: int, packet_bytes: int) -> int:
    """Unsolicited grant of a talking flow: one interval at the flow's rate,
    and at least one packet."""
    return max(-(-grant_interval_us * rate_bps // 8_000_000), packet_bytes)


class Connection:
    """One flow's MAC record, shared by its source station, the BS relay and
    the grant table: each keys its queue for the flow by `cid`. `rate_bps`
    and `packet_bytes` only size `talk_grant_bytes`."""

    def __init__(self, cid: int, cls: SchedulingClass, src: int, dst: int,
                 queue_cap_packets: int = 100, weight: int = 1, quantum: int = 1518,
                 grant_interval_us: int = 12_500, chunk_bytes: int = 1500,
                 rate_bps: int = 0, packet_bytes: int = 1500):
        if not (0 <= cid < 2**16):
            raise ValueError("cid must fit in 16 bits")
        self.cid = cid
        self.cls = cls
        self.src = src  # station id, 0 = BS
        self.dst = dst
        self.queue_cap_packets = queue_cap_packets  # at the source station and at the relay, each
        self.weight = weight
        self.quantum = quantum
        self.grant_interval_us = grant_interval_us
        self.chunk_bytes = chunk_bytes  # MTU: a bandwidth request is queued in chunks of this size
        self.mode = requires_request(cls)
        self.talk_grant_bytes = talk_grant_bytes(grant_interval_us, rate_bps, packet_bytes)
