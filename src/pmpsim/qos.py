"""Connection-oriented QoS model: connections and service classes.

Every data packet belongs to exactly one connection (CID); each connection
carries the scheduling class of its flow. The five scheduling classes differ
in how they obtain uplink bandwidth.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
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


@dataclass
class MacSdu:
    id: int
    cid: int  # the flow's connection, on both hops
    size_bytes: int
    created_at: int
    delivered_at: Optional[int] = None


@dataclass
class Connection:
    """One flow's MAC record, shared by its source station, the BS relay and
    the grant table: each keys its queue for the flow by `cid`."""

    cid: int
    cls: SchedulingClass
    src: int  # station id, 0 = BS
    dst: int
    queue_cap_packets: int = 100  # at the source station and at the relay, each
    weight: int = 1
    quantum: int = 1518
    grant_interval_us: int = 12_500
    chunk_bytes: int = 1500  # MTU: a bandwidth request is queued in chunks of this size
    rate_bps: InitVar[int] = 0
    packet_bytes: InitVar[int] = 1500
    mode: RequestMode = field(init=False)
    # unsolicited grant of a talking flow: one interval at the flow's rate,
    # and at least one packet
    talk_grant_bytes: int = field(init=False)

    def __post_init__(self, rate_bps: int, packet_bytes: int):
        if not (0 <= self.cid < 2**16):
            raise ValueError("cid must fit in 16 bits")
        self.mode = requires_request(self.cls)
        self.talk_grant_bytes = max(-(-self.grant_interval_us * rate_bps // 8_000_000),
                                    packet_bytes)

