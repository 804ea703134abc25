"""Connection-oriented QoS model: connections and service classes.

Every data packet belongs to exactly one connection (CID); each connection
carries the scheduling class of its flow. The five scheduling classes differ
in how they obtain uplink bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    cid: int            # connection currently carrying the SDU
    flow_cid: int       # originating uplink connection, stable across the relay
    size_bytes: int
    created_at: int
    delivered_at: Optional[int] = None


@dataclass
class Connection:
    cid: int
    cls: SchedulingClass
    src: int  # station id, 0 = BS
    dst: int
    queue_cap_packets: int = 100

    def __post_init__(self):
        if not (0 <= self.cid < 2**16):
            raise ValueError("cid must fit in 16 bits")

