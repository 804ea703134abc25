"""Discrete-event simulator of an IEEE 802.16 PMP cell.

One base station serves several fixed subscriber stations under TDD
framing; five QoS service classes obtain uplink bandwidth via unsolicited
grants, polling, or contention; the grant and transmit schedulers (WFQ,
DWRR, WRR, FIFO) are pluggable per scenario.
"""

from .engine import ConservationError, RunResult, SimulationRun, run_scenario
from .kernel import EventKind, RandomSource, SchedulingError, Simulator
from .phy import (Direction, FrameConfig, GrantKind, IllegalMapError, MapIE, Modulation,
                  UlMap, validate_map)
from .qos import Connection, MacSdu, RequestMode, SchedulingClass, requires_request
from .bwreq import BandwidthManager, BwRequest, ContentionState, OversubscribedUgsError
from .sched import (DwrrScheduler, FifoScheduler, PacketScheduler, SCHEDULER_NAMES,
                    ServiceDecision, WfqScheduler, WrrScheduler, make_scheduler)
from .scenario import (FlowSpec, Scenario, ScenarioError, build_literal_scenario,
                       build_paper_scenario, load_scenario)
from .stations import BaseStation, SubscriberStation, TransmissionRecord

__all__ = [name for name in dir() if not name.startswith("_")]
