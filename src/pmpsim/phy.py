"""TDD frame geometry, per-frame byte budgets, and grant maps.

The frame is downlink subframe, TTG, uplink subframe, RTG, in that order,
tiling the timeline exactly. Capacity is an effective bit rate (channel
bandwidth x bits/symbol x coding rate x efficiency factor) applied to the
subframe durations; grants are denominated in bytes, not slots.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional


class Modulation(Enum):
    QAM64 = 6
    QAM16 = 4

    @property
    def bits_per_symbol(self) -> int:
        return self.value


class Direction(Enum):
    DOWNLINK = "downlink"
    UPLINK = "uplink"


class FrameConfig:
    """Frame geometry and PHY rate. Immutable: the cached properties below
    are computed once from the fields."""

    def __init__(self, frame_duration_us: int = 12_500, ttg_us: int = 106, rtg_us: int = 60,
                 dl_fraction: Fraction = Fraction(1, 2),
                 channel_bandwidth_hz: int = 20_000_000,
                 modulation: Modulation = Modulation.QAM64,
                 coding_rate: Fraction = Fraction(3, 4),
                 # pilot/guard/preamble overhead estimate; configuration, not ground truth
                 efficiency_factor: Fraction = Fraction(4, 5)):
        if ttg_us + rtg_us >= frame_duration_us:
            raise ValueError("ttg + rtg must be smaller than the frame duration")
        if not (0 < dl_fraction < 1):
            raise ValueError("dl_fraction must lie in (0, 1)")
        if channel_bandwidth_hz <= 0:
            raise ValueError("channel bandwidth must be positive")
        self.__dict__.update(
            frame_duration_us=frame_duration_us, ttg_us=ttg_us, rtg_us=rtg_us,
            dl_fraction=dl_fraction, channel_bandwidth_hz=channel_bandwidth_hz,
            modulation=modulation, coding_rate=coding_rate,
            efficiency_factor=efficiency_factor)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"FrameConfig is immutable; cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"FrameConfig is immutable; cannot delete {name}")

    @cached_property
    def usable_us(self) -> int:
        return self.frame_duration_us - self.ttg_us - self.rtg_us

    @cached_property
    def dl_subframe_us(self) -> int:
        return int(self.usable_us * self.dl_fraction)

    @cached_property
    def ul_subframe_us(self) -> int:
        return self.usable_us - self.dl_subframe_us

    @cached_property
    def bit_rate(self) -> int:
        return int(self.channel_bandwidth_hz * self.modulation.bits_per_symbol
                   * self.coding_rate * self.efficiency_factor)

    def subframe_capacity_bytes(self, direction: Direction) -> int:
        dur = self.dl_subframe_us if direction is Direction.DOWNLINK else self.ul_subframe_us
        return (self.bit_rate * dur) // 8_000_000

    def frame_boundaries(self, frame_index: int) -> tuple[int, int, int, int]:
        """(frame_start, dl_start, ul_start, frame_end) for frame n."""
        start = frame_index * self.frame_duration_us
        dl_start = start
        ul_start = dl_start + self.dl_subframe_us + self.ttg_us
        return start, dl_start, ul_start, start + self.frame_duration_us

    def tx_time_us(self, nbytes: int) -> int:
        """Serialization time of nbytes at the effective bit rate, rounded up."""
        return -(-nbytes * 8_000_000 // self.bit_rate)


class GrantKind(Enum):
    DATA = "data-grant"
    POLL = "unicast-poll"


class MapIE:
    __slots__ = ("cid", "ss_id", "offset_bytes", "grant_bytes", "kind")

    def __init__(self, cid: int, ss_id: int, offset_bytes: int, grant_bytes: int,
                 kind: GrantKind):
        self.cid = cid
        self.ss_id = ss_id
        self.offset_bytes = offset_bytes
        self.grant_bytes = grant_bytes
        self.kind = kind


class UlMap:
    def __init__(self, frame_index: int, ies: Optional[list[MapIE]] = None,
                 contention_offset: int = 0, contention_bytes: int = 0):
        self.frame_index = frame_index
        self.ies = [] if ies is None else ies
        self.contention_offset = contention_offset
        self.contention_bytes = contention_bytes


class IllegalMapError(RuntimeError):
    """An uplink map overlaps itself or exceeds the uplink subframe."""


def validate_map(ul_map: UlMap, cfg: FrameConfig) -> Optional[str]:
    """None if the map is legal, else the name of the first violated constraint."""
    capacity = cfg.subframe_capacity_bytes(Direction.UPLINK)
    regions = [(ie.offset_bytes, ie.offset_bytes + ie.grant_bytes) for ie in ul_map.ies]
    if ul_map.contention_bytes:
        regions.append((ul_map.contention_offset,
                        ul_map.contention_offset + ul_map.contention_bytes))
    regions.sort()
    for (_, prev_end), (start, _) in zip(regions, regions[1:]):
        if start < prev_end:
            return "overlap"
    total = sum(ie.grant_bytes for ie in ul_map.ies) + ul_map.contention_bytes
    if total > capacity:
        return "capacity"
    if regions and regions[-1][1] > capacity:
        return "capacity"
    return None
