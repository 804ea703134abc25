"""Scenario files: the user-facing description of one simulated cell.

A scenario is a key-value tree with sections frame, stations, schedulers,
contention, flows, and run. Unknown keys are hard errors so typos cannot
silently change an experiment. Rationals may be written as "3/4".
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional

import yaml

from .phy import FrameConfig, Modulation, PhyProfile
from .qos import SchedulingClass
from .sched import SCHEDULER_NAMES

TRAFFIC_KINDS = ("ftp", "video", "http", "voip_silence", "voice")

DEFAULT_CLASS_BY_KIND = {
    "voice": SchedulingClass.UGS,
    "video": SchedulingClass.RTPS,
    "voip_silence": SchedulingClass.ERTPS,
    "ftp": SchedulingClass.NRTPS,
    "http": SchedulingClass.BE,
}

DEFAULT_WEIGHT_BY_CLASS = {
    SchedulingClass.UGS: 8,
    SchedulingClass.ERTPS: 8,
    SchedulingClass.RTPS: 6,
    SchedulingClass.NRTPS: 2,
    SchedulingClass.BE: 1,
}

# rtPS polled every frame; nrtPS polled infrequently
DEFAULT_GRANT_INTERVAL_BY_CLASS = {
    SchedulingClass.UGS: 12_500,
    SchedulingClass.ERTPS: 12_500,
    SchedulingClass.RTPS: 12_500,
    SchedulingClass.NRTPS: 1_000_000,
    SchedulingClass.BE: 1_000_000,
}


class ScenarioError(Exception):
    """Scenario parse or validation failure (exit code 1 territory)."""


def _fraction(value: Any, path: str) -> Fraction:
    try:
        if isinstance(value, float):
            return Fraction(str(value))
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ScenarioError(f"{path}: cannot parse {value!r} as a rational")


def _int(value: Any, path: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _float(value: Any, path: str, minimum: float, strict: bool = False) -> float:
    """A finite number >= minimum, or > minimum when strict."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = None
    if x is None or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(x) or x < minimum or (strict and x == minimum):
        raise ScenarioError(
            f"{path}: must be a finite number {'>' if strict else '>='} {minimum}, got {value!r}")
    return x


def _check_keys(d: Any, allowed: set[str], path: str) -> None:
    if not isinstance(d, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    for key in d:
        if key not in allowed:
            raise ScenarioError(f"unknown key {path}.{key!r}")


@dataclass
class FlowSpec:
    """One flow entry: traffic generator parameters plus QoS provisioning."""
    kind: str
    src: int
    dst: int
    name: str = ""
    cls: SchedulingClass = SchedulingClass.BE
    weight: int = 1
    queue_packets: int = 100
    mtu_bytes: int = 1500
    grant_interval_us: int = 12_500
    start_us: int = 0
    stop_us: Optional[int] = None
    # constant-rate kinds (voice, voip_silence, ftp)
    rate_bps: int = 0
    packet_bytes: int = 1500
    # voip_silence
    talk_mean_us: int = 1_200_000
    silence_mean_us: int = 1_800_000
    # video
    frame_interval_us: int = 40_000
    mean_frame_bytes: int = 6_000
    max_frame_bytes: int = 20_000
    sigma: float = 0.5
    # http
    page_rate_per_s: float = 1.0
    mean_page_bytes: int = 30_000
    max_page_bytes: int = 500_000
    pareto_alpha: float = 1.5
    page_pace_bps: int = 8_000_000  # source pacing of a page burst

    _COMMON = {"kind", "src", "dst", "name", "class", "weight", "queue_packets",
               "mtu_bytes", "grant_interval_us", "start_us", "stop_us"}
    _BY_KIND = {
        "voice": {"rate_bps", "packet_bytes"},
        "voip_silence": {"rate_bps", "packet_bytes", "talk_mean_us", "silence_mean_us"},
        "video": {"frame_interval_us", "mean_frame_bytes", "max_frame_bytes", "sigma"},
        "ftp": {"rate_bps", "packet_bytes"},
        "http": {"page_rate_per_s", "mean_page_bytes", "max_page_bytes",
                 "pareto_alpha", "page_pace_bps"},
    }

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "FlowSpec":
        if not isinstance(d, dict):
            raise ScenarioError(f"{path}: flow entry must be a mapping")
        kind = d.get("kind")
        if kind not in TRAFFIC_KINDS:
            raise ScenarioError(f"{path}.kind: expected one of {TRAFFIC_KINDS}, got {kind!r}")
        _check_keys(d, cls._COMMON | cls._BY_KIND[kind], path)
        if "src" not in d or "dst" not in d:
            raise ScenarioError(f"{path}: flow needs src and dst station ids")
        sclass = DEFAULT_CLASS_BY_KIND[kind]
        if "class" in d:
            try:
                sclass = SchedulingClass(d["class"])
            except ValueError:
                raise ScenarioError(f"{path}.class: unknown class {d['class']!r}")
        spec = cls(kind=kind, src=_int(d["src"], f"{path}.src", 1),
                   dst=_int(d["dst"], f"{path}.dst", 1), cls=sclass)
        if kind in ("voice", "voip_silence"):
            spec.rate_bps = 64_000
            spec.packet_bytes = 100
        elif kind == "ftp":
            spec.rate_bps = 2_000_000
            spec.packet_bytes = 1500
        spec.weight = DEFAULT_WEIGHT_BY_CLASS[sclass]
        spec.grant_interval_us = DEFAULT_GRANT_INTERVAL_BY_CLASS[sclass]
        for key in ("weight", "queue_packets", "mtu_bytes", "grant_interval_us",
                    "start_us", "rate_bps", "packet_bytes", "talk_mean_us",
                    "silence_mean_us", "frame_interval_us", "mean_frame_bytes",
                    "max_frame_bytes", "mean_page_bytes", "max_page_bytes",
                    "page_pace_bps"):
            if key in d:
                setattr(spec, key, _int(d[key], f"{path}.{key}", 1))
        if "stop_us" in d and d["stop_us"] is not None:
            spec.stop_us = _int(d["stop_us"], f"{path}.stop_us", 1)
        if "sigma" in d:
            spec.sigma = _float(d["sigma"], f"{path}.sigma", 0)
        if "page_rate_per_s" in d:
            spec.page_rate_per_s = _float(d["page_rate_per_s"], f"{path}.page_rate_per_s",
                                          0, strict=True)
        if "pareto_alpha" in d:
            # alpha <= 1 has no finite mean to scale the page sizes by
            spec.pareto_alpha = _float(d["pareto_alpha"], f"{path}.pareto_alpha",
                                       1, strict=True)
        spec.name = str(d.get("name", f"{kind}-ss{spec.src}-ss{spec.dst}"))
        if spec.src == spec.dst:
            raise ScenarioError(f"{path}: src and dst must differ")
        return spec

    def to_dict(self) -> dict:
        d = {"name": self.name, "kind": self.kind, "src": self.src, "dst": self.dst,
             "class": self.cls.value, "weight": self.weight,
             "queue_packets": self.queue_packets, "mtu_bytes": self.mtu_bytes,
             "grant_interval_us": self.grant_interval_us}
        if self.start_us:
            d["start_us"] = self.start_us
        if self.stop_us is not None:
            d["stop_us"] = self.stop_us
        if self.kind in ("voice", "voip_silence", "ftp"):
            d["rate_bps"] = self.rate_bps
            d["packet_bytes"] = self.packet_bytes
        if self.kind == "voip_silence":
            d["talk_mean_us"] = self.talk_mean_us
            d["silence_mean_us"] = self.silence_mean_us
        if self.kind == "video":
            d.update(frame_interval_us=self.frame_interval_us,
                     mean_frame_bytes=self.mean_frame_bytes,
                     max_frame_bytes=self.max_frame_bytes, sigma=self.sigma)
        if self.kind == "http":
            d.update(page_rate_per_s=self.page_rate_per_s,
                     mean_page_bytes=self.mean_page_bytes,
                     max_page_bytes=self.max_page_bytes,
                     pareto_alpha=self.pareto_alpha,
                     page_pace_bps=self.page_pace_bps)
        return d


@dataclass
class ContentionConfig:
    min_window: int = 8
    max_window: int = 1024
    request_bytes: int = 8
    min_slots: int = 4

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "ContentionConfig":
        _check_keys(d, {"min_window", "max_window", "request_bytes", "min_slots"}, path)
        c = cls()
        for key in ("min_window", "max_window", "request_bytes", "min_slots"):
            if key in d:
                setattr(c, key, _int(d[key], f"{path}.{key}", 1))
        if c.min_window > c.max_window:
            raise ScenarioError(f"{path}: min_window must not exceed max_window")
        if c.min_window & (c.min_window - 1):
            raise ScenarioError(f"{path}.min_window: must be a power of two")
        ratio = c.max_window // c.min_window
        if c.max_window != c.min_window * ratio or ratio & (ratio - 1):
            raise ScenarioError(
                f"{path}.max_window: must be min_window times a power of two")
        return c

    def to_dict(self) -> dict:
        return {"min_window": self.min_window, "max_window": self.max_window,
                "request_bytes": self.request_bytes, "min_slots": self.min_slots}


@dataclass
class Scenario:
    name: str = "unnamed"
    frame: FrameConfig = field(default_factory=FrameConfig)
    map_overhead_fraction: Fraction = Fraction(1, 50)
    station_count: int = 5
    scheduler_bs: str = "wfq"
    scheduler_ss: str = "wfq"
    base_quantum_bytes: int = 1518
    contention: ContentionConfig = field(default_factory=ContentionConfig)
    flows: list[FlowSpec] = field(default_factory=list)
    seed: int = 1
    duration_us: int = 60_000_000
    bucket_us: int = 1_000_000
    strict_paper: bool = False

    def validate(self) -> None:
        if self.scheduler_bs not in SCHEDULER_NAMES:
            raise ScenarioError(f"schedulers.bs: unknown scheduler {self.scheduler_bs!r}")
        if self.scheduler_ss not in SCHEDULER_NAMES:
            raise ScenarioError(f"schedulers.ss: unknown scheduler {self.scheduler_ss!r}")
        if self.station_count < 1:
            raise ScenarioError("stations.count: need at least one subscriber station")
        if self.duration_us < 10 * self.frame.frame_duration_us:
            raise ScenarioError(
                f"run.duration_us: must cover at least 10 frames "
                f"({10 * self.frame.frame_duration_us} us), got {self.duration_us}")
        if self.bucket_us < 1:
            raise ScenarioError("run.bucket_us: must be positive")
        seen = set()
        for i, f in enumerate(self.flows):
            path = f"flows[{i}]"
            for station, label in ((f.src, "src"), (f.dst, "dst")):
                if not (1 <= station <= self.station_count):
                    raise ScenarioError(
                        f"{path}.{label}: station {station} not in 1..{self.station_count}")
            key = (f.src, f.dst, f.kind)
            if key in seen:
                raise ScenarioError(f"{path}: duplicate flow for (src, dst, kind) {key}")
            seen.add(key)
            if f.mtu_bytes < f.packet_bytes and f.kind in ("voice", "voip_silence", "ftp"):
                raise ScenarioError(f"{path}: packet_bytes must not exceed mtu_bytes")

    # ----------------------------------------------------------------- I/O

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("scenario root must be a mapping")
        _check_keys(d, {"name", "frame", "stations", "schedulers", "contention",
                        "flows", "run"}, "scenario")
        sc = cls()
        sc.name = str(d.get("name", "unnamed"))

        frame = d.get("frame", {}) or {}
        _check_keys(frame, {"frame_duration_us", "ttg_us", "rtg_us", "dl_fraction",
                            "channel_bandwidth_hz", "modulation", "coding_rate",
                            "efficiency_factor", "map_overhead_fraction"}, "frame")
        mod = frame.get("modulation", "qam64")
        try:
            modulation = {"qam64": Modulation.QAM64, "qam16": Modulation.QAM16}[str(mod).lower()]
        except KeyError:
            raise ScenarioError(f"frame.modulation: expected qam64 or qam16, got {mod!r}")
        phy = PhyProfile(
            modulation=modulation,
            coding_rate=_fraction(frame.get("coding_rate", "3/4"), "frame.coding_rate"),
            efficiency_factor=_fraction(frame.get("efficiency_factor", "4/5"),
                                        "frame.efficiency_factor"))
        try:
            sc.frame = FrameConfig(
                frame_duration_us=_int(frame.get("frame_duration_us", 12_500),
                                       "frame.frame_duration_us", 1),
                ttg_us=_int(frame.get("ttg_us", 106), "frame.ttg_us", 0),
                rtg_us=_int(frame.get("rtg_us", 60), "frame.rtg_us", 0),
                dl_fraction=_fraction(frame.get("dl_fraction", "1/2"), "frame.dl_fraction"),
                channel_bandwidth_hz=_int(frame.get("channel_bandwidth_hz", 20_000_000),
                                          "frame.channel_bandwidth_hz", 1),
                phy=phy)
        except ValueError as e:
            raise ScenarioError(f"frame: {e}")
        sc.map_overhead_fraction = _fraction(frame.get("map_overhead_fraction", "1/50"),
                                             "frame.map_overhead_fraction")
        if not (0 <= sc.map_overhead_fraction < 1):
            raise ScenarioError("frame.map_overhead_fraction: must lie in [0, 1)")

        stations = d.get("stations", {}) or {}
        _check_keys(stations, {"count"}, "stations")
        sc.station_count = _int(stations.get("count", 5), "stations.count", 1)

        sched = d.get("schedulers", {}) or {}
        _check_keys(sched, {"bs", "ss", "base_quantum_bytes"}, "schedulers")
        sc.scheduler_bs = str(sched.get("bs", "wfq"))
        sc.scheduler_ss = str(sched.get("ss", "wfq"))
        if "base_quantum_bytes" in sched:
            sc.base_quantum_bytes = _int(sched["base_quantum_bytes"],
                                         "schedulers.base_quantum_bytes", 1)

        sc.contention = ContentionConfig.from_dict(d.get("contention", {}) or {}, "contention")

        flows = d.get("flows", []) or []
        if not isinstance(flows, list):
            raise ScenarioError("flows: must be a list")
        sc.flows = [FlowSpec.from_dict(f, f"flows[{i}]") for i, f in enumerate(flows)]

        run = d.get("run", {}) or {}
        _check_keys(run, {"seed", "duration_us", "bucket_us", "strict_paper"}, "run")
        sc.seed = _int(run.get("seed", 1), "run.seed", 0)
        sc.duration_us = _int(run.get("duration_us", 60_000_000), "run.duration_us", 1)
        sc.bucket_us = _int(run.get("bucket_us", 1_000_000), "run.bucket_us", 1)
        strict = run.get("strict_paper", False)
        if not isinstance(strict, bool):
            raise ScenarioError("run.strict_paper: must be a boolean")
        sc.strict_paper = strict

        sc.validate()
        return sc

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "frame": {
                "frame_duration_us": self.frame.frame_duration_us,
                "ttg_us": self.frame.ttg_us,
                "rtg_us": self.frame.rtg_us,
                "dl_fraction": str(self.frame.dl_fraction),
                "channel_bandwidth_hz": self.frame.channel_bandwidth_hz,
                "modulation": self.frame.phy.modulation.name.lower(),
                "coding_rate": str(self.frame.phy.coding_rate),
                "efficiency_factor": str(self.frame.phy.efficiency_factor),
                "map_overhead_fraction": str(self.map_overhead_fraction),
            },
            "stations": {"count": self.station_count},
            "schedulers": {"bs": self.scheduler_bs, "ss": self.scheduler_ss,
                           "base_quantum_bytes": self.base_quantum_bytes},
            "contention": self.contention.to_dict(),
            "flows": [f.to_dict() for f in self.flows],
            "run": {"seed": self.seed, "duration_us": self.duration_us,
                    "bucket_us": self.bucket_us, "strict_paper": self.strict_paper},
        }

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False, default_flow_style=False)

    def copy(self) -> "Scenario":
        return copy.deepcopy(self)


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file, or a built-in by name (e.g. "paper-pmp")."""
    from . import traffic  # built-ins live with the generators

    builtin = traffic.builtin_scenarios()
    if path_or_name in builtin:
        return builtin[path_or_name]()
    try:
        with open(path_or_name) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ScenarioError(
            f"no scenario file {path_or_name!r} and no built-in of that name "
            f"(built-ins: {', '.join(sorted(builtin))})")
    except yaml.YAMLError as e:
        raise ScenarioError(f"{path_or_name}: YAML parse error: {e}")
    if raw is None:
        raise ScenarioError(f"{path_or_name}: empty scenario file")
    return Scenario.from_dict(raw)
