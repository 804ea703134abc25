"""Scenario files: the user-facing description of one simulated cell.

A scenario is a key-value tree with sections frame, stations, schedulers,
contention, flows, and run. Unknown keys are hard errors so typos cannot
silently change an experiment. Rationals may be written as "3/4".

Every key is one row of FIELDS, which drives parsing, dumping and the range
checks. Checks that span several keys live in Scenario.validate.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from operator import attrgetter
from typing import Any

from .phy import Direction, FrameConfig, Modulation
from .qos import RequestMode, SchedulingClass, requires_request, talk_grant_bytes
from .sched import SCHEDULER_NAMES

TRAFFIC_KINDS = ("ftp", "video", "http", "voip_silence", "voice")
CBR_KINDS = ("voice", "voip_silence", "ftp")  # constant-rate kinds: rate_bps, packet_bytes

# every integer key; larger values would overflow the float draws of the sources
INT_MAX = 2**53
# flow i has cid 2i+1, its flow_XXXXX number, and a cid has 16 bits
MAX_FLOWS = 2**15 - 1


class ScenarioError(Exception):
    """Scenario parse or validation failure (exit code 1 territory)."""


# ------------------------------------------------------------------ parsers
# parser(value, path, bound) -> parsed value, or ScenarioError naming path

def _fraction(value: Any, path: str, bound) -> Fraction:
    """A rational; bound, such as "[0, 1)" or "(0, 1]", is the interval it must lie in."""
    try:
        x = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError):
        raise ScenarioError(f"{path}: cannot parse {value!r} as a rational")
    if bound is None:
        return x
    low, high = (Fraction(end) for end in bound[1:-1].split(","))
    above = low <= x if bound[0] == "[" else low < x
    below = x < high if bound[-1] == ")" else x <= high
    if not (above and below):
        raise ScenarioError(f"{path}: must lie in {bound}")
    return x


def _int(value: Any, path: str, minimum: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ScenarioError(f"{path}: must be >= {minimum}, got {value}")
    if value > INT_MAX:
        raise ScenarioError(f"{path}: must be <= {INT_MAX}, got {value}")
    return value


def _int_or_none(value: Any, path: str, minimum: int):
    return None if value is None else _int(value, path, minimum)


def _float(value: Any, path: str, bound) -> float:
    """A finite number; bound (minimum, strict, maximum) asks for
    minimum <= x, or minimum < x when strict, and x <= maximum unless None."""
    minimum, strict, maximum = bound
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = None
    if x is None or isinstance(value, bool):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    if not math.isfinite(x) or x < minimum or (strict and x == minimum):
        raise ScenarioError(
            f"{path}: must be a finite number {'>' if strict else '>='} {minimum}, got {value!r}")
    if maximum is not None and x > maximum:
        raise ScenarioError(f"{path}: must be a finite number <= {maximum}, got {value!r}")
    return x


def _str(value: Any, path: str, bound) -> str:
    return str(value)


def _name(value: Any, path: str, bound) -> str:
    """The scenario name, which every CSV row carries in its first column."""
    name = str(value)
    if any(c in name for c in ",\r\n"):
        raise ScenarioError(f"{path}: must not contain a comma or a line break, got {name!r}")
    return name


def _bool(value: Any, path: str, bound) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}: must be a boolean")
    return value


def _modulation(value: Any, path: str, bound) -> Modulation:
    try:
        return {"qam64": Modulation.QAM64, "qam16": Modulation.QAM16}[str(value).lower()]
    except KeyError:
        raise ScenarioError(f"{path}: expected qam64 or qam16, got {value!r}")


def _class(value: Any, path: str, bound) -> SchedulingClass:
    try:
        return SchedulingClass(value)
    except ValueError:
        raise ScenarioError(f"{path}: unknown class {value!r}")


# How a parsed value is written back; other values are written as they are.
_DUMP = {Fraction: str, Modulation: lambda m: m.name.lower(),
         SchedulingClass: lambda c: c.value}

REQUIRED = object()  # default of a flow key that every flow must give

_VIDEO, _HTTP, _VOIP = ("video",), ("http",), ("voip_silence",)
_UGS, _ERTPS, _RTPS, _NRTPS, _BE = (SchedulingClass.UGS, SchedulingClass.ERTPS,
                                    SchedulingClass.RTPS, SchedulingClass.NRTPS,
                                    SchedulingClass.BE)

# One row per key, in dump order: (section, key, attribute, parser, default,
# bound, kinds, optional); rows may leave off kinds (None) and optional (False).
# - section "" is the top level of the file.
# - attribute is a path from the Scenario, or from the FlowSpec in "flows";
#   "frame.coding_rate" lands in the frame's FrameConfig.
# - default is the value of a missing key. A dict default depends on the
#   flow: it is keyed by kind, else by the class, whose row comes first. The
#   flow name defaults to "<kind>-ss<src>-ss<dst>".
# - bound is passed to the parser: a minimum for _int, (minimum, strict,
#   maximum) for _float, an interval such as "[0, 1)" for _fraction.
# - kinds lists the flow kinds that take the key (None: every kind). Other
#   kinds keep the default, which is what a class override then uses.
# - an optional key is written only when its value differs from the default.
FIELDS = tuple(row + (None, False)[len(row) - 6:] for row in (
    ("", "name", "name", _name, "unnamed", None),
    ("frame", "frame_duration_us", "frame.frame_duration_us", _int, 12_500, 1),
    ("frame", "ttg_us", "frame.ttg_us", _int, 106, 0),
    ("frame", "rtg_us", "frame.rtg_us", _int, 60, 0),
    # dl_fraction in (0, 1) and ttg + rtg < frame duration: FrameConfig checks
    ("frame", "dl_fraction", "frame.dl_fraction", _fraction, Fraction(1, 2), None),
    ("frame", "channel_bandwidth_hz", "frame.channel_bandwidth_hz", _int, 20_000_000, 1),
    ("frame", "modulation", "frame.modulation", _modulation, Modulation.QAM64, None),
    ("frame", "coding_rate", "frame.coding_rate", _fraction, Fraction(3, 4), "(0, 1]"),
    ("frame", "efficiency_factor", "frame.efficiency_factor", _fraction, Fraction(4, 5),
     "(0, 1]"),
    ("frame", "map_overhead_fraction", "map_overhead_fraction", _fraction, Fraction(1, 50),
     "[0, 1)"),
    ("stations", "count", "station_count", _int, 5, 1),
    ("schedulers", "bs", "scheduler_bs", _str, "wfq", None),
    ("schedulers", "ss", "scheduler_ss", _str, "wfq", None),
    ("schedulers", "base_quantum_bytes", "base_quantum_bytes", _int, 1518, 1),
    ("contention", "min_window", "contention.min_window", _int, 8, 1),
    ("contention", "max_window", "contention.max_window", _int, 1024, 1),
    ("contention", "request_bytes", "contention.request_bytes", _int, 8, 1),
    ("contention", "min_slots", "contention.min_slots", _int, 4, 1),
    ("flows", "name", "name", _str, None, None),
    ("flows", "kind", "kind", _str, REQUIRED, None),  # one of TRAFFIC_KINDS
    ("flows", "src", "src", _int, REQUIRED, 1),
    ("flows", "dst", "dst", _int, REQUIRED, 1),
    ("flows", "class", "cls", _class,
     {"voice": _UGS, "video": _RTPS, "voip_silence": _ERTPS, "ftp": _NRTPS, "http": _BE}, None),
    ("flows", "weight", "weight", _int, {_UGS: 8, _ERTPS: 8, _RTPS: 6, _NRTPS: 2, _BE: 1}, 1),
    ("flows", "queue_packets", "queue_packets", _int, 100, 1),
    ("flows", "mtu_bytes", "mtu_bytes", _int, 1500, 1),
    # rtPS polled every frame; nrtPS polled infrequently
    ("flows", "grant_interval_us", "grant_interval_us", _int,
     {_UGS: 12_500, _ERTPS: 12_500, _RTPS: 12_500, _NRTPS: 1_000_000, _BE: 1_000_000}, 1),
    ("flows", "start_us", "start_us", _int, 0, 0, None, True),
    ("flows", "stop_us", "stop_us", _int_or_none, None, 1, None, True),
    ("flows", "rate_bps", "rate_bps", _int,
     {"voice": 64_000, "voip_silence": 64_000, "ftp": 2_000_000, "video": 0, "http": 0},
     1, CBR_KINDS),
    ("flows", "packet_bytes", "packet_bytes", _int,
     {"voice": 100, "voip_silence": 100, "ftp": 1500, "video": 1500, "http": 1500},
     1, CBR_KINDS),
    ("flows", "talk_mean_us", "talk_mean_us", _int, 1_200_000, 1, _VOIP),
    ("flows", "silence_mean_us", "silence_mean_us", _int, 1_800_000, 1, _VOIP),
    ("flows", "frame_interval_us", "frame_interval_us", _int, 40_000, 1, _VIDEO),
    ("flows", "mean_frame_bytes", "mean_frame_bytes", _int, 6_000, 1, _VIDEO),
    ("flows", "max_frame_bytes", "max_frame_bytes", _int, 20_000, 1, _VIDEO),
    # lognormal shape of the frame sizes; past 10 the sizes are all 1 B
    ("flows", "sigma", "sigma", _float, 0.5, (0, False, 10), _VIDEO),
    # at least one page per 11.6 days keeps the mean page gap finite
    ("flows", "page_rate_per_s", "page_rate_per_s", _float, 1.0, (1e-6, False, None), _HTTP),
    ("flows", "mean_page_bytes", "mean_page_bytes", _int, 30_000, 1, _HTTP),
    ("flows", "max_page_bytes", "max_page_bytes", _int, 500_000, 1, _HTTP),
    # alpha <= 1 has no finite mean to scale the page sizes by
    ("flows", "pareto_alpha", "pareto_alpha", _float, 1.5, (1, True, None), _HTTP),
    # source pacing of a page burst
    ("flows", "page_pace_bps", "page_pace_bps", _int, 8_000_000, 1, _HTTP),
    ("run", "seed", "seed", _int, 1, 0),
    ("run", "duration_us", "duration_us", _int, 60_000_000, 1),
    ("run", "bucket_us", "bucket_us", _int, 1_000_000, 1),
    ("run", "strict_paper", "strict_paper", _bool, False, None),
))

_SECTIONS: dict[str, list[tuple]] = {}  # section -> its rows, in table order
for _row in FIELDS:
    _SECTIONS.setdefault(_row[0], []).append(_row)
_KEYS = {section: {row[1] for row in rows} for section, rows in _SECTIONS.items()}
_KEYS["scenario"] = _KEYS.pop("") | (set(_SECTIONS) - {""})
_FLOW_KEYS = {kind: {row[1] for row in _SECTIONS["flows"] if row[6] is None or kind in row[6]}
              for kind in TRAFFIC_KINDS}


def _check_keys(d: Any, allowed: set[str], path: str) -> None:
    if not isinstance(d, dict):
        raise ScenarioError(f"{path}: must be a mapping")
    for key in d:
        if key not in allowed:
            raise ScenarioError(f"unknown key {path}.{key!r}")


def _parse(rows: list[tuple], d: dict, path: str, kind: str = "") -> dict[str, Any]:
    """Attribute to value for each row, walked in table order: parsed from
    mapping d, else the default, which for a flow may depend on its kind or
    on the class parsed before it."""
    values: dict[str, Any] = {}
    for _, key, attribute, parse, default, bound, _, _ in rows:
        if key in d:
            values[attribute] = parse(d[key], f"{path}.{key}" if path else key, bound)
        elif default is REQUIRED:
            raise ScenarioError(f"{path}: flow needs src and dst station ids")
        elif type(default) is dict:
            values[attribute] = default[kind] if kind in default else default[values["cls"]]
        else:
            values[attribute] = default
    return values


def _dump_rows(obj: Any, rows: list[tuple], kind: str = "") -> dict[str, Any]:
    """Key to written value for each row that kind takes."""
    d = {}
    for _, key, attribute, _, default, _, kinds, optional in rows:
        value = attrgetter(attribute)(obj)
        if (kinds is None or kind in kinds) and not (optional and value == default):
            dump = _DUMP.get(type(value))
            d[key] = value if dump is None else dump(value)
    return d


class Section:
    """An object whose attributes are rows of FIELDS, such as the contention
    section."""

    def __init__(self, **attributes):
        self.__dict__.update(attributes)


# class of the object named by the first part of a dotted attribute path
_PARTS = {"frame": FrameConfig, "contention": Section}


def _attributes(values: dict[str, Any]) -> dict[str, Any]:
    """Attribute paths to values, with each object on a path built once from
    all its values, so a frozen part's own checks see the finished set."""
    direct: dict[str, Any] = {}
    parts: dict[str, dict[str, Any]] = {}
    for attribute, value in values.items():
        head, _, rest = attribute.partition(".")
        if rest:
            parts.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in parts.items():
        try:
            direct[head] = _PARTS[head](**sub)
        except ValueError as e:
            raise ScenarioError(f"{head}: {e}")
    return direct


class FlowSpec(Section):
    """One flow entry: traffic generator parameters plus QoS provisioning."""

    @classmethod
    def from_dict(cls, d: Any, path: str) -> "FlowSpec":
        if not isinstance(d, dict):
            raise ScenarioError(f"{path}: flow entry must be a mapping")
        kind = d.get("kind")
        if kind not in TRAFFIC_KINDS:
            raise ScenarioError(f"{path}.kind: expected one of {TRAFFIC_KINDS}, got {kind!r}")
        _check_keys(d, _FLOW_KEYS[kind], path)
        spec = cls.__new__(cls)
        spec.__dict__ = _parse(_SECTIONS["flows"], d, path, kind)  # a fresh dict: no copy needed
        if spec.name is None:
            spec.name = f"{kind}-ss{spec.src}-ss{spec.dst}"
        return spec

    def to_dict(self) -> dict:
        return _dump_rows(self, _SECTIONS["flows"], self.kind)

    def packet_period_us(self) -> int:
        """Gap between the packets of a constant-rate voice source."""
        return round(self.packet_bytes * 8_000_000 / self.rate_bps)


class Scenario:
    """A whole cell: every attribute named in FIELDS, plus the flow list."""

    def __init__(self):
        self.__dict__.update(_attributes(_parse([row for row in FIELDS if row[0] != "flows"],
                                                {}, "")))
        self.flows: list[FlowSpec] = []

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
        c = self.contention
        if c.min_window > c.max_window:
            raise ScenarioError("contention: min_window must not exceed max_window")
        if c.min_window & (c.min_window - 1):
            raise ScenarioError("contention.min_window: must be a power of two")
        ratio = c.max_window // c.min_window
        if c.max_window != c.min_window * ratio or ratio & (ratio - 1):
            raise ScenarioError("contention.max_window: must be min_window times a power of two")
        if len(self.flows) > MAX_FLOWS:
            raise ScenarioError(
                f"flows: at most {MAX_FLOWS} flows fit 16-bit connection ids, "
                f"got {len(self.flows)}")
        seen = set()
        # every frame's unsolicited grants must fit the uplink: a flow granted
        # every grant_interval_us gets at most ceil(frame / interval) grants in
        # one frame, and a silent ertPS flow keeps a request-sized grant
        capacity = self.frame.subframe_capacity_bytes(Direction.UPLINK)
        unsolicited = 0
        for i, f in enumerate(self.flows):
            path = f"flows[{i}]"
            for station, label in ((f.src, "src"), (f.dst, "dst")):
                if not (1 <= station <= self.station_count):
                    raise ScenarioError(
                        f"{path}.{label}: station {station} not in 1..{self.station_count}")
            if f.src == f.dst:
                raise ScenarioError(f"{path}: src and dst must differ")
            key = (f.src, f.dst, f.kind)
            if key in seen:
                raise ScenarioError(f"{path}: duplicate flow for (src, dst, kind) {key}")
            seen.add(key)
            if f.stop_us is not None and f.stop_us <= f.start_us:
                raise ScenarioError(
                    f"{path}.stop_us: must be after start_us ({f.start_us}), got {f.stop_us}")
            if f.kind in CBR_KINDS and f.mtu_bytes < f.packet_bytes:
                raise ScenarioError(f"{path}: packet_bytes must not exceed mtu_bytes")
            if f.kind in ("voice", "voip_silence") and f.packet_period_us() < 1:
                raise ScenarioError(
                    f"{path}: packet_bytes at rate_bps leaves under 1 us between packets")
            if f.mean_page_bytes > f.max_page_bytes:
                raise ScenarioError(f"{path}: mean_page_bytes must not exceed max_page_bytes")
            if requires_request(f.cls) is RequestMode.UNSOLICITED:
                grant = talk_grant_bytes(f.grant_interval_us, f.rate_bps, f.packet_bytes)
                if f.cls is SchedulingClass.ERTPS:
                    grant = max(grant, self.contention.request_bytes)
                unsolicited += grant * -(-self.frame.frame_duration_us // f.grant_interval_us)
                if unsolicited > capacity:
                    raise ScenarioError(
                        f"{path}: unsolicited grants need up to {unsolicited} B a frame "
                        f"but uplink capacity is {capacity} B")

    # ----------------------------------------------------------------- I/O

    @classmethod
    def from_dict(cls, d: Any) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError("scenario root must be a mapping")
        _check_keys(d, _KEYS["scenario"], "scenario")
        values = {}
        for section, rows in _SECTIONS.items():
            if section != "flows":
                sub = (d.get(section, {}) or {}) if section else d
                if section:
                    _check_keys(sub, _KEYS[section], section)
                values.update(_parse(rows, sub, section))
        flows = d.get("flows", []) or []
        if not isinstance(flows, list):
            raise ScenarioError("flows: must be a list")
        sc = cls()
        sc.__dict__.update(_attributes(values))
        sc.flows = [FlowSpec.from_dict(f, f"flows[{i}]") for i, f in enumerate(flows)]
        sc.validate()
        return sc

    def to_dict(self) -> dict:
        d = _dump_rows(self, _SECTIONS[""])
        for section, rows in _SECTIONS.items():
            if section == "flows":
                d[section] = [f.to_dict() for f in self.flows]
            elif section:
                d[section] = _dump_rows(self, rows)
        return d

    def to_yaml(self) -> str:
        import yaml
        return yaml.safe_dump(self.to_dict(), sort_keys=False, default_flow_style=False)

    def copy(self) -> "Scenario":
        return copy.deepcopy(self)


def load_scenario(path_or_name: str) -> Scenario:
    """Load a scenario file, or a built-in by name (e.g. "paper-pmp")."""
    from . import traffic  # built-ins live with the generators

    builtin = traffic.builtin_scenarios()
    if path_or_name in builtin:
        return builtin[path_or_name]()
    import yaml  # only files need it, so the built-ins load without PyYAML
    # libyaml's parser where PyYAML is built with it; both feed the same Python
    # SafeConstructor, so the parsed values are identical
    loader = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    try:
        with open(path_or_name) as fh:
            raw = yaml.load(fh, Loader=loader)
    except FileNotFoundError:
        raise ScenarioError(
            f"no scenario file {path_or_name!r} and no built-in of that name "
            f"(built-ins: {', '.join(sorted(builtin))})")
    except (OSError, UnicodeDecodeError) as e:
        raise ScenarioError(f"{path_or_name}: cannot read: {e}")
    except yaml.YAMLError as e:
        raise ScenarioError(f"{path_or_name}: YAML parse error: {e}")
    if raw is None:
        raise ScenarioError(f"{path_or_name}: empty scenario file")
    return Scenario.from_dict(raw)
