"""Generator for the wide benchmark cell: about 120 subscriber stations, one
uplink flow each, offered uplink load near 90 % of uplink capacity.

Flow kinds cycle ftp, video, http, voip_silence, voice over the flow list, so
every kind has the same number of flows. The seed chooses which station
sources each flow and where each flow goes. The run seed written into the
file is fixed: traffic draws do not depend on which station carries a flow,
so every cell offers the same traffic flow by flow. Seeds then differ in
topology but not in offered load, which keeps the scheduler work comparable
from seed to seed.

Voice and VoIP keep their default 64 kbit/s; ftp rate, video frame size and
http page rate are scaled by one factor so that the expected offered uplink
load over the run is the target share of the uplink capacity. The
expectation counts the page every http source draws at time 0 and the talk
phase every VoIP source starts in, which matter over a short run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import yaml

KINDS = ("ftp", "video", "http", "voip_silence", "voice")
STATIONS = 120
TARGET_LOAD = Fraction(9, 10)
DL_FRACTION = Fraction(1, 2)
DURATION_US = 10_000_000
RUN_SEED = 1

# Defaults a flow gets from the scenario loader when the field is left out.
FTP_RATE_BPS = 2_000_000
VIDEO_MEAN_FRAME_BYTES = 6_000
VIDEO_FRAME_INTERVAL_US = 40_000
HTTP_PAGE_RATE = 1.0
HTTP_MEAN_PAGE_BYTES = 30_000
HTTP_MAX_PAGE_BYTES = 500_000
HTTP_PARETO_ALPHA = 1.5
VOICE_BPS = 64_000
VOIP_TALK_S = 1.2
VOIP_SILENCE_S = 1.8


def uplink_capacity_bps() -> float:
    """Uplink bit rate of the generated frame, as the simulator computes it."""
    from pmpsim.phy import Direction, FrameConfig

    cfg = FrameConfig(dl_fraction=DL_FRACTION)
    return cfg.subframe_capacity_bytes(Direction.UPLINK) * 8e6 / cfg.frame_duration_us


def _http_page_bytes() -> float:
    """Mean page size after the loader's Pareto scaling and truncation."""
    a, cap = HTTP_PARETO_ALPHA, HTTP_MAX_PAGE_BYTES
    xm = HTTP_MEAN_PAGE_BYTES * (a - 1) / a
    return xm * a / (a - 1) - xm ** a * cap ** (1 - a) / (a - 1)


def _voip_talk_share(duration_s: float) -> float:
    """Expected talking share of [0, duration] for a source that starts talking."""
    a, b = VOIP_TALK_S, VOIP_SILENCE_S
    rate = 1 / a + 1 / b
    return a / (a + b) + b / (a + b) * (1 - math.exp(-rate * duration_s)) / (rate * duration_s)


def offered_bps(kind: str, scale: float, duration_s: float) -> float:
    """Expected offered uplink bit rate of one flow of this kind over the run."""
    if kind == "ftp":
        return round(FTP_RATE_BPS * scale)
    if kind == "video":
        return round(VIDEO_MEAN_FRAME_BYTES * scale) * 8e6 / VIDEO_FRAME_INTERVAL_US
    if kind == "http":
        return (HTTP_PAGE_RATE * scale + 1 / duration_s) * _http_page_bytes() * 8
    if kind == "voip_silence":
        return VOICE_BPS * _voip_talk_share(duration_s)
    return VOICE_BPS


def load_scale(stations: int = STATIONS, duration_us: int = DURATION_US) -> float:
    """Factor on the scalable kinds that puts the offered load at the target."""
    kinds = [KINDS[i % len(KINDS)] for i in range(stations)]
    dur = duration_us / 1e6
    fixed = sum(offered_bps(k, 0.0, dur) for k in kinds)
    unit = sum(offered_bps(k, 1.0, dur) for k in kinds) - fixed
    return (float(TARGET_LOAD) * uplink_capacity_bps() - fixed) / unit


def _flow(kind: str, src: int, dst: int, scale: float) -> dict:
    flow = {"kind": kind, "src": src, "dst": dst}
    if kind == "ftp":
        flow["rate_bps"] = round(FTP_RATE_BPS * scale)
    elif kind == "video":
        flow["mean_frame_bytes"] = round(VIDEO_MEAN_FRAME_BYTES * scale)
    elif kind == "http":
        flow["page_rate_per_s"] = round(HTTP_PAGE_RATE * scale, 6)
    return flow


def build(seed: int, scheduler: str, stations: int = STATIONS,
          duration_us: int = DURATION_US) -> dict:
    """The scenario tree of the wide cell for this seed and scheduler."""
    rng = random.Random(seed)
    sources = list(range(1, stations + 1))
    rng.shuffle(sources)
    scale = load_scale(stations, duration_us)
    flows = []
    for i, src in enumerate(sources):
        dst = rng.randrange(1, stations)
        if dst >= src:
            dst += 1
        flows.append(_flow(KINDS[i % len(KINDS)], src, dst, scale))
    return {
        "name": f"wide-{stations}ss-seed{seed}",
        "frame": {"dl_fraction": str(DL_FRACTION)},
        "stations": {"count": stations},
        "schedulers": {"bs": scheduler, "ss": scheduler},
        "flows": flows,
        "run": {"seed": RUN_SEED, "duration_us": duration_us},
    }


def write(path: Path, seed: int, scheduler: str, **kw) -> Path:
    text = yaml.safe_dump(build(seed, scheduler, **kw), sort_keys=False,
                          default_flow_style=False)
    path.write_text(text)
    return path

