import hashlib
from fractions import Fraction

import pytest

from pmpsim.engine import SimulationRun
from pmpsim.kernel import RandomSource, Simulator
from pmpsim.qos import SchedulingClass
from pmpsim.scenario import FlowSpec, Scenario, build_literal_scenario, build_paper_scenario
from pmpsim.traffic import Emitter


def collect(kind_dict, duration_us, seed=1):
    spec = FlowSpec.from_dict(dict(kind_dict), "flows[0]")
    sim = Simulator(seed)
    out = []
    Emitter(spec, 1, sim.rng.traffic, duration_us, sim.schedule,
            lambda cid, size: out.append((sim.now, size)))
    sim.run_until(duration_us)
    return out


def test_voice_one_packet_per_frame_deterministic():
    out = collect({"kind": "voice", "src": 1, "dst": 2}, 1_000_000)
    assert len(out) == 80  # one per 12.5 ms
    assert all(size == 100 for _, size in out)
    assert [t for t, _ in out] == [i * 12_500 for i in range(80)]


def test_voip_silence_suppresses_some_frames():
    out = collect({"kind": "voip_silence", "src": 1, "dst": 2}, 60_000_000, seed=7)
    frames = 60_000_000 // 12_500
    # duty cycle 1.2/(1.2+1.8) = 0.4; loose band, tight enough to prove on/off
    assert 0.15 * frames < len(out) < 0.75 * frames
    assert all(size == 100 for _, size in out)


def test_voip_emissions_cluster_in_talk_phases():
    out = collect({"kind": "voip_silence", "src": 1, "dst": 2}, 60_000_000, seed=3)
    gaps = [b - a for (a, _), (b, _) in zip(out, out[1:])]
    # silence phases appear as gaps far longer than the 12.5 ms packet period
    assert max(gaps) > 10 * 12_500
    assert min(gaps) == 12_500


def test_video_mean_frame_size_within_5_percent():
    spec = FlowSpec.from_dict({"kind": "video", "src": 1, "dst": 2}, "flows[0]")
    sim = Simulator(11)
    sizes = []
    Emitter(spec, 1, sim.rng.traffic, 400_000_000, sim.schedule,
            lambda cid, size: sizes.append((sim.now, size)))
    sim.run_until(400_000_000)  # 10^4 video frames at 40 ms
    frames = {}
    for t, size in sizes:
        frames[t] = frames.get(t, 0) + size
    assert len(frames) == 10_000
    mean = sum(frames.values()) / len(frames)
    assert abs(mean - 6_000) / 6_000 < 0.05
    assert max(frames.values()) <= 20_000
    assert all(s <= 1500 for _, s in sizes)  # MTU-sized SDUs


def test_ftp_offered_rate_exact():
    out = collect({"kind": "ftp", "src": 1, "dst": 2}, 30_000_000)
    total_bits = sum(s for _, s in out) * 8
    rate = total_bits / 30.0
    assert abs(rate - 2_000_000) / 2_000_000 < 0.01
    assert all(s == 1500 for _, s in out)


def test_http_bursts_bounded_and_mtu_split():
    out = collect({"kind": "http", "src": 1, "dst": 2}, 120_000_000, seed=5)
    pages = {}
    for t, size in out:
        pages[t] = pages.get(t, 0) + size
    assert pages, "expected at least one page in 120 s"
    assert max(pages.values()) <= 500_000
    assert all(s <= 1500 for _, s in out)


def test_sources_deterministic_for_seed():
    a = collect({"kind": "http", "src": 1, "dst": 2}, 60_000_000, seed=9)
    b = collect({"kind": "http", "src": 1, "dst": 2}, 60_000_000, seed=9)
    assert a == b


def test_start_stop_window_respected():
    out = collect({"kind": "ftp", "src": 1, "dst": 2,
                   "start_us": 1_000_000, "stop_us": 2_000_000}, 10_000_000)
    assert out
    assert all(1_000_000 <= t < 2_000_000 for t, _ in out)


# ------------------------------------------------------- built-in scenarios

def test_paper_scenario_shape():
    sc = build_paper_scenario()
    assert sc.station_count == 5
    assert len(sc.flows) == 5
    assert sc.frame.frame_duration_us == 12_500
    assert sc.frame.ttg_us == 106 and sc.frame.rtg_us == 60
    assert sc.frame.channel_bandwidth_hz == 20_000_000
    matrix = {(f.kind, f.src, f.dst) for f in sc.flows}
    assert matrix == {("ftp", 1, 2), ("video", 2, 3), ("http", 3, 4),
                      ("voip_silence", 5, 4), ("voice", 4, 1)}


def test_paper_scenario_class_pairing():
    by_kind = {f.kind: f.cls for f in build_paper_scenario().flows}
    assert by_kind == {"voice": SchedulingClass.UGS,
                       "video": SchedulingClass.RTPS,
                       "voip_silence": SchedulingClass.ERTPS,
                       "ftp": SchedulingClass.NRTPS,
                       "http": SchedulingClass.BE}


def test_literal_variant_sources_from_ss4():
    sc = build_literal_scenario()
    voip = [f for f in sc.flows if f.kind == "voip_silence"][0]
    voice = [f for f in sc.flows if f.kind == "voice"][0]
    assert voip.src == 4 and voice.src == 4


# ------------------------------------------------- emissions beyond defaults

# (time, cid, size) emission lists of flows with non-default parameters,
# pinned by SHA-256: every draw must stay at the same event, in the same order.
# Each case is one cell, so the flows of a case share one traffic stream.
EMISSION_CASES = {
    "voice-window": [{"kind": "voice", "src": 1, "dst": 2, "start_us": 250_000,
                      "stop_us": 1_700_000, "packet_bytes": 200, "rate_bps": 96_000}],
    # many talk/silence flips inside one 12.5 ms packet period
    "voip-fast-phases": [{"kind": "voip_silence", "src": 1, "dst": 2, "start_us": 7,
                          "talk_mean_us": 200, "silence_mean_us": 300}],
    "voip-ms-phases": [{"kind": "voip_silence", "src": 2, "dst": 1, "talk_mean_us": 4_000,
                        "silence_mean_us": 3_000, "stop_us": 2_500_000}],
    "video-sigma-0": [{"kind": "video", "src": 1, "dst": 2, "sigma": 0.0, "mtu_bytes": 700,
                       "frame_interval_us": 33_333, "mean_frame_bytes": 5_000}],
    "video-sigma-3": [{"kind": "video", "src": 1, "dst": 2, "sigma": 3.0, "mtu_bytes": 1_000,
                       "max_frame_bytes": 50_000, "start_us": 40_001, "stop_us": 2_900_000}],
    "ftp-window": [{"kind": "ftp", "src": 1, "dst": 2, "start_us": 123_457,
                    "stop_us": 2_000_001, "rate_bps": 777_777, "packet_bytes": 999,
                    "mtu_bytes": 1_000}],
    "http-slow-pace": [{"kind": "http", "src": 1, "dst": 2, "page_pace_bps": 2_000_000,
                        "mtu_bytes": 1_200, "page_rate_per_s": 5.0,
                        "mean_page_bytes": 8_000, "start_us": 99}],
    "http-pace-floor": [{"kind": "http", "src": 1, "dst": 2, "page_pace_bps": 20_000_000_000,
                         "mtu_bytes": 500, "page_rate_per_s": 20.0, "pareto_alpha": 1.2,
                         "stop_us": 2_800_000}],
    "shared-stream": [{"kind": "http", "src": 1, "dst": 2, "start_us": 300_000},
                      {"kind": "voip_silence", "src": 2, "dst": 1, "start_us": 12_345},
                      {"kind": "video", "src": 1, "dst": 2}],
}
# (emissions, SHA-256 of their repr) per case
EMISSION_DIGESTS = {
    "ftp-window": (183, "a311ab5cc2abc216b310bfcff6fb2646f84099d13542e096af0660b2b5d5a952"),
    "http-pace-floor": (2316, "d06e6041273f05dd8c0757d365b14f14b41961deacb35436969e65ad524a1e59"),
    "http-slow-pace": (176, "394c785f5c9e03640fe4729eed5af5a474bc593ff2bc4a1d504b436f23ee0270"),
    "shared-stream": (739, "8866b4a51ad992b1cc3b87155f4db6946e87321bd52f8ca4ae3731912fc55a2b"),
    "video-sigma-0": (728, "61a7c86ca419eccede7b0d169fa440313b77084c5237c6861b969212b4ec5ff0"),
    "video-sigma-3": (148, "87710cdabdd5d7c9fbd24526bb3232c1b89632f0ffd91a870ab81d3a578cbcd8"),
    "voice-window": (87, "b607fd356992a2d3fbf4431c806bc3ed18168bc3d345ec7f9634f0122577249c"),
    "voip-fast-phases": (94, "e2f84c9d962578e8121dcf46fac8b08facdfc22bfb827cfef43e1ad67084d958"),
    "voip-ms-phases": (111, "89094a278b3489805106d23801759ea26f5d18b3b910707991c9a5c474451437"),
}


def emissions(flows, seed=1, duration_us=3_000_000):
    """Every SDU the flows emit in a cell, as (time, cid, size), in order."""
    sc = Scenario.from_dict({"stations": {"count": 2}, "flows": flows,
                             "run": {"seed": seed, "duration_us": duration_us}})
    run = SimulationRun(sc)
    out = []
    run.ingest = lambda cid, size: out.append((run.sim.now, cid, size))
    run.run()
    return out


@pytest.mark.parametrize("case", sorted(EMISSION_CASES))
def test_emissions_beyond_default_parameters_pinned(case):
    out = emissions(EMISSION_CASES[case])
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert (len(out), digest) == EMISSION_DIGESTS[case]
