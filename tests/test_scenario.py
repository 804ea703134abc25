import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import pmpsim.scenario as scenario_module
from pmpsim import run_scenario
from pmpsim.qos import SchedulingClass
from pmpsim.scenario import (FIELDS, INT_MAX, TRAFFIC_KINDS, Scenario, ScenarioError,
                             load_scenario)
from pmpsim.sched import SCHEDULER_NAMES


def test_builtin_paper_pmp_by_name():
    sc = load_scenario("paper-pmp")
    assert sc.station_count == 5
    assert len(sc.flows) == 5
    assert sc.frame.frame_duration_us == 12_500


def test_builtin_literal_variant():
    sc = load_scenario("paper-pmp-literal")
    assert {f.src for f in sc.flows if f.kind in ("voice", "voip_silence")} == {4}


def test_missing_file_is_scenario_error():
    with pytest.raises(ScenarioError):
        load_scenario("/nonexistent/path.yaml")


def test_unknown_key_named_in_error(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "name": "x",
        "schedulers": {"bs": "wfq", "ss": "wfq", "quantumm": 5},
        "flows": [],
    }))
    with pytest.raises(ScenarioError, match="quantumm"):
        load_scenario(str(path))


def test_unknown_flow_key_named(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "flows": [{"kind": "ftp", "src": 1, "dst": 2, "weihgt": 3}],
    }))
    with pytest.raises(ScenarioError, match="weihgt"):
        load_scenario(str(path))


def test_duration_below_ten_frames_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "run": {"duration_us": 5 * 12_500},
        "flows": [{"kind": "ftp", "src": 1, "dst": 2}],
    }))
    with pytest.raises(ScenarioError, match="10 frames"):
        load_scenario(str(path))


def test_station_reference_out_of_range(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "stations": {"count": 2},
        "flows": [{"kind": "ftp", "src": 1, "dst": 7}],
    }))
    with pytest.raises(ScenarioError, match="station 7"):
        load_scenario(str(path))


def test_unknown_scheduler_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({"schedulers": {"bs": "edf"}}))
    with pytest.raises(ScenarioError, match="edf"):
        load_scenario(str(path))


def test_src_equals_dst_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "flows": [{"kind": "ftp", "src": 1, "dst": 1}]}))
    with pytest.raises(ScenarioError, match="differ"):
        load_scenario(str(path))


def test_unknown_traffic_kind_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "flows": [{"kind": "torrent", "src": 1, "dst": 2}]}))
    with pytest.raises(ScenarioError, match="torrent"):
        load_scenario(str(path))


def test_fraction_keys_accept_strings_and_floats(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "frame": {"dl_fraction": "3/4", "efficiency_factor": 0.8},
        "flows": [{"kind": "ftp", "src": 1, "dst": 2}]}))
    sc = load_scenario(str(path))
    assert sc.frame.dl_fraction == Fraction(3, 4)
    assert sc.frame.efficiency_factor == Fraction(4, 5)


def test_yaml_roundtrip_preserves_scenario():
    sc = load_scenario("paper-pmp")
    text = sc.to_yaml()
    again = Scenario.from_dict(yaml.safe_load(text))
    assert again.to_dict() == sc.to_dict()


def test_parse_error_reports_path(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("frame: [unclosed")
    with pytest.raises(ScenarioError, match="YAML parse error"):
        load_scenario(str(path))


def test_start_us_zero_is_the_default(tmp_path):
    flow = {"kind": "ftp", "src": 1, "dst": 2}
    dumps = []
    for extra in ({}, {"start_us": 0}):
        path = tmp_path / f"s{len(dumps)}.yaml"
        path.write_text(yaml.safe_dump({"flows": [{**flow, **extra}]}))
        sc = load_scenario(str(path))
        assert sc.flows[0].start_us == 0
        dumps.append(sc.to_yaml())
    assert dumps[0] == dumps[1]


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_scenario_files_parse_alike_with_either_yaml_loader(tmp_path, monkeypatch, loader):
    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML built without {loader}")
    # load_scenario takes libyaml's loader exactly when PyYAML says it has it
    monkeypatch.setattr(yaml, "__with_libyaml__", loader == "CSafeLoader")
    text = load_scenario("paper-pmp").to_yaml()
    path = tmp_path / "s.yaml"
    path.write_text(text)
    assert load_scenario(str(path)).to_yaml() == text
    path.write_text("frame: [unclosed")
    with pytest.raises(ScenarioError, match="YAML parse error"):
        load_scenario(str(path))


def test_builtin_scenarios_load_without_pyyaml():
    # PyYAML's import is a large share of a short run's set-up; only files need it
    src = Path(scenario_module.__file__).resolve().parents[1]
    code = ("import sys, pmpsim; pmpsim.load_scenario('paper-pmp'); "
            "assert 'yaml' not in sys.modules, 'yaml imported'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_setup_imports_no_dataclasses():
    # dataclasses and the inspect it imports were two thirds of a short run's set-up
    src = Path(scenario_module.__file__).resolve().parents[1]
    code = ("import sys, pmpsim, pmpsim.cli; "
            "pmpsim.SimulationRun(pmpsim.load_scenario('paper-pmp')); "
            "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_modulation_selectable(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "frame": {"modulation": "qam16"},
        "flows": [{"kind": "ftp", "src": 1, "dst": 2}]}))
    sc = load_scenario(str(path))
    # 20 MHz x 4 bits x 3/4 x 4/5
    assert sc.frame.bit_rate == 48_000_000


def test_class_sets_weight_and_interval_kind_sets_rate_and_packet():
    # a flow's class picks weight and grant_interval_us;
    # its kind picks rate_bps and packet_bytes, whatever its class
    weight = {"UGS": 8, "ertPS": 8, "rtPS": 6, "nrtPS": 2, "BE": 1}
    interval = {"UGS": 12_500, "ertPS": 12_500, "rtPS": 12_500,
                "nrtPS": 1_000_000, "BE": 1_000_000}
    rate = {"voice": 64_000, "voip_silence": 64_000, "ftp": 2_000_000, "video": 0, "http": 0}
    packet = {"voice": 100, "voip_silence": 100, "ftp": 1500, "video": 1500, "http": 1500}
    for kind in TRAFFIC_KINDS:
        for cls in SchedulingClass:
            sc = Scenario.from_dict({"flows": [{"kind": kind, "src": 1, "dst": 2,
                                                "class": cls.value}]})
            f = sc.flows[0]
            assert (f.cls, f.weight, f.grant_interval_us, f.rate_bps, f.packet_bytes) == (
                cls, weight[cls.value], interval[cls.value], rate[kind], packet[kind]), (kind, cls)
    voice = Scenario.from_dict({"flows": [{"kind": "voice", "src": 1, "dst": 2,
                                           "class": "BE"}]}).flows[0]
    assert (voice.weight, voice.grant_interval_us, voice.rate_bps) == (1, 1_000_000, 64_000)


def test_max_window_must_sit_on_backoff_lattice(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "contention": {"min_window": 8, "max_window": 1000},
        "flows": [{"kind": "ftp", "src": 1, "dst": 2}]}))
    with pytest.raises(ScenarioError, match="power of two"):
        load_scenario(str(path))


# ------------------------------------------------------- the field table

def test_every_table_key_in_readme_key_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    for section, key, *_ in FIELDS:
        assert f"| {section or '(top)'} | `{key}` |" in readme, (section, key)


# Values a key takes in the property tests below: its bound's edge where that
# is cheap, and typical values; keys left out take their default. Sizes,
# rates and intervals stay where a 40-frame run is short: a 1-byte MTU splits
# a video frame into thousands of SDUs, and a 1-byte ftp packet at 2 Mb/s is
# 250,000 events a second.
SMALL_VALUES = {
    "frame_duration_us": [5_000, 12_500],
    "channel_bandwidth_hz": [1, 1_000_000, 20_000_000], "base_quantum_bytes": [64, 1518],
    "min_window": [1, 2, 8], "max_window": [1, 8, 1024], "request_bytes": [1, 8, 100],
    "min_slots": [1, 4, 1000], "weight": [1, 2, 8], "queue_packets": [1, 3, 100],
    "mtu_bytes": [100, 1500], "grant_interval_us": [1, 5_000, 12_500, 1_000_000],
    "start_us": [0, 100_000], "stop_us": [None, 50_000, 200_000],
    "rate_bps": [1, 64_000, 2_000_000], "packet_bytes": [50, 100, 200, 1500],
    "talk_mean_us": [1_000, 1_200_000], "silence_mean_us": [1_000, 1_800_000],
    "frame_interval_us": [10_000, 40_000], "mean_frame_bytes": [1, 6_000, 30_000],
    "max_frame_bytes": [1, 20_000, 50_000], "mean_page_bytes": [1, 30_000, 600_000],
    "max_page_bytes": [1, 500_000], "page_pace_bps": [1, 8_000_000],
    "seed": [0, 1, 7], "bucket_us": [10_000, 1_000_000],
    "sigma": [0, 0.5, 10], "page_rate_per_s": [1e-6, 1.0, 50.0], "pareto_alpha": [1.01, 1.5, 9],
    "dl_fraction": ["1/100", "1/2", "189/200"], "coding_rate": ["1/2", "3/4", 1],
    "efficiency_factor": ["4/5", 1], "map_overhead_fraction": [0, "1/50", "1/2"],
    "ttg_us": [0, 106], "rtg_us": [0, 60], "modulation": ["qam64", "QAM16"],
    "bs": list(SCHEDULER_NAMES), "ss": list(SCHEDULER_NAMES), "strict_paper": [False, True],
    "class": [c.value for c in SchedulingClass], "name": ["cell", "a b"],
}
# one faulty value per example at most; some are faults only for some keys
FAULTS = [None, "x", True, -1, 0, 1.5, 1e300, float("nan"), [], {}, INT_MAX + 1]


@st.composite
def scenario_trees(draw):
    stations = draw(st.integers(1, 4))
    tree = {"stations": {"count": stations}, "flows": []}
    for section, key, _, _, default, _, kinds, _ in FIELDS:
        if section in ("", "frame", "schedulers", "contention", "run") and draw(st.booleans()):
            target = tree.setdefault(section, {}) if section else tree
            target[key] = draw(st.sampled_from(SMALL_VALUES.get(key, [default])))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(TRAFFIC_KINDS))
        flow = {"kind": kind, "src": draw(st.integers(1, stations + 1)),
                "dst": draw(st.integers(1, stations + 1))}
        for section, key, _, _, _, _, kinds, _ in FIELDS:
            if (section == "flows" and key in SMALL_VALUES and (kinds is None or kind in kinds)
                    and draw(st.integers(0, 3)) == 0):
                flow[key] = draw(st.sampled_from(SMALL_VALUES[key]))
        tree["flows"].append(flow)
    frame_us = tree.get("frame", {}).get("frame_duration_us", 12_500)
    tree.setdefault("run", {})["duration_us"] = draw(st.integers(10, 40)) * frame_us
    if draw(st.booleans()):
        section, key = draw(st.sampled_from([row[:2] for row in FIELDS]))
        fault = draw(st.sampled_from(FAULTS))
        if section == "flows" and tree["flows"]:
            draw(st.sampled_from(tree["flows"]))[key] = fault
        elif section != "flows":
            (tree.setdefault(section, {}) if section else tree)[key] = fault
    return tree


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tree=scenario_trees())
def test_random_scenario_is_rejected_or_runs(tree):
    """Every tree is a ScenarioError or a run that ends with conservation and
    legal maps, which every run checks."""
    try:
        sc = Scenario.from_dict(tree)
    except ScenarioError:
        return
    run_scenario(sc)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tree=scenario_trees())
def test_accepted_scenario_round_trips(tree):
    try:
        sc = Scenario.from_dict(tree)
    except ScenarioError:
        return
    assert Scenario.from_dict(sc.to_dict()).to_dict() == sc.to_dict()
    assert Scenario.from_dict(yaml.safe_load(sc.to_yaml())).to_dict() == sc.to_dict()
