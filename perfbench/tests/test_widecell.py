"""The generated wide cell: reproducible, valid, and loaded near its target."""

import pytest

import widecell
from pmpsim import load_scenario, run_scenario
from pmpsim.cli import main


def test_same_seed_writes_same_bytes(tmp_path):
    a = widecell.write(tmp_path / "a.yaml", 7, "wfq").read_bytes()
    b = widecell.write(tmp_path / "b.yaml", 7, "wfq").read_bytes()
    c = widecell.write(tmp_path / "c.yaml", 8, "wfq").read_bytes()
    assert a == b
    assert a != c


@pytest.mark.parametrize("scheduler", ["wfq", "dwrr"])
def test_file_validates(tmp_path, scheduler, capsys):
    path = widecell.write(tmp_path / "cell.yaml", 3, scheduler)
    assert main(["validate", "--scenario", str(path)]) == 0
    assert f"{widecell.STATIONS} stations, {widecell.STATIONS} flows" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 3])
def test_offered_load_near_target_without_sustained_drops(tmp_path, seed):
    sc = load_scenario(str(widecell.write(tmp_path / "cell.yaml", seed, "dwrr")))
    s = run_scenario(sc).summary
    load = s.means[("cell", "load_bps")] / widecell.uplink_capacity_bps()
    assert abs(load - float(widecell.TARGET_LOAD)) <= 0.05
    generated = s.generated_packets["cell"]
    # only http page bursts longer than a station queue may drop; no backlog builds up
    for i, flow in enumerate(sc.flows):
        if flow.kind != "http":
            assert s.dropped_packets.get(f"flow_{2 * i + 1:05d}", 0) == 0, flow
    assert s.dropped_packets["cell"] <= 0.02 * generated
    assert s.queued_packets_end["cell"] <= 0.01 * generated
