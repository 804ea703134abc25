"""Golden gate: the CSV bytes of short runs and the scenario dumps must not change.

Each CSV digest is the SHA-256 of the CSV a short run writes: 5 s of a
built-in 5-SS scenario, 2 s of a 40-SS cell whose BS schedulers hold 40
queues, or 2 s of a cell that sets every scenario key away from its default.
Each dump digest is the SHA-256 of what `print-scenario` writes, and each
compare digest that of the `report.txt` or `comparison.csv` a `compare` grid
of 2 s `paper-pmp` runs writes. A change that alters any of them changes
simulator output, and must say which digest and why.
"""

import hashlib
import io

import pytest
import yaml

from pmpsim import Scenario, load_scenario, run_scenario
from pmpsim.cli import main
from pmpsim.scenario import FIELDS

# (scenario, BS scheduler, SS scheduler, seed, strict_paper, CSV SHA-256)
GOLDEN = [
    ("paper-pmp", "wfq", "wfq", 1, False, "9dd2e69baee10c47d76c1175bbe8f4ababb08c6d62753cd7be31e7afde19f48d"),
    ("paper-pmp", "wfq", "wfq", 2, False, "886dd941b114932b3a5a4243b2338381b55c54323520a3703a5cfb4259890989"),
    ("paper-pmp", "dwrr", "dwrr", 1, False, "067ca020f3ed2b321a3aee47c6becb3b45e7b19bb3dcd3fe1e4c68ca639ee28e"),
    ("paper-pmp", "dwrr", "dwrr", 2, False, "ec58cf21c09c06acc6ff5c8c862388a8b693346b2277de15cc162ce19f30ec83"),
    ("paper-pmp", "wrr", "wrr", 1, False, "fbcd60bf366d6057ea382baa74dd6b148fd69009c6e9c3aefe1110798a7ca1c0"),
    ("paper-pmp", "wrr", "wrr", 2, False, "e8cbb3f1b8969e0de7ee74494c437d5b8e11caa1f5bd899b786adca9e8f384e3"),
    ("paper-pmp", "fifo", "fifo", 1, False, "d5e6cf744babef59d2b6cb7f4245bcf61feed73521a1d3bd34bddcd84b5dc9e1"),
    ("paper-pmp", "fifo", "fifo", 2, False, "548ff2f68a9a8b70e02901e840984a7f86d6cc613d3d4a0e7ed0f0d40b43845c"),
    ("paper-pmp-literal", "wfq", "wfq", 1, False, "ed6f8db5eddb32f2c11ddbe882a90f8993dfc7c264f8e4641819f26d8b43e74e"),
    ("paper-pmp-literal", "wfq", "wfq", 2, False, "f0b651fd9f8ff47f8d95df2151545809c4a73394a507ffab964e71c712da2631"),
    ("paper-pmp-literal", "dwrr", "dwrr", 1, False, "41bc147bd2bb9af20bcbe5cc48331628c438b8124aa6a93fd382230be8c8a9a6"),
    ("paper-pmp-literal", "dwrr", "dwrr", 2, False, "83cf6021faa6b88bcf76c870267d8de494ade2ddacce3fcf4f7085c2ac58bbf5"),
    ("paper-pmp-literal", "wrr", "wrr", 1, False, "aa765c2177590e939d50a96939029b9e818ed95db2587b8971dec611988314b3"),
    ("paper-pmp-literal", "wrr", "wrr", 2, False, "b1aae8e7b276986f987c4e56a22d4011b2bfc96b3fa0f81e4c218ab26e04fb44"),
    ("paper-pmp-literal", "fifo", "fifo", 1, False, "020b8a100598cfd064ab26734bf4b47897310d174e45f71fb6b8bb782448a2be"),
    ("paper-pmp-literal", "fifo", "fifo", 2, False, "60b0f94f6ecb1c25baa503608d2f09ae2049dbe960a2bbbe2db39d805208f23b"),
    # piggyback requests off
    ("paper-pmp", "wfq", "wfq", 1, True, "66f94e01b4e3f5b3cdc6ec7781a00a94cdc0fcde662438746577f4102da5a224"),
    # a BS/SS scheduler pair that `compare` never runs
    ("paper-pmp", "wfq", "wrr", 1, False, "21371b430775d4e5d77ec6e334e9bbe99910b97e5c3be02b471bdca0d535dbe7"),
]


# 40 stations, one uplink flow each, flow kinds cycling; (scheduler, CSV SHA-256)
WIDE_GOLDEN = [
    ("wfq", "b9939f1622ada2bb280a1b7769d0c2e58adc520f8afde0bf4b28080746e6631e"),
    ("dwrr", "8e2c366db3517e69007ea4bd6a9ff13bf9c3309fcfa603cf5772700c1089f133"),
    ("wrr", "f1dc88842ff5444deaaf3669fc43a4f10bf7a44f7a74f0db4dc7723ca3181480"),
    ("fifo", "f2e0f39e4803a2a585de1f21c013ef171a2b07310cc4f579f48359272169a155"),
]
WIDE_KINDS = ("ftp", "video", "http", "voip_silence", "voice")

# Every key of the scenario file set away from its default, in some flow for
# the flow keys: one flow per kind, each in a class other than its kind's, a
# QAM16 frame at a non-default coding rate and efficiency factor. Flows that
# leave weight or grant_interval_us out take the default of their class.
EVERY_KEY = {
    "name": "every-key",
    "frame": {"frame_duration_us": 10_000, "ttg_us": 100, "rtg_us": 50, "dl_fraction": "2/5",
              "channel_bandwidth_hz": 10_000_000, "modulation": "qam16",
              "coding_rate": "2/3", "efficiency_factor": "9/10",
              "map_overhead_fraction": "1/40"},
    "stations": {"count": 6},
    "schedulers": {"bs": "dwrr", "ss": "wrr", "base_quantum_bytes": 1000},
    "contention": {"min_window": 4, "max_window": 64, "request_bytes": 6, "min_slots": 3},
    "flows": [
        {"kind": "voice", "src": 1, "dst": 2, "class": "rtPS", "rate_bps": 48_000,
         "packet_bytes": 120, "mtu_bytes": 1400},
        {"kind": "voip_silence", "src": 2, "dst": 3, "class": "UGS", "rate_bps": 32_000,
         "packet_bytes": 80, "talk_mean_us": 900_000, "silence_mean_us": 600_000,
         "start_us": 10_000},
        {"kind": "ftp", "src": 3, "dst": 4, "class": "BE", "weight": 3,
         "rate_bps": 1_500_000, "packet_bytes": 1000, "queue_packets": 40,
         "stop_us": 1_500_000},
        {"kind": "video", "src": 4, "dst": 5, "name": "cam", "class": "nrtPS",
         "grant_interval_us": 50_000, "frame_interval_us": 33_000, "mean_frame_bytes": 4_000,
         "max_frame_bytes": 12_000, "sigma": 0.8},
        {"kind": "http", "src": 5, "dst": 6, "class": "rtPS", "weight": 4,
         "grant_interval_us": 20_000, "page_rate_per_s": 3.0, "mean_page_bytes": 20_000,
         "max_page_bytes": 200_000, "pareto_alpha": 1.8, "page_pace_bps": 4_000_000},
    ],
    "run": {"seed": 7, "duration_us": 2_000_000, "bucket_us": 500_000, "strict_paper": True},
}
EVERY_KEY_CSV = "a2e782154ffe7f41127dc968f94323f2963d9434544fcf641b59e866a49526e7"

# `print-scenario` output of the built-ins, of the 40-SS cell under WFQ and of
# the every-key cell; (scenario, YAML SHA-256)
PRINT_GOLDEN = [
    ("paper-pmp", "3cea399a97256300396980a6390a4d729e7661a5c9f86c956cfd675de08ce40c"),
    ("paper-pmp-literal", "aed5d706fb911c388e924478f30f90b20bbaada32ee6cf997b4ee87dfff541af"),
    ("wide-40ss", "391abdc4df54bbed2c31cfcad4bc57e3b2ac38ed6b62774e6f41db5c3d7f4d69"),
    ("every-key", "d13b7593835aae3de09f131295fb90f8d18e9297ba752ba5bf300c7aa8887233"),
]

# `compare --scenario paper-pmp --duration 2`; (schedulers, seeds,
# report.txt SHA-256, comparison.csv SHA-256). The last grid lists a seed past
# 9 after a smaller one, so its rows would change order if the grid were
# sorted by the text of each row instead of by (scheduler, seed, scope, metric).
COMPARE_GOLDEN = [
    ("wfq,dwrr", "1,2,3", "f9649363025a231b12a4cfc4d30fc212aa7fc6466477890097c303dba6fd7743",
     "95165c7df72fa5e913993b963c5706c4a448c2d63e9c0fd15280293700833b3a"),
    ("wfq,dwrr,wrr,fifo", "1,2,3", "599814785907ff8e472b5424305de5eb17120ad065b8e07004a314b574711f63",
     "d0aa5e6a20f8a680d6e116baf6283623a83591cef841fc9d14faa63fe46796b4"),
    ("wfq,fifo", "7", "e2022a744b2b2146a0cdd6b6c8b418e86732ae3e1690b2f6dcf49c7082cc2afd",
     "377085cd7d89843ae172ddd30c4b8e47a7770f13fd5ee24fd4b785ca381ea3d7"),
    ("dwrr,wfq", "10,2", "5ab9b4dc2b78532024514a59f8efdc44543a215afd8fb1301f19a8a88c241aea",
     "a72ad7339bf870ed8f91781b1f1eb6fdd6a1543cc5c65540e918c068082fdc39"),
]


def _digest(result) -> str:
    buf = io.StringIO()
    result.write_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def wide_tree(scheduler: str, stations: int = 40) -> dict:
    flows = [{"kind": WIDE_KINDS[i % len(WIDE_KINDS)], "src": i + 1,
              "dst": (i + 7) % stations + 1} for i in range(stations)]
    return {"name": f"wide-{stations}ss", "stations": {"count": stations},
            "schedulers": {"bs": scheduler, "ss": scheduler},
            "flows": flows, "run": {"seed": 1, "duration_us": 2_000_000}}


def wide_cell(scheduler: str, stations: int = 40) -> Scenario:
    return Scenario.from_dict(wide_tree(scheduler, stations))


@pytest.mark.parametrize("name,bs,ss,seed,strict,expected", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}-{g[2]}-seed{g[3]}{'-strict' if g[4] else ''}"
                              for g in GOLDEN])
def test_csv_digest_unchanged(name, bs, ss, seed, strict, expected):
    sc = load_scenario(name)
    sc.scheduler_bs, sc.scheduler_ss, sc.seed = bs, ss, seed
    sc.strict_paper = strict
    sc.duration_us = 5_000_000
    assert _digest(run_scenario(sc)) == expected


@pytest.mark.parametrize("scheduler,expected", WIDE_GOLDEN, ids=[g[0] for g in WIDE_GOLDEN])
def test_wide_cell_csv_digest_unchanged(scheduler, expected):
    assert _digest(run_scenario(wide_cell(scheduler))) == expected


def test_every_key_cell_sets_every_key():
    given = {("", key) for key, value in EVERY_KEY.items() if not isinstance(value, dict)}
    for section, value in EVERY_KEY.items():
        if isinstance(value, dict):
            given |= {(section, key) for key in value}
    given |= {("flows", key) for flow in EVERY_KEY["flows"] for key in flow}
    assert {(row[0], row[1]) for row in FIELDS} <= given


def test_every_key_cell_csv_digest_unchanged():
    assert _digest(run_scenario(Scenario.from_dict(EVERY_KEY))) == EVERY_KEY_CSV


@pytest.mark.parametrize("name,expected", PRINT_GOLDEN, ids=[g[0] for g in PRINT_GOLDEN])
def test_print_scenario_digest_unchanged(tmp_path, capsys, name, expected):
    trees = {"wide-40ss": wide_tree("wfq"), "every-key": EVERY_KEY}
    scenario = name
    if name in trees:
        scenario = str(tmp_path / f"{name}.yaml")
        with open(scenario, "w") as fh:
            yaml.safe_dump(trees[name], fh)
    assert main(["print-scenario", "--scenario", scenario]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected


@pytest.mark.parametrize("schedulers,seeds,report,grid", COMPARE_GOLDEN,
                         ids=[f"{g[0]}-seeds{g[1]}" for g in COMPARE_GOLDEN])
def test_compare_digests_unchanged(tmp_path, capsys, schedulers, seeds, report, grid):
    assert main(["compare", "--scenario", "paper-pmp", "--duration", "2",
                 "--schedulers", schedulers, "--seeds", seeds,
                 "--out-dir", str(tmp_path)]) == 0
    text = (tmp_path / "report.txt").read_bytes()
    assert capsys.readouterr().out.encode() == text
    assert hashlib.sha256(text).hexdigest() == report
    assert hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest() == grid
