import csv
import gc
import io
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from pmpsim import load_scenario, qos
from pmpsim.engine import SimulationRun, run_scenario
from pmpsim.metrics import flow_scope, ss_scope
from pmpsim.phy import Direction, FrameConfig, GrantKind
from pmpsim.qos import RequestMode
from pmpsim.scenario import Scenario, FlowSpec, build_paper_scenario


def tiny_scenario(**kw):
    sc = Scenario()
    sc.name = "tiny"
    sc.station_count = 2
    sc.duration_us = 1_000_000
    sc.flows = [FlowSpec.from_dict({"kind": "ftp", "src": 1, "dst": 2}, "flows[0]")]
    for key, value in kw.items():
        setattr(sc, key, value)
    sc.validate()
    return sc


def csv_bytes(result):
    out = io.StringIO()
    result.write_csv(out)
    return out.getvalue()


def test_single_flow_delivered_end_to_end():
    res = run_scenario(tiny_scenario(), record_audit=True)
    s = res.summary
    scope = flow_scope(1)
    assert s.delivered_packets[scope] > 0
    assert s.generated_packets[scope] == (s.delivered_packets[scope]
                                          + s.dropped_packets.get(scope, 0)
                                          + s.queued_packets_end[scope])
    # end-to-end delay strictly exceeds the uplink hop delay
    assert s.means[("cell", "delay_s")] > s.means[("bs", "delay_s")] > 0


def test_each_flow_has_one_connection_for_all_its_queues(monkeypatch):
    calls = []
    requires_request = qos.requires_request

    def counted(cls):
        calls.append(cls)
        return requires_request(cls)

    monkeypatch.setattr(qos, "requires_request", counted)
    sc = build_paper_scenario()
    sc.duration_us = 1_000_000
    run = SimulationRun(sc)
    run.run()
    conns = list(run.bw.flows.values())
    assert [c.cid for c in conns] == [2 * i + 1 for i in range(len(sc.flows))]
    assert len(calls) == len(conns)  # once per flow, not per frame
    assert sorted(run.bs.dl_sched.queues) == [c.cid for c in conns]
    for conn in conns:
        ss = run.sss[conn.src]
        assert any(c is conn for c in ss.conns)
        assert conn.cid in ss.local_sched.queues
        assert (conn.cid in run.bw.scheduler.queues) is (conn.mode is not RequestMode.UNSOLICITED)
    for ss in run.sss.values():
        assert [c.cid for c in ss.conns] == sorted(c.cid for c in ss.conns)


def test_transmissions_respect_subframes_and_gaps():
    sc = tiny_scenario()
    res = run_scenario(sc, record_audit=True)
    cfg = sc.frame
    assert res.audit
    for rec in res.audit:
        start, dl_start, ul_start, end = cfg.frame_boundaries(rec.frame_index)
        assert start <= rec.start_us <= rec.end_us <= end
        if rec.direction is Direction.DOWNLINK:
            assert rec.end_us <= dl_start + cfg.dl_subframe_us
        else:
            assert rec.start_us >= ul_start
            assert rec.end_us <= ul_start + cfg.ul_subframe_us


def test_per_frame_bytes_within_capacity():
    sc = tiny_scenario()
    res = run_scenario(sc, record_audit=True)
    cfg = sc.frame
    per_frame = {}
    for rec in res.audit:
        key = (rec.frame_index, rec.direction)
        per_frame[key] = per_frame.get(key, 0) + rec.nbytes
    for (_, direction), total in per_frame.items():
        assert total <= cfg.subframe_capacity_bytes(direction)


def test_uplink_bytes_covered_by_grants():
    sc = tiny_scenario()
    res = run_scenario(sc, record_audit=True)
    granted = {}
    for m in res.ul_maps:
        for ie in m.ies:
            if ie.kind is GrantKind.DATA:
                key = (m.frame_index, ie.ss_id)
                granted[key] = granted.get(key, 0) + ie.grant_bytes
    sent = {}
    for rec in res.audit:
        if rec.direction is Direction.UPLINK:
            sent[rec.frame_index] = sent.get(rec.frame_index, 0) + rec.nbytes
    for frame, nbytes in sent.items():
        assert nbytes <= granted.get((frame, 1), 0)


def test_idle_network_contention_only_maps():
    sc = tiny_scenario()
    sc.flows = []
    sc.validate()
    res = run_scenario(sc, record_audit=True)
    assert res.summary.generated_packets.get("cell", 0) == 0
    for m in res.ul_maps:
        assert m.ies == []
        assert m.contention_bytes > 0
    assert not res.audit


def drop_scenario(place: str) -> Scenario:
    """A run whose drops are all at `place`, "src" or "relay"."""
    if place == "src":  # paper-pmp drops at the source queues of SS1 and SS3
        sc = load_scenario("paper-pmp")
        sc.seed, sc.duration_us = 2, 2_000_000
        return sc
    # a downlink smaller than the offered load: every drop is at the relay
    sc = tiny_scenario()
    sc.frame = FrameConfig(dl_fraction=Fraction(1, 40))
    sc.flows[0].queue_packets = 20
    sc.validate()
    return sc


def count_drops(run: SimulationRun) -> Counter:
    """Count the run's drops by (place, source station, "packets" or "bytes")."""
    drops = Counter()
    record = run.metrics.record_drop

    def spy(sdu, where):
        key = (where, run.bw.flows[sdu.cid].src)
        drops[key + ("packets",)] += 1
        drops[key + ("bytes",)] += sdu.size_bytes
        record(sdu, where)

    run.metrics.record_drop = spy
    return drops


def test_relay_queue_overflow_drops_counted():
    # a full relay queue drops while conservation still holds
    run = SimulationRun(drop_scenario("relay"))
    drops = count_drops(run)
    dl = run.bs.dl_sched
    enqueue, peak = dl.enqueue, Counter()

    def spy(cid, *args, **kwargs):
        enqueue(cid, *args, **kwargs)
        peak[cid] = max(peak[cid], dl.pending(cid))

    dl.enqueue = spy
    s = run.run().summary
    scope = flow_scope(1)
    # the relay queue fills to its cap exactly, never past it
    assert peak[1] == run.scenario.flows[0].queue_packets
    assert drops[("relay", 1, "packets")] > 0
    assert drops[("src", 1, "packets")] == 0
    assert s.dropped_packets[scope] == drops[("relay", 1, "packets")]
    assert s.generated_packets[scope] == (s.delivered_packets.get(scope, 0)
                                          + s.dropped_packets.get(scope, 0)
                                          + s.queued_packets_end[scope])


@pytest.mark.parametrize("place", ["src", "relay"])
def test_station_counts_the_drops_at_its_own_source_queues(place):
    run = SimulationRun(drop_scenario(place))
    drops = count_drops(run)
    s = run.run().summary
    assert drops[(place, 1, "packets")] > 0
    for ss_id in range(1, run.scenario.station_count + 1):
        scope = ss_scope(ss_id)
        assert s.dropped_packets[scope] == drops[("src", ss_id, "packets")]
        assert s.dropped_bytes[scope] == drops[("src", ss_id, "bytes")]
    assert s.dropped_packets["cell"] == sum(
        n for key, n in drops.items() if key[2] == "packets")


def test_ertps_packets_over_the_rate_grant_are_served():
    # 64 kb/s over a 12.5 ms interval grants 100 B, but each packet is 200 B:
    # a talking flow's grant must still hold one packet
    sc = Scenario.from_dict({
        "stations": {"count": 2},
        "flows": [{"kind": "voip_silence", "src": 1, "dst": 2, "packet_bytes": 200}],
        "run": {"duration_us": 10_000_000}})
    s = run_scenario(sc).summary
    assert s.generated_packets["cell"] > 100
    assert s.delivered_packets["cell"] >= s.generated_packets["cell"] - 2


def test_identical_runs_identical_csv():
    a = run_scenario(tiny_scenario())
    b = run_scenario(tiny_scenario())
    assert csv_bytes(a) == csv_bytes(b)
    assert a.dispatched == b.dispatched


def test_saturated_downlink_uses_full_budget():
    # shrink the downlink share until the relay becomes the bottleneck:
    # served DL bytes per frame then sit at capacity minus map overhead
    sc = tiny_scenario()
    sc.frame = FrameConfig(dl_fraction=Fraction(1, 40))  # DL ~1.8 Mb/s < 2 Mb/s offered
    sc.flows[0].queue_packets = 500
    sc.validate()
    res = run_scenario(sc, record_audit=True)
    cfg = sc.frame
    dl_cap = cfg.subframe_capacity_bytes(Direction.DOWNLINK)
    budget = dl_cap - (-(-dl_cap * 1 // 50))
    per_frame = {}
    for rec in res.audit:
        if rec.direction is Direction.DOWNLINK:
            per_frame[rec.frame_index] = per_frame.get(rec.frame_index, 0) + rec.nbytes
    saturated = [n for n, total in per_frame.items() if total > budget - 1500]
    assert len(saturated) > 40  # most frames run the downlink flat out
    assert all(total <= budget for total in per_frame.values())


def test_seed_changes_output():
    a = run_scenario(tiny_scenario(seed=1))
    b = run_scenario(tiny_scenario(seed=2))
    assert csv_bytes(a) != csv_bytes(b)


def test_offered_load_accounting_matches_generated():
    sc = tiny_scenario()
    res = run_scenario(sc)
    s = res.summary
    scope = flow_scope(1)
    # the load series integral equals generated bytes exactly
    load = [x for x in res.series if x.scope == scope and x.name == "load_bps"][0]
    total_bits = sum(v for _, v in load.samples) * sc.bucket_us / 1e6
    assert total_bits == pytest.approx(s.generated_bytes[scope] * 8)


def test_paper_scenario_strict_mode_runs():
    sc = build_paper_scenario()
    sc.duration_us = 2_000_000
    sc.strict_paper = True
    res = run_scenario(sc)
    assert res.summary.delivered_packets["cell"] > 0


def test_paper_scenario_all_schedulers_run():
    for sched in ("wfq", "dwrr", "wrr", "fifo"):
        sc = build_paper_scenario()
        sc.duration_us = 1_000_000
        sc.scheduler_bs = sc.scheduler_ss = sched
        res = run_scenario(sc, record_audit=True)
        assert res.summary.delivered_packets["cell"] > 0


def test_voice_rides_every_frame():
    sc = build_paper_scenario()
    sc.duration_us = 2_000_000
    res = run_scenario(sc, record_audit=True)
    voice_cid = [2 * i + 1 for i, f in enumerate(sc.flows) if f.kind == "voice"][0]
    for m in res.ul_maps:
        grants = [ie for ie in m.ies
                  if ie.cid == voice_cid and ie.kind is GrantKind.DATA]
        assert len(grants) == 1
        assert grants[0].grant_bytes == 100


def test_series_equal_by_definition():
    # the README's Output format names these pairs: each is one bucket dict
    sc = load_scenario("paper-pmp")
    sc.duration_us = 3_000_000
    rows = {}  # (scope, metric) -> bucket_start_s -> value, summary rows included
    for line in csv_bytes(run_scenario(sc)).splitlines()[1:]:
        *_, scope, metric, bucket_s, value = line.split(",")
        rows.setdefault((scope, metric), {})[bucket_s] = value
    stations = sorted({scope for scope, _ in rows if scope.startswith("ss_")})
    assert len(stations) == sc.station_count
    pairs = [(("bs", "iface_recv_bps"), ("bs", "load_bps")),
             (("bs", "iface_sent_bps"), ("bs", "throughput_bps"))]
    pairs += [((ss, "iface_recv_bps"), (ss, "throughput_bps")) for ss in stations]
    for a, b in pairs:
        assert rows.get(a) == rows.get(b), (a, b)
    # a station that receives nothing has neither series; the rest have both
    present = [a for a, _ in pairs if a in rows]
    assert len(present) > 2 and all("-1.000000" in rows[a] for a in present)


def test_finished_run_freed_without_cycle_collector():
    # a run left to the cycle collector holds its whole world until the next
    # collection, which shows in peak RSS
    sc = load_scenario("paper-pmp")
    sc.duration_us = 1_000_000
    gc.disable()
    try:
        run = SimulationRun(sc)
        run.run()
        ref = weakref.ref(run)
        del run
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("name, distinct", [("paper-pmp", 1), ("paper-pmp-literal", 4)])
def test_station_scheduler_acts_only_where_a_station_sources_two_flows(name, distinct):
    # In paper-pmp each station sources one flow, so the station scheduler
    # never chooses; in paper-pmp-literal SS4 sources voice and VoIP.
    for seed in (1, 2):
        for bs in ("wfq", "dwrr"):
            csvs = set()
            for ss in ("wfq", "dwrr", "wrr", "fifo"):
                sc = load_scenario(name)
                sc.duration_us = 5_000_000
                sc.seed, sc.scheduler_bs, sc.scheduler_ss = seed, bs, ss
                rows = csv.reader(io.StringIO(csv_bytes(run_scenario(sc))))
                csvs.add(tuple(tuple(row[:2] + row[3:]) for row in rows))
            assert len(csvs) == distinct, (seed, bs)
