"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import itertools
import random
import re
import time

import pytest

from pmpsim.bwreq import BandwidthManager, BwRequest, ContentionState
from pmpsim.cli import main as cli_main
from pmpsim.engine import run_scenario
from pmpsim.kernel import RandomSource
from pmpsim.metrics import flow_scope
from pmpsim.phy import Direction, GrantKind
from pmpsim.sched import DwrrScheduler, WfqScheduler, make_scheduler
from pmpsim.traffic import build_paper_scenario

from oracles import dwrr_reference, fifo_reference, wfq_reference, wrr_reference


def _passed(n, text):
    print(f"\nACCEPTANCE {n} PASS - {text}")


@pytest.fixture(scope="module")
def paper_audit_run():
    sc = build_paper_scenario()
    sc.duration_us = 20_000_000
    return sc, run_scenario(sc, record_audit=True)


# -------------------------------------------------------------- criterion 1

def test_criterion_1_wfq_beats_dwrr_on_paper_scenario(tmp_path):
    out_dir = tmp_path / "grid"
    t0 = time.time()
    rc = cli_main(["compare", "--scenario", "paper-pmp", "--schedulers",
                   "wfq,dwrr", "--seeds", "1,2,3,4,5",
                   "--out-dir", str(out_dir)])
    wall = time.time() - t0
    assert rc == 0
    report = (out_dir / "report.txt").read_text()
    delay = re.search(r"delay_s@bs: wfq < dwrr in (\d)/5 seeds", report)
    tput = re.search(r"throughput_bps@bs: wfq > dwrr in (\d)/5 seeds", report)
    assert delay and tput, report
    assert int(delay.group(1)) >= 4, report
    assert int(tput.group(1)) >= 4, report
    assert wall < 30.0, f"2x5 grid took {wall:.1f}s"
    _passed(1, f"BS delay wfq<dwrr in {delay.group(1)}/5, throughput wfq>dwrr "
               f"in {tput.group(1)}/5 seeds, grid in {wall:.1f}s")


# -------------------------------------------------------------- criterion 2

def test_criterion_2_wfq_rate_formula():
    weights = {1: 1, 2: 2, 3: 5}
    sched = WfqScheduler()
    for cid, w in weights.items():
        sched.add_queue(cid, weight=w)
    rng = random.Random(2024)
    served = {1: 0, 2: 0, 3: 0}
    pid = 0
    for _ in range(10_000):
        for cid in weights:  # permanently backlogged
            while sched.pending(cid) < 40:
                sched.enqueue(cid, pid, rng.randint(64, 1518))
                pid += 1
        for dec in sched.select(8_000):
            served[dec.cid] += dec.bytes
    total = sum(served.values())
    for cid, w in weights.items():
        share = served[cid] / total
        want = w / sum(weights.values())
        assert abs(share - want) / want < 0.05, (cid, share, want)
    _passed(2, "byte shares track 1:2:5 weights within 5% over 10^4 frames")


# -------------------------------------------------------------- criterion 3

def test_criterion_3_dwrr_shares_and_deficit_bound():
    sched = DwrrScheduler()
    sched.add_queue(1, quantum=500)
    sched.add_queue(2, quantum=1000)
    rng = random.Random(99)
    served = {1: 0, 2: 0}
    packets = 0
    pid = 0
    empty_transitions = 0
    while packets < 100_000:
        for cid in (1, 2):
            while sched.pending(cid) < 40:
                sched.enqueue(cid, pid, rng.randint(64, 1518))
                pid += 1
        for dec in sched.select(3_000):
            served[dec.cid] += dec.bytes
            packets += len(dec.packet_ids)
        for q in sched.queues.values():
            assert 0 <= q.deficit < q.quantum + 1518, q.deficit
            if not q.packets:
                empty_transitions += 1
                assert q.deficit == 0
    ratio = served[1] / served[2]
    assert abs(ratio - 0.5) / 0.5 < 0.05, ratio
    _passed(3, f"byte shares within 5% of 1:2 over {packets} packets; deficit "
               f"bound held at every boundary; {empty_transitions} empty resets clean")


# -------------------------------------------------------------- criterion 4

def _oracle_check(queue_sizes, configs, budgets):
    """Compare all four disciplines against their references on one instance.

    Each budget's select runs on a freshly filled scheduler. What does not
    depend on the budget (the enqueue calls, each reference's filled queues)
    is worked out once per instance.
    """
    queues, arrivals = [], {}
    enqueues = []  # enqueue arguments: (cid, pid, size, arrival)
    pid = 0
    for i, sizes in enumerate(queue_sizes):
        cid = i + 1
        packets = [(pid + j, size) for j, size in enumerate(sizes)]
        pid += len(sizes)
        queues.append((cid, configs[i], packets))
        arrivals[cid] = list(range(len(sizes)))  # equal arrival ranks across queues: ties by cid
        enqueues += [(cid, p, size, j) for j, (p, size) in enumerate(packets)]
    size_of = {p: s for _, _, pk in queues for p, s in pk}
    refs = {"wfq": wfq_reference(queues, budgets), "dwrr": dwrr_reference(queues, budgets),
            "wrr": wrr_reference(queues, budgets),
            "fifo": fifo_reference([(c, arrivals[c], pk) for c, _, pk in queues], budgets)}
    # add_queue arguments: (cid, weight, quantum); fifo takes the defaults
    adds = {name: [(cid, wq, wq) for cid, wq, _ in queues] for name in ("wfq", "dwrr", "wrr")}
    adds["fifo"] = [(cid, 1, 1) for cid, _, _ in queues]
    checks = 0
    for name, queue_args in adds.items():
        for budget, ref in zip(budgets, refs[name]):
            s = make_scheduler(name)
            for args in queue_args:
                s.add_queue(*args)
            for args in enqueues:
                s.enqueue(*args)
            got = [(d.cid, p, size_of[p]) for d in s.select(budget) for p in d.packet_ids]
            assert got == ref, (name, queue_sizes, configs, budget)
            checks += 1
    return checks


def _size_vectors(max_len):
    out = []
    for ln in range(1, max_len + 1):
        out.extend(itertools.product((1, 2, 3), repeat=ln))
    return out


def test_criterion_4_oracle_equivalence():
    budgets = range(1, 13)
    config_cycle = [(1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 1, 2), (2, 3, 1)]
    checks = 0
    instances = 0

    def run_instance(qs, idx):
        nonlocal checks, instances
        checks += _oracle_check(qs, config_cycle[idx % len(config_cycle)], budgets)
        instances += 1

    # exhaustive strata
    for i, qa in enumerate(_size_vectors(4)):
        run_instance((qa,), i)
    vec3 = _size_vectors(3)
    for i, (qa, qb) in enumerate(itertools.product(vec3, vec3)):
        run_instance((qa, qb), i)
    vec2 = _size_vectors(2)
    for i, q3 in enumerate(itertools.product(vec2, vec2, vec2)):
        run_instance(q3, i)

    # deterministic samples of the deeper spaces (full product is ~10^6 instances)
    rng = random.Random(424242)
    vec4 = _size_vectors(4)
    for i in range(1_500):
        run_instance((rng.choice(vec4), rng.choice(vec4)), i)
    for i in range(2_000):
        run_instance((rng.choice(vec4), rng.choice(vec4), rng.choice(vec4)), i)

    _passed(4, f"{checks} select calls across {instances} instances match the "
               f"brute-force references exactly (all four disciplines)")


# -------------------------------------------------------------- criterion 5

def test_criterion_5_frame_accounting(paper_audit_run):
    sc, res = paper_audit_run
    cfg = sc.frame
    assert cfg.frame_duration_us == 12_500
    n_frames = sc.duration_us // cfg.frame_duration_us
    # frames tile [0, duration) exactly
    assert n_frames * cfg.frame_duration_us == sc.duration_us
    prev_end = 0
    for n in range(n_frames):
        start, dl_start, ul_start, end = cfg.frame_boundaries(n)
        assert start == prev_end
        assert dl_start + cfg.dl_subframe_us + cfg.ttg_us == ul_start
        assert ul_start + cfg.ul_subframe_us + cfg.rtg_us == end
        prev_end = end
    assert prev_end == sc.duration_us

    per_frame = {}
    for rec in res.audit:
        start, dl_start, ul_start, end = cfg.frame_boundaries(rec.frame_index)
        dl_end = dl_start + cfg.dl_subframe_us
        ul_end = ul_start + cfg.ul_subframe_us
        # sub-microsecond serializations may collapse to an empty interval
        if rec.direction is Direction.DOWNLINK:
            assert dl_start <= rec.start_us <= rec.end_us <= dl_end
        else:
            assert ul_start <= rec.start_us <= rec.end_us <= ul_end
        # no overlap with TTG [dl_end, ul_start) or RTG [ul_end, end)
        assert not (rec.start_us < ul_start and rec.end_us > dl_end)
        assert rec.end_us <= ul_end or rec.direction is Direction.DOWNLINK
        key = (rec.frame_index, rec.direction)
        per_frame[key] = per_frame.get(key, 0) + rec.nbytes
    assert res.audit, "expected transmissions in a loaded run"
    for (frame, direction), total in per_frame.items():
        assert total <= cfg.subframe_capacity_bytes(direction), (frame, direction)
    _passed(5, f"{len(res.audit)} transmissions inside subframes, none in "
               f"TTG/RTG, per-frame totals within capacity over {n_frames} frames")


# -------------------------------------------------------------- criterion 6

def test_criterion_6_ugs_dedication(paper_audit_run):
    sc, res = paper_audit_run
    voice_idx = [i for i, f in enumerate(sc.flows) if f.kind == "voice"][0]
    http_idx = [i for i, f in enumerate(sc.flows) if f.kind == "http"][0]
    voice_cid = 2 * voice_idx + 1
    http_cid = 2 * http_idx + 1

    grant_sizes = set()
    frames_with_grant = 0
    for m in res.ul_maps:
        grants = [ie for ie in m.ies
                  if ie.cid == voice_cid and ie.kind is GrantKind.DATA]
        assert len(grants) == 1, f"frame {m.frame_index}: UGS grant missing"
        frames_with_grant += 1
        grant_sizes.add(grants[0].grant_bytes)
    assert grant_sizes == {100}, grant_sizes
    assert frames_with_grant == len(res.ul_maps)  # period = every frame, exactly

    var_voice = res.summary.delay_var[flow_scope(voice_cid)]
    var_http = res.summary.delay_var[flow_scope(http_cid)]
    assert var_voice * 10 <= var_http, (var_voice, var_http)
    _passed(6, f"UGS grant constant at 100 B every frame for "
               f"{frames_with_grant} frames; delay variance {var_voice:.2e} "
               f"vs BE {var_http:.2e} (>{var_http/max(var_voice, 1e-12):.0f}x)")


# -------------------------------------------------------------- criterion 7

def test_criterion_7_conservation_exact():
    checked = 0
    for sched in ("wfq", "dwrr"):
        sc = build_paper_scenario()
        sc.duration_us = 10_000_000
        sc.scheduler_bs = sc.scheduler_ss = sched
        s = run_scenario(sc).summary  # engine re-audits internally too
        scopes = ["cell"] + [flow_scope(2 * i + 1) for i in range(len(sc.flows))]
        for scope in scopes:
            for gen, de, dr, qu in (
                (s.generated_packets, s.delivered_packets, s.dropped_packets,
                 s.queued_packets_end),
                (s.generated_bytes, s.delivered_bytes, s.dropped_bytes,
                 s.queued_bytes_end)):
                assert gen.get(scope, 0) == (de.get(scope, 0) + dr.get(scope, 0)
                                             + qu.get(scope, 0)), scope
                checked += 1
    _passed(7, f"generated = delivered + queued + dropped exact to the byte "
               f"({checked} scope checks, wfq and dwrr)")


# -------------------------------------------------------------- criterion 8

def test_criterion_8_contention():
    # (a) a single requester always gets through, no collision possible
    rng = RandomSource(5)
    st = ContentionState(1)
    st.pending = BwRequest(9, 500)
    delivered = []
    frames = 0
    while st.pending is not None:
        got, collided = BandwidthManager.run_contention([st], 8, rng)
        assert collided == []
        delivered.extend(got)
        frames += 1
        assert frames <= 1, "window 8 with 8 slots must deliver in one frame"
    assert len(delivered) == 1

    # (b) forced same-slot collision doubles both windows
    a, b = ContentionState(1), ContentionState(2)
    a.pending = BwRequest(1, 10)
    b.pending = BwRequest(2, 10)
    a.backoff_remaining = b.backoff_remaining = 3
    got, collided = BandwidthManager.run_contention([a, b], 8, rng)
    assert got == [] and sorted(collided) == [1, 2]
    assert a.window == b.window == 16

    # (c) five symmetric stations vs brute-force enumeration of 8^5 draws
    slots = 8
    n_ss = 5
    total_success = 0
    for draw in itertools.product(range(slots), repeat=n_ss):
        counts = [0] * slots
        for d in draw:
            counts[d] += 1
        total_success += sum(1 for c in counts if c == 1)
    expected = total_success / slots ** n_ss

    rng = RandomSource(1234)
    trials = 10_000
    successes = 0
    for _ in range(trials):
        states = []
        for ss in range(1, n_ss + 1):
            st = ContentionState(ss)
            st.pending = BwRequest(ss, 100)
            states.append(st)
        got, _ = BandwidthManager.run_contention(states, slots, rng)
        successes += len(got)
    observed = successes / trials
    assert abs(observed - expected) / expected < 0.03, (observed, expected)
    _passed(8, f"single requester certain; forced collision doubles windows; "
               f"5-SS success rate {observed:.3f} vs analytic {expected:.3f}")


# -------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc = cli_main(["run", "--scenario", "paper-pmp", "--duration", "5",
                       "--out", str(path)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()

    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    for d in (d1, d2):
        rc = cli_main(["compare", "--scenario", "paper-pmp", "--duration", "3",
                       "--schedulers", "wfq,dwrr", "--seeds", "1,2",
                       "--out-dir", str(d)])
        assert rc == 0
    assert (d1 / "report.txt").read_bytes() == (d2 / "report.txt").read_bytes()
    assert (d1 / "comparison.csv").read_bytes() == (d2 / "comparison.csv").read_bytes()
    for name in ("run_wfq_seed1.csv", "run_dwrr_seed2.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    _passed(9, "byte-identical CSVs on repeated runs; compare verdicts stable")
