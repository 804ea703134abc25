import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pmpsim.sched import (DwrrScheduler, FifoScheduler, WfqScheduler,
                          WrrScheduler, make_scheduler)

from oracles import (dwrr_frames, dwrr_reference, fifo_frames, fifo_reference,
                     wfq_frames, wfq_reference, wrr_frames, wrr_reference)


def flatten(decisions, sizes):
    out = []
    for d in decisions:
        for pid in d.packet_ids:
            out.append((d.cid, pid, sizes[pid]))
    return out


# ---------------------------------------------------------------- WFQ

# finish tags are integers in units of 1/tag_scale

def test_finish_tag_identity_case():
    s = WfqScheduler()
    q = s.add_queue(1, weight=1)
    tag = s.finish_tag(q, 100)
    assert Fraction(tag, s.tag_scale) == 100


def test_finish_tag_weight_scaling():
    s = WfqScheduler()
    q = s.add_queue(1, weight=4)
    tag = s.finish_tag(q, 100)
    assert Fraction(tag, s.tag_scale) == 25


def test_wfq_hand_stepped_service_order():
    # flow1 w=1 packets 100,100; flow2 w=1 packet 50
    # tags: flow1 -> 100, 200; flow2 -> 50; order: f2(50), f1(100), f1(200)
    s = WfqScheduler()
    s.add_queue(1, weight=1)
    s.add_queue(2, weight=1)
    s.enqueue(1, 0, 100)
    s.enqueue(1, 1, 100)
    s.enqueue(2, 2, 50)
    served = flatten(s.select(10_000), {0: 100, 1: 100, 2: 50})
    assert served == [(2, 2, 50), (1, 0, 100), (1, 1, 100)]


def test_wfq_empty_queues_empty_decision():
    s = WfqScheduler()
    s.add_queue(1)
    assert s.select(10_000) == []


def test_wfq_single_flow_gets_entire_budget():
    s = WfqScheduler()
    s.add_queue(1, weight=3)
    for i in range(100):
        s.enqueue(1, i, 100)
    served = s.select(8_000)
    assert sum(d.bytes for d in served) == 8_000


def test_wfq_proportional_share_3_to_1():
    s = WfqScheduler()
    s.add_queue(1, weight=3)
    s.add_queue(2, weight=1)
    pid = 0
    got = {1: 0, 2: 0}
    for _ in range(50):
        for cid in (1, 2):
            while s.pending(cid) < 100:
                s.enqueue(cid, pid, 100)
                pid += 1
        for d in s.select(8_000):
            got[d.cid] += d.bytes
    total = got[1] + got[2]
    assert abs(got[1] - total * 3 / 4) <= 100
    assert abs(got[2] - total * 1 / 4) <= 100


def test_wfq_oversized_head_ends_selection():
    s = WfqScheduler()
    s.add_queue(1)
    s.add_queue(2)
    s.enqueue(1, 0, 50)   # tag 50
    s.enqueue(2, 1, 500)  # tag 500
    served = s.select(100)
    # after serving the 50, the min-tag head (500) exceeds the remaining 50
    assert flatten(served, {0: 50, 1: 500}) == [(1, 0, 50)]


def test_wfq_isolation_greedy_flow_punishes_itself():
    # adding more traffic to flow 2 must not reduce flow 1's service
    def run(extra):
        s = WfqScheduler()
        s.add_queue(1, weight=1)
        s.add_queue(2, weight=1)
        pid = 0
        got1 = 0
        for _ in range(40):
            while s.pending(1) < 50:
                s.enqueue(1, pid, 100); pid += 1
            while s.pending(2) < 50 + extra:
                s.enqueue(2, pid, 200); pid += 1
            for d in s.select(4_000):
                if d.cid == 1:
                    got1 += d.bytes
        return got1

    assert run(extra=500) >= run(extra=0)


def test_wfq_virtual_time_non_decreasing():
    s = WfqScheduler()
    s.add_queue(1, weight=2)
    s.add_queue(2, weight=1)
    rng = random.Random(3)
    pid = 0
    last_v = s.virtual_time
    for _ in range(200):
        for cid in (1, 2):
            if rng.random() < 0.7:
                s.enqueue(cid, pid, rng.randint(50, 1500)); pid += 1
        s.select(rng.randint(0, 3000))
        assert s.virtual_time >= last_v
        last_v = s.virtual_time


# ---------------------------------------------------------------- DWRR

def test_dwrr_hand_stepped_deficit_walk():
    # Q=500 both queues; A=[300,400,200], B=[600,100]; ample budget.
    # A: credit 500, serve 300 (200 left), 400 skipped; B: credit 500, 600 skipped;
    # A: 200+500=700, serve 400 then 200, empty -> deficit 0;
    # B: 500+500=1000, serve 600 then 100, empty -> deficit 0.
    s = DwrrScheduler()
    s.add_queue(1, quantum=500)
    s.add_queue(2, quantum=500)
    sizes = {}
    for pid, (cid, size) in enumerate([(1, 300), (1, 400), (1, 200),
                                       (2, 600), (2, 100)]):
        s.enqueue(cid, pid, size)
        sizes[pid] = size
    served = flatten(s.select(100_000), sizes)
    assert served == [(1, 0, 300), (1, 1, 400), (1, 2, 200), (2, 3, 600), (2, 4, 100)]
    assert s.queues[1].deficit == 0
    assert s.queues[2].deficit == 0


def test_dwrr_tiny_quantum_never_starves():
    s = DwrrScheduler()
    s.add_queue(1, quantum=1)
    s.enqueue(1, 0, 1500)
    served = s.select(10_000)
    assert served and served[0].packet_ids == [0]


def test_dwrr_equal_quanta_long_run_even_split():
    s = DwrrScheduler()
    s.add_queue(1, quantum=1518)
    s.add_queue(2, quantum=1518)
    rng = random.Random(42)
    pid = 0
    got = {1: 0, 2: 0}
    packets = 0
    while packets < 100_000:
        for cid in (1, 2):
            while s.pending(cid) < 60:
                s.enqueue(cid, pid, rng.randint(64, 1518)); pid += 1
        for d in s.select(6_000):
            got[d.cid] += d.bytes
            packets += len(d.packet_ids)
    ratio = got[1] / got[2]
    assert abs(ratio - 1.0) < 0.05


def test_dwrr_deficit_resets_on_empty():
    s = DwrrScheduler()
    s.add_queue(1, quantum=1000)
    s.enqueue(1, 0, 300)
    s.select(10_000)
    assert s.queues[1].deficit == 0


def test_dwrr_deficit_bound_between_calls():
    s = DwrrScheduler()
    s.add_queue(1, quantum=500)
    s.add_queue(2, quantum=800)
    rng = random.Random(7)
    pid = 0
    for _ in range(2_000):
        for cid in (1, 2):
            if rng.random() < 0.8:
                s.enqueue(cid, pid, rng.randint(64, 1518)); pid += 1
        s.select(rng.randint(0, 2500))
        for q in s.queues.values():
            assert 0 <= q.deficit < q.quantum + 1518
            if not q.packets:
                assert q.deficit == 0


def test_dwrr_rotation_pointer_persists():
    s = DwrrScheduler()
    s.add_queue(1, quantum=1000)
    s.add_queue(2, quantum=1000)
    s.enqueue(1, 0, 1000)
    s.enqueue(2, 1, 1000)
    first = flatten(s.select(1000), {0: 1000, 1: 1000})
    assert first == [(1, 0, 1000)]
    s.enqueue(1, 2, 1000)
    # pointer moved past queue 1, so queue 2 is served next
    second = flatten(s.select(1000), {1: 1000, 2: 1000})
    assert second == [(2, 1, 1000)]


# ---------------------------------------------------------------- WRR

def test_wrr_packet_counts_follow_weights():
    s = WrrScheduler()
    s.add_queue(1, weight=2)
    s.add_queue(2, weight=1)
    for i in range(6):
        s.enqueue(1, i, 100)
        s.enqueue(2, 100 + i, 100)
    served = s.select(100_000)
    order = [d.cid for d in served for _ in d.packet_ids]
    assert order == [1, 1, 2, 1, 1, 2, 1, 1, 2, 2, 2, 2]


def test_wrr_is_size_blind():
    s = WrrScheduler()
    s.add_queue(1, weight=1)
    s.add_queue(2, weight=1)
    got = {1: 0, 2: 0}
    pid = 0
    for _ in range(100):
        while s.pending(1) < 10:
            s.enqueue(1, pid, 1000); pid += 1
        while s.pending(2) < 10:
            s.enqueue(2, pid, 100); pid += 1
        for d in s.select(100_000):
            got[d.cid] += d.bytes
    assert abs(got[1] / got[2] - 10.0) < 0.5


def test_wrr_work_conservation_with_empty_queue():
    s = WrrScheduler()
    s.add_queue(1, weight=1)
    s.add_queue(2, weight=5)
    for i in range(10):
        s.enqueue(1, i, 100)
    served = s.select(100_000)
    assert sum(d.bytes for d in served) == 1000


# ---------------------------------------------------------------- FIFO

def test_fifo_global_arrival_order():
    s = FifoScheduler()
    s.add_queue(1)
    s.add_queue(2)
    s.enqueue(1, 0, 10, arrival=1)
    s.enqueue(2, 1, 10, arrival=2)
    s.enqueue(1, 2, 10, arrival=3)
    served = flatten(s.select(1000), {0: 10, 1: 10, 2: 10})
    assert [p[1] for p in served] == [0, 1, 2]


def test_fifo_simultaneous_arrivals_tie_by_cid():
    s = FifoScheduler()
    s.add_queue(2)
    s.add_queue(1)
    s.enqueue(2, 0, 10, arrival=5)
    s.enqueue(1, 1, 10, arrival=5)
    served = flatten(s.select(1000), {0: 10, 1: 10})
    assert [p[0] for p in served] == [1, 2]


def test_fifo_budget_smaller_than_first_packet():
    s = FifoScheduler()
    s.add_queue(1)
    s.enqueue(1, 0, 500, arrival=0)
    assert s.select(499) == []


# ------------------------------------------------- oracle equivalence (quick)

def build_impl(name, queues, arrivals=None):
    s = make_scheduler(name)
    pid_sizes = {}
    for cid, wq, packets in sorted(queues, key=lambda t: t[0]):
        if name == "dwrr":
            s.add_queue(cid, quantum=wq)
        elif name in ("wfq", "wrr"):
            s.add_queue(cid, weight=wq)
        else:
            s.add_queue(cid)
    for cid, wq, packets in queues:
        for idx, (pid, size) in enumerate(packets):
            arr = arrivals[cid][idx] if arrivals else 0
            s.enqueue(cid, pid, size, arrival=arr)
            pid_sizes[pid] = size
    return s, pid_sizes


@pytest.mark.parametrize("name,ref", [
    ("wfq", wfq_reference), ("dwrr", dwrr_reference), ("wrr", wrr_reference)])
def test_random_instances_match_reference(name, ref):
    rng = random.Random(1234)
    for _ in range(400):
        nq = rng.randint(1, 3)
        queues = []
        pid = 0
        for i in range(nq):
            wq = rng.randint(1, 4)
            packets = []
            for _ in range(rng.randint(0, 5)):
                packets.append((pid, rng.randint(1, 9)))
                pid += 1
            queues.append((i + 1, wq, packets))
        budget = rng.randint(0, 30)
        impl, sizes = build_impl(name, queues)
        assert flatten(impl.select(budget), sizes) == ref(queues, [budget])[0]


def test_random_fifo_instances_match_reference():
    rng = random.Random(99)
    for _ in range(400):
        nq = rng.randint(1, 3)
        queues = []
        arrivals = {}
        pid = 0
        for i in range(nq):
            cid = i + 1
            packets, arrs = [], []
            t = rng.randint(0, 2)
            for _ in range(rng.randint(0, 5)):
                packets.append((pid, rng.randint(1, 9)))
                arrs.append(t)
                t += rng.randint(0, 2)
                pid += 1
            queues.append((cid, arrs, packets))
            arrivals[cid] = arrs
        budget = rng.randint(0, 30)
        impl, sizes = build_impl("fifo", [(c, 1, p) for c, _, p in queues], arrivals)
        assert flatten(impl.select(budget), sizes) == fifo_reference(queues, [budget])[0]


def served_frames(s, frames, sizes=None):
    """Drive a scheduler through (enqueues, trims, budget) frames as the
    `*_frames` oracles do; per frame, the served packets and each credit."""
    sizes = {} if sizes is None else sizes
    got = []
    for enqueues, trims, budget in frames:
        for cid, pid, size, arrival in enqueues:
            s.enqueue(cid, pid, size, arrival=arrival)
            sizes[pid] = size
        for cid, target in trims:
            s.trim_tail(cid, target)
        # a trimmed packet is served at its trimmed size
        for q in s.queues.values():
            for pkt in q.packets:
                sizes[pkt.pid] = pkt.size
        got.append((flatten(s.select(budget), sizes),
                    {cid: q.deficit for cid, q in s.queues.items()}))
    return got


@st.composite
def frame_sequences(draw):
    """Queues (cid, parameter) and frames of (enqueues, trims, budget)."""
    n = draw(st.integers(2, 3))
    queues = [(cid, draw(st.integers(1, 10))) for cid in range(1, n + 1)]
    frames = []
    pid = 0
    for f in range(draw(st.integers(1, 8))):
        enqueues = []
        for _ in range(draw(st.integers(0, 5))):
            cid = draw(st.integers(1, n))
            enqueues.append((cid, pid, draw(st.integers(1, 9)), 3 * f + draw(st.integers(0, 2))))
            pid += 1
        # target 0 empties the queue, which drops its credit and open visit
        targets = st.just(0) | st.integers(1, 20)
        trims = draw(st.lists(st.tuples(st.integers(1, n), targets), max_size=2))
        frames.append((enqueues, trims, draw(st.integers(0, 20))))
    return queues, frames


@pytest.mark.parametrize("name,ref", [
    ("wfq", wfq_frames), ("dwrr", dwrr_frames), ("wrr", wrr_frames), ("fifo", fifo_frames)])
@settings(max_examples=200, deadline=None)
@given(case=frame_sequences())
def test_multi_frame_sequences_match_reference(name, ref, case):
    # state that spans frames: tags and virtual time, carried deficits, open
    # visits, the rotation pointer, and the resets of a queue trimmed empty
    queues, frames = case
    s = make_scheduler(name)
    for cid, param in queues:
        s.add_queue(cid, weight=param, quantum=param)
    assert served_frames(s, frames) == ref(queues, frames)


def test_wfq_tag_scale_is_fixed_before_traffic():
    # weights 2, 3 and 4 added before any packet: tag_scale goes 2 -> 6 -> 12,
    # and finish tags are exact in units of 1/12. A queue added once a packet
    # was enqueued would change the scale under tags already given out.
    frames = [([(1, 0, 7, 0), (1, 1, 5, 0)], [], 7),
              ([(2, 2, 9, 0), (3, 3, 4, 0), (1, 4, 3, 0), (3, 5, 8, 0)], [], 40)]
    s = WfqScheduler()
    for cid, weight, scale in [(1, 2, 2), (2, 3, 6), (3, 4, 12)]:
        s.add_queue(cid, weight=weight)
        assert s.tag_scale == scale
    sizes = {}
    got = served_frames(s, frames[:1], sizes)
    assert Fraction(s.virtual_time, s.tag_scale) == Fraction(7, 2)
    assert Fraction(s.queues[1].packets[0].tag, s.tag_scale) == 6
    with pytest.raises(ValueError, match="cid 4 added after the first packet"):
        s.add_queue(4, weight=5)
    assert s.tag_scale == 12 and 4 not in s.queues
    got += served_frames(s, frames[1:], sizes)
    ref = wfq_frames([(1, 2), (2, 3), (3, 4)], frames)
    assert [served for served, _ in got] == [served for served, _ in ref]


@pytest.mark.parametrize("name,ref", [("wfq", wfq_frames), ("fifo", fifo_frames)])
def test_trimmed_empty_head_is_never_served(name, ref):
    queues = [(1, 1), (2, 3)]
    frames = [
        ([(1, 0, 5, 0), (1, 1, 6, 1), (2, 2, 9, 2)], [(1, 0)], 0),
        # the stale head of queue 1 sorts first but must not be served
        ([(1, 3, 4, 3), (2, 4, 2, 4)], [], 30),
        ([(1, 5, 3, 5)], [(1, 0)], 30),
        ([], [], 30),
    ]
    s = make_scheduler(name)
    for cid, w in queues:
        s.add_queue(cid, weight=w)
    got = served_frames(s, frames)
    assert got == ref(queues, frames)
    assert all(pid not in (0, 1, 5) for served, _ in got for _, pid, _ in served)


@pytest.mark.parametrize("name,ref", [("dwrr", dwrr_frames), ("wrr", wrr_frames)])
def test_rotation_with_many_idle_queues(name, ref):
    # 200 queues, of which only 17 and 154 are ever backlogged
    queues = [(cid, 1 + cid % 5) for cid in range(1, 201)]
    rng = random.Random(8)
    frames, pid = [], 0
    for f in range(12):
        enqueues = []
        for cid in (17, 154):
            for _ in range(rng.randint(0, 4)):
                enqueues.append((cid, pid, rng.randint(1, 9), f))
                pid += 1
        frames.append((enqueues, [], rng.randint(0, 25)))
    s = make_scheduler(name)
    for cid, param in queues:
        s.add_queue(cid, weight=param, quantum=param)
    assert served_frames(s, frames) == ref(queues, frames)


def test_budget_compliance_always():
    rng = random.Random(5)
    for name in ("wfq", "dwrr", "wrr", "fifo"):
        s = make_scheduler(name)
        for cid in (1, 2, 3):
            s.add_queue(cid, weight=2, quantum=700) if name != "fifo" else s.add_queue(cid)
        pid = 0
        for _ in range(50):
            for cid in (1, 2, 3):
                if rng.random() < 0.8:
                    s.enqueue(cid, pid, rng.randint(64, 1518), arrival=pid)
                    pid += 1
            budget = rng.randint(0, 4000)
            served = s.select(budget)
            assert sum(d.bytes for d in served) <= budget


def test_work_conservation_all_disciplines():
    for name in ("wfq", "dwrr", "wrr", "fifo"):
        s = make_scheduler(name)
        s.add_queue(1, weight=1, quantum=100) if name != "fifo" else s.add_queue(1)
        s.add_queue(2, weight=1, quantum=100) if name != "fifo" else s.add_queue(2)
        s.enqueue(2, 0, 100, arrival=0)
        served = s.select(100)
        assert sum(d.bytes for d in served) == 100, name


def test_make_scheduler_rejects_unknown():
    with pytest.raises(ValueError):
        make_scheduler("edf")
