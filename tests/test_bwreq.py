from fractions import Fraction

import pytest

from pmpsim.bwreq import (BandwidthManager, BwRequest, ContentionState,
                          OversubscribedUgsError)
from pmpsim.kernel import RandomSource
from pmpsim.phy import Direction, FrameConfig, GrantKind, PhyProfile, validate_map
from pmpsim.qos import Connection, SchedulingClass
from pmpsim.sched import WfqScheduler, make_scheduler


def make_manager(cfg=None, scheduler=None):
    cfg = cfg or FrameConfig()
    return BandwidthManager(cfg, scheduler or WfqScheduler())


def register(bw, cid, ss_id, cls, **fields):
    """Register a flow from station `ss_id` to the BS in the grant table."""
    bw.register_flow(Connection(cid, cls, ss_id, 0, **fields))


def test_ugs_grant_size_from_rate():
    # 64 kb/s over a 12.5 ms interval is exactly 100 bytes, every frame
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.UGS, grant_interval_us=12_500,
             rate_bps=64_000, packet_bytes=100)
    for frame in range(5):
        grants = bw.issue_unsolicited(frame * 12_500)
        assert grants == [(1, 100)]


def test_no_unsolicited_flows_empty():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.BE)
    assert bw.issue_unsolicited(0) == []


def test_ertps_shrinks_to_request_carrying_size():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.ERTPS, grant_interval_us=12_500,
             rate_bps=64_000, packet_bytes=100)
    assert bw.issue_unsolicited(0) == [(1, 100)]
    bw.set_ertps_talking(1, False)
    assert bw.issue_unsolicited(12_500) == [(1, 8)]
    bw.set_ertps_talking(1, True)
    assert bw.issue_unsolicited(25_000) == [(1, 100)]


def test_ertps_talking_grant_holds_one_packet():
    # 64 kb/s over 12.5 ms is 100 B, less than one 200 B packet: a talking
    # flow still gets a whole packet per interval, as at registration
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.ERTPS, grant_interval_us=12_500,
             rate_bps=64_000, packet_bytes=200)
    assert bw.issue_unsolicited(0) == [(1, 200)]
    bw.set_ertps_talking(1, False)
    assert bw.issue_unsolicited(12_500) == [(1, 8)]
    bw.set_ertps_talking(1, True)
    assert bw.issue_unsolicited(25_000) == [(1, 200)]


def test_requests_rejected_for_unsolicited_flows():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.UGS, rate_bps=64_000, packet_bytes=100)
    with pytest.raises(ValueError):
        bw.on_request(BwRequest(1, 1000))


def test_flows_register_in_ascending_cid_order():
    # the map's unsolicited grants and polls come out in registration order,
    # so that order must be cid order
    bw = make_manager()
    register(bw, 3, 1, SchedulingClass.BE)
    with pytest.raises(ValueError, match="ascending cid order"):
        register(bw, 1, 2, SchedulingClass.BE)
    with pytest.raises(ValueError, match="ascending cid order"):
        register(bw, 3, 2, SchedulingClass.BE)
    assert list(bw.flows) == [3]


def test_poll_intervals():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.RTPS, grant_interval_us=12_500)
    register(bw, 2, 2, SchedulingClass.NRTPS, grant_interval_us=1_000_000)
    rtps_polls = 0
    nrtps_polls = 0
    for frame in range(160):
        due = bw.poll_flows(frame * 12_500)
        rtps_polls += 1 in due
        nrtps_polls += 2 in due
    assert rtps_polls == 160       # one per frame
    assert nrtps_polls == 2        # one per second of frames


def test_build_map_idle_network_contention_only():
    bw = make_manager()
    cfg = bw.cfg
    m = bw.build_ul_map(0, 0)
    assert m.ies == []
    cap = cfg.subframe_capacity_bytes(Direction.UPLINK)
    assert m.contention_bytes == (cap // 8) * 8
    assert validate_map(m, cfg) is None


def test_build_map_single_ugs_constant_every_frame():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.UGS, grant_interval_us=12_500,
             rate_bps=64_000, packet_bytes=100)
    register(bw, 2, 2, SchedulingClass.RTPS, grant_interval_us=12_500)
    shapes = set()
    for frame in range(20):
        m = bw.build_ul_map(frame, frame * 12_500)
        assert validate_map(m, bw.cfg) is None
        shapes.add(tuple((ie.cid, ie.grant_bytes, ie.kind) for ie in m.ies))
    # identical layout on every frame: one 100-byte UGS grant plus one poll
    assert shapes == {((1, 100, GrantKind.DATA), (2, 8, GrantKind.POLL))}


def test_build_map_equal_weight_split_when_budget_binds():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.BE, weight=1, chunk_bytes=1500)
    register(bw, 2, 2, SchedulingClass.BE, weight=1, chunk_bytes=1500)
    bw.on_request(BwRequest(1, 40_000))
    bw.on_request(BwRequest(2, 40_000))
    m = bw.build_ul_map(0, 0)
    grants = {ie.cid: ie.grant_bytes for ie in m.ies if ie.kind is GrantKind.DATA}
    cap = bw.cfg.subframe_capacity_bytes(Direction.UPLINK)
    budget = cap - bw.min_contention_slots * bw.request_bytes
    assert abs(grants[1] - grants[2]) <= 1500
    assert budget - 1500 <= grants[1] + grants[2] <= budget
    assert validate_map(m, bw.cfg) is None


def test_outstanding_tracks_grants():
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.BE, chunk_bytes=1500)
    bw.on_request(BwRequest(1, 10_000))
    assert bw.scheduler.backlog_bytes(1) == 10_000
    m = bw.build_ul_map(0, 0)
    granted = sum(ie.grant_bytes for ie in m.ies if ie.cid == 1)
    assert granted == 10_000  # ample capacity grants everything at once
    assert bw.scheduler.backlog_bytes(1) == 0


def test_request_conservation_over_many_frames():
    # granted bytes never exceed requested bytes
    bw = make_manager()
    register(bw, 1, 1, SchedulingClass.BE, chunk_bytes=1500)
    requested = granted = 0
    import random
    r = random.Random(5)
    backlog = 0
    for frame in range(200):
        backlog += r.randint(0, 4000)
        req = min(backlog, 16_000)
        requested += req
        bw.on_request(BwRequest(1, req))
        m = bw.build_ul_map(frame, frame * 12_500)
        g = sum(ie.grant_bytes for ie in m.ies if ie.cid == 1)
        backlog = max(0, backlog - g)
        granted += g
    assert granted <= requested


def test_oversubscribed_ugs_aborts():
    cfg = FrameConfig(frame_duration_us=12_500, ttg_us=6_000, rtg_us=5_000,
                      dl_fraction=Fraction(1, 2))
    bw = make_manager(cfg)
    register(bw, 1, 1, SchedulingClass.UGS, grant_interval_us=12_500,
             rate_bps=200_000_000, packet_bytes=100)
    with pytest.raises(OversubscribedUgsError):
        bw.build_ul_map(0, 0)


# ------------------------------------------------------------- contention

def rng(seed=1):
    return RandomSource(seed)


def test_single_requester_cannot_collide():
    st = ContentionState(1)
    st.pending = BwRequest(5, 100)
    delivered_total = 0
    r = rng()
    for _ in range(2):  # window 8, 8 slots: first or only frame delivers
        delivered, collided = BandwidthManager.run_contention([st], 8, r)
        assert collided == []
        delivered_total += len(delivered)
        if delivered_total:
            break
    assert delivered_total == 1
    assert st.pending is None
    assert st.window == st.min_window


def test_forced_two_station_collision_doubles_windows():
    a = ContentionState(1)
    b = ContentionState(2)
    a.pending = BwRequest(1, 100)
    b.pending = BwRequest(2, 100)
    a.backoff_remaining = 0
    b.backoff_remaining = 0
    delivered, collided = BandwidthManager.run_contention([a, b], 8, rng())
    assert delivered == []
    assert sorted(collided) == [1, 2]
    assert a.window == 16 and b.window == 16
    assert a.pending is not None and b.pending is not None


def test_backoff_decrements_for_non_transmitters():
    st = ContentionState(1)
    st.pending = BwRequest(1, 100)
    st.backoff_remaining = 10
    delivered, _ = BandwidthManager.run_contention([st], 4, rng())
    assert delivered == []
    assert st.backoff_remaining == 6
    delivered, _ = BandwidthManager.run_contention([st], 4, rng())
    assert delivered == []
    assert st.backoff_remaining == 2
    delivered, _ = BandwidthManager.run_contention([st], 4, rng())
    assert len(delivered) == 1


def test_window_never_exceeds_max():
    a = ContentionState(1, max_window=16)
    b = ContentionState(2, max_window=16)
    r = rng(3)
    for _ in range(10):
        a.pending = BwRequest(1, 100)
        b.pending = BwRequest(2, 100)
        a.backoff_remaining = 0
        b.backoff_remaining = 0
        BandwidthManager.run_contention([a, b], 8, r)
        assert a.window <= 16 and b.window <= 16
