import pytest

from pmpsim.qos import (Connection, RequestMode, SchedulingClass, ServiceFlow,
                        requires_request)


def flow(sfid, cls, **kw):
    defaults = dict(min_reserved_rate_bps=0, max_sustained_rate_bps=0)
    defaults.update(kw)
    return ServiceFlow(sfid=sfid, cls=cls, **defaults)


def test_exactly_five_classes():
    assert {c.value for c in SchedulingClass} == {"UGS", "rtPS", "ertPS", "nrtPS", "BE"}


@pytest.mark.parametrize("cls,mode", [
    (SchedulingClass.UGS, RequestMode.UNSOLICITED),
    (SchedulingClass.ERTPS, RequestMode.UNSOLICITED),
    (SchedulingClass.RTPS, RequestMode.POLL),
    (SchedulingClass.NRTPS, RequestMode.POLL),
    (SchedulingClass.BE, RequestMode.CONTENTION),
])
def test_requires_request(cls, mode):
    assert requires_request(cls) == mode


def test_ugs_requires_fixed_bandwidth():
    with pytest.raises(ValueError):
        flow(1, SchedulingClass.UGS, min_reserved_rate_bps=64_000,
             max_sustained_rate_bps=128_000)
    flow(1, SchedulingClass.UGS, min_reserved_rate_bps=64_000,
         max_sustained_rate_bps=64_000)


def test_min_rate_bounded_by_max_rate():
    with pytest.raises(ValueError):
        flow(1, SchedulingClass.RTPS, min_reserved_rate_bps=2_000_000,
             max_sustained_rate_bps=1_000_000)


def test_cid_and_sfid_width_limits():
    with pytest.raises(ValueError):
        ServiceFlow(sfid=2**32, cls=SchedulingClass.BE)
    f = flow(1, SchedulingClass.BE)
    with pytest.raises(ValueError):
        Connection(cid=2**16, flow=f, src=1, dst=2)
