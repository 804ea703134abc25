import pytest

from pmpsim.qos import Connection, RequestMode, SchedulingClass, requires_request


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


def test_cid_width_limit():
    Connection(cid=2**16 - 1, cls=SchedulingClass.BE, src=1, dst=2)
    with pytest.raises(ValueError):
        Connection(cid=2**16, cls=SchedulingClass.BE, src=1, dst=2)
