from fractions import Fraction

import pytest

from pmpsim.phy import (Direction, FrameConfig, GrantKind, MapIE, Modulation, UlMap,
                        validate_map)


def make_cfg(**kw):
    return FrameConfig(**kw)


def test_default_effective_bit_rate():
    cfg = make_cfg()
    # 20 MHz x 6 b/sym x 3/4 x 4/5
    assert cfg.bit_rate == 72_000_000


def test_subframe_capacity_exact_arithmetic():
    # 8 Mb/s over a 5000 us subframe is exactly 5000 bytes
    cfg = make_cfg(
        frame_duration_us=10_200, ttg_us=100, rtg_us=100,
        dl_fraction=Fraction(1, 2), channel_bandwidth_hz=2_000_000,
        modulation=Modulation.QAM16, coding_rate=Fraction(1, 1),
        efficiency_factor=Fraction(1, 1))
    assert cfg.bit_rate == 8_000_000
    assert cfg.ul_subframe_us == 5_000
    assert cfg.subframe_capacity_bytes(Direction.UPLINK) == 5_000


def test_default_capacities_pinned():
    # usable 12_334 us, split 6167/6167, floor(72e6 * 6167e-6 / 8) = 55_503
    cfg = make_cfg()
    assert cfg.usable_us == 12_334
    assert cfg.dl_subframe_us == 6_167
    assert cfg.subframe_capacity_bytes(Direction.DOWNLINK) == 55_503
    assert cfg.subframe_capacity_bytes(Direction.UPLINK) == 55_503


def test_degenerate_tiny_subframes_legal():
    cfg = make_cfg(frame_duration_us=12_500, ttg_us=6_249, rtg_us=6_249,
                   dl_fraction=Fraction(1, 2))
    assert cfg.dl_subframe_us == 1
    assert cfg.ul_subframe_us == 1
    assert cfg.subframe_capacity_bytes(Direction.UPLINK) >= 0


def test_gaps_must_fit_in_frame():
    with pytest.raises(ValueError):
        make_cfg(ttg_us=10_000, rtg_us=2_500)


def test_frame_config_immutable():
    # the cached geometry and rates are computed once from the fields
    cfg = FrameConfig(dl_fraction=Fraction(1, 4), modulation=Modulation.QAM16)
    assert (cfg.dl_fraction, cfg.modulation) == (Fraction(1, 4), Modulation.QAM16)
    capacity = cfg.subframe_capacity_bytes(Direction.UPLINK)
    with pytest.raises(AttributeError):
        cfg.frame_duration_us = 25_000
    with pytest.raises(AttributeError):
        del cfg.ttg_us
    assert cfg.frame_duration_us == 12_500
    assert cfg.subframe_capacity_bytes(Direction.UPLINK) == capacity


@pytest.mark.parametrize("fields,message", [
    ({"dl_fraction": Fraction(0)}, "dl_fraction must lie in"),
    ({"dl_fraction": Fraction(1)}, "dl_fraction must lie in"),
    ({"channel_bandwidth_hz": 0}, "channel bandwidth must be positive"),
], ids=["no-downlink", "no-uplink", "no-bandwidth"])
def test_frame_config_checks(fields, message):
    with pytest.raises(ValueError, match=message):
        FrameConfig(**fields)


def test_frame_boundaries_frame_zero():
    cfg = make_cfg()
    start, dl_start, ul_start, end = cfg.frame_boundaries(0)
    assert start == 0 and dl_start == 0
    assert ul_start == 6_167 + 106
    assert end == 12_500


def test_frame_boundaries_one_second():
    cfg = make_cfg()
    assert cfg.frame_boundaries(80)[0] == 1_000_000


def test_frames_tile_timeline():
    cfg = make_cfg()
    for n in range(100):
        s, dls, uls, e = cfg.frame_boundaries(n)
        assert s < uls < e
        assert e == cfg.frame_boundaries(n + 1)[0]


def test_validate_empty_map_ok():
    cfg = make_cfg()
    assert validate_map(UlMap(frame_index=0), cfg) is None


def test_validate_overlap_detected():
    cfg = make_cfg()
    m = UlMap(0, ies=[MapIE(1, 1, 0, 200, GrantKind.DATA),
                      MapIE(2, 2, 100, 200, GrantKind.DATA)])
    assert validate_map(m, cfg) == "overlap"


def test_validate_exact_capacity_ok():
    cfg = make_cfg()
    cap = cfg.subframe_capacity_bytes(Direction.UPLINK)
    m = UlMap(0, ies=[MapIE(1, 1, 0, cap, GrantKind.DATA)])
    assert validate_map(m, cfg) is None
    m2 = UlMap(0, ies=[MapIE(1, 1, 0, cap + 1, GrantKind.DATA)])
    assert validate_map(m2, cfg) == "capacity"


def test_validate_contention_region_counted():
    cfg = make_cfg()
    cap = cfg.subframe_capacity_bytes(Direction.UPLINK)
    m = UlMap(0, ies=[MapIE(1, 1, 0, cap - 8, GrantKind.DATA)],
              contention_offset=cap - 8, contention_bytes=16)
    assert validate_map(m, cfg) == "capacity"


def test_tx_time_rounds_up_and_fits_subframe():
    cfg = make_cfg()
    cap = cfg.subframe_capacity_bytes(Direction.UPLINK)
    assert cfg.tx_time_us(cap) <= cfg.ul_subframe_us
    assert cfg.tx_time_us(1) >= 1
