import io
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import FanoutCollector
from pmpsim.metrics import (MetricsCollector, RunMeta, emit_csv, flow_scope,
                            read_summary_csv, ss_scope)
from pmpsim.qos import MacSdu


def collector(bucket_us=1_000_000, duration_us=3_000_000):
    return MetricsCollector(bucket_us, duration_us, flows={1: (1, 2)})


def sdu(i, size=100, created=0):
    return MacSdu(i, 1, size, created)


def test_delay_sample_seconds():
    m = collector()
    s = sdu(0, created=0)
    m.record_delivery(s, 25_000)
    assert s.delivered_at == 25_000
    series = {(x.scope, x.name): x for x in m.build_series()}
    delay = series[("cell", "delay_s")]
    assert delay.samples == [(0, 0.025)]


def test_double_delivery_is_hard_fault():
    m = collector()
    s = sdu(0)
    m.record_delivery(s, 10_000)
    with pytest.raises(RuntimeError):
        m.record_delivery(s, 20_000)


def test_steady_flow_throughput_64kbps():
    # one 100-byte delivery per 12.5 ms frame: every full bucket reads 64 kb/s
    m = collector(duration_us=2_000_000)
    for i in range(160):
        m.record_delivery(sdu(i, created=i * 12_500), i * 12_500 + 100)
    series = {(x.scope, x.name): x for x in m.build_series()}
    tput = series[("cell", "throughput_bps")]
    assert [v for _, v in tput.samples] == [64_000.0, 64_000.0]


def test_empty_bucket_throughput_zero_delay_absent():
    m = collector(duration_us=3_000_000)
    m.record_delivery(sdu(0, created=0), 100)  # bucket 0 only
    series = {(x.scope, x.name): x for x in m.build_series()}
    tput = series[("cell", "throughput_bps")]
    assert [v for _, v in tput.samples] == [800.0, 0.0, 0.0]
    delay = series[("cell", "delay_s")]
    assert len(delay.samples) == 1  # empty buckets are absent, not zero


def test_load_recorded_at_creation_time():
    m = collector()
    s = sdu(0, size=1500, created=1_200_000)
    m.record_offered(s)
    series = {(x.scope, x.name): x for x in m.build_series()}
    load = series[("cell", "load_bps")]
    assert [v for _, v in load.samples] == [0.0, 12_000.0, 0.0]


def test_summary_counts_and_conservation_fields():
    m = collector()
    a, b = sdu(0, size=100), sdu(1, size=200)
    m.record_offered(a)
    m.record_offered(b)
    m.record_delivery(a, 50_000)
    m.record_drop(b, "src")
    s = m.build_summary({1: (0, 0)})
    assert s.generated_bytes["cell"] == 300
    assert s.delivered_bytes["cell"] == 100
    assert s.dropped_bytes["cell"] == 200
    assert s.generated_bytes["flow_00001"] == 300


def test_csv_deterministic_and_readable_back():
    def build():
        m = collector()
        for i in range(10):
            s = sdu(i, created=i * 10_000)
            m.record_offered(s)
            m.record_delivery(s, i * 10_000 + 500)
        meta = RunMeta("unit", "wfq", "wfq", 42)
        out = io.StringIO()
        emit_csv(out, meta, m.build_series(),
                 m.build_summary({1: (0, 0)}))
        return out.getvalue()

    text1, text2 = build(), build()
    assert text1 == text2
    header = text1.splitlines()[0]
    assert header == "scenario,scheduler_bs,scheduler_ss,seed,scope,metric,bucket_start_s,value"
    assert ",-1.000000," in text1  # summary rows present


def test_csv_summary_roundtrip(tmp_path):
    m = collector()
    s = sdu(0, created=0)
    m.record_offered(s)
    m.record_delivery(s, 40_000)
    path = tmp_path / "run.csv"
    with open(path, "w") as fh:
        emit_csv(fh, RunMeta("unit", "wfq", "dwrr", 7), m.build_series(),
                 m.build_summary({1: (0, 0)}))
    summary = read_summary_csv(str(path))
    assert summary[("cell", "delay_s")] == pytest.approx(0.04)
    assert summary[("cell", "delivered_packets")] == 1.0


def test_values_fixed_six_decimals():
    m = collector()
    s = sdu(0, created=0)
    m.record_offered(s)
    m.record_delivery(s, 12_345)
    out = io.StringIO()
    emit_csv(out, RunMeta("u", "wfq", "wfq", 1), m.build_series(),
             m.build_summary({1: (0, 0)}))
    for line in out.getvalue().splitlines()[1:]:
        bucket, value = line.split(",")[-2:]
        assert len(bucket.split(".")[1]) == 6
        assert len(value.split(".")[1]) == 6


# ------------------------------------------------ scope sums vs the reference

REF_FLOWS = {1: (1, 2), 3: (2, 1), 5: (1, 3), 7: (3, 1)}  # cid -> (src, dst)
REF_BUCKET_US, REF_DURATION_US = 1_000_000, 3_000_000
COUNTERS = ("generated", "delivered", "dropped")

# one packet's life: (cid, size, sorted (created, at the BS, delivered), fate)
lifecycles = st.lists(st.tuples(
    st.sampled_from(sorted(REF_FLOWS)), st.integers(1, 1500),
    st.lists(st.integers(0, REF_DURATION_US - 1), min_size=3, max_size=3).map(sorted),
    st.sampled_from(["dropped at src", "queued at src", "dropped at relay",
                     "queued at relay", "delivered"])), max_size=40)


def _exact(xs):
    """Mean and population variance of delays in us, in seconds, correctly rounded."""
    n, total = len(xs), sum(xs)
    return (float(Fraction(total, n * 10**6)),
            float(Fraction(n * sum(x * x for x in xs) - total * total, n * n * 10**12)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(packets=lifecycles)
def test_scope_sums_match_the_fanout_reference(packets):
    m = MetricsCollector(REF_BUCKET_US, REF_DURATION_US, flows=REF_FLOWS)
    ref = FanoutCollector(REF_BUCKET_US, REF_DURATION_US, sorted(REF_FLOWS), [1, 2, 3])
    queued = {cid: (0, 0) for cid in REF_FLOWS}
    delays = {}  # scope -> bucket -> [delay_us]
    for i, (cid, size, (created, at_bs, delivered), fate) in enumerate(packets):
        src, dst = REF_FLOWS[cid]
        sdu, ref_sdu = MacSdu(i, cid, size, created), MacSdu(i, cid, size, created)
        m.record_offered(sdu)
        ref.record_offered(ref_sdu, src)
        if fate.startswith("queued"):
            queued[cid] = (queued[cid][0] + 1, queued[cid][1] + size)
        if fate.endswith("src"):
            if fate.startswith("dropped"):
                m.record_drop(sdu, "src")
                ref.record_drop(ref_sdu, "src", src)
            continue
        m.record_bs_ingress(sdu, at_bs)
        ref.record_bs_ingress(ref_sdu, at_bs, src)
        delays.setdefault("bs", {}).setdefault(at_bs // REF_BUCKET_US, []).append(at_bs - created)
        if fate == "dropped at relay":
            m.record_drop(sdu, "relay")
            ref.record_drop(ref_sdu, "relay", src)
        elif fate == "delivered":
            m.record_delivery(sdu, delivered)
            ref.record_delivery(ref_sdu, delivered, dst)
            for scope in ("cell", flow_scope(cid), ss_scope(dst)):
                delays.setdefault(scope, {}).setdefault(
                    delivered // REF_BUCKET_US, []).append(delivered - created)

    s = m.build_summary(queued)
    series = {(x.scope, x.name): x.samples for x in m.build_series()}
    ref_series = ref.build_series()
    ref_means, ref_var, ref_counts = ref.build_summary()

    def bits(d):
        return {key: value for key, value in d.items() if key[1] != "delay_s"}

    assert bits(series) == bits(ref_series)
    assert bits(s.means) == bits(ref_means)
    assert {(scope, c): (getattr(s, f"{c}_packets")[scope], getattr(s, f"{c}_bytes")[scope])
            for c in COUNTERS for scope in getattr(s, f"{c}_packets")} == ref_counts
    assert s.queued_packets_end == {"cell": sum(p for p, _ in queued.values()),
                                    **{flow_scope(c): p for c, (p, _) in queued.items()}}
    assert s.queued_bytes_end == {"cell": sum(b for _, b in queued.values()),
                                  **{flow_scope(c): b for c, (_, b) in queued.items()}}

    assert {scope for scope, metric in series if metric == "delay_s"} == set(delays)
    assert set(s.delay_var) == set(ref_var) == set(delays)
    for scope, buckets in delays.items():
        got, want = series[(scope, "delay_s")], ref_series[(scope, "delay_s")]
        assert got == [(b * REF_BUCKET_US, _exact(xs)[0]) for b, xs in sorted(buckets.items())]
        assert [v for _, v in got] == pytest.approx([v for _, v in want], rel=1e-9)
        mean, var = _exact([x for xs in buckets.values() for x in xs])
        assert (s.means[(scope, "delay_s")], s.delay_var[scope]) == (mean, var)
        assert mean == pytest.approx(ref_means[(scope, "delay_s")], rel=1e-9)
        assert var == pytest.approx(ref_var[scope], rel=1e-9, abs=1e-15)
