import pytest

from pmpsim.kernel import EventKind, SchedulingError, Simulator


def test_schedule_at_current_time_fires_next_dispatch():
    sim = Simulator()
    fired = []
    sim.schedule(0, EventKind.PACKET_ARRIVAL, lambda p: fired.append(p), "now")
    assert sim.run_until(0) == 1
    assert fired == ["now"]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    fired = []
    sim.schedule(12_500, EventKind.PACKET_ARRIVAL, lambda p: fired.append(p), "a")
    sim.schedule(12_500, EventKind.PACKET_ARRIVAL, lambda p: fired.append(p), "b")
    sim.run_until(12_500)
    assert fired == ["a", "b"]


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, EventKind.PACKET_ARRIVAL, lambda p: None)
    sim.run_until(10)
    with pytest.raises(SchedulingError):
        sim.schedule(5, EventKind.PACKET_ARRIVAL, lambda p: None)


def test_empty_queue_advances_clock():
    sim = Simulator()
    assert sim.run_until(1_000_000) == 0
    assert sim.now == 1_000_000


def test_total_order_across_times():
    sim = Simulator()
    fired = []
    sim.schedule(2, EventKind.PACKET_ARRIVAL, lambda p: fired.append(p), "e2a")
    sim.schedule(1, EventKind.PACKET_ARRIVAL, lambda p: fired.append(p), "e1")
    sim.schedule(2, EventKind.PACKET_ARRIVAL, lambda p: fired.append(p), "e2b")
    sim.run_until(10)
    assert fired == ["e1", "e2a", "e2b"]


def test_handler_can_schedule_followups():
    sim = Simulator()
    fired = []

    def tick(p):
        fired.append(sim.now)
        if sim.now < 50:
            sim.schedule(sim.now + 10, EventKind.PACKET_ARRIVAL, tick)

    sim.schedule(0, EventKind.PACKET_ARRIVAL, tick)
    sim.run_until(100)
    assert fired == [0, 10, 20, 30, 40, 50]


def test_draw_uniform_singleton_range():
    sim = Simulator(seed=7)
    assert sim.rng.draw_uniform(1) == 0


def test_draw_uniform_rejects_zero_range():
    sim = Simulator(seed=7)
    with pytest.raises(ValueError):
        sim.rng.draw_uniform(0)


def test_draw_uniform_pinned_regression():
    # frozen from the chosen generator: Random(42).randrange(8) x 3
    sim = Simulator(seed=42)
    assert [sim.rng.draw_uniform(8) for _ in range(3)] == [1, 0, 4]


def test_draw_uniform_replayable():
    a = Simulator(seed=123).rng
    b = Simulator(seed=123).rng
    assert [a.draw_uniform(100) for _ in range(50)] == [b.draw_uniform(100) for _ in range(50)]


def test_draw_uniform_roughly_uniform():
    sim = Simulator(seed=1)
    n = 100_000
    counts = [0, 0, 0, 0]
    for _ in range(n):
        counts[sim.rng.draw_uniform(4)] += 1
    for c in counts:
        assert abs(c / n - 0.25) < 0.01


def test_traffic_substream_independent_of_mac_draws():
    a = Simulator(seed=9).rng
    b = Simulator(seed=9).rng
    for _ in range(100):
        a.draw_uniform(16)  # MAC consumption must not shift traffic draws
    xs = [a.traffic.expovariate(1.0) for _ in range(20)]
    ys = [b.traffic.expovariate(1.0) for _ in range(20)]
    assert xs == ys
