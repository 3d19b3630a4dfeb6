"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.simnet import engine
from repro.simnet.engine import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_fifo(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_execute(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_zero_delay_event_runs_at_same_time(self, sim):
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_cancel_one_of_many(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        handle = sim.schedule(2.0, fired.append, "b")
        sim.schedule(3.0, fired.append, "c")
        handle.cancel()
        sim.run()
        assert fired == ["a", "c"]

    def test_cancel_releases_references(self, sim):
        class Big:
            pass

        obj = Big()
        handle = sim.schedule(1.0, lambda o: None, obj)
        handle.cancel()
        assert handle.args == ()


class TestRunBounds:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == 2.0

    def test_run_until_resumable(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=2.0)
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_no_events(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_max_events_bound(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_stop_when_predicate(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(stop_when=lambda: len(fired) >= 4)
        assert fired == [0, 1, 2, 3]

    def test_stop_honoured_with_stop_on_request(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run(until=10.0, stop_on_request=True)
        assert fired == ["a"]
        assert sim.now == 1.0  # a stopped run does not jump to `until`
        sim.run(stop_on_request=True)
        assert fired == ["a", "b"]

    def test_stop_cleared_without_stop_on_request(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b"]
        # ... and the ignored request does not leak into the next run.
        sim.schedule(1.0, fired.append, "c")
        sim.schedule(2.0, fired.append, "d")
        sim.run(stop_on_request=True)
        assert fired == ["a", "b", "c", "d"]

    def test_run_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(RuntimeError):
            sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_runs_single_event(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        assert sim.step() is True
        assert fired == ["a"]


class TestIntrospection:
    def test_pending_and_processed_counters(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.pending == 5
        sim.run()
        assert sim.pending == 0
        assert sim.processed == 5

    def test_peek_time_skips_cancelled(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        assert sim.peek_time() == 2.0

    def test_peek_time_empty(self, sim):
        assert sim.peek_time() is None


# The interpreted loop is what runs where _evloop.c did not build (and
# under max_events / stop_when everywhere); every case above runs on it
# too, on every host.  Subclasses rather than a parametrised ``sim``
# fixture so the cases above keep their test ids.
@pytest.fixture
def interpreted(monkeypatch):
    monkeypatch.setattr(engine, "_evloop", None)


@pytest.mark.usefixtures("interpreted")
class TestSchedulingInterpreted(TestScheduling):
    pass


@pytest.mark.usefixtures("interpreted")
class TestCancellationInterpreted(TestCancellation):
    pass


@pytest.mark.usefixtures("interpreted")
class TestRunBoundsInterpreted(TestRunBounds):
    pass


@pytest.mark.usefixtures("interpreted")
class TestIntrospectionInterpreted(TestIntrospection):
    pass


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50))
def test_property_events_fire_in_nondecreasing_time(delays):
    """Whatever the scheduling order, firing times never decrease."""
    sim = Simulator()
    times = []
    for d in delays:
        sim.schedule(d, lambda: times.append(sim.now))
    sim.run()
    assert len(times) == len(delays)
    assert all(t1 <= t2 for t1, t2 in zip(times, times[1:]))
