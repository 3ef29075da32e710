import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitstream import Link, LinkConfig, SimulationError, Simulator


def _wire(sim, config, name="down"):
    link = Link(sim, config, name=name)
    arrivals = []
    link.deliver = lambda data: arrivals.append((sim.now_us, data))
    return link, arrivals


class TestLinkConfig:
    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ValueError, match="bandwidth"):
            LinkConfig(bandwidth_bps=0)

    def test_bandwidth_at_least_one_byte_per_second(self):
        for tiny in (1e-320, 0.999):
            with pytest.raises(ValueError, match="bandwidth"):
                LinkConfig(bandwidth_bps=tiny)
        # the largest wire message still serializes in finite time
        sim = Simulator()
        link, arrivals = _wire(sim, LinkConfig(bandwidth_bps=1.0))
        link.send(bytes(19 + 0xFFFF))
        sim.run_until(65_554_000_000)
        assert arrivals[0][0] == 65_554_000_000

    def test_delays_non_negative(self):
        with pytest.raises(ValueError, match="delay"):
            LinkConfig(bandwidth_bps=1e6, one_way_delay_us=-1)
        with pytest.raises(ValueError, match="delay"):
            LinkConfig(bandwidth_bps=1e6, jitter_us=-1)

    @pytest.mark.parametrize("field", ["one_way_delay_us", "jitter_us"])
    @pytest.mark.parametrize("value", [1.5, 2.0, float("nan"), True])
    def test_delays_are_integers(self, field, value):
        # a jitter of 1.5 once made Xorshift64Star.randint draw a float
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            LinkConfig(bandwidth_bps=1e6, **{field: value})

    def test_loss_prob_range(self):
        with pytest.raises(ValueError, match="loss_prob"):
            LinkConfig(bandwidth_bps=1e6, loss_prob=1.0)
        assert LinkConfig(bandwidth_bps=1e6, loss_prob=0.999).loss_prob == 0.999


class TestSimulator:
    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.at(10, lambda: None)
        sim.run_until(10)
        assert sim.now_us == 10
        with pytest.raises(ValueError, match="before now"):
            sim.at(5, lambda: None)

    def test_time_then_insertion_order(self):
        sim = Simulator()
        ran = []
        for label, t in [("a", 5), ("b", 1), ("c", 5), ("d", 3), ("e", 1)]:
            sim.at(t, lambda label=label: ran.append(label))
        sim.run_until(5)
        assert ran == ["b", "e", "d", "a", "c"]

    def test_run_until_boundary_inclusive(self):
        sim = Simulator()
        ran = []
        sim.at(10, lambda: ran.append("x"))
        sim.run_until(9)
        assert ran == [] and sim.now_us == 9
        sim.run_until(10)
        assert ran == ["x"] and sim.now_us == 10

    def test_run_until_advances_clock_on_empty_queue(self):
        sim = Simulator()
        sim.run_until(12345)
        assert sim.now_us == 12345

    def test_after_is_relative(self):
        sim = Simulator()
        stamps = []
        sim.at(100, lambda: sim.after(50, lambda: stamps.append(sim.now_us)))
        sim.run_until(150)
        assert stamps == [150]

    def test_callback_failure_carries_context(self):
        sim = Simulator()

        def boom():
            raise KeyError("missing frame")

        sim.at(42, boom)
        with pytest.raises(SimulationError, match="t=42us") as exc:
            sim.run_until(42)
        assert isinstance(exc.value.__cause__, KeyError)

    def test_log_line_format(self):
        sim = Simulator()
        sim.at(7, lambda: sim.log_event("send", frame_id=3, offset=100,
                                        length=9))
        sim.run_until(7)
        assert sim.log == ["7,send,3,100,9"]

    def test_close_drops_pending_events(self):
        sim = Simulator()
        ran = []
        sim.at(5, lambda: sim.log_event("early"))
        sim.at(20, lambda: ran.append("late"))
        sim.poll(30, lambda: ran.append("poll"), lambda now: now)
        sim.run_until(10)
        sim.close()
        sim.run_until(100)
        assert ran == [] and sim.now_us == 100
        assert sim.log == ["5,early,0,0,0"]


class TestLink:
    def test_serialization_plus_delay(self):
        sim = Simulator()
        link, arrivals = _wire(
            sim, LinkConfig(bandwidth_bps=1e6, one_way_delay_us=5000))
        link.send(bytes(10 ** 6))
        sim.run_until(1_005_000)
        assert arrivals == [(1_005_000, bytes(10 ** 6))]

    def test_receiver_required(self):
        sim = Simulator()
        link = Link(sim, LinkConfig(bandwidth_bps=1e6))
        with pytest.raises(SimulationError, match="no receiver"):
            link.send(bytes(100))

    def test_fifo_serialization(self):
        sim = Simulator()
        link, arrivals = _wire(
            sim, LinkConfig(bandwidth_bps=1e5, one_way_delay_us=2000))
        link.send(b"1" * 1000)   # 10 ms on the wire
        link.send(b"2" * 1000)   # queues behind it
        sim.run_until(22_000)
        assert arrivals == [(12_000, b"1" * 1000), (22_000, b"2" * 1000)]

    def test_send_returns_when_the_last_byte_leaves(self):
        # a dropped message holds the wire as long as a delivered one
        sim = Simulator()
        link, _ = _wire(sim, LinkConfig(
            bandwidth_bps=1e5, one_way_delay_us=2000, loss_prob=0.5, seed=3))
        assert [link.send(bytes(1000)) for _ in range(6)] == [
            10_000, 20_000, 30_000, 40_000, 50_000, 60_000]
        assert 0 < link.dropped < 6

    def test_busy_cursor_resets_after_idle(self):
        sim = Simulator()
        link, arrivals = _wire(sim, LinkConfig(bandwidth_bps=1e5))
        link.send(bytes(1000))
        sim.run_until(10_000)
        sim.at(100_000, lambda: link.send(bytes(1000)))
        sim.run_until(110_000)
        assert [t for t, _ in arrivals] == [10_000, 110_000]

    def test_losses_logged_and_conserved(self):
        sim = Simulator()
        link, arrivals = _wire(
            sim, LinkConfig(bandwidth_bps=1e6, loss_prob=0.3, seed=11))
        for i in range(100):
            sim.at(i * 1000, lambda: link.send(bytes(100)))
        sim.run_until(99_100)
        assert link.sent == 100
        assert link.dropped > 0
        assert len(arrivals) + link.dropped == link.sent
        drops = [line for line in sim.log if "down_drop" in line]
        assert len(drops) == link.dropped
        assert all(line.endswith(",100") for line in drops)  # wire length

    def test_near_certain_loss_drops(self):
        sim = Simulator()
        link, arrivals = _wire(
            sim, LinkConfig(bandwidth_bps=1e6, loss_prob=0.999, seed=1))
        for _ in range(10):
            link.send(bytes(10))
        sim.run_until(100)
        assert link.dropped >= 9
        assert len(arrivals) + link.dropped == link.sent == 10

    def test_jitter_bounded_and_nondegenerate(self):
        offsets = []
        for seed in range(20):
            sim = Simulator()
            link, arrivals = _wire(
                sim,
                LinkConfig(bandwidth_bps=1e6, one_way_delay_us=1000,
                           jitter_us=500, seed=seed))
            link.send(bytes(1000))  # 1 ms serialization
            sim.run_until(2_500)
            offsets.append(arrivals[0][0] - 2000)
        assert all(0 <= o <= 500 for o in offsets)
        assert len(set(offsets)) > 1

    def test_unjittered_arrivals_fifo_ordered(self):
        sim = Simulator()
        link, arrivals = _wire(
            sim, LinkConfig(bandwidth_bps=1e5, one_way_delay_us=700))
        for i in range(10):
            sim.at(i * 3000,
                   lambda i=i: link.send(bytes([i]) * (500 + 100 * i)))
        sim.run_until(100_000)
        times = [t for t, _ in arrivals]
        assert times == sorted(times)
        assert [data[0] for _, data in arrivals] == list(range(10))

    def test_same_seed_identical_logs(self):
        def run_once():
            sim = Simulator()
            link = Link(
                sim,
                LinkConfig(bandwidth_bps=1e5, one_way_delay_us=1500,
                           loss_prob=0.2, jitter_us=300, seed=7))
            link.deliver = lambda data: sim.log_event("recv", frame_id=data[0])
            for i in range(30):
                sim.at(i * 2000, lambda i=i: link.send(bytes([i]) * 400))
            sim.run_until(200_000)
            return sim.log

        assert run_once() == run_once()


def _poll_trace(use_poll, period, ticks_gap, opens, idle_short, cuts, horizon):
    """The (kind, time) trace of a gated tick chain among other events.

    The tick acts when ``now >= open_at``: it records itself, shuts the gate
    for the next entry of ``ticks_gap`` and re-arms one period on.  Each
    entry of ``opens`` is an event at ``time`` that sets ``open_at`` to
    ``time + delay`` (None: shut for good) and, unless ``child`` is None,
    pushes another such event, with delay ``child``, onto the next grid
    point, after the tick there was scheduled.  The reference re-arms with
    ``after`` and refuses while shut; the poll version gives ``idle_until``
    a horizon that falls short of ``open_at`` by the cycled ``idle_short``
    amounts.  ``run_until`` is called at each of ``cuts``, and a cut may
    then push an event itself.
    """
    sim = Simulator()
    trace = []
    state = {"open_at": 0, "ticks": 0, "calls": 0}

    def idle_until(now):
        if now >= state["open_at"]:
            return now
        short = idle_short[state["calls"] % len(idle_short)]
        state["calls"] += 1
        return max(now + 1, state["open_at"] - short)

    def arm():
        if use_poll:
            sim.poll(period, tick, idle_until)
        else:
            sim.after(period, tick)

    def tick():
        if sim.now_us < state["open_at"]:
            assert not use_poll, "a poll ran its callback while idle"
            arm()
            return
        trace.append(("tick", sim.now_us))
        state["open_at"] = sim.now_us + ticks_gap[state["ticks"] % len(ticks_gap)]
        state["ticks"] += 1
        arm()

    def other(i, delay, child):
        trace.append((f"ev{i}", sim.now_us))
        state["open_at"] = math.inf if delay is None else sim.now_us + delay
        if child is not None:
            grid = (sim.now_us // period + 1) * period
            sim.at(grid, lambda: other(f"{i}c", child, None))

    for i, (time_us, delay, child) in enumerate(opens):
        sim.at(time_us, lambda i=i, d=delay, c=child: other(i, d, c))
    arm()
    for t_end, push in sorted(cuts) + [(horizon, None)]:
        sim.run_until(t_end)
        if push is not None:    # from outside the run, between two calls
            sim.at(t_end + push[0], lambda d=push[1]: other("x", d, None))
    return trace


@st.composite
def _poll_cases(draw):
    period = draw(st.integers(1, 50))
    horizon = period * draw(st.integers(1, 200))
    # other events: half of them exactly on the tick grid
    opens = draw(st.lists(st.tuples(
        st.one_of(st.integers(0, horizon).map(lambda t: t - t % period),
                  st.integers(0, horizon)),
        st.one_of(st.none(), st.integers(0, 30 * period)),
        st.none() | st.integers(0, 3 * period)), max_size=12))
    return dict(
        period=period, horizon=horizon, opens=opens,
        ticks_gap=draw(st.lists(st.integers(0, 20 * period), min_size=1, max_size=5)),
        idle_short=draw(st.lists(st.integers(0, 10 * period), min_size=1, max_size=4)),
        cuts=draw(st.lists(st.tuples(
            st.integers(0, horizon),
            st.none() | st.tuples(st.integers(0, 3 * period), st.integers(0, period))),
            max_size=4, unique_by=lambda cut: cut[0])),
    )


class TestPoll:
    @given(_poll_cases())
    def test_runs_like_a_chain_of_after_ticks(self, case):
        reference = _poll_trace(False, **case)
        assert _poll_trace(True, **case) == reference

    def test_skips_idle_polls(self):
        sim = Simulator()
        ran, asked = [], []

        def idle_until(now):
            asked.append(now)
            return 10_000

        sim.poll(100, lambda: ran.append(sim.now_us), idle_until)
        sim.at(2_550, lambda: None)
        sim.run_until(20_000)
        # due at 100, re-keyed to the grid point at or after the event at
        # 2550, then to 10_000, where the horizon is no longer ahead
        assert asked == [100, 2_600, 10_000] and ran == [10_000]

    def test_idle_until_failure_surfaces(self):
        sim = Simulator()

        def idle_until(now):
            raise KeyError("no estimator")

        sim.poll(7, lambda: None, idle_until)
        with pytest.raises(SimulationError, match="t=7us") as exc:
            sim.run_until(10)
        assert isinstance(exc.value.__cause__, KeyError)
