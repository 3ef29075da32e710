"""Deterministic single-process network simulation.

Time is integer microseconds.  Events execute in (time, sequence) order,
where sequence is assignment order, so two same-seed runs replay the exact
same schedule.

``poll(delay_us, fn, idle_until)`` schedules ``fn`` as ``after`` does, for a
callback that polls a condition every ``delay_us``.  When it comes due at
``now`` and ``idle_until(now)`` is later than ``now``, ``fn`` does not run:
the poll is re-keyed, with a fresh sequence number, to the first point of
its grid (``now + k * delay_us``, ``k >= 1``) at or after the earliest of
``idle_until(now)``, the time of the next queued event and the end of the
current ``run_until`` plus one.  The guarantee: if ``fn``, run at any grid
point before ``idle_until(now)`` with no other event in between, would
only reschedule itself, then a poll runs ``fn`` at the same times and in
the same order among other events (same-microsecond ties included) as a
chain of ``after(delay_us, ...)`` ticks; only the idle ticks are skipped.
A re-key is not a new event: it goes onto the queue without ``at``.

A link carries wire bytes: it models store-and-forward serialization of
``len(data)`` bytes with a FIFO busy cursor, a fixed one-way delay,
optional uniform jitter, and seeded Bernoulli loss, and hands the receiver
the very bytes that were sent.  Dropped messages are counted and logged
with their length, never silently vanished.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .rng import Xorshift64Star, derive

__all__ = ["LinkConfig", "Link", "Simulator", "SimulationError"]


class SimulationError(Exception):
    pass


@dataclass(frozen=True)
class LinkConfig:
    bandwidth_bps: float          # bytes per second
    one_way_delay_us: int = 0
    loss_prob: float = 0.0
    jitter_us: int = 0
    seed: int = 0

    def __post_init__(self):
        # at one byte per second or more the largest wire message still
        # serializes in a finite integer number of microseconds
        if not self.bandwidth_bps >= 1.0:      # NaN too
            raise ValueError("bandwidth must be at least 1 byte per second")
        # a jitter of 1.5 would make randint(jitter + 1) draw a float
        for name in ("one_way_delay_us", "jitter_us"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.one_way_delay_us < 0 or self.jitter_us < 0:
            raise ValueError("delays must be non-negative")
        if self.jitter_us >= 1 << 64:           # drawn by randint(jitter + 1)
            raise ValueError("jitter_us must be below 2**64")
        if not 0.0 <= self.loss_prob < 1.0:
            raise ValueError("loss_prob must be in [0, 1)")


class Simulator:
    """Event queue plus the shared session log.

    Queued callbacks usually point back at the endpoints that own the
    simulator, so a run leaves reference cycles behind while events are
    still pending; whoever runs it calls ``close`` once it is done, and
    the cycles unwind by reference counting alone.
    """

    def __init__(self):
        self.now_us = 0
        self._queue: list[tuple[int, int, object]] = []
        self._seq = 0
        self.log: list[str] = []

    def at(self, time_us: int, fn) -> None:
        if time_us < self.now_us:
            raise ValueError(f"cannot schedule at {time_us} before now {self.now_us}")
        heapq.heappush(self._queue, (int(time_us), self._seq, fn))
        self._seq += 1

    def after(self, delay_us: int, fn) -> None:
        self.at(self.now_us + int(delay_us), fn)

    def poll(self, delay_us: int, fn, idle_until) -> None:
        """Schedule ``fn`` like ``after``; while ``idle_until(now) > now`` at
        a due time, skip it whole periods ahead instead of running it."""
        self.after(delay_us, _Poll(int(delay_us), fn, idle_until))

    def close(self) -> None:
        """Drop every pending event; ``now_us`` and ``log`` stay readable."""
        self._queue.clear()

    def log_event(self, event: str, frame_id: int = 0, offset: int = 0,
                  length: int = 0) -> None:
        self.log.append(f"{self.now_us},{event},{frame_id},{offset},{length}")

    def run_until(self, t_end_us: int) -> None:
        while self._queue and self._queue[0][0] <= t_end_us:
            time_us, seq, fn = heapq.heappop(self._queue)
            self.now_us = time_us
            try:
                if type(fn) is _Poll:
                    if self._skip_idle(fn, t_end_us):
                        continue
                    fn = fn.fn
                fn()
            except Exception as exc:
                raise SimulationError(
                    f"callback failed at t={time_us}us (event #{seq}): {exc}"
                ) from exc
        self.now_us = max(self.now_us, t_end_us)

    def _skip_idle(self, poll: "_Poll", t_end_us: int) -> bool:
        """Re-key a due poll whose idle horizon lies ahead; False if it runs."""
        now = self.now_us
        wake = poll.idle_until(now)
        if not wake > now:
            return False
        wake = min(wake, t_end_us + 1)
        if self._queue:
            wake = min(wake, self._queue[0][0])
        periods = max(1, -int((now - wake) // poll.period))   # ceil
        heapq.heappush(self._queue, (now + periods * poll.period, self._seq, poll))
        self._seq += 1
        return True


class _Poll(NamedTuple):
    """A queued ``poll``: its period, callback and idle horizon."""

    period: int
    fn: Callable[[], None]
    idle_until: Callable[[int], float]


class Link:
    """One direction of a point-to-point link."""

    def __init__(self, sim: Simulator, config: LinkConfig, name: str = "link"):
        self.sim = sim
        self.config = config
        self.name = name
        self.deliver = None           # callback(data)
        self._busy_until = 0
        self._rng = Xorshift64Star(derive(config.seed, "link", name))
        self.sent = 0
        self.dropped = 0

    def send(self, data: bytes) -> int:
        """Queue wire bytes; they arrive via the deliver callback or drop.
        Returns the time their last byte leaves the sender."""
        if self.deliver is None:
            raise SimulationError(f"link {self.name} has no receiver")
        cfg = self.config
        start = max(self.sim.now_us, self._busy_until)
        ser_us = int(round(len(data) * 1e6 / cfg.bandwidth_bps))
        self._busy_until = start + ser_us
        self.sent += 1

        if cfg.loss_prob > 0.0 and self._rng.uniform() < cfg.loss_prob:
            self.dropped += 1
            self.sim.log_event(f"{self.name}_drop", length=len(data))
            return self._busy_until

        jitter = self._rng.randint(cfg.jitter_us + 1) if cfg.jitter_us else 0
        arrival = self._busy_until + cfg.one_way_delay_us + jitter
        deliver = self.deliver
        self.sim.at(arrival, lambda: deliver(data))
        return self._busy_until
