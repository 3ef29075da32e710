"""Reference estimator: every read of the loss view re-scans the pending
packets, and ``next_change_us`` finds the next aging instant in a pass of
its own.

This is ``splitstream.protocol.BandwidthEstimator`` as it was before the
loss view was memoised between change instants, kept verbatim as the oracle
the memoised version is tested against: every reader and every counter must
agree after any interleaving of sends, confirmations and reads.
"""

from __future__ import annotations

import math
from collections import deque

from splitstream.protocol import Confirmation, ProtocolError


class BandwidthEstimator:
    """Confirmed-byte bandwidth over a sliding window, plus loss presumption.

    Packets are keyed by (frame_id, offset).  One still unconfirmed after
    ``presume_after_rtts`` round trips counts as presumptively lost at
    confidence ``loss_ewma``; after twice that age it is declared lost
    outright.  ``loss_ewma`` starts at 1.0 (an aged packet is assumed gone)
    and is corrected downward whenever a confirmation does arrive late,
    at smoothing factor alpha.
    """

    WINDOW_US = 1_000_000
    MIN_SAMPLES = 4
    PRIOR_BW = 1e6            # bytes/second
    LOSS_ALPHA = 0.1
    PRESUME_AFTER_RTTS = 2

    def __init__(self, rtt_us: int):
        if rtt_us < 0:
            raise ValueError("rtt must be non-negative")
        self.rtt_us = rtt_us
        self.loss_ewma = 1.0
        self.bytes_sent = 0
        self.bytes_confirmed = 0
        self.bytes_declared_lost = 0
        self._pending: dict[tuple[int, int], tuple[int, int]] = {}  # key -> (sent_us, size)
        self._confirmed: set[tuple[int, int]] = set()
        self._declared: dict[tuple[int, int], int] = {}
        self._samples: deque[tuple[int, int]] = deque()  # (recv_time_us, bytes)
        self._window_bytes = 0      # sum of the sample sizes

    # -- sending side bookkeeping

    def record_sent(self, frame_id: int, offset: int, size: int, now_us: int) -> None:
        key = (frame_id, offset)
        if key in self._pending or key in self._confirmed or key in self._declared:
            raise ProtocolError(f"duplicate send of packet {key}")
        self._pending[key] = (now_us, size)
        self.bytes_sent += size

    def process_confirmation(self, conf: Confirmation, now_us: int) -> None:
        key = (conf.frame_id, conf.packet_offset)
        self._sweep_declared(now_us)
        if key in self._confirmed:
            return  # duplicate receipt
        if key in self._pending:
            sent_us, size = self._pending.pop(key)
            if now_us - sent_us > self.PRESUME_AFTER_RTTS * self.rtt_us:
                # late arrival: aged packets are not always lost
                self.loss_ewma += self.LOSS_ALPHA * (0.0 - self.loss_ewma)
        elif key in self._declared:
            size = self._declared.pop(key)
            self.bytes_declared_lost -= size
            self.loss_ewma += self.LOSS_ALPHA * (0.0 - self.loss_ewma)
        else:
            raise ProtocolError(f"confirmation for unknown packet {key}")
        self._confirmed.add(key)
        self.bytes_confirmed += size
        self._samples.append((conf.recv_time_us, size))
        self._window_bytes += size

    def _sweep_declared(self, now_us: int) -> None:
        """Move packets older than twice the presumption age to declared-lost."""
        cutoff = now_us - 2 * self.PRESUME_AFTER_RTTS * self.rtt_us
        for key in [k for k, (t, _) in self._pending.items() if t < cutoff]:
            _, size = self._pending.pop(key)
            self._declared[key] = size
            self.bytes_declared_lost += size
            self.loss_ewma += self.LOSS_ALPHA * (1.0 - self.loss_ewma)

    def record_received(self, size: int, now_us: int) -> None:
        """Receiver-side hook: count arrived bytes toward the rate window."""
        self._samples.append((now_us, size))
        self._window_bytes += size

    # -- estimates

    def estimate_bandwidth(self, now_us: int) -> float:
        """Bytes per second from confirmations inside the window; a cold or
        sparse window falls back to the prior, and a window of zero-byte
        receipts reads 1 byte/s, never zero."""
        horizon = now_us - self.WINDOW_US
        while self._samples and self._samples[0][0] < horizon:
            self._window_bytes -= self._samples.popleft()[1]
        if len(self._samples) < self.MIN_SAMPLES:
            return self.PRIOR_BW
        span_us = now_us - self._samples[0][0]
        if span_us <= 0:
            return self.PRIOR_BW
        return max(self._window_bytes * 1e6 / span_us, 1.0)

    def expected_lost_bytes(self, now_us: int) -> float:
        """Declared losses plus the presumed share of aged in-flight bytes."""
        self._sweep_declared(now_us)
        horizon = now_us - self.PRESUME_AFTER_RTTS * self.rtt_us
        aged = sum(size for t, size in self._pending.values() if t <= horizon)
        return self.bytes_declared_lost + self.loss_ewma * aged

    def unreceived_bytes(self, now_us: int) -> float:
        return self.bytes_sent - self.bytes_confirmed - self.expected_lost_bytes(now_us)

    def next_change_us(self, now_us: int) -> float:
        """The earliest time after ``now_us`` at which a pending packet ages
        into presumed loss or into declared loss (inf if none will): with no
        send or confirmation in between, ``unreceived_bytes`` holds its value
        until then."""
        age = self.PRESUME_AFTER_RTTS * self.rtt_us
        return min((t for sent_us, _ in self._pending.values()
                    for t in (sent_us + age, sent_us + 2 * age + 1)
                    if t > now_us), default=math.inf)

    def outstanding_bytes(self) -> int:
        """In-flight bytes not yet confirmed or declared lost."""
        return self.bytes_sent - self.bytes_confirmed - self.bytes_declared_lost
