"""Tensor streaming protocol: wire format, pacing and reassembly.

Every message shares one little-endian 19-byte header:

    magic       u16   0x4654
    version     u8    1
    msg_type    u8    DATA=1 CONFIRM=2 MODEL_SWITCH=3 MODEL_READY=4 RESULT=5
    frame_id    u32
    offset      u32   byte offset of this payload within the frame
    total_len   u32   full frame length in bytes
    flags       u8    bit 0 = END_OF_TENSOR, bits 1-7 zero
    payload_len u16
    payload     payload_len bytes

END_OF_TENSOR is set exactly when offset + payload_len == total_len, so a
receiver can recognize the flush without bookkeeping; ``WireMessage``
derives it from that geometry (``end_of_tensor``) and ``decode_message``
refuses any other flag byte.  DATA payloads carry bitstream chunks;
CONFIRM payloads carry a fixed 24-byte receipt (frame, packet offset,
cumulative unique bytes, receive time); the control types carry JSON.

The sender side couples a frame queue (``SendBuffer``) with a
``BandwidthEstimator`` that meters confirmed bytes over a sliding window
and presumes unconfirmed packets lost once they outlive two round trips.
``gate_shut_until`` is the send gate: shut until the server slot has come
and everything previously sent is either confirmed or presumed lost, which
caps in-flight data at one MSS beyond the presumed-lost pool.  Between a
send and a confirmation its view changes only when a pending packet ages
into presumed or declared loss (``next_change_us``), so the estimator
computes that view in one pass over its pending packets and keeps it until
the next such instant, or until a send or confirmation clears it; the
send buffer keeps a running count of its unsent bytes.  Reading the gate
therefore costs no scan between changes.
``should_process_frame`` is the capture-time drop rule: skip the frame
when the wait for the next server slot or the time to drain the backlog
outlasts the client's work on it.
"""

from __future__ import annotations

import bisect
import json
import math
import struct
from collections import deque
from dataclasses import dataclass
from enum import IntEnum

__all__ = [
    "MsgType",
    "WireMessage",
    "Confirmation",
    "ProtocolError",
    "ReassemblyError",
    "FLAG_END_OF_TENSOR",
    "WIRE_HEADER",
    "encode_message",
    "decode_message",
    "make_control",
    "parse_control",
    "SendBuffer",
    "process_send_buffer",
    "BandwidthEstimator",
    "gate_shut_until",
    "may_send",
    "should_process_frame",
    "FrameAssembler",
    "reassemble",
    "frame_deadline_us",
]

WIRE_MAGIC = 0x4654
WIRE_VERSION = 1
WIRE_HEADER = struct.Struct("<HBBIIIBH")
CONFIRM_PAYLOAD = struct.Struct("<IIQQ")
FLAG_END_OF_TENSOR = 0x01

# slack a receiver adds to two round trips plus the transfer time
DEADLINE_MARGIN_US = 50_000


class MsgType(IntEnum):
    DATA = 1
    CONFIRM = 2
    MODEL_SWITCH = 3
    MODEL_READY = 4
    RESULT = 5


class ProtocolError(Exception):
    pass


class ReassemblyError(ProtocolError):
    pass


@dataclass(frozen=True)
class WireMessage:
    msg_type: MsgType
    frame_id: int
    offset: int
    total_len: int
    payload: bytes = b""

    def __post_init__(self):
        if len(self.payload) > 0xFFFF:
            raise ProtocolError(f"payload {len(self.payload)} exceeds u16 range")

    @property
    def end_of_tensor(self) -> bool:
        return self.offset + len(self.payload) == self.total_len


@dataclass(frozen=True)
class Confirmation:
    """Receipt for one DATA packet."""

    frame_id: int
    packet_offset: int
    cumulative_bytes: int     # unique frame bytes held by the receiver
    recv_time_us: int

    def pack(self) -> bytes:
        return CONFIRM_PAYLOAD.pack(
            self.frame_id, self.packet_offset, self.cumulative_bytes,
            self.recv_time_us,
        )

    @classmethod
    def unpack(cls, payload: bytes) -> "Confirmation":
        if len(payload) != CONFIRM_PAYLOAD.size:
            raise ProtocolError(
                f"confirmation payload must be {CONFIRM_PAYLOAD.size} bytes"
            )
        return cls(*CONFIRM_PAYLOAD.unpack(payload))

    def message(self) -> WireMessage:
        """The CONFIRM message carrying this receipt."""
        payload = self.pack()
        return WireMessage(MsgType.CONFIRM, self.frame_id, 0, len(payload),
                           payload)


def encode_message(msg: WireMessage) -> bytes:
    return WIRE_HEADER.pack(
        WIRE_MAGIC, WIRE_VERSION, int(msg.msg_type), msg.frame_id,
        msg.offset, msg.total_len,
        FLAG_END_OF_TENSOR if msg.end_of_tensor else 0, len(msg.payload),
    ) + msg.payload


def decode_message(data: bytes) -> WireMessage:
    if len(data) < WIRE_HEADER.size:
        raise ProtocolError(f"buffer {len(data)} shorter than header")
    magic, version, mtype, frame_id, offset, total_len, flags, plen = \
        WIRE_HEADER.unpack_from(data)
    if magic != WIRE_MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04x}")
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported version {version}")
    try:
        mtype = MsgType(mtype)
    except ValueError:
        raise ProtocolError(f"unknown message type {mtype}") from None
    if len(data) != WIRE_HEADER.size + plen:
        raise ProtocolError(
            f"buffer {len(data)} does not match header + payload_len {plen}"
        )
    msg = WireMessage(
        msg_type=mtype, frame_id=frame_id, offset=offset,
        total_len=total_len, payload=data[WIRE_HEADER.size:],
    )
    if flags != (FLAG_END_OF_TENSOR if msg.end_of_tensor else 0):
        raise ProtocolError(
            f"flag byte 0x{flags:02x} does not match END_OF_TENSOR geometry"
        )
    return msg


def make_control(msg_type: MsgType, frame_id: int, obj: dict) -> WireMessage:
    payload = json.dumps(obj, sort_keys=True).encode("utf-8")
    return WireMessage(
        msg_type=msg_type, frame_id=frame_id, offset=0,
        total_len=len(payload), payload=payload,
    )


def parse_control(msg: WireMessage) -> dict:
    """The JSON object a control message carries; any other payload,
    including one past the parser's depth or digit limits, raises
    ``ProtocolError``."""
    try:
        obj = json.loads(msg.payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # includes Unicode and JSON errors
        raise ProtocolError(f"bad control payload: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"control payload is a JSON {type(obj).__name__}, not an object"
        )
    return obj


# --------------------------------------------------------------------- sender


@dataclass
class _QueuedFrame:
    frame_id: int
    data: bytes
    next_offset: int = 0


class SendBuffer:
    """FIFO of whole frame bitstreams awaiting packetization.

    A frame is enqueued complete, so the total_len every wire header
    carries is known up front, and it leaves the queue with its last
    packet: the head frame always has bytes left to send.
    """

    def __init__(self):
        self._frames: deque[_QueuedFrame] = deque()
        self._unsent = 0            # bytes of the queued frames not yet popped

    def enqueue(self, frame_id: int, data: bytes) -> None:
        """Queue a frame's whole bitstream behind the frames already queued."""
        if not data:
            raise ValueError(f"frame {frame_id} is empty")
        self._frames.append(_QueuedFrame(frame_id, bytes(data)))
        self._unsent += len(data)

    @property
    def pending_bytes(self) -> int:
        return self._unsent

    def peek(self) -> tuple[int, int] | None:
        """(frame_id, offset) of the message pop_next would emit, or None."""
        if not self._frames:
            return None
        head = self._frames[0]
        return head.frame_id, head.next_offset

    def pop_next(self, mss: int) -> WireMessage | None:
        """Next DATA message of the head frame, or None when the queue is
        empty.  Full-MSS chunks go out while available; the remainder goes
        out sub-MSS, with END_OF_TENSOR."""
        if mss < 1:
            raise ValueError("mss must be positive")
        if not self._frames:
            return None
        frame = self._frames[0]
        total = len(frame.data)
        offset = frame.next_offset
        chunk = frame.data[offset:offset + mss]
        frame.next_offset += len(chunk)
        self._unsent -= len(chunk)
        if frame.next_offset == total:
            self._frames.popleft()
        return WireMessage(
            msg_type=MsgType.DATA, frame_id=frame.frame_id, offset=offset,
            total_len=total, payload=chunk,
        )


def process_send_buffer(buffer: SendBuffer, mss: int) -> list[WireMessage]:
    """Drain every currently emittable DATA message, in order."""
    out = []
    while (msg := buffer.pop_next(mss)) is not None:
        out.append(msg)
    return out


# ------------------------------------------------------------------ estimator


class BandwidthEstimator:
    """Confirmed-byte bandwidth over a sliding window, plus loss presumption.

    Packets are keyed by (frame_id, offset).  One still unconfirmed after
    ``presume_after_rtts`` round trips counts as presumptively lost at
    confidence ``loss_ewma``; after twice that age it is declared lost
    outright.  ``loss_ewma`` starts at 1.0 (an aged packet is assumed gone)
    and is corrected downward whenever a confirmation does arrive late,
    at smoothing factor alpha.

    The loss view (``expected_lost_bytes``, ``unreceived_bytes``,
    ``next_change_us``) is piecewise constant in integer microseconds: it
    moves only at a send, a confirmation, or the instant a pending packet
    ages into presumed or declared loss.  One pass over the pending packets
    declares the overdue ones and gives both the expected lost bytes and
    that next instant; the result is kept as ``(from_us, until_us,
    expected_lost)`` and read for every ``now_us`` in ``[from_us,
    until_us)``.  ``record_sent`` and ``process_confirmation`` clear it.
    Every reader, ``next_change_us`` included, first declares the packets
    overdue at ``now_us``.
    """

    WINDOW_US = 1_000_000
    MIN_SAMPLES = 4
    PRIOR_BW = 1e6            # bytes/second
    LOSS_ALPHA = 0.1
    PRESUME_AFTER_RTTS = 2

    def __init__(self, rtt_us: int):
        if not 0 <= rtt_us < math.inf:          # NaN too
            raise ValueError(f"rtt must be non-negative and finite, got {rtt_us}")
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
        self._view: tuple[int, float, float] | None = None

    # -- sending side bookkeeping

    def record_sent(self, frame_id: int, offset: int, size: int, now_us: int) -> None:
        key = (frame_id, offset)
        if key in self._pending or key in self._confirmed or key in self._declared:
            raise ProtocolError(f"duplicate send of packet {key}")
        self._pending[key] = (now_us, size)
        self.bytes_sent += size
        self._view = None

    def process_confirmation(self, conf: Confirmation, now_us: int) -> None:
        key = (conf.frame_id, conf.packet_offset)
        self._loss_view(now_us)     # declares what is overdue at now_us
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
        self._view = None
        self._confirmed.add(key)
        self.bytes_confirmed += size
        self._samples.append((conf.recv_time_us, size))
        self._window_bytes += size

    def _loss_view(self, now_us: int) -> tuple[int, float, float]:
        """``(from_us, until_us, expected_lost)``, valid for every time in
        ``[from_us, until_us)`` with no send or confirmation in between.

        When the kept view does not cover ``now_us``, one pass over the
        pending packets moves those older than twice the presumption age to
        declared-lost, sums the bytes of those past the presumption age, and
        finds the earliest instant after ``now_us`` at which one ages into
        presumed loss or into declared loss (inf if none will).
        """
        view = self._view
        if view is not None and view[0] <= now_us < view[1]:
            return view
        age = self.PRESUME_AFTER_RTTS * self.rtt_us
        cutoff = now_us - 2 * age
        horizon = now_us - age
        overdue = []
        aged = 0
        until = math.inf
        for key, (sent_us, size) in self._pending.items():
            if sent_us < cutoff:
                overdue.append(key)
            elif sent_us <= horizon:
                aged += size
                until = min(until, sent_us + 2 * age + 1)
            else:
                until = min(until, sent_us + age)
        for key in overdue:
            _, size = self._pending.pop(key)
            self._declared[key] = size
            self.bytes_declared_lost += size
            self.loss_ewma += self.LOSS_ALPHA * (1.0 - self.loss_ewma)
        self._view = view = (now_us, until,
                             self.bytes_declared_lost + self.loss_ewma * aged)
        return view

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
        return self._loss_view(now_us)[2]

    def unreceived_bytes(self, now_us: int) -> float:
        return self.bytes_sent - self.bytes_confirmed - self.expected_lost_bytes(now_us)

    def next_change_us(self, now_us: int) -> float:
        """The earliest time after ``now_us`` at which a pending packet ages
        into presumed loss or into declared loss (inf if none will): with no
        send or confirmation in between, ``unreceived_bytes`` holds its value
        until then."""
        return self._loss_view(now_us)[1]

    def outstanding_bytes(self) -> int:
        """In-flight bytes not yet confirmed or declared lost."""
        return self.bytes_sent - self.bytes_confirmed - self.bytes_declared_lost


def gate_shut_until(est: BandwidthEstimator, now_us: int, slot_us: float) -> float:
    """The time before which the send gate stays shut if only the clock
    moves (``now_us`` if open): the server slot, and while sent bytes are
    unaccounted for, at least the estimator's ``next_change_us``."""
    if est.unreceived_bytes(now_us) <= 0.0:
        return max(now_us, slot_us)
    return max(slot_us, est.next_change_us(now_us))


def may_send(est: BandwidthEstimator, now_us: int, slot_us: float) -> bool:
    """Whether the send gate is open at ``now_us``."""
    return gate_shut_until(est, now_us, slot_us) <= now_us


def should_process_frame(client_remain_us: float, server_remain_us: float,
                         bandwidth_remain_us: float) -> bool:
    """Capture-time keep/drop rule.

    Drop the frame when either the wait for the next server slot or the
    time to drain the send backlog outlasts the client-side work; keep it
    when the client work takes at least as long as both.
    """
    return not (
        client_remain_us < server_remain_us
        or client_remain_us < bandwidth_remain_us
    )


# ------------------------------------------------------------------ receiver


class FrameAssembler:
    """Order-independent reassembly of one frame's DATA messages.

    It holds only the declared length, the segments and their offsets in
    order; the receiver keeps its own arrival clock for the frame deadline.
    Accepted segments never overlap, so in offset order each one ends at or
    before the next one starts, and a new segment can only overlap its two
    neighbours: an ``add`` looks at no other segment.
    """

    def __init__(self, frame_id: int):
        self.frame_id = frame_id
        self.total_len: int | None = None
        self.bytes_received = 0
        self._segments: dict[int, bytes] = {}
        self._offsets: list[int] = []       # keys of _segments, sorted

    def add(self, msg: WireMessage) -> int:
        """Ingest a DATA message; returns the bytes newly added (0 for a
        duplicate).  Conflicting metadata discards the frame via error."""
        if msg.msg_type != MsgType.DATA:
            raise ReassemblyError(f"not a DATA message: {msg.msg_type}")
        if msg.frame_id != self.frame_id:
            raise ReassemblyError(
                f"message for frame {msg.frame_id} fed to assembler {self.frame_id}"
            )
        if self.total_len is None:
            self.total_len = msg.total_len
        elif self.total_len != msg.total_len:
            raise ReassemblyError(
                f"conflicting total_len {msg.total_len} vs {self.total_len}"
            )
        if msg.offset + len(msg.payload) > msg.total_len:
            raise ReassemblyError("segment extends past declared frame length")
        existing = self._segments.get(msg.offset)
        if existing is not None:
            if existing != msg.payload:
                raise ReassemblyError(f"conflicting payload at offset {msg.offset}")
            return 0
        # two segments overlap when each starts before the other ends, so an
        # empty one strictly inside another's range overlaps it
        offsets = self._offsets
        at = bisect.bisect(offsets, msg.offset)
        if (at and msg.offset < offsets[at - 1] + len(self._segments[offsets[at - 1]])
                or at < len(offsets) and offsets[at] < msg.offset + len(msg.payload)):
            raise ReassemblyError(f"overlapping segment at offset {msg.offset}")
        offsets.insert(at, msg.offset)
        self._segments[msg.offset] = msg.payload
        self.bytes_received += len(msg.payload)
        return len(msg.payload)

    @property
    def complete(self) -> bool:
        return self.total_len is not None and self.bytes_received == self.total_len

    def payload(self) -> tuple[bytearray, list[tuple[int, int]]]:
        """(assembled bytes, gap ranges).  Gaps are zero-filled in the
        returned buffer, a fresh one on each call, and reported as
        [start, end) pairs."""
        if self.total_len is None:
            raise ReassemblyError("no segments received")
        buf = bytearray(self.total_len)
        gaps = []
        pos = 0  # end of the covered bytes so far
        # ``add`` rejects overlaps, so in offset order each segment starts
        # at or after ``pos`` and the gaps are the holes between segments.
        # An empty segment covers nothing and must not split a gap.
        for off in self._offsets:
            seg = self._segments[off]
            if not seg:
                continue
            buf[off:off + len(seg)] = seg
            if off > pos:
                gaps.append((pos, off))
            pos = off + len(seg)
        if pos < self.total_len:
            gaps.append((pos, self.total_len))
        return buf, gaps


def reassemble(messages) -> tuple[bytearray, list[tuple[int, int]]]:
    """One-shot reassembly of an iterable of DATA messages (any order)."""
    it = iter(messages)
    try:
        first = next(it)
    except StopIteration:
        raise ReassemblyError("no messages") from None
    asm = FrameAssembler(first.frame_id)
    asm.add(first)
    for msg in it:
        asm.add(msg)
    return asm.payload()


def frame_deadline_us(total_len: int, est_bw_bps: float, rtt_us: int) -> int:
    """How long a receiver waits for stragglers before processing with gaps."""
    transfer_us = int(total_len * 1e6 / max(est_bw_bps, 1.0))
    return 2 * rtt_us + transfer_us + DEADLINE_MARGIN_US
