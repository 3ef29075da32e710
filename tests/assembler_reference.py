"""Reference frame reassembly: each new segment compared with every segment
the frame already holds, and the received byte count re-summed on each
read.

This is ``splitstream.protocol.FrameAssembler`` as it was before overlaps
were found from the neighbours of a sorted offset list, kept verbatim as
the oracle the faster version is tested against: every return value,
error and payload must agree.
"""

from __future__ import annotations

from splitstream.protocol import MsgType, ReassemblyError, WireMessage


class FrameAssembler:
    """Order-independent reassembly of one frame's DATA messages.

    It holds only the declared length and the segments; the receiver keeps
    its own arrival clock for the frame deadline.
    """

    def __init__(self, frame_id: int):
        self.frame_id = frame_id
        self.total_len: int | None = None
        self._segments: dict[int, bytes] = {}

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
        for off, seg in self._segments.items():
            if off < msg.offset + len(msg.payload) and msg.offset < off + len(seg):
                raise ReassemblyError(f"overlapping segment at offset {msg.offset}")
        self._segments[msg.offset] = msg.payload
        return len(msg.payload)

    @property
    def bytes_received(self) -> int:
        return sum(len(s) for s in self._segments.values())

    @property
    def complete(self) -> bool:
        return self.total_len is not None and self.bytes_received == self.total_len

    def payload(self) -> tuple[bytes, list[tuple[int, int]]]:
        """(assembled bytes, gap ranges).  Gaps are zero-filled in the
        returned buffer and reported as [start, end) pairs."""
        if self.total_len is None:
            raise ReassemblyError("no segments received")
        buf = bytearray(self.total_len)
        gaps = []
        pos = 0  # end of the covered bytes so far
        # ``add`` rejects overlaps, so in offset order each segment starts
        # at or after ``pos`` and the gaps are the holes between segments.
        # An empty segment covers nothing and must not split a gap.
        for off in sorted(self._segments):
            seg = self._segments[off]
            if not seg:
                continue
            buf[off:off + len(seg)] = seg
            if off > pos:
                gaps.append((pos, off))
            pos = off + len(seg)
        if pos < self.total_len:
            gaps.append((pos, self.total_len))
        return bytes(buf), gaps
