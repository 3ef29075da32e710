"""Reference FTCB version 1 entropy coder: one Python step per coefficient
and one method call per byte.

This is the codec's original entropy stage, kept verbatim as the oracle
that the vectorised encoder and the scan-based decoder in
``splitstream.codec`` are tested against; the only addition is the
``reader_cls`` argument of ``decode`` and ``decode_prefix``, through which
a test can substitute a reader that applies the codec's symbol bounds.  It
shares the transform, the header and the reconstruction with the codec,
so a difference between the two can only come from the entropy stage.
"""

from __future__ import annotations

import numpy as np

from splitstream.codec import (_BLOCK_END, _COEF_SNAP, _DCT_M, _ZIGZAG,
                               FTCB_HEADER, FTCB_MAGIC, FTCB_VERSION,
                               BlockCountError, CodecError,
                               TruncatedStreamError, _blocks_of,
                               _parse_header, _reconstruct, quality_table)
from splitstream.tiling import TiledPlane


def _leb128s_encode(value: int, out: bytearray) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if (value == 0 and not byte & 0x40) or (value == -1 and byte & 0x40):
            out.append(byte)
            return
        out.append(byte | 0x80)


class _Reader:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise TruncatedStreamError("stream ended inside a block")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def leb128s(self) -> int:
        result = 0
        shift = 0
        while True:
            b = self.u8()
            result |= (b & 0x7F) << shift
            shift += 7
            if not b & 0x80:
                if b & 0x40:
                    result -= 1 << shift
                return result


def encode(p: TiledPlane, quality: int) -> bytes:
    table = quality_table(quality)
    layout = p.layout
    blocks = _blocks_of(p.bytes).astype(np.float64) - 128.0
    coefs = _DCT_M @ blocks @ _DCT_M.T
    coefs = np.rint(coefs * _COEF_SNAP) / _COEF_SNAP
    scaled = coefs / table
    symbols = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)
    zz = symbols.reshape(-1, 64)[:, _ZIGZAG]

    out = bytearray(
        FTCB_HEADER.pack(
            FTCB_MAGIC,
            FTCB_VERSION,
            quality,
            layout.plane_w,
            layout.plane_h,
            layout.grid_cols,
            layout.grid_rows,
            layout.tile_w,
            layout.tile_h,
            layout.channels,
            p.levels,
        )
    )
    prev_dc = 0
    for row in zz:
        dc = int(row[0])
        _leb128s_encode(dc - prev_dc, out)
        prev_dc = dc
        run = 0
        for v in row[1:]:
            if v == 0:
                run += 1
            else:
                out.append(run)
                _leb128s_encode(int(v), out)
                run = 0
        out.append(_BLOCK_END)
    return bytes(out)


def _decode_blocks(reader: _Reader, n_blocks: int, stop_on_truncation: bool):
    """Returns (zigzag symbol rows, blocks decoded)."""
    zz = np.zeros((n_blocks, 64), dtype=np.int64)
    prev_dc = 0
    done = 0
    for b in range(n_blocks):
        mark = reader.pos
        try:
            prev_dc += reader.leb128s()
            zz[b, 0] = prev_dc
            pos = 0
            while True:
                run = reader.u8()
                if run == _BLOCK_END:
                    break
                pos += run + 1
                if pos > 63:
                    raise CodecError(f"AC run overflows block {b}")
                zz[b, pos] = reader.leb128s()
        except TruncatedStreamError:
            if stop_on_truncation:
                reader.pos = mark
                zz[b:] = 0
                return zz, done
            raise
        done += 1
    return zz, done


def decode(data: bytes, reader_cls=_Reader) -> TiledPlane:
    """Strict decode; raises on truncation, bad magic, or trailing bytes."""
    layout, quality, levels = _parse_header(data)
    n_blocks = (-(-layout.plane_h // 8)) * (-(-layout.plane_w // 8))
    reader = reader_cls(data, FTCB_HEADER.size)
    zz, done = _decode_blocks(reader, n_blocks, stop_on_truncation=False)
    if done != n_blocks:
        raise BlockCountError(f"decoded {done} of {n_blocks} blocks")
    if reader.pos != len(data):
        raise BlockCountError(
            f"{len(data) - reader.pos} trailing bytes after last block"
        )
    plane = _reconstruct(zz, quality_table(quality), layout.plane_h, layout.plane_w)
    return TiledPlane(plane, layout, levels)


def decode_prefix(data: bytes, reader_cls=_Reader) -> tuple[TiledPlane, int, int]:
    """Best-effort decode of a truncated stream."""
    layout, quality, levels = _parse_header(data)
    n_blocks = (-(-layout.plane_h // 8)) * (-(-layout.plane_w // 8))
    reader = reader_cls(data, FTCB_HEADER.size)
    zz, done = _decode_blocks(reader, n_blocks, stop_on_truncation=True)
    plane = _reconstruct(zz, quality_table(quality), layout.plane_h, layout.plane_w)
    return TiledPlane(plane, layout, levels), done, n_blocks
