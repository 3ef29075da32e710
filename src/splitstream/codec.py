"""Block-transform codec for tiled symbol planes.

The plane is padded to 8x8 blocks by edge replication, level-shifted by
-128, transformed with the orthonormal 2-D DCT-II, divided by a quality-
scaled quantization table, and entropy coded.  The entropy stage is
deliberately simple and byte-aligned: zigzag scan, DC delta against the
previous block, then (run, value) pairs for nonzero ACs, with values in
signed LEB128 and a run byte of 255 closing each block.

Bitstream container (FTCB, little-endian):

    magic     4 bytes  b"FTCB"
    version   u8       1
    quality   u8       1..100
    plane_w   u16
    plane_h   u16
    grid_cols u8
    grid_rows u8
    tile_w    u16
    tile_h    u16
    channels  u16
    levels    u16      2..256
    blocks    raster order over the padded plane

The DCT runs in double precision, but coefficients are snapped to 1/4096
steps before quantization so the bitstream does not depend on how a
platform rounds the last ulp.

Encoding is two steps, so callers that try several qualities on one plane
transform it once.  The transform (pad, DCT, snap) does not depend on
quality.  The entropy step quantizes, scans and lays the stream out as one
list of entries in row-major order: each block's DC delta, then each
nonzero AC after its run byte.  One rule gives the values coded (``_coded``)
and one the LEB128 width (``_wide``: a second byte outside -64..63, never a
third); each entry's offset is a cumulative sum of entry lengths plus the
END bytes of the blocks before it, and a value takes at most two stores.
The transform first refuses, with ``CodecError``, a plane whose layout the
header cannot carry (``_check_header_fields``).

The entropy stage is lossless, so the rate loops (``encode_to_target`` and
``rate_fidelity_curve``) never write a stream to weigh a quality and never
parse one back.  A stream's size follows from its symbol rows alone
(``_stream_size``, the one size formula): it counts blocks, nonzero ACs
and wide values, so a probe of ``encode_to_target`` sizes the rounded
coefficients as they are, without laying out entries.  ``_pack`` sizes
its buffer by the end of its own entry list.  The plane a stream decodes
to is the decoder's own reconstruction of those symbols
(``_decoded_plane``).

``pack`` and ``unpack`` are the one frame path: tensor -> quantize -> tile
-> encode (at a quality or a byte target), and stream -> decode -> detile
-> dequantize -> conceal the blocks that lost bytes left undecoded.

Decoding finds the field of every body byte (DC value, run byte or END,
AC value) with a parallel prefix scan over per-byte state transitions,
then reads values, block boundaries and AC positions from those fields
with array operations.  It rejects any symbol beyond what an 8-bit plane
can produce (see ``_MAX_SYMBOL``), any plane above ``_MAX_PLANE_PIXELS``
before allocating it, and raises only ``CodecError``.  Reconstructed
pixels are clamped to the stream's level count, so a lossy stream of a
narrow alphabet decodes to symbols its quantizer accepts.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from .concealment import LossMask, conceal
from .quantizer import QuantizerSpec, dequantize, quantize
from .tensor import FeatureTensor, TensorStats
from .tiling import TileLayout, TiledPlane, channel_tiles, detile, layout_for, tile

__all__ = [
    "CodecError",
    "BadMagicError",
    "TruncatedStreamError",
    "BlockCountError",
    "TargetInfeasibleError",
    "quality_table",
    "encode",
    "decode",
    "decode_prefix",
    "undecoded_plane_mask",
    "encode_to_target",
    "rate_fidelity_curve",
    "pack",
    "unpack",
    "FTCB_HEADER",
]

FTCB_MAGIC = b"FTCB"
FTCB_VERSION = 1
FTCB_HEADER = struct.Struct("<4sBBHHBBHHHH")

_BLOCK_END = 255
_COEF_SNAP = 4096.0

# IJG reference luminance quantization table, row-major
BASE_TABLE = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)


class CodecError(Exception):
    pass


class BadMagicError(CodecError):
    pass


class TruncatedStreamError(CodecError):
    pass


class BlockCountError(CodecError):
    pass


class TargetInfeasibleError(CodecError):
    def __init__(self, target: int, min_size: int):
        super().__init__(
            f"target {target} bytes below minimum achievable {min_size}"
        )
        self.target = target
        self.min_size = min_size


def _dct_matrix() -> np.ndarray:
    k = np.arange(8)
    m = np.cos((2 * k[None, :] + 1) * k[:, None] * np.pi / 16.0)
    m[0, :] = 1.0
    scale = np.full((8, 1), np.sqrt(2.0 / 8.0))
    scale[0, 0] = np.sqrt(1.0 / 8.0)
    return m * scale


_DCT_M = _dct_matrix()


def _zigzag_order() -> np.ndarray:
    order = []
    for d in range(15):
        i_range = range(min(d, 7), max(0, d - 7) - 1, -1) if d % 2 == 0 else \
            range(max(0, d - 7), min(d, 7) + 1)
        order.extend(i * 8 + (d - i) for i in i_range)
    return np.array(order, dtype=np.int64)


_ZIGZAG = _zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)

# Decoder bounds.  A level-shifted block has |pixel| <= 128, and each 1-D
# DCT pass multiplies the largest magnitude by at most the largest row L1
# norm of _DCT_M, 2 * sqrt(2) (rows 0 and 4), so |coefficient| <= 128 * 8
# = 1024, reached by DC and AC (0, 4) at table entry 1.  No encoder emits a
# symbol beyond 1024 or a DC delta beyond 2048, and both fit in two LEB128
# bytes.
_MAX_SYMBOL = 1024
_MAX_DC_DELTA = 2 * _MAX_SYMBOL

# Largest plane, in pixels, that a stream may declare (1024 x 1024, 64
# times the default model's largest cut plane).  It is checked before
# anything is allocated, because ``decode_prefix`` builds the whole plane
# whatever the body holds: without a bound, 22 mutated header bytes could
# ask for a 65535 x 65535 plane (about 34 GB of coefficients).  The encoder
# refuses the same planes, so every stream it writes decodes.
_MAX_PLANE_PIXELS = 1 << 20

# Fields a body byte can belong to.  After a DC value comes a run byte or
# END, after a run byte a value, after a value a run byte or END, after END
# the next DC; LEB128 bytes with the high bit set continue their field.
_IN_DC, _IN_RUN, _IN_VALUE = 0, 1, 2


def _field_tables() -> tuple[np.ndarray, np.ndarray]:
    """(transition of each byte, composition of two transitions).

    A transition maps each field to the field of the next byte, packed 2
    bits per field into one byte (slot 3 is unused and maps to itself).
    ``compose[f << 8 | g]`` is g applied after f.
    """
    b = np.arange(256, dtype=np.uint16)
    nxt = np.empty((256, 4), dtype=np.uint16)
    nxt[:, _IN_DC] = np.where(b >= 0x80, _IN_DC, _IN_RUN)
    nxt[:, _IN_RUN] = np.where(b == _BLOCK_END, _IN_DC, _IN_VALUE)
    nxt[:, _IN_VALUE] = np.where(b >= 0x80, _IN_VALUE, _IN_RUN)
    nxt[:, 3] = 3
    shift = 2 * np.arange(4, dtype=np.uint16)
    apply = (b[:, None] >> shift) & 3               # apply[t, s]: t applied to s
    compose = np.zeros((256, 256), dtype=np.uint16)
    for s in range(4):
        compose |= apply[b[None, :], apply[:, s, None]] << shift[s]
    return (nxt << shift).sum(axis=1).astype(np.intp), compose.reshape(-1).astype(np.intp)


_BYTE_TRANSITION, _COMPOSE = _field_tables()
_IDENTITY = 0b11100100            # each field to itself


def _fields(body: np.ndarray) -> np.ndarray:
    """The field of each body byte, by a work-efficient prefix scan.

    Up the tree, each level composes adjacent pairs of the transitions
    below it, so a node holds the transition of its span of bytes.  Down
    the tree, a left child starts in its parent's field and a right child
    in the field its left sibling's transition leads to; at the leaves,
    starting from the DC field, that is the field of each byte.
    """
    levels = [_BYTE_TRANSITION[body]]
    while len(levels[-1]) > 1:
        t = levels[-1]
        if len(t) % 2:
            t = np.append(t, _IDENTITY)
        levels.append(_COMPOSE[(t[0::2] << 8) | t[1::2]])
    field = np.full(1, _IN_DC, dtype=np.intp)
    for t in reversed(levels[:-1]):
        start = field
        half = len(t) // 2
        field = np.empty(len(t), dtype=np.intp)
        field[0::2] = start
        field[1::2] = (t[0:2 * half:2] >> (2 * start[:half])) & 3
    return field[:len(body)]


def _divisor_rows() -> np.ndarray:
    """The zigzag-ordered divisors of every quality, read-only: row q holds
    quality q's, and row 0 only pads the table so a quality is its row.
    Built a row at a time, so import holds no (100, 64) temporaries."""
    base = BASE_TABLE.reshape(64)[_ZIGZAG]
    rows = np.ones((101, 64), dtype=np.int64)
    for q in range(1, 101):
        scale = 5000 // q if q < 50 else 200 - 2 * q
        rows[q] = np.clip((base * scale + 50) // 100, 1, 255)
    rows.flags.writeable = False
    return rows


_DIVISORS = _divisor_rows()


def _divisors(quality: int) -> np.ndarray:
    """Quality-scaled divisors in zigzag order; the range check keeps quality
    0 off the padding row and -1 from wrapping to quality 100."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be 1..100, got {quality}")
    return _DIVISORS[quality]


def quality_table(quality: int) -> np.ndarray:
    """Quality-scaled quantization divisors (1..255 each), row-major 8x8."""
    return _divisors(quality)[_UNZIGZAG].reshape(8, 8)


def _block_grid(h: int, w: int) -> tuple[int, int]:
    """Rows and columns of the 8x8 blocks, in raster order, over an h x w plane."""
    return -(-h // 8), -(-w // 8)


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """The plane's (n, 8, 8) blocks, padded by edge replication."""
    h, w = plane.shape
    rows, cols = _block_grid(h, w)
    padded = np.pad(plane, ((0, 8 * rows - h), (0, 8 * cols - w)), mode="edge")
    return padded.reshape(rows, 8, cols, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)


def _unblock(blocks: np.ndarray, h: int, w: int) -> np.ndarray:
    """The h x w plane whose blocks hold ``blocks``, 64 values per block:
    the inverse of ``_blocks_of``."""
    rows, cols = _block_grid(h, w)
    grid = blocks.reshape(rows, cols, 8, 8).transpose(0, 2, 1, 3)
    return grid.reshape(8 * rows, 8 * cols)[:h, :w]


class _Transformed(NamedTuple):
    """A plane after the quality-independent half of ``encode``."""

    coefs: np.ndarray       # (blocks, 64) snapped DCT coefficients, zigzag order
    layout: TileLayout
    levels: int


def _transform(p: TiledPlane) -> _Transformed:
    """Pad, level-shift, DCT and snap; shared by every quality."""
    _check_plane_size(p.layout.plane_w, p.layout.plane_h)
    _check_header_fields(p.layout)
    blocks = _blocks_of(p.bytes).astype(np.float64) - 128.0
    coefs = _DCT_M @ blocks @ _DCT_M.T
    coefs = np.rint(coefs * _COEF_SNAP) / _COEF_SNAP
    return _Transformed(coefs.reshape(-1, 64)[:, _ZIGZAG], p.layout, p.levels)


def _rounded(t: _Transformed, quality: int) -> np.ndarray:
    """Quantized coefficients as integer-valued float64, one zigzag-ordered
    row of 64 per block.

    Each scaled value is rounded half away from zero by adding 0.5 with its
    sign and truncating.  Rounding to nearest is symmetric under negation,
    so for every float64 s this is ``sign(s) * floor(|s| + 0.5)``; a signed
    zero rounds to a zero.
    """
    s = t.coefs / _divisors(quality)
    s += np.copysign(0.5, s)
    return np.trunc(s, out=s)


def _symbols(t: _Transformed, quality: int) -> np.ndarray:
    """Quantized coefficients, one zigzag-ordered int64 row of 64 per block."""
    return _rounded(t, quality).astype(np.int64)


def _coded(zz: np.ndarray) -> np.ndarray:
    """The values a stream codes for symbol rows: each block's DC delta
    against the block before it, then its ACs, in the rows' dtype."""
    coded = zz.copy()
    coded[1:, 0] -= zz[:-1, 0]
    return coded


def _wide(coded: np.ndarray) -> np.ndarray:
    """Whether each coded value takes a second signed LEB128 byte: one byte
    holds -64..63.  None takes a third, which would start at magnitude
    2**13: encoder symbols are bounded by ``_MAX_SYMBOL`` (1024) and DC
    deltas by ``_MAX_DC_DELTA`` (2048)."""
    return (coded >= 64) | (coded < -64)


def _stream_size(zz: np.ndarray) -> int:
    """Bytes of the stream that codes symbol rows, int64 or integer-valued
    float64: the one size formula, which the rate loops size probes by.

    The header, then per block an END byte and the entries ``_pack`` lays
    out: the DC delta, and each nonzero AC with its run byte, each value
    one byte or, if ``_wide``, two.
    """
    coded = _coded(zz)
    nonzero_ac = np.count_nonzero(coded) - np.count_nonzero(coded[:, 0])
    return (FTCB_HEADER.size + 2 * len(zz) + 2 * nonzero_ac
            + np.count_nonzero(_wide(coded)))


def _pack(t: _Transformed, quality: int, zz: np.ndarray) -> bytes:
    """Lay int64 symbol rows out as FTCB bytes.

    The body is one list of entries in row-major order: each block's DC
    delta, always, and each nonzero AC, preceded by its run byte, the zeros
    skipped since the entry before it (which is in the same block, since
    every block starts with its DC).  An entry starts after the lengths of
    the entries before it, (run byte) + 1 + wide, and after one END per
    block before its own, so the stream ends after the header, every
    entry's length and one END per block.  The buffer starts filled with
    END, so the bytes written over it leave each block's END in place.
    """
    coded = _coded(zz)
    keep = coded != 0
    keep[:, 0] = True
    at = np.flatnonzero(keep)
    value = coded.reshape(-1)[at]
    block, col = np.divmod(at, 64)
    is_ac = col > 0
    wide = _wide(value)
    length = is_ac + 1 + wide
    start = np.cumsum(length) - length + block + FTCB_HEADER.size

    layout = t.layout
    out = np.full(FTCB_HEADER.size + int(length.sum()) + len(zz), _BLOCK_END,
                  dtype=np.uint8)
    out[:FTCB_HEADER.size] = np.frombuffer(FTCB_HEADER.pack(
        FTCB_MAGIC, FTCB_VERSION, quality, layout.plane_w, layout.plane_h,
        layout.grid_cols, layout.grid_rows, layout.tile_w, layout.tile_h,
        layout.channels, t.levels), dtype=np.uint8)
    ac = np.flatnonzero(is_ac)
    out[start[ac]] = col[ac] - col[ac - 1] - 1
    # signed LEB128: 7 payload bits a byte, the high bit set on a first
    # byte that a second follows
    first = start + is_ac
    out[first] = (value & 0x7F) | (wide << 7)
    out[first[wide] + 1] = (value[wide] >> 7) & 0x7F
    return out.tobytes()


def encode(p: TiledPlane, quality: int) -> bytes:
    t = _transform(p)
    return _pack(t, quality, _symbols(t, quality))


def _check_plane_size(plane_w: int, plane_h: int) -> None:
    if plane_w * plane_h > _MAX_PLANE_PIXELS:
        raise CodecError(
            f"plane {plane_w}x{plane_h} exceeds {_MAX_PLANE_PIXELS} pixels")


def _check_header_fields(layout: TileLayout) -> None:
    """Refuse a layout ``FTCB_HEADER`` cannot carry: two bytes per plane
    dimension, one per grid count.  The other fields fit whenever these do:
    a tile is no larger than its plane, and the channel count is at most
    the grid's 255 * 255 slots."""
    for name, value, most in (("plane width", layout.plane_w, 0xFFFF),
                              ("plane height", layout.plane_h, 0xFFFF),
                              ("grid columns", layout.grid_cols, 0xFF),
                              ("grid rows", layout.grid_rows, 0xFF)):
        if value > most:
            raise CodecError(f"{name} {value} exceeds the FTCB header's {most}")


def _parse_header(data: bytes):
    if len(data) < FTCB_HEADER.size:
        raise TruncatedStreamError("stream shorter than header")
    magic, version, quality, plane_w, plane_h, gc, gr, tw, th, ch, levels = \
        FTCB_HEADER.unpack_from(data)
    if magic != FTCB_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != FTCB_VERSION:
        raise CodecError(f"unsupported version {version}")
    if not 1 <= quality <= 100:
        raise CodecError(f"quality {quality} out of range")
    if not 2 <= levels <= 256:
        raise CodecError(f"level count {levels} out of range")
    try:
        layout = TileLayout(grid_cols=gc, grid_rows=gr, tile_w=tw, tile_h=th, channels=ch)
    except ValueError as exc:
        raise CodecError(f"invalid tile layout in header: {exc}") from None
    if (layout.plane_w, layout.plane_h) != (plane_w, plane_h):
        raise CodecError("plane dims inconsistent with tile grid")
    return layout, quality, levels


def _decode_blocks(body: np.ndarray, n_blocks: int,
                   strict: bool) -> tuple[np.ndarray, int]:
    """Returns (zigzag symbol rows, blocks decoded).

    Every byte is first assigned its field by the scan in ``_fields``;
    the fields then give, all at once, the LEB128 values (from their one or
    two bytes), each block's END, and each AC's position (a per-block
    cumulative sum of run + 1).  Errors are raised in stream order: the
    first malformed byte wins over a later one and over truncation.
    """
    field = _fields(body)
    is_end = (field == _IN_RUN) & (body == _BLOCK_END)
    ends = np.flatnonzero(is_end)
    complete = len(ends) >= n_blocks
    used = int(ends[n_blocks - 1]) + 1 if complete else len(body)
    field, is_end, b = field[:used], is_end[:used], body[:used].astype(np.int64)

    # (byte position, message) of the first error of each kind; the earliest
    # is raised, and on a tie the one listed first (a field's third byte is
    # also where its value would be checked)
    errors = []
    same = np.zeros(used, dtype=bool)
    same[1:] = field[1:] == field[:-1]
    in_value = field != _IN_RUN
    # a byte in the same LEB128 field as the two before it is a third byte
    third = np.flatnonzero(in_value[2:] & same[2:] & same[1:-1])[:1] + 2
    errors += [(int(p), "LEB128 value longer than 2 bytes") for p in third]

    # each value ends at its field's byte without the high bit; a second
    # byte, if any, carries bits 7..13, and the top bit read is the sign
    last = np.flatnonzero(in_value & (b < 0x80))
    shift = 7 * same[last]
    raw = ((b[last] & 0x7F) << shift) | ((b[last - 1] & 0x7F) * (shift > 0))
    sign = 0x40 << shift
    value = (raw ^ sign) - sign
    is_dc = field[last] == _IN_DC
    dc_at, dc_delta = last[is_dc], value[is_dc]
    dc = np.cumsum(dc_delta)
    ac_at, ac = last[~is_dc], value[~is_dc]
    bad = np.flatnonzero((np.abs(dc_delta) > _MAX_DC_DELTA) | (np.abs(dc) > _MAX_SYMBOL))
    errors += [(int(dc_at[i]), "DC coefficient out of range") for i in bad[:1]]
    bad = np.flatnonzero(np.abs(ac) > _MAX_SYMBOL)
    errors += [(int(ac_at[i]), "AC coefficient out of range") for i in bad[:1]]

    # an AC's position is the sum of run + 1 over the run bytes of its
    # block up to its own: a running total, restarted at each block's first
    is_run = (field == _IN_RUN) & ~is_end
    run_at = np.flatnonzero(is_run)
    run_block = np.cumsum(is_end)[run_at]
    step = b[run_at] + 1
    col = np.cumsum(step)
    first = np.ones(len(run_at), dtype=bool)
    first[1:] = run_block[1:] != run_block[:-1]
    col -= np.maximum.accumulate(np.where(first, col - step, 0))
    bad = np.flatnonzero(col > 63)
    errors += [(int(run_at[i]), f"AC run overflows block {run_block[i]}")
               for i in bad[:1]]

    if errors:
        raise CodecError(min(errors, key=lambda e: e[0])[1])
    if strict and not complete:
        raise TruncatedStreamError("stream ended inside a block")
    if strict and used != len(body):
        raise BlockCountError(f"{len(body) - used} trailing bytes after last block")
    done = min(len(ends), n_blocks)
    zz = np.zeros((n_blocks, 64), dtype=np.int64)
    zz[:done, 0] = dc[:done]
    kept = np.searchsorted(run_block[:len(ac)], done)
    zz.reshape(-1)[64 * run_block[:kept] + col[:kept]] = ac[:kept]
    return zz, done


def _reconstruct(zz: np.ndarray, table: np.ndarray, plane_h: int, plane_w: int) -> np.ndarray:
    symbols = zz[:, _UNZIGZAG].reshape(-1, 8, 8)
    coefs = symbols * table
    blocks = _DCT_M.T @ coefs.astype(np.float64) @ _DCT_M
    pixels = np.clip(np.rint(blocks + 128.0), 0, 255).astype(np.uint8)
    return _unblock(pixels, plane_h, plane_w)


def _decoded_plane(zz: np.ndarray, quality: int, layout: TileLayout,
                   levels: int) -> TiledPlane:
    """The plane that symbol rows decode to, clamped to the level count so a
    lossy stream of a narrow alphabet gives symbols its quantizer accepts."""
    plane = _reconstruct(zz, quality_table(quality), layout.plane_h, layout.plane_w)
    np.minimum(plane, levels - 1, out=plane)
    return TiledPlane(plane, layout, levels)


def _decode(data: bytes, strict: bool) -> tuple[TiledPlane, int, int]:
    layout, quality, levels = _parse_header(data)
    rows, cols = _block_grid(layout.plane_h, layout.plane_w)
    n_blocks = rows * cols
    body = np.frombuffer(data, dtype=np.uint8)[FTCB_HEADER.size:]
    if strict and len(body) < 2 * n_blocks:
        # every block takes at least a DC byte and its END
        raise TruncatedStreamError(
            f"{len(body)} body bytes cannot hold {n_blocks} blocks")
    _check_plane_size(layout.plane_w, layout.plane_h)
    zz, done = _decode_blocks(body, n_blocks, strict)
    return _decoded_plane(zz, quality, layout, levels), done, n_blocks


def decode(data: bytes) -> TiledPlane:
    """Strict decode; raises on truncation, bad magic, or trailing bytes."""
    return _decode(data, strict=True)[0]


def decode_prefix(data: bytes) -> tuple[TiledPlane, int, int]:
    """Best-effort decode of a truncated stream.

    Returns (plane, blocks_decoded, total_blocks); undecoded blocks come
    back as mid-gray and should be masked via ``undecoded_plane_mask``.
    Raises if even the header is unreadable.
    """
    return _decode(data, strict=False)


def undecoded_plane_mask(layout: TileLayout, blocks_decoded: int) -> np.ndarray:
    """Boolean plane mask, True on the blocks from ``blocks_decoded`` on."""
    h, w = layout.plane_h, layout.plane_w
    rows, cols = _block_grid(h, w)
    return _unblock(np.repeat(np.arange(rows * cols) >= blocks_decoded, 64), h, w)


def encode_to_target(p: TiledPlane, target_bytes: int) -> tuple[bytes, int]:
    """Highest-quality stream whose size fits the target.

    Binary search over quality 1..100 (stream size grows with quality).
    Each probe is sized by ``_stream_size``, the one size formula, straight
    from its rounded float coefficients; only the chosen quality becomes
    int64 symbols and bytes.  Returns (bitstream, quality); raises
    TargetInfeasibleError when even quality 1 exceeds the target.
    """
    t = _transform(p)
    best = _rounded(t, 1)
    min_size = _stream_size(best)
    if min_size > target_bytes:
        raise TargetInfeasibleError(target_bytes, min_size)
    lo, hi = 1, 100
    while lo < hi:
        mid = (lo + hi + 1) // 2
        rows = _rounded(t, mid)
        if _stream_size(rows) <= target_bytes:
            lo, best = mid, rows
        else:
            hi = mid - 1
    return _pack(t, lo, best.astype(np.int64)), lo


def rate_fidelity_curve(model, image_ids, cut, qualities, stats,
                        levels: int = 256, clip_width: float = 3.0) -> list[dict]:
    """Mean bitstream size and argmax agreement per quality setting.

    Each image takes ``pack`` and ``unpack``'s path, but its transform
    runs once for every quality, and the lossless entropy stage is skipped:
    a point's size comes from its symbols (``_stream_size``) and its plane
    from the decoder's reconstruction of them (``_decoded_plane``).
    """
    spec = QuantizerSpec(levels=levels, clip_width=clip_width, mode="aggregate")
    qualities = [int(q) for q in qualities]

    def degrade(_image_id, tensor):
        t = _transform(tile(quantize(tensor, spec, stats)))
        for q in qualities:
            zz = _symbols(t, q)
            plane = _decoded_plane(zz, q, t.layout, t.levels)
            yield dequantize(detile(plane, spec), stats), _stream_size(zz)

    count, cells = model.sweep(image_ids, cut, degrade)
    return [{"quality": q, "mean_bytes": size / count, "agreement": hits / count}
            for q, (hits, size) in zip(qualities, cells)]


def pack(t: FeatureTensor, spec: QuantizerSpec, stats: TensorStats,
         quality: int, target_bytes: int = 0) -> tuple[bytes, int]:
    """(stream, quality) of a tensor, quantized and tiled: encoded at
    ``quality``, or by ``encode_to_target`` if ``target_bytes`` is nonzero."""
    plane = tile(quantize(t, spec, stats))
    if target_bytes:
        return encode_to_target(plane, target_bytes)
    return encode(plane, quality), quality


def unpack(data: bytes, spec: QuantizerSpec, stats: TensorStats, gaps=(),
           strategy: str = "dataset_mean", side=None) -> FeatureTensor:
    """The tensor a stream carries: strictly decoded if ``gaps``, the lost
    (start, end) byte ranges, are none; else decoded up to the first gap
    (the DC delta chain spoils every later block, and all of a plane whose
    header was lost) with the rest filled by ``strategy``, which may need
    ``side``, the per-channel means."""
    if not gaps:
        return dequantize(detile(decode(data), spec), stats)
    try:
        plane, blocks_ok, _total = decode_prefix(data[:gaps[0][0]])
    except CodecError:
        layout = layout_for(*stats.shape)
        missing = np.ones((layout.plane_h, layout.plane_w), dtype=bool)
        mid = np.full(missing.shape, spec.levels // 2, dtype=np.uint8)
        plane = TiledPlane(mid, layout, spec.levels)
    else:
        missing = undecoded_plane_mask(plane.layout, blocks_ok)
    t = dequantize(detile(plane, spec), stats)
    if not missing.any():
        return t
    return conceal(t, LossMask(channel_tiles(missing, plane.layout)), strategy,
                   stats=stats, side=side)
