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
    levels    u16
    blocks    raster order over the padded plane

The DCT runs in double precision, but coefficients are snapped to 1/4096
steps before quantization so the bitstream does not depend on how a
platform rounds the last ulp.

Encoding is two steps, so callers that try several qualities on one plane
transform it once.  The transform (pad, DCT, snap) does not depend on
quality.  The entropy step quantizes, scans and lays out the tokens with
array operations: run lengths come from the nonzero mask, each LEB128
length from the value's magnitude, each token's offset from a cumulative
sum of lengths, and the bytes are written one byte position at a time.
A stream's size is known from the token lengths alone, before any byte
is written.

Decoding finds the field of every body byte (DC value, run byte or END,
AC value) with a parallel prefix scan over per-byte state transitions,
then reads values, block boundaries and AC positions from those fields
with array operations.  It rejects any symbol beyond what an 8-bit plane
can produce (see ``_MAX_SYMBOL``), any plane above ``_MAX_PLANE_PIXELS``
before allocating it, and raises only ``CodecError``.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from .quantizer import QuantizerSpec, dequantize, quantize
from .tiling import TileLayout, TiledPlane, detile, tile

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
    "stream_info",
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

# a signed LEB128 value of k bytes holds magnitudes below 2**(7k - 1)
_LEB128_LIMITS = [1 << (7 * k - 1) for k in range(1, 10)]

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


def quality_table(quality: int) -> np.ndarray:
    """Quality-scaled quantization divisors (1..255 each)."""
    if not 1 <= quality <= 100:
        raise ValueError(f"quality must be 1..100, got {quality}")
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    return np.clip((BASE_TABLE * scale + 50) // 100, 1, 255)


def _pad_plane(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph = -(-h // 8) * 8
    pw = -(-w // 8) * 8
    return np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")


def _blocks_of(padded: np.ndarray) -> np.ndarray:
    h, w = padded.shape
    return (
        padded.reshape(h // 8, 8, w // 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(-1, 8, 8)
    )


class _Transformed(NamedTuple):
    """A plane after the quality-independent half of ``encode``."""

    coefs: np.ndarray       # (blocks, 64) snapped DCT coefficients, zigzag order
    layout: TileLayout
    levels: int


def _transform(p: TiledPlane) -> _Transformed:
    """Pad, level-shift, DCT and snap; shared by every quality."""
    _check_plane_size(p.layout.plane_w, p.layout.plane_h)
    blocks = _blocks_of(_pad_plane(p.bytes)).astype(np.float64) - 128.0
    coefs = _DCT_M @ blocks @ _DCT_M.T
    coefs = np.rint(coefs * _COEF_SNAP) / _COEF_SNAP
    return _Transformed(coefs.reshape(-1, 64)[:, _ZIGZAG], p.layout, p.levels)


def _symbols(t: _Transformed, quality: int) -> np.ndarray:
    """Quantized coefficients, one zigzag-ordered row of 64 per block."""
    scaled = t.coefs / quality_table(quality).reshape(64)[_ZIGZAG]
    return (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)


def _leb128s_len(values: np.ndarray) -> np.ndarray:
    """Bytes in the signed LEB128 form of each value: 7 payload bits per
    byte, and the last byte's bit 6 carries the sign."""
    magnitude = values ^ (values >> 63)         # v, or -v - 1 when negative
    n = np.ones(len(values), dtype=np.int64)
    for limit in _LEB128_LIMITS:
        longer = magnitude >= limit
        if not longer.any():
            break
        n += longer
    return n


class _Tokens(NamedTuple):
    """The entropy-coded symbols of a plane, in stream order per kind."""

    dc: np.ndarray          # DC delta of each block
    ac_block: np.ndarray    # block of each nonzero AC
    ac_run: np.ndarray      # zeros skipped before it in its block
    ac: np.ndarray          # its value
    dc_len: np.ndarray      # LEB128 byte counts of dc and ac
    ac_len: np.ndarray

    def stream_size(self) -> int:
        # header, then per block: DC, (run byte, value) per nonzero AC, END
        return (FTCB_HEADER.size + len(self.dc) + len(self.ac)
                + int(self.dc_len.sum()) + int(self.ac_len.sum()))


def _tokens(zz: np.ndarray) -> _Tokens:
    dc = np.diff(zz[:, 0], prepend=0)
    block, col = np.nonzero(zz[:, 1:])
    ac = zz[block, col + 1]
    prev = np.empty_like(col)
    prev[1:] = col[:-1]
    prev[np.flatnonzero(np.diff(block, prepend=-1))] = -1
    return _Tokens(dc, block, col - prev - 1, ac, _leb128s_len(dc), _leb128s_len(ac))


def _pack(t: _Transformed, quality: int, tok: _Tokens) -> bytes:
    """Lay the tokens out as FTCB bytes.

    Token k of the stream starts at the sum of the lengths before it.  In
    stream order block b holds 2 + 2 * (its nonzero ACs) tokens, so its DC
    is token 2 * (b + ACs before b), the i-th nonzero AC overall has its
    run byte at token 2 * (block + i) + 1 and its value right after, and
    END closes the block.
    """
    n, m = len(tok.dc), len(tok.ac)
    ac_count = np.bincount(tok.ac_block, minlength=n)
    ac_after = np.cumsum(ac_count)
    blocks = np.arange(n)
    dc_at = 2 * (blocks + ac_after - ac_count)
    run_at = 2 * (tok.ac_block + np.arange(m)) + 1
    end_at = 2 * (blocks + ac_after) + 1
    lens = np.ones(2 * (n + m), dtype=np.int64)
    lens[dc_at] = tok.dc_len
    lens[run_at + 1] = tok.ac_len
    starts = np.cumsum(lens) - lens + FTCB_HEADER.size

    layout = t.layout
    out = np.empty(tok.stream_size(), dtype=np.uint8)
    out[:FTCB_HEADER.size] = np.frombuffer(FTCB_HEADER.pack(
        FTCB_MAGIC, FTCB_VERSION, quality, layout.plane_w, layout.plane_h,
        layout.grid_cols, layout.grid_rows, layout.tile_w, layout.tile_h,
        layout.channels, t.levels), dtype=np.uint8)
    out[starts[run_at]] = tok.ac_run
    out[starts[end_at]] = _BLOCK_END
    # LEB128 bytes, one pass per byte position: 7 payload bits each, the
    # high bit set on every byte but the last
    values = np.concatenate([tok.dc, tok.ac])
    at = np.concatenate([starts[dc_at], starts[run_at + 1]])
    left = np.concatenate([tok.dc_len, tok.ac_len])
    while len(values):
        out[at] = (values & 0x7F) | ((left > 1) << 7)
        more = left > 1
        values, at, left = values[more] >> 7, at[more] + 1, left[more] - 1
    return out.tobytes()


def _entropy(t: _Transformed, quality: int) -> bytes:
    return _pack(t, quality, _tokens(_symbols(t, quality)))


def encode(p: TiledPlane, quality: int) -> bytes:
    return _entropy(_transform(p), quality)


def _check_plane_size(plane_w: int, plane_h: int) -> None:
    if plane_w * plane_h > _MAX_PLANE_PIXELS:
        raise CodecError(
            f"plane {plane_w}x{plane_h} exceeds {_MAX_PLANE_PIXELS} pixels")


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
    ph = -(-plane_h // 8) * 8
    pw = -(-plane_w // 8) * 8
    padded = (
        pixels.reshape(ph // 8, pw // 8, 8, 8)
        .transpose(0, 2, 1, 3)
        .reshape(ph, pw)
    )
    return padded[:plane_h, :plane_w]


def _decode(data: bytes, strict: bool) -> tuple[TiledPlane, int, int]:
    layout, quality, levels = _parse_header(data)
    n_blocks = (-(-layout.plane_h // 8)) * (-(-layout.plane_w // 8))
    body = np.frombuffer(data, dtype=np.uint8)[FTCB_HEADER.size:]
    if strict and len(body) < 2 * n_blocks:
        # every block takes at least a DC byte and its END
        raise TruncatedStreamError(
            f"{len(body)} body bytes cannot hold {n_blocks} blocks")
    _check_plane_size(layout.plane_w, layout.plane_h)
    zz, done = _decode_blocks(body, n_blocks, strict)
    plane = _reconstruct(zz, quality_table(quality), layout.plane_h, layout.plane_w)
    return TiledPlane(plane, layout, levels), done, n_blocks


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
    """Boolean plane mask, True where block data was not decoded."""
    ph = -(-layout.plane_h // 8)
    pw = -(-layout.plane_w // 8)
    block_mask = np.zeros(ph * pw, dtype=bool)
    block_mask[blocks_decoded:] = True
    grid = block_mask.reshape(ph, pw)
    full = np.repeat(np.repeat(grid, 8, axis=0), 8, axis=1)
    return full[: layout.plane_h, : layout.plane_w]


def stream_info(data: bytes) -> dict:
    layout, quality, levels = _parse_header(data)
    return {
        "quality": quality,
        "levels": levels,
        "plane_w": layout.plane_w,
        "plane_h": layout.plane_h,
        "channels": layout.channels,
        "size": len(data),
    }


def encode_to_target(p: TiledPlane, target_bytes: int) -> tuple[bytes, int]:
    """Highest-quality stream whose size fits the target.

    Binary search over quality 1..100 (stream size grows with quality).
    Returns (bitstream, quality); raises TargetInfeasibleError when even
    quality 1 exceeds the target.
    """
    t = _transform(p)
    best = _tokens(_symbols(t, 1))
    if best.stream_size() > target_bytes:
        raise TargetInfeasibleError(target_bytes, best.stream_size())
    lo, hi = 1, 100
    while lo < hi:
        mid = (lo + hi + 1) // 2
        tokens = _tokens(_symbols(t, mid))
        if tokens.stream_size() <= target_bytes:
            lo, best = mid, tokens
        else:
            hi = mid - 1
    return _pack(t, lo, best), lo


def rate_fidelity_curve(model, image_ids, cut, qualities, stats,
                        levels: int = 256, clip_width: float = 3.0) -> list[dict]:
    """Mean bitstream size and argmax agreement per quality setting.

    Each image runs the full compression path (256-level quantize, tile,
    encode, decode, detile, dequantize) before the server-side forward;
    the transform half of encode runs once per image, for every quality,
    and one quality's images are decoded one at a time.
    """
    spec = QuantizerSpec(levels=levels, clip_width=clip_width, mode="aggregate")
    tensors = model.corpus(image_ids, cut)
    clean = model.argmaxes(tensors, cut)
    transformed = [_transform(tile(quantize(t, spec, stats))) for t in tensors]

    rows = []
    for q in qualities:
        streams = [_entropy(coefs, int(q)) for coefs in transformed]
        decoded = (dequantize(detile(decode(bits), spec), stats)
                   for bits in streams)
        rows.append(
            {
                "quality": int(q),
                "mean_bytes": sum(map(len, streams)) / len(tensors),
                "agreement": model.matches(clean, decoded, cut) / len(tensors),
            }
        )
    return rows
