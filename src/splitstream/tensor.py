"""Feature-tensor value types, distortion metrics and file serialization.

A feature tensor is an H x W x C array of float32 activations, stored
row-major with the channel index fastest.  Everything downstream (the
quantizer, the tiler, the codec, the transport) operates on these values,
so construction validates once and the payload is frozen afterwards.

File format (FTSR, little-endian):

    magic    4 bytes  b"FTSR"
    version  u8       1
    dtype    u8       0 = float32, 1 = uint8
    reserved u16      0
    height   u32
    width    u32
    channels u32
    payload  height*width*channels elements, row-major (y, x, c)
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureTensor",
    "TensorStats",
    "DistortionReport",
    "mse",
    "psnr",
    "collect_stats",
    "PackedCorpus",
    "read_tensor",
    "write_tensor",
    "FTSR_MAGIC",
    "FTSR_HEADER",
]

FTSR_MAGIC = b"FTSR"
FTSR_VERSION = 1
# magic, version, dtype, reserved, height, width, channels
FTSR_HEADER = struct.Struct("<4sBBHIII")

_DTYPE_F32 = 0
_DTYPE_U8 = 1


@dataclass(frozen=True, eq=False)
class FeatureTensor:
    """Immutable H x W x C float32 activation volume."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float32)
        if arr.ndim != 3:
            raise ValueError(f"tensor must be H x W x C, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"tensor dims must be positive, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class TensorStats:
    """Per-neuron and aggregate moments over a sample of equally shaped tensors.

    Variances are population variances (divide by the sample count), so the
    stats of a constant sample are exactly zero-std.
    """

    per_neuron_mean: np.ndarray
    per_neuron_std: np.ndarray
    aggregate_mean: float
    aggregate_std: float
    sample_count: int
    label: str = ""

    def __post_init__(self):
        mean = np.ascontiguousarray(self.per_neuron_mean, dtype=np.float64)
        std = np.ascontiguousarray(self.per_neuron_std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 3 or mean.size == 0:
            raise ValueError("per-neuron stats must be matching H x W x C arrays")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if not np.all(np.isfinite(mean)):
            raise ValueError("per-neuron mean must be finite")
        if not math.isfinite(self.aggregate_mean):
            raise ValueError("aggregate_mean must be finite")
        if not np.all(np.isfinite(std) & (std >= 0)):
            raise ValueError("per-neuron std must be finite and non-negative")
        if not (math.isfinite(self.aggregate_std) and self.aggregate_std >= 0):
            raise ValueError("aggregate_std must be finite and non-negative")
        agg = float(np.mean(mean))
        if not math.isclose(agg, self.aggregate_mean, rel_tol=1e-5, abs_tol=1e-9):
            raise ValueError("aggregate_mean inconsistent with per-neuron means")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "per_neuron_mean", mean)
        object.__setattr__(self, "per_neuron_std", std)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.per_neuron_mean.shape


@dataclass(frozen=True)
class DistortionReport:
    """MSE plus PSNR in dB; psnr_db is +inf for an exact match and -inf
    when the reference has zero dynamic range."""

    mse: float
    psnr_db: float


def _check_pair(a: FeatureTensor, b: FeatureTensor, mask: np.ndarray | None):
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != a.shape:
            raise ValueError(f"mask shape {m.shape} does not match tensor {a.shape}")
        if not m.any():
            raise ValueError("mask selects no elements")
        return m
    return None


def mse(a: FeatureTensor, b: FeatureTensor, mask: np.ndarray | None = None) -> float:
    """Mean squared difference over the selected elements (all by default)."""
    m = _check_pair(a, b, mask)
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    if m is not None:
        diff = diff[m]
    return float(np.mean(diff * diff))


def psnr(a: FeatureTensor, b: FeatureTensor, mask: np.ndarray | None = None) -> DistortionReport:
    """Peak signal-to-noise ratio of b against reference a.

    The dynamic range R is max(a) - min(a).  Zero MSE maps to +inf; R == 0
    with nonzero MSE has no meaningful ratio and is reported as -inf.
    """
    err = mse(a, b, mask)
    rng = float(a.data.max() - a.data.min())
    if err == 0.0:
        return DistortionReport(0.0, math.inf)
    if rng == 0.0:
        return DistortionReport(err, -math.inf)
    return DistortionReport(err, 10.0 * math.log10(rng * rng / err))


class PackedCorpus:
    """Equally shaped float32 tensors held without their zeros.

    Each tensor is kept as a ``np.packbits`` mask of the elements whose
    float32 bit pattern is nonzero, plus those elements' values in order.
    The mask is read from the bits, not the values, so a -0.0 is kept as a
    value with its sign and every tensor expands to the bytes it was
    packed from.  A ReLU output is about half zeros, so a corpus of them
    takes about half the bytes of its float32 tensors.
    """

    def __init__(self, shape):
        self.shape = tuple(shape)
        self.size = math.prod(self.shape)
        self._packed: list[tuple[np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return len(self._packed)

    def append(self, tensor: FeatureTensor) -> None:
        if tensor.shape != self.shape:
            raise ValueError(f"sample shape {tensor.shape} does not match {self.shape}")
        flat = tensor.data.reshape(-1)
        mask = flat.view(np.uint32) != 0
        self._packed.append((np.packbits(mask), np.compress(mask, flat)))

    def flat(self, k: int) -> np.ndarray:
        """Tensor ``k``'s values, flat, expanded afresh."""
        bits, values = self._packed[k]
        # set by positions, not through the boolean mask: on a half-zero
        # mask numpy's boolean set branches per element and takes about
        # three times as long (as its boolean get does beside np.compress)
        mask = np.unpackbits(bits, count=self.size).view(bool)
        flat = np.zeros(self.size, dtype=np.float32)
        flat[np.flatnonzero(mask)] = values
        return flat

    def drop(self, k: int) -> None:
        """Drop tensor ``k``; the others keep their indices."""
        self._packed[k] = None


# values per leaf of a pairwise sum: a float64 copy of at most this many
# values is summed at a time
_LEAF = 8192


def _flat_sum(flat, size: int, lo: int, hi: int, centre=None):
    """Values ``lo..hi-1`` of the arrays read as one flat float64 array,
    summed as ``np.add.reduce`` sums that array (squared deviations from
    ``centre`` when it is given).  ``flat(k)`` gives array ``k``'s
    ``size`` values, flat; leaves are read in order, so an array that two
    leaves share is read by each in turn.

    numpy sums a contiguous float64 array pairwise, in one recursion over
    the whole array: a range of more than 128 values is split at
    ``n2 = n//2 - (n//2) % 8`` and its halves summed alike.  This splits by the same rule down to ranges of at most
    ``_LEAF`` values, each a node of numpy's own recursion, and reduces
    each of those with numpy on a float64 copy of just that range, which
    may straddle arrays.  A leaf adds its sum to +0.0, so it reads +0.0
    where numpy's node reads -0.0; the sum of two nodes can differ from
    numpy's only in that sign, and numpy's total is added to +0.0 too.
    """
    n = hi - lo
    if n > _LEAF:
        n2 = n // 2 - (n // 2) % 8
        return (_flat_sum(flat, size, lo, lo + n2, centre)
                + _flat_sum(flat, size, lo + n2, hi, centre))
    leaf = np.empty(n)
    k, off = divmod(lo, size)
    at = 0
    while at < n:
        piece = flat(k)[off:off + n - at]
        leaf[at:at + piece.size] = piece
        at += piece.size
        k, off = k + 1, 0
    if centre is not None:
        np.subtract(leaf, centre, out=leaf)
        np.multiply(leaf, leaf, out=leaf)
    return np.add.reduce(leaf)


def _moments(read, count: int, size: int, width: int):
    """Mean and population std of each column of the rows of ``width``
    values that ``count`` flat float32 arrays of ``size`` values form,
    array ``k`` read by ``read(k)``, in order: the bits ``np.mean`` and
    ``np.std`` give over all but the last axis of their float64 stack,
    which is never built.  The package's one replay of numpy's reduction
    order, on which every pinned norm, stat and digest depends.

    numpy adds rows of more than one value one by one into a sum that
    starts at +0.0 (from the first row, a column of -0.0 would stay -0.0).
    Each array's rows go as float64 into rows 1.. of a buffer whose row 0
    carries the sum, so ``np.add.reduce`` over its rows adds them in that
    order; a one-row array is added straight in, the same add.  Rows of
    one value form one contiguous array, which numpy sums pairwise
    (``_flat_sum``).  The moments are float64 arrays of ``width`` values,
    scalars for width 1.
    """
    rows = size // width
    n = count * rows
    buf = np.empty((1 + rows, width)) if width > 1 else None

    def moment(centre):
        if buf is None:
            return _flat_sum(read, size, 0, n, centre) / n
        buf[0] = 0.0
        for k in range(count):
            if centre is None:
                buf[1:] = read(k).reshape(rows, width)
            else:
                np.subtract(read(k).reshape(rows, width), centre, out=buf[1:])
                np.multiply(buf[1:], buf[1:], out=buf[1:])
            if rows == 1:
                np.add(buf[0], buf[1], out=buf[0])
            else:
                buf[0] = np.add.reduce(buf, axis=0)
        return buf[0] / n

    mean = moment(None)
    return mean, np.sqrt(moment(mean))


def collect_stats(samples, label: str = "") -> TensorStats:
    """Population per-neuron and aggregate moments over >= 2 tensors, given
    as FeatureTensors or as a ``PackedCorpus``: by ``_moments``, the bits
    ``np.mean`` and ``np.std`` give on the corpus's float64 stack per neuron
    (``axis=0``) and over all values.  One accessor keeps the last tensor
    read, and each of the four passes reads the tensors in order, so a
    packed tensor is expanded once a pass.

    Memory: besides the corpus, one float32 tensor and a few float64 arrays
    of its shape (``_moments``' two-row buffer and the moments).
    """
    if isinstance(samples, PackedCorpus):
        count, shape, read = len(samples), samples.shape, samples.flat
    else:
        tensors = list(samples)
        count, shape = len(tensors), tensors[0].shape if tensors else None
        for t in tensors[1:]:
            if t.shape != shape:
                raise ValueError(f"sample shape {t.shape} does not match {shape}")
        read = lambda k: tensors[k].data.reshape(-1)  # noqa: E731
    if count < 2:
        raise ValueError("need at least 2 samples for stats")
    flat = functools.lru_cache(maxsize=1)(read)
    size = math.prod(shape)
    _, aggregate_std = _moments(flat, count, size, 1)
    per_mean, per_std = _moments(flat, count, size, size)
    return TensorStats(
        per_neuron_mean=per_mean.reshape(shape),
        per_neuron_std=per_std.reshape(shape),
        aggregate_mean=float(per_mean.mean()),
        aggregate_std=float(aggregate_std),
        sample_count=count,
        label=label,
    )


def write_tensor(t: FeatureTensor, path) -> int:
    """Write an FTSR file; returns the byte count written."""
    header = FTSR_HEADER.pack(
        FTSR_MAGIC, FTSR_VERSION, _DTYPE_F32, 0, t.height, t.width, t.channels
    )
    payload = t.data.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return len(header) + len(payload)


def read_tensor(path) -> FeatureTensor:
    """Read an FTSR file back into a FeatureTensor.

    uint8 payloads (dtype code 1) are widened to float32 symbol values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < FTSR_HEADER.size:
        raise ValueError("truncated header")
    magic, version, dtype, _reserved, h, w, c = FTSR_HEADER.unpack_from(raw)
    if magic != FTSR_MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != FTSR_VERSION:
        raise ValueError(f"unsupported version {version}")
    count = h * w * c
    body = raw[FTSR_HEADER.size:]
    if dtype == _DTYPE_F32:
        if len(body) != 4 * count:
            raise ValueError(f"payload is {len(body)} bytes, expected {4 * count}")
        arr = np.frombuffer(body, dtype="<f4").reshape(h, w, c)
    elif dtype == _DTYPE_U8:
        if len(body) != count:
            raise ValueError(f"payload is {len(body)} bytes, expected {count}")
        arr = np.frombuffer(body, dtype=np.uint8).reshape(h, w, c).astype(np.float32)
    else:
        raise ValueError(f"unknown dtype code {dtype}")
    return FeatureTensor(arr)
