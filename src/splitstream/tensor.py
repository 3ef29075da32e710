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
        if mean.shape != std.shape or mean.ndim != 3:
            raise ValueError("per-neuron stats must be matching H x W x C arrays")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if np.any(std < 0):
            raise ValueError("negative per-neuron std")
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


def _fill(stack: np.ndarray, arrays) -> np.ndarray:
    """Copy each float32 array into its float64 slot of ``stack``."""
    for i, a in enumerate(arrays):
        stack[i] = a
    return stack


def _moments(stack: np.ndarray, axis) -> tuple:
    """Mean and population std of ``stack`` over ``axis``, bit for bit as
    ``stack.mean(axis)`` and ``stack.std(axis)`` give them, with the ufunc
    calls ``np.std`` makes; the centred squares overwrite ``stack``."""
    mean = stack.mean(axis=axis)
    np.subtract(stack, mean, out=stack)
    np.multiply(stack, stack, out=stack)
    return mean, np.sqrt(stack.mean(axis=axis))


def collect_stats(samples, label: str = "") -> TensorStats:
    """Population per-neuron and aggregate moments over >= 2 tensors.

    Memory: besides the float32 tensors it is given, this holds one float64
    array of the corpus's shape (8 bytes per element, twice the corpus).
    It is filled from the tensors, centred and squared in place for the
    per-neuron std, then refilled for the aggregate moments.  The reductions
    stay numpy calls on that full-shape array, in the order ``np.std`` makes
    them: its full-array ``sum`` adds in pairwise blocks, so a per-image
    running sum would change the stats' bits, and with them every quantized
    tensor and digest built on them.
    """
    tensors = list(samples)
    if len(tensors) < 2:
        raise ValueError("need at least 2 samples for stats")
    shape = tensors[0].shape
    for t in tensors[1:]:
        if t.shape != shape:
            raise ValueError(f"sample shape {t.shape} does not match {shape}")
    datas = [t.data for t in tensors]
    stack = np.empty((len(datas),) + shape)
    per_mean, per_std = _moments(_fill(stack, datas), axis=0)
    _, aggregate_std = _moments(_fill(stack, datas), axis=None)
    return TensorStats(
        per_neuron_mean=per_mean,
        per_neuron_std=per_std,
        aggregate_mean=float(per_mean.mean()),
        aggregate_std=float(aggregate_std),
        sample_count=len(tensors),
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
