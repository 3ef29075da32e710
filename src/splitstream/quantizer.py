"""Uniform scalar quantization of feature tensors.

Values are quantized to N evenly sized bins over a clipped interval and
reconstructed at bin midpoints.  Two modes:

* ``aggregate``  -- one interval [mu - w*sigma, mu + w*sigma] from the
  aggregate corpus statistics, shared by every element;
* ``per_neuron`` -- each element is standardized by its own (mu_i, sigma_i)
  first, then quantized over [-w, +w] in standard-deviation units.

Both modes run through the same standardized code path, so per-neuron
stats that happen to be constant reproduce aggregate symbols exactly.
Values on a bin edge fall into the higher bin; the top edge is clamped
into the last bin.  Zero-variance neurons are guarded with a 1e-6 floor
on the forward side and reconstruct to their mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .tensor import FeatureTensor, TensorStats, mse

__all__ = [
    "QuantizerSpec",
    "QuantizedTensor",
    "quantize",
    "dequantize",
    "bits_per_element",
    "compression_ratio",
    "sweep",
]

_SIGMA_FLOOR = 1e-6


@dataclass(frozen=True)
class QuantizerSpec:
    levels: int
    clip_width: float
    mode: str = "aggregate"

    def __post_init__(self):
        if not 2 <= self.levels <= 256:
            raise ValueError(f"levels must be in 2..256, got {self.levels}")
        if not self.clip_width > 0:
            raise ValueError(f"clip width must be positive, got {self.clip_width}")
        if self.mode not in ("aggregate", "per_neuron"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True, eq=False)
class QuantizedTensor:
    symbols: np.ndarray           # H x W x C uint8
    spec: QuantizerSpec

    def __post_init__(self):
        arr = np.ascontiguousarray(self.symbols, dtype=np.uint8)
        if arr.ndim != 3:
            raise ValueError(f"symbols must be H x W x C, got shape {arr.shape}")
        if arr.size and int(arr.max()) >= self.spec.levels:
            raise ValueError("symbol exceeds level count")
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    @property
    def shape(self):
        return self.symbols.shape


def bits_per_element(spec: QuantizerSpec) -> float:
    return math.log2(spec.levels)


def compression_ratio(spec: QuantizerSpec) -> float:
    """Ratio of 32-bit storage to the entropy-free symbol width."""
    return 32.0 / bits_per_element(spec)


def _standardizers(spec: QuantizerSpec, stats: TensorStats, shape):
    """(mu, sigma_fwd, sigma_rec) broadcastable to the tensor shape."""
    if spec.mode == "aggregate":
        mu = np.float64(stats.aggregate_mean)
        sigma = np.float64(max(stats.aggregate_std, _SIGMA_FLOOR))
        return mu, sigma, sigma
    if stats.sample_count < 2:
        raise ValueError("per-neuron quantization needs stats over >= 2 samples")
    if stats.shape != tuple(shape):
        raise ValueError(
            f"stats shape {stats.shape} does not match tensor {tuple(shape)}"
        )
    mu = stats.per_neuron_mean
    sigma_fwd = np.maximum(stats.per_neuron_std, _SIGMA_FLOOR)
    # zero-variance neurons reconstruct exactly to their mean
    return mu, sigma_fwd, stats.per_neuron_std


def quantize(t: FeatureTensor, spec: QuantizerSpec, stats: TensorStats) -> QuantizedTensor:
    """Map each element to a symbol in [0, levels)."""
    mu, sigma_fwd, _ = _standardizers(spec, stats, t.shape)
    z = (t.data.astype(np.float64) - mu) / sigma_fwd
    w = spec.clip_width
    # bin width 2w/N in standardized units; edge values floor to the higher bin
    v = (z + w) * (spec.levels / (2.0 * w))
    u = np.floor(v)
    # A value within rounding distance of a bin edge can land in the wrong bin
    # under float64 (the edge itself is rarely representable), which would break
    # the half-bin reconstruction bound by ~1 ulp.  Re-derive those few symbols
    # with exact rational arithmetic.  The band is vastly wider than the actual
    # float64 error, so off-edge values are untouched.
    near = np.abs(v - np.rint(v)) < 1e-9
    if np.any(near):
        wf = Fraction(w)
        exact = [
            float((spec.levels * (Fraction(zv) + wf)) // (2 * wf))
            for zv in z[near].tolist()
        ]
        u[near] = exact
    q = np.clip(u, 0, spec.levels - 1).astype(np.uint8)
    return QuantizedTensor(q, spec)


def dequantize(q: QuantizedTensor, stats: TensorStats) -> FeatureTensor:
    """Reconstruct bin midpoints."""
    spec = q.spec
    mu, _, sigma_rec = _standardizers(spec, stats, q.shape)
    if int(q.symbols.max()) >= spec.levels:
        raise ValueError("symbol exceeds level count")
    w = spec.clip_width
    z_hat = -w + (q.symbols.astype(np.float64) + 0.5) * (2.0 * w / spec.levels)
    x_hat = mu + sigma_rec * z_hat
    return FeatureTensor(x_hat.astype(np.float32))


def sweep(model, image_ids, cut, level_list, width_list, stats: TensorStats,
          mode: str = "aggregate") -> list[dict]:
    """Agreement/MSE grid over (levels, clip_width) cells.

    Returns one row dict per cell: levels, clip_width, agreement, mse.
    """
    tensors = model.corpus(image_ids, cut)
    clean = model.argmaxes(tensors, cut)
    rows = []
    for n in level_list:
        for w in width_list:
            spec = QuantizerSpec(levels=int(n), clip_width=float(w), mode=mode)
            t_hats = [dequantize(quantize(t, spec, stats), stats) for t in tensors]
            rows.append(
                {
                    "levels": int(n),
                    "clip_width": float(w),
                    "agreement": model.matches(clean, t_hats, cut) / len(tensors),
                    "mse": sum(map(mse, tensors, t_hats)) / len(tensors),
                }
            )
    return rows
