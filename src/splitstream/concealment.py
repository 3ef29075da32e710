"""Filling in feature-tensor elements lost in transit.

A loss mask marks missing elements, either element-wise (independent
Bernoulli drops) or channel-wise (whole feature maps lost, as when a
packet carried entire tiles).  Four fill strategies:

* ``zero``         -- leave zeros; the no-information baseline.
* ``channel_mean`` -- per-channel means of the intact tensor, shipped as a
                      tiny side channel alongside the data.
* ``dataset_mean`` -- the per-element corpus mean, known to both ends.
* ``hybrid``       -- dataset mean re-centered per channel so its spatial
                      average matches the side-channel mean:
                      fill(y,x,c) = mu(y,x,c) + (side(c) - mean_yx mu(:,:,c)).

Elements not marked missing are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Xorshift64Star, bulk_uniform, derive
from .tensor import FeatureTensor, TensorStats, mse

__all__ = [
    "LossMask",
    "SideChannelMeans",
    "STRATEGIES",
    "make_mask",
    "side_channel_means",
    "apply_mask",
    "conceal",
    "loss_sweep",
]

STRATEGIES = ("zero", "channel_mean", "dataset_mean", "hybrid")


@dataclass(frozen=True, eq=False)
class LossMask:
    """Boolean H x W x C array, True where an element is missing."""

    missing: np.ndarray
    kind: str
    rate: float
    seed: int = 0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.missing, dtype=bool)
        if arr.ndim != 3:
            raise ValueError(f"mask must be H x W x C, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "missing", arr)

    @property
    def fraction(self) -> float:
        return float(self.missing.mean())


@dataclass(frozen=True, eq=False)
class SideChannelMeans:
    """Per-channel means of the intact tensor, computed sender-side."""

    means: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.means, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("side-channel means must be a 1-D per-channel array")
        arr.flags.writeable = False
        object.__setattr__(self, "means", arr)


def make_mask(shape, kind: str, rate: float, seed: int) -> LossMask:
    """Random loss mask over a tensor shape.

    ``by_element`` drops each element independently with the given
    probability; ``by_channel`` drops exactly ceil(rate * C) whole
    channels, chosen uniformly without replacement.
    """
    h, w, c = shape
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if kind == "by_element":
        draws = bulk_uniform(derive(seed, "mask_elem"), h * w * c)
        missing = (draws < rate).reshape(h, w, c)
    elif kind == "by_channel":
        count = int(np.ceil(rate * c))
        rng = Xorshift64Star(derive(seed, "mask_chan"))
        lost = rng.sample_without_replacement(c, count)
        missing = np.zeros((h, w, c), dtype=bool)
        missing[:, :, lost] = True
    else:
        raise ValueError(f"unknown mask kind {kind!r}")
    return LossMask(missing, kind, rate, seed)


def side_channel_means(t: FeatureTensor) -> SideChannelMeans:
    return SideChannelMeans(t.data.astype(np.float64).mean(axis=(0, 1)))


def apply_mask(t: FeatureTensor, mask: LossMask) -> FeatureTensor:
    """Zero out the missing elements (what the receiver actually has)."""
    if mask.missing.shape != t.shape:
        raise ValueError("mask shape does not match tensor")
    return FeatureTensor(np.where(mask.missing, np.float32(0.0), t.data))


def conceal(t_damaged: FeatureTensor, mask: LossMask, strategy: str,
            stats: TensorStats | None = None,
            side: SideChannelMeans | None = None) -> FeatureTensor:
    """Replace missing elements according to the strategy.

    ``channel_mean`` and ``hybrid`` require the side channel; ``dataset_mean``
    and ``hybrid`` require corpus stats.  Intact elements pass through
    bit-exactly.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if mask.missing.shape != t_damaged.shape:
        raise ValueError("mask shape does not match tensor")
    h, w, c = t_damaged.shape

    if strategy in ("channel_mean", "hybrid") and side is None:
        raise ValueError(f"{strategy} concealment needs side-channel means")
    if strategy in ("dataset_mean", "hybrid") and stats is None:
        raise ValueError(f"{strategy} concealment needs dataset stats")
    if side is not None and side.means.shape != (c,):
        raise ValueError("side-channel means do not match channel count")
    if stats is not None and stats.shape != t_damaged.shape:
        raise ValueError("stats shape does not match tensor")

    if strategy == "zero":
        fill = np.zeros((h, w, c))
    elif strategy == "channel_mean":
        fill = np.broadcast_to(side.means, (h, w, c))
    elif strategy == "dataset_mean":
        fill = stats.per_neuron_mean
    else:  # hybrid
        spatial = stats.per_neuron_mean.mean(axis=(0, 1))
        fill = stats.per_neuron_mean + (side.means - spatial)

    out = np.where(mask.missing, fill.astype(np.float32), t_damaged.data)
    return FeatureTensor(out)


def loss_sweep(model, image_ids, cut, kinds, rates, strategies,
               stats: TensorStats, seed: int) -> list[dict]:
    """Agreement/MSE grid over (kind, rate, strategy) cells.

    Masks are drawn per image from seeds derived off the sweep seed, so a
    given (kind, rate) pair sees identical damage under every strategy.
    """
    ids = list(image_ids)
    tensors = model.corpus(ids, cut)
    clean = model.argmaxes(tensors, cut)
    sides = [side_channel_means(t) for t in tensors]

    rows = []
    for kind in kinds:
        for rate in rates:
            masks = [
                make_mask(t.shape, kind, rate, derive(seed, kind, int(rate * 1e6), i))
                for i, t in zip(ids, tensors)
            ]
            for strategy in strategies:
                healed = [
                    conceal(t, m, strategy, stats=stats, side=s)
                    for t, m, s in zip(tensors, masks, sides)
                ]
                rows.append(
                    {
                        "kind": kind,
                        "rate": float(rate),
                        "strategy": strategy,
                        "agreement": model.matches(clean, healed, cut) / len(ids),
                        "mse": sum(map(mse, tensors, healed)) / len(ids),
                    }
                )
    return rows
