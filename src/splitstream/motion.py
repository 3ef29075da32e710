"""Global motion estimation on inputs, reused for cut-tensor prediction.

Estimation runs on the mean-over-channels view of two input frames: an
exhaustive integer search over (dx, dy) within a radius, scoring the sum
of absolute differences on the overlap of the shifted frames.  The winning
shift is rescaled into tensor coordinates (divide by the cut's cumulative
stride) and applied identically to every channel of the reference cut
tensor:

    predicted(y, x, c) = reference(y + vy, x + vx, c)

Every vector is sampled bilinearly; an integer one has weights 0 and 1 and
so gathers exactly.  Source positions outside the reference produce zeros
and a False entry in the validity mask.

Because the stage stack is shift-equivariant at multiples of the
cumulative stride, an integer-aligned pan predicts the next cut tensor
element-exactly away from the frame border; fractional pans are close but
not exact, which is the whole story the motion demo tells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import FeatureTensor

__all__ = [
    "MotionField",
    "estimate_global_translation",
    "scale_to_tensor",
    "predict",
    "shift_overlap_slices",
]


@dataclass(frozen=True)
class MotionField:
    """Constant gather offsets in tensor pixels (global translation)."""

    vx: float
    vy: float


def estimate_global_translation(ref: FeatureTensor, cur: FeatureTensor,
                                radius: int) -> tuple[int, int]:
    """Integer (dx, dy) minimizing SAD between cur and ref shifted by it.

    The returned shift satisfies cur(y, x) ~= ref(y + dy, x + dx) on the
    overlap.  Ties prefer the smallest |dx| + |dy|, then the smaller dy,
    then the smaller dx.  A true shift beyond the radius saturates to the
    search boundary.
    """
    if ref.shape != cur.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cur.shape}")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a = ref.data.astype(np.float64).mean(axis=2)
    b = cur.data.astype(np.float64).mean(axis=2)
    h, w = a.shape
    # a shift of the frame's size or more leaves no overlap
    ry, rx = min(radius, h - 1), min(radius, w - 1)

    best = None
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            ref_sl, cur_sl = shift_overlap_slices(h, w, dx, dy)
            sad = float(np.abs(b[cur_sl] - a[ref_sl]).sum())
            key = (sad, abs(dx) + abs(dy), dy, dx)
            if best is None or key < best:
                best = key
    return best[3], best[2]


def shift_overlap_slices(h: int, w: int, dx: int, dy: int):
    """(ref_slices, cur_slices) covering the overlap of cur(y,x) with
    ref(y+dy, x+dx)."""
    ref_y = slice(max(dy, 0), h + min(dy, 0))
    ref_x = slice(max(dx, 0), w + min(dx, 0))
    cur_y = slice(max(-dy, 0), h + min(-dy, 0))
    cur_x = slice(max(-dx, 0), w + min(-dx, 0))
    return (ref_y, ref_x), (cur_y, cur_x)


def scale_to_tensor(shift: tuple[float, float], stride: int) -> MotionField:
    """Convert an input-domain shift into tensor pixels at a cut point of
    this stride."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    return MotionField(vx=shift[0] / stride, vy=shift[1] / stride)


def predict(ref: FeatureTensor, field: MotionField) -> tuple[FeatureTensor, np.ndarray]:
    """Gather the reference tensor along the motion field.

    Returns (prediction, valid_mask); the mask is an H x W x C boolean
    array, False where the source position leaves the reference frame
    (those elements are zero).
    """
    h, w, c = ref.shape
    ys = np.arange(h, dtype=np.float64) + field.vy
    xs = np.arange(w, dtype=np.float64) + field.vx
    valid_y = (ys >= 0.0) & (ys <= h - 1)
    valid_x = (xs >= 0.0) & (xs <= w - 1)

    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None, None]
    fx = (xs - x0)[None, :, None]
    d = ref.data.astype(np.float64)
    top = d[y0[:, None], x0[None, :], :] * (1 - fx) + d[y0[:, None], x1[None, :], :] * fx
    bot = d[y1[:, None], x0[None, :], :] * (1 - fx) + d[y1[:, None], x1[None, :], :] * fx
    pred = (top * (1 - fy) + bot * fy).astype(np.float32)

    mask = (valid_y[:, None] & valid_x[None, :])[:, :, None].repeat(c, axis=2)
    pred = np.where(mask, pred, np.float32(0.0))
    return FeatureTensor(pred), mask
