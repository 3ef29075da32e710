"""Synthetic split network for desk-scale pipeline experiments.

A real deployment splits a large CNN between a mobile client and a server.
Reproducing that here would drown every experiment in checkpoint downloads,
so this module provides a small fixed-weight stand-in with the properties
the rest of the pipeline actually depends on:

* deterministic everything -- inputs, weights and calibration derive from
  one seed, so any run is replayable bit for bit;
* realistic cut-point geometry -- three stages, each halving resolution and
  doubling-ish channels, so deeper cuts are smaller in bytes but costlier
  in client compute;
* strict shift structure -- stage convolutions accumulate taps in a fixed
  order, so translating the input by a multiple of the cumulative stride
  translates the cut tensor element-exactly (away from the zero-padded
  border).  Motion-compensation tests lean on this.

Inputs are smooth synthetic scenes (Gaussian blobs plus oriented waves)
sampled from an analytic pattern, which makes subpixel translation exact:
``generate_input(i, (dx, dy))`` pans the view window by (dx, dy) pixels
before sampling.

Classification output is a 10-way linear head on globally pooled stage-3
features.  Absolute accuracy is meaningless here; what experiments measure
is argmax agreement between a clean run and a degraded run of the same
frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Xorshift64Star, bulk_uniform, derive
from .tensor import FeatureTensor

__all__ = [
    "StubModelConfig",
    "CutPoint",
    "SplitModel",
    "EQUIVARIANCE_BORDER",
    "CLASS_NAMES",
]

# stage tensor pixels adjacent to the zero-padded frame border that shift
# equivariance excludes (3x3 taps reach less than one tensor pixel past the
# tile at every stage: the receptive radius is 7/8 of the cumulative stride)
EQUIVARIANCE_BORDER = 1

CLASS_NAMES = tuple(f"class_{i}" for i in range(10))

_CAL_ID_BASE = 1 << 40  # calibration image ids, disjoint from corpus ids


@dataclass(frozen=True)
class StubModelConfig:
    seed: int = 0x5EED
    input_size: int = 64
    input_channels: int = 3
    stage_channels: tuple[int, ...] = (16, 32, 64)
    classes: int = 10
    calibration_images: int = 64


@dataclass(frozen=True)
class CutPoint:
    """One client/server split boundary."""

    name: str
    stage_index: int          # 1-based
    height: int
    width: int
    channels: int
    stride: int               # input pixels per tensor pixel (2**stage)
    cumulative_macs: int      # client-side conv multiply-accumulates
    raw_bytes: int            # uncompressed float32 payload


def _conv3x3(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Same-padded 3x3 convolution, zero fill, fixed tap accumulation order.

    Every output element is computed in one order, whatever its position:
    each tap is a float32 sum over input channels, taken in channel order
    from zero with a rounded multiply and a rounded add per channel (no
    fused multiply-add), and the nine taps are added one by one, in raster
    order, into an accumulator that starts at zero.  That order is what
    makes shifted windows bitwise-identical, and what every pinned
    bitstream depends on.

    The work is laid out channel-major so that each tap is one einsum over
    rows of ``h * w`` contiguous pixels: ``cols[dx]`` holds the zero-padded
    input shifted left by ``dx``, so tap (dy, dx) reads a row slice of it.
    With optimize=False, einsum's C loop adds weight x row into each output
    row, input channel after input channel, which is the order above.
    BLAS paths (``np.matmul``, ``np.tensordot``, ``einsum(optimize=True)``)
    split the channel sum into blocks and change the bits.
    """
    h, wd, c_in = x.shape
    chw = x.transpose(2, 0, 1)
    cols = np.zeros((3, c_in, h + 2, wd), dtype=np.float32)
    cols[0, :, 1:-1, 1:] = chw[:, :, :-1]
    cols[1, :, 1:-1] = chw
    cols[2, :, 1:-1, :-1] = chw[:, :, 1:]
    cols = cols.reshape(3, c_in, (h + 2) * wd)
    out = np.zeros((w.shape[3], h * wd), dtype=np.float32)
    for dy in range(3):
        for dx in range(3):
            out += np.einsum(
                "io,ik->ok", w[dy, dx], cols[dx, :, dy * wd:(dy + h) * wd],
                optimize=False,
            )
    return np.ascontiguousarray(out.reshape(-1, h, wd).transpose(1, 2, 0))


def _avgpool2(x: np.ndarray) -> np.ndarray:
    return (x[0::2, 0::2] + x[0::2, 1::2] + x[1::2, 0::2] + x[1::2, 1::2]) * np.float32(0.25)


class SplitModel:
    """Fixed-weight three-stage network with client/server split points."""

    def __init__(self, config: StubModelConfig = StubModelConfig()):
        self.config = config
        side = config.input_size
        chans = config.stage_channels
        if side % (2 ** len(chans)) != 0:
            raise ValueError("input size must be divisible by total stride")

        self._conv_w = []
        c_in = config.input_channels
        for s, c_out in enumerate(chans, start=1):
            scale = np.sqrt(3.0 / (9 * c_in))
            draws = bulk_uniform(derive(config.seed, "conv", s), 9 * c_in * c_out)
            w = ((draws * 2.0 - 1.0) * scale).astype(np.float32)
            self._conv_w.append(w.reshape(3, 3, c_in, c_out))
            c_in = c_out

        head_c = chans[-1]
        draws = bulk_uniform(derive(config.seed, "head", 0), head_c * config.classes)
        self._head_w = ((draws * 2.0 - 1.0) * np.sqrt(3.0 / head_c)).reshape(
            head_c, config.classes
        )
        bias = bulk_uniform(derive(config.seed, "head", 1), config.classes)
        self._head_b = bias * 2.0 - 1.0

        self._norm_scale: list[np.ndarray] = []
        self._norm_offset: list[np.ndarray] = []
        self._calibrate()

    # ------------------------------------------------------------------ inputs

    def generate_input(self, image_id: int, translation=(0.0, 0.0)) -> FeatureTensor:
        """Deterministic synthetic scene for an image id.

        ``translation=(dx, dy)`` pans the sampling window right/down by that
        many input pixels (subpixel values allowed) across the same analytic
        pattern, so a translated input is a true continuous shift of the
        untranslated one, including fresh content entering the frame.
        """
        cfg = self.config
        side = cfg.input_size
        rng = Xorshift64Star(derive(cfg.seed, "image", image_id))
        dx, dy = float(translation[0]), float(translation[1])
        ys = np.arange(side, dtype=np.float64) + dy
        xs = np.arange(side, dtype=np.float64) + dx
        yy = ys[:, None]
        xx = xs[None, :]

        out = np.empty((side, side, cfg.input_channels), dtype=np.float64)
        for c in range(cfg.input_channels):
            out[:, :, c] = rng.uniform_in(-0.2, 0.2)

        for _ in range(6):
            cx = rng.uniform_in(0.0, side)
            cy = rng.uniform_in(0.0, side)
            r = rng.uniform_in(5.0, 18.0)
            amp = rng.uniform_in(-1.0, 1.0)
            blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * r * r))
            for c in range(cfg.input_channels):
                out[:, :, c] += rng.uniform_in(0.0, 1.0) * amp * blob

        for _ in range(2):
            freq = rng.uniform_in(0.02, 0.09)
            theta = rng.uniform_in(0.0, 2.0 * np.pi)
            phase = rng.uniform_in(0.0, 2.0 * np.pi)
            wave = np.sin(
                2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase
            )
            for c in range(cfg.input_channels):
                out[:, :, c] += rng.uniform_in(-0.4, 0.4) * wave

        return FeatureTensor(out.astype(np.float32))

    # ------------------------------------------------------------------ stages

    def _stage_raw(self, x: np.ndarray, stage: int) -> np.ndarray:
        """Conv + pool of one stage, before normalization."""
        return _avgpool2(_conv3x3(x, self._conv_w[stage - 1]))

    def _stage(self, x: np.ndarray, stage: int) -> np.ndarray:
        raw = self._stage_raw(x, stage)
        y = raw * self._norm_scale[stage - 1] + self._norm_offset[stage - 1]
        if stage < len(self.config.stage_channels):
            y = np.maximum(y, np.float32(0.0))
        return y

    def _calibrate(self):
        """Fit per-channel affine normalization over the calibration corpus.

        Each stage's pre-normalization responses are collected over all
        calibration images; scale and offset are frozen so the normalized
        (pre-ReLU) responses have zero mean and unit variance per channel.
        Later stages are calibrated on the already-normalized outputs of
        earlier ones.
        """
        cfg = self.config
        xs = [
            self.generate_input(_CAL_ID_BASE + i).data
            for i in range(cfg.calibration_images)
        ]
        for stage in range(1, len(cfg.stage_channels) + 1):
            raws = [self._stage_raw(x, stage) for x in xs]
            stack = np.stack(raws).astype(np.float64)
            mean_c = stack.mean(axis=(0, 1, 2))
            std_c = np.maximum(stack.std(axis=(0, 1, 2)), 1e-6)
            self._norm_scale.append((1.0 / std_c).astype(np.float32))
            self._norm_offset.append((-mean_c / std_c).astype(np.float32))
            xs = [self._stage(x, stage) for x in xs]

    # ------------------------------------------------------------------ cuts

    def _resolve_cut(self, cut) -> int:
        n = len(self.config.stage_channels)
        if isinstance(cut, CutPoint):
            idx = cut.stage_index
        elif isinstance(cut, str):
            try:
                idx = next(
                    c.stage_index for c in self.cut_points() if c.name == cut
                )
            except StopIteration:
                raise ValueError(f"unknown cut name {cut!r}") from None
        else:
            idx = int(cut)
        if not 1 <= idx <= n:
            raise ValueError(f"cut stage must be in 1..{n}, got {idx}")
        return idx

    def cut_points(self) -> list[CutPoint]:
        cfg = self.config
        cuts = []
        side = cfg.input_size
        c_in = cfg.input_channels
        macs = 0
        for s, c_out in enumerate(cfg.stage_channels, start=1):
            macs += side * side * 9 * c_in * c_out
            side //= 2
            cuts.append(
                CutPoint(
                    name=f"stage{s}",
                    stage_index=s,
                    height=side,
                    width=side,
                    channels=c_out,
                    stride=2 ** s,
                    cumulative_macs=macs,
                    raw_bytes=4 * side * side * c_out,
                )
            )
            c_in = c_out
        return cuts

    def manifest(self) -> dict:
        """models.json-style description consumed by the pipeline and CLI."""
        cfg = self.config
        return {
            "model": "stub3",
            "seed": cfg.seed,
            "input": [cfg.input_size, cfg.input_size, cfg.input_channels],
            "classes": list(CLASS_NAMES[: cfg.classes]),
            "cuts": [
                {
                    "name": c.name,
                    "shape": [c.height, c.width, c.channels],
                    "stride": c.stride,
                    "cumulative_macs": c.cumulative_macs,
                    "raw_bytes": c.raw_bytes,
                }
                for c in self.cut_points()
            ],
        }

    # ------------------------------------------------------------------ forward

    def forward_client(self, input_tensor: FeatureTensor, cut) -> FeatureTensor:
        """Run stages 1..cut and return the cut tensor."""
        idx = self._resolve_cut(cut)
        x = input_tensor.data
        for stage in range(1, idx + 1):
            x = self._stage(x, stage)
        return FeatureTensor(x)

    def forward_server(self, tensor: FeatureTensor, cut) -> np.ndarray:
        """Run the remaining stages plus the pooled linear head; returns the
        10 class scores."""
        idx = self._resolve_cut(cut)
        x = tensor.data
        for stage in range(idx + 1, len(self.config.stage_channels) + 1):
            x = self._stage(x, stage)
        pooled = x.astype(np.float64).mean(axis=(0, 1))
        return pooled @ self._head_w + self._head_b

    def predict(self, input_tensor: FeatureTensor) -> np.ndarray:
        last = len(self.config.stage_channels)
        return self.forward_server(self.forward_client(input_tensor, last), last)

    # ------------------------------------------------------------------ metrics

    def corpus(self, image_ids, cut) -> list[FeatureTensor]:
        """Cut tensors of the images, in id order: the one corpus every
        sweep and the dataset statistics are computed over."""
        tensors = [self.forward_client(self.generate_input(i), cut) for i in image_ids]
        if not tensors:
            raise ValueError("empty corpus")
        return tensors

    def argmaxes(self, tensors, cut) -> list[int]:
        """Server-side argmax class of each cut tensor."""
        return [int(np.argmax(self.forward_server(t, cut))) for t in tensors]

    def matches(self, clean, degraded, cut) -> int:
        """How many degraded cut tensors keep their clean argmax.

        ``degraded`` may be a generator; it is consumed one tensor at a time.
        """
        return sum(c == d for c, d in zip(clean, self.argmaxes(degraded, cut)))

    def agreement(self, image_ids, cut, degrade=None) -> float:
        """Fraction of images whose argmax survives ``degrade`` applied to the
        cut tensor.  ``degrade=None`` is the identity (agreement 1.0)."""
        tensors = self.corpus(image_ids, cut)
        degraded = tensors if degrade is None else map(degrade, tensors)
        return self.matches(self.argmaxes(tensors, cut), degraded, cut) / len(tensors)
