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
is how many degraded frames keep the argmax of their clean run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Xorshift64Star, bulk_uniform, derive
from .tensor import (FeatureTensor, PackedCorpus, TensorStats, _flat_sum,
                     collect_stats)

__all__ = [
    "CutPoint",
    "CUT_POINTS",
    "cut_point",
    "SplitModel",
    "corpus_stats",
    "EQUIVARIANCE_BORDER",
    "CLASS_NAMES",
]

# stage tensor pixels adjacent to the zero-padded frame border that shift
# equivariance excludes (3x3 taps reach less than one tensor pixel past the
# tile at every stage: the receptive radius is 7/8 of the cumulative stride)
EQUIVARIANCE_BORDER = 1

# the stub's fixed geometry: only the seed varies between models
MODEL_NAME = "stub3"          # as the manifest and MODEL_SWITCH name it
INPUT_SIZE = 64               # square input, pixels per side
INPUT_CHANNELS = 3
STAGE_CHANNELS = (16, 32, 64)
CLASS_NAMES = tuple(f"class_{i}" for i in range(10))
CALIBRATION_IMAGES = 64
# calibration images per chunk of _channel_moments' float64 buffer
_CAL_CHUNK = 8

_CAL_ID_BASE = 1 << 40  # calibration image ids, disjoint from corpus ids


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


def _cut_table() -> tuple[CutPoint, ...]:
    cuts = []
    side = INPUT_SIZE
    c_in = INPUT_CHANNELS
    macs = 0
    for s, c_out in enumerate(STAGE_CHANNELS, start=1):
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
    return tuple(cuts)


CUT_POINTS = _cut_table()


def cut_point(name: str) -> CutPoint:
    """The cut point with this name; the one place a cut name is resolved."""
    for c in CUT_POINTS:
        if c.name == name:
            return c
    names = ", ".join(c.name for c in CUT_POINTS)
    raise ValueError(f"unknown cut {name!r}; choose from {names}")


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


def _channel_moments(raws, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and population std of equally shaped H x W x C
    float32 arrays: the bits ``stack.mean(axis=(0, 1, 2))`` and
    ``stack.std(axis=(0, 1, 2))`` give on their float64 stack, which is
    never built.

    numpy adds the stack's pixel rows one by one, in order, into a
    per-channel sum that starts at +0.0.  Here each chunk of
    ``_CAL_CHUNK`` arrays is copied as float64 into rows 1.. of a buffer
    whose row 0 carries the running sum, so ``np.add.reduce`` over the
    buffer's rows adds the same rows in the same order.  A second pass does
    the same over the squared deviations from the mean.  The buffer is a
    view of ``flat``, a float64 work array of at least
    ``(1 + _CAL_CHUNK * H * W) * C`` values.  With one channel numpy sums
    the flat stack pairwise instead, which ``_flat_sum`` replays.
    """
    h, w, c = raws[0].shape
    rows, n = h * w, len(raws) * h * w
    if c == 1:
        read = lambda k: raws[k].reshape(-1)  # noqa: E731
        mean = _flat_sum(read, rows, 0, n) / n
        return np.array([mean]), np.array([np.sqrt(_flat_sum(read, rows, 0, n, mean) / n)])
    buf = flat[:(1 + _CAL_CHUNK * rows) * c].reshape(-1, c)

    def total(centre):
        buf[0] = 0.0
        for lo in range(0, len(raws), _CAL_CHUNK):
            end = 1
            for raw in raws[lo:lo + _CAL_CHUNK]:
                buf[end:end + rows] = raw.reshape(rows, c)
                end += rows
            if centre is not None:
                np.subtract(buf[1:end], centre, out=buf[1:end])
                np.multiply(buf[1:end], buf[1:end], out=buf[1:end])
            buf[0] = np.add.reduce(buf[:end], axis=0)
        return buf[0] / n

    mean = total(None)
    return mean, np.sqrt(total(mean))


class SplitModel:
    """Fixed-weight three-stage network with client/server split points."""

    def __init__(self, seed: int = 0x5EED):
        self.seed = seed
        self._conv_w = []
        c_in = INPUT_CHANNELS
        for s, c_out in enumerate(STAGE_CHANNELS, start=1):
            scale = np.sqrt(3.0 / (9 * c_in))
            draws = bulk_uniform(derive(seed, "conv", s), 9 * c_in * c_out)
            w = ((draws * 2.0 - 1.0) * scale).astype(np.float32)
            self._conv_w.append(w.reshape(3, 3, c_in, c_out))
            c_in = c_out

        head_c = STAGE_CHANNELS[-1]
        classes = len(CLASS_NAMES)
        draws = bulk_uniform(derive(seed, "head", 0), head_c * classes)
        self._head_w = ((draws * 2.0 - 1.0) * np.sqrt(3.0 / head_c)).reshape(
            head_c, classes
        )
        bias = bulk_uniform(derive(seed, "head", 1), classes)
        self._head_b = bias * 2.0 - 1.0

        self._norm_scale: list[np.ndarray] = []
        self._norm_offset: list[np.ndarray] = []
        self._calibrate()
        # corpus_stats state: stats by (cut, n_images), and the one corpus
        # the last call left for a deeper cut to continue, as
        # (n_images, stage index, cut tensors)
        self._stats: dict[tuple[str, int], TensorStats] = {}
        self._held_corpus: tuple[int, int, list[FeatureTensor]] | None = None

    # ------------------------------------------------------------------ inputs

    def generate_input(self, image_id: int, translation=(0.0, 0.0)) -> FeatureTensor:
        """Deterministic synthetic scene for an image id.

        ``translation=(dx, dy)`` pans the sampling window right/down by that
        many input pixels (subpixel values allowed) across the same analytic
        pattern, so a translated input is a true continuous shift of the
        untranslated one, including fresh content entering the frame.
        """
        side = INPUT_SIZE
        rng = Xorshift64Star(derive(self.seed, "image", image_id))
        dx, dy = float(translation[0]), float(translation[1])
        ys = np.arange(side, dtype=np.float64) + dy
        xs = np.arange(side, dtype=np.float64) + dx
        yy = ys[:, None]
        xx = xs[None, :]

        out = np.empty((side, side, INPUT_CHANNELS), dtype=np.float64)
        for c in range(INPUT_CHANNELS):
            out[:, :, c] = rng.uniform_in(-0.2, 0.2)

        for _ in range(6):
            cx = rng.uniform_in(0.0, side)
            cy = rng.uniform_in(0.0, side)
            r = rng.uniform_in(5.0, 18.0)
            amp = rng.uniform_in(-1.0, 1.0)
            blob = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * r * r))
            for c in range(INPUT_CHANNELS):
                out[:, :, c] += rng.uniform_in(0.0, 1.0) * amp * blob

        for _ in range(2):
            freq = rng.uniform_in(0.02, 0.09)
            theta = rng.uniform_in(0.0, 2.0 * np.pi)
            phase = rng.uniform_in(0.0, 2.0 * np.pi)
            wave = np.sin(
                2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase
            )
            for c in range(INPUT_CHANNELS):
                out[:, :, c] += rng.uniform_in(-0.4, 0.4) * wave

        return FeatureTensor(out.astype(np.float32))

    # ------------------------------------------------------------------ stages

    def _stage_raw(self, x: np.ndarray, stage: int) -> np.ndarray:
        """Conv + pool of one stage, before normalization."""
        return _avgpool2(_conv3x3(x, self._conv_w[stage - 1]))

    def _normalize(self, raw: np.ndarray, stage: int) -> np.ndarray:
        """Frozen per-channel affine of one stage, then ReLU before the last."""
        y = raw * self._norm_scale[stage - 1] + self._norm_offset[stage - 1]
        if stage < len(STAGE_CHANNELS):
            y = np.maximum(y, np.float32(0.0))
        return y

    def _stages(self, x: np.ndarray, first: int, last: int) -> np.ndarray:
        """Stages first..last in order (none when first > last): the one loop
        every forward pass runs, so a tensor continued from a shallower cut
        is the same float32 bytes as one run from the input."""
        for stage in range(first, last + 1):
            x = self._normalize(self._stage_raw(x, stage), stage)
        return x

    def _calibrate(self):
        """Fit per-channel affine normalization over the calibration corpus.

        Each stage's pre-normalization responses are collected over all
        calibration images; scale and offset are frozen so the normalized
        (pre-ReLU) responses have zero mean and unit variance per channel.
        Later stages are calibrated on the already-normalized outputs of
        earlier ones, normalized from the responses just measured, so each
        stage convolves each image once.

        Memory: a stage's inputs are made one image at a time, and each
        image's response replaces the one it was made from, so calibration
        holds one stage's float32 responses (4 MiB at stage 1) plus the
        ``_channel_moments`` buffer: ``1 + 8 * H * W`` rows of C float64
        values at stage 1 (1 MiB), whose prefix every later stage reuses.
        glibc maps a block that large on its own, so the heap stays compact
        while calibration runs; freeing the mapping when calibration ends
        raises glibc's mmap and trim thresholds to its size and twice that,
        1 and 2 MiB, still above a frame's largest array (a stage-1 conv
        output, 256 KiB).  Later passes then take a frame's arrays from the
        heap instead of faulting in fresh pages on every call: a steady
        bench pass faults 0-8 pages, with one pass of 43 on
        ``lossy_stream``.  A one-image buffer (128 KiB) leaves the
        thresholds low enough for every such pass to fault 63k-67k pages.
        """
        first = CUT_POINTS[0]
        flat = np.empty((1 + _CAL_CHUNK * first.height * first.width) * first.channels)
        raws = [None] * CALIBRATION_IMAGES
        for stage in range(1, len(STAGE_CHANNELS) + 1):
            for i in range(CALIBRATION_IMAGES):
                x = (self._normalize(raws[i], stage - 1) if stage > 1
                     else self.generate_input(_CAL_ID_BASE + i).data)
                raws[i] = self._stage_raw(x, stage)
            mean_c, std_c = _channel_moments(raws, flat)
            std_c = np.maximum(std_c, 1e-6)
            self._norm_scale.append((1.0 / std_c).astype(np.float32))
            self._norm_offset.append((-mean_c / std_c).astype(np.float32))

    # ------------------------------------------------------------------ manifest

    def manifest(self) -> dict:
        """models.json-style description consumed by the pipeline and CLI."""
        return {
            "model": MODEL_NAME,
            "seed": self.seed,
            "input": [INPUT_SIZE, INPUT_SIZE, INPUT_CHANNELS],
            "classes": list(CLASS_NAMES),
            "cuts": [
                {
                    "name": c.name,
                    "shape": [c.height, c.width, c.channels],
                    "stride": c.stride,
                    "cumulative_macs": c.cumulative_macs,
                    "raw_bytes": c.raw_bytes,
                }
                for c in CUT_POINTS
            ],
        }

    # ------------------------------------------------------------------ forward

    def forward_client(self, input_tensor: FeatureTensor, cut: str) -> FeatureTensor:
        """Run stages 1..cut and return the cut tensor."""
        return FeatureTensor(
            self._stages(input_tensor.data, 1, cut_point(cut).stage_index))

    def forward_server(self, tensor: FeatureTensor, cut: str) -> np.ndarray:
        """Run the remaining stages plus the pooled linear head; returns the
        10 class scores."""
        x = self._stages(tensor.data, cut_point(cut).stage_index + 1,
                         len(STAGE_CHANNELS))
        pooled = x.astype(np.float64).mean(axis=(0, 1))
        return pooled @ self._head_w + self._head_b

    def predict(self, input_tensor: FeatureTensor) -> np.ndarray:
        last = CUT_POINTS[-1].name
        return self.forward_server(self.forward_client(input_tensor, last), last)

    # ------------------------------------------------------------------ metrics

    def argmax(self, tensor: FeatureTensor, cut: str) -> int:
        """Server-side argmax class of a cut tensor."""
        return int(np.argmax(self.forward_server(tensor, cut)))

    def sweep(self, image_ids, cut: str, degrade) -> tuple[int, list[tuple]]:
        """Clean-argmax agreement over a grid of degradations: the one loop
        every agreement sweep runs.

        Images run one at a time, in id order: the cut tensor, its clean
        argmax, then ``degrade(image_id, tensor)``, which yields one
        ``(degraded tensor, measure)`` per grid cell, in the same cell order
        for every image.  Returns the image count and, per cell, how many
        degraded tensors kept their clean argmax and the sum of their
        measures in id order.  The loop holds one image's tensors at a time,
        whatever the image count.
        """
        count, hits, totals = 0, {}, {}
        for image_id in image_ids:
            tensor = self.forward_client(self.generate_input(image_id), cut)
            clean = self.argmax(tensor, cut)
            for k, (degraded, measure) in enumerate(degrade(image_id, tensor)):
                hits[k] = hits.get(k, 0) + (self.argmax(degraded, cut) == clean)
                totals[k] = totals.get(k, 0) + measure
            count += 1
        if not count:
            raise ValueError("empty corpus")
        return count, list(zip(hits.values(), totals.values()))


def corpus_stats(model: SplitModel, cut: str, n_images: int) -> TensorStats:
    """Dataset statistics at a cut, shared by client and server.

    The corpus is images ``0..n_images-1`` run to the cut.  The model keeps
    the stats for its lifetime, but a corpus lives for one call: a call
    that builds stats short of the last cut holds its corpus, and the next
    call takes it.  If that call builds a deeper cut over the same image
    count, it continues the held corpus, the same bytes as running each
    image again; any other call, a cached one included, drops it before
    building anything.  So at most one corpus is alive, and none once a
    caller has made its next call.

    Memory: a corpus short of the last cut is ReLU output, about half
    zeros, so it is held as a ``PackedCorpus`` of its nonzero values and a
    one-bit mask (8.6 MiB for 256 stage1 tensors, 16 MiB as float32).  The
    last cut has no ReLU and is never held, so its corpus stays a list of
    float32 tensors.  ``collect_stats`` adds a few float64 arrays of one
    tensor's shape.  Continuing a held corpus consumes it: each shallower
    tensor is dropped as soon as its deeper one is made, so the two
    corpora are never alive together.
    """
    held, model._held_corpus = model._held_corpus, None
    key = (cut, n_images)
    if key in model._stats:
        return model._stats[key]
    point = cut_point(cut)
    stage = point.stage_index
    if held is not None and held[0] == n_images and held[1] < stage:
        _, start, shallow = held
        sources = shallow.drain()
    else:
        start = 0
        sources = (model.generate_input(i).data for i in range(n_images))
    held = None     # a corpus this call does not continue is freed here
    last = stage == len(CUT_POINTS)
    corpus = [] if last else PackedCorpus((point.height, point.width, point.channels))
    for x in sources:
        corpus.append(FeatureTensor(model._stages(x, start + 1, stage)))
    model._stats[key] = collect_stats(corpus, label=f"{cut}-{n_images}")
    if not last:
        model._held_corpus = (n_images, stage, corpus)
    return model._stats[key]
