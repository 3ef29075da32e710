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

import atexit
import os
import pickle
import select
import signal
import sys
import threading
import weakref
from collections import deque
from dataclasses import dataclass

import numpy as np

from .rng import Xorshift64Star, bulk_uniform, derive
from .tensor import (FeatureTensor, PackedCorpus, TensorStats, _moments,
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

_CAL_ID_BASE = 1 << 40  # calibration image ids, disjoint from corpus ids

# fewest images a fan-out gives each chunk.  On a 2-core Xeon VM a child
# started by os.fork costs 1-2 ms and two busy processes each run slower
# than one: split in two, a 7-quality stage3 rate_fidelity_curve call went
# from 9.4 to 13.0 ms on 2 images, broke even on 6 (26.8 -> 27.2 ms) and
# gained on 8 (33.7 -> 30.2 ms), while an 8-image stage1 call went from 144
# to 88 ms
_MIN_CHUNK_IMAGES = 4


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
        # the package's one allocator policy: freeing a 1 MiB mapping raises
        # glibc's mmap and trim thresholds to 1 and 2 MiB, above a frame's
        # largest array (a 256 KiB stage-1 conv output), so later passes
        # reuse heap pages; without it a long_rtt_target pass can fault 12k
        # fresh ones.  Raised before calibration, it would cost that
        # workload 0.8 MiB of peak RSS
        np.empty(1 << 17)
        # corpus_stats state: stats by (cut, n_images), and the one corpus
        # the last call left for a deeper cut to continue, as
        # (n_images, stage index, cut tensors), a cut short of the last
        self._stats: dict[tuple[str, int], TensorStats] = {}
        self._held_corpus: tuple[int, int, PackedCorpus] | None = None

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

        Each stage fans its images out over the usable cores (see
        ``_fan_out``): a forked child inherits the previous stage's
        responses and norms, and this process receives each image's
        response in id order, so the norms are the same bits as a one-core
        run's.

        Memory: a stage's inputs are made one image at a time, and each
        image's response replaces the one it was made from, so calibration
        holds one stage's float32 responses (4 MiB at stage 1) plus the
        float64 buffer of one image's rows in ``tensor._moments``.  A forked
        child holds its chunk's responses until it sends them, and this
        process receives them one image at a time, each into the slot of
        the response it replaces.
        """
        raws = [None] * CALIBRATION_IMAGES
        for stage in range(1, len(STAGE_CHANNELS) + 1):
            def response(i, stage=stage):
                x = (self._normalize(raws[i], stage - 1) if stage > 1
                     else self.generate_input(_CAL_ID_BASE + i).data)
                return self._stage_raw(x, stage)

            _fan_out(range(CALIBRATION_IMAGES), response, raws.__setitem__)
            mean_c, std_c = _moments(lambda i: raws[i].reshape(-1),
                                     len(raws), raws[0].size, raws[0].shape[2])
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

        Each image runs alone: the cut tensor, its clean argmax, then
        ``degrade(image_id, tensor)``, which yields one ``(degraded tensor,
        measure)`` per grid cell, in the same cell order for every image.
        Returns the image count and, per cell, how many degraded tensors
        kept their clean argmax and the sum of their measures in id order.
        Each process holds one image's tensors at a time, whatever the image
        count.

        The images fan out over the usable cores (see ``_fan_out``).  Every
        image's outcome is merged here in id order, so the result is the
        same bytes as a one-core run.
        ``degrade`` runs in the process that owns its image, so it must not
        rely on side effects, and its measures must pickle.
        """
        count, hits, totals = 0, {}, {}

        def outcome(image_id):
            tensor = self.forward_client(self.generate_input(image_id), cut)
            clean = self.argmax(tensor, cut)
            return [(self.argmax(degraded, cut) == clean, measure)
                    for degraded, measure in degrade(image_id, tensor)]

        def merge(_image_id, kept_measures):
            nonlocal count
            for k, (kept, measure) in enumerate(kept_measures):
                hits[k] = hits.get(k, 0) + kept
                totals[k] = totals.get(k, 0) + measure
            count += 1

        _fan_out(image_ids, outcome, merge)
        if not count:
            raise ValueError("empty corpus")
        return count, list(zip(hits.values(), totals.values()))


def _fan_out(ids, run, receive) -> None:
    """``receive(i, run(i))`` for each id, in id order, with the ids run
    over the usable cores: the package's one fan-out.

    The ids are split into contiguous chunks (see ``_chunks``).  A child
    started by ``os.fork`` runs each chunk after the first, so it inherits
    ``run`` and all it reads without pickling them.  This process runs the
    first chunk itself, receiving each result as it is made.  A child runs
    its whole chunk before it writes each result, pickled, down a pipe, so
    it never waits on a full pipe while this process works, and this
    process reads one image's result at a time.
    Where a child cannot be started (``os.fork`` or ``os.pipe`` raises
    ``OSError``, say at the process limit), this process runs that chunk
    and every later one itself, after the children's.

    If images raise, this raises what the earliest of them in id order
    raised; an exception that does not pickle is raised by running its
    image again here.  So the one rule for callers: whatever ``run(i)``
    reads stays readable in this process until ``receive(i, ...)`` is
    called, which may free it.  No child outlives the call.
    """
    ids = list(ids)
    chunks = _chunks(ids, _usable_cores())
    children, reaped = [], set()
    try:
        for chunk in chunks[1:]:
            try:
                children.append((*_fork(
                    lambda out, chunk=chunk: _run_chunk(chunk, run, out)), chunk))
            except OSError:
                break
        rest = [i for chunk in chunks[1 + len(children):] for i in chunk]
        for i in chunks[0]:
            receive(i, run(i))
        for child in children:
            _received(child, run, receive, reaped)
        for i in rest:
            receive(i, run(i))
    finally:
        for pid, reader, _ in children:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            reader.close()


def _fork(work) -> tuple:
    """(pid, reading end) of a child started on ``work(writing end)``: the
    package's one ``os.fork``.  The child exits when ``work`` returns or
    raises, never back into the caller's frames."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            # an interrupt reaches the whole process group; the parent
            # handles it and ends its children
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(read_fd)
            with os.fdopen(write_fd, "wb") as out:
                work(out)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _run_chunk(chunk: list, run, out) -> None:
    """A child's work: the results of its chunk up to the first image that
    raises, then their count, each result and that image's exception, or
    None if the exception does not survive pickling, each pickled."""
    done, error = [], None
    try:
        for i in chunk:
            done.append(run(i))
    except BaseException as exc:
        error = exc
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            error = None
    pickle.dump(len(done), out)
    for result in done:
        pickle.dump(result, out, pickle.HIGHEST_PROTOCOL)
    if len(done) < len(chunk):
        pickle.dump(error, out, pickle.HIGHEST_PROTOCOL)


def _received(child: tuple, run, receive, reaped: set) -> None:
    """Hands ``receive`` a child's results in id order, then raises the
    exception its chunk raised, if any."""
    pid, reader, chunk = child

    def load():
        try:
            return pickle.load(reader)
        except (EOFError, pickle.UnpicklingError):
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            raise RuntimeError(
                f"a forked child exited with code {os.waitstatus_to_exitcode(status)}"
                " before it reported") from None

    done = load()
    for i in chunk[:done]:
        receive(i, load())
    if done == len(chunk):
        return
    error = load()
    if error is not None:
        raise error
    # an exception that does not pickle is raised by running its image here
    failed = chunk[done]
    run(failed)
    raise RuntimeError(f"image {failed} raised in a forked child but not here")


# each owner's helper between its uses: see take_helper
_kept: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def take_helper(owner, work) -> Helper | None:
    """A ``Helper`` for ``owner``: the one ``keep_helper`` kept for it, else
    a new one running ``work`` (a kept helper runs the work it started
    with).  None where this process has one usable core (see
    ``_usable_cores``) or cannot start a child (``os.fork`` or ``os.pipe``
    raises ``OSError``).  The caller holds the helper alone until it hands
    it back with ``keep_helper``, or ends it with ``Helper.close``."""
    if _usable_cores() < 2:
        return None
    helper = _kept.pop(owner, None)
    if helper is not None and os.waitpid(helper.pid, os.WNOHANG)[0]:
        helper.pid = None       # ended while kept, say by a kill: reaped
        helper.close()
        helper = None
    if helper is None:
        try:
            helper = Helper(work)
        except OSError:
            return None
    return helper


def keep_helper(owner, helper: Helper) -> None:
    """Keeps ``helper`` for ``owner``'s next ``take_helper``.  It ends when
    ``owner`` is collected, at exit, or at ``end_helpers``."""
    _kept[owner] = helper


def end_helpers() -> None:
    """Ends every kept helper."""
    while _kept:
        _kept.popitem()[1].close()


atexit.register(end_helpers)


class Helper:
    """A child started by ``_fork`` that answers requests in order, beside
    this process.

    In the child, ``work(requests, reply)`` iterates the requests as
    ``submit`` sends them, until this process ends the helper, and calls
    ``reply`` once per request, in order.  Here, ``reply()`` returns the
    next reply, blocking until the child has made it, and raises what
    ``work`` raised (a ``RuntimeError`` where that does not pickle, or
    where the child ended without replying).  Requests and replies are
    pickled down two pipes.  ``submit`` loads replies the child has written
    while it waits to write, so neither process ever waits on a full pipe
    that the other is waiting to write to.  ``close``, or dropping the last
    reference, ends the child and reaps it.
    """

    def __init__(self, work):
        read_fd, write_fd = os.pipe()       # requests

        def serve(out):
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as requests:
                _serve(work, requests, out)

        try:
            self.pid, self._replies = _fork(serve)
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        os.close(read_fd)
        os.set_blocking(write_fd, False)
        self._requests = os.fdopen(write_fd, "wb", buffering=0)
        self._early: deque = deque()    # replies loaded while submitting
        self._parent = os.getpid()      # a forked copy of this ends nothing

    def reply(self):
        return self._early.popleft() if self._early else self._load()

    def close(self) -> None:
        if getattr(self, "_parent", None) != os.getpid():
            return      # never started, or a forked copy
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()
        self._requests.close()
        self._replies.close()

    __del__ = close

    def submit(self, request) -> None:
        data = memoryview(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))
        while data:
            readable, writable, _ = select.select([self._replies],
                                                  [self._requests], [])
            if readable:
                self._early.append(self._load())
            if writable:
                try:
                    data = data[self._requests.write(data) or 0:]
                except BrokenPipeError:
                    # the child has ended: its last reply says why
                    while True:
                        self._load()

    def _load(self):
        try:
            ok, value = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"a forked helper exited with code {self._reap()}"
                               " before it replied") from None
        if not ok:
            self._reap()
            raise value
        return value

    def _reap(self) -> int:
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return os.waitstatus_to_exitcode(status)


def _serve(work, requests, out) -> None:
    """A helper's work: ``work``'s replies, each pickled as (True, reply),
    then, if it raises, (False, what it raised).  The requests end where
    the parent closes its end of their pipe."""

    def each_request():
        while True:
            try:
                yield pickle.load(requests)
            except EOFError:
                return

    def reply(value):
        pickle.dump((True, value), out, pickle.HIGHEST_PROTOCOL)
        out.flush()

    try:
        work(each_request(), reply)
    except BaseException as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"a forked helper raised {exc!r}")
        pickle.dump((False, exc), out, pickle.HIGHEST_PROTOCOL)
        raise


def _usable_cores() -> int:
    """Cores a fan-out may use: those this process may run on, or 1 where
    it cannot start a child by ``fork`` safely.  That is where there is no
    ``fork``, in a daemonic ``multiprocessing`` worker, which may start no
    child (told from ``sys.modules``, so the package never loads
    ``multiprocessing`` itself), and while other threads run: a child gets
    only the calling thread, so a lock another thread holds would stay
    locked in it."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _chunks(ids: list, cores: int) -> list[list]:
    """Contiguous chunks of ``ids``: one per core, but no more than give
    each chunk ``_MIN_CHUNK_IMAGES``, and at least one."""
    n = max(1, min(cores, len(ids) // _MIN_CHUNK_IMAGES))
    bounds = [len(ids) * k // n for k in range(n + 1)]
    return [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
    tensor is dropped when its deeper one arrives, so the two corpora are
    never both whole.

    The images fan out over the usable cores (see ``_fan_out``).  A child
    inherits the held corpus and reads its chunk of it; this process keeps
    each child image's shallower tensor until that image's result arrives,
    so it can run a failed image again.  A child holds its chunk's cut
    tensors, packed short of the last cut, until it sends them, and this
    process receives them one image at a time and appends each to its
    corpus in id order, so the stats are the same bytes as a one-core
    run's.
    """
    held, model._held_corpus = model._held_corpus, None
    key = (cut, n_images)
    if key in model._stats:
        return model._stats[key]
    point = cut_point(cut)
    stage = point.stage_index
    if held is not None and held[0] == n_images and held[1] < stage:
        _, start, shallow = held
        source = lambda i: shallow.flat(i).reshape(shallow.shape)  # noqa: E731
        done = shallow.drop
    else:
        start, done = 0, lambda _i: None  # noqa: E731
        source = lambda i: model.generate_input(i).data  # noqa: E731
    held = None     # a corpus this call does not continue is freed here
    last = stage == len(CUT_POINTS)
    corpus = [] if last else PackedCorpus((point.height, point.width, point.channels))

    def run(i):
        # in the form the corpus keeps, made by whichever process runs i
        t = FeatureTensor(model._stages(source(i), start + 1, stage))
        return t if last else corpus.pack(t)

    def receive(i, item):
        corpus.append(item)
        done(i)

    _fan_out(range(n_images), run, receive)
    model._stats[key] = collect_stats(corpus, label=f"{cut}-{n_images}")
    if not last:
        model._held_corpus = (n_images, stage, corpus)
    return model._stats[key]
