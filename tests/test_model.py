import errno
import gc
import hashlib
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conv_reference
from conftest import cut_tensors, no_child_left
from splitstream import (CLASS_NAMES, CUT_POINTS, EQUIVARIANCE_BORDER,
                         FeatureTensor, SplitModel, cut_point, loss_sweep,
                         rate_fidelity_curve, sweep)
from splitstream import model as model_module
from splitstream.model import (_CAL_ID_BASE, CALIBRATION_IMAGES, STAGE_CHANNELS,
                               _chunks, _conv3x3, corpus_stats, end_helpers,
                               keep_helper, take_helper)


def test_class_names_and_border():
    assert CLASS_NAMES == tuple(f"class_{i}" for i in range(10))
    assert EQUIVARIANCE_BORDER == 1


def test_cut_geometry():
    cuts = CUT_POINTS
    assert [c.name for c in cuts] == ["stage1", "stage2", "stage3"]
    assert [(c.height, c.width, c.channels) for c in cuts] == [
        (32, 32, 16), (16, 16, 32), (8, 8, 64)]
    assert [c.stride for c in cuts] == [2, 4, 8]
    assert [c.raw_bytes for c in cuts] == [65536, 32768, 16384]
    macs = [c.cumulative_macs for c in cuts]
    assert macs[0] < macs[1] < macs[2]
    assert macs[0] == 64 * 64 * 9 * 3 * 16


def test_forward_shapes(model):
    x = model.generate_input(0)
    assert x.shape == (64, 64, 3)
    for cut in CUT_POINTS:
        t = model.forward_client(x, cut.name)
        assert t.shape == (cut.height, cut.width, cut.channels)
        scores = model.forward_server(t, cut.name)
        assert scores.shape == (10,)
    assert model.predict(x).shape == (10,)


def test_unknown_cut_rejected(model):
    with pytest.raises(ValueError, match="unknown cut"):
        model.forward_client(model.generate_input(0), "stage9")
    # cuts are named; a stage index or a CutPoint is not a name
    for cut in (2, CUT_POINTS[1]):
        with pytest.raises(ValueError, match="unknown cut"):
            model.forward_client(model.generate_input(0), cut)


def test_cut_point_lookup():
    assert cut_point("stage2") is CUT_POINTS[1]
    with pytest.raises(ValueError) as exc:
        cut_point("x")
    assert str(exc.value) == "unknown cut 'x'; choose from stage1, stage2, stage3"


def test_split_equals_full_run(model):
    """Any cut placement computes the same scores as the unsplit model."""
    x = model.generate_input(5)
    whole = model.predict(x)
    for cut in ("stage1", "stage2", "stage3"):
        half = model.forward_server(model.forward_client(x, cut), cut)
        assert np.array_equal(half, whole)


def test_generate_input_deterministic(model):
    a = model.generate_input(17)
    b = model.generate_input(17)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, model.generate_input(18).data)
    assert np.array_equal(a.data, model.generate_input(17, (0.0, 0.0)).data)


def test_same_seed_same_weights(model):
    twin = SplitModel()
    x = model.generate_input(2)
    assert np.array_equal(model.predict(x), twin.predict(x))


def test_translation_pans_content(model):
    """A whole-pixel pan reproduces the untranslated scene, shifted."""
    ref = model.generate_input(4)
    cur = model.generate_input(4, (8.0, 0.0))
    # cur(y, x) samples the pattern at x + 8
    assert np.allclose(cur.data[:, :-8, :], ref.data[:, 8:, :], atol=1e-6)


def test_stride_shift_equivariance_exact(model):
    """An 8 px pan shifts the stage-3 tensor by exactly one element."""
    ref = model.forward_client(model.generate_input(0), "stage3")
    cur = model.forward_client(model.generate_input(0, (8.0, 0.0)), "stage3")
    b = EQUIVARIANCE_BORDER
    # cur(y, x) == ref(y, x+1) away from the padded border
    assert np.array_equal(
        cur.data[b:-b, b:-b - 1, :], ref.data[b:-b, b + 1:-b, :]
    )


def test_zero_tensor_scores_are_head_bias(model):
    zeros = FeatureTensor(np.zeros((8, 8, 64), dtype=np.float32))
    scores = model.forward_server(zeros, "stage3")
    # GAP of zeros is zero, so only the bias survives; probe the bias
    # independently through two scaled inputs
    ones = FeatureTensor(np.ones((8, 8, 64), dtype=np.float32))
    twos = FeatureTensor(np.full((8, 8, 64), 2.0, dtype=np.float32))
    s1 = model.forward_server(ones, "stage3")
    s2 = model.forward_server(twos, "stage3")
    bias = 2 * s1 - s2  # (w + b) scaled: 2(w+b) - (2w+b) = b
    assert np.allclose(scores, bias, atol=1e-9)


def test_agreement_identity_and_zeroing(model, cores):
    # one core, so that every image runs in this process and ``seen`` sees it
    cores(1)
    ids = range(12)
    clean = [model.argmax(t, "stage2") for t in cut_tensors(model, ids, "stage2")]
    zero_scores = model.forward_server(
        FeatureTensor(np.zeros((16, 16, 32), dtype=np.float32)), "stage2")
    bias_class = int(np.argmax(zero_scores))
    expected = sum(c == bias_class for c in clean) / len(clean)

    seen = []

    def degrade(image_id, t):
        seen.append(image_id)
        yield t, image_id                                   # identity
        yield FeatureTensor(np.zeros_like(t.data)), 1       # wipe
        d = np.array(t.data)
        d[:, :, :16] = 0.0
        yield FeatureTensor(d), 0                           # drop half

    count, cells = model.sweep(ids, "stage2", degrade)
    assert seen == list(ids) and count == len(ids)
    assert [total for _, total in cells] == [sum(ids), len(ids), 0]
    # exact values, so a refactor of the match loop cannot move them
    agreement = [hits / count for hits, _ in cells]
    assert agreement == [1.0, expected, 4 / 12] and expected == 0.25


def test_agreement_empty_corpus(model):
    with pytest.raises(ValueError, match="empty corpus"):
        model.sweep([], "stage2", lambda image_id, t: iter(()))
    # every sweep runs the model's loop, so they reject it alike
    with pytest.raises(ValueError, match="empty corpus"):
        sweep(model, [], "stage2", [4], [2.0], None)
    with pytest.raises(ValueError, match="empty corpus"):
        loss_sweep(model, [], "stage2", ["by_element"], [0.1], ["zero"], None, 0)
    with pytest.raises(ValueError, match="empty corpus"):
        rate_fidelity_curve(model, [], "stage2", [50], None)


def test_chunks_are_contiguous_and_worth_a_child(model, corpus_at, cores,
                                                 monkeypatch):
    ids = list(range(10, 19))
    assert _chunks(ids, 1) == [ids]
    assert _chunks(ids, 2) == [ids[:4], ids[4:]]
    # no chunk gets fewer than _MIN_CHUNK_IMAGES images, so 9 images make
    # two chunks on any number of cores, and 7 make one
    assert _chunks(ids, 8) == _chunks(ids, 2)
    assert _chunks(ids[:7], 2) == [ids[:7]]
    assert _chunks([], 2) == [[]]
    assert len(_chunks(list(range(256)), 2)) == 2

    # the chunk count of each fan-out the calls below make
    counts = []

    def counted(*args):
        counts.append(len(_chunks(*args)))
        return _chunks(*args)

    monkeypatch.setattr(model_module, "_chunks", counted)
    cores(2)
    # an 8-image curve splits at either end of the model
    for cut in ("stage1", "stage3"):
        counts.clear()
        rate_fidelity_curve(model, range(8), cut, [2, 50, 95], corpus_at(cut, 8)[1])
        assert counts == [2]
    counts.clear()
    fresh = SplitModel()                            # one fan-out per stage
    assert counts == [2, 2, 2]
    counts.clear()
    for cut, n in (("stage1", 64), ("stage3", 64), ("stage2", 64)):
        corpus_stats(fresh, cut, n)
    assert counts == [2, 2, 2]
    # too few images to split: 5 at stage1, then continued to stage3
    counts.clear()
    corpus_stats(fresh, "stage1", 5)
    corpus_stats(fresh, "stage3", 5)
    assert counts == [1, 1]
    no_child_left()


def test_sweep_runs_later_chunks_in_children(model, cores):
    parent = os.getpid()

    def degrade(image_id, t):
        yield t, os.getpid() != parent

    cores(2)
    count, cells = model.sweep(range(8), "stage3", degrade)
    assert (count, cells) == (8, [(8, 4)])
    no_child_left()


def test_fan_out_rows_equal_one_core(model, corpus_at, cores):
    # every row of every sweep, float mse sums included, is the same value
    # whether later chunks run in children or all images run here
    _, stats = corpus_at("stage1", 8)
    ids = range(100, 110)
    calls = [
        lambda: rate_fidelity_curve(model, ids, "stage1", [5, 50, 95], stats),
        lambda: sweep(model, ids, "stage1", [4, 16], [2.0, 3.0], stats),
        lambda: loss_sweep(model, ids, "stage1", ["by_element"], [0.3],
                           ["zero", "dataset_mean"], stats, 4),
    ]
    for call in calls:
        cores(1)
        one = call()
        cores(2)
        assert call() == one
    no_child_left()


@pytest.mark.parametrize("seed", [0x5EED, 9])
def test_calibration_fanned_out_gives_the_same_norms(cores, seed):
    norms = []
    for n in (1, 2):
        cores(n)
        m = SplitModel(seed)
        norms.append([a.tobytes() for a in m._norm_scale + m._norm_offset])
    assert norms[0] == norms[1]
    no_child_left()


class UnpicklableError(Exception):
    # pickle rebuilds an exception from its message alone, which this
    # __init__ does not take
    def __init__(self, image_id, reason):
        super().__init__(f"image {image_id}: {reason}")


def failing_on(bad, error=ValueError):
    def degrade(image_id, t):
        if image_id in bad:
            raise error(image_id, "bad image")
        yield t, 1.0

    return degrade


@pytest.mark.parametrize("bad, error", [
    ({6}, ValueError),            # in the child's chunk only
    ({5, 7}, ValueError),         # twice in the child's chunk
    ({2, 6}, ValueError),         # in both chunks: this process's comes first
    ({6}, UnpicklableError),      # the image runs again here to raise it
])
def test_fan_out_raises_what_one_core_raises(model, cores, bad, error):
    raised = []
    for n in (1, 2):
        cores(n)
        with pytest.raises(error) as info:
            model.sweep(range(8), "stage3", failing_on(bad, error))
        raised.append((type(info.value), str(info.value)))
        no_child_left()
    assert raised[0] == raised[1]


def test_a_daemonic_worker_sweeps_in_one_process(model, cores):
    # a daemonic multiprocessing worker may not start children of its own
    cores(2)

    def work():
        worker = os.getpid()
        sender.send(model.sweep(range(8), "stage3",
                                lambda i, t: iter([(t, os.getpid() != worker)])))

    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    worker = ctx.Process(daemon=True, target=work)
    worker.start()
    sender.close()  # so a worker that fails ends the wait with EOFError
    assert receiver.poll(60) and receiver.recv() == (8, [(8, 0)])
    worker.join(60)
    assert worker.exitcode == 0


def test_a_threaded_process_sweeps_in_one_process(model, cores):
    # a forked child gets only the calling thread, so with another thread
    # running every image runs here
    cores(2)
    parent, release = os.getpid(), threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        count, cells = model.sweep(
            range(8), "stage3", lambda i, t: iter([(t, os.getpid() != parent)]))
    finally:
        release.set()
        other.join(60)
    assert (count, cells) == (8, [(8, 0)])


class _Owner:
    """Something a helper can be kept for."""


def _echo(requests, reply):
    # each request's length, after 256 bytes; None ends a round
    for request in requests:
        reply("last" if request is None
              else bytes(256) + len(request).to_bytes(4, "little"))


def test_a_helper_never_waits_on_replies_left_unread(cores):
    # more replies than a pipe holds pile up unread while requests, some
    # larger than a pipe, are still being written: submit loads replies
    # while it waits to write, so neither process blocks the other
    def timed_out(signum, frame):
        raise TimeoutError("the helper and this process wait on each other")

    cores(2)
    sizes = [200_000 if i % 100 == 0 else i for i in range(600)]
    helper = take_helper(_Owner(), _echo)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        for size in sizes:
            helper.submit(bytes(size))
        helper.submit(None)
        replies = [helper.reply() for _ in sizes]
        assert helper.reply() == "last"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        helper.close()
    assert replies == [bytes(256) + n.to_bytes(4, "little") for n in sizes]
    no_child_left()


def test_no_helper_on_one_core(cores):
    cores(1)
    assert take_helper(_Owner(), _echo) is None


def test_a_kept_helper_serves_its_owner_until_it_is_collected(cores):
    cores(2)
    owner, other = _Owner(), _Owner()
    helper = take_helper(owner, _echo)
    keep_helper(owner, helper)
    fresh = take_helper(other, _echo)       # another owner's is its own
    assert fresh.pid != helper.pid
    cores(1)
    assert take_helper(owner, _echo) is None
    cores(2)
    assert take_helper(owner, _echo) is helper
    assert take_helper(owner, _echo) is not helper     # held alone
    helper.submit(None)
    assert helper.reply() == "last"
    os.kill(fresh.pid, signal.SIGKILL)      # ended while kept: replaced
    os.waitid(os.P_PID, fresh.pid, os.WEXITED | os.WNOWAIT)
    keep_helper(other, fresh)
    replaced = take_helper(other, _echo)
    assert replaced is not fresh and fresh.pid is None      # reaped
    replaced.submit(None)
    assert replaced.reply() == "last"
    keep_helper(owner, helper)
    keep_helper(other, replaced)
    pid = helper.pid
    del owner, helper
    gc.collect()
    with pytest.raises(ChildProcessError):      # ended with its owner
        os.waitpid(pid, os.WNOHANG)
    assert os.waitpid(replaced.pid, os.WNOHANG) == (0, 0)
    end_helpers()
    no_child_left()


@pytest.fixture(scope="module")
def uncached():
    """A model for corpus_stats calls that all fail, so none is cached."""
    return SplitModel()


@pytest.fixture
def continued():
    """A model that holds a 64-image stage1 corpus for a stage3 call to
    continue; that call takes the corpus, so each test builds its own."""
    m = SplitModel()
    corpus_stats(m, "stage1", 64)
    return m


def by_input_id(m):
    """Fail an image where its input is made."""
    return "generate_input", lambda image_id, *args: image_id


def by_held_tensor(m):
    """Fail an image where its held stage1 tensor is continued: a
    continuation never makes an input."""
    held = m._held_corpus[2]
    ids = {held.flat(k).tobytes(): k for k in range(len(held))}
    return "_stages", lambda x, *args: ids.get(x.tobytes())


# each fan-out with 2 cores: the fixture it runs on, if any, the call, an
# image id in this process's chunk and one in the child's, and where to fail
FAN_OUTS = {
    "sweep": ("model", lambda m: m.sweep(range(8), "stage3", failing_on(set())),
              1, 6, by_input_id),
    "calibration": (None, lambda m: SplitModel(), _CAL_ID_BASE + 1,
                    _CAL_ID_BASE + 40, by_input_id),
    "corpus_stats": ("uncached", lambda m: corpus_stats(m, "stage2", 64), 1, 40,
                     by_input_id),
    "continued_corpus_stats": ("continued",
                               lambda m: corpus_stats(m, "stage3", 64), 1, 40,
                               by_held_tensor),
}


@pytest.mark.parametrize("fan_out", sorted(FAN_OUTS))
@pytest.mark.parametrize("case", ["raises", "unpicklable", "interrupt", "exits"])
def test_no_child_outlives_a_failed_image(request, cores, monkeypatch, fan_out,
                                          case):
    fixture, call, here, there, hook = FAN_OUTS[fan_out]
    m = request.getfixturevalue(fixture) if fixture else None
    cores(2)
    name, image_of = hook(m)
    parent, method = os.getpid(), getattr(SplitModel, name)
    bad, error = {
        "raises": (there, ValueError),
        "unpicklable": (there, UnpicklableError),
        "interrupt": (here, KeyboardInterrupt),
        "exits": (there, RuntimeError),
    }[case]

    def failing(self, *args):
        if image_of(*args) == bad:
            if case == "exits":
                assert os.getpid() != parent, "the child's image ran here"
                os._exit(3)
            raise error(bad, "bad image")
        return method(self, *args)

    monkeypatch.setattr(SplitModel, name, failing)
    with pytest.raises(error) as info:
        call(m)
    if case == "exits":
        assert "exited with code 3" in str(info.value)
    no_child_left()


@pytest.mark.parametrize("forks_allowed", [0, 1])
def test_a_fan_out_that_cannot_fork_runs_the_rest_here(cores, monkeypatch,
                                                       forks_allowed):
    # at the process limit os.fork raises BlockingIOError; the chunks it
    # could not start run here, and every result is a one-core run's bytes
    def results():
        m = SplitModel()
        norms = [a.tobytes() for a in m._norm_scale + m._norm_offset]
        stats = [corpus_stats(m, cut, 64) for cut in ("stage1", "stage3")]
        rows = rate_fidelity_curve(m, range(12), "stage1", [5, 95], stats[0])
        return norms, rows, [(s.per_neuron_mean.tobytes(), s.per_neuron_std.tobytes(),
                              s.aggregate_mean, s.aggregate_std) for s in stats]

    cores(1)
    one = results()
    # 3 cores, so each fan-out (64 or 12 images) tries two forks: with
    # forks_allowed 1 the first of them starts a child and the second fails
    cores(3)
    fork, attempts = os.fork, []

    def limited():
        attempts.append(1)
        if forks_allowed == 0 or len(attempts) % 2 == 0:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", limited)
    fds = len(os.listdir("/proc/self/fd"))
    assert results() == one
    # 3 calibration stages, 2 corpora and 1 curve
    assert len(attempts) == 6 * (1 + forks_allowed)
    assert len(os.listdir("/proc/self/fd")) == fds, "a pipe was left open"
    no_child_left()


def test_fanning_out_loads_no_multiprocessing():
    # importing multiprocessing raises a process's peak RSS by about 0.6 MiB
    code = "\n".join([
        "import os, sys",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "fork, forks = os.fork, []",
        "os.fork = lambda: forks.append(1) or fork()",
        "from splitstream import SplitModel",
        "from splitstream.pipeline import PipelineConfig, corpus_stats, run_session",
        "model = SplitModel()",
        "corpus_stats(model, 'stage2', 64)",
        "run_session(PipelineConfig(frames=2, stats_images=64), model)",
        "print(len(forks) > 0, sorted(m for m in sys.modules",
        "      if m.split('.')[0] in ('multiprocessing', 'concurrent')))",
    ])
    src = str(Path(model_module.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.split("\n")[0] == "True []"


def test_calibration_convolves_each_image_once_per_stage(monkeypatch, cores):
    # one core, so that every convolution runs in this process and is counted
    cores(1)
    calls = []

    def counting(x, w):
        calls.append(x.shape)
        return _conv3x3(x, w)

    monkeypatch.setattr(model_module, "_conv3x3", counting)
    SplitModel()
    assert len(calls) == len(CUT_POINTS) * CALIBRATION_IMAGES


def _reference_norms(m):
    """Calibration as first written, through ``np.stack(...).astype`` and
    ``np.std``, normalizing each stage with the norms just fitted."""
    xs = [m.generate_input(_CAL_ID_BASE + i).data for i in range(CALIBRATION_IMAGES)]
    scales, offsets = [], []
    for stage in range(1, len(STAGE_CHANNELS) + 1):
        raws = [m._stage_raw(x, stage) for x in xs]
        stack = np.stack(raws).astype(np.float64)
        mean_c = stack.mean(axis=(0, 1, 2))
        std_c = np.maximum(stack.std(axis=(0, 1, 2)), 1e-6)
        scales.append((1.0 / std_c).astype(np.float32))
        offsets.append((-mean_c / std_c).astype(np.float32))
        xs = [np.maximum(r * scales[-1] + offsets[-1], np.float32(0.0)) for r in raws]
    return scales, offsets


@pytest.mark.parametrize("seed", [0x5EED, 9])
def test_calibration_norms_match_reference(model, seed):
    m = model if seed == model.seed else SplitModel(seed)
    scales, offsets = _reference_norms(m)
    assert [a.tobytes() for a in m._norm_scale] == [a.tobytes() for a in scales]
    assert [a.tobytes() for a in m._norm_offset] == [a.tobytes() for a in offsets]


def test_calibration_holds_responses_and_one_image_buffer(traced_peak):
    # a stage's float32 responses (4 MiB at stage 1) and, in
    # tensor._moments, a float64 buffer of one image's 1 + H * W rows
    # (128 KiB at stage 1) and its temporaries, under 1 MiB
    assert traced_peak(SplitModel, 3) <= 5 * 2 ** 20


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="pins glibc's malloc thresholds")
def test_steady_sessions_reuse_heap_pages():
    # SplitModel() raises glibc's mmap and trim thresholds once, so a warm
    # long_rtt_target-shaped session takes its arrays from the heap.  Malloc
    # thresholds are process state that earlier tests have moved, hence a
    # fresh interpreter
    code = "\n".join([
        "import resource",
        "from splitstream import SplitModel",
        "from splitstream.pipeline import LinkScenario, PipelineConfig, run_session",
        "model = SplitModel()",
        "cfg = PipelineConfig(cut='stage2', target_bytes=10_000, frames=300,",
        "    link=LinkScenario(bandwidth_bps=1e5, rtt_us=300_000, loss_prob=0.02))",
        "run_session(cfg, model)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "run_session(cfg, model)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    src = str(Path(model_module.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    # 6-22 faults on a 2-core VM, about 600 there without the raise (on one
    # core, set-up happens to raise the thresholds anyway)
    assert int(done.stdout) < 200


def test_calibration_norms_pinned(model):
    # recorded before calibration reused each stage's measured responses;
    # the norms must not move by a bit
    digest = hashlib.sha256()
    for a in model._norm_scale + model._norm_offset:
        digest.update(a.tobytes())
    assert digest.hexdigest() == (
        "420e886c139ccc33619e09cefa0d89f099857a72dfbf8a4fe29a297d3a738ff6")


def test_calibration_contract(model):
    """Stage-3 output: aggregate mean in +-0.1, std in [0.8, 1.25], both on
    the calibration corpus and on fresh images."""
    from splitstream.model import _CAL_ID_BASE

    for base in (_CAL_ID_BASE, 0):
        acts = np.stack([
            model.forward_client(model.generate_input(base + i), "stage3").data
            for i in range(64)
        ]).astype(np.float64)
        assert abs(acts.mean()) <= 0.1
        assert 0.8 <= acts.std() <= 1.25


def test_relu_gating(model):
    """Hidden stages are non-negative; the cut stage output is signed."""
    x = model.generate_input(9)
    s1 = model.forward_client(x, "stage1")
    s2 = model.forward_client(x, "stage2")
    s3 = model.forward_client(x, "stage3")
    assert s1.data.min() >= 0.0
    assert s2.data.min() >= 0.0
    assert s3.data.min() < 0.0


def test_manifest(model):
    m = model.manifest()
    assert m["classes"] == list(CLASS_NAMES)
    assert m["input"] == [64, 64, 3]
    assert m["seed"] == 0x5EED
    assert [c["name"] for c in m["cuts"]] == ["stage1", "stage2", "stage3"]
    for entry, cut in zip(m["cuts"], CUT_POINTS):
        assert entry["shape"] == [cut.height, cut.width, cut.channels]
        assert entry["raw_bytes"] == cut.raw_bytes


# --------------------------------------------------------------- convolution

def _special_float32(rng, shape, lo_exp, hi_exp):
    """Random float32 values with magnitudes 10**lo_exp..10**hi_exp, plus
    planted +0.0, -0.0 and subnormals."""
    mag = 10.0 ** rng.uniform(lo_exp, hi_exp, size=shape)
    x = np.where(rng.random(shape) < 0.5, -mag, mag).astype(np.float32)
    kind = rng.integers(0, 8, size=shape)
    x[kind == 0] = 0.0
    x[kind == 1] = -0.0
    x[kind == 2] *= np.float32(1e-39)   # subnormal, or a signed zero
    return x


def _conv_case(seed, x_shape, c_out, lo_exp, hi_exp):
    """(input, weights) with |x| <= 1e30 and |w| <= 1e4, so that a sum of
    up to 9 * 33 products (the widest case here) stays finite."""
    rng = np.random.default_rng(seed)
    x = _special_float32(rng, x_shape, lo_exp, min(hi_exp, 30))
    w = _special_float32(rng, (3, 3, x_shape[2], c_out), lo_exp, min(hi_exp, 4))
    return x, w


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float32).view(np.uint32)


def _sequential_conv(x, w):
    """The order the model's convolution promises, one operation at a time:
    per tap, a float32 sum over input channels in channel order from zero,
    with a rounded multiply and a rounded add per channel; the taps added
    in raster order into an accumulator that starts at zero."""
    h, wd, c_in = x.shape
    xp = np.pad(x, ((1, 1), (1, 1), (0, 0)))
    out = np.zeros((h, wd, w.shape[3]), dtype=np.float32)
    for dy in range(3):
        for dx in range(3):
            tap = np.zeros_like(out)
            for i in range(c_in):
                tap = tap + xp[dy:dy + h, dx:dx + wd, i, None] * w[dy, dx, i]
            out = out + tap
    return out


_EXPONENTS = st.tuples(st.integers(-45, 0), st.integers(0, 30))


# c_out starts at 2: with one output channel the reference's weight column
# is contiguous, and einsum sums the channels with its SIMD dot kernel
# (several partial sums), which is not the sequential order.  No model
# stage has one channel; test_conv_is_sequential_float32_sum_over_channels
# covers that case for the model's convolution.
@given(st.integers(1, 17), st.integers(1, 17), st.integers(1, 8),
       st.integers(2, 8), _EXPONENTS, st.integers(0, 2 ** 32 - 1))
def test_conv_matches_reference_bitwise(h, w, c_in, c_out, exps, seed):
    x, wt = _conv_case(seed, (h, w, c_in), c_out, *exps)
    assert np.array_equal(_bits(_conv3x3(x, wt)),
                          _bits(conv_reference._conv3x3(x, wt)))


@pytest.mark.parametrize("stage", [1, 2, 3])
@settings(max_examples=10)
@given(_EXPONENTS, st.integers(0, 2 ** 32 - 1))
def test_conv_matches_reference_on_model_stages(model, stage, exps, seed):
    wt = model._conv_w[stage - 1]
    x = model._stages(model.generate_input(seed % 64).data, 1, stage - 1)
    lo, hi = exps
    special = _special_float32(np.random.default_rng(seed), x.shape, lo, hi)
    for inp in (x, special):
        assert np.array_equal(_bits(_conv3x3(inp, wt)),
                              _bits(conv_reference._conv3x3(inp, wt)))


@pytest.mark.parametrize("shape", [
    (1, 1, 1, 1), (5, 3, 8, 1), (7, 4, 6, 5), (3, 9, 1, 8), (2, 2, 33, 3),
    (64, 64, 3, 16), (32, 32, 16, 32), (16, 16, 32, 64),
])
def test_conv_is_sequential_float32_sum_over_channels(shape):
    """Fails by name if numpy's einsum kernel changes its order or starts
    fusing multiply and add, before any pinned bitstream moves."""
    h, w, c_in, c_out = shape
    for seed, exps in ((0, (-45, 30)), (1, (-3, 3)), (2, (-45, -30))):
        x, wt = _conv_case(seed, (h, w, c_in), c_out, *exps)
        assert np.array_equal(_bits(_conv3x3(x, wt)),
                              _bits(_sequential_conv(x, wt)))


# SHA-256 of the float32 bytes of forward_client on images 0-7, in id
# order, as computed by the pixel-major convolution in conv_reference
_CLIENT_SHA256 = {
    "stage1": "d6d39d469753f8ae80407bc8a7a04f9451f6b44a0f5ef42acc468a28d618fd79",
    "stage2": "c7e68de87ed6d6c10f507b360548e681511289022578da1efc9abe865fde3179",
    "stage3": "ea31b7cd162372ed7e9de6646fbe46aa1b252a6eab8013c473a8f9de08467219",
}


@pytest.mark.parametrize("cut", sorted(_CLIENT_SHA256))
def test_forward_client_bytes_pinned(model, cut):
    digest = hashlib.sha256()
    for i in range(8):
        t = model.forward_client(model.generate_input(i), cut)
        digest.update(t.data.tobytes())
    assert digest.hexdigest() == _CLIENT_SHA256[cut]
