import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conv_reference
from splitstream import (CLASS_NAMES, CUT_POINTS, EQUIVARIANCE_BORDER,
                         FeatureTensor, SplitModel, cut_point, loss_sweep,
                         rate_fidelity_curve, sweep)
from splitstream.model import _conv3x3


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


def test_agreement_identity_and_zeroing(model):
    ids = range(12)
    assert model.agreement(ids, "stage2") == 1.0

    zero_scores = model.forward_server(
        FeatureTensor(np.zeros((16, 16, 32), dtype=np.float32)), "stage2")
    bias_class = int(np.argmax(zero_scores))
    clean = [
        int(np.argmax(model.forward_server(
            model.forward_client(model.generate_input(i), "stage2"), "stage2")))
        for i in ids
    ]
    expected = sum(c == bias_class for c in clean) / len(clean)

    def wipe(t):
        return FeatureTensor(np.zeros_like(t.data))

    assert model.agreement(ids, "stage2", degrade=wipe) == expected == 0.25

    def drop_half(t):
        d = np.array(t.data)
        d[:, :, :16] = 0.0
        return FeatureTensor(d)

    # exact value, so a refactor of the agreement loop cannot move it
    assert model.agreement(ids, "stage2", degrade=drop_half) == 4 / 12


def test_agreement_empty_corpus(model):
    with pytest.raises(ValueError):
        model.agreement([], "stage2")
    # the sweeps build their corpus the same way, so they reject it alike
    with pytest.raises(ValueError, match="empty corpus"):
        sweep(model, [], "stage2", [4], [2.0], None)
    with pytest.raises(ValueError, match="empty corpus"):
        loss_sweep(model, [], "stage2", ["by_element"], [0.1], ["zero"], None, 0)
    with pytest.raises(ValueError, match="empty corpus"):
        rate_fidelity_curve(model, [], "stage2", [50], None)


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
    x = model.generate_input(seed % 64).data
    for s in range(1, stage):
        x = model._stage(x, s)
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
