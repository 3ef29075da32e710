import numpy as np
import pytest

from splitstream import (CLASS_NAMES, EQUIVARIANCE_BORDER, FeatureTensor,
                         SplitModel, StubModelConfig, loss_sweep,
                         rate_fidelity_curve, sweep)


def test_class_names_and_border():
    assert CLASS_NAMES == tuple(f"class_{i}" for i in range(10))
    assert EQUIVARIANCE_BORDER == 1


def test_cut_geometry(model):
    cuts = model.cut_points()
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
    for cut in model.cut_points():
        t = model.forward_client(x, cut.name)
        assert t.shape == (cut.height, cut.width, cut.channels)
        scores = model.forward_server(t, cut.name)
        assert scores.shape == (10,)
    assert model.predict(x).shape == (10,)


def test_cut_resolution_forms(model):
    x = model.generate_input(3)
    by_name = model.forward_client(x, "stage2")
    by_index = model.forward_client(x, 2)
    by_point = model.forward_client(x, model.cut_points()[1])
    assert np.array_equal(by_name.data, by_index.data)
    assert np.array_equal(by_name.data, by_point.data)


def test_unknown_cut_rejected(model):
    with pytest.raises(ValueError, match="unknown cut"):
        model.forward_client(model.generate_input(0), "stage9")
    with pytest.raises(ValueError, match="cut stage"):
        model.forward_client(model.generate_input(0), 0)


def test_input_size_must_match_stride():
    with pytest.raises(ValueError):
        SplitModel(StubModelConfig(input_size=60))


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


def test_same_seed_same_weights():
    m1 = SplitModel(StubModelConfig(calibration_images=8))
    m2 = SplitModel(StubModelConfig(calibration_images=8))
    x = m1.generate_input(2)
    assert np.array_equal(m1.predict(x), m2.predict(x))


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
    for entry, cut in zip(m["cuts"], model.cut_points()):
        assert entry["shape"] == [cut.height, cut.width, cut.channels]
        assert entry["raw_bytes"] == cut.raw_bytes
