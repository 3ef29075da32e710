import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitstream import (FeatureTensor, QuantizedTensor, QuantizerSpec,
                         TensorStats, bits_per_element, compression_ratio,
                         dequantize, quantize, sweep)


def unit_stats(shape=(2, 2, 1), mean=0.0, std=1.0):
    """Stats with constant moments, valid in both modes."""
    return TensorStats(
        per_neuron_mean=np.full(shape, mean),
        per_neuron_std=np.full(shape, std),
        aggregate_mean=mean,
        aggregate_std=std,
        sample_count=4,
    )


def _ft(values, shape=None):
    arr = np.asarray(values, dtype=np.float32)
    if shape is not None:
        arr = arr.reshape(shape)
    return FeatureTensor(arr)


class TestSpecValidation:
    def test_level_bounds(self):
        QuantizerSpec(levels=2, clip_width=1.0)
        QuantizerSpec(levels=256, clip_width=1.0)
        with pytest.raises(ValueError):
            QuantizerSpec(levels=1, clip_width=1.0)
        with pytest.raises(ValueError):
            QuantizerSpec(levels=257, clip_width=1.0)

    def test_width_positive(self):
        with pytest.raises(ValueError):
            QuantizerSpec(levels=4, clip_width=0.0)

    def test_width_bounds(self):
        QuantizerSpec(levels=4, clip_width=2.0 ** -10)
        QuantizerSpec(levels=4, clip_width=2.0 ** 10)
        for w in (2.0 ** -10 * 0.99, 2.0 ** 10 * 1.01, 1e-310, 1e300):
            with pytest.raises(ValueError, match="clip width"):
                QuantizerSpec(levels=4, clip_width=w)

    def test_mode_known(self):
        with pytest.raises(ValueError):
            QuantizerSpec(levels=4, clip_width=1.0, mode="psycho")

    def test_symbols_under_levels(self):
        with pytest.raises(ValueError):
            QuantizedTensor(np.full((1, 1, 1), 4, dtype=np.uint8),
                            QuantizerSpec(levels=4, clip_width=1.0))


class TestAccounting:
    def test_paper_rate_points(self):
        cases = [(256, 8.0, 4.0), (7, 2.807, 11.40), (6, 2.585, 12.38)]
        for levels, bits, ratio in cases:
            spec = QuantizerSpec(levels=levels, clip_width=3.0)
            assert round(bits_per_element(spec), 3) == bits
            assert round(compression_ratio(spec), 2) == ratio

    def test_power_of_two_exact(self):
        for k in (1, 2, 3, 4, 5, 6, 7, 8):
            spec = QuantizerSpec(levels=2 ** k, clip_width=1.0)
            assert bits_per_element(spec) == float(k)
            assert compression_ratio(spec) == 32.0 / k


class TestScalarBehavior:
    def test_center_symbol(self):
        stats = unit_stats((1, 1, 1))
        for n in (2, 3, 7, 8, 255, 256):
            spec = QuantizerSpec(levels=n, clip_width=3.0)
            q = quantize(_ft([0.0], (1, 1, 1)), spec, stats)
            want = n // 2 if n % 2 == 0 else (n - 1) // 2
            assert int(q.symbols[0, 0, 0]) == want

    def test_saturation(self):
        stats = unit_stats((1, 1, 1))
        spec = QuantizerSpec(levels=16, clip_width=2.0)
        lo = quantize(_ft([-100.0], (1, 1, 1)), spec, stats)
        hi = quantize(_ft([100.0], (1, 1, 1)), spec, stats)
        assert int(lo.symbols[0, 0, 0]) == 0
        assert int(hi.symbols[0, 0, 0]) == 15

    def test_two_level_midpoints(self):
        # interval [-3, 3], two bins, their midpoints are -1.5 and 1.5
        stats = unit_stats((1, 1, 1))
        spec = QuantizerSpec(levels=2, clip_width=3.0)
        q = quantize(_ft([1.0], (1, 1, 1)), spec, stats)
        assert int(q.symbols[0, 0, 0]) == 1
        assert dequantize(q, stats).data[0, 0, 0] == 1.5

    def test_edge_goes_to_higher_bin(self):
        # N=4 over [-2, 2]: edges at -1, 0, 1; x = 0.0 must land in bin 2
        stats = unit_stats((1, 1, 1))
        spec = QuantizerSpec(levels=4, clip_width=2.0)
        q = quantize(_ft([0.0], (1, 1, 1)), spec, stats)
        assert int(q.symbols[0, 0, 0]) == 2

    def test_oracle_loop_n7_w33(self):
        """Straight-line reference implementation, element by element."""
        n, w = 7, 3.3
        stats = unit_stats((100, 1, 1))
        spec = QuantizerSpec(levels=n, clip_width=w)
        xs = np.linspace(-4.0, 4.0, 100).astype(np.float32)
        q = quantize(_ft(xs, (100, 1, 1)), spec, stats)
        x_hat = dequantize(q, stats)
        delta = 2.0 * w / n
        for i, x in enumerate(xs):
            u = math.floor((float(x) + w) / delta)
            u = min(max(u, 0), n - 1)
            assert int(q.symbols[i, 0, 0]) == u
            mid = -w + (u + 0.5) * delta
            assert x_hat.data[i, 0, 0] == pytest.approx(mid, abs=1e-6)

    def test_affine_stats_shift_the_interval(self):
        # mean 10, std 2, w=1: interval [8, 12], unit bins; the edge value 9
        # takes the higher bin [9, 10) and reconstructs at its midpoint
        stats = unit_stats((1, 1, 1), mean=10.0, std=2.0)
        spec = QuantizerSpec(levels=4, clip_width=1.0)
        q = quantize(_ft([9.0], (1, 1, 1)), spec, stats)
        assert int(q.symbols[0, 0, 0]) == 1
        assert dequantize(q, stats).data[0, 0, 0] == pytest.approx(9.5)


class TestErrorBound:
    @given(
        st.integers(min_value=2, max_value=256),
        st.sampled_from([1.0, 2.0, 3.3, 3.7, 4.0]),
    )
    def test_in_range_error_bound(self, n, w):
        stats = unit_stats((50, 1, 1))
        spec = QuantizerSpec(levels=n, clip_width=w)
        xs = np.linspace(-w, w, 50).astype(np.float32)
        x_hat = dequantize(quantize(_ft(xs, (50, 1, 1)), spec, stats), stats)
        err = np.abs(xs.astype(np.float64)
                     - x_hat.data.astype(np.float64).ravel())
        half_bin = w / n
        # one float32 ulp of grace for the stored reconstruction
        assert err.max() <= half_bin + 8 * np.finfo(np.float32).eps * w


class TestOrderPreservation:
    @given(st.integers(min_value=2, max_value=256))
    def test_monotone_symbols(self, n):
        stats = unit_stats((128, 1, 1))
        spec = QuantizerSpec(levels=n, clip_width=3.0)
        xs = np.sort(np.linspace(-5, 5, 128)).astype(np.float32)
        q = quantize(_ft(xs, (128, 1, 1)), spec, stats)
        sym = q.symbols.ravel().astype(int)
        assert np.all(np.diff(sym) >= 0)


class TestModes:
    def test_constant_per_neuron_equals_aggregate(self):
        rng = np.random.default_rng(5)
        t = _ft(rng.normal(0.3, 1.7, size=(6, 5, 4)))
        stats = unit_stats((6, 5, 4), mean=0.3, std=1.7)
        spec_a = QuantizerSpec(levels=31, clip_width=2.5, mode="aggregate")
        spec_p = QuantizerSpec(levels=31, clip_width=2.5, mode="per_neuron")
        qa = quantize(t, spec_a, stats)
        qp = quantize(t, spec_p, stats)
        assert np.array_equal(qa.symbols, qp.symbols)
        assert np.array_equal(
            dequantize(qa, stats).data, dequantize(qp, stats).data)

    def test_zero_variance_neuron_reconstructs_mean(self):
        mean = np.zeros((2, 1, 1))
        mean[1, 0, 0] = 4.0
        std = np.ones((2, 1, 1))
        std[1, 0, 0] = 0.0  # dead neuron
        stats = TensorStats(mean, std, 2.0, 0.5, sample_count=3)
        spec = QuantizerSpec(levels=8, clip_width=3.0, mode="per_neuron")
        t = _ft([0.7, 9.9], (2, 1, 1))
        out = dequantize(quantize(t, spec, stats), stats)
        assert out.data[1, 0, 0] == 4.0

    def test_per_neuron_needs_real_sample(self):
        stats = TensorStats(
            np.zeros((1, 1, 1)), np.ones((1, 1, 1)), 0.0, 1.0, sample_count=1)
        spec = QuantizerSpec(levels=4, clip_width=1.0, mode="per_neuron")
        with pytest.raises(ValueError, match="2 samples"):
            quantize(_ft([0.0], (1, 1, 1)), spec, stats)

    def test_per_neuron_shape_checked(self):
        stats = unit_stats((2, 2, 2))
        spec = QuantizerSpec(levels=4, clip_width=1.0, mode="per_neuron")
        with pytest.raises(ValueError, match="shape"):
            quantize(_ft(np.zeros((3, 3, 3))), spec, stats)


def test_sweep_grid(model, corpus_at):
    _, stats = corpus_at("stage1", 8)
    rows = sweep(model, range(6), "stage1", [4, 16], [2.0, 3.0], stats)
    assert len(rows) == 4
    assert [set(r) for r in rows] == [
        {"levels", "clip_width", "agreement", "mse"}] * 4
    for row in rows:
        assert 0.0 <= row["agreement"] <= 1.0
        assert row["mse"] >= 0.0
    # finer quantization should not hurt reconstruction at fixed width
    by_cell = {(r["levels"], r["clip_width"]): r["mse"] for r in rows}
    assert by_cell[(16, 3.0)] <= by_cell[(4, 3.0)]
    # exact rows, so a refactor of the sweep loop cannot move a value
    assert rows == [
        {"levels": 4, "clip_width": 2.0, "agreement": 0.6666666666666666,
         "mse": 0.04893678652241502},
        {"levels": 4, "clip_width": 3.0, "agreement": 0.5,
         "mse": 0.04184275771231664},
        {"levels": 16, "clip_width": 2.0, "agreement": 1.0,
         "mse": 0.026446834508209897},
        {"levels": 16, "clip_width": 3.0, "agreement": 1.0,
         "mse": 0.008936600294365793},
    ]


def test_sweep_memory_does_not_grow_with_image_count(model, corpus_at,
                                                     traced_peak):
    # one image's tensors at a time: fourteen more stage1 images (64 KiB per
    # cut tensor, and one more per cell, when held) must not raise the peak
    _, stats = corpus_at("stage1", 8)

    def peak(n):
        return traced_peak(sweep, model, range(n), "stage1", [4, 16],
                           [2.0, 3.0], stats)

    peak(1)  # warm every lazily built table first
    assert peak(16) - peak(2) < 2 ** 19
