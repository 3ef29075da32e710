import numpy as np
import pytest

from splitstream import (STRATEGIES, FeatureTensor, LossMask, apply_mask,
                         collect_stats, conceal, loss_sweep, make_mask, mse,
                         side_channel_means)

SHAPE = (6, 5, 4)


def _tensor(seed=0, shape=SHAPE):
    rng = np.random.default_rng(seed)
    return FeatureTensor(rng.normal(1.0, 0.7, size=shape).astype(np.float32))


def _stats(shape=SHAPE, n=6, seed=100):
    tensors = [_tensor(seed + i, shape) for i in range(n)]
    return tensors, collect_stats(tensors, label="unit")


class TestLossMask:
    def test_mask_must_be_3d(self):
        with pytest.raises(ValueError, match="H x W x C"):
            LossMask(np.zeros((4, 4), dtype=bool))

    def test_rate_zero_and_one(self):
        for kind in ("by_element", "by_channel"):
            assert not make_mask(SHAPE, kind, 0.0, 1).missing.any()
            assert make_mask(SHAPE, kind, 1.0, 1).missing.all()

    def test_rate_validated(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="rate"):
                make_mask(SHAPE, "by_element", bad, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_mask(SHAPE, "by_tile", 0.5, 0)

    def test_by_channel_drops_exact_count(self):
        m = make_mask((4, 4, 64), "by_channel", 0.25, 7)
        per_channel = m.missing.all(axis=(0, 1))
        untouched = ~m.missing.any(axis=(0, 1))
        assert int(per_channel.sum()) == 16
        assert np.array_equal(per_channel, ~untouched)

    def test_by_channel_ceil(self):
        m = make_mask((2, 2, 7), "by_channel", 0.1, 7)
        assert int(m.missing.all(axis=(0, 1)).sum()) == 1

    def test_by_element_fraction_tracks_rate(self):
        m = make_mask((25, 25, 16), "by_element", 0.3, 11)
        assert abs(m.missing.mean() - 0.3) <= 0.02

    def test_seed_determinism(self):
        a = make_mask(SHAPE, "by_element", 0.4, 3)
        b = make_mask(SHAPE, "by_element", 0.4, 3)
        c = make_mask(SHAPE, "by_element", 0.4, 4)
        assert np.array_equal(a.missing, b.missing)
        assert not np.array_equal(a.missing, c.missing)


class TestSideChannel:
    def test_per_channel_means(self):
        t = _tensor(1)
        side = side_channel_means(t)
        want = t.data.astype(np.float64).mean(axis=(0, 1))
        assert side.dtype == np.float64 and not side.flags.writeable
        assert np.array_equal(side, want)

    def test_conceal_refuses_2d_means(self):
        t = _tensor(1)
        mask = make_mask(SHAPE, "by_element", 0.5, 5)
        side = np.zeros((SHAPE[2], 1))
        for strategy in ("channel_mean", "hybrid"):
            with pytest.raises(ValueError, match="side-channel"):
                conceal(t, mask, strategy, stats=_stats()[1], side=side)


class TestApplyMask:
    def test_zeroes_missing_only(self):
        t = _tensor(2)
        m = make_mask(SHAPE, "by_element", 0.5, 5)
        damaged = apply_mask(t, m)
        assert np.all(damaged.data[m.missing] == 0.0)
        assert np.array_equal(damaged.data[~m.missing], t.data[~m.missing])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask"):
            apply_mask(_tensor(2, (3, 3, 2)), make_mask(SHAPE, "by_element", 0.5, 5))


class TestConceal:
    def setup_method(self):
        self.tensors, self.stats = _stats()
        self.t = self.tensors[0]
        self.side = side_channel_means(self.t)
        self.mask = make_mask(SHAPE, "by_element", 0.5, 21)
        self.damaged = apply_mask(self.t, self.mask)

    def test_rate_zero_identity(self):
        empty = make_mask(SHAPE, "by_element", 0.0, 1)
        for strategy in STRATEGIES:
            healed = conceal(self.t, empty, strategy, stats=self.stats,
                             side=self.side)
            assert np.array_equal(healed.data, self.t.data)

    def test_zero_strategy_all_missing(self):
        full = make_mask(SHAPE, "by_element", 1.0, 1)
        healed = conceal(apply_mask(self.t, full), full, "zero")
        assert not healed.data.any()

    def test_intact_elements_untouched(self):
        for strategy in STRATEGIES:
            healed = conceal(self.damaged, self.mask, strategy,
                             stats=self.stats, side=self.side)
            keep = ~self.mask.missing
            assert np.array_equal(healed.data[keep], self.t.data[keep])

    def test_channel_mean_fill_values(self):
        healed = conceal(self.damaged, self.mask, "channel_mean", side=self.side)
        for ch in range(SHAPE[2]):
            lost = self.mask.missing[:, :, ch]
            assert np.all(
                healed.data[:, :, ch][lost]
                == np.float32(self.side[ch])
            )

    def test_dataset_mean_fill_values(self):
        healed = conceal(self.damaged, self.mask, "dataset_mean", stats=self.stats)
        want = self.stats.per_neuron_mean.astype(np.float32)
        assert np.array_equal(healed.data[self.mask.missing],
                              want[self.mask.missing])

    def test_hybrid_formula(self):
        healed = conceal(self.damaged, self.mask, "hybrid",
                         stats=self.stats, side=self.side)
        mu = self.stats.per_neuron_mean
        fill = (mu + (self.side - mu.mean(axis=(0, 1)))).astype(np.float32)
        assert np.array_equal(healed.data[self.mask.missing],
                              fill[self.mask.missing])

    def test_hybrid_collapses_to_channel_mean_for_flat_mean_field(self):
        # per-channel-constant corpus mean makes the recentering term cancel
        flat = [FeatureTensor(np.tile(np.float32([1.0, 2.0, 3.0, 4.0]),
                                      SHAPE[:2] + (1,)) + 0 * t.data)
                for t in self.tensors]
        stats = collect_stats(flat + flat, label="flat")
        a = conceal(self.damaged, self.mask, "hybrid", stats=stats, side=self.side)
        b = conceal(self.damaged, self.mask, "channel_mean", side=self.side)
        assert np.array_equal(a.data, b.data)

    def test_dataset_mean_mse_equals_masked_variance(self):
        healed = conceal(self.damaged, self.mask, "dataset_mean", stats=self.stats)
        got = mse(self.t, healed)
        diff = (self.t.data.astype(np.float64)
                - self.stats.per_neuron_mean)[self.mask.missing]
        want = float((diff ** 2).sum()) / self.t.data.size
        assert got == pytest.approx(want, rel=1e-5)

    def test_dataset_mean_beats_zero_fill_off_center(self):
        # corpus mean is ~1.0 everywhere, so zeroing is the worse guess
        healed_mean = conceal(self.damaged, self.mask, "dataset_mean",
                              stats=self.stats)
        healed_zero = conceal(self.damaged, self.mask, "zero")
        assert mse(self.t, healed_mean) < mse(self.t, healed_zero)

    def test_missing_inputs_name_the_strategy(self):
        cases = [("channel_mean", {"stats": self.stats}),
                 ("hybrid", {"stats": self.stats}),
                 ("dataset_mean", {"side": self.side}),
                 ("hybrid", {"side": self.side})]
        for strategy, kwargs in cases:
            with pytest.raises(ValueError, match=strategy):
                conceal(self.damaged, self.mask, strategy, **kwargs)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            conceal(self.damaged, self.mask, "interpolate")

    def test_shape_checks(self):
        small = _tensor(9, (3, 3, 2))
        with pytest.raises(ValueError, match="mask"):
            conceal(small, self.mask, "zero")
        with pytest.raises(ValueError, match="side-channel"):
            conceal(self.damaged, self.mask, "channel_mean",
                    side=np.zeros(3))
        _, other = _stats(shape=(3, 3, 2))
        with pytest.raises(ValueError, match="stats"):
            conceal(self.damaged, self.mask, "dataset_mean", stats=other)


class TestLossSweep:
    def test_grid_shape_and_clean_rows(self, model, corpus_at):
        _, stats = corpus_at("stage2", 32)
        rows = loss_sweep(model, range(8), "stage2", ["by_element"],
                          [0.0, 0.4], ["zero", "dataset_mean"], stats, seed=5)
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {"kind", "rate", "strategy", "agreement", "mse"}
            assert 0.0 <= row["agreement"] <= 1.0
        for row in rows:
            if row["rate"] == 0.0:
                assert row["agreement"] == 1.0
                assert row["mse"] == 0.0
        # exact rows, so a refactor of the sweep loop cannot move a value
        assert rows[2:] == [
            {"kind": "by_element", "rate": 0.4, "strategy": "zero",
             "agreement": 0.5, "mse": 0.16298531922567214},
            {"kind": "by_element", "rate": 0.4, "strategy": "dataset_mean",
             "agreement": 0.75, "mse": 0.10924447233003247},
        ]

    def test_deterministic(self, model, corpus_at):
        _, stats = corpus_at("stage2", 32)
        args = (model, range(4), "stage2", ["by_channel"], [0.5], ["zero"],
                stats)
        assert loss_sweep(*args, seed=9) == loss_sweep(*args, seed=9)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -0.5, 1.5])
    def test_every_rate_is_checked_before_any_image_runs(self, rate):
        # a mask seed derives from int(rate * 1e6), which an infinite or NaN
        # rate cannot give; a bad last rate is refused before the first runs
        class NoModel:
            def sweep(self, *args):
                raise AssertionError("an image ran before the rates were checked")

        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\]"):
            loss_sweep(NoModel(), range(2), "stage2", ["by_element"],
                       [0.1, rate], ["zero"], None, seed=5)

    def test_memory_does_not_grow_with_image_count(self, model, corpus_at,
                                                     traced_peak):
        # one image's tensors at a time: fourteen more stage1 images (64 KiB
        # per cut tensor, plus a mask and a healed tensor per cell, when
        # held) must not raise the peak
        _, stats = corpus_at("stage1", 8)

        def peak(n):
            return traced_peak(loss_sweep, model, range(n), "stage1",
                               ["by_element"], [0.4], ["zero", "dataset_mean"],
                               stats, 5)

        peak(1)  # warm every lazily built table first
        assert peak(16) - peak(2) < 2 ** 19
