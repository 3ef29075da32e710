import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitstream import (FTSR_HEADER, FTSR_MAGIC, FeatureTensor, TensorStats,
                         collect_stats, mse, psnr, read_tensor, write_tensor)
from splitstream.tensor import PackedCorpus, _moments


def _ft(arr):
    return FeatureTensor(np.asarray(arr, dtype=np.float32))


class TestFeatureTensor:
    def test_validates_rank(self):
        with pytest.raises(ValueError):
            FeatureTensor(np.zeros((4, 4)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 1), dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureTensor(bad)
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureTensor(bad)

    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            FeatureTensor(np.zeros((0, 4, 2), dtype=np.float32))

    def test_frozen_payload(self):
        t = _ft(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            t.data[0, 0, 0] = 1.0

    def test_shape_properties(self):
        t = _ft(np.zeros((3, 5, 7)))
        assert (t.height, t.width, t.channels) == (3, 5, 7)
        assert t.shape == (3, 5, 7)


class TestDistortion:
    def test_constant_offset_mse(self):
        a = _ft(np.zeros((4, 4, 2)))
        b = _ft(np.full((4, 4, 2), 2.0))
        assert mse(a, b) == 4.0

    def test_identical_tensors(self):
        a = _ft(np.arange(8).reshape(2, 2, 2))
        assert mse(a, a) == 0.0
        rep = psnr(a, a)
        assert rep.mse == 0.0 and rep.psnr_db == math.inf

    def test_twenty_db_point(self):
        # range 1, per-element error 0.1 -> MSE 0.01 -> 20 dB
        base = np.zeros((10, 10, 1), dtype=np.float32)
        base[0, 0, 0] = 1.0
        a = _ft(base)
        b = _ft(base + np.float32(0.1))
        rep = psnr(a, b)
        assert rep.psnr_db == pytest.approx(20.0, abs=1e-5)

    def test_degenerate_flat_reference(self):
        a = _ft(np.full((3, 3, 1), 5.0))
        b = _ft(np.full((3, 3, 1), 6.0))
        rep = psnr(a, b)
        assert rep.mse == 1.0 and rep.psnr_db == -math.inf

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(_ft(np.zeros((2, 2, 1))), _ft(np.zeros((2, 2, 2))))

    def test_masked_metrics(self):
        a = _ft(np.zeros((2, 2, 1)))
        data = np.zeros((2, 2, 1), dtype=np.float32)
        data[0, 0, 0] = 3.0
        b = _ft(data)
        m = np.zeros((2, 2, 1), dtype=bool)
        m[0, 0, 0] = True
        assert mse(a, b, mask=m) == 9.0
        m_rest = ~m
        assert mse(a, b, mask=m_rest) == 0.0

    def test_mask_errors(self):
        a = _ft(np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            mse(a, a, mask=np.zeros((2, 2, 1), dtype=bool))  # selects nothing
        with pytest.raises(ValueError):
            mse(a, a, mask=np.ones((2, 2, 2), dtype=bool))


class TestStats:
    def test_two_point_moments(self):
        a = _ft(np.zeros((2, 2, 1)))
        b = _ft(np.full((2, 2, 1), 2.0))
        s = collect_stats([a, b], label="pair")
        assert np.all(s.per_neuron_mean == 1.0)
        assert np.all(s.per_neuron_std == 1.0)  # population std of {0, 2}
        assert s.aggregate_mean == 1.0
        assert s.aggregate_std == 1.0
        assert s.sample_count == 2 and s.label == "pair"

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            collect_stats([_ft(np.zeros((2, 2, 1)))])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            collect_stats([_ft(np.zeros((2, 2, 1))), _ft(np.zeros((2, 2, 2)))])

    def test_constant_sample_zero_std(self):
        t = _ft(np.full((2, 3, 1), 7.0))
        s = collect_stats([t, t, t])
        assert np.all(s.per_neuron_std == 0.0)
        assert s.aggregate_std == 0.0

    def test_aggregate_consistency_enforced(self):
        with pytest.raises(ValueError):
            TensorStats(
                per_neuron_mean=np.ones((2, 2, 1)),
                per_neuron_std=np.zeros((2, 2, 1)),
                aggregate_mean=5.0,
                aggregate_std=0.0,
                sample_count=2,
            )

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            TensorStats(
                per_neuron_mean=np.zeros((2, 2, 1)),
                per_neuron_std=np.full((2, 2, 1), -1.0),
                aggregate_mean=0.0,
                aggregate_std=1.0,
                sample_count=2,
            )

    @pytest.mark.parametrize("per_neuron, aggregate", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
        (1.0, -1.0)])
    def test_std_must_be_finite_and_non_negative(self, per_neuron, aggregate):
        std = np.ones((2, 2, 1))
        std[1, 0, 0] = per_neuron
        with pytest.raises(ValueError, match="finite and non-negative"):
            TensorStats(
                per_neuron_mean=np.zeros((2, 2, 1)),
                per_neuron_std=std,
                aggregate_mean=0.0,
                aggregate_std=aggregate,
                sample_count=2,
            )

    @pytest.mark.parametrize("per_neuron, aggregate, needle", [
        (math.inf, math.inf, "per-neuron mean"),
        (-math.inf, -math.inf, "per-neuron mean"),
        (math.nan, math.nan, "per-neuron mean"),
        (0.0, math.inf, "aggregate_mean"),
        (0.0, math.nan, "aggregate_mean")])
    def test_mean_must_be_finite(self, per_neuron, aggregate, needle):
        # an infinite aggregate is "close" to the infinite mean of its
        # neurons, so the consistency check alone lets both through
        mean = np.zeros((2, 2, 1))
        mean[1, 0, 0] = per_neuron
        with pytest.raises(ValueError, match=f"{needle} must be finite"):
            TensorStats(
                per_neuron_mean=mean,
                per_neuron_std=np.ones((2, 2, 1)),
                aggregate_mean=aggregate,
                aggregate_std=1.0,
                sample_count=4,
            )


def _reference_stats(tensors):
    """The moments as collect_stats first computed them, one full-size
    temporary per step: the bits every digest was recorded from."""
    stack = np.stack([t.data for t in tensors]).astype(np.float64)
    per_mean = stack.mean(axis=0)
    per_std = np.sqrt(np.mean((stack - per_mean) ** 2, axis=0))
    return per_mean, per_std, float(per_mean.mean()), float(stack.std())


def _f64_bytes(x) -> bytes:
    return np.float64(x).tobytes()


@st.composite
def _corpora(draw):
    """2-40 tensors of one cut's shape (or a small odd one) whose values mix
    magnitudes from 1e-30 to 1e30 with -0.0, constant neurons and, at
    times, an entirely constant sample."""
    n = draw(st.integers(2, 40))
    shape = draw(st.sampled_from([(32, 32, 16), (16, 16, 32), (8, 8, 64),
                                  (3, 5, 7), (1, 1, 1)]))
    lo = draw(st.integers(-30, 30))
    hi = draw(st.integers(lo, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = (n,) + shape
    data = rng.standard_normal(size) * 10.0 ** rng.integers(lo, hi + 1, size)
    data[rng.random(size) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = -0.0
    if draw(st.booleans()):
        data[:, rng.random(shape) < 0.3] = data[0, 0, 0, 0]
    if draw(st.booleans()):
        data[:] = data[0]
    return [_ft(d) for d in data]


def _mixed(n, shape, seed):
    """n tensors of one shape whose values span 1e-8 to 1e8, a tenth -0.0."""
    rng = np.random.default_rng(seed)
    size = (n,) + shape
    data = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 9, size)
    data[rng.random(size) < 0.1] = -0.0
    return [_ft(d) for d in data]


class TestStatsMatchReference:
    @given(_corpora())
    # one-element tensors: numpy's per-neuron sum is the pairwise one here
    @example(_mixed(8, (1, 1, 1), 0))
    @example(_mixed(9, (1, 1, 1), 0))
    # more values than one leaf of the aggregate sum, split inside a tensor:
    # at 4144 of 8295 values, and at 4248 of 8505, not a multiple of 16
    @example(_mixed(79, (3, 5, 7), 3))
    @example(_mixed(81, (3, 5, 7), 4))
    def test_every_field_bitwise_equal(self, tensors):
        s = collect_stats(tensors, label="ref")
        per_mean, per_std, agg_mean, agg_std = _reference_stats(tensors)
        assert s.per_neuron_mean.tobytes() == per_mean.tobytes()
        assert s.per_neuron_std.tobytes() == per_std.tobytes()
        assert _f64_bytes(s.aggregate_mean) == _f64_bytes(agg_mean)
        assert _f64_bytes(s.aggregate_std) == _f64_bytes(agg_std)
        assert s.sample_count == len(tensors) and s.label == "ref"
        assert s.per_neuron_mean.dtype == s.per_neuron_std.dtype == np.float64


def _packed(tensors) -> PackedCorpus:
    corpus = PackedCorpus(tensors[0].shape)
    for t in tensors:
        corpus.append(corpus.pack(t))
    return corpus


class TestPackedCorpus:
    @given(_corpora())
    @example(_mixed(8, (1, 1, 1), 0))
    @example(_mixed(79, (3, 5, 7), 3))
    def test_stats_and_tensors_bitwise_equal_to_the_list_form(self, tensors):
        packed = _packed(tensors)
        got = collect_stats(packed, label="ref")
        want = collect_stats(tensors, label="ref")
        assert got.per_neuron_mean.tobytes() == want.per_neuron_mean.tobytes()
        assert got.per_neuron_std.tobytes() == want.per_neuron_std.tobytes()
        assert _f64_bytes(got.aggregate_mean) == _f64_bytes(want.aggregate_mean)
        assert _f64_bytes(got.aggregate_std) == _f64_bytes(want.aggregate_std)
        assert (got.sample_count, got.label) == (want.sample_count, want.label)
        # every tensor, -0.0 included, expands to the bytes it was packed from
        for k, t in enumerate(tensors):
            assert packed.flat(k).tobytes() == t.data.tobytes()
        # a dropped tensor is gone; the others keep their indices
        packed.drop(1)
        assert len(packed) == len(tensors) and packed._packed[1] is None
        for k, t in enumerate(tensors):
            if k != 1:
                assert packed.flat(k).tobytes() == t.data.tobytes()

    def test_each_pass_expands_each_tensor_once(self, monkeypatch):
        # the aggregate sum's two leaves per 32x32x16 tensor share one
        # expansion; the four passes are two sums and two per-neuron loops
        rng = np.random.default_rng(2)
        packed = _packed([_ft(np.maximum(rng.standard_normal((32, 32, 16)), 0))
                          for _ in range(5)])
        expanded = []
        flat = PackedCorpus.flat
        monkeypatch.setattr(PackedCorpus, "flat",
                            lambda self, k: expanded.append(k) or flat(self, k))
        collect_stats(packed)
        assert expanded == [0, 1, 2, 3, 4] * 4

    def test_holds_the_nonzero_values_and_a_bit_mask(self):
        data = np.zeros((4, 4, 8), dtype=np.float32)
        data[0, :, :3] = [1.5, -0.0, 2.0]
        packed = _packed([_ft(data)])
        (bits, values), = packed._packed
        assert bits.nbytes == 128 // 8
        assert values.tobytes() == np.float32([1.5, -0.0, 2.0] * 4).tobytes()

    def test_rejects_a_tensor_of_another_shape(self):
        packed = PackedCorpus((2, 2, 1))
        with pytest.raises(ValueError, match="does not match"):
            packed.pack(_ft(np.zeros((2, 1, 2))))

    def test_needs_two_tensors(self):
        with pytest.raises(ValueError, match="at least 2"):
            collect_stats(_packed([_ft(np.ones((2, 2, 1)))]))


_MOMENT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 3.4e38, -3.4e38, 1e-38, -1e30]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float32,
                  st.tuples(st.integers(1, 17), st.integers(1, 3),
                            st.integers(1, 3), st.integers(1, 5)),
                  elements=_MOMENT_VALUES, fill=_MOMENT_VALUES))
def test_moments_match_the_float64_stack(stack):
    # one array and many, one channel and several, signed zeros and values
    # whose squares need float64's range.  Rows of one value (all of them,
    # one channel, a one-element array) sum pairwise; longer rows in turn
    n, h, w, c = stack.shape
    wide = stack.astype(np.float64)
    for width, axis in ((1, None), (c, (0, 1, 2)), (h * w * c, 0)):
        mean, std = _moments(lambda k: stack[k].reshape(-1), n, h * w * c, width)
        assert np.asarray(mean).tobytes() == wide.mean(axis=axis).tobytes()
        assert np.asarray(std).tobytes() == wide.std(axis=axis).tobytes()


class TestStatsMemory:
    def test_peak_does_not_grow_with_the_corpus(self, traced_peak):
        # 64 tensors peak within 1 MiB of 8: a float64 copy of the corpus
        # would add 3.5 MiB
        rng = np.random.default_rng(1)
        tensors = [_ft(rng.standard_normal((16, 16, 32))) for _ in range(64)]
        small = traced_peak(collect_stats, tensors[:8])
        assert traced_peak(collect_stats, tensors) <= small + 2 ** 20


class TestFtsrFiles:
    def test_header_layout(self):
        # frozen file layout: 20-byte header, float32 payload
        assert FTSR_HEADER.size == 20
        assert FTSR_HEADER.format == "<4sBBHIII"

    def test_minimal_file_size_and_value(self, tmp_path):
        path = tmp_path / "one.ftsr"
        n = write_tensor(_ft(np.full((1, 1, 1), 3.5)), path)
        assert n == 24  # 20-byte header + one float32
        assert path.stat().st_size == 24
        back = read_tensor(path)
        assert back.shape == (1, 1, 1)
        assert back.data[0, 0, 0] == 3.5

    @given(
        hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_round_trip(self, tmp_path_factory, arr):
        path = tmp_path_factory.mktemp("ftsr") / "t.ftsr"
        t = FeatureTensor(arr)
        write_tensor(t, path)
        assert np.array_equal(read_tensor(path).data, t.data)

    def test_u8_payload_widens(self, tmp_path):
        path = tmp_path / "u8.ftsr"
        header = FTSR_HEADER.pack(FTSR_MAGIC, 1, 1, 0, 1, 2, 1)
        path.write_bytes(header + bytes([7, 250]))
        t = read_tensor(path)
        assert t.data.dtype == np.float32
        assert t.data.ravel().tolist() == [7.0, 250.0]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ftsr"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            read_tensor(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ftsr"
        path.write_bytes(b"FTSR\x01")
        with pytest.raises(ValueError, match="truncated"):
            read_tensor(path)

    def test_payload_length_checked(self, tmp_path):
        path = tmp_path / "len.ftsr"
        header = FTSR_HEADER.pack(FTSR_MAGIC, 1, 0, 0, 2, 2, 1)
        path.write_bytes(header + bytes(4 * 3))  # 3 floats, header says 4
        with pytest.raises(ValueError, match="payload"):
            read_tensor(path)

    @given(st.one_of(st.just(1), st.integers(0, 255)),
           st.one_of(st.sampled_from([0, 1]), st.integers(0, 255)),
           st.integers(0, 0xFFFF),
           st.tuples(*[st.one_of(st.integers(0, 4),
                                 st.sampled_from([2 ** 16, 2 ** 31, 2 ** 32 - 1]),
                                 st.integers(0, 2 ** 32 - 1))] * 3),
           st.binary(max_size=64))
    def test_any_header_raises_only_value_error(self, tmp_path_factory, version,
                                                dtype, reserved, dims, body):
        path = tmp_path_factory.mktemp("ftsr") / "fuzz.ftsr"
        path.write_bytes(FTSR_HEADER.pack(FTSR_MAGIC, version, dtype, reserved,
                                          *dims) + body)
        try:
            t = read_tensor(path)
        except ValueError:
            return
        assert t.shape == dims

    def test_unknown_version_and_dtype(self, tmp_path):
        path = tmp_path / "v.ftsr"
        path.write_bytes(FTSR_HEADER.pack(FTSR_MAGIC, 9, 0, 0, 1, 1, 1) + bytes(4))
        with pytest.raises(ValueError, match="version"):
            read_tensor(path)
        path.write_bytes(FTSR_HEADER.pack(FTSR_MAGIC, 1, 5, 0, 1, 1, 1) + bytes(4))
        with pytest.raises(ValueError, match="dtype"):
            read_tensor(path)
