import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitstream import (FTSR_HEADER, FTSR_MAGIC, FeatureTensor, TensorStats,
                         collect_stats, empirical_entropy, mse, psnr,
                         read_tensor, write_tensor)


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
        assert rep.dynamic_range == 1.0
        assert rep.psnr_db == pytest.approx(20.0, abs=1e-5)

    def test_degenerate_flat_reference(self):
        a = _ft(np.full((3, 3, 1), 5.0))
        b = _ft(np.full((3, 3, 1), 6.0))
        rep = psnr(a, b)
        assert rep.psnr_db == -math.inf
        assert rep.degenerate

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


class TestEntropy:
    def test_constant_plane(self):
        assert empirical_entropy(np.full((16, 16), 9, dtype=np.uint8)) == 0.0

    def test_two_symbol_split(self):
        arr = np.zeros((2, 128), dtype=np.uint8)
        arr[1, :] = 200
        assert empirical_entropy(arr) == 1.0

    def test_uniform_256(self):
        arr = (np.arange(1 << 16) % 256).astype(np.uint8)
        assert empirical_entropy(arr) == pytest.approx(8.0, abs=0.05)

    def test_accepts_bytes_and_plane_objects(self):
        assert empirical_entropy(b"\x00\xff" * 64) == 1.0

        class Plane:
            bytes = np.zeros((4, 4), dtype=np.uint8)

        assert empirical_entropy(Plane()) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            empirical_entropy(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            empirical_entropy(b"")


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
