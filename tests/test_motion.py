import math

import numpy as np
import pytest

from splitstream import (EQUIVARIANCE_BORDER, FeatureTensor, MotionField,
                         estimate_global_translation, predict, psnr,
                         scale_to_tensor, shift_overlap_slices)


def _rand_tensor(seed, shape=(8, 8, 3)):
    rng = np.random.default_rng(seed)
    return FeatureTensor(rng.normal(size=shape).astype(np.float32))


def _trusted_region(shape, vx, vy, border):
    """Mask of outputs whose gather stays inside the reference interior
    and which sit off the output border ring themselves."""
    h, w, c = shape
    ys = np.arange(h)
    xs = np.arange(w)
    ok_y = (ys >= border) & (ys <= h - 1 - border)
    ok_x = (xs >= border) & (xs <= w - 1 - border)
    ok_y &= (ys + vy >= border) & (ys + vy <= h - 1 - border)
    ok_x &= (xs + vx >= border) & (xs + vx <= w - 1 - border)
    return (ok_y[:, None] & ok_x[None, :])[:, :, None].repeat(c, axis=2)


class TestEstimate:
    def test_identical_frames(self):
        t = _rand_tensor(0)
        assert estimate_global_translation(t, t, 4) == (0, 0)

    def test_recovers_known_pan(self, model):
        ref = model.generate_input(0)
        cur = model.generate_input(0, (16, 0))
        assert estimate_global_translation(ref, cur, 20) == (16, 0)

    def test_vertical_pan(self, model):
        ref = model.generate_input(1)
        cur = model.generate_input(1, (0, 6))
        assert estimate_global_translation(ref, cur, 8) == (0, 6)

    def test_saturates_at_radius(self, model):
        ref = model.generate_input(0)
        cur = model.generate_input(0, (24, 0))
        assert estimate_global_translation(ref, cur, 20) == (20, 0)

    def test_constant_frames_tie_to_zero(self):
        t = FeatureTensor(np.full((6, 6, 2), 3.0, dtype=np.float32))
        assert estimate_global_translation(t, t, 5) == (0, 0)

    def test_zero_radius(self):
        a, b = _rand_tensor(1), _rand_tensor(2)
        assert estimate_global_translation(a, b, 0) == (0, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            estimate_global_translation(_rand_tensor(0, (4, 4, 1)),
                                        _rand_tensor(0, (4, 5, 1)), 2)

    def test_negative_radius(self):
        t = _rand_tensor(0)
        with pytest.raises(ValueError, match="radius"):
            estimate_global_translation(t, t, -1)

    def test_radius_larger_than_frame(self):
        t = _rand_tensor(3, (4, 4, 1))
        assert estimate_global_translation(t, t, 6) == (0, 0)


class TestOverlapSlices:
    def test_known_case(self):
        ref_sl, cur_sl = shift_overlap_slices(4, 5, 2, -1)
        assert ref_sl == (slice(0, 3), slice(2, 5))
        assert cur_sl == (slice(1, 4), slice(0, 3))

    def test_gather_semantics(self):
        h, w = 5, 6
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(h, w))
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                cur = np.zeros((h, w))
                for y in range(h):
                    for x in range(w):
                        if 0 <= y + dy < h and 0 <= x + dx < w:
                            cur[y, x] = ref[y + dy, x + dx]
                ref_sl, cur_sl = shift_overlap_slices(h, w, dx, dy)
                assert cur[cur_sl].shape == (h - abs(dy), w - abs(dx))
                assert np.array_equal(cur[cur_sl], ref[ref_sl])


class TestScale:
    def test_divides_by_stride(self):
        f = scale_to_tensor((16, 0), 8)
        assert (f.vx, f.vy) == (2.0, 0.0)

    def test_subpixel_result(self):
        assert scale_to_tensor((18, 0), 8).vx == 2.25

    def test_zero_shift(self):
        f = scale_to_tensor((0, 0), 4)
        assert (f.vx, f.vy) == (0.0, 0.0)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError, match="stride"):
            scale_to_tensor((1, 1), 0)


class TestPredict:
    def test_zero_field_is_identity(self):
        t = _rand_tensor(5)
        pred, mask = predict(t, MotionField(vx=0.0, vy=0.0))
        assert np.array_equal(pred.data, t.data)
        assert mask.all()

    def test_integer_field_matches_loop_oracle(self):
        t = _rand_tensor(6, (7, 9, 3))
        field = MotionField(vx=2.0, vy=-1.0)
        pred, mask = predict(t, field)
        h, w, c = t.shape
        want = np.zeros((h, w, c), dtype=np.float32)
        want_mask = np.zeros((h, w, c), dtype=bool)
        for y in range(h):
            for x in range(w):
                sy, sx = y - 1, x + 2
                if 0 <= sy < h and 0 <= sx < w:
                    want[y, x] = t.data[sy, sx]
                    want_mask[y, x] = True
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(pred.data, want)

    @pytest.mark.parametrize("vx,vy", [(2.0, 1.0), (-2.25, 0.0), (0.5, -1.75)])
    def test_mask_area_formula(self, vx, vy):
        t = _rand_tensor(7, (10, 12, 2))
        _, mask = predict(t, MotionField(vx=vx, vy=vy))
        h, w, c = t.shape
        want = (h - math.ceil(abs(vy))) * (w - math.ceil(abs(vx))) * c
        assert int(mask.sum()) == want

    def test_bilinear_on_linear_ramp_is_exact(self):
        h, w = 6, 8
        ramp = np.broadcast_to(
            np.arange(w, dtype=np.float32), (h, w)
        )[:, :, None].copy()
        t = FeatureTensor(ramp)
        pred, mask = predict(t, MotionField(vx=0.5, vy=0.0))
        xs = np.arange(w, dtype=np.float32) + 0.5
        want = np.broadcast_to(xs, (h, w))[:, :, None]
        assert np.array_equal(pred.data[mask], want[mask].astype(np.float32))
        pred_neg, mask_neg = predict(t, MotionField(vx=-0.5, vy=0.0))
        want_neg = np.broadcast_to(xs - 1.0, (h, w))[:, :, None]
        assert np.array_equal(pred_neg.data[mask_neg],
                              want_neg[mask_neg].astype(np.float32))

    def test_bilinear_bounded_by_neighbors(self):
        t = _rand_tensor(8, (6, 7, 2))
        field = MotionField(vx=0.5, vy=0.25)
        pred, mask = predict(t, field)
        h, w, c = t.shape
        for y in range(h):
            for x in range(w):
                if not mask[y, x, 0]:
                    continue
                sy, sx = y + 0.25, x + 0.5
                y0, x0 = int(math.floor(sy)), int(math.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                for ch in range(c):
                    corners = [t.data[yy, xx, ch]
                               for yy in (y0, y1) for xx in (x0, x1)]
                    assert min(corners) - 1e-6 <= pred.data[y, x, ch] <= \
                        max(corners) + 1e-6


class TestStubPrediction:
    def test_integer_pan_predicts_exactly(self, model):
        cut = "stage3"
        ref = model.forward_client(model.generate_input(0), cut)
        cur = model.forward_client(model.generate_input(0, (16, 0)), cut)
        field = scale_to_tensor((16, 0), 8)
        pred, valid = predict(ref, field)
        trusted = valid & _trusted_region(ref.shape, field.vx, field.vy,
                                          EQUIVARIANCE_BORDER)
        assert trusted.any()
        assert np.array_equal(pred.data[trusted], cur.data[trusted])
        assert psnr(cur, pred, mask=trusted).psnr_db == math.inf

    def test_subpixel_pan_close_but_inexact(self, model):
        cut = "stage3"
        ref = model.forward_client(model.generate_input(0), cut)
        cur = model.forward_client(model.generate_input(0, (18, 0)), cut)
        field = scale_to_tensor((18, 0), 8)
        assert field.vx == 2.25
        pred, valid = predict(ref, field)
        trusted = valid & _trusted_region(ref.shape, field.vx, field.vy,
                                          EQUIVARIANCE_BORDER)
        report = psnr(cur, pred, mask=trusted)
        assert 20.0 <= report.psnr_db < math.inf
