import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstream import (STRATEGIES, FeatureTensor, LossMask,
                         QuantizedTensor, QuantizerSpec, TiledPlane, codec,
                         conceal, dequantize, detile, psnr, quantize,
                         side_channel_means, tile)
from splitstream.codec import (BASE_TABLE, FTCB_HEADER, BadMagicError,
                               BlockCountError, CodecError,
                               TargetInfeasibleError, TruncatedStreamError,
                               decode, decode_prefix, encode, encode_to_target,
                               pack, quality_table, rate_fidelity_curve,
                               undecoded_plane_mask, unpack)
from splitstream.tiling import TileLayout, channel_tiles
from splitstream.codec import (_MAX_PLANE_PIXELS, _MAX_SYMBOL, _UNZIGZAG,
                               _ZIGZAG, _decoded_plane, _pack, _rounded,
                               _stream_size, _transform, _Transformed)

import ftcb_reference as reference
from conftest import cut_tensors
from ftcb_reference import _Reader, _leb128s_encode


def _plane_from_symbols(symbols, levels=256):
    q = QuantizedTensor(np.asarray(symbols, dtype=np.uint8),
                        QuantizerSpec(levels=levels, clip_width=3.0))
    return tile(q)


def _const_plane(value, h=8, w=8, c=4):
    return _plane_from_symbols(np.full((h, w, c), value, dtype=np.uint8))


def _smooth_plane(seed=0, h=8, w=8, c=9):
    # low-frequency content, so quality sweeps behave the way they do on
    # natural images rather than on white noise
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    chans = []
    for _ in range(c):
        fx, fy = rng.uniform(0.2, 1.2, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        chans.append(np.sin(fx * xx + phase) * np.cos(fy * yy + phase / 2))
    data = np.stack(chans, axis=2)
    lo, hi = float(data.min()), float(data.max())
    symbols = np.round((data - lo) / (hi - lo) * 255).astype(np.uint8)
    return _plane_from_symbols(symbols)


# tensor shapes whose tiled planes are not whole 8x8 blocks either way
RAGGED = [(5, 3, 2), (9, 7, 3), (3, 17, 1), (11, 6, 5)]


def _as_image(p):
    return FeatureTensor(p.bytes.astype(np.float32)[:, :, None])


class TestQualityTable:
    def test_midpoint_is_base_table(self):
        assert np.array_equal(quality_table(50), BASE_TABLE)

    def test_top_quality_all_ones(self):
        assert np.all(quality_table(100) == 1)

    def test_bottom_quality_saturates(self):
        assert np.all(quality_table(1) == 255)

    def test_known_low_quality_entry(self):
        assert quality_table(10)[0, 0] == 80

    def test_entries_stay_in_byte_range(self):
        for q in range(1, 101):
            t = quality_table(q)
            assert t.min() >= 1 and t.max() <= 255

    def test_quality_bounds(self):
        for quality in (0, 101, -1):
            with pytest.raises(ValueError):
                quality_table(quality)

    def test_bool_quality_refused(self):
        # True is an int 1 to a range check, but a mask to numpy indexing;
        # a numpy integer is still a quality
        with pytest.raises(ValueError, match="quality must be"):
            quality_table(True)
        assert np.array_equal(quality_table(np.int64(50)), BASE_TABLE)

    def test_tables_are_fresh_copies(self):
        # callers get their own array, never a view of the shared table
        t = quality_table(50)
        t[0, 0] = 0
        assert np.array_equal(quality_table(50), BASE_TABLE)


class TestScanOrder:
    def test_prefix(self):
        assert list(_ZIGZAG[:10]) == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]

    def test_is_permutation_ending_at_corner(self):
        assert sorted(_ZIGZAG) == list(range(64))
        assert _ZIGZAG[-1] == 63

    def test_inverse(self):
        arr = np.arange(64)
        assert np.array_equal(arr[_ZIGZAG][_UNZIGZAG], arr)


class TestSignedLeb128:
    def test_known_single_bytes(self):
        for value, want in [(0, b"\x00"), (-1, b"\x7f"), (63, b"\x3f"),
                            (-64, b"\x40")]:
            out = bytearray()
            _leb128s_encode(value, out)
            assert bytes(out) == want

    def test_sign_bit_forces_second_byte(self):
        out = bytearray()
        _leb128s_encode(64, out)
        assert bytes(out) == b"\xc0\x00"

    def test_round_trip(self):
        values = list(range(-1000, 1000)) + [1 << 20, -(1 << 20), 123456789]
        out = bytearray()
        for v in values:
            _leb128s_encode(v, out)
        r = _Reader(bytes(out))
        assert [r.leb128s() for _ in values] == values
        assert r.pos == len(out)


class TestContainer:
    def test_header_layout_frozen(self):
        assert FTCB_HEADER.size == 20
        assert FTCB_HEADER.format == "<4sBBHHBBHHHH"

    def test_header_fields(self):
        p = _smooth_plane()
        layout = p.layout
        assert FTCB_HEADER.unpack_from(encode(p, 35)) == (
            b"FTCB", 1, 35, layout.plane_w, layout.plane_h, layout.grid_cols,
            layout.grid_rows, layout.tile_w, layout.tile_h, 9, 256)


class TestEncode:
    def test_quality_validated(self):
        # the divisor table has a padding row at 0, and -1 would index
        # quality 100's row: both must be refused, not looked up
        p = _const_plane(128)
        for quality in (0, 101, -1):
            with pytest.raises(ValueError):
                encode(p, quality)

    @pytest.mark.parametrize("quality", [50.5, 50.0, True])
    def test_non_integer_quality_refused(self, quality):
        # refused by the quality check, not by the table lookup
        with pytest.raises(ValueError, match="quality must be"):
            encode(_const_plane(128), quality)

    def test_deterministic(self):
        p = _smooth_plane(seed=1)
        assert encode(p, 40) == encode(p, 40)

    def test_constant_plane_collapses_to_dc(self):
        # 16x16 plane -> 4 blocks; each block needs only a DC delta and the
        # end-of-block marker
        for value in (128, 200):
            p = _const_plane(value)
            for q in (1, 50, 100):
                assert len(encode(p, q)) <= FTCB_HEADER.size + 4 * 4

    def test_constant_plane_top_quality_round_trips_exactly(self):
        p = _const_plane(200)
        back = decode(encode(p, 100))
        assert np.array_equal(back.bytes, p.bytes)
        assert back.layout == p.layout
        assert back.levels == p.levels

    def test_decode_deterministic(self):
        data = encode(_smooth_plane(seed=2), 30)
        assert np.array_equal(decode(data).bytes, decode(data).bytes)

    def test_top_quality_high_fidelity(self):
        p = _smooth_plane(seed=3)
        back = decode(encode(p, 100))
        assert psnr(_as_image(p), _as_image(back)).psnr_db >= 40.0

    def test_mean_distortion_falls_as_quality_rises(self):
        planes = [_smooth_plane(seed=s) for s in range(6)]
        means = []
        for q in (10, 30, 50, 70, 90):
            errs = [psnr(_as_image(p), _as_image(decode(encode(p, q)))).mse
                    for p in planes]
            means.append(np.mean(errs))
        for worse, better in zip(means, means[1:]):
            assert better <= worse

    def test_mean_size_grows_with_quality(self):
        planes = [_smooth_plane(seed=s) for s in range(6)]
        size_at = lambda q: np.mean([len(encode(p, q)) for p in planes])
        assert size_at(5) < size_at(95)

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5),
           st.integers(1, 100), st.integers(0, 2 ** 32 - 1))
    def test_round_trip_never_errors(self, h, w, c, quality, seed):
        rng = np.random.default_rng(seed)
        p = _plane_from_symbols(rng.integers(0, 256, size=(h, w, c)))
        data = encode(p, quality)
        back = decode(data)
        assert back.layout == p.layout
        full, done, total = decode_prefix(data)
        assert (done, total) == (total, total)
        assert np.array_equal(full.bytes, back.bytes)


    @pytest.mark.parametrize("layout, field", [
        (TileLayout(256, 1, 1, 1, 1), "grid columns 256"),
        (TileLayout(1, 256, 1, 1, 1), "grid rows 256"),
        (TileLayout(2, 1, 32768, 1, 1), "plane width 65536"),
        (TileLayout(1, 2, 1, 32768, 1), "plane height 65536"),
        (TileLayout(1, 1, 65536, 1, 1), "plane width 65536"),    # a tile too
        (TileLayout(1, 1, 1, 65536, 1), "plane height 65536"),
    ])
    def test_layout_past_the_header_is_refused(self, layout, field):
        # each field one past what its header bytes hold; the struct used to
        # raise a bare struct.error while packing
        plane = TiledPlane(np.zeros((layout.plane_h, layout.plane_w), np.uint8),
                           layout, 256)
        for call in (lambda: encode(plane, 50),
                     lambda: encode_to_target(plane, 1 << 20)):
            with pytest.raises(CodecError, match=field):
                call()

    @pytest.mark.parametrize("layout", [
        TileLayout(255, 1, 1, 1, 1), TileLayout(1, 255, 1, 1, 1),
        TileLayout(1, 1, 65535, 1, 1), TileLayout(1, 1, 1, 65535, 1)])
    def test_layout_at_the_header_limits_round_trips(self, layout):
        plane = TiledPlane(np.full((layout.plane_h, layout.plane_w), 7, np.uint8),
                           layout, 256)
        back = decode(encode(plane, 100))
        assert back.layout == layout
        assert np.array_equal(back.bytes, plane.bytes)


class TestDecodeErrors:
    def _data(self):
        return encode(_const_plane(128), 50)

    def test_bad_magic(self):
        data = bytearray(self._data())
        data[0] ^= 0xFF
        with pytest.raises(BadMagicError):
            decode(bytes(data))

    def test_short_header(self):
        with pytest.raises(TruncatedStreamError):
            decode(self._data()[:10])

    def test_unsupported_version(self):
        data = bytearray(self._data())
        data[4] = 2
        with pytest.raises(CodecError, match="version"):
            decode(bytes(data))

    def test_header_quality_out_of_range(self):
        data = bytearray(self._data())
        data[5] = 0
        with pytest.raises(CodecError, match="quality"):
            decode(bytes(data))

    @pytest.mark.parametrize("levels", [0, 1, 257])
    def test_header_level_count_out_of_range(self, levels):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 8, 8, 1, 1, 8, 8, 1, levels)
        for fn in (decode, decode_prefix):
            with pytest.raises(CodecError, match="level count"):
                fn(header)

    def test_truncated_body(self):
        with pytest.raises(TruncatedStreamError):
            decode(self._data()[:-1])

    def test_trailing_bytes(self):
        with pytest.raises(BlockCountError, match="trailing"):
            decode(self._data() + b"\x00")

    def test_invalid_layout_in_header(self):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 0, 0, 1, 1, 0, 0, 1, 256)
        with pytest.raises(CodecError, match="layout"):
            decode(header)

    def test_inconsistent_plane_dims(self):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 10, 8, 1, 1, 8, 8, 1, 256)
        with pytest.raises(CodecError, match="inconsistent"):
            decode(header)

    def test_ac_run_overflow(self):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 8, 8, 1, 1, 8, 8, 1, 256)
        body = b"\x00" + bytes([63]) + b"\x01"
        with pytest.raises(CodecError, match="overflow"):
            decode(header + body)

    def test_overlong_leb128_is_a_codec_error(self):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 8, 8, 1, 1, 8, 8, 1, 256)
        # the second stream's last two value bytes would read as 8064, but
        # the third byte is the error
        for body in (b"\xff" * 12 + b"\x00\xff", b"\x00\x00\x80\x80\x3f\xff"):
            with pytest.raises(CodecError, match="LEB128"):
                decode(header + body)
            with pytest.raises(CodecError, match="LEB128"):
                decode_prefix(header + body)

    def test_symbol_bounds(self):
        header = FTCB_HEADER.pack(b"FTCB", 1, 100, 8, 8, 1, 1, 8, 8, 1, 256)

        def leb(v):
            out = bytearray()
            _leb128s_encode(v, out)
            return bytes(out)

        for v in (_MAX_SYMBOL, -_MAX_SYMBOL):
            decode(header + leb(v) + b"\xff")
            decode(header + b"\x00\x00" + leb(v) + b"\xff")
        for v in (_MAX_SYMBOL + 1, -_MAX_SYMBOL - 1):
            with pytest.raises(CodecError, match="DC coefficient out of range"):
                decode(header + leb(v) + b"\xff")
            with pytest.raises(CodecError, match="AC coefficient out of range"):
                decode_prefix(header + b"\x00\x00" + leb(v) + b"\xff")

    def test_bound_is_reached_by_extreme_planes(self):
        # all-black blocks give DC -1024 at quality 100; they still decode
        for value in (0, 255):
            p = _const_plane(value)
            back = decode(encode(p, 100))
            assert np.array_equal(back.bytes, p.bytes)
        dc = _Reader(encode(_const_plane(0), 100), FTCB_HEADER.size).leb128s()
        assert dc == -_MAX_SYMBOL

    def test_block_count_checked_against_stream_length_first(self):
        # a 65535 x 65535 plane would need a 34 GB symbol array
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 65535, 65535, 1, 1,
                                  65535, 65535, 1, 256)
        with pytest.raises(TruncatedStreamError, match="cannot hold"):
            decode(header + b"\x00\xff")

    def test_plane_size_bounded_before_allocation(self):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 65535, 65535, 1, 1,
                                  65535, 65535, 1, 256)
        with pytest.raises(CodecError, match="exceeds"):
            decode_prefix(header)
        with pytest.raises(CodecError):
            decode(header)
        # one row past the bound is refused even when the body could hold
        # every block; the bound itself decodes, and the encoder agrees
        side = 1024
        assert side * side == _MAX_PLANE_PIXELS
        for h, ok in ((side, True), (side + 1, False)):
            header = FTCB_HEADER.pack(b"FTCB", 1, 50, side, h, 1, 1,
                                      side, h, 1, 256)
            body = b"\x00\xff" * ((side // 8) * -(-h // 8))
            plane = _plane_from_symbols(np.zeros((h, side, 1), np.uint8))
            if ok:
                assert np.all(decode(header + body).bytes == 128)
                assert decode_prefix(header)[1:] == (0, len(body) // 2)
                assert len(encode(plane, 50)) == len(header + body)
            else:
                for call in (lambda: decode(header + body),
                             lambda: decode_prefix(header),
                             lambda: encode(plane, 50)):
                    with pytest.raises(CodecError, match="exceeds"):
                        call()


class TestNarrowAlphabet:
    @pytest.mark.parametrize("quality", [5, 95])
    def test_decoded_symbols_stay_below_level_count(self, quality):
        symbols = np.random.default_rng(4).integers(0, 16, size=(16, 16, 4))
        data = encode(_plane_from_symbols(symbols, levels=16), quality)
        unclamped = reference.decode(data).bytes
        if quality == 95:
            # lossy reconstruction of full-range 4-bit noise overshoots 15
            assert int(unclamped.max()) > 15
        planes = [decode(data), decode_prefix(data)[0],
                  decode_prefix(data[:FTCB_HEADER.size + 5])[0]]
        for plane in planes:
            assert plane.levels == 16
            assert int(plane.bytes.max()) <= 15
        assert np.array_equal(planes[0].bytes, np.minimum(unclamped, 15))


class TestDecodePrefix:
    def test_complete_stream(self):
        data = encode(_smooth_plane(seed=4), 60)
        full = decode(data)
        plane, done, total = decode_prefix(data)
        assert done == total == 9
        assert np.array_equal(plane.bytes, full.bytes)

    def test_header_only_gives_gray_plane(self):
        data = encode(_smooth_plane(seed=4), 60)
        plane, done, total = decode_prefix(data[:FTCB_HEADER.size])
        assert (done, total) == (0, 9)
        assert np.all(plane.bytes == 128)
        mask = undecoded_plane_mask(plane.layout, done)
        assert mask.all()

    def test_partial_stream_matches_full_decode_on_decoded_blocks(self):
        p = _smooth_plane(seed=5)
        data = encode(p, 60)
        full = decode(data)
        cut = FTCB_HEADER.size + (len(data) - FTCB_HEADER.size) // 2
        plane, done, total = decode_prefix(data[:cut])
        assert 0 < done < total
        mask = undecoded_plane_mask(p.layout, done)
        assert mask.shape == (p.layout.plane_h, p.layout.plane_w)
        assert int((~mask).sum()) == done * 64
        assert np.array_equal(plane.bytes[~mask], full.bytes[~mask])
        assert np.all(plane.bytes[mask] == 128)

    @pytest.mark.parametrize("h, w, c", RAGGED)
    def test_mask_is_the_block_raster(self, h, w, c):
        layout = _smooth_plane(h=h, w=w, c=c).layout
        cols = -(-layout.plane_w // 8)
        y, x = np.mgrid[0:layout.plane_h, 0:layout.plane_w]
        block = (y // 8) * cols + x // 8
        for k in range(int(block.max()) + 2):
            assert np.array_equal(undecoded_plane_mask(layout, k), block >= k)

    @pytest.mark.parametrize("h, w, c", RAGGED)
    def test_every_prefix_matches_full_decode_off_the_mask(self, h, w, c):
        p = _smooth_plane(seed=8, h=h, w=w, c=c)
        data = encode(p, 75)
        full = decode(data)
        for cut in range(FTCB_HEADER.size, len(data) + 1):
            plane, done, _total = decode_prefix(data[:cut])
            mask = undecoded_plane_mask(p.layout, done)
            assert np.array_equal(plane.bytes[~mask], full.bytes[~mask])
            assert np.all(plane.bytes[mask] == 128)

    def test_unreadable_header_still_raises(self):
        with pytest.raises(TruncatedStreamError):
            decode_prefix(b"FTCB\x01")


class TestEncodeToTarget:
    def test_upper_boundary_returns_top_quality(self):
        p = _smooth_plane(seed=6)
        reference = encode(p, 100)
        data, quality = encode_to_target(p, len(reference))
        assert quality == 100
        assert data == reference

    def test_infeasible_target_reports_minimum(self):
        p = _smooth_plane(seed=6)
        with pytest.raises(TargetInfeasibleError) as exc:
            encode_to_target(p, 1)
        assert exc.value.target == 1
        assert exc.value.min_size == len(encode(p, 1))

    def test_nan_target_is_infeasible(self):
        # no size compares below NaN, so no quality fits it
        p = _smooth_plane(seed=6)
        with pytest.raises(TargetInfeasibleError):
            encode_to_target(p, float("nan"))

    def test_result_never_exceeds_target(self):
        p = _smooth_plane(seed=7)
        lo, hi = len(encode(p, 1)), len(encode(p, 100))
        for target in (lo, (lo + hi) // 2, hi, hi + 50):
            data, _ = encode_to_target(p, target)
            assert len(data) <= target

    def test_one_pack_per_call(self, model, corpus_at, monkeypatch):
        # probes are sized from rounded coefficients; only the chosen
        # quality is laid out as bytes
        calls = 0
        pack = codec._pack

        def counted(*args):
            nonlocal calls
            calls += 1
            return pack(*args)

        p = _stage2_planes(model, corpus_at, [0])[0]
        target = len(encode(p, 60))
        monkeypatch.setattr(codec, "_pack", counted)
        data, quality = encode_to_target(p, target)
        assert calls == 1
        monkeypatch.undo()
        assert quality >= 60 and data == encode(p, quality)

    def test_matches_exhaustive_scan(self):
        p = _smooth_plane(seed=8)
        sizes = {q: len(encode(p, q)) for q in range(1, 101)}
        for probe in (10, 40, 70):
            target = sizes[probe]
            best = max(q for q, s in sizes.items() if s <= target)
            data, quality = encode_to_target(p, target)
            assert quality == best
            assert len(data) == sizes[best]


class TestRateFidelityCurve:
    @pytest.mark.parametrize("quality", [0, -1, 101])
    def test_quality_validated(self, model, corpus_at, quality):
        _, stats = corpus_at("stage2", 32)
        with pytest.raises(ValueError, match="quality"):
            rate_fidelity_curve(model, range(1), "stage2", [quality], stats)

    def test_quality_extremes_order_agreement(self, model, corpus_at):
        _, stats = corpus_at("stage2", 32)
        rows = rate_fidelity_curve(model, range(12), "stage2", [1, 100], stats)
        assert [r["quality"] for r in rows] == [1, 100]
        for r in rows:
            assert set(r) == {"quality", "mean_bytes", "agreement"}
            assert r["mean_bytes"] > 0
            assert 0.0 <= r["agreement"] <= 1.0
        assert rows[1]["agreement"] >= rows[0]["agreement"]

    @pytest.mark.parametrize("levels", [256, 16])
    def test_rows_match_the_stream_path(self, model, corpus_at, levels):
        # the sweep sizes and reconstructs from symbols; writing each stream
        # and decoding it must give the same rows
        _, stats = corpus_at("stage2", 32)
        ids, qualities = range(6), [1, 10, 50, 95]
        rows = rate_fidelity_curve(model, ids, "stage2", qualities, stats,
                                   levels=levels)
        spec = QuantizerSpec(levels=levels, clip_width=3.0, mode="aggregate")
        tensors = cut_tensors(model, ids, "stage2")
        clean = [model.argmax(t, "stage2") for t in tensors]
        want = []
        for q in qualities:
            streams = [encode(tile(quantize(t, spec, stats)), q) for t in tensors]
            decoded = [dequantize(detile(decode(s), spec), stats) for s in streams]
            want.append({
                "quality": q,
                "mean_bytes": sum(map(len, streams)) / len(tensors),
                "agreement": sum(model.argmax(d, "stage2") == c for c, d
                                 in zip(clean, decoded)) / len(tensors),
            })
        assert rows == want

    def test_memory_does_not_grow_with_image_count(self, model, corpus_at,
                                                     traced_peak):
        # one image's tensor and coefficients at a time: six more stage1
        # images (about 196 KiB each when held) must not raise the peak
        _, stats = corpus_at("stage1", 8)

        def peak(n):
            return traced_peak(rate_fidelity_curve, model, range(n), "stage1",
                                [10, 90], stats)

        peak(1)  # warm every lazily built table first
        assert peak(8) - peak(2) < 2 ** 20


class TestPackUnpack:
    SPEC = QuantizerSpec(levels=256, clip_width=3.0, mode="aggregate")

    @pytest.fixture()
    def frame(self, corpus_at):
        tensors, stats = corpus_at("stage2", 32)
        t = tensors[0]
        return t, stats, side_channel_means(t)

    @staticmethod
    def _fill(t, stats, side, strategy):
        every = LossMask(np.ones(t.shape, dtype=bool))
        return conceal(t, every, strategy, stats=stats, side=side).data

    def test_pack_at_a_quality_is_encode(self, frame):
        t, stats, _side = frame
        plane = tile(quantize(t, self.SPEC, stats))
        assert pack(t, self.SPEC, stats, 80) == (encode(plane, 80), 80)

    def test_pack_to_a_target_is_encode_to_target(self, frame):
        t, stats, _side = frame
        plane = tile(quantize(t, self.SPEC, stats))
        want = encode_to_target(plane, 3000)
        assert pack(t, self.SPEC, stats, 85, target_bytes=3000) == want
        assert want[1] != 85

    def test_pack_to_an_infeasible_target_raises(self, frame):
        t, stats, _side = frame
        with pytest.raises(TargetInfeasibleError):
            pack(t, self.SPEC, stats, 85, target_bytes=10)

    def test_unpack_without_gaps_is_the_strict_decode(self, frame):
        t, stats, _side = frame
        bits, _ = pack(t, self.SPEC, stats, 85)
        want = dequantize(detile(decode(bits), self.SPEC), stats)
        assert np.array_equal(unpack(bits, self.SPEC, stats).data, want.data)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_lost_header_conceals_every_element(self, frame, strategy):
        t, stats, side = frame
        bits, _ = pack(t, self.SPEC, stats, 85)
        damaged = bytes(20) + bits[20:]
        got = unpack(damaged, self.SPEC, stats, [(0, 20)], strategy, side)
        assert np.array_equal(got.data, self._fill(t, stats, side, strategy))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_gap_conceals_from_its_block_on(self, frame, strategy):
        t, stats, side = frame
        bits, _ = pack(t, self.SPEC, stats, 85)
        start = len(bits) // 2
        end = start + 700
        damaged = bits[:start] + bytes(end - start) + bits[end:]
        got = unpack(damaged, self.SPEC, stats, [(start, end)], strategy,
                     side).data
        # the block raster, as tensor elements: blocks before the one the
        # gap starts in decode as the whole stream does, the rest are filled
        layout = decode(bits).layout
        y, x = np.mgrid[0:layout.plane_h, 0:layout.plane_w]
        block = channel_tiles((y // 8) * -(-layout.plane_w // 8) + x // 8,
                              layout)
        done = decode_prefix(bits[:start])[1]
        before = block < done
        assert before.any() and not before.all()
        clean = unpack(bits, self.SPEC, stats).data
        fill = self._fill(t, stats, side, strategy)
        assert np.array_equal(got[before], clean[before])
        assert np.array_equal(got[~before], fill[~before])


def _outcome(fn, data: bytes, messages: bool = True):
    """What a decoder makes of a stream: the plane and block counts, or the
    class (and message) of what it raised."""
    try:
        result = fn(data)
    except Exception as exc:  # the reference can raise OverflowError
        return (type(exc), str(exc)) if messages else type(exc)
    plane, *counts = result if isinstance(result, tuple) else (result,)
    return plane.bytes.tobytes(), plane.layout, plane.levels, tuple(counts)


class _BoundedReader(_Reader):
    """The reference reader with the decoder's bounds, applied as each byte
    is read: LEB128 values of at most two bytes, |DC delta| <= 2048 and
    |symbol| <= 1024."""

    def __init__(self, data, pos=0):
        super().__init__(data, pos)
        self.leb_bytes = None       # bytes read of the LEB128 value in progress
        self.dc_next = True
        self.dc = 0

    def u8(self):
        if self.leb_bytes is None:          # a run byte or END
            b = super().u8()
            self.dc_next = b == 255
            return b
        if self.leb_bytes == 2 and self.pos < len(self.data):
            raise CodecError("LEB128 value longer than 2 bytes")
        self.leb_bytes += 1
        return super().u8()

    def leb128s(self):
        self.leb_bytes = 0
        try:
            v = super().leb128s()
        finally:
            self.leb_bytes = None
        if self.dc_next:
            self.dc_next = False
            self.dc += v
            if abs(v) > 2 * _MAX_SYMBOL or abs(self.dc) > _MAX_SYMBOL:
                raise CodecError("DC coefficient out of range")
        elif abs(v) > _MAX_SYMBOL:
            raise CodecError("AC coefficient out of range")
        return v


def _bounded(fn):
    return lambda data: fn(data, _BoundedReader)


def _stage2_planes(model, corpus_at, image_ids):
    """Tiled stage2 planes as a session quantizes them: 256 levels,
    aggregate statistics of 32 images."""
    _, stats = corpus_at("stage2", 32)
    spec = QuantizerSpec(levels=256, clip_width=3.0, mode="aggregate")
    return [tile(quantize(t, spec, stats))
            for t in cut_tensors(model, image_ids, "stage2")]


def _check_reference_search(p, target):
    """``encode_to_target`` against a plain binary search that sizes each
    probe by writing the reference stream."""
    size = lambda q: len(reference.encode(p, q))
    if size(1) > target:
        with pytest.raises(TargetInfeasibleError) as exc:
            encode_to_target(p, target)
        assert exc.value.min_size == size(1)
        return
    lo, hi = 1, 100
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if size(mid) <= target:
            lo = mid
        else:
            hi = mid - 1
    assert encode_to_target(p, target) == (reference.encode(p, lo), lo)


_planes = st.one_of(
    st.builds(lambda h, w, c, seed: _plane_from_symbols(
        np.random.default_rng(seed).integers(0, 256, size=(h, w, c))),
        st.integers(1, 12), st.integers(1, 12), st.integers(1, 5),
        st.integers(0, 2 ** 32 - 1)),
    st.builds(lambda h, w, c, seed: _smooth_plane(seed, h, w, c),
              st.integers(2, 12), st.integers(2, 12), st.integers(1, 5),
              st.integers(0, 2 ** 32 - 1)))


class TestReferenceEquivalence:
    """The vectorised coder against the per-coefficient reference."""

    @given(_planes, st.integers(1, 100))
    def test_encode_matches_reference(self, p, quality):
        assert encode(p, quality) == reference.encode(p, quality)

    def test_encode_matches_reference_at_every_quality(self):
        # 13 x 11 tiles of 3 channels: a 26 x 22 plane, padded in both axes
        planes = [_smooth_plane(seed=9, h=13, w=11, c=3),
                  _plane_from_symbols(np.random.default_rng(9)
                                      .integers(0, 256, size=(13, 11, 3)))]
        for q in range(1, 101):
            for p in planes:
                assert encode(p, q) == reference.encode(p, q)

    @given(_planes, st.integers(1, 100))
    def test_encode_to_target_matches_reference_sizes(self, p, quality):
        target = len(reference.encode(p, quality))
        data, q = encode_to_target(p, target)
        assert data == reference.encode(p, q)
        assert q >= quality

    @given(_planes, st.data())
    def test_encode_to_target_matches_reference_search(self, p, data):
        lo, hi = len(reference.encode(p, 1)), len(reference.encode(p, 100))
        _check_reference_search(p, data.draw(st.integers(lo - 2, hi + 2)))

    def test_encode_to_target_matches_reference_search_on_stage2(
            self, model, corpus_at):
        for p in _stage2_planes(model, corpus_at, [0, 5]):
            lo, hi = len(reference.encode(p, 1)), len(reference.encode(p, 100))
            for target in [lo - 1, *np.linspace(lo, hi, 9).astype(int), hi + 1]:
                _check_reference_search(p, int(target))

    @settings(max_examples=10)
    @given(_planes, st.integers(1, 100))
    def test_decoders_agree_on_every_truncation(self, p, quality):
        data = encode(p, quality)
        for end in range(len(data) + 1):
            cut = data[:end]
            assert (_outcome(decode_prefix, cut)
                    == _outcome(reference.decode_prefix, cut))
            # strict decode rejects a short body before parsing it, with
            # its own message
            assert (_outcome(decode, cut, messages=False)
                    == _outcome(reference.decode, cut, messages=False))

    @settings(max_examples=200)
    @given(_planes, st.integers(1, 100), st.data())
    def test_decoders_agree_on_single_byte_body_mutations(self, p, quality, data):
        stream = bytearray(encode(p, quality))
        pos = data.draw(st.integers(FTCB_HEADER.size, len(stream) - 1))
        stream[pos] = data.draw(st.integers(0, 255))
        stream = bytes(stream)
        for new, ref in ((decode, reference.decode),
                         (decode_prefix, reference.decode_prefix)):
            got = _outcome(new, stream)
            assert got == _outcome(_bounded(ref), stream)
            if not isinstance(got[0], type):
                # a stream within the bounds decodes as the unbounded
                # reference decodes it
                assert got == _outcome(ref, stream)


class TestFuzz:
    @given(_planes, st.integers(1, 100),
           st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    min_size=1, max_size=8),
           st.integers(0, 10 ** 6))
    def test_mutated_streams_raise_only_codec_errors(self, p, quality, edits, keep):
        stream = bytearray(encode(p, quality))
        body = len(stream) - FTCB_HEADER.size
        for pos, value in edits:
            stream[FTCB_HEADER.size + pos % body] = value
        for data in (bytes(stream), bytes(stream[:FTCB_HEADER.size + keep % body])):
            for fn in (decode, decode_prefix):
                try:
                    fn(data)
                except CodecError:
                    pass

    @given(st.binary(max_size=300))
    def test_random_bodies_raise_only_codec_errors(self, body):
        header = FTCB_HEADER.pack(b"FTCB", 1, 50, 16, 16, 1, 1, 16, 16, 1, 256)
        for fn in (decode, decode_prefix):
            try:
                fn(header + body)
            except CodecError:
                pass


def _at_levels(p, levels):
    """The plane with its symbols scaled into a ``levels``-symbol alphabet."""
    return TiledPlane(p.bytes // (256 // levels), p.layout, levels)


class TestSymbolPath:
    """What the rate loops read from symbols, against the stream itself."""

    @given(_planes, st.integers(1, 100), st.sampled_from([256, 16]))
    def test_stream_size_is_the_stream_length(self, p, quality, levels):
        p = _at_levels(p, levels)
        t = _transform(p)
        assert _stream_size(_rounded(t, quality)) == len(encode(p, quality))

    def test_stream_size_on_extreme_planes_at_every_quality(self):
        # constant 0 and 255 give the largest DC symbols, checkerboards of
        # pixels and of blocks the largest ACs and DC deltas; between them
        # the coded values sit on both sides of every one-byte LEB128 limit,
        # where a value's second byte must be written, and only there
        p = _const_plane(0, h=16, w=16, c=4)
        y, x = np.mgrid[0:p.layout.plane_h, 0:p.layout.plane_w]
        planes = [p, _const_plane(255, h=16, w=16, c=4)] + [
            TiledPlane(np.where(odd % 2, 255, 0).astype(np.uint8), p.layout, 256)
            for odd in (y + x, y // 8 + x // 8)]
        coded = set()
        for p in planes:
            t = _transform(p)
            for q in range(1, 101):
                data = encode(p, q)
                assert data == reference.encode(p, q)
                # _pack sizes its buffer by the end of its own entry list,
                # the rate loops by _stream_size: the two must agree
                zz = _rounded(t, q)
                assert len(data) == _stream_size(zz)
                coded |= set(np.diff(zz[:, 0], prepend=0).tolist())
                coded |= set(zz[:, 1:][zz[:, 1:] != 0].tolist())
        assert {-64, 64} <= coded
        assert min(coded) < -64 and max(coded) > 64
        assert any(0 <= v <= 63 for v in coded)

    @pytest.mark.parametrize("shape", [(32, 32, 16), (16, 16, 32),
                                       (8, 8, 64), (3, 5, 7)])
    def test_max_stream_size_bounds_every_stream(self, shape):
        # it is _stream_size of rows whose every value is nonzero and two
        # bytes wide, DC deltas included, and noise at quality 100 stays
        # under it
        rng = np.random.default_rng(5)
        p = _plane_from_symbols(rng.integers(0, 256, shape))
        blocks = len(_transform(p).coefs)
        widest = np.full((blocks, 64), 100)
        widest[1::2, 0] = -100
        assert _stream_size(widest) == codec.max_stream_size(*shape)
        assert len(encode(p, 100)) < codec.max_stream_size(*shape)

    @pytest.mark.parametrize("quality", [1, 2, 13, 50, 51, 77, 99, 100])
    def test_rounding_matches_reference_at_ties(self, quality):
        # rows of exact (k + 0.5) * divisor ties, their neighbours one snap
        # step away, and signed zeros, through the reference rounding line
        divisors = quality_table(quality).reshape(64)[_ZIGZAG]
        k = np.arange(_MAX_SYMBOL)[:, None] + 0.5
        ties = np.concatenate([k, -k]) * divisors
        coefs = np.concatenate([ties, ties + 1 / 4096, ties - 1 / 4096,
                                np.zeros((1, 64)), np.full((1, 64), -0.0)])
        t = _Transformed(coefs, _const_plane(0).layout, 256)
        scaled = coefs / quality_table(quality).reshape(64)[_ZIGZAG]
        want = (np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)).astype(np.int64)
        assert np.array_equal(_rounded(t, quality), want)
        assert _stream_size(_rounded(t, quality)) == _stream_size(want)
        assert _stream_size(want) == len(_pack(t, quality, want))

    @given(_planes, st.integers(1, 100), st.sampled_from([256, 16]))
    def test_reconstruction_is_the_decoded_plane(self, p, quality, levels):
        p = _at_levels(p, levels)
        t = _transform(p)
        got = _decoded_plane(_rounded(t, quality), quality, t.layout, t.levels)
        want = decode(encode(p, quality))
        assert ((got.bytes.tobytes(), got.layout, got.levels)
                == (want.bytes.tobytes(), want.layout, want.levels))
