import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from splitstream import (QuantizedTensor, QuantizerSpec, TiledPlane,
                         TileLayout, detile, layout_for, tile, write_pgm)
from splitstream.tiling import channel_tiles


def _q(symbols, levels=256):
    return QuantizedTensor(
        np.asarray(symbols, dtype=np.uint8),
        QuantizerSpec(levels=levels, clip_width=3.0),
    )


def _random_q(rng, h, w, c, levels=256):
    return _q(rng.integers(0, levels, size=(h, w, c)), levels)


class TestLayout:
    def test_near_square_grids(self):
        assert (layout_for(2, 2, 4).grid_cols, layout_for(2, 2, 4).grid_rows) == (2, 2)
        assert (layout_for(2, 2, 5).grid_cols, layout_for(2, 2, 5).grid_rows) == (3, 2)
        assert (layout_for(4, 4, 1).grid_cols, layout_for(4, 4, 1).grid_rows) == (1, 1)
        lay = layout_for(8, 8, 64)
        assert (lay.grid_cols, lay.grid_rows) == (8, 8)
        assert (lay.plane_w, lay.plane_h) == (64, 64)

    def test_grid_must_cover_channels(self):
        with pytest.raises(ValueError):
            TileLayout(grid_cols=2, grid_rows=2, tile_w=2, tile_h=2, channels=5)

    def test_plane_shape_checked(self):
        lay = layout_for(2, 2, 4)
        with pytest.raises(ValueError):
            TiledPlane(np.zeros((3, 4), dtype=np.uint8), lay, 256)


class TestPlacement:
    def test_channel_goes_to_raster_slot(self):
        # H=W=2, C=4 -> 2x2 grid; channel 3 sits at grid (1,1), so its
        # element (y=1, x=0) lands at plane (3, 2)
        rng = np.random.default_rng(0)
        q = _random_q(rng, 2, 2, 4)
        p = tile(q)
        assert p.bytes[3, 2] == q.symbols[1, 0, 3]
        assert np.array_equal(p.bytes[0:2, 0:2], q.symbols[:, :, 0])
        assert np.array_equal(p.bytes[2:4, 2:4], q.symbols[:, :, 3])

    def test_single_channel_identity(self):
        rng = np.random.default_rng(1)
        q = _random_q(rng, 5, 7, 1)
        assert np.array_equal(tile(q).bytes, q.symbols[:, :, 0])

    def test_padding_cells_hold_mid_symbol(self):
        q = _q(np.zeros((2, 2, 5), dtype=np.uint8), levels=10)
        p = tile(q)
        assert (p.layout.grid_cols, p.layout.grid_rows) == (3, 2)
        assert np.all(p.bytes[2:4, 4:6] == 5)  # the one unused grid cell

    def test_round_trip_exact(self):
        rng = np.random.default_rng(2)
        q = _random_q(rng, 4, 3, 7, levels=32)
        back = detile(tile(q), QuantizerSpec(levels=32, clip_width=3.0))
        assert np.array_equal(back.symbols, q.symbols)

    @given(
        st.integers(1, 8), st.integers(1, 8), st.integers(1, 9),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_round_trip_property(self, h, w, c, seed):
        rng = np.random.default_rng(seed)
        q = _random_q(rng, h, w, c)
        back = detile(tile(q), QuantizerSpec(levels=256, clip_width=3.0))
        assert np.array_equal(back.symbols, q.symbols)
        # a boolean plane (padding slots included) maps onto tensor
        # elements exactly as detile maps the same plane's bytes
        lay = layout_for(h, w, c)
        plane = rng.integers(0, 2, size=(lay.plane_h, lay.plane_w)).astype(bool)
        as_bytes = detile(TiledPlane(plane.astype(np.uint8), lay, 256),
                          QuantizerSpec(levels=256, clip_width=3.0))
        mask = channel_tiles(plane, lay)
        assert mask.dtype == bool
        assert np.array_equal(mask, as_bytes.symbols.astype(bool))

    def test_padding_bytes_ignored_on_detile(self):
        rng = np.random.default_rng(3)
        q = _random_q(rng, 2, 2, 5)
        p = tile(q)
        vandalized = np.array(p.bytes)
        vandalized[2:4, 4:6] = 77  # scribble over the padding tile
        p2 = TiledPlane(vandalized, p.layout, p.levels)
        back = detile(p2, QuantizerSpec(levels=256, clip_width=3.0))
        assert np.array_equal(back.symbols, q.symbols)

    def test_levels_mismatch_rejected(self):
        q = _q(np.zeros((2, 2, 1), dtype=np.uint8), levels=16)
        with pytest.raises(ValueError, match="levels"):
            detile(tile(q), QuantizerSpec(levels=32, clip_width=3.0))


def test_write_pgm(tmp_path):
    rng = np.random.default_rng(9)
    p = tile(_random_q(rng, 4, 4, 2))
    path = tmp_path / "plane.pgm"
    write_pgm(p, path)
    raw = path.read_bytes()
    header = f"P5\n{p.layout.plane_w} {p.layout.plane_h}\n255\n".encode()
    assert raw == header + p.bytes.tobytes()
