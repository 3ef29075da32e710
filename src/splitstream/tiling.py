"""Packing quantized channels into a single 8-bit image plane.

A C-channel tensor becomes a near-square grid of H x W tiles, channel c at
grid position (c // cols, c % cols), so standard image tooling (and the
block codec) can treat the whole tensor as one grayscale picture.  Grid
cells past the last channel are padding, filled with the mid symbol and
ignored on the way back.  The channel <-> grid-slot mapping is one
reshape and transpose (``_slot_view``) shared by ``tile``, ``detile`` and
``channel_tiles``, which maps any plane-shaped array (say, a mask of
undecoded pixels) onto tensor elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantizer import QuantizedTensor, QuantizerSpec

__all__ = [
    "TileLayout",
    "TiledPlane",
    "layout_for",
    "tile",
    "detile",
    "channel_tiles",
    "write_pgm",
]


@dataclass(frozen=True)
class TileLayout:
    grid_cols: int
    grid_rows: int
    tile_w: int
    tile_h: int
    channels: int

    def __post_init__(self):
        if min(self.grid_cols, self.grid_rows, self.tile_w, self.tile_h,
               self.channels) < 1:
            raise ValueError("layout dimensions must be positive")
        if self.grid_cols * self.grid_rows < self.channels:
            raise ValueError("grid too small for channel count")

    @property
    def plane_w(self) -> int:
        return self.grid_cols * self.tile_w

    @property
    def plane_h(self) -> int:
        return self.grid_rows * self.tile_h


@dataclass(frozen=True, eq=False)
class TiledPlane:
    bytes: np.ndarray             # plane_h x plane_w uint8
    layout: TileLayout
    levels: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.bytes, dtype=np.uint8)
        if arr.shape != (self.layout.plane_h, self.layout.plane_w):
            raise ValueError(
                f"plane shape {arr.shape} does not match layout "
                f"({self.layout.plane_h}, {self.layout.plane_w})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "bytes", arr)


def layout_for(height: int, width: int, channels: int) -> TileLayout:
    cols = math.isqrt(channels)
    if cols * cols < channels:
        cols += 1
    rows = -(-channels // cols)
    return TileLayout(
        grid_cols=cols, grid_rows=rows, tile_w=width, tile_h=height, channels=channels
    )


def _slot_view(plane: np.ndarray, layout: TileLayout) -> np.ndarray:
    """tile_h x tile_w x grid_rows x grid_cols view of a plane-shaped array;
    ``[:, :, r, c]`` is grid slot r * grid_cols + c, which holds that channel."""
    return plane.reshape(
        layout.grid_rows, layout.tile_h, layout.grid_cols, layout.tile_w
    ).transpose(1, 3, 0, 2)


def channel_tiles(plane: np.ndarray, layout: TileLayout) -> np.ndarray:
    """H x W x C array of the channel tiles of a plane-shaped array of any
    dtype; padding slots are left out."""
    h, w = layout.tile_h, layout.tile_w
    return _slot_view(plane, layout).reshape(h, w, -1)[:, :, : layout.channels]


def tile(q: QuantizedTensor) -> TiledPlane:
    """Lay channels out on the plane; padding tiles get the mid symbol."""
    h, w, c = q.shape
    layout = layout_for(h, w, c)
    slots = np.full(
        (h, w, layout.grid_rows * layout.grid_cols), q.spec.levels // 2,
        dtype=np.uint8,
    )
    slots[:, :, :c] = q.symbols
    plane = np.empty((layout.plane_h, layout.plane_w), dtype=np.uint8)
    _slot_view(plane, layout)[...] = slots.reshape(
        h, w, layout.grid_rows, layout.grid_cols)
    return TiledPlane(plane, layout, q.spec.levels)


def detile(p: TiledPlane, spec: QuantizerSpec, stats_ref: str = "") -> QuantizedTensor:
    """Inverse of ``tile``; the quantizer spec restores symbol semantics."""
    if spec.levels != p.levels:
        raise ValueError(f"plane carries {p.levels} levels, spec says {spec.levels}")
    return QuantizedTensor(channel_tiles(p.bytes, p.layout), spec, stats_ref)


def write_pgm(p: TiledPlane, path) -> None:
    """Binary PGM (P5) dump for eyeballing a plane."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{p.layout.plane_w} {p.layout.plane_h}\n255\n".encode("ascii"))
        fh.write(p.bytes.tobytes())
