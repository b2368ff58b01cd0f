"""The tile walk's memory does not grow with the number of tiles.

``distance_tiles`` holds one block buffer per call and frees a tile's
tables and temporaries before it yields the tile.  So the traced peak of
``evaluate_many`` and ``sample_field``, less the bytes of what they return,
stays within a few tiles of TILE_ELEMS float64 pairs however many tiles a
call walks.  A walk that kept a tile's tables alive across its yield would
hold two tiles' tables at once and exceed the ``evaluate_many`` bound.
"""

import functools
import tracemalloc

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.distance import TILE_ELEMS

TILE_BYTES = TILE_ELEMS * 8
MODES = ["anisotropic", "isotropic"]


@functools.lru_cache(maxsize=None)
def _model(mode):
    return ax.fit_mesh(samples.hex_block_mesh(4, 4, 4), ax.Basis("imq", 0.1), mode)[0]


def _traced_peak(call) -> int:
    """Traced peak bytes of the second of two calls, so one-time caches do not count."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", MODES)
def test_evaluate_many_peak_does_not_grow_with_tiles(mode):
    model = _model(mode)
    lo, hi = model.bbox()
    excess = []
    for n in (5000, 20000):
        q = lo + (hi - lo) * np.random.default_rng(1).random((n, 3))
        assert n * len(model.centers) > 100 * TILE_ELEMS // 4  # many tiles
        excess.append((_traced_peak(lambda: model.evaluate_many(q)) - 8 * n) / TILE_BYTES)
    assert excess[1] <= excess[0] + 0.05
    assert excess[0] <= 2.25


@pytest.mark.parametrize("mode", MODES)
def test_sample_field_peak_does_not_grow_with_tiles(mode):
    model = _model(mode)
    excess = []
    for res in (24, 48):
        grid = ax.make_grid(*model.bbox(), res, 0.05)
        peak = _traced_peak(lambda: ax.sample_field(model, grid, workers=1))
        excess.append((peak - 4 * grid.values.size) / TILE_BYTES)
    # 8x the voxels; only the row chunks' own values (12 bytes a voxel) grow
    assert excess[1] <= excess[0] + 0.5
    assert max(excess) <= 4.0
