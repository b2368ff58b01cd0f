"""Squared distances from points to point and segment centers, walked in tiles.

``distance_tiles`` is the package's one tile walk: for query points given
as 2-D coordinate arrays x, y, z that broadcast to (rows, cols), it yields
each tile's squared distances to a set of points, then to a set of
segments.  A point-to-segment distance is measured to the foot of the
perpendicular, with its parameter clamped to [0, 1], so a point beyond an
end measures to that endpoint; a point whose foot lies inside the segment
and whose squared distance falls below ON_SEGMENT_TOL² gets exactly 0; a
degenerate segment (a == b) gives the point distance.  Every basis is a
function of r², so ``InterpolationModel.evaluate_axes`` turns the tiles
into field values, and ``assemble_matrix`` into matrix entries, with no
square root.  ``squared_distance_block`` gathers the tiles into one
(n, P + S) block.

The arithmetic is elementwise, never a dot or matrix product whose rounding
depends on the block shape, so a squared distance is bit-identical in any
tile, block or call: a collocation matrix row and the field at its center
come from the same bits.  It is split by axis: a table such as (x - c_x)²
has the shape of its own coordinate operand.  An operand with one row, such
as a grid chunk's x row, has its tables built once per block of columns and
shared by every tile; the others are built per tile.

A tile holds TILE_ELEMS query-center pairs when some operand has one row,
and TILE_ELEMS // 4 otherwise.  A tile that builds all its tables needs
about ten temporaries of its own size, which the smaller tile keeps in
cache.  Shared tables leave a tile far less work per pair, and at the
smaller size its fixed cost dominates: the hex2_sample benchmark item,
with 2 worker threads, took about 1.4 times as long.

No segment-to-segment distance is computed here.  Between two segment
centers the collocation matrix takes the minimum over their four endpoint
pairs (``assemble_matrix`` in rbf.py): a deliberate model choice and an
upper bound on the true distance between the segments.  So a whole segment
only ever meets a point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# A point whose perpendicular residual to the carrying line falls below this
# is treated as lying on the segment exactly.
ON_SEGMENT_TOL = 1e-12
# Tiled kernels work on about this many point-center pairs at a time.
TILE_ELEMS = 2**17


def as_points(x) -> np.ndarray:
    """(n, 3) float64 rows from an (n, 3) array or a single (3,) point."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (3,) and (x.ndim != 2 or x.shape[1] != 3):
        raise ValidationError(f"points must have shape (n, 3) or (3,), got {x.shape}")
    return x.reshape(-1, 3)


class _Scratch:
    """Float64 buffers handed out in call order and reused after reset().

    A tiled caller resets once per tile, so from the second tile on the
    n-th take() is a view into the n-th buffer of the first tile instead of
    a fresh, page-faulting array.  No buffer is larger than one take.
    """

    def __init__(self):
        self._bufs, self._next = [], 0

    def reset(self) -> None:
        self._next = 0

    def take(self, shape) -> np.ndarray:
        size, n = math.prod(shape), self._next
        if n == len(self._bufs) or self._bufs[n].size < size:
            self._bufs[n:n + 1] = [np.empty(size)]
        self._next += 1
        return self._bufs[n][:size].reshape(shape)


def _tables(c, qk, ak, dk, alloc):
    """((c - qk)², c - ak, (c - ak) * dk): one axis of a tile's point and segment arithmetic."""
    sq = np.subtract(c[..., None], qk, out=alloc(c.shape + qk.shape))
    sq *= sq
    diff = np.subtract(c[..., None], ak, out=alloc(c.shape + ak.shape))
    return sq, diff, np.multiply(diff, dk, out=alloc(diff.shape))


def _segment_frame(a, b):
    """Per-segment start, direction and squared length, endpoints ordered.

    Each segment's endpoints are put in lexicographic order, so [a, b] and
    [b, a] give bit-identical frames and distances.
    """
    a, b = as_points(a), as_points(b)
    d = b - a
    first = (d != 0.0).argmax(axis=1)  # first axis where the endpoints differ
    swap = (d[np.arange(len(d)), first] < 0.0)[:, None]
    a = np.where(swap, b, a)
    d = np.where(swap, -d, d)  # exact: a - b == -(b - a)
    return a, d, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def _fill_block(tables, frame, block, p, alloc) -> None:
    """Fill block[..., :p] with point and block[..., p:] with segment squared distances.

    The three _tables results broadcast to their part of the block (a
    grid chunk's x tables are (1, nx, m), its y and z tables (rows, 1, m)),
    and every entry rounds as for a single point.
    """
    (px, dx, tx), (py, dy, ty), (pz, dz, tz) = tables
    out = block[..., :p]
    np.add(px, py, out=out)
    out += pz
    out = block[..., p:]
    _, d, dd = frame
    t = np.add(tx, ty, out=alloc(out.shape))
    t += tz
    t /= np.where(dd == 0.0, 1.0, dd)  # d == 0 there, so t == 0
    tc = np.clip(t, 0.0, 1.0, out=out)
    sq = [alloc(out.shape) for _ in range(3)]
    for k, (diff, r) in enumerate(zip((dx, dy, dz), sq)):
        np.multiply(tc, d[:, k], out=r)
        np.subtract(diff, r, out=r)
        r *= r
    np.add(sq[0], sq[1], out=out)
    out += sq[2]
    snap = out < ON_SEGMENT_TOL ** 2
    if snap.any():
        snap &= (t >= 0.0) & (t <= 1.0) & (dd > 0.0)
        out[snap] = 0.0


def distance_tiles(x, y, z, points, seg_a, seg_b):
    """Yield (rows, cols, block) tiles of the squared distances from x, y, z to the centers.

    x, y and z are 2-D arrays that broadcast to (n_rows, n_cols); rows and
    cols are slices of that shape.  ``block``, of shape (rows, cols, P + S),
    holds each query point's squared distances to the P ``points``, then to
    the S segments [seg_a, seg_b].  The next step reuses the block's buffer,
    so a caller may overwrite it in place.
    """
    points = as_points(points)
    frame = a, d, _ = _segment_frame(seg_a, seg_b)
    p, n = len(points), max(len(points) + len(a), 1)
    n_rows, n_cols = np.broadcast_shapes(x.shape, y.shape, z.shape)
    axes = [(points[:, k], a[:, k], d[:, k]) for k in range(3)]
    budget = TILE_ELEMS if 1 in (len(x), len(y), len(z)) else TILE_ELEMS // 4
    cols = max(1, min(n_cols, budget // n))
    rows = max(1, budget // (cols * n))
    scratch = _Scratch()
    for c0 in range(0, n_cols, cols):
        c1 = min(c0 + cols, n_cols)
        tile = [v[:, c0:c1] if v.shape[1] > 1 else v for v in (x, y, z)]
        shared = {k: _tables(v, *axes[k], np.empty) for k, v in enumerate(tile) if len(v) == 1}
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            scratch.reset()
            block = scratch.take((r1 - r0, c1 - c0, p + len(a)))
            tabs = [shared[k] if k in shared else _tables(v[r0:r1], *axes[k], scratch.take)
                    for k, v in enumerate(tile)]
            _fill_block(tabs, frame, block, p, scratch.take)
            yield slice(r0, r1), slice(c0, c1), block


def squared_distance_block(q, points, seg_a, seg_b) -> np.ndarray:
    """(len(q), P + S) squared distances from each row of ``q`` to the points, then the segments."""
    q, points, seg_a = as_points(q), as_points(points), as_points(seg_a)
    out = np.empty((len(q), len(points) + len(seg_a)))
    for rows, _, block in distance_tiles(q[:, :1], q[:, 1:2], q[:, 2:], points, seg_a, seg_b):
        out[rows] = block[:, 0]
    return out
