"""Distance kernels between points and line segments, walked in tiles.

``distance_tiles`` is the package's one tile walk: for query points given
as 2-D coordinate arrays x, y, z that broadcast to (rows, cols), it yields
each tile's distances to a set of points, then to a set of segments.
``InterpolationModel.evaluate_axes`` turns the tiles into field values;
``distance_block`` gathers them into (n, P + S) blocks for the kernels
below and for the point rows of ``assemble_matrix``.

The arithmetic is elementwise, never a dot or matrix product whose rounding
depends on the block shape, so a distance is bit-identical in any tile,
block or call.  It is split by axis: a table such as (x - c_x)² has the
shape of its own coordinate operand.  An operand with one row, such as a
grid chunk's x row, has its tables built once per block of columns and
shared by every tile; the others are built per tile.

A tile holds TILE_ELEMS query-center pairs when some operand has one row,
and TILE_ELEMS // 4 otherwise.  A tile that builds all its tables needs
about ten temporaries of its own size, which the smaller tile keeps in
cache.  Shared tables leave a tile far less work per pair, and at the
smaller size its fixed cost dominates: the hex2_sample benchmark item,
with 2 worker threads, took about 1.4 times as long.

The segment-segment distance is deliberately the minimum over the four
endpoint pairs, not the true geometric distance between the segments;
closed-form distances involving a whole segment are only ever needed with
a point on one side.
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


_NO_ROWS = np.empty((0, 3))  # no points, or no segments, for distance_block


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
    """Fill block[..., :p] with point and block[..., p:] with segment distances.

    The three _tables results broadcast to their part of the block (a
    grid chunk's x tables are (1, nx, m), its y and z tables (rows, 1, m)),
    and every entry rounds as for a single point.
    """
    (px, dx, tx), (py, dy, ty), (pz, dz, tz) = tables
    out = block[..., :p]
    np.add(px, py, out=out)
    out += pz
    np.sqrt(out, out=out)
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
    np.sqrt(out, out=out)
    snap = out < ON_SEGMENT_TOL
    if snap.any():
        snap &= (t >= 0.0) & (t <= 1.0) & (dd > 0.0)
        out[snap] = 0.0


def distance_tiles(x, y, z, points, seg_a, seg_b):
    """Yield (rows, cols, block) tiles of the distances from x, y, z to the centers.

    x, y and z are 2-D arrays that broadcast to (n_rows, n_cols); rows and
    cols are slices of that shape.  ``block``, of shape (rows, cols, P + S),
    holds each query point's distances to the P ``points``, then to the S
    segments [seg_a, seg_b] as in points_to_segments.  The next step reuses
    the block's buffer, so a caller may overwrite it in place.
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


def distance_block(q, points, seg_a, seg_b) -> np.ndarray:
    """(len(q), P + S) distances from each row of ``q`` to the points, then the segments."""
    q, points, seg_a = as_points(q), as_points(points), as_points(seg_a)
    out = np.empty((len(q), len(points) + len(seg_a)))
    for rows, _, block in distance_tiles(q[:, :1], q[:, 1:2], q[:, 2:], points, seg_a, seg_b):
        out[rows] = block[:, 0]
    return out


def points_to_points(p, q) -> np.ndarray:
    """(len(p), len(q)) Euclidean distances between the rows of p and q."""
    return distance_block(p, q, _NO_ROWS, _NO_ROWS)


def points_to_segments(pts, a, b) -> np.ndarray:
    """(n, s) distances from each row of ``pts`` to each segment [a_j, b_j].

    The distance is measured to the foot of the perpendicular, with its
    parameter t clamped to [0, 1], so a point beyond an end measures to
    that endpoint.  A point whose foot lies inside [a, b] and whose
    distance falls below ON_SEGMENT_TOL counts as on the segment and gets
    exactly 0.  A degenerate segment (a == b) gives the point distance.
    """
    return distance_block(pts, _NO_ROWS, a, b)


def dist_point_point(p, q) -> float:
    """Euclidean distance between two points."""
    return float(points_to_points(p, q)[0, 0])


def dist_point_segment(x, a, b) -> float:
    """Distance from the point ``x`` to the segment [a, b]."""
    return float(points_to_segments(x, a, b)[0, 0])


def dist_segment_segment(a, b, c, d) -> float:
    """Minimum distance over the four endpoint pairs of [a, b] and [c, d].

    This is an upper bound on the true segment-segment distance; the two
    agree whenever the minimum is attained at an endpoint, which holds for
    every segment pair produced by the center construction (all segments
    meet, if at all, at shared face centers).
    """
    return float(points_to_points([a, b], [c, d]).min())
