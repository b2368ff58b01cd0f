"""Distance kernels between points and line segments.

``points_to_points`` and ``points_to_segments`` fill whole (n, m) blocks
axis by axis with elementwise operations only, never a dot or matrix
product whose rounding depends on the block shape; the other kernels are
views of them, so a scalar distance is bit-identical to the same entry of
any batched call.  Privately the arithmetic is split by axis: a table
such as (x - c_x)² has the shape of its own coordinate operand, and the
``_fill_*`` forms combine three broadcastable tables into a caller-owned
block.  A grid thus passes a row of x values and a column of y and z
values, and each difference is computed once per axis value, not per voxel.

The segment-segment distance is deliberately the minimum over the four
endpoint pairs, not the true geometric distance between the segments;
closed-form distances involving a whole segment are only ever needed with
a point on one side.
"""

from __future__ import annotations

import math

import numpy as np

# A point whose perpendicular residual to the carrying line falls below this
# is treated as lying on the segment exactly.
ON_SEGMENT_TOL = 1e-12
# Tiled kernels work on about this many point-center pairs at a time.
TILE_ELEMS = 2**17


def _as_rows(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(-1, 3)


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


def _point_table(c, qk, alloc) -> np.ndarray:
    """(c - qk)² with shape c.shape + qk.shape: one axis of point distances."""
    t = np.subtract(c[..., None], qk, out=alloc(c.shape + qk.shape))
    t *= t
    return t


def _segment_tables(c, ak, dk, alloc):
    """(c - ak, (c - ak) * dk): one axis of the segment-foot arithmetic."""
    diff = np.subtract(c[..., None], ak, out=alloc(c.shape + ak.shape))
    return diff, np.multiply(diff, dk, out=alloc(diff.shape))


def _fill_point_block(tables, out) -> None:
    """out = sqrt((dx² + dy²) + dz²) from three _point_table results.

    Each table broadcasts to out, so a grid passes a (1, nx, m) x table and
    (rows, 1, m) y and z tables; every entry rounds as for a single point.
    """
    np.add(tables[0], tables[1], out=out)
    out += tables[2]
    np.sqrt(out, out=out)


def _segment_frame(a, b):
    """Per-segment start, direction and squared length, endpoints ordered.

    Each segment's endpoints are put in lexicographic order, so [a, b] and
    [b, a] give bit-identical frames and distances.
    """
    a, b = _as_rows(a), _as_rows(b)
    d = b - a
    first = (d != 0.0).argmax(axis=1)  # first axis where the endpoints differ
    swap = (d[np.arange(len(d)), first] < 0.0)[:, None]
    a = np.where(swap, b, a)
    d = np.where(swap, -d, d)  # exact: a - b == -(b - a)
    return a, d, d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]


def _fill_segment_block(tables, frame, out, alloc) -> None:
    """out = distances to the segments of ``frame`` from three _segment_tables results.

    The tables broadcast to out as in _fill_point_block; ``alloc`` gives
    four out-sized buffers.
    """
    _, d, dd = frame
    (dx, tx), (dy, ty), (dz, tz) = tables
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


def _fill_rows(n, m, fill) -> np.ndarray:
    """(n, m) block filled by ``fill(rows, out_tile, alloc)`` in row tiles.

    A segment tile needs ten temporaries of its own size, so tiles hold a
    quarter of TILE_ELEMS entries and the temporaries, reused from tile to
    tile, stay in cache; a large block needs no block-sized temporaries.
    """
    out = np.empty((n, m))
    rows, scratch = max(1, TILE_ELEMS // 4 // max(m, 1)), _Scratch()
    for s in range(0, n, rows):
        scratch.reset()
        fill(slice(s, s + rows), out[s:s + rows], scratch.take)
    return out


def points_to_points(p, q) -> np.ndarray:
    """(len(p), len(q)) Euclidean distances between the rows of p and q."""
    p, q = _as_rows(p), _as_rows(q)

    def fill(rows, out, alloc):
        _fill_point_block([_point_table(p[rows, k], q[:, k], alloc) for k in range(3)], out)
    return _fill_rows(len(p), len(q), fill)


def points_to_segments(pts, a, b) -> np.ndarray:
    """(n, s) distances from each row of ``pts`` to each segment [a_j, b_j].

    The distance is measured to the foot of the perpendicular, with its
    parameter t clamped to [0, 1], so a point beyond an end measures to
    that endpoint.  A point whose foot lies inside [a, b] and whose
    distance falls below ON_SEGMENT_TOL counts as on the segment and gets
    exactly 0.  A degenerate segment (a == b) gives the point distance.
    """
    pts = _as_rows(pts)
    frame = a, d, _ = _segment_frame(a, b)

    def fill(rows, out, alloc):
        tables = [_segment_tables(pts[rows, k], a[:, k], d[:, k], alloc) for k in range(3)]
        _fill_segment_block(tables, frame, out, alloc)
    return _fill_rows(len(pts), len(a), fill)


def points_to_point(pts, q) -> np.ndarray:
    """Distances from each row of ``pts`` (n, 3) to the point ``q``."""
    return points_to_points(pts, q)[:, 0]


def points_to_segment(pts, a, b) -> np.ndarray:
    """Distances from each row of ``pts`` (n, 3) to the segment [a, b]."""
    return points_to_segments(pts, a, b)[:, 0]


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
