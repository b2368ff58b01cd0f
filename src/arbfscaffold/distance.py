"""Distance kernels between points and line segments.

``points_to_points`` and ``points_to_segments`` fill whole (n, m) blocks
axis by axis with elementwise operations only, never a dot or matrix
product whose rounding depends on the block shape; the other kernels are
views of them, so a scalar distance is bit-identical to the same entry of
any batched call.  The private ``_fill_*`` forms write into caller-owned
arrays, so a tiled caller allocates once.

The segment-segment distance is deliberately the minimum over the four
endpoint pairs, not the true geometric distance between the segments;
closed-form distances involving a whole segment are only ever needed with
a point on one side.
"""

from __future__ import annotations

import numpy as np

# A point whose perpendicular residual to the carrying line falls below this
# is treated as lying on the segment exactly.
ON_SEGMENT_TOL = 1e-12


def _as_rows(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).reshape(-1, 3)


def _fill_point_block(pts, q, out, work) -> None:
    """out[i, j] = |pts_i - q_j|, summed as (dx² + dy²) + dz².

    ``work`` holds at least out.size floats.
    """
    tmp = work[:out.size].reshape(out.shape)
    np.subtract(pts[:, 0, None], q[:, 0], out=out)
    out *= out
    for k in (1, 2):
        np.subtract(pts[:, k, None], q[:, k], out=tmp)
        tmp *= tmp
        out += tmp
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


def _fill_segment_block(pts, frame, out, work) -> None:
    """out[i, j] = |pts_i - segment j|; ``work`` holds at least 5 * out.size floats."""
    a, d, dd = frame
    buf = work[:5 * out.size].reshape((5,) + out.shape)
    diff, t, tmp = buf[:3], buf[3], buf[4]
    np.subtract(pts.T[:, :, None], a.T[:, None, :], out=diff)
    np.multiply(diff[0], d[:, 0], out=t)
    for k in (1, 2):
        np.multiply(diff[k], d[:, k], out=tmp)
        t += tmp
    t /= np.where(dd == 0.0, 1.0, dd)  # d == 0 there, so t == 0
    tc = np.clip(t, 0.0, 1.0, out=out)
    for k in range(3):
        np.multiply(tc, d[:, k], out=tmp)
        diff[k] -= tmp
        diff[k] *= diff[k]
    np.add(diff[0], diff[1], out=out)
    out += diff[2]
    np.sqrt(out, out=out)
    snap = out < ON_SEGMENT_TOL
    if snap.any():
        snap &= (t >= 0.0) & (t <= 1.0) & (dd > 0.0)
        out[snap] = 0.0


def points_to_points(p, q) -> np.ndarray:
    """(len(p), len(q)) Euclidean distances between the rows of p and q."""
    p, q = _as_rows(p), _as_rows(q)
    out = np.empty((len(p), len(q)))
    _fill_point_block(p, q, out, np.empty(out.size))
    return out


def points_to_segments(pts, a, b) -> np.ndarray:
    """(n, s) distances from each row of ``pts`` to each segment [a_j, b_j].

    The distance is measured to the foot of the perpendicular, with its
    parameter t clamped to [0, 1], so a point beyond an end measures to
    that endpoint.  A point whose foot lies inside [a, b] and whose
    distance falls below ON_SEGMENT_TOL counts as on the segment and gets
    exactly 0.  A degenerate segment (a == b) gives the point distance.
    """
    pts = _as_rows(pts)
    frame = _segment_frame(a, b)
    out = np.empty((len(pts), len(frame[0])))
    _fill_segment_block(pts, frame, out, np.empty(5 * out.size))
    return out


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
