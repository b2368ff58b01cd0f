"""Squared distances from points to point and segment centers, walked in tiles.

``distance_tiles`` is the package's one tile walk: for query points given
as 2-D coordinate arrays x, y, z that broadcast to (rows, cols), it yields
each tile's squared distances to a set of points, then to a set of
segments.  Every point-to-segment distance comes from one formula, in a
frame built once per segment (``_segment_frame``): its start a, its length
L, the row d / dd (d = b - a, dd = d·d) and two unit normals e2 and e3.
With t = (x - a)·(d / dd), the foot's parameter, and n_j = (x - a)·e_j,

    r² = ((t - clamp(t, 0, 1))·L)² + (n2² + n3²).

So a point beyond an end measures to that endpoint.  A degenerate segment
(dd == 0) takes the frame of [a, a + x̂] and is not clamped: its t, n2 and
n3 are exactly x - a_x, z - a_z and a_y - y, so it measures as the point a
bit for bit.  No tolerance enters: points and centers scaled by a power of
two scale every r² exactly by its square, as they scale d / dd and L and
leave e2 and e3 as they are.  Every basis is a function of r², so
``InterpolationModel.evaluate_axes`` turns the tiles into field values, and
``assemble_matrix`` into matrix entries, with no square root.
``squared_distance_block`` gathers the tiles into one (n, P + S) block.

The frame keeps the accuracy of summing squared residuals.  t, n2 and n3
are dot products of x - a, each off by a few eps·|x - a|, and e2 and e3
are orthogonal to d to within about eps, so r stays within a few
eps·(|x - a| + L) of the exact distance: at most 1.0 of that on 400 random
points on, near and beyond segments, and tests/test_distance.py checks 4
against exact rationals.  The expanded form r² = |x - a|² + dd·t·(t - 2s),
with s the unclamped t, needs no frame but gets a small r² as the
difference of two large terms: near a segment it loses every digit (6e7
of that bound on the same points, and r² < 0 on some).

The arithmetic is elementwise, never a dot or matrix product whose rounding
depends on the block shape, so a squared distance is bit-identical in any
tile, block or call: a collocation matrix row and the field at its center
come from the same bits.  It is split by axis: a table such as (x - c_x)²,
or the three tables (x - a_x)·(d_x / dd, e2_x, e3_x) as one (3, ..., S)
array, has the shape of its own coordinate operand.  Every sum adds its
axes x + (y + z), so a grid chunk's y and z tables, (rows, 1, m), add at
that shape and only the add of its x table, (1, cols, m), is full size: one
for the point part and one for all three segment sums.  An operand with one
row, such as a grid chunk's x row, has its tables built once per block of
columns and shared by every tile; the others are built per tile, when a
sum needs them, and freed once added.

A tile holds TILE_ELEMS query-center pairs when some operand has one row,
and TILE_ELEMS // 4 otherwise.  A tile that builds all its tables needs a
few temporaries of its own size, which the smaller tile keeps in cache;
they are freed before the tile is yielded, and a call keeps only one block
buffer.  Shared tables leave a tile far less work per pair, and at the
smaller size its fixed cost dominates: the hex2_sample benchmark item, with
2 worker threads, took about 1.4 times as long.

The block's point and segment parts are strided views, on which a ufunc
runs one inner loop per query point over only P or S centers.  So the
tables and the segment terms are contiguous arrays, with the centers'
coordinates and frames as one contiguous row per axis, and only each
part's last add writes into the block.  A center set with no segments (an
isotropic fit, the fit's endpoint blocks) gets no segment tables and no
segment arithmetic; one with no points, no point arithmetic.

No segment-to-segment distance is computed here.  Between two segment
centers the collocation matrix takes the minimum over their four endpoint
pairs (``assemble_matrix`` in rbf.py): a deliberate model choice and an
upper bound on the true distance between the segments.  So a whole segment
only ever meets a point.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError, point_array

# Tiled kernels work on about this many point-center pairs at a time.
TILE_ELEMS = 2**17


def _table(c, ck, ek=None):
    """One axis of a tile's arithmetic: (c - ck)² for the points, (c - ck) * ek for the segments.

    ``ck`` is the centers' row for this axis: the points' coordinates, or
    the segments' starts.  ``ek`` is the (3, 1, 1, S) column of the
    segments' frame for this axis (d / dd, e2, e3), so a segment table is
    (3, ..., S): the axis's terms of t, n2 and n3 in one array.
    """
    diff = c[..., None] - ck
    if ek is None:
        diff *= diff
        return diff
    return diff * ek


def _segment_frame(a, b):
    """Per-segment start rows (3, S), frame (3, 3, 1, 1, S), length (S,) and degenerate indices.

    Each segment's endpoints are put in lexicographic order, so [a, b] and
    [b, a] give bit-identical frames and distances.  frame[k] holds axis
    k's component of d / dd, e2 and e3, one contiguous row each, so that a
    ufunc's inner loop over the segments has unit stride.  e2 is w / |w|
    for w = d × the unit axis of d's smallest |d_k|, exact in floats (each
    entry is 0 or ±d_j), and e3 = (d / L) × e2.  A degenerate segment
    (dd == 0) gets the frame of d = (1, 0, 0); its index is returned so
    that ``_fill_block`` does not clamp its t.
    """
    a, b = point_array(a, "seg_a"), point_array(b, "seg_b")
    d = b - a
    first = (d != 0.0).argmax(axis=1)  # first axis where the endpoints differ
    swap = (d[np.arange(len(d)), first] < 0.0)[:, None]
    a = np.where(swap, b, a)
    d = np.where(swap, -d, d)  # exact: a - b == -(b - a)
    dd = _dot_self(d)
    point = np.flatnonzero(dd == 0.0)
    d[point], dd[point] = (1.0, 0.0, 0.0), 1.0
    length = np.sqrt(dd)
    w = np.cross(d, np.eye(3)[np.abs(d).argmin(axis=1)])
    e2 = w / np.sqrt(_dot_self(w))[:, None]
    e3 = np.cross(d / length[:, None], e2)
    frame = np.stack([d / dd[:, None], e2, e3]).transpose(2, 0, 1)  # (axis, row, segment)
    return a.T.copy(), frame[:, :, None, None, :].copy(), length, point


def _dot_self(v):
    """v·v of each row of an (S, 3) array, added x + (y + z)."""
    return v[:, 0] * v[:, 0] + (v[:, 1] * v[:, 1] + v[:, 2] * v[:, 2])


def _sum3(table, part, out=None):
    """table(0, part) + (table(1, part) + table(2, part)): how every distance adds its axes.

    y + z comes first, so a grid chunk's per-row tables add at their own
    (rows, 1, m) shape and only the add of x is full size.  Each table is
    fetched when the sum needs it, so one built for this tile is freed as
    soon as it is added.
    """
    yz = table(1, part) + table(2, part)
    return np.add(table(0, part), yz, out=out)


def _fill_block(table, block, p, length, point) -> None:
    """Fill block[..., :p] with point and block[..., p:] with segment squared distances.

    ``table(k, part)`` gives axis k's table (see _table) for the points
    (part 0) or the segments (part 1); its result broadcasts to that part
    of the block (a grid chunk's x tables are (1, nx, m), its y and z
    tables (rows, 1, m)), and every entry rounds as for a single point.
    ``length`` holds the segments' lengths and ``point`` the indices of the
    degenerate ones.  The three segment sums t, n2 and n3 come from one _sum3 as one
    contiguous (3, rows, cols, S) array, and every later step runs in
    place on it: n2² + n3² into n2, clamp(t, 0, 1) into n3, then
    ((t - clamp)·L)² into t, which is added to n2 straight into the block.
    """
    if p:
        _sum3(table, 0, block[..., :p])
    if p == block.shape[-1]:
        return
    terms = _sum3(table, 1)
    t, n2, n3 = terms
    terms[1:] *= terms[1:]
    n2 += n3
    np.clip(t, 0.0, 1.0, out=n3)
    n3[..., point] = 0.0  # a degenerate segment is not clamped
    t -= n3
    t *= length
    t *= t
    np.add(t, n2, out=block[..., p:])


def distance_tiles(x, y, z, points, seg_a, seg_b):
    """Yield (rows, cols, block) tiles of the squared distances from x, y, z to the centers.

    x, y and z are 2-D arrays that broadcast to (n_rows, n_cols); rows and
    cols are slices of that shape.  ``block``, of shape (rows, cols, P + S),
    holds each query point's squared distances to the P ``points``, then to
    the S segments [seg_a, seg_b].  Every block is a view of one buffer,
    sized for the call's largest tile, so a caller may overwrite it in place.
    """
    points = point_array(points, "points").T.copy()  # (3, P) rows, as the segment starts'
    a, frame, length, point = _segment_frame(seg_a, seg_b)
    p, s = points.shape[1], a.shape[1]
    n = max(p + s, 1)
    n_rows, n_cols = np.broadcast_shapes(x.shape, y.shape, z.shape)
    # the operands of _table for each part and axis; a part with no centers
    # gets no tables, so no per-tile work
    parts = [[(points[k],) for k in range(3)], [(a[k], frame[k]) for k in range(3)]]
    live = [part for part, size in enumerate((p, s)) if size]
    budget = TILE_ELEMS if 1 in (len(x), len(y), len(z)) else TILE_ELEMS // 4
    cols = max(1, min(n_cols, budget // n))
    rows = max(1, budget // (cols * n))
    buf = None
    for c0 in range(0, n_cols, cols):
        c1 = min(c0 + cols, n_cols)
        tile = [v[:, c0:c1] if v.shape[1] > 1 else v for v in (x, y, z)]
        shared = {(k, part): _table(v, *parts[part][k])
                  for k, v in enumerate(tile) if len(v) == 1 for part in live}
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            if buf is None:  # after the first shared tables, so their ufunc buffers add no peak
                buf = np.empty(min(rows, n_rows) * cols * (p + s))
            block = buf[:(r1 - r0) * (c1 - c0) * (p + s)].reshape(r1 - r0, c1 - c0, p + s)

            def table(k, part):  # built here, so freed before the yield
                if (k, part) in shared:
                    return shared[k, part]
                return _table(tile[k][r0:r1], *parts[part][k])
            _fill_block(table, block, p, length, point)
            yield slice(r0, r1), slice(c0, c1), block


def squared_distance_block(q, points, seg_a, seg_b, out=None) -> np.ndarray:
    """(len(q), P + S) squared distances from each row of ``q`` to the points, then the segments.

    They are written into ``out`` when it is given (a view of a larger
    array, such as the collocation matrix's rows, will do), and returned.
    """
    q = point_array(q, "q")
    points, seg_a = point_array(points, "points"), point_array(seg_a, "seg_a")
    shape = (len(q), len(points) + len(seg_a))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValidationError(f"out must be a float64 array of shape {shape}, "
                              f"got {out.dtype} {out.shape}")
    for rows, _, block in distance_tiles(q[:, :1], q[:, 1:2], q[:, 2:], points, seg_a, seg_b):
        out[rows] = block[:, 0]
    return out
