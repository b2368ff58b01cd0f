"""Squared distances from points to point and segment centers, walked in tiles.

``distance_tiles`` is the package's one tile walk: for query points given
as 2-D coordinate arrays x, y, z that broadcast to (rows, cols), it yields
each tile's squared distances to a set of points, then to a set of
segments.  Every point-to-segment distance comes from one formula: the
foot's parameter t, clamped to [0, 1], then the squared residual to the
segment's point at t.  So a point beyond an end measures to that endpoint,
and a degenerate segment (a == b) gives the point distance.  No tolerance
enters: points and centers scaled by a power of two scale every r² exactly
by its square.  Every basis is a function of r², so
``InterpolationModel.evaluate_axes`` turns the tiles into field values, and
``assemble_matrix`` into matrix entries, with no square root.
``squared_distance_block`` gathers the tiles into one (n, P + S) block.

The arithmetic is elementwise, never a dot or matrix product whose rounding
depends on the block shape, so a squared distance is bit-identical in any
tile, block or call: a collocation matrix row and the field at its center
come from the same bits.  It is split by axis: a table such as (x - c_x)²
has the shape of its own coordinate operand.  An operand with one row, such
as a grid chunk's x row, has its tables built once per block of columns and
shared by every tile; the others are built per tile.

A tile holds TILE_ELEMS query-center pairs when some operand has one row,
and TILE_ELEMS // 4 otherwise.  A tile that builds all its tables needs
about six temporaries of its own size, which the smaller tile keeps in
cache; they are freed before the tile is yielded, and a call keeps only
one block buffer.  Shared tables leave a tile far less work per pair, and
at the smaller size its fixed cost dominates: the hex2_sample benchmark
item, with 2 worker threads, took about 1.4 times as long.

The block's point and segment parts are strided views, on which a ufunc
runs one inner loop per query point over only P or S centers.  So each
part is computed in contiguous arrays, with the centers' coordinates as
one contiguous row per axis, and written into the block once.  A center
set with no segments (an isotropic fit, the fit's endpoint blocks) gets
no segment tables and no segment arithmetic; one with no points, no point
arithmetic.

No segment-to-segment distance is computed here.  Between two segment
centers the collocation matrix takes the minimum over their four endpoint
pairs (``assemble_matrix`` in rbf.py): a deliberate model choice and an
upper bound on the true distance between the segments.  So a whole segment
only ever meets a point.
"""

from __future__ import annotations

import numpy as np

from .errors import point_array

# Tiled kernels work on about this many point-center pairs at a time.
TILE_ELEMS = 2**17


def _tables(c, qk, ak, dk):
    """((c - qk)², c - ak, (c - ak) * dk): one axis of a tile's point and segment arithmetic.

    A part with no centers passes None for its operands and gets None for
    its tables.
    """
    c = c[..., None]
    sq = None
    if qk is not None:
        sq = c - qk
        sq *= sq
    if ak is None:
        return sq, None, None
    diff = c - ak
    return sq, diff, diff * dk


def _segment_frame(a, b):
    """Per-segment start, direction and divisor for t.

    Each segment's endpoints are put in lexicographic order, so [a, b] and
    [b, a] give bit-identical frames and distances.  The start and the
    direction come as (3, S) rows, one per axis, so that a ufunc's inner
    loop over the segments has unit stride.  The divisor is the squared
    length, or 1 for a degenerate segment, where d == 0 and so t == 0.
    """
    a, b = point_array(a, "seg_a"), point_array(b, "seg_b")
    d = b - a
    first = (d != 0.0).argmax(axis=1)  # first axis where the endpoints differ
    swap = (d[np.arange(len(d)), first] < 0.0)[:, None]
    a = np.where(swap, b, a)
    d = np.where(swap, -d, d)  # exact: a - b == -(b - a)
    dd = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    return a.T.copy(), d.T.copy(), np.where(dd == 0.0, 1.0, dd)


def _sum3(u, v, w, out):
    """(u + v) + w into ``out``: the order in which every distance adds its axes."""
    np.add(u, v, out=out)
    out += w
    return out


def _fill_block(tables, frame, block, p) -> None:
    """Fill block[..., :p] with point and block[..., p:] with segment squared distances.

    The three _tables results broadcast to their part of the block (a
    grid chunk's x tables are (1, nx, m), its y and z tables (rows, 1, m)),
    and every entry rounds as for a single point.  ``frame`` holds the
    segments' direction rows and divisors for t, which is clamped to [0, 1].
    With segments present, each part is computed in a C-contiguous
    (rows, cols, m) array and written into the block once; with points
    only, the block is the point part and no segment arithmetic runs.
    """
    (px, dx, tx), (py, dy, ty), (pz, dz, tz) = tables
    if tx is None:
        if px is not None:
            _sum3(px, py, pz, block)
        return
    if px is not None:
        block[..., :p] = _sum3(px, py, pz, np.empty(block[..., :p].shape))
    d, dd = frame
    t = _sum3(tx, ty, tz, np.empty(block[..., p:].shape))
    t /= dd
    np.clip(t, 0.0, 1.0, out=t)
    # The x and y residuals share one allocation; the z residual, last,
    # overwrites t.
    r = np.empty((2,) + t.shape)
    for diff, dk, rk in zip((dx, dy, dz), d, (r[0], r[1], t)):
        np.multiply(t, dk, out=rk)
        np.subtract(diff, rk, out=rk)
        rk *= rk
    block[..., p:] = _sum3(r[0], r[1], t, r[0])


def distance_tiles(x, y, z, points, seg_a, seg_b):
    """Yield (rows, cols, block) tiles of the squared distances from x, y, z to the centers.

    x, y and z are 2-D arrays that broadcast to (n_rows, n_cols); rows and
    cols are slices of that shape.  ``block``, of shape (rows, cols, P + S),
    holds each query point's squared distances to the P ``points``, then to
    the S segments [seg_a, seg_b].  Every block is a view of one buffer,
    sized for the call's largest tile, so a caller may overwrite it in place.
    """
    points = point_array(points, "points").T.copy()  # (3, P) rows, as the segment frame's
    a, d, dd = _segment_frame(seg_a, seg_b)
    p, s = points.shape[1], a.shape[1]
    n = max(p + s, 1)
    n_rows, n_cols = np.broadcast_shapes(x.shape, y.shape, z.shape)
    # a part with no centers gets no tables, so no per-tile work
    axes = [(points[k] if p else None, a[k] if s else None, d[k] if s else None)
            for k in range(3)]
    budget = TILE_ELEMS if 1 in (len(x), len(y), len(z)) else TILE_ELEMS // 4
    cols = max(1, min(n_cols, budget // n))
    rows = max(1, budget // (cols * n))
    buf = None
    for c0 in range(0, n_cols, cols):
        c1 = min(c0 + cols, n_cols)
        tile = [v[:, c0:c1] if v.shape[1] > 1 else v for v in (x, y, z)]
        shared = {k: _tables(v, *axes[k]) for k, v in enumerate(tile) if len(v) == 1}
        for r0 in range(0, n_rows, rows):
            r1 = min(r0 + rows, n_rows)
            if buf is None:  # after the first shared tables, so their ufunc buffers add no peak
                buf = np.empty(min(rows, n_rows) * cols * (p + s))
            block = buf[:(r1 - r0) * (c1 - c0) * (p + s)].reshape(r1 - r0, c1 - c0, p + s)
            # the tables are an argument, not a name, so they are freed before the yield
            _fill_block([shared[k] if k in shared else _tables(v[r0:r1], *axes[k])
                         for k, v in enumerate(tile)], (d, dd), block, p)
            yield slice(r0, r1), slice(c0, c1), block


def squared_distance_block(q, points, seg_a, seg_b) -> np.ndarray:
    """(len(q), P + S) squared distances from each row of ``q`` to the points, then the segments."""
    q = point_array(q, "q")
    points, seg_a = point_array(points, "points"), point_array(seg_a, "seg_a")
    out = np.empty((len(q), len(points) + len(seg_a)))
    for rows, _, block in distance_tiles(q[:, :1], q[:, 1:2], q[:, 2:], points, seg_a, seg_b):
        out[rows] = block[:, 0]
    return out
