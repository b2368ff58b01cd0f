"""Iso-surface and iso-contour extraction plus OBJ/PGM export.

One rule places every iso vertex, in both extractors: a vertex lies on a
crossed grid edge, is named by it, and is computed from the edge's low
sample, p = p_lo + t * (p_hi - p_lo) with t = (iso - v_lo) / (v_hi - v_lo).
So it depends on its edge alone, and on the axes across the edge it is p_lo
exactly.  marching_squares places each segment end of its 16-case table by
this rule, so the segments of two cells that share an edge end at the same
point, bit for bit.

marching_cubes classifies every grid sample against the iso value, in
float64 (solid when value >= iso), and emits triangles from the classic
256-case tables, cells in order of their case.  The crossed edges are
marked in a dense mask over the grid edges (3 per sample), straight from
the sample signs, and a vertex id is the edge's rank among the marked ones,
scattered into a dense lookup: no corner id is sorted, and vertices come in
grid-edge order (by low sample, then axis), each computed once.  Each
triangle names 3 distinct edges and every crossed edge is named, so the mesh
is complete as it stands unless a vertex snaps: when min(t, 1 - t) <= SNAP_T
the vertex is the nearer sample instead, with that sample's id and exact
position, so the edges that meet at a sample on the iso value share one
vertex.  Only after a snap are the vertices renumbered, the triangles that
repeat a vertex dropped, and the vertices no triangle uses removed.
Identities are exact integers, so closedness does not depend on where the
grid lies or how large it is.

Triangle indices keep the dtype of the ranks from marching_cubes to the OBJ
file: _index_dtype(n) is int32 for n < 2**31 vertices (or crossed edges),
else int64, and marching_cubes, load_obj and the empty TriangleSoup use it.
So a soup's indices take 12 bytes a triangle, not 24.  Arithmetic on them
that can pass nv must widen first: euler_characteristic builds its edge keys
a * nv + b in int64.

export_obj writes the bytes of 'v %.9g %.9g %.9g' and 'f %d %d %d' lines
without formatting numbers one by one.  Each chunk of OBJ_CHUNK_ROWS lines
is an array of uint32 words, 3-digit groups looked up in a table, with NUL
bytes wherever a line has nothing; the chunk is written with every NUL
removed.  A face index is its digit groups without leading zeros.  %.9g
prints x in fixed notation exactly when the decimal exponent e of x rounded
to 9 digits lies in [-4, 8]; then, with a = |x| and k = 8 - e in 0..12,
10**k is exact and scaled = a * 10**k is rounded once (e is lowered by one
when scaled < 1e8).  M = rint(scaled) gives the integer part M // 10**k and
the fraction M mod 10**k, printed without leading zeros (the units digit
stays), trailing zeros or a bare '.', and with '-' from the sign bit (so
-0.0 is '-0').  A value is formatted with '%' instead when it needs
exponent notation, is NaN or infinite, when scaled is outside [1e8, 1e9)
or M is 1e9, or when scaled lies within _TIE_GUARD of a rounding tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import textio
from ._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from .errors import ValidationError
from .grid import VoxelGrid
from .mesh import triangle_areas

# A vertex whose edge parameter t lies within SNAP_T of 0 or 1 is the nearer
# sample.  It is relative, so it holds at any grid offset and scale.  TPMS
# samples that are zero in exact arithmetic land at t <= 1e-14, and the next
# t above them on the tested surfaces is 2.2e-6.
SNAP_T = float(np.finfo(np.float32).eps)


def _index_dtype(n: int) -> np.dtype:
    """Dtype of vertex indices 0..n - 1: int32 while n < 2**31, else int64.

    Below that bound the 1-based OBJ index n fits int32 too.
    """
    return np.dtype(np.int32 if n < 2 ** 31 else np.int64)


@dataclass(eq=False)
class TriangleSoup:
    """Welded triangle mesh: (nv, 3) float64 vertices, (nt, 3) integer triangles.

    marching_cubes, load_obj and the empty default give triangles in
    ``_index_dtype(nv)``: int32 below 2**31 vertices.  Arithmetic on the
    indices that can pass nv, such as an edge key a * nv + b, must widen
    them to int64 first.
    """

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=_index_dtype(0)))


@dataclass(eq=False)
class ContourSet:
    """Planar contours: list of (k, 3) polylines at the z of their slice."""

    polylines: list = field(default_factory=list)

    def total_length(self) -> float:
        return float(sum(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()
                         for p in self.polylines))


def surface_area(soup: TriangleSoup) -> float:
    if len(soup.triangles) == 0:
        return 0.0
    return float(triangle_areas(soup.vertices, soup.triangles).sum())


def euler_characteristic(soup: TriangleSoup) -> int:
    """V - E + F over the welded mesh (E = distinct undirected edges)."""
    if len(soup.triangles) == 0:
        return 0
    tris = soup.triangles
    a, b = tris, np.roll(tris, -1, axis=1)   # edges (0,1), (1,2), (2,0)
    nv = int(tris.max()) + 1
    # keys reach nv**2, so they are built in int64 whatever the index dtype
    n_edges = len(np.unique(np.minimum(a, b).astype(np.int64) * nv + np.maximum(a, b)))
    n_verts = len(np.unique(tris))
    return int(n_verts - n_edges + len(tris))


# Cell edge e runs along axis _EDGE_AXIS[e] from the cell-relative grid point
# _EDGE_LOW[e].  _CASE_OF_BITS maps a cell's corners as bits dx + 2*dy + 4*dz
# to its case.  All TRI_TABLE rows as one array of cell edges, case c's row
# from _TRI_START[c], with the row lengths.
_OFFSETS = np.asarray(CORNER_OFFSETS, dtype=np.int64)
_EDGE_C0, _EDGE_C1 = np.asarray(EDGE_CORNERS, dtype=np.int64).T
_EDGE_AXIS = np.argmax(_OFFSETS[_EDGE_C0] != _OFFSETS[_EDGE_C1], axis=1)
_EDGE_LOW = np.minimum(_OFFSETS[_EDGE_C0], _OFFSETS[_EDGE_C1])
_CASE_OF_BITS = np.zeros(256, dtype=np.uint8)
for _n, _bit in enumerate(_OFFSETS @ (1, 2, 4)):
    _CASE_OF_BITS |= (((np.arange(256) >> _bit) & 1) << _n).astype(np.uint8)
_TRI_LEN = np.array([len(t) for t in TRI_TABLE], dtype=np.int64)
_TRI_START = np.cumsum(_TRI_LEN) - _TRI_LEN
_TRI_EDGES = np.array([e for t in TRI_TABLE for e in t], dtype=np.int64)


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, slot) of each item when owner g has counts[g] items, in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _edge_vertices(grid: VoxelGrid, lo: np.ndarray, axis: np.ndarray,
                   iso: float) -> tuple[np.ndarray, np.ndarray]:
    """(t, vertex) of each crossed grid edge from flat sample ``lo`` along ``axis``."""
    nx, ny, _ = grid.dims
    hi = lo + np.array([1, nx, nx * ny])[axis]
    # The float32 samples widen exactly, so t is computed in float64.
    v_lo = grid.values[lo].astype(np.float64)
    t = (iso - v_lo) / (grid.values[hi] - v_lo)  # crossed: v_lo != v_hi
    p_lo, p_hi = grid.positions(lo), grid.positions(hi)
    return t, p_lo + t[:, None] * (p_hi - p_lo)


def marching_cubes(grid: VoxelGrid, iso: float) -> TriangleSoup:
    nx, ny, nz = grid.dims
    if nx < 2 or ny < 2 or nz < 2:
        raise ValidationError("marching cubes needs at least 2 samples per axis")
    vol = grid.values_3d()
    # The float32 samples are compared in float64 under any numpy promotion
    # rules, as solid_fraction compares them.
    below = np.less(vol, iso, signature="dd->?").view(np.uint8)

    # Case of each cell, shape (nz-1, ny-1, nx-1): bit n set when corner n is
    # below.  The corners are gathered in pairs along x, then y, then z.
    bits = below[:, :, 1:] << 1
    bits |= below[:, :, :-1]
    quad = bits[:, 1:] << 2
    quad |= bits[:, :-1]
    bits = quad[1:] << 4
    bits |= quad[:-1]
    cells = np.flatnonzero((bits != 0) & (bits != 255))
    if len(cells) == 0:
        return TriangleSoup()
    cases = _CASE_OF_BITS[bits.ravel()[cells]]
    order = np.argsort(cases, kind="stable")
    cells, cases = cells[order], cases[order]
    row = cells // (nx - 1)
    base = cells + row + nx * (row // (ny - 1))   # sample at the cell's corner 0

    # Grid edge 3 * q + axis runs from sample q (flat index) along axis.  The
    # crossed ones are exactly the edges the triangle corners name, and a
    # vertex id is the edge's rank among them, so vertices come in edge order.
    crossed = np.zeros((nz, ny, nx, 3), dtype=np.uint8)
    np.bitwise_xor(below[:, :, :-1], below[:, :, 1:], out=crossed[:, :, :-1, 0])
    np.bitwise_xor(below[:, :-1], below[:, 1:], out=crossed[:, :-1, :, 1])
    np.bitwise_xor(below[:-1], below[1:], out=crossed[:-1, :, :, 2])
    edges = np.flatnonzero(crossed.view(bool))
    del crossed, below, bits, quad   # freed before rank, the largest array
    rank = np.empty(3 * nx * ny * nz, dtype=_index_dtype(len(edges)))
    rank[edges] = np.arange(len(edges), dtype=rank.dtype)

    # Triangle corners in emission order: cells by case, then TRI_TABLE
    # order.  A cell's k-th corner is the cell edge _TRI_EDGES[_TRI_START[case]
    # + k], which names grid edge 3 * base plus that edge's offset.
    stride = np.array([1, nx, nx * ny])
    counts = _TRI_LEN[cases]
    corner = np.repeat(_TRI_START[cases] - (np.cumsum(counts) - counts), counts)
    corner += np.arange(len(corner))
    corner = (3 * (_EDGE_LOW @ stride) + _EDGE_AXIS)[_TRI_EDGES][corner]
    corner += np.repeat(3 * base, counts)
    corner_src = rank[corner]
    del rank, corner

    lo, axis = np.divmod(edges, 3)
    t, points = _edge_vertices(grid, lo, axis, iso)
    snap = np.minimum(t, 1 - t) <= SNAP_T
    if not snap.any():
        return TriangleSoup(vertices=points, triangles=corner_src.reshape(-1, 3))

    # A snapped vertex is its nearer sample q.  Ids 4 * q + axis (edges) and
    # 4 * q + 3 (sample q) keep the vertices in grid-edge order.
    sample = np.where(t > 0.5, lo + stride[axis], lo)
    ids = np.where(snap, 4 * sample + 3, 4 * lo + axis)
    snap = np.flatnonzero(snap)
    points[snap] = grid.positions(sample[snap])
    ids, first, vertex_of = np.unique(ids, return_index=True, return_inverse=True)

    # Drop triangles that repeat a vertex, then the vertices no triangle uses.
    # The renumbering stays in the ranks' dtype.
    triangles = vertex_of.astype(corner_src.dtype)[corner_src].reshape(-1, 3)
    triangles = triangles[(triangles[:, 0] != triangles[:, 1])
                          & (triangles[:, 1] != triangles[:, 2])
                          & (triangles[:, 2] != triangles[:, 0])]
    used = np.zeros(len(ids), dtype=bool)
    used[triangles] = True
    renumber = (np.cumsum(used) - 1).astype(corner_src.dtype)
    return TriangleSoup(vertices=points[first[used]], triangles=renumber[triangles])


# 16-case marching squares: corner bit n set when corner n is >= iso,
# corners 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1); edge e joins corners e
# and e + 1 (mod 4), and runs along axis _MS_EDGE_AXIS[e] from the
# cell-relative grid point _MS_EDGE_LOW[e].  _MS_SEGS[case, center_solid]
# lists a cell's segments as (edge, edge) pairs, padded with (0, 0), which
# joins no two edges.  Only the ambiguous cases 5 and 10 depend on the
# cell-center average: a solid center (column 1) connects the solid corners.
_MS_SEGS = np.array([
    [[(0, 0), (0, 0)], [(0, 0), (0, 0)]],   # 0
    [[(3, 0), (0, 0)], [(3, 0), (0, 0)]],   # 1
    [[(0, 1), (0, 0)], [(0, 1), (0, 0)]],   # 2
    [[(3, 1), (0, 0)], [(3, 1), (0, 0)]],   # 3
    [[(1, 2), (0, 0)], [(1, 2), (0, 0)]],   # 4
    [[(3, 0), (1, 2)], [(0, 1), (2, 3)]],   # 5: corners 0 and 2 solid
    [[(0, 2), (0, 0)], [(0, 2), (0, 0)]],   # 6
    [[(3, 2), (0, 0)], [(3, 2), (0, 0)]],   # 7
    [[(2, 3), (0, 0)], [(2, 3), (0, 0)]],   # 8
    [[(0, 2), (0, 0)], [(0, 2), (0, 0)]],   # 9
    [[(0, 1), (2, 3)], [(3, 0), (1, 2)]],   # 10: corners 1 and 3 solid
    [[(1, 2), (0, 0)], [(1, 2), (0, 0)]],   # 11
    [[(1, 3), (0, 0)], [(1, 3), (0, 0)]],   # 12
    [[(0, 1), (0, 0)], [(0, 1), (0, 0)]],   # 13
    [[(0, 3), (0, 0)], [(0, 3), (0, 0)]],   # 14
    [[(0, 0), (0, 0)], [(0, 0), (0, 0)]],   # 15
], dtype=np.int64)
_MS_NSEG = np.count_nonzero(_MS_SEGS[..., 0] != _MS_SEGS[..., 1], axis=-1)
_MS_CORNER_OFFSETS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
_MS_EDGE_AXIS = np.argmax(_MS_CORNER_OFFSETS != np.roll(_MS_CORNER_OFFSETS, -1, axis=0), axis=1)
_MS_EDGE_LOW = np.minimum(_MS_CORNER_OFFSETS, np.roll(_MS_CORNER_OFFSETS, -1, axis=0))


def marching_squares(grid: VoxelGrid, iso: float) -> ContourSet:
    """One two-point polyline per segment, cells j-major then i."""
    nx, ny, nz = grid.dims
    if nz != 1:
        raise ValidationError("marching squares expects a single-slice grid (nz = 1)")
    if nx < 2 or ny < 2:
        raise ValidationError("marching squares needs at least 2 samples per axis")
    vals = grid.values_3d()[0].astype(np.float64)  # (ny, nx) -> [j, i]

    solid = vals >= iso
    case = np.zeros((ny - 1, nx - 1), dtype=np.uint8)
    for n, (di, dj) in enumerate(_MS_CORNER_OFFSETS):
        case |= solid[dj: dj + ny - 1, di: di + nx - 1].view(np.uint8) << n
    cells = np.flatnonzero((case != 0) & (case != 15))
    case = case.ravel()[cells]
    base = cells + cells // (nx - 1)   # sample at the cell's corner 0
    stride = np.array([1, nx])
    cv = vals.ravel()[base[:, None] + _MS_CORNER_OFFSETS @ stride]   # (cells, 4)
    center = 0.25 * (cv[:, 0] + cv[:, 1] + cv[:, 2] + cv[:, 3])
    center_solid = (center >= iso).astype(np.int64)

    seg_cell, slot = _ragged(_MS_NSEG[case, center_solid])
    edges = _MS_SEGS[case[seg_cell], center_solid[seg_cell], slot]   # (segments, 2)
    lo = base[seg_cell, None] + (_MS_EDGE_LOW @ stride)[edges]
    pts = _edge_vertices(grid, lo.ravel(), _MS_EDGE_AXIS[edges].ravel(), iso)[1]
    return ContourSet(polylines=list(pts.reshape(-1, 2, 3)))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

# Rows per chunk: a chunk's words take at most 3 MiB (8 uint32 per value).
OBJ_CHUNK_ROWS = 2 ** 15

# Every 3-digit group as a little-endian uint32 word: its digit bytes, then
# NUL padding, so byte 3 is always NUL.  Rows: _LEAD drops leading zeros (0
# has no digits), _FULL keeps all three, _UNIT is _LEAD except that 0 keeps
# its '0', and _TRAIL drops trailing zeros.
_LEAD, _FULL, _UNIT, _TRAIL = 0, 1000, 2000, 3000
_GROUP_WORDS = np.frombuffer(b"".join(
    s.ljust(4, b"\0") for s in
    [(b"%d" % g).lstrip(b"0") for g in range(1000)]
    + [b"%03d" % g for g in range(1000)]
    + [b"%d" % g for g in range(1000)]
    + [(b"%03d" % g).rstrip(b"0") for g in range(1000)]), dtype="<u4")
# Bytes 1..3 of a word.
_SPACE, _MINUS, _DOT, _NEWLINE = ord(" ") << 8, ord("-") << 16, ord(".") << 24, ord("\n") << 24
_POW10 = np.array([float(10 ** k) for k in range(14)])   # exact
_IPOW10 = 10 ** np.arange(13, dtype=np.int64)
# |scaled - a * 10**k| <= 2**-24 < 6e-8.  A scaled value within this of a
# rounding tie (fraction .5) goes to '%', which rounds the exact value.
_TIE_GUARD = 2.5e-7


def _line_words(rows: int, slot_words: int, tag: str) -> np.ndarray:
    """Zeroed (rows, 3, slot_words) words; slots start with ' ', lines with ``tag``."""
    words = np.zeros((rows, 3, slot_words), dtype="<u4")
    words[:, :, 0] = _SPACE
    words[:, 0, 0] |= ord(tag)
    return words


def _line_bytes(words: np.ndarray) -> bytes:
    """The lines held in ``words``, each ended by a newline, with every NUL removed."""
    words[:, 2, -1] |= _NEWLINE
    return words.tobytes().translate(None, b"\0")


def _groups(v: np.ndarray) -> int:
    """3-digit groups needed for the largest of the integers ``v`` >= 0."""
    return -(-len(str(int(v.max()))) // 3)


def _put_digits(out: np.ndarray, v: np.ndarray) -> None:
    """out[..., j] <- 3-digit groups of ``v`` >= 0, most significant first.

    Leading zeros are dropped, the units digit is kept.
    """
    last = out.shape[-1] - 1
    for j in range(last, -1, -1):
        q = v // 1000
        row = np.where(q != 0, _FULL, _UNIT if j == last else _LEAD)
        out[..., j] = _GROUP_WORDS[v - 1000 * q + row]
        v = q


def _face_lines(tris: np.ndarray) -> bytes:
    """'f a b c' lines of (rows, 3) indices."""
    words = _line_words(len(tris), 1 + _groups(tris), "f")
    _put_digits(words[:, :, 1:], tris)
    return _line_bytes(words)


def _vertex_lines(x: np.ndarray) -> bytes:
    """'v x y z' lines of (rows, 3) float64 coordinates, each as '%.9g' formats it.

    A slot holds [' ', sign], the integer part, '.' and 12 fraction digits,
    or the '%.9g' text of a value outside the fixed-notation fast path.
    """
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fast = (a >= 1e-4) & (a < 1e9)
        k = np.clip(np.where(fast, 8 - np.floor(np.log10(a)), 8), 0, 12).astype(np.int64)
        scaled = a * _POW10[k]
        low = scaled < 1e8
        k += low
        scaled = np.where(low, a * _POW10[k], scaled)
        m = np.rint(scaled)
        fast &= ((k <= 12) & (scaled >= 1e8) & (m < 1e9)
                 & (np.abs(scaled - np.floor(scaled) - 0.5) > _TIE_GUARD))
    fast |= a == 0
    k = np.minimum(k, 12)
    m = np.where(fast, m, 0).astype(np.int64)
    whole = m // _IPOW10[k]
    frac = (m - whole * _IPOW10[k]) * _IPOW10[12 - k]

    n_whole = _groups(whole)
    words = _line_words(len(x), 1 + n_whole + 4, "v")
    words[:, :, 0] |= np.signbit(x) * np.uint32(_MINUS)
    _put_digits(words[:, :, 1: 1 + n_whole], whole)
    # Fraction groups from the least significant up: trailing zeros stay
    # only in front of a later nonzero digit, and so does the point.
    later = np.zeros(x.shape, dtype=bool)
    for j in range(-1, -5, -1):
        q = frac // 1000
        group = frac - 1000 * q
        words[:, :, j] = _GROUP_WORDS[group + np.where(later, _FULL, _TRAIL)]
        later |= group != 0
        frac = q
    words[:, :, n_whole] |= later * np.uint32(_DOT)

    slow = np.nonzero(~fast)
    if len(slow[0]):
        width = 4 * words.shape[-1] - 3   # from the sign byte up to the newline byte
        text = np.array([b"%.9g" % v for v in x[slow].tolist()], dtype=f"S{width}")
        words.view(np.uint8)[(*slow, slice(2, 2 + width))] = text.view(np.uint8).reshape(-1, width)
    return _line_bytes(words)


def _face_indices(triangles, nv: int) -> np.ndarray:
    """The triangles as integers in 0..nv - 1 whose 1-based form cannot wrap.

    A signed integer array at least as wide as ``_index_dtype(nv)`` is kept
    as it is, with no copy; integral floats and other integers become that
    dtype, which holds the 1-based index nv too.
    """
    tris = np.asarray(triangles)
    if tris.dtype.kind not in "iuf":
        raise ValidationError(f"triangle indices must be integers, got dtype {tris.dtype}")
    if tris.size == 0:
        return tris
    if tris.dtype.kind == "f":
        whole = np.isfinite(tris) & (tris == np.floor(tris))
        if not whole.all():
            raise ValidationError(f"triangle index {tris[~whole][0]} is not an integer")
    if tris.min() < 0:
        raise ValidationError("triangle vertex indices must be >= 0")
    if tris.max() >= nv:
        raise ValidationError(f"triangle vertex index {int(tris.max())} out of range "
                              f"for {nv} vertices")
    dtype = _index_dtype(nv)
    if tris.dtype.kind == "i" and tris.dtype.itemsize >= dtype.itemsize:
        return tris
    return tris.astype(dtype)


def export_obj(soup: TriangleSoup, path: str) -> None:
    """ASCII OBJ: 'v x y z' lines (%.9g) then 1-based 'f a b c' lines.

    Triangle indices must be integers in 0..nv - 1, checked before the file
    is created; integral floats are accepted.
    """
    vertices = np.asarray(soup.vertices, dtype=np.float64)
    triangles = _face_indices(soup.triangles, len(vertices))
    with textio.create(path, "wb") as fh:
        for start in range(0, len(vertices), OBJ_CHUNK_ROWS):
            fh.write(_vertex_lines(vertices[start: start + OBJ_CHUNK_ROWS]))
        for start in range(0, len(triangles), OBJ_CHUNK_ROWS):
            fh.write(_face_lines(triangles[start: start + OBJ_CHUNK_ROWS] + 1))


def load_obj(path: str) -> TriangleSoup:
    """Vertices and faces of an OBJ file, a face of k corners as k - 2 triangles.

    Only 'v' and 'f' lines are read.  A 'v' line needs 3 numbers; an 'f' line
    needs at least 3 corners whose vertex indices lie in 1..nv (relative,
    negative indices are not supported), and corners c0..c(k-1) become the
    fan (c0, ci, ci+1) for i = 1..k-2.  Anything else raises ParseError at
    path:line.
    """
    verts, faces = [], []
    for lineno, tokens in textio.data_lines(path):
        if tokens[0] == "v":
            verts.append(textio.floats(tokens[1:4], 3, path, lineno))
        elif tokens[0] == "f":
            corners = [t.split("/")[0] for t in tokens[1:]]
            faces.append((lineno, textio.ints(corners, max(3, len(corners)), path, lineno)))
    tris = []
    for lineno, corners in faces:
        c = textio.cell_row(corners, len(verts), 1, path, lineno)
        tris.extend([c[0], c[i], c[i + 1]] for i in range(1, len(c) - 1))
    return TriangleSoup(
        vertices=np.asarray(verts, dtype=np.float64).reshape(-1, 3),
        triangles=np.asarray(tris, dtype=_index_dtype(len(verts))).reshape(-1, 3),
    )


def export_pgm(grid: VoxelGrid, path: str, lo: float, hi: float) -> None:
    """Binary PGM (P5, maxval 255) of a single-slice grid.

    Values are clamped to [lo, hi] and mapped affinely to 0..255 with
    round-half-up, so the midpoint lands on 128.  Rows run top-to-bottom
    (largest y first).
    """
    nx, ny, nz = grid.dims
    if nz != 1:
        raise ValidationError("PGM export expects a single-slice grid (nz = 1)")
    if not hi > lo:
        raise ValidationError(f"need hi > lo, got [{lo}, {hi}]")
    img = grid.values_3d()[0].astype(np.float64)  # (ny, nx)
    scaled = (np.clip(img, lo, hi) - lo) / (hi - lo) * 255.0
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    pixels = pixels[::-1]  # top row = max y
    with textio.create(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
