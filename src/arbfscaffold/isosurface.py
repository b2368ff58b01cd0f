"""Iso-surface and iso-contour extraction plus OBJ/PGM export.

One rule places every iso vertex, in both extractors: a vertex lies on a
crossed grid edge, is named by it, and is computed from the edge's low
sample, p = p_lo + t * (p_hi - p_lo) with t = (iso - v_lo) / (v_hi - v_lo).
So it depends on its edge alone, and on the axes across the edge it is p_lo
exactly: those coordinates are copied from the grid axes, and only the one
along the edge is computed.  marching_squares places each segment end of
its 16-case table by this rule, so the segments of two cells that share an
edge end at the same point, bit for bit.

marching_cubes classifies every grid sample against the iso value (solid
when value >= iso) as float64 would, by comparing the float32 samples with
the least float32 >= iso, and emits triangles from the classic
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
repeat a vertex dropped (only a triangle with a snapped corner is tested),
and the vertices no triangle uses removed, with one renumbering table over
the crossed edges that the corners are gathered through once.
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
removed.  Each number fills a slot of words, and a line is its tag and
three slots.  A marching_cubes soup carries its grid's axes, and a vertex
lies on the two axes across its edge, so most of its coordinates repeat a
few hundred axis values.  Then a chunk formats the three axes whole, and
every coordinate that equals no axis value bit for bit once, into a table
of slots, and gathers each 'v' line's slots from it.  The text of a value
depends only on the value, so the bytes do not depend on the axes.
A face index is its digit groups without leading zeros, and each vertex
index is formatted once per file: the slots of 1..nv form a table in which
every face chunk gathers its corners' slots.  %.9g
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
from .errors import ValidationError, index_array, point_array, real
from .grid import VoxelGrid, _iso_threshold
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

    marching_cubes alone sets the private ``_axes``, to the sampled grid's
    ``axes()``, so that export_obj formats each axis value once instead of
    once per vertex; the file's bytes depend on the vertices alone.
    """

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=_index_dtype(0)))
    _axes: tuple | None = None


@dataclass(eq=False)
class ContourSet:
    """Planar contours: list of (k, 3) polylines at the z of their slice."""

    polylines: list = field(default_factory=list)

    def total_length(self) -> float:
        return float(sum(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()
                         for p in self.polylines))


def surface_area(soup: TriangleSoup) -> float:
    vertices = point_array(soup.vertices, "vertices")
    tris = index_array(soup.triangles, "triangles", len(vertices), 3)
    return float(triangle_areas(vertices, tris).sum())


def euler_characteristic(soup: TriangleSoup) -> int:
    """V - E + F over the welded mesh (E = distinct undirected edges)."""
    nv = len(soup.vertices)
    tris = index_array(soup.triangles, "triangles", nv, 3)
    a, b = tris, np.roll(tris, -1, axis=1)   # edges (0,1), (1,2), (2,0)
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
    """(t, vertex) of each crossed grid edge from flat sample ``lo`` along ``axis``.

    The vertex's coordinates across the edge are the low sample's axis
    values, and along it a_lo + t * (a_hi - a_lo).  That is p_lo + t * (p_hi
    - p_lo) bit for bit: across the edge it adds t * 0, a zero, to an axis
    value, which keeps any finite value except -0.0, and axes() never yields
    -0.0 (origin + 0 * spacing is +0.0 even for the origin -0.0).
    """
    nx, ny, _ = grid.dims
    hi = lo + np.array([1, nx, nx * ny])[axis]
    # The float32 samples widen exactly, so t is computed in float64.
    v_lo = grid.values[lo].astype(np.float64)
    t = (iso - v_lo) / (grid.values[hi] - v_lo)  # crossed: v_lo != v_hi
    # (i, j, k) of each low sample, as indices into the axes laid end to end,
    # and the flat place of each row's entry along its edge.
    jk, i = np.divmod(lo, nx)
    k, j = np.divmod(jk, ny)
    at = np.stack([i, j + nx, k + (nx + ny)], axis=1)
    axes = np.concatenate(grid.axes())
    points = axes[at]
    along = 3 * np.arange(len(lo)) + axis
    a_lo = np.take(points, along)
    np.put(points, along, a_lo + t * (axes[np.take(at, along) + 1] - a_lo))
    return t, points


def marching_cubes(grid: VoxelGrid, iso: float) -> TriangleSoup:
    nx, ny, nz = grid.dims
    if nx < 2 or ny < 2 or nz < 2:
        raise ValidationError("marching cubes needs at least 2 samples per axis")
    iso = real(iso, "iso")
    vol = grid.values_3d()
    # v < iso exactly when v < c, the least float32 >= iso, as solid_fraction
    # compares the float32 samples.
    below = (vol < _iso_threshold(vol, iso)).view(np.uint8)

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
        return TriangleSoup(_axes=grid.axes())
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
    # Not _ragged, which took 4.8 ms for 60,000 cells against 3.3 ms (2-core x86-64).
    corner = np.repeat(_TRI_START[cases] - (np.cumsum(counts) - counts), counts)
    corner += np.arange(len(corner))
    corner = (3 * (_EDGE_LOW @ stride) + _EDGE_AXIS)[_TRI_EDGES][corner]
    corner += np.repeat(3 * base, counts)
    corner_src = rank[corner]
    del rank, corner

    lo, axis = np.divmod(edges, 3)
    t, points = _edge_vertices(grid, lo, axis, iso)
    snapped = np.minimum(t, 1 - t) <= SNAP_T
    if not snapped.any():
        return TriangleSoup(vertices=points, triangles=corner_src.reshape(-1, 3),
                            _axes=grid.axes())

    # A snapped vertex is its nearer sample q.  Ids 4 * q + axis (edges) and
    # 4 * q + 3 (sample q) keep the vertices in grid-edge order, so a
    # sample's rank is the number of unsnapped edge ids below its id plus the
    # samples before it, and the unsnapped edges take the ranks left over.
    # vertex_of maps each crossed edge to its vertex's rank, and source each
    # rank to an edge whose point is that vertex.
    kept, snap = np.flatnonzero(~snapped), np.flatnonzero(snapped)
    sample = lo[snap] + np.where(t[snap] > 0.5, stride[axis[snap]], 0)
    points[snap] = grid.positions(sample)
    sample, first, sample_of = np.unique(sample, return_index=True, return_inverse=True)
    at = np.searchsorted(edges[kept] + lo[kept], 4 * sample + 3)   # 4 * lo + axis
    at += np.arange(len(sample))
    is_sample = np.zeros(len(kept) + len(sample), dtype=bool)
    is_sample[at] = True
    rest = np.flatnonzero(~is_sample)
    vertex_of = np.empty(len(edges), dtype=corner_src.dtype)
    vertex_of[kept], vertex_of[snap] = rest, at[sample_of]
    source = np.empty(len(is_sample), dtype=np.intp)
    source[rest], source[at] = kept, snap[first]

    # Only a triangle with a snapped corner can repeat a vertex, and only a
    # vertex of a dropped triangle can lose its last triangle: the corners
    # that name one outside the dropped triangles keep it.  np.take gathers
    # with the int32 ranks about twice as fast as indexing does (0.45 against
    # 1.0 ms for 325k corners, 2-core x86-64).
    touched = np.flatnonzero(np.take(snapped, corner_src)) // 3   # sorted
    touched = touched[np.append(True, touched[1:] != touched[:-1])]
    v = np.take(vertex_of, corner_src.reshape(-1, 3)[touched])
    repeats = (v[:, 0] == v[:, 1]) | (v[:, 1] == v[:, 2]) | (v[:, 2] == v[:, 0])
    dropped = touched[repeats]
    if len(dropped):
        lost = np.zeros(len(source), dtype=bool)
        lost[v[repeats]] = True
        keep = np.ones(len(corner_src), dtype=bool)
        keep.reshape(-1, 3)[dropped] = False
        corner_src = corner_src[keep]
        named = np.flatnonzero(np.take(np.take(lost, vertex_of), corner_src))
        lost[np.take(vertex_of, corner_src[named])] = False
        source = source[~lost]
        # The renumbering stays in the ranks' dtype.
        vertex_of = np.take((np.cumsum(~lost) - 1).astype(vertex_of.dtype), vertex_of)
    return TriangleSoup(vertices=np.take(points, source, axis=0),
                        triangles=np.take(vertex_of, corner_src).reshape(-1, 3),
                        _axes=grid.axes())


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
    iso = real(iso, "iso")

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

# Rows per chunk.  A chunk's line words take at most 3 MiB (8 uint32 per
# value), and its slot table at most as much again plus 32 bytes per axis
# value: a chunk formats at most one value per coordinate and its soup's
# axes, each in a slot of at most 8 words.  The face chunks share one table
# of the indices 1..nv, a slot of 1 + (digits + 2) // 3 words per vertex:
# 12 bytes below 10**6 vertices.
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


def _slot_words(shape: tuple, slot_words: int) -> np.ndarray:
    """Zeroed (*shape, slot_words) words whose slots start with ' '."""
    words = np.zeros((*shape, slot_words), dtype="<u4")
    words[..., 0] = _SPACE
    return words


def _line_bytes(words: np.ndarray, tag: str) -> bytes:
    """The (rows, 3) slots of ``words`` as ``tag`` lines, with every NUL removed."""
    words[:, 0, 0] |= ord(tag)
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


def _index_slots(v: np.ndarray) -> np.ndarray:
    """Words (*v.shape, slot_words) of integers ``v`` >= 0, each slot ' ' and '%d' of its value."""
    words = _slot_words(v.shape, 1 + _groups(v))
    _put_digits(words[..., 1:], v)
    return words


def _format_slots(x: np.ndarray) -> np.ndarray:
    """Words (*x.shape, slot_words) of float64 values, each slot ' ' and '%.9g' of its value.

    A slot holds [' ', sign], the integer part, '.' and 12 fraction digits,
    or the '%.9g' text of a value outside the fixed-notation fast path.  The
    integer part takes as many groups as the largest among ``x`` needs; more
    would add only NUL bytes.
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
    words = _slot_words(x.shape, 1 + n_whole + 4)
    words[..., 0] |= np.signbit(x) * np.uint32(_MINUS)
    _put_digits(words[..., 1: 1 + n_whole], whole)
    # Fraction groups from the least significant up: trailing zeros stay
    # only in front of a later nonzero digit, and so does the point.
    later = np.zeros(x.shape, dtype=bool)
    for j in range(-1, -5, -1):
        q = frac // 1000
        group = frac - 1000 * q
        words[..., j] = _GROUP_WORDS[group + np.where(later, _FULL, _TRAIL)]
        later |= group != 0
        frac = q
    words[..., n_whole] |= later * np.uint32(_DOT)

    slow = np.nonzero(~fast)
    if len(slow[0]):
        width = 4 * words.shape[-1] - 3   # from the sign byte up to the newline byte
        text = np.array([b"%.9g" % v for v in x[slow].tolist()], dtype=f"S{width}")
        words.view(np.uint8)[(*slow, slice(2, 2 + width))] = text.view(np.uint8).reshape(-1, width)
    return words


def _axis_slots(x: np.ndarray, axes: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(values, slot): the values to format for (rows, 3) coordinates, and each one's slot.

    Every axis is formatted whole, then the coordinates of its column that
    are not on it.  A coordinate whose bits equal the entry of its column's
    axis at its rounded, clamped uniform index takes that entry's slot (so
    -0.0 never takes the slot of 0.0); a NaN or infinite index is clamped
    into the axis too, so bit equality alone decides, whatever the axes.
    """
    slot = np.empty(x.shape, dtype=np.intp)
    values, n = [], 0
    for c, axis in enumerate(axes):
        col = x[:, c]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            i = col - axis[0]
            i /= axis[1] - axis[0]
            np.rint(i, out=i)
        np.fmax(i, 0, out=i)
        np.fmin(i, len(axis) - 1, out=i)
        i = i.astype(np.intp)
        off = np.flatnonzero(axis.view(np.int64)[i] != col.view(np.int64))
        slot[:, c] = i + n
        n += len(axis)
        slot[off, c] = np.arange(n, n + len(off))
        n += len(off)
        values += [axis, col[off]]
    return np.concatenate(values), slot


def _gathered_lines(table: np.ndarray, slot: np.ndarray, tag: str) -> bytes:
    """``tag`` lines of the (rows, 3) slots ``slot`` of a table of slot words."""
    slot_words = table.shape[-1]
    # One void item per slot, so the gather copies whole slots.
    table = table.view(np.dtype((np.void, 4 * slot_words)))[:, 0]
    return _line_bytes(np.take(table, slot).view("<u4").reshape(*slot.shape, slot_words), tag)


def _vertex_lines(x: np.ndarray, axes: tuple | None = None) -> bytes:
    """'v x y z' lines of (rows, 3) float64 coordinates, each as '%.9g' formats it.

    With a marching_cubes soup's axes, the axes and the off-axis coordinates
    are formatted once into a slot table, and the lines gather their slots
    from it.  The text of a value depends on the value alone, so the bytes
    do not depend on the axes.
    """
    if axes is None:
        return _line_bytes(_format_slots(x), "v")
    values, slot = _axis_slots(x, axes)
    return _gathered_lines(_format_slots(values), slot, "v")


def export_obj(soup: TriangleSoup, path: str) -> None:
    """ASCII OBJ: 'v x y z' lines (%.9g) then 1-based 'f a b c' lines.

    Finite (nv, 3) vertices and (nt, 3) triangle indices in 0..nv - 1,
    integers or integral floats, are checked before the file is created.
    The axes a marching_cubes soup carries only save formatting work: the
    bytes are those of the same vertices without them.  The indices 1..nv
    are formatted once, into a table of slots in which every face chunk
    gathers its corners.
    """
    vertices = point_array(soup.vertices, "vertices")
    triangles = index_array(soup.triangles, "triangles", len(vertices), 3)
    with textio.create(path, "wb") as fh:
        for start in range(0, len(vertices), OBJ_CHUNK_ROWS):
            fh.write(_vertex_lines(vertices[start: start + OBJ_CHUNK_ROWS], soup._axes))
        if len(triangles):
            # _index_dtype(nv) holds the 1-based index nv too
            table = _index_slots(np.arange(1, len(vertices) + 1, dtype=_index_dtype(len(vertices))))
            for start in range(0, len(triangles), OBJ_CHUNK_ROWS):
                fh.write(_gathered_lines(table, triangles[start: start + OBJ_CHUNK_ROWS], "f"))


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
    if grid.values.size != nx * ny or not np.isfinite(grid.values).all():
        raise ValidationError(f"a PGM image needs {nx * ny} finite samples")
    lo, hi = real(lo, "lo"), real(hi, "hi")
    if not hi > lo:
        raise ValidationError(f"need hi > lo, got [{lo}, {hi}]")
    img = grid.values_3d()[0].astype(np.float64)  # (ny, nx)
    scaled = (np.clip(img, lo, hi) - lo) / (hi - lo) * 255.0
    pixels = np.floor(scaled + 0.5).astype(np.uint8)
    pixels = pixels[::-1]  # top row = max y
    with textio.create(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
