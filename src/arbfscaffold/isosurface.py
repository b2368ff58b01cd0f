"""Iso-surface and iso-contour extraction plus OBJ/PGM export.

marching_cubes classifies every grid sample against the iso value (solid
when value >= iso), finds the crossed grid edges with array masks and places
one vertex on each by linear interpolation t = (iso - v0) / (v1 - v0).
Triangles come from the classic 256-case tables, cells in order of their
case, and each triangle corner is looked up as a grid edge.  Vertices at
t = 0 or 1 coincide across edges, so the edge vertices are still welded by
quantized position (1e-9 x grid bbox diagonal): the output is an indexed
mesh suitable for Euler characteristic checks, with no vertex that only
dropped degenerate triangles used.  A vertex keeps the bits of its first
emitted cell edge, as in a per-cell extraction.

marching_squares does the same per cell in 2-D with a 16-case table.
export_obj formats whole chunks of rows with one %-format each.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, EDGE_TABLE, TRI_TABLE
from .errors import ValidationError
from .grid import VoxelGrid

WELD_TOL = 1e-9
DEGENERATE_AREA = 1e-14


@dataclass(eq=False)
class TriangleSoup:
    """Welded triangle mesh: (nv, 3) float64 vertices, (nt, 3) int64 triangles."""

    vertices: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    triangles: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))


@dataclass(eq=False)
class ContourSet:
    """Planar contours: list of (k, 3) polylines with z = 0 plane coordinates."""

    polylines: list = field(default_factory=list)

    def total_length(self) -> float:
        return float(sum(np.linalg.norm(np.diff(p, axis=0), axis=1).sum()
                         for p in self.polylines))


def triangle_areas(soup: TriangleSoup) -> np.ndarray:
    a = soup.vertices[soup.triangles[:, 0]]
    b = soup.vertices[soup.triangles[:, 1]]
    c = soup.vertices[soup.triangles[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def surface_area(soup: TriangleSoup) -> float:
    return float(triangle_areas(soup).sum()) if len(soup.triangles) else 0.0


def euler_characteristic(soup: TriangleSoup) -> int:
    """V - E + F over the welded mesh (E = distinct undirected edges)."""
    if len(soup.triangles) == 0:
        return 0
    tris = soup.triangles
    a, b = tris, np.roll(tris, -1, axis=1)   # edges (0,1), (1,2), (2,0)
    nv = int(tris.max()) + 1
    n_edges = len(np.unique(np.minimum(a, b) * nv + np.maximum(a, b)))
    n_verts = len(np.unique(tris))
    return int(n_verts - n_edges + len(tris))


# Cell edge e runs from corner _EDGE_C0[e] to corner _EDGE_C1[e] along axis
# _EDGE_AXIS[e]; _EDGE_LOW[e] is the offset of its lower grid point.
_OFFSETS = np.asarray(CORNER_OFFSETS, dtype=np.int64)
_EDGE_C0, _EDGE_C1 = np.asarray(EDGE_CORNERS, dtype=np.int64).T
_EDGE_AXIS = np.argmax(_OFFSETS[_EDGE_C0] != _OFFSETS[_EDGE_C1], axis=1)
_EDGE_LOW = np.minimum(_OFFSETS[_EDGE_C0], _OFFSETS[_EDGE_C1])
# EDGE_TABLE as an array; TRI_TABLE as one (256, 15) array, rows padded with
# 0, and the row lengths.
_EDGE_BITS = np.asarray(EDGE_TABLE, dtype=np.int64)
_TRI_LEN = np.array([len(t) for t in TRI_TABLE], dtype=np.int64)
_TRI_PAD = np.zeros((256, 15), dtype=np.int64)
for _case, _tri in enumerate(TRI_TABLE):
    _TRI_PAD[_case, :len(_tri)] = _tri


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, slot) of each item when owner g has counts[g] items, in order."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def _edge_points(grid: VoxelGrid, vol: np.ndarray, iso: float,
                 ijk: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Vertex on cell edge ``edge[n]`` of the cell with corner ``ijk[n]``.

    Corners are (origin + ijk * spacing) + offset * spacing and the vertex is
    p0 + t * (p1 - p0) with t = (iso - v0) / (v1 - v0).  One grid edge seen
    from two cells can differ in the last bits: the base corner differs, and
    neighbouring cells run x and y edges the other way.
    """
    nx, ny, _ = grid.dims
    c0, c1 = _EDGE_C0[edge], _EDGE_C1[edge]
    corner_pos = _OFFSETS * grid.spacing
    corner_idx = _OFFSETS @ (1, nx, nx * ny)
    base = grid.origin + ijk * grid.spacing
    p0, p1 = base + corner_pos[c0], base + corner_pos[c1]
    flat, samples = ijk @ (1, nx, nx * ny), vol.ravel()
    v0, v1 = samples[flat + corner_idx[c0]], samples[flat + corner_idx[c1]]
    t = (iso - v0) / (v1 - v0)  # crossed edges have v0 != v1
    return p0 + t[:, None] * (p1 - p0)


def _weld(points: np.ndarray, first: np.ndarray, corners: np.ndarray,
          tol: float) -> TriangleSoup:
    """Weld vertex candidates by quantized position and index the corners.

    ``points[s]`` was first emitted as corner ``first[s]``; ``corners`` holds
    the candidate of each triangle corner.  Candidates whose keys round(p / tol)
    match become one vertex, placed at the earliest emitted one; vertices come
    in key order.  Triangles with a repeated or near-zero-area corner are
    dropped, and so are the vertices no remaining triangle uses.
    """
    keys = np.round(points / tol).astype(np.int64)
    order = np.lexsort((first, keys[:, 2], keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any(sorted_keys[1:] != sorted_keys[:-1], axis=1)
    vertex_of = np.empty(len(order), dtype=np.int64)
    vertex_of[order] = np.cumsum(new) - 1
    triangles = vertex_of[corners].reshape(-1, 3)
    ok = (
        (triangles[:, 0] != triangles[:, 1])
        & (triangles[:, 1] != triangles[:, 2])
        & (triangles[:, 2] != triangles[:, 0])
    )
    soup = TriangleSoup(vertices=points[order[new]], triangles=triangles[ok])
    areas = triangle_areas(soup)
    soup.triangles = soup.triangles[areas > DEGENERATE_AREA]
    used = np.zeros(len(soup.vertices), dtype=bool)
    used[soup.triangles] = True
    if not used.all():
        soup.vertices = soup.vertices[used]
        soup.triangles = (np.cumsum(used) - 1)[soup.triangles]
    return soup


def _keys_may_split(points: np.ndarray, tol: float, scale: float) -> np.ndarray:
    """Rows whose weld key could round differently from another cell.

    Two computations of one grid edge vertex differ by a few ulps of the
    coordinate scale; 64 eps * scale / tol bounds that in key units, so a
    coordinate farther than this from a half-integer key rounds the same way.
    """
    q = points / tol
    margin = 64.0 * np.finfo(np.float64).eps * scale / tol
    return np.any(0.5 - np.abs(q - np.round(q)) <= margin, axis=1)


def marching_cubes(grid: VoxelGrid, iso: float) -> TriangleSoup:
    nx, ny, nz = grid.dims
    if nx < 2 or ny < 2 or nz < 2:
        raise ValidationError("marching cubes needs at least 2 samples per axis")
    vol = grid.values_3d().astype(np.float64)
    below = vol < iso

    # Case of each cell, shape (nz-1, ny-1, nx-1): bit n set when corner n is below.
    case = np.zeros((nz - 1, ny - 1, nx - 1), dtype=np.uint8)
    for n, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
        case |= below[dz: dz + nz - 1, dy: dy + ny - 1, dx: dx + nx - 1].view(np.uint8) << n
    cells = np.flatnonzero((case != 0) & (case != 255))
    if len(cells) == 0:
        return TriangleSoup()
    cases = case.ravel()[cells]
    ijk = np.stack([cells % (nx - 1), cells // (nx - 1) % (ny - 1),
                    cells // ((nx - 1) * (ny - 1))], axis=1)

    # Crossed grid edges, numbered x-, y- then z-directed, each in C order.
    crossed = (below[:, :, :-1] != below[:, :, 1:],
               below[:, :-1, :] != below[:, 1:, :],
               below[:-1, :, :] != below[1:, :, :])
    starts = np.cumsum([0] + [c.size for c in crossed])
    edge_ids = np.concatenate([s + np.flatnonzero(c) for s, c in zip(starts, crossed)])
    strides = np.array([[c.shape[1] * c.shape[2], c.shape[2], 1] for c in crossed])
    cell_ids = starts[:3] + ijk[:, ::-1] @ strides.T          # (cells, axis)
    edge_offset = np.einsum("ea,ea->e", _EDGE_LOW[:, ::-1], strides[_EDGE_AXIS])

    # Index into edge_ids of each crossed cell edge.  Cells are still in C
    # order here, so per cell edge the ids rise and the search stays local.
    cell_src = np.zeros((len(cells), 12), dtype=np.int64)
    crossed_bits = _EDGE_BITS[cases]
    for e in range(12):
        rows = np.flatnonzero(crossed_bits & (1 << e))
        cell_src[rows, e] = np.searchsorted(
            edge_ids, cell_ids[rows, _EDGE_AXIS[e]] + edge_offset[e])

    order = np.argsort(cases, kind="stable")
    cases, ijk, cell_src = cases[order], ijk[order], cell_src[order]

    # Triangle corners in emission order: cells by case, then TRI_TABLE order.
    corner_cell, slot = _ragged(_TRI_LEN[cases])
    corner_edge = _TRI_PAD[cases[corner_cell], slot]
    corner_src = cell_src[corner_cell, corner_edge]

    # One vertex per crossed grid edge, computed from its first emitted corner.
    n_corners = len(corner_src)
    first = np.full(len(edge_ids), n_corners)
    np.minimum.at(first, corner_src, np.arange(n_corners))
    points = _edge_points(grid, vol, iso, ijk[corner_cell[first]], corner_edge[first])

    lo, hi = grid.bbox()
    tol = WELD_TOL * float(np.linalg.norm(hi - lo))
    scale = float(np.abs(np.concatenate([lo, hi])).max() + grid.spacing.max())
    split = _keys_may_split(points, tol, scale)
    if split.any():
        # Rare: a key near a rounding boundary.  Weld each triangle corner as
        # its own candidate if any of its cells rounds it to another key.
        check = np.flatnonzero(split[corner_src])
        alt = _edge_points(grid, vol, iso, ijk[corner_cell[check]], corner_edge[check])
        if not np.array_equal(np.round(alt / tol), np.round(points[corner_src[check]] / tol)):
            points = _edge_points(grid, vol, iso, ijk[corner_cell], corner_edge)
            first = corner_src = np.arange(n_corners)
    return _weld(points, first, corner_src, tol)


# 16-case marching squares: corner bit n set when corner n is >= iso,
# corners 0:(i,j) 1:(i+1,j) 2:(i+1,j+1) 3:(i,j+1); edge e joins
# 0:(c0,c1) 1:(c1,c2) 2:(c2,c3) 3:(c3,c0).  Cases 5 and 10 are ambiguous
# and resolved by the cell-center average.
_MS_SEGMENTS = {
    0: [], 15: [],
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(0, 3)],
}
_MS_CASE5_JOINED = [(0, 1), (2, 3)]      # center solid: corners 0 and 2 connect
_MS_CASE5_SPLIT = [(3, 0), (1, 2)]
_MS_CASE10_JOINED = [(3, 0), (1, 2)]     # center solid: corners 1 and 3 connect
_MS_CASE10_SPLIT = [(0, 1), (2, 3)]
_MS_EDGE_CORNERS = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
_MS_CORNER_OFFSETS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
# _MS_SEGS[case, center_solid] lists a cell's segments as edge pairs (padded
# with 0 past _MS_NSEG); only cases 5 and 10 depend on the center.
_MS_AMBIGUOUS = {5: (_MS_CASE5_SPLIT, _MS_CASE5_JOINED),
                 10: (_MS_CASE10_SPLIT, _MS_CASE10_JOINED)}
_MS_NSEG = np.zeros((16, 2), dtype=np.int64)
_MS_SEGS = np.zeros((16, 2, 2, 2), dtype=np.int64)
for _case in range(16):
    for _solid, _segs in enumerate(_MS_AMBIGUOUS.get(_case) or (_MS_SEGMENTS[_case],) * 2):
        _MS_NSEG[_case, _solid] = len(_segs)
        _MS_SEGS[_case, _solid, :len(_segs)] = np.reshape(_segs, (-1, 2))


def marching_squares(grid: VoxelGrid, iso: float) -> ContourSet:
    """One two-point polyline per segment, cells j-major then i."""
    nx, ny, nz = grid.dims
    if nz != 1:
        raise ValidationError("marching squares expects a single-slice grid (nz = 1)")
    if nx < 2 or ny < 2:
        raise ValidationError("marching squares needs at least 2 samples per axis")
    vals = grid.values_3d()[0].astype(np.float64)  # (ny, nx) -> [j, i]
    ox, oy, z = grid.origin
    dx, dy = grid.spacing[0], grid.spacing[1]

    solid = vals >= iso
    case = np.zeros((ny - 1, nx - 1), dtype=np.uint8)
    for n, (di, dj) in enumerate(_MS_CORNER_OFFSETS):
        case |= solid[dj: dj + ny - 1, di: di + nx - 1].view(np.uint8) << n
    cells = np.flatnonzero((case != 0) & (case != 15))
    case = case.ravel()[cells]
    i, j = cells % (nx - 1), cells // (nx - 1)
    ci = i[:, None] + _MS_CORNER_OFFSETS[:, 0]     # (cells, 4) corner columns
    cj = j[:, None] + _MS_CORNER_OFFSETS[:, 1]
    cv = vals[cj, ci]
    center = 0.25 * (cv[:, 0] + cv[:, 1] + cv[:, 2] + cv[:, 3])
    center_solid = (center >= iso).astype(np.int64)

    seg_cell, slot = _ragged(_MS_NSEG[case, center_solid])
    edges = _MS_SEGS[case[seg_cell], center_solid[seg_cell], slot]   # (segments, 2)
    c0, c1 = _MS_EDGE_CORNERS[edges, 0], _MS_EDGE_CORNERS[edges, 1]
    rows = seg_cell[:, None]
    v0, v1 = cv[rows, c0], cv[rows, c1]
    t = (iso - v0) / (v1 - v0)
    x0, x1 = ox + ci[rows, c0] * dx, ox + ci[rows, c1] * dx
    y0, y1 = oy + cj[rows, c0] * dy, oy + cj[rows, c1] * dy
    pts = np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0),
                    np.full(t.shape, z)], axis=-1)   # (segments, 2, 3)
    return ContourSet(polylines=list(pts))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

OBJ_CHUNK_ROWS = 2 ** 16


def _write_rows(fh, row_format: str, rows: np.ndarray) -> None:
    """Write ``row_format % row`` per row, formatting a bounded chunk at a time."""
    for start in range(0, len(rows), OBJ_CHUNK_ROWS):
        chunk = rows[start: start + OBJ_CHUNK_ROWS]
        fh.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def export_obj(soup: TriangleSoup, path: str) -> None:
    """ASCII OBJ: 'v x y z' lines (%.9g) then 1-based 'f a b c' lines."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        _write_rows(fh, "v %.9g %.9g %.9g\n", soup.vertices)
        _write_rows(fh, "f %d %d %d\n", soup.triangles + 1)


def load_obj(path: str) -> TriangleSoup:
    verts = []
    tris = []
    with open(path, "r", encoding="ascii") as fh:
        for raw in fh:
            tokens = raw.split()
            if not tokens or tokens[0] not in ("v", "f"):
                continue
            if tokens[0] == "v":
                verts.append([float(t) for t in tokens[1:4]])
            else:
                tris.append([int(t.split("/")[0]) - 1 for t in tokens[1:4]])
    return TriangleSoup(
        vertices=np.asarray(verts, dtype=np.float64).reshape(-1, 3),
        triangles=np.asarray(tris, dtype=np.int64).reshape(-1, 3),
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
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
