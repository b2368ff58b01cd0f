"""Volumetric mesh containers, file formats, and interpolation center construction.

A mesh is triangles in the plane ("tri2d"), tetrahedra ("tet"), or
hexahedra ("hex", VTK corner order: bottom quad counter-clockwise, then the
top quad).  From a mesh we derive the nodal values that drive the scaffold
field: every mesh vertex carries +1, and the interior centers (edge
midpoints, triangle/face centers, cell centroids) carry -1.  The
anisotropic center set replaces the face/tile and cell centers with line
segments running from each face center to the owning cell center.  A
center that cells share is named by its entity's sorted vertex indices.

A mesh is checked when it is built, with no separate factory or validate
step: ``VolumetricMesh(kind, vertices, cells)`` raises ValidationError on a
mesh the library cannot use, which the loaders re-raise as a ParseError.

Supported file formats:

* OFF         -- triangle surface / planar mesh ("OFF", "<nv> <nf> 0", ...)
* NodeEle     -- TetGen <stem>.node / <stem>.ele pair; the attribute and
                 boundary-marker columns its headers count are skipped
* HexAscii    -- "HEX <nv> <nc>", vertex rows, 8 zero-based indices per cell
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import textio
from ._mc_tables import EDGE_CORNERS
from .errors import ParseError, ValidationError

# Relative tolerances, both scaled by the mesh bbox diagonal: the shortest
# face-to-cell segment (build_segments) and the smallest cell measure.
DEGENERATE_SEGMENT_TOL = 1e-9
DEGENERATE_MEASURE_TOL = 1e-12

MESH_KINDS = ("tri2d", "tet", "hex")
_CELL_ARITY = {"tri2d": 3, "tet": 4, "hex": 8}
_CELL_DIM = {"tri2d": 2, "tet": 3, "hex": 3}

_TRI_EDGES = ((0, 1), (1, 2), (2, 0))
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# VTK hexahedron connectivity; its corners and edges are numbered as the
# marching-cubes cube's.
_HEX_FACES = (
    (0, 4, 7, 3), (1, 2, 6, 5),
    (0, 1, 5, 4), (3, 7, 6, 2),
    (0, 3, 2, 1), (4, 5, 6, 7),
)
# The hex surface as 12 triangles, two per face.
_HEX_TRIS = np.array([t for q in _HEX_FACES for t in ((q[0], q[1], q[2]), (q[0], q[2], q[3]))])

_EDGES = {"tri2d": _TRI_EDGES, "tet": _TET_EDGES, "hex": EDGE_CORNERS}
_FACES = {"tet": _TET_FACES, "hex": _HEX_FACES}
_WHOLE = {kind: (tuple(range(n)),) for kind, n in _CELL_ARITY.items()}


@dataclass(eq=False)
class CenterSet:
    """Interpolation centers as arrays: ``p`` points first, then ``s`` segments.

    ``points`` (p, 3) carry ``point_values`` (p,) of +1 or -1.  Segment ``k``
    runs from the face/edge center ``seg_a[k]`` to the cell/tile center
    ``seg_b[k]``; every segment carries -1, so segments have no value array.
    """

    points: np.ndarray
    point_values: np.ndarray
    seg_a: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    seg_b: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.point_values = np.asarray(self.point_values, dtype=np.float64).reshape(-1)
        self.seg_a = np.asarray(self.seg_a, dtype=np.float64).reshape(-1, 3)
        self.seg_b = np.asarray(self.seg_b, dtype=np.float64).reshape(-1, 3)
        if len(self.point_values) != len(self.points):
            raise ValidationError("one value per point center required")
        if len(self.seg_a) != len(self.seg_b):
            raise ValidationError("seg_a and seg_b must have the same length")
        if len(self) == 0:
            raise ValidationError("center set is empty")
        if not np.all(np.isin(self.point_values, (1.0, -1.0))):
            raise ValidationError(f"point values must be +1 or -1, got {self.point_values}")
        if not all(np.isfinite(a).all() for a in (self.points, self.seg_a, self.seg_b)):
            raise ValidationError("center coordinates must be finite")

    def __len__(self) -> int:
        return len(self.points) + len(self.seg_a)

    @property
    def mode(self) -> str:
        return "anisotropic" if len(self.seg_a) else "isotropic"

    @property
    def values(self) -> np.ndarray:
        """Prescribed field value of every center, points then segments."""
        return np.concatenate([self.point_values, np.full(len(self.seg_a), -1.0)])


@dataclass(eq=False)
class VolumetricMesh:
    """Vertices (nv, 3) float64 plus int64 cells (nc, arity), checked when built.

    Construction converts the array-likes and raises ValidationError on an
    unknown kind, a wrong shape, a non-finite coordinate, a non-integer or
    out-of-range index, a cell that repeats another's vertex set, a vertex
    no cell uses or a degenerate cell.
    """

    kind: str
    vertices: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        if self.kind not in MESH_KINDS:
            raise ValidationError(f"unknown mesh kind {self.kind!r}")
        try:
            verts = np.ascontiguousarray(self.vertices, dtype=np.float64)
            cells = np.asarray(self.cells)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"vertices and cells must be numeric arrays: {exc}") from None
        if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) == 0:
            raise ValidationError("vertices must be a non-empty (nv, 3) array")
        if not np.all(np.isfinite(verts)):
            raise ValidationError("vertex coordinates must be finite")
        arity = _CELL_ARITY[self.kind]
        if cells.ndim != 2 or cells.shape[1] != arity or len(cells) == 0:
            raise ValidationError(f"{self.kind} cells must be a non-empty (nc, {arity}) array")
        if cells.dtype.kind not in "iuf":
            raise ValidationError(f"cell indices must be integers, got dtype {cells.dtype}")
        whole = np.isfinite(cells) & (cells == np.floor(cells))
        if not whole.all():
            raise ValidationError(f"cell index {cells[~whole][0]} is not an integer")
        if cells.min() < 0 or cells.max() >= len(verts):
            raise ValidationError(f"cell index out of range: valid indices are 0..{len(verts) - 1}")
        self.vertices = verts
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        # a cell is named by its sorted vertex indices, as _distinct_means names entities
        _, first, inverse = np.unique(np.sort(self.cells, axis=1), axis=0,
                                      return_index=True, return_inverse=True)
        earlier = first[inverse.reshape(-1)]  # the first cell with each cell's vertex set
        i = int(np.argmax(earlier != np.arange(len(earlier))))  # the first repeat, if any
        if earlier[i] != i:
            raise ValidationError(f"cell {i} repeats the vertices of cell {earlier[i]}")
        unused = np.flatnonzero(np.bincount(self.cells.ravel(), minlength=len(verts)) == 0)
        if len(unused):
            raise ValidationError(f"vertex {unused[0]} is used by no cell")
        floor = DEGENERATE_MEASURE_TOL * self.bbox_diagonal() ** _CELL_DIM[self.kind]
        measures = cell_measures(self)
        bad = np.flatnonzero(measures <= floor)
        if len(bad):
            raise ValidationError(f"cell {bad[0]} is degenerate (measure {measures[bad[0]]:.3e})")

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))


def triangle_areas(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Area of each triangle (3 vertex indices a row): of tri2d cells and of iso surfaces."""
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _tet_volumes(verts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    a = verts[cells[:, 0]]
    d1 = verts[cells[:, 1]] - a
    d2 = verts[cells[:, 2]] - a
    d3 = verts[cells[:, 3]] - a
    return np.abs(np.einsum("ij,ij->i", d1, np.cross(d2, d3))) / 6.0


def _hex_volumes(verts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    # Divergence theorem over the 12 surface triangles.  Corners are taken
    # relative to corner 0, so the terms scale with the cell, not with its
    # distance from the origin.
    rel = verts[cells] - verts[cells[:, :1]]
    p1, p2, p3 = np.moveaxis(rel[:, _HEX_TRIS], 2, 0)
    return np.abs(np.einsum("ijk,ijk->i", np.cross(p1, p2), p3)) / 6.0


def cell_measures(mesh: VolumetricMesh) -> np.ndarray:
    """Per-cell area (tri2d) or volume (tet/hex)."""
    if mesh.kind == "tri2d":
        return triangle_areas(mesh.vertices, mesh.cells)
    if mesh.kind == "tet":
        return _tet_volumes(mesh.vertices, mesh.cells)
    return _hex_volumes(mesh.vertices, mesh.cells)


# ---------------------------------------------------------------------------
# Interpolation centers
# ---------------------------------------------------------------------------

def _corner_means(mesh: VolumetricMesh, groups) -> np.ndarray:
    """(nc, len(groups), 3) means of each cell's listed corners, summed in index order."""
    return mesh.vertices[np.sort(mesh.cells[:, np.asarray(groups)], axis=-1)].mean(axis=-2)


def _distinct_means(mesh: VolumetricMesh, groups) -> np.ndarray:
    """Means of the distinct entities among the groups, first occurrences in cell-major order.

    An entity is named by its sorted vertex indices, so the cells that share
    it find it exactly and sum its corners in the same order.
    """
    idx = np.sort(mesh.cells[:, np.asarray(groups)], axis=-1).reshape(-1, len(groups[0]))
    _, first = np.unique(idx, axis=0, return_index=True)
    return mesh.vertices[idx[np.sort(first)]].mean(axis=-2)


def compute_centers(mesh: VolumetricMesh):
    """Point-center positions: (vertices, edge centers, tile centers, cell centers).

    Each entry is a (k, 3) array in cell-major order.  Vertices carry +1;
    every derived center carries -1.  Edge and face centers shared between
    adjacent cells appear exactly once (named by sorted vertex indices, with
    no coordinate quantization).  For tri2d meshes the tile centers are the
    triangle centers and the cell array is empty; for tet/hex meshes the
    tile centers are the face centers and the cell centers are the cell
    centroids.
    """
    edges = _distinct_means(mesh, _EDGES[mesh.kind])
    whole = _distinct_means(mesh, _WHOLE[mesh.kind])
    if mesh.kind == "tri2d":
        return mesh.vertices.copy(), edges, whole, np.empty((0, 3))
    return mesh.vertices.copy(), edges, _distinct_means(mesh, _FACES[mesh.kind]), whole


def build_segments(mesh: VolumetricMesh) -> tuple[np.ndarray, np.ndarray]:
    """Anisotropic segment centers (seg_a, seg_b), cell-major, no dedup across cells.

    tri2d: edge center -> triangle center (3 per cell);
    tet:   face center -> cell centroid   (4 per cell);
    hex:   face center -> cell centroid   (6 per cell).
    """
    tol = DEGENERATE_SEGMENT_TOL * mesh.bbox_diagonal()
    outer = _corner_means(mesh, _FACES.get(mesh.kind, _TRI_EDGES))
    inner = np.broadcast_to(_corner_means(mesh, _WHOLE[mesh.kind]), outer.shape)
    if np.any(np.linalg.norm(outer - inner, axis=-1) <= tol):
        raise ValidationError("degenerate cell: face center meets cell center")
    return outer.reshape(-1, 3), inner.reshape(-1, 3)


def assemble_center_set(mesh: VolumetricMesh, mode: str) -> CenterSet:
    """Full interpolation center set for a mesh.

    ``mode`` is "isotropic" (every nodal value as a point center) or
    "anisotropic" (vertex nodes and edge centers as points, plus the
    face-to-cell segments; face/tile and cell centers appear only inside
    the segments).
    """
    if mode not in ("isotropic", "anisotropic"):
        raise ValidationError(f"unknown mode {mode!r}")
    if mode == "isotropic":
        points = np.concatenate(compute_centers(mesh))
        seg_a = seg_b = np.empty((0, 3))
    else:
        points = np.concatenate([mesh.vertices, _distinct_means(mesh, _EDGES[mesh.kind])])
        seg_a, seg_b = build_segments(mesh)
    values = np.full(len(points), -1.0)
    values[:len(mesh.vertices)] = 1.0
    return CenterSet(points, values, seg_a, seg_b)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _load_off(path: str) -> VolumetricMesh:
    lines = textio.data_lines(path)
    lineno, tokens = textio.next_line(lines, path, "empty file")
    if tokens != ["OFF"]:
        raise ParseError("missing OFF header", path, lineno)
    lineno, tokens = textio.next_line(lines, path, "missing count line")
    nv, nf, _ = textio.ints(tokens, 3, path, lineno)
    textio.check_counts(path, lineno, vertex=nv, face=nf)
    verts = [textio.floats(t, 3, path, ln) for ln, t in textio.rows(lines, nv, path, "vertices")]
    cells = []
    for lineno, tokens in textio.rows(lines, nf, path, "faces"):
        arity, *corners = textio.ints(tokens, 4, path, lineno)
        if arity != 3:
            raise ParseError(f"only triangle faces supported, got arity {arity}", path, lineno)
        cells.append(textio.cell_row(corners, nv, 0, path, lineno))
    return VolumetricMesh("tri2d", verts, cells)


def _node_ele_paths(path: str) -> tuple[str, str]:
    stem, ext = os.path.splitext(path)
    if ext in (".node", ".ele"):
        return stem + ".node", stem + ".ele"
    return path + ".node", path + ".ele"


def _load_node_ele(path: str) -> VolumetricMesh:
    node_path, ele_path = _node_ele_paths(path)

    lines = textio.data_lines(node_path)
    lineno, tokens = textio.next_line(lines, node_path, "empty file")
    nv, dim, n_attr, n_mark = textio.ints(tokens, 4, node_path, lineno)
    textio.check_counts(node_path, lineno, node=nv)
    if dim != 3:
        raise ParseError(f"expected dimension 3, got {dim}", node_path, lineno)
    if n_attr < 0 or n_mark not in (0, 1):
        raise ParseError(f"expected >= 0 attributes and 0 or 1 boundary markers, "
                         f"got {n_attr} and {n_mark}", node_path, lineno)
    nodes = textio.rows(lines, nv, node_path, "nodes")
    verts = np.empty((nv, 3))  # nv lines are in hand, and each fills one row once
    first_line = {}  # line of each node index
    base = None
    for lineno, tokens in nodes:
        vals = textio.floats(tokens, 4 + n_attr + n_mark, node_path, lineno)
        try:
            idx = int(tokens[0])
        except ValueError:
            raise ParseError(f"node index must be an integer, got {tokens[0]!r}",
                             node_path, lineno) from None
        if base is None:
            if idx not in (0, 1):
                raise ParseError(f"first node index must be 0 or 1, got {idx}", node_path, lineno)
            base = idx
        slot = idx - base
        if not 0 <= slot < nv:
            raise ParseError(f"node index {idx} out of range", node_path, lineno)
        if slot in first_line:
            raise ParseError(f"node index {idx} repeats line {first_line[slot]}; each index "
                             f"from {base} to {base + nv - 1} must appear once", node_path, lineno)
        first_line[slot] = lineno
        verts[slot] = vals[1:4]  # attributes and the marker are dropped

    lines = textio.data_lines(ele_path)
    lineno, tokens = textio.next_line(lines, ele_path, "empty file")
    nc, arity, n_attr = textio.ints(tokens, 3, ele_path, lineno)
    textio.check_counts(ele_path, lineno, cell=nc)
    if arity != 4:
        raise ParseError(f"expected 4 nodes per tet, got {arity}", ele_path, lineno)
    if n_attr < 0:
        raise ParseError(f"expected >= 0 attributes, got {n_attr}", ele_path, lineno)
    cells = []
    for ln, t in textio.rows(lines, nc, ele_path, "cells"):
        textio.floats(t, 5 + n_attr, ele_path, ln)  # field count; attributes are dropped
        cells.append(textio.cell_row(textio.ints(t[:5], 5, ele_path, ln)[1:], nv, base,
                                     ele_path, ln))
    return VolumetricMesh("tet", verts, cells)


def _load_hex_ascii(path: str) -> VolumetricMesh:
    lines = textio.data_lines(path)
    lineno, tokens = textio.next_line(lines, path, "empty file")
    if len(tokens) != 3 or tokens[0] != "HEX":
        raise ParseError("missing 'HEX <nv> <nc>' header", path, lineno)
    nv, nc = textio.ints(tokens[1:], 2, path, lineno)
    textio.check_counts(path, lineno, vertex=nv, cell=nc)
    verts = [textio.floats(t, 3, path, ln) for ln, t in textio.rows(lines, nv, path, "vertices")]
    cells = [textio.cell_row(textio.ints(t, 8, path, ln), nv, 0, path, ln)
             for ln, t in textio.rows(lines, nc, path, "cells")]
    return VolumetricMesh("hex", verts, cells)


_FORMAT_LOADERS = {
    "off": _load_off,
    "nodeele": _load_node_ele,
    "hexascii": _load_hex_ascii,
}
MESH_FORMATS = tuple(_FORMAT_LOADERS)

_EXT_FORMATS = {
    ".off": "off",
    ".node": "nodeele",
    ".ele": "nodeele",
    ".hexmesh": "hexascii",
}


def infer_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext not in _EXT_FORMATS:
        raise ValidationError(f"cannot infer mesh format from extension {ext!r}")
    return _EXT_FORMATS[ext]


def load_mesh(path: str, fmt: str | None = None) -> VolumetricMesh:
    """Load a mesh; ``fmt`` is one of MESH_FORMATS (inferred by default).

    A file whose mesh fails VolumetricMesh's checks raises ParseError naming ``path``.
    """
    if fmt is None and not os.path.splitext(path)[1] and os.path.exists(path + ".node"):
        fmt = "nodeele"  # bare tetgen stem
    fmt = fmt or infer_format(path)
    if fmt not in MESH_FORMATS:
        raise ValidationError(f"unknown mesh format {fmt!r}, expected one of {MESH_FORMATS}")
    try:
        return _FORMAT_LOADERS[fmt](path)
    except ValidationError as exc:
        raise ParseError(str(exc), path) from exc


def save_mesh(mesh: VolumetricMesh, path: str) -> None:
    """Write a mesh in the format matching its kind (OFF / NodeEle / HexAscii)."""
    nv, nc = len(mesh.vertices), len(mesh.cells)
    if mesh.kind == "tri2d":
        with textio.create(path, "w") as fh:
            fh.write(f"OFF\n{nv} {nc} 0\n")
            textio.write_rows(fh, "%r %r %r\n", mesh.vertices)
            textio.write_rows(fh, "3 %d %d %d\n", mesh.cells)
    elif mesh.kind == "tet":
        node_path, ele_path = _node_ele_paths(path)
        with textio.create(node_path, "w") as fh:
            fh.write(f"{nv} 3 0 0\n")
            textio.write_rows(fh, "%d %r %r %r\n",
                              np.column_stack([np.arange(1, nv + 1), mesh.vertices]))
        with textio.create(ele_path, "w") as fh:
            fh.write(f"{nc} 4 0\n")
            textio.write_rows(fh, "%d %d %d %d %d\n",
                              np.column_stack([np.arange(1, nc + 1), mesh.cells + 1]))
    else:
        with textio.create(path, "w") as fh:
            fh.write(f"HEX {nv} {nc}\n")
            textio.write_rows(fh, "%r %r %r\n", mesh.vertices)
            textio.write_rows(fh, " ".join(["%d"] * 8) + "\n", mesh.cells)
