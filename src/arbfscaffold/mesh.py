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

A path's extension names its file format, for load_mesh and save_mesh alike,
and each format holds one kind; save_mesh refuses a path for another kind:

* .off              -- tri2d: OFF ("OFF", "<nv> <nf> 0", ...)
* .node, .ele, none -- tet: TetGen <stem>.node / <stem>.ele pair; the attribute
                       and boundary-marker columns its headers count are skipped
* .hexmesh          -- hex: "HEX <nv> <nc>", vertex rows, 8 zero-based indices per cell
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import textio
from ._mc_tables import EDGE_CORNERS
from .errors import ParseError, ValidationError, index_array, point_array
from .grid import bbox_diagonal

# Relative tolerances: the shortest segment center, scaled by its CenterSet's bbox
# diagonal, and the smallest cell measure, scaled by the mesh's.
DEGENERATE_SEGMENT_TOL = 1e-9
DEGENERATE_MEASURE_TOL = 1e-12
# Largest vertex coordinate magnitude: squared distances between centers stay in float64.
MAX_COORDINATE = 1e100
# Smallest bbox diagonal.  Hex 2³ in the unit cube fits with every basis in
# both modes down to a diagonal of 3.5e-153 (scaled by 2**-508); at 2**-509
# the tps solve's residual is NaN, and further down centers coincide.  The
# limit keeps a factor of about 30 above that.
MIN_DIAGONAL = 1e-151

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
    ``seg_b[k]``; every segment carries -1, so segments have no value array,
    and has length: ends within DEGENERATE_SEGMENT_TOL x the bbox diagonal are refused.
    """

    points: np.ndarray
    point_values: np.ndarray
    seg_a: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    seg_b: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))

    def __post_init__(self):
        self.points = point_array(self.points, "points")
        self.point_values = np.asarray(self.point_values, dtype=np.float64).reshape(-1)
        self.seg_a = point_array(self.seg_a, "seg_a")
        self.seg_b = point_array(self.seg_b, "seg_b")
        if len(self.point_values) != len(self.points):
            raise ValidationError("one value per point center required")
        if len(self.seg_a) != len(self.seg_b):
            raise ValidationError("seg_a and seg_b must have the same length")
        if len(self) == 0:
            raise ValidationError("center set is empty")
        if not np.all(np.isin(self.point_values, (1.0, -1.0))):
            raise ValidationError(f"point values must be +1 or -1, got {self.point_values}")
        length = np.linalg.norm(self.seg_a - self.seg_b, axis=-1)
        if len(length) and length.min() <= DEGENERATE_SEGMENT_TOL * bbox_diagonal(*self.bbox()):
            raise ValidationError("degenerate cell: face center meets cell center "
                                  f"(segment {length.argmin()})")

    def __len__(self) -> int:
        return len(self.points) + len(self.seg_a)

    @property
    def mode(self) -> str:
        return "anisotropic" if len(self.seg_a) else "isotropic"

    @property
    def values(self) -> np.ndarray:
        """Prescribed field value of every center, points then segments."""
        return np.concatenate([self.point_values, np.full(len(self.seg_a), -1.0)])

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        pos = np.concatenate([self.points, self.seg_a, self.seg_b])
        return pos.min(axis=0), pos.max(axis=0)


@dataclass(eq=False)
class VolumetricMesh:
    """Vertices (nv, 3) float64 plus int64 cells (nc, arity), checked when built.

    Construction converts the array-likes and raises ValidationError on an
    unknown kind, a wrong shape, a non-finite coordinate or one beyond
    MAX_COORDINATE, a bbox diagonal below MIN_DIAGONAL, a non-integer or
    out-of-range index, a cell that repeats another's vertex set, a vertex
    no cell uses or a degenerate cell.
    """

    kind: str
    vertices: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        if self.kind not in MESH_KINDS:
            raise ValidationError(f"unknown mesh kind {self.kind!r}")
        self.vertices = verts = point_array(self.vertices, "vertices")
        cells = index_array(self.cells, f"{self.kind} cells", len(verts), _CELL_ARITY[self.kind])
        if not len(cells):
            raise ValidationError(f"{self.kind} cells must be non-empty")
        self.cells = np.ascontiguousarray(cells, dtype=np.int64)
        lo, hi = self.bbox()
        if max(-lo.min(), hi.max()) > MAX_COORDINATE:
            raise ValidationError(f"vertices must have coordinates of magnitude at most "
                                  f"{MAX_COORDINATE:g}, got {max(-lo.min(), hi.max()):g}")
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
        diagonal = bbox_diagonal(lo, hi)
        if diagonal < MIN_DIAGONAL:
            raise ValidationError(f"mesh bbox diagonal must be at least {MIN_DIAGONAL:g}, "
                                  f"the smallest a fit can use, got {diagonal:g}")
        # measures and floor in units of 2**k, for a diagonal of m * 2**k, so neither underflows
        (m, k), dim = np.frexp(diagonal), _CELL_DIM[self.kind]
        measures = _MEASURES[self.kind](np.ldexp(verts, -k), self.cells)
        bad = np.flatnonzero(measures <= DEGENERATE_MEASURE_TOL * m ** dim)
        if len(bad):
            raise ValidationError(f"cell {bad[0]} is degenerate "
                                  f"(measure {np.ldexp(measures[bad[0]], k * dim):.3e})")

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


def triangle_areas(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Area of each triangle (3 vertex indices a row): of tri2d cells and of iso surfaces.

    np.take gathers with an iso surface's int32 indices about 3x as fast as
    indexing does (1.4 against 4.2 ms for 107k triangles, 2-core x86-64).
    """
    a, b, c = (np.take(verts, tris[:, k], axis=0) for k in range(3))
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


_MEASURES = {"tri2d": triangle_areas, "tet": _tet_volumes, "hex": _hex_volumes}


def cell_measures(mesh: VolumetricMesh) -> np.ndarray:
    """Per-cell area (tri2d) or volume (tet/hex)."""
    return _MEASURES[mesh.kind](mesh.vertices, mesh.cells)


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


def assemble_center_set(mesh: VolumetricMesh, mode: str) -> CenterSet:
    """Full interpolation center set for a mesh, in cell-major order.

    Points: the vertices (+1), the edge centers and, in "isotropic" mode,
    the face/tile and cell centers (-1), each shared center once, named by
    its sorted vertex indices.  A tri2d triangle is its own tile, with no
    cell center.  "anisotropic" mode replaces the face/tile and cell centers
    with segments from each cell's face centers (tri2d: edge centers) to its
    center, not deduplicated: 3 per triangle, 4 per tet, 6 per hex.
    """
    if mode not in ("isotropic", "anisotropic"):
        raise ValidationError(f"unknown mode {mode!r}")
    means = [_distinct_means(mesh, _EDGES[mesh.kind])]
    seg_a = seg_b = np.empty((0, 3))
    if mode == "isotropic":
        if mesh.kind in _FACES:
            means.append(_distinct_means(mesh, _FACES[mesh.kind]))
        means.append(_distinct_means(mesh, _WHOLE[mesh.kind]))
    else:
        outer = _corner_means(mesh, _FACES.get(mesh.kind, _TRI_EDGES))
        inner = np.broadcast_to(_corner_means(mesh, _WHOLE[mesh.kind]), outer.shape)
        seg_a, seg_b = outer.reshape(-1, 3), inner.reshape(-1, 3)
    points = np.concatenate([mesh.vertices, *means])
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
    """The .node and .ele paths of a TetGen path: the stem, or the stem with either one."""
    stem = os.path.splitext(path)[0]
    return stem + ".node", stem + ".ele"


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


# The mesh kind each extension's format holds; a path with no extension is a TetGen stem.
_EXTENSION_KINDS = {".off": "tri2d", ".node": "tet", ".ele": "tet", "": "tet", ".hexmesh": "hex"}


def _path_kind(path: str) -> str:
    """The mesh kind held by the format that ``path``'s extension names."""
    ext = os.path.splitext(path)[1]
    if ext not in _EXTENSION_KINDS:
        raise ValidationError(f"unknown mesh extension {ext!r} in {path!r}: expected "
                              f"{', '.join(filter(None, _EXTENSION_KINDS))}, or none for a "
                              "TetGen stem")
    return _EXTENSION_KINDS[ext]


def load_mesh(path: str) -> VolumetricMesh:
    """Load the mesh at ``path``, in the format its extension names.

    A file whose mesh fails VolumetricMesh's checks raises ParseError naming ``path``.
    """
    load = {"tri2d": _load_off, "tet": _load_node_ele, "hex": _load_hex_ascii}[_path_kind(path)]
    try:
        return load(path)
    except ValidationError as exc:
        raise ParseError(str(exc), path) from exc


def save_mesh(mesh: VolumetricMesh, path: str) -> None:
    """Write ``mesh`` in the format ``path``'s extension names; ValidationError, before any
    file is created, if that format holds another kind of mesh."""
    kind = _path_kind(path)
    if kind != mesh.kind:
        ext = next(e for e, k in _EXTENSION_KINDS.items() if k == mesh.kind)
        raise ValidationError(f"cannot write a {mesh.kind} mesh to {path!r}, a path for "
                              f"{kind} meshes; use a {ext} path")
    nv, nc = len(mesh.vertices), len(mesh.cells)
    if kind == "tri2d":
        with textio.create(path, "w") as fh:
            fh.write(f"OFF\n{nv} {nc} 0\n")
            textio.write_rows(fh, "%r %r %r\n", mesh.vertices)
            textio.write_rows(fh, "3 %d %d %d\n", mesh.cells)
    elif kind == "tet":
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
