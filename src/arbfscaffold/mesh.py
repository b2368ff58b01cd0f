"""Volumetric mesh containers, file formats, and interpolation center construction.

A mesh is triangles in the plane ("tri2d"), tetrahedra ("tet"), or
hexahedra ("hex", VTK corner order: bottom quad counter-clockwise, then the
top quad).  From a mesh we derive the nodal values that drive the scaffold
field: every mesh vertex carries +1, and the interior centers (edge
midpoints, triangle/face centers, cell centroids) carry -1.  The
anisotropic center set replaces the face/tile and cell centers with line
segments running from each face center to the owning cell center.

Supported file formats:

* OFF         -- triangle surface / planar mesh ("OFF", "<nv> <nf> 0", ...)
* NodeEle     -- TetGen-style <stem>.node / <stem>.ele pair
* HexAscii    -- "HEX <nv> <nc>", vertex rows, 8 zero-based indices per cell
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

# Relative tolerances, both scaled by the mesh bbox diagonal.
CENTER_DEDUP_TOL = 1e-9
DEGENERATE_MEASURE_TOL = 1e-12

MESH_KINDS = ("tri2d", "tet", "hex")
_CELL_ARITY = {"tri2d": 3, "tet": 4, "hex": 8}
_CELL_DIM = {"tri2d": 2, "tet": 3, "hex": 3}

_TRI_EDGES = ((0, 1), (1, 2), (2, 0))
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TET_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
# VTK hexahedron connectivity.
_HEX_EDGES = (
    (0, 1), (1, 2), (3, 2), (0, 3),
    (4, 5), (5, 6), (7, 6), (4, 7),
    (0, 4), (1, 5), (2, 6), (3, 7),
)
_HEX_FACES = (
    (0, 4, 7, 3), (1, 2, 6, 5),
    (0, 1, 5, 4), (3, 7, 6, 2),
    (0, 3, 2, 1), (4, 5, 6, 7),
)

_EDGES = {"tri2d": _TRI_EDGES, "tet": _TET_EDGES, "hex": _HEX_EDGES}
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
    """Vertices (nv, 3) float64 plus integer cells (nc, arity)."""

    kind: str
    vertices: np.ndarray
    cells: np.ndarray

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bbox_diagonal(self) -> float:
        lo, hi = self.bbox()
        return float(np.linalg.norm(hi - lo))


def _tri_areas(verts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    a, b, c = verts[cells[:, 0]], verts[cells[:, 1]], verts[cells[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def _tet_volumes(verts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    a = verts[cells[:, 0]]
    d1 = verts[cells[:, 1]] - a
    d2 = verts[cells[:, 2]] - a
    d3 = verts[cells[:, 3]] - a
    return np.abs(np.einsum("ij,ij->i", d1, np.cross(d2, d3))) / 6.0


def _hex_volumes(verts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    # Divergence theorem over the 6 quads, each split into two triangles.
    total = np.zeros(len(cells))
    for quad in _HEX_FACES:
        for tri in ((quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3])):
            p1 = verts[cells[:, tri[0]]]
            p2 = verts[cells[:, tri[1]]]
            p3 = verts[cells[:, tri[2]]]
            total += np.einsum("ij,ij->i", np.cross(p1, p2), p3)
    return np.abs(total) / 6.0


def cell_measures(mesh: VolumetricMesh) -> np.ndarray:
    """Per-cell area (tri2d) or volume (tet/hex)."""
    if mesh.kind == "tri2d":
        return _tri_areas(mesh.vertices, mesh.cells)
    if mesh.kind == "tet":
        return _tet_volumes(mesh.vertices, mesh.cells)
    return _hex_volumes(mesh.vertices, mesh.cells)


def validate_mesh(mesh: VolumetricMesh) -> None:
    """Raise ValidationError on bad kind, arity, indices, or degenerate cells."""
    if mesh.kind not in MESH_KINDS:
        raise ValidationError(f"unknown mesh kind {mesh.kind!r}")
    verts = np.asarray(mesh.vertices, dtype=np.float64)
    cells = np.asarray(mesh.cells)
    if verts.ndim != 2 or verts.shape[1] != 3 or len(verts) == 0:
        raise ValidationError("vertices must be a non-empty (nv, 3) array")
    if not np.all(np.isfinite(verts)):
        raise ValidationError("vertex coordinates must be finite")
    arity = _CELL_ARITY[mesh.kind]
    if cells.ndim != 2 or cells.shape[1] != arity or len(cells) == 0:
        raise ValidationError(f"{mesh.kind} cells must be a non-empty (nc, {arity}) array")
    if cells.min() < 0 or cells.max() >= len(verts):
        raise ValidationError(
            f"cell index out of range: valid indices are 0..{len(verts) - 1}"
        )
    floor = DEGENERATE_MEASURE_TOL * mesh.bbox_diagonal() ** _CELL_DIM[mesh.kind]
    measures = cell_measures(mesh)
    bad = np.nonzero(measures <= floor)[0]
    if len(bad):
        raise ValidationError(
            f"cell {bad[0]} is degenerate (measure {measures[bad[0]]:.3e})"
        )


def make_mesh(kind: str, vertices, cells) -> VolumetricMesh:
    """Build and validate a mesh from array-likes."""
    mesh = VolumetricMesh(
        kind=kind,
        vertices=np.ascontiguousarray(vertices, dtype=np.float64),
        cells=np.ascontiguousarray(cells, dtype=np.int64),
    )
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# Interpolation centers
# ---------------------------------------------------------------------------

def _corner_means(mesh: VolumetricMesh, groups) -> np.ndarray:
    """(nc, len(groups), 3) means of each cell's listed corners.

    Summing in sorted vertex-index order makes shared centers bit-identical
    across the cells that own them, so the quantized dedup is exact.
    """
    idx = np.sort(mesh.cells[:, np.asarray(groups)], axis=-1)
    return mesh.vertices[idx].mean(axis=-2)


def _dedup_rows(positions: np.ndarray, tol: float) -> np.ndarray:
    """First occurrence of each position, keyed by coordinates quantized at ``tol``."""
    positions = positions.reshape(-1, 3)
    keys = np.round(positions / tol).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    return positions[np.sort(first)]


def compute_centers(mesh: VolumetricMesh):
    """Point-center positions: (vertices, edge centers, tile centers, cell centers).

    Each entry is a (k, 3) array in cell-major order.  Vertices carry +1;
    every derived center carries -1.  Edge and face centers shared between
    adjacent cells appear exactly once (dedup by coordinates quantized at
    1e-9 x bbox diagonal).  For tri2d meshes the tile centers are the
    triangle centers and the cell array is empty; for tet/hex meshes the
    tile centers are the face centers and the cell centers are the cell
    centroids.
    """
    tol = CENTER_DEDUP_TOL * mesh.bbox_diagonal()
    edges = _dedup_rows(_corner_means(mesh, _EDGES[mesh.kind]), tol)
    whole = _dedup_rows(_corner_means(mesh, _WHOLE[mesh.kind]), tol)
    if mesh.kind == "tri2d":
        return mesh.vertices.copy(), edges, whole, np.empty((0, 3))
    faces = _dedup_rows(_corner_means(mesh, _FACES[mesh.kind]), tol)
    return mesh.vertices.copy(), edges, faces, whole


def build_segments(mesh: VolumetricMesh) -> tuple[np.ndarray, np.ndarray]:
    """Anisotropic segment centers (seg_a, seg_b), cell-major, no dedup across cells.

    tri2d: edge center -> triangle center (3 per cell);
    tet:   face center -> cell centroid   (4 per cell);
    hex:   face center -> cell centroid   (6 per cell).
    """
    tol = CENTER_DEDUP_TOL * mesh.bbox_diagonal()
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
    verts, edges, tiles, cells = compute_centers(mesh)
    if mode == "isotropic":
        points = np.concatenate([verts, edges, tiles, cells])
        seg_a = seg_b = np.empty((0, 3))
    else:
        points = np.concatenate([verts, edges])
        seg_a, seg_b = build_segments(mesh)
    values = np.full(len(points), -1.0)
    values[:len(verts)] = 1.0
    return CenterSet(points, values, seg_a, seg_b)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return repr(float(x))


def _data_lines(path: str):
    """Yield (line_number, tokens) for non-empty lines, '#' comments stripped."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text.split()


def _parse_floats(tokens, n, path, lineno):
    if len(tokens) != n:
        raise ParseError(f"expected {n} fields, got {len(tokens)}", path, lineno)
    try:
        return [float(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed number in {tokens!r}", path, lineno) from None


def _parse_ints(tokens, n, path, lineno):
    if len(tokens) != n:
        raise ParseError(f"expected {n} fields, got {len(tokens)}", path, lineno)
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed integer in {tokens!r}", path, lineno) from None


def _cell_row(indices, nv, base, path, lineno):
    """0-based vertex indices of one cell line; each must name one of the nv vertices."""
    for v in indices:
        if not base <= v < base + nv:
            raise ParseError(f"vertex index {v} out of range: valid indices are "
                             f"{base}..{base + nv - 1}", path, lineno)
    return [v - base for v in indices]


def _check_counts(path, lineno, **counts):
    for name, value in counts.items():
        if value < 1:
            raise ParseError(f"{name} count must be positive, got {value}", path, lineno)


def _load_off(path: str) -> VolumetricMesh:
    lines = _data_lines(path)
    try:
        lineno, tokens = next(lines)
    except StopIteration:
        raise ParseError("empty file", path) from None
    if tokens != ["OFF"]:
        raise ParseError("missing OFF header", path, lineno)
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise ParseError("missing count line", path)
    nv, nf, _ = _parse_ints(tokens, 3, path, lineno)
    _check_counts(path, lineno, vertex=nv, face=nf)
    verts = np.empty((nv, 3))
    for i in range(nv):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"expected {nv} vertices, file ended at {i}", path)
        verts[i] = _parse_floats(tokens, 3, path, lineno)
    cells = np.empty((nf, 3), dtype=np.int64)
    for i in range(nf):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"expected {nf} faces, file ended at {i}", path)
        vals = _parse_ints(tokens, 4, path, lineno)
        if vals[0] != 3:
            raise ParseError(f"only triangle faces supported, got arity {vals[0]}", path, lineno)
        cells[i] = _cell_row(vals[1:], nv, 0, path, lineno)
    return make_mesh("tri2d", verts, cells)


def _node_ele_paths(path: str) -> tuple[str, str]:
    stem, ext = os.path.splitext(path)
    if ext in (".node", ".ele"):
        return stem + ".node", stem + ".ele"
    return path + ".node", path + ".ele"


def _load_node_ele(path: str) -> VolumetricMesh:
    node_path, ele_path = _node_ele_paths(path)

    lines = _data_lines(node_path)
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise ParseError("empty file", node_path)
    header = _parse_ints(tokens, 4, node_path, lineno)
    nv, dim = header[0], header[1]
    _check_counts(node_path, lineno, node=nv)
    if dim != 3:
        raise ParseError(f"expected dimension 3, got {dim}", node_path, lineno)
    verts = np.empty((nv, 3))
    first_line = np.zeros(nv, dtype=np.int64)  # line of each node index, 0 = unseen
    base = None
    for i in range(nv):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"expected {nv} nodes, file ended at {i}", node_path)
        vals = _parse_floats(tokens, 4, node_path, lineno)
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
        if first_line[slot]:
            raise ParseError(f"node index {idx} repeats line {first_line[slot]}; each index "
                             f"from {base} to {base + nv - 1} must appear once", node_path, lineno)
        first_line[slot] = lineno
        verts[slot] = vals[1:]

    lines = _data_lines(ele_path)
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise ParseError("empty file", ele_path)
    header = _parse_ints(tokens, 3, ele_path, lineno)
    nc, arity = header[0], header[1]
    _check_counts(ele_path, lineno, cell=nc)
    if arity != 4:
        raise ParseError(f"expected 4 nodes per tet, got {arity}", ele_path, lineno)
    cells = np.empty((nc, 4), dtype=np.int64)
    for i in range(nc):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"expected {nc} cells, file ended at {i}", ele_path)
        vals = _parse_ints(tokens, 5, ele_path, lineno)
        cells[i] = _cell_row(vals[1:], nv, base, ele_path, lineno)
    return make_mesh("tet", verts, cells)


def _load_hex_ascii(path: str) -> VolumetricMesh:
    lines = _data_lines(path)
    lineno, tokens = next(lines, (None, None))
    if tokens is None:
        raise ParseError("empty file", path)
    if len(tokens) != 3 or tokens[0] != "HEX":
        raise ParseError("missing 'HEX <nv> <nc>' header", path, lineno)
    nv, nc = _parse_ints(tokens[1:], 2, path, lineno)
    _check_counts(path, lineno, vertex=nv, cell=nc)
    verts = np.empty((nv, 3))
    for i in range(nv):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"expected {nv} vertices, file ended at {i}", path)
        verts[i] = _parse_floats(tokens, 3, path, lineno)
    cells = np.empty((nc, 8), dtype=np.int64)
    for i in range(nc):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"expected {nc} cells, file ended at {i}", path)
        cells[i] = _cell_row(_parse_ints(tokens, 8, path, lineno), nv, 0, path, lineno)
    return make_mesh("hex", verts, cells)


_FORMAT_LOADERS = {
    "off": _load_off,
    "nodeele": _load_node_ele,
    "hexascii": _load_hex_ascii,
}

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
    """Load a validated mesh; ``fmt`` is off / nodeele / hexascii (inferred by default)."""
    if fmt is None and not os.path.splitext(path)[1] and os.path.exists(path + ".node"):
        fmt = "nodeele"  # bare tetgen stem
    fmt = fmt or infer_format(path)
    if fmt not in _FORMAT_LOADERS:
        raise ValidationError(f"unknown mesh format {fmt!r}")
    return _FORMAT_LOADERS[fmt](path)


def save_mesh(mesh: VolumetricMesh, path: str) -> None:
    """Write a mesh in the format matching its kind (OFF / NodeEle / HexAscii)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if mesh.kind == "tri2d":
        with open(path, "w", encoding="ascii") as fh:
            fh.write("OFF\n")
            fh.write(f"{len(mesh.vertices)} {len(mesh.cells)} 0\n")
            for v in mesh.vertices:
                fh.write(f"{_fmt_float(v[0])} {_fmt_float(v[1])} {_fmt_float(v[2])}\n")
            for c in mesh.cells:
                fh.write(f"3 {c[0]} {c[1]} {c[2]}\n")
    elif mesh.kind == "tet":
        node_path, ele_path = _node_ele_paths(path)
        with open(node_path, "w", encoding="ascii") as fh:
            fh.write(f"{len(mesh.vertices)} 3 0 0\n")
            for i, v in enumerate(mesh.vertices, start=1):
                fh.write(f"{i} {_fmt_float(v[0])} {_fmt_float(v[1])} {_fmt_float(v[2])}\n")
        with open(ele_path, "w", encoding="ascii") as fh:
            fh.write(f"{len(mesh.cells)} 4 0\n")
            for i, c in enumerate(mesh.cells, start=1):
                fh.write(f"{i} {c[0] + 1} {c[1] + 1} {c[2] + 1} {c[3] + 1}\n")
    elif mesh.kind == "hex":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"HEX {len(mesh.vertices)} {len(mesh.cells)}\n")
            for v in mesh.vertices:
                fh.write(f"{_fmt_float(v[0])} {_fmt_float(v[1])} {_fmt_float(v[2])}\n")
            for c in mesh.cells:
                fh.write(" ".join(str(int(i)) for i in c) + "\n")
    else:
        raise ValidationError(f"unknown mesh kind {mesh.kind!r}")
