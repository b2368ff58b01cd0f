"""Mesh construction, center extraction, and the three file formats."""

import warnings

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.errors import ParseError, ValidationError
from arbfscaffold.mesh import (
    DEGENERATE_SEGMENT_TOL,
    CenterSet,
    VolumetricMesh,
    cell_measures,
)


def two_tet_mesh():
    # two tets sharing the (0,1,2) face
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 1.0],
    ])
    return VolumetricMesh("tet", verts, [[0, 1, 2, 3], [0, 2, 1, 4]])


# --- construction and validation ---------------------------------------


def test_cell_measures_known_values(tri_mesh, tet_mesh, hex_mesh):
    assert cell_measures(tri_mesh) == pytest.approx([0.5])
    assert cell_measures(tet_mesh) == pytest.approx([1.0 / 6.0])
    assert cell_measures(hex_mesh) == pytest.approx([1.0])


def test_block_measures_sum_to_unit_cube(block_mesh):
    assert cell_measures(block_mesh).sum() == pytest.approx(1.0)


def test_mesh_rejects_bad_input():
    # "tri2d" is a valid kind, so each raise below comes from the check it names
    verts = np.eye(3)
    with pytest.raises(ValidationError,
                       match=r"vertices must have shape \(n, 3\) or \(3,\), got \(3, 2\)"):
        VolumetricMesh("tri2d", verts[:, :2], [[0, 1, 2]])  # 2 columns
    with pytest.raises(ValidationError, match=r"tri2d cells must hold indices in 0\.\.-1"):
        VolumetricMesh("tri2d", np.empty((0, 3)), [[0, 1, 2]])  # no vertex to name
    with pytest.raises(ValidationError, match="vertices must be finite, got .* at row 2"):
        VolumetricMesh("tri2d", [[0, 0, 0], [1, 0, 0], [0, np.nan, 0]], [[0, 1, 2]])
    for bad in (5, -1):
        with pytest.raises(ValidationError,
                           match=rf"tri2d cells must hold indices in 0\.\.2, got {bad}"):
            VolumetricMesh("tri2d", verts, [[0, 1, bad]])
    with pytest.raises(ValidationError, match=r"tri2d cells must have shape \(m, 3\), got \(1, 4\)"):
        VolumetricMesh("tri2d", verts, [[0, 1, 2, 0]])  # wrong arity for kind
    with pytest.raises(ValidationError, match="tet cells must be non-empty"):
        VolumetricMesh("tet", verts, np.empty((0, 4)))
    with pytest.raises(ValidationError, match="unknown mesh kind 'prism'"):
        VolumetricMesh("prism", verts, [[0, 1, 2]])


def test_mesh_rejects_degenerate_cell():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])  # collinear
    with pytest.raises(ValidationError, match=r"cell 0 is degenerate \(measure 0\.000e\+00\)"):
        VolumetricMesh("tri2d", verts, [[0, 1, 2]])


def test_cell_indices_must_be_integers():
    verts = np.eye(3)
    with pytest.raises(ValidationError, match="tri2d cells must hold integers, got 2.7"):
        VolumetricMesh("tri2d", verts, [[0, 1, 2.7]])  # an int64 cast truncates it
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the check
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match=f"tri2d cells must hold integers, got {bad}"):
                VolumetricMesh("tri2d", verts, [[0, 1, bad]])
    with pytest.raises(ValidationError, match="tri2d cells must hold integers, got dtype <U1"):
        VolumetricMesh("tri2d", verts, [["0", "1", "2"]])
    with pytest.raises(ValidationError, match="tri2d cells must be a numeric array"):
        VolumetricMesh("tri2d", verts, [[0, 1, 2], [0, 1]])  # ragged
    # integral floats are indices; the cells are stored as int64
    mesh = VolumetricMesh("tri2d", verts, np.array([[0.0, 1.0, 2.0]]))
    assert mesh.cells.dtype == np.int64 and mesh.cells.tolist() == [[0, 1, 2]]


@pytest.mark.parametrize("mode", ["isotropic", "anisotropic"])
@pytest.mark.parametrize("kind,original,order", [("hex", 0, list(range(8))),
                                                 ("tet", 2, [3, 1, 0, 2])])
def test_repeated_cell_is_rejected(kind, original, order, mode):
    # the mesh itself is refused, so neither mode can merge or trip on the copy
    mesh = samples.hex_block_mesh(2, 1, 1) if kind == "hex" else samples.icosahedron_tet_mesh()
    cells = np.vstack([mesh.cells, mesh.cells[original, order]])
    with pytest.raises(ValidationError,
                       match=f"cell {len(mesh.cells)} repeats the vertices of cell {original}"):
        ax.fit_mesh(VolumetricMesh(kind, mesh.vertices, cells), ax.Basis("imq"), mode)


def test_center_set_rejects_non_finite_coordinates():
    # a NaN would reach LAPACK as a "singular" matrix, an inf the model's bbox
    one = np.ones((1, 3))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="points must be finite"):
            CenterSet([[0.0, 0.0, bad]], [1.0])
        with pytest.raises(ValidationError, match="seg_b must be finite"):
            CenterSet(np.zeros((1, 3)), [1.0], one, [[bad, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="seg_a must be finite"):
            CenterSet(np.zeros((1, 3)), [1.0], one * bad, one)


def test_center_set_rejects_mismatched_or_empty_arrays():
    with pytest.raises(ValidationError, match="one value per point center required"):
        CenterSet(np.zeros((2, 3)), [1.0])
    with pytest.raises(ValidationError, match="seg_a and seg_b must have the same length"):
        CenterSet(np.zeros((1, 3)), [1.0], np.zeros((2, 3)), np.ones((1, 3)))
    with pytest.raises(ValidationError, match="center set is empty"):
        CenterSet(np.empty((0, 3)), [])


def test_anisotropic_set_rejects_face_center_on_cell_center():
    # corner 7 sits below the bottom face, so the top face's center and the
    # cell center both land on the bottom face's center; the volume is 1/3
    verts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
             (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, -3)]
    mesh = VolumetricMesh("hex", verts, [list(range(8))])
    assert cell_measures(mesh) == pytest.approx([1.0 / 3.0])
    with pytest.raises(ValidationError, match="degenerate cell: face center meets cell center"):
        ax.assemble_center_set(mesh, "anisotropic")


def test_center_set_refuses_a_segment_whose_ends_meet():
    # the set's bbox diagonal is 1, so the tolerance is DEGENERATE_SEGMENT_TOL
    pts, vals = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1.0, -1.0]
    a = np.array([0.5, 0.0, 0.0])

    def make(start, end):  # segment 0 has length; segment 1 runs from start to end
        return CenterSet(pts, vals, [[0.25, 0, 0], start], [[0.75, 0, 0], end])
    for gap, refused in ((0.0, True), (0.99, True), (1.01, False)):
        b = a + [gap * DEGENERATE_SEGMENT_TOL, 0.0, 0.0]
        for start, end in ((a, b), (b, a)):
            if refused:
                with pytest.raises(ValidationError, match=r"^degenerate cell: face center "
                                   r"meets cell center \(segment 1\)$"):
                    make(start, end)
            else:
                assert len(make(start, end)) == 4


def test_unknown_mode_format_and_kind_are_rejected(tmp_path, tet_mesh):
    with pytest.raises(ValidationError, match="unknown mode 'spherical'"):
        ax.assemble_center_set(tet_mesh, "spherical")
    for name in ("m.stl", "m.OFF", "m.node.bak"):
        with pytest.raises(ValidationError, match="unknown mesh extension"):
            ax.load_mesh(str(tmp_path / name))
    # a prism mesh cannot be built, so save_mesh never sees an unknown kind
    with pytest.raises(ValidationError, match="unknown mesh kind 'prism'"):
        VolumetricMesh("prism", tet_mesh.vertices, tet_mesh.cells)


def test_samples_need_no_convex_hull_code(fresh_python):
    code = "import sys, arbfscaffold.samples; print('scipy.spatial' in sys.modules)"
    assert fresh_python(code) == "False\n"


def test_icosahedron_faces_close_the_shell(icosa_mesh):
    # 20 faces of one edge length, each of the 30 edges shared by two faces
    faces = icosa_mesh.cells[:, 1:]
    edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    assert len(uses) == 30 and np.all(uses == 2)
    lengths = np.linalg.norm(np.diff(icosa_mesh.vertices[edges], axis=1), axis=-1)
    assert np.ptp(lengths) < 1e-15
    a = lengths[0, 0]
    assert cell_measures(icosa_mesh).sum() == pytest.approx(5 * (3 + np.sqrt(5)) / 12 * a**3)


def test_icosahedron_tets_are_positively_oriented(icosa_mesh, tmp_path):
    written = ax.load_mesh(samples.write_sample_meshes(str(tmp_path))["icosa20.node"])
    for mesh in (icosa_mesh, written):
        a, b, c, d = (mesh.vertices[mesh.cells[:, k]] for k in range(4))
        assert np.all(np.einsum("ij,ij->i", b - a, np.cross(c - a, d - a)) > 0)


def test_nodal_value_signs_are_constrained():
    with pytest.raises(ValidationError):
        CenterSet(np.zeros((1, 3)), [0.5])
    # segments have no value array: they carry -1 by construction
    cs = CenterSet(np.zeros((1, 3)), [1.0], np.zeros((1, 3)), np.ones((1, 3)))
    assert cs.values.tolist() == [1.0, -1.0]


# --- center extraction ---------------------------------------------------


def center_groups(mesh):
    """(vertices, edge centers, tile/face centers, cell centers) of the isotropic set.

    Both sets share their vertex and edge-center rows; the isotropic set
    ends with one centroid per tet/hex cell, and a 2D cell is itself the
    tile, so a tri2d mesh has no cell rows.
    """
    iso = ax.assemble_center_set(mesh, "isotropic")
    aniso = ax.assemble_center_set(mesh, "anisotropic")
    nv, ne = len(mesh.vertices), len(aniso.points) - len(mesh.vertices)
    assert np.array_equal(iso.points[:nv + ne], aniso.points)
    assert np.array_equal(iso.points[:nv], mesh.vertices)
    nc = 0 if mesh.kind == "tri2d" else len(mesh.cells)
    centroids = mesh.vertices[np.sort(mesh.cells, axis=1)].mean(axis=1)
    assert np.array_equal(iso.points[len(iso.points) - nc:], centroids[:nc])
    return np.split(iso.points, [nv, nv + ne, len(iso.points) - nc])


def test_center_counts_single_cells(tri_mesh, tet_mesh, hex_mesh):
    counts = [tuple(len(g) for g in center_groups(m))
              for m in (tri_mesh, tet_mesh, hex_mesh)]
    assert counts == [(3, 3, 1, 0), (4, 6, 4, 1), (8, 12, 6, 1)]


def test_center_counts_block(block_mesh):
    vn, ec, tc, cc = center_groups(block_mesh)
    # 3x3x3 vertex lattice; 54 edges, 36 faces, 8 cells after sharing
    assert (len(vn), len(ec), len(tc), len(cc)) == (27, 54, 36, 8)


def test_center_set_sizes():
    sizes = {}
    for name, mesh in [
        ("tri", samples.triangle_mesh()),
        ("tet", samples.unit_tet_mesh()),
        ("hex", samples.unit_hex_mesh()),
        ("block", samples.hex_block_mesh()),
        ("icosa", samples.icosahedron_tet_mesh()),
    ]:
        iso = ax.assemble_center_set(mesh, "isotropic")
        aniso = ax.assemble_center_set(mesh, "anisotropic")
        nseg = len(aniso.seg_a)
        sizes[name] = (len(iso), len(aniso), nseg)
    assert sizes == {
        "tri": (7, 9, 3),
        "tet": (15, 14, 4),
        "hex": (27, 26, 6),
        "block": (125, 129, 48),
        "icosa": (125, 135, 80),
    }


def test_all_nodal_signs():
    mesh = samples.hex_block_mesh()
    nv = len(mesh.vertices)
    for mode in ("isotropic", "anisotropic"):
        cs = ax.assemble_center_set(mesh, mode)
        assert np.all(cs.point_values[:nv] == 1.0)
        assert np.all(cs.point_values[nv:] == -1.0)
    assert len(cs.seg_a) == 6 * len(mesh.cells)
    assert np.all(cs.values[len(cs.points):] == -1.0)


def test_shared_centers_are_deduplicated():
    mesh = two_tet_mesh()
    vn, ec, tc, cc = center_groups(mesh)
    # 5 vertices; 9 distinct edges (6+6 with 3 shared); 7 faces (4+4 minus shared)
    assert (len(vn), len(ec), len(tc), len(cc)) == (5, 9, 7, 2)


def test_shared_face_center_is_bit_identical():
    mesh = two_tet_mesh()
    _, _, tc, _ = center_groups(mesh)
    shared = np.array([1.0, 1.0, 0.0]) / 3.0
    hits = [c for c in tc if np.array_equal(c, shared)]
    assert len(hits) == 1
    # each tet's segment starts on that center with the same bits
    seg_a = ax.assemble_center_set(mesh, "anisotropic").seg_a
    assert sum(np.array_equal(a, shared) for a in seg_a) == 2


def test_segments_run_from_face_to_cell_center(tet_mesh):
    aniso = ax.assemble_center_set(tet_mesh, "anisotropic")
    seg_a, seg_b = aniso.seg_a, aniso.seg_b
    cell = tet_mesh.vertices.mean(axis=0)
    assert len(seg_a) == len(seg_b) == 4
    for b in seg_b:
        assert np.allclose(b, cell)


def test_centers_lie_inside_bbox(icosa_mesh):
    lo, hi = icosa_mesh.bbox()
    aniso = ax.assemble_center_set(icosa_mesh, "anisotropic")
    for group in (*center_groups(icosa_mesh), aniso.seg_a, aniso.seg_b):
        for c in group:
            assert np.all(c >= lo - 1e-12)
            assert np.all(c <= hi + 1e-12)


# --- file formats --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(samples.SAMPLE_BUILDERS))
def test_mesh_round_trip(tmp_path, name):
    mesh = samples.SAMPLE_BUILDERS[name]()
    path = str(tmp_path / name)
    ax.save_mesh(mesh, path)
    back = ax.load_mesh(path)
    assert back.kind == mesh.kind
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


def test_node_ele_accepts_stem_and_either_path(tmp_path):
    mesh = samples.unit_tet_mesh()
    for i, written in enumerate(("m", "m.node", "m.ele")):  # save_mesh takes all three too
        stem = str(tmp_path / str(i) / "m")
        ax.save_mesh(mesh, str(tmp_path / str(i) / written))
        for p in (stem, stem + ".node", stem + ".ele"):
            back = ax.load_mesh(p)
            assert np.array_equal(back.cells, mesh.cells)


# The paths each kind's format is written to; a bare path is a TetGen stem.
_KIND_PATHS = {"tri2d": ["m.off"], "tet": ["m.node", "m.ele", "m"], "hex": ["m.hexmesh"]}
_KIND_MESHES = {"tri2d": samples.triangle_mesh, "tet": samples.unit_tet_mesh,
                "hex": samples.unit_hex_mesh}


@pytest.mark.parametrize("kind, path", [
    (kind, path) for kind in sorted(_KIND_PATHS)
    for path in ["m.off", "m.node", "m.ele", "m", "m.hexmesh", "m.stl", "m.OFF", "m.off.gz"]
    if path not in _KIND_PATHS[kind]])
def test_save_mesh_refuses_a_path_load_mesh_would_not_read_back(tmp_path, kind, path):
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="unknown mesh extension|cannot write a"):
        ax.save_mesh(_KIND_MESHES[kind](), str(out / path))
    assert not out.exists()  # no file, and not its directory either


def test_node_ele_zero_based_indices(tmp_path):
    (tmp_path / "z.node").write_text(
        "4 3 0 0\n0 0 0 0\n1 1 0 0\n2 0 1 0\n3 0 0 1\n")
    (tmp_path / "z.ele").write_text("1 4 0\n0 0 1 2 3\n")
    mesh = ax.load_mesh(str(tmp_path / "z.node"))
    assert np.array_equal(mesh.cells, [[0, 1, 2, 3]])


def test_node_repeated_index_is_rejected(tmp_path):
    # indices 1, 1, 3, 4: node 2 is missing and its row would stay uninitialised
    (tmp_path / "r.node").write_text(
        "4 3 0 0\n1 0 0 0\n1 1 0 0\n3 0 1 0\n4 0 0 1\n")
    (tmp_path / "r.ele").write_text("1 4 0\n1 1 2 3 4\n")
    with pytest.raises(ParseError, match="node index 1 repeats line 2") as err:
        ax.load_mesh(str(tmp_path / "r.node"))
    assert "r.node:3" in str(err.value)


def test_node_fractional_index_is_rejected(tmp_path):
    # int(float("2.9")) would silently load this line as node 2
    (tmp_path / "f.node").write_text(
        "4 3 0 0\n1 0 0 0\n2.9 1 0 0\n3 0 1 0\n4 0 0 1\n")
    (tmp_path / "f.ele").write_text("1 4 0\n1 1 2 3 4\n")
    with pytest.raises(ParseError, match="node index must be an integer, got '2.9'") as err:
        ax.load_mesh(str(tmp_path / "f.node"))
    assert "f.node:3" in str(err.value)


_TET_NODES = "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n"


def test_node_ele_with_attributes_and_boundary_markers(tmp_path):
    # TetGen puts attributes, then the boundary marker, after the coordinates,
    # and region attributes after the corners; the headers count them
    (tmp_path / "m.node").write_text(
        "4 3 0 1\n1 0 0 0 1\n2 1 0 0 0\n3 0 1 0 1\n4 0 0 1 2\n")
    (tmp_path / "m.ele").write_text("1 4 1\n1 1 2 3 4 -2.5\n")
    (tmp_path / "a.node").write_text(
        "4 3 2 1\n1 0 0 0 0.5 7 1\n2 1 0 0 0.5 7 0\n3 0 1 0 1 8 1\n4 0 0 1 1 8 0\n")
    (tmp_path / "a.ele").write_text("1 4 0\n1 1 2 3 4\n")
    expected = samples.unit_tet_mesh()
    for stem in ("m", "a"):
        mesh = ax.load_mesh(str(tmp_path / f"{stem}.node"))
        assert np.array_equal(mesh.vertices, expected.vertices)
        assert np.array_equal(mesh.cells, expected.cells)


@pytest.mark.parametrize("node,ele,where,message", [
    ("4 2 0 0\n", "1 4 0\n", "x.node:1", "expected dimension 3, got 2"),
    ("4 3 -1 0\n", "1 4 0\n", "x.node:1", "expected >= 0 attributes and 0 or 1 boundary "
                                          "markers, got -1 and 0"),
    ("4 3 0 2\n", "1 4 0\n", "x.node:1", "got 0 and 2"),
    (_TET_NODES.replace("4 0 0 1", "9 0 0 1"), "1 4 0\n", "x.node:5", "node index 9 out of range"),
    ("4 3 0 1\n1 0 0 0 1\n2 1 0 0\n3 0 1 0 1\n4 0 0 1 1\n", "1 4 0\n", "x.node:3",
     "expected 5 fields, got 4"),
    (_TET_NODES.replace("4 3 0 0", "4 3 1 0"), "1 4 0\n", "x.node:2", "expected 5 fields, got 4"),
    (_TET_NODES, "1 10 0\n", "x.ele:1", "expected 4 nodes per tet, got 10"),
    (_TET_NODES, "1 4 -1\n", "x.ele:1", "expected >= 0 attributes, got -1"),
    (_TET_NODES, "1 4 1\n1 1 2 3 4\n", "x.ele:2", "expected 6 fields, got 5"),
    (_TET_NODES, "1 4 0\n1 1 2 3 4 1\n", "x.ele:2", "expected 5 fields, got 6"),
], ids=["dimension", "attributes", "markers", "node-index", "marker-missing",
        "attribute-missing", "ele-arity", "ele-attributes", "ele-attribute-missing",
        "ele-extra-field"])
def test_node_ele_header_and_field_count_errors(tmp_path, node, ele, where, message):
    (tmp_path / "x.node").write_text(node)
    (tmp_path / "x.ele").write_text(ele)
    with pytest.raises(ParseError, match=message) as err:
        ax.load_mesh(str(tmp_path / "x.node"))
    assert where in str(err.value)


@pytest.mark.parametrize("files,load,where,index", [
    ({"hi.node": _TET_NODES, "hi.ele": "1 4 0\n1 1 2 3 9\n"}, "hi.node", "hi.ele:2", "9"),
    ({"lo.node": _TET_NODES, "lo.ele": "1 4 0\n1 0 2 3 4\n"}, "lo.node", "lo.ele:2", "0"),
    ({"f.off": "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n"}, "f.off", "f.off:6", "3"),
    ({"c.hexmesh": "HEX 8 1\n" + "".join(f"{x} {y} {z}\n" for z in (0, 1) for y in (0, 1)
                                          for x in (0, 1)) + "0 1 3 2 4 5 7 -1\n"},
     "c.hexmesh", "c.hexmesh:10", "-1"),
], ids=["ele-above", "ele-below-base", "off", "hexmesh"])
def test_cell_index_out_of_range_reports_line(tmp_path, files, load, where, index):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(ParseError, match=f"vertex index {index} out of range") as err:
        ax.load_mesh(str(tmp_path / load))
    assert where in str(err.value)


@pytest.mark.parametrize("text,message", [
    ("OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n5 5 5\n3 0 1 2\n", "vertex 3 is used by no cell"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n2 0 0\n3 0 1 2\n", "cell 0 is degenerate (measure 0.000e+00)"),
    ("OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 0 1\n", "cell 1 repeats the vertices of cell 0"),
], ids=["unused-vertex", "zero-area-face", "repeated-face"])
def test_invalid_mesh_in_file_names_the_file(tmp_path, text, message):
    p = tmp_path / "m.off"
    p.write_text(text)
    with pytest.raises(ParseError) as err:
        ax.load_mesh(str(p))
    assert str(err.value) == f"{p}: {message}"
    assert isinstance(err.value.__cause__, ValidationError)


def test_off_parse_error_reports_line(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\nnot a number 0\n3 0 1 2\n")
    with pytest.raises(ParseError) as err:
        ax.load_mesh(str(p))
    assert "bad.off:5" in str(err.value)


def test_off_missing_header(tmp_path):
    p = tmp_path / "bad.off"
    p.write_text("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(ParseError):
        ax.load_mesh(str(p))


def test_truncated_hexmesh(tmp_path):
    p = tmp_path / "short.hexmesh"
    p.write_text("8 1\n0 0 0\n")
    with pytest.raises(ParseError):
        ax.load_mesh(str(p))


@pytest.mark.parametrize("files,load,where", [
    ({"neg.off": "OFF\n-3 1 0\n"}, "neg.off", "neg.off:2"),
    ({"neg.node": "-4 3 0 0\n"}, "neg.node", "neg.node:1"),
    ({"neg.node": "4 3 0 0\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n",
      "neg.ele": "# cells\n0 4 0\n"}, "neg.ele", "neg.ele:2"),
    ({"neg.hexmesh": "HEX -1 2\n"}, "neg.hexmesh", "neg.hexmesh:1"),
], ids=["off", "node", "ele", "hexmesh"])
def test_impossible_header_counts(tmp_path, files, load, where):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(ParseError, match="count must be positive") as err:
        ax.load_mesh(str(tmp_path / load))
    assert where in str(err.value)


_HEX_VERTS = "".join(f"{x} {y} {z}\n" for z in (0, 1) for y in (0, 1) for x in (0, 1))


@pytest.mark.parametrize("files,load,message", [
    ({"e.off": "# nothing\n"}, "e.off", "e.off: empty file"),
    ({"c.off": "OFF\n"}, "c.off", "c.off: missing count line"),
    ({"v.off": "OFF\n3 1 0\n0 0 0\n"}, "v.off", "v.off: expected 3 vertices, file ended at 1"),
    ({"f.off": "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"}, "f.off",
     "f.off: expected 2 faces, file ended at 1"),
    ({"e.node": "\n", "e.ele": "1 4 0\n"}, "e.node", "e.node: empty file"),
    ({"n.node": _TET_NODES[:-8], "n.ele": "1 4 0\n"}, "n.node",
     "n.node: expected 4 nodes, file ended at 3"),
    ({"e.node": _TET_NODES, "e.ele": ""}, "e.node", "e.ele: empty file"),
    ({"c.node": _TET_NODES, "c.ele": "2 4 0\n1 1 2 3 4\n"}, "c.node",
     "c.ele: expected 2 cells, file ended at 1"),
    ({"e.hexmesh": ""}, "e.hexmesh", "e.hexmesh: empty file"),
    ({"v.hexmesh": "HEX 8 1\n0 0 0\n"}, "v.hexmesh",
     "v.hexmesh: expected 8 vertices, file ended at 1"),
    ({"c.hexmesh": "HEX 8 1\n" + _HEX_VERTS}, "c.hexmesh",
     "c.hexmesh: expected 1 cells, file ended at 0"),
], ids=["off-empty", "off-count", "off-vertices", "off-faces", "node-empty", "node-rows",
        "ele-empty", "ele-rows", "hex-empty", "hex-vertices", "hex-cells"])
def test_file_ending_early_names_what_is_missing(tmp_path, files, load, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(ParseError) as err:
        ax.load_mesh(str(tmp_path / load))
    assert str(err.value) == str(tmp_path / message)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "c.off"
    p.write_text("# header comment\nOFF\n\n3 1 0\n0 0 0\n1 0 0\n# mid\n0 1 0\n3 0 1 2\n")
    mesh = ax.load_mesh(str(p))
    assert mesh.vertices.shape == (3, 3)


def test_write_sample_meshes(tmp_path):
    written = samples.write_sample_meshes(str(tmp_path))
    assert sorted(written) == sorted(samples.SAMPLE_BUILDERS)
    for p in written.values():
        ax.load_mesh(p)  # every file parses back
