"""Mesh construction, center extraction, and the three file formats."""

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.errors import ParseError, ValidationError
from arbfscaffold.mesh import (
    CenterSet,
    build_segments,
    cell_measures,
    compute_centers,
    infer_format,
    make_mesh,
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
    return make_mesh("tet", verts, [[0, 1, 2, 3], [0, 2, 1, 4]])


# --- construction and validation ---------------------------------------


def test_cell_measures_known_values(tri_mesh, tet_mesh, hex_mesh):
    assert cell_measures(tri_mesh) == pytest.approx([0.5])
    assert cell_measures(tet_mesh) == pytest.approx([1.0 / 6.0])
    assert cell_measures(hex_mesh) == pytest.approx([1.0])


def test_block_measures_sum_to_unit_cube(block_mesh):
    assert cell_measures(block_mesh).sum() == pytest.approx(1.0)


def test_make_mesh_rejects_bad_input():
    verts = np.eye(3)
    with pytest.raises(ValidationError):
        make_mesh("tri", verts[:, :2], [[0, 1, 2]])  # 2 columns
    with pytest.raises(ValidationError):
        make_mesh("tri", verts, [[0, 1, 5]])  # index out of range
    with pytest.raises(ValidationError):
        make_mesh("tri", verts, [[0, 1, 2, 0]])  # wrong arity for kind
    with pytest.raises(ValidationError):
        make_mesh("prism", verts, [[0, 1, 2]])


def test_make_mesh_rejects_degenerate_cell():
    verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])  # collinear
    with pytest.raises(ValidationError):
        make_mesh("tri", verts, [[0, 1, 2]])


def test_nodal_value_signs_are_constrained():
    with pytest.raises(ValidationError):
        CenterSet(np.zeros((1, 3)), [0.5])
    # segments have no value array: they carry -1 by construction
    cs = CenterSet(np.zeros((1, 3)), [1.0], np.zeros((1, 3)), np.ones((1, 3)))
    assert cs.values.tolist() == [1.0, -1.0]


# --- center extraction ---------------------------------------------------


def test_center_counts_single_cells(tri_mesh, tet_mesh, hex_mesh):
    # (vertices, edge centers, tile/face centers, cell centers);
    # a 2D cell is itself the tile, so the triangle has no separate cell row
    counts = [tuple(len(g) for g in compute_centers(m))
              for m in (tri_mesh, tet_mesh, hex_mesh)]
    assert counts == [(3, 3, 1, 0), (4, 6, 4, 1), (8, 12, 6, 1)]


def test_center_counts_block(block_mesh):
    vn, ec, tc, cc = compute_centers(block_mesh)
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
    vn, ec, tc, cc = compute_centers(mesh)
    iso = ax.assemble_center_set(mesh, "isotropic")
    assert len(iso.points) == len(vn) + len(ec) + len(tc) + len(cc)
    assert np.all(iso.point_values[:len(vn)] == 1.0)
    assert np.all(iso.point_values[len(vn):] == -1.0)
    aniso = ax.assemble_center_set(mesh, "anisotropic")
    assert len(aniso.seg_a) == len(build_segments(mesh)[0])
    assert np.all(aniso.values[len(aniso.points):] == -1.0)


def test_shared_centers_are_deduplicated():
    mesh = two_tet_mesh()
    vn, ec, tc, cc = compute_centers(mesh)
    # 5 vertices; 9 distinct edges (6+6 with 3 shared); 7 faces (4+4 minus shared)
    assert (len(vn), len(ec), len(tc), len(cc)) == (5, 9, 7, 2)


def test_shared_face_center_is_bit_identical():
    mesh = two_tet_mesh()
    _, _, tc, _ = compute_centers(mesh)
    shared = np.array([1.0, 1.0, 0.0]) / 3.0
    hits = [c for c in tc if np.array_equal(c, shared)]
    assert len(hits) == 1


def test_segments_run_from_face_to_cell_center(tet_mesh):
    seg_a, seg_b = build_segments(tet_mesh)
    cell = tet_mesh.vertices.mean(axis=0)
    assert len(seg_a) == len(seg_b) == 4
    for b in seg_b:
        assert np.allclose(b, cell)


def test_centers_lie_inside_bbox(icosa_mesh):
    lo, hi = icosa_mesh.bbox()
    for group in compute_centers(icosa_mesh):
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


def test_infer_format():
    assert infer_format("a.off") == "off"
    assert infer_format("b.node") == "nodeele"
    assert infer_format("b.ele") == "nodeele"
    assert infer_format("c.hexmesh") == "hexascii"
    with pytest.raises(ValidationError):
        infer_format("d.stl")


def test_node_ele_accepts_stem_and_either_path(tmp_path):
    mesh = samples.unit_tet_mesh()
    stem = str(tmp_path / "m")
    ax.save_mesh(mesh, stem + ".node")
    for p in (stem, stem + ".node", stem + ".ele"):
        back = ax.load_mesh(p)
        assert np.array_equal(back.cells, mesh.cells)


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
