"""Marching cubes / squares extraction, welding, and surface export."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbfscaffold.errors import ParseError, ValidationError, index_array
from arbfscaffold.grid import VoxelGrid, make_grid, make_grid_2d, sample_field
from arbfscaffold.isosurface import (
    TriangleSoup,
    _index_dtype,
    _index_slots,
    _line_bytes,
    euler_characteristic,
    export_obj,
    export_pgm,
    load_obj,
    marching_cubes,
    marching_squares,
    surface_area,
)
from arbfscaffold.mesh import triangle_areas
from arbfscaffold.tpms import TpmsField


def sphere_grid(center, radius, resolution, half_extent=1.0):
    g = make_grid(np.asarray(center) - half_extent,
                  np.asarray(center) + half_extent, resolution, 0.0)
    dist = np.linalg.norm(g.positions() - center, axis=1)
    g.values[:] = (radius - dist).astype(np.float32)
    return g


def edge_lerp_residual(grid, soup, iso):
    """Max |interpolated value - iso| over all vertices; verifies each vertex
    sits on a lattice edge with the linear crossing parameter."""
    if len(soup.vertices) == 0:
        return 0.0
    frac = (soup.vertices - grid.origin) / grid.spacing
    snapped = np.rint(frac)
    on_axis = np.abs(frac - snapped) < 1e-9
    worst = 0.0
    v3 = grid.values_3d().astype(np.float64)
    for f, s, on in zip(frac, snapped, on_axis):
        assert on.sum() >= 2, "vertex off the grid edge lattice"
        if on.all():  # landed exactly on a sample
            i, j, k = (int(x) for x in s)
            worst = max(worst, abs(v3[k, j, i] - iso))
            continue
        axis = int(np.flatnonzero(~on)[0])
        # snapped integers on the lattice axes, floor along the crossing axis
        lo = np.where(on, s, np.floor(f)).astype(int)
        t = f[axis] - lo[axis]
        i0, j0, k0 = lo
        i1, j1, k1 = lo + np.eye(3, dtype=int)[axis]
        v0, v1 = v3[k0, j0, i0], v3[k1, j1, i1]
        worst = max(worst, abs(v0 + t * (v1 - v0) - iso))
    return worst


# --- marching cubes -------------------------------------------------------


def test_empty_when_iso_out_of_range():
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    g.values[:] = 0.5
    for iso in (-1.0, 2.0):
        soup = marching_cubes(g, iso)
        assert len(soup.triangles) == 0 and len(soup.vertices) == 0


def test_single_corner_cell():
    g = make_grid(np.zeros(3), np.ones(3), 2, 0.0)
    g.values[:] = 1.0
    g.values[0] = -1.0
    soup = marching_cubes(g, 0.0)
    assert len(soup.triangles) == 1
    expect = {(0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)}
    assert {tuple(v) for v in soup.vertices} == expect


def test_sphere_area_euler_and_residual():
    R = 0.7
    g = sphere_grid(np.array([0.05, -0.02, 0.01]), R, 24)
    soup = marching_cubes(g, 0.0)
    assert euler_characteristic(soup) == 2
    assert surface_area(soup) == pytest.approx(4 * np.pi * R * R, rel=0.05)
    assert edge_lerp_residual(g, soup, 0.0) <= 1e-9


def test_nonzero_iso_matches_shrunk_sphere():
    R = 0.7
    g = sphere_grid(np.zeros(3), R, 24)
    soup = marching_cubes(g, 0.2)  # R - d = 0.2 is the sphere of radius 0.5
    assert surface_area(soup) == pytest.approx(4 * np.pi * 0.25, rel=0.05)
    assert edge_lerp_residual(g, soup, 0.2) <= 1e-9


def test_two_spheres_euler_four():
    g = make_grid(np.zeros(3), np.array([2.0, 1.0, 1.0]), 48, 0.0)
    p = g.positions()
    d1 = np.linalg.norm(p - np.array([0.5, 0.5, 0.5]), axis=1)
    d2 = np.linalg.norm(p - np.array([1.5, 0.5, 0.5]), axis=1)
    g.values[:] = np.maximum(0.3 - d1, 0.3 - d2).astype(np.float32)
    soup = marching_cubes(g, 0.0)
    assert euler_characteristic(soup) == 4


def assert_closed_sphere(soup):
    """Every edge has exactly two triangles and V - E + F = 2."""
    edges = np.sort(soup.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    assert len(soup.triangles) > 0 and np.all(uses == 2)
    assert euler_characteristic(soup) == 2


@pytest.mark.parametrize("center,half_extent", [
    (1.2e4, 1e-3),   # far from the origin compared with its size
    (0.0, 1e-5),
    (0.0, 1e-6),     # every triangle has an area below 1e-14
])
def test_sphere_is_closed_at_any_offset_and_scale(center, half_extent):
    g = sphere_grid(np.full(3, center), 0.6 * half_extent, 24, half_extent)
    assert_closed_sphere(marching_cubes(g, 0.0))


@given(st.tuples(*[st.floats(-1.2e4, 1.2e4)] * 3), st.floats(-7.0, 4.0),
       st.integers(12, 24))
def test_sphere_is_closed_property(center, log_extent, resolution):
    half_extent = 0.5 * 10.0 ** log_extent
    g = sphere_grid(np.array(center), 0.6 * half_extent, resolution, half_extent)
    assert_closed_sphere(marching_cubes(g, 0.0))


def test_welding_shares_vertices():
    g = sphere_grid(np.zeros(3), 0.6, 16)
    soup = marching_cubes(g, 0.0)
    nt = len(soup.triangles)
    assert nt > 0
    assert len(soup.vertices) < 3 * nt  # welded, not a raw soup
    # no sample lies on the iso value
    assert np.all(triangle_areas(soup.vertices, soup.triangles) > 0)
    assert soup.triangles.min() >= 0
    assert soup.triangles.max() < len(soup.vertices)


def test_every_vertex_is_used_after_degenerate_triangles_drop():
    # Quantized gyroid samples put vertices on grid points (t = 0 or 1); the
    # triangles they collapse are dropped, and a vertex only those triangles
    # used must go with them.
    g = sample_field(TpmsField("g"), make_grid(np.zeros(3), np.full(3, 2.0 * np.pi), 24, 0.0))
    g.values[:] = np.round(g.values * 4.0) / 4.0
    soup = marching_cubes(g, 0.0)
    assert len(soup.vertices) == 1452
    assert np.array_equal(np.unique(soup.triangles), np.arange(len(soup.vertices)))


def test_mc_requires_volume_grid():
    g = make_grid_2d(np.zeros(2), np.ones(2), 8, 0.0)
    with pytest.raises(ValidationError):
        marching_cubes(g, 0.0)


# --- marching squares -----------------------------------------------------


def test_circle_contour_length():
    g = make_grid_2d(np.array([-1.0, -1.0]), np.array([1.0, 1.0]), 129, 0.0)
    d = np.linalg.norm(g.positions()[:, :2], axis=1)
    g.values[:] = (0.6 - d).astype(np.float32)
    contours = marching_squares(g, 0.0)
    assert len(contours.polylines) > 0
    assert contours.total_length() == pytest.approx(2 * np.pi * 0.6, rel=0.02)


def test_squares_empty_cases():
    # constant fields never cross the iso level from either side
    g = make_grid_2d(np.zeros(2), np.ones(2), 8, 0.0)
    g.values[:] = 1.0
    assert marching_squares(g, 0.0).polylines == []
    g.values[:] = -1.0
    assert marching_squares(g, 0.0).polylines == []


def test_saddle_cases_resolve_by_center_average():
    def saddle(v0, v1, v2, v3):
        g = make_grid_2d(np.zeros(2), np.ones(2), 2, 0.0)
        # flat storage is x-fastest: (0,0), (1,0), (0,1), (1,1)
        g.values[:] = np.array([v0, v1, v3, v2], dtype=np.float32)
        segs = marching_squares(g, 0.0).polylines
        assert len(segs) == 2
        return {frozenset(map(tuple, np.round(s[:, :2], 6))) for s in segs}

    joined = saddle(1.0, -1.0, 1.0, -1.0)       # center 0 >= iso
    split = saddle(0.2, -1.4, 0.2, -1.4)        # center below iso
    b0, r1, t2, l3 = (0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)
    assert joined == {frozenset((b0, r1)), frozenset((t2, l3))}
    # split pairing connects the other diagonal; compare edge memberships only
    split_pairs = {frozenset(round(x[0] + 10 * x[1], 1) for x in pair) for pair in split}
    assert split_pairs != {frozenset(round(x[0] + 10 * x[1], 1) for x in pair) for pair in joined}


def test_squares_requires_slab():
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    with pytest.raises(ValidationError, match=r"single-slice grid \(nz = 1\)"):
        marching_squares(g, 0.0)


@pytest.mark.parametrize("dims", [(1, 3, 1), (3, 1, 1)])
def test_squares_requires_two_samples_per_axis(dims):
    g = VoxelGrid(origin=np.zeros(3), spacing=np.ones(3), dims=dims,
                  values=np.zeros(3, dtype=np.float32))
    with pytest.raises(ValidationError, match="at least 2 samples per axis"):
        marching_squares(g, 0.0)


# --- export ----------------------------------------------------------------


def test_obj_round_trip(tmp_path):
    g = sphere_grid(np.zeros(3), 0.6, 16)
    soup = marching_cubes(g, 0.0)
    path = str(tmp_path / "s.obj")
    export_obj(soup, path)
    back = load_obj(path)
    assert soup.triangles.dtype == back.triangles.dtype == np.int32
    assert np.array_equal(back.triangles, soup.triangles)
    assert np.allclose(back.vertices, soup.vertices, atol=1e-6)
    first = open(path, encoding="ascii").readline().split()
    assert first[0] == "v"
    export_obj(back, str(tmp_path / "again.obj"))
    assert (tmp_path / "again.obj").read_bytes() == (tmp_path / "s.obj").read_bytes()


def test_obj_bytes_do_not_depend_on_the_index_dtype(tmp_path):
    soup = marching_cubes(sphere_grid(np.zeros(3), 0.6, 16), 0.0)
    wide = TriangleSoup(vertices=soup.vertices, triangles=soup.triangles.astype(np.int64))
    floats = TriangleSoup(vertices=soup.vertices, triangles=soup.triangles.astype(np.float64))
    for name, s in (("int32", soup), ("int64", wide), ("float", floats)):
        export_obj(s, str(tmp_path / f"{name}.obj"))
    assert ((tmp_path / "int32.obj").read_bytes() == (tmp_path / "int64.obj").read_bytes()
            == (tmp_path / "float.obj").read_bytes())
    assert TriangleSoup().triangles.dtype == np.int32


def test_obj_face_indices_past_int32_do_not_wrap():
    # 2**31 - 1 is the largest int32, and the largest 1-based index of
    # _index_dtype(2**31 - 1) vertices; from 2**31 vertices on the indices
    # are int64.  export_obj passes the checked triangles, with no copy, to
    # the gather from its table of 1-based indices, which no test can build
    # at this size, so the table's digit routine is checked on those values.
    last = 2 ** 31 - 1
    assert _index_dtype(last) == np.int32 and _index_dtype(last + 1) == np.int64
    for dtype in (np.int32, np.int64):
        tris = np.array([[0, 1, last]], dtype=dtype)
        assert index_array(tris, "triangles", last + 1, 3) is tris
        assert (_line_bytes(_index_slots(np.array([[1, 2, last]], dtype=dtype)), "f")
                == f"f 1 2 {last}\n".encode())
    big = np.array([[1, 2 ** 40 + 1, 2 ** 31 + 1]])
    assert _line_bytes(_index_slots(big), "f") == f"f 1 {2 ** 40 + 1} {2 ** 31 + 1}\n".encode()


def test_obj_export_rejects_indices_past_the_vertices(tmp_path):
    path = tmp_path / "past.obj"
    soup = TriangleSoup(np.zeros((3, 3)), [[0, 1, 5]])
    with pytest.raises(ValidationError, match=r"triangles must hold indices in 0\.\.2, got 5"):
        export_obj(soup, str(path))
    assert not path.exists()


@pytest.mark.parametrize("triangles,message", [
    ([[0, 1, 2.5]], "triangles must hold integers, got 2.5"),
    ([[0, 1, np.nan]], "triangles must hold integers, got nan"),
    ([[0, 1, -1.0]], r"triangles must hold indices in 0\.\.2, got -1"),
    ([["0", "1", "2"]], "triangles must hold integers, got dtype <U1"),
], ids=["fraction", "nan", "negative-float", "strings"])
def test_obj_export_rejects_non_integral_indices(tmp_path, triangles, message):
    soup = TriangleSoup(vertices=np.eye(3), triangles=np.array(triangles))
    with pytest.raises(ValidationError, match=message):
        export_obj(soup, str(tmp_path / "bad.obj"))


def test_obj_export_rejects_negative_indices(tmp_path):
    soup = TriangleSoup(vertices=np.eye(3), triangles=np.array([[0, 1, -1]]))
    with pytest.raises(ValidationError, match=r"triangles must hold indices in 0\.\.2, got -1"):
        export_obj(soup, str(tmp_path / "neg.obj"))


def test_obj_ignores_comments_and_normals(tmp_path):
    p = tmp_path / "n.obj"
    p.write_text("# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1/1/1 2/2/2 3/3/3\n")
    soup = load_obj(str(p))
    assert soup.vertices.shape == (3, 3)
    assert np.array_equal(soup.triangles, [[0, 1, 2]])


def test_obj_polygon_faces_are_fans(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    soup = load_obj(str(p))
    assert np.array_equal(soup.triangles, [[0, 1, 2], [0, 2, 3]])
    assert surface_area(soup) == pytest.approx(1.0)
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\nf 1 2 3 4 7\n")
    with pytest.raises(ParseError, match="quad.obj:6: vertex index 7 out of range"):
        load_obj(str(p))


@pytest.mark.parametrize("text,message", [
    ("v 1 0\n", "expected 3 fields"),
    ("v 0 0 x\n", "malformed number"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", "expected 3 fields"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3.5\n", "malformed integer"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n", "vertex index 9 out of range"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n", "vertex index -3 out of range"),
], ids=["short-vertex", "vertex-value", "short-face", "face-value", "face-index",
        "relative-index"])
def test_obj_rejects_malformed_lines(tmp_path, text, message):
    p = tmp_path / "bad.obj"
    p.write_text(text)
    line = text.count("\n")
    with pytest.raises(ParseError, match=f"bad.obj:{line}: {message}"):
        load_obj(str(p))


def test_pgm_frozen_bytes(tmp_path):
    g = make_grid_2d(np.zeros(2), np.ones(2), 2, 0.0)
    g.values[:] = np.array([0.0, 0.5, 0.75, 1.0], dtype=np.float32)
    path = str(tmp_path / "i.pgm")
    export_pgm(g, path, 0.0, 1.0)
    data = open(path, "rb").read()
    assert data == b"P5\n2 2\n255\n" + bytes([191, 255, 0, 128])


def test_pgm_clamps_out_of_range(tmp_path):
    g = make_grid_2d(np.zeros(2), np.ones(2), 2, 0.0)
    g.values[:] = np.array([-10.0, 10.0, 0.0, 1.0], dtype=np.float32)
    path = str(tmp_path / "c.pgm")
    export_pgm(g, path, 0.0, 1.0)
    payload = open(path, "rb").read()[-4:]
    assert payload == bytes([0, 255, 0, 255])


def test_pgm_validation(tmp_path):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    with pytest.raises(ValidationError):
        export_pgm(g, str(tmp_path / "x.pgm"), 0.0, 1.0)
    g2 = make_grid_2d(np.zeros(2), np.ones(2), 4, 0.0)
    with pytest.raises(ValidationError):
        export_pgm(g2, str(tmp_path / "x.pgm"), 1.0, 1.0)


def test_euler_keys_do_not_wrap_on_int32_triangles():
    # min * nv + max reaches 2**32 here: int32 keys would wrap and collide.
    tris = np.array([[0, 40000, 131071], [32768, 40000, 131071]], dtype=np.int32)
    verts = np.zeros((131072, 3))
    assert euler_characteristic(TriangleSoup(vertices=verts, triangles=tris)) == 1
    assert euler_characteristic(TriangleSoup(vertices=verts, triangles=tris.astype(np.int64))) == 1


def test_euler_of_single_triangle():
    soup = TriangleSoup(vertices=np.eye(3), triangles=np.array([[0, 1, 2]]))
    assert euler_characteristic(soup) == 1
    assert surface_area(soup) == pytest.approx(np.sqrt(3) / 2)
