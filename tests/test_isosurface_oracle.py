"""Iso extraction and OBJ export against per-cell reference implementations.

The references below are the straightforward forms of the library code:
marching cubes computes every crossed edge of every active cell from that
cell's own corner values, names it by its grid edge (or by the nearer grid
point when t is within SNAP_T of 0 or 1), drops the triangles that repeat a
name and numbers the names the others use in order; marching squares walks
the cells in a Python double loop and interpolates each cell edge from its
low corner; OBJ export formats one line at a time.
The library computes one vertex per crossed grid edge and formats whole
chunks, so vertices, triangles, polylines and file bytes must all match the
references bit for bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold._mc_tables import CORNER_OFFSETS, EDGE_CORNERS, TRI_TABLE
from arbfscaffold.errors import ValidationError
from arbfscaffold.isosurface import (
    SNAP_T,
    OBJ_CHUNK_ROWS,
    TriangleSoup,
    _index_slots,
    _line_bytes,
    _vertex_lines,
    euler_characteristic,
    export_obj,
    marching_cubes,
    marching_squares,
)


# --- references -----------------------------------------------------------

# Bit e of CROSSED_EDGES[case] is set when edge e crosses the surface: the
# case bits of its two corners differ.  Derived here, not read from
# TRI_TABLE, so the reference stays independent of the table it checks.
_CASES = np.arange(256, dtype=np.int32)
CROSSED_EDGES = sum((((_CASES >> c0) ^ (_CASES >> c1)) & 1) << e
                    for e, (c0, c1) in enumerate(EDGE_CORNERS))


def reference_marching_cubes(grid, iso):
    """(soup, number of triangles dropped for repeating a vertex id).

    A vertex id is 4 * q + axis for the grid edge from grid point q (flat
    index, x fastest) along axis, or 4 * q + 3 for grid point q itself.
    """
    nx, ny, nz = grid.dims
    vol = grid.values_3d().astype(np.float64)
    corner_vals = [vol[dz: dz + nz - 1, dy: dy + ny - 1, dx: dx + nx - 1]
                   for dx, dy, dz in CORNER_OFFSETS]
    case = np.zeros(corner_vals[0].shape, dtype=np.int32)
    for n, cv in enumerate(corner_vals):
        case |= (cv < iso).astype(np.int32) << n
    active = np.nonzero(CROSSED_EDGES[case] != 0)
    if len(active[0]) == 0:
        return TriangleSoup(), 0
    kk, jj, ii = (a.astype(np.int64) for a in active)
    acase = case[active]
    vals = np.stack([cv[active] for cv in corner_vals], axis=1)
    cell = np.stack([ii, jj, kk], axis=1)
    offsets = np.asarray(CORNER_OFFSETS, dtype=np.int64)
    edge_ids = np.zeros((len(acase), 12), dtype=np.int64)
    edge_verts = np.zeros((len(acase), 12, 3))
    bits = CROSSED_EDGES[acase]
    for e, (c0, c1) in enumerate(EDGE_CORNERS):
        sel = (bits & (1 << e)) != 0
        lo, hi = (c0, c1) if offsets[c0].sum() < offsets[c1].sum() else (c1, c0)
        axis = int(np.argmax(offsets[hi] - offsets[lo]))
        t = (iso - vals[sel, lo]) / (vals[sel, hi] - vals[sel, lo])
        ijk_lo, ijk_hi = cell[sel] + offsets[lo], cell[sel] + offsets[hi]
        p_lo = grid.origin + ijk_lo * grid.spacing
        p_hi = grid.origin + ijk_hi * grid.spacing
        q_lo, q_hi = ijk_lo @ (1, nx, nx * ny), ijk_hi @ (1, nx, nx * ny)
        verts = p_lo + t[:, None] * (p_hi - p_lo)
        ids = 4 * q_lo + axis
        at_lo, at_hi = t <= SNAP_T, 1 - t <= SNAP_T
        verts[at_lo], ids[at_lo] = p_lo[at_lo], 4 * q_lo[at_lo] + 3
        verts[at_hi], ids[at_hi] = p_hi[at_hi], 4 * q_hi[at_hi] + 3
        edge_verts[sel, e], edge_ids[sel, e] = verts, ids
    emitted = [ci for ci in np.unique(acase) if TRI_TABLE[ci]]
    corner_ids = np.concatenate([edge_ids[acase == ci][:, TRI_TABLE[ci]].ravel()
                                 for ci in emitted])
    corner_verts = np.concatenate([edge_verts[acase == ci][:, TRI_TABLE[ci]].reshape(-1, 3)
                                   for ci in emitted])
    # every cell that names a vertex computes the same bits for it
    ids, first, inverse = np.unique(corner_ids, return_index=True, return_inverse=True)
    assert np.array_equal(corner_verts, corner_verts[first][inverse])
    triangles = corner_ids.reshape(-1, 3)
    kept = triangles[(triangles[:, 0] != triangles[:, 1])
                     & (triangles[:, 1] != triangles[:, 2])
                     & (triangles[:, 2] != triangles[:, 0])]
    used, kept = np.unique(kept, return_inverse=True)
    soup = TriangleSoup(vertices=corner_verts[first][np.searchsorted(ids, used)],
                        triangles=kept.reshape(-1, 3).astype(np.int64))
    return soup, len(triangles) - len(soup.triangles)


def reference_euler(soup):
    if len(soup.triangles) == 0:
        return 0
    tris = soup.triangles
    edges = np.sort(np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
    return int(len(np.unique(tris)) - len(np.unique(edges, axis=0)) + len(tris))


def reference_obj_bytes(soup, path):
    with open(path, "w", encoding="ascii") as fh:
        for v in soup.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for t in soup.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")
    return path.read_bytes()


_MS_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(0, 2)],
    11: [(1, 2)], 12: [(1, 3)], 13: [(0, 1)], 14: [(0, 3)],
}
# Each cell edge runs from its low corner to its high one, so a segment end
# is interpolated from the edge's low sample, as a marching cubes vertex is.
_MS_EDGE_CORNERS = ((0, 1), (1, 2), (3, 2), (0, 3))


def reference_marching_squares(grid, iso):
    """(polylines, {(case, center solid): count} over cases 5 and 10)."""
    nx, ny, _ = grid.dims
    vals = grid.values_3d()[0].astype(np.float64)
    ox, oy, z = grid.origin
    dx, dy = grid.spacing[0], grid.spacing[1]
    polylines, ambiguous = [], {}
    for j in range(ny - 1):
        for i in range(nx - 1):
            cv = (vals[j, i], vals[j, i + 1], vals[j + 1, i + 1], vals[j + 1, i])
            case = sum(1 << n for n in range(4) if cv[n] >= iso)
            if case in (0, 15):
                continue
            if case in (5, 10):
                solid = 0.25 * sum(cv) >= iso
                ambiguous[case, solid] = ambiguous.get((case, solid), 0) + 1
                if case == 5:
                    segs = [(0, 1), (2, 3)] if solid else [(3, 0), (1, 2)]
                else:
                    segs = [(3, 0), (1, 2)] if solid else [(0, 1), (2, 3)]
            else:
                segs = _MS_SEGMENTS[case]
            cp = ((ox + i * dx, oy + j * dy), (ox + (i + 1) * dx, oy + j * dy),
                  (ox + (i + 1) * dx, oy + (j + 1) * dy), (ox + i * dx, oy + (j + 1) * dy))
            for seg in segs:
                pts = []
                for e in seg:
                    c0, c1 = _MS_EDGE_CORNERS[e]
                    t = (iso - cv[c0]) / (cv[c1] - cv[c0])
                    pts.append((cp[c0][0] + t * (cp[c1][0] - cp[c0][0]),
                                cp[c0][1] + t * (cp[c1][1] - cp[c0][1]), z))
                polylines.append(np.asarray(pts))
    return polylines, ambiguous


# --- volumes --------------------------------------------------------------


def tpms_volume(kind, resolution=40):
    grid = ax.make_grid(np.zeros(3), np.full(3, 2.0 * np.pi), resolution, 0.0)
    return ax.sample_field(ax.TpmsField(kind), grid, workers=1)


def sphere_volume(center, radius, resolution, half_extent=1.0):
    center = np.asarray(center, dtype=np.float64)
    g = ax.make_grid(center - half_extent, center + half_extent, resolution, 0.0)
    g.values[:] = (radius - np.linalg.norm(g.positions() - center, axis=1)).astype(np.float32)
    return g


@pytest.fixture(scope="module")
def hex_volume():
    mesh = ax.perturb_mesh(samples.hex_block_mesh(),
                           ax.PerturbSpec(magnitude=0.2, seed=3, vertex_fraction=0.7))
    model = ax.fit_mesh(mesh, ax.Basis("imq", 0.1), "anisotropic")[0]
    return ax.sample_field(model, ax.make_grid(*model.bbox(), 28, 0.05), workers=1)


def assert_same_soup(grid, iso):
    ref, dropped = reference_marching_cubes(grid, iso)
    soup = marching_cubes(grid, iso)
    assert soup.vertices.dtype == np.float64 and soup.triangles.dtype == np.int32
    assert np.array_equal(soup.vertices, ref.vertices)
    assert np.array_equal(soup.triangles, ref.triangles)
    assert euler_characteristic(soup) == reference_euler(ref)
    assert np.array_equal(np.unique(soup.triangles), np.arange(len(soup.vertices)))
    return soup, dropped


# --- marching cubes -------------------------------------------------------


@pytest.mark.parametrize("kind", ["p", "d", "g", "iwp"])
def test_tpms_volumes_match_reference(kind):
    vol = tpms_volume(kind)
    for iso in (-0.6, -0.2, 0.0, 0.4):
        soup, _ = assert_same_soup(vol, iso)
        assert len(soup.triangles) > 0


def test_fitted_hex_volume_matches_reference(hex_volume):
    for iso in (-0.3, 0.0, 0.1, 0.3):
        assert_same_soup(hex_volume, iso)


@pytest.mark.parametrize("center,radius,resolution,iso", [
    ((0.05, -0.02, 0.01), 0.7, 24, 0.0),
    ((0.0, 0.0, 0.0), 0.7, 24, 0.2),
    ((0.0, 0.0, 0.0), 0.6, 16, 0.0),
])
def test_sphere_grids_match_reference(center, radius, resolution, iso):
    assert_same_soup(sphere_volume(center, radius, resolution), iso)


def test_empty_result_matches_reference():
    g = ax.make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    g.values[:] = 0.5
    for iso in (-1.0, 2.0):
        soup, _ = assert_same_soup(g, iso)
        assert soup.vertices.shape == (0, 3) and soup.triangles.shape == (0, 3)


def test_every_case_of_a_single_cell_matches_reference():
    g = ax.make_grid(np.zeros(3), np.ones(3), 2, 0.0)
    assert g.dims == (2, 2, 2)
    ramp = np.array([0.3, 1.7, 0.9, 2.2, 1.1, 0.6, 1.9, 0.4])
    for case in range(256):
        below = (case >> np.arange(8)) & 1
        for n, (dx, dy, dz) in enumerate(CORNER_OFFSETS):
            g.values_3d()[dz, dy, dx] = -ramp[n] if below[n] else ramp[n]
        soup, _ = assert_same_soup(g, 0.0)
        assert (len(soup.triangles) > 0) == (case not in (0, 255))


def test_every_tri_table_row_uses_exactly_the_crossed_edges():
    for case, row in enumerate(TRI_TABLE):
        crossed = {e for e in range(len(EDGE_CORNERS)) if CROSSED_EDGES[case] >> e & 1}
        assert set(row) == crossed, f"case {case}"


def test_quantized_volume_merges_and_drops_like_reference():
    # Samples on a coarse lattice of values with the iso among them: vertices
    # land exactly on grid points (t = 0 or 1), several edges weld into one
    # vertex and the triangles they collapse are dropped.
    vol = tpms_volume("g", 24)
    vol.values[:] = np.round(vol.values * 4.0) / 4.0
    total_dropped = 0
    for iso in (-0.5, 0.0, 0.25):
        soup, dropped = assert_same_soup(vol, iso)
        assert np.any(np.isin(vol.values, np.float32(iso)))
        total_dropped += dropped
    assert total_dropped > 0


def test_an_unsnapped_vertex_whose_triangles_all_collapse_goes():
    # Sample 0 lies 1e-9 below the iso and its neighbours along x and y 1
    # above it, so their edges snap to sample 0 (t = 1e-9); its neighbour
    # along z lies 1e-9 above, so that edge does not (t = 0.5).  The cell's
    # one triangle repeats sample 0, and the z edge, a grid edge no other
    # cell has, loses its only triangle.  The next cell holds a plain quad.
    g = ax.VoxelGrid(origin=np.zeros(3), spacing=np.ones(3), dims=(3, 2, 2),
                     values=np.tile(np.float32([1.0, 1.0, -1.0]), 4))
    g.values[[0, 6]] = [-1e-9, 1e-9]
    soup, dropped = assert_same_soup(g, 0.0)
    assert dropped == 1 and len(soup.triangles) == 2 and len(soup.vertices) == 4
    assert np.all(soup.vertices[:, 0] == 1.5)


@given(st.integers(2, 5), st.integers(2, 5), st.integers(2, 5),
       st.integers(0, 2 ** 32 - 1), st.sampled_from([-1.0, 0.0, 0.5]))
def test_small_lattice_volumes_match_reference(nx, ny, nz, seed, iso):
    # Besides the lattice values, the float32 values one ulp either side of
    # the iso and +-1e-9 around 0: snaps with t near SNAP_T, not only t = 0,
    # and unsnapped vertices whose triangles all collapse.
    near = np.nextafter(np.float32(iso), np.float32([-np.inf, np.inf]))
    values = np.concatenate([[-1.0, -0.5, 0.0, 0.5, 1.0, -1e-9, 1e-9], near])
    g = ax.VoxelGrid(origin=np.array([0.1, -0.3, 2.0]), spacing=np.array([0.5, 0.25, 0.3]),
                     dims=(nx, ny, nz), values=np.zeros(nx * ny * nz, dtype=np.float32))
    g.values[:] = np.random.default_rng(seed).choice(values, g.values.size)
    assert_same_soup(g, iso)


def test_far_offset_grid_matches_reference():
    # A grid 1.2e4 from the origin with a spacing of 9e-5: coordinates keep
    # only about 8 significant digits of their offset within the grid.
    g = ax.make_grid(np.full(3, 1.2e4), np.full(3, 1.2e4 + 1e-3), 12, 0.0)
    g.values[:] = np.random.default_rng(1).standard_normal(g.values.size).astype(np.float32)
    assert_same_soup(g, 0.0)


# --- OBJ export -----------------------------------------------------------


def test_obj_bytes_match_reference(tmp_path, hex_volume):
    rng = np.random.default_rng(7)
    wide = rng.standard_normal((70_000, 3)) * 10.0 ** rng.integers(-12, 12, (70_000, 3))
    wide[:5] = [[-0.0, 0.0, 1e-300], [1e300, -1e-310, 123456789.0],
                [0.1, 1 / 3, 2.0 ** 60], [-5e-324, 1.5, 2.5], [1e16, 1e-5, 99999.9995]]
    soups = {
        "empty": TriangleSoup(),
        "tpms": marching_cubes(tpms_volume("d"), 0.1),
        "hex": marching_cubes(hex_volume, 0.0),
        "wide": TriangleSoup(vertices=wide,
                             triangles=rng.integers(0, 70_000, (140_000, 3)).astype(np.int64)),
    }
    for name, soup in soups.items():
        path = tmp_path / f"{name}.obj"
        export_obj(soup, str(path))
        assert path.read_bytes() == reference_obj_bytes(soup, tmp_path / f"{name}_ref.obj")


def _bits_to_float(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


_SIGN = st.sampled_from([1.0, -1.0])
# Any float64 bit pattern (NaN payloads, subnormals, +-0, +-inf included);
# hypothesis' own float edge cases; exact and near 9-digit rounding ties
# (m + 1/2) * 10**-k; values that round up to a power of ten, like
# 99999.9995 and 9.9999999995; and the fixed-notation limits 1e-4 and 1e9.
_COORDINATES = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_bits_to_float),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.builds(lambda m, k, s: s * (m + 0.5) / 10.0 ** k,
              st.integers(10 ** 8, 10 ** 9 - 1), st.integers(0, 13), _SIGN),
    st.builds(lambda p, s: s * 10.0 ** p * (1 - 5e-10), st.integers(-6, 10), _SIGN),
    st.builds(lambda p, s: s * np.nextafter(10.0 ** p, 0.0), st.integers(-6, 10), _SIGN),
    st.sampled_from([0.0, -0.0, 0.5e-4, 1e-4, 9.99999999995e-5, np.nextafter(1e-4, 0.0),
                     99999.9995, 9.9999999995, 999999999.5, np.nextafter(1e9, 0.0), 1e9,
                     5e-324, -5e-324, 2.2250738585072014e-308]),
)
# 0-based indices whose 1-based form straddles a digit count: 9/10, 99/100, ...
_FACE_INDICES = st.integers(0, 15).flatmap(
    lambda d: st.integers(max(0, 10 ** d - 3), 10 ** d + 1))


@pytest.fixture(scope="module")
def obj_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("obj")


@given(st.lists(_COORDINATES, max_size=45), st.lists(_FACE_INDICES, max_size=45))
def test_obj_bytes_match_reference_on_edge_values(obj_dir, coords, indices):
    coords += [0.0] * (-len(coords) % 3)
    indices += [0] * (-len(indices) % 3)
    vertices = np.array(coords, dtype=np.float64).reshape(-1, 3)
    tris = np.array(indices, dtype=np.int64).reshape(-1, 3)
    # export_obj takes only indices below nv, so the digits of larger ones
    # are checked on the face lines themselves
    nv = len(vertices)
    soup = TriangleSoup(vertices=vertices, triangles=tris % nv if nv else tris[:0])
    if np.isfinite(vertices).all():
        export_obj(soup, str(obj_dir / "got.obj"))
        assert (obj_dir / "got.obj").read_bytes() == reference_obj_bytes(soup, obj_dir / "ref.obj")
    else:  # export_obj refuses what load_obj would, so its formatter is checked alone
        with pytest.raises(ValidationError):
            export_obj(soup, str(obj_dir / "refused.obj"))
        assert _vertex_lines(vertices) == reference_obj_bytes(
            TriangleSoup(vertices=vertices), obj_dir / "ref.obj")
    if len(tris):  # the digit routine of export_obj's index table
        assert _line_bytes(_index_slots(tris + 1), "f") == "".join(
            "f %d %d %d\n" % tuple(t) for t in (tris + 1).tolist()).encode()


def test_face_chunks_share_one_index_table(tmp_path):
    # More triangles than a chunk holds, so several face chunks gather from
    # the table of 1..nv, and 1-based indices of 3 and 4 digits.
    nv = 1500
    rng = np.random.default_rng(11)
    tris = rng.integers(0, nv, (2 * OBJ_CHUNK_ROWS + 123, 3), dtype=np.int32)
    tris[:3] = [[998, 999, 0], [nv - 1, 997, 999], [0, 1, 2]]
    soup = TriangleSoup(vertices=rng.standard_normal((nv, 3)), triangles=tris)
    path = tmp_path / "chunks.obj"
    export_obj(soup, str(path))
    got = path.read_bytes()
    assert b"\nf 999 1000 1\nf 1500 998 1000\nf 1 2 3\n" in got
    assert got == reference_obj_bytes(soup, tmp_path / "ref.obj")



# --- the axes a marching_cubes soup carries ------------------------------

# Grid axes origin + i * step: the origins and steps put axis values at
# +-0.0, below 1e-4 and at or above 1e9, so some go through '%'.
_AXIS_ORIGINS = [0.0, -0.0, -1.5, 5e-324, 1.2e4, -3e-5, 1e9, -2.5e9]
_AXIS_STEPS = [0.25, 1 / 3, 9e-5, 1e-5, 7.5e8, 0.1]
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e9, -2.5e9, 3e-5, -7e-5, 99999.9995]
# Axes no grid has: a zero step, a NaN first entry, an infinite step, and
# a step that overflows; the index of every coordinate is clamped into them.
_DEGENERATE_AXES = [np.ones(3), np.array([np.nan, 1.0, 2.0]), np.array([0.0, np.inf]),
                    np.array([-1e308, 1e308])]


def _draw_axes(data):
    def three(strategy):
        return [data.draw(strategy) for _ in range(3)]

    return ax.VoxelGrid(origin=np.array(three(st.sampled_from(_AXIS_ORIGINS))),
                        spacing=np.array(three(st.sampled_from(_AXIS_STEPS))),
                        dims=tuple(three(st.integers(2, 12))),
                        values=np.zeros(0, dtype=np.float32)).axes()


def _draw_coordinate(data, axis):
    i = data.draw(st.integers(0, len(axis) - 1))
    return data.draw(st.one_of(
        st.just(axis[i]),                                      # on the axis
        st.floats(0, 1).map(lambda f: axis[i] + f * (axis[-1] - axis[0]) / (len(axis) - 1)),
        st.sampled_from(_SPECIAL),
        _COORDINATES.filter(np.isfinite)))


@given(st.data())
def test_obj_bytes_do_not_depend_on_the_axes(obj_dir, data):
    axes = _draw_axes(data)
    kind = data.draw(st.sampled_from(["right", "stale", "columns", "reversed", "negated",
                                      "degenerate"]))
    hint = {"right": lambda: axes,
            "stale": lambda: _draw_axes(data),
            "columns": lambda: tuple(axes[c] for c in data.draw(st.permutations(range(3)))),
            "reversed": lambda: tuple(a[::-1] for a in axes),
            "negated": lambda: tuple(-a for a in axes),   # 0.0 becomes -0.0
            "degenerate": lambda: tuple(data.draw(st.sampled_from(_DEGENERATE_AXES + [a]))
                                        for a in axes)}[kind]()
    rows = data.draw(st.integers(1, 30))
    vertices = np.array([[_draw_coordinate(data, a) for a in axes] for _ in range(rows)])
    triangles = np.arange(3 * rows).reshape(-1, 3) % rows
    export_obj(TriangleSoup(vertices, triangles, _axes=hint), str(obj_dir / "hinted.obj"))
    export_obj(TriangleSoup(vertices, triangles), str(obj_dir / "bare.obj"))
    assert (obj_dir / "hinted.obj").read_bytes() == (obj_dir / "bare.obj").read_bytes()


def test_marching_cubes_records_the_grid_axes(tmp_path):
    def assert_axes(soup, grid):
        assert len(soup._axes) == 3
        for got, want in zip(soup._axes, grid.axes(), strict=True):
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    # A vertex with all three coordinates on the axes is a snapped one.
    def snapped(soup):
        return np.all([np.isin(soup.vertices[:, c], soup._axes[c]) for c in range(3)], axis=0).sum()

    sphere = sphere_volume((0.1, 0.2, 0.3), 0.6, 12, half_extent=1.3)
    diamond = tpms_volume("d", 24)
    # unsnapped, snapped (the D surface at iso 0) and empty
    for grid, iso, n_vertices, snaps in [(sphere, 0.05, 1, False), (diamond, 0.0, 1, True),
                                         (sphere, 5.0, 0, False)]:
        soup = marching_cubes(grid, iso)
        assert_axes(soup, grid)
        assert min(len(soup.vertices), 1) == n_vertices and (snapped(soup) > 0) == snaps
    path = str(tmp_path / "d.obj")
    export_obj(marching_cubes(diamond, 0.0), path)
    assert ax.load_obj(path)._axes is None and TriangleSoup()._axes is None


# --- marching squares -----------------------------------------------------


def assert_same_polylines(grid, iso):
    ref, ambiguous = reference_marching_squares(grid, iso)
    got = marching_squares(grid, iso).polylines
    assert len(got) == len(ref)
    for p, q in zip(got, ref):
        assert p.shape == q.shape == (2, 3) and p.dtype == q.dtype
        assert np.array_equal(p, q)
    return ambiguous


def test_marching_squares_tpms_slice_matches_reference():
    grid = ax.make_grid_2d(np.zeros(2), np.full(2, 2.0 * np.pi), 96)
    field = ax.sample_field(ax.TpmsField("g"), grid, workers=1)
    for iso in (-0.5, 0.0, 0.3):
        assert_same_polylines(field, iso)


def test_marching_squares_both_ambiguous_resolutions_match_reference():
    grid = ax.make_grid_2d(np.array([-0.3, 1.1]), np.array([0.9, 2.0]), 48)
    grid.values[:] = np.random.default_rng(5).standard_normal(grid.values.size)
    seen = {}
    for iso in (-0.2, 0.0, 0.2):
        for key, n in assert_same_polylines(grid, iso).items():
            seen[key] = seen.get(key, 0) + n
    assert set(seen) == {(5, False), (5, True), (10, False), (10, True)}


def test_marching_squares_empty_and_single_cell():
    grid = ax.make_grid_2d(np.zeros(2), np.ones(2), 2)
    assert grid.dims == (2, 2, 1)
    for case in range(16):
        for center in (-0.1, 0.1):
            signs = np.where((case >> np.arange(4)) & 1, 1.0, -1.0)
            vals = signs + center   # corner order 0:(0,0) 1:(1,0) 2:(1,1) 3:(0,1)
            grid.values[:] = [vals[0], vals[1], vals[3], vals[2]]
            assert_same_polylines(grid, 0.0)


@pytest.mark.parametrize("corners,case", [
    ((1.0, -1.0, 2.0 ** -60, -(2.0 ** -61)), 5),
    ((-1.0, 1.0, -(2.0 ** -61), 2.0 ** -60), 10),
])
def test_marching_squares_center_sums_corners_in_order(corners, case):
    # ((v0 + v1) + v2) + v3 = 2^-61, so the center 2^-63 is solid at iso
    # 2^-64; pairing the corners another way sums to 0 and splits the cell.
    grid = ax.make_grid_2d(np.zeros(2), np.ones(2), 2)
    v0, v1, v2, v3 = corners
    grid.values[:] = [v0, v1, v3, v2]
    iso = 2.0 ** -64
    assert assert_same_polylines(grid, iso) == {(case, True): 1}
