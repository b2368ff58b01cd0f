"""Voxel grid construction, parallel field sampling, and volume files."""

import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold.errors import ParseError, ValidationError
from arbfscaffold.grid import (
    FieldSource,
    VoxelGrid,
    _iso_threshold,
    bbox_diagonal,
    make_grid,
    make_grid_2d,
    read_volume,
    sample_field,
    solid_fraction,
    write_volume,
)


def test_bbox_diagonal_neither_overflows_nor_underflows():
    # np.linalg.norm squares the entries: (3 * 2**600)² overflows, (3 * 2**-700)² underflows
    for k in (600, -700, 0):
        assert bbox_diagonal(np.zeros(3), np.array([3.0, 4.0, 0.0]) * 2.0 ** k) == 5.0 * 2.0 ** k
    g = make_grid((0, 0, 0), (1e200, 1, 1), 8, 0.0)
    assert g.dims == (8, 2, 2) and g.bbox()[1][0] == 1e200


@given(st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3),
       st.lists(st.floats(-1e150, 1e150), min_size=3, max_size=3))
def test_bbox_diagonal_has_the_bits_of_norm_where_norm_is_exact(lo, hi):
    lo, hi = np.array(lo), np.array(hi)
    e = np.abs(hi - lo)
    if np.all((e == 0) | (e > 1e-150)):  # no square in norm underflows
        assert bbox_diagonal(lo, hi) == np.linalg.norm(hi - lo)


def test_make_grid_unit_cube_padding():
    g = make_grid(np.zeros(3), np.ones(3), 64, 0.05)
    # pad is 5% of the bbox diagonal sqrt(3) on every side
    assert g.origin[0] == -0.08660254037844387
    assert np.all(g.origin == g.origin[0])
    assert g.dims == (64, 64, 64)
    lo, hi = g.bbox()
    assert np.allclose(hi, 1.0 - g.origin)


def test_make_grid_anisotropic_dims():
    g = make_grid(np.zeros(3), np.array([2.0, 1.0, 1.0]), 64, 0.0)
    assert g.dims == (64, 32, 32)
    # spacing is per-axis extent over (n - 1)
    assert g.spacing[0] == pytest.approx(2.0 / 63.0)
    assert g.spacing[1] == pytest.approx(1.0 / 31.0)


def test_make_grid_never_collapses_an_axis():
    g = make_grid(np.zeros(3), np.array([100.0, 1.0, 1.0]), 16, 0.0)
    assert g.dims[1] >= 2 and g.dims[2] >= 2


def test_make_grid_validation():
    with pytest.raises(ValidationError, match="bbox must have hi >= lo"):
        make_grid(np.ones(3), np.zeros(3), 8)
    with pytest.raises(ValidationError, match="positive, finite extent"):
        make_grid(np.zeros(3), np.array([1.0, 0.0, 1.0]), 8)  # flat axis
    with pytest.raises(ValidationError):
        make_grid(np.zeros(3), np.ones(3), 1)
    with pytest.raises(ValidationError):
        make_grid(np.zeros(3), np.ones(3), 8, pad_fraction=-0.1)


@pytest.mark.parametrize("pad", [np.inf, np.nan])
def test_make_grid_needs_a_finite_pad_fraction(pad):
    with pytest.raises(ValidationError, match="pad_fraction must be finite"):
        make_grid(np.zeros(3), np.ones(3), 8, pad_fraction=pad)


@pytest.mark.parametrize("build", [make_grid, make_grid_2d])
@pytest.mark.parametrize("resolution", [64.7, 64.0, np.float64(8.0), "8", None])
def test_grids_reject_a_resolution_that_is_not_an_integer(build, resolution):
    # 64.7 used to round to 65 samples per axis
    with pytest.raises(ValidationError, match="resolution must be an integer") as err:
        build(np.zeros(3), np.array([1.0, 1.0, 0.0]), resolution)
    assert str(err.value).endswith(f"got {resolution!r}")


@pytest.mark.parametrize("build", [make_grid, make_grid_2d])
@pytest.mark.parametrize("resolution", [9, np.int64(9), np.int32(9), np.uint8(9)])
def test_grids_accept_python_and_numpy_integer_resolutions(build, resolution):
    g = build(np.zeros(3), np.array([1.0, 1.0, 0.0]), resolution, 0.1)
    assert g.dims[:2] == (9, 9)


@pytest.mark.parametrize("build,most", [(make_grid, 4096), (make_grid_2d, 2**18)])
@pytest.mark.parametrize("resolution", [10**400, 10**6], ids=["1e400", "1e6"])
def test_grids_refuse_a_resolution_too_large_to_hold(build, most, resolution):
    # 10**400 overflowed a float and 10**6 asked numpy for 3.47 EiB; both are
    # refused before any sample array exists
    with pytest.raises(ValidationError) as err:
        build(np.zeros(3), np.array([1.0, 1.0, 0.0]), resolution)
    assert str(err.value) == f"resolution must be in [2, {most}], got {resolution}"


def test_make_grid_rejects_a_bbox_without_three_coordinates():
    # a ScaffoldError, not numpy's "cannot reshape" ValueError
    with pytest.raises(ValidationError, match="3 coordinates"):
        make_grid((0.0, 0.0), (1.0, 1.0), 8)


def test_make_grid_2d_rejects_corners_of_different_length():
    # not a grid whose origin has only two entries
    with pytest.raises(ValidationError, match="2 or 3 coordinates"):
        make_grid_2d((0.0,), (1.0, 1.0), 8)


def test_make_grid_2d_rejects_unequal_z():
    # not a slice silently placed at the lower z
    with pytest.raises(ValidationError, match="equal z"):
        make_grid_2d((0.0, 0.0, 0.0), (1.0, 1.0, 5.0), 8)


def test_flat_bbox_samples_once_padded():
    # A planar model's bbox is flat along z; the padding gives it extent.
    g = make_grid(np.zeros(3), np.array([1.0, 1.0, 0.0]), 16, pad_fraction=0.05)
    assert all(d >= 2 for d in g.dims)
    lo, hi = g.bbox()
    assert np.all(hi > lo) and lo[2] < 0.0 < hi[2]
    with pytest.raises(ValidationError, match="positive, finite extent"):
        make_grid(np.ones(3), np.ones(3), 16, pad_fraction=0.05)   # a point stays flat


def test_make_grid_2d_single_slab():
    g = make_grid_2d(np.zeros(3), np.array([1.0, 1.0, 0.0]), 32, 0.0)
    assert g.dims[2] == 1
    assert g.spacing[2] == 1.0
    assert g.positions().shape == (32 * 32, 3)


def test_index_position_round_trip():
    g = make_grid(np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 4.0]), 9, 0.0)
    nx, ny, nz = g.dims
    flat = g.positions()
    for (i, j, k) in [(0, 0, 0), (1, 2, 3), (nx - 1, ny - 1, nz - 1)]:
        idx = i + nx * (j + ny * k)
        assert np.array_equal(flat[idx], g.positions([idx])[0])
    assert np.array_equal(flat[10:40], g.positions(np.arange(10, 40)))
    for same in (np.array([[40], [0]]), np.array([40.0, 0.0]), np.array([40, 0], np.uint8)):
        assert g.positions(same).tobytes() == flat[[40, 0]].tobytes()


@pytest.mark.parametrize("idx,got", [([-1], "got -1"), ([70], "got 70"), ([0, 64, 3], "got 64"),
                                     ([[2.5]], "must hold integers, got 2.5"),
                                     (["1"], "must hold integers, got dtype <U1")])
def test_positions_refuses_an_index_outside_the_grid(idx, got):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)  # 64 samples
    with pytest.raises(ValidationError, match=f"^sample indices .*{got}$"):
        g.positions(idx)


@given(st.tuples(*[st.floats(-2e4, 2e4)] * 3), st.tuples(*[st.floats(1e-4, 10.0)] * 3),
       st.tuples(*[st.integers(1, 30)] * 3), st.data())
def test_positions_are_origin_plus_index_times_spacing(origin, spacing, dims, data):
    g = VoxelGrid(origin=np.array(origin), spacing=np.array(spacing), dims=dims,
                  values=np.zeros(int(np.prod(dims)), dtype=np.float32))
    ijk = np.array(data.draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in dims]),
                                      min_size=1, max_size=50)))
    idx = ijk[:, 0] + dims[0] * (ijk[:, 1] + dims[1] * ijk[:, 2])
    assert g.positions(idx).tobytes() == (g.origin + ijk * g.spacing).tobytes()


def test_values_3d_is_a_view():
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    g.values[:] = np.arange(64, dtype=np.float32)
    v = g.values_3d()
    assert v.shape == (4, 4, 4)
    assert v[2, 1, 3] == g.values[3 + 4 * (1 + 4 * 2)]
    v[0, 0, 0] = -5.0
    assert g.values[0] == -5.0


class Plane:
    """x + 2y - 3z, a source with only the method sample_field calls."""

    def evaluate_axes(self, x, y, z):
        return x + 2.0 * y - 3.0 * z


class SineSum(FieldSource):
    def evaluate_axes(self, x, y, z):
        return np.sin(x) + np.sin(y) + np.sin(z)


class NanAtChunkStart(FieldSource):
    def evaluate_axes(self, x, y, z):
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape))
        out.flat[0] = np.nan
        return out


def test_sample_field_equals_the_source_at_positions():
    g = make_grid(np.zeros(3), np.ones(3), 8, 0.0)
    a = sample_field(Plane(), g)
    assert a.values.dtype == np.float32
    p = g.positions()
    ref = (p[:, 0] + 2.0 * p[:, 1] - 3.0 * p[:, 2]).astype(np.float32)
    assert np.array_equal(a.values, ref)


def test_sample_field_worker_count_is_invisible():
    g = make_grid(np.zeros(3), np.ones(3), 24, 0.0)
    outs = [sample_field(SineSum(), g, workers=w).values for w in (1, 2, 8)]
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])
    assert np.array_equal(outs[0], SineSum().evaluate_many(g.positions()).astype(np.float32))


def test_sample_field_rejects_non_finite():
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    with pytest.raises(ValidationError):
        sample_field(NanAtChunkStart(), g)


class EvaluateManyOnly:
    def evaluate_many(self, pts):
        return pts[:, 0]


@pytest.mark.parametrize("source", [lambda pts: pts[:, 0], EvaluateManyOnly()],
                         ids=["bare-callable", "evaluate-many-only"])
def test_sample_field_needs_evaluate_axes(source):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    with pytest.raises(ValidationError, match=r"evaluate_axes\(x, y, z\)"):
        sample_field(source, g)


def test_sample_field_worker_count():
    # one worker by default, 0 for one per core, and no negative count
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    expected = sample_field(SineSum(), g).values
    assert np.array_equal(sample_field(SineSum(), g, workers=0).values, expected)
    with pytest.raises(ValidationError, match="worker count must be >= 0, got -1"):
        sample_field(SineSum(), g, workers=-1)


def test_solid_fraction():
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    g.values[:] = np.linspace(-1.0, 1.0, g.values.size, dtype=np.float32)
    assert solid_fraction(g, -2.0) == 1.0
    assert solid_fraction(g, 2.0) == 0.0
    assert solid_fraction(g, 0.0) == pytest.approx(0.5, abs=0.05)


def test_solid_fraction_compares_in_float64_like_marching_cubes():
    # float32(0.7) = 0.69999999 lies below the float64 iso 0.7, so the bottom
    # layer is not solid, and marching cubes finds a surface above it.
    g = make_grid(np.zeros(3), np.ones(3), 3, 0.0)
    g.values[:] = 1.0
    g.values_3d()[0] = np.float32(0.7)
    assert solid_fraction(g, 0.7) == pytest.approx(18 / 27)
    assert len(ax.marching_cubes(g, 0.7).triangles) == 8


def test_samples_of_another_dtype_are_compared_in_float64():
    # A hand-made grid may hold float64 samples: the float32 threshold of 0.7
    # would put the float64 sample 0.7 below it.
    g = VoxelGrid(origin=np.zeros(3), spacing=np.ones(3), dims=(2, 2, 2),
                  values=np.full(8, 0.7))
    g.values[:4] = 0.0
    assert solid_fraction(g, 0.7) == 0.5
    assert len(ax.marching_cubes(g, 0.7).triangles) == 2


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
_FLT_MAX = float(np.finfo(np.float32).max)


def _between_float32_neighbours(x, frac):
    """A float64 strictly between float32 x and the next float32 up, or x itself."""
    up = float(np.nextafter(np.float32(x), np.float32(np.inf)))
    return x + frac * (up - x) if np.isfinite(up) else x


# Float32 values, float64 values between two float32 neighbours (the midpoint
# and one float64 ulp off either side included), +-FLT_MAX and beyond, and
# values among and between the float32 subnormals.
_ISOS = st.one_of(
    _F32,
    st.builds(_between_float32_neighbours, _F32, st.sampled_from([0.5, 0.25, 1e-9, 1 - 1e-9])),
    _F32.map(lambda x: float(np.nextafter(x, np.inf))),
    _F32.map(lambda x: float(np.nextafter(x, -np.inf))),
    st.sampled_from([_FLT_MAX, -_FLT_MAX, float(np.nextafter(_FLT_MAX, np.inf)),
                     float(np.nextafter(-_FLT_MAX, -np.inf)), 1e300, -1e300, 1e-46, -1e-46,
                     5e-324, -5e-324, 0.0, -0.0, 7e-46, -2.1e-45]),
    st.builds(lambda x, sign: sign * x, st.floats(min_value=_FLT_MAX, allow_infinity=False),
              st.sampled_from([1.0, -1.0])),
    st.floats(-1.2e-38, 1.2e-38),
)


@given(st.lists(_F32, max_size=20), _ISOS)
def test_float32_threshold_compares_as_float64(values, iso):
    # The samples are float32; comparing them with the least float32 >= iso
    # gives the booleans of comparing them with iso in float64.
    c = _iso_threshold(np.zeros(0, dtype=np.float32), iso)
    assert c.dtype == np.float32 and float(c) >= iso
    near = np.float32(np.clip(iso, -_FLT_MAX, _FLT_MAX))
    with np.errstate(over="ignore"):   # the neighbours of +-FLT_MAX are +-inf
        v = np.array(values + [near, np.nextafter(near, np.float32(np.inf)),
                               np.nextafter(near, np.float32(-np.inf))], dtype=np.float32)
    v = v[np.isfinite(v)]
    assert np.array_equal(v >= c, v.astype(np.float64) >= iso)
    assert np.array_equal(v < c, v.astype(np.float64) < iso)
    g = VoxelGrid(origin=np.zeros(3), spacing=np.ones(3), dims=(len(v), 1, 1), values=v)
    assert solid_fraction(g, iso) == np.count_nonzero(v.astype(np.float64) >= iso) / len(v)


def test_axes_hold_the_positions_values():
    g = VoxelGrid(origin=np.array([1.2e4, -3.7, 0.1]), spacing=np.array([1e-3, 0.37, 2.9]),
                  dims=(5, 3, 4), values=np.zeros(60, dtype=np.float32))
    xs, ys, zs = g.axes()
    pos = g.positions()
    k, j, i = np.indices((4, 3, 5)).reshape(3, -1)
    assert np.array_equal(pos, g.origin + np.stack([i, j, k], axis=1) * g.spacing)
    assert np.array_equal(pos[:, 0], np.tile(xs, 12))
    assert np.array_equal(pos[:, 1], np.tile(np.repeat(ys, 5), 4))
    assert np.array_equal(pos[:, 2], np.repeat(zs, 15))
    assert np.array_equal(g.positions(np.arange(7, 23)), pos[7:23])
    assert np.array_equal(g.positions([4 + 5 * (2 + 3 * 3)])[0], pos[4 + 5 * (2 + 3 * 3)])


def test_volume_round_trip_is_bit_exact(tmp_path):
    g = make_grid(np.array([-0.3, 0.1, 0.7]), np.array([1.1, 2.9, 3.3]), 12, 0.07)
    rng = np.random.default_rng(3)
    g.values[:] = rng.standard_normal(g.values.size).astype(np.float32)
    stem = str(tmp_path / "vol")
    write_volume(g, stem)
    assert os.path.exists(stem + ".vhdr") and os.path.exists(stem + ".raw")
    back = read_volume(stem)
    assert back.dims == g.dims
    assert np.array_equal(back.origin, g.origin)
    assert np.array_equal(back.spacing, g.spacing)
    assert np.array_equal(back.values, g.values)


def test_volume_header_mismatch(tmp_path):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    stem = str(tmp_path / "vol")
    write_volume(g, stem)
    raw = open(stem + ".raw", "rb").read()
    open(stem + ".raw", "wb").write(raw[:-4])  # drop one sample
    # a malformed file like any other: a ParseError at the header line it contradicts
    with pytest.raises(ParseError, match="payload") as err:
        read_volume(stem)
    assert (err.value.path, err.value.line) == (stem + ".vhdr", 1)
    assert str(err.value) == f"{stem}.vhdr:1: {stem}.raw: payload holds 63 samples, header says 64"


def test_volume_rejects_empty_path():
    with pytest.raises(OSError, match="empty volume path"):
        read_volume("")


def test_volume_accepts_header_path(tmp_path):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    stem = str(tmp_path / "vol")
    write_volume(g, stem)
    back = read_volume(stem + ".vhdr")
    assert np.array_equal(back.values, g.values)


@pytest.mark.parametrize("line,text", [
    (1, "DIMS 0 4 4"),
    (2, "ORIGIN 0 nan 0"),
    (3, "SPACING 0.1 -0.1 0.1"),
    (3, "SPACING 0.1 0 0.1"),
    (3, "SPACING inf 0.1 0.1"),
], ids=["dims-zero", "origin-nan", "spacing-negative", "spacing-zero", "spacing-inf"])
def test_volume_header_rejects_impossible_values(tmp_path, line, text):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    stem = str(tmp_path / "vol")
    write_volume(g, stem)
    hdr = open(stem + ".vhdr").read().splitlines()
    hdr[line - 1] = text
    open(stem + ".vhdr", "w").write("\n".join(hdr) + "\n")
    with pytest.raises(ParseError) as err:
        read_volume(stem)
    assert f"vol.vhdr:{line}:" in str(err.value)


def test_volume_rejects_non_finite_payload(tmp_path):
    g = make_grid(np.zeros(3), np.ones(3), 4, 0.0)
    stem = str(tmp_path / "vol")
    write_volume(g, stem)
    payload = g.values.astype("<f4")
    payload[5] = np.nan
    payload.tofile(stem + ".raw")  # write_volume itself refuses a NaN sample
    with pytest.raises(ParseError, match="index 5"):
        read_volume(stem)
