"""Every array the API takes goes through errors.point_array or errors.index_array.

A wrong shape, a non-finite coordinate or an index that names no row is a
ValidationError whose message starts with the array's name; the mesh
loaders re-raise it as a ParseError and ``arbf`` exits with code 2.  The
writers refuse before any file is created.  Geometry whose arithmetic
would overflow float64 (mesh coordinates beyond MAX_COORDINATE, a grid
bbox whose padded extent is not finite) is refused by name as well.
"""

import os
import re
import warnings

import numpy as np
import pytest

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.cli import EXIT_INPUT, main
from arbfscaffold.errors import ParseError, ValidationError, index_array, point_array
from arbfscaffold.mesh import MAX_COORDINATE


def _refused(call, match, *paths):
    """``call`` raises ValidationError matching ``match``, warns nothing and writes nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=match):
            call()
    assert not any(os.path.exists(p) for p in paths)


# --- the two checks ---------------------------------------------------------


def test_point_array_takes_rows_or_one_point_and_keeps_float64():
    pts = np.arange(12.0).reshape(4, 3)
    assert point_array(pts, "points") is pts
    assert point_array([1, 2, 3], "points").tolist() == [[1.0, 2.0, 3.0]]
    assert point_array(np.empty((0, 3)), "points").shape == (0, 3)
    strided = point_array(pts[::2], "points")
    assert strided.flags.c_contiguous and strided.tolist() == pts[::2].tolist()


@pytest.mark.parametrize("value,match", [
    ([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]], r"^q must have shape \(n, 3\) or \(3,\), got \(1, 6\)$"),
    ([1.0, 2.0], r"^q must have shape \(n, 3\) or \(3,\), got \(2,\)$"),
    (np.zeros((1, 1, 3)), r"^q must have shape"),
    ([[0.0, 0.0, 0.0], [1.0, np.nan, 0.0]], r"^q must be finite, got .* at row 1$"),
    ([[0.0, -np.inf, 0.0]], r"^q must be finite, got .* at row 0$"),
    ([[0.0, 0.0, 0.0], [1.0, 0.0]], r"^q must be a numeric array"),
    ([["a", "b", "c"]], r"^q must be a numeric array"),
    ([[10 ** 400, 0, 0]], r"^q must be a numeric array"),
], ids=["six-columns", "two", "3-d", "nan", "inf", "ragged", "strings", "huge-int"])
def test_point_array_refuses_by_name(value, match):
    _refused(lambda: point_array(value, "q"), match)


def test_index_array_keeps_signed_integers_and_converts_the_rest():
    for dtype in (np.int32, np.int64):
        tris = np.array([[0, 1, 2]], dtype=dtype)
        assert index_array(tris, "triangles", 3, 3) is tris
    for value in (np.array([[0, 1, 2]], dtype=np.uint8), [[0.0, 1.0, 2.0]], [[0, 1, 2]]):
        got = index_array(value, "triangles", 3, 3)
        assert got.dtype == np.int64 and got.tolist() == [[0, 1, 2]]
    assert index_array(np.empty((0, 3)), "triangles", 0, 3).shape == (0, 3)


@pytest.mark.parametrize("value,match", [
    ([[0, 1, 2, 0]], r"^cells must have shape \(m, 3\), got \(1, 4\)$"),
    ([[0, 1], [1, 2]], r"^cells must have shape \(m, 3\), got \(2, 2\)$"),
    ([0, 1, 2, 0, 2, 1], r"^cells must have shape \(m, 3\), got \(6,\)$"),
    ([[0, 1, 3]], r"^cells must hold indices in 0\.\.2, got 3$"),
    ([[0, -1, 2]], r"^cells must hold indices in 0\.\.2, got -1$"),
    ([[0, 1, 1.5]], r"^cells must hold integers, got 1.5$"),
    ([[0, 1, np.inf]], r"^cells must hold integers, got inf$"),
    ([[True, False, True]], r"^cells must hold integers, got dtype bool$"),
    ([[0, 1, 2], [0, 1]], r"^cells must be a numeric array"),
], ids=["four-columns", "two-columns", "flat", "past-n", "negative", "fraction", "inf",
        "bool", "ragged"])
def test_index_array_refuses_by_name(value, match):
    _refused(lambda: index_array(value, "cells", 3, 3), match)


# --- export_obj, surface_area, euler_characteristic -------------------------


@pytest.mark.parametrize("triangles,match", [
    ([[0, 1, 2, 0]], r"shape \(m, 3\), got \(1, 4\)"),
    ([[0, 1], [1, 2]], r"shape \(m, 3\), got \(2, 2\)"),
    ([0, 1, 2, 0, 2, 1], r"shape \(m, 3\), got \(6,\)"),
    ([[0, 1, 5]], r"indices in 0\.\.2, got 5"),
    ([[0, 1, -1]], r"indices in 0\.\.2, got -1"),
    ([[0, 1, 2.5]], "integers, got 2.5"),
], ids=["1x4", "2x2", "flat", "past-nv", "negative", "fraction"])
def test_export_obj_refuses_triangles_before_creating_the_file(tmp_path, triangles, match):
    # a (1, 4), (2, 2) or (6,) array once failed only after the vertex lines were written
    path = str(tmp_path / "out" / "s.obj")
    soup = ax.TriangleSoup(np.eye(3), np.array(triangles))
    _refused(lambda: ax.export_obj(soup, path), "^triangles must .*" + match, path)


@pytest.mark.parametrize("triangles,match", [
    ([[0, 1]], r"shape \(m, 3\), got \(1, 2\)"),
    ([[0, 1, 2, 0]], r"shape \(m, 3\), got \(1, 4\)"),
    ([[0, 1, 5]], r"indices in 0\.\.2, got 5"),
], ids=["1x2", "1x4", "past-nv"])
def test_surface_measures_refuse_triangles_by_name(triangles, match):
    # these raised a raw IndexError or, for euler_characteristic on (1, 4), returned 1
    soup = ax.TriangleSoup(np.eye(3), np.array(triangles))
    _refused(lambda: ax.surface_area(soup), "^triangles must .*" + match)
    _refused(lambda: ax.euler_characteristic(soup), "^triangles must .*" + match)


# --- centers, grids and field evaluation ------------------------------------


def test_center_set_refuses_rows_that_are_not_points():
    # the six numbers were once read as two points
    _refused(lambda: ax.CenterSet([[0, 0, 0, 1, 1, 1]], [1, 1]), r"^points must have shape")
    _refused(lambda: ax.CenterSet(np.zeros((1, 3)), [1.0], [0, 0, 0, 1, 1, 1], [[1, 1, 1]]),
             r"^seg_a must have shape")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("corner", ["bbox_min", "bbox_max"])
def test_make_grid_names_a_non_finite_corner(bad, corner):
    lo, hi = [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
    (lo if corner == "bbox_min" else hi)[1] = bad
    _refused(lambda: ax.make_grid(lo, hi, 8, 0.05), f"^{corner} must be finite")
    _refused(lambda: ax.make_grid_2d(lo[:2], hi[:2], 8), f"^{corner} must be finite")


@pytest.mark.parametrize("pad", [0.0, 0.05])
def test_make_grid_names_a_bbox_whose_extent_overflows(pad):
    # the extent was NaN, and int(round(NaN)) raised a raw ValueError
    _refused(lambda: ax.make_grid((-1e308,) * 3, (1e308,) * 3, 8, pad),
             r"^bbox .* must have a positive, finite extent")


@pytest.mark.parametrize("source", ["rbf", "tpms"])
def test_field_evaluation_refuses_non_finite_points(source):
    # a NaN point gave a NaN value, and TpmsField also warned from np.cos
    field = (ax.fit_mesh(samples.unit_tet_mesh(), ax.Basis("imq"), "anisotropic")[0]
             if source == "rbf" else ax.TpmsField("g"))
    pts = np.array([[0.1, 0.2, 0.3], [0.1, np.nan, 0.3]])
    _refused(lambda: field.evaluate_many(pts), r"^points must be finite, got .* at row 1$")
    _refused(lambda: field.evaluate(pts[1]), r"^point must be finite")


# --- geometry that would overflow float64 -----------------------------------


def _hex_far(scale=1.0, row=None, coords=slice(None)):
    """The unit hex scaled by ``scale``, with ``coords`` of vertex ``row`` at 1e160."""
    verts = samples.unit_hex_mesh().vertices * scale
    if row is not None:
        verts[row, coords] = 1e160
    return verts


FAR = {"scaled-1e103": _hex_far(1e103), "scaled-1e120": _hex_far(1e120),
       "one-coordinate-1e160": _hex_far(row=6, coords=0),
       "vertex-0-at-1e160": _hex_far(row=0), "vertex-6-at-1e160": _hex_far(row=6)}
FAR_TEXT = f"vertices must have coordinates of magnitude at most {MAX_COORDINATE:g}, got "
FAR_MATCH = re.escape(FAR_TEXT)


@pytest.mark.parametrize("name", sorted(FAR))
def test_mesh_refuses_coordinates_past_the_limit(name):
    # these raised OverflowError, were refused as degenerate (vertex 6), or
    # were accepted with a NaN cell measure and failed later in the fit (vertex 0)
    cells = samples.unit_hex_mesh().cells
    _refused(lambda: ax.VolumetricMesh("hex", FAR[name], cells), "^" + FAR_MATCH)


def test_mesh_at_the_coordinate_limit_is_fine():
    hexm = samples.unit_hex_mesh()
    mesh = ax.VolumetricMesh("hex", hexm.vertices * MAX_COORDINATE, hexm.cells)
    assert np.isfinite(ax.mesh.cell_measures(mesh)).all()


def _write_hexmesh(path, verts):
    cells = samples.unit_hex_mesh().cells
    rows = [" ".join(map(repr, v)) for v in verts.tolist()]
    rows += [" ".join(map(str, c)) for c in cells.tolist()]
    path.write_text(f"HEX {len(verts)} {len(cells)}\n" + "\n".join(rows) + "\n")
    return str(path)


@pytest.mark.parametrize("name", sorted(FAR))
def test_loader_and_fit_refuse_far_coordinates(tmp_path, capsys, name):
    path = _write_hexmesh(tmp_path / "far.hexmesh", FAR[name])
    with pytest.raises(ParseError, match="far.hexmesh: " + FAR_MATCH):
        ax.load_mesh(path)
    assert main(["fit", "--mesh", path, "--out", str(tmp_path / "m.arbf")]) == EXIT_INPUT
    assert FAR_TEXT in capsys.readouterr().err
    assert not (tmp_path / "m.arbf").exists()


def test_sample_refuses_a_model_whose_grid_overflows(tmp_path, capsys):
    model = tmp_path / "far.arbf"
    model.write_text("ARBF1\nbasis imq 0.1\nlambda 0\n2\n"
                     "P -1e308 0 0 1\nP 1e308 0 0 -1\n1\n1\n")
    out = str(tmp_path / "v")
    assert main(["sample", "--model", str(model), "--out", out]) == EXIT_INPUT
    assert "must have a positive, finite extent" in capsys.readouterr().err
    assert not os.path.exists(out + ".vhdr")
