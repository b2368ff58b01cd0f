"""Every number the API takes goes through errors.integer or errors.real.

A wrong kind, a non-finite value or a value out of range is a
ValidationError whose message starts with the parameter's name and ends
``got <repr>``; Python and numpy ints and floats are accepted, and x and
np.float64(x) (or n and np.int64(n)) give the same output.  The writers
refuse what their readers refuse, before any file is created.
"""

import dataclasses
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbfscaffold as ax
from arbfscaffold import samples
from arbfscaffold.errors import ValidationError
from arbfscaffold.perturb import MAX_MAGNITUDE
from arbfscaffold.rbf import _fill_basis

INF = math.inf
_PTS = np.random.default_rng(24).uniform(-1.0, 1.0, size=(16, 3))
_R2 = np.linspace(0.0, 2.0, 9) ** 2


def _basis_values(basis):
    """The basis at the squared distances _R2, by _fill_basis."""
    out = _R2.copy()
    _fill_basis(basis, out)
    return out


def _volume(dims_2d=False):
    g = (ax.make_grid_2d(np.zeros(2), np.ones(2), 6) if dims_2d
         else ax.make_grid(np.zeros(3), np.ones(3), 6))
    return ax.sample_field(ax.TpmsField("g", (5.0, 4.0, 3.0)), g)


_GRID, _SLICE = _volume(), _volume(dims_2d=True)
_HEX = samples.unit_hex_mesh()
_CENTERS = ax.assemble_center_set(samples.unit_tet_mesh(), "isotropic")


def _grid_bytes(g):
    return g.origin.tobytes() + g.spacing.tobytes() + repr(g.dims).encode()


def _soup_bytes(soup):
    return soup.vertices.tobytes() + soup.triangles.tobytes()


def _pgm_bytes(lo, hi):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.pgm")
        ax.export_pgm(_SLICE, path, lo, hi)
        with open(path, "rb") as fh:
            return fh.read()


@dataclass
class Entry:
    """One API number: its name in messages, kind, bounds, and a call that returns bytes."""

    id: str
    name: str
    integral: bool
    lo: float
    hi: float
    above: bool
    call: Callable
    valid: st.SearchStrategy


def _int(id, name, lo, hi, call, valid):
    return Entry(id, name, True, lo, hi, False, call, valid)


def _real(id, name, lo, hi, call, valid, above=False):
    return Entry(id, name, False, lo, hi, above, call, valid)


def _floats(lo, hi, above=False):
    return st.floats(lo, hi, exclude_min=above, allow_nan=False, allow_infinity=False)


ENTRIES = [
    _int("make_grid-resolution", "resolution", 2, 4096,
         lambda v: _grid_bytes(ax.make_grid(np.zeros(3), np.ones(3), v)), st.integers(2, 40)),
    _int("make_grid_2d-resolution", "resolution", 2, 2**18,
         lambda v: _grid_bytes(ax.make_grid_2d(np.zeros(2), np.ones(2), v)), st.integers(2, 40)),
    _real("make_grid-pad", "pad_fraction", 0.0, INF,
          lambda v: _grid_bytes(ax.make_grid(np.zeros(3), np.ones(3), 8, v)), _floats(0.0, 3.0)),
    _real("make_grid_2d-pad", "pad_fraction", 0.0, INF,
          lambda v: _grid_bytes(ax.make_grid_2d(np.zeros(2), np.ones(2), 8, v)),
          _floats(0.0, 3.0)),
    _int("sample_field-workers", "worker count", 0, INF,
         lambda v: ax.sample_field(ax.TpmsField("p"), _GRID, workers=v).values.tobytes(),
         st.integers(0, 3)),
    _real("PerturbSpec-magnitude", "magnitude", 0.0, MAX_MAGNITUDE,
          lambda v: ax.perturb_mesh(_HEX, ax.PerturbSpec(magnitude=v)).vertices.tobytes(),
          _floats(0.0, 0.3)),
    _real("PerturbSpec-vertex_fraction", "vertex_fraction", 0.0, 1.0,
          lambda v: ax.perturb_mesh(_HEX, ax.PerturbSpec(vertex_fraction=v)).vertices.tobytes(),
          _floats(0.0, 1.0)),
    _int("PerturbSpec-seed", "seed", 0, 2**64 - 1,
         lambda v: ax.perturb_mesh(_HEX, ax.PerturbSpec(seed=v)).vertices.tobytes(),
         st.integers(0, 2**63 - 1)),
    _real("Basis-c", "shape parameter", 0.0, INF,
          lambda v: _basis_values(ax.Basis("imq", v)).tobytes(), _floats(1e-3, 10.0),
          above=True),
    _real("Basis-tps-c", "shape parameter", -INF, INF,
          lambda v: _basis_values(ax.Basis("tps", v)).tobytes(), _floats(-10.0, 10.0)),
    _real("fit_with_report-lambda", "lambda", -INF, INF,
          lambda v: ax.fit_with_report(_CENTERS, ax.Basis("imq", 0.5), v)[0].weights.tobytes(),
          _floats(0.0, 1.0)),
    _real("assemble_matrix-lambda", "lambda", -INF, INF,
          lambda v: ax.assemble_matrix(_CENTERS, ax.Basis("imq", 0.5), v)[0].tobytes(),
          _floats(0.0, 1.0)),
    _real("InterpolationModel-lambda", "lambda", -INF, INF,
          lambda v: repr(ax.InterpolationModel(_CENTERS, ax.Basis("imq", 0.5), v,
                                               np.zeros(len(_CENTERS))).lam).encode(),
          _floats(-1.0, 1.0)),
    _real("TpmsField-periods", "periods", 0.0, INF,
          lambda v: ax.TpmsField("g", (1.0, v, 2.0)).evaluate_many(_PTS).tobytes(),
          _floats(0.0, 8.0, True), above=True),
    _real("marching_cubes-iso", "iso", -INF, INF,
          lambda v: _soup_bytes(ax.marching_cubes(_GRID, v)), _floats(-1.6, 1.6)),
    _real("marching_squares-iso", "iso", -INF, INF,
          lambda v: np.array(ax.marching_squares(_SLICE, v).polylines).tobytes(),
          _floats(-1.6, 1.6)),
    _real("solid_fraction-iso", "iso", -INF, INF,
          lambda v: repr(ax.solid_fraction(_GRID, v)).encode(), _floats(-1.6, 1.6)),
    _real("export_pgm-lo", "lo", -INF, INF, lambda v: _pgm_bytes(v, 2.0), _floats(-2.0, 1.5)),
    _real("export_pgm-hi", "hi", -INF, INF, lambda v: _pgm_bytes(-2.0, v), _floats(-1.5, 2.0)),
]

# Refused by every check; integer() also refuses floats, whole ones included.
REFUSED = ["1", "", None, True, False, np.bool_(True), 1 + 0j, np.complex128(1), [1], (1.0,),
           np.array(1.0), np.array([1]), np.nan, np.inf, -np.inf, np.float64(np.nan),
           np.float32(-np.inf)]
REFUSED_INT = [2.0, 2.5, np.float64(3.0), np.float32(4.0)]
REFUSED_REAL = [10**400, -10**400]  # ints past the float range


def _out_of_range(e):
    """Values just past either bound, and far past it."""
    if e.integral:
        parts = [st.integers(max_value=e.lo - 1)] if e.lo > -INF else []
        return st.one_of(parts + ([st.integers(min_value=e.hi + 1)] if e.hi < INF else []))
    parts = [st.floats(max_value=e.lo, exclude_max=not e.above, allow_nan=False,
                       allow_infinity=False)] if e.lo > -INF else []
    if e.hi < INF:
        parts.append(st.floats(min_value=e.hi, exclude_min=True, allow_infinity=False))
    return st.one_of(parts) if parts else st.nothing()


def _in_range(e, x):
    return (e.lo < x if e.above else e.lo <= x) and x <= e.hi


@pytest.mark.parametrize("e", ENTRIES, ids=lambda e: e.id)
@settings(max_examples=30)
@given(data=st.data())
def test_numbers_are_checked_by_one_rule(e, data):
    bad = data.draw(st.one_of(st.sampled_from(REFUSED + (REFUSED_INT if e.integral
                                                         else REFUSED_REAL)),
                              _out_of_range(e)), label="refused")
    with pytest.raises(ValidationError) as err:
        e.call(bad)
    message = str(err.value)
    assert message.startswith(f"{e.name} must "), message
    assert message.endswith(f"got {bad!r}"), message

    if e.integral:
        n = data.draw(e.valid, label="n")
        out = e.call(n)
        for same in (np.int64(n), np.uint64(n), np.int32(n) if n < 2**31 else n):
            assert e.call(same) == out
        return
    x = data.draw(e.valid, label="x")
    out = e.call(x)
    assert e.call(np.float64(x)) == out
    y = float(np.float32(x))  # a float32 scalar is its value
    if _in_range(e, y):
        assert e.call(np.float32(x)) == e.call(y)
    k = int(x)  # and an int scalar its value as a float
    if _in_range(e, k):
        assert e.call(k) == e.call(np.int64(k)) == e.call(float(k))


def test_a_refused_number_raises_before_any_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^iso must be finite, got nan$"):
            ax.marching_cubes(_GRID, np.nan)
        with pytest.raises(ValidationError, match=r"^worker count must be an integer, got nan$"):
            ax.sample_field(ax.TpmsField("p"), _GRID, workers=np.nan)


@pytest.mark.parametrize("kind", ["gaussian", "mq", "imq"])
@pytest.mark.parametrize("c", [1e-200, 1e200, np.float64(1e-170), np.float64(1e160)])
def test_basis_refuses_a_shape_parameter_whose_square_is_zero_or_inf(kind, c):
    # c^2 underflowed to 0 (imq gave inf at r = 0, mq a distance matrix) or overflowed
    with pytest.raises(ValidationError) as err:
        ax.Basis(kind, c)
    assert str(err.value) == ("shape parameter must have a square that is positive and "
                              f"finite, got {c!r}")
    assert [ax.Basis(kind, x).c for x in (1e-150, 1e150)] == [1e-150, 1e150]
    # tps does not use c, so any finite c leaves its values as they are
    assert np.array_equal(_basis_values(ax.Basis("tps", c)), _basis_values(ax.Basis("tps", 1.0)))


def test_checked_numbers_are_stored_as_python_numbers():
    spec = ax.PerturbSpec(np.float32(0.25), np.uint8(3), np.float64(0.5))
    assert [type(v) for v in (spec.magnitude, spec.seed, spec.vertex_fraction)] == [
        float, int, float]
    assert type(ax.Basis("imq", np.int64(2)).c) is float
    assert ax.TpmsField("p", np.array([1, 2, 3])).periods == (1.0, 2.0, 3.0)
    assert all(type(p) is float for p in ax.TpmsField("p", [1, 2, 3]).periods)


@pytest.mark.parametrize("periods", [(1.0, 1.0), (1.0, 1.0, 1.0, 1.0), 1.0, "111",
                                     (1.0, [1.0], 1.0), (1.0, (2.0, 3.0), 1.0)])
def test_tpms_periods_must_be_three_real_numbers(periods):
    with pytest.raises(ValidationError, match="^periods must be "):
        ax.TpmsField("p", periods)


# --- writers ----------------------------------------------------------------

def _refused_write(write, *paths):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from a NaN cast either
        with pytest.raises(ValidationError):
            write()
    assert not any(os.path.exists(p) for p in paths)


@pytest.mark.parametrize("vertices", [
    [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[0.0, 0.0, 0.0], [1.0, np.inf, 0.0], [0.0, 0.0, 1.0]],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [0.0, 1.0, 2.0],
], ids=["nan", "inf", "n-by-2", "flat"])
def test_export_obj_refuses_vertices_load_obj_would(tmp_path, vertices):
    soup = ax.TriangleSoup(np.array(vertices), np.array([[0, 1, 2]]))
    path = str(tmp_path / "out" / "s.obj")
    _refused_write(lambda: ax.export_obj(soup, path), path)


def _bad_grids(grid):
    nan = ax.VoxelGrid(grid.origin, grid.spacing, grid.dims, grid.values.copy())
    nan.values[3] = np.nan
    inf = ax.VoxelGrid(grid.origin, grid.spacing, grid.dims, grid.values.copy())
    inf.values[-1] = -np.inf
    short = ax.VoxelGrid(grid.origin, grid.spacing, grid.dims, grid.values[:-1].copy())
    return [nan, inf, short]


@pytest.mark.parametrize("which", range(3), ids=["nan", "inf", "short"])
def test_write_volume_refuses_samples_read_volume_would(tmp_path, which):
    grid = _bad_grids(_GRID)[which]
    stem = str(tmp_path / "out" / "v")
    _refused_write(lambda: ax.write_volume(grid, stem), stem + ".vhdr", stem + ".raw")


@pytest.mark.parametrize("fields", [
    {"dims": (0, 2, 2), "values": np.zeros(0, np.float32)}, {"dims": (6, 36)},
    {"dims": (6.0, 6, 6)}, {"origin": np.array([0.0, np.nan, 0.0])}, {"origin": np.zeros(2)},
    {"spacing": np.array([0.1, -0.1, 0.1])}, {"spacing": np.array([0.1, 0.0, 0.1])},
    {"spacing": np.array([np.inf, 0.1, 0.1])},
], ids=["dims-zero", "dims-two", "dims-float", "origin-nan", "origin-two", "spacing-negative",
        "spacing-zero", "spacing-inf"])
def test_write_volume_refuses_a_header_read_volume_would(tmp_path, fields):
    grid = dataclasses.replace(_GRID, **fields)
    stem = str(tmp_path / "out" / "v")
    _refused_write(lambda: ax.write_volume(grid, stem), stem + ".vhdr", stem + ".raw")
    assert not os.path.exists(tmp_path / "out")


def test_write_volume_refuses_a_sample_float32_cannot_hold(tmp_path):
    grid = ax.VoxelGrid(_GRID.origin, _GRID.spacing, _GRID.dims, _GRID.values.astype(np.float64))
    grid.values[0] = 1e39
    stem = str(tmp_path / "v")
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError):
            ax.write_volume(grid, stem)
    assert not os.path.exists(stem + ".vhdr")


@pytest.mark.parametrize("which", range(3), ids=["nan", "inf", "short"])
def test_export_pgm_refuses_non_finite_or_missing_samples(tmp_path, which):
    grid = _bad_grids(_SLICE)[which]
    path = str(tmp_path / "out" / "s.pgm")
    _refused_write(lambda: ax.export_pgm(grid, path, -1.0, 1.0), path)

