"""Triply periodic minimal surface fields: P, D, G, IWP."""

import numpy as np
import pytest

from arbfscaffold.errors import ValidationError
from arbfscaffold.grid import make_grid, sample_field, solid_fraction
from arbfscaffold.isosurface import marching_cubes
from arbfscaffold.tpms import DEFAULT_DOMAIN, TPMS_KINDS, TpmsField

TAU = 2.0 * np.pi


def test_kinds_and_validation():
    assert set(TPMS_KINDS) == {"p", "d", "g", "iwp"}
    with pytest.raises(ValidationError):
        TpmsField("schwarz")
    with pytest.raises(ValidationError):
        TpmsField("p", periods=(0, 1, 1))


@pytest.mark.parametrize("period", [np.inf, np.nan])
def test_periods_must_be_finite(period):
    with pytest.raises(ValidationError, match="finite"):
        TpmsField("g", (1, period, 1))


@pytest.mark.parametrize("shape", [(6, 4), (6, 2)])
def test_evaluate_many_rejects_points_that_are_not_n_by_3(shape):
    with pytest.raises(ValidationError, match=r"\(n, 3\)"):
        TpmsField("g").evaluate_many(np.zeros(shape))
    assert TpmsField("g").evaluate_many(np.array([0.5, 1.0, 1.5])).shape == (1,)


def test_values_at_origin():
    assert TpmsField("p").evaluate(np.zeros(3)) == pytest.approx(3.0)
    assert TpmsField("d").evaluate(np.zeros(3)) == pytest.approx(0.0)
    assert TpmsField("g").evaluate(np.zeros(3)) == pytest.approx(0.0)
    assert TpmsField("iwp").evaluate(np.zeros(3)) == pytest.approx(3.0)


def test_p_surface_closed_form():
    f = TpmsField("p")
    assert f.evaluate(np.array([np.pi, 0.0, 0.0])) == pytest.approx(1.0)
    assert f.evaluate(np.array([np.pi, np.pi, 0.0])) == pytest.approx(-1.0)
    assert f.evaluate(np.array([np.pi, np.pi, np.pi])) == pytest.approx(-3.0)


def test_gyroid_is_odd():
    f = TpmsField("g")
    rng = np.random.default_rng(8)
    pts = rng.uniform(-5, 5, size=(50, 3))
    assert np.allclose(f.evaluate_many(-pts), -f.evaluate_many(pts), atol=1e-12)


def test_periodicity_invariant():
    rng = np.random.default_rng(9)
    for kind in TPMS_KINDS:
        f = TpmsField(kind, periods=(2, 1, 3))
        pts = rng.uniform(-10, 10, size=(100, 3))
        base = f.evaluate_many(pts)
        for axis, p in enumerate(f.periods):
            shift = np.zeros(3)
            shift[axis] = TAU / p
            assert np.allclose(f.evaluate_many(pts + shift), base, atol=1e-9)


def test_periods_rescale_the_lattice():
    one = TpmsField("p")
    two = TpmsField("p", periods=(2, 2, 2))
    pts = np.random.default_rng(10).uniform(0, TAU, size=(20, 3))
    assert np.allclose(two.evaluate_many(pts), one.evaluate_many(2 * pts), atol=1e-12)


def test_field_bounds():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-20, 20, size=(2000, 3))
    bounds = {"p": 3.0, "g": 3.0, "d": 4.0, "iwp": 9.0}
    for kind, b in bounds.items():
        vals = TpmsField(kind).evaluate_many(pts)
        assert np.all(np.abs(vals) <= b + 1e-12)


def test_sampled_period_cube():
    # coarser grids overweight the duplicated periodic boundary plane,
    # so the half-half split is only recovered near 64 samples per axis
    g = make_grid(np.full(3, DEFAULT_DOMAIN[0]), np.full(3, DEFAULT_DOMAIN[1]), 64, 0.0)
    vol = sample_field(TpmsField("p"), g)
    assert solid_fraction(vol, 0.0) == pytest.approx(0.5, abs=0.02)
    g32 = make_grid(np.full(3, DEFAULT_DOMAIN[0]), np.full(3, DEFAULT_DOMAIN[1]), 32, 0.0)
    for kind in TPMS_KINDS:
        vol = sample_field(TpmsField(kind), g32)
        assert len(marching_cubes(vol, 0.0).triangles) > 0
