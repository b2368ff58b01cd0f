"""Point/segment/segment distance kernel, checked against brute-force minima."""

import numpy as np
from hypothesis import given, settings, strategies as st

from arbfscaffold.distance import (
    ON_SEGMENT_TOL,
    dist_point_point,
    dist_point_segment,
    dist_segment_segment,
    distance_block,
    points_to_points,
    points_to_segments,
)

coord = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
point = st.tuples(coord, coord, coord).map(np.array)
point_rows = st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=6).map(np.array)


def brute_point_segment(p, a, b, n=10_000):
    t = np.linspace(0.0, 1.0, n)[:, None]
    return float(np.linalg.norm(a + t * (b - a) - p, axis=1).min())


def test_point_point_known_values():
    assert dist_point_point(np.zeros(3), np.array([1.0, 0, 0])) == 1.0
    assert dist_point_point(np.zeros(3), np.array([1.0, 1.0, 0])) == np.sqrt(2.0)
    assert dist_point_point(np.ones(3), np.ones(3)) == 0.0


def test_point_segment_perpendicular_case():
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    assert dist_point_segment(np.array([0.5, 1.0, 0]), a, b) == 1.0
    assert dist_point_segment(np.array([0.25, 0, 2.0]), a, b) == 2.0


def test_point_segment_endpoint_case():
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    # projection parameter outside [0, 1] falls back to nearest endpoint
    assert dist_point_segment(np.array([2.0, 0, 0]), a, b) == 1.0
    assert dist_point_segment(np.array([-3.0, 4.0, 0]), a, b) == 5.0


def test_point_on_segment_is_exactly_zero():
    a, b = np.zeros(3), np.array([1.0, 1.0, 1.0])
    for t in (0.0, 0.25, 0.5, 1.0):
        assert dist_point_segment(a + t * (b - a), a, b) == 0.0


def test_near_segment_residual_clamp():
    # residual below ON_SEGMENT_TOL counts as on-segment
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    p = np.array([0.5, ON_SEGMENT_TOL / 10, 0.0])
    assert dist_point_segment(p, a, b) == 0.0


def test_degenerate_segment_is_point_distance():
    a = np.array([1.0, 2.0, 3.0])
    p = np.array([1.0, 2.0, 7.0])
    assert dist_point_segment(p, a, a) == dist_point_point(p, a) == 4.0


def test_segment_segment_is_endpoint_pair_minimum():
    # crossing segments: geometric gap is 1.0 but all endpoint pairs are 1.5
    a, b = np.zeros(3), np.array([1.0, 0, 0])
    c, d = np.array([0.5, -1.0, 1.0]), np.array([0.5, 1.0, 1.0])
    assert dist_segment_segment(a, b, c, d) == 1.5
    # shared endpoint gives zero
    assert dist_segment_segment(a, b, b, d) == 0.0


def test_vectorized_matches_scalar(rng):
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    pts = rng.standard_normal((50, 3))
    vec = points_to_segments(pts, a, b)[:, 0]
    for p, d in zip(pts, vec):
        assert dist_point_segment(p, a, b) == d
    assert np.array_equal(points_to_points(pts, a)[:, 0],
                          np.linalg.norm(pts - a, axis=1))


def test_brute_force_agreement(rng):
    for _ in range(200):
        p, a, b = rng.standard_normal((3, 3))
        exact = dist_point_segment(p, a, b)
        seglen = np.linalg.norm(b - a)
        assert abs(exact - brute_point_segment(p, a, b)) <= 1e-3 * seglen


@settings(max_examples=200, deadline=None)
@given(p=point, a=point, b=point)
def test_endpoint_swap_symmetry_is_bitwise(p, a, b):
    assert dist_point_segment(p, a, b) == dist_point_segment(p, b, a)


@settings(max_examples=200, deadline=None)
@given(p=point, a=point, b=point)
def test_bounded_by_endpoint_distances(p, a, b):
    d = dist_point_segment(p, a, b)
    assert d >= 0.0
    assert d <= min(dist_point_point(p, a), dist_point_point(p, b)) + 1e-12


@settings(max_examples=100, deadline=None)
@given(a=point, b=point, c=point, d=point)
def test_segment_segment_symmetry(a, b, c, d):
    ref = dist_segment_segment(a, b, c, d)
    assert dist_segment_segment(c, d, a, b) == ref
    assert dist_segment_segment(b, a, d, c) == ref
    assert ref >= 0.0


@given(pts=point_rows, ends=point_rows, flips=st.lists(st.booleans(), min_size=6, max_size=6))
def test_batched_blocks_equal_scalar_kernels_bitwise(pts, ends, flips):
    # segment j runs from ends[j] to ends[j + 1]; flipped ones are degenerate
    a = ends
    b = np.roll(ends, -1, axis=0)
    degenerate = np.array(flips[:len(a)])
    b[degenerate] = a[degenerate]
    seg = points_to_segments(pts, a, b)
    pp = points_to_points(pts, a)
    assert seg.shape == pp.shape == (len(pts), len(a))
    for i, p in enumerate(pts):
        for j in range(len(a)):
            assert seg[i, j] == dist_point_segment(p, a[j], b[j])
            assert pp[i, j] == dist_point_point(p, a[j])


def test_empty_blocks_keep_their_shape():
    none, q = np.empty((0, 3)), np.ones((4, 3))
    assert distance_block(none, q, q, q).shape == (0, 8)
    assert distance_block(q, none, none, none).shape == (4, 0)
    assert distance_block(q, q[:1], none, none).shape == (4, 1)
    assert points_to_points(none, q).shape == (0, 4)
    assert points_to_segments(q, none, none).shape == (4, 0)
    assert points_to_segments(none, q, q).shape == (0, 4)
