"""Radial basis function interpolation over point and segment centers.

The field is s(x) = sum_i w_i * phi(d_i(x)) where d_i is the Euclidean
distance to a point center or the point-to-segment distance to a segment
center.  Weights come from the dense collocation system A w = f with
A[i][j] = phi(d(center_i, center_j)); the distance between two segment
centers is the minimum over their endpoint pairs.  No polynomial term is
appended; an optional Tikhonov lambda can be added to the diagonal when a
basis/shape combination turns out near-singular.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .distance import TILE_ELEMS  # noqa: F401 (re-exported: the field kernel's tile size)
from .distance import as_points, distance_block, distance_tiles, points_to_points
from .errors import DuplicateCenterError, ParseError, SingularMatrixError, ValidationError
from .mesh import CenterSet, VolumetricMesh, assemble_center_set

BASIS_KINDS = ("gaussian", "mq", "imq", "tps")

# Pairwise center distances below this are checked for duplicate geometry.
DUPLICATE_TOL = 1e-12
# A pivot below this fraction of max|A| counts as singular.
PIVOT_TOL = 1e-12
# Post-solve residual bound: ||A w - f||_inf <= RESIDUAL_TOL * (1 + ||f||_inf).
RESIDUAL_TOL = 1e-8

_MODEL_MAGIC = "ARBF1"


@dataclass(frozen=True)
class Basis:
    """Basis kind plus shape parameter.

    gaussian: exp(-(c r)^2)        mq:  sqrt(r^2 + c^2)
    imq:      1 / sqrt(r^2 + c^2)  tps: r^2 ln r  (0 at r = 0; c unused)
    """

    kind: str
    c: float = 0.1

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValidationError(f"unknown basis {self.kind!r}, expected one of {BASIS_KINDS}")
        if self.kind != "tps" and not self.c > 0.0:
            raise ValidationError(f"shape parameter must be positive, got {self.c}")


def _fill_basis(basis: Basis, r: np.ndarray) -> None:
    """Overwrite the distance array ``r`` with the basis values, in place."""
    if basis.kind == "tps":  # r^2 ln r, defined as 0 at r = 0
        pos = r > 0.0
        log_r = np.log(r, out=np.zeros_like(r), where=pos)
        r[~pos] = 0.0
        r *= r
        r *= log_r
    elif basis.kind == "gaussian":  # exp(-(c r)^2)
        r *= basis.c
        r *= r
        np.exp(np.negative(r, out=r), out=r)
    else:  # mq and imq share sqrt(r^2 + c^2)
        r *= r
        r += basis.c * basis.c
        np.sqrt(r, out=r)
        if basis.kind == "imq":
            np.divide(1.0, r, out=r)


def eval_basis(basis: Basis, r):
    """Apply the basis to a scalar or array of distances."""
    out = np.array(r, dtype=np.float64)
    _fill_basis(basis, out)
    return float(out) if out.ndim == 0 else out


def assemble_matrix(centers: CenterSet, basis: Basis, lam: float = 0.0):
    """Dense collocation system (A, rhs) for a center set.

    Distances fill the point rows in one distance_block call, their
    transpose, and the minimum over four endpoint blocks between segments;
    basis values then overwrite them in place.  Raises DuplicateCenterError
    when two centers coincide, which almost always means a degenerate mesh.
    """
    pts, sa, sb = centers.points, centers.seg_a, centers.seg_b
    p, n = len(pts), len(centers)
    dist = np.empty((n, n))
    dist[:p] = distance_block(pts, pts, sa, sb)
    dist[p:, :p] = dist[:p, p:].T
    aa, bb = points_to_points(sa, sa), points_to_points(sb, sb)
    ab = points_to_points(sa, sb)
    ba = ab.T  # |b_i - a_j| rounds exactly as |a_j - b_i|
    dist[p:, p:] = np.minimum(np.minimum(aa, ab), np.minimum(ba, bb))

    # Point pairs, then segment pairs with identical geometry in either
    # orientation; segments that merely touch (shared face center) are fine.
    tol = DUPLICATE_TOL
    for off, same in ((0, dist[:p, :p] < tol),
                      (p, ((aa < tol) & (bb < tol)) | ((ab < tol) & (ba < tol)))):
        i, j = np.nonzero(same)
        upper = np.flatnonzero(i < j)
        if len(upper):
            raise DuplicateCenterError(f"centers {off + i[upper[0]]} and {off + j[upper[0]]} "
                                       "coincide; check the mesh for degenerate cells")
    _fill_basis(basis, dist)
    dist.flat[::n + 1] += lam
    return dist, centers.values


def _lu_solve_checked(a: np.ndarray, rhs: np.ndarray):
    """(weights, LU factors, 1-norm of A), from one |A| freed before the LU."""
    abs_a = np.abs(a)
    scale, norm_1 = abs_a.max(), abs_a.sum(axis=0).max()
    del abs_a
    try:
        with warnings.catch_warnings():
            # the pivot check below reports singularity on our own terms
            warnings.simplefilter("ignore", LinAlgWarning)
            lu, piv = lu_factor(a)
    except Exception as exc:  # scipy raises LinAlgError on hard failure
        raise SingularMatrixError(f"LU factorization failed: {exc}") from exc
    pivots = np.abs(np.diag(lu))
    if scale == 0.0 or pivots.min() < PIVOT_TOL * scale:
        raise SingularMatrixError(
            "interpolation matrix is numerically singular; "
            "a small Tikhonov lambda (e.g. 1e-10) usually fixes this"
        )
    w = lu_solve((lu, piv), rhs)
    # One step of iterative refinement tightens the residual cheaply.
    w = w + lu_solve((lu, piv), rhs - a @ w)
    return w, lu, norm_1


def solve_weights(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs by dense LU with partial pivoting."""
    return _lu_solve_checked(np.asarray(a, dtype=np.float64),
                             np.asarray(rhs, dtype=np.float64))[0]


@dataclass(eq=False)
class InterpolationModel:
    """A fitted field: center set, basis, lambda, and solved weights."""

    centers: CenterSet
    basis: Basis
    lam: float
    weights: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.centers):
            raise ValidationError("one weight per center required")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")

    @property
    def mode(self) -> str:
        return self.centers.mode

    def evaluate_axes(self, x, y, z) -> np.ndarray:
        """Field values over coordinate arrays that broadcast to (rows, cols).

        x, y and z have at most two dims each; the result has their broadcast
        shape.  Each tile of distance_tiles (see distance.py for how a grid
        chunk's xs[None, :] is shared) becomes basis values, then weighted
        row sums, in place.  No step mixes points, so every value equals
        evaluate() of its point bit for bit.
        """
        coords = [np.asarray(v, dtype=np.float64) for v in (x, y, z)]
        shape = np.broadcast_shapes(*(v.shape for v in coords))
        if len(shape) > 2:
            raise ValidationError(f"coordinates must have at most 2 dims, got {shape}")
        coords = [v.reshape((1,) * (2 - v.ndim) + v.shape) for v in coords]
        out = np.empty((1,) * (2 - len(shape)) + shape)
        c = self.centers
        for rows, cols, phi in distance_tiles(*coords, c.points, c.seg_a, c.seg_b):
            _fill_basis(self.basis, phi)
            phi *= self.weights
            out[rows, cols] = phi.reshape(-1, len(c)).sum(axis=1).reshape(phi.shape[:2])
        return out.reshape(shape)

    def evaluate_many(self, pts: np.ndarray) -> np.ndarray:
        """Field values at each row of ``pts`` (n, 3), via evaluate_axes."""
        pts = as_points(pts)
        return self.evaluate_axes(pts[:, 0, None], pts[:, 1, None], pts[:, 2, None])[:, 0]

    def evaluate(self, x) -> float:
        return float(self.evaluate_many(np.asarray(x, dtype=np.float64).reshape(1, 3))[0])

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        c = self.centers
        pos = np.concatenate([c.points, c.seg_a, c.seg_b])
        return pos.min(axis=0), pos.max(axis=0)


@dataclass(frozen=True)
class FitReport:
    """Solve diagnostics: condition estimate and final residual.

    ``condition_estimate`` is 1 / rcond from LAPACK dgecon on the fit's LU
    factors: an estimate, from below, of the 1-norm condition number.
    """

    n_centers: int
    condition_estimate: float
    residual_inf: float


def fit_with_report(centers: CenterSet, basis: Basis, lam: float = 0.0):
    """Assemble and solve the collocation system, returning (model, report)."""
    a, rhs = assemble_matrix(centers, basis, lam)
    w, lu, norm_1 = _lu_solve_checked(a, rhs)
    rcond, _ = dgecon(lu, norm_1)
    residual = float(np.abs(a @ w - rhs).max())
    if residual > RESIDUAL_TOL * (1.0 + float(np.abs(rhs).max())):
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds tolerance; "
            "the system is too ill-conditioned at this shape parameter"
        )
    model = InterpolationModel(centers=centers, basis=basis, lam=lam, weights=w)
    return model, FitReport(len(centers), 1.0 / rcond, residual)


def fit_mesh(mesh: VolumetricMesh, basis: Basis, mode: str, lam: float = 0.0):
    """Center construction plus fit, returning (model, report)."""
    return fit_with_report(assemble_center_set(mesh, mode), basis, lam)


# ---------------------------------------------------------------------------
# Model file (ARBF1)
# ---------------------------------------------------------------------------

def _f17(x: float) -> str:
    return f"{float(x):.17g}"


def save_model(model: InterpolationModel, path: str) -> None:
    """Write a model as ASCII: magic, basis, lambda, N, P lines, S lines, weights."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    c = model.centers
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{_MODEL_MAGIC}\n")
        fh.write(f"basis {model.basis.kind} {_f17(model.basis.c)}\n")
        fh.write(f"lambda {_f17(model.lam)}\n")
        fh.write(f"{len(c)}\n")
        for q, v in zip(c.points, c.point_values):
            fh.write(f"P {_f17(q[0])} {_f17(q[1])} {_f17(q[2])} {_f17(v)}\n")
        for a, b in zip(c.seg_a, c.seg_b):
            fh.write("S " + " ".join(_f17(x) for x in (*a, *b)) + " -1\n")
        for w in model.weights:
            fh.write(f"{_f17(w)}\n")


def _finite_floats(tokens, path: str, lineno: int) -> list[float]:
    try:
        vals = [float(t) for t in tokens]
    except ValueError:
        raise ParseError(f"malformed number in {tokens!r}", path, lineno) from None
    if not all(np.isfinite(vals)):
        raise ParseError(f"non-finite number in {tokens!r}", path, lineno)
    return vals


def load_model(path: str) -> InterpolationModel:
    """Read a model written by save_model.

    Center lines of each kind are gathered, with their weights, in file
    order: P lines (``P x y z value``, value +1 or -1) before S lines
    (``S ax ay az bx by bz -1``).
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != _MODEL_MAGIC:
        raise ParseError(f"missing {_MODEL_MAGIC} magic", path, 1)
    if len(lines) < 4:
        raise ParseError("truncated header", path)
    basis_tokens = lines[1].split()
    lam_tokens = lines[2].split()
    if len(basis_tokens) != 3 or basis_tokens[0] != "basis":
        raise ParseError("expected 'basis <kind> <c>'", path, 2)
    if len(lam_tokens) != 2 or lam_tokens[0] != "lambda":
        raise ParseError("expected 'lambda <value>'", path, 3)
    try:
        basis = Basis(kind=basis_tokens[1], c=_finite_floats(basis_tokens[2:], path, 2)[0])
    except ValidationError as exc:
        raise ParseError(str(exc), path, 2) from None
    lam = _finite_floats(lam_tokens[1:], path, 3)[0]
    try:
        n = int(lines[3])
    except ValueError:
        raise ParseError(f"malformed center count {lines[3]!r}", path, 4) from None
    if n < 1:
        raise ParseError(f"center count must be positive, got {n}", path, 4)
    if len(lines) < 4 + 2 * n:
        raise ParseError(f"expected {n} centers and {n} weights", path)
    rows = {"P": [], "S": []}  # center fields, value, then weight
    for i in range(n):
        lineno = 5 + i
        tokens = lines[4 + i].split()
        kind = tokens[0] if tokens else None
        if (kind, len(tokens)) not in (("P", 5), ("S", 8)):
            raise ParseError(f"malformed center line {lines[4 + i]!r}", path, lineno)
        vals = _finite_floats(tokens[1:], path, lineno)
        if kind == "P" and vals[3] not in (1.0, -1.0):
            raise ParseError(f"point value must be +1 or -1, got {vals[3]}", path, lineno)
        if kind == "S" and vals[6] != -1.0:
            raise ParseError(f"segment value must be -1, got {vals[6]}", path, lineno)
        rows[kind].append(vals + _finite_floats([lines[4 + n + i]], path, 5 + n + i))
    pts = np.array(rows["P"]).reshape(-1, 5)
    segs = np.array(rows["S"]).reshape(-1, 8)
    centers = CenterSet(pts[:, :3], pts[:, 3], segs[:, :3], segs[:, 3:6])
    return InterpolationModel(centers=centers, basis=basis, lam=lam,
                              weights=np.concatenate([pts[:, 4], segs[:, 7]]))
