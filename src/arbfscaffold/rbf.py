"""Radial basis function interpolation over point and segment centers.

The field is s(x) = sum_i w_i * phi(d_i(x)) where d_i is the Euclidean
distance to a point center or the point-to-segment distance to a segment
center.  Weights come from the dense collocation system A w = f with
A[i][j] = phi(d(center_i, center_j)).  No polynomial term is appended; an
optional Tikhonov lambda can be added to the diagonal when a basis/shape
combination turns out near-singular.

A is symmetric bit for bit, and in anisotropic mode indefinite: the segment
kernel is not positive definite, so a Cholesky factorization serves only
the isotropic mode.  The fit factors A in place as L D Lᵀ with
Bunch-Kaufman pivoting (LAPACK dsytrf) in either mode, and A is its only
N x N array (fit_with_report).

Between two segment centers, d is the minimum over their four endpoint
pairs.  That is a deliberate model choice, not the geometric distance
between the segments, and an upper bound on it: the closest points of two
skew segments may lie inside both.  Against a 401 x 401 brute force of the
true distance, the two are equal on the unperturbed 8-hex block (0 of 1128
pairs above); the minimum is above on 382 of 1128 pairs, by at most 1.29 %,
on that block perturbed with magnitude 0.2 and seed 0, and on 810 of 3160
pairs, by at most 0.23 %, on the 20-tet icosahedron.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import textio
from .distance import distance_tiles, squared_distance_block
from .errors import DuplicateCenterError, ParseError, SingularMatrixError, ValidationError, real
from .grid import FieldSource, bbox_diagonal
from .mesh import CenterSet, VolumetricMesh, assemble_center_set

BASIS_KINDS = ("gaussian", "mq", "imq", "tps")

# Centers within this fraction of their bbox diagonal are checked for duplicate geometry;
# tol² is capped at 2**1022, so an r² that overflowed to inf is no duplicate.
DUPLICATE_TOL = 1e-12
# A pivot block of D whose smaller |eigenvalue| is at or below this fraction of max|A|
# counts as singular.
PIVOT_TOL = 1e-12
# Post-solve residual bound: ||A w - f||_inf <= RESIDUAL_TOL * (1 + ||f||_inf).
RESIDUAL_TOL = 1e-8

_MODEL_MAGIC = "ARBF1"
_NO_ROWS = np.empty((0, 3))  # no segments, for point-to-point blocks


@dataclass(frozen=True)
class Basis:
    """Basis kind plus shape parameter.

    gaussian: exp(-c^2 r^2)        mq:  sqrt(r^2 + c^2)
    imq:      1 / sqrt(r^2 + c^2)  tps: 1/2 r^2 ln r^2  (0 at r = 0; c unused)

    Each is a function of r^2, so the field is evaluated on squared
    distances with no square root.
    """

    kind: str
    c: float = 0.1

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValidationError(f"unknown basis {self.kind!r}, expected one of {BASIS_KINDS}")
        lo = -np.inf if self.kind == "tps" else 0.0  # finite for tps too: save_model writes c
        c = real(self.c, "shape parameter", lo, above=True)
        if self.kind != "tps" and not 0.0 < c * c < np.inf:  # the other bases use c^2
            raise ValidationError("shape parameter must have a square that is positive and "
                                  f"finite, got {self.c!r}")
        object.__setattr__(self, "c", c)


def _fill_basis(basis: Basis, r2: np.ndarray) -> None:
    """Overwrite the squared distances ``r2`` with the basis values, in place."""
    if basis.kind == "tps":  # r^2 ln r = 1/2 r^2 ln r^2, defined as 0 at r = 0
        log_r2 = np.log(r2, out=np.zeros_like(r2), where=r2 > 0.0)
        r2 *= log_r2
        r2 *= 0.5
    elif basis.kind == "gaussian":  # exp(-c^2 r^2)
        r2 *= -(basis.c * basis.c)
        np.exp(r2, out=r2)
    else:  # mq and imq share sqrt(r^2 + c^2)
        r2 += basis.c * basis.c
        np.sqrt(r2, out=r2)
        if basis.kind == "imq":
            np.divide(1.0, r2, out=r2)


def eval_basis(basis: Basis, r):
    """Apply the basis to a scalar or array of distances."""
    out = np.array(r, dtype=np.float64)
    out *= out
    _fill_basis(basis, out)
    return float(out) if out.ndim == 0 else out


def assemble_matrix(centers: CenterSet, basis: Basis, lam: float = 0.0):
    """Dense collocation system (A, rhs) for a center set.

    A holds squared distances until basis values overwrite them in place.
    The point rows come from the tile walk of evaluate_axes, written into A
    by squared_distance_block, and become basis values by the step
    evaluate_axes applies to its tiles, so a point center's row has the
    bits of the field's terms at that center.  Their transpose fills the
    point columns.  Between segments i and j the entry is the minimum of
    |a_i - a_j|², |a_i - b_j|², |b_i - a_j|² and |b_i - b_j|²: the first is
    written into A's segment block, and the others come from one s x s
    scratch at a time, so A is the only N x N array.  Raises
    DuplicateCenterError when two centers coincide (see DUPLICATE_TOL):
    almost always a degenerate mesh.
    """
    lam = real(lam, "lambda")
    pts, sa, sb = centers.points, centers.seg_a, centers.seg_b
    p, n = len(pts), len(centers)
    tol = min(DUPLICATE_TOL * bbox_diagonal(*centers.bbox()), 2.0 ** 511) ** 2
    r2 = np.empty((n, n))
    squared_distance_block(pts, pts, sa, sb, out=r2[:p])
    r2[p:, :p] = r2[:p, p:].T
    seg = squared_distance_block(sa, sa, _NO_ROWS, _NO_ROWS, out=r2[p:, p:])
    same = seg <= tol
    ab = squared_distance_block(sa, sb, _NO_ROWS, _NO_ROWS)
    flipped = (ab <= tol) & (ab.T <= tol)
    np.minimum(seg, ab, out=seg)
    np.minimum(seg, ab.T, out=seg)  # |b_i - a_j|² rounds exactly as |a_j - b_i|²
    del ab  # one s x s scratch at a time
    bb = squared_distance_block(sb, sb, _NO_ROWS, _NO_ROWS)
    same &= bb <= tol
    np.minimum(seg, bb, out=seg)
    del bb

    # Point pairs, then segment pairs with identical geometry in either
    # orientation; segments that merely touch (shared face center) are fine.
    for off, dup in ((0, r2[:p, :p] <= tol), (p, same | flipped)):
        i, j = np.nonzero(dup)
        upper = np.flatnonzero(i < j)
        if len(upper):
            raise DuplicateCenterError(f"centers {off + i[upper[0]]} and {off + j[upper[0]]} "
                                       "coincide; check the mesh for degenerate cells")
    _fill_basis(basis, r2)
    r2.flat[::n + 1] += lam
    return r2, centers.values


def _ldl_solve(ldu, ipiv, b) -> np.ndarray:
    """A^-1 b from dsytrf's lower factors of A in the F-ordered ``ldu``."""
    from scipy.linalg import lapack
    return lapack.dsytrs(ldu, ipiv, b, lower=1)[0]


def _inverse_one_norm(ldu, ipiv) -> float:
    """Hager's estimate, from below, of ||A^-1||_1 from A's LDLᵀ factors.

    Hager (1984) climbs ||A^-1 x||_1 over unit vectors x, with solves by A
    and A^T on the same factors; Higham (ACM TOMS 14, 1988) caps it at five
    steps and adds the alternating-sign vector as a second guess.  A is
    symmetric, so A^-T = A^-1 and one solve serves both directions.  It
    takes only dsytrs and numpy sums, so it repeats bit for bit as the
    weights do.
    """
    n = len(ipiv)
    x, est = np.full(n, 1.0 / n), 0.0
    for _ in range(5):
        y = _ldl_solve(ldu, ipiv, x)
        y_norm = np.abs(y).sum()
        if y_norm <= est:
            break
        est = y_norm
        z = _ldl_solve(ldu, ipiv, np.where(y >= 0.0, 1.0, -1.0))
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= (z * x).sum():  # x is a local maximum
            break
        x = np.zeros(n)
        x[j] = 1.0
    alt = np.linspace(1.0, 2.0, n)
    alt[1::2] *= -1.0
    return float(max(est, np.abs(_ldl_solve(ldu, ipiv, alt)).sum() / np.abs(alt).sum()))


def _smallest_pivot(ldu, ipiv) -> float:
    """The smallest |eigenvalue| of D's 1 x 1 and 2 x 2 blocks in dsytrf's lower factors.

    A negative ipiv marks the two rows of a 2 x 2 block, so a run of them
    pairs up from its start.  A block [[p, q], [q, r]] has the eigenvalues
    m ± h, m = (p + r) / 2 and h = hypot((p - r) / 2, q), so the smaller
    magnitude is ||m| - h|, off by a few eps * (|m| + h).
    """
    d, off = ldu.diagonal(), ldu.diagonal(-1)
    k = np.arange(len(ipiv))
    two = ipiv < 0
    last_one = np.maximum.accumulate(np.where(two, -1, k))
    first = np.flatnonzero(two & ((k - last_one) % 2 == 1))
    p, q, r = d[first], off[first], d[first + 1]
    small = np.abs(np.abs(0.5 * p + 0.5 * r) - np.hypot(0.5 * p - 0.5 * r, q))
    return float(np.concatenate([np.abs(d[~two]), small]).min(initial=np.inf))  # keeps a NaN


def _residual(a, diag, w, rhs) -> np.ndarray:
    """A w - rhs while ``a`` holds dsytrf's lower factors of A in a.T.

    dsymv reads the strict upper triangle of a.T, which dsytrf leaves as
    A's, and the diagonal, where A's saved ``diag`` stands in for D's until
    the product is taken.
    """
    from scipy.linalg import blas
    d = a.diagonal().copy()
    np.fill_diagonal(a, diag)
    out = blas.dsymv(1.0, a.T, w, beta=-1.0, y=rhs, lower=0)
    np.fill_diagonal(a, d)
    return out


@dataclass(eq=False)
class InterpolationModel(FieldSource):
    """A fitted field: center set, basis, lambda, and solved weights."""

    centers: CenterSet
    basis: Basis
    lam: float
    weights: np.ndarray

    def __post_init__(self):
        self.lam = real(self.lam, "lambda")
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
        shape.  Each tile of squared distances from distance_tiles (see
        distance.py for how a grid chunk's xs[None, :] is shared) becomes
        basis values in place, then weighted sums in one einsum pass.  No
        step mixes points, so every value equals evaluate() of its point bit
        for bit.  That is why the sum is an einsum and not ``phi @ w``: a
        BLAS product may round a row differently with the number of rows.
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
            out[rows, cols] = np.einsum("rcn,n->rc", phi, self.weights)
        return out.reshape(shape)

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.centers.bbox()


@dataclass(frozen=True)
class FitReport:
    """Solve diagnostics: condition estimate and final residual.

    ``condition_estimate`` is ||A||_1 times Hager's estimate of ||A^-1||_1
    on the fit's LDLᵀ factors: an estimate, from below, of the 1-norm
    condition number, the same bits on every run.  ||A||_1 is read by LAPACK
    dlange, before the factorization overwrites A and with no |A| copy; it
    adds each column's entries in row order, as numpy's column sums of |A|
    do, so the bits are theirs.  ``residual_inf`` is ||A w - f||_inf after
    the refinement step, with A w from BLAS dsymv.
    """

    n_centers: int
    condition_estimate: float
    residual_inf: float


def fit_with_report(centers: CenterSet, basis: Basis, lam: float = 0.0):
    """Assemble and solve the collocation system, returning (model, report).

    A is symmetric bit for bit and, in anisotropic mode, indefinite, so one
    symmetric indefinite factorization A = L D Lᵀ serves both modes:
    Bunch-Kaufman pivoting (Math. Comp. 31, 1977), LAPACK dsytrf.  It runs
    in place on a.T, an F-ordered view that f2py passes without a copy, so
    A is the fit's only N x N array.  One refinement step follows the solve.
    A non-finite A, a pivot block of D whose smaller |eigenvalue| is at most
    PIVOT_TOL * max|A| (a zero one always) or a residual above RESIDUAL_TOL
    * (1 + ||f||_inf) raises SingularMatrixError.
    """
    a, rhs = assemble_matrix(centers, basis, lam)
    from scipy.linalg import lapack, norm  # only fits pay its import
    scale = max(a.max(), -a.min())  # max|A| with no |A| copy
    if not np.isfinite(scale):
        raise SingularMatrixError("interpolation matrix is not finite; "
                                  "check the mesh scale and the shape parameter")
    norm_1 = norm(a, 1, check_finite=False)  # dlange: no |A| copy (see FitReport)
    diag = a.diagonal().copy()
    n = len(a)
    # dsytrf's info > 0 names an exactly zero pivot, which the test below refuses
    ldu, ipiv, _ = lapack.dsytrf(a.T, lower=1, lwork=int(lapack.dsytrf_lwork(n, lower=1)[0]),
                                 overwrite_a=1)
    if not _smallest_pivot(ldu, ipiv) > PIVOT_TOL * scale:  # a NaN one fails too
        raise SingularMatrixError(
            "interpolation matrix is numerically singular; "
            "a small Tikhonov lambda (e.g. 1e-10) usually fixes this"
        )
    w = _ldl_solve(ldu, ipiv, rhs)
    # One step of iterative refinement tightens the residual cheaply.
    w = w - _ldl_solve(ldu, ipiv, _residual(a, diag, w, rhs))
    residual = float(np.abs(_residual(a, diag, w, rhs)).max())
    if not residual <= RESIDUAL_TOL * (1.0 + float(np.abs(rhs).max())):  # a NaN fails too
        raise SingularMatrixError(
            f"solve residual {residual:.3e} exceeds tolerance; "
            "the system is too ill-conditioned at this shape parameter"
        )
    model = InterpolationModel(centers=centers, basis=basis, lam=lam, weights=w)
    return model, FitReport(n, norm_1 * _inverse_one_norm(ldu, ipiv), residual)


def fit_mesh(mesh: VolumetricMesh, basis: Basis, mode: str, lam: float = 0.0):
    """Center construction plus fit, returning (model, report)."""
    return fit_with_report(assemble_center_set(mesh, mode), basis, lam)


# ---------------------------------------------------------------------------
# Model file (ARBF1)
# ---------------------------------------------------------------------------

def save_model(model: InterpolationModel, path: str) -> None:
    """Write a model as ASCII: magic, basis, lambda, N, P lines, S lines, weights."""
    c = model.centers
    with textio.create(path, "w") as fh:
        fh.write(f"{_MODEL_MAGIC}\nbasis {model.basis.kind} {float(model.basis.c):.17g}\n"
                 f"lambda {float(model.lam):.17g}\n{len(c)}\n")
        textio.write_rows(fh, "P %.17g %.17g %.17g %.17g\n",
                          np.column_stack([c.points, c.point_values]))
        textio.write_rows(fh, "S" + " %.17g" * 6 + " -1\n", np.hstack([c.seg_a, c.seg_b]))
        textio.write_rows(fh, "%.17g\n", model.weights[:, None])


def load_model(path: str) -> InterpolationModel:
    """Read a model written by save_model.

    Center lines of each kind are gathered, with their weights, in file
    order: P lines (``P x y z value``, value +1 or -1) before S lines
    (``S ax ay az bx by bz -1``).  Every line is read by position, so a
    blank line is an error at that line.
    """
    lines = textio.decode(path)
    if next(lines, (1, None))[1] != [_MODEL_MAGIC]:
        raise ParseError(f"missing {_MODEL_MAGIC} magic", path, 1)
    (_, basis_tokens), (_, lam_tokens), (_, n_tokens) = textio.rows(lines, 3, path,
                                                                    "header lines")
    if len(basis_tokens) != 3 or basis_tokens[0] != "basis":
        raise ParseError("expected 'basis <kind> <c>'", path, 2)
    if len(lam_tokens) != 2 or lam_tokens[0] != "lambda":
        raise ParseError("expected 'lambda <value>'", path, 3)
    try:
        basis = Basis(kind=basis_tokens[1], c=textio.floats(basis_tokens[2:], 1, path, 2)[0])
    except ValidationError as exc:
        raise ParseError(str(exc), path, 2) from None
    lam = textio.floats(lam_tokens[1:], 1, path, 3)[0]
    n, = textio.ints(n_tokens, 1, path, 4)
    textio.check_counts(path, 4, center=n)
    centers = textio.rows(lines, n, path, "center lines")
    weights = textio.rows(lines, n, path, "weight lines")
    rows = {"P": [], "S": []}  # center fields, value, then weight
    for (lineno, tokens), (w_lineno, w_tokens) in zip(centers, weights):
        kind = tokens[0] if tokens else None
        if (kind, len(tokens)) not in (("P", 5), ("S", 8)):
            raise ParseError(f"malformed center line {' '.join(tokens)!r}", path, lineno)
        vals = textio.floats(tokens[1:], len(tokens) - 1, path, lineno)
        if kind == "P" and vals[3] not in (1.0, -1.0):
            raise ParseError(f"point value must be +1 or -1, got {vals[3]}", path, lineno)
        if kind == "S" and vals[6] != -1.0:
            raise ParseError(f"segment value must be -1, got {vals[6]}", path, lineno)
        rows[kind].append(vals + textio.floats(w_tokens, 1, path, w_lineno))
    pts = np.array(rows["P"]).reshape(-1, 5)
    segs = np.array(rows["S"]).reshape(-1, 8)
    centers = CenterSet(pts[:, :3], pts[:, 3], segs[:, :3], segs[:, 3:6])
    return InterpolationModel(centers=centers, basis=basis, lam=lam,
                              weights=np.concatenate([pts[:, 4], segs[:, 7]]))
