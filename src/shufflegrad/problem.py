"""Finite-sum linear-prediction objectives.

The objective is the arithmetic mean F(w) = (1/m) sum_i f_i(w) of
per-point losses.  Two concrete problem types are provided:

* :class:`RidgeProblem` for the regularized squared loss
  f_i(w) = (1/2)(<w, x_i> - y_i)^2 + (alpha/2)||w||^2, with its exact
  minimizer, curvature constants and a fast suboptimality evaluation.
* :class:`LipschitzLinearProblem` for convex Lipschitz losses of the
  prediction <w, x_i> (absolute, hinge, or squared), restricted to a
  Euclidean ball of given radius.

Mean reduction order
--------------------
``full_objective``, and ``full_gradient`` of the Lipschitz losses,
reduce per-point terms with an index-ascending balanced pairwise tree
(:func:`pairwise_sum`): level 0 pairs elements (0,1), (2,3), ...; an odd
trailing element passes to the next level unchanged; levels repeat until
one value remains.  The ridge gradient needs no reduction over points:
it is exactly ``hessian @ w - b`` with the cached Hessian and right-hand
side b = (1/m) X^T y, an O(d^2) evaluation.  The distributed simulation
builds the same Gram form per machine and, with one machine, reuses
these very arrays, so it reproduces the single-machine anchor bit for bit.

Blocks of points
----------------
``full_objective`` and ``suboptimality`` take one point w of shape (d,)
and return a float, or a block W of shape (n, d) and return n values;
the single point is evaluated as a block of one row.  Each row of a
block gets the bits the same formula gives that row on its own, because
every product is a *stacked* matmul: ``H @ D[:, :, None]`` and
``X @ W[:, :, None]`` run one matrix-vector product per row and
``D[:, None, :] @ Q`` one dot product per row, the same BLAS routines
the one-point expressions ``H @ dw``, ``X @ w`` and ``dw @ q`` call.  A
plain matrix product such as ``D @ H`` would let BLAS block the rows
together and change the last bits.  The equality rests on how numpy
dispatches stacked products, not on IEEE arithmetic, so the tests check
it row by row against the one-point formulas.  The point losses of a block are
evaluated in chunks of rows holding at most ``LOSS_CHUNK`` losses, so
memory does not grow with n·m, and each row's losses pass through the
same pairwise tree as a single point's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    SingularCurvature,
)

NORM_SLACK = 1e-12
SINGULAR_CUTOFF = 1e-12
DENSE_EIG_LIMIT = 512
LOSS_CHUNK = 1 << 15  # point losses held at once by a block evaluation

LOSS_KINDS = ("squared", "absolute", "hinge")


def pairwise_sum(values: np.ndarray) -> np.ndarray:
    """Sum along axis 0 with the documented index-ascending pairwise tree."""
    s = np.asarray(values, dtype=np.float64)
    if s.shape[0] == 0:
        return np.zeros(s.shape[1:])
    while s.shape[0] > 1:
        half = s.shape[0] // 2
        paired = s[0 : 2 * half : 2] + s[1 : 2 * half : 2]
        if s.shape[0] % 2:
            paired = np.concatenate([paired, s[-1:]], axis=0)
        s = paired
    return s[0]


def pairwise_mean(values: np.ndarray) -> np.ndarray:
    n = np.asarray(values).shape[0]
    return pairwise_sum(values) / n


@dataclass(frozen=True)
class Dataset:
    """m feature vectors (rows of X, Euclidean norm <= 1) with labels in [-1, 1]."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=np.float64))
        if X.ndim != 2:
            raise DimensionMismatch(f"X must be (m, d), got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise DimensionMismatch(f"y must have shape ({X.shape[0]},), got {y.shape}")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise InvalidParameter("dataset needs m >= 1 and d >= 1")
        norms = np.linalg.norm(X, axis=1)
        if norms.max() > 1.0 + NORM_SLACK:
            raise InvalidParameter(
                f"feature norms must be <= 1 (max is {norms.max():.6g})"
            )
        if np.abs(y).max() > 1.0 + NORM_SLACK:
            raise InvalidParameter(f"labels must lie in [-1, 1] (max |y| is {np.abs(y).max():.6g})")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _scalar_loss(kind: str, z: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """loss(z; y) elementwise; written into ``out`` when given (it may be z)."""
    if kind == "squared":
        r = np.subtract(z, y, out=out)
        return np.multiply(0.5, np.square(r, out=out), out=out)
    if kind == "absolute":
        return np.abs(np.subtract(z, y, out=out), out=out)
    if kind == "hinge":
        r = np.subtract(1.0, np.multiply(y, z, out=out), out=out)
        return np.maximum(0.0, r, out=out)
    raise InvalidParameter(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def _scalar_slope(kind: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A subgradient of the scalar loss in z.  At kinks the value 0 is used."""
    if kind == "squared":
        return z - y
    if kind == "absolute":
        return np.sign(z - y)
    if kind == "hinge":
        return np.where(1.0 - y * z > 0.0, -y, 0.0)
    raise InvalidParameter(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


class _LinearPredictionProblem:
    """Shared machinery: per-point losses/gradients and the pairwise objective."""

    data: Dataset
    alpha: float
    kind: str

    def _check_w(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.data.d,):
            raise DimensionMismatch(
                f"w must have shape ({self.data.d},), got {w.shape}"
            )
        return w

    def _check_block(self, w) -> tuple[np.ndarray, bool]:
        """A (d,) point or an (n, d) block as (n, d) rows, and whether it was a point."""
        w = np.asarray(w, dtype=np.float64)
        if w.ndim not in (1, 2) or w.shape[-1] != self.data.d:
            raise DimensionMismatch(
                f"w must have shape ({self.data.d},) or (n, {self.data.d}), got {w.shape}"
            )
        return w.reshape(-1, self.data.d), w.ndim == 1

    def _check_i(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.data.m:
            raise IndexOutOfRange(f"index {i} outside [0, {self.data.m})")
        return i

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def d(self) -> int:
        return self.data.d

    def point_loss(self, i: int, w) -> float:
        """f_i(w) for one data point."""
        i = self._check_i(i)
        w = self._check_w(w)
        z = float(self.data.X[i] @ w)
        reg = 0.5 * self.alpha * float(w @ w)
        return float(_scalar_loss(self.kind, z, self.data.y[i])) + reg

    def point_gradient(self, i: int, w) -> np.ndarray:
        """A (sub)gradient of f_i at w; kinks resolve to the zero slope."""
        i = self._check_i(i)
        w = self._check_w(w)
        z = float(self.data.X[i] @ w)
        g = _scalar_slope(self.kind, z, self.data.y[i]) * self.data.X[i]
        return g + self.alpha * w

    def point_losses(self, w, indices=None) -> np.ndarray:
        """Vector of f_i(w) over the given indices (all points by default)."""
        w = self._check_w(w)
        X, y = self._rows(indices)
        z = X @ w
        return _scalar_loss(self.kind, z, y) + 0.5 * self.alpha * float(w @ w)

    def point_gradient_rows(self, w, indices=None) -> np.ndarray:
        """Matrix whose row j is the (sub)gradient of f_{indices[j]} at w."""
        w = self._check_w(w)
        X, y = self._rows(indices)
        z = X @ w
        return _scalar_slope(self.kind, z, y)[:, None] * X + self.alpha * w

    def _rows(self, indices):
        if indices is None:
            return self.data.X, self.data.y
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.data.m):
            raise IndexOutOfRange("index list outside dataset range")
        return self.data.X[idx], self.data.y[idx]

    def full_objective(self, w):
        """F(w): pairwise mean of the point losses, ascending index order.

        A block of rows gives one value per row (see "Blocks of points").
        """
        W, single = self._check_block(w)
        X, y = self.data.X, self.data.y
        out = np.empty(W.shape[0])
        rows = max(1, LOSS_CHUNK // self.data.m)
        for lo in range(0, W.shape[0], rows):
            A = W[lo : lo + rows]
            z = (X @ A[:, :, None])[:, :, 0]
            reg = 0.5 * self.alpha * (A[:, None, :] @ A[:, :, None])[:, 0]
            losses = _scalar_loss(self.kind, z, y, out=z)
            losses += reg
            out[lo : lo + rows] = pairwise_mean(losses.T)
        return float(out[0]) if single else out

    def suboptimality(self, w):
        """F(w) - F(w*), never meaningfully below zero; per row for a block."""
        return self.full_objective(w) - self.fstar


class RidgeProblem(_LinearPredictionProblem):
    """Mean regularized squared loss with cached exact solution.

    Parameters
    ----------
    data : Dataset
    alpha : float
        Regularization weight (>= 0).  The objective's strong convexity
        is the smallest eigenvalue of hessian = (1/m) X^T X + alpha*I,
        which is at least alpha; smoothness is 1 + alpha because feature
        norms are at most 1.
    """

    kind = "squared"

    def __init__(self, data: Dataset, alpha: float):
        if alpha < 0:
            raise InvalidParameter("alpha must be >= 0")
        self.data = data
        self.alpha = float(alpha)
        X, y = data.X, data.y
        m = data.m
        self.hessian = (X.T @ X) / m + self.alpha * np.eye(data.d)
        self._rhs = (X.T @ y) / m

    @cached_property
    def strong_convexity(self) -> float:
        """Smallest eigenvalue of the Hessian, clamped below at alpha."""
        lam = _smallest_eigenvalue(self.hessian)
        return max(lam, self.alpha)

    @property
    def smoothness(self) -> float:
        return 1.0 + self.alpha

    @cached_property
    def _solution(self):
        if self.strong_convexity < SINGULAR_CUTOFF:
            raise SingularCurvature(
                f"Hessian smallest eigenvalue {self.strong_convexity:.3g} is below "
                f"{SINGULAR_CUTOFF:g}; no reliable exact minimizer"
            )
        chol = scipy.linalg.cho_factor(self.hessian, lower=True)
        w = scipy.linalg.cho_solve(chol, self._rhs)
        # One step of iterative refinement keeps the residual tiny even
        # for poorly conditioned spectra.
        w = w + scipy.linalg.cho_solve(chol, self._rhs - self.hessian @ w)
        resid = np.linalg.norm(self.hessian @ w - self._rhs)
        if resid > 1e-10 * max(1.0, np.linalg.norm(w)):
            raise SingularCurvature(
                f"normal-equation residual {resid:.3g} exceeds tolerance"
            )
        return w, self.full_objective(w)

    @property
    def wstar(self) -> np.ndarray:
        return self._solution[0]

    @property
    def fstar(self) -> float:
        return self._solution[1]

    def minimizer(self):
        """(w*, F(w*)) from a direct symmetric positive-definite solve."""
        return self._solution

    def full_gradient(self, w) -> np.ndarray:
        """Gradient of F in Gram form, hessian @ w - (1/m) X^T y: O(d^2)."""
        w = self._check_w(w)
        return self.hessian @ w - self._rhs

    def suboptimality(self, w):
        """F(w) - F(w*) evaluated as the exact curvature form
        (1/2)(w - w*)^T H (w - w*), which is nonnegative by construction;
        per row for a block (see "Blocks of points")."""
        W, single = self._check_block(w)
        D = W - self.wstar
        vals = 0.5 * (D[:, None, :] @ (self.hessian @ D[:, :, None]))[:, 0, 0]
        return float(vals[0]) if single else vals


def _smallest_eigenvalue(H: np.ndarray) -> float:
    d = H.shape[0]
    if d <= DENSE_EIG_LIMIT:
        return float(np.linalg.eigvalsh(H)[0])
    import scipy.sparse.linalg

    # Shift-inverted iteration for large d; tolerance matches the dense path.
    val = scipy.sparse.linalg.eigsh(
        H, k=1, sigma=0.0, which="LM", tol=1e-8, return_eigenvectors=False
    )
    return float(val[0])


class LipschitzLinearProblem(_LinearPredictionProblem):
    """Convex Lipschitz loss of a linear prediction on a Euclidean ball.

    f_i(w) = loss(<w, x_i>; y_i) + (alpha/2)||w||^2 with
    loss in {absolute, hinge, squared}, iterates restricted to
    ||w|| <= radius.

    Derived constants:

    * ``lipschitz``: bound on |loss'(z)| over the reachable predictions
      z in [-radius, radius] (absolute: 1; hinge: max|y|; squared:
      radius + max|y|).
    * ``grad_bound``: sup of ||grad f_i(w)|| over the ball,
      lipschitz + alpha * radius.
    * ``loss_bound``: sup of |f_i(w)| over the ball (the value-range
      constant; distinct from the ball radius, which some analyses also
      call B).
    * ``smoothness``: second-derivative bound of the scalar loss plus
      alpha; only the squared kind is smooth (1 + alpha), the kinked
      kinds report None.
    """

    def __init__(self, data: Dataset, kind: str, radius: float, alpha: float = 0.0):
        if kind not in LOSS_KINDS:
            raise InvalidParameter(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
        if radius <= 0:
            raise InvalidParameter("radius must be positive")
        if alpha < 0:
            raise InvalidParameter("alpha must be >= 0")
        self.data = data
        self.kind = kind
        self.radius = float(radius)
        self.alpha = float(alpha)
        ymax = float(np.abs(data.y).max())
        if kind == "absolute":
            self.lipschitz = 1.0
        elif kind == "hinge":
            self.lipschitz = ymax
        else:
            self.lipschitz = self.radius + ymax
        self.grad_bound = self.lipschitz + self.alpha * self.radius
        if kind == "absolute":
            raw = self.radius + ymax
        elif kind == "hinge":
            raw = 1.0 + ymax * self.radius
        else:
            raw = 0.5 * (self.radius + ymax) ** 2
        self.loss_bound = raw + 0.5 * self.alpha * self.radius**2
        self.smoothness = 1.0 + self.alpha if kind == "squared" else None

    @cached_property
    def _reference(self):
        w = reference_minimizer(self)
        return w, self.full_objective(w)

    @property
    def wstar(self) -> np.ndarray:
        """Reference minimizer (exact for squared; ADMM to tight residuals
        for the kinked losses, see :func:`reference_minimizer`)."""
        return self._reference[0]

    @property
    def fstar(self) -> float:
        return self._reference[1]

    def full_gradient(self, w) -> np.ndarray:
        """A subgradient of F: pairwise mean of point gradients, ascending order."""
        return pairwise_mean(self.point_gradient_rows(w))


def reference_minimizer(
    problem: LipschitzLinearProblem,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """High-accuracy minimizer of a Lipschitz linear-loss objective.

    The squared kind is solved exactly through :class:`RidgeProblem`.
    The kinked kinds run ADMM on the split  minimize (1/m) sum loss(z_i)
    + (alpha/2)||w||^2  subject to  Xw = z, whose z-update is a
    closed-form proximal step.  Iterations stop once both residual norms
    drop below ``tol``.  The result must lie inside the problem's ball;
    otherwise the constrained optimum is not characterized here and an
    error is raised.
    """
    X, y = problem.data.X, problem.data.y
    m, d = problem.data.m, problem.data.d
    alpha = problem.alpha

    if problem.kind == "squared":
        w = RidgeProblem(problem.data, alpha).wstar
        _require_interior(w, problem.radius)
        return w

    gram = X.T @ X
    rho = 1.0
    system = alpha * np.eye(d) + rho * gram
    if np.linalg.eigvalsh(system)[0] < SINGULAR_CUTOFF:
        raise SingularCurvature(
            "reference solve needs alpha > 0 or full-rank features"
        )
    chol = scipy.linalg.cho_factor(system, lower=True)
    step = 1.0 / (m * rho)

    z = np.zeros(m)
    u = np.zeros(m)
    w = np.zeros(d)
    for _ in range(max_iter):
        w = scipy.linalg.cho_solve(chol, rho * (X.T @ (z - u)))
        xw = X @ w
        z_old = z
        z = _prox(problem.kind, xw + u, y, step)
        u = u + xw - z
        primal = np.linalg.norm(xw - z)
        dual = rho * np.linalg.norm(X.T @ (z - z_old))
        if primal < tol and dual < tol:
            break
    else:
        raise InvalidParameter(
            f"reference solve did not reach tol={tol:g} in {max_iter} iterations"
        )
    _require_interior(w, problem.radius)
    return w


def _require_interior(w: np.ndarray, radius: float):
    if np.linalg.norm(w) > radius * (1.0 + 1e-9):
        raise InvalidParameter(
            f"unconstrained minimizer (norm {np.linalg.norm(w):.4g}) lies outside "
            f"the ball of radius {radius:g}; enlarge the radius"
        )


def _prox(kind: str, v: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """prox_{step * loss(. ; y)}(v) for the kinked scalar losses."""
    if kind == "absolute":
        shifted = v - y
        return y + np.sign(shifted) * np.maximum(np.abs(shifted) - step, 0.0)
    if kind == "hinge":
        out = v.copy()
        yv = y * v
        active = yv < 1.0 - step * y**2
        out[active] = v[active] + step * y[active]
        middle = (~active) & (yv < 1.0) & (y != 0.0)
        out[middle] = 1.0 / y[middle]
        return out
    raise InvalidParameter(f"no proximal step for kind {kind!r}")
