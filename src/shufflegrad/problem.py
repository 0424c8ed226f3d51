"""Finite-sum linear-prediction objectives.

The objective is the arithmetic mean F(w) = (1/m) sum_i f_i(w) of
per-point losses.  Two concrete problem types are provided:

* :class:`RidgeProblem` for the regularized squared loss
  f_i(w) = (1/2)(<w, x_i> - y_i)^2 + (alpha/2)||w||^2, with its exact
  minimizer, curvature constants and a fast suboptimality evaluation.
* :class:`LipschitzLinearProblem` for convex Lipschitz losses of the
  prediction <w, x_i> (absolute, hinge, or squared), restricted to a
  Euclidean ball of given radius.

A point index ``i`` and an ``indices`` row subset pass the package's one
index check, :func:`.sampling.explicit_indices`: integers in [0, m), no
bools or floats, a subset 1-D (an empty one reads no rows).

Mean reduction order
--------------------
``full_objective``, and ``full_gradient`` of the Lipschitz losses,
reduce per-point terms with an index-ascending balanced pairwise tree
(:func:`pairwise_sum`): level 0 pairs elements (0,1), (2,3), ...; an odd
trailing element passes to the next level unchanged; levels repeat until
one value remains.  The ridge gradient needs no reduction over points:
it is exactly ``hessian @ w - b`` with the cached Hessian and right-hand
side b = (1/m) X^T y, an O(d^2) evaluation.  The distributed simulation's
reduced anchor, the shard-weighted sum of local Gram forms, equals it by
linearity, so the simulation evaluates this very ``full_gradient`` and
reproduces the single-machine anchor bit for bit on any partition.

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

from .errors import DimensionMismatch, InvalidParameter, SingularCurvature
from .sampling import explicit_indices

NORM_SLACK = 1e-12
SINGULAR_CUTOFF = 1e-12
LOSS_CHUNK = 1 << 15  # point losses held at once by a block evaluation
CHECK_ROWS = 2048  # rows of X a feature check or norm scan holds at once

LOSS_KINDS = ("squared", "absolute", "hinge")

REFERENCE_TOL = 1e-13  # duality gap, relative to max(1, |F|)
REFERENCE_MAX_ITER = 200_000
ADMM_CHECK_EVERY = 10  # iterations between gap and residual checks
ADMM_BALANCE = 10.0  # residual ratio that rescales rho (Boyd et al. 2011, §3.4.1)
ADMM_RHO_FREEZE = 2_000  # iterations after which rho stays fixed


def max_row_norm(X: np.ndarray) -> np.float64:
    """The largest Euclidean row norm of a nonempty (m, d) array.

    Scans ``CHECK_ROWS`` rows at a time; each row's norm has the bits
    ``np.linalg.norm(X, axis=1)`` gives it, so the maximum is that of the
    whole-array expression.
    """
    return max(np.linalg.norm(X[lo : lo + CHECK_ROWS], axis=1).max()
               for lo in range(0, X.shape[0], CHECK_ROWS))


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
    """m finite feature vectors (rows of X, Euclidean norm <= 1) with labels in [-1, 1]."""

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
        finite = all(np.isfinite(X[lo : lo + CHECK_ROWS]).all()
                     for lo in range(0, X.shape[0], CHECK_ROWS))
        if not (finite and np.isfinite(y).all()):
            raise InvalidParameter("features and labels must be finite")
        nmax = max_row_norm(X)
        if nmax > 1.0 + NORM_SLACK:
            raise InvalidParameter(f"feature norms must be <= 1 (max is {nmax:.6g})")
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


def _scalar_slope(kind: str, z: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """A subgradient of the scalar loss in z, written into ``out`` when
    given.  At kinks the value 0 is used."""
    if kind == "squared":
        return np.subtract(z, y, out=out)
    if kind == "absolute":
        return np.sign(np.subtract(z, y, out=out), out=out)
    if kind == "hinge":
        slope = np.where(1.0 - y * z > 0.0, -y, 0.0)
        if out is None:
            return slope
        out[...] = slope
        return out
    raise InvalidParameter(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def _gram_form(X: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(H, b) with H @ w - b the mean ridge gradient over the rows of X:
    H = X^T X / n + alpha*I and b = X^T y / n."""
    n = X.shape[0]
    return (X.T @ X) / n + alpha * np.eye(X.shape[1]), (X.T @ y) / n


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

    @property
    def m(self) -> int:
        return self.data.m

    @property
    def d(self) -> int:
        return self.data.d

    def point_loss(self, i: int, w) -> float:
        """f_i(w) for one data point."""
        (i,) = explicit_indices([i], self.data.m, name="i")
        w = self._check_w(w)
        z = float(self.data.X[i] @ w)
        reg = 0.5 * self.alpha * float(w @ w)
        return float(_scalar_loss(self.kind, z, self.data.y[i])) + reg

    def point_gradient(self, i: int, w) -> np.ndarray:
        """A (sub)gradient of f_i at w; kinks resolve to the zero slope."""
        (i,) = explicit_indices([i], self.data.m, name="i")
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
        idx = explicit_indices(indices, self.data.m, name="indices")
        return np.take(self.data.X, idx, axis=0), np.take(self.data.y, idx)

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
        self.hessian, self._rhs = _gram_form(data.X, data.y, self.alpha)

    @cached_property
    def strong_convexity(self) -> float:
        """Smallest eigenvalue of the Hessian, clamped below at alpha."""
        lam = float(np.linalg.eigvalsh(self.hessian)[0])
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
        H, b = self.hessian, self._rhs
        w = np.linalg.solve(H, b)
        # One step of iterative refinement keeps the residual tiny even
        # for poorly conditioned spectra.
        w = w + np.linalg.solve(H, b - H @ w)
        resid = np.linalg.norm(H @ w - b)
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
        """(w*, F(w*)) from a direct solve of H w = b with one refinement step."""
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
        return _certified_minimizer(self, REFERENCE_TOL, REFERENCE_MAX_ITER)

    @property
    def wstar(self) -> np.ndarray:
        """Reference minimizer (exact for squared; certified ADMM for the
        kinked losses, see :func:`reference_minimizer`)."""
        return self._reference[0]

    @property
    def fstar(self) -> float:
        return self._reference[1]

    @property
    def reference_gap(self) -> float:
        """Duality gap F(wstar) - D(a), a proven bound on F(wstar) - F*
        over the ball; at most 1e-13 max(1, |fstar|) for the kinked kinds."""
        return self._reference[2]

    def full_gradient(self, w) -> np.ndarray:
        """A subgradient of F: pairwise mean of point gradients, ascending order."""
        return pairwise_mean(self.point_gradient_rows(w))


def reference_minimizer(
    problem: LipschitzLinearProblem,
    tol: float = REFERENCE_TOL,
    max_iter: int = REFERENCE_MAX_ITER,
) -> np.ndarray:
    """Minimizer of a Lipschitz linear-loss objective with a duality-gap certificate.

    The squared kind is solved exactly through :class:`RidgeProblem`.
    The kinked kinds run scaled ADMM (Boyd et al. 2011, *Distributed
    Optimization and Statistical Learning via the Alternating Direction
    Method of Multipliers*, §3.1) on the split  minimize (1/m) sum
    loss(z_i) + (alpha/2)||w||^2  subject to  Xw = z, whose z-update is a
    closed-form proximal step and whose w-update is one product with the
    inverse of (alpha/rho) I + X^T X, formed once per value of rho.

    Penalty schedule.  rho starts at the scale-aware 1/m, where the
    z-step's proximal weight 1/(m rho) is one.  Every ``ADMM_CHECK_EVERY``
    iterations, residual balancing (Boyd et al. 2011, §3.4.1) doubles rho
    when the primal residual ||Xw - z|| exceeds ``ADMM_BALANCE`` times the
    dual residual rho ||X^T (z - z_prev)||, halves it in the mirror case,
    rescales the scaled multiplier u by the inverse factor so that rho u
    is unchanged, and forms the inverse again.  After ``ADMM_RHO_FREEZE``
    iterations rho stays fixed, as convergence needs (§3.4.1); adapting for
    ever makes the hinge loss at alpha = 0 oscillate.

    Stopping rule.  On the same check iterations the loop evaluates the
    Fenchel duality gap F(w) - D(a) and stops once it is at most
    ``tol * max(1, |F(w)|)``.  The dual is that of
    F(w) = (1/m) sum phi_i(<x_i, w>) + g(w), with g the regularizer plus
    the indicator of the ball ||w|| <= R (the SDCA dual of Shalev-Shwartz
    & Zhang 2013, *Stochastic Dual Coordinate Ascent Methods for
    Regularized Loss Minimization*, with the ball added):

        D(a) = (1/m) sum -phi_i*(-a_i) - g*((1/m) X^T a),
        g*(v) = ||v||^2 / (2 alpha)         if ||v|| <= alpha R,
                R ||v|| - alpha R^2 / 2      otherwise,

    which covers alpha = 0 with the same formula.  The dual point is
    ADMM's own multiplier a = -m rho u projected onto the conjugate's
    domain (a in [-1, 1] for the absolute loss, a = b y with b in [0, 1]
    for the hinge; see :func:`_dual_objective`).  Weak duality makes the
    gap a proven bound on F(w) - F*, which the problem exposes as
    ``reference_gap``.  A solve that does not certify within ``max_iter``
    iterations raises :class:`InvalidParameter`.

    The result must lie inside the problem's ball; otherwise the
    constrained optimum is not characterized here and an error is raised.
    ADMM itself ignores the ball, so an iterate outside it is never
    returned; if its F lies below D(a), it beats every point of the ball,
    which proves the minimizer outside, and the solve raises at once.
    """
    return _certified_minimizer(problem, tol, max_iter)[0]


def _certified_minimizer(problem, tol, max_iter):
    """(w, F(w), gap) with the gap F(w) - D(a) >= F(w) - F*."""
    if problem.kind != "squared":
        return _admm(problem, tol, max_iter)
    w = RidgeProblem(problem.data, problem.alpha).wstar
    _require_interior(w, problem.radius)
    fw = problem.full_objective(w)
    # minus the loss slope at the exact solution: the dual optimum
    return w, fw, fw - _dual_objective(problem, problem.data.y - problem.data.X @ w)


def _admm(problem, tol, max_iter):
    """The ADMM loop of :func:`reference_minimizer`; returns (w, F(w), gap)."""
    X, y = problem.data.X, problem.data.y
    m, d = problem.data.m, problem.data.d
    alpha = problem.alpha

    gram = X.T @ X
    eye = np.eye(d)
    if np.linalg.eigvalsh(alpha * eye + gram)[0] < SINGULAR_CUTOFF:
        raise SingularCurvature(
            "reference solve needs alpha > 0 or full-rank features"
        )
    rho = 1.0 / m
    kinv = None  # inv(X^T X + (alpha/rho) I) for the current rho

    z = np.zeros(m)
    u = np.zeros(m)
    gap = np.inf
    for it in range(1, max_iter + 1):
        if kinv is None:
            kinv = np.linalg.inv(gram + (alpha / rho) * eye)
        w = kinv @ (X.T @ (z - u))
        xw = X @ w
        z_old = z
        z = _prox(problem.kind, xw + u, y, 1.0 / (m * rho))
        u += xw - z
        if it % ADMM_CHECK_EVERY:
            continue
        fw = problem.full_objective(w)
        gap = fw - _dual_objective(problem, -m * rho * u)
        bound = tol * max(1.0, abs(fw))
        if _in_ball(w, problem.radius):
            if gap <= bound:
                return w, fw, gap
        elif gap < -bound:  # F(w) < D(a) <= F over the ball
            raise InvalidParameter(
                f"the minimizer lies outside the ball of radius {problem.radius:g}: a point "
                f"of norm {np.linalg.norm(w):.4g} beats every point in it; enlarge the radius"
            )
        if it >= ADMM_RHO_FREEZE:
            continue
        primal = np.linalg.norm(xw - z)
        dual = rho * np.linalg.norm(X.T @ (z - z_old))
        if primal > ADMM_BALANCE * dual:
            rho, u = 2.0 * rho, 0.5 * u
        elif dual > ADMM_BALANCE * primal:
            rho, u = 0.5 * rho, 2.0 * u
        else:
            continue
        kinv = None
    raise InvalidParameter(
        f"reference solve did not reach tol={tol:g} in {max_iter} iterations "
        f"(duality gap {gap:.3g})"
    )


def _dual_objective(problem, a) -> float:
    """D(a) of :func:`reference_minimizer`, after projecting a onto the
    conjugate's domain, so any a gives a lower bound on F* over the ball."""
    X, y = problem.data.X, problem.data.y
    if problem.kind == "absolute":
        # phi*(s) = s y on |s| <= 1
        a = np.clip(a, -1.0, 1.0)
        conj = a * y
    elif problem.kind == "hinge":
        # phi*(-b y) = -b on b in [0, 1]; a zero label has phi = 1, phi*(0) = -1
        b = np.clip(np.divide(a, y, out=np.ones_like(a), where=y != 0.0), 0.0, 1.0)
        a = b * y
        conj = b
    else:
        # phi*(s) = s^2/2 + s y
        conj = a * y - 0.5 * a * a
    v = np.linalg.norm(X.T @ a) / problem.data.m
    R, alpha = problem.radius, problem.alpha
    ball = v * v / (2.0 * alpha) if v < alpha * R else R * v - 0.5 * alpha * R * R
    return float(np.mean(conj) - ball)


def _in_ball(w: np.ndarray, radius: float) -> bool:
    return np.linalg.norm(w) <= radius * (1.0 + 1e-9)


def _require_interior(w: np.ndarray, radius: float):
    if not _in_ball(w, radius):
        raise InvalidParameter(
            f"unconstrained minimizer (norm {np.linalg.norm(w):.4g}) lies outside "
            f"the ball of radius {radius:g}; enlarge the radius"
        )


def _prox(kind: str, v: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """prox_{step * loss(. ; y)}(v)."""
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
    if kind == "squared":  # only for checking the ADMM core against the exact ridge solve
        return (v + step * y) / (1.0 + step)
    raise InvalidParameter(f"no proximal step for kind {kind!r}")
