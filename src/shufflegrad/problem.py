"""Finite-sum linear-prediction objectives.

The objective is the arithmetic mean F(w) = (1/m) sum_i f_i(w) of
per-point losses.  Two concrete problem types are provided:

* :class:`RidgeProblem` for the regularized squared loss
  f_i(w) = (1/2)(<w, x_i> - y_i)^2 + (alpha/2)||w||^2, with its exact
  minimizer, curvature constants and a fast suboptimality evaluation.
* :class:`LipschitzLinearProblem` for the convex Lipschitz losses of the
  prediction <w, x_i>, absolute and hinge, restricted to a Euclidean
  ball of given radius, with a reference minimizer that ADMM and an
  active-set polish find and a duality gap certifies.  The squared loss
  is :class:`RidgeProblem`'s alone.

A point index ``i`` and an ``indices`` row subset pass the package's one
index check, :func:`.sampling.explicit_indices`: integers in [0, m), no
bools or floats, a subset 1-D (an empty one reads no rows).

Mean reduction order
--------------------
``full_objective`` sums each row's data losses with ``np.add.reduce``
along the row, numpy's pairwise summation: the sum starts from +0.0; a
row of fewer than 8 terms is added in sequence; a row of up to 128 terms
runs eight accumulators r_j over the elements j, j+8, ..., combined as
((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), and the remainder past the last
multiple of 8 is then added in sequence; a longer row is split at n//2,
rounded down to a multiple of 8, and the halves' sums are added.  The
order holds for a row with contiguous elements only; an F-ordered block
is reduced in another order.  ``full_objective`` divides the sum by m
and adds the regularizer (alpha/2)||w||^2 after, F(w) = sum(loss_i)/m +
(alpha/2)||w||^2, one rounding of the regularizer per point w rather
than one per loss.  The ridge gradient needs no reduction over points:
it is exactly ``hessian @ w - b`` with the cached Hessian and right-hand
side b = (1/m) X^T y, an O(d^2) evaluation.  The distributed simulation's
reduced anchor, the shard-weighted sum of local Gram forms, equals it by
linearity, so the simulation evaluates this very ``full_gradient`` and
reproduces the single-machine anchor bit for bit on any partition.

Blocks of points
----------------
``full_objective`` and ``suboptimality`` take one point w of shape (d,)
and return a float, or a block W of shape (n, d) and return n values.
``full_objective`` forms the predictions of each chunk of rows (two, or
as many as fit in ``LOSS_CHUNK`` losses, 256 KiB, so memory does not
grow with n) as one matrix product, written into one product buffer the
call allocates once, and the regularizers of the whole block as one
``np.vecdot(W, W)``, a dot per row like the one-point ``w @ w``.  numpy
sends a one-row product to gemv, so a lone row is evaluated as the
first row of ``[w, w]``.

A call whose block spans more than one chunk folds the labels into the
product: it multiplies each chunk's [A, -1] by the (d+1, m) operand
[X^T; y], so the last term of every product is -y and the product is
the residual z - y, from which the absolute and squared losses follow
in place.  The hinge takes [A, 0] instead, which gives z exactly.  The
problem builds the operand once, on the first call that folds, and
keeps it.  A call of one chunk at an m that is a multiple of
``GEMM_TILE`` (8) takes ``A @ X.T`` and subtracts the labels after, which
spares the one-point calls at large m the copy of X.  At other m every
call takes the operand, padded with zero columns to a multiple of 8, so
that no prediction lands in a GEMM edge tile: there the fold moves last
bits, and a row's bits depend on its place in the block.

On the SkylakeX and Sandybridge OpenBLAS kernels, full GEMM tiles keep
each row's bits independent of the block's size and of the row's place
in it, and the folded -y term rounds as the separate subtraction does.
So every row has the bits of its one-point call, whose predictions at m
a multiple of 8 are ``(np.stack([w, w]) @ X.T)[0]``, and is summed in the
same order.  The ridge curvature form uses stacked products,
``H @ D[:, :, None]`` and ``D[:, None, :] @ Q``, one gemv and one dot per
row, as the one-point ``H @ dw`` and ``dw @ q`` do.  Both rest on how numpy and OpenBLAS
dispatch products, not on IEEE arithmetic, so the tests check them row
by row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, SingularCurvature
from .sampling import explicit_indices

NORM_SLACK = 1e-12
SINGULAR_CUTOFF = 1e-12
LOSS_CHUNK = 1 << 15  # point losses a block evaluation holds at once (two rows at least)
GEMM_TILE = 8  # product columns per GEMM kernel tile; edge tiles round differently
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


def _check_features(X: np.ndarray, y: np.ndarray | None = None) -> None:
    """Raise ``InvalidParameter`` unless the (m, d) features X (and the
    labels y, when given) are finite and every row norm is at most
    1 + ``NORM_SLACK``.  Scans ``CHECK_ROWS`` rows of X at a time."""
    finite = all(np.isfinite(X[lo : lo + CHECK_ROWS]).all()
                 for lo in range(0, X.shape[0], CHECK_ROWS))
    if not (finite and (y is None or np.isfinite(y).all())):
        raise InvalidParameter("features and labels must be finite")
    nmax = max_row_norm(X)
    if nmax > 1.0 + NORM_SLACK:
        raise InvalidParameter(f"feature norms must be <= 1 (max is {nmax:.6g})")


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
        _check_features(X, y)
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


def _residual_loss(kind: str, r: np.ndarray, out=None) -> np.ndarray:
    """The squared or absolute loss of the residuals r = z - y elementwise,
    written into ``out`` when given (it may be r)."""
    if kind == "squared":
        return np.multiply(0.5, np.square(r, out=out), out=out)
    return np.abs(r, out=out)


def _scalar_loss(kind: str, z: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """loss(z; y) elementwise; written into ``out`` when given (it may be z)."""
    if kind in ("squared", "absolute"):
        return _residual_loss(kind, np.subtract(z, y, out=out), out=out)
    if kind == "hinge":
        r = np.subtract(1.0, np.multiply(y, z, out=out), out=out)
        return np.maximum(0.0, r, out=out)
    raise InvalidParameter(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


def _hinge_slope(z: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    slope = np.where(1.0 - y * z > 0.0, -y, 0.0)
    if out is None:
        return slope
    out[...] = slope
    return out


# Per kind, a subgradient of the scalar loss in z, written into ``out``
# when given; at kinks the value 0 is used.  The SGD engine reads a kind's
# writer once per batch.
_SLOPES = {"squared": np.subtract,
           "absolute": lambda z, y, out=None: np.sign(np.subtract(z, y, out), out),
           "hinge": _hinge_slope}


def _gram_form(X: np.ndarray, y: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """(H, b) with H @ w - b the mean ridge gradient over the rows of X:
    H = X^T X / n + alpha*I and b = X^T y / n."""
    n = X.shape[0]
    return (X.T @ X) / n + alpha * np.eye(X.shape[1]), (X.T @ y) / n


class _LinearPredictionProblem:
    """Shared machinery: per-point losses/gradients and the mean objective."""

    kind: str

    def __init__(self, data: Dataset, alpha: float):
        if not 0 <= alpha < np.inf:
            raise InvalidParameter("alpha must be finite and >= 0")
        self.data = data
        self.alpha = float(alpha)

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
        """f_i(w) for one data point: ``point_losses(w, [i])[0]``."""
        return float(self.point_losses(w, explicit_indices([i], self.data.m, name="i"))[0])

    def point_gradient(self, i: int, w) -> np.ndarray:
        """A (sub)gradient of f_i at w, zero slope at kinks: ``point_gradient_rows(w, [i])[0]``."""
        return self.point_gradient_rows(w, explicit_indices([i], self.data.m, name="i"))[0]

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
        return _SLOPES[self.kind](z, y)[:, None] * X + self.alpha * w

    def _rows(self, indices):
        if indices is None:
            return self.data.X, self.data.y
        idx = explicit_indices(indices, self.data.m, name="indices")
        return np.take(self.data.X, idx, axis=0), np.take(self.data.y, idx)

    @cached_property
    def _folded(self) -> np.ndarray:
        """The operand [X^T; y] padded with zero columns to whole GEMM
        tiles, (d+1, m rounded up to a multiple of ``GEMM_TILE``); built
        by the first ``full_objective`` call that folds and kept."""
        X, y = self.data.X, self.data.y
        B = np.zeros((self.d + 1, self.m + -self.m % GEMM_TILE))
        B[:-1, : self.m], B[-1, : self.m] = X.T, y
        return B

    def full_objective(self, w):
        """F(w): the data losses summed in numpy's pairwise order (see
        "Mean reduction order") and divided by m, plus the regularizer
        (alpha/2)||w||^2.

        A block of rows gives one value per row (see "Blocks of points").
        The predictions come from a matrix product and the regularizer is
        added once, after the sum, so F(w) may differ from
        ``np.add.reduce(point_losses(w)) / m`` in its last bits.
        """
        W, single = self._check_block(w)
        n, d = W.shape
        m, X, y = self.data.m, self.data.X, self.data.y
        rows = max(2, LOSS_CHUNK // m)
        hinge = self.kind == "hinge"
        # A call of more than one chunk, or any call at an m off the GEMM
        # tile, multiplies [A, c] by the problem's folded operand: with
        # c = -1 each product ends on z - y, the residual; with c = 0
        # (hinge) it is z.  Aligned one-chunk calls skip the copy of X.
        fold = n > rows or m % GEMM_TILE
        B = self._folded if fold else X.T
        if fold:
            A1 = np.full((min(n, rows), d + 1), 0.0 if hinge else -1.0)
        Z = np.empty((max(2, min(n, rows)), B.shape[1]))  # every chunk's product
        out = np.empty(n)
        for lo in range(0, n, rows):
            A = W[lo : lo + rows]
            k = len(A)
            if fold:
                A1[:k, :d] = A
                A = A1[:k]
            z = np.matmul(A if k > 1 else A[[0, 0]], B, out=Z[: max(2, k)])[:k, :m]
            if fold and not hinge:
                losses = _residual_loss(self.kind, z, out=z)
            else:
                losses = _scalar_loss(self.kind, z, y, out=z)
            np.add.reduce(losses, axis=1, out=out[lo : lo + k])
        out /= m
        out += 0.5 * self.alpha * np.vecdot(W, W)
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
        Regularization weight (finite, >= 0).  The objective's strong convexity
        is the smallest eigenvalue of hessian = (1/m) X^T X + alpha*I,
        which is at least alpha; smoothness is 1 + alpha because feature
        norms are at most 1.
    """

    kind = "squared"

    def __init__(self, data: Dataset, alpha: float):
        super().__init__(data, alpha)
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
        """(w*, F(w*)) from a direct solve of H w = b with one refinement step."""
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
    loss in {absolute, hinge}, iterates restricted to ||w|| <= radius.
    The regularized squared loss is :class:`RidgeProblem`, which has an
    exact minimizer; a ``kind`` of "squared" raises ``InvalidParameter``.

    Derived constants:

    * ``lipschitz``: bound on |loss'(z)| over the reachable predictions
      z in [-radius, radius] (absolute: 1; hinge: max|y|).
    * ``grad_bound``: sup of ||grad f_i(w)|| over the ball,
      lipschitz + alpha * radius (lipschitz at alpha = 0).
    * ``loss_bound``: sup of |f_i(w)| over the ball (the value-range
      constant; distinct from the ball radius, which some analyses also
      call B); infinite on an infinite ball unless every label is 0.
    """

    def __init__(self, data: Dataset, kind: str, radius: float, alpha: float = 0.0):
        if kind not in ("absolute", "hinge"):
            raise InvalidParameter(f"unknown loss kind {kind!r}; expected 'absolute' or 'hinge' "
                                   "(the squared loss is RidgeProblem)")
        if not radius > 0:
            raise InvalidParameter("radius must be positive")
        super().__init__(data, alpha)
        self.kind = kind
        self.radius = R = float(radius)
        ymax = float(np.abs(data.y).max())
        if kind == "absolute":
            self.lipschitz, raw = 1.0, R + ymax
        else:  # zero labels: every loss is 1, also on an infinite ball
            self.lipschitz, raw = ymax, 1.0 + ymax * R if ymax else 1.0
        # alpha = 0 adds no regularizer term: no 0 * inf on an infinite ball
        self.grad_bound = self.lipschitz + self.alpha * R if self.alpha else self.lipschitz
        self.loss_bound = raw + 0.5 * self.alpha * R**2 if self.alpha else raw

    @cached_property
    def _reference(self):
        return _certified_minimizer(self, REFERENCE_TOL, REFERENCE_MAX_ITER)

    @property
    def wstar(self) -> np.ndarray:
        """Reference minimizer, certified by a duality gap (see
        :func:`_certified_minimizer`)."""
        return self._reference[0]

    @property
    def fstar(self) -> float:
        return self._reference[1]

    @property
    def reference_gap(self) -> float:
        """Duality gap F(wstar) - D(a), a proven bound on F(wstar) - F*
        over the ball; at most 1e-13 max(1, |fstar|).  At a polished
        point (see :func:`_polish`) F and D agree to rounding, so the
        computed gap can read a few ulps below 0; it is not clamped."""
        return self._reference[2]


def _certified_minimizer(problem, tol, max_iter):
    """(w, F(w), gap): the minimizer of a Lipschitz linear-loss objective,
    its value, and a duality gap F(w) - D(a) >= F(w) - F* that certifies it.

    It runs scaled ADMM (Boyd et al. 2011, *Distributed Optimization and
    Statistical Learning via the Alternating Direction Method of
    Multipliers*, §3.1) on the split  minimize (1/m) sum loss(z_i) +
    (alpha/2)||w||^2  subject to  Xw = z, whose z-update is a
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
    ``reference_gap``.

    Polish.  At a check where that certificate fails, the solve polishes
    onto the active set that ADMM's split variable z guesses, as OSQP does
    (Stellato et al. 2020, *OSQP: an operator splitting solver for
    quadratic programs*, §5.2): :func:`_polish` fixes the slopes off the
    kinks and solves one small KKT system for w and the slopes on them.
    The polished point is returned only if the same gap test, with the
    same ``tol`` and ball test, certifies it; otherwise ADMM carries on
    from its own iterates, which the polish only reads.  A solve that does
    not certify within ``max_iter`` iterations raises
    :class:`InvalidParameter`.

    The result must lie inside the problem's ball; otherwise the
    constrained optimum is not characterized here and an error is raised.
    ADMM itself ignores the ball, so an iterate outside it is never
    returned; if its F lies below D(a), it beats every point of the ball,
    which proves the minimizer outside, and the solve raises at once.
    With alpha = 0 and an infinite radius, g* is infinite off X^T a = 0,
    so no gap can certify: that solve raises before its first iteration.
    """
    X, y = problem.data.X, problem.data.y
    m, d = problem.data.m, problem.data.d
    alpha = problem.alpha
    if alpha == 0.0 and np.isinf(problem.radius):  # then D(a) = -inf unless X^T a = 0
        raise InvalidParameter("reference solve needs alpha > 0 or a finite radius")

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
        polished = _polish(problem, z)
        if polished is not None and _in_ball(polished[0], problem.radius):
            pw, pa = polished
            pf = problem.full_objective(pw)
            pgap = pf - _dual_objective(problem, pa)
            if pgap <= tol * max(1.0, abs(pf)):
                return pw, pf, pgap
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


def _polish(problem, z):
    """(w, a): the stationary point of F with the active set that ADMM's
    split variable z guesses, and its multiplier, or None.

    The active set K holds the points whose z sits exactly on the kink,
    z = y (absolute) or z = 1/y with y != 0 (hinge), the values ``_prox``
    writes there.  Off K each slope s_i is the loss's derivative at z_i
    (``_SLOPES``); on K the slopes g_K and w solve the KKT system

        [[alpha I, X_K^T / m], [X_K, 0]] [w; g_K] = [-X^T s / m; kink_K],

    zero gradient with the active predictions on their kinks.  The
    multiplier is a = -s with -g_K on K.  None when |K| > d, when
    alpha = 0 and |K| != d, or when the system is singular.
    """
    X, y = problem.data.X, problem.data.y
    m, d = problem.data.m, problem.data.d
    alpha = problem.alpha
    if problem.kind == "absolute":
        kink = y
    else:  # a zero label has no kink: NaN matches no z
        kink = np.divide(1.0, y, out=np.full_like(y, np.nan), where=y != 0.0)
    on = z == kink
    slope = _SLOPES[problem.kind](z, y)
    k = int(on.sum())
    if k > d or (alpha == 0.0 and k != d):
        return None
    slope[on] = 0.0
    XK = X[on]
    kkt = np.block([[alpha * np.eye(d), XK.T / m], [XK, np.zeros((k, k))]])
    try:
        sol = np.linalg.solve(kkt, np.concatenate([-(X.T @ slope) / m, kink[on]]))
    except np.linalg.LinAlgError:
        return None
    slope[on] = sol[d:]
    return sol[:d], -slope


def _dual_objective(problem, a) -> float:
    """D(a) of :func:`_certified_minimizer`, after projecting a onto the
    conjugate's domain, so any a gives a lower bound on F* over the ball."""
    X, y = problem.data.X, problem.data.y
    if problem.kind == "absolute":
        # phi*(s) = s y on |s| <= 1
        a = np.clip(a, -1.0, 1.0)
        conj = a * y
    else:
        # phi*(-b y) = -b on b in [0, 1]; a zero label has phi = 1, phi*(0) = -1
        b = np.clip(np.divide(a, y, out=np.ones_like(a), where=y != 0.0), 0.0, 1.0)
        a = b * y
        conj = b
    v = np.linalg.norm(X.T @ a) / problem.data.m
    R, alpha = problem.radius, problem.alpha
    ball = v * v / (2.0 * alpha) if v < alpha * R else R * v - 0.5 * alpha * R * R
    return float(np.mean(conj) - ball)


def _in_ball(w: np.ndarray, radius: float) -> bool:
    """||w|| <= radius up to a relative 1e-9; a NaN norm lies outside."""
    return np.linalg.norm(w) <= radius * (1.0 + 1e-9)


def _prox(kind: str, v: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """prox_{step * loss(. ; y)}(v) for the absolute or the hinge loss."""
    if kind == "absolute":
        shifted = v - y
        return y + np.sign(shifted) * np.maximum(np.abs(shifted) - step, 0.0)
    out = v.copy()
    yv = y * v
    active = yv < 1.0 - step * y**2
    out[active] = v[active] + step * y[active]
    middle = (~active) & (yv < 1.0) & (y != 0.0)
    out[middle] = 1.0 / y[middle]
    return out
