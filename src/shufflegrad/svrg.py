"""Variance-reduced stochastic gradient descent (SVRG-style epochs).

An epoch anchored at snapshot ws starts from w = ws, computes the full
gradient anchor  n = grad F(ws)  once, then performs ``epoch_len`` inner
steps

    w <- w - eta * (grad f_i(w) - grad f_i(ws) + n)

drawing i from the configured sampler.  The next snapshot is the average
of the epoch's iterates w_1..w_T (w_1 = ws; the post-step iterate w_{T+1}
is excluded), or one of them drawn uniformly at random.  The domain is
unconstrained; no projection is applied.

The default sampling discipline is a single shuffle for the whole run,
which requires epoch_len * n_epochs <= m: every inner step consumes a
fresh data point, never revisiting one.

A runtime safety bound guards against divergence: with probability one
over the shuffle, the log suboptimality of any iterate stays below
``log_suboptimality_bound``; a run aborts if an iterate crosses it.  The
guard sees every iterate, w_1..w_{T+1} of each epoch, but evaluates them
once per epoch as one block (``problem.suboptimality`` of the stored
iterates, bitwise the per-iterate values); the ``DivergenceError``
reports the first crossing, its epoch, step, value and bound, exactly as
a check after every step would.  A diverging epoch therefore finishes its
inner steps before it raises, with floating-point overflow silenced.

The inner step.  For the squared loss the correction
grad f_i(w) - grad f_i(ws) is exactly x_i x_i^T (w - ws) + alpha (w - ws),
so an epoch iterates on the offset v = w - ws from v_1 = 0, and the
labels enter only through the anchor:

    v <- c v + q - x_i (eta (x_i . v)),   c = 1 - eta alpha,  q = -eta n

Each epoch gathers its T feature rows once; an epoch costs O(T d)
besides its O(d^2) anchor.  Each step makes one dot product and four
elementwise calls into preallocated buffers, each call one IEEE
operation per element, in the rounding order

    v' = ((c * v) + q) - (x_i * (eta * (x_i . v)))

The epoch's iterates are then
w_j = v_j + ws, one block add.  At v = 0 every stochastic term is
exactly zero, so the first step of every epoch is exactly
ws - eta * grad F(ws), whichever index was drawn; and no step subtracts
two nearly equal gradients.

Auxiliary draws of a run with stream s live on the high-bit lane
``s ^ AUX_STREAM_BIT``, which the distributed driver's default partition
uses, and on the next lane ``(s ^ AUX_STREAM_BIT) + 1``, which draws the
random-iterate pick in both drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, InvalidParameter
from .rng import Rng
from .sampling import SINGLE_SHUFFLE, SAMPLER_KINDS, schedule

AUX_STREAM_BIT = 1 << 63  # auxiliary draws live on the high-bit stream lane
RATIO_FLOOR = 1e-14

AVERAGE = "average"
RANDOM_ITERATE = "random_iterate"


@dataclass(frozen=True)
class SVRGConfig:
    step_size: float
    epoch_len: int
    n_epochs: int
    epoch_output: str = AVERAGE
    sampler: str = SINGLE_SHUFFLE
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.step_size <= 0:
            raise InvalidParameter("step_size must be positive")
        if self.epoch_len < 1 or self.n_epochs < 1:
            raise InvalidParameter("epoch_len and n_epochs must be >= 1")
        if self.epoch_output not in (AVERAGE, RANDOM_ITERATE):
            raise InvalidParameter("epoch_output must be 'average' or 'random_iterate'")
        if self.sampler not in SAMPLER_KINDS:
            raise InvalidParameter(f"sampler must be one of {SAMPLER_KINDS}")


@dataclass
class EpochTrace:
    """Per-epoch record; entry s describes epoch s+1 (0-based arrays)."""

    suboptimality: np.ndarray  # F(snapshot after the epoch) - F*
    max_suboptimality: np.ndarray  # worst iterate seen inside the epoch
    stochastic_grad_evals: np.ndarray  # epoch_len per epoch
    full_grad_point_evals: np.ndarray  # m per epoch (one anchor gradient)
    initial_suboptimality: float
    final_snapshot: np.ndarray

    @property
    def n_epochs(self) -> int:
        return self.suboptimality.size


def log_suboptimality_bound(epoch_len: int, n_epochs: int, strong_convexity: float) -> float:
    """Probability-one cap on log(F(w_t) - F*) for any iterate of a run.

    Equals 2 * n_epochs * ln(5 * epoch_len) + ln(4 / strong_convexity);
    valid for the regularized squared loss on normalized data with
    strong convexity in (0, 1).  Monotone increasing in both epoch
    counts and decreasing in the strong convexity.
    """
    if epoch_len < 1 or n_epochs < 1:
        raise InvalidParameter("epoch_len and n_epochs must be >= 1")
    if not 0.0 < strong_convexity < 1.0:
        raise InvalidParameter("strong_convexity must lie in (0, 1)")
    return 2.0 * n_epochs * math.log(5.0 * epoch_len) + math.log(4.0 / strong_convexity)


def _drive(problem, config: SVRGConfig, indices: np.ndarray) -> EpochTrace:
    """The epoch loop behind both SVRG front ends.

    ``indices`` is the run's (n_epochs, epoch_len) int64 index schedule:
    row s holds the inner-step indices of 0-based epoch s.  Every epoch
    is anchored at ``problem.full_gradient`` of its snapshot.
    """
    lam = problem.strong_convexity
    if lam <= 0:
        raise InvalidParameter("problem must be strongly convex (lambda > 0)")
    T, S = config.epoch_len, config.n_epochs
    eta = config.step_size
    picker = (
        Rng(config.seed, (config.stream ^ AUX_STREAM_BIT) + 1)
        if config.epoch_output == RANDOM_ITERATE
        else None
    )

    bound = log_suboptimality_bound(T, S, lam) if lam < 1.0 else None
    guard = math.exp(min(bound, 700.0)) if bound is not None else math.inf

    X = problem.data.X
    snapshot = np.zeros(problem.d)
    subopt = np.empty(S)
    max_sub = np.empty(S)
    initial = problem.suboptimality(snapshot)
    # Row j holds the offset v_{j+1} during the steps, then the iterate
    # w_{j+1}; row T the post-step one.
    W = np.empty((T + 1, problem.d))
    w_rows = list(W)
    g = np.empty(problem.d)
    add, subtract, multiply = np.add, np.subtract, np.multiply
    # A 0-d operand: the same float64 products, without a scalar conversion
    # in every call.  ``step`` holds the step's eta * (x_i . v).
    c = np.array(1.0 - eta * problem.alpha, dtype=np.float64)
    step = np.empty(())
    for s in range(S):
        q = -eta * problem.full_gradient(snapshot)
        pick = int(picker.below(T)) if picker is not None else None
        Xb = np.take(X, indices[s], axis=0)

        # A diverging epoch runs to its end before the guard below sees it,
        # so overflow on the way is expected, not an error.
        with np.errstate(over="ignore", invalid="ignore"):
            W[0] = 0.0
            for v, xi, v_next in zip(w_rows, list(Xb), w_rows[1:]):
                step[()] = eta * xi.dot(v)
                multiply(v, c, v_next)
                add(v_next, q, v_next)
                multiply(xi, step, g)
                subtract(v_next, g, v_next)
            add(W, snapshot, W)
            subs = problem.suboptimality(W)

        crossed = ~np.isfinite(subs) | (subs > guard)
        if crossed.any():
            k = int(crossed.argmax())
            sub = float(subs[k])
            where = (
                f"the boundary of epoch {s + 1}" if k == T
                else f"inner step {k + 1} of epoch {s + 1}"
            )
            raise DivergenceError(
                f"suboptimality {sub:.3g} crossed the safety bound at {where}; "
                f"try a smaller step size",
                epoch=s + 1, step=k + 1, value=sub, bound=guard,
            )

        # The post-step iterate (row T) counts toward the in-epoch maximum
        # but not toward the next snapshot.  cumsum adds the rows in order,
        # as a running accumulator would; a column sum (d = 1) would pair them.
        snapshot = np.cumsum(W[:T], axis=0)[-1] / T if picker is None else W[pick].copy()
        subopt[s] = problem.suboptimality(snapshot)
        max_sub[s] = max(0.0, float(subs.max()))

    return EpochTrace(
        suboptimality=subopt,
        max_suboptimality=max_sub,
        stochastic_grad_evals=np.full(S, T),
        full_grad_point_evals=np.full(S, problem.m),
        initial_suboptimality=initial,
        final_snapshot=snapshot,
    )


def run_svrg(problem, config: SVRGConfig, sigma=None) -> EpochTrace:
    """Run ``n_epochs`` epochs on a ridge problem.

    :func:`sampling.schedule` builds the run's (n_epochs, epoch_len) index
    schedule from ``sigma`` or the configured sampler.  The anchor
    is ``problem.full_gradient``, the Gram form ``hessian @ w - b``, so a
    distributed run on any number of machines, which builds its schedule
    from its shards, reproduces this one on the matched permutation bit
    for bit.
    """
    T, S = config.epoch_len, config.n_epochs
    indices = schedule(config.sampler, problem.m, S, T, Rng(config.seed, config.stream),
                       min(T, problem.m), sigma)
    return _drive(problem, config, indices)


def run_svrg_over_streams(problem, config: SVRGConfig, n_seeds: int):
    """Traces for streams 0..n_seeds-1 of the config's seed, in stream order."""
    if n_seeds < 1:
        raise InvalidParameter("n_seeds must be >= 1")
    return [run_svrg(problem, replace(config, stream=k)) for k in range(n_seeds)]


@dataclass
class RecommendedParams:
    step_size: float
    epoch_len: int
    n_epochs: int
    m_required: int


def recommended_params(problem, epsilon: float, c: float = 10.0) -> RecommendedParams:
    """Parameter rule for geometric convergence to accuracy ``epsilon``.

    step_size = 1/c, epoch_len = ceil(9 / (step_size * lambda)),
    n_epochs = ceil(log4(9 / epsilon)), and the data-size requirement
    m >= 2 * n_epochs * epoch_len for a single-shuffle run.  Emits a
    warning when the problem is too small for that requirement.
    """
    if not 0.0 < epsilon < 1.0:
        raise InvalidParameter("epsilon must lie in (0, 1)")
    if c < 1.0:
        raise InvalidParameter("c must be >= 1")
    lam = problem.strong_convexity
    if lam <= 0:
        raise InvalidParameter("problem must be strongly convex (lambda > 0)")
    eta = 1.0 / c
    # Guard the ceilings against values that are exact up to rounding.
    epoch_len = math.ceil(9.0 / (eta * lam) - 1e-9)
    n_epochs = math.ceil(math.log(9.0 / epsilon) / math.log(4.0) - 1e-12)
    m_required = 2 * n_epochs * epoch_len
    if problem.m < m_required:
        import warnings

        warnings.warn(
            f"dataset has m={problem.m} points but the single-shuffle rule "
            f"needs m >= 2*S*T = {m_required}",
            stacklevel=2,
        )
    return RecommendedParams(
        step_size=eta, epoch_len=epoch_len, n_epochs=n_epochs, m_required=m_required
    )


def epoch_decrease_ratio(trace: EpochTrace) -> np.ndarray:
    """Per-epoch contraction factors subopt_{s+1} / max(subopt_s, RATIO_FLOOR).

    The first entry compares epoch 1 against the starting point.  The
    floor only guards the division when a trajectory reaches exact zero.
    """
    if trace.n_epochs < 2:
        raise InvalidParameter("need at least two epochs to form ratios")
    chain = np.concatenate([[trace.initial_suboptimality], trace.suboptimality])
    return chain[1:] / np.maximum(chain[:-1], RATIO_FLOOR)
