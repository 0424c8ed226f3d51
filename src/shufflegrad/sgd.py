"""Projected (sub)gradient descent over a sampled index stream.

The iterate before processing the t-th drawn loss is w_t (w_1 = 0); one
update is

    w_{t+1} = project(w_t - eta_t g_t),   g_t a subgradient of f_{sigma(t)} at w_t,

with projection onto the Euclidean ball of the configured radius,
w -> w * min(1, radius / ||w||).  Traces record the suboptimality of the
running average iterate mean(w_1..w_t), the measured regret against the
problem's minimizer, and the gradient count.

``suboptimality_decomposition_check`` reruns the algorithm under every
permutation of a small dataset and averages three exact quantities whose
relation (left side = regret term + prefix/suffix term) is an identity
in expectation over a uniformly random permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, InvalidParameter
from .problem import pairwise_mean
from .rng import Rng
from .sampling import SINGLE_SHUFFLE, SAMPLER_KINDS, enumerate_permutations, make_sampler


@dataclass(frozen=True)
class StronglyConvexStep:
    """eta_t = 2 / (strong_convexity * t)."""

    strong_convexity: float

    def __post_init__(self):
        if self.strong_convexity <= 0:
            raise InvalidParameter("strong_convexity must be positive")

    def rate(self, t: int) -> float:
        return 2.0 / (self.strong_convexity * t)


@dataclass(frozen=True)
class FixedStep:
    eta: float

    def __post_init__(self):
        if self.eta <= 0:
            raise InvalidParameter("step size must be positive")

    def rate(self, t: int) -> float:
        return self.eta


@dataclass(frozen=True)
class InverseSqrtStep:
    """eta_t = eta0 / sqrt(t)."""

    eta0: float

    def __post_init__(self):
        if self.eta0 <= 0:
            raise InvalidParameter("step size must be positive")

    def rate(self, t: int) -> float:
        return self.eta0 / math.sqrt(t)


ALL_ITERATES = "all"
SUFFIX_HALF = "suffix_half"


@dataclass(frozen=True)
class SGDConfig:
    """``averaging`` selects the reported average iterate: ``all`` is the
    uniform average of w_1..w_t; ``suffix_half`` averages only the last
    ceil(t/2) iterates, which drops the logarithmic factor from the
    strongly convex rate at the price of a non-running memory window."""

    n_steps: int
    step_rule: StronglyConvexStep | FixedStep | InverseSqrtStep
    radius: float
    sampler: str = SINGLE_SHUFFLE
    averaging: str = ALL_ITERATES
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise InvalidParameter("n_steps must be >= 1")
        if self.radius <= 0:
            raise InvalidParameter("radius must be positive")
        if self.sampler not in SAMPLER_KINDS:
            raise InvalidParameter(f"sampler must be one of {SAMPLER_KINDS}")
        if self.averaging not in (ALL_ITERATES, SUFFIX_HALF):
            raise InvalidParameter(
                f"averaging must be {ALL_ITERATES!r} or {SUFFIX_HALF!r}"
            )


@dataclass
class Trace:
    suboptimality: np.ndarray
    average_iterate: np.ndarray
    regret: float
    gradient_evals: int
    iterates: np.ndarray | None = None


def _draw_indices(problem, config: SGDConfig, sigma) -> np.ndarray:
    T = config.n_steps
    if sigma is not None:
        idx = np.asarray(sigma, dtype=np.int64)
        if idx.size < T:
            raise InvalidParameter(f"sigma provides {idx.size} indices, need {T}")
        if idx.size and (idx.min() < 0 or idx.max() >= problem.m):
            raise InvalidParameter("sigma contains out-of-range indices")
        return idx[:T]
    if config.sampler == SINGLE_SHUFFLE and T > problem.m:
        raise InvalidParameter(
            f"single-shuffle SGD needs n_steps <= m ({T} > {problem.m})"
        )
    rng = Rng(config.seed, config.stream)
    sampler = make_sampler(config.sampler, problem.m, rng, epoch_len=problem.m)
    return sampler.take(T)


def run_sgd(
    problem,
    config: SGDConfig,
    sigma=None,
    collect_iterates: bool = False,
    reference=None,
) -> Trace:
    """One SGD run; deterministic in (seed, stream).

    ``sigma`` overrides the sampler with an explicit index sequence (used
    by the exact permutation oracles).  Suboptimality and regret are
    measured against the problem's minimizer, or against ``reference``
    when given (any fixed point works for the regret identity; required
    for problems without a well-defined minimizer).  The comparator must
    lie inside the projection ball, otherwise projection excludes it.
    """
    wstar = problem.wstar if reference is None else np.asarray(reference, dtype=np.float64)
    if np.linalg.norm(wstar) > config.radius + 1e-9:
        raise InvalidParameter(
            f"projection radius {config.radius:g} excludes the minimizer "
            f"(norm {np.linalg.norm(wstar):.6g})"
        )
    indices = _draw_indices(problem, config, sigma)
    T = config.n_steps
    d = problem.d

    X, y = problem.data.X, problem.data.y
    alpha = problem.alpha
    kind = problem.kind
    rule = config.step_rule
    radius = config.radius
    star_losses = problem.point_losses(wstar)
    if reference is None:
        subopt_of = problem.suboptimality
    else:
        ref_value = float(pairwise_mean(star_losses))

        def subopt_of(w):
            return problem.full_objective(w) - ref_value

    w = np.zeros(d)
    avg = np.zeros(d)
    subopt = np.empty(T)
    regret = 0.0
    kept = np.empty((T, d)) if collect_iterates else None
    suffix_mode = config.averaging == SUFFIX_HALF
    csum = np.zeros((T + 1, d)) if suffix_mode else None

    for t in range(1, T + 1):
        if suffix_mode:
            csum[t] = csum[t - 1] + w
            window = (t + 1) // 2
            avg = (csum[t] - csum[t - window]) / window
        else:
            avg += (w - avg) / t
        subopt[t - 1] = subopt_of(avg)
        if kept is not None:
            kept[t - 1] = w

        i = indices[t - 1]
        xi = X[i]
        z = xi @ w
        yi = y[i]
        if kind == "squared":
            slope = z - yi
            loss = 0.5 * slope * slope
        elif kind == "absolute":
            diff = z - yi
            slope = np.sign(diff)
            loss = abs(diff)
        else:  # hinge
            margin = 1.0 - yi * z
            slope = -yi if margin > 0.0 else 0.0
            loss = max(0.0, margin)
        if alpha:
            loss += 0.5 * alpha * (w @ w)
        regret += loss - star_losses[i]

        g = slope * xi
        if alpha:
            g = g + alpha * w
        w = w - rule.rate(t) * g
        norm = math.sqrt(w @ w)
        if not math.isfinite(norm):
            raise DivergenceError(f"iterate became non-finite at step {t}", step=t)
        if norm > radius:
            w *= radius / norm

    return Trace(
        suboptimality=subopt,
        average_iterate=avg,
        regret=float(regret),
        gradient_evals=T,
        iterates=kept,
    )


@dataclass
class SeedSummary:
    """Across-seed mean and standard error of the suboptimality trace."""

    mean: np.ndarray
    stderr: np.ndarray | None
    n_seeds: int


def average_suboptimality_over_seeds(problem, config: SGDConfig, n_seeds: int) -> SeedSummary:
    """Monte-Carlo estimate over permutations: trial k runs on stream k.

    Trials are reduced in stream order.
    """
    if n_seeds < 1:
        raise InvalidParameter("n_seeds must be >= 1")
    mean = np.zeros(config.n_steps)
    m2 = np.zeros(config.n_steps)
    for k in range(n_seeds):
        trace = run_sgd(problem, replace(config, stream=k)).suboptimality
        delta = trace - mean
        mean += delta / (k + 1)
        m2 += delta * (trace - mean)
    if n_seeds >= 2:
        stderr = np.sqrt(m2 / (n_seeds - 1) / n_seeds)
    else:
        stderr = None
    return SeedSummary(mean=mean, stderr=stderr, n_seeds=n_seeds)


@dataclass
class DecompositionResult:
    lhs: float
    regret_term: float
    prefix_suffix_term: float


MAX_DECOMPOSITION_M = 7


def suboptimality_decomposition_check(
    problem, config: SGDConfig, wstar=None
) -> DecompositionResult:
    """Exact decomposition of expected suboptimality by full enumeration.

    Returns the three averages over all m! permutations sigma:

    * lhs                = E[(1/T) sum_t (F(w_t) - F(w*))]
    * regret_term        = E[(1/T) sum_t (f_{sigma(t)}(w_t) - f_{sigma(t)}(w*))]
    * prefix_suffix_term = (1/(mT)) sum_{t=2}^{T} (t-1) *
                           E[mean_{i<t} f_{sigma(i)}(w_t) - mean_{i>=t} f_{sigma(i)}(w_t)]

    with the empty-prefix convention that the t=1 contribution is zero.
    The identity lhs = regret_term + prefix_suffix_term is exact; any
    fixed reference point may stand in for w* (pass ``wstar``).
    """
    m = problem.m
    if m > MAX_DECOMPOSITION_M:
        raise InvalidParameter(
            f"exhaustive decomposition is limited to m <= {MAX_DECOMPOSITION_M}"
        )
    T = config.n_steps
    if T > m:
        raise InvalidParameter("decomposition needs T <= m (single pass)")
    ref = problem.wstar if wstar is None else np.asarray(wstar, dtype=np.float64)
    ref_losses = problem.point_losses(ref)
    fref = float(pairwise_mean(ref_losses))

    lhs_total = 0.0
    regret_total = 0.0
    ps_total = 0.0
    count = 0
    for sigma in enumerate_permutations(m):
        trace = run_sgd(
            problem, config, sigma=sigma, collect_iterates=True, reference=wstar
        )
        ws = trace.iterates
        losses_at = [problem.point_losses(ws[t]) for t in range(T)]
        lhs_total += sum(float(pairwise_mean(lv)) - fref for lv in losses_at) / T
        regret_total += (
            sum(losses_at[t][sigma[t]] - ref_losses[sigma[t]] for t in range(T)) / T
        )
        for t in range(2, T + 1):
            lv = losses_at[t - 1]
            prefix = np.fromiter((lv[sigma[i]] for i in range(t - 1)), float)
            suffix = np.fromiter((lv[sigma[i]] for i in range(t - 1, m)), float)
            ps_total += (t - 1) * (prefix.mean() - suffix.mean()) / (m * T)
        count += 1

    return DecompositionResult(
        lhs=lhs_total / count,
        regret_term=regret_total / count,
        prefix_suffix_term=ps_total / count,
    )
