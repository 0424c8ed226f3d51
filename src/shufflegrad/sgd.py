"""Projected (sub)gradient descent over a sampled index stream.

The iterate before processing the t-th drawn loss is w_t (w_1 = 0); one
update is

    w_{t+1} = project(w_t - eta_t g_t),   g_t a subgradient of f_{sigma(t)} at w_t,

with projection onto the Euclidean ball of the configured radius,
w -> w * min(1, radius / ||w||).  Traces record the suboptimality of the
running average iterate mean(w_1..w_t), the measured regret against the
problem's minimizer, and the gradient count.

One engine runs B independent streams
-------------------------------------
Monte-Carlo streams share nothing but the data, so one private engine
runs B of them as the rows of a (B, d) iterate matrix, each with its own
index row (its sampler's single ``take(T)``, or an explicit sequence).
``run_sgd`` is its B = 1 call; ``average_suboptimality_over_seeds`` and
``suboptimality_decomposition_check`` run their streams through it in
consecutive chunks, each chunk sized to one fixed working-memory budget
(``STREAM_CHUNK_BYTES``), and reduce the rows in stream order.

Every row keeps the bits of its one-stream run.  The row dots,
``np.vecdot`` for x_i . w and for ||w||^2, have the bits of the 1-D
``x_i @ w`` (checked row by row, see ``problem``, "Blocks of points");
the elementwise updates perform the scalar loop's operations in its
order (g = slope x_i, then g + alpha w, then eta_t g, then w - that);
projection scales only the rows whose norm exceeds the radius.  Step t
reads w_t from a row of one block buffer and writes w_{t+1} into the
next.  After each ``EVAL_BLOCK`` steps, one ``cumsum`` over the carried
sum and the block's iterates gives S_t = w_1 + ... + w_t, added in step
order like a running accumulator; the average iterate is
(S_t - S_{t-window}) / window, window t (``all``, S_0 = 0) or ceil(t/2)
(``suffix_half``), and the averages are evaluated as one block, as are
the losses; the regret is a cumulative sum along the step axis.

A stream whose iterate norm becomes non-finite keeps running as NaNs
until its chunk ends.  Then the lowest such stream's first non-finite
step is raised as ``DivergenceError``: the error a sequential loop over
the streams would raise first, even when a higher stream diverged at an
earlier step.

``suboptimality_decomposition_check`` reruns the algorithm under every
permutation of a small dataset and averages three exact quantities whose
relation (left side = regret term + prefix/suffix term) is an identity
in expectation over a uniformly random permutation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, InvalidParameter
from .problem import _scalar_loss, _scalar_slope, pairwise_mean
from .rng import Rng
from .sampling import (
    SINGLE_SHUFFLE,
    SAMPLER_KINDS,
    enumerate_permutations,
    explicit_indices,
    schedule,
)
from .verify import _prefix_suffix_gap


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

EVAL_BLOCK = 256  # running averages evaluated per suboptimality call
STREAM_CHUNK_BYTES = 1 << 25  # working memory of one chunk of streams
LIST_TEST_ROWS = 32  # batches up to this size run the projection test on floats


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


def _stream_bytes(config: SGDConfig, d: int, collect_iterates: bool) -> int:
    """Bytes one stream adds to a chunk: its index row (drawn, then
    stacked), its trace and the previous chunk's, the block buffers (the
    iterate rows with the carried sum, the gathered points) with the
    block evaluation's temporaries, the T//2 + 1 running sums that
    ``suffix_half`` windows start at, and the kept iterates (twice: the
    previous chunk's are still held while the next one runs)."""
    T = config.n_steps
    rows = (config.averaging == SUFFIX_HALF) * (T // 2 + 1) + 2 * collect_iterates * (T + 1)
    return 8 * (4 * T + (min(T, EVAL_BLOCK) + 2) * (6 * d + 8) + rows * d)


def _traces(problem, config: SGDConfig, rows, n: int, collect_iterates=False, reference=None):
    """Yield the Trace of streams 0..n-1 in order; ``rows(k)`` draws stream k's indices.

    The streams run through :func:`_run_batch` in near-equal consecutive
    chunks, as many per chunk as ``STREAM_CHUNK_BYTES`` allows.
    """
    wstar = problem.wstar if reference is None else np.asarray(reference, dtype=np.float64)
    if np.linalg.norm(wstar) > config.radius + 1e-9:
        raise InvalidParameter(
            f"projection radius {config.radius:g} excludes the minimizer "
            f"(norm {np.linalg.norm(wstar):.6g})"
        )
    cap = max(1, STREAM_CHUNK_BYTES // _stream_bytes(config, problem.d, collect_iterates))
    n_chunks = -(-n // cap)
    size = -(-n // n_chunks)
    for lo in range(0, n, size):
        indices = np.stack([rows(k) for k in range(lo, min(lo + size, n))])
        subopt, avg, regret, kept = _run_batch(problem, config, indices, wstar,
                                               reference is not None, collect_iterates)
        for b in range(indices.shape[0]):
            yield Trace(
                suboptimality=subopt[b],
                average_iterate=avg[b],
                regret=float(regret[b]),
                gradient_evals=config.n_steps,
                iterates=None if kept is None else kept[b],
            )


def _run_batch(problem, config: SGDConfig, indices, wstar, given_reference, collect_iterates):
    """Run the streams whose index rows are ``indices`` (B, T) as one batch.

    Returns the (B, T) suboptimality traces, the (B, d) average
    iterates, the (B,) regrets and the (B, T, d) iterates (None unless
    collected).  Raises the lowest diverging row's DivergenceError.
    """
    B, T = indices.shape
    d = problem.d
    X, y = problem.data.X, problem.data.y
    alpha = problem.alpha
    kind = problem.kind
    radius = config.radius
    limit = min(radius, sys.float_info.max)  # a non-finite norm exceeds it even at radius inf
    rates = [config.step_rule.rate(t) for t in range(1, T + 1)]
    suffix_mode = config.averaging == SUFFIX_HALF
    star_losses = problem.point_losses(wstar)
    if given_reference:
        ref_value = float(pairwise_mean(star_losses))

        def subopt_of(W):
            return problem.full_objective(W) - ref_value
    else:
        subopt_of = problem.suboptimality

    K = min(T, EVAL_BLOCK)
    # In the block of steps lo+1 .. lo+n, row 0 of W carries S_lo, step t reads
    # w_t from row t - lo, and row t - lo - 1 of sqs and zs holds ||w_t||^2, x_i . w_t.
    W = np.zeros((K + 2, B, d))
    sqs = np.zeros((K + 1, B))
    zs = np.empty((K, B))
    G = np.empty((B, d))
    tmp = np.empty((B, d))
    slope = np.empty(B)
    slope_col = slope[:, None]
    w_rows, sq_rows, z_rows = list(W), list(sqs), list(zs)  # views made once
    few_rows = B <= LIST_TEST_ROWS
    # S_0 .. S_{T//2}: the window of step t starts at S_{t//2}.
    csum = np.zeros((T // 2 + 1, B, d)) if suffix_mode else None
    kept = np.empty((B, T, d)) if collect_iterates else None
    subopt = np.empty((B, T))
    regret = np.zeros(B)
    first_bad = np.zeros(B, dtype=np.int64)  # first non-finite step per row, 0: none

    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, K):
            n = min(K, T - lo)
            if lo:  # every block but the last is full: carry its last iterate
                W[1] = W[K + 1]
                sqs[0] = sqs[K]
            block = indices[:, lo : lo + n].T
            Xb = X[block]  # (n, B, d)
            yb = y[block]
            steps = zip(range(lo + 1, lo + n + 1), w_rows[1:], w_rows[2:], sq_rows[1:],
                        z_rows, Xb, yb)
            for t, w, w_next, sq, z, x, yc in steps:
                np.vecdot(x, w, out=z)
                _scalar_slope(kind, z, yc, out=slope)
                np.multiply(x, slope_col, out=G)
                if alpha:
                    np.multiply(w, alpha, out=tmp)
                    np.add(G, tmp, out=G)
                np.multiply(G, rates[t - 1], out=G)
                np.subtract(w, G, out=w_next)
                np.vecdot(w_next, w_next, out=sq)
                # sqrt is monotone: a row to project or a non-finite row fails.
                if few_rows:  # on Python floats; the sum catches a NaN max skips
                    row_sqs = sq.tolist()
                    inside = math.sqrt(max(row_sqs)) <= limit and sum(row_sqs) < math.inf
                else:  # the ufunc reduce propagates NaN
                    inside = math.sqrt(np.maximum.reduce(sq)) <= limit
                if not inside:
                    norm = np.sqrt(sq)
                    first_bad[(first_bad == 0) & ~np.isfinite(norm)] = t
                    over = norm > radius
                    w_next[over] *= (radius / norm[over])[:, None]
                    projected = w_next[over]
                    sq[over] = np.vecdot(projected, projected)

            iterates = W[1 : n + 1]  # w_{lo+1} .. w_{lo+n}
            if kept is not None:
                kept[:, lo : lo + n] = iterates.transpose(1, 0, 2)
            loss = _scalar_loss(kind, zs[:n], yb)
            if alpha:
                loss += 0.5 * alpha * sqs[:n]
            loss -= star_losses[block]
            regret = np.cumsum(np.concatenate([regret[None], loss]), axis=0)[-1]

            # W[j] becomes S_{lo+j}; row 0 carries S_{lo+n} on, rows 1..n become averages.
            np.cumsum(W[: n + 1], axis=0, out=W[: n + 1])
            W[0] = W[n]
            ts = np.arange(lo + 1, lo + n + 1)
            if suffix_mode:
                csum[lo + 1 : lo + n + 1] = iterates[: max(0, T // 2 - lo)]  # t <= T//2 only
                window = (ts + 1) // 2
                np.subtract(iterates, csum[ts - window], out=iterates)
            else:
                window = ts
            np.divide(iterates, window[:, None, None], out=iterates)
            subopt[:, lo : lo + n] = subopt_of(iterates.reshape(n * B, d)).reshape(n, B).T

    bad = np.flatnonzero(first_bad)
    if bad.size:
        step = int(first_bad[bad[0]])
        raise DivergenceError(f"iterate became non-finite at step {step}", step=step)
    return subopt, W[n].copy(), regret, kept


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
    def rows(k):
        return schedule(config.sampler, problem.m, 1, config.n_steps,
                        Rng(config.seed, config.stream), problem.m, sigma)[0]

    return next(_traces(problem, config, rows, 1, collect_iterates, reference))


@dataclass
class SeedSummary:
    """Across-seed mean and standard error of the suboptimality trace."""

    mean: np.ndarray
    stderr: np.ndarray | None
    n_seeds: int


def average_suboptimality_over_seeds(problem, config: SGDConfig, n_seeds: int) -> SeedSummary:
    """Monte-Carlo estimate over permutations: trial k runs on stream k.

    The streams run as batches of the one SGD engine; trials are reduced
    in stream order, so the result equals a loop of ``run_sgd`` calls.
    """
    if n_seeds < 1:
        raise InvalidParameter("n_seeds must be >= 1")
    mean = np.zeros(config.n_steps)
    m2 = np.zeros(config.n_steps)

    def rows(k):
        return schedule(config.sampler, problem.m, 1, config.n_steps, Rng(config.seed, k),
                        problem.m)[0]

    for k, trace in enumerate(_traces(problem, config, rows, n_seeds)):
        delta = trace.suboptimality - mean
        mean += delta / (k + 1)
        m2 += delta * (trace.suboptimality - mean)
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
    fixed reference point may stand in for w* (pass ``wstar``).  All m!
    runs go through the SGD engine as one batch of explicit index rows.
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

    sigmas = list(enumerate_permutations(m))
    runs = _traces(problem, config, lambda k: explicit_indices(sigmas[k], m, T),
                   len(sigmas), collect_iterates=True, reference=wstar)
    lhs_total = 0.0
    regret_total = 0.0
    ps_total = 0.0
    count = 0
    for sigma, trace in zip(sigmas, runs):
        ws = trace.iterates
        losses_at = [problem.point_losses(ws[t]) for t in range(T)]
        lhs_total += sum(float(pairwise_mean(lv)) - fref for lv in losses_at) / T
        regret_total += (
            sum(losses_at[t][sigma[t]] - ref_losses[sigma[t]] for t in range(T)) / T
        )
        for t in range(2, T + 1):
            ps_total += (t - 1) * _prefix_suffix_gap(losses_at[t - 1], sigma, t) / (m * T)
        count += 1

    return DecompositionResult(
        lhs=lhs_total / count,
        regret_term=regret_total / count,
        prefix_suffix_term=ps_total / count,
    )
