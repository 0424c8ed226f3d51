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
runs B of them as the rows of a (B, d) iterate matrix.  Its one input is
the caller's int64 (n, T) array of index rows, row k stream k's indices:
``run_sgd`` passes its drawn row, its 1-D ``sigma``, or the n rows of a
2-D ``sigma``; ``average_suboptimality_over_seeds`` draws stream k's row
on ``Rng(seed, k)``; ``suboptimality_decomposition_check`` is one
``run_sgd`` call over every permutation.  The engine runs the rows in
consecutive chunks sliced from the array, each sized to one fixed
working-memory budget (``STREAM_CHUNK_BYTES``), and returns the traces
in row order.

Every row keeps the bits of its one-stream run.  The row dots,
``np.vecdot`` for x_i . w and for ||w||^2, have the bits of the 1-D
``x_i @ w`` (checked row by row, see ``problem``, "Blocks of points").
The update is rounded in the order of the SVRG inner step,

    w_{t+1} = (c_t * w_t) - x_i * (eta_t * s_t),   c_t = 1 - eta_t alpha,

with s_t the loss slope at x_i . w_t; at alpha = 0, c_t is exactly 1, a
no-op factor.  As in ``svrg.run_svrg``, each step call is a local taking
``out`` positionally, on operands of one shape or a 0-d eta_t or c_t:
x_i multiplies in place the column eta_t * s_t copied across a (B, d)
buffer (IEEE products commute, so the bits are x_i * (eta_t * s_t)).
Projection scales only the rows whose norm exceeds the radius.  The ball
test compares the largest norm (the row ``argmax`` picks, the first NaN
if any) with the radius, so a NaN or overflowed row fails it like a row
outside the ball.  It runs at every step of a tested block: the first
block, and each block after one that projected.  Another block runs
untested; then one array test over its squared norms, rows already
non-finite excluded, finds its first failing step, which is projected,
and the steps after it in the block are replayed, tested.  So every
projection falls on the step and rows the per-step test gives, and a
block that fails wastes at most the rest of itself, once.  Step t reads x_i and w_t
from a row of one block buffer, plane 0 the gathered points and plane 1
the iterates, and writes w_{t+1} into the next row, whose two dots,
x_{i'} . w_{t+1} for the next step and ||w_{t+1}||^2 for the projection
test, come from one ``np.vecdot`` call (a projected row recomputes its
pair).  The rate table eta_1..eta_T and the c_t come from one array
call of the step rule, with the bits of calls at each t; each block
copies its rows into one buffer read through 0-d views made once.  After each
``EVAL_BLOCK`` steps, one ``cumsum`` over the carried sum and the
block's iterates gives S_t = w_1 + ... + w_t, added in step order like
a running accumulator; the average iterate is S_t / t, and the averages
are evaluated as one block, as are the losses; the regret is a
cumulative sum along the step axis.

A stream whose iterate norm becomes non-finite keeps running as NaNs
until its chunk ends.  Then the lowest such stream's first non-finite
step is raised as ``DivergenceError``: the error a sequential loop over
the rows would raise first, even when a higher row diverged at an
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
from .problem import _SLOPES, _in_ball, _scalar_loss
from .rng import Rng, _integer
from .sampling import (
    SINGLE_SHUFFLE,
    SAMPLER_KINDS,
    enumerate_permutations,
    explicit_indices,
    schedule,
)
from .verify import _split_gaps


@dataclass(frozen=True)
class StronglyConvexStep:
    """eta_t = 2 / (strong_convexity * t)."""

    strong_convexity: float

    def __post_init__(self):
        if not 0 < self.strong_convexity < math.inf:
            raise InvalidParameter("strong_convexity must be finite and positive")

    def rate(self, t: int | np.ndarray) -> float | np.ndarray:
        return 2.0 / (self.strong_convexity * t)


@dataclass(frozen=True)
class FixedStep:
    eta: float

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise InvalidParameter("step size must be finite and positive")

    def rate(self, t: int | np.ndarray) -> float | np.ndarray:
        return self.eta


@dataclass(frozen=True)
class InverseSqrtStep:
    """eta_t = eta0 / sqrt(t); ``np.sqrt`` is correctly rounded, like
    ``math.sqrt``, so an array of t gives the bits of the calls at each t."""

    eta0: float

    def __post_init__(self):
        if not 0 < self.eta0 < math.inf:
            raise InvalidParameter("step size must be finite and positive")

    def rate(self, t: int | np.ndarray) -> float | np.ndarray:
        return self.eta0 / np.sqrt(t)


EVAL_BLOCK = 256  # running averages evaluated per suboptimality call
STREAM_CHUNK_BYTES = 1 << 25  # working memory of one chunk of streams


@dataclass(frozen=True)
class SGDConfig:
    n_steps: int
    step_rule: StronglyConvexStep | FixedStep | InverseSqrtStep
    radius: float
    sampler: str = SINGLE_SHUFFLE
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        _integer(self.n_steps, "n_steps must be an integer >= 1", 1)
        if not self.radius > 0:
            raise InvalidParameter("radius must be positive")
        if self.sampler not in SAMPLER_KINDS:
            raise InvalidParameter(f"sampler must be one of {SAMPLER_KINDS}")


@dataclass
class Trace:
    suboptimality: np.ndarray
    average_iterate: np.ndarray
    regret: float
    gradient_evals: int
    iterates: np.ndarray | None = None


def _stream_bytes(config: SGDConfig, d: int, collect_iterates: bool) -> int:
    """Bytes one stream adds to a chunk: its trace and the previous
    chunk's (its index row is a slice of the caller's array, which is held
    for the whole call and lies outside the budget); per row of the block
    buffer, 4 vectors of d (the two planes, gathered points and iterates,
    and the block evaluation's two temporaries, the ridge curvature
    form's offsets and their Hessian products; the copy of the gathered
    points is freed before them) and 10 scalars (the two dots, the labels,
    the losses and the regret's temporaries, the block's suboptimality
    values); and the kept iterates (twice: the previous chunk's are still
    held while the next one runs)."""
    T = config.n_steps
    rows = 2 * collect_iterates * (T + 1)
    return 8 * (2 * T + (min(T, EVAL_BLOCK) + 2) * (4 * d + 10) + rows * d)


def _traces(problem, config: SGDConfig, indices, collect_iterates=False, reference=None):
    """Yield, in order, the Trace of the stream of each row of the (n, T)
    int64 ``indices``, n >= 1.

    The rows run through :func:`_run_batch` in the fewest near-equal
    consecutive chunks (``np.array_split``) of at most as many rows as
    ``STREAM_CHUNK_BYTES`` allows.
    """
    wstar = problem.wstar if reference is None else np.asarray(reference, dtype=np.float64)
    if not _in_ball(wstar, config.radius):
        raise InvalidParameter(
            f"projection radius {config.radius:g} excludes the minimizer "
            f"(norm {np.linalg.norm(wstar):.6g})"
        )
    cap = max(1, STREAM_CHUNK_BYTES // _stream_bytes(config, problem.d, collect_iterates))
    for chunk in np.array_split(indices, -(-len(indices) // cap)):
        subopt, avg, regret, kept = _run_batch(problem, config, chunk, wstar,
                                               reference is not None, collect_iterates)
        for b in range(len(subopt)):
            yield Trace(
                suboptimality=subopt[b],
                average_iterate=avg[b],
                regret=float(regret[b]),
                gradient_evals=config.n_steps,
                iterates=None if kept is None else kept[b],
            )


def _project(t, sq, w_next, pair, zs_next, radius, first_bad):
    """Step t's ball test failed: flag the rows whose norm ``sqrt(sq)`` is
    non-finite, scale the rows outside the ball onto it and recompute
    their two dots (``pair`` the step's plane pair, ``zs_next`` its dots)."""
    norm = np.sqrt(sq)
    first_bad[(first_bad == 0) & ~np.isfinite(norm)] = t
    over = norm > radius
    w_next[over] *= (radius / norm[over])[:, None]
    zs_next[:, over] = np.vecdot(pair[:, over], w_next[over])


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
    rates = np.broadcast_to(config.step_rule.rate(np.arange(1.0, T + 1)), (T,))
    shrinks = 1.0 - rates * alpha  # c_t
    star_losses = problem.point_losses(wstar)
    if given_reference:
        ref_value = problem.full_objective(wstar)

        def subopt_of(W):
            return problem.full_objective(W) - ref_value
    else:
        subopt_of = problem.suboptimality

    K = min(T, EVAL_BLOCK)
    # Plane 0 of buf holds the gathered points, plane 1 (W) the iterates, and
    # the planes of ZS their row dots x . w and ||w||^2.  In the block of steps
    # lo+1 .. lo+n, row 0 of W carries S_lo and step t reads x_t, w_t and their
    # dots from row t - lo, and writes w_{t+1} and its dots into the next.
    buf = np.zeros((2, K + 2, B, d))
    P, W = buf
    ZS = np.zeros((2, K + 2, B))
    coef = np.empty((2, K))  # the block's eta_t and c_t
    G = np.empty((B, d))
    slope = np.empty(B)
    slope_col = slope[:, None]
    slope_of, sqrt, project = _SLOPES[kind], math.sqrt, _project
    multiply, subtract, vecdot = np.multiply, np.subtract, np.vecdot
    # views made once: buf[:, j], ZS[:, j], the rows of each plane and the
    # 0-d entries of coef, so that no call converts a scalar
    pairs, zs_pairs = list(buf.transpose(1, 0, 2, 3)), list(ZS.transpose(1, 0, 2))
    x_rows, w_rows, z_rows, sq_rows = list(P), list(W), list(ZS[0]), list(ZS[1])
    rate_rows, shrink_rows = ([c[j, ...] for j in range(K)] for c in coef)
    kept = np.empty((B, T, d)) if collect_iterates else None
    subopt = np.empty((B, T))
    regret = np.zeros(B)
    first_bad = np.zeros(B, dtype=np.int64)  # first non-finite step per row, 0: none
    tested = True  # the first block tests every step

    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, K):
            n = min(K, T - lo)
            if lo:  # every block but the last is full: carry its last iterate
                W[1] = W[K + 1]
            block = indices[:, lo : lo + n].T
            P[1 : n + 1] = X[block]
            yb = y[block]
            coef[0, :n] = rates[lo : lo + n]
            coef[1, :n] = shrinks[lo : lo + n]
            # The block's first pair of dots; the last step's x dot reads no point and is unused.
            np.vecdot(pairs[1], W[1], out=zs_pairs[1])
            projected, a = False, 0  # steps lo+a+1 .. lo+n run next
            while True:
                steps = zip(range(lo + a + 1, lo + n + 1), x_rows[a + 1 :], w_rows[a + 1 :],
                            w_rows[a + 2 :], pairs[a + 2 :], zs_pairs[a + 2 :], z_rows[a + 1 :],
                            sq_rows[a + 2 :], yb[a:], rate_rows[a:], shrink_rows[a:])
                for t, x, w, w_next, pair, zs_next, z, sq, yc, rate, shrink in steps:
                    slope_of(z, yc, slope)
                    multiply(slope, rate, slope)
                    G[...] = slope_col  # so that x * G has operands of one shape
                    multiply(x, G, G)
                    multiply(w, shrink, w_next)
                    subtract(w_next, G, w_next)
                    # x_{t+1} . w_{t+1} and ||w_{t+1}||^2 in one call
                    vecdot(pair, w_next, zs_next)
                    # sqrt is monotone: a row to project or a non-finite row fails;
                    # argmax returns the first NaN, which fails any comparison.
                    if tested and not sqrt(sq[sq.argmax()]) <= limit:
                        project(t, sq, w_next, pair, zs_next, radius, first_bad)
                        projected = True
                if tested:
                    break
                # An untested block: its first step where a row not yet flagged
                # fails is projected, and the steps after it rerun, tested.
                fails = ~(np.sqrt(ZS[1, 2 : n + 2]) <= limit) & (first_bad == 0)
                if not fails.any():
                    break
                a = int(fails.any(axis=1).argmax())  # step lo+a+1 wrote row a+2
                project(lo + a + 1, sq_rows[a + 2], w_rows[a + 2], pairs[a + 2],
                        zs_pairs[a + 2], radius, first_bad)
                projected = tested = True
                a += 1
            tested = projected

            iterates = W[1 : n + 1]  # w_{lo+1} .. w_{lo+n}
            if kept is not None:
                kept[:, lo : lo + n] = iterates.transpose(1, 0, 2)
            loss = _scalar_loss(kind, ZS[0, 1 : n + 1], yb)
            loss += 0.5 * alpha * ZS[1, 1 : n + 1]
            loss -= star_losses[block]
            regret = np.cumsum(np.concatenate([regret[None], loss]), axis=0)[-1]

            # W[j] becomes S_{lo+j}; row 0 carries S_{lo+n} on, rows 1..n become averages.
            np.cumsum(W[: n + 1], axis=0, out=W[: n + 1])
            W[0] = W[n]
            np.divide(iterates, np.arange(lo + 1, lo + n + 1)[:, None, None], out=iterates)
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
) -> Trace | list[Trace]:
    """One SGD run; deterministic in (seed, stream).

    ``sigma`` overrides the sampler with an explicit index sequence, whose
    first ``n_steps`` entries the run reads.  A 2-D ``sigma`` of n rows
    runs n streams through the one engine and returns their n Traces, row
    k's bitwise ``run_sgd(sigma=sigma[k])``; if a row diverges, the lowest
    diverging row's ``DivergenceError`` is raised, the one a loop over the
    rows would raise first.  Suboptimality and regret are
    measured against the problem's minimizer, or against ``reference``
    when given (any fixed point works for the regret identity; required
    for problems without a well-defined minimizer).  The comparator must
    lie inside the projection ball, otherwise projection excludes it.
    """
    if sigma is None:
        sigma = schedule(config.sampler, problem.m, 1, config.n_steps,
                         Rng(config.seed, config.stream))[0]
    indices = explicit_indices(sigma, problem.m, config.n_steps, batch=True)
    traces = list(_traces(problem, config, np.atleast_2d(indices), collect_iterates, reference))
    return traces if indices.ndim == 2 else traces[0]


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
    _integer(n_seeds, "n_seeds must be an integer >= 1", 1)
    mean = np.zeros(config.n_steps)
    m2 = np.zeros(config.n_steps)
    rows = np.concatenate([schedule(config.sampler, problem.m, 1, config.n_steps,
                                    Rng(config.seed, k)) for k in range(n_seeds)])
    for k, trace in enumerate(_traces(problem, config, rows)):
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
    runs are one ``run_sgd`` call on the 2-D ``sigma`` of every order.
    The regret term is the engine's own ``Trace.regret / T``, so the
    identity checks it too; the other two terms are means over the
    (m!, T, m) point losses of the engine's (m!, T, d) iterates.
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

    sigmas = np.array(list(enumerate_permutations(m)))
    runs = run_sgd(problem, config, sigmas, collect_iterates=True, reference=wstar)
    W = np.stack([run.iterates for run in runs])  # (m!, T, d)
    losses = _scalar_loss(problem.kind, W @ problem.data.X.T, problem.data.y)
    losses += 0.5 * problem.alpha * np.vecdot(W, W)[..., None]
    regret = np.array([run.regret for run in runs])
    # row t-1 of the losses split after its first t-1 drawn points, t = 2..T
    ts = np.arange(2, T + 1)
    gaps = _split_gaps(np.take_along_axis(losses, sigmas[:, None, :], axis=2))[:, ts - 1, ts - 2]
    return DecompositionResult(
        lhs=float(losses.mean(axis=2).mean() - problem.point_losses(ref).mean()),
        regret_term=float(regret.mean() / T),
        prefix_suffix_term=float((gaps @ (ts - 1.0)).mean() / (m * T)),
    )
