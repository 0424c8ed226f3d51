"""Exact and Monte-Carlo oracles for the mathematical building blocks.

* :func:`permutation_identity_check`: exhaustive verification that for a
  uniformly random permutation and prefix-measurable values s_i,
  E[mean(s) - s_{sigma(t)}] equals ((t-1)/m) * E[prefix mean - suffix mean].
* :func:`rademacher_estimate`: transductive Rademacher complexity
  (1/s + 1/u) * E[sup_v sum_i r_i v_i] with ternary variables
  r_i in {-1, 0, +1}, P(r_i = +-1) = p = s*u/(s+u)^2, estimated by Monte
  Carlo with the supremum evaluated exactly per draw (finite classes by
  maximization, norm balls of linear predictors in closed form).
* :func:`contraction_check` / :func:`product_class_check`: paired
  Monte-Carlo comparisons against the Lipschitz-contraction and
  coordinatewise-product bounds, sharing one r-stream so sampling noise
  cancels in the gap.
* :func:`matrix_concentration_check`: permuted prefix/suffix deviation
  profiles of normalized rank-one matrices against an exponential tail
  bound.
* :func:`sqrt_sum_bound_scan`: exhaustive numeric check of the weighted
  square-root sum bound used by the rate analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, SingularCurvature
from .rng import Rng
from .sampling import enumerate_permutations, shuffle

MAX_IDENTITY_M = 8
EIG_FLOOR = 1e-12
SIGN_CHUNK = 1 << 18  # sign entries rademacher_estimate draws and reduces at once


# ---------------------------------------------------------------------------
# permutation identity


def permutation_identity_check(m: int, t: int, value_rule) -> tuple[float, float]:
    """Exact both sides of the prefix/suffix swap identity.

    ``value_rule(prefix)`` must return the m values s_0..s_{m-1} as an
    array, where ``prefix`` is the tuple of the first t-1 drawn indices.
    Depending only on the prefix is exactly the measurability condition
    the identity needs.  Both expectations are computed by summing over
    all m! permutations (values are cached per prefix).

    Returns (lhs, rhs) where
    lhs = E[mean(s) - s_{sigma(t)}] and
    rhs = ((t-1)/m) * E[mean_{i<t} s_{sigma(i)} - mean_{i>=t} s_{sigma(i)}],
    with rhs = 0 for t = 1 by the empty-prefix convention.
    """
    if m > MAX_IDENTITY_M:
        raise InvalidParameter(f"exhaustive check is limited to m <= {MAX_IDENTITY_M}")
    if not 1 <= t <= m:
        raise InvalidParameter(f"need 1 <= t <= m, got t={t}")

    cache: dict[tuple, np.ndarray] = {}
    lhs_total = 0.0
    rhs_total = 0.0
    count = 0
    for sigma in enumerate_permutations(m):
        prefix = sigma[: t - 1]
        s = cache.get(prefix)
        if s is None:
            s = np.asarray(value_rule(prefix), dtype=np.float64)
            if s.shape != (m,):
                raise DimensionMismatch(
                    f"value_rule must return {m} values, got shape {s.shape}"
                )
            cache[prefix] = s
        lhs_total += s.mean() - s[sigma[t - 1]]
        if t > 1:
            rhs_total += (t - 1) / m * _prefix_suffix_gap(s, sigma, t)
        count += 1
    return lhs_total / count, rhs_total / count


def _prefix_suffix_gap(values: np.ndarray, sigma, t: int) -> float:
    """Mean of ``values`` over sigma's first t - 1 positions minus the mean
    over the rest, for 2 <= t <= len(sigma)."""
    pre = np.fromiter((values[i] for i in sigma[: t - 1]), float, count=t - 1)
    suf = np.fromiter((values[i] for i in sigma[t - 1 :]), float, count=len(sigma) - t + 1)
    return pre.mean() - suf.mean()


# ---------------------------------------------------------------------------
# transductive Rademacher complexity


@dataclass(frozen=True)
class FiniteVectorClass:
    """An explicit finite set of coordinate vectors (one per row)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        if v.size == 0:
            raise InvalidParameter("class must contain at least one vector")
        object.__setattr__(self, "vectors", v)

    @property
    def length(self) -> int:
        return self.vectors.shape[1]

    def sup_correlation(self, r: np.ndarray) -> np.ndarray:
        """sup over members of <r_row, v> for each row of r."""
        return (r @ self.vectors.T).max(axis=1)

    def coordinate_bound(self) -> float:
        return float(np.abs(self.vectors).max())


@dataclass(frozen=True)
class LinearBallClass:
    """Evaluations (<w, x_1>, ..., <w, x_m>) over the ball ||w|| <= radius.

    The supremum of sum_i r_i <w, x_i> over the ball is
    radius * ||sum_i r_i x_i||, which is used in closed form.
    """

    X: np.ndarray
    radius: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if self.radius <= 0:
            raise InvalidParameter("radius must be positive")
        object.__setattr__(self, "X", X)

    @property
    def length(self) -> int:
        return self.X.shape[0]

    def sup_correlation(self, r: np.ndarray) -> np.ndarray:
        return self.radius * np.linalg.norm(r @ self.X, axis=1)


@dataclass(frozen=True)
class RademacherSpec:
    cls: FiniteVectorClass | LinearBallClass
    split: tuple[int, int]
    mc_samples: int
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        s, u = self.split
        if s < 1 or u < 1:
            raise InvalidParameter("both split sizes must be >= 1")
        if s + u != self.cls.length:
            raise InvalidParameter(
                f"split {s}+{u} must cover the class coordinate length {self.cls.length}"
            )
        if self.mc_samples < 2:
            raise InvalidParameter("mc_samples must be >= 2")

    @property
    def p(self) -> float:
        s, u = self.split
        return s * u / (s + u) ** 2


def ternary_signs(p: float, shape, rng: Rng) -> np.ndarray:
    """i.i.d. values in {-1, 0, +1} with P(+1) = P(-1) = p."""
    if not 0.0 < p <= 0.5:
        raise InvalidParameter("p must lie in (0, 1/2]")
    u = rng.uniform(int(np.prod(shape))).reshape(shape)
    return np.where(u < p, 1.0, np.where(u < 2 * p, -1.0, 0.0))


@dataclass
class McEstimate:
    value: float
    stderr: float
    n_samples: int


def _estimate(scale: float, sups: np.ndarray) -> McEstimate:
    """Mean and standard error of ``scale * sups`` over its draws."""
    n = sups.size
    stderr = scale * sups.std(ddof=1) / math.sqrt(n)
    return McEstimate(float(scale * sups.mean()), float(stderr), n)


def rademacher_estimate(spec: RademacherSpec) -> McEstimate:
    """Monte-Carlo transductive Rademacher complexity of the class.

    The sign rows are drawn and reduced ``SIGN_CHUNK // m`` (at least one)
    at a time, in order from one stream, so they are the rows of one
    (mc_samples, m) draw while memory stays bounded for any mc_samples.
    """
    s, u = spec.split
    m, n = spec.cls.length, spec.mc_samples
    rng = Rng(spec.seed, spec.stream)
    rows = max(1, SIGN_CHUNK // m)
    sups = np.concatenate([
        spec.cls.sup_correlation(ternary_signs(spec.p, (min(rows, n - lo), m), rng))
        for lo in range(0, n, rows)
    ])
    return _estimate(1.0 / s + 1.0 / u, sups)


def linear_ball_bound(radius: float, split: tuple[int, int]) -> float:
    """Closed-form complexity bound sqrt(2) * radius * (1/sqrt(s) + 1/sqrt(u))."""
    s, u = split
    return math.sqrt(2.0) * radius * (1.0 / math.sqrt(s) + 1.0 / math.sqrt(u))


@dataclass
class PairedComparison:
    lhs: McEstimate
    rhs: McEstimate
    gap: float  # mean of (rhs - lhs) over the shared draws
    gap_stderr: float

    def within_noise(self, n_sigma: float = 3.0) -> bool:
        """True when lhs <= rhs up to n_sigma paired standard errors."""
        return self.gap >= -n_sigma * max(self.gap_stderr, 1e-300)


def _paired(scale: float, lhs_sups: np.ndarray, rhs_sups: np.ndarray) -> PairedComparison:
    gap = _estimate(1.0, scale * (rhs_sups - lhs_sups))
    return PairedComparison(_estimate(scale, lhs_sups), _estimate(scale, rhs_sups),
                            gap.value, gap.stderr)


def contraction_check(
    finite_class: FiniteVectorClass,
    maps,
    lipschitz: float,
    split: tuple[int, int],
    mc_samples: int,
    seed: int = 0,
    stream: int = 0,
) -> PairedComparison:
    """Estimate R(g o V) against L * R(V) on one shared sign stream.

    ``maps`` is a sequence of m scalar functions applied coordinatewise.
    Each map's Lipschitz constant is verified on the class values before
    sampling; a violation is a usage error.
    """
    V = finite_class.vectors
    m = finite_class.length
    if len(maps) != m:
        raise DimensionMismatch(f"need {m} coordinate maps, got {len(maps)}")
    if lipschitz < 0:
        raise InvalidParameter("lipschitz must be >= 0")
    W = np.empty_like(V)
    for i, g in enumerate(maps):
        W[:, i] = [g(v) for v in V[:, i]]
        col = V[:, i]
        gaps = np.abs(W[:, i][:, None] - W[:, i][None, :])
        dist = np.abs(col[:, None] - col[None, :])
        if np.any(gaps > lipschitz * dist + 1e-9):
            raise InvalidParameter(
                f"map {i} violates the declared Lipschitz constant {lipschitz}"
            )
    spec = RademacherSpec(finite_class, split, mc_samples, seed, stream)
    r = ternary_signs(spec.p, (mc_samples, m), Rng(seed, stream))
    lhs_sups = (r @ W.T).max(axis=1)
    rhs_sups = lipschitz * (r @ V.T).max(axis=1)
    s, u = split
    return _paired(1.0 / s + 1.0 / u, lhs_sups, rhs_sups)


def product_class_check(
    class_v: FiniteVectorClass,
    class_s: FiniteVectorClass,
    split: tuple[int, int],
    mc_samples: int,
    seed: int = 0,
    stream: int = 0,
) -> PairedComparison:
    """Estimate R(U) for U = {v * s coordinatewise} against
    B_S * R(V) + B_V * R(S) on one shared sign stream."""
    if class_v.length != class_s.length:
        raise DimensionMismatch("classes must share the coordinate length")
    m = class_v.length
    bound_v = class_v.coordinate_bound()
    bound_s = class_s.coordinate_bound()
    products = np.einsum("ak,bk->abk", class_v.vectors, class_s.vectors).reshape(-1, m)

    spec = RademacherSpec(class_v, split, mc_samples, seed, stream)
    r = ternary_signs(spec.p, (mc_samples, m), Rng(seed, stream))
    lhs_sups = (r @ products.T).max(axis=1)
    rhs_sups = bound_s * (r @ class_v.vectors.T).max(axis=1) + bound_v * (
        r @ class_s.vectors.T
    ).max(axis=1)
    s, u = split
    return _paired(1.0 / s + 1.0 / u, lhs_sups, rhs_sups)


# ---------------------------------------------------------------------------
# matrix concentration


@dataclass(frozen=True)
class ConcentrationSpec:
    """Inputs for the permuted prefix/suffix matrix deviation experiment.

    ``shift`` is the diagonal loading added to the feature second moment;
    the resulting smallest eigenvalue gamma is computed, never assumed,
    and must be positive (values above 1 only occur in degenerate
    single-direction setups and are allowed).
    """

    X: np.ndarray
    shift: float
    alpha: float
    trials: int
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        if np.linalg.norm(X, axis=1).max() > 1.0 + 1e-12:
            raise InvalidParameter("feature norms must be <= 1")
        if self.shift < 0:
            raise InvalidParameter("shift must be >= 0")
        if self.alpha < 2:
            raise InvalidParameter("alpha must be >= 2")
        if self.trials < 1:
            raise InvalidParameter("trials must be >= 1")
        if X.shape[0] < 2:
            raise InvalidParameter("need at least two points")
        object.__setattr__(self, "X", X)


@dataclass
class ConcentrationResult:
    violation_rate: float
    bound: float  # 4 * d * m * exp(-alpha / 2); may exceed 1
    max_deviation_profile: np.ndarray  # per split point, max over trials
    thresholds: np.ndarray
    gamma: float
    mean_matrix: np.ndarray


def normalized_outer_products(X: np.ndarray, shift: float):
    """M_i = W x_i x_i^T W with W = (Xbar + shift I)^(-1/2); returns
    (stack of M_i, gamma, mean matrix).  Eigenvalues are floored at
    1e-12 before the inverse square root so the M_i stay symmetric PSD."""
    m, d = X.shape
    second_moment = (X.T @ X) / m
    loaded = second_moment + shift * np.eye(d)
    evals, evecs = np.linalg.eigh(loaded)
    gamma = float(evals[0])
    if gamma <= 0:
        raise SingularCurvature(
            f"shifted second moment has non-positive smallest eigenvalue {gamma:.3g}"
        )
    inv_root = (evecs / np.sqrt(np.maximum(evals, EIG_FLOOR))) @ evecs.T
    U = X @ inv_root
    mats = np.einsum("id,ie->ide", U, U)
    mean_matrix = inv_root @ second_moment @ inv_root
    return mats, gamma, mean_matrix


def spectral_norms(mats: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of symmetric matrices."""
    return np.abs(np.linalg.eigvalsh(mats)).max(axis=-1)


def concentration_thresholds(m: int, gamma: float, alpha: float) -> np.ndarray:
    """Allowed deviation at each split point s = 1..m-1."""
    s = np.arange(1, m, dtype=np.float64)
    su = m - s
    return alpha / math.sqrt(gamma) * (1 / np.sqrt(s) + 1 / np.sqrt(su)) + alpha / gamma * (
        1 / s + 1 / su
    )


def matrix_concentration_check(spec: ConcentrationSpec) -> ConcentrationResult:
    """Monte-Carlo deviation profile over random permutations.

    For each trial permutation and every split point s, measures the
    spectral norm of (prefix mean of M) - (suffix mean of M) and compares
    it against the exponential-tail threshold; reports the fraction of
    trials with any exceedance, the theoretical trial-failure bound, and
    the per-split maximum deviation across trials.
    """
    mats, gamma, mean_matrix = normalized_outer_products(spec.X, spec.shift)
    m, d = spec.X.shape
    thresholds = concentration_thresholds(m, gamma, spec.alpha)
    counts = np.arange(1, m, dtype=np.float64)

    rng = Rng(spec.seed, spec.stream)
    profile = np.zeros(m - 1)
    violations = 0
    for _ in range(spec.trials):
        order = shuffle(m, rng)
        prefix = np.cumsum(mats[order], axis=0)[:-1]
        total = prefix[-1] + mats[order[-1]]
        dev = prefix / counts[:, None, None] - (total - prefix) / (m - counts)[:, None, None]
        norms = spectral_norms(dev)
        np.maximum(profile, norms, out=profile)
        if np.any(norms > thresholds):
            violations += 1

    bound = 4.0 * d * m * math.exp(-spec.alpha / 2.0)
    return ConcentrationResult(
        violation_rate=violations / spec.trials,
        bound=bound,
        max_deviation_profile=profile,
        thresholds=thresholds,
        gamma=gamma,
        mean_matrix=mean_matrix,
    )


def central_band_peak(profile: np.ndarray) -> float:
    """Max of a deviation profile over the central split band [m/4, 3m/4].

    The profile's global maximum sits at the extreme splits (a singleton
    prefix deviates by an amount independent of m); the central band is
    where the root-m concentration scaling is visible.
    """
    m = profile.size + 1
    lo = max(m // 4, 1)
    hi = min(3 * m // 4, m - 1)
    return float(profile[lo - 1 : hi].max())


# ---------------------------------------------------------------------------
# weighted square-root sum bound


def sqrt_sum_bound_scan(m_max: int) -> float:
    """Worst ratio of (1/(mT)) sum_{t=2}^{T} (t-1)(1/sqrt(t-1)+1/sqrt(m-t+1))
    to 2/sqrt(m) over all 1 <= T <= m <= m_max.  Asserts the bound holds."""
    if m_max < 2:
        raise InvalidParameter("m_max must be >= 2")
    worst = 0.0
    for m in range(2, m_max + 1):
        t = np.arange(2, m + 1, dtype=np.float64)
        terms = (t - 1) * (1.0 / np.sqrt(t - 1) + 1.0 / np.sqrt(m - t + 1))
        sums = np.concatenate([[0.0], np.cumsum(terms)])  # index T-1 for T=1..m
        T = np.arange(1, m + 1, dtype=np.float64)
        ratios = (sums / (m * T)) / (2.0 / math.sqrt(m))
        peak = float(ratios.max())
        if peak > worst:
            worst = peak
    if worst > 1.0:
        raise AssertionError(f"weighted square-root sum bound violated: ratio {worst}")
    return worst
