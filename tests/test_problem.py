import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflegrad import (
    Dataset,
    FiniteVectorClass,
    FixedStep,
    GenSpec,
    InverseSqrtStep,
    LinearBallClass,
    LipschitzLinearProblem,
    RidgeProblem,
    Rng,
    SGDConfig,
    StronglyConvexStep,
    SVRGConfig,
    average_suboptimality_over_seeds,
    central_band_peak,
    contraction_check,
    enumerate_permutations,
    generate,
    linear_ball_bound,
    log_suboptimality_bound,
    matched_permutation,
    matrix_concentration_check,
    permutation_identity_check,
    rademacher_estimate,
    run_distributed_svrg,
    run_svrg_over_streams,
    shuffle,
    sqrt_sum_bound_scan,
)
from shufflegrad.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    SingularCurvature,
)
from shufflegrad import problem as problem_module
from shufflegrad.problem import _SLOPES, LOSS_CHUNK, _certified_minimizer, _dual_objective
from conftest import (
    fsum_row_mean,
    numpy_sum_depth,
    random_dataset,
    random_ridge,
    straight_objective,
    straight_row_sum,
    straight_suboptimality,
)


class TestHandValues:
    def test_point_losses(self, unit_axes_problem):
        p = unit_axes_problem
        assert p.point_loss(0, [0.0, 0.0]) == 0.5
        assert p.point_loss(1, [0.0, 0.0]) == 0.0
        assert p.point_loss(0, [0.5, 0.0]) == pytest.approx(0.1875, abs=1e-15)

    def test_point_gradients(self, unit_axes_problem):
        p = unit_axes_problem
        assert np.allclose(p.point_gradient(0, [0.0, 0.0]), [-1.0, 0.0])
        assert np.allclose(p.point_gradient(1, [0.0, 0.0]), [0.0, 0.0])

    def test_full_objective_and_gradient(self, unit_axes_problem):
        p = unit_axes_problem
        assert p.full_objective([0.0, 0.0]) == 0.25
        assert np.allclose(p.full_gradient([0.0, 0.0]), [-0.5, 0.0])
        assert p.full_objective([0.5, 0.0]) == pytest.approx(0.125, abs=1e-15)

    def test_exact_minimizer(self, unit_axes_problem):
        w, f = unit_axes_problem.wstar, unit_axes_problem.fstar
        assert np.allclose(w, [0.5, 0.0], atol=1e-12)
        assert f == pytest.approx(0.125, abs=1e-12)

    def test_single_point_minimizer(self):
        p = RidgeProblem(Dataset(X=np.array([[1.0, 0.0]]), y=np.array([1.0])), alpha=0.5)
        assert np.allclose(p.wstar, [2 / 3, 0.0], atol=1e-12)

    def test_conditioning(self, unit_axes_problem):
        assert unit_axes_problem.strong_convexity == pytest.approx(1.0, abs=1e-12)
        assert unit_axes_problem.smoothness == 1.5

    def test_suboptimality(self, unit_axes_problem):
        p = unit_axes_problem
        assert p.suboptimality(p.wstar) == pytest.approx(0.0, abs=1e-15)
        assert p.suboptimality([0.0, 0.0]) == pytest.approx(0.125, abs=1e-12)


class TestValidation:
    def test_dimension_errors(self, unit_axes_problem):
        with pytest.raises(DimensionMismatch):
            unit_axes_problem.point_loss(0, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            unit_axes_problem.full_gradient([1.0])

    def test_index_errors(self, unit_axes_problem):
        p, w = unit_axes_problem, [0.0, 0.0]
        with pytest.raises(IndexOutOfRange):
            p.point_loss(2, w)
        with pytest.raises(IndexOutOfRange):
            p.point_gradient(-1, w)
        with pytest.raises(IndexOutOfRange):
            p.point_losses(w, [0, 2])
        with pytest.raises(IndexOutOfRange):
            p.point_gradient_rows(w, [-1])
        # Float, bool and 2-D indices are rejected, not cast to rows.
        for bad in (lambda: p.point_loss(2.7, w),
                    lambda: p.point_loss(True, w),
                    lambda: p.point_gradient(0.0, w),
                    lambda: p.point_losses(w, [0.5, 1.9]),
                    lambda: p.point_losses(w, [True, False]),
                    lambda: p.point_gradient_rows(w, [[0, 1], [1, 0]])):
            with pytest.raises(InvalidParameter):
                bad()
        assert p.point_losses(w, []).shape == (0,)
        assert p.point_gradient_rows(w, []).shape == (0, 2)

    @pytest.mark.parametrize("method", ["point_loss", "point_gradient"])
    @pytest.mark.parametrize("i", [-1, 2, 2**40])
    def test_point_index_error_names_i(self, unit_axes_problem, method, i):
        call = getattr(unit_axes_problem, method)
        with pytest.raises(IndexOutOfRange, match=rf"^i holds index {i} at position 0, "):
            call(i, [0.0, 0.0])

    def test_dataset_invariants(self):
        with pytest.raises(InvalidParameter):
            Dataset(X=np.array([[1.5, 0.0]]), y=np.array([0.0]))
        with pytest.raises(InvalidParameter):
            Dataset(X=np.array([[1.0, 0.0]]), y=np.array([1.5]))
        with pytest.raises(DimensionMismatch):
            Dataset(X=np.array([[1.0, 0.0]]), y=np.array([0.0, 0.0]))

    @pytest.mark.parametrize("X,y", [
        ([[0.5, 0.0], [0.5, 0.5]], [0.1, np.nan]),
        ([[np.nan, 0.0], [0.5, 0.5]], [0.1, 0.2]),
        ([[0.5, 0.0], [0.5, np.inf]], [0.1, 0.2]),
    ])
    def test_dataset_rejects_non_finite(self, X, y):
        with pytest.raises(InvalidParameter, match="finite"):
            Dataset(X=np.array(X), y=np.array(y))

    def test_singular_cutoff(self):
        # All points on one line, no regularization: rank-deficient.
        X = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        p = RidgeProblem(Dataset(X=X, y=np.zeros(4)), alpha=0.0)
        assert p.strong_convexity == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(SingularCurvature):
            _ = p.wstar

    def test_lambda_at_least_alpha(self):
        for seed in range(5):
            p = random_ridge(12, 3, seed, alpha=0.3)
            assert p.strong_convexity >= 0.3
            assert p.strong_convexity <= p.smoothness

    def test_large_dimension_eigen_path(self):
        # d = 600, far above the lab's sizes, takes the same dense eigvalsh
        # path as every other dimension.
        d = 600
        rng = Rng(99, 0)
        X = rng.normal(40 * d).reshape(40, d)
        X /= np.linalg.norm(X, axis=1).max()
        p = RidgeProblem(Dataset(X=X, y=np.zeros(40)), alpha=0.2)
        dense = float(np.linalg.eigvalsh(p.hessian)[0])
        assert p.strong_convexity == pytest.approx(dense, rel=1e-7)


@pytest.mark.parametrize("block", [1, 3, 7])
def test_dataset_checks_row_blocks_as_one_array(monkeypatch, block):
    monkeypatch.setattr(problem_module, "CHECK_ROWS", block)
    X = Rng(2, 1).normal(10 * 3).reshape(10, 3)
    X /= 0.9 * np.linalg.norm(X, axis=1).max()
    whole = np.linalg.norm(X, axis=1).max()
    assert problem_module.max_row_norm(X) == whole
    with pytest.raises(InvalidParameter) as err:
        Dataset(X=X, y=np.zeros(10))
    assert str(err.value) == f"feature norms must be <= 1 (max is {whole:.6g})"
    X[8, 1] = np.nan  # past the first block at every block size
    with pytest.raises(InvalidParameter, match="features and labels must be finite"):
        Dataset(X=X, y=np.zeros(10))


NAN = math.nan
NAN_PARAMETERS = {
    "SGDConfig.radius": lambda: SGDConfig(n_steps=1, step_rule=FixedStep(0.1), radius=NAN),
    "SVRGConfig.step_size": lambda: SVRGConfig(step_size=NAN, epoch_len=1, n_epochs=1),
    "FixedStep": lambda: FixedStep(NAN),
    "InverseSqrtStep": lambda: InverseSqrtStep(NAN),
    "StronglyConvexStep": lambda: StronglyConvexStep(NAN),
    "RidgeProblem.alpha": lambda: RidgeProblem(random_dataset(4, 2, seed=1), alpha=NAN),
    "LipschitzLinearProblem.radius":
        lambda: LipschitzLinearProblem(random_dataset(4, 2, seed=1), "absolute", radius=NAN),
    "LipschitzLinearProblem.alpha": lambda: LipschitzLinearProblem(
        random_dataset(4, 2, seed=1), "absolute", radius=1.0, alpha=NAN),
    "GenSpec.noise": lambda: GenSpec(m=4, d=2, noise=NAN),
    "GenSpec.signal_norm": lambda: GenSpec(m=4, d=2, signal_norm=NAN),
    "LinearBallClass.radius": lambda: LinearBallClass(np.eye(2), NAN),
    "matrix_concentration_check.shift":
        lambda: matrix_concentration_check(np.eye(2), NAN, 12.0, 1),
    "matrix_concentration_check.alpha":
        lambda: matrix_concentration_check(np.eye(2), 0.0, NAN, 1),
    "contraction_check.lipschitz": lambda: contraction_check(
        FiniteVectorClass(np.eye(2)), [abs, abs], NAN, (1, 1), 10),
}


@pytest.mark.parametrize("make", NAN_PARAMETERS.values(), ids=NAN_PARAMETERS.keys())
def test_nan_parameters_raise(make):
    with pytest.raises(InvalidParameter):
        make()


INF = math.inf
INF_PARAMETERS = {  # radius = inf stays legal (test_infinite_radius_stays_legal)
    "SVRGConfig.step_size": lambda: SVRGConfig(step_size=INF, epoch_len=1, n_epochs=1),
    "FixedStep": lambda: FixedStep(INF),
    "InverseSqrtStep": lambda: InverseSqrtStep(INF),
    "StronglyConvexStep": lambda: StronglyConvexStep(INF),
    "RidgeProblem.alpha": lambda: RidgeProblem(random_dataset(4, 2, seed=1), alpha=INF),
    "LipschitzLinearProblem.alpha": lambda: LipschitzLinearProblem(
        random_dataset(4, 2, seed=1), "absolute", radius=1.0, alpha=INF),
    "GenSpec.noise": lambda: GenSpec(m=4, d=2, noise=INF),
    "matrix_concentration_check.shift":
        lambda: matrix_concentration_check(np.eye(2), INF, 12.0, 1),
    "matrix_concentration_check.alpha":
        lambda: matrix_concentration_check(np.eye(2), 0.0, INF, 1),
    "contraction_check.lipschitz": lambda: contraction_check(
        FiniteVectorClass(np.eye(2)), [abs, abs], INF, (1, 1), 10),
    "central_band_peak.empty": lambda: central_band_peak(np.zeros(0)),
    "linear_ball_bound.radius": lambda: linear_ball_bound(INF, (2, 2)),
    "LinearBallClass.radius": lambda: LinearBallClass(np.eye(2), INF),
    "GenSpec.signal_norm": lambda: GenSpec(m=4, d=1, signal_norm=INF),
}


@pytest.mark.parametrize("make", INF_PARAMETERS.values(), ids=INF_PARAMETERS.keys())
def test_infinite_parameters_raise(make):
    """An infinite weight, step constant, noise level, shift, threshold
    scale or Lipschitz constant (and an empty profile) is rejected up
    front, not met later as a LinAlgError, a NaN gap, a zero step, a
    DivergenceError, clipped labels or a check that cannot fail."""
    with pytest.raises(InvalidParameter):
        make()


SGD_1 = SGDConfig(n_steps=1, step_rule=FixedStep(0.1), radius=5.0)
SVRG_1 = SVRGConfig(step_size=0.1, epoch_len=1, n_epochs=1)
EYE_4 = FiniteVectorClass(np.eye(4))


def zero_values(prefix):
    return np.zeros(3)


NON_INTEGER_COUNTS = {
    "SGDConfig.n_steps": lambda: SGDConfig(n_steps=2.5, step_rule=FixedStep(0.1), radius=1.0),
    "SVRGConfig.epoch_len": lambda: SVRGConfig(step_size=0.1, epoch_len=2.5, n_epochs=1),
    "SVRGConfig.n_epochs": lambda: SVRGConfig(step_size=0.1, epoch_len=1, n_epochs=2.0),
    "average_suboptimality_over_seeds.n_seeds": lambda: average_suboptimality_over_seeds(
        random_ridge(4, 2, seed=1), SGD_1, 2.0),
    "run_svrg_over_streams.n_seeds":
        lambda: run_svrg_over_streams(random_ridge(4, 2, seed=1), SVRG_1, 2.0),
    "run_distributed_svrg.n_machines":
        lambda: run_distributed_svrg(random_ridge(4, 2, seed=1), 2.0, SVRG_1),
    "GenSpec.m": lambda: GenSpec(m=10.5, d=2),
    "shuffle.m": lambda: shuffle(5.0, Rng(1)),
    "Rng.seed float": lambda: Rng(1.5),
    "Rng.seed str": lambda: Rng("7"),
    "Rng.seed bool": lambda: Rng(True),
    "GenSpec.m bool": lambda: GenSpec(m=True, d=2),
    "shuffle.m bool": lambda: shuffle(True, Rng(1)),
    "enumerate_permutations.m bool": lambda: enumerate_permutations(True),
    "enumerate_permutations.m": lambda: enumerate_permutations(3.0),
    "permutation_identity_check.t": lambda: permutation_identity_check(3, 1.5, zero_values),
    "sqrt_sum_bound_scan.m_max": lambda: sqrt_sum_bound_scan(20.5),
    "matched_permutation.epoch_len": lambda: matched_permutation([np.arange(4)], 2.0, 1),
    "log_suboptimality_bound.epoch_len": lambda: log_suboptimality_bound(2.5, 2, 0.1),
    "rademacher_estimate.split": lambda: rademacher_estimate(EYE_4, (2.0, 2), 10),
    "contraction_check.mc_samples":
        lambda: contraction_check(FiniteVectorClass(np.eye(2)), [abs, abs], 1.0, (1, 1), 10.5),
    "matrix_concentration_check.trials":
        lambda: matrix_concentration_check(np.eye(2), 0.0, 12.0, 2.5),
}


@pytest.mark.parametrize("make", NON_INTEGER_COUNTS.values(), ids=NON_INTEGER_COUNTS.keys())
def test_non_integer_counts_and_seeds_raise(make):
    """Counts and seeds pass one integer check: no bool, float or string
    is truncated, parsed or read as 0 or 1, and none escapes as a raw
    numpy error."""
    with pytest.raises(InvalidParameter):
        make()


def test_numpy_integer_counts_stay_legal():
    one = np.int64(1)
    p = random_ridge(4, 2, seed=1)
    svrg = SVRGConfig(step_size=0.1, epoch_len=one, n_epochs=one, seed=one)
    assert run_distributed_svrg(p, np.int64(2), svrg)[1].rounds == 2
    assert len(run_svrg_over_streams(p, svrg, np.int64(2))) == 2
    sgd = SGDConfig(n_steps=np.int64(3), step_rule=FixedStep(0.1), radius=5.0)
    assert average_suboptimality_over_seeds(p, sgd, np.int64(2)).mean.shape == (3,)
    assert generate(GenSpec(m=np.int64(5), d=np.int64(2))).X.shape == (5, 2)
    assert sorted(shuffle(np.int64(5), Rng(np.int64(1), np.uint64(2)))) == list(range(5))
    three, two = np.int64(3), np.int64(2)
    assert len(list(enumerate_permutations(three))) == 6
    assert permutation_identity_check(three, two, zero_values) == (0.0, 0.0)
    assert sqrt_sum_bound_scan(np.int64(5)) <= 1.0
    assert matched_permutation([np.arange(4)], two, one).tolist() == [0, 1, 2, 3]
    assert log_suboptimality_bound(two, two, 0.1) == log_suboptimality_bound(2, 2, 0.1)
    assert rademacher_estimate(EYE_4, (two, two), np.int64(10)).n_samples == 10
    eye_2 = FiniteVectorClass(np.eye(2))
    assert contraction_check(eye_2, [abs, abs], 1.0, (one, one), np.int64(10)).lhs.n_samples == 10
    assert matrix_concentration_check(np.eye(2), 0.0, 12.0, two).violation_rate == 0.0


def test_infinite_radius_stays_legal():
    assert SGDConfig(n_steps=1, step_rule=FixedStep(0.1), radius=math.inf).radius == math.inf
    assert LipschitzLinearProblem(random_dataset(4, 2, seed=1), "absolute",
                                  radius=math.inf).radius == math.inf


@pytest.mark.parametrize("kind", ["absolute", "hinge"])
def test_infinite_ball_without_regularizer_fails_fast(kind):
    """At alpha = 0 on an infinite ball the bounds drop the regularizer
    instead of reading 0 * inf = NaN, and the reference solve raises before
    its first ADMM iteration: no duality gap can certify there."""
    data = random_dataset(40, 3, seed=5, label_scale=0.9)
    p = LipschitzLinearProblem(data, kind, radius=math.inf)
    assert p.grad_bound == p.lipschitz > 0
    assert p.loss_bound == math.inf
    with mock.patch.object(problem_module, "_prox") as prox:
        with pytest.raises(InvalidParameter, match="alpha > 0 or a finite radius"):
            p.wstar
    prox.assert_not_called()
    # all-zero labels: every hinge loss is 1
    zero = LipschitzLinearProblem(Dataset(X=data.X, y=np.zeros(40)), "hinge", radius=math.inf)
    assert (zero.grad_bound, zero.loss_bound) == (0.0, 1.0)
    regularized = LipschitzLinearProblem(data, kind, radius=math.inf, alpha=0.1)
    assert regularized.grad_bound == regularized.loss_bound == math.inf


def test_dataset_checks_hold_no_full_size_temporary():
    X = Rng(4, 0).normal(50_000 * 20).reshape(50_000, 20)
    X /= np.linalg.norm(X, axis=1).max()
    y = np.zeros(50_000)
    tracemalloc.start()
    try:
        Dataset(X=X, y=y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * X.nbytes


def test_regularization_dominance_shrinks_minimizer():
    data = random_dataset(20, 4, seed=1)
    norms = [
        np.linalg.norm(RidgeProblem(data, alpha=a).wstar)
        for a in (0.05, 0.1, 0.5, 1.0, 10.0, 1000.0)
    ]
    assert all(a >= b for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 1e-3


class TestGradientOracle:
    def test_finite_difference_ridge(self):
        rng = Rng(77, 0)
        checked = 0
        for trial in range(100):
            p = random_ridge(6, 3, seed=trial % 7, alpha=0.1 + 0.2 * (trial % 3))
            w = rng.normal(3)
            i = int(rng.below(p.m))
            g = p.point_gradient(i, w)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (p.point_loss(i, w + e) - p.point_loss(i, w - e)) / (2 * h)
                assert fd == pytest.approx(g[k], rel=1e-5, abs=1e-7)
            checked += 1
        assert checked == 100

    @pytest.mark.parametrize("kind", ["absolute", "hinge"])
    def test_finite_difference_kinked(self, kind):
        rng = Rng(78, 0)
        data = random_dataset(8, 3, seed=5)
        p = LipschitzLinearProblem(data, kind, radius=3.0, alpha=0.05)
        done = 0
        while done < 40:
            w = rng.normal(3)
            i = int(rng.below(p.m))
            z = float(data.X[i] @ w)
            margin = abs(z - data.y[i]) if kind == "absolute" else abs(1 - data.y[i] * z)
            if margin < 1e-3:  # too close to the kink for central differences
                continue
            g = p.point_gradient(i, w)
            h = 1e-6
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd = (p.point_loss(i, w + e) - p.point_loss(i, w - e)) / (2 * h)
                assert fd == pytest.approx(g[k], rel=1e-5, abs=1e-7)
            done += 1

    def test_kink_subgradient_is_zero_slope(self):
        data = Dataset(X=np.array([[1.0, 0.0]]), y=np.array([1.0]))
        hinge = LipschitzLinearProblem(data, "hinge", radius=2.0)
        # margin exactly zero at w = (1, 0)
        assert np.allclose(hinge.point_gradient(0, [1.0, 0.0]), [0.0, 0.0])
        absolute = LipschitzLinearProblem(data, "absolute", radius=2.0)
        assert np.allclose(absolute.point_gradient(0, [1.0, 0.0]), [0.0, 0.0])

    @pytest.mark.parametrize("kind", ["squared", "absolute", "hinge"])
    def test_slope_into_out_keeps_the_bits(self, kind):
        rng = Rng(80, 0)
        z = np.concatenate([rng.normal(40), [1.0, -1.0, 0.5, 0.0]])
        y = np.concatenate([np.clip(rng.normal(40), -1, 1), [1.0, -1.0, 0.5, 2.0]])
        out = np.full_like(z, np.nan)
        got = _SLOPES[kind](z, y, out)
        assert got is out
        assert out.tobytes() == _SLOPES[kind](z, y).tobytes()


class TestGramGradient:
    """The ridge gradient H w - b agrees with the mean of the per-point
    gradient rows to rounding."""

    def test_matches_pairwise_row_mean(self):
        rng = Rng(79, 0)
        for trial in range(30):
            m, d = 20 + 37 * trial, 1 + trial % 9
            p = random_ridge(m, d, seed=100 + trial, alpha=0.05 + 0.1 * (trial % 4))
            w = (1.0 + trial) * rng.normal(d)
            rows = fsum_row_mean(p.point_gradient_rows(w))
            gram = p.full_gradient(w)
            tol = 1e-14 * (1.0 + np.linalg.norm(w))
            assert np.abs(gram - rows).max() <= tol

    def test_vanishes_at_minimizer(self):
        for trial in range(10):
            p = random_ridge(50 + 31 * trial, 2 + trial % 6, seed=200 + trial, alpha=0.1)
            assert np.linalg.norm(p.full_gradient(p.wstar)) <= 1e-12


class TestQuadraticStructure:
    def test_quadratic_identity(self):
        # F(w) - F(w*) equals the curvature form to 1e-10 relative.
        p = random_ridge(25, 4, seed=3, alpha=0.2)
        rng = Rng(5, 0)
        for _ in range(20):
            w = 2.0 * rng.normal(4)
            direct = p.full_objective(w) - p.fstar
            quad = p.suboptimality(w)
            assert direct == pytest.approx(quad, rel=1e-10, abs=1e-14)

    def test_convexity(self):
        p = random_ridge(15, 3, seed=9, alpha=0.1)
        rng = Rng(6, 0)
        for _ in range(25):
            w1, w2 = rng.normal(3), rng.normal(3)
            theta = float(rng.uniform(1)[0])
            mix = p.full_objective(theta * w1 + (1 - theta) * w2)
            assert mix <= theta * p.full_objective(w1) + (1 - theta) * p.full_objective(w2) + 1e-12

    def test_strong_convexity_bracket(self):
        p = random_ridge(30, 4, seed=2, alpha=0.15)
        lam, mu = p.strong_convexity, p.smoothness
        rng = Rng(7, 0)
        for _ in range(25):
            w = 1.5 * rng.normal(4)
            gap = p.full_objective(w) - p.fstar
            dist2 = float(np.sum((w - p.wstar) ** 2))
            assert lam / 2 * dist2 <= gap + 1e-10
            assert gap <= mu / 2 * dist2 + 1e-10


SUM_ORDER_LENGTHS = [*range(1, 10), 127, 128, 129, 255, 256, 1999, 2000, 8193, 100_003]


class TestNumpySumOrder:
    """``np.add.reduce`` along a contiguous row sums in the order that
    README documents and ``straight_row_sum`` ports, bit for bit; a numpy
    release that moves the order fails here instead of moving F."""

    @pytest.mark.parametrize("n", SUM_ORDER_LENGTHS)
    def test_rows_match_the_port(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
        assert np.add.reduce(v).tobytes() == np.float64(straight_row_sum(v)).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 129])
    def test_signed_zeros(self, n):
        rng = np.random.default_rng(n)
        for v in (np.full(n, -0.0), rng.choice([0.0, -0.0], size=n),
                  np.where(rng.random(n) < 0.5, -0.0, rng.standard_normal(n))):
            assert np.add.reduce(v).tobytes() == np.float64(straight_row_sum(v)).tobytes()

    @pytest.mark.parametrize("m", [5, 8, 127, 129, 2000, 8193])
    def test_padded_block_rows(self, m):
        """The rows of a (rows, m + 8)[:, :m] view, as ``full_objective``
        reduces its padded products."""
        rng = np.random.default_rng(m)
        block = np.abs(rng.standard_normal((5, m + 8)))[:, :m]
        sums = np.add.reduce(block, axis=1)
        for k in range(5):
            assert sums[k].tobytes() == np.float64(straight_row_sum(block[k])).tobytes()

    def test_depths(self):
        assert [numpy_sum_depth(m) for m in (1, 5, 61, 400, 2000)] == [0, 4, 14, 17, 22]


class TestLipschitzProblem:
    def test_derived_constants(self):
        data = random_dataset(10, 3, seed=4, label_scale=0.8)
        ymax = np.abs(data.y).max()
        p_abs = LipschitzLinearProblem(data, "absolute", radius=2.0, alpha=0.1)
        assert p_abs.lipschitz == 1.0
        assert p_abs.grad_bound == pytest.approx(1.0 + 0.1 * 2.0)
        p_h = LipschitzLinearProblem(data, "hinge", radius=2.0)
        assert p_h.lipschitz == pytest.approx(ymax)

    @pytest.mark.parametrize("kind", ["squared", "logistic"])
    def test_only_the_kinked_kinds(self, kind):
        """The squared loss is RidgeProblem's; the error names both kinds and it."""
        data = random_dataset(10, 3, seed=4)
        with pytest.raises(InvalidParameter, match="'absolute' or 'hinge'.*RidgeProblem"):
            LipschitzLinearProblem(data, kind, radius=2.0)

    def test_loss_bound_holds_on_ball(self):
        data = random_dataset(12, 3, seed=6, label_scale=0.9)
        rng = Rng(10, 0)
        for kind in ("absolute", "hinge"):
            p = LipschitzLinearProblem(data, kind, radius=1.5, alpha=0.2)
            for _ in range(50):
                w = rng.normal(3)
                w *= 1.5 * float(rng.uniform(1)[0]) / np.linalg.norm(w)
                vals = np.abs(p.point_losses(w))
                assert vals.max() <= p.loss_bound + 1e-12

    def test_reference_median_oracle(self):
        # d=1 absolute loss with unit features: the minimizer is the median.
        y = np.array([-0.8, -0.2, 0.1, 0.3, 0.9])
        p = LipschitzLinearProblem(
            Dataset(X=np.ones((5, 1)), y=y), "absolute", radius=5.0
        )
        w = p.wstar
        assert abs(p.full_objective(w) - p.full_objective([0.1])) < 1e-10

    @pytest.mark.parametrize("kind", ["absolute", "hinge"])
    def test_reference_beats_random_probes(self, kind):
        data = random_dataset(30, 3, seed=12, label_scale=0.9)
        p = LipschitzLinearProblem(data, kind, radius=8.0, alpha=0.05)
        fstar = p.fstar
        rng = Rng(13, 0)
        for _ in range(300):
            direction = rng.normal(3)
            direction /= np.linalg.norm(direction)
            for eps in (1e-5, 1e-3, 0.1, 1.0):
                assert p.full_objective(p.wstar + eps * direction) >= fstar - 1e-9

    def test_reference_requires_ball_to_contain_optimum(self):
        data = random_dataset(10, 2, seed=14)
        p = LipschitzLinearProblem(data, "absolute", radius=1e-4, alpha=0.01)
        with pytest.raises(InvalidParameter):
            _ = p.wstar

    def test_suboptimality_nonnegative(self):
        data = random_dataset(15, 3, seed=15)
        p = LipschitzLinearProblem(data, "absolute", radius=5.0, alpha=0.1)
        rng = Rng(14, 0)
        for _ in range(20):
            assert p.suboptimality(rng.normal(3)) >= -1e-12


def certified(p):
    """The certificate's own promise: gap <= 1e-13 max(1, |F|)."""
    return p.reference_gap <= 1e-13 * max(1.0, abs(p.fstar))


def ball_points(rng, n, d, radius):
    W = rng.standard_normal((n, d))
    W *= radius * rng.uniform(size=(n, 1)) ** (1.0 / d) / np.linalg.norm(W, axis=1, keepdims=True)
    return W


class TestCertifiedReference:
    def test_median_oracle_within_gap(self):
        y = np.array([-0.8, -0.2, 0.1, 0.3, 0.9])
        p = LipschitzLinearProblem(Dataset(X=np.ones((5, 1)), y=y), "absolute", radius=5.0)
        assert p.full_objective(p.wstar) - p.full_objective([0.1]) <= p.reference_gap
        assert certified(p)

    def test_hinge_without_regularization_certifies(self):
        # Adapting rho for ever makes this solve oscillate; the freeze certifies it.
        p = LipschitzLinearProblem(random_dataset(40, 3, seed=3, label_scale=0.9), "hinge",
                                   radius=8.0)
        assert certified(p)

    @pytest.mark.parametrize("kind, m, seed", [("absolute", 30, 12), ("hinge", 60, 32)])
    def test_certifies_within_budget(self, kind, m, seed):
        # Two cases in one budget.  With the active-set polish the solve
        # certifies after 20 and 10 iterations.  With the polish patched
        # out, ADMM's own multiplier must certify, after 430 and 200:
        # balancing keeps the multiplier rho*u, whereas rescaling rho alone
        # restarts the dual, and ADMM then needs over 2,000 iterations.
        data = random_dataset(m, 3, seed=seed, label_scale=0.9)
        p = LipschitzLinearProblem(data, kind, radius=8.0, alpha=0.05)
        _, fw, gap = _certified_minimizer(p, 1e-13, 1_000)
        assert gap <= 1e-13 * max(1.0, abs(fw))
        with mock.patch.object(problem_module, "_polish", return_value=None) as polish:
            _, fw, gap = _certified_minimizer(p, 1e-13, 1_000)
        assert polish.called
        assert gap <= 1e-13 * max(1.0, abs(fw))

    def test_uncertified_solve_raises(self):
        # A budget short of the first gap check certifies nothing.
        p = LipschitzLinearProblem(random_dataset(30, 3, seed=12, label_scale=0.9), "absolute",
                                   radius=8.0, alpha=0.05)
        with pytest.raises(InvalidParameter, match="did not reach"):
            _certified_minimizer(p, problem_module.REFERENCE_TOL,
                                 problem_module.ADMM_CHECK_EVERY - 1)

    def test_unpolishable_solve_raises(self):
        # The alpha = 0 hinge instance whose active set the split variable
        # does not guess: its checks and polishes run and fail, and it stays
        # uncertified even at 50,000 iterations.
        p = LipschitzLinearProblem(random_dataset(195, 3, seed=423181, label_scale=0.9),
                                   "hinge", radius=15.0)
        with pytest.raises(InvalidParameter, match="did not reach"):
            _certified_minimizer(p, problem_module.REFERENCE_TOL, 200)

    @pytest.mark.parametrize("seed", [7, 42, 2024])
    def test_kinked_benchmark_shape_certifies_in_500(self, seed):
        # The sgd_kinked workload's problem: plain ADMM needs about 1,100
        # iterations, the active-set polish certifies within 500.
        spec = GenSpec(m=2000, d=20, spectrum="geometric", decay=0.7, noise=0.2,
                       signal_norm=0.8, seed=seed)
        p = LipschitzLinearProblem(generate(spec), "absolute", radius=4.0, alpha=0.05)
        _, fw, gap = _certified_minimizer(p, problem_module.REFERENCE_TOL, 500)
        assert gap <= problem_module.REFERENCE_TOL * max(1.0, abs(fw))


CERTIFY_BUDGET = 50_000  # iterations; of 450 draws, alpha >= 0.01 took at most 470, alpha = 0 ~20k


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["absolute", "hinge"]),
    alpha=st.sampled_from([0.0, 0.01, 0.05]),
    d=st.integers(1, 5),
    m=st.integers(5, 300),
    seed=st.integers(0, 10**6),
)
def test_certificate_bounds_the_objective_on_the_ball(kind, alpha, d, m, seed):
    """The gap meets its tolerance, and every dual value it rests on lies
    below F on the ball: the solver's own and any multiplier's."""
    radius = 15.0  # holds every minimizer when alpha >= 0.01 (F(0) <= 1)
    data = random_dataset(m, d, seed, label_scale=0.9)
    p = LipschitzLinearProblem(data, kind, radius=radius, alpha=alpha)
    rng = np.random.default_rng(seed)
    W = ball_points(rng, 40, d, radius)
    F = p.full_objective(W)
    try:
        _, fw, gap = _certified_minimizer(p, 1e-13, CERTIFY_BUDGET)
    except InvalidParameter as err:
        # At alpha = 0 the problem is a linear program: its minimizer may
        # leave the ball, and ADMM's tail leaves some draws uncertified
        # after tens of thousands of iterations; it must then say so.
        assert alpha == 0.0, err
    else:
        assert gap <= 1e-13 * max(1.0, abs(fw))
        lower = fw - gap  # D(a) at the certifying projected multiplier
        assert np.all(lower <= F)
    # Multipliers far outside the conjugate's domain along the null space of
    # X^T: unprojected, one sign makes D grow without bound.
    null = data.y - data.X @ np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    for a in (10.0 * m * null, -10.0 * m * null, 3.0 * rng.standard_normal(m)):
        assert np.all(_dual_objective(p, a) <= F)


BLOCK_M = 400  # LOSS_CHUNK // BLOCK_M rows per chunk, so a block of 300 spans chunks
KINKED_M = 2000  # the kinked benchmark's m
KINKED_ROWS = LOSS_CHUNK // KINKED_M  # rows per chunk at KINKED_M; rows + 1 ends on one row
# GEMM rows keep their one-point bits only when m is a multiple of 8 (README),
# and the hypothesis range n <= 300 must reach a second chunk.
assert BLOCK_M % 8 == 0 and KINKED_M % 8 == 0
assert LOSS_CHUNK // BLOCK_M < 300


@functools.lru_cache(maxsize=None)
def block_problem(kind, d, m=BLOCK_M):
    data = random_dataset(m, d, seed=d)
    if kind == "ridge":
        return RidgeProblem(data, alpha=0.1)
    return LipschitzLinearProblem(data, kind, radius=10.0, alpha=0.1)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "absolute", "hinge"]),
    d=st.sampled_from([1, 3, 9, 20]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32),
    m=st.just(BLOCK_M),
)
@example(kind="absolute", d=3, n=2 * (LOSS_CHUNK // BLOCK_M) + 1, seed=0, m=BLOCK_M)
@example(kind="absolute", d=20, n=1, seed=1, m=KINKED_M)
@example(kind="absolute", d=20, n=2, seed=2, m=KINKED_M)
@example(kind="absolute", d=20, n=KINKED_ROWS, seed=3, m=KINKED_M)
@example(kind="absolute", d=20, n=KINKED_ROWS + 1, seed=4, m=KINKED_M)
@example(kind="absolute", d=20, n=2 * KINKED_ROWS + 1, seed=5, m=KINKED_M)
# Folded labels (more rows than one chunk) and the hinge's zero column.
@example(kind="ridge", d=20, n=2 * KINKED_ROWS + 1, seed=6, m=KINKED_M)
@example(kind="ridge", d=20, n=2 * KINKED_ROWS + 1, seed=7, m=KINKED_M)
@example(kind="hinge", d=20, n=2 * KINKED_ROWS + 1, seed=8, m=KINKED_M)
def test_block_rows_match_one_point_formulas(kind, d, n, seed, m):
    """Each row of a block evaluation has the bits of the one-point formula,
    a one-row tail chunk included."""
    p = block_problem(kind, d, m)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 4, size=(n, 1))
    W[0] = p.wstar
    objective, subopt = p.full_objective(W), p.suboptimality(W)
    assert objective.shape == subopt.shape == (n,)
    for k in range(n):
        assert objective[k] == straight_objective(p, W[k])
        assert subopt[k] == straight_suboptimality(p, W[k])
    assert p.full_objective(W[-1]) == objective[-1]
    assert p.suboptimality(W[-1]) == subopt[-1]
    assert type(p.suboptimality(W[-1])) is float


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "absolute", "hinge"]),
    d=st.sampled_from([1, 3, 9, 20]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32),
    m=st.sampled_from([5, 61, 300, 1999]),
)
@example(kind="absolute", d=3, n=2 * (LOSS_CHUNK // 300) + 1, seed=0, m=300)
@example(kind="ridge", d=20, n=2 * (LOSS_CHUNK // 1999) + 1, seed=1, m=1999)
@example(kind="hinge", d=9, n=2 * (LOSS_CHUNK // 1999) + 1, seed=2, m=1999)
def test_block_rows_match_one_point_calls_off_the_tile(kind, d, n, seed, m):
    """At an m that is not a multiple of 8 each row of a block has the bits
    of its own one-point call, however many chunks the block spans."""
    p = block_problem(kind, d, m)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 4, size=(n, 1))
    objective = p.full_objective(W)
    for k in range(n):
        assert objective[k] == p.full_objective(W[k])


def test_block_shape_errors(unit_axes_problem):
    p = unit_axes_problem
    assert p.suboptimality(np.zeros((0, 2))).shape == (0,)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(DimensionMismatch):
            p.suboptimality(bad)
        with pytest.raises(DimensionMismatch):
            p.full_objective(bad)


def test_block_objective_holds_chunks_not_the_block():
    """A block evaluation holds a few chunks of losses and a few n-vectors;
    the whole (n, m) loss matrix here would be about 305 MiB."""
    p = block_problem("absolute", 20, KINKED_M)
    n = 20_000
    W = 0.3 * np.random.default_rng(0).standard_normal((n, 20))
    tracemalloc.start()
    try:
        p.full_objective(W)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * LOSS_CHUNK + 3 * 8 * n


# 1 is the two-row minimum; 1 << 16, the former LOSS_CHUNK, holds 32 rows at KINKED_M.
CHUNK_SIZES = sorted({1, 1 << 14, LOSS_CHUNK, 1 << 16})


@pytest.mark.parametrize("kind", ["absolute", "hinge", "ridge"])
def test_loss_chunk_keeps_every_bit(kind):
    """Each row of a block keeps the bits of its one-point call whatever
    the chunk height, the block spanning several chunks and ending on a
    one-row tail at each."""
    p = block_problem(kind, 20, KINKED_M)
    n = 3 * (max(CHUNK_SIZES) // KINKED_M) + 1
    W = 0.3 * np.random.default_rng(9).standard_normal((n, 20))
    want = [p.full_objective(w) for w in W]
    for chunk in CHUNK_SIZES:
        rows = max(2, chunk // KINKED_M)
        assert n % rows == 1 and n > 2 * rows
        with mock.patch.object(problem_module, "LOSS_CHUNK", chunk):
            got = p.full_objective(W)
        assert got.tolist() == want


def test_one_point_calls_off_the_tile_fold_once():
    """At an m off the GEMM tile every call folds the labels into the
    product, a one-point call too; the problem builds that (d+1, m8)
    operand once, so a second call copies no X."""
    p = LipschitzLinearProblem(random_dataset(1999, 20, seed=5), "absolute", radius=10.0)
    w = np.full(20, 0.1)
    operand_bytes = 8 * 21 * 2000  # (d+1, m8) float64
    first = p.full_objective(w)
    tracemalloc.start()
    try:
        second = p.full_objective(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first
    assert peak < operand_bytes // 4


UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def objective_rounding_bound(p, w):
    """A bound on |computed F(w) - F(w)| that holds for any summation order
    of the predictions' dot products (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002).

    * Predictions, §3.1 (3.5): |z^_i - z_i| <= gamma_d s_i with
      s_i = sum_k |x_ik w_k|, so the loss moves by at most L_i gamma_d s_i,
      L_i its Lipschitz constant between z^_i and z_i.
    * Loss, the standard model (2.4), one rounding per operation: e_i below.
    * numpy's pairwise sum of the losses then the division by m, §4.2
      (4.6) and Lemma 3.3: gamma_{D+1} times the mean loss, D =
      ``numpy_sum_depth(m)`` the most additions any loss passes through.
    * The regularizer rho = (alpha/2)||w||^2, gamma_{d+1} rho, and its sum
      with the mean, u.  The same terms bound the sum of loss and
      regularizer per point before the sum, as ``point_losses`` adds them.

    Two evaluations that differ only in how they sum the dot products are
    each within this bound of F(w), so they are within twice it of each
    other.  The prediction term alone is not a bound on their difference:
    rounding is not Lipschitz, so predictions a few ulps apart may round a
    loss, or a partial sum, to neighbouring floats.
    """
    X, y = p.data.X, p.data.y
    d, m = p.d, p.m
    # The computed sum of nonnegative terms may fall short by gamma_d.
    s = (np.abs(X) @ np.abs(w)) / (1 - gamma(d))
    zhat = X @ w
    # Either evaluation's prediction and the exact z lie within 2 gamma_d s of zhat.
    r = np.abs(zhat - y) + 2 * gamma(d) * s  # bounds |t - y| there
    q = np.abs(zhat) + 2 * gamma(d) * s  # bounds |t| there
    if p.kind == "absolute":
        lip, loss, e = 1.0, r, UNIT_ROUNDOFF * r
    elif p.kind == "hinge":
        lip, loss, e = np.abs(y), 1.0 + np.abs(y) * q, gamma(2) * (1.0 + np.abs(y) * q)
    else:
        lip, loss, e = r, 0.5 * r * r, gamma(3) * 0.5 * r * r
    rho = 0.5 * p.alpha * float(w @ w)
    upper = (loss + e + (1 + gamma(d + 1)) * rho) * (1 + UNIT_ROUNDOFF)  # >= each computed loss
    depth = numpy_sum_depth(m)
    per_point = lip * gamma(d) * s + e + gamma(d + 1) * rho + gamma(1) * upper
    return 2 * (np.mean(per_point) + gamma(depth + 1) * np.mean(upper))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "absolute", "hinge"]),
    m=st.sampled_from([1, 5, 61, 400, 2000]),
    d=st.sampled_from([1, 3, 9, 20]),
    seed=st.integers(0, 2**32),
)
@example(kind="absolute", m=KINKED_M, d=20, seed=0)
def test_objective_differs_from_point_losses_only_by_rounding(kind, m, d, seed):
    """The matrix-product objective and the matrix-vector one agree to
    within the rounding bound; they need not agree bit for bit.  The
    squared loss runs on RidgeProblem."""
    p = block_problem(kind, d, m)
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((8, d)) * 10.0 ** rng.integers(-6, 4, size=(8, 1))
    for w, value in zip(W, p.full_objective(W)):
        gemv_value = float(np.add.reduce(p.point_losses(w)) / m)
        assert abs(value - gemv_value) <= objective_rounding_bound(p, w)
