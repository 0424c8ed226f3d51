import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflegrad import (
    Dataset,
    LipschitzLinearProblem,
    RidgeProblem,
    Rng,
    pairwise_mean,
    pairwise_sum,
    reference_minimizer,
)
from shufflegrad.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    SingularCurvature,
)
from shufflegrad import problem as problem_module
from shufflegrad.problem import LOSS_CHUNK, _admm, _certified_minimizer, _dual_objective
from conftest import random_dataset, random_ridge, straight_objective, straight_suboptimality


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
        w, f = unit_axes_problem.minimizer()
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
        got = problem_module._scalar_slope(kind, z, y, out=out)
        assert got is out
        assert out.tobytes() == problem_module._scalar_slope(kind, z, y).tobytes()


class TestGramGradient:
    """The ridge gradient H w - b agrees with the pairwise mean of the
    per-point gradient rows to rounding."""

    def test_matches_pairwise_row_mean(self):
        rng = Rng(79, 0)
        for trial in range(30):
            m, d = 20 + 37 * trial, 1 + trial % 9
            p = random_ridge(m, d, seed=100 + trial, alpha=0.05 + 0.1 * (trial % 4))
            w = (1.0 + trial) * rng.normal(d)
            rows = pairwise_mean(p.point_gradient_rows(w))
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


class TestPairwiseReduction:
    def test_matches_fsum(self):
        rng = Rng(8, 0)
        for n in [1, 2, 3, 5, 8, 13, 100, 1001]:
            v = rng.normal(n)
            assert pairwise_sum(v) == pytest.approx(math.fsum(v), rel=1e-14, abs=1e-14)

    def test_documented_tree_small(self):
        # ((a+b) + (c+d)) for four elements; ((a+b) + c) for three.
        a, b, c, d = 0.1, 0.2, 0.3, 0.4
        assert pairwise_sum(np.array([a, b, c, d])) == (a + b) + (c + d)
        assert pairwise_sum(np.array([a, b, c])) == (a + b) + c

    def test_axis0_on_matrices(self):
        rng = Rng(9, 0)
        rows = rng.normal(12).reshape(6, 2)
        out = pairwise_mean(rows)
        assert out.shape == (2,)
        assert np.allclose(out, rows.mean(axis=0), rtol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
    def test_close_to_numpy_sum(self, values):
        v = np.array(values)
        assert pairwise_sum(v) == pytest.approx(float(np.sum(v)), rel=1e-12, abs=1e-9)


class TestLipschitzProblem:
    def test_derived_constants(self):
        data = random_dataset(10, 3, seed=4, label_scale=0.8)
        ymax = np.abs(data.y).max()
        p_abs = LipschitzLinearProblem(data, "absolute", radius=2.0, alpha=0.1)
        assert p_abs.lipschitz == 1.0
        assert p_abs.grad_bound == pytest.approx(1.0 + 0.1 * 2.0)
        assert p_abs.smoothness is None
        p_h = LipschitzLinearProblem(data, "hinge", radius=2.0)
        assert p_h.lipschitz == pytest.approx(ymax)
        p_sq = LipschitzLinearProblem(data, "squared", radius=2.0, alpha=0.3)
        assert p_sq.lipschitz == pytest.approx(2.0 + ymax)
        assert p_sq.smoothness == pytest.approx(1.3)

    def test_loss_bound_holds_on_ball(self):
        data = random_dataset(12, 3, seed=6, label_scale=0.9)
        rng = Rng(10, 0)
        for kind in ("absolute", "hinge", "squared"):
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
        w = reference_minimizer(p)
        assert abs(p.full_objective(w) - p.full_objective([0.1])) < 1e-10

    def test_reference_squared_equals_ridge(self):
        data = random_dataset(20, 3, seed=11)
        p = LipschitzLinearProblem(data, "squared", radius=10.0, alpha=0.2)
        exact = RidgeProblem(data, alpha=0.2).wstar
        assert np.allclose(p.wstar, exact, atol=1e-12)

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


ROUNDING = 1e-15  # rounding of F(w) - D(a): two O(1) sums of m terms


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

    def test_admm_core_on_squared_loss_matches_ridge(self):
        # The squared loss has an exact path and an exact suboptimality (the
        # curvature form): the certificate must bound it, which pins w to
        # sqrt(2 gap / lambda) of the direct solve.  A gap of 1e-13 cannot
        # pin w to 1e-10: F is flat to second order at its minimizer.
        data = random_dataset(80, 4, seed=21)
        ridge = RidgeProblem(data, alpha=0.1)
        p = LipschitzLinearProblem(data, "squared", radius=10.0, alpha=0.1)
        w, fw, gap = _admm(p, 1e-13, 200_000)
        assert fw == p.full_objective(w) and gap <= 1e-13
        bound = gap + ROUNDING
        assert ridge.suboptimality(w) <= bound
        assert np.linalg.norm(w - ridge.wstar) <= math.sqrt(2.0 * bound / ridge.strong_convexity)
        assert -ROUNDING <= p.reference_gap <= 1e-13  # the direct path's certificate

    @pytest.mark.parametrize("kind, m, seed", [("absolute", 30, 12), ("hinge", 60, 32)])
    def test_certifies_within_budget(self, kind, m, seed):
        # 430 and 200 iterations.  Balancing keeps ADMM's multiplier rho*u;
        # rescaling rho alone restarts the dual, and these solves then need
        # over 2,000 iterations.
        data = random_dataset(m, 3, seed=seed, label_scale=0.9)
        p = LipschitzLinearProblem(data, kind, radius=8.0, alpha=0.05)
        _, fw, gap = _certified_minimizer(p, 1e-13, 1_000)
        assert gap <= 1e-13 * max(1.0, abs(fw))

    def test_uncertified_solve_raises(self):
        p = LipschitzLinearProblem(random_dataset(30, 3, seed=12, label_scale=0.9), "absolute",
                                   radius=8.0, alpha=0.05)
        with pytest.raises(InvalidParameter, match="did not reach"):
            reference_minimizer(p, max_iter=20)


CERTIFY_BUDGET = 50_000  # iterations; alpha >= 0.01 draws took at most ~15k


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
        lower = fw - gap  # D(a) at ADMM's projected multiplier
        assert np.all(lower <= F)
    # Multipliers far outside the conjugate's domain along the null space of
    # X^T: unprojected, one sign makes D grow without bound.
    null = data.y - data.X @ np.linalg.lstsq(data.X, data.y, rcond=None)[0]
    for a in (10.0 * m * null, -10.0 * m * null, 3.0 * rng.standard_normal(m)):
        assert np.all(_dual_objective(p, a) <= F)


BLOCK_M = 400  # LOSS_CHUNK // BLOCK_M rows per chunk, so a block of 300 spans chunks


@functools.lru_cache(maxsize=None)
def block_problem(kind, d):
    data = random_dataset(BLOCK_M, d, seed=d)
    if kind == "ridge":
        return RidgeProblem(data, alpha=0.1)
    return LipschitzLinearProblem(data, kind, radius=10.0, alpha=0.1)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["ridge", "squared", "absolute", "hinge"]),
    d=st.sampled_from([1, 3, 9, 20]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32),
)
@example(kind="absolute", d=3, n=2 * (LOSS_CHUNK // BLOCK_M) + 1, seed=0)
def test_block_rows_match_one_point_formulas(kind, d, n, seed):
    """Each row of a block evaluation has the bits of the one-point formula."""
    p = block_problem(kind, d)
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


def test_block_shape_errors(unit_axes_problem):
    p = unit_axes_problem
    assert p.suboptimality(np.zeros((0, 2))).shape == (0,)
    for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(DimensionMismatch):
            p.suboptimality(bad)
        with pytest.raises(DimensionMismatch):
            p.full_objective(bad)
