import numpy as np
import pytest

from shufflegrad import (
    Dataset,
    FixedStep,
    InverseSqrtStep,
    LipschitzLinearProblem,
    RidgeProblem,
    SGDConfig,
    StronglyConvexStep,
    average_suboptimality_over_seeds,
    run_sgd,
    suboptimality_decomposition_check,
)
from shufflegrad.errors import DivergenceError, InvalidParameter
from conftest import random_dataset, random_ridge


def config_for(problem, T, sampler="single_shuffle", seed=0, radius=None, rule=None):
    return SGDConfig(
        n_steps=T,
        step_rule=rule or StronglyConvexStep(problem.strong_convexity),
        radius=radius or 2.0 * max(1.0, float(np.linalg.norm(problem.wstar))),
        sampler=sampler,
        seed=seed,
    )


class TestSingleRun:
    def test_hand_step(self, unit_axes_problem):
        # lambda = 1 so eta_1 = 2; from w_1 = 0 one step lands on (2, 0),
        # exactly on the radius-2 ball.
        cfg = SGDConfig(
            n_steps=2, step_rule=StronglyConvexStep(1.0), radius=2.0, seed=0
        )
        trace = run_sgd(unit_axes_problem, cfg, sigma=[0, 1], collect_iterates=True)
        assert np.allclose(trace.iterates[0], [0.0, 0.0])
        assert np.allclose(trace.iterates[1], [2.0, 0.0])

    def test_t1_average_is_origin(self, unit_axes_problem):
        cfg = SGDConfig(n_steps=1, step_rule=StronglyConvexStep(1.0), radius=2.0)
        trace = run_sgd(unit_axes_problem, cfg, sigma=[0])
        assert np.allclose(trace.average_iterate, [0.0, 0.0])
        assert trace.suboptimality[0] == pytest.approx(0.125, abs=1e-12)
        assert trace.gradient_evals == 1

    def test_zero_steps_forbidden(self, unit_axes_problem):
        with pytest.raises(InvalidParameter):
            SGDConfig(n_steps=0, step_rule=FixedStep(0.1), radius=1.0)

    def test_deterministic_across_runs(self):
        p = random_ridge(40, 3, seed=1)
        cfg = config_for(p, 30, sampler="with_replacement", seed=7)
        a = run_sgd(p, cfg)
        b = run_sgd(p, cfg)
        assert np.array_equal(a.suboptimality, b.suboptimality)
        assert a.regret == b.regret
        assert np.all(a.suboptimality >= -1e-10)

    def test_projection_keeps_ball(self):
        p = random_ridge(30, 3, seed=2, alpha=0.05)
        radius = max(1.0, float(np.linalg.norm(p.wstar)) + 0.1)
        cfg = config_for(p, 30, radius=radius)
        trace = run_sgd(p, cfg, collect_iterates=True)
        norms = np.linalg.norm(trace.iterates, axis=1)
        assert norms.max() <= radius + 1e-12

    def test_radius_must_cover_minimizer(self):
        p = random_ridge(30, 3, seed=3, alpha=0.01, label_scale=1.0)
        tiny = 0.25 * float(np.linalg.norm(p.wstar))
        with pytest.raises(InvalidParameter):
            run_sgd(p, config_for(p, 5, radius=tiny))

    def test_single_shuffle_requires_T_at_most_m(self):
        p = random_ridge(10, 2, seed=4)
        with pytest.raises(InvalidParameter):
            run_sgd(p, config_for(p, 11))

    def test_non_finite_iterate_reports_its_step(self):
        p = random_ridge(30, 3, seed=4)
        cfg = config_for(p, 10, rule=FixedStep(float("inf")))
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
            run_sgd(p, cfg)
        assert info.value.step == 1
        assert info.value.epoch is None and info.value.bound is None

    def test_average_iterate_jensen(self):
        # F(average of iterates) <= average of F(iterates) + 1e-10.
        p = random_ridge(50, 4, seed=5)
        cfg = config_for(p, 50, seed=3)
        trace = run_sgd(p, cfg, collect_iterates=True)
        for t in (1, 10, 50):
            avg = trace.iterates[:t].mean(axis=0)
            f_avg = p.full_objective(avg)
            mean_f = np.mean([p.full_objective(w) for w in trace.iterates[:t]])
            assert f_avg <= mean_f + 1e-10

    def test_suffix_averaging_window(self):
        # suffix mode reports the mean of the last ceil(t/2) iterates
        p = random_ridge(30, 3, seed=21, alpha=0.2)
        cfg = config_for(p, 12, seed=6)
        suffix_cfg = SGDConfig(
            n_steps=12, step_rule=cfg.step_rule, radius=cfg.radius,
            sampler=cfg.sampler, averaging="suffix_half", seed=6,
        )
        plain = run_sgd(p, cfg, collect_iterates=True)
        suffix = run_sgd(p, suffix_cfg)
        for t in (1, 2, 5, 12):
            window = (t + 1) // 2
            manual = plain.iterates[t - window : t].mean(axis=0)
            assert suffix.suboptimality[t - 1] == pytest.approx(
                p.suboptimality(manual), rel=1e-12, abs=1e-15
            )
        assert np.allclose(
            suffix.average_iterate, plain.iterates[6:].mean(axis=0), atol=1e-12
        )

    def test_regret_measurement(self, unit_axes_problem):
        p = unit_axes_problem
        cfg = SGDConfig(n_steps=2, step_rule=StronglyConvexStep(1.0), radius=2.0)
        trace = run_sgd(p, cfg, sigma=[0, 1], collect_iterates=True)
        expected = sum(
            p.point_loss(i, trace.iterates[t]) - p.point_loss(i, p.wstar)
            for t, i in enumerate([0, 1])
        )
        assert trace.regret == pytest.approx(expected, abs=1e-12)


class TestSeedAveraging:
    def test_mean_decreases_with_replacement(self):
        p = random_ridge(300, 4, seed=6, alpha=0.3)
        cfg = config_for(p, 300, sampler="with_replacement", seed=1)
        summary = average_suboptimality_over_seeds(p, cfg, n_seeds=30)
        early = summary.mean[9]
        late = summary.mean[-1]
        se = np.hypot(summary.stderr[9], summary.stderr[-1])
        assert late <= early + 2 * se
        assert late < early

    def test_single_seed_has_no_stderr(self):
        p = random_ridge(20, 2, seed=7)
        summary = average_suboptimality_over_seeds(p, config_for(p, 10), n_seeds=1)
        assert summary.stderr is None
        assert summary.n_seeds == 1

    def test_without_replacement_comparable_at_full_pass(self):
        # Within a factor of 3 of the with-replacement mean at T = m.
        p = random_ridge(400, 4, seed=9, alpha=0.25)
        T = 400
        wor = average_suboptimality_over_seeds(
            p, config_for(p, T, sampler="single_shuffle", seed=2), n_seeds=40
        )
        wr = average_suboptimality_over_seeds(
            p, config_for(p, T, sampler="with_replacement", seed=2), n_seeds=40
        )
        assert wor.mean[-1] <= 3.0 * wr.mean[-1]

    def test_rate_slope_small_benchmark(self):
        p = random_ridge(2048, 6, seed=10, alpha=0.1)
        cfg = config_for(p, 2048, seed=4)
        summary = average_suboptimality_over_seeds(p, cfg, n_seeds=40)
        grid = np.array([64, 256, 1024, 2048])
        slope = np.polyfit(np.log10(grid), np.log10(summary.mean[grid - 1]), 1)[0]
        assert slope <= -0.8

    def test_inverse_sqrt_rate_on_absolute_loss(self):
        data = random_dataset(2048, 6, seed=11, label_scale=0.9)
        p = LipschitzLinearProblem(data, "absolute", radius=4.0, alpha=0.01)
        cfg = SGDConfig(
            n_steps=2048,
            step_rule=InverseSqrtStep(1.0),
            radius=4.0,
            sampler="single_shuffle",
            seed=5,
        )
        summary = average_suboptimality_over_seeds(p, cfg, n_seeds=25)
        grid = np.array([64, 256, 1024, 2048])
        slope = np.polyfit(np.log10(grid), np.log10(summary.mean[grid - 1]), 1)[0]
        assert slope <= -0.4


class TestDecomposition:
    def test_identity_on_random_instances(self):
        # Exact equality (to enumeration rounding) on 20 random problems.
        for trial in range(20):
            m = 3 + trial % 3
            p = random_ridge(m, 2, seed=trial, alpha=0.2 + 0.1 * (trial % 2))
            T = 1 + trial % m
            cfg = config_for(p, T)
            res = suboptimality_decomposition_check(p, cfg)
            assert res.lhs == pytest.approx(
                res.regret_term + res.prefix_suffix_term, abs=1e-10
            )

    def test_t1_prefix_suffix_term_zero(self):
        p = random_ridge(5, 2, seed=30)
        res = suboptimality_decomposition_check(p, config_for(p, 1))
        assert res.prefix_suffix_term == 0.0

    def test_constant_losses_vanish(self):
        # All-zero features and labels with no regularizer: every f_i = 0.
        data = Dataset(X=np.zeros((4, 2)), y=np.zeros(4))
        p = RidgeProblem(data, alpha=0.0)
        cfg = SGDConfig(n_steps=3, step_rule=FixedStep(0.5), radius=1.0)
        res = suboptimality_decomposition_check(p, cfg, wstar=np.zeros(2))
        assert res.lhs == pytest.approx(0.0, abs=1e-15)
        assert res.regret_term == pytest.approx(0.0, abs=1e-15)
        assert res.prefix_suffix_term == pytest.approx(0.0, abs=1e-15)

    def test_guard_on_large_m(self):
        p = random_ridge(8, 2, seed=31)
        with pytest.raises(InvalidParameter):
            suboptimality_decomposition_check(p, config_for(p, 2))

    def test_absolute_loss_identity(self):
        data = random_dataset(4, 2, seed=32, label_scale=0.8)
        p = LipschitzLinearProblem(data, "absolute", radius=6.0, alpha=0.05)
        cfg = SGDConfig(
            n_steps=3, step_rule=InverseSqrtStep(0.5), radius=6.0, seed=0
        )
        res = suboptimality_decomposition_check(p, cfg)
        assert res.lhs == pytest.approx(
            res.regret_term + res.prefix_suffix_term, abs=1e-10
        )
