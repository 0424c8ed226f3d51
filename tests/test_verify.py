import itertools
import math
import tracemalloc

import numpy as np
import pytest

from shufflegrad import (
    FiniteVectorClass,
    LinearBallClass,
    Rng,
    central_band_peak,
    contraction_check,
    linear_ball_bound,
    matrix_concentration_check,
    permutation_identity_check,
    product_class_check,
    rademacher_estimate,
    sqrt_sum_bound_scan,
)
from shufflegrad.errors import DimensionMismatch, InvalidParameter, SingularCurvature
from shufflegrad import verify as verify_module
from shufflegrad.verify import normalized_outer_products, spectral_norms, ternary_signs
from conftest import random_ridge


def unit_rows(m, d, seed, stream=0):
    X = Rng(seed, stream).normal(m * d).reshape(m, d)
    return X / np.linalg.norm(X, axis=1)[:, None]


class TestPermutationIdentity:
    def test_fixed_values_are_symmetric(self):
        lhs, rhs = permutation_identity_check(3, 2, lambda prefix: np.array([1.0, 2.0, 3.0]))
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_first_draw_is_unbiased(self):
        lhs, rhs = permutation_identity_check(4, 1, lambda prefix: np.arange(4.0))
        assert lhs == 0.0 and rhs == 0.0

    def test_adaptive_rule(self):
        p = random_ridge(5, 2, seed=1, alpha=0.2)

        def rule(prefix):
            w = np.zeros(2)
            for idx in prefix:
                w = w - 0.3 * p.point_gradient(idx, w)
            return p.point_losses(w)

        lhs, rhs = permutation_identity_check(5, 3, rule)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("m, t", [(1, 1), (3, 1), (4, 2), (4, 4), (5, 3)])
    def test_matches_a_loop_over_permutations(self, m, t):
        # One call per distinct prefix, in lexicographic order; both sides
        # equal a plain loop over the m! permutations up to rounding.
        p = random_ridge(m, 2, seed=m + 10 * t, alpha=0.2)
        calls = []

        def rule(prefix):
            calls.append(prefix)
            w = np.zeros(2)
            for idx in prefix:
                w = w - 0.3 * p.point_gradient(idx, w)
            return p.point_losses(w)

        lhs, rhs = permutation_identity_check(m, t, rule)
        prefixes = sorted({sigma[: t - 1] for sigma in itertools.permutations(range(m))})
        assert calls == prefixes
        sums = np.zeros(2)
        for sigma in itertools.permutations(range(m)):
            s = rule(sigma[: t - 1])
            ordered = s[list(sigma)]
            gap = ordered[: t - 1].mean() - ordered[t - 1 :].mean() if t > 1 else 0.0
            sums += (s.mean() - s[sigma[t - 1]], (t - 1) / m * gap)
        n = math.factorial(m)
        assert (lhs, rhs) == pytest.approx((sums[0] / n, sums[1] / n), rel=1e-12, abs=1e-15)

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            permutation_identity_check(9, 1, lambda p: np.zeros(9))
        with pytest.raises(InvalidParameter):
            permutation_identity_check(4, 5, lambda p: np.zeros(4))
        with pytest.raises(DimensionMismatch):
            permutation_identity_check(3, 2, lambda p: np.zeros(5))


class TestTernarySigns:
    def test_distribution(self):
        r = ternary_signs(0.25, (200_000,), Rng(3, 0))
        assert set(np.unique(r)) <= {-1.0, 0.0, 1.0}
        assert abs((r == 1).mean() - 0.25) < 0.005
        assert abs((r == -1).mean() - 0.25) < 0.005

    def test_p_range(self):
        with pytest.raises(InvalidParameter):
            ternary_signs(0.0, (4,), Rng(0))
        with pytest.raises(InvalidParameter):
            ternary_signs(0.6, (4,), Rng(0))


class TestRademacherEstimate:
    def test_singleton_class_centers_on_zero(self):
        est = rademacher_estimate(FiniteVectorClass([[1.0, 1.0]]), (1, 1), 50_000, seed=4)
        assert abs(est.value) <= 3 * est.stderr

    def test_two_member_exact_enumeration(self):
        # Exact value by enumerating the 9 outcomes of (r1, r2).
        cls = FiniteVectorClass([[1.0, -1.0], [-1.0, 1.0]])
        p = 0.25  # s*u/(s+u)^2 at the split (1, 1)
        probs = {1: p, -1: p, 0: 1 - 2 * p}
        exact = sum(
            probs[a] * probs[b] * max(a - b, b - a)
            for a, b in itertools.product(probs, repeat=2)
        ) * (1.0 / 1 + 1.0 / 1)
        assert exact == pytest.approx(1.5)
        est = rademacher_estimate(cls, (1, 1), 200_000, seed=5)
        assert est.value == pytest.approx(exact, abs=3 * est.stderr)

    def test_linear_ball_closed_form_bound(self):
        X = unit_rows(100, 8, seed=6)
        est = rademacher_estimate(LinearBallClass(X, 1.0), (50, 50), 10_000, seed=7)
        bound = linear_ball_bound(1.0, (50, 50))
        assert bound == pytest.approx(0.4, abs=1e-12)
        assert est.value <= bound + 3 * est.stderr

    def test_rotation_invariance_with_shared_stream(self):
        X = unit_rows(40, 5, seed=8)
        rot, _ = np.linalg.qr(Rng(9, 0).normal(25).reshape(5, 5))
        a = rademacher_estimate(LinearBallClass(X, 1.0), (20, 20), 4000, seed=10)
        b = rademacher_estimate(LinearBallClass(X @ rot.T, 1.0), (20, 20), 4000, seed=10)
        assert a.value == pytest.approx(b.value, abs=1e-10)

    def test_memory_stays_below_one_sign_matrix(self):
        # 0.11.0 drew all (2000, 2000) signs at once and peaked at about
        # three such float64 matrices (95.4 MiB); its estimate on this
        # input was 0.060030479375327045.
        X = unit_rows(2000, 5, seed=11)
        tracemalloc.start()
        try:
            est = rademacher_estimate(LinearBallClass(X, 1.0), (1000, 1000), 2000, seed=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8
        assert est.value == pytest.approx(0.060030479375327045, rel=1e-12, abs=0)

    def test_split_validation(self):
        cls = FiniteVectorClass([[1.0, 2.0, 3.0]])
        with pytest.raises(InvalidParameter):
            rademacher_estimate(cls, (1, 1), 100)
        with pytest.raises(InvalidParameter):
            rademacher_estimate(cls, (0, 3), 100)


class TestContraction:
    def test_identity_maps_are_exact(self):
        cls = FiniteVectorClass(Rng(11, 0).normal(12).reshape(3, 4))
        cmp = contraction_check(cls, [lambda z: z] * 4, 1.0, (2, 2), 5000, seed=12)
        assert cmp.gap == 0.0 and cmp.gap_stderr == 0.0

    def test_halving_maps(self):
        cls = FiniteVectorClass(Rng(13, 0).normal(12).reshape(3, 4))
        cmp = contraction_check(cls, [lambda z: z / 2] * 4, 0.5, (2, 2), 20_000, seed=14)
        assert cmp.within_noise()

    def test_constant_maps_center_on_zero(self):
        cls = FiniteVectorClass(Rng(15, 0).normal(12).reshape(3, 4))
        cmp = contraction_check(cls, [lambda z: 0.7] * 4, 0.0, (2, 2), 50_000, seed=16)
        # lhs estimates E[sup sum r_i c] = c * E[sum r_i] = 0
        assert abs(cmp.lhs.value) <= 3 * cmp.lhs.stderr
        assert cmp.rhs.value == 0.0

    def test_lipschitz_declaration_verified(self):
        cls = FiniteVectorClass([[0.0, 1.0], [2.0, 3.0]])
        with pytest.raises(InvalidParameter):
            contraction_check(cls, [lambda z: 2 * z] * 2, 0.5, (1, 1), 100)


class TestProductClass:
    def test_all_ones_second_class_reduces_to_first(self):
        cv = FiniteVectorClass(Rng(17, 0).normal(12).reshape(2, 6))
        ones = FiniteVectorClass(np.ones((1, 6)))
        cmp = product_class_check(cv, ones, (3, 3), 30_000, seed=18)
        assert cmp.within_noise()

    def test_zero_class_has_zero_complexity(self):
        zeros = FiniteVectorClass(np.zeros((1, 4)))
        other = FiniteVectorClass(Rng(19, 0).normal(8).reshape(2, 4))
        cmp = product_class_check(zeros, other, (2, 2), 5000, seed=20)
        assert cmp.lhs.value == 0.0

    def test_random_two_member_classes(self):
        cv = FiniteVectorClass(Rng(21, 0).normal(12).reshape(2, 6))
        cs = FiniteVectorClass(Rng(22, 0).normal(12).reshape(2, 6))
        cmp = product_class_check(cv, cs, (3, 3), 100_000, seed=23)
        assert cmp.within_noise()


def test_paired_checks_stay_below_one_sign_matrix():
    # 0.15.0 drew each check's (20000, 400) signs at once and peaked at
    # 190.8 MiB; the pinned values are its outputs on these draws.
    m, n = 400, 20_000
    cv = FiniteVectorClass(Rng(34, 0).normal(3 * m).reshape(3, m))
    cs = FiniteVectorClass(Rng(35, 0).normal(2 * m).reshape(2, m))
    tracemalloc.start()
    try:
        mapped = contraction_check(cv, [np.tanh] * m, 1.0, (200, 200), n, seed=36)
        product = product_class_check(cv, cs, (200, 200), n, seed=37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * m * 8
    pinned = {
        "contraction": (mapped, 0.07349211900175179, 0.11859222073722016, 0.04510010173546839),
        "product": (product, 0.1770637136825312, 0.658913864106066, 0.4818501504235348),
    }
    for name, (cmp, lhs, rhs, gap) in pinned.items():
        got = (cmp.lhs.value, cmp.rhs.value, cmp.gap)
        assert got == pytest.approx((lhs, rhs, gap), rel=1e-12, abs=0), name


@pytest.mark.parametrize("split", [(1, 1, 1), (3,), 3], ids=["triple", "single", "bare"])
@pytest.mark.parametrize("oracle", ["rademacher", "contraction", "product"])
def test_a_split_that_is_not_a_pair_is_rejected_before_any_draw(monkeypatch, oracle, split):
    def no_stream(*args):
        raise AssertionError("a sign stream was opened")

    monkeypatch.setattr(verify_module, "Rng", no_stream)
    cls = FiniteVectorClass(np.eye(3))
    calls = {
        "rademacher": lambda: rademacher_estimate(cls, split, 10),
        "contraction": lambda: contraction_check(cls, [abs] * 3, 1.0, split, 10),
        "product": lambda: product_class_check(cls, cls, split, 10),
    }
    with pytest.raises(InvalidParameter, match="pair of sizes"):
        calls[oracle]()


@pytest.mark.parametrize("split", [(0, 3), (-1, 4), (1, 1, 1), 3, (2.0, 2)],
                         ids=["zero", "negative", "triple", "bare", "float"])
def test_linear_ball_bound_rejects_a_bad_split(split):
    with pytest.raises(InvalidParameter, match="split"):
        linear_ball_bound(1.0, split)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_linear_ball_bound_rejects_a_radius_not_above_zero(radius):
    with pytest.raises(InvalidParameter, match="radius"):
        linear_ball_bound(radius, (2, 2))


class TestMatrixConcentration:
    def test_identical_summands_never_deviate(self):
        # One-dimensional points all equal: every normalized matrix is the
        # same scalar, so all deviations vanish.
        X = np.ones((20, 1))
        res = matrix_concentration_check(X, 0.0, 12.0, 50, seed=24)
        assert res.gamma == pytest.approx(1.0)
        assert res.violation_rate == 0.0
        assert res.max_deviation_profile.max() == pytest.approx(0.0, abs=1e-12)

    def test_mean_matrix_identity(self):
        X = unit_rows(80, 5, seed=25)
        mats, gamma, mean_matrix = normalized_outer_products(X, 0.05)
        assert np.allclose(mats.mean(axis=0), mean_matrix, atol=1e-10)
        assert spectral_norms(mean_matrix[None])[0] <= 1.0 + 1e-12
        assert 0.0 < gamma

    def test_violation_rate_bounded(self):
        X = unit_rows(100, 5, seed=26)
        res = matrix_concentration_check(X, 0.0, 12.0, 300, seed=27)
        assert res.violation_rate <= min(1.0, res.bound)
        assert res.violation_rate == 0.0  # alpha = 12 is far in the tail

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = unit_rows(10, 3, seed=30)
        X[7, 1] = bad
        with pytest.raises(InvalidParameter, match="must be finite"):
            matrix_concentration_check(X, 0.0, 12.0, 10)

    def test_singular_shift_rejected(self):
        X = np.zeros((10, 3))
        with pytest.raises(SingularCurvature):
            matrix_concentration_check(X, 0.0, 12.0, 10)

    def test_profile_shrinks_with_m(self):
        peaks = {}
        for m in (100, 400):
            X = unit_rows(m, 5, seed=28, stream=m)
            res = matrix_concentration_check(X, 0.0, 12.0, 300, seed=29, stream=m)
            peaks[m] = central_band_peak(res.max_deviation_profile)
        assert peaks[400] <= 0.75 * peaks[100]


class TestSqrtSumBound:
    def test_worked_small_case(self):
        # m = T = 4 by direct three-term summation.
        m = 4
        direct = sum(
            (t - 1) * (1 / math.sqrt(t - 1) + 1 / math.sqrt(m - t + 1))
            for t in range(2, 5)
        ) / (m * 4)
        assert direct == pytest.approx(0.5711, abs=2e-4)
        assert direct <= 2 / math.sqrt(m)

    def test_scan_holds(self):
        worst = sqrt_sum_bound_scan(200)
        assert 0.9 < worst <= 1.0

    def test_t1_contributes_nothing(self):
        # The scan's T = 1 column is the empty sum.
        worst = sqrt_sum_bound_scan(2)
        assert worst <= 1.0

    def test_guard(self):
        with pytest.raises(InvalidParameter):
            sqrt_sum_bound_scan(1)
