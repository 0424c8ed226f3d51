"""The verification oracles: exact permutation identities and Monte-Carlo
complexity bounds.

Everything here has a second, independent route to the answer: exhaustive
enumeration over permutations, closed forms, or a conservative bound that
the estimate must respect.
"""

import numpy as np

from shufflegrad import (
    FiniteVectorClass,
    LinearBallClass,
    RidgeProblem,
    Rng,
    Dataset,
    SGDConfig,
    StronglyConvexStep,
    central_band_peak,
    contraction_check,
    linear_ball_bound,
    matrix_concentration_check,
    permutation_identity_check,
    product_class_check,
    rademacher_estimate,
    sqrt_sum_bound_scan,
    suboptimality_decomposition_check,
)

rng = Rng(3, 0)
X = rng.normal(5 * 2).reshape(5, 2)
X /= np.linalg.norm(X, axis=1).max()
y = np.clip(0.6 * rng.normal(5), -1, 1)
problem = RidgeProblem(Dataset(X=X, y=y), alpha=0.25)

print("1. permutation swap identity, exhaustively over all 120 orderings")
print("   (values adapt to the drawn prefix through a gradient step)")


def rule(prefix):
    w = np.zeros(2)
    for idx in prefix:
        w = w - 0.2 * problem.point_gradient(idx, w)
    return problem.point_losses(w)


for t in (1, 3, 5):
    lhs, rhs = permutation_identity_check(5, t, rule)
    print(f"   t={t}: lhs = {lhs:+.12f}, rhs = {rhs:+.12f}, gap = {abs(lhs - rhs):.1e}")

print("\n2. suboptimality decomposition of projected descent (T = 4)")
config = SGDConfig(n_steps=4, step_rule=StronglyConvexStep(problem.strong_convexity),
                   radius=2.0 * max(1.0, float(np.linalg.norm(problem.wstar))))
res = suboptimality_decomposition_check(problem, config)
print(f"   expected suboptimality    = {res.lhs:+.10f}")
print(f"   regret term               = {res.regret_term:+.10f}")
print(f"   prefix/suffix term        = {res.prefix_suffix_term:+.10f}")
print(f"   identity gap              = {abs(res.lhs - res.regret_term - res.prefix_suffix_term):.1e}")

print("\n3. transductive complexity of a unit-ball linear class")
Xb = Rng(8, 0).normal(100 * 10).reshape(100, 10)
Xb /= np.linalg.norm(Xb, axis=1)[:, None]
est = rademacher_estimate(LinearBallClass(Xb, 1.0), (50, 50), 20_000, seed=9)
print(f"   estimate {est.value:.4f} +- {est.stderr:.4f}  "
      f"closed-form bound {linear_ball_bound(1.0, (50, 50)):.4f}")

print("\n4. contraction: R(g o V) of 1/2-Lipschitz maps against 1/2 * R(V)")
cls = FiniteVectorClass(Rng(0, 55).normal(12).reshape(3, 4))
cmp = contraction_check(cls, [lambda z: 0.5 * z] * 4, 0.5, (2, 2), 10_000, seed=0)
print(f"   lhs {cmp.lhs.value:.4f}  rhs {cmp.rhs.value:.4f}  gap {cmp.gap:.2e}  "
      f"within noise: {cmp.within_noise()}")

print("\n5. product class: R(V * S) against B_S * R(V) + B_V * R(S)")
rng = Rng(0, 56)
cv = FiniteVectorClass(rng.normal(12).reshape(2, 6))
cs = FiniteVectorClass(rng.normal(12).reshape(2, 6))
cmp = product_class_check(cv, cs, (3, 3), 10_000, seed=0)
print(f"   lhs {cmp.lhs.value:.4f}  rhs {cmp.rhs.value:.4f}  within noise: {cmp.within_noise()}")

print("\n6. prefix/suffix deviation of normalized second-moment matrices")
for m in (100, 400):
    Xc = Rng(10, m).normal(m * 5).reshape(m, 5)
    Xc /= np.linalg.norm(Xc, axis=1)[:, None]
    out = matrix_concentration_check(Xc, 0.0, 12.0, 500, seed=11, stream=m)
    print(f"   m={m:>3}: gamma={out.gamma:.3f}, worst central deviation = "
          f"{central_band_peak(out.max_deviation_profile):.4f}, "
          f"violations of the tail bound = {out.violation_rate:.0%}")

print("\n7. weighted square-root sum against 2/sqrt(m), scanned exhaustively")
print(f"   worst ratio over m <= 500: {sqrt_sum_bound_scan(500):.4f} (must stay <= 1)")
