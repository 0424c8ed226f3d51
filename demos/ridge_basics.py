"""Tour of the problem layer: datasets, exact ridge solutions, conditioning.

Builds a small synthetic dataset, solves the regularized least squares
problem exactly, and shows how the strong convexity / smoothness pair
brackets suboptimality by squared distance to the minimizer.  Then prints
the constants of the absolute and hinge losses on a ball and the
absolute loss's certified reference optimum.
"""

import numpy as np

from shufflegrad import GenSpec, LipschitzLinearProblem, RidgeProblem, Rng, generate

data = generate(GenSpec(m=500, d=8, spectrum="geometric", decay=0.6,
                        noise=0.15, signal_norm=0.9, seed=7))
print(f"dataset: m={data.m}, d={data.d}, max feature norm = "
      f"{np.linalg.norm(data.X, axis=1).max():.3f}, max |label| = {np.abs(data.y).max():.3f}")

problem = RidgeProblem(data, alpha=0.1)
wstar, fstar = problem.wstar, problem.fstar
print(f"\nridge weight 0.1:")
print(f"  strong convexity  lambda = {problem.strong_convexity:.5f}")
print(f"  smoothness        mu     = {problem.smoothness:.5f}")
print(f"  condition number  mu/lambda = {problem.smoothness / problem.strong_convexity:.1f}")
print(f"  ||w*|| = {np.linalg.norm(wstar):.4f},  F(w*) = {fstar:.6f}")
print(f"  gradient norm at w* = {np.linalg.norm(problem.full_gradient(wstar)):.2e}")

print("\nsuboptimality bracket (lambda/2)||w-w*||^2 <= F(w)-F* <= (mu/2)||w-w*||^2:")
rng = Rng(1, 0)
lam, mu = problem.strong_convexity, problem.smoothness
for k in range(4):
    w = wstar + 0.5 * rng.normal(data.d)
    dist2 = float(np.sum((w - wstar) ** 2))
    gap = problem.suboptimality(w)
    print(f"  trial {k}: {lam / 2 * dist2:10.6f} <= {gap:10.6f} <= {mu / 2 * dist2:10.6f}")

print("\nconvex Lipschitz losses of the same data (radius-2 ball):")
for kind in ("absolute", "hinge"):
    p = LipschitzLinearProblem(data, kind, radius=2.0, alpha=0.05)
    print(f"  {kind:>8}: L = {p.lipschitz:.3f}, grad bound G = {p.grad_bound:.3f}, "
          f"|f_i| <= {p.loss_bound:.3f}")

p_abs = LipschitzLinearProblem(data, "absolute", radius=2.0, alpha=0.05)
print(f"  absolute-loss reference optimum: F* = {p_abs.fstar:.6f} "
      f"(||w*|| = {np.linalg.norm(p_abs.wstar):.4f})")
