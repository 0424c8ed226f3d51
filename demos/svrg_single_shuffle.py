"""Geometric convergence of variance-reduced epochs under one shuffle.

Uses the parameter rule (step 1/c, epoch length ~ 9c/lambda, epoch count
logarithmic in the accuracy) and shows the per-epoch suboptimality
contraction.  All stochastic steps across all epochs consume a single
initial shuffle: no index is ever revisited, and the runtime safety
bound on log suboptimality holds at every iterate.
"""

import numpy as np

from shufflegrad import (
    GenSpec,
    RidgeProblem,
    SVRGConfig,
    epoch_decrease_ratio,
    generate,
    log_suboptimality_bound,
    recommended_params,
    run_svrg,
)

data = generate(GenSpec(m=60_000, d=15, spectrum="geometric", decay=0.5,
                        noise=0.1, signal_norm=1.0, seed=9))
problem = RidgeProblem(data, alpha=0.08)
lam = problem.strong_convexity

params = recommended_params(problem, epsilon=1e-9)
epochs = min(params.n_epochs, problem.m // params.epoch_len)
print(f"m={problem.m}, lambda={lam:.4f}")
print(f"parameter rule: eta={params.step_size}, T={params.epoch_len}, "
      f"S={params.n_epochs} (m needed: {params.m_required}); running S={epochs}\n")

config = SVRGConfig(step_size=params.step_size, epoch_len=params.epoch_len,
                    n_epochs=epochs, sampler="single_shuffle", seed=33)
trace = run_svrg(problem, config)

bound = log_suboptimality_bound(config.epoch_len, config.n_epochs, lam)
print(f"starting suboptimality F(0) - F* = {trace.initial_suboptimality:.3e}")
print(f"log-suboptimality safety bound: {bound:.1f}\n")
print("epoch   suboptimality   in-epoch max   stochastic grads   anchor grads")
ratios = epoch_decrease_ratio(trace)
for s in range(trace.n_epochs):
    print(f"{s + 1:>5}   {trace.suboptimality[s]:13.3e}   "
          f"{trace.max_suboptimality[s]:12.3e}   {trace.stochastic_grad_evals[s]:>16d}   "
          f"{trace.full_grad_point_evals[s]:>12d}")
print(f"\nper-epoch decrease ratios: {np.array2string(ratios, precision=4)}")
print(f"indices consumed: {config.epoch_len * config.n_epochs} <= m = {problem.m}")
