"""Simulated cluster run: equivalence to one machine plus comm accounting.

Partitions the data across four virtual machines, runs the distributed
driver, and replays the same schedule on a single machine through the
matched permutation.  The two trajectories agree bit for bit, two
communication rounds happen per epoch, and the only payloads are
d-dimensional vectors: data points never move.
"""

import numpy as np

from shufflegrad import (
    GenSpec,
    RidgeProblem,
    Rng,
    SVRGConfig,
    generate,
    matched_permutation,
    partition,
    run_distributed_svrg,
    run_svrg,
)

data = generate(GenSpec(m=8000, d=10, spectrum="uniform", noise=0.1,
                        signal_norm=0.9, seed=13))
problem = RidgeProblem(data, alpha=0.1)
K, T, S = 4, 200, 8
config = SVRGConfig(step_size=0.1, epoch_len=T, n_epochs=S, seed=41)

shards = partition(problem.data, K, Rng(41, 5))  # machine j holds the indices shards[j]
print(f"{K} machines, shard sizes: {[len(s) for s in shards]}")
print(f"batches of {T} per machine: {[len(s) // T for s in shards]}\n")

dist_trace, log = run_distributed_svrg(problem, K, config, shards=shards)
solo_trace = run_svrg(problem, config, sigma=matched_permutation(shards, T, S))

print("epoch   distributed      single machine   bitwise equal")
for s in range(S):
    a, b = dist_trace.suboptimality[s], solo_trace.suboptimality[s]
    print(f"{s + 1:>5}   {a:12.4e}    {b:12.4e}    {a.tobytes() == b.tobytes()}")

traj = np.concatenate([[dist_trace.initial_suboptimality], dist_trace.suboptimality])
print(f"\ncommunication rounds: {log.rounds} (2 per epoch)")
print(f"floats moved: {log.payload_floats} = 2 * k * d * S = {2 * K * problem.d * S}")
print(f"rounds per decade of accuracy: {log.rounds_per_decade(traj):.2f}")
print(f"messages per kind: {log.messages_by_kind} (k * S = {K * S} each)")
