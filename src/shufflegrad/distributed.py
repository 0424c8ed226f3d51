"""Simulated multi-machine variance-reduced descent with communication accounting.

The cluster is simulated in one process.  A shard is an int64 array of
point indices, and machine j holds shards[j]; the shards split a
randomly permuted dataset into disjoint blocks.  Each epoch one machine
advances through its current batch of inner steps, and the two
per-epoch communication rounds (a reduce that assembles the anchor
gradient, a broadcast that distributes the new snapshot) are counted in
a :class:`CommLog`: rounds, floats moved and messages per kind.  Only
d-float vectors ever travel; data points stay put.  A broadcast round is
modeled as one delivery per machine in the cluster, so every round
moves exactly n_machines * d floats.

Equivalence contract: the simulation runs the single-machine driver's
epoch loop (``svrg._drive``) and supplies only the batches, the anchor
and the broadcast, so the guard, the safety bound, the random-iterate
pick and the trace are shared.  Each machine's share of the anchor is
its local mean gradient in Gram form, ``H_j w - b_j`` (see
:func:`local_operator`), built once per run.  A lone shard covers every
point and reuses the problem's own Hessian and right-hand side, so its
anchor is the same ``hessian @ w - b`` as ``RidgeProblem.full_gradient``
and one machine reproduces ``run_svrg`` on the matched permutation bit
for bit, for both epoch outputs.  With several machines the anchor is a
weighted sum of local Gram forms, so per-epoch suboptimalities agree to
rounding (tested at 1e-12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import BatchesExhausted, InvalidParameter
from .problem import Dataset, _gram_form, pairwise_sum
from .rng import Rng
from .sampling import SINGLE_SHUFFLE, is_permutation, shuffle
from .svrg import AUX_STREAM_BIT, SVRGConfig, _drive

REDUCE = "reduce"
BROADCAST = "broadcast"


@dataclass
class CommLog:
    """Communication counts of one run: rounds, floats moved, and
    messages per kind ("reduce", "broadcast")."""

    rounds: int = 0
    payload_floats: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    def _record_round(self, kind: str, messages: int, floats: int) -> None:
        self.rounds += 1
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + messages
        self.payload_floats += floats

    def rounds_per_decade(self, suboptimality) -> float | None:
        """Rounds per decade of accuracy gained along the suboptimality
        trajectory; None when no decade was gained or the trajectory is
        too short."""
        traj = np.asarray(suboptimality, dtype=np.float64)
        if traj.size >= 2 and traj[0] > 0 and traj[-1] > 0:
            decades = np.log10(traj[0] / traj[-1])
            if decades > 0:
                return float(self.rounds / decades)
        return None


def partition(dataset: Dataset, n_machines: int, rng: Rng) -> list[np.ndarray]:
    """Randomly split point indices into ``n_machines`` balanced shards.

    A uniform permutation is dealt into contiguous blocks whose sizes
    differ by at most one, the longer blocks first; block j, an int64
    view of the permutation, is machine j's shard.
    """
    m = dataset.m
    if n_machines < 1:
        raise InvalidParameter("need at least one machine")
    if n_machines > m:
        raise InvalidParameter(f"cannot split {m} points across {n_machines} machines")
    return np.array_split(shuffle(m, rng), n_machines)


def batch_schedule(shards: list[np.ndarray], epoch_len: int, n_epochs: int) -> list[np.ndarray]:
    """The batch consumed at each epoch: machines in order, each
    machine's consecutive full batches of ``epoch_len`` local indices in
    local order.  Only the consumed batches are sliced.  A trailing
    remainder shorter than a batch takes no inner steps (it still counts
    in every anchor).  Raises when the cluster holds too few batches to
    finish."""
    counts = [len(shard) // epoch_len for shard in shards]
    if sum(counts) < n_epochs:
        raise BatchesExhausted(
            f"cluster holds {sum(counts)} batches of size {epoch_len} but the run "
            f"needs {n_epochs}; the total batch count must be at least the "
            f"epoch count"
        )
    batches = (shard[b * epoch_len : (b + 1) * epoch_len]
               for shard, n in zip(shards, counts) for b in range(n))
    return list(islice(batches, n_epochs))


def matched_permutation(shards: list[np.ndarray], epoch_len: int, n_epochs: int) -> np.ndarray:
    """Single-machine index order that replays a distributed run exactly:
    the consumed batches in consumption order, then everything else."""
    schedule = batch_schedule(shards, epoch_len, n_epochs)
    consumed = np.concatenate(schedule) if schedule else np.empty(0, dtype=np.int64)
    rest_mask = np.ones(sum(len(shard) for shard in shards), dtype=bool)
    rest_mask[consumed] = False
    return np.concatenate([consumed, np.flatnonzero(rest_mask)])


def local_operator(problem, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H_j, b_j) such that H_j @ w - b_j is the mean ridge gradient over
    the sorted, duplicate-free ``indices``:
    H_j = X_j^T X_j / m_j + alpha*I and b_j = X_j^T y_j / m_j.

    Indices equal to range(m) return the problem's own ``hessian`` and
    right-hand side, the arrays ``RidgeProblem.full_gradient`` reads.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == problem.m and np.array_equal(idx, np.arange(problem.m)):
        return problem.hessian, problem._rhs
    return _gram_form(*problem._rows(idx), problem.alpha)


def run_distributed_svrg(
    problem,
    n_machines: int,
    config: SVRGConfig,
    shards: list[np.ndarray] | None = None,
):
    """Simulate the distributed driver; returns (EpochTrace, CommLog).

    ``shards`` defaults to a fresh random partition drawn on the config's
    auxiliary stream lane; explicit shards are integer index sequences,
    one per machine, that together hold each point exactly once.  The
    epochs run in the single-machine driver's loop, fed the batch
    schedule, an anchor reduced from the machines' local mean gradients
    (each from its :func:`local_operator`, combined in machine order) and
    a snapshot broadcast after each epoch.
    """
    if config.sampler != SINGLE_SHUFFLE:
        raise InvalidParameter(
            "the distributed driver realizes single-shuffle sampling; "
            f"got config.sampler={config.sampler!r}"
        )
    if shards is None:
        shards = partition(
            problem.data, n_machines, Rng(config.seed, config.stream ^ AUX_STREAM_BIT)
        )
    else:
        shards = [np.asarray(shard) for shard in shards]
        flat = bool(shards) and all(shard.ndim == 1 for shard in shards)
        if not (flat and is_permutation(np.concatenate(shards), problem.m)):
            raise InvalidParameter(
                f"shards must be integer index sequences holding each of the "
                f"{problem.m} points exactly once"
            )
    if len(shards) != n_machines:
        raise InvalidParameter(f"expected {n_machines} shards, got {len(shards)}")

    schedule = batch_schedule(shards, config.epoch_len, config.n_epochs)
    operators = [local_operator(problem, np.sort(shard)) for shard in shards]
    weights = [len(shard) / problem.m for shard in shards]
    floats = n_machines * problem.d
    log = CommLog()

    def reduce_anchor(snapshot):
        log._record_round(REDUCE, n_machines, floats)
        parts = [w * (H @ snapshot - b) for w, (H, b) in zip(weights, operators)]
        return pairwise_sum(np.stack(parts))

    def broadcast(s, snapshot):
        log._record_round(BROADCAST, n_machines, floats)

    trace = _drive(problem, config, lambda s: schedule[s], reduce_anchor, broadcast)
    return trace, log
