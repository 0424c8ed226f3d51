"""Simulated multi-machine variance-reduced descent with communication accounting.

The cluster is simulated in one process: machines hold disjoint shards of
a randomly permuted dataset, each epoch one machine advances through its
current batch of inner steps, and the two per-epoch communication rounds
(a reduce that assembles the anchor gradient, a broadcast that
distributes the new snapshot) are counted in a :class:`CommLog`: rounds,
floats moved and messages per kind.  Only d-float vectors ever travel;
data points stay put.  A broadcast round is modeled as one delivery per
machine in the cluster, so every round moves exactly n_machines * d
floats.

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

from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .errors import BatchesExhausted, InvalidParameter
from .problem import Dataset, pairwise_sum
from .rng import Rng
from .sampling import SINGLE_SHUFFLE, is_permutation, shuffle
from .svrg import AUX_STREAM_BIT, SVRGConfig, _drive

REDUCE = "reduce"
BROADCAST = "broadcast"


@dataclass(frozen=True)
class Shard:
    """One machine's slice of the permuted data."""

    machine: int
    indices: np.ndarray

    def batches(self, epoch_len: int) -> Iterator[np.ndarray]:
        """Consecutive full batches of ``epoch_len`` local indices, sliced
        as they are consumed.

        A trailing remainder shorter than a batch is never used for
        inner steps (it still contributes to every anchor gradient,
        which ranges over the entire dataset).
        """
        n_full = len(self.indices) // epoch_len
        return (self.indices[b * epoch_len : (b + 1) * epoch_len] for b in range(n_full))


@dataclass
class CommLog:
    """Communication counts of one run: rounds, floats moved, and
    messages per kind ("reduce", "broadcast")."""

    rounds: int = 0
    payload_floats: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)

    def _record_round(self, kind: str, payloads) -> None:
        self.rounds += 1
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + len(payloads)
        self.payload_floats += sum(p.size for p in payloads)

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


def partition(dataset: Dataset, n_machines: int, rng: Rng) -> list[Shard]:
    """Randomly split point indices into ``n_machines`` balanced shards.

    A uniform permutation is dealt into contiguous blocks whose sizes
    differ by at most one; block j becomes machine j's shard.
    """
    m = dataset.m
    if n_machines < 1:
        raise InvalidParameter("need at least one machine")
    if n_machines > m:
        raise InvalidParameter(f"cannot split {m} points across {n_machines} machines")
    order = shuffle(m, rng)
    base, extra = divmod(m, n_machines)
    shards = []
    start = 0
    for j in range(n_machines):
        size = base + (1 if j < extra else 0)
        shards.append(Shard(machine=j, indices=order[start : start + size]))
        start += size
    return shards


def batch_schedule(shards: list[Shard], epoch_len: int, n_epochs: int) -> list[np.ndarray]:
    """The batch consumed at each epoch: machines in id order, each
    machine's batches in local order.  Only the consumed batches are
    sliced.  Raises when the cluster holds too few batches to finish."""
    total = sum(len(shard.indices) // epoch_len for shard in shards)
    if total < n_epochs:
        raise BatchesExhausted(
            f"cluster holds {total} batches of size {epoch_len} but the run "
            f"needs {n_epochs}; the total batch count must be at least the "
            f"epoch count"
        )
    batches = chain.from_iterable(shard.batches(epoch_len) for shard in shards)
    return list(islice(batches, n_epochs))


def matched_permutation(shards: list[Shard], epoch_len: int, n_epochs: int) -> np.ndarray:
    """Single-machine index order that replays a distributed run exactly:
    the consumed batches in consumption order, then everything else."""
    schedule = batch_schedule(shards, epoch_len, n_epochs)
    consumed = np.concatenate(schedule) if schedule else np.empty(0, dtype=np.int64)
    m = sum(len(s.indices) for s in shards)
    rest_mask = np.ones(m, dtype=bool)
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
    X, y = problem._rows(idx)
    n = idx.size
    return (X.T @ X) / n + problem.alpha * np.eye(problem.d), (X.T @ y) / n


def run_distributed_svrg(
    problem,
    n_machines: int,
    config: SVRGConfig,
    shards: list[Shard] | None = None,
):
    """Simulate the distributed driver; returns (EpochTrace, CommLog).

    ``shards`` defaults to a fresh random partition drawn on the config's
    auxiliary stream lane; explicit shards must hold each point exactly
    once.  The epochs run in the single-machine driver's loop, fed the
    batch schedule, an anchor reduced from the machines' local mean
    gradients (each from its :func:`local_operator`, combined in
    machine-id order) and a snapshot broadcast after each epoch.
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
        merged = np.concatenate([s.indices for s in shards]) if shards else np.empty(0)
        if not is_permutation(merged, problem.m):
            raise InvalidParameter(
                f"shards must hold each of the {problem.m} points exactly once"
            )
    if len(shards) != n_machines:
        raise InvalidParameter(f"expected {n_machines} shards, got {len(shards)}")

    schedule = batch_schedule(shards, config.epoch_len, config.n_epochs)
    operators = [local_operator(problem, np.sort(shard.indices)) for shard in shards]
    weights = np.array([len(shard.indices) / problem.m for shard in shards])
    log = CommLog()

    def reduce_anchor(snapshot):
        means = [H @ snapshot - b for H, b in operators]
        log._record_round(REDUCE, means)
        return pairwise_sum(np.stack([weights[j] * means[j] for j in range(n_machines)]))

    def broadcast(s, snapshot):
        log._record_round(BROADCAST, [snapshot] * n_machines)

    trace = _drive(problem, config, lambda s: schedule[s], reduce_anchor, broadcast)
    return trace, log
