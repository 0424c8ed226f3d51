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

Equivalence contract: the machines consume their batches in turn, so a
run is single-machine without-replacement SVRG on that consumption
order, and the simulation is ``run_svrg`` on it: the guard, the safety
bound, the snapshot average and the trace are the single-machine
driver's.  The reduce round's shard-weighted sum of the machines' local
mean gradients is, by linearity, the full gradient, so ``run_svrg``'s
anchor ``RidgeProblem.full_gradient``, the cached Gram form
``hessian @ w - b``, is the reduced anchor whatever the partition.  A
run on any number of machines therefore is ``run_svrg`` on the matched
permutation, bit for bit.  Every epoch makes one reduce and one
broadcast round, so the counts are known in advance and the
:class:`CommLog` is filled in closed form after the run.

Without explicit shards the partition is drawn on the auxiliary lane
``config.stream ^ AUX_STREAM_BIT`` of the config's seed, and only the
permutation's prefix up to the last consumed position is drawn; it
equals that prefix of the permutation :func:`partition` deals on the
same lane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, islice

import numpy as np

from .errors import BatchesExhausted, InvalidParameter
from .problem import Dataset
from .rng import Rng, _integer
from .sampling import (SINGLE_SHUFFLE, SingleShuffleSampler, explicit_indices, is_permutation,
                       shuffle)
from .svrg import SVRGConfig, run_svrg

AUX_STREAM_BIT = 1 << 63  # the default partition draws on the high-bit stream lane
REDUCE = "reduce"
BROADCAST = "broadcast"


@dataclass
class CommLog:
    """Communication counts of one run: rounds, floats moved, and
    messages per kind ("reduce", "broadcast")."""

    rounds: int = 0
    payload_floats: int = 0
    messages_by_kind: dict[str, int] = field(default_factory=dict)

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


def _block_sizes(m: int, n_machines: int) -> list[int]:
    """Sizes of ``n_machines`` balanced blocks of m points, by
    ``np.array_split``'s rule: the first m mod n_machines are one longer."""
    if _integer(n_machines, "the machine count must be an integer", None) < 1:
        raise InvalidParameter("need at least one machine")
    if n_machines > m:
        raise InvalidParameter(f"cannot split {m} points across {n_machines} machines")
    size, longer = divmod(m, n_machines)
    return [size + 1] * longer + [size] * (n_machines - longer)


def _batch_starts(sizes: list[int], epoch_len: int, n_epochs: int) -> list[int]:
    """Start positions, in the concatenated blocks of these sizes, of the
    batch consumed at each epoch: blocks in order, each block's full
    batches of ``epoch_len`` in order; a shorter trailing remainder takes
    no inner steps (it still counts in every anchor)."""
    epoch_len = _integer(epoch_len, "epoch_len must be an integer >= 1", 1)
    _integer(n_epochs, "n_epochs must be an integer >= 0")
    counts = [size // epoch_len for size in sizes]
    if sum(counts) < n_epochs:
        raise BatchesExhausted(
            f"cluster holds {sum(counts)} batches of size {epoch_len} but the run needs "
            f"{n_epochs}; the total batch count must be at least the epoch count"
        )
    starts = (offset + b * epoch_len
              for offset, n in zip(accumulate(sizes, initial=0), counts) for b in range(n))
    return list(islice(starts, n_epochs))


def partition(dataset: Dataset, n_machines: int, rng: Rng) -> list[np.ndarray]:
    """Randomly split point indices into ``n_machines`` balanced shards.

    A uniform permutation is dealt into contiguous blocks whose sizes
    differ by at most one, the longer blocks first; block j, an int64
    view of the permutation, is machine j's shard.
    """
    sizes = _block_sizes(dataset.m, n_machines)
    return np.split(shuffle(dataset.m, rng), list(accumulate(sizes[:-1])))


def _batches(order: np.ndarray, starts: list[int], epoch_len: int) -> np.ndarray:
    """The consumed int64 indices in consumption order: the batches
    ``order[start : start + epoch_len]`` for each start, back to back."""
    rows = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(epoch_len)
    return order[rows.ravel()].astype(np.int64, copy=False)


def _shard_order(shards, m: int | None = None) -> tuple[np.ndarray, list[int]]:
    """The concatenated int64 shards and their sizes, once every shard
    passes :func:`.sampling.explicit_indices` and together they hold each
    of the m points exactly once (m defaults to their total length): the
    one check of explicit shards."""
    if m is None:
        m = sum(np.size(shard) for shard in shards)
    shards = [explicit_indices(shard, m, name=f"shard {j}") for j, shard in enumerate(shards)]
    order = np.concatenate(shards) if shards else np.empty(0, dtype=np.int64)
    if not (shards and is_permutation(order, m)):
        raise InvalidParameter(f"shards must hold each of the {m} points exactly once")
    return order, [len(shard) for shard in shards]


def matched_permutation(shards: list[np.ndarray], epoch_len: int, n_epochs: int) -> np.ndarray:
    """Single-machine index order that replays a distributed run exactly:
    the consumed batches in consumption order, then everything else.

    Its first n_epochs * epoch_len entries, read as (n_epochs, epoch_len)
    rows, are the run's batch schedule: row s is the batch consumed at
    epoch s, machines in order, each machine's consecutive full batches
    of ``epoch_len`` local indices in local order (see
    :func:`_batch_starts`).  Shards that do not hold each of their points
    exactly once raise ``InvalidParameter`` (``IndexOutOfRange`` for an
    index outside the points), as in :func:`run_distributed_svrg`."""
    order, sizes = _shard_order(shards)
    consumed = _batches(order, _batch_starts(sizes, epoch_len, n_epochs), epoch_len)
    rest_mask = np.ones(order.size, dtype=bool)
    rest_mask[consumed] = False
    return np.concatenate([consumed, np.flatnonzero(rest_mask)])


def run_distributed_svrg(
    problem,
    n_machines: int,
    config: SVRGConfig,
    shards: list[np.ndarray] | None = None,
):
    """Simulate the distributed driver; returns (EpochTrace, CommLog).

    ``shards`` defaults to ``partition(problem.data, n_machines,
    Rng(config.seed, config.stream ^ AUX_STREAM_BIT))``, of which only
    the consumed prefix is drawn; explicit shards are integer index
    sequences, one per machine, that together hold each point exactly
    once.  The run is ``run_svrg`` on the consumed batches in consumption
    order; the log counts 2 * n_epochs rounds, n_machines *
    n_epochs messages of each kind and d floats per message.
    """
    if config.sampler != SINGLE_SHUFFLE:
        raise InvalidParameter(
            "the distributed driver realizes single-shuffle sampling; "
            f"got config.sampler={config.sampler!r}"
        )
    T, S = config.epoch_len, config.n_epochs
    if shards is None:
        starts = _batch_starts(_block_sizes(problem.m, n_machines), T, S)
        rng = Rng(config.seed, config.stream ^ AUX_STREAM_BIT)
        order = SingleShuffleSampler(problem.m, rng).take(starts[-1] + T)
    else:
        order, sizes = _shard_order(shards, problem.m)
        if len(sizes) != _integer(n_machines, "the machine count must be an integer", None):
            raise InvalidParameter(f"expected {n_machines} shards, got {len(sizes)}")
        starts = _batch_starts(sizes, T, S)
    trace = run_svrg(problem, config, sigma=_batches(order, starts, T))
    messages = n_machines * S  # of each kind: one per machine and epoch
    return trace, CommLog(rounds=2 * S, payload_floats=2 * messages * problem.d,
                          messages_by_kind={REDUCE: messages, BROADCAST: messages})
