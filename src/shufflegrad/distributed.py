"""Simulated multi-machine variance-reduced descent with communication accounting.

The cluster is simulated in one process: machines hold disjoint shards of
a randomly permuted dataset, each epoch one machine advances through its
current batch of inner steps, and the two per-epoch communication rounds
(a reduce that assembles the anchor gradient, a broadcast that
distributes the new snapshot) are recorded as explicit messages.  Only
d-float vectors ever travel; data points stay put.

Message schema (version 1): ``round_id`` (1-based), ``sender`` (machine
id), ``kind`` ("reduce" or "broadcast"), ``payload`` (d 64-bit floats).
A broadcast round is modeled as one delivery per machine in the cluster,
so every round moves exactly n_machines * d floats.

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

import numpy as np

from .errors import BatchesExhausted, InvalidParameter
from .problem import Dataset, pairwise_sum
from .rng import Rng
from .sampling import SINGLE_SHUFFLE, shuffle
from .svrg import AUX_STREAM_BIT, SVRGConfig, _drive

SCHEMA_VERSION = 1

REDUCE = "reduce"
BROADCAST = "broadcast"


@dataclass(frozen=True)
class Shard:
    """One machine's slice of the permuted data."""

    machine: int
    indices: np.ndarray

    def batches(self, epoch_len: int) -> list[np.ndarray]:
        """Consecutive full batches of ``epoch_len`` local indices.

        A trailing remainder shorter than a batch is never used for
        inner steps (it still contributes to every anchor gradient,
        which ranges over the entire dataset).
        """
        n_full = len(self.indices) // epoch_len
        return [
            self.indices[b * epoch_len : (b + 1) * epoch_len] for b in range(n_full)
        ]


@dataclass(frozen=True)
class Message:
    round_id: int
    sender: int
    kind: str
    payload: np.ndarray


@dataclass
class CommLog:
    rounds: int = 0
    messages: list[Message] = field(default_factory=list)
    epoch_rounds: list[tuple[int, int]] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    @property
    def payload_floats(self) -> int:
        return int(sum(msg.payload.size for msg in self.messages))

    def _record_round(self, kind: str, senders_and_payloads) -> int:
        self.rounds += 1
        rid = self.rounds
        for sender, payload in senders_and_payloads:
            self.messages.append(
                Message(round_id=rid, sender=sender, kind=kind, payload=np.array(payload))
            )
        return rid


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
    machine's batches in local order.  Raises when the cluster holds too
    few batches to finish."""
    per_machine = [shard.batches(epoch_len) for shard in shards]
    flat = [batch for batches in per_machine for batch in batches]
    if len(flat) < n_epochs:
        raise BatchesExhausted(
            f"cluster holds {len(flat)} batches of size {epoch_len} but the run "
            f"needs {n_epochs}; the total batch count must be at least the "
            f"epoch count"
        )
    return flat[:n_epochs]


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
    auxiliary stream lane.  The epochs run in the single-machine driver's
    loop, fed the batch schedule, an anchor reduced from the machines'
    local mean gradients (each from its :func:`local_operator`, combined
    in machine-id order) and a snapshot broadcast after each epoch.
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
    if len(shards) != n_machines:
        raise InvalidParameter(f"expected {n_machines} shards, got {len(shards)}")

    m, T = problem.m, config.epoch_len
    schedule = batch_schedule(shards, T, config.n_epochs)
    owners = [shard.machine for shard in shards for _ in range(len(shard.indices) // T)]
    operators = [local_operator(problem, np.sort(shard.indices)) for shard in shards]
    weights = np.array([len(shard.indices) / m for shard in shards])
    log = CommLog()

    def reduce_anchor(snapshot):
        means = [H @ snapshot - b for H, b in operators]
        log._record_round(REDUCE, enumerate(means))
        return pairwise_sum(np.stack([weights[j] * means[j] for j in range(n_machines)]))

    def broadcast(s, snapshot):
        rid = log._record_round(BROADCAST, [(owners[s], snapshot)] * n_machines)
        log.epoch_rounds.append((rid - 1, rid))

    trace = _drive(problem, config, lambda s: schedule[s], reduce_anchor, broadcast)
    return trace, log


@dataclass
class CommReport:
    rounds: int
    floats_moved: int
    rounds_per_decade: float | None


def comm_cost_report(comm_log: CommLog, dim: int, suboptimality=None) -> CommReport:
    """Totals for a finished run.

    Every message must carry exactly ``dim`` floats.  When the per-epoch
    suboptimality trajectory is supplied, the report includes rounds per
    decade of accuracy gained (None when no decade was gained or the
    trajectory is too short).
    """
    for msg in comm_log.messages:
        if msg.payload.size != dim:
            raise InvalidParameter(
                f"message in round {msg.round_id} carries {msg.payload.size} floats, "
                f"expected {dim}"
            )
    floats = comm_log.payload_floats
    rpd = None
    if suboptimality is not None:
        traj = np.asarray(suboptimality, dtype=np.float64)
        if traj.size >= 2 and traj[0] > 0 and traj[-1] > 0:
            decades = np.log10(traj[0] / traj[-1])
            if decades > 0:
                rpd = float(comm_log.rounds / decades)
    return CommReport(rounds=comm_log.rounds, floats_moved=floats, rounds_per_decade=rpd)
