import math

import numpy as np
import pytest

from shufflegrad import Dataset, RidgeProblem, Rng
from shufflegrad.errors import DataFormatError


def random_dataset(m, d, seed, label_scale=0.5, stream=0):
    """Small dataset with unit-capped feature norms and labels in [-1, 1]."""
    rng = Rng(seed, stream)
    X = rng.normal(m * d).reshape(m, d)
    X /= np.linalg.norm(X, axis=1).max()
    y = np.clip(label_scale * rng.normal(m), -1.0, 1.0)
    return Dataset(X=X, y=y)


def random_ridge(m, d, seed, alpha=0.25, **kw):
    return RidgeProblem(random_dataset(m, d, seed, **kw), alpha=alpha)


@pytest.fixture
def unit_axes_problem():
    """The two-point problem on the coordinate axes used by hand examples."""
    data = Dataset(X=np.array([[1.0, 0.0], [0.0, 1.0]]), y=np.array([1.0, 0.0]))
    return RidgeProblem(data, alpha=0.5)


# Straight-line one-point formulas: the oracles for the block evaluations.
POINT_LOSSES = {
    "squared": lambda z, y: 0.5 * (z - y) ** 2,
    "absolute": lambda z, y: np.abs(z - y),
    "hinge": lambda z, y: np.maximum(0.0, 1.0 - y * z),
}


def straight_objective(problem, w):
    """F(w) as the sum of the data losses over m plus the regularizer; the
    predictions are the first row of the two-row product [w, w] @ X^T, and
    the contiguous loss vector is summed by ``np.add.reduce``."""
    z = (np.stack([w, w]) @ problem.data.X.T)[0]
    losses = POINT_LOSSES[problem.kind](z, problem.data.y)
    return float(np.add.reduce(losses) / problem.m) + 0.5 * problem.alpha * float(w @ w)


def straight_row_sum(row):
    """The sum of one contiguous row in numpy's documented pairwise order
    (README, "Mean objectives"): one float addition at a time."""
    def pairwise(a):
        n = len(a)
        if n < 8:
            total = 0.0
            for t in a:
                total += t
            return total
        if n <= 128:
            r = a[:8]
            tail = n - n % 8
            for i in range(8, tail, 8):
                r = [r[j] + a[i + j] for j in range(8)]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            for t in a[tail:]:
                total += t
            return total
        half = n // 2 - n // 2 % 8
        return pairwise(a[:half]) + pairwise(a[half:])

    return 0.0 + pairwise([float(t) for t in row])


def numpy_sum_depth(n):
    """The most additions any term of an n-term row passes through in
    ``straight_row_sum``'s order: Higham's tree depth for that order."""
    if n < 8:
        return max(n - 1, 0)
    if n <= 128:
        return n // 8 - 1 + 3 + n % 8
    half = n // 2 - n // 2 % 8
    return 1 + max(numpy_sum_depth(half), numpy_sum_depth(n - half))


def fsum_row_mean(rows):
    """The mean over axis 0 of a 2-D array, each column summed by ``math.fsum``."""
    return np.array([math.fsum(column) for column in rows.T]) / rows.shape[0]


def straight_suboptimality(problem, w):
    """F(w) - F*: the curvature form for ridge, the objective gap otherwise."""
    if isinstance(problem, RidgeProblem):
        dw = w - problem.wstar
        return 0.5 * float(dw @ (problem.hessian @ dw))
    return straight_objective(problem, w) - problem.fstar


# Straight-line dataset text I/O, one coordinate at a time: the oracles
# for the chunked datagen.save and datagen.load.
def straight_save(dataset, path):
    lines = [f"#dim {dataset.d}\n"]
    for i in range(dataset.m):
        parts = [repr(float(dataset.y[i]))]
        row = dataset.X[i]
        for j in np.flatnonzero(row != 0.0):
            parts.append(f"{j + 1}:{repr(float(row[j]))}")
        lines.append(" ".join(parts) + "\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def straight_load(path):
    """(X, y) of a dataset file, or raise DataFormatError as datagen.load does.

    Covers the parse only: no normalization and no norm or label bounds.
    """
    with open(path) as fh:
        raw = fh.readlines()
    header = raw[0].split() if raw else []
    if len(header) != 2 or header[0] != "#dim":
        raise DataFormatError(f"{path}: line 1: expected header '#dim <d>'")
    d = int(header[1])
    ys, rows = [], []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}: line {lineno}:"
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise DataFormatError(f"{where} bad label {parts[0]!r}") from None
        if not math.isfinite(label):
            raise DataFormatError(f"{where} non-finite label {parts[0]!r}")
        row = np.zeros(d)
        seen = set()
        for token in parts[1:]:
            try:
                idx_text, val_text = token.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise DataFormatError(f"{where} bad coordinate {token!r}") from None
            if not math.isfinite(val):
                raise DataFormatError(f"{where} non-finite coordinate {token!r}")
            if not 1 <= idx <= d:
                raise DataFormatError(f"{where} index {idx} outside [1, {d}]")
            if idx in seen:
                raise DataFormatError(f"{where} duplicate index {idx}")
            seen.add(idx)
            row[idx - 1] = val
        ys.append(label)
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data lines")
    return np.array(rows), np.array(ys)


# Straight-line whole-array set-up: the oracles for the block-wise
# Rng.normal and datagen.generate.
def straight_normal(rng, n):
    """n Box-Muller deviates from one whole-array pass over 2*ceil(n/2) words."""
    pairs = (n + 1) // 2
    u = rng.uniform(2 * pairs)
    u1, u2 = u[:pairs], u[pairs:]
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def straight_generate(spec):
    """(X, y, final counter) of generate(spec) with whole-array temporaries."""
    rng = Rng(spec.seed, spec.stream)
    direction = straight_normal(rng, spec.d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction[0] = 1.0
        norm = 1.0
    w_true = spec.signal_norm * direction / norm
    Z = straight_normal(rng, spec.m * spec.d).reshape(spec.m, spec.d)
    if spec.spectrum == "geometric":
        Z = Z * np.sqrt(spec.decay ** np.arange(spec.d))
    label_noise = straight_normal(rng, spec.m)
    scale = np.linalg.norm(Z, axis=1).max()
    if scale == 0.0:
        scale = 1.0
    X = Z / scale
    y = np.clip(X @ w_true + spec.noise * label_noise, -1.0, 1.0)
    return X, y, rng.counter
