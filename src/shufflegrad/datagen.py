"""Synthetic dataset generation and plain-text serialization.

Generation plants a weight vector, draws features with a chosen
second-moment spectrum, rescales so the largest feature norm is exactly
1, and labels points with the (optionally noisy) planted prediction
clipped to [-1, 1].

The on-disk format is one point per line with 1-based sparse
coordinates, preceded by a dimension header::

    #dim 4
    0.5 1:0.25 3:-0.125
    -1.0 2:0.7071067811865476

Floats are rendered with ``repr``, which is shortest-round-trip for
Python doubles, so save followed by load reproduces every stored value
exactly.  Coordinates equal to zero are not stored (a stored -0.0 would
reload as such, but generated zeros are unsigned).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, InvalidParameter
from .problem import Dataset
from .rng import Rng

SPECTRA = ("uniform", "geometric")


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a synthetic dataset.

    spectrum "uniform" gives an isotropic feature second moment;
    "geometric" scales coordinate k by sqrt(decay**k), so the covariance
    eigenvalues fall off geometrically with ratio ``decay``.
    ``signal_norm`` is the Euclidean norm of the planted weight vector
    (keep it <= 1 for labels that never clip when noise is 0).
    """

    m: int
    d: int
    spectrum: str = "uniform"
    decay: float = 0.5
    noise: float = 0.0
    signal_norm: float = 1.0
    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise InvalidParameter("need m >= 1 and d >= 1")
        if self.spectrum not in SPECTRA:
            raise InvalidParameter(f"spectrum must be one of {SPECTRA}")
        if self.spectrum == "geometric" and not 0.0 < self.decay <= 1.0:
            raise InvalidParameter("geometric decay must lie in (0, 1]")
        if self.noise < 0 or self.signal_norm < 0:
            raise InvalidParameter("noise and signal_norm must be >= 0")


def _draw_planted(spec: GenSpec, rng: Rng) -> np.ndarray:
    direction = rng.normal(spec.d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction[0] = 1.0
        norm = 1.0
    return spec.signal_norm * direction / norm


def planted_weights(spec: GenSpec) -> np.ndarray:
    """The planted weight vector for a spec (the one generate labels with)."""
    return _draw_planted(spec, Rng(spec.seed, spec.stream))


def generate(spec: GenSpec) -> Dataset:
    """Draw a dataset; deterministic in (seed, stream) per the RNG contract.

    Consumption order on stream ``spec.stream``: planted direction
    (d normals), features (m*d normals), label noise (m normals, drawn
    even when noise == 0 so datasets differing only in noise level share
    features).
    """
    rng = Rng(spec.seed, spec.stream)
    w_true = _draw_planted(spec, rng)

    Z = rng.normal(spec.m * spec.d).reshape(spec.m, spec.d)
    if spec.spectrum == "geometric":
        Z = Z * np.sqrt(spec.decay ** np.arange(spec.d))
    label_noise = rng.normal(spec.m)

    scale = np.linalg.norm(Z, axis=1).max()
    if scale == 0.0:
        scale = 1.0
    X = Z / scale
    y = np.clip(X @ w_true + spec.noise * label_noise, -1.0, 1.0)
    return Dataset(X=X, y=y)


def save(dataset: Dataset, path) -> None:
    """Write the dataset in the sparse text format described above."""
    lines = [f"#dim {dataset.d}\n"]
    for i in range(dataset.m):
        parts = [repr(float(dataset.y[i]))]
        row = dataset.X[i]
        for j in np.flatnonzero(row != 0.0):
            parts.append(f"{j + 1}:{repr(float(row[j]))}")
        lines.append(" ".join(parts) + "\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def load(path, normalize: bool = False) -> Dataset:
    """Parse a dataset file; malformed lines report their line number.

    Invariant violations (feature norm > 1 or |label| > 1) are rejected
    unless ``normalize=True``, which rescales all features by the largest
    norm and all labels by the largest magnitude.
    """
    with open(path) as fh:
        raw = fh.readlines()
    if not raw or not raw[0].startswith("#dim"):
        raise DataFormatError(f"{path}: line 1: expected header '#dim <d>'")
    try:
        d = int(raw[0].split()[1])
    except (IndexError, ValueError):
        raise DataFormatError(f"{path}: line 1: malformed header {raw[0]!r}") from None
    if d < 1:
        raise DataFormatError(f"{path}: line 1: dimension must be >= 1")

    ys: list[float] = []
    rows: list[np.ndarray] = []
    for lineno, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            label = float(parts[0])
        except ValueError:
            raise DataFormatError(
                f"{path}: line {lineno}: bad label {parts[0]!r}"
            ) from None
        row = np.zeros(d)
        seen = set()
        for token in parts[1:]:
            try:
                idx_text, val_text = token.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: bad coordinate {token!r}"
                ) from None
            if not 1 <= idx <= d:
                raise DataFormatError(
                    f"{path}: line {lineno}: index {idx} outside [1, {d}]"
                )
            if idx in seen:
                raise DataFormatError(
                    f"{path}: line {lineno}: duplicate index {idx}"
                )
            seen.add(idx)
            row[idx - 1] = val
        ys.append(label)
        rows.append(row)
    if not rows:
        raise DataFormatError(f"{path}: no data lines")

    X = np.array(rows)
    y = np.array(ys)
    if normalize:
        nmax = np.linalg.norm(X, axis=1).max()
        if nmax > 1.0:
            X = X / nmax
        ymax = np.abs(y).max()
        if ymax > 1.0:
            y = y / ymax
    else:
        nmax = np.linalg.norm(X, axis=1).max()
        if nmax > 1.0 + 1e-12:
            raise DataFormatError(
                f"{path}: feature norm {nmax:.6g} exceeds 1; rerun with normalize"
            )
        if np.abs(y).max() > 1.0 + 1e-12:
            raise DataFormatError(
                f"{path}: label magnitude {np.abs(y).max():.6g} exceeds 1; "
                f"rerun with normalize"
            )
    return Dataset(X=X, y=y)
