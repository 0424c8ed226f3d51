"""Synthetic dataset generation and plain-text serialization.

Generation plants a weight vector, draws features with a chosen
second-moment spectrum, rescales so the largest feature norm is exactly
1, and labels points with the (optionally noisy) planted prediction
clipped to [-1, 1].  The features are drawn straight into the final
array (Box-Muller in counter-addressed blocks, see :mod:`.rng`), scaled
in place and scanned for their largest norm ``problem.CHECK_ROWS`` rows
at a time, so generation holds about the dataset's own bytes; every bit
is that of the whole-array formulas.

The on-disk format is one point per line with 1-based sparse
coordinates, preceded by a dimension header::

    #dim 4
    0.5 1:0.25 3:-0.125
    -1.0 2:0.7071067811865476

Floats are rendered with ``repr``, which is shortest-round-trip for
Python doubles, so save followed by load reproduces every stored value
exactly.  Coordinates equal to zero are not stored (a stored -0.0 would
reload as such, but generated zeros are unsigned).

Both directions stream in bounded chunks: save formats and writes
``WRITE_ROWS`` lines at a time, load reads and parses about
``READ_HINT`` characters of whole lines at a time, checking each chunk
with whole-chunk operations, into arrays sized by a first pass that
counts the lines.  Neither holds the whole text in memory, load holds
one copy of the arrays, and the bytes written and the arrays read do not
depend on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .errors import DataFormatError, InvalidParameter
from .problem import Dataset, max_row_norm
from .rng import Rng

SPECTRA = ("uniform", "geometric")
WRITE_ROWS = 2048  # lines save formats and writes at once
READ_HINT = 1 << 17  # characters of whole lines load parses at once


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

    X = np.empty((spec.m, spec.d))
    rng._normal_into(X.reshape(-1))
    if spec.spectrum == "geometric":
        X *= np.sqrt(spec.decay ** np.arange(spec.d))
    label_noise = rng.normal(spec.m)

    scale = max_row_norm(X)
    if scale == 0.0:
        scale = 1.0
    X /= scale
    y = np.clip(X @ w_true + spec.noise * label_noise, -1.0, 1.0)
    return Dataset(X=X, y=y)


def save(dataset: Dataset, path) -> None:
    """Write the dataset in the sparse text format described above.

    Lines are formatted and written ``WRITE_ROWS`` at a time.  A row with
    no zero goes through one ``%r`` template of all its coordinates; any
    other row is written token by token without its zeros (of either sign).
    """
    X, y = dataset.X, dataset.y
    template = "%r" + "".join(f" {j}:%r" for j in range(1, dataset.d + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"#dim {dataset.d}\n")
        for lo in range(0, dataset.m, WRITE_ROWS):
            block = X[lo : lo + WRITE_ROWS]
            rows = zip(y[lo : lo + WRITE_ROWS].tolist(), block.tolist(),
                       (block != 0.0).all(axis=1).tolist())
            fh.write("".join([template % (label, *row) if dense else _sparse_line(label, row)
                              for label, row, dense in rows]))


def _sparse_line(label: float, row: list) -> str:
    coords = [f"{j}:{v!r}" for j, v in enumerate(row, start=1) if v != 0.0]
    return " ".join([repr(label), *coords]) + "\n"


def load(path, normalize: bool = False) -> Dataset:
    """Parse a dataset file; malformed lines report their line number.

    A first pass counts the lines, so the parsed chunks of about
    ``READ_HINT`` characters fill one preallocated X and y; rows left
    over by blank and comment lines are trimmed.  A label or coordinate
    value that is NaN or infinite is malformed.  Unless
    ``normalize=True``, which first rescales all features by the largest
    norm and all labels by the largest magnitude, in place, the
    :class:`~.problem.Dataset` checks (feature norm <= 1, |label| <= 1)
    decide, and a violation is a :class:`DataFormatError` naming the path.
    """
    with open(path) as fh:
        n_lines = sum(1 for _ in fh)
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#dim"):
            raise DataFormatError(f"{path}: line 1: expected header '#dim <d>'")
        try:
            d = int(header.split()[1])
        except (IndexError, ValueError):
            raise DataFormatError(f"{path}: line 1: malformed header {header!r}") from None
        if d < 1:
            raise DataFormatError(f"{path}: line 1: dimension must be >= 1")
        X, y = np.zeros((n_lines - 1, d)), np.empty(n_lines - 1)
        lineno, m = 2, 0
        while lines := fh.readlines(READ_HINT):
            m += _parse_chunk(lines, d, path, lineno, X[m:], y[m:])
            lineno += len(lines)
    if not m:
        raise DataFormatError(f"{path}: no data lines")
    X, y = X[:m], y[:m]
    if normalize:
        nmax, ymax = max_row_norm(X), np.abs(y).max()
        if nmax > 1.0:
            X /= nmax
        if ymax > 1.0:
            y /= ymax
    try:
        return Dataset(X=X, y=y)
    except InvalidParameter as err:
        raise DataFormatError(f"{path}: {err}; rerun with normalize") from None


def _parse_chunk(lines: list[str], d: int, path, lineno: int, X: np.ndarray,
                 y: np.ndarray) -> int:
    """Parse the data lines among ``lines`` into the leading rows of the
    zeroed X and of y; returns their number.

    The checks run over the whole chunk: every coordinate token holds
    exactly one colon, every label, index and value parses, every label
    and value is finite, and every index is in [1, d] and new on its
    line.  If any fails, the first offending line (``lineno`` is the
    number of ``lines[0]``) raises the error :func:`_line_problem` words.
    """
    rows = [p for p in map(str.split, lines) if p and not p[0].startswith("#")]
    tokens = list(chain.from_iterable([p[1:] for p in rows]))
    # With exactly one colon per token the joined fields alternate index, value.
    if set(map(str.count, tokens, repeat(":"))) <= {1}:
        fields = ":".join(tokens).split(":") if tokens else []
        counts = [len(p) - 1 for p in rows]
        # Rows written without zeros carry the indices "1".."d" in order;
        # a chunk of only such rows needs no int() per index.
        dense = (counts.count(d) == len(rows)
                 and fields[0::2] == [str(j) for j in range(1, d + 1)] * len(rows))
        try:
            labels = np.fromiter(map(float, [p[0] for p in rows]), np.float64, len(rows))
            if dense:
                idx = np.tile(np.arange(1, d + 1), len(rows))
            else:
                idx = np.fromiter(map(int, fields[0::2]), np.intp, len(tokens))
            vals = np.fromiter(map(float, fields[1::2]), np.float64, len(tokens))
        except (ValueError, OverflowError):
            pass
        else:
            pos = np.repeat(np.arange(len(rows)) * d, counts) + (idx - 1)
            valid = np.isfinite(labels).all() and np.isfinite(vals).all()
            if tokens:
                valid = valid and 1 <= idx.min() and idx.max() <= d
                valid = valid and np.bincount(pos).max() == 1
            if valid:
                y[: len(rows)] = labels
                X[: len(rows)].ravel()[pos] = vals
                return len(rows)
    for n, line in enumerate(lines, start=lineno):
        if problem := _line_problem(line, d):
            raise DataFormatError(f"{path}: line {n}: {problem}")
    raise AssertionError(f"{path}: lines {lineno}+ failed a chunk check but no line check")


def _line_problem(line: str, d: int) -> str | None:
    """The first problem of one line, as its error message words it, or None."""
    parts = line.split()
    if not parts or parts[0].startswith("#"):
        return None
    try:
        label = float(parts[0])
    except ValueError:
        return f"bad label {parts[0]!r}"
    if not math.isfinite(label):
        return f"non-finite label {parts[0]!r}"
    seen = set()
    for token in parts[1:]:
        try:
            idx_text, val_text = token.split(":", 1)
            idx = int(idx_text)
            val = float(val_text)
        except ValueError:
            return f"bad coordinate {token!r}"
        if not math.isfinite(val):
            return f"non-finite coordinate {token!r}"
        if not 1 <= idx <= d:
            return f"index {idx} outside [1, {d}]"
        if idx in seen:
            return f"duplicate index {idx}"
        seen.add(idx)
    return None
