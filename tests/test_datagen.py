import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflegrad import (Dataset, GenSpec, RidgeProblem, Rng, datagen, generate, load,
                         planted_weights, save)
from shufflegrad import problem as problem_module
from shufflegrad import rng as rng_module
from shufflegrad.errors import DataFormatError, InvalidParameter, ShufflegradError

from conftest import straight_generate, straight_load, straight_save


def test_postconditions():
    ds = generate(GenSpec(m=100, d=10, spectrum="uniform", noise=0.3, seed=0))
    assert ds.m == 100 and ds.d == 10
    assert np.linalg.norm(ds.X, axis=1).max() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(ds.y).max() <= 1.0


def test_determinism():
    spec = GenSpec(m=50, d=4, spectrum="geometric", decay=0.7, noise=0.1, seed=9)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    c = generate(GenSpec(m=50, d=4, spectrum="geometric", decay=0.7, noise=0.1, seed=10))
    assert not np.array_equal(a.X, c.X)


def test_noiseless_recovery():
    # Zero noise, no clipping, full-rank spectrum: exact least squares
    # returns the planted direction.
    spec = GenSpec(m=4000, d=10, spectrum="uniform", noise=0.0, signal_norm=0.9, seed=3)
    ds = generate(spec)
    w_true = planted_weights(spec)
    w_hat = RidgeProblem(ds, alpha=0.0).wstar
    cosine = w_hat @ w_true / (np.linalg.norm(w_hat) * np.linalg.norm(w_true))
    assert np.arccos(np.clip(cosine, -1, 1)) <= 1e-6
    assert np.allclose(w_hat, w_true, atol=1e-8)


def test_geometric_spectrum_conditioning():
    spec = GenSpec(m=100_000, d=8, spectrum="geometric", decay=0.5, seed=4)
    ds = generate(spec)
    evals = np.linalg.eigvalsh(ds.X.T @ ds.X / ds.m)
    ratio = evals[-1] / evals[0]
    target = 2.0**7
    assert target / 2 <= ratio <= target * 2


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        GenSpec(m=0, d=3)
    with pytest.raises(InvalidParameter):
        GenSpec(m=3, d=3, spectrum="banana")
    with pytest.raises(InvalidParameter):
        GenSpec(m=3, d=3, spectrum="geometric", decay=0.0)


def test_roundtrip_bit_exact(tmp_path):
    for seed in range(100):
        ds = generate(GenSpec(m=7, d=5, noise=0.4, seed=seed))
        path = tmp_path / f"ds{seed}.txt"
        save(ds, path)
        back = load(path)
        assert np.array_equal(ds.X, back.X)
        assert np.array_equal(ds.y, back.y)


def test_sparse_line_parsing(tmp_path):
    path = tmp_path / "sparse.txt"
    path.write_text("#dim 8\n1 3:0.5 7:0.25\n")
    ds = load(path)
    assert ds.y[0] == 1.0
    expected = np.zeros(8)
    expected[2], expected[6] = 0.5, 0.25
    assert np.array_equal(ds.X[0], expected)


def test_load_rejects_invariant_violations(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("#dim 2\n2.0 1:0.5\n")
    with pytest.raises(DataFormatError):
        load(path)
    normalized = load(path, normalize=True)
    assert np.abs(normalized.y).max() <= 1.0

    path2 = tmp_path / "bignorm.txt"
    path2.write_text("#dim 2\n0.5 1:3.0 2:4.0\n")
    with pytest.raises(DataFormatError):
        load(path2)
    fixed = load(path2, normalize=True)
    assert np.linalg.norm(fixed.X, axis=1).max() <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "content,fragment",
    [
        ("0.5 1:0.1\n", "header"),
        ("#dimension 2\n0.5 1:0.1\n", "line 1"),
        ("#dim 2 extra\n0.5 1:0.1\n", "line 1"),
        ("#dim 2\nfoo 1:0.1\n", "line 2"),
        ("#dim 2\n0.5 9:0.1\n", "line 2"),
        ("#dim 2\n0.5 1:zzz\n", "line 2"),
        ("#dim 2\n0.5 1:0.1 1:0.2\n", "duplicate"),
        ("#dim 2\n", "no data"),
        ("#dim 4\n0.5 3\n", "line 2: bad coordinate '3'"),
        ("#dim 4\n0.5 1:2:3\n", "line 2: bad coordinate '1:2:3'"),
        ("#dim 4\n0.5 1:\n", "line 2: bad coordinate '1:'"),
        ("#dim 4\n0.5 :0.5\n", "line 2: bad coordinate ':0.5'"),
        ("#dim 4\n0.5 1.0:0.5\n", "line 2: bad coordinate '1.0:0.5'"),
        # A colon-free token beside a two-colon one keeps the colon total.
        ("#dim 4\n0.5 1:0.5:2 0.25\n", "line 2: bad coordinate '1:0.5:2'"),
        ("#dim 4\n0.5 1:0.5\n\n# note\n0.5 2:0.1 2:0.2\n", "line 5: duplicate index 2"),
    ],
)
def test_malformed_files_report_location(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert fragment in str(err.value)


def test_save_skips_zeros(tmp_path):
    ds = Dataset(X=np.array([[0.5, 0.0], [0.0, 0.25]]), y=np.array([1.0, -1.0]))
    path = tmp_path / "z.txt"
    save(ds, path)
    text = path.read_text()
    assert "2:" not in text.splitlines()[1]
    back = load(path)
    assert np.array_equal(back.X, ds.X)


def test_bad_line_after_the_first_read_chunk(tmp_path):
    good = "0.5 1:0.25 2:-0.5\n"
    n_good = datagen.READ_HINT // len(good) + 10
    path = tmp_path / "late.txt"
    path.write_text("#dim 2\n" + good * n_good + "0.5 3:0.1\n" + good)
    with pytest.raises(DataFormatError) as err:
        load(path)
    assert f"line {n_good + 2}: index 3 outside [1, 2]" in str(err.value)


@pytest.mark.parametrize("line", ["nan 1:0.5", "0.5 1:nan", "0.5 2:inf", "-inf 1:0.5"])
@pytest.mark.parametrize("normalize", [False, True])
def test_load_rejects_non_finite(tmp_path, line, normalize):
    path = tmp_path / "nonfinite.txt"
    path.write_text(f"#dim 2\n0.5 1:0.5\n{line}\n")
    with pytest.raises(ShufflegradError) as err:
        load(path, normalize=normalize)
    assert "line 3: non-finite" in str(err.value)


SIGNS = st.sampled_from([1.0, -1.0])
MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-4, 9.999e-5, 1e-300]),
    st.floats(min_value=1e-300, max_value=1.0),
    st.floats(min_value=5e-324, max_value=2.2250738585072014e-308),  # subnormal
)
VALUES = st.builds(lambda s, v: s * v, SIGNS, MAGNITUDES)


@st.composite
def datasets(draw):
    m = draw(st.integers(1, 12))
    d = draw(st.sampled_from([1, 2, 3, 9, 10, 13]))
    zero_row = st.just([0.0] * d)
    rows = draw(st.lists(st.one_of(zero_row, st.lists(VALUES, min_size=d, max_size=d)),
                         min_size=m, max_size=m))
    X = np.array(rows)
    X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1.0)
    y = np.array(draw(st.lists(st.one_of(SIGNS, VALUES), min_size=m, max_size=m)))
    return Dataset(X=X, y=y)


@settings(max_examples=150, deadline=None)
@given(data=datasets(), write_values=st.integers(1, 60), read_hint=st.integers(1, 300))
def test_save_writes_straight_bytes_and_load_inverts_it(tmp_path_factory, data, write_values,
                                                        read_hint):
    # A budget below d + 1 values still writes one row per batch; up to 60
    # values, a batch holds several rows of every d drawn.
    tmp = tmp_path_factory.mktemp("io")
    with mock.patch.object(datagen, "WRITE_VALUES", write_values), \
            mock.patch.object(datagen, "READ_HINT", read_hint):
        save(data, tmp / "a.txt")
        straight_save(data, tmp / "b.txt")
        text = (tmp / "a.txt").read_bytes()
        assert text == (tmp / "b.txt").read_bytes()
        back = load(tmp / "a.txt")
        save(back, tmp / "c.txt")
    assert (tmp / "c.txt").read_bytes() == text
    X, y = straight_load(tmp / "a.txt")
    assert back.X.tobytes() == X.tobytes() == (data.X + 0.0).tobytes()  # -0.0 is not stored
    assert back.y.tobytes() == y.tobytes() == data.y.tobytes()


GOOD_TOKENS = ["1:0.5", "2:-0.25", "3:1e-300", "4:-0.0", "+2:0.1", "1_0:0.1", "02:5e-324"]
BAD_TOKENS = ["0.5", "1:2:3", "1:", ":0.5", "1.0:0.5", "0:0.1", "11:0.1", "2:nan", "3:-inf",
              "99999999999999999999999:1", "x:1", "1:x", ":"]
LINES = st.one_of(
    st.sampled_from(["", "   ", "# comment", "#"]),
    st.builds(lambda sep, label, toks: sep.join([label, *toks]),
              st.sampled_from([" ", "  ", "\t"]),
              st.sampled_from(["0.5", "-1", "1e-5", "-0.0", "foo", "nan", "inf"]),
              st.lists(st.sampled_from(GOOD_TOKENS + BAD_TOKENS), max_size=5)),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(LINES, max_size=12), read_hint=st.integers(1, 60))
def test_load_parses_and_rejects_as_the_straight_loader(tmp_path_factory, lines, read_hint):
    path = tmp_path_factory.mktemp("fuzz") / "f.txt"
    path.write_text("#dim 10\n" + "".join(line + "\n" for line in lines))
    try:
        expected = straight_load(path)
    except DataFormatError as err:
        expected = str(err)
    with mock.patch.object(datagen, "READ_HINT", read_hint):
        try:
            got = load(path)
        except DataFormatError as err:
            got = str(err)
    if isinstance(expected, str):
        assert got == expected
    else:
        X, y = expected
        assert got.X.tobytes() == X.tobytes() and got.y.tobytes() == y.tobytes()


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("spec", [
    GenSpec(m=1, d=1),
    GenSpec(m=10, d=7, spectrum="geometric", decay=0.6, seed=3),
    GenSpec(m=23, d=5, noise=0.4, seed=4, stream=2),
    GenSpec(m=8, d=3, spectrum="geometric", decay=0.5, noise=0.2, seed=6),
    GenSpec(m=15, d=2, seed=7),
])
def test_blocked_generate_matches_the_whole_array_oracle(monkeypatch, block, spec):
    # Odd d makes Box-Muller pairs straddle rows; m is no multiple of the block.
    monkeypatch.setattr(rng_module, "NORMAL_PAIRS", block)
    monkeypatch.setattr(problem_module, "CHECK_ROWS", block)
    made = []

    def recording_rng(*key):
        made.append(Rng(*key))
        return made[-1]

    monkeypatch.setattr(datagen, "Rng", recording_rng)
    data = generate(spec)
    X, y, counter = straight_generate(spec)
    assert data.X.tobytes() == X.tobytes()
    assert data.y.tobytes() == y.tobytes()
    assert made[0].counter == counter


def test_generate_peak_memory_stays_near_the_dataset():
    tracemalloc.start()
    try:
        data = generate(GenSpec(m=50_000, d=20))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (data.X.nbytes + data.y.nbytes)


def test_load_peak_memory_stays_near_the_dataset(tmp_path):
    """save formats a bounded batch of values at a time, load fills one
    preallocated X and y, and ``normalize`` divides the features (saved at
    norm 2 here) and the labels in place."""
    data = generate(GenSpec(m=50_000, d=20, noise=0.5, seed=5))
    path = tmp_path / "data.txt"
    doubled = SimpleNamespace(X=2.0 * data.X, y=2.0 * data.y, d=data.d, m=data.m)
    del data
    tracemalloc.start()
    try:
        save(doubled, path)
        _, save_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak <= 1 << 20
    del doubled
    tracemalloc.start()
    try:
        back = load(path, normalize=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.m == 50_000
    assert peak <= 1.3 * (back.X.nbytes + back.y.nbytes)


# Lines of dimension 3 that are either the dense "1:.. 2:.. 3:.." pattern or
# one token off it, so whole chunks take the dense index path and its
# near misses still parse and fail as the straight loader says.
DENSE_COLUMNS = [["1:0.5", "01:0.5", "+1:0.5", "2:0.5", "1:nan", "1:x", "1:"],
                 ["2:-0.25", "02:-0.25", "1:-0.25", "2:inf", "3:0.1", "2:1:2"],
                 ["3:0.125", "3:-0.0", "4:0.1", "3:5e-324", "0:0.1"]]
NEAR_DENSE_LINES = st.one_of(
    st.builds(lambda label: f"{label} 1:0.5 2:-0.25 3:0.125", st.sampled_from(["0.5", "-1"])),
    st.builds(lambda label, toks: " ".join([label, *toks]),
              st.sampled_from(["0.5", "-1", "nan", "foo"]),
              st.tuples(*map(st.sampled_from, DENSE_COLUMNS)).map(list)
              | st.lists(st.sampled_from(DENSE_COLUMNS[0] + DENSE_COLUMNS[2]), max_size=4)),
    st.sampled_from(["", "# comment"]),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(NEAR_DENSE_LINES, max_size=8), read_hint=st.integers(1, 80))
def test_dense_index_path_parses_and_rejects_as_the_straight_loader(tmp_path_factory, lines,
                                                                   read_hint):
    path = tmp_path_factory.mktemp("dense") / "f.txt"
    path.write_text("#dim 3\n" + "".join(line + "\n" for line in lines))
    try:
        expected = straight_load(path)
    except DataFormatError as err:
        expected = str(err)
    with mock.patch.object(datagen, "READ_HINT", read_hint):
        try:
            got = load(path)
        except DataFormatError as err:
            got = str(err)
    if isinstance(expected, str):
        assert got == expected
    else:
        X, y = expected
        assert got.X.tobytes() == X.tobytes() and got.y.tobytes() == y.tobytes()
