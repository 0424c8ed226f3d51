"""Bitwise digests of shufflegrad's drivers over a fixed grid of runs.

    python tools/bitdigest.py

imports ``shufflegrad`` from the ``src`` of the checkout this file sits
in and prints a first line

    machine openblas=<core> simd=<targets> numpy=<version>

naming what decides the last bits of an output: the OpenBLAS kernel
numpy's bundled library runs (``unknown`` where it cannot be asked),
numpy's enabled SIMD dispatch targets (the list ``np.show_runtime()``
prints as found) and numpy's version.  Then one line ``<driver>
<sha256>`` per driver.  Each digest covers the raw bytes of every float
the driver returns on the grid, its counts, and the type, message and
fields of every error it raises, so two trees print the same lines
exactly when their outputs agree bit for bit.  The ``DivergenceError``
line hashes only the errors of its grid (a run that finishes adds a
marker, not its trace), so it moves only when an error does.

Its output is checked in as ``tests/digests.txt``, whose first line
names the machine it was read on; ``tests/test_digests.py`` compares a
fresh run with it.  A change that moves bits on purpose rewrites the file with

    python tools/bitdigest.py > tests/digests.txt

The grid is small (about a second on one core) and fixed; extending it
changes every later digest, so rewrite the file in the same change.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import sys
import tempfile
import warnings
from dataclasses import replace

# One BLAS thread: a threaded gemv may split rows differently per run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402


def openblas_core() -> str:
    """The core name numpy's bundled OpenBLAS reports, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def machine() -> str:
    """The machine line: OpenBLAS core, enabled SIMD dispatch targets, numpy version."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    simd = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    return f"machine openblas={openblas_core()} simd={simd} numpy={np.__version__}"


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                arr = np.ascontiguousarray(item)
                self._h.update(f"{arr.dtype.str}{arr.shape}".encode())
                self._h.update(arr.tobytes())
            elif isinstance(item, float):
                self._h.update(np.float64(item).tobytes())
            else:
                self._h.update(repr(item).encode())
            self._h.update(b"|")

    def error(self, err):
        self.add(type(err).__name__, str(err))
        for field in ("epoch", "step", "value", "bound"):
            self.add(getattr(err, field, None))

    def hexdigest(self):
        return self._h.hexdigest()


def _svrg_trace(dig, trace):
    dig.add(trace.suboptimality, trace.max_suboptimality, trace.stochastic_grad_evals,
            trace.full_grad_point_evals, trace.initial_suboptimality, trace.final_snapshot)


def _ridge(sg, m, d, seed, alpha, spectrum="uniform"):
    data = sg.generate(sg.GenSpec(m=m, d=d, spectrum=spectrum, decay=0.6,
                                  noise=0.3, seed=seed))
    return sg.RidgeProblem(data, alpha=alpha)


def svrg_digest(sg):
    dig = Digest()
    samplers = (sg.SINGLE_SHUFFLE, sg.RESHUFFLE_EACH_EPOCH, sg.WITH_REPLACEMENT)
    # m and T off multiples of 4 with d >= 8: there a gathered X[idx] @ w
    # rounds some rows differently from the full product (OpenBLAS gemv).
    for d, m, T, S in ((1, 300, 37, 5), (3, 400, 1, 9), (7, 500, 60, 6), (9, 803, 41, 7),
                       (20, 1999, 99, 8)):
        p = _ridge(sg, m, d, seed=10 + d, alpha=0.1, spectrum="geometric")
        for sampler in samplers:
            for eta in (0.05, 0.4):
                cfg = sg.SVRGConfig(step_size=eta, epoch_len=T, n_epochs=S,
                                    sampler=sampler, seed=d)
                _svrg_trace(dig, sg.run_svrg(p, cfg))
        sigma = sg.shuffle(m, sg.Rng(99, d))[::-1]
        cfg = sg.SVRGConfig(step_size=0.2, epoch_len=T, n_epochs=S, seed=3)
        _svrg_trace(dig, sg.run_svrg(p, cfg, sigma=sigma))
        for tr in sg.run_svrg_over_streams(p, cfg, 3):
            _svrg_trace(dig, tr)
    return dig.hexdigest()


def distributed_digest(sg):
    """Each grid case twice: on the default partition, then on explicit
    shards from ``partition`` on the same auxiliary lane, so both ways
    of getting the batch schedule are hashed."""
    dig = Digest()
    for d, m, k, T, S in ((1, 300, 1, 30, 4), (3, 600, 3, 25, 5),
                          (5, 1200, 4, 100, 8), (20, 2003, 4, 41, 6)):
        p = _ridge(sg, m, d, seed=20 + d, alpha=0.05)
        cfg = sg.SVRGConfig(step_size=0.1, epoch_len=T, n_epochs=S, seed=k)
        lane = cfg.stream ^ sg.distributed.AUX_STREAM_BIT
        shards = sg.partition(p.data, k, sg.Rng(cfg.seed, lane))
        for run_shards in (None, shards):
            trace, log = sg.run_distributed_svrg(p, k, cfg, shards=run_shards)
            _svrg_trace(dig, trace)
            dig.add(log.rounds, log.payload_floats)
    return dig.hexdigest()


def _sgd_problems(sg):
    ridge = _ridge(sg, 400, 5, seed=31, alpha=0.1)
    data = sg.generate(sg.GenSpec(m=60, d=3, noise=0.5, seed=32))
    yield ridge, 3.0
    for kind in ("absolute", "hinge"):
        yield sg.LipschitzLinearProblem(data, kind=kind, radius=4.0, alpha=0.05), 4.0
    # alpha = 0: the SGD step skips its shrink factor 1 - eta_t alpha.
    yield sg.LipschitzLinearProblem(data, kind="absolute", radius=4.0, alpha=0.0), 4.0


def _sgd_configs(sg, p, radius):
    # 2 / (lam t) with lam = 1 where the problem is not strongly convex (alpha = 0)
    lam = getattr(p, "strong_convexity", None) or p.alpha or 1.0
    rules = (sg.StronglyConvexStep(lam), sg.InverseSqrtStep(0.5), sg.FixedStep(0.05))
    # Reshuffle runs shorter than m read one epoch of T draws; longer ones, epochs of m.
    lengths = {sg.SINGLE_SHUFFLE: (p.m,), sg.RESHUFFLE_EACH_EPOCH: (1, p.m // 3, p.m + 7),
               sg.WITH_REPLACEMENT: (p.m + 7,)}
    for sampler, steps in lengths.items():
        for T in steps:
            for rad in (radius, 0.2 + float(np.linalg.norm(p.wstar))):
                for rule in rules:
                    yield sg.SGDConfig(n_steps=T, step_rule=rule, radius=rad,
                                       sampler=sampler, seed=5)


def sgd_digest(sg):
    dig = Digest()
    for p, radius in _sgd_problems(sg):
        for cfg in _sgd_configs(sg, p, radius):
            tr = sg.run_sgd(p, cfg, collect_iterates=True)
            dig.add(tr.suboptimality, tr.average_iterate, tr.regret, tr.gradient_evals,
                    tr.iterates)
        sigma = sg.shuffle(p.m, sg.Rng(7, 1))
        cfg = replace(cfg, n_steps=p.m)
        tr = sg.run_sgd(p, cfg, sigma=sigma, reference=np.zeros(p.d))
        dig.add(tr.suboptimality, tr.average_iterate, tr.regret)
    return dig.hexdigest()


def seed_summary_digest(sg):
    dig = Digest()
    for p, radius in _sgd_problems(sg):
        for cfg in _sgd_configs(sg, p, radius):
            summary = sg.average_suboptimality_over_seeds(p, cfg, 4)
            dig.add(summary.mean, summary.stderr, summary.n_seeds)
    # 40 streams in one batch, on a radius tight enough to project.
    for p, _ in _sgd_problems(sg):
        cfg = sg.SGDConfig(n_steps=p.m, step_rule=sg.InverseSqrtStep(2.0),
                           radius=0.2 + float(np.linalg.norm(p.wstar)),
                           sampler=sg.WITH_REPLACEMENT, seed=8)
        summary = sg.average_suboptimality_over_seeds(p, cfg, 40)
        dig.add(summary.mean, summary.stderr, summary.n_seeds)
    return dig.hexdigest()


def suboptimality_digest(sg):
    dig = Digest()
    rng = sg.Rng(41, 0)
    problems = [_ridge(sg, 500, d, seed=40 + d, alpha=0.1) for d in (1, 4, 20)]
    problems += [p for p, _ in _sgd_problems(sg)][1:]
    grid = [(p, n) for p in problems for n in (1, 2, 37, 300)]
    # The kinked benchmark's shape: 16 rows per loss chunk, so 17, 33 and 65 rows
    # end on a one-row chunk; at the former 32 rows, 17 rows are one unfolded
    # chunk.  n is fixed, not derived from LOSS_CHUNK, so the grid stays put
    # when the chunk height moves.  m = 1999 ends on a GEMM edge tile; the
    # ridge problem folds the squared residual's labels too.
    for m, kind, ns in ((2000, "absolute", (17, 33, 65)), (1999, "absolute", (65,)),
                        (2000, "ridge", (65,))):
        data = sg.generate(sg.GenSpec(m=m, d=20, spectrum="geometric", decay=0.7, noise=0.2,
                                      signal_norm=0.8, seed=43))
        p = (sg.RidgeProblem(data, alpha=0.05) if kind == "ridge"
             else sg.LipschitzLinearProblem(data, kind, radius=4.0, alpha=0.05))
        grid += [(p, n) for n in ns]
    for p, n in grid:
        W = 0.3 * rng.normal(n * p.d).reshape(n, p.d)
        dig.add(p.suboptimality(W), p.suboptimality(W[0]), p.full_objective(W))
    return dig.hexdigest()


def reference_digest(sg):
    """The kinked-loss references: wstar, fstar and the duality-gap certificate."""
    dig = Digest()
    for m, d, seed in ((60, 3, 32), (150, 4, 33)):
        data = sg.generate(sg.GenSpec(m=m, d=d, noise=0.5, seed=seed))
        for kind in ("absolute", "hinge"):
            for alpha in (0.0, 0.01, 0.05):
                p = sg.LipschitzLinearProblem(data, kind=kind, radius=6.0, alpha=alpha)
                try:
                    dig.add(p.wstar, p.fstar, getattr(p, "reference_gap", None))
                except sg.ShufflegradError as err:
                    dig.error(err)
    return dig.hexdigest()


def divergence_digest(sg):
    """The errors of runs at growing step sizes; a run that finishes adds only "ok"."""
    dig = Digest()
    p = _ridge(sg, 1000, 3, seed=50, alpha=0.05)
    for eta, T, S in ((250.0, 80, 5), (20.0, 80, 5), (1e4, 3, 5), (1e7, 1, 3),
                      (1e200, 80, 5), (0.1, 80, 5)):
        cfg = sg.SVRGConfig(step_size=eta, epoch_len=T, n_epochs=S, seed=5)
        for run in (lambda: sg.run_svrg(p, cfg), lambda: sg.run_distributed_svrg(p, 2, cfg)):
            try:
                run()
            except sg.ShufflegradError as err:
                dig.error(err)
            else:
                dig.add("ok")
    for eta in (10.0, 1e150, 1e300, sys.float_info.max):
        for radius in (1.0, 1e300, np.inf):
            cfg = sg.SGDConfig(n_steps=300, step_rule=sg.FixedStep(eta), radius=radius,
                               sampler=sg.WITH_REPLACEMENT, seed=6)
            try:
                sg.run_sgd(p, cfg)
            except sg.ShufflegradError as err:
                dig.error(err)
            else:
                dig.add("ok")
    # 40 streams in one batch, of which only stream 33 diverges (at step 294).
    cfg = sg.SGDConfig(n_steps=300, step_rule=sg.FixedStep(36.0), radius=np.inf,
                       sampler=sg.WITH_REPLACEMENT, seed=6)
    try:
        sg.average_suboptimality_over_seeds(p, cfg, 40)
    except sg.ShufflegradError as err:
        dig.error(err)
    else:
        dig.add("ok")
    return dig.hexdigest()


def datagen_digest(sg):
    """The bytes save writes and the arrays load reads back, over dense and sparse rows."""
    dig = Digest()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        # m = 2500 spans several write batches and more than one read chunk;
        # a d = 5000 row alone exceeds a write batch's value budget (decay 1
        # keeps its coordinates clear of underflow, so the dense rows stay dense).
        for m, d, seed, decay in ((1, 1, 60, 0.7), (40, 3, 61, 0.7), (300, 12, 62, 0.7),
                                  (2500, 20, 63, 0.7), (3, 5000, 64, 1.0)):
            data = sg.generate(sg.GenSpec(m=m, d=d, spectrum="geometric", decay=decay,
                                          noise=0.2, seed=seed))
            X = data.X.copy()
            X[::3, ::2] = 0.0
            X[1::4, 1::2] = -0.0
            X[::7] = 0.0
            for ds in (data, sg.Dataset(X=X, y=data.y)):
                sg.save(ds, path)
                with open(path, "rb") as fh:
                    dig.add(np.frombuffer(fh.read(), np.uint8))
                back = sg.load(path)
                dig.add(back.X, back.y)
        with open(path, "w") as fh:
            fh.write("#dim 3\n2.0 1:3.0 3:-4.0\n\n# comment\n-0.5 2:1e-310\n0.25\n")
        back = sg.load(path, normalize=True)
        dig.add(back.X, back.y)
    return dig.hexdigest()


def sampling_digest(sg):
    """Permutations, index schedules and partitions, each with the counter it leaves."""
    dig = Digest()
    for m in (1, 2, 7, 1000, 100_000):
        rng = sg.Rng(90, m)
        dig.add(sg.shuffle(m, rng), rng.counter)
    for kind in (sg.WITH_REPLACEMENT, sg.SINGLE_SHUFFLE, sg.RESHUFFLE_EACH_EPOCH):
        for m, rows, cols in ((50, 4, 7), (100_000, 13, 1800), (400, 3, 100)):
            rng = sg.Rng(91, m)
            dig.add(sg.sampling.schedule(kind, m, rows, cols, rng), rng.counter)
    data = sg.Dataset(X=np.zeros((1003, 1)), y=np.zeros(1003))
    for k in (1, 3, 7):
        rng = sg.Rng(92, k)
        dig.add(*sg.partition(data, k, rng), rng.counter)
    return dig.hexdigest()


def rng_digest(sg):
    """Words, floats, normals and bounded draws, each with the counter it
    leaves; the bounds above 2**63 reject about half of all words."""
    dig = Digest()
    rejecting = np.array([2**63 + 1, 3, 2**63 + 12345, 2**64 - 1, 2**63 + 7, 1], dtype=np.uint64)
    bounds = (rejecting, 1, 7, 2**63 + 2**40 + 5, np.empty(0, dtype=np.uint64),
              np.arange(1, 13, dtype=np.uint64).reshape(3, 4), rejecting.reshape(2, 3))
    for stream in range(8):
        rng = sg.Rng(95, stream)
        dig.add(rng.u64(5), rng.counter, rng.uniform(3), rng.counter, rng.normal(7), rng.counter)
        for b in bounds:
            dig.add(rng.below(b), rng.counter)
    return dig.hexdigest()


def points_digest(sg):
    """One-point and row-subset losses and gradients of every loss kind,
    at random points and at the kinks of the absolute and hinge losses."""
    dig = Digest()
    rng = sg.Rng(96, 0)
    for d in (1, 3, 8, 20, 33):
        data = sg.generate(sg.GenSpec(m=50, d=d, noise=0.5, seed=96 + d))
        # z = w[0] in {0, 1, -1}: residual zero at y = z, hinge margin one at y = 1
        kinks = sg.Dataset(X=np.tile(np.eye(1, d), (6, 1)), y=[1.0, -1.0, 0.0, 1.0, 0.5, 0.0])
        W = np.concatenate([0.4 * rng.normal(3 * d).reshape(3, d), np.eye(3, d), -np.eye(1, d)])
        for ds in (data, kinks):
            idx = rng.below(np.full(17, ds.m, dtype=np.uint64))
            problems = [sg.RidgeProblem(ds, alpha=0.1)]
            problems += [sg.LipschitzLinearProblem(ds, kind, radius=4.0, alpha=alpha)
                         for kind in ("absolute", "hinge") for alpha in (0.0, 0.05)]
            for p in problems:
                for w in W:
                    dig.add(p.point_losses(w), p.point_gradient_rows(w),
                            p.point_losses(w, idx), p.point_gradient_rows(w, idx))
                    for i in idx[:6]:
                        dig.add(p.point_loss(int(i), w), p.point_gradient(i, w))
    return dig.hexdigest()


def _paired_fields(cmp):
    return (cmp.lhs.value, cmp.lhs.stderr, cmp.rhs.value, cmp.rhs.stderr, cmp.gap,
            cmp.gap_stderr)


def oracles_digest(sg):
    """The Monte-Carlo oracles, at m = 6 and at m = 400, where the sign
    rows (m * mc_samples > verify.SIGN_CHUNK) are drawn in chunks."""
    dig = Digest()
    for m, n in ((6, 5000), (400, 1500)):
        rng = sg.Rng(70, m)
        cv = sg.FiniteVectorClass(rng.normal(3 * m).reshape(3, m))
        cs = sg.FiniteVectorClass(rng.uniform(2 * m).reshape(2, m))
        X = rng.normal(m * 4).reshape(m, 4)
        X /= np.linalg.norm(X, axis=1).max()
        split = (m // 2, m - m // 2)
        for cls in (cv, sg.LinearBallClass(X, 1.5)):
            est = sg.rademacher_estimate(cls, split, n, seed=71)
            dig.add(est.value, est.stderr, est.n_samples)
        dig.add(*_paired_fields(sg.contraction_check(cv, [np.tanh] * m, 1.0, split, n, seed=72)))
        dig.add(*_paired_fields(sg.product_class_check(cv, cs, split, n, seed=73)))
    X = sg.Rng(74, 0).normal(60 * 3).reshape(60, 3)
    X /= np.linalg.norm(X, axis=1).max()
    res = sg.matrix_concentration_check(X, 0.05, 4.0, 20, seed=75)
    dig.add(res.violation_rate, res.bound, res.max_deviation_profile, res.thresholds,
            res.gamma, res.mean_matrix)
    return dig.hexdigest()


def exact_oracles_digest(sg):
    """Both exhaustive oracles: the prefix/suffix identity under an
    adaptive value rule, and the decomposition of SGD's suboptimality."""
    dig = Digest()
    for m in (2, 4, 5):
        p = _ridge(sg, m, 2, seed=80 + m, alpha=0.2)

        def rule(prefix, p=p):
            w = np.zeros(p.d)
            for idx in prefix:
                w = w - 0.3 * p.point_gradient(idx, w)
            return p.point_losses(w)

        for t in range(1, m + 1):
            dig.add(*sg.permutation_identity_check(m, t, rule))
    data = sg.generate(sg.GenSpec(m=5, d=2, noise=0.5, seed=84))
    for p, rule in ((_ridge(sg, 5, 2, seed=85, alpha=0.25), sg.StronglyConvexStep(0.25)),
                    (sg.LipschitzLinearProblem(data, "hinge", radius=4.0, alpha=0.05),
                     sg.InverseSqrtStep(0.5))):
        for T in range(1, 6):
            cfg = sg.SGDConfig(n_steps=T, step_rule=rule, radius=4.0)
            res = sg.suboptimality_decomposition_check(p, cfg)
            dig.add(res.lhs, res.regret_term, res.prefix_suffix_term)
    return dig.hexdigest()


DRIVERS = {
    "run_svrg": svrg_digest,
    "run_distributed_svrg": distributed_digest,
    "run_sgd": sgd_digest,
    "SeedSummary": seed_summary_digest,
    "suboptimality": suboptimality_digest,
    "reference": reference_digest,
    "DivergenceError": divergence_digest,
    "datagen": datagen_digest,
    "sampling": sampling_digest,
    "oracles": oracles_digest,
    "exact_oracles": exact_oracles_digest,
    "rng": rng_digest,
    "points": points_digest,
}


def main(argv):
    if len(argv) != 1:
        print("usage: python tools/bitdigest.py", file=sys.stderr)
        return 2
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import shufflegrad as sg

    if os.path.dirname(os.path.dirname(os.path.abspath(sg.__file__))) != src:
        print(f"shufflegrad imported from {sg.__file__}, not from {src}", file=sys.stderr)
        return 1

    warnings.simplefilter("ignore")
    print(machine())
    with np.errstate(all="ignore"):
        for name, digest in DRIVERS.items():
            print(name, digest(sg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
