"""Span tracing of the library's public entry points, from outside the library.

Nothing in ``src/`` is instrumented.  :func:`install` wraps the public
functions and methods listed in :data:`TARGETS`, patching each one in
every ``shufflegrad`` module namespace that holds it (for example
``shuffle`` inside ``shufflegrad.distributed``), and :func:`uninstall`
puts the originals back.  A target missing from the library is skipped;
metrics that depend only on missing targets are reported as absent.

Every wrapped call is one span (group, name, start, end, parent, round).
A group collects the targets that one metric family reads, such as
``problem.anchor`` for ``full_gradient`` and ``point_gradient_mean``;
its layer is the part before the first dot.  A call nested inside a call
of the same group is part of that call: it adds neither to the group's
call count nor to its inclusive time, and its count hook does not fire.
Self time is a span's duration minus the durations of its direct
children, summed per layer.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from collections import defaultdict
from time import perf_counter_ns


def _layer(group: str) -> str:
    return group.split(".", 1)[0]


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.installed_groups: set[str] = set()
        self.round = -1  # -1 marks set-up

    def _enter(self, group: str, name: str) -> None:
        self._stack.append([len(self.spans), group, name, perf_counter_ns(), 0])
        self.spans.append(None)

    def _exit(self) -> bool:
        """Close the innermost span; True when it is the outermost of its group."""
        end = perf_counter_ns()
        sid, group, name, start, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += dur
        self.self_ns[_layer(group)] += dur - child_ns
        outermost = parent is None or parent[1] != group
        if outermost:
            self.calls[group] += 1
            self.incl_ns[group] += dur
        self.spans[sid] = (sid, parent[0] if parent else -1, group, name,
                           self.round, start, end)
        return outermost

    @contextlib.contextmanager
    def span(self, group: str, name: str | None = None):
        """A span around the benchmark's own code (set-up phases, rounds)."""
        self.installed_groups.add(group)
        self._enter(group, name or group)
        try:
            yield
        finally:
            self._exit()

    def wrap(self, group: str, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = tracer._exit()
            if hook is not None and outermost:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tparent\tgroup\tname\tround\tstart_ns\tend_ns\n")
            for sp in self.spans:
                if sp is not None:
                    fh.write("\t".join(str(v) for v in sp) + "\n")


class NullTracer:
    """Stand-in used with tracing off: spans cost one context manager."""

    def span(self, group, name=None):
        return contextlib.nullcontext()


# --- count hooks: read the paper's cost units off returned objects ----------


def _draws(counts, args, kwargs, result):
    counts["sampling.draws"] += int(getattr(result, "size", 1))


def _anchor_bytes(counts, args, kwargs, result):
    """Computed bytes of X read: rows * d * 8 (full_gradient reads all m rows)."""
    problem = args[0]
    indices = args[2] if len(args) > 2 else kwargs.get("indices")
    rows = problem.m if indices is None else len(indices)
    counts["problem.anchor_bytes"] += rows * problem.d * 8


def _sgd_steps(counts, args, kwargs, result):
    if hasattr(result, "n_seeds"):  # SeedSummary
        steps = result.mean.size * result.n_seeds
    else:  # Trace
        steps = result.suboptimality.size
    counts["sgd.steps"] += steps
    counts["steps"] += steps


def _svrg_evals(counts, args, kwargs, result):
    traces = result if isinstance(result, list) else [result]
    for tr in traces:
        steps = int(tr.stochastic_grad_evals.sum())
        counts["svrg.steps"] += steps
        counts["svrg.anchor_point_evals"] += int(tr.full_grad_point_evals.sum())
        counts["steps"] += steps


def _comm(counts, args, kwargs, result):
    trace, log = result
    counts["distributed.rounds"] += log.rounds
    counts["distributed.floats_moved"] += log.payload_floats
    counts["distributed.retained_bytes"] += sum(
        msg.payload.nbytes for msg in getattr(log, "messages", ())
    )
    counts["steps"] += int(trace.stochastic_grad_evals.sum())


def _file_bytes(counts, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counts["datagen.file_bytes"] += os.path.getsize(path)


_PROBLEMS = ("RidgeProblem", "LipschitzLinearProblem")

# (group, module, attribute path, count hook)
TARGETS = (
    [("rng", "rng", f"Rng.{m}", None) for m in ("below", "u64", "uniform", "normal")]
    + [("sampling.take", "sampling", f"{c}.take", _draws)
       for c in ("WithReplacementSampler", "SingleShuffleSampler", "ReshuffleSampler")]
    + [("sampling.shuffle", "sampling", "shuffle", _draws)]
    + [("problem.anchor", "problem", f"{c}.{m}", _anchor_bytes)
       for c in _PROBLEMS for m in ("full_gradient", "point_gradient_mean")]
    + [("problem.subopt", "problem", f"{c}.{m}", None)
       for c in _PROBLEMS for m in ("suboptimality", "full_objective")]
    + [("sgd", "sgd", f, _sgd_steps) for f in ("run_sgd", "average_suboptimality_over_seeds")]
    + [("svrg", "svrg", f, _svrg_evals) for f in ("run_svrg", "run_svrg_over_streams")]
    + [("distributed.run", "distributed", "run_distributed_svrg", _comm),
       ("distributed.partition", "distributed", "partition", None)]
    + [("datagen.generate", "datagen", "generate", None),
       ("datagen.save", "datagen", "save", _file_bytes),
       ("datagen.load", "datagen", "load", None)]
)


PACKAGE = "shufflegrad"


def install(tracer: Tracer):
    """Wrap every present target; returns an undo list for :func:`uninstall`."""
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    for group, modname, attr, hook in TARGETS:
        module = sys.modules.get(f"{PACKAGE}.{modname}")
        if module is None:
            continue
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(module, clsname, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                continue
            own = meth in cls.__dict__
            undo.append((cls, meth, cls.__dict__.get(meth), own))
            setattr(cls, meth, tracer.wrap(group, attr, original, hook))
        else:
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapped = tracer.wrap(group, f"{modname}.{attr}", original, hook)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    undo.append((mod, attr, original, True))
                    setattr(mod, attr, wrapped)
        tracer.installed_groups.add(group)
    return undo


def uninstall(undo) -> None:
    for owner, attr, original, own in reversed(undo):
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_DRAWS = ("sampling.take", "sampling.shuffle")

# name -> (unit, groups it reads, value from a finished tracer).  Times
# named after a call are inclusive; ``self_s`` is the layer's self time.
LAYER_METRICS = {
    "rng.calls": ("count", ("rng",), lambda t: t.calls["rng"]),
    "rng.self_s": ("s", ("rng",), lambda t: t.self_ns["rng"] / 1e9),
    "sampling.draws": ("count", _DRAWS, lambda t: t.counts["sampling.draws"]),
    "sampling.take_s": ("s", ("sampling.take",), lambda t: t.incl_ns["sampling.take"] / 1e9),
    "sampling.shuffle_s": ("s", ("sampling.shuffle",),
                           lambda t: t.incl_ns["sampling.shuffle"] / 1e9),
    "sampling.ns_per_draw": ("ns", _DRAWS, lambda t: _ratio(
        t.incl_ns["sampling.take"] + t.incl_ns["sampling.shuffle"],
        t.counts["sampling.draws"])),
    "problem.anchor_calls": ("count", ("problem.anchor",), lambda t: t.calls["problem.anchor"]),
    "problem.anchor_s": ("s", ("problem.anchor",), lambda t: t.incl_ns["problem.anchor"] / 1e9),
    "problem.anchor_bytes": ("bytes", ("problem.anchor",),
                             lambda t: t.counts["problem.anchor_bytes"]),
    "problem.subopt_calls": ("count", ("problem.subopt",), lambda t: t.calls["problem.subopt"]),
    "problem.subopt_s": ("s", ("problem.subopt",), lambda t: t.incl_ns["problem.subopt"] / 1e9),
    "problem.subopt_per_step": ("calls/step", ("problem.subopt",),
                                lambda t: _ratio(t.calls["problem.subopt"], t.counts["steps"])),
    "problem.build_s": ("s", ("problem.build",), lambda t: t.incl_ns["problem.build"] / 1e9),
    "problem.reference_s": ("s", ("problem.reference",),
                            lambda t: t.incl_ns["problem.reference"] / 1e9),
    "sgd.steps": ("count", ("sgd",), lambda t: t.counts["sgd.steps"]),
    "sgd.self_s": ("s", ("sgd",), lambda t: t.self_ns["sgd"] / 1e9),
    "sgd.us_per_step": ("us", ("sgd",),
                        lambda t: _ratio(t.self_ns["sgd"] / 1e3, t.counts["sgd.steps"])),
    "svrg.steps": ("count", ("svrg",), lambda t: t.counts["svrg.steps"]),
    "svrg.anchor_point_evals": ("count", ("svrg",),
                                lambda t: t.counts["svrg.anchor_point_evals"]),
    "svrg.self_s": ("s", ("svrg",), lambda t: t.self_ns["svrg"] / 1e9),
    "svrg.us_per_step": ("us", ("svrg",),
                         lambda t: _ratio(t.self_ns["svrg"] / 1e3, t.counts["svrg.steps"])),
    "distributed.rounds": ("count", ("distributed.run",),
                           lambda t: t.counts["distributed.rounds"]),
    "distributed.floats_moved": ("count", ("distributed.run",),
                                 lambda t: t.counts["distributed.floats_moved"]),
    "distributed.retained_bytes": ("bytes", ("distributed.run",),
                                   lambda t: t.counts["distributed.retained_bytes"]),
    "distributed.partition_s": ("s", ("distributed.partition",),
                                lambda t: t.incl_ns["distributed.partition"] / 1e9),
    "distributed.self_s": ("s", ("distributed.run",),
                           lambda t: t.self_ns["distributed"] / 1e9),
    "datagen.generate_s": ("s", ("datagen.generate",),
                           lambda t: t.incl_ns["datagen.generate"] / 1e9),
    "datagen.save_s": ("s", ("datagen.save",), lambda t: t.incl_ns["datagen.save"] / 1e9),
    "datagen.load_s": ("s", ("datagen.load",), lambda t: t.incl_ns["datagen.load"] / 1e9),
    "datagen.file_bytes": ("bytes", ("datagen.save",), lambda t: t.counts["datagen.file_bytes"]),
}

LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
LAYER_UNITS["trace.overhead_frac"] = "ratio"


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric; None where the library lacks all its targets."""
    out = {}
    for name, (_, groups, value) in LAYER_METRICS.items():
        present = any(g in tracer.installed_groups for g in groups)
        out[name] = value(tracer) if present else None
    out["trace.overhead_frac"] = overhead_frac
    return out
