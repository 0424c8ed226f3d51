"""perfbench/tracing.py's targets still name the library's functions.

A traced benchmark run reports a per-layer metric as absent (a null
value, exit status 0) when the library lacks every function the metric's
groups wrap, so a rename in ``src/`` would silently empty a metric.  The
tracer is compiled from its source, not imported, so no bytecode cache is
written next to it.
"""

import sys
import types
from pathlib import Path

import shufflegrad  # noqa: F401  (loads every module the tracer patches)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def library_names():
    """Every module-level and class-level binding of the package's modules."""
    names = {}
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "shufflegrad":
            for attr, value in vars(module).items():
                names[modname, attr] = value
                if isinstance(value, type):
                    names.update(((modname, attr, k), v) for k, v in vars(value).items())
    return names


def test_every_traced_metric_has_its_groups_installed():
    tracing = load_tracing()
    before = library_names()
    tracer = tracing.Tracer()
    tracing.uninstall(tracing.install(tracer))
    assert library_names() == before
    targeted = {group for group, *_ in tracing.TARGETS}
    missing = {
        name: sorted(set(groups) - tracer.installed_groups)
        for name, (_, groups, _) in tracing.LAYER_METRICS.items()
        # groups no target lists are spans the benchmark opens itself
        if set(groups) <= targeted and not set(groups) <= tracer.installed_groups
    }
    assert not missing, f"metrics whose traced functions the library lacks: {missing}"
