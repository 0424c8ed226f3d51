"""Command-line front end for reproducible experiments.

Subcommands ``gen``, ``sgd``, ``svrg`` and ``dist``; the verification
oracles are library calls, run end to end by ``demos/identity_oracles.py``.
Traces are CSV, or JSON under ``--format json``; every output file embeds
the resolved configuration and the package version, so feeding the same
flags back reproduces the file byte for byte.  Exit codes: 0 success,
1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .datagen import GenSpec, generate, load, save
from .distributed import run_distributed_svrg
from .errors import ShufflegradError
from .problem import RidgeProblem
from .sampling import RESHUFFLE_EACH_EPOCH, SINGLE_SHUFFLE, WITH_REPLACEMENT
from .sgd import (
    FixedStep,
    InverseSqrtStep,
    SGDConfig,
    StronglyConvexStep,
    average_suboptimality_over_seeds,
)
from .svrg import SVRGConfig, epoch_decrease_ratio, recommended_params, run_svrg_over_streams

SAMPLER_FLAGS = {
    "no-replacement": SINGLE_SHUFFLE,
    "with-replacement": WITH_REPLACEMENT,
    "reshuffle": RESHUFFLE_EACH_EPOCH,
}

CSV_SCHEMAS = {
    "sgd": "sgd-trace-v1:t,mean_subopt,se",
    "svrg": "svrg-trace-v1:epoch,mean_subopt,se,mean_max_subopt",
    "dist": "dist-trace-v1:epoch,subopt,max_subopt",
}


def _print_config(args: argparse.Namespace) -> dict:
    """Print the resolved configuration line and return the configuration."""
    cfg = {k: v for k, v in vars(args).items() if k != "func"}
    cfg["artifact_version"] = __version__
    print(f"resolved config: {json.dumps(cfg, sort_keys=True)}")
    return cfg


def _emit(args, columns: list[str], rows, extra: dict | None = None):
    cfg = _print_config(args)
    if args.format == "json":
        doc = {
            "config": cfg,
            "schema": CSV_SCHEMAS[args.command],
            "results": {"columns": columns, "rows": rows, **(extra or {})},
        }
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = [
            f"# shufflegrad {__version__}\n",
            f"# schema: {CSV_SCHEMAS[args.command]}\n",
            f"# config: {json.dumps(cfg, sort_keys=True)}\n",
        ]
        if extra:
            lines.append(f"# summary: {json.dumps(extra, sort_keys=True)}\n")
        lines.append(",".join(columns) + "\n")
        for row in rows:
            lines.append(",".join("" if v is None else str(v) for v in row) + "\n")
        text = "".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def _load_problem(args) -> RidgeProblem:
    dataset = load(args.data, normalize=args.normalize)
    return RidgeProblem(dataset, alpha=args.reg)


def _cmd_gen(args) -> int:
    spec = GenSpec(
        m=args.m,
        d=args.d,
        spectrum=args.spectrum,
        decay=args.decay,
        noise=args.noise,
        signal_norm=args.signal_norm,
        seed=args.seed,
    )
    dataset = generate(spec)
    _print_config(args)
    save(dataset, args.out)
    print(f"wrote {args.out} ({dataset.m} points, dimension {dataset.d})")
    return 0


def _step_rule(args, problem):
    """The step rule of --steps; eta defaults to 0.1 in args, so the config line records it."""
    if args.steps == "strongly-convex":
        return StronglyConvexStep(problem.strong_convexity)
    args.eta = 0.1 if args.eta is None else args.eta
    return (FixedStep if args.steps == "fixed" else InverseSqrtStep)(args.eta)


def _cmd_sgd(args) -> int:
    problem = _load_problem(args)
    if args.radius is None:
        args.radius = 2.0 * max(1.0, float(np.linalg.norm(problem.wstar)))
    config = SGDConfig(
        n_steps=args.T,
        step_rule=_step_rule(args, problem),
        radius=args.radius,
        sampler=SAMPLER_FLAGS[args.sampler],
        seed=args.seed,
    )
    summary = average_suboptimality_over_seeds(problem, config, n_seeds=args.seeds)
    se = summary.stderr
    rows = [
        (t + 1, float(summary.mean[t]), None if se is None else float(se[t]))
        for t in range(args.T)
    ]
    _emit(args, ["t", "mean_subopt", "se"], rows)
    return 0


def _apply_param_rule(args, problem):
    """Set eta, T and S in args, so the config line records them: under
    --eps from the parameter rule, else eta defaults to 0.1."""
    if args.eps is None:
        args.eta = 0.1 if args.eta is None else args.eta
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = recommended_params(problem, args.eps)
    for warning in caught:
        print(f"warning: {warning.message}")
    print(
        f"auto params: eta={params.step_size} T={params.epoch_len} "
        f"S={params.n_epochs} (single-shuffle rule needs m >= 2*S*T = {params.m_required})"
    )
    args.eta, args.T, args.S = params.step_size, params.epoch_len, params.n_epochs


def _cmd_svrg(args) -> int:
    problem = _load_problem(args)
    _apply_param_rule(args, problem)
    config = SVRGConfig(
        step_size=args.eta, epoch_len=args.T, n_epochs=args.S,
        sampler=SAMPLER_FLAGS[args.sampler], seed=args.seed,
    )
    traces = run_svrg_over_streams(problem, config, args.seeds)
    sub = np.stack([t.suboptimality for t in traces])
    worst = np.stack([t.max_suboptimality for t in traces]).mean(axis=0)
    mean = sub.mean(axis=0)
    se = sub.std(axis=0, ddof=1) / np.sqrt(args.seeds) if args.seeds > 1 else None
    rows = [
        (s + 1, float(mean[s]), None if se is None else float(se[s]), float(worst[s]))
        for s in range(args.S)
    ]
    extra = {}
    if args.S >= 2:
        ratios = np.stack([epoch_decrease_ratio(t) for t in traces])
        extra["mean_decrease_ratio"] = float(ratios.mean())
    _emit(args, ["epoch", "mean_subopt", "se", "mean_max_subopt"], rows, extra)
    return 0


def _cmd_dist(args) -> int:
    problem = _load_problem(args)
    _apply_param_rule(args, problem)
    config = SVRGConfig(step_size=args.eta, epoch_len=args.T, n_epochs=args.S, seed=args.seed)
    trace, log = run_distributed_svrg(problem, args.k, config)
    rows = [
        (s + 1, float(trace.suboptimality[s]), float(trace.max_suboptimality[s]))
        for s in range(args.S)
    ]
    extra = {
        "rounds": log.rounds,
        "floats_moved": log.payload_floats,
        "rounds_per_decade": log.rounds_per_decade(trace.chain),
    }
    _emit(args, ["epoch", "subopt", "max_subopt"], rows, extra)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflegrad",
        description="Without-replacement stochastic gradient experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--out", type=str, default=None, help="output file path")

    def trace_command(p):
        """The flags of the commands that write a trace of a ridge run."""
        shared(p)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--data", type=str, required=True)
        p.add_argument("--normalize", action="store_true")
        p.add_argument("--reg", type=float, default=0.1, help="ridge weight")

    def epoch_command(p):
        """The trace flags plus the epoch flags of svrg and dist."""
        trace_command(p)
        p.add_argument("--eta", type=float, default=None, help="step size (default 0.1)")
        p.add_argument("--T", type=int, default=None, dest="T")
        p.add_argument("--S", type=int, default=None, dest="S")
        p.add_argument("--eps", type=float, default=None, help="accuracy that picks eta, T and S")

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    shared(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--spectrum", choices=["uniform", "geometric"], default="uniform")
    p.add_argument("--decay", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--signal-norm", type=float, default=1.0, dest="signal_norm")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sgd", help="projected SGD suboptimality trace")
    trace_command(p)
    p.add_argument("--sampler", choices=sorted(SAMPLER_FLAGS), default="no-replacement")
    p.add_argument("--steps", choices=["strongly-convex", "fixed", "inverse-sqrt"],
                   default="strongly-convex")
    p.add_argument("--eta", type=float, default=None,
                   help="step size for fixed/inverse-sqrt (default 0.1)")
    p.add_argument("--T", type=int, required=True, dest="T")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--radius", type=float, default=None)
    p.set_defaults(func=_cmd_sgd)

    p = sub.add_parser("svrg", help="variance-reduced epochs")
    epoch_command(p)
    p.add_argument("--sampler", choices=sorted(SAMPLER_FLAGS), default="no-replacement")
    p.add_argument("--seeds", type=int, default=1)
    p.set_defaults(func=_cmd_svrg)

    p = sub.add_parser("dist", help="simulated distributed run")
    epoch_command(p)
    p.add_argument("--k", type=int, required=True, help="number of machines")
    p.set_defaults(func=_cmd_dist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The usage rules argparse cannot state.  svrg and dist take eta, T and
    # S either from --eps's parameter rule or from --eta (optional), --T and --S;
    # sgd's strongly convex rule takes no eta.
    usage = None
    if args.command == "gen" and not args.out:
        usage = "gen requires --out <path>"
    elif args.command == "sgd" and args.steps == "strongly-convex" and args.eta is not None:
        usage = "sgd --eta needs --steps fixed or inverse-sqrt"
    elif args.command in ("svrg", "dist") and (
        None in (args.T, args.S) if args.eps is None
        else (args.T, args.S, args.eta) != (None, None, None)
    ):
        usage = f"{args.command} needs --eps, or --T and --S (and optionally --eta) without --eps"
    if usage:
        print(usage, file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ShufflegradError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
