"""Command-line interface.

Subcommands:

* ``oracle``    solve an environment's fixed point and print its action
                values at the start state
* ``design``    closed-form update-period design for a target accuracy
* ``run``       one seeded run (a one-arm, one-seed experiment) from a run
                config, optionally to CSV
* ``sweep``     multi-seed, multi-arm experiment from a sweep config
* ``gridworld`` emit the bundled benchmark's environment spec
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    _NUL_IN_NAME,
    dump_grid_spec,
    dump_schedule_file,
    load_environment,
    parse_run_config,
    parse_sweep_config,
)
from .errors import DomainError, IterationLimitError
from .gridworld import ACTION_NAMES, gridworld_spec
from .harness import aggregate, emit_csv, run_experiment
from .mdp import value_iteration_oracle
from .schedules import compute_constants, design_fixed_period, design_growing_period


def _path(text: str) -> Path:
    """A config or output path. Python raises ValueError, not OSError, for a
    file name holding a NUL, and an empty name means the current directory,
    so both are refused here, as usage errors."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(_NUL_IN_NAME)
    if not text:
        raise argparse.ArgumentTypeError("a file name cannot be empty")
    return Path(text)


def _check_out(path: Path | None) -> None:
    """Open an output path once, before a run spends its time on it: append
    mode creates a missing file and truncates none."""
    if path is not None:
        open(path, "a").close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetq",
        description="Tabular Q-learning with frozen targets and designed update schedules.",
    )
    parser.add_argument("--version", action="version", version=f"targetq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser("oracle", help="solve and print the optimal action values")
    oracle.add_argument("--env", default="gridworld", help="'gridworld' or a grid-spec file")
    oracle.add_argument("--gamma", type=float, default=None, help="discount factor")
    oracle.add_argument("--tol", type=float, default=1e-10, help="fixed-point residual tolerance")

    design = sub.add_parser("design", help="design a quasi-optimal update schedule")
    design.add_argument("--env", default="gridworld", help="'gridworld' or a grid-spec file")
    design.add_argument("--gamma", type=float, default=None, help="discount factor")
    design.add_argument("--eps", type=float, required=True, help="target accuracy")
    design.add_argument("--e0", type=float, default=None,
                        help="initial error bound (default: sup |Q*| for a zero start)")
    design.add_argument("--xi", type=float, default=None,
                        help="exploration constant (default: 1/active pairs)")
    design.add_argument("--schedule", choices=("fixed", "growing"), default="growing")
    design.add_argument("--out", type=_path, default=None, help="write a schedule file")

    run = sub.add_parser("run", help="one seeded run from a config file")
    run.add_argument("--config", required=True, type=_path)
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out", type=_path, default=None, help="CSV output path")

    sweep = sub.add_parser("sweep", help="multi-seed experiment from a config file")
    sweep.add_argument("--config", required=True, type=_path)
    sweep.add_argument("--out", type=_path, default=None, help="CSV output path")

    grid = sub.add_parser("gridworld", help="emit the bundled benchmark's grid spec")
    grid.add_argument("--gamma", type=float, default=0.7)
    grid.add_argument("--out", type=_path, default=None)
    return parser


def _cmd_oracle(args) -> int:
    mdp = load_environment(args.env, args.gamma)
    q_star = value_iteration_oracle(mdp, tol=args.tol)
    print(
        f"environment: {args.env} ({mdp.num_states} states, {mdp.num_actions} actions, "
        f"{mdp.num_active_pairs} active pairs)"
    )
    print(f"gamma: {mdp.gamma}")
    start = mdp.start_state
    for a, name in enumerate(ACTION_NAMES):  # every environment is a grid of these four
        print(f"Q*(start, {name}) = {q_star[start, a]:.4f}")
    v = float(np.max(q_star[start]))
    print(f"V*(start) = {v:.4f}")
    return 0


def _cmd_design(args) -> int:
    mdp = load_environment(args.env, args.gamma)
    q_star = value_iteration_oracle(mdp)
    xi = args.xi if args.xi is not None else 1.0 / mdp.num_active_pairs
    constants = compute_constants(mdp, xi, q_star)
    e0 = args.e0 if args.e0 is not None else constants.q_star_sup
    designer = design_fixed_period if args.schedule == "fixed" else design_growing_period
    out = designer(args.eps, e0, constants)
    print(f"family: {out.family}")
    print(f"target accuracy: {out.target_accuracy}")
    print(f"initial error bound: {out.initial_error}")
    print(f"constants: xi={constants.xi:.8g} sigma_sq={constants.sigma_sq:.8g} "
          f"sup|Q*|={constants.q_star_sup:.8g} c1={constants.c1:.8g} c2={constants.c2:.8g} "
          f"mu={constants.mu:.8g} k_min={constants.k_min:.8g}")
    print(f"cycles: {out.n_cycles}")
    if out.n_cycles:
        shown = ", ".join(str(k) for k in out.periods[:8])
        if out.n_cycles > 8:
            shown += f", ... , {out.periods[-1]}"
        print(f"periods: {shown}")
    print(f"predicted cost: {out.predicted_cost}")
    print(f"predicted error bound: {out.predicted_error_bound:.6g}")
    if out.degenerate:
        print("degenerate design: the initial error already meets the target")
    if not out.within_validity:
        print(f"note: eps={out.target_accuracy} is outside the guaranteed validity regime")
    if args.out is not None:
        meta = {
            "family": out.family,
            "gamma": repr(mdp.gamma),
            "eps": repr(out.target_accuracy),
            "e0": repr(out.initial_error),
        }
        args.out.write_text(dump_schedule_file(out.periods, meta))
        print(f"schedule written to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = parse_run_config(args.config)
    if args.seed is not None:  # no file is at fault: run_experiment refuses a bad seed
        cfg = replace(cfg, seeds=(args.seed,))
    _check_out(args.out)
    [[trace]] = run_experiment(cfg).values()  # one arm, one seed
    final = trace.final
    print(f"run '{trace.label}' seed={trace.seed}: {final.cycle} cycles, "
          f"{final.cumulative_cost} samples")
    if final.bias is not None:
        print(f"final bias: {final.bias:.6g}")
    if final.score is not None:
        print(f"final score: {final.score:.6g}")
    if args.out is not None:
        emit_csv({trace.label: aggregate([trace])}, args.out)
        print(f"trace written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = parse_sweep_config(args.config)
    _check_out(args.out)
    results = run_experiment(cfg)
    stats = {label: aggregate(traces) for label, traces in results.items()}
    for label, traces in results.items():
        med = stats[label].bias_median[-1]  # each seed's final bias, carried to the last cost
        shown = f"median final bias {med:.6g} over " if med is not None else ""
        print(f"arm {label}: {shown}{len(traces)} seeds")
    if args.out is not None:
        emit_csv(stats, args.out)
        print(f"aggregate written to {args.out}")
    return 0


def _cmd_gridworld(args) -> int:
    text = dump_grid_spec(gridworld_spec(args.gamma))
    if args.out is not None:
        args.out.write_text(text)
        print(f"grid spec written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "oracle": _cmd_oracle,
    "design": _cmd_design,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "gridworld": _cmd_gridworld,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, OSError, IterationLimitError) as exc:
        named = isinstance(exc, OSError) and exc.filename is not None  # as config errors name it
        print(f"error: {exc.filename}: {exc.strerror}" if named else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
