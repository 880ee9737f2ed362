"""Parsing of the key-value-section text formats: run configs, sweep
configs, and designed-schedule files. A run config is read as the
one-arm, one-seed experiment it describes.

Schedule specs (shared by configs and the CLI):

* ``fixed K``            constant update period K
* ``geometric K0``       period ceil(K0 * gamma^(-2n/3)) at cycle n
* ``custom K1 K2 ...``   explicit period list
* ``file PATH``          explicit list loaded from a schedule file
* ``adaptive KMIN KMAX`` accuracy-triggered stopping with thresholds n^-2

Step-size specs:

* ``theory``             alpha(k) = 1 / (1 + xi k / 2) with xi = 1/n_pairs
* ``theory XI``          same with an explicit exploration constant
* ``constant A``         constant step size A
"""
from __future__ import annotations

import configparser
import io
from pathlib import Path

from .errors import ConfigValidationError, DomainError
from .gridworld import build_gridworld, load_grid_spec, build_grid_mdp
from .harness import Arm, ExperimentConfig
from .mdp import TabularMdp
from .schedules import (
    AccuracyTriggered,
    ConstantStepSize,
    ExplicitPeriod,
    FixedPeriod,
    GeometricPeriod,
    TheoryInverseStepSize,
)


def load_environment(ref: str, gamma: float | None) -> TabularMdp:
    """``gridworld`` for the bundled benchmark (gamma required), otherwise
    a path to a grid-spec file (gamma optional override)."""
    if ref == "gridworld":
        if gamma is None:
            raise DomainError("the bundled gridworld needs an explicit gamma")
        return build_gridworld(gamma)
    text = Path(ref).read_text()
    return build_grid_mdp(load_grid_spec(text, gamma=gamma))


def parse_schedule_spec(spec: str, gamma: float):
    """Schedule from its spec; ``geometric K0`` takes the discount ``gamma``."""
    parts = spec.split()
    if not parts:
        raise DomainError("empty schedule spec")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "fixed" and len(args) == 1:
            return FixedPeriod(int(args[0]))
        if kind == "geometric" and len(args) in (1, 2):
            return GeometricPeriod(int(args[0]), float(args[1]) if len(args) == 2 else gamma)
        if kind == "custom" and args:
            return ExplicitPeriod(tuple(int(a) for a in args))
        if kind == "file" and len(args) == 1:
            return load_schedule_file(args[0])
        if kind == "adaptive" and len(args) == 2:
            return AccuracyTriggered(int(args[0]), int(args[1]))
    except ValueError as exc:
        raise DomainError(f"bad schedule spec {spec!r}: {exc}") from exc
    raise DomainError(f"bad schedule spec {spec!r}")


def parse_step_spec(spec: str, mdp: TabularMdp):
    parts = spec.split()
    if not parts:
        raise DomainError("empty step-size spec")
    try:
        if parts[0] == "theory":
            if len(parts) == 1:
                return TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
            if len(parts) == 2:
                return TheoryInverseStepSize(float(parts[1]))
        if parts[0] == "constant" and len(parts) == 2:
            return ConstantStepSize(float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"bad step-size spec {spec!r}: {exc}") from exc
    raise DomainError(f"bad step-size spec {spec!r}")


def _new_parser() -> configparser.ConfigParser:
    # values are taken literally: a '%' in a label is text, not interpolation
    return configparser.ConfigParser(interpolation=None)


def dump_schedule_file(periods, meta: dict[str, str]) -> str:
    parser = _new_parser()
    section = dict(meta)
    section["periods"] = " ".join(str(int(k)) for k in periods)
    parser["schedule"] = section
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def load_schedule_file(path) -> ExplicitPeriod:
    parser = _new_parser()
    try:
        parser.read_string(Path(path).read_text())
        periods = tuple(int(k) for k in parser["schedule"]["periods"].split())
    except (OSError, KeyError, ValueError, configparser.Error) as exc:
        raise DomainError(f"cannot load schedule file {path}: {exc}") from exc
    label = parser["schedule"].get("family", "custom")
    return ExplicitPeriod(periods, label=f"designed-{label}" if label in ("fixed", "growing") else label)


def _get_section(parser: configparser.ConfigParser, name: str):
    if name not in parser:
        raise DomainError(f"config needs a [{name}] section")
    return parser[name]


def _read_config(path) -> configparser.ConfigParser:
    parser = _new_parser()
    try:
        text = Path(path).read_text()
        parser.read_string(text)
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise DomainError(f"malformed config {path}: {exc}") from exc
    return parser


def _shared_keys(section) -> dict:
    """The keys [run] and [sweep] share, as ExperimentConfig fields."""
    return dict(
        mdp=load_environment(section.get("env", "gridworld"), section.getfloat("gamma")),
        sample_budget=section.getint("budget", fallback=None),
        record_bias=section.getboolean("bias", fallback=True),
        eval_horizon=section.getint("eval_horizon", fallback=None),
        eval_every=section.getint("eval_every", fallback=1),
    )


def _arm(section, label: str, mdp: TabularMdp) -> Arm:
    """An arm from a section's ``schedule`` and ``step_size`` keys."""
    schedule = parse_schedule_spec(section["schedule"], mdp.gamma)
    return Arm(label, schedule, parse_step_spec(section.get("step_size", "theory"), mdp))


def parse_run_config(path, seed_override: int | None = None) -> ExperimentConfig:
    """A run config as the one-arm, one-seed experiment it describes."""
    parser = _read_config(path)
    section = _get_section(parser, "run")
    try:
        shared = _shared_keys(section)
        arm = _arm(section, section.get("label", "run"), shared["mdp"])
        seed = seed_override if seed_override is not None else section.getint("seed", 0)
        cycles = section.getint("cycles", fallback=None)
    except (ValueError, KeyError) as exc:
        raise DomainError(f"malformed [run] section: {exc}") from exc
    if shared["sample_budget"] is None and cycles is None:
        raise DomainError("[run] needs budget or cycles")
    cfg = ExperimentConfig(arms=(arm,), seeds=(seed,), n_cycles=cycles, **shared)
    problems = cfg.violations()
    if problems:
        raise ConfigValidationError(problems)
    return cfg


def _parse_seeds(raw: str) -> tuple[int, ...]:
    parts = raw.split()
    if len(parts) == 2 and parts[0] == "range":
        return tuple(range(int(parts[1])))
    return tuple(int(p) for p in parts)


def parse_sweep_config(path) -> ExperimentConfig:
    parser = _read_config(path)
    section = _get_section(parser, "sweep")
    try:
        shared = _shared_keys(section)
        seeds = _parse_seeds(section.get("seeds", "range 2"))
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed [sweep] section: {exc}") from exc
    if shared["sample_budget"] is None:
        raise DomainError("[sweep] needs a budget")
    if len(seeds) < 2:
        raise DomainError("[sweep] needs at least 2 seeds for bands")
    arms = []
    for name in parser.sections():
        if name.startswith("arm "):
            try:
                arms.append(_arm(parser[name], name[4:].strip(), shared["mdp"]))
            except (ValueError, KeyError) as exc:
                raise DomainError(f"malformed [{name}] section: {exc}") from exc
    if not arms:
        raise DomainError("sweep config defines no [arm ...] sections")
    return ExperimentConfig(arms=tuple(arms), seeds=seeds, **shared)
