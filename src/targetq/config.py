"""Parsing of the key-value-section text formats: run configs, sweep
configs, designed-schedule files and grid specs. All four are read by one
parser that takes values literally (a ``%`` is text), and every read or
parse failure surfaces as a ``DomainError`` naming the file or section.
Run and sweep configs and grid specs refuse any section or key they do not
take; schedule files do not, as ``design --out`` writes keys nothing reads.
A run config is read as the one-arm, one-seed experiment it describes.

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
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigValidationError, DomainError
from .gridworld import DEFAULT_REWARDS, GridSpec, build_grid_mdp, build_gridworld
from .harness import Arm, ExperimentConfig
from .mdp import RewardDistribution, TabularMdp
from .schedules import (
    AccuracyTriggered,
    ConstantStepSize,
    ExplicitPeriod,
    FixedPeriod,
    GeometricPeriod,
    TheoryInverseStepSize,
)


@contextmanager
def _malformed(what: str):
    """Report a parse failure inside the block as ``malformed {what}: ...``."""
    try:
        yield
    except (KeyError, ValueError, TypeError, configparser.Error) as exc:
        raise DomainError(f"malformed {what}: {exc}") from exc


def _new_parser() -> configparser.ConfigParser:
    # values are taken literally: a '%' is text in every format, not interpolation
    return configparser.ConfigParser(interpolation=None)


def _read(path, what: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {what} {path}: {exc}") from exc


_REWARD_SECTIONS = tuple(f"reward {key}" for key in DEFAULT_REWARDS)
_SHARED_KEYS = {"env", "gamma", "budget", "bias", "eval_horizon", "eval_every"}
_SECTION_KEYS = {"run": _SHARED_KEYS | {"schedule", "step_size", "label", "seed", "cycles"},
                 "sweep": _SHARED_KEYS | {"seeds"}, "arm NAME": {"schedule", "step_size"},
                 "grid": {"rows", "cols", "gamma", "layout"},
                 **dict.fromkeys(_REWARD_SECTIONS, {"kind", "values", "probabilities"})}


def _parse(text: str, what: str, kinds=None) -> configparser.ConfigParser:
    """Parse ``text``; with ``kinds``, refuse a section whose kind (its
    name, or "arm NAME" for any arm) is not in ``kinds`` and a key that
    section does not take."""
    parser = _new_parser()
    with _malformed(what):
        parser.read_string(text)
    if kinds is None:
        return parser
    if parser.defaults():
        raise DomainError(f"{what}: unknown section [{parser.default_section}]")
    for name in parser.sections():
        kind = "arm NAME" if name.startswith("arm ") else name
        if kind not in kinds:
            raise DomainError(f"{what}: unknown section [{name}]")
        unknown = [key for key in parser[name] if key not in _SECTION_KEYS[kind]]
        if unknown:
            raise DomainError(f"{what}: unknown key {unknown[0]!r} in [{name}]")
    return parser


def _dump(sections: dict[str, dict]) -> str:
    parser = _new_parser()
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _get_section(parser: configparser.ConfigParser, name: str, what: str = "config"):
    if name not in parser:
        raise DomainError(f"{what} needs a [{name}] section")
    return parser[name]


def dump_grid_spec(spec: GridSpec) -> str:
    """Serialize a GridSpec to the key-value section text format."""
    sections = {"grid": {"rows": spec.rows, "cols": spec.cols, "gamma": repr(spec.gamma),
                         "layout": " | ".join(spec.layout)}}
    for key in DEFAULT_REWARDS:
        dist = spec.rewards[key]
        sections[f"reward {key}"] = {
            "kind": dist.kind,
            "values": ", ".join(repr(v) for v in dist.values),
            "probabilities": ", ".join(repr(p) for p in dist.probabilities),
        }
    return _dump(sections)


def load_grid_spec(text: str, gamma: float | None = None, path=None) -> GridSpec:
    """Parse the text format back into a GridSpec.

    ``gamma`` overrides the document's discount; diagnostics name ``path``.
    """
    what, of = ("grid spec", "") if path is None else (f"grid spec {path}", f" of {path}")
    parser = _parse(text, what, ("grid", *_REWARD_SECTIONS))
    grid = _get_section(parser, "grid", what)
    with _malformed(f"[grid] section{of}"):
        layout = tuple(part.strip() for part in grid["layout"].split("|"))
        file_gamma = float(grid["gamma"])
        rows, cols = int(grid["rows"]), int(grid["cols"])
    if len(layout) != rows or any(len(row) != cols for row in layout):
        raise DomainError(f"layout{of} does not match declared rows/cols")
    rewards: dict[str, RewardDistribution] = {}
    for key in DEFAULT_REWARDS:
        entry = _get_section(parser, f"reward {key}", what)
        with _malformed(f"[reward {key}]{of}"):
            values = tuple(float(v) for v in entry["values"].split(","))
            probs = tuple(float(p) for p in entry["probabilities"].split(","))
            rewards[key] = RewardDistribution(entry["kind"], values, probs)
    return GridSpec(
        layout=layout,
        gamma=float(gamma) if gamma is not None else file_gamma,
        rewards=rewards,
    )


def load_environment(ref: str, gamma: float | None) -> TabularMdp:
    """``gridworld`` for the bundled benchmark (gamma required), otherwise
    a path to a grid-spec file (gamma optional override)."""
    if ref == "gridworld":
        if gamma is None:
            raise DomainError("the bundled gridworld needs an explicit gamma")
        return build_gridworld(gamma)
    return build_grid_mdp(load_grid_spec(_read(ref, "grid spec"), gamma=gamma, path=ref))


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


def dump_schedule_file(periods, meta: dict[str, str]) -> str:
    return _dump({"schedule": {**meta, "periods": " ".join(str(int(k)) for k in periods)}})


def load_schedule_file(path) -> ExplicitPeriod:
    what = f"schedule file {path}"
    section = _get_section(_parse(_read(path, "schedule file"), what), "schedule", what)
    with _malformed(what):
        schedule = ExplicitPeriod(tuple(int(k) for k in section["periods"].split()))
    if not schedule.ks:  # as a degenerate design writes; ExplicitPeriod(()) itself is valid
        raise DomainError(f"{what} has no periods")
    return schedule


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
    parser = _parse(_read(path, "config"), f"config {path}", ("run",))
    section = _get_section(parser, "run")
    with _malformed(f"[run] section of {path}"):
        shared = _shared_keys(section)
        arm = _arm(section, section.get("label", "run"), shared["mdp"])
        seed = seed_override if seed_override is not None else section.getint("seed", 0)
        cycles = section.getint("cycles", fallback=None)
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
    parser = _parse(_read(path, "config"), f"config {path}", ("sweep", "arm NAME"))
    section = _get_section(parser, "sweep")
    with _malformed(f"[sweep] section of {path}"):
        shared = _shared_keys(section)
        seeds = _parse_seeds(section.get("seeds", "range 2"))
    if shared["sample_budget"] is None:
        raise DomainError("[sweep] needs a budget")
    if len(seeds) < 2:
        raise DomainError("[sweep] needs at least 2 seeds for bands")
    arms = []
    for name in parser.sections():
        if name.startswith("arm "):
            with _malformed(f"[{name}] section of {path}"):
                arms.append(_arm(parser[name], name[4:].strip(), shared["mdp"]))
    if not arms:
        raise DomainError("sweep config defines no [arm ...] sections")
    return ExperimentConfig(arms=tuple(arms), seeds=seeds, **shared)
