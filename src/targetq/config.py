"""Parsing of the key-value-section text formats: run configs, sweep
configs, designed-schedule files and grid specs. All four are read by one
parser that takes values literally (a ``%`` is text), each inside one error
boundary: any failure reads ``PATH [SECTION]: REASON`` (``PATH: REASON`` for
the whole file) on one line and names only the file at fault, which may be
a grid spec or schedule file a config names. Run and sweep configs and grid
specs refuse any section or key they do not take; schedule files do not, as
``design --out`` writes keys nothing reads. A run config is read as the
one-arm, one-seed experiment it describes.

Schedule specs (shared by configs and the CLI):

* ``fixed K``              constant update period K
* ``geometric K0 [GAMMA]`` period ceil(K0 * GAMMA^(-2n/3)) at cycle n (GAMMA
                           defaults to the environment's discount)
* ``custom K1 K2 ...``     explicit period list
* ``file PATH``            explicit list loaded from a schedule file
* ``adaptive KMIN KMAX``   accuracy-triggered stopping with thresholds n^-2

Step-size specs:

* ``theory``             alpha(k) = 1 / (1 + xi k / 2) with xi = 1/n_pairs
* ``theory XI``          same with an explicit exploration constant
* ``constant A``         constant step size A
"""
from __future__ import annotations

import configparser
import io
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .errors import DomainError
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


class _Located(DomainError):
    """A DomainError whose message already names the file at fault."""


def _reason(exc: Exception) -> str:
    """``exc``'s message on one line, with configparser's framing replaced."""
    if isinstance(exc, KeyError):
        return f"missing key {exc.args[0]!r}"
    if isinstance(exc, OSError) and exc.strerror:
        return exc.strerror
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: no [section] header before {exc.line.strip()!r}"
    if isinstance(exc, configparser.ParsingError):
        return "; ".join(f"line {n}: expected 'key = value'" for n, _ in exc.errors)
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: duplicate section [{exc.section}]"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: duplicate key {exc.option!r} in [{exc.section}]"
    return " ".join(str(exc).split())


@contextmanager
def _errors_in(where, located: bool = True):
    """Raise any failure inside the block as one ``WHERE: REASON`` line. An
    error an inner block located in a file passes unchanged; a spec's block
    is not ``located`` and leaves naming the file to the block around it."""
    try:
        yield
    except _Located:
        raise
    except (ValueError, KeyError, TypeError, OverflowError, OSError, configparser.Error) as exc:
        raise (_Located if located else DomainError)(f"{where}: {_reason(exc)}") from exc


_REWARD_SECTIONS = tuple(f"reward {key}" for key in DEFAULT_REWARDS)
_SHARED_KEYS = {"env", "gamma", "budget", "bias", "eval_horizon", "eval_every"}
_SECTION_KEYS = {"run": _SHARED_KEYS | {"schedule", "step_size", "label", "seed", "cycles"},
                 "sweep": _SHARED_KEYS | {"seeds"}, "arm NAME": {"schedule", "step_size"},
                 "grid": {"rows", "cols", "gamma", "layout"},
                 **dict.fromkeys(_REWARD_SECTIONS, {"kind", "values", "probabilities"})}


def _parse(text: str, kinds: tuple[str, ...], strict: bool = True) -> configparser.ConfigParser:
    """Parse ``text`` and require a section of each kind but "arm NAME".
    If ``strict``, refuse a section whose kind (its name, or "arm NAME" for
    any arm) is not in ``kinds`` and a key that section does not take."""
    # values are taken literally: a '%' is text in every format, not interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    if strict:
        if parser.defaults():
            raise DomainError(f"unknown section [{parser.default_section}]")
        for name in parser.sections():
            kind = "arm NAME" if name.startswith("arm ") else name
            if kind not in kinds:
                raise DomainError(f"unknown section [{name}]")
            unknown = [key for key in parser[name] if key not in _SECTION_KEYS[kind]]
            if unknown:
                raise DomainError(f"unknown key {unknown[0]!r} in [{name}]")
    missing = [kind for kind in kinds if kind != "arm NAME" and kind not in parser]
    if missing:
        raise DomainError(f"needs a [{missing[0]}] section")
    return parser


def _dump(sections: dict[str, dict]) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


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
    """Parse the text format back into a GridSpec; diagnostics name ``path``.
    ``gamma`` overrides the discount after the document is checked, so a bad
    override is the caller's error, not the file's."""
    name = "grid spec" if path is None else path
    with _errors_in(name):
        parser = _parse(text, ("grid", *_REWARD_SECTIONS))
        grid = parser["grid"]
        rewards: dict[str, RewardDistribution] = {}
        for key in DEFAULT_REWARDS:
            entry = parser[f"reward {key}"]
            with _errors_in(f"{name} [reward {key}]"):
                values = tuple(float(v) for v in entry["values"].split(","))
                probs = tuple(float(p) for p in entry["probabilities"].split(","))
                rewards[key] = RewardDistribution(entry["kind"], values, probs)
        with _errors_in(f"{name} [grid]"):
            layout = tuple(part.strip() for part in grid["layout"].split("|"))
            rows, cols = int(grid["rows"]), int(grid["cols"])
            if len(layout) != rows or any(len(row) != cols for row in layout):
                raise DomainError("layout does not match declared rows/cols")
            spec = GridSpec(layout=layout, gamma=float(grid["gamma"]), rewards=rewards)
    return spec if gamma is None else replace(spec, gamma=float(gamma))


# Python raises ValueError, naming no file, for a file name that holds a NUL;
# a diagnostic that echoed the name would carry the NUL to the terminal
_NUL_IN_NAME = "a file name cannot hold a NUL character"


def load_environment(ref: str, gamma: float | None) -> TabularMdp:
    """``gridworld`` for the bundled benchmark (gamma required), otherwise
    a path to a grid-spec file (gamma optional override)."""
    if not ref:  # Path("") is the current directory
        raise DomainError("env is empty: give 'gridworld' or a grid-spec file")
    if "\0" in ref:
        raise DomainError(f"env {ref!r}: {_NUL_IN_NAME}")
    if ref == "gridworld":
        if gamma is None:
            raise DomainError("the bundled gridworld needs an explicit gamma")
        return build_gridworld(gamma)
    with _errors_in(ref):
        text = Path(ref).read_text()
    return build_grid_mdp(load_grid_spec(text, gamma, path=ref))


def parse_schedule_spec(spec: str, gamma: float):
    """Schedule from its spec; ``geometric K0 [GAMMA]`` takes ``gamma`` unless given GAMMA."""
    with _errors_in(f"schedule spec {spec!r}", located=False):
        match spec.split():
            case ["fixed", k]:
                return FixedPeriod(int(k))
            case ["geometric", k0]:
                return GeometricPeriod(int(k0), gamma)
            case ["geometric", k0, g]:
                return GeometricPeriod(int(k0), float(g))
            case ["custom", *ks] if ks:
                return ExplicitPeriod(tuple(int(k) for k in ks))
            case ["file", path]:
                if "\0" in path:
                    raise DomainError(_NUL_IN_NAME)
                return load_schedule_file(path)
            case ["adaptive", k_min, k_max]:
                return AccuracyTriggered(int(k_min), int(k_max))
        raise DomainError("not fixed K, geometric K0, custom K..., file PATH or adaptive KMIN KMAX")


def parse_step_spec(spec: str, mdp: TabularMdp):
    """Step sizes from their spec; bare ``theory`` takes xi = 1/active pairs."""
    with _errors_in(f"step-size spec {spec!r}", located=False):
        match spec.split():
            case ["theory"]:
                return TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
            case ["theory", xi]:
                return TheoryInverseStepSize(float(xi))
            case ["constant", alpha]:
                return ConstantStepSize(float(alpha))
        raise DomainError("not theory, theory XI or constant A")


def dump_schedule_file(periods, meta: dict[str, str]) -> str:
    return _dump({"schedule": {**meta, "periods": " ".join(str(int(k)) for k in periods)}})


def load_schedule_file(path) -> ExplicitPeriod:
    with _errors_in(path):
        section = _parse(Path(path).read_text(), ("schedule",), strict=False)["schedule"]
        with _errors_in(f"{path} [schedule]"):
            schedule = ExplicitPeriod(tuple(int(k) for k in section["periods"].split()))
            if not schedule.ks:  # as a degenerate design writes; ExplicitPeriod(()) itself is valid
                raise DomainError("no periods")
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
    with _errors_in(path):
        section = _parse(Path(path).read_text(), ("run",))["run"]
        with _errors_in(f"{path} [run]"):
            shared = _shared_keys(section)
            arm = _arm(section, section.get("label", "run"), shared["mdp"])
            seed = seed_override if seed_override is not None else section.getint("seed", 0)
            cycles = section.getint("cycles", fallback=None)
    return ExperimentConfig(arms=(arm,), seeds=(seed,), n_cycles=cycles, **shared)


def parse_sweep_config(path) -> ExperimentConfig:
    with _errors_in(path):
        parser = _parse(Path(path).read_text(), ("sweep", "arm NAME"))
        section = parser["sweep"]
        with _errors_in(f"{path} [sweep]"):
            shared = _shared_keys(section)
            match section.get("seeds", "range 2").split():
                case ["range", n]:
                    seeds = range(int(n))
                case parts:
                    seeds = tuple(int(p) for p in parts)
            if shared["sample_budget"] is None:
                raise DomainError("needs a budget")
            if len(seeds) < 2:
                raise DomainError("needs at least 2 seeds for bands")
        arms = []
        for name in parser.sections():
            if name.startswith("arm "):
                with _errors_in(f"{path} [{name}]"):
                    arms.append(_arm(parser[name], name[4:].strip(), shared["mdp"]))
        if not arms:
            raise DomainError("defines no [arm ...] sections")
    return ExperimentConfig(arms=tuple(arms), seeds=seeds, **shared)
