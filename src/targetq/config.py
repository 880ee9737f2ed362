"""Parsing of the key-value-section text formats: run configs, sweep
configs, designed-schedule files and grid specs. All four are read by one
parser that takes values literally (a ``%`` is text), each inside one error
boundary: any failure reads ``PATH [SECTION]: REASON`` (``PATH: REASON`` for
the whole file) on one line and names only the file at fault, which may be
a grid spec or schedule file a config names. All four refuse any section
or key they do not take; a schedule file takes the keys ``design --out``
writes, of which only ``periods`` is read. A run config is read as the
one-arm, one-seed experiment it describes, and both configs are checked
(``ExperimentConfig.violations``) inside their ``[run]`` or ``[sweep]``
boundary.

Every number, and ``bias``, is read from its text by ``_read`` alone and
goes to the library unchanged, so it meets only the library's rule and is
refused in the library's words (``period must be an integer, got 2.5``).

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
from .mdp import RewardDistribution, TabularMdp, _as_int
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


# bias's words, as configparser reads a boolean: true, yes, on, 1, false, ...
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _read(text: str | None, what: str, *, integer: bool = False, boolean: bool = False):
    """The one reader of a value in file text: an int if ``text`` is an
    integer literal, else a float (one of bias's words, in any case, if
    ``boolean``), and an int if ``integer`` (``mdp._as_int``). An absent
    key (``None``) stays None. Text of no such form is refused naming
    ``what``, the key or spec token, and the text."""
    if text is None:
        return None
    for form in (lambda t: _BOOLEANS[t.lower()],) if boolean else (int, float):
        try:
            value = form(text)
        except (KeyError, ValueError):
            continue
        return _as_int(value, what) if integer else value
    kind = "true or false" if boolean else "a number"
    raise DomainError(f"{what} must be {kind}, got {text.strip()!r}")


_REWARD_SECTIONS = tuple(f"reward {key}" for key in DEFAULT_REWARDS)
_SHARED_KEYS = {"env", "gamma", "budget", "bias", "eval_horizon"}
_SECTION_KEYS = {"run": _SHARED_KEYS | {"schedule", "step_size", "label", "seed", "cycles"},
                 "sweep": _SHARED_KEYS | {"seeds"}, "arm NAME": {"schedule", "step_size"},
                 "grid": {"rows", "cols", "gamma", "layout"},
                 "schedule": {"periods", "family", "gamma", "eps", "e0"},
                 **dict.fromkeys(_REWARD_SECTIONS, {"kind", "values", "probabilities"})}


def _parse(text: str, kinds: tuple[str, ...]) -> configparser.ConfigParser:
    """Parse ``text``, require a section of each kind but "arm NAME", and
    refuse a section whose kind (its name, or "arm NAME" for any arm) is not
    in ``kinds`` and a key that section does not take."""
    # values are taken literally: a '%' is text in every format, not interpolation
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
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
                values, probs = (tuple(_read(x, field) for x in entry[field].split(","))
                                 for field in ("values", "probabilities"))
                rewards[key] = RewardDistribution(entry["kind"], values, probs)
        with _errors_in(f"{name} [grid]"):
            layout = tuple(part.strip() for part in grid["layout"].split("|"))
            rows, cols = (_read(grid[key], key, integer=True) for key in ("rows", "cols"))
            if len(layout) != rows or any(len(row) != cols for row in layout):
                raise DomainError("layout does not match declared rows/cols")
            spec = GridSpec(layout=layout, gamma=_read(grid["gamma"], "gamma"), rewards=rewards)
    return spec if gamma is None else replace(spec, gamma=gamma)


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
    spec = load_grid_spec(text, gamma, path=ref)
    with _errors_in(ref):
        return build_grid_mdp(spec)


def parse_schedule_spec(spec: str, gamma: float):
    """Schedule from its spec; ``geometric K0 [GAMMA]`` takes ``gamma`` unless given GAMMA."""
    with _errors_in(f"schedule spec {spec!r}", located=False):
        match spec.split():
            case ["fixed", k]:
                return FixedPeriod(_read(k, "K"))
            case ["geometric", k0]:
                return GeometricPeriod(_read(k0, "K0"), gamma)
            case ["geometric", k0, g]:
                return GeometricPeriod(_read(k0, "K0"), _read(g, "GAMMA"))
            case ["custom", *ks] if ks:
                return ExplicitPeriod(tuple(_read(k, "K") for k in ks))
            case ["file", path]:
                if "\0" in path:
                    raise DomainError(_NUL_IN_NAME)
                return load_schedule_file(path)
            case ["adaptive", k_min, k_max]:
                return AccuracyTriggered(_read(k_min, "KMIN"), _read(k_max, "KMAX"))
        raise DomainError("not fixed K, geometric K0, custom K..., file PATH or adaptive KMIN KMAX")


def parse_step_spec(spec: str, mdp: TabularMdp):
    """Step sizes from their spec; bare ``theory`` takes xi = 1/active pairs."""
    with _errors_in(f"step-size spec {spec!r}", located=False):
        match spec.split():
            case ["theory"]:
                return TheoryInverseStepSize.from_pair_count(mdp.num_active_pairs)
            case ["theory", xi]:
                return TheoryInverseStepSize(_read(xi, "XI"))
            case ["constant", alpha]:
                return ConstantStepSize(_read(alpha, "A"))
        raise DomainError("not theory, theory XI or constant A")


def dump_schedule_file(periods, meta: dict[str, str]) -> str:
    return _dump({"schedule": {**meta, "periods": " ".join(str(int(k)) for k in periods)}})


def load_schedule_file(path) -> ExplicitPeriod:
    with _errors_in(path):
        section = _parse(Path(path).read_text(), ("schedule",))["schedule"]
        with _errors_in(f"{path} [schedule]"):
            schedule = ExplicitPeriod([_read(k, "periods") for k in section["periods"].split()])
            if not schedule.ks:  # as a degenerate design writes; ExplicitPeriod(()) itself is valid
                raise DomainError("no periods")
    return schedule


def _shared_keys(section) -> dict:
    """The keys [run] and [sweep] share, as ExperimentConfig fields."""
    return dict(
        mdp=load_environment(section.get("env", "gridworld"), _read(section.get("gamma"), "gamma")),
        # the one type the config decides: an integer budget, so that no
        # budget such as 1e200 starts a run no budget ends
        sample_budget=_read(section.get("budget"), "budget", integer=True),
        record_bias=_read(section.get("bias", "true"), "bias", boolean=True),
        eval_horizon=_read(section.get("eval_horizon"), "eval_horizon"),
    )


def _arm(section, label: str, mdp: TabularMdp, where: str) -> Arm:
    """An arm from a section's ``schedule`` and ``step_size`` keys; a
    failure reads ``WHERE: REASON``."""
    with _errors_in(where):
        schedule = parse_schedule_spec(section["schedule"], mdp.gamma)
        return Arm(label, schedule, parse_step_spec(section.get("step_size", "theory"), mdp))


def _checked(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg``, or its violations as one ``DomainError`` for the section
    boundary around the call to locate."""
    if problems := cfg.violations():
        raise DomainError("; ".join(problems))
    return cfg


def parse_run_config(path) -> ExperimentConfig:
    """A run config as the one-arm, one-seed experiment it describes."""
    with _errors_in(path):
        section = _parse(Path(path).read_text(), ("run",))["run"]
        with _errors_in(f"{path} [run]"):
            shared = _shared_keys(section)
            arm = _arm(section, section.get("label", "run"), shared["mdp"], f"{path} [run]")
            return _checked(ExperimentConfig(
                arms=(arm,), seeds=(_read(section.get("seed", "0"), "seed"),),
                n_cycles=_read(section.get("cycles"), "cycles"), **shared))


def parse_sweep_config(path) -> ExperimentConfig:
    with _errors_in(path):
        parser = _parse(Path(path).read_text(), ("sweep", "arm NAME"))
        section = parser["sweep"]
        with _errors_in(f"{path} [sweep]"):
            shared = _shared_keys(section)
            match section.get("seeds", "range 2").split():
                case ["range", n]:
                    seeds = range(_read(n, "range N", integer=True))
                case parts:
                    seeds = tuple(_read(p, "seeds") for p in parts)
            if shared["sample_budget"] is None:
                raise DomainError("needs a budget")
            if len(seeds) < 2:
                raise DomainError("needs at least 2 seeds for bands")
            arms = tuple(_arm(parser[name], name[4:].strip(), shared["mdp"], f"{path} [{name}]")
                         for name in parser.sections() if name.startswith("arm "))
            return _checked(ExperimentConfig(arms=arms, seeds=seeds, **shared))
