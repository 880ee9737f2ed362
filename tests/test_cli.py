import csv
import hashlib
import io
import math
import re
import shlex
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import targetq as tq
from targetq import cli
from targetq.cli import main
from targetq.config import (
    load_schedule_file,
    parse_run_config,
    parse_schedule_spec,
    parse_step_spec,
    parse_sweep_config,
)
from targetq.errors import ConfigValidationError, DomainError


RUN_CFG = """
[run]
env = gridworld
gamma = 0.7
seed = 3
budget = 2000
schedule = fixed 200
step_size = theory
bias = true
eval_horizon = 7
"""

SWEEP_CFG = """
[sweep]
env = gridworld
gamma = 0.7
seeds = 0 1 2
budget = 2500
bias = true
eval_horizon = 7

[arm fixed-200]
schedule = fixed 200
step_size = theory

[arm geo-100]
schedule = geometric 100
step_size = theory
"""


def test_oracle_prints_reference_start_values(capsys):
    assert main(["oracle", "--env", "gridworld", "--gamma", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "Q*(start, right) = 0.0735" in out
    assert "Q*(start, down) = 0.0735" in out
    assert "52 active pairs" in out


def test_oracle_missing_gamma_fails(capsys):
    assert main(["oracle", "--env", "gridworld"]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_flag_exits_2(capsys):
    assert main(["oracle", "--bogus"]) == 2
    assert main(["frobnicate"]) == 2


def test_design_prints_and_emits_schedule(tmp_path, capsys):
    out_path = tmp_path / "sched.txt"
    rc = main([
        "design", "--gamma", "0.7", "--eps", "0.1", "--schedule", "growing",
        "--out", str(out_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cycles: 26" in out
    assert "periods:" in out
    assert "predicted cost:" in out
    bound = float(out.split("predicted error bound:")[1].split()[0])
    assert bound <= 0.1
    sched = load_schedule_file(out_path)
    assert sched.n_cycles == 26


def test_design_degenerate_note(capsys):
    # eps >= 2 e0 needs no periods, however small eps is
    for eps, e0 in (("50", "3"), ("1e-200", "1e-201")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["design", "--gamma", "0.7", "--eps", eps, "--e0", e0])
        assert rc == 0
        captured = capsys.readouterr()
        assert "degenerate design" in captured.out
        assert captured.err == ""


@pytest.mark.parametrize("command, old", [("run", "schedule = fixed 200"),
                                          ("sweep", "schedule = geometric 100")], ids=["run", "sweep"])
def test_degenerate_schedule_file_fails_before_any_run(tmp_path, capsys, monkeypatch, command, old):
    # a degenerate design writes an empty period list; running it would be an empty run
    deg = tmp_path / "deg.ini"
    assert main(["design", "--gamma", "0.7", "--eps", "10", "--out", str(deg)]) == 0
    assert "degenerate design" in capsys.readouterr().out
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "cfg.ini"
    text = RUN_CFG if command == "run" else SWEEP_CFG
    assert old in text
    cfg.write_text(text.replace(old, f"schedule = file {deg}"))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {deg} [schedule]: no periods\n"
    assert "Traceback" not in captured.err
    assert tq.ExplicitPeriod(()).n_cycles == 0  # the library still takes an empty list


@pytest.mark.parametrize("schedule", ["fixed", "growing"])
def test_design_out_of_regime_note_only_on_stdout(capsys, schedule):
    # eps = 1.5 is outside both families' regimes, yet no raw period falls
    # below k_min, so the note claims no clamping
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["design", "--gamma", "0.7", "--eps", "1.5", "--schedule", schedule]) == 0
    captured = capsys.readouterr()
    assert "note: eps=1.5 is outside the guaranteed validity regime\n" in captured.out
    assert "clamped" not in captured.out
    assert captured.err == ""
    mdp = tq.build_gridworld(0.7)
    c = tq.compute_constants(mdp, 1.0 / 52.0, tq.value_iteration_oracle(mdp))
    designer = tq.design_fixed_period if schedule == "fixed" else tq.design_growing_period
    out = designer(1.5, c.q_star_sup, c)
    assert not out.within_validity and min(out.raw_periods) >= c.k_min


def test_run_subcommand_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG)
    out_csv = tmp_path / "run.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out_csv)]) == 0
    rows = list(csv.DictReader(out_csv.read_text().splitlines()))
    assert len(rows) == 11  # initial record + 10 cycles of 200 within 2000
    assert rows[0]["bias_median"] == "3"


@pytest.mark.parametrize("spec", ["adaptive 50 500", "fixed 200"])
def test_run_matches_direct_call(tmp_path, grid07, oracle07, capsys, spec):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG.replace("schedule = fixed 200", f"schedule = {spec}") + "cycles = 3\n")
    via_cli = tmp_path / "cli.csv"
    assert main(["run", "--config", str(cfg), "--out", str(via_cli)]) == 0
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    options = dict(oracle=oracle07, n_cycles=3, sample_budget=2000, eval_horizon=7)
    if spec.startswith("adaptive"):
        direct = tq.run_accuracy_triggered_q(
            tq.new_q_table(grid07), 50, 500, steps, grid07,
            np.random.default_rng(3), **options,
        )
    else:
        direct = tq.run_periodic_q(
            tq.new_q_table(grid07), tq.FixedPeriod(200), steps, grid07,
            np.random.default_rng(3), **options,
        )
    assert len(direct.records) == 4
    direct_csv = tmp_path / "direct.csv"
    tq.emit_csv({direct.label: tq.aggregate([direct])}, direct_csv)
    assert via_cli.read_bytes() == direct_csv.read_bytes()


def test_run_seed_override_changes_trace(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "4", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.parametrize(
    "command, old, new, section, reason",
    [("run", "budget = 2000", "budget = abc", "[run]", "budget must be a number, got 'abc'"),
     ("sweep", "budget = 2500", "budget = abc", "[sweep]", "budget must be a number, got 'abc'"),
     ("sweep", "schedule = geometric 100", "schedule = geometric x", "[arm geo-100]",
      "schedule spec 'geometric x': K0 must be a number, got 'x'")],
    ids=["run", "sweep", "arm"],
)
def test_malformed_config_value_names_the_file(tmp_path, capsys, command, old, new, section,
                                               reason):
    cfg = tmp_path / "bad.ini"
    text = RUN_CFG if command == "run" else SWEEP_CFG
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg} {section}: {reason}\n"


def test_run_malformed_config_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[run]\nenv = gridworld\n")  # no gamma, budget, schedule
    assert main(["run", "--config", str(cfg)]) == 1
    assert "error" in capsys.readouterr().err
    missing = tmp_path / "nope.ini"
    assert main(["run", "--config", str(missing)]) == 1


@pytest.mark.parametrize(
    "line, message",
    [
        ("budget = -5", "sample budget must lie in [1, inf), got -5.0"),
        ("cycles = 0", "cycle count must lie in [1, inf), got 0"),
        ("eval_horizon = -1",
         "evaluation horizon must lie in [0, 1.7976931348623157e+308], got -1"),
        ("schedule = fixed 99999999999999999999999",
         "period must lie below 2**53, got 99999999999999999999999"),
        ("schedule = fixed 9223372036854775807",
         "period must lie below 2**53, got 9223372036854775807"),
        ("schedule = custom 200 9223372036854775807",
         "period must lie below 2**53, got 9223372036854775807"),
        ("schedule = adaptive 99999999999999999999999 99999999999999999999999",
         "period must lie below 2**53, got 99999999999999999999999"),
        ("schedule = adaptive 10 9223372036854775808",
         "period must lie below 2**53, got 9223372036854775808"),
    ],
)
def test_run_invalid_limits_fail_without_traceback(tmp_path, capsys, line, message):
    key = line.split()[0]
    body = "\n".join(l for l in RUN_CFG.splitlines() if not l.startswith(key + " "))
    cfg = tmp_path / "bad.ini"
    cfg.write_text(body + "\n" + line + "\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # eps**2 underflows to 0, so the largest period is inf
        ("design --gamma 0.7 --eps 1e-300",
         "the largest designed period for eps=1e-300, e0=3.0 must lie below 2**53, got inf"),
        ("design --gamma 0.7 --eps 1e-300 --schedule fixed",
         "the largest designed period for eps=1e-300, e0=3.0 must lie below 2**53, got inf"),
        ("design --gamma 0.7 --eps 1e-150", "the largest designed period for eps=1e-150, "
         "e0=3.0 must lie below 2**53, got 1.0789736821201441e+308"),
        ("design --gamma 0.7 --eps nan", "target accuracy must lie in (0, inf), got nan"),
        ("design --gamma 0.7 --eps 0.5 --e0 nan", "initial error must lie in (0, inf), got nan"),
        ("design --gamma 0.7 --eps 0.5 --e0 inf", "initial error must lie in (0, inf), got inf"),
        ("design --gamma 0.7 --eps 0.5 --e0 1e308", "is too large for target accuracy"),
        ("design --gamma 0.7 --eps 1e-10 --e0 1e300", "the largest designed period for "
         "eps=1e-10, e0=1e+300 must lie below 2**53, got 1.078973682120144e+28"),
        # eps / (2 e0) underflows before eps**2 is ever taken
        ("design --gamma 0.7 --eps 1e-300 --e0 1e308", "is too large for target accuracy"),
        ("design --gamma 0.7 --eps 0.5 --xi 1e-200", "rate constants c1, c2 are not finite"),
        ("oracle --gamma 0.7 --tol nan", "tol must lie in (0, inf], got nan"),
        ("gridworld --gamma 1.5", "gamma must lie in [0, 1)"),
    ],
)
def test_bad_numeric_inputs_fail_without_traceback(capsys, argv, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning before the diagnostic
        assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_run_config_lists_every_limit_violation(tmp_path, monkeypatch):
    # the parser checks the limits inside its [run] boundary, before any oracle solve
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[run]\ngamma = 0.7\nschedule = fixed 10\nbudget = 0\ncycles = 0\n"
        "eval_horizon = -2\n"
    )
    with pytest.raises(DomainError) as err:
        parse_run_config(cfg)
    assert str(err.value) == (
        f"{cfg} [run]: sample budget must lie in [1, inf), got 0.0; evaluation horizon must lie "
        "in [0, 1.7976931348623157e+308], got -2; cycle count must lie in [1, inf), got 0")


def test_run_label_with_percent_sign(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG + "label = 50%\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert "run '50%' seed=3" in capsys.readouterr().out


def test_sweep_csv_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG)
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(p1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    rows = list(csv.DictReader(p1.read_text().splitlines()))
    assert {r["arm"] for r in rows} == {"fixed-200", "geo-100"}


# SHA-256 of `targetq sweep` CSVs over fixed, geometric and adaptive arms, an
# arm label csv.writer must quote and a score every cycle; without bias
# every bias field is empty. Update these only with a stated change to the
# CSV or to the traces behind it
_PINNED_SWEEP_CSVS = {
    "true": "823a940958998dc2ddcfe94ea6f7d695dcacd8f3e51763e3e3082bf173bedef6",
    "false": "bfa21ab15418fa1ffd790a717fe66a09c7921af4e08a954038f0b2f9767efc50",
}


@pytest.mark.parametrize("bias", sorted(_PINNED_SWEEP_CSVS))
def test_sweep_csv_bytes_pinned(tmp_path, capsys, bias):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        "[sweep]\nenv = gridworld\ngamma = 0.7\nseeds = 0 1 2\nbudget = 2500\n"
        f"bias = {bias}\neval_horizon = 7\n\n"
        "[arm fixed,200]\nschedule = fixed 200\n\n"
        "[arm geo-100]\nschedule = geometric 100\n\n"
        "[arm adaptive-50-2000]\nschedule = adaptive 50 2000\n"
    )
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    text = out.read_text()
    assert '\n"fixed,200",' in text
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_SWEEP_CSVS[bias]


@pytest.mark.parametrize("seeds", ["5", "range 1"])
def test_one_seed_sweep_fails_before_any_run(tmp_path, capsys, monkeypatch, seeds):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("targetq.harness.run_one", no_run)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG.replace("seeds = 0 1 2", f"seeds = {seeds}"))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg} [sweep]: needs at least 2 seeds for bands\n"


def _no_oracle(*args, **kwargs):
    raise AssertionError("the oracle was solved for a config that cannot run")


# a file's bad seed is the file's fault, even where --seed replaces it; a
# bad --seed is no file's, and only it reads `invalid configuration`
@pytest.mark.parametrize(
    "command, old, new, flags, where, bad",
    [("run", "seed = 3", "seed = -3", [], "{} [run]", "-3"),
     ("run", "seed = 3", "seed = -3", ["--seed", "4"], "{} [run]", "-3"),
     ("run", "seed = 3", "seed = 3", ["--seed", "-1"], "invalid configuration", "-1"),
     ("sweep", "seeds = 0 1 2", "seeds = -1 2", [], "{} [sweep]", "-1")],
    ids=["run-config", "run-config-with-seed-flag", "seed-flag", "sweep-config"],
)
def test_negative_seed_fails_before_the_oracle_solve(tmp_path, capsys, monkeypatch, command, old,
                                                     new, flags, where, bad):
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "cfg.ini"
    text = RUN_CFG if command == "run" else SWEEP_CFG
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == (
        f"error: {where.format(cfg)}: seed must lie in [0, inf), got {bad}\n")


@pytest.mark.filterwarnings("error")
def test_theory_xi_with_infinite_scale_fails_while_parsing(tmp_path, capsys, monkeypatch):
    # 2/xi overflows for xi = 5e-324: every step size would be NaN
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG.replace("step_size = theory", "step_size = theory 5e-324"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {cfg} [run]: step-size spec 'theory 5e-324': "
                   "xi must lie in (0, 1] with 2/xi finite, got 5e-324\n")
    assert tq.TheoryInverseStepSize(1e-300).alphas(2).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("schedule", ["fixed 100", "adaptive 100 100"])
def test_overflowing_run_exits_1_under_either_schedule(tmp_path, capsys, monkeypatch, schedule):
    # default cells paying 1e308 overflow the table within a few cycles; with
    # no bias and no horizon only each cycle's table check sees it
    monkeypatch.chdir(tmp_path)
    default = "kind = two-point\nvalues = -0.08, 0.05\nprobabilities = 0.5, 0.5"
    assert default in GRID_SPEC
    huge = "kind = deterministic\nvalues = 1e308\nprobabilities = 1.0"
    Path("grid.ini").write_text(GRID_SPEC.replace(default, huge))
    text = GRID_RUN_CFG
    for old, new in (("gamma = 0.7", "gamma = 0.9"), ("budget = 2000", "budget = 3000"),
                     ("fixed 200", schedule), ("bias = true", "bias = false"),
                     ("eval_horizon = 7\n", "")):
        text = text.replace(old, new)
    Path("cfg.ini").write_text(text)
    with np.errstate(all="ignore"):  # the overflow warns on its way
        assert main(["run", "--config", "cfg.ini"]) == 1
    assert capsys.readouterr().err == "error: Q-table has non-finite entries on active pairs\n"


def test_gridworld_emit_and_reload(tmp_path, capsys):
    out = tmp_path / "grid.ini"
    assert main(["gridworld", "--gamma", "0.9", "--out", str(out)]) == 0
    spec = tq.load_grid_spec(out.read_text())
    assert spec.gamma == 0.9
    mdp = tq.build_grid_mdp(spec)
    assert mdp.num_active_pairs == 52
    assert main(["gridworld"]) == 0
    assert "[grid]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, message",
    [("values = -0.08, 0.05", "values = -0.08%, 0.05",
      "[reward default]: values must be a number, got '-0.08%'"),
     ("gamma = 0.7", "gamma = 0.7%", "[grid]: gamma must be a number, got '0.7%'"),
     ("kind = two-point", "kind = two-point%",
      "[reward default]: unknown reward kind 'two-point%'")],
    ids=["value", "gamma", "kind"],
)
def test_grid_spec_percent_sign_fails_without_traceback(tmp_path, capsys, old, new, message):
    spec = tmp_path / "grid.ini"
    assert main(["gridworld", "--gamma", "0.7", "--out", str(spec)]) == 0
    text = spec.read_text()
    assert old in text
    spec.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert main(["oracle", "--env", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {spec} {message}\n"


def test_version_flag():
    assert main(["--version"]) == 0


# ---------------------------------------------------------------------------
# Config parsing units


def test_parse_schedule_specs(grid07):
    gamma = grid07.gamma
    assert parse_schedule_spec("fixed 1000", gamma) == tq.FixedPeriod(1000)
    geo = parse_schedule_spec("geometric 500", gamma)
    assert geo == tq.GeometricPeriod(500, 0.7)
    geo2 = parse_schedule_spec("geometric 500 0.9", gamma)
    assert geo2.gamma == 0.9
    custom = parse_schedule_spec("custom 3 5 8", gamma)
    assert custom.ks == (3, 5, 8)
    adaptive = parse_schedule_spec("adaptive 100 1000", gamma)
    assert (adaptive.k_min, adaptive.k_max) == (100, 1000)
    for bad in ("", "fixed", "fixed x", "mystery 3"):
        with pytest.raises(DomainError):
            parse_schedule_spec(bad, gamma)


def test_parse_step_specs(grid07):
    theory = parse_step_spec("theory", grid07)
    assert theory.alphas(1, start=0)[0] == 1.0 and theory.xi == pytest.approx(1 / 52)
    explicit = parse_step_spec("theory 0.25", grid07)
    assert explicit.xi == 0.25
    const = parse_step_spec("constant 0.1", grid07)
    assert const.alphas(1, start=9)[0] == 0.1
    with pytest.raises(DomainError):
        parse_step_spec("constant", grid07)


def test_parse_run_and_sweep_configs(tmp_path):
    run_path = tmp_path / "run.ini"
    run_path.write_text(RUN_CFG)
    cfg = parse_run_config(run_path)
    assert cfg.seeds == (3,)
    assert cfg.sample_budget == 2000
    assert isinstance(cfg.arms[0].schedule, tq.FixedPeriod)
    assert cfg.n_cycles is None

    sweep_path = tmp_path / "sweep.ini"
    sweep_path.write_text(SWEEP_CFG)
    sweep = parse_sweep_config(sweep_path)
    assert [arm.label for arm in sweep.arms] == ["fixed-200", "geo-100"]
    assert sweep.seeds == (0, 1, 2)
    assert sweep.arms[1].schedule.gamma == 0.7


@pytest.mark.parametrize(
    "line, message",
    [("schedule = mystery 3", "schedule spec 'mystery 3': not fixed K, geometric K0, custom K..., "
                              "file PATH or adaptive KMIN KMAX"),
     ("step_size = constant 2",
      "step-size spec 'constant 2': step size must lie in (0, 1], got 2.0"),
     ("step_size = theory x", "step-size spec 'theory x': XI must be a number, got 'x'")],
    ids=["unknown-schedule", "constant-out-of-range", "theory-not-a-number"],
)
def test_sweep_bad_arm_named_in_diagnostic(tmp_path, capsys, line, message):
    key = line.split()[0]
    head, geo = SWEEP_CFG.split("[arm geo-100]")
    geo = "\n".join(l for l in geo.splitlines() if not l.startswith(key + " "))
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"{head}[arm geo-100]{geo}\n{line}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg} [arm geo-100]: {message}\n"


@pytest.mark.parametrize(
    "command, old, new, message",
    [("run", "eval_horizon = 7", "eval_horizn = 7", "unknown key 'eval_horizn' in [run]"),
     ("sweep", "schedule = geometric 100\nstep_size = theory",
      "schedule = geometric 100\nstep_sise = constant 0.5",
      "unknown key 'step_sise' in [arm geo-100]"),
     ("sweep", "[arm geo-100]", "[arms geo-100]", "unknown section [arms geo-100]"),
     ("sweep", "[arm geo-100]", "[arm]", "unknown section [arm]"),
     ("sweep", "seeds = 0 1 2", "seeds = 0 1 2\nseed = 4", "unknown key 'seed' in [sweep]"),
     ("run", "[run]", "[arm a]\nschedule = fixed 5\n[run]", "unknown section [arm a]"),
     ("run", "[run]", "[DEFAULT]\neval_horizon = 3\n[run]", "unknown section [DEFAULT]")],
    ids=["run-key", "arm-key", "arm-section", "unnamed-arm", "sweep-key", "run-extra-section",
         "default-section"],
)
def test_config_typo_fails_before_any_run(tmp_path, capsys, monkeypatch, command, old, new,
                                          message):
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    text = RUN_CFG if command == "run" else SWEEP_CFG
    assert old in text
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"


def test_readme_config_examples_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = {block.split("\n", 1)[0]: block
              for block in re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)}
    run_path, sweep_path = tmp_path / "run.ini", tmp_path / "sweep.ini"
    run_path.write_text(blocks["[run]"])
    sweep_path.write_text(blocks["[sweep]"])
    run = parse_run_config(run_path)
    assert (run.mdp.gamma, run.seeds, run.sample_budget) == (0.7, (3,), 2_000_000)
    assert run.arms[0].schedule == tq.FixedPeriod(1000)
    assert (run.eval_horizon, run.record_bias) == (7, True)
    sweep = parse_sweep_config(sweep_path)
    assert [arm.label for arm in sweep.arms] == ["fixed-1e3", "geometric-1e3"]
    assert sweep.seeds == (0, 1, 2)


def test_readme_library_quickstart_runs(capsys):
    # the Python block under "Library quickstart" runs as written and prints
    # finite numbers
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quickstart = readme.split("## Library quickstart", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", quickstart.split("\n## ", 1)[0], flags=re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 5 and all(math.isfinite(float(x)) for x in printed)


def test_readme_run_example_scores_at_a_huge_horizon(tmp_path, capsys):
    # scoring does bounded work, so the fuzz's huge horizon runs in full
    cfg = tmp_path / "run.ini"
    huge = README_INI["[run]"].replace("eval_horizon = 7", "eval_horizon = 99999999999999999999999")
    assert huge != README_INI["[run]"]
    cfg.write_text(huge)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "final score: " in out


def test_parse_sweep_range_seeds(tmp_path):
    text = SWEEP_CFG.replace("seeds = 0 1 2", "seeds = range 5")
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    assert parse_sweep_config(path).seeds == range(5)


def test_long_seed_range_is_checked_by_its_bounds(tmp_path):
    # the seeds stay a range, so parsing and checking cost nothing per seed
    path = tmp_path / "sweep.ini"
    path.write_text(SWEEP_CFG.replace("seeds = 0 1 2", "seeds = range 3000000"))
    cfg = parse_sweep_config(path)
    assert isinstance(cfg.seeds, range) and cfg.seeds == range(3_000_000)
    assert cfg.violations() == []


def test_schedule_file_roundtrip(tmp_path, grid07, oracle07):
    c = tq.compute_constants(grid07, 1 / 52, oracle07)
    design = tq.design_growing_period(0.5, 3.0, c)
    from targetq.config import dump_schedule_file

    path = tmp_path / "sched.ini"
    path.write_text(dump_schedule_file(design.periods, {"family": design.family}))
    sched = load_schedule_file(path)
    assert sched.ks == design.periods
    parsed = parse_schedule_spec(f"file {path}", grid07.gamma)
    assert parsed.ks == design.periods


@pytest.mark.parametrize("command", ["run --config", "sweep --config", "oracle --gamma 0.7 --env"],
                         ids=["run --config-config", "sweep --config-config",
                              "oracle --gamma 0.7 --env-grid spec"])
def test_non_utf8_file_named_in_diagnostic(tmp_path, capsys, command):
    path = tmp_path / "latin1.ini"
    path.write_bytes(RUN_CFG.encode() + b"label = caf\xe9\n")
    assert main([*command.split(), str(path)]) == 1
    err = capsys.readouterr().err
    position = len(RUN_CFG.encode()) + len("label = caf")
    assert err == (f"error: {path}: 'utf-8' codec can't decode byte 0xe9 in position {position}: "
                   "invalid continuation byte\n")


@pytest.mark.parametrize(
    "old, new, message",
    [("[grid]\n", "[grid]\nlayuot = x\n", "{}: unknown key 'layuot' in [grid]"),
     ("[reward goal]\n", "[reward hazzard]\nkind = deterministic\n\n[reward goal]\n",
      "{}: unknown section [reward hazzard]"),
     ("[reward goal]\n", "[reward goal]\nprobabilites = 1.0\n",
      "{}: unknown key 'probabilites' in [reward goal]"),
     ("[grid]\n", "[DEFAULT]\nkind = two-point\n\n[grid]\n", "{}: unknown section [DEFAULT]"),
     ("rows = 4\n", "rows = four\n", "{} [grid]: rows must be a number, got 'four'")],
    ids=["grid-key", "reward-section", "reward-key", "default-section", "grid-value"],
)
def test_grid_spec_typo_refused(tmp_path, capsys, old, new, message):
    text = tq.dump_grid_spec(tq.gridworld_spec(0.7))
    assert old in text
    spec = tmp_path / "grid.ini"
    spec.write_text(text.replace(old, new, 1))
    assert main(["oracle", "--env", str(spec)]) == 1
    assert capsys.readouterr().err == f"error: {message.format(spec)}\n"
    spec.write_text(text)  # the unedited spec still loads
    assert main(["oracle", "--env", str(spec)]) == 0


# ---------------------------------------------------------------------------
# One diagnostic per bad input file: `error: PATH [SECTION]: REASON` on one
# line, naming only the file at fault. A config's limits (budget, horizon,
# seeds, labels) are checked inside its [run] or [sweep] boundary too.

GRID_SPEC = tq.dump_grid_spec(tq.gridworld_spec(0.7))
GRID_RUN_CFG = RUN_CFG.replace("env = gridworld", "env = grid.ini")
EMPTY_SCHEDULE = "[schedule]\nfamily = growing\nperiods = \n"
ZERO_PERIOD = "[schedule]\nperiods = 0 5\n"
NOT_UTF8 = RUN_CFG.encode() + b"label = caf\xe9\n"
NOT_UTF8_REASON = (f": 'utf-8' codec can't decode byte 0xe9 in position "
                   f"{len(RUN_CFG) + len('label = caf')}: invalid continuation byte")
OVERFLOW = "period must lie below 2**53, got"


def _cfg(base, old, new, **other):
    """Files for one case: ``cfg.ini`` is ``base`` with one edit; ``other``
    maps a file stem to its text (``zero="..."`` writes ``zero.ini``)."""
    assert old in base
    return {"cfg.ini": base.replace(old, new, 1), **{f"{k}.ini": v for k, v in other.items()}}


def _grid(old, new):
    assert old in GRID_SPEC
    return {"grid.ini": GRID_SPEC.replace(old, new, 1)}


BAD_INPUT_FILES = [
    # (command, files, culprit, rest of the diagnostic after the culprit); a
    # bare command reads cfg.ini (grid.ini for oracle), a longer one is the argv
    pytest.param("run", _cfg(RUN_CFG, "fixed 200", "file zero.ini", zero=ZERO_PERIOD), "zero.ini",
                 " [schedule]: period must lie in [1, inf), got 0", id="schedule-file-period-0"),
    pytest.param("run", {"cfg.ini": GRID_RUN_CFG, **_grid("rows = 4", "rows = four")}, "grid.ini",
                 " [grid]: rows must be a number, got 'four'", id="grid-rows-four"),
    pytest.param("run", {"cfg.ini": "x = 1\n"}, "cfg.ini",
                 ": line 1: no [section] header before 'x = 1'", id="no-section-header"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "seeds = 0 1 2", "seeds = range 99999999999999999999"),
                 "cfg.ini", " [sweep]: Python int too large to convert to C ssize_t",
                 id="seed-range-overflow"),
    pytest.param("sweep", {"cfg.ini": SWEEP_CFG + "\n[arm a]\nstep_size = theory\n"}, "cfg.ini",
                 " [arm a]: missing key 'schedule'", id="arm-without-schedule"),
    pytest.param("oracle", _grid("gamma = 0.7", "gamma = 1.5"), "grid.ini",
                 " [grid]: gamma must lie in [0, 1), got 1.5", id="grid-gamma"),
    pytest.param("oracle", _grid("values = -2.1, 2.0", "values = -1e200, 1e200"), "grid.ini",
                 " [reward stochastic]: reward mean and variance must be finite, "
                 "got values -1e+200, 1e+200", id="grid-reward-variance-overflow"),
    pytest.param("oracle", _grid("S.B.", "X.B."), "grid.ini",
                 " [grid]: unknown layout characters: ['X']", id="grid-layout"),
    pytest.param("oracle", _grid("kind = two-point", "kind = three"), "grid.ini",
                 " [reward default]: unknown reward kind 'three'", id="grid-reward-kind"),
    pytest.param("run", {"cfg.ini": ""}, "cfg.ini", ": needs a [run] section",
                 id="empty-run-config"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "budget = 2500\n", ""), "cfg.ini",
                 " [sweep]: needs a budget", id="sweep-no-budget"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "seeds = 0 1 2", "seeds = 5"), "cfg.ini",
                 " [sweep]: needs at least 2 seeds for bands", id="sweep-one-seed"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "seeds = 0 1 2", "seeds = range 1"), "cfg.ini",
                 " [sweep]: needs at least 2 seeds for bands", id="sweep-range-1"),
    pytest.param("sweep", {"cfg.ini": SWEEP_CFG.split("[arm")[0]}, "cfg.ini",
                 " [sweep]: no arms configured", id="sweep-no-arms"),
    pytest.param("run", {"cfg.ini": RUN_CFG + "[run]\n"}, "cfg.ini",
                 ": line 11: duplicate section [run]", id="duplicate-section"),
    pytest.param("run", {"cfg.ini": RUN_CFG + "gamma = 0.9\n"}, "cfg.ini",
                 ": line 11: duplicate key 'gamma' in [run]", id="duplicate-key"),
    pytest.param("run", {"cfg.ini": RUN_CFG + "foo\n"}, "cfg.ini",
                 ": line 11: expected 'key = value'", id="not-key-value"),
    pytest.param("run", _cfg(GRID_RUN_CFG, "gamma = 0.7", "gamma = 1.5", grid=GRID_SPEC), "cfg.ini",
                 " [run]: gamma must lie in [0, 1), got 1.5", id="run-gamma-over-grid"),
    pytest.param("run", {}, "cfg.ini", ": No such file or directory", id="missing-config"),
    pytest.param("run", {"cfg.ini": GRID_RUN_CFG}, "grid.ini", ": No such file or directory",
                 id="missing-grid-spec"),
    pytest.param("run", _cfg(RUN_CFG, "fixed 200", "file none.ini"), "none.ini",
                 ": No such file or directory", id="missing-schedule-file"),
    pytest.param("run", _cfg(RUN_CFG, "fixed 200", "fixed 0"), "cfg.ini",
                 " [run]: schedule spec 'fixed 0': period must lie in [1, inf), got 0",
                 id="fixed-0"),
    pytest.param("run", _cfg(RUN_CFG, "fixed 200", "file typo.ini", typo="[schedule]\nperods = 5\n"),
                 "typo.ini", ": unknown key 'perods' in [schedule]", id="schedule-file-key-typo"),
    pytest.param("run", _cfg(RUN_CFG, "fixed 200", "file deg.ini", deg=EMPTY_SCHEDULE), "deg.ini",
                 " [schedule]: no periods", id="run-degenerate-schedule-file"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "geometric 100", "file deg.ini", deg=EMPTY_SCHEDULE),
                 "deg.ini", " [schedule]: no periods", id="sweep-degenerate-schedule-file"),
    pytest.param("run", _cfg(RUN_CFG, "budget = 2000", "budget = abc"), "cfg.ini",
                 " [run]: budget must be a number, got 'abc'", id="run-budget-abc"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "budget = 2500", "budget = abc"), "cfg.ini",
                 " [sweep]: budget must be a number, got 'abc'", id="sweep-budget-abc"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "geometric 100", "geometric x"), "cfg.ini",
                 " [arm geo-100]: schedule spec 'geometric x': K0 must be a number, got 'x'",
                 id="arm-geometric-x"),
    pytest.param("run", {"cfg.ini": "[run]\nenv = gridworld\n"}, "cfg.ini",
                 " [run]: the bundled gridworld needs an explicit gamma",
                 id="gridworld-without-gamma"),
    *[pytest.param("run", _cfg(RUN_CFG, "fixed 200", spec), "cfg.ini",
                   f" [run]: schedule spec '{spec}': {OVERFLOW} {period}", id=spec)
      for spec, period in [("fixed 99999999999999999999999", 99999999999999999999999),
                           ("fixed 9223372036854775807", 9223372036854775807),
                           ("custom 200 9223372036854775807", 9223372036854775807),
                           ("adaptive 99999999999999999999999 99999999999999999999999",
                            99999999999999999999999),
                           ("adaptive 10 9223372036854775808", 9223372036854775808)]],
    pytest.param("run", _cfg(RUN_CFG, "step_size = theory", "step_size = theory 5e-324"), "cfg.ini",
                 " [run]: step-size spec 'theory 5e-324': xi must lie in (0, 1] with 2/xi finite, "
                 "got 5e-324", id="theory-5e-324"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "geometric 100", "mystery 3"), "cfg.ini",
                 " [arm geo-100]: schedule spec 'mystery 3': not fixed K, geometric K0, "
                 "custom K..., file PATH or adaptive KMIN KMAX", id="arm-unknown-schedule"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "geometric 100\nstep_size = theory",
                               "geometric 100\nstep_size = constant 2"), "cfg.ini",
                 " [arm geo-100]: step-size spec 'constant 2': "
                 "step size must lie in (0, 1], got 2.0",
                 id="arm-constant-2"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "geometric 100\nstep_size = theory",
                               "geometric 100\nstep_size = theory x"), "cfg.ini",
                 " [arm geo-100]: step-size spec 'theory x': XI must be a number, got 'x'",
                 id="arm-theory-x"),
    pytest.param("run", _cfg(RUN_CFG, "eval_horizon = 7", "eval_horizn = 7"), "cfg.ini",
                 ": unknown key 'eval_horizn' in [run]", id="run-key-typo"),
    pytest.param("run", {"cfg.ini": RUN_CFG + "eval_every = 1\n"}, "cfg.ini",
                 ": unknown key 'eval_every' in [run]", id="run-eval-every"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "eval_horizon = 7", "eval_horizon = 7\neval_every = 1"),
                 "cfg.ini", ": unknown key 'eval_every' in [sweep]", id="sweep-eval-every"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "geometric 100\nstep_size", "geometric 100\nstep_sise"),
                 "cfg.ini", ": unknown key 'step_sise' in [arm geo-100]", id="arm-key-typo"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "[arm geo-100]", "[arms geo-100]"), "cfg.ini",
                 ": unknown section [arms geo-100]", id="arm-section-typo"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "[arm geo-100]", "[arm]"), "cfg.ini",
                 ": unknown section [arm]", id="unnamed-arm"),
    pytest.param("sweep", _cfg(SWEEP_CFG, "seeds = 0 1 2", "seeds = 0 1 2\nseed = 4"), "cfg.ini",
                 ": unknown key 'seed' in [sweep]", id="sweep-key-typo"),
    pytest.param("run", _cfg(RUN_CFG, "[run]", "[arm a]\nschedule = fixed 5\n[run]"), "cfg.ini",
                 ": unknown section [arm a]", id="run-extra-section"),
    pytest.param("run", _cfg(RUN_CFG, "[run]", "[DEFAULT]\neval_horizon = 3\n[run]"), "cfg.ini",
                 ": unknown section [DEFAULT]", id="default-section"),
    pytest.param("run", {"cfg.ini": NOT_UTF8}, "cfg.ini", NOT_UTF8_REASON, id="run-not-utf8"),
    pytest.param("sweep", {"cfg.ini": NOT_UTF8}, "cfg.ini", NOT_UTF8_REASON, id="sweep-not-utf8"),
    pytest.param("oracle", {"grid.ini": NOT_UTF8}, "grid.ini", NOT_UTF8_REASON, id="grid-not-utf8"),
    pytest.param("oracle", _grid("[grid]\n", "[grid]\nlayuot = x\n"), "grid.ini",
                 ": unknown key 'layuot' in [grid]", id="grid-key-typo"),
    pytest.param("oracle", _grid("[reward goal]\n", "[reward hazzard]\nkind = deterministic\n\n"
                                 "[reward goal]\n"), "grid.ini",
                 ": unknown section [reward hazzard]", id="reward-section-typo"),
    pytest.param("oracle", _grid("[reward goal]\n", "[reward goal]\nprobabilites = 1.0\n"),
                 "grid.ini", ": unknown key 'probabilites' in [reward goal]", id="reward-key-typo"),
    pytest.param("oracle", _grid("[grid]\n", "[DEFAULT]\nkind = two-point\n\n[grid]\n"), "grid.ini",
                 ": unknown section [DEFAULT]", id="grid-default-section"),
    pytest.param("oracle", _grid("values = -0.08, 0.05", "values = -0.08%, 0.05"), "grid.ini",
                 " [reward default]: values must be a number, got '-0.08%'",
                 id="grid-value-%"),
    pytest.param("oracle", _grid("gamma = 0.7", "gamma = 0.7%"), "grid.ini",
                 " [grid]: gamma must be a number, got '0.7%'", id="grid-gamma-%"),
    pytest.param("oracle", _grid("kind = two-point", "kind = two-point%"), "grid.ini",
                 " [reward default]: unknown reward kind 'two-point%'", id="grid-kind-%"),
    pytest.param("run", _cfg(RUN_CFG, "env = gridworld", "env ="), "cfg.ini",
                 " [run]: env is empty: give 'gridworld' or a grid-spec file", id="run-empty-env"),
    pytest.param("oracle --env ''", {}, "env", " is empty: give 'gridworld' or a grid-spec file",
                 id="oracle-empty-env"),
    pytest.param("oracle --env a\0b", {}, "env", " 'a\\x00b': a file name cannot hold a NUL character",
                 id="oracle-env-nul"),
    pytest.param("run", _cfg(RUN_CFG, "fixed 200", "file a\0b"), "cfg.ini",
                 " [run]: schedule spec 'file a\\x00b': a file name cannot hold a NUL character",
                 id="schedule-file-nul"),
    pytest.param("gridworld --out missing/grid.ini", {}, "missing/grid.ini",
                 ": No such file or directory", id="gridworld-out-missing-directory"),
    # every number in the four formats goes through one reader: a non-number
    # names its key or spec token, and any other value meets the library's rule
    *[pytest.param("run", _cfg(RUN_CFG, old, new), "cfg.ini", f" [run]: {reason}", id=new)
      for old, new, reason in [
          ("budget = 2000", "budget = x", "budget must be a number, got 'x'"),
          ("budget = 2000", "budget = 2.5", "budget must be an integer, got 2.5"),
          ("eval_horizon = 7", "eval_horizon = x", "eval_horizon must be a number, got 'x'"),
          ("eval_horizon = 7", "eval_horizon = 2.5",
           "evaluation horizon must be an integer, got 2.5"),
          ("seed = 3", "seed = x", "seed must be a number, got 'x'"),
          ("seed = 3", "seed = 2.5", "seed must be an integer, got 2.5"),
          ("budget = 2000", "cycles = x", "cycles must be a number, got 'x'"),
          ("budget = 2000", "cycles = 2.5", "cycle count must be an integer, got 2.5"),
          ("gamma = 0.7", "gamma = x", "gamma must be a number, got 'x'"),
          ("bias = true", "bias = maybe", "bias must be true or false, got 'maybe'"),
          ("fixed 200", "fixed x", "schedule spec 'fixed x': K must be a number, got 'x'"),
          ("fixed 200", "fixed 2.5",
           "schedule spec 'fixed 2.5': period must be an integer, got 2.5"),
          ("fixed 200", "geometric 2.5",
           "schedule spec 'geometric 2.5': period must be an integer, got 2.5"),
          ("fixed 200", "geometric 100 x",
           "schedule spec 'geometric 100 x': GAMMA must be a number, got 'x'"),
          ("fixed 200", "custom 5 x", "schedule spec 'custom 5 x': K must be a number, got 'x'"),
          ("fixed 200", "custom 5 2.5",
           "schedule spec 'custom 5 2.5': period must be an integer, got 2.5"),
          ("fixed 200", "adaptive x 50",
           "schedule spec 'adaptive x 50': KMIN must be a number, got 'x'"),
          ("fixed 200", "adaptive 5 x",
           "schedule spec 'adaptive 5 x': KMAX must be a number, got 'x'"),
          ("fixed 200", "adaptive 5 2.5",
           "schedule spec 'adaptive 5 2.5': period must be an integer, got 2.5"),
          ("step_size = theory", "step_size = theory x",
           "step-size spec 'theory x': XI must be a number, got 'x'"),
          ("step_size = theory", "step_size = constant x",
           "step-size spec 'constant x': A must be a number, got 'x'")]],
    *[pytest.param("sweep", _cfg(SWEEP_CFG, "seeds = 0 1 2", f"seeds = {seeds}"), "cfg.ini",
                   f" [sweep]: {reason}", id=f"seeds = {seeds}")
      for seeds, reason in [("0 x", "seeds must be a number, got 'x'"),
                            ("0 2.5", "seed must be an integer, got 2.5"),
                            ("range x", "range N must be a number, got 'x'"),
                            ("range 2.5", "range N must be an integer, got 2.5")]],
    *[pytest.param("oracle", _grid(old, new), "grid.ini", f" [{section}]: {reason}", id=new)
      for old, new, section, reason in [
          ("rows = 4", "rows = 2.5", "grid", "rows must be an integer, got 2.5"),
          ("cols = 4", "cols = x", "grid", "cols must be a number, got 'x'"),
          ("cols = 4", "cols = 2.5", "grid", "cols must be an integer, got 2.5"),
          ("values = -0.08, 0.05", "values = -0.08, x", "reward default",
           "values must be a number, got 'x'"),
          ("probabilities = 0.5, 0.5", "probabilities = x, 0.5", "reward default",
           "probabilities must be a number, got 'x'")]],
    *[pytest.param("run", _cfg(RUN_CFG, "fixed 200", "file p.ini",
                               p=f"[schedule]\nperiods = {ks}\n"),
                   "p.ini", f" [schedule]: {reason}", id=f"periods = {ks}")
      for ks, reason in [("5 x", "periods must be a number, got 'x'"),
                         ("5 2.5", "period must be an integer, got 2.5")]],
    # a file's own seed is checked even where --seed replaces it
    pytest.param("run --config cfg.ini --seed 4", _cfg(RUN_CFG, "seed = 3", "seed = x"), "cfg.ini",
                 " [run]: seed must be a number, got 'x'", id="file-seed-x-with-seed-flag"),
]


@pytest.mark.parametrize("command, files, culprit, rest", BAD_INPUT_FILES)
def test_bad_input_file_gives_one_diagnostic_naming_it(tmp_path, capsys, monkeypatch, command,
                                                       files, culprit, rest):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    monkeypatch.setattr("targetq.cli.value_iteration_oracle", _no_oracle)
    for name, text in files.items():
        path = tmp_path / name
        path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    argv = shlex.split(command)
    if len(argv) == 1:
        argv += ["--env", "grid.ini"] if command == "oracle" else ["--config", "cfg.ini"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {culprit}{rest}\n"
    assert captured.err.count("\n") == 1 and captured.err.count(culprit) == 1
    for text in ("\0", "malformed", "'<string>'", "Traceback"):
        assert text not in captured.err


@pytest.mark.parametrize("command, old, new", [("run", "bias = true", "bias = true\nlabel ="),
                                               ("sweep", "[arm geo-100]", "[arm  ]")],
                         ids=["run-label", "sweep-arm-section"])
def test_empty_arm_label_fails_before_the_oracle_solve(tmp_path, capsys, monkeypatch, command, old,
                                                       new):
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "cfg.ini"
    text = RUN_CFG if command == "run" else SWEEP_CFG
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg} [{command}]: arm labels must be non-empty\n"


def test_spec_and_file_readers_raise_domain_error(tmp_path, grid07):
    def refused(read, *args):
        with pytest.raises(DomainError) as err:
            read(*args)
        assert "\n" not in str(err.value)

    for spec in ("", "fixed", "fixed x", "fixed 0", "fixed 1 2", "geometric x", "geometric 5 x",
                 "geometric 5 1.5", "custom", "custom 1 x", "file", f"file {tmp_path / 'none'}",
                 "adaptive 5", "adaptive x 5", "adaptive 10 5", "mystery 3"):
        refused(parse_schedule_spec, spec, 0.7)
    for spec in ("", "theory 0", "theory x", "theory 1 2", "constant", "constant x", "constant 2",
                 "sgd 0.1"):
        refused(parse_step_spec, spec, grid07)
    for old, new in (("", "x = 1\n"), ("[grid]", "[grid]\n[grid]"), ("rows = 4", "rows = four"),
                     ("gamma = 0.7", "gamma = 1.5"), ("S.B.", "X.B."), ("S.B.", "S.B"),
                     ("kind = two-point", "kind = three"), ("[reward goal]", "[reward gold]"),
                     ("probabilities = 1.0", "probabilities = 0.5, 0.5")):
        refused(tq.load_grid_spec, GRID_SPEC.replace(old, new, 1))
    for name, text in (("none", None), ("header", "periods = 5\n"), ("empty", EMPTY_SCHEDULE),
                       ("zero", ZERO_PERIOD), ("x", "[schedule]\nperiods = x\n"),
                       ("keyless", "[schedule]\nfamily = fixed\n")):
        path = tmp_path / f"{name}.ini"
        if text is not None:
            path.write_text(text)
        refused(load_schedule_file, path)
    refused(load_schedule_file, tmp_path)  # a directory


# ---------------------------------------------------------------------------
# One error boundary: for any input `main` returns 0, 1 with one `error: `
# line, or argparse's usage exit 2. Any other exception is a bug and must
# leave `main` with its traceback. A seeded fuzz over the four text formats
# and the flag-driven commands checks this, in the manner of Claessen &
# Hughes, "QuickCheck" (ICFP 2000).

README_INI = {block.split("\n", 1)[0]: block for block in re.findall(
    r"```ini\n(.*?)```", (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    flags=re.DOTALL)}
# "\udce9" is how Python reads the non-UTF-8 byte 0xe9 in argv or a file
HOSTILE = ("nan", "inf", "-inf", "1e400", "1e200", "-1", "0", "1", "2", "2.5", "1e-300", "1e-320",
           "0.9999999999999999", "", "x", "abc", "%", "\0", "\udce9", "theory 1e-320",
           "file /nonexistent", "geometric 10 0.01", "adaptive 5 1")
# valid limits too large to run: a document holding one is parsed and checked only
HUGE = (str(10**23), str(2**53 - 1), str(2**53 + 1), f"fixed {2**53 - 1}",
        f"adaptive 1 {2**53 - 1}", "range 3000000")
_HUGE_KEYS = {"seed", "seeds", "budget", "schedule", "periods"}

_PERIOD = st.integers(1, 2000)
_PERIODS = st.lists(_PERIOD, min_size=1, max_size=4).map(lambda ks: " ".join(map(str, ks)))
# a geometric period grows by gamma^(-2/3) a cycle, and the cycle that crosses
# the budget completes: at gamma 2.2e-16, `geometric 1000` runs 2.7e13 steps
_GAMMA = st.floats(0.5, 0.95).map(repr)
_UNIT = st.floats(0.01, 1.0).map(repr)
# a small valid value for each key the four formats read; a key none reads (a
# schedule file's family, eps and e0) takes "x"
VALID = {
    "env": st.sampled_from(["gridworld", "grid.ini"]),
    "gamma": _GAMMA,
    "seed": st.integers(0, 2**32).map(str),
    "seeds": st.one_of(st.sampled_from(["range 2", "range 3"]),
                       st.lists(st.integers(0, 99), min_size=2, max_size=3, unique=True)
                       .map(lambda seeds: " ".join(map(str, seeds)))),
    "budget": st.integers(1, 5000).map(str),
    "schedule": st.one_of(
        _PERIOD.map("fixed {}".format), _PERIOD.map("geometric {}".format),
        _PERIODS.map("custom {}".format), st.just("file sched.ini"),
        st.tuples(_PERIOD, _PERIOD).map(lambda ks: "adaptive {} {}".format(*sorted(ks)))),
    "step_size": st.one_of(st.just("theory"), _UNIT.map("theory {}".format),
                           _UNIT.map("constant {}".format)),
    "bias": st.sampled_from(["true", "false"]),
    # scoring does bounded work at any horizon, so a huge one runs too
    "eval_horizon": st.one_of(st.integers(0, 64), st.sampled_from([2**53 + 1, 10**23])).map(str),
    "rows": st.integers(1, 5).map(str),
    "cols": st.integers(1, 5).map(str),
    "layout": st.sampled_from(["S.B. | .... | OOB. | OOBG", "SG", "S.O | .BG"]),
    "kind": st.sampled_from(["two-point", "deterministic"]),
    "values": st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=2)
              .map(lambda vs: ", ".join(map(repr, vs))),
    "probabilities": st.sampled_from(["0.5, 0.5", "0.25, 0.75", "1.0"]),
    "periods": _PERIODS,
}
# the document each fuzzed input edits, and the command that reads it; a
# schedule file is read through a run config naming it
DOCUMENTS = {
    "run": ("run.ini", ["run", "--config", "run.ini"]),
    "sweep": ("sweep.ini", ["sweep", "--config", "sweep.ini"]),
    "grid": ("grid.ini", ["oracle", "--env", "grid.ini"]),
    "schedule": ("sched.ini", ["run", "--config", "sched-run.ini"]),
}
_KEY_LINE = re.compile(r"^(\w+) = (.*)$", flags=re.MULTILINE)
# each example rewrites the files it reads, in the directory monkeypatch moved to
_FUZZ = settings(derandomize=True, database=None, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def fuzz_docs(tmp_path_factory):
    """The fuzz's directory and base documents: the README's run and sweep
    examples, `gridworld --gamma 0.7` output and a `design --out` file."""
    path = tmp_path_factory.mktemp("fuzz")
    assert main(["gridworld", "--gamma", "0.7", "--out", str(path / "grid.ini")]) == 0
    assert main(["design", "--gamma", "0.7", "--eps", "0.5", "--out", str(path / "sched.ini")]) == 0
    run = README_INI["[run]"]
    assert "schedule = fixed 1000" in run
    return path, {"run.ini": run, "sweep.ini": README_INI["[sweep]"],
                  "grid.ini": (path / "grid.ini").read_text(),
                  "sched.ini": (path / "sched.ini").read_text(),
                  "sched-run.ini": run.replace("fixed 1000", "file sched.ini")}


def _outcome(argv) -> None:
    """Run ``main(argv)`` and check its outcome; no warning may print either."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        rc = main(argv)
    err = err.getvalue()
    # every value is read by the config's one reader, never by Python's conversions
    for wording in ("invalid literal", "could not convert", "Not a boolean"):
        assert wording not in err
    if rc == 2:
        assert err.startswith("usage: ") and f"\ntargetq {argv[0]}: error: " in err
    else:
        assert (rc, err) == (0, "") or (
            rc == 1 and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(_FUZZ, max_examples=40)
@given(data=st.data())
def test_every_edited_document_gets_one_outcome(fuzz_docs, monkeypatch, kind, data):
    # every budget and period list is small, so each edit that is not huge runs
    path, base = fuzz_docs
    monkeypatch.chdir(path)
    small = {key: data.draw(VALID[key], label=key) for key in ("budget", "periods")}
    docs = {name: _KEY_LINE.sub(lambda m: f"{m[1]} = {small.get(m[1], m[2])}", text)
            for name, text in base.items()}
    name, argv = DOCUMENTS[kind]
    lines = list(_KEY_LINE.finditer(docs[name]))
    edits = data.draw(st.lists(st.sampled_from(lines), min_size=1, max_size=2,
                               unique_by=lambda m: m.start()), label="lines")
    text, huge = docs[name], False
    for m in sorted(edits, key=lambda m: m.start(), reverse=True):
        pools = [VALID.get(m[1], st.just("x")), st.sampled_from(HOSTILE)]
        if m[1] in _HUGE_KEYS:
            pools.append(st.sampled_from(HUGE))
        value = data.draw(st.one_of(pools), label=m[1])
        huge |= value in HUGE
        text = text[:m.start(2)] + value + text[m.end(2):]
    docs[name] = text
    for doc, text in docs.items():
        Path(doc).write_bytes(text.encode("utf-8", "surrogateescape"))
    if not huge:
        _outcome(argv)
        return
    # too large to run: parsing and the limit check still refuse only with a DomainError
    try:
        cfg = (parse_sweep_config if kind == "sweep" else parse_run_config)(argv[-1])
    except DomainError:
        return
    assert all(isinstance(problem, str) for problem in cfg.violations())


FLAGS = {
    "oracle": {"--env": VALID["env"], "--gamma": _GAMMA, "--tol": st.floats(1e-12, 1e-3).map(repr)},
    "design": {"--env": VALID["env"], "--gamma": _GAMMA, "--eps": st.floats(0.05, 5.0).map(repr),
               "--e0": st.floats(0.1, 5.0).map(repr), "--xi": _UNIT,
               "--schedule": st.sampled_from(["fixed", "growing"]), "--out": st.just("out.ini")},
    "gridworld": {"--gamma": _GAMMA, "--out": st.just("out.ini")},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(_FUZZ, max_examples=50)
@given(data=st.data())
def test_every_flag_set_gets_one_outcome(fuzz_docs, monkeypatch, command, data):
    # each flag is valid (--gamma and --eps present), or absent; then one or
    # two of them are hostile
    path, base = fuzz_docs
    monkeypatch.chdir(path)
    flags = {flag: data.draw(valid if flag in ("--gamma", "--eps") else st.one_of(st.none(), valid),
                             label=flag)
             for flag, valid in FLAGS[command].items()}
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=2,
                                   unique=True), label="hostile flags"):
        flags[flag] = data.draw(st.sampled_from(HOSTILE), label=flag)
    argv = [command, *(arg for flag, value in flags.items() if value is not None
                       for arg in (flag, value))]
    Path("grid.ini").write_text(base["grid.ini"])
    _outcome(argv)


NUL = "a file name cannot hold a NUL character"
EMPTY = "a file name cannot be empty"


@pytest.mark.parametrize(
    "command, flag, name, reason",
    [pytest.param(command, "--out", "out\0.csv", NUL, id=command)
     for command in ("design --gamma 0.7 --eps 0.5", "gridworld", "run --config run.ini",
                     "sweep --config sweep.ini")]
    + [pytest.param(command, "--out", "", EMPTY, id=f"{command.split()[0]}-empty-out")
       for command in ("design --gamma 0.7 --eps 0.5", "gridworld", "run --config run.ini",
                       "sweep --config sweep.ini")]
    + [pytest.param(command, "--config", "", EMPTY, id=f"{command}-empty-config")
       for command in ("run", "sweep")],
)
def test_nul_in_an_output_path_is_a_usage_error(capsys, command, flag, name, reason):
    # found by the fuzz above: writing to a path with a NUL raised ValueError;
    # an empty name is refused the same way, as it names the current directory
    assert main([*command.split(), flag, name]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f": error: argument {flag}: {reason}\n")


@pytest.mark.parametrize("command, text", [("run", RUN_CFG), ("sweep", SWEEP_CFG)],
                         ids=["run", "sweep"])
def test_an_unwritable_output_file_is_named(tmp_path, capsys, monkeypatch, command, text):
    # the output is opened once before the run, so it fails before any run
    # starts and before a summary is printed
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("targetq.harness.run_one", no_run)
    cfg, out = tmp_path / "cfg.ini", tmp_path / "missing" / "out.csv"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {out}: No such file or directory\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {tmp_path}: Is a directory\n")


@pytest.mark.parametrize("error", [ValueError, OverflowError])
def test_a_builtin_error_from_a_command_is_a_bug_with_a_traceback(monkeypatch, error):
    def buggy(args):
        raise error("a bug")

    monkeypatch.setitem(cli._COMMANDS, "gridworld", buggy)
    with pytest.raises(error, match="a bug"):
        main(["gridworld"])
