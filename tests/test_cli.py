import warnings

import numpy as np
import pytest

import targetq as tq
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
    assert sched.label == "designed-growing"
    assert sched.n_cycles == 26


def test_design_degenerate_note(capsys):
    with pytest.warns(Warning):
        rc = main(["design", "--gamma", "0.7", "--eps", "50", "--e0", "3"])
    assert rc == 0
    assert "degenerate design" in capsys.readouterr().out


def test_run_subcommand_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG)
    out_csv = tmp_path / "run.csv"
    assert main(["run", "--config", str(cfg), "--out", str(out_csv)]) == 0
    rows = tq.read_csv_rows(out_csv)
    assert len(rows) == 11  # initial record + 10 cycles of 200 within 2000
    assert rows[0]["bias_median"] == "3"


@pytest.mark.parametrize("spec", ["adaptive 50 500", "fixed 200"])
def test_run_matches_direct_call(tmp_path, grid07, oracle07, capsys, spec):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG.replace("schedule = fixed 200", f"schedule = {spec}") + "cycles = 3\n")
    via_cli = tmp_path / "cli.csv"
    assert main(["run", "--config", str(cfg), "--out", str(via_cli)]) == 0
    steps = tq.TheoryInverseStepSize.from_pair_count(52)
    options = dict(oracle=oracle07, n_cycles=3, sample_budget=2000, eval_horizon=7, seed=3)
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
    tq.emit_csv(direct, direct_csv)
    assert via_cli.read_bytes() == direct_csv.read_bytes()


def test_run_seed_override_changes_trace(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "4", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


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
        ("eval_every = 0", "evaluation cadence must be at least 1"),
        ("budget = -5", "sample budget must be at least 1"),
        ("cycles = 0", "cycle count must be at least 1"),
        ("eval_horizon = -1", "evaluation horizon must be nonnegative"),
        ("schedule = fixed 99999999999999999999999", "exceeds the exact-integer range"),
        ("schedule = fixed 9223372036854775807", "exceeds the exact-integer range"),
        ("schedule = custom 200 9223372036854775807", "exceeds the exact-integer range"),
        ("schedule = adaptive 99999999999999999999999 99999999999999999999999",
         "exceeds the exact-integer range"),
        ("schedule = adaptive 10 9223372036854775808", "exceeds the exact-integer range"),
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
        ("design --gamma 0.7 --eps 1e-300", "is too small"),
        ("design --gamma 0.7 --eps 1e-300 --schedule fixed", "is too small"),
        ("design --gamma 0.7 --eps 1e-150", "exceed the exact-integer range"),
        ("design --gamma 0.7 --eps nan", "target accuracy must be positive and finite"),
        ("design --gamma 0.7 --eps 0.5 --e0 nan", "initial error must be positive and finite"),
        ("design --gamma 0.7 --eps 0.5 --e0 inf", "initial error must be positive and finite"),
        ("design --gamma 0.7 --eps 0.5 --e0 1e308", "is too large for target accuracy"),
        ("design --gamma 0.7 --eps 1e-10 --e0 1e300", "exceed the exact-integer range"),
        ("design --gamma 0.7 --eps 0.5 --xi 1e-200", "rate constants c1, c2 are not finite"),
        ("oracle --gamma 0.7 --tol nan", "tol must be positive"),
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


def test_run_config_lists_every_limit_violation(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(
        "[run]\ngamma = 0.7\nschedule = fixed 10\nbudget = 0\ncycles = 0\n"
        "eval_every = 0\neval_horizon = -2\n"
    )
    with pytest.raises(ConfigValidationError) as err:
        parse_run_config(cfg)
    assert len(err.value.violations) == 4


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
    rows = tq.read_csv_rows(p1)
    assert {r["arm"] for r in rows} == {"fixed-200", "geo-100"}


@pytest.mark.parametrize("seeds", ["5", "range 1"])
def test_one_seed_sweep_fails_before_any_run(tmp_path, capsys, monkeypatch, seeds):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("targetq.harness.run_one", no_run)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(SWEEP_CFG.replace("seeds = 0 1 2", f"seeds = {seeds}"))
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: [sweep] needs at least 2 seeds for bands\n"


def _no_oracle(*args, **kwargs):
    raise AssertionError("the oracle was solved for a config that cannot run")


@pytest.mark.parametrize(
    "command, old, new, flags, bad",
    [("run", "seed = 3", "seed = -3", [], "-3"),
     ("run", "seed = 3", "seed = 3", ["--seed", "-1"], "-1"),
     ("sweep", "seeds = 0 1 2", "seeds = -1 2", [], "-1")],
    ids=["run-config", "seed-flag", "sweep-config"],
)
def test_negative_seed_fails_before_the_oracle_solve(tmp_path, capsys, monkeypatch, command, old,
                                                     new, flags, bad):
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "cfg.ini"
    text = RUN_CFG if command == "run" else SWEEP_CFG
    assert old in text
    cfg.write_text(text.replace(old, new))
    assert main([command, "--config", str(cfg), *flags]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid configuration: seeds must be nonnegative integers, got {bad}\n")


@pytest.mark.filterwarnings("error")
def test_theory_xi_with_infinite_scale_fails_while_parsing(tmp_path, capsys, monkeypatch):
    # 2/xi overflows for xi = 5e-324: every step size would be NaN
    monkeypatch.setattr("targetq.harness.value_iteration_oracle", _no_oracle)
    cfg = tmp_path / "run.ini"
    cfg.write_text(RUN_CFG.replace("step_size = theory", "step_size = theory 5e-324"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed [run] section: bad step-size spec 'theory 5e-324': ")
    assert "2/xi finite" in err
    assert tq.TheoryInverseStepSize(1e-300).alphas(2).tolist() == [1.0, 1.0]


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
    "old, new",
    [("values = -0.08, 0.05", "values = -0.08%, 0.05"), ("gamma = 0.7", "gamma = 0.7%"),
     ("kind = two-point", "kind = two-point%")],
    ids=["value", "gamma", "kind"],
)
def test_grid_spec_percent_sign_fails_without_traceback(tmp_path, capsys, old, new):
    spec = tmp_path / "grid.ini"
    assert main(["gridworld", "--gamma", "0.7", "--out", str(spec)]) == 0
    text = spec.read_text()
    assert old in text
    spec.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert main(["oracle", "--env", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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
    cfg = parse_run_config(run_path, seed_override=9)
    assert cfg.seeds == (9,)
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
    [("schedule = mystery 3", "malformed [arm geo-100] section: bad schedule spec 'mystery 3'"),
     ("step_size = constant 2", "malformed [arm geo-100] section: bad step-size spec 'constant 2'"),
     ("step_size = theory x", "malformed [arm geo-100] section: bad step-size spec 'theory x'")],
)
def test_sweep_bad_arm_named_in_diagnostic(tmp_path, capsys, line, message):
    key = line.split()[0]
    head, geo = SWEEP_CFG.split("[arm geo-100]")
    geo = "\n".join(l for l in geo.splitlines() if not l.startswith(key + " "))
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"{head}[arm geo-100]{geo}\n{line}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_parse_sweep_range_seeds(tmp_path):
    text = SWEEP_CFG.replace("seeds = 0 1 2", "seeds = range 5")
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    assert parse_sweep_config(path).seeds == (0, 1, 2, 3, 4)


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
