#!/usr/bin/env python3
"""Benchmark of ``targetq sweep``: end-to-end cost of a multi-seed schedule
sweep and, in a separate traced run, where its time goes per module.

Usage, from the repository root:

    python3 benchmarks/run.py --workload short-period --seed 3 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload adaptive --seed 3 --seconds 30 --trace 1
    python3 benchmarks/run.py --smoke

One run writes the workload's sweep config for its seed, checks a reference
sweep and the workload's own sweep through the library, then repeats the
sweep through ``targetq.cli.main(["sweep", ...])`` for ``--seconds``
seconds. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced repeats with repeats that have every module's entry
points wrapped, and reports the per-layer metrics. Each metric's name and unit
come from BENCHMARK.json. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``attempted`` and ``failed`` count arm-seed runs. See
benchmarks/README.md for the workloads, metrics and checks.
"""
import os

# One thread of load: numpy's BLAS must not start worker threads. Set before
# numpy is imported; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
from speed import SpeedScale, step_loop  # noqa: E402
from workloads import (  # noqa: E402
    BUDGET,
    REFERENCE_BUDGET,
    REFERENCE_SEED,
    WORKLOADS,
    check_csv,
    check_run,
    sweep_config_text,
    sweep_seeds,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"
N_SETUP_PROBES = 7


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Tally:
    """Arm-seed runs attempted and failed, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def load_spec() -> dict[str, dict[str, str]]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def import_targetq():
    """Import targetq from this checkout's sources, never from elsewhere."""
    if not (SRC / "targetq" / "__init__.py").is_file():
        raise BenchError(f"no targetq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import targetq
    import targetq.cli

    if Path(targetq.__file__).resolve().parent != SRC / "targetq":
        raise BenchError(f"imported targetq from {targetq.__file__}, not from {SRC}")
    return targetq


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_setup(config: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to the sweep's first run,
    once per probe process, scaled to the reference speed. Start-up is mostly
    interpreter work, so the pure-Python kernel sets the speed."""
    times = []
    speed = SpeedScale(step_loop)
    for _ in range(N_SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append((float(proc.stdout.split()[-1]) - start) * speed.next())
    return times


def library_sweep(targetq, workload, config: Path, out: Path, budget: int, tally: Tally,
                  reference: bool = False):
    """Run a sweep through the library calls ``targetq sweep`` makes, check
    every run and the emitted CSV (and, for the reference sweep, the final
    biases), and return the traces and CSV digest."""
    n_runs = workload.n_runs
    try:
        cfg = targetq.config.parse_sweep_config(config)
        results = targetq.harness.run_experiment(cfg)
        stats = {label: targetq.harness.aggregate(traces) for label, traces in results.items()}
        targetq.harness.emit_csv(stats, out)
    except Exception as exc:  # a crashing sweep is a failed result, not a crashed benchmark
        tally.add(n_runs, n_runs, [f"library sweep raised {type(exc).__name__}: {exc}"])
        return None, None
    specs = dict(workload.arms)
    run_problems = [
        check_run(specs[label], trace, budget) for label, traces in results.items() for trace in traces
    ]
    sweep_problems = check_csv(out, results)
    if reference:
        sweep_problems += check_reference(workload, results)
    failed = n_runs if sweep_problems else sum(1 for p in run_problems if p)
    tally.add(n_runs, failed, [p for ps in run_problems for p in ps] + sweep_problems)
    return results, sha256(out)


def check_reference(workload, results) -> list[str]:
    """Per-arm median final bias of the seed-0 reference sweep against the
    values this commit's code produced (reference.json)."""
    ref = json.loads((BENCH_DIR / "reference.json").read_text())
    want = ref["median_final_bias"][workload.name]
    problems = []
    for label, traces in results.items():
        got = statistics.median(t.final.bias for t in traces)
        if not math.isclose(got, want[label], rel_tol=ref["rel_tol"]):
            problems.append(f"reference arm {label}: median final bias {got!r}, expected {want[label]!r}")
    return problems


def cli_sweep(targetq, config: Path, out: Path) -> tuple[int, float]:
    """One ``targetq sweep`` through the public CLI entry; returns the exit
    status and the wall time. The CLI's own report is discarded."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        status = targetq.cli.main(["sweep", "--config", str(config), "--out", str(out)])
        wall = time.perf_counter() - start
    return status, wall


def timed_sweeps(targetq, workload, config, out, seconds, digest, tally, alternate_traced=False):
    """Repeat the CLI sweep for ``seconds``: at least once, and no repeat is
    started that would likely end more than half a repeat past the window.
    Every repeat must emit a CSV identical to the checked library sweep's. With
    ``alternate_traced`` every second repeat runs traced, so traced and
    untraced repeats see the same machine. Returns (wall time, speed scale,
    tracer or None) for each completed repeat."""
    n_runs = workload.n_runs
    sweeps = []
    attempts = 0
    speed = SpeedScale(workload.speed_kernel)
    deadline = time.perf_counter() + seconds
    last = 0.0
    while attempts < 1 + alternate_traced or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        tracer = tracing.Tracer() if alternate_traced and attempts % 2 else None
        attempts += 1
        wall = problem = None
        try:
            with tracer.installed() if tracer else contextlib.nullcontext():
                status, wall = cli_sweep(targetq, config, out)
        except tracing.MissingSpan as exc:
            raise BenchError(str(exc)) from exc
        except Exception as exc:  # counted as failed runs; the loop goes on
            problem = f"CLI sweep raised {type(exc).__name__}: {exc}"
        else:
            if status != 0:
                problem = f"CLI sweep exited with status {status}"
            elif digest is not None and sha256(out) != digest:
                problem = "CLI sweep CSV differs from the checked sweep of the same seeds"
        scale = speed.next()
        tally.add(n_runs, n_runs if problem else 0, [problem] if problem else [])
        if wall is not None:
            sweeps.append((wall, scale, tracer))
        last = time.perf_counter() - started
    if not sweeps or alternate_traced and len({t is None for _, _, t in sweeps}) < 2:
        raise BenchError("too few CLI sweeps completed: " + "; ".join(tally.problems))
    return sweeps


def tail_percentile(samples: list[float]) -> float:
    """The highest whole percentile with at least ten samples beyond it, or
    the median when there are fewer than 20 samples."""
    if len(samples) < 2:
        return samples[0]
    q = max(50, math.floor(100 * (1 - 10 / len(samples))))
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def layer_results(traced, plain_walls, results, out, units, tally):
    """Per-layer metrics over the traced sweeps, given as (scaled wall time,
    speed scale, tracer): medians of the times, each scaled to the reference
    speed, and counts that must repeat exactly."""
    scales = [scale for _, scale, _ in traced]
    tracers = [t for _, _, t in traced]
    per_sweep = [tracing.layer_metrics(t) for t in tracers]
    metrics = {}
    for name in per_sweep[0]:
        values = [m[name] for m in per_sweep]
        if units[name] == "s":
            metrics[name] = statistics.median(v * s for v, s in zip(values, scales))
        elif units[name] == "steps/s":
            metrics[name] = statistics.median(v / s for v, s in zip(values, scales))
        else:
            metrics[name] = values[0]
            if len(set(values)) > 1:
                tally.add(0, 0, [f"count {name} differs between repeats: {values}"])
    run_one = [d * s for t, s in zip(tracers, scales) for d in t.stats["harness.run_one"].durations]
    metrics["harness.run_one.p50_s"] = statistics.median(run_one)
    metrics["harness.run_one.ptail_s"] = tail_percentile(run_one)
    text = out.read_text()
    metrics["harness.emit_csv.bytes"] = len(text.encode())
    metrics["harness.emit_csv.rows"] = text.count("\n") - 1
    metrics["learner.final_bias_median"] = statistics.median(
        t.final.bias for traces in results.values() for t in traces
    )
    metrics["tracing.overhead_s"] = (
        statistics.median(wall for wall, _, _ in traced) - statistics.median(plain_walls)
    )
    return metrics


def run(args, units) -> int:
    targetq = import_targetq()
    workload = WORKLOADS[args.workload]
    seeds = sweep_seeds(args.seed)
    tally = Tally()
    WORK_PARENT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        config, out = work / "sweep.ini", work / "sweep.csv"
        config.write_text(sweep_config_text(workload, seeds, args.budget))
        ref_config = work / "reference.ini"
        ref_config.write_text(
            sweep_config_text(workload, sweep_seeds(REFERENCE_SEED), REFERENCE_BUDGET)
        )

        setup = [] if args.trace else measure_setup(config)
        library_sweep(targetq, workload, ref_config, out, REFERENCE_BUDGET, tally, reference=True)
        # The checked sweep of the workload's own seeds also warms caches.
        results, digest = library_sweep(targetq, workload, config, out, args.budget, tally)

        sweeps = timed_sweeps(
            targetq, workload, config, out, args.seconds, digest, tally, alternate_traced=bool(args.trace)
        )
        walls = [wall for wall, _, _ in sweeps]
        scales = [scale for _, scale, _ in sweeps]
        if args.trace:
            traced = [(wall * scale, scale, t) for wall, scale, t in sweeps if t is not None]
            plain = [wall * scale for wall, scale, t in sweeps if t is None]
            missing = tracing.missing_calls(traced[0][2], workload.periodic, workload.adaptive)
            if missing:
                tally.add(0, 0, ["traced spans with no calls: " + ", ".join(missing)])
            metrics = layer_results(traced, plain, results or {}, out, units, tally)
        else:
            scaled = [w * s for w, s in zip(walls, scales)]
            samples = sum(t.final.cumulative_cost for traces in (results or {}).values() for t in traces)
            metrics = {
                "wall_s": statistics.median(scaled),
                "samples_per_s": statistics.median(samples / w for w in scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(setup),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "sweep_seeds": seeds,
        "budget": args.budget,
        "timed_sweeps": len(walls),
        "raw_walls_s": walls,
        "speed_scales": scales,
        "csv_sha256": digest,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }
    print("record " + json.dumps(record))
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"failed_fraction {tally.failed / tally.attempted!r} ratio")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def smoke(spec) -> int:
    """Run every workload in both modes at the reference budget and check
    that each result is correct and names every metric with its unit."""
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(REFERENCE_SEED), "--seconds", "1", "--trace", str(trace),
                "--budget", str(REFERENCE_BUDGET),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            expected = spec["per_layer" if trace else "end_to_end"]
            problems = []
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                if units != expected:
                    problems.append(f"metrics {units} differ from BENCHMARK.json {expected}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"result not correct: {proc.stderr.strip()}")
            except (IndexError, ValueError, KeyError, TypeError):
                problems.append(f"no result (exit {proc.returncode}): {proc.stderr.strip()}")
            print(f"smoke {name} trace {trace}: " + ("; ".join(problems) or "ok"))
            bad += bool(problems)
    return 1 if bad else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int, default=BUDGET,
                        help="sample budget per run; the smoke check uses a small one")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check every metric is reported")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        return smoke(spec) if args.smoke else run(args, spec["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
