"""Time targetq's sweep set-up in a fresh interpreter.

Usage: python3 benchmarks/setup_probe.py SWEEP_CONFIG

Runs ``targetq sweep`` on the config through ``targetq.cli.main`` and stops
it at the first arm-seed run, i.e. after ``import targetq``, config
parsing, building the grid and solving the oracle. Prints the
``time.monotonic()`` reading at that point; the caller, which noted the
same clock before starting this process, takes the difference.
"""
import sys
import time
from os.path import abspath, dirname, join

sys.path.insert(0, join(dirname(dirname(abspath(__file__))), "src"))

import targetq.cli  # noqa: E402
import targetq.harness  # noqa: E402


class FirstRun(Exception):
    pass


def _stop_at_first_run(*args, **kwargs):
    raise FirstRun(time.monotonic())


targetq.harness.run_one = _stop_at_first_run
try:
    status = targetq.cli.main(["sweep", "--config", sys.argv[1]])
except FirstRun as reached:
    print(repr(reached.args[0]))
else:
    sys.exit(f"setup probe: the sweep returned {status} before its first run")
