"""The benchmark harness runs against the package as it stands.

bench/micro.py and bench/tracer.py call the package by name (functions,
keywords, module layers), so a change to those names breaks the benchmark
without failing a package test.  Each case runs bench/child.py once, as
bench/run.py does, on the evolve-long config at the smoke size.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def run_child(tmp_path, workloads, mode, subcommand):
    config = tmp_path / "config.json"
    workloads.write_config(config, "evolve-long", 7, "smoke")
    result = tmp_path / f"{mode}-{subcommand}.json"
    out_dir = tmp_path / f"{mode}-{subcommand}"
    out_dir.mkdir()
    argv = [sys.executable, str(BENCH / "child.py"), mode, subcommand, str(config)]
    argv += [str(out_dir), str(result), str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    )
    proc = subprocess.run(
        argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text(encoding="utf-8"))


def test_micro_timings_run(tmp_path, workloads):
    result = run_child(tmp_path, workloads, "micro", "evolve")
    assert result["metrics"]


@pytest.mark.parametrize("subcommand", ["evolve", "validate"])
def test_traced_run(tmp_path, workloads, subcommand):
    result = run_child(tmp_path, workloads, "trace", subcommand)
    assert result["exit_code"] == 0
    assert result["trace"]
