"""Smoke test of the benchmark itself, at the reduced ("smoke") sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload once with --trace 0 and once with --trace 1 and checks
the result line against the schema and the metric names in BENCHMARK.json.
Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SUBCOMMANDS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.SUBCOMMANDS))
def test_result_line(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--scale", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", list(workloads.SUBCOMMANDS))
def test_config_is_a_function_of_the_seed(workload):
    first = workloads.config_bytes(workloads.make_config(workload, 5))
    assert first == workloads.config_bytes(workloads.make_config(workload, 5))
    if workload != "validate-gate":
        assert first != workloads.config_bytes(workloads.make_config(workload, 6))


def test_refuses_without_sources():
    # a directory holding only BENCHMARK.json and the benchmark's files
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(tmp, "--workload", "evolve-long", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
