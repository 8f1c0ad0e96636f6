"""Benchmark of the ptdyson CLI: seeded workloads, one process per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its src/ directory.  A closed loop with one client: each subcommand runs in
a fresh Python process, and the next starts when it has ended.  Every child
process gets OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1.

For evolve-long, each run first runs the default seed at the smoke size and
compares its table with the recorded reference (timings discarded).  Then

  --trace 0  measured subcommand runs until S seconds have passed (at least
             three); prints the end-to-end metrics;
  --trace 1  one traced subcommand run, one process of per-call timings,
             and untraced runs until S seconds have passed (at least one);
             prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record (environment, seed, config
sha256, every sample) goes to .bench_work/results/.  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 100
# no child starts after this much time, so a run ends well within 180 s
DEADLINE_S = 120

UNITS = {"s": "s", "ms": "ms", "us": "us", "calls": "count", "bytes": "B"}


def child_env():
    """Environment of every child: this checkout's sources, one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


class Run:
    """The child processes of one benchmark run and their outcomes."""

    def __init__(self, workload, run_dir, scale):
        self.workload = workload
        self.subcommand = workloads.SUBCOMMANDS[workload]
        self.run_dir = run_dir
        self.scale = scale
        self.records = []
        self.failures = []

    def config(self, seed, scale):
        path = self.run_dir / f"config-{seed}-{scale}.json"
        sha = workloads.write_config(path, self.workload, seed, scale)
        return path, sha, workloads.make_config(self.workload, seed, scale)

    def child(self, mode, config, seed, reference=None):
        """Run one child process; return its record, or None if it failed."""
        out_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=self.run_dir))
        result_path = out_dir.with_suffix(".json")
        path, _, cfg = config
        argv = [sys.executable, str(BENCH / "child.py"), mode, self.subcommand, str(path)]
        argv += [str(out_dir), str(result_path)]
        argv.append(str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)))
        started = time.perf_counter()
        record = {"mode": mode, "seed": seed}
        try:
            proc = subprocess.run(
                argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            record["process_s"] = time.perf_counter() - started
            problems = self._problems(proc, result_path, out_dir, cfg, reference)
            if not problems:
                with open(result_path, encoding="utf-8") as fh:
                    record.update(json.load(fh))
        except subprocess.TimeoutExpired:
            problems = [f"timed out after {CHILD_TIMEOUT_S} s"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if mode in ("run", "trace"):
            record["ok"] = not problems
            self.records.append(record)
        if problems:
            self.failures.append({"mode": mode, "seed": seed, "problems": problems})
            return None
        return record

    def _problems(self, proc, result_path, out_dir, cfg, reference):
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return [f"child exited {proc.returncode}: {' / '.join(tail)}"]
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if not Path(result["module_file"]).resolve().is_relative_to(SRC.resolve()):
            return [f"imported ptdyson from {result['module_file']}, not {SRC}"]
        if "exit_code" not in result:
            return []
        if result["exit_code"] != 0:
            return [f"ptdyson {self.subcommand} exited {result['exit_code']}"]
        return checks.check_output(self.subcommand, out_dir, cfg, reference)


def _median(values, what):
    if not values:
        raise RuntimeError(f"no successful {what} samples")
    return statistics.median(values)


def measure(run, config, seed, seconds, trace):
    """Run the workload on `config`; return (metrics, samples)."""
    # The default seed at the smoke scale, checked against its reference
    # table; cheap, so every run checks values, not only bounds.
    smoke_table = checks.reference_path(run.workload, "smoke")
    if smoke_table.exists():
        ref_config = run.config(workloads.DEFAULT_SEED, "smoke")
        run.child("run", ref_config, workloads.DEFAULT_SEED, smoke_table)

    table = checks.reference_path(run.workload, run.scale)
    reference = table if seed == workloads.DEFAULT_SEED and table.exists() else None
    start = time.perf_counter()
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": []}
    traced = micro = None
    if trace:
        traced = run.child("trace", config, seed, reference)
        micro = run.child("micro", config, seed)
        min_runs = 1
    else:
        min_runs = workloads.SCALES[run.scale]["min_children"]

    durations = []
    while len(durations) < min_runs or (
        time.perf_counter() - start + statistics.mean(durations) <= seconds
    ):
        if time.perf_counter() - start > DEADLINE_S:
            break
        record = run.child("run", config, seed, reference)
        if record is None:
            break
        durations.append(record["process_s"])
        for key in samples:
            samples[key].append(record[key])

    if not trace:
        metrics = {
            "setup_s": (_median(samples["setup_s"], "set-up"), "s"),
            "wall_s": (_median(samples["wall_s"], "wall"), "s"),
            "peak_rss_mb": (_median(samples["peak_rss_mb"], "RSS"), "MiB"),
        }
        return metrics, samples
    if traced is None or micro is None:
        raise RuntimeError("the traced or the per-call process failed")
    report = traced["trace"]
    metrics = {}
    for layer in tracer.LAYERS:
        metrics[f"{layer}.calls"] = (report["calls"][layer], "count")
        metrics[f"{layer}.self_s"] = (report["self_s"][layer], "s")
    for name in tracer.COUNTED_LINALG:
        metrics[f"fock_oracle.{name}_calls"] = (
            report["linalg"].get(f"fock_oracle.{name}", 0), "count",
        )
    for name, value in micro["metrics"].items():
        metrics[name] = (value, UNITS[name.rpartition("_")[2]])
    untraced = _median(samples["wall_s"], "untraced wall")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
    samples["trace"] = report
    return metrics, samples


def environment():
    """What the numbers were measured on; reads the machine, changes nothing."""
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "child_env": dict(BLAS_ENV),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    try:
        # the ceiling keeps git from finding a repository above the checkout
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        env["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        env["git_commit"] = None
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (ImportError, KeyError, TypeError):
        env["blas"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        env["cpu_model"] = models[0] if models else None
    except OSError:
        env["cpu_model"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SUBCOMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="smoke: reduced sizes for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "ptdyson" / "cli.py").is_file():
        print(f"no ptdyson sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    run = Run(args.workload, run_dir, args.scale)
    try:
        config = run.config(args.seed, args.scale)
        config_sha = config[1]
        metrics, samples = measure(run, config, args.seed, args.seconds, args.trace)
    except RuntimeError as err:
        print(f"benchmark failed: {err}; failures: {run.failures}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(run.records)
    failed = sum(not r["ok"] for r in run.records)
    result = {
        "correct": not run.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "subcommand": run.subcommand,
        "seed": args.seed,
        "config_sha256": config_sha,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "failures": run.failures,
        "children": run.records,
        "samples": samples,
        "result": result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"seed {args.seed}, config sha256 {config_sha}, record {record_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
