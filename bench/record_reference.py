"""Record the reference tables that checks.py compares default-seed runs to.

    python3 bench/record_reference.py

Runs `ptdyson evolve` on the default-seed config, at both scales, and keeps the matched columns of a strided subset of rows.
Re-record only when a change to the program is meant to change its output,
and say so in the change.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def record(workload, scale):
    subcommand = workloads.SUBCOMMANDS[workload]
    spec = checks.TABLES[subcommand]
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        config = Path(tmp) / "config.json"
        workloads.write_config(config, workload, workloads.DEFAULT_SEED, scale)
        subprocess.run(
            [sys.executable, "-m", "ptdyson.cli", subcommand,
             "--config", str(config), "--out", tmp],
            env=run.child_env(), check=True, capture_output=True,
        )
        cfg = workloads.make_config(workload, workloads.DEFAULT_SEED, scale)
        problems = checks.check_output(subcommand, tmp, cfg)
        if problems:
            raise SystemExit(f"{workload} ({scale}) output fails its checks: {problems}")
        header, rows = checks.read_table(Path(tmp) / spec["file"])
    ref_header, ref_rows = checks.subsample(header, rows, spec["matched"])
    path = checks.reference_path(workload, scale)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(ref_header) + "\n")
        for row in ref_rows:
            fh.write(f"{row[0]}," + ",".join(f"{v:.17g}" for v in row[1:]) + "\n")
    print(f"wrote {path} ({len(ref_rows)} rows)")


def main():
    for workload, subcommand in workloads.SUBCOMMANDS.items():
        if subcommand in checks.TABLES:
            for scale in workloads.SCALES:
                record(workload, scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
