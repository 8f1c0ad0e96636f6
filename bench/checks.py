"""Output checks behind the benchmark's `correct`, `attempted` and `failed`.

A subcommand run passes when it exited 0 and its table is complete and
finite, its residual columns stay under the bounds of validation criterion
02, and, for the default-seed config, its value columns match the reference
table recorded in reference/.
"""

import csv
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# |x - ref| <= RTOL * max(|ref|, FLOOR * max |ref column|)
RTOL = 1e-9
FLOOR = 1e-6

EVOLVE_RESIDUAL_BOUND = 1e-8  # criterion 02, 2x2 analytic-rate residual

TABLES = {
    "evolve": {
        "file": "evolve.csv",
        "header": (
            "t", "gamma3", "gamma4", "beta1", "beta2", "beta3", "beta4",
            "f_plus", "f_minus", "energy", "dyson_residual",
        ),
        "bounded": {"dyson_residual": EVOLVE_RESIDUAL_BOUND},
        "matched": (
            "t", "gamma3", "gamma4", "beta1", "beta2", "beta3", "beta4",
            "f_plus", "f_minus", "energy",
        ),
    },
}

# Reference tables keep about this many evenly strided rows, plus the last.
REFERENCE_ROWS = 200


def reference_path(workload, scale):
    suffix = "" if scale == "full" else f".{scale}"
    return REFERENCE_DIR / f"{workload}{suffix}.csv"


def read_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return tuple(rows[0]), [[float(v) for v in row] for row in rows[1:]]


def check_output(subcommand, out_dir, cfg, reference=None):
    """Problems found in one run's output; an empty list means it passed."""
    out_dir = Path(out_dir)
    if subcommand == "validate":
        text = (out_dir / "validate.txt").read_text(encoding="utf-8")
        if "overall PASS: 13/13 criteria passed" not in text:
            return ["validate.txt does not read 13/13"]
        return []
    spec = TABLES[subcommand]
    header, rows = read_table(out_dir / spec["file"])
    if header != spec["header"]:
        return [f"{spec['file']} header {header} != {spec['header']}"]
    problems = []
    if len(rows) != int(cfg["grid"]["samples"]):
        problems.append(f"{spec['file']} has {len(rows)} rows")
    for i, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row):
            problems.append(f"{spec['file']} row {i} is not finite")
            break
    for name, bound in spec["bounded"].items():
        col = header.index(name)
        worst = max((row[col] for row in rows), default=math.nan)
        if not worst < bound:
            problems.append(f"{name} reaches {worst:.3e}, bound {bound:.0e}")
    if reference is not None:
        problems += compare_reference(header, rows, reference, spec["matched"])
    return problems


def subsample(header, rows, matched):
    """Reference rows: (row index, matched columns) every stride-th row."""
    stride = max(1, len(rows) // REFERENCE_ROWS)
    keep = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    cols = [header.index(name) for name in matched]
    return ("row",) + tuple(matched), [[i] + [rows[i][c] for c in cols] for i in keep]


def compare_reference(header, rows, reference, matched):
    ref_header, ref_rows = read_table(reference)
    if ref_header != ("row",) + tuple(matched):
        return [f"reference {reference.name} has header {ref_header}"]
    problems = []
    for j, name in enumerate(matched, start=1):
        col = header.index(name)
        scale = FLOOR * max(abs(r[j]) for r in ref_rows)
        for ref_row in ref_rows:
            i = int(ref_row[0])
            if i >= len(rows):
                return [f"reference row {i} missing from output"]
            want = ref_row[j]
            got = rows[i][col]
            if not abs(got - want) <= RTOL * max(abs(want), scale):
                problems.append(f"{name} row {i}: {got!r} != reference {want!r}")
                break
    return problems
