"""Seeded workload configs for the benchmark.

Each workload turns a seed into one JSON config for the `ptdyson` CLI; the
program under test receives only that file.  The same seed and scale give
the same bytes, so a config's sha256 identifies its inputs.

Parameters are drawn inside the regime the validation suite covers:
|q2| <= 2, |q3| <= 0.6, and the coupling profile `lam` bounded away from 0
(lam >= 0.2 everywhere).
"""

import hashlib
import json
import math
import random

# Seed whose outputs are pinned by the tables in reference/.
DEFAULT_SEED = 0

T_END = 10.0
TABULATED_NODES = 64

# Per-scale sizes.  "full" is what the benchmark measures; "smoke" is the
# reduced size the smoke test runs.
SCALES = {
    "full": {"evolve_samples": 5000, "min_children": 3},
    "smoke": {"evolve_samples": 400, "min_children": 1},
}

# workload name -> CLI subcommand
SUBCOMMANDS = {
    "evolve-long": "evolve",
    "validate-gate": "validate",
}


def _lam_sinusoid(rng):
    offset = rng.uniform(0.4, 0.7)
    amp = rng.uniform(0.05, offset - 0.2)
    return {
        "kind": "sinusoid",
        "offset": offset,
        "amp": amp,
        "omega": rng.uniform(0.5, 2.0),
        "phase": rng.uniform(0.0, 2.0 * math.pi),
    }


def _a_tabulated(rng):
    """Cubic-spline nodes of a smooth positive signal on [0, T_END]."""
    offset = rng.uniform(0.8, 1.2)
    terms = [
        (rng.uniform(0.02, 0.1), rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0 * math.pi))
        for _ in range(3)
    ]
    times = [T_END * i / (TABULATED_NODES - 1) for i in range(TABULATED_NODES)]
    values = [
        offset + sum(amp * math.sin(w * t + ph) for amp, w, ph in terms)
        for t in times
    ]
    return {"kind": "tabulated", "times": times, "values": values}


def _scenario(rng, a_profile):
    return {
        "a": a_profile,
        "lam": _lam_sinusoid(rng),
        "q1": 0.0,
        "q2": rng.uniform(-2.0, 2.0),
        "q3": rng.uniform(-0.6, 0.6),
        "ktilde_plus": rng.uniform(0.0, 1.0),
        "ktilde_minus": rng.uniform(0.0, 1.0),
        "n": rng.randrange(3),
        "m": rng.randrange(3),
    }


def make_config(workload, seed, scale="full"):
    """The config dict for one workload, seed and scale."""
    if workload not in SUBCOMMANDS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SCALES[scale]
    # string seeds hash deterministically in random.Random (no PYTHONHASHSEED)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "evolve-long":
        return {
            "scenario": _scenario(rng, _a_tabulated(rng)),
            "grid": {"t_start": 0.0, "t_end": T_END, "samples": sizes["evolve_samples"]},
            "invariant": {
                "c1": rng.uniform(0.5, 1.5),
                "c2_real": rng.uniform(0.2, 0.8),
                "c3_real": rng.uniform(0.5, 1.0),
            },
        }
    # `validate` runs its thirteen criteria at pinned inputs and reads no
    # config keys, so the seed changes nothing here.
    return {}


def config_bytes(config):
    return (json.dumps(config, sort_keys=True, indent=1) + "\n").encode("utf-8")


def write_config(path, workload, seed, scale="full"):
    """Write the config and return its sha256."""
    data = config_bytes(make_config(workload, seed, scale))
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()
