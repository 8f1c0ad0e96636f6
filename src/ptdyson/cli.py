"""Batch front door: config in, CSV and reports out.

One JSON config drives every subcommand; missing keys fall back to the
bundled defaults below, so `ptdyson validate` with no flags runs the
reference configuration.  All output is deterministic for a fixed config:
floats are printed with 17 significant digits and nothing depends on wall
time or dict iteration order.

Exit codes: 0 success, 1 validation-suite failure, 2 config violation
(message names the invariant), 3 numerical failure (message carries the
context; a NaN or inf in an output table is one).
"""

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import validation
from .dyson import dyson_residual, scenario_params, scenario_rates
from .energy import Scenario, energy_expectation, f_pm
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DomainError,
    ExceptionalPointError,
    IntegrationError,
    NonFiniteOutputError,
    SingularEvaluationError,
    TruncationError,
    UnsupportedDegreeError,
)
from .fock_oracle import (
    MAX_SIZE,
    MIN_SIZE,
    FockBasis,
    build_generators,
    metric_spectrum_report,
    verify_dyson,
    verify_quasi_hermiticity,
)
from .invariants import beta_from_match, invariant_coeffs_for
from .modes import product_state
from .profiles import TimeProfile
from .static_models import (
    BrokenRegime,
    KModel,
    XYModel,
    broken_spectrum,
    decouple_K,
    decouple_xy,
    spectrum_xy,
)

DEFAULT_CONFIG = {
    "scenario": {
        "a": {"kind": "sinusoid", "offset": 1.0, "amp": 0.2, "omega": 2.0},
        "lam": {"kind": "sinusoid", "offset": 0.5, "amp": 0.3, "omega": 1.0},
        "q1": 0.0,
        "q2": 1.0,
        "q3": 0.4,
        "ktilde_plus": 0.5,
        "ktilde_minus": 0.5,
        "n": 1,
        "m": 0,
    },
    "grid": {"t_start": 0.0, "t_end": 10.0, "samples": 200},
    "oracle": {"size": 12, "buffer": 2},
    "invariant": {"c1": 1.0, "c2_real": 0.5, "c3_real": 0.8},
    "static": {
        "xy": {
            "m": 1.0,
            "omega_x": 1.0,
            "omega_y": 1.7320508075688772,
            "coupling": 0.5,
            "n_max": 4,
            "m_max": 4,
        },
        "k": {"a": 1.0, "b": 1.0, "lam": 0.4, "n_max": 4},
    },
    "modes_grid": {
        "x_min": -4.0,
        "x_max": 4.0,
        "points": 41,
        "times": [0.3, 0.7, 1.5],
    },
}


def _fmt(x):
    return f"{float(x):.17g}"


def _merge(base, override):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path):
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _check_types(cfg, defaults, prefix=""):
    """ConfigError naming the key path of a value whose type misfits its default.

    A number must be a finite int or float (not a bool or a string), and an
    integral one where the default is an int.
    """
    for key, default in defaults.items():
        path, value = prefix + key, cfg[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path} must be an object, got {value!r}")
            _check_types(value, default, path + ".")
        elif isinstance(default, (int, float)):
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise ConfigError(f"{path} must be a finite number, got {value!r}")
            if isinstance(default, int) and not float(value).is_integer():
                raise ConfigError(f"{path} must be an integer, got {value!r}")


def validate_config(cfg):
    """Raise ConfigError naming the first violated invariant."""
    _check_types(cfg, DEFAULT_CONFIG)
    sc = cfg["scenario"]
    if not abs(sc["q3"]) < 1.0:
        raise ConfigError(
            f"scenario.q3 must satisfy |q3| < 1, got {sc['q3']}"
        )
    grid = cfg["grid"]
    if not grid["t_end"] > grid["t_start"]:
        raise ConfigError(
            "grid must satisfy t_end > t_start, got "
            f"t_start={grid['t_start']}, t_end={grid['t_end']}"
        )
    if grid["t_start"] < 0.0:
        raise ConfigError(f"grid.t_start must be >= 0, got {grid['t_start']}")
    if not grid["samples"] >= 2:
        raise ConfigError(f"grid.samples must be >= 2, got {grid['samples']}")
    oracle = cfg["oracle"]
    if not MIN_SIZE <= oracle["size"] <= MAX_SIZE:
        raise ConfigError(
            f"oracle.size must satisfy {MIN_SIZE} <= size <= {MAX_SIZE}, "
            f"got {oracle['size']}"
        )
    if oracle["buffer"] < 0:
        raise ConfigError(f"oracle.buffer must be >= 0, got {oracle['buffer']}")
    for key in ("n", "m"):
        if sc[key] < 0:
            raise ConfigError(f"scenario.{key} must be >= 0, got {sc[key]}")


def build_scenario(cfg):
    sc = cfg["scenario"]
    return Scenario(
        a=TimeProfile.from_config(sc["a"]),
        lam=TimeProfile.from_config(sc["lam"]),
        q2=float(sc["q2"]),
        q3=float(sc["q3"]),
        q1=float(sc.get("q1", 0.0)),
        ktilde_plus=float(sc["ktilde_plus"]),
        ktilde_minus=float(sc["ktilde_minus"]),
        n=int(sc["n"]),
        m=int(sc["m"]),
    )


def grid_times(cfg):
    grid = cfg["grid"]
    return np.linspace(
        float(grid["t_start"]), float(grid["t_end"]), int(grid["samples"])
    )


def _write_csv(path, header, rows):
    """Write a table; NonFiniteOutputError, and no file, if a value is NaN or inf."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        where = f"row {i + 1}"
        if "t" in header:
            where = f"t = {_fmt(table[i, header.index('t')])}"
        raise NonFiniteOutputError(
            f"{header[j]} = {table[i, j]} at {where}; {path.name} not written"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in table:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_evolve(cfg, out_dir):
    scenario = build_scenario(cfg)
    consts = scenario.ep_constants()
    inv = cfg["invariant"]
    coeffs = invariant_coeffs_for(
        scenario.q2,
        scenario.q3,
        c1=float(inv["c1"]),
        c2_real=float(inv["c2_real"]),
        c3_real=float(inv["c3_real"]),
    )
    t = grid_times(cfg)
    params = scenario_params(consts, scenario.lam, t, q1=scenario.q1)
    rates = scenario_rates(consts, scenario.lam, t)
    f_plus, f_minus = f_pm(scenario, t)
    columns = (
        t,
        params.gamma3,
        params.gamma4,
        *beta_from_match(coeffs, scenario.lam, t),
        f_plus,
        f_minus,
        energy_expectation(scenario, t),
        dyson_residual(scenario.a, scenario.lam, params, rates, t),
    )
    path = out_dir / "evolve.csv"
    _write_csv(
        path,
        (
            "t",
            "gamma3",
            "gamma4",
            "beta1",
            "beta2",
            "beta3",
            "beta4",
            "f_plus",
            "f_minus",
            "energy",
            "dyson_residual",
        ),
        np.column_stack(columns),
    )
    print(f"wrote {path}")
    return 0


def cmd_spectrum(cfg, out_dir):
    xy_cfg = cfg["static"]["xy"]
    k_cfg = cfg["static"]["k"]
    report = []
    xy = XYModel(
        m=float(xy_cfg["m"]),
        omega_x=float(xy_cfg["omega_x"]),
        omega_y=float(xy_cfg["omega_y"]),
        coupling=float(xy_cfg["coupling"]),
    )
    report.append(f"space-coupled model: exceptional point at |coupling| = {_fmt(xy.ep_bound())}")
    try:
        theta, wx, wy = decouple_xy(xy)
        report.append(
            f"  decoupled: theta = {_fmt(theta)}, "
            f"omega_x = {_fmt(wx)}, omega_y = {_fmt(wy)}"
        )
        levels = spectrum_xy(wx, wy, int(xy_cfg["n_max"]), int(xy_cfg["m_max"]))
        _write_csv(
            out_dir / "spectrum_xy.csv",
            ("energy", "n", "m"),
            [(e, n, m) for e, n, m in levels],
        )
        report.append(f"  wrote {out_dir / 'spectrum_xy.csv'}")
    except ExceptionalPointError as err:
        report.append(f"  no real decoupling: {err}")
    kmod = KModel(a=float(k_cfg["a"]), b=float(k_cfg["b"]), lam=float(k_cfg["lam"]))
    result = decouple_K(kmod)
    n_max = int(k_cfg["n_max"])
    if isinstance(result, BrokenRegime):
        tag = "completely" if result.complete else "partially"
        report.append(
            f"algebraic model: {tag} broken regime (no real rotation); "
            "spectrum is complex-conjugate paired"
        )
        rows = [
            (
                broken_spectrum(kmod.a, kmod.lam, n, m).real,
                broken_spectrum(kmod.a, kmod.lam, n, m).imag,
                n,
                m,
            )
            for n in range(n_max + 1)
            for m in range(n_max + 1)
        ]
        _write_csv(out_dir / "spectrum_k.csv", ("energy_re", "energy_im", "n", "m"), rows)
    else:
        theta, herm = result
        c = herm.vector.real
        report.append(
            f"algebraic model: decoupled with theta = {_fmt(theta)}; "
            f"frequencies {_fmt(c[0])}, {_fmt(c[1])}"
        )
        rows = [
            ((n + 0.5) * c[0] + (m + 0.5) * c[1], 0.0, n, m)
            for n in range(n_max + 1)
            for m in range(n_max + 1)
        ]
        rows.sort()
        _write_csv(out_dir / "spectrum_k.csv", ("energy_re", "energy_im", "n", "m"), rows)
    report.append(f"wrote {out_dir / 'spectrum_k.csv'}")
    path = out_dir / "ep_report.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(report) + "\n")
    print("\n".join(report))
    print(f"wrote {path}")
    return 0


def cmd_modes(cfg, out_dir):
    scenario = build_scenario(cfg)
    mg = cfg["modes_grid"]
    axis = np.linspace(float(mg["x_min"]), float(mg["x_max"]), int(mg["points"]))
    x, y = np.meshgrid(axis, axis, indexing="ij")
    rows = []
    for t in mg["times"]:
        t = float(t)
        psi = product_state(scenario.n, scenario.m, scenario, x, y, t)
        for i in range(axis.size):
            for j in range(axis.size):
                rows.append((axis[i], axis[j], t, psi[i, j].real, psi[i, j].imag))
    path = out_dir / "modes.csv"
    _write_csv(path, ("x", "y", "t", "re_psi", "im_psi"), rows)
    print(f"wrote {path}")
    return 0


def cmd_oracle(cfg, out_dir):
    scenario = build_scenario(cfg)
    oracle = cfg["oracle"]
    size, buffer = int(oracle["size"]), int(oracle["buffer"])
    basis = FockBasis(size)
    gens = build_generators(basis)
    consts = scenario.ep_constants()
    times = grid_times(cfg)
    if times.size > 25:
        times = np.linspace(times[0], times[-1], 25)
    rows = []
    for t in times:
        t = float(t)
        dy = verify_dyson(scenario, basis, [t], gens=gens, buffer=buffer)
        qh = verify_quasi_hermiticity(scenario, basis, [t], gens=gens, buffer=buffer)
        params = scenario_params(consts, scenario.lam, t, q1=scenario.q1)
        floors, observed = metric_spectrum_report(basis, gens, params)
        safe = max(size - buffer + 1, 1)
        rows.append((t, dy, qh, min(floors), min(observed[:safe])))
    path = out_dir / "oracle.csv"
    _write_csv(
        path,
        (
            "t",
            "dyson_residual",
            "quasi_hermiticity_residual",
            "metric_floor_min",
            "metric_observed_min",
        ),
        rows,
    )
    print(f"wrote {path}")
    return 0


def cmd_validate(cfg, out_dir):
    results = validation.run_all()
    report = validation.format_report(results)
    path = out_dir / "validate.txt"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report + "\n")
    print(report)
    print(f"wrote {path}")
    return 0 if all(r.passed for r in results) else 1


_COMMANDS = {
    "evolve": cmd_evolve,
    "spectrum": cmd_spectrum,
    "modes": cmd_modes,
    "oracle": cmd_oracle,
    "validate": cmd_validate,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ptdyson",
        description="time-dependent non-Hermitian oscillator toolkit",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        validate_config(cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.subcommand](cfg, out_dir)
    except (
        ConfigError,
        ConstraintViolationError,
        DomainError,
        UnsupportedDegreeError,
    ) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (
        IntegrationError,
        NonFiniteOutputError,
        SingularEvaluationError,
        TruncationError,
        ExceptionalPointError,
        np.linalg.LinAlgError,
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
