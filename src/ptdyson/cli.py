"""Batch front door: config in, CSV and reports out.

One JSON config drives every subcommand; missing keys fall back to the
bundled defaults below; their scenario, grid, oracle and invariant
sections are validation.REFERENCE_CONFIG's own dicts, the pinned inputs
that `ptdyson validate` runs whatever the config (read only to check).
One walk reads the config against the defaults: a key they lack is
refused, a number takes its default's type (an int where the default is
one), and a profile record of another kind than the default's replaces
it and may hold only the fields its kind reads (the library's
`TimeProfile.from_config` ignores the others).  `validate_config` then
builds the run's objects once, each checking its own values, and the
subcommands work on those.

Commands compute and `main` writes: each `cmd_*` returns its outputs,
{file name: (header, rows) or text}, and its exit status, and `main` checks
every table for NaN and inf before it opens a file, so a run writes all of
its files or none.  stdout echoes each text output and lists each file
written.  All output is deterministic for a fixed config: floats are
printed with 17 significant digits and nothing depends on wall time or dict
iteration order.

Exit codes: 0 success, 1 validation-suite failure, 2 config violation
(message names the invariant or key path), 3 numerical failure (message carries the
context; a NaN or inf in an output table is one, and so is an overflow).
"""

import argparse
import json
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
    UnsupportedDegreeError,
)
from .fock_oracle import (
    FockBasis,
    build_generators,
    dyson_residuals,
    metric_spectrum_report,
    quasi_hermiticity_residuals,
)
from .invariants import beta_from_match, invariant_coeffs_for
from .modes import product_state
from .profiles import _is_finite_number, _kind_fields
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
    **validation.REFERENCE_CONFIG,
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


def _read(value, default, path=""):
    """`value`, the config entry at `path`, checked against and typed by its default.

    Missing keys take their defaults; a key the defaults lack is refused.  A
    profile record (a default with a "kind") merges over the default if of
    its kind and replaces it otherwise, and holds only the fields its kind
    reads; the profile checks their values when it is built.  A number must
    be finite, and integral where its default is an int, and comes back as
    its default's type.  ConfigError names the key path.
    """
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a list, got {value!r}")
        return [_read(v, default[0], f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(default, dict):
        if not _is_finite_number(value):
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
        if isinstance(default, int) and not float(value).is_integer():
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return type(default)(value)
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object, got {value!r}")
    prefix, owner, keys = (path + "." if path else ""), path or "the root", default
    if "kind" in default:
        if value.get("kind", default["kind"]) == default["kind"]:
            value = {**default, **value}
        try:
            required, optional = _kind_fields(value)
        except DomainError as err:
            raise ConfigError(f"{prefix}{err}") from err
        owner, keys = f"a {value['kind']} profile", ("kind",) + required + optional
    for key in value:
        if key not in keys:
            raise ConfigError(
                f"{prefix}{key} is not a config key; {owner} takes {', '.join(keys)}"
            )
    if "kind" in default:
        return dict(value)
    return {
        key: _read(value.get(key, sub), sub, prefix + key)
        for key, sub in default.items()
    }


def load_config(path):
    """The run's config: the JSON file at `path` read over DEFAULT_CONFIG."""
    user = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON: {err}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    return _read(user, DEFAULT_CONFIG)


def validate_config(cfg):
    """The run's objects built from `cfg`; ConfigError names the first violation.

    `cfg` is a config as load_config returns it, its keys and types checked.
    Returns {"scenario", "invariant", "xy", "basis"}: the Scenario with its
    two profiles, the invariant family, the XYModel and the FockBasis.  Each
    object checks its own values, named here by their key path; the rules no
    object owns (grids, oracle buffer, spectrum sizes, time domains) are below.
    """
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
    basis = _build("oracle", FockBasis, oracle["size"])
    if oracle["buffer"] < 0:
        raise ConfigError(f"oracle.buffer must be >= 0, got {oracle['buffer']}")
    if oracle["buffer"] >= oracle["size"]:
        raise ConfigError(
            f"oracle.buffer must be < oracle.size, got buffer={oracle['buffer']}, "
            f"size={oracle['size']}"
        )
    static = cfg["static"]
    for path, value in (
        ("static.xy.n_max", static["xy"]["n_max"]),
        ("static.xy.m_max", static["xy"]["m_max"]),
        ("static.k.n_max", static["k"]["n_max"]),
    ):
        if value < 0:
            raise ConfigError(f"{path} must be >= 0, got {value}")
    mg = cfg["modes_grid"]
    if not mg["times"]:
        raise ConfigError("modes_grid.times must be a non-empty list")
    if not mg["points"] >= 2:
        raise ConfigError(f"modes_grid.points must be >= 2, got {mg['points']}")
    if not mg["x_max"] > mg["x_min"]:
        raise ConfigError(
            "modes_grid must satisfy x_max > x_min, got "
            f"x_min={mg['x_min']}, x_max={mg['x_max']}"
        )
    scenario = build_scenario(cfg)
    coeffs = _build(
        "invariant", invariant_coeffs_for, scenario.q2, scenario.q3, **cfg["invariant"]
    )
    xy = static["xy"]
    xy_model = _build(
        "static.xy", XYModel, xy["m"], xy["omega_x"], xy["omega_y"], xy["coupling"]
    )
    times = [("grid.t_start", grid["t_start"]), ("grid.t_end", grid["t_end"])]
    times += [(f"modes_grid.times[{i}]", t) for i, t in enumerate(mg["times"])]
    for key in ("a", "lam"):
        for path, t in times:
            try:
                getattr(scenario, key)._check_domain(t)
            except DomainError as err:
                raise ConfigError(
                    f"{path} = {t} is outside scenario.{key}: {err}"
                ) from err
    return {"scenario": scenario, "invariant": coeffs, "xy": xy_model, "basis": basis}


def _build(path, make, *args, **kwargs):
    """make(*args, **kwargs); ConfigError naming the key path if it refuses them.

    The refusal's message starts with the offending field, the key under `path`.
    """
    try:
        return make(*args, **kwargs)
    except (ConstraintViolationError, DomainError) as err:
        raise ConfigError(f"{path}.{err}") from err


def build_scenario(cfg):
    """The Scenario of `cfg` with its two profiles; ConfigError names the key path."""
    return _build("scenario", Scenario.from_config, cfg["scenario"])


def grid_times(cfg):
    grid = cfg["grid"]
    return np.linspace(grid["t_start"], grid["t_end"], grid["samples"])


def _csv_text(name, header, rows):
    """The table as CSV text; NonFiniteOutputError if a value is NaN or inf."""
    table = np.asarray(rows, dtype=float).reshape(-1, len(header))
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        where = f"row {i + 1}"
        if "t" in header:
            where = f"t = {table[i, header.index('t')]:.17g}"
        raise NonFiniteOutputError(
            f"{header[j]} = {table[i, j]} at {where} in {name}; no file written"
        )
    row = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _table(columns):
    """(header, rows) of a table given as ordered (name, column) pairs."""
    header, values = zip(*columns)
    return header, np.column_stack(values)


def cmd_evolve(cfg, built):
    scenario, coeffs = built["scenario"], built["invariant"]
    consts = scenario.ep_constants()
    t = grid_times(cfg)
    params = scenario_params(consts, scenario.lam, t, q1=scenario.q1)
    rates = scenario_rates(consts, scenario.lam, t)
    f_plus, f_minus = f_pm(scenario, t)
    beta = beta_from_match(coeffs, scenario.lam, t)
    columns = (
        ("t", t),
        ("gamma3", params.gamma3),
        ("gamma4", params.gamma4),
        *((f"beta{i}", b) for i, b in enumerate(beta, start=1)),
        ("f_plus", f_plus),
        ("f_minus", f_minus),
        ("energy", energy_expectation(scenario, t)),
        ("dyson_residual", dyson_residual(scenario.a, scenario.lam, params, rates, t)),
    )
    return {"evolve.csv": _table(columns)}, 0


def cmd_spectrum(cfg, built):
    xy_cfg = cfg["static"]["xy"]
    k_cfg = cfg["static"]["k"]
    outputs = {}
    report = []
    xy = built["xy"]
    report.append(f"space-coupled model: exceptional point at |coupling| = {xy.ep_bound():.17g}")
    try:
        theta, wx, wy = decouple_xy(xy)
        report.append(
            f"  decoupled: theta = {theta:.17g}, "
            f"omega_x = {wx:.17g}, omega_y = {wy:.17g}"
        )
        levels = spectrum_xy(wx, wy, xy_cfg["n_max"], xy_cfg["m_max"])
        outputs["spectrum_xy.csv"] = (("energy", "n", "m"), levels)
        report.append("  wrote spectrum_xy.csv")
    except ExceptionalPointError as err:
        report.append(f"  no real decoupling: {err}")
    kmod = KModel(a=k_cfg["a"], b=k_cfg["b"], lam=k_cfg["lam"])
    result = decouple_K(kmod)
    n_max = k_cfg["n_max"]
    pairs = [(n, m) for n in range(n_max + 1) for m in range(n_max + 1)]
    if isinstance(result, BrokenRegime):
        tag = "completely" if result.complete else "partially"
        report.append(
            f"algebraic model: {tag} broken regime (no real rotation); "
            "spectrum is complex-conjugate paired"
        )
        energies = [broken_spectrum(kmod.a, kmod.lam, n, m) for n, m in pairs]
        rows = [(e.real, e.imag, n, m) for e, (n, m) in zip(energies, pairs)]
    else:
        theta, herm = result
        c = herm.vector.real
        report.append(
            f"algebraic model: decoupled with theta = {theta:.17g}; "
            f"frequencies {c[0]:.17g}, {c[1]:.17g}"
        )
        rows = sorted(
            ((n + 0.5) * c[0] + (m + 0.5) * c[1], 0.0, n, m) for n, m in pairs
        )
    outputs["spectrum_k.csv"] = (("energy_re", "energy_im", "n", "m"), rows)
    report.append("wrote spectrum_k.csv")
    outputs["ep_report.txt"] = "\n".join(report) + "\n"
    return outputs, 0


def cmd_modes(cfg, built):
    scenario = built["scenario"]
    mg = cfg["modes_grid"]
    axis = np.linspace(mg["x_min"], mg["x_max"], mg["points"])
    x, y = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    rows = []
    for t in mg["times"]:
        psi = product_state(scenario.n, scenario.m, scenario, x, y, t)
        rows.append(np.column_stack((x, y, np.full_like(x, t), psi.real, psi.imag)))
    return {"modes.csv": (("x", "y", "t", "re_psi", "im_psi"), rows)}, 0


def cmd_oracle(cfg, built):
    scenario, basis = built["scenario"], built["basis"]
    size, buffer = basis.size, cfg["oracle"]["buffer"]
    gens = build_generators(basis)
    times = grid_times(cfg)
    if times.size > 25:
        times = np.linspace(times[0], times[-1], 25)
    dy, qh = (
        residuals(scenario, basis, times, gens=gens, buffer=buffer)
        for residuals in (dyson_residuals, quasi_hermiticity_residuals)
    )
    consts = scenario.ep_constants()
    params = scenario_params(consts, scenario.lam, times, q1=scenario.q1)
    floors, observed = metric_spectrum_report(basis, gens[: size - buffer + 1], params)
    columns = (
        ("t", times),
        ("dyson_residual", dy),
        ("quasi_hermiticity_residual", qh),
        ("metric_floor_min", np.min(floors, axis=0)),
        ("metric_observed_min", np.min(observed, axis=0)),
    )
    return {"oracle.csv": _table(columns)}, 0


def cmd_validate(cfg, built):
    results = validation.run_all()
    report = validation.format_report(results) + "\n"
    return {"validate.txt": report}, 0 if all(r.passed for r in results) else 1


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
        built = validate_config(cfg)
        outputs, status = _COMMANDS[args.subcommand](cfg, built)
        texts = {
            name: out if isinstance(out, str) else _csv_text(name, *out)
            for name, out in outputs.items()
        }
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
        ExceptionalPointError,
        np.linalg.LinAlgError,
        OverflowError,
    ) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as err:
        # files written before a failed one stay on disk
        print(f"output error: {err}", file=sys.stderr)
        return 2
    print("".join(out for out in outputs.values() if isinstance(out, str)), end="")
    for name in texts:
        print(f"wrote {out_dir / name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
