"""Batch front door: config in, CSV and reports out.

One JSON config drives every subcommand; missing keys fall back to the
bundled defaults below; all but modes_grid (scenario, grid, oracle,
invariant, static) are validation.REFERENCE_CONFIG's own dicts, the pinned
inputs that `ptdyson validate` runs whatever the config (read only to check).
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
written.  All output is deterministic for a fixed config: nothing depends on
wall time or dict iteration order, and each CSV field is the text of
`'%.17g' % x` for its value x.  The writer (_csv_text) finds the 17 digits
with numpy, a block of rows at a time; it hands to '%.17g' itself only the
values it cannot settle: subnormals, |x| below about 1e-264 or above 1e296,
and values within 1e-6 of a rounding tie in the 17th digit.  Its time is
part of `cli.self_s` in the benchmark's per-layer trace.

Exit codes: 0 success, 1 validation-suite failure, 2 config violation
(message names the invariant or key path), 3 numerical failure (message carries the
context; a NaN or inf in an output table is one, and so are an overflow, a
non-finite driver value and an array too large to allocate).
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


# The CSV writer prints each finite value x as `'%.17g' % x` would, byte for
# byte, without asking CPython for it: 17 digits are past dtoa's 14-digit
# floating-point fast path, so '%.17g' costs about 0.6 µs of big-integer
# arithmetic per value.  The table is formatted in blocks of whole rows, about
# _BLOCK_FIELDS fields each.  For each nonzero |x| numpy finds the 17 correctly
# rounded digits N, 10**16 <= N < 10**17, and the decimal exponent X with
# |x| ≈ N * 10**(X - 16) (_decimal_digits); each field is then laid out from a
# source row of bytes by its class's column template (_csv_block).  A value the
# digit step cannot settle is printed by '%.17g' itself.

_BLOCK_FIELDS = 8192
_POW_MAX = 280  # |16 - X| beyond this goes to '%.17g': 10**p stays normal
_TINY = float.fromhex("0x1p-1022")  # the smallest normal double
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter
_TIE = 1e-6  # a fraction this close to 1/2 may be a tie: '%.17g' settles it

# The four-digit groups 0000..9999 as 4-byte items, then the same groups with
# their trailing zeros as NUL bytes (0000 is all NUL).
_GROUPS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1) + ord("0")
_SHOWN = np.logical_or.accumulate(_GROUPS[::-1] > ord("0"))[::-1]
_GROUPS = np.concatenate([_GROUPS, _GROUPS * _SHOWN], axis=1).T.copy().view("V4").ravel()
_POW10 = 10 ** np.arange(18, dtype=np.int64)

# Source row of one field: the 16 digits after the leading one (four groups),
# the leading digit, the exponent suffix of scientific notation, the
# separator, then ".", "0", "-" and NUL.
_LEAD, _EXP, _SEP, _DOT, _ZERO, _MINUS, _NUL = 16, 17, 22, 23, 24, 25, 26
_SOURCE = 28
_WIDTH = 25  # the longest field, "-4.9406564584124654e-324", and its separator

# "e-05", "e+123": the exponent suffix of X = -324..308, NUL padded
_EXPONENTS = np.frombuffer(
    b"".join((b"e%+03d" % x).ljust(5, b"\0") for x in range(-324, 309)), np.uint8
).reshape(-1, 5)


def _templates():
    """Source column of each output byte, one row per class of field.

    A class is 40 * sign + kind.  Kinds 0..20 are fixed notation, X = -4..16,
    with fraction digits shown; 21 is scientific notation with fraction
    digits; 22..38 are fixed notation with no fraction digit shown, X = 0..16;
    39 is scientific notation with one digit.  A row ends in the separator
    and NULs; the digits it shows end in NULs where '%g' strips zeros, and
    every NUL is dropped from the staged bytes.
    """
    digits = [_LEAD, *range(16)]
    exponent = list(range(_EXP, _EXP + 5))
    rows = []
    for sign in ([], [_MINUS]):
        for x in range(-4, 17):
            if x < 0:
                rows.append(sign + [_ZERO, _DOT] + [_ZERO] * (-x - 1) + digits)
            else:
                rows.append(sign + digits[: x + 1] + [_DOT] + digits[x + 1 :])
        rows.append(sign + digits[:1] + [_DOT] + digits[1:] + exponent)
        rows += [sign + digits[: x + 1] for x in range(17)]
        rows.append(sign + digits[:1] + exponent)
    rows = [row + [_SEP] + [_NUL] * (_WIDTH - 1 - len(row)) for row in rows]
    return np.array(rows, dtype=np.intp)


_TEMPLATES = _templates()


def _power_of_ten(p):
    """10**p as (hi, lo, head, tail), from exact Python int arithmetic.

    hi is 10**p rounded to a double and lo is the rest rounded, so hi + lo
    is 10**p to a relative 2**-106; head + tail == hi, each with at most 26
    significant bits (Dekker's split).  int / int rounds correctly.
    """
    if p >= 0:
        hi = float(10**p)
        lo = float(10**p - int(hi))
    else:
        scale = 10**-p
        hi = 1 / scale
        num, den = hi.as_integer_ratio()
        lo = (den - num * scale) / (den * scale)
    head = _SPLIT * hi
    head -= head - hi
    return hi, lo, head, hi - head


def _decimal_digits(a):
    """(N, X, settled) for the magnitudes `a`: |x| = N * 10**(X - 16) rounded.

    N is the 17 correctly rounded digits of |x| as an int64 and X its
    decimal exponent as '%e' prints it (N = X = 0 for zero).  `settled` is
    False where '%.17g' must decide: a subnormal |x|, |16 - X| > _POW_MAX, a
    fraction within _TIE of 1/2 (a possible tie), or a scaled value whose
    truncation is outside [10**16, 10**17) or that rounds up to 10**17 (the
    log10 estimate of X was one off).

    With X0 = floor(log10|x|) and p = 16 - X0, v = |x| * 10**p is formed as
    prod + err: prod = fl(|x| * hi), err its exact error (Dekker's product,
    |err| <= 8), plus |x| * lo.  Against v, hi + lo is off by at most
    2**-106 v (1.2e-15 at v = 10**17).  Two roundings follow, of |x| * lo
    (below 2**-53 v < 12) and of its sum with err (below 20), each at most
    2**-49 (1.8e-15).  prod >= 2**53 is an integer, so floor(prod + err) and
    the fraction come out within 5e-15 of the exact ones, far inside _TIE.
    """
    zero = a == 0
    mag = np.where(a < _TINY, 1.0, a)
    x = np.log10(mag)
    np.floor(x, out=x)
    x = x.astype(np.intp)
    col = _POW_MAX + 16 - x
    near = (col >= 0) & (col <= 2 * _POW_MAX)
    if not near.all():
        col[~near] = _POW_MAX + 16
        mag[~near] = 1.0
    table = np.zeros((4, 2 * _POW_MAX + 1))
    for c in np.flatnonzero(np.bincount(col)):
        table[:, c] = _power_of_ten(int(c) - _POW_MAX)
    hi, lo, head, tail = (np.take(row, col) for row in table)
    prod = mag * hi
    mag_head = _SPLIT * mag
    mag_head -= mag_head - mag
    mag_tail = mag - mag_head
    err = mag_head * head - prod
    err += mag_head * tail
    err += mag_tail * head
    err += mag_tail * tail
    err += mag * lo
    whole = np.floor(err)
    err -= whole
    digits = prod.astype(np.int64)
    digits += whole.astype(np.int64)
    settled = (digits >= 10**16) & (np.abs(err - 0.5) >= _TIE)
    settled &= near & (a >= _TINY)
    digits += err > 0.5
    settled &= digits < 10**17
    settled |= zero
    digits[zero] = 0
    x[zero] = 0
    return digits, x, settled


def _csv_block(values, source):
    """The CSV bytes of `values`, whole rows of a table read row by row.

    `source` holds a source row per field, its separator and constants
    already written.
    """
    count = values.size
    digits, x, settled = _decimal_digits(np.abs(values))
    fixed = (x >= -4) & (x <= 16)
    # digits after the point: 16 - X in fixed notation, 16 in scientific;
    # `bare` where all of them are zero
    after = np.where(fixed, np.minimum(16 - x, 17), 16)
    bare = digits % _POW10[after] == 0
    kind = np.where(fixed, x + 4, 21)
    kind += 18 * bare
    kind += 40 * np.signbit(values)
    rows = source[:count]
    groups = rows.view("V4")
    # a group's trailing zeros are NUL where no nonzero digit follows it in
    # the fraction; // and - are several times faster than divmod on int64
    strip = ~bare
    rest = digits
    for col in (3, 2, 1, 0):
        high = rest // 10000
        group = rest - 10000 * high
        groups[:, col] = np.take(_GROUPS, group + 10000 * strip)
        strip &= group == 0
        rest = high
    rows[:, _LEAD] = rest + ord("0")
    sci = np.flatnonzero(~fixed)
    rows[sci, _EXP:_SEP] = _EXPONENTS[x[sci] + 324]
    index = np.take(_TEMPLATES, kind, axis=0)
    index += np.arange(0, count * _SOURCE, _SOURCE)[:, None]
    staged = np.take(source.ravel(), index)
    for i in np.flatnonzero(~settled):
        text = ("%.17g" % values[i]).encode("ascii") + rows[i, _SEP].tobytes()
        staged[i] = 0
        staged[i, : len(text)] = np.frombuffer(text, np.uint8)
    return staged[staged != 0]


def _csv_text(name, header, rows):
    """The table as CSV text; NonFiniteOutputError if a value is NaN or inf.

    Each value is printed as '%.17g' prints it, a block of rows at a time.
    """
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
    n_rows, n_cols = table.shape
    head = (",".join(header) + "\n").encode("ascii")
    text = np.empty(len(head) + table.size * _WIDTH, np.uint8)
    text[: len(head)] = np.frombuffer(head, np.uint8)
    end = len(head)
    block = max(1, _BLOCK_FIELDS // n_cols)
    source = np.empty((min(block, n_rows), n_cols, _SOURCE), np.uint8)
    source[:, :, _SEP] = ord(",")
    source[:, -1, _SEP] = ord("\n")
    source[:, :, _DOT:] = np.frombuffer(b".0-\0\0", np.uint8)
    source = source.reshape(-1, _SOURCE)
    for i in range(0, n_rows, block):
        fields = _csv_block(table[i : i + block].ravel(), source)
        text[end : end + fields.size] = fields
        end += fields.size
    return str(text[:end], "ascii")


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
        MemoryError,
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
