"""End-to-end checks for the batch front door.

Everything goes through cli.main() in-process so exit codes and stderr
text are asserted exactly; one subprocess smoke test covers the
``python -m`` entry point.  Configs are written to tmp_path as JSON and
kept small so the whole file stays fast.
"""

import json
import math
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ptdyson import cli, fock_oracle, modes, profiles, validation
from ptdyson.errors import ConfigError
from ptdyson.static_models import BrokenRegime, XYModel, decouple_K, decouple_xy

README = Path(__file__).resolve().parents[1] / "README.md"


def write_config(tmp_path, overrides, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(overrides), encoding="utf-8")
    return str(path)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


SMALL_GRID = {"grid": {"samples": 40}}


# ---------------------------------------------------------------------------
# config loading and validation


def test_load_config_defaults_are_a_copy():
    cfg = cli.load_config(None)
    assert cfg == cli.DEFAULT_CONFIG
    cfg["scenario"]["q3"] = 0.99
    cfg["grid"]["samples"] = 7
    assert cli.DEFAULT_CONFIG["scenario"]["q3"] == 0.4
    assert cli.DEFAULT_CONFIG["grid"]["samples"] == 200


def test_load_config_merges_nested_keys(tmp_path):
    path = write_config(tmp_path, {"scenario": {"q3": -0.3}})
    cfg = cli.load_config(path)
    assert cfg["scenario"]["q3"] == -0.3
    # untouched siblings keep their defaults
    assert cfg["scenario"]["a"]["offset"] == 1.0
    assert cfg["grid"]["samples"] == 200
    assert cfg["oracle"]["size"] == 12


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("/no/such/config.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.load_config(str(path))


def test_load_config_non_object_root(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        cli.load_config(str(path))


# Malformed profile records and list entries, with the key path they must name.
PROFILE_FIELD_CASES = [
    (
        {"scenario": {"a": {"kind": "constant", "value": "0.5"}}},
        "scenario.a.value must be a finite number",
    ),
    (
        {"scenario": {"a": {"kind": "constant", "value": True}}},
        "scenario.a.value must be a finite number",
    ),
    (
        {"modes_grid": {"times": ["0.5"]}},
        r"modes_grid.times\[0\] must be a finite number",
    ),
    (
        {"scenario": {"lam": {"kind": "polynomial", "coeffs": 1.0}}},
        "scenario.lam.coeffs must be a non-empty list of finite numbers",
    ),
    ({"scenario": {"a": {"kind": "constant"}}}, "scenario.a.value is required"),
]

# Out-of-range sizes of the static spectra and of the modes grid.
RANGE_CASES = [
    ({"static": {"xy": {"n_max": -1}}}, "static.xy.n_max must be >= 0"),
    ({"static": {"xy": {"m_max": -1}}}, "static.xy.m_max must be >= 0"),
    ({"static": {"k": {"n_max": -1}}}, "static.k.n_max must be >= 0"),
    ({"modes_grid": {"times": []}}, "modes_grid.times must be a non-empty list"),
    ({"modes_grid": {"points": 1}}, "modes_grid.points must be >= 2"),
    ({"modes_grid": {"x_max": -4.0}}, "modes_grid must satisfy x_max > x_min"),
    (
        {"modes_grid": {"x_min": 1.0, "x_max": 0.5}},
        "modes_grid must satisfy x_max > x_min",
    ),
]

# Times outside a profile's domain, named by their key path.
SHORT_TABULATED_A = {
    "scenario": {
        "a": {"kind": "tabulated", "times": [0.0, 1.0, 2.0, 3.0], "values": [1.0] * 4}
    }
}
DOMAIN_CASES = [
    (
        {"modes_grid": {"times": [-1.0]}},
        r"modes_grid.times\[0\] = -1.0 is outside scenario.a",
    ),
    (SHORT_TABULATED_A, "grid.t_end = 10.0 is outside scenario.a"),
]

# Keys the defaults do not hold, at three depths, and an integer too large
# for a float.
UNKNOWN_KEY_CASES = [
    ({"scenraio": {"q2": 3}}, "scenraio is not a config key"),
    ({"grid": {"sample": 200}}, "grid.sample is not a config key"),
    (
        {"scenario": {"a": {"ampl": 0.5}}},
        "scenario.a.ampl is not a config key; a sinusoid profile takes",
    ),
]
OVERSIZED_INT_CASES = [
    ({"grid": {"samples": 10**400}}, "grid.samples must be a finite number"),
    (
        {"scenario": {"a": {"kind": "constant", "value": 10**400}}},
        "scenario.a.value must be a finite number",
    ),
]

# Values refused by the objects built from them: the invariant family and
# the space-coupled model.
BUILD_CASES = [
    ({"invariant": {"c3_real": 0.0}}, "invariant.c3_real must be nonzero"),
    ({"static": {"xy": {"m": 0}}}, "static.xy.m must be > 0"),
    (
        {"static": {"xy": {"omega_x": 0.0, "coupling": 0.0}}},
        "static.xy.omega_x must be > 0",
    ),
]


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"scenario": {"q3": 1.2}}, "q3"),
        ({"grid": {"t_end": 0.0}}, "t_end > t_start"),
        ({"grid": {"t_start": -1.0, "t_end": 5.0}}, "t_start must be >= 0"),
        ({"grid": {"samples": 1}}, "samples must be >= 2"),
        ({"oracle": {"size": 1}}, "oracle.size"),
        ({"oracle": {"size": 99}}, "oracle.size"),
        ({"oracle": {"buffer": -1}}, "buffer must be >= 0"),
        ({"scenario": {"n": -1}}, "scenario.n"),
        ({"scenario": {"m": -2}}, "scenario.m"),
        ({"scenario": {"q3": "0.4"}}, "scenario.q3 must be a finite number"),
        ({"scenario": {"q2": "1.0"}}, "scenario.q2 must be a finite number"),
        ({"grid": {"samples": 2.5}}, "grid.samples must be an integer"),
        ({"oracle": {"size": True}}, "oracle.size must be a finite number"),
        ({"scenario": {"a": {"amp": False}}}, "scenario.a.amp must be a finite"),
        ({"grid": 5}, "grid must be an object"),
        ({"oracle": {"size": 6, "buffer": 6}}, "oracle.buffer must be < oracle.size"),
    ]
    + PROFILE_FIELD_CASES
    + RANGE_CASES
    + DOMAIN_CASES
    + UNKNOWN_KEY_CASES
    + OVERSIZED_INT_CASES
    + BUILD_CASES,
)
def test_validate_config_names_the_invariant(patch, fragment):
    with pytest.raises(ConfigError, match=fragment):
        cli.validate_config(cli._read(patch, cli.DEFAULT_CONFIG))


def test_validate_config_accepts_defaults():
    cli.validate_config(cli.load_config(None))


def test_a_record_of_another_kind_replaces_the_default(tmp_path):
    cfg = cli.load_config(write_config(tmp_path, SHORT_TABULATED_A))
    assert cfg["scenario"]["a"] == SHORT_TABULATED_A["scenario"]["a"]
    # a record of the default's kind merges over it
    cfg = cli.load_config(write_config(tmp_path, {"scenario": {"lam": {"amp": 0.1}}}))
    assert cfg["scenario"]["lam"] == {
        "kind": "sinusoid", "offset": 0.5, "amp": 0.1, "omega": 1.0
    }


def test_numbers_take_their_default_type(tmp_path):
    cfg = cli.load_config(
        write_config(tmp_path, {"grid": {"samples": 200.0}, "scenario": {"q2": 3}})
    )
    assert type(cfg["grid"]["samples"]) is int and cfg["grid"]["samples"] == 200
    assert type(cfg["scenario"]["q2"]) is float and cfg["scenario"]["q2"] == 3.0


def test_readme_config_block_is_the_default_config():
    readme = README.read_text("utf-8")
    block = re.search(r"```json\n(.*?)```", readme, re.DOTALL).group(1)
    assert json.loads(block) == cli.DEFAULT_CONFIG


def readme_commands():
    """Each `ptdyson ...` line of the README's sh blocks, as an argv."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text("utf-8"), re.DOTALL)
    return [
        line.split("#")[0].split()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("ptdyson ")
    ]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_commands_run_as_documented(tmp_path, monkeypatch, argv):
    # relative --out and --config paths resolve under tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my.json").write_text("{}", encoding="utf-8")
    assert cli.main(argv[1:]) == 0


def test_each_object_of_the_run_is_built_once(tmp_path, monkeypatch):
    counts = {}

    def counting(module, name):
        make = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return make(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(profiles, "_not_a_knot_spline")
    for name in ("invariant_coeffs_for", "XYModel", "FockBasis"):
        counting(cli, name)
    tabulated_a = {
        "kind": "tabulated",
        "times": [0.0, 2.5, 5.0, 7.5, 10.0],
        "values": [1.0, 1.1, 0.9, 1.05, 1.0],
    }
    cfg = write_config(
        tmp_path,
        {"scenario": {"a": tabulated_a}, "grid": {"samples": 5}, "oracle": {"size": 4}},
    )
    for command in ("evolve", "spectrum", "oracle"):
        counts.clear()
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert counts == dict.fromkeys(
            ("_not_a_knot_spline", "invariant_coeffs_for", "XYModel", "FockBasis"),
            1,
        ), command


# ---------------------------------------------------------------------------
# evolve


def test_evolve_writes_expected_table(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "evolve.csv")
    assert header == [
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
    ]
    assert len(rows) == 40
    data = np.array([[float(v) for v in row] for row in rows])
    assert data[0, 0] == 0.0
    assert data[-1, 0] == 10.0
    assert np.all(np.isfinite(data))


def test_evolve_rows_satisfy_known_identities(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "evolve.csv")
    data = np.array([[float(v) for v in row] for row in rows])
    t = data[:, 0]
    # beta1 + beta2 must reproduce the first invariant coefficient
    assert np.max(np.abs(data[:, 3] + data[:, 4] - 1.0)) < 1e-9
    # drivers sum to twice the diagonal drive
    a_vals = 1.0 + 0.2 * np.sin(2.0 * t)
    assert np.max(np.abs(data[:, 7] + data[:, 8] - 2.0 * a_vals)) < 1e-12
    # the map built from closed forms has to solve its defining relation
    assert np.max(data[:, 10]) < 1e-6
    # energy stays real by construction; column must be finite and O(1)
    assert np.all(np.abs(data[:, 9]) < 50.0)


def test_evolve_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["evolve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "evolve.csv").read_bytes() == (out2 / "evolve.csv").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evolve_refuses_non_finite_output(tmp_path, capsys):
    # past |u| ~ 710 the first map angle overflows to -inf
    cfg = write_config(tmp_path, {"grid": {"t_end": 1e6}})
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "gamma3 = -inf at t = " in err
    assert not (tmp_path / "evolve.csv").exists()


def test_out_directory_is_created(tmp_path):
    cfg = write_config(tmp_path, SMALL_GRID)
    nested = tmp_path / "a" / "b"
    assert cli.main(["evolve", "--config", cfg, "--out", str(nested)]) == 0
    assert (nested / "evolve.csv").exists()


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_default_config(tmp_path):
    rc = cli.main(["spectrum", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum_xy.csv")
    assert header == ["energy", "n", "m"]
    assert len(rows) == 25
    energies = [float(r[0]) for r in rows]
    assert energies == sorted(energies)
    assert (int(rows[0][1]), int(rows[0][2])) == (0, 0)

    header, rows = read_csv(tmp_path / "spectrum_k.csv")
    assert header == ["energy_re", "energy_im", "n", "m"]
    assert len(rows) == 25
    table = {(int(r[2]), int(r[3])): (float(r[0]), float(r[1])) for r in rows}
    # a = 1, rotation strength 0.4: level (n, m) sits at (n+m+1, 0.2 (n-m))
    assert table[(0, 0)] == (1.0, 0.0)
    assert table[(1, 0)] == (2.0, 0.2)
    assert table[(0, 1)] == (2.0, -0.2)

    report = (tmp_path / "ep_report.txt").read_text(encoding="utf-8")
    assert "exceptional point at |coupling| = " in report
    bound = float(report.split("|coupling| = ")[1].split()[0])
    assert abs(bound - 1.0) < 1e-12
    assert "completely broken regime" in report
    assert "decoupled: theta" in report


def test_spectrum_report_is_the_same_in_every_out_directory(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "nested" / "run2"
    assert cli.main(["spectrum", "--out", str(out1)]) == 0
    assert cli.main(["spectrum", "--out", str(out2)]) == 0
    report = (out1 / "ep_report.txt").read_bytes()
    assert report == (out2 / "ep_report.txt").read_bytes()
    assert b"wrote spectrum_k.csv" in report


def test_spectrum_computes_each_broken_level_once(tmp_path, monkeypatch):
    calls = []
    broken_spectrum = cli.broken_spectrum

    def counting(*args):
        calls.append(args)
        return broken_spectrum(*args)

    monkeypatch.setattr(cli, "broken_spectrum", counting)
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 0
    # n_max = 4: one call covers each of the 25 levels (n, m) once
    assert len(calls) == 1
    _, _, n, m = calls[0]
    assert np.size(n) == np.size(m) == 25
    assert {(int(i), int(j)) for i, j in zip(n, m)} == {
        (i, j) for i in range(5) for j in range(5)
    }


def test_spectrum_beyond_bound_still_succeeds(tmp_path):
    cfg = write_config(
        tmp_path, {"static": {"xy": {"coupling": 2.0}}}
    )
    rc = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "ep_report.txt").read_text(encoding="utf-8")
    assert "no real decoupling" in report
    assert not (tmp_path / "spectrum_xy.csv").exists()
    # the algebraic half is independent and still produces its table
    assert (tmp_path / "spectrum_k.csv").exists()


def test_spectrum_unbroken_k_model(tmp_path):
    cfg = write_config(
        tmp_path, {"static": {"k": {"a": 1.0, "b": 3.0, "lam": 1.0, "n_max": 2}}}
    )
    rc = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "spectrum_k.csv")
    assert len(rows) == 9
    assert all(float(r[1]) == 0.0 for r in rows)
    report = (tmp_path / "ep_report.txt").read_text(encoding="utf-8")
    assert "decoupled with theta" in report


# Spectrum sizes whose level table exceeds the cap, with the key paths named.
OVERSIZED_SPECTRUM_CASES = [
    ({"static": {"k": {"n_max": 100000}}}, "static.k.n_max"),
    (
        {"static": {"xy": {"n_max": 1000, "m_max": 1000}}},
        "static.xy.n_max and static.xy.m_max",
    ),
]


@pytest.mark.parametrize("patch, paths", OVERSIZED_SPECTRUM_CASES)
def test_spectrum_refuses_a_table_above_the_cap_at_once(tmp_path, capsys, patch, paths):
    cfg = write_config(tmp_path, patch)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {paths} must give at most 100000 spectrum levels")
    assert not out.exists()


def test_spectrum_cap_admits_the_largest_square_table():
    # (315 + 1)^2 = 99856 levels is under the cap, (316 + 1)^2 above it
    cli.validate_config(cli._read({"static": {"k": {"n_max": 315}}}, cli.DEFAULT_CONFIG))
    with pytest.raises(ConfigError, match="static.k.n_max .* got 100489"):
        cli.validate_config(
            cli._read({"static": {"k": {"n_max": 316}}}, cli.DEFAULT_CONFIG)
        )


# The spectrum configs whose tables must not move: the default, decoupled
# and broken K models up to the cap, lam < 0 (a -0 imaginary part on the
# diagonal), negative K frequencies and a 300 x 300 xy table.
SPECTRUM_CASES = {
    "default": {},
    "k-decoupled": {"k": {"a": 1.0, "b": 3.0, "lam": 1.0, "n_max": 7}},
    "k-decoupled-cap": {"k": {"a": 1.0, "b": 3.0, "lam": 1.0, "n_max": 315}},
    "k-broken-cap": {"k": {"n_max": 315}},
    "k-broken-negative-lam": {"k": {"lam": -0.7}},
    "k-negative-frequency": {"k": {"a": -2.0, "b": 3.0, "lam": 1.0}},
    "k-zero": {"k": {"a": 0.0, "b": 0.0, "lam": 0.3}},
    "xy-300": {"xy": {"n_max": 300, "m_max": 300}},
}


def per_level_spectra(cfg):
    """spectrum_xy.csv and spectrum_k.csv of `cfg`, one level at a time.

    Each level is a tuple of plain floats and ints, the decoupled tables
    sorted by Python, and each value printed by '%.17g'.
    """
    xy, k = cfg["static"]["xy"], cfg["static"]["k"]
    model = XYModel(xy["m"], xy["omega_x"], xy["omega_y"], xy["coupling"])
    _, wx, wy = decouple_xy(model)
    xy_rows = sorted(
        ((n + 0.5) * wx + (m + 0.5) * wy, n, m)
        for n in range(xy["n_max"] + 1)
        for m in range(xy["m_max"] + 1)
    )
    pairs = [(n, m) for n in range(k["n_max"] + 1) for m in range(k["n_max"] + 1)]
    result = decouple_K(k["a"], k["b"], k["lam"])
    if isinstance(result, BrokenRegime):
        a, lam = k["a"], k["lam"]
        energies = (complex(a * (1 + n + m), 0.5 * lam * (n - m)) for n, m in pairs)
        k_rows = [(e.real, e.imag, n, m) for e, (n, m) in zip(energies, pairs)]
    else:
        c1, c2 = (float(c) for c in result[1].vector.real[:2])
        k_rows = sorted(
            ((n + 0.5) * c1 + (m + 0.5) * c2, 0.0, n, m) for n, m in pairs
        )
    return {
        "spectrum_xy.csv": per_value_csv(["energy", "n", "m"], xy_rows),
        "spectrum_k.csv": per_value_csv(["energy_re", "energy_im", "n", "m"], k_rows),
    }


@pytest.mark.parametrize("static", SPECTRUM_CASES.values(), ids=SPECTRUM_CASES)
def test_spectrum_tables_match_a_per_level_reference(tmp_path, static):
    cfg = write_config(tmp_path, {"static": static})
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    for name, text in per_level_spectra(cli.load_config(cfg)).items():
        assert_same_text((out / name).read_text(encoding="utf-8"), text)


@pytest.mark.parametrize(
    "a, b, lam",
    [(1.0, 2.0, 3.0), (1.0, 1.5, 0.8), (1.0, 1.5, -0.8), (2.0, 1.0, -3.0),
     (0.3, -0.4, 2.0), (1.0, 2.0, 1.0)],
)
def test_partially_broken_spectrum_matches_the_number_basis(tmp_path, a, b, lam):
    # every level with n + m <= 12 against the eigenvalues of a K1 + b K2 +
    # i lam K3 on that block; at the exceptional point |lam| = |a - b| the
    # blocks are defective, so there each block's trace and the trace of its
    # square are compared instead
    size = 12
    static = {"k": {"a": a, "b": b, "lam": lam, "n_max": size}}
    cfg = write_config(tmp_path, {"static": static})
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "spectrum_k.csv")
    table = np.array(rows, dtype=float)
    energy, total = table[:, 0] + 1j * table[:, 1], table[:, 2] + table[:, 3]
    gens = fock_oracle.build_generators(fock_oracle.FockBasis(size))
    for k, g in enumerate(gens):
        ham = a * g[0] + b * g[1] + 1j * lam * g[2]
        levels = energy[total == k]
        if abs(lam) == abs(a - b):
            assert abs(np.trace(ham) - levels.sum()) < 1e-12 * (k + 1) ** 2
            square = np.trace(ham @ ham) - np.sum(levels**2)
            assert abs(square) < 1e-12 * (k + 1) ** 3
        else:
            numeric = np.linalg.eigvals(ham)
            got, want = (v[np.argsort(v.imag)] for v in (levels, numeric))
            assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize(
    "static, message",
    [
        (
            {"k": {"a": 1e308, "b": 1e308}},
            "energy_re = inf at row 2 in spectrum_k.csv; no file written",
        ),
        # (n + 1/2) 1e308 overflows from n = 2 on, and inf - inf is nan
        (
            {"k": {"a": 1e308, "b": -1e308, "lam": 0.0}},
            "energy_re = -inf at row 1 in spectrum_k.csv; no file written",
        ),
    ],
    ids=["broken", "decoupled"],
)
def test_an_overflowing_level_table_fails_without_a_warning(tmp_path, static, message):
    cfg = write_config(tmp_path, {"static": static})
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ptdyson.cli",
            "spectrum",
            "--config",
            cfg,
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == f"numerical failure: {message}\n"
    assert not (tmp_path / "out").exists()


_EXPONENTIAL_LAM = {"kind": "exponential", "offset": 0.5, "amp": 0.3, "rate": 80.0}


@pytest.mark.parametrize(
    "command, config, status, failure",
    [
        # cosh(2 (q2 - L)) overflows, and the split it divides tends to 0
        ("evolve", {"scenario": {"q2": 400}}, 0, None),
        (
            "oracle",
            {"scenario": {"q2": 400}},
            3,
            "dyson_residual = nan at t = 0 in oracle.csv",
        ),
        (
            "evolve",
            {"scenario": {"lam": _EXPONENTIAL_LAM}},
            3,
            "gamma3 = -inf at t = 0.20100502512562815 in evolve.csv",
        ),
        (
            "evolve",
            {"scenario": {"a": {"kind": "polynomial", "coeffs": [1e200, 1e200]}}},
            3,
            "dyson_residual = inf at t = 0 in evolve.csv",
        ),
    ],
    ids=["evolve-q2", "oracle-q2", "evolve-exponential-lam", "evolve-polynomial-a"],
)
def test_numpy_warnings_stay_off_stderr(tmp_path, command, config, status, failure):
    cfg = write_config(tmp_path, config)
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "ptdyson.cli",
            command,
            "--config",
            cfg,
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == status
    if failure is None:
        assert proc.stderr == ""
    else:
        assert proc.stderr == f"numerical failure: {failure}; no file written\n"


# ---------------------------------------------------------------------------
# modes


def test_modes_writes_grid_rows(tmp_path):
    cfg = write_config(
        tmp_path,
        {"modes_grid": {"points": 5, "times": [0.5]}},
    )
    rc = cli.main(["modes", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "modes.csv")
    assert header == ["x", "y", "t", "re_psi", "im_psi"]
    assert len(rows) == 25
    assert all(float(r[2]) == 0.5 for r in rows)
    mags = [math.hypot(float(r[3]), float(r[4])) for r in rows]
    assert max(mags) > 1e-3
    assert all(np.isfinite(mags))


@pytest.mark.parametrize("command", ["modes", "evolve"])
@pytest.mark.parametrize("key", ["n", "m"])
def test_a_mode_index_above_the_hermite_cap_is_refused_by_key(
    tmp_path, capsys, command, key
):
    # a config rule, so evolve, which evaluates no mode, refuses it too
    cfg = write_config(tmp_path, {"scenario": {key: modes.MAX_HERMITE_DEGREE + 1}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: scenario.{key} must be <= 60, got 61\n"
    assert not out.exists()


def test_modes_runs_at_the_hermite_cap(tmp_path):
    cfg = write_config(
        tmp_path,
        {"scenario": {"n": 60, "m": 60}, "modes_grid": {"points": 3, "times": [0.5]}},
    )
    assert cli.main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "modes.csv").exists()


def test_modes_silent_drive_is_a_numerical_failure(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "scenario": {
                "a": {"kind": "constant", "value": 0.0},
                "lam": {"kind": "constant", "value": 0.0},
            },
            "modes_grid": {"points": 3, "times": [0.5]},
        },
    )
    rc = cli.main(["modes", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_modes_refuses_a_driver_that_is_not_finite(tmp_path, capsys):
    # lam = e^(800 t) overflows at t = 1.5, and f_plus is NaN there; the mode
    # reads only the driver's running integral, so psi alone stays finite
    cfg = write_config(
        tmp_path,
        {"scenario": {"lam": {"kind": "exponential", "offset": 0, "amp": 1, "rate": 800}}},
    )
    out = tmp_path / "out"
    assert cli.main(["modes", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "numerical failure: driver value nan at t = 1.5\n"
    assert captured.out == ""
    assert not out.exists()


def test_modes_evaluates_each_mode_once_per_axis_point(tmp_path, monkeypatch):
    sizes = []
    mode_pair_at = modes._mode_pair_at

    def counting(spec, x, time_factors):
        sizes.append(np.size(x))
        return mode_pair_at(spec, x, time_factors)

    monkeypatch.setattr(modes, "_mode_pair_at", counting)
    cfg = write_config(tmp_path, {"modes_grid": {"points": 7, "times": [0.5, 1.5]}})
    assert cli.main(["modes", "--config", cfg, "--out", str(tmp_path)]) == 0
    # one call per axis and time, on the 7 axis points, not the 49 grid points
    assert sizes == [7] * 4


def test_modes_csv_is_the_product_at_every_grid_point(tmp_path):
    overrides = {
        "modes_grid": {"points": 57, "times": [0.1, 0.9, 2.0, 3.3]},
        "scenario": {"n": 2, "m": 1, "ktilde_plus": 0.3},
    }
    path = write_config(tmp_path, overrides)
    assert cli.main(["modes", "--config", path, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "modes.csv")
    written = np.array([[float(v) for v in row] for row in rows])
    cfg = cli.load_config(path)
    scenario, mg = cli.build_scenario(cfg), cfg["modes_grid"]
    axis = np.linspace(mg["x_min"], mg["x_max"], mg["points"])
    x, y = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    expected = []
    for t in mg["times"]:
        # the product evaluated at each of the points^2 grid points
        psi = modes.product_state(scenario.n, scenario.m, scenario, x, y, t)
        expected.append(np.column_stack((x, y, np.full_like(x, t), psi.real, psi.imag)))
    expected = np.concatenate(expected)
    assert written.shape == expected.shape
    assert (written.view(np.int64) == expected.view(np.int64)).all()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_reports_small_residuals(tmp_path):
    cfg = write_config(
        tmp_path,
        {"grid": {"samples": 5}, "oracle": {"size": 8, "buffer": 2}},
    )
    rc = cli.main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "oracle.csv")
    assert header == [
        "t",
        "dyson_residual",
        "quasi_hermiticity_residual",
        "metric_floor_min",
        "metric_observed_min",
    ]
    assert len(rows) == 5
    for row in rows:
        _, dy, qh, floor, observed = (float(v) for v in row)
        assert dy < 1e-6
        assert qh < 1e-6
        assert 0.0 < floor <= observed * (1.0 + 1e-9)


def test_oracle_caps_the_time_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "grid": {"t_end": 2.0, "samples": 80},
            "oracle": {"size": 6, "buffer": 2},
        },
    )
    rc = cli.main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "oracle.csv")
    assert len(rows) == 25
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 2.0


def test_oracle_computes_block_eigensystems_once_per_column(tmp_path, monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert cli.main(["oracle", "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "oracle.csv")[1]) == 25
    # two mixing generators per block: blocks 0..size - buffer = 10 once for
    # each residual column and once for the metric's observed minimum
    assert len(shapes) == 3 * 2 * 11


# ---------------------------------------------------------------------------
# validate


def test_validate_passes_and_writes_report(tmp_path, capsys):
    rc = cli.main(["validate", "--out", str(tmp_path)])
    assert rc == 0
    report = (tmp_path / "validate.txt").read_text(encoding="utf-8")
    assert "overall PASS: 13/13 criteria passed" in report
    assert report.count("criterion") == 13
    out = capsys.readouterr().out
    assert "overall PASS" in out


def test_validate_pins_the_default_config():
    # every default section but modes_grid is the gate's own record
    record = validation.REFERENCE_CONFIG
    assert cli.DEFAULT_CONFIG.keys() - {"modes_grid"} == record.keys()
    for key in record:
        assert cli.DEFAULT_CONFIG[key] is record[key], key
    # and the default config builds the gate's objects
    built = cli.validate_config(cli.load_config(None))
    times = validation.sample_times()
    pinned, default = validation.default_scenario(), built["scenario"]
    for key in ("a", "lam"):
        assert np.array_equal(getattr(pinned, key)(times), getattr(default, key)(times))
    for key in ("q1", "q2", "q3", "ktilde_plus", "ktilde_minus", "n", "m"):
        assert getattr(pinned, key) == getattr(default, key), key
    assert validation.default_invariant_coeffs() == built["invariant"]


# ---------------------------------------------------------------------------
# exit codes through main()


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"q3": 1.2}})
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "|q3| < 1" in err


def test_main_missing_config_exit_code(tmp_path, capsys):
    rc = cli.main(
        ["evolve", "--config", str(tmp_path / "ghost.json"), "--out", str(tmp_path)]
    )
    assert rc == 2
    assert "not found" in capsys.readouterr().err


def test_main_unknown_profile_kind_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"a": {"kind": "sawtooth"}}})
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "sawtooth" in err


@pytest.mark.parametrize("patch, fragment", PROFILE_FIELD_CASES)
def test_main_names_a_malformed_profile_field(tmp_path, capsys, patch, fragment):
    cfg = write_config(tmp_path, patch)
    rc = cli.main(["modes", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert re.search(fragment, err)
    assert not (tmp_path / "modes.csv").exists()


@pytest.mark.parametrize(
    "command, patch, fragment",
    [
        ("modes", {"modes_grid": {"times": [-1.0]}}, "modes_grid.times[0]"),
        ("evolve", SHORT_TABULATED_A, "grid.t_end"),
        ("oracle", SHORT_TABULATED_A, "grid.t_end"),
    ],
)
def test_main_names_a_time_outside_the_profile_domain(
    tmp_path, capsys, command, patch, fragment
):
    cfg = write_config(tmp_path, patch)
    rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err
    assert not (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize(
    "patch, fragment", UNKNOWN_KEY_CASES + OVERSIZED_INT_CASES + BUILD_CASES
)
def test_main_names_an_unknown_key_or_oversized_number(
    tmp_path, capsys, patch, fragment
):
    cfg = write_config(tmp_path, patch)
    rc = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert fragment in err
    assert not (tmp_path / "evolve.csv").exists()


def test_validate_config_accepts_times_at_the_domain_end():
    # the profile's own inclusive test: t_end on the last tabulated node
    # and modes times on the domain's edges are inside
    patch = {
        **SHORT_TABULATED_A,
        "grid": {"t_start": 0.0, "t_end": 3.0},
        "modes_grid": {"times": [0.0, 3.0]},
    }
    cli.validate_config(cli._read(patch, cli.DEFAULT_CONFIG))


def test_oracle_refuses_a_buffer_that_covers_the_basis(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"oracle": {"size": 6, "buffer": 6}, "grid": {"samples": 2}}
    )
    rc = cli.main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "oracle.buffer" in capsys.readouterr().err
    assert not (tmp_path / "oracle.csv").exists()


@pytest.mark.parametrize(
    "patch, fragment",
    [
        # spectrum_xy.csv is computed first and is finite; spectrum_k.csv is not
        (
            {"static": {"k": {"a": 1e308, "b": 1e308}}},
            "energy_re = inf at row 2 in spectrum_k.csv; no file written",
        ),
        # plain-float overflow in the decoupling and in the exceptional point
        ({"static": {"k": {"a": 1e308}}}, ""),
        ({"static": {"xy": {"omega_y": 1e200}}}, ""),
    ],
    ids=["inf-level", "overflow-k", "overflow-xy"],
)
def test_a_failing_run_writes_no_file(tmp_path, capsys, patch, fragment):
    cfg = write_config(tmp_path, patch)
    out = tmp_path / "out"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure:")
    assert fragment in captured.err
    assert captured.out == ""
    assert list(out.glob("*")) == []


@pytest.mark.parametrize(
    "command, patch, fragment",
    [
        ("spectrum", {"static": {"k": {"a": 1e308}}}, "a - b = 1e+308: its square overflows"),
        (
            "spectrum",
            {"static": {"xy": {"omega_y": 1e200}}},
            "omega_y = 1e+200: its square overflows",
        ),
        *(
            (command, {"invariant": {"c3_real": 1e200}}, "Re c3 = 1e+200: its square overflows")
            for command in ("evolve", "spectrum", "modes", "validate")
        ),
        (
            "evolve",
            {"invariant": {"c3_real": -1e200}},
            "Re c3 = -1e+200: its square overflows",
        ),
        (
            "evolve",
            {"scenario": {"ktilde_plus": 1e200}},
            "ktilde_plus = 1e+200: its square overflows",
        ),
        (
            "evolve",
            {"scenario": {"ktilde_minus": -1e200}},
            "ktilde_minus = -1e+200: its square overflows",
        ),
        ("modes", {"scenario": {"ktilde_plus": 1e200}}, "ktilde = 1e+200: its square overflows"),
        ("modes", {"scenario": {"ktilde_minus": -1e200}}, "ktilde = -1e+200: its square overflows"),
    ],
    ids=[
        "k", "xy", "c3-evolve", "c3-spectrum", "c3-modes", "c3-validate",
        "negative-c3-evolve", "ktilde-plus-evolve", "ktilde-minus-evolve",
        "ktilde-plus-modes", "ktilde-minus-modes",
    ],
)
def test_an_overflow_names_the_quantity_and_its_value(
    tmp_path, capsys, command, patch, fragment
):
    cfg = write_config(tmp_path, patch)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"numerical failure: {fragment} a float\n"


def test_an_array_too_large_to_allocate_is_a_numerical_failure(tmp_path, capsys):
    # 10^15 samples are 8 PB of float64, past any process's address space,
    # so the allocation fails at once and touches no memory
    cfg = write_config(tmp_path, {"grid": {"samples": 1e15}})
    out = tmp_path / "out"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("numerical failure: Unable to allocate ")
    assert "shape (1000000000000000,)" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def _float_keys(node, path=()):
    """Key paths of the float leaves of a config, list entries as indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _float_keys(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _float_keys(value, path + (i,))
    elif isinstance(node, float):
        yield path


def _patched(path, value):
    """The config fragment that sets the float leaf at `path` to `value`."""
    if isinstance(path[-1], int):
        entries = list(cli.DEFAULT_CONFIG[path[0]][path[1]])
        entries[path[-1]] = value
        return {path[0]: {path[1]: entries}}
    fragment = value
    for key in reversed(path):
        fragment = {key: fragment}
    return fragment


# A refusal names the swept value (the key path or the quantity that holds
# it), or the table column that went non-finite and its time.
_NAMED = re.compile(r"1e\+200|\w+ = -?(inf|nan) at t = ")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_every_float_key_at_an_extreme_fails_cleanly(tmp_path, capsys):
    keys = list(_float_keys(cli.DEFAULT_CONFIG))
    assert len(keys) == 28
    for path in keys:
        for value in (1e200, -1e200):
            cfg = write_config(tmp_path, _patched(path, value))
            where = f"{path} = {value}"
            for command in ("evolve", "spectrum", "modes"):
                rc = cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")])
                err = capsys.readouterr().err
                assert rc in (0, 2, 3), where
                assert "Traceback" not in err and "out of range" not in err, where
                assert rc == 0 or _NAMED.search(err), (where, command, err)
            # the gate itself runs pinned inputs: check the config only
            try:
                cli.validate_config(cli.load_config(cfg))
            except (ConfigError, OverflowError) as err:
                assert _NAMED.search(str(err)), (where, str(err))


def test_an_out_path_that_is_a_file_exits_cleanly(tmp_path, capsys):
    out = tmp_path / "F"
    out.write_text("kept", encoding="utf-8")
    assert cli.main(["spectrum", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert out.read_text(encoding="utf-8") == "kept"
    assert list(tmp_path.iterdir()) == [out]


def test_a_file_that_cannot_be_written_exits_cleanly(tmp_path, capsys):
    (tmp_path / "ep_report.txt").mkdir()
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("output error:")
    assert "ep_report.txt" in captured.err
    assert captured.out == ""


def test_stdout_echoes_the_report_and_lists_each_file_written(tmp_path, capsys):
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    report = (tmp_path / "ep_report.txt").read_text(encoding="utf-8")
    assert out == report + "".join(
        f"wrote {tmp_path / name}\n"
        for name in ("spectrum_xy.csv", "spectrum_k.csv", "ep_report.txt")
    )


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_commands_return_their_outputs_and_write_nothing(
    tmp_path, monkeypatch, capsys, command
):
    monkeypatch.chdir(tmp_path)
    cfg = cli._read(
        {"grid": {"samples": 5}, "oracle": {"size": 4}, "modes_grid": {"points": 3}},
        cli.DEFAULT_CONFIG,
    )
    outputs, status = cli._COMMANDS[command](cfg, cli.validate_config(cfg))
    assert status == 0
    assert outputs and all(isinstance(out, (str, tuple)) for out in outputs.values())
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == []


def per_value_csv(header, rows):
    """The CSV text of `rows` with each value formatted by '%.17g' on its own."""
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % x for x in row) + "\n" for row in np.asarray(rows).tolist()
    )


def assert_same_text(actual, expected):
    for i, (a, b) in enumerate(zip(actual.split("\n"), expected.split("\n"))):
        assert a == b, f"line {i + 1}"
    assert actual == expected


def formatting_corpus():
    """Finite doubles where a 17-digit printer can go wrong, from a fixed seed."""
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, 120_000, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(1, 2**52, 2_000, dtype=np.uint64)
    subnormal |= rng.integers(0, 2, subnormal.size, dtype=np.uint64) << np.uint64(63)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    dyadic = rng.integers(1, 2**40, 20_000) / 2.0 ** rng.integers(0, 80, 20_000)
    near = np.concatenate(
        [c + np.arange(-300.0, 300.0) * d for c, d in ((2.0**53, 1), (1e16, 1), (1e17, 16))]
    )
    switches = np.array([1e-5, 1e-4, 1e16, 1e17, 9.999999999999999e-5])
    groups = [
        bits.view(float)[np.isfinite(bits.view(float))],
        subnormal.view(float),
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        dyadic,
        near,
        switches,
        np.nextafter(switches, 0.0),
        np.nextafter(switches, np.inf),
        np.linspace(9e-6, 2e-4, 5_001),
        np.linspace(9e15, 2e17, 5_001),
        [1.5e-300, 1.2345e150, 2.2250738585072014e-308, 1.7976931348623157e308],
    ]
    values = np.concatenate([np.ravel(g) for g in groups])
    return np.concatenate([values, -values])


def test_csv_text_matches_per_value_formatting():
    values = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]
    values += [0.1, -0.1, 1.0, -3.0, 2.0**53, 1 / 3]
    header = ("t", "a", "b", "c")
    rows = np.array(values).reshape(-1, len(header))
    expected = "t,a,b,c\n" + "".join(
        ",".join(f"{float(x):.17g}" for x in row) + "\n" for row in rows
    )
    assert cli._csv_text("table.csv", header, rows) == expected

    corpus = formatting_corpus()
    assert corpus.size > 10**5 and np.all(np.isfinite(corpus))
    for n_cols in (1, 3, 11):
        header = tuple(f"c{j}" for j in range(n_cols))
        rows = corpus[: corpus.size // n_cols * n_cols].reshape(-1, n_cols)
        assert_same_text(cli._csv_text("table.csv", header, rows), per_value_csv(header, rows))
    # a block is about cli._BLOCK_FIELDS fields of whole rows: a last block
    # shorter than the others, and one row alone
    header = ("a", "b", "c")
    rows = corpus[: 3 * (2 * (cli._BLOCK_FIELDS // 3) + 7)].reshape(-1, 3)
    assert_same_text(cli._csv_text("t.csv", header, rows), per_value_csv(header, rows))
    assert cli._csv_text("t.csv", header, rows[:1]) == per_value_csv(header, rows[:1])
    assert cli._csv_text("t.csv", header, np.empty((0, 3))) == "a,b,c\n"


EVOLVE_LONG_SHAPED = {
    # the shape of the benchmark's evolve-long config at 400 samples: `a`
    # tabulated on 64 nodes, `lam` a sinusoid
    "scenario": {
        "a": {
            "kind": "tabulated",
            "times": np.linspace(0.0, 10.0, 64).tolist(),
            "values": (
                1.0 + 0.07 * np.sin(1.3 * np.linspace(0.0, 10.0, 64) + 0.4)
            ).tolist(),
        },
        "lam": {"kind": "sinusoid", "offset": 0.55, "amp": 0.2, "omega": 1.1, "phase": 0.3},
        "q2": -1.3,
        "q3": 0.45,
        "n": 2,
        "m": 1,
    },
    "grid": {"samples": 400},
}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("evolve", {}),
        ("evolve", EVOLVE_LONG_SHAPED),
        ("modes", {}),
        ("oracle", {}),
        ("spectrum", {}),
    ],
    ids=["evolve", "evolve-long-shaped", "modes", "oracle", "spectrum"],
)
def test_every_csv_is_its_own_per_value_rendering(tmp_path, command, overrides):
    cfg = write_config(tmp_path, overrides)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    tables = sorted(tmp_path.glob("*.csv"))
    assert tables
    for path in tables:
        text = path.read_text(encoding="utf-8")
        header, *lines = text.split("\n")
        assert lines[-1] == "" and all(lines[:-1]), path.name
        rows = [[float(v) for v in line.split(",")] for line in lines[:-1]]
        assert_same_text(text, per_value_csv(header.split(","), rows))


def test_main_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ptdyson.cli", "spectrum", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "wrote" in proc.stdout
    assert (tmp_path / "spectrum_k.csv").exists()


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; importing it would cost most of start-up
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ptdyson, ptdyson.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_loads_no_fractions_or_decimal():
    # the CSV writer's powers of ten come from int arithmetic; fractions alone
    # would add about 2.5 ms to every start-up
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ptdyson, ptdyson.cli; "
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))",
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_loads_no_random_number_generator(tmp_path):
    # criteria 09 and 11 read stored draws; numpy.random costs about 5 MiB
    script = (
        "import sys\n"
        "from ptdyson import cli\n"
        f"status = cli.main(['validate', '--out', {str(tmp_path)!r}])\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "validate.txt").exists()
