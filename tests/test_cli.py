"""End-to-end checks for the batch front door.

Everything goes through cli.main() in-process so exit codes and stderr
text are asserted exactly; one subprocess smoke test covers the
``python -m`` entry point.  Configs are written to tmp_path as JSON and
kept small so the whole file stays fast.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ptdyson import cli
from ptdyson.errors import ConfigError


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
    ],
)
def test_validate_config_names_the_invariant(patch, fragment):
    cfg = cli._merge(cli.DEFAULT_CONFIG, patch)
    with pytest.raises(ConfigError, match=fragment):
        cli.validate_config(cfg)


def test_validate_config_accepts_defaults():
    cli.validate_config(cli.load_config(None))


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
