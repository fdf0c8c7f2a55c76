"""Command-line front end: configs, artifacts, exit codes, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meanreflect as mr
from meanreflect import cli, constraints, mrbsde, penalty, skorokhod
from meanreflect.verify import SUITE_NAMES
from conftest import peak_bytes


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _flat_config(**extra):
    cfg = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": 8,
        "particles": 2_000,
        "seed": 7,
        "terminal": {"kind": "bounded-sin", "scale": 0.5},
        "generator": {"kind": "constant", "value": 0.0},
        "losses": {"kind": "saturating-band", "lower": -5.0, "upper": 5.0},
    }
    cfg.update(extra)
    return cfg


def _clamp_config(**extra):
    cfg = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": 25,
        "particles": 20_000,
        "seed": 7,
        "method": "constant-driver",
        "terminal": {"kind": "brownian"},
        "generator": {"kind": "constant", "value": 4.0},
        "losses": {"kind": "linear-band", "lower": -1.0, "upper": 2.0},
    }
    cfg.update(extra)
    return cfg


def _read_table(path):
    lines = path.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0], rows


# ---------------------------------------------------------------------------
# config loading and seed resolution
# ---------------------------------------------------------------------------


def test_load_config_failures(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(cli.ConfigError):
        cli.load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(cli.ConfigError):
        cli.load_config(arr)
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(cli.ConfigError):
        cli.load_config(stale)


def test_seed_precedence():
    assert cli.resolve_seed(5, {"seed": 3}) == 5
    assert cli.resolve_seed(None, {"seed": 3}) == 3
    assert cli.resolve_seed(None, {}) == 0
    assert cli.resolve_seed(4, {}) == 4


def test_seed_validation():
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(-1, {})
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(None, {"seed": True})
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(None, {"seed": 1.5})


# ---------------------------------------------------------------------------
# scenario assembly from config nodes
# ---------------------------------------------------------------------------


def test_build_scenario_requires_core_fields():
    with pytest.raises(cli.ConfigError):
        cli.build_scenario({"horizon": 1.0}, seed=0)


@pytest.mark.parametrize("bad", [10.7, True, "8"])
@pytest.mark.parametrize("field", ["steps", "particles", "degree", "max_iterations"])
def test_integer_fields_reject_non_integers(field, bad):
    cfg = _flat_config()
    if field in ("degree", "max_iterations"):
        cfg["solver"] = {field: bad}
    else:
        cfg[field] = bad
    with pytest.raises(cli.ConfigError, match=field):
        cli.build_scenario(cfg, seed=0)
    cfg.update(steps=8.0, solver={"degree": 3.0})  # integral floats are integers
    sc = cli.build_scenario(dict(cfg, particles=2_000), seed=0)
    assert sc.steps == 8 and sc.regression.degree == 3


def test_terminal_kinds():
    b = np.array([-1.0, 0.5])
    f = cli._parse_terminal({"kind": "brownian", "scale": 2.0, "shift": 1.0})
    np.testing.assert_array_equal(f(b), 2.0 * b + 1.0)
    f = cli._parse_terminal({"kind": "constant", "value": 1.5})
    np.testing.assert_array_equal(f(b), [1.5, 1.5])
    f = cli._parse_terminal({"kind": "bounded-sin", "scale": 3.0})
    np.testing.assert_array_equal(f(b), 3.0 * np.sin(b))
    with pytest.raises(cli.ConfigError):
        cli._parse_terminal({"kind": "cosine"})
    with pytest.raises(cli.ConfigError):
        cli._parse_terminal({"kind": "constant"})  # value missing


def test_generator_kinds():
    assert cli._parse_generator({"kind": "constant", "value": 2.0}).mode == "lipschitz"
    assert cli._parse_generator({"kind": "linear", "a": 0.5}).mode == "lipschitz"
    gq = cli._parse_generator({"kind": "quadratic-z", "gamma": 1.0})
    assert gq.mode == "quadratic"
    gm = cli._parse_generator({"kind": "affine-mix", "a_mean_z": 0.25})
    assert gm.depends_on_z_law
    with pytest.raises(cli.ConfigError):
        cli._parse_generator({"kind": "cubic"})


def test_per_side_affine_losses():
    lp = cli._parse_losses(
        {
            "kind": "linear",
            "L": {"slope": 1.0, "intercept": -3.0},
            "R": {"slope": 1.0, "intercept": -1.0},
        }
    )
    assert lp.affine and lp.gap == 2.0
    assert lp.L(0.0, 3.0) == 0.0 and lp.R(0.0, 1.0) == 0.0
    with pytest.raises(cli.ConfigError):
        cli._parse_losses(
            {
                "kind": "linear",
                "L": {"slope": -1.0, "intercept": -3.0},
                "R": {"slope": 1.0, "intercept": -1.0},
            }
        )
    with pytest.raises(cli.ConfigError):
        # roots in the wrong order leave no admissible band
        cli._parse_losses(
            {
                "kind": "linear",
                "L": {"slope": 1.0, "intercept": -1.0},
                "R": {"slope": 1.0, "intercept": -3.0},
            }
        )


def test_linear_losses_need_one_slope(tmp_path, capsys):
    # with slopes 2 and 1, R - L = 3 - x has a slope: no gap holds everywhere
    unequal = {
        "kind": "linear",
        "L": {"slope": 2.0, "intercept": -2.0},
        "R": {"slope": 1.0, "intercept": 1.0},
    }
    with pytest.raises(cli.ConfigError, match=r"losses\.L\.slope and losses\.R\.slope"):
        cli._parse_losses(unequal)
    cfg = _write(tmp_path, "slopes.json", _flat_config(losses=unequal))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "losses.R.slope" in err["message"]
    assert not (out / "result.csv").exists()
    # one slope below 1: the declared gap is R - L itself, so the pair passes its entry check
    half = {
        "kind": "linear",
        "L": {"slope": 0.5, "intercept": -3.0},
        "R": {"slope": 0.5, "intercept": -1.0},
    }
    assert cli.build_scenario(_flat_config(losses=half), 0).losses.gap == 2.0


def test_envelope_nodes():
    env = cli._parse_envelope({"kind": "affine-envelope", "p": 3.0, "q": -1.0})
    assert env.b(0.3) == 1.0 and env.p(0.7) == 3.0
    env = cli._parse_envelope(
        {
            "kind": "affine-envelope",
            "b": 1.0,
            "p": [3.0, 4.0],
            "q": [-1.0, -1.0],
            "times": [0.0, 1.0],
        }
    )
    assert env.p(0.5) == 3.5 and env.q(0.5) == -1.0
    with pytest.raises(cli.ConfigError):
        cli._parse_envelope({"kind": "affine-envelope", "p": -1.0, "q": 3.0})
    with pytest.raises(cli.ConfigError):
        cli._parse_envelope({"kind": "ellipse", "p": 3.0, "q": -1.0})
    with pytest.raises(cli.ConfigError):
        cli._parse_envelope(
            {"kind": "affine-envelope", "p": [3.0], "q": -1.0, "times": [0.0]}
        )


def test_obstacle_nodes():
    grid = mr.build_grid(1.0, 4)
    obs = cli._parse_obstacles(
        {"kind": "linear-rates", "lower_rate": -2.0, "upper_rate": 2.0}
    )
    lo, hi = obs.sample(grid)
    np.testing.assert_allclose(lo, -2.0 * grid.nodes)
    np.testing.assert_allclose(hi, 2.0 * grid.nodes)
    obs = cli._parse_obstacles(
        {
            "kind": "sampled-rates",
            "times": [0.0, 1.0],
            "lower_rate": [-2.0, -2.0],
            "upper_rate": [2.0, 2.0],
            "lower_start": -0.5,
            "upper_start": 0.5,
        }
    )
    lo, hi = obs.sample(grid)
    np.testing.assert_allclose(lo, -0.5 - 2.0 * grid.nodes)
    with pytest.raises(cli.ConfigError):
        cli._parse_obstacles({"kind": "stairs"})
    with pytest.raises(cli.ConfigError):
        cli._parse_obstacles(
            {"kind": "linear-rates", "lower_rate": 0.0, "upper_rate": 0.0, "lower_start": 1.0}
        )


_MISSPELT = {
    "config": lambda c: c.update(methd="picard"),
    "terminal": lambda c: c["terminal"].update(scal=2.0),
    "generator": lambda c: c.update(generator={"kind": "affine-mix", "ay": 2.0}),
    "losses": lambda c: c["losses"].update(lowr=-1.0),
    "losses.L": lambda c: c.update(
        losses={
            "kind": "linear",
            "L": {"slope": 1.0, "intercept": -3.0, "slop": 2.0},
            "R": {"slope": 1.0, "intercept": -1.0},
        }
    ),
    "losses.R": lambda c: c.update(
        losses={
            "kind": "linear",
            "L": {"slope": 1.0, "intercept": -3.0},
            "R": {"slope": 1.0, "intercept": -1.0, "kind": "affine"},
        }
    ),
    "envelope": lambda c: c.update(
        envelope={"kind": "affine-envelope", "p": 3.0, "q": 1.0, "pp": 4.0}
    ),
    "sampled envelope": lambda c: c.update(
        envelope={
            "kind": "affine-envelope",
            "p": [3.0, 3.0],
            "q": 1.0,
            "times": [0.0, 1.0],
            "tims": [0.0],
        }
    ),
    "constant envelope with times": lambda c: c.update(
        envelope={"kind": "affine-envelope", "p": 3.0, "q": 1.0, "times": [0.0, 1.0]}
    ),
    "obstacles": lambda c: c.update(
        obstacles={"kind": "linear-rates", "lower_rate": -1.0, "upper_rate": 1.0, "lower_rat": 0.0}
    ),
    "sampled obstacles": lambda c: c.update(
        obstacles={
            "kind": "sampled-rates",
            "times": [0.0, 1.0],
            "lower_rate": [-1.0, -1.0],
            "upper_rate": [1.0, 1.0],
            "upper_star": 1.0,
        }
    ),
    "solver picard_tolerance": lambda c: c.update(solver={"picard_tolerance": 1e-3}),
    "solver max_iter": lambda c: c.update(solver={"max_iter": 2}),
    "solver stiff_max": lambda c: c.update(solver={"stiff_max": 0.5}),
    # the numerical floors are constants now, so even their defaults are unknown
    "solver root_tol": lambda c: c.update(solver={"root_tol": 1e-12}),
    "solver band_min": lambda c: c.update(solver={"band_min": 1e-9}),
    "solver stat_tol_mult": lambda c: c.update(solver={"stat_tol_mult": 4.0}),
}


@pytest.mark.parametrize("where", list(_MISSPELT))
def test_unknown_fields_are_config_errors(tmp_path, capsys, where):
    # a misspelt field used to be ignored, solving with its default instead
    cfg = _flat_config()
    _MISSPELT[where](cfg)
    path = _write(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    command = "sweep-penalty" if "obstacles" in where else "run"  # the command reading the block
    assert cli.main([command, path, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "unknown field" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("field", ["penalty", "obstacles"])
def test_run_rejects_sweep_only_fields(tmp_path, capsys, field):
    # neither the Picard nor the constant-driver route reads these, so a run
    # used to ignore them
    cfg = _write(tmp_path, "run.json", _clamp_config(**{field: _sweep_config()[field]}))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and field in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("method", "picard"),
        ("init", "unreflected"),
        ("envelope", {"kind": "affine-envelope", "p": 40.0, "q": -40.0}),
        ("solver", {}),
    ],
)
def test_sweep_rejects_run_only_fields(tmp_path, capsys, field, value):
    # the sweep runs no Picard iteration and no envelope guard, so it used to
    # ignore these
    cfg = _write(tmp_path, "sweep.json", _sweep_config(**{field: value}))
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and field in err["message"]
    assert not out.exists()


def test_unknown_penalty_field_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "sweep.json", _sweep_config(penalty={"level": [8.0, 64.0]}))
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "level" in err["message"]
    assert not out.exists()


# every field of the run's solver block, with its default
_SOLVER_DEFAULTS = {**asdict(mr.RegressionConfig()), **asdict(mr.Tolerances())}
_SOLVER_NUMBERS = list(_SOLVER_DEFAULTS)


@pytest.mark.parametrize(
    "field,value",
    [
        ("degree", 7),
        ("ridge", 0.5),
        ("z_mode", "none"),
        ("picard_tol", 1e-3),
        ("max_iterations", 3),
        ("contraction_margin", 0.5),
        ("band_min", 1e-9),
        ("stat_tol_mult", 4.0),
        ("root_tol", 1e-12),
    ],
)
def test_sweep_rejects_solver_fields_it_does_not_read(tmp_path, capsys, field, value):
    # the sweep solves no particles and runs no fixed point, so it reads no
    # solver field: any solver block is rejected whole, whatever it holds
    cfg = _write(tmp_path, "sweep.json", _sweep_config(solver={field: value}))
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out), "--threads", "2"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "solver" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)
@pytest.mark.parametrize("field", _SOLVER_NUMBERS)
def test_solver_fields_reject_non_finite_numbers(field, bad):
    with pytest.raises(cli.ConfigError, match=field):
        cli._parse_solver({field: bad})


@pytest.mark.parametrize("field", ["ridge", "picard_tol"])
def test_tolerance_range_checks_fail_on_nan(field):
    # the library's own checks, behind the config parser
    make = mr.RegressionConfig if field == "ridge" else mr.Tolerances
    with pytest.raises(ValueError, match=field):
        make(**{field: float("nan")})


def test_non_finite_literals_are_config_errors(tmp_path, capsys):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts
    cases = [
        _clamp_config(terminal={"kind": "constant", "value": float("nan")}),
        _clamp_config(horizon=float("inf")),
        _clamp_config(losses={"kind": "linear-band", "lower": float("-inf"), "upper": 2.0}),
        _clamp_config(solver={"picard_tol": float("nan")}),
        _clamp_config(particles=10**400),
    ]
    for i, case in enumerate(cases):
        cfg = _write(tmp_path, f"c{i}.json", case)
        out = tmp_path / f"o{i}"
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config" and "finite" in err["message"]
        assert not out.exists()
    sweep = _sweep_config(penalty={"levels": [8.0, float("nan")]})
    cfg = _write(tmp_path, "sweep.json", sweep)
    assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "sweep")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not (tmp_path / "sweep").exists()


def test_solver_block():
    reg, tol = cli._parse_solver({"degree": 5, "picard_tol": 1e-5})
    assert reg.degree == 5 and tol.picard_tol == 1e-5
    with pytest.raises(cli.ConfigError, match="z_mode"):
        cli._parse_solver({"z_mode": "regression"})
    with pytest.raises(cli.ConfigError):
        cli._parse_solver("fast")


@pytest.mark.parametrize("value", ["regression", "none"])
def test_run_rejects_a_z_mode_setting(tmp_path, capsys, value):
    # z is always estimated; "none" used to solve a different equation with z = 0
    cfg = _write(tmp_path, "cfg.json", _flat_config(solver={"z_mode": value}))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "z_mode" in err["message"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# cmd_run
# ---------------------------------------------------------------------------


def test_run_flat_scenario_emits_zero_force_table(tmp_path):
    cfg = _write(tmp_path, "flat.json", _flat_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    header, rows = _read_table(out / "result.csv")
    assert header == "t,mean_Y,mean_L,mean_R,K,push_up,push_down"
    assert rows.shape == (9, 7)
    np.testing.assert_array_equal(rows[:, 0], np.linspace(0.0, 1.0, 9))
    assert np.all(rows[:, 4] == 0.0) and np.all(rows[:, 5] == 0.0)
    assert np.all(rows[:, 2] < 0.0) and np.all(rows[:, 3] > 0.0)  # strictly inside

    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["schema_version"] == 1 and diag["seed"] == 7
    assert diag["audit"]["passed"] is True
    assert diag["representation_gap"] <= 1e-12
    assert diag["force_terminal"] == 0.0
    assert diag["trace"]["converged"] is True
    assert diag["scenario"]["steps"] == 8


def test_run_clamp_scenario_reports_terminal_force(tmp_path):
    cfg = _write(tmp_path, "clamp.json", _clamp_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    _, rows = _read_table(out / "result.csv")
    # K column is the difference of its monotone parts, row by row
    np.testing.assert_allclose(rows[:, 4], rows[:, 5] - rows[:, 6], atol=1e-12)
    assert np.all(np.diff(rows[:, 5]) >= 0.0) and np.all(np.diff(rows[:, 6]) >= 0.0)
    diag = json.loads((out / "diagnostics.json").read_text())
    assert abs(diag["force_terminal"] + 2.0) <= 0.02
    assert diag["trace"] is None  # direct construction, no iteration record


def test_run_with_envelope_includes_variation_guard(tmp_path):
    cfg = _write(
        tmp_path,
        "guarded.json",
        _clamp_config(
            method="picard",
            steps=10,
            particles=4_000,
            envelope={"kind": "affine-envelope", "b": 1.0, "p": 3.0, "q": -1.0},
        ),
    )
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    guard = diag["force_variation_guard"]
    assert guard["passed"] is True
    assert len(guard["variations"]) == diag["trace"]["iterations"]


def _strict_json(path):
    # JSON has no NaN or Infinity; json.loads accepts them, strict parsers do not
    def refuse(literal):
        raise ValueError(f"{path.name} holds {literal}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_run_writes_the_whole_trace_of_a_split_solve(tmp_path):
    # a coupling too strong for one contraction: attempts of 1, 2, 4 and 8 segments
    cfg = _write(
        tmp_path,
        "split.json",
        _flat_config(
            steps=16,
            seed=41,
            terminal={"kind": "bounded-sin", "scale": 1.5, "shift": 0.5},
            generator={"kind": "affine-mix", "a_y": 5.0},
            losses={"kind": "linear-band", "lower": -60.0, "upper": 60.0},
        ),
    )
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    trace = _strict_json(out / "diagnostics.json")["trace"]
    assert {f.name for f in dataclasses.fields(mrbsde.PicardTrace)} <= set(trace)
    attempts = trace["attempts"]
    assert [a[0] for a in attempts] == [1, 2, 4, 8]
    assert attempts[-1] == [trace["segment_count"], trace["iterations"], None]
    margin = mr.Tolerances().contraction_margin
    assert all(a[2] > margin for a in attempts[:-1])
    est = trace["contraction"]
    assert min(trace["ratios"]) <= est["fitted_ratio"] <= max(trace["ratios"])
    assert est["fit_residual"] < 1.0


def test_the_contraction_block_holds_the_estimate_alone(tmp_path):
    # the ratios it reads are the trace's own, written once
    cfg = _write(tmp_path, "mix.json", _flat_config(generator={"kind": "affine-mix", "a_y": 1.0}))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    trace = _strict_json(out / "diagnostics.json")["trace"]
    assert trace["iterations"] >= 3
    assert set(trace["contraction"]) == {"fitted_ratio", "fit_residual", "contracting"}


@pytest.mark.parametrize("command", ["run", "sweep-penalty"])
def test_an_unwritable_out_is_a_config_error(tmp_path, capsys, command):
    # an existing file where the output directory should go
    config = _flat_config() if command == "run" else _sweep_config()
    cfg = _write(tmp_path, "cfg.json", config)
    out = tmp_path / "taken"
    out.write_text("kept")
    assert cli.main([command, cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and str(out) in err["message"]
    assert out.read_text() == "kept"


def test_a_non_finite_diagnostic_fails_run_before_any_artifact(tmp_path, capsys, monkeypatch):
    real = cli._run_result

    def tampered(*args):
        table, diag = real(*args)
        return table, dict(diag, representation_gap=float("nan"))

    monkeypatch.setattr(cli, "_run_result", tampered)
    cfg = _write(tmp_path, "flat.json", _flat_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NumericalFailureError" and "diagnostics.json" in err["message"]
    assert not out.exists()


def test_run_csv_is_byte_identical_across_reruns(tmp_path):
    cfg = _write(tmp_path, "clamp.json", _clamp_config())
    blobs = []
    for rerun in (1, 2):
        out = tmp_path / f"out{rerun}"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        blobs.append((out / "result.csv").read_bytes())
    assert blobs[0] == blobs[1]
    # a single run has nothing to fan out, so it takes no thread count
    with pytest.raises(SystemExit):
        cli.main(["run", cfg, "--out", str(tmp_path / "out3"), "--threads", "4"])


def test_run_exit_codes(tmp_path, capsys):
    infeasible = _write(
        tmp_path,
        "inf.json",
        _clamp_config(terminal={"kind": "constant", "value": 9.0}),
    )
    assert cli.main(["run", infeasible, "--out", str(tmp_path / "o1")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "infeasible-terminal"

    lossless = _flat_config()
    del lossless["losses"]
    cfg = _write(tmp_path, "lossless.json", lossless)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o2")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    cfg = _write(tmp_path, "method.json", _flat_config(method="divination"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o3")]) == 1
    capsys.readouterr()

    cfg = _write(tmp_path, "init.json", _flat_config(init="warm"))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o4")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    # the solver's own scenario check: a quadratic generator needs an envelope
    quad = _flat_config(generator={"kind": "quadratic-z", "gamma": 1.0})
    cfg = _write(tmp_path, "quad.json", quad)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o5")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_an_envelope_above_r_is_a_config_error(tmp_path, capsys):
    # linear-band [1, 3] has R = x - 1; q = 1/2 puts R' = x - 1/2 above it
    cfg = _flat_config(
        method="picard",
        generator={"kind": "quadratic-z", "gamma": 1.0},
        losses={"kind": "linear-band", "lower": 1.0, "upper": 3.0},
        envelope={"kind": "affine-envelope", "b": 1.0, "p": 3.0, "q": 0.5},
    )
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, "above.json", cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "does not enclose" in err["message"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_terminal_exits_one(tmp_path, capsys):
    # a finite scale that overflows once multiplied by B_T; a NaN literal
    # never gets this far, the config check rejects it
    huge_terminal = {"kind": "brownian", "scale": 1e308}
    for method in ("constant-driver", "picard"):
        cfg = _write(
            tmp_path, f"{method}.json", _clamp_config(method=method, terminal=huge_terminal)
        )
        out = tmp_path / method
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericalFailureError" and "not finite" in err["message"]
        assert not (out / "result.csv").exists()
    cfg = _write(tmp_path, "sweep.json", _sweep_config(terminal=huge_terminal))
    assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "sweep")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "NumericalFailureError"


def test_a_failed_audit_fails_run(tmp_path, capsys, monkeypatch):
    # A dropped K_T - K_t shift leaves Y the unreflected solution, whose mean
    # leaves the band: the library returns it with a failed audit, run refuses it.
    construct = mrbsde._construct

    def unshifted(*args):
        seg = construct(*args)
        args[5][...] -= seg.bsp.K.values[-1] - seg.bsp.K.values  # undo the in-place add to y
        return seg

    monkeypatch.setattr(mrbsde, "_construct", unshifted)
    cfg = _clamp_config(particles=2_000)
    sc = cli.build_scenario(cfg, 7)
    assert not mr.audit_solution(mr.solve_constant_driver(sc), sc.losses).passed
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NumericalFailureError" and "failed its audit" in err["message"]
    assert not out.exists()


def test_picard_run_holds_four_arrays_at_most(tmp_path):
    # in (particles, nodes) arrays of 4000 x 41 doubles: the solve holds three
    # (bm, y, z) while it iterates and returns y and z alone, and the audit
    # and the representation gap add no full array
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "horizon": 1.0, "steps": 40, "particles": 4_000, "seed": 5,
        "terminal": {"kind": "bounded-sin", "scale": 1.5, "shift": 0.5},
        "generator": {"kind": "affine-mix", "a_y": 0.5, "a_mean_z": 0.25, "const": 3.0},
        "losses": {"kind": "saturating-band", "lower": -1.0, "upper": 2.0},
    })
    code, peak = peak_bytes(lambda: cli.main(["run", cfg, "--out", str(tmp_path / "out")]))
    assert code == 0
    assert peak <= 4.0 * (4_000 * 41 * 8), peak / (4_000 * 41 * 8)


def test_picard_run_evaluates_the_averaged_boundary_only_where_the_result_is_open(
    tmp_path, monkeypatch
):
    # particle-sized loss evaluations of one run, by the phase that asks for
    # them: the certificate settles most band tests, the edge finder's record
    # serves every flatness residual, and each iterate's inversions start from
    # the edges and slopes of the previous iterate's
    particles = 2_000
    phases, counts = ["other"], dict.fromkeys(("band test", "inversion", "flatness", "other"), 0)

    def in_phase(name, f):
        def wrapped(*args, **kwargs):
            phases.append(name)
            try:
                return f(*args, **kwargs)
            finally:
                phases.pop()

        return wrapped

    def counted(f):
        def loss(t, x):
            if np.size(x) >= particles:
                counts[phases[-1]] += 1
            return f(t, x)

        return loss

    build = cli.build_scenario

    def counting_scenario(cfg, seed):
        sc = build(cfg, seed)
        lp = dataclasses.replace(sc.losses, L=counted(sc.losses.L), R=counted(sc.losses.R))
        return dataclasses.replace(sc, losses=lp)

    monkeypatch.setattr(cli, "build_scenario", counting_scenario)
    for owner, name, phase in (
        (constraints._EdgeFinder, "__call__", "band test"),
        (constraints, "_invert_from", "inversion"),
        (skorokhod, "flatness_residuals_raw", "flatness"),
    ):
        monkeypatch.setattr(owner, name, in_phase(phase, getattr(owner, name)))
    cfg = _write(tmp_path, "c.json", {
        "schema_version": 1, "horizon": 1.0, "steps": 40, "particles": particles, "seed": 5,
        "terminal": {"kind": "bounded-sin", "scale": 1.5, "shift": 0.5},
        "generator": {"kind": "affine-mix", "a_y": 0.5, "a_mean_z": 0.25, "const": 3.0},
        "losses": {"kind": "saturating-band", "lower": -1.0, "upper": 2.0},
    })
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    # 369 hook calls (9 iterations x 41 nodes) made 738 band tests before the
    # certificate, and the flatness residuals 115; the 115 inversions took 690
    # evaluations when each started cold
    assert counts["band test"] <= 167
    assert counts["inversion"] == 209
    assert counts["flatness"] == 0
    assert counts["other"] == 84  # the terminal check, the run's meter pass


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_band_too_wide_for_doubles_is_refused_before_solving(tmp_path, capsys):
    # finite bounds with a finite gap pass LossPair, but on the grid the
    # losses' slopes round to 0: the entry check refuses the pair
    huge = {"kind": "saturating-band", "lower": -1e308, "upper": 1e307}
    cfg = _write(tmp_path, "huge.json", _flat_config(particles=500, steps=8, losses=huge))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "monotonicity" in err["message"]
    assert not (out / "result.csv").exists()
    # a band as wide as the doubles declares an infinite gap, which LossPair refuses
    huge["upper"] = 1e308
    cfg = _write(tmp_path, "huge.json", _flat_config(particles=500, steps=8, losses=huge))
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "gap" in err["message"] and "finite" in err["message"]
    assert not (out / "result.csv").exists()


def test_commands_build_every_ensemble_f_ordered(tmp_path, monkeypatch):
    # every creation site allocates column-major, so the constructor never copies
    seen = []
    post_init = mr.Ensemble.__post_init__

    def spy(self):
        v = self.values
        seen.append(isinstance(v, np.ndarray) and v.ndim == 2 and v.flags.f_contiguous)
        post_init(self)

    monkeypatch.setattr(mr.Ensemble, "__post_init__", spy)
    cfg = _write(tmp_path, "flat.json", _flat_config())
    assert cli.main(["run", cfg, "--out", str(tmp_path / "run")]) == 0
    cfg = _write(tmp_path, "sweep.json", _sweep_config())
    assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "sweep")]) == 0
    assert seen and all(seen)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_driver_exits_one(tmp_path, capsys):
    # a driver of 1e308 overflows the backward recursion into NaN, which must
    # stop the command before any artifact is written
    huge = {"kind": "constant", "value": 1e308}
    band = {"kind": "linear-band", "lower": -5.0, "upper": 5.0}
    for method in ("constant-driver", "picard"):
        cfg = _write(
            tmp_path,
            f"{method}.json",
            _clamp_config(method=method, generator=huge, losses=band, steps=10, particles=2_000),
        )
        out = tmp_path / method
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericalFailureError" and "non-finite" in err["message"]
        assert not (out / "result.csv").exists()
    cfg = _write(tmp_path, "sweep.json", _sweep_config(generator=huge))
    out = tmp_path / "sweep"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "NumericalFailureError"
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "generator",
    [{"kind": "linear", "a": 3.0}, {"kind": "affine-mix", "a_y": 0.5}],
    ids=["linear", "affine-mix-a_y"],
)
def test_constant_driver_rejects_state_dependent_generators(tmp_path, capsys, generator):
    # the route freezes the generator at zero, which would quietly solve f = 0
    cfg = _write(tmp_path, "cd.json", _clamp_config(generator=generator))
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "state-free" in err["message"]
    assert not out.exists()


def test_run_nonconvergence_maps_to_exit_one(tmp_path, capsys):
    cfg = _write(
        tmp_path,
        "stuck.json",
        {
            "schema_version": 1,
            "horizon": 1.0,
            "steps": 4,
            "particles": 512,
            "seed": 3,
            "terminal": {"kind": "brownian"},
            "generator": {"kind": "affine-mix", "a_y": 1.0},
            "losses": {"kind": "linear-band", "lower": -5.0, "upper": 5.0},
            "solver": {"max_iterations": 1},
        },
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "NonConvergenceError"


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "flat.json", _flat_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out), "--seed", "41"]) == 0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["seed"] == 41


# ---------------------------------------------------------------------------
# cmd_sweep_penalty
# ---------------------------------------------------------------------------


def _sweep_config(**extra):
    cfg = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": 20,
        "particles": 10_000,
        "seed": 3,
        "terminal": {"kind": "brownian"},
        "generator": {"kind": "constant", "value": 10.0},
        "losses": {"kind": "linear-band", "lower": -30.0, "upper": 30.0},
        "obstacles": {"kind": "linear-rates", "lower_rate": -2.0, "upper_rate": 2.0},
        "penalty": {"levels": [8.0, 64.0]},
    }
    cfg.update(extra)
    return cfg


def test_sweep_emits_convergence_table(tmp_path):
    cfg = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 0
    header, rows = _read_table(out / "sweep.csv")
    assert header == "n,sup_error,variation,upper_violation,lower_violation,upper_bound,lower_bound"
    assert rows.shape == (2, 7)
    np.testing.assert_array_equal(rows[:, 0], [8.0, 64.0])
    assert rows[1, 1] < rows[0, 1]  # error shrinks with the level
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["command"] == "sweep-penalty"
    assert diag["levels"] == [8.0, 64.0]
    assert diag["slope"] < -0.9


def test_sweep_levels_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out), "--levels", "4,16"]) == 0
    _, rows = _read_table(out / "sweep.csv")
    np.testing.assert_array_equal(rows[:, 0], [4.0, 16.0])


def test_a_one_level_sweep_writes_a_null_slope(tmp_path):
    # the slope is undefined, None and so null, unless two levels or more
    # all have a positive error: one level gives no rate
    cfg = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out), "--levels", "8"]) == 0
    diag = _strict_json(out / "diagnostics.json")
    assert diag["levels"] == [8.0] and diag["slope"] is None
    # and a band that never binds gives zero errors at every level
    wide = {
        "kind": "linear-rates",
        "lower_rate": -2.0,
        "upper_rate": 2.0,
        "lower_start": -1.0,
        "upper_start": 1.0,
    }
    never_binding = _sweep_config(generator={"kind": "constant", "value": 0.0}, obstacles=wide)
    cfg = _write(tmp_path, "wide.json", never_binding)
    out = tmp_path / "wide"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 0
    diag = _strict_json(out / "diagnostics.json")
    assert diag["sup_errors"] == [0.0, 0.0] and diag["slope"] is None


@pytest.mark.parametrize(
    "penalty,field",
    [({"levels": "x"}, "penalty.levels"), ({"level": [8.0]}, "level"), ({"junk": math.nan}, "junk")],
    ids=["levels-not-an-array", "misspelt", "non-finite-unknown"],
)
def test_levels_flag_still_checks_the_penalty_block(tmp_path, capsys, penalty, field):
    # --levels overrides the block's levels, not its checks
    cfg = _write(tmp_path, "sweep.json", _sweep_config(penalty=penalty))
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out), "--levels", "4,16"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and field in err["message"]
    assert not out.exists()


def test_sweep_is_byte_identical_across_thread_counts(tmp_path):
    cfg = _write(tmp_path, "sweep.json", _sweep_config())
    blobs = []
    for threads in (1, 4, 8):
        out = tmp_path / f"out{threads}"
        assert (
            cli.main(["sweep-penalty", cfg, "--out", str(out), "--threads", str(threads)])
            == 0
        )
        blobs.append((out / "sweep.csv").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize(
    "generator",
    [{"kind": "linear", "a": 2.0}, {"kind": "affine-mix", "a_y": 2.0, "const": 10.0}],
    ids=["linear", "affine-mix-a_y"],
)
def test_sweep_rejects_state_dependent_generators(tmp_path, capsys, generator):
    # the sweep's reference freezes the driver at zero, so it would measure
    # these against the wrong limit
    cfg = _write(tmp_path, "sweep.json", _sweep_config(generator=generator))
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config" and "state-free" in err["message"]
    assert not out.exists()


def test_sweep_error_paths(tmp_path, capsys):
    no_levels = _sweep_config()
    del no_levels["penalty"]
    cfg = _write(tmp_path, "s1.json", no_levels)
    assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "o1")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    cfg = _write(tmp_path, "s2.json", _sweep_config())
    assert (
        cli.main(
            ["sweep-penalty", cfg, "--out", str(tmp_path / "o2"), "--levels", "a,b"]
        )
        == 1
    )
    capsys.readouterr()

    decreasing = _sweep_config(penalty={"levels": [64.0, 8.0]})
    cfg = _write(tmp_path, "s3.json", decreasing)
    assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "o3")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"

    cfg = _write(tmp_path, "s4.json", _sweep_config())
    bad_flags = (["--levels", "4,inf"], ["--levels", "4,nan"], ["--levels=0,8"], ["--levels=-4,8"])
    for flag in (*bad_flags, ["--threads", "0"]):
        assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "o4"), *flag]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not (tmp_path / "o4").exists()


def test_sweep_infeasible_terminal_exits_two(tmp_path, capsys):
    # E[B_T + 9] = 9 against the terminal band [-2, 2]
    cfg = _write(tmp_path, "sweep.json", _sweep_config(terminal={"kind": "brownian", "shift": 9.0}))
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "infeasible-terminal"
    assert not (out / "sweep.csv").exists()


def test_sweep_non_finite_level_mean_exits_one(tmp_path, capsys, monkeypatch):
    events = penalty._events_affine

    def poisoned(u, cbar, n, *rest):
        return (math.nan, math.nan, math.nan) if n == 64.0 else events(u, cbar, n, *rest)

    monkeypatch.setattr(penalty, "_events_affine", poisoned)
    cfg = _write(tmp_path, "sweep.json", _sweep_config())
    out = tmp_path / "out"
    assert cli.main(["sweep-penalty", cfg, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NumericalFailureError" and "level 64" in err["message"]
    assert not (out / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# cmd_verify
# ---------------------------------------------------------------------------


def test_verify_prints_one_line_per_suite(capsys):
    assert cli.main(["verify", "reversal", "--instances", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith("PASS reversal: instances=5 failures=0 worst_slack=")

    assert cli.main(["verify", "skorokhod", "--instances", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and all(line.startswith("PASS") for line in out)


def test_verify_seed_reaches_the_suites_and_only_its_own_flags_parse(capsys):
    assert cli.main(["verify", "reversal", "--instances", "3", "--seed", "7"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    (expected,) = mr.run_suite("reversal", 3, seed=7)
    assert line.endswith(f"worst_slack={cli._fmt(expected.worst_slack)}")

    for flag in (["--threads", "2"], ["--out", "elsewhere"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "reversal", *flag])
        assert exc.value.code == 2
    capsys.readouterr()

    assert cli.main(["verify", "reversal", "--seed", "-1"]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "config"


def test_verify_unknown_suite(capsys):
    assert cli.main(["verify", "sideways"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip())["error"] == "unknown-suite"


# ---------------------------------------------------------------------------
# property: any config from the schema ends in a clean exit
# ---------------------------------------------------------------------------

# values no field should let through, plus the huge finite ones that must
# either solve or fail cleanly
_ODD = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-300, 2.5, True, "8", None]
_FLOATS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_ODD))


def _ints(lo, hi):
    # integer fields never get huge values: those would only allocate
    return st.one_of(st.integers(lo, hi), st.sampled_from([2.5, float("nan"), True, "8"]))


# (object path, field, values); an empty path is the top level
_FIELDS = [
    ((), "horizon", _FLOATS),
    ((), "steps", _ints(1, 8)),
    ((), "particles", _ints(2, 500)),
    (("terminal",), "scale", _FLOATS),
    (("terminal",), "shift", _FLOATS),
    (("generator",), "value", _FLOATS),
    (("losses",), "lower", _FLOATS),
    (("losses",), "upper", _FLOATS),
    (("obstacles",), "lower_rate", _FLOATS),
    (("obstacles",), "upper_start", _FLOATS),
    *(
        (("solver",), key, _ints(0, 2 * default) if isinstance(default, int) else _FLOATS)
        for key, default in _SOLVER_DEFAULTS.items()
    ),
    (("penalty",), "levels", st.lists(_FLOATS, min_size=1, max_size=3)),
]


@st.composite
def _cli_cases(draw):
    command = draw(st.sampled_from(["run", "sweep-penalty"]))
    base = _flat_config if command == "run" else _sweep_config
    cfg = base(steps=draw(st.integers(1, 8)), particles=draw(st.integers(2, 500)))
    if command == "run":
        cfg["solver"] = {}
    # only the blocks the command reads: any other block is rejected whole
    fields = [f for f in _FIELDS if not f[0] or f[0][0] in cfg]
    for path, key, values in draw(st.lists(st.sampled_from(fields), max_size=3)):
        node = cfg
        for part in path:
            node = node[part]
        if draw(st.booleans()):
            node[key] = draw(values)
        else:
            node[key + "_"] = 1.0  # misspelt
    return command, cfg


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_cli_cases())
def test_any_config_exits_cleanly(case):
    command, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = cli.main([command, str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        csv = out / ("result.csv" if command == "run" else "sweep.csv")
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and "error" in json.loads(lines[0])
            assert not csv.exists()
        else:
            _, rows = _read_table(csv)
            assert rows.size and all(math.isfinite(v) for v in rows.ravel())


_SUITES = st.sampled_from(SUITE_NAMES) | st.sampled_from(["revresal", "Al", ""])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    _SUITES,
    st.sampled_from([-3, 0, 1, 2]),
    st.sampled_from([-1, 0, 2**64 - 1, 2**64]),
)
def test_any_verify_call_exits_cleanly(suite, instances, seed):
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", suite, "--instances", str(instances), "--seed", str(seed)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    else:
        assert lines == [] and instances >= 1 and 0 <= seed < 2**64


def test_no_command_imports_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter that imports
    # the package and runs a small non-affine solve must load no scipy module
    cfg = _write(tmp_path, "flat.json", _flat_config(particles=300, steps=8))
    script = (
        "import sys, meanreflect, meanreflect.cli as cli\n"
        f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(mr.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "out" / "result.csv").exists()
