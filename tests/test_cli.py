"""Command-line front end: configs, artifacts, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

import meanreflect as mr
from meanreflect import cli


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


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("MEANREFLECT_SEED", raising=False)
    assert cli.resolve_seed(5, {"seed": 3}) == 5
    assert cli.resolve_seed(None, {"seed": 3}) == 3
    assert cli.resolve_seed(None, {}) == 0
    monkeypatch.setenv("MEANREFLECT_SEED", "11")
    assert cli.resolve_seed(None, {}) == 11
    assert cli.resolve_seed(None, {"seed": 3}) == 3
    assert cli.resolve_seed(4, {}) == 4


def test_seed_validation(monkeypatch):
    monkeypatch.delenv("MEANREFLECT_SEED", raising=False)
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(-1, {})
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(None, {"seed": True})
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(None, {"seed": 1.5})
    monkeypatch.setenv("MEANREFLECT_SEED", "eleven")
    with pytest.raises(cli.ConfigError):
        cli.resolve_seed(None, {})


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


def test_solver_block():
    reg, tol = cli._parse_solver({"degree": 5, "z_mode": "none", "picard_tol": 1e-5})
    assert reg.degree == 5 and reg.z_mode == "none" and tol.picard_tol == 1e-5
    with pytest.raises(cli.ConfigError):
        cli._parse_solver({"z_mode": "psychic"})
    with pytest.raises(cli.ConfigError):
        cli._parse_solver("fast")


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


def test_non_finite_terminal_exits_one(tmp_path, capsys):
    # json.dumps writes the NaN literal, which json.loads accepts
    nan_terminal = {"kind": "constant", "value": float("nan")}
    for method in ("constant-driver", "picard"):
        cfg = _write(
            tmp_path, f"{method}.json", _clamp_config(method=method, terminal=nan_terminal)
        )
        out = tmp_path / method
        assert cli.main(["run", cfg, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "NumericalFailureError" and "not finite" in err["message"]
        assert not (out / "result.csv").exists()
    cfg = _write(tmp_path, "sweep.json", _sweep_config(terminal=nan_terminal))
    assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "sweep")]) == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "NumericalFailureError"


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


def test_run_env_seed_used_when_config_has_none(tmp_path, monkeypatch):
    cfg_dict = _flat_config()
    del cfg_dict["seed"]
    cfg = _write(tmp_path, "flat.json", cfg_dict)
    monkeypatch.setenv("MEANREFLECT_SEED", "13")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "diagnostics.json").read_text())["seed"] == 13


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
    for flag in (["--levels", "4,inf"], ["--levels", "4,nan"], ["--threads", "0"]):
        assert cli.main(["sweep-penalty", cfg, "--out", str(tmp_path / "o4"), *flag]) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "config"
    assert not (tmp_path / "o4").exists()


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
