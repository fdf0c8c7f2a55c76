"""Randomized estimate suites: dispatch, determinism, and failure reporting."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import meanreflect as mr
import meanreflect.verify as verify_mod
from meanreflect import cli
from meanreflect.core import SamplePath


def test_all_bundle_runs_every_suite_and_passes():
    results = mr.run_suite("all", instances=15)
    assert [r.name for r in results] == [
        "reversal",
        "continuity",
        "backward-continuity",
        "comparison",
        "variation",
    ]
    for r in results:
        assert r.instances == 15
        assert r.passed and r.failures == 0 and r.details == ()
        assert r.worst_slack >= 0.0


def test_skorokhod_bundle_excludes_reversal():
    results = mr.run_suite("skorokhod", instances=8)
    names = [r.name for r in results]
    assert "reversal" not in names and len(names) == 4


def test_single_suite_dispatch():
    (res,) = mr.run_suite("comparison", instances=10)
    assert res.name == "comparison" and res.passed


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        mr.run_suite("sideways", instances=5)


def test_suites_are_deterministic():
    a = mr.run_suite("reversal", instances=20)
    b = mr.run_suite("reversal", instances=20)
    assert a == b


def test_seed_override_changes_instances_but_not_the_verdict():
    (default,) = mr.run_suite("variation", instances=12)
    (seeded,) = mr.run_suite("variation", instances=12, seed=99)
    assert default.passed and seeded.passed
    assert default.worst_slack != seeded.worst_slack


def test_empty_runs_are_rejected(capsys):
    # a run that checks nothing must not report a pass
    for instances in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            mr.run_suite("reversal", instances=instances)
        with pytest.raises(ValueError, match="at least 1"):
            verify_mod.run_variation_suite(instances=instances)
        assert cli.main(["verify", "all", "--instances", str(instances)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err.strip())["error"] == "config"


def test_reversal_suite_catches_a_crooked_solver(monkeypatch):
    # sabotage the forward map by a uniform 1e-6 shift: the additive
    # identity x = s + K breaks and every instance must be reported
    real = verify_mod.solve_sp

    def crooked(s, bp):
        sol = real(s, bp)
        return dataclasses.replace(
            sol, x=SamplePath(sol.x.grid, sol.x.values + 1e-6)
        )

    monkeypatch.setattr(verify_mod, "solve_sp", crooked)
    res = verify_mod.run_reversal_suite(instances=6)
    assert not res.passed
    assert res.failures == 6
    assert res.worst_slack < 0.0
    assert len(res.details) == 6 and "round-trip" in res.details[0]


def test_comparison_suite_catches_a_biased_solver(monkeypatch):
    # tamper with the nesting order: report extra force for the wide band
    # and none for the narrow one, so domination fails at every instance
    import meanreflect.skorokhod as sk_mod

    real = sk_mod.solve_sp
    state = {"call": 0}

    def biased(s, bp, **kw):
        sol = real(s, bp, **kw)
        state["call"] += 1
        if state["call"] % 2 == 1:  # the wide band is solved first
            return dataclasses.replace(
                sol,
                push_up=SamplePath(sol.push_up.grid, sol.push_up.values + 1.0),
                push_down=SamplePath(sol.push_down.grid, sol.push_down.values + 1.0),
            )
        zeros = SamplePath(sol.push_up.grid, 0.0 * sol.push_up.values)
        return dataclasses.replace(sol, push_up=zeros, push_down=zeros)

    monkeypatch.setattr(sk_mod, "solve_sp", biased)
    res = verify_mod.run_comparison_suite(instances=10)
    assert not res.passed and res.failures == 10


def test_suites_keep_their_boundary_evaluations_and_inversions(monkeypatch):
    # the work of each suite, counted where it happens: every boundary
    # evaluation (scalar or not) and every band-edge inversion
    import meanreflect.constraints as constraints

    suite, counts = ["none"], {}

    def counted(kind, f):
        def wrapped(*args, **kwargs):
            key = (suite[-1], kind)
            counts[key] = counts.get(key, 0) + 1
            return f(*args, **kwargs)

        return wrapped

    def named(name, runner):
        def wrapped(*args, **kwargs):
            suite.append(name)
            try:
                return runner(*args, **kwargs)
            finally:
                suite.pop()

        return wrapped

    monkeypatch.setattr(mr.BoundaryPair, "_eval", counted("eval", mr.BoundaryPair._eval))
    monkeypatch.setattr(constraints, "_invert_from", counted("inversion", constraints._invert_from))
    for name in verify_mod.SUITE_NAMES[:5]:
        runner = f"run_{name.replace('-', '_')}_suite"
        monkeypatch.setattr(verify_mod, runner, named(name, getattr(verify_mod, runner)))
    results = mr.run_suite("all", 100, 801)
    assert all(r.passed for r in results)
    # (boundary evaluations, inversions) per suite, as measured before scalar
    # boundary work moved to Python floats: 10646 and 1600 in all
    assert {name: (counts[name, "eval"], counts[name, "inversion"]) for name, _ in counts} == {
        "reversal": (1419, 200),
        "continuity": (2739, 400),
        "backward-continuity": (2844, 400),
        "comparison": (2526, 400),
        "variation": (1118, 200),
    }


@pytest.mark.parametrize("seed", [0, 1, 801])
def test_a_walk_has_the_draws_and_bits_of_the_normal_formula(seed):
    # _walk draws standard normals and scales them: the bits of
    # rng.normal(0, sqrt(dt)) * scale + drift * dt, from the same stream
    grid = mr.build_grid(1.0, 64)
    for scale, start in ((1.0, 0.3), (0.1, -0.02)):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        path = verify_mod._walk(rng, grid, scale, start)
        dt = np.diff(grid.nodes)
        drift = float(ref_rng.uniform(-2.0, 2.0))
        inc = ref_rng.normal(0.0, np.sqrt(dt)) * scale + drift * dt
        ref = np.concatenate([[start], start + np.cumsum(inc)])
        assert path.values.tobytes() == ref.tobytes()
        assert rng.random() == ref_rng.random()  # the streams stay in step


def test_the_reversal_suite_fails_a_nan_residual(monkeypatch):
    # a backward map that puts NaN at one interior node: the round-trip
    # residual is NaN there, and NaN fails, as in the other suites
    real = verify_mod.solve_bsp

    def holed(s, a, bp, **kw):
        sol = real(s, a, bp, **kw)
        x = sol.x.values.copy()
        x[1] = np.nan
        return dataclasses.replace(sol, x=SamplePath(sol.x.grid, x))

    monkeypatch.setattr(verify_mod, "solve_bsp", holed)
    res = verify_mod.run_reversal_suite(instances=10)
    assert not res.passed and res.failures == 10
    assert np.isnan(res.worst_slack)
    assert "round-trip residual nan" in res.details[0]


def test_a_nan_slack_is_the_worst_slack():
    outcomes = iter([(0.5, True, ""), (float("nan"), False, "nan slack"), (0.2, True, "")])
    res = verify_mod._run_instances("stub", 3, 0, lambda rng: next(outcomes))
    assert res.failures == 1 and not res.passed
    assert np.isnan(res.worst_slack)
    assert res.details == ("instance 1: nan slack",)


# run_suite("all", 100, seed) as recorded before the window cut, the unchecked
# solution wrappers and the cheap scalar draws: (failures, worst_slack.hex())
# per suite, every suite passing with no details
_RECORDED_SUITES = {
    None: [
        (0, "0x1.19599812dea11p-40"),
        (0, "0x1.12e0c20000000p-30"),
        (0, "0x1.a18597d487c9fp-2"),
        (0, "0x1.12e0be826d695p-30"),
        (0, "0x1.f46174f31eeccp+2"),
    ],
    0: [
        (0, "0x1.19599812dea11p-40"),
        (0, "0x1.12e0c40000000p-30"),
        (0, "0x1.d0f757a9690a4p-2"),
        (0, "0x1.12e0be826d695p-30"),
        (0, "0x1.f234481769968p+2"),
    ],
    801: [
        (0, "0x1.19399812dea11p-40"),
        (0, "0x1.12e0cf0000000p-30"),
        (0, "0x1.3e0115261ede7p-1"),
        (0, "0x1.12e0be826d695p-30"),
        (0, "0x1.bff804dc3590cp+2"),
    ],
}


@pytest.mark.parametrize("seed", [None, 0, 801])
def test_suite_results_keep_their_recorded_bits(seed):
    results = mr.run_suite("all", 100, seed)
    assert [r.name for r in results] == list(verify_mod.SUITE_NAMES[:5])
    for r, (failures, worst) in zip(results, _RECORDED_SUITES[seed]):
        assert (r.instances, r.failures, r.passed, r.details) == (100, failures, True, ())
        assert r.worst_slack.hex() == worst, r.name


@pytest.mark.parametrize("seed", [0, 1, 801])
def test_a_scalar_draw_has_the_draws_and_bits_of_rng_uniform(seed):
    # the suites' literal ranges, then the anchor ranges, which read band edges
    ranges = [(-3.0, -0.5), (0.5, 3.0), (0.0, 1.0), (-2.0, 2.0), (-0.1, 0.1)]
    grid = mr.build_grid(1.0, 40)
    for lp in (mr.linear_band(-1.3, 2.1), mr.saturating_band(-2.7, 0.6)):
        rho, lam = mr.BoundaryPair(grid, lp).band_edges()
        width = lam[-1] - rho[-1]
        ranges += [
            (float(rho[-1] + 0.05 * width), float(lam[-1] - 0.05 * width)),
            (float(rho[0] + 0.02), float(lam[0] - 0.02)),
        ]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for low, high in ranges * 3:
        draw = verify_mod._uniform(rng, low, high)
        assert type(draw) is float
        assert draw.hex() == float(ref_rng.uniform(low, high)).hex()
    # the band side's coin, and the two perturbations once drawn as one array
    assert (rng.random() < 0.5) == (ref_rng.uniform() < 0.5)
    pair = [verify_mod._uniform(rng, -0.1, 0.1) for _ in range(2)]
    assert np.array(pair).tobytes() == ref_rng.uniform(-0.1, 0.1, size=2).tobytes()
    assert rng.random() == ref_rng.random()  # the streams stay in step
