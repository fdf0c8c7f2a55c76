"""Penalized mean constraints: drift-based enforcement and its n -> inf limit."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import meanreflect as mr
from meanreflect import bsde, penalty
from meanreflect.errors import InfeasibleTerminalError, NumericalFailureError
from conftest import peak_bytes
from oracles import radau_penalized_mean


def _ode_scenario(particles=20_000):
    # driver constant 10 against the band [-2t, 2t]: the mean dynamics close
    # into a one-dimensional ODE, so the whole solve is checkable against a
    # stiff integrator
    return mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=particles,
        rng=mr.RngSpec(101),
        terminal=lambda b: b,
        generator=mr.constant_generator(10.0),
        losses=mr.linear_band(-30.0, 30.0),
        obstacles=mr.LinearObstacles.constants(-2.0, 2.0),
    )


def _wide_scenario(gen, seed=5):
    # obstacle proxy so wide the penalty can never fire
    return mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=10_000,
        rng=mr.RngSpec(seed),
        terminal=lambda b: np.sin(b),
        generator=gen,
        losses=mr.linear_band(-50.0, 50.0),
        obstacles=mr.LinearObstacles.constants(0.0, 0.0, -1e9, 1e9),
    )


# ---------------------------------------------------------------------------
# obstacles
# ---------------------------------------------------------------------------


def test_obstacle_offsets_must_straddle_zero():
    with pytest.raises(ValueError):
        mr.LinearObstacles.constants(0.0, 0.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        mr.LinearObstacles.constants(0.0, 0.0, -1.0, -0.5)


@pytest.mark.parametrize("start", [(-math.inf, 1.0), (-1.0, math.inf)], ids=["lower", "upper"])
def test_obstacle_offsets_must_be_finite(start):
    with pytest.raises(ValueError, match="finite"):
        mr.LinearObstacles.constants(0.0, 0.0, *start)


def test_obstacles_with_a_nan_rate_are_refused():
    # a NaN lower path compares false against the upper one: it must not pass as absent
    obs = mr.LinearObstacles(lambda t: math.nan if t > 0.5 else -2.0, lambda t: 2.0)
    with pytest.raises(ValueError, match="finite"):
        obs.sample(mr.build_grid(1.0, 4))
    with pytest.raises(ValueError, match="finite"):
        mr.penalty_sweep(dataclasses.replace(_ode_scenario(2_000), obstacles=obs), [8.0, 64.0])


def test_obstacle_offsets_shift_the_sampled_paths():
    grid = mr.build_grid(1.0, 4)
    lo, hi = mr.LinearObstacles.constants(-2.0, 2.0, -0.5, 1.5).sample(grid)
    assert_array_equal(lo, -0.5 - 2.0 * grid.nodes)
    assert_array_equal(hi, 1.5 + 2.0 * grid.nodes)


def test_crossing_obstacles_rejected_at_sampling():
    grid = mr.build_grid(1.0, 4)
    with pytest.raises(ValueError):
        mr.LinearObstacles.constants(1.0, -1.0).sample(grid)


def test_obstacles_refuse_a_grid_that_starts_after_zero():
    # the rates are integrated from t = 0; on a grid starting at 0.5 they
    # used to be integrated from 0.5, giving l_1 = -1 where l_1 = -2
    obstacles = mr.LinearObstacles.constants(-2.0, 2.0)
    late = mr.TimeGrid(np.array([0.5, 0.75, 1.0]))
    with pytest.raises(ValueError, match="starts at 0.5"):
        obstacles.sample(late)


# ---------------------------------------------------------------------------
# single-level solves
# ---------------------------------------------------------------------------


def test_solver_input_validation():
    sc = _ode_scenario(particles=512)
    with pytest.raises(ValueError):
        mr.solve_penalized(sc, 0.0)
    with pytest.raises(ValueError):
        mr.solve_penalized(sc, -4.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            mr.solve_penalized(sc, bad)
    bare = dataclasses.replace(sc, obstacles=None)
    with pytest.raises(ValueError):
        mr.solve_penalized(bare, 8.0)


def test_infeasible_terminal_mean_rejected():
    sc = mr.Scenario(
        horizon=1.0,
        steps=8,
        particles=1_000,
        rng=mr.RngSpec(11),
        terminal=lambda b: 9.0,
        generator=mr.constant_generator(0.0),
        losses=mr.linear_band(-30.0, 30.0),
        obstacles=mr.LinearObstacles.constants(-1.0, 1.0),
    )
    with pytest.raises(InfeasibleTerminalError):
        mr.solve_penalized(sc, 8.0)
    with pytest.raises(InfeasibleTerminalError):
        mr.penalty_sweep(sc, [8.0, 64.0])


def test_solution_invariants():
    sc = _ode_scenario(particles=4_000)
    sol = mr.solve_penalized(sc, 32.0)
    grid = sc.make_grid()
    assert sol.K.values.shape == (grid.n_nodes,)  # one deterministic path
    assert sol.push_up.values[0] == 0.0 and sol.push_down.values[0] == 0.0
    assert np.all(np.diff(sol.push_up.values) >= 0.0)
    assert np.all(np.diff(sol.push_down.values) >= 0.0)
    assert_array_equal(sol.K.values, sol.push_up.values - sol.push_down.values)
    xi = sc.terminal_values(sc.simulate())
    assert_array_equal(sol.y.values[:, -1], xi)


def test_wide_obstacles_reduce_to_the_plain_solve_bitwise():
    # the penalty increments must be *exactly* zero when the band is never
    # approached, making the penalized recursion bit-identical to the
    # unpenalized one at every level
    sc = _wide_scenario(mr.affine_mix_generator(a_y=0.7, a_z=0.3))
    bm = sc.simulate()
    xi = sc.terminal_values(bm)
    plain = mr.solve_bsde(xi, sc.generator, bm, sc.regression)
    for n in (4.0, 512.0):
        pen = mr.solve_penalized(sc, n)
        assert_array_equal(pen.y.values, plain.y.values)
        assert_array_equal(pen.z.values, plain.z.values)
        assert_array_equal(pen.K.values, 0.0)
        assert_array_equal(pen.push_up.values, 0.0)
        assert_array_equal(pen.push_down.values, 0.0)


def test_mean_dynamics_match_stiff_integrator():
    # independent route: integrate the closed mean ODE with an implicit
    # stiff solver and compare node by node; each step is one exact span,
    # so n dt runs from 0.4 to 3277 without losing accuracy
    sc = _ode_scenario()
    grid = sc.make_grid()
    xi = sc.terminal_values(sc.simulate())
    for n in (8.0, 64.0, 512.0, 4096.0, 65536.0):
        sol = mr.solve_penalized(sc, n)
        means = np.array(
            [mr.pairwise_mean(sol.y.values[:, k]) for k in range(grid.n_nodes)]
        )
        ref = radau_penalized_mean(
            float(mr.pairwise_mean(xi)),
            10.0,
            n,
            1.0,
            grid.nodes,
            lambda t: -2.0 * t,
            lambda t: 2.0 * t,
        )
        assert np.max(np.abs(means - ref)) <= 1e-6  # observed <= 7.1e-10


class _CountingMath:
    """``math`` with its ``log`` calls counted: the integrator's landing time is its one log."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def test_a_mean_released_by_a_turning_obstacle_lands_on_it(monkeypatch):
    # driver -10 drives the mean below the lower obstacle, which holds it
    # until t = 0.5; before that (backward) the obstacle falls at rate 12,
    # faster than the mean, so the mean relaxes back and lands on it
    obstacles = mr.LinearObstacles(
        lambda t: 12.0 if t < 0.5 else -2.0, lambda t: 20.0, lower_start=-6.0
    )
    sc = dataclasses.replace(
        _ode_scenario(particles=2000), generator=mr.constant_generator(-10.0), obstacles=obstacles
    )
    grid = sc.make_grid()
    lo, hi = obstacles.sample(grid)
    xi = sc.terminal_values(sc.simulate())
    counting = _CountingMath()
    monkeypatch.setattr(penalty, "math", counting)
    for n in (8.0, 64.0, 512.0, 4096.0, 65536.0):
        logs = counting.logs
        sol = mr.solve_penalized(sc, n)
        assert counting.logs > logs  # the landing branch ran
        means = np.array(
            [mr.pairwise_mean(sol.y.values[:, k]) for k in range(grid.n_nodes)]
        )
        # the integrator is exact for obstacles affine between the nodes
        ref = radau_penalized_mean(
            float(mr.pairwise_mean(xi)),
            -10.0,
            n,
            1.0,
            grid.nodes,
            lambda t: np.interp(t, grid.nodes, lo),
            lambda t: np.interp(t, grid.nodes, hi),
        )
        assert np.max(np.abs(means - ref)) <= 1e-6  # observed <= 1.9e-9


# ---------------------------------------------------------------------------
# the convergence sweep
# ---------------------------------------------------------------------------


def test_sweep_argument_validation():
    sc = _ode_scenario(particles=512)
    with pytest.raises(ValueError):
        mr.penalty_sweep(sc, [8.0, 8.0])
    with pytest.raises(ValueError):
        mr.penalty_sweep(sc, [64.0, 8.0])
    with pytest.raises(ValueError):
        mr.penalty_sweep(sc, [])
    for bad in (math.inf, math.nan):  # nan compares false, so never "decreasing"
        with pytest.raises(ValueError, match="finite"):
            mr.penalty_sweep(sc, [4.0, bad])
    for levels in ([0.0, 8.0], [-4.0, 8.0]):  # a zero level would divide by zero
        with pytest.raises(ValueError, match="positive"):
            mr.penalty_sweep(sc, levels)


@pytest.mark.parametrize(
    "gen",
    [mr.linear_generator(2.0), mr.affine_mix_generator(a_y=2.0, const=10.0)],
    ids=["linear", "affine-mix"],
)
def test_sweep_needs_a_state_free_generator(gen):
    # the reference freezes the driver at zero: with these generators the
    # sup errors level off (or never move) instead of falling like 1/n
    sc = dataclasses.replace(_ode_scenario(particles=512), generator=gen)
    with pytest.raises(ValueError, match="state-free"):
        mr.penalty_sweep(sc, [16.0, 64.0])
    mr.solve_penalized(sc, 16.0)  # the single-level solver stays general


def test_sweep_error_decays_like_one_over_n():
    # the binding boundary layer contributes (driver mean + obstacle slope)/n
    # = 12/n here, so sup errors shrink strictly and the fitted rate sits
    # near -1 (observed -0.9955)
    ns = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    sw = mr.penalty_sweep(_ode_scenario(), ns)
    assert all(b < a for a, b in zip(sw.sup_errors, sw.sup_errors[1:]))
    assert all(11.0 <= e * n <= 12.05 for e, n in zip(sw.sup_errors, ns))
    assert -1.05 <= sw.slope <= -0.9
    # only the upper obstacle binds, and its overshoot shrinks with n
    assert all(v == 0.0 for v in sw.lower_violations)
    assert all(
        b <= a + 1e-12 for a, b in zip(sw.upper_violations, sw.upper_violations[1:])
    )
    # accumulated force grows toward the reflected limit, never past it
    assert all(b >= a for a, b in zip(sw.variations, sw.variations[1:]))
    assert sw.variations[-1] <= 10.05


def test_one_level_gives_no_slope():
    # a rate needs two levels: the undefined slope is None, not NaN
    sw = mr.penalty_sweep(_ode_scenario(particles=512), [16.0])
    assert sw.sup_errors[0] > 0.0 and sw.slope is None


def test_sweep_squared_overshoot_column_stays_bounded():
    # n^2 * sum((mean - r)^+)^2 dt must not blow up as n grows; observed it
    # saturating near 118.8 for this scenario
    ns = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    sw = mr.penalty_sweep(_ode_scenario(), ns)
    col = sw.upper_bound_column
    assert max(col) <= 2.0 * col[0]
    assert abs(col[-1] - col[-2]) <= 0.01 * col[-1]
    assert all(v == 0.0 for v in sw.lower_bound_column)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_sweep_survives_huge_levels():
    # n**2 alone overflows a float at n = 1e200 (it raised OverflowError);
    # the column is built from n * overshoot instead, which reads inf only
    # where the overshoot sits at rounding level, far above 1/n
    sw = mr.penalty_sweep(_ode_scenario(particles=512), [8.0, 1e200])
    assert math.isfinite(sw.upper_bound_column[0])
    assert all(math.isfinite(e) for e in sw.sup_errors)


def test_inactive_sweep_sits_at_the_noise_floor():
    sc = mr.Scenario(
        horizon=1.0,
        steps=16,
        particles=8_000,
        rng=mr.RngSpec(9),
        terminal=lambda b: np.sin(b),
        generator=mr.constant_generator(0.5),
        losses=mr.linear_band(-50.0, 50.0),
        obstacles=mr.LinearObstacles.constants(0.0, 0.0, -40.0, 40.0),
    )
    sw = mr.penalty_sweep(sc, [4.0, 16.0, 64.0])
    assert all(e <= 1e-12 for e in sw.sup_errors)
    assert all(v == 0.0 for v in sw.variations)
    assert all(v == 0.0 for v in sw.upper_violations + sw.lower_violations)
    assert sw.slope is None or abs(sw.slope) < 0.5


@pytest.mark.parametrize(
    "regression, tol",
    [(mr.RegressionConfig(ridge=0.0), 1e-12), (mr.RegressionConfig(), 1e-9)],
    ids=["ridge-0", "default-ridge"],
)
def test_sweep_rows_match_per_level_particle_solves(monkeypatch, regression, tol):
    # the sweep's closed-form mean and scalar recursion against the particle
    # solver on the same ensemble: without a ridge the regression keeps the
    # mean up to rounding (observed 2.0e-15 scaled); the default ridge biases
    # the particle solver's mean, and so its pushes (observed 9.1e-10)
    sc = dataclasses.replace(_ode_scenario(), regression=regression)
    ns = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    rows = []
    level_means = penalty._level_means

    def spy(*args):
        rows.append(level_means(*args))
        return rows[-1]

    monkeypatch.setattr(penalty, "_level_means", spy)
    sw = mr.penalty_sweep(sc, ns)
    assert len(rows) == len(ns)
    for n, (mean, push_up, push_down), err in zip(ns, rows, sw.sup_errors):
        sol = mr.solve_penalized(sc, n)
        full = mr.ensemble_means(sol.y)
        scale = 1.0 + float(np.max(np.abs(full)))
        assert np.max(np.abs(mean - full)) <= tol * scale
        assert np.max(np.abs(push_up - sol.push_up.values)) <= tol * scale
        assert np.max(np.abs(push_down - sol.push_down.values)) <= tol * scale
        assert abs(err - np.max(np.abs(full - sw.reference_mean))) <= tol * scale


@pytest.mark.parametrize("ns", [[16.0], [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]])
def test_sweep_runs_no_particle_pass(monkeypatch, ns):
    calls = []
    backward_pass = bsde._backward_pass

    def counting(*args, **kwargs):
        calls.append(1)
        return backward_pass(*args, **kwargs)

    # both names: solve_bsde looks up the bsde one, solve_penalized its own import
    monkeypatch.setattr(bsde, "_backward_pass", counting)
    monkeypatch.setattr(penalty, "_backward_pass", counting)
    mr.penalty_sweep(_ode_scenario(particles=2_000), ns)
    assert calls == []


def test_non_finite_level_mean_is_a_numerical_failure(monkeypatch):
    events = penalty._events_affine

    def poisoned(u, cbar, n, *rest):
        return (math.nan, math.nan, math.nan) if n == 16.0 else events(u, cbar, n, *rest)

    monkeypatch.setattr(penalty, "_events_affine", poisoned)
    with pytest.raises(NumericalFailureError, match="level 16, node 19"):
        mr.penalty_sweep(_ode_scenario(particles=2_000), [4.0, 16.0, 64.0])


def test_sweep_keeps_no_level_particles_alive():
    # the table reads each level's mean path and push parts only, so eight
    # levels must cost no more live memory than one, up to two arrays
    sc = _ode_scenario(particles=4_000)
    full = sc.particles * (sc.steps + 1) * 8
    peaks = []
    for ns in ([4.0], [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]):
        peaks.append(peak_bytes(lambda: mr.penalty_sweep(sc, ns))[1])
    assert peaks[1] <= peaks[0] + 2 * full


def test_sweep_draws_only_the_terminal_cross_section(monkeypatch):
    # in (particles, nodes) arrays of 20k x 21 doubles: the sweep reads B_T
    # alone, so it must never hold the ensemble or a full-size draw
    sc = _ode_scenario(particles=20_000)
    array = sc.particles * (sc.steps + 1) * 8

    def no_ensemble(self):
        raise AssertionError("the sweep simulated the whole ensemble")

    monkeypatch.setattr(mr.Scenario, "simulate", no_ensemble)
    _, peak = peak_bytes(lambda: mr.penalty_sweep(sc, [4.0, 16.0, 64.0]))
    assert peak <= 0.5 * array, peak / array
