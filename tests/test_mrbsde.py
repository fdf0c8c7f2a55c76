"""Doubly mean-reflected solvers: the terminal-anchored construction and the
fixed-point driver."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect.errors import InfeasibleTerminalError, NonConvergenceError, NumericalFailureError
from meanreflect.mrbsde import _max_rms_gap
from oracles import cole_hopf_value


def _scenario(gen, *, losses=None, steps=25, particles=20_000, seed=7, horizon=1.0, **kw):
    return mr.Scenario(
        horizon=horizon,
        steps=steps,
        particles=particles,
        rng=mr.RngSpec(seed),
        terminal=lambda b: b,
        generator=gen,
        losses=losses if losses is not None else mr.linear_band(-1.0, 2.0),
        **kw,
    )


# ---------------------------------------------------------------------------
# terminal-anchored construction
# ---------------------------------------------------------------------------


def test_interior_mean_needs_no_force():
    sc = _scenario(mr.constant_generator(0.0))
    sol = mr.solve_constant_driver(sc)
    assert_array_equal(sol.K.values, 0.0)
    assert_array_equal(sol.push_up.values, 0.0)
    assert_array_equal(sol.push_down.values, 0.0)
    # Y is then exactly the inner unreflected solution
    assert_array_equal(sol.y.values, sol.inner.values)


def test_upward_drift_clamps_the_mean():
    # f == 4 with band [-1, 2]: the mean must follow min(4(1-t), 2), all the
    # force is push_down, and the terminal force totals -2
    sc = _scenario(mr.constant_generator(4.0))
    sol = mr.solve_constant_driver(sc)
    t = sc.make_grid().nodes
    tol = max(1.0 / sc.steps, 4.0 / math.sqrt(sc.particles))
    assert np.max(np.abs(sol.mean_path - np.minimum(4.0 * (1.0 - t), 2.0))) <= tol
    assert abs(sol.K.values[-1] + 2.0) <= 0.02
    assert_array_equal(sol.push_up.values, 0.0)
    assert sol.flat_residual_up == 0.0 and sol.flat_residual_down <= mr.flat_tolerance(
        mr.SamplePath(sc.make_grid(), sol.mean_path)
    )


def test_downward_drift_mirrors_through_push_up():
    # f == -4: the mean follows max(-4(1-t), -1) and K_t = +min(4t, 3)
    sc = _scenario(mr.constant_generator(-4.0))
    sol = mr.solve_constant_driver(sc)
    t = sc.make_grid().nodes
    tol = max(1.0 / sc.steps, 4.0 / math.sqrt(sc.particles))
    assert np.max(np.abs(sol.mean_path - np.maximum(-4.0 * (1.0 - t), -1.0))) <= tol
    assert np.max(np.abs(sol.K.values - np.minimum(4.0 * t, 3.0))) <= 0.02
    assert_array_equal(sol.push_down.values, 0.0)


def test_representation_identity_is_exact():
    sc = _scenario(mr.constant_generator(4.0))
    sol = mr.solve_constant_driver(sc)
    assert mr.representation_gap(sol) <= 1e-12
    recon = sol.inner.values + (sol.K.values[-1] - sol.K.values)[None, :]
    assert np.max(np.abs(sol.y.values - recon)) <= 1e-12


def test_force_is_one_deterministic_path():
    sc = _scenario(mr.constant_generator(4.0))
    sol = mr.solve_constant_driver(sc)
    assert sol.K.values.shape == (sc.steps + 1,)
    again = mr.solve_constant_driver(sc)
    assert_array_equal(sol.K.values, again.K.values)
    assert_array_equal(sol.y.values, again.y.values)


def test_infeasible_terminal_rejected():
    sc = mr.Scenario(
        horizon=1.0,
        steps=10,
        particles=2_000,
        rng=mr.RngSpec(1),
        terminal=lambda b: 9.0,
        generator=mr.constant_generator(0.0),
        losses=mr.linear_band(-1.0, 2.0),
    )
    with pytest.raises(InfeasibleTerminalError):
        mr.solve_constant_driver(sc)
    with pytest.raises(InfeasibleTerminalError):
        mr.picard_solve(sc)


@pytest.mark.parametrize(
    "gen",
    [
        mr.linear_generator(3.0),
        mr.affine_mix_generator(a_y=0.5),
        mr.affine_mix_generator(a_mean_y=0.5),
        mr.quadratic_z_generator(1.0),
    ],
    ids=["linear", "affine-mix-a_y", "affine-mix-a_mean_y", "quadratic-z"],
)
def test_constant_driver_route_needs_a_state_free_generator(gen):
    sc = _scenario(gen, steps=4, particles=64)
    with pytest.raises(ValueError, match="state-free"):
        mr.solve_constant_driver(sc)
    # an explicit driver path is the caller's frozen driver: accepted
    sol = mr.solve_constant_driver(sc, np.zeros((64, 5)))
    assert np.all(np.isfinite(sol.y.values))


def test_terminal_feasibility_helpers():
    lp = mr.linear_band(-1.0, 2.0)
    ok = np.array([0.5, -0.5, 1.0, -1.0])
    e_l, e_r, tol = mr.terminal_feasibility(lp, 1.0, ok)
    assert e_l == -2.0 and e_r == 1.0  # mean 0 against edges L = x-2, R = x+1
    assert e_l <= tol and e_r >= -tol
    assert mr.require_feasible_terminal(lp, 1.0, ok) == tol
    with pytest.raises(InfeasibleTerminalError):
        mr.require_feasible_terminal(lp, 1.0, np.full(4, 9.0))
    # NaN means fail the check rather than slip through both comparisons
    with pytest.raises(InfeasibleTerminalError):
        mr.require_feasible_terminal(lp, 1.0, np.array([0.5, np.nan, 1.0, -1.0]))


@pytest.mark.parametrize(
    "terminal",
    [lambda b: math.nan, lambda b: math.inf, lambda b: np.where(b > 0.0, np.nan, b)],
    ids=["nan", "inf", "some-nan"],
)
def test_non_finite_terminal_values_rejected(terminal):
    sc = mr.Scenario(
        horizon=1.0,
        steps=4,
        particles=64,
        rng=mr.RngSpec(2),
        terminal=terminal,
        generator=mr.constant_generator(0.0),
        losses=mr.linear_band(-2.0, 2.0),
    )
    with pytest.raises(NumericalFailureError, match="not finite"):
        sc.terminal_values(sc.simulate())
    with pytest.raises(NumericalFailureError):
        mr.solve_constant_driver(sc)
    with pytest.raises(NumericalFailureError):
        mr.picard_solve(sc)


def test_scenario_terminal_catalogue_broadcasts_scalars():
    sc = mr.Scenario(
        horizon=1.0,
        steps=4,
        particles=16,
        rng=mr.RngSpec(2),
        terminal=lambda b: 1.5,
        generator=mr.constant_generator(0.0),
        losses=mr.linear_band(-2.0, 2.0),
    )
    xi = sc.terminal_values(sc.simulate())
    assert xi.shape == (16,)
    assert_array_equal(xi, 1.5)


def test_widening_the_band_never_adds_force():
    # same driver and draw, wider admissible band: both monotone parts of
    # the force can only shrink
    narrow = _scenario(mr.constant_generator(4.0), losses=mr.linear_band(-1.0, 2.0))
    wide = _scenario(mr.constant_generator(4.0), losses=mr.linear_band(-1.5, 2.5))
    sn = mr.solve_constant_driver(narrow)
    sw = mr.solve_constant_driver(wide)
    assert np.all(sw.push_down.values <= sn.push_down.values + 1e-9)
    assert np.all(sw.push_up.values <= sn.push_up.values + 1e-9)


# ---------------------------------------------------------------------------
# fixed-point driver
# ---------------------------------------------------------------------------


def test_state_free_generator_converges_in_two_sweeps():
    # a driver that ignores its arguments makes the map constant: the second
    # iterate reproduces the first bit for bit
    sc = _scenario(mr.constant_generator(4.0), particles=4_000, steps=10)
    sol = mr.picard_solve(sc)
    tr = sol.trace
    assert tr.iterations == 2 and tr.converged
    assert tr.y_distances[-1] == 0.0 and tr.k_distances[-1] == 0.0
    assert tr.segment_count == 1


def test_short_horizon_contraction_profile():
    sc = mr.Scenario(
        horizon=0.1,
        steps=10,
        particles=8_000,
        rng=mr.RngSpec(21),
        terminal=lambda b: b,
        generator=mr.affine_mix_generator(a_y=1.0),
        losses=mr.linear_band(-1.0, 1.0),
    )
    sol = mr.picard_solve(sc)
    tr = sol.trace
    assert tr.converged and tr.iterations <= 20
    assert all(r < 1.0 for r in tr.ratios)
    est = mr.contraction_estimate(tr)
    assert est.contracting and est.fitted_ratio < 0.5


def test_two_initializations_land_on_the_same_point():
    sc = mr.Scenario(
        horizon=0.1,
        steps=10,
        particles=8_000,
        rng=mr.RngSpec(21),
        terminal=lambda b: b,
        generator=mr.affine_mix_generator(a_y=1.0),
        losses=mr.linear_band(-1.0, 1.0),
    )
    a = mr.picard_solve(sc, init="zero")
    b = mr.picard_solve(sc, init="unreflected")
    gap = max(
        float(np.max(np.abs(a.y.values - b.y.values))),
        float(np.max(np.abs(a.K.values - b.K.values))),
    )
    assert gap <= 2.0 * sc.tol.picard_tol


def test_unknown_initialization_rejected():
    sc = _scenario(mr.constant_generator(0.0), particles=512, steps=4)
    with pytest.raises(ValueError):
        mr.picard_solve(sc, init="warm")


def test_long_horizon_splits_and_still_converges():
    # a strong linear driver cannot contract over the whole horizon; the
    # solver must fall back to stitched sub-intervals
    sc = mr.Scenario(
        horizon=1.0,
        steps=16,
        particles=6_000,
        rng=mr.RngSpec(41),
        terminal=lambda b: b,
        generator=mr.affine_mix_generator(a_y=5.0),
        losses=mr.linear_band(-60.0, 60.0),
    )
    sol = mr.picard_solve(sc)
    tr = sol.trace
    assert tr.converged and tr.segment_count > 1
    assert len(tr.segment_iterations) == tr.segment_count
    assert mr.representation_gap(sol) <= 1e-12
    xi = sc.terminal_values(sc.simulate())
    assert_array_equal(sol.y.values[:, -1], xi)


def test_exhausted_iteration_budget_raises_with_trace():
    sc = mr.Scenario(
        horizon=1.0,
        steps=4,
        particles=512,
        rng=mr.RngSpec(3),
        terminal=lambda b: b,
        generator=mr.affine_mix_generator(a_y=1.0),
        losses=mr.linear_band(-5.0, 5.0),
        tol=mr.Tolerances(max_iterations=1),
    )
    with pytest.raises(NonConvergenceError) as exc:
        mr.picard_solve(sc)
    assert exc.value.trace is not None
    assert not exc.value.trace.converged


def test_quadratic_mode_requires_an_envelope():
    sc = _scenario(mr.quadratic_z_generator(1.0), particles=512, steps=4,
                   losses=mr.linear_band(-10.0, 10.0))
    with pytest.raises(ValueError):
        mr.picard_solve(sc)


def test_quadratic_wide_constraints_match_exponential_transform():
    # constraints chosen inactive: the reflected solve must collapse to the
    # plain quadratic solution, with the initial value pinned by the
    # exponential transform on the same draw
    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=20_000,
        rng=mr.RngSpec(31),
        terminal=lambda b: np.sin(b),
        generator=mr.quadratic_z_generator(1.0),
        losses=mr.linear_band(-10.0, 10.0),
        envelope=mr.LinearEnvelope.constants(1.0, 10.0, -10.0),
        regression=mr.RegressionConfig(degree=5),
    )
    sol = mr.picard_solve(sc)
    assert_array_equal(sol.K.values, 0.0)
    y0 = float(mr.pairwise_mean(sol.y.values[:, 0]))
    ref = cole_hopf_value(1.0, sc.terminal_values(sc.simulate()))
    assert abs(y0 - ref) / abs(ref) <= 0.02  # observed 0.3% at this scale


def test_force_variation_guard_on_the_clamp():
    # constant envelope edges contribute nothing, so the per-iterate bound
    # is twice the variation of the driver path s_t = 4t, i.e. 8, against
    # an accumulated force of 2
    sc = _scenario(
        mr.constant_generator(4.0),
        particles=4_000,
        steps=10,
        envelope=mr.LinearEnvelope.constants(1.0, 3.0, -1.0),
    )
    sol = mr.picard_solve(sc)
    rep = mr.kt_variation_guard(sol.trace, sc.envelope)
    assert rep.passed
    assert_allclose(rep.variations[-1], 2.0, rtol=0, atol=0.05)
    assert_allclose(rep.bounds[-1], 8.0, rtol=0, atol=0.1)
    assert all(s >= 0.0 for s in rep.slacks)


def test_force_variation_guard_needs_recorded_terms():
    sc = _scenario(mr.constant_generator(4.0), particles=512, steps=4)
    sol = mr.picard_solve(sc)  # no envelope in the scenario
    with pytest.raises(ValueError):
        mr.kt_variation_guard(sol.trace, mr.LinearEnvelope.constants(1.0, 3.0, -1.0))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def test_clamped_solution_passes_the_audit():
    sc = _scenario(mr.constant_generator(4.0))
    sol = mr.solve_constant_driver(sc)
    audit = mr.audit_solution(sol, sc.losses)
    assert audit.passed
    assert audit.violation_lower <= audit.violation_tol
    assert audit.violation_upper == 0.0


def test_constraint_violation_meter():
    sc = _scenario(mr.constant_generator(0.0), particles=2_000, steps=10)
    sol = mr.solve_constant_driver(sc)
    lo, hi = mr.constraint_violation(sol.y, sc.losses)
    assert lo == 0.0 and hi == 0.0
    # shift every particle above the band: the upper-loss meter must fire
    shifted = mr.Ensemble(sol.y.grid, sol.y.values + 5.0)
    lo, hi = mr.constraint_violation(shifted, sc.losses)
    assert lo > 1.0 and hi == 0.0


@pytest.mark.parametrize("particles", [3, 101, 8193])
def test_max_rms_gap_matches_the_full_array_formula(particles):
    rng = np.random.default_rng(particles)
    a, b = rng.normal(0.0, 1.0, (2, particles, 9))
    full = float(np.sqrt(np.max(mr.pairwise_mean((a - b) ** 2, axis=0))))
    assert _max_rms_gap(a, b) == full


def test_every_returned_ensemble_is_f_contiguous():
    def assert_f(*ensembles):
        assert all(e.values.flags.f_contiguous for e in ensembles)

    sc = _scenario(mr.constant_generator(4.0), particles=2_000, steps=8)
    bm = sc.simulate()
    assert_f(bm)
    plain = mr.solve_bsde(sc.terminal_values(bm), mr.linear_generator(0.5), bm)
    assert_f(plain.y, plain.z)
    assert mr.constant_driver_path(mr.linear_generator(0.5), plain.y, plain.z).flags.f_contiguous
    cd = mr.solve_constant_driver(sc)
    assert_f(cd.y, cd.z, cd.inner)
    single = mr.picard_solve(sc)
    assert single.trace.segment_count == 1
    assert_f(single.y, single.z, single.inner)
    split_sc = _scenario(
        mr.affine_mix_generator(a_y=5.0), particles=2_000, steps=16, seed=41,
        losses=mr.linear_band(-60.0, 60.0),
    )
    split = mr.picard_solve(split_sc)
    assert split.trace.segment_count > 1
    assert_f(split.y, split.z, split.inner)
    pen_sc = _scenario(
        mr.constant_generator(10.0), particles=2_000, steps=8,
        losses=mr.linear_band(-30.0, 30.0),
        obstacles=mr.LinearObstacles.constants(-2.0, 2.0),
    )
    pen = mr.solve_penalized(pen_sc, 8.0)
    assert_f(pen.y, pen.z)
