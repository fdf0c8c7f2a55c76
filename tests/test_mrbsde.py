"""Doubly mean-reflected solvers: the terminal-anchored construction and the
fixed-point driver."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect import bsde, cli, constraints, mrbsde
from meanreflect.constraints import ROOT_TOL_DEFAULT
from meanreflect.core import pairwise_mean, stat_tol
from meanreflect.errors import InfeasibleTerminalError, NonConvergenceError, NumericalFailureError
from meanreflect.mrbsde import _move_meter
from conftest import peak_bytes, retained_bytes
from oracles import cole_hopf_value, sin_terminal_reflected_mean


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
    assert sol.flat_residual_up == 0.0
    assert sol.flat_residual_down <= 1e-10 * (1.0 + float(np.max(np.abs(sol.mean_path))))


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


def test_terminal_feasibility_helpers():
    lp = mr.linear_band(-1.0, 2.0)
    ok = np.array([0.5, -0.5, 1.0, -1.0])  # mean 0 against edges L = x-2, R = x+1
    tol = max(mr.stat_tol(ok - 2.0), mr.stat_tol(ok + 1.0)) + ROOT_TOL_DEFAULT
    assert mr.require_feasible_terminal(lp, 1.0, ok) == tol
    with pytest.raises(InfeasibleTerminalError):
        mr.require_feasible_terminal(lp, 1.0, np.full(4, 9.0))
    # NaN means fail the check rather than slip through both comparisons
    with pytest.raises(InfeasibleTerminalError):
        mr.require_feasible_terminal(lp, 1.0, np.array([0.5, np.nan, 1.0, -1.0]))


@pytest.mark.parametrize("solve", [mr.solve_constant_driver, mr.picard_solve])
def test_a_false_affine_claim_is_refused_on_the_terminal_values(solve):
    # bent only beyond x = 10, outside the x window of the entry check, but
    # inside the range of the terminal values 3 sin(B_T) + 11.5
    def bend(x):
        x = np.maximum(np.asarray(x, dtype=float) - 10.0, 0.0)
        return x * x / (2.0 * (1.0 + x))

    honest = mr.LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - bend(x) - 12.0,
        R=lambda t, x: np.asarray(x, dtype=float) + bend(x) - 11.0,
        c=0.5, C=1.5, gap=1.0,
    )
    sc = mr.Scenario(
        horizon=1.0, steps=20, particles=3_000, rng=mr.RngSpec(3),
        terminal=lambda b: 3.0 * np.sin(b) + 11.5,
        generator=mr.constant_generator(4.0),
        losses=honest,
    )
    assert mr.audit_solution(solve(sc), honest).passed
    with pytest.raises(ValueError, match="declared affine"):
        solve(dataclasses.replace(sc, losses=dataclasses.replace(honest, affine=True)))


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


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
def test_max_iterations_must_be_an_integer(bad):
    # range() would otherwise fail inside the solve with a TypeError
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        mr.Tolerances(max_iterations=bad)
    with pytest.raises(ValueError, match="max_iterations"):
        mr.Tolerances(max_iterations=0)
    assert mr.Tolerances(max_iterations=np.int64(7)).max_iterations == 7


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
    tr = exc.value.trace
    assert tr is not None
    assert not tr.converged
    # one segment, then two (the cap of steps // 2); each runs out of its
    # one iteration, so neither names a split ratio
    assert [a[:2] for a in tr.attempts] == [(1, 1), (2, 1)]
    assert all(math.isnan(a[2]) for a in tr.attempts)


def _split_scenario(particles=2_000):
    # y-coupling too strong for one contraction: 8 stitched segments
    return _scenario(
        mr.affine_mix_generator(a_y=5.0), particles=particles, steps=16, seed=41,
        losses=mr.linear_band(-60.0, 60.0),
    )


def test_split_solve_reports_every_attempt(monkeypatch):
    # the trace fields describe the returned attempt only; attempts must
    # account for every iteration run, discarded restarts included
    calls = []
    construct = mrbsde._construct

    def counting(*args):
        calls.append(1)
        return construct(*args)

    monkeypatch.setattr(mrbsde, "_construct", counting)
    tr = mr.picard_solve(_split_scenario()).trace
    assert sum(a[1] for a in tr.attempts) == len(calls) == 145 > tr.iterations == 139
    assert [a[0] for a in tr.attempts] == [1, 2, 4, 8]
    assert tr.attempts[-1][:2] == (tr.segment_count, tr.iterations)
    assert math.isnan(tr.attempts[-1][2])
    margin = mr.Tolerances().contraction_margin
    assert all(a[2] > margin for a in tr.attempts[:-1])


def test_the_contraction_estimate_reads_the_ratios_picard_splits_on():
    # each segment restarts its distances from the top; a fit across the
    # segments read that restart as growth, so the estimate reads the ratios
    tr = mr.picard_solve(_split_scenario()).trace
    est = mr.contraction_estimate(tr)
    logs = np.log([r for r in tr.ratios if r > 0.0])
    assert_allclose(est.fitted_ratio, math.exp(np.mean(logs)), rtol=1e-12)
    assert min(tr.ratios) <= est.fitted_ratio <= max(tr.ratios)
    assert est.contracting and est.fit_residual < 1.0


@pytest.mark.parametrize("pair", ["bare", "averaged"])
def test_a_split_solve_checks_its_terminal_data_once_per_started_segment(monkeypatch, pair):
    # the entry check runs once per segment a solve starts, discarded
    # attempts included; no map checks the anchor again, so the pair is
    # read at its anchor only by the band test, never beside it
    checks, segments, anchors, beside = [], [], set(), set()
    band_test = [False]

    def wrap(owner, name, before):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            before(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapped)

    real_call = constraints._EdgeFinder.__call__

    def finder_call(self, node, x):
        band_test[0] = True
        try:
            return real_call(self, node, x)
        finally:
            band_test[0] = False

    def side_read(bp, node, x):
        if not band_test[0] and isinstance(node, int) and node == bp.grid.n_nodes - 1:
            beside.update(np.ravel(x).tolist())

    monkeypatch.setattr(constraints._EdgeFinder, "__call__", finder_call)
    wrap(mrbsde, "require_feasible_terminal", lambda *a: checks.append(1))
    wrap(mrbsde, "_picard_segment", lambda *a: segments.append(1))
    wrap(mrbsde, "_solve_bsp", lambda s, a, bp, *rest: anchors.add(a))
    wrap(constraints.BoundaryPair, "lower", side_read)
    wrap(constraints.BoundaryPair, "upper", side_read)
    sc = _split_scenario()
    if pair == "averaged":  # a saturating band: each map runs an edge finder
        sc = _saturating(sc.generator, steps=sc.steps, particles=sc.particles, seed=41)
    tr = mr.picard_solve(sc).trace
    assert len(checks) == len(segments) > tr.segment_count == 8
    assert anchors and not anchors & beside


@pytest.mark.parametrize("init", ["zero", "unreflected"])
def test_split_segments_run_on_the_true_clock(init):
    # a band moving in time, [t - 1, t + 3], held at its lower edge: a segment
    # that evaluated the losses on a clock restarted at 0 would hold the mean
    # at t - t_a - 1, below the true edge by the segment's start time t_a
    lp = mr.LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - 3.0 - t,
        R=lambda t, x: np.asarray(x, dtype=float) + 1.0 - t,
        c=1.0, C=1.0, gap=4.0, affine=True,
    )
    sc = mr.Scenario(
        horizon=1.0, steps=16, particles=6_000, rng=mr.RngSpec(41),
        terminal=lambda b: b + 0.1,
        generator=mr.affine_mix_generator(a_y=5.0, const=-10.0),
        losses=lp,
    )
    sol = mr.picard_solve(sc, init=init)
    assert sol.trace.converged and sol.trace.segment_count > 1
    assert sol.push_up.values[-1] > 1.0  # the lower edge binds
    assert mr.audit_solution(sol, lp).passed
    # the reflected mean is exact, so the full-horizon clock sees no overshoot
    e_l, e_r = mr.mean_loss_paths(sol.y, lp)
    assert np.max(e_l) <= 1e-9 and np.min(e_r) >= -1e-9


@pytest.mark.parametrize("case", ["single", "split", "envelope"])
def test_trace_fields_agree(case):
    if case == "single":
        sc = _scenario(mr.affine_mix_generator(a_y=1.0), particles=4_000, steps=10, horizon=0.1)
    elif case == "split":
        sc = _split_scenario()
    else:
        sc = mr.Scenario(
            horizon=1.0,
            steps=20,
            particles=5_000,
            rng=mr.RngSpec(7),
            terminal=lambda b: 1.5 * np.sin(b) + 2.8,
            generator=mr.quadratic_z_generator(1.0),
            losses=mr.linear_band(1.0, 3.0),
            envelope=mr.LinearEnvelope.constants(1.0, 3.0, 1.0),
        )
    tr = mr.picard_solve(sc).trace
    assert tr.converged and (tr.segment_count > 1) == (case == "split")
    lengths = {
        sum(tr.segment_iterations),
        tr.iterations,
        len(tr.y_distances),
        len(tr.k_distances),
        len(tr.k_variations),
        len(tr.s_variations),
    }
    assert lengths == {tr.iterations} and len(tr.segment_iterations) == tr.segment_count
    assert len(tr.segment_nodes) == tr.segment_count
    # ratios: consecutive combined distances within each segment, in order
    d = tr.combined_distances
    starts = np.cumsum((0,) + tr.segment_iterations[:-1])
    expected = [
        d[i] / d[i - 1]
        for s, n in zip(starts, tr.segment_iterations)
        for i in range(s + 1, s + n)
        if d[i - 1] > 0.0
    ]
    assert list(tr.ratios) == expected and len(expected) == tr.iterations - tr.segment_count


def test_quadratic_mode_requires_an_envelope():
    sc = _scenario(mr.quadratic_z_generator(1.0), particles=512, steps=4,
                   losses=mr.linear_band(-10.0, 10.0))
    with pytest.raises(ValueError):
        mr.picard_solve(sc)


def test_quadratic_mode_rejects_an_envelope_that_fails_on_its_r_side():
    # R = x - 1 against R' = x - q: q = 1 encloses, q = 1/2 puts R' above R
    grid = mr.build_grid(1.0, 4)
    band = mr.linear_band(1.0, 3.0)
    assert mr.check_envelope_order(band, mr.LinearEnvelope.constants(1.0, 3.0, 1.0), grid)
    above = mr.LinearEnvelope.constants(1.0, 3.0, 0.5)
    assert not mr.check_envelope_order(band, above, grid)
    sc = _scenario(mr.quadratic_z_generator(1.0), particles=512, steps=4, losses=band,
                   envelope=above)
    with pytest.raises(ValueError, match="does not enclose"):
        mr.picard_solve(sc)


def test_quadratic_mode_rejects_nan_losses_before_solving():
    # a NaN loss used to pass the envelope check and fail later as an
    # infeasible terminal; the scenario now refuses it where it enters
    nan = mr.LossPair(
        L=lambda t, x: np.full_like(x, np.nan),
        R=lambda t, x: np.full_like(x, np.nan),
        c=1.0,
        C=1.0,
        gap=5.0,
    )
    with pytest.raises(ValueError, match="finiteness"):
        _scenario(mr.quadratic_z_generator(1.0), particles=512, steps=4, losses=nan,
                  envelope=mr.LinearEnvelope.constants(1.0, 3.0, 1.0))


def _drifting_band() -> mr.LossPair:
    # linear_band(-1, 2) moving up with t, falsely declared time-invariant
    return mr.LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - 2.0 - t,
        R=lambda t, x: np.asarray(x, dtype=float) + 1.0 - t,
        c=1.0,
        C=1.0,
        gap=3.0,
        time_invariant=True,
    )


@pytest.mark.parametrize(
    "losses,claim",
    [
        (dataclasses.replace(mr.saturating_band(-1.0, 2.0), affine=True), "affine claim"),
        (_drifting_band(), "time_invariant claim"),
    ],
    ids=["affine", "time-invariant"],
)
def test_a_scenario_refuses_a_false_loss_claim(losses, claim):
    # boundary code drops an affine pair's offsets and evaluates a
    # time-invariant bare pair once: the bent band declared affine used to
    # move this constant-driver mean path by 3.4e-3, with its audit passing
    with pytest.raises(ValueError, match=claim):
        mr.Scenario(
            horizon=1.0,
            steps=20,
            particles=3000,
            rng=mr.RngSpec(3),
            terminal=lambda b: 1.5 * np.sin(b) + 0.5,
            generator=mr.constant_generator(4.0),
            losses=losses,
        )


@pytest.mark.parametrize("mean", [2.0, 9.0], ids=["feasible", "infeasible"])
def test_bad_envelope_fails_before_any_solve(monkeypatch, mean):
    # q overtakes p = 3 on (1/4, 3/4): the envelope is refused before the
    # first reflected solve, and before an infeasible terminal is reported
    def solve(*args):
        raise AssertionError("a reflected solve ran")

    monkeypatch.setattr(mrbsde, "_construct", solve)
    sc = mr.Scenario(
        horizon=1.0,
        steps=8,
        particles=512,
        rng=mr.RngSpec(3),
        terminal=lambda b: mean + 0.5 * np.sin(b),
        generator=mr.quadratic_z_generator(1.0),
        losses=mr.linear_band(1.0, 3.0),
        envelope=mr.LinearEnvelope(
            b=lambda t: 1.0, p=lambda t: 3.0, q=lambda t: 1.0 + 16.0 * t * (1.0 - t) / 1.5
        ),
    )
    with pytest.raises(ValueError, match="envelope gap"):
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


def test_force_variation_guard_reads_the_envelope_it_is_given():
    # the scenario's own constant envelope adds nothing to the bound 2 Var(s) = 8;
    # edges p = 3 + 50t, q = -1 - 50t add Var(p) + Var(q) = 100 to it
    sc = mr.Scenario(
        horizon=1.0, steps=10, particles=512, rng=mr.RngSpec(1),
        terminal=lambda b: 1.0,
        generator=mr.constant_generator(4.0),
        losses=mr.linear_band(-1.0, 2.0),
        envelope=mr.LinearEnvelope.constants(1.0, 3.0, -1.0),
    )
    trace = mr.picard_solve(sc).trace
    steep = mr.LinearEnvelope(
        b=lambda t: 1.0, p=lambda t: 3.0 + 50.0 * t, q=lambda t: -1.0 - 50.0 * t
    )
    own = mr.kt_variation_guard(trace, sc.envelope)
    other = mr.kt_variation_guard(trace, steep)
    assert_allclose(own.bounds[-1], 8.0, rtol=0, atol=1e-6)
    assert_allclose(np.subtract(other.bounds, own.bounds), 100.0, rtol=1e-12)
    # a trace from a scenario without an envelope is checked all the same
    bare = mr.picard_solve(dataclasses.replace(sc, envelope=None)).trace
    assert mr.kt_variation_guard(bare, steep).bounds == other.bounds


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
    audit = mr.audit_solution(sol, sc.losses)
    assert audit.violation_lower == 0.0 and audit.violation_upper == 0.0
    # shift every particle above the band: the upper-loss meter must fire
    shifted = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, sol.y.values + 5.0))
    audit = mr.audit_solution(shifted, sc.losses)
    assert audit.violation_lower > 1.0 and audit.violation_upper == 0.0


def _metered(u, y_new, s_old, s_new):
    """The in-pass move: meter each new plain column before it overwrites ``u``."""
    meter, move = _move_meter(u, s_old)
    for k in reversed(range(u.shape[1])):
        meter(k, y_new[:, k].copy())
        u[:, k] = y_new[:, k]
    return move(s_new)


@pytest.mark.parametrize("particles", [3, 101, 8193])
def test_in_pass_move_matches_the_full_array_formula(particles):
    # the move is metered one column at a time, before the frozen y is
    # overwritten, and finished once the new force is known: it must agree
    # with the formula on the whole reflected arrays, with or without an old
    # shift, and be exactly 0 on a repeated iterate
    rng = np.random.default_rng(particles)
    p_old, p_new = rng.normal(0.0, 1.0, (2, particles, 9))
    k_old, k_new = rng.normal(0.0, 1.0, (2, 9))
    for s_old in (np.zeros(9), k_old[-1] - k_old):
        s_new = k_new[-1] - k_new
        u = np.asfortranarray(p_old + s_old)
        full = float(np.sqrt(np.max(mr.pairwise_mean((p_new + s_new - u) ** 2, axis=0))))
        assert _metered(u, p_new, s_old, s_new) == pytest.approx(full, rel=1e-14, abs=0.0)
        u = np.asfortranarray(p_old + s_old)
        assert _metered(u, p_old, s_old, s_old.copy()) == 0.0


def test_in_pass_move_matches_the_full_array_formula_on_a_picard_trace(monkeypatch):
    # the picard-saturating-cli config at seed 5: each recorded d_y against
    # the formula on the stored reflected iterates
    sc = _saturating(
        mr.affine_mix_generator(a_y=0.5, a_mean_z=0.25, const=3.0), steps=40, particles=20_000, seed=5
    )
    construct = mrbsde._construct
    frozen = [np.zeros((sc.particles, sc.steps + 1))]
    full = []

    def recording(*args):
        seg = construct(*args)
        y = args[5]  # the reflected y, written into the pair handed in
        full.append(float(np.sqrt(np.max(mr.pairwise_mean((y - frozen[0]) ** 2, axis=0)))))
        frozen[0] = y.copy()
        return seg

    monkeypatch.setattr(mrbsde, "_construct", recording)
    tr = mr.picard_solve(sc).trace
    assert tr.iterations == len(full) == 9 and tr.segment_count == 1
    assert_allclose(tr.y_distances, full, rtol=1e-14, atol=0.0)


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
    split = mr.picard_solve(_split_scenario())
    assert split.trace.segment_count > 1
    assert_f(split.y, split.z, split.inner)
    pen_sc = _scenario(
        mr.constant_generator(10.0), particles=2_000, steps=8,
        losses=mr.linear_band(-30.0, 30.0),
        obstacles=mr.LinearObstacles.constants(-2.0, 2.0),
    )
    pen = mr.solve_penalized(pen_sc, 8.0)
    assert_f(pen.y, pen.z)


def _saturating(gen, *, steps, particles, seed):
    return mr.Scenario(
        horizon=1.0,
        steps=steps,
        particles=particles,
        rng=mr.RngSpec(seed),
        terminal=lambda b: 1.5 * np.sin(b) + 0.5,
        generator=gen,
        losses=mr.saturating_band(-1.0, 2.0),
    )


@pytest.mark.parametrize("terminal", ["sin", "identity"])
@pytest.mark.parametrize("route", ["zero", "unreflected", "constant-driver"])
def test_solves_allocate_no_driver_matrix_or_zero_ensemble(route, terminal):
    # in (particles, nodes) arrays of 4000 x 41 doubles: an iteration holds
    # three, bm, one y and one z, which the new y and z overwrite, and the
    # returned solution is that y and z.  A terminal that returns its
    # argument (a view of bm) must add no array.
    array = 4000 * 41 * 8
    if route == "constant-driver":
        gen = mr.constant_generator(4.0)
    else:
        gen = mr.affine_mix_generator(a_y=0.5, a_mean_z=0.25, const=3.0)
    sc = _saturating(gen, steps=40, particles=4000, seed=5)
    if terminal == "identity":
        sc = dataclasses.replace(sc, terminal=lambda b: b)
    if route == "constant-driver":
        sol, peak = peak_bytes(lambda: mr.solve_constant_driver(sc))
    else:
        sol, peak = peak_bytes(lambda: mr.picard_solve(sc, init=route))
    assert sol.trace is None or sol.trace.segment_count == 1
    assert peak <= 4.0 * array, peak / array


@pytest.mark.parametrize("route", ["zero", "unreflected", "constant-driver"])
def test_a_returned_solution_retains_y_and_z_alone(route):
    # in (particles, nodes) arrays of 4000 x 41 doubles: the solution keeps
    # y and z; inner is derived from y on demand, with the same bits
    array = 4000 * 41 * 8
    if route == "constant-driver":
        sc = _saturating(mr.constant_generator(4.0), steps=40, particles=4000, seed=5)
        sol, retained = retained_bytes(lambda: mr.solve_constant_driver(sc))
    else:
        gen = mr.affine_mix_generator(a_y=0.5, a_mean_z=0.25, const=3.0)
        sc = _saturating(gen, steps=40, particles=4000, seed=5)
        sol, retained = retained_bytes(lambda: mr.picard_solve(sc, init=route))
    assert retained <= 2.1 * array, retained / array
    inner, kv = sol.inner.values, sol.K.values
    assert inner.flags.f_contiguous
    assert inner.tobytes() == (sol.y.values - (kv[-1] - kv)).tobytes()
    assert np.any(kv != 0.0)  # the band binds: the shift is exercised


@pytest.mark.parametrize("init", ["zero", "unreflected"])
def test_split_solve_holds_one_full_grid_pair(init):
    # 6000 x 17 arrays: bm and one full-grid y/z pair, allocated once for
    # every attempt; each segment solves into its columns of that pair, and
    # the assembler adds no full array
    sc = _split_scenario(6_000)
    sol, peak = peak_bytes(lambda: mr.picard_solve(sc, init=init))
    assert sol.trace.segment_count == (8 if init == "zero" else 4)
    assert peak <= 4.5 * (6_000 * 17 * 8), peak / (6_000 * 17 * 8)


@pytest.mark.parametrize("init", ["zero", "unreflected"])
def test_stitched_z_at_a_segment_boundary_is_the_later_segments(init):
    # node b's z belongs to the segment that starts at b; the earlier
    # segment's pass must leave it, not write its terminal placeholder,
    # z[:, b - 1], over it
    sol = mr.picard_solve(_split_scenario(), init=init)
    nodes = sol.z.grid.nodes
    starts = [int(np.searchsorted(nodes, seg[0])) for seg in sol.trace.segment_nodes]
    interior = [b for b in starts if b > 0]
    assert len(interior) == sol.trace.segment_count - 1 > 0
    for b in interior:
        assert not np.array_equal(sol.z.values[:, b], sol.z.values[:, b - 1]), b


def _frozen_case(case):
    """A 3000 x 21 Picard scenario whose frozen hook reads ``case``'s arguments."""
    terminal, losses, envelope = 0.5, mr.saturating_band(-1.0, 2.0), None
    if case.startswith("affine-mix"):
        a_y = 0.5 if case == "affine-mix-yz" else 0.0
        gen = mr.affine_mix_generator(a_y=a_y, a_z=0.5, a_mean_z=0.25, const=3.0)
    elif case == "aliasing":  # returns its y argument itself: a view of the frozen column
        gen, terminal = mr.Generator("lipschitz", lambda t, y, my, z, mz: y, lam=1.0), 1.5
    else:
        gen, terminal = mr.quadratic_z_generator(1.0), 2.8
        losses, envelope = mr.linear_band(1.0, 3.0), mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    return mr.Scenario(
        horizon=1.0, steps=20, particles=3000, rng=mr.RngSpec(11),
        terminal=lambda b: 1.5 * np.sin(b) + terminal, generator=gen,
        losses=losses, envelope=envelope,
    )


def _assert_same_bits(in_place, allocated):
    assert in_place.trace.iterations == allocated.trace.iterations >= 2
    for name in ("y", "z", "inner"):
        assert getattr(in_place, name).values.tobytes() == getattr(allocated, name).values.tobytes()
    assert in_place.K.values.tobytes() == allocated.K.values.tobytes()
    assert np.any(in_place.K.values != 0.0)  # the band binds: the reflection is exercised


@pytest.mark.parametrize("case", ["affine-mix-z", "affine-mix-yz", "quadratic-z"])
@pytest.mark.parametrize("init", ["zero", "unreflected"])
def test_z_written_over_the_frozen_z_gives_the_bits_of_a_fresh_z(monkeypatch, case, init):
    # the frozen hook reads v[:, k] at step k and the new z overwrites v in
    # place: a column written before its drift read it would move the bits.
    # The copy-after-pass run gives every pass a fresh z and copies it into
    # the given z once the pass is done, so the frozen z is never written
    # while the pass reads it.  (From the unreflected start, a driver of z
    # alone reproduces the frozen z exactly, so only the y-coupled case can
    # tell there.)
    sc = _frozen_case(case)
    in_place = mr.picard_solve(sc, init=init)
    backward_pass = bsde._backward_pass
    replaced = []

    def fresh_z(*args, z=None, **kwargs):
        replaced.append(z is not None)
        sol = backward_pass(*args, **kwargs)
        z[...] = sol.z.values
        return sol

    monkeypatch.setattr(mrbsde, "_backward_pass", fresh_z)
    allocated = mr.picard_solve(sc, init=init)
    assert sum(replaced) == in_place.trace.iterations + (init == "unreflected")
    _assert_same_bits(in_place, allocated)


@pytest.mark.parametrize("case", ["affine-mix-z", "affine-mix-yz", "quadratic-z", "aliasing"])
@pytest.mark.parametrize("init", ["zero", "unreflected"])
def test_y_written_over_the_frozen_y_gives_the_bits_of_a_fresh_y(monkeypatch, case, init):
    # the frozen hook and the move meter read u[:, k] at step k and the new
    # plain y overwrites u in place: a column written before both read it
    # would move the bits, the recorded moves included.  The copy-after-
    # pass run gives every pass a fresh y and copies it into the given y
    # once the pass is done, so the frozen y is never written while read.
    sc = _frozen_case(case)
    in_place = mr.picard_solve(sc, init=init)
    backward_pass = bsde._backward_pass
    replaced = []

    def fresh_y(*args, y=None, **kwargs):
        replaced.append(y is not None)
        sol = backward_pass(*args, **kwargs)
        y[...] = sol.y.values
        return sol

    monkeypatch.setattr(mrbsde, "_backward_pass", fresh_y)
    allocated = mr.picard_solve(sc, init=init)
    assert sum(replaced) == in_place.trace.iterations + (init == "unreflected")
    _assert_same_bits(in_place, allocated)
    assert in_place.trace.y_distances == allocated.trace.y_distances


def _count_plans(monkeypatch) -> list:
    """Record every regression plan built from an ensemble."""
    plans = []
    build = bsde.RegressionPlan.build.__func__

    def counting(cls, bm, cfg):
        plans.append(build(cls, bm, cfg))
        return plans[-1]

    monkeypatch.setattr(bsde.RegressionPlan, "build", classmethod(counting))
    return plans


def _assert_no_particle_axis(plan, particles):
    # per step: a scale (None when degenerate) and a (degree + 1)^2 Gram matrix
    width = plan.cfg.degree + 1
    assert all(s is None or isinstance(s, float) for s in plan.scales)
    assert all(g is None or g.shape == (width, width) for g in plan.grams)
    values = [x for v in vars(plan).values() for x in (v if isinstance(v, tuple) else (v,))]
    arrays = [x for x in values if isinstance(x, np.ndarray)]
    assert arrays and all(particles not in a.shape for a in arrays)


@pytest.mark.parametrize("init", ["zero", "unreflected"])
def test_picard_builds_one_regression_plan(monkeypatch, init):
    # every iteration, every split restart and the unreflected initial solve
    # reuse the one plan of the horizon's ensemble
    sc = _scenario(
        mr.affine_mix_generator(a_y=5.0), particles=6_000, steps=16, seed=41,
        losses=mr.linear_band(-60.0, 60.0),
    )
    plans = _count_plans(monkeypatch)
    tr = mr.picard_solve(sc, init=init).trace
    assert tr.segment_count > 1 and len(tr.attempts) > 1
    assert len(plans) == 1
    assert len(plans[0].scales) == sc.steps
    _assert_no_particle_axis(plans[0], sc.particles)


@pytest.mark.parametrize("route", ["solve_bsde", "constant-driver", "penalized"])
def test_other_solves_build_one_regression_plan_each(monkeypatch, route):
    sc = _scenario(
        mr.constant_generator(0.5), particles=3_000, steps=12,
        obstacles=mr.LinearObstacles.constants(-1.0, 2.0),
    )
    bm = sc.simulate()
    plans = _count_plans(monkeypatch)
    if route == "solve_bsde":
        mr.solve_bsde(sc.terminal_values(bm), sc.generator, bm)
    elif route == "constant-driver":
        mr.solve_constant_driver(sc)
    else:
        mr.solve_penalized(sc, 16.0)
    assert len(plans) == 1
    _assert_no_particle_axis(plans[0], sc.particles)


def test_construct_writes_the_reflected_y_over_the_plain_y(monkeypatch):
    # the reflected y is the plain pass's own array shifted in place by the
    # force still to come, K_T - K_t: no second (particles, nodes) array
    sc = _saturating(mr.constant_generator(4.0), steps=20, particles=4000, seed=3)
    bm = sc.simulate()
    xi = sc.terminal_values(bm)
    mr.require_feasible_terminal(sc.losses, sc.horizon, xi)
    plan = bsde.RegressionPlan.build(bm, sc.regression)
    passes = []

    def recording(*args, **kwargs):
        plain = bsde._backward_pass(*args, **kwargs)
        passes.append((plain.y.values, plain.y.values.copy()))
        return plain

    monkeypatch.setattr(mrbsde, "_backward_pass", recording)
    zero = np.broadcast_to(0.0, bm.values.shape)
    drift = bsde._frozen_drift(sc.generator, zero, zero, bm.grid)
    y, z = (np.empty(bm.values.shape, order="F") for _ in range(2))
    seg = mrbsde._construct(xi, bm, drift, sc, plan, y, z)
    ((pass_y, plain),) = passes
    assert np.shares_memory(pass_y, y)
    K = seg.bsp.K.values
    assert np.any(K != 0.0)  # the band binds: the shift is not zero
    assert y.tobytes() == (plain + (K[-1] - K)).tobytes()


@pytest.mark.parametrize("case", ["constant-at-zero", "affine-mix-frozen"])
def test_frozen_drift_hook_matches_the_driver_matrix_bitwise(case):
    # the backward loop reads the frozen generator one node at a time; the
    # public drift matrix of the same frozen pair must give the same bits
    def construct(drift):
        y, z = (np.empty(bm.values.shape, order="F") for _ in range(2))
        seg = mrbsde._construct(xi, bm, drift, sc, plan, y, z)
        return mrbsde._stitch([(0, sc.steps, seg.bsp, seg.s)], bm.grid, None, y, z)

    if case == "constant-at-zero":
        gen = mr.constant_generator(4.0)
    else:
        gen = mr.affine_mix_generator(a_y=0.5, a_mean_y=0.3, a_z=0.2, a_mean_z=0.25, const=1.0)
    sc = _saturating(gen, steps=20, particles=4000, seed=3)
    bm = sc.simulate()
    xi = sc.terminal_values(bm)
    mr.require_feasible_terminal(sc.losses, sc.horizon, xi)
    plan = bsde.RegressionPlan.build(bm, sc.regression)
    if case == "constant-at-zero":
        zero = mr.Ensemble(bm.grid, np.zeros_like(bm.values))
        hooked = mr.solve_constant_driver(sc)
        driver = mr.constant_driver_path(gen, zero, zero)
    else:
        frozen = mr.solve_bsde(xi, gen, bm)  # a non-zero pair, both laws read
        hooked = construct(bsde._frozen_drift(gen, frozen.y.values, frozen.z.values, bm.grid))
        driver = mr.constant_driver_path(gen, frozen.y, frozen.z)
    matrix = construct(lambda k, *_: driver[:, k])
    for name in ("y", "z", "inner"):
        assert getattr(hooked, name).values.tobytes() == getattr(matrix, name).values.tobytes()
    assert hooked.K.values.tobytes() == matrix.K.values.tobytes()
    assert np.any(hooked.K.values != 0.0)  # the band binds: the reflection is exercised


def test_non_finite_step_names_the_clock_time():
    # f is infinite before clock time 5.6; on a grid whose clock runs over
    # [5, 6] the failing step is named by the time the generator saw
    def f(t, y, my, z, mz):
        return np.full(np.shape(y), np.inf if t < 5.6 else 0.0)

    gen = mr.Generator("lipschitz", f, lam=0.0)
    sc = _scenario(gen, steps=4, particles=500)
    bm = sc.simulate()
    xi = sc.terminal_values(bm)
    bm = mr.Ensemble(mr.TimeGrid(bm.grid.nodes + 5.0), bm.values)
    with pytest.raises(NumericalFailureError, match=r"node 2 \(t = 5\.5\)"):
        mr.solve_bsde(xi, gen, bm)
    drift = bsde._frozen_drift(gen, bm.values, bm.values, bm.grid)
    plan = bsde.RegressionPlan.build(bm, sc.regression)
    y, z = (np.empty(bm.values.shape, order="F") for _ in range(2))
    with pytest.raises(NumericalFailureError, match=r"node 2 \(t = 5\.5\)"):
        mrbsde._construct(xi, bm, drift, sc, plan, y, z)


def test_band_edges_are_inverted_only_where_the_clamp_binds(monkeypatch):
    # The picard-saturating-cli benchmark config at seed 5.  Inverting both
    # edges at all 41 nodes on every iteration takes 4352 boundary
    # evaluations; asking for an edge only where the clamp binds at least
    # halves that, and the count repeats exactly.
    cfg = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": 40,
        "particles": 20_000,
        "terminal": {"kind": "bounded-sin", "scale": 1.5, "shift": 0.5},
        "generator": {"kind": "affine-mix", "a_y": 0.5, "a_mean_z": 0.25, "const": 3.0},
        "losses": {"kind": "saturating-band", "lower": -1.0, "upper": 2.0},
    }
    sc = cli.build_scenario(cfg, 5)
    calls = []

    def counted(real):
        def wrapper(self, node, x):
            calls.append(node)
            return real(self, node, x)

        return wrapper

    for name in ("lower", "upper"):
        monkeypatch.setattr(mr.BoundaryPair, name, counted(getattr(mr.BoundaryPair, name)))
    counts = []
    for _ in range(2):
        calls.clear()
        sol = mr.picard_solve(sc)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4352 // 2
    assert sol.trace.iterations == 9 and mr.audit_solution(sol, sc.losses).passed


def _saturation(x):
    return x * x / (2.0 * (1.0 + np.abs(x)))


@pytest.mark.parametrize(
    "amp, shift, drivers, band, seed",
    [
        # the picard-saturating-cli config: the upper edge binds for about a third of the horizon
        (1.5, 0.5, (0.5, 0.0, 0.25, 3.0), ("saturating", -1.0, 2.0), 17001),
        # a mean-field value term on a linear band: the lower edge binds
        (1.0, 0.2, (0.3, 0.6, 0.5, -3.0), ("linear", -1.0, 1.0), 5),
    ],
    ids=["saturating-cli", "linear-mean-y"],
)
def test_picard_mean_matches_the_closed_form_reduction(amp, shift, drivers, band, seed):
    kind, lo, hi = band
    if kind == "saturating":
        lp, c, C = mr.saturating_band(lo, hi), 0.5, 1.5
        L, R = (lambda x: x - _saturation(x) - hi), (lambda x: x + _saturation(x) - lo)
    else:
        lp, c, C = mr.linear_band(lo, hi), 1.0, 1.0
        L, R = (lambda x: x - hi), (lambda x: x - lo)
    a_y, a_mean_y, a_mean_z, const = drivers
    steps, horizon = 40, 1.0
    sc = mr.Scenario(
        horizon=horizon,
        steps=steps,
        particles=40_000,
        rng=mr.RngSpec(seed),
        terminal=lambda b: amp * np.sin(b) + shift,
        generator=mr.affine_mix_generator(a_y, a_mean_y, 0.0, a_mean_z, const),
        losses=lp,
    )
    sol = mr.picard_solve(sc)
    ref = sin_terminal_reflected_mean(sol.y.grid.nodes, amp, shift, drivers, L, R)
    assert sol.variation > 1.0  # the band binds, so the clamp scheme is tested
    # The Monte Carlo tolerance of the mean estimate, carried through the
    # scheme.  A clamped mean sits on an edge whose empirical loss mean is
    # within stat_tol(Y) C of the exact one, so the edge within (C/c)
    # stat_tol(Y); the terminal mean within stat_tol(Y_T); each E[Z] within
    # stat_tol(Z), entering with weight a_mean_z h per node.  The clamp does
    # not expand an error, and each step backward grows it by at most
    # 1 / (1 - (a_y + a_mean_y) h).
    h = horizon / steps
    growth = (1.0 - (a_y + a_mean_y) * h) ** -steps
    tol_y = max(stat_tol(sol.y.values[:, k]) for k in range(steps + 1))
    tol_z = max(stat_tol(sol.z.values[:, k]) for k in range(steps))
    bound = growth * ((C / c) * tol_y + abs(a_mean_z) * horizon * tol_z)
    mean = np.array([float(pairwise_mean(sol.y.values[:, k])) for k in range(steps + 1)])
    assert np.max(np.abs(mean - ref)) <= bound
