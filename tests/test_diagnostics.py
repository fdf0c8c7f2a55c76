"""Verification helpers: constraint meters, audits, and rate estimation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect import cli, constraints, mrbsde
from meanreflect.core import STAT_TOL_MULT
from meanreflect.mrbsde import PicardTrace


def _ensemble(values):
    values = np.asarray(values, dtype=float)
    grid = mr.build_grid(1.0, values.shape[1] - 1)
    return mr.Ensemble(grid, values)


def _trace(distances):
    d = tuple(float(v) for v in distances)
    zeros = tuple(0.0 for _ in d)
    ratios = tuple(b / a for a, b in zip(d, d[1:]) if a > 0.0)
    return PicardTrace(
        y_distances=d,
        k_distances=zeros,
        ratios=ratios,
        iterations=len(d),
        converged=True,
    )


# ---------------------------------------------------------------------------
# constraint meters
# ---------------------------------------------------------------------------


def test_mean_loss_paths_on_a_known_band():
    # particles symmetric around 0.5 at each node, band [-1, 2]
    y = _ensemble([[0.0, 1.0], [1.0, 0.0]])
    lp = mr.linear_band(-1.0, 2.0)
    e_l, e_r = mr.mean_loss_paths(y, lp)
    assert_array_equal(e_l, [-1.5, -1.5])
    assert_array_equal(e_r, [1.5, 1.5])


def _violations(y, lp):
    """Worst-node overshoot of each mean constraint, from the loss-mean paths."""
    e_l, e_r = mr.mean_loss_paths(y, lp)
    return float(np.max(np.maximum(e_l, 0.0))), float(np.max(np.maximum(-e_r, 0.0)))


def test_violation_meter_zero_inside_the_band():
    y = _ensemble([[0.0, 1.0], [1.0, 0.0]])
    v_l, v_r = _violations(y, mr.linear_band(-1.0, 2.0))
    assert v_l == 0.0 and v_r == 0.0


def test_violation_meter_detects_each_side():
    lp = mr.linear_band(-1.0, 2.0)
    high = _ensemble(np.full((4, 3), 5.0))
    v_l, v_r = _violations(high, lp)
    assert v_l == 3.0 and v_r == 0.0  # E[L] = 5 - 2
    low = _ensemble(np.full((4, 3), -7.0))
    v_l, v_r = _violations(low, lp)
    assert v_l == 0.0 and v_r == 6.0  # E[R] = -7 + 1


def test_violation_meter_honours_shifted_clock():
    # moving band L = y - 2t: violated for t < 0.5 when y = 1
    lp = mr.LossPair(
        L=lambda t, y: y - 2.0 * t,
        R=lambda t, y: y + 1.0,
        c=1.0,
        C=1.0,
        gap=1.0,
    )
    y = _ensemble(np.ones((2, 5)))
    v_l, _ = _violations(y, lp)
    assert v_l == 1.0  # worst node is t = 0
    # the same values on a grid whose clock runs over [1, 2]
    shifted = mr.Ensemble(mr.TimeGrid(y.grid.nodes + 1.0), y.values)
    v_l_shifted, _ = _violations(shifted, lp)
    assert v_l_shifted == 0.0


def test_stat_tol_matches_hand_value():
    # std of {0, 2} is 1, four-sigma over sqrt(2)
    assert STAT_TOL_MULT == 4.0
    assert_allclose(mr.stat_tol(np.array([0.0, 2.0])), 4.0 / math.sqrt(2.0), rtol=1e-15)


def test_solution_stat_tol_takes_the_worst_node():
    # unit-slope losses transmit the cross-section spread unchanged, so the
    # tolerance is that of the widest node
    vals = np.array([[0.0, 0.0], [2.0, 6.0]])
    tol = mr.solution_stat_tol(_ensemble(vals), mr.linear_band(-1.0, 2.0))
    assert_allclose(tol, mr.stat_tol(vals[:, 1]), rtol=1e-15)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def _counting(lp):
    """``lp`` with each loss counting its calls in the returned dict."""
    calls = {"L": 0, "R": 0}

    def counted(name, f):
        def g(t, x):
            calls[name] += 1
            return f(t, x)

        return g

    return dataclasses.replace(lp, L=counted("L", lp.L), R=counted("R", lp.R)), calls


def test_the_audit_and_the_run_result_meter_each_node_once_per_pass():
    sc = mr.Scenario(
        horizon=1.0,
        steps=40,
        particles=500,
        rng=mr.RngSpec(5),
        terminal=lambda b: b,
        generator=mr.constant_generator(4.0),
        losses=mr.saturating_band(-1.0, 2.0),
    )
    sol = mr.solve_constant_driver(sc)
    lp, calls = _counting(sc.losses)
    assert mr.audit_solution(sol, lp) == mr.audit_solution(sol, sc.losses)
    assert calls == {"L": 41, "R": 41}  # one meter pass over the 41 nodes
    counted = dataclasses.replace(sc, losses=lp)  # the entry check calls the losses too
    calls.update(L=0, R=0)
    _, diag = cli._run_result({}, counted, sol, 5, 0.0)
    assert calls == {"L": 41, "R": 41}  # one pass feeds the loss-mean columns and the audit
    assert diag["audit"] == dataclasses.asdict(mr.audit_solution(sol, sc.losses))


def test_audit_accepts_a_clean_clamp_and_rejects_a_corrupted_one():
    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=8_000,
        rng=mr.RngSpec(13),
        terminal=lambda b: b,
        generator=mr.constant_generator(4.0),
        losses=mr.linear_band(-1.0, 2.0),
    )
    sol = mr.solve_constant_driver(sc)
    audit = mr.audit_solution(sol, sc.losses)
    assert audit.passed
    # the reflected mean is exact: the tolerance is the root tolerance and
    # rounding, far below the Monte Carlo one
    assert 1e-12 <= audit.violation_tol <= 1e-11 < mr.solution_stat_tol(sol.y, sc.losses)
    assert audit.flat_residual_up <= audit.flat_tol

    # pushing the particles above the band must trip the constraint side
    tampered = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, sol.y.values + 1.0))
    bad = mr.audit_solution(tampered, sc.losses)
    assert not bad.passed
    assert bad.violation_lower > bad.violation_tol
    # one particle that is not finite inside the horizon fails it too
    for value in (np.inf, -np.inf, np.nan):
        broken = sol.y.values.copy()
        broken[5, 3] = value
        broken = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, broken))
        with np.errstate(invalid="ignore"):
            assert not mr.audit_solution(broken, sc.losses).passed


@pytest.mark.parametrize("left_out", [1.0, 0.1])
def test_the_audit_fails_a_solution_missing_part_of_its_force(monkeypatch, left_out):
    # the assembled Y keeps a share of K_T - K_t out: 10% leaves the mean
    # 0.038 above the band, inside the Monte Carlo tolerance (0.056) and
    # far outside the exact one
    stitch = mrbsde._stitch

    def short_of_force(*args):
        sol = stitch(*args)
        kv = sol.K.values
        y = sol.y.values - left_out * (kv[-1] - kv)
        return dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, y))

    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=5_000,
        rng=mr.RngSpec(7),
        terminal=lambda b: 2.8 + 1.5 * np.sin(b),
        generator=mr.quadratic_z_generator(1.0),
        losses=mr.linear_band(1.0, 3.0),
        envelope=mr.LinearEnvelope.constants(1.0, 3.0, 1.0),
    )
    assert mr.audit_solution(mr.picard_solve(sc), sc.losses).passed
    monkeypatch.setattr(mrbsde, "_stitch", short_of_force)
    sol = mr.picard_solve(sc)
    audit = mr.audit_solution(sol, sc.losses)
    assert audit.violation_lower > 0.3 * left_out
    assert not audit.passed
    if left_out < 1.0:  # what a statistical check lets through
        assert audit.violation_lower < mr.solution_stat_tol(sol.y, sc.losses)


def test_the_audit_allows_the_admitted_terminal_overshoot_and_no_more():
    # xi's mean sits 1e-3 above the band, inside the terminal check's Monte
    # Carlo tolerance: the solver absorbs it as an initial force, which
    # shifts every mean by as much, so the audit allows it at every node
    lp = mr.linear_band(-1.0, 2.0)
    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=5_000,
        rng=mr.RngSpec(3),
        terminal=lambda b: b - np.mean(b) + 2.001,
        generator=mr.constant_generator(4.0),
        losses=lp,
    )
    sol = mr.solve_constant_driver(sc)
    e_l, _ = mr.mean_loss_paths(sol.y, lp)
    assert_allclose(e_l[-1], 1e-3, rtol=1e-9)
    assert np.count_nonzero(e_l > 1e-3 - 1e-9) > 1  # the shift reaches the binding nodes
    audit = mr.audit_solution(sol, lp)
    assert audit.passed and audit.violation_lower <= audit.violation_tol < 1.1e-3
    # the terminal overshoot itself must stay within the terminal check's tolerance
    over = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, sol.y.values + 0.5))
    assert not mr.audit_solution(over, lp).passed


def _overshot_terminal(lp, target):
    # xi = B_T - mean(B_T) + m, with m the root of the empirical E[L(xi)] = target
    from scipy.optimize import brentq

    def terminal(b):
        offsets = b - np.mean(b)
        m = brentq(lambda m: np.mean(lp.L(1.0, offsets + m)) - target, -10.0, 10.0, xtol=1e-15)
        return offsets + m

    return terminal


@pytest.mark.parametrize(
    "band, target", [("linear", 1e-3), ("saturating", 4e-3)], ids=["linear", "saturating"]
)
def test_the_audit_names_the_terminal_overshoot_and_its_tolerance(band, target, caplog):
    lp = (mr.linear_band if band == "linear" else mr.saturating_band)(-1.0, 2.0)
    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=5_000,
        rng=mr.RngSpec(3),
        terminal=_overshot_terminal(lp, target),
        generator=mr.constant_generator(4.0),
        losses=lp,
    )
    sol = mr.solve_constant_driver(sc)
    with caplog.at_level("WARNING", logger="meanreflect.diagnostics"):
        audit = mr.audit_solution(sol, lp)
    # read from the audit's own node-T meter: the overshoot of the data, and
    # the node-T Monte Carlo tolerance plus the root tolerance that admitted it
    e_l, e_r, tol_t, _ = constraints._loss_stats(lp, 1.0, sol.y.values[:, -1])
    assert audit.terminal_overshoot == max(e_l, -e_r, 0.0)
    assert_allclose(audit.terminal_overshoot, target, rtol=1e-6)
    assert audit.terminal_tol == tol_t + constraints.ROOT_TOL_DEFAULT
    assert audit.terminal_overshoot <= audit.terminal_tol and audit.passed
    (record,) = caplog.records
    assert record.levelname == "WARNING" and f"{audit.terminal_overshoot:.3e}" in record.message
    # the run's diagnostics carry both fields
    _, diag = cli._run_result({}, sc, sol, 5, 0.0)
    assert diag["audit"]["terminal_overshoot"] == audit.terminal_overshoot
    assert diag["audit"]["terminal_tol"] == audit.terminal_tol


def test_an_admissible_terminal_reads_no_overshoot_and_logs_nothing(caplog):
    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=5_000,
        rng=mr.RngSpec(3),
        terminal=lambda b: b,
        generator=mr.constant_generator(4.0),
        losses=mr.saturating_band(-1.0, 2.0),
    )
    with caplog.at_level("WARNING", logger="meanreflect.diagnostics"):
        audit = mr.audit_solution(mr.solve_constant_driver(sc), sc.losses)
    assert audit.passed and audit.terminal_overshoot == 0.0 and audit.terminal_tol > 0.0
    assert not caplog.records


def test_representation_gap_measures_tampering():
    sc = mr.Scenario(
        horizon=1.0,
        steps=10,
        particles=2_000,
        rng=mr.RngSpec(17),
        terminal=lambda b: b,
        generator=mr.constant_generator(4.0),
        losses=mr.linear_band(-1.0, 2.0),
    )
    sol = mr.solve_constant_driver(sc)
    assert mr.representation_gap(sol) <= 1e-12
    # inner is derived from y, so the gap cannot see a tampered y; the exact
    # audit fails the same tamper
    tampered = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, sol.y.values + 0.25))
    assert mr.audit_solution(sol, sc.losses).passed
    audit = mr.audit_solution(tampered, sc.losses)
    assert not audit.passed
    assert_allclose(audit.violation_lower, 0.25, rtol=1e-12)
    # node by node, the gap is the full-array formula's value; a NaN carries through
    noise = np.random.default_rng(2).normal(0.0, 1e-3, sol.y.values.shape)
    tampered = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, sol.y.values + noise))
    shift = sol.K.values[-1] - sol.K.values
    full = np.max(np.abs(tampered.y.values - (tampered.inner.values + shift[None, :])))
    assert mr.representation_gap(tampered) == float(full)
    broken = tampered.y.values.copy()
    broken[5, 3] = np.nan
    broken = dataclasses.replace(sol, y=mr.Ensemble(sol.y.grid, broken))
    assert math.isnan(mr.representation_gap(broken))


# ---------------------------------------------------------------------------
# contraction estimation
# ---------------------------------------------------------------------------


def test_contraction_fit_recovers_an_exact_geometric_decay():
    est = mr.contraction_estimate(_trace([0.5**m for m in range(1, 6)]))
    assert est.contracting
    assert_allclose(est.fitted_ratio, 0.5, rtol=1e-12)
    assert est.fit_residual <= 1e-12
    assert_allclose(est.ratios, 0.5, rtol=1e-12)


def test_contraction_fit_flags_divergence():
    est = mr.contraction_estimate(_trace([2.0**m for m in range(1, 6)]))
    assert not est.contracting
    assert_allclose(est.fitted_ratio, 2.0, rtol=1e-12)


def test_contraction_fit_handles_instant_collapse():
    est = mr.contraction_estimate(_trace([1e-3, 0.0, 0.0]))
    assert est.contracting and est.fitted_ratio == 0.0 and est.fit_residual == 0.0


def test_contraction_fit_needs_three_iterations():
    with pytest.raises(ValueError):
        mr.contraction_estimate(_trace([0.5, 0.25]))


def test_contraction_fit_on_a_real_solver_trace():
    sc = mr.Scenario(
        horizon=0.1,
        steps=10,
        particles=4_000,
        rng=mr.RngSpec(21),
        terminal=lambda b: b,
        generator=mr.affine_mix_generator(a_y=1.0),
        losses=mr.linear_band(-1.0, 1.0),
    )
    est = mr.contraction_estimate(mr.picard_solve(sc).trace)
    assert est.contracting and est.fitted_ratio < 0.2


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_rate_fit_exact_power_laws():
    xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    slope, intercept, resid = mr.rate_fit(xs, 3.0 / xs)
    assert_allclose(slope, -1.0, rtol=1e-12)
    assert_allclose(intercept, math.log(3.0), rtol=1e-12)
    assert resid <= 1e-12
    slope, _, _ = mr.rate_fit(xs, 2.0 / np.sqrt(xs))
    assert_allclose(slope, -0.5, rtol=1e-12)


def test_rate_fit_tolerates_mild_noise():
    rng = np.random.default_rng(3)
    xs = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0])
    errs = 5.0 / xs * np.exp(rng.normal(0.0, 0.02, xs.size))
    slope, _, resid = mr.rate_fit(xs, errs)
    assert abs(slope + 1.0) <= 0.05
    assert resid <= 0.05


def test_rate_fit_input_validation():
    with pytest.raises(ValueError):
        mr.rate_fit([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mr.rate_fit([1.0], [1.0])
    with pytest.raises(ValueError):
        mr.rate_fit([1.0, -2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        mr.rate_fit([1.0, 2.0], [1.0, 0.0])
