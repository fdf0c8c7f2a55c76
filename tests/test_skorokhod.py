"""Forward/backward reflection maps and the executable path estimates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect.errors import DegenerateConstraintsError, InfeasibleTerminalError
from meanreflect import skorokhod
from meanreflect.skorokhod import _boundary_discrepancy, flatness_residuals_raw
from oracles import double_barrier_batch

_XS = np.linspace(-6.0, 6.0, 25)


def _band(lo: float, hi: float, grid: mr.TimeGrid) -> mr.BoundaryPair:
    return mr.boundary_from_losses(grid, mr.linear_band(lo, hi))


def _ramp(grid: mr.TimeGrid, rate: float, start: float = 0.0) -> mr.SamplePath:
    return mr.SamplePath(grid, start + rate * grid.nodes)


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def test_flat_interior_path_needs_no_force():
    g = mr.build_grid(1.0, 8)
    sol = mr.solve_sp(_ramp(g, 0.0), _band(-1.0, 1.0, g))
    assert_array_equal(sol.x.values, 0.0)
    assert_array_equal(sol.K.values, 0.0)
    assert sol.flat_residual_up == 0.0 and sol.flat_residual_down == 0.0


def test_up_ramp_clamps_at_upper_edge():
    # s = 2t against [-1, 1]: x = min(2t, 1), all force is push_down with
    # (2t-1)^+ accumulated, and K = -push_down
    g = mr.build_grid(1.0, 8)
    sol = mr.solve_sp(_ramp(g, 2.0), _band(-1.0, 1.0, g))
    t = g.nodes
    assert_allclose(sol.x.values, np.minimum(2.0 * t, 1.0), rtol=0, atol=1e-15)
    assert_allclose(sol.push_down.values, np.maximum(2.0 * t - 1.0, 0.0), rtol=0, atol=1e-15)
    assert_array_equal(sol.push_up.values, 0.0)
    assert_allclose(sol.K.values, -np.maximum(2.0 * t - 1.0, 0.0), rtol=0, atol=1e-15)


def test_down_ramp_mirrors_through_push_up():
    g = mr.build_grid(1.0, 8)
    sol = mr.solve_sp(_ramp(g, -2.0), _band(-1.0, 1.0, g))
    t = g.nodes
    assert_allclose(sol.x.values, np.maximum(-2.0 * t, -1.0), rtol=0, atol=1e-15)
    assert_allclose(sol.push_up.values, np.maximum(2.0 * t - 1.0, 0.0), rtol=0, atol=1e-15)
    assert_array_equal(sol.push_down.values, 0.0)


def test_start_above_band_charges_node_zero():
    g = mr.build_grid(1.0, 4)
    sol = mr.solve_sp(_ramp(g, 0.0, start=3.0), _band(-1.0, 1.0, g))
    assert sol.x.values[0] == 1.0
    assert sol.push_down.values[0] == 2.0
    assert_array_equal(sol.x.values, 1.0)
    assert_array_equal(sol.K.values, -2.0)


def test_solution_decomposition_invariants():
    g = mr.build_grid(1.0, 32)
    rng = np.random.default_rng(3)
    s = mr.SamplePath(g, np.concatenate([[0.5], 0.5 + np.cumsum(rng.normal(0, 0.4, 32))]))
    sol = mr.solve_sp(s, _band(-1.0, 1.0, g))
    assert_array_equal(sol.K.values, sol.push_up.values - sol.push_down.values)
    assert np.all(np.diff(sol.push_up.values) >= 0.0)
    assert np.all(np.diff(sol.push_down.values) >= 0.0)
    assert np.all(sol.x.values >= -1.0 - 1e-12) and np.all(sol.x.values <= 1.0 + 1e-12)


def test_jordan_parts_never_step_together():
    g = mr.build_grid(1.0, 64)
    rng = np.random.default_rng(17)
    for _ in range(5):
        s = mr.SamplePath(g, np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.6, 64))]))
        sol = mr.solve_sp(s, _band(-0.5, 0.5, g))
        up = np.diff(sol.push_up.values) > 1e-15
        dn = np.diff(sol.push_down.values) > 1e-15
        assert not np.any(up & dn)


def test_idempotence_reflected_path_stays_put():
    g = mr.build_grid(1.0, 32)
    rng = np.random.default_rng(11)
    s = mr.SamplePath(g, np.concatenate([[2.0], 2.0 + np.cumsum(rng.normal(0, 0.5, 32))]))
    bp = _band(-1.0, 1.0, g)
    first = mr.solve_sp(s, bp)
    again = mr.solve_sp(first.x, bp)
    assert_array_equal(again.x.values, first.x.values)
    assert_array_equal(again.K.values, 0.0)


def test_degenerate_band_rejected():
    g = mr.build_grid(1.0, 4)
    with pytest.raises(DegenerateConstraintsError):
        mr.solve_sp(_ramp(g, 1.0), _band(0.0, 1e-10, g))


def test_mismatched_grids_rejected():
    bp = _band(-1.0, 1.0, mr.build_grid(1.0, 8))
    for solve in (mr.solve_sp, lambda s, bp: mr.solve_bsp(s, 0.0, bp)):
        with pytest.raises(ValueError):
            solve(_ramp(mr.build_grid(1.0, 4), 1.0), bp)
        # same node count on a longer horizon: the nodes differ
        with pytest.raises(ValueError):
            solve(_ramp(mr.build_grid(2.0, 8), 1.0), bp)
        # an equal grid need not be the same object
        solve(_ramp(mr.build_grid(1.0, 8), 1.0), bp)


def test_forward_map_matches_closed_form_oracle():
    rng = np.random.default_rng(2024)
    g = mr.build_grid(1.0, 128)
    for _ in range(30):
        start = rng.uniform(-2.0, 2.0)
        walk = start + np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.3, 128))])
        lo = rng.uniform(-2.0, -0.2)
        hi = rng.uniform(0.2, 2.0)
        sol = mr.solve_sp(mr.SamplePath(g, walk), _band(lo, hi, g))
        x_ref, k_ref = double_barrier_batch(walk[None, :], lo, hi)
        assert np.max(np.abs(sol.x.values - x_ref[0])) <= 1e-10
        assert np.max(np.abs(sol.K.values - k_ref[0])) <= 1e-10


def test_halving_the_step_moves_the_solution_by_order_dt():
    # moving band + off-grid extrema so refinement genuinely changes node
    # placement; observed max of M * diff is ~0.18, asserted with margin
    lp = mr.LossPair(
        L=lambda t, x: np.asarray(x, float) - (1.0 + 0.5 * np.sin(2 * np.pi * t + 0.3)),
        R=lambda t, x: np.asarray(x, float) + (1.0 + 0.4 * np.cos(2 * np.pi * t)),
        c=1.0,
        C=1.0,
        gap=1.0,
    )
    sols = {}
    for m in (32, 64, 128, 256, 512):
        g = mr.build_grid(1.0, m)
        s = mr.SamplePath(g, 2.0 * np.sin(2 * np.pi * g.nodes + 0.7))
        sols[m] = mr.solve_sp(s, mr.boundary_from_losses(g, lp))
    for m in (32, 64, 128, 256):
        dx = np.max(np.abs(sols[m].x.values - sols[2 * m].x.values[::2]))
        dk = np.max(np.abs(sols[m].K.values - sols[2 * m].K.values[::2]))
        assert m * dx <= 1.0
        assert m * dk <= 1.0


# ---------------------------------------------------------------------------
# backward map
# ---------------------------------------------------------------------------


def test_backward_flat_interior():
    g = mr.build_grid(1.0, 8)
    sol = mr.solve_bsp(_ramp(g, 0.0), 0.0, _band(-1.0, 1.0, g))
    assert_array_equal(sol.x.values, 0.0)
    assert_array_equal(sol.K.values, 0.0)
    assert sol.a == 0.0


def test_backward_ramp_clamp():
    # s = 4t, anchor 0, band [-1, 2]: working back from the anchor the
    # compensator must absorb the drift above the upper edge, giving
    # K_t = -min(4t, 2) and x_t = min(2, 4 - 4t)
    g = mr.build_grid(1.0, 8)
    sol = mr.solve_bsp(_ramp(g, 4.0), 0.0, _band(-1.0, 2.0, g))
    t = g.nodes
    assert_allclose(sol.K.values, -np.minimum(4.0 * t, 2.0), rtol=0, atol=1e-12)
    assert_allclose(sol.x.values, np.minimum(2.0, 4.0 - 4.0 * t), rtol=0, atol=1e-12)
    assert_array_equal(sol.push_up.values, 0.0)


def test_backward_identity_reconstructs_anchor():
    rng = np.random.default_rng(8)
    g = mr.build_grid(1.0, 64)
    for _ in range(10):
        s = mr.SamplePath(g, np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.3, 64))]))
        a = rng.uniform(-0.8, 0.8)
        sol = mr.solve_bsp(s, a, _band(-1.0, 1.0, g))
        sv, kv = s.values, sol.K.values
        recon = a + sv[-1] - sv + kv[-1] - kv
        assert np.max(np.abs(sol.x.values - recon)) <= 1e-12
        assert abs(sol.x.values[-1] - a) <= 1e-12


def _round_trip_gaps(s: mr.SamplePath, a: float, bp: mr.BoundaryPair) -> tuple[float, float]:
    """sup-gaps in K and x between solve_bsp and its definition.

    The definition reflects the reversed input forward against the
    index-flipped pair, then maps the force back.  Only the offsets are
    flipped, so the losses must not depend on the time.
    """
    assert bp.losses.time_invariant
    sol = mr.solve_bsp(s, a, bp)
    assert sol.variation > 0.0
    g = s.grid
    offsets = None if bp.offsets is None else bp.offsets[::-1]
    reversed_bp = mr.BoundaryPair(g, bp.losses, offsets)
    sv = s.values
    fwd = mr.solve_sp(mr.SamplePath(g, a + sv[-1] - sv[::-1]), reversed_bp)
    k_back = fwd.K.values[-1] - fwd.K.values[::-1]
    return (
        float(np.max(np.abs(sol.K.values - k_back))),
        float(np.max(np.abs(sol.x.values - fwd.x.values[::-1]))),
    )


def _walk(grid: mr.TimeGrid, rng: np.random.Generator) -> mr.SamplePath:
    steps = rng.normal(0, 0.4, grid.n_nodes - 1)
    return mr.SamplePath(grid, np.concatenate([[0.0], np.cumsum(steps)]))


def test_backward_is_reversed_forward():
    # matches the definitional round trip to machine precision
    g = mr.build_grid(1.0, 32)
    gaps = _round_trip_gaps(_walk(g, np.random.default_rng(5)), 0.3, _band(-1.2, 0.9, g))
    assert max(gaps) <= 1e-15


def test_backward_is_reversed_forward_on_a_grid_that_starts_late():
    # a segment's grid keeps its own clock; it mirrors onto [0.5, 1.0]
    g = mr.TimeGrid(1.0, np.linspace(0.5, 1.0, 33))
    gaps = _round_trip_gaps(_walk(g, np.random.default_rng(5)), 0.3, _band(-1.2, 0.9, g))
    assert max(gaps) <= 1e-15


def test_backward_is_reversed_forward_on_an_averaged_pair():
    # Offsets spreading like a Brownian cross-section move the edges in t.
    # The two sides' band edges come from root-hint chains run in opposite
    # directions, so they agree to root precision, not to the last bit.
    rng = np.random.default_rng(5)
    g = mr.build_grid(1.0, 32)
    s = _walk(g, rng)
    spread = rng.normal(0.0, 1.0, (64, g.n_nodes)) * np.sqrt(g.nodes)
    bp = mr.make_mean_boundary(mr.Ensemble(g, spread), mr.saturating_band(-0.5, 0.5))
    assert max(_round_trip_gaps(s, 0.0, bp)) <= 1e-11


def test_backward_rejects_infeasible_anchor():
    g = mr.build_grid(1.0, 8)
    with pytest.raises(InfeasibleTerminalError):
        mr.solve_bsp(_ramp(g, 0.0), 5.0, _band(-1.0, 1.0, g))
    # NaN fails every comparison, so a NaN anchor must not pass the check
    with pytest.raises(InfeasibleTerminalError):
        mr.solve_bsp(_ramp(g, 0.0), float("nan"), _band(-1.0, 1.0, g))


# ---------------------------------------------------------------------------
# variation and flatness
# ---------------------------------------------------------------------------


def test_total_variation_examples():
    g = mr.build_grid(1.0, 8)
    assert mr.total_variation(mr.SamplePath(g, np.zeros(9))) == 0.0
    ramp_k = mr.SamplePath(g, -np.maximum(2.0 * g.nodes - 1.0, 0.0))
    assert_allclose(mr.total_variation(ramp_k), 1.0, rtol=0, atol=1e-15)


def test_tv_bound_on_the_ramp():
    # constant band [-1, 1] against s = 2t: both root paths move by exactly
    # 2, so the bound is 4 against an accumulated force of 1
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 2.0)
    bp = _band(-1.0, 1.0, g)
    rep = mr.check_tv_bound(mr.solve_sp(s, bp), s, bp=bp)
    assert rep.passed
    assert_allclose(rep.tv, 1.0, rtol=0, atol=1e-12)
    assert_allclose([rep.var_phi, rep.var_psi], [2.0, 2.0], rtol=0, atol=1e-12)
    assert rep.slack >= 2.9


def test_tv_bound_needs_one_grid():
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    sol = mr.solve_sp(s, _band(-1.0, 1.0, g))
    # a bp on another horizon used to pass from its own edges, a coarser one
    # to fail with numpy's broadcast error
    for other in (mr.build_grid(2.0, 16), mr.build_grid(1.0, 8)):
        with pytest.raises(ValueError, match="share the grid"):
            mr.check_tv_bound(sol, s, bp=_band(-1.0, 1.0, other))
        with pytest.raises(ValueError, match="share the grid"):
            mr.check_tv_bound(sol, _ramp(other, 2.0), bp=_band(-1.0, 1.0, g))
    # an equal grid need not be the same object
    assert mr.check_tv_bound(sol, s, bp=_band(-1.0, 1.0, mr.build_grid(1.0, 16))).passed


def test_flatness_zero_without_force():
    g = mr.build_grid(1.0, 8)
    bp = _band(-1.0, 1.0, g)
    sol = mr.solve_sp(_ramp(g, 0.0), bp)
    assert mr.flatness_residuals(sol, bp) == (0.0, 0.0)


def test_flatness_small_on_the_ramp():
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 2.0)
    bp = _band(-1.0, 1.0, g)
    up, down = mr.flatness_residuals(mr.solve_sp(s, bp), bp)
    assert up <= 1e-12 and down <= 1e-12


def test_flatness_detects_fabricated_force():
    # add push_down force while the path sits strictly inside the band:
    # the residual must light up
    g = mr.build_grid(1.0, 8)
    bp = _band(-1.0, 1.0, g)
    sol = mr.solve_sp(_ramp(g, 0.0), bp)
    fake = dataclasses.replace(
        sol,
        push_down=mr.SamplePath(g, np.linspace(0.0, 0.5, g.n_nodes)),
        K=mr.SamplePath(g, -np.linspace(0.0, 0.5, g.n_nodes)),
    )
    up, down = mr.flatness_residuals(fake, bp)
    assert down > 0.1
    assert up == 0.0


def _flatness_loop(x, push_up, push_down, bp, reverse):
    # reference: one scalar boundary call per push increment, summed left to right
    nodes = list(range(len(x)))[::-1] if reverse else list(range(len(x)))
    d_up, d_dn = np.diff(push_up, prepend=0.0), np.diff(push_down, prepend=0.0)
    up = dn = 0.0
    for k, j in enumerate(nodes):
        if d_up[k] > 0.0:
            up += max(bp.upper(j, float(x[j])), 0.0) * float(d_up[k])
        if d_dn[k] > 0.0:
            dn += max(-bp.lower(j, float(x[j])), 0.0) * float(d_dn[k])
    return up, dn


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("kind", ["linear", "saturating", "averaged"])
def test_flatness_matches_the_per_increment_loop(kind, reverse):
    rng = np.random.default_rng(17)
    g = mr.build_grid(1.0, 24)
    lp = mr.linear_band(-1.0, 1.0) if kind == "linear" else mr.saturating_band(-1.0, 1.0)
    off = rng.normal(0.0, 0.7, (g.n_nodes, 9)) if kind == "averaged" else None
    bp = mr.BoundaryPair(g, lp, off)
    # fabricated force: random increments, some zero, on a path that sits
    # exactly on the upper edge at some down-push, where -l is -0.0
    x = rng.normal(0.0, 1.5, g.n_nodes)
    steps = rng.uniform(0.0, 0.2, (2, g.n_nodes))
    push_up, push_down = np.cumsum(np.where(steps < 0.1, 0.0, steps), axis=1)
    pos = int(np.flatnonzero(np.diff(push_down, prepend=0.0) > 0.0)[0])
    on_edge = g.n_nodes - 1 - pos if reverse else pos
    x[on_edge] = 1.0
    if kind == "linear":
        assert str(max(-bp.lower(on_edge, 1.0), 0.0)) == "-0.0"
    got = flatness_residuals_raw(x, push_up, push_down, bp, reverse=reverse)
    ref = _flatness_loop(x, push_up, push_down, bp, reverse)
    assert [v.hex() for v in got] == [v.hex() for v in ref]
    assert min(got) > 0.0


# ---------------------------------------------------------------------------
# continuity and comparison estimates
# ---------------------------------------------------------------------------


def test_continuity_identical_inputs_is_tight():
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    bp = _band(-1.0, 1.0, g)
    sol = mr.solve_sp(s, bp)
    rep = mr.check_continuity_bound(sol, sol, s, s, bp, bp, _XS)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.sup_ds == 0.0 and rep.boundary_gap == 0.0


def test_continuity_shifted_path():
    g = mr.build_grid(1.0, 16)
    s1 = _ramp(g, 2.0)
    s2 = mr.SamplePath(g, s1.values + 0.25)
    bp = _band(-1.0, 1.0, g)
    sol1, sol2 = mr.solve_sp(s1, bp), mr.solve_sp(s2, bp)
    rep = mr.check_continuity_bound(sol1, sol2, s1, s2, bp, bp, _XS)
    assert rep.passed
    # with C = c = 1 and identical boundaries the estimate collapses to
    # sup|K1 - K2| <= sup|s1 - s2|
    assert rep.lhs <= 0.25 + 1e-12


def test_continuity_shifted_boundaries():
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    eps = 0.1
    bp1 = _band(-1.0, 1.0, g)
    bp2 = _band(-1.0 - eps, 1.0 + eps, g)
    sol1, sol2 = mr.solve_sp(s, bp1), mr.solve_sp(s, bp2)
    rep = mr.check_continuity_bound(sol1, sol2, s, s, bp1, bp2, _XS)
    assert rep.passed
    assert rep.lhs <= eps + 1e-12  # forward constant is 1/c = 1
    assert rep.boundary_gap >= eps - 1e-12


def test_boundary_discrepancy_matches_the_pointwise_loop():
    # reference: a running Python max over nodes and samples, in which a NaN
    # gap never wins a comparison and so is skipped
    rng = np.random.default_rng(3)
    g = mr.build_grid(1.0, 5)
    off1, off2 = rng.normal(0.0, 1.0, (2, g.n_nodes, 33))
    bp1 = mr.BoundaryPair(g, mr.saturating_band(-1.0, 2.0), off1)
    bp2 = mr.BoundaryPair(g, mr.saturating_band(-1.2, 2.1), off2)
    xs = np.array([-3.0, np.nan, 0.5, 4.0])
    ref = [0.0, 0.0]
    for k in range(g.n_nodes):
        for x in xs:
            ref[0] = max(ref[0], abs(bp1.lower(k, x) - bp2.lower(k, x)))
            ref[1] = max(ref[1], abs(bp1.upper(k, x) - bp2.upper(k, x)))
    assert _boundary_discrepancy(bp1, bp2, xs) == tuple(ref)
    assert min(ref) > 0.0


def test_continuity_needs_one_grid():
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    bp = _band(-1.0, 1.0, g)
    sol = mr.solve_sp(s, bp)
    for steps in (8, 32):
        # a finer bp2 used to be compared on bp1's nodes only, a coarser one
        # to fail with an IndexError
        other = mr.build_grid(1.0, steps)
        bp_o, s_o = _band(-1.0, 1.0, other), _ramp(other, 2.0)
        sol_o = mr.solve_sp(s_o, bp_o)
        for args in (
            (sol, sol, s, s, bp, bp_o),
            (sol, sol, s, s_o, bp, bp),
            (sol, sol_o, s, s, bp, bp),
        ):
            with pytest.raises(ValueError, match="share the grid"):
                mr.check_continuity_bound(*args, _XS)
    # an equal grid need not be the same object
    mr.check_continuity_bound(sol, sol, s, s, bp, _band(-1.0, 1.0, mr.build_grid(1.0, 16)), _XS)


def _counted(lp: mr.LossPair) -> tuple[mr.LossPair, dict[str, int]]:
    calls = {"L": 0, "R": 0}

    def counting(name, f):
        def g(t, x):
            calls[name] += 1
            return f(t, x)

        return g

    return dataclasses.replace(lp, L=counting("L", lp.L), R=counting("R", lp.R)), calls


@pytest.mark.parametrize("make", [mr.linear_band, mr.saturating_band])
def test_bare_invariant_pairs_take_one_loss_call_per_estimate(monkeypatch, make):
    # every node of a bare time-invariant pair gives the same bits, so each
    # estimate evaluates each loss once over all nodes and x-samples
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    (lp1, calls1), (lp2, calls2) = _counted(make(-1.0, 1.0)), _counted(make(-2.0, 2.0))
    bp1, bp2 = mr.boundary_from_losses(g, lp1), mr.boundary_from_losses(g, lp2)
    sols = {id(bp): mr.solve_sp(s, bp) for bp in (bp1, bp2)}
    for calls in (calls1, calls2):
        calls.update(L=0, R=0)
    mr.check_continuity_bound(sols[id(bp1)], sols[id(bp2)], s, s, bp1, bp2, _XS)
    assert calls1 == calls2 == {"L": 1, "R": 1}
    # the comparison premise alone: its two solves are served ready-made
    monkeypatch.setattr(skorokhod, "solve_sp", lambda s, bp, **kw: sols[id(bp)])
    for calls in (calls1, calls2):
        calls.update(L=0, R=0)
    rep = mr.check_comparison(s, bp2, bp1, _XS)
    assert rep.premise_ok
    assert calls1 == calls2 == {"L": 1, "R": 1}


def test_backward_continuity_uses_doubled_constants():
    g = mr.build_grid(1.0, 16)
    s1 = _ramp(g, 3.0)
    s2 = mr.SamplePath(g, s1.values + 0.2)
    bp = _band(-1.0, 1.0, g)
    b1 = mr.solve_bsp(s1, 0.0, bp)
    b2 = mr.solve_bsp(s2, 0.5, bp)
    rep = mr.check_continuity_bound(b1, b2, s1, s2, bp, bp, _XS)
    assert rep.passed
    with pytest.raises(ValueError):
        mr.check_continuity_bound(b1, mr.solve_sp(s2, bp), s1, s2, bp, bp, _XS)


def test_comparison_narrower_band_pushes_harder():
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    wide = _band(-2.0, 2.0, g)
    narrow = _band(-1.0, 1.0, g)
    rep = mr.check_comparison(s, wide, narrow, _XS)
    assert rep.premise_ok and rep.passed
    assert rep.slack == 1e-9 - max(rep.max_violation_up, rep.max_violation_down)
    sol_w, sol_n = mr.solve_sp(s, wide), mr.solve_sp(s, narrow)
    assert sol_n.push_down.values[-1] > sol_w.push_down.values[-1]


def test_comparison_flat_path_all_zero():
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 0.0)
    rep = mr.check_comparison(s, _band(-2.0, 2.0, g), _band(-1.0, 1.0, g), _XS)
    assert rep.premise_ok and rep.passed
    assert rep.max_violation_up == 0.0 and rep.max_violation_down == 0.0


@pytest.mark.parametrize("part", ["push_up", "push_down"])
def test_comparison_fails_on_a_nan_violation(monkeypatch, part):
    # a NaN in either monotone part of the wide solve is no domination
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 2.0)
    wide, narrow = _band(-2.0, 2.0, g), _band(-1.0, 1.0, g)
    real = skorokhod.solve_sp

    def poisoned(s, bp):
        sol = real(s, bp)
        if bp is not wide:
            return sol
        vals = getattr(sol, part).values.copy()
        vals[3] = math.nan
        return dataclasses.replace(sol, **{part: mr.SamplePath(g, vals)})

    monkeypatch.setattr(skorokhod, "solve_sp", poisoned)
    rep = mr.check_comparison(s, wide, narrow, _XS)
    assert rep.premise_ok and math.isnan(rep.slack) and not rep.passed


def test_comparison_flags_misordered_premise():
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 1.0)
    rep = mr.check_comparison(s, _band(-1.0, 1.0, g), _band(-2.0, 2.0, g), _XS)
    assert not rep.premise_ok


# ---------------------------------------------------------------------------
# randomized law of the map
# ---------------------------------------------------------------------------


@given(
    start=st.floats(-3.0, 3.0),
    incs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=40),
    lo=st.floats(-3.0, -0.1),
    width=st.floats(0.2, 4.0),
)
def test_reflection_properties_hold_on_random_walks(start, incs, lo, width):
    hi = lo + width
    grid = mr.build_grid(1.0, len(incs))
    walk = start + np.concatenate([[0.0], np.cumsum(incs)])
    s = mr.SamplePath(grid, walk)
    sol = mr.solve_sp(s, _band(lo, hi, grid))
    # in-band, decomposition, monotone parts
    assert np.all(sol.x.values >= lo - 1e-10) and np.all(sol.x.values <= hi + 1e-10)
    assert_array_equal(sol.K.values, sol.push_up.values - sol.push_down.values)
    assert np.all(np.diff(sol.push_up.values) >= 0.0)
    assert np.all(np.diff(sol.push_down.values) >= 0.0)
    # flatness within the declared tolerance
    assert max(sol.flat_residual_up, sol.flat_residual_down) <= mr.flat_tolerance(s)
    # closed-form agreement
    x_ref, k_ref = double_barrier_batch(walk[None, :], lo, hi)
    assert np.max(np.abs(sol.x.values - x_ref[0])) <= 1e-9
    assert np.max(np.abs(sol.K.values - k_ref[0])) <= 1e-9
