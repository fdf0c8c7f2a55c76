"""Forward/backward reflection maps and the executable path estimates."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect.errors import (
    DegenerateConstraintsError,
    InfeasibleTerminalError,
    NumericalFailureError,
)
from meanreflect import skorokhod
from meanreflect.constraints import ROOT_TOL_DEFAULT, X_WINDOW, _EdgeFinder
from meanreflect.skorokhod import _boundary_discrepancy, flatness_residuals_raw
from oracles import double_barrier_batch


def _band(lo: float, hi: float, grid: mr.TimeGrid) -> mr.BoundaryPair:
    return mr.BoundaryPair(grid, mr.linear_band(lo, hi))


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


def _clamp_loop(s_vals, lo, hi, edge=None):
    # reference: the recursion with every node's x and cumulative parts appended
    x = prev = up = dn = 0.0
    xs, ups, dns = [], [], []
    for k, sk in enumerate(s_vals.tolist()):
        free = x + (sk - prev)
        prev = sk
        if lo[k] <= free <= hi[k]:
            x = free
        else:
            x = edge(k, free) if edge is not None else min(max(free, lo[k]), hi[k])
            if x > free:
                up += x - free
            elif x < free:
                dn += free - x
        xs.append(x)
        ups.append(up)
        dns.append(dn)
    return np.array(xs), np.array(ups), np.array(dns)


@pytest.mark.parametrize("hooked", [False, True], ids=["band", "hook"])
def test_the_clamp_recursion_has_the_bits_of_the_per_node_loop(hooked):
    # the parts are written in runs between increments; every entry must
    # keep the bits of the per-node append, from no clamp to a clamp at
    # every node
    rng = np.random.default_rng(3)
    for n, scale in ((2, 1.0), (9, 0.1), (40, 1.0), (65, 3.0), (65, 30.0)):
        s_vals = np.cumsum(rng.normal(0.0, scale, n)) + rng.uniform(-0.5, 0.5, n)
        lo = -1.0 - rng.uniform(0.0, 0.3, n)
        hi = 1.0 + rng.uniform(0.0, 0.3, n)
        edge = None
        if hooked:
            edge = lambda k, free, lo=lo, hi=hi: lo[k] if free < lo[k] else hi[k]  # noqa: E731
            lo, hi = np.full(n, np.inf), np.full(n, -np.inf)
        got = skorokhod._clamp_recursion(s_vals, lo, hi, edge)
        ref = _clamp_loop(s_vals, lo, hi, edge)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


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
        sols[m] = mr.solve_sp(s, mr.BoundaryPair(g, lp))
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
    g = mr.TimeGrid(np.linspace(0.5, 1.0, 33))
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


def _anchor_step_calls(monkeypatch, a, spread):
    """``(start, certified, calls)``: ``solve_bsp``'s evaluations at the last node, in order.

    ``start = (a + s_T) - s_T`` is where the reversed input starts, ``a``
    up to one rounding; ``certified`` is the slope certificate there.
    """
    rng = np.random.default_rng(3)
    g = mr.build_grid(1.0, 8)
    e = mr.Ensemble(g, rng.normal(0.0, spread, (64, g.n_nodes)))
    bp = mr.make_mean_boundary(e, mr.saturating_band(-0.5, 0.5))
    s = mr.SamplePath(g, np.array([0.0, 0.5, 1.0, 0.25, -0.5, -1.0, 0.0, 0.5, 0.7]))
    start = (a + s.values[-1]) - s.values[-1]
    last = g.n_nodes - 1
    certified = bp._certified(last, float(start))[:2]
    calls = []
    for side in ("lower", "upper"):
        evaluate = getattr(mr.BoundaryPair, side)

        def counting(self, node, x, evaluate=evaluate, side=side):
            if np.ndim(node) == 0 and int(node) == last:
                calls.append((side, float(x)))
            return evaluate(self, node, x)

        monkeypatch.setattr(mr.BoundaryPair, side, counting)
    assert mr.solve_bsp(s, a, bp).variation > 0.0
    return start, certified, calls


@pytest.mark.parametrize("a,exact", [(0.25, True), (0.1, False)])
def test_anchored_map_checks_the_pair_at_the_anchor_itself(monkeypatch, a, exact):
    # the terminal check reads l(T, a) and r(T, a); the first clamp step
    # reads the pair where the reversed input starts, (a + s_T) - s_T, which
    # is a up to one rounding (a itself, or not, by the case).  The offsets
    # spread too far for the slope certificate to settle that step.
    start, certified, calls = _anchor_step_calls(monkeypatch, a, spread=2.0)
    assert (start == a) == exact
    assert certified == (False, False)
    assert sorted(calls[:2]) == [("lower", a), ("upper", a)]
    assert sorted(calls[2:]) == [("lower", start), ("upper", start)]


@pytest.mark.parametrize("a", [0.25, 0.1])
def test_a_certified_first_step_evaluates_nothing_at_the_anchor(monkeypatch, a):
    # the mirror case: a narrow spread lets the certificate settle both
    # sides at the start, so only the terminal check evaluates the last node
    start, certified, calls = _anchor_step_calls(monkeypatch, a, spread=0.5)
    assert certified == (True, True)
    assert sorted(calls) == [("lower", a), ("upper", a)]


def test_backward_map_runs_on_a_grid_that_is_not_its_own_mirror():
    # the map only reverses arrays, so uneven steps need no symmetric grid
    g = mr.TimeGrid(np.array([0.0, 0.05, 0.3, 0.31, 0.7, 1.0]))
    bp = mr.BoundaryPair(g, mr.saturating_band(-1.0, 2.0))
    s = mr.SamplePath(g, np.array([0.0, 1.5, -2.0, 0.4, 3.0, 0.5]))
    sol = mr.solve_bsp(s, 0.5, bp)
    sv, kv, xv = s.values, sol.K.values, sol.x.values
    assert sol.variation > 0.0
    assert np.max(np.abs(xv - (0.5 + sv[-1] - sv + kv[-1] - kv))) <= 1e-15
    assert xv[-1] == 0.5
    rho, lam = bp.band_edges()
    assert np.all((rho - 1e-12 <= xv) & (xv <= lam + 1e-12))
    assert (sol.flat_residual_up, sol.flat_residual_down) == (0.0, 0.0)


def _bent_pair(slope: float, bend: float, lo: float, hi: float, drift: float) -> mr.LossPair:
    """``a (x -+ b sat(x)) - edge - d t``: slopes in ``a (1 -+ b / 2)``, ``R - L >= hi - lo``."""

    def sat(x):
        return x * x / (2.0 * (1.0 + np.abs(x)))

    return mr.LossPair(
        L=lambda t, x: slope * (x - bend * sat(x)) - hi - drift * t,
        R=lambda t, x: slope * (x + bend * sat(x)) - lo - drift * t,
        c=slope * (1.0 - bend / 2.0),
        C=slope * (1.0 + bend / 2.0),
        gap=hi - lo,
    )


_averaged_pairs = given(
    slope=st.floats(0.25, 4.0),
    bend=st.floats(0.0, 1.0),
    lo=st.floats(-3.0, 0.0),
    width=st.floats(0.05, 4.0),
    drift=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**16),
)


def _averaged(lp: mr.LossPair, seed: int) -> tuple[mr.BoundaryPair, mr.SamplePath]:
    """``lp`` averaged over a spreading 64-particle cross-section, and a random input."""
    rng = np.random.default_rng(seed)
    steps = 24
    g = mr.build_grid(1.0, steps)
    spread = rng.normal(0.0, 1.0, (64, g.n_nodes)) * np.sqrt(g.nodes)
    steps_s = rng.normal(0.0, 0.6, steps) + rng.uniform(-3.0, 3.0) / steps
    s = mr.SamplePath(g, np.concatenate([[0.0], np.cumsum(steps_s)]))
    return mr.make_mean_boundary(mr.Ensemble(g, spread), lp), s


@_averaged_pairs
def test_an_averaged_band_is_at_least_gap_over_C_wide(slope, bend, lo, width, drift, seed):
    # the bound that lets solve_bsp skip the band widths: r - l >= gap and r
    # rises at most C per unit, so edges found to xtol are gap/C - 2 xtol apart
    lp = _bent_pair(slope, bend, lo, lo + width, drift)
    bp, _ = _averaged(lp, seed)
    rho, lam = bp.band_edges()
    xtol = ROOT_TOL_DEFAULT / max(lp.C, 1.0)
    assert np.all(lam - rho >= lp.gap / lp.C - 2.0 * xtol)


@_averaged_pairs
def test_on_demand_edges_match_the_clamp_against_band_edges(
    slope, bend, lo, width, drift, seed
):
    lp = _bent_pair(slope, bend, lo, lo + width, drift)
    bp, s = _averaged(lp, seed)
    empty_lo, empty_hi, edge = bp._clamp_band()
    assert isinstance(edge, _EdgeFinder) and edge.bp is bp
    assert np.all(empty_lo == np.inf) and np.all(empty_hi == -np.inf)
    rho, lam = dataclasses.replace(bp).band_edges()  # a copy: bp itself caches no edges
    a = 0.5 * (rho[-1] + lam[-1])
    backward = mr.solve_bsp(s, a, bp)
    forward = mr.solve_sp(s, bp)
    assert bp._edges is None
    x, up, dn = skorokhod._reversed_clamp(s.values, a, rho, lam)
    k_ref = (up[-1] - up[::-1]) - (dn[-1] - dn[::-1])
    x_fwd, up_fwd, dn_fwd = skorokhod._clamp_recursion(s.values, rho, lam)
    # Each side's edges are within the root tolerance (plus a rounding) of
    # the roots.  K_t = x_0 - x_t - (s_t - s_0) moves by two x gaps.
    tol = 2.0 * ROOT_TOL_DEFAULT + 1e-14
    flat_tol = 1e-10 * (1.0 + float(np.max(np.abs(s.values))))
    for sol, x_ref, k in ((backward, x, k_ref), (forward, x_fwd, up_fwd - dn_fwd)):
        assert np.max(np.abs(sol.x.values - x_ref)) <= tol
        assert np.max(np.abs(sol.K.values - k)) <= 2.0 * tol
        assert max(sol.flat_residual_up, sol.flat_residual_down) <= flat_tol


def test_an_averaged_pair_is_a_value():
    # a solve reads the pair's fields alone: one pair solved backward twice,
    # then forward, has the bits of a fresh pair over the same ensemble each time
    lp = mr.saturating_band(-0.5, 0.5)
    moved = []
    for seed in range(40):
        bp, s = _averaged(lp, seed)
        for name, solve in (
            ("bsp", lambda p: mr.solve_bsp(s, 0.0, p)),
            ("bsp again", lambda p: mr.solve_bsp(s, 0.0, p)),
            ("sp", lambda p: mr.solve_sp(s, p)),
        ):
            got, want = solve(bp), solve(_averaged(lp, seed)[0])
            for part in ("x", "K", "push_up", "push_down"):
                if getattr(got, part).values.tobytes() != getattr(want, part).values.tobytes():
                    moved.append((seed, name, part))
    assert moved == []


def test_a_width_stop_edge_is_evaluated_by_its_inversion(monkeypatch):
    # seed 0's forward solve ends the inversion of node 4's lower edge on the
    # bracket-width stop, at the midpoint of two evaluated points.  The
    # inversion evaluates that midpoint and the finder records the value, so
    # the flatness residual evaluates no particles; the edge keeps its bits.
    phases, calls, records, points = ["other"], [], [], []

    def counted(f):
        def loss(t, x):
            if np.size(x) >= 64:
                calls.append(phases[-1])
            return f(t, x)

        return loss

    def flatness(*args, **kwargs):
        records.append(kwargs["found"])
        phases.append("flatness")
        try:
            return flatness_residuals_raw(*args, **kwargs)
        finally:
            phases.pop()

    def upper(self, node, x, upper=mr.BoundaryPair.upper):
        if np.ndim(node) == 0 and int(node) == 4:
            points.append(float(x))
        return upper(self, node, x)

    lp = mr.saturating_band(-0.5, 0.5)
    bp, s = _averaged(dataclasses.replace(lp, L=counted(lp.L), R=counted(lp.R)), 0)
    monkeypatch.setattr(skorokhod, "flatness_residuals_raw", flatness)
    monkeypatch.setattr(mr.BoundaryPair, "upper", upper)
    sol = mr.solve_sp(s, bp)
    edge, _, value = records[0][4, "lower_edge"]
    assert points[-1] == edge and np.float64(value) == bp.upper(4, edge)
    xtol = ROOT_TOL_DEFAULT / lp.C
    assert any(
        0.5 * (a + b) == edge and abs(b - a) <= 2.0 * xtol
        for i, a in enumerate(points[:-1])
        for b in points[i + 1 : -1]
    )
    assert sol.x.values[4] == edge and float.hex(edge) == "-0x1.4d091b598c6fep-1"
    assert sol.push_up.values[4] > sol.push_up.values[3]
    assert "flatness" not in calls


def test_an_averaged_band_below_the_floor_is_still_degenerate():
    # gap / C under BAND_MIN_DEFAULT: the width bound cannot settle the
    # check, so the pair falls back to the band widths and refuses the band
    g = mr.build_grid(1.0, 6)
    lp = _bent_pair(1.0, 0.5, -2.5e-10, 2.5e-10, 0.0)
    bp = mr.BoundaryPair(g, lp, np.zeros((g.n_nodes, 4)))
    with pytest.raises(DegenerateConstraintsError):
        bp._clamp_band()
    for solve in (mr.solve_sp, lambda s, bp: mr.solve_bsp(s, 0.0, bp)):
        with pytest.raises(DegenerateConstraintsError):
            solve(_ramp(g, 1.0), bp)
    # gap / C still under the floor, the band itself just above it: the
    # band edges, and no hook
    lp = _bent_pair(1.0, 0.5, -5.5e-10, 5.5e-10, 0.0)
    bp = mr.BoundaryPair(g, lp, np.zeros((g.n_nodes, 4)))
    rho, lam, edge = bp._clamp_band()
    assert edge is None and rho is bp._edges[0] and lam is bp._edges[1]


def test_backward_rejects_infeasible_anchor():
    g = mr.build_grid(1.0, 8)
    with pytest.raises(InfeasibleTerminalError):
        mr.solve_bsp(_ramp(g, 0.0), 5.0, _band(-1.0, 1.0, g))
    # NaN fails every comparison, so a NaN anchor must not pass the check
    with pytest.raises(InfeasibleTerminalError):
        mr.solve_bsp(_ramp(g, 0.0), float("nan"), _band(-1.0, 1.0, g))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("pair", ["linear", "saturating", "averaged"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_maps_refuse_a_non_finite_input(direction, pair, bad):
    # a bare pair used to return a NaN path with zero force; both maps now
    # name the first bad node in grid order, also where a later node is bad
    g = mr.build_grid(1.0, 4)
    if pair == "averaged":
        spread = np.outer(np.linspace(-0.2, 0.2, 7), np.ones(g.n_nodes))
        bp = mr.make_mean_boundary(mr.Ensemble(g, spread), mr.saturating_band(-1.0, 1.0))
    else:
        bp = mr.BoundaryPair(g, getattr(mr, f"{pair}_band")(-1.0, 1.0))
    s = mr.SamplePath(g, [0.0, 0.5, bad, 0.25, bad])
    solve = mr.solve_sp if direction == "forward" else lambda s, bp: mr.solve_bsp(s, 0.0, bp)
    with pytest.raises(NumericalFailureError, match=r"is -?(nan|inf) at node 2 \(t = 0\.5\)"):
        solve(s, bp)


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


def _flatness(sol, bp):
    return flatness_residuals_raw(sol.x.values, sol.push_up.values, sol.push_down.values, bp)


def test_flatness_zero_without_force():
    g = mr.build_grid(1.0, 8)
    bp = _band(-1.0, 1.0, g)
    sol = mr.solve_sp(_ramp(g, 0.0), bp)
    assert _flatness(sol, bp) == (0.0, 0.0)


def test_flatness_small_on_the_ramp():
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 2.0)
    bp = _band(-1.0, 1.0, g)
    up, down = _flatness(mr.solve_sp(s, bp), bp)
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
    up, down = _flatness(fake, bp)
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
    rep = mr.check_continuity_bound(sol, sol, s, s, bp, bp)
    assert rep.passed
    assert rep.lhs == 0.0 and rep.sup_ds == 0.0 and rep.boundary_gap == 0.0


def test_continuity_shifted_path():
    g = mr.build_grid(1.0, 16)
    s1 = _ramp(g, 2.0)
    s2 = mr.SamplePath(g, s1.values + 0.25)
    bp = _band(-1.0, 1.0, g)
    sol1, sol2 = mr.solve_sp(s1, bp), mr.solve_sp(s2, bp)
    rep = mr.check_continuity_bound(sol1, sol2, s1, s2, bp, bp)
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
    rep = mr.check_continuity_bound(sol1, sol2, s, s, bp1, bp2)
    assert rep.passed
    assert rep.lhs <= eps + 1e-12  # forward constant is 1/c = 1
    assert rep.boundary_gap >= eps - 1e-12


def test_boundary_discrepancy_matches_the_pointwise_loop():
    # reference: a running Python max over nodes and the x window, in which a
    # NaN gap never wins a comparison and so is skipped
    rng = np.random.default_rng(3)
    g = mr.build_grid(1.0, 5)
    off1, off2 = rng.normal(0.0, 1.0, (2, g.n_nodes, 33))
    # bp1's losses are NaN at 0.5 and its first offset is 0: its boundaries
    # are NaN at the window point x = 0.5 alone
    off1[:, 0] = 0.0
    lp = mr.saturating_band(-1.0, 2.0)

    def nan_at_half(f):
        return lambda t, x: np.where(np.asarray(x) == 0.5, np.nan, f(t, x))

    bp1 = mr.BoundaryPair(g, dataclasses.replace(lp, L=nan_at_half(lp.L), R=nan_at_half(lp.R)), off1)
    bp2 = mr.BoundaryPair(g, mr.saturating_band(-1.2, 2.1), off2)
    assert [x for x in X_WINDOW if np.isnan(bp1.lower(0, x))] == [0.5]
    ref = [0.0, 0.0]
    for k in range(g.n_nodes):
        for x in X_WINDOW:
            ref[0] = max(ref[0], abs(bp1.lower(k, x) - bp2.lower(k, x)))
            ref[1] = max(ref[1], abs(bp1.upper(k, x) - bp2.upper(k, x)))
    assert _boundary_discrepancy(bp1, bp2) == tuple(ref)
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
                mr.check_continuity_bound(*args)
    # an equal grid need not be the same object
    mr.check_continuity_bound(sol, sol, s, s, bp, _band(-1.0, 1.0, mr.build_grid(1.0, 16)))


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
    # estimate evaluates each loss once over all nodes and the x window
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    (lp1, calls1), (lp2, calls2) = _counted(make(-1.0, 1.0)), _counted(make(-2.0, 2.0))
    bp1, bp2 = mr.BoundaryPair(g, lp1), mr.BoundaryPair(g, lp2)
    sols = {id(bp): mr.solve_sp(s, bp) for bp in (bp1, bp2)}
    for calls in (calls1, calls2):
        calls.update(L=0, R=0)
    mr.check_continuity_bound(sols[id(bp1)], sols[id(bp2)], s, s, bp1, bp2)
    assert calls1 == calls2 == {"L": 1, "R": 1}
    # the comparison premise alone: its two solves are served ready-made
    monkeypatch.setattr(skorokhod, "solve_sp", lambda s, bp, **kw: sols[id(bp)])
    for calls in (calls1, calls2):
        calls.update(L=0, R=0)
    rep = mr.check_comparison(s, bp2, bp1)
    assert rep.premise_ok
    assert calls1 == calls2 == {"L": 1, "R": 1}


def test_backward_continuity_uses_doubled_constants():
    g = mr.build_grid(1.0, 16)
    s1 = _ramp(g, 3.0)
    s2 = mr.SamplePath(g, s1.values + 0.2)
    bp = _band(-1.0, 1.0, g)
    b1 = mr.solve_bsp(s1, 0.0, bp)
    b2 = mr.solve_bsp(s2, 0.5, bp)
    rep = mr.check_continuity_bound(b1, b2, s1, s2, bp, bp)
    assert rep.passed
    with pytest.raises(ValueError):
        mr.check_continuity_bound(b1, mr.solve_sp(s2, bp), s1, s2, bp, bp)


def test_comparison_narrower_band_pushes_harder():
    g = mr.build_grid(1.0, 16)
    s = _ramp(g, 2.0)
    wide = _band(-2.0, 2.0, g)
    narrow = _band(-1.0, 1.0, g)
    rep = mr.check_comparison(s, wide, narrow)
    assert rep.premise_ok and rep.passed
    assert rep.slack == 1e-9 - max(rep.max_violation_up, rep.max_violation_down)
    sol_w, sol_n = mr.solve_sp(s, wide), mr.solve_sp(s, narrow)
    assert sol_n.push_down.values[-1] > sol_w.push_down.values[-1]


def test_comparison_flat_path_all_zero():
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 0.0)
    rep = mr.check_comparison(s, _band(-2.0, 2.0, g), _band(-1.0, 1.0, g))
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
    rep = mr.check_comparison(s, wide, narrow)
    assert rep.premise_ok and math.isnan(rep.slack) and not rep.passed


def test_comparison_flags_misordered_premise():
    g = mr.build_grid(1.0, 8)
    s = _ramp(g, 1.0)
    rep = mr.check_comparison(s, _band(-1.0, 1.0, g), _band(-2.0, 2.0, g))
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
    flat_tol = 1e-10 * (1.0 + float(np.max(np.abs(s.values))))
    assert max(sol.flat_residual_up, sol.flat_residual_down) <= flat_tol
    # closed-form agreement
    x_ref, k_ref = double_barrier_batch(walk[None, :], lo, hi)
    assert np.max(np.abs(sol.x.values - x_ref[0])) <= 1e-9
    assert np.max(np.abs(sol.K.values - k_ref[0])) <= 1e-9
