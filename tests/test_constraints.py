"""Loss pairs, mean-level boundaries, root-finding, envelopes, obstacles."""

from __future__ import annotations

import gc
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import meanreflect as mr
from meanreflect.constraints import (
    boundary_from_losses,
    check_envelope_order,
    invert_boundary,
    make_mean_boundary,
    validate_loss,
)

_TS = np.linspace(0.0, 1.0, 5)
_XS = np.linspace(-6.0, 8.0, 29)


def _two_particle_ensemble(a: float, b: float, steps: int = 4) -> mr.Ensemble:
    g = mr.build_grid(1.0, steps)
    vals = np.vstack([np.full(g.n_nodes, a), np.full(g.n_nodes, b)])
    return mr.Ensemble(g, vals)


# ---------------------------------------------------------------------------
# loss validation
# ---------------------------------------------------------------------------


def test_validate_affine_band():
    lp = mr.linear_band(-1.0, 4.0)  # L = x - 4, R = x + 1
    rep = validate_loss(lp, _TS, _XS)
    assert rep.passed
    assert rep.monotone_violations == 0
    assert_allclose([rep.slope_min, rep.slope_max], [1.0, 1.0], rtol=0, atol=1e-9)
    assert_allclose(rep.min_gap, 5.0, rtol=0, atol=1e-12)


def test_validate_bent_band():
    rep = validate_loss(mr.saturating_band(-1.0, 4.0), _TS, _XS)
    assert rep.passed
    assert 0.5 - 1e-9 <= rep.slope_min and rep.slope_max <= 1.5 + 1e-9
    assert rep.min_gap >= 5.0 - 1e-9


def test_validate_flags_decreasing_loss():
    bad = mr.LossPair(
        L=lambda t, x: -np.asarray(x, dtype=float),
        R=lambda t, x: np.asarray(x, dtype=float) + 5.0,
        c=1.0,
        C=1.0,
        gap=1.0,
    )
    rep = validate_loss(bad, _TS, _XS)
    assert rep.monotone_violations > 0
    assert not rep.passed


def test_validate_flags_overstated_gap():
    lp = mr.LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - 1.0,
        R=lambda t, x: np.asarray(x, dtype=float),
        c=1.0,
        C=1.0,
        gap=7.0,  # claims more separation than the functions deliver
    )
    assert not validate_loss(lp, _TS, _XS).passed


# ---------------------------------------------------------------------------
# mean-level boundaries
# ---------------------------------------------------------------------------


def test_affine_boundary_ignores_recentring():
    # linearity kills the recentred terms: averaging x - 4 over any offsets
    # returns x - 4
    e = _two_particle_ensemble(-1.0, 1.0)
    bp = make_mean_boundary(e, mr.linear_band(-1.0, 4.0))
    assert bp.offsets is None
    for x in (-3.0, 0.0, 2.5):
        assert bp.lower(2, x) == x - 4.0
        assert bp.upper(2, x) == x + 1.0


def test_centred_particles_reduce_to_bare_loss():
    lp = mr.saturating_band(-1.0, 4.0)
    e = _two_particle_ensemble(0.0, 0.0)
    bp = make_mean_boundary(e, lp)
    for x in (-2.0, 0.0, 3.0):
        assert_allclose(bp.lower(1, x), float(lp.L(0.25, np.float64(x))), rtol=0, atol=1e-15)


def test_bent_boundary_two_particle_average():
    # recentred particles sit at -/+1; with sat(x) = x^2/(2(1+|x|)),
    # L(-1) = -1 - 1/4 - 4 = -5.25 and L(1) = 1 - 1/4 - 4 = -3.25,
    # so the averaged boundary at x = 0 is -4.25
    e = _two_particle_ensemble(-1.0, 1.0)
    bp = make_mean_boundary(e, mr.saturating_band(-1.0, 4.0))
    assert bp.offsets is not None
    assert_allclose(bp.lower(0, 0.0), -4.25, rtol=0, atol=1e-15)


def test_boundary_commutes_with_particle_permutation():
    rng = np.random.default_rng(42)
    g = mr.build_grid(1.0, 6)
    vals = rng.normal(0.0, 1.5, (64, g.n_nodes))
    lp = mr.saturating_band(-2.0, 3.0)
    bp1 = make_mean_boundary(mr.Ensemble(g, vals), lp)
    perm = rng.permutation(64)
    bp2 = make_mean_boundary(mr.Ensemble(g, vals[perm]), lp)
    for node in (0, 3, 6):
        for x in (-1.0, 0.4, 2.0):
            assert abs(bp1.lower(node, x) - bp2.lower(node, x)) <= 1e-12
            assert abs(bp1.upper(node, x) - bp2.upper(node, x)) <= 1e-12


@pytest.mark.parametrize("averaged", [False, True], ids=["bare", "averaged"])
@pytest.mark.parametrize(
    "losses",
    [mr.saturating_band(-1.5, 2.0), mr.linear_band(-1.5, 2.0)],
    ids=["saturating", "linear"],
)
def test_array_evaluation_matches_scalar_calls_bitwise(losses, averaged):
    rng = np.random.default_rng(5)
    g = mr.build_grid(1.0, 4)
    # an odd particle count exercises the carried tail of the pairwise tree;
    # the pair is built directly so the affine band keeps its offsets too
    off = rng.normal(0.0, 1.3, (g.n_nodes, 257)) if averaged else None
    bp = mr.BoundaryPair(g, losses, g.nodes.copy(), off)
    xs = np.concatenate([rng.normal(0.0, 4.0, 9), [0.0, -0.0, 1e-300]])
    for node in range(g.n_nodes):
        for side in (bp.lower, bp.upper):
            assert isinstance(side(node, 0.5), float)
            vec = side(node, xs)
            assert vec.shape == xs.shape
            scalar = np.array([side(node, float(x)) for x in xs])
            assert vec.tobytes() == scalar.tobytes()
            assert side(node, xs.reshape(3, 4)).tobytes() == vec.tobytes()


# ---------------------------------------------------------------------------
# root-finding
# ---------------------------------------------------------------------------


def test_root_finding_leaves_no_cycle_holding_the_boundary():
    # a boundary pair owns its (nodes, particles) offsets: once its band edges
    # are found, dropping the last reference must free it at once, without
    # waiting for the cyclic garbage collector
    bp = make_mean_boundary(_two_particle_ensemble(-1.0, 1.0), mr.saturating_band(-1.0, 4.0))
    gc.disable()
    try:
        bp.band_edges()
        ref = weakref.ref(bp)
        del bp
        assert ref() is None
    finally:
        gc.enable()


def test_affine_roots_exact():
    bp = boundary_from_losses(mr.build_grid(1.0, 2), mr.linear_band(-1.0, 4.0))
    assert_allclose(invert_boundary(bp, 0, "upper_edge"), 4.0, rtol=0, atol=1e-12)
    assert_allclose(invert_boundary(bp, 0, "lower_edge"), -1.0, rtol=0, atol=1e-12)


def test_bent_roots_closed_form():
    # upper edge: x - x^2/(2(1+x)) = 4 on x > 0 reduces to x^2 - 6x - 8 = 0,
    # root 3 + sqrt(17); lower edge: x + x^2/(2(1-x)) = -1 on x < 0 reduces
    # to x^2 = 2, root -sqrt(2)
    bp = boundary_from_losses(mr.build_grid(1.0, 2), mr.saturating_band(-1.0, 4.0))
    up = invert_boundary(bp, 0, "upper_edge")
    lo = invert_boundary(bp, 0, "lower_edge")
    assert_allclose(up, 3.0 + math.sqrt(17.0), rtol=0, atol=1e-10)
    assert_allclose(lo, -math.sqrt(2.0), rtol=0, atol=1e-10)
    # consistency: residual at the returned root within tolerance
    assert abs(bp.lower(0, up)) <= 1e-12
    assert abs(bp.upper(0, lo)) <= 1e-12


def test_invert_boundary_rejects_unknown_edge():
    bp = boundary_from_losses(mr.build_grid(1.0, 2), mr.linear_band(-1.0, 4.0))
    with pytest.raises(ValueError):
        invert_boundary(bp, 0, "sideways")


def test_band_gap_survives_averaging():
    # gap delta = 5 and C = 1.5, so the averaged band never narrows below
    # delta / C = 10/3 regardless of the ensemble
    rng = np.random.default_rng(7)
    lp = mr.saturating_band(-1.0, 4.0)
    g = mr.build_grid(1.0, 4)
    for _ in range(10):
        vals = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 2.0), (32, g.n_nodes))
        bp = make_mean_boundary(mr.Ensemble(g, vals), lp)
        rho, lam = bp.band_edges()
        assert np.all(lam - rho >= 5.0 / 1.5 - 1e-9)


def test_band_edge_hints_chain_from_the_last_node():
    # each node's roots start from the next node's, the order in which the
    # backward map walks the nodes; the chain fixes the bits of every
    # reflected solve, so it is pinned against explicit calls
    rng = np.random.default_rng(3)
    g = mr.build_grid(1.0, 8)
    vals = rng.normal(0.0, 1.0, (32, g.n_nodes)) * np.sqrt(g.nodes)
    bp = make_mean_boundary(mr.Ensemble(g, vals), mr.saturating_band(-1.0, 4.0))
    rho, lam = bp.band_edges()
    hint_r = hint_l = 0.0
    for k in range(g.n_nodes - 1, -1, -1):
        hint_r = invert_boundary(bp, k, "lower_edge", hint=hint_r)
        hint_l = invert_boundary(bp, k, "upper_edge", hint=hint_l)
        assert (rho[k], lam[k]) == (hint_r, hint_l)


def test_mean_boundary_leaves_an_f_ordered_ensemble_intact():
    # the offsets are recentred in place, which must not write through to
    # the ensemble, whatever its memory order
    rng = np.random.default_rng(4)
    g = mr.build_grid(1.0, 4)
    vals = np.asfortranarray(rng.normal(0.0, 1.0, (16, g.n_nodes)))
    before = vals.copy()
    bp = make_mean_boundary(mr.Ensemble(g, vals), mr.saturating_band(-1.0, 4.0))
    np.testing.assert_array_equal(vals, before)
    assert_allclose(bp.offsets, (before - before.mean(axis=0)).T, rtol=0, atol=1e-12)


def test_band_edges_cached_and_consistent():
    bp = boundary_from_losses(mr.build_grid(1.0, 8), mr.saturating_band(-1.0, 4.0))
    rho1, lam1 = bp.band_edges()
    rho2, lam2 = bp.band_edges()
    assert rho1 is rho2 and lam1 is lam2  # cache hit returns the same arrays
    assert np.all(lam1 > rho1)


# ---------------------------------------------------------------------------
# affine envelopes
# ---------------------------------------------------------------------------


def test_envelope_constants_validation():
    with pytest.raises(ValueError):
        mr.LinearEnvelope.constants(0.0, 3.0, 1.0)
    with pytest.raises(ValueError):
        mr.LinearEnvelope.constants(1.0, 1.0, 3.0)


def test_envelope_ratio_paths_and_tv():
    g = mr.build_grid(1.0, 4)
    env = mr.LinearEnvelope.constants(2.0, 6.0, 2.0)
    pb, qb = env.ratio_paths(g.nodes)
    assert_allclose(pb, 3.0, rtol=0, atol=0)
    assert_allclose(qb, 1.0, rtol=0, atol=0)
    assert env.tv_bound_terms(g.nodes) == 0.0


def test_envelope_tv_of_moving_edges():
    g = mr.build_grid(1.0, 10)
    env = mr.LinearEnvelope(b=lambda t: 1.0, p=lambda t: 3.0 + t, q=lambda t: 1.0 - 2.0 * t)
    # p/b climbs by 1 and q/b falls by 2 over the horizon
    assert_allclose(env.tv_bound_terms(g.nodes), 3.0, rtol=0, atol=1e-12)


def test_envelope_order_holds_globally_for_bent_band():
    # L = x - sat(x) - 4 <= x - 3 iff -sat(x) <= 1: true everywhere since
    # sat >= 0; the mirrored check for R is sat >= -2.  So the ordering
    # against the (1, 3, 1) envelope holds on any sample window.
    env = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    lp = mr.saturating_band(-1.0, 4.0)
    xs = np.linspace(-80.0, 80.0, 161)
    assert check_envelope_order(lp, env, _TS, xs)


def test_envelope_order_rejects_narrower_band():
    # L = x - 2 lies above x - 3, so the order check must fail
    env = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    assert not check_envelope_order(mr.linear_band(0.0, 2.0), env, _TS, _XS)


# ---------------------------------------------------------------------------
# integrated obstacles
# ---------------------------------------------------------------------------


def test_obstacles_integrate_from_zero():
    g = mr.build_grid(1.0, 4)
    obs = mr.LinearObstacles.constants(-2.0, 2.0)
    lo, hi = obs.sample(g)
    assert lo[0] == 0.0 and hi[0] == 0.0
    assert_allclose(lo, -2.0 * g.nodes, rtol=0, atol=1e-15)
    assert_allclose(hi, 2.0 * g.nodes, rtol=0, atol=1e-15)


def test_obstacles_reject_crossing():
    g = mr.build_grid(1.0, 4)
    with pytest.raises(ValueError):
        mr.LinearObstacles.constants(2.0, -2.0).sample(g)


def test_obstacles_trapezoid_matches_closed_form():
    # rate t -> t integrates to t^2/2; trapezoid is exact on the linear rate
    g = mr.build_grid(1.0, 8)
    obs = mr.LinearObstacles(lower_rate=lambda t: -t, upper_rate=lambda t: t)
    lo, hi = obs.sample(g)
    assert_allclose(hi, g.nodes**2 / 2.0, rtol=0, atol=1e-15)
    assert_allclose(lo, -g.nodes**2 / 2.0, rtol=0, atol=1e-15)
