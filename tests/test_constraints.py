"""Loss pairs, mean-level boundaries, root-finding, envelopes, obstacles."""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

import meanreflect as mr
from meanreflect.constraints import (
    ROOT_TOL_DEFAULT,
    X_WINDOW,
    BoundaryPair,
    _EdgeFinder,
    check_envelope_order,
    invert_boundary,
    make_mean_boundary,
    validate_loss,
)
from meanreflect.errors import NumericalFailureError
from conftest import peak_bytes

_GRID = mr.build_grid(1.0, 4)


def _two_particle_ensemble(a: float, b: float, steps: int = 4) -> mr.Ensemble:
    g = mr.build_grid(1.0, steps)
    vals = np.vstack([np.full(g.n_nodes, a), np.full(g.n_nodes, b)])
    return mr.Ensemble(g, vals)


# ---------------------------------------------------------------------------
# loss validation
# ---------------------------------------------------------------------------


def test_validate_affine_band():
    lp = mr.linear_band(-1.0, 4.0)  # L = x - 4, R = x + 1
    rep = validate_loss(lp, _GRID)
    assert rep.passed and rep.failures == ()
    assert rep.monotone_violations == 0
    assert_allclose([rep.slope_min, rep.slope_max], [1.0, 1.0], rtol=0, atol=1e-9)
    assert_allclose(rep.min_gap, 5.0, rtol=0, atol=1e-12)


def test_validate_bent_band():
    rep = validate_loss(mr.saturating_band(-1.0, 4.0), _GRID)
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
    rep = validate_loss(bad, _GRID)
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
    assert validate_loss(lp, _GRID).failures == ("gap",)


def _drifting_band(time_invariant: bool) -> mr.LossPair:
    # L = x - 3 - t, R = x + 1 - t: a valid pair whose values move with t
    return mr.LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - 3.0 - t,
        R=lambda t, x: np.asarray(x, dtype=float) + 1.0 - t,
        c=1.0,
        C=1.0,
        gap=4.0,
        time_invariant=time_invariant,
    )


def test_validate_flags_a_false_time_invariance_claim():
    # boundary code evaluates a time-invariant bare pair once for all nodes,
    # so a pair that moves with t must not pass while claiming invariance
    assert validate_loss(_drifting_band(False), _GRID).passed
    rep = validate_loss(_drifting_band(True), _GRID)
    assert rep.failures == ("time_invariant claim",) and not rep.passed


def test_validate_flags_a_false_affine_claim():
    # boundary code drops the offsets of an affine pair, so a bent pair must
    # not pass while claiming to be affine
    bent = mr.saturating_band(-1.0, 2.0)
    assert validate_loss(bent, _GRID).passed
    rep = validate_loss(dataclasses.replace(bent, affine=True), _GRID)
    assert rep.failures == ("affine claim",) and not rep.passed
    assert validate_loss(mr.linear_band(-1.0, 2.0), _GRID).passed


def _nan_band(everywhere: bool) -> mr.LossPair:
    # linear_band(-1, 4) with NaN values everywhere, or only at the sample x = 0
    def nan_at(f):
        return lambda t, x: np.where(everywhere | (np.asarray(x) == 0.0), np.nan, f(t, x))

    lp = mr.linear_band(-1.0, 4.0)
    return mr.LossPair(L=nan_at(lp.L), R=nan_at(lp.R), c=1.0, C=1.0, gap=5.0)


@pytest.mark.parametrize("everywhere", [True, False], ids=["all-nan", "one-nan"])
def test_validate_and_envelope_order_fail_on_nan_losses(everywhere):
    # NaN fails every comparison, so each check must ask "in range?", not "out of range?"
    lp = _nan_band(everywhere)
    assert 0.0 in X_WINDOW
    assert not validate_loss(lp, _GRID).passed
    env = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    assert check_envelope_order(mr.linear_band(-1.0, 4.0), env, _GRID)
    assert not check_envelope_order(lp, env, _GRID)


def _array_only_band() -> mr.LossPair:
    # linear_band(-1, 2) written with an ndarray method: a float has no .clip
    return mr.LossPair(
        L=lambda t, x: x.clip(-50.0, 50.0) - 2.0,
        R=lambda t, x: x.clip(-50.0, 50.0) + 1.0,
        c=1.0,
        C=1.0,
        gap=3.0,
    )


def _float_branch(t, x):
    # x - 2 in two roundings: the float branch adds and subtracts 0.1
    if isinstance(x, float):
        return (x + 0.1) - 2.1
    return np.asarray(x, dtype=float) - 2.0


def _rounding_band() -> mr.LossPair:
    return mr.LossPair(
        L=_float_branch, R=lambda t, x: np.asarray(x, dtype=float) + 1.0, c=1.0, C=1.0, gap=3.0
    )


@pytest.mark.parametrize(
    "make", [_array_only_band, _rounding_band], ids=["array-only", "rounding"]
)
def test_a_loss_that_breaks_the_scalar_contract_is_refused_where_it_enters(make):
    # scalar boundary code hands a loss a Python float: a loss that needs an
    # array, or rounds its float branch otherwise, would move bits or crash there
    lp = make()
    if make is _rounding_band:  # the branches differ somewhere on the window
        vals = lp.L(0.0, X_WINDOW)
        assert any(_float_branch(0.0, x) != v for x, v in zip(X_WINDOW.tolist(), vals))
    assert validate_loss(lp, _GRID).failures == ("scalar contract",)
    with pytest.raises(ValueError, match="scalar contract"):
        mr.Scenario(
            horizon=1.0,
            steps=4,
            particles=100,
            rng=mr.RngSpec(1),
            terminal=lambda b: b,
            generator=mr.constant_generator(1.0),
            losses=lp,
        )


def test_the_scalar_contract_accepts_0d_arrays_and_matching_nans():
    # np.asarray(x) of a float is a 0-d array: one real; a NaN matches a NaN
    lp = mr.LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - 2.0,
        R=lambda t, x: np.asarray(x, dtype=float),
        c=1.0,
        C=1.0,
        gap=2.0,
    )
    assert validate_loss(lp, _GRID).passed
    rep = validate_loss(_nan_band(False), _GRID)
    assert "scalar contract" not in rep.failures and not rep.passed


@pytest.mark.parametrize(
    "band", [mr.linear_band, mr.saturating_band], ids=["linear", "saturating"]
)
def test_a_bare_scalar_evaluation_hands_the_loss_a_float_and_keeps_the_array_bits(band):
    lp = band(-1.0, 2.0)
    seen = []

    def recorded(f):
        def loss(t, x):
            seen.append((type(t), type(x)))
            return f(t, x)

        return loss

    g = mr.build_grid(1.0, 3)
    bp = BoundaryPair(g, dataclasses.replace(lp, L=recorded(lp.L), R=recorded(lp.R)))
    nodes, rows = np.arange(g.n_nodes), np.broadcast_to(X_WINDOW, (g.n_nodes, X_WINDOW.size))
    for side in (bp.lower, bp.upper):
        whole = side(nodes, rows)
        for k in range(g.n_nodes):
            for j, x in enumerate(X_WINDOW.tolist()):
                seen.clear()
                for arg in (x, np.float64(x)):
                    v = side(k, arg)
                    assert type(v) is np.float64
                    assert v.tobytes() == whole[k, j].tobytes()
                assert seen == [(float, float)] * 2


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
    bp = mr.BoundaryPair(g, losses, off)
    xs = np.concatenate([rng.normal(0.0, 4.0, 9), [0.0, -0.0, 1e-300]])
    for node in range(g.n_nodes):
        for side in (bp.lower, bp.upper):
            assert isinstance(side(node, 0.5), float)
            vec = side(node, xs)
            assert vec.shape == xs.shape
            scalar = np.array([side(node, float(x)) for x in xs])
            assert vec.tobytes() == scalar.tobytes()
            assert side(node, xs.reshape(3, 4)).tobytes() == vec.tobytes()


def _node_array_pairs() -> dict[str, mr.BoundaryPair]:
    g = mr.build_grid(1.0, 6)
    vals = np.random.default_rng(11).normal(0.0, 1.5, (33, g.n_nodes))
    return {
        "bare saturating": BoundaryPair(g, mr.saturating_band(-1.5, 2.0)),
        "bare linear": BoundaryPair(g, mr.linear_band(-1.5, 2.0)),
        "bare t-dependent": BoundaryPair(g, _drifting_band(False)),
        "averaged": make_mean_boundary(mr.Ensemble(g, vals), mr.saturating_band(-1.5, 2.0)),
    }


_NODE_ARRAY_PAIRS = _node_array_pairs()
_SPECIAL_X = np.array([0.0, -0.0, 1e-300, -2.0, 3.5, 1e6])


@given(
    st.sampled_from(sorted(_NODE_ARRAY_PAIRS)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 9),
    st.sampled_from([None, 1, 4]),
)
def test_node_array_evaluation_matches_per_node_scalar_calls(kind, seed, rows, width):
    bp = _NODE_ARRAY_PAIRS[kind]
    rng = np.random.default_rng(seed)
    nodes = rng.integers(0, bp.grid.n_nodes, rows)  # any order, repeats allowed
    shape = (rows,) if width is None else (rows, width)
    special = rng.uniform(size=shape) < 0.3
    x = np.where(special, rng.choice(_SPECIAL_X, shape), rng.normal(0.0, 4.0, shape))
    for side in (bp.lower, bp.upper):
        batched = side(nodes, x)
        assert batched.shape == x.shape and batched.dtype == np.float64
        if width is None:
            ref = np.array([side(int(k), float(v)) for k, v in zip(nodes, x)])
        else:
            ref = np.array([[side(int(k), float(v)) for v in row] for k, row in zip(nodes, x)])
        assert batched.tobytes() == ref.reshape(shape).tobytes()


def test_node_array_needs_one_row_per_node():
    bp = _NODE_ARRAY_PAIRS["bare linear"]
    with pytest.raises(ValueError):
        bp.lower(np.arange(3), np.zeros(4))
    with pytest.raises(ValueError):
        bp.upper(np.arange(3), np.zeros((2, 3)))


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
    bp = BoundaryPair(mr.build_grid(1.0, 2), mr.linear_band(-1.0, 4.0))
    assert_allclose(invert_boundary(bp, 0, "upper_edge"), 4.0, rtol=0, atol=1e-12)
    assert_allclose(invert_boundary(bp, 0, "lower_edge"), -1.0, rtol=0, atol=1e-12)


def test_bent_roots_closed_form():
    # upper edge: x - x^2/(2(1+x)) = 4 on x > 0 reduces to x^2 - 6x - 8 = 0,
    # root 3 + sqrt(17); lower edge: x + x^2/(2(1-x)) = -1 on x < 0 reduces
    # to x^2 = 2, root -sqrt(2)
    bp = BoundaryPair(mr.build_grid(1.0, 2), mr.saturating_band(-1.0, 4.0))
    up = invert_boundary(bp, 0, "upper_edge")
    lo = invert_boundary(bp, 0, "lower_edge")
    assert_allclose(up, 3.0 + math.sqrt(17.0), rtol=0, atol=1e-10)
    assert_allclose(lo, -math.sqrt(2.0), rtol=0, atol=1e-10)
    # consistency: residual at the returned root within tolerance
    assert abs(bp.lower(0, up)) <= 1e-12
    assert abs(bp.upper(0, lo)) <= 1e-12


def test_invert_boundary_rejects_unknown_edge():
    bp = BoundaryPair(mr.build_grid(1.0, 2), mr.linear_band(-1.0, 4.0))
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


def _bisect(g) -> float:
    """Root of an increasing scalar function, bisected until the bracket ends are adjacent floats."""
    lo, hi = -1.0, 1.0
    while g(lo) > 0.0:
        lo *= 2.0
    while g(hi) < 0.0:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        v = g(mid)
        if v == 0.0:
            return mid
        lo, hi = (mid, hi) if v < 0.0 else (lo, mid)


@st.composite
def _drawn_losses(draw) -> mr.LossPair:
    """A loss pair with its declared slopes.

    ``kind`` is a saturating band (slopes in [s/2, 3s/2]) or a linear one
    (c == C == s); a nonzero ``amp`` shifts both losses in time, so no edge
    can be reused across nodes.
    """
    kind = draw(st.sampled_from(["saturating", "linear"]))
    s = draw(st.floats(0.1, 10.0))
    lower = draw(st.floats(-5.0, 5.0))
    upper = lower + draw(st.floats(0.1, 10.0))
    amp = draw(st.sampled_from([0.0, 0.7]))
    bend = 1.0 if kind == "saturating" else 0.0

    def sat(x):
        x = np.asarray(x, dtype=float)
        return bend * x * x / (2.0 * (1.0 + np.abs(x)))

    def shift(t):
        return amp * math.sin(3.0 * t)

    return mr.LossPair(
        L=lambda t, x: s * (np.asarray(x, dtype=float) - sat(x) - upper - shift(t)),
        R=lambda t, x: s * (np.asarray(x, dtype=float) + sat(x) - lower - shift(t)),
        c=s * (0.5 if kind == "saturating" else 1.0),
        C=s * (1.5 if kind == "saturating" else 1.0),
        gap=s * (upper - lower),
        time_invariant=amp == 0.0,
        affine=kind == "linear",
    )


@st.composite
def _boundary_cases(draw):
    """A boundary pair (bare or averaged) of :func:`_drawn_losses`, and a tolerance."""
    lp = draw(_drawn_losses())
    g = mr.build_grid(1.0, draw(st.integers(1, 5)))
    off = None
    if draw(st.booleans()):
        n = draw(st.integers(1, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        off = np.random.default_rng(seed).normal(0.0, draw(st.floats(0.1, 3.0)), (g.n_nodes, n))
    root_tol = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    return mr.BoundaryPair(g, lp, off), root_tol


def _sides(bp):
    return (("lower_edge", bp.upper), ("upper_edge", bp.lower))


@given(_boundary_cases(), st.floats(-50.0, 50.0))
def test_band_edges_match_an_independent_bisection(case, hint):
    # invert_boundary at the drawn accuracy, band_edges at ROOT_TOL_DEFAULT
    bp, root_tol = case
    edges = dict(zip(("lower_edge", "upper_edge"), bp.band_edges()))
    for which, side in _sides(bp):
        for k in range(bp.grid.n_nodes):
            root = _bisect(lambda x: side(k, x))
            slack = 4.0 * np.spacing(abs(root))  # the bisection's own rounding
            for edge, tol in (
                (edges[which][k], ROOT_TOL_DEFAULT),
                (invert_boundary(bp, k, which, root_tol, hint), root_tol),
            ):
                assert abs(edge - root) <= max(tol / max(bp.C, 1.0), 1e-15) + slack
                assert abs(side(k, edge)) <= tol


def test_a_replaced_pair_finds_its_own_band_edges():
    # the cached edges belong to one pair: dataclasses.replace must not carry them over
    bp = BoundaryPair(mr.build_grid(1.0, 4), mr.linear_band(-1.0, 2.0))
    assert bp.band_edges()[1][0] == 2.0
    wider = dataclasses.replace(bp, losses=mr.linear_band(-5.0, 5.0))
    rho, lam = wider.band_edges()
    assert (rho[0], lam[0]) == (-5.0, 5.0)


@pytest.mark.parametrize("at", [10000.0, -25000.0, 12345.5])
@pytest.mark.parametrize("declared", [(1.0, 1.0), (0.5, 2.0)])
def test_band_edges_far_from_zero_stop_at_adjacent_floats(at, declared):
    # each root lies 0.4 float spacings past a float, where the spacing is
    # above 2 * xtol and |f| at every float is above c * xtol: neither the
    # width stop nor the value stop can fire, only the adjacent-float exit
    s = np.spacing(abs(at))
    lp = mr.LossPair(
        L=lambda t, x: 3.0 * (np.asarray(x, dtype=float) - at - 1.0) - 1.2 * s,
        R=lambda t, x: 3.0 * (np.asarray(x, dtype=float) - at) - 1.2 * s,
        c=3.0 * declared[0],
        C=3.0 * declared[1],
        gap=3.0,
    )
    bp = BoundaryPair(mr.build_grid(1.0, 1), lp)
    xtol = 1e-12 / bp.C
    assert s > 2.0 * xtol and 1.2 * s > bp.c * xtol
    edges = dict(zip(("lower_edge", "upper_edge"), bp.band_edges()))
    for which, side in _sides(bp):
        root = _bisect(lambda x: side(0, x))
        for hint in (0.0, root + 0.37, root - 1e3):
            for edge in (edges[which][0], invert_boundary(bp, 0, which, hint=hint)):
                assert abs(edge - root) <= s
                assert abs(side(0, edge)) <= bp.C * s


@given(st.floats(0.02, 0.99), st.floats(-5.0, 5.0), st.floats(-1e3, 1e3))
def test_overstated_slope_is_bracketed_by_the_widening_walk(slope, at, hint):
    # both sides declare c = C = 1 but rise with a smaller slope, so the first
    # bracket falls short and has to be widened; 2**6 doublings cover 1/0.02
    lp = mr.LossPair(
        L=lambda t, x: slope * (np.asarray(x, dtype=float) - at - 1.0),
        R=lambda t, x: slope * (np.asarray(x, dtype=float) - at),
        c=1.0,
        C=1.0,
        gap=slope,
    )
    bp = BoundaryPair(mr.build_grid(1.0, 1), lp)
    xtol = 1e-12
    for which, side in _sides(bp):
        edge = invert_boundary(bp, 0, which, hint=hint)
        root = _bisect(lambda x: side(0, x))
        # |f| <= c * xtol only certifies |x - root| <= xtol scaled by c / slope
        assert abs(edge - root) <= xtol / slope + 4.0 * np.spacing(abs(root))
        assert abs(side(0, edge)) <= 1e-12


def test_slope_beyond_the_widening_walk_is_a_numerical_failure():
    # declared c = 1 against a true slope of 1e-19: the hint's value 1e-11 is
    # above c * xtol, and 60 doublings of it reach about 1e7 of the 1e8 to go
    lp = mr.LossPair(
        L=lambda t, x: 1e-19 * (np.asarray(x, dtype=float) - 1.0),
        R=lambda t, x: 1e-19 * np.asarray(x, dtype=float),
        c=1.0,
        C=1.0,
        gap=1e-19,
    )
    bp = BoundaryPair(mr.build_grid(1.0, 1), lp)
    for which in ("lower_edge", "upper_edge"):
        with pytest.raises(NumericalFailureError, match="failed to close"):
            invert_boundary(bp, 0, which, hint=1e8)


def test_non_finite_boundary_is_a_numerical_failure():
    # a band as wide as the doubles passes LossPair, but its boundary
    # overflows while the band edge is bracketed
    bp = BoundaryPair(mr.build_grid(1.0, 8), mr.saturating_band(-1e308, 1e307))
    for which in ("lower_edge", "upper_edge"):
        with np.errstate(over="ignore"), pytest.raises(NumericalFailureError, match="not finite"):
            invert_boundary(bp, 8, which)


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


def test_mean_boundary_reads_the_ensemble_in_place_with_the_bits_of_stored_offsets():
    # the pair recentres one node's cross-section at a time, in any node
    # order: every evaluation has the bits of the pair on the stored offsets
    rng = np.random.default_rng(8)
    g = mr.build_grid(1.0, 6)
    e = mr.Ensemble(g, rng.normal(0.0, 1.2, (257, g.n_nodes)))
    lp = mr.saturating_band(-1.0, 3.0)
    bp = make_mean_boundary(e, lp)
    offsets = e.values.T.copy()
    offsets -= mr.pairwise_mean(offsets)[:, None]
    assert np.asarray(bp.offsets).tobytes() == offsets.tobytes()
    assert bp.offsets.shape == offsets.shape and bp.offsets[::-1].tobytes() == offsets[::-1].tobytes()
    stored = BoundaryPair(g, lp, offsets)
    xs = rng.normal(0.0, 2.0, 5)
    for node in (6, 6, 0, 3, 6, 2, 2):
        assert bp.offsets[node].tobytes() == offsets[node].tobytes()
        for side in ("lower", "upper"):
            ours, theirs = getattr(bp, side), getattr(stored, side)
            assert ours(node, xs).tobytes() == theirs(node, xs).tobytes()
            assert ours(node, float(xs[0])) == theirs(node, float(xs[0]))
    nodes, rows = np.arange(g.n_nodes), np.broadcast_to(xs, (g.n_nodes, xs.size))
    assert bp.upper(nodes, rows).tobytes() == stored.upper(nodes, rows).tobytes()
    for ours, theirs in zip(bp.band_edges(), stored.band_edges()):
        assert ours.tobytes() == theirs.tobytes()


def test_mean_boundary_copies_no_ensemble():
    rng = np.random.default_rng(9)
    g = mr.build_grid(1.0, 40)
    e = mr.Ensemble(g, rng.normal(0.0, 1.0, (20_000, g.n_nodes)))

    def build_and_evaluate():
        make_mean_boundary(e, mr.saturating_band(-1.0, 3.0)).lower(3, 0.5)

    _, peak = peak_bytes(build_and_evaluate)
    # one recentred row and the loss's temporaries over it: a few columns
    assert peak <= 0.5 * e.values.nbytes, peak / e.values.nbytes


def test_band_edges_cached_and_consistent():
    bp = BoundaryPair(mr.build_grid(1.0, 8), mr.saturating_band(-1.0, 4.0))
    rho1, lam1 = bp.band_edges()
    rho2, lam2 = bp.band_edges()
    assert rho1 is rho2 and lam1 is lam2  # cache hit returns the same arrays
    assert np.all(lam1 > rho1)


# ---------------------------------------------------------------------------
# the certified band test and the edge finder
# ---------------------------------------------------------------------------


def _edge_by_evaluation(bp: BoundaryPair, k: int, x: float) -> float:
    """The clamp hook with no certificate: both sides evaluated, in the hook's order."""
    if not bp.upper(k, x) >= 0.0:
        return invert_boundary(bp, k, "lower_edge", hint=x)
    if not bp.lower(k, x) <= 0.0:
        return invert_boundary(bp, k, "upper_edge", hint=x)
    return x


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


@st.composite
def _skewed_cases(draw):
    """An averaged pair over skewed, uncentred offsets, a node and a free value.

    The free value is drawn anywhere, or within ``1e-6`` of a band edge, where
    a linear band (``c == C``) makes the slope bound as tight as it gets.
    """
    lp = draw(_drawn_losses())
    g = mr.build_grid(1.0, draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    sign, sigma = draw(st.sampled_from([-1.0, 1.0])), draw(st.floats(0.1, 1.5))
    skew = sign * rng.lognormal(0.0, sigma, (g.n_nodes, n))
    off = draw(st.floats(-3.0, 3.0)) + draw(st.floats(0.05, 3.0)) * skew
    bp = BoundaryPair(g, lp, off)
    k = draw(st.integers(0, g.n_nodes - 1))
    which = draw(st.sampled_from([None, "lower_edge", "upper_edge"]))
    if which is None:
        x = draw(st.floats(-30.0, 30.0))
    else:
        x = invert_boundary(bp, k, which) + draw(
            st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
        )
    return bp, k, float(x)


@given(_skewed_cases())
def test_a_certified_side_passes_its_evaluated_test(case):
    bp, k, x = case
    sure_r, sure_l, _ = bp._certified(k, x)
    if sure_r:
        assert bp.upper(k, x) >= 0.0
    if sure_l:
        assert bp.lower(k, x) <= 0.0
    # so the hook returns what evaluating both sides returns, bit for bit
    fresh = BoundaryPair(bp.grid, bp.losses, bp.offsets)
    assert _bits(_EdgeFinder(bp)(k, x)) == _bits(_edge_by_evaluation(fresh, k, x))


def test_the_certificate_settles_the_middle_of_a_band_and_skips_no_bare_pair():
    g = mr.build_grid(1.0, 2)
    off = np.random.default_rng(4).normal(0.0, 0.3, (g.n_nodes, 50))
    bp = BoundaryPair(g, mr.saturating_band(-1.0, 2.0), off)
    assert bp._certified(1, 0.5)[:2] == (True, True)
    # on an edge the bound of its side cannot clear zero
    assert bp._certified(1, invert_boundary(bp, 1, "upper_edge"))[:2] == (True, False)
    assert bp._certified(1, invert_boundary(bp, 1, "lower_edge"))[:2] == (False, True)
    # a bare pair is its losses, and a free value that is not finite goes
    # to the inversion, which refuses it
    bare = BoundaryPair(g, mr.saturating_band(-1.0, 2.0))
    assert bare._certified(1, 0.5)[:2] == (False, False)
    for x in (math.nan, math.inf, -math.inf):
        assert bp._certified(1, x)[:2] == (False, False)


@given(_boundary_cases(), st.data())
def test_a_hinted_hook_has_the_outcome_of_a_cold_one(case, data):
    # the clamp hook walks the nodes from the last down, as the backward map
    # does, each side hinted by an edge near its root, on the wrong side of
    # it, at the other edge, at x or not finite, with a slope inside or
    # outside [c, C]: where the cold hook passes x the hinted one returns x,
    # bit for bit, and elsewhere both return the crossed edge to tolerance
    bp, _ = case
    g, lp, off = bp.grid, bp.losses, bp.offsets
    sides = dict(_sides(bp))
    roots = {
        which: [_bisect(lambda x, k=k: side(k, x)) for k in range(g.n_nodes)]
        for which, side in sides.items()
    }
    cold, hinted = _EdgeFinder(BoundaryPair(g, lp, off)), _EdgeFinder(BoundaryPair(g, lp, off))
    slopes = st.one_of(
        st.floats(0.0, 1.0).map(lambda u: lp.c + u * (lp.C - lp.c)),
        st.sampled_from([None, -1.0, 0.0, 0.1 * lp.c, 10.0 * lp.C, math.inf, math.nan]),
    )
    near = st.sampled_from(
        [0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3]
    )
    xtol = max(ROOT_TOL_DEFAULT / max(lp.C, 1.0), 1e-15)
    for k in range(g.n_nodes - 1, -1, -1):
        at_edge = st.tuples(st.sampled_from(sorted(roots)), near).map(lambda p: roots[p[0]][k] + p[1])
        x = data.draw(st.one_of(at_edge, at_edge, st.floats(-30.0, 30.0)))
        for which, other in (("lower_edge", "upper_edge"), ("upper_edge", "lower_edge")):
            delta = st.one_of(near, st.sampled_from([1.0, -1.0]), st.floats(-10.0, 10.0))
            edge = data.draw(
                st.one_of(
                    delta.map(lambda d: roots[which][k] + d),
                    st.sampled_from([x, roots[other][k], math.nan, math.inf, -math.inf]),
                )
            )
            hinted.hints[(k, which)] = (edge, data.draw(slopes))
        want, got = cold(k, x), hinted(k, x)
        if _bits(want) == _bits(x):
            assert _bits(got) == _bits(x)
            continue
        which = "lower_edge" if not cold.bp.upper(k, x) >= 0.0 else "upper_edge"
        root = roots[which][k]
        assert abs(got - root) <= xtol + 4.0 * np.spacing(abs(root))
        assert abs(sides[which](k, got)) <= ROOT_TOL_DEFAULT
    # the hook's record and hints leave the band edges alone
    fresh = BoundaryPair(g, lp, off).band_edges()
    for finder in (cold, hinted):
        for ours, theirs in zip(finder.bp.band_edges(), fresh):
            assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("root_tol", [math.inf, math.nan, 0.0, -1e-12, -math.inf])
def test_invert_boundary_refuses_a_root_tol_that_is_not_positive_and_finite(root_tol):
    # an infinite tolerance would return the hint itself (0.0 for an edge at
    # 1 + sqrt 5), NaN would switch off both stopping tests, and zero or a
    # negative tolerance would fall silently to the 1e-15 floor
    bp = BoundaryPair(mr.build_grid(1.0, 2), mr.saturating_band(-1.0, 2.0))
    assert abs(invert_boundary(bp, 0, "upper_edge") - (1.0 + math.sqrt(5.0))) <= 1e-12
    for which in ("lower_edge", "upper_edge"):
        with pytest.raises(ValueError, match="root_tol"):
            invert_boundary(bp, 0, which, root_tol)


@given(_skewed_cases(), st.data())
def test_the_finder_records_the_bits_of_a_fresh_evaluation_at_each_edge(case, data):
    # the maps' flatness residuals read these values in place of evaluating
    # the pair at the edges the finder returned
    bp = case[0]
    finder = _EdgeFinder(bp)
    near = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-6, -1e-6, 1.0, -1.0])
    for k in range(bp.grid.n_nodes - 1, -1, -1):
        which = data.draw(st.sampled_from(["lower_edge", "upper_edge"]))
        finder(k, invert_boundary(bp, k, which) + data.draw(near))
    fresh = BoundaryPair(bp.grid, bp.losses, bp.offsets)
    for (k, which), (edge, _, value) in finder.found.items():
        side = fresh.upper if which == "lower_edge" else fresh.lower
        assert _bits(value) == _bits(side(k, edge))


def test_an_averaged_pair_evaluates_every_scalar_call_afresh():
    # the pair caches no boundary value: a repeated point calls the loss
    # again and gets the bits it got before
    calls = []
    lp = mr.saturating_band(-1.0, 2.0)

    def counted(f):
        def h(t, x):
            calls.append(np.shape(x))
            return f(t, x)

        return h

    g = mr.build_grid(1.0, 2)
    off = np.random.default_rng(6).normal(0.4, 1.0, (3, 9))
    bp = BoundaryPair(g, dataclasses.replace(lp, L=counted(lp.L), R=counted(lp.R)), off)
    values = [bp.upper(1, x) for x in (0.0, 0.0, -0.0, -0.0, 0.0)]
    assert len(calls) == 5
    assert len({_bits(v) for v in values}) == 1  # x + o gives one sum for either zero
    for side, k in (("upper", 1), ("upper", 2), ("lower", 1), ("upper", 1)):
        fresh = getattr(BoundaryPair(g, lp, off), side)(k, 0.25)
        assert _bits(getattr(bp, side)(k, 0.25)) == _bits(fresh)
    assert len(calls) == 9


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
    # against the (1, 3, 1) envelope holds on any x window.
    env = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    lp = mr.saturating_band(-1.0, 4.0)
    xs = np.linspace(-80.0, 80.0, 161)
    assert np.all(lp.L(0.0, xs) <= xs - 3.0) and np.all(lp.R(0.0, xs) >= xs - 1.0)
    assert check_envelope_order(lp, env, _GRID)


def test_envelope_order_rejects_narrower_band():
    # L = x - 2 lies above x - 3, so the order check must fail
    env = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    assert not check_envelope_order(mr.linear_band(0.0, 2.0), env, _GRID)


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
