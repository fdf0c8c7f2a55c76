"""Unreflected backward solver: terminal exactness, closed forms, generators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect import bsde
from meanreflect.errors import NumericalFailureError
from oracles import cole_hopf_value


def _brownian(steps=20, n=20_000, seed=77):
    return mr.simulate_brownian(mr.build_grid(1.0, steps), n, mr.RngSpec(seed))


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


def test_generator_mode_and_constants_validated():
    with pytest.raises(ValueError):
        mr.Generator("sideways", lambda *a: 0.0, lam=1.0)
    with pytest.raises(ValueError):
        mr.Generator("lipschitz", lambda *a: 0.0, lam=-1.0)
    with pytest.raises(ValueError):
        mr.quadratic_z_generator(0.0)


def test_quadratic_mode_rejects_z_law_dependence():
    with pytest.raises(ValueError):
        mr.Generator(
            "quadratic",
            lambda t, y, my, z, mz: 0.5 * np.asarray(z) ** 2,
            lam=0.0,
            depends_on_z_law=True,
        )
    # the lipschitz factory may depend on the z law, and must say so
    gen = mr.affine_mix_generator(a_mean_z=0.5)
    assert gen.depends_on_z_law


def test_regression_config_validated():
    with pytest.raises(ValueError):
        mr.RegressionConfig(degree=-1)
    with pytest.raises(ValueError):
        mr.RegressionConfig(ridge=-1e-3)
    # z is always estimated: there is no switch to turn it off
    with pytest.raises(TypeError):
        mr.RegressionConfig(z_mode="none")


@pytest.mark.parametrize("bad", [2.5, 3.0, True, False, "3", None])
def test_regression_degree_must_be_an_integer(bad):
    # range() would otherwise fail deep inside the solve with a TypeError
    with pytest.raises(ValueError, match="degree must be an integer"):
        mr.RegressionConfig(degree=bad)
    assert mr.RegressionConfig(degree=np.int64(3)).degree == 3


def test_solver_input_alignment_checked():
    bm = _brownian(steps=4, n=16)
    with pytest.raises(ValueError):
        mr.solve_bsde(np.zeros(15), mr.constant_generator(0.0), bm)
    with pytest.raises(ValueError):
        mr.solve_bsde(np.zeros(16), None, bm)  # neither generator nor driver


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_step_raises_naming_the_node():
    bm = _brownian(steps=10, n=2_000)
    with pytest.raises(NumericalFailureError, match=r"non-finite values at node \d+ \(t = "):
        mr.solve_bsde(np.zeros(2_000), mr.constant_generator(1e308), bm)


def test_terminal_cross_section_is_exact():
    bm = _brownian(steps=8, n=512)
    xi = np.sin(bm.values[:, -1])
    sol = mr.solve_bsde(xi, mr.constant_generator(0.0), bm)
    assert_array_equal(sol.y.values[:, -1], xi)


def test_driverless_solution_is_the_martingale():
    bm = _brownian()
    xi = bm.values[:, -1].copy()
    sol = mr.solve_bsde(xi, mr.constant_generator(0.0), bm)
    n = bm.particle_count
    band = 4.0 / math.sqrt(n)
    # y reproduces B at every node in mean...
    mean_err = np.abs(mr.pairwise_mean(sol.y.values - bm.values, axis=0))
    assert np.max(mean_err) <= band
    # ...and z estimates the constant martingale coefficient 1
    zdev = np.abs(mr.pairwise_mean(sol.z.values, axis=0) - 1.0)
    assert np.max(zdev) <= 0.15  # observed 0.072 at this scale


def test_tower_property_for_mean():
    bm = _brownian()
    xi = np.cos(bm.values[:, -1])
    sol = mr.solve_bsde(xi, mr.constant_generator(0.0), bm)
    means = mr.pairwise_mean(sol.y.values, axis=0)
    sigma = mr.empirical_std(xi)
    assert np.max(np.abs(means - means[-1])) <= 4.0 * sigma / math.sqrt(bm.particle_count)


def test_linear_driver_matches_exponential_growth():
    a = 0.5
    bm = _brownian()
    xi = bm.values[:, -1].copy()
    sol = mr.solve_bsde(xi, mr.linear_generator(a), bm)
    target = np.exp(a * (1.0 - bm.grid.nodes))[None, :] * bm.values
    mean_err = np.abs(mr.pairwise_mean(sol.y.values - target, axis=0))
    assert np.max(mean_err) <= 0.03  # observed 0.012: stat band + O(dt) bias


def test_quadratic_driver_matches_exponential_transform():
    bm = mr.simulate_brownian(mr.build_grid(1.0, 20), 30_000, mr.RngSpec(78))
    xi = np.sin(bm.values[:, -1])
    sol = mr.solve_bsde(xi, mr.quadratic_z_generator(1.0), bm, mr.RegressionConfig(degree=5))
    y0 = float(mr.pairwise_mean(sol.y.values[:, 0]))
    ref = cole_hopf_value(1.0, xi)  # same draw, so the noise cancels
    assert abs(y0 - ref) / abs(ref) <= 0.025  # observed 1.08% regression bias


def test_comparison_sanity():
    bm = _brownian(n=10_000)
    xi = np.tanh(bm.values[:, -1])
    lo = mr.solve_bsde(xi, mr.constant_generator(0.0), bm)
    hi = mr.solve_bsde(xi + 0.5, mr.constant_generator(1.0), bm)
    y0_lo = mr.pairwise_mean(lo.y.values[:, 0])
    y0_hi = mr.pairwise_mean(hi.y.values[:, 0])
    assert y0_lo <= y0_hi + 1e-9


def test_single_step_grid_reduces_to_plain_average():
    # one step, constant driver: y_0 = mean(xi) + f * dt exactly (the node-0
    # regression state is degenerate, so the estimator falls back to the mean)
    g = mr.build_grid(1.0, 1)
    bm = mr.Ensemble(g, np.array([[0.0, -1.0], [0.0, 1.0]]))
    sol = mr.solve_bsde(np.array([0.0, 2.0]), mr.constant_generator(3.0), bm)
    assert_allclose(sol.y.values[:, 0], 4.0, rtol=0, atol=1e-12)


def test_solver_is_deterministic():
    bm = _brownian(steps=10, n=4_000)
    xi = np.sin(bm.values[:, -1])
    a = mr.solve_bsde(xi, mr.linear_generator(0.3), bm)
    b = mr.solve_bsde(xi, mr.linear_generator(0.3), bm)
    assert_array_equal(a.y.values, b.y.values)
    assert_array_equal(a.z.values, b.z.values)


# ---------------------------------------------------------------------------
# the regression plan
# ---------------------------------------------------------------------------


def _reference_projection(state, targets, degree, ridge):
    """One self-contained least-squares projection per call.

    Standardize the state, build the monomials, solve the ridged Hankel
    normal system and evaluate each fit by Horner's rule; every mean is one
    pairwise ``add.reduce`` over a contiguous row.
    """
    n = state.size

    def mean(a):
        return np.add.reduce(a) / n

    scale = float(np.sqrt(mean(state * state)))
    if scale < 1e-300:
        return [np.full(n, float(mean(t))) for t in targets]
    u = state / scale
    powers = [np.ones(n)]
    for _ in range(2 * degree):
        powers.append(powers[-1] * u)
    moments = [float(mean(p)) for p in powers]
    gram = np.array([moments[i : i + degree + 1] for i in range(degree + 1)])
    gram[np.diag_indices_from(gram)] += ridge
    rhs = np.array([[float(mean(powers[i] * t)) for t in targets] for i in range(degree + 1)])
    coefs = np.linalg.solve(gram, rhs)
    fits = []
    for j in range(len(targets)):
        fit = np.full(n, coefs[degree, j])
        for i in range(degree - 1, -1, -1):
            fit = fit * u + coefs[i, j]
        fits.append(fit)
    return fits


def _reference_pass(xi, bm, cfg, drift):
    """The backward recursion with one reference projection per node."""
    values, dt = bm.values, bm.grid.step_sizes
    n, m = values.shape
    y = np.empty((n, m), order="F")
    z = np.zeros((n, m), order="F")
    y[:, -1] = xi
    for k in range(m - 2, -1, -1):
        state, y_next = values[:, k], y[:, k + 1]
        db = values[:, k + 1] - state
        pred, z_raw = _reference_projection(state, [y_next, y_next * db], cfg.degree, cfg.ridge)
        zk = z_raw / dt[k]
        y[:, k] = pred + drift(k, pred, zk) * dt[k]
        z[:, k] = zk
    z[:, -1] = z[:, -2]
    return y, z


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    degree=st.integers(0, 5),
    ridge=st.sampled_from([1e-10, 1e-3]),
    particles=st.one_of(st.integers(2, 40), st.integers(41, 3_000)),
    steps=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_plan_driven_pass_matches_the_per_call_projection_bitwise(
    degree, ridge, particles, steps, seed, data
):
    # the plan caches only the state's scale and Gram matrix per node; the
    # pass must reproduce the per-call projection bit for bit, on the full
    # grid (node 0 is degenerate) and on a node slice of the same plan
    cfg = mr.RegressionConfig(degree=degree, ridge=ridge)
    bm = mr.simulate_brownian(mr.build_grid(1.0, steps), particles, mr.RngSpec(seed))
    plan = bsde.RegressionPlan.build(bm, cfg)
    assert plan.scales[0] is None
    a = data.draw(st.integers(0, steps - 1), label="a")
    b = data.draw(st.integers(a + 1, steps), label="b")
    nodes = bm.grid.nodes
    # the segment grid keeps its own node times, as picard_solve cuts it
    sub = mr.Ensemble(mr.TimeGrid(float(nodes[b]), nodes[a : b + 1]), bm.values[:, a : b + 1])

    def drift(k, pred, zk):
        return 0.5 * pred + 0.25 * zk + 1.0

    cases = [
        (bm, plan, np.sin(3.0 * bm.values[:, -1])),
        (sub, plan.steps(a, b), np.cos(2.0 * bm.values[:, b])),
    ]
    for ens, p, xi in cases:
        try:
            ref = _reference_pass(xi, ens, cfg, drift)
        except np.linalg.LinAlgError:
            ref = None
        if ref is None or not all(np.isfinite(r).all() for r in ref):
            with pytest.raises(NumericalFailureError):
                bsde._backward_pass(xi, ens, p, drift)
            continue
        sol = bsde._backward_pass(xi, ens, p, drift)
        assert sol.y.values.tobytes() == ref[0].tobytes()
        assert sol.z.values.tobytes() == ref[1].tobytes()


def test_plan_must_match_the_ensemble():
    bm = _brownian(steps=6, n=64)
    plan = bsde.RegressionPlan.build(bm, mr.RegressionConfig())
    assert len(plan.scales) == len(plan.grams) == 6
    with pytest.raises(ValueError, match="plan"):
        bsde._backward_pass(bm.values[:, -1], bm, plan.steps(0, 4), lambda *_: 0.0)


# ---------------------------------------------------------------------------
# frozen-driver evaluation
# ---------------------------------------------------------------------------


def test_constant_driver_path_constant():
    bm = _brownian(steps=4, n=8)
    vals = mr.constant_driver_path(mr.constant_generator(7.0), bm, bm)
    assert_array_equal(vals, 7.0)


def test_constant_driver_path_mean_of_symmetric_pair():
    g = mr.build_grid(1.0, 2)
    u = mr.Ensemble(g, np.array([[-1.0] * 3, [1.0] * 3]))
    gen = mr.affine_mix_generator(a_mean_y=1.0)
    vals = mr.constant_driver_path(gen, u, u)
    assert_array_equal(vals, 0.0)


def test_constant_driver_path_mixes_value_and_mean():
    # f = y + E[y] on particles {1, 3}: E[y] = 2, drivers {3, 5}
    g = mr.build_grid(1.0, 2)
    u = mr.Ensemble(g, np.array([[1.0] * 3, [3.0] * 3]))
    gen = mr.affine_mix_generator(a_y=1.0, a_mean_y=1.0)
    vals = mr.constant_driver_path(gen, u, u)
    assert_array_equal(vals[0], 3.0)
    assert_array_equal(vals[1], 5.0)


def test_constant_driver_path_respects_shifted_clock():
    # driver f(t) = t on a grid whose clock starts at 5: the nodes are the times
    g = mr.TimeGrid(6.0, np.array([5.0, 5.5, 6.0]))
    u = mr.Ensemble(g, np.zeros((2, 3)))
    gen = mr.Generator("lipschitz", lambda t, y, my, z, mz: np.full_like(np.asarray(y), t), lam=0.0)
    vals = mr.constant_driver_path(gen, u, u)
    assert_array_equal(vals[:, 0], 5.0)
    assert_array_equal(vals[:, 2], 6.0)
