"""Grids, Brownian ensembles, deterministic reductions and the 1-D transport
distance."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from oracles import w1_linprog

# a bounded, non-subnormal float strategy; keeps transport arithmetic exact
# enough for if-and-only-if assertions
_vals = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_build_grid_quarters():
    g = mr.build_grid(1.0, 4)
    assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.n_steps == 4 and g.n_nodes == 5


def test_build_grid_minimal():
    g = mr.build_grid(1.0, 1)
    assert_array_equal(g.nodes, [0.0, 1.0])


def test_build_grid_tenths():
    g = mr.build_grid(0.5, 5)
    assert_allclose(g.nodes, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5], rtol=0, atol=1e-16)
    assert g.nodes[-1] == 0.5  # last node exact despite linspace rounding


@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -3)])
def test_build_grid_rejects_bad_arguments(horizon, steps):
    with pytest.raises(ValueError):
        mr.build_grid(horizon, steps)


def test_grid_reversed_nodes_is_ascending_mirror():
    g = mr.build_grid(2.0, 5)
    rev = g.reversed_nodes()
    assert rev[0] == 0.0 and rev[-1] == 2.0
    assert_allclose(rev, 2.0 - g.nodes[::-1], rtol=0, atol=0)


def test_sample_path_length_checked():
    g = mr.build_grid(1.0, 4)
    with pytest.raises(ValueError):
        mr.SamplePath(g, np.zeros(4))  # needs 5 values


def test_ensemble_shape_checked():
    g = mr.build_grid(1.0, 4)
    with pytest.raises(ValueError):
        mr.Ensemble(g, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        mr.Ensemble(g, np.zeros((1, 5)))  # single particle is not a law


# ---------------------------------------------------------------------------
# Brownian ensembles
# ---------------------------------------------------------------------------


def test_brownian_starts_at_zero_and_matches_law():
    g = mr.build_grid(1.0, 16)
    e = mr.simulate_brownian(g, 100_000, mr.RngSpec(314))
    assert_array_equal(e.values[:, 0], 0.0)
    terminal = e.cross_section(g.n_steps)
    # CLT band for the mean of B_T: 4 * sqrt(T/n)
    assert abs(mr.pairwise_mean(terminal)) <= 4.0 * math.sqrt(1.0 / 100_000)
    # the 5% variance window is ~11 standard errors of the variance
    # estimator (relative sd = sqrt(2/n) ~ 0.45%), so a miss is a bug
    assert abs(mr.empirical_std(terminal) ** 2 - 1.0) <= 0.05


def test_brownian_reproducible_bitwise():
    g = mr.build_grid(1.0, 8)
    a = mr.simulate_brownian(g, 257, mr.RngSpec(99, stream=2))
    b = mr.simulate_brownian(g, 257, mr.RngSpec(99, stream=2))
    assert_array_equal(a.values, b.values)


def test_brownian_streams_differ():
    g = mr.build_grid(1.0, 8)
    a = mr.simulate_brownian(g, 64, mr.RngSpec(99, stream=0))
    b = mr.simulate_brownian(g, 64, mr.RngSpec(99, stream=1))
    assert not np.array_equal(a.values, b.values)


def test_brownian_rejects_single_particle():
    with pytest.raises(ValueError):
        mr.simulate_brownian(mr.build_grid(1.0, 4), 1, mr.RngSpec(0))


def test_rng_spec_rejects_oversized_seed():
    with pytest.raises(ValueError):
        mr.RngSpec(2**64)
    with pytest.raises(ValueError):
        mr.RngSpec(-1)


# ---------------------------------------------------------------------------
# deterministic reductions
# ---------------------------------------------------------------------------


def test_empirical_mean_examples():
    g = mr.build_grid(1.0, 1)
    e = mr.Ensemble(g, np.array([[-1.0, -1.0], [1.0, 1.0]]))
    assert mr.empirical_mean(e, 0) == 0.0
    e = mr.Ensemble(g, np.array([[2.0, 2.0]] * 3))
    assert mr.empirical_mean(e, 1) == 2.0
    e = mr.Ensemble(g, np.array([[0.0, 0], [1, 1], [2, 2], [3, 3]], dtype=float))
    assert mr.empirical_mean(e, 0) == 1.5


def test_empirical_mean_node_range_checked():
    g = mr.build_grid(1.0, 1)
    e = mr.Ensemble(g, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        mr.empirical_mean(e, 2)
    with pytest.raises(ValueError):
        mr.empirical_mean(e, -1)


def test_empirical_std_exact_two_point():
    assert mr.empirical_std(np.array([0.0, 2.0])) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1001])
def test_pairwise_sum_matches_fsum(n):
    rng = np.random.default_rng(n)
    a = rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 4, n)
    assert abs(mr.pairwise_sum(a) - math.fsum(a)) <= 1e-10 * (1 + np.abs(a).sum())


def test_pairwise_sum_rejects_empty():
    with pytest.raises(ValueError):
        mr.pairwise_sum(np.array([]))


def test_pairwise_mean_is_length_independent_of_layout():
    # the reduction tree depends only on length, so any (rows, axis) view of
    # the same column data reduces to the same bits
    rng = np.random.default_rng(7)
    a = rng.normal(0, 1, (40, 6))
    col = mr.pairwise_mean(a, axis=0)
    for j in range(6):
        assert col[j] == mr.pairwise_mean(a[:, j])


@pytest.mark.parametrize("n", [1, 7, 8193, 20001])
def test_pairwise_sum_bits_depend_only_on_length(n):
    # lengths either side of numpy's 8192-element reduction buffer; a strided
    # column, its contiguous and F-ordered copies and the axis-0 reduction
    # all sum one contiguous row, serially or on 4 threads at once
    rng = np.random.default_rng(n)
    a = rng.normal(0, 1, (n, 5)) * 10.0 ** rng.integers(-3, 4, (n, 5))
    f = np.asfortranarray(a)

    def sums(j):
        col = mr.pairwise_sum(a, axis=0)[j]
        views = (a[:, j], a[:, j].copy(), f[:, j])
        return [float(v).hex() for v in (col, *map(mr.pairwise_sum, views))]

    serial = [sums(j) for j in range(5)]
    assert all(len(set(row)) == 1 for row in serial)
    with ThreadPoolExecutor(max_workers=4) as pool:
        assert list(pool.map(sums, list(range(5)) * 4)) == serial * 4


# ---------------------------------------------------------------------------
# transport distance
# ---------------------------------------------------------------------------


def test_w1_identity_and_shift():
    a = np.array([0.3, -1.2, 4.0, 0.0])
    assert mr.w1_empirical(a, a) == 0.0
    assert_allclose(mr.w1_empirical(a, a + 2.5), 2.5, rtol=0, atol=1e-15)


def test_w1_two_point_supports():
    # optimal plan pairs 0->1 and 2->3 (cost 1); the crossed plan costs 2.
    # frozen from the transport LP oracle, asserted against it too.
    a, b = np.array([0.0, 2.0]), np.array([1.0, 3.0])
    assert mr.w1_empirical(a, b) == 1.0
    assert_allclose(w1_linprog(a, b), 1.0, rtol=0, atol=1e-9)


def test_w1_matches_transport_lp_on_random_clouds():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        n = int(rng.integers(2, 33))
        a = rng.normal(0, 2, n)
        b = rng.normal(rng.uniform(-1, 1), 1.5, n)
        assert abs(mr.w1_empirical(a, b) - w1_linprog(a, b)) <= 1e-9


def test_w1_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        mr.w1_empirical(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mr.w1_empirical(np.zeros(0), np.zeros(0))


@given(st.lists(st.tuples(_vals, _vals), min_size=1, max_size=25))
def test_w1_symmetry_and_zero_iff(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    d_ab = mr.w1_empirical(a, b)
    assert d_ab == mr.w1_empirical(b, a)
    assert d_ab >= 0.0
    if np.array_equal(np.sort(a), np.sort(b)):
        assert d_ab == 0.0
    else:
        assert d_ab > 0.0


@given(st.lists(st.tuples(_vals, _vals, _vals), min_size=1, max_size=25))
def test_w1_triangle_inequality(triples):
    a = np.array([p[0] for p in triples])
    b = np.array([p[1] for p in triples])
    c = np.array([p[2] for p in triples])
    lhs = mr.w1_empirical(a, c)
    rhs = mr.w1_empirical(a, b) + mr.w1_empirical(b, c)
    assert lhs <= rhs + 1e-9 * (1.0 + rhs)
