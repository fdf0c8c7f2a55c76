"""Grids, Brownian ensembles and deterministic reductions."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import meanreflect as mr
from meanreflect import core
from conftest import peak_bytes


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


@pytest.mark.parametrize(
    "nodes",
    [
        [0.0, math.nan, 1.0],
        [0.0, 1.0, math.inf],
        [-math.inf, 0.5, 1.0],
        [0.0, math.inf, 1.0],
        [0.0, 1.0, math.nan],
    ],
    ids=["nan-inside", "inf-end", "minus-inf-start", "inf-inside", "nan-end"],
)
def test_grid_rejects_non_finite_nodes(nodes):
    # a NaN node used to pass every check, and simulate_brownian on it drew NaN paths
    with pytest.raises(ValueError, match="finite"):
        mr.TimeGrid(np.array(nodes))


@pytest.mark.parametrize("horizon", [1.0, 0.5, 3.0, 7.3, 1e-3, 1e300, 1e-310, 5e-324])
def test_build_grid_has_the_bits_of_linspace(horizon):
    # the grid is np.linspace(0, T, n + 1) with its end pinned to T, bit for
    # bit, subnormal steps included
    for steps in (1, 2, 3, 7, 20, 32, 40, 64, 96, 1000):
        ref = np.linspace(0.0, horizon, steps + 1)
        ref[-1] = horizon
        try:
            nodes = mr.build_grid(horizon, steps).nodes
        except ValueError:  # a step that rounds to 0: linspace's nodes do not increase
            assert not np.all(np.diff(ref) > 0.0)
            continue
        assert nodes.tobytes() == ref.tobytes()
        assert mr.TimeGrid(nodes).step_sizes.tobytes() == np.diff(ref).tobytes()


@pytest.mark.parametrize(
    "nodes", [[0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5]], ids=["repeated", "decreasing"]
)
def test_grid_rejects_nodes_that_do_not_increase(nodes):
    with pytest.raises(ValueError, match="strictly increasing"):
        mr.TimeGrid(np.array(nodes))


def test_grid_may_start_anywhere():
    g = mr.TimeGrid(np.array([0.5, 0.625, 0.75, 1.0]))
    assert g.n_steps == 3 and g.horizon == 1.0
    assert_array_equal(g.step_sizes, [0.125, 0.125, 0.25])
    with pytest.raises(ValueError, match="horizon must be positive"):
        mr.TimeGrid(np.array([-1.0, -0.5, 0.0]))


def _scenario_with(**kw):
    base = dict(
        horizon=1.0, steps=4, particles=64, rng=mr.RngSpec(1), terminal=lambda b: b,
        generator=mr.constant_generator(0.0),
    )
    return mr.Scenario(**dict(base, **kw))


@pytest.mark.parametrize(
    "build",
    [
        lambda: _scenario_with(particles=100.5),
        lambda: _scenario_with(particles=100.0),
        lambda: _scenario_with(particles=True),
        lambda: _scenario_with(steps=True),
        lambda: _scenario_with(steps=2.5),
        lambda: _scenario_with(steps=0),
        lambda: mr.simulate_brownian(mr.build_grid(1.0, 4), 100.5, mr.RngSpec(0)),
        lambda: mr.simulate_brownian(mr.build_grid(1.0, 4), 1, mr.RngSpec(0)),
        lambda: mr.build_grid(1.0, True),
        lambda: mr.build_grid(1.0, 4.0),
        lambda: mr.RngSpec(seed=1.5),
        lambda: mr.RngSpec(seed=True),
        lambda: mr.RngSpec(seed=-1),
        lambda: mr.RegressionConfig(degree=2.0),
        lambda: mr.Tolerances(max_iterations=True),
    ],
    ids=[
        "scenario-particles-100.5", "scenario-particles-100.0", "scenario-particles-True",
        "scenario-steps-True", "scenario-steps-2.5", "scenario-steps-0", "brownian-n-100.5",
        "brownian-n-1", "grid-steps-True", "grid-steps-4.0", "seed-1.5", "seed-True", "seed--1",
        "degree-2.0", "max_iterations-True",
    ],
)
def test_counts_must_be_integers(build):
    # a count is never truncated or read from a flag: particles=100.5 used to
    # solve with 100 particles and steps=True on a one-step grid
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def _loss_pair(c=1.0, C=1.0, gap=1.0):
    return mr.LossPair(L=lambda t, x: x - 1.0, R=lambda t, x: x, c=c, C=C, gap=gap)


def _envelope_paths(b=1.0, p=3.0, q=1.0):
    env = mr.LinearEnvelope(b=lambda t: b, p=lambda t: p, q=lambda t: q)
    return env.ratio_paths(np.array([0.0, 0.5, 1.0]))


_NAN, _INF = math.nan, math.inf
_NON_FINITE = {
    "generator-lam-nan": lambda: mr.Generator("lipschitz", lambda *a: 0.0, lam=_NAN),
    "generator-lam-inf": lambda: mr.Generator("lipschitz", lambda *a: 0.0, lam=_INF),
    "quadratic-gamma-nan": lambda: mr.quadratic_z_generator(_NAN),
    "quadratic-gamma-inf": lambda: mr.quadratic_z_generator(_INF),
    "losses-c-nan": lambda: _loss_pair(c=_NAN),
    "losses-C-nan": lambda: _loss_pair(C=_NAN),
    "losses-C-inf": lambda: _loss_pair(C=_INF),
    "losses-gap-nan": lambda: _loss_pair(gap=_NAN),
    "losses-gap-inf": lambda: _loss_pair(gap=_INF),
    "envelope-b-nan": lambda: mr.LinearEnvelope.constants(_NAN, 3.0, 1.0),
    "envelope-b-inf": lambda: mr.LinearEnvelope.constants(_INF, 3.0, 1.0),
    "envelope-p-nan": lambda: mr.LinearEnvelope.constants(1.0, _NAN, 1.0),
    "envelope-p-inf": lambda: mr.LinearEnvelope.constants(1.0, _INF, 1.0),
    "envelope-q-nan": lambda: mr.LinearEnvelope.constants(1.0, 3.0, _NAN),
    "envelope-q--inf": lambda: mr.LinearEnvelope.constants(1.0, 3.0, -_INF),
    "ratio-paths-b-nan": lambda: _envelope_paths(b=_NAN),
    "ratio-paths-b-inf": lambda: _envelope_paths(b=_INF),
    "ratio-paths-p-nan": lambda: _envelope_paths(p=_NAN),
    "ratio-paths-p-inf": lambda: _envelope_paths(p=_INF),
    "ratio-paths-q-nan": lambda: _envelope_paths(q=_NAN),
    "ratio-paths-q--inf": lambda: _envelope_paths(q=-_INF),
    "scenario-horizon-nan": lambda: _scenario_with(horizon=_NAN),
    "scenario-horizon-inf": lambda: _scenario_with(horizon=_INF),
}


@pytest.mark.parametrize("build", list(_NON_FINITE.values()), ids=list(_NON_FINITE))
def test_constructors_refuse_non_finite_values(build):
    # each check is written "not in range"; a NaN used to pass every one of
    # them, e.g. LinearEnvelope.constants(nan, 3, 1) reached picard_solve
    with pytest.raises(ValueError, match="finite"):
        build()


def test_numpy_integer_counts_are_accepted():
    sc = _scenario_with(steps=np.int64(4), particles=np.int32(64), rng=mr.RngSpec(np.uint64(1)))
    e = mr.simulate_brownian(mr.build_grid(1.0, np.int64(4)), np.int64(64), mr.RngSpec(1))
    assert_array_equal(sc.simulate().values, e.values)
    assert type(mr.RngSpec(np.uint64(2**64 - 1)).generator()) is np.random.Generator


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


def test_ensemble_values_are_f_contiguous_and_never_recopied():
    g = mr.build_grid(1.0, 4)
    e = mr.simulate_brownian(g, 33, mr.RngSpec(5))
    assert e.values.flags.f_contiguous
    assert mr.Ensemble(g, e.values).values is e.values
    c = np.ascontiguousarray(e.values)  # a C-ordered copy is accepted, copied once
    again = mr.Ensemble(g, c)
    assert again.values.flags.f_contiguous and not np.shares_memory(again.values, c)
    assert_array_equal(again.values, e.values)


# ---------------------------------------------------------------------------
# Brownian ensembles
# ---------------------------------------------------------------------------


def test_brownian_starts_at_zero_and_matches_law():
    g = mr.build_grid(1.0, 16)
    e = mr.simulate_brownian(g, 100_000, mr.RngSpec(314))
    assert_array_equal(e.values[:, 0], 0.0)
    terminal = e.values[:, g.n_steps]
    # CLT band for the mean of B_T: 4 * sqrt(T/n)
    assert abs(mr.pairwise_mean(terminal)) <= 4.0 * math.sqrt(1.0 / 100_000)
    # the 5% variance window is ~11 standard errors of the variance
    # estimator (relative sd = sqrt(2/n) ~ 0.45%), so a miss is a bug
    assert abs(mr.empirical_std(terminal) ** 2 - 1.0) <= 0.05


def test_brownian_reproducible_bitwise():
    g = mr.build_grid(1.0, 8)
    a = mr.simulate_brownian(g, 257, mr.RngSpec(99))
    b = mr.simulate_brownian(g, 257, mr.RngSpec(99))
    assert_array_equal(a.values, b.values)


@pytest.mark.parametrize(
    "n,steps",
    [(2, 1), (257, 8), (20_001, 3), (4095, 5), (4096, 5), (4097, 5), (3 * 4096 + 1, 2)],
)
def test_brownian_bytes_match_a_row_major_reference(n, steps):
    # the draw stays row-major: each particle keeps its own row of draws
    g = mr.build_grid(0.7, steps)
    rng = mr.RngSpec(99)
    inc = rng.generator().standard_normal((n, steps)) * np.sqrt(g.step_sizes)
    ref = np.hstack([np.zeros((n, 1)), np.cumsum(inc, axis=1)])
    assert mr.simulate_brownian(g, n, rng).values.tobytes(order="C") == ref.tobytes()


_TERMINAL_GRIDS = [
    mr.build_grid(0.7, 6),
    mr.build_grid(1.0, 1),
    mr.TimeGrid(np.array([0.1, 0.15, 0.4, 0.41, 1.3])),
]


@pytest.mark.parametrize("n", [2, 4095, 4096, 4097, 3 * 4096 + 1])
@pytest.mark.parametrize("grid", _TERMINAL_GRIDS, ids=["uniform", "one-step", "non-uniform"])
def test_terminal_draw_is_the_ensembles_last_column_bitwise(grid, n):
    # the sweep reads B_T alone; it must be the B_T every solve of its scenario sees
    rng = mr.RngSpec(99)
    last = mr.simulate_brownian(grid, n, rng).values[:, -1]
    assert core._brownian_terminal(grid, n, rng).tobytes() == last.tobytes()


def test_brownian_holds_no_full_size_draw_beside_the_ensemble():
    # in (particles, nodes) arrays of 20k x 21 doubles: the ensemble itself
    # plus one block of increments
    grid = mr.build_grid(1.0, 20)
    array = 20_000 * grid.n_nodes * 8
    _, peak = peak_bytes(lambda: mr.simulate_brownian(grid, 20_000, mr.RngSpec(1)))
    assert peak <= 1.3 * array, peak / array


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


def test_empirical_std_exact_two_point():
    assert mr.empirical_std(np.array([0.0, 2.0])) == 1.0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1001])
def test_pairwise_sum_matches_fsum(n):
    rng = np.random.default_rng(n)
    a = rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 4, n)
    assert abs(mr.pairwise_sum(a) - math.fsum(a)) <= 1e-10 * (1 + np.abs(a).sum())


def test_pairwise_sum_rejects_empty():
    for empty in (np.array([]), np.zeros((3, 0)), np.zeros((0, 3)).T):
        with pytest.raises(ValueError):
            mr.pairwise_sum(empty)


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


def test_pairwise_sum_fast_path_matches_the_general_path():
    # a contiguous column takes the 1-D fast path; the strided column, the
    # 2-D axis-0 reduction and a one-row 2-D array take the general path
    for n in [*range(1, 301), 20_000]:
        rng = np.random.default_rng(n)
        a = rng.normal(0, 1, (n, 3)) * 10.0 ** rng.integers(-3, 4, (n, 3))
        f = np.asfortranarray(a)
        axis0 = mr.pairwise_sum(a, axis=0)
        for j in range(3):
            sums = (
                mr.pairwise_sum(f[:, j]),
                mr.pairwise_sum(a[:, j]),
                axis0[j],
                mr.pairwise_sum(f[:, j][None, :])[0],
            )
            assert len({float(v).hex() for v in sums}) == 1, (n, j)


def test_ensemble_means_match_the_axis_0_reduction_bytes():
    rng = np.random.default_rng(3)
    g = mr.build_grid(1.0, 6)
    e = mr.Ensemble(g, rng.normal(0, 1, (8193, 7)) * 10.0 ** rng.integers(-3, 4, (8193, 7)))
    means = mr.ensemble_means(e)
    assert means.shape == (7,) and means.dtype == np.float64
    assert means.tobytes() == mr.pairwise_mean(e.values, axis=0).tobytes()


def test_ensemble_means_never_copy_the_whole_ensemble():
    # 20k x 41 doubles are 6.26 MiB; one column is 0.15 MiB
    e = mr.simulate_brownian(mr.build_grid(1.0, 40), 20_000, mr.RngSpec(1))
    _, peak = peak_bytes(lambda: mr.ensemble_means(e))
    assert peak < 2**20
