"""Time grids, path containers, Brownian ensembles and deterministic statistics.

Everything downstream (reflection maps, backward-SDE solvers, penalty scheme)
works on the three containers defined here: a :class:`TimeGrid`, a single
:class:`SamplePath` on it, and an :class:`Ensemble` of aligned paths whose
cross-sections stand in for the marginal laws of the solution.

All ensemble statistics go through a fixed pairwise (binary tree) summation so
that results are bit-identical regardless of how many worker threads the caller
uses: elementwise adds in a fixed order never reorder, unlike BLAS reductions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "TimeGrid",
    "SamplePath",
    "Ensemble",
    "RngSpec",
    "build_grid",
    "simulate_brownian",
    "empirical_mean",
    "empirical_std",
    "stat_tol",
    "ensemble_means",
    "pairwise_sum",
    "pairwise_mean",
    "w1_empirical",
]


# ---------------------------------------------------------------------------
# deterministic reductions
# ---------------------------------------------------------------------------


def pairwise_sum(values: NDArray[np.floating], axis: int = -1) -> NDArray[np.floating]:
    """Sum along ``axis`` with a fixed left-to-right pairwise tree.

    The reduction order is a property of the array length only, so serial and
    threaded callers get the same bits.  Cost is ~2x a naive sum.
    """
    a = np.asarray(values, dtype=float)
    if a.shape[axis] == 0:
        raise ValueError("pairwise_sum of an empty axis")
    a = np.moveaxis(a, axis, -1)
    while a.shape[-1] > 1:
        n = a.shape[-1]
        if n % 2:
            head = a[..., : n - 1 : 2] + a[..., 1:n:2]
            a = np.concatenate([head, a[..., n - 1 :]], axis=-1)
        else:
            a = a[..., ::2] + a[..., 1::2]
    return a[..., 0]


def pairwise_mean(values: NDArray[np.floating], axis: int = -1) -> NDArray[np.floating]:
    """Arithmetic mean via :func:`pairwise_sum`."""
    a = np.asarray(values, dtype=float)
    return pairwise_sum(a, axis=axis) / a.shape[axis]


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Ascending time axis on [0, horizon].

    ``nodes`` must start at 0, end at ``horizon`` and be strictly increasing;
    paths are interpreted piecewise-linearly between nodes.
    """

    horizon: float
    nodes: NDArray[np.floating]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least 2 nodes")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at 0")
        if nodes[-1] != self.horizon:
            raise ValueError("last node must equal the horizon")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def n_steps(self) -> int:
        return int(self.nodes.size - 1)

    @property
    def step_sizes(self) -> NDArray[np.floating]:
        return np.diff(self.nodes)

    def reversed_nodes(self) -> NDArray[np.floating]:
        """Node times of the time-reversed grid t -> horizon - t (ascending)."""
        return self.horizon - self.nodes[::-1]


@dataclass(frozen=True)
class SamplePath:
    """One real value per grid node."""

    grid: TimeGrid
    values: NDArray[np.floating]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"path has {values.shape} values for {self.grid.n_nodes} nodes"
            )


@dataclass(frozen=True)
class Ensemble:
    """N aligned sample paths; cross-sections are empirical marginal laws.

    ``values`` is (particles, nodes).  The container is immutable; solvers
    build new ensembles instead of mutating.
    """

    grid: TimeGrid
    values: NDArray[np.floating]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != self.grid.n_nodes:
            raise ValueError("ensemble values must be (particles, nodes)")
        if values.shape[0] < 2:
            raise ValueError("an ensemble needs at least 2 particles")

    @property
    def particle_count(self) -> int:
        return int(self.values.shape[0])

    def cross_section(self, node: int) -> NDArray[np.floating]:
        """The empirical law at one node (a view, do not mutate)."""
        self._check_node(node)
        return self.values[:, node]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.grid.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.grid.n_nodes})")


@dataclass(frozen=True)
class RngSpec:
    """Reproducible randomness: a 64-bit seed plus a consumer stream id.

    Particles are rows of the stream's draw, in a fixed row-major layout, so a
    given (seed, stream, grid, N) always reproduces the same ensemble bit for
    bit.  Distinct ``stream`` values give statistically independent draws for
    independent consumers (e.g. a validation re-run).
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream),))
        return np.random.Generator(np.random.PCG64(ss))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def build_grid(horizon: float, steps: int) -> TimeGrid:
    """Uniform grid with ``steps + 1`` nodes on [0, horizon].

    Parameters
    ----------
    horizon:
        Final time T > 0.
    steps:
        Number of uniform steps (>= 1).
    """
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if int(steps) < 1 or steps != int(steps):
        raise ValueError("steps must be a positive integer")
    nodes = np.linspace(0.0, float(horizon), int(steps) + 1)
    nodes[-1] = float(horizon)  # guard against linspace rounding at the end
    return TimeGrid(float(horizon), nodes)


def simulate_brownian(grid: TimeGrid, n: int, rng: RngSpec) -> Ensemble:
    """Simulate ``n`` standard Brownian paths on ``grid``.

    Increments are independent N(0, dt) per step; every path starts at 0.
    """
    if n < 2:
        raise ValueError("need at least 2 particles")
    gen = rng.generator()
    dt = grid.step_sizes
    increments = gen.standard_normal((int(n), grid.n_steps)) * np.sqrt(dt)
    values = np.empty((int(n), grid.n_nodes))
    values[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=values[:, 1:])
    return Ensemble(grid, values)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def empirical_mean(e: Ensemble, node: int) -> float:
    """Mean of the cross-section at ``node`` (deterministic reduction order)."""
    e._check_node(node)
    return float(pairwise_mean(e.values[:, node]))


def empirical_std(values: NDArray[np.floating]) -> float:
    """Population standard deviation with the same deterministic reduction."""
    a = np.asarray(values, dtype=float)
    m = pairwise_mean(a)
    var = pairwise_mean((a - m) ** 2)
    return float(np.sqrt(var))


def stat_tol(values: NDArray[np.floating], mult: float = 4.0) -> float:
    """Statistical tolerance ``mult * sigma / sqrt(N)`` for a cross-section."""
    values = np.asarray(values, dtype=float)
    return float(mult) * empirical_std(values) / math.sqrt(values.size)


def ensemble_means(e: Ensemble) -> NDArray[np.floating]:
    """Mean path of an ensemble: one pairwise mean per node."""
    return pairwise_mean(e.values, axis=0)


def w1_empirical(a: NDArray[np.floating], b: NDArray[np.floating]) -> float:
    """1-Wasserstein distance between two equal-size empirical laws.

    In one dimension the optimal coupling pairs sorted samples, so the
    distance is exactly the mean absolute difference after sorting.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("w1_empirical expects 1-d sample arrays")
    if a.size != b.size or a.size == 0:
        raise ValueError("w1_empirical needs equal-length non-empty samples")
    gap = np.abs(np.sort(a) - np.sort(b))
    return float(pairwise_mean(gap))
