"""Time grids, path containers, Brownian ensembles and deterministic statistics.

Everything downstream (reflection maps, backward-SDE solvers, penalty scheme)
works on the three containers defined here: a :class:`TimeGrid`, a single
:class:`SamplePath` on it, and an :class:`Ensemble` of aligned paths whose
cross-sections stand in for the marginal laws of the solution.

Ensemble values are stored column-major, so each node's cross-section -- the
law every solver loop reads -- is one contiguous block of memory.  All
ensemble statistics go through :func:`pairwise_sum`: numpy's pairwise
``add.reduce`` along a contiguous row.  Its order depends only on the row
length, so for a given numpy build the bits never depend on layout or on how
many worker threads the caller uses, unlike BLAS reductions.
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
    "empirical_std",
    "stat_tol",
    "ensemble_means",
    "pairwise_sum",
    "pairwise_mean",
]


# ---------------------------------------------------------------------------
# deterministic reductions
# ---------------------------------------------------------------------------


def pairwise_sum(values: NDArray[np.floating], axis: int = -1) -> NDArray[np.floating]:
    """Sum along ``axis`` with numpy's pairwise ``add.reduce`` over contiguous rows.

    ``axis`` is moved last and copied contiguous first, so the summation order
    is a property of the length only: a strided view, its contiguous copy and
    any row of a 2-D array reduce to the same bits, on any thread.
    """
    a = np.asarray(values, dtype=float)
    if a.shape[axis] == 0:
        raise ValueError("pairwise_sum of an empty axis")
    if a.ndim == 1 and a.flags.c_contiguous:  # a node's column: already a contiguous row
        return np.add.reduce(a)
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(a, axis, -1)), axis=-1)


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

    ``values`` is (particles, nodes) and F-contiguous, so every cross-section
    ``values[:, k]`` is a contiguous column; a C-ordered input is copied once.
    The container is immutable; solvers build new ensembles instead of mutating.
    """

    grid: TimeGrid
    values: NDArray[np.floating]

    def __post_init__(self):
        values = np.asfortranarray(self.values, dtype=float)
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
        if not 0 <= node < self.grid.n_nodes:
            raise ValueError(f"node {node} out of range [0, {self.grid.n_nodes})")
        return self.values[:, node]


@dataclass(frozen=True)
class RngSpec:
    """Reproducible randomness: a 64-bit seed plus a consumer stream id.

    Particles are rows of the stream's draw, which stays row-major whatever
    the ensemble's storage order, so a given (seed, stream, grid, N) always
    reproduces the same ensemble bit for bit.  Distinct ``stream`` values give
    statistically independent draws for independent consumers (e.g. a
    validation re-run).
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
    values = np.empty((int(n), grid.n_nodes), order="F")
    values[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=values[:, 1:])
    return Ensemble(grid, values)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


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
    """Mean path of an ensemble: one pairwise mean per node.

    The transpose of the F-ordered values is C-contiguous, so the axis-0
    reduction copies nothing and sums each node's column as one row.
    """
    return pairwise_mean(e.values, axis=0)
