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

A seed's Brownian draw is one row-major ``standard_normal`` stream, one row
per particle, consumed in blocks of rows through one reused buffer: into an
F-ordered ensemble by :func:`simulate_brownian`, or into the terminal
cross-section alone, with the same bits, for a caller that reads nothing
else.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from numbers import Integral

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


def _require_int(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is an integer >= ``minimum``.

    bools and floats are refused, even integral ones: a count must not be
    truncated or read from a flag.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimeGrid:
    """Ascending time axis; its nodes are the clock, its last node the ``horizon``.

    ``nodes`` must be finite and strictly increasing, with a positive last
    node; they may start anywhere, so a segment of a longer grid keeps its
    own node times.  Generators and losses are evaluated at these times, and
    paths are interpreted piecewise-linearly between nodes.
    """

    nodes: NDArray[np.floating]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least 2 nodes")
        # Strictly increasing (NaN fails) between finite ends is finite throughout.
        ok = (nodes[1:] > nodes[:-1]).all() and -math.inf < nodes[0] and nodes[-1] < math.inf
        if not ok and not np.isfinite(nodes).all():
            raise ValueError("grid nodes must be finite")
        if not ok:
            raise ValueError("nodes must be strictly increasing")
        if not nodes[-1] > 0.0:
            raise ValueError("horizon must be positive")

    @property
    def horizon(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def n_steps(self) -> int:
        return int(self.nodes.size - 1)

    @property
    def step_sizes(self) -> NDArray[np.floating]:
        return self.nodes[1:] - self.nodes[:-1]  # np.diff's bits, without its overhead


@dataclass(frozen=True)
class SamplePath:
    """One real value per grid node."""

    grid: TimeGrid
    values: NDArray[np.floating]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError(
                f"path has {values.shape} values for {self.grid.n_nodes} nodes"
            )

    @classmethod
    def _trusted(cls, grid: TimeGrid, values: NDArray[np.floating]) -> SamplePath:
        """A path of a float array already shaped like ``grid``'s nodes, built without checks."""
        path = object.__new__(cls)
        path.__dict__.update(grid=grid, values=values)
        return path


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


@dataclass(frozen=True)
class RngSpec:
    """Reproducible randomness: a 64-bit seed.

    Particles are rows of the seed's draw, which stays row-major whatever
    the ensemble's storage order and is consumed in row blocks of a fixed
    size, so a given (seed, grid, N) always reproduces the same ensemble bit
    for bit.
    """

    seed: int

    def __post_init__(self):
        if not _require_int(self.seed, "seed", 0) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(0,))
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
    n, h = _require_int(steps, "steps", 1), float(horizon)
    # np.linspace(0.0, h, n + 1)'s steps, without its overhead: k * (h / n), or,
    # where h / n underflows to 0, (k / n) * h; its "+ 0.0" moves no bit here.
    nodes = np.arange(n + 1, dtype=float)
    step = h / n
    if step == 0.0:
        nodes /= n
        nodes *= h
    else:
        nodes *= step
    nodes[-1] = h  # linspace pins the end, too
    return TimeGrid(nodes)


# Rows of the seed's draw held at once: one (block, steps) buffer is reused.
_DRAW_BLOCK = 4096


def _increment_blocks(
    grid: TimeGrid, n: int, rng: RngSpec
) -> Iterator[tuple[int, NDArray[np.floating]]]:
    """Yield ``(start, increments)`` for consecutive blocks of the seed's draw.

    ``increments`` holds rows ``start .. start + len(increments)`` of the
    row-major (n, steps) ``standard_normal`` draw scaled by ``sqrt(dt)``, with
    the bits of drawing and scaling it whole.  It is one reused buffer, valid
    until the next block is drawn.
    """
    gen = rng.generator()
    scale = np.sqrt(grid.step_sizes)
    buf = np.empty((min(n, _DRAW_BLOCK), grid.n_steps))
    for start in range(0, n, _DRAW_BLOCK):
        blk = buf[: min(_DRAW_BLOCK, n - start)]
        gen.standard_normal(out=blk)
        blk *= scale
        yield start, blk


def simulate_brownian(grid: TimeGrid, n: int, rng: RngSpec) -> Ensemble:
    """Simulate ``n`` standard Brownian paths on ``grid``.

    Increments are independent N(0, dt) per step; every path starts at 0.
    The row-major draw is consumed in row blocks, each summed along its rows
    straight into the ensemble, so no full-size draw is ever held.
    """
    n = _require_int(n, "particle count", 2)
    values = np.empty((n, grid.n_nodes), order="F")
    values[:, 0] = 0.0
    for start, blk in _increment_blocks(grid, n, rng):
        np.cumsum(blk, axis=1, out=values[start : start + len(blk), 1:])
    return Ensemble(grid, values)


def _brownian_terminal(grid: TimeGrid, n: int, rng: RngSpec) -> NDArray[np.floating]:
    """``B_T`` of :func:`simulate_brownian`'s paths, bit for bit, without the paths.

    Each block's increments are added left to right, the order of the row
    ``cumsum`` whose last entry is ``B_T``.
    """
    n = _require_int(n, "particle count", 2)
    b_t = np.empty(n)
    for start, blk in _increment_blocks(grid, n, rng):
        acc = b_t[start : start + len(blk)]
        acc[:] = blk[:, 0]
        for j in range(1, blk.shape[1]):
            acc += blk[:, j]
    return b_t


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def empirical_std(values: NDArray[np.floating]) -> float:
    """Population standard deviation with the same deterministic reduction."""
    a = np.asarray(values, dtype=float)
    m = pairwise_mean(a)
    var = pairwise_mean((a - m) ** 2)
    return float(np.sqrt(var))


# Sigmas of the Monte Carlo test wherever an expectation meets a hard constraint.
STAT_TOL_MULT = 4.0


def stat_tol(values: NDArray[np.floating]) -> float:
    """Statistical tolerance ``STAT_TOL_MULT * sigma / sqrt(N)`` for a cross-section."""
    values = np.asarray(values, dtype=float)
    return STAT_TOL_MULT * empirical_std(values) / math.sqrt(values.size)


def ensemble_means(e: Ensemble) -> NDArray[np.floating]:
    """Mean path of an ensemble: one pairwise mean per node.

    The transpose of the F-ordered values is C-contiguous, so the axis-0
    reduction copies nothing and sums each node's column as one row.
    """
    return pairwise_mean(e.values, axis=0)
