"""Constraint (loss) functions and the mean-level boundaries they induce.

A :class:`LossPair` holds the two strictly-increasing constraint functions
``L`` and ``R`` imposing ``E[L(t, Y_t)] <= 0 <= E[R(t, Y_t)]``, together with
their declared two-sided Lipschitz constants ``(c, C)`` and the minimal gap
between them.  Averaging a loss pair over a recentred ensemble cross-section
produces a deterministic :class:`BoundaryPair` ``l(t, x), r(t, x)`` acting on
the mean level; reflection solvers only ever see boundary pairs.

Roots of the boundaries in ``x`` (the edges of the admissible band for the
mean) are computed by bracketed root-finding: the lower Lipschitz bound ``c``
gives a rigorous bracket radius ``|value|/c`` around any probe point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy.optimize import brentq

from .core import Ensemble, TimeGrid, pairwise_mean
from .errors import NumericalFailureError

__all__ = [
    "LossPair",
    "BoundaryPair",
    "LinearEnvelope",
    "LinearObstacles",
    "LossValidation",
    "linear_band",
    "saturating_band",
    "validate_loss",
    "make_mean_boundary",
    "boundary_from_losses",
    "invert_boundary",
    "check_envelope_order",
]

ROOT_TOL_DEFAULT = 1e-12
BAND_MIN_DEFAULT = 1e-9


# ---------------------------------------------------------------------------
# loss pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossPair:
    """Two-sided constraint functions with declared regularity constants.

    ``L`` and ``R`` map ``(t, x)`` to a real (vectorized in ``x``); both must
    be strictly increasing in ``x`` with slopes in ``[c, C]``, and satisfy
    ``R - L >= gap > 0`` everywhere.  ``time_invariant`` marks pairs whose
    values do not depend on ``t``, which lets boundary code reuse band edges
    across nodes.  ``affine`` marks pairs affine in ``x``: averaging an
    affine loss over mean-zero offsets reproduces the loss itself, so
    boundary construction can drop the offsets entirely.
    """

    L: Callable[[float, NDArray[np.floating]], NDArray[np.floating]]
    R: Callable[[float, NDArray[np.floating]], NDArray[np.floating]]
    c: float
    C: float
    gap: float
    time_invariant: bool = False
    affine: bool = False

    def __post_init__(self):
        if not 0.0 < self.c <= self.C:
            raise ValueError("need 0 < c <= C")
        if self.gap <= 0.0:
            raise ValueError("gap between R and L must be positive")


def linear_band(lower: float, upper: float) -> LossPair:
    """Losses pinning the mean to [lower, upper]: L = x - upper, R = x - lower."""
    if not lower < upper:
        raise ValueError("need lower < upper")
    lo, hi = float(lower), float(upper)
    return LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - hi,
        R=lambda t, x: np.asarray(x, dtype=float) - lo,
        c=1.0,
        C=1.0,
        gap=hi - lo,
        time_invariant=True,
        affine=True,
    )


def _saturation(x: NDArray[np.floating]) -> NDArray[np.floating]:
    x = np.asarray(x, dtype=float)
    return x * x / (2.0 * (1.0 + np.abs(x)))


def saturating_band(lower: float, upper: float) -> LossPair:
    """Nonlinear band: the linear losses bent by a bounded-slope saturation term.

    ``L(t,x) = x - sat(x) - upper`` and ``R(t,x) = x + sat(x) - lower`` with
    ``sat(x) = x^2 / (2(1+|x|))``.  The saturation slope stays in (-1/2, 1/2),
    so both losses are strictly increasing with two-sided Lipschitz constants
    (1/2, 3/2); the gap never dips below ``upper - lower``.
    """
    if not lower < upper:
        raise ValueError("need lower < upper")
    lo, hi = float(lower), float(upper)
    return LossPair(
        L=lambda t, x: np.asarray(x, dtype=float) - _saturation(x) - hi,
        R=lambda t, x: np.asarray(x, dtype=float) + _saturation(x) - lo,
        c=0.5,
        C=1.5,
        gap=hi - lo,
        time_invariant=True,
    )


@dataclass(frozen=True)
class LossValidation:
    """Report from spot-checking a loss pair on sample points."""

    monotone_violations: int
    slope_min: float
    slope_max: float
    min_gap: float
    passed: bool


def validate_loss(
    lp: LossPair,
    t_samples: NDArray[np.floating],
    x_samples: NDArray[np.floating],
) -> LossValidation:
    """Spot-check monotonicity, the (c, C) slope range and the R - L gap.

    Report-only: a failed check sets ``passed`` to False but raises nothing.
    """
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    xs = np.sort(np.atleast_1d(np.asarray(x_samples, dtype=float)))
    if ts.size == 0 or xs.size < 2:
        raise ValueError("need at least one t sample and two x samples")

    violations = 0
    slope_min, slope_max = np.inf, -np.inf
    min_gap = np.inf
    dx = np.diff(xs)
    for t in ts:
        for f in (lp.L, lp.R):
            vals = np.asarray(f(float(t), xs), dtype=float)
            slopes = np.diff(vals) / dx
            violations += int(np.count_nonzero(slopes <= 0.0))
            slope_min = min(slope_min, float(np.min(slopes)))
            slope_max = max(slope_max, float(np.max(slopes)))
        gap_vals = np.asarray(lp.R(float(t), xs), dtype=float) - np.asarray(
            lp.L(float(t), xs), dtype=float
        )
        min_gap = min(min_gap, float(np.min(gap_vals)))

    slope_tol = 1e-9
    passed = (
        violations == 0
        and slope_min >= lp.c - slope_tol
        and slope_max <= lp.C + slope_tol
        and min_gap >= lp.gap - slope_tol
    )
    return LossValidation(violations, slope_min, slope_max, min_gap, passed)


# ---------------------------------------------------------------------------
# mean-level boundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPair:
    """Deterministic boundaries on the mean level, vectorized in ``x`` at one node.

    ``l``/``r`` at node ``k`` are the loss functions averaged over a recentred
    ensemble cross-section: ``l(k, x) = mean_i L(times[k], x + off[k, i])``.
    With ``offsets is None`` the boundary is the bare loss pair (equivalent to
    a single centred particle).  ``times[k]`` is the loss-evaluation time for
    node ``k``.  The band edges are computed once, in natural node order, and
    serve both the forward and the terminal-anchored reflection.

    ``lower(k, x)`` and ``upper(k, x)`` take a scalar or an array ``x`` and
    return values of the same shape; each entry has the bits of the scalar
    call at that point.
    """

    grid: TimeGrid
    losses: LossPair
    times: NDArray[np.floating]
    offsets: NDArray[np.floating] | None = None
    _edge_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.shape != (self.grid.n_nodes,):
            raise ValueError("times must provide one entry per node")
        if self.offsets is not None:
            off = np.asarray(self.offsets, dtype=float)
            object.__setattr__(self, "offsets", off)
            if off.ndim != 2 or off.shape[0] != self.grid.n_nodes:
                raise ValueError("offsets must be (nodes, particles)")

    # -- evaluation ---------------------------------------------------------

    def lower(self, node: int, x: ArrayLike) -> float | NDArray[np.floating]:
        """l(t_node, x): averaged lower loss; <= 0 is the admissible side."""
        return self._eval(self.losses.L, node, x)

    def upper(self, node: int, x: ArrayLike) -> float | NDArray[np.floating]:
        """r(t_node, x): averaged upper loss; >= 0 is the admissible side."""
        return self._eval(self.losses.R, node, x)

    def _eval(self, f, node: int, x: ArrayLike) -> float | NDArray[np.floating]:
        """The one boundary evaluator: ``f`` at node ``node``, shaped like ``x``.

        An averaged pair evaluates ``f`` on the (x, particles) outer sum and
        reduces each row along its last, contiguous axis, so every entry has
        the reduction order of a scalar call.
        """
        t = float(self.times[node])
        if self.offsets is None:
            vals = f(t, np.asarray(x, dtype=float))
        else:
            vals = pairwise_mean(f(t, np.add.outer(x, self.offsets[node])))
        return np.asarray(vals, dtype=float)[()]

    @property
    def c(self) -> float:
        return self.losses.c

    @property
    def C(self) -> float:
        return self.losses.C

    # -- band edges ---------------------------------------------------------

    def band_edges(
        self, root_tol: float = ROOT_TOL_DEFAULT
    ) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
        """Per-node admissible band [rho_k, lam_k] for the mean level.

        ``rho`` is the root of the upper boundary r (below it, r < 0) and
        ``lam`` the root of the lower boundary l (above it, l > 0).  Results
        are cached per tolerance.
        """
        key = float(root_tol)
        cached = self._edge_cache.get(key)
        if cached is not None:
            return cached
        m = self.grid.n_nodes
        rho = np.empty(m)
        lam = np.empty(m)
        if self.offsets is None and self.losses.time_invariant:
            rho[:] = invert_boundary(self, 0, "lower_edge", root_tol)
            lam[:] = invert_boundary(self, 0, "upper_edge", root_tol)
        else:
            hint_r = hint_l = 0.0
            # Last node down, the backward map's clock: this hint chain fixes the edge bits.
            for k in range(m - 1, -1, -1):
                hint_r = invert_boundary(self, k, "lower_edge", root_tol, hint=hint_r)
                hint_l = invert_boundary(self, k, "upper_edge", root_tol, hint=hint_l)
                rho[k] = hint_r
                lam[k] = hint_l
        self._edge_cache[key] = (rho, lam)
        return rho, lam


def make_mean_boundary(
    e: Ensemble, lp: LossPair, times: NDArray[np.floating] | None = None
) -> BoundaryPair:
    """Average a loss pair over the recentred cross-sections of an ensemble.

    At node ``k`` with cross-section ``y`` and mean ``ybar``:
    ``l(k, x) = mean_i L(t_k, y_i - ybar + x)`` and likewise for ``r``.  For
    affine losses the recentring cancels exactly, so the boundary is built
    without offsets.  ``times`` overrides the loss-evaluation clock for
    shifted sub-interval grids; defaults to the grid nodes.
    """
    times = np.array(e.grid.nodes if times is None else times, dtype=float)
    if lp.affine:
        return BoundaryPair(e.grid, lp, times, None)
    # The transpose of the F-ordered values is a C-ordered view: copy it before -=.
    offsets = e.values.T.copy()
    offsets -= pairwise_mean(offsets)[:, None]
    return BoundaryPair(e.grid, lp, times, offsets)


def boundary_from_losses(grid: TimeGrid, lp: LossPair) -> BoundaryPair:
    """Boundary pair that is just the loss pair itself (no ensemble averaging)."""
    return BoundaryPair(grid, lp, grid.nodes.copy(), None)


def invert_boundary(
    bp: BoundaryPair,
    node: int,
    which: str,
    root_tol: float = ROOT_TOL_DEFAULT,
    hint: float = 0.0,
) -> float:
    """Root in ``x`` of one boundary at one node.

    ``which`` selects ``"upper_edge"`` (root of the lower boundary l — the
    top of the admissible band) or ``"lower_edge"`` (root of the upper
    boundary r — the bottom).  Starting from ``hint``, the declared lower
    Lipschitz constant brackets the root within ``|value| / c``; the bracket
    is then handed to a guaranteed-convergence bracketed solver.
    """
    if which not in ("upper_edge", "lower_edge"):
        raise ValueError("which must be 'upper_edge' or 'lower_edge'")
    args = (bp, node, which == "upper_edge")
    f = lambda x: _boundary_at(x, *args)

    x0 = float(hint)
    v0 = f(x0)
    if abs(v0) <= root_tol:
        return x0
    radius = abs(v0) / bp.c
    lo, hi = x0 - radius, x0 + radius
    flo, fhi = f(lo), f(hi)
    expansions = 0
    while flo > 0.0 or fhi < 0.0:
        # Only reachable if the declared c overstates the true slope.
        expansions += 1
        if expansions > 60:
            raise NumericalFailureError(
                "root bracket failed to close; declared Lipschitz bounds "
                "are inconsistent with the boundary"
            )
        radius *= 2.0
        lo, hi = x0 - radius, x0 + radius
        flo, fhi = f(lo), f(hi)
    if not np.isfinite([v0, lo, hi, flo, fhi]).all():
        raise NumericalFailureError(
            f"band edge {which!r} at node {node}: boundary not finite "
            f"on the bracket [{lo:.6g}, {hi:.6g}]"
        )
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # brentq wraps its callable in a self-referencing closure, so whatever the
    # callable captures lives until the cyclic collector runs; the boundary
    # pair (with its particles x nodes offsets) goes in as arguments instead.
    xtol = max(root_tol / max(bp.C, 1.0), 1e-15)
    root = brentq(_boundary_at, lo, hi, args=args, xtol=xtol, rtol=8.9e-16)
    return float(root)


def _boundary_at(x: float, bp: BoundaryPair, node: int, lower: bool) -> float:
    return bp.lower(node, x) if lower else bp.upper(node, x)


# ---------------------------------------------------------------------------
# affine envelopes and integrated obstacles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearEnvelope:
    """Affine envelopes ``L'(t,x) = b_t x - p_t``, ``R'(t,x) = b_t x - q_t``.

    ``b`` must stay strictly positive and ``p - q`` strictly above zero; the
    ratio paths ``p/b`` and ``q/b`` are the band edges the envelopes induce,
    and their total variation bounds the force a reflection under any
    enveloped constraint can accumulate.
    """

    b: Callable[[float], float]
    p: Callable[[float], float]
    q: Callable[[float], float]

    @classmethod
    def constants(cls, b: float, p: float, q: float) -> "LinearEnvelope":
        if b <= 0.0:
            raise ValueError("b must be positive")
        if not p > q:
            raise ValueError("need p > q")
        return cls(b=lambda t: float(b), p=lambda t: float(p), q=lambda t: float(q))

    def ratio_paths(
        self, nodes: NDArray[np.floating]
    ) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
        """(p/b, q/b) at the node times; a segment's clock need not start at 0."""
        bs = np.array([float(self.b(float(t))) for t in nodes])
        if np.any(bs <= 0.0):
            raise ValueError("envelope slope b must stay positive")
        ps = np.array([float(self.p(float(t))) for t in nodes])
        qs = np.array([float(self.q(float(t))) for t in nodes])
        if np.min(ps - qs) <= 0.0:
            raise ValueError("envelope gap p - q must stay positive")
        return ps / bs, qs / bs

    def tv_bound_terms(self, nodes: NDArray[np.floating]) -> float:
        """Var(p/b) + Var(q/b) over the node times."""
        pb, qb = self.ratio_paths(nodes)
        return float(np.sum(np.abs(np.diff(pb))) + np.sum(np.abs(np.diff(qb))))


def check_envelope_order(
    lp: LossPair,
    env: LinearEnvelope,
    t_samples: NDArray[np.floating],
    x_samples: NDArray[np.floating],
) -> bool:
    """True iff L <= L' and R >= R' on the given sample points."""
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
    for t in ts:
        bx = float(env.b(float(t))) * xs
        lo_env = bx - float(env.p(float(t)))
        up_env = bx - float(env.q(float(t)))
        if np.any(np.asarray(lp.L(float(t), xs), dtype=float) > lo_env + 1e-12):
            return False
        if np.any(np.asarray(lp.R(float(t), xs), dtype=float) < up_env - 1e-12):
            return False
    return True


@dataclass(frozen=True)
class LinearObstacles:
    """Integrated obstacle pair ``l_t = l_0 + int_0^t lower_rate`` (same for the upper).

    The default offsets pin both obstacles to 0 at ``t = 0`` (the band then
    opens from a point); nonzero ``lower_start <= 0 <= upper_start`` widen it
    from the outset, e.g. to build an effectively unconstrained proxy.  Used
    by the penalty scheme, whose constraints act directly on the mean.
    """

    lower_rate: Callable[[float], float]
    upper_rate: Callable[[float], float]
    lower_start: float = 0.0
    upper_start: float = 0.0

    def __post_init__(self) -> None:
        if not self.lower_start <= 0.0 <= self.upper_start:
            raise ValueError("obstacle offsets must straddle 0")

    @classmethod
    def constants(
        cls,
        lower_rate: float,
        upper_rate: float,
        lower_start: float = 0.0,
        upper_start: float = 0.0,
    ) -> "LinearObstacles":
        return cls(
            lambda t: float(lower_rate),
            lambda t: float(upper_rate),
            float(lower_start),
            float(upper_start),
        )

    def sample(self, grid: TimeGrid) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
        """Obstacle paths (lower, upper) on the grid nodes, by trapezoid rule."""
        lo_rate = np.array([float(self.lower_rate(t)) for t in grid.nodes])
        hi_rate = np.array([float(self.upper_rate(t)) for t in grid.nodes])
        dt = grid.step_sizes
        lo = self.lower_start + np.concatenate(
            [[0.0], np.cumsum(0.5 * (lo_rate[1:] + lo_rate[:-1]) * dt)]
        )
        hi = self.upper_start + np.concatenate(
            [[0.0], np.cumsum(0.5 * (hi_rate[1:] + hi_rate[:-1]) * dt)]
        )
        if np.any(lo > hi + 1e-12):
            raise ValueError("lower obstacle exceeds upper obstacle on the grid")
        return lo, hi
