"""Constraint (loss) functions and the mean-level boundaries they induce.

A :class:`LossPair` holds the two strictly-increasing constraint functions
``L`` and ``R`` imposing ``E[L(t, Y_t)] <= 0 <= E[R(t, Y_t)]``, together with
their declared two-sided Lipschitz constants ``(c, C)`` and the minimal gap
between them.  Averaging a loss pair over a recentred ensemble cross-section
produces a deterministic :class:`BoundaryPair` ``l(t, x), r(t, x)`` acting on
the mean level; reflection solvers only ever see boundary pairs.

Roots of the boundaries in ``x`` (the edges of the admissible band for the
mean) are found by a bracketed solver in plain numpy, Illinois regula falsi:
the declared slopes ``[c, C]`` bracket the root from any probe point and
certify the accuracy of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

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
_ILLINOIS_STEPS = 200


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
    and boundary values across nodes.  ``affine`` marks pairs affine in
    ``x``: averaging an affine loss over mean-zero offsets reproduces the
    loss itself, so boundary construction can drop the offsets entirely.
    """

    L: Callable[[float, NDArray[np.floating]], NDArray[np.floating]]
    R: Callable[[float, NDArray[np.floating]], NDArray[np.floating]]
    c: float
    C: float
    gap: float
    time_invariant: bool = False
    affine: bool = False

    def __post_init__(self):
        # written as "not in range" so that NaN fails every check
        if not 0.0 < self.c <= self.C < math.inf:
            raise ValueError("need 0 < c <= C, both finite")
        if not 0.0 < self.gap < math.inf:
            raise ValueError("gap between R and L must be positive and finite")


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

    A pair declared ``time_invariant`` must also give the same ``L`` and
    ``R`` values at every t sample, bit for bit: boundary code evaluates such
    a pair once for all nodes.  Report-only: a failed check sets ``passed``
    to False but raises nothing.
    """
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    xs = np.sort(np.atleast_1d(np.asarray(x_samples, dtype=float)))
    if ts.size == 0 or xs.size < 2:
        raise ValueError("need at least one t sample and two x samples")

    violations = 0
    slope_min, slope_max = np.inf, -np.inf
    min_gap = np.inf
    dx = np.diff(xs)
    first = None
    time_varies = False
    for t in ts:
        vals = [np.asarray(f(float(t), xs), dtype=float) for f in (lp.L, lp.R)]
        for v in vals:
            slopes = np.diff(v) / dx
            violations += int(np.count_nonzero(slopes <= 0.0))
            slope_min = min(slope_min, float(np.min(slopes)))
            slope_max = max(slope_max, float(np.max(slopes)))
        min_gap = min(min_gap, float(np.min(vals[1] - vals[0])))
        first = vals if first is None else first
        time_varies |= not all(map(np.array_equal, vals, first))

    slope_tol = 1e-9
    passed = (
        violations == 0
        and slope_min >= lp.c - slope_tol
        and slope_max <= lp.C + slope_tol
        and min_gap >= lp.gap - slope_tol
        and not (lp.time_invariant and time_varies)
    )
    return LossValidation(violations, slope_min, slope_max, min_gap, passed)


# ---------------------------------------------------------------------------
# mean-level boundaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryPair:
    """Deterministic boundaries on the mean level, vectorized in ``x`` and the node.

    ``l``/``r`` at node ``k`` are the loss functions averaged over a recentred
    ensemble cross-section: ``l(k, x) = mean_i L(t_k, x + off[k, i])``, with
    ``t_k`` node ``k`` of ``grid``, the one clock.  With ``offsets is None``
    the boundary is the bare loss pair (equivalent to a single centred
    particle).  The band edges are computed once, last node first, and serve
    both the forward and the terminal-anchored reflection.

    ``lower(k, x)`` and ``upper(k, x)`` take one node ``k`` with a scalar or
    array ``x``, or a 1-D numpy array of nodes ``k`` paired row-wise with
    ``x`` of shape ``(len(k),)`` or ``(len(k), p)``.  They return values
    shaped like ``x``, each entry with the bits of the scalar call there.
    """

    grid: TimeGrid
    losses: LossPair
    offsets: NDArray[np.floating] | None = None
    _edge_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.offsets is not None:
            off = np.asarray(self.offsets, dtype=float)
            object.__setattr__(self, "offsets", off)
            if off.ndim != 2 or off.shape[0] != self.grid.n_nodes:
                raise ValueError("offsets must be (nodes, particles)")

    # -- evaluation ---------------------------------------------------------

    def lower(self, node: int | NDArray[np.integer], x: ArrayLike) -> float | NDArray[np.floating]:
        """l(t_node, x): averaged lower loss; <= 0 is the admissible side."""
        return self._eval(self.losses.L, node, x)

    def upper(self, node: int | NDArray[np.integer], x: ArrayLike) -> float | NDArray[np.floating]:
        """r(t_node, x): averaged upper loss; >= 0 is the admissible side."""
        return self._eval(self.losses.R, node, x)

    def _eval(self, f, node, x: ArrayLike) -> float | NDArray[np.floating]:
        """The one boundary evaluator: ``f`` at ``node`` (one, or one per row), shaped like ``x``.

        An averaged pair evaluates ``f`` on the (x, particles) outer sum and
        reduces each row along its last, contiguous axis, so every entry has
        the reduction order of a scalar call.  Over a node array, a bare
        ``time_invariant`` pair takes one call of ``f``, others go row by row.
        """
        x = np.asarray(x, dtype=float)
        if isinstance(node, np.ndarray) and node.ndim:
            if x.shape[:1] != node.shape:
                raise ValueError("a node array needs one row of x per node")
            if self.offsets is not None or not self.losses.time_invariant:
                return np.array([self._eval(f, k, r) for k, r in zip(node, x)]).reshape(x.shape)
            node = 0
        t = float(self.grid.nodes[node])
        if self.offsets is None:
            vals = f(t, x)
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


def make_mean_boundary(e: Ensemble, lp: LossPair) -> BoundaryPair:
    """Average a loss pair over the recentred cross-sections of an ensemble.

    At node ``k`` with cross-section ``y`` and mean ``ybar``:
    ``l(k, x) = mean_i L(t_k, y_i - ybar + x)`` and likewise for ``r``, with
    ``t_k`` node ``k`` of the ensemble's grid.  For affine losses the
    recentring cancels exactly, so the boundary is built without offsets.
    """
    if lp.affine:
        return BoundaryPair(e.grid, lp)
    # The transpose of the F-ordered values is a C-ordered view: copy it before -=.
    offsets = e.values.T.copy()
    offsets -= pairwise_mean(offsets)[:, None]
    return BoundaryPair(e.grid, lp, offsets)


def boundary_from_losses(grid: TimeGrid, lp: LossPair) -> BoundaryPair:
    """Boundary pair that is just the loss pair itself (no ensemble averaging)."""
    return BoundaryPair(grid, lp)


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
    boundary r — the bottom).  Slopes in ``[c, C]`` put the root between
    ``hint - f(hint)/C`` and ``hint - f(hint)/c``; Illinois regula falsi
    (Dowell & Jarratt, BIT 1971) then closes that bracket.  It stops once
    ``|f(x)| <= c * xtol`` or the bracket is narrower than ``2 * xtol``, with
    ``xtol = max(root_tol / max(C, 1), 1e-15)``.  Either way the result lies
    within ``xtol + s`` of the root, ``s`` the float spacing there (the last
    midpoint is rounded), and ``|f|`` there is at most ``C * (xtol + s)``:
    ``root_tol`` up to that rounding, unless the ``1e-15`` floor sets
    ``xtol``.  Where ``s`` exceeds ``2 * xtol`` (``|root|`` above about 1e3
    at the default ``root_tol`` and ``C = 10``) no bracket is that narrow;
    the solver stops at two adjacent floats instead, within ``s`` of the
    root.
    """
    if which not in ("upper_edge", "lower_edge"):
        raise ValueError("which must be 'upper_edge' or 'lower_edge'")
    side = bp.lower if which == "upper_edge" else bp.upper
    xtol = max(root_tol / max(bp.C, 1.0), 1e-15)
    ftol = bp.c * xtol

    def f(x: float) -> float:
        v = side(node, x)
        if not (math.isfinite(x) and math.isfinite(v)):
            raise NumericalFailureError(
                f"band edge {which!r} at node {node}: boundary not finite at x={x:.6g}"
            )
        return v

    x0 = float(hint)
    v0 = f(x0)
    if abs(v0) <= ftol:
        return x0
    # Walk from the hint to x0 - v0/C, then x0 - v0/c, doubling the last step
    # only if the declared c overstates the slope, until the sign flips.
    a, fa = x0, v0
    b, step = x0 - v0 / bp.C, -v0 / bp.c
    for _ in range(62):
        if b != a:
            fb = f(b)
            if abs(fb) <= ftol:
                return b
            if (fb > 0.0) != (v0 > 0.0):
                break
            a, fa = b, fb
        b, step = x0 + step, 2.0 * step
    else:
        raise NumericalFailureError(
            f"band edge {which!r} at node {node}: root bracket failed to close; "
            "declared Lipschitz bounds are inconsistent with the boundary"
        )
    # b is always the newest point and f changes sign between a and b.
    for _ in range(_ILLINOIS_STEPS):
        if abs(b - a) <= 2.0 * xtol:
            return 0.5 * (a + b)
        x = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
            if not min(a, b) < x < max(a, b):
                return b  # a and b are adjacent floats
        fx = f(x)
        if abs(fx) <= ftol:
            return x
        if (fx > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:
            fa *= 0.5  # a kept twice: halve its value so the next secant moves it
        b, fb = x, fx
    raise NumericalFailureError(
        f"band edge {which!r} at node {node}: no root within {_ILLINOIS_STEPS} steps"
    )


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
        if not 0.0 < b < math.inf:
            raise ValueError("b must be positive and finite")
        if not -math.inf < q < p < math.inf:
            raise ValueError("need finite p > q")
        return cls(b=lambda t: float(b), p=lambda t: float(p), q=lambda t: float(q))

    def ratio_paths(
        self, nodes: NDArray[np.floating]
    ) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
        """(p/b, q/b) at the node times; a segment's clock need not start at 0."""
        bs = np.array([float(self.b(float(t))) for t in nodes])
        if not np.all((0.0 < bs) & (bs < math.inf)):
            raise ValueError("envelope slope b must stay positive and finite")
        ps = np.array([float(self.p(float(t))) for t in nodes])
        qs = np.array([float(self.q(float(t))) for t in nodes])
        if not np.all((-math.inf < qs) & (qs < ps) & (ps < math.inf)):
            raise ValueError("envelope gap p - q must stay positive, with p and q finite")
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
        """Obstacle paths (lower, upper) on the grid nodes, by trapezoid rule.

        The rates are integrated from ``t = 0``, so the grid must start there
        (``ValueError`` otherwise).
        """
        if grid.nodes[0] != 0.0:
            raise ValueError(f"obstacles integrate from t = 0; grid starts at {grid.nodes[0]:g}")
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
