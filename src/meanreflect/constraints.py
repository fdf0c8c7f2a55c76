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
certify the accuracy of the result.  A map solve's clamp hook, an edge
finder made for that solve, also warm-starts: it keeps each edge it finds
with the slope of the chord that led there, and a Picard iterate's finder
starts from the previous iterate's record, probing along that slope first.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .core import Ensemble, TimeGrid, ensemble_means, pairwise_mean, stat_tol
from .errors import DegenerateConstraintsError, NumericalFailureError

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
    "invert_boundary",
    "check_envelope_order",
]

ROOT_TOL_DEFAULT = 1e-12
BAND_MIN_DEFAULT = 1e-9
# The x window of every spot check: loss validation, envelope order, boundary gaps.
X_WINDOW = np.linspace(-10.0, 10.0, 41)
X_WINDOW.setflags(write=False)
_ILLINOIS_STEPS = 200


# ---------------------------------------------------------------------------
# loss pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LossPair:
    """Two-sided constraint functions with declared regularity constants.

    ``L`` and ``R`` map ``(t, x)`` to a real (vectorized in ``x``); both must
    be strictly increasing in ``x`` with slopes in ``[c, C]``, and satisfy
    ``R - L >= gap > 0`` everywhere.  A scalar ``x`` reaches a loss as a
    Python float, and the loss must return one real for it, with the bits
    of its array call's entry there; an array ``x`` is a float array.
    :func:`validate_loss` checks this contract.  ``time_invariant`` marks
    pairs whose values do not depend on ``t``, which lets boundary code
    reuse band edges and boundary values across nodes.  ``affine`` marks pairs affine in
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


def _real(x):
    """A float ``x`` as it is, anything else as a float array: the catalogue losses' input."""
    return x if isinstance(x, float) else np.asarray(x, dtype=float)


def linear_band(lower: float, upper: float) -> LossPair:
    """Losses pinning the mean to [lower, upper]: L = x - upper, R = x - lower."""
    if not lower < upper:
        raise ValueError("need lower < upper")
    lo, hi = float(lower), float(upper)
    return LossPair(
        L=lambda t, x: _real(x) - hi,
        R=lambda t, x: _real(x) - lo,
        c=1.0,
        C=1.0,
        gap=hi - lo,
        time_invariant=True,
        affine=True,
    )


def _saturation(x: float | NDArray[np.floating]) -> float | NDArray[np.floating]:
    """``x^2 / (2(1+|x|))`` of a float, or of a float array."""
    return x * x / (2.0 * (1.0 + abs(x)))


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

    def L(t, x):
        x = _real(x)
        return x - _saturation(x) - hi

    def R(t, x):
        x = _real(x)
        return x + _saturation(x) - lo

    return LossPair(
        L=L,
        R=R,
        c=0.5,
        C=1.5,
        gap=hi - lo,
        time_invariant=True,
    )


@dataclass(frozen=True)
class LossValidation:
    """Report from spot-checking a loss pair; ``failures`` names each failed check."""

    monotone_violations: int
    slope_min: float
    slope_max: float
    min_gap: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_loss(lp: LossPair, grid: TimeGrid) -> LossValidation:
    """Spot-check finiteness, monotonicity, the (c, C) slope range and the R - L gap.

    The pair is evaluated at the grid's node times, on the fixed x window
    ``X_WINDOW``.  A pair declared ``time_invariant`` must also give the
    same ``L`` and ``R`` values at every node, bit for bit: boundary code
    evaluates such a pair once for all nodes.  A pair declared ``affine``
    must have one slope per loss and node, up to the relative slope
    tolerance: boundary code drops its offsets.  At the first node time,
    each loss is also called once per window point on a Python float, as
    scalar boundary code calls it: the ``scalar contract`` check fails if
    a call raises, returns anything but one real, or differs in bits from
    the array call's entry there (NaN matches NaN).  Report-only: a failed
    check is named in ``failures`` but raises nothing.
    """
    slope_tol = 1e-9
    # (node, loss, x): every node's L and R values on the window
    vals = np.array([[f(float(t), X_WINDOW) for f in (lp.L, lp.R)] for t in grid.nodes], float)
    t0 = float(grid.nodes[0])
    scalar_ok = all(
        _same_scalar(f, t0, x, v)
        for f, row in zip((lp.L, lp.R), vals[0])
        for x, v in zip(X_WINDOW.tolist(), row.tolist())
    )
    slopes = np.diff(vals, axis=-1) / np.diff(X_WINDOW)
    violations = int(np.count_nonzero(~(slopes > 0.0)))  # NaN counts
    # np.min/np.max carry a NaN through, so a NaN slope or gap fails its check.
    slope_min, slope_max = float(np.min(slopes)), float(np.max(slopes))
    min_gap = float(np.min(vals[:, 1] - vals[:, 0]))
    bent = not np.all(np.ptp(slopes, axis=-1) <= slope_tol * np.max(np.abs(slopes), axis=-1))
    time_varies = not np.all(vals == vals[0])  # bit for bit; NaN counts
    finite = bool(np.isfinite(vals).all())

    checks = {
        "finiteness": finite,
        "monotonicity": violations == 0,
        "slope range [c, C]": lp.c - slope_tol <= slope_min and slope_max <= lp.C + slope_tol,
        "gap": lp.gap - slope_tol <= min_gap,
        "time_invariant claim": not (lp.time_invariant and time_varies),
        "affine claim": not (lp.affine and bent),
        "scalar contract": scalar_ok,
    }
    failures = tuple(name for name, ok in checks.items() if not ok)
    return LossValidation(violations, slope_min, slope_max, min_gap, failures)


def _same_scalar(f: Callable, t: float, x: float, v: float) -> bool:
    """Whether ``f(t, x)`` on a Python float is one real with the bits ``v`` (NaN matches NaN)."""
    try:
        w = f(t, x)
    except Exception:  # any failure of the caller's loss is a failed check, not a crash
        return False
    w = np.asarray(w)
    if w.shape or w.dtype.kind not in "fiu":  # one real: a number or a 0-d real array
        return False
    w = float(w)
    return (math.isnan(w) and math.isnan(v)) or struct.pack("<d", w) == struct.pack("<d", v)


def _loss_stats(
    lp: LossPair, t: float, x: NDArray[np.floating]
) -> tuple[float, float, float, float]:
    """``(E[L(t, x)], E[R(t, x)], tol, scale)`` over one cross-section ``x``, one call per loss.

    ``tol`` is the Monte Carlo tolerance of the mean constraint: :func:`stat_tol`
    of the loss values with the larger spread.  ``scale``, the largest of
    ``|L|``, ``|R|`` and ``C |x|`` there, sets the rounding of both means.
    """
    lv = np.asarray(lp.L(float(t), x), dtype=float)
    rv = np.asarray(lp.R(float(t), x), dtype=float)
    scale = max(-lv.min(), lv.max(), -rv.min(), rv.max(), -lp.C * x.min(), lp.C * x.max())
    means = float(pairwise_mean(lv)), float(pairwise_mean(rv))
    return *means, max(stat_tol(lv), stat_tol(rv)), float(scale)


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
    particle); :func:`make_mean_boundary` gives offsets that read its
    ensemble in place, one node's row at a time.  :meth:`band_edges` inverts
    both edges at every node, once, for the estimate checks.  The pair also
    holds the one band policy of both reflection maps (``_clamp_band``): a
    bare ``time_invariant`` pair is clamped against its band edges, any
    other by a per-solve :class:`_EdgeFinder` that inverts an edge only where
    the clamp binds.

    ``lower(k, x)`` and ``upper(k, x)`` take one node ``k`` with a scalar or
    array ``x``, or a 1-D numpy array of nodes ``k`` paired row-wise with
    ``x`` of shape ``(len(k),)`` or ``(len(k), p)``.  They return values
    shaped like ``x``, each entry with the bits of the scalar call there.

    The pair's one state, its cached band edges, and its cached recentred
    row rest on its ensemble staying unchanged while the pair is in use:
    build a new pair for a new ensemble.
    """

    grid: TimeGrid
    losses: LossPair
    offsets: NDArray[np.floating] | None = None
    _edges: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.offsets is not None:
            off = self.offsets
            if not isinstance(off, _RecentredRows):
                off = np.asarray(off, dtype=float)
                object.__setattr__(self, "offsets", off)
            if len(off.shape) != 2 or off.shape[0] != self.grid.n_nodes:
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
        A bare pair at one ``int`` node with a float ``x`` calls ``f`` once
        on a Python float and returns ``np.float64`` of its value: the bits
        of the array call there, without 0-d array arithmetic.
        """
        if self.offsets is None and isinstance(node, int) and isinstance(x, float):
            return np.float64(f(float(self.grid.nodes[node]), float(x)))
        x = np.asarray(x, dtype=float)
        if isinstance(node, np.ndarray) and node.ndim:
            if x.shape[:1] != node.shape:
                raise ValueError("a node array needs one row of x per node")
            if self.offsets is not None or not self.losses.time_invariant:
                return np.array([self._eval(f, k, r) for k, r in zip(node, x)]).reshape(x.shape)
            node = 0
        t = float(self.grid.nodes[node])
        if self.offsets is None:
            return np.asarray(f(t, x), dtype=float)[()]
        if x.ndim:
            return pairwise_mean(f(t, np.add.outer(x, self.offsets[node])))
        return np.float64(pairwise_mean(f(t, x + self.offsets[node])))

    @property
    def c(self) -> float:
        return self.losses.c

    @property
    def C(self) -> float:
        return self.losses.C

    # -- band edges ---------------------------------------------------------

    def band_edges(self) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
        """Per-node admissible band [rho_k, lam_k] for the mean level.

        ``rho`` is the root of the upper boundary r (below it, r < 0) and
        ``lam`` the root of the lower boundary l (above it, l > 0), each to
        ``ROOT_TOL_DEFAULT``.  The pair is computed once and cached.
        """
        if self._edges is not None:
            return self._edges
        m = self.grid.n_nodes
        rho = np.empty(m)
        lam = np.empty(m)
        if self.offsets is None and self.losses.time_invariant:
            rho[:] = invert_boundary(self, 0, "lower_edge")
            lam[:] = invert_boundary(self, 0, "upper_edge")
        else:
            hint_r = hint_l = 0.0
            # Last node down, the backward map's clock: this hint chain fixes the edge bits.
            for k in range(m - 1, -1, -1):
                hint_r = invert_boundary(self, k, "lower_edge", hint=hint_r)
                hint_l = invert_boundary(self, k, "upper_edge", hint=hint_l)
                rho[k] = hint_r
                lam[k] = hint_l
        object.__setattr__(self, "_edges", (rho, lam))
        return rho, lam

    def _clamp_band(self, hints: dict | None = None) -> tuple[NDArray, NDArray, _EdgeFinder | None]:
        """``(lo, hi, edge)`` for one clamp recursion: both reflection maps clamp through it.

        A bare ``time_invariant`` pair gives its :meth:`band_edges` and no
        hook: one inversion per edge serves every node.  Any other band is at
        least ``gap / C`` wide (``r - l >= gap``, ``r`` rises at most ``C``
        per unit), which settles the degeneracy check, so it gives the empty
        band (``+inf``, ``-inf``) and a new :class:`_EdgeFinder` seeded with
        ``hints``, inverting an edge only where the clamp binds.  Where
        ``gap / C`` is below ``BAND_MIN_DEFAULT + 2 xtol`` the bound cannot
        settle the check, and the pair falls back to its band edges.  Raises
        ``DegenerateConstraintsError`` if band edges are narrower than
        ``BAND_MIN_DEFAULT`` at some node.
        """
        bare = self.offsets is None and self.losses.time_invariant
        floor = BAND_MIN_DEFAULT + 2.0 * _xtol(self.C, ROOT_TOL_DEFAULT)
        if not bare and self.losses.gap / self.C >= floor:
            empty = np.full(self.grid.n_nodes, np.inf)
            return empty, -empty, _EdgeFinder(self, hints)
        rho, lam = self.band_edges()
        width = lam - rho
        if width.min() < BAND_MIN_DEFAULT:
            k = int(width.argmin())
            raise DegenerateConstraintsError(
                f"admissible band collapsed to {width[k]:.3e} at node {k}"
            )
        return rho, lam, None

    def _certified(self, node: int, x: float) -> tuple[bool, bool, float]:
        """Whether ``r(node, x) >= 0`` and ``l(node, x) <= 0`` hold by the declared slopes alone.

        With slopes in ``[c, C]``, ``P`` and ``N`` the means of the node's
        offsets' positive and negative parts, and ``L``, ``R`` the losses at
        ``(t_node, x)``: ``r >= R + c P - C N`` and ``l <= L + C P - c N``.
        A side is certified where its bound clears zero by more than a
        rounding allowance of ``1e-9`` relative to the terms' magnitudes.
        A bare pair certifies nothing: there ``l`` and ``r`` are the losses.
        Nor does a free value that is not finite.  The third value is the
        node's mean absolute offset ``P + |N|``, which scales the allowance
        (0 where nothing is certified).
        """
        if self.offsets is None or not math.isfinite(x):
            return False, False, 0.0
        row = self.offsets[node]
        pos = float(pairwise_mean(np.maximum(row, 0.0)))
        neg = pos - float(pairwise_mean(row))
        t = float(self.grid.nodes[node])
        lo, hi = float(self.losses.L(t, x)), float(self.losses.R(t, x))
        c, C = self.c, self.C
        spread = pos + abs(neg)
        margin = 1e-9 * (1.0 + abs(lo) + abs(hi) + C * (abs(x) + spread))
        return hi + c * pos - C * neg > margin, lo + C * pos - c * neg < -margin, spread


class _EdgeFinder:
    """One map solve's clamp hook on a pair that inverts its edges on demand.

    ``finder(node, x)`` is ``x`` if it is in the band at ``node``, else the
    edge it crossed.  The test reads ``r(node, x) >= 0``, then ``l(node, x)
    <= 0``.  A side that :meth:`BoundaryPair._certified` settles is not
    evaluated: it would pass, so the result is the same, bit for bit.  The
    edge is the root of :meth:`BoundaryPair.band_edges` to
    ``ROOT_TOL_DEFAULT``, inverted from the last point the test evaluated.
    A value that is not finite is never certified; it goes to the
    inversion, which refuses it.  Each side left open is tested, and its
    edge found, by :meth:`_crossed`, from a hint where the finder has one.

    On an averaged pair the finder records each edge it returns in
    ``found``, keyed by ``(node, which)``, as ``(edge, slope, value)``: the
    slope of the chord from where its inversion started, and the side's
    value at the edge, which the maps' flatness residuals read.  The next
    Picard iterate's finder takes that record as its ``hints``.  A finder
    serves one solve, which calls it once per node.
    """

    def __init__(self, bp: BoundaryPair, hints: dict | None = None):
        self.bp = bp
        self.hints = hints or {}
        self.found: dict = {}

    def __call__(self, node: int, x: float) -> float:
        sure_r, sure_l, spread = self.bp._certified(node, x)
        for sure, which in ((sure_r, "lower_edge"), (sure_l, "upper_edge")):
            edge = None if sure else self._crossed(node, x, which, spread)
            if edge is not None:
                return edge
        return x

    def _crossed(self, node: int, x: float, which: str, spread: float) -> float | None:
        """The edge ``which`` if ``x`` fails its side of the band test at ``node``, else ``None``.

        With no hint the side is evaluated at ``x``, as the test reads.  With
        a hint ``(e, slope, ...)`` for ``(node, which)`` it is evaluated at
        ``e`` instead: with slopes in ``[c, C]``, that value bounds the side
        at ``x``, and a bound that clears zero by the rounding margin of
        :meth:`BoundaryPair._certified` settles the test (``spread`` is the
        node's mean absolute offset).  A passed test returns ``None``, a
        failed one inverts from ``e``; an open one evaluates at ``x`` after
        all and inverts from there.  Either way the outcome is the evaluated
        test's whenever the declared slopes hold.  The inversion's first
        probe takes the hinted slope, or else the slope of this solve's last
        edge.  Only an averaged pair's finder records its edges, so a bare
        pair tests and inverts with no slope.
        """
        bp = self.bp
        side, sign = (bp.upper, 1.0) if which == "lower_edge" else (bp.lower, -1.0)
        hint = self.hints.get((node, which))
        slope = None if hint is None else hint[1]
        if slope is None and self.found:
            slope = next(reversed(self.found.values()))[1]
        start = None
        if hint is not None and math.isfinite(hint[0]) and math.isfinite(x):
            e = hint[0]
            w = side(node, e)
            if math.isfinite(w):
                # side(x) = w + s (x - e) for some s in [c, C]: sign * side(x) is in [low, high]
                low, high = sorted(sign * (w + s * (x - e)) for s in (bp.c, bp.C))
                margin = 1e-9 * (1.0 + abs(w) + bp.C * (abs(x) + abs(e) + spread))
                if low > margin:
                    return None
                if high < -margin:
                    start = e, w
        if start is None:
            v = side(node, x)
            if sign * v >= 0.0:
                return None
            start = x, v
        edge, value, slope = _invert_from(bp, node, which, ROOT_TOL_DEFAULT, *start, slope)
        if bp.offsets is not None:
            self.found[(node, which)] = edge, slope, value
        return edge


class _RecentredRows:
    """The (nodes, particles) offsets ``values[:, k] - means[k]`` of an ensemble, never stored.

    Indexing one node recentres its cross-section, with the bits of the
    stored array, and keeps that one row, so every evaluation at a node
    shares it.  Any other index, or ``np.asarray``, builds the full array.
    """

    def __init__(self, values: NDArray[np.floating], means: NDArray[np.floating]):
        self._values = values
        self._means = means
        self._last: tuple = (None, None)  # (node, row), swapped whole: threads never mix them
        self.shape = values.shape[::-1]

    def __getitem__(self, key):
        try:
            k = operator.index(key)
        except TypeError:  # a slice, a tuple, an index array
            return np.asarray(self)[key]
        node, row = self._last
        if node != k:
            row = self._values[:, k] - self._means[k]
            row.setflags(write=False)
            self._last = (k, row)
        return row

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self._values.T - self._means[:, None], dtype=dtype)


def make_mean_boundary(e: Ensemble, lp: LossPair) -> BoundaryPair:
    """Average a loss pair over the recentred cross-sections of an ensemble.

    At node ``k`` with cross-section ``y`` and mean ``ybar``:
    ``l(k, x) = mean_i L(t_k, y_i - ybar + x)`` and likewise for ``r``, with
    ``t_k`` node ``k`` of the ensemble's grid.  For affine losses the
    recentring cancels exactly, so the boundary is built without offsets.
    The pair reads the ensemble in place: its ``offsets`` recentre one
    node's cross-section at a time (``np.asarray`` gives the full array).
    """
    return _mean_boundary(e, lp, None)


def _mean_boundary(e: Ensemble, lp: LossPair, means: NDArray[np.floating] | None) -> BoundaryPair:
    """:func:`make_mean_boundary` given ``ensemble_means(e)``, or ``None`` to compute it."""
    if lp.affine:
        return BoundaryPair(e.grid, lp)
    if means is None:
        means = ensemble_means(e)
    return BoundaryPair(e.grid, lp, _RecentredRows(e.values, means))


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
    root.  ``root_tol`` must be positive and finite (``ValueError``
    otherwise).  The walk probes no measured slope: only the clamp hook's
    inversions warm-start (see :meth:`_EdgeFinder._crossed`).
    """
    if which not in ("upper_edge", "lower_edge"):
        raise ValueError("which must be 'upper_edge' or 'lower_edge'")
    if not 0.0 < root_tol < math.inf:
        raise ValueError("root_tol must be positive and finite")
    side = bp.lower if which == "upper_edge" else bp.upper
    x0 = float(hint)
    return _invert_from(bp, node, which, root_tol, x0, side(node, x0))[0]


def _xtol(C: float, root_tol: float) -> float:
    """The inversion's accuracy in ``x`` for slopes up to ``C``."""
    return max(root_tol / max(C, 1.0), 1e-15)


def _invert_from(
    bp: BoundaryPair,
    node: int,
    which: str,
    root_tol: float,
    x0: float,
    v0: float,
    slope: float | None = None,
) -> tuple[float, float, float | None]:
    """:func:`invert_boundary` from ``x0``, whose boundary value ``v0`` is known.

    Returns the root, the boundary's value there and the slope of the chord
    from ``(x0, v0)`` to it (``slope`` itself where the root is ``x0``).
    Every root it returns is a point it evaluated.  Given a ``slope``, clipped
    to ``[c, C]`` (ignored if not finite), the walk's first probe is ``x0 -
    v0 / slope`` and each later one the secant point of its last two,
    capped at the walk's current reach; without one the walk probes as
    :func:`invert_boundary` says.  The Illinois refinement is the same.
    Every point and value is held as a Python float, with the bits of the
    boundary's ``np.float64``.
    """
    side = bp.lower if which == "upper_edge" else bp.upper
    x0, v0 = float(x0), float(v0)
    xtol = _xtol(bp.C, root_tol)
    ftol = bp.c * xtol
    if slope is not None:
        slope = min(max(float(slope), bp.c), bp.C) if math.isfinite(slope) else None

    def checked(x: float, v: float) -> float:
        if not (math.isfinite(x) and math.isfinite(v)):
            raise NumericalFailureError(
                f"band edge {which!r} at node {node}: boundary not finite at x={x:.6g}"
            )
        return v

    def f(x: float) -> float:
        return checked(x, float(side(node, x)))

    def found(x: float, v: float) -> tuple[float, float, float | None]:
        return x, v, (v0 / (x0 - x) if x != x0 else slope)

    checked(x0, v0)
    if abs(v0) <= ftol:
        return found(x0, v0)
    # Walk from the hint to x0 - v0/C, then x0 - v0/c, doubling the last step
    # only if the declared c overstates the slope, until the sign flips.
    # Given a slope, the first probe is x0 - v0/slope and each later one a
    # secant point, short of the reach x0 + step where that is nearer.
    a, fa = x0, v0
    b, step = x0 - v0 / (bp.C if slope is None else slope), -v0 / bp.c
    secant = math.nan
    for _ in range(62):
        if b != a:
            fb = f(b)
            if abs(fb) <= ftol:
                return found(b, fb)
            if (fb > 0.0) != (v0 > 0.0):
                break
            if slope is not None and fb != fa:
                secant = b - fb * (b - a) / (fb - fa)
            a, fa = b, fb
        b, step = x0 + step, 2.0 * step
        if (secant - a) * step > 0.0:  # beyond a, toward the root (false while NaN)
            b = min(secant, b) if step > 0.0 else max(secant, b)
    else:
        raise NumericalFailureError(
            f"band edge {which!r} at node {node}: root bracket failed to close; "
            "declared Lipschitz bounds are inconsistent with the boundary"
        )
    # b is always the newest point and f changes sign between a and b.
    for _ in range(_ILLINOIS_STEPS):
        if abs(b - a) <= 2.0 * xtol:
            x = 0.5 * (a + b)
            return found(x, float(side(node, x)))  # unchecked, as a width stop returns x anyway
        x = b - fb * (b - a) / (fb - fa)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
            if not min(a, b) < x < max(a, b):
                return found(b, fb)  # a and b are adjacent floats
        fx = f(x)
        if abs(fx) <= ftol:
            return found(x, fx)
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


def check_envelope_order(lp: LossPair, env: LinearEnvelope, grid: TimeGrid) -> bool:
    """True iff L <= L' and R >= R' with L and R finite.

    Checked at the grid's node times, on the fixed x window ``X_WINDOW``.
    """
    for t in grid.nodes:
        t = float(t)
        bx = float(env.b(t)) * X_WINDOW
        L = np.asarray(lp.L(t, X_WINDOW), dtype=float)
        R = np.asarray(lp.R(t, X_WINDOW), dtype=float)
        # "not in range" fails on NaN, where "out of range" would pass it
        if not np.all((-np.inf < L) & (L <= bx - float(env.p(t)) + 1e-12)):
            return False
        if not np.all((bx - float(env.q(t)) - 1e-12 <= R) & (R < np.inf)):
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
        if not -math.inf < self.lower_start <= 0.0 <= self.upper_start < math.inf:
            raise ValueError("obstacle offsets must be finite and straddle 0")

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

        The rates are integrated from ``t = 0``, so the grid must start there,
        and both paths must be finite (``ValueError`` otherwise).
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
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("obstacle paths must be finite on the grid")
        if np.any(lo > hi + 1e-12):
            raise ValueError("lower obstacle exceeds upper obstacle on the grid")
        return lo, hi
