"""Discrete two-sided Skorokhod reflection, forward and backward.

The forward map takes an input path ``s`` and a :class:`BoundaryPair` and
produces the minimally-forced path ``x = s + K`` that keeps ``l(t, x_t) <= 0
<= r(t, x_t)``.  Because both boundaries are strictly increasing in ``x``,
the constraint at each node reduces to a moving band ``rho_t <= x_t <=
lam_t`` whose edges are boundary roots; the recursion is then a clamp with
the force increment charged to whichever edge was hit.

The backward map anchors the path at a terminal value; it runs the same
clamp on the reversed clock.  How a pair finds its edges is one policy, kept
in :class:`BoundaryPair`: both maps clamp through it, against precomputed
band edges for a bare ``time_invariant`` pair and, for any other, through a
per-solve edge finder that inverts an edge only where the free value leaves
the band.  On an averaged pair the finder tests only the sides that the
declared slopes leave open, and the flatness residuals read its record of
the values at the edges it found; neither moves a bit.

The module also ships the quantitative estimates satisfied by these maps as
executable report-style checks: input-stability of the force, ordering under
band nesting, and the total-variation bound through the band-edge root paths.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .constraints import ROOT_TOL_DEFAULT, X_WINDOW, BoundaryPair
from .core import SamplePath, TimeGrid
from .errors import InfeasibleTerminalError, NumericalFailureError

__all__ = [
    "ReflectionSolution",
    "BackwardReflectionSolution",
    "solve_sp",
    "solve_bsp",
    "total_variation",
    "check_tv_bound",
    "check_continuity_bound",
    "check_comparison",
    "TVBoundReport",
    "ContinuityReport",
    "ComparisonReport",
]

# Round-off allowance of the executable estimates: a report passes iff its slack >= 0.
_CHECK_TOL = 1e-9


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReflectionSolution:
    """Reflected path plus its force and the force's monotone parts.

    ``K = push_up - push_down`` at every node; ``push_up`` grows only while
    the path sits on the lower band edge (where the upper boundary r
    vanishes), ``push_down`` only on the upper edge (where l vanishes).
    Flat residuals measure how much force was applied away from the edges
    and are ~0 for a correct solution.
    """

    x: SamplePath
    K: SamplePath
    push_up: SamplePath
    push_down: SamplePath
    flat_residual_up: float
    flat_residual_down: float

    @property
    def variation(self) -> float:
        """Total variation of K through its monotone parts (initial force included)."""
        return float(self.push_up.values[-1] + self.push_down.values[-1])


@dataclass(frozen=True)
class BackwardReflectionSolution(ReflectionSolution):
    """Terminal-anchored reflection: x_t = a + s_T - s_t + K_T - K_t."""

    a: float = 0.0


# ---------------------------------------------------------------------------
# forward map
# ---------------------------------------------------------------------------


def _clamp_recursion(
    s_vals: NDArray[np.floating],
    lo: NDArray[np.floating],
    hi: NDArray[np.floating],
    edge: Callable[[int, float], float] | None = None,
) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Run the clamp recursion; returns (x, push_up, push_down) node arrays.

    A free value inside ``[lo_k, hi_k]`` is kept.  Any other is clamped to
    the nearer of ``lo_k`` and ``hi_k``, or, given a hook, to
    ``edge(k, free)``; an empty band (``lo = +inf``, ``hi = -inf``) hands
    every node to the hook.  The move to the clamped value is charged to
    ``push_up`` if it goes up, to ``push_down`` if it goes down.
    """
    n = len(s_vals)
    xs, ups, dns = [0.0] * n, np.empty(n), np.empty(n)
    # From x = prev = 0, node 0's free value is s[0] (a -0.0 becomes 0.0).
    x = prev = up = dn = 0.0
    # A part is written up to its last increment's node; from there on it holds up (dn).
    k_up = k_dn = 0
    for k, (sk, lk, hk) in enumerate(zip(s_vals.tolist(), lo.tolist(), hi.tolist())):
        free = x + (sk - prev)
        prev = sk
        if lk <= free <= hk:
            x = free
        else:
            if edge is not None:
                x = edge(k, free)
            else:
                x = lk if free < lk else hk if free > hk else free
            if x > free:
                ups[k_up:k] = up
                up += x - free
                k_up = k
            elif x < free:
                dns[k_dn:k] = dn
                dn += free - x
                k_dn = k
        xs[k] = x
    ups[k_up:] = up
    dns[k_dn:] = dn
    return np.array(xs), ups, dns


def _require_one_grid(*grids: TimeGrid) -> None:
    """Raise ``ValueError`` unless the grids are one: the same object or the same nodes."""
    if any(g is not grids[0] and not np.array_equal(g.nodes, grids[0].nodes) for g in grids):
        raise ValueError("paths, solutions and boundary pairs must share the grid")


def _require_map_input(s: SamplePath, bp: BoundaryPair) -> None:
    """The checks of both maps: one grid, and a finite input (else the first bad node)."""
    _require_one_grid(s.grid, bp.grid)
    finite = np.isfinite(s.values)
    if not finite.all():
        k = int(finite.argmin())
        raise NumericalFailureError(
            f"reflection input is {s.values[k]} at node {k} (t = {s.grid.nodes[k]:.6g})"
        )


def _solution(cls, grid, x, push_up, push_down, residuals, **extra):
    """Wrap node arrays as a reflection solution with ``K = push_up - push_down``.

    The arrays are the map's own float arrays, one value per node of
    ``grid``, its input's grid, so the paths skip :class:`SamplePath`'s checks.
    """
    path = SamplePath._trusted
    K = path(grid, push_up - push_down)
    return cls(path(grid, x), K, path(grid, push_up), path(grid, push_down), *residuals, **extra)


def solve_sp(s: SamplePath, bp: BoundaryPair) -> ReflectionSolution:
    """Solve the two-sided reflection problem for input ``s``.

    The path follows the increments of ``s`` clamped into the admissible
    band ``[rho_k, lam_k]``, whose edges are roots of the boundaries, found
    as the pair's one band policy says (see :class:`BoundaryPair`).  If the
    start lies outside the band the jump into it is charged to the force at
    node 0.  A path sitting exactly on an edge with no outward drift
    receives no force.

    Raises
    ------
    DegenerateConstraintsError
        If the band width drops below ``BAND_MIN_DEFAULT`` at any node.
    NumericalFailureError
        If ``s`` is not finite at some node; the first such node is named.
    """
    _require_map_input(s, bp)
    lo, hi, edge = bp._clamp_band()
    x, up, dn = _clamp_recursion(s.values, lo, hi, edge)
    residuals = flatness_residuals_raw(x, up, dn, bp, found=None if edge is None else edge.found)
    return _solution(ReflectionSolution, s.grid, x, up, dn, residuals)


# ---------------------------------------------------------------------------
# backward map (time reversal)
# ---------------------------------------------------------------------------


def _reversed_clamp(
    s_vals: NDArray[np.floating],
    a: float,
    rho: NDArray[np.floating],
    lam: NDArray[np.floating],
    edge: Callable[[int, float], float] | None = None,
) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Clamp recursion of the terminal-anchored problem on the reversed clock.

    The input ``a + s_T - s_{T-t}`` is clamped into the band read from the
    last node down; ``rho``, ``lam`` and ``edge`` take node indices.
    Returns the path in natural node order and the cumulative (push_up,
    push_down) on the reversed clock.
    """
    s_rev = float(a) + s_vals[-1] - s_vals[::-1]
    last = len(s_vals) - 1
    back = None if edge is None else (lambda k, free: edge(last - k, free))
    x, up, dn = _clamp_recursion(s_rev, rho[::-1], lam[::-1], back)
    return x[::-1].copy(), up, dn


def solve_bsp(s: SamplePath, a: float, bp: BoundaryPair) -> BackwardReflectionSolution:
    """Solve the terminal-anchored reflection problem.

    Requires the anchor to satisfy ``l(T, a) <= ROOT_TOL_DEFAULT`` and
    ``r(T, a) >= -ROOT_TOL_DEFAULT`` (``InfeasibleTerminalError``
    otherwise); an admitted violation is absorbed as a small initial force
    of the reversed problem.  The clamp recursion runs on the reversed
    clock — input ``a + s_T - s_{T-t}`` against the band of ``bp`` from
    the last node down — and the force is mapped back as ``K_t = Kbar_T -
    Kbar_{T-t}``.  The band is clamped as the pair's one band policy says
    (see :class:`BoundaryPair`), the same as in :func:`solve_sp`.

    Raises ``ValueError`` unless ``s`` and ``bp`` share a grid,
    ``NumericalFailureError``, as :func:`solve_sp` does, on a non-finite
    ``s``, then ``InfeasibleTerminalError`` on the anchor, and
    ``DegenerateConstraintsError`` if a band clamped against
    ``band_edges`` is narrower than ``BAND_MIN_DEFAULT`` at some node.
    """
    _require_map_input(s, bp)
    last, a, tol = s.grid.n_nodes - 1, float(a), ROOT_TOL_DEFAULT
    if not (bp.lower(last, a) <= tol and bp.upper(last, a) >= -tol):
        raise InfeasibleTerminalError(
            f"anchor {a} violates the terminal constraint beyond tolerance {tol:.3e}"
        )
    return _solve_bsp(s, a, bp)[0]


def _solve_bsp(s: SamplePath, a: float, bp: BoundaryPair, hints=None):
    """:func:`solve_bsp` past its checks, its finder given ``hints``; also the finder's ``found``.

    The caller checks the map input and the anchor; the solvers check their
    terminal data once per segment (``mrbsde.require_feasible_terminal``).
    The record is ``{}`` where the pair clamps with no finder.
    """
    lo, hi, edge = bp._clamp_band(hints)
    found = {} if edge is None else edge.found
    x, up, dn = _reversed_clamp(s.values, a, lo, hi, edge)
    residuals = flatness_residuals_raw(x, up, dn, bp, reverse=True, found=found)
    up, dn = up[-1] - up[::-1], dn[-1] - dn[::-1]
    return _solution(BackwardReflectionSolution, s.grid, x, up, dn, residuals, a=a), found


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------


def flatness_residuals_raw(
    x_vals: NDArray[np.floating],
    push_up_vals: NDArray[np.floating],
    push_down_vals: NDArray[np.floating],
    bp: BoundaryPair,
    *,
    reverse: bool = False,
    found: dict | None = None,
) -> tuple[float, float]:
    """Force applied while the respective constraint was strictly inactive.

    ``up`` weighs each push-up increment by ``max(r(t_k, x_k), 0)`` — positive
    r means the path was strictly above the lower edge, so any up-force there
    violates minimality.  ``down`` mirrors this with ``max(-l, 0)``.  With
    ``reverse`` the cumulative parts run on the reversed clock: their
    position ``k`` is node ``len(x_vals) - 1 - k``.  ``x_vals`` is in node
    order either way.  ``found``, the record of the edge finder that clamped
    ``x_vals``, gives ``r`` where it holds a ``"lower_edge"`` and ``l``
    where it holds an ``"upper_edge"``; the pair is evaluated at the rest.
    """

    def side_at(j, side, which):
        if not found:
            return side(j, x_vals[j])
        return np.array([
            found[n, which][2] if (n, which) in found else side(n, x_vals[n]) for n in j.tolist()
        ])

    def residual(push, slack) -> float:
        d = push - np.concatenate(([0.0], push[:-1]))  # np.diff(push, prepend=0.0), cheaper
        (k,) = (d > 0.0).nonzero()
        if not k.size:
            return 0.0
        terms = np.maximum(slack(len(x_vals) - 1 - k if reverse else k), 0.0) * d[k]
        # A left fold from 0.0 in increment order, as the per-increment sum made it.
        return functools.reduce(operator.add, terms.tolist(), 0.0)

    up = residual(push_up_vals, lambda j: side_at(j, bp.upper, "lower_edge"))
    dn = residual(push_down_vals, lambda j: -side_at(j, bp.lower, "upper_edge"))
    return up, dn


def total_variation(K: SamplePath) -> float:
    """Sum of absolute increments of a path."""
    return float(np.sum(np.abs(np.diff(K.values))))


# ---------------------------------------------------------------------------
# executable estimates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TVBoundReport:
    tv: float
    var_phi: float
    var_psi: float
    slack: float
    passed: bool


def check_tv_bound(sol: ReflectionSolution, s: SamplePath, bp: BoundaryPair) -> TVBoundReport:
    """Check ``push_up_T + push_down_T <= Var(phi) + Var(psi) + 1e-9``.

    ``phi = lam - s`` and ``psi = rho - s`` are the root paths of the band
    edges of ``bp`` relative to the input: the force can only grow while
    riding an edge, so its variation is dominated by theirs.  (The bound
    through an affine envelope is :meth:`LinearEnvelope.tv_bound_terms`.)
    Assumes the input starts inside the band — an initial jump is force the
    root paths cannot see.  ``sol``, ``s`` and ``bp`` must share one grid
    (``ValueError`` otherwise).
    """
    _require_one_grid(sol.K.grid, s.grid, bp.grid)
    rho, lam = bp.band_edges()
    phi = lam - s.values
    psi = rho - s.values
    var_phi = float(np.sum(np.abs(np.diff(phi))))
    var_psi = float(np.sum(np.abs(np.diff(psi))))
    tv = sol.variation
    slack = var_phi + var_psi + _CHECK_TOL - tv
    return TVBoundReport(tv, var_phi, var_psi, slack, slack >= 0.0)


@dataclass(frozen=True)
class ContinuityReport:
    lhs: float
    rhs: float
    slack: float
    sup_ds: float
    boundary_gap: float
    passed: bool


def _node_rows(
    bp1: BoundaryPair, bp2: BoundaryPair
) -> tuple[NDArray[np.integer], NDArray[np.floating]]:
    """The nodes at which two pairs on one grid are read, each with one row of ``X_WINDOW``.

    Where both pairs are bare and ``time_invariant`` that is node 0 alone:
    :meth:`BoundaryPair._eval` reads such a pair at its first node for every
    row, so the other rows would repeat it, and a sup or a comparison over
    the one row has the bits of one over all.  Any other pair is read at
    every node.
    """
    if bp1._invariant and bp2._invariant:
        return np.arange(1), X_WINDOW[np.newaxis]
    n = bp1.grid.n_nodes
    return np.arange(n), np.broadcast_to(X_WINDOW, (n, X_WINDOW.size))


def _boundary_discrepancy(bp1: BoundaryPair, bp2: BoundaryPair) -> tuple[float, float]:
    """sup over the :func:`_node_rows` of |l1 - l2| and |r1 - r2|; NaN gaps are skipped.

    One evaluation per side and pair: one row for two bare ``time_invariant``
    pairs, every node for any others.
    """
    nodes, rows = _node_rows(bp1, bp2)

    def sup_gap(f1, f2) -> float:
        gap = np.abs(f1(nodes, rows) - f2(nodes, rows))
        return float(np.fmax.reduce(gap, axis=None, initial=0.0))

    return sup_gap(bp1.lower, bp2.lower), sup_gap(bp1.upper, bp2.upper)


def check_continuity_bound(
    sol1: ReflectionSolution,
    sol2: ReflectionSolution,
    s1: SamplePath,
    s2: SamplePath,
    bp1: BoundaryPair,
    bp2: BoundaryPair,
) -> ContinuityReport:
    """Input-stability of the force under data perturbation.

    Forward solutions must satisfy

        sup_t |K1 - K2| <= (C/c) sup|s1 - s2| + (1/c) max(Lbar, Rbar)

    and terminal-anchored ones the doubled version

        sup_t |K1 - K2| <= 2(C/c)|a1 - a2| + 4(C/c) sup|s1 - s2|
                           + (2/c) max(Lbar, Rbar),

    where Lbar/Rbar are the sup-discrepancies of the boundary values
    (estimated at the grid's node times, on the fixed x window ``X_WINDOW``;
    at node 0 alone for two bare ``time_invariant`` pairs, whose values are
    the same at every node) and (c, C) are Lipschitz constants valid for
    both pairs.  Raises
    ``ValueError`` unless the paths, solutions and pairs share one grid.
    """
    _require_one_grid(sol1.K.grid, sol2.K.grid, s1.grid, s2.grid, bp1.grid, bp2.grid)
    c = min(bp1.c, bp2.c)
    C = max(bp1.C, bp2.C)
    sup_ds = float(np.max(np.abs(s1.values - s2.values)))
    l_bar, r_bar = _boundary_discrepancy(bp1, bp2)
    gap = max(l_bar, r_bar)
    lhs = float(np.max(np.abs(sol1.K.values - sol2.K.values)))
    backward = isinstance(sol1, BackwardReflectionSolution)
    if backward != isinstance(sol2, BackwardReflectionSolution):
        raise ValueError("cannot mix forward and backward solutions")
    if backward:
        da = abs(sol1.a - sol2.a)
        rhs = 2.0 * (C / c) * da + 4.0 * (C / c) * sup_ds + (2.0 / c) * gap
    else:
        rhs = (C / c) * sup_ds + (1.0 / c) * gap
    slack = rhs + _CHECK_TOL - lhs
    return ContinuityReport(lhs, rhs, slack, sup_ds, gap, slack >= 0.0)


@dataclass(frozen=True)
class ComparisonReport:
    premise_ok: bool
    max_violation_up: float
    max_violation_down: float
    slack: float
    passed: bool


def check_comparison(
    s: SamplePath, bp_wide: BoundaryPair, bp_narrow: BoundaryPair
) -> ComparisonReport:
    """Narrower bands force more: both monotone parts must dominate nodewise.

    Both solves run on the same input and their cumulative parts are
    compared at every node; the premise (wide boundary below/above the
    narrow one in the required order) is verified at the grid's node times,
    on the fixed x window ``X_WINDOW``: on one row at node 0 where both
    pairs are bare and ``time_invariant``, whose values are the same at
    every node, else at every node; a NaN boundary value fails it.  The
    slack is ``1e-9`` less the larger violation, NaN if either is NaN.
    """
    sol_w = solve_sp(s, bp_wide)
    sol_n = solve_sp(s, bp_narrow)
    nodes, rows = _node_rows(bp_wide, bp_narrow)
    premise_ok = bool(
        np.all(bp_wide.lower(nodes, rows) <= bp_narrow.lower(nodes, rows) + 1e-12)
        and np.all(bp_wide.upper(nodes, rows) >= bp_narrow.upper(nodes, rows) - 1e-12)
    )
    viol_up = float(np.max(sol_w.push_up.values - sol_n.push_up.values))
    viol_dn = float(np.max(sol_w.push_down.values - sol_n.push_down.values))
    slack = _CHECK_TOL - float(np.maximum(viol_up, viol_dn))  # np.maximum keeps a NaN
    return ComparisonReport(premise_ok, viol_up, viol_dn, slack, premise_ok and slack >= 0.0)
