"""Discrete two-sided Skorokhod reflection, forward and backward.

The forward map takes an input path ``s`` and a :class:`BoundaryPair` and
produces the minimally-forced path ``x = s + K`` that keeps ``l(t, x_t) <= 0
<= r(t, x_t)``.  Because both boundaries are strictly increasing in ``x``,
the constraint at each node reduces to a moving band ``rho_t <= x_t <=
lam_t`` whose edges are boundary roots; the recursion is then a clamp with
the force increment charged to whichever edge was hit.

The backward map anchors the path at a terminal value; it runs the same
clamp on the reversed clock against the same band edges.

The module also ships the quantitative estimates satisfied by these maps as
executable report-style checks: input-stability of the force, ordering under
band nesting, and the total-variation bound through the band-edge root paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constraints import BAND_MIN_DEFAULT, ROOT_TOL_DEFAULT, BoundaryPair
from .core import SamplePath, TimeGrid
from .errors import DegenerateConstraintsError, InfeasibleTerminalError

__all__ = [
    "ReflectionSolution",
    "BackwardReflectionSolution",
    "solve_sp",
    "solve_bsp",
    "total_variation",
    "flatness_residuals",
    "flat_tolerance",
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
    rho: NDArray[np.floating],
    lam: NDArray[np.floating],
    band_min: float,
) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Run the clamp recursion; returns (x, push_up, push_down) node arrays."""
    width = lam - rho
    if np.min(width) < band_min:
        k = int(np.argmin(width))
        raise DegenerateConstraintsError(
            f"admissible band collapsed to {width[k]:.3e} at node {k}"
        )
    s = s_vals.tolist()
    lo = rho.tolist()
    hi = lam.tolist()
    x = s[0]
    up = dn = 0.0
    if x < lo[0]:
        up = lo[0] - x
        x = lo[0]
    elif x > hi[0]:
        dn = x - hi[0]
        x = hi[0]
    xs = [x]
    ups = [up]
    dns = [dn]
    for k in range(1, len(s)):
        free = x + (s[k] - s[k - 1])
        if free < lo[k]:
            up += lo[k] - free
            x = lo[k]
        elif free > hi[k]:
            dn += free - hi[k]
            x = hi[k]
        else:
            x = free
        xs.append(x)
        ups.append(up)
        dns.append(dn)
    return np.array(xs), np.array(ups), np.array(dns)


def _require_one_grid(*grids: TimeGrid) -> None:
    """Raise ``ValueError`` unless the grids are one: the same object or the same nodes."""
    if any(g is not grids[0] and not np.array_equal(g.nodes, grids[0].nodes) for g in grids):
        raise ValueError("paths, solutions and boundary pairs must share the grid")


def _solution(cls, grid, x, push_up, push_down, residuals, **extra):
    """Wrap node arrays as a reflection solution with ``K = push_up - push_down``."""
    K = SamplePath(grid, push_up - push_down)
    up, dn = SamplePath(grid, push_up), SamplePath(grid, push_down)
    return cls(SamplePath(grid, x), K, up, dn, *residuals, **extra)


def solve_sp(s: SamplePath, bp: BoundaryPair) -> ReflectionSolution:
    """Solve the two-sided reflection problem for input ``s``.

    At each node the admissible band ``[rho_k, lam_k]`` is found by root
    inversion of the boundaries, then the path follows the increments of
    ``s`` clamped into the band.  If the start lies outside the band the
    jump into it is charged to the force at node 0.  A path sitting exactly
    on an edge with no outward drift receives no force.

    Raises
    ------
    DegenerateConstraintsError
        If the band width drops below ``BAND_MIN_DEFAULT`` at any node.
    """
    _require_one_grid(s.grid, bp.grid)
    rho, lam = bp.band_edges()
    x, up, dn = _clamp_recursion(s.values, rho, lam, BAND_MIN_DEFAULT)
    residuals = flatness_residuals_raw(x, up, dn, bp)
    return _solution(ReflectionSolution, s.grid, x, up, dn, residuals)


# ---------------------------------------------------------------------------
# backward map (time reversal)
# ---------------------------------------------------------------------------


def _reversed_clamp(
    s_vals: NDArray[np.floating],
    a: float,
    rho: NDArray[np.floating],
    lam: NDArray[np.floating],
    band_min: float,
) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Clamp recursion of the terminal-anchored problem on the reversed clock.

    The input ``a + s_T - s_{T-t}`` is clamped into the band read from the
    last node down.  Returns the path in natural node order and the
    cumulative (push_up, push_down) on the reversed clock.
    """
    s_rev = float(a) + s_vals[-1] - s_vals[::-1]
    x, up, dn = _clamp_recursion(s_rev, rho[::-1], lam[::-1], band_min)
    return x[::-1].copy(), up, dn


def solve_bsp(
    s: SamplePath,
    a: float,
    bp: BoundaryPair,
    *,
    root_tol: float = ROOT_TOL_DEFAULT,
    band_min: float = BAND_MIN_DEFAULT,
    terminal_tol: float = 0.0,
) -> BackwardReflectionSolution:
    """Solve the terminal-anchored reflection problem.

    Requires the anchor to satisfy ``l(T, a) <= terminal_tol`` and
    ``r(T, a) >= -terminal_tol``.  The clamp recursion runs on the reversed
    clock — input ``a + s_T - s_{T-t}`` against the band edges of ``bp`` from
    the last node down — and the force is mapped back as ``K_t = Kbar_T -
    Kbar_{T-t}``.  Anchor violations within the tolerance are absorbed as a
    small initial force of the reversed problem.
    """
    grid = s.grid
    _require_one_grid(grid, bp.grid)
    if not np.allclose(grid.nodes, grid.reversed_nodes(), rtol=0.0, atol=1e-12):
        raise ValueError("backward reflection needs a reversal-symmetric grid")
    last = grid.n_nodes - 1
    tol = float(terminal_tol) + root_tol
    if not (bp.lower(last, a) <= tol and bp.upper(last, a) >= -tol):
        raise InfeasibleTerminalError(
            f"anchor {a} violates the terminal constraint beyond tolerance {tol:.3e}"
        )
    rho, lam = bp.band_edges(root_tol)
    x, up, dn = _reversed_clamp(s.values, a, rho, lam, band_min)
    residuals = flatness_residuals_raw(x, up, dn, bp, reverse=True)
    up, dn = up[-1] - up[::-1], dn[-1] - dn[::-1]
    return _solution(BackwardReflectionSolution, grid, x, up, dn, residuals, a=float(a))


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
) -> tuple[float, float]:
    """Force applied while the respective constraint was strictly inactive.

    ``up`` weighs each push-up increment by ``max(r(t_k, x_k), 0)`` — positive
    r means the path was strictly above the lower edge, so any up-force there
    violates minimality.  ``down`` mirrors this with ``max(-l, 0)``.  With
    ``reverse`` the cumulative parts run on the reversed clock: their
    position ``k`` is node ``len(x_vals) - 1 - k``.  ``x_vals`` is in node
    order either way.
    """

    def residual(push, slack) -> float:
        d = push - np.concatenate(([0.0], push[:-1]))  # np.diff(push, prepend=0.0), cheaper
        k = np.flatnonzero(d > 0.0)
        if not k.size:
            return 0.0
        terms = np.maximum(slack(len(x_vals) - 1 - k if reverse else k), 0.0) * d[k]
        # A left fold from 0.0 in increment order, as the per-increment sum made it.
        return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])

    up = residual(push_up_vals, lambda j: bp.upper(j, x_vals[j]))
    dn = residual(push_down_vals, lambda j: -bp.lower(j, x_vals[j]))
    return up, dn


def flatness_residuals(sol: ReflectionSolution, bp: BoundaryPair) -> tuple[float, float]:
    """(up, down) flat residuals of a forward solution against its boundaries."""
    return flatness_residuals_raw(
        sol.x.values, sol.push_up.values, sol.push_down.values, bp
    )


def flat_tolerance(s: SamplePath) -> float:
    """Default acceptance threshold for flat residuals: 1e-10 * (1 + sup|s|)."""
    return 1e-10 * (1.0 + float(np.max(np.abs(s.values))))


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


def _node_rows(bp: BoundaryPair, x_samples) -> tuple[NDArray[np.integer], NDArray[np.floating]]:
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
    return np.arange(bp.grid.n_nodes), np.broadcast_to(xs, (bp.grid.n_nodes, xs.size))


def _boundary_discrepancy(
    bp1: BoundaryPair, bp2: BoundaryPair, x_samples: NDArray[np.floating]
) -> tuple[float, float]:
    """sup over nodes and x-samples of |l1 - l2| and |r1 - r2|; NaN gaps are skipped."""
    nodes, rows = _node_rows(bp1, x_samples)

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
    x_samples: NDArray[np.floating],
) -> ContinuityReport:
    """Input-stability of the force under data perturbation.

    Forward solutions must satisfy

        sup_t |K1 - K2| <= (C/c) sup|s1 - s2| + (1/c) max(Lbar, Rbar)

    and terminal-anchored ones the doubled version

        sup_t |K1 - K2| <= 2(C/c)|a1 - a2| + 4(C/c) sup|s1 - s2|
                           + (2/c) max(Lbar, Rbar),

    where Lbar/Rbar are the sup-discrepancies of the boundary values
    (estimated over the node times and the declared x-sample set) and (c, C)
    are Lipschitz constants valid for both pairs.  Raises ``ValueError``
    unless the paths, solutions and pairs share one grid.
    """
    _require_one_grid(sol1.K.grid, sol2.K.grid, s1.grid, s2.grid, bp1.grid, bp2.grid)
    c = min(bp1.c, bp2.c)
    C = max(bp1.C, bp2.C)
    sup_ds = float(np.max(np.abs(s1.values - s2.values)))
    l_bar, r_bar = _boundary_discrepancy(bp1, bp2, x_samples)
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
    s: SamplePath,
    bp_wide: BoundaryPair,
    bp_narrow: BoundaryPair,
    x_samples: NDArray[np.floating],
) -> ComparisonReport:
    """Narrower bands force more: both monotone parts must dominate nodewise.

    Both solves run on the same input and their cumulative parts are
    compared at every node; the premise (wide boundary below/above the
    narrow one in the required order) is verified on the sample set.  The
    slack is ``1e-9`` less the larger violation, NaN if either is NaN.
    """
    sol_w = solve_sp(s, bp_wide)
    sol_n = solve_sp(s, bp_narrow)
    nodes, rows = _node_rows(bp_wide, x_samples)
    premise_ok = not (
        np.any(bp_wide.lower(nodes, rows) > bp_narrow.lower(nodes, rows) + 1e-12)
        or np.any(bp_wide.upper(nodes, rows) < bp_narrow.upper(nodes, rows) - 1e-12)
    )
    viol_up = float(np.max(sol_w.push_up.values - sol_n.push_up.values))
    viol_dn = float(np.max(sol_w.push_down.values - sol_n.push_down.values))
    slack = _CHECK_TOL - float(np.maximum(viol_up, viol_dn))  # np.maximum keeps a NaN
    return ComparisonReport(premise_ok, viol_up, viol_dn, slack, premise_ok and slack >= 0.0)
