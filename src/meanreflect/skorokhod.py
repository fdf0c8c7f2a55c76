"""Discrete two-sided Skorokhod reflection, forward and backward.

The forward map takes an input path ``s`` and a :class:`BoundaryPair` and
produces the minimally-forced path ``x = s + K`` that keeps ``l(t, x_t) <= 0
<= r(t, x_t)``.  Because both boundaries are strictly increasing in ``x``,
the constraint at each node reduces to a moving band ``rho_t <= x_t <=
lam_t`` whose edges are boundary roots; the recursion is then a clamp with
the force increment charged to whichever edge was hit.

The backward map anchors the path at a terminal value and is computed by
time reversal of the forward map.

The module also ships the quantitative estimates satisfied by these maps as
executable report-style checks: input-stability of the force, ordering under
band nesting, and the total-variation bound through the band-edge root paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constraints import BAND_MIN_DEFAULT, ROOT_TOL_DEFAULT, BoundaryPair, LinearEnvelope
from .core import SamplePath
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
) -> tuple[list[float], list[float], list[float]]:
    """Run the clamp recursion; returns (x, push_up, push_down) as node lists."""
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
    return xs, ups, dns


def solve_sp(
    s: SamplePath,
    bp: BoundaryPair,
    *,
    root_tol: float = ROOT_TOL_DEFAULT,
    band_min: float = BAND_MIN_DEFAULT,
) -> ReflectionSolution:
    """Solve the two-sided reflection problem for input ``s``.

    At each node the admissible band ``[rho_k, lam_k]`` is found by root
    inversion of the boundaries, then the path follows the increments of
    ``s`` clamped into the band.  If the start lies outside the band the
    jump into it is charged to the force at node 0.  A path sitting exactly
    on an edge with no outward drift receives no force.

    Raises
    ------
    DegenerateConstraintsError
        If the band width drops below ``band_min`` at any node.
    """
    if s.grid is not bp.grid and not np.array_equal(s.grid.nodes, bp.grid.nodes):
        raise ValueError("input path and boundary pair must share the grid")
    rho, lam = bp.band_edges(root_tol)
    xs, ups, dns = _clamp_recursion(s.values, rho, lam, band_min)
    grid = s.grid
    x = SamplePath(grid, np.array(xs))
    push_up = SamplePath(grid, np.array(ups))
    push_down = SamplePath(grid, np.array(dns))
    K = SamplePath(grid, push_up.values - push_down.values)
    res_up, res_dn = flatness_residuals_raw(x.values, push_up.values, push_down.values, bp)
    return ReflectionSolution(x, K, push_up, push_down, res_up, res_dn)


# ---------------------------------------------------------------------------
# backward map (time reversal)
# ---------------------------------------------------------------------------


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
    ``r(T, a) >= -terminal_tol``.  The problem is mapped to a forward one by
    time reversal — input ``a + s_T - s_{T-t}`` against the index-flipped
    boundaries — and the force is mapped back as ``K_t = Kbar_T -
    Kbar_{T-t}``.  Anchor violations within the tolerance are absorbed as a
    small initial force of the reversed problem.
    """
    grid = s.grid
    if not np.allclose(grid.nodes, grid.reversed_nodes(), rtol=0.0, atol=1e-12):
        raise ValueError("backward reflection needs a reversal-symmetric grid")
    last = grid.n_nodes - 1
    tol = float(terminal_tol) + root_tol
    if not (bp.lower(last, a) <= tol and bp.upper(last, a) >= -tol):
        raise InfeasibleTerminalError(
            f"anchor {a} violates the terminal constraint beyond tolerance {tol:.3e}"
        )
    sv = s.values
    s_rev = SamplePath(grid, float(a) + sv[-1] - sv[::-1])
    rev = solve_sp(s_rev, bp.reverse(), root_tol=root_tol, band_min=band_min)

    x_vals = rev.x.values[::-1].copy()
    pu_rev = rev.push_up.values
    pd_rev = rev.push_down.values
    push_up = SamplePath(grid, pu_rev[-1] - pu_rev[::-1])
    push_down = SamplePath(grid, pd_rev[-1] - pd_rev[::-1])
    K = SamplePath(grid, push_up.values - push_down.values)
    return BackwardReflectionSolution(
        x=SamplePath(grid, x_vals),
        K=K,
        push_up=push_up,
        push_down=push_down,
        flat_residual_up=rev.flat_residual_up,
        flat_residual_down=rev.flat_residual_down,
        a=float(a),
    )


# ---------------------------------------------------------------------------
# flatness
# ---------------------------------------------------------------------------


def flatness_residuals_raw(
    x_vals: NDArray[np.floating],
    push_up_vals: NDArray[np.floating],
    push_down_vals: NDArray[np.floating],
    bp: BoundaryPair,
) -> tuple[float, float]:
    """Force applied while the respective constraint was strictly inactive.

    ``up`` weighs each push-up increment by ``max(r(t_k, x_k), 0)`` — positive
    r means the path was strictly above the lower edge, so any up-force there
    violates minimality.  ``down`` mirrors this with ``max(-l, 0)``.
    """
    d_up = np.diff(push_up_vals, prepend=0.0)
    d_dn = np.diff(push_down_vals, prepend=0.0)
    up = dn = 0.0
    for k in np.nonzero(d_up > 0.0)[0]:
        up += max(bp.upper(int(k), float(x_vals[k])), 0.0) * float(d_up[k])
    for k in np.nonzero(d_dn > 0.0)[0]:
        dn += max(-bp.lower(int(k), float(x_vals[k])), 0.0) * float(d_dn[k])
    return float(up), float(dn)


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


def check_tv_bound(
    sol: ReflectionSolution,
    s: SamplePath,
    bp: BoundaryPair | None = None,
    envelope: LinearEnvelope | None = None,
    *,
    tv_tol: float = 1e-9,
    root_tol: float = ROOT_TOL_DEFAULT,
) -> TVBoundReport:
    """Check ``push_up_T + push_down_T <= Var(phi) + Var(psi) + tv_tol``.

    ``phi = lam - s`` and ``psi = rho - s`` are the root paths of the band
    edges relative to the input: the force can only grow while riding an
    edge, so its variation is dominated by theirs.  The band may come from
    the solution's own boundary pair or from an affine envelope enclosing it
    (the enclosed problem accumulates no more force than the envelope, so
    the envelope's bound still dominates).  Assumes the input starts inside
    the band — an initial jump is force the root paths cannot see.
    """
    if (bp is None) == (envelope is None):
        raise ValueError("provide exactly one of bp or envelope")
    if bp is not None:
        rho, lam = bp.band_edges(root_tol)
    else:
        pb, qb = envelope.ratio_paths(s.grid.nodes)
        lam, rho = pb, qb  # upper edge from the lower envelope, lower from the upper
    phi = lam - s.values
    psi = rho - s.values
    var_phi = float(np.sum(np.abs(np.diff(phi))))
    var_psi = float(np.sum(np.abs(np.diff(psi))))
    tv = sol.variation
    slack = var_phi + var_psi + tv_tol - tv
    return TVBoundReport(tv, var_phi, var_psi, slack, slack >= 0.0)


@dataclass(frozen=True)
class ContinuityReport:
    lhs: float
    rhs: float
    slack: float
    sup_ds: float
    boundary_gap: float
    passed: bool


def _boundary_discrepancy(
    bp1: BoundaryPair, bp2: BoundaryPair, x_samples: NDArray[np.floating]
) -> tuple[float, float]:
    """sup over nodes and x-samples of |l1 - l2| and |r1 - r2|; NaN gaps are skipped."""
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))

    def sup_gap(f1, f2) -> float:
        gap = np.abs([f1(k, xs) - f2(k, xs) for k in range(bp1.grid.n_nodes)])
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
    *,
    check_tol: float = 1e-9,
) -> ContinuityReport:
    """Input-stability of the force under data perturbation.

    Forward solutions must satisfy

        sup_t |K1 - K2| <= (C/c) sup|s1 - s2| + (1/c) max(Lbar, Rbar)

    and terminal-anchored ones the doubled version

        sup_t |K1 - K2| <= 2(C/c)|a1 - a2| + 4(C/c) sup|s1 - s2|
                           + (2/c) max(Lbar, Rbar),

    where Lbar/Rbar are the sup-discrepancies of the boundary values
    (estimated over the node times and the declared x-sample set) and (c, C)
    are Lipschitz constants valid for both pairs.
    """
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
    slack = rhs + check_tol - lhs
    return ContinuityReport(lhs, rhs, slack, sup_ds, gap, slack >= 0.0)


@dataclass(frozen=True)
class ComparisonReport:
    premise_ok: bool
    max_violation_up: float
    max_violation_down: float
    passed: bool


def check_comparison(
    s: SamplePath,
    bp_wide: BoundaryPair,
    bp_narrow: BoundaryPair,
    x_samples: NDArray[np.floating],
    *,
    check_tol: float = 1e-9,
    root_tol: float = ROOT_TOL_DEFAULT,
    band_min: float = BAND_MIN_DEFAULT,
) -> ComparisonReport:
    """Narrower bands force more: both monotone parts must dominate nodewise.

    The premise (wide boundary below/above the narrow one in the required
    order) is verified on the sample set first; the check then runs both
    solves on the same input and compares the cumulative parts at every node.
    """
    xs = np.atleast_1d(np.asarray(x_samples, dtype=float))
    premise_ok = not any(
        np.any(bp_wide.lower(k, xs) > bp_narrow.lower(k, xs) + 1e-12)
        or np.any(bp_wide.upper(k, xs) < bp_narrow.upper(k, xs) - 1e-12)
        for k in range(bp_wide.grid.n_nodes)
    )
    sol_w = solve_sp(s, bp_wide, root_tol=root_tol, band_min=band_min)
    sol_n = solve_sp(s, bp_narrow, root_tol=root_tol, band_min=band_min)
    viol_up = float(np.max(sol_w.push_up.values - sol_n.push_up.values))
    viol_dn = float(np.max(sol_w.push_down.values - sol_n.push_down.values))
    passed = premise_ok and viol_up <= check_tol and viol_dn <= check_tol
    return ComparisonReport(premise_ok, viol_up, viol_dn, passed)
