"""Penalization scheme for linear mean constraints.

Instead of reflecting, the mean constraint is enforced by an extra drift
``n (E[Y] - l)^- - n (E[Y] - r)^+`` with penalty level ``n``; as ``n`` grows
the solution approaches the reflected one at rate ``O(1/n)`` in the mean.

Because the obstacles act on the mean only, the penalty drift decouples from
the noise: per backward step the particle update is the usual regression
scheme plus a *deterministic* penalty increment, obtained by integrating the
mean dynamics across the step.  The integrator is exact for piecewise-affine
obstacles — within each affine span the dynamics alternate between a free
regime and exponential relaxation toward a moving obstacle, both in closed
form, with crossings located analytically — so stiffness from large ``n``
costs accuracy nothing ("implicit in the mean, explicit in the noise").

The convergence sweep admits only state-free generators.  There the push is
the same shift for every particle and the regression, whose basis holds the
constants, keeps the mean, so the sweep needs no particle pass at all: the
plain mean path follows from ``E[xi]`` and the driver means in closed form,
and each level adds a scalar backward recursion of the same exact pushes.
It reads no cross-section but the terminal one, so it draws ``B_T`` alone,
from the same stream and with the same bits as the scenario's ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bsde import RegressionPlan, _backward_pass, _frozen_drift, _plain_drift
from .constraints import ROOT_TOL_DEFAULT
from .core import Ensemble, SamplePath, _brownian_terminal, pairwise_mean, stat_tol
from .diagnostics import rate_fit
from .errors import InfeasibleTerminalError, NumericalFailureError
from .mrbsde import Scenario, _require_state_free
from .skorokhod import _reversed_clamp

__all__ = [
    "PenaltySolution",
    "PenaltySweep",
    "solve_penalized",
    "penalty_sweep",
]


@dataclass(frozen=True)
class PenaltySolution:
    """Penalized solution at one penalty level.

    ``push_up`` accumulates the lower-obstacle term ``n (E[Y]-l)^-`` and
    ``push_down`` the upper-obstacle term ``n (E[Y]-r)^+``; both are
    nondecreasing from 0 and ``K = push_up - push_down``.
    """

    n: float
    y: Ensemble
    z: Ensemble
    K: SamplePath
    push_up: SamplePath
    push_down: SamplePath


# ---------------------------------------------------------------------------
# exact mean-dynamics integration across one step
# ---------------------------------------------------------------------------


def _events_affine(
    u: float,
    cbar: float,
    n: float,
    span: float,
    al: float,
    ll: float,
    ar: float,
    lr: float,
) -> tuple[float, float, float]:
    """Integrate the penalized mean backward over one affine obstacle span.

    The backward clock ``h`` runs over ``[0, span]``; the obstacles are
    ``l_h = al - ll*h`` and ``r_h = ar - lr*h`` (``al``, ``ar`` are the
    values at the *later* end, ``ll``/``lr`` the obstacle slopes in original
    time).  Returns ``(u_end, up_increment, down_increment)`` where the
    increments are the exact integrals of ``n (u-l)^-`` and ``n (u-r)^+``.

    Each regime (below the lower obstacle / inside / above the upper one)
    has a closed-form solution; the gap to a moving obstacle evolves as
    ``D exp(-n h) + G`` with ``G`` the ``O(1/n)`` boundary-layer offset, and
    regime switches are located by solving that form for zero.  Within one
    affine span each regime can be entered at most once.
    """
    up = dn = 0.0
    remaining = span
    for _ in range(12):
        if remaining <= 0.0:
            return u, up, dn
        h0 = span - remaining
        l_cur = al - ll * h0
        r_cur = ar - lr * h0
        p_l = u - l_cur
        p_r = u - r_cur
        drift_l = cbar + ll
        drift_r = cbar + lr

        below = p_l < 0.0 or (p_l == 0.0 and drift_l < 0.0)
        if below or p_r > 0.0 or (p_r == 0.0 and drift_r > 0.0):
            # Relaxing toward the obstacle the mean is beyond: upward toward
            # the lower one (sign 1) or downward toward the upper one (sign -1).
            sign, a, slope, gap, drift = (
                (1.0, al, ll, p_l, drift_l) if below else (-1.0, ar, lr, p_r, drift_r)
            )
            big_g = drift / n
            big_d = gap - big_g
            if sign * big_g > 0.0 and sign * big_d < 0.0 and -big_g / big_d < 1.0:
                tau = math.log(-big_d / big_g) / n
            else:
                tau = math.inf
            te = min(tau, remaining)
            decay = -math.expm1(-n * te)  # 1 - exp(-n te)
            force = big_d * decay + n * big_g * te
            if below:
                up += max(0.0, -force)
            else:
                dn += max(0.0, force)
            if tau <= remaining:
                u = a - slope * (h0 + tau)  # lands exactly on the obstacle
                remaining -= tau
            else:
                u = big_d * math.exp(-n * te) + big_g + (a - slope * (h0 + te))
                remaining = 0.0
        else:
            # Free drift between the obstacles.
            tau = remaining
            if drift_l < 0.0 and p_l > 0.0:
                tau = min(tau, p_l / -drift_l)
            if drift_r > 0.0 and p_r < 0.0:
                tau = min(tau, -p_r / drift_r)
            u += cbar * tau
            remaining -= tau
    raise NumericalFailureError(
        "penalized mean dynamics failed to settle within the event budget"
    )


# ---------------------------------------------------------------------------
# the penalized solver
# ---------------------------------------------------------------------------


def _mean_push(k, u, cbar, n, nodes, lo, hi) -> tuple[float, float]:
    """Exact pushes ``(up, down)`` across step ``k`` from the mean ``u`` at node ``k+1``.

    ``cbar`` is the step's driver mean; the step is one affine obstacle span.
    """
    dt = float(nodes[k + 1] - nodes[k])
    ll, lr = float(lo[k + 1] - lo[k]) / dt, float(hi[k + 1] - hi[k]) / dt
    _, up, dn = _events_affine(u, cbar, n, dt, float(lo[k + 1]), ll, float(hi[k + 1]), lr)
    return up, dn


def _check_terminal_mean(xi, lo, hi) -> None:
    """Raise :class:`InfeasibleTerminalError` unless ``E[xi]`` lies in the terminal band."""
    a = float(pairwise_mean(xi))
    stat = stat_tol(xi) + ROOT_TOL_DEFAULT
    if a < lo[-1] - stat or a > hi[-1] + stat:
        raise InfeasibleTerminalError(
            f"terminal mean {a:.6g} lies outside the obstacle band "
            f"[{lo[-1]:.6g}, {hi[-1]:.6g}] beyond tolerance {stat:.3g}"
        )


def solve_penalized(sc: Scenario, n: float) -> PenaltySolution:
    """Solve the penalized problem at penalty level ``n``.

    The particle recursion is the plain regression scheme plus the
    deterministic penalty increment from the exact mean integrator, one
    affine obstacle span per step; the monotone parts of ``K`` accumulate
    those increments.  When the mean never touches the obstacles the
    increments are exactly zero and the solution coincides bitwise with the
    unpenalized solve.
    """
    if sc.obstacles is None:
        raise ValueError("scenario carries no linear obstacles")
    if not 0.0 < n < math.inf:
        raise ValueError(f"penalty level must be positive and finite, got {n}")
    bm = sc.simulate()
    grid = bm.grid
    lo, hi = sc.obstacles.sample(grid)
    xi = sc.terminal_values(bm)
    _check_terminal_mean(xi, lo, hi)

    nodes = grid.nodes
    d_up, d_dn = np.zeros(grid.n_steps), np.zeros(grid.n_steps)

    def push(k: int, y_next: NDArray[np.floating], fval: NDArray[np.floating]) -> float:
        u, cbar = float(pairwise_mean(y_next)), float(pairwise_mean(fval))
        d_up[k], d_dn[k] = _mean_push(k, u, cbar, float(n), nodes, lo, hi)
        return d_up[k] - d_dn[k]

    plan = RegressionPlan.build(bm, sc.regression)
    sol = _backward_pass(xi, bm, plan, _plain_drift(sc.generator, grid), push)
    pu = np.concatenate([[0.0], np.cumsum(d_up)])
    pd = np.concatenate([[0.0], np.cumsum(d_dn)])
    return PenaltySolution(
        n=float(n),
        y=sol.y,
        z=sol.z,
        K=SamplePath(grid, pu - pd),
        push_up=SamplePath(grid, pu),
        push_down=SamplePath(grid, pd),
    )


# ---------------------------------------------------------------------------
# the convergence sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PenaltySweep:
    """Convergence table over increasing penalty levels.

    ``sup_errors`` is the sup-node gap between each penalized mean path and
    the reflected reference; ``upper_violations``/``lower_violations`` the
    sup-node obstacle overshoots; the bound columns are
    ``n^2 * sum((overshoot)^2 * dt)``, which stay bounded as ``n`` grows.
    ``slope`` is the fitted log-log error rate (NaN when errors vanish).
    """

    ns: tuple[float, ...]
    sup_errors: tuple[float, ...]
    variations: tuple[float, ...]
    upper_violations: tuple[float, ...]
    lower_violations: tuple[float, ...]
    upper_bound_column: tuple[float, ...]
    lower_bound_column: tuple[float, ...]
    slope: float
    reference_mean: NDArray[np.floating]


def _level_means(n, plain, fbar, nodes, lo, hi):
    """Mean path, ``push_up`` and ``push_down`` at level ``n`` by the scalar recursion.

    ``M_k = m0_k + sum_{j>=k} (up_j - down_j)``, each step's pushes taken
    from ``M_{k+1}``; a non-finite mean or push is a numerical failure.
    """
    d_up, d_dn = np.zeros(nodes.size - 1), np.zeros(nodes.size - 1)
    mean = plain.copy()
    shift = 0.0
    for k in range(nodes.size - 2, -1, -1):
        u, cbar = float(mean[k + 1]), float(fbar[k])
        d_up[k], d_dn[k] = _mean_push(k, u, cbar, n, nodes, lo, hi)
        shift += d_up[k] - d_dn[k]
        mean[k] += shift
        if not all(map(math.isfinite, (mean[k], d_up[k], d_dn[k]))):
            raise NumericalFailureError(
                f"penalized mean went non-finite at level {n:g}, node {k} (t = {nodes[k]:.6g})"
            )
    return mean, np.append(0.0, np.cumsum(d_up)), np.append(0.0, np.cumsum(d_dn))


def penalty_sweep(sc: Scenario, ns: list[float] | tuple[float, ...]) -> PenaltySweep:
    """Tabulate the penalized mean dynamics across increasing levels.

    The generator must be state-free (``ValueError`` otherwise), so every
    push shifts all particles alike and the regression, whose basis holds
    the constants, keeps the mean up to ridge and rounding.  The plain mean
    path thus needs no particle pass: ``m0_T = E[xi]`` and ``m0_k = m0_{k+1}
    + fbar_k dt_k``, with ``fbar_k`` the mean of the generator on a zero
    cross-section at ``t_k``; each level runs :func:`_level_means` on
    scalars.  The reference is the exact reflected limit, ``m0`` clamped
    against the obstacle band itself (a pinched band is allowed).  All rows
    share one terminal draw, so its Monte Carlo noise cancels.  That draw is
    ``B_T`` alone, bit for bit the last column of :meth:`Scenario.simulate`,
    so the sweep never holds the (particles, nodes) ensemble.
    """
    levels = [float(v) for v in ns]
    increasing = all(b > a for a, b in zip(levels, levels[1:]))
    if not levels or not increasing or not all(0.0 < v < math.inf for v in levels):
        raise ValueError(
            f"penalty levels must be positive, finite and strictly increasing: {levels}"
        )
    if sc.obstacles is None:
        raise ValueError("scenario carries no linear obstacles")
    _require_state_free(sc.generator, "the penalty sweep")
    grid = sc.make_grid()
    lo, hi = sc.obstacles.sample(grid)
    xi = sc._terminal_at(_brownian_terminal(grid, sc.particles, sc.rng))
    _check_terminal_mean(xi, lo, hi)
    nodes, dt = grid.nodes, grid.step_sizes
    # the node means of the driver frozen at zero, as the constant-driver route reads it
    zero = np.broadcast_to(0.0, (sc.particles, grid.n_nodes))
    drift = _frozen_drift(sc.generator, zero, zero, grid)
    fbar = [float(pairwise_mean(np.broadcast_to(drift(k), xi.shape))) for k in range(grid.n_steps)]
    plain = np.empty(nodes.size)
    plain[-1] = pairwise_mean(xi)
    for k in range(nodes.size - 2, -1, -1):
        plain[k] = plain[k + 1] + fbar[k] * dt[k]
    ref, _, _ = _reversed_clamp(plain[0] - plain, plain[-1], lo, hi)

    errs, tvs, v_up, v_dn, b_up, b_dn = [], [], [], [], [], []
    for level in levels:
        mean, push_up, push_down = _level_means(level, plain, fbar, nodes, lo, hi)
        over = np.maximum(mean - hi, 0.0)
        under = np.maximum(lo - mean, 0.0)
        errs.append(float(np.max(np.abs(mean - ref))))
        tvs.append(float(push_up[-1] + push_down[-1]))
        v_up.append(float(np.max(over)))
        v_dn.append(float(np.max(under)))
        # n * overshoot stays O(1) where n**2 alone would overflow a float
        mid_sq = lambda g: float(np.sum(0.5 * (g[1:] ** 2 + g[:-1] ** 2) * dt))
        b_up.append(mid_sq(level * over))
        b_dn.append(mid_sq(level * under))

    if all(e > 0.0 for e in errs) and len(errs) >= 2:
        slope, _, _ = rate_fit(levels, errs)
    else:
        slope = float("nan")
    return PenaltySweep(
        ns=tuple(levels),
        sup_errors=tuple(errs),
        variations=tuple(tvs),
        upper_violations=tuple(v_up),
        lower_violations=tuple(v_dn),
        upper_bound_column=tuple(b_up),
        lower_bound_column=tuple(b_dn),
        slope=slope,
        reference_mean=ref,
    )
