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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bsde import _backward_pass, constant_driver_path, solve_bsde
from .core import Ensemble, SamplePath, ensemble_means, pairwise_mean, stat_tol
from .diagnostics import rate_fit
from .errors import InfeasibleTerminalError, NumericalFailureError
from .mrbsde import Scenario
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

        if p_l < 0.0 or (p_l == 0.0 and drift_l < 0.0):
            # Relaxing upward toward the lower obstacle.
            big_g = drift_l / n
            big_d = p_l - big_g
            if big_g > 0.0 and big_d < 0.0 and -big_g / big_d < 1.0:
                tau = math.log(-big_d / big_g) / n
            else:
                tau = math.inf
            te = min(tau, remaining)
            decay = -math.expm1(-n * te)  # 1 - exp(-n te)
            up += max(0.0, -(big_d * decay + n * big_g * te))
            if tau <= remaining:
                u = al - ll * (h0 + tau)  # lands exactly on the obstacle
                remaining -= tau
            else:
                u = big_d * math.exp(-n * te) + big_g + (al - ll * (h0 + te))
                remaining = 0.0
        elif p_r > 0.0 or (p_r == 0.0 and drift_r > 0.0):
            # Relaxing downward toward the upper obstacle.
            big_g = drift_r / n
            big_d = p_r - big_g
            if big_g < 0.0 and big_d > 0.0 and -big_g / big_d < 1.0:
                tau = math.log(-big_d / big_g) / n
            else:
                tau = math.inf
            te = min(tau, remaining)
            decay = -math.expm1(-n * te)
            dn += max(0.0, big_d * decay + n * big_g * te)
            if tau <= remaining:
                u = ar - lr * (h0 + tau)
                remaining -= tau
            else:
                u = big_d * math.exp(-n * te) + big_g + (ar - lr * (h0 + te))
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


def _mean_substep(
    m_end: float,
    cbar: float,
    n: float,
    t0: float,
    t1: float,
    lo0: float,
    lo1: float,
    hi0: float,
    hi1: float,
    stiff_max: float,
) -> tuple[float, float]:
    """Penalty-part increments of the mean over one global step.

    Integrates backward from ``m_end`` at ``t1`` to ``t0`` with driver mean
    ``cbar`` frozen; the step is sub-cycled whenever ``n * dt`` exceeds the
    stiffness cap, with obstacles interpolated affinely between node values.
    Returns ``(up_increment, down_increment)``.
    """
    dt = t1 - t0
    subs = max(1, min(64, math.ceil(n * dt / stiff_max)))
    slope_l = (lo1 - lo0) / dt
    slope_r = (hi1 - hi0) / dt
    u = m_end
    up = dn = 0.0
    for j in range(subs, 0, -1):
        tb = t0 + dt * j / subs
        span = dt / subs
        al = lo0 + slope_l * (tb - t0)
        ar = hi0 + slope_r * (tb - t0)
        u, du, dd = _events_affine(u, cbar, n, span, al, slope_l, ar, slope_r)
        up += du
        dn += dd
    return up, dn


# ---------------------------------------------------------------------------
# the penalized solver
# ---------------------------------------------------------------------------


def solve_penalized(
    sc: Scenario, n: float, *, bm: Ensemble | None = None
) -> PenaltySolution:
    """Solve the penalized problem at penalty level ``n``.

    The particle recursion is the plain regression scheme plus the
    deterministic penalty increment from the exact mean sub-integrator; the
    monotone parts of ``K`` accumulate those increments.  When the mean
    never touches the obstacles the increments are exactly zero and the
    solution coincides bitwise with the unpenalized solve.
    """
    if sc.obstacles is None:
        raise ValueError("scenario carries no linear obstacles")
    if not 0.0 < n < math.inf:
        raise ValueError(f"penalty level must be positive and finite, got {n}")
    grid = bm.grid if bm is not None else sc.make_grid()
    if bm is None:
        bm = sc.simulate(grid)
    lo, hi = sc.obstacles.sample(grid)
    xi = sc.terminal_values(bm)
    a = float(pairwise_mean(xi))
    stat = stat_tol(xi, sc.tol.stat_tol_mult) + sc.tol.root_tol
    if a < lo[-1] - stat or a > hi[-1] + stat:
        raise InfeasibleTerminalError(
            f"terminal mean {a:.6g} lies outside the obstacle band "
            f"[{lo[-1]:.6g}, {hi[-1]:.6g}] beyond tolerance {stat:.3g}"
        )

    nodes = grid.nodes
    d_up = np.zeros(grid.n_steps)
    d_dn = np.zeros(grid.n_steps)

    def push(k: int, y_next: NDArray[np.floating], fval: NDArray[np.floating]) -> float:
        up_inc, dn_inc = _mean_substep(
            float(pairwise_mean(y_next)),
            float(pairwise_mean(fval)),
            float(n),
            float(nodes[k]),
            float(nodes[k + 1]),
            float(lo[k]),
            float(lo[k + 1]),
            float(hi[k]),
            float(hi[k + 1]),
            sc.tol.stiff_max,
        )
        d_up[k] = up_inc
        d_dn[k] = dn_inc
        return up_inc - dn_inc

    sol = _backward_pass(xi, sc.generator, bm, sc.regression, None, nodes, push)
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
# limit reference and the convergence sweep
# ---------------------------------------------------------------------------


def _reference_mean(
    sc: Scenario, bm: Ensemble, lo: NDArray[np.floating], hi: NDArray[np.floating]
) -> NDArray[np.floating]:
    """Mean path of the exact reflected limit, by direct band clamping.

    Freezes the driver on zero ensembles (the sweep targets scenarios whose
    driver mean does not depend on the solution), accumulates the mean drift
    path, and solves the terminal-anchored clamp against the obstacle band
    itself — no root-finding, and a pinched band (``l_0 = r_0``) is allowed.
    """
    grid = bm.grid
    xi = sc.terminal_values(bm)
    zeros = Ensemble(grid, np.zeros_like(bm.values))
    driver = constant_driver_path(sc.generator, zeros, zeros)
    plain = solve_bsde(xi, None, bm, sc.regression, driver=driver)
    means = ensemble_means(plain.y)
    x, _, _ = _reversed_clamp(means[0] - means, means[-1], lo, hi, band_min=0.0)
    return x


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


def penalty_sweep(
    sc: Scenario, ns: list[float] | tuple[float, ...], *, threads: int = 1
) -> PenaltySweep:
    """Run the penalized solver across increasing levels and tabulate.

    All levels share one Brownian ensemble, so differences between rows are
    purely the penalty dynamics (the Monte Carlo noise cancels against the
    shared reference).  ``threads > 1`` fans the independent levels out over
    a thread pool; each level's solve is a pure function of ``(sc, n, bm)``
    and rows are tabulated in level order, so the result is identical for
    any thread count.
    """
    levels = [float(v) for v in ns]
    increasing = all(b > a for a, b in zip(levels, levels[1:]))
    if not levels or not increasing or not all(map(math.isfinite, levels)):
        raise ValueError(f"penalty levels must be finite and strictly increasing: {levels}")
    if sc.obstacles is None:
        raise ValueError("scenario carries no linear obstacles")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    grid = sc.make_grid()
    bm = sc.simulate(grid)
    lo, hi = sc.obstacles.sample(grid)
    ref = _reference_mean(sc, bm, lo, hi)
    dt = grid.step_sizes

    def level_result(n: float) -> tuple[NDArray[np.floating], SamplePath, SamplePath]:
        # only what the table reads: no level's particles outlive its solve
        sol = solve_penalized(sc, n, bm=bm)
        return ensemble_means(sol.y), sol.push_up, sol.push_down

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(level_result, levels))
    else:
        results = [level_result(level) for level in levels]

    errs, tvs, v_up, v_dn, b_up, b_dn = [], [], [], [], [], []
    for level, (mean, push_up, push_down) in zip(levels, results):
        over = np.maximum(mean - hi, 0.0)
        under = np.maximum(lo - mean, 0.0)
        errs.append(float(np.max(np.abs(mean - ref))))
        tvs.append(float(push_up.values[-1] + push_down.values[-1]))
        v_up.append(float(np.max(over)))
        v_dn.append(float(np.max(under)))
        mid_sq = lambda g: float(np.sum(0.5 * (g[1:] ** 2 + g[:-1] ** 2) * dt))
        b_up.append(level**2 * mid_sq(over))
        b_dn.append(level**2 * mid_sq(under))

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
