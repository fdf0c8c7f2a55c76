"""Independent reference implementations used only by the tests.

Every function here recomputes a quantity through a route disjoint from the
library's own algorithms: the two-sided reflection through its explicit
max-min representation instead of the clamp recursion, the penalized mean
dynamics through an adaptive stiff ODE integrator instead of the closed-form
event integrator, and the quadratic initial value through the exponential
transform instead of regression, and the mean-field reflected mean
through a closed-form reduction (Gauss-Hermite quadrature and Brent's
method) instead of regression, Picard iteration and Illinois steps.
Agreement between the two routes is the point; never "fix" one side to
match the other.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.typing import NDArray
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


# ---------------------------------------------------------------------------
# two-sided reflection, closed form
# ---------------------------------------------------------------------------

def double_barrier_batch(
    walks: NDArray[np.floating], lo: float, hi: float
) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Reflect each row of ``walks`` into the constant band [lo, hi].

    Uses the explicit max-min representation of the two-sided reflection:
    with ``psi`` the free path, the compensator at node k is

        eta_k = max_{s<=k} [ A_s  ^  min_{u in [s,k]} (psi_u - lo) ]

    where ``A_0 = (psi_0 - hi)^+`` and ``A_s = psi_s - hi`` for s >= 1, and
    the reflected path is ``x = psi - eta``, ``K = -eta``.  The unclipped
    ``A_0`` would let a start inside the band pretend it had been pushed;
    clipping encodes "no force before it is needed" at the first node.

    O(n * m^2) in the number of nodes m, but fully vectorised across rows;
    fine for the few hundred paths the tests throw at it.

    Returns ``(x, K)`` with the same shape as ``walks``.
    """
    psi = np.asarray(walks, dtype=float)
    if psi.ndim != 2:
        raise ValueError("walks must be 2-D (paths x nodes)")
    if not lo < hi:
        raise ValueError("need lo < hi")
    upper = psi - hi
    lower = psi - lo
    cand = upper.copy()
    cand[:, 0] = np.maximum(upper[:, 0], 0.0)
    runmin = lower.copy()          # runmin[:, s] = min_{u in [s, k]} lower_u
    eta = np.empty_like(psi)
    for k in range(psi.shape[1]):
        np.minimum(runmin[:, : k + 1], lower[:, k : k + 1], out=runmin[:, : k + 1])
        eta[:, k] = np.max(np.minimum(cand[:, : k + 1], runmin[:, : k + 1]), axis=1)
    return psi - eta, -eta


# ---------------------------------------------------------------------------
# penalized mean dynamics, stiff ODE route
# ---------------------------------------------------------------------------

def radau_penalized_mean(
    m_terminal: float,
    cbar: float,
    n: float,
    horizon: float,
    nodes: NDArray[np.floating],
    lower_obstacle,
    upper_obstacle,
) -> NDArray[np.floating]:
    """Mean path of the penalized equation, integrated by Radau.

    With a state-independent driver the particle mean decouples into the
    scalar terminal-value problem

        dm/dt = -cbar - n (m - l(t))^- + n (m - r(t))^+ ,   m(T) given,

    which becomes a forward initial-value problem in the reversed clock
    tau = T - t.  The penalty makes it stiff for large n, hence the implicit
    Radau integrator with tight tolerances; errors here are ~1e-10, far
    below the 1e-3 the comparisons care about.

    Returns the mean at each entry of ``nodes`` (forward time).
    """
    T = float(horizon)

    def rhs(tau: float, m: NDArray[np.floating]) -> list[float]:
        t = T - tau
        val = float(m[0])
        lo = float(lower_obstacle(t))
        hi = float(upper_obstacle(t))
        return [cbar + n * max(lo - val, 0.0) - n * max(val - hi, 0.0)]

    out = solve_ivp(
        rhs,
        (0.0, T),
        [float(m_terminal)],
        method="Radau",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
    )
    if not out.success:
        raise RuntimeError(f"Radau oracle failed: {out.message}")
    taus = T - np.asarray(nodes, dtype=float)
    return np.asarray(out.sol(taus)[0], dtype=float)


# ---------------------------------------------------------------------------
# quadratic-driver initial value, exponential transform
# ---------------------------------------------------------------------------

def cole_hopf_value(gamma: float, terminal_values: NDArray[np.floating]) -> float:
    """Initial value for the driver (gamma/2) z^2 via the exponential transform.

    exp(gamma * Y) is a martingale under that driver, so
    Y_0 = log E[exp(gamma * xi)] / gamma.  Evaluated on the *same* terminal
    draw as the solver under test, Monte Carlo noise cancels to first order
    and the comparison isolates discretisation plus regression error.
    fsum keeps the accumulation exact regardless of summation order.
    """
    vals = np.asarray(terminal_values, dtype=float).ravel()
    g = float(gamma)
    if g <= 0.0:
        raise ValueError("gamma must be positive")
    return float(math.log(math.fsum(np.exp(g * vals)) / vals.size) / g)


# ---------------------------------------------------------------------------
# mean-field reflected mean, closed-form reduction
# ---------------------------------------------------------------------------

def sin_terminal_reflected_mean(
    nodes: NDArray[np.floating],
    amplitude: float,
    shift: float,
    drivers: tuple[float, float, float, float],
    L,
    R,
    points: int = 80,
) -> NDArray[np.floating]:
    """Reflected mean path ``E[Y_t]`` for ``xi = amplitude sin(B_T) + shift``, node by node.

    ``drivers`` is ``(a_y, a_mean_y, a_mean_z, const)`` of the driver
    ``a_y y + a_mean_y E[y] + a_mean_z E[z] + const``, and ``L``, ``R`` the
    time-invariant losses as functions of ``x``.  The force is deterministic
    and the driver linear in ``y``, so the centred part solves a linear
    BSDE of its own:

        Y_t - E[Y_t] = A_t sin(B_t),  A_t = amplitude e^{(a_y - 1/2)(T - t)},
        E[Z_t] = A_t e^{-t/2}.

    The band edges at ``t`` are the roots in ``m`` of ``E[L(m + A_t
    sin(B_t))]`` and ``E[R(...)]`` with ``B_t ~ N(0, t)``, the expectations
    taken by ``points``-point Gauss-Hermite quadrature and the roots by
    ``brentq``.  The mean runs the grid's clamp scheme from ``E[xi] =
    shift``:

        m_k = clamp((m_{k+1} + e_k h) / (1 - (a_y + a_mean_y) h)),
        e_k = a_mean_z E[Z_{t_k}] + const,

    into the band at node ``k``; the divisor is there because the fixed
    point freezes the driver at node ``k``'s own value.
    """
    a_y, a_mean_y, a_mean_z, const = (float(v) for v in drivers)
    t_nodes = [float(t) for t in nodes]
    horizon = t_nodes[-1]
    x, w = hermegauss(points)
    w = w / math.sqrt(2.0 * math.pi)

    def amp(t: float) -> float:
        return amplitude * math.exp((a_y - 0.5) * (horizon - t))

    def root(f, t: float) -> float:
        offsets = amp(t) * np.sin(math.sqrt(t) * x)

        def mean(m: float) -> float:
            return float(w @ f(m + offsets))

        lo, hi = -1.0, 1.0
        while mean(lo) > 0.0:
            lo *= 2.0
        while mean(hi) < 0.0:
            hi *= 2.0
        return brentq(mean, lo, hi, xtol=1e-14)

    def clamp(m: float, t: float) -> float:
        return min(max(m, root(R, t)), root(L, t))

    m = clamp(float(shift), horizon)
    path = [m]
    for k in range(len(t_nodes) - 2, -1, -1):
        t, h = t_nodes[k], t_nodes[k + 1] - t_nodes[k]
        e = a_mean_z * amp(t) * math.exp(-t / 2.0) + const
        m = clamp((m + e * h) / (1.0 - (a_y + a_mean_y) * h), t)
        path.append(m)
    return np.array(path[::-1])
