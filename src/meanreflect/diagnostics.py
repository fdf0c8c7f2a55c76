"""Cross-cutting verification helpers.

Meters for mean-constraint violations, flatness audits of reflected
solutions, contraction-ratio estimation for fixed-point traces, and the
log-log rate fitter used by convergence sweeps.  Everything here is a pure
function of its inputs and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constraints import LossPair
from .core import Ensemble, pairwise_mean, stat_tol
from .mrbsde import MRSolution, PicardTrace

__all__ = [
    "mean_loss_paths",
    "constraint_violation",
    "stat_tol",
    "solution_stat_tol",
    "MRAudit",
    "audit_solution",
    "representation_gap",
    "ContractionEstimate",
    "contraction_estimate",
    "rate_fit",
]


# ---------------------------------------------------------------------------
# constraint meters
# ---------------------------------------------------------------------------


def mean_loss_paths(
    y: Ensemble, lp: LossPair
) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Per-node empirical means of both losses along an ensemble.

    Returns ``(E[L(t_k, Y_k)], E[R(t_k, Y_k)])`` as node arrays, ``t_k`` the
    node times of the ensemble's grid.
    """
    m = y.grid.n_nodes
    e_l = np.empty(m)
    e_r = np.empty(m)
    for k in range(m):
        cross = y.values[:, k]
        t = float(y.grid.nodes[k])
        e_l[k] = float(pairwise_mean(np.asarray(lp.L(t, cross), dtype=float)))
        e_r[k] = float(pairwise_mean(np.asarray(lp.R(t, cross), dtype=float)))
    return e_l, e_r


def constraint_violation(y: Ensemble, lp: LossPair) -> tuple[float, float]:
    """Worst-node overshoot of each mean constraint.

    Returns ``(max_k (E[L])^+, max_k (-E[R])^+)`` — both zero for a solution
    that keeps ``E[L] <= 0 <= E[R]`` everywhere.
    """
    e_l, e_r = mean_loss_paths(y, lp)
    return float(np.max(np.maximum(e_l, 0.0))), float(np.max(np.maximum(-e_r, 0.0)))


def solution_stat_tol(y: Ensemble, lp: LossPair, mult: float = 4.0) -> float:
    """Largest per-node statistical tolerance of either loss cross-section."""
    out = 0.0
    for k in range(y.grid.n_nodes):
        cross = y.values[:, k]
        t = float(y.grid.nodes[k])
        out = max(
            out,
            stat_tol(np.asarray(lp.L(t, cross), dtype=float), mult),
            stat_tol(np.asarray(lp.R(t, cross), dtype=float), mult),
        )
    return out


# ---------------------------------------------------------------------------
# solution audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MRAudit:
    """Joint constraint/flatness audit of a reflected solution."""

    violation_lower: float
    violation_upper: float
    violation_tol: float
    flat_residual_up: float
    flat_residual_down: float
    flat_tol: float
    passed: bool


def audit_solution(sol: MRSolution, lp: LossPair, *, mult: float = 4.0) -> MRAudit:
    """Check a reflected solution's two soft contracts at once.

    Constraint satisfaction is statistical — overshoots of the mean losses
    must stay within ``mult * sigma / sqrt(N)`` — while flat residuals are
    near-exact, allowed ``1e-10 * (1 + sup|s|) * (1 + TV(K))``.
    """
    v_l, v_r = constraint_violation(sol.y, lp)
    v_tol = solution_stat_tol(sol.y, lp, mult)
    f_tol = 1e-10 * (1.0 + sol.s_sup) * (1.0 + sol.variation)
    passed = (
        v_l <= v_tol
        and v_r <= v_tol
        and sol.flat_residual_up <= f_tol
        and sol.flat_residual_down <= f_tol
    )
    return MRAudit(
        violation_lower=v_l,
        violation_upper=v_r,
        violation_tol=v_tol,
        flat_residual_up=sol.flat_residual_up,
        flat_residual_down=sol.flat_residual_down,
        flat_tol=f_tol,
        passed=passed,
    )


def representation_gap(sol: MRSolution) -> float:
    """Max particle/node gap of ``Y - (inner + K_T - K)`` (identity guard)."""
    shift = sol.K.values[-1] - sol.K.values
    return float(np.max(np.abs(sol.y.values - (sol.inner.values + shift[None, :]))))


# ---------------------------------------------------------------------------
# convergence estimators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContractionEstimate:
    """Measured contraction behaviour of a fixed-point trace."""

    ratios: tuple[float, ...]
    fitted_ratio: float
    fit_residual: float
    contracting: bool


def contraction_estimate(trace: PicardTrace) -> ContractionEstimate:
    """Ratio sequence and geometric fit of a fixed-point trace.

    Fits ``log d_m`` against the iteration index by least squares over the
    positive distances; the exponentiated slope estimates the contraction
    factor.  Needs at least three recorded iterations.
    """
    if trace.iterations < 3:
        raise ValueError("need at least three iterations to estimate contraction")
    dists = np.asarray(trace.combined_distances, dtype=float)
    pos = dists > 0.0
    if np.count_nonzero(pos) >= 2:
        idx = np.nonzero(pos)[0].astype(float)
        logs = np.log(dists[pos])
        slope, intercept = np.polyfit(idx, logs, 1)
        resid = float(np.sqrt(np.mean((logs - (slope * idx + intercept)) ** 2)))
        fitted = float(np.exp(slope))
    else:
        # Distances collapsed to exact zero almost immediately.
        fitted = 0.0
        resid = 0.0
    contracting = fitted < 1.0
    return ContractionEstimate(
        ratios=trace.ratios,
        fitted_ratio=fitted,
        fit_residual=resid,
        contracting=contracting,
    )


def rate_fit(
    xs: list[float] | tuple[float, ...] | NDArray[np.floating],
    errs: list[float] | tuple[float, ...] | NDArray[np.floating],
) -> tuple[float, float, float]:
    """Ordinary least squares on log-log axes: ``(slope, intercept, residual)``.

    ``err ~ exp(intercept) * x**slope``; the residual is the root-mean-square
    misfit in log space.
    """
    x = np.asarray(xs, dtype=float)
    e = np.asarray(errs, dtype=float)
    if x.shape != e.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two aligned 1-d samples or more")
    if np.any(x <= 0.0) or np.any(e <= 0.0):
        raise ValueError("rate fitting needs strictly positive entries")
    lx = np.log(x)
    le = np.log(e)
    slope, intercept = np.polyfit(lx, le, 1)
    resid = float(np.sqrt(np.mean((le - (slope * lx + intercept)) ** 2)))
    return float(slope), float(intercept), resid
