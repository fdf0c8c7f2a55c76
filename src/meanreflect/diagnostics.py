"""Cross-cutting verification helpers.

Meters for mean-constraint violations, flatness audits of reflected
solutions, contraction-ratio estimation for fixed-point traces, and the
log-log rate fitter used by convergence sweeps.  Everything here is a pure
function of its inputs and deterministic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .constraints import ROOT_TOL_DEFAULT, LossPair, _loss_stats
from .core import Ensemble
from .mrbsde import MRSolution, PicardTrace

__all__ = [
    "mean_loss_paths",
    "solution_stat_tol",
    "MRAudit",
    "audit_solution",
    "representation_gap",
    "ContractionEstimate",
    "contraction_estimate",
    "rate_fit",
]

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# constraint meters
# ---------------------------------------------------------------------------


def _loss_paths(y: Ensemble, lp: LossPair) -> tuple[NDArray, NDArray, NDArray, float]:
    """Per-node ``E[L]``, ``E[R]`` and statistical tolerance, and the largest scale: one meter pass.

    The scale is the largest ``|L|``, ``|R|`` or ``C |Y|`` over the ensemble
    (see :func:`_loss_stats`).
    """
    stats = [_loss_stats(lp, t, y.values[:, k]) for k, t in enumerate(y.grid.nodes)]
    e_l, e_r, tols, scales = np.array(stats, dtype=float).T
    return e_l, e_r, tols, float(np.max(scales))


def mean_loss_paths(
    y: Ensemble, lp: LossPair
) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Per-node empirical means of both losses along an ensemble.

    Returns ``(E[L(t_k, Y_k)], E[R(t_k, Y_k)])`` as node arrays, ``t_k`` the
    node times of the ensemble's grid.
    """
    e_l, e_r, _, _ = _loss_paths(y, lp)
    return e_l, e_r


def solution_stat_tol(y: Ensemble, lp: LossPair) -> float:
    """Largest per-node statistical tolerance of either loss cross-section."""
    return float(np.max(_loss_paths(y, lp)[2]))


# ---------------------------------------------------------------------------
# solution audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MRAudit:
    """Joint constraint/flatness audit of a reflected solution.

    ``violation_tol`` is the exact tolerance of the reflected nodes; the
    Monte Carlo tolerance of the loss means is :func:`solution_stat_tol`.
    ``terminal_overshoot`` is ``v_T = max(E[L_T], -E[R_T], 0)``, the part of
    the violation that comes from the terminal data, and ``terminal_tol``
    the tolerance it was admitted under.
    """

    violation_lower: float
    violation_upper: float
    violation_tol: float
    flat_residual_up: float
    flat_residual_down: float
    flat_tol: float
    terminal_overshoot: float
    terminal_tol: float
    passed: bool


def audit_solution(sol: MRSolution, lp: LossPair) -> MRAudit:
    """Check a reflected solution's two contracts at once, both near-exact.

    The overshoots are ``max_k (E[L])^+`` and ``max_k (-E[R])^+`` over the
    empirical cross-sections.  Every solver enforces the empirical mean
    constraint to its root tolerance, so they must stay within

        violation_tol = (1 + C/c) C ROOT_TOL_DEFAULT + (C/c) v_T + 64 eps nodes scale,

    with ``scale`` the largest ``|L|``, ``|R|`` or ``C |Y|``.  ``v_T`` is
    the overshoot at the terminal node, which holds the data: the solver
    admits it within the terminal check's Monte Carlo tolerance plus
    ``ROOT_TOL_DEFAULT``, and absorbs it as an initial force that shifts
    every mean by at most ``v_T / c``.  The audit checks both, reports
    ``v_T`` and its tolerance, and logs a warning when ``v_T`` is not zero.
    Flat residuals are allowed ``1e-10 * (1 + sup|s|) * (1 + TV(K))``.
    """
    return _audit(sol, lp, *_loss_paths(sol.y, lp))


def _audit(
    sol: MRSolution, lp: LossPair, e_l: NDArray, e_r: NDArray, tols: NDArray, scale: float
) -> MRAudit:
    """:func:`audit_solution` on its meter pass ``_loss_paths(sol.y, lp)``."""
    v_l, v_r = float(np.max(np.maximum(e_l, 0.0))), float(np.max(np.maximum(-e_r, 0.0)))
    v_T = float(np.max([e_l[-1], -e_r[-1], 0.0]))  # np.max keeps a NaN
    ratio = lp.C / lp.c
    rounding = 64.0 * np.finfo(float).eps * e_l.size * scale
    v_tol = float((1.0 + ratio) * lp.C * ROOT_TOL_DEFAULT + ratio * v_T + rounding)
    f_tol = 1e-10 * (1.0 + sol.s_sup) * (1.0 + sol.variation)
    t_tol = float(tols[-1]) + ROOT_TOL_DEFAULT
    if v_T > 0.0:
        logger.warning(
            "the terminal data overshoots the mean constraint by %.3e (admitted up to %.3e); "
            "every mean where the band binds carries up to C/c times that",
            v_T,
            t_tol,
        )
    passed = (
        math.isfinite(v_tol)  # an infinite Y or loss value fails, as a NaN does below
        and v_T <= t_tol
        and v_l <= v_tol
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
        terminal_overshoot=v_T,
        terminal_tol=t_tol,
        passed=bool(passed),
    )


def representation_gap(sol: MRSolution) -> float:
    """Max particle/node gap of ``Y - (inner + K_T - K)``, node by node.

    ``inner`` is ``Y - (K_T - K)``, so this measures rounding alone; it is kept for the benchmark.
    """
    shift = sol.K.values[-1] - sol.K.values
    y = sol.y.values
    gaps = [np.max(np.abs(y[:, k] - ((y[:, k] - shift[k]) + shift[k]))) for k in range(shift.size)]
    return float(np.max(gaps))  # np.max, not max: a NaN gap must carry through


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
    """The contraction factor of a fixed-point trace, read off its ratios.

    ``fitted_ratio`` is the geometric mean of the positive ``trace.ratios``,
    the quotients of consecutive combined distances within a segment that
    :func:`picard_solve` splits the horizon on, and ``fit_residual`` the
    root-mean-square spread of their logarithms.  Within one segment the
    mean is the average per-iteration rate from its first iterate to its
    last; pooling the logarithms never mixes two segments' distances.  A
    zero ratio is an exact repeat and is left out; a trace with no positive
    ratio reports 0.0 for both.  Needs at least three recorded iterations.
    """
    if trace.iterations < 3:
        raise ValueError("need at least three iterations to estimate contraction")
    logs = np.log([r for r in trace.ratios if r > 0.0])
    fitted = float(np.exp(np.mean(logs))) if logs.size else 0.0
    resid = float(np.std(logs)) if logs.size else 0.0
    return ContractionEstimate(
        ratios=trace.ratios,
        fitted_ratio=fitted,
        fit_residual=resid,
        contracting=fitted < 1.0,
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
