"""Randomized verification suites for the reflection maps.

Each suite draws a batch of random instances (walk inputs, bands, anchors)
and runs one of the executable estimates from :mod:`meanreflect.skorokhod`
or the exact round-trip identities of the backward map.  Suites are fully
deterministic given their seed and return flat pass/fail summaries, so they
serve both the test suite and the command-line ``verify`` entry point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .constraints import BoundaryPair, LossPair, boundary_from_losses, linear_band, saturating_band
from .core import SamplePath, TimeGrid, build_grid
from .skorokhod import (
    check_comparison,
    check_continuity_bound,
    check_tv_bound,
    solve_bsp,
    solve_sp,
)

__all__ = [
    "SuiteResult",
    "SUITE_NAMES",
    "run_reversal_suite",
    "run_continuity_suite",
    "run_backward_continuity_suite",
    "run_comparison_suite",
    "run_variation_suite",
    "run_suite",
]

SUITE_NAMES = (
    "reversal",
    "continuity",
    "backward-continuity",
    "comparison",
    "variation",
    "skorokhod",
    "all",
)

_X_SAMPLES = np.linspace(-8.0, 8.0, 17)


@dataclass(frozen=True)
class SuiteResult:
    """Flat summary of one randomized suite run."""

    name: str
    instances: int
    failures: int
    worst_slack: float
    passed: bool
    details: tuple[str, ...]


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _band_pair(
    rng: np.random.Generator,
) -> tuple[float, float, bool]:
    lo = float(rng.uniform(-3.0, -0.5))
    hi = float(rng.uniform(0.5, 3.0))
    saturating = bool(rng.uniform() < 0.5)
    return lo, hi, saturating

def _make(lo: float, hi: float, saturating: bool) -> LossPair:
    return saturating_band(lo, hi) if saturating else linear_band(lo, hi)


def _walk(
    rng: np.random.Generator, grid: TimeGrid, scale: float, start: float
) -> SamplePath:
    dt = grid.step_sizes
    drift = float(rng.uniform(-2.0, 2.0))
    inc = rng.normal(0.0, np.sqrt(dt)) * scale + drift * dt
    vals = np.concatenate([[start], start + np.cumsum(inc)])
    return SamplePath(grid, vals)


def _grid(rng: np.random.Generator) -> TimeGrid:
    return build_grid(1.0, int(rng.integers(32, 97)))


def _interior_anchor(
    rng: np.random.Generator, bp: BoundaryPair, margin: float = 0.05
) -> float:
    rho, lam = bp.band_edges()
    width = lam[-1] - rho[-1]
    return float(rng.uniform(rho[-1] + margin * width, lam[-1] - margin * width))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

# A per-instance check draws one instance from the suite's stream and returns
# (slack, passed, note); the note is reported for failing instances only.
_Check = Callable[[np.random.Generator], tuple[float, bool, str]]


def _run_instances(name: str, instances: int, seed: int, check: _Check) -> SuiteResult:
    """Run ``check`` on ``instances`` draws from the stream keyed by ``seed``."""
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    rng = np.random.default_rng([seed, 0])
    slacks: list[float] = []
    details: list[str] = []
    for i in range(instances):
        slack, passed, note = check(rng)
        slacks.append(slack)
        if not passed:
            details.append(f"instance {i}: {note}")
    return SuiteResult(
        name=name,
        instances=instances,
        failures=len(details),
        worst_slack=float(min(slacks)),
        passed=not details,
        details=tuple(details[:10]),
    )


def _reversal_check(rng: np.random.Generator) -> tuple[float, bool, str]:
    grid = _grid(rng)
    bp = boundary_from_losses(grid, _make(*_band_pair(rng)))
    s = _walk(rng, grid, scale=1.0, start=float(rng.normal(0.0, 1.0)))
    fwd = solve_sp(s, bp)
    resid = float(np.max(np.abs(fwd.x.values - s.values - fwd.K.values)))
    a = _interior_anchor(rng, bp)
    bwd = solve_bsp(s, a, bp)
    sv, kv = s.values, bwd.K.values
    recon = a + sv[-1] - sv + kv[-1] - kv
    resid = max(resid, float(np.max(np.abs(bwd.x.values - recon))))
    resid = max(resid, abs(float(bwd.x.values[-1]) - a))
    slack = 1e-12 - resid
    return slack, not slack < 0.0, f"round-trip residual {resid:.3e}"


def _continuity_check(
    rng: np.random.Generator, backward: bool = False
) -> tuple[float, bool, str]:
    """Perturb an input path and its band; compare the two forces.

    Both directions draw the same instance; the backward one then anchors
    the two problems at nearby interior terminal values.
    """
    grid = _grid(rng)
    lo, hi, saturating = _band_pair(rng)
    d_lo, d_hi = rng.uniform(-0.1, 0.1, size=2)
    bp1 = boundary_from_losses(grid, _make(lo, hi, saturating))
    bp2 = boundary_from_losses(grid, _make(lo + float(d_lo), hi + float(d_hi), saturating))
    s1 = _walk(rng, grid, scale=1.0, start=float(rng.normal(0.0, 1.0)))
    bump = _walk(rng, grid, scale=0.1, start=float(rng.normal(0.0, 0.05)))
    s2 = SamplePath(grid, s1.values + bump.values)
    if backward:
        a1 = _interior_anchor(rng, bp1)
        rho2, lam2 = bp2.band_edges()
        w2 = lam2[-1] - rho2[-1]
        a2 = float(
            np.clip(a1 + rng.uniform(-0.1, 0.1), rho2[-1] + 0.02 * w2, lam2[-1] - 0.02 * w2)
        )
        sol1, sol2 = solve_bsp(s1, a1, bp1), solve_bsp(s2, a2, bp2)
    else:
        sol1, sol2 = solve_sp(s1, bp1), solve_sp(s2, bp2)
    rep = check_continuity_bound(sol1, sol2, s1, s2, bp1, bp2, _X_SAMPLES)
    return rep.slack, rep.passed, f"lhs {rep.lhs:.3e} rhs {rep.rhs:.3e}"


def _comparison_check(rng: np.random.Generator) -> tuple[float, bool, str]:
    grid = _grid(rng)
    lo, hi, saturating = _band_pair(rng)
    widen_lo = float(rng.uniform(0.0, 1.0))
    widen_hi = float(rng.uniform(0.0, 1.0))
    bp_narrow = boundary_from_losses(grid, _make(lo, hi, saturating))
    bp_wide = boundary_from_losses(grid, _make(lo - widen_lo, hi + widen_hi, saturating))
    s = _walk(rng, grid, scale=1.0, start=float(rng.normal(0.0, 1.0)))
    rep = check_comparison(s, bp_wide, bp_narrow, _X_SAMPLES)
    return rep.slack, rep.passed, (
        f"premise_ok {rep.premise_ok}, violations "
        f"{rep.max_violation_up:.3e}/{rep.max_violation_down:.3e}"
    )


def _variation_check(rng: np.random.Generator) -> tuple[float, bool, str]:
    grid = _grid(rng)
    bp = boundary_from_losses(grid, _make(*_band_pair(rng)))
    rho, lam = bp.band_edges()
    start = float(rng.uniform(rho[0] + 0.02, lam[0] - 0.02))
    s = _walk(rng, grid, scale=1.0, start=start)
    rep = check_tv_bound(solve_sp(s, bp), s, bp=bp)
    return rep.slack, rep.passed, f"tv {rep.tv:.3e} bound {rep.var_phi + rep.var_psi:.3e}"


def run_reversal_suite(instances: int = 100, seed: int = 2301) -> SuiteResult:
    """Exact identities of the forward and terminal-anchored maps.

    Per instance: the forward output must satisfy ``x = s + K`` and the
    backward one ``x_t = a + s_T - s_t + K_T - K_t`` with the anchor
    recovered at the last node, all to 1e-12.
    """
    return _run_instances("reversal", instances, seed, _reversal_check)


def run_continuity_suite(instances: int = 100, seed: int = 2302) -> SuiteResult:
    """Force stability under joint input/boundary perturbation (forward)."""
    return _run_instances("continuity", instances, seed, _continuity_check)


def run_backward_continuity_suite(instances: int = 100, seed: int = 2303) -> SuiteResult:
    """Force stability for the terminal-anchored map (doubled constants)."""
    return _run_instances(
        "backward-continuity", instances, seed, partial(_continuity_check, backward=True)
    )


def run_comparison_suite(instances: int = 100, seed: int = 2304) -> SuiteResult:
    """Nested bands: the narrower band forces at least as much, nodewise."""
    return _run_instances("comparison", instances, seed, _comparison_check)


def run_variation_suite(instances: int = 100, seed: int = 2305) -> SuiteResult:
    """Total force variation against the band-edge root paths.

    Inputs start inside the band (the estimate does not cover an initial
    jump into it).
    """
    return _run_instances("variation", instances, seed, _variation_check)


def run_suite(
    name: str, instances: int = 100, seed: int | None = None
) -> list[SuiteResult]:
    """Dispatch by suite name; ``skorokhod`` bundles the four estimate
    suites, ``all`` additionally includes the reversal identities.

    With ``seed=None`` every runner keeps its own fixed default seed.  Raises
    ``ValueError`` for an unknown suite or fewer than one instance.
    """
    # Looked up at call time, so a runner replaced on the module is the one run.
    runners = (
        run_reversal_suite,
        run_continuity_suite,
        run_backward_continuity_suite,
        run_comparison_suite,
        run_variation_suite,
    )
    bundles = {suite: [fn] for suite, fn in zip(SUITE_NAMES, runners)}
    bundles.update(skorokhod=runners[1:], all=runners)
    if name not in bundles:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if seed is None:
        return [fn(instances) for fn in bundles[name]]
    return [fn(instances, seed + j + 1) for j, fn in enumerate(bundles[name])]
