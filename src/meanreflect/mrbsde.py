"""Doubly mean-reflected backward solvers.

Two entry points.  :func:`solve_constant_driver` handles state-independent
drivers directly: solve the plain backward equation, reflect its *mean* into
the admissible band with the terminal-anchored Skorokhod map, then shift
every particle by the deterministic force ``K_T - K_t``.  :func:`picard_solve`
reduces the general mean-field case to a sequence of such solves by freezing
the generator at the previous iterate (read node by node in the backward
loop); on horizons too long for one contraction it splits the interval
adaptively and stitches the segment solutions together backward in time.
A segment's grid is a slice of the horizon's grid and keeps its node times,
so the generator and the losses are always evaluated on the true clock.

The force ``K`` is always a single deterministic function — particles share
it — and its monotone parts are charged only while the corresponding mean
constraint is active (flat residuals near zero).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .bsde import (
    BSDESolution,
    DriftFn,
    Generator,
    RegressionConfig,
    RegressionPlan,
    _backward_pass,
    _column_drift,
    _frozen_drift,
    _plain_drift,
)
from .constraints import (
    BAND_MIN_DEFAULT,
    ROOT_TOL_DEFAULT,
    LinearEnvelope,
    LinearObstacles,
    LossPair,
    check_envelope_order,
    make_mean_boundary,
)
from .core import (
    Ensemble,
    RngSpec,
    SamplePath,
    TimeGrid,
    _require_int,
    build_grid,
    ensemble_means,
    pairwise_mean,
    simulate_brownian,
    stat_tol,
)
from .errors import InfeasibleTerminalError, NonConvergenceError, NumericalFailureError
from .skorokhod import BackwardReflectionSolution, solve_bsp, total_variation

__all__ = [
    "Tolerances",
    "Scenario",
    "MRSolution",
    "PicardTrace",
    "KtVariationReport",
    "solve_constant_driver",
    "picard_solve",
    "kt_variation_guard",
    "terminal_feasibility",
    "require_feasible_terminal",
]

logger = logging.getLogger(__name__)

TerminalFn = Callable[[NDArray[np.floating]], NDArray[np.floating]]


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    """Tolerance bundle shared by the reflected solvers.

    ``stat_tol_mult`` scales the statistical tolerance ``mult * sigma /
    sqrt(N)`` used wherever an expectation is checked against a hard
    constraint; ``contraction_margin`` is the largest measured Picard ratio
    tolerated before the horizon is split.
    """

    picard_tol: float = 1e-6
    max_iterations: int = 50
    contraction_margin: float = 0.9
    root_tol: float = ROOT_TOL_DEFAULT
    band_min: float = BAND_MIN_DEFAULT
    stat_tol_mult: float = 4.0

    def __post_init__(self):
        # written as "not in range" so that NaN fails every check
        if not 0.0 < self.picard_tol < math.inf:
            raise ValueError("picard_tol must be positive and finite")
        _require_int(self.max_iterations, "max_iterations", 1)
        if not 0.0 < self.contraction_margin < 1.0:
            raise ValueError("contraction_margin must lie in (0, 1)")
        for name in ("root_tol", "band_min", "stat_tol_mult"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one reflected-solve experiment.

    ``terminal`` maps the terminal Brownian cross-section to terminal values
    (scalar results are broadcast; a non-finite value raises
    :class:`NumericalFailureError`).  ``losses`` drives the mean reflection;
    ``envelope`` is mandatory for quadratic-mode generators; ``obstacles``
    is only consumed by the penalization scheme.
    """

    horizon: float
    steps: int
    particles: int
    rng: RngSpec
    terminal: TerminalFn
    generator: Generator
    losses: LossPair | None = None
    envelope: LinearEnvelope | None = None
    obstacles: LinearObstacles | None = None
    regression: RegressionConfig = field(default_factory=RegressionConfig)
    tol: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        _require_int(self.steps, "steps", 1)
        _require_int(self.particles, "particles", 2)

    def make_grid(self) -> TimeGrid:
        return build_grid(self.horizon, self.steps)

    def simulate(self, grid: TimeGrid | None = None) -> Ensemble:
        return simulate_brownian(
            grid if grid is not None else self.make_grid(), self.particles, self.rng
        )

    def terminal_values(self, bm: Ensemble) -> NDArray[np.floating]:
        xi = np.asarray(self.terminal(bm.values[:, -1]), dtype=float)
        if xi.ndim == 0:
            xi = np.full(bm.particle_count, float(xi))
        elif xi.shape != (bm.particle_count,):
            raise ValueError("terminal function must return one value per particle")
        bad = int(np.count_nonzero(~np.isfinite(xi)))
        if bad:
            raise NumericalFailureError(f"{bad} of {xi.size} terminal values are not finite")
        return xi


def terminal_feasibility(
    losses: LossPair,
    t_final: float,
    xi: NDArray[np.floating],
    *,
    stat_tol_mult: float = 4.0,
    root_tol: float = ROOT_TOL_DEFAULT,
) -> tuple[float, float, float]:
    """(E[L(T, xi)], E[R(T, xi)], tolerance) for the anchor precondition.

    The tolerance is statistical — ``mult * sigma / sqrt(N)`` with sigma the
    larger loss-value spread — plus the root tolerance, so it degrades
    gracefully to a deterministic check for spread-free terminals.
    """
    xi = np.asarray(xi, dtype=float)
    lv = np.asarray(losses.L(float(t_final), xi), dtype=float)
    rv = np.asarray(losses.R(float(t_final), xi), dtype=float)
    stat = max(stat_tol(lv, stat_tol_mult), stat_tol(rv, stat_tol_mult))
    return float(pairwise_mean(lv)), float(pairwise_mean(rv)), stat + root_tol


def require_feasible_terminal(
    losses: LossPair,
    t_final: float,
    xi: NDArray[np.floating],
    *,
    stat_tol_mult: float = 4.0,
    root_tol: float = ROOT_TOL_DEFAULT,
) -> float:
    """Raise :class:`InfeasibleTerminalError` unless the anchor is admissible.

    Returns the tolerance that was applied (callers forward it to the
    backward reflection so both checks agree).
    """
    e_l, e_r, tol = terminal_feasibility(
        losses, t_final, xi, stat_tol_mult=stat_tol_mult, root_tol=root_tol
    )
    if not (e_l <= tol and e_r >= -tol):
        raise InfeasibleTerminalError(
            f"terminal values at t = {t_final:.6g} are infeasible: "
            f"E[L(t, xi)] = {e_l:.6g}, E[R(t, xi)] = {e_r:.6g}, tolerance {tol:.3g}"
        )
    return tol


# ---------------------------------------------------------------------------
# solution containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PicardTrace:
    """Execution record of the fixed-point iteration.

    Entries are flattened in execution order (segments are solved from the
    terminal backward; within a segment, iterations in order).  ``ratios``
    holds consecutive combined-distance quotients within segments only.
    ``k_variations``/``s_variations`` hold, per iteration, the force's total
    variation and the variation of the reflected input path — the raw
    material of the force-variation guard; ``envelope_terms`` additionally
    holds the envelope band-edge variation when the scenario declared one.
    These fields describe the returned (or failed) attempt; ``attempts``
    holds ``(segments, iterations, split_ratio)`` for every attempt in
    order, ``split_ratio`` being the quotient that exceeded the contraction
    margin (NaN when the attempt converged or ran out of iterations).
    """

    y_distances: tuple[float, ...]
    k_distances: tuple[float, ...]
    ratios: tuple[float, ...]
    iterations: int
    converged: bool
    segment_count: int = 1
    segment_iterations: tuple[int, ...] = ()
    k_variations: tuple[float, ...] = ()
    s_variations: tuple[float, ...] = ()
    envelope_terms: tuple[float, ...] | None = None
    attempts: tuple[tuple[int, int, float], ...] = ()

    @property
    def combined_distances(self) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(self.y_distances, self.k_distances))


@dataclass(frozen=True)
class MRSolution:
    """Reflected solution: particles, martingale coefficients, and the force.

    ``y`` holds the reflected particles, ``inner`` the plain backward
    solution they were shifted from, so ``y = inner + (K_T - K_t)`` holds
    particle-wise.  ``K = push_up - push_down`` is one deterministic
    function; ``s_sup`` records the sup of the reflected input path(s) for
    flat-residual tolerance scaling.
    """

    y: Ensemble
    z: Ensemble
    inner: Ensemble
    K: SamplePath
    push_up: SamplePath
    push_down: SamplePath
    flat_residual_up: float
    flat_residual_down: float
    s_sup: float
    trace: PicardTrace | None = None

    @property
    def variation(self) -> float:
        """Total variation of K through its monotone parts."""
        return float(self.push_up.values[-1] + self.push_down.values[-1])

    @property
    def mean_path(self) -> NDArray[np.floating]:
        """Empirical mean of the reflected particles at every node."""
        return ensemble_means(self.y)


# ---------------------------------------------------------------------------
# the constant-driver construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SegmentSolution:
    """One constant-driver solve on one (sub-)grid."""

    plain: BSDESolution
    bsp: BackwardReflectionSolution
    y: Ensemble
    s: SamplePath


def _construct(
    xi: NDArray[np.floating],
    bm: Ensemble,
    drift: DriftFn,
    sc: Scenario,
    terminal_tol: float,
    plan: RegressionPlan,
) -> _SegmentSolution:
    """Reflect a frozen-driver solve: plain solution, mean reflection, shift.

    The plain solution runs the backward loop on the state-independent hook
    ``drift`` with ``bm``'s regression plan.  The reflected
    input is the accumulated mean drift ``s_t = E[y_t0 - y_t]`` anchored at
    ``a = E[xi]``; the boundary pair averages the losses over the recentred
    plain cross-sections, so the reflected mean satisfies the original mean
    constraints by construction.
    """
    plain = _backward_pass(xi, bm, plan, drift)
    means = ensemble_means(plain.y)
    s = SamplePath(bm.grid, means[0] - means)
    # The boundary pair goes in inline, so its offsets are freed before y is allocated.
    bsp = solve_bsp(
        s,
        float(means[-1]),
        make_mean_boundary(plain.y, sc.losses),
        root_tol=sc.tol.root_tol,
        band_min=sc.tol.band_min,
        terminal_tol=terminal_tol,
    )
    shift = bsp.K.values[-1] - bsp.K.values
    y = Ensemble(bm.grid, plain.y.values + shift[None, :])
    return _SegmentSolution(plain, bsp, y, s)


def _require_state_free(gen: Generator, route: str) -> None:
    """Raise ``ValueError`` unless ``gen`` reads neither the state nor its law."""
    if not (gen.mode == "lipschitz" and gen.lam == 0.0):
        raise ValueError(
            f"{route} needs a state-free generator (lipschitz mode, lam = 0); "
            f"got {gen.mode} mode, lam = {gen.lam:g}"
        )


def solve_constant_driver(
    sc: Scenario,
    driver: NDArray[np.floating] | None = None,
    *,
    bm: Ensemble | None = None,
) -> MRSolution:
    """Solve the reflected problem for a state-independent driver.

    ``driver`` is a per-particle drift path ``(particles, nodes)``; omitted,
    it is the generator frozen at zero, which is right only for
    a generator declared state-free (``lipschitz`` mode, ``lam == 0``); any
    other generator raises ``ValueError``.  ``bm`` lets callers reuse a
    simulated Brownian ensemble.
    """
    if sc.losses is None:
        raise ValueError("scenario carries no loss pair")
    if driver is None:
        _require_state_free(sc.generator, "the constant-driver route without a driver path")
    bm = bm if bm is not None else sc.simulate()
    xi = sc.terminal_values(bm)
    term_tol = require_feasible_terminal(
        sc.losses, sc.horizon, xi, stat_tol_mult=sc.tol.stat_tol_mult, root_tol=sc.tol.root_tol
    )
    if driver is None:
        zero = np.broadcast_to(0.0, bm.values.shape)  # read-only: allocates nothing
        drift = _frozen_drift(sc.generator, zero, zero, bm.grid)
    else:
        drift = _column_drift(driver, *bm.values.shape)
    plan = RegressionPlan.build(bm, sc.regression)
    seg = _construct(xi, bm, drift, sc, term_tol, plan)
    return _stitch([(0, bm.grid.n_steps, seg)], bm.grid, None)


# ---------------------------------------------------------------------------
# Picard fixed point with adaptive interval splitting
# ---------------------------------------------------------------------------


def _max_rms_gap(a: NDArray[np.floating], b: NDArray[np.floating]) -> float:
    """Largest per-node RMS gap, one node at a time: no full-size temporary."""
    gaps = [pairwise_mean((a[:, k] - b[:, k]) ** 2) for k in range(a.shape[1])]
    return float(np.sqrt(np.max(gaps)))


def _picard_segment(
    sc: Scenario,
    bm_seg: Ensemble,
    xi: NDArray[np.floating],
    init: str,
    records: list[tuple],
    plan: RegressionPlan,
) -> _SegmentSolution | None:
    """Iterate the frozen-driver construction on one segment to tolerance.

    ``plan`` is the segment's slice of the horizon's regression plan; the
    ``"unreflected"`` initial solve and every iteration reuse it.

    Appends one ``(d_y, d_k, K variation, s variation, ratio)`` record per
    iteration to ``records``, where ``ratio`` is the combined-distance
    quotient against the previous iteration (``None`` on the first); the
    split test and the trace read that one value.  Returns ``None`` when the
    quotient exceeds the margin or the iteration cap runs out — the caller
    reacts by splitting the horizon further.  An iteration keeps only the
    frozen pair ``(u, v)`` and the force of the last one.
    """
    gen, tol, grid = sc.generator, sc.tol, bm_seg.grid
    term_tol = require_feasible_terminal(
        sc.losses, grid.horizon, xi, stat_tol_mult=tol.stat_tol_mult, root_tol=tol.root_tol
    )
    if init == "zero":
        u = v = np.broadcast_to(0.0, bm_seg.values.shape)  # read-only: allocates nothing
    else:
        plain = _backward_pass(xi, bm_seg, plan, _plain_drift(gen, grid))
        u, v = plain.y.values, plain.z.values
        del plain  # freed, like each previous segment, before _construct allocates
    k_prev = np.zeros(grid.n_nodes)
    prev_d = 0.0
    for _ in range(tol.max_iterations):
        seg = _construct(xi, bm_seg, _frozen_drift(gen, u, v, grid), sc, term_tol, plan)
        d_y = _max_rms_gap(seg.y.values, u)
        d_k = float(np.max(np.abs(seg.bsp.K.values - k_prev)))
        d = d_y + d_k
        ratio = d / prev_d if prev_d > 0.0 else None
        records.append((d_y, d_k, seg.bsp.variation, total_variation(seg.s), ratio))
        if d <= tol.picard_tol:
            return seg
        if ratio is not None and ratio > tol.contraction_margin:
            return None
        u, v, k_prev, prev_d = seg.y.values, seg.plain.z.values, seg.bsp.K.values, d
        del seg
    return None


def _trace(
    records: list[tuple[NDArray[np.floating], list[tuple]]],
    converged: bool,
    envelope: LinearEnvelope | None,
    attempts: list[tuple[int, int, float]],
) -> PicardTrace:
    """Every trace field from one attempt's records, one entry per started segment.

    Each entry pairs the segment's node times (its envelope clock) with the
    records :func:`_picard_segment` appended.
    """
    flat = [r for _, rows in records for r in rows]
    d_y, d_k, k_var, s_var, ratios = map(tuple, zip(*flat))
    env = None if envelope is None else tuple(
        term for nodes, rows in records for term in [envelope.tv_bound_terms(nodes)] * len(rows)
    )
    return PicardTrace(
        y_distances=d_y,
        k_distances=d_k,
        ratios=tuple(r for r in ratios if r is not None),
        iterations=len(flat),
        converged=converged,
        segment_count=len(records),
        segment_iterations=tuple(len(rows) for _, rows in records),
        k_variations=k_var,
        s_variations=s_var,
        envelope_terms=env,
        attempts=tuple(attempts),
    )


def _stitch(
    segs: list[tuple[int, int, _SegmentSolution]],
    grid: TimeGrid,
    trace: PicardTrace | None,
) -> MRSolution:
    """Assemble the full-horizon solution from segment solutions, in node order.

    The one place an :class:`MRSolution` is built.  Monotone force parts
    accumulate across segments; the stitched inner ensemble is re-based so
    the particle-wise representation ``y = inner + (K_T - K_t)`` holds
    against the *global* force; for a single segment that offset is
    ``K_T - K_T = 0``, so its arrays are used as they are.
    """
    m = grid.n_nodes
    pu, pd = np.empty(m), np.empty(m)
    base_up = base_dn = fr_up = fr_dn = s_sup = 0.0
    for a, b, seg in segs:
        pu[a : b + 1] = base_up + seg.bsp.push_up.values
        pd[a : b + 1] = base_dn + seg.bsp.push_down.values
        base_up, base_dn = float(pu[b]), float(pd[b])
        fr_up += seg.bsp.flat_residual_up
        fr_dn += seg.bsp.flat_residual_down
        s_sup = max(s_sup, float(np.max(np.abs(seg.s.values))))
    kv = pu - pd
    if len(segs) == 1:  # spans the grid: re-wrapped, not copied
        seg = segs[0][2]
        yv, zv, inner = seg.y.values, seg.plain.z.values, seg.plain.y.values
    else:
        n = segs[0][2].y.values.shape[0]
        yv, zv, inner = (np.empty((n, m), order="F") for _ in range(3))
        for a, b, seg in segs:
            yv[:, a : b + 1] = seg.y.values
            zv[:, a : b + 1] = seg.plain.z.values
            inner[:, a : b + 1] = seg.plain.y.values - (kv[-1] - kv[b])
    return MRSolution(
        y=Ensemble(grid, yv),
        z=Ensemble(grid, zv),
        inner=Ensemble(grid, inner),
        K=SamplePath(grid, kv),
        push_up=SamplePath(grid, pu),
        push_down=SamplePath(grid, pd),
        flat_residual_up=fr_up,
        flat_residual_down=fr_dn,
        s_sup=s_sup,
        trace=trace,
    )


def picard_solve(sc: Scenario, *, init: str = "zero") -> MRSolution:
    """Fixed-point solve of the mean-field reflected problem.

    Each iteration freezes the generator's state and law arguments at the
    previous iterate, evaluates the resulting state-independent driver, and
    applies the constant-driver construction; iteration stops when the
    combined sup-node root-mean-square move of the particles plus the sup
    move of the force drops below ``picard_tol``.

    If a measured contraction ratio exceeds the configured margin (or the
    iteration cap is hit), the horizon is split into twice as many segments
    and the solve restarts, stitching segment solutions backward from the
    terminal; each segment's terminal, the horizon's first, is validated for
    feasibility.  The trace describes the last attempt; its ``attempts``
    lists every one.

    ``init`` selects the initial iterate: ``"zero"`` or ``"unreflected"``
    (the plain self-consistent backward solve).
    """
    if sc.losses is None:
        raise ValueError("scenario carries no loss pair")
    if init not in ("zero", "unreflected"):
        raise ValueError("init must be 'zero' or 'unreflected'")
    gen = sc.generator
    if gen.mode == "quadratic":
        if sc.envelope is None:
            raise ValueError("quadratic-mode scenarios require a linear envelope")
        ts = np.array([0.0, 0.5 * sc.horizon, sc.horizon])
        xs = np.linspace(-10.0, 10.0, 41)
        if not check_envelope_order(sc.losses, sc.envelope, ts, xs):
            raise ValueError("declared envelope does not enclose the losses")

    grid = sc.make_grid()
    bm = sc.simulate(grid)
    xi = sc.terminal_values(bm)
    plan = RegressionPlan.build(bm, sc.regression)  # shared by every attempt
    ratio_cc = sc.losses.C / sc.losses.c
    logger.debug(
        "picard horizon %.4g: smallness products %.3g (lipschitz), %.3g (quadratic)",
        sc.horizon,
        (4.0 + 24.0 * ratio_cc) * gen.lam * sc.horizon,
        (32.0 + 192.0 * ratio_cc) * gen.lam * sc.horizon,
    )

    nodes = grid.nodes
    max_segments = max(1, grid.n_steps // 2)
    n_segments = 1
    attempts: list[tuple[int, int, float]] = []
    while True:
        bounds = [int(round(j * grid.n_steps / n_segments)) for j in range(n_segments + 1)]
        records: list[tuple[NDArray[np.floating], list[tuple]]] = []
        solved: list[tuple[int, int, _SegmentSolution]] = []
        xi_seg = xi
        for j in reversed(range(n_segments)):
            a, b = bounds[j], bounds[j + 1]
            bm_seg = Ensemble(TimeGrid(float(nodes[b]), nodes[a : b + 1]), bm.values[:, a : b + 1])
            records.append((bm_seg.grid.nodes, []))
            seg = _picard_segment(sc, bm_seg, xi_seg, init, records[-1][1], plan.steps(a, b))
            if seg is None:
                break
            solved.append((a, b, seg))
            xi_seg = seg.y.values[:, 0].copy()
        converged = len(solved) == n_segments
        *_, ratio = records[-1][1][-1]  # the attempt's last quotient
        split = not converged and ratio is not None and ratio > sc.tol.contraction_margin
        iterations = sum(len(rows) for _, rows in records)
        attempts.append((n_segments, iterations, ratio if split else math.nan))
        trace = _trace(records, converged, sc.envelope, attempts)
        if converged:
            return _stitch(solved[::-1], grid, trace)
        nxt = min(2 * n_segments, max_segments)
        if nxt == n_segments:
            raise NonConvergenceError(
                f"fixed-point iteration failed to contract with {n_segments} "
                f"segment(s) of >= 2 steps; refine the grid or shorten the horizon",
                trace=trace,
            )
        logger.debug("splitting horizon: %d -> %d segments", n_segments, nxt)
        n_segments = nxt


# ---------------------------------------------------------------------------
# force-variation guard (quadratic mode)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KtVariationReport:
    """Per-iterate force variation against the envelope bound."""

    variations: tuple[float, ...]
    bounds: tuple[float, ...]
    slacks: tuple[float, ...]
    passed: bool


def kt_variation_guard(trace: PicardTrace, envelope: LinearEnvelope) -> KtVariationReport:
    """Check every recorded iterate's force variation against the envelope.

    The bound per iterate is ``Var(p/b) + Var(q/b) + 2 Var(s)`` — the
    envelope band-edge variation plus twice the variation of that iterate's
    reflected input path.  Both ingredients are recorded at solve time
    (where the segment clocks are known), so the trace must come from a
    scenario that declared the envelope.  An iterate passes when its slack
    ``bound + 1e-6 - variation`` is nonnegative.  Report-only: never raises
    on a violated bound.
    """
    if envelope is None:
        raise ValueError("an envelope is required")
    if trace.envelope_terms is None:
        raise ValueError(
            "trace carries no envelope terms; solve with the envelope declared "
            "on the scenario"
        )
    bounds = tuple(
        term + 2.0 * s_var
        for term, s_var in zip(trace.envelope_terms, trace.s_variations)
    )
    slacks = tuple(b + 1e-6 - v for b, v in zip(bounds, trace.k_variations))
    return KtVariationReport(
        variations=trace.k_variations,
        bounds=bounds,
        slacks=slacks,
        passed=all(s >= 0.0 for s in slacks),
    )
