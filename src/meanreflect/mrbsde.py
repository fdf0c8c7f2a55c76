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
so the generator and the losses are always evaluated on the true clock, and
every segment solves into its columns of one full-grid ``y``/``z`` pair.

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
    DriftFn,
    Generator,
    RegressionConfig,
    RegressionPlan,
    _backward_pass,
    _frozen_drift,
    _plain_drift,
)
from .constraints import (
    ROOT_TOL_DEFAULT,
    LinearEnvelope,
    LinearObstacles,
    LossPair,
    _loss_stats,
    _mean_boundary,
    check_envelope_order,
    validate_loss,
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
)
from .errors import InfeasibleTerminalError, NonConvergenceError, NumericalFailureError
from .skorokhod import BackwardReflectionSolution, _require_map_input, _solve_bsp, total_variation

__all__ = [
    "Tolerances",
    "Scenario",
    "MRSolution",
    "PicardTrace",
    "KtVariationReport",
    "solve_constant_driver",
    "picard_solve",
    "kt_variation_guard",
    "require_feasible_terminal",
]

logger = logging.getLogger(__name__)

TerminalFn = Callable[[NDArray[np.floating]], NDArray[np.floating]]


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tolerances:
    """The Picard stopping rule, read only by :func:`picard_solve`.

    A segment converges once the combined move of the particles and the
    force is at most ``picard_tol`` and gives up after ``max_iterations``;
    ``contraction_margin`` is the largest measured Picard ratio tolerated
    before the horizon is split.  The numerical floors are constants:
    ``ROOT_TOL_DEFAULT`` and ``BAND_MIN_DEFAULT`` in ``constraints``,
    ``STAT_TOL_MULT`` in ``core``.
    """

    picard_tol: float = 1e-6
    max_iterations: int = 50
    contraction_margin: float = 0.9

    def __post_init__(self):
        # written as "not in range" so that NaN fails every check
        if not 0.0 < self.picard_tol < math.inf:
            raise ValueError("picard_tol must be positive and finite")
        _require_int(self.max_iterations, "max_iterations", 1)
        if not 0.0 < self.contraction_margin < 1.0:
            raise ValueError("contraction_margin must lie in (0, 1)")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one reflected-solve experiment.

    ``terminal`` maps the terminal Brownian cross-section to terminal values
    (scalar results are broadcast; a non-finite value raises
    :class:`NumericalFailureError`).  ``losses`` drives the mean reflection
    and must pass :func:`validate_loss` on :meth:`make_grid` (``ValueError``
    naming the failed checks otherwise); ``envelope`` is mandatory for
    quadratic-mode generators; ``obstacles`` is only consumed by the
    penalization scheme.
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
        if self.losses is not None:  # boundary code relies on every declared property
            failures = validate_loss(self.losses, self.make_grid()).failures
            if failures:
                raise ValueError(f"loss pair fails its checks: {', '.join(failures)}")

    def make_grid(self) -> TimeGrid:
        return build_grid(self.horizon, self.steps)

    def simulate(self) -> Ensemble:
        """The seeded Brownian ensemble on :meth:`make_grid` that every solve runs on."""
        return simulate_brownian(self.make_grid(), self.particles, self.rng)

    def terminal_values(self, bm: Ensemble) -> NDArray[np.floating]:
        return self._terminal_at(bm.values[:, -1].copy())  # the terminal may write its argument

    def _terminal_at(self, b_t: NDArray[np.floating]) -> NDArray[np.floating]:
        """``terminal`` on the cross-section ``b_t``, one finite value per particle."""
        xi = np.asarray(self.terminal(b_t), dtype=float)
        if xi.ndim == 0:
            xi = np.full(b_t.size, float(xi))
        elif xi.shape != b_t.shape:
            raise ValueError("terminal function must return one value per particle")
        bad = int(np.count_nonzero(~np.isfinite(xi)))
        if bad:
            raise NumericalFailureError(f"{bad} of {xi.size} terminal values are not finite")
        return xi


def require_feasible_terminal(
    losses: LossPair,
    t_final: float,
    xi: NDArray[np.floating],
) -> float:
    """Raise :class:`InfeasibleTerminalError` unless the anchor is admissible.

    The solvers' one terminal check, once per started segment: the map they
    call checks no anchor.  The tolerance, the Monte Carlo one of the two
    loss cross-sections plus ``ROOT_TOL_DEFAULT``, is returned: it is the
    audit's ``terminal_tol``, not a value handed to the map.  A pair
    declared ``affine`` must give
    ``E[L] = L(T, E[xi])`` and likewise for ``R``, up to rounding
    (``ValueError`` otherwise): boundary code drops its offsets.
    """
    t, xi = float(t_final), np.asarray(xi, dtype=float)
    e_l, e_r, stat, _ = _loss_stats(losses, t, xi)
    tol = stat + ROOT_TOL_DEFAULT
    if not (e_l <= tol and e_r >= -tol):
        raise InfeasibleTerminalError(
            f"terminal values at t = {t:.6g} are infeasible: "
            f"E[L(t, xi)] = {e_l:.6g}, E[R(t, xi)] = {e_r:.6g}, tolerance {tol:.3g}"
        )
    if losses.affine:
        xbar = np.asarray(pairwise_mean(xi))
        gap = max(abs(e_l - float(losses.L(t, xbar))), abs(e_r - float(losses.R(t, xbar))))
        if not gap <= 1e-9 * (1.0 + abs(e_l) + abs(e_r) + losses.C * float(np.ptp(xi))):
            raise ValueError(f"declared affine pair is not affine at t = {t:.6g}: gap {gap:.3g}")
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
    material of the force-variation guard; ``segment_nodes`` holds each
    started segment's node times, the clock of its envelope bound.
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
    segment_nodes: tuple[tuple[float, ...], ...] = ()
    attempts: tuple[tuple[int, int, float], ...] = ()

    @property
    def combined_distances(self) -> tuple[float, ...]:
        return tuple(a + b for a, b in zip(self.y_distances, self.k_distances))


@dataclass(frozen=True)
class MRSolution:
    """Reflected solution: particles, martingale coefficients, and the force.

    ``y`` holds the reflected particles, the plain solution :attr:`inner`
    shifted by the force to come, ``K_T - K_t``; ``K = push_up - push_down``
    is one deterministic function, ``s_sup`` the sup of the reflected input
    path(s), which scales flat-residual tolerances.  A terminal overshoot
    ``v_T`` that :func:`require_feasible_terminal` admits shifts every
    reflected mean by up to ``v_T / c``: ``K`` leaves out that initial
    force, and the audit's tolerance allows it.
    """

    y: Ensemble
    z: Ensemble
    K: SamplePath
    push_up: SamplePath
    push_down: SamplePath
    flat_residual_up: float
    flat_residual_down: float
    s_sup: float
    trace: PicardTrace | None = None

    @property
    def inner(self) -> Ensemble:
        """The plain backward solution ``y - (K_T - K_t)``, F-ordered as ``y``, built per call."""
        kv = self.K.values
        return Ensemble(self.y.grid, np.subtract(self.y.values, kv[-1] - kv))

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
    """One constant-driver solve on one (sub-)grid: its reflection, input and found band edges."""

    bsp: BackwardReflectionSolution
    s: SamplePath
    edges: dict


def _construct(
    xi: NDArray[np.floating],
    bm: Ensemble,
    drift: DriftFn,
    sc: Scenario,
    plan: RegressionPlan,
    y: NDArray[np.floating],
    z: NDArray[np.floating],
    meter: Callable | None = None,
    hints: dict | None = None,
) -> _SegmentSolution:
    """Reflect a frozen-driver solve: plain solution, mean reflection, shift.

    The plain solution runs the backward loop on the state-independent hook
    ``drift`` with ``bm``'s regression plan, writing its ``y`` and ``z``
    into the F-ordered pair ``y``, ``z``, each ``y`` column after ``meter``
    (when given) read it.  The reflected input is the accumulated mean drift
    ``s_t = E[y_t0 - y_t]`` anchored at ``a = E[xi]``; the boundary pair
    averages the losses over the recentred plain cross-sections, which it
    reads in place, so the reflected mean satisfies the original mean
    constraints by construction; the map takes the anchor unchecked, the
    caller having checked ``xi``.  Once the reflection has read them, the plain ``y`` is
    shifted in place by the force still to come, ``K_T - K_t``.  ``hints``,
    an earlier solve's ``edges`` on the same grid, seed the map's clamp hook,
    and ``edges`` records the band edges this solve's hook found.
    """
    plain = _backward_pass(xi, bm, plan, drift, y=y, z=z, meter=meter)
    means = ensemble_means(plain.y)
    s = SamplePath(bm.grid, means[0] - means)
    bp = _mean_boundary(plain.y, sc.losses, means)
    _require_map_input(s, bp)  # finite particles can still have an infinite mean
    bsp, edges = _solve_bsp(s, float(means[-1]), bp, hints)
    y += bsp.K.values[-1] - bsp.K.values
    return _SegmentSolution(bsp, s, edges)


def _require_state_free(gen: Generator, route: str) -> None:
    """Raise ``ValueError`` unless ``gen`` reads neither the state nor its law."""
    if not (gen.mode == "lipschitz" and gen.lam == 0.0):
        raise ValueError(
            f"{route} needs a state-free generator (lipschitz mode, lam = 0); "
            f"got {gen.mode} mode, lam = {gen.lam:g}"
        )


def solve_constant_driver(sc: Scenario) -> MRSolution:
    """Solve the reflected problem for a state-independent driver.

    The driver is the generator frozen at zero, which is right only for a
    generator declared state-free (``lipschitz`` mode, ``lam == 0``); any
    other generator raises ``ValueError``.
    """
    if sc.losses is None:
        raise ValueError("scenario carries no loss pair")
    _require_state_free(sc.generator, "the constant-driver route")
    bm = sc.simulate()
    xi = sc.terminal_values(bm)
    require_feasible_terminal(sc.losses, sc.horizon, xi)
    grid = bm.grid
    zero = np.broadcast_to(0.0, bm.values.shape)  # read-only: allocates nothing
    drift = _frozen_drift(sc.generator, zero, zero, grid)
    plan = RegressionPlan.build(bm, sc.regression)
    y, z = (np.empty(bm.values.shape, order="F") for _ in range(2))
    seg = _construct(xi, bm, drift, sc, plan, y, z)
    return _stitch([(0, grid.n_steps, seg.bsp, seg.s)], grid, None, y, z)


# ---------------------------------------------------------------------------
# Picard fixed point with adaptive interval splitting
# ---------------------------------------------------------------------------


def _move_meter(u: NDArray[np.floating], s_old: NDArray[np.floating]) -> tuple[Callable, Callable]:
    """The backward pass's meter of the move away from the frozen ``y``, and the move.

    ``u`` is the frozen reflected ``y``, carrying the force ``s_old = K_T - K_t``.
    ``meter(k, yk)`` reads the new plain column ``yk`` before the pass
    overwrites ``u[:, k]``, and records the mean and centred mean square of
    ``e = (yk + s_old[k]) - u[:, k]``.  The reflected ``y`` moves by ``e + s_new
    - s_old``: ``move(s_new)`` is its largest per-node RMS, exactly 0 on a repeat.
    """
    moves = np.empty((2, u.shape[1]))
    e = np.empty(u.shape[0])

    def meter(k: int, yk: NDArray[np.floating]) -> None:
        np.subtract(np.add(yk, s_old[k], out=e), u[:, k], out=e)
        mean = pairwise_mean(e)
        moves[:, k] = mean, pairwise_mean(np.square(np.subtract(e, mean, out=e), out=e))

    def move(s_new: NDArray[np.floating]) -> float:
        return float(np.sqrt(np.max(moves[1] + (moves[0] + s_new - s_old) ** 2)))

    return meter, move


def _picard_segment(
    sc: Scenario,
    bm_seg: Ensemble,
    xi: NDArray[np.floating],
    init: str,
    records: list[tuple],
    plan: RegressionPlan,
    y: NDArray[np.floating],
    z: NDArray[np.floating],
) -> _SegmentSolution | None:
    """Iterate the frozen-driver construction on one segment to tolerance.

    ``plan`` is the segment's slice of the horizon's regression plan; the
    ``"unreflected"`` initial solve and every iteration reuse it, and all of
    them write into ``y`` and ``z``, the segment's F-contiguous columns of
    the full-grid pair, which hold the reflected solution on return.

    Appends one ``(d_y, d_k, K variation, s variation, ratio)`` record per
    iteration to ``records``, where ``ratio`` is the combined-distance
    quotient against the previous iteration (``None`` on the first); the
    split test and the trace read that one value.  Returns ``None`` when the
    quotient exceeds the margin or the iteration cap runs out — the caller
    reacts by splitting the horizon further.

    An iteration holds three (particles, nodes) arrays, the Brownian segment,
    one ``y`` and one ``z``: the new plain pair overwrites the frozen one,
    column ``k`` after the drift at node ``k`` and the move meter (``d_y``,
    :func:`_move_meter`) read it.

    Each iteration's clamp hook starts its band edges from the edges and
    slopes the previous iteration's hook found (see ``_EdgeFinder._crossed``
    in :mod:`meanreflect.constraints`): between iterates an edge moves only
    by the Picard step.  The first iteration of a segment starts cold.
    """
    gen, tol, grid = sc.generator, sc.tol, bm_seg.grid
    require_feasible_terminal(sc.losses, grid.horizon, xi)
    if init == "zero":
        u = v = np.broadcast_to(0.0, bm_seg.values.shape)  # read-only: allocates nothing
    else:
        _backward_pass(xi, bm_seg, plan, _plain_drift(gen, grid), y=y, z=z)
        u, v = y, z
    k_prev = np.zeros(grid.n_nodes)
    prev_d = 0.0
    edges = None
    for _ in range(tol.max_iterations):
        drift = _frozen_drift(gen, u, v, grid)
        meter, move = _move_meter(u, k_prev[-1] - k_prev)
        seg = _construct(xi, bm_seg, drift, sc, plan, y, z, meter, edges)
        edges = seg.edges
        d_y = move(seg.bsp.K.values[-1] - seg.bsp.K.values)
        d_k = float(np.max(np.abs(seg.bsp.K.values - k_prev)))
        d = d_y + d_k
        ratio = d / prev_d if prev_d > 0.0 else None
        records.append((d_y, d_k, seg.bsp.variation, total_variation(seg.s), ratio))
        if d <= tol.picard_tol:
            return seg
        if ratio is not None and ratio > tol.contraction_margin:
            return None
        u, v = y, z
        k_prev, prev_d = seg.bsp.K.values, d
    return None


def _trace(
    records: list[tuple[NDArray[np.floating], list[tuple]]],
    converged: bool,
    attempts: list[tuple[int, int, float]],
) -> PicardTrace:
    """Every trace field from one attempt's records, one entry per started segment.

    Each entry pairs the segment's node times with the records
    :func:`_picard_segment` appended.
    """
    flat = [r for _, rows in records for r in rows]
    d_y, d_k, k_var, s_var, ratios = map(tuple, zip(*flat))
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
        segment_nodes=tuple(tuple(nodes.tolist()) for nodes, _ in records),
        attempts=tuple(attempts),
    )


def _stitch(
    parts: list[tuple[int, int, BackwardReflectionSolution, SamplePath]],
    grid: TimeGrid,
    trace: PicardTrace | None,
    y: NDArray[np.floating],
    z: NDArray[np.floating],
) -> MRSolution:
    """Assemble the full-horizon solution, the one place an :class:`MRSolution` is built.

    ``parts`` holds each segment's nodes ``a..b``, reflection and input, in
    node order; ``y`` and ``z`` the full-grid reflected particles and
    martingale coefficients that every segment solved into, whose terminal
    ``z`` placeholder, ``z[:, -2]``, is written here.  Monotone force parts
    accumulate across segments into the *global* force.
    """
    m = grid.n_nodes
    pu, pd = np.empty(m), np.empty(m)
    base_up = base_dn = fr_up = fr_dn = s_sup = 0.0
    for a, b, bsp, s in parts:
        pu[a : b + 1] = base_up + bsp.push_up.values
        pd[a : b + 1] = base_dn + bsp.push_down.values
        base_up, base_dn = float(pu[b]), float(pd[b])
        fr_up += bsp.flat_residual_up
        fr_dn += bsp.flat_residual_down
        s_sup = max(s_sup, float(np.max(np.abs(s.values))))
    kv = pu - pd
    z[:, -1] = z[:, -2]
    return MRSolution(
        y=Ensemble(grid, y),
        z=Ensemble(grid, z),
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
    feasibility.  One full-grid ``y``/``z`` pair serves every attempt: a
    segment solves into its columns ``a..b``, and leaves node ``b``'s ``z``,
    the later segment's, as it found it.  The trace describes the last
    attempt; its ``attempts`` lists every one.

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
        if not check_envelope_order(sc.losses, sc.envelope, sc.make_grid()):
            raise ValueError("declared envelope does not enclose the losses")

    bm = sc.simulate()
    grid = bm.grid
    if sc.envelope is not None:  # an envelope bad at some node fails before any solve
        sc.envelope.ratio_paths(grid.nodes)
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
    y, z = (np.empty(bm.values.shape, order="F") for _ in range(2))
    max_segments = max(1, grid.n_steps // 2)
    n_segments = 1
    attempts: list[tuple[int, int, float]] = []
    while True:
        bounds = [int(round(j * grid.n_steps / n_segments)) for j in range(n_segments + 1)]
        records: list[tuple[NDArray[np.floating], list[tuple]]] = []
        parts: list[tuple[int, int, BackwardReflectionSolution, SamplePath]] = []
        xi_seg = xi
        for j in reversed(range(n_segments)):
            a, b = bounds[j], bounds[j + 1]
            cols = slice(a, b + 1)
            bm_seg = Ensemble(TimeGrid(nodes[cols]), bm.values[:, cols])
            records.append((bm_seg.grid.nodes, []))
            seg = _picard_segment(
                sc, bm_seg, xi_seg, init, records[-1][1], plan.steps(a, b), y[:, cols], z[:, cols]
            )
            if seg is None:
                break
            parts.append((a, b, seg.bsp, seg.s))
            xi_seg = y[:, a].copy()  # the earlier segment's pass writes this column
        converged = len(parts) == n_segments
        *_, ratio = records[-1][1][-1]  # the attempt's last quotient
        split = not converged and ratio is not None and ratio > sc.tol.contraction_margin
        iterations = sum(len(rows) for _, rows in records)
        attempts.append((n_segments, iterations, ratio if split else math.nan))
        trace = _trace(records, converged, attempts)
        if converged:
            return _stitch(parts[::-1], grid, trace, y, z)
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
    reflected input path.  The envelope term is taken over each segment's
    node times, recorded in the trace, so any Picard trace can be checked
    against any envelope.  An iterate passes when its slack
    ``bound + 1e-6 - variation`` is nonnegative.  Report-only: never raises
    on a violated bound.
    """
    if envelope is None:
        raise ValueError("an envelope is required")
    terms = [
        term
        for nodes, n in zip(trace.segment_nodes, trace.segment_iterations, strict=True)
        for term in [envelope.tv_bound_terms(np.array(nodes))] * n
    ]
    bounds = tuple(
        term + 2.0 * s_var for term, s_var in zip(terms, trace.s_variations, strict=True)
    )
    slacks = tuple(b + 1e-6 - v for b, v in zip(bounds, trace.k_variations))
    return KtVariationReport(
        variations=trace.k_variations,
        bounds=bounds,
        slacks=slacks,
        passed=all(s >= 0.0 for s in slacks),
    )
