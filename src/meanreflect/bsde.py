"""Backward-Euler particle solver for unreflected backward SDEs.

The scheme walks the time grid backwards.  At each step the conditional
expectation given the current Brownian state is estimated by least-squares
projection onto a small polynomial basis (the classic regression Monte Carlo
device), which yields both the predictor for the next value and the
martingale-coefficient estimate ``z = E[y dB] / dt``.  Generators may depend
on the empirical laws of the solution through the same-step cross-sections.
Every solver runs this one loop and differs only in its per-step drift hook
``drift(k, pred, zk)``: the generator at the predictor, or the generator
frozen at a previous iterate's node-``k`` columns.

The regression's target-free half, per node the state's scale and the
ridged Gram matrix, is a :class:`RegressionPlan` built once per Brownian
ensemble; a Picard solve slices its horizon's plan per segment, so no
iteration or split restart rebuilds it.

Every reduction over the particle axis is numpy's pairwise sum over one
contiguous row (:func:`meanreflect.core.pairwise_mean`, or a row of one
C-contiguous block: the same bits), so solves are bit-stable under
threading; fits are evaluated elementwise by Horner's rule rather than a
BLAS matmul for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .core import Ensemble, TimeGrid, _require_int, pairwise_mean
from .errors import NumericalFailureError

__all__ = [
    "Generator",
    "RegressionConfig",
    "BSDESolution",
    "solve_bsde",
    "constant_driver_path",
    "constant_generator",
    "linear_generator",
    "quadratic_z_generator",
    "affine_mix_generator",
]

# f(t, y, law_y, z, law_z) -> per-particle drift, vectorized over particles.
DriverFn = Callable[..., NDArray[np.floating]]
# drift(k, pred, zk) -> step k's drift: the backward loop's one per-step hook.
DriftFn = Callable[..., NDArray[np.floating]]


@dataclass(frozen=True)
class Generator:
    """Driver of the backward equation plus its declared growth regime.

    ``mode`` is ``"lipschitz"`` (globally Lipschitz in state, both laws
    allowed) or ``"quadratic"`` (at most quadratic growth in z, convex or
    concave there, and the z-law must not appear — enforced here).
    """

    mode: str
    f: DriverFn
    lam: float
    depends_on_z_law: bool = False

    def __post_init__(self):
        if self.mode not in ("lipschitz", "quadratic"):
            raise ValueError(f"unknown generator mode {self.mode!r}")
        if not 0.0 <= self.lam < math.inf:  # "not in range", so NaN fails too
            raise ValueError("lam must be nonnegative and finite")
        if self.mode == "quadratic" and self.depends_on_z_law:
            raise ValueError("quadratic-mode generators must not depend on the z law")


@dataclass(frozen=True)
class RegressionConfig:
    """Conditional-expectation estimator settings; ``z`` is always estimated."""

    degree: int = 3
    ridge: float = 1e-10

    def __post_init__(self):
        _require_int(self.degree, "degree", 0)
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be nonnegative and finite")


@dataclass(frozen=True)
class BSDESolution:
    y: Ensemble
    z: Ensemble


# ---------------------------------------------------------------------------
# regression machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegressionPlan:
    """The least-squares projection onto polynomials of one ensemble's state.

    Entry ``k`` belongs to backward step ``k``, whose state is node ``k``:
    the standardizing scale of the state (``None`` where it is degenerate,
    e.g. node 0 where every path is at 0, and the projection is the plain
    mean) and the normal matrix, a Hankel form of standardized moments
    assembled with deterministic reductions, with the ridge on its diagonal.
    Nothing with a particle axis is kept, so one plan serves every solve on
    the ensemble; :meth:`steps` cuts out a sub-interval's plan and
    :meth:`project` does a step's target-dependent half.
    """

    cfg: RegressionConfig
    scales: tuple[float | None, ...]
    grams: tuple[NDArray[np.floating] | None, ...]

    @classmethod
    def build(cls, bm: Ensemble, cfg: RegressionConfig) -> RegressionPlan:
        """The plan of the Brownian ensemble ``bm``, one entry per backward step."""
        d = cfg.degree
        scales, grams = [], []
        for k in range(bm.grid.n_steps):
            state = bm.values[:, k]
            scale = float(np.sqrt(pairwise_mean(state * state)))
            if scale < 1e-300:
                scales.append(None)
                grams.append(None)
                continue
            u = state / scale
            power = np.ones_like(u)
            moments = [1.0]  # the mean of the ones
            for _ in range(2 * d):
                power = power * u
                moments.append(float(pairwise_mean(power)))
            G = np.array([moments[i : i + d + 1] for i in range(d + 1)])
            G[np.diag_indices_from(G)] += cfg.ridge
            scales.append(scale)
            grams.append(G)
        return cls(cfg, tuple(scales), tuple(grams))

    def steps(self, a: int, b: int) -> RegressionPlan:
        """The plan of the sub-ensemble on nodes ``a..b``: steps ``a..b-1``."""
        return RegressionPlan(self.cfg, self.scales[a:b], self.grams[a:b])

    def project(
        self, k: int, state: NDArray, block: NDArray, powers: NDArray, fit: NDArray
    ) -> None:
        """Fill row ``j`` of ``fit`` with the step-``k`` projection of target ``j``.

        Target ``j`` sits in row ``j * (degree + 1)`` of ``block``; the rows
        after it receive its products with ``u^1..u^degree`` (``u`` the
        standardized state, its powers built in ``powers``), and one
        row-wise pairwise reduction of ``block`` gives every right-hand
        side.  The fits are evaluated by Horner's rule in place.
        """
        d = self.cfg.degree
        width = d + 1
        if self.scales[k] is None:  # degenerate state: the projection is the plain mean
            for j in range(fit.shape[0]):
                fit[j] = pairwise_mean(block[j * width])
            return
        u = np.divide(state, self.scales[k], out=powers[0]) if d else None
        for i in range(1, d):
            np.multiply(powers[i - 1], u, out=powers[i])
        for j in range(fit.shape[0]):
            np.multiply(powers, block[j * width], out=block[j * width + 1 : (j + 1) * width])
        rhs = np.add.reduce(block, axis=1) / block.shape[1]
        try:
            coefs = np.linalg.solve(self.grams[k], rhs.reshape(-1, width).T)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - needs ridge=0 + ties
            raise NumericalFailureError(f"regression normal system is singular: {exc}")
        if not d:
            fit[:] = coefs[0][:, None]
            return
        np.multiply(coefs[d][:, None], u, out=fit)
        fit += coefs[d - 1][:, None]
        for i in range(d - 2, -1, -1):
            fit *= u
            fit += coefs[i][:, None]


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def solve_bsde(
    terminal: NDArray[np.floating],
    gen: Generator,
    bm: Ensemble,
    cfg: RegressionConfig = RegressionConfig(),
) -> BSDESolution:
    """Solve the backward equation particle-wise on the Brownian ensemble.

    Per backward step ``k``: project ``y_{k+1}`` and ``y_{k+1} dB_k`` onto
    the polynomial basis in the Brownian state, set ``z_k`` to the second
    projection divided by ``dt``, and advance

        y_k = predictor + f(t_k, predictor, law(predictor), z_k, law(z_k)) dt

    (explicit scheme: the predictor itself feeds the driver, and the law
    arguments are the same-step cross-sections).  ``t_k`` is node ``k`` of
    ``bm``'s grid, which carries the clock.

    The terminal cross-section of ``y`` equals ``terminal`` bitwise.
    """
    xi = np.asarray(terminal, dtype=float)
    if xi.shape != (bm.particle_count,):
        raise ValueError("terminal must provide one value per particle")
    return _backward_pass(xi, bm, RegressionPlan.build(bm, cfg), _plain_drift(gen, bm.grid))


def _plain_drift(gen: Generator, grid: TimeGrid) -> DriftFn:
    """The explicit scheme's hook: ``f(t_k, pred, law(pred), z_k, law(z_k))``."""
    return lambda k, pred, zk: gen.f(float(grid.nodes[k]), pred, pred, zk, zk)


def _frozen_drift(gen: Generator, u: NDArray, v: NDArray, grid: TimeGrid) -> DriftFn:
    """The hook of ``f`` frozen at a (particles, nodes) pair; reads node ``k``'s columns only."""
    return lambda k, *_: gen.f(float(grid.nodes[k]), u[:, k], u[:, k], v[:, k], v[:, k])


def _backward_pass(
    xi: NDArray[np.floating],
    bm: Ensemble,
    plan: RegressionPlan,
    drift: DriftFn,
    mean_shift: Callable[..., float] | None = None,
    y: NDArray[np.floating] | None = None,
    z: NDArray[np.floating] | None = None,
    meter: Callable[[int, NDArray[np.floating]], None] | None = None,
) -> BSDESolution:
    """The regression backward recursion of :func:`solve_bsde`, on checked inputs.

    ``plan`` is the regression plan of ``bm`` (or the node slice of a larger
    ensemble's plan that ``bm`` is cut from).  ``drift(k, pred, zk)`` is the
    one per-step drift hook of every solver.  ``mean_shift(k, y_next,
    fval)``, when given, returns a deterministic increment added to every
    particle at step ``k`` after the drift (the penalized scheme's mean
    push).  Without it nothing is added, so a ``-0.0`` particle value stays
    ``-0.0``.  A step that leaves a non-finite value raises
    :class:`NumericalFailureError` naming the node and its time on the grid.

    ``y`` and ``z``, F-ordered (particles, nodes) arrays, receive the solution
    in place of new arrays, so they may be the pair a frozen hook reads:
    column ``k`` is overwritten only after ``drift(k)`` returned and, when
    given, ``meter(k, yk)`` saw the new ``y`` column beside the old one.  A
    given ``z`` keeps its terminal column; a new one gets ``z[:, -2]`` there.
    """
    grid = bm.grid
    n, m = bm.values.shape
    if len(plan.scales) != m - 1:
        raise ValueError("regression plan does not match the ensemble's steps")
    dt = grid.step_sizes
    own_z = z is None
    y, z = (np.empty((n, m), order="F") if a is None else a for a in (y, z))
    if not (y.shape == z.shape == (n, m) and y.flags.f_contiguous and z.flags.f_contiguous):
        raise ValueError("y and z must be F-ordered (particles, nodes) arrays")
    if meter is not None:
        meter(m - 1, xi)
    y[:, -1] = xi
    width = plan.cfg.degree + 1
    # per-pass scratch, reused at every node: targets with their products, powers, fits
    block = np.empty((2 * width, n))
    powers = np.empty((width - 1, n))
    fit = np.empty((2, n))
    row = None if meter is None else np.empty(n)  # the new y column while the meter reads

    for k in range(m - 2, -1, -1):
        state = bm.values[:, k]
        y_next = y[:, k + 1]
        block[0] = y_next
        np.subtract(bm.values[:, k + 1], state, out=block[width])
        block[width] *= y_next
        plan.project(k, state, block, powers, fit)
        pred = fit[0]
        zk = np.divide(fit[1], dt[k], out=fit[1])
        fval = np.broadcast_to(np.asarray(drift(k, pred, zk), dtype=float), pred.shape)
        yk = np.multiply(fval, dt[k], out=y[:, k] if row is None else row)
        yk += pred
        if mean_shift is not None:
            yk += mean_shift(k, y_next, fval)
        if not np.isfinite(yk).all():
            raise NumericalFailureError(
                f"backward step left non-finite values at node {k} (t = {grid.nodes[k]:.6g})"
            )
        if meter is not None:
            meter(k, yk)
            y[:, k] = yk
        z[:, k] = zk

    if own_z:
        z[:, -1] = z[:, -2]
    return BSDESolution(Ensemble(grid, y), Ensemble(grid, z))


def constant_driver_path(
    gen: Generator,
    frozen_y: Ensemble,
    frozen_z: Ensemble,
) -> NDArray[np.floating]:
    """Evaluate the generator along a frozen pair of ensembles.

    Returns the (particles, nodes) drift path obtained by feeding each node's
    cross-sections of the frozen ensembles into ``f`` at the node times of
    ``frozen_y``'s grid: the values the fixed-point loop reads node by node,
    without building this matrix.
    """
    if frozen_y.values.shape != frozen_z.values.shape:
        raise ValueError("frozen ensembles must be aligned")
    drift = _frozen_drift(gen, frozen_y.values, frozen_z.values, frozen_y.grid)
    out = np.empty(frozen_y.values.shape, order="F")
    for k in range(out.shape[1]):
        out[:, k] = drift(k)
    return out


# ---------------------------------------------------------------------------
# generator catalogue
# ---------------------------------------------------------------------------


def constant_generator(value: float) -> Generator:
    """f == value."""
    v = float(value)
    return Generator("lipschitz", lambda t, y, my, z, mz: np.full(np.shape(y), v), lam=0.0)


def linear_generator(a: float) -> Generator:
    """f = a * y."""
    a = float(a)
    return Generator("lipschitz", lambda t, y, my, z, mz: a * np.asarray(y), lam=abs(a))


def quadratic_z_generator(gamma: float) -> Generator:
    """f = (gamma / 2) z^2 — convex quadratic growth in z, no law dependence."""
    g = float(gamma)
    if not 0.0 < g < math.inf:
        raise ValueError("gamma must be positive and finite")
    return Generator("quadratic", lambda t, y, my, z, mz: 0.5 * g * np.asarray(z) ** 2, lam=0.0)


def affine_mix_generator(
    a_y: float = 0.0,
    a_mean_y: float = 0.0,
    a_z: float = 0.0,
    a_mean_z: float = 0.0,
    const: float = 0.0,
) -> Generator:
    """Affine driver a_y*y + a_mean_y*E[y] + a_z*z + a_mean_z*E[z] + const.

    The mean terms couple every particle to the cross-section law; the
    Lipschitz constant is the largest coefficient magnitude.
    """

    def f(t, y, law_y, z, law_z):
        out = a_y * np.asarray(y, dtype=float) + const
        if a_mean_y:
            out = out + a_mean_y * float(pairwise_mean(np.asarray(law_y, dtype=float)))
        if a_z:
            out = out + a_z * np.asarray(z, dtype=float)
        if a_mean_z:
            out = out + a_mean_z * float(pairwise_mean(np.asarray(law_z, dtype=float)))
        return out

    lam = max(abs(a_y), abs(a_mean_y), abs(a_z), abs(a_mean_z))
    return Generator("lipschitz", f, lam=lam, depends_on_z_law=bool(a_mean_z))
