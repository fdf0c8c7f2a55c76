"""Backward-Euler particle solver for unreflected backward SDEs.

The scheme walks the time grid backwards.  At each step the conditional
expectation given the current Brownian state is estimated by least-squares
projection onto a small polynomial basis (the classic regression Monte Carlo
device), which yields both the predictor for the next value and the
martingale-coefficient estimate ``z = E[y dB] / dt``.  Generators may depend
on the empirical laws of the solution through the same-step cross-sections.
Every solver runs this one loop and differs only in its per-step drift hook
``drift(k, pred, zk)``: the generator at the predictor, the generator frozen
at a previous iterate's node-``k`` columns, or a given path's column ``k``.

Every reduction over the particle axis is numpy's pairwise sum over one
contiguous row (:func:`meanreflect.core.pairwise_mean`), so solves are
bit-stable under threading; regression predictions are evaluated by Horner's
rule rather than a BLAS matmul for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .core import Ensemble, pairwise_mean
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
    gamma: float = 0.0
    depends_on_z_law: bool = False

    def __post_init__(self):
        if self.mode not in ("lipschitz", "quadratic"):
            raise ValueError(f"unknown generator mode {self.mode!r}")
        if self.lam < 0.0 or self.gamma < 0.0:
            raise ValueError("growth constants must be nonnegative")
        if self.mode == "quadratic" and self.depends_on_z_law:
            raise ValueError("quadratic-mode generators must not depend on the z law")


@dataclass(frozen=True)
class RegressionConfig:
    """Conditional-expectation estimator settings."""

    degree: int = 3
    ridge: float = 1e-10
    z_mode: str = "regression"

    def __post_init__(self):
        if not self.degree >= 0:  # NaN fails
            raise ValueError("degree must be nonnegative")
        if not 0.0 <= self.ridge < math.inf:
            raise ValueError("ridge must be nonnegative and finite")
        if self.z_mode not in ("regression", "none"):
            raise ValueError("z_mode must be 'regression' or 'none'")


@dataclass(frozen=True)
class BSDESolution:
    y: Ensemble
    z: Ensemble


# ---------------------------------------------------------------------------
# regression machinery
# ---------------------------------------------------------------------------


def _horner(coefs: NDArray[np.floating], u: NDArray[np.floating]) -> NDArray[np.floating]:
    out = np.full_like(u, float(coefs[-1]))
    for c in coefs[-2::-1]:
        out = out * u + float(c)
    return out


def _condexp(
    state: NDArray[np.floating],
    targets: list[NDArray[np.floating]],
    degree: int,
    ridge: float,
) -> list[NDArray[np.floating]]:
    """Least-squares projection of each target onto polynomials of ``state``.

    The state is standardized before building the monomial basis; the normal
    matrix is a Hankel form of standardized moments, assembled with
    deterministic reductions and solved with a small ridge on the diagonal.
    """
    scale = float(np.sqrt(pairwise_mean(state * state)))
    if scale < 1e-300:
        # Degenerate state (e.g. the initial node where every path is at 0):
        # the projection is the plain mean.
        return [np.full_like(state, float(pairwise_mean(t))) for t in targets]
    u = state / scale
    powers = [np.ones_like(u)]
    for _ in range(2 * degree):
        powers.append(powers[-1] * u)
    moments = np.array([float(pairwise_mean(p)) for p in powers])
    G = np.empty((degree + 1, degree + 1))
    for i in range(degree + 1):
        G[i, :] = moments[i : i + degree + 1]
    G[np.diag_indices_from(G)] += ridge
    rhs = np.column_stack(
        [[float(pairwise_mean(powers[i] * t)) for i in range(degree + 1)] for t in targets]
    )
    try:
        coefs = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - needs ridge=0 + ties
        raise NumericalFailureError(f"regression normal system is singular: {exc}")
    return [_horner(coefs[:, j], u) for j in range(len(targets))]


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def solve_bsde(
    terminal: NDArray[np.floating],
    gen: Generator | None,
    bm: Ensemble,
    cfg: RegressionConfig = RegressionConfig(),
    driver: NDArray[np.floating] | None = None,
    times: NDArray[np.floating] | None = None,
) -> BSDESolution:
    """Solve the backward equation particle-wise on the Brownian ensemble.

    Per backward step ``k``: project ``y_{k+1}`` and ``y_{k+1} dB_k`` onto
    the polynomial basis in the Brownian state, set ``z_k`` to the second
    projection divided by ``dt``, and advance

        y_k = predictor + f(t_k, predictor, law(predictor), z_k, law(z_k)) dt

    (explicit scheme: the predictor itself feeds the driver, and the law
    arguments are the same-step cross-sections).  When ``driver`` is given it
    overrides the generator with a precomputed per-particle drift path,
    node-aligned with the grid.  ``times`` substitutes the clock values fed
    to the generator (used when ``bm`` lives on a sub-interval whose grid was
    shifted to start at 0); defaults to the grid nodes.

    The terminal cross-section of ``y`` equals ``terminal`` bitwise.
    """
    xi = np.asarray(terminal, dtype=float)
    n, m = bm.values.shape
    if xi.shape != (n,):
        raise ValueError("terminal must provide one value per particle")
    if gen is None and driver is None:
        raise ValueError("need a generator or a driver path")
    times = bm.grid.nodes if times is None else np.asarray(times, dtype=float)
    if times.shape != (m,):
        raise ValueError("times must provide one entry per node")
    drift = _plain_drift(gen, times) if driver is None else _column_drift(driver, n, m)
    return _backward_pass(xi, bm, cfg, drift, times)


def _plain_drift(gen: Generator, times: NDArray) -> DriftFn:
    """The explicit scheme's hook: ``f(t_k, pred, law(pred), z_k, law(z_k))``."""
    return lambda k, pred, zk: gen.f(float(times[k]), pred, pred, zk, zk)


def _frozen_drift(gen: Generator, u: NDArray, v: NDArray, times: NDArray) -> DriftFn:
    """The hook of ``f`` frozen at a (particles, nodes) pair; reads node ``k``'s columns only."""
    return lambda k, *_: gen.f(float(times[k]), u[:, k], u[:, k], v[:, k], v[:, k])


def _column_drift(driver: NDArray, n: int, m: int) -> DriftFn:
    """The hook reading column ``k`` of a caller's (particles, nodes) drift path."""
    driver = np.asarray(driver, dtype=float)
    if driver.shape not in ((n, m), (n, m - 1)):
        raise ValueError("driver path must be (particles, nodes) aligned")
    return lambda k, *_: driver[:, k]


def _backward_pass(
    xi: NDArray[np.floating],
    bm: Ensemble,
    cfg: RegressionConfig,
    drift: DriftFn,
    times: NDArray[np.floating],
    mean_shift: Callable[..., float] | None = None,
) -> BSDESolution:
    """The regression backward recursion of :func:`solve_bsde`, on checked inputs.

    ``drift(k, pred, zk)`` is the one per-step drift hook of every solver.
    ``mean_shift(k, y_next, fval)``, when given, returns a deterministic
    increment added to every particle at step ``k`` after the drift (the
    penalized scheme's mean push).  Without it nothing is added, so a
    ``-0.0`` particle value stays ``-0.0``.  A step that leaves a non-finite
    value raises :class:`NumericalFailureError` naming the node and its clock
    time ``times[k]``.
    """
    grid = bm.grid
    n, m = bm.values.shape
    dt = grid.step_sizes
    y = np.empty((n, m), order="F")
    z = np.zeros((n, m), order="F")
    y[:, -1] = xi
    with_z = cfg.z_mode == "regression"

    for k in range(m - 2, -1, -1):
        state = bm.values[:, k]
        y_next = y[:, k + 1]
        if with_z:
            db = bm.values[:, k + 1] - state
            pred, zk_raw = _condexp(state, [y_next, y_next * db], cfg.degree, cfg.ridge)
            zk = zk_raw / dt[k]
        else:
            (pred,) = _condexp(state, [y_next], cfg.degree, cfg.ridge)
            zk = z[:, k]
        fval = np.broadcast_to(np.asarray(drift(k, pred, zk), dtype=float), pred.shape)
        y[:, k] = pred + fval * dt[k]
        if mean_shift is not None:
            y[:, k] += mean_shift(k, y_next, fval)
        if not np.isfinite(y[:, k]).all():
            raise NumericalFailureError(
                f"backward step left non-finite values at node {k} (t = {times[k]:.6g})"
            )
        z[:, k] = zk

    if with_z and m >= 2:
        z[:, -1] = z[:, -2]
    return BSDESolution(Ensemble(grid, y), Ensemble(grid, z))


def constant_driver_path(
    gen: Generator,
    frozen_y: Ensemble,
    frozen_z: Ensemble,
    times: NDArray[np.floating] | None = None,
) -> NDArray[np.floating]:
    """Evaluate the generator along a frozen pair of ensembles.

    Returns the (particles, nodes) drift path obtained by feeding each node's
    cross-sections of the frozen ensembles into ``f``: the values the
    fixed-point loop reads node by node, without building this matrix.
    ``times`` overrides the clock values for shifted sub-interval grids.
    """
    if frozen_y.values.shape != frozen_z.values.shape:
        raise ValueError("frozen ensembles must be aligned")
    times = frozen_y.grid.nodes if times is None else times
    drift = _frozen_drift(gen, frozen_y.values, frozen_z.values, times)
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
    if g <= 0.0:
        raise ValueError("gamma must be positive")
    return Generator(
        "quadratic",
        lambda t, y, my, z, mz: 0.5 * g * np.asarray(z) ** 2,
        lam=0.0,
        gamma=g,
    )


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
