"""Command-line front end.

Reads versioned JSON scenario configs, orchestrates the solvers, and emits
bit-stable artifacts: a gnuplot-ready per-node CSV and a diagnostics JSON
holding every checker report.  CSV numbers are written with 17 significant
digits and JSON floats as Python's shortest round-trip repr, so both are
exact and reruns can be compared byte-for-byte.

Configs are checked where they enter: every object rejects a field its
parser does not read, and every number must be finite.

Exit codes: 0 success, 1 config/validation/verification failure, 2 for a
terminal condition that is infeasible for the declared constraints.  Every
failure prints a one-line machine-readable JSON reason to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from .bsde import (
    Generator,
    RegressionConfig,
    affine_mix_generator,
    constant_generator,
    linear_generator,
    quadratic_z_generator,
)
from .constraints import (
    LinearEnvelope,
    LinearObstacles,
    LossPair,
    linear_band,
    saturating_band,
)
from .core import RngSpec
from .diagnostics import (
    audit_solution,
    contraction_estimate,
    mean_loss_paths,
    representation_gap,
)
from .errors import InfeasibleTerminalError, MeanReflectError, NumericalFailureError
from .mrbsde import (
    MRSolution,
    Scenario,
    Tolerances,
    kt_variation_guard,
    picard_solve,
    solve_constant_driver,
)
from .penalty import penalty_sweep
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "cmd_run", "cmd_sweep_penalty", "cmd_verify", "build_scenario"]

SCHEMA_VERSION = 1
CSV_HEADER = "t,mean_Y,mean_L,mean_R,K,push_up,push_down"
SWEEP_HEADER = "n,sup_error,variation,upper_violation,lower_violation,upper_bound,lower_bound"


class ConfigError(Exception):
    """Raised for any malformed or inconsistent scenario config."""


# ---------------------------------------------------------------------------
# bit-stable number emission
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(obj: Any) -> Any:
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n")


def _emit_error(reason: str, message: str) -> None:
    print(json.dumps({"error": reason, "message": message}), file=sys.stderr)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


# the top-level fields each command reads; a scenario may hold either set
_COMMON_FIELDS = (
    "schema_version", "seed", "horizon", "steps", "particles", "terminal", "generator",
    "losses", "solver",
)
_RUN_FIELDS = (*_COMMON_FIELDS, "envelope", "method", "init")
_SWEEP_FIELDS = (*_COMMON_FIELDS, "obstacles", "penalty")


def _only(node: dict, allowed: Iterable[str], what: str) -> None:
    """Reject every field of ``node`` that its parser does not read."""
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ConfigError(f"{what} has unknown field(s): {', '.join(unknown)}")


def _kind(node: Any, what: str) -> str:
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(f"{what} must be an object with a 'kind' tag")
    return str(node["kind"])


def _finite(v: Any, where: str) -> float:
    number = isinstance(v, (int, float)) and not isinstance(v, bool)
    # false for NaN, for +-inf and for ints too large for a float
    if not (number and abs(v) <= sys.float_info.max):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _num(node: dict, key: str, what: str, default: float | None = None) -> float:
    if key not in node:
        if default is None:
            raise ConfigError(f"{what} requires numeric field '{key}'")
        return float(default)
    return _finite(node[key], f"{what}.{key}")


def _int(node: dict, key: str, what: str, default: int | None = None) -> int:
    """An integer field: a JSON integer or an integral float, never a bool or string."""
    v = _num(node, key, what, default)
    if not v.is_integer():
        raise ConfigError(f"{what}.{key} must be an integer, got {node[key]!r}")
    return int(v)


def _nums(node: dict, what: str, **spec: float | None) -> list[float]:
    """The numeric fields of a tagged object, in ``spec`` order (default None: required).

    ``spec`` is also the object's whole schema: any other field but ``kind`` is an error.
    """
    _only(node, ("kind", *spec), what)
    return [_num(node, key, what, default) for key, default in spec.items()]


def _array(node: dict, key: str, what: str) -> np.ndarray:
    v = node.get(key)
    if not isinstance(v, list):
        raise ConfigError(f"{what}.{key} must be an array of numbers")
    return np.array([_finite(x, f"{what}.{key}") for x in v], dtype=float)


def _times(node: dict, what: str) -> np.ndarray:
    times = _array(node, "times", what)
    if times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise ConfigError(f"{what} 'times' must be strictly increasing")
    return times


def _sampled(node: dict, key: str, times: np.ndarray, what: str) -> Callable[[float], float]:
    vals = _array(node, key, what)
    if vals.shape != times.shape:
        raise ConfigError(f"{what} '{key}' samples must align with 'times'")
    return lambda t: float(np.interp(t, times, vals))


def _parse_terminal(node: Any) -> Callable[[np.ndarray], np.ndarray]:
    kind = _kind(node, "terminal")
    if kind == "constant":
        (value,) = _nums(node, "terminal", value=None)
        return lambda b: np.full(b.shape, value)
    if kind not in ("brownian", "bounded-sin"):
        raise ConfigError(f"unknown terminal kind {kind!r}")
    scale, shift = _nums(node, "terminal", scale=1.0, shift=0.0)
    if kind == "brownian":
        return lambda b: scale * b + shift
    return lambda b: scale * np.sin(b) + shift


# kind -> (factory, its positional fields with defaults)
_GENERATORS = {
    "constant": (constant_generator, {"value": None}),
    "linear": (linear_generator, {"a": None}),
    "quadratic-z": (quadratic_z_generator, {"gamma": None}),
    "affine-mix": (
        affine_mix_generator,
        dict.fromkeys(("a_y", "a_mean_y", "a_z", "a_mean_z", "const"), 0.0),
    ),
}


def _parse_generator(node: Any) -> Generator:
    kind = _kind(node, "generator")
    if kind not in _GENERATORS:
        raise ConfigError(f"unknown generator kind {kind!r}")
    make, spec = _GENERATORS[kind]
    return make(*_nums(node, "generator", **spec))


def _affine_loss_pair(node: dict) -> LossPair:
    """Per-side affine losses ``L = sL x + bL``, ``R = sR x + bR``."""
    sides = []
    fields = ("slope", "intercept")
    for side in ("L", "R"):
        sub = node.get(side)
        what = f"losses.{side}"
        if not isinstance(sub, dict):
            raise ConfigError(f"losses kind 'linear' requires object field '{side}'")
        _only(sub, fields, what)
        slope, intercept = (_num(sub, key, what) for key in fields)
        if slope <= 0.0:
            raise ConfigError(f"{what}.slope must be positive")
        sides.append((slope, intercept))
    (s_l, b_l), (s_r, b_r) = sides
    gap = (-b_l / s_l) - (-b_r / s_r)
    if not gap > 0.0:
        raise ConfigError("losses admit no band: root of L must exceed root of R")
    return LossPair(
        L=lambda t, x: s_l * x + b_l,
        R=lambda t, x: s_r * x + b_r,
        c=min(s_l, s_r),
        C=max(s_l, s_r),
        gap=gap,
        time_invariant=True,
        affine=True,
    )


def _parse_losses(node: Any) -> LossPair:
    kind = _kind(node, "losses")
    if kind == "linear":
        _only(node, ("kind", "L", "R"), "losses")
        return _affine_loss_pair(node)
    bands = {"linear-band": linear_band, "saturating-band": saturating_band}
    if kind not in bands:
        raise ConfigError(f"unknown losses kind {kind!r}")
    return bands[kind](*_nums(node, "losses", lower=None, upper=None))


def _parse_envelope(node: Any) -> LinearEnvelope:
    kind = _kind(node, "envelope")
    if kind != "affine-envelope":
        raise ConfigError(f"unknown envelope kind {kind!r}")
    spec = {"b": 1.0, "p": None, "q": None}
    if any(isinstance(node.get(k), list) for k in spec):
        _only(node, ("kind", "times", *spec), "envelope")
        times = _times(node, "envelope")
        fns = {}
        for k, default in spec.items():
            if isinstance(node.get(k), list):
                fns[k] = _sampled(node, k, times, "envelope")
            else:
                const = _num(node, k, "envelope", default)
                fns[k] = lambda t, c=const: c
        return LinearEnvelope(b=fns["b"], p=fns["p"], q=fns["q"])
    try:
        return LinearEnvelope.constants(*_nums(node, "envelope", **spec))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_obstacles(node: Any) -> LinearObstacles:
    kind = _kind(node, "obstacles")
    rates = {"lower_rate": None, "upper_rate": None}
    starts = {"lower_start": 0.0, "upper_start": 0.0}
    try:
        if kind == "linear-rates":
            return LinearObstacles.constants(*_nums(node, "obstacles", **rates, **starts))
        if kind == "sampled-rates":
            _only(node, ("kind", "times", *rates, *starts), "obstacles")
            times = _times(node, "obstacles")
            return LinearObstacles(
                *(_sampled(node, k, times, "obstacles") for k in rates),
                *(_num(node, k, "obstacles", d) for k, d in starts.items()),
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown obstacles kind {kind!r}")


def _parse_solver(node: Any) -> tuple[RegressionConfig, Tolerances]:
    if node is None:
        return RegressionConfig(), Tolerances()
    if not isinstance(node, dict):
        raise ConfigError("'solver' must be an object")
    reg_defaults = asdict(RegressionConfig())
    tol_defaults = asdict(Tolerances())
    _only(node, (*reg_defaults, *tol_defaults), "solver")

    def read(defaults: dict) -> dict:
        out = {}
        for key, default in defaults.items():
            if isinstance(default, int):
                out[key] = _int(node, key, "solver", default)
            else:
                out[key] = _num(node, key, "solver", default)
        return out

    try:
        return RegressionConfig(**read(reg_defaults)), Tolerances(**read(tol_defaults))
    except ValueError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc


def load_config(path: str | Path) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"config schema_version must be {SCHEMA_VERSION}, "
            f"got {cfg.get('schema_version')!r}"
        )
    return cfg


def build_scenario(cfg: dict, seed: int) -> Scenario:
    """Assemble a Scenario from a parsed config and a resolved seed."""
    _only(cfg, (*_RUN_FIELDS, *_SWEEP_FIELDS), "config")
    for key in ("horizon", "steps", "particles", "terminal", "generator"):
        if key not in cfg:
            raise ConfigError(f"config requires field '{key}'")
    reg, tol = _parse_solver(cfg.get("solver"))
    try:
        return Scenario(
            horizon=_num(cfg, "horizon", "config"),
            steps=_int(cfg, "steps", "config"),
            particles=_int(cfg, "particles", "config"),
            rng=RngSpec(seed=seed),
            terminal=_parse_terminal(cfg["terminal"]),
            generator=_parse_generator(cfg["generator"]),
            losses=_parse_losses(cfg["losses"]) if cfg.get("losses") else None,
            envelope=_parse_envelope(cfg["envelope"]) if cfg.get("envelope") else None,
            obstacles=(
                _parse_obstacles(cfg["obstacles"]) if cfg.get("obstacles") else None
            ),
            regression=reg,
            tol=tol,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scenario settings: {exc}") from exc


def resolve_seed(cli_seed: int | None, cfg: dict | None) -> int:
    """Precedence: --seed flag, then config 'seed', then MEANREFLECT_SEED, then 0."""
    if cli_seed is not None:
        seed = int(cli_seed)
    elif cfg is not None and "seed" in cfg:
        if isinstance(cfg["seed"], bool) or not isinstance(cfg["seed"], int):
            raise ConfigError("config 'seed' must be an integer")
        seed = int(cfg["seed"])
    else:
        env = os.environ.get("MEANREFLECT_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError as exc:
                raise ConfigError("MEANREFLECT_SEED must be an integer") from exc
        else:
            seed = 0
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    return seed


# ---------------------------------------------------------------------------
# run artifacts
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: str, rows) -> None:
    rows = [[float(v) for v in row] for row in rows]
    if not all(map(math.isfinite, (v for row in rows for v in row))):
        raise NumericalFailureError(f"{path.name} would hold non-finite values")
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _trace_block(sol: MRSolution) -> dict | None:
    tr = sol.trace
    if tr is None:
        return None
    block = {
        "iterations": tr.iterations,
        "converged": tr.converged,
        "segment_count": tr.segment_count,
        "segment_iterations": list(tr.segment_iterations),
        "y_distances": list(tr.y_distances),
        "k_distances": list(tr.k_distances),
        "ratios": list(tr.ratios),
    }
    if tr.iterations >= 3:
        block["contraction"] = asdict(contraction_estimate(tr))
    return block


def _run_result(
    cfg: dict, sc: Scenario, sol: MRSolution, seed: int, dt_wall: float
) -> tuple[np.ndarray, dict]:
    """The per-node table of ``result.csv`` and the ``diagnostics.json`` payload."""
    grid = sc.make_grid()
    mean_y = sol.mean_path
    e_l, e_r = mean_loss_paths(sol.y, sc.losses)
    table = np.column_stack(
        [
            grid.nodes,
            mean_y,
            e_l,
            e_r,
            sol.K.values,
            sol.push_up.values,
            sol.push_down.values,
        ]
    )
    audit = audit_solution(sol, sc.losses, mult=sc.tol.stat_tol_mult)
    diag: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": "run",
        "seed": seed,
        "timing_seconds": dt_wall,
        "nodes": grid.n_nodes,
        "particles": sc.particles,
        "audit": asdict(audit),
        "representation_gap": representation_gap(sol),
        "constraint_violation": {
            "lower": audit.violation_lower,
            "upper": audit.violation_upper,
        },
        "stat_tol": audit.violation_tol,
        "force_terminal": float(sol.K.values[-1]),
        "force_variation": sol.variation,
        "trace": _trace_block(sol),
        "scenario": cfg,
    }
    if sc.envelope is not None and sol.trace is not None and sol.trace.envelope_terms:
        diag["force_variation_guard"] = asdict(
            kt_variation_guard(sol.trace, sc.envelope)
        )
    return table, diag


def cmd_run(config_path: str, out_dir: str, seed: int | None = None) -> int:
    """Solve the configured scenario and write result.csv + diagnostics.json.

    The emitted bytes depend only on config and seed.
    """
    cfg = load_config(config_path)
    _only(cfg, _RUN_FIELDS, "run config")
    resolved = resolve_seed(seed, cfg)
    sc = build_scenario(cfg, resolved)
    if sc.losses is None:
        raise ConfigError("cmd_run requires a 'losses' block")
    method = str(cfg.get("method", "picard"))
    init = str(cfg.get("init", "zero"))
    if init not in ("zero", "unreflected"):
        raise ConfigError(f"unknown init {init!r}")
    t0 = time.perf_counter()
    try:
        if method == "picard":
            sol = picard_solve(sc, init=init)
        elif method == "constant-driver":
            sol = solve_constant_driver(sc)
        else:
            raise ConfigError(f"unknown method {method!r}")
    except ValueError as exc:
        # the solvers' own scenario checks: a route or envelope that does not fit
        raise ConfigError(str(exc)) from exc
    wall = time.perf_counter() - t0

    table, diag = _run_result(cfg, sc, sol, resolved, wall)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "result.csv", CSV_HEADER, table)
    _dump_json(out / "diagnostics.json", diag)
    return 0


def cmd_sweep_penalty(
    config_path: str,
    out_dir: str,
    seed: int | None = None,
    threads: int = 1,
    levels_arg: str | None = None,
) -> int:
    """Run the penalty sweep into sweep.csv + diagnostics.json; ``threads`` >= 1 goes unused."""
    if threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {threads}")
    cfg = load_config(config_path)
    _only(cfg, _SWEEP_FIELDS, "sweep-penalty config")
    if isinstance(cfg.get("solver"), dict):  # no regression or Picard setting reaches the sweep
        _only(cfg["solver"], ("stat_tol_mult", "root_tol"), "sweep-penalty solver")
    resolved = resolve_seed(seed, cfg)
    sc = build_scenario(cfg, resolved)
    if levels_arg is not None:
        try:
            levels = [float(tok) for tok in levels_arg.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError("--levels must be a comma-separated number list") from exc
    else:
        penalty = cfg.get("penalty", {})
        if not isinstance(penalty, dict):
            raise ConfigError("'penalty' must be an object")
        _only(penalty, ("levels",), "penalty")
        if not penalty.get("levels"):
            raise ConfigError("no penalty levels: pass --levels or config 'penalty.levels'")
        levels = list(_array(penalty, "levels", "penalty"))
    t0 = time.perf_counter()
    try:
        sweep = penalty_sweep(sc, levels)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    wall = time.perf_counter() - t0

    rows = zip(
        sweep.ns,
        sweep.sup_errors,
        sweep.variations,
        sweep.upper_violations,
        sweep.lower_violations,
        sweep.upper_bound_column,
        sweep.lower_bound_column,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    _dump_json(
        out / "diagnostics.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep-penalty",
            "seed": resolved,
            "timing_seconds": wall,
            "levels": list(sweep.ns),
            "slope": sweep.slope,
            "sup_errors": list(sweep.sup_errors),
            "upper_bound_column": list(sweep.upper_bound_column),
            "lower_bound_column": list(sweep.lower_bound_column),
            "reference_mean": sweep.reference_mean,
            "scenario": cfg,
        },
    )
    return 0


def cmd_verify(suite: str, instances: int = 100, seed: int | None = None) -> int:
    """Run a named verification suite; exit 0 iff every check passes.

    ``seed=None`` keeps every suite's own fixed default seed.
    """
    if seed is not None and not 0 <= seed < 2**64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    if instances < 1:
        raise ConfigError(f"--instances must be at least 1, got {instances}")
    try:
        results = run_suite(suite, instances=instances, seed=seed)
    except ValueError as exc:
        _emit_error("unknown-suite", str(exc))
        return 1
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(
            f"{status} {res.name}: instances={res.instances} "
            f"failures={res.failures} worst_slack={_fmt(res.worst_slack)}"
        )
        for line in res.details:
            print(f"  {line}")
        ok = ok and res.passed
    if not ok:
        _emit_error("verification-failed", f"suite {suite!r} has failing checks")
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument(
        "--seed", type=int, default=None, help="unsigned 64-bit seed (overrides config)"
    )
    parser = argparse.ArgumentParser(
        prog="meanreflect",
        description="Mean-reflected backward SDE experiments and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[common], help="solve one scenario config")
    p_run.add_argument("config", help="path to JSON scenario config")
    p_sweep = sub.add_parser(
        "sweep-penalty", parents=[common], help="penalization convergence sweep"
    )
    p_sweep.add_argument("config", help="path to JSON scenario config")
    p_sweep.add_argument(
        "--levels", default=None, help="comma-separated penalty levels (overrides config)"
    )
    p_sweep.add_argument(
        "--threads",
        type=int,
        default=1,
        help="at least 1; the sweep is scalar work, so no count changes it",
    )
    p_verify = sub.add_parser("verify", help="run a randomized verification suite")
    p_verify.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}")
    p_verify.add_argument(
        "--instances", type=int, default=100, help="instances per suite"
    )
    p_verify.add_argument(
        "--seed", type=int, default=None, help="base seed (default: per-suite fixed seeds)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out, args.seed)
        if args.command == "sweep-penalty":
            return cmd_sweep_penalty(
                args.config, args.out, args.seed, args.threads, args.levels
            )
        return cmd_verify(args.suite, args.instances, args.seed)
    except InfeasibleTerminalError as exc:
        _emit_error("infeasible-terminal", str(exc))
        return 2
    except ConfigError as exc:
        _emit_error("config", str(exc))
        return 1
    except MeanReflectError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
