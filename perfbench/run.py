"""Benchmark of the meanreflect solvers: end-to-end metrics or a layer split.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src/``.
One run repeats one workload's op (a solve, a CLI command or ``verify all``)
in this process until ``--seconds`` have passed, checks every op's outputs,
and prints a summary followed by one JSON line.

``--trace 0`` reports the end-to-end metrics: ``solve_s``, the median wall
seconds per op after a first, warm-up op; ``setup_s``, the median over fresh
interpreters of the time until the first op could start; ``peak_rss_mb``,
the peak resident memory of this process when its first op has ended.
``setup_s`` and ``solve_s`` are rescaled to a nominal host speed, measured by
a reference kernel run right after each set-up sample and in slices during
or around each op (see ``hostspeed.py``); the raw seconds go to the result
file.
``--trace 1`` first repeats the op untraced for half the time, then wraps
the package's layer functions (see ``tracer.py``) and repeats it traced, and
reports per-layer self times and counts, medians over the traced ops.
Working files, results and spans go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread, so that ``sweep-penalty --threads 2`` is the only
# parallelism.  Set before anything imports numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# With string hashing randomized per process, peak RSS of the same op varies
# by 10% from run to run; a fixed seed makes it repeat.  The interpreter
# reads it only at start-up, so re-execute (same process) once.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

import argparse
import contextlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
import traceback
from pathlib import Path

from tracer import Tracer
from workloads import ROOT, WORKLOADS, import_package

OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
# Seconds of the ``python`` reference kernel (``hostspeed.py``) that each
# set-up probe runs once its set-up is done.
PROBE_KERNEL_S = 0.4
# Seconds of reference kernel slices run after each op of a workload whose op
# runs on several threads.
BLOCK_S = 0.3

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, how it is taken from one traced op).  "self"
# and "total" read the named span's seconds, "calls" its count; "counter"
# reads a tracer counter; "fact" a value from the op's outputs; "derived"
# is computed in ``layer_metrics``, or in ``measure`` for the two whole-run
# ratios (tracing overhead and failures).
PER_LAYER = {
    "core.simulate_brownian_s": ("s", "self", "core.simulate_brownian"),
    "bsde.solve_bsde_s": ("s", "self", "bsde.solve_bsde"),
    "bsde.solve_bsde_calls": ("count", "calls", "bsde.solve_bsde"),
    "bsde.constant_driver_path_s": ("s", "self", "bsde.constant_driver_path"),
    "constraints.make_mean_boundary_s": ("s", "self", "constraints.make_mean_boundary"),
    "constraints.band_edges_s": ("s", "self", "constraints.band_edges"),
    "constraints.invert_boundary_s": ("s", "self", "constraints.invert_boundary"),
    "constraints.invert_boundary_calls": ("count", "calls", "constraints.invert_boundary"),
    "constraints.boundary_evals": ("count", "counter", "constraints.boundary_evals"),
    "constraints.loss_evals": ("count", "counter", "constraints.loss_evals"),
    "skorokhod.solve_sp_s": ("s", "self", "skorokhod.solve_sp"),
    "skorokhod.solve_bsp_s": ("s", "self", "skorokhod.solve_bsp"),
    "skorokhod.flatness_residuals_s": ("s", "self", "skorokhod.flatness_residuals_raw"),
    "skorokhod.check_continuity_bound_s": ("s", "self", "skorokhod.check_continuity_bound"),
    "skorokhod.check_comparison_s": ("s", "self", "skorokhod.check_comparison"),
    "skorokhod.check_tv_bound_s": ("s", "self", "skorokhod.check_tv_bound"),
    "mrbsde.picard_self_s": ("s", "self", "mrbsde.picard_solve"),
    "mrbsde.iterations": ("count", "fact", "iterations"),
    "mrbsde.attempted_iterations": ("count", "derived", None),
    "mrbsde.useful_iteration_ratio": ("ratio", "derived", None),
    "mrbsde.segments": ("count", "fact", "segments"),
    "mrbsde.us_per_pni": ("us", "derived", None),
    "penalty.solve_penalized_s": ("s", "self", "penalty.solve_penalized"),
    "penalty.levels": ("count", "calls", "penalty.solve_penalized"),
    "penalty.parallel_efficiency": ("ratio", "derived", None),
    "diagnostics.audit_solution_s": ("s", "self", "diagnostics.audit_solution"),
    "diagnostics.mean_loss_paths_s": ("s", "self", "diagnostics.mean_loss_paths"),
    "diagnostics.mean_loss_paths_calls": ("count", "calls", "diagnostics.mean_loss_paths"),
    "diagnostics.solution_stat_tol_s": ("s", "self", "diagnostics.solution_stat_tol"),
    "verify.suite_s.reversal": ("s", "total", "verify.run_reversal_suite"),
    "verify.suite_s.continuity": ("s", "total", "verify.run_continuity_suite"),
    "verify.suite_s.backward-continuity": ("s", "total", "verify.run_backward_continuity_suite"),
    "verify.suite_s.comparison": ("s", "total", "verify.run_comparison_suite"),
    "verify.suite_s.variation": ("s", "total", "verify.run_variation_suite"),
    "cli.self_s": ("s", "self", "cli.main"),
    "cli.artifact_bytes": ("count", "fact", "artifact_bytes"),
    "tracing.overhead_ratio": ("ratio", "derived", None),
    "fail_ratio": ("ratio", "derived", None),
}


# ---------------------------------------------------------------------------
# machine
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_info() -> dict:
    """nproc, CPU model, cache sizes per instance, and library versions."""
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        kind = _read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(f"{index}/size")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", "unknown"),
        "scipy": getattr(sys.modules.get("scipy"), "__version__", "unknown"),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_sample(name: str, seed: int, workdir: Path) -> dict:
    """Seconds from starting a fresh interpreter until its first op could
    start, and the reference kernel's seconds right after, in that interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir), str(PROBE_KERNEL_S)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    ready, kernel = (float(line) for line in done.stdout.strip().splitlines()[-2:])
    return {"wall_s": ready - start, "kernel_s": kernel}


def run_ops(wl, mr, state, seconds: float, tracer: Tracer | None = None, kernel: str | None = None,
            min_ops: int = 1) -> list[dict]:
    """Repeat the op until ``seconds`` have passed and ``min_ops`` have run.

    With a ``kernel``, every op after the first is timed against slices of
    that reference kernel (``hostspeed.Sampler``).  They run during a
    single-threaded op, and the op's ``wall_s`` leaves them out; around an op
    on several threads, whose threads they would compete with, they run for
    ``BLOCK_S`` before and after it.  The op's ``kernel_s`` is their mean.
    """
    records = []
    sampler = block_before = None
    during = wl.threads == 1
    deadline = time.perf_counter() + seconds
    while len(records) < min_ops or time.perf_counter() < deadline:
        op_id = len(records)
        before = tracer.count_values() if tracer else {}
        root = tracer.begin_op(op_id) if tracer else None
        host = {}
        t0 = time.perf_counter()
        try:
            with sampler if sampler and during else contextlib.nullcontext():
                out = wl.op(mr, state)
        except Exception:  # a raising op is a failed op, not a failed run
            out, problems = None, [traceback.format_exc()]
        else:
            problems = None
        wall = time.perf_counter() - t0
        if sampler and during:
            wall -= sampler.seconds
            host = {"kernel_s": sampler.kernel_s(), "slices": sampler.slices}
        elif sampler:
            block_after = sampler.block(BLOCK_S)
            host = {"kernel_s": 0.5 * (block_before + block_after)}
            block_before = block_after
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.end_op(root)
        facts = {}
        if problems is None:
            try:
                problems = wl.check(mr, state, out)
                facts = wl.facts(state, out)
            except Exception:
                problems = [traceback.format_exc()]
        del out
        after = tracer.count_values() if tracer else {}
        counts = {k: v - before.get(k, 0) for k, v in after.items()}
        for p in problems:
            print(f"op {op_id} failed: {p}", file=sys.stderr)
        records.append(
            {"wall_s": wall, **host, "peak_rss_mb": rss_mb, "problems": problems, "facts": facts,
             "counts": counts}
        )
        if kernel and not sampler:
            # Only now: peak RSS follows the allocator's history, and the
            # kernel's import and arrays would move the first op's.
            import hostspeed

            sampler = hostspeed.Sampler(kernel)
            if not during:
                block_before = sampler.block(BLOCK_S)
    return records


def layer_metrics(tracer: Tracer, op_id: int, rec: dict) -> dict[str, float]:
    prof = tracer.op_profile(op_id)
    facts = rec["facts"]
    out = {}
    for name, (_, kind, key) in PER_LAYER.items():
        if kind in ("self", "total"):
            out[name] = prof.get(key, {}).get(f"{kind}_s", 0.0)
        elif kind == "calls":
            out[name] = prof.get(key, {}).get("calls", 0)
        elif kind == "counter":
            out[name] = rec["counts"].get(key, 0)
        elif kind == "fact":
            out[name] = facts.get(key, 0)
    attempted = sum(
        1
        for s in tracer.spans
        if s.op == op_id
        and s.name == "skorokhod.solve_bsp"
        and tracer.has_ancestor(s, "mrbsde.picard_solve")
    )
    out["mrbsde.attempted_iterations"] = attempted
    out["mrbsde.useful_iteration_ratio"] = facts.get("iterations", 0) / attempted if attempted else 0.0
    work = facts.get("particles", 0) * facts.get("nodes", 0) * facts.get("iterations", 0)
    picard_s = prof.get("mrbsde.picard_solve", {}).get("total_s", 0.0)
    out["mrbsde.us_per_pni"] = 1e6 * picard_s / work if work else 0.0
    sweep_s = prof.get("penalty.penalty_sweep", {}).get("total_s", 0.0)
    busy_s = prof.get("penalty.solve_penalized", {}).get("total_s", 0.0)
    threads = facts.get("threads", 1)
    out["penalty.parallel_efficiency"] = busy_s / (sweep_s * threads) if sweep_s else 0.0
    return {name: out[name] for name in PER_LAYER if name in out}


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def measure(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, dict]:
    """Run one workload; returns (metrics, details for the result file)."""
    if not trace:
        setups = [setup_sample(wl.name, seed, workdir / f"probe{i}") for i in range(SETUP_SAMPLES)]
        mr = import_package()
        state = wl.prepare(mr, seed, workdir / "run")
        # The first op warms up: it gives peak_rss_mb and is not in solve_s.
        records = run_ops(wl, mr, state, seconds, kernel=wl.kernel, min_ops=2)
        import hostspeed

        solve_s = statistics.median(
            hostspeed.rescale(r["wall_s"], r["kernel_s"], wl.kernel) for r in records[1:]
        )
        # A 0.4 s kernel run is too short to average over the host's spells;
        # their mean over the probes is steadier than per-probe ratios.
        setup_kernel_s = statistics.mean(s["kernel_s"] for s in setups)
        metrics = {
            "solve_s": solve_s,
            "setup_s": hostspeed.rescale(_median(setups, "wall_s"), setup_kernel_s, "python"),
            # As after one CLI command: repeating the op in one process adds
            # allocator growth that depends on how many ops fit in the run.
            "peak_rss_mb": records[0]["peak_rss_mb"],
        }
        details = {"nominal_kernel_s": hostspeed.NOMINAL_S, "op_kernel": wl.kernel, "setup_samples": setups,
                   "ops": records}
        return metrics, details

    mr = import_package()
    state = wl.prepare(mr, seed, workdir / "run")
    plain = run_ops(wl, mr, state, seconds / 2)
    tracer = Tracer()
    tracer.install()
    state = wl.prepare(mr, seed, workdir / "run", wrap_losses=tracer.count_losses)
    traced = run_ops(wl, mr, state, seconds / 2, tracer)
    per_op = [layer_metrics(tracer, i, rec) for i, rec in enumerate(traced)]
    metrics = {}
    for name in per_op[0]:
        value = statistics.median(m[name] for m in per_op)
        metrics[name] = int(value) if PER_LAYER[name][0] == "count" and value == int(value) else value
    metrics["tracing.overhead_ratio"] = _median(traced, "wall_s") / _median(plain, "wall_s")
    records = plain + traced
    metrics["fail_ratio"] = sum(1 for r in records if r["problems"]) / len(records)
    (workdir / "spans.json").write_text(json.dumps(tracer.dump()))
    return metrics, {"untraced_ops": plain, "ops": traced, "per_op": per_op}


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[name]
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    metrics, details = measure(wl, seed, seconds, trace, workdir)
    records = details["ops"] + details.get("untraced_ops", [])
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    units = {k: PER_LAYER[k][0] for k in PER_LAYER} if trace else END_TO_END
    machine = machine_info()
    (workdir / "result.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                    "machine": machine, "metrics": metrics, **details}, indent=1)
    )
    print(f"perfbench {name} seed={seed} trace={int(trace)}: {attempted} ops, {failed} failed")
    print("  machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for key, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {key:36s} {shown} {units[key]}")
    if not trace:
        print(f"  {'fail_ratio':36s} {failed / attempted:.6g} ratio")
        print(f"  {'raw solve_s':36s} {_median(details['ops'][1:], 'wall_s'):.6g} s")
        print(f"  {'raw setup_s':36s} {_median(details['setup_samples'], 'wall_s'):.6g} s")
        print(f"  {'kernel slice after set-up':36s} {_median(details['setup_samples'], 'kernel_s'):.6g} s")
        print(f"  {'kernel slice at ops':36s} {_median(details['ops'][1:], 'kernel_s'):.6g} s")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"perfbench {name}: exit code {done.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, FileNotFoundError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
