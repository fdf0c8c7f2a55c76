"""The four benchmark workloads and the checks their outputs must pass.

Each workload has three steps: ``prepare`` builds what the first op needs
(the scenario or the config file; this is what ``setup_s`` times),
``op`` is the timed unit of work (one solve, one CLI command or one
``verify all``), and ``check`` returns a list of problems with the op's
outputs (empty when they are correct).  ``facts`` pulls the counts that
the traced run needs out of an op's outputs.  ``kernel`` names the reference
kernel of ``hostspeed.py`` shaped like the op's hot path, by which its
``solve_s`` is rescaled to host speed, and ``threads`` how many threads the
op runs on.  Every input comes from the seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"

# Above this gap the particle representation y = inner + (K_T - K_t) broke.
REPRESENTATION_GAP_MAX = 1e-10
PENALTY_SLOPE_MAX = -0.3
REFERENCE_SD_MULT = 4.0
VERIFY_SUITES = ("reversal", "continuity", "backward-continuity", "comparison", "variation")


def import_package():
    """Import ``meanreflect`` from this checkout's ``src/`` and nowhere else."""
    init = SRC / "meanreflect" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no meanreflect package at {init}")
    sys.path.insert(0, str(SRC))
    import meanreflect

    if Path(meanreflect.__file__).resolve() != init.resolve():
        raise ImportError(f"meanreflect imported from {meanreflect.__file__}, not {init}")
    return meanreflect


def _identity(pair):
    return pair


def _all_finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _reference_problems(name: str, mean_path, stat_tol: float) -> list[str]:
    """Nodes where the mean path leaves the recorded reference band.

    The reference is the mean path averaged over several seeds; a node may
    differ from it by the solution's statistical tolerance plus
    ``REFERENCE_SD_MULT`` seed-to-seed standard deviations at that node.
    """
    ref = json.loads((REFERENCE / f"{name}.json").read_text())
    if len(ref["mean_path"]) != len(mean_path):
        return [f"mean path has {len(mean_path)} nodes, reference {len(ref['mean_path'])}"]
    problems = []
    for k, (y, r, sd) in enumerate(zip(mean_path, ref["mean_path"], ref["seed_sd"])):
        tol = stat_tol + REFERENCE_SD_MULT * sd
        if not abs(float(y) - r) <= tol:
            problems.append(f"mean path at node {k} is {y:.6g}, reference {r:.6g} +- {tol:.3g}")
    return problems[:3]


def _artifact_bytes(out_dir: Path) -> int:
    """Bytes of the artifacts, less the diagnostics timing line (it differs each run)."""
    total = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        total += len(data)
        if path.name == "diagnostics.json":
            total -= sum(len(line) for line in data.splitlines(True) if b'"timing_seconds"' in line)
    return total


class PicardQuad:
    """``picard_solve`` on the README quadratic-z scenario at 200k particles."""

    name = "picard-quad-200k"
    kernel = "numpy"
    threads = 1
    why = "200k x 40 quadratic-z Picard solve; regression on 66 MB arrays dominates, root finding is idle"
    particles = 200_000
    steps = 40

    def prepare(self, mr, seed: int, workdir: Path, wrap_losses=_identity):
        return mr.Scenario(
            horizon=1.0,
            steps=self.steps,
            particles=self.particles,
            rng=mr.RngSpec(seed),
            terminal=lambda b: 2.8 + 1.5 * np.sin(b),
            generator=mr.quadratic_z_generator(1.0),
            losses=wrap_losses(mr.linear_band(1.0, 3.0)),
            envelope=mr.LinearEnvelope.constants(1.0, 3.0, 1.0),
        )

    def op(self, mr, sc):
        sol = mr.picard_solve(sc)
        return sol, mr.audit_solution(sol, sc.losses), mr.kt_variation_guard(sol.trace, sc.envelope)

    def check(self, mr, sc, out) -> list[str]:
        sol, audit, guard = out
        problems = []
        for label, arr in (("y", sol.y.values), ("z", sol.z.values), ("K", sol.K.values)):
            if not np.all(np.isfinite(arr)):
                problems.append(f"non-finite {label}")
        if not sol.trace.converged:
            problems.append("Picard iteration did not converge")
        if not audit.passed:
            problems.append(f"audit failed: {audit}")
        gap = mr.representation_gap(sol)
        if not gap <= REPRESENTATION_GAP_MAX:
            problems.append(f"representation gap {gap:.3e}")
        if not guard.passed:
            problems.append("force-variation guard failed")
        tol = mr.solution_stat_tol(sol.y, sc.losses)
        return problems + _reference_problems(self.name, sol.mean_path.tolist(), tol)

    def facts(self, sc, out) -> dict:
        trace = out[0].trace
        return {
            "iterations": trace.iterations,
            "segments": trace.segment_count,
            "particles": self.particles,
            "nodes": self.steps + 1,
        }

    def mean_path(self, sc, out):
        return out[0].mean_path.tolist()


class _CliWorkload:
    """A ``meanreflect`` CLI command on a config file written at set-up."""

    command = ""
    kernel = "numpy"
    threads = 1
    config: dict = {}
    extra_args: tuple[str, ...] = ()

    def prepare(self, mr, seed: int, workdir: Path, wrap_losses=_identity):
        import meanreflect.cli  # noqa: F401  (users of the CLI pay this import)

        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "config.json"
        path.write_text(json.dumps(dict(self.config, seed=seed), indent=2))
        return {"config": path, "out": workdir / "out"}

    def op(self, mr, state):
        argv = [self.command, str(state["config"]), "--out", str(state["out"]), *self.extra_args]
        return mr.cli.main(argv)

    def _diagnostics(self, state) -> dict:
        return json.loads((state["out"] / "diagnostics.json").read_text())

    def facts(self, state, code) -> dict:
        return {"artifact_bytes": _artifact_bytes(state["out"])}


class PicardSaturatingCli(_CliWorkload):
    """``meanreflect run`` on a Picard config with a binding saturating band."""

    name = "picard-saturating-cli"
    why = "CLI Picard run with non-affine losses: per-node band-edge root finding over 20k particles"
    command = "run"
    particles = 20_000
    steps = 40
    config = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": steps,
        "particles": particles,
        "terminal": {"kind": "bounded-sin", "scale": 1.5, "shift": 0.5},
        "generator": {"kind": "affine-mix", "a_y": 0.5, "a_mean_z": 0.25, "const": 3.0},
        "losses": {"kind": "saturating-band", "lower": -1.0, "upper": 2.0},
    }

    def check(self, mr, state, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        header, rows = _read_csv(state["out"] / "result.csv")
        diag = self._diagnostics(state)
        problems = []
        if not all(_all_finite(row) for row in rows):
            problems.append("non-finite result.csv")
        trace = diag["trace"]
        if not trace["converged"]:
            problems.append("Picard iteration did not converge")
        if not diag["audit"]["passed"]:
            problems.append(f"audit failed: {diag['audit']}")
        if not diag["representation_gap"] <= REPRESENTATION_GAP_MAX:
            problems.append(f"representation gap {diag['representation_gap']:.3e}")
        col = header.index("mean_Y")
        return problems + _reference_problems(self.name, [row[col] for row in rows], diag["stat_tol"])

    def facts(self, state, code) -> dict:
        trace = self._diagnostics(state)["trace"]
        return dict(
            super().facts(state, code),
            iterations=trace["iterations"],
            segments=trace["segment_count"],
            particles=self.particles,
            nodes=self.steps + 1,
        )

    def mean_path(self, state, code):
        header, rows = _read_csv(state["out"] / "result.csv")
        col = header.index("mean_Y")
        return [row[col] for row in rows]


class PenaltySweep(_CliWorkload):
    """``meanreflect sweep-penalty --threads 2`` on the criterion-8 scenario."""

    name = "penalty-sweep"
    why = "CLI penalization sweep, 8 levels on 2 threads sharing one 100k x 20 Brownian ensemble"
    command = "sweep-penalty"
    threads = 2
    extra_args = ("--threads", str(threads))
    config = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": 20,
        "particles": 100_000,
        "terminal": {"kind": "brownian"},
        "generator": {"kind": "constant", "value": 10.0},
        "losses": {"kind": "linear-band", "lower": -30.0, "upper": 30.0},
        "obstacles": {"kind": "linear-rates", "lower_rate": -2.0, "upper_rate": 2.0},
        "penalty": {"levels": [4, 8, 16, 32, 64, 128, 256, 512]},
    }

    def check(self, mr, state, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        header, rows = _read_csv(state["out"] / "sweep.csv")
        diag = self._diagnostics(state)
        problems = []
        if not all(_all_finite(row) for row in rows):
            problems.append("non-finite sweep.csv")
        if len(rows) != len(self.config["penalty"]["levels"]):
            problems.append(f"{len(rows)} sweep rows")
        errs = [row[header.index("sup_error")] for row in rows]
        if not all(b < a for a, b in zip(errs, errs[1:])):
            problems.append(f"sup errors do not strictly decrease: {errs}")
        if not diag["slope"] <= PENALTY_SLOPE_MAX:
            problems.append(f"rate slope {diag['slope']} > {PENALTY_SLOPE_MAX}")
        return problems

    def facts(self, state, code) -> dict:
        return dict(super().facts(state, code), threads=self.threads)


class VerifyAll:
    """``run_suite("all", 100, seed)``: the five randomized verify suites."""

    name = "verify-all"
    kernel = "python"
    threads = 1
    why = "five randomized verify suites: about 1.35M scalar boundary evaluations, no particles or regression"
    instances = 100

    def prepare(self, mr, seed: int, workdir: Path, wrap_losses=_identity):
        return seed

    def op(self, mr, seed):
        return mr.run_suite("all", self.instances, seed)

    def check(self, mr, seed, results) -> list[str]:
        names = tuple(r.name for r in results)
        problems = [] if names == VERIFY_SUITES else [f"suites run: {names}"]
        for r in results:
            if not r.passed or r.instances != self.instances or not math.isfinite(r.worst_slack):
                problems.append(f"suite {r.name}: {r.failures} failures, {r.details[:2]}")
        return problems

    def facts(self, seed, results) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (PicardQuad(), PicardSaturatingCli(), PenaltySweep(), VerifyAll())}
