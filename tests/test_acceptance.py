"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated scale and tolerance and
prints a single PASS/FAIL line to the real terminal, so a full run yields one
line per criterion regardless of capture settings.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

import meanreflect as mr
from meanreflect import cli
from meanreflect.verify import (
    run_backward_continuity_suite,
    run_comparison_suite,
    run_continuity_suite,
    run_reversal_suite,
    run_variation_suite,
)
from oracles import cole_hopf_value, double_barrier_batch, radau_penalized_mean


def _report(capsys, num: int, desc: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num:2d} [{status}] {desc}: {detail}")


def _random_walks(rng, grid, count):
    dt = grid.step_sizes
    drift = rng.uniform(-2.0, 2.0, size=(count, 1))
    inc = rng.normal(0.0, np.sqrt(dt), size=(count, dt.size)) + drift * dt
    starts = rng.normal(0.0, 1.0, size=(count, 1))
    return np.concatenate([starts, starts + np.cumsum(inc, axis=1)], axis=1)


def test_criterion_01_reflection_map_matches_double_barrier_formula(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2401)
    grid = mr.build_grid(1.0, 2048)
    worst = 0.0
    for _ in range(4):  # 4 band groups x 50 walks = 200 instances
        lo = float(rng.uniform(-3.0, -0.5))
        hi = float(rng.uniform(0.5, 3.0))
        walks = _random_walks(rng, grid, 50)
        ref_x, ref_k = double_barrier_batch(walks, lo, hi)
        bp = mr.BoundaryPair(grid, mr.linear_band(lo, hi))
        for i in range(walks.shape[0]):
            sol = mr.solve_sp(mr.SamplePath(grid, walks[i]), bp)
            gap = max(
                float(np.max(np.abs(sol.x.values - ref_x[i]))),
                float(np.max(np.abs(sol.K.values - ref_k[i]))),
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    _report(
        capsys,
        1,
        "reflection map vs double-barrier formula (200 walks, M=2048)",
        ok,
        f"max gap {worst:.2e} (tol 1e-10), {elapsed:.2f}s (limit 10s)",
    )
    assert ok


def test_criterion_02_flat_residuals_within_scaled_tolerance(capsys):
    rng = np.random.default_rng(2402)
    worst_ratio = 0.0
    for i in range(100):
        grid = mr.build_grid(1.0, int(rng.integers(32, 97)))
        lo = float(rng.uniform(-3.0, -0.5))
        hi = float(rng.uniform(0.5, 3.0))
        lp = mr.saturating_band(lo, hi) if i % 2 else mr.linear_band(lo, hi)
        bp = mr.BoundaryPair(grid, lp)
        s = mr.SamplePath(grid, _random_walks(rng, grid, 1)[0])
        tol = 1e-10 * (1.0 + float(np.max(np.abs(s.values))))
        if i % 2:
            rho, lam = bp.band_edges()
            a = float(rng.uniform(rho[-1] + 0.1, lam[-1] - 0.1))
            sol = mr.solve_bsp(s, a, bp)
        else:
            sol = mr.solve_sp(s, bp)
        resid = max(sol.flat_residual_up, sol.flat_residual_down)
        worst_ratio = max(worst_ratio, resid / tol)
    ok = worst_ratio <= 1.0
    _report(
        capsys,
        2,
        "flat residuals <= 1e-10 (1 + sup|s|) on 100 random solves",
        ok,
        f"worst residual/tolerance ratio {worst_ratio:.3f}",
    )
    assert ok


def test_criterion_03_reversal_round_trips(capsys):
    res = run_reversal_suite(instances=100)
    ok = res.passed and res.worst_slack >= 0.0
    _report(
        capsys,
        3,
        "terminal-anchored/forward round-trip identities (100 instances)",
        ok,
        f"failures {res.failures}, worst residual {1e-12 - res.worst_slack:.2e} (tol 1e-12)",
    )
    assert ok


def test_criterion_04_inequality_suites(capsys):
    suites = [
        run_continuity_suite(instances=100),
        run_backward_continuity_suite(instances=100),
        run_comparison_suite(instances=100),
        run_variation_suite(instances=100),
    ]
    ok = all(r.passed and r.worst_slack >= -1e-9 for r in suites)
    detail = ", ".join(f"{r.name} slack {r.worst_slack:+.2e}" for r in suites)
    _report(capsys, 4, "four estimate suites, slack >= -1e-9 (100 each)", ok, detail)
    assert ok


def test_criterion_05_closed_form_bsdes(capsys):
    grid = mr.build_grid(1.0, 50)
    bm = mr.simulate_brownian(grid, 100_000, mr.RngSpec(2))
    xi = bm.values[:, -1].copy()
    band = 4.0 * mr.empirical_std(xi) / math.sqrt(xi.size)
    cfg = mr.RegressionConfig()

    sol = mr.solve_bsde(xi, mr.constant_generator(0.0), bm, cfg)
    err0 = max(
        abs(float(mr.pairwise_mean(sol.y.values[:, k] - bm.values[:, k])))
        for k in range(grid.n_nodes)
    )
    zdev = abs(float(mr.pairwise_mean(sol.z.values.ravel())) - 1.0)

    a = 0.5
    sol_lin = mr.solve_bsde(xi, mr.linear_generator(a), bm, cfg)
    err_lin = max(
        abs(
            float(
                mr.pairwise_mean(
                    sol_lin.y.values[:, k]
                    - math.exp(a * (1.0 - grid.nodes[k])) * bm.values[:, k]
                )
            )
        )
        for k in range(grid.n_nodes)
    )

    bm2 = mr.simulate_brownian(grid, 200_000, mr.RngSpec(2))
    xi2 = np.sin(bm2.values[:, -1])
    sol_q = mr.solve_bsde(
        xi2, mr.quadratic_z_generator(1.0), bm2, mr.RegressionConfig(degree=7)
    )
    y0 = float(mr.pairwise_mean(sol_q.y.values[:, 0]))
    ref = cole_hopf_value(1.0, xi2)
    rel = abs(y0 - ref) / abs(ref)

    ok = err0 <= band and zdev <= 0.05 and err_lin <= band and rel <= 0.01
    _report(
        capsys,
        5,
        "martingale / exponential-growth / quadratic closed forms",
        ok,
        f"errs {err0:.2e}/{err_lin:.2e} (band {band:.2e}), |zhat-1| {zdev:.4f} "
        f"(tol 0.05), quad rel {rel:.3%} (tol 1%)",
    )
    assert ok


def test_criterion_06_constant_driver_clamp(capsys):
    sc = mr.Scenario(
        horizon=1.0,
        steps=50,
        particles=100_000,
        rng=mr.RngSpec(2),
        terminal=lambda b: b,
        generator=mr.constant_generator(4.0),
        losses=mr.linear_band(-1.0, 2.0),
    )
    sol = mr.solve_constant_driver(sc)
    t = sc.make_grid().nodes
    xi = sc.terminal_values(sc.simulate())
    tol = max(
        1.0 / sc.steps,
        4.0 * mr.empirical_std(xi) / math.sqrt(sc.particles),
    )
    err = float(np.max(np.abs(sol.mean_path - np.minimum(4.0 * (1.0 - t), 2.0))))
    k_t = float(sol.K.values[-1])
    ok = err <= tol and abs(k_t + 2.0) <= 0.02
    _report(
        capsys,
        6,
        "clamped mean path min(4(1-t), 2) and terminal force -2",
        ok,
        f"sup error {err:.2e} (tol {tol:.2e}), K_T {k_t:+.4f} (target -2 +/- 0.02)",
    )
    assert ok


def test_criterion_07_picard_contraction_and_uniqueness(capsys):
    sc = mr.Scenario(
        horizon=0.1,
        steps=10,
        particles=10_000,
        rng=mr.RngSpec(21),
        terminal=lambda b: b,
        generator=mr.affine_mix_generator(a_y=1.0),
        losses=mr.linear_band(-1.0, 1.0),
    )
    assert sc.tol.picard_tol == 1e-6
    sol_a = mr.picard_solve(sc, init="zero")
    sol_b = mr.picard_solve(sc, init="unreflected")
    tr = sol_a.trace
    gap = max(
        float(np.max(np.abs(sol_a.y.values - sol_b.y.values))),
        float(np.max(np.abs(sol_a.K.values - sol_b.K.values))),
    )
    ok = (
        tr.converged
        and tr.iterations <= 20
        and all(r < 1.0 for r in tr.ratios)
        and gap <= 2.0 * sc.tol.picard_tol
    )
    _report(
        capsys,
        7,
        "short-horizon fixed point: ratios < 1, tol 1e-6 in <= 20 iters, two inits agree",
        ok,
        f"{tr.iterations} iterations, max ratio {max(tr.ratios):.3f}, "
        f"init gap {gap:.2e} (tol 2e-6)",
    )
    assert ok


def test_criterion_08_penalization_oracle_and_rate(capsys):
    sc = mr.Scenario(
        horizon=1.0,
        steps=20,
        particles=100_000,
        rng=mr.RngSpec(101),
        terminal=lambda b: b,
        generator=mr.constant_generator(10.0),
        losses=mr.linear_band(-30.0, 30.0),
        obstacles=mr.LinearObstacles.constants(-2.0, 2.0),
    )
    grid = sc.make_grid()
    m_terminal = float(mr.pairwise_mean(sc.terminal_values(sc.simulate())))
    ns = [4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
    worst = 0.0
    for n in ns:
        sol = mr.solve_penalized(sc, n)
        means = np.array(
            [mr.pairwise_mean(sol.y.values[:, k]) for k in range(grid.n_nodes)]
        )
        ref = radau_penalized_mean(
            m_terminal, 10.0, n, 1.0, grid.nodes, lambda t: -2.0 * t, lambda t: 2.0 * t
        )
        worst = max(worst, float(np.max(np.abs(means - ref))))

    sweep = mr.penalty_sweep(sc, ns)
    monotone = all(b < a for a, b in zip(sweep.sup_errors, sweep.sup_errors[1:]))
    col = sweep.upper_bound_column
    bounded = max(col) <= 2.0 * col[0] and all(math.isfinite(v) for v in col)
    ok = worst <= 1e-3 and monotone and sweep.slope <= -0.3 and bounded
    _report(
        capsys,
        8,
        "penalized means vs stiff-ODE oracle; sweep rate and boundedness",
        ok,
        f"oracle gap {worst:.2e} (tol 1e-3), slope {sweep.slope:.3f} (<= -0.3), "
        f"squared-overshoot column max/first {max(col) / col[0]:.2f}",
    )
    assert ok


def test_criterion_09_quadratic_force_variation_guard(capsys):
    env = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    binding = mr.Scenario(
        horizon=1.0,
        steps=50,
        particles=20_000,
        rng=mr.RngSpec(23),
        terminal=lambda b: 2.8 + 1.5 * np.sin(b),
        generator=mr.quadratic_z_generator(1.0),
        losses=mr.linear_band(1.0, 3.0),
        envelope=env,
    )
    slack = mr.LinearEnvelope.constants(1.0, 3.0, 1.0)
    coasting = mr.Scenario(
        horizon=1.0,
        steps=50,
        particles=20_000,
        rng=mr.RngSpec(29),
        terminal=lambda b: 2.0 + 1.5 * np.sin(b),
        generator=mr.quadratic_z_generator(1.0),
        losses=mr.saturating_band(-1.0, 4.0),
        envelope=slack,
    )
    details = []
    ok = True
    for label, sc in (("binding", binding), ("inactive", coasting)):
        sol = mr.picard_solve(sc)
        rep = mr.kt_variation_guard(sol.trace, sc.envelope)
        ok = ok and rep.passed
        details.append(
            f"{label}: {sol.trace.iterations} iters, final TV {rep.variations[-1]:.4f}, "
            f"worst slack {min(rep.slacks):+.2e}"
        )
    _report(
        capsys,
        9,
        "every quadratic iterate's force variation within the envelope bound",
        ok,
        "; ".join(details),
    )
    assert ok


def test_criterion_10_thread_count_determinism(tmp_path, capsys):
    # the sweep is scalar work whatever --threads says, and a run is
    # one solve, so the gates are that thread counts and reruns repeat the bytes
    cfg = {
        "schema_version": 1,
        "horizon": 1.0,
        "steps": 20,
        "particles": 20_000,
        "seed": 7,
        "terminal": {"kind": "brownian"},
        "generator": {"kind": "constant", "value": 10.0},
        "losses": {"kind": "linear-band", "lower": -1.0, "upper": 2.0},
        "obstacles": {"kind": "linear-rates", "lower_rate": -2.0, "upper_rate": 2.0},
        "penalty": {"levels": [4, 16, 64, 256]},
    }
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(json.dumps(cfg))
    run_path = tmp_path / "run.json"
    run_cfg = {k: v for k, v in cfg.items() if k not in ("obstacles", "penalty")}
    run_path.write_text(json.dumps(dict(run_cfg, method="constant-driver")))
    sweeps, runs = [], []
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        argv = ["sweep-penalty", str(sweep_path), "--out", str(out), "--threads", str(threads)]
        assert cli.main(argv) == 0
        sweeps.append((out / "sweep.csv").read_bytes())
    for rerun in (1, 2):
        out = tmp_path / f"run{rerun}"
        assert cli.main(["run", str(run_path), "--out", str(out)]) == 0
        runs.append((out / "result.csv").read_bytes())
    ok = sweeps[0] == sweeps[1] == sweeps[2] and runs[0] == runs[1]
    _report(
        capsys,
        10,
        "sweep-penalty emits byte-identical CSV across 1/4/8 threads, run across reruns",
        ok,
        f"{len(sweeps[0])} + {len(runs[0])} bytes each" if ok else "outputs diverged",
    )
    assert ok
