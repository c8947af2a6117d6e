"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy end-to-end runs are shared through session fixtures. Stated runtime
budgets are asserted on the measured wall time of the criterion's own
work.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.cli import build_problem, build_run_config, main
from conicswarm.config import load_config
from conicswarm.domain import Box
from conicswarm.experiments import GmmSpec, gen_gmm, gen_teacher_regression, heldout_mse
from conicswarm.kernels import SyntheticKernel
from conicswarm.objective import Problem, kkt_residual, loss
from conicswarm.oracle import OracleConfig
from conicswarm.runner import RunConfig, run
from conicswarm.schedules import FixedPlan, horizon_plan
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import suite_descent, suite_frechet, suite_hoeffding, suite_oracle, \
    suite_projection, suite_volume

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(number, detail, elapsed, budget):
    print(f"[acceptance] criterion {number:02d} PASS ({elapsed:.1f}s / budget {budget:.0f}s): "
          f"{detail}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def run_timed(suite_fn, **kw):
    t0 = time.perf_counter()
    results = suite_fn(**kw)
    return results, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# shared heavy fixtures


@pytest.fixture(scope="session")
def gmm_runs():
    """Clustered-init mixture recovery, with and without the exploration
    process, on the desk-scale problem."""
    spec = GmmSpec.ring(n_components=5, radius=5.0, n_samples=2000, tau=0.2, seed=11)
    rng = np.random.Generator(np.random.Philox(11))
    _, problem = gen_gmm(spec, rng, kappa=1e-4)
    irng = np.random.Generator(np.random.Philox(1001))
    pos = problem.domain.project(spec.means[0][None, :] + 0.05 * irng.standard_normal((20, 2)))
    init = ParticleSwarm(np.full(20, 0.05), np.ones(20), pos)
    out = {}
    t0 = time.perf_counter()
    for bd in (False, True):
        cfg = RunConfig(init_swarm=init, k_iters=5000, alpha=10.0,
                        plan=FixedPlan(2e-3, 256, 40.0), full_batch=True, birth_death=bd,
                        death_rule=DeathRule(kind="ratio", tau_death=5.0),
                        birth_rule=BirthRule(threshold_coeff=-0.15, candidates_per_iter=4),
                        seed=1, trace_cadence=100)
        out[bd] = run(cfg, problem)
    out["elapsed"] = time.perf_counter() - t0
    out["p0"] = 20
    return out


@pytest.fixture(scope="session")
def teacher_runs():
    """Stochastic two-layer regression against a planted teacher, with and
    without pruning."""
    rng = np.random.Generator(np.random.Philox(3))
    dataset, problem, teacher = gen_teacher_regression(2000, 8, 5, 0.05, rng, kappa=5e-3)
    irng = np.random.Generator(np.random.Philox(2001))
    pos = irng.standard_normal((100, 9))
    pos /= np.linalg.norm(pos, axis=1, keepdims=True)
    signs = irng.choice([-1.0, 1.0], size=100)
    init = ParticleSwarm(np.full(100, 0.01), signs, pos)
    out = {"dataset": dataset, "teacher": teacher, "problem": problem, "p0": 100}
    t0 = time.perf_counter()
    for bd in (False, True):
        cfg = RunConfig(init_swarm=init, k_iters=20000, alpha=1.0,
                        plan=FixedPlan(0.002, 256, 0.5), full_batch=False, birth_death=bd,
                        death_rule=DeathRule(kind="ratio", tau_death=1.5),
                        birth_rule=BirthRule(threshold_coeff=-0.6, candidates_per_iter=4),
                        seed=1, trace_cadence=500)
        out[bd] = run(cfg, problem)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def tv_bound_run():
    """Guarded-profile stochastic run built through the CLI config path."""
    spec = load_config(CONFIGS / "synthetic_theory.cfg")
    problem, extras = build_problem(spec)
    t0 = time.perf_counter()
    config, cal = build_run_config(spec, problem, extras)
    result = run(config, problem)
    return {"result": result, "cal": cal, "elapsed": time.perf_counter() - t0,
            "config": config}


@pytest.fixture(scope="session")
def horizon_sweep():
    """Budget-aware runs on a planted 1-d instance with an exact reference."""
    domain = Box([0.0], [1.0])
    sigma = 0.12
    support = np.array([[0.25], [0.75]])
    w_star = np.array([0.4, 0.3])
    kappa = 5e-3
    scratch = SyntheticKernel(domain, sigma, np.zeros(1), np.zeros((1, 1)))
    kmat = scratch.kernel_matrix(support, support)
    c = np.linalg.solve(kmat, np.ones(2))
    model = SyntheticKernel(domain, sigma, w_star + kappa * c, support, n_samples=64,
                            noise_scale=0.05, seed=5, center_noise=True)
    problem = Problem(model=model, domain=domain, kappa=kappa, signed=False)
    nu_star = ParticleSwarm(w_star, np.ones(2), support)
    grid = np.linspace(0.0, 1.0, 4001).reshape(-1, 1)
    rep = kkt_residual(problem, nu_star, grid)
    assert rep.is_stationary(1e-9), "planted reference must be stationary"
    j_star = loss(problem, nu_star)

    noise_val, noise_grad = model.noise_sup()
    oc = OracleConfig.for_dim(1, max(noise_val, noise_grad))
    alpha, beta_cap = 0.1, 0.05
    irng = np.random.Generator(np.random.Philox(99))
    init = ParticleSwarm(np.full(6, 0.05), np.ones(6), domain.sample_uniform(irng, size=6))

    rhos = {}
    traces = {}
    t0 = time.perf_counter()
    for k_iter in (250, 500, 1000, 2000):
        plan = horizon_plan(k_iter, alpha, beta_cap, d=1)
        cfg = RunConfig(init_swarm=init, k_iters=k_iter, alpha=alpha, plan=plan,
                        full_batch=False, birth_death=True,
                        death_rule=DeathRule(kind="guarded", scan="all"),
                        birth_rule=BirthRule(threshold_coeff=oc.threshold_scale,
                                             candidates_per_iter=1),
                        seed=100 + k_iter, trace_cadence=1, j_ref=j_star)
        res = run(cfg, problem)
        rhos[k_iter] = res.rho_hat
        traces[k_iter] = res.trace
    return {"rhos": rhos, "traces": traces, "elapsed": time.perf_counter() - t0,
            "j_star": j_star}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_frechet_identity():
    results, dt = run_timed(suite_frechet, n_pairs=100, tol=1e-9)
    assert all(r.passed for r in results), [r.line() for r in results]
    report(1, "; ".join(r.detail for r in results), dt, 10.0)


def test_criterion_02_descent_property():
    results, dt = run_timed(suite_descent, n_swarms=100, tol=1e-10)
    assert all(r.passed for r in results), [r.line() for r in results]
    report(2, results[0].detail, dt, 30.0)


def test_criterion_03_projection_lemma():
    results, dt = run_timed(suite_projection, n_draws=10_000, tol=1e-12)
    assert all(r.passed for r in results), [r.line() for r in results]
    report(3, "; ".join(r.detail for r in results), dt, 5.0)


def test_criterion_04_oracle_unbiasedness_and_decay():
    results, dt = run_timed(suite_oracle, n_batches=100_000)
    assert all(r.passed for r in results), [r.line() for r in results]
    report(4, results[-1].detail, dt, 60.0)


def test_criterion_05_hoeffding_birth_bound():
    results, dt = run_timed(suite_hoeffding, n_batches=10_000, sizes=(64, 256, 1024))
    assert all(r.passed for r in results), [r.line() for r in results]
    report(5, "; ".join(r.detail for r in results), dt, 60.0)


def test_criterion_06_tv_boundedness(tv_bound_run):
    result = tv_bound_run["result"]
    cal = tv_bound_run["cal"]
    assert cal is not None and cal.stochastic
    assert result.trace[-1].k == 2000
    max_tv = max(rec.tv for rec in result.trace)
    assert max_tv <= cal.tv_bound
    report(6, f"max trace TV {max_tv:.4f} <= calibrated bound {cal.tv_bound:.4f} "
              f"over K=2000 (alpha {cal.alpha:.3e})",
           tv_bound_run["elapsed"], 120.0)


def test_criterion_07_sublevel_volume_bound():
    results, dt = run_timed(suite_volume, n_funcs=10, n_mc=40_000)
    assert all(r.passed for r in results), [r.line() for r in results]
    report(7, "; ".join(r.detail for r in results), dt, 60.0)


def test_criterion_08_escape_of_local_minima(gmm_runs):
    loss_bd = gmm_runs[True].final_loss
    loss_plain = gmm_runs[False].final_loss
    tv_bd = gmm_runs[True].final_swarm.tv_norm()
    assert loss_bd <= 0.6 * loss_plain
    assert abs(tv_bd - 1.0) <= 0.15
    report(8, f"loss with exploration {loss_bd:.6g} <= 0.6 * {loss_plain:.6g}; "
              f"recovered TV {tv_bd:.4f} within 0.15 of 1.0",
           gmm_runs["elapsed"], 300.0)


def test_criterion_09_pruning_harmlessness(teacher_runs):
    dataset = teacher_runs["dataset"]
    mse_bd = heldout_mse(teacher_runs[True].final_swarm, dataset)
    mse_plain = heldout_mse(teacher_runs[False].final_swarm, dataset)
    p_final = len(teacher_runs[True].final_swarm)
    assert mse_bd <= 1.05 * mse_plain
    assert p_final <= 0.5 * teacher_runs["p0"]
    report(9, f"test MSE {mse_bd:.6g} <= 1.05 * {mse_plain:.6g}; "
              f"p_final {p_final} <= {teacher_runs['p0'] // 2}",
           teacher_runs["elapsed"], 300.0)


def test_criterion_10_bookkeeping_identity(gmm_runs, teacher_runs, horizon_sweep):
    t0 = time.perf_counter()
    checked = 0
    for trace in [gmm_runs[True].trace, gmm_runs[False].trace,
                  teacher_runs[True].trace, teacher_runs[False].trace,
                  *horizon_sweep["traces"].values()]:
        for prev, cur in zip(trace, trace[1:]):
            assert cur.particles == prev.particles - cur.deaths + cur.births
            checked += 1
    # end-state accounting in the reported style: p0 - deaths + births
    res = gmm_runs[True]
    assert len(res.final_swarm) == gmm_runs["p0"] - res.total_deaths + res.total_births
    res = teacher_runs[True]
    assert len(res.final_swarm) == teacher_runs["p0"] - res.total_deaths + res.total_births
    report(10, f"p_(k+1) = p_k - deaths_k + births_k at all {checked} recorded steps, "
               f"end-state accounting consistent", time.perf_counter() - t0, 30.0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = CONFIGS / "synthetic_theory.cfg"
    spec_text = cfg.read_text().replace("iterations = 2000", "iterations = 200")
    local = tmp_path / "theory.cfg"
    local.write_text(spec_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(local), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(local), "--out", str(out2)]) == 0
    b1 = (out1 / "trace.csv").read_bytes()
    b2 = (out2 / "trace.csv").read_bytes()
    assert b1 == b2
    report(11, f"two invocations produced byte-identical trace.csv ({len(b1)} bytes)",
           time.perf_counter() - t0, 60.0)


def test_criterion_12_rate_slope_diagnostic(horizon_sweep, capsys):
    rhos = horizon_sweep["rhos"]
    ks = sorted(rhos)
    assert all(rhos[k] > 0 for k in ks), "excess losses must be positive vs the exact optimum"
    slope = float(np.polyfit(np.log(ks), np.log([rhos[k] for k in ks]), 1)[0])
    assert math.isfinite(slope)
    lines = ", ".join(f"K={k}: rho={rhos[k]:.3e}" for k in ks)
    detail = (f"{lines}; fitted slope {slope:.3f} (worst-case reference -1/6 = "
              f"{-1.0 / 6.0:.3f}; diagnostic only, constants are problem-dependent)")
    report(12, detail, horizon_sweep["elapsed"], 120.0)
