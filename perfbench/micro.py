"""Microbenchmarks of the four kernel primitives for each model at stated sizes.

Sizes: ``p32_m256`` and ``p512_m256`` evaluate p particles against
themselves (the y-side at p points) on a batch of m=256 sample indices;
``p32_full`` and ``p512_full`` run the y-side on every sample. Each figure
is the median CPU time of one call in microseconds, after one warm-up
call. Models and the workload each feeds:

* ``synthetic`` -- synthetic_theory.cfg (n=64); feeds theory_anytime
* ``gmm``       -- gmm_desk.cfg (n=2000); batch sizes feed gmm_stream,
                   full-n sizes feed gmm_exact
* ``relu``      -- the seeded housing stand-in, standardized (n=20,640);
                   batch sizes feed relu_stream, full-n sizes its loss at cadence

``single_workload_figures`` times, on fixed inputs, the functions that
only one workload calls, so that every traced run measures them:

* ``kernels.audit_assumptions.synthetic.us`` and
  ``schedules.calibrate.synthetic.us`` -- theory_anytime's set-up
* ``schedules.at.k1000.us`` -- 1,000 anytime-schedule steps, theory_anytime's loop
* ``experiments.load_regression.relu.us`` -- relu_stream's CSV parse
* ``objective.kkt_residual.gmm.us`` -- gmm_exact's KKT grid (30 x 30 plus 32
  particles over n=2000)
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from conicswarm import cli, experiments, objective, schedules
from conicswarm.config import load_config
from conicswarm.domain import Ball, grid_points
from conicswarm.kernels import ReluKernel, audit_assumptions
from conicswarm.swarm import ParticleSwarm

import standin

BATCH = 256
PARTICLES = (32, 512)
MIN_SECONDS = 0.02
MIN_REPS = 3
MAX_REPS = 200


def _median_us(fn) -> float:
    fn()
    times = []
    start = time.process_time()
    while len(times) < MIN_REPS or (time.process_time() - start < MIN_SECONDS
                                    and len(times) < MAX_REPS):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return 1e6 * statistics.median(times)


def models(root: Path, seed: int):
    """``name -> (model, domain)`` for the three kernel models."""
    out = {}
    for name, cfg in (("synthetic", "synthetic_theory.cfg"), ("gmm", "gmm_desk.cfg")):
        problem, _extras = cli.build_problem(load_config(root / "configs" / cfg))
        out[name] = (problem.model, problem.domain)
    x, y = standin.draw(seed)
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    y = (y - y.mean()) / y.std()
    out["relu"] = (ReluKernel(x, y), Ball(np.zeros(x.shape[1] + 1), 1.0))
    return out


def run_all(root: Path, seed: int) -> dict[str, float]:
    """``kernels.<model>.<primitive>.<size>.us`` for every model, primitive and size."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = {}
    for name, (model, dom) in models(root, seed).items():
        idx = rng.integers(0, model.n_samples, size=BATCH)
        for p in PARTICLES:
            pts = dom.sample_uniform(rng, size=p)
            coef = rng.uniform(0.01, 0.1, size=p)
            key = f"kernels.{name}.{{}}.p{p}_{{}}.us"
            out[key.format("kernel_matrix", "m256")] = _median_us(
                lambda: model.kernel_matrix(pts, pts, idx))
            out[key.format("weighted_grad1_kernel", "m256")] = _median_us(
                lambda: model.weighted_grad1_kernel(pts, pts, coef, idx))
            for prim in ("y_inner_many", "grad_y_inner_many"):
                fn = getattr(model, prim)
                out[key.format(prim, "m256")] = _median_us(lambda: fn(pts, idx))
                out[key.format(prim, "full")] = _median_us(lambda: fn(pts))
    return out


def single_workload_figures(root: Path, seed: int, standin_csv: Path) -> dict[str, float]:
    """Median CPU microseconds of calls that only one workload makes."""
    rng = np.random.Generator(np.random.Philox(seed))
    spec = load_config(root / "configs" / "synthetic_theory.cfg")
    problem, extras = cli.build_problem(spec)
    nu0_tv = cli.build_init_swarm(spec, problem, extras).tv_norm()

    def audit():
        return audit_assumptions(problem.model, problem.domain, spec.rates["audit_points"],
                                 np.random.Generator(np.random.Philox(seed)),
                                 tv_cap=spec.rates["audit_tv_cap"])

    bounds = audit()
    plan = schedules.AnytimePlan(alpha=0.5)
    out = {
        "kernels.audit_assumptions.synthetic.us": _median_us(audit),
        "schedules.calibrate.synthetic.us": _median_us(lambda: schedules.calibrate(
            bounds, nu0_tv=nu0_tv, kappa=problem.kappa, lambda_x=problem.domain.volume(),
            y_norm=math.sqrt(problem.model.y_norm_sq), stochastic=True)),
        "schedules.at.k1000.us": _median_us(lambda: [plan.at(k) for k in range(1, 1001)]),
        "experiments.load_regression.relu.us": _median_us(lambda: experiments.load_regression(
            standin_csv, np.random.Generator(np.random.Philox(seed)))),
    }
    gmm, _extras = cli.build_problem(load_config(root / "configs" / "gmm_desk.cfg"))
    swarm = ParticleSwarm(rng.uniform(0.01, 0.1, size=32), np.ones(32),
                          gmm.domain.sample_uniform(rng, size=32))
    grid = np.vstack([grid_points(gmm.domain, 30), swarm.positions])
    out["objective.kkt_residual.gmm.us"] = _median_us(
        lambda: objective.kkt_residual(gmm, swarm, grid))
    return out
