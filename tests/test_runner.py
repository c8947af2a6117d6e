import math
import os
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import conicswarm
from conicswarm import kernels
from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.domain import grid_points
from conicswarm.experiments import gen_teacher_regression
from conicswarm.audit import audit_assumptions
from conicswarm.objective import kkt_residual, loss
from conicswarm.runner import IterationRecord, RunAborted, RunConfig, RunResult, run, \
    trace_from_csv, trace_to_csv
from conicswarm.schedules import AnytimePlan, FixedPlan, calibrate
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_gmm_problem, make_synthetic_problem, random_swarm
from helpers import rng


def small_config(init, **kw):
    base = dict(init_swarm=init, k_iters=30, plan=FixedPlan(0.2, 0.02, 256, 0.01),
                full_batch=True, birth_death=True,
                death_rule=DeathRule(kind="ratio", tau_death=5.0),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=4),
                seed=5, trace_cadence=5)
    base.update(kw)
    return RunConfig(**base)


class TestRunBasics:
    def test_zero_iterations(self):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(1))
        res = run(small_config(init, k_iters=0), problem)
        assert len(res.trace) == 1
        assert res.trace[0].loss == pytest.approx(loss(problem, init))
        assert np.array_equal(res.final_swarm.weights, init.weights)

    def test_negative_particle_on_an_unsigned_problem_is_refused(self):
        # the loop folds no sign on an unsigned problem, where every sign is
        # +1; a start swarm with a -1 particle is refused before iteration 1
        problem = make_synthetic_problem(seed=4, signed=False)
        init = ParticleSwarm(np.full(2, 0.05), [1.0, -1.0],
                             problem.domain.sample_uniform(rng(1), size=2))
        with pytest.raises(ValueError, match="unsigned, but 1 start particle"):
            run(small_config(init, k_iters=20), problem)

    def test_start_outside_the_admitted_mixture_box_is_refused(self):
        # the mixture bounds its entries' error on the box it admitted; a run
        # from a particle 3,000 units outside it used to finish silently
        problem = make_gmm_problem(seed=5)
        far = problem.domain.upper + 3000.0
        init = ParticleSwarm([0.05, 0.05], [1.0, 1.0], np.vstack([problem.domain.lower, far]))
        with pytest.raises(ValueError, match=r"particle 1 at \[.*\] lies outside the domain"):
            run(small_config(init, k_iters=5), problem)

    def test_run_reads_the_mixture_constant_built_with_the_model(self, monkeypatch):
        # |y|^2 is summed once, when the model is built; a run that summed it
        # again, inside its timer, would meet the failing lattice
        problem = make_gmm_problem(seed=5)
        init = random_swarm(problem, rng(3), max_particles=4)

        def summed(*args):
            raise AssertionError("the run summed |y|^2")

        monkeypatch.setattr(kernels, "lattice_pair_sum", summed)
        res = run(small_config(init, k_iters=10, full_batch=False), problem)
        assert len(res.trace) == 11
        assert res.trace[0].loss == loss(problem, init)

    def test_bookkeeping_identity_every_step(self):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(2), max_particles=6)
        res = run(small_config(init, k_iters=60), problem)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur.particles == prev.particles - cur.deaths + cur.births

    def test_no_birth_death_skips_extra_randomness(self):
        # with the process disabled, traces depend only on the update path
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(3), max_particles=4)
        a = run(small_config(init, birth_death=False, full_batch=False), problem)
        b = run(small_config(init, birth_death=False, full_batch=False), problem)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.loss == rb.loss and ra.tv == rb.tv
        assert all(r.births == 0 and r.deaths == 0 for r in a.trace)

    def test_deterministic_trace_bytes(self, tmp_path):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(4), max_particles=5)
        paths = []
        for name in ("a.csv", "b.csv"):
            res = run(small_config(init, full_batch=False), problem)
            p = tmp_path / name
            trace_to_csv(res.trace, p)
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]

    def test_empty_swarm_repopulates(self):
        problem = make_synthetic_problem(signed=False)
        init = ParticleSwarm.empty(2)
        cfg = small_config(init, k_iters=40,
                           birth_rule=BirthRule(threshold_coeff=math.inf,
                                                candidates_per_iter=2))
        res = run(cfg, problem)
        assert len(res.final_swarm) > 0
        assert res.trace[0].particles == 0

    def test_plan_overrides_fixed_schedule(self):
        problem = make_synthetic_problem(signed=False)
        init = random_swarm(problem, rng(5))
        plan = AnytimePlan(alpha=0.2)
        res = run(small_config(init, plan=plan, full_batch=False, k_iters=10), problem)
        assert len(res.trace) == 11

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_names_the_iteration(self):
        # a light particle on a planted atom has a negative certificate, and
        # alpha = 1e6 sends exp(-alpha * cert) past the float range
        problem = make_synthetic_problem(signed=False)
        init = ParticleSwarm(np.full(1, 1e-6), np.ones(1), problem.model.atom_positions[:1])
        with pytest.raises(ValueError, match="^iteration 1: weight update overflowed"):
            run(small_config(init, plan=FixedPlan(1e6, 0.02, 256, 0.0)), problem)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_carries_the_trace_and_last_good_swarm(self):
        problem = make_synthetic_problem(signed=False)
        init = ParticleSwarm(np.full(1, 1e-6), np.ones(1), problem.model.atom_positions[:1])
        with pytest.raises(RunAborted) as info:
            run(small_config(init, plan=FixedPlan(1e6, 0.02, 256, 0.0)), problem)
        assert [rec.k for rec in info.value.trace] == [0]
        assert info.value.swarm is init

    @pytest.mark.parametrize("eps", [0.0, -0.01, math.nan, math.inf])
    def test_bad_eps_rejected(self, eps):
        # Fixed-schedule births carry eps unchecked inside the loop.
        with pytest.raises(ValueError, match="eps"):
            FixedPlan(0.5, eps, 256, 0.0)

    def test_anytime_run_steps_weights_at_the_plan_alpha(self):
        # the plan is the one owner of alpha: the first step multiplies each
        # weight by exp(-plan.alpha * cert) at the initial support
        problem = make_synthetic_problem(signed=False)
        init = random_swarm(problem, rng(6))
        plan = AnytimePlan(alpha=0.3)
        res = run(small_config(init, plan=plan, k_iters=1, birth_death=False), problem)
        vals, _ = problem.model.certificate_field(init.positions, init.positions,
                                                  init.weights * init.signs)
        certs = init.signs * vals + problem.kappa
        assert np.array_equal(res.final_swarm.weights, init.weights * np.exp(-0.3 * certs))


class TestMonotoneDescent:
    def test_full_batch_no_bd_loss_nonincreasing_at_calibrated_rates(self):
        problem = make_synthetic_problem(seed=6)
        bounds = audit_assumptions(problem.model, problem.domain, 150, rng(7))
        cal = calibrate(bounds, nu0_tv=1.0, kappa=problem.kappa,
                        lambda_x=problem.domain.volume(),
                        y_norm=math.sqrt(problem.model.y_norm_sq), stochastic=False)
        init = random_swarm(problem, rng(8), max_particles=6, tv=0.8)
        cfg = RunConfig(init_swarm=init, k_iters=200,
                        plan=FixedPlan(cal.alpha, 0.05, 256, cal.chosen_beta),
                        full_batch=True, birth_death=False, seed=1, trace_cadence=1)
        res = run(cfg, problem)
        losses = [r.loss for r in res.trace]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-10

    def test_delta_matches_loss_differences_at_cadence_one(self):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(9), max_particles=4)
        res = run(small_config(init, trace_cadence=1, k_iters=20), problem)
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur.delta == pytest.approx(prev.loss - cur.loss, abs=1e-15)


class TestEscapeFixture:
    def test_birth_death_escapes_single_cluster_init(self):
        # narrow kernel, three separated atoms, every initial particle
        # crowding the first one: plain descent cannot ferry mass across the
        # kernel tails, the exploration process can
        from conicswarm.domain import Box
        from conicswarm.kernels import SyntheticKernel
        from conicswarm.objective import Problem

        domain = Box([0.0, 0.0], [1.0, 1.0])
        support = np.array([[0.2, 0.2], [0.8, 0.8], [0.2, 0.8]])
        model = SyntheticKernel(domain, 0.08, np.array([0.35, 0.3, 0.25]), support,
                                n_samples=64, noise_scale=0.0)
        problem = Problem(model=model, kappa=1e-3, signed=False)
        g = rng(11)
        pos = domain.project(support[0][None, :] + 0.02 * g.standard_normal((10, 2)))
        init = ParticleSwarm(np.full(10, 0.08), np.ones(10), pos)
        results = {}
        for bd in (False, True):
            cfg = RunConfig(init_swarm=init, k_iters=2000,
                            plan=FixedPlan(1.0, 5e-3, 256, 0.005), full_batch=True, birth_death=bd,
                            death_rule=DeathRule(kind="ratio", tau_death=5.0),
                            birth_rule=BirthRule(threshold_coeff=0.0,
                                                 candidates_per_iter=8),
                            seed=12, trace_cadence=50)
            results[bd] = run(cfg, problem)
        assert results[True].rho_hat < results[False].rho_hat
        report = kkt_residual(problem, results[True].final_swarm,
                              grid_points(problem.domain, 30))
        assert report.min_cert_grid >= -0.05 * problem.kappa


class TestTrackExcess:
    def test_constant_trace(self):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(13))
        j0 = loss(problem, init)
        res = run(small_config(init, k_iters=0, j_ref=j0 - 0.5), problem)
        assert res.trace[0].loss == j0
        assert res.rho_hat == pytest.approx(0.5)

    def test_reference_equal_to_min_gives_zero(self):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(14))
        res = run(small_config(init, k_iters=20), problem)
        best = min(r.loss for r in res.trace if r.loss is not None)
        assert res.rho_hat == best  # no reference: the best loss itself
        again = run(small_config(init, k_iters=20, j_ref=best), problem)
        assert again.rho_hat == pytest.approx(0.0)

    def test_empty_trace_rejected(self):
        empty = RunResult(trace=[], final_swarm=ParticleSwarm.empty(2), rho_hat=0.0,
                          best_index=0, total_time_s=0.0)
        with pytest.raises(ValueError):
            empty.final_loss

    def test_rho_hat_uses_reference(self):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(15))
        res = run(small_config(init, k_iters=10, j_ref=0.001), problem)
        best = min(r.loss for r in res.trace if r.loss is not None)
        assert res.rho_hat == pytest.approx(best - 0.001)


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(16), max_particles=4)
        res = run(small_config(init, k_iters=12, trace_cadence=5), problem)
        path = tmp_path / "trace.csv"
        trace_to_csv(res.trace, path)
        back = trace_from_csv(path)
        assert len(back) == len(res.trace)
        for a, b in zip(res.trace, back):
            assert a.k == b.k and a.particles == b.particles
            if a.loss is None:
                assert b.loss is None
            else:
                assert b.loss == pytest.approx(a.loss)

    def test_every_field_reads_back_exactly(self, tmp_path):
        # wall time is never written, so it reads back as None; every other
        # nullable column holds None on one row and a value on another, and
        # floats are written with repr, so they read back to the bit
        records = [
            IterationRecord(0, None, 0.125, 1.0, 3, 0, 0, None, None, None),
            IterationRecord(1, None, None, 0.1 + 0.2, 4, 2, 1, -1e-300, None, 5e-324),
            IterationRecord(2, None, 2.0 / 3.0, 0.0, 2, 0, 2, 0.0, -0.1, 7.5),
        ]
        path = tmp_path / "trace.csv"
        trace_to_csv(records, path)
        assert path.read_text().splitlines()[0].split(",") == \
            [f.name for f in fields(IterationRecord)]
        back = trace_from_csv(path)
        assert back == records
        for a, b in zip(records, back):
            for f in fields(IterationRecord):
                assert type(getattr(b, f.name)) is type(getattr(a, f.name))

    def test_off_cadence_rows_have_empty_loss(self, tmp_path):
        problem = make_synthetic_problem()
        init = random_swarm(problem, rng(17), max_particles=3)
        res = run(small_config(init, k_iters=12, trace_cadence=5), problem)
        path = tmp_path / "trace.csv"
        trace_to_csv(res.trace, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        row3 = dict(zip(header, lines[4].split(",")))  # k = 3, off cadence
        assert row3["loss"] == "" and row3["k"] == "3"

    def test_malformed_trace_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,loss\n0,1\n")
        with pytest.raises(ValueError):
            trace_from_csv(path)


class TestHighDimension:
    BUDGET_S = 5.0

    def test_teacher_run_in_25_dimensions_finishes(self):
        # d = 25: one rejection draw from the bounding cube lands in the ball
        # with probability 2.9e-11, so a rejection sampler never ends the
        # first birth step; the exact sampler runs these 300 iterations in
        # well under a second
        g = rng(25)
        _, problem, _ = gen_teacher_regression(2000, 24, 5, 0.05, g)
        assert problem.domain.dim == 25
        pos = g.standard_normal((40, 25))
        pos /= np.linalg.norm(pos, axis=1, keepdims=True)
        init = ParticleSwarm(np.full(40, 0.01), g.choice([-1.0, 1.0], size=40), pos)
        cfg = RunConfig(init_swarm=init, k_iters=300, plan=FixedPlan(1.0, 0.002, 256, 0.5),
                        full_batch=False, birth_death=True,
                        death_rule=DeathRule(kind="ratio", tau_death=1.5),
                        birth_rule=BirthRule(threshold_coeff=-0.6, candidates_per_iter=4),
                        seed=1, trace_cadence=1)

        def over_budget(signum, frame):
            raise TimeoutError(f"25-dimensional run exceeded its {self.BUDGET_S} s budget")

        previous = signal.signal(signal.SIGALRM, over_budget)
        signal.setitimer(signal.ITIMER_REAL, self.BUDGET_S)
        try:
            res = run(cfg, problem)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert res.total_births > 0 and res.total_deaths > 0
        for prev, cur in zip(res.trace, res.trace[1:]):
            assert cur.particles == prev.particles - cur.deaths + cur.births
        assert len(res.final_swarm) == 40 - res.total_deaths + res.total_births
        assert problem.domain.contains(res.final_swarm.positions).all()


#: runs each shipped profile given for 150 iterations and writes its trace
#: and final swarm under the output directory
PROFILE_SCRIPT = """
import sys
from pathlib import Path
from conicswarm import cli
from conicswarm.config import load_config
from conicswarm.runner import run, trace_to_csv
out = Path(sys.argv[1])
for path in sys.argv[2:]:
    spec = load_config(path)
    spec.run["iterations"] = 150
    problem, extras = cli.build_problem(spec)
    config, _ = cli.build_run_config(spec, problem, extras)
    res = run(config, problem)
    (out / Path(path).stem).mkdir()
    trace_to_csv(res.trace, out / Path(path).stem / "trace.csv")
    res.final_swarm.to_csv(out / Path(path).stem / "final_swarm.csv")
"""


@pytest.mark.exactness
def test_profiles_write_the_same_bytes_on_one_and_two_blas_threads(tmp_path):
    # gmm_desk.cfg runs exact and gmm_full.cfg on batches: their densities'
    # exponents are products with 4 inner terms, which OpenBLAS must not
    # split over threads, and the batches one draw per iteration; the
    # synthetic and teacher profiles take their own kernel products, audit
    # and schedules. housing_full.cfg reads a CSV the repository does not ship
    configs = Path(__file__).resolve().parent.parent / "configs"
    src = str(Path(conicswarm.__file__).resolve().parent.parent)
    names = ["gmm_desk", "gmm_full", "synthetic_theory", "teacher_desk"]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", PROFILE_SCRIPT, str(out)]
                              + [str(configs / f"{name}.cfg") for name in names],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append({f"{name}/{f}": (out / name / f).read_bytes() for name in names
                        for f in ("trace.csv", "final_swarm.csv")})
    assert outputs[0] == outputs[1]
