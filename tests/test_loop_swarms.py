"""Swarms built inside the loop are valid by construction.

Only the entry points (``from_csv``, ``lift_signed``, the CLI's initial
swarm, ``RunConfig``) call ``ParticleSwarm.check``. From valid inputs, the
conic update, the birth step, the mass tweak and a whole run must return
swarms that pass it without being checked.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conicswarm.birth_death import BirthRule, DeathRule, apply_mass_tweak, draw_candidates, \
    evaluate_birth_candidates, select_deaths
from conicswarm.dynamics import weight_push_update
from conicswarm.objective import certificate_and_grad
from conicswarm.oracle import draw_batch
from conicswarm.runner import RunConfig, run
from conicswarm.schedules import FixedPlan
from conicswarm.verify import make_gmm_problem, make_relu_problem, make_synthetic_problem, \
    random_swarm
from helpers import survivors

PROBLEMS = {
    "synthetic": make_synthetic_problem(seed=4),
    "gmm": make_gmm_problem(seed=4),
    "relu": make_relu_problem(seed=4),
}

rates = st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0))  # (alpha, beta)
death_rules = st.builds(DeathRule, kind=st.sampled_from(["guarded", "ratio"]),
                        tau_death=st.floats(0.01, 10.0),
                        scan=st.sampled_from(["all", "single"]))
birth_rules = st.builds(BirthRule, threshold_coeff=st.floats(-1.0, 5.0),
                        candidates_per_iter=st.integers(1, 6),
                        birth_mass=st.one_of(st.none(), st.floats(0.0, 0.5)))


@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       step=rates, death_rule=death_rules, birth_rule=birth_rules,
       eps_k=st.floats(1e-4, 0.5), m_k=st.integers(1, 64), exact=st.booleans())
@settings(max_examples=60, deadline=None)
def test_one_step_outputs_pass_check(name, seed, step, death_rule, birth_rule, eps_k, m_k,
                                     exact):
    problem = PROBLEMS[name]
    rng = np.random.Generator(np.random.Philox(seed))
    swarm = random_swarm(problem, rng, max_particles=8).check()
    n = problem.model.n_samples
    idx = None if exact else draw_batch(rng, m_k, n)

    certs, grads = certificate_and_grad(problem, swarm, swarm.positions, swarm.signs, idx)
    pushed = weight_push_update(problem, swarm, certs, grads, *step).check()

    cand, signs = draw_candidates(problem, birth_rule, rng)
    vals, cand_vals, _ = problem.model.pushed_values(pushed.positions,
                                                     pushed.weights * pushed.signs, idx, cand)
    deaths = select_deaths(pushed, pushed.signs * vals + problem.kappa, death_rule, eps_k, rng)
    born = evaluate_birth_candidates(problem, cand, signs, cand_vals, birth_rule, eps_k,
                                     n if exact else m_k)[0].check()
    after = apply_mass_tweak(pushed, survivors(pushed, deaths), born).check()
    assert len(after) == len(pushed) - len(deaths) + len(born)


@given(name=st.sampled_from(sorted(PROBLEMS)), seed=st.integers(0, 2**32 - 1),
       death_rule=death_rules, birth_rule=birth_rules, full_batch=st.booleans(),
       k_iters=st.integers(0, 6), eps=st.floats(1e-4, 0.5))
@settings(max_examples=20, deadline=None)
def test_run_final_swarm_passes_check(name, seed, death_rule, birth_rule, full_batch, k_iters,
                                      eps):
    problem = PROBLEMS[name]
    init = random_swarm(problem, np.random.Generator(np.random.Philox(seed)), max_particles=6)
    config = RunConfig(init_swarm=init, k_iters=k_iters,
                       plan=FixedPlan(0.5, eps, 16, 0.1), full_batch=full_batch,
                       death_rule=death_rule, birth_rule=birth_rule, seed=seed)
    run(config, problem).final_swarm.check()


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("full_batch", [False, True])
@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_run_never_writes_swarm_arrays(name, full_batch, beta):
    # A swarm owns the arrays it is given without copying them, so the loop
    # must build new arrays instead of writing old ones in place.
    problem = PROBLEMS[name]
    init = random_swarm(problem, np.random.Generator(np.random.Philox(5)), max_particles=6)
    for arr in (init.weights, init.signs, init.positions):
        arr.flags.writeable = False
    config = RunConfig(init_swarm=init, k_iters=6, plan=FixedPlan(0.5, 0.05, 16, beta),
                       full_batch=full_batch,
                       death_rule=DeathRule(kind="ratio", tau_death=0.01),
                       birth_rule=BirthRule(threshold_coeff=float("inf"),
                                            candidates_per_iter=3),
                       seed=2)
    result = run(config, problem)
    assert result.total_births > 0 and result.total_deaths > 0
    result.final_swarm.check()
