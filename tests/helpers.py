"""Helpers that several test modules share."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np

from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.cli import build_problem
from conicswarm.config import load_config
from conicswarm.experiments import GmmSpec, gen_gmm
from conicswarm.kernels import relu_blocks
from conicswarm.runner import RunConfig
from conicswarm.schedules import FixedPlan


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def y_norm_sq_case(name):
    """The samples and tau of a named ``|y|^2`` case: the desk-scale ring
    (n = 2,000), 3,000 samples in 3-d far from the origin, or
    ``gmm_full.cfg``'s own 24,000 samples."""
    if name == "desk":
        spec = GmmSpec.ring(5, 5.0, 2000, 0.2)
        return gen_gmm(spec, rng(33))[0], spec.tau
    if name == "offset_3d":
        return rng(34).standard_normal((3000, 3)) * 0.8 - 3.7e6, 0.3
    problem, extras = build_problem(load_config(
        Path(__file__).resolve().parent.parent / "configs" / "gmm_full.cfg"))
    return extras["data"], problem.model.tau


def same_bits(x, y):
    """Whether ``x`` and ``y`` have the same shape and the same bytes."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def survivors(swarm, deaths):
    """The boolean mask of the particles of ``swarm`` that the death indices
    ``deaths`` spare, as the loop builds it."""
    keep = np.ones(len(swarm), dtype=bool)
    keep[deaths] = False
    return keep


def network_outputs(swarm, features):
    """The network output ``sum_j w_j s_j relu(<v_j, x> + b_j)`` per row of
    ``features``, from the row blocks of ``kernels.relu_blocks``."""
    aug = np.hstack([features, np.ones((len(features), 1))])
    c = swarm.weights * swarm.signs
    blocks = relu_blocks(aug, swarm.positions)
    return np.concatenate([np.empty(0), *(act @ c for _, act in blocks)])


def traced_peak(call):
    """Peak bytes that ``call()`` allocates above what was held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def attributes(model):
    """The model's attributes, by identity: equal before and after a run
    when the run neither adds nor rebinds one."""
    return {name: id(value) for name, value in vars(model).items()}


def rows(trace, *blank):
    """A run's trace rows without their wall times and the fields ``blank``."""
    return [dataclasses.replace(rec, time_s=None, **dict.fromkeys(blank)) for rec in trace]


def loop_config(init, full_batch=False, **kw):
    """40 iterations with births and deaths: 4 candidates, batches of 32."""
    base = dict(init_swarm=init, k_iters=40, plan=FixedPlan(0.5, 0.02, 32, 0.05),
                full_batch=full_batch, birth_death=True, death_rule=DeathRule(),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=4),
                seed=9, trace_cadence=10)
    base.update(kw)
    return RunConfig(**base)
