"""Helpers that several test modules share."""

import dataclasses
import tracemalloc

import numpy as np

from conicswarm.birth_death import BirthRule, DeathRule
from conicswarm.runner import RunConfig
from conicswarm.schedules import FixedPlan


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def same_bits(x, y):
    """Whether ``x`` and ``y`` have the same shape and the same bytes."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


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
    base = dict(init_swarm=init, k_iters=40, alpha=0.5, plan=FixedPlan(0.02, 32, 0.05),
                full_batch=full_batch, birth_death=True, death_rule=DeathRule(),
                birth_rule=BirthRule(threshold_coeff=0.0, candidates_per_iter=4),
                seed=9, trace_cadence=10)
    base.update(kw)
    return RunConfig(**base)
