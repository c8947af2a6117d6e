"""The loop's ``Workspace``: where its slots land changes no bit.

``runner.run`` hands one workspace to every loop evaluation and the cadence
loss, which build their temporaries in its slots at every size. Its slots
start on a 64-byte boundary, where the loop's BLAS calls and ufuncs run
fastest; BLAS may pick its kernel by alignment, so each test here also
forces the slots to the offsets 16, 32 and 48 past the boundary. For every model,
exact and batched: (a) the three loop evaluations, at a 200-point support
(``_sqdist``'s product path) with deaths and births, the mixture's survivor
gathers among them and the Gaussian models' kernel blocks kept in
``"ev.kernel"``, have the bits of the same calls without a workspace, and
those have the bits of the reference forms of ``reference.py``, or for the
mixture, whose kernel entries and densities take expanded products where
the reference takes exact differences, lie within ``mixture_field_bound``
of them; the loss has the bits of the call without a workspace; (b) a run
with deaths and births writes the
trace and final swarm of a run without a workspace. (c) A pushed
evaluation whose blocks lie below ``PRODUCT_ENTRIES`` entries, where
``_sqdist`` takes no product, still keeps them in their slots. (d) A plain
process on ``gmm_desk.cfg`` takes at most ``FAULT_BUDGET`` minor page faults
per iteration of the loop.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import conicswarm
import conicswarm.runner as runner
from conicswarm import verify
from conicswarm.gaussian import PRODUCT_ENTRIES
from conicswarm.kernels import GmmKernel, ReluKernel, SyntheticKernel
from conicswarm.workspace import Workspace
from conicswarm.objective import loss
from conicswarm.runner import trace_to_csv
from conicswarm.swarm import ParticleSwarm
from helpers import loop_config, rng, same_bits
from reference import mixture_field_bound, near, primitive_field, relu_block_field, \
    signed_field

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: byte offsets of the slots past a 64-byte boundary
OFFSETS = [0, 16, 32, 48]

BUILDERS = {
    "synthetic": functools.partial(verify.make_synthetic_problem, seed=4),
    "gmm": functools.partial(verify.make_gmm_problem, seed=7, n=400),
    "relu": functools.partial(verify.make_relu_problem, seed=3, n=400),
}

each_model = pytest.mark.parametrize("name", BUILDERS)
each_batching = pytest.mark.parametrize("full_batch", [True, False])
each_offset = pytest.mark.parametrize("offset", OFFSETS)


def reference_field(model, t, support, coef, idx):
    """The field of ``reference.py`` that has the model's bits, or the
    mixture's bits apart from its densities."""
    if isinstance(model, SyntheticKernel):
        return signed_field(model, t, support, coef, idx)
    if isinstance(model, ReluKernel):
        return relu_block_field(model, t, support, coef, idx)
    return primitive_field(model, t, support, coef, idx)


def as_reference(model, t, support, coef, idx, got):
    """Whether the values ``got[0]`` (and gradients ``got[1]``) of ``(S,
    c)`` at t have the bits of the reference field, or for the mixture lie
    within ``mixture_field_bound`` of it."""
    want = reference_field(model, t, support, coef, idx)
    if not isinstance(model, GmmKernel):
        return all(same_bits(g, w) for g, w in zip(got, want))
    bounds = mixture_field_bound(model, t, support, coef, idx)
    return all(near(g, w, b) for g, w, b in zip(got, want, bounds))


@pytest.mark.exactness
@each_offset
def test_slots_start_at_the_offset_in_c_order(offset):
    ws = Workspace(offset)
    # a slot's first take may be empty, in a run that starts from no particle
    assert ws.take("ev.kernel", 3, 0).shape == (3, 0)
    for rows, cols in [(1, PRODUCT_ENTRIES - 1), (64, 64), (3, 4096), (200, 200), (65, 64)]:
        buf = ws.take("work", rows, cols)
        assert buf.shape == (rows, cols) and buf.flags.c_contiguous
        assert buf.ctypes.data % 64 == offset


@pytest.mark.exactness
@each_model
@each_batching
@each_offset
def test_loop_evaluations_have_reference_bits_at_every_offset(name, full_batch, offset):
    problem = BUILDERS[name]()
    model, g = problem.model, rng(11)
    ws = Workspace(offset)

    def batch():
        return None if full_batch else g.integers(0, model.n_samples, size=64)

    pushed = problem.domain.sample_uniform(g, size=200)
    cand = problem.domain.sample_uniform(g, size=40)
    coef = g.uniform(-1.0, 1.0, size=200)
    idx = batch()
    vals, at_cand, ev = model.pushed_values(pushed, coef, idx, cand, ws)
    bare = model.pushed_values(pushed, coef, idx, cand)
    assert same_bits(vals, bare[0]) and same_bits(at_cand, bare[1])
    assert as_reference(model, pushed, pushed, coef, idx, [vals])
    if name != "relu":
        # the Gaussian models keep their pushed kernel block in "ev.kernel";
        # the first support field below, of an unchanged swarm, reads it
        block = ev[1] if name == "synthetic" else ev[0]
        assert np.shares_memory(block, ws.take("ev.kernel", 1, 1))
    assert as_reference(model, cand, pushed, coef, idx, [at_cand])
    lived, some = g.random(200) >= 0.2, np.arange(40) % 3 == 0
    every, none = np.ones(200, dtype=bool), np.zeros(40, dtype=bool)
    for keep in [(every, none), (every, some), (lived, none), (lived, some), (~every, ~none)]:
        keep = np.concatenate(keep)
        t = np.vstack([pushed, cand])[keep]
        c = g.uniform(-1.0, 1.0, size=len(t))
        idx = batch()
        got = model.support_field(t, c, idx, ev, keep, ws)
        for g_ws, g_bare in zip(got, model.support_field(t, c, idx, bare[2], keep)):
            assert same_bits(g_ws, g_bare)
        assert as_reference(model, t, t, c, idx, got)
        swarm = ParticleSwarm(np.abs(c), np.sign(c), t)
        assert same_bits(loss(problem, swarm, ws), loss(problem, swarm))


@pytest.mark.parametrize("name", ["synthetic", "gmm"])
def test_pushed_blocks_below_the_product_size_stay_in_their_slots(name):
    # 20 particles and 4 candidates over the mixture's 100 samples: the
    # kernel block and the exact rows are below PRODUCT_ENTRIES entries
    problem = verify.make_gmm_problem(seed=7, n=100) if name == "gmm" else BUILDERS[name]()
    model, g = problem.model, rng(5)
    ws = Workspace()
    pushed = problem.domain.sample_uniform(g, size=20)
    cand = problem.domain.sample_uniform(g, size=4)
    ev = model.pushed_values(pushed, g.uniform(0.0, 1.0, size=20), None, cand, ws)[2]
    kept = {"ev.kernel": ev[1] if name == "synthetic" else ev[0]}
    if name == "gmm":
        kept["ev.rows"] = ev[1][0]
    for slot, block in kept.items():
        assert 0 < block.size < PRODUCT_ENTRIES
        assert np.shares_memory(block, ws.take(slot, 1, 1))


@pytest.mark.exactness
@each_model
@each_batching
def test_run_writes_the_bytes_of_a_run_without_workspace(monkeypatch, tmp_path, name,
                                                          full_batch):
    problem = BUILDERS[name]()
    g = rng(8)
    positions = problem.domain.sample_uniform(g, size=80)
    signs = g.choice([-1.0, 1.0], size=80) if problem.signed else np.ones(80)
    init = ParticleSwarm(g.uniform(0.001, 0.02, size=80), signs, positions)
    config = loop_config(init, full_batch, k_iters=60)
    outputs = []
    for make in (Workspace, lambda: None, lambda: Workspace(48)):
        monkeypatch.setattr(runner, "Workspace", make)
        res = runner.run(config, problem)
        out = tmp_path / f"run{len(outputs)}"
        out.mkdir()
        trace_to_csv(res.trace, out / "trace.csv")
        res.final_swarm.to_csv(out / "final_swarm.csv")
        outputs.append([(out / f).read_bytes() for f in ("trace.csv", "final_swarm.csv")])
    assert res.total_deaths > 0 and res.total_births > 0
    assert outputs[0] == outputs[1] == outputs[2]


#: minor page faults per iteration that a plain process may take in the loop
FAULT_BUDGET = 5

FAULT_SCRIPT = textwrap.dedent("""
    import resource, sys
    from conicswarm import cli, runner
    from conicswarm.config import load_config
    spec = load_config(sys.argv[1])
    spec.run["iterations"] = int(sys.argv[2])
    problem, extras = cli.build_problem(spec)
    config, _ = cli.build_run_config(spec, problem, extras)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    runner.run(config, problem)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / config.k_iters)
""")


def test_plain_process_loop_stays_within_the_fault_budget():
    # a fresh process has glibc's allocation thresholds at their defaults, as
    # a ``conicswarm run`` does: a loop that maps fresh pages for its large
    # temporaries on every iteration takes about 100 faults per iteration
    pytest.importorskip("resource")
    src = str(Path(conicswarm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT, str(CONFIGS / "gmm_desk.cfg"),
                           "300"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= FAULT_BUDGET
