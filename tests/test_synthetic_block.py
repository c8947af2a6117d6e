"""``SyntheticKernel``'s certificate as the weighted kernel of one signed
measure.

The observation is a signed point measure, so the certificate
``K(t, S) c - <y, phi_t>`` is the weighted kernel of the point set
``P = [S; atoms; anchors]`` with coefficients ``q = [c; -w; -eta_b]``, where
``eta_b`` is the batch's noise mean. Each certificate evaluation builds one
kernel matrix ``K(t, P)``; its values and gradients must have the bits of
``weighted_kernel(t, P, q)`` and ``weighted_grad1_kernel(t, P, q)``, which is
how the reference's ``Signed`` builds them. ``Reference`` composes the
certificate from the four primitives; it sums the same products in two
groups, so the two agree within the summation bound ``signed_sum_bound``.
Both, and the bounds, are in ``reference.py``. The observation alone is the point set
``[atoms; anchors]`` weighted by ``[w; eta_b]`` (``observation``):
``y_inner_many`` and ``grad_y_inner_many`` must have the bits of one product
each against it, and stay within the same summation bound of the two
products against the atoms and the anchors apart. The loss is
``GaussianKernel``'s expanded form, which reads ``<y, phi_T>`` from the model's
``y_inner_many`` and builds ``K(T, T)`` on its own; it must give the bits of
the reference's.

A batch's noise mean is counted, ``bincount(idx, minlength=n) @ eta / m``,
with no m x r gather, so an evaluation's memory does not grow with m; it
stays within the summation bound ``counted_mean_bound`` of the gathered
``eta[idx].mean(axis=0)``. The pushed certificate and the birth candidates
share a batch, so ``pushed_values`` computes its mean once and scores both
from one block ``K([T'; C], P')``; every stateless evaluation computes its
own mean. ``ev`` keeps the block's rows ``K(T', P')``, which the next
support field reads after an iteration with no death and no birth, so such
an iteration builds one kernel matrix and any other two. That the
loop evaluations have the bits of the stateless ones and keep nothing in
the model is checked for every model in ``test_loop_evaluations.py``. CI runs the bit and bound tests again with
OpenBLAS on two threads.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conicswarm.cli as cli
import conicswarm.gaussian as gaussian
import conicswarm.runner as runner
from conicswarm.birth_death import BirthRule
from conicswarm.config import load_config
from conicswarm.domain import Box
from conicswarm.kernels import SyntheticKernel
from conicswarm.runner import run, trace_to_csv
from conicswarm.schedules import AnytimePlan
from conicswarm.verify import random_swarm
from helpers import loop_config, rng, same_bits, traced_peak
from reference import Reference, Signed, counted_mean, counted_mean_bound, observation, \
    signed_sum_bound

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def model_pair(seed, dim, n_atoms, n_anchors, n_samples=64):
    g = rng(seed)
    box = Box(np.zeros(dim), np.ones(dim))
    args = (box, 1.2, g.uniform(-0.5, 0.5, size=n_atoms), box.sample_uniform(g, size=n_atoms))
    kw = dict(n_samples=n_samples, noise_scale=0.02, n_anchors=n_anchors, seed=seed + 1)
    return SyntheticKernel(*args, **kw), Signed(*args, **kw)


def evaluations(model, t, support, coef, idx):
    """Every block-built output of the model, in a fixed order."""
    return [*model.certificate_field(t, support, coef, idx),
            model.certificate_values(t, support, coef, idx),
            model.y_inner_many(t, idx), model.grad_y_inner_many(t, idx)]


#: small sizes, and run-scale ones past ``PRODUCT_ENTRIES`` and BLAS blocking
SUPPORTS = st.one_of(st.integers(0, 12), st.sampled_from([64, 65, 512, 999, 1000]),
                     st.integers(13, 1000))
POINTS = st.one_of(st.integers(0, 12), st.sampled_from([64, 65, 640, 700]),
                   st.integers(13, 700))
BATCHES = st.one_of(st.none(), st.sampled_from([1, 800]), st.integers(1, 800))


@pytest.mark.exactness
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       n_atoms=st.integers(1, 5), n_anchors=st.integers(0, 4), p=SUPPORTS, n_points=POINTS,
       at_support=st.booleans(), batch=BATCHES)
@settings(max_examples=100, deadline=None)
def test_certificate_has_the_bits_of_one_signed_measure(seed, dim, n_atoms, n_anchors, p,
                                                        n_points, at_support, batch):
    model, ref = model_pair(seed, dim, n_atoms, n_anchors)
    g = rng(seed)
    support = model.domain.sample_uniform(g, size=p)
    coef = g.uniform(-1.0, 1.0, size=p)
    t = support if at_support else model.domain.sample_uniform(g, size=n_points)
    idx = None if batch is None else g.integers(0, model.n_samples, size=batch)
    want = evaluations(ref, t, support, coef, idx)
    for got, expected in zip(evaluations(model, t, support, coef, idx), want):
        assert same_bits(got, expected)
    vals, at_t, _ = model.pushed_values(support, coef, idx, t)
    assert same_bits(vals, ref.certificate_values(support, support, coef, idx))
    assert same_bits(at_t, want[2])
    assert model.y_norm_sq == ref.y_norm_sq
    primitives = Reference.certificate_field(ref, t, support, coef, idx)
    for got, expected, bound in zip(want, primitives,
                                    signed_sum_bound(model, t, support, coef, idx)):
        assert np.all(np.abs(got - expected) <= bound)


@pytest.mark.exactness
@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       n_atoms=st.integers(1, 5), n_anchors=st.integers(0, 4), n_points=POINTS, batch=BATCHES)
@settings(max_examples=100, deadline=None)
def test_observation_has_the_bits_of_one_product_against_atoms_and_anchors(
        seed, dim, n_atoms, n_anchors, n_points, batch):
    model, _ = model_pair(seed, dim, n_atoms, n_anchors)
    g = rng(seed)
    t = model.domain.sample_uniform(g, size=n_points)
    idx = None if batch is None else g.integers(0, model.n_samples, size=batch)
    points, q = observation(model, idx)
    k = model.kernel_matrix(t, points)
    vals, grads = model.y_inner_many(t, idx), model.grad_y_inner_many(t, idx)
    assert same_bits(vals, k @ q)
    assert same_bits(grads, gaussian.gauss_grad(k, t, points, q, model.sigma**2))
    # the atoms and the anchors apart sum the same terms in two groups
    apart = [(model.atom_positions, q[:n_atoms]), (model.anchors, q[n_atoms:])]
    split_vals = sum(model.kernel_matrix(t, pts) @ c for pts, c in apart)
    split_grads = sum(model.weighted_grad1_kernel(t, pts, c) for pts, c in apart)
    value_bound, grad_bound = signed_sum_bound(model, t, np.empty((0, dim)), np.empty(0), idx)
    assert np.all(np.abs(vals - split_vals) <= value_bound)
    assert np.all(np.abs(grads - split_grads) <= grad_bound)


@pytest.mark.exactness
@given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 300),
       n_anchors=st.integers(0, 4), m=st.one_of(st.sampled_from([1, 2, 4096, 10**6]),
                                                st.integers(1, 5000)))
@settings(max_examples=100, deadline=None)
def test_counted_noise_mean_within_rounding_of_the_gathered_mean(seed, n_samples, n_anchors,
                                                                 m):
    model, _ = model_pair(seed, 2, 3, n_anchors, n_samples=n_samples)
    idx = rng(seed).integers(0, n_samples, size=m)
    got = -model._q(np.empty(0), idx)[model.atom_weights.size :]
    assert same_bits(got, counted_mean(model, idx))
    assert np.all(np.abs(got - model.eta[idx].mean(axis=0)) <= counted_mean_bound(model, idx))


def test_certificate_memory_does_not_grow_with_the_batch():
    # a gathered mean of 10^6 indices would hold a 10^6 x 3 array, 24 MB;
    # the counted one holds the n = 64 counts, whatever m
    model = theory_problem().model
    g = rng(8)
    support, t = model.domain.sample_uniform(g, size=8), model.domain.sample_uniform(g, size=16)
    coef = g.uniform(-1.0, 1.0, size=8)
    peaks = []
    for m in (10**3, 10**6):
        idx = g.integers(0, model.n_samples, size=m)
        peaks.append([traced_peak(lambda: model.certificate_field(t, support, coef, idx)),
                      traced_peak(lambda: model.pushed_values(support, coef, idx, t))])
    assert all(big <= small + 1024 for small, big in zip(*peaks))


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3]),
       n_atoms=st.integers(1, 5), n_anchors=st.integers(0, 4),
       p=st.one_of(st.integers(1, 12), st.sampled_from([64, 65, 512, 999, 1000])),
       kappa=st.sampled_from([1e-3, 0.05, 1.0]))
@settings(max_examples=60, deadline=None)
def test_objective_from_one_block_matches_the_expanded_form(seed, dim, n_atoms, n_anchors,
                                                           p, kappa):
    model, ref = model_pair(seed, dim, n_atoms, n_anchors)
    g = rng(seed)
    t = model.domain.sample_uniform(g, size=p)
    weights, signs = g.uniform(0.01, 1.0, size=p), g.choice([-1.0, 1.0], size=p)
    assert model.objective_value(t, weights, signs, kappa) == \
        ref.objective_value(t, weights, signs, kappa)


def test_each_evaluation_builds_one_kernel_matrix(monkeypatch):
    real, built = SyntheticKernel._kernel, []

    def counting(self, a, b, *args, **kwargs):
        built.append((len(a), len(b)))
        return real(self, a, b, *args, **kwargs)

    monkeypatch.setattr(SyntheticKernel, "_kernel", counting)
    model, _ = model_pair(3, 2, 3, 3)
    # |y|^2 of the model and of its reference twin, each at construction
    assert built == [(6, 6)] * 2
    g = rng(4)
    support, t = model.domain.sample_uniform(g, size=6), model.domain.sample_uniform(g, size=4)
    for idx in (None, g.integers(0, 64, size=16)):
        built.clear()
        evaluations(model, t, support, np.ones(6), idx)
        assert built == [(4, 6 + 6)] * 2 + [(4, 6)] * 2
    built.clear()
    assert model.y_norm_sq == model.y_norm_sq
    assert built == []  # read, not built
    # the loss: <y, phi_T>, then K(T, T)
    model.objective_value(t, np.ones(4), np.ones(4), 0.1)
    assert built == [(4, 6), (4, 4)]


def noise_means(model):
    """Makes the model log the batch size of every noise mean it computes,
    None for the exact mean; returns the log."""
    log, real = [], model._q

    def counting(coef, idx):
        log.append(None if idx is None else len(idx))
        return real(coef, idx)

    model._q = counting
    return log


def test_noise_mean_is_kept_for_its_batch_only():
    # the pushed evaluation computes its batch's mean once for the pushed
    # support and the candidates; a stateless evaluation computes it on
    # every call
    model, ref = model_pair(5, 2, 3, 3)
    log = noise_means(model)
    g = rng(6)
    support, t = model.domain.sample_uniform(g, size=5), model.domain.sample_uniform(g, size=3)
    coef = g.uniform(-1.0, 1.0, size=5)
    for idx, size in ((g.integers(0, 64, size=32), 32), (None, None)):
        before = len(log)
        vals, at_t, _ = model.pushed_values(support, coef, idx, t)
        assert same_bits(vals, ref.certificate_values(support, support, coef, idx))
        assert same_bits(at_t, ref.certificate_values(t, support, coef, idx))
        assert log[before:] == [size]
    a = g.integers(0, 64, size=32)
    before = len(log)
    for _ in range(2):
        assert same_bits(model.certificate_values(t, support, coef, a),
                         ref.certificate_values(t, support, coef, a))
    assert log[before:] == [32, 32]


def theory_problem():
    return cli.build_problem(load_config(CONFIGS / "synthetic_theory.cfg"))[0]


def test_iteration_computes_two_noise_means():
    # the support's field computes its batch's mean; the pushed certificate
    # and the candidates share the second one. The loss reads the exact mean.
    problem = theory_problem()
    log = noise_means(problem.model)
    config = loop_config(random_swarm(problem, rng(2)), plan=AnytimePlan(alpha=0.5),
                         birth_rule=BirthRule(threshold_coeff=0.05))
    run(config, problem)
    assert [m for m in log if m is not None] == \
        [m for k in range(1, config.k_iters + 1) for m in [config.plan.at(k)[1]] * 2]


def run_files(tmp_path, name, iterations=200):
    spec = load_config(CONFIGS / "synthetic_theory.cfg")
    spec.run["iterations"] = iterations
    problem, extras = cli.build_problem(spec)
    config, _ = cli.build_run_config(spec, problem, extras)
    result = run(config, problem)
    out = tmp_path / name
    out.mkdir()
    trace_to_csv(result.trace, out / "trace.csv")
    result.final_swarm.to_csv(out / "final_swarm.csv")
    return problem, result, out


@pytest.mark.exactness
def test_theory_run_writes_the_bytes_of_the_signed_measure_path(tmp_path, monkeypatch):
    problem, result, shipped = run_files(tmp_path, "shipped")
    assert type(problem.model) is SyntheticKernel
    assert result.total_births > 0 and result.total_deaths > 0
    monkeypatch.setattr(cli, "SyntheticKernel", Signed)
    problem, _, reference = run_files(tmp_path, "reference")
    assert type(problem.model) is Signed
    for name in ("trace.csv", "final_swarm.csv"):
        assert (shipped / name).read_bytes() == (reference / name).read_bytes()


@pytest.mark.exactness
def test_support_field_reuses_the_pushed_block_after_an_unchanged_iteration(monkeypatch):
    # an iteration builds one block ``K([T'; C], P')`` for its deaths and its
    # candidates; the next support field builds ``K(T, P)`` unless nothing
    # died and nothing was born, when it reads ``ev``'s rows of that block.
    # The loss at cadence builds its own and is not counted
    spec = load_config(CONFIGS / "synthetic_theory.cfg")
    spec.run["iterations"] = 300
    problem, extras = cli.build_problem(spec)
    config, _ = cli.build_run_config(spec, problem, extras)
    model, real_loss = problem.model, runner.loss
    real_kernel, real_field = model._kernel, model.support_field
    builds, in_loss = [], [True]  # builds per iteration, outside the loss

    def kernel(*args, **kw):
        if not in_loss[0]:
            builds[-1] += 1
        return real_kernel(*args, **kw)

    def field(*args, **kw):  # the first call of each iteration
        builds.append(0)
        in_loss[0] = False
        return real_field(*args, **kw)

    def loss(*args, **kw):  # the last call of an iteration at cadence
        in_loss[0] = True
        return real_loss(*args, **kw)

    model._kernel, model.support_field = kernel, field
    monkeypatch.setattr(runner, "loss", loss)
    result = run(config, problem)
    # the first support field has no pushed evaluation to read
    changed = [True] + [rec.births + rec.deaths > 0 for rec in result.trace[1:-1]]
    assert builds == [2 if c else 1 for c in changed]
    assert 0 < changed.count(False) < len(changed)
