"""``SyntheticKernel``'s certificate as the weighted kernel of one signed
measure.

The observation is a signed point measure, so the certificate
``K(t, S) c - <y, phi_t>`` is the weighted kernel of the point set
``P = [S; atoms; anchors]`` with coefficients ``q = [c; -w; -eta_b]``, where
``eta_b`` is the batch's noise mean. Each certificate evaluation builds one
kernel matrix ``K(t, P)``; its values and gradients must have the bits of
``weighted_kernel(t, P, q)`` and ``weighted_grad1_kernel(t, P, q)``, which is
how ``Signed`` below builds them. ``Reference`` composes the certificate from
the four primitives; it sums the same products in two groups, so the two
agree within the summation bound ``signed_sum_bound`` of
``test_certificate_field.py``. The observation alone is the point set
``[atoms; anchors]`` weighted by ``[w; eta_b]`` (``observation``):
``y_inner_many`` and ``grad_y_inner_many`` must have the bits of one product
each against it, and stay within the same summation bound of the two
products against the atoms and the anchors apart. The loss is the base
class's expanded form, which reads ``<y, phi_T>`` from the model's
``y_inner_many`` and builds ``K(T, T)`` on its own; it must give the bits of
the reference's.

A batch's noise mean is counted, ``bincount(idx, minlength=n) @ eta / m``,
with no m x r gather, so an evaluation's memory does not grow with m; it
stays within the summation bound ``counted_mean_bound`` of the gathered
``eta[idx].mean(axis=0)``. The pushed certificate and the birth candidates
share a batch, so ``pushed_values`` computes its mean once and hands
``(P, q)`` to ``candidate_values`` in ``ev``; every stateless evaluation
computes its own mean. That the loop evaluations have the bits of the
stateless ones and keep nothing in the model is checked for every model in
``test_loop_evaluations.py``. CI runs the bit and bound tests again with
OpenBLAS on two threads.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import conicswarm.cli as cli
import conicswarm.kernels as kernels
from conicswarm.birth_death import BirthRule
from conicswarm.config import load_config
from conicswarm.domain import Box
from conicswarm.kernels import KernelModel, SyntheticKernel
from conicswarm.runner import run, trace_to_csv
from conicswarm.schedules import AnytimePlan
from conicswarm.verify import random_swarm
from helpers import loop_config, rng, same_bits, traced_peak
from test_certificate_field import counted_mean, signed_field, signed_sum_bound
from test_weighted_kernel import EPS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def counted_mean_bound(model, idx):
    """Bound on ``|counted_mean - eta[idx].mean(axis=0)|``, per anchor:
    ``1.01 (n + m + 1) u A / m`` with ``u = eps / 2``, ``m = len(idx)``
    and ``A = sum_i |eta[idx_i]|`` over the batch.

    Both means divide a sum of the same m terms by m. The counted one sums
    the n products ``count_j eta_j`` (each count is an exact float) in one
    product, in any order: each term meets at most n + 1 roundings, with
    the division. The gathered one sums the m rows and divides: at most m
    roundings. A term that meets k roundings is off by at most
    ``gamma_k = k u / (1 - k u)`` of its size, so the two differ by at most
    ``(gamma_{n+1} + gamma_m) A / m``; 1.01 covers the denominators and the
    rounding of the bound's own sum. Over 400 draws with n up to 300 and m
    up to 5,000 the measured difference reached 0.12 of the bound."""
    n, m = model.n_samples, len(idx)
    total = np.bincount(idx, minlength=n) @ np.abs(model.eta)
    return 1.01 * (n + m + 1) * (EPS / 2) * total / m


def observation(model, idx):
    """The observation as one weighted point set: ``[atoms; anchors]`` and
    ``[w; eta_b]``, with the counted noise mean."""
    return (np.vstack([model.atom_positions, model.anchors]),
            np.concatenate([model.atom_weights, counted_mean(model, idx)]))


class Reference(SyntheticKernel):
    """The certificate composed from the four primitives, each building one
    kernel matrix per point set, with the counted noise mean, and its
    stateless loop evaluations."""

    pushed_values = KernelModel.pushed_values
    candidate_values = KernelModel.candidate_values

    @property
    def y_norm_sq(self):
        pts, coefs = observation(self, None)
        return float(coefs @ self.kernel_matrix(pts, pts) @ coefs)

    def y_inner_many(self, t, idx=None):
        return self.weighted_kernel(t, *observation(self, idx))

    def grad_y_inner_many(self, t, idx=None):
        return self.weighted_grad1_kernel(t, *observation(self, idx))

    def certificate_field(self, t, support, coef, idx=None):
        return (self.weighted_kernel(t, support, coef) - self.y_inner_many(t, idx),
                self.weighted_grad1_kernel(t, support, coef) - self.grad_y_inner_many(t, idx))


class Signed(Reference):
    """``Reference`` with the certificate as the weighted kernel of the
    signed measure: one kernel matrix per evaluation and primitive."""

    def certificate_values(self, t, support, coef, idx=None):
        return signed_field(self, t, support, coef, idx)[0]

    def certificate_field(self, t, support, coef, idx=None):
        return signed_field(self, t, support, coef, idx)


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


#: small sizes, and run-scale ones past ``_PRODUCT_ENTRIES`` and BLAS blocking
SUPPORTS = st.one_of(st.integers(0, 12), st.sampled_from([64, 65, 512, 999, 1000]),
                     st.integers(13, 1000))
POINTS = st.one_of(st.integers(0, 12), st.sampled_from([64, 65, 640, 700]),
                   st.integers(13, 700))
BATCHES = st.one_of(st.none(), st.sampled_from([1, 800]), st.integers(1, 800))


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
    vals, ev = model.pushed_values(support, coef, idx)
    assert same_bits(vals, ref.certificate_values(support, support, coef, idx))
    assert same_bits(model.candidate_values(ev, t), want[2])
    assert model.y_norm_sq == ref.y_norm_sq
    primitives = Reference.certificate_field(ref, t, support, coef, idx)
    for got, expected, bound in zip(want, primitives,
                                    signed_sum_bound(model, t, support, coef, idx)):
        assert np.all(np.abs(got - expected) <= bound)


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
    assert same_bits(grads, kernels._gauss_grad(k, t, points, q, model.sigma**2))
    # the atoms and the anchors apart sum the same terms in two groups
    apart = [(model.atom_positions, q[:n_atoms]), (model.anchors, q[n_atoms:])]
    split_vals = sum(model.kernel_matrix(t, pts) @ c for pts, c in apart)
    split_grads = sum(model.weighted_grad1_kernel(t, pts, c) for pts, c in apart)
    value_bound, grad_bound = signed_sum_bound(model, t, np.empty((0, dim)), np.empty(0), idx)
    assert np.all(np.abs(vals - split_vals) <= value_bound)
    assert np.all(np.abs(grads - split_grads) <= grad_bound)


@given(seed=st.integers(0, 2**32 - 1), n_samples=st.integers(1, 300),
       n_anchors=st.integers(0, 4), m=st.one_of(st.sampled_from([1, 2, 4096, 10**6]),
                                                st.integers(1, 5000)))
@settings(max_examples=100, deadline=None)
def test_counted_noise_mean_within_rounding_of_the_gathered_mean(seed, n_samples, n_anchors,
                                                                 m):
    model, _ = model_pair(seed, 2, 3, n_anchors, n_samples=n_samples)
    idx = rng(seed).integers(0, n_samples, size=m)
    got = model._y_coef(idx)[model.atom_weights.size :]
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
                      traced_peak(lambda: model.pushed_values(support, coef, idx))])
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
    model, _ = model_pair(3, 2, 3, 3)
    g = rng(4)
    support, t = model.domain.sample_uniform(g, size=6), model.domain.sample_uniform(g, size=4)
    real, built = SyntheticKernel._kernel, []

    def counting(self, a, b):
        built.append((len(a), len(b)))
        return real(self, a, b)

    monkeypatch.setattr(SyntheticKernel, "_kernel", counting)
    for idx in (None, g.integers(0, 64, size=16)):
        built.clear()
        evaluations(model, t, support, np.ones(6), idx)
        assert built == [(4, 6 + 6)] * 2 + [(4, 6)] * 2
    built.clear()
    assert model.y_norm_sq == model.y_norm_sq
    assert built == [(6, 6)]  # computed once
    built.clear()  # the loss, after |y|^2: <y, phi_T>, then K(T, T)
    model.objective_value(t, np.ones(4), np.ones(4), 0.1)
    assert built == [(4, 6), (4, 4)]


def noise_means(model):
    """Makes the model log the batch size of every noise mean it computes,
    None for the exact mean; returns the log."""
    log, real = [], model._y_coef

    def counting(idx):
        log.append(None if idx is None else len(idx))
        return real(idx)

    model._y_coef = counting
    return log


def test_noise_mean_is_kept_for_its_batch_only():
    # the pushed evaluation computes its batch's mean once and the
    # candidates read it from ``ev``; a stateless evaluation computes it on
    # every call
    model, ref = model_pair(5, 2, 3, 3)
    log = noise_means(model)
    g = rng(6)
    support, t = model.domain.sample_uniform(g, size=5), model.domain.sample_uniform(g, size=3)
    coef = g.uniform(-1.0, 1.0, size=5)
    for idx, size in ((g.integers(0, 64, size=32), 32), (None, None)):
        before = len(log)
        vals, ev = model.pushed_values(support, coef, idx)
        assert same_bits(vals, ref.certificate_values(support, support, coef, idx))
        for _ in range(2):
            assert same_bits(model.candidate_values(ev, t),
                             ref.certificate_values(t, support, coef, idx))
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


def test_theory_run_writes_the_bytes_of_the_signed_measure_path(tmp_path, monkeypatch):
    problem, result, shipped = run_files(tmp_path, "shipped")
    assert type(problem.model) is SyntheticKernel
    assert result.total_births > 0 and result.total_deaths > 0
    monkeypatch.setattr(cli, "SyntheticKernel", Signed)
    problem, _, reference = run_files(tmp_path, "reference")
    assert type(problem.model) is Signed
    for name in ("trace.csv", "final_swarm.csv"):
        assert (shipped / name).read_bytes() == (reference / name).read_bytes()

