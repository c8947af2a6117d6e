"""Verification suites: exact identities, inequalities and oracle statistics.

Each suite returns a list of check results; a suite passes when every
check does. The suites double as the acceptance tests and as the target
of the ``verify`` command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audit import audit_assumptions
from .domain import Ball, Box
from .birth_death import BirthRule, guarded_threshold_coeff, tail_exponent_for_dim
from .dynamics import descent_check
from .kernels import GmmKernel, ReluKernel, SyntheticKernel
from .objective import Problem, certificate, certificate_and_grad, frechet_gap, loss
from .oracle import draw_batch
from .schedules import calibrate
from .swarm import ParticleSwarm

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite",
           "suite_frechet", "suite_descent", "suite_projection",
           "suite_oracle", "suite_hoeffding", "suite_volume"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def make_synthetic_problem(seed=0, dim=2, sigma=1.2, noise_scale=0.02, n_samples=64,
                           signed=True, kappa=1e-3):
    rng = _rng(seed)
    domain = Box(np.zeros(dim), np.ones(dim))
    n_atoms = 3
    positions = domain.sample_uniform(rng, size=n_atoms) * 0.8 + 0.1
    weights = rng.uniform(0.2, 0.5, size=n_atoms)
    if signed:
        weights *= rng.choice([-1.0, 1.0], size=n_atoms)
    model = SyntheticKernel(domain, sigma, weights, positions, n_samples=n_samples,
                            noise_scale=noise_scale, seed=seed + 1)
    return Problem(model=model, domain=domain, kappa=kappa, signed=signed)


def make_gmm_problem(seed=0, n=80, tau=0.3, kappa=1e-3):
    rng = _rng(seed)
    data = np.vstack([
        rng.standard_normal((n // 2, 2)) + np.array([2.5, 0.0]),
        rng.standard_normal((n - n // 2, 2)) + np.array([-2.5, 0.0]),
    ])
    domain = Box(data.min(axis=0) - 1.0, data.max(axis=0) + 1.0)
    return Problem(model=GmmKernel(data, tau, domain), domain=domain, kappa=kappa, signed=False)


def make_relu_problem(seed=0, n=64, d=3, kappa=1e-3):
    rng = _rng(seed)
    x = rng.standard_normal((n, d))
    y = np.tanh(x @ rng.standard_normal(d)) + 0.1 * rng.standard_normal(n)
    model = ReluKernel(x, y)
    return Problem(model=model, domain=Ball(np.zeros(d + 1), 1.0), kappa=kappa, signed=True)


def random_swarm(problem, rng, max_particles=6, tv=None):
    p = int(rng.integers(1, max_particles + 1))
    positions = problem.domain.sample_uniform(rng, size=p)
    weights = rng.uniform(0.05, 1.0, size=p)
    if tv is not None:
        weights *= tv / weights.sum()
    signs = rng.choice([-1.0, 1.0], size=p) if problem.signed else np.ones(p)
    return ParticleSwarm(weights, signs, positions)


def suite_frechet(seed=0, n_pairs=100, tol=1e-9):
    """Quadratic-expansion identity of the objective, per kernel model."""
    builders = [("synthetic", make_synthetic_problem),
                ("gmm", make_gmm_problem),
                ("relu", make_relu_problem)]
    results = []
    for name, build in builders:
        problem = build(seed=seed)
        rng = _rng(seed + 17)
        worst = 0.0
        for _ in range(n_pairs):
            nu = random_swarm(problem, rng)
            sigma = ParticleSwarm(
                rng.uniform(0.01, 0.6, size=3),
                rng.choice([-1.0, 1.0], size=3),
                problem.domain.sample_uniform(rng, size=3),
            )
            gap = frechet_gap(problem, nu, sigma) / (1.0 + abs(loss(problem, nu)))
            worst = max(worst, gap)
        results.append(CheckResult(
            f"frechet/{name}", worst <= tol,
            f"max relative expansion gap {worst:.3e} over {n_pairs} pairs (tol {tol:g})"))
    return results


def suite_descent(seed=0, n_swarms=100, tol=1e-10):
    """One-step energy decrease at calibrated rates on the smooth model."""
    problem = make_synthetic_problem(seed=seed, signed=True)
    rng = _rng(seed + 5)
    bounds = audit_assumptions(problem.model, problem.domain, 160, rng)
    cal = calibrate(bounds, nu0_tv=1.0, kappa=problem.kappa,
                    lambda_x=problem.domain.volume(),
                    y_norm=math.sqrt(problem.model.y_norm_sq), stochastic=False)
    alpha, beta = cal.alpha, cal.chosen_beta
    failures = 0
    worst_slack = -math.inf
    for _ in range(n_swarms):
        swarm = random_swarm(problem, rng, max_particles=12,
                             tv=float(rng.uniform(0.05, cal.tv_bound)))
        certs, grads = certificate_and_grad(problem, swarm, swarm.positions, swarm.signs)
        _, pis = problem.domain.prox_step(swarm.positions, grads, beta)
        holds, lhs, rhs = descent_check(problem, swarm, alpha, beta, certs, pis, tol=tol)
        worst_slack = max(worst_slack, lhs - rhs)
        failures += 0 if holds else 1
    return [CheckResult(
        "descent/calibrated", failures == 0,
        f"{n_swarms - failures}/{n_swarms} swarms satisfied the descent bound "
        f"(worst lhs-rhs {worst_slack:.3e}, alpha {alpha:.3e}, beta {beta:.3e})")]


def suite_projection(seed=0, n_draws=10_000, tol=1e-12):
    """Correlation and 1-Lipschitz properties of the projected step."""
    domains = [("box", Box([-1.0, -0.5], [2.0, 1.5])),
               ("ball", Ball([0.3, -0.2], 1.7))]
    results = []
    rng = _rng(seed + 11)
    for name, dom in domains:
        t = dom.sample_uniform(rng, size=n_draws)
        # unit-scale descent vectors: the absolute tolerance only makes
        # sense when <v, pi> itself is O(1)
        scale = np.exp(rng.uniform(np.log(1e-2), np.log(3.0), size=(n_draws, 1)))
        v1 = rng.standard_normal((n_draws, dom.dim)) * scale
        v2 = rng.standard_normal((n_draws, dom.dim)) * scale
        beta = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), size=n_draws))
        corr_ok = lip_ok = shrink_ok = True
        worst_corr = worst_lip = 0.0
        for i in range(n_draws):
            _, pi1 = dom.prox_step(t[i], v1[i], float(beta[i]))
            _, pi2 = dom.prox_step(t[i], v2[i], float(beta[i]))
            corr_gap = float(v1[i] @ pi1) - float(pi1 @ pi1)
            worst_corr = min(worst_corr, corr_gap)
            corr_ok &= corr_gap >= -tol
            lip_gap = np.linalg.norm(pi1 - pi2) - np.linalg.norm(v1[i] - v2[i])
            worst_lip = max(worst_lip, lip_gap)
            lip_ok &= lip_gap <= tol
            shrink_ok &= np.linalg.norm(pi1) <= np.linalg.norm(v1[i]) + tol
        results.append(CheckResult(
            f"projection/{name}", bool(corr_ok and lip_ok and shrink_ok),
            f"{n_draws} draws: worst correlation slack {worst_corr:.2e}, "
            f"worst Lipschitz excess {worst_lip:.2e}"))
    return results


def _batch_certificates(problem, swarm, point, rng, m, count):
    """``count`` estimates of the certificate at ``point``, each on a fresh
    batch of ``m`` samples drawn from ``rng``."""
    sign, n = np.ones(1), problem.model.n_samples
    return np.array([certificate(problem, swarm, point, sign, draw_batch(rng, m, n))[0]
                     for _ in range(count)])


def suite_oracle(seed=0, n_batches=100_000):
    """Unbiasedness of the mini-batch certificate and 1/sqrt(m) noise decay."""
    results = []
    for name, build in [("relu", make_relu_problem), ("gmm", make_gmm_problem)]:
        problem = build(seed=seed)
        rng = _rng(seed + 23)
        swarm = random_swarm(problem, rng, max_particles=5)
        point = problem.domain.sample_uniform(rng)[None, :]
        exact = float(certificate(problem, swarm, point, np.ones(1))[0])
        count = n_batches if name == "relu" else n_batches // 5
        vals = _batch_certificates(problem, swarm, point, rng, 64, count)
        sigma_mc = vals.std(ddof=1) / math.sqrt(count)
        dev = abs(vals.mean() - exact)
        results.append(CheckResult(
            f"oracle/unbiased/{name}", dev <= 4.0 * sigma_mc,
            f"|mean - exact| = {dev:.3e} vs 4 sigma = {4.0 * sigma_mc:.3e} "
            f"({count} batches of size 64)"))

    problem = make_relu_problem(seed=seed)
    rng = _rng(seed + 29)
    swarm = random_swarm(problem, rng, max_particles=5)
    point = problem.domain.sample_uniform(rng)[None, :]
    sizes = [16, 64, 256]
    stds = [_batch_certificates(problem, swarm, point, rng, m, 10_000).std(ddof=1)
            for m in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(stds), 1)[0])
    results.append(CheckResult(
        "oracle/sqrt-m-decay", abs(slope + 0.5) <= 0.05,
        f"fitted log-std slope {slope:.4f} across m={sizes} (target -0.5 +/- 0.05)"))
    return results


def suite_hoeffding(seed=0, n_batches=10_000, sizes=(64, 256, 1024)):
    """Spurious-birth bound of the guarded rule a theory run builds, at its levels
    ``BirthRule.threshold(m)``: added to twice the level, the least certificate it
    guards, each batch's error may fall to the level at most ``m^-a`` of the time."""
    problem = make_synthetic_problem(seed=seed, signed=False, noise_scale=0.05)
    rng = _rng(seed + 31)
    exponent = tail_exponent_for_dim(problem.domain.dim)
    rule = BirthRule(threshold_coeff=guarded_threshold_coeff(max(problem.model.noise_sup()),
                                                             exponent))
    swarm = random_swarm(problem, rng, max_particles=4)
    # scan for a point whose exact certificate is nonnegative
    cands = problem.domain.sample_uniform(rng, size=256)
    certs = certificate(problem, swarm, cands, np.ones(len(cands)))
    point = cands[int(np.argmax(certs))][None, :]
    exact = float(certificate(problem, swarm, point, np.ones(1))[0])
    assert exact >= 0.0, "fixture must provide a nonnegative-certificate point"
    results = []
    for m in sizes:
        level = rule.threshold(m)
        spread = _batch_certificates(problem, swarm, point, rng, m, n_batches) - exact
        # births at a point whose exact certificate is twice the level
        rate = np.count_nonzero(2.0 * level + spread <= level) / n_batches
        bound = m ** (-exponent)
        sigma = math.sqrt(bound * (1.0 - bound) / n_batches)
        noisy = float(spread.std()) > 0.0  # guard against a vacuous pass
        results.append(CheckResult(
            f"hoeffding/m={m}", rate <= bound + 3.0 * sigma and noisy,
            f"false-birth rate {rate:.4f} <= m^-a + 3 sigma = {bound + 3.0 * sigma:.4f} "
            f"(a={exponent:.4f}, estimator std {spread.std():.2e})"))
    return results


def _volume_constant(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) / 2.0**d


def suite_volume(seed=0, n_funcs=10, n_mc=40_000):
    """Sub-level volume of Lipschitz dips dominates ``C_d L^-d |v*|^d``.

    Test functions are single negative Gaussian dips with exactly known
    minimum and Lipschitz constant, centered far enough from the boundary
    that the comparison ball lies inside the domain.
    """
    results = []
    for d in (1, 2):
        rng = _rng(seed + 41 + d)
        domain = Box(np.zeros(d), np.ones(d))
        const = _volume_constant(d)
        ok = True
        worst_margin = math.inf
        for _ in range(n_funcs):
            width = float(rng.uniform(0.05, 0.15))
            amp = float(rng.uniform(0.5, 2.0))
            pad = 1.3 * width
            center = rng.uniform(pad, 1.0 - pad, size=d)
            lip = amp * math.exp(-0.5) / width
            v_star = -amp
            pts = domain.sample_uniform(rng, size=n_mc)
            g = -amp * np.exp(-np.sum((pts - center) ** 2, axis=1) / (2.0 * width**2))
            frac = float(np.mean(g <= v_star / 2.0))
            vol_est = frac * domain.volume()
            sigma = domain.volume() * math.sqrt(max(frac * (1.0 - frac), 1e-12) / n_mc)
            bound = const * lip ** (-d) * abs(v_star) ** d
            margin = vol_est - bound + 3.0 * sigma
            worst_margin = min(worst_margin, margin)
            ok &= margin >= 0.0
        results.append(CheckResult(
            f"volume/d={d}", bool(ok),
            f"{n_funcs} dips: min(vol_mc - bound + 3 sigma) = {worst_margin:.3e}"))
    return results


SUITE_NAMES = {
    "frechet": suite_frechet,
    "descent": suite_descent,
    "projection": suite_projection,
    "oracle": suite_oracle,
    "hoeffding": suite_hoeffding,
    "volume": suite_volume,
}


def run_suite(name: str, seed: int = 0):
    """Run one named suite, or all of them."""
    if name == "all":
        out = []
        for fn in SUITE_NAMES.values():
            out.extend(fn(seed=seed))
        return out
    if name not in SUITE_NAMES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITE_NAMES)} or 'all'")
    return SUITE_NAMES[name](seed=seed)
