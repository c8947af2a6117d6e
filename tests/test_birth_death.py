import math

import numpy as np
import pytest

from conicswarm.birth_death import SQRT2, BirthRule, DeathRule, apply_mass_tweak, \
    evaluate_birth_candidates, select_deaths
from conicswarm.objective import certificate, loss
from conicswarm.oracle import OracleConfig, draw_batch
from conicswarm.swarm import ParticleSwarm
from conicswarm.verify import make_synthetic_problem, random_swarm


def rng(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def swarm_of(weights, certs_dim=1):
    p = len(weights)
    return ParticleSwarm(weights, np.ones(p), np.zeros((p, certs_dim)))


def births(problem, swarm, rule, eps_k, m_k, idx, g):
    """The accepted candidates of one birth step."""
    return evaluate_birth_candidates(problem, swarm, rule, eps_k, m_k, idx, g)[0]


class TestSelectDeaths:
    def test_all_negative_certs_spare_everyone(self):
        sw = swarm_of([0.1, 0.2, 0.3])
        for rule in (DeathRule(kind="guarded"), DeathRule(kind="ratio", tau_death=5.0)):
            out = select_deaths(sw, [-0.1, -0.5, -0.01], rule, 1.0, rng(1))
            assert out.size == 0

    def test_ratio_threshold_arithmetic(self):
        # tau_death = 5: certificate 6 at weight 1 dies, certificate 4 does not
        sw = swarm_of([1.0, 1.0])
        out = select_deaths(sw, [6.0, 4.0], DeathRule(kind="ratio", tau_death=5.0),
                            0.1, rng(2))
        assert out.tolist() == [0]

    def test_guarded_weight_guard(self):
        eps = 0.25
        sw = swarm_of([2 * eps, 0.9 * SQRT2 * eps])
        out = select_deaths(sw, [1.0, 1.0], DeathRule(kind="guarded"), eps, rng(3))
        assert out.tolist() == [1]  # the 2*eps particle never qualifies

    def test_single_scan_selects_at_most_one(self):
        eps = 1.0
        sw = swarm_of([0.1] * 50)
        counts = []
        g = rng(4)
        for _ in range(50):
            out = select_deaths(sw, np.ones(50), DeathRule(kind="guarded", scan="single"),
                                eps, g)
            counts.append(out.size)
            assert out.size <= 1
        assert any(c == 1 for c in counts)

    def test_single_scan_respects_qualification(self):
        eps = 0.01
        sw = swarm_of([0.5] * 10)  # all too heavy to die
        g = rng(5)
        for _ in range(20):
            out = select_deaths(sw, np.ones(10), DeathRule(kind="guarded", scan="single"),
                                eps, g)
            assert out.size == 0

    def test_empty_swarm(self):
        out = select_deaths(ParticleSwarm.empty(2), [], DeathRule(), 0.1, rng(6))
        assert out.size == 0


class TestProposeBirths:
    def test_infinite_threshold_accepts_all(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(7))
        rule = BirthRule(threshold_coeff=math.inf, candidates_per_iter=16)
        eps = 0.03
        born = births(problem, sw, rule, eps, 64, None, rng(8))
        assert len(born) == 16
        assert np.all(born.weights == eps)
        assert all(problem.domain.contains(p) for p in born.positions)

    def test_minus_infinite_threshold_accepts_none(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(7))
        rule = BirthRule(threshold_coeff=-math.inf, candidates_per_iter=16)
        assert len(births(problem, sw, rule, 0.03, 64, None, rng(8))) == 0

    def test_explicit_birth_mass_overrides_eps(self):
        problem = make_synthetic_problem()
        sw = random_swarm(problem, rng(9))
        rule = BirthRule(threshold_coeff=math.inf, candidates_per_iter=4, birth_mass=0.5)
        born = births(problem, sw, rule, 0.03, 64, None, rng(10))
        assert len(born) == 4 and np.all(born.weights == 0.5)

    def test_unsigned_problem_births_positive(self):
        problem = make_synthetic_problem(signed=False)
        sw = random_swarm(problem, rng(11))
        rule = BirthRule(threshold_coeff=math.inf, candidates_per_iter=8)
        born = births(problem, sw, rule, 0.01, 16, None, rng(12))
        assert len(born) == 8 and np.all(born.signs == 1.0)

    def test_acceptance_rate_on_planted_negative_region(self):
        # empty swarm, strong observation: the certificate kappa - <y, phi>
        # is deeply negative on a region of known volume fraction
        problem = make_synthetic_problem(signed=False, noise_scale=0.02, seed=13)
        model = problem.model
        d = problem.domain.dim
        noise_val, noise_grad = model.noise_sup()
        cfg = OracleConfig.for_dim(d, max(noise_val, noise_grad))
        m = 256
        level = cfg.threshold_scale * math.sqrt(math.log(m) / m)
        sw = ParticleSwarm.empty(d)

        # measure the deep-violation fraction q on a dense grid
        g = rng(14)
        grid = problem.domain.sample_uniform(g, size=20_000)
        exact = certificate(problem, sw, grid, np.ones(len(grid)))
        q = float(np.mean(exact < -2 * level))
        assert q > 0.05, "fixture must have a substantial violation region"

        rule = BirthRule(threshold_coeff=cfg.threshold_scale, candidates_per_iter=1)
        trials = 4000
        accepted = 0
        for _ in range(trials):
            batch = draw_batch(g, m, model.n_samples)
            accepted += len(births(problem, sw, rule, 0.01, m, batch, g))
        rate = accepted / trials
        bound = q - m ** (-cfg.tail_exponent)
        sigma = math.sqrt(q * (1 - q) / trials)
        assert rate >= bound - 3 * sigma

    def test_acceptance_rate_when_certificate_everywhere_positive(self):
        # huge kappa pushes the exact certificate far above the threshold;
        # spurious acceptances are bounded by the tail probability
        problem = make_synthetic_problem(signed=False, noise_scale=0.05, seed=15,
                                         kappa=5.0)
        model = problem.model
        noise_val, noise_grad = model.noise_sup()
        cfg = OracleConfig.for_dim(problem.domain.dim, max(noise_val, noise_grad))
        m = 256
        level = cfg.threshold_scale * math.sqrt(math.log(m) / m)
        sw = ParticleSwarm.empty(problem.domain.dim)
        g = rng(16)
        grid = problem.domain.sample_uniform(g, size=5000)
        exact = certificate(problem, sw, grid, np.ones(len(grid)))
        assert exact.min() >= 2 * level, "fixture must be uniformly positive"

        rule = BirthRule(threshold_coeff=cfg.threshold_scale, candidates_per_iter=1)
        trials = 4000
        accepted = 0
        for _ in range(trials):
            batch = draw_batch(g, m, model.n_samples)
            accepted += len(births(problem, sw, rule, 0.01, m, batch, g))
        rate = accepted / trials
        bound = m ** (-cfg.tail_exponent)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert rate <= bound + 3 * sigma

    def test_candidate_order_preserved(self):
        problem = make_synthetic_problem()
        sw = ParticleSwarm.empty(2)
        rule = BirthRule(threshold_coeff=math.inf, candidates_per_iter=5)
        born, cands, _, _, _ = evaluate_birth_candidates(problem, sw, rule, 0.01, 16,
                                                         None, rng(17))
        assert np.array_equal(born.positions, cands)


class TestApplyMassTweak:
    def test_noop(self):
        sw = swarm_of([0.1, 0.2])
        out = apply_mass_tweak(sw, [], ParticleSwarm.empty(1))
        assert np.array_equal(out.weights, sw.weights)
        assert np.array_equal(out.positions, sw.positions)

    def test_counts_and_order(self):
        sw = ParticleSwarm([0.1, 0.2, 0.3], [1, -1, 1], np.arange(3.0).reshape(3, 1))
        born = ParticleSwarm([0.05], [1], [[9.0]])
        out = apply_mass_tweak(sw, [1], born)
        assert len(out) == 3 - 1 + 1
        assert np.allclose(out.positions.ravel(), [0.0, 2.0, 9.0])
        assert out.weights[-1] == 0.05

    def test_duplicate_death_indices_rejected(self):
        sw = swarm_of([0.1, 0.2])
        with pytest.raises(ValueError):
            apply_mass_tweak(sw, [0, 0], ParticleSwarm.empty(1))

    def test_out_of_range_rejected(self):
        sw = swarm_of([0.1])
        with pytest.raises(ValueError):
            apply_mass_tweak(sw, [3], ParticleSwarm.empty(1))

    @pytest.mark.parametrize("p0,total_deaths,total_births,p_final", [
        (20, 78, 97, 39),    # reported mixture end state
        (300, 269, 29, 60),  # reported regression end state
    ])
    def test_accounting_identities(self, p0, total_deaths, total_births, p_final):
        # replay a random birth/death stream with the reported totals and
        # confirm the count bookkeeping lands on the reported final size
        g = rng(18)
        sw = ParticleSwarm(np.full(p0, 0.01), np.ones(p0), np.zeros((p0, 2)))
        deaths_left, births_left = total_deaths, total_births
        while deaths_left or births_left:
            d = min(deaths_left, int(g.integers(0, 4)), max(len(sw) - 1, 0))
            b = min(births_left, int(g.integers(0, 5)))
            idx = g.choice(len(sw), size=d, replace=False) if d else []
            born = ParticleSwarm(np.full(b, 0.01), np.ones(b), np.zeros((b, 2)))
            expected = len(sw) - d + b
            sw = apply_mass_tweak(sw, idx, born)
            assert len(sw) == expected
            deaths_left -= d
            births_left -= b
        assert len(sw) == p0 - total_deaths + total_births == p_final


class TestTweakEffects:
    def test_guarded_death_energy_increase_bounded(self):
        # with exact nonnegative certificates the cross term only helps, so
        # removing guarded particles raises J by at most sum w^2 K_max / 2
        problem = make_synthetic_problem(seed=19, signed=False)
        g = rng(20)
        eps = 0.05
        heavy = random_swarm(problem, g, max_particles=4)
        light = ParticleSwarm(np.full(6, 0.9 * eps), np.ones(6),
                              problem.domain.sample_uniform(g, size=6))
        sw = ParticleSwarm(np.concatenate([heavy.weights * 5, light.weights]),
                           np.concatenate([heavy.signs, light.signs]),
                           np.vstack([heavy.positions, light.positions]))
        certs = certificate(problem, sw, sw.positions, sw.signs)
        deaths = select_deaths(sw, certs, DeathRule(kind="guarded"), eps, g)
        if deaths.size == 0:
            pytest.skip("fixture produced no qualifying deaths")
        before = loss(problem, sw)
        after_sw = apply_mass_tweak(sw, deaths, ParticleSwarm.empty(2))
        k_max = 1.0  # unit-normalized kernel
        budget = 0.5 * k_max * float(np.sum(sw.weights[deaths] ** 2))
        assert loss(problem, after_sw) - before <= budget + 1e-12

    def test_certificate_perturbation_of_single_tweak(self):
        # one guarded death plus one birth moves the certificate uniformly by
        # at most (sqrt(2) + 1) * eps
        problem = make_synthetic_problem(seed=21, signed=False)
        g = rng(22)
        eps = 0.04
        sw = ParticleSwarm(
            np.concatenate([[0.5, 0.4], np.full(4, 0.8 * eps)]),
            np.ones(6),
            problem.domain.sample_uniform(g, size=6),
        )
        certs = certificate(problem, sw, sw.positions, sw.signs)
        deaths = select_deaths(sw, certs, DeathRule(kind="guarded", scan="single"), eps, g)
        born = ParticleSwarm([eps], [1], problem.domain.sample_uniform(g)[None, :])
        after = apply_mass_tweak(sw, deaths, born)
        grid = problem.domain.sample_uniform(g, size=400)
        ones = np.ones(len(grid))
        before_vals = certificate(problem, sw, grid, ones)
        after_vals = certificate(problem, after, grid, ones)
        assert np.abs(after_vals - before_vals).max() <= (SQRT2 + 1) * eps + 1e-12


def test_rule_validation():
    with pytest.raises(ValueError):
        DeathRule(kind="bogus")
    with pytest.raises(ValueError):
        DeathRule(kind="ratio", tau_death=0.0)
    with pytest.raises(ValueError):
        BirthRule(threshold_coeff=0.0, candidates_per_iter=0)
    assert BirthRule(threshold_coeff=1.0).threshold(1) == 0.0


@pytest.mark.parametrize("m", [1, 2, 256])
def test_infinite_threshold_keeps_its_sign(m):
    assert BirthRule(threshold_coeff=-math.inf).threshold(m) == -math.inf
    assert BirthRule(threshold_coeff=math.inf).threshold(m) == math.inf


@pytest.mark.parametrize("coeff", [-0.6, 0.0, 0.37, 2.5])
@pytest.mark.parametrize("m", [1, 2, 16, 256, 20640])
def test_finite_threshold_formula(coeff, m):
    expected = coeff * math.sqrt(math.log(m) / m) if m > 1 else 0.0
    assert BirthRule(threshold_coeff=coeff).threshold(m) == expected


def test_nan_threshold_rejected():
    # a NaN level compares false against every certificate, silently stopping births
    with pytest.raises(ValueError, match="NaN"):
        BirthRule(threshold_coeff=math.nan)


@pytest.mark.parametrize("birth_mass", [-0.01, math.nan, math.inf])
def test_bad_birth_mass_rejected(birth_mass):
    # Births carry this weight unchecked inside the loop, so it is checked here.
    with pytest.raises(ValueError, match="birth mass"):
        BirthRule(threshold_coeff=0.0, birth_mass=birth_mass)
    assert BirthRule(threshold_coeff=0.0, birth_mass=0.0).birth_mass == 0.0
