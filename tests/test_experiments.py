import numpy as np
import pytest

from conicswarm.domain import Ball, Box
from conicswarm.experiments import GmmSpec, gen_gmm, gen_teacher_regression, \
    load_gmm_data, load_regression, summarize, summary_csv, summary_text, heldout_mse
from conicswarm.objective import loss
from conicswarm.runner import RunConfig, run
from conicswarm.schedules import FixedPlan
from conicswarm.swarm import ParticleSwarm
from helpers import network_outputs, rng


class TestGmmSpec:
    def test_ring_weights_on_simplex(self):
        spec = GmmSpec.ring(n_components=5)
        assert spec.weights.sum() == pytest.approx(1.0)
        assert spec.means.shape == (5, 2)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            GmmSpec(means=[[0.0, 0.0]], weights=[0.5], n_samples=10, tau=0.2)

    def test_rejects_fewer_than_two_samples(self):
        # one sample spans no domain box
        with pytest.raises(ValueError, match="n_samples >= 2"):
            GmmSpec.ring(n_samples=1)

    def test_generation_reproducible(self):
        spec = GmmSpec.ring(n_samples=500)
        a, _ = gen_gmm(spec, rng(4))
        b, _ = gen_gmm(spec, rng(4))
        assert np.array_equal(a, b)

    def test_domain_margins_cover_data(self):
        spec = GmmSpec.ring(n_samples=300)
        data, problem = gen_gmm(spec, rng(5))
        assert isinstance(problem.domain, Box)
        assert problem.domain.contains(data).all()
        assert not problem.signed

    def test_empty_swarm_loss_is_half_observation_energy(self):
        spec = GmmSpec.ring(n_samples=200)
        _, problem = gen_gmm(spec, rng(6))
        assert loss(problem, ParticleSwarm.empty(2)) == pytest.approx(
            0.5 * problem.model.y_norm_sq)

    def test_means_near_mode_recover_most_mass_signal(self):
        # sanity: observation inner product peaks near the true means
        spec = GmmSpec.ring(n_samples=4000)
        _, problem = gen_gmm(spec, rng(7))
        at_mean = problem.model.y_inner_many(spec.means[0][None, :])[0]
        g = rng(8)
        far = problem.model.y_inner_many(problem.domain.sample_uniform(g, size=100)).mean()
        assert at_mean > 2 * far


class TestGmmCsv:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("x0,x1\n0.0,1.0\n2.0,3.0\n-1.0,0.5\n")
        data, problem = load_gmm_data(path, tau=0.3)
        assert data.shape == (3, 2)
        assert problem.model.n_samples == 3

    @pytest.mark.parametrize("rows, flat", [
        ("1.5,0.0\n1.5,2.0\n1.5,-1.0\n", "x0"),
        ("0.0,-0.0\n1.0,0.0\n", "x1"),
        ("0.5,0.25\n", "x0, x1"),
    ], ids=["x0", "x1", "one_row"])
    def test_constant_column_rejected(self, tmp_path, rows, flat):
        # a constant coordinate leaves the domain box no width
        path = tmp_path / "samples.csv"
        path.write_text("x0,x1\n" + rows)
        with pytest.raises(ValueError) as err:
            load_gmm_data(path, tau=0.3)
        assert str(err.value) == f"{path}: constant column(s) {flat}: the samples span no box"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text("a,b\n0.0,1.0\n")
        with pytest.raises(ValueError):
            load_gmm_data(path, tau=0.3)


class TestRegressionCsv:
    def make_csv(self, tmp_path, rows, header="f0,f1,target"):
        path = tmp_path / "reg.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def test_load_and_split(self, tmp_path):
        g = rng(9)
        rows = [f"{a},{b},{a + 2 * b + 0.1 * c}" for a, b, c in g.standard_normal((50, 3))]
        dataset, problem = load_regression(self.make_csv(tmp_path, rows), rng(10))
        assert dataset.features.shape == (50, 2)
        assert len(dataset.test_index) == 10
        assert len(dataset.train_index) == 40
        assert np.abs(dataset.features.mean(axis=0)).max() < 1e-9
        assert np.abs(dataset.features.std(axis=0) - 1.0).max() < 1e-9
        assert isinstance(problem.domain, Ball)
        assert problem.domain.dim == 3
        assert problem.signed
        assert problem.model.n_samples == 40

    def test_constant_column_rejected(self, tmp_path):
        rows = [f"1.0,{v},{v}" for v in np.linspace(0, 1, 30)]
        with pytest.raises(ValueError, match="constant"):
            load_regression(self.make_csv(tmp_path, rows), rng(11))

    def test_non_numeric_cell_rejected(self, tmp_path):
        rows = ["0.1,0.2,0.3", "0.2,oops,0.4"]
        with pytest.raises(ValueError, match="non-numeric"):
            load_regression(self.make_csv(tmp_path, rows), rng(12))

    def test_ragged_row_rejected(self, tmp_path):
        rows = ["0.1,0.2,0.3", "0.2,0.3"]
        with pytest.raises(ValueError, match="fields"):
            load_regression(self.make_csv(tmp_path, rows), rng(13))


class TestTeacher:
    def test_teacher_swarm_reproduces_targets_up_to_noise(self):
        dataset, problem, teacher = gen_teacher_regression(400, 5, 4, 0.0, rng(14))
        pred = network_outputs(teacher, dataset.features)
        assert np.abs(pred - dataset.targets).max() < 1e-9

    def test_teacher_loss_is_reachable_reference(self):
        dataset, problem, teacher = gen_teacher_regression(400, 5, 4, 0.05, rng(15))
        j_ref = loss(problem, teacher)
        # the reference is essentially the noise floor plus the TV penalty
        noise_var = (0.05 / dataset.target_std) ** 2
        assert j_ref == pytest.approx(0.5 * noise_var + problem.kappa * teacher.tv_norm(),
                                      rel=0.25)

    def test_teacher_positions_in_domain(self):
        _, problem, teacher = gen_teacher_regression(100, 6, 3, 0.1, rng(16))
        assert problem.domain.contains(teacher.positions).all()

    def test_heldout_mse_uses_heldout_rows_only(self):
        dataset, problem, teacher = gen_teacher_regression(200, 4, 3, 0.0, rng(17))
        # corrupt a training row's target; held-out mse must not move
        before = heldout_mse(teacher, dataset)
        dataset.targets[dataset.train_index[0]] += 100.0
        assert heldout_mse(teacher, dataset) == pytest.approx(before)


class TestSummary:
    def run_tiny(self, seed=1):
        from conicswarm.verify import make_synthetic_problem, random_swarm

        problem = make_synthetic_problem(signed=False)
        init = random_swarm(problem, rng(seed), max_particles=4)
        cfg = RunConfig(init_swarm=init, k_iters=5, plan=FixedPlan(0.1, 0.05, 256, 0.0),
                        full_batch=True, birth_death=False, seed=seed, trace_cadence=1)
        return run(cfg, problem)

    def test_single_run_row(self):
        rows = summarize([("full", self.run_tiny())])
        assert len(rows) == 1
        assert rows[0].method == "full"
        assert rows[0].deaths == 0 and rows[0].births == 0

    def test_text_alignment_and_csv(self):
        rows = summarize([("a", self.run_tiny(1)), ("b", self.run_tiny(2))],
                         {"a": 0.5})
        text = summary_text(rows)
        assert text.splitlines()[0].startswith("Method")
        assert "TestMSE" in text
        csv_text = summary_csv(rows)
        assert csv_text.count("\n") == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


def test_relu_outputs_match_manual():
    sw = ParticleSwarm([0.5, 0.3], [1, -1], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.2]])
    x = np.array([[2.0, -1.0], [0.5, 3.0]])
    manual = 0.5 * np.maximum(x[:, 0], 0) - 0.3 * np.maximum(x[:, 1] + 0.2, 0)
    assert np.allclose(network_outputs(sw, x), manual)
