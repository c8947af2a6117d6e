import numpy as np
import pytest

from conicswarm.objective import loss
from conicswarm.runner import RunConfig
from conicswarm.swarm import ParticleSwarm, lift_signed
from conicswarm.verify import make_synthetic_problem


def test_tv_empty():
    assert ParticleSwarm.empty(2).tv_norm() == 0.0


def test_tv_sums_weights():
    sw = ParticleSwarm([0.3, 0.7], [1, 1], [[0.1, 0.2], [0.3, 0.4]])
    assert sw.tv_norm() == pytest.approx(1.0)


def test_tv_reported_final_state():
    # 39 particles whose weights sum to the reported end-state mass 0.9786
    weights = np.full(39, 0.9786 / 39)
    sw = ParticleSwarm(weights, np.ones(39), np.zeros((39, 2)))
    assert sw.tv_norm() == pytest.approx(0.9786)
    assert len(sw) == 39


def test_lift_negative_atom():
    sw = lift_signed([-0.5], [[0.2, 0.3]])
    assert sw.weights[0] == 0.5 and sw.signs[0] == -1


def test_lift_all_positive_keeps_weights():
    sw = lift_signed([0.2, 0.4], [[0.0], [1.0]])
    assert np.allclose(sw.weights, [0.2, 0.4]) and np.all(sw.signs == 1)


def test_lift_drops_zero_atoms():
    sw = lift_signed([0.0, 0.3], [[0.0], [1.0]])
    assert len(sw) == 1


def test_lift_tv_is_l1_norm():
    a = np.array([0.5, -0.25, 1.0])
    sw = lift_signed(a, np.zeros((3, 2)))
    assert sw.tv_norm() == pytest.approx(np.abs(a).sum())


def test_lift_preserves_objective_of_signed_measure():
    # brute-force signed evaluation: 0.5|y - sum a_j phi_j|^2 + kappa sum |a_j|
    problem = make_synthetic_problem(seed=2)
    model, kappa = problem.model, problem.kappa
    rng = np.random.Generator(np.random.Philox(8))
    a = np.array([0.4, -0.3, 0.7])
    pos = problem.domain.sample_uniform(rng, size=3)

    quad = sum(a[i] * a[j] * model.kernel_matrix(pos[i : i + 1], pos[j : j + 1])[0, 0]
               for i in range(3) for j in range(3))
    cross = sum(a[j] * model.y_inner_many(pos[j : j + 1])[0] for j in range(3))
    direct = 0.5 * model.y_norm_sq - cross + 0.5 * quad + kappa * np.abs(a).sum()

    assert loss(problem, lift_signed(a, pos)) == pytest.approx(direct, rel=1e-12)


def test_csv_round_trip(tmp_path):
    sw = ParticleSwarm([0.25, 1.5], [1, -1], [[0.1, -0.2], [3.0, 4.0]])
    path = tmp_path / "swarm.csv"
    sw.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "weight,sign,x0,x1"
    back = ParticleSwarm.from_csv(path)
    assert np.array_equal(back.weights, sw.weights)
    assert np.array_equal(back.signs, sw.signs)
    assert np.array_equal(back.positions, sw.positions)


def _from_csv_row(tmp_path, weight, sign):
    path = tmp_path / "swarm.csv"
    path.write_text(f"weight,sign,x0\n0.5,1,0.0\n{weight!r},{sign!r},0.0\n")
    return ParticleSwarm.from_csv(path)


ENTRY_POINTS = {
    "check": lambda tmp_path, w, s: ParticleSwarm([0.5, w], [1, s], [[0.0], [0.0]]).check(),
    "from_csv": _from_csv_row,
    "run_config": lambda tmp_path, w, s: RunConfig(
        init_swarm=ParticleSwarm([0.5, w], [1, s], [[0.0], [0.0]]), k_iters=1, alpha=0.1),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("weight, sign, message", [
    pytest.param(-0.1, 1.0, "nonnegative", id="negative_weight"),
    pytest.param(float("nan"), 1.0, "non-finite", id="nan"),
    pytest.param(0.1, 2.0, "signs", id="bad_sign"),
])
def test_entry_points_reject_bad_values(tmp_path, entry, weight, sign, message):
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](tmp_path, weight, sign)


def test_lift_signed_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        lift_signed([0.5, np.nan], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        lift_signed([0.5], [[np.nan]])


def test_constructor_checks_only_lengths():
    sw = ParticleSwarm([-0.1], [2], [[np.nan]])
    assert len(sw) == 1
    with pytest.raises(ValueError, match="agree in length"):
        ParticleSwarm([0.1, 0.2], [1], [[0.0], [1.0]])


def test_appended_keeps_order_and_inputs():
    head = ParticleSwarm([0.2], [1], [[0.0, 1.0]])
    tail = ParticleSwarm([0.3, 0.4], [-1, 1], [[2.0, 3.0], [4.0, 5.0]])
    sw = head.appended(tail)
    assert len(sw) == 3 and sw.dim == 2
    assert sw.weights.tolist() == [0.2, 0.3, 0.4] and sw.signs.tolist() == [1.0, -1.0, 1.0]
    assert np.array_equal(sw.positions, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
    assert len(head) == 1 and len(tail) == 2
    assert np.array_equal(head.appended(ParticleSwarm.empty(2)).positions, head.positions)
