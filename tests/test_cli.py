import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import conicswarm
import conicswarm.cli as cli
from conicswarm.cli import build_init_swarm, build_problem, build_run_config, main
from conicswarm.config import ConfigError, load_config
from conicswarm.runner import trace_from_csv
from conicswarm.swarm import ParticleSwarm
from helpers import same_bits
from reference import SYNTHETIC_THEORY_REPORT, mixture_means, mixture_side_bound, near

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


TINY_SYNTHETIC = """
[problem]
model = synthetic
kappa = 1e-3
seed = 7
signed = false
atom_mass = 0.1

[rates]
mode = manual
alpha = 0.05
beta = 0.01

[schedule]
variant = fixed
eps = 0.01
batch = 16

[birth_death]
enabled = true
profile = experiments
birth_threshold = 0.0
candidates = 2

[run]
variant = stochastic
iterations = 40
seed = 3
trace_cadence = 5
init = uniform
init_particles = 6
init_weight = 0.05

[output]
dir = out
"""


TINY_GMM = """
[problem]
model = gmm
kappa = 1e-4
seed = 2
components = 3
gmm_samples = 200
tau = 0.2

[rates]
mode = manual
alpha = 1.0

[run]
variant = stochastic
iterations = 10
"""

TINY_TEACHER = """
[problem]
model = teacher
kappa = 5e-3
seed = 2
features = 3
reg_samples = 60
teacher_neurons = 2

[rates]
mode = manual
alpha = 0.5

[run]
variant = stochastic
iterations = 10
"""


def run_python(*args):
    """``python *args`` with the package's own source tree on the path,
    installed or not."""
    src = str(Path(conicswarm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def run_module(*args):
    """``python -m conicswarm *args`` from the package's own source tree."""
    return run_python("-m", "conicswarm", *args)


def test_python_dash_m_runs_the_cli():
    done = run_module("--help")
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


def test_calibrate_prints_the_committed_synthetic_theory_report():
    # the command in its own process: exit 0, nothing on stderr, and stdout
    # byte for byte the report that test_audit_batched checks in-process
    done = run_module("calibrate", "--config", str(CONFIGS / "synthetic_theory.cfg"))
    assert (done.returncode, done.stderr, done.stdout) == (0, "", SYNTHETIC_THEORY_REPORT)


class TestConfigParsing:
    def test_unknown_key_fails_closed(self, tmp_path):
        bad = TINY_SYNTHETIC.replace("eps = 0.01", "eps = 0.01\nepz = 0.5")
        with pytest.raises(ConfigError, match="epz"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_section_fails_closed(self, tmp_path):
        bad = TINY_SYNTHETIC + "\n[extras]\nx = 1\n"
        with pytest.raises(ConfigError, match="extras"):
            load_config(write_config(tmp_path, bad))

    def test_missing_required_key(self, tmp_path):
        bad = TINY_SYNTHETIC.replace("kappa = 1e-3\n", "")
        with pytest.raises(ConfigError, match="kappa"):
            load_config(write_config(tmp_path, bad))

    def test_comments_and_defaults(self, tmp_path):
        body = TINY_SYNTHETIC.replace("eps = 0.01", "eps = 0.01  # exploration mass")
        spec = load_config(write_config(tmp_path, body))
        assert spec.schedule["eps"] == 0.01
        assert spec.run["kkt_grid"] == 0  # defaulted

    def test_profile_defaults(self, tmp_path):
        spec = load_config(write_config(tmp_path, TINY_SYNTHETIC))
        assert spec.birth_death["death"] == "ratio"
        theory = load_config(write_config(tmp_path, TINY_SYNTHETIC),
                             profile_override="theory")
        assert theory.birth_death["death"] == "guarded"
        # explicit keys always win over profile defaults
        assert theory.birth_death["candidates"] == 2
        bare = load_config(write_config(
            tmp_path, TINY_SYNTHETIC.replace("candidates = 2\n", "")),
            profile_override="theory")
        assert bare.birth_death["candidates"] == 1

    @pytest.mark.parametrize("grid", [1, -1, -30])
    def test_kkt_grid_below_two_fails_closed(self, tmp_path, capsys, grid):
        # 0 turns the report off; a grid needs at least two points per axis
        bad = TINY_SYNTHETIC.replace("init = uniform", f"init = uniform\nkkt_grid = {grid}")
        with pytest.raises(ConfigError, match=r"\[run\] kkt_grid must be 0"):
            load_config(write_config(tmp_path, bad))
        assert main(["run", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "kkt_grid" in err
        assert not (tmp_path / "out").exists()
        for grid in (0, 2):
            ok = TINY_SYNTHETIC.replace("init = uniform", f"init = uniform\nkkt_grid = {grid}")
            assert load_config(write_config(tmp_path, ok)).run["kkt_grid"] == grid

    def test_paths_resolve_relative_to_config(self, tmp_path):
        spec = load_config(write_config(tmp_path, TINY_SYNTHETIC))
        assert spec.resolve_path("data.csv") == (tmp_path / "data.csv").resolve()


class TestCalibrateCommand:
    def test_synthetic_reports_min_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SYNTHETIC)
        assert main(["calibrate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "alpha = min of caps" in out
        assert "binding:" in out

    def test_negative_init_weight_exits_2_naming_the_key(self, tmp_path, capsys):
        body = TINY_SYNTHETIC.replace("init_weight = 0.05", "init_weight = -0.05")
        cfg = write_config(tmp_path, body)
        assert main(["calibrate", "--config", str(cfg)]) == 2
        assert "[run] init_weight must be nonnegative" in capsys.readouterr().err

    def test_gmm_normalization_warning(self, tmp_path, capsys):
        # a ring of radius 0.5 keeps alpha * cert_bound near 1e-13, a rate
        # that can move weights; at the default radius 5 it is 5e-42
        body = """
[problem]
model = gmm
kappa = 1e-4
seed = 2
components = 3
gmm_samples = 200
tau = 0.2
ring_radius = 0.5

[rates]
mode = calibrated

[run]
variant = full
iterations = 10
"""
        cfg = write_config(tmp_path, body)
        assert main(["calibrate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "not normalized" in out

    def test_relu_positivity_failure_exits_2(self, tmp_path, capsys):
        body = """
[problem]
model = teacher
kappa = 5e-3
seed = 2
features = 3
reg_samples = 60
teacher_neurons = 2
label_noise = 0.1

[rates]
mode = calibrated

[run]
variant = stochastic
iterations = 10
"""
        cfg = write_config(tmp_path, body)
        assert main(["calibrate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "positivity" in err


class TestRunCommand:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_exits_1_naming_the_iteration(self, tmp_path, capsys):
        body = TINY_SYNTHETIC.replace("alpha = 0.05", "alpha = 1e6") \
            .replace("init_weight = 0.05", "init_weight = 1e-6")
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "error: iteration 1: weight update overflowed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weight_overflow_saves_the_last_good_swarm(self, tmp_path):
        body = TINY_SYNTHETIC.replace("alpha = 0.05", "alpha = 1e6") \
            .replace("init_weight = 0.05", "init_weight = 1e-6")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        swarm = ParticleSwarm.from_csv(out / "final_swarm.csv")
        # iteration 1 overflowed, so the initial swarm is the last good one
        assert len(swarm) == 6
        assert np.all(swarm.weights == 1e-6)
        trace = trace_from_csv(out / "trace.csv")
        assert [rec.k for rec in trace] == [0]
        assert trace[0].particles == 6
        assert not (out / "summary.txt").exists()

    def test_zero_iterations_writes_initial_artifacts(self, tmp_path):
        body = TINY_SYNTHETIC.replace("iterations = 40", "iterations = 0")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "zero"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 2  # header plus the initial record
        assert (out / "final_swarm.csv").exists()
        assert (out / "summary.txt").exists()

    def test_same_seed_byte_identical_traces(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SYNTHETIC)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "final_swarm.csv").read_bytes() == \
            (out2 / "final_swarm.csv").read_bytes()

    def test_summary_reports_the_loop_resources(self, tmp_path):
        # page faults and peak memory go to summary.txt alone, never to the
        # trace, whose bytes two runs of one configuration share
        cfg = write_config(tmp_path, TINY_SYNTHETIC)
        out = tmp_path / "res"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        last = (out / "summary.txt").read_text().splitlines()[-1]
        assert re.fullmatch(r"resources: minor_faults_per_iter=\S+ peak_rss_mb=\d+\.\d", last)
        assert "resources" not in (out / "trace.csv").read_text()

    def test_zero_iterations_report_no_fault_rate(self, tmp_path, capsys):
        # no iteration ran, so there is no rate per iteration to report
        body = TINY_SYNTHETIC.replace("iterations = 40", "iterations = 0")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "zero"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        last = (out / "summary.txt").read_text().splitlines()[-1]
        assert re.fullmatch(r"resources: minor_faults_per_iter=n/a peak_rss_mb=\d+\.\d", last)
        assert capsys.readouterr().out.splitlines()[-1] == last

    def test_seed_flag_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SYNTHETIC)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "9"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "10"]) == 0
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("old, new, key", [
        pytest.param("candidates = 2", "candidates = 2\nbirth_mass = -0.01",
                     "[birth_death] birth_mass", id="negative-birth-mass"),
        pytest.param("eps = 0.01", "eps = -0.01", "[schedule] eps", id="negative-eps"),
    ])
    def test_bad_birth_weight_exits_2_naming_the_key(self, tmp_path, capsys, old, new, key):
        cfg = write_config(tmp_path, TINY_SYNTHETIC.replace(old, new))
        out = tmp_path / "bad"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variant, old, new", [
        pytest.param("fixed", "beta = 0.01", "beta = -0.01", id="fixed-negative-beta"),
        pytest.param("fixed", "beta = 0.01", "beta = nan", id="fixed-nan-beta"),
        # alpha = 0.5 keeps K = 40 above the horizon minimum 1 / alpha^2
        pytest.param("horizon", "alpha = 0.05\nbeta = 0.01", "alpha = 0.5\nbeta = -0.01",
                     id="horizon-negative-beta"),
        pytest.param("anytime", "beta = 0.01", "beta = -0.01", id="anytime-negative-beta"),
        pytest.param("fixed", "alpha = 0.05", "alpha = -0.05", id="fixed-negative-alpha"),
        pytest.param("fixed", "alpha = 0.05", "alpha = nan", id="fixed-nan-alpha"),
    ])
    def test_bad_rate_exits_2_naming_the_key(self, tmp_path, capsys, variant, old, new):
        # every schedule variant refuses the rate before the run, though the
        # horizon and anytime plans never read [rates] beta as the step
        body = TINY_SYNTHETIC.replace("variant = fixed", f"variant = {variant}")
        cfg = write_config(tmp_path, body.replace(old, new))
        out = tmp_path / "bad"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        key = new.split("\n")[-1].split(" =")[0]
        assert err.count("\n") == 1 and f"[rates] {key} must be nonnegative" in err
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["horizon", "anytime"])
    def test_zero_alpha_exits_2_naming_the_key_and_variant(self, tmp_path, capsys, variant):
        # both plans tie the exploration mass to alpha; the fixed plan runs
        # at alpha = 0 (test_values_on_a_domain_edge_still_run)
        body = TINY_SYNTHETIC.replace("variant = fixed", f"variant = {variant}")
        cfg = write_config(tmp_path, body.replace("alpha = 0.05", "alpha = 0"))
        out = tmp_path / "bad"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"[rates] alpha must be > 0 under [schedule] variant = {variant}, got 0.0" in err
        assert not out.exists()

    def test_empty_batch_exits_2_before_the_loop(self, tmp_path, capsys, monkeypatch):
        import conicswarm.cli

        def loop_started(*_args):
            pytest.fail("the run started with an empty batch")

        monkeypatch.setattr(conicswarm.cli, "run", loop_started)
        cfg = write_config(tmp_path, TINY_SYNTHETIC.replace("batch = 16", "batch = 0"))
        out = tmp_path / "empty"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "[schedule] batch must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_too_few_mixture_samples_exit_2_naming_the_key(self, tmp_path, capsys, samples):
        # one sample spans no domain box; it used to fail in Box with exit 1
        cfg = write_config(tmp_path, TINY_GMM.replace("gmm_samples = 200",
                                                      f"gmm_samples = {samples}"))
        with pytest.raises(ConfigError, match=r"\[problem\] gmm_samples must be at least 2"):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "gmm_samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("body, old, new, key", [
        pytest.param(TINY_GMM, "components = 3", "components = 0", "[problem] components",
                     id="no-components"),
        pytest.param(TINY_GMM, "components = 3", "components = -2", "[problem] components",
                     id="negative-components"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = 0", "[problem] tau", id="zero-tau"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = nan", "[problem] tau", id="nan-tau"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = inf", "[problem] tau", id="inf-tau"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = 1e200", "[problem] tau",
                     id="overflowing-tau"),
        pytest.param(TINY_TEACHER, "reg_samples = 60", "reg_samples = 0",
                     "[problem] reg_samples", id="no-teacher-samples"),
        pytest.param(TINY_TEACHER, "reg_samples = 60", "reg_samples = 1",
                     "[problem] reg_samples", id="one-teacher-sample"),
        pytest.param(TINY_GMM, "iterations = 10", "iterations = 10\ninit_particles = -3",
                     "[run] init_particles", id="negative-init-particles"),
        pytest.param(TINY_SYNTHETIC, "eps = 0.01", "eps = 0", "[schedule] eps", id="zero-eps"),
        pytest.param(TINY_SYNTHETIC, "batch = 16", "batch = 0", "[schedule] batch",
                     id="empty-batch"),
        pytest.param(TINY_SYNTHETIC, "alpha = 0.05", "alpha = -1", "[rates] alpha",
                     id="negative-alpha"),
        pytest.param(TINY_SYNTHETIC, "alpha = 0.05", "alpha = nan", "[rates] alpha",
                     id="nan-alpha"),
        pytest.param(TINY_SYNTHETIC, "beta = 0.01", "beta = -1", "[rates] beta",
                     id="negative-beta"),
        pytest.param(TINY_SYNTHETIC, "candidates = 2", "candidates = 2\ntau_death = 0",
                     "[birth_death] tau_death", id="zero-ratio-tau-death"),
        pytest.param(TINY_SYNTHETIC, "candidates = 2", "candidates = 0",
                     "[birth_death] candidates", id="no-candidates"),
        pytest.param(TINY_SYNTHETIC, "candidates = 2", "candidates = 2\nbirth_mass = -1",
                     "[birth_death] birth_mass", id="negative-birth-mass"),
        # the theory profile reads the exponent when it sets the birth threshold
        pytest.param(TINY_SYNTHETIC.replace("birth_threshold = 0.0", "tail_exponent = -1"),
                     "profile = experiments", "profile = theory",
                     "[birth_death] tail_exponent", id="negative-tail-exponent"),
        pytest.param(TINY_SYNTHETIC, "trace_cadence = 5", "trace_cadence = 0",
                     "[run] trace_cadence", id="zero-trace-cadence"),
        pytest.param(TINY_SYNTHETIC, "init_weight = 0.05", "init_weight = nan",
                     "[run] init_weight", id="nan-init-weight"),
        pytest.param(TINY_SYNTHETIC, "seed = 3", "seed = -1", "[run] seed",
                     id="negative-run-seed"),
        pytest.param(TINY_SYNTHETIC, "seed = 7", "seed = -1", "[problem] seed",
                     id="negative-problem-seed"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\nsigma = 0",
                     "[problem] sigma", id="zero-sigma"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\nsigma = 1e-300",
                     "[problem] sigma", id="underflowing-sigma"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\nsigma = 1e-160",
                     "[problem] sigma", id="subnormal-sigma-square"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\nn_samples = 0",
                     "[problem] n_samples", id="no-synthetic-samples"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\natoms = -1",
                     "[problem] atoms", id="negative-atoms"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\ndim = 0",
                     "[problem] dim", id="zero-dim"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = 0.2\nring_radius = nan",
                     "[problem] ring_radius", id="nan-ring-radius"),
        pytest.param(TINY_TEACHER, "teacher_neurons = 2", "teacher_neurons = 2\nlabel_noise = nan",
                     "[problem] label_noise", id="nan-label-noise"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = 1e-200", "[problem] tau",
                     id="underflowing-tau"),
        pytest.param(TINY_GMM, "tau = 0.2", "tau = 1e-160", "[problem] tau",
                     id="subnormal-tau-square"),
    ])
    def test_bad_problem_or_swarm_size_exits_2_naming_the_key(self, tmp_path, capsys, body, old,
                                                              new, key):
        # these used to fail while the problem, the swarm or the run was
        # built, with exit 1 and a message naming no key ("float division by
        # zero", "negative dimensions are not allowed", "Numerical result out
        # of range", "rates must be nonnegative", ...), or, for tau = inf, to
        # run with every kernel value at 0
        cfg = write_config(tmp_path, body.replace(old, new))
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be")):
            load_config(cfg)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and key in err
        assert not out.exists()

    def test_negative_seed_flag_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_SYNTHETIC)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be at least 0, got '-1'\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, old, new", [
        pytest.param(TINY_TEACHER, "features = 3", "features = 0", id="no-features"),
        pytest.param(TINY_SYNTHETIC, "atom_mass = 0.1", "atom_mass = 0.1\natoms = 0",
                     id="no-atoms"),
        pytest.param(TINY_SYNTHETIC, "init_particles = 6", "init_particles = 0",
                     id="empty-initial-swarm"),
        pytest.param(TINY_SYNTHETIC, "iterations = 40", "iterations = 0", id="no-iterations"),
        pytest.param(TINY_SYNTHETIC, "alpha = 0.05", "alpha = 0", id="fixed-plan-zero-alpha"),
        pytest.param(TINY_SYNTHETIC, "init = uniform", "init = uniform\nkkt_grid = 2",
                     id="two-point-kkt-grid"),
        pytest.param(TINY_SYNTHETIC, "birth_threshold = 0.0", "birth_threshold = -inf",
                     id="no-births"),
        pytest.param(TINY_SYNTHETIC, "birth_threshold = 0.0", "birth_threshold = inf",
                     id="every-candidate-born"),
        # the widest ring whose expanded entries the budget admits at this
        # seed (about 550.8)
        pytest.param(TINY_GMM, "tau = 0.2", "tau = 0.2\nring_radius = 550",
                     id="widest-ring"),
    ])
    def test_values_on_a_domain_edge_still_run(self, tmp_path, body, old, new):
        cfg = write_config(tmp_path, body.replace(old, new).replace("iterations = 40",
                                                                    "iterations = 10"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists() and (out / "summary.txt").exists()
        if body is TINY_GMM:
            # on the widest ring the data side still lies within its bound of
            # exact differences: at 64 of the samples, whose densities are far
            # from 0, against all 200, past the product path of ``_sqdist``
            model = build_problem(load_config(cfg))[0].model
            t = model.data[:64]
            assert near(model.y_inner_many(t), mixture_means(model, t),
                        mixture_side_bound(model, t)[0])

    def test_constant_mixture_column_exits_1_naming_file_and_column(self, tmp_path, capsys):
        data = tmp_path / "flat.csv"
        data.write_text("x0,x1\n1.5,0.0\n1.5,2.0\n1.5,-1.0\n")
        cfg = write_config(tmp_path, TINY_GMM.replace("components = 3\ngmm_samples = 200",
                                                      "data_path = flat.csv"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {data.resolve()}: constant column(s) x0: the samples span no box\n"
        assert not out.exists()

    def test_mixture_whose_constants_vanish_exits_2_naming_tau(self, tmp_path, capsys):
        # from tau of about 1.891e153 on, the mixture's kernel constant
        # 1 / (4 pi (1 + tau^2)) is below the smallest normal float, and at
        # 1e154 every kernel value, density and |y|^2 would be 0, so the loss
        # would be kappa TV whatever the swarm; GmmKernel refused both with
        # exit 1 and a message naming no key
        body = (CONFIGS / "gmm_desk.cfg").read_text(encoding="utf-8")
        for tau in ("1.9e153", "1e154"):
            cfg = write_config(tmp_path, body.replace("tau = 0.2", f"tau = {tau}"))
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {cfg}: [problem] tau must be positive")
            assert err.endswith(f", got '{tau}'\n") and err.count("\n") == 1
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]
        cfg = write_config(tmp_path, body.replace("tau = 0.2", "tau = 1.89e153"))
        problem, _ = build_problem(load_config(cfg))
        assert problem.model.tau == 1.89e153

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_horizon_schedule_with_manual_rates(self, tmp_path):
        body = TINY_SYNTHETIC.replace("variant = fixed", "variant = horizon")
        body = body.replace("alpha = 0.05", "alpha = 0.5")
        body = body.replace("iterations = 40", "iterations = 16")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "hz"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_horizon_below_minimum_fails(self, tmp_path, capsys):
        body = TINY_SYNTHETIC.replace("variant = fixed", "variant = horizon")
        body = body.replace("iterations = 40", "iterations = 10")  # needs 1/alpha^2 = 400
        cfg = write_config(tmp_path, body)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "below the minimum" in capsys.readouterr().err

    def test_csv_swarm_init(self, tmp_path):
        seed_swarm = ParticleSwarm([0.2, 0.3], [1, 1], [[0.2, 0.2], [0.7, 0.7]])
        seed_swarm.to_csv(tmp_path / "init.csv")
        body = TINY_SYNTHETIC.replace("init = uniform", "init = csv:init.csv")
        body = body.replace("iterations = 40", "iterations = 0")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "fromcsv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        final = ParticleSwarm.from_csv(out / "final_swarm.csv")
        assert np.allclose(final.weights, seed_swarm.weights)

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_csv_swarm_of_another_dimension_fails(self, tmp_path, capsys, command):
        ParticleSwarm([0.2], [1], [[0.2, 0.2, 0.2]]).to_csv(tmp_path / "init.csv")
        body = TINY_SYNTHETIC.replace("init = uniform", "init = csv:init.csv")
        argv = [command, "--config", str(write_config(tmp_path, body))]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: [run] init ") and "init.csv" in err
        assert "dimension 3, the problem 2" in err

    @pytest.mark.parametrize("positions, signs, reason", [
        ([[0.2, 0.2], [5.0, -3.0]], [1, 1], "particle 1 at [5.0, -3.0] lies outside the domain"),
        ([[0.2, 0.2], [0.7, 0.7]], [1, -1], "the problem is unsigned"),
    ], ids=["outside-the-box", "negative-sign"])
    def test_csv_swarm_the_problem_cannot_hold_fails(self, tmp_path, capsys, positions, signs,
                                                     reason):
        ParticleSwarm([0.2, 0.3], signs, positions).to_csv(tmp_path / "init.csv")
        body = TINY_SYNTHETIC.replace("init = uniform", "init = csv:init.csv")
        cfg, out = write_config(tmp_path, body), tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [run] init ") and "init.csv" in err and reason in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_generated_swarm_outside_the_domain_fails(self, tmp_path, capsys, command):
        # the unit sphere leaves synthetic_theory.cfg's unit box (6 of its 8
        # particles): a generated swarm is held to the domain as a csv one is
        body = (CONFIGS / "synthetic_theory.cfg").read_text()
        body = body.replace("init = uniform", "init = sphere")
        argv, out = [command, "--config", str(write_config(tmp_path, body))], tmp_path / "out"
        if command == "run":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [run] init sphere: particle ")
        assert "lies outside the domain" in err and "Traceback" not in err
        assert not out.exists()


class TestVerifyCommand:
    def test_projection_suite_passes(self, capsys):
        assert main(["verify", "--suite", "projection"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_volume_suite_runs_geometric_monte_carlo(self, capsys):
        assert main(["verify", "--suite", "volume"]) == 0
        out = capsys.readouterr().out
        assert "volume/d=1" in out and "volume/d=2" in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2


class TestDeskComparison:
    def test_exploration_lowers_summary_loss(self, tmp_path, capsys):
        # the desk mixture profile from a clustered start: the run with the
        # birth/death process must report a lower final loss
        base = (CONFIGS / "gmm_desk.cfg").read_text()
        base = base.replace("iterations = 5000", "iterations = 1200")
        base = base.replace("kkt_grid = 30", "kkt_grid = 0")
        losses = {}
        for tag, enabled in (("on", "true"), ("off", "false")):
            body = base.replace("enabled = true", f"enabled = {enabled}")
            cfg = tmp_path / f"gmm_{tag}.cfg"
            cfg.write_text(body)
            out = tmp_path / f"out_{tag}"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            summary = (out / "summary.txt").read_text().splitlines()
            losses[tag] = float(summary[1].split()[1])
        assert losses["on"] < losses["off"]


class TestReportCommand:
    def trace_body(self, k_values, losses):
        lines = ["k,time_s,loss,tv,particles,births,deaths,min_cert,delta,cert_norm_sq"]
        lines.append("0,,%r,1.0,4,0,0,,," % losses[0])
        for k, lo in zip(k_values, losses[1:]):
            lines.append(f"{k},,{lo!r},1.0,4,0,0,,,0.0")
        return "\n".join(lines) + "\n"

    def test_single_trace_summary(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        p.write_text(self.trace_body([5, 10], [1.0, 0.5, 0.25]))
        assert main(["report", str(p)]) == 0
        out = capsys.readouterr().out
        assert "0.25" in out

    def test_identical_traces_identical_rows(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        body = self.trace_body([5, 10], [1.0, 0.5, 0.25])
        a.write_text(body)
        b.write_text(body)
        assert main(["report", str(a), str(b)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines[1].split()[1:] == lines[2].split()[1:]

    def test_multi_horizon_slope_fit(self, tmp_path, capsys):
        # rho ~ K^-0.5 exactly: the fitted slope must come out at -0.5
        paths = []
        for k in (100, 400, 1600):
            p = tmp_path / f"k{k}.csv"
            p.write_text(self.trace_body([k], [1.0, k ** -0.5]))
            paths.append(str(p))
        assert main(["report", *paths, "--jref", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "slope" in out
        slope = float(out.split("slope vs K:")[1].split()[0])
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_malformed_trace_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("k,loss\n0,1.0\n")
        assert main(["report", str(p)]) == 1


def _standin():
    """``perfbench/standin.py``, the seeded stand-in for the housing CSV."""
    import importlib.util

    path = CONFIGS.parent / "perfbench" / "standin.py"
    spec = importlib.util.spec_from_file_location("perfbench_standin", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_calibrate_every_shipped_config_exits_0_or_names_the_cause(name, tmp_path, capsys):
    # exit 0, or exit 2 with one ``error:`` line naming why calibration is
    # unavailable; never exit 1 or a traceback
    cfg = shipped_copy(name, tmp_path) if name == "housing_full.cfg" else CONFIGS / name
    code = main(["calibrate", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 0:
        assert "alpha = min of caps" in out and not err
    else:
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "positivity" in err or "not a usable rate (binding: " in err
    if name == "gmm_full.cfg":
        # kernel_min ~ 2e-158 makes the descent cap underflow to 0
        assert code == 2 and "alpha = 0 is not a usable rate (binding: descent cap" in err
    if name == "gmm_desk.cfg":
        # kernel_min ~ 1e-66 leaves alpha ~ 2.6e-133 normal but too small to
        # move a weight
        assert code == 2 and "alpha = 2.55329e-133 is not a usable rate (binding: descent " \
            "cap, alpha * cert_bound = 1.22266e-68 < 2^-54" in err
    if name in ("housing_full.cfg", "synthetic_theory.cfg"):
        assert code == 0


@pytest.mark.parametrize("variant", ["stochastic", "full"])
def test_calibrate_a_wide_regression_csv(variant, tmp_path, capsys):
    # 343 features put the ReLU model on the unit ball of R^344, whose
    # volume 1.5e-226 is a normal float though gamma(173) overflows
    rows = np.random.Generator(np.random.Philox(0)).standard_normal((40, 344))
    np.savetxt(tmp_path / "wide.csv", rows, fmt="%.6g", delimiter=",", comments="",
               header=",".join([f"x{i}" for i in range(343)] + ["target"]))
    body = (CONFIGS / "housing_full.cfg").read_text(encoding="utf-8")
    for old, new in (("data_path = california.csv", "data_path = wide.csv"),
                     ("mode = manual\n", "mode = calibrated\n"),
                     ("variant = stochastic", f"variant = {variant}")):
        assert old in body
        body = body.replace(old, new)
    code = main(["calibrate", "--config", str(write_config(tmp_path, body))])
    out, err = capsys.readouterr()
    assert code == 0 and not err, err
    assert "alpha = min of caps" in out


def shipped_copy(name, tmp_path, iterations=None):
    """A copy of ``configs/<name>`` in ``tmp_path``, housing pointed at the
    stand-in, with ``[run] iterations`` set when given."""
    cfg = tmp_path / name
    if name == "housing_full.cfg":
        standin = _standin()
        standin.write_csv(tmp_path / "california.csv", seed=1)
        standin.write_config(CONFIGS / name, cfg, "california.csv")
    else:
        cfg.write_text((CONFIGS / name).read_text(encoding="utf-8"), encoding="utf-8")
    if iterations is not None:
        lines = cfg.read_text(encoding="utf-8").splitlines()
        lines = [f"iterations = {iterations}" if line.split("=", 1)[0].strip() == "iterations"
                 else line for line in lines]
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_every_shipped_problem_holds_its_models_domain(name, tmp_path):
    problem, _ = build_problem(load_config(shipped_copy(name, tmp_path)))
    assert problem.domain is problem.model.domain


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_run_and_report_every_shipped_config(name, tmp_path, capsys):
    # ``run`` at 60 iterations exits 0, or with one ``error:`` line naming the
    # cause, never with a traceback, and writes its trace and final swarm;
    # ``report`` then reads that trace
    cfg = shipped_copy(name, tmp_path, iterations=60)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    printed, err = capsys.readouterr()
    assert "Traceback" not in printed + err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert not err
    assert (out / "trace.csv").is_file() and (out / "final_swarm.csv").is_file()
    assert main(["report", str(out / "trace.csv")]) == 0
    printed, err = capsys.readouterr()
    assert "Traceback" not in printed + err and not err and printed


def test_unusable_calibrated_rates_do_not_stop_a_manual_rates_run():
    # gmm_full.cfg's calibration underflows (see above), but under the theory
    # profile the audit only supplies the birth threshold's noise bound; the
    # manual alpha is used as written
    spec = load_config(CONFIGS / "gmm_full.cfg", profile_override="theory")
    assert spec.rates["mode"] == "manual" and spec.birth_death["birth_threshold"] is None
    problem, extras = build_problem(spec)
    config, cal = build_run_config(spec, problem, extras)
    assert config.plan.alpha == 2.0
    assert cal is None and config.birth_rule.threshold_coeff > 0


@pytest.mark.parametrize("name, edits", [
    pytest.param("teacher_desk.cfg", [("variant = fixed", "variant = anytime")],
                 id="teacher-anytime"),
    pytest.param("teacher_desk.cfg", [("variant = fixed", "variant = horizon")],
                 id="teacher-horizon"),
    pytest.param("teacher_desk.cfg", [("profile = experiments", "profile = theory"),
                                      ("birth_threshold = -0.6\n", "")], id="teacher-theory"),
    pytest.param("gmm_desk.cfg", [("variant = fixed", "variant = anytime")], id="gmm-anytime"),
])
def test_manual_rates_runs_never_calibrate(name, edits, tmp_path, capsys):
    # ReLU's audited kernel minimum is 0, so its calibration is unavailable,
    # and gmm_desk's calibrated alpha is 2.6e-133; neither may stop or be
    # reported by a run whose rates are manual
    cfg = shipped_copy(name, tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    for old, new in edits:
        assert old in body
        body = body.replace(old, new)
    cfg.write_text(body, encoding="utf-8")
    spec = load_config(cfg)
    problem, extras = build_problem(spec)
    config, cal = build_run_config(spec, problem, extras)
    assert spec.rates["mode"] == "manual" and cal is None
    assert config.plan.alpha == spec.rates["alpha"]
    if spec.birth_death["profile"] == "theory":
        assert config.birth_rule.threshold_coeff > 0
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    assert "calibrated:" not in (out / "summary.txt").read_text(encoding="utf-8")


def test_calibrated_rates_are_reported_in_the_summary(tmp_path):
    cfg = shipped_copy("synthetic_theory.cfg", tmp_path, iterations=20)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "\ncalibrated: alpha=" in (out / "summary.txt").read_text(encoding="utf-8")


def test_calibrated_mode_refuses_unusable_rates(tmp_path):
    body = (CONFIGS / "gmm_full.cfg").read_text(encoding="utf-8")
    body = body.replace("mode = manual\nalpha = 2.0\nbeta = 40.0", "mode = calibrated")
    assert "mode = calibrated" in body
    cfg = tmp_path / "gmm_full_calibrated.cfg"
    cfg.write_text(body, encoding="utf-8")
    spec = load_config(cfg)
    problem, extras = build_problem(spec)
    with pytest.raises(conicswarm.CalibrationError, match=r"alpha = 0 .*binding: descent cap"):
        build_run_config(spec, problem, extras)


def theory_run_without_births(tmp_path, rates):
    """``synthetic_theory.cfg`` at 20 iterations with births off and the
    ``[rates]`` body ``rates``."""
    cfg = shipped_copy("synthetic_theory.cfg", tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    for old, new in (("mode = calibrated\n", rates), ("enabled = true", "enabled = false")):
        assert old in body
        body = body.replace(old, new)
    cfg.write_text(body, encoding="utf-8")
    return cfg


def test_theory_profile_without_births_neither_audits_nor_sets_a_level(
        tmp_path, capsys, monkeypatch):
    # no birth can happen and the rates are manual: nothing reads the
    # noise-derived birth level, so neither it nor its audit is taken
    cfg = theory_run_without_births(tmp_path, "mode = manual\nalpha = 0.5\n")
    spec = load_config(cfg)
    assert spec.birth_death["profile"] == "theory"
    assert spec.birth_death["birth_threshold"] is None

    def no_audit(*args):
        raise AssertionError("audited a run that neither births nor calibrates")

    monkeypatch.setattr(cli, "_audit", no_audit)
    problem, extras = build_problem(spec)
    config, cal = build_run_config(spec, problem, extras)
    assert cal is None and not config.birth_death and config.plan.alpha == 0.5
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    assert len(trace_from_csv(out / "trace.csv")) > 1


def test_calibrated_theory_run_without_births_keeps_its_audited_level(tmp_path):
    # calibrated rates audit the problem anyway, and the level follows
    spec = load_config(theory_run_without_births(tmp_path, "mode = calibrated\n"))
    problem, extras = build_problem(spec)
    config, cal = build_run_config(spec, problem, extras)
    assert cal is not None and not config.birth_death
    assert config.birth_rule.threshold_coeff > 0


CLUSTERED_RUNS = {
    "synthetic": TINY_SYNTHETIC.replace("init = uniform", "init = clustered"),
    "teacher": TINY_TEACHER.replace("iterations = 10", "iterations = 10\ninit = clustered\n"
                                    "init_particles = 7"),
}


@pytest.mark.parametrize("name", sorted(CLUSTERED_RUNS))
def test_clustered_init_jitters_round_the_model_anchor(name, tmp_path):
    # the synthetic model gathers at its first planted atom; the teacher has
    # no data cloud or atoms, so it gathers at the init stream's first draw
    spec = load_config(write_config(tmp_path, CLUSTERED_RUNS[name]))
    problem, extras = build_problem(spec)
    swarm = build_init_swarm(spec, problem, extras)
    g = np.random.Generator(np.random.Philox(spec.run["seed"] + 1000))
    if name == "synthetic":
        anchor = problem.model.atom_positions[0]
    else:
        assert "data" not in extras
        anchor = problem.domain.sample_uniform(g)
    p0, dim = spec.run["init_particles"], problem.domain.dim
    assert len(swarm) == p0 and p0 > 1
    jitter = 0.05 * g.standard_normal((p0, dim))
    assert same_bits(swarm.positions, problem.domain.project(anchor[None, :] + jitter))
    assert problem.domain.contains(swarm.positions).all()
    assert np.linalg.norm(swarm.positions - anchor, axis=1).max() < 0.5
    assert np.all(swarm.weights == spec.run["init_weight"])


def test_kkt_grid_past_max_points_falls_back_to_uniform_draws(tmp_path, monkeypatch):
    # 30 points per axis in d = 9 is 30^9 lattice points, past the grid's
    # 50,000-point cap: the KKT report reads 50,000 draws of a fixed stream
    grids, real = [], cli.grid_points

    def spy(*args, **kwargs):
        grids.append(real(*args, **kwargs))
        return grids[-1]

    monkeypatch.setattr(cli, "grid_points", spy)
    body = TINY_TEACHER.replace("features = 3", "features = 8") \
        .replace("iterations = 10", "iterations = 10\nkkt_grid = 30")
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    problem, _ = build_problem(load_config(cfg))
    assert problem.domain.dim == 9 and 30**9 > 50_000
    (grid,) = grids
    assert grid.shape == (50_000, 9)
    assert problem.domain.contains(grid).all()
    assert same_bits(grid, problem.domain.sample_uniform(
        np.random.Generator(np.random.Philox(0)), size=50_000))
    assert "\nkkt: min_cert_grid=" in (out / "summary.txt").read_text(encoding="utf-8")


class TestShippedProfiles:
    def test_all_shipped_configs_parse(self):
        # ``load_config`` never opens ``data_path``, so housing_full.cfg
        # parses without its CSV
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            load_config(cfg)

    def test_full_scale_gmm_profile_matches_reference_scale(self):
        spec = load_config(CONFIGS / "gmm_full.cfg")
        assert spec.problem["gmm_samples"] == 24000
        assert spec.problem["components"] == 25
        assert spec.problem["kappa"] == pytest.approx(1e-4)
        assert spec.run["init_particles"] == 20
        assert spec.schedule["batch"] == 256
        assert spec.birth_death["tau_death"] == pytest.approx(5.0)

    def test_full_scale_housing_profile_matches_reference_scale(self):
        spec = load_config(CONFIGS / "housing_full.cfg")
        assert spec.problem["kappa"] == pytest.approx(5e-4)
        assert spec.run["init_particles"] == 300
        assert spec.schedule["batch"] == 256
        assert spec.birth_death["tau_death"] == pytest.approx(5.0)


def with_problem_keys(body, lines):
    """``body`` with ``lines`` added at the top of its ``[problem]``."""
    assert "[problem]\n" in body
    return body.replace("[problem]\n", f"[problem]\n{lines}\n", 1)


def tiny_regression(tmp_path):
    """A regression config on a 40-row CSV of two features and a target."""
    g = np.random.Generator(np.random.Philox(5))
    x = g.standard_normal((40, 2))
    rows = np.hstack([x, (np.maximum(x @ [1.0, -0.5], 0.0) + 0.1 * g.standard_normal(40))[:, None]])
    np.savetxt(tmp_path / "data.csv", rows, delimiter=",", header="x0,x1,y", comments="")
    return TINY_TEACHER.replace("model = teacher", "model = regression") \
        .replace("features = 3\nreg_samples = 60\nteacher_neurons = 2\n", "data_path = data.csv\n")


@pytest.mark.parametrize("model, lines, key", [
    pytest.param("synthetic", "tau = 7.0", "tau", id="synthetic"),
    pytest.param("gmm", "signed = false", "signed", id="gmm"),
    # the first key named is the first in sorted order
    pytest.param("teacher", "tau = 7.0\nsigned = false", "signed", id="teacher"),
    pytest.param("regression", "features = 3", "features", id="regression"),
])
def test_problem_key_the_model_does_not_read_exits_2_naming_it(model, lines, key, tmp_path,
                                                              capsys):
    # a key of another model used to be ignored: teacher_desk.cfg with
    # ``signed = false`` ran to exit 0 with particles of sign -1
    body = {"synthetic": TINY_SYNTHETIC, "gmm": TINY_GMM,
            "teacher": (CONFIGS / "teacher_desk.cfg").read_text(encoding="utf-8")
            .replace("iterations = 20000", "iterations = 20"),
            "regression": tiny_regression(tmp_path)}[model]
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == 0
    cfg = write_config(tmp_path, with_problem_keys(body, lines), name="foreign.cfg")
    out = tmp_path / "foreign"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: [problem] {key} is not read by model = {model}\n"
    assert not out.exists()


@pytest.mark.parametrize("lines, key", [
    ("ring_radius = 99.0\ncomponents = 7", "components"),
    ("gmm_samples = 500", "gmm_samples"),
    ("ring_radius = 99.0", "ring_radius"),
])
def test_generated_ring_key_with_data_path_exits_2_naming_it(lines, key, tmp_path, capsys):
    # a mixture read from data_path used to ignore these keys and exit 0;
    # seed stays, as the audit of a calibrated run reads it
    g = np.random.Generator(np.random.Philox(6))
    np.savetxt(tmp_path / "data.csv", g.standard_normal((200, 2)), delimiter=",",
               header="x0,x1", comments="")
    body = TINY_GMM.replace("components = 3\ngmm_samples = 200\n", "data_path = data.csv\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, body)), "--out", str(out)]) == 0
    cfg = write_config(tmp_path, with_problem_keys(body, lines), name="ring.cfg")
    out = tmp_path / "ring"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfg}: [problem] {key} is not read by model = gmm with data_path\n"
    assert not out.exists()


def test_run_without_a_resource_module_reports_its_resources_as_na(tmp_path):
    # ``resource`` exists on Unix only: elsewhere ``conicswarm`` still
    # imports and runs, and says what it could not measure
    cfg = write_config(tmp_path, TINY_SYNTHETIC)
    out = tmp_path / "out"
    done = run_python("-c", "import sys; sys.modules['resource'] = None; "
                      "from conicswarm.cli import main; sys.exit(main(sys.argv[1:]))",
                      "run", "--config", str(cfg), "--out", str(out))
    assert done.returncode == 0, done.stderr
    last = "resources: minor_faults_per_iter=n/a peak_rss_mb=n/a"
    assert (out / "summary.txt").read_text().splitlines()[-1] == last
    assert done.stdout.splitlines()[-1] == last


@pytest.mark.parametrize("platform, peak", [("darwin", "3072.0"), ("linux", "3145728.0")])
def test_peak_rss_reads_bytes_on_macos_and_kib_elsewhere(platform, peak, tmp_path,
                                                         monkeypatch):
    usage = types.SimpleNamespace(ru_minflt=0, ru_maxrss=3 * 2**30)
    monkeypatch.setitem(sys.modules, "resource", types.SimpleNamespace(
        RUSAGE_SELF=0, getrusage=lambda who: usage))
    monkeypatch.setattr(sys, "platform", platform)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, TINY_SYNTHETIC)),
                 "--out", str(out)]) == 0
    last = (out / "summary.txt").read_text().splitlines()[-1]
    assert last == f"resources: minor_faults_per_iter=0 peak_rss_mb={peak}"


def test_signed_synthetic_problem_plants_atoms_of_both_signs(tmp_path, capsys):
    # ``signed`` defaults to true: the atoms take the magnitudes of the
    # unsigned build times random signs (two of three negative at seed 8),
    # and the run keeps both signs
    body = TINY_SYNTHETIC.replace("seed = 7", "seed = 8")
    unsigned, _ = build_problem(load_config(write_config(tmp_path, body)))
    cfg = write_config(tmp_path, body.replace("signed = false\n", ""), name="s.cfg")
    problem, _ = build_problem(load_config(cfg))
    assert problem.signed and not unsigned.signed
    weights = problem.model.atom_weights
    assert same_bits(np.abs(weights), unsigned.model.atom_weights)
    assert np.any(weights < 0) and np.any(weights > 0)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0, capsys.readouterr().err
    signs = ParticleSwarm.from_csv(out / "final_swarm.csv").signs
    assert np.any(signs < 0) and np.any(signs > 0)


def test_tail_exponent_sets_the_theory_birth_level(tmp_path):
    # the level is noise_sup sqrt(2 a), with a = d / (2 (2 + d)) = 1/4 at
    # d = 2 unless [birth_death] tail_exponent sets it
    levels = {}
    for exponent in (None, 0.4):
        body = (CONFIGS / "synthetic_theory.cfg").read_text(encoding="utf-8")
        if exponent is not None:
            body = body.replace("profile = theory", f"profile = theory\ntail_exponent = {exponent}")
        spec = load_config(write_config(tmp_path, body))
        assert spec.birth_death["tail_exponent"] == exponent
        problem, extras = build_problem(spec)
        noise = cli._audit(spec, problem).noise_sup
        levels[exponent] = build_run_config(spec, problem, extras)[0].birth_rule.threshold_coeff
    assert levels[None] == noise * math.sqrt(2.0 * 0.25)
    assert levels[0.4] == noise * math.sqrt(2.0 * 0.4) != levels[None]


def test_tail_exponent_below_the_analysis_exits_2(tmp_path, capsys):
    # a = d / (2 (2 + d)) = 1/4 is the smallest exponent the analysis admits
    # at d = 2: a smaller one is refused before anything is written
    cfg = shipped_copy("synthetic_theory.cfg", tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    cfg.write_text(body.replace("profile = theory", "profile = theory\ntail_exponent = 0.01"),
                   encoding="utf-8")
    assert load_config(cfg).birth_death["tail_exponent"] == 0.01
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: [birth_death] tail_exponent must be at least d / (2 (2 + d)) = 0.25 "
                   "in d = 2, got 0.01\n")
    assert not out.exists()


def test_theory_level_without_observation_noise_exits_2(tmp_path, capsys):
    # with noise_scale = 0 the audited noise bound is 0, so the noise-derived
    # birth level would be 0: the run is refused until the level is set
    cfg = shipped_copy("synthetic_theory.cfg", tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    assert "noise_scale = 0.02\n" in body
    cfg.write_text(body.replace("noise_scale = 0.02\n", "noise_scale = 0\n"), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: guarded birth threshold needs a positive audited "
                                       "noise bound; set birth_threshold explicitly\n")
    assert not out.exists()


def test_theory_profile_calibrates_manual_rates_without_alpha(tmp_path, capsys):
    # manual rates need alpha, except under the theory profile, which then
    # calibrates them
    cfg = write_config(tmp_path, TINY_SYNTHETIC.replace("alpha = 0.05\n", ""))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: manual rates need an explicit alpha\n"
    assert not out.exists()
    spec = load_config(cfg, profile_override="theory")
    assert spec.rates["mode"] == "calibrated" and spec.rates["alpha"] is None
    assert main(["run", "--config", str(cfg), "--out", str(out), "--profile", "theory"]) == 0
    assert "\ncalibrated: alpha=" in (out / "summary.txt").read_text(encoding="utf-8")


def test_calibrated_horizon_run_caps_its_step_by_rates_beta():
    # a horizon plan caps its step by the run's beta, as a fixed plan takes
    # it: ``[rates] beta`` where the file sets it, else ``chosen_beta``; at
    # K = 13,000,000 both lie below the structural bound 1 / (alpha^(d/4) sqrt(K))
    spec = load_config(CONFIGS / "synthetic_theory.cfg")
    spec.schedule["variant"] = "horizon"
    spec.run["iterations"] = 13_000_000
    problem, extras = build_problem(spec)
    config, cal = build_run_config(spec, problem, extras)
    structural = 1.0 / (cal.alpha ** (problem.domain.dim / 4.0) * math.sqrt(13_000_000))
    assert config.plan.beta == cal.chosen_beta < structural
    spec.rates["beta"] = 0.001
    config, cal = build_run_config(spec, problem, extras)
    assert config.plan.beta == 0.001 < cal.chosen_beta


@pytest.mark.parametrize("beta, want", [("beta = 0.0", 0.0), ("beta = 0.01", 0.01),
                                        ("", 1.0 / (0.5**0.5 * 4.0))])
def test_manual_horizon_run_caps_its_step_by_an_explicit_beta_even_zero(tmp_path, beta, want):
    # ``[rates] beta = 0`` gives a horizon plan the step 0, as a fixed plan
    # takes it; only a key left unset leaves the structural bound
    # 1 / (alpha^(d/4) sqrt(K)) uncapped, at alpha = 0.5, K = 16 and d = 2
    body = TINY_SYNTHETIC.replace("variant = fixed", "variant = horizon") \
        .replace("alpha = 0.05", "alpha = 0.5").replace("iterations = 40", "iterations = 16") \
        .replace("beta = 0.01", beta)
    spec = load_config(write_config(tmp_path, body))
    problem, extras = build_problem(spec)
    config, _ = build_run_config(spec, problem, extras)
    assert config.plan.beta == want


@pytest.mark.parametrize("body, message", [
    pytest.param(TINY_TEACHER.replace("model = teacher", "model = regression")
                 .replace("features = 3\nreg_samples = 60\nteacher_neurons = 2\n", ""),
                 "regression model requires data_path", id="regression-without-data"),
    pytest.param(with_problem_keys(TINY_SYNTHETIC, "box_low = 1.0\nbox_high = 1.0"),
                 "synthetic box must satisfy box_low < box_high", id="empty-box"),
    pytest.param(with_problem_keys(TINY_SYNTHETIC, "box_low = 2.0"),
                 "synthetic box must satisfy box_low < box_high", id="inverted-box"),
])
def test_cross_key_refusals_exit_2(body, message, tmp_path, capsys):
    cfg = write_config(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name, line, value, key", [
    ("synthetic_theory.cfg", "box_high = 1.0", "1e160", "box_low/box_high"),
    ("gmm_desk.cfg", "ring_radius = 5.0", "1e160", "ring_radius"),
    ("gmm_desk.cfg", "ring_radius = 5.0", None, "data_path"),
])
def test_box_whose_squared_diameter_overflows_exits_2_naming_the_key(name, line, value, key,
                                                                      tmp_path, capsys):
    # the kernels square the distance of two points of the box; where the
    # box's squared diameter is not a finite float, the run is refused
    # before anything is written
    cfg = shipped_copy(name, tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    assert line + "\n" in body
    if value is None:
        (tmp_path / "wide.csv").write_text("x0,x1\n0,0\n1e160,1e160\n5,-1e160\n")
        new, key = "data_path = wide.csv", f"data_path {tmp_path / 'wide.csv'}"
        body = body.replace("components = 5\ngmm_samples = 2000\n", "")
    else:
        new = line.split("=")[0] + f"= {value}"
    cfg.write_text(body.replace(line, new), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: [problem] {key}: the box's squared diameter "
                                       "sum((upper - lower)^2) is inf, not a finite float\n")
    assert not out.exists()


@pytest.mark.parametrize("key", ["ring_radius", "data_path"])
def test_mixture_past_its_entry_budget_exits_2_naming_the_key_and_tau(key, tmp_path, capsys):
    # the expanded entries' bound over the domain passes the budget 1e-9 on
    # a ring of radius 5,000 (admitted up to about 514 at this seed) and on
    # samples spread over 2e4
    cfg = shipped_copy("gmm_desk.cfg", tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    if key == "data_path":
        g = np.random.Generator(np.random.Philox(8))
        np.savetxt(tmp_path / "spread.csv", g.uniform(-1e4, 1e4, size=(50, 2)), delimiter=",",
                   header="x0,x1", comments="")
        body = body.replace("components = 5\ngmm_samples = 2000\n", "")
        body = body.replace("ring_radius = 5.0", "data_path = spread.csv")
        key = f"data_path {tmp_path / 'spread.csv'}"
    else:
        body = body.replace("ring_radius = 5.0", "ring_radius = 5000")
    cfg.write_text(body, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: \[problem\] {re.escape(key)}: the domain lies up to \S+ and the "
                        r"samples up to \S+ from the samples' centre, so at tau = 0\.2 a mixture "
                        r"entry may be off by \S+, past the budget 1e-09\n", err), err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_sigma_too_small_for_the_box_exits_2_naming_sigma(command, tmp_path, capsys):
    # the box's squared diameter 2e304 is finite, but the Gaussian exponent
    # 2e304 / (2 sigma^2) is not: the audit's kernel matrix used to exit 1
    # with "overflow encountered in multiply"
    cfg = shipped_copy("synthetic_theory.cfg", tmp_path, iterations=20)
    body = cfg.read_text(encoding="utf-8")
    assert "sigma = 1.2\n" in body and "box_high = 1.0\n" in body
    cfg.write_text(body.replace("sigma = 1.2", "sigma = 1e-3")
                   .replace("box_high = 1.0", "box_high = 1e152"), encoding="utf-8")
    out = tmp_path / "out"
    args = [command, "--config", str(cfg)] + (["--out", str(out)] if command == "run" else [])
    assert main(args) == 2
    assert capsys.readouterr().err == ("error: [problem] sigma: the kernel's largest exponent "
                                       "sum((upper - lower)^2) / (2 sigma^2) is inf, "
                                       "not a finite float\n")
    assert not out.exists()


def test_report_without_two_positive_excess_values_fits_no_slope(tmp_path, capsys):
    # j_ref defaults to the smallest loss of the traces, whose own excess is
    # then 0: two horizons leave one positive excess, too few for a slope
    header = "k,time_s,loss,tv,particles,births,deaths,min_cert,delta,cert_norm_sq\n"
    paths = []
    for k, loss in ((100, 0.5), (400, 0.25)):
        paths.append(tmp_path / f"k{k}.csv")
        paths[-1].write_text(f"{header}0,,1.0,1.0,4,0,0,,,\n{k},,{loss},1.0,4,0,0,,,0.0\n")
    assert main(["report", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "excess-loss slope: not enough strictly positive excess values to fit"
    assert not any("slope vs K" in line for line in out)
