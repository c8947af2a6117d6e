import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conicswarm
from conicswarm.cli import main
from conicswarm.config import ConfigError, load_config

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


def test_python_dash_m_runs_the_cli():
    # ``python -m conicswarm`` from the package's own source tree, installed or not
    src = str(Path(conicswarm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "conicswarm", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "verify" in done.stdout


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

    def test_negative_init_weight_exits_1(self, tmp_path, capsys):
        body = TINY_SYNTHETIC.replace("init_weight = 0.05", "init_weight = -0.05")
        cfg = write_config(tmp_path, body)
        assert main(["calibrate", "--config", str(cfg)]) == 1
        assert "nonnegative" in capsys.readouterr().err

    def test_gmm_normalization_warning(self, tmp_path, capsys):
        body = """
[problem]
model = gmm
kappa = 1e-4
seed = 2
components = 3
gmm_samples = 200
tau = 0.2

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
        from conicswarm.runner import trace_from_csv
        from conicswarm.swarm import ParticleSwarm
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

    def test_seed_flag_changes_trace(self, tmp_path):
        cfg = write_config(tmp_path, TINY_SYNTHETIC)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "9"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "10"]) == 0
        assert (out1 / "trace.csv").read_bytes() != (out2 / "trace.csv").read_bytes()

    @pytest.mark.parametrize("old, new, message", [
        ("candidates = 2", "candidates = 2\nbirth_mass = -0.01", "birth mass"),
        ("eps = 0.01", "eps = -0.01", "eps"),
    ])
    def test_bad_birth_weight_exits_1(self, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path, TINY_SYNTHETIC.replace(old, new))
        out = tmp_path / "bad"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "final_swarm.csv").exists()

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
    def test_bad_rate_exits_1(self, tmp_path, capsys, variant, old, new):
        # every schedule variant refuses the rate before the run, though the
        # horizon and anytime plans never read [rates] beta as the step
        body = TINY_SYNTHETIC.replace("variant = fixed", f"variant = {variant}")
        cfg = write_config(tmp_path, body.replace(old, new))
        out = tmp_path / "bad"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "rates must be nonnegative" in capsys.readouterr().err
        assert not (out / "final_swarm.csv").exists()

    def test_empty_batch_exits_1_before_the_loop(self, tmp_path, capsys, monkeypatch):
        import conicswarm.cli

        def loop_started(*_args):
            pytest.fail("the run started with an empty batch")

        monkeypatch.setattr(conicswarm.cli, "run", loop_started)
        cfg = write_config(tmp_path, TINY_SYNTHETIC.replace("batch = 16", "batch = 0"))
        out = tmp_path / "empty"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "batch size must be at least 1" in capsys.readouterr().err
        assert not out.exists()

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
        import numpy as np
        from conicswarm.swarm import ParticleSwarm

        seed_swarm = ParticleSwarm([0.2, 0.3], [1, 1], [[0.2, 0.2], [0.7, 0.7]])
        seed_swarm.to_csv(tmp_path / "init.csv")
        body = TINY_SYNTHETIC.replace("init = uniform", "init = csv:init.csv")
        body = body.replace("iterations = 40", "iterations = 0")
        cfg = write_config(tmp_path, body)
        out = tmp_path / "fromcsv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        final = ParticleSwarm.from_csv(out / "final_swarm.csv")
        assert np.allclose(final.weights, seed_swarm.weights)


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


class TestShippedProfiles:
    def test_all_shipped_configs_parse(self):
        for cfg in sorted(CONFIGS.glob("*.cfg")):
            if cfg.name == "housing_full.cfg":
                continue  # requires a user-supplied dataset
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
