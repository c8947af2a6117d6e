"""Run configuration files: INI-style sections of ``key = value`` lines.

Parsing is fail-closed: unknown sections or keys raise, so a schedule typo
cannot silently fall back to a default and invalidate a calibrated run.
All paths are interpreted relative to the configuration file's directory.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ConfigError", "RunSpec", "load_config"]


class ConfigError(Exception):
    """Configuration or assumption failure (CLI exit code 2)."""


# section -> key -> (parser, default); REQUIRED means no default
_REQUIRED = object()


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _maybe_float(text: str):
    low = text.strip().lower()
    return None if low in ("", "none", "auto") else float(text)


_SCHEMA = {
    "problem": {
        "model": (str, _REQUIRED),          # synthetic | gmm | teacher | regression
        "kappa": (float, _REQUIRED),
        "seed": (int, 0),                   # data-generation seed
        # synthetic
        "dim": (int, 2),
        "sigma": (float, 1.2),
        "n_samples": (int, 64),
        "noise_scale": (float, 0.02),
        "atoms": (int, 3),
        "atom_mass": (float, 0.35),
        "box_low": (float, 0.0),
        "box_high": (float, 1.0),
        "signed": (_bool, None),            # default depends on the model
        # gmm
        "components": (int, 5),
        "gmm_samples": (int, 2000),
        "tau": (float, 0.2),
        "ring_radius": (float, 4.0),
        "data_path": (str, None),
        # teacher / regression
        "features": (int, 8),
        "reg_samples": (int, 2000),
        "teacher_neurons": (int, 5),
        "label_noise": (float, 0.05),
    },
    "rates": {
        "mode": (str, "manual"),            # manual | calibrated
        "alpha": (_maybe_float, None),
        "beta": (_maybe_float, None),
        "audit_points": (int, 160),
        "audit_tv_cap": (float, 1.0),
    },
    "schedule": {
        "variant": (str, "fixed"),          # fixed | horizon | anytime
        "eps": (float, 0.02),
        "batch": (int, 256),
    },
    "birth_death": {
        "enabled": (_bool, True),
        "profile": (str, "experiments"),    # experiments | theory
        "death": (str, None),               # guarded | ratio (default by profile)
        "tau_death": (float, 5.0),
        "scan": (str, "all"),               # all | single
        "birth_threshold": (_maybe_float, None),  # None: by profile (theory: noise cap)
        "candidates": (int, None),          # default by profile
        "tail_exponent": (_maybe_float, None),    # None: d / (2 (2 + d))
        "birth_mass": (_maybe_float, None),       # None: eps_k
    },
    "run": {
        "variant": (str, "stochastic"),     # full | stochastic
        "iterations": (int, _REQUIRED),
        "seed": (int, 1),
        "trace_cadence": (int, 10),
        "kkt_grid": (int, 0),               # 0: no KKT report, else points per axis >= 2
        "init": (str, "uniform"),           # uniform | clustered | sphere | csv:PATH
        "init_particles": (int, 20),
        "init_weight": (float, 0.05),
        "jref": (_maybe_float, None),
    },
    "output": {
        "dir": (str, "."),
    },
}

_ALLOWED_VALUES = {
    ("problem", "model"): {"synthetic", "gmm", "teacher", "regression"},
    ("rates", "mode"): {"manual", "calibrated"},
    ("schedule", "variant"): {"fixed", "horizon", "anytime"},
    ("birth_death", "profile"): {"experiments", "theory"},
    ("birth_death", "death"): {"guarded", "ratio"},
    ("birth_death", "scan"): {"all", "single"},
    ("run", "variant"): {"full", "stochastic"},
}


@dataclass
class RunSpec:
    """Typed view of a parsed configuration file."""

    problem: dict
    rates: dict
    schedule: dict
    birth_death: dict
    run: dict
    output: dict
    base_dir: Path = field(default_factory=Path)

    def resolve_path(self, value: str) -> Path:
        return (self.base_dir / value).resolve()


def load_config(path, profile_override: str | None = None) -> RunSpec:
    """Parse and validate a configuration file.

    ``profile_override`` replaces the ``[birth_death] profile`` key before
    profile defaults are applied.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        schema = _SCHEMA[section]
        values = {}
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            parse_fn, _ = schema[key]
            try:
                values[key] = parse_fn(raw)
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for [{section}] {key}: {exc}") from exc
        sections[section] = values

    # fill defaults, enforce required keys
    for section, schema in _SCHEMA.items():
        values = sections.setdefault(section, {})
        for key, (_, default) in schema.items():
            if key not in values:
                if default is _REQUIRED:
                    raise ConfigError(f"{path}: missing required key {key!r} in [{section}]")
                values[key] = default

    if profile_override is not None:
        if profile_override not in ("experiments", "theory"):
            raise ConfigError(f"unknown profile {profile_override!r}")
        sections["birth_death"]["profile"] = profile_override

    for (section, key), allowed in _ALLOWED_VALUES.items():
        val = sections[section][key]
        if val is not None and val not in allowed:
            raise ConfigError(f"{path}: [{section}] {key} must be one of {sorted(allowed)}")

    _apply_profile_defaults(sections)
    _validate(sections, path)
    return RunSpec(problem=sections["problem"], rates=sections["rates"],
                   schedule=sections["schedule"], birth_death=sections["birth_death"],
                   run=sections["run"], output=sections["output"],
                   base_dir=path.parent)


def _apply_profile_defaults(sections) -> None:
    bd = sections["birth_death"]
    theory = bd["profile"] == "theory"
    if bd["death"] is None:
        bd["death"] = "guarded" if theory else "ratio"
    if bd["candidates"] is None:
        bd["candidates"] = 1 if theory else 32
    if theory and sections["rates"]["mode"] == "manual" and sections["rates"]["alpha"] is None:
        sections["rates"]["mode"] = "calibrated"


def _validate(sections, path) -> None:
    rates = sections["rates"]
    if rates["mode"] == "manual" and rates["alpha"] is None:
        raise ConfigError(f"{path}: manual rates need an explicit alpha")
    run = sections["run"]
    if run["iterations"] < 0:
        raise ConfigError(f"{path}: iterations must be nonnegative")
    if run["kkt_grid"] < 0 or run["kkt_grid"] == 1:
        raise ConfigError(f"{path}: [run] kkt_grid must be 0 (no report) or at least 2")
    init = run["init"]
    if init not in ("uniform", "clustered", "sphere") and not init.startswith("csv:"):
        raise ConfigError(f"{path}: unknown init {init!r}")
    prob = sections["problem"]
    if prob["model"] == "regression" and not prob["data_path"]:
        raise ConfigError(f"{path}: regression model requires data_path")
    if prob["model"] == "gmm" and not prob["data_path"] and prob["gmm_samples"] < 2:
        raise ConfigError(f"{path}: [problem] gmm_samples must be at least 2")
    if prob["model"] == "gmm" and not prob["data_path"] and prob["components"] < 1:
        raise ConfigError(f"{path}: [problem] components must be at least 1")
    tau = prob["tau"]
    if prob["model"] == "gmm" and not (tau > 0 and math.isfinite(tau * tau)):
        raise ConfigError(f"{path}: [problem] tau must be positive with a finite square")
    if prob["model"] == "teacher" and prob["reg_samples"] < 2:
        raise ConfigError(f"{path}: [problem] reg_samples must be at least 2")
    if not init.startswith("csv:") and run["init_particles"] < 0:
        raise ConfigError(f"{path}: [run] init_particles must be nonnegative")
    if prob["model"] == "synthetic" and prob["box_low"] >= prob["box_high"]:
        raise ConfigError(f"{path}: synthetic box must satisfy box_low < box_high")
    if not (0 < prob["kappa"] < math.inf):
        raise ConfigError(f"{path}: kappa must be positive and finite")
