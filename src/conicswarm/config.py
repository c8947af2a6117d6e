"""Run configuration files: INI-style sections of ``key = value`` lines.

Parsing is fail-closed: unknown sections or keys raise, so a schedule typo
cannot silently fall back to a default and invalidate a calibrated run.
``_SCHEMA`` is the one place a key's domain is declared: its parser converts
and checks each value, so one outside the domain raises ``ConfigError``
naming the key. All paths are relative to the configuration file's directory.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ConfigError", "RunSpec", "load_config", "parse_value"]


class ConfigError(Exception):
    """Configuration or assumption failure (CLI exit code 2)."""


def _key(domain: str, parse, accept=lambda value: True):
    """A parser of values in ``domain``: ``parse`` converts, ``accept`` checks."""
    def parser(text: str):
        value = parse(text)
        if not accept(value):
            raise ValueError(f"not {domain}")
        return value

    parser.domain = domain
    return parser


def _choice(*names: str):
    return _key(f"one of {', '.join(names)}", str, lambda value: value in names)


def _at_least(low: int):
    return _key(f"at least {low}", int, lambda value: value >= low)


def _maybe(inner):
    """``inner``'s domain, or None for an empty value, ``none`` or ``auto``."""
    return _key(f"{inner.domain}, or auto",
                lambda text: None if text.strip().lower() in ("", "none", "auto") else inner(text))


_TRUTH = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}
_BOOL = _key("true or false", lambda text: _TRUTH.get(text.strip().lower()),
             lambda value: value is not None)
_POSITIVE = _key("positive and finite", float, lambda value: 0 < value < math.inf)
_NONNEGATIVE = _key("nonnegative and finite", float, lambda value: 0 <= value < math.inf)
_FINITE = _key("finite", float, math.isfinite)
# a Gaussian kernel width, whose square the kernels divide by
_WIDTH = _key("positive with a finite square that is a normal float", float,
              lambda value: value > 0 and sys.float_info.min <= value * value < math.inf)

# section -> key -> (parser, default); REQUIRED means no default
_REQUIRED = object()

_SCHEMA = {
    "problem": {
        "model": (_choice("synthetic", "gmm", "teacher", "regression"), _REQUIRED),
        "kappa": (_POSITIVE, _REQUIRED),
        "seed": (_at_least(0), 0),          # data-generation seed
        # synthetic
        "dim": (_at_least(1), 2),
        "sigma": (_WIDTH, 1.2),
        "n_samples": (_at_least(1), 64),
        "noise_scale": (_FINITE, 0.02),
        "atoms": (_at_least(0), 3),
        "atom_mass": (_FINITE, 0.35),
        "box_low": (_FINITE, 0.0),
        "box_high": (_FINITE, 1.0),
        "signed": (_BOOL, None),            # default depends on the model
        # gmm
        "components": (_at_least(1), 5),
        "gmm_samples": (_at_least(2), 2000),
        "tau": (_WIDTH, 0.2),
        "ring_radius": (_FINITE, 4.0),
        "data_path": (str, None),
        # teacher / regression; one sample cannot be standardized
        "features": (_at_least(0), 8),
        "reg_samples": (_at_least(2), 2000),
        "teacher_neurons": (_at_least(0), 5),
        "label_noise": (_FINITE, 0.05),
    },
    "rates": {
        "mode": (_choice("manual", "calibrated"), "manual"),
        "alpha": (_maybe(_NONNEGATIVE), None),
        "beta": (_maybe(_NONNEGATIVE), None),
        "audit_points": (_at_least(2), 160),
        "audit_tv_cap": (_FINITE, 1.0),
    },
    "schedule": {
        "variant": (_choice("fixed", "horizon", "anytime"), "fixed"),
        "eps": (_POSITIVE, 0.02),
        "batch": (_at_least(1), 256),
    },
    "birth_death": {
        "enabled": (_BOOL, True),
        "profile": (_choice("experiments", "theory"), "experiments"),
        "death": (_choice("guarded", "ratio"), None),   # default by profile
        "tau_death": (_POSITIVE, 5.0),
        "scan": (_choice("all", "single"), "all"),
        # None: by profile (theory: noise cap); +inf accepts every candidate, -inf none
        "birth_threshold": (_maybe(_key("a number other than NaN", float,
                                        lambda value: not math.isnan(value))), None),
        "candidates": (_at_least(1), None),             # default by profile
        "tail_exponent": (_maybe(_POSITIVE), None),     # None: d / (2 (2 + d))
        "birth_mass": (_maybe(_NONNEGATIVE), None),     # None: eps_k
    },
    "run": {
        "variant": (_choice("full", "stochastic"), "stochastic"),
        "iterations": (_at_least(0), _REQUIRED),
        "seed": (_at_least(0), 1),
        "trace_cadence": (_at_least(1), 10),
        "kkt_grid": (_key("0 (no KKT report) or at least 2", int,   # points per axis
                          lambda value: value == 0 or value >= 2), 0),
        "init": (_key("one of uniform, clustered, sphere, csv:PATH", str,
                      lambda value: value in ("uniform", "clustered", "sphere")
                      or value.startswith("csv:")), "uniform"),
        "init_particles": (_at_least(0), 20),
        "init_weight": (_NONNEGATIVE, 0.05),
        "jref": (_maybe(_FINITE), None),
    },
    "output": {
        "dir": (str, "."),
    },
}


def parse_value(section: str, key: str, text: str, name: str):
    """Parse ``text`` as a value of ``[section] key``; ``name`` labels it in the error."""
    parser = _SCHEMA[section][key][0]
    try:
        return parser(text)
    except ValueError:
        raise ConfigError(f"{name} must be {parser.domain}, got {text!r}") from None


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
            values[key] = parse_value(section, key, raw, f"{path}: [{section}] {key}")
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
        sections["birth_death"]["profile"] = parse_value(
            "birth_death", "profile", profile_override, "profile override")

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
    """The rules that involve more than one key."""
    rates, prob = sections["rates"], sections["problem"]
    if rates["mode"] == "manual" and rates["alpha"] is None:
        raise ConfigError(f"{path}: manual rates need an explicit alpha")
    variant = sections["schedule"]["variant"]
    # the horizon and anytime plans tie the exploration mass to alpha
    if rates["mode"] == "manual" and rates["alpha"] == 0 and variant != "fixed":
        raise ConfigError(f"{path}: [rates] alpha must be > 0 under [schedule] variant = "
                          f"{variant}, got {rates['alpha']!r}")
    if prob["model"] == "regression" and not prob["data_path"]:
        raise ConfigError(f"{path}: regression model requires data_path")
    if prob["model"] == "synthetic" and prob["box_low"] >= prob["box_high"]:
        raise ConfigError(f"{path}: synthetic box must satisfy box_low < box_high")
