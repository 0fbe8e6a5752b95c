"""Run configuration shared by every other module.

A :class:`ModelConfig` pins the spacetime dimension, the intercept shift,
the gauge and the level cutoff.  Configs are immutable after validation and
can be shared freely across threads.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


class Gauge(enum.Enum):
    LIGHT_CONE = "lc"
    COVARIANT = "cov"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower()
        aliases = {
            "lc": cls.LIGHT_CONE,
            "lightcone": cls.LIGHT_CONE,
            "light_cone": cls.LIGHT_CONE,
            "cov": cls.COVARIANT,
            "covariant": cls.COVARIANT,
        }
        if key not in aliases:
            raise ConfigError(f"unknown gauge {text!r} (expected lc or cov)")
        return aliases[key]


class ConfigError(ValueError):
    """A configuration violates a model invariant."""


@dataclass(frozen=True)
class Metric:
    """Signature of the internal inner product, one +-1 per oscillator direction."""

    signs: tuple

    @property
    def negative_count(self):
        return sum(1 for s in self.signs if s < 0)


def euclidean_metric(directions):
    return Metric((1,) * directions)


def minkowski_metric(d):
    """Metric with eta_00 = -1 and eta_kk = +1 for the spatial directions."""
    return Metric((-1,) + (1,) * (d - 1))


@dataclass(frozen=True)
class ModelConfig:
    d: int = 26
    a: Fraction = Fraction(1)
    gauge: Gauge = Gauge.COVARIANT
    level_cutoff: int = 2

    @property
    def oscillator_directions(self):
        if self.gauge is Gauge.LIGHT_CONE:
            return self.d - 2
        return self.d

    def metric(self):
        if self.gauge is Gauge.LIGHT_CONE:
            return euclidean_metric(self.oscillator_directions)
        return minkowski_metric(self.d)


def validate(config):
    """Return ``config`` unchanged if every invariant holds, else raise ConfigError."""
    if config.d < 2:
        raise ConfigError(f"spacetime dimension must be >= 2, got {config.d}")
    if config.gauge is Gauge.LIGHT_CONE and config.d < 3:
        raise ConfigError(
            f"light-cone gauge needs d >= 3 (d - 2 transverse directions), got d={config.d}")
    if config.level_cutoff < 0:
        raise ConfigError(f"level cutoff must be >= 0, got {config.level_cutoff}")
    metric = config.metric()
    if config.gauge is Gauge.COVARIANT:
        assert metric.negative_count == 1 and metric.signs[0] == -1
    else:
        assert metric.negative_count == 0
    return config


def load_key_value(path):
    """Parse a ``key = value`` configuration file into a string dict.

    Blank lines and lines starting with '#' are ignored.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_FIELD_PARSERS = {
    "d": int,
    "a": Fraction,
    "gauge": Gauge.parse,
    "level_cutoff": int,
}


def config_from_sources(file_path=None, overrides=None):
    """Build a validated config from an optional file plus override flags.

    ``overrides`` maps field name to raw string (CLI flags win over the file).
    """
    raw = {}
    if file_path:
        raw.update(load_key_value(file_path))
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    for key, value in raw.items():
        parser = _FIELD_PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            kwargs[key] = parser(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
    return validate(ModelConfig(**kwargs))
