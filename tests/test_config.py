from fractions import Fraction

import pytest

from stringfock.config import (ConfigError, Gauge, ModelConfig,
                               config_from_sources, euclidean_metric,
                               minkowski_metric, validate)


def test_canonical_covariant_config_accepted():
    cfg = ModelConfig(d=26, a=Fraction(1), gauge=Gauge.COVARIANT, level_cutoff=2)
    assert validate(cfg) is cfg


def test_lightcone_needs_transverse_directions():
    with pytest.raises(ConfigError):
        validate(ModelConfig(d=2, gauge=Gauge.LIGHT_CONE))


def test_vacuum_only_truncation_accepted():
    cfg = validate(ModelConfig(d=26, a=Fraction(1), level_cutoff=0))
    assert cfg.level_cutoff == 0


def test_negative_cutoffs_rejected():
    with pytest.raises(ConfigError):
        validate(ModelConfig(level_cutoff=-1))
    with pytest.raises(ConfigError):
        config_from_sources(None, {"particle_cutoff": "0"})


def test_metric_signs():
    assert minkowski_metric(26).negative_count == 1
    assert minkowski_metric(26).signs[0] == -1
    assert euclidean_metric(24).negative_count == 0
    assert ModelConfig(gauge=Gauge.LIGHT_CONE, d=26).oscillator_directions == 24
    assert ModelConfig(gauge=Gauge.COVARIANT, d=26).oscillator_directions == 26


def test_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n d = 4 \n gauge = lc\nlevel_cutoff = 3\n")
    cfg = config_from_sources(str(path))
    assert cfg.d == 4 and cfg.gauge is Gauge.LIGHT_CONE and cfg.level_cutoff == 3
    cfg2 = config_from_sources(str(path), {"gauge": "cov", "a": "1/2"})
    assert cfg2.gauge is Gauge.COVARIANT and cfg2.a == Fraction(1, 2)


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dimension = 26\n")
    with pytest.raises(ConfigError):
        config_from_sources(str(path))
