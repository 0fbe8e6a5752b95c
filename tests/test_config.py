import json

import pytest

from stringfock.cli import dispatch
from stringfock.config import euclidean_metric, gauge_metric, minkowski_metric


def run_captured(capsys, argv):
    code = dispatch(argv)
    return code, capsys.readouterr()


def test_canonical_covariant_config_accepted(capsys):
    # d = 26, a = 1, level cutoff 2 in the covariant gauge
    assert gauge_metric(26, "cov") == minkowski_metric(26)
    code, captured = run_captured(capsys, ["spectrum", "--gauge", "cov", "--d", "26",
                                           "--a", "1", "--cutoff", "2"])
    assert code == 0 and captured.err == ""
    assert captured.out.splitlines() == ["level,mass_squared,degeneracy",
                                         "0,-2,1", "1,0,26", "2,2,377"]
    code, captured = run_captured(capsys, ["ccr-check", "--gauge", "cov", "--d", "26",
                                           "--cutoff", "2"])
    assert code == 0
    report = json.loads(captured.out)
    assert report["directions"] == 26 and report["all_zero"] is True


def test_vacuum_only_truncation_accepted(capsys):
    # cutoff 0 keeps the vacuum level alone
    code, captured = run_captured(capsys, ["spectrum", "--gauge", "lc", "--cutoff", "0"])
    assert code == 0
    assert captured.out.splitlines() == ["level,mass_squared,degeneracy", "0,-2,1"]
    code, captured = run_captured(capsys, ["noghost", "--d", "26", "--a", "1",
                                           "--max-level", "0"])
    assert code == 0
    assert [row["level"] for row in json.loads(captured.out)] == [0]


def test_negative_cutoffs_rejected(capsys):
    # each exits 2 naming the option and its value, before writing any data
    for argv, named in ((["spectrum", "--gauge", "lc", "--cutoff", "-1"],
                         "--cutoff must be at least 0, got -1"),
                        (["noghost", "--d", "26", "--max-level", "-1"],
                         "--max-level must be non-negative, got -1"),
                        (["field-ccr", "--particle-cutoff", "0"],
                         "particle cutoff must be at least 2, got 0"),
                        (["field-ccr", "--particle-cutoff", "1"],
                         "particle cutoff must be at least 2, got 1")):
        code, captured = run_captured(capsys, argv)
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err


def test_metric_signs():
    assert minkowski_metric(26).signs == (-1,) + (1,) * 25
    assert euclidean_metric(24).signs == (1,) * 24
    # d - 2 transverse directions in the light-cone gauge, all d covariantly
    assert gauge_metric(26, "lc") == euclidean_metric(24)
    assert gauge_metric(26, "cov") == minkowski_metric(26)
    assert gauge_metric(2, "cov").signs == (-1, 1)


def test_lightcone_needs_transverse_directions():
    assert gauge_metric(3, "lc").signs == (1,)
    for d, gauge in ((2, "lc"), (1, "cov"), (0, "lc")):
        with pytest.raises(ValueError, match=f"got d = {d}"):
            gauge_metric(d, gauge)
