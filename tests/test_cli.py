import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stringfock import propagator
from stringfock.cli import _HANDLERS, build_parser, dispatch, fmt, main
from stringfock.propagator import EvaluatorControls

from oracles import PauliJordanEvaluator


# SHA-256 of the stdout of the exact README invocations; the outputs hold
# only rationals, ints and bools, so the digests do not depend on the platform
EXACT_DIGESTS = {
    "basis --directions 24 --cutoff 3":
        "71227d58c3fd956e1179495451da786cb86ad133eaa6056d2d85899a13fb8493",
    "ccr-check --cutoff 3 --d 26":
        "18ab312f762b83f1381bdd8f9d5a1f7c01cb57d2a201cd849eea134bbf51684b",
    "virasoro-check --cutoff 6 --d 4":
        "dea4aec24090d5e8be723b076ecda04fef0a1ca796e2c6b2a52a3d85f3366354",
    "spectrum --gauge lc --cutoff 3 --a 1":
        "160ca693e8c59079f061c1a9f016b41dfcf080b4105d67ff0dc2844e5e833e9d",
    "noghost --d 26 --a 1 --max-level 2":
        "a5fab6c6dcc76786a458473e8a5307f2a27cba9dca94d513b763d708acf04802",
}


def run_captured(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def readme_command_block():
    return README.split("## Command line", 1)[1].split("```")[1]


@pytest.mark.parametrize("invocation", sorted(EXACT_DIGESTS))
def test_exact_readme_outputs_are_pinned(capsys, invocation):
    assert f"stringfock {invocation}\n" in readme_command_block()
    code, out = run_captured(capsys, shlex.split(invocation))
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == EXACT_DIGESTS[invocation]


def test_readme_invocations_parse(tmp_path, capsys, monkeypatch):
    block = readme_command_block()
    argvs = [shlex.split(ln)[1:] for ln in block.splitlines()
             if ln.startswith("stringfock ")]
    assert sorted(argv[0] for argv in argvs) == sorted(_HANDLERS)
    parser = build_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0]
    # every invocation runs and passes; the README's spec is the field.json
    # it names, and the five exact ones already run in the pinned test above
    monkeypatch.chdir(tmp_path)
    Path("field.json").write_text(README.split("```json", 1)[1].split("```")[0])
    for argv in argvs:
        if shlex.join(argv) not in EXACT_DIGESTS:
            assert dispatch(argv) == 0, argv
            assert capsys.readouterr().out


def test_basis_counts(capsys):
    code, out = run_captured(capsys, ["basis", "--directions", "24", "--cutoff", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 1
    code, out = run_captured(capsys, ["basis", "--directions", "24", "--cutoff", "2"])
    data = json.loads(out)
    assert data["total"] == 1 + 24 + 324
    assert data["per_level"][2]["count"] == 324


def test_spectrum_frozen_rows(capsys):
    code, out = run_captured(capsys, ["spectrum", "--gauge", "lc", "--cutoff", "3",
                                      "--a", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "level,mass_squared,degeneracy"
    assert lines[1:] == ["0,-2,1", "1,0,24", "2,2,324", "3,4,3200"]
    # d = 6 in the light-cone gauge has 4 transverse colors at level 1
    code, out = run_captured(capsys, ["spectrum", "--gauge", "lc", "--d", "6", "--cutoff", "1"])
    assert code == 0
    assert out.splitlines()[2] == "1,0,4"


def test_spectrum_is_bit_identical_between_runs(capsys):
    _, first = run_captured(capsys, ["spectrum", "--gauge", "cov", "--cutoff", "3",
                                     "--a", "1/2"])
    _, second = run_captured(capsys, ["spectrum", "--gauge", "cov", "--cutoff", "3",
                                      "--a", "1/2"])
    assert first == second
    assert "-1" in first.splitlines()[1]


def test_noghost_exit_codes(capsys):
    code, out = run_captured(capsys, ["noghost", "--d", "26", "--a", "1",
                                      "--max-level", "1"])
    assert code == 0
    data = json.loads(out)
    assert [row["match"] for row in data] == [True, True]


def test_ccr_check_small(capsys):
    code, out = run_captured(capsys, ["ccr-check", "--cutoff", "2", "--d", "4",
                                      "--gauge", "cov"])
    assert code == 0
    data = json.loads(out)
    assert data["all_zero"] is True
    assert data["pairs_checked"] == len(data["results"]) > 0


def test_ccr_check_cutoff_4_output_is_pinned(capsys):
    # the d = 26 cutoff-4 suite's |m| = |n| = 1 pairs have 404 safe columns
    # each, enough for the vectorised screen that the cutoff-3 run never reaches
    code, out = run_captured(capsys, ["ccr-check", "--cutoff", "4", "--d", "26"])
    assert code == 0
    assert len(out) == 1496473
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == \
        "72f198c74c99417e7f0e5efbbce08e62e39773b257905f53ac611611a74589ad"


def test_virasoro_check_small(capsys):
    code, out = run_captured(capsys, ["virasoro-check", "--cutoff", "4", "--d", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["all_zero"] is True
    assert data["fitted_central_coefficient"] == "4"


def test_virasoro_check_at_a_given_momentum(capsys):
    code, out = run_captured(capsys, ["virasoro-check", "--cutoff", "4", "--d", "4",
                                      "--momentum", "2,1,1,0"])
    assert code == 0
    data = json.loads(out)
    assert data["momentum"] == ["2", "1", "1", "0"]
    assert data["all_zero"] is True
    # a wrong component count and a token that is not a rational: usage errors
    for bad in ("2,1,1", "2,1,x,0"):
        assert dispatch(["virasoro-check", "--cutoff", "4", "--d", "4",
                         "--momentum", bad]) == 2
        assert "--momentum" in capsys.readouterr().err


def test_field_ccr_cli(capsys):
    code, out = run_captured(capsys, ["field-ccr"])
    assert code == 0
    data = json.loads(out)
    assert len(data["pairs"]) == 3
    assert data["max_relative_mismatch"] <= 1e-4 and data["pass"] is True
    # d_cm = 2 is the only dimension the check runs in, so it takes no --dcm
    for argv in (["field-ccr", "--dcm", "3"], ["locality-scan", "--dcm", "2"]):
        assert dispatch(argv) == 2
        assert "unrecognized arguments: --dcm" in capsys.readouterr().err


def test_no_subcommand_takes_a_config_file(tmp_path, capsys):
    # the model is read from the flags alone
    argvs = [["basis", "--directions", "2", "--cutoff", "1"],
             ["ccr-check", "--cutoff", "2"], ["virasoro-check", "--cutoff", "2"],
             ["spectrum", "--gauge", "lc", "--cutoff", "1"],
             ["noghost", "--d", "26", "--max-level", "0"],
             ["locality-scan"], ["pauli-jordan", "--r", "0"], ["field-ccr"],
             ["observable-check", "--spec", str(tmp_path / "field.json")],
             ["worldsheet-demo"], ["string-cone"]]
    assert sorted(argv[0] for argv in argvs) == sorted(_HANDLERS)
    for argv in argvs:
        assert dispatch(argv + ["--config", str(tmp_path / "run.cfg")]) == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert dispatch(["spectrum", "--cutoff", "3"]) == 2          # missing --gauge
    capsys.readouterr()
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()
    assert dispatch(["basis", "--directions", "24", "--cutoff", "2",
                     "--bogus-flag"]) == 2
    capsys.readouterr()
    # values no run can use, and runs that would check nothing: each names
    # its value and exits 2 before writing any data, not 0 or a traceback
    for argv, named in ((["locality-scan", "--levels=-4"], "r = -4"),
                        (["locality-scan", "--levels=-3"], "r = -3"),
                        (["locality-scan", "--radius", "0"], "radius must be positive, got 0.0"),
                        (["locality-scan", "--h", "0"], "h must be positive, got 0.0"),
                        (["field-ccr", "--h", "0"], "h must be positive, got 0.0"),
                        (["pauli-jordan", "--r", "0", "--h", "0"], "h must be positive, got 0.0"),
                        (["pauli-jordan", "--r", "0", "--width", "0"],
                         "width must be positive, got 0.0"),
                        (["pauli-jordan", "--r", "0", "--xmax", "-1"],
                         "xmax must be positive, got -1.0"),
                        (["pauli-jordan", "--r", "0", "--dt-out", "0"], "got 0.0 and 0.25"),
                        (["pauli-jordan", "--r", "0", "--dx-out", "0"], "got 0.5 and 0.0"),
                        (["string-cone", "--h", "0"], "h must be positive, got 0.0"),
                        (["string-cone", "--extent", "0"], "extent must be positive, got 0.0"),
                        (["string-cone", "--cfl", "0"], "cfl must be positive, got 0.0"),
                        (["string-cone", "--T", "0"], "must be positive, got 0.0"),
                        (["locality-scan", "--separations", "0.5,1", "--timelike", "2.5",
                          "--h", "0.02"], "[0.5, 1.0]"),
                        (["pauli-jordan", "--r", "0", "--tmax", "-1"],
                         "--tmax must be non-negative, got -1.0"),
                        (["pauli-jordan", "--r", "0", "--xmax", "0.01"], "--xmax 0.01"),
                        # with --xmax 8 this run prints -0.5001 at t = 3, x = -1.99,
                        # where the wall at 2 turns it into 4.3e-05
                        (["pauli-jordan", "--r", "0", "--xmax", "2", "--tmax", "3"],
                         "max |x_i| = 1.93 at --xmax 2; lower --tmax or raise --xmax"),
                        (["worldsheet-demo", "--samples", "0"],
                         "--samples must be positive, got 0"),
                        (["field-ccr", "--shell-points", "0"], "n must be positive, got 0"),
                        (["field-ccr", "--pmax", "-1"], "pmax must be positive, got -1.0"),
                        (["locality-scan", "--timelike=", "--h", "0.02"], "no timelike offset"),
                        (["locality-scan", "--levels=0,0", "--h", "0.02"],
                         "mass level r = 0.0 is listed twice"),
                        (["locality-scan", "--separations=", "--h", "0.02"],
                         "--separations takes comma-separated numbers, got ''"),
                        (["locality-scan", "--levels=", "--h", "0.02"],
                         "--levels takes comma-separated numbers, got ''"),
                        (["locality-scan", "--levels=0,1/0", "--h", "0.02"],
                         "--levels takes comma-separated numbers, got '0,1/0'"),
                        (["locality-scan", "--timelike=2.5,", "--h", "0.02"],
                         "--timelike takes comma-separated numbers, got '2.5,'"),
                        (["virasoro-check", "--cutoff", "2", "--d", "4",
                          "--momentum", "1,1/0,1,1"],
                         "--momentum takes comma-separated numbers, got '1,1/0,1,1'"),
                        (["noghost", "--d", "26", "--a", "1/0", "--max-level", "1"],
                         "--a takes comma-separated numbers, got '1/0'"),
                        (["noghost", "--d", "26", "--a", "x", "--max-level", "1"],
                         "--a takes comma-separated numbers, got 'x'"),
                        (["noghost", "--d", "26", "--a", "1,2", "--max-level", "1"],
                         "--a takes one number, got '1,2'"),
                        (["pauli-jordan", "--r", "1/0"],
                         "--r takes comma-separated numbers, got '1/0'"),
                        (["pauli-jordan", "--r", "x"],
                         "--r takes comma-separated numbers, got 'x'"),
                        (["pauli-jordan", "--r", "0", "--dcm", "1"],
                         "d_cm must be at least 2, got 1"),
                        (["string-cone", "--dcm", "0"], "d_cm must be at least 2, got 0"),
                        (["string-cone", "--dcm", "1"], "d_cm must be at least 2, got 1"),
                        (["string-cone", "--N", "0", "--dcm", "1"],
                         "d_cm must be at least 2, got 1"),
                        (["string-cone", "--N", "-1"], "n_modes must be non-negative, got -1"),
                        (["string-cone", "--data-radius", "0"],
                         "radius must be positive, got 0.0"),
                        (["string-cone", "--data-radius", "-1"],
                         "radius must be positive, got -1.0"),
                        (["string-cone", "--extent", "0.3", "--h", "0.1", "--T", "0.2"],
                         "--data-radius 0.4 + --T 0.2 + 3 --h 0.1 = 0.9 reaches the box "
                         "wall, --extent 0.3"),
                        (["string-cone", "--extent", "0.01"], "= 1.975 reaches the box wall"),
                        # runs that blow up: the tachyonic level overflows, and a
                        # cfl past the stability limit outgrows the norm bound
                        (["locality-scan", "--levels=-2,0", "--radius", "300", "--h", "4",
                          "--separations", "1300", "--timelike", "700"],
                         "the field is not finite after"),
                        (["string-cone", "--cfl", "1.5", "--h", "0.1"],
                         "exceeds the exponential bound"),
                        (["spectrum", "--gauge", "lc", "--d", "2", "--cutoff", "1"],
                         "light-cone gauge needs d >= 3"),
                        (["ccr-check", "--gauge", "lc", "--d", "2", "--cutoff", "2"],
                         "got d = 2"),
                        (["spectrum", "--gauge", "cov", "--d", "1", "--cutoff", "1"],
                         "spacetime dimension must be >= 2, got d = 1"),
                        (["virasoro-check", "--d", "1", "--cutoff", "2"],
                         "spacetime dimension must be >= 2, got d = 1"),
                        (["ccr-check", "--cutoff", "1"], "--cutoff must be at least 2, got 1"),
                        (["ccr-check", "--cutoff", "0"], "--cutoff must be at least 2, got 0"),
                        (["virasoro-check", "--cutoff", "0"],
                         "--cutoff must be at least 1, got 0"),
                        (["virasoro-check", "--d", "2", "--cutoff", "2"],
                         "standard momentum family needs d >= 3, got d = 2"),
                        (["noghost", "--d", "2", "--max-level", "1"],
                         "standard momentum family needs d >= 3, got d = 2"),
                        (["spectrum", "--gauge", "lc", "--cutoff", "1", "--a", "x"],
                         "--a takes comma-separated numbers, got 'x'"),
                        (["locality-scan", "--levels=0", "--separations", "2.1",
                          "--timelike=nan"], "--timelike takes finite numbers, got 'nan'"),
                        (["locality-scan", "--separations", "inf"],
                         "--separations takes finite numbers, got 'inf'"),
                        (["locality-scan", "--timelike=inf"],
                         "--timelike takes finite numbers, got 'inf'"),
                        (["locality-scan", "--separations", "2.1,nan"],
                         "--separations takes finite numbers, got 'nan'")):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and named in captured.err
    # a float option that is not a finite number is refused while parsing,
    # and argparse's message names the option
    for argv, named in ((["locality-scan", "--tolerance", "nan"], "--tolerance"),
                        (["pauli-jordan", "--r", "0", "--xmax", "inf"], "--xmax"),
                        (["pauli-jordan", "--r", "0", "--xmax", "2", "--tmax", "1", "--h", "nan"],
                         "--h"),
                        (["field-ccr", "--pmax", "inf"], "--pmax"),
                        (["string-cone", "--extent", "inf"], "--extent"),
                        (["string-cone", "--leakage-threshold", "nan", "--h", "0.1"],
                         "--leakage-threshold")):
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        value = argv[argv.index(named) + 1]
        assert f"error: argument {named}: takes a finite number, got {value!r}" in captured.err


def test_out_writes_data_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "spectrum.csv"
    code = dispatch(["spectrum", "--gauge", "lc", "--cutoff", "2", "--a", "1",
                     "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    manifest = json.loads((tmp_path / "spectrum.csv.manifest.json").read_text())
    assert manifest["command"] == "spectrum"
    assert manifest["tool_version"]
    assert str(out_path) in manifest["outputs"]
    assert out_path.read_text().splitlines()[1] == "0,-2,1"


def test_manifest_wall_time_is_the_run_duration(tmp_path, capsys):
    out_path = tmp_path / "basis.csv"
    start = time.perf_counter()
    code = dispatch(["basis", "--directions", "2", "--cutoff", "2", "--out", str(out_path)])
    elapsed = time.perf_counter() - start
    assert code == 0
    manifest = json.loads((tmp_path / "basis.csv.manifest.json").read_text())
    assert 0.0 <= manifest["wall_time_s"] <= elapsed


@pytest.mark.parametrize("invocation", [ln.removeprefix("stringfock ")
                                        for ln in readme_command_block().splitlines()
                                        if ln.startswith("stringfock ")])
def test_out_holds_the_stdout_bytes(tmp_path, capsys, monkeypatch, invocation):
    # the README's spec is the field.json it names
    monkeypatch.chdir(tmp_path)
    Path("field.json").write_text(README.split("```json", 1)[1].split("```")[0])
    argv = shlex.split(invocation)
    code, out = run_captured(capsys, argv)
    assert dispatch(argv + ["--out", "data"]) == code
    assert capsys.readouterr().out == ""
    assert Path("data").read_bytes() == out.encode("utf-8")
    manifest = json.loads(Path("data.manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == ["data"]
    # the parameters are the set options in the subcommand's own order, --out last
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[argv[0]]
    given = vars(parser.parse_args(argv + ["--out", "data"]))
    order = [a.dest for a in sub._actions if a.dest != "help" and given[a.dest] is not None]
    assert list(manifest["parameters"]) == order and order[-1] == "out"


def test_pauli_jordan_refuses_unbounded_history(capsys, monkeypatch):
    # at the defaults a d_cm = 4 grid has 1201^3 points, 13.9 GB per array;
    # the refusal comes before any grid-sized array exists
    def no_grid_arrays(*args):
        raise AssertionError("a grid-sized array was allocated")

    monkeypatch.setattr(propagator, "_mollifier", no_grid_arrays)
    monkeypatch.setattr(propagator.BoxGrid, "zeros", no_grid_arrays)
    code = dispatch(["pauli-jordan", "--r", "0", "--dcm", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "83151532848 bytes" in err and "1073741824 bytes" in err


def test_pauli_jordan_dcm3_matches_history_oracle(capsys):
    code, out = run_captured(capsys, ["pauli-jordan", "--r", "0", "--dcm", "3", "--xmax", "2",
                                      "--h", "0.02", "--tmax", "1"])
    assert code == 0
    ev = PauliJordanEvaluator(0.0, 3, EvaluatorControls(xmax=2.0, h=0.02))
    xs = [-1.98 + 0.25 * i for i in range(16)]
    points = [(x, 0.0) for x in xs]
    want = ["t,x,value"] + [f"{fmt(t)},{fmt(x)},{fmt(v)}"
                            for t in (0.0, 0.5, 1.0)
                            for x, v in zip(xs, ev.value(t, points))]
    assert out.splitlines() == want


def test_worldsheet_demo(capsys):
    code, out = run_captured(capsys, ["worldsheet-demo", "--samples", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("tau,sigma,X0")
    assert len(lines) == 1 + 16


def test_observable_check_cli(tmp_path, capsys):
    spec = {
        "bump": {"t_center": 0.0, "t_radius": 0.5, "x_center": 0.0, "x_radius": 0.5},
        "internal": [{"modes": [[1, 2]], "coeff": "1"}],
        "d": 26, "cutoff": 2, "a": "1",
        "shells": {"pmax": 30, "n": 600},
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    code, out = run_captured(capsys, ["observable-check", "--spec", str(path)])
    assert code == 0
    assert json.loads(out)["observable"] is True

    spec["internal"] = [{"modes": [[1, 0]], "coeff": "1"}]
    path.write_text(json.dumps(spec))
    code, out = run_captured(capsys, ["observable-check", "--spec", str(path)])
    assert code == 1
    assert json.loads(out)["observable"] is False

    # a mode above the cutoff, a direction >= d, no internal part: usage errors
    # a term with no modes, a term that is not an object, terms that are not
    # a list: usage errors too; so are a bump or shells that is not an object,
    # a bump radius that is not positive, a coefficient that is not a
    # rational, a d or cutoff that is not an integer, and a float that is not
    # finite (a nan bump centre, a radius that overflows to inf, an inf or nan
    # tolerance)
    good = dict(spec, internal=[{"modes": [[1, 2]], "coeff": "1"}])
    for key, value, named in (("internal", [{"modes": [[3, 2]]}], "[[3, 2]]"),
                              ("internal", [{"modes": [[1, 30]]}], "[[1, 30]]"),
                              ("internal", None, '"internal"'),
                              ("internal", [{"coeff": "1"}], "{'coeff': '1'}"),
                              ("internal", [5], "spec term 5 "),
                              ("internal", 5, '"internal"'),
                              ("bump", 5, '"bump"'),
                              ("bump", {"t_radius": 0}, "radius must be positive, got 0.0"),
                              ("bump", {"x_radius": -0.5}, "radius must be positive, got -0.5"),
                              ("shells", [1], '"shells"'),
                              ("shells", {"pmax": 0}, "pmax must be positive, got 0.0"),
                              ("shells", {"n": -3}, "n must be positive, got -3"),
                              ("internal", [{"modes": [[1, 2]], "coeff": "x"}],
                               "{'modes': [[1, 2]], 'coeff': 'x'}"),
                              ("d", 2.5, '"d"'),
                              ("d", True, '"d"'),
                              ("cutoff", 2.0, '"cutoff"'),
                              ("cutoff", True, '"cutoff"'),
                              ("bump", {"t_center": "nan"}, '"t_center"'),
                              ("bump", {"x_radius": 1e999}, '"x_radius"'),
                              ("tolerance", "inf", '"tolerance"'),
                              ("tolerance", "nan", '"tolerance"')):
        spec = dict(good, **{key: value})
        if value is None:
            del spec[key]
        path.write_text(json.dumps(spec))
        assert dispatch(["observable-check", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
    path.write_text("[1, 2]")
    assert dispatch(["observable-check", "--spec", str(path)]) == 2
    assert "is not a JSON object" in capsys.readouterr().err


def test_pauli_jordan_dump(capsys):
    code, out = run_captured(capsys, ["pauli-jordan", "--r", "0", "--xmax", "2",
                                      "--tmax", "0.5", "--h", "0.05",
                                      "--dt-out", "0.5", "--dx-out", "1.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) > 2

    code, out = run_captured(capsys, ["pauli-jordan", "--r", "0", "--dcm", "3",
                                      "--xmax", "1", "--h", "0.1", "--tmax", "0.2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 8    # one time, t = 0, at x = -0.9, -0.65, ..., 0.85


def test_string_cone_cli(capsys):
    code, out = run_captured(capsys, ["string-cone", "--N", "1", "--h", "0.05",
                                      "--T", "0.6", "--extent", "2.0"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("t,support_radius_extended")


def test_locality_scan_cli(capsys):
    code, out = run_captured(capsys, ["locality-scan", "--separations", "3,4",
                                      "--timelike", "2.5", "--h", "0.02"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "separation,kind,commutator_abs,control_magnitude"
    kinds = [ln.split(",")[1] for ln in lines[1:]]
    assert kinds == ["spacelike", "spacelike", "timelike"]


def test_main_entry(capsys):
    assert main(["basis", "--directions", "2", "--cutoff", "1"]) == 0
    capsys.readouterr()


def test_importing_the_cli_loads_no_scipy():
    # every run pays for what importing the CLI loads, and SciPy is a slow
    # import; pauli_jordan, its one reader, imports it only when called
    src = str(Path(propagator.__file__).resolve().parents[1])
    probe = ("import sys, stringfock.cli; "
             "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert run.stdout == "[]\n"
