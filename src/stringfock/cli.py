"""Command-line entry point exposing every module's checks and scans.

Structured verdicts go out as JSON, scan series as CSV; identical
invocations produce bit-identical data output (deterministic orderings,
shortest round-trip float rendering in JSON, 17 significant digits in CSV).
When ``--out`` is given the data goes to that path and a run manifest with
the parsed command-line arguments, version, and wall time is written next
to it; stdout runs print the data only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfg
from .basis import enumerate_basis, per_level_counts
from .oscillators import ccr_suite
from .physical import noghost_report
from .propagator import (Bump1D, EvaluatorControls, InternalVector, SmearingFunction,
                         SpacetimeBump, locality_scan, pauli_jordan)
from .virasoro import (OnShellMomentum, fit_central_coefficient, level_of_mass,
                       mass_spectrum, standard_onshell_momentum,
                       virasoro_bracket_residual)
from . import fields as fields_mod
from . import stringcone as cone_mod
from . import worldsheet as ws_mod


def fmt(x):
    """17-significant-digit rendering for CSV floats."""
    return format(float(x), ".17g")


def rat(x):
    """Canonical exact rendering for rationals."""
    f = Fraction(x)
    return str(f)


@dataclass
class RunManifest:
    command: str
    parameters: dict
    version: str = __version__
    wall_time_s: float = 0.0
    outputs: list = field(default_factory=list)
    started: float = field(default_factory=time.perf_counter, repr=False)

    def to_json(self):
        return {
            "command": self.command,
            "parameters": self.parameters,
            "tool_version": self.version,
            "wall_time_s": self.wall_time_s,
            "outputs": self.outputs,
        }


def _emit(text, args, manifest):
    if getattr(args, "out", None):
        path = Path(args.out)
        path.write_text(text, encoding="utf-8")
        manifest.outputs.append(str(path))
        man_path = Path(str(path) + ".manifest.json")
        manifest.wall_time_s = time.perf_counter() - manifest.started
        man_path.write_text(json.dumps(manifest.to_json(), indent=2) + "\n",
                            encoding="utf-8")
        manifest.outputs.append(str(man_path))
    else:
        sys.stdout.write(text)


def _csv(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_basis(args, manifest):
    basis = enumerate_basis(args.directions, args.cutoff)
    data = {
        "directions": args.directions,
        "cutoff": args.cutoff,
        "per_level": [{"level": lv, "count": c} for lv, c in per_level_counts(basis)],
        "total": basis.dim,
    }
    _emit(_json_text(data), args, manifest)
    return 0


def cmd_ccr_check(args, manifest):
    metric = cfg.gauge_metric(args.d, args.gauge)
    n = _cutoff(args, 2)
    basis = enumerate_basis(len(metric.signs), n)
    results = ccr_suite(basis, metric)
    all_zero = all(row["pass"] for row in results)
    data = {
        "cutoff": n,
        "gauge": args.gauge,
        "directions": basis.directions,
        "pairs_checked": len(results),
        "all_zero": all_zero,
        "results": results,
    }
    _emit(_json_text(data), args, manifest)
    return 0 if all_zero else 1


def _number_list(option, text, parse):
    """The comma-separated finite numbers given to ``option``, each read by ``parse``."""
    tokens = text.split(",")
    try:
        values = [parse(tok) for tok in tokens]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} takes comma-separated numbers, got {text!r}") from None
    for tok, value in zip(tokens, values):
        if not math.isfinite(value):
            raise ValueError(f"{option} takes finite numbers, got {tok!r}")
    return values


def _finite_float(text):
    """One finite float: the ``type`` of every float option (argparse names the option)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"takes a finite number, got {text!r}")
    return value


def _rational(option, text):
    """The one exact rational given to ``option``."""
    value, *rest = _number_list(option, text, Fraction)
    if rest:
        raise ValueError(f"{option} takes one number, got {text!r}")
    return value


def _cutoff(args, least):
    """``--cutoff``, or a ValueError below ``least``, the least that checks anything."""
    if args.cutoff < least:
        raise ValueError(f"--cutoff must be at least {least}, got {args.cutoff}")
    return args.cutoff


def cmd_virasoro_check(args, manifest):
    metric = cfg.gauge_metric(args.d, "cov")
    n = _cutoff(args, 1)
    basis = enumerate_basis(args.d, n)
    if args.momentum:
        p = tuple(_number_list("--momentum", args.momentum, Fraction))
        if len(p) != args.d:
            raise ValueError(f"--momentum needs {args.d} components, got {len(p)}")
        mom = OnShellMomentum(r=-sum(s * x * x for s, x in zip(metric.signs, p)), p=p)
    else:
        mom = standard_onshell_momentum(min(2, n // 2), args.d)
    max_mode = min(3, n)
    pairs = []
    for m in range(-max_mode, max_mode + 1):
        for nn in range(-max_mode, max_mode + 1):
            if (m, nn) == (0, 0):
                continue
            if abs(m) + abs(nn) <= n:
                pairs.append((m, nn))

    all_zero = all(virasoro_bracket_residual(m, nn, mom, basis, metric).is_zero()
                   for m, nn in pairs)
    fit_modes = tuple(m for m in (1, 2, 3) if 2 * m <= n)
    central = None
    if len(fit_modes) >= 2:
        c_fit, _ = fit_central_coefficient(mom, basis, metric, modes=fit_modes)
        central = rat(c_fit)
    data = {
        "cutoff": n,
        "d": args.d,
        "momentum": [rat(x) for x in mom.p],
        "pairs_checked": len(pairs),
        "all_zero": all_zero,
        "fitted_central_coefficient": central,
    }
    _emit(_json_text(data), args, manifest)
    return 0 if all_zero else 1


def cmd_spectrum(args, manifest):
    colors = len(cfg.gauge_metric(args.d, args.gauge).signs)
    rows = []
    for level, m2, deg in mass_spectrum(_cutoff(args, 0), colors, _rational("--a", args.a)):
        rows.append((str(level), rat(m2), str(deg)))
    _emit(_csv(("level", "mass_squared", "degeneracy"), rows), args, manifest)
    return 0


def cmd_noghost(args, manifest):
    if args.max_level < 0:
        raise ValueError(f"--max-level must be non-negative, got {args.max_level}")
    rows = noghost_report(args.d, _rational("--a", args.a), args.max_level)
    data = []
    all_match = True
    for row in rows:
        all_match = all_match and row["match"]
        data.append({
            "level": row["level"],
            "r": rat(row["r"]),
            "dim_Hprime": row["dim_Hprime"],
            "dim_radical": row["dim_radical"],
            "dim_phys": row["dim_phys"],
            "signature": list(row["signature"]),
            "lightcone_degeneracy": row["lightcone_degeneracy"],
            "match": row["match"],
        })
    _emit(_json_text(data), args, manifest)
    return 0 if all_match else 1


def _default_internal(levels, basis, metric):
    """Canonical transverse internal vector with weight at each oscillator level."""
    states = [((level, 2),) if level else () for level in levels]
    return InternalVector(basis, metric, {basis.index[s]: Fraction(1) for s in states})


def cmd_locality_scan(args, manifest):
    a = Fraction(1)
    levels = _number_list("--levels", args.levels, Fraction)
    seps = _number_list("--separations", args.separations, float)
    tlike = _number_list("--timelike", args.timelike, float) if args.timelike else []
    oscillator_levels = [level_of_mass(r, a) for r in levels]
    basis = enumerate_basis(26, max(1, max(oscillator_levels)))
    metric = cfg.minkowski_metric(26)
    internal = _default_internal(oscillator_levels, basis, metric)
    rows, control = locality_scan(seps, tlike, [float(r) for r in levels],
                                  internal, internal, a,
                                  bump_radius=args.radius, h=args.h)
    csv_rows = []
    ok = True
    for row in rows:
        if row.kind == "spacelike" and row.commutator_abs > args.tolerance * control:
            ok = False
        csv_rows.append((fmt(row.separation), row.kind, fmt(row.commutator_abs),
                         fmt(row.control_magnitude)))
    _emit(_csv(("separation", "kind", "commutator_abs", "control_magnitude"),
               csv_rows), args, manifest)
    return 0 if ok else 1


def cmd_pauli_jordan(args, manifest):
    if not (args.dt_out > 0 and args.dx_out > 0):
        raise ValueError(f"--dt-out and --dx-out must be positive, got {args.dt_out} "
                         f"and {args.dx_out}")
    if not args.tmax >= 0:
        raise ValueError(f"--tmax must be non-negative, got {args.tmax}")
    controls = EvaluatorControls(xmax=args.xmax, h=args.h, width=args.width)
    r = _rational("--r", args.r)
    ts = np.arange(0.0, args.tmax + 1e-12, args.dt_out)
    xs = np.arange(-args.xmax + controls.h, args.xmax - controls.h, args.dx_out)
    if not len(xs):
        raise ValueError(f"--xmax {args.xmax} leaves no output point inside the grid "
                         f"of spacing {controls.h}")
    # the x axis, with every other spatial coordinate at 0
    points = np.column_stack([xs] + [np.zeros_like(xs)] * (args.dcm - 2))
    values = pauli_jordan(r, args.dcm, ts, points, controls)
    rows = [(fmt(t), fmt(x), fmt(v)) for t, row in zip(ts, values) for x, v in zip(xs, row)]
    _emit(_csv(("t", "x", "value"), rows), args, manifest)
    return 0


def cmd_field_ccr(args, manifest):
    basis = enumerate_basis(26, 2)
    metric = cfg.minkowski_metric(26)
    v1 = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    v2 = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1),
                                        basis.index[((2, 2),)]: Fraction(1, 2)})
    v3 = InternalVector(basis, metric, {basis.index[((2, 3),)]: Fraction(1)})
    pairs = [
        (SmearingFunction(SpacetimeBump(Bump1D(0.0, 0.5), (Bump1D(0.0, 0.5),)), v1),
         SmearingFunction(SpacetimeBump(Bump1D(0.6, 0.5), (Bump1D(0.4, 0.5),)), v1)),
        (SmearingFunction(SpacetimeBump(Bump1D(-0.1, 0.45), (Bump1D(0.1, 0.5),)), v2),
         SmearingFunction(SpacetimeBump(Bump1D(0.9, 0.4), (Bump1D(-0.3, 0.45),)), v2)),
        (SmearingFunction(SpacetimeBump(Bump1D(0.2, 0.4), (Bump1D(-0.2, 0.4),)), v3),
         SmearingFunction(SpacetimeBump(Bump1D(0.7, 0.45), (Bump1D(0.3, 0.5),)), v3)),
    ]
    shells = fields_mod.ShellGrid(args.pmax, args.shell_points)
    reports = []
    worst = 0.0
    for F, G in pairs:
        rep = fields_mod.field_ccr_report(F, G, Fraction(1), shells,
                                          args.particle_cutoff,
                                          propagator_kwargs={"h": args.h})
        worst = max(worst, rep["relative_mismatch"])
        reports.append({
            "fock_commutator": [rep["fock_commutator"].real, rep["fock_commutator"].imag],
            "propagator_commutator": [rep["propagator_commutator"].real,
                                      rep["propagator_commutator"].imag],
            "relative_mismatch": rep["relative_mismatch"],
            "offdiagonal_max": rep["offdiagonal_max"],
            "hermiticity_defect": rep["hermiticity_defect"],
        })
    data = {"pairs": reports, "max_relative_mismatch": worst,
            "tolerance": args.tolerance, "pass": worst <= args.tolerance}
    _emit(_json_text(data), args, manifest)
    return 0 if worst <= args.tolerance else 1


_SPEC_KINDS = {int: "an integer", float: "a finite number", Fraction: "an exact rational",
               dict: "a JSON object", list: "a list of terms"}


def _spec_value(obj, key, default, kind, where="spec"):
    """obj[key], or ``default`` when absent, read as ``kind`` (a key of
    _SPEC_KINDS); a ValueError naming ``where`` and the key otherwise."""
    value = obj.get(key, default)
    try:
        if isinstance(value, bool) or (kind in (int, dict, list) and not isinstance(value, kind)):
            raise TypeError
        out = Fraction(str(value)) if kind is Fraction else kind(value)
        if kind is float and not math.isfinite(out):
            raise ValueError
        return out
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f'{where} "{key}" is {value!r}, not {_SPEC_KINDS[kind]}') from None


def cmd_observable_check(args, manifest):
    spec_path = Path(args.spec)
    payload = json.loads(spec_path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"spec {spec_path} is not a JSON object")
    d = _spec_value(payload, "d", 26, int)
    cutoff = _spec_value(payload, "cutoff", 2, int)
    a = _spec_value(payload, "a", 1, Fraction)
    basis = enumerate_basis(d, cutoff)
    metric = cfg.minkowski_metric(d)
    coeffs = {}
    for term in _spec_value(payload, "internal", None, list):
        try:
            modes = tuple(sorted((int(n), int(mu)) for n, mu in term["modes"]))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"spec term {term} is not an object with a \"modes\" "
                             f"list of [n, mu] pairs") from None
        idx = basis.index.get(modes)
        if idx is None:
            raise ValueError(f"spec term {term} is not a state of the d = {d}, "
                             f"cutoff = {cutoff} basis")
        coeffs[idx] = coeffs.get(idx, 0) + _spec_value(term, "coeff", 1, Fraction,
                                                        f"spec term {term}")
    b = _spec_value(payload, "bump", {}, dict)
    defaults = {"t_center": 0.0, "t_radius": 0.5, "x_center": 0.0, "x_radius": 0.5}
    t_c, t_r, x_c, x_r = (_spec_value(b, k, v, float, 'spec "bump"') for k, v in defaults.items())
    F = SmearingFunction(SpacetimeBump(Bump1D(t_c, t_r), (Bump1D(x_c, x_r),)),
                         InternalVector(basis, metric, coeffs))
    sh = _spec_value(payload, "shells", {}, dict)
    shells = fields_mod.ShellGrid(_spec_value(sh, "pmax", 50.0, float, 'spec "shells"'),
                                  _spec_value(sh, "n", 2000, int, 'spec "shells"'))
    tol = _spec_value(payload, "tolerance", 1e-9, float)
    ok, worst, details = fields_mod.observable_check(F, a, shells, tol=tol)
    data = {"observable": ok, "max_residual": worst, "tolerance": tol,
            "components": details}
    _emit(_json_text(data), args, manifest)
    return 0 if ok else 1


def cmd_worldsheet_demo(args, manifest):
    if args.samples < 1:
        raise ValueError(f"--samples must be positive, got {args.samples}")
    modes = np.zeros((2, 4), dtype=complex)
    modes[0] = (0.3 + 0.1j, 0.2, -0.1j, 0.05)
    modes[1] = (0.0, 0.1j, 0.05, -0.02)
    ws = ws_mod.WorldsheetSolution(x=np.zeros(4), p=np.array([1.0, 0.3, 0.2, 0.1]),
                                   modes=modes)
    rows = []
    worst_wave = 0.0
    worst_neumann = 0.0
    for tau in np.linspace(0.0, 1.0, args.samples):
        for sigma in np.linspace(0.0, np.pi, args.samples):
            x_val, dtau, dsig = ws_mod.evaluate(ws, tau, sigma)
            res = ws_mod.wave_residual(ws, tau, sigma)
            worst_wave = max(worst_wave, float(np.max(np.abs(res))))
            rows.append((fmt(tau), fmt(sigma)) + tuple(fmt(v) for v in x_val)
                        + (fmt(float(np.max(np.abs(res)))),))
        for edge in (0.0, np.pi):
            _, _, dsig = ws_mod.evaluate(ws, tau, edge)
            worst_neumann = max(worst_neumann, float(np.max(np.abs(dsig))))
    header = ("tau", "sigma") + tuple(f"X{mu}" for mu in range(4)) + ("wave_residual",)
    text = _csv(header, rows)
    _emit(text, args, manifest)
    ok = worst_wave < 1e-12 and worst_neumann < 1e-12
    return 0 if ok else 1


def cmd_string_cone(args, manifest):
    config = cone_mod.ConeConfig(d_cm=args.dcm, n_modes=args.n_modes, h=args.h,
                                 extent=args.extent, cfl=args.cfl)
    bump = cone_mod.point_bump(args.data_radius)
    reach = args.data_radius + args.T + 3.0 * args.h    # cone_mod.solve's cone at t = T
    if reach >= args.extent:
        raise ValueError(f"--data-radius {args.data_radius:g} + --T {args.T:g} + 3 --h "
                         f"{args.h:g} = {reach:g} reaches the box wall, --extent {args.extent:g}")
    hist, stencil = cone_mod.solve(config, bump,
                                   lambda *m: np.zeros_like(m[0]), args.T)
    rows = []
    for i, t in enumerate(hist.times):
        rows.append((fmt(t), fmt(hist.support_radius_extended[i]),
                     fmt(hist.support_radius_com[i]),
                     fmt(hist.leakage_extended[i]), fmt(hist.leakage_com[i]),
                     fmt(hist.energies[i])))
    _emit(_csv(("t", "support_radius_extended", "support_radius_com",
                "leakage_extended", "leakage_com", "weighted_energy"), rows),
          args, manifest)
    ok = max(hist.leakage_extended) < args.leakage_threshold
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="stringfock",
        description="Exact and numerical workbench for the free open bosonic string field.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output here (plus a .manifest.json)")

    p = sub.add_parser("basis", help="enumerate the truncated basis")
    p.add_argument("--directions", type=int, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    common(p)

    p = sub.add_parser("ccr-check", help="exact mode commutator residuals")
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--d", type=int, default=26)
    p.add_argument("--gauge", choices=("lc", "cov"), default="cov")
    common(p)

    p = sub.add_parser("virasoro-check", help="constraint bracket residuals")
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--d", type=int, default=26)
    p.add_argument("--momentum", help="comma-separated exact rational components")
    common(p)

    p = sub.add_parser("spectrum", help="mass-squared spectrum with degeneracies")
    p.add_argument("--gauge", choices=("lc", "cov"), required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--a", default="1")
    p.add_argument("--d", type=int, default=26)
    common(p)

    p = sub.add_parser("noghost", help="constraint solve and quotient signature per level")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", default="1")
    p.add_argument("--max-level", type=int, required=True, dest="max_level")
    common(p)

    p = sub.add_parser("locality-scan", help="smeared commutator across separations")
    p.add_argument("--levels", default="-2,0,2")
    p.add_argument("--separations", default="2.1,3,4,5,6")
    p.add_argument("--timelike", default="2.5,3.5")
    p.add_argument("--radius", type=_finite_float, default=0.5)
    p.add_argument("--h", type=_finite_float, default=0.004)
    p.add_argument("--tolerance", type=_finite_float, default=1e-6)
    common(p)

    p = sub.add_parser("pauli-jordan", help="commutator function field dump")
    p.add_argument("--r", required=True)
    p.add_argument("--dcm", type=int, default=2)
    p.add_argument("--xmax", type=_finite_float, default=6.0)
    p.add_argument("--h", type=_finite_float, default=0.01)
    p.add_argument("--width", type=_finite_float, default=0.08)
    p.add_argument("--tmax", type=_finite_float, default=3.0)
    p.add_argument("--dt-out", type=_finite_float, default=0.5, dest="dt_out")
    p.add_argument("--dx-out", type=_finite_float, default=0.25, dest="dx_out")
    common(p)

    p = sub.add_parser("field-ccr", help="two-route field commutator comparison")
    p.add_argument("--particle-cutoff", type=int, default=3, dest="particle_cutoff")
    p.add_argument("--pmax", type=_finite_float, default=50.0)
    p.add_argument("--shell-points", type=int, default=2000, dest="shell_points")
    p.add_argument("--h", type=_finite_float, default=0.005)
    p.add_argument("--tolerance", type=_finite_float, default=1e-4)
    common(p)

    p = sub.add_parser("observable-check", help="constraint residuals of a smeared field")
    p.add_argument("--spec", required=True, help="field description JSON file")
    common(p)

    p = sub.add_parser("worldsheet-demo", help="classical sheet samples and residuals")
    p.add_argument("--samples", type=int, default=9)
    common(p)

    p = sub.add_parser("string-cone", help="extended-metric domain of dependence run")
    p.add_argument("--N", type=int, default=1, dest="n_modes")
    p.add_argument("--dcm", type=int, default=2)
    p.add_argument("--h", type=_finite_float, default=0.025)
    p.add_argument("--T", type=_finite_float, default=1.5)
    p.add_argument("--extent", type=_finite_float, default=3.0)
    p.add_argument("--cfl", type=_finite_float, default=0.4)
    p.add_argument("--data-radius", type=_finite_float, default=0.4, dest="data_radius")
    p.add_argument("--leakage-threshold", type=_finite_float, default=1e-6,
                   dest="leakage_threshold")
    common(p)

    return parser


_HANDLERS = {
    "basis": cmd_basis,
    "ccr-check": cmd_ccr_check,
    "virasoro-check": cmd_virasoro_check,
    "spectrum": cmd_spectrum,
    "noghost": cmd_noghost,
    "locality-scan": cmd_locality_scan,
    "pauli-jordan": cmd_pauli_jordan,
    "field-ccr": cmd_field_ccr,
    "observable-check": cmd_observable_check,
    "worldsheet-demo": cmd_worldsheet_demo,
    "string-cone": cmd_string_cone,
}


def dispatch(argv):
    """Run one subcommand; 0 on success, 1 on failed checks, 2 on usage errors
    and on runs whose field overflowed or outgrew its stability bound."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    manifest = RunManifest(command=args.command,
                           parameters={k: v for k, v in vars(args).items()
                                       if k not in ("command",) and v is not None})
    try:
        return _HANDLERS[args.command](args, manifest)
    except (ValueError, FileNotFoundError, FloatingPointError,
            cone_mod.InstabilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
