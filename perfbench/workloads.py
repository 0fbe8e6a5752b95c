"""The three benchmark workloads: seeded inputs, one operation each, and its oracle.

There are four suites, ``noghost``, ``algebra``, ``lattice`` and ``cone``.
Each has a ``<suite>_setup(rng)`` that builds its inputs from the seeded
generator and a ``<suite>_op(inputs)`` that calls the library's public
functions and checks the result, returning a :class:`Check`.  A workload's
operation runs its suites one after the other: ``exact`` is ``noghost``
then ``algebra``; ``lattice`` and ``cone`` are one suite each.  Library
functions are called through their module attributes
(``physical.noghost_report``, not a local alias), so the traced run sees
every call after ``spans.Tracer.install`` has wrapped them.

Every input generator keeps the cost of an operation independent of the
seed; README.md gives the reason for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from stringfock import basis, config, fields, oscillators, physical, propagator
from stringfock import stringcone, virasoro


@dataclass
class Check:
    ok: bool
    tolerance_used: float   # worst observed error / pinned tolerance; 0 for exact checks
    detail: str


# ---------------------------------------------------------------- noghost

NOGHOST_D = 14
NOGHOST_LEVELS = 3
GHOST_D = 27
GHOST_LEVEL = 2
GHOST_SIGNATURE = (350, 0, 1)


def seeded_momentum(rng, level, d, a=Fraction(1)):
    """An exact on-shell momentum p^2 = 2a - 2 level with low-height entries.

    The family of ``virasoro.standard_onshell_momentum``: p0^2 - p_i^2 = s
    with s = 2 level - 2a + 1 and a unit component on p_j.  The seed picks
    the two spatial directions i != j, the split parameter t in {1, 2, 3}
    (p0 = (s/t + t)/2 > 0) and the signs of p_i and p_j.
    """
    s = 2 * level - 2 * Fraction(a) + 1
    splits = [t for t in (1, 2, 3) if s / t + t > 0]
    t = splits[rng.integers(len(splits))]
    i, j = (int(x) for x in rng.choice(np.arange(1, d), size=2, replace=False))
    p = [Fraction(0)] * d
    p[0] = (s / t + t) / 2
    p[i] = (s / t - t) / 2 * (1 if rng.integers(2) else -1)
    p[j] = Fraction(1 if rng.integers(2) else -1)
    return virasoro.OnShellMomentum(r=2 * level - 2 * Fraction(a), p=tuple(p))


def noghost_setup(rng):
    momenta = {lv: seeded_momentum(rng, lv, NOGHOST_D) for lv in range(NOGHOST_LEVELS + 1)}
    return {"momenta": momenta, "ghost_momentum": seeded_momentum(rng, GHOST_LEVEL, GHOST_D)}


def noghost_op(inputs):
    rows = physical.noghost_report(NOGHOST_D, 1, NOGHOST_LEVELS, momenta=inputs["momenta"])
    bad = []
    for row in rows:
        lv = row["level"]
        want_h = basis.level_degeneracy(lv, NOGHOST_D - 1)
        want_rad = basis.level_degeneracy(lv - 1, NOGHOST_D - 1) if lv else 0
        npos, nzero, nneg = row["signature"]
        if not (nzero == 0 and nneg == 0
                and row["dim_Hprime"] == want_h and row["dim_radical"] == want_rad):
            bad.append(lv)
    sig = physical.ghost_probe(2 * GHOST_LEVEL - 2, inputs["ghost_momentum"], GHOST_D, 1)
    ok = not bad and sig == GHOST_SIGNATURE
    return Check(ok, 0.0, f"levels failing {bad}; d={GHOST_D} level-{GHOST_LEVEL} "
                          f"signature {sig}")


# ---------------------------------------------------------------- algebra

CCR_D, CCR_CUTOFF, CCR_COUNT = 26, 4, 16224
BRACKET_D, BRACKET_CUTOFF, BRACKET_COUNT = 4, 6, 48


def algebra_setup(rng):
    ccr_basis = basis.enumerate_basis(CCR_D, CCR_CUTOFF)
    ccr_metric = config.minkowski_metric(CCR_D)
    n = ccr_basis.cutoff
    ccr_args = [(m, nn, mu, nu)
                for am in range(1, n + 1) for an in range(1, n + 1) if am + an <= n
                for m in (am, -am) for nn in (an, -an)
                for mu in range(CCR_D) for nu in range(CCR_D)]
    bracket_basis = basis.enumerate_basis(BRACKET_D, BRACKET_CUTOFF)
    pairs = [(m, n) for m in range(-3, 4) for n in range(-3, 4)
             if (m, n) != (0, 0) and abs(m) + abs(n) <= BRACKET_CUTOFF]
    return {
        "ccr": (ccr_basis, ccr_metric, ccr_args),
        "bracket": (bracket_basis, config.minkowski_metric(BRACKET_D), pairs,
                    seeded_momentum(rng, 2, BRACKET_D)),
    }


def algebra_op(inputs):
    ccr_basis, ccr_metric, ccr_args = inputs["ccr"]
    ccr_bad = sum(1 for args in ccr_args
                  if oscillators.ccr_residual_entries(*args, ccr_basis, ccr_metric))
    b_basis, b_metric, pairs, mom = inputs["bracket"]
    bracket_bad = sum(1 for m, n in pairs
                      if not virasoro.virasoro_bracket_residual(m, n, mom, b_basis,
                                                                b_metric).is_zero())
    c, _ = virasoro.fit_central_coefficient(mom, b_basis, b_metric, modes=(1, 2, 3))
    ok = (len(ccr_args) == CCR_COUNT and ccr_bad == 0 and len(pairs) == BRACKET_COUNT
          and bracket_bad == 0 and c == BRACKET_D)
    return Check(ok, 0.0, f"{len(ccr_args)} CCR residuals ({ccr_bad} nonzero), "
                          f"{len(pairs)} brackets ({bracket_bad} nonzero), c = {c}")


# ---------------------------------------------------------------- lattice

SCAN_LEVELS = (-2.0, 0.0, 2.0)
SCAN_TIMELIKE = (2.5, 3.5)
SCAN_RATIO_TOL = 1e-6
CCR_MISMATCH_TOL = 1e-4
CCR_OFFDIAG_TOL = 1e-12


def _bump_pair(vec, f, g):
    def sf(tc, xc, tr=0.5, xr=0.5):
        return propagator.SmearingFunction(
            propagator.SpacetimeBump(propagator.Bump1D(tc, tr), (propagator.Bump1D(xc, xr),)),
            vec)
    return sf(*f), sf(*g)


def lattice_setup(rng):
    # the README locality-scan invocation: levels -2,0,2 on a d = 26 basis
    scan_basis = basis.enumerate_basis(26, 2)
    metric = config.minkowski_metric(26)
    internal = propagator.InternalVector(scan_basis, metric, {
        scan_basis.index[()]: Fraction(1),
        scan_basis.index[((1, 2),)]: Fraction(1),
        scan_basis.index[((2, 2),)]: Fraction(1),
    })
    interior = np.round(np.array([3.0, 4.0, 5.0]) + rng.uniform(-0.25, 0.25, 3), 3)
    separations = (2.1,) + tuple(float(s) for s in interior) + (6.0,)
    # the two single-level criterion-7 pairs (the two-level pair costs twice as much)
    choice = int(rng.integers(2))
    vec = propagator.InternalVector(scan_basis, metric,
                                    {scan_basis.index[((1, 2),) if choice == 0
                                                      else ((2, 3),)]: Fraction(1)})
    f, g = [((0.0, 0.0), (0.6, 0.4)),
            ((0.2, -0.2, 0.4, 0.4), (0.7, 0.3, 0.45))][choice]
    jitter = np.round(rng.uniform(-0.1, 0.1, 4), 3)
    f = (f[0] + jitter[0], f[1] + jitter[1]) + f[2:]
    g = (g[0] + jitter[2], g[1] + jitter[3]) + g[2:]
    return {"scan": (separations, internal), "ccr_pair": _bump_pair(vec, f, g),
            "shells": fields.ShellGrid(50.0, 2000)}


def lattice_op(inputs):
    separations, internal = inputs["scan"]
    rows, control = propagator.locality_scan(separations, SCAN_TIMELIKE, list(SCAN_LEVELS),
                                             internal, internal, Fraction(1),
                                             bump_radius=0.5, h=0.004)
    spacelike = [r for r in rows if r.kind == "spacelike"]
    ratio = max(r.commutator_abs for r in spacelike) / control
    F, G = inputs["ccr_pair"]
    rep = fields.field_ccr_report(F, G, Fraction(1), inputs["shells"], 3,
                                  propagator_kwargs={"h": 0.005})
    mismatch, off = rep["relative_mismatch"], rep["offdiagonal_max"]
    ok = (len(spacelike) == len(separations) and control > 0
          and ratio <= SCAN_RATIO_TOL and mismatch <= CCR_MISMATCH_TOL
          and off < CCR_OFFDIAG_TOL)
    used = max(ratio / SCAN_RATIO_TOL, mismatch / CCR_MISMATCH_TOL, off / CCR_OFFDIAG_TOL)
    return Check(ok, used, f"spacelike/control {ratio:.3e}, mismatch {mismatch:.3e}, "
                           f"off-diagonal {off:.3e}")


# ---------------------------------------------------------------- cone

CONE_CONFIG = dict(d_cm=2, n_modes=1, h=0.0125, extent=3.0, cfl=0.4)
CONE_T = 1.5
LEAK_TOL = 1e-6
DRIFT_TOL = 1e-4


def cone_setup(rng):
    return {"radius": round(float(rng.uniform(0.35, 0.45)), 4)}


def cone_op(inputs):
    cfg = stringcone.ConeConfig(**CONE_CONFIG)
    hist, _ = stringcone.solve(cfg, stringcone.point_bump(inputs["radius"]),
                               lambda *mesh: np.zeros_like(mesh[0]), CONE_T)
    leak = max(hist.leakage_extended)
    energies = np.array(hist.energies)
    drift = float((energies.max() - energies.min()) / abs(energies[0]))
    ok = leak < LEAK_TOL and drift < DRIFT_TOL
    return Check(ok, max(leak / LEAK_TOL, drift / DRIFT_TOL),
                 f"leakage {leak:.3e}, energy drift {drift:.3e}")


def combine(*suites):
    """One workload from (name, setup, op) suites, run in order on each op."""
    def setup(rng):
        return {name: suite_setup(rng) for name, suite_setup, _ in suites}

    def op(inputs):
        checks = [(name, suite_op(inputs[name])) for name, _, suite_op in suites]
        return Check(all(c.ok for _, c in checks), max(c.tolerance_used for _, c in checks),
                     "; ".join(f"{name}: {c.detail}" for name, c in checks))
    return setup, op


WORKLOADS = {
    "exact": combine(("noghost", noghost_setup, noghost_op),
                     ("algebra", algebra_setup, algebra_op)),
    "lattice": combine(("lattice", lattice_setup, lattice_op)),
    "cone": combine(("cone", cone_setup, cone_op)),
}
