"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Exact criteria carry no tolerance at all; the numerical ones pin the
tolerances stated below and nothing is deferred to later calibration.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from stringfock.basis import enumerate_basis, level_degeneracy
from stringfock.config import minkowski_metric
from stringfock.oscillators import ccr_suite
from stringfock.physical import (_constraint_rows, ghost_probe, noghost_report,
                                 quotient_inertia)
from stringfock.propagator import (BoxGrid, Bump1D, EvaluatorControls, InternalVector,
                                   SmearingFunction, SpacetimeBump, apply_E,
                                   fourth_order_residual, locality_scan,
                                   pair_solution_with_test, pauli_jordan,
                                   retarded_history, stable_dt, symplectic_form)
from stringfock.virasoro import (OnShellMomentum, build_M2, fit_central_coefficient,
                                 standard_onshell_momentum,
                                 virasoro_bracket_residual)
from stringfock import fields as fields_mod
from stringfock import stringcone as cone_mod

from oracles import brute_count, in_radical, massless_smear, mollified_pauli_jordan


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def cov26_n4():
    return enumerate_basis(26, 4), minkowski_metric(26)


def test_criterion_1_ccr_suite(cov26_n4):
    basis, metric = cov26_n4
    rows = ccr_suite(basis, metric)
    checked = len(rows)
    failures = sum(not row["pass"] for row in rows)
    ok = failures == 0 and checked == 16224
    assert report(1, ok, f"CCR suite N=4 d=26: {checked} residuals, "
                         f"{failures} nonzero (exact)")


def test_criterion_2_virasoro_suite(cov26_n4):
    # d = 4 at N = 6: every bracket with the frozen central coefficient
    basis4 = enumerate_basis(4, 6)
    metric4 = minkowski_metric(4)
    mom4 = standard_onshell_momentum(2, 4)
    pairs = [(m, n) for m in range(-3, 4) for n in range(-3, 4)
             if (m, n) != (0, 0) and abs(m) + abs(n) <= 6]
    bad4 = [p for p in pairs
            if not virasoro_bracket_residual(*p, mom4, basis4, metric4).is_zero()]
    c4, _ = fit_central_coefficient(mom4, basis4, metric4, modes=(1, 2, 3))

    # d = 26 spot run at N = 3 plus the central fit on the N = 4 basis
    basis26, metric26 = cov26_n4
    basis26_n3 = enumerate_basis(26, 3)
    metric26_n3 = minkowski_metric(26)
    mom26 = standard_onshell_momentum(1, 26)
    pairs26 = [(m, n) for m in range(-3, 4) for n in range(-3, 4)
               if (m, n) != (0, 0) and abs(m) + abs(n) <= 3]
    bad26 = [p for p in pairs26
             if not virasoro_bracket_residual(*p, mom26, basis26_n3,
                                              metric26_n3).is_zero()]
    c26, _ = fit_central_coefficient(standard_onshell_momentum(1, 26), basis26,
                                     metric26, modes=(1, 2))
    ok = not bad4 and not bad26 and c4 == 4 and c26 == 26
    assert report(2, ok, f"Virasoro suite: d=4 N=6 {len(pairs)} pairs "
                         f"({len(bad4)} bad), d=26 N=3 {len(pairs26)} pairs "
                         f"({len(bad26)} bad), central fit c={c4},{c26} (exact)")


def test_criterion_3_spectrum():
    basis = enumerate_basis(24, 3)
    m2 = build_M2(basis, Fraction(1))
    spectrum = {}
    for j in range(basis.dim):
        val = m2.cols[j].get(j, Fraction(0))
        spectrum[val] = spectrum.get(val, 0) + 1
    expected = {Fraction(-2): 1, Fraction(0): 24, Fraction(2): 324, Fraction(4): 3200}
    oracle = {Fraction(2 * lv - 2): level_degeneracy(lv, 24) for lv in range(4)}
    brute = {Fraction(2 * lv - 2): brute_count(lv, 3) for lv in range(4)}
    gen_vs_brute = all(level_degeneracy(lv, 3) == brute_count(lv, 3) for lv in range(4))
    ok = spectrum == expected == oracle and gen_vs_brute
    assert report(3, ok, f"spectrum eigenvalues {sorted(float(k) for k in spectrum)} "
                         f"multiplicities {[spectrum[k] for k in sorted(spectrum)]} "
                         f"(exact, generating-function oracle matched)")


def test_criterion_4_noghost_desk_scale():
    rows = noghost_report(26, Fraction(1), 2)
    ok = all(r["match"] for r in rows)
    ok = ok and [r["dim_phys"] for r in rows] == [1, 24, 324]
    ok = ok and all(r["signature"][1] == 0 and r["signature"][2] == 0 for r in rows)
    sig27 = ghost_probe(2, standard_onshell_momentum(2, 27), 27, 1)
    ok = ok and sig27 == (350, 0, 1) and sig27[2] >= 1
    assert report(4, ok, f"no-ghost d=26 levels 0..2 dims "
                         f"{[r['dim_phys'] for r in rows]} positive definite; "
                         f"d=27 level-2 signature {sig27} (exact)")


def test_criterion_5_photon_sector():
    # the longitudinal state -alpha_{-1}^0 + alpha_{-1}^1 spans the radical
    # when it lies in it and the radical is one-dimensional
    p_null = (Fraction(1), Fraction(1)) + (Fraction(0),) * 24
    mom, basis = OnShellMomentum(r=Fraction(0), p=p_null), enumerate_basis(26, 1)
    dim_hprime, dim_radical, signature = quotient_inertia(mom, basis, 1)
    dim_phys = dim_hprime - dim_radical
    rows, diag = _constraint_rows(mom, basis, 1)
    longitudinal_ok = dim_radical == 1 and in_radical(rows, diag, {0: -1, 1: 1})
    ok = (dim_hprime == 25 and dim_radical == 1 and dim_phys == 24
          and signature == (24, 0, 0) and longitudinal_ok)
    assert report(5, ok, f"photon sector dim H'={dim_hprime} radical="
                         f"{dim_radical} physical={dim_phys} "
                         f"signature {signature}, longitudinal "
                         f"radical (exact)")


def test_criterion_6_locality_scan():
    basis = enumerate_basis(26, 2)
    metric = minkowski_metric(26)
    internal = InternalVector(basis, metric, {
        basis.index[()]: Fraction(1),
        basis.index[((1, 2),)]: Fraction(1),
        basis.index[((2, 2),)]: Fraction(1),
    })
    separations = (2.1, 3.0, 4.0, 5.0, 6.0)
    timelike = (2.5, 3.5)
    rows, control = locality_scan(separations, timelike, [-2.0, 0.0, 2.0],
                                  internal, internal, Fraction(1),
                                  bump_radius=0.5, h=0.005)
    spacelike_rows = [r for r in rows if r.kind == "spacelike"]
    timelike_rows = [r for r in rows if r.kind == "timelike"]
    assert len(spacelike_rows) == 5 and len(timelike_rows) == 2
    worst_ratio = max(r.commutator_abs for r in spacelike_rows) / control

    g_bump = SpacetimeBump(Bump1D(0.0, 0.5), (Bump1D(0.0, 0.5),))
    oracle_err = 0.0
    for r, t_off in zip(timelike_rows, timelike):
        want = massless_smear(g_bump.translated(dt=t_off), g_bump)
        got = r.per_level[0.0]
        oracle_err = max(oracle_err, abs(got - want) / abs(want))
    ok = worst_ratio <= 1e-6 and oracle_err <= 1e-4
    assert report(6, ok, f"locality scan: worst spacelike/control = "
                         f"{worst_ratio:.3e} (<= 1e-6), massless-oracle "
                         f"relative error {oracle_err:.3e} (<= 1e-4)")


def test_criterion_7_field_ccr():
    basis = enumerate_basis(26, 2)
    metric = minkowski_metric(26)
    v1 = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    v12 = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1),
                                         basis.index[((2, 2),)]: Fraction(1, 2)})
    v2 = InternalVector(basis, metric, {basis.index[((2, 3),)]: Fraction(1)})

    def sf(vec, tc, xc, tr=0.5, xr=0.5):
        return SmearingFunction(SpacetimeBump(Bump1D(tc, tr), (Bump1D(xc, xr),)), vec)

    pairs = [
        (sf(v1, 0.0, 0.0), sf(v1, 0.6, 0.4)),
        (sf(v12, -0.1, 0.1, tr=0.45), sf(v12, 0.9, -0.3, tr=0.4, xr=0.45)),
        (sf(v2, 0.2, -0.2, tr=0.4, xr=0.4), sf(v2, 0.7, 0.3, tr=0.45)),
    ]
    shells = fields_mod.ShellGrid(50.0, 2000)
    worst = 0.0
    for F, G in pairs:
        rep = fields_mod.field_ccr_report(F, G, Fraction(1), shells, 3,
                                          propagator_kwargs={"h": 0.005})
        worst = max(worst, rep["relative_mismatch"])
        assert rep["offdiagonal_max"] < 1e-12
    ok = worst <= 1e-4
    assert report(7, ok, f"field CCR: {len(pairs)} pairs, max relative "
                         f"mismatch {worst:.3e} (<= 1e-4)")


def test_criterion_8_string_lightcone():
    cfg = cone_mod.ConeConfig(d_cm=2, n_modes=1, h=0.0125, extent=3.0, cfl=0.4)
    hist, _ = cone_mod.solve(cfg, cone_mod.point_bump(0.4),
                             lambda *m: np.zeros_like(m[0]), 1.5)
    leak = max(hist.leakage_extended)
    energies = np.array(hist.energies)
    drift = float((energies.max() - energies.min()) / abs(energies[0]))

    def gauss(x, y):
        return np.exp(-(x * x + y * y) / 0.35 ** 2)

    conv_cfg = cone_mod.ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=3.0, cfl=0.4)
    orders, _ = cone_mod.self_convergence_order(conv_cfg, gauss,
                                                lambda *m: np.zeros_like(m[0]), 0.8)
    ok = leak < 1e-6 and drift < 1e-4 and orders[0] >= 1.9
    assert report(8, ok, f"string light cone: leakage {leak:.3e} (< 1e-6), "
                         f"energy drift {drift:.3e} (< 1e-4), order "
                         f"{orders[0]:.3f} (>= 1.9)")


def test_criterion_9_propagator_axioms():
    basis = enumerate_basis(26, 2)
    metric = minkowski_metric(26)
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    F = SmearingFunction(SpacetimeBump(Bump1D(0.1, 0.4), (Bump1D(0.2, 0.45),)), vec)
    H = SmearingFunction(SpacetimeBump(Bump1D(-0.2, 0.35), (Bump1D(-0.3, 0.4),)), vec)
    grid = BoxGrid.covering([(-4.0, 4.0)], 0.005)
    U = apply_E(H, Fraction(1), grid)
    EF = apply_E(F, Fraction(1), grid)
    s0 = symplectic_form(U, EF, 0.0)
    s1 = symplectic_form(U, EF, 1.3)
    sigma_drift = abs(s1 - s0) / abs(s0)
    pair = pair_solution_with_test(U, F)
    reproducing_err = abs(pair - s0) / abs(s0)

    bump = SpacetimeBump(Bump1D(0.0, 0.4), (Bump1D(0.0, 0.4),))
    res = []
    for h in (0.02, 0.01, 0.005):
        g = BoxGrid.covering([(-3.0, 3.0)], h)
        dt = stable_dt(h, 1, 2.0)
        times, hist = retarded_history(bump, 2.0, g, 1.2)
        res.append(fourth_order_residual(times, hist, h, dt, 2.0, bump=bump, grid=g))
    order = math.log2(res[1] / res[2])
    ok = sigma_drift <= 1e-6 and reproducing_err <= 1e-4 and order >= 1.9 \
        and res[0] > res[1] > res[2]
    assert report(9, ok, f"propagator axioms: sigma drift {sigma_drift:.3e} "
                         f"(<= 1e-6), reproducing identity {reproducing_err:.3e} "
                         f"(<= 1e-4), residual order {order:.3f} (>= 1.9)")


def test_criterion_10_noghost_d26_level_three():
    dim_h, dim_rad, sig = quotient_inertia(standard_onshell_momentum(3, 26),
                                           enumerate_basis(26, 3), 1)
    transverse = level_degeneracy(3, 24)
    ok = (dim_h, dim_rad) == (3575, 375) and sig == (transverse, 0, 0) == (3200, 0, 0)
    assert report(10, ok, f"no-ghost d=26 level 3: dim H'={dim_h} radical={dim_rad} "
                          f"quotient signature {sig}, transverse count {transverse} (exact)")


def test_criterion_11_noghost_d26_level_four():
    start = time.perf_counter()
    dim_h, dim_rad, sig = quotient_inertia(standard_onshell_momentum(4, 26),
                                           enumerate_basis(26, 4), 1)
    wall = time.perf_counter() - start
    transverse = level_degeneracy(4, 24)
    ok = (dim_h, dim_rad) == (29575, 3925) and sig == (transverse, 0, 0) == (25650, 0, 0)
    assert report(11, ok, f"no-ghost d=26 level 4: dim H'={dim_h} radical={dim_rad} "
                          f"quotient signature {sig}, transverse count {transverse} "
                          f"(exact, {wall:.1f} s)")


def test_criterion_12_massive_kernel_closed_form():
    # the commutator function at t = 2 against its mollified closed form,
    # J0, 1 or I0 inside the cone, at h = 0.02, 0.01 and 0.005
    xs = [0.0, 0.5, 1.0]
    lines, ok = [], True
    for r in (2.0, 0.0, -2.0):
        want = np.array([mollified_pauli_jordan(r, 2.0, x, 0.1) for x in xs])
        errs = []
        for h in (0.02, 0.01, 0.005):
            got = pauli_jordan(r, 2, [2.0], xs, EvaluatorControls(xmax=4.0, h=h, width=0.1))[0]
            errs.append(float(np.max(np.abs(got - want))))
        orders = [math.log2(errs[0] / errs[1]), math.log2(errs[1] / errs[2])]
        ok = ok and min(orders) >= 1.9 and errs[2] <= 2e-5
        lines.append(f"r={r:g} orders {orders[0]:.2f}, {orders[1]:.2f} finest {errs[2]:.2e}")
    assert report(12, ok, "massive kernel vs closed form: " + "; ".join(lines)
                          + " (orders >= 1.9, finest <= 2e-5)")
