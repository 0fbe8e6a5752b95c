import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from stringfock.basis import enumerate_basis
from stringfock.config import minkowski_metric
from stringfock.fields import ShellGrid
from stringfock.propagator import (BoxGrid, Bump1D, CauchyData, EvaluatorControls,
                                   InternalVector, SmearingFunction, SpacetimeBump, apply_E,
                                   bump_profile, fourth_order_residual,
                                   internal_level_weights, pair_solution_with_test,
                                   pauli_jordan, retarded_history, separation_kind,
                                   smear_E_scalar, smear_E_scalar_multi,
                                   smeared_commutator, stable_dt, symplectic_form)
from stringfock import propagator
from stringfock.propagator import (_KleinGordon, _SampledBump, _sweep, _time_nodes,
                                   evolve_cauchy)
from stringfock._leapfrog import BLOCK, Leapfrog
from stringfock.stringcone import ConeConfig, build_operator

from oracles import (PauliJordanEvaluator, SignedSmearAccumulator, catcher_apply_E_scalar,
                     loop_massless_smear, massless_smear, pauli_jordan_momentum,
                     roll_evolve_forward, roll_laplacian, roll_sweep, roll_taylor_back_step,
                     same_bits, signed_smear_E_scalar_multi, stacked_retarded_history,
                     stepwise_pair_solution_with_test)


def std_bump(tc=0.0, tr=0.5, xc=0.0, xr=0.5):
    return SpacetimeBump(Bump1D(tc, tr), (Bump1D(xc, xr),))


@pytest.fixture(scope="module")
def internal26():
    basis = enumerate_basis(26, 2)
    metric = minkowski_metric(26)
    return basis, metric


def test_bump_profile_support_and_smooth_edge():
    s = np.array([-1.5, -1.0, 0.0, 0.5, 1.0, 2.0])
    vals = bump_profile(s)
    assert vals[0] == vals[1] == vals[4] == vals[5] == 0.0
    assert vals[2] == math.exp(-1.0)
    assert vals[3] == math.exp(-1.0 / 0.75)
    # all derivatives vanish at the support edge: values decay to zero there
    edge = bump_profile(np.array([0.999999]))
    assert edge[0] < 1e-200


def test_massless_kernel_matches_closed_form():
    vals = pauli_jordan(0.0, 2, [2.0, 1.0, -2.0, 0.0, 1.7, -1.7], [0.5, 2.5, 1.0, 0.3],
                        EvaluatorControls(xmax=4.0, h=0.01, width=0.1))
    assert abs(vals[0, 0] + 0.5) < 2e-3
    assert vals[1, 1] == 0.0
    assert abs(vals[2, 0] - 0.5) < 2e-3
    assert vals[3, 2] == 0.0
    assert vals[4, 3] + vals[5, 3] == 0.0


def test_pauli_jordan_function_facade():
    val = pauli_jordan(0.0, 2, [1.5], [0.25],
                       controls=EvaluatorControls(xmax=3.0, h=0.02, width=0.1))[0, 0]
    assert abs(val + 0.5) < 5e-3
    assert pauli_jordan(0.0, 2, [1.5, 0.5], []).shape == (2, 0)


def test_kernel_initial_slope_normalization():
    # the kernel's initial time derivative integrates to -1 against space,
    # the weak form of the (0, -delta) normalization; at t = dt the time
    # interpolation and the spatial one at the nodes return the slice itself
    controls = EvaluatorControls(xmax=3.0, h=0.02, width=0.1)
    grid = BoxGrid.covering([(-3.0, 3.0)], 0.02)
    dt = stable_dt(0.02, 1, 0.0)
    u_dt = pauli_jordan(0.0, 2, [dt], grid.axes()[0], controls)[0]
    slope = np.sum(u_dt) * grid.h / dt
    assert abs(slope + 1.0) < 1e-3


@pytest.mark.parametrize("d_cm", [2, 3])
@pytest.mark.parametrize("r", [-2.0, 0.0, 2.0])
def test_pauli_jordan_matches_history_oracle(r, d_cm):
    controls = EvaluatorControls(xmax=2.0, h=0.05, width=0.15)
    dt = stable_dt(controls.h, d_cm - 1, r)
    # zero, negative times, repeated |t|, a time on the step grid and times
    # between steps, given out of order
    times = [0.4, 0.0, -0.4, 3 * dt, -0.123, 0.77, 0.05, -0.77]
    # points between nodes, on nodes (0 and -0.5), on both grid ends and
    # off the grid on either side
    axis = BoxGrid.covering([(-controls.xmax, controls.xmax)], controls.h).axes()[0]
    xs = np.concatenate([[-0.93, -0.5, -0.05, 0.0, 0.31, 0.6, 0.99, 2.2, -2.3],
                         axis[[0, -1]]])
    points = xs if d_cm == 2 else np.column_stack([xs, np.roll(xs, 3)])
    got = pauli_jordan(r, d_cm, times, points, controls)
    ev = PauliJordanEvaluator(r, d_cm, controls)
    want = np.array([np.atleast_1d(ev.value(t, points)) for t in times])
    assert got.shape == want.shape == (len(times), len(xs))
    assert np.any(got != 0.0)
    # array_equal takes -0.0 for +0.0; the sign bits are compared on their own
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_pauli_jordan_holds_no_history():
    # 2-D grid, 251 x 251 points; the sweep runs about 220 steps, so a kept
    # history would take about 110 MB
    controls = EvaluatorControls(xmax=2.5, h=0.02, width=0.1)
    slice_bytes = 251 * 251 * 8
    pauli_jordan(0.0, 3, [0.0], [[0.0, 0.0]], controls)    # scipy's import is not traced
    tracemalloc.start()
    try:
        pauli_jordan(0.0, 3, [0.5, 1.0, 3.0], [[0.0, 0.0], [0.3, -0.2]], controls)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the engine's four buffers and the initial time derivative, one block of
    # stencil scratch, and 64 KiB for the interpolator's and the sweep's small
    # objects
    assert peak <= 5 * slice_bytes + BLOCK * 8 + (1 << 16)


def test_pauli_jordan_refuses_a_wall_reflection(monkeypatch):
    # the reflection off the wall at xmax = 2 reaches x = -1.99 by t = 1.93;
    # the refusal comes before any grid-sized array exists
    def no_grid_arrays(*args):
        raise AssertionError("a grid-sized array was allocated")

    monkeypatch.setattr(propagator, "_mollifier", no_grid_arrays)
    monkeypatch.setattr(propagator.BoxGrid, "zeros", no_grid_arrays)
    with pytest.raises(ValueError, match=r"--tmax 3 lets the wall reflection .* = 1\.93 "
                                         r"at --xmax 2; lower --tmax or raise --xmax"):
        pauli_jordan(0.0, 2, [0.0, 3.0], [0.5, -1.99], EvaluatorControls(xmax=2.0))


@pytest.mark.parametrize("d_cm,h,xmax", [(2, 0.01, 2.0), (3, 0.02, 1.0)])
@pytest.mark.parametrize("r", [-2.0, 0.0, 2.0])
def test_pauli_jordan_inside_the_bound_matches_a_wider_box(d_cm, h, xmax, r):
    controls = EvaluatorControls(xmax=xmax, h=h)
    wide = EvaluatorControls(xmax=2.0 * xmax, h=h)
    dt = stable_dt(h, d_cm - 1, r)
    xs = [0.0, -0.5 * xmax, xmax - 0.3]
    points = xs if d_cm == 2 else [(x, 0.0) for x in xs]
    reach = 2.0 * xmax - controls.width - max(xs)
    t_gate = (reach - h) * dt / h - dt     # the largest max |t| the gate passes
    times = [t_gate - 1e-9, 0.5 * t_gate]
    got = pauli_jordan(r, d_cm, times, points, controls)
    want = pauli_jordan(r, d_cm, times, points, wide)
    assert np.any(got[0] != 0.0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="lets the wall reflection reach"):
        pauli_jordan(r, d_cm, [t_gate + 1e-9], points, controls)
    # at the continuum bound the leapfrog's precursors, which run ahead of the
    # reflected front at up to one cell per step, h/dt > 1, have arrived
    # at the farthest point (1-D, h = 0.01: 7.5e-5 on values of 0.1 to 1.1;
    # 2-D, h = 0.02: 1.6e-2 on values of 0.03 to 0.34)
    near = PauliJordanEvaluator(r, d_cm, controls).value(reach - dt - 1e-9, points)
    far = PauliJordanEvaluator(r, d_cm, wide).value(reach - dt - 1e-9, points)
    assert np.max(np.abs(near - far)) > 1e-6


def test_momentum_route_cross_checks_lattice():
    controls = EvaluatorControls(xmax=4.0, h=0.01, width=0.1)
    lat = pauli_jordan(2.0, 2, [1.5], [0.4], controls)[0, 0]
    mom = pauli_jordan_momentum(2.0, 1.5, 0.4, width=0.1, p_cutoff=300.0,
                                n_points=60001)
    assert abs(lat - mom) / abs(mom) < 1e-3


@pytest.mark.parametrize("make, args, message", [
    *(pytest.param(EvaluatorControls, {n: math.nan}, f"{n} must be positive, got nan", id=n)
      for n in ("xmax", "h", "width")),
    *(pytest.param(EvaluatorControls, {n: math.inf}, f"{n} must be finite, got inf", id=f"{n}-inf")
      for n in ("xmax", "h", "width")),
    # the other length types refuse non-finite values as these controls do
    pytest.param(Bump1D, {"center": math.nan}, "center must be finite, got nan", id="bump-center"),
    pytest.param(Bump1D, {"radius": math.inf}, "radius must be finite, got inf", id="bump-radius"),
    pytest.param(Bump1D, {"amplitude": math.inf}, "amplitude must be finite, got inf",
                 id="bump-amplitude-inf"),
    pytest.param(Bump1D, {"amplitude": math.nan}, "amplitude must be finite, got nan",
                 id="bump-amplitude-nan"),
    pytest.param(BoxGrid.covering, {"intervals": [(-1.0, 1.0)], "h": math.inf},
                 "h must be finite, got inf", id="grid-h"),
    pytest.param(ShellGrid, {"pmax": math.inf, "n": 10}, "pmax must be finite, got inf",
                 id="shell-pmax"),
])
def test_evaluator_controls_reject_nan(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(**args)


def test_cone_support_all_mass_levels():
    # |kernel| outside |x| <= |t| + width + scheme halo stays at numerical zero
    for r in (-2.0, 0.0, 2.0):
        vals = pauli_jordan(r, 2, [2.0], [0.0, 2.5, 3.0, 4.0],
                            EvaluatorControls(xmax=5.0, h=0.02, width=0.1))[0]
        inside = abs(vals[0])
        for v in vals[1:]:
            assert abs(v) <= 1e-12 * max(inside, 1.0)


def test_smear_matches_closed_form_oracle():
    f_time = std_bump(tc=2.5)
    g = std_bump()
    oracle = massless_smear(f_time, g)
    grid = BoxGrid.covering([(-5.0, 5.0)], 0.01)
    val = smear_E_scalar(f_time, g, 0.0, grid)
    assert abs(val - oracle) / abs(oracle) < 1e-4


def test_massless_smear_oracle_matches_its_loop_version():
    # same arithmetic in the same order, so equal to the last bit; the
    # overlapping placements give both signs of t - s and t = s
    g = std_bump()
    for f in (std_bump(tc=2.5), std_bump(tc=0.2, xc=0.3), std_bump(tc=-0.4, xr=0.7)):
        want = loop_massless_smear(f, g, n_g=121, n_f=61)
        assert massless_smear(f, g, n_g=121, n_f=61) == want != 0.0


def test_spacelike_smear_vanishes():
    f_space = std_bump(xc=4.0)
    g = std_bump()
    grid = BoxGrid.covering([(-6.0, 6.0)], 0.01)
    for r in (-2.0, 0.0, 2.0):
        val = smear_E_scalar(f_space, g, r, grid)
        assert abs(val) < 1e-14


def test_separation_classifier():
    g = std_bump()
    assert separation_kind(std_bump(xc=4.0), g) == "spacelike"
    assert separation_kind(std_bump(tc=3.0), g) == "timelike"
    assert separation_kind(std_bump(tc=1.0, xc=1.0), g) == "mixed"


def test_internal_level_weights(internal26):
    basis, metric = internal26
    vec = InternalVector(basis, metric, {
        basis.index[()]: Fraction(1),
        basis.index[((1, 2),)]: Fraction(1),
        basis.index[((2, 2),)]: Fraction(1),
    })
    F = SmearingFunction(std_bump(), vec)
    w = internal_level_weights(F, F, Fraction(1))
    assert w == {-2.0: (1 + 0j), 0.0: (1 + 0j), 2.0: (2 + 0j)}


def test_smeared_commutator_locality_and_phase(internal26):
    basis, metric = internal26
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    g = SmearingFunction(std_bump(), vec)
    f_far = SmearingFunction(std_bump(xc=4.0), vec)
    f_near = SmearingFunction(std_bump(tc=2.0), vec)
    far = smeared_commutator(f_far, g, Fraction(1), h=0.01)
    near = smeared_commutator(f_near, g, Fraction(1), h=0.01)
    assert abs(far) <= 1e-10 * abs(near)
    # real internal, real bumps: the commutator is purely imaginary
    assert abs(near.real) <= 1e-14 * abs(near.imag)
    same = smeared_commutator(g, g, Fraction(1), h=0.01)
    assert abs(same) < 1e-14


def test_apply_E_zero_test_function(internal26):
    basis, metric = internal26
    vec = InternalVector(basis, metric, {})
    F = SmearingFunction(std_bump(), vec)
    grid = BoxGrid.covering([(-3.0, 3.0)], 0.02)
    sol = apply_E(F, Fraction(1), grid)
    assert sol.components == {}


def test_retarded_support_in_causal_future():
    bump = std_bump()
    grid = BoxGrid.covering([(-4.0, 4.0)], 0.01)
    times, hist = retarded_history(bump, 2.0, grid, 1.5)
    x = grid.axes()[0]
    for k, t in enumerate(times):
        if t < bump.time.lo:
            assert np.max(np.abs(hist[k])) == 0.0
        else:
            reach = bump.space[0].hi + (t - bump.time.lo) + 3 * grid.h
            outside = np.abs(x) > reach
            assert np.max(np.abs(hist[k][outside])) <= 1e-14 * max(
                1.0, np.max(np.abs(hist[k])))


@pytest.mark.parametrize("bump, grid, h", [
    (std_bump(), BoxGrid.covering([(-4.0, 4.0)], 0.01), 0.01),
    (SpacetimeBump(Bump1D(0.1, 0.4), (Bump1D(0.2, 0.5), Bump1D(-0.1, 0.45))),
     BoxGrid.covering([(-2.0, 2.0), (-2.0, 2.0)], 0.05), 0.05),
])
def test_retarded_history_matches_stacked_copies(bump, grid, h):
    dt = stable_dt(h, grid.ndim, 2.0)
    times, hist = retarded_history(bump, 2.0, grid, 1.2)
    want_times, want_hist = stacked_retarded_history(bump, 2.0, grid, dt, 1.2)
    assert np.array_equal(times, want_times)
    assert np.array_equal(hist, want_hist)


def test_retarded_history_peak_memory_is_the_history():
    grid = BoxGrid.covering([(-4.0, 4.0)], 0.01)
    tracemalloc.start()
    try:
        _, hist = retarded_history(std_bump(), 2.0, grid, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * hist.nbytes


def test_retarded_history_refuses_past_the_limit(monkeypatch):
    grid = BoxGrid.covering([(-4.0, 4.0)], 0.01)
    monkeypatch.setattr(propagator, "HISTORY_LIMIT_BYTES", 10_000)
    with pytest.raises(ValueError, match="above the limit of 10000 bytes"):
        retarded_history(std_bump(), 2.0, grid, 1.5)


def test_sigma_properties_and_reproducing_identity(internal26):
    basis, metric = internal26
    vec = InternalVector(basis, metric, {basis.index[((1, 2),)]: Fraction(1)})
    F = SmearingFunction(std_bump(tc=0.1, xc=0.2, tr=0.4, xr=0.45), vec)
    H = SmearingFunction(std_bump(tc=-0.2, xc=-0.3, tr=0.35, xr=0.4), vec)
    grid = BoxGrid.covering([(-4.0, 4.0)], 0.005)
    U = apply_E(H, Fraction(1), grid)
    EF = apply_E(F, Fraction(1), grid)
    s0 = symplectic_form(U, EF, 0.0)
    s1 = symplectic_form(U, EF, 1.3)
    assert abs(s1 - s0) <= 1e-10 * abs(s0)
    assert symplectic_form(U, U, 0.0) == 0.0
    pair = pair_solution_with_test(U, F)
    assert abs(pair - s0) <= 1e-4 * abs(s0)


def test_residual_second_order_convergence():
    bump = std_bump(tr=0.4, xr=0.4)
    res = {}
    for h in (0.02, 0.01):
        grid = BoxGrid.covering([(-3.0, 3.0)], h)
        dt = stable_dt(h, 1, 2.0)
        times, hist = retarded_history(bump, 2.0, grid, 1.2)
        res[h] = fourth_order_residual(times, hist, h, dt, 2.0, bump=bump, grid=grid)
    order = math.log2(res[0.02] / res[0.01])
    assert order > 1.7


def test_smear_multi_consistency():
    g = std_bump()
    fs = [std_bump(tc=2.5), std_bump(xc=3.5)]
    grid = BoxGrid.covering([(-6.0, 6.0)], 0.02)
    multi = smear_E_scalar_multi(fs, g, 0.0, grid)
    singles = [smear_E_scalar(f, g, 0.0, grid) for f in fs]
    assert np.allclose(multi, singles, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dims, h", [(1, 0.05), (2, 0.1)])
@pytest.mark.parametrize("tc", [0.1, -1.3, 1.2], ids=["straddles", "before", "after"])
def test_E_routes_are_bit_identical_to_sign_flip_oracles(dims, h, tc):
    # the source straddles t = 0, lies wholly before it, or wholly after it;
    # the test bumps sit spacelike, timelike (future and past) and overlapping
    g = SpacetimeBump(Bump1D(tc, 0.5), tuple(Bump1D(0.1 * i, 0.5) for i in range(dims)))
    fs = [g.translated(dx=(3.0,)), g.translated(dt=3.0), g.translated(dt=-3.0),
          g.translated(dt=0.3, dx=(0.2,))]
    assert [separation_kind(f, g) for f in fs] == ["spacelike", "timelike", "timelike",
                                                   "mixed"]
    grid = BoxGrid.covering([(-3.0, 4.0)] + [(-2.0, 2.0)] * (dims - 1), h)
    basis = enumerate_basis(4, 2)
    vec = InternalVector(basis, minkowski_metric(4), {
        basis.index[()]: Fraction(1),
        basis.index[((1, 2),)]: Fraction(1),
        basis.index[((2, 2),)]: Fraction(1),
    })
    sol = apply_E(SmearingFunction(g, vec), Fraction(1), grid)
    assert [c.r for c in sol.components.values()] == [-2.0, 0.0, 2.0]
    for comp in sol.components.values():
        dt = stable_dt(h, dims, comp.r)
        if tc > 0.5:
            assert g.time.lo > dt    # the retarded half is the zero branch
        want = catcher_apply_E_scalar(g, comp.r, grid, dt)
        assert np.any(want.v)
        assert np.array_equal(comp.data.u, want.u) and np.array_equal(comp.data.v, want.v)
        got = smear_E_scalar_multi(fs, g, comp.r, grid)
        assert got[1] != 0.0 and got[2] != 0.0
        assert np.array_equal(got, signed_smear_E_scalar_multi(fs, g, comp.r, grid, dt))


@pytest.mark.parametrize("dims, h", [(1, 0.05), (2, 0.1)])
def test_smears_are_bit_identical_to_per_step_time_factors(dims, h, internal26):
    # the time factors of a sweep's sources and tests are taken once, on its
    # time nodes; the oracles evaluate them afresh on every step
    space = tuple(Bump1D(0.1 * i, 0.5) for i in range(dims))
    g = SpacetimeBump(Bump1D(0.0, 0.5), space)
    grid = BoxGrid.covering([(-3.0, 4.0)] + [(-2.0, 2.0)] * (dims - 1), h)
    # windows beginning before the sweep's first node, ending after its last,
    # both, neither, and never meeting it
    tests = [SpacetimeBump(Bump1D(tc, tr), space)
             for tc, tr in ((-0.6, 0.5), (0.6, 0.5), (0.0, 2.0), (0.05, 0.2), (3.0, 0.5))]
    dt = stable_dt(h, dims, 2.0)
    t0, steps = -0.4, int(math.ceil(0.8 / dt))
    got = [_SampledBump([f], grid, dt, _time_nodes(t0, dt, steps)) for f in tests]
    want = [SignedSmearAccumulator(f, grid, dt) for f in tests]
    _sweep(grid, 2.0, dt, t0, steps, grid.zeros(), grid.zeros(), source=g, hooks=got + want)
    assert [a.totals for a in got] == [[b.total] for b in want]
    assert all(b.total != 0.0 for b in want[:4]) and want[4].total == 0.0
    # through the public routes: a wide test begins before both sweeps' first nodes
    fs = [g.translated(dx=(3.0,)), g.translated(dt=3.0), g.translated(dt=0.3, dx=(0.2,)),
          SpacetimeBump(Bump1D(0.0, 2.0), space)]
    assert fs[3].time.lo < g.time.lo - 2.0 * dt
    for r in (-2.0, 0.0, 2.0):
        dt = stable_dt(h, dims, r)
        assert np.array_equal(smear_E_scalar_multi(fs, g, r, grid),
                              signed_smear_E_scalar_multi(fs, g, r, grid, dt))
    basis, metric = internal26
    vec = InternalVector(basis, metric, {basis.index[()]: Fraction(1),
                                         basis.index[((1, 2),)]: Fraction(1),
                                         basis.index[((2, 2),)]: Fraction(1)})
    U = apply_E(SmearingFunction(g, vec), Fraction(1), grid)
    for f in fs[1:]:
        F = SmearingFunction(f, vec)
        pair = pair_solution_with_test(U, F)
        assert pair != 0.0 and pair == stepwise_pair_solution_with_test(U, F)


@pytest.mark.parametrize("dims, h", [(1, 0.05), (2, 0.1)])
@pytest.mark.parametrize("amplitude", [1.0, -0.7])
@pytest.mark.parametrize("tc", [0.0, -0.0, 0.1], ids=["zero", "negative-zero", "uneven"])
def test_time_even_source_shares_one_sweep(dims, h, amplitude, tc, monkeypatch):
    # a source centred at t = +-0.0 is its own time reversal: one sweep per
    # level gives both halves of E with the bits of the two-sweep oracle
    space = tuple(Bump1D(0.1 * i, 0.5) for i in range(dims))
    g = SpacetimeBump(Bump1D(tc, 0.5, amplitude), space)
    assert (g.time_reversed() == g) == (tc == 0.0)
    fs = [g.translated(dx=(3.0,)), g.translated(dt=3.0), g.translated(dt=-3.0),
          g.translated(dt=0.3, dx=(0.2,))]
    grid = BoxGrid.covering([(-3.0, 4.0)] + [(-2.0, 2.0)] * (dims - 1), h)
    sweep, calls = propagator._sweep, []

    def spy(*args, **kwargs):
        calls.append(args[1])
        return sweep(*args, **kwargs)

    levels = (-2.0, 0.0, 2.0)
    for r in levels:
        with monkeypatch.context() as m:
            m.setattr(propagator, "_sweep", spy)
            got = smear_E_scalar_multi(fs, g, r, grid)
        assert got[1] != 0.0 and got[2] != 0.0
        assert np.array_equal(got, signed_smear_E_scalar_multi(fs, g, r, grid,
                                                               stable_dt(h, dims, r)))
    assert calls == [r for r in levels for _ in range(1 if tc == 0.0 else 2)]


@pytest.mark.parametrize("dims, h", [(1, 0.05), (2, 0.1)])
def test_grouped_windowed_hook_equals_whole_grid_smears(dims, h):
    grid = BoxGrid.covering([(-3.0, 4.0)] + [(-2.0, 2.0)] * (dims - 1), h)
    near = tuple(Bump1D(0.1 * i, 0.5) for i in range(dims))
    g = SpacetimeBump(Bump1D(0.0, 0.5), near)
    wide = (Bump1D(0.5, 10.0),) * dims                  # nonzero on the whole grid
    nowhere = (Bump1D(50.0, 0.5),) + near[1:]           # zero on the whole grid
    negative = (Bump1D(1.0, 0.5, -1.5),) + near[1:]     # -0.0 off its support
    shared = (Bump1D(-0.5, 0.6),) + near[1:]
    tests = [SpacetimeBump(Bump1D(0.0, 0.5), wide),
             SpacetimeBump(Bump1D(0.0, 0.5), nowhere),
             SpacetimeBump(Bump1D(0.1, 0.4, -2.0), negative),
             SpacetimeBump(Bump1D(-0.2, 0.15), shared),     # two members of one group
             SpacetimeBump(Bump1D(0.35, 0.15), shared)]     # with disjoint time windows
    axes = grid.axes()
    flat = tests[0].spatial_values(axes).ravel()
    assert flat[0] != 0.0 and flat[-1] != 0.0
    assert not np.any(tests[1].spatial_values(axes))
    assert np.signbit(tests[2].spatial_values(axes).ravel()[0])
    if dims == 2:   # the flat range between the first and last nonzero cuts rows
        rows, cols = np.nonzero(tests[3].spatial_values(axes))
        assert 0 < cols[0] and cols[-1] < grid.shape[1] - 1 and rows[0] < rows[-1]
    dt = stable_dt(h, dims, 2.0)
    t0, steps = -0.6, int(math.ceil(1.2 / dt))
    got = _SampledBump(tests, grid, dt, _time_nodes(t0, dt, steps))
    want = [SignedSmearAccumulator(f, grid, dt) for f in tests]
    _sweep(grid, 2.0, dt, t0, steps, grid.zeros(), grid.zeros(), source=g, hooks=[got] + want)
    assert got.totals == [acc.total for acc in want]
    assert got.totals[1] == 0.0 and all(got.totals[i] != 0.0 for i in (0, 2, 3, 4))
    assert len(got._groups) == 3    # the zero factor's group never runs


def test_sweep_raises_on_a_non_finite_field():
    grid = BoxGrid.covering([(-2.0, 2.0)], 0.05)
    dt, mid = stable_dt(0.05, 1, 0.0), grid.shape[0] // 2
    g = std_bump()

    def poison(k, t, u):
        if k == 3:
            u[mid] = np.nan

    u0 = grid.zeros()
    u0[mid] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match=rf"after 20 leapfrog steps at r = 0.0, dt = {dt}"):
            _sweep(grid, 0.0, dt, -0.6, 20, grid.zeros(), grid.zeros(), source=g,
                   hooks=(poison,))
        with pytest.raises(FloatingPointError, match="not finite after 0 leapfrog steps"):
            _sweep(grid, 1.0, dt, 0.0, 5, u0, grid.zeros())


def _recorder(seen):
    def hook(k, t, u):
        seen.append((k, t, u.copy()))
    return hook


def _box(dims, h):
    return BoxGrid.covering([(-2.0, 2.5)] + [(-1.5, 1.5)] * (dims - 1), h)


def _gauss_cauchy(mesh):
    u = np.exp(-sum(m * m for m in mesh) / 0.3)   # nonzero on the wall layer
    return u, mesh[0] * u


def _compact_cauchy(mesh):
    # zero but on the planes 1.15 < x_0 < 1.85 of the box [-2, 2.5], and off
    # the middle of the other axes
    u = bump_profile((mesh[0] - 1.5) / 0.35)
    for m in mesh[1:]:
        u = u * bump_profile((m + 0.4) / 0.7)
    return u, (mesh[0] - 1.5) * u


def _negated_compact_cauchy(mesh):
    u, v = _compact_cauchy(mesh)
    return -u, -v       # -0.0 wherever the data is zero


def _checkered_zeros(shape):
    """+0.0 and -0.0 in a checkerboard: the stencil maps it to -0.0 on the +0.0 points."""
    parity = sum(np.indices(shape)) % 2
    return np.where(parity == 1, -0.0, 0.0)


def _checkered_compact_cauchy(mesh):
    u, v = _compact_cauchy(mesh)
    return np.where(u == 0.0, _checkered_zeros(u.shape), u), v


@pytest.mark.parametrize("intervals, h, r, blocks", [
    ([(0.0, 100001.0)], 1.0, 2.0, 4),                     # 1-D, 100002 points
    ([(-3.0, 3.0), (-2.25, 2.25)], 0.02, 0.0, 3),         # 301 x 226
    ([(-1.5, 1.5), (-1.2, 1.2), (-1.0, 1.0)], 0.05, 0.5, 4),  # 61 x 49 x 41
])
def test_klein_gordon_apply_is_bit_identical_to_roll_oracle(intervals, h, r, blocks):
    # apply walks the interior planes of axis 0 in blocks of BLOCK flat points,
    # whose edges fall mid-plane on the 2-D and 3-D grids; on random data with
    # zeros of both signs every interior value and its sign equal the periodic
    # oracle's (r >= 0 lets a result be -0.0), every wall entry of the written
    # planes is finite, and the first and last planes are not written
    grid = BoxGrid.covering(intervals, h)
    span = (grid.shape[0] - 2) * math.prod(grid.shape[1:])
    assert math.ceil(span / BLOCK) == blocks
    assert grid.ndim == 1 or BLOCK % math.prod(grid.shape[1:])    # edges fall mid-plane
    rng = np.random.default_rng(11)
    u = rng.standard_normal(grid.shape)
    u[rng.random(grid.shape) < 0.6] *= 0.0
    out = np.full(grid.shape, np.nan)
    _KleinGordon(grid, r).apply(u, out)
    inside = (slice(1, -1),) * grid.ndim
    assert same_bits(out[inside], (roll_laplacian(u, h) - r * u)[inside])
    assert np.any(np.signbit(out[inside][out[inside] == 0.0]))
    assert np.all(np.isfinite(out[1:-1]))
    assert np.all(np.isnan(out[0])) and np.all(np.isnan(out[-1]))


@pytest.mark.parametrize("make", [
    lambda: _KleinGordon(BoxGrid.covering([(-1.0, 1.0)] * 2, 0.1), 2.0),
    lambda: build_operator(ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=1.0)),
], ids=["klein-gordon", "cone"])
def test_flat_stencils_refuse_an_out_that_is_not_c_contiguous(make):
    op = make()
    u = np.zeros((21, 21))
    with pytest.raises(ValueError, match="out must be C-contiguous"):
        op.apply(u, np.zeros((21, 21)).T)


def test_leapfrog_window_starts_at_the_data_and_source_and_grows_to_the_walls():
    # planes 0 .. 20 of axis 0: v on planes 13 and 14 and the source on
    # plane 17, so the window starts as planes 13 .. 17 and meets the walls
    # three steps (plane 20) and thirteen steps (plane 0) in.  u is zero, but
    # -0.0 on half its points, and A u -0.0 on the other half
    grid = BoxGrid.covering([(-1.0, 1.0), (-0.5, 0.5)], 0.1)
    u, v, source = _checkered_zeros(grid.shape), grid.zeros(), grid.zeros()
    v[13:15, 3:6] = 1.0
    source[17, 5] = 1.0
    engine = Leapfrog(_KleinGordon(grid, 2.0), 0.05, u, v, source)
    assert engine.planes == slice(13, 18)
    for k in range(1, 17):
        engine.step(1.0 if k % 3 else 0.0)      # a silent source keeps its planes
        lo, hi = max(13 - k, 0), min(18 + k, 21)
        assert engine.planes == slice(lo, hi), k
        # off the window every buffer holds +0.0, as a full-grid step writes;
        # the adopted u keeps the caller's -0.0 until its first write, in step 2
        for buf in (engine.cur, engine.au) + ((engine.prev,) if k > 1 else ()):
            off = np.concatenate([buf[:lo].ravel(), buf[hi:].ravel()])
            assert not np.any(off) and not np.any(np.signbit(off)), k
        assert np.any(engine.cur[lo:hi])
    # zero data and no source: the window stays empty
    empty = Leapfrog(_KleinGordon(grid, 2.0), 0.05, grid.zeros(), grid.zeros())
    for _ in range(3):
        empty.step()
        assert empty.planes == slice(0, 0) and not np.any(empty.cur)


def test_leapfrog_window_is_tight_where_the_taylor_step_cancels():
    # h = 1/2, dt = 1/4, r = 0: u = 1 on plane 10 and v = 1/2 on planes 9 and
    # 11 make u(-dt) exactly zero on those two planes, so the window starts as
    # plane 10 alone and the field reaches both of its edges on every step
    grid = BoxGrid((0.0,), 0.5, (41,))
    u, v = grid.zeros(), grid.zeros()
    u[10] = 1.0
    v[9] = v[11] = 0.5
    engine = Leapfrog(_KleinGordon(grid, 0.0), 0.25, u.copy(), v)
    assert engine.planes == slice(10, 11)
    u_prev, u_cur = roll_taylor_back_step(u, v, 0.0, 0.5, 0.25), u
    for k in range(1, 10):
        engine.step()
        u_prev, u_cur, _ = roll_sweep(0.5, 0.0, 0.25, 0.0, 1, u_prev, u_cur)
        assert engine.planes == slice(10 - k, 11 + k)
        assert engine.cur[10 - k] != 0.0 and engine.cur[10 + k] != 0.0
        assert same_bits(engine.cur, u_cur), k


@pytest.mark.parametrize("dims, r, data", [
    pytest.param(1, -2.0, None, id="1--2.0"),
    pytest.param(1, 2.0, None, id="1-2.0"),
    pytest.param(2, 0.0, None, id="2-0.0"),
    pytest.param(2, 2.0, None, id="2-2.0"),
    # compact data a gap of eleven planes away from the source's bump
    pytest.param(1, 2.0, _compact_cauchy, id="1-2.0-data"),
    pytest.param(2, 0.0, _negated_compact_cauchy, id="2-0.0-negated-data"),
])
def test_sweep_is_bit_identical_to_roll_oracle(dims, r, data):
    grid = _box(dims, 0.05)
    bump = SpacetimeBump(Bump1D(0.3, 0.4), tuple(Bump1D(0.1 * i, 0.6) for i in range(dims)))
    dt = stable_dt(grid.h, dims, r)
    spatial = bump.spatial_values(grid.axes())
    if data is None:
        u0, v0 = grid.zeros(), grid.zeros()
    else:
        u0, v0 = data(np.meshgrid(*grid.axes(), indexing="ij"))

    def roll_source(tt):
        amp = float(bump.time(np.array([tt]))[0])
        return None if amp == 0.0 else amp * spatial

    t0 = -3.0 * dt
    steps = int(math.ceil(1.2 / dt))
    got, want = [], []
    out = _sweep(grid, r, dt, t0, steps, u0.copy(), v0, source=bump, hooks=(_recorder(got),))
    u_prev, u_cur, t_want = roll_sweep(
        grid.h, r, dt, t0, steps, roll_taylor_back_step(u0, v0, r, grid.h, dt), u0.copy(),
        source=roll_source, hooks=(_recorder(want),))
    # the arrival derivative: one more step, with the source at the arrival time
    _, u_next, _ = roll_sweep(grid.h, r, dt, t_want, 1, u_prev, u_cur, source=roll_source)
    assert out.t0 == t_want
    assert same_bits(out.u, u_cur)
    assert same_bits(out.v, (u_next - u_prev) / (2.0 * dt)) and np.any(out.v)
    assert len(got) == len(want) == steps + 1
    for (k, tk, uk), (kw, tw, uw) in zip(got, want):
        assert (k, tk) == (kw, tw)
        assert same_bits(uk, uw), k


@pytest.mark.parametrize("dims, h, data, t_target", [
    pytest.param(1, 0.05, _gauss_cauchy, 0.9, id="1"),
    pytest.param(2, 0.05, _gauss_cauchy, 0.9, id="2"),
    # compact off-centre data: the engine's window starts as a few planes
    pytest.param(1, 0.05, _compact_cauchy, 0.9, id="compact-1"),
    pytest.param(2, 0.05, _compact_cauchy, 0.9, id="compact-2"),
    pytest.param(3, 0.1, _compact_cauchy, 0.9, id="compact-3"),
    # -0.0 off the support, over many steps and over one
    pytest.param(2, 0.05, _negated_compact_cauchy, 0.9, id="negated-2"),
    pytest.param(2, 0.05, _checkered_compact_cauchy, 0.9, id="checkered-2"),
    pytest.param(1, 0.05, _negated_compact_cauchy, 0.04, id="negated-1-one-step"),
])
def test_evolve_cauchy_is_bit_identical_to_roll_oracle(dims, h, data, t_target):
    grid = _box(dims, h)
    u, v = data(np.meshgrid(*grid.axes(), indexing="ij"))
    r = 2.0
    dt = stable_dt(grid.h, dims, r)
    steps = int(math.ceil(t_target / dt - 1e-12))
    got, want = [], []
    out = evolve_cauchy(CauchyData(grid, 0.0, u, v), r, t_target, hooks=(_recorder(got),))
    t, u_want, v_want = roll_evolve_forward(grid.h, 0.0, u, v, r, t_target / steps, steps,
                                            hooks=(_recorder(want),))
    assert out.t0 == t
    assert same_bits(out.u, u_want) and same_bits(out.v, v_want)
    assert [(k, tk) for k, tk, _ in got] == [(k, tk) for k, tk, _ in want]
    assert all(same_bits(a[2], b[2]) for a, b in zip(got, want))
