import math
import tracemalloc

import numpy as np
import pytest

from stringfock import stringcone
from stringfock._leapfrog import BLOCK, _pairwise_tree, _tree_sum
from stringfock.propagator import bump_profile
from stringfock.stringcone import (_SOLVE_BUFFERS, ConeConfig, InstabilityError, _radius,
                                   _thresholded_sums, build_operator, cone_leakage,
                                   gaussian_weight, point_bump, self_convergence_order, solve)

from oracles import roll_cone_apply, roll_cone_solve, same_bits


def zero_v(*mesh):
    return np.zeros_like(mesh[0])


def gauss_data(width=0.35):
    def f(*mesh):
        rr = sum(m * m for m in mesh)
        return np.exp(-rr / (width * width))
    return f


def product_bump(radii):
    """Anisotropic product bump, for internally extended data."""
    def f(*mesh):
        out = np.ones_like(mesh[0])
        for m, rad in zip(mesh, radii):
            out = out * bump_profile(m / rad)
        return out
    return f


def drift_consistency_defect(config, test_field, analytic_operator):
    """Max deviation of the stencil from an analytic operator value, both
    callables of the mesh, off a two-cell boundary halo."""
    stencil = build_operator(config)
    mesh = np.meshgrid(*stencil.axes, indexing="ij")
    u = test_field(*mesh)
    interior = (slice(2, -2),) * u.ndim
    applied = stencil.apply(u, np.zeros(u.shape))
    return float(np.max(np.abs(applied[interior] - analytic_operator(*mesh)[interior])))


@pytest.mark.parametrize("name", ["extent", "h", "cfl"])
def test_config_rejects_infinite_lengths(name):
    with pytest.raises(ValueError, match=f"{name} must be finite, got inf"):
        ConeConfig(**{name: math.inf})


def test_metric_dimensions():
    assert ConeConfig(d_cm=2, n_modes=2).dims == 1 + 2
    assert ConeConfig(d_cm=2, n_modes=0).dims == 1


def test_drift_term_consistency():
    # on the internal coordinate itself the centered stencil is exact
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.05, extent=3.0)
    exact = drift_consistency_defect(cfg, lambda x, y: y,
                                     lambda x, y: 0.0 * y)
    assert exact < 1e-11

    def u_f(x, y):
        return np.exp(-(x * x + y * y) / 2.0)

    def op_f(x, y):
        u = u_f(x, y)
        return (x * x - 1.0) * u + (y * y - 1.0) * u - 2.0 * y * (-y * u) + 2.0 * u

    defects = []
    for h in (0.1, 0.05):
        c = ConeConfig(d_cm=2, n_modes=1, h=h, extent=3.0)
        defects.append(drift_consistency_defect(c, u_f, op_f))
    assert defects[0] / defects[1] == pytest.approx(4.0, rel=0.1)


def test_zero_data_stays_zero():
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=2.0)
    hist, _ = solve(cfg, zero_v, zero_v, 0.5)
    assert np.all(hist.final_field == 0.0)
    assert hist.leakage_extended[-1] == 0.0


def test_end_time_below_one_step_still_takes_one():
    # a positive end time shorter than half a step rounds to no step; the run
    # takes one step of that length instead, and t_final = 0 is refused
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=2.0)
    hist, _ = solve(cfg, point_bump(0.4), zero_v, 1e-6)
    assert hist.times == [1e-6]
    with pytest.raises(ValueError, match="must be positive, got 0"):
        solve(cfg, point_bump(0.4), zero_v, 0)


def test_point_bump_stays_inside_string_cone():
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.025, extent=3.0, cfl=0.4)
    hist, _ = solve(cfg, point_bump(0.4), zero_v, 1.5)
    assert max(hist.leakage_extended) < 1e-6
    assert hist.support_radius_extended[-1] <= 0.4 + 1.5 + 0.5


def test_internally_extended_data_breaks_pointfield_cylinder():
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.05, extent=3.5, cfl=0.4)
    hist, _ = solve(cfg, product_bump((0.4, 1.8)), zero_v, 1.2)
    assert max(hist.leakage_extended) < 1e-6
    assert hist.leakage_com[-1] > 1e-2


def test_internally_constant_data_reduces_to_com_wave():
    # separation of variables: y-independent data keeps every interior
    # y-slice equal until the y-boundary light cone arrives
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.05, extent=3.0, cfl=0.4)

    def init(x, y):
        s = x / 0.5
        out = np.zeros_like(s)
        inside = np.abs(s) < 1
        out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out

    t_final = 0.8
    hist, stencil = solve(cfg, init, zero_v, t_final)
    y_ax = stencil.axes[1]
    # the zeroed boundary injects a front from |y| = extent; stay well
    # inside its numerically-broadened reach
    safe = np.abs(y_ax) < cfg.extent - t_final - 0.8
    block = hist.final_field[:, safe]
    mid = block[:, block.shape[1] // 2]
    assert np.max(np.abs(block - mid[:, None])) < 1e-12


def test_energy_conservation_order():
    # drift of the Gaussian-weighted shadow energy shrinks at O(h^2)
    drifts = []
    for h in (0.05, 0.025):
        cfg = ConeConfig(d_cm=2, n_modes=1, h=h, extent=3.0, cfl=0.4)
        hist, _ = solve(cfg, point_bump(0.4), zero_v, 1.0)
        e = np.array(hist.energies)
        drifts.append((e.max() - e.min()) / abs(e[0]))
    assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.35)
    assert drifts[1] < 2e-4


def test_self_convergence_second_order():
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=3.0, cfl=0.4)
    orders, errs = self_convergence_order(cfg, gauss_data(), zero_v, 0.8)
    assert errs[0] > errs[1]
    assert orders[0] > 1.9


def test_instability_detector_fires_beyond_cfl():
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=2.0, cfl=1.6)
    with pytest.raises(InstabilityError):
        solve(cfg, point_bump(0.4), zero_v, 3.0)


def test_oversized_grid_is_refused_before_allocating(monkeypatch):
    # 241^4 points at the default h: refused with the byte count, before the
    # operator or the mesh exists
    def no_grid_arrays(*args, **kwargs):
        raise AssertionError("a grid-sized array was allocated")

    monkeypatch.setattr(stringcone, "build_operator", no_grid_arrays)
    monkeypatch.setattr(np, "meshgrid", no_grid_arrays)
    with pytest.raises(ValueError, match=r"241\^4 points needs 188910543416 bytes"):
        solve(ConeConfig(d_cm=3, n_modes=2, h=0.025), point_bump(0.4), zero_v, 1.0)


def test_size_check_admits_61_to_the_fourth(monkeypatch):
    # string-cone --N 3 --h 0.1: 61^4 points, 775 MB at _SOLVE_BUFFERS grids,
    # passes the size check and reaches the operator
    class Admitted(Exception):
        pass

    def admitted(config):
        raise Admitted

    monkeypatch.setattr(stringcone, "build_operator", admitted)
    with pytest.raises(Admitted):
        solve(ConeConfig(d_cm=2, n_modes=3, h=0.1), point_bump(0.4), zero_v, 1.0)


@pytest.mark.parametrize("name", ["u", "v"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_initial_data_is_refused(monkeypatch, name, bad):
    def spoiled(*mesh):
        out = point_bump(0.4)(*mesh)
        out[3, 4] = bad
        return out

    def no_engine(*args, **kwargs):
        raise AssertionError("the engine started")

    monkeypatch.setattr(stringcone, "Leapfrog", no_engine)
    u0, v0 = (spoiled, zero_v) if name == "u" else (point_bump(0.4), spoiled)
    with pytest.raises(ValueError, match=f"initial {name} holds a non-finite value"):
        solve(ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=2.0), u0, v0, 0.5)


@pytest.mark.parametrize("cfg", [
    ConeConfig(d_cm=2, n_modes=1, h=0.0125),      # 481^2, the criterion-8 grid
    ConeConfig(d_cm=2, n_modes=2, h=0.1),         # 61^3, a period of two internal axes
    ConeConfig(d_cm=3, n_modes=1, h=0.1),         # 61^3, two center-of-mass axes
    ConeConfig(d_cm=3, n_modes=2, h=0.25),        # 25^4
], ids=["481^2", "61^3-N2", "61^3-dcm3", "25^4"])
def test_solve_peak_memory_is_bounded_by_the_size_check(cfg):
    # the size check counts _SOLVE_BUFFERS grid-sized float arrays
    grid_bytes = 8 * len(build_operator(cfg).axes[0]) ** cfg.dims
    tracemalloc.start()
    try:
        solve(cfg, point_bump(0.4), zero_v, 3 * cfg.dt())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _SOLVE_BUFFERS * grid_bytes


def test_gaussian_weight_shape():
    # kept over one period of the internal axis plus one block
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.5, extent=1.0)
    stencil = build_operator(cfg)
    w = gaussian_weight(stencil)
    y = stencil.axes[1]
    assert np.allclose(w[:len(y)], np.exp(-y ** 2))
    assert np.allclose(w[np.argmin(np.abs(y))::len(y)], 1.0)


def test_cone_leakage_thresholding():
    # on 11 x 11 points of spacing 0.2 both masks hold the corner (-1, -1)
    # and not the centre: extended radius above 0.5, or |x| above 0.5
    stencil = build_operator(ConeConfig(d_cm=2, n_modes=1, h=0.2, extent=1.0))
    radii = (_radius(stencil, range(2), np.arange(121)),
             _radius(stencil, range(1), np.arange(0, 121, 11)))
    outside = (0.5, radii[1] > 0.5, np.zeros(11 + 121, dtype=bool))
    scratch = (np.empty((2, 121)), np.empty((2, 121), dtype=bool))
    _, nest = _pairwise_tree(121)
    u = np.zeros((11, 11))
    u[5, 5] = 1.0
    u[0, 0] = 1e-12

    def leakages():
        sums, _, _ = _thresholded_sums(stencil, u, slice(0, 11), radii, outside, scratch)
        return [cone_leakage(sums[:, j], sums[:, 0], nest) for j in (1, 2)]

    assert leakages() == [0.0, 0.0]
    u[0, 0] = 0.5
    assert leakages() == [pytest.approx(0.2)] * 2


def signed_columns(n, rng):
    # random signed data of many magnitudes, the same with a zeroed window at
    # the start, in the middle and at the end, then all +0.0 and all -0.0
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
    cols = [x]
    for lo, hi in ((0, n // 3), (n // 3, 2 * n // 3), (2 * n // 3, n)):
        y = x.copy()
        y[lo:hi] = 0.0
        cols.append(y)
    return np.stack(cols + [np.zeros(n), np.full(n, -0.0)])


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1,
                               241 ** 2, 481 ** 2, 61 ** 3, 25 ** 4])
def test_tree_sum_is_np_sum_bit_for_bit(n):
    cols = signed_columns(n, np.random.default_rng(n))
    leaves, nest = _pairwise_tree(n)
    assert leaves[0][0] == 0 and leaves[-1][1] == n
    assert all(b - a <= BLOCK for a, b in leaves)
    sums = np.array([[np.add.reduce(c[a:b]) for c in cols] for a, b in leaves])
    got = _tree_sum(nest, sums)
    want = np.array([np.sum(c) for c in cols])
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg, blocks", [
    (ConeConfig(d_cm=2, n_modes=1, h=0.0125), 8),         # the criterion-8 grid, 481^2
    (ConeConfig(d_cm=2, n_modes=2, h=0.1), 7),            # 61^3: the +-61^2 neighbours cross blocks
    (ConeConfig(d_cm=3, n_modes=1, h=0.1), 7),            # 3-D, two center-of-mass axes
    (ConeConfig(d_cm=2, n_modes=1, h=0.03, extent=3.03), 2),
])
def test_stencil_is_bit_identical_to_roll_oracle(cfg, blocks):
    # apply walks the interior planes of axis 0 in blocks of BLOCK flat points;
    # on random data every interior value equals the periodic oracle's, and
    # every wall entry of the written planes is finite
    stencil = build_operator(cfg)
    shape = tuple(len(a) for a in stencil.axes)
    span = (shape[0] - 2) * math.prod(shape[1:])
    assert math.ceil(span / BLOCK) == blocks
    u = np.random.default_rng(7).standard_normal(shape)
    got = stencil.apply(u, np.full(shape, np.nan))
    want = roll_cone_apply(cfg, stencil.axes, u)
    inside = (slice(1, -1),) * len(shape)
    assert np.array_equal(got[inside], want[inside])
    assert np.all(np.isfinite(got[1:-1]))
    assert np.all(np.isnan(got[0])) and np.all(np.isnan(got[-1]))


HISTORY_LISTS = ("times", "support_radius_extended", "support_radius_com",
                 "leakage_extended", "leakage_com", "energies")


def moving_gauss(*mesh):
    # nonzero on the wall layer, so the first step reads nonzero boundary data
    return 0.3 * mesh[-1] * gauss_data()(*mesh)


def shifted(f, x0):
    """``f`` moved to x0 along axis 0."""
    def g(*mesh):
        return f(mesh[0] - x0, *mesh[1:])
    return g


def negated(f):
    """-f, which holds -0.0 wherever f is zero."""
    def g(*mesh):
        return -f(*mesh)
    return g


@pytest.mark.parametrize("cfg, u0, v0, t_final", [
    (ConeConfig(d_cm=2, n_modes=1, h=0.05), point_bump(0.4), zero_v, 1.0),
    (ConeConfig(d_cm=2, n_modes=1, h=0.05), gauss_data(), moving_gauss, 0.7),
    (ConeConfig(d_cm=2, n_modes=2, h=0.1), product_bump((0.5, 0.8, 0.6)), zero_v, 0.8),
    (ConeConfig(d_cm=3, n_modes=1, h=0.1), point_bump(0.5), moving_gauss, 0.8),
    (ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=2.0), zero_v, zero_v, 0.5),
    # 241^2 points: the stencil and the diagnostics span two blocks
    (ConeConfig(d_cm=2, n_modes=1, h=0.025), point_bump(0.4), moving_gauss, 0.5),
    # off-centre bumps: the engine's window starts as a run of planes on one side
    pytest.param(ConeConfig(d_cm=2, n_modes=1, h=0.025), shifted(point_bump(0.4), 1.7),
                 zero_v, 0.5, id="off-centre-bump"),
    pytest.param(ConeConfig(d_cm=3, n_modes=1, h=0.1), shifted(point_bump(0.5), -1.6),
                 zero_v, 0.8, id="off-centre-bump-3d"),
    # -0.0 off the support of both u and v; 72 steps, so the final field is
    # the buffer the engine adopted from u
    pytest.param(ConeConfig(d_cm=2, n_modes=1, h=0.05), negated(shifted(point_bump(0.4), -1.5)),
                 negated(shifted(product_bump((0.3, 0.5)), -1.5)), 1.01, id="negated-bump"),
])
def test_solve_is_bit_identical_to_roll_oracle(cfg, u0, v0, t_final):
    hist, _ = solve(cfg, u0, v0, t_final)
    want = roll_cone_solve(cfg, u0, v0, t_final)
    for name in HISTORY_LISTS:
        assert same_bits(getattr(hist, name), want[name]), name
    assert same_bits(hist.final_field, want["final_field"])


def test_instability_matches_roll_oracle():
    cfg = ConeConfig(d_cm=2, n_modes=1, h=0.1, extent=2.0, cfl=1.6)
    with pytest.raises(RuntimeError) as want:
        roll_cone_solve(cfg, point_bump(0.4), zero_v, 3.0)
    with pytest.raises(InstabilityError) as got:
        solve(cfg, point_bump(0.4), zero_v, 3.0)
    assert str(got.value) == str(want.value)
