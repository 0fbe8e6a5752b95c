"""Schrodinger-representation field equation with a finite set of internal
Gaussian modes, discretized by a strictly hyperbolic leapfrog scheme, plus
domain-of-dependence diagnostics against the extended light-cone metric.

The operator is discretized directly in its drift form: second-order
centered stencils for every second derivative, a centered first difference
for each internal drift term, and the zeroth-order constant from the
intercept.  The natural conserved diagnostic is the energy built with the
internal Gaussian weight; the centered drift is weight-symmetric only to
O(h^2), so the energy drifts at that order and is monitored, not assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._leapfrog import Leapfrog, interior, neighbours
from .propagator import bump_profile

# field values below this fraction of the peak |u| count as zero in the
# leakage and support diagnostics
THRESHOLD_FRAC = 1e-8
# the intercept a of the constant term 2a u
INTERCEPT = 1.0


@dataclass(frozen=True)
class ConeConfig:
    """The extended metric has unit propagation speed along every spatial axis:
    d_cm - 1 center-of-mass axes, then internal mode n on axis d_cm - 2 + n."""

    d_cm: int = 2
    n_modes: int = 1            # internal mode numbers 1..n_modes, colour 0 each
    extent: float = 3.0
    h: float = 0.05
    cfl: float = 0.4

    def __post_init__(self):
        for name in ("extent", "h", "cfl"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_cm < 2:
            raise ValueError(f"d_cm must be at least 2, got {self.d_cm}")
        if self.n_modes < 0:
            raise ValueError(f"n_modes must be non-negative, got {self.n_modes}")

    @property
    def dims(self):
        return (self.d_cm - 1) + self.n_modes

    def dt(self):
        return self.cfl * self.h / math.sqrt(self.dims)


@dataclass
class ConeStencil:
    """Spatial operator u -> sum d^2 u - sum 2 n x_n d u + 2a u on the grid."""

    config: ConeConfig
    axes: list
    drift_coeffs: list   # per axis: None (center-of-mass) or -2 n x on the interior points

    def __post_init__(self):
        inner_shape = tuple(len(a) - 2 for a in self.axes)
        self._scratch = (np.empty(inner_shape), np.empty(inner_shape))

    def apply(self, u, out=None):
        """A u on the interior points; the wall entries of ``out`` are not written
        (zero when ``out`` is None)."""
        if out is None:
            out = np.zeros_like(u)
        h = self.config.h
        inv_h2 = 1.0 / (h * h)
        inv_2h = 0.5 / h
        inside = interior(u.ndim)
        core, acc = u[inside], out[inside]
        two_u, tmp = self._scratch
        np.multiply(core, 2.0 * INTERCEPT, out=acc)
        np.multiply(core, 2.0, out=two_u)
        for ax in range(u.ndim):
            up, dn = neighbours(u.ndim, ax)
            np.subtract(u[up], two_u, out=tmp)
            np.add(tmp, u[dn], out=tmp)
            np.multiply(tmp, inv_h2, out=tmp)
            np.add(acc, tmp, out=acc)
            drift = self.drift_coeffs[ax]
            if drift is not None:
                np.subtract(u[up], u[dn], out=tmp)
                np.multiply(drift, tmp, out=tmp)
                np.multiply(tmp, inv_2h, out=tmp)
                np.add(acc, tmp, out=acc)
        return out

    def symbol(self, k_vec, dt):
        """Discrete dispersion at an interior point with the drift frozen to
        zero: omega_h^2 such that the plane-wave update satisfies
        sin^2(omega dt / 2) = (dt^2/4) * symbol; mass constant included."""
        h = self.config.h
        total = -2.0 * INTERCEPT
        for k in k_vec:
            total += 4.0 * math.sin(k * h / 2.0) ** 2 / (h * h)
        s = dt * dt * total / 4.0
        if s < -1.0 or s > 1.0:
            raise ValueError("mode outside the oscillatory band")
        return (2.0 / dt * math.asin(math.sqrt(s))) ** 2 if s >= 0 else \
               -(2.0 / dt * math.asinh(math.sqrt(-s))) ** 2


def build_operator(config):
    """Stencil description for the extended wave operator."""
    n_side = int(round(2 * config.extent / config.h)) + 1
    ax = np.linspace(-config.extent, config.extent, n_side)
    dims = config.dims
    axes = [ax] * dims
    drift = []
    cm_axes = config.d_cm - 1
    for i in range(dims):
        if i < cm_axes:
            drift.append(None)
        else:
            n_mode = i - cm_axes + 1
            shape = [1] * dims
            shape[i] = n_side - 2
            drift.append(-2.0 * n_mode * ax[1:-1].reshape(shape))
    return ConeStencil(config, axes, drift)


def gaussian_weight(stencil):
    """prod exp(-n x_n^2) over the internal axes, broadcast to the grid."""
    config = stencil.config
    cm_axes = config.d_cm - 1
    w = np.ones([len(a) for a in stencil.axes])
    for i in range(cm_axes, config.dims):
        n_mode = i - cm_axes + 1
        ax = stencil.axes[i]
        shape = [1] * config.dims
        shape[i] = len(ax)
        w = w * np.exp(-n_mode * ax.reshape(shape) ** 2)
    return w


def weighted_energy(stencil, weight, u_cur, u_next, dt, au, scratch):
    """Leapfrog shadow energy with the Gaussian weight.

    E = (1/2) ||(u_next - u_cur)/dt||_w^2 - (1/2) <u_next, A u_cur>_w; exactly
    conserved when A is w-symmetric, so its drift measures the O(h^2)
    asymmetry of the centered drift discretization.  ``au`` carries
    A u_cur, and ``scratch`` two arrays shaped like the field to compute in.
    """
    vol = stencil.config.h ** u_cur.ndim
    diff, prod = scratch
    np.subtract(u_next, u_cur, out=diff)
    np.divide(diff, dt, out=diff)
    np.multiply(weight, diff, out=prod)
    np.multiply(prod, diff, out=prod)
    kinetic = 0.5 * float(np.sum(prod)) * vol
    np.multiply(weight, u_next, out=prod)
    np.multiply(prod, au, out=prod)
    cross = -0.5 * float(np.sum(prod)) * vol
    return kinetic + cross


@dataclass
class ConeHistory:
    times: list = field(default_factory=list)
    support_radius_extended: list = field(default_factory=list)
    support_radius_com: list = field(default_factory=list)
    leakage_extended: list = field(default_factory=list)
    leakage_com: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    final_field: object = None


class InstabilityError(RuntimeError):
    pass


def _radius_grids(stencil):
    config = stencil.config
    dims = config.dims
    rr_ext = np.zeros([len(a) for a in stencil.axes])
    rr_com = np.zeros_like(rr_ext)
    rr_int = np.zeros_like(rr_ext)
    cm_axes = config.d_cm - 1
    for i, ax in enumerate(stencil.axes):
        shape = [1] * dims
        shape[i] = len(ax)
        sq = ax.reshape(shape) ** 2
        rr_ext = rr_ext + sq
        if i < cm_axes:
            rr_com = rr_com + sq
        else:
            rr_int = rr_int + sq
    return np.sqrt(rr_ext), np.sqrt(rr_com), np.sqrt(rr_int)


def _thresholded_squares(u, absu, keep, out):
    """u^2 where |u| >= THRESHOLD_FRAC * peak and 0 elsewhere, into ``out``.

    ``absu`` receives |u| and ``keep`` the kept points; returns the peak
    max |u|.
    """
    peak = float(np.max(np.abs(u, out=absu)))
    np.greater_equal(absu, THRESHOLD_FRAC * peak, out=keep)
    np.multiply(u, keep, out=out)
    np.multiply(out, out, out=out)
    return peak


def _support_radius(radius, support, work):
    """Largest ``radius`` on the ``support`` mask, which must not be empty."""
    # radii are finite and nonnegative, so the masked product keeps the maximum
    return float(np.max(np.multiply(radius, support, out=work)))


def cone_leakage(u, outside_mask, cut2=None, scratch=None):
    """Fraction of L2 mass on ``outside_mask`` after thresholding small values.

    Values below THRESHOLD_FRAC * peak are zeroed first; the remaining mass
    outside is reported relative to the total.  Plain (unweighted) L2 is
    used, which only overstates leakage relative to the Gaussian-weighted
    norm since the weight decays outward.  ``cut2`` may carry those
    thresholded squares when several masks share one field, and ``scratch``
    an array shaped like ``u`` to mask them in.
    """
    if cut2 is None:
        cut2 = np.empty_like(u)
        _thresholded_squares(u, np.empty_like(u), np.empty(u.shape, dtype=bool), cut2)
    total = float(np.sum(cut2))
    if total == 0.0:
        return 0.0
    # cut2 is finite and nonnegative, so a product with the mask selects exactly
    masked = np.multiply(cut2, outside_mask, out=scratch)
    return float(np.sum(masked)) / total


def solve(config, initial_u, initial_v, t_final):
    """Leapfrog evolution with cone and energy diagnostics.

    ``initial_u`` / ``initial_v`` are callables of the coordinate mesh.  The
    extended cone at time t has radius data_radius + t + 3h (three cells of
    stencil halo), where data_radius is the largest radius the data reaches.
    The center-of-mass diagnostic instead measures mass escaping the
    point-field cylinder: the center-of-mass cone times the frozen initial
    internal extent; data extended in the internal directions leaks out of
    that cylinder even though it respects the extended cone.  ``t_final``
    must be positive; the run takes at least one step.
    """
    if not t_final > 0:
        raise ValueError(f"end time t_final must be positive, got {t_final}")
    stencil = build_operator(config)
    mesh = np.meshgrid(*stencil.axes, indexing="ij")
    u = initial_u(*mesh)
    v = initial_v(*mesh)
    del mesh
    dt = config.dt()
    steps = max(1, int(round(t_final / dt)))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        steps = int(math.ceil(t_final / dt))
        dt = t_final / steps
    weight = gaussian_weight(stencil)
    rr_ext, rr_com, rr_int = _radius_grids(stencil)
    nz = (np.abs(u) + np.abs(v)) > 0
    data_radius = float(np.max(rr_ext[nz])) if np.any(nz) else 0.0
    r_cm0 = float(np.max(rr_com[nz])) if np.any(nz) else 0.0
    r_int0 = float(np.max(rr_int[nz])) if np.any(nz) else 0.0
    halo = 3.0 * config.h
    outside_int = rr_int > r_int0 + halo
    del nz, rr_int
    growth_bound = 2.0 * math.sqrt(2.0 * INTERCEPT + 1.0)

    history = ConeHistory()
    norm0 = math.sqrt(float(np.sum(weight * u * u)) + float(np.sum(weight * v * v)))
    engine = Leapfrog(stencil, dt, u, v)
    del u, v
    # per-step buffers: two shaped like the field, three masks
    work, cut2 = np.empty_like(weight), np.empty_like(weight)
    outside_ext, outside_cyl, keep = (np.empty(weight.shape, dtype=bool) for _ in range(3))
    for k in range(steps):
        engine.step()
        u, u_next = engine.prev, engine.cur
        t = (k + 1) * dt
        energy = weighted_energy(stencil, weight, u, u_next, dt, engine.au, (work, cut2))
        np.greater(rr_ext, data_radius + t + halo, out=outside_ext)
        np.greater(rr_com, r_cm0 + t + halo, out=outside_cyl)
        np.logical_or(outside_cyl, outside_int, out=outside_cyl)
        # keep marks the support, |u| >= THRESHOLD_FRAC * peak
        peak = _thresholded_squares(u_next, work, keep, cut2)
        history.times.append(t)
        history.energies.append(energy)
        history.leakage_extended.append(
            cone_leakage(u_next, outside_ext, cut2, work))
        history.leakage_com.append(
            cone_leakage(u_next, outside_cyl, cut2, work))
        history.support_radius_extended.append(
            _support_radius(rr_ext, keep, work) if peak > 0 else 0.0)
        history.support_radius_com.append(
            _support_radius(rr_com, keep, work) if peak > 0 else 0.0)
        np.multiply(weight, u_next, out=work)
        np.multiply(work, u_next, out=work)
        norm = math.sqrt(float(np.sum(work)))
        if norm0 > 0 and norm > 50.0 * norm0 * math.exp(growth_bound * t):
            raise InstabilityError(
                f"norm {norm:.3e} exceeds the exponential bound at t = {t:.3f}")
    history.final_field = engine.cur
    return history, stencil


def point_bump(radius):
    """Smooth compactly supported initial profile for cone tests."""
    if not radius > 0:
        raise ValueError(f"bump radius must be positive, got {radius}")

    def f(*mesh):
        rr = np.zeros_like(mesh[0])
        for m in mesh:
            rr = rr + m ** 2
        return bump_profile(np.sqrt(rr) / radius)
    return f


def product_bump(radii):
    """Anisotropic product bump, for internally extended data."""
    def f(*mesh):
        out = np.ones_like(mesh[0])
        for m, rad in zip(mesh, radii):
            out = out * bump_profile(m / rad)
        return out
    return f


def self_convergence_order(config, initial_u, initial_v, t_final):
    """Observed order from three solutions at h, h/2, h/4 on shared nodes."""
    fields = []
    for k in range(3):
        cfg = replace(config, h=config.h / (2 ** k))
        hist, _ = solve(cfg, initial_u, initial_v, t_final)
        stride = 2 ** k
        sl = tuple(slice(None, None, stride) for _ in range(cfg.dims))
        fields.append(hist.final_field[sl])
    errs = []
    for k in range(2):
        errs.append(float(np.max(np.abs(fields[k] - fields[k + 1]))))
    orders = [math.log2(errs[k] / errs[k + 1]) for k in range(len(errs) - 1)]
    return orders, errs


def dispersion_defect(config, k_vec, dt=None):
    """|discrete symbol - continuum omega^2| at one wave vector, N = 0 case.

    The continuum relation at zero internal modes is
    omega^2 = |k|^2 - 2a; the discrete symbol approaches it to O(h^2).
    """
    stencil = build_operator(config)
    dt = dt if dt is not None else config.dt()
    w2_disc = stencil.symbol(k_vec, dt)
    w2_cont = sum(k * k for k in k_vec) - 2.0 * INTERCEPT
    return abs(w2_disc - w2_cont)


def drift_consistency_defect(config, test_field, analytic_operator):
    """Max interior deviation of the stencil from an analytic operator value.

    ``test_field`` and ``analytic_operator`` are callables of the mesh; the
    comparison skips a boundary halo.
    """
    stencil = build_operator(config)
    mesh = np.meshgrid(*stencil.axes, indexing="ij")
    u = test_field(*mesh)
    target = analytic_operator(*mesh)
    applied = stencil.apply(u)
    interior = tuple(slice(2, -2) for _ in range(u.ndim))
    return float(np.max(np.abs(applied[interior] - target[interior])))
