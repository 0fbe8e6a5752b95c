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

from ._leapfrog import BLOCK, FlatStencil, Leapfrog, _plane_blocks
from .propagator import _check_size, _positive_finite, bump_profile

# field values below this fraction of the peak |u| count as zero in the
# leakage and support diagnostics
THRESHOLD_FRAC = 1e-8
# the intercept a of the constant term 2a u
INTERCEPT = 1.0
# a bound on the grid-sized float arrays solve holds at once (a peak of 10.9
# to 11.1 of them under tracemalloc on two to four axes)
_SOLVE_BUFFERS = 12


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
            _positive_finite(name, getattr(self, name))
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
class ConeStencil(FlatStencil):
    """Spatial operator u -> sum d^2 u - sum 2 n x_n d u + 2a u on the grid.

    Axis 0 is a center-of-mass axis, so every drift repeats with the plane's
    period along the flat index and is kept over one plane plus one block.
    """

    config: ConeConfig
    axes: list
    drift_coeffs: list   # per axis: None (center-of-mass) or -2 n x on the axis's points

    def __post_init__(self):
        shape = tuple(len(a) for a in self.axes)
        super().__init__(shape, 2)
        plane = self._strides[0]
        self._drifts = []
        for ax, coeff in enumerate(self.drift_coeffs):
            if coeff is not None:
                along = [1] * len(shape)
                along[ax] = shape[ax]
                row = np.broadcast_to(coeff.reshape(along), (1,) + shape[1:]).ravel()
                coeff = np.resize(row, plane + len(self._scratch[0]))
            self._drifts.append(coeff)
        h = self.config.h
        self._inv_h2, self._inv_2h = 1.0 / (h * h), 0.5 / h

    def apply(self, u, out):
        """A u on the interior points of ``out``, as :meth:`FlatStencil.apply` walks it."""
        # kept in the class's own namespace, where perfbench/spans.py wraps it
        return FlatStencil.apply(self, u, out)

    def _block(self, src, dst, a, b):
        phase, n = a % self._strides[0], b - a
        core, acc = src[a:b], dst[a:b]
        two_u, tmp = (x[:n] for x in self._scratch)
        np.multiply(core, 2.0 * INTERCEPT, out=acc)
        np.multiply(core, 2.0, out=two_u)
        for stride, drift in zip(self._strides, self._drifts):
            up, dn = src[a + stride:b + stride], src[a - stride:b - stride]
            np.subtract(up, two_u, out=tmp)
            np.add(tmp, dn, out=tmp)
            np.multiply(tmp, self._inv_h2, out=tmp)
            np.add(acc, tmp, out=acc)
            if drift is not None:
                np.subtract(up, dn, out=tmp)
                np.multiply(drift[phase:phase + n], tmp, out=tmp)
                np.multiply(tmp, self._inv_2h, out=tmp)
                np.add(acc, tmp, out=acc)


def _side(config):
    """Grid points along each axis."""
    return int(round(2 * config.extent / config.h)) + 1


def build_operator(config):
    """Stencil description for the extended wave operator."""
    n_side = _side(config)
    ax = np.linspace(-config.extent, config.extent, n_side)
    dims = config.dims
    axes = [ax] * dims
    cm_axes = config.d_cm - 1
    drift = [None if i < cm_axes else -2.0 * (i - cm_axes + 1) * ax for i in range(dims)]
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


def weighted_energy(stencil, weight, u_cur, u_next, dt, au, scratch, planes=slice(None)):
    """Leapfrog shadow energy with the Gaussian weight, and ||u_next||_w^2.

    E = (1/2) ||(u_next - u_cur)/dt||_w^2 - (1/2) <u_next, A u_cur>_w; exactly
    conserved when A is w-symmetric, so its drift measures the O(h^2)
    asymmetry of the centered drift discretization.  ``au`` carries
    A u_cur; the squared norm shares E's product w u_next.  ``scratch`` holds
    three arrays shaped like the field, all arrays C-contiguous: block by
    block they receive the summands of the three sums on the axis-0
    ``planes``, and each sum then runs once over its whole array.  Off
    ``planes`` the fields must be zero and the scratch arrays +0.0.
    """
    vol = stencil.config.h ** u_cur.ndim
    w, u, v, a = (x.reshape(-1) for x in (weight, u_cur, u_next, au))
    kinetic_terms, cross_terms, norm_terms = (x.reshape(-1) for x in scratch)
    for sl in _plane_blocks(u_next, planes):
        diff, wv, kin = cross_terms[sl], norm_terms[sl], kinetic_terms[sl]
        np.subtract(v[sl], u[sl], out=diff)
        np.divide(diff, dt, out=diff)
        np.multiply(w[sl], diff, out=kin)
        np.multiply(kin, diff, out=kin)
        np.multiply(w[sl], v[sl], out=wv)
        np.multiply(wv, a[sl], out=cross_terms[sl])
        np.multiply(wv, v[sl], out=wv)
    kinetic = 0.5 * float(np.sum(kinetic_terms)) * vol
    cross = -0.5 * float(np.sum(cross_terms)) * vol
    return kinetic + cross, float(np.sum(norm_terms))


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


def _thresholded_squares(u, out, radii=(), planes=slice(None)):
    """u^2 where |u| >= THRESHOLD_FRAC * peak and 0 elsewhere, into ``out``.

    The kept points are the support.  Returns the largest value of each grid
    in ``radii`` on the support (0.0 when u is zero).  ``u``, ``out`` and the
    grids are C-contiguous and of one shape.  Only the axis-0 ``planes`` are
    read and written: off them ``u`` must be zero and ``out`` +0.0.  Each
    pass runs block by block; a maximum does not depend on the order, so
    every value is that of the whole-array pass.
    """
    blocks = _plane_blocks(u, planes)
    u, out = u.reshape(-1), out.reshape(-1)
    radii = [r.reshape(-1) for r in radii]
    # the peak max |u|, nan when u holds one; u is zero off the blocks
    peak = float(np.max([np.max(np.abs(u[sl], out=out[sl])) for sl in blocks], initial=0.0))
    kept = np.empty(min(BLOCK, u.size), dtype=bool)
    largest = [0.0] * len(radii)
    for sl in blocks:
        keep, absu = kept[:sl.stop - sl.start], out[sl]
        np.greater_equal(absu, THRESHOLD_FRAC * peak, out=keep)
        if peak > 0:
            for i, r in enumerate(radii):
                # radii are nonnegative, so the initial 0 never exceeds a kept radius
                largest[i] = max(largest[i], float(np.max(r[sl], where=keep, initial=0.0)))
        np.multiply(u[sl], keep, out=out[sl])
        np.multiply(out[sl], out[sl], out=out[sl])
    return largest


def cone_leakage(outside_mask, cut2, total, scratch, planes):
    """Fraction of a field's thresholded L2 mass on ``outside_mask``.

    ``cut2`` holds the field's squares with the values below THRESHOLD_FRAC *
    peak zeroed, as :func:`_thresholded_squares` writes them, and ``total``
    their sum, so several masks share one field's.  Plain (unweighted) L2 is
    used, which only overstates leakage relative to the Gaussian-weighted
    norm since the weight decays outward.  The mask is applied on the axis-0
    ``planes`` alone, into ``scratch``, an array shaped like ``cut2``; off
    those planes ``cut2`` and ``scratch`` hold +0.0.
    """
    if total == 0.0:
        return 0.0
    # cut2 is finite and nonnegative, so a product with the mask selects exactly
    np.multiply(cut2[planes], outside_mask[planes], out=scratch[planes])
    return float(np.sum(scratch)) / total


def solve(config, initial_u, initial_v, t_final):
    """Leapfrog evolution with cone and energy diagnostics.

    ``initial_u`` / ``initial_v`` are callables of the coordinate mesh.  The
    extended cone at time t has radius data_radius + t + 3h (three cells of
    stencil halo), where data_radius is the largest radius the data reaches.
    The center-of-mass diagnostic instead measures mass escaping the
    point-field cylinder: the center-of-mass cone times the frozen initial
    internal extent; data extended in the internal directions leaks out of
    that cylinder even though it respects the extended cone.  ``t_final``
    must be positive; the run takes at least one step.  A grid whose arrays
    would exceed HISTORY_LIMIT_BYTES is refused before any is allocated.
    """
    if not t_final > 0:
        raise ValueError(f"end time t_final must be positive, got {t_final}")
    n_side, dims = _side(config), config.dims
    _check_size(_SOLVE_BUFFERS * n_side ** dims * 8,
                f"the string-cone solve on {n_side}^{dims} points",
                "use a larger --h, a smaller --extent or fewer dimensions (--dcm, --N)")
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
    # per-step buffers: three shaped like the field, +0.0 off the engine's
    # window as its fields are, and two masks, read on the window alone
    work, cut2, spare = (np.zeros_like(weight) for _ in range(3))
    outside_ext, outside_cyl = (np.empty(weight.shape, dtype=bool) for _ in range(2))
    for k in range(steps):
        engine.step()
        u, u_next, w = engine.prev, engine.cur, engine.planes
        t = (k + 1) * dt
        energy, norm2 = weighted_energy(stencil, weight, u, u_next, dt, engine.au,
                                        (work, cut2, spare), planes=w)
        norm = math.sqrt(norm2)
        if norm0 > 0 and norm > 50.0 * norm0 * math.exp(growth_bound * t):
            raise InstabilityError(
                f"norm {norm:.3e} exceeds the exponential bound at t = {t:.3f}")
        np.greater(rr_ext[w], data_radius + t + halo, out=outside_ext[w])
        np.greater(rr_com[w], r_cm0 + t + halo, out=outside_cyl[w])
        np.logical_or(outside_cyl[w], outside_int[w], out=outside_cyl[w])
        r_ext, r_com = _thresholded_squares(u_next, cut2, (rr_ext, rr_com), w)
        total = float(np.sum(cut2))
        history.times.append(t)
        history.energies.append(energy)
        history.leakage_extended.append(cone_leakage(outside_ext, cut2, total, work, w))
        history.leakage_com.append(cone_leakage(outside_cyl, cut2, total, work, w))
        history.support_radius_extended.append(r_ext)
        history.support_radius_com.append(r_com)
    history.final_field = engine.cur
    return history, stencil


def point_bump(radius):
    """Smooth compactly supported initial profile for cone tests."""
    _positive_finite("bump radius", radius)

    def f(*mesh):
        rr = np.zeros_like(mesh[0])
        for m in mesh:
            rr = rr + m ** 2
        return bump_profile(np.sqrt(rr) / radius)
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
