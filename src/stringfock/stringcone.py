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

from ._leapfrog import BLOCK, FlatStencil, Leapfrog, _pairwise_tree, _tree_sum, _window_leaves
from .propagator import _check_size, _positive_finite, bump_profile

# field values below this fraction of the peak |u| count as zero in the
# leakage and support diagnostics
THRESHOLD_FRAC = 1e-8
# the intercept a of the constant term 2a u
INTERCEPT = 1.0
# a bound on the grid-sized float arrays solve holds at once: the engine's
# four and the extended radius, or the caller's v beside the engine's four
# as it starts (a peak of 5.7 to 6.3 of them under tracemalloc on two to
# four axes)
_SOLVE_BUFFERS = 7


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

    The internal axes run fastest along the flat index, so every drift
    repeats with their ``_period``, the product of their lengths, and is kept
    over one period plus one block.
    """

    config: ConeConfig
    axes: list
    drift_coeffs: list   # per axis: None (center-of-mass) or -2 n x on the axis's points

    def __post_init__(self):
        shape = tuple(len(a) for a in self.axes)
        super().__init__(shape, 2)
        cm_axes = self.config.d_cm - 1
        self._period = math.prod(shape[cm_axes:])
        self._span = self._period + min(BLOCK, math.prod(shape))
        self._drifts = []
        for ax, coeff in enumerate(self.drift_coeffs):
            if coeff is not None:
                along = [1] * (len(shape) - cm_axes)
                along[ax - cm_axes] = shape[ax]
                coeff = self._periodic(np.broadcast_to(coeff.reshape(along), shape[cm_axes:]))
            self._drifts.append(coeff)
        h = self.config.h
        self._inv_h2, self._inv_2h = 1.0 / (h * h), 0.5 / h

    def apply(self, u, out):
        """A u on the interior points of ``out``, as :meth:`FlatStencil.apply` walks it."""
        # kept in the class's own namespace, where perfbench/spans.py wraps it
        return FlatStencil.apply(self, u, out)

    def _periodic(self, values):
        """``values`` over one period of the internal axes, repeated along the
        flat index to one period plus one block."""
        return np.resize(np.ravel(values), self._span)

    def _block(self, src, dst, a, b):
        phase, n = a % self._period, b - a
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
    """prod exp(-n x_n^2) over the internal axes, over one period plus one block."""
    config = stencil.config
    cm_axes = config.d_cm - 1
    w = np.ones([len(a) for a in stencil.axes[cm_axes:]])
    for i in range(cm_axes, config.dims):
        n_mode = i - cm_axes + 1
        ax = stencil.axes[i]
        shape = [1] * (config.dims - cm_axes)
        shape[i - cm_axes] = len(ax)
        w = w * np.exp(-n_mode * ax.reshape(shape) ** 2)
    return stencil._periodic(w)


def weighted_energy(stencil, weight, u_cur, u_next, dt, au, planes, scratch):
    """Leapfrog shadow energy with the Gaussian weight, and ||u_next||_w^2.

    E = (1/2) ||(u_next - u_cur)/dt||_w^2 - (1/2) <u_next, A u_cur>_w; exactly
    conserved when A is w-symmetric, so its drift measures the O(h^2)
    asymmetry of the centered drift discretization.  ``au`` carries
    A u_cur; the squared norm shares E's product w u_next.  ``weight`` is
    :func:`gaussian_weight`'s, the fields are C-contiguous and zero off the
    axis-0 ``planes``, and ``scratch`` holds three rows of at least a leaf.
    Each leaf of the grid's pairwise tree that meets ``planes`` receives the
    summands of the three sums in ``scratch``; the others sum to +0.0.
    """
    vol = stencil.config.h ** u_cur.ndim
    u, v, a = (x.reshape(-1) for x in (u_cur, u_next, au))
    leaves, nest = _pairwise_tree(u.size)
    sums = np.zeros((len(leaves), 3))
    for i, lo, hi in _window_leaves(leaves, planes, stencil._strides[0]):
        phase, n = lo % stencil._period, hi - lo
        diff, wv, kin = (x[:n] for x in scratch)
        w = weight[phase:phase + n]
        np.subtract(v[lo:hi], u[lo:hi], out=diff)
        np.divide(diff, dt, out=diff)
        np.multiply(w, diff, out=kin)
        np.multiply(kin, diff, out=kin)
        np.multiply(w, v[lo:hi], out=wv)
        np.multiply(wv, a[lo:hi], out=diff)
        np.multiply(wv, v[lo:hi], out=wv)
        sums[i] = np.add.reduce(kin), np.add.reduce(diff), np.add.reduce(wv)
    kinetic_sum, cross_sum, norm_sum = _tree_sum(nest, sums)
    kinetic = 0.5 * float(kinetic_sum) * vol
    cross = -0.5 * float(cross_sum) * vol
    return kinetic + cross, float(norm_sum)


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


def _radius(stencil, axes, flat, out=None):
    """sqrt of the sum, in axis order, of the squared coordinates along
    ``axes`` at the flat grid indices ``flat``, into ``out`` when given."""
    rr = np.empty(len(flat)) if out is None else out
    rr.fill(0.0)
    for i in axes:
        ax = stencil.axes[i]
        rr += (ax ** 2)[flat // stencil._strides[i] % len(ax)]
    return np.sqrt(rr, out=rr)


def _runs(period, lo, hi):
    """The center-of-mass points q0 .. q1-1 that the flat points lo .. hi-1
    belong to, and the offset in lo .. hi-1 where each one's run starts."""
    q0, q1 = lo // period, (hi - 1) // period + 1
    return q0, q1, np.maximum(np.arange(q0, q1) * period - lo, 0)


def _cylinder_mask(period, lo, com_out, int_out, out):
    """Into ``out``, whether each flat point lo, lo + 1, ... is outside the
    cylinder: com_out at its center-of-mass point, or int_out at its phase.
    The points run from the phase of lo to the end of its period, through
    whole periods, and into one more; each piece is one broadcast call."""
    n = len(out)
    q, phase = divmod(lo, period)
    head = min(n, period - phase)
    np.logical_or(com_out[q], int_out[phase:phase + head], out=out[:head])
    k, tail = divmod(n - head, period)
    body = out[head:head + k * period].reshape(k, period)
    np.logical_or(com_out[q + 1:q + 1 + k, None], int_out[:period], out=body)
    if tail:
        np.logical_or(com_out[q + 1 + k], int_out[:tail], out=out[n - tail:])


def _thresholded_sums(stencil, u, planes, radii, outside, scratch):
    """Per-leaf sums of u's thresholded squares, alone and on two masks, and
    the largest extended and center-of-mass radius of the support.

    The thresholded squares are u^2 where |u| >= THRESHOLD_FRAC * peak |u|
    and 0 elsewhere; the kept points are the support.  ``radii`` holds the
    extended radius on the flat grid and the center-of-mass radius per
    center-of-mass point; radii are 0.0 when u is zero.  ``outside`` is (cut,
    com_out, int_out): a point is on the first mask where its extended
    radius exceeds cut, on the second where com_out holds at its
    center-of-mass point or int_out, a bool array over one period plus one
    block, at its phase.  Returns the sums as one row (total, first mask,
    second mask) per leaf of the grid's pairwise tree, +0.0 on the leaves
    that miss the axis-0 ``planes``, off which ``u`` must be zero.
    ``scratch`` holds two float and two bool rows of at least a leaf.
    """
    rr_ext, rr_com = radii
    cut, com_out, int_out = outside
    (squares, product), (keep, mask) = scratch
    u = u.reshape(-1)
    leaves, _ = _pairwise_tree(u.size)
    window = _window_leaves(leaves, planes, stencil._strides[0])
    # the peak max |u|, nan when u holds one; u is zero off the window
    peak = float(np.max([np.max(np.abs(u[lo:hi], out=squares[:hi - lo]))
                         for _, lo, hi in window], initial=0.0))
    sums = np.zeros((len(leaves), 3))
    r_ext = r_com = 0.0
    for i, lo, hi in window:
        n = hi - lo
        q0, q1, starts = _runs(stencil._period, lo, hi)
        sq, prod, kept, on = squares[:n], product[:n], keep[:n], mask[:n]
        np.abs(u[lo:hi], out=sq)
        np.greater_equal(sq, THRESHOLD_FRAC * peak, out=kept)
        if peak > 0:
            # radii are nonnegative, so the initial 0 never exceeds a kept radius
            r_ext = max(r_ext, float(np.max(rr_ext[lo:hi], where=kept, initial=0.0)))
            r_com = max(r_com, float(np.max(rr_com[q0:q1], initial=0.0,
                                            where=np.logical_or.reduceat(kept, starts))))
        np.multiply(u[lo:hi], kept, out=sq)
        np.multiply(sq, sq, out=sq)
        sums[i, 0] = np.add.reduce(sq)
        # sq is finite and nonnegative, so a product with a mask selects exactly
        np.greater(rr_ext[lo:hi], cut, out=on)
        sums[i, 1] = np.add.reduce(np.multiply(sq, on, out=prod))
        _cylinder_mask(stencil._period, lo, com_out, int_out, on)
        sums[i, 2] = np.add.reduce(np.multiply(sq, on, out=prod))
    return sums, r_ext, r_com


def cone_leakage(outside, total, nest):
    """Fraction of a field's thresholded L2 mass on a mask.

    ``outside`` and ``total`` are per-leaf sums of the thresholded squares
    on the mask and in all, as :func:`_thresholded_sums` gives them, joined
    along the pairwise tree ``nest``.  Plain (unweighted) L2 is used, which
    only overstates leakage relative to the Gaussian-weighted norm since the
    weight decays outward.
    """
    total = float(_tree_sum(nest, total))
    if total == 0.0:
        return 0.0
    return float(_tree_sum(nest, outside)) / total


def _initial_reach(stencil, u, v, weight, radii, scratch, nz):
    """The largest extended, center-of-mass and internal radius where u or v
    is nonzero (0.0 where neither is), and the data's weighted norm, leaf by
    leaf on the grid's pairwise tree.

    ``radii`` holds the center-of-mass radius per center-of-mass point and
    the internal radius over one period plus one block; ``scratch`` holds
    three float rows and ``nz`` one bool row of at least a leaf.  A
    non-finite value of u or v raises ValueError.
    """
    rr_com, rr_int = radii
    dims, period = u.ndim, stencil._period
    u, v = u.reshape(-1), v.reshape(-1)
    leaves, nest = _pairwise_tree(u.size)
    reach = [0.0] * 3
    norms = np.zeros((len(leaves), 2))
    for i, (lo, hi) in enumerate(leaves):
        n, phase = hi - lo, lo % period
        absu, absv, terms = (x[:n] for x in scratch)
        for j, (name, x, absx) in enumerate((("u", u, absu), ("v", v, absv))):
            if not np.isfinite(np.max(np.abs(x[lo:hi], out=absx))):
                raise ValueError(f"the initial {name} holds a non-finite value")
            np.multiply(weight[phase:phase + n], x[lo:hi], out=terms)
            norms[i, j] = np.add.reduce(np.multiply(terms, x[lo:hi], out=terms))
        np.greater(np.add(absu, absv, out=absu), 0, out=nz[:n])
        if not nz[:n].any():
            continue
        q0, q1, starts = _runs(period, lo, hi)
        # radii are nonnegative, so the initial 0 never exceeds a nonzero point's
        leaf_max = [np.max(_radius(stencil, range(dims), np.arange(lo, hi), out=absu),
                           where=nz[:n], initial=0.0),
                    np.max(rr_com[q0:q1], where=np.logical_or.reduceat(nz[:n], starts),
                           initial=0.0),
                    np.max(rr_int[phase:phase + n], where=nz[:n], initial=0.0)]
        reach = [max(r, float(m)) for r, m in zip(reach, leaf_max)]
    norm_u, norm_v = _tree_sum(nest, norms)
    return *reach, math.sqrt(float(norm_u) + float(norm_v))


def _on_grid(values, shape):
    """``values`` as a C-contiguous float grid of ``shape``: kept when it is
    one already, else broadcast into a new one."""
    if np.shape(values) == shape:
        return np.require(values, dtype=float, requirements="C")
    grid = np.empty(shape)
    grid[...] = values
    return grid


def solve(config, initial_u, initial_v, t_final):
    """Leapfrog evolution with cone and energy diagnostics.

    ``initial_u`` / ``initial_v`` are callables of the sparse coordinate
    mesh, ``np.meshgrid(*axes, indexing="ij", sparse=True)``; their values
    are broadcast to the grid, and a non-finite one is refused with a
    ValueError before the engine starts.  The extended cone at time t has
    radius data_radius + t + 3h (three cells of stencil halo), where
    data_radius is the largest radius the data reaches.  The center-of-mass
    diagnostic instead measures mass escaping the point-field cylinder: the
    center-of-mass cone times the frozen initial internal extent; data
    extended in the internal directions leaks out of that cylinder even
    though it respects the extended cone.  ``t_final`` must be positive; the
    run takes at least one step.  A grid whose arrays would exceed
    HISTORY_LIMIT_BYTES is refused before any is allocated.

    Besides the engine's four fields, solve holds one grid, the extended
    radius; the weight and the internal mask are kept per period, the
    center-of-mass radius per center-of-mass point, and every diagnostic
    runs leaf by leaf on the grid's pairwise tree in scratch of one leaf.
    """
    if not t_final > 0:
        raise ValueError(f"end time t_final must be positive, got {t_final}")
    n_side, dims = _side(config), config.dims
    _check_size(_SOLVE_BUFFERS * n_side ** dims * 8,
                f"the string-cone solve on {n_side}^{dims} points",
                "use a larger --h, a smaller --extent or fewer dimensions (--dcm, --N)")
    stencil = build_operator(config)
    shape, cm_axes = (n_side,) * dims, config.d_cm - 1
    mesh = np.meshgrid(*stencil.axes, indexing="ij", sparse=True)
    u = _on_grid(initial_u(*mesh), shape)
    v = _on_grid(initial_v(*mesh), shape)
    del mesh
    dt = config.dt()
    steps = max(1, int(round(t_final / dt)))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        steps = int(math.ceil(t_final / dt))
        dt = t_final / steps
    size, period = u.size, stencil._period
    leaves, nest = _pairwise_tree(size)
    scratch = np.empty((3, min(BLOCK, size)))
    flags = np.empty((2, min(BLOCK, size)), dtype=bool)
    weight = gaussian_weight(stencil)
    rr_com = _radius(stencil, range(cm_axes), np.arange(0, size, period))
    rr_int = stencil._periodic(_radius(stencil, range(cm_axes, dims), np.arange(period)))

    data_radius, r_cm0, r_int0, norm0 = _initial_reach(
        stencil, u, v, weight, (rr_com, rr_int), scratch, flags[0])
    halo = 3.0 * config.h
    outside_int = rr_int > r_int0 + halo
    del rr_int
    growth_bound = 2.0 * math.sqrt(2.0 * INTERCEPT + 1.0)

    engine = Leapfrog(stencil, dt, u, v)
    del u, v
    rr_ext = np.empty(size)
    for lo, hi in leaves:
        _radius(stencil, range(dims), np.arange(lo, hi), out=rr_ext[lo:hi])
    com_out = np.empty(len(rr_com), dtype=bool)
    history = ConeHistory()
    for k in range(steps):
        engine.step()
        u, u_next, w = engine.prev, engine.cur, engine.planes
        t = (k + 1) * dt
        energy, norm2 = weighted_energy(stencil, weight, u, u_next, dt, engine.au, w, scratch)
        norm = math.sqrt(norm2)
        if norm0 > 0 and norm > 50.0 * norm0 * math.exp(growth_bound * t):
            raise InstabilityError(
                f"norm {norm:.3e} exceeds the exponential bound at t = {t:.3f}")
        np.greater(rr_com, r_cm0 + t + halo, out=com_out)
        sums, r_ext, r_com = _thresholded_sums(
            stencil, u_next, w, (rr_ext, rr_com), (data_radius + t + halo, com_out, outside_int),
            (scratch[:2], flags))
        history.times.append(t)
        history.energies.append(energy)
        history.leakage_extended.append(cone_leakage(sums[:, 1], sums[:, 0], nest))
        history.leakage_com.append(cone_leakage(sums[:, 2], sums[:, 0], nest))
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
