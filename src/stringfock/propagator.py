"""Fundamental solutions, the propagator kernel, the symplectic form, and
smeared commutator values for the center-of-mass wave operator.

Conventions, fixed once and verified by the test suite:

* the kernel of E = E+ - E- has Cauchy data (0, +delta) at time zero, which
  is what makes <U, F> = sigma(U, EF) and the field commutator come out with
  no stray factors;
* the Pauli-Jordan function returned by :func:`pauli_jordan` is the
  negative of that kernel (data (0, -delta)), the usual commutator-function
  normalization; in 1+1 dimensions at mass zero it equals -sign(t)/2 inside
  the cone.

Every value comes from time-domain leapfrog evolution, which keeps its
support properties for every mass level including the tachyonic one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from ._leapfrog import FlatStencil, Leapfrog
from .virasoro import mass_squared


# ---------------------------------------------------------------------------
# bumps and smearing functions

def bump_profile(s):
    """The standard compactly supported profile exp(-1/(1-s^2)) on |s| < 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    si = s[inside]
    out[inside] = np.exp(-1.0 / (1.0 - si * si))
    return out


# Interval count margin of the shell-transform trapezoid rule.  The rule's
# aliasing error is about |phi_hat(2 pi m - kappa_max)|, and phi_hat(kappa)
# ~ kappa^(-3/4) exp(-sqrt(kappa)) falls below 1e-16 phi_hat(0) near kappa =
# 1100 (2e-17 at 1200), so 2 pi m - kappa_max >= 1200 leaves rounding error.
_ALIAS_MARGIN = 1200.0


def _bump_transform(bump, k, sign):
    """Integral of bump(x) exp(sign i k x) dx at the wavenumbers ``k``.

    A bump is A phi((x - c) / r) with the even profile phi, so its transform
    is A r exp(sign i k c) phi_hat(k r), where phi_hat(kappa) is the real
    integral of phi(s) cos(kappa s) over [-1, 1].  phi_hat is a trapezoid rule
    on the even half [0, 1] with m intervals, m sized from the largest
    kappa so that the aliasing error sits below rounding.
    """
    kappa = np.abs(k) * bump.radius
    m = math.ceil((float(np.max(kappa)) + _ALIAS_MARGIN) / (2.0 * math.pi))
    s = np.arange(m) / m            # s = 1 is left out: phi vanishes there
    w = np.full(m, 2.0 / m)
    w[0] = 1.0 / m
    table = np.multiply.outer(kappa, s)
    phi_hat = np.cos(table, out=table) @ (w * bump_profile(s))
    return bump.amplitude * bump.radius * np.exp(sign * 1j * k * bump.center) * phi_hat


def _positive_finite(label, value):
    """A ValueError naming ``label`` unless ``value`` is positive and finite."""
    if not value > 0:
        raise ValueError(f"{label} must be positive, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value}")


@dataclass(frozen=True)
class Bump1D:
    center: float = 0.0
    radius: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        _positive_finite("bump radius", self.radius)
        for name in ("center", "amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"bump {name} must be finite, got {getattr(self, name)}")

    def __call__(self, x):
        return self.amplitude * bump_profile((np.asarray(x, dtype=float) - self.center)
                                             / self.radius)

    @property
    def lo(self):
        return self.center - self.radius

    @property
    def hi(self):
        return self.center + self.radius

    def shifted(self, delta):
        return replace(self, center=self.center + delta)


@dataclass(frozen=True)
class SpacetimeBump:
    """Product bump b(t) * prod_i b_i(x_i) on d_cm-dimensional spacetime."""

    time: Bump1D
    space: tuple

    @property
    def d_cm(self):
        return 1 + len(self.space)

    def spatial_values(self, axes):
        vals = [b(ax) for b, ax in zip(self.space, axes)]
        out = vals[0]
        for v in vals[1:]:
            out = np.multiply.outer(out, v)
        return out

    def translated(self, dt=0.0, dx=()):
        space = tuple(b.shifted(d) for b, d in zip(self.space, tuple(dx) + (0.0,) * len(self.space)))
        return SpacetimeBump(self.time.shifted(dt), space)

    def time_reversed(self):
        """The bump mirrored through t = 0."""
        t = self.time
        return SpacetimeBump(Bump1D(-t.center, t.radius, t.amplitude), self.space)


@dataclass(frozen=True)
class InternalVector:
    """Exact internal Fock vector over a LevelBasis with a fixed metric."""

    basis: object
    metric: object
    coeffs: dict   # basis index -> int or Fraction

    def by_level(self):
        """{level: {basis index: coeff}} over the nonzero coefficients, levels ascending."""
        out = {}
        for i, c in self.coeffs.items():
            if c:
                out.setdefault(self.basis.levels[i], {})[i] = c
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class SmearingFunction:
    """Spacetime bump tensored with an internal Fock vector."""

    bump: SpacetimeBump
    internal: InternalVector


def internal_level_weights(F, G, a):
    """{r: <F_int, P_r G_int>} over the levels where the pairing is nonzero."""
    from .oscillators import gram
    g = gram(F.internal.basis, F.internal.metric)
    return {float(mass_squared(level, a)): complex(w)
            for level, w in g.level_pairings(F.internal.coeffs, G.internal.coeffs).items()}


# ---------------------------------------------------------------------------
# grids and the leapfrog engine

@dataclass(frozen=True)
class BoxGrid:
    """Uniform box grid over the spatial directions (Dirichlet boundary)."""

    mins: tuple
    h: float
    shape: tuple

    @classmethod
    def covering(cls, intervals, h, pad=0.0):
        _positive_finite("grid spacing h", h)
        mins = []
        shape = []
        for lo, hi in intervals:
            lo -= pad
            hi += pad
            n = int(math.ceil((hi - lo) / h)) + 1
            mins.append(lo)
            shape.append(n)
        return cls(tuple(mins), float(h), tuple(shape))

    @property
    def ndim(self):
        return len(self.shape)

    def axes(self):
        return [self.mins[i] + self.h * np.arange(self.shape[i]) for i in range(self.ndim)]

    def cell_volume(self):
        return self.h ** self.ndim

    def zeros(self):
        return np.zeros(self.shape)


# the share of the lattice stability limit that every default time step takes
CFL_SAFETY = 0.98


def stable_dt(h, dims, r):
    """CFL_SAFETY times the largest time step keeping every lattice mode on
    the unit circle."""
    return CFL_SAFETY * h / math.sqrt(dims + max(r, 0.0) * h * h / 4.0)


class _KleinGordon(FlatStencil):
    """u -> Laplacian(u) - r u on the flat walk of :meth:`FlatStencil.apply`,
    one mass level of ``levels`` per row of a field with a trailing row axis,
    each block in the roll formula's order: -2D u, + (dn + up) per axis, / h^2,
    - r u, so every value and sign of zero is the formula's.

    With several rows r repeats with their period along the flat index, and
    is kept over one period plus one block."""

    def __init__(self, grid, levels):
        self._rows = len(levels)
        super().__init__(grid.shape, 1, self._rows)
        self._r = (float(levels[0]) if self._rows == 1 else
                   np.resize(np.asarray(levels, dtype=float), self._rows + len(self._scratch[0])))
        self._centre, self._h2 = -2.0 * grid.ndim, grid.h * grid.h

    def _block(self, src, dst, a, b):
        core, acc, tmp = src[a:b], dst[a:b], self._scratch[0][:b - a]
        np.multiply(core, self._centre, out=acc)
        for stride in self._strides:
            np.add(src[a - stride:b - stride], src[a + stride:b + stride], out=tmp)
            np.add(acc, tmp, out=acc)
        np.divide(acc, self._h2, out=acc)
        r = self._r
        if self._rows > 1:
            phase = a % self._rows
            r = r[phase:phase + b - a]
        np.multiply(core, r, out=tmp)
        np.subtract(acc, tmp, out=acc)


def _time_nodes(t0, dt, steps):
    """The times t0 + k dt, k = 0 .. steps, at which a sweep holds its fields."""
    return t0 + np.arange(steps + 1) * dt


class _SampledBump:
    """The smear hook of a sweep with time nodes ``times``: it accumulates
    dt * h^D * sum f(t, x) u(t, x) for each test bump f of the list ``bumps``
    into ``totals``, in the order of ``bumps``.

    Bumps with one spatial factor form a group, which samples it once and,
    on a step where a member's time factor is nonzero, forms the grid sum
    S = sum f_space u once for all its members.  The product is written only
    between the first and last nonzero of the spatial factor, into a buffer
    held at +0.0 elsewhere, and summed over the whole grid in NumPy's
    pairwise order.  For a finite field the whole-grid product's summands
    there are +-0.0, and the sign of a zero summand changes no nonzero
    partial sum, so S differs at most in the sign of a zero, which leaves a
    total (it starts at +0.0) unchanged: every total is the whole-grid
    product's bit for bit.  Each member keeps its time factor over the steps
    from its first to its last nonzero value only.

    A group also keeps the axis-0 planes its product range lies on, and
    skips its read on a step where they do not meet the sweep's window
    ``planes``, off which the field is +-0.0.  The skipped S is then +-0.0,
    and a total, which starts at +0.0 and so is never -0.0 (a sum is -0.0
    only when both terms are), is left unchanged by adding it: the totals
    keep their bits, and a test bump that the source's domain of dependence
    has not reached reads nothing.
    """

    label = "the smeared sum"   # names the hook in a sweep's error

    def __init__(self, bumps, grid, dt, times):
        self.scale = dt * grid.cell_volume()
        self.totals = [0.0] * len(bumps)
        by_space = {}
        for i, bump in enumerate(bumps):
            by_space.setdefault(bump.space, []).append(i)
        axes = grid.axes()
        self._depth = grid.shape[0]
        plane = math.prod(grid.shape[1:])
        # (first, stop, axis-0 planes of the range, spatial on its range, range,
        #  product, members)
        self._groups = []
        for members in by_space.values():
            spatial = bumps[members[0]].spatial_values(axes)
            support = np.flatnonzero(spatial)
            if not len(support):
                continue    # its members' totals stay 0.0
            active = []     # (bump index, first step, stop step, time factor on them)
            for i in members:
                amps = bumps[i].time(times)
                steps = np.flatnonzero(amps)
                if len(steps):
                    first, stop = int(steps[0]), int(steps[-1]) + 1
                    active.append((i, first, stop, amps[first:stop].tolist()))
            if active:
                span = slice(int(support[0]), int(support[-1]) + 1)
                product = np.zeros_like(spatial)
                planes = (span.start // plane, (span.stop - 1) // plane + 1)
                self._groups.append((min(m[1] for m in active), max(m[2] for m in active),
                                     planes, spatial.reshape(-1)[span].copy(), span, product,
                                     active))

    def __call__(self, k, t, u, planes):
        w_lo, w_hi, _ = planes.indices(self._depth)
        for first, stop, (p_lo, p_hi), spatial, span, product, members in self._groups:
            if first <= k < stop:
                if p_hi <= w_lo or w_hi <= p_lo:
                    continue    # the field is +-0.0 on the group's planes
                s = None
                for i, lo, hi, amps in members:
                    if lo <= k < hi:
                        amp = amps[k - lo]
                        if amp != 0.0:
                            if s is None:   # a row's reshape is a strided view, no copy
                                np.multiply(spatial, u.reshape(-1)[span],
                                            out=product.reshape(-1)[span])
                                s = float(np.add.reduce(product, axis=None))
                            self.totals[i] += self.scale * amp * s


@dataclass
class CauchyData:
    """Field and its time derivative on a spatial grid at one time."""

    grid: BoxGrid
    t0: float
    u: np.ndarray
    v: np.ndarray

    def copy(self):
        return CauchyData(self.grid, self.t0, self.u.copy(), self.v.copy())


class _CauchyAt:
    """The sweep hook that catches a row's Cauchy data at step ``k``: the field
    and its time, and the centred derivative (u_{k+1} - u_{k-1}) / (2 dt), so
    the row it reads runs to step k + 1.  Uncaught, the data is zero."""

    def __init__(self, grid, k, dt):
        self.grid, self.k, self.dt = grid, k, dt
        self.u = self.v = grid.zeros()

    def __call__(self, k, t, u, planes):
        if k == self.k - 1:
            self._before = u.copy()
        elif k == self.k:
            self.t0, self.u = t, u.copy()
        elif k == self.k + 1:
            self.v = (u - self._before) / (2.0 * self.dt)

    def cauchy(self):
        return CauchyData(self.grid, self.t0, self.u, self.v)


@dataclass(frozen=True)
class _Row:
    """One row of a sweep: mass level ``r``, ``steps`` steps of ``dt`` from
    ``t0``, the source (a SpacetimeBump or None) whose time factor drives it,
    and the hooks that read it."""

    r: float
    dt: float
    t0: float
    steps: int
    source: object = None
    hooks: tuple = ()


def _sweep(grid, rows, u, v):
    """Advance every row of ``rows`` its own steps of leapfrog from the Cauchy
    data (u, v) at its t0; ``u`` and ``v`` are shaped like the grid with a
    trailing axis of one entry per row.

    Every ufunc call of a step serves all rows, and each element goes
    through a one-row sweep's operations in their order, with its row's r
    and dt: every row is the one-row sweep's bit for bit.  The rows' sources
    share one spatial factor, which each row scales by its source's time
    factor on its own time nodes.  At step k each hook of a row with k <=
    its steps is called, rows in order, as hook(k, t, u, planes), for every
    held field including the initial one: t is the row's t0 + k dt, ``u``
    the row's field (a view that later steps overwrite), and ``planes``,
    the engine's window, a slice of axis-0 planes off which ``u`` is +-0.0;
    slice(None) is always a valid window.  A row past its last step is held
    at zero.  The engine adopts ``u``.  Hooks are the only readers of a
    sweep, which returns nothing: :class:`_CauchyAt` catches Cauchy data.

    Raises FloatingPointError, naming the row's r and dt, at the step where
    the engine's arithmetic on the row or one of its hooks (then named)
    overflows or makes a NaN, and when the row's field after its last step
    is not finite: NaN data sets no flag, but a NaN stays where it is under
    leapfrog, so this catches one that appeared at any step.
    """
    sources = [row.source for row in rows if row.source is not None]
    if any(source.space != sources[0].space for source in sources):
        raise ValueError("the rows of a sweep need sources with one spatial factor")
    spatial = sources[0].spatial_values(grid.axes()) if sources else None
    steps = max(row.steps for row in rows)
    times, amps = [], []
    for row in rows:
        nodes = _time_nodes(row.t0, row.dt, row.steps)
        times.append(nodes.tolist())
        drive = [0.0] * (row.steps + 1)
        if row.source is not None:
            drive = row.source.time(nodes).tolist()
        if row.steps < steps:   # past its last step a row is driven by nothing
            drive = drive[:row.steps] + [0.0] * (steps + 1 - row.steps)
        amps.append(drive)
    amps = list(zip(*amps))     # per step, one amplitude per row
    dt = rows[0].dt
    if len(rows) > 1:
        dt = np.broadcast_to([row.dt for row in rows], u.shape).copy()
    engine, done = None, 0
    failed = None   # the failing row, and what failed
    try:
        with np.errstate(over="raise", invalid="raise"):
            engine = Leapfrog(_KleinGordon(grid, [row.r for row in rows]), dt, u, v, spatial)
            del u, v
            for k in range(steps + 1):
                if k:
                    engine.step(amps[k - 1])
                    done = k
                for n, row in enumerate(rows):
                    if k > row.steps:
                        continue
                    field = engine.cur[..., n]
                    for hook in row.hooks:
                        try:
                            hook(k, times[n][k], field, engine.planes)
                        except FloatingPointError as err:
                            label = getattr(hook, "label", "a sweep hook")
                            failed = n, f"{label} failed at step {k} ({err})"
                            raise
                    if k == row.steps:
                        if not np.isfinite(field).all():
                            failed = n, f"the field is not finite after {k} leapfrog steps"
                            raise FloatingPointError
                        if k < steps:
                            field[...] = 0.0
                            engine.prev[..., n] = 0.0
    except FloatingPointError:
        if failed is None:      # the engine's arithmetic: the first row it made non-finite
            held = (u, v) if engine is None else (engine.cur, engine.prev, engine.au,
                                                  engine._spare)
            bad = [n for n in range(len(rows))
                   if not all(np.isfinite(x[..., n]).all() for x in held)]
            n = bad[0] if bad else 0
            failed = n, f"the field is not finite after {min(done, rows[n].steps)} leapfrog steps"
        n, what = failed
        raise FloatingPointError(f"{what} at r = {rows[n].r}, dt = {rows[n].dt}") from None


def evolve_cauchy(data, r, t_target):
    """Evolve Cauchy data to ``t_target``, leapfrog; backward by a negative dt.

    The time step, at most :func:`stable_dt` in size, divides the interval
    exactly.  One one-row sweep runs a step past the target, where a
    :class:`_CauchyAt` catches the data with its centred time derivative.
    """
    span = t_target - data.t0
    if span == 0.0:
        return data.copy()      # the engine adopts and overwrites u
    steps = max(1, int(math.ceil(abs(span) / stable_dt(data.grid.h, data.grid.ndim, r)
                                 - 1e-12)))
    catch = _CauchyAt(data.grid, steps, span / steps)
    _sweep(data.grid, [_Row(r, span / steps, data.t0, steps + 1, hooks=(catch,))],
           data.u.copy()[..., None], data.v[..., None])
    return catch.cauchy()


# ---------------------------------------------------------------------------
# retarded / advanced machinery

# retarded_history keeps every time slice of its sweep, and pauli_jordan
# holds a fixed number of grid-sized buffers; both refuse to allocate more
# than this many bytes
HISTORY_LIMIT_BYTES = 1 << 30


def _check_size(n_bytes, what, remedy):
    """ValueError naming both numbers when ``what`` needs more than
    HISTORY_LIMIT_BYTES; ``remedy`` says how to shrink it."""
    if n_bytes > HISTORY_LIMIT_BYTES:
        raise ValueError(f"{what} needs {n_bytes} bytes, above the limit of "
                         f"{HISTORY_LIMIT_BYTES} bytes; {remedy}")


def _retarded_span(bump, dt, t_end):
    """Start time and step count of a retarded sweep that reaches t_end."""
    t_start = bump.time.lo - 2.0 * dt
    return t_start, max(1, int(math.ceil((t_end - t_start) / dt)))


def smear_E_scalar_multi(f_bumps, g_bump, levels, grid):
    """[ integral f_i (E g) ] for several test bumps against one source, one
    row per mass level of the ascending ``levels``.

    The retarded solution is a quiescent-past sweep, and the advanced one
    the retarded solution of the time-reversed source, v_adv[g](t) =
    v_ret[g reversed](-t), smeared against the reversed tests.  A source even
    in time is its own reversal: its two sweeps have the same start, step,
    source and zero data, and a step depends only on those before it, so one
    sweep, run to the later end time with both sets of tests hooked, gives
    both halves bit for bit.  Every level's sweeps, each with its own time
    step, start and step count, are the rows of one :func:`_sweep`, in
    ascending r, the retarded row first.
    """
    n = len(f_bumps)
    reversed_tests = [f.time_reversed() for f in f_bumps]
    g_reversed = g_bump.time_reversed()
    if g_reversed == g_bump:
        halves = [([*f_bumps, *reversed_tests], g_bump)]
    else:
        halves = [(f_bumps, g_bump), (reversed_tests, g_reversed)]
    rows = []
    for r in levels:
        dt = stable_dt(grid.h, grid.ndim, r)
        for tests, source in halves:
            t_end = max([f.time.hi for f in tests] + [source.time.hi]) + 2.0 * dt
            t_start, steps = _retarded_span(source, dt, t_end)
            acc = _SampledBump(tests, grid, dt, _time_nodes(t_start, dt, steps))
            rows.append(_Row(r, dt, t_start, steps, source, (acc,)))
    _sweep(grid, rows, np.zeros(grid.shape + (len(rows),)), np.zeros(grid.shape + (len(rows),)))
    results = np.zeros((len(levels), n))
    for level, at in enumerate(range(0, len(rows), len(halves))):
        totals = [t for row in rows[at:at + len(halves)] for t in row.hooks[0].totals]
        for sign, half in ((1.0, totals[:n]), (-1.0, totals[n:])):
            for i, total in enumerate(half):
                results[level, i] += sign * total
    return results


# ---------------------------------------------------------------------------
# the spec-level operations

@dataclass(frozen=True)
class EvaluatorControls:
    """Quadrature and lattice controls for pointwise kernel evaluation."""

    xmax: float = 8.0
    h: float = 0.01
    width: float = 0.08     # mollification width of the initial delta

    def __post_init__(self):
        for name in ("xmax", "h", "width"):
            _positive_finite(name, getattr(self, name))


def _mollifier(grid, width):
    """The product of unit-integral bumps of radius ``width`` on the grid axes."""
    out = None
    for ax in grid.axes():
        b = bump_profile(ax / width)
        scale = np.trapezoid(b, ax)
        b = b / scale
        out = b if out is None else np.multiply.outer(out, b)
    return out


# grid-sized arrays pauli_jordan holds at once: the engine's four buffers and
# the initial time derivative as the engine starts, and one more that bounds
# the operator's scratch, a single block of at most BLOCK points
_SWEEP_BUFFERS = 6


def pauli_jordan(r, d_cm, times, points, controls=None):
    """Mollified commutator function at mass level r on ``times`` x ``points``.

    One sweep from the data (0, -delta_width) at t = 0 to max |t| holds only
    the slices around the current output time, on the nodes around the
    points: each value interpolates linearly in time between the two slices
    around |t|, then in space, and values at t < 0 are the negatives of those
    at -t.  ``points`` holds one (d_cm - 1)-vector per row (scalars when d_cm
    = 2).  Returns an array shaped (len(times), len(points)).  Raises
    ValueError, before allocating anything grid-sized, when ``points`` is
    shaped otherwise, when a time or point is not finite, when the buffers
    would exceed HISTORY_LIMIT_BYTES, or when the data's reflection off the
    Dirichlet wall could reach an output point on the lattice: when (max |t|
    + dt) h/dt + h >= 2 xmax - width - max_i |x_i|.  As h/dt > 1, this
    refuses every run the continuum bound, max |t| + dt >= 2 xmax - width -
    max_i |x_i|, refuses.
    """
    if d_cm < 2:
        raise ValueError(f"d_cm must be at least 2, got {d_cm}")
    r = float(r)
    c = controls or EvaluatorControls()
    dims = d_cm - 1
    times = [float(t) for t in times]
    points = np.asarray(points, dtype=float)
    if points.ndim == 1 and (dims == 1 or not len(points)):
        points = points.reshape(-1, dims)
    if points.ndim != 2 or points.shape[1] != dims:
        raise ValueError(f"pauli_jordan's points at d_cm = {d_cm} must be shaped (n, {dims})"
                         f"{' or (n,)' if dims == 1 else ''}, got {points.shape}")
    for name, values in (("times", times), ("points", points)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"pauli_jordan's {name} must be finite")
    grid = BoxGrid.covering([(-c.xmax, c.xmax)] * dims, c.h)
    _check_size(_SWEEP_BUFFERS * math.prod(grid.shape) * 8,
                "the commutator-function sweep", "use a smaller xmax or a larger h")
    dt = stable_dt(c.h, dims, r)
    out = np.empty((len(times), len(points)))
    if not len(points):
        return out
    # the data lies within width of the origin and each wall at least xmax
    # from it, so the data's mirror image reaches a point x no earlier than
    # t = 2 xmax - width - |x_i| in the continuum.  The lattice carries a
    # signal one cell per step, at speed h / dt > 1, and the interpolation
    # reads one slice past |t| and one node past x.
    t_max = max((abs(t) for t in times), default=0.0)
    reach = 2.0 * c.xmax - c.width - float(np.max(np.abs(points)))
    travel = (t_max + dt) * c.h / dt + c.h
    if travel >= reach:
        raise ValueError(f"--tmax {t_max:g} lets the wall reflection reach an output point: "
                         f"(max |t| + dt) h/dt + h = {travel:g} is not below 2 xmax - width - "
                         f"max |x_i| = {reach:g} at --xmax {c.xmax:g}; lower --tmax or "
                         f"raise --xmax")
    rows = {}       # slice index k -> the output rows between slices k and k + 1
    for i, t in enumerate(times):
        rows.setdefault(int(math.floor(abs(t) / dt)), []).append(i)
    # the cell corners, lower node first and axis 0 outermost; per axis, each
    # point's corner nodes lo + bit (ax[lo] <= x < ax[lo + 1], clipped to the end
    # cells) and weights 1 - y or y.  Off the grid reads 0.0
    bits = np.array(list(itertools.product((0, 1), repeat=dims))).T[..., None]
    index, factors = [], []
    off = np.zeros(len(points), dtype=bool)
    for ax, xs, bit in zip(grid.axes(), points.T, bits):
        lo = np.clip(np.searchsorted(ax, xs, side="right") - 1, 0, len(ax) - 2)
        y = (xs - ax[lo]) / (ax[lo + 1] - ax[lo])
        index.append(lo + bit)
        factors.append(np.where(bit, y, 1.0 - y))
        off |= (xs < ax[0]) | (xs > ax[-1])
    index = tuple(index)
    # each corner's weight in SciPy's order: v w0 w1 in 2-D (its Cython
    # kernel), else v ((1 w0) w1 ...) (its hypercube loop)
    if dims != 2:
        factors = [reduce(np.multiply, factors)]
    before = []     # (t_k, u_k at the corners) while some row still needs slice k

    def interpolate(j, t, u, planes):
        if j - 1 in rows:
            t_k, u_k = before.pop()
            u_j = u[index]
            for i in rows[j - 1]:
                frac = (abs(times[i]) - t_k) / dt
                terms = reduce(np.multiply, factors, (1.0 - frac) * u_k + frac * u_j)
                value = reduce(np.add, terms, 0.0)      # from 0.0 in corner order
                value[off] = 0.0
                out[i] = (-1.0 if times[i] < 0 else 1.0) * value
        if j in rows:
            before.append((t, u[index]))

    steps = int(math.ceil((t_max + 2 * dt) / dt))
    _sweep(grid, [_Row(r, dt, 0.0, steps, hooks=(interpolate,))], grid.zeros()[..., None],
           -_mollifier(grid, c.width)[..., None])
    return out


@dataclass
class LevelComponent:
    r: float
    data: CauchyData


@dataclass
class RegularSolution:
    """Solution with compactly supported Cauchy data: the internal vector,
    and one scalar field per level it touches."""

    internal: InternalVector
    components: dict    # level -> LevelComponent, levels ascending


def apply_E(F, a, grid):
    """E F as a regular solution: retarded minus advanced, per mass component.

    Cauchy data is returned at t = 0; the source bump may straddle zero.  The
    advanced half is the retarded solution of the time-reversed source, its
    time derivative negated.  Every level's two halves are rows of one
    :func:`_sweep`, each quiescent below its source, started on the time grid
    through t = 0 and caught there by a :class:`_CauchyAt`; a source that
    starts after the first step leaves its half zero at t = 0, with no row.
    """
    rows, halves = [], {}
    for level in F.internal.by_level():
        r = float(mass_squared(level, a))
        dt = stable_dt(grid.h, grid.ndim, r)
        halves[level] = r, []
        for bump in (F.bump, F.bump.time_reversed()):
            steps = int(math.ceil(-(bump.time.lo - 2.0 * dt) / dt))
            catch = _CauchyAt(grid, steps, dt)
            if bump.time.lo <= dt:
                rows.append(_Row(r, dt, -steps * dt, steps + 1, bump, (catch,)))
            halves[level][1].append(catch)
    if rows:
        _sweep(grid, rows, np.zeros(grid.shape + (len(rows),)),
               np.zeros(grid.shape + (len(rows),)))
    return RegularSolution(F.internal, {
        level: LevelComponent(r, CauchyData(grid, 0.0, ret.u - adv.u, ret.v + adv.v))
        for level, (r, (ret, adv)) in halves.items()})


def _paired_components(U, other):
    """(level, U's component, w) for each level where w, the exact pairing
    <U_int, P_level other> with the internal vector ``other`` as a float, is
    nonzero; levels ascending."""
    from .oscillators import gram
    g = gram(U.internal.basis, U.internal.metric)
    for level, w in g.level_pairings(U.internal.coeffs, other.coeffs).items():
        w = float(w)
        if w != 0.0:
            yield level, U.components[level], w


def symplectic_form(U, V, t=0.0):
    """sigma(U, V) at time t: the conserved pairing of two regular solutions.

    Internal Fock pairing through the exact Gram, spatial quadrature on the
    common grid.  Exactly conserved by the lattice flow for matching grids,
    up to roundoff.
    """
    total = 0.0
    for level, cu, w in _paired_components(U, V.internal):
        cv = V.components[level]
        du = evolve_cauchy(cu.data, cu.r, t)
        dv = evolve_cauchy(cv.data, cv.r, t)
        integrand = du.u * dv.v - du.v * dv.u
        total += w * float(np.sum(integrand)) * du.grid.cell_volume()
    return total


def pair_solution_with_test(U, F):
    """<U, F>: spacetime integral of the solution against the test function."""
    total = 0.0
    for _, cu, w in _paired_components(U, F.internal):
        dte = stable_dt(cu.data.grid.h, cu.data.grid.ndim, cu.r)
        start = evolve_cauchy(cu.data, cu.r, F.bump.time.lo - dte)
        steps = int(math.ceil((F.bump.time.hi - start.t0) / dte)) + 2
        acc = _SampledBump([F.bump], cu.data.grid, dte, _time_nodes(start.t0, dte, steps))
        _sweep(start.grid, [_Row(cu.r, dte, start.t0, steps, hooks=(acc,))],
               start.u[..., None], start.v[..., None])
        total += w * acc.totals[0]
    return total


def smeared_commutator(F, G, a, h=0.02):
    """-i <F, E G>: the smeared field commutator value.

    Factorizes over mass levels: exact internal pairing times the scalar
    smear of the propagator kernel between the spacetime bumps.
    """
    weights = internal_level_weights(F, G, a)
    if not weights:
        return complex(0.0, 0.0)
    grid = _grid_for_bumps([F.bump, G.bump], h, pad=1.0)
    levels = sorted(weights)
    smears = smear_E_scalar_multi([F.bump], G.bump, levels, grid)
    total = 0.0 + 0.0j
    for r, smear in zip(levels, smears):
        total += weights[r] * float(smear[0])
    return -1j * total


def _grid_for_bumps(bumps, h, pad):
    # the retarded/advanced sweeps run across the union of all time windows,
    # so waves can spread by the full span in either spatial direction
    dims = bumps[0].d_cm - 1
    t_lo = min(b.time.lo for b in bumps)
    t_hi = max(b.time.hi for b in bumps)
    span = t_hi - t_lo
    intervals = []
    for ax in range(dims):
        lo = min(b.space[ax].lo for b in bumps)
        hi = max(b.space[ax].hi for b in bumps)
        intervals.append((lo - span, hi + span))
    return BoxGrid.covering(intervals, h, pad=pad)


def separation_kind(f_bump, g_bump):
    """'spacelike' / 'timelike' / 'mixed' classification of two bump supports."""
    dt_min, dt_max = _interval_gap_and_span(f_bump.time, g_bump.time)
    gaps = []
    spans = []
    for bf, bg in zip(f_bump.space, g_bump.space):
        gap, span = _interval_gap_and_span(bf, bg)
        gaps.append(gap)
        spans.append(span)
    # worst-case spatial distance bounds over the product supports
    dist_min = math.sqrt(sum(g * g for g in gaps))
    dist_max = math.sqrt(sum(s * s for s in spans))
    if dist_min > dt_max:
        return "spacelike"
    if dist_max < dt_min:
        return "timelike"
    return "mixed"


def _interval_gap_and_span(b1, b2):
    lo1, hi1, lo2, hi2 = b1.lo, b1.hi, b2.lo, b2.hi
    gap = max(0.0, max(lo1, lo2) - min(hi1, hi2))
    span = max(hi1, hi2) - min(lo1, lo2)
    return gap, span


@dataclass
class LocalityRow:
    separation: float
    kind: str
    commutator_abs: float
    control_magnitude: float
    per_level: dict


def locality_scan(separations, timelike_offsets, levels, F_int, G_int, a,
                  bump_radius=0.5, h=0.004):
    """Smeared commutator magnitudes across spacelike and timelike placements.

    The source bump sits at the origin; spacelike test bumps are displaced
    spatially by each separation, timelike controls are displaced in time.
    Returns (rows, control_magnitude).  A ValueError, before any sweep, when
    no separation places its bump spacelike to the source, when there is no
    timelike offset to give the control, or when a mass level is listed
    twice.
    """
    g_bump = SpacetimeBump(Bump1D(0.0, bump_radius), (Bump1D(0.0, bump_radius),))
    placements = []
    for s in separations:
        placements.append((float(s), g_bump.translated(dx=(float(s),))))
    for t_off in timelike_offsets:
        placements.append((float(t_off), g_bump.translated(dt=float(t_off))))
    f_bumps = [b for _, b in placements]
    kinds = [separation_kind(fb, g_bump) for fb in f_bumps]
    if "spacelike" not in kinds:
        raise ValueError(f"no separation in {[float(s) for s in separations]} is spacelike "
                         f"to the source at bump radius {bump_radius}")
    if not timelike_offsets:
        raise ValueError("no timelike offset: the scan needs a timelike control")
    wanted = sorted(float(r) for r in levels)
    for r, following in zip(wanted, wanted[1:]):
        if r == following:
            raise ValueError(f"mass level r = {r} is listed twice")
    grid = _grid_for_bumps(f_bumps + [g_bump], h, pad=1.2)

    weights = internal_level_weights(SmearingFunction(g_bump, F_int),
                                     SmearingFunction(g_bump, G_int), a)
    for r in wanted:
        if r not in weights:
            raise ValueError(f"internal vectors give no weight at mass level r = {r}")

    per_level = dict(zip(wanted, smear_E_scalar_multi(f_bumps, g_bump, wanted, grid)))

    totals = [abs(sum(weights[r] * per_level[r][i] for r in wanted))
              for i in range(len(placements))]
    control = 0.0
    for kind, tot in zip(kinds, totals):
        if kind != "spacelike":
            control = max(control, tot)
    rows = [LocalityRow(separation=s, kind=kind, commutator_abs=tot,
                        control_magnitude=control,
                        per_level={r: float(per_level[r][i]) for r in wanted})
            for i, ((s, _), kind, tot) in enumerate(zip(placements, kinds, totals))]
    return rows, control


def fourth_order_residual(times, history, h, dt, r, bump, grid):
    """Independent wave-operator residual of a recorded evolution.

    Applies fourth-order centered stencils in time and space to the stored
    history, subtracts the source, and returns the max-abs residual over the
    interior.  A second-order-accurate solution leaves an O(h^2) residual
    here, so halving the spacing should quarter the result.
    """
    u = np.asarray(history)
    nt = u.shape[0]
    if nt < 5:
        raise ValueError("need at least five stored time slices")
    c = (-1.0, 16.0, -30.0, 16.0, -1.0)

    def second_diff(arr, axis, step):
        out = np.zeros_like(arr)
        for off, w in zip((-2, -1, 0, 1, 2), c):
            out += w * np.roll(arr, -off, axis=axis)
        return out / (12.0 * step * step)

    utt = second_diff(u, 0, dt)
    lap = np.zeros_like(u)
    for ax in range(1, u.ndim):
        lap += second_diff(u, ax, h)
    res = utt - lap + r * u
    axes = grid.axes()
    spatial = bump.spatial_values(axes)
    tvals = bump.time(np.asarray(times))
    res = res - tvals.reshape((-1,) + (1,) * (u.ndim - 1)) * spatial[None, ...]
    interior = tuple(slice(2, -2) for _ in range(u.ndim))
    return float(np.max(np.abs(res[interior])))


def retarded_history(bump, r, grid, t_end):
    """Full recorded retarded solve, for residual and support diagnostics.

    Returns (times, history) with one slice per held field; raises
    ValueError, before allocating, past HISTORY_LIMIT_BYTES.
    """
    dt = stable_dt(grid.h, grid.ndim, r)
    t_start, steps = _retarded_span(bump, dt, t_end)
    _check_size((steps + 1) * math.prod(grid.shape) * 8,
                f"the retarded history up to t = {t_end:g}",
                "use a smaller or coarser grid, or a smaller t_end")
    times = np.empty(steps + 1)
    history = np.empty((steps + 1,) + grid.shape)

    def record(k, t, u, planes):
        times[k] = t
        history[k] = u

    _sweep(grid, [_Row(r, dt, t_start, steps, bump, (record,))], grid.zeros()[..., None],
           grid.zeros()[..., None])
    return times, history
