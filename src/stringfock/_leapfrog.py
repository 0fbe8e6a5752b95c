"""The leapfrog engine shared by the center-of-mass and the string light-cone
solvers, and the flat stencil walk both spatial operators run on.

One step is u_next = (2 u - u_prev) + dt^2 (A u + s) on a box whose wall
layer is held at zero (Dirichlet).  The spatial operator A is a
:class:`FlatStencil`, whose ``apply(u, out)`` writes A u on the interior
points of ``out`` and finite values on its wall entries: the engine zeroes
the wall of every field it makes.  On the flat C-order index the neighbours
of point k along an axis sit at k -/+ the axis's stride, so the interior
planes of axis 0 are one range, walked in cache-sized blocks of contiguous
operands that NumPy need not buffer, with no wrap-around copy as ``np.roll``
makes.

A field may carry a trailing row axis: several grids interleaved, one per
row, each stepped with its own coefficients (the center-of-mass solver's
mass levels).  The stencil's strides step over whole rows, so no row reads
another, and a coefficient that differs by row is an array of one value
per element, so every ufunc call of a step serves all rows while each
element goes through the one-row step's operations in its order.

A nearest-neighbour step moves a nonzero value at most one cell, the
discrete domain of dependence of Courant, Friedrichs and Lewy.  So the
engine keeps the window ``planes`` of axis-0 planes that may hold a
nonzero value: it starts at the planes where the field, the field one
step back or the source's spatial factor is nonzero, grows by one plane on
each side per step, clamped to the grid, and every pass of a step runs on
it alone.  The operator gets the window's planes with one more on each
side, a box whose interior is the window's (less the grid's wall planes),
so no operator knows of the window.  Off the window every buffer holds
+0.0, which is what the full-grid step writes there, so the fields are
bit-identical to it; once the data fills the grid, the window is the whole
grid.

Every step runs in place on buffers allocated once, so a large grid pays
no grid-sized allocation or page fault per step.  Each elementwise
expression keeps the operation order of the plain formula, so results are
bit-identical to it.
"""

from __future__ import annotations

import math

import numpy as np

# grid points per block of the flat stencil and diagnostic passes: a block's
# handful of float operands (256 KiB each) stays in a 2 MiB L2 cache
BLOCK = 1 << 15


def _plane_blocks(x, planes):
    """Slices of at most BLOCK flat indices covering the axis-0 ``planes`` of ``x``."""
    lo, hi, _ = planes.indices(len(x))
    plane = x.size // len(x)
    stop = hi * plane
    return [slice(a, min(a + BLOCK, stop)) for a in range(lo * plane, stop, BLOCK)]


class FlatStencil:
    """A nearest-neighbour operator on a grid of ``shape``, or on ``rows`` such
    grids along a trailing row axis.  A subclass's ``_block(src, dst, a, b)``
    writes it on the flat points a .. b-1 of ``dst``, reading ``src`` there and
    -/+ each of ``_strides`` away, with ``buffers`` arrays of one block in
    ``_scratch``."""

    def __init__(self, shape, buffers, rows=1):
        self._strides = tuple(rows * math.prod(shape[ax + 1:]) for ax in range(len(shape)))
        size = min(BLOCK, max(shape[0] - 2, 0) * self._strides[0])
        self._scratch = tuple(np.empty(size) for _ in range(buffers))

    def apply(self, u, out):
        """A u into ``out``, a C-contiguous array shaped like ``u``; returns ``out``.

        ``u`` is the grid or a run of its axis-0 planes.  Every plane of axis 0
        but the first and the last is written whole, so its wall entries
        receive finite values that mean nothing; callers zero them
        (``zero_boundary``) or multiply them by a field that is zero there.
        The first and last planes are not written.
        """
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        # ravel copies a strided u and views the checked out
        src, dst, plane = u.ravel(), out.ravel(), self._strides[0]
        stop = (len(u) - 1) * plane
        for a in range(plane, stop, BLOCK):     # no min(): 1-D grids make many short calls
            self._block(src, dst, a, a + BLOCK if a + BLOCK < stop else stop)
        return out


def zero_boundary(u, dims, planes=slice(None)):
    """Zero the wall layer of the ``dims`` grid axes of ``u`` on its axis-0
    planes ``planes``; a trailing row axis past them is no wall."""
    lo, hi, _ = planes.indices(len(u))
    if lo >= hi:
        return
    if lo == 0:
        u[0] = 0.0
    if hi == len(u):
        u[-1] = 0.0
    window = u[lo:hi]
    for ax in range(1, dims):
        face = (slice(None),) * ax
        window[face + (0,)] = 0.0
        window[face + (-1,)] = 0.0


def _nonzero_planes(*arrays):
    """The smallest slice of axis-0 planes holding every nonzero value of
    ``arrays`` (None entries skipped); empty, slice(0, 0), when all are zero."""
    lo, hi = len(arrays[0]), 0
    for x in arrays:
        if x is not None:
            rows = np.flatnonzero(np.any(x.reshape(len(x), -1), axis=1))
            if len(rows):
                lo, hi = min(lo, int(rows[0])), max(hi, int(rows[-1]) + 1)
    return slice(lo, hi) if lo < hi else slice(0, 0)


def _on(coeff, w):
    """A per-element coefficient on the axis-0 planes ``w``; a scalar as it is."""
    return coeff[w] if isinstance(coeff, np.ndarray) else coeff


class Leapfrog:
    """Three rotating field buffers, the step's A u, and the window of planes.

    The engine starts from the Cauchy data (u, v) at t0: it computes
    u(t0 - dt) by a second-order Taylor step and adopts ``u`` as one of its
    buffers, writing into it.  ``dt`` is a float, or an array shaped like
    ``u`` of one time step per element (each row's, on a field with rows).
    ``source``, when given, is the spatial factor, shaped like one row of a
    field with rows, of a source term whose amplitude in each row each step
    names.  :meth:`step` is the one method that advances it.  After a step,
    ``prev`` and ``cur`` hold the fields before and after it, ``au`` holds A
    applied to ``prev`` (plus the source, in the rows where its amplitude was
    nonzero) on the interior points of ``planes``, and every buffer holds
    +0.0 off ``planes``, but for the adopted ``u``, which keeps the caller's
    zeros (-0.0 among them) until its first write.
    """

    def __init__(self, op, dt, u, v, source=None):
        self.op = op
        self.source = source
        self._dims = len(op._strides)
        self._dt2 = dt * dt
        self.cur = np.require(u, dtype=float, requirements="CW")
        self.au = np.zeros_like(self.cur)
        op.apply(self.cur, self.au)
        # u(t0 - dt) = u - dt v + (dt^2 / 2) A u, A u taken before the other buffers exist
        self.prev = np.multiply(v, dt)
        np.subtract(self.cur, self.prev, out=self.prev)
        self._spare = np.multiply(self.au, 0.5 * dt * dt)
        np.add(self.prev, self._spare, out=self.prev)
        zero_boundary(self.prev, self._dims)
        # A u served the Taylor step alone; steps write these two on the window only
        self.au.fill(0.0)
        self._spare.fill(0.0)
        # the caller's zeros may be -0.0, where a full-grid step would write +0.0
        self._adopted = self.cur
        self.planes = _nonzero_planes(self.cur, self.prev, source)

    def _grown(self, w):
        """The window ``w`` with one more plane on each side, clamped to the grid;
        the empty window, slice(0, 0), stays empty."""
        return slice(max(w.start - 1, 0), min(w.stop + 1, len(self.cur))) if w.stop else w

    def step(self, amps=()):
        """Advance one step, adding ``amps[l]`` times the source to row l's A u
        where it is nonzero: u_next = (2 u - u_prev) + s into ``_spare`` on the
        grown window, with s = dt^2 (A u + amp * source) written over the spent
        u_prev."""
        self.planes = w = self._grown(self.planes)
        au, nxt, prev = self.au, self._spare, self.prev
        if w.stop:      # the empty window holds no plane to apply A on
            box = self._grown(w)
            self.op.apply(self.cur[box], au[box])
        if prev is self._adopted:   # the full-grid step writes +0.0 off the window
            prev[:w.start] = 0.0
            prev[w.stop:] = 0.0
            self._adopted = None
        a, n, s = au[w], nxt[w], prev[w]
        for row, amp in enumerate(amps):
            if amp != 0.0:
                a_row, n_row = a[..., row], n[..., row]
                np.multiply(self.source[w], amp, out=n_row)
                np.add(a_row, n_row, out=a_row)
        np.multiply(self.cur[w], 2.0, out=n)
        np.subtract(n, s, out=n)
        np.multiply(a, _on(self._dt2, w), out=s)
        np.add(n, s, out=n)
        zero_boundary(nxt, self._dims, w)
        self.prev, self.cur, self._spare = self.cur, nxt, prev
