"""The leapfrog engine shared by the center-of-mass and the string light-cone
solvers.

One step is u_next = (2 u - u_prev) + dt^2 (A u + s) on a box whose wall
layer is held at zero (Dirichlet).  The spatial operator A is any object
with ``apply(u, out)`` that writes A u on the interior points of ``out``
and finite values, or none, on its wall entries: the engine zeroes the wall
of every field it makes.  The center-of-mass stencil reads its neighbours
through the slices below and the string light-cone stencil through flat
offsets, so no operator needs the wrap-around copies of ``np.roll``.
Every step runs in place on buffers allocated once, so a large grid pays
no grid-sized allocation or page fault per step.  On a 2-D or 3-D grid the
center-of-mass stencil's interior slices are strided, and NumPy buffers
each strided operand of a ufunc: one apply there peaks at about 128 KiB
of temporaries (tracemalloc, 101 x 101 grid), against 432 bytes on a 1-D
grid, whose slices are contiguous.  Each elementwise expression keeps
the operation order of the plain formula, so results are bit-identical to
it.
"""

from __future__ import annotations

import numpy as np


def interior(ndim):
    """Slices selecting the points off the wall layer."""
    return (slice(1, -1),) * ndim


def neighbours(ndim, ax):
    """Slices of the interior points' upper and lower neighbours along ``ax``."""
    up = list(interior(ndim))
    dn = list(up)
    up[ax] = slice(2, None)
    dn[ax] = slice(None, -2)
    return tuple(up), tuple(dn)


def zero_boundary(u):
    for ax in range(u.ndim):
        sl = [slice(None)] * u.ndim
        sl[ax] = 0
        u[tuple(sl)] = 0.0
        sl[ax] = -1
        u[tuple(sl)] = 0.0


class Leapfrog:
    """Three rotating field buffers and the step's A u.

    The engine starts from the Cauchy data (u, v) at t0: it computes
    u(t0 - dt) by a second-order Taylor step and adopts ``u`` as one of its
    buffers, writing into it.  After :meth:`step`, ``prev`` and ``cur`` hold
    the fields before and after the step, and ``au`` holds A applied to
    ``prev`` (plus the source, when one was given) on the interior points.
    """

    def __init__(self, op, dt, u, v):
        self.op = op
        self.dt = dt
        self.cur = np.require(u, dtype=float, requirements="CW")
        self.au = np.zeros_like(self.cur)
        op.apply(self.cur, self.au)
        # u(t0 - dt) = u - dt v + (dt^2 / 2) A u, A u taken before the other buffers exist
        self.prev = np.multiply(v, dt)
        np.subtract(self.cur, self.prev, out=self.prev)
        self._spare = np.multiply(self.au, 0.5 * dt * dt)
        np.add(self.prev, self._spare, out=self.prev)
        zero_boundary(self.prev)

    def _next(self, profile, amp, s):
        """u_next = (2 u - u_prev) + s in ``_spare``, ``s`` set to dt^2 (A u + amp * profile)."""
        au, nxt = self.au, self._spare
        self.op.apply(self.cur, au)
        if profile is not None:
            np.multiply(profile, amp, out=nxt)
            np.add(au, nxt, out=au)
        np.multiply(self.cur, 2.0, out=nxt)
        np.subtract(nxt, self.prev, out=nxt)
        np.multiply(au, self.dt * self.dt, out=s)
        np.add(nxt, s, out=nxt)
        zero_boundary(nxt)
        return nxt

    def step(self, profile=None, amp=1.0):
        """Advance one step, adding the source ``amp * profile`` to A u if given."""
        prev = self.prev
        nxt = self._next(profile, amp, prev)    # u_prev is spent: reuse it for dt^2 A u
        self.prev, self.cur, self._spare = self.cur, nxt, prev

    def closing_derivative(self, profile, amp):
        """(u_next - u_prev) / (2 dt) at ``cur``, u_next as :meth:`step` gives it, written
        over ``prev`` with ``au`` spent on dt^2 A u: no buffer is added, no step follows."""
        v = self.prev
        nxt = self._next(profile, amp, self.au)
        np.subtract(nxt, v, out=v)
        np.divide(v, 2.0 * self.dt, out=v)
        return v
