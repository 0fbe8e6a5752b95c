"""Independent oracles used to freeze expected values.

Each oracle deliberately recomputes its quantity along a different route
from the implementation under test: partition counts by direct recursive
enumeration, the basis order by the original partition-shape expansion
sorted per level, inner products by perfect-matching combinatorics, constraint
operators by explicit sparse matrix composition, the kernel of a sparse
rational matrix by the original column-by-column reduced row echelon form,
the inertia of a
symmetric matrix by the original dense congruence elimination, radical
membership by two ranks instead of a basis of H' = ker C, the massless
smear by quadrature of the closed-form kernel, both leapfrog solvers by the
original allocating ``np.roll`` stencils, one fresh array per step, the
recorded retarded history by per-step copies stacked at the end, the
advanced half of E by sign-flipped test-function times, every smear by a
test-function time factor evaluated afresh on each step, E's Cauchy data
at t = 0 by fields caught by time from a hook, the commutator function by
interpolating in the stored history of its whole sweep with SciPy's
``RegularGridInterpolator``, in 1+1 dimensions at r >= 0 by momentum
quadrature (``pauli_jordan_momentum``) and at every r by quadrature of its
mollified closed form (``mollified_pauli_jordan``),
the shell transforms by a
2001-node complex outer-product trapezoid rule, the mode commutator residuals by rewriting
mode tuples afresh for every column, the constraint bracket residuals by
recomputing every constraint column and composing in Fractions, and the
constraint columns themselves, and the constraint rows built from them, by
the original tuple-keyed Fraction rewrite.

The operator algebra those matrix routes compose lives here too: the
library's ``SparseOperator`` with its arithmetic (``identity``, ``dim``,
``apply``, ``@``, ``+``, ``-``, ``*``, negation, ``transpose``, ``nnz``,
equality), the mode operators as matrices (``alpha``), ``commutator``,
the Gram pairing of two vectors (``gram_inner``), the Gram-adjointness
checks of the modes (``adjointness_residual``) and of the constraint
operators (``hermiticity_residual``), and the constraint operator as a
matrix (``build_Lm``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np

from stringfock import oscillators, virasoro
from stringfock._exact import _add_scaled, sparse_rank
from stringfock.basis import level_of
from stringfock.propagator import (BoxGrid, Bump1D, CauchyData, EvaluatorControls,
                                   SpacetimeBump, _bump_transform, _paired_components,
                                   _retarded_span, _Row, _sweep, bump_profile,
                                   evolve_cauchy, stable_dt)
from stringfock.stringcone import INTERCEPT
from stringfock.virasoro import lower_index


def brute_colored_partition_states(level, colors):
    """All level-``level`` monomials by direct recursion over mode slots."""
    out = set()

    def rec(remaining, max_mode, acc):
        if remaining == 0:
            out.add(tuple(sorted(acc)))
            return
        for n in range(1, min(remaining, max_mode) + 1):
            for c in range(colors):
                rec(remaining - n, n, acc + [(n, c)])

    rec(level, level, [])
    return out


def brute_count(level, colors):
    return len(brute_colored_partition_states(level, colors))


def _colored_partitions(level, directions):
    """Yield sorted mode tuples for every level-``level`` state."""
    def parts(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for n in range(min(remaining, max_part), 0, -1):
            k = 1
            while n * k <= remaining:
                k += 1
            for count in range(1, k):
                for rest in parts(remaining - n * count, n - 1):
                    yield ((n, count),) + rest

    for shape in parts(level, level):
        groups = []
        for n, count in shape:
            groups.append([tuple((n, mu) for mu in combo)
                           for combo in combinations_with_replacement(range(directions), count)])
        def expand(i):
            if i == len(groups):
                yield ()
                return
            for tail in expand(i + 1):
                for head in groups[i]:
                    yield head + tail
        for modes in expand(0):
            yield tuple(sorted(modes))


def shape_route_basis(directions, cutoff):
    """(states, levels, level_start, index) of a LevelBasis by the original
    route: partition shapes, grouped colour choices, expansion, then
    ``sorted(set(...))`` per level."""
    states = []
    level_start = [0]
    for level in range(cutoff + 1):
        block = sorted(set(_colored_partitions(level, directions)))
        states.extend(block)
        level_start.append(len(states))
    index = {modes: i for i, modes in enumerate(states)}
    return states, [level_of(m) for m in states], level_start, index


def matching_inner(s_modes, t_modes, signs):
    """<s, t> as a sum over perfect matchings of equal-mode-number pairs.

    Each matched pair (n, mu) <-> (n, nu) contributes n * eta^{mu nu}, which
    for a diagonal metric means zero unless mu == nu.
    """
    if len(s_modes) != len(t_modes):
        return 0
    if sorted(n for n, _ in s_modes) != sorted(n for n, _ in t_modes):
        return 0
    total = 0
    for perm in permutations(range(len(t_modes))):
        term = 1
        for i, j in enumerate(perm):
            n_s, mu = s_modes[i]
            n_t, nu = t_modes[j]
            if n_s != n_t or mu != nu:
                term = 0
                break
            term *= n_s * signs[mu]
        total += term
    return total


# ---------------------------------------------------------------------------
# the operator algebra: mode and constraint operators as explicit sparse
# matrices, composed by matrix products

class SparseOperator(oscillators.SparseOperator):
    """The library's column-sparse operator with matrix arithmetic."""

    __slots__ = ()

    @classmethod
    def identity(cls, basis):
        op = cls(basis)
        for j in range(basis.dim):
            op.cols[j] = {j: 1}
        return op

    @property
    def dim(self):
        return self.basis.dim

    def apply(self, vec):
        """Apply to a sparse vector {index: coeff}."""
        out = {}
        for j, x in vec.items():
            _add_scaled(out, self.cols.get(j, {}), x)
        return out

    def __matmul__(self, other):
        res = SparseOperator(self.basis)
        for j, col in other.cols.items():
            if col:
                res.cols[j] = self.apply(col)
        return res

    def __add__(self, other):
        res = SparseOperator(self.basis)
        for j in range(self.dim):
            col = dict(self.cols.get(j, {}))
            _add_scaled(col, other.cols.get(j, {}), 1)
            if col:
                res.cols[j] = col
        return res

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        res = SparseOperator(self.basis)
        if not scalar:
            return res
        for j, col in self.cols.items():
            res.cols[j] = {i: v * scalar for i, v in col.items()}
        return res

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def transpose(self):
        res = SparseOperator(self.basis)
        for j, col in self.cols.items():
            for i, v in col.items():
                res.cols[i][j] = v
        return res

    def nnz(self):
        return sum(len(col) for col in self.cols.values())

    def __eq__(self, other):
        """Equal nonzero columns: a column read but never written is empty."""
        if not isinstance(other, oscillators.SparseOperator):
            return NotImplemented
        return ({j: c for j, c in self.cols.items() if c}
                == {j: c for j, c in other.cols.items() if c})

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz()})"


def alpha(n, mu, basis, metric=None):
    """Mode operator on the truncated basis (n < 0 raises, n > 0 lowers).

    ``metric`` supplies the eta factors picked up by contractions; omitting
    it means a Euclidean internal metric (the light-cone case).
    """
    oscillators._check_mode(n, mu, basis)
    signs = metric.signs if metric is not None else (1,) * basis.directions
    op = SparseOperator(basis)
    index = basis.index
    for j, modes in enumerate(basis.states):
        res = oscillators.alpha_apply(modes, n, mu, signs, basis.cutoff)
        if res is not None:
            coeff, image = res
            op.cols[j] = {index[image]: coeff}
    return op


def commutator(op_a, op_b):
    return op_a @ op_b - op_b @ op_a


def gram_inner(g, u, v):
    """<u, v> for the library Gram ``g``: the sum of its level pairings (the
    Gram is block diagonal by level)."""
    return sum(g.level_pairings(u, v).values())


def adjointness_residual(n, mu, basis, metric):
    """Exact check that the raising mode is the Gram adjoint of the lowering mode.

    Returns the first violating triple (i, j, lhs - rhs) or None.  Compares
    <alpha_{-n} u, v> with <u, alpha_n v> for basis states of matching level;
    n >= 1.
    """
    if n < 1:
        raise ValueError(f"lowering mode number must be >= 1, got {n}")
    g = oscillators.gram(basis, metric)
    raise_op = alpha(-n, mu, basis, metric)
    lower_op = alpha(n, mu, basis, metric)
    for j in range(basis.level_start[n], basis.dim):
        for i in basis.level_slice(basis.levels[j] - n):
            lhs = gram_inner(g, raise_op.cols[i], {j: 1})
            rhs = gram_inner(g, {i: 1}, lower_op.cols[j])
            if lhs != rhs:
                return i, j, lhs - rhs
    return None


def hermiticity_residual(m, momentum, basis, metric):
    """First violation of <L_{-m} u, v> = <u, L_m v> over safe basis pairs, or None.

    Rows u are restricted to levels where L_{-m} cannot truncate
    (level(u) + |m| <= cutoff), columns v to the level of L_{-m} u; pairs are
    scanned row by row, and each column L_m v is computed once.
    """
    signs = metric.signs
    scaled = virasoro.scaled_momentum(momentum.p)
    g = oscillators.gram(basis, metric)
    for level in range(basis.cutoff - abs(m) + 1):
        if level + m < 0:
            continue
        cols = basis.level_slice(level + m)
        # both sides carry the same scale D, so they are compared as they come
        right = [virasoro.apply_constraint_operator(m, scaled, j, basis, signs) for j in cols]
        for i in basis.level_slice(level):
            left = virasoro.apply_constraint_operator(-m, scaled, i, basis, signs)
            for j, right_vec in zip(cols, right):
                lhs = gram_inner(g, left, {j: 1})
                rhs = gram_inner(g, {i: 1}, right_vec)
                if lhs != rhs:
                    return i, j, (lhs - rhs) / scaled[0]
    return None


def build_Lm(m, momentum, basis, metric):
    """Constraint operator of level grading -m as a matrix, its columns from
    the library's integer-scaled columns divided by their scale (any sign of
    m; m = 0 gives the diagonal p^2/2 + level)."""
    if abs(m) > basis.cutoff:
        raise ValueError(f"|m| = {abs(m)} exceeds the cutoff {basis.cutoff}")
    scaled = virasoro.scaled_momentum(momentum.p)
    scale = scaled[0]
    op = SparseOperator(basis)
    for j in range(basis.dim):
        col = virasoro.apply_constraint_operator(m, scaled, j, basis, metric.signs)
        op.cols[j] = {i: Fraction(x, scale) for i, x in col.items()}
    return op


def bruteforce_constraint_matrix(m, momentum, basis, metric):
    """Constraint operator assembled from explicit mode-matrix products.

    Independent of the per-column application route: the linear term is a
    momentum-weighted sum of single mode matrices and the quadratic term a
    half-weighted normal-ordered sum of matrix products.
    """
    signs = metric.signs
    n_cut = basis.cutoff
    p_low = lower_index(momentum.p)
    total = SparseOperator(basis)
    cache = {}

    def mode(idx, mu):
        key = (idx, mu)
        if key not in cache:
            cache[key] = alpha(idx, mu, basis, metric)
        return cache[key]

    for mu in range(basis.directions):
        if p_low[mu]:
            total = total + mode(m, mu) * Fraction(p_low[mu])
    for n in range(-n_cut, n_cut + 1):
        j = m - n
        if n in (0, m) or abs(j) > n_cut or abs(n) > n_cut:
            continue
        for mu in range(basis.directions):
            if j > 0 and n < 0:
                prod = mode(n, mu) @ mode(j, mu)   # creator to the left
            else:
                prod = mode(j, mu) @ mode(n, mu)
            total = total + prod * Fraction(signs[mu], 2)
    return total


def sparse_rref(rows, ncols):
    """Reduced row echelon form of a sparse rational matrix.

    ``rows`` is a list of {col: int or Fraction} dicts; returns (pivot_rows,
    pivot_cols) where pivot_rows[i] is the normalized row whose leading
    column is pivot_cols[i].  Deterministic: columns are processed in
    ascending order, candidate rows by list position.
    """
    work = [dict(r) for r in rows if r]
    pivot_rows = []
    pivot_cols = []
    for col in range(ncols):
        pick = None
        for idx, row in enumerate(work):
            if col in row:
                pick = idx
                break
        if pick is None:
            continue
        row = work.pop(pick)
        inv = Fraction(1) / row[col]
        row = {c: v * inv for c, v in row.items()}
        for other in work + pivot_rows:
            f = other.get(col)
            if f:
                _add_scaled(other, row, -f)
        work = [r for r in work if r]
        pivot_rows.append(row)
        pivot_cols.append(col)
    return pivot_rows, pivot_cols


def sparse_nullspace(rows, ncols):
    """Basis of the right kernel of a sparse rational matrix.

    Returns a list of {col: Fraction} vectors, one per free column, in
    ascending free-column order (the free column carries coefficient 1).
    """
    pivot_rows, pivot_cols = sparse_rref(rows, ncols)
    pivot_set = set(pivot_cols)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = {free: Fraction(1)}
        for prow, pcol in zip(pivot_rows, pivot_cols):
            coeff = prow.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
    return basis


def in_radical(rows, diag, v):
    """Whether the sparse vector v lies in the radical of H' = ker C, for the
    constraint rows C and the diagonal Gram G of a level slice.

    v is in H' when C v = 0, and G-orthogonal to all of H' when G v lies in
    the row space of C, that is when appending G v to the rows keeps their
    rank.  No basis of H' is built.
    """
    if any(sum(row.get(c, 0) * x for c, x in v.items()) for row in rows):
        return False
    return sparse_rank(rows + [{c: diag[c] * x for c, x in v.items()}]) == sparse_rank(rows)


def signature_symmetric(matrix):
    """Inertia (n_plus, n_zero, n_minus) of a symmetric rational matrix.

    Uses congruence transformations (symmetric Gaussian elimination); when
    the remaining diagonal vanishes but the block does not, a row/column
    addition manufactures a nonzero pivot (valid away from characteristic 2).
    Exact, hence suitable for sign questions with no tolerance.
    """
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    pos = neg = zero = 0
    k = 0
    while k < n:
        piv = None
        for i in range(k, n):
            if a[i][i]:
                piv = i
                break
        if piv is None:
            hit = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        hit = (i, j)
                        break
                if hit:
                    break
            if hit is None:
                zero += n - k
                break
            i, j = hit
            # congruence: row_i += row_j, col_i += col_j gives a[i][i] = 2 a[i][j]
            for c in range(n):
                a[i][c] += a[j][c]
            for r in range(n):
                a[r][i] += a[r][j]
            continue
        if piv != k:
            a[piv], a[k] = a[k], a[piv]
            for r in range(n):
                a[r][piv], a[r][k] = a[r][k], a[r][piv]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                ai, ak = a[i], a[k]
                for j in range(k + 1, n):
                    if ak[j]:
                        ai[j] -= f * ak[j]
        for i in range(k + 1, n):
            a[i][k] = Fraction(0)
            a[k][i] = Fraction(0)
        k += 1
    return pos, zero, neg


def massless_smear(f_bump, g_bump, n_g=801, n_f=301):
    """integral f (E g) for the 1+1 massless kernel, from the closed form.

    The kernel is +1/2 sgn(t) inside the cone; the inner integral over the
    cone cross-section uses prefix sums, the rest is nested quadrature.
    """
    gs = np.linspace(g_bump.time.lo, g_bump.time.hi, n_g)
    gy = np.linspace(g_bump.space[0].lo, g_bump.space[0].hi, n_g)
    gv = g_bump.time(gs)[:, None] * g_bump.space[0](gy)[None, :]
    dy = gy[1] - gy[0]
    ds = gs[1] - gs[0]
    prefix = np.concatenate(
        [np.zeros((n_g, 1)), np.cumsum((gv[:, :-1] + gv[:, 1:]) * 0.5 * dy, axis=1)],
        axis=1)

    def cum(i, yq):
        return np.interp(yq, gy, prefix[i], left=0.0, right=prefix[i, -1])

    ft = np.linspace(f_bump.time.lo, f_bump.time.hi, n_f)
    fx = np.linspace(f_bump.space[0].lo, f_bump.space[0].hi, n_f)
    fv = f_bump.time(ft)[:, None] * f_bump.space[0](fx)[None, :]
    dft = ft[1] - ft[0]
    dfx = fx[1] - fx[0]
    # conv[a] sums over the g time nodes s_i, in order, the cone cross-section
    # sgn(t_a - s_i) / 2 * (cum_i(x + |t_a - s_i|) - cum_i(x - |t_a - s_i|)) ds
    conv = np.zeros((n_f, n_f))
    for i, s in enumerate(gs):
        rad = ft - s
        reach = np.abs(rad)[:, None]
        conv += np.sign(rad)[:, None] * (0.5 * (cum(i, fx + reach) - cum(i, fx - reach)) * ds)
    total = 0.0
    for a in range(n_f):
        total += float(np.sum(fv[a] * conv[a])) * dfx * dft
    return total


def loop_massless_smear(f_bump, g_bump, n_g=801, n_f=301):
    """:func:`massless_smear` as first written, one interpolation per node pair.

    The kernel is +1/2 sgn(t) inside the cone; the inner integral over the
    cone cross-section uses prefix sums, the rest is nested quadrature.
    """
    gs = np.linspace(g_bump.time.lo, g_bump.time.hi, n_g)
    gy = np.linspace(g_bump.space[0].lo, g_bump.space[0].hi, n_g)
    gv = g_bump.time(gs)[:, None] * g_bump.space[0](gy)[None, :]
    dy = gy[1] - gy[0]
    ds = gs[1] - gs[0]
    prefix = np.concatenate(
        [np.zeros((n_g, 1)), np.cumsum((gv[:, :-1] + gv[:, 1:]) * 0.5 * dy, axis=1)],
        axis=1)

    def cum(i, yq):
        return np.interp(yq, gy, prefix[i], left=0.0, right=prefix[i, -1])

    ft = np.linspace(f_bump.time.lo, f_bump.time.hi, n_f)
    fx = np.linspace(f_bump.space[0].lo, f_bump.space[0].hi, n_f)
    fv = f_bump.time(ft)[:, None] * f_bump.space[0](fx)[None, :]
    dft = ft[1] - ft[0]
    dfx = fx[1] - fx[0]
    total = 0.0
    for a, t in enumerate(ft):
        conv = np.zeros(len(fx))
        for i, s in enumerate(gs):
            rad = t - s
            if rad > 0:
                conv += 0.5 * (cum(i, fx + rad) - cum(i, fx - rad)) * ds
            elif rad < 0:
                conv -= 0.5 * (cum(i, fx - rad) - cum(i, fx + rad)) * ds
        total += float(np.sum(fv[a] * conv)) * dfx * dft
    return total


# ---------------------------------------------------------------------------
# leapfrog reference routes: periodic np.roll stencils, a new array per step

def same_bits(got, want):
    """Equal values and equal sign bits: np.array_equal takes -0.0 for +0.0."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def roll_laplacian(u, h):
    out = -2.0 * u.ndim * u
    for ax in range(u.ndim):
        out += np.roll(u, 1, axis=ax) + np.roll(u, -1, axis=ax)
    return out / (h * h)


def roll_zero_boundary(u):
    for ax in range(u.ndim):
        sl = [slice(None)] * u.ndim
        sl[ax] = 0
        u[tuple(sl)] = 0.0
        sl[ax] = -1
        u[tuple(sl)] = 0.0


def roll_sweep(h, r, dt, t0, steps, u_prev, u_cur, source=None, hooks=()):
    """Center-of-mass leapfrog; ``source(t)`` returns an array or None."""
    t = t0
    for hook in hooks:
        hook(0, t, u_cur, slice(None))
    for k in range(steps):
        rhs = roll_laplacian(u_cur, h) - r * u_cur
        if source is not None:
            s = source(t)
            if s is not None:
                rhs = rhs + s
        u_next = 2.0 * u_cur - u_prev + dt * dt * rhs
        roll_zero_boundary(u_next)
        u_prev, u_cur = u_cur, u_next
        t = t0 + (k + 1) * dt
        for hook in hooks:
            hook(k + 1, t, u_cur, slice(None))
    return u_prev, u_cur, t


def roll_taylor_back_step(u0, v0, r, h, dt):
    rhs = roll_laplacian(u0, h) - r * u0
    u_prev = u0 - dt * v0 + 0.5 * dt * dt * rhs
    roll_zero_boundary(u_prev)
    return u_prev


def roll_evolve_forward(h, t0, u, v, r, dt, steps):
    """Forward Cauchy evolution by ``steps`` leapfrog steps of ``dt``.

    Returns (t, u, v) with the centered time derivative at the arrival time.
    """
    u_prev = roll_taylor_back_step(u, v, r, h, dt)
    u_prev, u_cur, t = roll_sweep(h, r, dt, t0, steps, u_prev, u.copy())
    rhs = roll_laplacian(u_cur, h) - r * u_cur
    u_next = 2.0 * u_cur - u_prev + dt * dt * rhs
    roll_zero_boundary(u_next)
    return t, u_cur, (u_next - u_prev) / (2.0 * dt)


def roll_cone_apply(config, axes, u):
    """The extended wave operator with periodic neighbours."""
    h = config.h
    cm_axes = config.d_cm - 1
    out = (2.0 * INTERCEPT) * u
    inv_h2 = 1.0 / (h * h)
    inv_2h = 0.5 / h
    for ax in range(u.ndim):
        up = np.roll(u, -1, axis=ax)
        dn = np.roll(u, 1, axis=ax)
        out += (up - 2.0 * u + dn) * inv_h2
        if ax >= cm_axes:
            n_mode = ax - cm_axes + 1
            shape = [1] * u.ndim
            shape[ax] = len(axes[ax])
            drift = -2.0 * n_mode * axes[ax].reshape(shape)
            out += drift * (up - dn) * inv_2h
    return out


def roll_cone_leakage(u, outside_mask, threshold_frac=1e-8):
    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        return 0.0
    cut = np.where(np.abs(u) >= threshold_frac * peak, u, 0.0)
    total = float(np.sum(cut * cut))
    if total == 0.0:
        return 0.0
    outside = float(np.sum(np.where(outside_mask, cut * cut, 0.0)))
    return outside / total


def roll_cone_solve(config, initial_u, initial_v, t_final, threshold_frac=1e-8):
    """The string light-cone run with every per-step diagnostic.

    Returns a dict of the diagnostic lists and the final field; raises
    RuntimeError with the norm message where the solver would report
    instability.
    """
    n_side = int(round(2 * config.extent / config.h)) + 1
    ax = np.linspace(-config.extent, config.extent, n_side)
    dims = config.dims
    axes = [ax] * dims
    cm_axes = config.d_cm - 1
    mesh = np.meshgrid(*axes, indexing="ij")
    u = initial_u(*mesh)
    v = initial_v(*mesh)
    dt = config.dt()
    steps = int(round(t_final / dt))
    if abs(steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        steps = int(math.ceil(t_final / dt))
        dt = t_final / steps
    weight = np.ones([len(a) for a in axes])
    rr_ext = np.zeros_like(weight)
    rr_com = np.zeros_like(weight)
    rr_int = np.zeros_like(weight)
    for i in range(dims):
        shape = [1] * dims
        shape[i] = n_side
        sq = ax.reshape(shape) ** 2
        rr_ext = rr_ext + sq
        if i < cm_axes:
            rr_com = rr_com + sq
        else:
            rr_int = rr_int + sq
            n_mode = i - cm_axes + 1
            weight = weight * np.exp(-n_mode * ax.reshape(shape) ** 2)
    rr_ext, rr_com, rr_int = np.sqrt(rr_ext), np.sqrt(rr_com), np.sqrt(rr_int)
    nz = (np.abs(u) + np.abs(v)) > 0
    data_radius = float(np.max(rr_ext[nz])) if np.any(nz) else 0.0
    r_cm0 = float(np.max(rr_com[nz])) if np.any(nz) else 0.0
    r_int0 = float(np.max(rr_int[nz])) if np.any(nz) else 0.0
    halo = 3.0 * config.h
    growth_bound = 2.0 * math.sqrt(2.0 * INTERCEPT + 1.0)
    vol = config.h ** dims

    hist = {key: [] for key in ("times", "support_radius_extended", "support_radius_com",
                                "leakage_extended", "leakage_com", "energies")}
    u_prev = u - dt * v + 0.5 * dt * dt * roll_cone_apply(config, axes, u)
    roll_zero_boundary(u_prev)
    norm0 = math.sqrt(float(np.sum(weight * u * u)) + float(np.sum(weight * v * v)))
    for k in range(steps):
        u_next = 2.0 * u - u_prev + dt * dt * roll_cone_apply(config, axes, u)
        roll_zero_boundary(u_next)
        t = (k + 1) * dt
        diff = (u_next - u) / dt
        kinetic = 0.5 * float(np.sum(weight * diff * diff)) * vol
        cross = -0.5 * float(np.sum(weight * u_next * roll_cone_apply(config, axes, u))) * vol
        outside_ext = rr_ext > data_radius + t + halo
        outside_cyl = (rr_com > r_cm0 + t + halo) | (rr_int > r_int0 + halo)
        hist["times"].append(t)
        hist["energies"].append(kinetic + cross)
        hist["leakage_extended"].append(roll_cone_leakage(u_next, outside_ext, threshold_frac))
        hist["leakage_com"].append(roll_cone_leakage(u_next, outside_cyl, threshold_frac))
        peak = float(np.max(np.abs(u_next)))
        mask = np.abs(u_next) >= 1e-8 * peak if peak > 0 else None
        hist["support_radius_extended"].append(
            float(np.max(rr_ext[mask])) if mask is not None and np.any(mask) else 0.0)
        hist["support_radius_com"].append(
            float(np.max(rr_com[mask])) if mask is not None and np.any(mask) else 0.0)
        norm = math.sqrt(float(np.sum(weight * u_next * u_next)))
        if norm0 > 0 and norm > 50.0 * norm0 * math.exp(growth_bound * t):
            raise RuntimeError(
                f"norm {norm:.3e} exceeds the exponential bound at t = {t:.3f}")
        u_prev, u = u, u_next
    hist["final_field"] = u
    return hist


# ---------------------------------------------------------------------------
# recorded retarded solve: a list of per-step copies, stacked at the end

def stacked_retarded_history(bump, r, grid, dt, t_end):
    times, fields = [], []

    def record(k, t, u, planes):
        times.append(t)
        fields.append(u.copy())

    t_start, steps = _retarded_span(bump, dt, t_end)
    _sweep(grid, [_Row(r, dt, t_start, steps, bump, (record,))], grid.zeros()[..., None],
           grid.zeros()[..., None])
    return np.asarray(times), np.stack(fields)


# ---------------------------------------------------------------------------
# E = E+ - E-: the advanced half by sign-flipped time arguments, and Cauchy
# data at t = 0 caught by time from a hook

class SignedSmearAccumulator:
    """Accumulates dt * h^D * sum f(sign_t t, x) u(t, x) over a sweep."""

    def __init__(self, bump, grid, dt, sign_t=1.0):
        self.bump = bump
        self.grid = grid
        self.dt = dt
        self.sign_t = sign_t
        self.spatial = bump.spatial_values(grid.axes())
        self.total = 0.0
        lo, hi = bump.time.lo, bump.time.hi
        self.window = (min(sign_t * lo, sign_t * hi), max(sign_t * lo, sign_t * hi))

    def __call__(self, k, t, u, planes):
        if t < self.window[0] - self.dt or t > self.window[1] + self.dt:
            return
        amp = float(self.bump.time(np.array([self.sign_t * t]))[0])
        if amp == 0.0:
            return
        self.total += self.dt * self.grid.cell_volume() * amp * float(np.sum(self.spatial * u))


def signed_smear_E_scalar_multi(f_bumps, g_bump, r, grid, dt):
    """[ integral f_i (E g) ] with the advanced half smeared at -t."""
    results = np.zeros(len(f_bumps))
    # retarded part
    t_end = max([f.time.hi for f in f_bumps] + [g_bump.time.hi]) + 2.0 * dt
    accs = [SignedSmearAccumulator(f, grid, dt) for f in f_bumps]
    t_start, steps = _retarded_span(g_bump, dt, t_end)
    _sweep(grid, [_Row(r, dt, t_start, steps, g_bump, tuple(accs))], grid.zeros()[..., None],
           grid.zeros()[..., None])
    for i, acc in enumerate(accs):
        results[i] += acc.total
    # advanced part: v_adv(t) = v_ret[g(-.)](-t)
    g_rev = SpacetimeBump(Bump1D(-g_bump.time.center, g_bump.time.radius,
                                 g_bump.time.amplitude), g_bump.space)
    t_end_rev = max([-f.time.lo for f in f_bumps] + [g_rev.time.hi]) + 2.0 * dt
    accs_rev = [SignedSmearAccumulator(f, grid, dt, sign_t=-1.0) for f in f_bumps]
    t_start, steps = _retarded_span(g_rev, dt, t_end_rev)
    _sweep(grid, [_Row(r, dt, t_start, steps, g_rev, tuple(accs_rev))],
           grid.zeros()[..., None], grid.zeros()[..., None])
    for i, acc in enumerate(accs_rev):
        results[i] -= acc.total
    return results


def stepwise_pair_solution_with_test(U, F):
    """<U, F> with the test bump's time factor evaluated on every step."""
    total = 0.0
    for _, cu, w in _paired_components(U, F.internal):
        dt = stable_dt(cu.data.grid.h, cu.data.grid.ndim, cu.r)
        start = evolve_cauchy(cu.data, cu.r, F.bump.time.lo - dt)
        acc = SignedSmearAccumulator(F.bump, start.grid, dt)
        steps = int(math.ceil((F.bump.time.hi - start.t0) / dt)) + 2
        _sweep(start.grid, [_Row(cu.r, dt, start.t0, steps, hooks=(acc,))],
               start.u[..., None], start.v[..., None])
        total += w * acc.total
    return total


def catcher_cauchy_at_zero_retarded(bump, r, grid, dt):
    """Retarded Cauchy data at t = 0, u(-dt), u(0), u(dt) caught by time."""
    if bump.time.lo > dt:
        # source entirely in the future: the retarded solution vanishes at 0
        return CauchyData(grid, 0.0, grid.zeros(), grid.zeros())
    keep = {}

    def catcher(k, t, u, planes):
        if abs(t) <= 1.5 * dt:
            keep[round(t / dt)] = (t, u.copy())

    t_start = bump.time.lo - 2.0 * dt
    # land exactly on t = 0
    steps_to_zero = int(math.ceil(-t_start / dt))
    t_start = -steps_to_zero * dt
    _sweep(grid, [_Row(r, dt, t_start, steps_to_zero + 1, bump, (catcher,))],
           grid.zeros()[..., None], grid.zeros()[..., None])
    t_m, u_m = keep[-1]
    t_0, u_0 = keep[0]
    t_p, u_p = keep[1]
    v = (u_p - u_m) / (2.0 * dt)
    return CauchyData(grid, 0.0, u_0, v)


def catcher_apply_E_scalar(bump, r, grid, dt):
    """E applied to one scalar source: Cauchy data (u, v) at t = 0."""
    ret = catcher_cauchy_at_zero_retarded(bump, r, grid, dt)
    bump_rev = SpacetimeBump(Bump1D(-bump.time.center, bump.time.radius,
                                    bump.time.amplitude), bump.space)
    adv_rev = catcher_cauchy_at_zero_retarded(bump_rev, r, grid, dt)
    u = ret.u - adv_rev.u
    v = ret.v + adv_rev.v
    return CauchyData(grid, 0.0, u, v)


# ---------------------------------------------------------------------------
# the commutator function from a kept history: every time slice of one
# sweep stored, each value interpolated between two stored slices

class PauliJordanEvaluator:
    """Lattice evaluator for the commutator function at one mass level.

    Evolves the mollified data (0, -delta_width) once per requested time
    span and interpolates; values are odd in t by construction.
    """

    def __init__(self, r, d_cm=2, controls=None):
        if d_cm < 2:
            raise ValueError("d_cm must be >= 2")
        self.r = float(r)
        self.d_cm = d_cm
        self.controls = controls or EvaluatorControls()
        dims = d_cm - 1
        c = self.controls
        self.grid = BoxGrid.covering([(-c.xmax, c.xmax)] * dims, c.h)
        self.dt = stable_dt(c.h, dims, self.r)
        self._times = None
        self._history = None

    def _mollifier(self):
        c = self.controls
        axes = self.grid.axes()
        out = None
        for ax in axes:
            b = bump_profile(ax / c.width)
            scale = np.trapezoid(b, ax)
            b = b / scale
            out = b if out is None else np.multiply.outer(out, b)
        return out

    def _ensure(self, t_needed):
        """Sweep from t = 0 past ``t_needed`` and keep every time slice."""
        if self._times is not None and self._times[-1] >= t_needed:
            return
        steps = int(math.ceil((t_needed + 2 * self.dt) / self.dt))
        times = np.empty(steps + 1)
        history = np.empty((steps + 1,) + self.grid.shape)

        def record(k, t, u, planes):
            times[k] = t
            history[k] = u

        u0 = self.grid.zeros()
        v0 = -self._mollifier()
        _sweep(self.grid, [_Row(self.r, self.dt, 0.0, steps, hooks=(record,))],
               u0[..., None], v0[..., None])
        self._times, self._history = times, history

    def value(self, t, x):
        """Mollified commutator-function value at (t, x); x is a point or tuple."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if xs.shape[-1] != self.grid.ndim and self.grid.ndim == 1:
            xs = xs.reshape(-1, 1)
        sign = 1.0
        if t < 0:
            t, sign = -t, -1.0
        self._ensure(t)
        from scipy.interpolate import RegularGridInterpolator
        k = int(math.floor(t / self.dt))
        k = min(max(k, 0), len(self._times) - 2)
        frac = (t - self._times[k]) / self.dt
        slab = (1.0 - frac) * self._history[k] + frac * self._history[k + 1]
        interp = RegularGridInterpolator(self.grid.axes(), slab,
                                         bounds_error=False, fill_value=0.0)
        vals = interp(xs)
        out = sign * vals
        return float(out[0]) if out.size == 1 else out


def pauli_jordan_momentum(r, t, x, width=0.08, p_cutoff=400.0, n_points=120001):
    """Momentum-quadrature cross-check of the mollified commutator function.

    Only for d_cm = 2 and r >= 0 (the contour route; tachyonic levels are
    handled in the time domain).  Evaluates
    -(1/pi) int_0^P cos(p x) sin(w t)/w  mhat(p) dp with mhat the mollifier
    transform, matching the lattice evaluator's mollification: the bump
    profile's cosine transform, normalized to 1 at p = 0.
    """
    if r < 0:
        raise ValueError("momentum route is restricted to r >= 0")
    ps = np.linspace(0.0, p_cutoff, n_points)
    mhat = _bump_transform(Bump1D(0.0, width), ps, 1.0).real
    mhat /= mhat[0]
    w = np.sqrt(ps * ps + r)
    with np.errstate(invalid="ignore", divide="ignore"):
        kern = np.where(w > 0, np.sin(w * t) / np.where(w > 0, w, 1.0), t)
    vals = np.cos(ps * x) * kern * mhat
    return float(-np.trapezoid(vals, ps) / np.pi)


def mollified_pauli_jordan(r, t, x, width):
    """The 1+1 commutator function from its closed form, mollified in x.

    Delta(t, x) = -sign(t)/2 theta(t^2 - x^2) K(s), s = sqrt(t^2 - x^2),
    with K(s) = J0(sqrt(r) s) for r > 0, 1 at r = 0 and I0(sqrt(-r) s) for
    r < 0, convolved with the unit-integral bump of radius ``width``: one
    quadrature over the part of the bump inside the cone, where the
    integrand is smooth.
    """
    from scipy.integrate import quad
    from scipy.special import i0, j0

    def kernel(y):
        s = math.sqrt(t * t - (x - y) ** 2)
        return j0(math.sqrt(r) * s) if r > 0 else i0(math.sqrt(-r) * s) if r < 0 else 1.0

    def bump(y):
        return math.exp(-1.0 / (1.0 - (y / width) ** 2))

    lo, hi = max(-width, x - abs(t)), min(width, x + abs(t))
    if lo >= hi:
        return 0.0
    inside = quad(lambda y: kernel(y) * bump(y), lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
    norm = quad(bump, -width, width, epsabs=1e-14, epsrel=1e-13)[0]
    return -0.5 * math.copysign(1.0, t) * inside / norm


# ---------------------------------------------------------------------------
# shell transforms: complex exponentials on a fixed node set over the support

def outer_trapezoid_transform(bump, k, sign, n_quad=2001):
    """Integral of bump(x) exp(sign i k x) dx by an n_quad-node trapezoid rule."""
    xs = np.linspace(bump.lo, bump.hi, n_quad)
    vals = bump(xs)
    phases = np.exp(sign * 1j * np.outer(k, xs))
    return np.trapezoid(phases * vals[None, :], xs, axis=1)


# ---------------------------------------------------------------------------
# exact algebra checks column by column; they look ``alpha_apply`` and the
# constraint columns up at call time, so a test can corrupt them for these
# routes and the library's at once

def loop_ccr_residual_entries(m, n, mu, nu, basis, metric):
    """[alpha_m^mu, alpha_n^nu] - m delta_{m+n} eta^{mu nu} on the safe columns."""
    signs = metric.signs
    cutoff = basis.cutoff
    safe = cutoff - abs(m) - abs(n)
    expected = 0
    if m + n == 0 and mu == nu:
        expected = m * signs[mu]
    bad = []
    if safe < 0:
        return bad
    top = basis.level_start[safe + 1]
    states = basis.states
    for j in range(top):
        s = states[j]
        out = {}
        first = oscillators.alpha_apply(s, n, nu, signs, cutoff)
        if first is not None:
            c1, m1 = first
            second = oscillators.alpha_apply(m1, m, mu, signs, cutoff)
            if second is not None:
                c2, m2 = second
                out[m2] = out.get(m2, 0) + c1 * c2
        first = oscillators.alpha_apply(s, m, mu, signs, cutoff)
        if first is not None:
            c1, m1 = first
            second = oscillators.alpha_apply(m1, n, nu, signs, cutoff)
            if second is not None:
                c2, m2 = second
                out[m2] = out.get(m2, 0) - c1 * c2
        if expected:
            out[s] = out.get(s, 0) - expected
        for modes, coeff in out.items():
            if coeff:
                bad.append((j, modes, coeff))
    return bad


def loop_virasoro_bracket_residual(m, n, momentum, basis, metric):
    """[L_m, L_n] - (m - n) L_{m+n} - central term, recomputing every column
    and composing in Fractions, each column divided by its scale first."""
    signs = metric.signs
    cutoff = basis.cutoff
    scaled = virasoro.scaled_momentum(momentum.p)

    def apply_op(k, j):
        col = virasoro.apply_constraint_operator(k, scaled, j, basis, signs)
        return {i: Fraction(x, scaled[0]) for i, x in col.items()}

    def apply_vec(k, vec):
        out = {}
        for j, coeff in vec.items():
            for i, x in apply_op(k, j).items():
                new = out.get(i, 0) + coeff * x
                if new:
                    out[i] = new
                else:
                    out.pop(i, None)
        return out

    safe = cutoff - abs(m) - abs(n)
    op = SparseOperator(basis)
    if safe < 0:
        return op
    d = len(signs)
    central = virasoro.central_term(d, m) if m + n == 0 else 0
    top = basis.level_start[safe + 1]
    for j in range(top):
        lm_ln = apply_vec(m, apply_op(n, j))
        ln_lm = apply_vec(n, apply_op(m, j))
        out = dict(lm_ln)
        for mm, c in ln_lm.items():
            new = out.get(mm, 0) - c
            if new:
                out[mm] = new
            else:
                out.pop(mm, None)
        for mm, c in apply_op(m + n, j).items():
            new = out.get(mm, 0) - (m - n) * c
            if new:
                out[mm] = new
            else:
                out.pop(mm, None)
        if m == -n and central:
            new = out.get(j, 0) - central
            if new:
                out[j] = new
            else:
                out.pop(j, None)
        if out:
            op.cols[j] = out
    return op


def tuple_constraint_column(m, p, modes, cutoff, signs):
    """Image of a basis monomial under the grading-m constraint operator,
    keyed by mode tuples.

    For m = 0 this is p^2/2 plus the level number; otherwise the linear
    momentum term plus the half-weighted quadratic sum over mode pairs
    (j, k) with j + k = m, each unordered pair counted once and the
    diagonal pair j = k at weight 1/2, collected from three separate ranges.
    """
    if m == 0:
        c = Fraction(virasoro.lorentz_square(p), 2) + level_of(modes)
        return {modes: c} if c else {}
    out = {}
    p_low = lower_index(p)
    dirs = len(signs)

    def add(mm, c):
        if not c:
            return
        new = out.get(mm, 0) + c
        if new:
            out[mm] = new
        else:
            del out[mm]

    for mu in range(dirs):
        pm = p_low[mu]
        if not pm:
            continue
        res = oscillators.alpha_apply(modes, m, mu, signs, cutoff)
        if res is not None:
            add(res[1], pm * res[0])

    pairs = []
    if m >= 2:
        for j in range(1, m // 2 + 1):
            pairs.append((j, m - j))
    if m <= -2:
        for j in range(m + 1, m // 2 + 1):
            pairs.append((j, m - j))
    hi = min(cutoff, cutoff + m)
    for k in range(max(0, m) + 1, hi + 1):
        pairs.append((m - k, k))

    for j, k in pairs:
        weight = Fraction(1, 2) if j == k else 1
        for mu in range(dirs):
            eta = signs[mu]
            first = oscillators.alpha_apply(modes, k, mu, signs, cutoff)
            if first is None:
                continue
            c1, m1 = first
            second = oscillators.alpha_apply(m1, j, mu, signs, cutoff)
            if second is None:
                continue
            c2, m2 = second
            add(m2, weight * eta * c1 * c2)
    return out


def tuple_constraint_rows(momentum, basis, level):
    """The constraint rows of a level slice, in the order of
    ``physical._constraint_rows``, from the tuple-keyed Fraction columns: for
    m = 1..level, one {slice column: coefficient} row per image state, image
    states ascending."""
    signs = (-1,) + (1,) * (basis.directions - 1)
    offset = basis.level_start[level]
    rows = []
    for m in range(1, level + 1):
        row_map = {}
        for c in range(basis.level_dim(level)):
            image = tuple_constraint_column(m, momentum.p, basis.states[offset + c],
                                            basis.cutoff, signs)
            for modes, coeff in image.items():
                row_map.setdefault(basis.index[modes], {})[c] = coeff
        rows.extend(row_map[i] for i in sorted(row_map))
    return rows

