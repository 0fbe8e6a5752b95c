"""Constraint operators and the mass-squared operator, exact on a truncated
LevelBasis.

The quadratic sums are Wick ordered (lowering part applied first), and for
a nonzero grading the two factors of each term commute, so no ordering
constant enters anywhere except the explicit intercept shift.  The bracket
residual harness carries the central coefficient c (m^3 - m) / 12 with
c = d; the coefficient is measured by the brute-force fit below, not
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import numpy as np

from .oscillators import SparseOperator, alpha_apply, mode_table


def lorentz_square(p):
    """eta_{mu nu} p^mu p^nu with eta = diag(-1, +1, ..., +1)."""
    total = -p[0] * p[0]
    for x in p[1:]:
        total += x * x
    return total


def lower_index(p):
    return (-p[0],) + tuple(p[1:])


def mass_squared(level, a):
    """The mass level r = 2 level - 2a of oscillator level ``level``."""
    return 2 * level - 2 * Fraction(a)


def level_of_mass(r, a):
    """The oscillator level whose mass level is r; ValueError if none is."""
    twice_level = Fraction(r) + 2 * Fraction(a)
    if twice_level.denominator != 1 or twice_level < 0 or twice_level % 2 != 0:
        raise ValueError(f"mass level r = {Fraction(r)} is not in the spectrum "
                         f"for a = {Fraction(a)}")
    return int(twice_level // 2)


@dataclass(frozen=True)
class OnShellMomentum:
    """A mass level r together with an exact rational momentum with p^2 + r = 0."""

    r: Fraction
    p: tuple

    def __post_init__(self):
        psq = lorentz_square(self.p)
        if psq + self.r != 0:
            raise ValueError(f"momentum {self.p} is off shell for r = {self.r}: p^2 = {psq}")
        if self.r >= 0 and self.p[0] <= 0:
            raise ValueError("positive-shell momentum needs p^0 > 0 for r >= 0")


def standard_onshell_momentum(level, d, a=Fraction(1)):
    """A convenient exact rational point on the shell p^2 = 2a - 2 level.

    Solves p0^2 - p1^2 = 2 level - 2a + 1 with a third component of 1; needs
    d >= 3.  For the spacelike shells (r < 0) the split parameter is raised
    until p^0 > 0.
    """
    if d < 3:
        raise ValueError(f"standard momentum family needs d >= 3, got d = {d}")
    r = mass_squared(level, a)
    s = r + 1
    t = 1
    while Fraction(s, t) + t <= 0:
        t += 1
    p0 = Fraction(Fraction(s, t) + t, 2)
    p1 = Fraction(Fraction(s, t) - t, 2)
    p = (p0, p1, Fraction(1)) + (Fraction(0),) * (d - 3)
    return OnShellMomentum(r=r, p=p)


def scaled_momentum(p):
    """``(D, D p_mu with the index lowered, D p^2/2)``, the momentum data of
    :func:`apply_constraint_operator`.

    D = 2 lcm(the denominators of the p_mu and of p^2/2) is even, so for an
    exact momentum every entry of D L_m, the quadratic weights D and D/2
    included, is an integer.  A float component counts as denominator 1, so
    a float momentum gets D = 2: doubling and halving a binary float is
    exact.
    """
    half_square = lorentz_square(p) * Fraction(1, 2)
    scale = 2 * math.lcm(*(x.denominator for x in p + (half_square,)
                           if isinstance(x, Rational)))

    def times_scale(x):
        return int(scale * x) if isinstance(x, Rational) else scale * x

    return scale, tuple(times_scale(x) for x in lower_index(p)), times_scale(half_square)


def apply_constraint_operator(m, scaled, j, basis, signs):
    """D times column j of the grading-m constraint operator, as {state index: coeff}.

    ``scaled`` is ``scaled_momentum(p)``.  For m = 0 the column is
    D p^2/2 + D level; otherwise the linear momentum term plus the quadratic
    sum over unordered mode pairs (m - k, k) with k >= m - k, the larger
    (lowering) mode applied first, at weight D and at D/2 for the diagonal
    pair 2k = m.  Raising modes are read from the basis's mode tables, whose
    domain (levels <= cutoff - |k|) is exactly where they do not truncate;
    lowering modes act, through ``alpha_apply``, only on the distinct modes
    the state holds.  Every term removes or adds a different set of modes,
    so no two terms land on the same state.
    """
    scale, p_low, half_square = scaled
    level = basis.levels[j]
    if m == 0:
        c = half_square + scale * level
        return {j: c} if c else {}
    cutoff = basis.cutoff
    if level - m > cutoff:
        return {}   # every term of a raising L_m leaves the truncated space
    modes = basis.states[j]
    # images go in linear term first, then by (k, mu) ascending, so a float
    # caller's sums over a column run in one fixed order
    distinct = dict.fromkeys(modes)
    index = basis.index
    out = {}
    if m < 0:
        for mu, pm in enumerate(p_low):
            if pm:
                out[mode_table(m, mu, basis)[0][j]] = pm
        for k in range((m + 1) // 2, 0):
            weight = scale // 2 if 2 * k == m else scale
            for mu, eta in enumerate(signs):
                first = mode_table(k, mu, basis)[0][j]
                out[mode_table(m - k, mu, basis)[0][first]] = weight * eta
        for k, mu in distinct:
            c, lowered = alpha_apply(modes, k, mu, signs, cutoff)
            out[mode_table(m - k, mu, basis)[0][index[lowered]]] = scale * signs[mu] * c
        return out
    for k, mu in distinct:
        if k == m and p_low[mu]:
            c, lowered = alpha_apply(modes, m, mu, signs, cutoff)
            out[index[lowered]] = p_low[mu] * c
    for k, mu in distinct:
        if 2 * k < m or k == m:
            continue
        c, lowered = alpha_apply(modes, k, mu, signs, cutoff)
        eta = signs[mu]
        if k > m:
            out[mode_table(m - k, mu, basis)[0][index[lowered]]] = scale * eta * c
            continue
        second = alpha_apply(lowered, m - k, mu, signs, cutoff)
        if second is not None:
            weight = scale // 2 if 2 * k == m else scale
            out[index[second[1]]] = weight * eta * c * second[0]
    return out


def build_M2(basis, a):
    """Mass-squared operator: diagonal with eigenvalue 2 level - 2a.

    The same formula covers both gauges; only the direction count of the
    underlying basis differs.
    """
    op = SparseOperator(basis)
    for j in range(basis.dim):
        val = mass_squared(basis.levels[j], a)
        if val:
            op.cols[j] = {j: val}
    return op


def central_term(d, m):
    return Fraction(d, 12) * (m ** 3 - m)


def _constraint_table(k, basis, signs):
    """The momentum-free quadratic part of 2 L_k on the levels <= cutoff - |k|.

    Returns ``(image, coeff)``, two int arrays of one row per state of that
    domain, padded with -1 and 0: row j lists column j of
    ``apply_constraint_operator(k, ...)`` at p = 0 and D = 2.  This is the
    domain of the mode tables of alpha_k, where nothing truncates.  Built on
    first use and kept on the basis.
    """
    table = basis.constraint_tables.get((k, signs))
    if table is None:
        zero = (2, (0,) * len(signs), 0)
        cols = [apply_constraint_operator(k, zero, j, basis, signs)
                for j in range(basis.level_start[basis.cutoff - abs(k) + 1])]
        width = max(map(len, cols), default=0)
        image = np.full((len(cols), width), -1, dtype=np.intp)
        coeff = np.zeros((len(cols), width), dtype=np.int64)
        for j, col in enumerate(cols):
            image[j, :len(col)] = list(col)
            coeff[j, :len(col)] = list(col.values())
        table = basis.constraint_tables[k, signs] = (image, coeff)
    return table


def _scaled_blocks(k, scaled, basis, signs):
    """D L_k on its table domain as blocks ``(image, coeff, factor)``.

    Each block's entries are ``factor * coeff`` at ``image``: the quadratic
    part is D/2 times the constraint table, the linear part D p_mu times
    alpha_k^mu's mode table (eta^{mu mu} for a lowering k), and for k = 0
    the diagonal D p^2/2.
    """
    scale, p_low, half_square = scaled
    image, coeff = _constraint_table(k, basis, signs)
    blocks = [(image, coeff, scale // 2)]
    if k == 0:
        diagonal = np.arange(len(image), dtype=np.intp)[:, None]
        blocks.append((diagonal, np.ones_like(diagonal, dtype=np.int64), half_square))
        return blocks
    for mu, pm in enumerate(p_low):
        if pm:
            mode_image, mode_coeff = mode_table(k, mu, basis)[2][:, :-1, None]
            blocks.append((mode_image, mode_coeff, pm * signs[mu] if k > 0 else pm))
    return blocks


def virasoro_bracket_residual(m, n, momentum, basis, metric):
    """[L_m, L_n] - (m - n) L_{m+n} - (d/12)(m^3 - m) delta_{m+n} on the safe columns.

    Returned as a SparseOperator supported on columns of level at most
    N - |m| - |n|; the contract is that it is exactly zero there.  D L_k
    is assembled from the basis's constraint and mode tables
    (:func:`_scaled_blocks`); the residual is composed from them in
    integers at scale D^2, summed per entry, and only its nonzero entries
    are divided back.  The integers are int64 when a bound on every partial
    sum fits, Python ints otherwise.
    """
    signs = metric.signs
    scaled = scaled_momentum(momentum.p)
    scale = scaled[0]
    safe = basis.cutoff - abs(m) - abs(n)
    op = SparseOperator(basis)
    if safe < 0:
        return op
    # d (m^3 - m) / 12 times D^2 is an integer: 6 divides m^3 - m and 2 divides D
    central = int(central_term(len(signs), m) * scale * scale) if m + n == 0 else 0
    blocks = {k: _scaled_blocks(k, scaled, basis, signs) for k in {m, n, m + n}}
    # the absolute values of every term of a column, summed, bound each partial
    # sum; a nonzero p gives every D L_k a linear block, so each width is at
    # least 1, and each ``largest`` is at least every factor it multiplies
    width = {k: sum(b[0].shape[1] for b in bl) for k, bl in blocks.items()}
    largest = {k: max(abs(factor) * max(1, int(np.abs(c).max(initial=0)))
                      for _, c, factor in bl)
               for k, bl in blocks.items()}
    bound = (2 * width[m] * width[n] * largest[m] * largest[n]
             + width[m + n] * largest[m + n] * max(1, abs(n - m)) * scale + abs(central))
    dtype = np.int64 if bound < 2 ** 63 else object
    ops = {k: (np.hstack([b[0] for b in bl]),
               np.hstack([b[1].astype(dtype) * b[2] for b in bl]))
           for k, bl in blocks.items()}
    # each term is keyed column * dim + row, so sorting groups it with its
    # entry; a padded image -1 reads the last row of the outer table, but
    # its own coefficient 0 makes the product 0, and zeros are dropped
    top = basis.level_start[safe + 1]
    cols = np.arange(top)
    keys, vals = [cols * basis.dim + cols], [np.full(top, -central, dtype=dtype)]
    for outer, inner, sign in ((m, n, 1), (n, m, -1)):
        first = ops[inner][0][:top]
        keys.append(cols[:, None, None] * basis.dim + ops[outer][0].take(first, axis=0))
        vals.append(sign * ops[inner][1][:top, :, None] * ops[outer][1].take(first, axis=0))
    keys.append(cols[:, None] * basis.dim + ops[m + n][0][:top])
    vals.append((n - m) * scale * ops[m + n][1][:top])
    keys = np.concatenate([a.ravel() for a in keys])
    vals = np.concatenate([a.ravel() for a in vals])
    live = vals != 0
    if not live.any():
        return op
    order = np.argsort(keys[live])
    keys, vals = keys[live][order], vals[live][order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(vals, starts)
    nonzero = sums != 0
    square = scale * scale
    for key, x in zip(keys[starts][nonzero].tolist(), sums[nonzero].tolist()):
        j, i = divmod(key, basis.dim)
        op.cols[j][i] = Fraction(x, square)
    return op


def fit_central_coefficient(momentum, basis, metric, modes=(1, 2, 3)):
    """Measure the central coefficient from vacuum expectations, exactly.

    For each m computes the scalar <Omega, ([L_m, L_{-m}] - 2m L_0) Omega>
    (requires 1 <= m and 2m <= cutoff for a truncation-safe vacuum; L_m
    Omega = 0 then, so only L_m L_{-m} contributes) and solves
    value = c (m^3 - m) / 12 for c, demanding consistency across the fitted
    mode numbers.  Returns (c, {m: value}).
    """
    signs = metric.signs
    cutoff = basis.cutoff
    scaled = scaled_momentum(momentum.p)
    scale = scaled[0]
    vacuum = 0   # the vacuum is state 0 of every basis
    l0 = apply_constraint_operator(0, scaled, vacuum, basis, signs).get(vacuum, 0)
    values = {}
    c_fit = None
    for m in modes:
        if m < 1 or 2 * m > cutoff:
            raise ValueError(f"cannot fit mode {m} at cutoff {cutoff}")
        down = apply_constraint_operator(-m, scaled, vacuum, basis, signs)
        up_down = sum(c * apply_constraint_operator(m, scaled, i, basis, signs).get(vacuum, 0)
                      for i, c in down.items())
        val = Fraction(up_down - 2 * m * scale * l0, scale * scale)
        values[m] = val
        if m == 1:
            if val != 0:
                raise ArithmeticError(f"m = 1 bracket defect {val}, expected 0")
            continue
        cand = Fraction(12 * val, m ** 3 - m)
        if c_fit is None:
            c_fit = cand
        elif c_fit != cand:
            raise ArithmeticError(
                f"central coefficient fit inconsistent: {c_fit} vs {cand} at m = {m}")
    return c_fit, values


def mass_spectrum(cutoff, colors, a):
    """Rows (level, mass_squared, degeneracy) for levels up to the cutoff."""
    from .basis import level_degeneracy
    return [(level, mass_squared(level, a), level_degeneracy(level, colors))
            for level in range(cutoff + 1)]
