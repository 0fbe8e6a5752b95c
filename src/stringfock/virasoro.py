"""Constraint operators, the mass-squared operator, and the light-cone
Hamiltonian, all exact on a truncated LevelBasis.

The quadratic sums are Wick ordered (lowering part applied first), and for
a nonzero grading the two factors of each term commute, so no ordering
constant enters anywhere except the explicit intercept shift.  The bracket
residual harness carries the central coefficient c (m^3 - m) / 12 with
c = d; the coefficient is measured by the brute-force fit below, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._exact import _add_scaled
from .oscillators import SparseOperator, alpha_apply, gram


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
        raise ValueError("standard momentum family needs d >= 3")
    r = mass_squared(level, a)
    s = r + 1
    t = 1
    while Fraction(s, t) + t <= 0:
        t += 1
    p0 = Fraction(Fraction(s, t) + t, 2)
    p1 = Fraction(Fraction(s, t) - t, 2)
    p = (p0, p1, Fraction(1)) + (Fraction(0),) * (d - 3)
    return OnShellMomentum(r=r, p=p)


@dataclass(frozen=True)
class LightConeMomentum:
    p_plus: Fraction
    p_tilde: tuple

    def __post_init__(self):
        if self.p_plus <= 0:
            raise ValueError(f"p_plus must be positive, got {self.p_plus}")

    def tilde_square(self):
        return sum(x * x for x in self.p_tilde)


def apply_constraint_operator(m, p, j, basis, signs):
    """Column j of the grading-m constraint operator, as {state index: coeff}.

    For m = 0 this is p^2/2 plus the level number; otherwise the linear
    momentum term plus the quadratic sum over unordered mode pairs
    (m - k, k) with k >= m - k, the larger (lowering) mode applied first and
    the diagonal pair 2k = m at weight 1/2.  Every term removes or adds a
    different set of modes, so no two terms land on the same state.
    """
    if m == 0:
        c = Fraction(lorentz_square(p), 2) + basis.levels[j]
        return {j: c} if c else {}
    modes = basis.states[j]
    cutoff = basis.cutoff
    index = basis.index
    out = {}
    for mu, pm in enumerate(lower_index(p)):
        if pm:
            res = alpha_apply(modes, m, mu, signs, cutoff)
            if res is not None:
                out[index[res[1]]] = pm * res[0]
    for k in range((m + 1) // 2, min(cutoff, cutoff + m) + 1):
        if k in (0, m):
            continue
        weight = Fraction(1, 2) if 2 * k == m else 1
        for mu, eta in enumerate(signs):
            first = alpha_apply(modes, k, mu, signs, cutoff)
            if first is None:
                continue
            second = alpha_apply(first[1], m - k, mu, signs, cutoff)
            if second is not None:
                out[index[second[1]]] = weight * eta * first[0] * second[0]
    return out


def apply_constraint_to_vector(m, p, vec, basis, signs):
    out = {}
    for j, coeff in vec.items():
        if coeff:
            _add_scaled(out, apply_constraint_operator(m, p, j, basis, signs), coeff)
    return out


def build_Lm(m, momentum, basis, metric):
    """Constraint operator of level grading -m (any sign of m; m = 0 gives
    the diagonal p^2/2 + level)."""
    if abs(m) > basis.cutoff:
        raise ValueError(f"|m| = {abs(m)} exceeds the cutoff {basis.cutoff}")
    op = SparseOperator(basis)
    for j in range(basis.dim):
        op.cols[j] = apply_constraint_operator(m, momentum.p, j, basis, metric.signs)
    return op


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


def build_p_minus(pm, basis, a):
    """Light-cone Hamiltonian (p_tilde^2 + M^2) / (2 p^+), exact and diagonal."""
    ptsq = pm.tilde_square()
    op = SparseOperator(basis)
    for j in range(basis.dim):
        val = Fraction(ptsq + mass_squared(basis.levels[j], a), 2 * pm.p_plus)
        if val:
            op.cols[j] = {j: val}
    return op


def central_term(d, m):
    return Fraction(d, 12) * (m ** 3 - m)


def virasoro_bracket_residual(m, n, momentum, basis, metric):
    """[L_m, L_n] - (m - n) L_{m+n} - (d/12)(m^3 - m) delta_{m+n} on the safe columns.

    Returned as a SparseOperator supported on columns of level at most
    N - |m| - |n|; the contract is that it is exactly zero there.  Each
    column L_k e_j is computed at most once per call.
    """
    signs = metric.signs
    p = momentum.p
    safe = basis.cutoff - abs(m) - abs(n)
    op = SparseOperator(basis)
    if safe < 0:
        return op
    central = central_term(len(signs), m) if m + n == 0 else 0
    columns = {}

    def column(k, j):
        col = columns.get((k, j))
        if col is None:
            col = columns[k, j] = apply_constraint_operator(k, p, j, basis, signs)
        return col

    for j in range(basis.level_start[safe + 1]):
        out = {}
        for i, c in column(n, j).items():
            _add_scaled(out, column(m, i), c)
        for i, c in column(m, j).items():
            _add_scaled(out, column(n, i), -c)
        _add_scaled(out, column(m + n, j), n - m)
        if central:
            _add_scaled(out, {j: central}, -1)
        if out:
            op.cols[j] = out
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
    p = momentum.p
    vacuum = 0   # the vacuum is state 0 of every basis
    values = {}
    c_fit = None
    for m in modes:
        if m < 1 or 2 * m > cutoff:
            raise ValueError(f"cannot fit mode {m} at cutoff {cutoff}")
        down = apply_constraint_operator(-m, p, vacuum, basis, signs)
        up_down = apply_constraint_to_vector(m, p, down, basis, signs)
        l0 = apply_constraint_operator(0, p, vacuum, basis, signs)
        val = up_down.get(vacuum, 0) - 2 * m * l0.get(vacuum, 0)
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


def hermiticity_residual(m, momentum, basis, metric):
    """First violation of <L_{-m} u, v> = <u, L_m v> over safe basis pairs, or None.

    Rows u are restricted to levels where L_{-m} cannot truncate
    (level(u) + |m| <= cutoff), columns v to the level of L_{-m} u; pairs are
    scanned row by row, and each column L_m v is computed once.
    """
    signs = metric.signs
    p = momentum.p
    g = gram(basis, metric)
    for level in range(basis.cutoff - abs(m) + 1):
        if level + m < 0:
            continue
        cols = basis.level_slice(level + m)
        right = [apply_constraint_operator(m, p, j, basis, signs) for j in cols]
        for i in basis.level_slice(level):
            left = apply_constraint_operator(-m, p, i, basis, signs)
            for j, right_vec in zip(cols, right):
                lhs = g.inner(left, {j: 1})
                rhs = g.inner({i: 1}, right_vec)
                if lhs != rhs:
                    return i, j, lhs - rhs
    return None


def mass_spectrum(cutoff, colors, a):
    """Rows (level, mass_squared, degeneracy) for levels up to the cutoff."""
    from .basis import level_degeneracy
    return [(level, mass_squared(level, a), level_degeneracy(level, colors))
            for level in range(cutoff + 1)]
