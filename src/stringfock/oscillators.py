"""Exact sparse realizations of the oscillator modes on a LevelBasis.

Matrix elements live in the rationals; no square roots are ever
materialized.  Truncation semantics: a raising operator that would push a
state above the level cutoff maps it to zero, so algebraic identities are
only asserted on subspaces where that cannot happen.
"""

from __future__ import annotations

from array import array
from collections import defaultdict

import numpy as np

from .basis import level_of

# safe columns from which ccr_residual_entries screens them in one NumPy pass
SCREEN_MIN = 16


def alpha_apply(modes, n, mu, signs, cutoff):
    """Apply the mode operator with index n to a monomial: (coefficient, modes) or None.

    A raising mode (n < 0) adds (-n, mu) with coefficient 1, or gives None
    above the cutoff.  A lowering one contracts against the monomial, or
    gives None if the monomial lacks it; the coefficient is multiplicity *
    n * eta^{mu mu}, straight from the mode commutator.
    """
    if n < 0:
        if level_of(modes) - n > cutoff:
            return None
        return 1, tuple(sorted(modes + ((-n, mu),)))
    key = (n, mu)
    count = modes.count(key)
    if not count:
        return None
    i = modes.index(key)
    return count * n * signs[mu], modes[:i] + modes[i + 1:]


class SparseOperator:
    """Column-sparse exact operator on a LevelBasis: ``cols[j]`` holds the
    nonzeros {row index: coefficient} of column j.  Only the columns written
    or read are held; reading another adds it, empty."""

    __slots__ = ("basis", "cols")

    def __init__(self, basis):
        self.basis = basis
        self.cols = defaultdict(dict)

    def is_zero(self):
        return not any(self.cols.values())


def _check_mode(n, mu, basis):
    if n == 0:
        raise ValueError("mode number 0 is the center-of-mass momentum, not an oscillator")
    if abs(n) > basis.cutoff:
        raise ValueError(f"|n| = {abs(n)} exceeds the level cutoff {basis.cutoff}")
    if not 0 <= mu < basis.directions:
        raise ValueError(f"direction {mu} out of range [0, {basis.directions})")


def mode_table(k, mu, basis):
    """The action of alpha_k^mu on the L states of level <= cutoff - |k|, as index tables.

    Returns ``(image, coeff, rows)`` over one packed int buffer ``[image_0
    .. image_{L-1}, -1, coeff_0 .. coeff_{L-1}, 0]``: its two rows as
    memoryviews (which index to ints) and its (2, L + 1) np.intc view.
    ``image[j]`` is the index of the image of state j, or -1 where it is
    zero; ``coeff[j]`` is the metric-free coefficient, 1 for a raising mode
    and multiplicity * k for a lowering one (a contraction's eta^{mu mu} is
    left to the caller).  Index -1 reads the sentinel (-1, 0), so a
    composition that vanishes at either step comes out as (-1, 0).  No image
    is truncated on this domain.  Built on first use and kept on the basis.
    """
    table = basis.mode_tables.get((k, mu))
    if table is None:
        _check_mode(k, mu, basis)
        unit = (1,) * basis.directions
        cutoff = basis.cutoff
        index = basis.index
        packed, coeff = array("i"), array("i")
        for modes in basis.states[:basis.level_start[cutoff - abs(k) + 1]]:
            res = alpha_apply(modes, k, mu, unit, cutoff)
            packed.append(-1 if res is None else index[res[1]])
            coeff.append(0 if res is None else res[0])
        # below 2^15 in size, the screen's intc products and their differences are exact
        if max(map(abs, coeff)) >= 1 << 15:
            raise OverflowError(f"alpha_{k}^{mu} has a coefficient of 2^15 or more in size")
        packed.extend([-1, *coeff, 0])
        half = len(packed) // 2
        view = memoryview(packed)
        table = basis.mode_tables[k, mu] = (
            view[:half], view[half:], np.frombuffer(packed, dtype=np.intc).reshape(2, half))
    return table


def state_norm_factor(modes, signs):
    """Exact pairing of a monomial with itself.

    With a diagonal metric the monomial basis is orthogonal level by level
    and the diagonal entry is prod over distinct modes of mult! * (n * eta)^mult:
    in the sorted mode tuple, the k-th copy of a mode (n, mu) contributes
    k * n * eta^{mu mu}.
    """
    val = 1
    prev = None
    for mode in modes:
        k = k + 1 if mode == prev else 1
        prev = mode
        val *= k * mode[0] * signs[mode[1]]
    return val


class IndefiniteGram:
    """Exact inner-product matrix on a LevelBasis, block diagonal by level.

    In the unnormalized monomial basis the blocks come out diagonal, so the
    matrix is stored as its diagonal (:func:`state_norm_factor` of each
    state) plus the level bookkeeping.  Every pairing of internal vectors in
    the library goes through :meth:`level_pairings`.
    """

    def __init__(self, basis, metric):
        # the basis keeps its Grams: holding its levels, not the basis itself,
        # leaves no reference cycle, so a basis is freed as soon as it is dropped
        self.levels = basis.levels
        self.metric = metric
        signs = metric.signs
        self.diagonal = [state_norm_factor(m, signs) for m in basis.states]

    def level_pairings(self, u, v):
        """{level: <u, P_level v>} for sparse coefficient vectors, over the
        levels where the pairing is nonzero, levels ascending."""
        diag = self.diagonal
        levels = self.levels
        out = {}
        for i in u.keys() & v.keys():
            level = levels[i]
            out[level] = out.get(level, 0) + u[i] * diag[i] * v[i]
        return {level: w for level, w in sorted(out.items()) if w}


def gram(basis, metric):
    """Exact Gram matrix of the monomial basis for the given metric.

    Built once per (basis, metric) pair and kept on the basis.
    """
    g = basis.grams.get(metric)
    if g is None:
        g = basis.grams[metric] = IndefiniteGram(basis, metric)
    return g


def ccr_residual_entries(m, n, mu, nu, basis, metric):
    """Entries of [alpha_m^mu, alpha_n^nu] - m delta_{m+n} eta^{mu nu} Id on the safe columns.

    Composes the two modes' packed tables (:func:`mode_table`): from
    ``SCREEN_MIN`` safe columns on, a NumPy screen gathers both products on
    all of them at once and the column report below runs on the columns it
    flags only.  Each nonzero entry comes back as ``(column, modes,
    coefficient)``, in column order; an empty result means the residual is
    the exact zero matrix.
    """
    signs = metric.signs
    safe = basis.cutoff - abs(m) - abs(n)
    if safe < 0:
        return []
    expected = m * signs[mu] if m + n == 0 and mu == nu else 0
    image_m, coeff_m, rows_m = mode_table(m, mu, basis)
    image_n, coeff_n, rows_n = mode_table(n, nu, basis)
    # both products contract each lowering mode once, so they share one eta factor
    sign = (signs[mu] if m > 0 else 1) * (signs[nu] if n > 0 else 1)
    top = basis.level_start[safe + 1]
    columns = (_screen_columns(top, expected * sign, rows_m, rows_n)
               if top >= SCREEN_MIN else range(top))
    states = basis.states
    bad = []
    for j in columns:
        # a vanishing step reads the sentinel: image -1, coefficient 0
        i = image_n[j]
        a, x = image_m[i], sign * coeff_n[j] * coeff_m[i]
        i = image_m[j]
        b, y = image_n[i], sign * coeff_m[j] * coeff_n[i]
        if a == b and x == y and not expected:
            continue
        out = {a: x}
        out[b] = out.get(b, 0) - y
        if expected:
            out[j] = out.get(j, 0) - expected
        bad.extend((j, states[col], c) for col, c in out.items() if c)
    return bad


def ccr_suite(basis, metric):
    """Pass rows ``{"m", "n", "mu", "nu", "pass"}`` of every mode CCR with
    |m|, |n| >= 1 and |m| + |n| <= cutoff, in ``ccr-check`` order: |m|, |n|,
    the signs of m and n, mu, nu; a pair passes if its residual is empty."""
    top = basis.cutoff
    return [{"m": m, "n": n, "mu": mu, "nu": nu,
             "pass": not ccr_residual_entries(m, n, mu, nu, basis, metric)}
            for am in range(1, top + 1) for an in range(1, top - am + 1)
            for m in (am, -am) for n in (an, -an)
            for mu in range(basis.directions) for nu in range(basis.directions)]


def _screen_columns(top, expected, rows_m, rows_n):
    """The columns j < top whose residual may be nonzero, from the packed tables.

    One gather per product gives, per column, the image a and metric-free
    coefficient x of alpha_m alpha_n, and the b and y of alpha_n alpha_m.
    Without the identity term column j is clean where (a, x) == (b, y), so
    equal bytes clear every column at once; with it, if x - y is
    ``expected`` and each nonzero product lands on j.
    """
    first = rows_m.take(rows_n[0, :top], axis=1)
    first[1] *= rows_n[1, :top]
    second = rows_n.take(rows_m[0, :top], axis=1)
    second[1] *= rows_m[1, :top]
    if expected:
        (a, x), (b, y) = first, second
        j = np.arange(top)
        flagged = (x - y != expected) | ((x != 0) & (a != j)) | ((y != 0) & (b != j))
    elif first.tobytes() == second.tobytes():
        return []
    else:
        flagged = (first != second).any(axis=0)
    return np.flatnonzero(flagged).tolist()
