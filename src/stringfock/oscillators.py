"""Exact sparse realizations of the oscillator modes on a LevelBasis.

Matrix elements live in the rationals (complex rationals where the
position/momentum conversions introduce i); no square roots are ever
materialized.  Truncation semantics: a raising operator that would push a
state above the level cutoff maps it to zero, so algebraic identities are
only asserted on subspaces where that cannot happen.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction

from ._exact import IMAG_UNIT, _add_scaled, conjugate_scalar
from .basis import level_of


def apply_raising(modes, n, mu, cutoff):
    """Prepend a raising mode; None if the result exceeds the cutoff."""
    if level_of(modes) + n > cutoff:
        return None
    return tuple(sorted(modes + ((n, mu),)))


def apply_lowering(modes, n, mu, sign):
    """Contract a lowering mode against the monomial.

    Returns (coefficient, new_modes) or None.  The coefficient is
    multiplicity * n * eta^{mu mu}, straight from the mode commutator.
    """
    key = (n, mu)
    count = modes.count(key)
    if not count:
        return None
    i = modes.index(key)
    return count * n * sign, modes[:i] + modes[i + 1:]


def alpha_apply(modes, n, mu, signs, cutoff):
    """Apply the mode operator with index n (n < 0 raises, n > 0 lowers)."""
    if n < 0:
        res = apply_raising(modes, -n, mu, cutoff)
        if res is None:
            return None
        return 1, res
    return apply_lowering(modes, n, mu, signs[mu])


class SparseOperator:
    """Column-sparse exact operator on a LevelBasis."""

    __slots__ = ("basis", "cols")

    def __init__(self, basis):
        self.basis = basis
        self.cols = [dict() for _ in range(basis.dim)]

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
            _add_scaled(out, self.cols[j], x)
        return out

    def __matmul__(self, other):
        res = SparseOperator(self.basis)
        for j, col in enumerate(other.cols):
            if col:
                res.cols[j] = self.apply(col)
        return res

    def __add__(self, other):
        res = SparseOperator(self.basis)
        for j in range(self.dim):
            col = dict(self.cols[j])
            _add_scaled(col, other.cols[j], 1)
            res.cols[j] = col
        return res

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        res = SparseOperator(self.basis)
        if not scalar:
            return res
        for j in range(self.dim):
            res.cols[j] = {i: v * scalar for i, v in self.cols[j].items()}
        return res

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def transpose(self):
        res = SparseOperator(self.basis)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                res.cols[i][j] = v
        return res

    def is_zero(self):
        return all(not col for col in self.cols)

    def nnz(self):
        return sum(len(col) for col in self.cols)

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.cols == other.cols

    def __repr__(self):
        return f"SparseOperator(dim={self.dim}, nnz={self.nnz()})"


def _check_mode(n, mu, basis):
    if n == 0:
        raise ValueError("mode number 0 is the center-of-mass momentum, not an oscillator")
    if abs(n) > basis.cutoff:
        raise ValueError(f"|n| = {abs(n)} exceeds the level cutoff {basis.cutoff}")
    if not 0 <= mu < basis.directions:
        raise ValueError(f"direction {mu} out of range [0, {basis.directions})")


def alpha(n, mu, basis, metric=None):
    """Mode operator on the truncated basis (n < 0 raises, n > 0 lowers).

    ``metric`` supplies the eta factors picked up by contractions; omitting
    it means a Euclidean internal metric (the light-cone case).
    """
    _check_mode(n, mu, basis)
    signs = metric.signs if metric is not None else (1,) * basis.directions
    op = SparseOperator(basis)
    index = basis.index
    for j, modes in enumerate(basis.states):
        res = alpha_apply(modes, n, mu, signs, basis.cutoff)
        if res is not None:
            coeff, image = res
            op.cols[j] = {index[image]: coeff}
    return op


def mode_table(k, mu, basis):
    """The action of alpha_k^mu on the states of level <= cutoff - |k|, as index tables.

    Returns ``(image, coeff)``, two flat int arrays over those states:
    ``image[j]`` is the index of the image of state j, or -1 where it is
    zero; ``coeff[j]`` is the metric-free coefficient, 1 for a raising mode
    and multiplicity * k for a lowering one (a contraction's eta^{mu mu} is
    left to the caller).  No image is truncated on this domain.  Built on
    first use and kept on the basis.
    """
    table = basis.mode_tables.get((k, mu))
    if table is None:
        _check_mode(k, mu, basis)
        unit = (1,) * basis.directions
        cutoff = basis.cutoff
        index = basis.index
        image = array("i")
        coeff = array("i")
        for modes in basis.states[:basis.level_start[cutoff - abs(k) + 1]]:
            res = alpha_apply(modes, k, mu, unit, cutoff)
            if res is None:
                image.append(-1)
                coeff.append(0)
            else:
                image.append(index[res[1]])
                coeff.append(res[0])
        table = basis.mode_tables[k, mu] = (image, coeff)
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
        self.basis = basis
        self.metric = metric
        signs = metric.signs
        self.diagonal = [Fraction(state_norm_factor(m, signs)) for m in basis.states]

    def signature(self):
        """(n_plus, n_zero, n_minus) over the whole truncated space."""
        pos = sum(1 for v in self.diagonal if v > 0)
        neg = sum(1 for v in self.diagonal if v < 0)
        return pos, len(self.diagonal) - pos - neg, neg

    def level_pairings(self, u, v):
        """{level: <u, P_level v>} for sparse coefficient vectors, over the
        levels where the pairing is nonzero, levels ascending; conjugates the
        first slot."""
        diag = self.diagonal
        levels = self.basis.levels
        out = {}
        for i in u.keys() & v.keys():
            level = levels[i]
            out[level] = out.get(level, 0) + conjugate_scalar(u[i]) * diag[i] * v[i]
        return {level: w for level, w in sorted(out.items()) if w}

    def inner(self, u, v):
        """<u, v>, the sum of the level pairings (the Gram is block diagonal by level)."""
        return sum(self.level_pairings(u, v).values())

    def is_positive_definite(self):
        return all(v > 0 for v in self.diagonal)


def gram(basis, metric):
    """Exact Gram matrix of the monomial basis for the given metric.

    Built once per (basis, metric) pair and kept on the basis.
    """
    g = basis.grams.get(metric)
    if g is None:
        g = basis.grams[metric] = IndefiniteGram(basis, metric)
    return g


@dataclass(frozen=True)
class ScaledOperator:
    """An operator of the form matrix * sqrt(scale2), with scale2 rational.

    Irrational normalizations (the 1/sqrt(n) in the ladder conversions) are
    carried formally so that downstream products collapse back to exact
    rational operators whenever the combined scale2 is a perfect square.
    """

    matrix: SparseOperator
    scale2: Fraction

    def times(self, other):
        return ScaledOperator(self.matrix @ other.matrix, self.scale2 * other.scale2)

    def commutator(self, other):
        scale2 = self.scale2 * other.scale2
        return ScaledOperator(self.matrix @ other.matrix - other.matrix @ self.matrix, scale2)

    def exact(self):
        """Collapse to an exact SparseOperator; requires scale2 a rational square
        (a zero matrix collapses regardless of the formal scale)."""
        if self.matrix.is_zero():
            return self.matrix
        num = self.scale2.numerator
        den = self.scale2.denominator
        rn = _exact_isqrt(num)
        rd = _exact_isqrt(den)
        if rn is None or rd is None:
            raise ValueError(f"scale2 = {self.scale2} is not a perfect rational square")
        return self.matrix * Fraction(rn, rd)


def _exact_isqrt(n):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def ladder_from_alpha(n, k, basis):
    """Light-cone ladder pair (a_n^k, a_n^k*) as formal scaled operators.

    a_n = i alpha_n / sqrt(n) and a_n* = -i alpha_{-n} / sqrt(n); the sqrt
    stays formal.  Products such as the number operator alpha_{-n} alpha_n / n
    collapse to exact rational matrices via :meth:`ScaledOperator.exact`.
    """
    if n < 1:
        raise ValueError("ladder mode number must be >= 1")
    if n > basis.cutoff:
        raise ValueError(f"mode {n} exceeds the level cutoff {basis.cutoff}")
    low = alpha(n, k, basis)
    high = alpha(-n, k, basis)
    a_op = ScaledOperator(low * IMAG_UNIT, Fraction(1, n))
    a_dag = ScaledOperator(high * (-IMAG_UNIT), Fraction(1, n))
    return a_op, a_dag


def position_operator(n, k, basis):
    """x_n^k = (2n)^(-1/2) (a* + a) as a formal scaled operator."""
    low = alpha(n, k, basis)
    high = alpha(-n, k, basis)
    return ScaledOperator((low - high) * IMAG_UNIT, Fraction(1, 2 * n * n))


def momentum_operator(n, k, basis):
    """p_n^k = i (n/2)^(1/2) (a* - a) as a formal scaled operator."""
    low = alpha(n, k, basis)
    high = alpha(-n, k, basis)
    return ScaledOperator(low + high, Fraction(1, 2))


def number_operator(n, k, basis):
    """n a_n* a_n = alpha_{-n} alpha_n, exact."""
    a_op, a_dag = ladder_from_alpha(n, k, basis)
    return a_dag.times(a_op).exact() * n


def commutator(op_a, op_b):
    return op_a @ op_b - op_b @ op_a


def ccr_residual_entries(m, n, mu, nu, basis, metric):
    """Entries of [alpha_m^mu, alpha_n^nu] - m delta_{m+n} eta^{mu nu} Id on the safe columns.

    Composes the two modes' index tables (:func:`mode_table`) column by
    column over the safe-level states; each nonzero entry comes back as
    ``(column, modes, coefficient)``, and an empty result means the
    residual is the exact zero matrix.
    """
    signs = metric.signs
    safe = basis.cutoff - abs(m) - abs(n)
    if safe < 0:
        return []
    expected = m * signs[mu] if m + n == 0 and mu == nu else 0
    image_m, coeff_m = mode_table(m, mu, basis)
    image_n, coeff_n = mode_table(n, nu, basis)
    # both products contract each lowering mode once, so they share one eta factor
    sign = (signs[mu] if m > 0 else 1) * (signs[nu] if n > 0 else 1)
    states = basis.states
    bad = []
    for j in range(basis.level_start[safe + 1]):
        i = image_n[j]
        a = image_m[i] if i >= 0 else -1
        x = sign * coeff_n[j] * coeff_m[i] if a >= 0 else 0
        i = image_m[j]
        b = image_n[i] if i >= 0 else -1
        y = sign * coeff_m[j] * coeff_n[i] if b >= 0 else 0
        if a == b and x == y and not expected:
            continue
        out = {}
        if a >= 0:
            out[a] = x
        if b >= 0:
            out[b] = out.get(b, 0) - y
        if expected:
            out[j] = out.get(j, 0) - expected
        bad.extend((j, states[col], c) for col, c in out.items() if c)
    return bad


def adjointness_residual(n, mu, basis, metric):
    """Exact check that the raising mode is the Gram adjoint of the lowering mode.

    Returns the first violating triple (i, j, lhs - rhs) or None.  Compares
    <alpha_{-n} u, v> with <u, alpha_n v> for basis states of matching level;
    n >= 1.
    """
    if n < 1:
        raise ValueError(f"lowering mode number must be >= 1, got {n}")
    g = gram(basis, metric)
    raise_op = alpha(-n, mu, basis, metric)
    lower_op = alpha(n, mu, basis, metric)
    for j in range(basis.level_start[n], basis.dim):
        for i in basis.level_slice(basis.levels[j] - n):
            lhs = g.inner(raise_op.cols[i], {j: 1})
            rhs = g.inner({i: 1}, lower_op.cols[j])
            if lhs != rhs:
                return i, j, lhs - rhs
    return None
