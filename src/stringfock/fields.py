"""Second quantization over the positive-energy one-string space.

The one-string space is discretized as quadrature grids over the positive
mass shells (tachyonic level excluded), valued in the exact internal level
slices.  Multi-string states live in a particle-number-truncated symmetric
Fock space over a finite dictionary of one-string vectors; field operators
are matrices on that space, and the canonical commutator is checked against
the independent time-domain propagator value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .oscillators import gram
from .propagator import InternalVector, _bump_transform, smeared_commutator
from .virasoro import apply_constraint_operator, mass_squared, scaled_momentum


@dataclass(frozen=True)
class ShellGrid:
    """Staggered midpoint momentum grid (d_cm = 2: one axis).

    Cell centers at (k + 1/2) dp keep the massless shell's omega = 0 point
    off the grid and place the integrand's kink at a cell boundary, where
    the midpoint rule keeps its second-order accuracy.
    """

    pmax: float
    n: int

    def __post_init__(self):
        if not self.pmax > 0:
            raise ValueError(f"shell grid pmax must be positive, got {self.pmax}")
        if not math.isfinite(self.pmax):
            raise ValueError(f"shell grid pmax must be finite, got {self.pmax}")
        if not self.n > 0:
            raise ValueError(f"shell grid point count n must be positive, got {self.n}")

    def points(self):
        dp = 2.0 * self.pmax / self.n
        return -self.pmax + (np.arange(self.n) + 0.5) * dp

    def weights(self):
        dp = 2.0 * self.pmax / self.n
        return np.full(self.n, dp)


def shell_energy(p, r):
    return np.sqrt(p * p + r)


@dataclass
class OneStringVector:
    """Vector in the positive-energy one-string space.

    ``internal`` is the exact internal vector; ``components`` maps each
    retained level, ascending, to its complex wave-function array over the
    shell grid.  The vector is the sum over those levels of the level
    projection of ``internal`` times the wave function.
    """

    internal: InternalVector
    components: dict
    shells: ShellGrid
    a: Fraction

    def level_r(self, level):
        return float(mass_squared(level, self.a))


def pi_plus(F, a, shells):
    """Project a test function onto the positive-energy one-string space.

    Per retained mass level the wave function is sqrt(2 pi) times the level
    projection of the spacetime transform evaluated on the positive shell;
    the tachyonic level is excluded, so a vacuum-only internal part maps to
    zero.  Only d_cm = 2 spacetime bumps are supported here.
    """
    if F.bump.d_cm != 2:
        raise NotImplementedError("positive-energy representation is built at d_cm = 2")
    p = shells.points()
    bx = _bump_transform(F.bump.space[0], p, -1.0)
    comps = {}
    for level in F.internal.by_level():
        r = mass_squared(level, a)
        if r < 0:
            continue
        omega = shell_energy(p, float(r))
        bt = _bump_transform(F.bump.time, omega, 1.0)
        wave = math.sqrt(2 * math.pi) * (2 * math.pi) ** (-1.0) * bt * bx
        comps[level] = wave
    return OneStringVector(F.internal, comps, shells, a)


def one_string_inner(u, v):
    """<u, v> on the positive-energy space: exact internal pairing times the
    shell quadrature with the invariant measure dp / (2 omega)."""
    if u.shells != v.shells:
        raise ValueError("one-string vectors live on different shell grids")
    g = gram(u.internal.basis, u.internal.metric)
    p = u.shells.points()
    w = u.shells.weights()
    total = 0.0 + 0.0j
    for level, pairing in g.level_pairings(u.internal.coeffs, v.internal.coeffs).items():
        if level in u.components and level in v.components:
            omega = shell_energy(p, u.level_r(level))
            quad = np.sum(w * np.conj(u.components[level]) * v.components[level]
                          / (2.0 * omega))
            total += complex(pairing) * quad
    return complex(total)


def _multisets(n_letters, max_size):
    out = []
    for size in range(max_size + 1):
        out.extend(combinations_with_replacement(range(n_letters), size))
    return out


def _symmetric_pairing(left, right, H):
    """<prod a*(l_i) vac, prod a*(r_j) vac> by recursive contraction."""
    if len(left) != len(right):
        return 0.0 + 0.0j
    if not left:
        return 1.0 + 0.0j
    first, rest = left[0], left[1:]
    total = 0.0 + 0.0j
    for j in range(len(right)):
        total += H[first][right[j]] * _symmetric_pairing(rest, right[:j] + right[j + 1:], H)
    return total


class MultiStringSpace:
    """Truncated symmetric Fock space over a finite one-string dictionary.

    States are multisets over the dictionary; creation above the particle
    cutoff maps to zero (documented truncation), so commutation relations
    are only asserted on states with at most cutoff - 1 particles.
    """

    def __init__(self, vectors, particle_cutoff):
        self.vectors = list(vectors)
        self.particle_cutoff = particle_cutoff
        n = len(self.vectors)
        self.H = [[one_string_inner(self.vectors[i], self.vectors[j]) for j in range(n)]
                  for i in range(n)]
        self.states = _multisets(n, particle_cutoff)
        self.index = {s: k for k, s in enumerate(self.states)}

    @property
    def dim(self):
        return len(self.states)

    def creation_matrix(self, i):
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k, s in enumerate(self.states):
            if len(s) >= self.particle_cutoff:
                continue
            target = tuple(sorted(s + (i,)))
            m[self.index[target], k] = 1.0
        return m

    def annihilation_matrix(self, i):
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k, s in enumerate(self.states):
            for pos in range(len(s)):
                if pos > 0 and s[pos] == s[pos - 1]:
                    continue
                letter = s[pos]
                target = s[:pos] + s[pos + 1:]
                mult = s.count(letter)
                m[self.index[target], k] += mult * self.H[i][letter]
        return m

    def phi(self, i):
        """Field operator a(v_i) + a*(v_i) as a matrix."""
        return self.creation_matrix(i) + self.annihilation_matrix(i)

    def gram_matrix(self):
        g = np.zeros((self.dim, self.dim), dtype=complex)
        for k, s in enumerate(self.states):
            for l, t in enumerate(self.states):
                if len(s) == len(t):
                    g[k, l] = _symmetric_pairing(s, t, self.H)
        return g

    def commutator_scalar(self, i, j):
        """Scalar value of [phi_i, phi_j] below the cutoff, plus the max
        deviation from scalarness on that subspace."""
        phi_i = self.phi(i)
        phi_j = self.phi(j)
        comm = phi_i @ phi_j - phi_j @ phi_i
        keep = [k for k, s in enumerate(self.states) if len(s) <= self.particle_cutoff - 1]
        block = comm[np.ix_(keep, keep)]
        scalar = block[0, 0]
        off = block - scalar * np.eye(len(keep))
        return complex(scalar), float(np.max(np.abs(off)))

    def hermiticity_defect(self, i):
        """|| G phi - phi^dagger G || for the indefinite multi-string pairing."""
        g = self.gram_matrix()
        p = self.phi(i)
        return float(np.max(np.abs(g @ p - p.conj().T @ g)))


def field_ccr_report(F, G, a, shells, particle_cutoff=3, propagator_kwargs=None):
    """Two independent routes to the smeared commutator, with diagnostics.

    Route one: the truncated Fock commutator of the field operators, whose
    scalar value comes from shell quadrature of the one-string pairings.
    Route two: -i <F, E G> from the time-domain propagator.  Reports both
    values, their relative mismatch, the deviation of the commutator from a
    scalar, and the hermiticity defect of phi(F).  The commutator is read on
    the states with fewer particles than ``particle_cutoff``, so a cutoff
    below 2, which leaves at most the vacuum, is a ValueError.
    """
    if particle_cutoff < 2:
        raise ValueError(f"particle cutoff must be at least 2, got {particle_cutoff}")
    for side in (F, G):
        if any(mass_squared(level, a) < 0 for level in side.internal.by_level()):
            raise ValueError("tachyonic internal components have no positive-energy "
                             "projection; drop them before the commutator comparison")
    vec_f = pi_plus(F, a, shells)
    vec_g = pi_plus(G, a, shells)
    space = MultiStringSpace([vec_f, vec_g], particle_cutoff)
    scalar, off = space.commutator_scalar(0, 1)
    kwargs = propagator_kwargs or {}
    reference = smeared_commutator(F, G, a, **kwargs)
    denom = max(abs(scalar), abs(reference))
    mismatch = abs(scalar - reference) / denom if denom > 0 else 0.0
    return {
        "fock_commutator": scalar,
        "propagator_commutator": reference,
        "relative_mismatch": mismatch,
        "offdiagonal_max": off,
        "hermiticity_defect": space.hermiticity_defect(0),
    }


def observable_check(F, a, shells, tol=1e-9):
    """Constraint residuals of the projected test function at shell nodes.

    For each retained level applies the positive-grading constraints at the
    on-shell momenta of every eighth shell node (embedded in the full
    dimension by zero padding) and reports the worst residual, scaled by the
    local wave amplitude.  Observable means every residual is at or below
    tolerance.
    """
    vec = pi_plus(F, a, shells)
    basis = vec.internal.basis
    signs = vec.internal.metric.signs
    d = basis.directions
    p_nodes = shells.points()
    by_level = vec.internal.by_level()
    worst = 0.0
    details = []
    for level, wave in vec.components.items():
        internal = by_level[level]
        r = vec.level_r(level)
        level_worst = 0.0
        for k in range(0, len(p_nodes), 8):
            amp = float(abs(wave[k]))
            if amp == 0.0:
                continue
            omega = float(shell_energy(p_nodes[k], r))
            # a float momentum is scaled by D = 2, so c / scale is exact
            scaled = scaled_momentum((omega, float(p_nodes[k])) + (0.0,) * (d - 2))
            scale = scaled[0]
            for m in range(1, level + 1):
                out = {}
                for state_idx, coeff in internal.items():
                    image = apply_constraint_operator(m, scaled, state_idx, basis, signs)
                    for i, c in image.items():
                        out[i] = out.get(i, 0.0) + float(coeff) * (c / scale)
                resid = math.sqrt(sum(abs(c) ** 2 for c in out.values())) * amp
                level_worst = max(level_worst, resid)
        details.append({"level": level, "r": r, "max_residual": level_worst})
        worst = max(worst, level_worst)
    return bool(worst <= tol), float(worst), details
