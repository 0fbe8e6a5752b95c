"""Level-truncated enumeration of the one-string oscillator basis.

A basis state is an unnormalized monomial of raising modes applied to the
vacuum, recorded as a tuple of (mode_number, direction) pairs sorted
ascending; the empty tuple is the vacuum.  States are ordered by (level,
lexicographic on the mode tuple), which makes indices reproducible across
gauges and runs.
"""

from __future__ import annotations

import math


def level_of(modes):
    return sum(n for n, _ in modes)


def level_degeneracy(level, colors):
    """Number of level-``level`` states with ``colors`` oscillator directions.

    Exact integer coefficient of q^level in prod_n (1 - q^n)^(-colors),
    accumulated by multiplying the series one mode number at a time.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if colors < 1:
        raise ValueError("colors must be >= 1")
    coeffs = [0] * (level + 1)
    coeffs[0] = 1
    for n in range(1, level + 1):
        nxt = [0] * (level + 1)
        for base, c in enumerate(coeffs):
            if not c:
                continue
            j = 0
            while base + n * j <= level:
                nxt[base + n * j] += c * math.comb(j + colors - 1, colors - 1)
                j += 1
        coeffs = nxt
    return coeffs[level]


def _states(level, letters, first=0):
    """Every level-``level`` state made of ``letters[first:]``, ascending.

    A state is a non-decreasing sequence of (n, mu) letters whose n sum to
    the level, and ``letters`` lists the letters in ascending order: pick
    the first letter in ascending order, then the rest from that letter on,
    so the states come out in ascending tuple order and share the letters.
    """
    if level == 0:
        yield ()
        return
    for i in range(first, len(letters)):
        if letters[i][0] > level:
            return
        for rest in _states(level - letters[i][0], letters, i):
            yield (letters[i],) + rest


class LevelBasis:
    """Ordered, indexed list of all states up to the level cutoff."""

    def __init__(self, directions, cutoff):
        if directions < 1:
            raise ValueError("directions must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.directions = directions
        self.cutoff = cutoff
        self.states = []
        self.levels = []
        self.level_start = [0]
        letters = [(n, mu) for n in range(1, cutoff + 1) for mu in range(directions)]
        for level in range(cutoff + 1):
            block = list(_states(level, letters))
            self.states.extend(block)
            self.levels.extend([level] * len(block))
            self.level_start.append(len(self.states))
        self.index = {modes: i for i, modes in enumerate(self.states)}
        # filled on first use by oscillators.mode_table (per (k, mu), one packed
        # int buffer and its views), oscillators.gram and virasoro._constraint_table
        self.mode_tables = {}
        self.grams = {}
        self.constraint_tables = {}

    @property
    def dim(self):
        return len(self.states)

    def level_slice(self, level):
        return range(self.level_start[level], self.level_start[level + 1])

    def level_dim(self, level):
        return self.level_start[level + 1] - self.level_start[level]

    def __repr__(self):
        return f"LevelBasis(directions={self.directions}, cutoff={self.cutoff}, dim={self.dim})"


def enumerate_basis(directions, cutoff):
    """All colored-partition states of level <= cutoff, deterministically ordered."""
    return LevelBasis(directions, cutoff)


def per_level_counts(basis):
    return [(level, basis.level_dim(level)) for level in range(basis.cutoff + 1)]
