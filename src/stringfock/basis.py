"""Level-truncated enumeration of the one-string oscillator basis.

A basis state is an unnormalized monomial of raising modes applied to the
vacuum, recorded as a tuple of (mode_number, direction) pairs sorted
ascending; the empty tuple is the vacuum.  States are ordered by (level,
lexicographic on the mode tuple), which makes indices reproducible across
gauges and runs.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement


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


class LevelBasis:
    """Ordered, indexed list of all states up to the level cutoff."""

    def __init__(self, directions, cutoff):
        if directions < 1:
            raise ValueError("directions must be >= 1")
        if cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.directions = directions
        self.cutoff = cutoff
        states = []
        self.level_start = [0]
        for level in range(cutoff + 1):
            block = sorted(set(_colored_partitions(level, directions)))
            states.extend(block)
            self.level_start.append(len(states))
        self.states = states
        self.index = {modes: i for i, modes in enumerate(states)}
        self.levels = [level_of(m) for m in states]
        # filled on first use by oscillators.mode_table and oscillators.gram
        self.mode_tables = {}
        self.grams = {}

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
