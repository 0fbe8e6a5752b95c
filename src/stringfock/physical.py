"""Constraint counts per mass level: dim H', its radical and the quotient
signature, read off the constraint rows with no basis of H' built.

Everything here is exact rational linear algebra; ghost versus no-ghost is
a sign question and gets no tolerance.  Only the constraints with positive
grading up to the level are imposed, since higher gradings annihilate the
level slice identically.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._exact import restrict_quadratic_form, signature_symmetric, sparse_rank
# perfbench/spans.py wraps physical.sparse_nullspace by name
from ._exact import sparse_nullspace  # noqa: F401
from .basis import enumerate_basis, level_degeneracy
from .config import minkowski_metric
from .oscillators import gram
from .virasoro import (apply_constraint_operator, level_of_mass, mass_squared,
                       scaled_momentum, standard_onshell_momentum)


def _constraint_rows(momentum, basis, a):
    """The integer constraint rows of the level slice and its Gram diagonal.

    The level is the one whose mass level is ``momentum.r``; ``basis`` has
    one direction per momentum component and reaches that level.  The rows
    are D L_m for m = 1..level (D from :func:`scaled_momentum`), one
    {slice column: int} row per image state, image states ascending; D > 0
    changes neither their kernel nor any inertia.  The diagonal maps each
    slice column to its Gram weight, which is never zero.
    """
    level = level_of_mass(momentum.r, a)
    if len(momentum.p) != basis.directions:
        raise ValueError(f"momentum has {len(momentum.p)} components, "
                         f"basis has {basis.directions} directions")
    if basis.cutoff < level:
        raise ValueError(f"basis cutoff {basis.cutoff} is below the level {level}")
    metric = minkowski_metric(basis.directions)
    signs = metric.signs

    columns = basis.level_slice(level)
    scaled = scaled_momentum(momentum.p)
    rows = []
    for m in range(1, level + 1):
        row_map = {}
        for c, j in enumerate(columns):
            image = apply_constraint_operator(m, scaled, j, basis, signs)
            for i, coeff in image.items():
                row_map.setdefault(i, {})[c] = coeff
        rows.extend(row_map[i] for i in sorted(row_map))
    g = gram(basis, metric)
    return rows, {c: g.diagonal[j] for c, j in enumerate(columns)}


def quotient_inertia(momentum, basis, a):
    """(dim H', dim radical, quotient signature) without a basis of H'.

    The counts are read off the constraint rows C (m of them, rank rho) and
    the slice's diagonal Gram G.  The bordered matrix K = [[G, C^T], [C, 0]]
    has, by the Schur complement on its invertible block G, the inertia
    In(G) + In(-C G^-1 C^T); reduced onto ker C = H' instead, it has
    In(G|H') + (rho, m - rho, rho).  The m x m matrix S = C diag(L/G) C^T,
    with L = lcm |G_k| so that its weights are integers, is L C G^-1 C^T;
    with (s+, s0, s-) its inertia,

        dim H' = width - rho,     radical = s0 - (m - rho),
        n+ = #{G_k > 0} + s- - rho,     n- = #{G_k < 0} + s+ - rho.
    """
    rows, diag = _constraint_rows(momentum, basis, a)
    weights = list(diag.values())
    lcm = math.lcm(*weights)
    rank = sparse_rank(rows)
    s_plus, s_zero, s_minus = signature_symmetric(
        restrict_quadratic_form([lcm // w for w in weights], rows))
    g_plus = sum(1 for w in weights if w > 0)
    return (len(weights) - rank, s_zero - (len(rows) - rank),
            (g_plus + s_minus - rank, 0, len(weights) - g_plus + s_plus - rank))


def ghost_probe(r, momentum, d, a):
    """Quotient signature at mass level r for arbitrary (d, a)."""
    if momentum.r != Fraction(r):
        raise ValueError(f"momentum carries r = {momentum.r}, expected {r}")
    basis = enumerate_basis(d, level_of_mass(r, a))
    return quotient_inertia(momentum, basis, a)[2]


def noghost_report(d, a, max_level, momenta=None):
    """Per-level constraint report with the light-cone degeneracy comparison.

    Each row records dim H', the radical dimension, the physical dimension,
    the quotient signature, and whether the quotient is positive definite
    with the transverse (d - 2 color) degeneracy.
    """
    basis = enumerate_basis(d, max_level)
    rows = []
    for level in range(max_level + 1):
        r = mass_squared(level, a)
        if momenta and level in momenta:
            mom = momenta[level]
        else:
            mom = standard_onshell_momentum(level, d, a)
        if mom.r != r:
            raise ValueError(f"momentum for level {level} carries r = {mom.r}, expected {r}")
        dim_hprime, dim_radical, (npos, nzero, nneg) = quotient_inertia(mom, basis, a)
        dim_phys = dim_hprime - dim_radical
        lc_deg = level_degeneracy(level, d - 2) if d > 2 else None
        rows.append({
            "level": level,
            "r": r,
            "dim_Hprime": dim_hprime,
            "dim_radical": dim_radical,
            "dim_phys": dim_phys,
            "signature": (npos, nzero, nneg),
            "lightcone_degeneracy": lc_deg,
            "match": bool(nneg == 0 and nzero == 0 and lc_deg == dim_phys),
        })
    return rows

