from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringfock import oscillators, physical, virasoro
from stringfock._exact import restrict_quadratic_form
from stringfock.basis import enumerate_basis, level_degeneracy
from stringfock.config import minkowski_metric
from stringfock.physical import (ghost_probe, noghost_report, quotient_inertia,
                                 solve_constraints)
from stringfock.virasoro import (OnShellMomentum, apply_constraint_operator,
                                 scaled_momentum, standard_onshell_momentum,
                                 virasoro_bracket_residual)

from oracles import sparse_nullspace as rref_nullspace
from oracles import tuple_constraint_rows


def null_p26():
    return (Fraction(1), Fraction(1)) + (Fraction(0),) * 24


def radical_orthogonality_defect(solution):
    """Max |<radical vector, H' vector>| over all pairs; exact zero expected.

    The pairings are the radical rows of the Gram restricted to the radical
    followed by H', in the H' columns.
    """
    radical = solution.radical_basis
    rows = restrict_quadratic_form(solution.gram_diagonal,
                                   radical + solution.basis_of_Hprime)
    return max((abs(x) for row in rows[:len(radical)] for j, x in row.items()
                if j >= len(radical)), default=Fraction(0))


def test_tachyon_level_is_trivially_physical():
    mom = OnShellMomentum(r=Fraction(-2),
                          p=(Fraction(1), Fraction(1), Fraction(1), Fraction(1))
                          + (Fraction(0),) * 22)
    sol = solve_constraints(mom, enumerate_basis(26, 0), 1)
    assert sol.dim_Hprime == 1
    assert sol.gram_on_Hprime == [{0: Fraction(1)}]
    assert sol.dim_radical == 0
    assert sol.quotient_signature == (1, 0, 0)


def test_photon_sector_counts_and_radical():
    mom = OnShellMomentum(r=Fraction(0), p=null_p26())
    sol = solve_constraints(mom, enumerate_basis(26, 1), 1)
    assert quotient_inertia(mom, enumerate_basis(26, 1), 1) == (25, 1, (24, 0, 0))
    assert sol.dim_Hprime == 25
    assert sol.dim_radical == 1
    assert sol.dim_phys == 24
    assert sol.quotient_signature == (24, 0, 0)
    # the radical is the longitudinal state: coefficients proportional to the
    # lowered momentum (-p^0, p^1, 0, ...) over the level-1 slice
    vec = sol.radical_basis[0]
    support = {c: v for c, v in vec.items()}
    scale = support[1]
    assert support == {0: -scale, 1: scale}
    assert radical_orthogonality_defect(sol) == 0


def test_zero_momentum_rejected_for_photon_level():
    p0 = (Fraction(0),) * 26
    with pytest.raises(ValueError):
        solve_constraints(OnShellMomentum(r=Fraction(0), p=p0), enumerate_basis(26, 1), 1)


def test_off_shell_momentum_rejected():
    bad = (Fraction(2), Fraction(1)) + (Fraction(0),) * 24
    with pytest.raises(ValueError):
        solve_constraints(OnShellMomentum(r=Fraction(0), p=bad), enumerate_basis(26, 1), 1)


def test_mass_level_not_in_spectrum_rejected():
    p = (Fraction(1),) + (Fraction(0),) * 25
    with pytest.raises(ValueError, match="mass level r = 1 is not in the spectrum"):
        solve_constraints(OnShellMomentum(r=Fraction(1), p=p), enumerate_basis(26, 1), 1)


def test_level_two_frozen_dimensions():
    # frozen from the exact solve: 350 constrained, 26 null, 324 physical
    mom = standard_onshell_momentum(2, 26)
    sol = solve_constraints(mom, enumerate_basis(26, 2), 1)
    assert (sol.dim_Hprime, sol.dim_radical, sol.dim_phys) == (350, 26, 324)
    assert sol.quotient_signature == (324, 0, 0)
    assert sol.dim_phys == level_degeneracy(2, 24)


def test_basis_with_other_directions_rejected():
    mom = standard_onshell_momentum(2, 14)
    for route in (solve_constraints, quotient_inertia):
        for directions in (12, 16):
            message = f"momentum has 14 components, basis has {directions} directions"
            with pytest.raises(ValueError, match=message):
                route(mom, enumerate_basis(directions, 2), 1)


def test_basis_below_the_level_rejected():
    for route in (solve_constraints, quotient_inertia):
        with pytest.raises(ValueError, match="basis cutoff 1 is below the level 2"):
            route(standard_onshell_momentum(2, 26), enumerate_basis(26, 1), 1)


def test_constraint_solutions_satisfy_the_constraints():
    mom = standard_onshell_momentum(2, 26)
    basis = enumerate_basis(26, 2)
    sol = solve_constraints(mom, basis, 1)
    signs = minkowski_metric(26).signs
    offset = basis.level_start[2]
    scaled = scaled_momentum(mom.p)
    for vec in sol.basis_of_Hprime[:20]:
        for m in (1, 2):
            out = {}
            for c, coeff in vec.items():
                image = apply_constraint_operator(m, scaled, offset + c, basis, signs)
                for mm, v in image.items():
                    out[mm] = out.get(mm, 0) + coeff * v
            assert all(v == 0 for v in out.values())


def test_quotient_signature_is_momentum_independent():
    p_alt = (Fraction(3), Fraction(1), Fraction(1), Fraction(2), Fraction(1)) \
        + (Fraction(0),) * 21
    sig_std = ghost_probe(2, standard_onshell_momentum(2, 26), 26, 1)
    sig_alt = ghost_probe(2, OnShellMomentum(r=Fraction(2), p=p_alt), 26, 1)
    assert sig_std == sig_alt == (324, 0, 0)


def test_ghost_probe_d27_frozen_regression():
    # frozen from the exact solve before asserting: one ghost direction
    sig = ghost_probe(2, standard_onshell_momentum(2, 27), 27, 1)
    assert sig == (350, 0, 1)
    assert sig[2] >= 1


def test_noghost_report_matches_lightcone_counts():
    rows = noghost_report(26, Fraction(1), 2)
    assert [r["dim_phys"] for r in rows] == [1, 24, 324]
    assert all(r["match"] for r in rows)
    assert all(r["signature"][1] == 0 and r["signature"][2] == 0 for r in rows)


def test_noghost_report_flags_noncritical_dimension():
    rows = noghost_report(27, Fraction(1), 2)
    assert not rows[2]["match"]
    assert rows[2]["signature"][2] >= 1


def test_half_intercept_solve_frozen():
    # a = 1/2 at d = 3, level 2 (r = 3, p = (5/2, 3/2, 1)), frozen from the
    # Fraction-column route: no radical off a = 1, and a positive quotient
    sol = solve_constraints(standard_onshell_momentum(2, 3, Fraction(1, 2)),
                            enumerate_basis(3, 2), Fraction(1, 2))
    F = Fraction
    assert sol.basis_of_Hprime == [
        {4: F(1), 0: F(3, 8), 1: F(-17, 20), 2: F(-3, 5), 3: F(3, 8)},
        {5: F(1), 0: F(-5, 16), 1: F(63, 40), 2: F(-4, 5), 3: F(-21, 16)},
        {6: F(1), 0: F(-55, 16), 1: F(81, 8), 3: F(-135, 16)},
        {7: F(1), 0: F(-21, 16), 1: F(35, 8), 3: F(-69, 16)},
        {8: F(1), 0: F(-7, 8), 1: F(69, 20), 2: F(-4, 5), 3: F(-23, 8)},
    ]
    assert sol.radical_basis == []
    assert sol.quotient_signature == (5, 0, 0)


def _full_route(momentum, basis, a):
    sol = solve_constraints(momentum, basis, a)
    return sol.dim_Hprime, sol.dim_radical, sol.quotient_signature


@pytest.mark.parametrize("d, level, a", [
    *((d, level, 1) for d in (4, 5, 6, 8) for level in range(1, 5) if (d, level) != (8, 4)),
    (14, 3, 1),
    (26, 3, 1),
    (3, 2, Fraction(1, 2)),
    (5, 3, Fraction(1, 2)),
])
def test_quotient_inertia_matches_the_full_route(d, level, a):
    mom = standard_onshell_momentum(level, d, a)
    basis = enumerate_basis(d, level)
    assert quotient_inertia(mom, basis, a) == _full_route(mom, basis, a)


@pytest.mark.parametrize("d, level", [(26, 3), (14, 3), (27, 2), (10, 4), (4, 4)])
def test_kernel_matches_the_rref_oracle_on_constraint_rows(d, level):
    # 404 rows by 3978 columns at d = 26 level 3; entry order included
    rows, diag = physical._constraint_rows(standard_onshell_momentum(level, d),
                                           enumerate_basis(d, level), 1)
    got = physical.sparse_nullspace(rows, len(diag))
    want = rref_nullspace(rows, len(diag))
    assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


@st.composite
def spread_momenta(draw):
    """An on-shell momentum at levels 1-3 in d = 4..7 whose spatial part has
    a drawn support: small rationals q_i on some directions, then p^0 and
    one more direction j solve p0^2 - p_j^2 = r + sum q_i^2."""
    d = draw(st.integers(min_value=4, max_value=7))
    level = draw(st.integers(min_value=1, max_value=3))
    j = draw(st.integers(min_value=1, max_value=d - 1))
    values = st.sampled_from((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)))
    p = [Fraction(0)] + [Fraction(draw(values)) for _ in range(d - 1)]
    p[j] = Fraction(0)
    s = 2 * level - 2 + sum(x * x for x in p[1:])
    t = Fraction(draw(st.sampled_from((1, 2, 3))))
    p[0], p[j] = (s / t + t) / 2, (s / t - t) / 2
    return level, OnShellMomentum(r=Fraction(2 * level - 2), p=tuple(p))


@settings(max_examples=20, deadline=None)
@given(spread_momenta())
def test_quotient_inertia_matches_the_full_route_on_drawn_momenta(case):
    level, mom = case
    basis = enumerate_basis(len(mom.p), level)
    assert quotient_inertia(mom, basis, 1) == _full_route(mom, basis, 1)


def test_quotient_inertia_d27_level_four_frozen_regression():
    # frozen from the count-only route before asserting (the full route does
    # not run at this size in test time); the 377 ghost directions continue
    # the d = 27 pattern level_degeneracy(N - 2, 26) of levels 2 and 3
    mom = standard_onshell_momentum(4, 27)
    assert quotient_inertia(mom, enumerate_basis(27, 4), 1) == (33930, 3978, (29575, 0, 377))


def _solve_rows(monkeypatch, momentum, basis, a):
    """The rows ``solve_constraints`` hands to the nullspace, divided by the
    scale D of :func:`scaled_momentum` (they are the integer rows D L_m)."""
    seen = []
    nullspace = physical.sparse_nullspace

    def record(rows, ncols):
        seen.append(rows)
        return nullspace(rows, ncols)

    monkeypatch.setattr(physical, "sparse_nullspace", record)
    solve_constraints(momentum, basis, a)
    monkeypatch.setattr(physical, "sparse_nullspace", nullspace)
    scale = scaled_momentum(momentum.p)[0]
    return [{c: Fraction(x, scale) for c, x in row.items()} for row in seen[0]]


def test_rows_follow_a_corrupted_mode_action(monkeypatch, corrupted_alpha_apply):
    # the integer rows and the Fraction oracle rows read the same corrupted
    # lowering action, agree on it, and differ from the rows of the true one
    mom = standard_onshell_momentum(3, 4)
    clean = tuple_constraint_rows(mom, enumerate_basis(4, 3), 3)
    assert _solve_rows(monkeypatch, mom, enumerate_basis(4, 3), 1) == clean
    monkeypatch.setattr(virasoro, "alpha_apply", corrupted_alpha_apply)
    monkeypatch.setattr(oscillators, "alpha_apply", corrupted_alpha_apply)
    basis = enumerate_basis(4, 3)
    rows = _solve_rows(monkeypatch, mom, basis, 1)
    assert rows == tuple_constraint_rows(mom, basis, 3)
    assert rows != clean


def test_constraint_columns_keep_the_mode_tables_truncated():
    # the columns read raising modes from the mode tables as built, on the
    # levels <= cutoff - |k|; a full-domain table would cost ~22 MB on the
    # d = 26 cutoff-4 basis.  The constraint tables cover the same domains
    # and are free of the momentum, so a second momentum adds no table
    basis = enumerate_basis(4, 4)
    metric = minkowski_metric(4)
    mom = standard_onshell_momentum(3, 4)
    virasoro_bracket_residual(-1, -2, mom, basis, metric)
    virasoro_bracket_residual(2, -1, mom, basis, metric)
    solve_constraints(mom, basis, 1)
    assert basis.mode_tables
    for (k, mu), (image, coeff, rows) in basis.mode_tables.items():
        # the L entries of the domain, then the sentinel (-1, 0), in one buffer
        length = basis.level_start[basis.cutoff - abs(k) + 1]
        assert len(image) == len(coeff) == length + 1, (k, mu)
        assert rows.shape == (2, length + 1) and (image[-1], coeff[-1]) == (-1, 0), (k, mu)
        assert np.shares_memory(rows, np.asarray(image)), (k, mu)
        assert np.shares_memory(rows, np.asarray(coeff)), (k, mu)
    keys = set(basis.constraint_tables)
    assert keys == {(k, metric.signs) for k in (-3, -2, -1, 1, 2)}
    for (k, signs), (image, coeff) in basis.constraint_tables.items():
        length = basis.level_start[basis.cutoff - abs(k) + 1]
        assert image.shape == coeff.shape and len(image) == length, k
    other = OnShellMomentum(r=mom.r, p=tuple(map(Fraction, (3, 0, 1, 2))))
    assert other.p != mom.p
    virasoro_bracket_residual(-1, -2, other, basis, metric)
    virasoro_bracket_residual(2, -1, other, basis, metric)
    assert set(basis.constraint_tables) == keys

