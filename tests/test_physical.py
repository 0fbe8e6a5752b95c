from fractions import Fraction

import pytest

from stringfock import oscillators, physical, virasoro
from stringfock.basis import enumerate_basis, level_degeneracy
from stringfock.config import minkowski_metric
from stringfock.physical import (ghost_probe, noghost_report,
                                 radical_orthogonality_defect, solve_constraints)
from stringfock.virasoro import (OnShellMomentum, apply_constraint_operator,
                                 scaled_momentum, standard_onshell_momentum,
                                 virasoro_bracket_residual)

from oracles import tuple_constraint_rows


def null_p26():
    return (Fraction(1), Fraction(1)) + (Fraction(0),) * 24


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
    sol = solve_constraints(OnShellMomentum(r=Fraction(0), p=null_p26()),
                            enumerate_basis(26, 1), 1)
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
    for directions in (12, 16):
        message = f"momentum has 14 components, basis has {directions} directions"
        with pytest.raises(ValueError, match=message):
            solve_constraints(mom, enumerate_basis(directions, 2), 1)


def test_basis_below_the_level_rejected():
    with pytest.raises(ValueError, match="basis cutoff 1 is below the level 2"):
        solve_constraints(standard_onshell_momentum(2, 26), enumerate_basis(26, 1), 1)


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


def _solve_rows(monkeypatch, momentum, basis, a):
    """The rows ``solve_constraints`` hands to the nullspace."""
    seen = []
    nullspace = physical.sparse_nullspace

    def record(rows, ncols):
        seen.append(rows)
        return nullspace(rows, ncols)

    monkeypatch.setattr(physical, "sparse_nullspace", record)
    solve_constraints(momentum, basis, a)
    monkeypatch.setattr(physical, "sparse_nullspace", nullspace)
    return seen[0]


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
    # d = 26 cutoff-4 basis
    basis = enumerate_basis(4, 4)
    metric = minkowski_metric(4)
    mom = standard_onshell_momentum(3, 4)
    virasoro_bracket_residual(-1, -2, mom, basis, metric)
    virasoro_bracket_residual(2, -1, mom, basis, metric)
    solve_constraints(mom, basis, 1)
    assert basis.mode_tables
    for (k, mu), (image, coeff) in basis.mode_tables.items():
        length = basis.level_start[basis.cutoff - abs(k) + 1]
        assert len(image) == len(coeff) == length, (k, mu)

