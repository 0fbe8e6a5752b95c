from fractions import Fraction

import pytest

from stringfock import oscillators, virasoro
from stringfock.basis import enumerate_basis
from stringfock.config import minkowski_metric
from stringfock.virasoro import (OnShellMomentum, apply_constraint_operator, build_M2,
                                 central_term, fit_central_coefficient,
                                 lorentz_square, mass_spectrum,
                                 scaled_momentum, standard_onshell_momentum,
                                 virasoro_bracket_residual)

from oracles import (SparseOperator, alpha, build_Lm, bruteforce_constraint_matrix,
                     hermiticity_residual, loop_virasoro_bracket_residual,
                     tuple_constraint_column)


def tachyon_momentum(d):
    p = (Fraction(1), Fraction(1), Fraction(1), Fraction(1)) + (Fraction(0),) * (d - 4)
    return OnShellMomentum(r=Fraction(-2), p=p)


def null_momentum(d):
    p = (Fraction(1), Fraction(1)) + (Fraction(0),) * (d - 2)
    return OnShellMomentum(r=Fraction(0), p=p)


def test_onshell_validation():
    with pytest.raises(ValueError):
        OnShellMomentum(r=Fraction(0), p=(Fraction(1), Fraction(2)))
    with pytest.raises(ValueError):
        # r >= 0 needs p^0 > 0
        OnShellMomentum(r=Fraction(0), p=(Fraction(-1), Fraction(1)))
    mom = standard_onshell_momentum(2, 26)
    assert lorentz_square(mom.p) + mom.r == 0


def test_L0_on_vacuum_hits_tachyon_shell(small_cov_basis, small_cov_metric):
    mom = tachyon_momentum(4)
    op = build_Lm(0, mom, small_cov_basis, small_cov_metric)
    vac = small_cov_basis.index[()]
    assert op.cols[vac] == {vac: Fraction(1)}   # p^2/2 = 1, so L0 - a kills it at a = 1


def test_L0_oscillator_part_is_level(small_cov_basis, small_cov_metric):
    mom = null_momentum(4)
    op = build_Lm(0, mom, small_cov_basis, small_cov_metric)
    for j in small_cov_basis.level_slice(2):
        assert op.cols[j] == {j: Fraction(2)}   # p^2 = 0, eigenvalue = level


def test_L1_photon_condition(cov26_basis_n2, cov26_metric):
    # the level-one state with coefficients c_mu is annihilated exactly when
    # sum_mu p^mu c_mu = 0 (the paper's lower-index polarization condition)
    basis, metric = cov26_basis_n2, cov26_metric
    mom = null_momentum(26)
    l1 = build_Lm(1, mom, basis, metric)
    vac = basis.index[()]
    transverse = basis.index[((1, 2),)]
    assert l1.cols[transverse] == {}
    spatial = basis.index[((1, 1),)]
    assert l1.cols[spatial] == {vac: Fraction(1)}
    timelike = basis.index[((1, 0),)]
    assert l1.cols[timelike] == {vac: Fraction(1)}
    # the longitudinal combination (coefficients -1, +1 at p = (1,1,0,...))
    # is annihilated: p^0 (-1) + p^1 (+1) = 0
    vec = l1.apply({timelike: Fraction(-1), spatial: Fraction(1)})
    assert vec == {}


def test_Lm_annihilates_vacuum(small_cov_basis, small_cov_metric):
    mom = tachyon_momentum(4)
    vac = small_cov_basis.index[()]
    for m in (1, 2, 3):
        op = build_Lm(m, mom, small_cov_basis, small_cov_metric)
        assert op.cols[vac] == {}


def test_Lm_matches_bruteforce_matrix_composition(small_cov_basis, small_cov_metric):
    mom = standard_onshell_momentum(2, 4)
    for m in (-2, -1, 1, 2):
        direct = build_Lm(m, mom, small_cov_basis, small_cov_metric)
        brute = bruteforce_constraint_matrix(m, mom, small_cov_basis, small_cov_metric)
        # brute-force products truncate harder near the cutoff; compare on
        # columns where no intermediate state can overflow
        safe = small_cov_basis.cutoff - max(abs(m), 2) - 1
        for j in range(small_cov_basis.level_start[safe + 1]):
            assert direct.cols[j] == brute.cols[j], (m, j)


@pytest.mark.parametrize("signs", [(1, 1), (-1, 1), (1, 1, 1), (-1, 1, 1), (-1, 1, -1),
                                   (1, 1, 1, 1), (-1, 1, 1, 1)])
def test_constraint_columns_match_tuple_route(signs):
    # every column of every L_m, |m| <= cutoff, divided by its scale D, against
    # the tuple-keyed route; L_0 needs p^2 / 2 as a Fraction, so float momenta
    # skip m = 0, and their columns (D = 2) must come back bit for bit
    d = len(signs)
    cutoff = {2: 6, 3: 5, 4: 4}[d]
    basis = enumerate_basis(d, cutoff)
    momenta = [tuple(Fraction(x) for x in (2, -1, 3, 1)[:d]),
               tuple(Fraction(x) for x in ("3/2", "-1/3", "5/7", "2/5")[:d]),
               # p^2/2 has the denominator 32, which no component has
               tuple(Fraction(x) for x in ("1/4", "1/2", "1/2", "1/2")[:d]),
               (0.75, -1.25, 2.5, 0.3)[:d]]
    for p in momenta:
        scaled = scaled_momentum(p)
        scale = scaled[0]
        exact = not isinstance(p[0], float)
        for m in range(-cutoff, cutoff + 1):
            if m == 0 and not exact:
                continue
            for j, modes in enumerate(basis.states):
                want = tuple_constraint_column(m, p, modes, cutoff, signs)
                got = apply_constraint_operator(m, scaled, j, basis, signs)
                assert {i: Fraction(c, scale) if exact else c / scale
                        for i, c in got.items()} \
                    == {basis.index[mm]: c for mm, c in want.items()}, (p, m, j)


def test_constraint_scale_covers_every_denominator():
    # D = 2 lcm(denominators of p and of p^2/2); a float momentum gets D = 2
    assert scaled_momentum(tuple(Fraction(x) for x in ("1/4", "1/2", "1/2", "1/2"))) == (
        64, (-16, 32, 32, 32), 22)
    assert scaled_momentum(tuple(Fraction(x) for x in (2, -1, 3, 1))) == (
        4, (-8, -4, 12, 4), 14)
    assert scaled_momentum((0.75, -1.25)) == (2, (-1.5, -2.5), 1.0)


def test_bracket_residual_examples(small_cov_basis, small_cov_metric):
    mom = standard_onshell_momentum(1, 4)
    assert virasoro_bracket_residual(1, -1, mom, small_cov_basis, small_cov_metric).is_zero()
    assert virasoro_bracket_residual(1, 2, mom, small_cov_basis, small_cov_metric).is_zero()
    for k in (1, 2, 3):
        assert virasoro_bracket_residual(0, k, mom, small_cov_basis,
                                         small_cov_metric).is_zero()
        assert virasoro_bracket_residual(0, -k, mom, small_cov_basis,
                                         small_cov_metric).is_zero()


def _bracket_routes_agree(basis, metric, mom):
    """Both routes on every pair with |m| + |n| <= cutoff; returns the number
    of nonzero residuals."""
    cutoff = basis.cutoff
    nonzero = 0
    for m in range(-cutoff, cutoff + 1):
        for n in range(abs(m) - cutoff, cutoff - abs(m) + 1):
            got = virasoro_bracket_residual(m, n, mom, basis, metric)
            want = loop_virasoro_bracket_residual(m, n, mom, basis, metric)
            assert got.cols == want.cols, (m, n)
            nonzero += not got.is_zero()
    return nonzero


@pytest.mark.parametrize("d,cutoff", [(3, 5), (4, 4)])
def test_bracket_memo_matches_loop_oracle(d, cutoff):
    mom = standard_onshell_momentum(2, d)
    assert _bracket_routes_agree(enumerate_basis(d, cutoff), minkowski_metric(d), mom) == 0


def test_bracket_memo_follows_a_corrupted_mode_action(monkeypatch, corrupted_alpha_apply):
    # the linear term is read from the mode tables, which oscillators builds
    monkeypatch.setattr(virasoro, "alpha_apply", corrupted_alpha_apply)
    monkeypatch.setattr(oscillators, "alpha_apply", corrupted_alpha_apply)
    mom = standard_onshell_momentum(1, 3)
    assert _bracket_routes_agree(enumerate_basis(3, 4), minkowski_metric(3), mom)


@pytest.mark.parametrize("q", [2 ** 31 + 1, 2 ** 33 + 1])
def test_bracket_tables_match_loop_oracle_past_int64(q):
    # for an odd q, p0 and p1 have the denominator q, so D = 2q and D^2 > 2^63:
    # every pair's overflow bound fails and the composition runs in Python
    # ints.  At q = 2^31 + 1 each D p_mu still fits in int64, so int64
    # products would wrap without an error.
    p = (Fraction(q * q + 1, 2 * q), Fraction(q * q - 1, 2 * q), Fraction(1))
    mom = OnShellMomentum(r=Fraction(0), p=p)
    assert scaled_momentum(p)[0] ** 2 > 2 ** 63
    assert _bracket_routes_agree(enumerate_basis(3, 4), minkowski_metric(3), mom) == 0


def test_scaled_blocks_sum_to_the_constraint_columns():
    # D L_k assembled from the constraint and mode tables, column by column,
    # is apply_constraint_operator's column on the whole table domain
    basis = enumerate_basis(4, 6)
    signs = minkowski_metric(4).signs
    scaled = scaled_momentum(standard_onshell_momentum(2, 4).p)
    for k in range(-basis.cutoff, basis.cutoff + 1):
        blocks = virasoro._scaled_blocks(k, scaled, basis, signs)
        for j in range(basis.level_start[basis.cutoff - abs(k) + 1]):
            got = {}
            for image, coeff, factor in blocks:
                for i, c in zip(image[j].tolist(), coeff[j].tolist()):
                    if c:
                        got[i] = got.get(i, 0) + factor * c
            want = apply_constraint_operator(k, scaled, j, basis, signs)
            assert {i: c for i, c in got.items() if c} == want, (k, j)


def test_bracket_flags_a_corrupted_constraint_table():
    basis = enumerate_basis(4, 4)
    metric = minkowski_metric(4)
    mom = standard_onshell_momentum(2, 4)
    pairs = [(m, n) for m in range(-2, 3) for n in range(-2, 3) if abs(m) + abs(n) <= 4]
    assert all(virasoro_bracket_residual(m, n, mom, basis, metric).is_zero()
               for m, n in pairs)
    image, coeff = basis.constraint_tables[2, metric.signs]
    coeff[image[:, 0] >= 0, 0] += 1
    assert any(not virasoro_bracket_residual(m, n, mom, basis, metric).is_zero()
               for m, n in pairs if 2 in (m, n, m + n))


def test_central_term_measured_then_frozen():
    # the bracket defect [L_m, L_-m] - 2m L_0 on the vacuum, fitted once by
    # brute force and frozen as c (m^3 - m)/12 with c = d
    for d in (4, 26):
        basis = enumerate_basis(d, 4)
        metric = minkowski_metric(d)
        mom = standard_onshell_momentum(1, d)
        c_fit, values = fit_central_coefficient(mom, basis, metric, modes=(1, 2))
        assert c_fit == d
        assert values[1] == 0
        assert values[2] == central_term(d, 2) == Fraction(d, 2)


def test_central_coefficient_from_independent_matrix_route(small_cov_basis,
                                                           small_cov_metric):
    mom = standard_onshell_momentum(1, 4)
    l2 = bruteforce_constraint_matrix(2, mom, small_cov_basis, small_cov_metric)
    lm2 = bruteforce_constraint_matrix(-2, mom, small_cov_basis, small_cov_metric)
    l0 = build_Lm(0, mom, small_cov_basis, small_cov_metric)
    vac = small_cov_basis.index[()]
    comm = l2 @ lm2 - lm2 @ l2
    residual = comm - 4 * l0
    assert residual.cols[vac] == {vac: Fraction(4, 2)}   # d/2 at d = 4


def test_hermiticity_against_gram(small_cov_basis, small_cov_metric):
    mom = standard_onshell_momentum(2, 4)
    for m in (1, 2):
        assert hermiticity_residual(m, mom, small_cov_basis, small_cov_metric) is None


def test_mass_spectrum_values_and_degeneracies():
    rows = mass_spectrum(3, 24, Fraction(1))
    assert [(lvl, int(m2), deg) for lvl, m2, deg in rows] == [
        (0, -2, 1), (1, 0, 24), (2, 2, 324), (3, 4, 3200)]


def test_spectrum_values_agree_across_gauges():
    lc = mass_spectrum(3, 24, Fraction(1))
    cov = mass_spectrum(3, 26, Fraction(1))
    assert [m2 for _, m2, _ in lc] == [m2 for _, m2, _ in cov]
    assert [deg for _, _, deg in lc] != [deg for _, _, deg in cov]


def test_M2_is_diagonal_with_level_eigenvalues(small_lc_basis):
    op = build_M2(small_lc_basis, Fraction(1))
    for j in range(small_lc_basis.dim):
        level = small_lc_basis.levels[j]
        want = {j: 2 * level - 2} if level != 1 else {}
        assert op.cols[j] == want


def test_M2_matches_mode_sum_route(small_lc_basis, small_lc_metric):
    # dual route: 2 sum_n alpha_{-n} . alpha_n - 2a from explicit products
    basis, metric = small_lc_basis, small_lc_metric
    total = SparseOperator(basis)
    for n in range(1, basis.cutoff + 1):
        for mu in range(basis.directions):
            prod = alpha(-n, mu, basis, metric) @ alpha(n, mu, basis, metric)
            total = total + prod * (2 * metric.signs[mu])
    direct = build_M2(basis, Fraction(1))
    for j in range(basis.dim):
        combined = dict(total.cols[j])
        c = combined.get(j, 0) - 2
        if c:
            combined[j] = c
        else:
            combined.pop(j, None)
        assert combined == direct.cols[j]


def test_vacuum_bracket_defect_pins_the_central_value(small_cov_basis,
                                                      small_cov_metric):
    # the d = 4 defect is d/2, which would fail any other central choice
    mom = standard_onshell_momentum(1, 4)
    vac = small_cov_basis.index[()]
    l0 = build_Lm(0, mom, small_cov_basis, small_cov_metric)
    l2 = build_Lm(2, mom, small_cov_basis, small_cov_metric)
    lm2 = build_Lm(-2, mom, small_cov_basis, small_cov_metric)
    comm = l2 @ lm2 - lm2 @ l2 - 4 * l0
    assert comm.cols[vac] == {vac: central_term(4, 2)}
    assert comm.cols[vac] != {vac: central_term(5, 2)}
