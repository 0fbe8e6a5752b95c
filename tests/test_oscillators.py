import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringfock import oscillators
from stringfock.basis import enumerate_basis
from stringfock.config import Metric, euclidean_metric, minkowski_metric
from stringfock.oscillators import ccr_residual_entries, gram, mode_table, state_norm_factor

from oracles import (SparseOperator, adjointness_residual, alpha, commutator,
                     loop_ccr_residual_entries, matching_inner)


def test_raising_mode_on_vacuum(small_cov_basis, small_cov_metric):
    op = alpha(-1, 2, small_cov_basis, small_cov_metric)
    vac = small_cov_basis.index[()]
    target = small_cov_basis.index[((1, 2),)]
    assert op.cols[vac] == {target: 1}


def test_lowering_mode_contracts_with_metric(small_cov_basis, small_cov_metric):
    # spatial direction: coefficient +1; timelike direction: -1
    op_sp = alpha(1, 1, small_cov_basis, small_cov_metric)
    op_t = alpha(1, 0, small_cov_basis, small_cov_metric)
    one_sp = small_cov_basis.index[((1, 1),)]
    one_t = small_cov_basis.index[((1, 0),)]
    vac = small_cov_basis.index[()]
    assert op_sp.cols[one_sp] == {vac: 1}
    assert op_t.cols[one_t] == {vac: -1}


def test_commutator_matrix_equals_expected_scalar(small_cov_basis, small_cov_metric):
    # [alpha_2, alpha_-2] = 2 eta^{mu nu} on the level <= N - 4 block,
    # by brute-force sparse matrix products
    basis, metric = small_cov_basis, small_cov_metric
    for mu in range(basis.directions):
        for nu in range(basis.directions):
            up = alpha(-2, nu, basis, metric)
            down = alpha(2, mu, basis, metric)
            comm = commutator(down, up)
            expected = 2 * metric.signs[mu] if mu == nu else 0
            safe = basis.cutoff - 4
            for j in range(basis.level_start[safe + 1]):
                want = {j: expected} if expected else {}
                assert comm.cols[j] == want


def test_truncation_maps_overflow_to_zero(small_cov_basis, small_cov_metric):
    op = alpha(-1, 0, small_cov_basis, small_cov_metric)
    for j in small_cov_basis.level_slice(small_cov_basis.cutoff):
        assert op.cols[j] == {}


def test_gram_examples(cov26_basis_n2, cov26_metric):
    g = gram(cov26_basis_n2, cov26_metric)
    spatial = cov26_basis_n2.index[((1, 5),)]
    timelike = cov26_basis_n2.index[((1, 0),)]
    assert g.diagonal[spatial] == 1
    assert g.diagonal[timelike] == -1


def test_single_color_level_two_gram_block():
    # frozen from the matching oracle: diag(2, 2) for {a_-2, a_-1^2}
    basis = enumerate_basis(1, 2)
    metric = euclidean_metric(1)
    g = gram(basis, metric)
    assert [g.diagonal[i] for i in basis.level_slice(2)] == [Fraction(2), Fraction(2)]
    assert matching_inner(((2, 0),), ((2, 0),), metric.signs) == 2
    assert matching_inner(((1, 0), (1, 0)), ((1, 0), (1, 0)), metric.signs) == 2


def test_gram_matches_matching_oracle(small_cov_basis, small_cov_metric):
    basis, metric = small_cov_basis, small_cov_metric
    g = gram(basis, metric)
    for i, modes in enumerate(basis.states):
        want = matching_inner(modes, modes, metric.signs)
        assert state_norm_factor(modes, metric.signs) == want
        assert g.diagonal[i] == want
    # the monomial basis is orthogonal, so the diagonal is the whole Gram
    for level in range(basis.cutoff + 1):
        idx = list(basis.level_slice(level))
        for i in idx[:40]:
            for j in idx[:40]:
                if i != j:
                    assert matching_inner(basis.states[i], basis.states[j], metric.signs) == 0


PAIRING_BASIS = enumerate_basis(4, 3)
_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _sparse_vectors(max_size):
    return st.dictionaries(st.integers(0, PAIRING_BASIS.dim - 1), _rationals, max_size=max_size)


def _oracle_level_pairings(u, v, signs):
    """{level: sum u_i <s_i, s_j> v_j} over the same-level pairs, by matchings."""
    out = {}
    for i, x in u.items():
        level = PAIRING_BASIS.levels[i]
        for j, y in v.items():
            if level == PAIRING_BASIS.levels[j]:
                pair = matching_inner(PAIRING_BASIS.states[i], PAIRING_BASIS.states[j], signs)
                out[level] = out.get(level, 0) + x * pair * y
    return {level: w for level, w in sorted(out.items()) if w}


@settings(max_examples=80, deadline=None)
@given(u=_sparse_vectors(4), v=_sparse_vectors(14), cov=st.booleans())
def test_level_pairings_match_matching_oracle(u, v, cov):
    metric = minkowski_metric(4) if cov else euclidean_metric(4)
    g = gram(PAIRING_BASIS, metric)
    for left, right in ((u, v), (v, u)):
        got = g.level_pairings(left, right)
        assert got == _oracle_level_pairings(left, right, metric.signs)
        assert list(got) == sorted(got)
    assert g.level_pairings(u, v) == g.level_pairings(v, u)


def test_lightcone_gram_positive_definite(small_lc_basis, small_lc_metric):
    g = gram(small_lc_basis, small_lc_metric)
    assert len(g.diagonal) == small_lc_basis.dim
    assert all(x > 0 for x in g.diagonal)


def test_covariant_gram_is_indefinite(small_cov_basis, small_cov_metric):
    diagonal = gram(small_cov_basis, small_cov_metric).diagonal
    assert all(diagonal) and any(x < 0 for x in diagonal)


def test_adjointness(small_cov_basis, small_cov_metric):
    for n in (1, 2):
        for mu in (0, 1):
            assert adjointness_residual(n, mu, small_cov_basis, small_cov_metric) is None


@settings(max_examples=60, deadline=None)
@given(m=st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0),
       n=st.integers(min_value=-3, max_value=3).filter(lambda v: v != 0),
       mu=st.integers(min_value=0, max_value=3),
       nu=st.integers(min_value=0, max_value=3),
       cov=st.booleans())
def test_ccr_residual_property(m, n, mu, nu, cov):
    basis = enumerate_basis(4, 4)
    metric = minkowski_metric(4) if cov else euclidean_metric(4)
    assert ccr_residual_entries(m, n, mu, nu, basis, metric) == []


def _ccr_routes_agree(basis, metric):
    """Both routes on every mode pair up to one past the cutoff (so safe < 0
    too) and every direction pair; returns the number of nonzero residuals."""
    top = basis.cutoff + 1
    modes = [k for k in range(-top, top + 1) if k]
    nonempty = 0
    for m in modes:
        for n in modes:
            for mu in range(basis.directions):
                for nu in range(basis.directions):
                    got = ccr_residual_entries(m, n, mu, nu, basis, metric)
                    assert got == loop_ccr_residual_entries(m, n, mu, nu, basis, metric)
                    nonempty += bool(got)
    return nonempty


@pytest.mark.parametrize("directions,metric", [
    (4, minkowski_metric(4)), (2, euclidean_metric(2)), (3, Metric((-1, 1, -1)))])
def test_ccr_tables_match_loop_oracle(directions, metric):
    assert _ccr_routes_agree(enumerate_basis(directions, 4), metric) == 0


# mixed signs for the screen tests' d = 11, cutoff-4 basis
SCREEN_METRIC = Metric((-1, 1) * 5 + (-1,))


def _spy_screen(monkeypatch):
    """Record ``(top, expected, flagged)`` for every screen pass
    ccr_residual_entries makes."""
    calls = []
    screen = oscillators._screen_columns

    def spy(top, expected, *tables):
        flagged = screen(top, expected, *tables)
        calls.append((top, expected, flagged))
        return flagged

    monkeypatch.setattr(oscillators, "_screen_columns", spy)
    return calls


def test_ccr_screen_matches_loop_oracle(monkeypatch):
    # safe ranges of 1, 12 and 89 columns: the last alone reaches the screen
    basis = enumerate_basis(11, 4)
    assert basis.level_start[2] < oscillators.SCREEN_MIN <= basis.level_start[3] == 89
    calls = _spy_screen(monkeypatch)
    assert _ccr_routes_agree(basis, SCREEN_METRIC) == 0
    # |m| = |n| = 1, both signs, every direction pair, identity columns included
    assert len(calls) == 4 * 11 * 11
    assert {top for top, _, _ in calls} == {89}
    assert sum(1 for _, expected, _ in calls if expected) == 2 * 11
    assert not any(flagged for _, _, flagged in calls)


def test_ccr_screen_follows_a_corrupted_mode_action(monkeypatch, corrupted_alpha_apply):
    monkeypatch.setattr(oscillators, "alpha_apply", corrupted_alpha_apply)
    basis = enumerate_basis(11, 4)
    calls = _spy_screen(monkeypatch)
    assert _ccr_routes_agree(basis, SCREEN_METRIC)
    assert {top for top, _, _ in calls} == {89}
    assert any(flagged for _, _, flagged in calls)
    calls.clear()
    for args in ((1, -1, 0, 0), (-1, 1, 1, 1)):
        bad = ccr_residual_entries(*args, basis, SCREEN_METRIC)
        [(_, expected, flagged)] = calls
        assert expected and bad and {j for j, _, _ in bad} <= set(flagged)
        calls.clear()


@pytest.mark.parametrize("modes,n,mu,image,pair", [
    ((), -1, 0, ((1, 0),), (1, -1, 0, 0)),             # a raising mode on the vacuum
    (((1, 3),), 1, 3, (), (-1, 1, 3, 3))])              # a lowering mode onto the vacuum
def test_ccr_screen_follows_a_zero_coefficient_on_a_valid_image(monkeypatch, modes, n, mu,
                                                                image, pair):
    # the table keeps the image but its coefficient is 0: the product is zero
    # in value while its image is not -1, and both routes must still agree
    original = oscillators.alpha_apply

    def corrupted(state, k, nu, signs, cutoff):
        if (state, k, nu) == (modes, n, mu):
            return 0, image
        return original(state, k, nu, signs, cutoff)

    monkeypatch.setattr(oscillators, "alpha_apply", corrupted)
    basis = enumerate_basis(11, 4)
    calls = _spy_screen(monkeypatch)
    assert _ccr_routes_agree(basis, SCREEN_METRIC)
    assert any(flagged for _, expected, flagged in calls if expected)
    assert any(flagged for _, expected, flagged in calls if not expected)
    column = basis.index[modes]
    assert mode_table(n, mu, basis)[1][column] == 0
    assert mode_table(n, mu, basis)[0][column] == basis.index[image]
    # the identity pair of the corrupted mode is wrong at that column, and the
    # report lists flagged columns only
    calls.clear()
    bad = ccr_residual_entries(*pair, basis, SCREEN_METRIC)
    [(_, expected, flagged)] = calls
    assert expected and column in {j for j, _, _ in bad} <= set(flagged)


def test_ccr_screen_flags_products_on_different_states(monkeypatch):
    # a raising mode sent to the wrong state: both products of [alpha_1^3,
    # alpha_-1^0] keep their coefficients on that column but land apart
    original = oscillators.alpha_apply
    misrouted = ((1, 1), (1, 3))

    def corrupted(modes, n, mu, signs, cutoff):
        if (modes, n, mu) == (misrouted, -1, 0):
            return 1, ((1, 0), (1, 2), (1, 3))
        return original(modes, n, mu, signs, cutoff)

    monkeypatch.setattr(oscillators, "alpha_apply", corrupted)
    basis = enumerate_basis(11, 4)
    calls = _spy_screen(monkeypatch)
    assert _ccr_routes_agree(basis, SCREEN_METRIC)
    calls.clear()
    column = basis.index[misrouted]
    bad = ccr_residual_entries(1, -1, 3, 0, basis, SCREEN_METRIC)
    assert calls == [(89, 0, [column])]
    assert [(j, c) for j, _, c in bad] == [(column, 1), (column, -1)]


def test_mode_tables_match_alpha_columns(small_cov_basis, small_cov_metric):
    basis, signs = small_cov_basis, small_cov_metric.signs
    assert enumerate_basis(4, 4).mode_tables == {}
    for k in range(-basis.cutoff, basis.cutoff + 1):
        if not k:
            continue
        for mu in range(basis.directions):
            image, coeff, rows = mode_table(k, mu, basis)
            length = basis.level_start[basis.cutoff - abs(k) + 1]
            # L entries and the sentinel (-1, 0), as ints, over one buffer
            assert len(image) == len(coeff) == length + 1
            assert (image[-1], coeff[-1]) == (image[length], coeff[length]) == (-1, 0)
            assert type(image[0]) is int and type(coeff[0]) is int
            assert rows.dtype == np.intc and rows.shape == (2, length + 1)
            assert rows.tolist() == [image.tolist(), coeff.tolist()]
            assert np.shares_memory(rows, np.asarray(image))
            assert np.shares_memory(rows, np.asarray(coeff))
            op = alpha(k, mu, basis, small_cov_metric)
            eta = signs[mu] if k > 0 else 1
            for j in range(length):
                i = image[j]
                assert op.cols[j] == ({} if i < 0 else {i: eta * coeff[j]})
                assert i >= 0 or coeff[j] == 0
            assert mode_table(k, mu, basis) is basis.mode_tables[k, mu]
    with pytest.raises(ValueError):
        mode_table(0, 0, basis)
    with pytest.raises(ValueError):
        mode_table(1, basis.directions, basis)


def test_ccr_tables_follow_a_corrupted_mode_action(monkeypatch, corrupted_alpha_apply):
    monkeypatch.setattr(oscillators, "alpha_apply", corrupted_alpha_apply)
    basis = enumerate_basis(3, 4)
    metric = Metric((-1, 1, 1))
    assert _ccr_routes_agree(basis, metric)
    assert ccr_residual_entries(1, -1, 0, 0, basis, metric)


def test_gram_is_built_once_per_basis_and_metric():
    basis = enumerate_basis(3, 2)
    assert basis.grams == {}
    g = gram(basis, minkowski_metric(3))
    assert gram(basis, minkowski_metric(3)) is g
    other = gram(basis, euclidean_metric(3))
    assert other is not g and gram(basis, euclidean_metric(3)) is other
    assert other.diagonal != g.diagonal
    assert gram(enumerate_basis(3, 2), minkowski_metric(3)) is not g


def test_alpha_argument_validation(small_cov_basis, small_cov_metric):
    with pytest.raises(ValueError):
        alpha(0, 0, small_cov_basis, small_cov_metric)
    with pytest.raises(ValueError):
        alpha(1, 7, small_cov_basis, small_cov_metric)
    with pytest.raises(ValueError):
        alpha(small_cov_basis.cutoff + 1, 0, small_cov_basis, small_cov_metric)


def test_sparse_operator_algebra(small_cov_basis, small_cov_metric):
    a1 = alpha(-1, 0, small_cov_basis, small_cov_metric)
    a2 = alpha(1, 0, small_cov_basis, small_cov_metric)
    ident = SparseOperator.identity(small_cov_basis)
    assert ((a1 + a2) - a1 - a2).is_zero()
    assert (ident @ a1) == a1
    assert (a1 * 0).is_zero()
    assert a1.transpose().transpose() == a1


def test_sparse_operator_holds_only_the_columns_it_touches(small_cov_basis):
    # no column is allocated up front; a read adds an empty one, which leaves
    # the operator zero, and a write to column 0 alone makes it nonzero
    op = oscillators.SparseOperator(small_cov_basis)
    assert op.is_zero() and not op.cols
    assert op.cols[5] == {} and op.is_zero()
    op.cols[0][3] = Fraction(1, 2)
    assert not op.is_zero() and sorted(op.cols) == [0, 5]


def test_a_basis_and_its_gram_are_freed_without_the_cycle_collector():
    # the basis keeps its Grams, and a Gram keeps no reference to the basis,
    # so dropping the basis frees both at once rather than at some later
    # cyclic collection (a benchmark's peak memory would depend on when)
    basis = enumerate_basis(4, 2)
    g = weakref.ref(gram(basis, minkowski_metric(4)))
    ref = weakref.ref(basis)
    gc.disable()
    try:
        del basis
        assert ref() is None and g() is None
    finally:
        gc.enable()
