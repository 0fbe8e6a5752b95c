import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stringfock.basis import enumerate_basis, level_degeneracy, level_of

from oracles import brute_colored_partition_states, brute_count, shape_route_basis


def test_vacuum_only():
    basis = enumerate_basis(24, 0)
    assert basis.dim == 1
    assert basis.states == [()]


def test_level_one_counts():
    basis = enumerate_basis(24, 1)
    assert basis.level_dim(1) == 24
    assert level_degeneracy(1, 24) == 24


def test_level_two_split_24_colors():
    # 24 single double-modes plus 300 unordered pairs of single modes
    basis = enumerate_basis(24, 2)
    lvl2 = [basis.states[i] for i in basis.level_slice(2)]
    singles = [s for s in lvl2 if len(s) == 1]
    pairs = [s for s in lvl2 if len(s) == 2]
    assert len(singles) == 24
    assert len(pairs) == 300
    assert basis.level_dim(2) == 324 == level_degeneracy(2, 24)


def test_level_three_split_24_colors():
    # frozen from the brute-force enumeration: 24 + 576 + 2600
    assert level_degeneracy(3, 24) == 3200
    basis = enumerate_basis(24, 3)
    lvl3 = [basis.states[i] for i in basis.level_slice(3)]
    by_len = {}
    for s in lvl3:
        by_len.setdefault(len(s), 0)
        by_len[len(s)] += 1
    assert by_len == {1: 24, 2: 576, 3: 2600}


def test_level_two_26_colors():
    assert level_degeneracy(2, 26) == 377
    basis = enumerate_basis(26, 2)
    assert basis.level_dim(2) == 377


def test_enumeration_matches_brute_force():
    for colors in (1, 2, 3):
        for cutoff in (0, 1, 2, 3, 4):
            basis = enumerate_basis(colors, cutoff)
            for level in range(cutoff + 1):
                got = [basis.states[i] for i in basis.level_slice(level)]
                assert got == sorted(brute_colored_partition_states(level, colors))


@pytest.mark.parametrize("directions, cutoff", [(1, 6), (2, 5), (3, 4), (4, 4),
                                                (14, 3), (26, 3), (26, 4)])
def test_state_order_matches_shape_route(directions, cutoff):
    basis = enumerate_basis(directions, cutoff)
    states, levels, level_start, index = shape_route_basis(directions, cutoff)
    assert basis.states == states
    assert basis.levels == levels
    assert basis.level_start == level_start
    assert list(basis.index.items()) == list(index.items())


@settings(max_examples=40, deadline=None)
@given(level=st.integers(min_value=0, max_value=5),
       colors=st.integers(min_value=1, max_value=6))
def test_degeneracy_equals_brute_count(level, colors):
    assert level_degeneracy(level, colors) == brute_count(level, colors)


def test_ordering_is_level_then_lex_and_deterministic():
    b1 = enumerate_basis(3, 3)
    b2 = enumerate_basis(3, 3)
    assert b1.states == b2.states
    keys = [(level_of(s), s) for s in b1.states]
    assert keys == sorted(keys)


def test_index_is_bijection():
    basis = enumerate_basis(4, 3)
    assert len(basis.index) == basis.dim
    for i, s in enumerate(basis.states):
        assert basis.index[s] == i
        assert basis.levels[i] == level_of(s)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_basis(0, 2)
    with pytest.raises(ValueError):
        enumerate_basis(2, -1)
    with pytest.raises(ValueError):
        level_degeneracy(-1, 4)
    with pytest.raises(ValueError):
        level_degeneracy(2, 0)
