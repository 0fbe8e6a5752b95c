from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from stringfock._exact import (restrict_quadratic_form, signature_symmetric,
                               sparse_nullspace, sparse_rank)

from oracles import signature_symmetric as dense_signature
from oracles import sparse_nullspace as rref_nullspace


def sparse_rows(matrix):
    return [{j: Fraction(x) for j, x in enumerate(row) if x} for row in matrix]


def unit_vectors(n):
    return [{i: Fraction(1)} for i in range(n)]


def inertia(matrix):
    return signature_symmetric(sparse_rows(matrix), unit_vectors(len(matrix)))[:3]


def test_signature_known_cases():
    assert inertia([[2]]) == (1, 0, 0)
    assert inertia([[0]]) == (0, 1, 0)
    assert inertia([[-1, 0], [0, 3]]) == (1, 0, 1)
    # hyperbolic plane: zero diagonal, off-diagonal coupling
    assert inertia([[0, 1], [1, 0]]) == (1, 0, 1)
    assert inertia([[1, 1], [1, 1]]) == (1, 1, 0)
    radical = signature_symmetric(sparse_rows([[1, 1], [1, 1]]), unit_vectors(2))[3]
    assert radical == [{0: Fraction(-1), 1: Fraction(1)}]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms())
def test_signature_congruence_invariance(n, rng):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(rng.randint(-3, 3))
            a[i][j] = v
            a[j][i] = v
    base = inertia(a)
    # random invertible S: unit upper-triangular with a diagonal rescale
    s = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        s[i][i] = Fraction(rng.choice((1, 2, -1, 3)))
        for j in range(i + 1, n):
            s[i][j] = Fraction(rng.randint(-2, 2))
    sas = [[sum(s[k][i] * a[k][l] * s[l][j] for k in range(n) for l in range(n))
            for j in range(n)] for i in range(n)]
    assert inertia(sas) == base


def test_nullspace_annihilates_and_has_right_dimension():
    rows = sparse_rows([
        [1, 2, 0, 1],
        [0, 0, 1, -1],
        [1, 2, 1, 0],   # dependent: row0 + row1
    ])
    kernel = sparse_nullspace(rows, 4)
    assert len(kernel) == 2
    dense = [[1, 2, 0, 1], [0, 0, 1, -1], [1, 2, 1, 0]]
    for vec in kernel:
        for row in dense:
            assert sum(Fraction(row[c]) * x for c, x in vec.items()) == 0


def test_nullspace_of_full_rank_matrix_is_trivial():
    rows = sparse_rows([[1, 0], [0, 5]])
    assert sparse_nullspace(rows, 2) == []


def test_restrict_quadratic_form():
    diag = {0: Fraction(1), 1: Fraction(-1), 2: Fraction(2)}
    vecs = [{0: Fraction(1), 1: Fraction(1)}, {2: Fraction(1)}]
    m = restrict_quadratic_form(diag, vecs)
    assert m == [{}, {1: Fraction(2)}]


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices up to 8 x 8, sparse, with some diagonal
    entries forced to zero (all of them gives hyperbolic blocks only)."""
    n = draw(st.integers(min_value=1, max_value=8))
    hollow = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i != j or i not in hollow:
                a[i][j] = a[j][i] = draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3)))
    return a


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_sparse_signature_matches_dense_oracle(a):
    n = len(a)
    rows, vectors = sparse_rows(a), unit_vectors(n)
    npos, nzero, nneg, radical = signature_symmetric(rows, vectors)
    assert (npos, nzero, nneg) == dense_signature(a)
    assert rows == sparse_rows(a) and vectors == unit_vectors(n)
    for w in radical:
        for row in a:
            assert sum(row[c] * x for c, x in w.items()) == 0
    assert len(radical) == n - sparse_rank(rows)
    assert sparse_rank(radical) == len(radical)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_radical_is_orthogonal_to_the_span(data):
    dim = data.draw(st.integers(min_value=1, max_value=8))
    diag = {k: Fraction(data.draw(st.sampled_from((1, -1, 2, 0)))) for k in range(dim)}
    vectors = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
        coeffs = [data.draw(st.integers(min_value=-2, max_value=2)) for _ in range(dim)]
        vectors.append({k: Fraction(x) for k, x in enumerate(coeffs) if x})

    def pair(u, v):
        return sum(x * diag[k] * v.get(k, 0) for k, x in u.items())

    dense = [[pair(u, v) for v in vectors] for u in vectors]
    rows = restrict_quadratic_form(diag, vectors)
    assert rows == sparse_rows(dense)
    npos, nzero, nneg, radical = signature_symmetric(rows, vectors)
    assert (npos, nzero, nneg) == dense_signature(dense)
    for w in radical:
        assert all(pair(w, v) == 0 for v in vectors)


def int_rows(matrix):
    return [{j: int(x) for j, x in enumerate(row) if x} for row in matrix]


@st.composite
def kernel_cases(draw):
    """Sparse integer matrices up to 9 x 6, with no rows at all among them,
    then up to three rows repeated or all zero, shuffled in: ranks fall short
    and rows outnumber columns."""
    n_cols = draw(st.integers(min_value=0, max_value=6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 3, -7))
    matrix = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), max_size=6))
    matrix += draw(st.lists(st.sampled_from(matrix + [[0] * n_cols]), max_size=3))
    return draw(st.permutations(matrix)), n_cols


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row.values())


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_int_rows_give_the_fraction_rows_results(case):
    # divisions go through Fraction: int input never turns into floats
    matrix, n_cols = case
    kernel = sparse_nullspace(int_rows(matrix), n_cols)
    want = sparse_nullspace(sparse_rows(matrix), n_cols)
    assert [list(v.items()) for v in kernel] == [list(v.items()) for v in want]
    assert all_fractions(kernel)
    assert sparse_rank(int_rows(matrix)) == sparse_rank(sparse_rows(matrix)) == n_cols - len(kernel)


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_nullspace_matches_the_rref_oracle(case):
    # the reduced row echelon form is unique: Fraction rows and the rows over 3
    # give the oracle's vectors, entries in its order, and never a float
    matrix, n_cols = case
    want = [list(v.items()) for v in rref_nullspace(int_rows(matrix), n_cols)]
    thirds = [{j: x / 3 for j, x in row.items()} for row in sparse_rows(matrix)]
    for rows in (sparse_rows(matrix), thirds):
        got = sparse_nullspace(rows, n_cols)
        assert [list(v.items()) for v in got] == want and all_fractions(got)
    assert sparse_rank(thirds) == n_cols - len(want)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_int_signature_matches_and_counts_without_vectors(a):
    n = len(a)
    want = signature_symmetric(sparse_rows(a), unit_vectors(n))
    got = signature_symmetric(int_rows(a), unit_vectors(n))
    assert got == want and all_fractions(got[3])
    assert signature_symmetric(int_rows(a), []) == want[:3] + ([],)


def test_int_kernels_stay_exact_where_floats_would_round():
    # 1/21 and 1/7 have no binary float: a float division would put 0.0476...
    # and -0.1428... in the kernel vector
    rows = int_rows([[3, 1, 0], [0, 7, 1], [3, 8, 1]])
    assert sparse_rank(rows) == 2
    assert sparse_nullspace(rows, 3) == [{2: Fraction(1), 0: Fraction(1, 21),
                                          1: Fraction(-1, 7)}]
    assert signature_symmetric(int_rows([[3, 1], [1, 7]]), [])[:3] == (2, 0, 0)
