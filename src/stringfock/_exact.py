"""The exact sparse linear-algebra kernel used by the oscillator and
constraint layers.

No floats enter this module.  Matrices and vectors are sparse: a row or a
vector is a {column: int or Fraction} dict holding only its nonzeros, and
every update drops the entries that cancel.  Every division goes through
``Fraction``, so int input stays exact.  Eliminations are deterministic:
the forward elimination reduces the rows in list order; the congruence
elimination picks the lowest usable index.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


def _add_scaled(target, source, f):
    """target += f * source for sparse vectors, dropping exact zeros."""
    for c, x in source.items():
        new = target.get(c, 0) + f * x
        if new:
            target[c] = new
        else:
            target.pop(c, None)


def _echelon(rows):
    """Forward elimination of a sparse rational matrix.

    Each row in turn is reduced by the pivot rows kept so far, keyed by
    their leading column, until its leading column is new (it becomes a
    pivot row) or it cancels.  No pivot row is normalised.  Returns the
    pivot rows as {leading column: row}.
    """
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            _add_scaled(row, pivot, Fraction(-row[lead]) / pivot[lead])
    return pivots


def sparse_rank(rows):
    """Rank of a sparse rational matrix: its number of pivot rows."""
    return len(_echelon(rows))


def sparse_nullspace(rows, ncols):
    """Basis of the right kernel of a sparse rational matrix.

    The pivot rows of :func:`_echelon` are normalised and back-substituted,
    last leading column first, into the reduced row echelon form, whose
    entries off the leading columns sit in free columns.  One pass over its
    rows then scatters them into the kernel.  Returns a list of {col:
    Fraction} vectors, one per free column, in ascending free-column order
    (the free column carries coefficient 1, then the leading columns follow
    in ascending order).
    """
    pivots = _echelon(rows)
    for lead in sorted(pivots, reverse=True):
        inv = Fraction(1) / pivots[lead][lead]
        row = pivots[lead] = {c: v * inv for c, v in pivots[lead].items()}
        for c in [c for c in row if c > lead and c in pivots]:
            _add_scaled(row, pivots[c], -row[c])
    kernel = {free: {free: Fraction(1)} for free in range(ncols) if free not in pivots}
    for lead in sorted(pivots):
        for c, x in pivots[lead].items():
            if c != lead:
                kernel[c][lead] = -x
    return list(kernel.values())


def restrict_quadratic_form(diag, vectors):
    """Sparse matrix of a diagonal quadratic form on the span of sparse vectors.

    ``diag`` maps index -> Fraction weight.  Returns symmetric rows, one
    {j: Fraction} dict per vector, holding the nonzeros of
    M[i][j] = sum_k v_i[k] * diag[k] * v_j[k].  Each index k contributes
    only to the pairs of vectors that share it.
    """
    sharing = {}
    for i, v in enumerate(vectors):
        for k, x in v.items():
            if diag[k]:
                sharing.setdefault(k, []).append((i, x))
    rows = [{} for _ in vectors]
    for k, entries in sharing.items():
        w = diag[k]
        for i, x in entries:
            row, wx = rows[i], w * x
            for j, y in entries:
                row[j] = row.get(j, 0) + wx * y
    return [{j: x for j, x in row.items() if x} for row in rows]


def signature_symmetric(rows, vectors):
    """Inertia and radical of the Gram matrix ``rows`` of ``vectors``.

    ``rows[i]`` holds the nonzeros of row i of a symmetric rational matrix,
    as returned by :func:`restrict_quadratic_form`.  Symmetric Gaussian
    elimination by congruence: the lowest index with a nonzero diagonal is
    the next pivot, and clearing its row and column touches only its
    neighbours, so fill-in stays inside a connected component.  When every
    remaining diagonal vanishes but an entry M[i][j] does not, adding row
    and column j to row and column i makes the pivot 2 M[i][j] (valid away
    from characteristic 2).  Every row operation is applied to a copy of
    ``vectors`` too, so the rows left with a zero pivot are the radical, in
    the coordinates of ``vectors``.  With ``vectors`` empty only the
    inertia is computed, and the radical comes back empty.

    Returns (n_plus, n_zero, n_minus, radical) and changes neither argument.
    Exact, hence suitable for sign questions with no tolerance.
    """
    n = len(rows)
    a = [dict(row) for row in rows]
    track = bool(vectors)
    vecs = [dict(v) for v in vectors] if track else [None] * n
    live = set(range(n))
    ready = [i for i in range(n) if a[i].get(i)]  # ascending, hence a heap
    pos = neg = 0
    first = 0   # live rows below ``first`` are empty, and empty rows stay empty
    while True:
        while ready and (ready[0] not in live or not a[ready[0]].get(ready[0])):
            heapq.heappop(ready)
        if ready:
            k = heapq.heappop(ready)
            live.discard(k)
            row_k, vec_k = a[k], vecs[k]
            d = row_k.pop(k)
            if d > 0:
                pos += 1
            else:
                neg += 1
            neg_inv = Fraction(-1) / d
            for i, x in row_k.items():
                f = x * neg_inv
                del a[i][k]
                _add_scaled(a[i], row_k, f)
                if track:
                    _add_scaled(vecs[i], vec_k, f)
                if a[i].get(i):
                    heapq.heappush(ready, i)
            a[k] = vecs[k] = None
            continue
        while first < n and (first not in live or not a[first]):
            first += 1
        if first == n:
            break
        # every live diagonal is zero: add row and column j to row and column i
        i, row_i = first, a[first]
        j = min(row_i)
        for c, x in a[j].items():
            if c != i:
                new = row_i.get(c, 0) + x
                if new:
                    row_i[c] = a[c][i] = new
                else:
                    del row_i[c], a[c][i]
        row_i[i] = 2 * a[j][i]
        if track:
            _add_scaled(vecs[i], vecs[j], 1)
        heapq.heappush(ready, i)
    radical = [vecs[i] for i in sorted(live)] if track else []
    return pos, len(live), neg, radical
