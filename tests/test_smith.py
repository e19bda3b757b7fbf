from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from circforge import Cyclo, root_of_unity
from circforge.smith import (
    cokernel_invariant_factors,
    det,
    in_lattice,
    kernel_basis,
    rank,
    reduced_echelon,
    smith_normal_form,
    solve,
)

from conftest import largest_nonzero_minor, permutation_det


def _matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*b)] for row in a]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_smith_factorization(m, n, data):
    entries = data.draw(st.lists(st.integers(-6, 6), min_size=m * n, max_size=m * n))
    a = [entries[i * n : (i + 1) * n] for i in range(m)]
    d, u, v = smith_normal_form(a)
    assert _matmul(_matmul(u, a), v) == d
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if y != 0:
            assert x != 0 and y % x == 0
    # off-diagonal zero
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    assert abs(permutation_det(u)) == 1 and abs(permutation_det(v)) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_kernel_basis(m, n, data):
    entries = data.draw(st.lists(st.integers(-5, 5), min_size=m * n, max_size=m * n))
    a = [entries[i * n : (i + 1) * n] for i in range(m)]
    for row in kernel_basis(a):
        assert _matmul(a, [[x] for x in row]) == [[0]] * m


def test_cokernel_invariant_factors():
    assert cokernel_invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert cokernel_invariant_factors([[2, 1], [0, 2]]) == [4]
    with pytest.raises(ValueError):
        cokernel_invariant_factors([[1, 0], [0, 0]])


def test_in_lattice():
    basis = [[2, 0], [0, 3]]
    assert in_lattice(basis, [4, 3])
    assert not in_lattice(basis, [1, 0])
    assert in_lattice([], [0, 0])
    assert not in_lattice([], [1, 0])


# -- elimination over Q(e_k) ---------------------------------------------------

_entries = st.builds(
    lambda q, k, e: Cyclo.rational(q) * root_of_unity(k, e),
    st.integers(-3, 3),
    st.sampled_from([1, 2, 3, 4, 6, 8]),
    st.integers(0, 7),
)


def _cyclo_matrix(data, m, n):
    return [[data.draw(_entries) for _ in range(n)] for _ in range(m)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.data())
def test_det_matches_leibniz(n, data):
    a = _cyclo_matrix(data, n, n)
    assert det(a) == permutation_det(a)


def test_elimination_on_rationals():
    # integer input is eliminated in Fractions, never in floats
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[Fraction(1, 2), 1], [1, 2]]) == 0
    with pytest.raises(ValueError):
        det([[1, 2]])
    x = solve([[1, 2], [3, 4]], [5, 6])
    assert x == [-4, Fraction(9, 2)] and all(type(v) is Fraction for v in x)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.data())
def test_rank_is_largest_nonzero_minor(m, n, r, data):
    # a product through an m x r by r x n factorization has rank <= r
    a = _matmul(_cyclo_matrix(data, m, r), _cyclo_matrix(data, r, n)) if r else [[0] * n for _ in range(m)]
    assert rank(a) == largest_nonzero_minor(a)


def test_rank_swaps_a_pivot_row_up():
    # the pivot of column 0 lies below a zero row: without moving it up, the
    # elimination leaves the pivot row in place and counts one pivot
    assert rank([[0, 0], [1, 0], [1, 1]]) == 2
    assert rank([[0, 1], [1, 0]]) == 2
    assert rank([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_rank_of_sparse_sign_matrices(m, n, data):
    # mostly zero entries put zeros at the leading positions, so most
    # columns take their pivot from a lower row
    entries = st.sampled_from((0, 0, 0, 1, -1))
    a = [[data.draw(entries) for _ in range(n)] for _ in range(m)]
    assert rank(a) == largest_nonzero_minor(a)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_solve_substitutes_back(m, n, data):
    a = _cyclo_matrix(data, m, n)
    x0 = [data.draw(_entries) for _ in range(n)]
    b = [row[0] for row in _matmul(a, [[x] for x in x0])]
    x = solve(a, b)
    assert [row[0] for row in _matmul(a, [[xi] for xi in x])] == b
    # a new row that sums two rows, with its right-hand side off by one
    if m >= 2:
        assert solve(a + [[p + q for p, q in zip(a[0], a[1])]], b + [b[0] + b[1] + 1]) is None
    assert solve([[0] * n], [1]) is None


# -- back-substitution against oracles that run no elimination -----------------

# mostly zero, so that leading entries are zero and pivots come from lower rows
_sparse_entries = st.one_of(st.just(0), st.just(0), _entries)
_sparse_fractions = st.one_of(st.just(0), st.just(0), st.fractions(-3, 3, max_denominator=4))


def _assert_reduced(e, pivots):
    """Unit pivots in increasing columns, zero before each pivot of its row,
    zero above and below each pivot, and zero rows after the pivot rows."""
    assert pivots == sorted(set(pivots))
    for r, col in enumerate(pivots):
        assert e[r][col] == 1
        assert all(x == 0 for x in e[r][:col])
        assert all(e[i][col] == 0 for i in range(len(e)) if i != r)
    assert all(x == 0 for row in e[len(pivots) :] for x in row)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([_sparse_entries, _sparse_fractions]), st.data())
def test_reduced_echelon_is_reduced_and_keeps_the_row_space(m, n, entries, data):
    a = [[data.draw(entries) for _ in range(n)] for _ in range(m)]
    e, pivots = reduced_echelon(a)
    _assert_reduced(e, pivots)
    # the rows of e lie in the row space of a and span a space of its rank
    r = largest_nonzero_minor(a)
    assert len(pivots) == largest_nonzero_minor(e) == largest_nonzero_minor(a + e) == r


def test_reduced_echelon_clears_above_each_pivot():
    e, pivots = reduced_echelon([[0, 2, 4, 2], [1, 1, 1, 1], [0, 0, 3, 0]])
    assert pivots == [0, 1, 2]
    assert e == [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]]
    assert all(type(x) is Fraction for row in e for x in row)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from([_sparse_entries, _sparse_fractions]), st.data())
def test_solve_is_cramers_rule(n, entries, data):
    a = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    d = permutation_det(a)
    assume(d != 0)
    b = [data.draw(entries) for _ in range(n)]
    cramer = [permutation_det([row[:i] + [bi] + row[i + 1 :] for row, bi in zip(a, b)]) / d for i in range(n)]
    assert solve(a, b) == cramer
