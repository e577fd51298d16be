import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from algact import linalg
from algact.fields import GF, Q

import oracle


def F(x):
    return Fraction(x)


def test_nullspace_identity_system_empty():
    basis, _ = linalg.nullspace_basis(Q, linalg.mat_identity(Q, 3), 3)
    assert basis == []


def test_nullspace_zero_system_is_standard_basis():
    basis, _ = linalg.nullspace_basis(Q, [], 2)
    assert basis == [[F(1), F(0)], [F(0), F(1)]]
    # rows that are all zero cut out nothing either
    assert linalg.nullspace_basis(Q, [[F(0), F(0)]], 2)[0] == basis


def test_nullspace_one_equation_mod3_canonicalized():
    f = GF(3)
    basis, _ = linalg.nullspace_basis(f, [[1, 1]], 2)  # x + y = 0
    assert basis == [[1, 2]]


def test_rref_unique_under_row_shuffles():
    rows = [[F(2), F(4), F(1)], [F(1), F(2), F(0)], [F(0), F(0), F(1)]]
    r1, p1 = linalg.rref(Q, rows)
    r2, p2 = linalg.rref(Q, rows[::-1])
    assert r1 == r2 and p1 == p2


def test_coords_in_span():
    basis, piv = linalg.span_basis(Q, [[F(1), F(2), F(0)], [F(0), F(0), F(1)]], 3)
    v = [F(2), F(4), F(5)]
    coords = linalg.coords_in_span(Q, basis, piv, v)
    assert coords == [F(2), F(5)]
    assert linalg.coords_in_span(Q, basis, piv, [F(0), F(1), F(0)]) is None


def test_solve_consistent_and_inconsistent():
    A = [[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]]
    x = linalg.solve(Q, A, [F(2), F(5), F(3)])
    assert x == [F(2), F(3)]
    assert linalg.solve(Q, A, [F(1), F(0), F(0)]) is None


def test_rank_and_same_span():
    A = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.mat_rank(Q, A) == 1
    b1, _ = linalg.span_basis(Q, [[F(1), F(1)]], 2)
    b2, _ = linalg.span_basis(Q, [[F(3), F(3)], [F(-1), F(-1)]], 2)
    assert b1 == b2


def test_mat_mul_shapes():
    A = [[F(1), F(2)]]
    B = [[F(3)], [F(4)]]
    assert linalg.mat_mul(Q, A, B) == [[F(11)]]
    assert linalg.mat_mul(Q, B, A) == [[F(3), F(6)], [F(4), F(8)]]


# -- the sparse integer RREF against the dense Field-method reference -----------

FIELDS = [Q, GF(3), GF(5), GF(7)]


def scalars(field):
    if field == Q:
        nonzero = st.fractions(min_value=-7, max_value=7, max_denominator=6)
        return st.one_of(st.just(Fraction(0)), nonzero)
    return st.one_of(st.just(0), st.integers(0, field.p - 1))


@st.composite
def matrices(draw):
    """(field, rows): tall, wide, empty or zero-width shapes, with zero
    columns, zero rows and duplicated rows mixed in."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 9))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=3))
    entry = scalars(field)
    rows = [[field.zero if c in zero_cols else draw(entry) for c in range(ncols)]
            for _ in range(draw(st.integers(0, 10)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "duplicate"]))
        at = draw(st.integers(0, len(rows)))
        if kind == "zero":
            rows.insert(at, [field.zero] * ncols)
        elif rows:
            rows.insert(at, list(draw(st.sampled_from(rows))))
    return field, rows


def assert_canonical_scalars(field, rows):
    for row in rows:
        for x in row:
            if field == Q:
                assert type(x) is Fraction
            else:
                assert type(x) is int and 0 <= x < field.p


@settings(max_examples=300, deadline=None)
@given(matrices())
@example((Q, []))
@example((GF(3), [[], []]))
@example((GF(5), [[0, 0], [0, 0]]))
@example((Q, [[F(0)] * 3, [F(-2), F(4), F(0)], [F(0)] * 3, [F(1), F(-2), F(0)]]))
def test_rref_matches_dense_reference(case):
    field, rows = case
    before = copy.deepcopy(rows)
    got_rows, got_pivots = linalg.rref(field, rows)
    want_rows, want_pivots = oracle.dense_rref(field, rows)
    assert rows == before  # the input is left as it was
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert_canonical_scalars(field, got_rows)


def test_rref_clears_non_integer_rationals():
    rows = [[F("1/2"), F("-1/3"), F(0)], [F("-3/4"), F("1/2"), F("5/7")]]
    got, pivots = linalg.rref(Q, rows)
    assert (got, pivots) == oracle.dense_rref(Q, rows)
    assert got == [[F(1), F("-2/3"), F(0)], [F(0), F(0), F(1)]]
    assert pivots == [0, 2]


def test_q_nullspace_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20231)
    for _ in range(40):
        nrows, n = rng.randint(1, 7), rng.randint(1, 9)
        rows = [[F(rng.choice([0, 0, 0, 1, -1, 2, -3])) / rng.choice([1, 1, 2, 3])
                 for _ in range(n)] for _ in range(nrows)]
        basis, _ = linalg.nullspace_basis(Q, rows, n)
        kernel = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r]
                               for r in rows]).nullspace()
        assert len(basis) == len(kernel)
        if not kernel:
            continue
        canonical, _ = sympy.Matrix.hstack(*kernel).T.rref()
        want = [[Fraction(int(x.p), int(x.q)) for x in canonical.row(i)]
                for i in range(len(kernel))]
        assert basis == want


# -- callers of rref at their edges --------------------------------------------


@pytest.mark.parametrize("field", [Q, GF(5)], ids=repr)
def test_solve_pivot_in_constant_column(field):
    one, two = field.of(1), field.of(2)
    A = [[one, two], [two, field.of(4)]]  # rank 1: the second row is twice the first
    assert linalg.solve(field, A, [one, one]) is None
    assert linalg.solve(field, A, [one, two]) == [one, field.zero]


def test_mat_rank_of_zero_matrices():
    assert linalg.mat_rank(Q, [[F(0)] * 3 for _ in range(2)]) == 0
    assert linalg.mat_rank(GF(3), [[0, 0]]) == 0
    assert linalg.mat_rank(Q, []) == 0


def test_nullspace_basis_without_rows_or_unknowns():
    assert linalg.nullspace_basis(Q, [], 0) == ([], [])
    assert linalg.nullspace_basis(GF(7), [], 0) == ([], [])


def test_coords_in_span_over_prime_field():
    f = GF(5)
    basis, piv = linalg.span_basis(f, [[2, 4, 0, 1], [0, 0, 3, 3]], 4)
    assert basis == [[1, 2, 0, 3], [0, 0, 1, 1]] and piv == [0, 2]
    assert linalg.coords_in_span(f, basis, piv, [3, 1, 4, 3]) == [3, 4]
    assert linalg.coords_in_span(f, basis, piv, [0, 1, 0, 0]) is None
