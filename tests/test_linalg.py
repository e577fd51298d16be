import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from algact import linalg
from algact.algebra import Algebra
from algact.errors import (
    DimensionMismatch,
    NotAssociative,
    NotCommutative,
    NotCommutativePoisson,
    NotPoisson,
    OpArityMismatch,
)
from algact.fields import GF, Q
from algact.opspace import SPACE_KINDS, space_of_kind

import oracle
from test_opspace import _rebased_matrix_algebras


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


def test_nullspace_without_equations_is_the_identity_without_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("rref called")

    monkeypatch.setattr(linalg, "rref", refuse)
    for field in (Q, GF(3)):
        for n in range(5):
            assert linalg.nullspace_basis(field, [], n) == (linalg.mat_identity(field, n),
                                                           list(range(n)))


@pytest.mark.parametrize("field", [Q, GF(3), GF(7)], ids=repr)
def test_nullspace_with_equations_runs_one_elimination(field, monkeypatch):
    # the kernel is read off one RREF of the rows with reversed columns,
    # already canonical: no second RREF of the kernel vectors
    calls, rref = [], linalg.rref

    def spy(f, rows):
        calls.append(len(rows))
        return rref(f, rows)

    def refuse(*args):
        raise AssertionError("span_basis called")

    monkeypatch.setattr(linalg, "rref", spy)
    monkeypatch.setattr(linalg, "span_basis", refuse)
    rows = [[field.of(x) for x in row]  # rank 2: the third row is the sum of the others
            for row in ([1, 2, 0, 1, 3], [0, 1, 1, 2, 0], [1, 3, 1, 3, 3])]
    basis, pivots = linalg.nullspace_basis(field, rows, 5)
    assert calls == [3]
    assert (basis, pivots) == oracle.dense_rref(field, basis) and len(basis) == 5 - 2
    assert all(not any(linalg.mat_vec(field, rows, v)) for v in basis)


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


def combination(field, coeffs, rows):
    out = [field.zero] * len(rows[0])
    for a, row in zip(coeffs, rows):
        out = [field.add(x, field.mul(a, y)) for x, y in zip(out, row)]
    return out


@st.composite
def matrices(draw):
    """(field, rows): tall, wide, empty or zero-width shapes, with zero
    columns, zero rows and duplicated rows mixed in.  Tall systems of up
    to 30 rows are mostly random linear combinations of earlier rows, the
    redundant rows that the operator-space systems are made of."""
    field = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(0, 9))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=3))
    entry = scalars(field)
    rows = [[field.zero if c in zero_cols else draw(entry) for c in range(ncols)]
            for _ in range(draw(st.integers(0, 10)))]
    if rows and draw(st.booleans()):
        for _ in range(draw(st.integers(0, 20))):
            picked = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            coeffs = [draw(entry) for _ in picked]
            rows.append(combination(field, coeffs, picked))
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


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_span_basis_hands_zero_generators_to_rref(data):
    # rref skips a zero row, so span_basis filters none: it passes its
    # generators on as given, and zeros interleaved change nothing
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 5))
    gens = data.draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n), max_size=6))
    mixed = list(gens)
    for at in data.draw(st.lists(st.integers(0, len(gens)), min_size=1, max_size=3)):
        mixed.insert(at, [field.zero] * n)
    seen, rref = [], linalg.rref

    def spy(f, rows):
        seen.append(list(rows))
        return rref(f, rows)

    linalg.rref = spy  # by hand: @given refuses the function-scoped monkeypatch
    try:
        got = linalg.span_basis(field, mixed, n)
    finally:
        linalg.rref = rref
    assert seen == [mixed]
    assert got == linalg.span_basis(field, gens, n) == rref(field, gens)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dense_helpers_match_field_method_reference(data):
    # every dense helper computes with Python's operators and reduces once;
    # the reference below does each step with the Field methods
    field = data.draw(st.sampled_from(FIELDS + [GF(2**61 - 1)]))
    entry = scalars(field)
    m, k, n = (data.draw(st.integers(0, 4)) for _ in range(3))
    u, v = ([data.draw(entry) for _ in range(k)] for _ in range(2))
    A = [[data.draw(entry) for _ in range(k)] for _ in range(m)]
    B = [[data.draw(entry) for _ in range(n)] for _ in range(k)]
    add, mul = field.add, field.mul

    def dot(row, w):
        return combination(field, row, [[x] for x in w])[0] if w else field.zero

    want = {
        "vec_add": [[add(a, b) for a, b in zip(u, v)]],
        "vec_sub": [[field.sub(a, b) for a, b in zip(u, v)]],
        "vec_neg": [[field.neg(a) for a in u]],
        "mat_vec": [[dot(row, u) for row in A]],
        "mat_mul": [[dot(row, col) for col in zip(*B)] if B else [] for row in A],
    }
    got = {
        "vec_add": [linalg.vec_add(field, u, v)],
        "vec_sub": [linalg.vec_sub(field, u, v)],
        "vec_neg": [linalg.vec_neg(field, u)],
        "mat_vec": [linalg.mat_vec(field, A, u)],
        "mat_mul": linalg.mat_mul(field, A, B),
    }
    # the nullspace of A: back-substitution on the reference RREF
    R, pivots = oracle.dense_rref(field, A)
    free = [c for c in range(k) if c not in pivots]
    vecs = [[field.one if c == fc else field.zero for c in range(k)] for fc in free]
    for vec, fc in zip(vecs, free):
        for row, pc in zip(R, pivots):
            vec[pc] = field.neg(row[fc])
    want_basis, want_pivots = oracle.dense_rref(field, vecs) if vecs else ([], [])
    basis, null_pivots = linalg.nullspace_basis(field, A, k)
    assert null_pivots == want_pivots
    want["nullspace_basis"], got["nullspace_basis"] = want_basis, basis
    # coordinates in the RREF basis of A's rows: the coefficients on the
    # span, None off it
    coeffs = [data.draw(entry) for _ in R]
    w = combination(field, coeffs, R) if R else [field.zero] * k
    want["coords_in_span"] = [coeffs]
    got["coords_in_span"] = [linalg.coords_in_span(field, R, pivots, w)]
    if free:  # a step along a free column leaves the span
        w[free[0]] = add(w[free[0]], field.one)
        assert linalg.coords_in_span(field, R, pivots, w) is None
    # a product on F^k with constants c_ijl
    consts = {(i, j, l): data.draw(entry)
              for i in range(k) for j in range(k) for l in range(k)}
    if k:
        alg = Algebra.from_entries(field, k, [consts.items()])
        xy = [field.zero] * k
        for (i, j, l), c in consts.items():
            xy[l] = add(xy[l], mul(mul(u[i], v[j]), c))
        want["multiply"], got["multiply"] = [xy], [alg.multiply(0, u, v)]
    for name, rows in got.items():
        assert rows == want[name], name
        assert_canonical_scalars(field, rows)


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


# -- the operator-space systems and the cost of redundant rows ------------------


def _law_systems(monkeypatch, field, algebras, kinds):
    """(label, rows) of every rref input that ``space_of_kind`` builds."""
    systems, label = [], None
    rref = linalg.rref

    def recording(f, rows):
        systems.append((label, [list(r) for r in rows]))
        return rref(f, rows)

    monkeypatch.setattr(linalg, "rref", recording)
    for name, A in algebras:
        for kind in kinds:
            label = f"{field!r} {name} {kind}"
            try:
                space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
    monkeypatch.undo()
    return systems


def test_rref_matches_dense_reference_on_operator_space_systems(monkeypatch):
    gf7 = _law_systems(monkeypatch, GF(7), _rebased_matrix_algebras(GF(7), "T2 M2"),
                       SPACE_KINDS)
    t2 = [(n, A) for n, A in _rebased_matrix_algebras(Q, "T2 M2") if n == "T2.poisson"]
    q = _law_systems(monkeypatch, Q, t2, ["usga-poisson"])
    # multipliers and usga-cpoisson need a commutative base
    kinds = {label.split()[-1] for label, _ in gf7}
    assert kinds == set(SPACE_KINDS) - {"multipliers", "usga-cpoisson"}
    assert sum(len(rows) for _, rows in gf7) > 1000 and q
    for field, systems in ((GF(7), gf7), (Q, q)):
        for label, rows in systems:
            got = linalg.rref(field, rows)
            assert got == oracle.dense_rref(field, rows), label
            assert_canonical_scalars(field, got[0])


def _reduced_and_echelon_bases(field, rng, rank, ncols):
    """An RREF basis R and an echelon basis T R of the same row space,
    with T unit upper-triangular and dense, so T R is not reduced."""
    pivots = sorted(rng.sample(range(ncols), rank))
    R = []
    for c in pivots:
        row = [field.zero] * ncols
        row[c] = field.one
        for k in range(c + 1, ncols):
            if k not in pivots:
                row[k] = field.of(rng.randint(-3, 3))
        R.append(row)
    T = [[field.one if j == i else field.of(rng.choice((-2, -1, 1, 2))) if j > i
          else field.zero for j in range(rank)] for i in range(rank)]
    return R, pivots, [combination(field, t, R) for t in T]


@pytest.mark.parametrize("field", [Q, GF(7)], ids=repr)
def test_a_redundant_row_costs_one_elimination_per_pivot_it_touches(field, monkeypatch):
    # Counts, not times.  The redundant rows are sparse at the pivot
    # columns; reducing them against echelon rows that are not reduced
    # would fill in further pivot columns and take more eliminations.
    rng = random.Random(13)
    R, pivots, echelon = _reduced_and_echelon_bases(field, rng, 6, 14)
    redundant = []
    for _ in range(20):
        picked = rng.sample(R, rng.randint(1, 2))
        redundant.append(combination(field, [field.of(rng.randint(1, 4)) for _ in picked],
                                     picked))
    rows = echelon + redundant
    calls = 0
    eliminate = linalg._eliminate

    def counting(*args):
        nonlocal calls
        calls += 1
        eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)

    def cost(prefix):
        nonlocal calls
        calls = 0
        assert linalg.rref(field, prefix) == (R, pivots)
        return calls

    for k in range(len(echelon), len(rows)):
        touched = sum(1 for c in pivots if rows[k][c])
        assert cost(rows[: k + 1]) - cost(rows[:k]) <= touched, k


# -- shape checks at the entry points --------------------------------------------


def test_mat_vec_checks_every_row_of_the_matrix():
    # the second row is one entry short; reading only the first row missed it
    with pytest.raises(DimensionMismatch):
        linalg.mat_vec(GF(3), [[1, 0], [1]], [1, 1])


def test_mat_mul_checks_every_row_of_both_factors():
    with pytest.raises(DimensionMismatch):
        linalg.mat_mul(GF(3), [[1, 0], [1]], [[1], [1]])
    with pytest.raises(DimensionMismatch):
        linalg.mat_mul(GF(3), [[1, 0], [0, 1]], [[1, 1], [1]])


def test_nullspace_refuses_equations_of_the_wrong_length():
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(3), [[1, 0, 1, 1]], 3)  # one coefficient too many
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(3), [[1, 0]], 3)  # one too few
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(Q, [[F(1), F(0), F(0)], [F(0), F(1)]], 3)


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1]], [[0, 1], [1, 0, 1]]], ids=str)
def test_rref_refuses_ragged_rows(rows):
    with pytest.raises(DimensionMismatch):
        linalg.rref(GF(5), rows)


def test_span_basis_checks_the_length_of_zero_vectors_too():
    with pytest.raises(DimensionMismatch):
        linalg.span_basis(GF(3), [[1, 2, 0], [0, 0]], 3)
    with pytest.raises(DimensionMismatch):
        linalg.span_basis(Q, [[F(0)] * 4], 3)


@pytest.mark.parametrize("b", [[F(1), F(2), F(3), F(4)], [F(1), F(2)]], ids=len)
def test_solve_refuses_a_right_hand_side_of_the_wrong_length(b):
    A = [[F(1), F(0)], [F(1), F(1)], [F(0), F(1)]]
    with pytest.raises(DimensionMismatch):
        linalg.solve(Q, A, b)
