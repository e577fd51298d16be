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


def sparse(rows):
    """Dense rows as the sparse rows {column: scalar} of nullspace_basis,
    zero entries kept."""
    return [dict(enumerate(row)) for row in rows]


def dense(field, rows, n):
    """Sparse rows {column: scalar} as dense rows of canonical scalars."""
    return [[field.of(row.get(c, 0)) for c in range(n)] for row in rows]


def reference_nullspace(field, rows, n):
    """The RREF basis of the nullspace of dense rows, and its pivots:
    back-substitution on the reference RREF, re-reduced by it."""
    R, pivots = oracle.dense_rref(field, rows)
    free = [c for c in range(n) if c not in pivots]
    vecs = [[field.one if c == fc else field.zero for c in range(n)] for fc in free]
    for vec, fc in zip(vecs, free):
        for row, pc in zip(R, pivots):
            vec[pc] = field.neg(row[fc])
    return oracle.dense_rref(field, vecs) if vecs else ([], [])


def test_nullspace_identity_system_empty():
    basis, _ = linalg.nullspace_basis(Q, sparse(linalg.mat_identity(Q, 3)), 3)
    assert basis == []


def test_nullspace_zero_system_is_standard_basis():
    basis, _ = linalg.nullspace_basis(Q, [], 2)
    assert basis == [[F(1), F(0)], [F(0), F(1)]]
    # rows that are all zero cut out nothing either, stored or empty
    assert linalg.nullspace_basis(Q, [{0: F(0), 1: F(0)}], 2)[0] == basis
    assert linalg.nullspace_basis(Q, [{}, {}], 2)[0] == basis


def test_nullspace_without_equations_is_the_identity_without_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("eliminated")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "_eliminate", refuse)  # over Q
    monkeypatch.setattr(linalg.Slots, "mod", refuse)  # over GF(p), once per row
    for field in (Q, GF(3)):
        for n in range(5):
            assert linalg.nullspace_basis(field, [], n) == (linalg.mat_identity(field, n),
                                                           list(range(n)))


@pytest.mark.parametrize("field", [Q, GF(3), GF(7), GF(2**31 - 1)], ids=repr)
def test_nullspace_with_equations_runs_one_elimination(field, monkeypatch):
    # the kernel is read off one elimination of the rows with reversed
    # columns, already canonical: no second RREF of the kernel vectors
    calls, echelon = [], linalg._echelon

    def spy(p, int_rows, *args):
        int_rows = list(int_rows)
        calls.append(len(int_rows))
        return echelon(p, int_rows, *args)

    def refuse(*args):
        raise AssertionError("a dense RREF ran")

    monkeypatch.setattr(linalg, "_echelon", spy)
    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "span_basis", refuse)
    rows = [[field.of(x) for x in row]  # rank 2: the third row is the sum of the others
            for row in ([1, 2, 0, 1, 3], [0, 1, 1, 2, 0], [1, 3, 1, 3, 3])]
    basis, pivots = linalg.nullspace_basis(field, sparse(rows), 5)
    assert calls == [3]
    assert (basis, pivots) == oracle.dense_rref(field, basis) and len(basis) == 5 - 2
    assert all(not any(linalg.mat_vec(field, rows, v)) for v in basis)


def test_nullspace_one_equation_mod3_canonicalized():
    f = GF(3)
    basis, _ = linalg.nullspace_basis(f, [{0: 1, 1: 1}], 2)  # x + y = 0
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

FIELDS = [Q, GF(3), GF(5), GF(7), GF(2**31 - 1)]


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


@st.composite
def sparse_systems(draw):
    """(field, rows, n): sparse rows {column: scalar} in F^n, over Q with
    Fraction entries, int entries (whole rows of them times a common
    factor, so not primitive) or both; explicit zero entries and empty rows
    mixed in, and some rows sums of earlier ones."""
    field = draw(st.sampled_from([Q, GF(3), GF(7), GF(2**31 - 1), GF(2**61 - 1)]))
    n = draw(st.integers(0, 8))
    if field == Q:
        entry = st.one_of(st.integers(-9, 9), scalars(Q))
    else:
        entry = scalars(field)
    columns = st.integers(0, n - 1) if n else st.nothing()
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        row = draw(st.dictionaries(columns, entry, max_size=n))
        if field == Q and draw(st.booleans()):  # a non-primitive int row
            factor = draw(st.integers(2, 6))
            row = {c: factor * draw(st.integers(-5, 5)) for c in row}
        rows.append(row)
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append({c: field.add(field.of(a.get(c, 0)), field.of(b.get(c, 0)))
                     for c in {*a, *b}})
    return field, rows, n


@settings(max_examples=300, deadline=None)
@given(sparse_systems())
@example((Q, [{}, {0: 0, 2: F(0)}], 3))
@example((Q, [{0: 4, 1: -6}, {1: F("1/2"), 2: F("-3/4")}], 3))
@example((GF(2**61 - 1), [{1: 2**61 - 2, 0: 0}, {}], 2))
def test_sparse_nullspace_matches_dense_reference(case):
    field, rows, n = case
    before = copy.deepcopy(rows)
    got = linalg.nullspace_basis(field, rows, n)
    assert rows == before  # the input is left as it was
    assert got == reference_nullspace(field, dense(field, rows, n), n)
    assert_canonical_scalars(field, got[0])


@settings(max_examples=200, deadline=None)
@given(sparse_systems(), st.data())
def test_a_nullspace_extended_by_more_rows_is_that_of_all_of_them(case, data):
    # the rows come lazily, in two parts, the second part added to the
    # elimination of the first; over GF(p) as unreduced ints
    field, rows, n = case
    if field.char:
        rows = [{c: x + data.draw(st.integers(-3, 3)) * field.char for c, x in row.items()}
                for row in rows]
    k, echelon = data.draw(st.integers(0, len(rows))), {}
    got = linalg.nullspace_basis(field, iter(rows[:k]), n, echelon)
    assert got == reference_nullspace(field, dense(field, rows[:k], n), n)
    got = linalg.nullspace_basis(field, iter(rows[k:]), n, echelon)
    assert got == reference_nullspace(field, dense(field, rows, n), n)
    assert_canonical_scalars(field, got[0])


# -- the packed GF(p) kernel against the dense reference ------------------------

PACKED_FIELDS = [GF(3), GF(7), GF(2**31 - 1)]


def _kernel_rows(field, rows, ncols, lead_at, split):
    """{pivot: dense row} of the packed kernel on the sparse int rows, fed
    in two parts, the second resuming the elimination of the first."""
    echelon = {}
    for part in (rows[:split], rows[split:]):
        linalg._echelon(field.char, (r.items() for r in part), ncols, lead_at, echelon)
    free = [c for c in range(ncols) if c not in echelon]
    out = {pc: linalg.unit_vector(field, ncols, pc) for pc in echelon}
    for pc, r in echelon.items():
        for c, x in linalg._free_entries(field, ncols, r, pc, free):
            out[pc][c] = x
    return out


def _reference_rows(field, rows, ncols, lead_at):
    """{pivot: dense row} of the dense reference RREF; for ``lead_at=max``
    that of the rows with their columns reversed, read back in order."""
    flip = (lambda row: row[::-1]) if lead_at is max else (lambda row: row)
    R, pivots = oracle.dense_rref(field, [flip(row) for row in dense(field, rows, ncols)])
    return {(ncols - 1 - c if lead_at is max else c): flip(r) for r, c in zip(R, pivots)}


@st.composite
def packed_systems(draw):
    """(field, rows, ncols, lead_at, split): up to 80 columns, sparse rows
    of unreduced ints, negative ones and ones of 70 bits among them, some
    rows unreduced sums of earlier ones."""
    field = draw(st.sampled_from(PACKED_FIELDS))
    ncols, p = draw(st.integers(0, 80)), field.char
    entry = st.one_of(st.integers(-3 * p, 3 * p), st.integers(-(2**70), 2**70),
                      st.sampled_from([0, p - 1, -1, p, -p]))
    columns = st.integers(0, ncols - 1) if ncols else st.nothing()
    rows = draw(st.lists(st.dictionaries(columns, entry, max_size=min(ncols, 12)), max_size=12))
    for _ in range(draw(st.integers(0, 6)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(st.integers(-2, 2))
        rows.append({c: a.get(c, 0) + k * b.get(c, 0) for c in {*a, *b}})
    return (field, rows, ncols, draw(st.sampled_from([min, max])),
            draw(st.integers(0, len(rows))))


@settings(max_examples=300, deadline=None)
@given(packed_systems())
@example((GF(3), [{0: -1, 1: 4}, {0: 2, 1: -4}], 2, min, 1))  # a row that is 3 times the other
@example((GF(2**31 - 1), [{79: -(2**70)}, {0: 2**31 - 1}], 80, max, 0))
def test_the_packed_kernel_matches_the_dense_reference(case):
    field, rows, ncols, lead_at, split = case
    assert _kernel_rows(field, rows, ncols, lead_at, split) == \
        _reference_rows(field, rows, ncols, lead_at)


@pytest.mark.parametrize("field", PACKED_FIELDS + [GF(5), GF(11)], ids=repr)
@pytest.mark.parametrize("lead_at", [min, max], ids=lambda f: f.__name__)
def test_the_packed_kernel_holds_its_largest_slot(field, lead_at):
    # The stored rows hold p - 1 at the last column, and the row that
    # completes the rank has 1 at each other pivot, so each of them adds
    # (p - 1)^2 to the last slot: p - 1 + (ncols - 1) (p - 1)^2, the most a
    # slot can reach before the reduction.  For max the columns are mirrored.
    # Over GF(5) and GF(11) a slot one bit narrower overflows at some ncols;
    # over the other fields the slack of the slot geometry hides it.
    p = field.char
    for ncols in range(1, 81):
        last = ncols - 1
        v = p - 1 if (p - 1 + last) % p else p - 2  # the row survives: rank = ncols
        rows = [{i: 1, last: p - 1} for i in range(last)]
        rows.append({**{i: 1 for i in range(last)}, last: v})
        if lead_at is max:
            rows = [{last - c: x for c, x in row.items()} for row in rows]
        got = _kernel_rows(field, rows, ncols, lead_at, ncols)
        assert len(got) == ncols and got == _reference_rows(field, rows, ncols, lead_at), ncols


def test_nullspace_eliminates_each_row_before_it_reads_the_next():
    # what a caller that stops a lazy source on the rank relies on
    rows, ranks, echelon = [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}, {2: 1}], [], {}

    def source():
        for row in rows:
            ranks.append(len(echelon))
            yield row

    linalg.nullspace_basis(GF(3), source(), 4, echelon)
    assert ranks == [0, 1, 1, 2] and len(echelon) == 3


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
        basis, _ = linalg.nullspace_basis(Q, sparse(rows), n)
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
    want_basis, want_pivots = reference_nullspace(field, A, k)
    basis, null_pivots = linalg.nullspace_basis(field, sparse(A), k)
    assert null_pivots == want_pivots
    want["nullspace_basis"], got["nullspace_basis"] = want_basis, basis
    R, pivots = oracle.dense_rref(field, A)
    free = [c for c in range(k) if c not in pivots]
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


def _law_systems(monkeypatch, field, algebras, kinds, route="nullspace_basis"):
    """(label, rows, unknowns, basis and pivots) of every nullspace that
    ``space_of_kind`` reads through ``linalg.<route>``, the rows as sparse
    maps: a call that extends the elimination of the one before holds the
    rows of both."""
    systems, label, last = [], None, (None, [])
    nullspace = getattr(linalg, route)

    def recording(f, rows, n, echelon=None):
        nonlocal last
        read = list(last[1]) if echelon is not None and echelon is last[0] else []
        last = echelon, read
        got = nullspace(f, (read.append(dict(r)) or r for r in rows), n, echelon)
        systems.append((label, read, n, got))
        return got

    monkeypatch.setattr(linalg, route, recording)
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
    # the systems go to nullspace_basis as sparse rows, over Q to
    # lifted_nullspace, which eliminates them mod 2^31 - 1; rref is checked
    # on them made dense, and the nullspace, lifted over Q, on the sparse
    # rows themselves
    gf7 = _law_systems(monkeypatch, GF(7), _rebased_matrix_algebras(GF(7), "T2 M2"),
                       SPACE_KINDS)
    t2 = [(n, A) for n, A in _rebased_matrix_algebras(Q, "T2 M2") if n == "T2.poisson"]
    q = _law_systems(monkeypatch, Q, t2, ["usga-poisson"], "lifted_nullspace")
    # multipliers and usga-cpoisson need a commutative base
    kinds = {label.split()[-1] for label, *_ in gf7}
    assert kinds == set(SPACE_KINDS) - {"multipliers", "usga-cpoisson"}
    assert sum(len(rows) for _, rows, *_ in gf7) > 1000 and q
    for field, systems in ((GF(7), gf7), (Q, q)):
        for label, rows, n, got in systems:
            dense_rows = dense(field, rows, n)
            reduced = linalg.rref(field, dense_rows)
            assert reduced == oracle.dense_rref(field, dense_rows), label
            assert_canonical_scalars(field, reduced[0])
            reference = reference_nullspace(field, dense_rows, n)
            assert got == reference == linalg.nullspace_basis(field, rows, n), label
            assert_canonical_scalars(field, got[0])


@pytest.mark.parametrize("field", [Q, GF(7)], ids=repr)
def test_space_of_kind_builds_no_dense_row(field, monkeypatch):
    # the law_rows forms go to the elimination as they are: no dense row is
    # made, so the dense RREF, the only reader of dense rows, never runs
    calls = []

    def spy(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "rref", spy("rref", linalg.rref))
    built = set()
    for _, A in _rebased_matrix_algebras(field, "T2 M2"):
        for kind in SPACE_KINDS:
            try:
                space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            built.add(kind)
    assert built == set(SPACE_KINDS) - {"multipliers", "usga-cpoisson"}
    assert calls == []


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


class _CountingEchelon(dict):
    """An echelon that counts the reads of its stored rows: the kernel reads
    the row of a pivot once for each multiply-add (an elimination) with it."""

    reads = 0

    def __getitem__(self, c):
        self.reads += 1
        return super().__getitem__(c)


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
    kernel = linalg._echelon

    def counting(p, int_rows, ncols):
        nonlocal calls
        store = kernel(p, int_rows, ncols, min, _CountingEchelon())
        calls += store.reads  # the reads of rref's own decode come later
        return store

    monkeypatch.setattr(linalg, "_echelon", counting)

    def cost(prefix):
        nonlocal calls
        calls = 0
        assert linalg.rref(field, prefix) == (R, pivots)
        return calls

    for k in range(len(echelon), len(rows)):
        touched = sum(1 for c in pivots if rows[k][c])
        assert touched and cost(rows[: k + 1]) - cost(rows[:k]) == touched, k


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
    # a column key outside range(n), even with a zero coefficient or after
    # a row that already reaches full rank
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(3), [{0: 1, 2: 1, 3: 1}], 3)  # one column too many
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(3), [{-1: 1, 0: 1}], 3)
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(Q, [{0: F(1)}, {1: F(0), 3: F(0)}], 3)
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(7), [{0: 1}, {1: 1}, {2: 5}], 2)
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(7), [{0: 1}], 0)


def test_nullspace_refuses_a_lazy_row_outside_the_columns():
    # each row is checked as it is read, the source read once; past full
    # rank the rest is still read for the check
    read = []

    def source(rows):
        for row in rows:
            read.append(row)
            yield row

    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(GF(3), source([{0: 1}, {1: 2, 3: 1}, {2: 1}]), 3)
    assert read == [{0: 1}, {1: 2, 3: 1}]
    with pytest.raises(DimensionMismatch):
        linalg.nullspace_basis(Q, source([{0: F(1)}, {1: F(1)}, {-1: F(0)}]), 2)
    echelon = {}
    linalg.nullspace_basis(GF(7), [{0: 1}], 2, echelon)
    with pytest.raises(DimensionMismatch):  # a row that extends an elimination
        linalg.nullspace_basis(GF(7), source([{2: 1}]), 2, echelon)


UNEQUAL_OPERANDS = [
    ("vec_add", [1, 2], [1]),
    ("vec_sub", [1], [1, 2]),
    ("mat_add", [[1, 2]], [[1, 2], [0, 1]]),
    ("mat_sub", [[1, 2], [0, 1]], [[1, 2], [0]]),  # the second rows differ
]


@pytest.mark.parametrize("name,a,b", UNEQUAL_OPERANDS, ids=[c[0] for c in UNEQUAL_OPERANDS])
def test_sums_refuse_operands_of_different_lengths(name, a, b):
    # zip stopped at the shorter operand and returned a truncated sum
    with pytest.raises(DimensionMismatch):
        getattr(linalg, name)(GF(3), a, b)


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


# -- the slot kernel -----------------------------------------------------------

_SLOT_FIELDS = [0, 3, 7, 2**61 - 1]  # 0 is Q


def _packed(slots, values):
    return sum(y << slots.width * t for t, y in enumerate(values))


@st.composite
def slot_cases(draw):
    """(p, bound, values): up to a dozen values of |y| <= bound, drawn among
    the extremes, nonzero multiples of p and a few failing slots among many
    zeros in the field."""
    p = draw(st.sampled_from(_SLOT_FIELDS))
    bound = draw(st.integers(1, 2**draw(st.sampled_from((3, 12, 40, 90)))))
    multiple = st.integers(1, bound // p).map(lambda k: k * p) if p and bound >= p else st.just(0)
    value = st.one_of(
        st.sampled_from([0, bound, -bound]),
        st.integers(-bound, bound),
        multiple,
        multiple.map(lambda y: -y),
    )
    values = draw(st.lists(value, min_size=1, max_size=12))
    if draw(st.booleans()):  # every slot zero in the field but one
        values = [y if p and not y % p else 0 for y in values]
        values[draw(st.integers(0, len(values) - 1))] = draw(st.integers(-bound, bound))
    return p, bound, values


@settings(max_examples=400, deadline=None)
@given(slot_cases())
@example((3, 3, [3, -3, 0, 3]))  # nonzero multiples of p only
@example((7, 2**40, [7 * 5**16, -(2**40), 1]))  # one failing slot at the end
@example((2**61 - 1, 2**90, [2**61 - 1, -(2**61 - 1), 2**90]))
@example((0, 5, [0, 0, -1, 0]))
def test_the_slot_kernel_reads_and_tests_each_slot_as_alone(case):
    # the width read off the bound, as each user reads it: every slot reads
    # back as it was, reduces to its own residue, and the int is zero in the
    # field exactly when each slot is, a nonzero multiple of p counting as zero
    p, bound, values = case
    slots = linalg.Slots(len(values), bound.bit_length() + 1, p)
    x = _packed(slots, values)
    assert [slots.at(x, t) for t in range(len(values))] == values
    assert slots.zero(x) == all((y % p if p else y) == 0 for y in values)
    if p:  # every slot reduced into [0, p), each as alone
        r, whole = slots.mod(x), (1 << slots.width) - 1
        assert [r >> slots.width * t & whole for t in range(len(values))] == [y % p for y in values]


@pytest.mark.parametrize("p", _SLOT_FIELDS)
def test_a_slot_one_bit_narrower_than_its_bound_reads_wrong(p):
    # one bit short of the width read off the bound, the extremes of the
    # bound no longer read back
    failed = 0
    for bound in (1, 5, 6, 2**20 - 1, 2**20, 3 * 2**61):
        for values in ([bound, 0], [-bound, 0], [0, bound, -bound]):
            slots = linalg.Slots(len(values), bound.bit_length(), p)
            x = _packed(slots, values)
            failed += [slots.at(x, t) for t in range(len(values))] != values
    assert failed > 0
