"""The evaluation of laws visits only the argument tuples where some term can
be nonzero.  Here it is checked against an evaluation at every basis tuple,
written out below, on sparse and mutated inputs: a pruning that skips a
tuple with a nonzero defect shows up here, where dense inputs would hide it.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from algact import laws, linalg
from algact.algebra import _IDENTITIES, IDENTITY_TAGS, Algebra, check_identity
from algact.catalog import catalog_algebras
from algact.errors import AlgactError
from algact.fields import GF, Q
from algact.opspace import _KINDS, SPACE_KINDS, space_of_kind

FIELDS = (Q, GF(3), GF(2**61 - 1))  # a large p: unreduced sums of residues are big ints


def every_tuple(A, law, operators=None):
    """(args, defect) at each basis tuple of ``law`` where it fails, the
    tuples in lexicographic order, evaluating every one of them."""
    env = laws._Env(A, {s: linalg.mat_sparse(zip(*M)) for s, M in (operators or {}).items()})
    defect, out = laws._defect(env, law), []
    for args in iproduct(range(A.dim), repeat=laws._arity(law)):
        d = linalg.reduced(defect(args), A.field.char)
        if d:
            out.append((args, [d.get(k, A.field.zero) for k in range(A.dim)]))
    return out


@lru_cache(maxsize=None)
def spaces():
    """(field, base name, base, kind, space) for every kind on every catalog
    base in its variety."""
    out = []
    for field, kind in iproduct(FIELDS, SPACE_KINDS):
        for name, A, _ in catalog_algebras(field):
            try:
                out.append((field, name, A, kind, space_of_kind(A, kind)))
            except AlgactError:
                continue  # the base is outside the kind's variety
    return out


def scalars(field):
    return st.integers(-3, 3).filter(bool) if field == Q else st.integers(1, field.char - 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_self_check_equals_evaluation_at_every_tuple(data):
    field, name, A, kind, space = data.draw(st.sampled_from(spaces()))
    n, width = A.dim, len(space.components)
    entries = st.tuples(st.integers(0, width - 1), st.integers(0, n - 1), st.integers(0, n - 1),
                        scalars(field))
    if space.dim and data.draw(st.booleans()):  # a basis tuple with one entry changed
        tup = [[list(row) for row in M] for M in data.draw(st.sampled_from(space.basis))]
        b, r, c, x = data.draw(entries)
        tup[b][r][c] = field.add(tup[b][r][c], field.of(x))
    else:  # one to three nonzero entries
        tup = [[[field.zero] * n for _ in range(n)] for _ in range(width)]
        for b, r, c, x in data.draw(st.lists(entries, min_size=1, max_size=3)):
            tup[b][r][c] = field.of(x)
    spec = _KINDS[kind]
    operators = dict(zip(spec.components, tup))
    fails = laws.failures(A, [law for _, law in spec.laws], [operators])
    for label, law in spec.laws:
        expected = [(0, *hit) for hit in every_tuple(A, law, operators)]
        assert list(fails(law)) == expected, (name, kind, label, tup)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pruned_identity_check_equals_evaluation_at_every_tuple(data):
    field, dim = data.draw(st.sampled_from(FIELDS)), data.draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)
    ops = [data.draw(st.dictionaries(st.tuples(index, index, index), scalars(field), max_size=6))
           for _ in range(data.draw(st.integers(1, 2)))]
    A = Algebra.from_entries(field, dim, ops)
    tags = [tag for tag in IDENTITY_TAGS if tag != "poisson" or A.num_ops == 2]
    for tag in tags:
        parts = _IDENTITIES[tag]
        fails = laws.failures(A, [law for _, law in parts])
        for part, law in parts:
            assert list(fails(law)) == [(0, *hit) for hit in every_tuple(A, law)], (ops, tag, part)
        first = next(((part, hits[0]) for part, law in parts if (hits := every_tuple(A, law))), None)
        rep = check_identity(A, tag)
        if first is not None:
            assert (rep.failed_part, rep.witness, rep.defect) == (first[0], *first[1]), (ops, tag)
        elif tag != "jordan":  # the cubic law is checked apart from the laws
            assert rep.holds, (ops, tag)


# -- compiled nodes that no law of the table reaches ---------------------------------


def constants(field):
    """Nonzero structure constants; over Q with denominators, which the
    evaluation clears."""
    if field == Q:
        return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    return st.integers(1, field.char - 1)


def random_algebra(data, field, dim, names=None):
    index = st.integers(0, dim - 1)
    entries = data.draw(st.dictionaries(st.tuples(index, index, index), constants(field),
                                        max_size=2 * dim))
    return Algebra.from_entries(field, dim, [entries], names=names)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_product_of_two_compound_factors_matches_a_dense_reference(data):
    # (xy)(zw): both factors of the outer product are products themselves
    field, dim = data.draw(st.sampled_from((Q, GF(3)))), data.draw(st.integers(1, 3))
    A = random_algebra(data, field, dim)
    law = ((1, laws._p(laws._p(0, 1), laws._p(2, 3))),)
    expected = []
    for args in iproduct(range(dim), repeat=4):
        x, y, z, w = map(A.unit, args)
        d = A.multiply(0, A.multiply(0, x, y), A.multiply(0, z, w))
        if any(d):
            expected.append((0, args, d))
    assert list(laws.failures(A, [law])(law)) == expected, A.ops[0].groups


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_operator_at_a_compound_element_on_a_compound_argument_matches_a_dense_reference(data):
    # l_[x,y]([a, a]) = sum_p [x, y]_p l_p([a, a]), x, y in B and a in X
    field = data.draw(st.sampled_from((Q, GF(3))))
    nb, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
    B = random_algebra(data, field, nb, names=["bracket"])
    X = random_algebra(data, field, n, names=["bracket"])
    entry = st.one_of(st.just(field.zero), constants(field))
    ls = [[[data.draw(entry) for _ in range(n)] for _ in range(n)] for _ in range(nb)]
    law = ((1, laws._at("l", laws._b(0, 1), laws._b(2, 2))),)
    expected = []
    for x, y, a in iproduct(range(nb), range(nb), range(n)):
        c = B.multiply(0, B.unit(x), B.unit(y))
        v = X.multiply(0, X.unit(a), X.unit(a))
        d = [field.of(sum(c[p] * ls[p][k][j] * v[j] for p in range(nb) for j in range(n)))
             for k in range(n)]
        if any(d):
            expected.append((0, (x, y, a), d))
    assert list(laws.failures(X, [law], [{"l": ls}], B)(law)) == expected, (B, X, ls)


# -- the packed last argument: every slot (k, t) of one evaluation ------------------

ON_LAWS = (
    laws.derivation("M", laws.PRODUCT), laws.derivation("M", laws.BRACKET),
    laws.antiderivation("M", laws.BRACKET), laws.left_multiplier("M"),
    laws.right_multiplier("M"), laws.mixed("M", "N"), laws.compatibility("M", "N"),
    laws.v1("M", "N"), laws.v2("M", "N"),
)
IDENTITY_LAWS = (laws.ASSOCIATIVITY, laws.RIGHT_LEIBNIZ, laws.JACOBI, laws.POISSON_COMPAT,
                 laws.COMMUTATIVITY, laws.ANTICOMMUTATIVITY)


def every_set(A, law, family):
    """The failures of ``family`` as ``laws.failures`` reports them, from
    :func:`every_tuple` on each set alone: by args, then by set."""
    hits = [(t, *hit) for t, operators in enumerate(family)
            for hit in every_tuple(A, law, operators)]
    return sorted(hits, key=lambda hit: (hit[1], hit[0]))


def dense_algebra(data, field, dim, ops):
    """``ops`` operations whose tensors hold up to dim^3 nonzero constants."""
    index = st.integers(0, dim - 1)
    tensors = [data.draw(st.dictionaries(st.tuples(index, index, index), constants(field),
                                         max_size=dim ** 3)) for _ in range(ops)]
    return Algebra.from_entries(field, dim, tensors,
                                names=["mul", "bracket"] if ops == 2 else ["bracket"])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_family_fails_at_every_slot_as_each_set_alone(data):
    # several sets failing at several e_k of one prefix: the one evaluation
    # per prefix decodes them in the order (args, t), each as it fails alone
    field, dim = data.draw(st.sampled_from(FIELDS)), data.draw(st.integers(1, 4))
    A = dense_algebra(data, field, dim, data.draw(st.integers(1, 2)))
    law = data.draw(st.sampled_from(ON_LAWS))
    entry = st.one_of(st.just(field.zero), constants(field))
    matrix = st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim)
    family = [{s: data.draw(matrix) for s in ("M", "N")}
              for _ in range(data.draw(st.integers(1, 5)))]
    assert list(laws.failures(A, [law], family)(law)) == every_set(A, law, family), family


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_identities_fail_at_every_slot_as_each_tuple_alone(data):
    # the arity-3 identities on algebras of dimension up to 6: n slots, one
    # per e_k, in each evaluation
    field, dim = data.draw(st.sampled_from(FIELDS)), data.draw(st.integers(1, 6))
    A = dense_algebra(data, field, dim, 2)
    for law in IDENTITY_LAWS:
        assert list(laws.failures(A, [law])(law)) == every_set(A, law, [{}]), (A, law)


# M(xy) + M(x)y + xM(y), its terms signed alike, so that they add up
ADDITIVE = tuple((1, node) for _, node in laws.derivation("M", laws.PRODUCT))


@pytest.mark.parametrize("field", (GF(5), GF(11), GF(2**61 - 1), Q), ids=repr)
def test_the_packed_evaluation_holds_its_largest_slot(field):
    # Every structure constant is C and every entry of the last set's
    # operator is M, so each term of ADDITIVE is n C M at every coordinate
    # and the defect 3 n C M, the bound that sizes the slots: slot
    # (n - 1, T - 1), the highest of the packed int, holds the largest value
    # a slot can.  The other sets hold smaller entries, set t in slots
    # (k, t) below it.  Over Q, M is negative, the value -3 n C M.
    C, M = (field.char - 1, field.char - 1) if field.char else (7, -5)
    for n, count in ((1, 1), (1, 3), (2, 2), (3, 4), (4, 3), (4, 6)):  # p divides no 3 n
        A = Algebra.from_entries(field, n, [{ijk: C for ijk in iproduct(range(n), repeat=3)}])
        family = [{"M": [[field.of((t + i * n + j) % 3) for j in range(n)] for i in range(n)]}
                  for t in range(count - 1)]
        family.append({"M": [[field.of(M)] * n for _ in range(n)]})
        hits = list(laws.failures(A, [ADDITIVE], family)(ADDITIVE))
        assert hits == every_set(A, ADDITIVE, family), (n, count)
        last = (count - 1, (n - 1,) * 2, [field.of(3 * n * C * M)] * n)
        assert hits[-1] == last, (n, count)
