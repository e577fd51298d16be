"""Metamorphic checks: results that must not change under a change of basis
(action counts, the conditions an action fails, and the dimensions of
operator spaces or the class of the error that refuses the base).

The basis change is done here on plain ints mod p, sharing no code with the
package's linear algebra: with new basis vectors e'_a = sum_i M[i][a] e_i,
the structure constants become c'_ab = M^-1 (sum_ij M[i][a] M[j][b] c_ij).
An action's operators change with the bases of both algebras: with
e'_p = sum_q N[q][p] e_q in B and M in X, L'_p = M^-1 (sum_q N[q][p] L_q) M.

Q and GF(p) must also agree wherever p divides no denominator that appears:
the reduction mod p of a rational, x = a/b to a b^-1 mod p, is written here
as well.
"""

import random
from fractions import Fraction

import pytest

from algact.actions import (
    ActionData,
    action_to_morphism,
    enumerate_actions,
    is_acting_morphism,
    validate_action,
)
from algact.algebra import IDENTITY_TAGS, Algebra, check_identity
from algact.catalog import builtin, catalog_actions, catalog_algebras
from algact.errors import AlgactError
from algact.fields import GF, Q
from algact.opspace import SPACE_KINDS, space_of_kind

from test_opspace import _rebased_matrix_algebras

P = 3


def _inverse(M, p):
    """The inverse of M mod p by Gauss-Jordan elimination, or None."""
    n = len(M)
    rows = [list(M[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _random_invertible(rng, n, p):
    while True:
        M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        Minv = _inverse(M, p)
        if Minv is not None:
            return M, Minv


def _rebased(A, rng):
    """A copy of A in a random basis."""
    return _rebase(A, *_random_invertible(rng, A.dim, P))


def _rebase(A, M, Minv):
    """A copy of A in the basis e'_a = sum_i M[i][a] e_i."""
    n = A.dim
    op_entries = []
    for op in range(A.num_ops):
        c = [[[int(x) for x in A.mul_basis(op, i, j)] for j in range(n)] for i in range(n)]
        entries = {}
        for a in range(n):
            for b in range(n):
                w = [sum(M[i][a] * M[j][b] * c[i][j][k] for i in range(n) for j in range(n))
                     for k in range(n)]
                for m in range(n):
                    value = sum(Minv[m][k] * w[k] for k in range(n)) % P
                    if value:
                        entries[(a, b, m)] = value
        op_entries.append(entries)
    return Algebra.from_entries(A.field, n, op_entries, names=[o.name for o in A.ops])


PAIRS = [
    ("abelian(1)", "leibniz_2dim_nonlie", "leibniz"),
    ("leibniz_2dim_nonlie", "abelian(1)", "leibniz"),
    ("leibniz_2dim_nonlie", "leibniz_2dim_nonlie", "leibniz"),
    ("assoc_triangular", "assoc_triangular", "associative"),
    ("poisson_abelian(1)", "poisson_abelian(1)", "poisson"),
    # more pairs where L6 rejects some homomorphisms into the weak actor
    ("lie_2dim_nonabelian", "abelian(1)", "leibniz"),
    ("heisenberg", "abelian(1)", "leibniz"),
]


@pytest.mark.parametrize("b,x,variety", PAIRS, ids=["-".join(p) for p in PAIRS])
def test_action_count_invariant_under_change_of_basis(b, x, variety):
    field = GF(P)
    B, X = builtin(b, field), builtin(x, field)
    count = len(enumerate_actions(B, X, variety))
    rng = random.Random(f"{b}|{x}|{variety}")
    for _ in range(3):
        B2, X2 = _rebased(B, rng), _rebased(X, rng)
        assert len(enumerate_actions(B2, X2, variety)) == count


def _matmul(X, Y):
    return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) % P for j in range(len(Y[0]))]
            for i in range(len(X))]


def _int_operators(act):
    return {s: [[[int(x) for x in row] for row in L] for L in mats]
            for s, mats in act.operators.items()}


def _rebased_action(act, rng):
    """The action in random bases of B (N) and of X (M)."""
    B, X = act.acting, act.kernel
    N, Ninv = _random_invertible(rng, B.dim, P)
    M, Minv = _random_invertible(rng, X.dim, P)
    n = X.dim
    operators = {}
    for slot, mats in _int_operators(act).items():
        combos = [[[sum(N[q][p] * mats[q][i][j] for q in range(B.dim)) for j in range(n)]
                   for i in range(n)] for p in range(B.dim)]
        operators[slot] = [_matmul(_matmul(Minv, L), M) for L in combos]
    return ActionData(act.variety, _rebase(B, N, Ninv), _rebase(X, M, Minv), operators)


def _mutated(act, rng):
    """The action with one operator entry changed by a nonzero scalar."""
    operators = _int_operators(act)
    L = rng.choice(rng.choice(list(operators.values())))
    i, j = rng.randrange(len(L)), rng.randrange(len(L))
    L[i][j] = (L[i][j] + rng.randrange(1, P)) % P
    return ActionData(act.variety, act.acting, act.kernel, operators)


def test_failed_conditions_invariant_under_change_of_basis():
    field = GF(P)
    named = catalog_actions(field) + [("metere_action", builtin("metere_action", field))]
    verdicts = set()
    for name, act in named:
        rng = random.Random(name)
        for a in [act] + [_mutated(act, rng) for _ in range(4)]:
            expected = validate_action(a).failed_labels()
            verdicts.add(tuple(expected))
            for _ in range(2):
                assert validate_action(_rebased_action(a, rng)).failed_labels() == expected, name
    # the sweep reaches valid actions and many different failures
    assert () in verdicts and len(verdicts) > 20, verdicts


def _space_dim_or_refusal(A, kind):
    """The dimension of the kind's space on A, or the class of the error that
    refuses A."""
    try:
        return space_of_kind(A, kind).dim
    except AlgactError as exc:
        return type(exc)


ALGEBRAS = {name: A for name, A, _ in catalog_algebras(GF(P))}


@pytest.mark.parametrize("kind", SPACE_KINDS)
@pytest.mark.parametrize("name", ALGEBRAS)
def test_operator_space_invariant_under_change_of_basis(name, kind):
    A = ALGEBRAS[name]
    expected = _space_dim_or_refusal(A, kind)
    rng = random.Random(f"{name}|{kind}")
    for _ in range(2):
        assert _space_dim_or_refusal(_rebased(A, rng), kind) == expected


def _mod(x, p):
    """The rational x mod p, or None if p divides its denominator."""
    x = Fraction(x)
    return None if x.denominator % p == 0 else x.numerator * pow(x.denominator, -1, p) % p


def _constants(A, p=None):
    """Each operation of A as {(i, j, k): c}, reduced mod p if p is given;
    None if p divides a denominator."""
    out = []
    for op in A.ops:
        entries = {}
        for (i, j, k), c in op.sorted_entries():
            c = c if p is None else _mod(c, p)
            if c is None:
                return None
            if c:
                entries[(i, j, k)] = c
        out.append(entries)
    return out


def _space_or_none(A, kind):
    try:
        return space_of_kind(A, kind)
    except AlgactError:
        return None  # the base is outside the kind's variety


@pytest.mark.parametrize("p", [3, 5, 7])
def test_q_and_gf_p_agree_where_p_divides_no_denominator(p):
    # the same integer constants over Q and over GF(p): reducing the Q
    # basis and its induced constants mod p gives the GF(p) space exactly,
    # when p divides none of their denominators and the dimensions agree
    pairs = [(name, A, B) for (name, A, _), (_, B, _) in
             zip(catalog_algebras(Q), catalog_algebras(GF(p)))]
    pairs += [(name, A, B) for (name, A), (_, B) in
              zip(_rebased_matrix_algebras(Q, "T2 M2"), _rebased_matrix_algebras(GF(p), "T2 M2"))]
    compared = 0
    for name, A, B in pairs:
        assert _constants(A, p) == _constants(B), name  # B is A mod p
        for tag in IDENTITY_TAGS:
            if tag != "poisson" or A.num_ops == 2:
                assert check_identity(B, tag).holds or not check_identity(A, tag).holds, (name, tag)
        for kind in SPACE_KINDS:
            space, modp = _space_or_none(A, kind), _space_or_none(B, kind)
            if space is None or modp is None or space.dim != modp.dim:
                continue
            basis = [tuple([[_mod(x, p) for x in row] for row in M] for M in t)
                     for t in space.basis]
            if any(x is None for t in basis for M in t for row in M for x in row):
                continue
            if space.algebra is None:
                assert basis == modp.basis, (name, kind)
                compared += 1
            elif (constants := _constants(space.algebra, p)) is not None:
                assert basis == modp.basis, (name, kind)
                assert constants == _constants(modp.algebra), (name, kind)
                compared += 1
    assert compared > 50, compared
    # the verdicts on actions: the conditions validation fails, and whether
    # the action's morphism into the weak actor passes the acting law
    modp = dict(catalog_actions(GF(p)), metere_action=builtin("metere_action", GF(p)))
    verdicts = set()
    for name, a in catalog_actions(Q) + [("metere_action", builtin("metere_action", Q))]:
        b = modp.pop(name)
        entries = [x for mats in a.operators.values() for M in mats for row in M for x in row]
        if (_constants(a.acting, p) is None or _constants(a.kernel, p) is None
                or any(_mod(x, p) is None for x in entries)):
            continue
        failed = validate_action(a).failed_labels()
        assert validate_action(b).failed_labels() == failed, name
        acting = is_acting_morphism(action_to_morphism(a)).acting
        assert is_acting_morphism(action_to_morphism(b)).acting == acting, name
        verdicts.add((tuple(failed), acting))
    assert not modp and verdicts == {((), True), (("L6",), False)}, verdicts
