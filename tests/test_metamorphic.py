"""Metamorphic checks: results that must not change under a change of basis
(action counts, and the dimensions of operator spaces or the class of the
error that refuses the base).

The basis change is done here on plain ints mod p, sharing no code with the
package's linear algebra: with new basis vectors e'_a = sum_i M[i][a] e_i,
the structure constants become c'_ab = M^-1 (sum_ij M[i][a] M[j][b] c_ij).
"""

import random

import pytest

from algact.actions import enumerate_actions
from algact.algebra import Algebra
from algact.catalog import builtin, catalog_algebras
from algact.errors import AlgactError
from algact.fields import GF
from algact.opspace import SPACE_KINDS, space_of_kind

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
    n = A.dim
    M, Minv = _random_invertible(rng, n, P)
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
