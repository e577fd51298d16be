"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` is a vector space F^n with one or two bilinear
operations stored as sparse tensors ``c[i][j][k]``, meaning
``e_i . e_j = sum_k c[i][j][k] e_k``.  One operation covers associative,
Leibniz, Lie and Jordan algebras; two operations (product first, bracket
second) cover Poisson-type algebras.

Identity checking is exhaustive over basis tuples.  Every identity but
Jordan's is a multilinear law of :mod:`algact.laws`, evaluated there on all
basis tuples, so vanishing on basis tuples is equivalent to vanishing
everywhere.  The Jordan identity, cubic in one variable, is written here and
checked through all of its multihomogeneous components.  Failing checks
always return the lexicographically first witness tuple together with its
nonzero defect, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Optional

from . import laws, linalg
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InputError,
    OpArityMismatch,
    OpIndexOutOfRange,
)
from .fields import Field

__all__ = [
    "BilinearOp",
    "Algebra",
    "IdentityReport",
    "Centers",
    "check_identity",
    "leibniz_kernel",
    "centers",
    "annihilator",
    "product_subspace",
    "is_homomorphism",
    "IDENTITY_TAGS",
    "MAX_FILE_DIM",
]

# the largest dimension a loaded file may declare, checked before anything is
# allocated; it admits every operator space of a base of dimension 6 or less
# (usga-poisson at most 108, the biderivations of abelian(6) 72)
MAX_FILE_DIM = 128


class BilinearOp:
    """One structure-constant tensor, stored once and sparse: ``groups`` maps
    (i, j) to e_i e_j as a sparse vector {k: c} of its nonzero constants, so
    memory grows with the nonzero constants, not with the dimension."""

    __slots__ = ("name", "groups")

    def __init__(self, field: Field, dim: int, entries, name: str = "mul"):
        self.name = name
        seen, groups = set(), {}
        for (i, j, k), c in (entries.items() if isinstance(entries, dict) else entries):
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InputError(f"structure constant index ({i},{j},{k}) out of range")
            if (i, j, k) in seen:
                raise InputError(f"duplicate structure constant at ({i},{j},{k})")
            seen.add((i, j, k))
            c = field.of(c)
            if not field.is_zero(c):
                groups.setdefault((i, j), {})[k] = c
        self.groups = groups

    def sorted_entries(self):
        return sorted(((i, j, k), c) for (i, j), group in self.groups.items()
                      for k, c in group.items())


class Algebra:
    """Immutable structure-constant algebra; all operations are pure."""

    def __init__(self, field: Field, dim: int, ops, labels=None):
        if dim < 0:
            raise InputError("dimension must be nonnegative")
        if not 1 <= len(ops) <= 2:
            raise OpArityMismatch("an algebra carries one or two bilinear operations")
        self.field = field
        self.dim = dim
        self.ops = list(ops)
        if labels is not None and len(labels) != dim:
            raise InputError("label count must equal the dimension")
        self.labels = list(labels) if labels is not None else None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_entries(cls, field, dim, op_entries, names=None, labels=None):
        """Build from a list of entry iterables, one per operation."""
        if names is None:
            names = ["mul", "bracket"][: len(op_entries)]
        if len(names) != len(op_entries):
            raise OpArityMismatch("give one name per operation")
        ops = [
            BilinearOp(field, dim, entries, name)
            for entries, name in zip(op_entries, names)
        ]
        return cls(field, dim, ops, labels)

    @classmethod
    def from_products(cls, field, dim, names, product, labels=None):
        """The algebra whose operation ``op`` (named ``names[op]``) sends
        (e_i, e_j) to the sparse coordinate vector ``product(op, i, j)``, a
        map {k: c}; only its entries are read, and zero values are dropped.

        The rule is called for op, then i, then j, each in increasing order,
        so the first error it raises is the one at the first such triple.
        """
        op_entries = [
            [
                ((i, j, k), c)
                for i in range(dim)
                for j in range(dim)
                for k, c in product(op, i, j).items()
            ]
            for op in range(len(names))
        ]
        return cls.from_entries(field, dim, op_entries, names=names, labels=labels)

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def bracket_op(self) -> int:
        """Index of the bracket: op 1 when two operations, op 0 otherwise."""
        return 1 if len(self.ops) == 2 else 0

    def _check_op(self, op_index: int):
        if not 0 <= op_index < len(self.ops):
            raise OpIndexOutOfRange(f"operation index {op_index} out of range")

    def unit(self, i: int):
        return linalg.unit_vector(self.field, self.dim, i)

    def zero_vec(self):
        return linalg.vec_zero(self.field, self.dim)

    def mul_basis(self, op_index: int, i: int, j: int):
        self._check_op(op_index)
        group = self.ops[op_index].groups.get((i, j), {})
        return [group.get(k, self.field.zero) for k in range(self.dim)]

    def multiply(self, op_index: int, x, y):
        self._check_op(op_index)
        f = self.field
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length differs from the algebra dimension")
        out = [f.zero] * self.dim
        groups = self.ops[op_index].groups
        ys = [(j, yj) for j, yj in enumerate(y) if yj]  # scalars are canonical
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in ys:
                group = groups.get((i, j))
                if group:
                    c = f.mul(xi, yj)
                    for k, ck in group.items():
                        out[k] = f.add(out[k], f.mul(c, ck))
        return out

    def left_matrix_basis(self, op_index: int, a: int):
        """Matrix of x -> e_a . x."""
        cols = [self.mul_basis(op_index, a, j) for j in range(self.dim)]
        return linalg.mat_from_cols(self.field, cols, self.dim)

    def right_matrix_basis(self, op_index: int, a: int):
        """Matrix of x -> x . e_a."""
        cols = [self.mul_basis(op_index, i, a) for i in range(self.dim)]
        return linalg.mat_from_cols(self.field, cols, self.dim)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        f = self.field
        data = {
            "field": f.to_json(),
            "dim": self.dim,
            "ops": [
                {
                    "name": op.name,
                    "entries": [
                        [i, j, k, f.to_str(c)] for (i, j, k), c in op.sorted_entries()
                    ],
                }
                for op in self.ops
            ],
        }
        if self.labels is not None:
            data["labels"] = self.labels
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "Algebra":
        try:
            field = Field.from_json(data["field"])
            dim = json_int(data["dim"], "dim")
            raw_ops = data["ops"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed algebra description: {exc}") from exc
        if dim > MAX_FILE_DIM:
            raise InputError(f"dimension {dim} exceeds the limit {MAX_FILE_DIM} for loaded algebras")
        labels = data.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(x, str) for x in labels)
        ):
            raise InputError("algebra labels must be a list of strings")
        ops = []
        try:
            for pos, op in enumerate(raw_ops):
                entries = [
                    (tuple(json_int(x, "entry index") for x in (i, j, k)), field.of(c))
                    for i, j, k, c in op.get("entries", [])
                ]
                name = op.get("name")
                if name is not None and not isinstance(name, str):
                    raise InputError(f"operation name must be a string, got {name!r}")
                name = name or ("bracket" if pos == 1 else "mul")
                ops.append(BilinearOp(field, dim, entries, name))
        except (AttributeError, TypeError, ValueError) as exc:
            raise InputError(f"malformed algebra operation: {exc}") from exc
        return cls(field, dim, ops, labels)

    def canonical_key(self):
        f = self.field
        return (
            str(f.to_json()),
            self.dim,
            tuple(
                (op.name, tuple((ijk, f.to_str(c)) for ijk, c in op.sorted_entries()))
                for op in self.ops
            ),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.dim == other.dim
            and len(self.ops) == len(other.ops)
            and all(a.groups == b.groups for a, b in zip(self.ops, other.ops))
        )

    def __hash__(self):
        # what __eq__ compares: operation names are left out
        ops = tuple(tuple(op.sorted_entries()) for op in self.ops)
        return hash((self.field, self.dim, ops))

    def __repr__(self):
        kinds = "+".join(op.name for op in self.ops)
        return f"Algebra(dim={self.dim}, ops={kinds}, field={self.field!r})"


@dataclass
class IdentityReport:
    """Outcome of an exhaustive identity check.

    ``witness`` is the first failing basis tuple in lexicographic order and
    ``defect`` the corresponding nonzero element; ``failed_part`` names the
    sub-identity that failed for composite tags such as ``lie``/``poisson``.
    """

    identity: str
    holds: bool
    failed_part: Optional[str] = None
    witness: Optional[tuple] = None
    defect: Optional[list] = None

    def to_json_dict(self, field: Field) -> dict:
        data = {"identity": self.identity, "holds": self.holds}
        if not self.holds:
            data["failed_part"] = self.failed_part
            data["witness"] = list(self.witness)
            data["defect"] = [field.to_str(c) for c in self.defect]
        return data


def json_int(x, what: str) -> int:
    """``x`` itself if it is a JSON integer (not a bool, float or string)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise InputError(f"{what} must be a JSON integer, got {x!r}")


def _check_jordan(A):
    """Jordan law (xy)(xx) = x(y(xx)) as a formal identity.

    The law is cubic in x, so basis substitution alone is not exhaustive;
    instead every multihomogeneous component must vanish.  The component of
    x = e_p e_q e_r against y = e_m is the sum over ordered triples (i,j,k)
    running through the permutations of the multiset {p,q,r}.  This is
    characteristic-independent.
    """
    f, n = A.field, A.dim
    for m in range(n):
        em = A.unit(m)
        for mult in combinations_with_replacement(range(n), 3):
            total = A.zero_vec()
            for (i, j, k) in set(permutations(mult)):
                sq = A.mul_basis(0, j, k)
                lhs = A.multiply(0, A.mul_basis(0, i, m), sq)
                rhs = A.multiply(0, A.unit(i), A.multiply(0, em, sq))
                total = linalg.vec_add(f, total, linalg.vec_sub(f, lhs, rhs))
            if not linalg.vec_is_zero(f, total):
                return IdentityReport(
                    "jordan", False, failed_part="jordan", witness=(m, *mult), defect=total
                )
    return IdentityReport("jordan", True)


# the parts of each identity tag, in checking order: (failed_part, law)
_IDENTITIES = {
    "associative": (("associative", laws.ASSOCIATIVITY),),
    "commutative": (("commutative", laws.COMMUTATIVITY),),
    "anticommutative": (("anticommutative", laws.ANTICOMMUTATIVITY),),
    "leibniz_right": (("leibniz_right", laws.RIGHT_LEIBNIZ),),
    "jacobi": (("jacobi", laws.JACOBI),),
    "lie": (("anticommutative", laws.ANTICOMMUTATIVITY), ("jacobi", laws.JACOBI)),
    "poisson": (
        ("associative", laws.ASSOCIATIVITY),
        ("anticommutative", laws.ANTICOMMUTATIVITY),
        ("jacobi", laws.JACOBI),
        ("poisson_compat", laws.POISSON_COMPAT),
    ),
    # commutativity first, then the cubic law itself (_check_jordan)
    "jordan": (("commutative", laws.COMMUTATIVITY),),
}

IDENTITY_TAGS = tuple(_IDENTITIES)


def check_identity(A: Algebra, tag: str) -> IdentityReport:
    """Exhaustively test a named identity of ``A``.

    ``associative``/``commutative``/``jordan`` test operation 0, the bracket
    identities test operation 1 when present (operation 0 otherwise), and
    ``poisson`` requires both operations: associativity of the product, Lie
    axioms for the bracket and the compatibility law between them.
    """
    if tag not in _IDENTITIES:
        raise InputError(f"unknown identity tag {tag!r}")
    if tag == "poisson" and A.num_ops != 2:
        raise OpArityMismatch("the poisson tag needs a product and a bracket")
    parts = _IDENTITIES[tag]
    fails = laws.failures(A, [law for _, law in parts])
    for part, law in parts:
        hit = next(fails(law), None)
        if hit is not None:
            return IdentityReport(tag, False, part, *hit)
    return _check_jordan(A) if tag == "jordan" else IdentityReport(tag, True)


def leibniz_kernel(A: Algebra):
    """Canonical basis of span{[x, x] : x in A}.

    Polarizing [x, x] over a basis gives the generators [e_i, e_i] and
    [e_i, e_j] + [e_j, e_i]; their span equals the span of all squares.
    """
    f, n, br = A.field, A.dim, A.bracket_op
    gens = [A.mul_basis(br, i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            gens.append(linalg.vec_add(f, A.mul_basis(br, i, j), A.mul_basis(br, j, i)))
    basis, _ = linalg.span_basis(f, gens, n)
    return basis


@dataclass
class Centers:
    zl: list
    zr: list
    z: list
    zl_is_subalgebra: bool


def _annihilating_rows(A: Algebra, op: int):
    """The equations of {x : x.A = 0} and of {x : A.x = 0} in x, one row per
    (j, m): the coordinate m of e_a . e_j, resp. e_j . e_a, over a."""
    f, n = A.field, A.dim
    left = [[f.zero] * n for _ in range(n * n)]
    right = [[f.zero] * n for _ in range(n * n)]
    for (i, j), group in A.ops[op].groups.items():
        for m, c in group.items():
            left[j * n + m][i] = right[i * n + m][j] = c
    return left, right


def centers(A: Algebra) -> Centers:
    """Left center {x : [x, A] = 0}, right center {x : [A, x] = 0}, and
    their intersection, each as a canonical nullspace basis.

    The left center can fail to be a subalgebra, so closure under the
    bracket is reported as a flag rather than assumed.
    """
    f, n, br = A.field, A.dim, A.bracket_op
    left_rows, right_rows = _annihilating_rows(A, br)
    zl, zl_piv = linalg.nullspace_basis(f, left_rows, n)
    zr, _ = linalg.nullspace_basis(f, right_rows, n)
    z, _ = linalg.nullspace_basis(f, left_rows + right_rows, n)
    closed = all(
        linalg.in_span(f, zl, zl_piv, A.multiply(br, u, v)) for u in zl for v in zl
    )
    return Centers(zl=zl, zr=zr, z=z, zl_is_subalgebra=closed)


def annihilator(A: Algebra):
    """Canonical basis of {x : x.y = y.x = 0 for all y} for the product."""
    left, right = _annihilating_rows(A, 0)
    basis, _ = linalg.nullspace_basis(A.field, left + right, A.dim)
    return basis


def product_subspace(A: Algebra, op_index: int):
    """Canonical basis of span{e_i . e_j}; full dimension means A.A = A."""
    A._check_op(op_index)
    gens = [A.mul_basis(op_index, i, j) for i in range(A.dim) for j in range(A.dim)]
    basis, _ = linalg.span_basis(A.field, gens, A.dim)
    return basis


def is_homomorphism(fmat, A: Algebra, B: Algebra) -> IdentityReport:
    """Whether the matrix f (dim B x dim A) satisfies f(x .op y) = f(x) .op f(y)
    for every operation, checked on all basis pairs of A."""
    if A.field != B.field:
        raise FieldMismatch("source and target live over different fields")
    if A.num_ops != B.num_ops:
        raise OpArityMismatch("source and target have different operation counts")
    if len(fmat) != B.dim or (fmat and len(fmat[0]) != A.dim):
        raise DimensionMismatch(
            f"matrix must be {B.dim}x{A.dim}, got {len(fmat)}x{len(fmat[0]) if fmat else 0}"
        )
    f = A.field
    cols = [linalg.mat_col(fmat, j) for j in range(A.dim)]
    for op in range(A.num_ops):
        for i in range(A.dim):
            for j in range(A.dim):
                lhs = linalg.mat_vec(f, fmat, A.mul_basis(op, i, j))
                rhs = B.multiply(op, cols[i], cols[j])
                d = linalg.vec_sub(f, lhs, rhs)
                if not linalg.vec_is_zero(f, d):
                    return IdentityReport(
                        "homomorphism", False, failed_part=f"op{op}", witness=(op, i, j), defect=d
                    )
    return IdentityReport("homomorphism", True)
