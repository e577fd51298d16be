"""Finite-dimensional algebras given by structure constants.

An :class:`Algebra` is a vector space F^n with one or two bilinear
operations stored as sparse tensors ``c[i][j][k]``, meaning
``e_i . e_j = sum_k c[i][j][k] e_k``.  One operation covers associative,
Leibniz, Lie and Jordan algebras; two operations (product first, bracket
second) cover Poisson-type algebras.

Identity checking is exhaustive over basis tuples.  Every identity but
Jordan's is a multilinear law of :mod:`algact.laws`, evaluated there on the
basis tuples where one of its terms can be nonzero (it vanishes on the
others), so vanishing on basis tuples is equivalent to vanishing
everywhere.  The Jordan identity, cubic in one variable, is written here
and checked through all of its multihomogeneous components.  Failing checks
always return the lexicographically first witness tuple together with its
nonzero defect, so reports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations, product as iproduct
from typing import Optional

from . import laws, linalg
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    InputError,
    OpArityMismatch,
    OpIndexOutOfRange,
)
from .fields import Field, PrimeField

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
    "homomorphisms",
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
    memory grows with the nonzero constants, not with the dimension.  They
    are given as file entries [i, j, k, c], read by :func:`json_tensor`."""

    __slots__ = ("name", "groups")

    def __init__(self, field: Field, dim: int, entries, name: str = "mul"):
        self.name = name
        self.groups = {}
        for (i, j, k), c in json_tensor(field, entries, (dim, dim, dim)).items():
            if c:
                self.groups.setdefault((i, j), {})[k] = c

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
        """Build from one map {(i, j, k): c}, or list of pairs ((i, j, k), c),
        per operation."""
        if names is None:
            names = ["mul", "bracket"][: len(op_entries)]
        if len(names) != len(op_entries):
            raise OpArityMismatch("give one name per operation")
        ops = []
        for entries, name in zip(op_entries, names):
            pairs = entries.items() if isinstance(entries, dict) else entries
            ops.append(BilinearOp(field, dim, [(*ijk, c) for ijk, c in pairs], name))
        return cls(field, dim, ops, labels)

    @classmethod
    def from_products(cls, field, dim, names, product, labels=None, pairs=None):
        """The algebra whose operation ``op`` (named ``names[op]``) sends
        (e_i, e_j) to the sparse coordinate vector ``product(op, i, j)``, a
        map {k: c}; only its entries are read, and zero values are dropped.

        The rule is called for op, then (i, j), each in increasing order,
        so the first error it raises is the one at the first such triple:
        on every pair, or with ``pairs`` only on the pairs ``pairs[op]``
        outside which the product is known to vanish.
        """
        ops = [
            BilinearOp(field, dim, [
                (i, j, k, c)
                for i, j in (iproduct(range(dim), repeat=2) if pairs is None else pairs[op])
                for k, c in product(op, i, j).items()
            ], name)
            for op, name in enumerate(names)
        ]
        return cls(field, dim, ops, labels)

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
                    c = xi * yj
                    for k, ck in group.items():
                        out[k] += c * ck
        return linalg.canonical(f, out)

    def left_matrix_basis(self, op_index: int, a: int):
        """Matrix of x -> e_a . x."""
        cols = [self.mul_basis(op_index, a, j) for j in range(self.dim)]
        return linalg.mat_from_cols(cols, self.dim)

    def right_matrix_basis(self, op_index: int, a: int):
        """Matrix of x -> x . e_a."""
        cols = [self.mul_basis(op_index, i, a) for i in range(self.dim)]
        return linalg.mat_from_cols(cols, self.dim)

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
                name = op.get("name")
                if name is not None and not isinstance(name, str):
                    raise InputError(f"operation name must be a string, got {name!r}")
                name = name or ("bracket" if pos == 1 else "mul")
                ops.append(BilinearOp(field, dim, op.get("entries", []), name))
        except (AttributeError, TypeError) as exc:
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


def json_list(x, what: str) -> list:
    """``x`` itself if it is a JSON list (a string is not read as one)."""
    if isinstance(x, list):
        return x
    raise InputError(f"{what} must be a JSON list, got {x!r}")


def json_matrix(field, x, what: str) -> list:
    """The matrix of ``field`` scalars held as a JSON list of row lists."""
    return [[field.of(c) for c in json_list(row, f"a row of {what}")] for row in json_list(x, what)]


def json_tensor(field, entries, shape) -> dict:
    """{(i, j, k): c} of the sparse tensor of ``shape`` held as entries
    [i, j, k, c], as in algebra and action files: each index a JSON integer
    inside the shape, each (i, j, k) given once.  A malformed entry raises
    InputError; a c that is no scalar, what ``field.of`` raises."""
    ni, nj, nk = shape
    tensor = {}
    try:
        for i, j, k, c in entries:
            if not (type(i) is type(j) is type(k) is int
                    and 0 <= i < ni and 0 <= j < nj and 0 <= k < nk):
                raise InputError(f"tensor entry ({i}, {j}, {k}) is not an integer index into {shape}")
            if (i, j, k) in tensor:
                raise InputError(f"duplicate tensor entry at ({i}, {j}, {k})")
            tensor[i, j, k] = field.of(c)
    except (TypeError, ValueError) as exc:  # not a list of 4-entry lists
        raise InputError(f"malformed tensor entry: {exc}") from exc
    return tensor


def json_pair(data, what: str) -> tuple:
    """(variety, acting, kernel) of a file that pairs two algebras, as action,
    morphism and pair files do; the variety is returned as given."""
    try:
        variety, acting, kernel = data["variety"], data["acting"], data["kernel"]
        return variety, Algebra.from_json_dict(acting), Algebra.from_json_dict(kernel)
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc


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
            if any(total):
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
            return IdentityReport(tag, False, part, *hit[1:])
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
    """The left center, right center and center of a bracket (:func:`centers`)."""

    zl: list
    zr: list
    z: list


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
    their intersection, each as a canonical nullspace basis.  The bracket
    of two elements of either center is zero, so each is a subalgebra and
    needs no closure check."""
    f, n = A.field, A.dim
    left_rows, right_rows = _annihilating_rows(A, A.bracket_op)
    zl, _ = linalg.nullspace_basis(f, left_rows, n)
    zr, _ = linalg.nullspace_basis(f, right_rows, n)
    z, _ = linalg.nullspace_basis(f, left_rows + right_rows, n)
    return Centers(zl=zl, zr=zr, z=z)


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


def _comparable(A: Algebra, B: Algebra):
    if A.field != B.field:
        raise FieldMismatch("source and target live over different fields")
    if A.num_ops != B.num_ops:
        raise OpArityMismatch("source and target have different operation counts")


def _image_defect(A: Algebra, B: Algebra, op: int, i: int, j: int, cols):
    """f(e_i .op e_j) - f(e_i) .op f(e_j) for the map f with columns
    ``cols[k]`` = f(e_k), over the columns that are known (not None), and
    the structure constants {k: c} of e_i .op e_j at the unknown ones."""
    acc = [-x for x in B.multiply(op, cols[i], cols[j])]
    unknown = {}
    for k, c in A.ops[op].groups.get((i, j), {}).items():
        if cols[k] is None:
            unknown[k] = c
        else:
            acc = [a + c * y for a, y in zip(acc, cols[k])]
    return linalg.canonical(A.field, acc), unknown


def is_homomorphism(fmat, A: Algebra, B: Algebra) -> IdentityReport:
    """Whether the matrix f (dim B x dim A) satisfies f(x .op y) = f(x) .op f(y)
    for every operation, checked on all basis pairs of A."""
    _comparable(A, B)
    linalg.check_shape(fmat, B.dim, A.dim)
    cols = [linalg.mat_col(fmat, j) for j in range(A.dim)]
    for op in range(A.num_ops):
        for i in range(A.dim):
            for j in range(A.dim):
                d = _image_defect(A, B, op, i, j, cols)[0]
                if any(d):
                    return IdentityReport(
                        "homomorphism", False, failed_part=f"op{op}", witness=(op, i, j), defect=d
                    )
    return IdentityReport("homomorphism", True)


def prime_field(field: Field) -> PrimeField:
    """``field`` itself if it is a prime field, over which maps can be enumerated."""
    if not isinstance(field, PrimeField):
        raise InputError(f"the search runs over a prime field, not {field!r}")
    return field


def homomorphisms(A: Algebra, B: Algebra):
    """Every homomorphism f from A into B over a prime field, as its list of
    columns f(e_0), f(e_1), ..., in no set order, by depth-first search.

    Columns that no product of A has in its support are fixed first, then
    the rest, each in index order.  Once f(e_i) and f(e_j) are fixed,
    f(e_i e_j) = f(e_i) f(e_j) is linear in the free columns, with scalar
    constants the same in every coordinate of B: with none free it is a
    check that prunes the branch when it fails, otherwise an equation.  One
    RREF of the equations, the next column ordered last, finds them
    inconsistent (pruned), forces that column or leaves it all of B.
    """
    f, n, m = prime_field(A.field), A.dim, B.dim
    _comparable(A, B)
    outputs = {k for op in A.ops for group in op.groups.values() for k in group}
    order = sorted(range(n), key=lambda j: (j in outputs, j))
    cols = [None] * n

    def search(d, pending):
        # pending: (pair, defect, unknown constants) of each pair (op, i, j)
        # whose columns are fixed and whose product has a free column
        if d == n:
            yield list(cols)
            return
        j, free = order[d], order[d + 1:] + order[d:d + 1]
        values = iproduct(range(f.p), repeat=m)
        if pending:
            rows = [[eq.get(k, f.zero) for k in free] + linalg.vec_neg(f, defect)
                    for _, defect, eq in pending]
            R, pivots = linalg.rref(f, rows)
            if pivots[-1] >= len(free):
                return  # inconsistent
            if pivots[-1] == len(free) - 1:
                values = [R[-1][len(free):]]  # forced
        fixed = order[:d + 1]
        new = [(op, a, b) for op in range(A.num_ops) for a in fixed for b in fixed if j in (a, b)]
        for v in values:
            cols[j] = list(v)
            nxt = []
            for pair in [old for old, _, _ in pending] + new:
                defect, eq = _image_defect(A, B, *pair, cols)
                if eq:
                    nxt.append((pair, defect, eq))
                elif any(defect):
                    break
            else:
                yield from search(d + 1, nxt)
        cols[j] = None

    return search(0, [])
