"""Operator spaces cut out by linear identities, with their induced operations.

Each space is the exact nullspace of a homogeneous linear system over the
unknown entries of a tuple of n x n matrices.  The defining laws are the
templates of :mod:`algact.laws`; each kind lists which of them its
components satisfy:

* ``derivations``        d:            d[x,y] = [dx,y] + [x,dy]
* ``antiderivations``    D:            D[x,y] = [Dx,y] - [Dy,x]
* ``biderivations``      (d,D):        both of the above and [x,dy] = [x,Dy]
* ``bimultipliers``      (f,F):        f(xy) = f(x)y,  F(xy) = xF(y),
                                       xf(y) = F(x)y
* ``multipliers``        f:            f(xy) = f(x)y   (commutative base)
* ``usga-poisson``       (f,F,d):      (f,F) bimultiplier, d a derivation of
                                       both operations, coupled by
                                       f[x,y] = [fx,y] - d(y)x and
                                       F[x,y] = [Fx,y] - x d(y)
* ``usga-cpoisson``      (f,d):        f a multiplier, d a derivation of both
                                       operations, f[x,y] = [fx,y] - d(y)x

One record per kind (``_KINDS``) holds the components, the check on the base
algebra, the laws, the induced operations and the inner tuples, all as data.
An induced operation is written as one string per component of the product
of tuples t and u, each term a signed composite of two components by name, a
primed name standing for the component of u: the bimultiplier product
(f,F)(f',F') = (ff', F'F) is ``"ff', F'F"``.  A law is a
signed tree of :mod:`algact.laws`, read two ways.  Its linear reading
(:func:`algact.laws.law_rows`) gives the rows over the unknown matrix
entries, which :func:`space_of_kind` hands as dense rows to
:func:`algact.linalg.nullspace_basis`.  Its evaluation on sparse vectors is
the self-check (:func:`defining_defects`), run once on the whole computed
basis without the rows.  Every law is bilinear in the two algebra
arguments, so imposing it on all basis pairs is equivalent to imposing it
everywhere; the self-check evaluates only the pairs where some term of
some basis tuple can be nonzero.  Each law holds one operator per term, so
it is linear in the tuple, and it is evaluated once for the whole basis
(:func:`algact.laws.failures`): each operator entry is one int whose
w-bit slot t holds tuple t's entry, w read off the law as a bound on
every slot of its defect, and a defect is split into its balanced slots,
each reduced mod p, only where it is nonzero.  The first failing tuple,
then its first law, then its first pair is reported.

The computed basis is canonical (reduced row echelon over the flattened
matrix tuple); :func:`space_of_kind` unflattens it once into matrix tuples,
and the space keeps one sparse copy, each component as ``{row: {col: c}}``.
The induced operations are stored once, as the space's ``algebra``: a
structure-constant :class:`~algact.algebra.Algebra` in that basis.  Closure
and the defining identities are re-verified on the computed basis during
construction, on the one integer kernel of :mod:`algact.laws`: the
self-check through one :func:`algact.laws.failures` per space, and the
products with Python's ``+ - *`` on the sparse basis tuples, residues over
GF(p) and over Q each cleared of denominators once (times lambda_t), so a
coordinate is reduced mod p or divided back only where it is reported.
The kind's rules compose the sparse tuples only at the basis pairs where a
column of some term's left factor is a row of its right one (the other
products are zero); each product hands
:meth:`~algact.algebra.Algebra.from_products` only its nonzero coordinates,
and :meth:`OperatorSpace.tuple_from_coords` sums only nonzero entries.
Since b_i[p_j] = delta_ij at the pivot columns p_j, the coordinates of a
product v are its entries v[p_j], and v - sum_i v[p_i] b_i vanishes at
every pivot column by construction.  Membership is therefore checked at
the non-pivot columns only, against each basis vector's nonzero entries
there (its tail), mod p over GF(p), and over Q for an integer product as
L v - sum_i v[p_i] (L b_i) with the tails times one common L; this is the
one membership test of a space, used by :meth:`OperatorSpace.coords` and
:meth:`OperatorSpace.matrix_of` as well, and the shape check of
:meth:`OperatorSpace.coords` covers both.

A map from an algebra into a space is given by one operator tuple per basis
element of its source, and every such map is made the same way:
:meth:`OperatorSpace.matrix_of` puts the tuples into the space's coordinates
(column p for tuple p, refusing a tuple of the wrong shape or outside the
span), and :meth:`OperatorSpace.morphism` checks that the matrix is a
homomorphism into the induced algebra and returns an :class:`ActorMorphism`
(space, source, matrix, homomorphism report).  The record is the whole map:
the base algebra and the kind are read off its space, never passed again.
The inner map of the base (:func:`inner_embedding`), the morphism of an
action into its weak actor and the morphisms of the fact suite are all built
this way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional

from . import laws, linalg
from .algebra import Algebra, IdentityReport, check_identity, is_homomorphism
from .errors import (
    ClosureError,
    InputError,
    NotAssociative,
    NotCommutative,
    NotCommutativePoisson,
    NotPoisson,
    OpArityMismatch,
    ShapeMismatch,
    TupleNotInSpace,
)
from .fields import Field
from .laws import BRACKET, PRODUCT

__all__ = [
    "OperatorSpace",
    "ActorMorphism",
    "derivations",
    "anti_derivations",
    "biderivations",
    "bimultipliers",
    "multipliers",
    "poisson_usga",
    "comm_poisson_usga",
    "space_of_kind",
    "SPACE_KINDS",
    "inner_embedding",
    "check_bim_commutation",
    "CommutationReport",
]


# -- operator space ----------------------------------------------------------


@dataclass
class OperatorSpace:
    """Canonical basis of operator tuples plus the induced algebra.

    ``basis[t]`` is a tuple of matrices on the base algebra, with pivot
    column ``pivots[t]``; ``algebra`` is the space with its induced
    operations as an :class:`Algebra` on this basis, or None for a kind
    without induced operations.
    """

    base: Algebra
    kind: str
    components: tuple
    basis: list
    pivots: list
    algebra: Optional[Algebra] = None

    def __post_init__(self):
        n = self.base.dim
        self._pivot_index = {p: t for t, p in enumerate(self.pivots)}
        # the basis once more, sparse, and each vector's entries off the pivots
        self._sparse_basis = [tuple(linalg.mat_sparse(M) for M in tup) for tup in self.basis]
        self._tails = [
            {
                col: x
                for b, M in enumerate(tup)
                for r, row in M.items()
                for c, x in row.items()
                if (col := (b * n + r) * n + c) not in self._pivot_index
            }
            for tup in self._sparse_basis
        ]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def field(self) -> Field:
        return self.base.field

    def coords(self, tup):
        """Coordinates of an operator tuple in the basis; None if outside.
        Raises ShapeMismatch unless the tuple holds one n x n matrix per
        component."""
        n = self.base.dim
        linalg.check_shape(tup, len(self.components), n, n, error=ShapeMismatch, what="operator tuple")
        coords = self._sparse_coords([linalg.mat_sparse(M) for M in tup])
        return None if coords is None else [coords.get(t, self.field.zero) for t in range(self.dim)]

    def _sparse_coords(self, tup, tails=None):
        """The nonzero coordinates {t: c} of a tuple of sparse matrices,
        whose entries over GF(p) may be unreduced ints: its entries at the
        pivots that are nonzero in the field, or None unless v - sum_t c_t b_t
        vanishes off them.  Over Q, ``tails`` = (L, the tails times L as
        ints) tests an integer tuple v as L v - sum_t c_t (L b_t)."""
        p, n, index = self.field.char, self.base.dim, self._pivot_index
        L, tails = tails or (1, self._tails)
        coords, residue = {}, {}
        for b, M in enumerate(tup):
            for r, row in M.items():
                for c, x in row.items():
                    col = (b * n + r) * n + c
                    if col not in index:
                        residue[col] = x
                    else:
                        coords[index[col]] = x
        if L != 1:
            residue = {col: L * x for col, x in residue.items()}
        coords = linalg.reduced(coords, p)
        for t, a in coords.items():
            for col, y in tails[t].items():
                residue[col] = residue.get(col, 0) - a * y
        return None if linalg.reduced(residue, p) else coords

    def matrix_of(self, tuples) -> list:
        """The matrix whose column p holds the coordinates of ``tuples[p]``."""
        cols = []
        for p, tup in enumerate(tuples):
            coords = self.coords(tup)
            if coords is None:
                raise TupleNotInSpace(f"operator tuple {p} escapes the {self.kind} space")
            cols.append(coords)
        return linalg.mat_from_cols(cols, self.dim)

    def morphism(self, source: Algebra, matrix) -> ActorMorphism:
        """The linear map from ``source`` into the space with coordinate
        matrix ``matrix``, with its homomorphism property checked against
        the induced operations."""
        linalg.check_shape(matrix, self.dim, source.dim, error=ShapeMismatch, what="morphism matrix")
        hom = is_homomorphism(matrix, source, self.as_algebra())
        return ActorMorphism(self, source, matrix, hom)

    def tuple_from_coords(self, coords) -> tuple:
        """The operator tuple sum_t coords[t] basis[t], as dense matrices."""
        f, n = self.field, self.base.dim
        out = tuple([[f.zero] * n for _ in range(n)] for _ in self.components)
        for c, tup in zip(coords, self._sparse_basis):
            if not c:  # scalars are canonical
                continue
            for M, S in zip(out, tup):
                for r, row in S.items():
                    for col, x in row.items():
                        M[r][col] += c * x
        return tuple([linalg.canonical(f, row) for row in M] for M in out)

    def as_algebra(self) -> Algebra:
        """The space as a structure-constant algebra in its own basis."""
        if self.algebra is None:
            raise OpArityMismatch(
                f"the {self.kind} space carries no internal bilinear operation"
            )
        return self.algebra

    def to_json_dict(self) -> dict:
        f = self.field
        data = {
            "kind": self.kind,
            "components": list(self.components),
            "base": self.base.to_json_dict(),
            "dim": self.dim,
            "basis": [
                [[[f.to_str(x) for x in row] for row in comp] for comp in tup]
                for tup in self.basis
            ],
        }
        if self.algebra is not None:
            data["ops"] = self.algebra.to_json_dict()["ops"]
        return data


@dataclass
class ActorMorphism:
    """A linear map from ``source`` into an operator space and its
    homomorphism check."""

    space: OperatorSpace
    source: Algebra
    matrix: list  # space.dim x source.dim
    hom: IdentityReport

    @property
    def is_homomorphism(self) -> bool:
        return self.hom.holds


# -- space kinds ---------------------------------------------------------------


def _require_associative(A: Algebra):
    rep = check_identity(A, "associative")
    if not rep.holds:
        raise NotAssociative(f"base product is not associative: witness {rep.witness}")


def _require_commutative(A: Algebra):
    _require_associative(A)
    if not check_identity(A, "commutative").holds:
        raise NotCommutative("multipliers need a commutative base product")


def _require_poisson(A: Algebra):
    if A.num_ops != 2:
        raise OpArityMismatch("a Poisson algebra carries two operations")
    rep = check_identity(A, "poisson")
    if not rep.holds:
        raise NotPoisson(f"base fails {rep.failed_part} at {rep.witness}")


def _require_cpoisson(A: Algebra):
    if A.num_ops != 2:
        raise OpArityMismatch("a Poisson algebra carries two operations")
    if not check_identity(A, "poisson").holds or not check_identity(A, "commutative").holds:
        raise NotCommutativePoisson("base must be a commutative Poisson algebra")


def _compose(pair, terms) -> dict:
    """One component of an induced product: the sum of s A B over the parsed
    terms (s, A, B) of :class:`_Kind`, each factor a (side, slot) of the
    pair (t, u) of tuples of sparse integer matrices; the result is
    unreduced and may hold entries that are zero in the field."""
    out = {}
    for s, (ls, lb), (rs, rb) in terms:
        B = pair[rs][rb]
        for i, arow in pair[ls][lb].items():
            orow = out.setdefault(i, {})
            for k, a in arow.items():
                a = a if s > 0 else -a
                for j, b in B.get(k, {}).items():
                    orow[j] = orow[j] + a * b if j in orow else a * b
    return out


def _pairs(sparse, terms) -> list:
    """The basis pairs (a, b), in increasing order, where some term s A B of
    the parsed rule ``terms`` can be nonzero, a column of A being a row of
    B; each term composes a component of t with one of u."""
    keys = [[(M.keys(), set().union(*M.values())) for M in tup] for tup in sparse]  # rows, cols
    out = set()
    for _, (side, lb), (_, rb) in (term for part in terms for term in part):
        t, u, by = (lb, rb, {}) if side == 0 else (rb, lb, {})
        for b, ks in enumerate(keys):  # u's rows if t is the left factor, else its columns
            for k in ks[u][side]:
                by.setdefault(k, []).append(b)
        out.update((a, b) for a, ks in enumerate(keys) for k in ks[t][1 - side] for b in by.get(k, ()))
    return sorted(out)


# one term of a rule: an optional sign and two component names, each primed for u
_TERM = r"\s*([+-]?)\s*(\w)('?)(\w)('?)\s*"


@dataclass(frozen=True)
class _Kind:
    """An operator space kind.

    ``laws`` lists (label, law) in the order of the rows and of the
    self-check.  ``ops`` lists (name, rule) for the induced operations, in
    the notation of the module docstring, and ``terms`` holds each rule
    parsed once: per component, the terms (sign, (side, slot), (side, slot)),
    side 0 for t and 1 for u, each term composing a component of t with one
    of u as a bilinear operation does.  ``inner`` gives the tuple of the basis
    element e_a, one (sign, side, op) per component: the sign times the
    left ("L") or right ("R") multiplication by e_a under ``PRODUCT`` or
    ``BRACKET``.
    """

    components: tuple
    laws: tuple
    ops: tuple = ()
    precondition: Callable = lambda A: None
    inner: tuple = ()

    def __post_init__(self):
        slot = {name: b for b, name in enumerate(self.components)}
        object.__setattr__(self, "terms", tuple(
            tuple(tuple((-1 if sign == "-" else 1, (len(p), slot[a]), (len(q), slot[b]))
                        for sign, a, p, b, q in re.findall(_TERM, part))
                  for part in rule.split(","))
            for _, rule in self.ops))


_BIMULTIPLIER_LAWS = (
    ("left", laws.left_multiplier("f")),
    ("right", laws.right_multiplier("F")),
    ("mixed", laws.mixed("f", "F")),
)

_KINDS = {
    "derivations": _Kind(
        ("d",),
        (("derivation", laws.derivation("d", BRACKET)),),
        ops=(("bracket", "dd' - d'd"),),
    ),
    "antiderivations": _Kind(
        ("D",),
        (("antiderivation", laws.antiderivation("D", BRACKET)),),
    ),
    "biderivations": _Kind(
        ("d", "D"),
        (
            ("derivation", laws.derivation("d", BRACKET)),
            ("antiderivation", laws.antiderivation("D", BRACKET)),
            ("compatibility", laws.compatibility("d", "D")),
        ),
        ops=(("bracket", "dd' - d'd, Dd' - d'D"),),
        inner=((-1, "R", BRACKET), (1, "L", BRACKET)),
    ),
    "bimultipliers": _Kind(
        ("f", "F"),
        _BIMULTIPLIER_LAWS,
        ops=(("mul", "ff', F'F"),),
        precondition=_require_associative,
        inner=((1, "L", PRODUCT), (1, "R", PRODUCT)),
    ),
    "multipliers": _Kind(
        ("f",),
        (("multiplier", laws.left_multiplier("f")),),
        ops=(("mul", "ff'"),),
        precondition=_require_commutative,
        inner=((1, "L", PRODUCT),),
    ),
    "usga-poisson": _Kind(
        ("f", "F", "d"),
        tuple(("bim." + label, law) for label, law in _BIMULTIPLIER_LAWS)
        + (
            ("lie_derivation", laws.derivation("d", BRACKET)),
            ("V3", laws.derivation("d", PRODUCT)),
            ("V1", laws.v1("f", "d")),
            ("V2", laws.v2("F", "d")),
        ),
        ops=(("mul", "ff', F'F, fd' + F'd"), ("bracket", "fd' - d'f, Fd' - d'F, dd' - d'd")),
        precondition=_require_poisson,
        inner=((1, "L", PRODUCT), (1, "R", PRODUCT), (1, "L", BRACKET)),
    ),
    "usga-cpoisson": _Kind(
        ("f", "d"),
        (
            ("multiplier", laws.left_multiplier("f")),
            ("lie_derivation", laws.derivation("d", BRACKET)),
            ("V2", laws.derivation("d", PRODUCT)),
            ("V1", laws.v1("f", "d")),
        ),
        ops=(("mul", "ff', fd' + f'd"), ("bracket", "fd' - d'f, dd' - d'd")),
        precondition=_require_cpoisson,
        inner=((1, "L", PRODUCT), (1, "L", BRACKET)),
    ),
}

SPACE_KINDS = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    try:
        return _KINDS[kind]
    except KeyError:
        raise InputError(f"unknown operator space kind {kind!r}") from None


def defining_defects(kind: str, A: Algebra, tuples):
    """Direct evaluation of the defining laws of ``kind`` on a list of raw
    matrix tuples, independent of the assembled linear system.

    Yields (t, label, (i, j), defect vector) for every violated instance of
    ``tuples[t]``, by tuple, then in the order of the laws, then of (i, j);
    used as the post-construction self-check and by membership diagnostics.
    Every law is evaluated once for all the tuples (:func:`algact.laws.failures`).
    """
    spec = _kind(kind)
    family = [dict(zip(spec.components, tup)) for tup in tuples]
    fails = laws.failures(A, [law for _, law in spec.laws], family)
    hits = [(t, label, args, defect) for label, law in spec.laws for t, args, defect in fails(law)]
    yield from sorted(hits, key=itemgetter(0))


def space_of_kind(A: Algebra, kind: str) -> OperatorSpace:
    """The operator space of ``kind`` on ``A``, built from its laws."""
    spec = _kind(kind)
    spec.precondition(A)
    f, n = A.field, A.dim
    unknowns = len(spec.components) * n * n
    blocks = {name: b for b, name in enumerate(spec.components)}
    rows = []
    for _, law in spec.laws:
        for form in laws.law_rows(A, law, blocks):
            row = [f.zero] * unknowns
            for idx, c in form.items():
                row[idx] = c
            rows.append(row)
    vectors, pivots = linalg.nullspace_basis(f, rows, unknowns)
    basis = [
        tuple(linalg.mat_unflatten(v[b * n * n : (b + 1) * n * n], n, n)
              for b in range(len(spec.components)))
        for v in vectors
    ]
    space = OperatorSpace(A, kind, spec.components, basis, pivots)
    bad = next(defining_defects(kind, A, basis), None)
    if bad is not None:
        raise ClosureError(f"computed {kind} basis tuple violates {bad[1]} at {bad[2]}")
    if spec.ops:
        sparse, tails = space._sparse_basis, None
        if f.char == 0:  # on integers: tuple t times lam[t], the tails times one L
            lam, sparse = zip(*map(linalg.cleared_maps, sparse)) if sparse else ((), ())
            tails = linalg.cleared(space._tails)

        def product(op, a, b):
            pair = (sparse[a], sparse[b])
            coords = space._sparse_coords([_compose(pair, terms) for terms in spec.terms[op]],
                                          tails)
            if coords is None:
                raise ClosureError(f"induced operation escaped the span at basis pair ({a}, {b})")
            if tails:  # the product of the integer tuples is lam[a] lam[b] times the true one
                coords = {t: Fraction(c, lam[a] * lam[b]) for t, c in coords.items()}
            return coords

        space.algebra = Algebra.from_products(f, space.dim, [name for name, _ in spec.ops], product,
                                              pairs=[_pairs(sparse, terms) for terms in spec.terms])
    return space


def derivations(A: Algebra) -> OperatorSpace:
    """Derivation space with the commutator bracket (a Lie algebra)."""
    return space_of_kind(A, "derivations")


def anti_derivations(A: Algebra) -> OperatorSpace:
    """Antiderivation space; it carries no internal bilinear operation."""
    return space_of_kind(A, "antiderivations")


def biderivations(A: Algebra) -> OperatorSpace:
    """Pairs (d, D) of a derivation and an antiderivation with
    [x, d(y)] = [x, D(y)]; a Leibniz algebra under its bracket, and the weak
    actor in the Leibniz variety."""
    return space_of_kind(A, "biderivations")


def bimultipliers(A: Algebra) -> OperatorSpace:
    """Bimultiplier pairs (f, F) of an associative algebra; the weak actor
    in the associative variety."""
    return space_of_kind(A, "bimultipliers")


def multipliers(A: Algebra) -> OperatorSpace:
    """Multipliers f(xy) = f(x)y of a commutative associative algebra."""
    return space_of_kind(A, "multipliers")


def poisson_usga(V: Algebra) -> OperatorSpace:
    """The universal strict general actor of a Poisson algebra: triples
    (f, F, d) with (f, F) a bimultiplier of the product, d a derivation of
    both operations, and the two coupling identities; carries the product
    (f,F,d)(f',F',d') = (ff', F'F, fd' + F'd) and the bracket
    [(f,F,d),(f',F',d')] = (fd' - d'f, Fd' - d'F, dd' - d'd)."""
    return space_of_kind(V, "usga-poisson")


def comm_poisson_usga(V: Algebra) -> OperatorSpace:
    """Commutative-Poisson analogue: pairs (f, d) with f a multiplier, d a
    derivation of both operations, and f[x,y] = [fx,y] - d(y)x; product
    (f,d)(f',d') = (ff', fd' + f'd), bracket (fd' - d'f, dd' - d'd)."""
    return space_of_kind(V, "usga-cpoisson")


# -- inner elements ----------------------------------------------------------


def inner_tuple(A: Algebra, kind: str, a: int) -> tuple:
    """The operator tuple induced by left/right multiplication by e_a."""
    spec = _KINDS.get(kind)
    if spec is None or not spec.inner:
        raise InputError(f"no inner elements defined for kind {kind!r}")
    out = []
    for sign, side, op in spec.inner:
        by = A.left_matrix_basis if side == "L" else A.right_matrix_basis
        M = by(A.bracket_op if op == BRACKET else 0, a)
        out.append(M if sign > 0 else linalg.mat_neg(A.field, M))
    return tuple(out)


def inner_embedding(space: OperatorSpace) -> ActorMorphism:
    """The map from the base algebra A of ``space`` taking e_a to its inner
    tuple, in the coordinates of the space and checked for the homomorphism
    property.

    A tuple escaping the space would mean the system and the inner formulas
    disagree; that is surfaced as an error, never ignored.
    """
    A = space.base
    return space.morphism(A, space.matrix_of([inner_tuple(A, space.kind, a) for a in range(A.dim)]))


# -- special checks ----------------------------------------------------------


@dataclass
class CommutationReport:
    """Whether every left multiplier commutes with every right multiplier."""

    holds: bool
    witness: Optional[tuple] = None


def check_bim_commutation(V: Algebra) -> CommutationReport:
    """Test f o F' = F' o f across all pairs of bimultiplier basis tuples.

    This is the acting law ``laws.PERMUTABLE`` with l and r the f and F
    components of the basis tuples; both sides are bilinear in the pair, so
    basis pairs suffice.  When this holds, every morphism into the Poisson
    actor space arises from a split extension.  The witness is the first
    failing pair (s, t) of basis indices.
    """
    bim = bimultipliers(V)
    operators = {"l": [t[0] for t in bim.basis], "r": [t[1] for t in bim.basis]}
    law = laws.PERMUTABLE
    hit = next(laws.failures(V, [law], [operators], bim.as_algebra())(law), None)
    return CommutationReport(True) if hit is None else CommutationReport(False, hit[1][:2])
