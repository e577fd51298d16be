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
entries, sparse forms, which :func:`space_of_kind` hands to
:func:`algact.linalg.nullspace_basis` lazily and args-major: at each basis
pair (e_i, e_j) in lexicographic order, the forms of every law there.
The args row of e_i is every pair with e_i first.  The elimination stops
at the end of the first args row that adds no pivot, and no later row is
built.  Its evaluation on sparse vectors is the self-check
(:func:`defining_defects`), run once on the whole candidate basis of that
prefix, without the rows.  The candidate contains the space, since its
rows are some of the space's rows.  A candidate that passes the self-check
lies inside the space, so the two are equal, and so are their canonical
bases.  A candidate that fails has the other rows added to the same
elimination and is checked again; a failure then is a ClosureError.  The
stop rule reads only the rank, and has no tuned constant.  Over Q the
elimination runs mod q = 2^31 - 1 (:func:`algact.linalg.lifted_nullspace`),
its rank mod q standing in the stop rule, and the candidate is the lift of
that nullspace.  A lift that passes the self-check is exact: its vectors
lie in the space, are reduced at the free columns mod q, and number
n - rank_q >= n - rank_Q >= the space's dimension, so they are its
canonical basis.  A refused prefix goes on mod q with the other rows.  An
entry with no lift, or a lift refused on all rows (the rank drops mod q),
sends the build to the exact elimination over Q, on the rows already read,
kept as read, then on the rest; only that route raises the ClosureError.
Every law is bilinear in the two algebra arguments, so imposing it on all
basis pairs is equivalent to imposing it everywhere; the self-check
evaluates each law once at every first argument e_i, its second every e_j
at once.  Each law holds one operator per term, so it is linear in the
tuple, and it is evaluated once for the whole basis
(:func:`algact.laws.failures`), each operator entry one int whose slot t
holds tuple t's entry.  The first failing tuple, then its first law, then
its first pair is reported.

The computed basis is canonical (reduced row echelon over the flattened
matrix tuple); :func:`space_of_kind` unflattens it once into matrix tuples,
and the space keeps one sparse copy, each component as ``{row: {col: c}}``.
The induced operations are stored once, as the space's ``algebra``: a
structure-constant :class:`~algact.algebra.Algebra` in that basis, each
product composed only at the basis pairs where a column of some term's
left factor is a row of its right one, on the basis tuples times L (below),
and handing :meth:`~algact.algebra.Algebra.from_products` only its nonzero
coordinates.  Since b_t[p_s] = delta_ts at the pivot columns p_s, the
coordinates of a tuple v are its entries c_t = v[p_t].  The one membership
test of a space (:meth:`OperatorSpace._sparse_coords`) checks
L v - sum_t c_t (L b_t) = 0 row by row, L the one int that clears the
basis's denominators (1 over GF(p)): a row of n entries is one int, in the
slots of :class:`algact.linalg.Slots`, with a bit mask of the columns where
it can be nonzero, and the L b_t are packed once.  A product is composed
row by row, row i of A B being sum_k A[i][k] row_k(B), and read only at the
pivot slots inside its masks.  The c_t are read raw, so a product in the
span over Z leaves each row exactly 0, and the zero test mod p runs only
on the other rows.

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
from itertools import chain, islice
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
        self._sparse_basis = [tuple(linalg.mat_sparse(M) for M in tup) for tup in self.basis]
        # the basis times the one int _scale that clears it, its largest entry
        k, (self._scale, scaled) = len(self.components), linalg.cleared_maps(
            [M for tup in self._sparse_basis for M in tup])
        self._scaled = [scaled[t * k:(t + 1) * k] for t in range(self.dim)]
        self._top = max((abs(x) for M in scaled for row in M.values() for x in row.values()),
                        default=0)
        self._row_pivots = {}  # {b n + r: [the bit mask of its pivots, {c: t}]}
        for t, p in enumerate(self.pivots):
            row = self._row_pivots.setdefault(p // n, [0, {}])
            row[0], row[1][p % n] = row[0] | 1 << p % n, t
        self._packings = {}

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
        den, tup = 1, [linalg.mat_sparse(M) for M in tup]
        if not self.field.char:
            den, tup = linalg.cleared_maps(tup)
        packing = self._slots(max((abs(x) for M in tup for row in M.values() for x in row.values()),
                                  default=0))
        coords = self._sparse_coords(_packed_rows(packing[0], tup), packing)
        if coords is None:
            return None
        if not self.field.char:
            coords = {t: Fraction(c, den) for t, c in coords.items()}
        return [coords.get(t, self.field.zero) for t in range(self.dim)]

    def _slots(self, top: int) -> tuple:
        """Slots for rows of n entries at most ``top``, whose bits bound each
        slot of :meth:`_sparse_coords`, and the rows of each L b_t packed in
        them, made once."""
        top = max(top, self.field.char - 1)  # over GF(p), one width for canonical entries too
        bits = (top * (self._scale + self.dim * self._top)).bit_length() + 1
        bits = min((b for b in self._packings if b >= bits), default=bits)  # wider ones fit too
        if bits not in self._packings:
            slots = linalg.Slots(self.base.dim, bits, self.field.char)
            self._packings[bits] = slots, [_packed_rows(slots, tup) for tup in self._scaled]
        return self._packings[bits]

    def _sparse_coords(self, rows, packing):
        """The nonzero coordinates {t: c} of a tuple given by its rows
        {b n + r: (x, mask)} in the slots of ``packing`` (:meth:`_slots`), of
        maybe unreduced ints: c_t is its entry at pivot t, mod p, or None
        unless each row of L v - sum_t c_t (L b_t) is zero in the field."""
        (slots, packed), coords, residue, L, p = packing, {}, {}, self._scale, packing[0].p
        for R, (x, m) in rows.items():
            residue[R] = residue[R] + L * x if R in residue else L * x
            if (at := self._row_pivots.get(R)) and (hits := m & at[0]):
                while hits:  # the pivot slots inside the mask, lowest first
                    c, hits = (hits & -hits).bit_length() - 1, hits & hits - 1
                    if a := slots.at(x, c):  # raw, so a row in the span over Z leaves exactly 0
                        for S, (y, _) in packed[at[1][c]].items():
                            residue[S] = residue[S] - a * y if S in residue else -a * y
                        if r := a % p if p else a:
                            coords[at[1][c]] = r
        for r in residue.values():
            if r and not slots.zero(r):
                return None
        return coords

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
        """The operator tuple sum_t coords[t] basis[t], as dense matrices.
        Raises ShapeMismatch unless there is one coordinate per basis tuple."""
        f, n = self.field, self.base.dim
        linalg.check_shape(coords, self.dim, error=ShapeMismatch, what="coordinate vector")
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


def _packed_rows(slots, tup) -> dict:
    """A tuple of sparse components {r: {c: x}} as rows {b n + r: (x packed
    in ``slots``, the bit mask of the columns c)}, n = ``slots.count``."""
    out, w, n = {}, slots.width, slots.count
    for b, M in enumerate(tup):
        for r, row in M.items():
            x = m = 0
            for c, y in row.items():
                x, m = x + (y << w * c), m | 1 << c
            out[b * n + r] = x, m
    return out


def _composed(pair, rule, scaled, packed, n) -> dict:
    """An induced product as rows {b n + i: (x, mask)}, unreduced: component
    b the sum of s A B over the terms (s, A, B) of ``rule[b]``, each factor
    a (side, slot) of the pair (t, u) of basis tuples, A read on their
    ``scaled`` components and B on their ``packed`` rows."""
    out = {}
    for b, terms in enumerate(rule):
        for s, (ls, lb), (rs, rb) in terms:
            B, off = packed[pair[rs]], rb * n
            for i, arow in scaled[pair[ls]][lb].items():
                x, m = out.get(b * n + i, (0, 0))
                for k, a in arow.items():
                    if e := B.get(off + k):
                        x, m = x + (a if s > 0 else -a) * e[0], m | e[1]
                if m:
                    out[b * n + i] = x, m
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
        _BIMULTIPLIER_LAWS + (
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


def signed_slot(slot):
    """(sign, name) of a slot name, where "-r" stands for the negated r."""
    return (-1, slot[1:]) if slot.startswith("-") else (1, slot)


def _renamed(node, names):
    """(sign, node): ``node`` renamed by ``names`` {slot: (sign, name)}, signs multiplied."""
    if isinstance(node, int):
        return 1, node
    if node[0] in (laws.ON, laws.AT):
        (sign, name), (inner, u) = names[node[1]], _renamed(node[-1], names)
        return sign * inner, (node[0], name, *node[2:-1], u)
    (su, u), (sw, w) = _renamed(node[1], names), _renamed(node[2], names)
    return su * sw, (node[0], u, w)


def conditions(kind: str, slots: tuple, sources: tuple) -> tuple:
    """(label, law) for each (label, source) of ``sources``, read off the
    record of ``kind`` with the action operators ``slots`` as its components.
    A source is a defining law's label (on a, b in X, indices 0, 1, at each
    acting element); an (operation, component) pair, the condition that the
    map into the weak actor respects that component (on x, y in B and a in X,
    indices 0, 1, 2: its value at x.y less its rule's composites at x and y);
    or a law, kept as it is.  A read law is scaled so that its first term is
    positive, which keeps its zero set."""
    spec = _kind(kind)
    names = dict(zip(spec.components, map(signed_slot, slots)))
    at = lambda b, x, u: (laws.AT, spec.components[b], x, u)

    def read(source):
        if isinstance(source, str):
            law = dict(spec.laws)[source]
        elif isinstance(source[0], str):
            op, b = [name for name, _ in spec.ops].index(source[0]), spec.components.index(source[1])
            law = ((1, at(b, (BRACKET if source[0] == "bracket" else PRODUCT, 0, 1), 2)),) + tuple(
                (-s, at(lb, ls, at(rb, rs, 2))) for s, (ls, lb), (rs, rb) in spec.terms[op][b])
        else:
            return source
        law = [(s * sign, node) for s, v in law for sign, node in [_renamed(v, names)]]
        return tuple((s * law[0][0], node) for s, node in law)

    return tuple((label, read(source)) for label, source in sources)


def defining_defects(kind: str, A: Algebra, tuples):
    """Direct evaluation of the defining laws of ``kind`` on a list of raw
    matrix tuples, independent of the assembled linear system.

    Yields (t, label, (i, j), defect vector) for every violated instance of
    ``tuples[t]``, by tuple, then in the order of the laws, then of (i, j);
    the self-check of :func:`space_of_kind` on its candidate basis.
    Every law is evaluated once for all the tuples (:func:`algact.laws.failures`).
    """
    spec = _kind(kind)
    family = [dict(zip(spec.components, tup)) for tup in tuples]
    fails = laws.failures(A, [law for _, law in spec.laws], family)
    hits = [(t, label, args, defect) for label, law in spec.laws for t, args, defect in fails(law)]
    yield from sorted(hits, key=itemgetter(0))


def _row_groups(A: Algebra, spec: _Kind):
    """The forms of the laws of ``spec`` on A, args-major and lazily: one
    iterator per basis element e_i, holding at each pair (e_i, e_j) in turn
    the forms of every law there (:func:`algact.laws.law_rows`, the laws
    being bilinear)."""
    n, blocks = A.dim, {name: b for b, name in enumerate(spec.components)}
    per_args = zip(*(laws.law_rows(A, law, blocks) for _, law in spec.laws))
    for _ in range(n):
        yield (form for at in islice(per_args, n) for forms in at for form in forms)


def _prefix(groups, echelon: dict):
    """The rows of ``groups`` up to the end of the first group that adds no
    pivot to ``echelon``, the elimination that reads them one by one."""
    for group in groups:
        rank = len(echelon)
        yield from group
        if len(echelon) == rank:
            return


def space_of_kind(A: Algebra, kind: str) -> OperatorSpace:
    """The operator space of ``kind`` on ``A``, built from its laws."""
    spec = _kind(kind)
    spec.precondition(A)
    f, n, k = A.field, A.dim, len(spec.components)
    groups, exact, modular, read = _row_groups(A, spec), {}, {}, []

    def sound(nullspace, first):
        """(basis, pivots, first defect) of the rows ``first``, then, if the
        self-check refuses that and rows are left, of those too; None once
        ``nullspace`` gives none."""
        got, rest = nullspace(first), chain.from_iterable(groups)
        while got is not None:
            basis = [tuple(linalg.mat_unflatten(v[b * n * n : (b + 1) * n * n], n, n)
                           for b in range(k)) for v in got[0]]
            bad = next(defining_defects(kind, A, basis), None)
            if bad is None or (row := next(rest, None)) is None:
                return basis, got[1], bad
            got = nullspace(chain((row,), rest))
        return None

    def eliminated(rows):
        return linalg.nullspace_basis(f, rows, k * n * n, exact)

    def lifted(rows):  # over Q, mod q, the rows kept as read for the exact route
        return linalg.lifted_nullspace(f, (read.append(row) or row for row in rows), k * n * n, modular)

    if f.char:
        found = sound(eliminated, _prefix(groups, exact))
    else:
        found = sound(lifted, _prefix(groups, modular))
        if found is None or found[2] is not None:  # no lift, or one refused on all rows
            found = sound(eliminated, read)
    basis, pivots, bad = found
    if bad is not None:
        raise ClosureError(f"computed {kind} basis tuple violates {bad[1]} at {bad[2]}")
    space = OperatorSpace(A, kind, spec.components, basis, pivots)
    if spec.ops:
        space.algebra = _induced(space, spec)
    return space


def _induced(space: OperatorSpace, spec: _Kind) -> Algebra:
    """The induced operations of ``spec`` on ``space``, a product outside
    the span a ClosureError at its basis pair, composed on the L b_t: entries
    at most T n e^2, for T terms a component and e the largest L b_t entry."""
    f, n, L = space.field, space.base.dim, space._scale
    packing = space._slots(max(map(len, chain.from_iterable(spec.terms))) * n * space._top ** 2)

    def product(op, a, b):
        rows = _composed((a, b), spec.terms[op], space._scaled, packing[1], n)
        if (coords := space._sparse_coords(rows, packing)) is None:
            raise ClosureError(f"induced operation escaped the span at basis pair ({a}, {b})")
        if f.char == 0:  # the product of the scaled tuples is L^2 times the true one
            coords = {t: Fraction(c, L * L) for t, c in coords.items()}
        return coords

    return Algebra.from_products(f, space.dim, [name for name, _ in spec.ops], product,
                                 pairs=[_pairs(space._sparse_basis, terms) for terms in spec.terms])


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
