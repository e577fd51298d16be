"""Derived actions, split extensions and the action/morphism correspondence.

An action of B on X is held as its operators, as the paper identifies it:
:class:`ActionData` stores, for each operator slot of the variety, one
n_X x n_X matrix per basis element of B.  Supported varieties and their
slots:

* ``associative``   (l, r):        a*y and x*b
* ``leibniz``       (l, r):        l_x(b) = [s(x), i(b)], r_y(a) = [i(a), s(y)]
* ``poisson``       (l, r, k):     p*y, x*q and the bracket action k_p(y)
* ``cpoisson``      (l, k):        r is the commutative mirror of l

Validation, the semidirect product, the derived action of a split extension
and both directions of the correspondence read or build these matrices
directly.  Only the action file keeps the tensor index order of
``l[p][y]``, ``r[x][q]`` and ``bracket_action[p][y]``; one helper
(``_file_layout``) maps it to the matrices, for the reader, the writer and
:meth:`ActionData.canonical_key`.  The constructor is the one place that
checks slot names, matrix shapes and that B and X carry exactly the
variety's number of operations.

Sign conventions are pinned here, once, in the ``slots`` of the variety
records (``_VARIETIES``); both directions of the action/morphism
correspondence read them:

* a morphism value on x in the Leibniz weak actor is the pair
  ``(-r_x, l_x)``, in the associative one ``(l_x, r_x)``, in the Poisson
  one ``(l_x, r_x, k_x)`` and in the commutative Poisson one ``(l_x, k_x)``;
* the bracket built from a morphism is
  ``[(x,a),(y,b)] = ([x,y], [a,b] + l_x(b) + r_y(a))``, which coincides with
  the semidirect bracket of the unpacked action;
* the Poisson semidirect operations are
  ``(p,x)(q,y) = (pq, xy + p*y + x*q)`` and
  ``{(p,x),(q,y)} = ([p,q], [x,y] + k_p(y) - k_q(x))``.

Both directions of the correspondence pass one
:class:`~algact.opspace.ActorMorphism`, made by the one map into an operator
space (:meth:`~algact.opspace.OperatorSpace.morphism`).  Its source is B,
the base of its space is X and the variety is the one whose weak actor has
the space's kind (a space that is no weak actor is refused); its
homomorphism report is read, never recomputed.

Validation labels follow the classical condition lists: L1..L6 for Leibniz,
A1..A6 for associative (the same list that reappears inside P1), and
P1.1..P1.6, P2.1, P2.2, P3..P8 for Poisson.  Each list is read off the weak
actor's record (:func:`~algact.opspace.conditions`): its defining laws on
l_x, r_x and k_x (L1-L3, A1-A3, P2.1, P6-P8), the conditions that the map
into it respects its induced operations (L4-L5, A5-A6, P2.2, P3-P5), and
the acting law, written by hand (L6, and A4 as permutability).  Every
condition is multilinear in its algebra arguments, so evaluating it on basis
tuples is exhaustive.

Enumeration over a prime field goes through the weak actor only: the
candidates are the homomorphisms from B into the weak actor of X.  The
actions are the unpacked candidates that validate; the acting morphisms are
the candidates whose operators satisfy the variety's acting law
(``laws.L6`` for Leibniz, ``laws.PERMUTABLE`` otherwise).  Validation reads
the whole condition list and the acting test only that law, so comparing
the two on the same candidates tests the paper's criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

from . import laws, linalg
from .algebra import (
    Algebra, homomorphisms, is_homomorphism, json_matrix, json_pair, json_tensor, prime_field,
)
from .errors import (
    BudgetExceeded,
    InputError,
    InvalidAction,
    KernelMismatch,
    NotAHomomorphism,
    NotSplit,
    ShapeMismatch,
)
from .fields import Field
from .opspace import ActorMorphism, OperatorSpace, conditions, signed_slot, space_of_kind

__all__ = [
    "VARIETIES",
    "ActionData",
    "SplitExtension",
    "ValidationReport",
    "validate_action",
    "semidirect",
    "semidirect_algebra",
    "extract_action",
    "weak_actor",
    "ActorMorphism",
    "action_to_morphism",
    "morphism_to_action",
    "ActingReport",
    "is_acting_morphism",
    "enumerate_actions",
    "enumerate_acting_morphisms",
    "DEFAULT_BUDGET",
    "zero_action",
]


@dataclass(frozen=True)
class _Variety:
    """A variety's weak actor and how its actions meet it.

    The morphism value of an acting element x is the tuple of the operators
    named in ``slots``, where ``"-r"`` stands for -r_x.  ``sources`` lists
    (label, source) in canonical label order, read once into ``conditions``
    (:func:`~algact.opspace.conditions`); ``acting`` is the law that picks
    the acting morphisms among the homomorphisms into the weak actor.
    """

    kind: str
    slots: tuple
    num_ops: int
    sources: tuple
    acting: tuple

    def __post_init__(self):
        object.__setattr__(self, "conditions", conditions(self.kind, self.slots, self.sources))

    @property
    def operators(self) -> tuple:
        return tuple(signed_slot(s)[1] for s in self.slots)


_ASSOCIATIVE = (("A1", "left"), ("A2", "right"), ("A3", "mixed"), ("A4", laws.MIDDLE),
                ("A5", ("mul", "f")), ("A6", ("mul", "F")))
_POISSON = tuple(("P1." + label[1:], s) for label, s in _ASSOCIATIVE) + (
    ("P2.1", "lie_derivation"), ("P2.2", ("bracket", "d")), ("P3", ("mul", "d")),
    ("P4", ("bracket", "f")), ("P5", ("bracket", "F")), ("P6", "V1"), ("P7", "V2"), ("P8", "V3"))
_VARIETIES = {
    "associative": _Variety("bimultipliers", ("l", "r"), 1, _ASSOCIATIVE, laws.PERMUTABLE),
    "leibniz": _Variety("biderivations", ("-r", "l"), 1, (
        ("L1", "derivation"), ("L2", "antiderivation"), ("L3", "compatibility"),
        ("L4", ("bracket", "d")), ("L5", ("bracket", "D")), ("L6", laws.L6)), laws.L6),
    "poisson": _Variety("usga-poisson", ("l", "r", "k"), 2, _POISSON, laws.PERMUTABLE),
}
# r mirrors l, so the Poisson conditions apply unchanged, kept as they are read
_VARIETIES["cpoisson"] = _Variety("usga-cpoisson", ("l", "k"), 2, _VARIETIES["poisson"].conditions,
                                  laws.PERMUTABLE)

VARIETIES = tuple(_VARIETIES)
_VARIETY_OF_KIND = {v.kind: name for name, v in _VARIETIES.items()}

DEFAULT_BUDGET = 3 ** 10


def _variety(variety: str) -> _Variety:
    try:
        return _VARIETIES[variety]
    except (KeyError, TypeError):
        raise InputError(f"unknown variety {variety!r}") from None


def weak_actor(X: Algebra, variety: str) -> OperatorSpace:
    return space_of_kind(X, _variety(variety).kind)


# the JSON key of each operator slot's tensor, in the order of the file
_FILE_KEYS = {"l": "l", "r": "r", "k": "bracket_action"}


def _file_layout(slot, nb, nx):
    """The shape of the file tensor of ``slot`` and the map from its index
    (i, j, k) to the entry (p, m, y) of the operator matrices it holds.

    ``l[p][y][m]`` and ``bracket_action[p][y][m]`` are entry (m, y) of the
    operator at e_p; ``r[x][q][m]`` is entry (m, x) of r at e_q.
    """
    if slot == "r":
        return (nx, nb, nx), lambda x, q, m: (q, m, x)
    return (nb, nx, nx), lambda p, y, m: (p, m, y)


class ActionData:
    """A variety-tagged action of an algebra B on an algebra X, held as its
    operators.

    ``operators[s][p]`` is the n_X x n_X matrix of operator s at the basis
    element e_p of B, for each slot s of the variety: l and r, and k (the
    bracket action) in the Poisson varieties.  A ``cpoisson`` action stores
    no r, which mirrors l.  A slot left out of ``operators`` is zero.
    Invalid actions are ordinary values: only :func:`semidirect` refuses
    them, so counterexamples can be built and inspected.
    """

    def __init__(self, variety, acting: Algebra, kernel: Algebra, operators=None):
        v = _variety(variety)
        if acting.field != kernel.field:
            raise ShapeMismatch("acting and kernel algebras live over different fields")
        if acting.num_ops != v.num_ops or kernel.num_ops != v.num_ops:
            raise ShapeMismatch("operation count of B or X does not match the variety")
        operators = operators or {}
        extra = sorted(set(operators) - set(v.operators))
        if extra:
            raise ShapeMismatch(f"{variety} actions have no operator {extra[0]}")
        f, nb, nx = acting.field, acting.dim, kernel.dim
        self.variety = variety
        self.acting = acting
        self.kernel = kernel
        self.operators = {}
        for slot in _FILE_KEYS:
            if slot not in v.operators:
                continue
            mats = operators.get(slot, [[[f.zero] * nx] * nx] * nb)
            linalg.check_shape(mats, nb, nx, nx, error=ShapeMismatch, what=f"operator {slot}")
            self.operators[slot] = tuple(tuple(tuple(f.of(x) for x in row) for row in M) for M in mats)

    @property
    def field(self) -> Field:
        return self.acting.field

    def _law_operators(self) -> dict:
        """The operators as the laws read them, r mirroring l in cpoisson."""
        return {"r": self.operators["l"], **self.operators}

    # -- serialization -------------------------------------------------------

    def _file_entries(self, slot):
        """((i, j, k), value) over the file tensor of ``slot``, in order."""
        shape, cell = _file_layout(slot, self.acting.dim, self.kernel.dim)
        mats = self.operators[slot]
        for idx in iproduct(*map(range, shape)):
            p, m, y = cell(*idx)
            yield idx, mats[p][m][y]

    def to_json_dict(self) -> dict:
        f = self.field
        data = {
            "variety": self.variety,
            "acting": self.acting.to_json_dict(),
            "kernel": self.kernel.to_json_dict(),
        }
        for slot in self.operators:
            data[_FILE_KEYS[slot]] = [
                [*idx, f.to_str(c)] for idx, c in self._file_entries(slot) if c
            ]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ActionData":
        variety, acting, kernel = json_pair(data, "action description")
        f, nb, nx = acting.field, acting.dim, kernel.dim
        operators = {}
        for slot, key in _FILE_KEYS.items():
            entries = data.get(key)
            if entries is None:
                continue
            shape, cell = _file_layout(slot, nb, nx)
            mats = [[[f.zero] * nx for _ in range(nx)] for _ in range(nb)]
            for idx, c in json_tensor(f, entries, shape).items():
                p, m, y = cell(*idx)
                mats[p][m][y] = c
            operators[slot] = mats
        return cls(variety, acting, kernel, operators)

    def canonical_key(self):
        f = self.field

        def key(slot):
            if slot not in self.operators:
                return None
            return tuple(f.to_str(c) for _, c in self._file_entries(slot))

        return (
            self.variety,
            self.acting.canonical_key(),
            self.kernel.canonical_key(),
            *map(key, _FILE_KEYS),
        )

    def _fields(self):
        # what equality compares: the algebras by value, their operation
        # names left out as in Algebra.__eq__
        return (self.variety, self.acting, self.kernel, tuple(self.operators.items()))

    def __eq__(self, other):
        return isinstance(other, ActionData) and self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (
            f"ActionData({self.variety}, B dim {self.acting.dim}, X dim {self.kernel.dim})"
        )


def zero_action(variety: str, B: Algebra, X: Algebra) -> ActionData:
    return ActionData(variety, B, X)


# -- validation ---------------------------------------------------------------


@dataclass
class ConditionResult:
    label: str
    holds: bool
    witness: Optional[tuple] = None
    defect: Optional[list] = None


@dataclass
class ValidationReport:
    variety: str
    conditions: list  # [ConditionResult] in canonical label order

    @property
    def passed(self) -> bool:
        return all(c.holds for c in self.conditions)

    def failed_labels(self):
        return [c.label for c in self.conditions if not c.holds]

    def condition(self, label: str) -> ConditionResult:
        for c in self.conditions:
            if c.label == label:
                return c
        raise KeyError(label)

    def to_json_dict(self, field: Field) -> dict:
        conds = {}
        for c in self.conditions:
            entry = {"holds": c.holds}
            if not c.holds:
                entry["witness"] = list(c.witness)
                entry["defect"] = [field.to_str(x) for x in c.defect]
            conds[c.label] = entry
        return {"variety": self.variety, "pass": self.passed, "conditions": conds}


def validate_action(a: ActionData) -> ValidationReport:
    """Evaluate the variety's condition list on all relevant basis tuples.

    For Leibniz actions, witnesses for L1-L3 are (x, a, b) with x in B and
    a, b in X, and for L4-L6 they are (x, y, a); associative/Poisson
    witnesses follow the same pattern for their lists.
    """
    v = _variety(a.variety)
    fails = laws.failures(a.kernel, [law for _, law in v.conditions], [a._law_operators()], a.acting)
    results = []
    for label, law in v.conditions:
        hit = next(fails(law), None)
        witness, defect = hit[1:] if hit else (None, None)
        results.append(ConditionResult(label, hit is None, witness, defect))
    return ValidationReport(a.variety, results)


# -- split extensions ---------------------------------------------------------


@dataclass
class SplitExtension:
    """Total algebra with a kernel embedding, retraction and section."""

    total: Algebra
    kernel_inj: list  # total.dim x kernel-dim
    retraction: list  # base-dim x total.dim
    section: list  # total.dim x base-dim

    @property
    def field(self) -> Field:
        return self.total.field

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_inj[0]) if self.kernel_inj else 0

    @property
    def base_dim(self) -> int:
        return len(self.retraction)

    def to_json_dict(self) -> dict:
        f = self.field

        def mat(M):
            return [[f.to_str(x) for x in row] for row in M]

        return {
            "total": self.total.to_json_dict(),
            "kernel_inj": mat(self.kernel_inj),
            "retraction": mat(self.retraction),
            "section": mat(self.section),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SplitExtension":
        try:
            total = Algebra.from_json_dict(data["total"])
            f = total.field
            i, pi, s = (json_matrix(f, data[k], k) for k in ("kernel_inj", "retraction", "section"))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed split extension: {exc}") from exc
        n, m, k = total.dim, len(i[0]) if i else 0, len(pi)
        for name, M, rows, cols in (("kernel_inj", i, n, m), ("retraction", pi, k, n),
                                    ("section", s, n, k)):
            linalg.check_shape(M, rows, cols, error=ShapeMismatch, what=name)
        return cls(total, i, pi, s)

    # -- derived algebras ----------------------------------------------------

    def _pullback(self, matrix, dim, rule) -> Algebra:
        """The algebra of dimension ``dim`` whose operation op sends (e_i, e_j)
        to ``rule(op, i, j, u_i . u_j)``, with u_i column i of ``matrix`` and
        the product taken in the total algebra."""
        f, total = self.field, self.total
        cols = [linalg.mat_col(matrix, j) for j in range(dim)]
        return Algebra.from_products(
            f, dim, [op.name for op in total.ops],
            lambda op, i, j: dict(enumerate(rule(op, i, j, total.multiply(op, cols[i], cols[j])))),
            labels=_label_pullback(f, total.labels, matrix),
        )

    def _kernel_coords(self, v, failure: str):
        """Coordinates of v in the kernel injection's columns; raises
        KernelMismatch(failure) when v is outside its image."""
        f = self.field
        coords = linalg.solve(f, self.kernel_inj, v)
        if coords is None or linalg.mat_vec(f, self.kernel_inj, coords) != v:
            raise KernelMismatch(failure)
        return coords

    def base_algebra(self) -> Algebra:
        """Base structure transported along the section: b_i . b_j is the
        retraction of s(b_i) . s(b_j)."""
        return self._pullback(
            self.section, self.base_dim,
            lambda op, i, j, v: linalg.mat_vec(self.field, self.retraction, v),
        )

    def kernel_algebra(self) -> Algebra:
        """Kernel structure pulled back along the injection; raises
        KernelMismatch when the image of i is not closed."""
        return self._pullback(
            self.kernel_inj, self.kernel_dim,
            lambda op, i, j, v: self._kernel_coords(
                v, f"kernel image is not closed under operation {op} at ({i},{j})"
            ),
        )

    def _check(self):
        """Each structural defect as the error :func:`extract_action` raises
        for it, in order (``NotSplit`` for the retraction and the section,
        ``KernelMismatch`` for the kernel), with the base and kernel algebras
        built on the way: (problems, B, X), X None when the kernel image is
        not closed."""
        f = self.field
        n, k, m = self.total.dim, self.base_dim, self.kernel_dim
        problems = []
        if k + m != n:
            problems.append(KernelMismatch("base and kernel dimensions do not add up to the total"))
        ps = linalg.mat_mul(f, self.retraction, self.section)
        if ps != linalg.mat_identity(f, k):
            problems.append(NotSplit("retraction . section is not the identity"))
        if any(map(any, linalg.mat_mul(f, self.retraction, self.kernel_inj))):
            problems.append(KernelMismatch("retraction . kernel_inj is not zero"))
        if linalg.mat_rank(f, self.kernel_inj) != m:
            problems.append(KernelMismatch("kernel injection is not injective"))
        if linalg.mat_rank(f, self.retraction) != k:
            problems.append(NotSplit("retraction is not surjective"))
        # kernel_algebra pulls products back along the injection, so i is a
        # homomorphism whenever the kernel image is closed
        try:
            X = self.kernel_algebra()
        except KernelMismatch as exc:
            X = None
            problems.append(exc)
        B = self.base_algebra()
        if not is_homomorphism(self.retraction, self.total, B).holds:
            problems.append(NotSplit("retraction is not a homomorphism"))
        if not is_homomorphism(self.section, B, self.total).holds:
            problems.append(NotSplit("section is not a homomorphism"))
        return problems, B, X

    def validate(self) -> list:
        """All structural defects, as human-readable strings (empty = valid)."""
        return [str(problem) for problem in self._check()[0]]


def _label_pullback(field, total_labels, matrix):
    """Labels transported along a map whose columns are basis vectors of the
    total algebra; None as soon as any column is not a unit vector."""
    if total_labels is None:
        return None
    cols = len(matrix[0]) if matrix else 0
    labels = []
    for j in range(cols):
        col = linalg.mat_col(matrix, j)
        hits = [i for i, c in enumerate(col) if c]
        if len(hits) != 1 or col[hits[0]] != field.one:
            return None
        labels.append(total_labels[hits[0]])
    return labels


def semidirect_algebra(a: ActionData) -> Algebra:
    """The algebra on B + X built from the semidirect formulas, with no
    validity gate.

    For invalid actions the result simply fails the variety's identity
    checker; that equivalence (conditions hold iff the built algebra is in
    the variety) is the correspondence the validation suite tests.
    """
    B, X, f = a.acting, a.kernel, a.field
    nb = B.dim
    ops = a._law_operators()

    def kernel(v):  # a vector of X in the coordinates of B + X
        return {nb + m: c for m, c in enumerate(v)}

    def product(op, i, j):
        # op 1 of a two-operation variety is the bracket, where B acts by k
        # on the left and -k on the right; otherwise by l and r
        if i < nb and j < nb:
            return B.ops[op].groups.get((i, j), {})
        if i >= nb and j >= nb:
            return kernel(X.mul_basis(op, i - nb, j - nb))
        if i < nb:
            return kernel(linalg.mat_col(ops["k" if op == 1 else "l"][i], j - nb))
        if op == 1:
            return kernel(linalg.vec_neg(f, linalg.mat_col(ops["k"][j], i - nb)))
        return kernel(linalg.mat_col(ops["r"][j], i - nb))

    labels = B.labels + X.labels if B.labels is not None and X.labels is not None else None
    return Algebra.from_products(f, nb + X.dim, [op.name for op in B.ops], product, labels=labels)


def semidirect(a: ActionData) -> SplitExtension:
    """The semidirect product on B + X, refusing invalid actions.

    Basis order is B first, then X.  The canonical injection, retraction
    and section make the result a split extension whose derived action is
    the input again.
    """
    report = validate_action(a)
    if not report.passed:
        raise InvalidAction(report)
    f = a.field
    nb, nx = a.acting.dim, a.kernel.dim
    n = nb + nx
    total = semidirect_algebra(a)
    kernel_inj = [[f.one if (i >= nb and i - nb == j) else f.zero for j in range(nx)] for i in range(n)]
    retraction = [[f.one if i == j else f.zero for j in range(n)] for i in range(nb)]
    section = [[f.one if i == j else f.zero for j in range(nb)] for i in range(n)]
    return SplitExtension(total, kernel_inj, retraction, section)


def extract_action(E: SplitExtension, variety: str) -> ActionData:
    """Recover the derived action of a split extension.

    The first problem that :meth:`SplitExtension.validate` reports is raised
    before anything is read.  l and r (and the bracket action) are computed
    by multiplying section images with kernel images inside the total
    algebra and re-expressing the result in kernel coordinates.
    """
    v = _variety(variety)
    problems, B, X = E._check()
    if problems:
        raise problems[0]
    if E.total.num_ops != v.num_ops:
        raise ShapeMismatch("operation count of the total algebra does not match the variety")
    nb, nx = E.base_dim, E.kernel_dim
    s_cols = [linalg.mat_col(E.section, j) for j in range(nb)]
    i_cols = [linalg.mat_col(E.kernel_inj, j) for j in range(nx)]

    def read(op, left):
        # column y of the operator at e_p is s_p . i_y, or i_y . s_p when B
        # acts from the right; the retraction, a homomorphism, kills it, so
        # it lies in the kernel image
        def col(s, i):
            u, w = (s, i) if left else (i, s)
            return E._kernel_coords(E.total.multiply(op, u, w), "operator value leaves the kernel")

        return [linalg.mat_from_cols([col(s, i) for i in i_cols], nx) for s in s_cols]

    # l and r come from operation 0: the product, or the Leibniz bracket of a
    # one-operation total algebra
    operators = {"l": read(0, True), "r": read(0, False)}
    if "k" in v.operators:
        operators["k"] = read(E.total.bracket_op, True)
    if "r" not in v.operators:
        # r must be the commutative mirror of l; anything else is not a
        # commutative split extension
        if any(R != L for R, L in zip(operators.pop("r"), operators["l"])):
            raise KernelMismatch("extension is not commutative: r is not the mirror of l")
    return ActionData(variety, B, X, operators)


# -- morphisms into the weak actor ---------------------------------------------


def _signed(f, sign, M):
    return M if sign > 0 else linalg.mat_neg(f, M)


def action_to_morphism(a: ActionData) -> ActorMorphism:
    """The map taking each acting basis element to its operator tuple in the
    weak actor of the kernel, with the homomorphism property checked."""
    space = weak_actor(a.kernel, a.variety)
    slots = [signed_slot(s) for s in _variety(a.variety).slots]
    # the operator tuple of e_p, per the variety's slots
    tuples = [
        tuple(_signed(a.field, sign, a.operators[name][p]) for sign, name in slots)
        for p in range(a.acting.dim)
    ]
    return space.morphism(a.acting, space.matrix_of(tuples))


def _unpack(mor: ActorMorphism, variety: str) -> ActionData:
    """The action of a morphism already known to be a homomorphism into the
    weak actor of ``variety``."""
    v = _VARIETIES[variety]
    B, space = mor.source, mor.space
    operators = {name: [] for name in v.operators}  # one matrix per basis element of B
    for p in range(B.dim):
        for slot, M in zip(v.slots, space.tuple_from_coords(linalg.mat_col(mor.matrix, p))):
            sign, name = signed_slot(slot)
            operators[name].append(_signed(B.field, sign, M))
    return ActionData(variety, B, space.base, operators)


def morphism_to_action(mor: ActorMorphism) -> ActionData:
    """Unpack a morphism into an action (inverse of
    :func:`action_to_morphism` on its image).  The source acts on the base
    of the space, in the variety whose weak actor the space is."""
    variety = _VARIETY_OF_KIND.get(mor.space.kind)
    if variety is None:
        raise InputError(f"the {mor.space.kind} space is the weak actor of no variety")
    hom = mor.hom
    if not hom.holds:
        raise NotAHomomorphism(f"not a homomorphism into the weak actor: defect at {hom.witness}")
    return _unpack(mor, variety)


@dataclass
class ActingReport:
    """Whether ``action`` satisfies its variety's acting law, and where not."""

    action: ActionData
    acting: bool
    witness: Optional[tuple] = None
    defect: Optional[list] = None

    def to_json_dict(self, field: Field) -> dict:
        data = {"acting": self.acting}
        if not self.acting:
            data["witness"] = list(self.witness)
            data["defect"] = [field.to_str(x) for x in self.defect]
        return data


def is_acting_morphism(mor: ActorMorphism) -> ActingReport:
    """Whether a homomorphism into the weak actor arises from a split
    extension.

    The criterion is the variety's acting law on the unpacked operators:
    permutability (l_x r_y = r_y l_x) for associative and Poisson varieties
    and, for Leibniz, the vanishing of l_x(l_y(a) + r_y(a)).  Witnesses are
    (x, y, a); a non-homomorphism input is an error rather than a "not
    acting" verdict.  The report carries the unpacked action, so a caller
    that validates it next does not unpack the morphism again.
    """
    return _acting(morphism_to_action(mor))


def _acting(a: ActionData) -> ActingReport:
    """The variety's acting law evaluated on the operators of ``a``."""
    law = _variety(a.variety).acting
    hit = next(laws.failures(a.kernel, [law], [a._law_operators()], a.acting)(law), None)
    return ActingReport(a, True) if hit is None else ActingReport(a, False, *hit[1:])


# -- exhaustive enumeration (small prime fields) -------------------------------


def _homomorphisms(B: Algebra, X: Algebra, variety: str, budget: int):
    """The weak actor of X and every homomorphism from B into it, as
    :class:`ActorMorphism` records in lexicographic order of their matrices
    read row by row: each one :func:`~algact.algebra.homomorphisms` finds is
    certified by its homomorphism check, or raises NotAHomomorphism."""
    f = prime_field(B.field)
    if f != X.field:
        raise ShapeMismatch("acting and kernel algebras live over different fields")
    space = weak_actor(X, variety)
    nb, ne = B.dim, space.dim
    needed = f.p ** (ne * nb)
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    homs = [space.morphism(B, linalg.mat_from_cols(cols, ne))
            for cols in homomorphisms(B, space.as_algebra())]
    if bad := [mor.hom.witness for mor in homs if not mor.hom.holds]:
        raise NotAHomomorphism(f"the search found a map with defect at {bad[0]}")
    return space, sorted(homs, key=lambda mor: [x for row in mor.matrix for x in row])


def enumerate_actions(B: Algebra, X: Algebra, variety: str, budget: int = DEFAULT_BUDGET):
    """All valid actions of B on X over a prime field, sorted canonically.

    The candidates are the homomorphisms from B into the weak actor E of X,
    and each one whose unpacked action validates is kept.  Every valid
    action is reached: its conditions include E's laws and that the map
    into E is a homomorphism.  The homomorphisms are found column by column,
    the image of e_i e_j forced or checked once those of e_i and e_j are
    fixed, and each is certified.  ``budget`` bounds the count of all
    matrices, p**(dim E * dim B), however few of them the search visits.
    """
    space, homs = _homomorphisms(B, X, variety, budget)
    actions = (_unpack(m, variety) for m in homs)
    return sorted((a for a in actions if validate_action(a).passed), key=ActionData.canonical_key)


def enumerate_acting_morphisms(B: Algebra, X: Algebra, variety: str, budget: int = DEFAULT_BUDGET):
    """All acting homomorphisms from B into the weak actor of X, found column
    by column over the prime field; returns (space, morphisms) with the
    morphisms in lexicographic order of their matrices read row by row."""
    space, homs = _homomorphisms(B, X, variety, budget)
    return space, [m for m in homs if _acting(_unpack(m, variety)).acting]
