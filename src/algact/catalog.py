"""Built-in algebras, actions and replayable fact scenarios.

The fact suite re-derives, by exact computation, the landmark examples of
the theory implemented here: the two-dimensional biderivation space of the
one-dimensional abelian algebra together with the classical morphism into
it that is a homomorphism but corresponds to no split extension, the
bi-adjoint extensions, the diagonal copy of the derivation algebra inside
the biderivation space of a Lie algebra, the three- and twelve-dimensional
actor spaces of the abelian Poisson algebras, and the commutativity failure
that rules out weak actors for commutative Poisson algebras.  Facts are
data (statement + checker), so the suite doubles as documentation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from . import linalg
from .algebra import (
    Algebra, annihilator, check_identity, json_list, json_matrix, json_pair, prime_field,
    product_subspace,
)
from .actions import (
    ActionData,
    action_to_morphism,
    is_acting_morphism,
    validate_action,
    zero_action,
)
from .errors import InputError, ShapeMismatch, TupleNotInSpace, UnknownName
from .fields import Field, PrimeField, Q
from .opspace import (
    biderivations,
    check_bim_commutation,
    comm_poisson_usga,
    derivations,
    inner_embedding,
    poisson_usga,
)

__all__ = [
    "builtin",
    "builtin_names",
    "MorphismData",
    "catalog_algebras",
    "catalog_actions",
    "leibniz_names",
    "lie_names",
    "FACTS",
    "repro_suite",
    "ReproReport",
    "open_problem_search",
    "SearchReport",
]


# -- builtin algebras ----------------------------------------------------------


def _abelian(n, field):
    return Algebra.from_entries(field, n, [{}], names=["bracket"])


def _poisson_abelian(n, field):
    return Algebra.from_entries(field, n, [{}, {}])


# name: (dim, {operation name: {(i, j, k): c}}, tag), c the coefficient of e_k in e_i e_j
# (0-based); record order fixes leibniz_names, lie_names and so the details of facts (b), (c)
_ALGEBRAS = {
    # [e2, e2] = e1: right Leibniz but not Lie
    "leibniz_2dim_nonlie": (2, {"bracket": {(1, 1, 0): 1}}, "leibniz_right"),
    # [e1, e2] = e1
    "lie_2dim_nonabelian": (2, {"bracket": {(0, 1, 0): 1, (1, 0, 0): -1}}, "lie"),
    # basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f, antisymmetric
    "sl2": (3, {"bracket": {(0, 1, 2): 1, (1, 0, 2): -1, (2, 0, 0): 2, (0, 2, 0): -2,
                            (2, 1, 1): -2, (1, 2, 1): 2}}, "lie"),
    # [e1, e2] = e3, center spanned by e3
    "heisenberg": (3, {"bracket": {(0, 1, 2): 1, (1, 0, 2): -1}}, "lie"),
    # the ground field as a unital algebra
    "assoc_unital_1dim": (1, {"mul": {(0, 0, 0): 1}}, "associative"),
    # basis (1, t) with t^2 = 0
    "assoc_trunc_poly": (2, {"mul": {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}}, "associative"),
    # span{E11, E12} in 2x2 matrices: associative, noncommutative
    "assoc_triangular": (2, {"mul": {(0, 0, 0): 1, (0, 1, 1): 1}}, "associative"),
    # the triangular product with its commutator bracket
    "poisson_triangular": (2, {"mul": {(0, 0, 0): 1, (0, 1, 1): 1},
                               "bracket": {(0, 1, 1): 1, (1, 0, 1): -1}}, "poisson"),
    # the truncated polynomial product with zero bracket
    "poisson_trunc_poly": (2, {"mul": {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
                               "bracket": {}}, "poisson"),
    # zero product, bracket [e1, e2] = e1: a commutative Poisson algebra
    "cpoisson_solv2": (2, {"mul": {}, "bracket": {(0, 1, 0): 1, (1, 0, 0): -1}}, "poisson"),
}


def _catalog_algebra(name, field):
    """The record ``name`` of ``_ALGEBRAS`` as an algebra, with its tag."""
    dim, ops, tag = _ALGEBRAS[name]
    return Algebra.from_entries(field, dim, list(ops.values()), names=list(ops)), tag


def leibniz_names():
    return [name for name, (_, _, tag) in _ALGEBRAS.items() if tag in ("leibniz_right", "lie")]


def lie_names():
    return [name for name, (_, _, tag) in _ALGEBRAS.items() if tag == "lie"] + ["abelian(2)"]


@dataclass
class MorphismData:
    """A morphism into a weak actor, given by the operator-tuple images of
    the acting basis elements (basis independent)."""

    variety: str
    acting: Algebra
    kernel: Algebra
    images: list  # one tuple of matrices per acting basis element

    def to_json_dict(self) -> dict:
        f = self.acting.field
        return {
            "variety": self.variety,
            "acting": self.acting.to_json_dict(),
            "kernel": self.kernel.to_json_dict(),
            "images": [
                [[[f.to_str(x) for x in row] for row in comp] for comp in tup]
                for tup in self.images
            ],
        }

    @classmethod
    def from_json_dict(cls, data):
        variety, acting, kernel = json_pair(data, "morphism description")
        f = acting.field
        images = [
            tuple(json_matrix(f, comp, "an image") for comp in json_list(tup, "an image"))
            for tup in json_list(data.get("images"), "images")
        ]
        if len(images) != acting.dim:
            raise ShapeMismatch(f"{len(images)} images for an acting algebra of "
                                f"dimension {acting.dim}; give one per basis element")
        return cls(variety, acting, kernel, images)


def _metere_morphism(field) -> MorphismData:
    """On the 1-dim abelian algebra: a |-> (x -> -a x, x -> a x).

    A homomorphism into the biderivation space that corresponds to no split
    extension; its acting defect carries the characteristic coefficient 2.
    """
    F1 = _abelian(1, field)
    return MorphismData(
        "leibniz", F1, F1, [([[field.of(-1)]], [[field.one]])]
    )


def biadjoint_action(A: Algebra) -> ActionData:
    """The action of a bracket algebra on itself: l = left bracket
    multiplication, r = right bracket multiplication."""
    return inner_action(A, "leibniz")


def inner_action(A: Algebra, variety: str) -> ActionData:
    """The action of an algebra on itself by its own multiplications: l and
    r by operation 0 (the product, or the bracket of a Leibniz algebra), k
    by operation 1 (the bracket of a Poisson algebra); a ``cpoisson`` action
    has no r."""
    basis = range(A.dim)
    operators = {"l": [A.left_matrix_basis(0, p) for p in basis]}
    if variety != "cpoisson":
        operators["r"] = [A.right_matrix_basis(0, q) for q in basis]
    if variety in ("poisson", "cpoisson"):
        operators["k"] = [A.left_matrix_basis(1, p) for p in basis]
    return ActionData(variety, A, A, operators)


def _metere_action(field) -> ActionData:
    """The action unpacked from the morphism above: l_a(x) = r_a(x) = a x;
    fails exactly the sixth condition with defect 2abx."""
    F1 = _abelian(1, field)
    one = field.one
    return ActionData("leibniz", F1, F1, {"l": [[[one]]], "r": [[[one]]]})


def builtin_names():
    names = ["abelian(n)", "poisson_abelian(n)"]
    names += sorted(_ALGEBRAS)
    names += ["metere_morphism", "metere_action"]
    names += [f"biadjoint({name})" for name in leibniz_names()]
    return names


def builtin(name: str, field: Optional[Field] = None):
    """Look up a named algebra, action or morphism.

    Parametric names: ``abelian(n)``, ``poisson_abelian(n)`` and
    ``biadjoint(<leibniz name>)``.  Records load unchecked: an identity is an
    integer polynomial in a record's integer constants, so one that holds over
    Q holds over every GF(p).  ``test_catalog_algebras_pass_their_variety``
    checks every record.
    """
    field = field if field is not None else Q
    name = name.strip()
    if name.startswith("abelian(") and name.endswith(")"):
        return _abelian(_parse_n(name[8:-1]), field)
    if name.startswith("poisson_abelian(") and name.endswith(")"):
        return _poisson_abelian(_parse_n(name[16:-1]), field)
    if name.startswith("biadjoint(") and name.endswith(")"):
        if isinstance(inner := builtin(name[10:-1], field), Algebra):  # else refused below
            return biadjoint_action(inner)
    if name == "metere_morphism":
        return _metere_morphism(field)
    if name == "metere_action":
        return _metere_action(field)
    if name in _ALGEBRAS:
        return _catalog_algebra(name, field)[0]
    raise UnknownName(f"no builtin named {name!r}")


def _parse_n(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise UnknownName(f"bad dimension parameter {text!r}") from None
    if n < 0:
        raise UnknownName("dimension must be nonnegative")
    return n


def catalog_algebras(field):
    """All catalog algebras with their variety tags, in registry order."""
    out = [("abelian(1)", _abelian(1, field), "leibniz_right"),
           ("abelian(2)", _abelian(2, field), "leibniz_right"),
           ("poisson_abelian(1)", _poisson_abelian(1, field), "poisson"),
           ("poisson_abelian(2)", _poisson_abelian(2, field), "poisson")]
    for name in sorted(_ALGEBRAS):
        out.append((name, *_catalog_algebra(name, field)))
    return out


# (variety, acting, kernel) of catalog_actions, in order: kernel None for the
# inner action of the acting algebra on itself, else the zero action
_CATALOG_ACTIONS = (
    [("leibniz", name, kernel) for name in leibniz_names() for kernel in (None, "abelian(1)")]
    + [("associative", name, None)
       for name in ("assoc_unital_1dim", "assoc_trunc_poly", "assoc_triangular")]
    + [("associative", "assoc_trunc_poly", "assoc_unital_1dim")]
    + [("poisson", name, None)
       for name in ("poisson_triangular", "poisson_trunc_poly", "poisson_abelian(1)")]
    + [("cpoisson", name, None)
       for name in ("poisson_trunc_poly", "cpoisson_solv2", "poisson_abelian(2)")]
    + [("poisson", "poisson_trunc_poly", "poisson_abelian(1)"),
       ("cpoisson", "cpoisson_solv2", "poisson_abelian(1)")]
)
_INNER_LABELS = {"leibniz": "biadjoint", "associative": "inner", "poisson": "inner_poisson",
                 "cpoisson": "inner_cpoisson"}


def catalog_actions(field):
    """Named valid actions used by the roundtrip and closure suites."""
    out = []
    for variety, acting, kernel in _CATALOG_ACTIONS:
        A = builtin(acting, field)
        if kernel is None:
            out.append((f"{_INNER_LABELS[variety]}({acting})", inner_action(A, variety)))
        else:
            out.append((f"zero({variety},{acting},{kernel})",
                        zero_action(variety, A, builtin(kernel, field))))
    # a nonzero non-inner Leibniz action: the 2-dim nonabelian Lie algebra
    # acting on the line with l = -r
    lie2 = builtin("lie_2dim_nonabelian", field)
    zero, one = field.zero, field.one
    operators = {"l": [[[zero]], [[field.of(-1)]]], "r": [[[zero]], [[one]]]}
    out.append(("lie2na_on_abelian1", ActionData("leibniz", lie2, _abelian(1, field), operators)))
    return out


# -- fact suite ----------------------------------------------------------------


@dataclass
class FactResult:
    fact_id: str
    passed: bool
    details: dict
    failures: list

    def to_json_dict(self) -> dict:
        return {
            "id": self.fact_id,
            "pass": self.passed,
            "details": self.details,
            "failures": self.failures,
        }


@dataclass
class Fact:
    fact_id: str
    title: str
    statement: str
    run: Callable[[Field], FactResult]


class _Checker:
    """Collects named equality assertions for one fact run."""

    def __init__(self, fact_id):
        self.fact_id = fact_id
        self.details = {}
        self.failures = []

    def expect(self, name, observed, expected):
        self.details[name] = observed
        if observed != expected:
            self.failures.append(f"{name}: expected {expected!r}, got {observed!r}")

    def record(self, name, value):
        self.details[name] = value

    def result(self):
        return FactResult(self.fact_id, not self.failures, self.details, self.failures)


def _fact_a(field):
    c = _Checker("a")
    F1 = _abelian(1, field)
    bider = biderivations(F1)
    c.expect("bider_dim", bider.dim, 2)
    mor = bider.morphism(F1, bider.matrix_of(_metere_morphism(field).images))
    c.expect("is_homomorphism", mor.is_homomorphism, True)
    verdict = is_acting_morphism(mor)
    c.expect("acting", verdict.acting, False)
    report = validate_action(verdict.action)
    c.expect("failed_conditions", report.failed_labels(), ["L6"])
    l6 = report.condition("L6")
    c.expect("L6_defect", [field.to_str(x) for x in l6.defect], [field.to_str(field.of(2))])
    return c.result()


def _fact_b(field):
    c = _Checker("b")
    for name in leibniz_names():
        A = builtin(name, field)
        act = biadjoint_action(A)
        rep = validate_action(act)
        c.expect(f"{name}.valid", rep.passed, True)
        mor = action_to_morphism(act)
        c.expect(f"{name}.hom", mor.is_homomorphism, True)
        inner = inner_embedding(mor.space)
        c.expect(f"{name}.matches_inner", mor.matrix == inner.matrix, True)
    return c.result()


def _fact_c(field):
    c = _Checker("c")
    for name in lie_names():
        A = builtin(name, field)
        ders = derivations(A)
        bider = biderivations(A)
        try:
            diagonal = bider.matrix_of([(d, d) for (d,) in ders.basis])
            iota = bider.morphism(ders.as_algebra(), diagonal)
        except TupleNotInSpace:
            iota = None
        c.expect(f"{name}.diagonal_in_bider", iota is not None, True)
        if iota is None:
            continue
        c.expect(f"{name}.injective", linalg.mat_rank(field, iota.matrix) == ders.dim, True)
        c.expect(f"{name}.bracket_hom", iota.is_homomorphism, True)
    return c.result()


def _fact_d(field):
    c = _Checker("d")
    V = _poisson_abelian(1, field)
    space = poisson_usga(V)
    c.expect("usga_dim", space.dim, 3)
    alg = space.as_algebra()
    bracket_entries = alg.ops[1].sorted_entries()
    c.expect("bracket_zero", bracket_entries, [])
    c.expect("poisson", check_identity(alg, "poisson").holds, True)
    one = field.to_str(field.one)
    expected_product = [
        [0, 0, 0, one],
        [0, 2, 2, one],
        [1, 1, 1, one],
        [2, 1, 2, one],
    ]
    observed = [
        [i, j, k, field.to_str(v)] for (i, j, k), v in alg.ops[0].sorted_entries()
    ]
    c.expect("product_tensor", observed, expected_product)
    return c.result()


def _fact_e(field):
    c = _Checker("e")
    V = _poisson_abelian(2, field)
    space = poisson_usga(V)
    c.expect("usga_dim", space.dim, 12)
    alg = space.as_algebra()
    skew = check_identity(alg, "anticommutative")
    c.expect("bracket_is_skew", skew.holds, False)
    c.record("skew_witness", list(skew.witness) if skew.witness else None)
    c.expect("is_poisson", check_identity(alg, "poisson").holds, False)
    # spot-check the product tensor against direct composition of components
    f = field
    a, b = 0, min(7, space.dim - 1)
    t, u = space.basis[a], space.basis[b]
    raw = (
        linalg.mat_mul(f, t[0], u[0]),
        linalg.mat_mul(f, u[1], t[1]),
        linalg.mat_add(f, linalg.mat_mul(f, t[0], u[2]), linalg.mat_mul(f, u[1], t[2])),
    )
    c.expect("product_formula_matches", space.coords(raw) == alg.mul_basis(0, a, b), True)
    return c.result()


def _fact_f(field):
    c = _Checker("f")
    V = _poisson_abelian(2, field)
    space = comm_poisson_usga(V)
    c.expect("usga_c_dim", space.dim, 8)
    alg = space.as_algebra()
    comm = check_identity(alg, "commutative")
    c.expect("product_commutative", comm.holds, False)
    c.record("witness", list(comm.witness) if comm.witness else None)
    return c.result()


def _fact_g(field):
    c = _Checker("g")
    V = _poisson_abelian(1, field)
    c.expect("eqpois_holds", check_bim_commutation(V).holds, True)
    c.expect("annihilator_dim", len(annihilator(V)), 1)
    c.expect("square_dim", len(product_subspace(V, 0)), 0)
    return c.result()


FACTS = [
    Fact(
        "a",
        "biderivations of the line and the non-acting morphism",
        "The biderivation space of the 1-dim abelian algebra has dimension 2; "
        "the morphism a -> (-a id, a id) into it is a homomorphism that is not "
        "acting, failing exactly condition L6 with defect coefficient 2.",
        _fact_a,
    ),
    Fact(
        "b",
        "bi-adjoint actions are valid and inner",
        "For every catalog Leibniz algebra the bi-adjoint self-action is a valid "
        "derived action and its morphism equals the inner embedding into the "
        "biderivation space.",
        _fact_b,
    ),
    Fact(
        "c",
        "diagonal derivation pairs inside biderivations of a Lie algebra",
        "For catalog Lie algebras the pairs (d, d) lie in the biderivation space "
        "and form a copy of the derivation Lie algebra.",
        _fact_c,
    ),
    Fact(
        "d",
        "the actor space of the 1-dim abelian Poisson algebra",
        "The actor space has dimension 3, zero bracket, product "
        "(a,b,c)(a',b',c') = (aa', b'b, ac' + b'c), and is a Poisson algebra.",
        _fact_d,
    ),
    Fact(
        "e",
        "the actor space of the 2-dim abelian Poisson algebra",
        "The space is 12-dimensional (three copies of the 2x2 matrix algebra); "
        "its bracket is not skew-symmetric, so the space is not Poisson.",
        _fact_e,
    ),
    Fact(
        "f",
        "the commutative actor space of the 2-dim abelian algebra",
        "The pair space multiplier x derivation is 8-dimensional and its product "
        "is not commutative, which rules out a weak actor in the commutative "
        "Poisson variety.",
        _fact_f,
    ),
    Fact(
        "g",
        "multiplier commutation without trivial annihilator",
        "For the 1-dim abelian Poisson algebra every left multiplier commutes "
        "with every right multiplier even though the annihilator is everything "
        "and the square is zero.",
        _fact_g,
    ),
]


@dataclass
class ReproReport:
    field: Field
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.to_json(),
            "pass": self.passed,
            "facts": [r.to_json_dict() for r in self.results],
        }

    def to_text(self) -> str:
        titles = {fact.fact_id: fact.title for fact in FACTS}
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"fact ({r.fact_id}) {titles.get(r.fact_id, '')}: {status}")
            for key, value in r.details.items():
                lines.append(f"    {key} = {value}")
            for msg in r.failures:
                lines.append(f"    {msg}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def repro_suite(field: Optional[Field] = None, fact_ids=None) -> ReproReport:
    """Run the fact suite (all facts by default) over the given field."""
    field = field if field is not None else Q
    results = []
    for fact in FACTS:
        if fact_ids is not None and fact.fact_id not in fact_ids:
            continue
        results.append(fact.run(field))
    if fact_ids is not None and not results:
        raise UnknownName(f"no facts matched {sorted(fact_ids)!r}")
    return ReproReport(field, results)


# -- randomized search for the open counterexample ------------------------------


def _counter_bytes(seed: int, index: int, count: int) -> bytes:
    out = b""
    block = 0
    while len(out) < count:
        out += hashlib.sha256(f"{seed}:{index}:{block}".encode()).digest()
        block += 1
    return out[:count]


@dataclass
class SearchReport:
    p: int
    dim: int
    samples: int
    seed: int
    poisson: int
    eqpois: int
    usga_poisson_ok: int
    findings: list

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "dim": self.dim,
            "samples": self.samples,
            "seed": self.seed,
            "counts": {
                "sampled": self.samples,
                "poisson": self.poisson,
                "eqpois_holds": self.eqpois,
                "usga_poisson": self.usga_poisson_ok,
            },
            "findings": self.findings,
        }

    def to_text(self) -> str:
        lines = [
            f"sampled {self.samples} structure pairs over GF({self.p}) in dim {self.dim}",
            f"  poisson algebras:          {self.poisson}",
            f"  with commuting multipliers: {self.eqpois}",
            f"  actor space again poisson:  {self.usga_poisson_ok}",
            f"  candidate counterexamples:  {len(self.findings)}",
        ]
        return "\n".join(lines)


def open_problem_search(field: PrimeField, dim: int, samples: int, seed: int) -> SearchReport:
    """Randomized hunt for a Poisson algebra whose multipliers commute but
    whose actor space fails the Poisson identities.

    Sampling is counter-based (seed, sample index), so runs are reproducible
    and trivially partitionable.  Every finding carries a self-contained
    witness bundle for re-verification.
    """
    prime_field(field)
    if dim < 0 or dim > 4:
        raise InputError("search dimension is limited to 0..4")
    if samples < 0:
        raise InputError("the number of samples must be non-negative")
    findings = []
    n_poisson = n_eqpois = n_ok = 0
    for index in range(samples):
        raw = _counter_bytes(seed, index, 2 * dim ** 3)

        def product(op, i, j):
            s = ((op * dim + i) * dim + j) * dim
            return {k: c % field.p for k, c in enumerate(raw[s : s + dim])}

        V = Algebra.from_products(field, dim, ["mul", "bracket"], product)
        if not check_identity(V, "poisson").holds:
            continue
        n_poisson += 1
        if not check_bim_commutation(V).holds:
            continue
        n_eqpois += 1
        space = poisson_usga(V)
        rep = check_identity(space.as_algebra(), "poisson")
        if rep.holds:
            n_ok += 1
        else:
            findings.append(
                {
                    "sample_index": index,
                    "algebra": V.to_json_dict(),
                    "usga_dim": space.dim,
                    "usga_basis": space.to_json_dict()["basis"],
                    "failure": rep.to_json_dict(field),
                }
            )
    return SearchReport(
        p=field.p,
        dim=dim,
        samples=samples,
        seed=seed,
        poisson=n_poisson,
        eqpois=n_eqpois,
        usga_poisson_ok=n_ok,
        findings=findings,
    )
