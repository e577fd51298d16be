import dataclasses
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest

from algact import laws, linalg, opspace
from algact.algebra import Algebra, check_identity
from algact.catalog import builtin, catalog_algebras
from algact.errors import (
    ClosureError,
    NotAssociative,
    NotCommutative,
    NotCommutativePoisson,
    NotPoisson,
    OpArityMismatch,
    ShapeMismatch,
)
from algact.fields import GF, Q
from algact.opspace import (
    anti_derivations,
    biderivations,
    bimultipliers,
    check_bim_commutation,
    comm_poisson_usga,
    defining_defects,
    derivations,
    inner_embedding,
    inner_tuple,
    multipliers,
    poisson_usga,
    SPACE_KINDS,
    space_of_kind,
)

import oracle


def F(x):
    return Fraction(x)


# -- dimensions against hand computations ---------------------------------------


def test_derivations_abelian_is_all_of_end():
    assert derivations(builtin("abelian(1)")).dim == 1
    assert derivations(builtin("abelian(2)")).dim == 4


def test_derivation_dims():
    assert derivations(builtin("leibniz_2dim_nonlie")).dim == 2
    assert derivations(builtin("lie_2dim_nonabelian")).dim == 2
    assert derivations(builtin("sl2")).dim == 3
    assert derivations(builtin("heisenberg")).dim == 6


def test_antiderivation_dims():
    assert anti_derivations(builtin("abelian(2)")).dim == 4
    assert anti_derivations(builtin("leibniz_2dim_nonlie")).dim == 2


def test_lie_derivations_equal_antiderivations():
    for name in ("sl2", "heisenberg", "lie_2dim_nonabelian", "abelian(2)"):
        A = builtin(name)
        d = derivations(A)
        ad = anti_derivations(A)
        assert d.basis == ad.basis, name


def test_biderivations_of_line_is_end_squared():
    assert biderivations(builtin("abelian(1)")).dim == 2


def test_biderivations_dims():
    assert biderivations(builtin("abelian(2)")).dim == 8
    assert biderivations(builtin("leibniz_2dim_nonlie")).dim == 3
    # trivial right center forces the diagonal
    assert biderivations(builtin("sl2")).dim == derivations(builtin("sl2")).dim


def test_bimultiplier_dims():
    zero1 = Algebra.from_entries(Q, 1, [{}])
    assert bimultipliers(zero1).dim == 2
    assert bimultipliers(builtin("assoc_unital_1dim")).dim == 1
    zero2 = Algebra.from_entries(Q, 2, [{}])
    assert bimultipliers(zero2).dim == 8


def test_multiplier_dims():
    zero2 = Algebra.from_entries(Q, 2, [{}])
    assert multipliers(zero2).dim == 4
    assert multipliers(builtin("assoc_unital_1dim")).dim == 1
    assert multipliers(builtin("assoc_trunc_poly")).dim == 2


def test_usga_dims():
    assert poisson_usga(builtin("poisson_abelian(1)")).dim == 3
    assert poisson_usga(builtin("poisson_abelian(2)")).dim == 12
    assert comm_poisson_usga(builtin("poisson_abelian(2)")).dim == 8
    assert comm_poisson_usga(builtin("poisson_abelian(1)")).dim == 2
    assert comm_poisson_usga(builtin("cpoisson_solv2")).dim == 3


def test_zero_dimensional_base():
    V = Algebra.from_entries(Q, 0, [{}, {}])
    for kind in ("derivations", "biderivations", "bimultipliers", "usga-poisson"):
        space = space_of_kind(V, kind)
        assert space.dim == 0
        assert space.as_algebra().dim == 0
        assert all(op.groups == {} for op in space.as_algebra().ops)


# -- preconditions ----------------------------------------------------------------


def test_bimultipliers_require_associative():
    nonassoc = Algebra.from_entries(Q, 2, [{(0, 0, 1): 1, (1, 0, 0): 1}])
    assert not check_identity(nonassoc, "associative").holds
    with pytest.raises(NotAssociative):
        bimultipliers(nonassoc)


def test_multipliers_require_commutative():
    with pytest.raises(NotCommutative):
        multipliers(builtin("assoc_triangular"))


def test_poisson_usga_requires_poisson():
    bad = Algebra.from_entries(Q, 1, [{}, {(0, 0, 0): 1}])  # nonzero [x,x]
    with pytest.raises(NotPoisson):
        poisson_usga(bad)


def test_antiderivations_have_no_algebra():
    space = anti_derivations(builtin("abelian(1)"))
    with pytest.raises(OpArityMismatch):
        space.as_algebra()


# -- closure and self-checks -------------------------------------------------------


ALL_BRACKET_ALGEBRAS = (
    "abelian(1)",
    "abelian(2)",
    "leibniz_2dim_nonlie",
    "lie_2dim_nonabelian",
    "sl2",
    "heisenberg",
)


@pytest.mark.parametrize("name", ALL_BRACKET_ALGEBRAS)
def test_derivations_form_lie_algebra(name):
    alg = derivations(builtin(name)).as_algebra()
    assert check_identity(alg, "lie").holds


@pytest.mark.parametrize("name", ALL_BRACKET_ALGEBRAS)
def test_biderivations_form_leibniz_algebra(name):
    alg = biderivations(builtin(name)).as_algebra()
    assert check_identity(alg, "leibniz_right").holds


@pytest.mark.parametrize(
    "name", ("assoc_unital_1dim", "assoc_trunc_poly", "assoc_triangular")
)
def test_bimultipliers_form_associative_algebra(name):
    alg = bimultipliers(builtin(name)).as_algebra()
    assert check_identity(alg, "associative").holds


@pytest.mark.parametrize(
    "name",
    (
        "poisson_abelian(1)",
        "poisson_abelian(2)",
        "poisson_triangular",
        "poisson_trunc_poly",
        "cpoisson_solv2",
    ),
)
def test_usga_closes_and_selfchecks(name):
    # construction itself re-verifies defining identities and closure
    V = builtin(name)
    space = poisson_usga(V)
    for tup in space.basis:
        assert next(defining_defects("usga-poisson", V, tup), None) is None


def test_basis_tuples_satisfy_identities_explicitly():
    A = builtin("leibniz_2dim_nonlie")
    space = biderivations(A)
    for tup in space.basis:
        assert next(defining_defects("biderivations", A, tup), None) is None


@pytest.mark.parametrize("field", [Q, GF(5)], ids=repr)
def test_rows_and_self_check_cut_out_the_same_space(field):
    # The laws are linear in the operator tuple, so the defects of the unit
    # tuples are the columns of the evaluated system; its nullspace must be
    # the space that the linear reading of the same laws produced.
    checked = 0
    for name, A, _ in catalog_algebras(field):
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            unknowns = len(space.components) * A.dim ** 2
            columns = {}  # (label, args, coordinate) -> {unknown: coefficient}
            n = A.dim
            for idx in range(unknowns):
                flat = linalg.unit_vector(field, unknowns, idx)
                unit = tuple(linalg.mat_unflatten(flat[b * n * n:(b + 1) * n * n], n, n)
                             for b in range(len(space.components)))
                for label, args, defect in defining_defects(kind, A, unit):
                    for m, c in enumerate(defect):
                        columns.setdefault((label, args, m), {})[idx] = c
            rows = [[row.get(idx, field.zero) for idx in range(unknowns)]
                    for row in columns.values()]
            flat_basis = [[x for M in tup for row in M for x in row] for tup in space.basis]
            assert linalg.nullspace_basis(field, rows, unknowns)[0] == flat_basis, (name, kind)
            checked += 1
    assert checked > len(SPACE_KINDS)


# each kind's induced operations written out on dense matrices, independent
# of the sparse rules the package runs
def _reference_ops(f, t, u):
    def mm(a, b):
        return linalg.mat_mul(f, a, b)

    def comm(a, b):
        return linalg.mat_sub(f, mm(a, b), mm(b, a))

    def plus(a, b):
        return linalg.mat_add(f, a, b)

    return {
        "derivations": lambda: [(comm(t[0], u[0]),)],
        "biderivations": lambda: [(comm(t[0], u[0]), comm(t[1], u[0]))],
        "bimultipliers": lambda: [(mm(t[0], u[0]), mm(u[1], t[1]))],
        "multipliers": lambda: [(mm(t[0], u[0]),)],
        "usga-poisson": lambda: [
            (mm(t[0], u[0]), mm(u[1], t[1]), plus(mm(t[0], u[2]), mm(u[1], t[2]))),
            (comm(t[0], u[2]), comm(t[1], u[2]), comm(t[2], u[2])),
        ],
        "usga-cpoisson": lambda: [
            (mm(t[0], u[0]), plus(mm(t[0], u[1]), mm(u[0], t[1]))),
            (comm(t[0], u[1]), comm(t[1], u[1])),
        ],
    }


def _flat(tup):
    return [x for M in tup for row in M for x in row]


def _matrix_algebra(n, upper):
    """Structure constants of M_n (or T_n) on the matrix units E_ij."""
    idx = [(i, j) for i in range(n) for j in range(n) if not upper or i <= j]
    pos = {e: k for k, e in enumerate(idx)}
    prod = {(a, b, pos[(i, l)]): 1
            for a, (i, j) in enumerate(idx) for b, (k, l) in enumerate(idx) if j == k}
    return len(idx), prod


def _unimodular(rng, n):
    """A seeded integer matrix of determinant 1 and its integer inverse."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [list(row) for row in P]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in P:  # P <- P (1 + c E_ab)
            row[b] += c * row[a]
        Pinv[a] = [x - c * y for x, y in zip(Pinv[a], Pinv[b])]  # (1 - c E_ab) Pinv
    return P, Pinv


def _rebased_matrix_algebras(field, seed):
    """T2 and M2 as an associative, a Lie (commutator) and a Poisson algebra,
    each in the basis f_i = sum_a P[a][i] E_a of one seeded unimodular P."""
    rng = random.Random(seed)
    out = []
    for name, upper in (("T2", True), ("M2", False)):
        n, prod = _matrix_algebra(2, upper)
        P, Pinv = _unimodular(rng, n)
        new = {}
        for i, j in iproduct(range(n), repeat=2):
            w = [0] * n
            for (a, b, c), v in prod.items():
                w[c] += P[a][i] * P[b][j] * v
            for m in range(n):
                new[(i, j, m)] = sum(Pinv[m][k] * w[k] for k in range(n))
        bracket = {(i, j, m): v - new[(j, i, m)] for (i, j, m), v in new.items()}
        out += [
            (f"{name}.assoc", Algebra.from_entries(field, n, [new])),
            (f"{name}.lie", Algebra.from_entries(field, n, [bracket], names=["bracket"])),
            (f"{name}.poisson", Algebra.from_entries(field, n, [new, bracket])),
        ]
    return out


def _induced_tensor_cases():
    for field in (Q, GF(3), GF(5)):
        for name, A, _ in catalog_algebras(field):
            yield field, name, A
    for name in ("abelian(3)", "poisson_abelian(3)"):
        yield Q, name, builtin(name)
    for name, A in _rebased_matrix_algebras(Q, "T2 M2"):
        yield Q, name, A


def test_induced_tensor_matches_raw_composition():
    # Compose the dense basis tuples by each kind's formula and solve for the
    # coordinates on the dense basis columns, without reading pivots.
    checked = set()
    for field, name, A in _induced_tensor_cases():
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            if space.algebra is None:
                continue
            alg = space.as_algebra()
            flat = [_flat(t) for t in space.basis]
            columns = [[v[idx] for v in flat] for idx in range(len(flat[0]))] if flat else []
            for (a, t), (b, u) in iproduct(enumerate(space.basis), repeat=2):
                for op, raw in enumerate(_reference_ops(field, t, u)[kind]()):
                    coords = linalg.solve(field, columns, _flat(raw))
                    assert coords == alg.mul_basis(op, a, b), (field, name, kind, op, a, b)
            checked.add(kind)
    assert checked == set(_reference_ops(Q, (), ()))


def test_escaping_product_raises_closure_error(monkeypatch):
    A = builtin("sl2")
    n = A.dim

    def identity(f, t, u):  # in the form the rules receive: sparse {row: {col: c}} or dense rows
        if isinstance(t[0], dict):
            return ({i: {i: f.one} for i in range(n)},)
        return (linalg.mat_identity(f, n),)

    spec = opspace._KINDS["derivations"]
    monkeypatch.setitem(opspace._KINDS, "derivations",
                        dataclasses.replace(spec, ops=(("bracket", identity),)))
    with pytest.raises(ClosureError, match=re.escape("escaped the span at basis pair (0, 0)")):
        derivations(A)


def test_self_check_catches_a_law_missing_from_the_rows(monkeypatch):
    compatibility = laws.compatibility("d", "D")
    law_rows = laws.law_rows

    def rows_without_compatibility(A, law, blocks):
        return iter(()) if law == compatibility else law_rows(A, law, blocks)

    A = builtin("leibniz_2dim_nonlie")
    full = biderivations(A).dim
    monkeypatch.setattr(laws, "law_rows", rows_without_compatibility)
    with pytest.raises(ClosureError, match="computed biderivations basis tuple violates compatibility"):
        biderivations(A)
    monkeypatch.setattr(opspace, "defining_defects", lambda *args: iter(()))
    assert biderivations(A).dim > full  # the space grows without the law


# each kind's defining laws as the hand-written predicates of the oracle, on
# (tuple, product table, bracket table, p)
_ORACLE_LAWS = {
    "derivations": lambda t, prod, br, p: oracle.is_derivation(t[0], br, p),
    "antiderivations": lambda t, prod, br, p: oracle.is_antiderivation(t[0], br, p),
    "biderivations": lambda t, prod, br, p: (
        oracle.is_derivation(t[0], br, p) and oracle.is_antiderivation(t[1], br, p)
        and oracle.bider_compatible(t[0], t[1], br, p)),
    "bimultipliers": lambda t, prod, br, p: (
        oracle.is_left_multiplier(t[0], prod, p) and oracle.is_right_multiplier(t[1], prod, p)
        and oracle.bim_mixed_ok(t[0], t[1], prod, p)),
    "multipliers": lambda t, prod, br, p: oracle.is_left_multiplier(t[0], prod, p),
    "usga-poisson": lambda t, prod, br, p: (
        oracle.is_left_multiplier(t[0], prod, p) and oracle.is_right_multiplier(t[1], prod, p)
        and oracle.bim_mixed_ok(t[0], t[1], prod, p)
        and oracle.is_derivation(t[2], br, p) and oracle.is_derivation(t[2], prod, p)
        and oracle.v1_ok(t[0], t[2], br, prod, p) and oracle.v2_ok(t[1], t[2], br, prod, p)),
    "usga-cpoisson": lambda t, prod, br, p: (
        oracle.is_left_multiplier(t[0], prod, p)
        and oracle.is_derivation(t[1], br, p) and oracle.is_derivation(t[1], prod, p)
        and oracle.v1_ok(t[0], t[1], br, prod, p)),
}


@pytest.mark.parametrize("p", [3, 5])
def test_self_check_agrees_with_the_oracle_on_dense_and_mutated_tuples(p):
    # random dense tuples, the basis tuples, and each basis tuple with one
    # entry changed: the evaluator passes exactly those the oracle passes
    field, rng = GF(p), random.Random(p)
    verdicts = Counter()
    for name, A, _ in catalog_algebras(field):
        prod, *rest = oracle.tables(A)
        br = rest[0] if rest else prod
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except (NotAssociative, NotCommutative, NotCommutativePoisson, NotPoisson,
                    OpArityMismatch):
                continue  # the base is outside the kind's variety
            n, width = A.dim, len(space.components)
            tuples = [tuple([[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                            for _ in range(width))
                      for _ in range(3)]
            for tup in space.basis:
                mutated = [[list(row) for row in M] for M in tup]
                b, r, c = rng.randrange(width), rng.randrange(n), rng.randrange(n)
                mutated[b][r][c] = (mutated[b][r][c] + rng.randrange(1, p)) % p
                tuples += [tup, tuple(mutated)]
            for tup in tuples:
                holds = next(defining_defects(kind, A, tup), None) is None
                assert holds == _ORACLE_LAWS[kind](tup, prod, br, p), (name, kind, tup)
                verdicts[holds] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_sparse_paths_do_no_work_on_the_zeros_of_an_abelian_base(monkeypatch):
    # counts of operations, not times: a return to dense vectors fails here
    field = GF(5)
    A = builtin("abelian(5)", field)
    from_products, reads = Algebra.from_products.__func__, []

    def counting_from_products(cls, field, dim, names, product, labels=None):
        def rule(op, i, j):
            coords = product(op, i, j)
            reads.append(len(coords))
            return coords

        return from_products(cls, field, dim, names, rule, labels)

    monkeypatch.setattr(Algebra, "from_products", classmethod(counting_from_products))
    space = biderivations(A)
    assert len(reads) == space.dim ** 2
    # the induced tensor reads only the nonzero coordinates of each product
    assert sum(reads) == sum(len(op.sorted_entries()) for op in space.algebra.ops) > 0

    counts = Counter()
    for name in ("mul", "add"):
        def counting(self, a, b, name=name, orig=getattr(type(field), name)):
            counts[name] += 1
            return orig(self, a, b)

        monkeypatch.setattr(type(field), name, counting)
    # every product of an abelian base is empty, so the self-check adds and
    # multiplies nothing
    for tup in space.basis:
        assert next(defining_defects("biderivations", A, tup), None) is None
    assert counts == Counter()
    biderivations(A)
    assert counts["mul"] > 0  # the counters count


def test_evaluator_refuses_a_missing_or_misshapen_operator():
    A = builtin("leibniz_2dim_nonlie")
    d = [[F(1), F(0)], [F(0), F(0)]]
    big = [[F(0)] * 3 for _ in range(3)]
    for tup in ((d,), (big, d)):  # no D; a 3x3 d on a 2-dimensional base
        with pytest.raises(ShapeMismatch):
            next(defining_defects("biderivations", A, tup), None)
    B = builtin("abelian(1)")
    l1, l4 = dict(laws.LEIBNIZ)["L1"], dict(laws.LEIBNIZ)["L4"]
    for law, operators in ((l1, {"l": [d]}), (l1, {"r": [big]}), (l4, {"r": [d, d]})):
        with pytest.raises(ShapeMismatch):
            next(laws.failures(A, [law], operators, B)(law), None)


def test_coords_refuse_a_tuple_of_the_wrong_shape():
    space = biderivations(builtin("abelian(2)"))
    E11, zero = [[F(1), F(0)], [F(0), F(0)]], [[F(0)] * 2 for _ in range(2)]
    big = [[F(1), F(0), F(0)], [F(0)] * 3, [F(0)] * 3]
    assert space.coords((E11, zero)) == [1] + [0] * (space.dim - 1)
    for tup in ((big, zero), (E11,)):  # neither aliases (E11, 0)
        with pytest.raises(ShapeMismatch):
            space.coords(tup)
        with pytest.raises(ShapeMismatch):
            space.matrix_of([tup])


# -- inner embeddings --------------------------------------------------------------


def test_inner_embedding_abelian_is_zero():
    emb = inner_embedding(biderivations(builtin("abelian(2)")))
    assert linalg.mat_is_zero(Q, emb.matrix)
    assert emb.is_homomorphism


@pytest.mark.parametrize("name", ("leibniz_2dim_nonlie", "sl2", "heisenberg"))
def test_inner_embedding_into_biderivations_is_hom(name):
    emb = inner_embedding(biderivations(builtin(name)))
    assert emb.is_homomorphism


def test_inner_embedding_poisson_zero_map():
    emb = inner_embedding(poisson_usga(builtin("poisson_abelian(2)")))
    assert linalg.mat_is_zero(Q, emb.matrix)


@pytest.mark.parametrize(
    "name,kind",
    [
        ("assoc_triangular", "bimultipliers"),
        ("assoc_trunc_poly", "multipliers"),
        ("poisson_triangular", "usga-poisson"),
        ("poisson_trunc_poly", "usga-cpoisson"),
        ("cpoisson_solv2", "usga-cpoisson"),
    ],
)
def test_inner_embeddings_are_homomorphisms(name, kind):
    emb = inner_embedding(space_of_kind(builtin(name), kind))
    assert emb.is_homomorphism


def test_inner_tuple_signs():
    # for the bi-adjoint convention the first slot is minus right bracket
    A = builtin("leibniz_2dim_nonlie")
    t = inner_tuple(A, "biderivations", 1)
    assert t[0] == [[F(0), F(-1)], [F(0), F(0)]]  # -ad_{e2}
    assert t[1] == [[F(0), F(1)], [F(0), F(0)]]  # Ad_{e2}


# -- commutation and module action ---------------------------------------------------


def test_bim_commutation_line_holds():
    assert check_bim_commutation(builtin("poisson_abelian(1)")).holds


def test_bim_commutation_unital_holds():
    # trivial annihilator case
    assert check_bim_commutation(builtin("assoc_trunc_poly")).holds


def test_bim_commutation_plane_fails_with_witness():
    V = builtin("poisson_abelian(2)")
    rep = check_bim_commutation(V)
    assert not rep.holds
    s, t = rep.witness
    bim = bimultipliers(V)
    f = V.field
    lhs = linalg.mat_mul(f, bim.basis[s][0], bim.basis[t][1])
    rhs = linalg.mat_mul(f, bim.basis[t][1], bim.basis[s][0])
    assert not linalg.mat_eq(f, lhs, rhs)


# -- frozen actor space of the line ---------------------------------------------------


def test_usga_line_product_table():
    space = poisson_usga(builtin("poisson_abelian(1)"))
    alg = space.as_algebra()
    assert alg.ops[1].sorted_entries() == []  # zero bracket
    got = [(ijk, str(c)) for ijk, c in alg.ops[0].sorted_entries()]
    assert got == [
        ((0, 0, 0), "1"),
        ((0, 2, 2), "1"),
        ((1, 1, 1), "1"),
        ((2, 1, 2), "1"),
    ]
    assert check_identity(alg, "poisson").holds


def test_usga_plane_bracket_not_skew():
    alg = poisson_usga(builtin("poisson_abelian(2)")).as_algebra()
    rep = check_identity(alg, "anticommutative")
    assert not rep.holds


def test_usga_c_of_line_is_poisson_actor_case():
    space = comm_poisson_usga(builtin("poisson_abelian(1)"))
    assert space.dim == 2
    alg = space.as_algebra()
    assert alg.ops[1].sorted_entries() == []  # zero bracket
    assert check_identity(alg, "commutative").holds
    assert check_identity(alg, "poisson").holds


# -- oracle agreement over GF(3) -------------------------------------------------------


_F3_CASES = [
    ("derivations", "abelian(1)"),
    ("derivations", "abelian(2)"),
    ("derivations", "leibniz_2dim_nonlie"),
    ("antiderivations", "leibniz_2dim_nonlie"),
    ("antiderivations", "lie_2dim_nonabelian"),
    ("biderivations", "leibniz_2dim_nonlie"),
    ("biderivations", "lie_2dim_nonabelian"),
    ("multipliers", "assoc_trunc_poly"),
    ("bimultipliers", "assoc_triangular"),
    ("usga-cpoisson", "cpoisson_solv2"),
]


@pytest.mark.parametrize("kind,name", _F3_CASES)
def test_oracle_counts_match_nullspace_dims(kind, name):
    A = builtin(name, GF(3))
    space = space_of_kind(A, kind)
    assert oracle.count_space(kind, A, 3) == 3 ** space.dim


def test_oracle_usga_poisson_triangular():
    A = builtin("poisson_triangular", GF(3))
    space = poisson_usga(A)
    assert oracle.count_space("usga-poisson", A, 3) == 3 ** space.dim


# -- serialization -----------------------------------------------------------------------


def test_space_json_contains_algebra_ops():
    space = derivations(builtin("leibniz_2dim_nonlie"))
    data = space.to_json_dict()
    assert data["dim"] == 2
    assert data["kind"] == "derivations"
    assert "ops" in data
    assert len(data["basis"]) == 2
