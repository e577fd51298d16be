import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from algact import algebra, linalg
from algact.algebra import (
    IDENTITY_TAGS,
    MAX_FILE_DIM,
    Algebra,
    annihilator,
    centers,
    check_identity,
    is_homomorphism,
    leibniz_kernel,
    product_subspace,
)
from algact.catalog import builtin, catalog_algebras
from algact.errors import (
    DimensionMismatch,
    InputError,
    OpArityMismatch,
    OpIndexOutOfRange,
)
from algact.fields import GF, Q

import oracle


def F(x):
    return Fraction(x)


@pytest.fixture
def leib2():
    return builtin("leibniz_2dim_nonlie")


@pytest.fixture
def abelian2():
    return builtin("abelian(2)")


# -- multiply -----------------------------------------------------------------


def test_multiply_abelian_is_zero(abelian2):
    assert abelian2.multiply(0, abelian2.unit(0), abelian2.unit(1)) == [F(0), F(0)]


def test_multiply_reads_structure_constants(leib2):
    assert leib2.multiply(0, leib2.unit(1), leib2.unit(1)) == [F(1), F(0)]


def test_multiply_zero_argument(leib2):
    assert leib2.multiply(0, leib2.zero_vec(), leib2.unit(1)) == [F(0), F(0)]


def test_multiply_validates_shapes(leib2):
    with pytest.raises(OpIndexOutOfRange):
        leib2.multiply(1, leib2.unit(0), leib2.unit(0))
    with pytest.raises(DimensionMismatch):
        leib2.multiply(0, [F(1)], leib2.unit(0))


@settings(max_examples=50)
@given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
def test_multiply_bilinear(vals):
    A = builtin("leibniz_2dim_nonlie")
    a, b = F(vals[0]), F(vals[1])
    x = [F(vals[2]), F(vals[3])]
    xp = [F(vals[4]), F(vals[5])]
    y = [F(1), F(2)]
    lhs = A.multiply(0, [a * u + b * v for u, v in zip(x, xp)], y)
    rhs = [
        a * p + b * q
        for p, q in zip(A.multiply(0, x, y), A.multiply(0, xp, y))
    ]
    assert lhs == rhs


# -- identity checking ---------------------------------------------------------


def test_check_identity_reports_the_exact_rational_defect():
    # e0 e0 = 1/2 e1, e1 e0 = 1/3 e0: at (0, 0, 0),
    # (e0 e0) e0 - e0 (e0 e0) = 1/2 e1 e0 - 1/2 e0 e1 = 1/6 e0, and at (0, 1)
    # e0 e1 - e1 e0 = -1/3 e0, though the evaluation runs on e0 e0 = 3 e1,
    # e1 e0 = 2 e0
    A = Algebra.from_entries(Q, 2, [{(0, 0, 1): Fraction(1, 2), (1, 0, 0): Fraction(1, 3)}])
    rep = check_identity(A, "associative")
    assert (rep.holds, rep.witness, rep.defect) == (False, (0, 0, 0), [Fraction(1, 6), 0])
    rep = check_identity(A, "commutative")
    assert (rep.holds, rep.witness, rep.defect) == (False, (0, 1), [Fraction(-1, 3), 0])
    assert all(type(c) is Fraction for c in rep.defect)


def test_abelian_two_op_is_poisson():
    A = builtin("poisson_abelian(2)")
    assert check_identity(A, "poisson").holds


def test_leibniz2_is_leibniz_not_lie(leib2):
    assert check_identity(leib2, "leibniz_right").holds
    rep = check_identity(leib2, "lie")
    assert not rep.holds
    assert rep.failed_part == "anticommutative"
    assert rep.witness == (1, 1)
    # defect 2 e1: re-evaluating the witness reproduces it
    i, j = rep.witness
    redo = linalg.vec_add(
        leib2.field, leib2.mul_basis(0, i, j), leib2.mul_basis(0, j, i)
    )
    assert redo == rep.defect
    assert redo == [F(2), F(0)]


def test_poisson_tag_requires_two_ops(leib2):
    with pytest.raises(OpArityMismatch):
        check_identity(leib2, "poisson")


def test_from_entries_refuses_three_operations():
    with pytest.raises(OpArityMismatch):
        Algebra.from_entries(Q, 1, [{}, {}, {(0, 0, 0): 1}])


def test_from_entries_needs_one_name_per_operation():
    with pytest.raises(OpArityMismatch):
        Algebra.from_entries(Q, 1, [{}, {(0, 0, 0): 1}], names=["mul"])
    assert [op.name for op in Algebra.from_entries(Q, 1, [{}, {}]).ops] == ["mul", "bracket"]


def test_usga_cpoisson_of_plane_not_commutative():
    from algact.opspace import comm_poisson_usga

    alg = comm_poisson_usga(builtin("poisson_abelian(2)")).as_algebra()
    assert not check_identity(alg, "commutative").holds


def test_poisson_catalog_entries_pass():
    for name in ("poisson_triangular", "poisson_trunc_poly", "cpoisson_solv2"):
        assert check_identity(builtin(name), "poisson").holds, name


def test_jordan_commutative_associative_passes():
    assert check_identity(builtin("assoc_trunc_poly"), "jordan").holds


def test_jordan_noncommutative_fails_commutativity():
    rep = check_identity(builtin("assoc_triangular"), "jordan")
    assert not rep.holds and rep.failed_part == "commutative"


def test_jordan_formal_failure():
    # commutative but not Jordan: e1*e1 = e2, e2*e2 = e1, e1*e2 = 0
    A = Algebra.from_entries(Q, 2, [{(0, 0, 1): 1, (1, 1, 0): 1}])
    assert check_identity(A, "commutative").holds
    rep = check_identity(A, "jordan")
    assert not rep.holds
    assert rep.failed_part == "jordan"


def test_jordan_sl2_symmetrized_product():
    # u . v = (uv + vu)/2 on 2x2 trace-zero-plus-identity span: spot check
    # with the 2-dim algebra of diagonal matrices, which is Jordan
    A = Algebra.from_entries(Q, 2, [{(0, 0, 0): 1, (1, 1, 1): 1}])
    assert check_identity(A, "jordan").holds


def test_witness_is_lexicographically_first():
    # two failures: (0,1) and (1,0); report must pick (0,1)
    A = Algebra.from_entries(Q, 2, [{(0, 1, 0): 1, (1, 0, 1): 1}])
    rep = check_identity(A, "commutative")
    assert rep.witness == (0, 1)


def _random_op(rng, p, dim, shape):
    """Seeded sparse random structure constants over GF(p); ``shape`` is
    "any", "alternating" or "symmetric"."""
    entries = {}
    for i, j, k in product(range(dim), repeat=3):
        if rng.randrange(2 * dim) or (shape != "any" and i > j):
            continue
        if shape == "alternating" and i == j:
            continue
        entries[(i, j, k)] = c = rng.randrange(1, p)
        if shape != "any":
            entries[(j, i, k)] = c if shape == "symmetric" else p - c
    return entries


def _oracle_algebras(p):
    """Catalog algebras over GF(p) and seeded random ones with one or two
    operations.  An alternating bracket reaches the Jacobi check; with two
    operations its product is redrawn until associative, which reaches the
    Poisson compatibility check."""
    field = GF(p)
    out = [A for _, A, _ in catalog_algebras(field)]
    rng = random.Random(1000 + p)
    for num_ops, dim, shape in product((1, 2), (1, 2, 3), ("any", "alternating")):
        for _ in range(6):
            bracket = _random_op(rng, p, dim, shape)
            while True:
                ops = [_random_op(rng, p, dim, "any"), bracket][-num_ops:]
                A = Algebra.from_entries(field, dim, ops)
                if num_ops == 1 or shape == "any" or oracle.identity_report(A, "associative")[0]:
                    break
            out.append(A)
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_check_identity_matches_oracle(p):
    parts = Counter()
    for A in _oracle_algebras(p):
        for tag in IDENTITY_TAGS:
            if tag == "poisson" and A.num_ops != 2:
                continue
            rep = check_identity(A, tag)
            holds, part, witness, defect = oracle.identity_report(A, tag)
            if tag == "jordan" and holds:
                continue  # the cubic law: test_jordan_matches_pointwise_oracle
            assert (rep.holds, rep.failed_part, rep.witness) == (holds, part, witness), (A, tag)
            assert defect == (None if rep.defect is None else tuple(rep.defect))
            parts[tag, part] += 1
    # every tag holds somewhere and fails somewhere at each of its parts
    for tag, tag_parts in oracle.IDENTITY_PARTS.items():
        for part in tag_parts + (None,) * (tag != "jordan"):
            assert parts[tag, part] > 0, (tag, part, parts)


def test_jordan_matches_pointwise_oracle():
    field, rng = GF(5), random.Random(2005)
    algebras = [A for _, A, _ in catalog_algebras(field) if A.dim <= 2]
    algebras += [Algebra.from_entries(field, dim, [_random_op(rng, 5, dim, shape)])
                 for dim in (1, 2) for shape in ("any", "symmetric") for _ in range(15)]
    verdicts = Counter()
    for A in algebras:
        holds = check_identity(A, "jordan").holds
        assert holds == oracle.jordan_holds_pointwise(A), A
        verdicts[holds, check_identity(A, "commutative").holds] += 1
    # both verdicts occur among commutative products
    assert verdicts[True, True] > 0 and verdicts[False, True] > 0, verdicts


def test_hash_agrees_with_eq_across_operation_names():
    # __eq__ ignores operation names, so the hash must too
    A = Algebra.from_entries(Q, 1, [{(0, 0, 0): 1}], names=["mul"])
    B = Algebra.from_entries(Q, 1, [{(0, 0, 0): 1}], names=["bracket"])
    assert A == B and hash(A) == hash(B)
    assert len({A, B}) == 1


# -- structural subspaces -------------------------------------------------------


def test_leibniz_kernel_of_lie_is_zero():
    assert leibniz_kernel(builtin("sl2")) == []
    assert leibniz_kernel(builtin("abelian(2)")) == []


def test_leibniz_kernel_of_leib2(leib2):
    assert leibniz_kernel(leib2) == [[F(1), F(0)]]


def test_centers_abelian(abelian2):
    c = centers(abelian2)
    assert c.zl == c.zr == c.z == [[F(1), F(0)], [F(0), F(1)]]


def test_centers_leib2(leib2):
    c = centers(leib2)
    assert c.zl == [[F(1), F(0)]]
    assert c.zr == [[F(1), F(0)]]
    assert c.z == [[F(1), F(0)]]


def test_centers_sl2_trivial():
    c = centers(builtin("sl2"))
    assert c.z == []
    assert c.zl == [] and c.zr == []


def test_center_is_intersection_by_membership():
    for name in ("heisenberg", "leibniz_2dim_nonlie"):
        A = builtin(name)
        c = centers(A)
        zl, zlp = linalg.span_basis(A.field, c.zl, A.dim)
        zr, zrp = linalg.span_basis(A.field, c.zr, A.dim)
        for z in c.z:
            assert linalg.coords_in_span(A.field, zl, zlp, z) is not None
            assert linalg.coords_in_span(A.field, zr, zrp, z) is not None


def test_lie_left_right_centers_coincide():
    for name in ("sl2", "heisenberg", "lie_2dim_nonabelian"):
        c = centers(builtin(name))
        assert c.zl == c.zr, name


def test_right_center_is_ideal():
    # [z, a] stays in the right center for catalog algebras
    for name in ("leibniz_2dim_nonlie", "sl2", "heisenberg", "lie_2dim_nonabelian"):
        A = builtin(name)
        c = centers(A)
        basis, piv = linalg.span_basis(A.field, c.zr, A.dim)
        for z in c.zr:
            for a in range(A.dim):
                v = A.multiply(A.bracket_op, z, A.unit(a))
                assert linalg.coords_in_span(A.field, basis, piv, v) is not None, name


def test_annihilator_abelian_is_everything():
    V = builtin("poisson_abelian(1)")
    assert len(annihilator(V)) == 1


def test_annihilator_unital_is_zero():
    assert annihilator(builtin("assoc_unital_1dim")) == []
    assert annihilator(builtin("assoc_trunc_poly")) == []


def test_product_subspace():
    assert product_subspace(builtin("abelian(2)"), 0) == []
    assert product_subspace(builtin("leibniz_2dim_nonlie"), 0) == [[F(1), F(0)]]
    assert len(product_subspace(builtin("assoc_unital_1dim"), 0)) == 1
    # perfect: [sl2, sl2] = sl2
    assert len(product_subspace(builtin("sl2"), 0)) == 3


# -- homomorphisms ---------------------------------------------------------------


def test_identity_map_is_homomorphism(leib2):
    eye = linalg.mat_identity(Q, 2)
    assert is_homomorphism(eye, leib2, leib2).holds


def test_zero_map_is_homomorphism(leib2, abelian2):
    zero = linalg.mat_zero(Q, 2, 2)
    assert is_homomorphism(zero, leib2, abelian2).holds


def test_non_homomorphism_reports_witness(leib2, abelian2):
    eye = linalg.mat_identity(Q, 2)
    rep = is_homomorphism(eye, leib2, abelian2)
    assert not rep.holds
    assert rep.witness == (0, 1, 1)


def test_is_homomorphism_checks_every_row_of_the_matrix():
    A = builtin("lie_2dim_nonabelian", GF(3))
    with pytest.raises(DimensionMismatch):
        is_homomorphism([[1, 0], [0]], A, A)


def test_homomorphism_search_refuses_a_field_that_is_not_prime():
    A = builtin("lie_2dim_nonabelian")
    with pytest.raises(InputError, match="prime field"):
        algebra.homomorphisms(A, A)


def test_homomorphism_search_prunes_inconsistent_equations(monkeypatch):
    # A = <e0 e0 = e2, e1 e1 = e2> into B = <e0 e0 = e1>: once phi(e0) and
    # phi(e1) are fixed, phi(e2) must equal both phi(e0)^2 and phi(e1)^2,
    # which no column can where those differ.  The search prunes there and
    # finds what filtering every matrix finds
    field = GF(3)
    A = Algebra.from_entries(field, 3, [{(0, 0, 2): 1, (1, 1, 2): 1}])
    B = Algebra.from_entries(field, 2, [{(0, 0, 1): 1}])
    rref, pruned = linalg.rref, []

    def spy(f, rows):
        R, pivots = rref(f, rows)
        pruned.append(bool(pivots) and pivots[-1] >= len(rows[0]) - B.dim)
        return R, pivots

    monkeypatch.setattr(linalg, "rref", spy)
    found = sorted(algebra.homomorphisms(A, B))
    walk = []
    for flat in product(range(3), repeat=6):
        cols = [list(flat[2 * j:2 * j + 2]) for j in range(3)]
        if is_homomorphism(linalg.mat_from_cols(cols, 2), A, B).holds:
            walk.append(cols)
    assert found == sorted(walk) and len(found) == 9
    assert sum(pruned) > 0


def test_algebra_json_roundtrip(leib2):
    data = leib2.to_json_dict()
    back = Algebra.from_json_dict(data)
    assert back == leib2
    assert back.to_json_dict() == data


def test_algebra_json_roundtrip_gf():
    A = builtin("poisson_triangular", GF(7))
    assert Algebra.from_json_dict(A.to_json_dict()) == A


def test_loaded_dimension_is_capped():
    assert MAX_FILE_DIM == 128
    data = {"field": "Q", "dim": 129, "ops": [{"name": "mul", "entries": []}]}
    with pytest.raises(InputError):
        Algebra.from_json_dict(data)
    assert Algebra.from_json_dict({**data, "dim": 128}).dim == 128


@pytest.mark.parametrize("first,second", [("0", "1"), ("1", "0")])
def test_a_repeated_structure_constant_is_refused_whatever_its_values(first, second):
    # a zero first copy is a duplicate too, not an empty slot
    with pytest.raises(InputError, match="duplicate"):
        Algebra.from_entries(GF(3), 1, [[((0, 0, 0), first), ((0, 0, 0), second)]])


def test_an_empty_algebra_at_the_file_limit_loads_in_little_memory():
    # the structure constants are stored sparse: nothing grows with dim^3
    data = {"field": "Q", "dim": MAX_FILE_DIM, "ops": [{"entries": []}, {"entries": []}]}
    tracemalloc.start()
    try:
        A = Algebra.from_json_dict(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.dim == MAX_FILE_DIM and A.num_ops == 2
    assert peak < 1_000_000
