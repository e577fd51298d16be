import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from algact import actions, algebra, laws, linalg, opspace
from algact.actions import (
    VARIETIES,
    ActionData,
    DEFAULT_BUDGET,
    SplitExtension,
    action_to_morphism,
    enumerate_acting_morphisms,
    enumerate_actions,
    extract_action,
    is_acting_morphism,
    morphism_to_action,
    semidirect,
    validate_action,
    weak_actor,
    zero_action,
    _homomorphisms,
)
from algact.algebra import Algebra, check_identity
from algact.catalog import (
    biadjoint_action,
    builtin,
    catalog_actions,
    catalog_algebras,
    inner_action,
)
from algact.errors import (
    AlgactError,
    BudgetExceeded,
    InputError,
    InvalidAction,
    KernelMismatch,
    NotAHomomorphism,
    NotSplit,
    OpArityMismatch,
    ShapeMismatch,
)
from algact.fields import GF, Q
from algact.opspace import space_of_kind

import oracle
from test_metamorphic import _rebase
from test_opspace import _unimodular
from test_report_digest import _extension_reports


def F(x):
    return Fraction(x)


VARIETY_TAG = {
    "leibniz": ("leibniz_right",),
    "associative": ("associative",),
    "poisson": ("poisson",),
    "cpoisson": ("poisson", "commutative"),
}


def total_passes_variety(total, variety):
    return all(check_identity(total, tag).holds for tag in VARIETY_TAG[variety])


# -- validation ------------------------------------------------------------------


def test_zero_action_validates_everywhere():
    for variety, names in (
        ("leibniz", ("abelian(2)", "leibniz_2dim_nonlie")),
        ("poisson", ("poisson_abelian(2)", "poisson_triangular")),
        ("cpoisson", ("poisson_abelian(1)", "cpoisson_solv2")),
    ):
        for nb in names:
            for nx in names:
                act = zero_action(variety, builtin(nb), builtin(nx))
                assert validate_action(act).passed


def test_biadjoint_action_is_valid_including_l6():
    A = builtin("leibniz_2dim_nonlie")
    rep = validate_action(biadjoint_action(A))
    assert rep.passed
    assert [c.label for c in rep.conditions] == ["L1", "L2", "L3", "L4", "L5", "L6"]


def test_metere_action_fails_exactly_l6():
    act = builtin("metere_action")
    rep = validate_action(act)
    assert rep.failed_labels() == ["L6"]
    cond = rep.condition("L6")
    assert cond.witness == (0, 0, 0)
    assert cond.defect == [F(2)]
    with pytest.raises(KeyError):
        rep.condition("L9")


def test_poisson_inner_action_valid():
    for name in ("poisson_triangular", "poisson_trunc_poly"):
        act = inner_action(builtin(name), "poisson")
        assert validate_action(act).passed, name


def test_invalid_poisson_action_witnessed():
    # a random bracket action on the line against a unital product fails P3
    P = builtin("poisson_trunc_poly")
    V = builtin("poisson_abelian(1)")
    one = Q.one
    k = [[[one]], [[Q.zero]]]
    act = ActionData("poisson", P, V, {"k": k})
    rep = validate_action(act)
    assert not rep.passed


def test_operation_count_must_match_the_variety_exactly():
    # validation and the semidirect product agree: a Leibniz action of a
    # two-operation algebra is refused when it is built, not validated
    P = builtin("poisson_abelian(1)", GF(3))
    with pytest.raises(ShapeMismatch, match="operation count"):
        validate_action(zero_action("leibniz", P, P))
    with pytest.raises(ShapeMismatch, match="operation count"):
        zero_action("poisson", builtin("abelian(1)", GF(3)), P)


def test_action_shape_validation():
    A = builtin("abelian(2)")
    B = builtin("abelian(1)")
    with pytest.raises(ShapeMismatch):
        ActionData("leibniz", A, B, {"l": [[[F(1)]]]})  # l must be two 1x1 matrices
    with pytest.raises(ShapeMismatch):
        ActionData("leibniz", A, B, {"k": [[[F(1)]], [[F(0)]]]})
    with pytest.raises(ShapeMismatch):
        ActionData("cpoisson", builtin("poisson_abelian(1)"),
                   builtin("poisson_abelian(1)"), {"r": [[[F(1)]]]})
    with pytest.raises(ShapeMismatch, match="different fields"):
        ActionData("leibniz", B, builtin("abelian(1)", GF(3)))


@pytest.mark.parametrize("variety", VARIETIES)
def test_condition_lists_read_off_the_weak_actor_are_the_papers(variety):
    # the same labels in the same order as the hand transcription, and each
    # law the same multiset of signed terms
    derived, reference = actions._VARIETIES[variety].conditions, oracle.CONDITIONS[variety]
    assert [label for label, _ in derived] == [label for label, _ in reference]
    for (label, law), (_, ref) in zip(derived, reference):
        assert Counter(law) == Counter(ref), label


def test_only_the_acting_law_is_written_by_hand():
    # every other condition is read off the weak actor's record, by label
    # or by (operation, component)
    by_hand = {"leibniz": {"L6": laws.L6}, "associative": {"A4": laws.MIDDLE},
               "poisson": {"P1.4": laws.MIDDLE}}
    for name, kept in by_hand.items():
        sources = actions._VARIETIES[name].sources
        assert {label: s for label, s in sources if not isinstance(s[0], str)} == kept, name


# -- semidirect -------------------------------------------------------------------


def test_semidirect_zero_action_is_block_diagonal():
    B = builtin("leibniz_2dim_nonlie")
    X = builtin("abelian(2)")
    ext = semidirect(zero_action("leibniz", B, X))
    total = ext.total
    assert total.dim == 4
    # no cross terms: every structure constant stays inside its block
    for (i, j, k), _ in total.ops[0].sorted_entries():
        assert (i < 2 and j < 2 and k < 2) or (i >= 2 and j >= 2 and k >= 2)
    assert check_identity(total, "leibniz_right").holds


def test_semidirect_biadjoint_is_leibniz():
    A = builtin("leibniz_2dim_nonlie")
    ext = semidirect(biadjoint_action(A))
    assert ext.total.dim == 4
    assert check_identity(ext.total, "leibniz_right").holds
    assert ext.validate() == []


def test_semidirect_poisson_inner_passes_poisson():
    act = inner_action(builtin("poisson_triangular"), "poisson")
    ext = semidirect(act)
    assert check_identity(ext.total, "poisson").holds
    assert ext.validate() == []


def test_semidirect_refuses_invalid():
    with pytest.raises(InvalidAction) as exc:
        semidirect(builtin("metere_action"))
    assert exc.value.report.failed_labels() == ["L6"]


def test_semidirect_cpoisson_total_is_commutative():
    act = inner_action(builtin("poisson_trunc_poly"), "cpoisson")
    ext = semidirect(act)
    assert check_identity(ext.total, "poisson").holds
    assert check_identity(ext.total, "commutative").holds


# -- extraction and roundtrips ------------------------------------------------------


def test_extract_semidirect_roundtrip_catalog():
    for name, act in catalog_actions(Q):
        ext = semidirect(act)
        back = extract_action(ext, act.variety)
        assert back == act, name


def test_extract_direct_product_is_zero_action():
    B = builtin("poisson_triangular")
    X = builtin("poisson_abelian(2)")
    ext = semidirect(zero_action("poisson", B, X))
    back = extract_action(ext, "poisson")
    assert back == zero_action("poisson", B, X)


def test_extract_biadjoint_recovers_bracket_multiplications():
    A = builtin("leibniz_2dim_nonlie")
    act = biadjoint_action(A)
    back = extract_action(semidirect(act), "leibniz")
    assert back.operators == act.operators


def test_extract_rejects_non_split():
    act = zero_action("leibniz", builtin("abelian(1)"), builtin("abelian(1)"))
    ext = semidirect(act)
    broken = SplitExtension(ext.total, ext.kernel_inj, ext.retraction,
                            [[F(0)], [F(0)]])
    with pytest.raises(NotSplit):
        extract_action(broken, "leibniz")


def test_extract_rejects_wrong_kernel():
    act = zero_action("leibniz", builtin("abelian(1)"), builtin("abelian(1)"))
    ext = semidirect(act)
    broken = SplitExtension(ext.total, [[F(1)], [F(0)]], ext.retraction, ext.section)
    with pytest.raises(KernelMismatch):
        extract_action(broken, "leibniz")


# the identity of the total algebra of a split extension in each variety
TOTAL_IDENTITY = {"leibniz": "leibniz_right", "associative": "associative",
                  "poisson": "poisson", "cpoisson": "poisson"}


def test_extract_refuses_exactly_what_validate_reports():
    # a drift guard on every extension of the extension digest corpus: the
    # split decision is validate()'s list, and only the variety checks follow.
    # The total algebra is the semidirect product of the action it returns,
    # so it lies in the variety exactly when B and X do and the action
    # validates
    def check(E):
        problems = E.validate()
        for variety in VARIETIES:
            try:
                action = extract_action(E, variety)
            except AlgactError as exc:
                if problems:
                    assert isinstance(exc, (NotSplit, KernelMismatch)), exc
                    assert str(exc) == problems[0]
                else:
                    assert "operation count" in str(exc) or "not commutative" in str(exc), exc
                continue
            assert problems == [], (variety, problems)
            total, *factors = (check_identity(A, TOTAL_IDENTITY[variety]).holds
                               for A in (E.total, action.acting, action.kernel))
            assert total == (all(factors) and validate_action(action).passed), variety

    _extension_reports(check)


def test_extract_builds_the_base_and_kernel_algebras_once(monkeypatch):
    # the split check hands extraction the B and X it built: one pullback each
    E = semidirect(biadjoint_action(builtin("sl2")))
    pullback, calls = SplitExtension._pullback, []

    def counting(self, *args):
        calls.append(args[1])
        return pullback(self, *args)

    monkeypatch.setattr(SplitExtension, "_pullback", counting)
    action = extract_action(E, "leibniz")
    assert sorted(calls) == [3, 3]
    assert action.acting == action.kernel == builtin("sl2")


def test_extract_from_permuted_basis_extension():
    # conjugating the total algebra by a basis permutation gives an
    # isomorphic split extension; extraction must recover the same action
    act = biadjoint_action(builtin("leibniz_2dim_nonlie"))
    ext = semidirect(act)
    n = ext.total.dim
    sigma = [2, 0, 3, 1]  # images of the new basis vectors
    M = [[F(1) if sigma[j] == i else F(0) for j in range(n)] for i in range(n)]
    Minv = [[M[j][i] for j in range(n)] for i in range(n)]
    entries = {}
    for i in range(n):
        for j in range(n):
            v = ext.total.multiply(0, linalg.mat_col(M, i), linalg.mat_col(M, j))
            for k, c in enumerate(linalg.mat_vec(Q, Minv, v)):
                if c:
                    entries[(i, j, k)] = c
    twisted_total = Algebra.from_entries(Q, n, [entries], names=["bracket"])
    twisted = SplitExtension(
        twisted_total,
        linalg.mat_mul(Q, Minv, ext.kernel_inj),
        linalg.mat_mul(Q, ext.retraction, M),
        linalg.mat_mul(Q, Minv, ext.section),
    )
    assert twisted.validate() == []
    assert extract_action(twisted, "leibniz") == act


def test_enumerate_acting_morphisms_budget_guard():
    L2 = builtin("leibniz_2dim_nonlie", GF(3))
    with pytest.raises(BudgetExceeded):
        enumerate_acting_morphisms(L2, L2, "leibniz", budget=2)


def test_split_extension_json_roundtrip():
    ext = semidirect(biadjoint_action(builtin("sl2")))
    back = SplitExtension.from_json_dict(ext.to_json_dict())
    assert back.total == ext.total
    assert back.kernel_inj == ext.kernel_inj
    assert extract_action(back, "leibniz") == biadjoint_action(builtin("sl2"))


# -- morphism conversions -------------------------------------------------------------


def test_action_to_morphism_biadjoint_is_inner():
    from algact.opspace import inner_embedding

    A = builtin("leibniz_2dim_nonlie")
    mor = action_to_morphism(biadjoint_action(A))
    inner = inner_embedding(mor.space)
    assert mor.matrix == inner.matrix
    assert mor.is_homomorphism


def test_zero_action_gives_zero_morphism():
    B = builtin("sl2")
    X = builtin("leibniz_2dim_nonlie")
    mor = action_to_morphism(zero_action("leibniz", B, X))
    assert not any(map(any, mor.matrix))


def test_morphism_roundtrips_on_catalog():
    for name, act in catalog_actions(Q):
        mor = action_to_morphism(act)
        assert mor.is_homomorphism, name
        back = morphism_to_action(mor)
        assert back == act, name
        mor2 = action_to_morphism(back)
        assert mor2.matrix == mor.matrix, name


def test_acting_criterion_matches_validation():
    # for any homomorphism, acting <=> the unpacked action validates
    A = builtin("abelian(1)", GF(3))
    space, homs = enumerate_homs_helper(A)
    for m in homs:
        mor = space.morphism(A, m)
        verdict = is_acting_morphism(mor)
        act = morphism_to_action(mor)
        assert verdict.acting == validate_action(act).passed


def test_each_check_prepares_the_action_operators_once(monkeypatch):
    # counts, not times: validation evaluates 6 to 14 conditions and the
    # acting test one law, and each turns the operators into sparse columns
    # once
    prepared, env = [], laws._env

    def counting_env(*args):
        prepared.append(args)
        return env(*args)

    monkeypatch.setattr(laws, "_env", counting_env)
    for name, act in catalog_actions(GF(3)):
        prepared.clear()
        assert validate_action(act).passed, name
        assert len(prepared) == 1, name
        mor = action_to_morphism(act)
        prepared.clear()
        assert is_acting_morphism(mor).acting, name
        assert len(prepared) == 1, name


def enumerate_homs_helper(A):
    from itertools import product as iproduct
    from algact.algebra import is_homomorphism

    space = weak_actor(A, "leibniz")
    alg = space.as_algebra()
    homs = []
    for flat in iproduct(range(3), repeat=space.dim * A.dim):
        m = [
            [flat[t * A.dim + p] for p in range(A.dim)] for t in range(space.dim)
        ]
        if is_homomorphism(m, A, alg).holds:
            homs.append(m)
    return space, homs


def test_metere_morphism_is_hom_but_not_acting():
    phi = builtin("metere_morphism")
    space = weak_actor(phi.kernel, "leibniz")
    mor = space.morphism(phi.acting, space.matrix_of(phi.images))
    verdict = is_acting_morphism(mor)
    assert not verdict.acting
    assert verdict.defect == [F(2)]
    act = morphism_to_action(mor)
    assert validate_action(act).failed_labels() == ["L6"]
    assert verdict.action == act == builtin("metere_action")


def test_non_homomorphism_is_an_error_not_a_verdict():
    A = builtin("leibniz_2dim_nonlie")
    space = weak_actor(A, "leibniz")
    bad = [[F(1)] * 2 for _ in range(space.dim)]
    from algact.algebra import is_homomorphism

    if is_homomorphism(bad, A, space.as_algebra()).holds:
        pytest.skip("unexpectedly a homomorphism")
    with pytest.raises(NotAHomomorphism):
        is_acting_morphism(space.morphism(A, bad))


def test_inner_embedding_is_acting():
    A = builtin("leibniz_2dim_nonlie")
    from algact.opspace import biderivations, inner_embedding

    emb = inner_embedding(biderivations(A))
    verdict = is_acting_morphism(emb)
    assert verdict.acting


def test_zero_morphism_is_acting():
    A = builtin("sl2")
    space = weak_actor(A, "leibniz")
    zero = linalg.mat_zero(Q, space.dim, A.dim)
    mor = space.morphism(A, zero)
    assert is_acting_morphism(mor).acting
    act = morphism_to_action(mor)
    assert act == zero_action("leibniz", A, A)


@pytest.mark.parametrize(
    "kind,variety,b,x",
    [
        ("bimultipliers", "associative", "assoc_unital_1dim", "assoc_triangular"),
        ("biderivations", "leibniz", "sl2", "leibniz_2dim_nonlie"),
        ("usga-poisson", "poisson", "poisson_abelian(1)", "poisson_triangular"),
        ("usga-cpoisson", "cpoisson", "poisson_abelian(1)", "poisson_trunc_poly"),
    ],
)
def test_morphism_reads_kernel_and_variety_off_its_space(kind, variety, b, x):
    B, space = builtin(b), space_of_kind(builtin(x), kind)
    zero = linalg.mat_zero(Q, space.dim, B.dim)
    assert morphism_to_action(space.morphism(B, zero)) == zero_action(variety, B, space.base)


def test_morphism_into_a_space_that_is_no_weak_actor_is_refused():
    A = builtin("sl2")
    space = space_of_kind(A, "derivations")
    with pytest.raises(InputError, match="derivations space is the weak actor of no variety"):
        morphism_to_action(space.morphism(A, linalg.mat_zero(Q, space.dim, A.dim)))


def test_non_homomorphism_keeps_its_message():
    A = builtin("leibniz_2dim_nonlie")
    space = weak_actor(A, "leibniz")
    mor = space.morphism(A, [[F(1)] * 2 for _ in range(space.dim)])
    assert not mor.is_homomorphism
    with pytest.raises(NotAHomomorphism) as exc:
        morphism_to_action(mor)
    assert str(exc.value) == f"not a homomorphism into the weak actor: defect at {mor.hom.witness}"


# -- special properties ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_lie_specialization_l6_automatic(vals):
    # for Lie algebras and l = -r the sixth condition holds for any operators r
    B = builtin("lie_2dim_nonabelian")
    X = builtin("abelian(2)")
    r = [
        [[F(vals[0]), F(vals[3])], [F(vals[1]), F(vals[0])]],
        [[F(vals[2]), F(vals[1])], [F(vals[3]), F(vals[2])]],
    ]
    l = [[[-x for x in row] for row in M] for M in r]
    act = ActionData("leibniz", B, X, {"l": l, "r": r})
    rep = validate_action(act)
    assert rep.condition("L6").holds


def test_trivial_center_bider_identity():
    # with trivial center, D(D'(x) - d'(x)) = 0 across the biderivation basis
    for name in ("sl2", "lie_2dim_nonabelian"):
        A = builtin(name)
        from algact.opspace import biderivations

        assert_all_bider_products_vanish(A)


def assert_all_bider_products_vanish(A):
    from algact.opspace import biderivations

    space = biderivations(A)
    f = A.field
    for (d1, D1) in space.basis:
        for (d2, D2) in space.basis:
            delta = linalg.mat_sub(f, D2, d2)
            assert not any(map(any, linalg.mat_mul(f, D1, delta)))


def test_trivial_center_every_hom_is_acting():
    # sweep all homomorphisms over GF(3) into the biderivations of the
    # 2-dim nonabelian Lie algebra (trivial center)
    X = builtin("lie_2dim_nonabelian", GF(3))
    for bname in ("abelian(1)", "leibniz_2dim_nonlie"):
        B = builtin(bname, GF(3))
        space = weak_actor(X, "leibniz")
        from itertools import product as iproduct
        from algact.algebra import is_homomorphism

        alg = space.as_algebra()
        n_homs = n_acting = 0
        for flat in iproduct(range(3), repeat=space.dim * B.dim):
            m = [
                [flat[t * B.dim + p] for p in range(B.dim)]
                for t in range(space.dim)
            ]
            if not is_homomorphism(m, B, alg).holds:
                continue
            n_homs += 1
            if is_acting_morphism(space.morphism(B, m)).acting:
                n_acting += 1
        assert n_homs == n_acting and n_homs > 0, bname


def test_eqpois_every_hom_is_acting_on_line():
    # multiplier commutation holds for the Poisson line, so homs == acting
    V = builtin("poisson_abelian(1)", GF(3))
    P = builtin("poisson_abelian(1)", GF(3))
    space, homs = enumerate_acting_morphisms(P, V, "poisson")
    from itertools import product as iproduct
    from algact.algebra import is_homomorphism

    alg = space.as_algebra()
    all_homs = [
        [
            [flat[t * P.dim + p] for p in range(P.dim)]
            for t in range(space.dim)
        ]
        for flat in iproduct(range(3), repeat=space.dim * P.dim)
    ]
    all_homs = [m for m in all_homs if is_homomorphism(m, P, alg).holds]
    assert sorted(map(str, all_homs)) == sorted(str(m.matrix) for m in homs)


# -- enumeration --------------------------------------------------------------------


def test_enumerate_budget_guard():
    # a 2-dimensional B into the 3-dimensional actor of L2: 3^6 matrices
    L2 = builtin("leibniz_2dim_nonlie", GF(3))
    with pytest.raises(BudgetExceeded):
        enumerate_actions(L2, L2, "leibniz", budget=3 ** 6 - 1)
    assert len(enumerate_actions(L2, L2, "leibniz", budget=3 ** 6)) == 15


def test_enumerate_refuses_a_field_that_is_not_prime_first():
    # before the weak actor is built (bimultipliers need an associative
    # kernel) and before the budget is read
    A, X = builtin("abelian(1)"), builtin("lie_2dim_nonabelian")
    with pytest.raises(InputError, match="prime field"):
        enumerate_actions(A, X, "associative", budget=0)


def test_enumerate_zero_dims():
    Z = Algebra.from_entries(GF(3), 0, [{}], names=["bracket"])
    acts = enumerate_actions(Z, Z, "leibniz")
    assert len(acts) == 1


def test_zero_dimensional_acting_algebra():
    Z = Algebra.from_entries(Q, 0, [{}], names=["bracket"])
    X = builtin("leibniz_2dim_nonlie")
    act = zero_action("leibniz", Z, X)
    assert validate_action(act).passed
    ext = semidirect(act)
    assert ext.total.dim == 2
    assert extract_action(ext, "leibniz") == act
    mor = action_to_morphism(act)
    assert mor.is_homomorphism


def test_zero_dimensional_kernel():
    B = builtin("leibniz_2dim_nonlie")
    Z = Algebra.from_entries(Q, 0, [{}], names=["bracket"])
    act = zero_action("leibniz", B, Z)
    assert validate_action(act).passed
    ext = semidirect(act)
    assert ext.total == B
    assert extract_action(ext, "leibniz") == act


def test_enumeration_bijection_line():
    F1 = builtin("abelian(1)", GF(3))
    acts = enumerate_actions(F1, F1, "leibniz")
    space, homs = enumerate_acting_morphisms(F1, F1, "leibniz")
    assert len(acts) == len(homs) == 5
    from_homs = sorted(morphism_to_action(m).canonical_key() for m in homs)
    assert from_homs == [a.canonical_key() for a in acts]


def test_enumeration_bijection_cpoisson_line():
    P1 = builtin("poisson_abelian(1)", GF(3))
    acts = enumerate_actions(P1, P1, "cpoisson")
    space, homs = enumerate_acting_morphisms(P1, P1, "cpoisson")
    assert len(acts) == len(homs) == 3
    from_homs = sorted(morphism_to_action(m).canonical_key() for m in homs)
    assert from_homs == [a.canonical_key() for a in acts]


def test_enumeration_bijection_unital_poisson_line():
    # e*e = e with zero bracket: the actor space is the scalar line and
    # exactly two self-actions exist (multiplication scale 0 or 1)
    f = GF(3)
    U = Algebra.from_entries(f, 1, [{(0, 0, 0): 1}, {}])
    A1 = Algebra.from_entries(f, 1, [{}, {}])
    expected = {("poisson", True): 2, ("cpoisson", True): 2,
                ("poisson", False): 8, ("cpoisson", False): 2}
    for variety in ("poisson", "cpoisson"):
        for self_action in (True, False):
            X = U if self_action else A1
            acts = enumerate_actions(U, X, variety)
            space, homs = enumerate_acting_morphisms(U, X, variety)
            assert len(acts) == len(homs) == expected[(variety, self_action)]
            keys = sorted(morphism_to_action(m).canonical_key() for m in homs)
            assert keys == [a.canonical_key() for a in acts]
            assert acts == oracle.brute_force_actions(U, X, variety)


def test_enumeration_bijection_associative_triangular():
    f = GF(3)
    T = builtin("assoc_triangular", f)
    Z1 = Algebra.from_entries(f, 1, [{}])
    acts = enumerate_actions(T, Z1, "associative")
    space, homs = enumerate_acting_morphisms(T, Z1, "associative")
    assert len(acts) == len(homs) == 4
    keys = sorted(morphism_to_action(m).canonical_key() for m in homs)
    assert keys == [a.canonical_key() for a in acts]
    assert acts == oracle.brute_force_actions(T, Z1, "associative")


def test_enumerate_deterministic():
    F1 = builtin("abelian(1)", GF(3))
    a1 = enumerate_actions(F1, F1, "leibniz")
    a2 = enumerate_actions(F1, F1, "leibniz")
    assert [a.to_json_dict() for a in a1] == [a.to_json_dict() for a in a2]


def _small_pairs(field):
    """Every (B, X, variety) from the catalog algebras of dimension at most 2
    whose weak actor E exists and has p^(dim E * dim B) <= 3^10, with the
    weak actor."""
    algebras = [A for _, A, _ in catalog_algebras(field) if A.dim <= 2]
    out = []
    for X in algebras:
        for variety in VARIETIES:
            try:
                space = weak_actor(X, variety)
            except AlgactError:
                continue
            out += [(B, X, variety, space) for B in algebras
                    if field.p ** (space.dim * B.dim) <= 3 ** 10]
    return out


def _outcome(run):
    """The matrices of the homomorphisms ``run`` returns, or its error type."""
    try:
        return [mor.matrix for mor in run()]
    except AlgactError as exc:
        return type(exc)


def test_column_search_matches_the_matrix_walk():
    # the search against every matrix tried, list against list, on the small
    # catalog pairs, on the same pairs with B in a random unimodular basis,
    # and with dim E = 0 and dim B = 0; a two-operation B on a one-operation
    # weak actor raises OpArityMismatch on both sides
    field = GF(3)
    rng = random.Random(23)
    pairs = _small_pairs(field)
    pairs += [(_rebase(B, *_unimodular(rng, B.dim)), X, variety, space)
              for B, X, variety, space in pairs if B.dim == 2]
    Z = Algebra.from_entries(field, 0, [{}], names=["bracket"])
    L2 = builtin("leibniz_2dim_nonlie", field)
    pairs += [(B, X, "leibniz", weak_actor(X, "leibniz")) for B, X in ((Z, Z), (Z, L2), (L2, Z))]
    errors = 0
    for B, X, variety, space in pairs:
        walk = _outcome(lambda: oracle.matrix_walk_homomorphisms(B, space))
        search = _outcome(lambda: _homomorphisms(B, X, variety, 3 ** 10)[1])
        assert search == walk, (B, X, variety)
        errors += walk is OpArityMismatch
    assert len(pairs) > 300 and errors > 0


def test_propagation_forces_the_bracket_column(monkeypatch):
    # in L2, [e2, e2] = e1, so phi(e1) is forced by phi(e2): the 9 leaves of
    # the search are the 9 homomorphisms into the actor of F1, each checked
    # once, where the matrix walk tried 81 matrices.  Into the actor of L2,
    # F1 forces nothing, and the checks at the leaves leave 15 of 27 columns
    field = GF(3)
    L2, F1 = builtin("leibniz_2dim_nonlie", field), builtin("abelian(1)", field)
    calls = []

    def counting(fmat, A, B):
        calls.append(fmat)
        return algebra.is_homomorphism(fmat, A, B)

    monkeypatch.setattr(opspace, "is_homomorphism", counting)
    for B, X, count in ((L2, F1, 9), (F1, L2, 15)):
        calls.clear()
        homs = _homomorphisms(B, X, "leibniz", DEFAULT_BUDGET)[1]
        assert len(homs) == len(calls) == count
    # the search itself evaluates e2 e2 at each of the 9 values of phi(e2),
    # then e2 e2, e1 e1, e1 e2 and e2 e1 at the one forced phi(e1)
    products, defect = [], algebra._image_defect
    monkeypatch.setattr(algebra, "_image_defect", lambda *args: products.append(args) or defect(*args))
    assert len(list(algebra.homomorphisms(L2, weak_actor(F1, "leibniz").as_algebra()))) == 9
    assert len(products) == 9 + 9 * 4


def test_a_searched_map_that_is_no_homomorphism_is_an_error(monkeypatch):
    # the check of each map the search returns is a certificate: a wrong
    # search raises, where dropping the map would report fewer actions.
    # phi(e1) = (1, 0), phi(e2) = 0 breaks phi([e2, e2]) = [phi(e2), phi(e2)]
    field = GF(3)
    L2, F1 = builtin("leibniz_2dim_nonlie", field), builtin("abelian(1)", field)
    search = algebra.homomorphisms

    def wrong(A, B):
        yield from search(A, B)
        yield [[1, 0], [0, 0]]

    monkeypatch.setattr("algact.actions.homomorphisms", wrong)
    for run in (enumerate_actions, enumerate_acting_morphisms):
        with pytest.raises(NotAHomomorphism, match=r"\(0, 1, 1\)"):
            run(L2, F1, "leibniz")


def test_two_operation_acting_algebra_on_a_leibniz_kernel_is_refused():
    field = GF(3)
    P1, F1 = builtin("poisson_abelian(1)", field), builtin("abelian(1)", field)
    for run in (enumerate_acting_morphisms, enumerate_actions):
        with pytest.raises(OpArityMismatch):
            run(P1, F1, "leibniz")


# -- serialization ---------------------------------------------------------------------


def test_action_json_roundtrip():
    for name, act in catalog_actions(Q)[:6]:
        data = act.to_json_dict()
        back = ActionData.from_json_dict(data)
        assert back == act, name
        assert back.to_json_dict() == data, name


def test_action_json_roundtrip_gf3():
    act = biadjoint_action(builtin("leibniz_2dim_nonlie", GF(3)))
    assert ActionData.from_json_dict(act.to_json_dict()) == act


def test_action_eq_and_hash_ignore_operation_names():
    # Algebra.__eq__ ignores operation names, so equal actions on equal
    # algebras must compare and hash equal whatever the names
    A = Algebra.from_entries(Q, 1, [{(0, 0, 0): 1}], names=["mul"])
    B = Algebra.from_entries(Q, 1, [{(0, 0, 0): 1}], names=["bracket"])
    a, b = zero_action("leibniz", A, A), zero_action("leibniz", B, B)
    assert A == B and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != zero_action("associative", A, A)
    assert a != ActionData("leibniz", A, A, {"l": [[[F(1)]]], "r": [[[F(0)]]]})


def test_labels_survive_semidirect_and_extraction():
    sl2 = Algebra.from_json_dict(builtin("sl2").to_json_dict())
    labeled = Algebra(sl2.field, sl2.dim, sl2.ops, labels=["e", "f", "h"])
    act = biadjoint_action(labeled)
    ext = semidirect(act)
    assert ext.total.labels == ["e", "f", "h", "e", "f", "h"]
    back = extract_action(ext, "leibniz")
    assert back.acting.labels == ["e", "f", "h"]
    assert back.kernel.labels == ["e", "f", "h"]
    assert back.to_json_dict() == act.to_json_dict()
