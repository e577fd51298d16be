"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Each test prints a single pass line on success; runtime-limited criteria
assert their wall-clock budget.
"""

import io
import json
import random
import time

import pytest

from algact import linalg
from algact.actions import (
    ActionData,
    action_to_morphism,
    enumerate_acting_morphisms,
    enumerate_actions,
    extract_action,
    morphism_to_action,
    semidirect,
    semidirect_algebra,
    validate_action,
)
from algact.algebra import check_identity
from algact.catalog import builtin, catalog_actions, catalog_algebras, repro_suite
from algact.cli import main as cli_main
from algact.errors import (
    NotAssociative,
    NotCommutative,
    NotCommutativePoisson,
    NotPoisson,
)
from algact.fields import GF, Q
from algact.opspace import (
    SPACE_KINDS,
    space_of_kind,
)

import oracle


def canonical(data) -> bytes:
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_fact_exactness():
    t0 = time.perf_counter()
    for field in (Q, GF(5)):
        report = repro_suite(field)
        assert report.passed, report.to_text()
        by_id = {r.fact_id: r for r in report.results}
        assert by_id["a"].details["bider_dim"] == 2
        assert by_id["a"].details["acting"] is False
        assert by_id["a"].details["failed_conditions"] == ["L6"]
        assert by_id["a"].details["L6_defect"] == ["2"]
        assert by_id["d"].details["usga_dim"] == 3
        assert by_id["d"].details["bracket_zero"] == []
        assert by_id["d"].details["poisson"] is True
        assert by_id["e"].details["usga_dim"] == 12
        assert by_id["e"].details["bracket_is_skew"] is False
        assert by_id["f"].details["usga_c_dim"] == 8
        assert by_id["f"].details["product_commutative"] is False
        assert by_id["g"].details["eqpois_holds"] is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fact suite took {elapsed:.2f}s (budget 1s)"
    print(f"criterion 1 (fact exactness over Q and GF(5), {elapsed:.2f}s): PASS")


# -- criterion 2 ----------------------------------------------------------------


VARIETY_TAGS = {
    "leibniz": ("leibniz_right",),
    "associative": ("associative",),
    "poisson": ("poisson",),
    "cpoisson": ("poisson", "commutative"),
}

_VARIETY_POOL = {
    "leibniz": ("abelian(1)", "abelian(2)", "leibniz_2dim_nonlie", "lie_2dim_nonabelian"),
    "associative": ("abelian(1)", "abelian(2)", "assoc_unital_1dim",
                    "assoc_trunc_poly", "assoc_triangular"),
    "poisson": ("poisson_abelian(1)", "poisson_abelian(2)", "poisson_triangular",
                "poisson_trunc_poly", "cpoisson_solv2"),
    "cpoisson": ("poisson_abelian(1)", "poisson_abelian(2)", "poisson_trunc_poly",
                 "cpoisson_solv2"),
}


def _random_action(rng, variety, B, X):
    p = B.field.p
    nb, nx = B.dim, X.dim
    operators = {
        name: [[[rng.randrange(p) for _ in range(nx)] for _ in range(nx)] for _ in range(nb)]
        for name in oracle.ACTION_OPERATORS[variety]
    }
    return ActionData(variety, B, X, operators)


def _mutate(rng, act):
    p = act.field.p
    operators = {s: [[list(row) for row in M] for M in mats] for s, mats in act.operators.items()}
    mats = list(operators.values())[rng.randrange(len(operators))]
    M = mats[rng.randrange(len(mats))]
    i = rng.randrange(len(M))
    j = rng.randrange(len(M[i]))
    M[i][j] = (M[i][j] + 1 + rng.randrange(p - 1)) % p
    return ActionData(act.variety, act.acting, act.kernel, operators)


def test_criterion_2_checker_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    field = GF(3)
    total = agreements = 0
    for variety, names in _VARIETY_POOL.items():
        algebras = [builtin(n, field) for n in names]
        valid_seeds = [
            act for name, act in catalog_actions(field)
            if act.variety == variety and act.acting.dim <= 2 and act.kernel.dim <= 2
        ]
        instances = []
        for _ in range(40):
            B = algebras[rng.randrange(len(algebras))]
            X = algebras[rng.randrange(len(algebras))]
            instances.append(_random_action(rng, variety, B, X))
        for act in valid_seeds:
            instances.append(act)
            instances.extend(_mutate(rng, act) for _ in range(3))
        for act in instances:
            verdict = validate_action(act).passed
            built = semidirect_algebra(act)
            checker = all(check_identity(built, tag).holds for tag in VARIETY_TAGS[variety])
            assert verdict == checker, (variety, act.to_json_dict())
            total += 1
            agreements += 1
    elapsed = time.perf_counter() - t0
    assert total >= 200, total
    assert elapsed < 30.0, f"equivalence sweep took {elapsed:.2f}s (budget 30s)"
    print(
        f"criterion 2 (validator == semidirect checker on {total} instances, "
        f"{elapsed:.2f}s): PASS"
    )


# -- criterion 3 ----------------------------------------------------------------


def _roundtrip_keys(B, X, variety, acts):
    """Canonical keys of the unpacked acting morphisms, after checking that
    each action's morphism is one of them and unpacks to the action again."""
    space, homs = enumerate_acting_morphisms(B, X, variety)
    hom_set = {canonical([[str(x) for x in row] for row in m.matrix]) for m in homs}
    for act in acts:
        mor = action_to_morphism(act)
        assert canonical([[str(x) for x in row] for row in mor.matrix]) in hom_set
        assert morphism_to_action(mor) == act
    return sorted(morphism_to_action(m).canonical_key() for m in homs)


def test_criterion_3_enumeration_bijection():
    t0 = time.perf_counter()
    field = GF(3)
    F1 = builtin("abelian(1)", field)
    L2 = builtin("leibniz_2dim_nonlie", field)
    P1 = builtin("poisson_abelian(1)", field)
    # the pairs brute force can afford: at most 3^8 tensor assignments
    affordable = [(F1, F1, "leibniz"), (F1, L2, "leibniz"), (L2, F1, "leibniz"),
                  (P1, P1, "poisson"), (P1, P1, "cpoisson")]
    checked = 0
    for B, X, variety in affordable:
        keys = [a.canonical_key() for a in oracle.brute_force_actions(B, X, variety)]
        acts = enumerate_actions(B, X, variety)
        assert [a.canonical_key() for a in acts] == keys
        assert _roundtrip_keys(B, X, variety, acts) == keys
        checked += 1
    # (L2, L2) needs 3^16 tensor assignments, but only 3^6 actor matrices
    acts = enumerate_actions(L2, L2, "leibniz")
    assert len(acts) == 15
    assert _roundtrip_keys(L2, L2, "leibniz", acts) == [a.canonical_key() for a in acts]
    checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 6
    assert elapsed < 120.0, f"bijection sweep took {elapsed:.2f}s (budget 120s)"
    print(
        f"criterion 3 (action/morphism bijection on {checked} pairs, "
        f"{elapsed:.2f}s): PASS"
    )


@pytest.mark.parametrize("kernel,count", [("heisenberg", 1377), ("abelian(2)", 273)])
def test_enumeration_beyond_the_matrix_walk(kernel, count):
    # dim E = 8 and dim B = 2: 3^16 matrices, which the column search never
    # tries, since [e2, e2] = e1 in L2 forces the image of e1
    t0 = time.perf_counter()
    field = GF(3)
    L2, X = builtin("leibniz_2dim_nonlie", field), builtin(kernel, field)
    acts = enumerate_actions(L2, X, "leibniz", budget=3 ** 16)
    space, homs = enumerate_acting_morphisms(L2, X, "leibniz", budget=3 ** 16)
    elapsed = time.perf_counter() - t0
    assert space.dim == 8
    assert len(acts) == len(homs) == count
    assert elapsed < 30.0, f"(L2, {kernel}) took {elapsed:.2f}s (budget 30s)"


# -- criterion 4 ----------------------------------------------------------------


def _usga_product_raw(f, t, u):
    return (
        linalg.mat_mul(f, t[0], u[0]),
        linalg.mat_mul(f, u[1], t[1]),
        linalg.mat_add(f, linalg.mat_mul(f, t[0], u[2]), linalg.mat_mul(f, u[1], t[2])),
    )


def _usga_bracket_raw(f, t, u):
    def comm(a, b):
        return linalg.mat_sub(f, linalg.mat_mul(f, a, b), linalg.mat_mul(f, b, a))

    return (
        linalg.mat_sub(f, linalg.mat_mul(f, t[0], u[2]), linalg.mat_mul(f, u[2], t[0])),
        linalg.mat_sub(f, linalg.mat_mul(f, t[1], u[2]), linalg.mat_mul(f, u[2], t[1])),
        comm(t[2], u[2]),
    )


def test_criterion_4_closure_self_checks():
    closures = 0
    for field in (Q, GF(5)):
        for name, A, _tag in catalog_algebras(field):
            ders = space_of_kind(A, "derivations")
            assert check_identity(ders.as_algebra(), "lie").holds, name
            bider = space_of_kind(A, "biderivations")
            assert check_identity(bider.as_algebra(), "leibniz_right").holds, name
            closures += 2
            if check_identity(A, "associative").holds:
                bim = space_of_kind(A, "bimultipliers")
                assert check_identity(bim.as_algebra(), "associative").holds, name
                closures += 1
            if A.num_ops == 2 and check_identity(A, "poisson").holds:
                # re-verify closure of both operations by raw recomposition
                usga = space_of_kind(A, "usga-poisson")
                f = A.field
                raw_fns = {"mul": _usga_product_raw, "bracket": _usga_bracket_raw}
                alg = usga.as_algebra()
                for op, bilinear in enumerate(alg.ops):
                    opname = bilinear.name
                    fn = raw_fns[opname]
                    for a in range(usga.dim):
                        for b in range(usga.dim):
                            raw = fn(f, usga.basis[a], usga.basis[b])
                            coords = usga.coords(raw)
                            assert coords is not None, (name, opname)
                            assert coords == alg.mul_basis(op, a, b), (name, opname)
                closures += 1
    assert closures >= 40
    print(f"criterion 4 ({closures} closure self-checks, zero tolerance): PASS")


# -- criterion 5 ----------------------------------------------------------------


def test_criterion_5_roundtrips_byte_exact():
    count = 0
    for field in (Q, GF(3)):
        for name, act in catalog_actions(field):
            blob = canonical(act.to_json_dict())
            ext = semidirect(act)
            back = extract_action(ext, act.variety)
            assert canonical(back.to_json_dict()) == blob, name
            mor = action_to_morphism(act)
            act2 = morphism_to_action(mor)
            assert canonical(act2.to_json_dict()) == blob, name
            mor2 = action_to_morphism(act2)
            assert mor2.matrix == mor.matrix, name
            count += 3
    print(f"criterion 5 ({count} byte-exact roundtrips): PASS")


# -- criterion 6 ----------------------------------------------------------------


_ORACLE_CASES = {
    "derivations": ("abelian(1)", "abelian(2)", "leibniz_2dim_nonlie",
                    "lie_2dim_nonabelian", "poisson_triangular", "cpoisson_solv2"),
    "antiderivations": ("abelian(1)", "abelian(2)", "leibniz_2dim_nonlie",
                        "lie_2dim_nonabelian", "poisson_triangular", "cpoisson_solv2"),
    "biderivations": ("abelian(1)", "abelian(2)", "leibniz_2dim_nonlie",
                      "lie_2dim_nonabelian", "poisson_triangular", "cpoisson_solv2"),
    "bimultipliers": ("abelian(1)", "abelian(2)", "assoc_unital_1dim",
                      "assoc_trunc_poly", "assoc_triangular", "poisson_triangular"),
    "multipliers": ("abelian(1)", "abelian(2)", "assoc_unital_1dim",
                    "assoc_trunc_poly", "poisson_trunc_poly"),
    "usga-poisson": ("poisson_abelian(1)", "poisson_abelian(2)", "poisson_triangular",
                     "poisson_trunc_poly", "cpoisson_solv2"),
    "usga-cpoisson": ("poisson_abelian(1)", "poisson_abelian(2)",
                      "poisson_trunc_poly", "cpoisson_solv2"),
}


def test_criterion_6_nullspace_vs_enumeration():
    field = GF(3)
    cases = 0
    assert set(_ORACLE_CASES) == set(SPACE_KINDS)
    for kind, names in _ORACLE_CASES.items():
        for name in names:
            A = builtin(name, field)
            assert A.dim <= 2
            space = space_of_kind(A, kind)
            count = oracle.count_space(kind, A, 3)
            assert count == 3 ** space.dim, (kind, name, count, space.dim)
            cases += 1
    print(f"criterion 6 ({cases} oracle/nullspace agreements over GF(3)): PASS")


# -- criterion 7 ----------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    outputs = []
    pairfile = tmp_path / "pair.json"
    F1 = builtin("abelian(1)", GF(3))
    pairfile.write_text(
        json.dumps(
            {
                "variety": "leibniz",
                "acting": F1.to_json_dict(),
                "kernel": F1.to_json_dict(),
            }
        )
    )
    commands = [
        ("repro", "--field", "5", "--json"),
        ("hunt", "--p", "3", "--dim", "2", "--samples", "30", "--seed", "9", "--json"),
        ("enumerate", str(pairfile), "--json"),
    ]
    for argv in commands:
        code1, out1, _ = run_cli(*argv)
        code2, out2, _ = run_cli(*argv)
        assert code1 == code2 == 0, argv
        assert out1.encode() == out2.encode(), argv
        outputs.append(out1)
    assert all(outputs)
    print("criterion 7 (byte-identical JSON reports for fixed seeds): PASS")
