import json

import pytest

from algact import catalog
from algact.algebra import check_identity
from algact.catalog import (
    FACTS,
    MorphismData,
    builtin,
    builtin_names,
    catalog_actions,
    catalog_algebras,
    leibniz_names,
    lie_names,
    open_problem_search,
    repro_suite,
)
from algact.errors import InputError, ShapeMismatch, UnknownName
from algact.fields import GF, Q


def test_builtin_abelian():
    A = builtin("abelian(3)")
    assert A.dim == 3 and A.num_ops == 1
    assert A.ops[0].groups == {}


def test_builtin_leibniz_2dim_nonlie():
    A = builtin("leibniz_2dim_nonlie")
    assert check_identity(A, "leibniz_right").holds
    assert not check_identity(A, "lie").holds


def test_builtin_unknown_name():
    # a bad dimension, and a biadjoint of a name that is no algebra, are no builtin either
    for name in ("no_such_algebra", "abelian(x)", "abelian(-1)", "biadjoint(metere_action)",
                 "biadjoint(metere_morphism)", "biadjoint(biadjoint(sl2))"):
        with pytest.raises(UnknownName):
            builtin(name)


def test_builtin_names_listed():
    names = builtin_names()
    assert "metere_morphism" in names
    assert "sl2" in names
    for name in names:
        builtin(name.replace("(n)", "(2)"))
    # the detail keys of facts (b) and (c) follow these orders
    assert leibniz_names() == ["leibniz_2dim_nonlie", "lie_2dim_nonabelian", "sl2", "heisenberg"]
    assert lie_names() == ["lie_2dim_nonabelian", "sl2", "heisenberg", "abelian(2)"]


def test_catalog_algebras_pass_their_variety():
    # builtin loads a record unchecked, so this is the check of the catalog data
    for field in (Q, GF(3), GF(5), GF(7)):
        for name, alg, tag in catalog_algebras(field):
            assert check_identity(alg, tag).holds, (name, field)


def test_builtin_loads_a_record_without_checking_its_identity(monkeypatch):
    def refuse(*args):
        raise AssertionError("check_identity called")

    monkeypatch.setattr(catalog, "check_identity", refuse)
    for name in catalog._ALGEBRAS:
        for field in (Q, GF(3)):
            assert builtin(name, field) == catalog._catalog_algebra(name, field)[0], name


def test_catalog_actions_all_valid():
    from algact.actions import validate_action

    for field in (Q, GF(3)):
        for name, act in catalog_actions(field):
            assert validate_action(act).passed, (name, field)


def test_morphism_file_needs_one_image_per_acting_basis_element():
    data = builtin("metere_morphism").to_json_dict()
    data["images"] *= 3
    with pytest.raises(ShapeMismatch, match="3 images for an acting algebra of dimension 1"):
        MorphismData.from_json_dict(data)


def test_metere_morphism_roundtrip():
    phi = builtin("metere_morphism")
    back = MorphismData.from_json_dict(phi.to_json_dict())
    assert back.variety == "leibniz"
    assert back.images == phi.images


def test_repro_all_facts_pass_over_q_and_f5():
    for field in (Q, GF(5)):
        report = repro_suite(field)
        assert report.passed, report.to_text()
        assert [r.fact_id for r in report.results] == list("abcdefg")


def test_repro_single_fact():
    report = repro_suite(Q, {"e"})
    assert [r.fact_id for r in report.results] == ["e"]
    assert report.results[0].details["skew_witness"] is not None


def test_repro_unknown_fact():
    with pytest.raises(UnknownName):
        repro_suite(Q, {"z"})


def test_repro_deterministic_json():
    r1 = json.dumps(repro_suite(GF(5)).to_json_dict(), sort_keys=True)
    r2 = json.dumps(repro_suite(GF(5)).to_json_dict(), sort_keys=True)
    assert r1 == r2


def test_fact_statements_are_self_contained():
    for fact in FACTS:
        assert fact.statement
        assert fact.title


def test_open_problem_search_line():
    report = open_problem_search(GF(3), 1, 100, 0)
    assert report.to_json_dict()["counts"]["sampled"] == 100
    # dim-1 Poisson algebras have zero bracket; their actor space is Poisson
    assert report.poisson > 0
    assert report.eqpois == report.poisson
    assert report.usga_poisson_ok == report.eqpois
    assert report.findings == []


def test_open_problem_search_empty():
    report = open_problem_search(GF(3), 2, 0, 7)
    assert report.to_json_dict()["counts"]["sampled"] == 0
    assert report.findings == []


def test_open_problem_search_deterministic():
    r1 = open_problem_search(GF(3), 2, 40, 11).to_json_dict()
    r2 = open_problem_search(GF(3), 2, 40, 11).to_json_dict()
    assert r1 == r2


def test_open_problem_search_guards():
    with pytest.raises(InputError):
        open_problem_search(GF(3), 9, 1, 0)


def test_findings_carry_witness_bundles():
    # force a finding by monkeypatching nothing: instead scan enough dim-2
    # samples that some Poisson algebras appear; all surviving ones must
    # either verify or produce a re-verifiable bundle
    report = open_problem_search(GF(3), 2, 60, 3)
    for finding in report.findings:
        assert {"sample_index", "algebra", "usga_dim", "usga_basis", "failure"} <= set(finding)
