"""The package computes with Python's own operators, made canonical where a
value leaves; the arithmetic methods of a field are the API of users and of
the hand-written oracle, never of the package itself.

Every public route below runs with those methods patched to raise.  The
oracle is not called while the patch is on: it is the independent reference
scalar model and keeps calling them on purpose."""

import pytest

from algact import linalg
from algact.actions import (
    SplitExtension,
    action_to_morphism,
    enumerate_actions,
    extract_action,
    is_acting_morphism,
    morphism_to_action,
    semidirect,
    validate_action,
    zero_action,
)
from algact.algebra import (
    IDENTITY_TAGS,
    Algebra,
    annihilator,
    centers,
    check_identity,
    leibniz_kernel,
    product_subspace,
)
from algact.catalog import (
    biadjoint_action,
    builtin,
    catalog_actions,
    catalog_algebras,
    repro_suite,
)
from algact.errors import AlgactError
from algact.fields import Field, GF, PrimeField, Q, Rationals
from algact.opspace import SPACE_KINDS, space_of_kind

ARITHMETIC = ("add", "sub", "mul", "neg", "div", "is_zero")


class FieldArithmeticCalled(AssertionError):
    pass


@pytest.fixture
def no_field_arithmetic(monkeypatch):
    def refuse(name):
        def method(self, *args):
            raise FieldArithmeticCalled(f"{type(self).__name__}.{name}{args}")
        return method

    for cls in (Field, Rationals, PrimeField):
        for name in ARITHMETIC:
            monkeypatch.setattr(cls, name, refuse(name))


def test_the_patch_refuses_every_arithmetic_method(no_field_arithmetic):
    for field in (Q, GF(3)):
        for name in ARITHMETIC:
            with pytest.raises(FieldArithmeticCalled):
                getattr(field, name)(*[field.one] * (1 if name in ("neg", "is_zero") else 2))


@pytest.mark.parametrize("field", [Q, GF(5)], ids=repr)
def test_repro_suite_without_field_arithmetic(no_field_arithmetic, field):
    assert repro_suite(field).passed


@pytest.mark.parametrize("field", [Q, GF(3)], ids=repr)
def test_spaces_and_identities_without_field_arithmetic(no_field_arithmetic, field):
    built = 0
    for _, A, _ in catalog_algebras(field):
        for kind in SPACE_KINDS:
            try:
                space = space_of_kind(A, kind)
            except AlgactError:
                continue  # the base is outside the kind's variety
            flat = [[x for M in tup for row in M for x in row] for tup in space.basis]
            assert all(linalg.coords_in_span(field, flat, space.pivots, v) is not None
                       for v in flat)
            built += 1
        for tag in IDENTITY_TAGS:
            try:
                check_identity(A, tag)
            except AlgactError:
                pass  # the tag needs an operation the algebra lacks
        centers(A)
        annihilator(A)
        product_subspace(A, 0)
        leibniz_kernel(A)
    assert built > len(SPACE_KINDS)


def test_actions_and_morphisms_without_field_arithmetic(no_field_arithmetic):
    field = GF(3)
    for name, act in catalog_actions(field):
        assert validate_action(act).passed, name
        act.to_json_dict()
        assert extract_action(semidirect(act), act.variety) == act, name
        mor = action_to_morphism(act)
        assert morphism_to_action(mor) == act, name
        assert is_acting_morphism(mor).acting, name
    sl2 = builtin("sl2", field)
    act = biadjoint_action(Algebra(field, sl2.dim, sl2.ops, labels=["e", "f", "h"]))
    assert extract_action(semidirect(act), "leibniz").kernel.labels == ["e", "f", "h"]
    F1, L2 = builtin("abelian(1)", field), builtin("leibniz_2dim_nonlie", field)
    assert enumerate_actions(F1, L2, "leibniz")
    ext = semidirect(zero_action("leibniz", F1, F1))
    one, zero = field.one, field.zero
    broken = SplitExtension(ext.total, [[one], [zero]], ext.retraction, ext.section)
    assert broken.validate()
