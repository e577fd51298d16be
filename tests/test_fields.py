from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algact.errors import (
    AlgactError,
    CharTwoForbidden,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NotPrime,
)
from algact.fields import Field, GF, Q


def test_char_two_rejected():
    with pytest.raises(CharTwoForbidden):
        GF(2)


@pytest.mark.parametrize("p", [1, 4, 9, 15, 561])
def test_not_prime_rejected(p):
    with pytest.raises(NotPrime):
        GF(p)


def test_strong_pseudoprimes_refused():
    # 399165290221 * 798330580441 is a strong pseudoprime to every base 2..37
    with pytest.raises(NotPrime):
        GF(318665857834031151167461)
    # the smallest strong pseudoprime to every base 2..41 bounds what the
    # witnesses decide
    with pytest.raises(AlgactError, match="3317044064679887385961981"):
        GF(3317044064679887385961981)
    assert GF(2 ** 61 - 1).p == 2 ** 61 - 1


def test_field_json_roundtrip():
    assert Q.to_json() == "Q" and GF(3).to_json() == {"p": 3}
    for f in (Q, GF(3), GF(97)):
        assert Field.from_json(f.to_json()) == f


def test_prime_field_parse_fraction():
    f = GF(7)
    assert f.of(Fraction(1, 2)) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(DivisionByZero):
        f.of(Fraction(1, 7))
    with pytest.raises(FieldMismatch):
        f.of(0.5)
    with pytest.raises(FieldMismatch):
        Q.of(1.5)
    assert GF(5).inv(2) == 3
    with pytest.raises(DivisionByZero):
        GF(5).inv(0)
    assert GF(5).of("1/2") == 3  # a string a/b reads as a * b^-1
    with pytest.raises(DivisionByZero):
        Q.inv(0)


@given(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
       st.sampled_from([3, 7, 2**61 - 1]))
def test_a_literal_reads_as_its_fraction_in_both_fields(s, p):
    # a literal without "/" is read with int(), one with it as a Fraction:
    # both fields agree with Fraction(s) on every form the regex admits,
    # signs, leading zeros and zero denominators included
    try:
        x = Fraction(s)
    except ZeroDivisionError:
        for f in (Q, GF(p)):
            with pytest.raises(InputError):
                f.of(s)
        return
    assert Q.of(s) == x and type(Q.of(s)) is Fraction
    if x.denominator % p == 0:
        with pytest.raises(DivisionByZero):
            GF(p).of(s)
    else:
        assert GF(p).of(s) == GF(p).of(x) and type(GF(p).of(s)) is int


rationals = st.fractions(
    min_value=Fraction(-(10**6)), max_value=Fraction(10**6), max_denominator=10**4
)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert Q.add(a, b) == Q.add(b, a)
    assert Q.mul(a, b) == Q.mul(b, a)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(Q.add(a, b), c) == Q.add(a, Q.add(b, c))
    assert Q.sub(a, b) == Q.add(a, Q.neg(b)) == a - b
    assert Q.add(Q.sub(a, b), b) == a and Q.neg(Q.neg(a)) == a
    outs = [Q.add(a, b), Q.sub(a, b), Q.mul(a, b), Q.neg(a)]
    if b != 0:
        assert Q.mul(Q.div(a, b), b) == a and Q.div(a, b) == a / b
        outs.append(Q.div(a, b))
    else:
        with pytest.raises(DivisionByZero):
            Q.div(a, b)
    if a != 0:
        assert Q.mul(a, Q.inv(a)) == 1
    assert all(type(x) is Fraction for x in outs)


@given(st.sampled_from([5, 2**61 - 1]), st.data())
def test_prime_field_axioms(p, data):
    f = GF(p)
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(f.add(a, b), c) == f.add(f.mul(a, c), f.mul(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.sub(a, b) == f.add(a, f.neg(b))
    assert f.add(f.sub(a, b), b) == a and f.neg(f.neg(a)) == a
    outs = [f.add(a, b), f.sub(a, b), f.mul(a, b), f.neg(a)]
    if b != 0:
        assert f.mul(f.div(a, b), b) == a
        outs.append(f.div(a, b))
    else:
        with pytest.raises(DivisionByZero):
            f.div(a, b)
    if a != 0:
        assert f.mul(a, f.inv(a)) == 1
    assert all(0 <= x < p for x in outs)


@given(rationals)
def test_canonicalization_idempotent(a):
    v = Q.of(Q.of(a))
    assert v == a
    assert v.denominator > 0
    # str form parses back to the same value
    assert Q.of(Q.to_str(v)) == v


@given(st.integers())
def test_residue_canonicalization(k):
    f = GF(11)
    v = f.of(k)
    assert 0 <= v < 11
    assert f.of(f.to_str(v)) == v
