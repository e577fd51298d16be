"""Exact scalar arithmetic over the rationals and over odd prime fields.

All linear algebra in this package is exact: rational scalars are
`fractions.Fraction` values (always in lowest terms with positive
denominator), prime-field scalars are plain ints in the canonical range
``0..p-1``.  Fields of characteristic 2 are rejected at construction time
because several constructions downstream (polarization of squares, the
factor 2 in defect computations) silently degenerate there.

Scalars stay raw Python values, and the package computes with Python's own
operators on them, reducing mod p once where a value leaves.  A field object
is its characteristic plus the parsing and printing of scalars.  Its
arithmetic methods are written once, on :class:`Field`, for users and for
the independent reference in the tests; the package itself calls only
``inv``, to read a fraction over GF(p).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import (
    CharTwoForbidden,
    DivisionByZero,
    FieldMismatch,
    InputError,
    NotPrime,
)

__all__ = ["Field", "Rationals", "PrimeField", "Q", "GF"]

# deterministic Miller-Rabin witnesses: the smallest strong pseudoprime to
# all of them is _MR_BOUND, so they decide every n below it
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

_RATIONAL_LITERAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # no exponents, decimals or spaces


def _literal(x: str):
    """A literal of the one form ``to_str`` writes: an int, or a Fraction."""
    match = _RATIONAL_LITERAL.fullmatch(x)
    if not match:
        raise InputError(f"bad rational literal {x!r}: write -?digits or -?digits/digits")
    try:
        return Fraction(x) if match[1] else int(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {x!r}") from exc


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise InputError(f"primality is decided only below {_MR_BOUND}, got {n}")
    for q in _MR_WITNESSES:  # trial division by the same small primes
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A characteristic (0 or an odd prime p) with the parsing and printing
    of its scalars.  Each arithmetic method is Python's own operator, made
    canonical by ``of``."""

    char: int

    def add(self, a, b):
        return self.of(a + b)

    def sub(self, a, b):
        return self.of(a - b)

    def mul(self, a, b):
        return self.of(a * b)

    def neg(self, a):
        return self.of(-a)

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        if self.is_zero(b):
            raise DivisionByZero("division by zero")
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return not a  # scalars are canonical, so only zero is falsy

    def of(self, x):
        """Coerce an int, string or scalar into canonical form."""
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError

    @staticmethod
    def from_json(data) -> "Field":
        if data == "Q":
            return Q
        if isinstance(data, dict) and set(data) == {"p"}:
            p = data["p"]
            if isinstance(p, int) and not isinstance(p, bool):
                return GF(p)
        raise InputError(f"unrecognized field description: {data!r}")


class Rationals(Field):
    char = 0

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of zero")
        return 1 / Fraction(a)

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        if isinstance(x, str):
            x = _literal(x)
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldMismatch(f"{x!r} is not a rational scalar")

    def to_str(self, a) -> str:
        return str(Fraction(a))

    def to_json(self):
        return "Q"

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField(Field):
    """The field with p elements, p an odd prime; scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrime(p)
        if p == 2:
            raise CharTwoForbidden()
        self.p = p
        self.char = p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, self.p - 2, self.p)

    zero = 0
    one = 1

    def of(self, x):
        if isinstance(x, str):
            x = _literal(x)  # one literal form for both fields; a/b reads as a * b^-1
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {x} vanishes mod {self.p}")
            return x.numerator * self.inv(x.denominator % self.p) % self.p
        raise FieldMismatch(f"{x!r} is not an F_{self.p} scalar")

    def to_str(self, a) -> str:
        return str(a)

    def to_json(self):
        return {"p": self.p}

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


Q = Rationals()

_PRIME_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _PRIME_CACHE.get(p)
    if field is None:
        field = PrimeField(p)
        _PRIME_CACHE[p] = field
    return field
