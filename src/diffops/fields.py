"""Exact scalar arithmetic over Q or over a prime field F_p.

Scalars are plain values: ``fractions.Fraction`` in characteristic 0 and
``int`` in the range [0, p) in characteristic p.  A FieldSpec carries the
characteristic and provides coercion, arithmetic helpers and binomial
coefficients (by Lucas reduction mod p).  No floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IncompatibleContextError,
    UnsupportedCharacteristicError,
    ValidationError,
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: Q when characteristic is 0, else F_p."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p != 0 and not _is_prime(p):
            raise ValidationError(f"characteristic must be 0 or a prime, got {p}")

    # -- coercion ---------------------------------------------------------

    def coerce(self, value):
        """Bring an int / Fraction / scalar string into canonical form."""
        p = self.characteristic
        if isinstance(value, str):
            value = _parse_scalar_literal(value)
        if p == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise UnsupportedCharacteristicError(
                    f"denominator {value.denominator} is not invertible mod {p}"
                )
            return value.numerator * pow(den, -1, p) % p
        return int(value) % p

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    # -- arithmetic -------------------------------------------------------

    def add(self, a, b):
        c = a + b
        return c % self.characteristic if self.characteristic else c

    def sub(self, a, b):
        c = a - b
        return c % self.characteristic if self.characteristic else c

    def mul(self, a, b):
        c = a * b
        return c % self.characteristic if self.characteristic else c

    def acc(self, out: dict, key, c):
        """Add c into out[key]; the key is dropped when the sum is zero."""
        v = self.add(out.get(key, 0), c)
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    def neg(self, a):
        return (-a) % self.characteristic if self.characteristic else -a

    def inv(self, a):
        if self.characteristic == 0:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 / Fraction(a)
        a = int(a) % self.characteristic
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.characteristic)

    def binom(self, m: int, k: int):
        """C(m, k) as a field element; Lucas reduction in characteristic p."""
        if k < 0 or m < 0 or k > m:
            return self.zero
        p = self.characteristic
        if p == 0:
            return Fraction(math.comb(m, k))
        out = 1
        while m or k:
            md, m = m % p, m // p
            kd, k = k % p, k // p
            if kd > md:
                return 0
            out = out * math.comb(md, kd) % p
        return out

    def factorial(self, k: int):
        if self.characteristic == 0:
            return Fraction(math.factorial(k))
        out = 1
        for i in range(2, k + 1):
            out = out * i % self.characteristic
        return out

    # -- text form --------------------------------------------------------

    def format(self, a) -> str:
        if self.characteristic == 0 and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(a if self.characteristic == 0 else int(a))


class Combination:
    """A finite linear combination of monomials with coefficients in a field.

    ``terms`` maps monomial keys to nonzero scalars.  ``parent`` (an
    algebra context or a polynomial ring) carries the field and fixes the
    shape of the keys; values with different parents never mix.  A
    subclass gives the parent its public name, and provides a constructor
    ``(parent, terms)`` that validates the keys and its own product.
    """

    __slots__ = ("parent", "terms")

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.parent != other.parent:
            raise IncompatibleContextError(
                f"contexts differ: {self.parent} vs {other.parent}"
            )

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.parent == other.parent
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.parent, frozenset(self.terms.items())))

    def _combined(self, other, negate: bool):
        self._check(other)
        f = self.parent.field
        out = dict(self.terms)
        for k, c in other.terms.items():
            f.acc(out, k, f.neg(c) if negate else c)
        return type(self)(self.parent, out)

    def __add__(self, other):
        return self._combined(other, False)

    def __sub__(self, other):
        return self._combined(other, True)

    def __neg__(self):
        f = self.parent.field
        return type(self)(self.parent, {k: f.neg(c) for k, c in self.terms.items()})

    def scale(self, c):
        f = self.parent.field
        c = f.coerce(c)
        return type(self)(self.parent, {k: f.mul(v, c) for k, v in self.terms.items()})

    __rmul__ = scale


def _parse_scalar_literal(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return int(text)
