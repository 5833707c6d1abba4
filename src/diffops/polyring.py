"""Sparse multivariate polynomials with exact coefficients.

A Poly is a finite map from exponent vectors (tuples of nonnegative ints)
to nonzero scalars of its ring's field.  Together with PolyRing this is the
coefficient layer for differential operators on commutative polynomial
rings and for structure constants of free-over-centre algebras.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .fields import Combination, FieldSpec


@dataclass(frozen=True)
class PolyRing:
    """A named polynomial ring k[v_1, ..., v_k] over a FieldSpec."""

    variables: tuple[str, ...]
    field: FieldSpec

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError(f"duplicate ring variables in {self.variables}")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.constant(self.field.one)

    def constant(self, c) -> "Poly":
        c = self.field.coerce(c)
        if c == 0:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def gen(self, i: int) -> "Poly":
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.field.one})

    def coerce(self, value) -> "Poly":
        """value itself if it is a polynomial, else the constant it names."""
        return value if isinstance(value, Poly) else self.constant(value)

    def mul(self, a: "Poly", b: "Poly") -> "Poly":
        return a * b

    def acc(self, out: dict, key, c: "Poly"):
        """Add c into out[key]; the key is dropped when the sum is zero."""
        v = out[key] + c if key in out else c
        if v:
            out[key] = v
        else:
            out.pop(key, None)

    def monomial(self, exponents, coeff=1) -> "Poly":
        exponents = tuple(int(e) for e in exponents)
        if len(exponents) != self.nvars or any(e < 0 for e in exponents):
            raise ValidationError(f"bad exponent vector {exponents}")
        c = self.field.coerce(coeff)
        return Poly(self, {exponents: c} if c != 0 else {})


class Poly(Combination):
    """Canonical sparse polynomial; immutable after construction."""

    __slots__ = ()
    ring = Combination.parent

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        f = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                f.acc(out, tuple(a + b for a, b in zip(e1, e2)), f.mul(c1, c2))
        return Poly(self.ring, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative polynomial power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # -- exact division (needed by fraction-free elimination) -------------

    def _leading(self):
        exp = max(self.terms)  # lex order on exponent tuples
        return exp, self.terms[exp]

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient self/other, assuming the division is exact."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.ring.field
        rem = self
        quot: dict = {}
        de, dc = other._leading()
        dc_inv = f.inv(dc)
        while not rem.is_zero():
            re, rc = rem._leading()
            qe = tuple(a - b for a, b in zip(re, de))
            if any(e < 0 for e in qe):
                raise ArithmeticError("inexact polynomial division")
            qc = f.mul(rc, dc_inv)
            quot[qe] = qc
            rem = rem - Poly(self.ring, {qe: qc}) * other
        return Poly(self.ring, quot)

    def __repr__(self):
        from .printing import format_poly

        return format_poly(self)


def bareiss_determinant(entries: list[list[Poly]], ring: PolyRing) -> Poly:
    """Determinant of a square polynomial matrix by fraction-free elimination.

    Divisions in the Bareiss recurrence are exact over an integral domain,
    so entries stay polynomials throughout.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValidationError("determinant of a non-square matrix")
    if n == 0:
        return ring.one()
    m = [row[:] for row in entries]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = ring.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det
