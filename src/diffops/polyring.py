"""Sparse multivariate polynomials with exact coefficients.

A Poly is a finite map from exponent vectors (tuples of nonnegative ints)
to nonzero scalars of its ring's field.  Together with PolyRing this is the
coefficient layer for differential operators on commutative polynomial
rings and for structure constants of free-over-centre algebras.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

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
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2  # reduced mod p once, below
        p = self.ring.field.characteristic
        return Poly(self.ring, {e: c % p for e, c in out.items()} if p else out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative polynomial power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    # -- exact division (needed by fraction-free elimination) -------------

    def exact_div(self, other: "Poly") -> "Poly":
        """Quotient self/other, assuming the division is exact."""
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.ring.field
        p = f.characteristic
        de = max(other.terms)  # the leading term, in lex order on exponents
        dc_inv = f.inv(other.terms[de])
        tail = [(e, -c) for e, c in other.terms.items() if e != de]
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            re = max(rem)  # each step's new terms sort below re
            qe = tuple(a - b for a, b in zip(re, de))
            if any(e < 0 for e in qe):
                raise ArithmeticError("inexact polynomial division")
            qc = quot[qe] = f.mul(rem.pop(re), dc_inv)
            for e, c in tail:  # f.acc inlined; a cancelled term leaves rem at once
                e = tuple(map(add, qe, e))
                v = rem.get(e, 0) + qc * c
                v = v % p if p else v
                if v:
                    rem[e] = v
                else:
                    del rem[e]
        return Poly(self.ring, quot)

    def __repr__(self):
        from .printing import format_poly

        return format_poly(self)


def bareiss_determinant(entries: list[list[Poly]], ring: PolyRing) -> Poly:
    """Determinant of a square polynomial matrix, exactly, in two phases.

    Phase 1 eliminates over sparse rows {column: Poly} on nonzero constant
    pivots, each in the row with the fewest entries (Markowitz-style, to keep
    fill-in small), updating only the rows with an entry in the pivot column;
    the pivots and the signs of their places multiply into a scalar.  Phase 2
    runs fraction-free Bareiss elimination on the block left over, skipping
    every update whose result is zero; its divisions are exact over an
    integral domain.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValidationError("determinant of a non-square matrix")
    f, zero = ring.field, ring.zero()
    rows = {i: {j: e for j, e in enumerate(row) if e} for i, row in enumerate(entries)}
    cols, scale = list(range(n)), f.one
    while True:
        best = None
        for r, row in rows.items():
            if best is None or len(row) < len(rows[best[0]]):
                c = next((j for j, e in row.items() if e.is_constant()), None)
                best = best if c is None else (r, c)
        if best is None:
            break
        r, c = best
        (pc,) = rows[r][c].terms.values()
        odd = (list(rows).index(r) + cols.index(c)) % 2
        scale, minus_inv = f.mul(scale, f.neg(pc) if odd else pc), f.neg(f.inv(pc))
        cols.remove(c)
        prow = rows.pop(r)
        del prow[c]
        for row in rows.values():
            if c in row:
                fac = row.pop(c).scale(minus_inv)
                for j, b in prow.items():
                    ring.acc(row, j, fac * b)
    m = [[row.get(j, zero) for j in cols] for row in rows.values()]
    prev = ring.one()
    for k in range(len(m) - 1):
        r = next((r for r in range(k, len(m)) if m[r][k]), None)
        if r is None:
            return zero
        if r != k:
            m[k], m[r], scale = m[r], m[k], f.neg(scale)
        p, pivot_row = m[k][k], m[k]
        for row in m[k + 1 :]:
            a = row[k]
            if not a and p == prev:
                continue  # the update would multiply the row by p / prev = 1
            for j in range(k + 1, len(m)):
                if a and pivot_row[j]:
                    row[j] = (p * row[j] - a * pivot_row[j]).exact_div(prev)
                elif row[j]:
                    row[j] = (p * row[j]).exact_div(prev)
        prev = p
    return (m[-1][-1] if m else ring.one()).scale(scale)
