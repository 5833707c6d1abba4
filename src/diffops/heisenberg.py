"""PBW normal-form arithmetic for the Heisenberg algebra H_n.

H_n has generators h, x_1..x_n, y_1..y_n with [x_i, y_j] = delta_ij h and
all other generator commutators zero; h is central.  Every element is a
finite combination of normal monomials h^m x^I y^J, stored as a map from
(m, I, J) keys to nonzero scalars.  Weyl mode is the same algebra with h
specialized to 1, realized as the flag ``mode="weyl"`` with m forced to 0.

Products are normal-ordered with the closed form of the exhaustive
rewrite y_i x_i -> x_i y_i - h:

    y^a x^b = sum_k (-1)^k k! C(a,k) C(b,k) h^k x^(b-k) y^(a-k)

applied independently per index (different indices commute).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from operator import add, sub

from .errors import (
    UnsupportedCharacteristicError,
    UnsupportedModeError,
    ValidationError,
)
from .fields import Combination, FieldSpec, bilinear, contractions
from .polyring import Poly, PolyRing

MODE_HEISENBERG = "heisenberg"
MODE_WEYL = "weyl"

#: degree of the zero element, below every integer
MINUS_INF = float("-inf")


@dataclass(frozen=True)
class AlgebraContext:
    """Rank, coefficient field and mode shared by all values of one computation."""

    n: int
    field: FieldSpec = FieldSpec(0)
    mode: str = MODE_HEISENBERG

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"rank must be >= 1, got {self.n}")
        if self.mode not in (MODE_HEISENBERG, MODE_WEYL):
            raise ValidationError(f"unknown mode {self.mode!r}")

    @property
    def is_weyl(self) -> bool:
        return self.mode == MODE_WEYL

    def zero_index(self) -> tuple[int, ...]:
        return (0,) * self.n

    def unit_index(self, i: int) -> tuple[int, ...]:
        if not 1 <= i <= self.n:
            raise ValidationError(f"index {i} out of range 1..{self.n}")
        return tuple(1 if j == i - 1 else 0 for j in range(self.n))


class HElement(Combination):
    """Element of H_n (or A_n in Weyl mode) in PBW normal form."""

    __slots__ = ()
    ctx = Combination.parent

    def __init__(self, ctx: AlgebraContext, terms: dict | None = None):
        self.ctx = ctx
        clean = {}
        if terms:
            for (m, I, J), c in terms.items():
                if c == 0:
                    continue
                if len(I) != ctx.n or len(J) != ctx.n:
                    raise ValidationError("monomial rank does not match context")
                if ctx.is_weyl and m != 0:
                    raise ValidationError("Weyl-mode monomials must have m = 0")
                clean[(m, I, J)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "HElement":
        return cls(ctx, {})

    @classmethod
    def scalar(cls, ctx, c) -> "HElement":
        return cls(ctx, {(0, ctx.zero_index(), ctx.zero_index()): ctx.field.coerce(c)})

    @classmethod
    def monomial(cls, ctx, m, I, J, coeff=1) -> "HElement":
        return cls(ctx, {(int(m), tuple(I), tuple(J)): ctx.field.coerce(coeff)})

    # -- product -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, HElement):
            return self.scale(other)
        self._check(other)
        return HElement(self.ctx, bilinear(self.ctx, _mul_mono, self.terms, other.terms))

    def __pow__(self, k: int):
        if k < 0:
            raise ValidationError("negative power of an algebra element")
        out = one(self.ctx)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        from .printing import format_element

        return format_element(self)


def _mul_mono(ctx, key1, key2, c, out):
    """Accumulate the normal form of c * (key1 * key2) into out."""
    f = ctx.field
    m1, I1, J1 = key1
    m2, I2, J2 = key2
    if not any(map(min, J1, I2)):  # nothing to contract (m1 = m2 = 0 in Weyl mode)
        f.acc(out, (m1 + m2, tuple(map(add, I1, I2)), tuple(map(add, J1, J2))), c)
        return
    # contraction vectors K <= min(J1, I2) coordinatewise
    choices = [
        [(k, (-1) ** k * factorial(k) * comb(a, k) * comb(b, k)) for k in range(min(a, b) + 1)]
        for a, b in zip(J1, I2)
    ]
    for K, coef in contractions(f.characteristic, choices):
        m = 0 if ctx.is_weyl else m1 + m2 + sum(K)
        I = tuple(map(sub, map(add, I1, I2), K))
        J = tuple(map(sub, map(add, J1, J2), K))
        f.acc(out, (m, I, J), f.mul(c, coef))


# -- generators --------------------------------------------------------------


def one(ctx: AlgebraContext) -> HElement:
    return HElement.scalar(ctx, 1)


def h(ctx: AlgebraContext) -> HElement:
    if ctx.is_weyl:
        return one(ctx)
    return HElement.monomial(ctx, 1, ctx.zero_index(), ctx.zero_index())


def x(ctx: AlgebraContext, i: int) -> HElement:
    return HElement.monomial(ctx, 0, ctx.unit_index(i), ctx.zero_index())


def y(ctx: AlgebraContext, i: int) -> HElement:
    return HElement.monomial(ctx, 0, ctx.zero_index(), ctx.unit_index(i))


# -- operations ---------------------------------------------------------------


def commutator(a: HElement, b: HElement) -> HElement:
    """[a, b] = ab - ba."""
    return a * b - b * a


def deg1(a: HElement):
    """max |I| + |J| over stored monomials; MINUS_INF for 0."""
    if not a.terms:
        return MINUS_INF
    return max(sum(I) + sum(J) for (_, I, J) in a.terms)


def deg2(a: HElement):
    """max 2m + |I| + |J| over stored monomials; MINUS_INF for 0."""
    if not a.terms:
        return MINUS_INF
    return max(2 * m + sum(I) + sum(J) for (m, I, J) in a.terms)


def specialize_weyl(a: HElement) -> HElement:
    """Image of a under h -> 1, as a Weyl-mode element."""
    if a.ctx.is_weyl:
        raise UnsupportedModeError("element is already in Weyl mode")
    wctx = AlgebraContext(a.ctx.n, a.ctx.field, MODE_WEYL)
    f = a.ctx.field
    out: dict = {}
    for (m, I, J), c in a.terms.items():
        f.acc(out, (0, I, J), c)
    return HElement(wctx, out)


# -- characteristic p: decomposition over the centre ------------------------


def centre_ring(ctx: AlgebraContext) -> PolyRing:
    """k[h, X_1..X_n, Y_1..Y_n] with X_i = x_i^p, Y_i = y_i^p (char p)."""
    p = ctx.field.characteristic
    if p == 0:
        raise UnsupportedCharacteristicError(
            "the centre ring in 2n+1 variables exists only in characteristic p"
        )
    names = (
        ("h",)
        + tuple(f"X{i}" for i in range(1, ctx.n + 1))
        + tuple(f"Y{i}" for i in range(1, ctx.n + 1))
    )
    return PolyRing(names, ctx.field)


def central_decompose(a: HElement) -> dict:
    """Write a = sum r_{I,J}(h, x^p, y^p) x^I y^J with 0 <= I, J < p.

    Returns a map from reduced monomial keys (0, I, J) to centre
    polynomials; the decomposition is unique.
    """
    p = a.ctx.field.characteristic
    if p == 0:
        raise UnsupportedCharacteristicError("central decomposition needs char p")
    ring = centre_ring(a.ctx)
    parts: dict = {}
    for (m, I, J), c in a.terms.items():
        key = (0, tuple(e % p for e in I), tuple(e % p for e in J))
        exps = (m,) + tuple(e // p for e in I) + tuple(e // p for e in J)
        ring.field.acc(parts.setdefault(key, {}), exps, c)
    return {key: Poly(ring, terms) for key, terms in parts.items() if terms}


def central_recompose(ctx: AlgebraContext, parts: dict) -> HElement:
    """Inverse of central_decompose: expand centre polynomials back into H_n."""
    p = ctx.field.characteristic
    if p == 0:
        raise UnsupportedCharacteristicError("central recomposition needs char p")
    n = ctx.n
    f = ctx.field
    out: dict = {}
    for (m0, I0, J0), poly in parts.items():
        for exps, c in poly.terms.items():
            key = (
                m0 + exps[0],
                tuple(I0[i] + p * exps[1 + i] for i in range(n)),
                tuple(J0[i] + p * exps[1 + n + i] for i in range(n)),
            )
            f.acc(out, key, c)
    return HElement(ctx, out)
