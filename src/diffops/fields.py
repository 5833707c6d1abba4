"""Exact scalar arithmetic over Q or over a prime field F_p, and the
shared cores built on it.

Scalars are plain values: ``fractions.Fraction`` in characteristic 0 and
``int`` in the range [0, p) in characteristic p.  A FieldSpec carries the
characteristic and provides coercion and arithmetic helpers; its ``mul``
also takes a plain ``int`` weight.  Every divided-power weight of the
operator calculus is such an integer, and ``contractions`` enumerates
their per-coordinate choices, at most MAX_PICKS of them per product.
``bilinear`` is the one loop over term pairs of the products: a pair
kernel on raw keys (``heisenberg._mul_mono``, ``operators._compose_mono``
and the like) normal-orders each pair.  No floating point anywhere.
Combination is the one linear-combination core of the value types, and
StructureAlgebra the one structure-constant algebra, over a FieldSpec
(findim.FinAlgebra) or a PolyRing (azumaya.CenteredFreeAlgebra).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import IncompatibleContextError, MathError
from .errors import UnsupportedCharacteristicError, ValidationError

#: most picks (the product of the per-coordinate option counts) that one
#: monomial product may enumerate
MAX_PICKS = 100_000


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

    def mul(self, a, b):
        c = a * b
        return c % self.characteristic if self.characteristic else c

    def acc(self, out: dict, key, c):
        """Add c (reduced) into out[key]; the key is dropped when the sum is zero."""
        v = out.get(key)
        v = c if v is None else self.add(v, c)
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

    # -- text form --------------------------------------------------------

    def format(self, a) -> str:
        try:
            if self.characteristic == 0 and a.denominator != 1:
                return f"{a.numerator}/{a.denominator}"
            return str(a if self.characteristic == 0 else int(a))
        except ValueError:  # Python's cap on int/str conversion
            raise MathError("coefficient too long to print") from None


def contractions(p: int, choices) -> list:
    """Every pick of one (pick, weight) option per coordinate, with its weight.

    ``choices`` gives the options of each coordinate, each an iterable that
    holds the zero pick; weights are integers.  Returns (picks, product of
    weights) pairs; an option whose weight is 0 mod p is dropped, and in
    characteristic p the products are reduced mod p.  More than MAX_PICKS
    picks raise MathError before any is formed, with at most as many options read.
    """
    lists, picks = [], 1
    for options in choices:
        lists.append(list(islice(options, MAX_PICKS // picks + 1)))
        picks *= len(lists[-1])
        if picks > MAX_PICKS:
            raise MathError(f"monomial product needs more than {MAX_PICKS} contraction picks")
    out = [((), 1)]
    for options in lists:
        if p:  # c is a unit mod p, so c * w is 0 mod p only when w is
            out = [(ks + (k,), c * w % p) for ks, c in out for k, w in options if w % p]
        else:
            out = [(ks + (k,), c * w) for ks, c in out for k, w in options]
    return out


def bilinear(parent, mono, a: dict, b: dict) -> dict:
    """The product of two term dicts, normal-ordered pair by pair:
    mono(parent, key1, key2, c, out) accumulates c * (key1 * key2) into out."""
    mul, out = parent.field.mul, {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            mono(parent, k1, k2, mul(c1, c2), out)
    return out


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

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.parent is not other.parent and self.parent != other.parent:
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


# -- algebras by structure constants ----------------------------------------------


class StructureAlgebra:
    """An algebra free of rank N over a coefficient domain, by structure constants.

    e_i e_j = sum_k table[i][j][k] e_k, and e_unit is the unit.  The domain
    is a FieldSpec (scalar constants) or a PolyRing (polynomial constants);
    its coerce, mul and acc are all the arithmetic used here.  Elements are
    lists of N coordinates.
    """

    __slots__ = ("domain", "dim", "table", "unit", "labels", "zero", "one", "_nz")
    prefix = "e"  # of the default labels

    def __init__(self, domain, table, unit: int = 0, labels=None):
        d = len(table)
        for row in table:
            if len(row) != d or any(len(cell) != d for cell in row):
                raise ValidationError("structure constants are not N x N x N")
        if not 0 <= unit < d:
            raise ValidationError(f"unit index {unit} is out of range for dimension {d}")
        if labels is None:
            labels = [f"{self.prefix}{i}" for i in range(d)]
        if not isinstance(labels, (list, tuple)) or len(labels) != d or not all(
            isinstance(s, str) for s in labels
        ):
            raise ValidationError(f"labels must be a list of {d} strings")
        self.domain = domain
        self.dim = d
        self.table = [[[domain.coerce(c) for c in cell] for cell in row] for row in table]
        self.unit = unit
        self.labels = list(labels)
        self.zero = domain.coerce(0)
        self.one = domain.coerce(1)
        self._nz = [
            [[(k, c) for k, c in enumerate(cell) if c] for cell in row]
            for row in self.table
        ]
        self._validate()

    def _validate(self):
        t, u, r = self.table, self.unit, range(self.dim)
        for j in r:
            for k in r:
                want = self.one if j == k else self.zero
                if t[u][j][k] != want or t[j][u][k] != want:
                    raise ValidationError("marked unit element is not a unit")
        # (e_i e_j) e_l == e_i (e_j e_l), summed over nonzero constants only
        nz, mul, acc = self._nz, self.domain.mul, self.domain.acc
        for i in r:
            for j in r:
                for l in r:
                    lhs = {}
                    for k, a in nz[i][j]:
                        for m, b in nz[k][l]:
                            acc(lhs, m, mul(a, b))
                    rhs = {}
                    for k, a in nz[j][l]:
                        for m, b in nz[i][k]:
                            acc(rhs, m, mul(a, b))
                    if lhs != rhs:
                        raise ValidationError("structure constants not associative")

    def zero_element(self) -> list:
        return [self.zero] * self.dim

    def basis_element(self, i: int) -> list:
        out = self.zero_element()
        out[i] = self.one
        return out

    def unit_element(self) -> list:
        return self.basis_element(self.unit)

    def mul_elements(self, u, v) -> list:
        zero, nz, mul, acc = self.zero, self._nz, self.domain.mul, self.domain.acc
        out = {}
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        ab = mul(a, b)
                        for k, c in nz[i][j]:
                            acc(out, k, mul(ab, c))
        return [out.get(k, zero) for k in range(self.dim)]

    def mult_matrix(self, u, right: bool = False) -> list:
        """Matrix of c -> u c (c -> c u if right); column s is the image of e_s."""
        zero, nz, mul, acc = self.zero, self._nz, self.domain.mul, self.domain.acc
        r = range(self.dim)
        rows = [{} for _ in r]
        for i, a in enumerate(u):
            if a:
                for s in r:
                    for t, c in nz[s][i] if right else nz[i][s]:
                        acc(rows[t], s, mul(a, c))
        return [[row.get(s, zero) for s in r] for row in rows]


#: k[eps]/(eps^2) in the basis 1, eps, as integer structure constants and labels
DUAL_NUMBERS = ([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], ["1", "eps"])


def matrix_units(n: int):
    """M_n in the basis 1, e11, e12, ..., e_n(n-1): every matrix unit but e_nn,
    which the unit replaces.  Integer structure constants and labels, unit first."""
    if n < 1:
        raise ValidationError("matrix size must be >= 1")
    pairs = [(i, j) for i in range(n) for j in range(n)][:-1]
    basis = [{(i, i): 1 for i in range(n)}] + [{ij: 1} for ij in pairs]

    def coords(a, b):  # of the product ab; the unit's coefficient is its (n, n) entry
        prod = {}
        for (i, t), x in a.items():
            for (s, j), y in b.items():
                if t == s:
                    prod[i, j] = prod.get((i, j), 0) + x * y
        c = prod.get((n - 1, n - 1), 0)
        return [c] + [prod.get((i, j), 0) - (c if i == j else 0) for i, j in pairs]

    table = [[coords(a, b) for b in basis] for a in basis]
    return table, ["1"] + [f"e{i + 1}{j + 1}" for i, j in pairs]


def expect(value, kind):
    if not isinstance(value, kind):
        raise TypeError(f"{value!r} is not a {kind.__name__}")
    return value


def read_record(rec: dict, domain_of):
    """(domain, table, unit, labels) of a structure-constant record, or ValidationError.

    domain_of(field, variables) gives the coefficient domain and the reader
    of one table entry (a string); the algebra's constructor checks the rest.
    """
    try:
        field = FieldSpec(int(rec["characteristic"]))
        variables = tuple(str(v) for v in rec.get("variables", ()))
        unit = int(rec.get("unit", 0))
        table = expect(rec["table"], list)
        if int(rec.get("dim", len(table))) != len(table):
            raise ValueError("table size does not match dim")
        domain, entry = domain_of(field, variables)
        table = [
            [[entry(expect(t, str)) for t in expect(cell, list)] for cell in expect(row, list)]
            for row in table
        ]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad algebra record: {exc}") from None
    return domain, table, unit, rec.get("labels")


def _parse_scalar_literal(text: str):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return int(text)
