"""Free-over-centre algebras and their differential-operator matrices.

A CenteredFreeAlgebra is an algebra A that is free of finite rank over a
central polynomial subring R, presented by structure constants
a_i a_j = sum_k r_{i,j}^k a_k with a_0 = 1.  The dual basis is the basis
itself with the coordinate projections f_i.  Built-in families: matrix
algebras M_n(R) and the Heisenberg algebra H_n over its centre in
characteristic p.

Every k-linear operator on A is an N x N matrix of operators on R
(columns indexed by the input coordinate); it has order <= m exactly when
every entry does.  The module provides the diagonal extension of base
operators, the basis operators that permute coordinates, the
component/assembly maps between operators on A and matrices of operators
on R, the ideal restriction/lift maps, and the determinant test for the
two-sided multiplication map A (x)_R A^o -> Hom_R(A, A).
"""

from __future__ import annotations

import operator
from itertools import product
from math import comb, prod

from .errors import MathError, ValidationError
from .fields import DUAL_NUMBERS, FieldSpec, StructureAlgebra, expect, matrix_units
from .fields import read_record
from .heisenberg import MODE_WEYL, AlgebraContext, HElement, central_decompose, centre_ring
from .polydiff import PDOp, grothendieck_order_check, p_compose
from .polyring import Poly, PolyRing, bareiss_determinant


class CenteredFreeAlgebra(StructureAlgebra):
    """Finite free algebra over a central base ring, via structure constants.

    The structure-constant half (checks, products, multiplication
    matrices) is fields.StructureAlgebra over the ring, with a_0 = 1.
    """

    ring = StructureAlgebra.domain
    prefix = "a"

    def __init__(self, ring: PolyRing, table, labels=None):
        super().__init__(ring, table, 0, labels)

    def add_elements(self, u, v):
        return [a + b for a, b in zip(u, v)]

    def coordinate(self, u: list[Poly], i: int) -> Poly:
        """The dual-basis functional f_i."""
        return u[i]


# -- built-in families ----------------------------------------------------------


def build_matrix_algebra(n: int, ring: PolyRing) -> CenteredFreeAlgebra:
    """M_n(R) with basis {1} u {e_ij : (i,j) != (n,n)} so that a_0 = 1."""
    return CenteredFreeAlgebra(ring, *matrix_units(n))


def heisenberg_basis_exponents(n: int, p: int):
    """Reduced exponent pairs (I, J) with 0 <= I, J < p, unit first."""
    singles = list(product(range(p), repeat=n))
    return [(I, J) for I in singles for J in singles]


def _charp_algebra(ctx, ring, split, labels=None) -> CenteredFreeAlgebra:
    """The family on the basis x^I y^J (0 <= I, J < p) over a central ring;
    split(u) gives the coordinates of u as {(I, J): polynomial}."""
    exps = heisenberg_basis_exponents(ctx.n, ctx.field.characteristic)
    basis = [HElement.monomial(ctx, 0, I, J) for I, J in exps]
    zero = ring.zero()
    products = [[split(a * b) for b in basis] for a in basis]
    table = [[[parts.get(e, zero) for e in exps] for parts in row] for row in products]
    return CenteredFreeAlgebra(ring, table, labels)


def build_heisenberg_charp(n: int, p: int) -> CenteredFreeAlgebra:
    """H_n over its centre k[h, x^p, y^p], basis x^I y^J with 0 <= I, J < p."""
    ctx = AlgebraContext(n, FieldSpec(p))
    labels = []
    for I, J in heisenberg_basis_exponents(n, p):
        name = "".join(f"x{i + 1}^{e}" for i, e in enumerate(I) if e) + "".join(
            f"y{i + 1}^{e}" for i, e in enumerate(J) if e
        )
        labels.append(name or "1")

    def split(u):
        return {(I, J): poly for (_m, I, J), poly in central_decompose(u).items()}

    alg = _charp_algebra(ctx, centre_ring(ctx), split, labels)
    alg.heisenberg_params = (n, p)
    return alg


def build_weyl_charp(n: int, p: int) -> CenteredFreeAlgebra:
    """A_n (h = 1) over its centre k[x^p, y^p], basis x^I y^J with 0 <= I, J < p.

    Unlike the h-graded family, this one passes the two-sided
    multiplication isomorphism test at every point of the centre.
    """
    ctx = AlgebraContext(n, FieldSpec(p), MODE_WEYL)
    ring = PolyRing(tuple(f"{v}{i}" for v in "XY" for i in range(1, n + 1)), FieldSpec(p))

    def split(u):
        out = {}
        for (_m, I, J), c in u.terms.items():
            red = (tuple(e % p for e in I), tuple(e % p for e in J))
            centre = tuple(e // p for e in I) + tuple(e // p for e in J)
            ring.acc(out, red, ring.monomial(centre, c))
        return out

    return _charp_algebra(ctx, ring, split)


def build_dual_numbers(ring: PolyRing) -> CenteredFreeAlgebra:
    """R[eps]/(eps^2): commutative, free of rank 2, not Azumaya over R."""
    return CenteredFreeAlgebra(ring, *DUAL_NUMBERS)


# -- operator matrices ----------------------------------------------------------


class OperatorMatrix:
    """Operator on a free algebra, as an N x N matrix of base-ring operators.

    Column j holds the operators applied to the coordinate of a_j; row i
    collects contributions to the coordinate of a_i.
    """

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = entries
        n = len(entries)
        for row in entries:
            if len(row) != n:
                raise ValidationError("operator matrix is not square")

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, ring, n, at=None) -> "OperatorMatrix":
        """The n x n zero matrix, except for the entries at = {(i, j): op}."""
        at = at or {}
        zero = PDOp.zero(ring)
        return cls(ring, [[at.get((i, j), zero) for j in range(n)] for i in range(n)])

    @classmethod
    def identity(cls, ring, n) -> "OperatorMatrix":
        one = PDOp.identity(ring)
        return cls.zero(ring, n, at={(i, i): one for i in range(n)})

    def _check(self, other):
        if self.ring != other.ring or self.size != other.size:
            raise ValidationError("operator matrices are not compatible")

    def __eq__(self, other):
        return (
            isinstance(other, OperatorMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (self.ring, tuple(tuple(row) for row in self.entries))
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def _entrywise(self, op, other=None) -> "OperatorMatrix":
        """op of each entry, or of each pair of entries of self and other."""
        if other is None:
            return OperatorMatrix(self.ring, [[op(e) for e in row] for row in self.entries])
        self._check(other)
        return OperatorMatrix(
            self.ring,
            [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)],
        )

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def __neg__(self):
        return self._entrywise(operator.neg)

    def scale(self, c) -> "OperatorMatrix":
        return self._entrywise(lambda e: e.scale(c))

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """(self o other) as operators; matrix product with entry composition."""
        self._check(other)
        n = self.size
        out = OperatorMatrix.zero(self.ring, n)
        for i in range(n):
            for j in range(n):
                acc = PDOp.zero(self.ring)
                for t in range(n):
                    if self.entries[i][t].is_zero() or other.entries[t][j].is_zero():
                        continue
                    acc = acc + p_compose(self.entries[i][t], other.entries[t][j])
                out.entries[i][j] = acc
        return out

    def apply_to(self, coords: list[Poly]) -> list[Poly]:
        from .polydiff import p_apply

        n = self.size
        out = [self.ring.zero() for _ in range(n)]
        for j, r in enumerate(coords):
            if r.is_zero():
                continue
            for i in range(n):
                e = self.entries[i][j]
                if not e.is_zero():
                    out[i] = out[i] + p_apply(e, r)
        return out


def commutator_matrix(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    return a.compose(b) - b.compose(a)


def _mult_operators(alg: CenteredFreeAlgebra, mat) -> OperatorMatrix:
    return OperatorMatrix(alg.ring, [[PDOp.mult(c) for c in row] for row in mat])


def lambda_matrix(alg: CenteredFreeAlgebra, coords: list[Poly]) -> OperatorMatrix:
    """Left multiplication by the element with the given coordinates."""
    return _mult_operators(alg, alg.mult_matrix(coords))


def rho_matrix(alg: CenteredFreeAlgebra, coords: list[Poly]) -> OperatorMatrix:
    """Right multiplication by the element with the given coordinates."""
    return _mult_operators(alg, alg.mult_matrix(coords, right=True))


def diagonal_extend(alg: CenteredFreeAlgebra, phi: PDOp) -> OperatorMatrix:
    """Extend a base-ring operator coordinatewise: (r a_i) -> phi(r) a_i."""
    if phi.ring != alg.ring:
        raise ValidationError("operator ring does not match the algebra base ring")
    return OperatorMatrix.zero(alg.ring, alg.dim, at={(i, i): phi for i in range(alg.dim)})


def matrix_unit_op(alg: CenteredFreeAlgebra, l: int, k: int) -> OperatorMatrix:
    """The order-0 operator sending a_k to a_l and the other basis coordinates to 0."""
    if not (0 <= l < alg.dim and 0 <= k < alg.dim):
        raise ValidationError("basis operator index out of range")
    return OperatorMatrix.zero(alg.ring, alg.dim, at={(l, k): PDOp.identity(alg.ring)})


def coordinate_projection(alg: CenteredFreeAlgebra, j: int) -> OperatorMatrix:
    """f_j followed by the inclusion of R = R.a_0 into the algebra."""
    if not 0 <= j < alg.dim:
        raise ValidationError("projection index out of range")
    return OperatorMatrix.zero(alg.ring, alg.dim, at={(0, j): PDOp.identity(alg.ring)})


def component(alg: CenteredFreeAlgebra, phi: OperatorMatrix, i: int, j: int) -> PDOp:
    """f_i o Phi o (right multiplication by a_j), restricted to R."""
    if not (0 <= i < alg.dim and 0 <= j < alg.dim):
        raise ValidationError("component index out of range")
    composed = phi.compose(rho_matrix(alg, alg.basis_element(j)))
    return composed.entries[i][0]


def decompose_operator(alg: CenteredFreeAlgebra, phi: OperatorMatrix):
    """All components f_i Phi rho_{a_j} as an N x N array of base operators."""
    return [
        [component(alg, phi, i, j) for j in range(alg.dim)] for i in range(alg.dim)
    ]


def reconstruct_operator(alg: CenteredFreeAlgebra, comps) -> OperatorMatrix:
    """Assemble sum_{i,j} rho_{a_i} o extend(comps[i][j]) o f_j."""
    n = alg.dim
    if len(comps) != n or any(len(row) != n for row in comps):
        raise ValidationError("component array is not N x N")
    out = OperatorMatrix.zero(alg.ring, n)
    for i in range(n):
        rho_i = rho_matrix(alg, alg.basis_element(i))
        for j in range(n):
            if comps[i][j].is_zero():
                continue
            piece = rho_i.compose(
                diagonal_extend(alg, comps[i][j]).compose(
                    coordinate_projection(alg, j)
                )
            )
            out = out + piece
    return out


def order_check(phi: OperatorMatrix, m: int) -> bool:
    """Order <= m on the free algebra: every entry has Grothendieck order <= m."""
    return all(
        grothendieck_order_check(e, m) for row in phi.entries for e in row
    )


def restrict_to_base(alg: CenteredFreeAlgebra, phi: OperatorMatrix) -> PDOp:
    """The ideal map to the base ring: f_0 Phi f_0 restricted to R."""
    return component(alg, phi, 0, 0)


def lift_from_base(alg: CenteredFreeAlgebra, gens) -> list[OperatorMatrix]:
    """The ideal map from the base ring, at generator level: phi -> extend(phi)."""
    return [diagonal_extend(alg, g) for g in gens]


def bimodule_scale(
    alg: CenteredFreeAlgebra, r: Poly, phi: OperatorMatrix, s: Poly
) -> OperatorMatrix:
    """r . Phi . s for central r, s: c -> r Phi(s c)."""
    mr = diagonal_extend(alg, PDOp.mult(r))
    ms = diagonal_extend(alg, PDOp.mult(s))
    return mr.compose(phi).compose(ms)


def azumaya_determinant(alg: CenteredFreeAlgebra, max_dim: int = 8) -> Poly:
    """Determinant of the map a_i (x) a_j^o -> (c -> a_i c a_j).

    The map is written as an N^2 x N^2 matrix over the base ring: column
    i N + j holds a_i a_k a_j in coordinates, at rows l N + k.  Most of its
    entries are 0 or nonzero constants, which bareiss_determinant takes as
    pivots before it runs Bareiss on any block left over.  Algebras of
    dimension above max_dim raise MathError, because the determinant's
    degree grows with N^2.
    """
    n = alg.dim
    if n > max_dim:
        raise MathError(
            f"azumaya check limited to dimension {max_dim} (degree overflow guard)"
        )
    e = [alg.basis_element(i) for i in range(n)]
    prods = {
        (i, j, k): alg.mul_elements(alg.mul_elements(e[i], e[k]), e[j])
        for i, j, k in product(range(n), repeat=3)
    }
    pairs = list(product(range(n), repeat=2))
    big = [[prods[i, j, k][l] for i, j in pairs] for l, k in pairs]
    return bareiss_determinant(big, alg.ring)


def is_azumaya(alg: CenteredFreeAlgebra, max_dim: int = 8) -> bool:
    """Determinant test for a_i (x) a_j^o -> (c -> a_i c a_j) being bijective.

    The map is an isomorphism of free modules exactly when its
    determinant is a unit, i.e. a nonzero scalar.
    """
    det = azumaya_determinant(alg, max_dim)
    return det.is_constant() and not det.is_zero()


# -- H_n in characteristic p: converting normal-form operators -------------------


def doperator_to_matrix(d, alg: CenteredFreeAlgebra) -> OperatorMatrix:
    """Rewrite a normal-form operator on H_n (char p) as an operator matrix.

    Divided powers split by base-p digits: dx^[K] acts on a basis exponent
    I_b < p through C(I_b, K mod p) and on the centre variable x^p through
    the divided power of order K div p (Lucas); the multiplication part is
    split over the centre by the unique reduced decomposition.
    """
    ctx = d.ctx
    p = ctx.field.characteristic
    if p == 0:
        raise MathError("operator conversion needs characteristic p")
    n = ctx.n
    if getattr(alg, "heisenberg_params", None) != (n, p):
        raise ValidationError("algebra is not the matching Heisenberg family")
    ring = alg.ring
    exps = heisenberg_basis_exponents(n, p)
    index = {e: i for i, e in enumerate(exps)}
    out = OperatorMatrix.zero(ring, alg.dim)
    for (m, I, J, s, K, L), c in d.terms.items():
        k_low = tuple(e % p for e in K)
        k_high = tuple(e // p for e in K)
        l_low = tuple(e % p for e in L)
        l_high = tuple(e // p for e in L)
        alpha = (s,) + k_high + l_high  # orders in (h, X_1.., Y_1..)
        u = HElement.monomial(ctx, m, I, J, c)
        for j, (Ib, Jb) in enumerate(exps):
            w = prod(map(comb, Ib, k_low)) * prod(map(comb, Jb, l_low)) % p
            if w == 0:
                continue
            shifted = HElement.monomial(
                ctx, 0, map(operator.sub, Ib, k_low), map(operator.sub, Jb, l_low), w
            )
            parts = central_decompose(u * shifted)
            for (zero_m, Ir, Jr), poly in parts.items():
                i_row = index[(Ir, Jr)]
                terms = {(exp, alpha): cc for exp, cc in poly.terms.items()}
                out.entries[i_row][j] = out.entries[i_row][j] + PDOp(ring, terms)
    return out


# -- structure-constant records ---------------------------------------------------


def algebra_to_record(alg: CenteredFreeAlgebra) -> dict:
    from .printing import format_poly

    return {
        "dim": alg.dim,
        "characteristic": alg.ring.field.characteristic,
        "variables": list(alg.ring.variables),
        "labels": list(alg.labels),
        "table": [
            [[format_poly(c) for c in cell] for cell in row] for row in alg.table
        ],
    }


def algebra_from_record(rec: dict) -> CenteredFreeAlgebra:
    from .parsing import poly_from_text

    def polys(field, variables):
        ring = PolyRing(variables, field)
        return ring, lambda text: poly_from_text(ring, text)

    ring, table, _unit, labels = read_record(rec, polys)
    alg = CenteredFreeAlgebra(ring, table, labels)
    hp = rec.get("heisenberg_params")
    if hp:
        try:
            alg.heisenberg_params = tuple(int(v) for v in hp)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad algebra record: {exc}") from None
    return alg


def matrix_to_record(phi: OperatorMatrix) -> dict:
    from .printing import pdop_records

    return {
        "size": phi.size,
        "characteristic": phi.ring.field.characteristic,
        "variables": list(phi.ring.variables),
        "entries": [[pdop_records(e) for e in row] for row in phi.entries],
    }


def matrix_from_record(rec: dict) -> OperatorMatrix:
    """The operator matrix of a record, or ValidationError."""
    try:
        size = int(rec["size"])
        char = int(rec["characteristic"])
        variables = tuple(str(v) for v in rec["variables"])
        rows = expect(rec["entries"], list)
        ring = PolyRing(variables, FieldSpec(char))
        if len(rows) != size:
            raise ValidationError("operator-matrix record size mismatch")
        entries = []
        for row in rows:
            out_row = []
            for cell in expect(row, list):
                terms = {}
                for t in expect(cell, list):
                    key = (tuple(int(e) for e in t["beta"]), tuple(int(e) for e in t["alpha"]))
                    if any(e < 0 for e in key[0] + key[1]):
                        raise ValueError(f"negative exponent in {key}")
                    terms[key] = ring.field.coerce(str(t["coeff"]))
                out_row.append(PDOp(ring, terms))
            entries.append(out_row)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad operator-matrix record: {exc}") from None
    return OperatorMatrix(ring, entries)
