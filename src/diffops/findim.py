"""Differential filtration of finite-dimensional algebras.

A FinAlgebra is fields.StructureAlgebra with scalar structure constants.
The filtration is exact linear algebra over Q or F_p on the coordinate
space End(A) of a FinAlgebra A.  Z_0 is the span of both-sided multiples of the bimodule
centre of End(A), and each next level is the bimodule span of the
preimage of the centre of the quotient.  One echelon class, LinearSubspace,
holds a reduced row echelon basis by sparse rows grown one vector at a time;
a level grows from the one below it by closing its new vectors under
both-sided multiplication, and each level is returned as a copy.
The same machinery runs relative to a central subalgebra, which
dominates the absolute filtration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .fields import DUAL_NUMBERS, FieldSpec, StructureAlgebra, matrix_units, read_record


class LinearSubspace:
    """Subspace of a coordinate space, held as a reduced row echelon basis.

    The rows are held by their nonzero entries, row[pivot] = {column: value};
    pivots and rows give them by ascending pivot, rows in full coordinates
    built when read.  The library never changes a subspace after returning
    it, so a returned subspace hashes by its span.
    """

    __slots__ = ("ambient", "field", "row")

    def __init__(self, ambient: int, field: FieldSpec, vectors=()):
        self.ambient = ambient
        self.field = field
        self.row = {}  # pivot column -> row
        if vectors:
            _rref(self, _sparse(vectors, ambient))

    @property
    def dim(self) -> int:
        return len(self.row)

    @property
    def pivots(self) -> tuple:
        return tuple(sorted(self.row))

    @property
    def rows(self) -> tuple:
        zero = self.field.zero
        return tuple(
            tuple(self.row[q].get(k, zero) for k in range(self.ambient)) for q in self.pivots
        )

    def copy(self) -> LinearSubspace:
        out = LinearSubspace(self.ambient, self.field)
        out.row = {q: dict(r) for q, r in self.row.items()}
        return out

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse([vec], self.ambient)[0])

    def contains_subspace(self, other: LinearSubspace) -> bool:
        return not any(self._reduce(r) for r in other.row.values())

    def __eq__(self, other):
        return (
            isinstance(other, LinearSubspace)
            and self.ambient == other.ambient
            and self.field == other.field
            and self.row == other.row
        )

    def __hash__(self):
        return hash((self.ambient, self.field, self.rows))

    def _reduce(self, vec: dict) -> dict:
        """Residual of vec modulo the span.

        Every row vanishes at the other pivots, so vec[q] is the coefficient
        of the row with pivot q.
        """
        out = dict(vec)
        for q, c in vec.items():
            row = self.row.get(q)
            if row is not None:
                for k, x in row.items():
                    out[k] = out.get(k, 0) - c * x
        return _pruned(out, self.field.characteristic)

    def _insert(self, vec: dict) -> bool:
        """Add vec to the span; False when it was already there.

        The residual is normalised at its first nonzero entry q, and q is
        cleared from the older rows.
        """
        r = self._reduce(vec)
        if not r:
            return False
        f = self.field
        p = f.characteristic
        q = min(r)
        inv = f.inv(r[q])
        r = _pruned({k: c * inv for k, c in r.items()}, p)
        for row in self.row.values():
            c = row.get(q)
            if c:
                for k, x in r.items():
                    v = row.get(k, 0) - c * x
                    if p:
                        v %= p
                    if v:
                        row[k] = v
                    else:
                        del row[k]
        self.row[q] = r
        return True

    def _kernel(self) -> list[dict]:
        """Basis of the solutions x of row . x = 0 over all rows, one per free column."""
        f = self.field
        at = {}  # free column -> entries of its solution at the pivots
        for q, row in self.row.items():
            for k, c in row.items():
                if k != q:
                    at.setdefault(k, {})[q] = f.neg(c)
        return [
            {fc: f.one, **at.get(fc, {})}
            for fc in range(self.ambient)
            if fc not in self.row
        ]


def _sparse(vectors, ambient):
    """Each vector as {index: value} of its nonzero entries, after a length check."""
    out = []
    for v in vectors:
        if len(v) != ambient:
            raise ValidationError("vector length does not match ambient dimension")
        out.append({k: c for k, c in enumerate(v) if c})
    return out


def _pruned(vec, p):
    """vec without its zero entries, reduced mod p in characteristic p."""
    if p:
        return {k: r for k, c in vec.items() if (r := c % p)}
    return {k: c for k, c in vec.items() if c}


def _rref(sub: LinearSubspace, vectors) -> LinearSubspace:
    """Grow sub by vectors given by their nonzero entries, up to full rank."""
    for v in vectors:
        if sub.dim == sub.ambient:
            break
        sub._insert(v)
    return sub


def nullspace(rows, ncols, field) -> list[tuple]:
    """Basis of the solution space of (rows) . x = 0."""
    kernel = LinearSubspace(ncols, field, rows)._kernel()
    return [tuple(sol.get(k, field.zero) for k in range(ncols)) for sol in kernel]


class FinAlgebra(StructureAlgebra):
    """Finite-dimensional algebra by scalar structure constants e_i e_j = sum c_ijk e_k."""

    field = StructureAlgebra.domain


# -- End(A) as flat row-major d x d matrices, held by their nonzero entries -------


def _multiplier(mat):
    """A multiplication matrix L as (by_col, by_row): the nonzero entries
    (row, value) of each column and (column, value) of each row."""
    d = len(mat)
    by_col = [[] for _ in range(d)]
    by_row = [[] for _ in range(d)]
    for i, row in enumerate(mat):
        for j, c in enumerate(row):
            if c:
                by_col[j].append((i, c))
                by_row[i].append((j, c))
    return by_col, by_row


def _mat_mul(mult, phi: dict, d: int, p: int, left: bool) -> dict:
    """L.phi (left) or phi.L for a multiplier L and a flat d x d matrix phi."""
    by_col, by_row = mult
    out = {}
    for pos, v in phi.items():
        i, j = divmod(pos, d)
        if left:  # phi[i][j] reaches (L.phi)[r][j] through L[r][i]
            for r, c in by_col[i]:
                k = r * d + j
                out[k] = out.get(k, 0) + c * v
        else:  # phi[i][j] reaches (phi.L)[i][s] through L[j][s]
            for s, c in by_row[j]:
                k = i * d + s
                out[k] = out.get(k, 0) + v * c
    return _pruned(out, p)


def _commutator_column(mult, a: int, b: int, d: int, p: int) -> dict:
    """[L, E_ab] read off L: L[i][a] at (i, b) and -L[b][j] at (a, j)."""
    by_col, by_row = mult
    out = {i * d + b: c for i, c in by_col[a]}
    for j, c in by_row[b]:
        k = a * d + j
        out[k] = out.get(k, 0) - c
    return _pruned(out, p)


def _close(ech: LinearSubspace, vectors, mults, d: int):
    """Grow ech by vectors, then by L.phi and phi.L for every multiplier L
    and every phi that went in, until nothing new goes in or ech is full.

    The multipliers span a unital subalgebra, so this adds the span of
    every a.phi.b; each vector is multiplied once.
    """
    p = ech.field.characteristic
    full = d * d
    queue = []
    for v in vectors:
        if ech.dim == full:
            return
        if ech._insert(v):
            queue.append(v)
    while queue:
        phi = queue.pop()
        for mult in mults:
            for left in (True, False):
                if ech.dim == full:
                    return
                prod = _mat_mul(mult, phi, d, p, left)
                if ech._insert(prod):
                    queue.append(prod)


def _centre_of_quotient(alg, mults, prev: LinearSubspace | None) -> list[dict]:
    """Operators phi with [L, phi] inside prev (or zero) for every multiplier L.

    prev is a bimodule, so it lies among the solutions; they are prev plus
    the solutions that vanish at prev's pivots, and only a basis of the
    latter is returned.  The unknowns are the unit matrices E_ab off those
    pivots, one column of constraints per multiplier and unknown.
    """
    d = alg.dim
    f = alg.field
    p = f.characteristic
    free = [k for k in range(d * d) if prev is None or k not in prev.row]
    system = {}  # (multiplier, position) -> {unknown: coefficient}
    for u, k in enumerate(free):
        a, b = divmod(k, d)
        for g, mult in enumerate(mults):
            col = _commutator_column(mult, a, b, d, p)
            if prev is not None:
                col = prev._reduce(col)
            for q, c in col.items():
                system.setdefault((g, q), {})[u] = c
    sols = _rref(LinearSubspace(len(free), f), system.values())._kernel()
    return [{free[u]: c for u, c in sol.items()} for sol in sols]


def _left_mults(alg, coords=None):
    """The multipliers of left multiplication by each of coords (default: the basis)."""
    if coords is None:
        coords = [alg.basis_element(i) for i in range(alg.dim)]
    return [_multiplier(alg.mult_matrix(v)) for v in coords]


def bimodule_center(alg: FinAlgebra) -> LinearSubspace:
    """Operators commuting with the bimodule action; the right multiplications."""
    mults = _left_mults(alg)
    return _rref(LinearSubspace(alg.dim**2, alg.field), _centre_of_quotient(alg, mults, None))


def bimodule_span(alg: FinAlgebra, sub: LinearSubspace, mults=None) -> LinearSubspace:
    """Span of a . phi . b over basis multipliers a, b and phi in the subspace.

    Given mults must span a unital subalgebra of End(A), as the left
    multiplications by the basis (the default) do.
    """
    d = alg.dim
    mults = _left_mults(alg) if mults is None else [_multiplier(L) for L in mults]
    ech = LinearSubspace(d * d, alg.field)
    _close(ech, sub.row.values(), mults, d)
    return ech


@dataclass
class FiltrationReport:
    """Nested levels of the differential filtration with their dimensions."""

    levels: list  # list of (index, LinearSubspace)
    stabilized_at: int | None  # None means not stabilized within the cap

    @property
    def dims(self) -> list[int]:
        return [sub.dim for _, sub in self.levels]

    def subspace_at(self, m: int) -> LinearSubspace:
        if m < len(self.levels):
            return self.levels[m][1]
        if self.stabilized_at is None:
            raise ValidationError(f"level {m} not computed and chain not stabilized")
        return self.levels[-1][1]

    def dimension_at(self, m: int) -> int:
        return self.subspace_at(m).dim


def _filtration(alg: FinAlgebra, mults, i_max: int) -> FiltrationReport:
    """Level 0 is the closure of the centre; level i+1 is level i closed
    together with the solutions of the centre of End(A)/level i."""
    d = alg.dim
    full = d * d
    ech = LinearSubspace(full, alg.field)
    _close(ech, _centre_of_quotient(alg, mults, None), mults, d)
    levels = [(0, ech.copy())]
    stabilized = 0 if ech.dim == full else None
    i = 0
    while stabilized is None and i < i_max:
        i += 1
        before = ech.dim
        _close(ech, _centre_of_quotient(alg, mults, ech), mults, d)
        if ech.dim == before:
            stabilized = i - 1
            break
        levels.append((i, ech.copy()))
        if ech.dim == full:
            stabilized = i
    return FiltrationReport(levels, stabilized)


def z_filtration(alg: FinAlgebra, i_max: int | None = None) -> FiltrationReport:
    """The differential filtration of End(A) as an A-bimodule."""
    if i_max is None:
        i_max = alg.dim * alg.dim
    return _filtration(alg, _left_mults(alg), i_max)


def relative_z_filtration(
    alg: FinAlgebra, central_basis, i_max: int | None = None
) -> FiltrationReport:
    """The same filtration with the bimodule structure of a central subalgebra.

    central_basis is a list of coordinate vectors; it must span a unital
    subalgebra of the centre of A.
    """
    if i_max is None:
        i_max = alg.dim * alg.dim
    f = alg.field
    try:
        basis = [[f.coerce(c) for c in v] for v in central_basis]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad central subalgebra basis: {exc}") from None
    if not basis:
        raise ValidationError("central subalgebra basis is empty")
    span = LinearSubspace(alg.dim, f, basis)
    if span.dim != len(basis):
        raise ValidationError("central subalgebra basis is linearly dependent")
    if not span.contains(alg.unit_element()):
        raise ValidationError("central subalgebra does not contain the unit")
    for v in basis:
        for i in range(alg.dim):
            e = alg.basis_element(i)
            if alg.mul_elements(v, e) != alg.mul_elements(e, v):
                raise ValidationError("subalgebra basis element is not central")
        for w in basis:
            if not span.contains(alg.mul_elements(v, w)):
                raise ValidationError("basis does not span a subalgebra")
    return _filtration(alg, _left_mults(alg, basis), i_max)


# -- small builders ---------------------------------------------------------------


def field_algebra(field: FieldSpec) -> FinAlgebra:
    return FinAlgebra(field, [[[1]]], 0, ["1"])


def dual_numbers_algebra(field: FieldSpec) -> FinAlgebra:
    return FinAlgebra(field, DUAL_NUMBERS[0], 0, DUAL_NUMBERS[1])


def matrix_algebra(n: int, field: FieldSpec) -> FinAlgebra:
    """M_n(k) in the basis of matrix units e_(i,j), with the unit for e_nn last."""
    table, labels = matrix_units(n)
    last = list(range(1, n * n)) + [0]
    table = [[[table[a][b][c] for c in last] for b in last] for a in last]
    return FinAlgebra(field, table, n * n - 1, labels[1:] + labels[:1])


def tensor_algebra(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """A (x) B with the product basis, unit at (unit, unit)."""
    if a.field != b.field:
        raise ValidationError("tensor factors over different fields")
    f = a.field
    db = b.dim
    d = a.dim * db
    table = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for i, row in enumerate(a._nz):
        for j, cell in enumerate(row):
            for u, brow in enumerate(b._nz):
                for v, bcell in enumerate(brow):
                    out = table[i * db + u][j * db + v]
                    for k, c1 in cell:
                        for w, c2 in bcell:
                            out[k * db + w] = f.mul(c1, c2)
    labels = [f"{la}.{lb}" for la in a.labels for lb in b.labels]
    return FinAlgebra(f, table, a.unit * db + b.unit, labels)


# -- records ------------------------------------------------------------------------


def finalgebra_to_record(alg: FinAlgebra) -> dict:
    return {
        "dim": alg.dim,
        "characteristic": alg.field.characteristic,
        "variables": [],
        "unit": alg.unit,
        "labels": list(alg.labels),
        "table": [[[alg.field.format(c) for c in cell] for cell in row] for row in alg.table],
    }


def finalgebra_from_record(rec: dict) -> FinAlgebra:
    def scalars(field, variables):
        if variables:
            raise ValidationError("finite-dimensional oracle needs scalar entries")
        return field, field.coerce

    return FinAlgebra(*read_record(rec, scalars))
