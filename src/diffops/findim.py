"""Brute-force differential filtration of finite-dimensional algebras.

Everything here is exact linear algebra over Q or F_p on the coordinate
space End(A) of a finite-dimensional algebra A given by structure
constants.  The filtration is computed literally from its definition:
Z_0 is the span of both-sided multiples of the bimodule centre of
End(A), and each next level is the preimage of the span of the centre of
the quotient.  The same machinery runs relative to a central subalgebra,
which dominates the absolute filtration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .fields import FieldSpec


class LinearSubspace:
    """Subspace of a coordinate space, held as a reduced row echelon basis."""

    __slots__ = ("ambient", "field", "rows", "pivots")

    def __init__(self, ambient: int, field: FieldSpec, vectors=()):
        self.ambient = ambient
        self.field = field
        rows, pivots = _rref(list(vectors), ambient, field)
        self.rows = rows
        self.pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Residual of vec modulo the subspace (zero iff vec is contained)."""
        f = self.field
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c != 0:
                for k in range(p, self.ambient):
                    v[k] = f.sub(v[k], f.mul(c, row[k]))
        return v

    def contains(self, vec) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def contains_subspace(self, other: "LinearSubspace") -> bool:
        return all(self.contains(row) for row in other.rows)

    def sum(self, vectors) -> "LinearSubspace":
        return LinearSubspace(self.ambient, self.field, list(self.rows) + list(vectors))

    def __eq__(self, other):
        return (
            isinstance(other, LinearSubspace)
            and self.ambient == other.ambient
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.field, self.rows))


def _rref(vectors, ambient, field):
    rows = [list(v) for v in vectors]
    for v in rows:
        if len(v) != ambient:
            raise ValidationError("vector length does not match ambient dimension")
    pivots = []
    rank = 0
    for col in range(ambient):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(c, inv) for c in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [
                    field.sub(a, field.mul(c, b)) for a, b in zip(rows[r], rows[rank])
                ]
        pivots.append(col)
        rank += 1
    clean = [tuple(r) for r in rows[:rank]]
    return tuple(clean), tuple(pivots)


def nullspace(rows, ncols, field) -> list[tuple]:
    """Basis of the solution space of (rows) . x = 0."""
    reduced, pivots = _rref(rows, ncols, field)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    out = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for row, p in zip(reduced, pivots):
            vec[p] = field.neg(row[fc])
        out.append(tuple(vec))
    return out


class FinAlgebra:
    """Finite-dimensional algebra by scalar structure constants e_i e_j = sum c_ijk e_k."""

    def __init__(self, field: FieldSpec, constants, unit: int = 0, labels=None):
        self.field = field
        self.dim = len(constants)
        self.constants = [
            [[field.coerce(c) for c in cell] for cell in row] for row in constants
        ]
        self.unit = unit
        self.labels = list(labels) if labels else [f"e{i}" for i in range(self.dim)]
        for row in self.constants:
            if len(row) != self.dim or any(len(cell) != self.dim for cell in row):
                raise ValidationError("structure constants are not N x N x N")
        self._validate()

    def _validate(self):
        f = self.field
        u = self.unit
        for j in range(self.dim):
            for k in range(self.dim):
                want = f.one if j == k else f.zero
                if self.constants[u][j][k] != want or self.constants[j][u][k] != want:
                    raise ValidationError("marked unit element is not a unit")
        for i in range(self.dim):
            for j in range(self.dim):
                for l in range(self.dim):
                    for m in range(self.dim):
                        lhs = f.zero
                        rhs = f.zero
                        for k in range(self.dim):
                            lhs = f.add(
                                lhs,
                                f.mul(self.constants[i][j][k], self.constants[k][l][m]),
                            )
                            rhs = f.add(
                                rhs,
                                f.mul(self.constants[j][l][k], self.constants[i][k][m]),
                            )
                        if lhs != rhs:
                            raise ValidationError("structure constants not associative")

    def left_mult(self, coords):
        """Matrix of left multiplication by the element with given coordinates."""
        f = self.field
        d = self.dim
        out = [[f.zero] * d for _ in range(d)]
        for i, c in enumerate(coords):
            if c == 0:
                continue
            for j in range(d):
                for k in range(d):
                    v = self.constants[i][j][k]
                    if v != 0:
                        out[k][j] = f.add(out[k][j], f.mul(c, v))
        return out

    def basis_coords(self, i):
        f = self.field
        return tuple(f.one if j == i else f.zero for j in range(self.dim))

    def unit_coords(self):
        return self.basis_coords(self.unit)

    def multiply(self, u, v):
        return _multiply(self.field, self.constants, u, v)


def _multiply(f, constants, u, v):
    """Coordinates of u * v under the structure constants."""
    d = len(constants)
    out = [f.zero] * d
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            ab = f.mul(a, b)
            for k in range(d):
                c = constants[i][j][k]
                if c != 0:
                    out[k] = f.add(out[k], f.mul(ab, c))
    return tuple(out)


# -- matrix helpers on End(A), flattened row-major --------------------------------


def _mat_mul(a, b, field):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(n):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            oi = out[i]
            for j in range(n):
                if bt[j] != 0:
                    oi[j] = field.add(oi[j], field.mul(c, bt[j]))
    return out

def _flatten(mat):
    return tuple(c for row in mat for c in row)


def _unflatten(vec, n):
    return [list(vec[i * n : (i + 1) * n]) for i in range(n)]


def _commute_constraint_rows(mults, phi_mat, field):
    """Rows of [L, phi] for every multiplication matrix L, as flat vectors."""
    out = []
    for L in mults:
        lhs = _mat_mul(L, phi_mat, field)
        rhs = _mat_mul(phi_mat, L, field)
        out.append(
            tuple(
                field.sub(a, b)
                for ra, rb in zip(lhs, rhs)
                for a, b in zip(ra, rb)
            )
        )
    return out


def _centre_of_quotient(alg, mults, prev: LinearSubspace | None):
    """Operators phi with [L_i, phi] inside prev (or zero), as a vector list."""
    d = alg.dim
    nn = d * d
    f = alg.field
    constraint_rows = []
    # columns of the constraint map, one per coordinate of phi
    for idx in range(nn):
        phi = _unflatten(
            tuple(f.one if t == idx else f.zero for t in range(nn)), d
        )
        cols = []
        for row in _commute_constraint_rows(mults, phi, f):
            cols.extend(prev.reduce(row) if prev is not None else row)
        constraint_rows.append(tuple(cols))
    # transpose: constraints as rows over the nn unknowns
    height = len(constraint_rows[0])
    system = [
        tuple(constraint_rows[c][r] for c in range(nn)) for r in range(height)
    ]
    return nullspace(system, nn, f)


def bimodule_center(alg: FinAlgebra) -> LinearSubspace:
    """Operators commuting with the bimodule action; the right multiplications."""
    mults = [alg.left_mult(alg.basis_coords(i)) for i in range(alg.dim)]
    vecs = _centre_of_quotient(alg, mults, None)
    return LinearSubspace(alg.dim * alg.dim, alg.field, vecs)


def bimodule_span(alg: FinAlgebra, sub: LinearSubspace, mults=None) -> LinearSubspace:
    """Span of a . phi . b over basis multipliers a, b and phi in the subspace."""
    f = alg.field
    d = alg.dim
    if mults is None:
        mults = [alg.left_mult(alg.basis_coords(i)) for i in range(d)]
    vecs = []
    for row in sub.rows:
        phi = _unflatten(row, d)
        for La in mults:
            left = _mat_mul(La, phi, f)
            for Lb in mults:
                vecs.append(_flatten(_mat_mul(left, Lb, f)))
    return LinearSubspace(d * d, f, vecs)


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
    d = alg.dim
    full = d * d
    centre = LinearSubspace(full, alg.field, _centre_of_quotient(alg, mults, None))
    current = bimodule_span(alg, centre, mults)
    levels = [(0, current)]
    stabilized = 0 if current.dim == full else None
    i = 0
    while stabilized is None and i < i_max:
        i += 1
        sols = _centre_of_quotient(alg, mults, current)
        nxt = bimodule_span(
            alg, LinearSubspace(full, alg.field, sols), mults
        ).sum(current.rows)
        if nxt.dim == current.dim:
            stabilized = i - 1
            break
        current = nxt
        levels.append((i, current))
        if current.dim == full:
            stabilized = i
    return FiltrationReport(levels, stabilized)


def z_filtration(alg: FinAlgebra, i_max: int | None = None) -> FiltrationReport:
    """The differential filtration of End(A) as an A-bimodule."""
    if i_max is None:
        i_max = alg.dim * alg.dim
    mults = [alg.left_mult(alg.basis_coords(i)) for i in range(alg.dim)]
    return _filtration(alg, mults, i_max)


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
    basis = [tuple(f.coerce(c) for c in v) for v in central_basis]
    if not basis:
        raise ValidationError("central subalgebra basis is empty")
    span = LinearSubspace(alg.dim, f, basis)
    if span.dim != len(basis):
        raise ValidationError("central subalgebra basis is linearly dependent")
    if not span.contains(alg.unit_coords()):
        raise ValidationError("central subalgebra does not contain the unit")
    for v in basis:
        for i in range(alg.dim):
            e = alg.basis_coords(i)
            if alg.multiply(v, e) != alg.multiply(e, v):
                raise ValidationError("subalgebra basis element is not central")
        for w in basis:
            if not span.contains(alg.multiply(v, w)):
                raise ValidationError("basis does not span a subalgebra")
    mults = [alg.left_mult(v) for v in basis]
    return _filtration(alg, mults, i_max)


# -- small builders ---------------------------------------------------------------


def field_algebra(field: FieldSpec) -> FinAlgebra:
    return FinAlgebra(field, [[[field.one]]], 0, ["1"])


def dual_numbers_algebra(field: FieldSpec) -> FinAlgebra:
    f = field
    z, o = f.zero, f.one
    constants = [
        [[o, z], [z, o]],
        [[z, o], [z, z]],
    ]
    return FinAlgebra(field, constants, 0, ["1", "eps"])


def matrix_algebra(n: int, field: FieldSpec) -> FinAlgebra:
    """M_n(k) in the basis of matrix units e_(i,j)."""
    f = field
    d = n * n

    def idx(i, j):
        return i * n + j

    constants = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        constants[idx(i, j)][idx(k, l)][idx(i, l)] = f.one
    # change to a basis containing the unit: keep matrix units but mark no
    # single unit index; instead extend with an explicit basis change
    labels = [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return _with_unit_basis(FieldSpec(field.characteristic), constants, labels, n)


def _with_unit_basis(field, constants, labels, n):
    # replace e_nn by the identity so that some basis vector is the unit
    f = field
    d = len(constants)
    last = d - 1
    # new basis: b_i = e_i for i < last, b_last = sum of diagonal units
    diag = [i * n + i for i in range(n)]

    def new_to_old(i):
        vec = [f.zero] * d
        if i == last:
            for t in diag:
                vec[t] = f.one
        else:
            vec[i] = f.one
        return vec

    def old_to_new(vec):
        out = list(vec)
        c = out[last]
        for t in diag[:-1]:
            out[t] = f.sub(out[t], c)
        return out

    table = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(old_to_new(_multiply(f, constants, new_to_old(i), new_to_old(j))))
        table.append(row)
    return FinAlgebra(f, table, last, labels[:-1] + ["1"])


def tensor_algebra(a: FinAlgebra, b: FinAlgebra) -> FinAlgebra:
    """A (x) B with the product basis, unit at (unit, unit)."""
    if a.field != b.field:
        raise ValidationError("tensor factors over different fields")
    f = a.field
    da, db = a.dim, b.dim
    d = da * db

    def idx(i, u):
        return i * db + u

    constants = [[[f.zero] * d for _ in range(d)] for _ in range(d)]
    for i in range(da):
        for j in range(da):
            for u in range(db):
                for v in range(db):
                    for k in range(da):
                        c1 = a.constants[i][j][k]
                        if c1 == 0:
                            continue
                        for w in range(db):
                            c2 = b.constants[u][v][w]
                            if c2 != 0:
                                constants[idx(i, u)][idx(j, v)][idx(k, w)] = f.mul(
                                    c1, c2
                                )
    labels = [f"{la}.{lb}" for la in a.labels for lb in b.labels]
    return FinAlgebra(f, constants, idx(a.unit, b.unit), labels)


# -- records ------------------------------------------------------------------------


def finalgebra_to_record(alg: FinAlgebra) -> dict:
    return {
        "dim": alg.dim,
        "characteristic": alg.field.characteristic,
        "variables": [],
        "unit": alg.unit,
        "labels": list(alg.labels),
        "table": [
            [[alg.field.format(c) for c in cell] for cell in row]
            for row in alg.constants
        ],
    }


def finalgebra_from_record(rec: dict) -> FinAlgebra:
    try:
        char = int(rec["characteristic"])
        table = rec["table"]
        unit = int(rec.get("unit", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad algebra record: {exc}") from None
    if rec.get("variables"):
        raise ValidationError("finite-dimensional oracle needs scalar entries")
    field = FieldSpec(char)
    constants = [
        [[field.coerce(str(c)) for c in cell] for cell in row] for row in table
    ]
    return FinAlgebra(field, constants, unit, rec.get("labels"))
