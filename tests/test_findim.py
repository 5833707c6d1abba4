"""The finite-dimensional filtration oracle: centres, spans, filtrations."""

import itertools
import random
import time

import pytest

from diffops.azumaya import build_dual_numbers, build_heisenberg_charp, build_matrix_algebra
from diffops.errors import ValidationError
from diffops.fields import FieldSpec, StructureAlgebra
from diffops.findim import (
    FinAlgebra,
    LinearSubspace,
    bimodule_center,
    bimodule_span,
    dual_numbers_algebra,
    field_algebra,
    finalgebra_from_record,
    finalgebra_to_record,
    matrix_algebra,
    nullspace,
    relative_z_filtration,
    tensor_algebra,
    z_filtration,
)
from diffops.polyring import PolyRing

from oracles import (
    dense_validation,
    gauss_jordan,
    literal_filtration,
    matrix_truncated_algebra,
    random_scalar,
)

F7 = FieldSpec(7)
F5 = FieldSpec(5)
Q = FieldSpec(0)


def right_mult_matrix(alg, coords):
    f = alg.field
    d = alg.dim
    out = [[f.zero] * d for _ in range(d)]
    for j, c in enumerate(coords):
        if c == 0:
            continue
        for i in range(d):
            for k in range(d):
                v = alg.table[i][j][k]
                if v != 0:
                    out[k][i] = f.add(out[k][i], f.mul(c, v))
    return out


def test_field_case_center_is_everything():
    alg = field_algebra(Q)
    assert bimodule_center(alg).dim == 1
    rep = z_filtration(alg)
    assert rep.dims == [1]
    assert rep.stabilized_at == 0


def test_dual_numbers_center():
    alg = dual_numbers_algebra(F7)
    centre = bimodule_center(alg)
    assert centre.dim == 2
    # the centre consists exactly of the right multiplications
    for i in range(alg.dim):
        mat = right_mult_matrix(alg, alg.basis_element(i))
        flat = tuple(c for row in mat for c in row)
        assert centre.contains(flat)


def test_matrix_algebra_center_dim():
    alg = matrix_algebra(2, F7)
    assert alg.dim == 4
    centre = bimodule_center(alg)
    assert centre.dim == 4
    for i in range(alg.dim):
        mat = right_mult_matrix(alg, alg.basis_element(i))
        assert centre.contains(tuple(c for row in mat for c in row))


def test_bimodule_span_in_matrix_algebra():
    # under the action (a.phi.b)(c) = a phi(bc), the orbit of the identity
    # spans exactly the left multiplications; the orbit of the centre
    # (right multiplications) spans all two-sided multiplications, which
    # for M_2 over a field is the full 16-dimensional End
    alg = matrix_algebra(2, F7)
    f = alg.field
    d = alg.dim
    ident = tuple(
        f.one if i == j else f.zero for i in range(d) for j in range(d)
    )
    span = bimodule_span(alg, LinearSubspace(d * d, f, [ident]))
    assert span.dim == 4
    for i in range(d):
        flat = tuple(c for row in alg.mult_matrix(alg.basis_element(i)) for c in row)
        assert span.contains(flat)
    assert bimodule_span(alg, bimodule_center(alg)).dim == 16


def test_bimodule_span_zero_and_idempotent():
    alg = dual_numbers_algebra(F7)
    f = alg.field
    empty = LinearSubspace(alg.dim**2, f, [])
    assert bimodule_span(alg, empty).dim == 0
    centre = bimodule_center(alg)
    once = bimodule_span(alg, centre)
    twice = bimodule_span(alg, once)
    assert once == twice


def test_z_filtration_dual_numbers():
    # away from characteristic 2 the eps-derivative is NOT a derivation of
    # k[eps]/(eps^2) (it fails Leibniz on eps*eps), so it sits in level 2:
    # the chain is (2, 3, 4), with level 1 spanned by multiplications and
    # the Euler derivation eps -> eps
    rep = z_filtration(dual_numbers_algebra(F7))
    assert rep.dims == [2, 3, 4]
    assert rep.stabilized_at == 2
    f = F7
    d_eps = (f.zero, f.one, f.zero, f.zero)  # 1 -> 0, eps -> 1
    euler = (f.zero, f.zero, f.zero, f.one)  # 1 -> 0, eps -> eps
    assert not rep.subspace_at(0).contains(d_eps)
    assert not rep.subspace_at(1).contains(d_eps)
    assert rep.subspace_at(2).contains(d_eps)
    assert not rep.subspace_at(0).contains(euler)
    assert rep.subspace_at(1).contains(euler)


def test_z_filtration_dual_numbers_char2():
    # in characteristic 2 the Leibniz obstruction 2*eps vanishes and the
    # eps-derivative genuinely has order 1
    rep = z_filtration(dual_numbers_algebra(FieldSpec(2)))
    assert rep.dims == [2, 4]
    assert rep.stabilized_at == 1


def test_z_filtration_matrix_algebra_stabilizes_immediately():
    rep = z_filtration(matrix_algebra(2, F7))
    assert rep.dims == [16]
    assert rep.stabilized_at == 0


def test_z_filtration_product_field_stops_below_full():
    # k x k: no operators across the two factors; chain stops at dim 2
    f = Q
    constants = [
        [[f.one, f.zero], [f.zero, f.zero]],
        [[f.zero, f.zero], [f.zero, f.one]],
    ]
    # basis (e1, e2) idempotents; unit is e1 + e2, so change basis to (1, e2)
    table = [
        [[f.one, f.zero], [f.zero, f.one]],
        [[f.zero, f.one], [f.zero, f.one]],
    ]
    alg = FinAlgebra(f, table, 0, ["1", "e"])
    rep = z_filtration(alg)
    assert rep.dims == [2]
    assert rep.stabilized_at == 0
    assert rep.dimension_at(3) == 2


def test_level_zero_is_two_sided_multiplication_span():
    # Z_0 = span of all (c -> a c b), built here directly from left and
    # right multiplication matrices as an independent cross-check
    for alg in (dual_numbers_algebra(F7), matrix_algebra(2, F7)):
        f = alg.field
        d = alg.dim
        vecs = []
        for i in range(d):
            La = alg.mult_matrix(alg.basis_element(i))
            for j in range(d):
                Rb = right_mult_matrix(alg, alg.basis_element(j))
                flat = []
                for r in range(d):
                    for c in range(d):
                        acc = f.zero
                        for t in range(d):
                            acc = f.add(acc, f.mul(La[r][t], Rb[t][c]))
                        flat.append(acc)
                vecs.append(tuple(flat))
        lr_span = LinearSubspace(d * d, f, vecs)
        level0 = z_filtration(alg).subspace_at(0)
        assert lr_span == level0


def test_relative_with_scalars_is_full():
    alg = matrix_algebra(2, F5)
    rep = relative_z_filtration(alg, [alg.unit_element()])
    assert rep.dims == [16]
    assert rep.stabilized_at == 0


def test_relative_validation():
    alg = matrix_algebra(2, F5)
    e12 = alg.basis_element(alg.labels.index("e12"))
    with pytest.raises(ValidationError):
        relative_z_filtration(alg, [alg.unit_element(), e12])
    with pytest.raises(ValidationError):
        relative_z_filtration(alg, [e12])
    with pytest.raises(ValidationError):
        relative_z_filtration(alg, [])


def test_relative_dominates_absolute_matrix_case():
    alg = matrix_algebra(2, F5)
    absolute = z_filtration(alg)
    relative = relative_z_filtration(alg, [alg.unit_element()])
    for m in range(3):
        assert relative.subspace_at(m).contains_subspace(absolute.subspace_at(m))


def test_tensor_m2_dual_numbers_factorization():
    # dim Z_m(End(M_2 (x) R)) = 16 * dim Z_m(End R) for R = F_5[eps];
    # the honest base chain is (2, 3, 4), so the product chain is (32, 48, 64)
    base = dual_numbers_algebra(F5)
    base_rep = z_filtration(base)
    assert base_rep.dims == [2, 3, 4]
    big = tensor_algebra(matrix_algebra(2, F5), base)
    assert big.dim == 8
    rep = z_filtration(big)
    assert [rep.dimension_at(m) for m in range(3)] == [
        16 * base_rep.dimension_at(m) for m in range(3)
    ]
    assert [rep.dimension_at(m) for m in range(3)] == [32, 48, 64]


def test_relative_dominates_absolute_tensor_case():
    base = dual_numbers_algebra(F5)
    big = tensor_algebra(matrix_algebra(2, F5), base)
    # central subalgebra 1 (x) R inside M_2 (x) R
    f = F5
    d = big.dim
    unit = big.unit_element()
    eps_idx = [i for i, lab in enumerate(big.labels) if lab == "1.eps"]
    assert len(eps_idx) == 1
    eps = big.basis_element(eps_idx[0])
    absolute = z_filtration(big)
    relative = relative_z_filtration(big, [unit, eps])
    for m in range(3):
        assert relative.subspace_at(m).contains_subspace(absolute.subspace_at(m))


def test_filtration_levels_are_nested():
    for alg in (dual_numbers_algebra(F7), tensor_algebra(
        matrix_algebra(2, F5), dual_numbers_algebra(F5)
    )):
        rep = z_filtration(alg)
        for (i, sub), (j, nxt) in zip(rep.levels, rep.levels[1:]):
            assert j == i + 1
            assert nxt.dim > sub.dim
            assert nxt.contains_subspace(sub)


def test_record_roundtrip():
    alg = dual_numbers_algebra(F7)
    rec = finalgebra_to_record(alg)
    back = finalgebra_from_record(rec)
    assert back.table == alg.table
    assert back.unit == alg.unit
    rec["variables"] = ["t"]
    with pytest.raises(ValidationError):
        finalgebra_from_record(rec)


def truncated_polynomials(field, k):
    """F[e]/(e^k) in the basis 1, e, ..., e^(k-1)."""
    return FinAlgebra(
        field,
        [[[1 if c == a + b else 0 for c in range(k)] for b in range(k)] for a in range(k)],
        0,
    )


# (n, k, p): M_n (x) F_p[e]/(e^k), of dimension n^2 k <= 9
ORACLE_CASES = [
    (1, 4, 2), (2, 2, 2),
    (1, 3, 5), (3, 1, 5), (2, 2, 5),
    (1, 5, 7), (2, 1, 7),
    (1, 3, 0), (2, 1, 0),
]


@pytest.mark.parametrize("n,k,p", ORACLE_CASES)
def test_filtrations_match_literal_oracle(n, k, p):
    # every level's echelon basis is unique for its span, so the rows and
    # pivots must equal those of the literal definition exactly
    constants, unit, central = matrix_truncated_algebra(n, k, p, random.Random(f"{n}/{k}/{p}"))
    d = len(constants)
    alg = FinAlgebra(FieldSpec(p), constants, unit)
    every = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
    for rep, multipliers in (
        (z_filtration(alg), every),
        (relative_z_filtration(alg, central), central),
    ):
        levels, stabilized = literal_filtration(constants, p, multipliers)
        assert [(sub.rows, sub.pivots) for _, sub in rep.levels] == levels
        assert rep.stabilized_at == stabilized


@pytest.mark.parametrize("p", [2, 5, 7, 0])
def test_insertion_matches_gauss_jordan(p):
    # low-rank random vectors with duplicates and zeros mixed in, inserted
    # one at a time, give the oracle's RREF; nullspace gives its kernel;
    # membership agrees with the oracle's rank, a shuffled insertion order
    # gives an equal subspace, and bimodule_span leaves its input as it was
    f = FieldSpec(p)
    rng = random.Random(p)
    extra = random.Random(f"{p}/extra")
    dual = dual_numbers_algebra(f)
    algebras = {1: field_algebra(f), 16: tensor_algebra(dual, dual)}
    for n, rank, count in [(1, 1, 3), (6, 3, 9), (12, 7, 20), (10, 10, 14), (16, 5, 12)]:
        gens = [[f.coerce(random_scalar(rng, f)) for _ in range(n)] for _ in range(rank)]
        vecs = []
        for _ in range(count):
            coeffs = [f.coerce(random_scalar(rng, f)) for _ in gens]
            vecs.append(
                tuple(f.coerce(sum(c * g[j] for c, g in zip(coeffs, gens))) for j in range(n))
            )
        vecs += [vecs[0], vecs[-1], tuple([f.zero] * n)]
        rng.shuffle(vecs)
        want_rows, want_pivots = gauss_jordan(vecs, n, p)
        sub = LinearSubspace(n, f, vecs)
        assert (sub.rows, sub.pivots) == (want_rows, want_pivots)
        kernel = nullspace(vecs, n, f)
        assert len(kernel) == n - len(want_rows)
        for x in kernel:
            for v in vecs:
                assert f.coerce(sum(a * b for a, b in zip(v, x))) == 0
        assert len(gauss_jordan(kernel, n, p)[0]) == len(kernel)

        def spans_nothing_new(more):
            return len(gauss_jordan(vecs + more, n, p)[0]) == len(want_rows)

        randoms = [[f.coerce(random_scalar(extra, f)) for _ in range(n)] for _ in range(3)]
        probes = vecs[:3] + randoms
        for v in probes:
            assert sub.contains(v) == spans_nothing_new([v])
        for k in range(1, 4):
            other = LinearSubspace(n, f, probes[2 : 2 + k])
            assert sub.contains_subspace(other) == spans_nothing_new(probes[2 : 2 + k])
        shuffled = list(vecs)
        extra.shuffle(shuffled)
        again = LinearSubspace(n, f, shuffled)
        assert again == sub and hash(again) == hash(sub)
        first = LinearSubspace(n, f, vecs[:1])
        assert (first == sub) == (len(gauss_jordan(vecs[:1], n, p)[0]) == len(want_rows))
        if n in algebras:
            span = bimodule_span(algebras[n], sub)
            assert (sub.rows, sub.pivots) == (want_rows, want_pivots)
            assert span.contains_subspace(sub)


def _verdict(domain, table, unit):
    try:
        StructureAlgebra(domain, table, unit)
    except ValidationError as exc:
        return str(exc)
    return None


def test_validation_rejects_mutated_constants():
    # on scalar and Poly tables, the sparse validator gives the verdict and
    # message of the dense definition for every constant bumped by one (and
    # by a ring variable), for a wrong unit and for a unit out of range
    rt3 = PolyRing(("t",), FieldSpec(3))
    constants, unit, _ = matrix_truncated_algebra(2, 2, 5, random.Random(11))
    inputs = [(F5, constants, unit, [1])]
    for alg in (build_matrix_algebra(2, rt3), build_heisenberg_charp(1, 2), build_dual_numbers(rt3)):
        inputs.append((alg.ring, alg.table, alg.unit, [alg.ring.one(), alg.ring.gen(0)]))
    for domain, table, unit, bumps in inputs:
        zero, one = domain.coerce(0), domain.coerce(1)
        p = getattr(domain, "characteristic", 0)
        d = len(table)
        assert _verdict(domain, table, unit) is None is dense_validation(table, unit, zero, one, p)
        off_unit = 0
        for i, j, k in itertools.product(range(d), repeat=3):
            c = table[i][j][k]
            if c == zero:
                continue
            for bump in bumps:
                bad = [[list(cell) for cell in row] for row in table]
                bad[i][j][k] = domain.coerce(c + bump)
                want = dense_validation(bad, unit, zero, one, p)
                assert _verdict(domain, bad, unit) == want
                if unit in (i, j):
                    assert want == "marked unit element is not a unit"
                else:
                    assert want == "structure constants not associative"
                    off_unit += 1
        assert off_unit >= (10 if d > 2 else 0)
        wrong = (unit + 1) % d
        assert _verdict(domain, table, wrong) == dense_validation(table, wrong, zero, one, p)
        assert _verdict(domain, table, wrong) == "marked unit element is not a unit"
        assert "out of range" in _verdict(domain, table, d)


def test_z_filtration_at_dimension_16_within_budget():
    # M_2(F_5[e]/e^4): dims are 16 times those of F_5[e]/e^4
    base = truncated_polynomials(F5, 4)
    start = time.perf_counter()
    rep = z_filtration(tensor_algebra(matrix_algebra(2, F5), base))
    elapsed = time.perf_counter() - start
    assert rep.dims == [16 * m for m in z_filtration(base).dims] == [64, 112, 160, 208, 256]
    assert rep.stabilized_at == 4
    assert elapsed < 15, f"z_filtration at d=16 took {elapsed:.1f}s"
