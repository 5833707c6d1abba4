"""Free-over-centre algebras: builders, extensions, decomposition, Azumaya test."""

import random
import time

import pytest

from diffops import AlgebraContext, FieldSpec, PDOp, PolyRing, lambda_of, op_compose, x, y
from diffops.azumaya import (
    CenteredFreeAlgebra,
    OperatorMatrix,
    algebra_from_record,
    algebra_to_record,
    azumaya_determinant,
    bimodule_scale,
    build_dual_numbers,
    build_heisenberg_charp,
    build_matrix_algebra,
    commutator_matrix,
    component,
    decompose_operator,
    diagonal_extend,
    doperator_to_matrix,
    is_azumaya,
    lambda_matrix,
    lift_from_base,
    matrix_from_record,
    matrix_to_record,
    matrix_unit_op,
    order_check,
    reconstruct_operator,
    restrict_to_base,
    rho_matrix,
)
from diffops.errors import MathError, ValidationError

from oracles import random_operator_matrix, random_pdop, random_poly

RT3 = PolyRing(("t",), FieldSpec(3))
RQ = PolyRing(("t",), FieldSpec(0))


def test_matrix_algebra_rank_one_is_base_ring():
    alg = build_matrix_algebra(1, RQ)
    assert alg.dim == 1
    assert alg.labels == ["1"]


def test_matrix_algebra_unit_law():
    alg = build_matrix_algebra(2, RT3)
    assert alg.dim == 4
    e12 = alg.basis_element(alg.labels.index("e12"))
    assert alg.mul_elements(alg.unit_element(), e12) == e12
    assert alg.mul_elements(e12, alg.unit_element()) == e12


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_algebra_matches_matrix_multiplication(n):
    # oracle: convert basis products back to honest n x n matrices
    alg = build_matrix_algebra(n, RQ)
    pairs = [(i, j) for i in range(n) for j in range(n) if (i, j) != (n - 1, n - 1)]

    def to_matrix(coords):
        mat = [[alg.ring.zero() for _ in range(n)] for _ in range(n)]
        for d in range(n):
            mat[d][d] = mat[d][d] + coords[0]
        for idx, (i, j) in enumerate(pairs, start=1):
            mat[i][j] = mat[i][j] + coords[idx]
        return mat

    rng = random.Random(5)
    for _ in range(10):
        u = [alg.ring.constant(rng.randint(-3, 3)) for _ in range(alg.dim)]
        v = [alg.ring.constant(rng.randint(-3, 3)) for _ in range(alg.dim)]
        mu, mv = to_matrix(u), to_matrix(v)
        expected = [
            [
                sum((mu[i][t] * mv[t][j] for t in range(n)), alg.ring.zero())
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert to_matrix(alg.mul_elements(u, v)) == expected


def test_associativity_validation_rejects_bad_table():
    ring = RQ
    one, zero = ring.one(), ring.zero()
    # rank-2 unital tables are always associative; this rank-3 one is not:
    # u*u = v, u*v = 1 but v*u = 0, so (u u) u != u (u u)
    bad = [
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
        [[zero, one, zero], [zero, zero, one], [one, zero, zero]],
        [[zero, zero, one], [zero, zero, zero], [zero, zero, zero]],
    ]
    with pytest.raises(ValidationError):
        CenteredFreeAlgebra(ring, bad)


def test_heisenberg_charp_structure():
    alg = build_heisenberg_charp(1, 2)
    assert alg.dim == 4
    assert alg.ring.variables == ("h", "X1", "Y1")
    xi = alg.labels.index("x1^1")
    yi = alg.labels.index("y1^1")
    # x*x = X1 . 1
    prod = alg.mul_elements(alg.basis_element(xi), alg.basis_element(xi))
    assert prod[0] == alg.ring.gen(1)
    assert all(prod[k].is_zero() for k in range(1, 4))
    # y*x = x*y - h
    yx = alg.mul_elements(alg.basis_element(yi), alg.basis_element(xi))
    xy_index = alg.labels.index("x1^1y1^1")
    assert yx[xy_index] == alg.ring.one()
    assert yx[0] == -alg.ring.gen(0)


def test_heisenberg_charp_centre_is_central():
    alg = build_heisenberg_charp(1, 3)
    rng = random.Random(7)
    xcentre = [alg.ring.gen(1)] + [alg.ring.zero()] * (alg.dim - 1)
    for _ in range(10):
        u = [random_poly(rng, alg.ring, max_exp=1, terms=1) for _ in range(alg.dim)]
        left = alg.mul_elements(xcentre, u)
        right = alg.mul_elements(u, xcentre)
        assert left == right


def test_dual_basis_identity():
    # sum_i f_i(a) a_i = a for the coordinate dual basis
    alg = build_matrix_algebra(2, RQ)
    rng = random.Random(11)
    for _ in range(5):
        a = [alg.ring.constant(rng.randint(-3, 3)) for _ in range(alg.dim)]
        acc = alg.zero_element()
        for i in range(alg.dim):
            fi = alg.coordinate(a, i)
            acc = alg.add_elements(
                acc, [fi * c for c in alg.basis_element(i)]
            )
        assert acc == a


# -- extensions and basis operators ----------------------------------------------


def test_diagonal_extend_identity():
    alg = build_matrix_algebra(2, RQ)
    assert diagonal_extend(alg, PDOp.identity(RQ)) == OperatorMatrix.identity(RQ, 4)


def test_diagonal_extend_multiplication():
    alg = build_matrix_algebra(2, RQ)
    r = RQ.gen(0) ** 2
    got = diagonal_extend(alg, PDOp.mult(r))
    # multiplication by a central element, in matrix form
    central = [r] + [RQ.zero()] * 3
    assert got == lambda_matrix(alg, central)
    assert got == rho_matrix(alg, central)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_diagonal_extend_preserves_order(m):
    alg = build_matrix_algebra(2, RQ)
    ext = diagonal_extend(alg, PDOp.partial(RQ, 0, m))
    assert order_check(ext, m)
    assert not order_check(ext, m - 1)


def test_matrix_unit_op_action():
    alg = build_matrix_algebra(2, RT3)
    for l in range(4):
        for k in range(4):
            wp = matrix_unit_op(alg, l, k)
            for j in range(4):
                got = wp.apply_to(alg.basis_element(j))
                want = alg.basis_element(l) if j == k else alg.zero_element()
                assert got == want
    total = OperatorMatrix.zero(alg.ring, 4)
    for k in range(4):
        total = total + matrix_unit_op(alg, k, k)
    assert total == OperatorMatrix.identity(alg.ring, 4)


def test_matrix_unit_ops_are_order_zero():
    alg = build_matrix_algebra(2, RQ)
    for l in range(4):
        for k in range(4):
            assert order_check(matrix_unit_op(alg, l, k), 0)


# -- components -------------------------------------------------------------------


def test_component_of_extension_restricts():
    alg = build_matrix_algebra(2, RQ)
    rng = random.Random(13)
    for _ in range(10):
        phi = random_pdop(rng, RQ)
        assert component(alg, diagonal_extend(alg, phi), 0, 0) == phi


def test_component_of_matrix_units():
    # f_i o unit_op(l,k) o rho_{a_j} sends r to r * delta_jk * f_i(a_l),
    # so the component array of a basis operator is its own delta pattern
    alg = build_matrix_algebra(2, RQ)
    idop = PDOp.identity(RQ)
    for l in range(4):
        for k in range(4):
            wp = matrix_unit_op(alg, l, k)
            for i in range(4):
                for j in range(4):
                    got = component(alg, wp, i, j)
                    want = idop if (i == l and j == k) else PDOp.zero(RQ)
                    assert got == want


def test_component_bimodule_compatibility():
    alg = build_matrix_algebra(2, RQ)
    rng = random.Random(17)
    t = RQ.gen(0)
    for _ in range(5):
        phi = random_operator_matrix(rng, alg)
        r = random_poly(rng, RQ, max_exp=2, terms=2)
        s = random_poly(rng, RQ, max_exp=2, terms=2)
        lhs = p_compose_chain(PDOp.mult(r), component(alg, phi, 1, 2), PDOp.mult(s))
        rhs = component(alg, bimodule_scale(alg, r, phi, s), 1, 2)
        assert lhs == rhs


def p_compose_chain(*ops):
    from diffops import p_compose

    out = ops[0]
    for op in ops[1:]:
        out = p_compose(out, op)
    return out


# -- decomposition and reconstruction ----------------------------------------------


def test_reconstruct_matrix_units():
    alg = build_matrix_algebra(2, RT3)
    for l in range(4):
        for k in range(4):
            wp = matrix_unit_op(alg, l, k)
            assert reconstruct_operator(alg, decompose_operator(alg, wp)) == wp


def test_reconstruct_extension():
    alg = build_matrix_algebra(2, RQ)
    ext = diagonal_extend(alg, PDOp.partial(RQ, 0, 1))
    assert reconstruct_operator(alg, decompose_operator(alg, ext)) == ext


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_matrix_algebra(2, RT3),
        lambda: build_heisenberg_charp(1, 2),
    ],
)
def test_reconstruct_random_roundtrip(builder):
    alg = builder()
    rng = random.Random(19)
    for _ in range(25):
        phi = random_operator_matrix(rng, alg)
        assert reconstruct_operator(alg, decompose_operator(alg, phi)) == phi


# -- order checks -------------------------------------------------------------------


def test_order_check_composition_subadditive():
    alg = build_matrix_algebra(2, RQ)
    d1 = diagonal_extend(alg, PDOp.partial(RQ, 0, 1))
    d2 = diagonal_extend(alg, PDOp.partial(RQ, 0, 2)).compose(
        lambda_matrix(alg, alg.basis_element(1))
    )
    assert order_check(d1, 1) and order_check(d2, 2)
    assert order_check(d1.compose(d2), 3)


def test_matrix_algebra_bracket_identity():
    # [extend(phi), lambda_{a_j}] = sum_{i,k} extend([phi, r_{j,i}^k]) o unit_op(k,i)
    alg = build_matrix_algebra(2, RQ)
    rng = random.Random(23)
    from diffops import p_commutator

    for _ in range(5):
        phi = random_pdop(rng, RQ)
        ext = diagonal_extend(alg, phi)
        for j in range(alg.dim):
            lam = lambda_matrix(alg, alg.basis_element(j))
            lhs = commutator_matrix(ext, lam)
            rhs = OperatorMatrix.zero(alg.ring, alg.dim)
            for i in range(alg.dim):
                for k in range(alg.dim):
                    r = alg.table[j][i][k]
                    if r.is_zero():
                        continue
                    inner = p_commutator(phi, PDOp.mult(r))
                    if inner.is_zero():
                        continue
                    rhs = rhs + diagonal_extend(alg, inner).compose(
                        matrix_unit_op(alg, k, i)
                    )
            assert lhs == rhs


# -- ideal maps ----------------------------------------------------------------------


def test_restrict_of_extension_is_identity_map():
    alg = build_heisenberg_charp(1, 2)
    rng = random.Random(29)
    for _ in range(10):
        phi = random_pdop(rng, alg.ring, max_exp=1)
        assert restrict_to_base(alg, diagonal_extend(alg, phi)) == phi


def test_restrict_kills_off_unit_matrix_units():
    alg = build_matrix_algebra(2, RQ)
    for l in range(1, 4):
        for k in range(1, 4):
            assert restrict_to_base(alg, matrix_unit_op(alg, l, k)).is_zero()


def test_restriction_compatible_with_base_sandwich():
    # phi_1 (f_0 PHI f_0) phi_2 = f_0 (ext(phi_1) PHI ext(phi_2)) f_0:
    # the restriction map respects two-sided products by base operators
    from diffops import p_compose

    alg = build_matrix_algebra(2, RQ)
    rng = random.Random(53)
    for _ in range(8):
        phi1 = random_pdop(rng, RQ)
        phi2 = random_pdop(rng, RQ)
        big = random_operator_matrix(rng, alg)
        lhs = p_compose(phi1, p_compose(restrict_to_base(alg, big), phi2))
        sandwich = diagonal_extend(alg, phi1).compose(big).compose(
            diagonal_extend(alg, phi2)
        )
        assert lhs == restrict_to_base(alg, sandwich)


def test_lift_then_restrict_roundtrip():
    alg = build_matrix_algebra(2, RT3)
    rng = random.Random(31)
    gens = [random_pdop(rng, alg.ring) for _ in range(4)]
    lifted = lift_from_base(alg, gens)
    for g, mat in zip(gens, lifted):
        assert restrict_to_base(alg, mat) == g


# -- the Azumaya determinant test ------------------------------------------------------


def test_azumaya_matrix_algebra():
    assert is_azumaya(build_matrix_algebra(2, RT3))


def test_azumaya_heisenberg_p2_fails_at_h_zero():
    # the two-sided multiplication map for H_1 over k[h, x^2, y^2]
    # degenerates on the locus h = 0 (the fiber there is commutative of
    # rank 4), so the determinant is h^16, not a unit
    alg = build_heisenberg_charp(1, 2)
    assert not is_azumaya(alg)
    det = azumaya_determinant(alg)
    h_power = alg.ring.monomial((16, 0, 0))
    assert det == h_power


def test_azumaya_weyl_algebra_char2():
    # with h specialized to 1 (Revoy's setting) the test passes everywhere
    from diffops.azumaya import build_weyl_charp

    assert is_azumaya(build_weyl_charp(1, 2))


def test_azumaya_matrix_algebra_rank3():
    # 81 x 81 determinant over F_2[t], still a scalar
    alg = build_matrix_algebra(3, PolyRing(("t",), FieldSpec(2)))
    assert is_azumaya(alg, max_dim=9)


def test_azumaya_weyl_charp_2_2():
    # a 256 x 256 determinant over F_2[X1, X2, Y1, Y2] (63 s by dense
    # Bareiss); the constant pivots carry the whole elimination
    from diffops.azumaya import build_weyl_charp

    start = time.perf_counter()
    assert is_azumaya(build_weyl_charp(2, 2), max_dim=16)
    assert time.perf_counter() - start < 20


def test_azumaya_control_case_fails():
    assert not is_azumaya(build_dual_numbers(RT3))
    assert not is_azumaya(build_dual_numbers(RQ))


def test_azumaya_guard():
    with pytest.raises(MathError):
        is_azumaya(build_heisenberg_charp(1, 3), max_dim=8)


# -- converting H_n operators ------------------------------------------------------------


def test_convert_lambda_matches_lambda_matrix():
    p = 2
    alg = build_heisenberg_charp(1, p)
    ctx = AlgebraContext(1, FieldSpec(p))
    for elem in (x(ctx, 1), y(ctx, 1), x(ctx, 1) * y(ctx, 1)):
        from diffops.heisenberg import central_decompose

        coords = [alg.ring.zero() for _ in range(alg.dim)]
        for (zm, I, J), poly in central_decompose(elem).items():
            from diffops.azumaya import heisenberg_basis_exponents

            exps = heisenberg_basis_exponents(1, p)
            coords[exps.index((I, J))] = poly
        assert doperator_to_matrix(lambda_of(elem), alg) == lambda_matrix(alg, coords)


@pytest.mark.parametrize("p", [2, 3])
def test_convert_commutes_with_composition(p):
    alg = build_heisenberg_charp(1, p)
    ctx = AlgebraContext(1, FieldSpec(p))
    rng = random.Random(37 + p)
    from oracles import random_operator

    for _ in range(8):
        d1 = random_operator(rng, ctx, max_exp=p, max_h=1, terms=2)
        d2 = random_operator(rng, ctx, max_exp=p, max_h=1, terms=2)
        m1 = doperator_to_matrix(d1, alg)
        m2 = doperator_to_matrix(d2, alg)
        assert doperator_to_matrix(op_compose(d1, d2), alg) == m1.compose(m2)


@pytest.mark.parametrize("p", [2, 3])
def test_convert_splits_divided_powers_by_digits(p):
    # orders p, p+1 and 2p+1 force the base-p digit split between the
    # reduced basis part and the centre variables
    from diffops import dx as op_dx, dy as op_dy, op_apply
    from diffops.azumaya import heisenberg_basis_exponents
    from diffops.heisenberg import central_decompose

    alg = build_heisenberg_charp(1, p)
    ctx = AlgebraContext(1, FieldSpec(p))
    exps = heisenberg_basis_exponents(1, p)

    def to_coords(elem):
        coords = [alg.ring.zero() for _ in range(alg.dim)]
        for (_zm, I, J), poly in central_decompose(elem).items():
            coords[exps.index((I, J))] = poly
        return coords

    probes = [
        x(ctx, 1) ** (3 * p - 1) * y(ctx, 1),
        y(ctx, 1) ** (2 * p + 1),
        x(ctx, 1) ** p * y(ctx, 1) ** p,
    ]
    for order in (p, p + 1, 2 * p + 1):
        for d in (op_dx(ctx, 1, order), op_dy(ctx, 1, order)):
            mat = doperator_to_matrix(d, alg)
            for a in probes:
                assert mat.apply_to(to_coords(a)) == to_coords(op_apply(d, a))


@pytest.mark.parametrize("p", [2, 3])
def test_convert_respects_action(p):
    # the matrix acts on coordinates exactly as the operator acts on H_n
    alg = build_heisenberg_charp(1, p)
    ctx = AlgebraContext(1, FieldSpec(p))
    rng = random.Random(41 + p)
    from diffops.azumaya import heisenberg_basis_exponents
    from diffops.heisenberg import central_decompose
    from oracles import random_element, random_operator

    exps = heisenberg_basis_exponents(1, p)

    def to_coords(elem):
        coords = [alg.ring.zero() for _ in range(alg.dim)]
        for (zm, I, J), poly in central_decompose(elem).items():
            coords[exps.index((I, J))] = poly
        return coords

    from diffops import op_apply

    for _ in range(10):
        d = random_operator(rng, ctx, max_exp=p, max_h=1, terms=2)
        a = random_element(rng, ctx, max_exp=2 * p - 1, max_h=2, terms=2)
        got = doperator_to_matrix(d, alg).apply_to(to_coords(a))
        assert got == to_coords(op_apply(d, a))


# -- records -----------------------------------------------------------------------------


def test_algebra_record_roundtrip():
    alg = build_heisenberg_charp(1, 2)
    rec = algebra_to_record(alg)
    rec["heisenberg_params"] = [1, 2]
    back = algebra_from_record(rec)
    assert back.dim == alg.dim
    assert back.ring == alg.ring
    assert back.table == alg.table
    assert back.heisenberg_params == (1, 2)


def test_matrix_record_roundtrip():
    alg = build_matrix_algebra(2, RT3)
    rng = random.Random(43)
    phi = random_operator_matrix(rng, alg)
    assert matrix_from_record(matrix_to_record(phi)) == phi
