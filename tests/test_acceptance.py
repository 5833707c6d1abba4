"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Each criterion prints a PASS/FAIL line (bypassing capture) before its
assertions so the outcome summary is always visible.  All comparisons are
exact; the stated wall-clock targets are asserted where the criterion
gives one.
"""

import contextlib
import io
import os
import random
import sys
import time

from diffops import (
    AlgebraContext,
    DOperator,
    FieldSpec,
    HElement,
    PDOp,
    PolyRing,
    dh,
    dh_reversed,
    dx,
    dy,
    h,
    identity_op,
    inner_decompose,
    lambda_of,
    mdeg,
    op_apply,
    op_commutator,
    op_compose,
    reduce_to_scalar,
    replay_witness,
    rho_of,
    x,
    y,
)
from diffops.azumaya import (
    build_dual_numbers,
    build_heisenberg_charp,
    build_matrix_algebra,
    decompose_operator,
    diagonal_extend,
    is_azumaya,
    order_check,
    reconstruct_operator,
    restrict_to_base,
)
from diffops.findim import (
    dual_numbers_algebra,
    matrix_algebra,
    relative_z_filtration,
    tensor_algebra,
    z_filtration,
)
from diffops.parsing import element_from_text, operator_from_text, pdop_from_text
from diffops.printing import format_element, format_operator, format_pdop

from cli_cases import CASES, expand
from oracles import (
    random_element,
    random_nonzero_operator,
    random_operator,
    random_operator_matrix,
    random_pdop,
    random_scalar,
)


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}", file=sys.__stdout__, flush=True)


def bounded_element(rng, ctx, max_deg1=5, max_h=2, terms=3):
    f = ctx.field
    out = {}
    for _ in range(terms):
        total = rng.randint(0, max_deg1)
        cut = rng.randint(0, total)
        I = _split(rng, cut, ctx.n)
        J = _split(rng, total - cut, ctx.n)
        m = 0 if ctx.is_weyl else rng.randint(0, max_h)
        c = f.coerce(random_scalar(rng, f))
        key = (m, I, J)
        v = f.add(out.get(key, f.zero), c)
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return HElement(ctx, out)


def _split(rng, total, n):
    parts = [0] * n
    for _ in range(total):
        parts[rng.randrange(n)] += 1
    return tuple(parts)


def test_criterion_1_pbw_associativity_distributivity():
    started = time.perf_counter()
    contexts = [
        AlgebraContext(n, FieldSpec(char)) for n in (1, 2) for char in (0, 5)
    ]
    rng = random.Random(20240801)
    count = 0
    ok = True
    for i in range(10_000):
        ctx = contexts[i % 4]
        a = bounded_element(rng, ctx)
        b = bounded_element(rng, ctx)
        c = bounded_element(rng, ctx)
        if (a * b) * c != a * (b * c) or a * (b + c) != a * b + a * c:
            ok = False
            break
        count += 1
    elapsed = time.perf_counter() - started
    ok = ok and count == 10_000 and elapsed < 60.0
    announce(1, ok, f"{count} random triples associative+distributive in {elapsed:.1f}s")
    assert count == 10_000
    assert elapsed < 60.0


def test_criterion_2_operator_identity_suite():
    ok = True
    for n in (1, 2, 3):
        ctx = AlgebraContext(n)
        zero = DOperator.zero(ctx)
        ident = identity_op(ctx)
        lam_h = lambda_of(h(ctx))
        parts = [dh(ctx)] + [dx(ctx, l) for l in range(1, n + 1)] + [
            dy(ctx, l) for l in range(1, n + 1)
        ]
        # (1) partials commute
        for d1 in parts:
            for d2 in parts:
                ok &= op_commutator(d1, d2) == zero
        for l in range(1, n + 1):
            lam_x = lambda_of(x(ctx, l))
            lam_y = lambda_of(y(ctx, l))
            # (2), (3): coordinate brackets
            ok &= op_commutator(dx(ctx, l), lam_x) == ident
            ok &= op_commutator(dy(ctx, l), lam_y) == ident
            for j in range(1, n + 1):
                if j != l:
                    ok &= op_commutator(dx(ctx, l), lambda_of(x(ctx, j))) == zero
                    ok &= op_commutator(dy(ctx, l), lambda_of(y(ctx, j))) == zero
                ok &= op_commutator(dx(ctx, l), lambda_of(y(ctx, j))) == zero
                ok &= op_commutator(dy(ctx, l), lambda_of(x(ctx, j))) == zero
            ok &= op_commutator(dx(ctx, l), lam_h) == zero
            ok &= op_commutator(dy(ctx, l), lam_h) == zero
            # (4): dh brackets
            ok &= op_commutator(dh(ctx), lam_y) == -dx(ctx, l)
            ok &= op_commutator(dh(ctx), lam_x) == zero
            # (5): membership degrees
            ok &= mdeg(dx(ctx, l)) == 1 and mdeg(dy(ctx, l)) == 1
            # (6): lambda/rho differences
            ok &= lambda_of(x(ctx, l)) - rho_of(x(ctx, l)) == op_compose(
                lam_h, dy(ctx, l)
            )
            ok &= rho_of(y(ctx, l)) - lambda_of(y(ctx, l)) == op_compose(
                lam_h, dx(ctx, l)
            )
            # (8): reversed-derivative brackets
            bar = dh_reversed(ctx)
            ok &= op_commutator(bar, lam_x) == dy(ctx, l)
            ok &= op_commutator(bar, lam_y) == zero
        ok &= op_commutator(dh(ctx), lam_h) == ident
        ok &= mdeg(dh(ctx)) == 2
        # (7): normal form of the reversed derivative
        expected = dh(ctx)
        for l in range(1, n + 1):
            expected = expected + op_compose(dx(ctx, l), dy(ctx, l))
        ok &= dh_reversed(ctx) == expected
        ok &= op_commutator(dh_reversed(ctx), lam_h) == ident
        # divided-power h brackets, s <= 6
        for s in range(1, 7):
            want = dh(ctx, s - 1) if s > 1 else ident
            ok &= op_commutator(dh(ctx, s), lam_h) == want
        # the two reduction identities, integer powers
        for l in (1, n):
            for k in (1, 2, 3):
                for s in (1, 2, 3):
                    ok &= _reduction_identity_xy(ctx, l, k, s)
                    ok &= _reduction_identity_yx(ctx, l, k, s)
    announce(2, ok, "eight operator properties + divided powers + reduction identities, n <= 3")
    assert ok


def _int_power(d, k):
    out = identity_op(d.ctx)
    for _ in range(k):
        out = op_compose(out, d)
    return out


def _reduction_identity_xy(ctx, l, k, s):
    lhs = op_commutator(
        op_compose(lambda_of(x(ctx, l) ** k), _int_power(dy(ctx, l), s)),
        lambda_of(y(ctx, l)),
    )
    rhs = op_compose(
        lambda_of(k * (h(ctx) * x(ctx, l) ** (k - 1))), _int_power(dy(ctx, l), s)
    ) + op_compose(lambda_of(x(ctx, l) ** k), _int_power(dy(ctx, l), s - 1)).scale(s)
    return lhs == rhs


def _reduction_identity_yx(ctx, l, k, s):
    lhs = op_commutator(
        op_compose(lambda_of(y(ctx, l) ** k), _int_power(dx(ctx, l), s)),
        lambda_of(x(ctx, l)),
    )
    rhs = op_compose(
        lambda_of((-k) * (h(ctx) * y(ctx, l) ** (k - 1))), _int_power(dx(ctx, l), s)
    ) + op_compose(lambda_of(y(ctx, l) ** k), _int_power(dx(ctx, l), s - 1)).scale(s)
    return lhs == rhs


def test_criterion_3_composition_soundness():
    contexts = [
        AlgebraContext(n, FieldSpec(char)) for n in (1, 2) for char in (0, 5)
    ]
    rng = random.Random(20240803)
    count = 0
    ok = True
    for i in range(1_000):
        ctx = contexts[i % 4]
        d1 = random_operator(rng, ctx)
        d2 = random_operator(rng, ctx)
        a = random_element(rng, ctx)
        if op_apply(op_compose(d1, d2), a) != op_apply(d1, op_apply(d2, a)):
            ok = False
            break
        count += 1
    ok = ok and count == 1_000
    announce(3, ok, f"{count} random apply-compose triples, exact")
    assert ok


def test_criterion_4_simplicity_reduction():
    started = time.perf_counter()
    rng = random.Random(20240804)
    count = 0
    ok = True
    for i in range(1_000):
        ctx = AlgebraContext(1 if i % 2 == 0 else 2)
        d = random_nonzero_operator(rng, ctx, max_exp=3, max_h=3, terms=3)
        witness = reduce_to_scalar(d)
        if witness.scalar == 0 or replay_witness(d, witness) != witness.scalar:
            ok = False
            break
        count += 1
    elapsed = time.perf_counter() - started
    ok = ok and count == 1_000 and elapsed < 300.0
    announce(
        4, ok, f"{count} random operators reduced with replayable witnesses in {elapsed:.1f}s"
    )
    assert count == 1_000
    assert elapsed < 300.0


def _weyl_basis(ctx, max_deg2):
    out = []
    for i in range(max_deg2 + 1):
        for j in range(max_deg2 + 1 - i):
            out.append(HElement.monomial(ctx, 0, _unit_vec(ctx, i), _unit_vec(ctx, j)))
    return out


def _unit_vec(ctx, e):
    return (e,) + (0,) * (ctx.n - 1)


def test_criterion_5_weyl_inner_decomposition():
    ctx = AlgebraContext(1, mode="weyl")
    basis = _weyl_basis(ctx, 8)
    rng = random.Random(20240805)
    count = 0
    ok = True
    for _ in range(1_000):
        d = random_operator(rng, ctx, max_exp=2, terms=2)
        pairs = inner_decompose(d)
        for b in basis:
            want = op_apply(d, b)
            got = HElement.zero(ctx)
            for left, right in pairs:
                got = got + left * b * right
            if got != want:
                ok = False
                break
        if not ok:
            break
        count += 1
    # generator images satisfy the double-Weyl relations exactly
    rel_ok = True
    for n in (1, 2):
        wctx = AlgebraContext(n, mode="weyl")
        pairs = []
        for l in range(1, n + 1):
            lam_x, lam_y = lambda_of(x(wctx, l)), lambda_of(y(wctx, l))
            rho_x, rho_y = rho_of(x(wctx, l)), rho_of(y(wctx, l))
            rel_ok &= rho_y - lam_y == dx(wctx, l)
            rel_ok &= lam_x - rho_x == dy(wctx, l)
            pairs.append((lam_x, lam_y))
            pairs.append((rho_y, rho_x))
        ident = identity_op(wctx)
        zero = DOperator.zero(wctx)
        for i, (qi, pi) in enumerate(pairs):
            for j, (qj, pj) in enumerate(pairs):
                rel_ok &= op_commutator(qi, pj) == (ident if i == j else zero)
                rel_ok &= op_commutator(qi, qj) == zero
                rel_ok &= op_commutator(pi, pj) == zero
    ok = ok and count == 1_000 and rel_ok
    announce(
        5,
        ok,
        f"{count} inner decompositions verified on deg2<=8 basis; double-Weyl relations exact",
    )
    assert count == 1_000
    assert rel_ok


def test_criterion_6_matrix_corollary_desk_scale():
    started = time.perf_counter()
    f5 = FieldSpec(5)
    base = dual_numbers_algebra(f5)
    base_rep = z_filtration(base)
    big = tensor_algebra(matrix_algebra(2, f5), base)
    rep = z_filtration(big)
    dims = [rep.dimension_at(m) for m in range(3)]
    base_dims = [base_rep.dimension_at(m) for m in range(3)]
    elapsed = time.perf_counter() - started
    ok = dims == [16 * d for d in base_dims] and elapsed < 120.0
    announce(
        6,
        ok,
        f"dim Z_m(End M_2(F_5[eps])) = {dims} = 16*{base_dims} in {elapsed:.1f}s",
    )
    assert dims == [16 * d for d in base_dims]
    assert elapsed < 120.0


def test_criterion_7_azumaya_checks():
    started = time.perf_counter()
    rt3 = PolyRing(("t",), FieldSpec(3))
    m2_ok = is_azumaya(build_matrix_algebra(2, rt3))
    control_ok = not is_azumaya(build_dual_numbers(rt3))
    h1_claimed = is_azumaya(build_heisenberg_charp(1, 2))
    elapsed = time.perf_counter() - started
    ok = m2_ok and control_ok and h1_claimed and elapsed < 300.0
    announce(
        7,
        ok,
        f"M_2(F_3[t]) {m2_ok}, control false {control_ok}, H_1 p=2 {h1_claimed} "
        f"(expected true, but the multiplication-map determinant is h^16, "
        f"a non-unit: the h-graded family degenerates at h = 0) in {elapsed:.1f}s",
    )
    assert m2_ok
    assert control_ok
    assert elapsed < 300.0
    # expected true here, but the honest determinant is h^16: the fiber of
    # H_1 at h = 0 is commutative of rank 4, so the two-sided multiplication
    # map cannot be onto there; only the h-inverted (Weyl, h = 1) family
    # passes, cf. test_azumaya.test_azumaya_weyl_algebra_char2
    assert h1_claimed


def test_criterion_8_charp_extension_order():
    ok = True
    for p in (2, 3):
        alg = build_heisenberg_charp(1, p)
        for m in range(1, p + 1):
            ext = diagonal_extend(alg, PDOp.partial(alg.ring, 0, m))
            ok &= order_check(ext, m)
            ok &= not order_check(ext, m - 1)
        rng = random.Random(20240808 + p)
        for _ in range(100):
            phi = random_pdop(rng, alg.ring, max_exp=p)
            ok &= restrict_to_base(alg, diagonal_extend(alg, phi)) == phi
    announce(8, ok, "extension orders sharp and restriction identity on 100 random operators, p in {2,3}")
    assert ok


def test_criterion_9_reconstruction():
    ok = True
    count = 0
    for builder, seed in (
        (lambda: build_matrix_algebra(2, PolyRing(("t",), FieldSpec(3))), 1),
        (lambda: build_heisenberg_charp(1, 2), 2),
    ):
        alg = builder()
        rng = random.Random(20240809 + seed)
        for _ in range(200):
            phi = random_operator_matrix(rng, alg, max_exp=1, terms=1)
            if reconstruct_operator(alg, decompose_operator(alg, phi)) != phi:
                ok = False
                break
            count += 1
    ok = ok and count == 400
    announce(9, ok, f"{count} random operator matrices round-tripped on both families")
    assert ok


def test_criterion_10_filtration_containments():
    rng = random.Random(20240810)
    ok = True
    count = 0
    for _ in range(1_000):
        ctx = AlgebraContext(1 if count % 2 == 0 else 2)
        d1 = random_nonzero_operator(rng, ctx, max_exp=2, max_h=1, terms=2)
        d2 = random_nonzero_operator(rng, ctx, max_exp=2, max_h=1, terms=2)
        prod = op_compose(d1, d2)
        if not prod.is_zero() and mdeg(prod) > mdeg(d1) + mdeg(d2):
            ok = False
            break
        count += 1
    # [M_l, h] drops the degree by two
    bracket_ok = True
    ctx = AlgebraContext(2)
    for _ in range(100):
        d = random_nonzero_operator(rng, ctx, max_exp=2, max_h=1, terms=2)
        c = op_commutator(d, lambda_of(h(ctx)))
        if not c.is_zero() and mdeg(c) > mdeg(d) - 2:
            bracket_ok = False
            break
    # relative filtration dominates the absolute one on M_2(F_5)
    alg = matrix_algebra(2, FieldSpec(5))
    absolute = z_filtration(alg)
    relative = relative_z_filtration(alg, [alg.unit_element()])
    contain_ok = all(
        relative.subspace_at(m).contains_subspace(absolute.subspace_at(m))
        for m in range(3)
    )
    ok = ok and count == 1_000 and bracket_ok and contain_ok
    announce(
        10,
        ok,
        f"mdeg subadditive on {count} pairs; [M_l,h] drop verified; relative contains absolute",
    )
    assert ok


def test_criterion_11_cli_goldens_and_roundtrip():
    golden_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    from diffops.cli import main

    ok = True
    for name, argv in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(expand(argv))
        with open(os.path.join(golden_dir, f"{name}.txt"), encoding="utf-8") as fh:
            if rc != 0 or buf.getvalue() != fh.read():
                ok = False
                break
    # parse o print = identity on 1000 random values across the value types
    rng = random.Random(20240811)
    count = 0
    rt = True
    ring5 = PolyRing(("t", "u"), FieldSpec(5))
    ringq = PolyRing(("t",), FieldSpec(0))
    for i in range(1_000):
        kind = i % 4
        if kind == 0:
            ctx = AlgebraContext(2, FieldSpec(5 if i % 8 >= 4 else 0))
            a = random_element(rng, ctx)
            rt &= element_from_text(ctx, format_element(a)) == a
        elif kind == 1:
            ctx = AlgebraContext(2, FieldSpec(5 if i % 8 >= 4 else 0))
            d = random_operator(rng, ctx)
            rt &= operator_from_text(ctx, format_operator(d)) == d
        elif kind == 2:
            ctx = AlgebraContext(1, mode="weyl")
            d = random_operator(rng, ctx)
            rt &= operator_from_text(ctx, format_operator(d)) == d
        else:
            ring = ring5 if i % 8 >= 4 else ringq
            d = random_pdop(rng, ring)
            rt &= pdop_from_text(ring, format_pdop(d)) == d
        count += 1
    ok = ok and rt and count == 1_000
    announce(
        11,
        ok,
        f"{len(CASES)} golden invocations byte-identical; {count} parse/print round trips",
    )
    assert ok
