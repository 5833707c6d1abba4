"""Workload `charp`: everything in characteristic p.

Calculus on H_n over F_2, F_3 and F_5 (the F_p scalar path: ints mod p
and Lucas binomials), free-over-centre algebra builds with their Azumaya
verdicts, Bareiss determinants over F_5[t,u], decompose/reconstruct
round trips and extension-order checks.  A Q-only scalar change should
leave this workload unchanged.
"""

from __future__ import annotations

import itertools

from diffops import AlgebraContext, FieldSpec, PolyRing, bareiss_determinant, p_compose
from diffops.azumaya import (
    OperatorMatrix,
    build_dual_numbers,
    build_heisenberg_charp,
    build_matrix_algebra,
    build_weyl_charp,
    decompose_operator,
    diagonal_extend,
    is_azumaya,
    order_check,
    reconstruct_operator,
)
from diffops.parsing import pdop_from_text, poly_from_text
from diffops.printing import format_pdop, format_poly

import calculus
import gen


#: Azumaya verdicts from the mathematics, never from a test's claim:
#: matrix algebras and the Weyl algebra A_1 (h = 1) over its centre are
#: Azumaya; dual numbers are commutative; the h-graded H_1 over
#: k[h, x^p, y^p] is commutative at h = 0 (for p = 2 the determinant is h^16).
ALGEBRAS = {
    "M2(F3[t])": (build_matrix_algebra, (2, ("t",), 3), 4, True),
    "M3(F2[t])": (build_matrix_algebra, (3, ("t",), 2), 9, True),
    "dual(F3[t])": (build_dual_numbers, (("t",), 3), 2, False),
    "H1(p=2)": (build_heisenberg_charp, (1, 2), 4, False),
    "H1(p=3)": (build_heisenberg_charp, (1, 3), 9, False),
    "W1(p=2)": (build_weyl_charp, (1, 2), 4, True),
    "W1(p=3)": (build_weyl_charp, (1, 3), 9, True),
}


def _build(name):
    builder, args, _dim, _verdict = ALGEBRAS[name]
    if builder in (build_matrix_algebra, build_dual_numbers):
        *head, names, p = args
        args = (*head, PolyRing(names, FieldSpec(p)))
    return builder(*args)


#: rounds in the seeded batch that the digest and the traced run cover
#: (one round holds every request shape)
BATCH_ROUNDS = 1


def build():
    """The fixed contexts and rings: calculus contexts, the determinant ring,
    and the two algebras that round trips and order checks run on."""
    return {
        "ctx": {(n, p): AlgebraContext(n, FieldSpec(p)) for n in (1, 2) for p in (2, 3, 5)},
        "det_ring": PolyRing(("t", "u"), FieldSpec(5)),
        "alg": {name: _build(name) for name in ("M2(F3[t])", "H1(p=2)")},
    }


# (shape, requests per round).  The three slow Azumaya checks (M_3 over
# F_2[t], A_1 and H_1 at p = 3, 2-3 s each) come once per round, then the
# 7x7 and 6x6 determinants; the twelve 5x5 ones are the class the 95th
# percentile falls in, and ~220 light requests fill the rest.
SCHEDULE = [
    (("mul", 1, 2), 20), (("mul", 2, 3), 20), (("mul", 2, 5), 20),
    (("compose", 1, 2), 12), (("compose", 1, 3), 12), (("compose", 2, 5), 12),
    (("apply", 1, 3), 10), (("apply", 2, 5), 10),
    (("comm", 1, 5), 6), (("comm", 2, 2), 6),
    (("central", 1, 2), 12), (("central", 1, 3), 12), (("central", 2, 5), 12),
    (("pcompose",), 20), (("order", "M2(F3[t])"), 10), (("order", "H1(p=2)"), 4),
    (("det", 4), 4), (("det", 5), 12), (("det", 6), 3), (("det", 7), 1),
    (("roundtrip", "M2(F3[t])"), 4), (("roundtrip", "H1(p=2)"), 3),
    (("azumaya", "M2(F3[t])"), 1), (("azumaya", "dual(F3[t])"), 1),
    (("azumaya", "H1(p=2)"), 1), (("azumaya", "W1(p=2)"), 1),
    (("azumaya", "M3(F2[t])"), 1), (("azumaya", "W1(p=3)"), 1), (("azumaya", "H1(p=3)"), 1),
]
TINY = [(("mul", 1, 2), 1), (("compose", 2, 5), 1), (("central", 1, 3), 1), (("pcompose",), 1),
        (("order", "H1(p=2)"), 1), (("det", 4), 1), (("roundtrip", "M2(F3[t])"), 1),
        (("azumaya", "H1(p=2)"), 1), (("azumaya", "W1(p=2)"), 1)]


def requests(env, rng, rnd, tiny):
    out = [make(env, rng, s) for s, k in (TINY if tiny else SCHEDULE) for _ in range(k)]
    rng.shuffle(out)
    return out


def make(env, rng, shape):
    kind = shape[0]
    if kind in ("mul", "compose", "apply", "comm", "central"):
        _kind, n, p = shape
        ctx = env["ctx"][(n, p)]
        if kind == "mul":
            return (kind, ctx, gen.element(rng, n, p), gen.element(rng, n, p))
        if kind == "central":
            return (kind, ctx, gen.element(rng, n, p, max_deg=8, terms=4))
        if kind == "apply":
            return (kind, ctx, gen.graded_operator(rng, n, p, 3, 2, 1, 3), gen.element(rng, n, p, max_deg=6))
        ops = [gen.graded_operator(rng, n, p, 3, 3, 1, 3) for _ in range(2)]
        return (kind, ctx, *ops)
    if kind == "pcompose":
        ring = env["det_ring"]
        names, p = ring.variables, ring.field.characteristic
        return (kind, ring, gen.pdop(rng, names, p, 3, 3), gen.pdop(rng, names, p, 3, 3))
    if kind == "order":
        alg = env["alg"][shape[1]]
        names, p = alg.ring.variables, alg.ring.field.characteristic
        return (kind, alg, gen.pdop(rng, names, p, max_exp=p, terms=3))
    if kind == "det":
        ring = env["det_ring"]
        return (kind, ring, _lu_matrix(rng, shape[1], ring.variables, ring.field.characteristic))
    if kind == "roundtrip":
        alg = env["alg"][shape[1]]
        names, p = alg.ring.variables, alg.ring.field.characteristic
        return (kind, alg, [[gen.pdop(rng, names, p, max_exp=1, terms=1) for _ in range(alg.dim)]
                            for _ in range(alg.dim)])
    if kind == "azumaya":
        return (kind, shape[1])
    raise ValueError(f"unknown shape {shape!r}")


# -- sparse polynomials mod p, for matrices with a known determinant -------------


def _padd(a, b, p):
    out = dict(a)
    for k, c in b.items():
        v = (out.get(k, 0) + c) % p
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _pmul(a, b, p):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            out = _padd(out, {tuple(x + y for x, y in zip(k1, k2)): c1 * c2 % p}, p)
    return out


def _lu_matrix(rng, size, names, p):
    """M = P L U with L unit lower and U upper triangular and P the row
    reversal, so that det M = sign(P) * prod(diag U) is known without the
    library."""
    const = (0,) * len(names)

    monomials = [tuple(e) for e in itertools.product((0, 1), repeat=len(names))]

    def entry():  # every monomial of degree <= 1 in each variable: dense, so
        # every matrix of one size costs about the same
        return {e: rng.randrange(1, p) for e in monomials}

    L = [[({const: 1} if i == j else entry() if j < i else {}) for j in range(size)] for i in range(size)]
    U = [[(entry() if j >= i else {}) for j in range(size)] for i in range(size)]
    M = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                M[i][j] = _padd(M[i][j], _pmul(L[i][k], U[k][j], p), p)
    # rows reversed, so elimination does not meet the triangular factors;
    # a fixed order keeps the cost of one size the same from seed to seed
    perm = list(range(size))[::-1]
    inversions = size * (size - 1) // 2
    det = {const: 1 if inversions % 2 == 0 else p - 1}
    for i in range(size):
        det = _pmul(det, U[i][i], p)
    texts = [[gen.join((c, gen.poly_mono_text(names, k)) for k, c in M[perm[i]][j].items())
              for j in range(size)] for i in range(size)]
    return texts, det


# -- requests ----------------------------------------------------------------------


def _format_table(alg):
    lines = []
    for i, row in enumerate(alg.table):
        for j, cell in enumerate(row):
            for k, poly in enumerate(cell):
                if not poly.is_zero():
                    lines.append(f"{i} {j} {k}: {format_poly(poly)}")
    return "\n".join(lines)


def _format_matrix(comps):
    return "\n".join(" | ".join(format_pdop(e) for e in row) for row in comps)


def _roundtrip(alg, phi):
    comps = decompose_operator(alg, phi)
    return comps, reconstruct_operator(alg, comps)


def _orders(ext, m):
    return [order_check(ext, k) for k in (m - 1, m)]


def _parse_pdop(ring, text, tr):
    tr.count("parsing.chars_in", len(text))
    return tr.call("parsing.pdop", pdop_from_text, ring, text)


def execute(env, req, tr):
    kind = req[0]
    if kind in ("mul", "compose", "apply", "comm", "central"):
        return calculus.execute(env, req, tr)
    if kind == "pcompose":
        ring = req[1]
        d1, d2 = _parse_pdop(ring, req[2][1], tr), _parse_pdop(ring, req[3][1], tr)
        r = tr.call("polydiff.p_compose", p_compose, d1, d2)
        return calculus.emit(tr, "printing.pdop", format_pdop, r), (r, d1, d2)
    if kind == "order":
        alg = req[1]
        phi = _parse_pdop(alg.ring, req[2][1], tr)
        m = max(sum(alpha) for _beta, alpha in req[2][0])
        ext = tr.call("azumaya.extend", diagonal_extend, alg, phi)
        verdicts = tr.call("polydiff.order_check", _orders, ext, m)
        text = f"order <= {m - 1}: {verdicts[0]}; order <= {m}: {verdicts[1]}"
        tr.count("printing.chars_out", len(text))
        return text, (verdicts, phi)
    if kind == "det":
        ring = req[1]
        texts = req[2][0]
        entries = []
        for row in texts:
            tr.count("parsing.chars_in", sum(len(t) for t in row))
            entries.append([tr.call("parsing.poly", poly_from_text, ring, t) for t in row])
        det = tr.call("polyring.bareiss", bareiss_determinant, entries, ring)
        tr.count("polyring.det_terms", len(det.terms))
        return calculus.emit(tr, "printing.poly", format_poly, det), det
    if kind == "roundtrip":
        alg = req[1]
        entries = [[_parse_pdop(alg.ring, t, tr) for _keys, t in row] for row in req[2]]
        phi = OperatorMatrix(alg.ring, entries)
        comps, back = tr.call("azumaya.roundtrip", _roundtrip, alg, phi)
        return calculus.emit(tr, "printing.pdop", _format_matrix, comps), (comps, back, phi)
    if kind == "azumaya":
        alg = tr.call("azumaya.build", _build, req[1])
        verdict = tr.call("azumaya.is_azumaya", is_azumaya, alg, alg.dim)
        table = calculus.emit(tr, "printing.poly", _format_table, alg)
        return f"{req[1]} dim {alg.dim} azumaya {str(verdict).lower()}\n{table}", (alg, verdict)
    raise ValueError(f"unknown request {kind!r}")


def check(env, req, text, value, state):
    kind = req[0]
    if kind in ("mul", "compose", "apply", "comm", "central"):
        return calculus.check(env, req, text, value, state)
    if kind == "pcompose":
        r, d1, d2 = value
        ring = req[1]
        got = gen.read_poly_keys(text, ring.variables, pdop=True)
        want = calculus.coord_compose(req[2][0], req[3][0])
        return (
            d1.terms == req[2][0] and d2.terms == req[3][0] and got == r.terms
            and calculus.reduced(got, ring.field.characteristic)
            == calculus.reduced(want, ring.field.characteristic)
        )
    if kind == "order":
        verdicts, phi = value
        return phi.terms == req[2][0] and verdicts == [False, True]
    if kind == "det":
        return gen.read_poly_keys(text, req[1].variables) == req[2][1] == value.terms
    if kind == "roundtrip":
        comps, back, phi = value
        rows = [[gen.read_poly_keys(t, req[1].ring.variables, pdop=True) for t in line.split(" | ")]
                for line in text.split("\n")]
        return (
            back == phi
            and all(e.terms == keys for row, krow in zip(phi.entries, req[2]) for e, (keys, _t) in zip(row, krow))
            and rows == [[e.terms for e in row] for row in comps]
        )
    if kind == "azumaya":
        alg, verdict = value
        _builder, _args, dim, expected = ALGEBRAS[req[1]]
        unit = all(
            alg.mul_elements(alg.basis_element(0), alg.basis_element(i)) == alg.basis_element(i)
            for i in range(alg.dim)
        )
        return alg.dim == dim and unit and verdict is expected and text.split("\n")[0].endswith(
            str(expected).lower())
    return False
