"""Independent oracles and random generators used by the test suite.

The multiplication oracle rewrites words one adjacent swap at a time
(y_i x_i -> x_i y_i - h), deliberately sharing no code with the library's
closed-form product kernel; within one product it remembers the integer
expansion of each word it has rewritten.  The action oracle takes its own binomials
on PBW coordinates and multiplies by that rewriting.  The bracket oracle
measures filtration membership by brute-force commutator chains.  The
finite-dimensional filtration oracle follows the definition literally,
with dense d x d matrix products and Gauss-Jordan elimination over all
rows, and imports nothing from ``diffops.findim``.  The structure-constant
check, the reference for the library's sparse validator, sums all d^5
products of its definition and shares no code with it.  The determinant oracle
expands along the first row over plain {exponent: coefficient} dicts and
shares no code with the library's elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from diffops import DOperator, FieldSpec, HElement, lambda_of, op_commutator
from diffops.heisenberg import AlgebraContext


# -- naive PBW normalization ---------------------------------------------------

# generators are ("h",), ("x", i) or ("y", i); a word is a tuple of them

_ORDER = {"h": 0, "x": 1, "y": 2}


def _gen_key(g):
    return (_ORDER[g[0]], g[1] if len(g) > 1 else 0)


def _normalize_word(word, memo):
    """{normal word: integer coefficient} of a word, by single swaps; memo
    holds the words already normalized within one product."""
    if word not in memo:
        out = {word: 1}
        for pos in range(len(word) - 1):
            g1, g2 = word[pos], word[pos + 1]
            if _gen_key(g1) <= _gen_key(g2):
                continue
            out = dict(_normalize_word(word[:pos] + (g2, g1) + word[pos + 2 :], memo))
            if g1[0] == "y" and g2[0] == "x" and g1[1] == g2[1]:
                # y x = x y - h
                reduced = word[:pos] + (("h",),) + word[pos + 2 :]
                for w, c in _normalize_word(reduced, memo).items():
                    out[w] = out.get(w, 0) - c
            break
        memo[word] = out
    return memo[word]


def _word_of_key(key):
    m, I, J = key
    word = (("h",),) * m
    for i, e in enumerate(I, start=1):
        word += (("x", i),) * e
    for i, e in enumerate(J, start=1):
        word += (("y", i),) * e
    return word


def _key_of_word(word, n, weyl):
    m = sum(1 for g in word if g[0] == "h")
    I = [0] * n
    J = [0] * n
    for g in word:
        if g[0] == "x":
            I[g[1] - 1] += 1
        elif g[0] == "y":
            J[g[1] - 1] += 1
    return (0 if weyl else m, tuple(I), tuple(J))


def naive_mul(a: HElement, b: HElement) -> HElement:
    """Product computed by exhaustive single-swap rewriting."""
    ctx = a.ctx
    f = ctx.field
    acc: dict = {}
    memo: dict = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            for word, w in _normalize_word(_word_of_key(k1) + _word_of_key(k2), memo).items():
                acc[word] = f.add(acc.get(word, f.zero), f.mul(f.mul(c1, c2), w))
    out: dict = {}
    for word, c in acc.items():
        if c == 0:
            continue
        key = _key_of_word(word, ctx.n, ctx.is_weyl)
        v = f.add(out.get(key, f.zero), c)
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return HElement(ctx, out)


def naive_apply(d: DOperator, a: HElement) -> HElement:
    """Action of d on a from the definition: each divided power d^[k] takes
    t^e to C(e, k) t^(e-k) on its PBW coordinate, then the multiplication
    part acts by naive_mul."""
    ctx = a.ctx
    f, n = ctx.field, ctx.n
    out = HElement.zero(ctx)
    for (m, I, J, s, K, L), c in d.terms.items():
        for (em, eI, eJ), v in a.terms.items():
            w = comb(em, s)
            for e, k in zip(eI + eJ, K + L):
                w *= comb(e, k)
            w = f.mul(f.mul(c, v), f.coerce(w))
            if w == 0:
                continue
            shifted = HElement.monomial(
                ctx, em - s, [eI[i] - K[i] for i in range(n)], [eJ[i] - L[i] for i in range(n)], w
            )
            out = out + naive_mul(HElement.monomial(ctx, m, I, J), shifted)
    return out


# -- bracket-chain oracle -------------------------------------------------------


def all_chains_vanish(d: DOperator, length: int) -> bool:
    """True iff every commutator chain of `length` x/y generators kills d."""
    from diffops.heisenberg import x as gen_x, y as gen_y

    ctx = d.ctx
    partners = [lambda_of(gen_x(ctx, l)) for l in range(1, ctx.n + 1)]
    partners += [lambda_of(gen_y(ctx, l)) for l in range(1, ctx.n + 1)]

    def rec(cur, depth):
        if depth == 0:
            return cur.is_zero()
        for p in partners:
            nxt = op_commutator(cur, p)
            if not rec(nxt, depth - 1):
                return False
        return True

    return rec(d, length)


def bracket_vanishing_index(d: DOperator, cap: int = 8) -> int:
    """Smallest l with all (l+1)-generator chains vanishing (true M-filtration index)."""
    for l in range(cap + 1):
        if all_chains_vanish(d, l + 1):
            return l
    raise AssertionError(f"no vanishing index up to {cap}")


# -- literal filtration of a finite-dimensional algebra ---------------------------

# Scalars are Fractions when p == 0 and ints in [0, p) otherwise.


def _red(c, p):
    return c % p if p else Fraction(c)


def _inv(c, p):
    return pow(c, -1, p) if p else 1 / Fraction(c)


def gauss_jordan(vectors, n, p):
    """(rows, pivots) of the reduced row echelon form of all the vectors."""
    rows = [[_red(c, p) for c in v] for v in vectors]
    pivots = []
    for col in range(n):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col] != 0), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        inv = _inv(rows[top][col], p)
        rows[top] = [_red(c * inv, p) for c in rows[top]]
        for s in range(len(rows)):
            c = rows[s][col]
            if s != top and c != 0:
                rows[s] = [_red(a - c * b, p) for a, b in zip(rows[s], rows[top])]
        pivots.append(col)
    return tuple(tuple(r) for r in rows[: len(pivots)]), tuple(pivots)


def _kernel(rows, n, p):
    red, pivots = gauss_jordan(rows, n, p)
    out = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [_red(0, p)] * n
        v[fc] = _red(1, p)
        for row, q in zip(red, pivots):
            v[q] = _red(-row[fc], p)
        out.append(v)
    return out


def _matmul(a, b, p):
    d = len(a)
    return [
        [_red(sum(a[i][t] * b[t][j] for t in range(d)), p) for j in range(d)]
        for i in range(d)
    ]


def _flat(m):
    return [c for row in m for c in row]


def _residual(vec, rows, pivots, p):
    v = list(vec)
    for row, q in zip(rows, pivots):
        c = v[q]
        v = [_red(a - c * b, p) for a, b in zip(v, row)]
    return v


def literal_filtration(constants, p, multipliers, i_max=None):
    """Levels of the differential filtration of End(A), from the definition.

    ``multipliers`` are coordinate vectors whose left multiplications act
    on both sides (every basis vector for the absolute filtration, a basis
    of the central subalgebra for the relative one).  Returns the
    (rows, pivots) of each level and the index where the chain stabilized
    (None if it did not within i_max).
    """
    d = len(constants)
    n = d * d
    if i_max is None:
        i_max = n
    Ls = [
        [[_red(sum(x[i] * constants[i][j][k] for i in range(d)), p) for j in range(d)]
         for k in range(d)]
        for x in multipliers
    ]

    def units():
        for idx in range(n):
            yield [[_red(1 if r * d + c == idx else 0, p) for c in range(d)] for r in range(d)]

    def centre(rows, pivots):
        columns = []
        for E in units():
            col = []
            for L in Ls:
                comm = [
                    _red(a - b, p)
                    for a, b in zip(_flat(_matmul(L, E, p)), _flat(_matmul(E, L, p)))
                ]
                col += _residual(comm, rows, pivots, p)
            columns.append(col)
        return _kernel([list(r) for r in zip(*columns)], n, p)

    def span(vectors, rows):
        out = list(rows)
        for v in vectors:
            phi = [list(v[r * d : r * d + d]) for r in range(d)]
            for La in Ls:
                left = _matmul(La, phi, p)
                for Lb in Ls:
                    out.append(_flat(_matmul(left, Lb, p)))
        return gauss_jordan(out, n, p)

    current = span(centre((), ()), ())
    levels = [current]
    if len(current[0]) == n:
        return levels, 0
    for i in range(1, i_max + 1):
        nxt = span(centre(*current), current[0])
        if len(nxt[0]) == len(current[0]):
            return levels, i - 1
        current = nxt
        levels.append(current)
        if len(current[0]) == n:
            return levels, i
    return levels, None


def dense_validation(table, unit, zero, one, p=0):
    """The structure-constant check by its definition: the unit law, then
    (e_i e_j) e_l = e_i (e_j e_l) coordinate by coordinate, summing over all
    d^5 products.  Works on scalar (compared mod p when p) or Poly tables.
    Returns the failure message, or None for a valid table.
    """
    d = len(table)

    def differ(a, b):
        return (a - b) % p != 0 if p else a != b

    for j in range(d):
        for k in range(d):
            want = one if j == k else zero
            if differ(table[unit][j][k], want) or differ(table[j][unit][k], want):
                return "marked unit element is not a unit"
    for i in range(d):
        for j in range(d):
            for l in range(d):
                for m in range(d):
                    lhs = rhs = zero
                    for k in range(d):
                        lhs = lhs + table[i][j][k] * table[k][l][m]
                        rhs = rhs + table[j][l][k] * table[i][k][m]
                    if differ(lhs, rhs):
                        return "structure constants not associative"
    return None


def matrix_truncated_algebra(n, k, p, rng):
    """M_n (x) F[e]/(e^k) over F = F_p (Q if p == 0) in a seeded basis.

    The basis e_ij (x) e^a, with e_nn (x) 1 replaced by the identity, is
    permuted and each vector but the identity rescaled.  Returns
    (constants, unit index, basis of the central copy of F[e]/(e^k)).
    """
    raw = [(i, j, a) for i in range(n) for j in range(n) for a in range(k)]
    d = len(raw)
    where_raw = {t: r for r, t in enumerate(raw)}
    ident = where_raw[(n - 1, n - 1, 0)]
    diag = [where_raw[(i, i, 0)] for i in range(n)]

    def vec(r):  # basis vector r in raw coordinates
        return {t: 1 for t in diag} if r == ident else {r: 1}

    def raw_product(u, v):
        out = {}
        for s, cu in u.items():
            i, j, a = raw[s]
            for t, cv in v.items():
                j2, l, b = raw[t]
                if j == j2 and a + b < k:
                    q = where_raw[(i, l, a + b)]
                    out[q] = out.get(q, 0) + cu * cv
        return out

    def coords(u):  # raw coordinates -> coordinates in the basis with the identity
        out = [0] * d
        for t, c in u.items():
            out[t] += c
        for t in diag[:-1]:
            out[t] -= out[ident]
        return out

    order = list(range(d))
    rng.shuffle(order)
    scale = [
        1 if order[r] == ident else random_nonzero_scalar(rng, FieldSpec(p)) for r in range(d)
    ]
    pos = {order[r]: r for r in range(d)}
    constants = [[[_red(0, p)] * d for _ in range(d)] for _ in range(d)]
    for r in range(d):
        for s in range(d):
            prod = coords(raw_product(vec(order[r]), vec(order[s])))
            for t, c in enumerate(prod):
                if c:
                    q = pos[t]
                    constants[r][s][q] = _red(scale[r] * scale[s] * c * _inv(scale[q], p), p)
    central = []
    for a in range(k):
        v = [_red(0, p)] * d
        for t in [ident] if a == 0 else [where_raw[(i, i, a)] for i in range(n)]:
            v[pos[t]] = _inv(scale[pos[t]], p)
        central.append(v)
    return constants, pos[ident], central


# -- determinants by cofactor expansion ---------------------------------------------

# a polynomial is a dict {exponent tuple: nonzero coefficient}, coefficients
# reduced mod p (or Fractions when p = 0)


def plain_add(a, b, p=0):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        v = v % p if p else v
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def plain_mul(a, b, p=0):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = plain_add(out, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2}, p)
    return out


def cofactor_determinant(matrix, nvars, p=0):
    """det by Laplace expansion along the first row, recursing on minors
    down to the empty matrix, whose determinant is 1."""
    if not matrix:
        return {(0,) * nvars: 1}
    out = {}
    for j, entry in enumerate(matrix[0]):
        if entry:
            minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
            sign = {(0,) * nvars: 1 if j % 2 == 0 else (p - 1 if p else -1)}
            term = plain_mul(plain_mul(sign, entry, p), cofactor_determinant(minor, nvars, p), p)
            out = plain_add(out, term, p)
    return out


# -- random values ---------------------------------------------------------------


def random_scalar(rng, field):
    if field.characteristic == 0:
        num = rng.randint(-6, 6)
        den = rng.choice([1, 1, 1, 2, 3])
        return Fraction(num, den)
    return rng.randrange(field.characteristic)


def random_nonzero_scalar(rng, field):
    while True:
        c = random_scalar(rng, field)
        if c != 0:
            return field.coerce(c)


def random_element(rng, ctx: AlgebraContext, max_exp=2, max_h=2, terms=3) -> HElement:
    out: dict = {}
    f = ctx.field
    for _ in range(terms):
        m = 0 if ctx.is_weyl else rng.randint(0, max_h)
        I = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        J = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        c = f.coerce(random_scalar(rng, f))
        key = (m, I, J)
        v = f.add(out.get(key, f.zero), c)
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return HElement(ctx, out)


def random_nonzero_element(rng, ctx, **kw) -> HElement:
    while True:
        a = random_element(rng, ctx, **kw)
        if not a.is_zero():
            return a


def random_operator(rng, ctx: AlgebraContext, max_exp=2, max_h=1, terms=3) -> DOperator:
    out: dict = {}
    f = ctx.field
    for _ in range(terms):
        m = 0 if ctx.is_weyl else rng.randint(0, max_h)
        s = 0 if ctx.is_weyl else rng.randint(0, max_h)
        I = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        J = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        K = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        L = tuple(rng.randint(0, max_exp) for _ in range(ctx.n))
        c = f.coerce(random_scalar(rng, f))
        key = (m, I, J, s, K, L)
        v = f.add(out.get(key, f.zero), c)
        if v == 0:
            out.pop(key, None)
        else:
            out[key] = v
    return DOperator(ctx, out)


def random_nonzero_operator(rng, ctx, **kw) -> DOperator:
    while True:
        d = random_operator(rng, ctx, **kw)
        if not d.is_zero():
            return d


def random_poly(rng, ring, max_exp=2, terms=2):
    out = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        out = out + ring.monomial(exps, random_scalar(rng, ring.field))
    return out


def random_pdop(rng, ring, max_exp=2, terms=2):
    from diffops import PDOp

    out = PDOp.zero(ring)
    for _ in range(terms):
        beta = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        alpha = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        out = out + PDOp.term(ring, beta, alpha, random_scalar(rng, ring.field))
    return out


def random_operator_matrix(rng, alg, max_exp=1, terms=1):
    from diffops.azumaya import OperatorMatrix

    n = alg.dim
    out = OperatorMatrix.zero(alg.ring, n)
    for i in range(n):
        for j in range(n):
            out.entries[i][j] = random_pdop(rng, alg.ring, max_exp=max_exp, terms=terms)
    return out
