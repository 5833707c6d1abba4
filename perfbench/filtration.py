"""Workload `filtration`: the differential filtration of finite-dimensional algebras.

The algebras are M_n (x) F_p[e]/(e^k) and the same over Q, handed to the
library as structure constants written here, in a seeded basis: matrix
units times powers of e, one diagonal unit swapped for the identity, then
permuted and rescaled, both drawn from the seed.  Dimensions
of the filtration do not depend on the basis, so every output is checked
exactly:

* dims(M_n (x) B) = n^4 * dims(B), with dims(B) computed once on the
  plain basis of B;
* the filtration relative to the central subalgebra 1 (x) B contains the
  absolute one at every level.
"""

from __future__ import annotations

from fractions import Fraction

from diffops import FieldSpec
from diffops.findim import FinAlgebra, relative_z_filtration, z_filtration


#: rounds in the seeded batch that the digest and the traced run cover
#: (one round holds every algebra)
BATCH_ROUNDS = 1


def build():
    """The fixed fields; the algebras themselves are request inputs."""
    return {p: FieldSpec(p) for p in (0, 2, 5, 7)}


# ((n, k, p), algebras per round): M_n (x) F_p[e]/(e^k), of dimension
# n^2 k, each filtered twice (absolute, then relative to 1 (x) B), so a
# round is 290 requests.  The slow pair (d=12 over F_5, d=8 over Q) and
# the six d=8 algebras over F_p come first; the nine M_3 (d=9) algebras
# hold the 95th percentile near the middle of their absolute runs; the
# d=3 algebras over F_5 and F_7 hold the median; the many small algebras
# expose per-level overhead, and the Q ones show the cost of Fraction
# pivots.  The medium algebras also keep the two slow ones to about half
# of a round's time, since the calibration cannot look inside a request.
SCHEDULE = [
    ((1, 2, 2), 12), ((1, 2, 5), 12), ((1, 2, 0), 4),
    ((2, 1, 2), 5), ((2, 1, 5), 4), ((2, 1, 7), 4),
    ((1, 3, 5), 32), ((1, 3, 7), 31),
    ((1, 3, 0), 8), ((2, 1, 0), 8), ((1, 4, 5), 4), ((1, 4, 7), 4),
    ((3, 1, 2), 3), ((3, 1, 5), 3), ((3, 1, 7), 3),
    ((2, 2, 2), 2), ((2, 2, 5), 2), ((2, 2, 7), 2),
    ((2, 2, 0), 1), ((2, 3, 5), 1),
]
TINY = [((1, 2, 5), 1), ((2, 1, 7), 1), ((1, 3, 0), 1)]


def requests(env, rng, rnd, tiny):
    """Each algebra twice in a row: absolute, then relative on the same input."""
    out = []
    for shape, count in (TINY if tiny else SCHEDULE):
        for _ in range(count):
            inputs = structure_constants(*shape, rng)
            out += [("abs", shape, inputs), ("rel", shape, inputs)]
    return out


def _scalar(rng, p):
    if p:
        return rng.randrange(1, p)
    return Fraction(rng.choice([1, -1]))  # larger rationals make the work seed-dependent


def structure_constants(n, k, p, rng):
    """Seeded basis of M_n (x) F_p[e]/(e^k): (constants, unit index, central basis).

    The raw basis is e_ij (x) e^a; raw index (n-1, n-1, 0) is replaced by the
    identity, then basis vector r of the result is scale[r] * b[perm[r]],
    with the permutation and the scales drawn from rng.
    """
    raw = [(i, j, a) for i in range(n) for j in range(n) for a in range(k)]
    index = {t: r for r, t in enumerate(raw)}
    d = len(raw)
    last = index[(n - 1, n - 1, 0)]
    diag = [index[(i, i, 0)] for i in range(n)]
    zero = Fraction(0) if p == 0 else 0

    def red(c):
        return c if p == 0 else c % p

    def inv(c):
        return 1 / Fraction(c) if p == 0 else pow(c, -1, p)

    def to_raw(r):  # unit-basis vector r in raw coordinates
        return {t: 1 for t in diag} if r == last else {r: 1}

    def raw_mul(u, v):
        out = {}
        for s, cu in u.items():
            i, j, a = raw[s]
            for t, cv in v.items():
                k2, l, b = raw[t]
                if j == k2 and a + b < k:
                    q = index[(i, l, a + b)]
                    out[q] = red(out.get(q, zero) + cu * cv)
        return out

    def from_raw(vec):  # raw coordinates -> unit-basis coordinates
        out = [zero] * d
        for t, c in vec.items():
            out[t] = red(out[t] + c)
        c = out[last]
        for t in diag[:-1]:
            out[t] = red(out[t] - c)
        return out

    basis = [to_raw(r) for r in range(d)]
    table = [[from_raw(raw_mul(basis[r], basis[s])) for s in range(d)] for r in range(d)]
    # elimination work depends on the basis order, by about 8% from one
    # order to another on the larger algebras
    perm = list(range(d))
    rng.shuffle(perm)
    unit = perm.index(last)
    scale = [1 if perm[r] == last else _scalar(rng, p) for r in range(d)]
    where = {perm[r]: r for r in range(d)}
    constants = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for r in range(d):
        for s in range(d):
            for t, c in enumerate(table[perm[r]][perm[s]]):
                if c:
                    q = where[t]
                    constants[r][s][q] = red(scale[r] * scale[s] * c * inv(scale[q]))
    # sum_i e_ii (x) e^a, a < k, span the central copy 1 (x) B
    central = []
    for a in range(k):
        vec = [zero] * d
        for t in [last] if a == 0 else [index[(i, i, a)] for i in range(n)]:
            vec[where[t]] = inv(scale[where[t]])
        central.append(vec)
    return constants, unit, central


def _dims_text(rep):
    return f"dims {' '.join(map(str, rep.dims))} stabilized {rep.stabilized_at}"


def _build(field, constants, unit):
    return FinAlgebra(field, constants, unit)


def execute(env, req, tr):
    kind, (n, k, p), (constants, unit, central) = req
    alg = tr.call("findim.build", _build, env[p], constants, unit)
    if kind == "abs":
        rep = tr.call("findim.z_filtration", z_filtration, alg)
    else:
        rep = tr.call("findim.relative_z_filtration", relative_z_filtration, alg, central)
    tr.count("findim.levels", len(rep.levels))
    tr.count("findim.dim_sum", sum(rep.dims))
    text = tr.call("printing.dims", _dims_text, rep)
    tr.count("printing.chars_out", len(text))
    return f"M{n} x F{p}[e]/e^{k} {kind}: {text}", rep


class CheckState:
    """Filtrations of the plain B = F_p[e]/(e^k), and the last absolute result."""

    def __init__(self):
        self.base = {}
        self.last_abs = None


def _base_dims(state, env, k, p):
    if (k, p) not in state.base:
        f = env[p]
        # plain basis 1, e, ..., e^(k-1): e^a e^b = e^(a+b)
        constants = [[[f.one if c == a + b else f.zero for c in range(k)] for b in range(k)]
                     for a in range(k)]
        state.base[(k, p)] = z_filtration(FinAlgebra(f, constants, 0)).dims
    return state.base[(k, p)]


def check(env, req, text, rep, state):
    kind, (n, k, p), _inputs = req
    want = [n ** 4 * dim for dim in _base_dims(state, env, k, p)]
    if kind == "abs":
        state.last_abs = (req[1], req[2], rep)
        return rep.dims == want and text.endswith(_dims_text(rep))
    shape, inputs, absolute = state.last_abs
    if shape != req[1] or inputs is not req[2]:
        return False
    return all(
        rep.subspace_at(m).contains_subspace(absolute.subspace_at(m))
        for m in range(len(absolute.levels))
    )
