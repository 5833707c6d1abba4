"""Workload `calculus-q`: operator calculus on H_n / A_n over Q, n in {1, 2, 3}.

Q scalars (``Fraction``), the product kernel ``_mul_mono``,
``_push_partials``, parsing and printing do most of the work; ``findim``
and ``polyring`` stay idle.  Operators at n = 1 use small exponents, so
the same exponent tuples recur; at n = 3 a term's degree is spread over
six slots and one slot can reach 4 or 5, so tuples rarely recur.  A memo
cache in the kernels would show both its hit and its miss cost here.
"""

from __future__ import annotations

from diffops import AlgebraContext, FieldSpec
from diffops.heisenberg import MODE_WEYL

import calculus
import gen


#: rounds in the seeded batch that the digest and the traced run cover
#: (about 3 s of requests)
BATCH_ROUNDS = 8


def build():
    """H_1, H_2, H_3 and the Weyl algebras A_1, A_2 over Q."""
    q = FieldSpec(0)
    ctx = {n: AlgebraContext(n, q) for n in (1, 2, 3)}
    ctx.update({("w", n): AlgebraContext(n, q, MODE_WEYL) for n in (1, 2)})
    return ctx


# (kind, n, requests per round).  mul is the criterion-1 shape, reduce the
# criterion-4 shape, inner the criterion-5 shape.  The n=2/3 compositions,
# n=2 commutators and reductions make up the slowest ~15%, so the 95th
# percentile falls inside that class.
SCHEDULE = [
    (("mul", 1), 4), (("mul", 2), 4), (("mul", 3), 2),
    (("apply", 1), 3), (("apply", 2), 3), (("apply", 3), 2),
    (("compose", 1), 4), (("compose", 2), 3), (("compose", 3), 3),
    (("comm", 1), 3), (("comm", 2), 2),
    (("reduce", 1), 3), (("reduce", 2), 3),
    (("inner", 1), 4), (("inner", 2), 1),
]
TINY = [(("mul", 1), 1), (("apply", 2), 1), (("compose", 3), 1), (("comm", 1), 1),
        (("reduce", 1), 1), (("inner", 1), 1)]

#: graded operator shapes (x/y degree, partial order, max h and dh power, terms)
COMPOSE = {1: (2, 2, 1, 3), 2: (4, 3, 1, 3), 3: (5, 4, 0, 4)}
COMM = {1: (2, 2, 1, 3), 2: (3, 3, 1, 2)}


def make(env, rng, shape):
    kind, n = shape
    if kind == "mul":
        return (kind, env[n], gen.element(rng, n, 0), gen.element(rng, n, 0))
    if kind == "apply":
        return (kind, env[n], gen.graded_operator(rng, n, 0, 3, 2, 1, 3), gen.element(rng, n, 0, max_deg=6))
    if kind in ("compose", "comm"):
        dims = (COMPOSE if kind == "compose" else COMM)[n]
        ops = [gen.graded_operator(rng, n, 0, *dims) for _ in range(2)]
        return (kind, env[n], *ops)
    if kind == "reduce":
        return (kind, env[n], gen.operator(rng, n, 0, max_exp=3, max_h=3, terms=3))
    # exponents <= 1 at n=2 keep the pair count small
    return (kind, env[("w", n)], gen.operator(rng, n, 0, weyl=True, max_exp=3 - n, terms=2))


def requests(env, rng, rnd, tiny):
    out = [make(env, rng, s) for s, k in (TINY if tiny else SCHEDULE) for _ in range(k)]
    rng.shuffle(out)
    return out


execute, check = calculus.execute, calculus.check
