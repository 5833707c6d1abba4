"""Seeded input text for the workloads.

The library receives only what a user would type: element, operator and
polynomial text, or scalar structure constants.  Every generator draws
from the ``random.Random`` it is given, so one seed gives one input
stream.  Each value is also returned as a key -> coefficient map in the
library's own key layout, for the independent checks.
"""

from __future__ import annotations

import re
from fractions import Fraction


def scalar(rng, p):
    """A nonzero scalar: a small fraction over Q, a residue over F_p."""
    if p:
        return rng.randrange(1, p)
    num = rng.choice([-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6])
    return Fraction(num, rng.choice([1, 1, 1, 2, 3]))


def _coeff_text(c, body):
    if not body:
        return str(c)
    return body if c == 1 else f"{c}*{body}"


def join(terms):
    """Text of a sum from (coefficient, monomial text) pairs."""
    parts = []
    for c, body in terms:
        if c < 0:
            parts.append(("- " if parts else "-") + _coeff_text(-c, body))
        else:
            parts.append(("+ " if parts else "") + _coeff_text(c, body))
    return " ".join(parts) if parts else "0"


def _pow(name, e):
    return "" if e == 0 else (name if e == 1 else f"{name}^{e}")


def _dpow(name, e):
    return "" if e == 0 else (name if e == 1 else f"{name}[{e}]")


def element_mono_text(m, I, J):
    factors = [_pow("h", m)]
    factors += [_pow(f"x{i}", e) for i, e in enumerate(I, 1)]
    factors += [_pow(f"y{i}", e) for i, e in enumerate(J, 1)]
    return "*".join(f for f in factors if f)


def operator_mono_text(m, I, J, s, K, L):
    factors = [element_mono_text(m, I, J), _dpow("dh", s)]
    factors += [_dpow(f"dx{i}", e) for i, e in enumerate(K, 1)]
    factors += [_dpow(f"dy{i}", e) for i, e in enumerate(L, 1)]
    return "*".join(f for f in factors if f)


def _split(rng, total, n):
    parts = [0] * n
    for _ in range(total):
        parts[rng.randrange(n)] += 1
    return tuple(parts)


def element(rng, n, p, weyl=False, max_deg=5, max_h=2, terms=3):
    """Criterion-1 shaped element: total x/y degree <= max_deg per term."""
    out = {}
    for _ in range(terms):
        total = rng.randint(0, max_deg)
        cut = rng.randint(0, total)
        key = (0 if weyl else rng.randint(0, max_h), _split(rng, cut, n), _split(rng, total - cut, n))
        out[key] = scalar(rng, p)
    return out, join((c, element_mono_text(*k)) for k, c in out.items())


def operator(rng, n, p, weyl=False, max_exp=2, max_h=1, terms=3):
    """Random normal-form operator; every exponent is at most max_exp."""
    out = {}
    while not out:
        for _ in range(terms):
            m = 0 if weyl else rng.randint(0, max_h)
            s = 0 if weyl else rng.randint(0, max_h)
            I, J, K, L = (tuple(rng.randint(0, max_exp) for _ in range(n)) for _ in range(4))
            out[(m, I, J, s, K, L)] = scalar(rng, p)
    return out, join((c, operator_mono_text(*k)) for k, c in out.items())


def graded_operator(rng, n, p, mult_deg, part_deg, max_h=0, terms=2, weyl=False):
    """Operator whose terms all have x/y degree mult_deg and partial order
    part_deg, spread at random over the 2n slots: the work per request
    varies less than with independent exponents, while one slot can still
    carry the whole degree."""
    out = {}
    while len(out) < terms:
        m = 0 if weyl else rng.randint(0, max_h)
        s = 0 if weyl else rng.randint(0, max_h)
        IJ, KL = _split(rng, mult_deg, 2 * n), _split(rng, part_deg, 2 * n)
        out[(m, IJ[:n], IJ[n:], s, KL[:n], KL[n:])] = scalar(rng, p)
    return out, join((c, operator_mono_text(*k)) for k, c in out.items())


def poly_mono_text(names, exps):
    return "*".join(f for f in (_pow(v, e) for v, e in zip(names, exps)) if f)


def pdop(rng, names, p, max_exp=2, terms=2):
    """Random divided-power operator sum c * t^beta * d[t]^[alpha]."""
    out = {}
    while not out:
        for _ in range(terms):
            beta = tuple(rng.randint(0, max_exp) for _ in names)
            alpha = tuple(rng.randint(0, max_exp) for _ in names)
            out[(beta, alpha)] = scalar(rng, p)
    text = join(
        (c, "*".join(f for f in [poly_mono_text(names, beta)] + [
            "" if a == 0 else (f"d[{v}]" if a == 1 else f"d[{v}]^[{a}]")
            for v, a in zip(names, alpha)
        ] if f))
        for (beta, alpha), c in out.items()
    )
    return out, text


# -- an independent reader of the printed forms ---------------------------------

_FACTOR_RE = re.compile(r"^(?:d\[(\w+)\](?:\^\[(\d+)\])?|([A-Za-z]\w*?)(\d*)(?:\^(\d+)|\[(\d+)\])?)$")
_NUMBER_RE = re.compile(r"^\d+(?:/\d+)?$")


def _symbol(name):
    """("x", 1) for x1, ("h", 0) for h: a name split into letters and index."""
    m = re.match(r"^([A-Za-z]\w*?)(\d*)$", name)
    return (m.group(1), int(m.group(2) or 0))


def read_sum(text):
    """Terms of a printed sum as (coefficient, {symbol: exponent}) pairs.

    Symbols are ("h", 0), ("x", i), ("dx", i), ("d", var) and so on.  The
    reader shares no code with the library's parser or printer.
    """
    text = text.strip()
    if text == "0":
        return []
    out = []
    sign, rest = (-1, text[1:]) if text.startswith("-") else (1, text)
    pieces = re.split(r" ([+-]) ", rest)
    signs = [sign] + [1 if s == "+" else -1 for s in pieces[1::2]]
    for sgn, term in zip(signs, pieces[0::2]):
        factors = term.split("*")
        coeff = Fraction(1)
        if _NUMBER_RE.match(factors[0]):
            coeff = Fraction(factors.pop(0))
        powers = {}
        for fac in factors:
            m = _FACTOR_RE.match(fac)
            if m is None:
                raise ValueError(f"unreadable factor {fac!r}")
            if m.group(1):
                sym, e = ("d", m.group(1)), m.group(2)
            else:
                sym, e = _symbol(m.group(3) + m.group(4)), m.group(5) or m.group(6)
            if sym in powers:
                raise ValueError(f"repeated factor {fac!r}")
            powers[sym] = int(e or 1)
        out.append((sgn * coeff, powers))
    return out


def read_keys(text, n, operator=False):
    """Printed element or operator text -> {key: coefficient} in library layout."""
    out = {}
    for c, pw in read_sum(text):
        vec = lambda name: tuple(pw.pop((name, i), 0) for i in range(1, n + 1))
        key = (pw.pop(("h", 0), 0), vec("x"), vec("y"))
        if operator:
            key += (pw.pop(("dh", 0), 0), vec("dx"), vec("dy"))
        if pw or key in out:
            raise ValueError(f"unexpected factors {pw} in {text[:80]!r}")
        out[key] = c
    return out


def read_poly_keys(text, names, pdop=False):
    """Printed polynomial (or polynomial operator) text -> {key: coefficient}."""
    out = {}
    for c, pw in read_sum(text):
        key = tuple(pw.pop(_symbol(v), 0) for v in names)
        if pdop:
            key = (key, tuple(pw.pop(("d", v), 0) for v in names))
        if pw or key in out:
            raise ValueError(f"unexpected factors {pw} in {text[:80]!r}")
        out[key] = c
    return out

