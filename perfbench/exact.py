"""Exact checks made apart from ``crn1d``.

Nothing here imports the package under test.  Root counts come from a
Sturm chain over integer polynomials; witness replays use 50-digit
arithmetic (mpmath, imported only by the function that needs it); the
enumeration checks use a brute-force isomorphism key over every species
and reaction relabeling.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import permutations

# ---------------------------------------------------------------------------
# Integer polynomials, ascending coefficients, no trailing zeros.


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p):
    g = 0
    for c in p:
        g = math.gcd(g, c)
    return [c // g for c in p] if g > 1 else p


def _to_integer(coeffs):
    """Positive multiple of a rational polynomial with coprime integer coefficients."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return _primitive(_trim([int(c * den) for c in coeffs]))


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _prem(a, b):
    """Remainder of |lc(b)|^k * a divided by b; the positive factor keeps signs."""
    a = list(a)
    lc = b[-1]
    scale = abs(lc)
    sign = 1 if lc > 0 else -1
    while len(a) >= len(b):
        top = a[-1]
        if top == 0:
            a.pop()
            continue
        off = len(a) - len(b)
        a = [c * scale for c in a]
        f = top * sign
        for i, c in enumerate(b):
            a[off + i] -= f * c
        a.pop()
    return _trim(a)


def _sturm_chain(p):
    chain = [p]
    d = _primitive([i * c for i, c in enumerate(p)][1:])
    if d:
        chain.append(d)
    while len(chain[-1]) > 1:
        r = _prem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _sign_at(p, x: Fraction) -> int:
    # Horner on numerator/denominator keeps the sign exact.
    num, den = x.numerator, x.denominator
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    # acc = p(x) * den^deg * (positive), den > 0.
    return (acc > 0) - (acc < 0)


def _variations(signs) -> int:
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def _deflate(p, root: Fraction):
    """p / (den*z - num) for an exact root num/den, as an integer polynomial."""
    num, den = root.numerator, root.denominator
    q = [0] * (len(p) - 1)
    rem = list(p)
    for i in range(len(p) - 1, 0, -1):
        c = Fraction(rem[i], den)
        q[i - 1] = c
        rem[i] -= c * den
        rem[i - 1] += c * num
    if rem[0] != 0:
        raise ArithmeticError("deflation by a non-root")
    return _to_integer(q)


def count_roots(coeffs, lo: Fraction | None, hi: Fraction | None) -> int | None:
    """Distinct real roots of a rational polynomial in the open interval (lo, hi).

    ``None`` for an unbounded side.  Returns None for the zero polynomial.
    """
    p = _to_integer([Fraction(c) for c in coeffs])
    if not p:
        return None
    for end in (lo, hi):
        if end is not None:
            while len(p) > 1 and _sign_at(p, end) == 0:
                p = _deflate(p, end)
    if len(p) == 1:
        return 0
    chain = _sturm_chain(p)
    if lo is None:
        v_lo = _variations([(1 if q[-1] > 0 else -1) * (-1) ** (len(q) - 1) for q in chain])
    else:
        v_lo = _variations([_sign_at(q, lo) for q in chain])
    if hi is None:
        v_hi = _variations([1 if q[-1] > 0 else -1 for q in chain])
    else:
        v_hi = _variations([_sign_at(q, hi) for q in chain])
    return v_lo - v_hi


# ---------------------------------------------------------------------------
# Solutions of g(z) = K with g(z) = sum_k alpha_k ln(gamma_k z + d_k).


def g_interval(gammas, offsets):
    """Exact open interval where every gamma_k z + d_k is positive."""
    lows = [-Fraction(d) / g for g, d in zip(gammas, offsets) if g > 0]
    highs = [-Fraction(d) / g for g, d in zip(gammas, offsets) if g < 0]
    return (max(lows) if lows else None), (min(highs) if highs else None)


def level_count(alphas, gammas, offsets, level: Fraction) -> int | None:
    """Exact number of solutions of g(z) = ln(level) on the interval.

    Counts roots of prod_{e>0} (gamma z + d)^e - level * prod_{e<0} (gamma z + d)^-e
    after factors sharing a pole are merged and cancelled; None when the
    difference vanishes identically (g constant at that level).
    """
    const = Fraction(1)
    exps: dict[Fraction, int] = {}
    for a, g, d in zip(alphas, gammas, offsets):
        if a == 0:
            continue
        if g == 0:
            const *= Fraction(d) ** a
            continue
        pole = -Fraction(d) / g
        const *= Fraction(g) ** a
        exps[pole] = exps.get(pole, 0) + a
    up = [const]
    down = [Fraction(level)]
    for pole, e in exps.items():
        factor = [-pole, Fraction(1)]
        for _ in range(abs(e)):
            if e > 0:
                up = _mul(up, factor)
            else:
                down = _mul(down, factor)
    size = max(len(up), len(down))
    diff = [(up[i] if i < len(up) else 0) - (down[i] if i < len(down) else 0) for i in range(size)]
    lo, hi = g_interval(gammas, offsets)
    return count_roots(diff, lo, hi)


# ---------------------------------------------------------------------------
# Networks, in the .crn text format.

_TERM = re.compile(r"^\s*(\d*)\s*([A-Za-z_][A-Za-z0-9_]*)\s*$")


def parse_reactions(lines, names=None):
    """(species names, [(reactant, product)]) from '->' lines, own parser.

    Species are numbered by first appearance unless ``names`` fixes them.
    """
    fixed = names is not None
    names = list(names) if fixed else []
    sides = []
    for line in lines:
        left, right = line.split("->")
        pair = []
        for side in (left, right):
            terms = {}
            if side.strip() != "0":
                for term in side.split("+"):
                    m = _TERM.match(term)
                    if not m:
                        raise ValueError(f"bad term {term!r} in {line!r}")
                    coeff = int(m.group(1) or 1)
                    name = m.group(2)
                    if name not in names:
                        if fixed:
                            raise ValueError(f"unknown species {name!r}")
                        names.append(name)
                    terms[name] = terms.get(name, 0) + coeff
            pair.append(terms)
        sides.append(pair)
    reactions = [
        (tuple(r.get(n, 0) for n in names), tuple(p.get(n, 0) for n in names)) for r, p in sides
    ]
    return names, reactions


def format_side(vec, names) -> str:
    terms = [(f"{c} " if c != 1 else "") + n for c, n in zip(vec, names) if c]
    return " + ".join(terms) if terms else "0"


def format_reactions(reactions) -> list[str]:
    names = [f"X{k + 1}" for k in range(len(reactions[0][0]))]
    return [f"{format_side(r, names)} -> {format_side(p, names)}" for r, p in reactions]


def collinear_direction(reactions):
    """(gamma, lambdas): every change vector equals lambda_j * gamma, gamma
    being the first reaction's change vector; None when not collinear."""
    changes = [tuple(b - a for a, b in zip(r, p)) for r, p in reactions]
    base = changes[0]
    pivot = next((k for k, v in enumerate(base) if v), None)
    if pivot is None:
        return None
    lams = []
    for ch in changes:
        lam = Fraction(ch[pivot], base[pivot])
        if lam == 0 or any(ch[k] != lam * base[k] for k in range(len(base))):
            return None
        lams.append(lam)
    return base, lams


def iso_key(reactions):
    """Smallest flattened form over every species and reaction relabeling."""
    s = len(reactions[0][0])
    best = None
    for sp in permutations(range(s)):
        rows = [tuple(r[k] for k in sp) + tuple(p[k] for k in sp) for r, p in reactions]
        for order in permutations(rows):
            if best is None or order < best:
                best = order
    return best


# ---------------------------------------------------------------------------
# Witness replay.


def exact_number(tagged) -> Fraction:
    """A tagged number of a crn1d JSON report, read as an exact rational."""
    if "rational" in tagged:
        return Fraction(tagged["rational"])
    return Fraction(float(tagged["float64"]))


def line_state_count(reactions, gamma, order, kappa, c) -> int | None:
    """Positive steady states on the line pinned by ``c``, by Sturm count.

    The line is gamma[o_i] * x[o_0] - gamma[o_0] * x[o_i] = c_i, with ``order``
    the 0-based species order the report declares; t = x[o_0] parametrizes it.
    None means every point of the line is steady.
    """
    s = len(gamma)
    g0 = Fraction(gamma[order[0]])
    coords = [None] * s
    coords[order[0]] = (Fraction(1), Fraction(0))
    for i in range(1, s):
        k = order[i]
        coords[k] = (Fraction(gamma[k]) / g0, -Fraction(c[i - 1]) / g0)
    direction = collinear_direction(reactions)
    if direction is None:
        raise ValueError("change vectors are not collinear")
    base, lams = direction
    # lambda relative to the declared gamma: base = mu * gamma.
    pivot = next(k for k, v in enumerate(gamma) if v)
    mu = Fraction(base[pivot], gamma[pivot])
    if any(base[k] != mu * gamma[k] for k in range(s)):
        raise ValueError("declared gamma is not parallel to the change vectors")
    total = [Fraction(0)]
    for (r, _p), lam, k in zip(reactions, lams, kappa):
        mono = [Fraction(1)]
        for idx, e in enumerate(r):
            a, b = coords[idx]
            for _ in range(e):
                mono = _mul(mono, [b, a])
        scale = Fraction(k) * lam * mu
        if len(mono) > len(total):
            total += [Fraction(0)] * (len(mono) - len(total))
        for i, m in enumerate(mono):
            total[i] += scale * m
    lo, hi = Fraction(0), None
    for a, b in coords:
        if a == 0:
            if b <= 0:
                return 0
            continue
        bound = -b / a
        if a > 0:
            lo = max(lo, bound)
        elif hi is None or bound < hi:
            hi = bound
    if hi is not None and lo >= hi:
        return 0
    return count_roots(total, lo, hi)


def replay_states(reactions, order, gamma, kappa, c, states, digits: int = 50):
    """Largest relative rate-balance and conservation residuals over the
    states, in ``digits``-digit arithmetic, straight from the reaction list."""
    import mpmath

    with mpmath.workdps(digits):
        return _replay(mpmath.mpf, reactions, order, gamma, kappa, c, states)


def _replay(mpf, reactions, order, gamma, kappa, c, states):
    s = len(gamma)
    kap = [mpf(k.numerator) / k.denominator for k in kappa]
    cs = [mpf(v.numerator) / v.denominator for v in c]
    worst_rate = mpf(0)
    worst_cons = mpf(0)
    for raw in states:
        x = [mpf(v.numerator) / v.denominator for v in raw]
        if any(v <= 0 for v in x):
            return math.inf, math.inf
        acc = [mpf(0)] * s
        scale = [mpf(0)] * s
        for (r, p), k in zip(reactions, kap):
            mono = k
            for xi, e in zip(x, r):
                if e:
                    mono *= xi**e
            for idx in range(s):
                d = p[idx] - r[idx]
                if d:
                    acc[idx] += d * mono
                    scale[idx] += abs(d) * mono
        for a, b in zip(acc, scale):
            if b > 0:
                worst_rate = max(worst_rate, abs(a) / b)
        o0 = order[0]
        for i in range(1, s):
            oi = order[i]
            lhs = gamma[oi] * x[o0] - gamma[o0] * x[oi]
            size = abs(gamma[oi] * x[o0]) + abs(gamma[o0] * x[oi]) + abs(cs[i - 1])
            if size > 0:
                worst_cons = max(worst_cons, abs(lhs - cs[i - 1]) / size)
    return float(worst_rate), float(worst_cons)
