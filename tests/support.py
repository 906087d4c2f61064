"""Independent oracles and random generators for the test suite.

The steady-state count on an invariant line is recomputed here from
scratch: restricted to the line, the rate balance is a polynomial in the
line parameter, which we expand with exact rational coefficients, clear of
denominators and count with a Sturm chain over the integers, also exact.
None of the package's interval walking, bracketing or sampling code is
involved, so agreement between the two is meaningful evidence.  The number
of critical points of the scalar reduction g is counted the same way, from
the numerator of g' built species by species, and so is the number of
solutions of g = K that screens the levels handed to the root finder.  The
isomorphism key is likewise recomputed by trying every relabeling.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import permutations, zip_longest

from crn1d import (
    GProblem,
    Reaction,
    ReactionNetwork,
    is_constant,
    one_dim_structure,
)


def _exact(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(value)
    return Fraction(value)


# ---------------------------------------------------------------------------
# Line geometry.


def line_coordinates(struct, c):
    """Each species as an exact linear function a*t + b of the parameter
    t = value of the base species, returned in original species order."""
    g = struct.gamma
    b, *rest = struct.species_perm
    coords = [None] * len(g)
    coords[b] = (Fraction(1), Fraction(0))
    for k, ck in zip(rest, c):
        coords[k] = (Fraction(g[k], g[b]), -_exact(ck) / g[b])
    return coords


def positive_window(coords):
    """Open t-interval on which every coordinate is positive.

    Returns exact (lo, hi) Fractions, hi being None for an unbounded
    window, or None when the window is empty.
    """
    lo, hi = Fraction(0), None
    for a, b in coords:
        if a == 0:
            if b <= 0:
                return None
            continue
        bound = -b / a
        if a > 0:
            lo = max(lo, bound)
        elif hi is None or bound < hi:
            hi = bound
    if hi is not None and lo >= hi:
        return None
    return lo, hi


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def line_polynomial(net: ReactionNetwork, kappa, c):
    """Exact coefficients (ascending powers of t) of the scalar rate
    balance restricted to the line pinned by ``c``."""
    struct = one_dim_structure(net)
    coords = line_coordinates(struct, c)
    lam = struct.lambdas
    total: list[Fraction] = [Fraction(0)]
    for j, rx in enumerate(net.reactions):
        mono = [Fraction(1)]
        for k, exp in enumerate(rx.reactant):
            a, b = coords[k]
            for _ in range(exp):
                mono = _poly_mul(mono, [b, a])
        scale = _exact(kappa[j]) * lam[j]
        if len(mono) > len(total):
            total += [Fraction(0)] * (len(mono) - len(total))
        for i, mi in enumerate(mono):
            total[i] += scale * mi
    return total, coords


def _primitive(p):
    """``p`` (integer coefficients) without trailing zeros, divided by the
    gcd of its coefficients; a positive multiple, so roots and signs stay."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _integer_poly(p):
    """A positive integer multiple of the rational polynomial ``p``."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    return _primitive(int(c * den) for c in p)


def _sign_at(p, x) -> int:
    """Sign of the integer polynomial ``p`` at the rational ``x``, from the
    integer q^deg(p) * p(r / q) for x = r / q."""
    r, q = x.numerator, x.denominator
    acc, scale = 0, 1
    for coeff in reversed(p):
        acc = acc * r + coeff * scale
        scale *= q
    return (acc > 0) - (acc < 0)


def _deflate(p, root: Fraction):
    """Exact division of the integer polynomial ``p`` by (q t - r), for a
    root r / q of ``p``."""
    r, q = root.numerator, root.denominator
    out = [0] * (len(p) - 1)
    carry = 0
    for i in range(len(p) - 1, 0, -1):
        carry, rem = divmod(p[i] + r * carry, q)
        assert rem == 0
        out[i - 1] = carry
    assert p[0] == -r * carry
    return out


def _pseudo_rem(num, den):
    """A positive multiple of the remainder of ``num`` by ``den``, over the
    integers: each step scales ``num`` by |lc(den)| before subtracting."""
    num = list(num)
    scale, sign = abs(den[-1]), (1 if den[-1] > 0 else -1)
    while len(num) >= len(den):
        f = num[-1] * sign
        if f:
            off = len(num) - len(den)
            num = [scale * coeff for coeff in num]
            for i, coeff in enumerate(den):
                num[off + i] -= f * coeff
        num.pop()
    return _primitive(num)


def _sturm_chain(p):
    """Sturm chain of the integer polynomial ``p``, each member made
    primitive (a primitive remainder sequence)."""
    chain = [p]
    deriv = _primitive(i * coeff for i, coeff in enumerate(p))[1:]
    if deriv:
        chain.append(deriv)
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-coeff for coeff in rem])
    return chain


def _sign_changes(signs) -> int:
    nz = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(nz, nz[1:]) if a * b < 0)


def _variations_at(chain, x) -> int:
    return _sign_changes([_sign_at(p, x) for p in chain])


def _roots_in_window(total, lo, hi) -> int:
    """Distinct roots of the nonzero integer polynomial ``total`` strictly
    between ``lo`` and ``hi`` (None for an infinite end)."""
    total = _primitive(total)
    for end in (lo, hi):
        while end is not None and len(total) > 1 and _sign_at(total, end) == 0:
            total = _deflate(total, end)
    if len(total) == 1:
        return 0
    bound = 1 - (-max(abs(c) for c in total[:-1]) // abs(total[-1]))
    lo = (-bound if hi is None else min(-bound, hi)) if lo is None else lo
    hi = max(bound, lo) if hi is None else hi
    chain = _sturm_chain(total)
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def count_line_states(net: ReactionNetwork, kappa, c):
    """Number of distinct positive steady states on the line pinned by
    ``c``, counted exactly by a Sturm chain.

    Returns None when the balance vanishes identically on the line (a
    continuum of steady states).
    """
    total, coords = line_polynomial(net, kappa, c)
    window = positive_window(coords)
    if window is None:
        return 0
    if all(v == 0 for v in total):
        return None
    return _roots_in_window(_integer_poly(total), *window)


# g-problems that a sign scan of g' on a float grid gets wrong: a pair of
# critical points 8e-5 apart next to a third far away, and a tail where g'
# is about 1e-33 near z = -1e15 and keeps its sign.
CLUSTERED = GProblem(
    (3, -3, 1, 2, 1, -2),
    (-1, -2, -1, -1, 1, -1),
    (
        Fraction(90003, 10000),
        Fraction(90000001, 5000000),
        Fraction(89999, 10000),
        Fraction(4500000001, 500000000),
        Fraction(4501, 500),
        Fraction(4499999, 500000),
    ),
)
FLAT_TAIL = GProblem(
    (-1, 2, 1, -2),
    (-1, -2, -1, -1),
    (Fraction(289997, 10000), Fraction(58000003, 1000000), 29, Fraction(2897, 100)),
)


# g' has a double zero at z = -1/4: the Sturm chain's last member is not a
# constant, so the numerator is divided by it to become square-free.
DOUBLE_ZERO = GProblem((-3, 3, -1, 0), (-2, -2, -2, 1), (Fraction(5, 2), 1, Fraction(1, 2), 3))
# The numerator of g' vanishes at the upper end z = 1, a pole of zero
# weight, and is divided by (z - 1) there.
END_ROOT = GProblem((2, 3, 0), (1, -1, -1), (1, 4, 1))
# The numerator of g' is z^4 + 4z + 1: its Sturm chain drops from degree 3
# to degree 1 with a negative leading coefficient, so the next remainder
# takes three pseudo-division steps and its sign depends on scaling each
# step by |lc| rather than lc.
DEGREE_GAP = GProblem((7, 2, 2, -9, 10), (1, 1, -1, -1, -1), (3, 1, 0, 1, 2))


def _window(gp):
    """Exact ends (lo, hi) of the interval of ``gp``, None where unbounded."""
    lows = [-_exact(d) / g for g, d in zip(gp.gammas, gp.offsets) if g > 0]
    highs = [-_exact(d) / g for g, d in zip(gp.gammas, gp.offsets) if g < 0]
    return max(lows, default=None), min(highs, default=None)


def exact_critical_count(gp) -> int:
    """Number of distinct zeros of g' inside the interval of ``gp``, exact.

    g' = sum_k a_k g_k / (g_k z + d_k) has the numerator
    sum_k a_k g_k prod_{j != k} (g_j z + d_j) over the moving species, one
    term per species (shared poles are not merged).  Its zeros at the
    interval ends are divided out, and a Cauchy bound stands in for an
    infinite end.  Only the fields of ``gp`` are used.
    """
    moving = [(a, g, _exact(d)) for a, g, d in zip(gp.alphas, gp.gammas, gp.offsets) if g != 0]
    total = [Fraction(0)] * len(moving)
    for k, (a, g, _d) in enumerate(moving):
        term = [Fraction(a * g)]
        for j, (_a, gj, dj) in enumerate(moving):
            if j != k:
                term = _poly_mul(term, [dj, gj])
        for i, coeff in enumerate(term):
            total[i] += coeff
    assert any(total), "g' vanishes identically"
    return _roots_in_window(_integer_poly(total), *_window(gp))


def level_counter(gp):
    """``count(L)``: the number of distinct solutions of g = ln L inside
    the interval of ``gp``, exact.

    exp(g) = prod_k (g_k z + d_k)^(a_k), so on the interval g = ln L
    exactly where P - L Q vanishes, with P the product of the factors of
    positive exponent and Q that of the negative ones.  With d_k = n_k / m_k
    the integer factor n_k + m_k g_k z is m_k times the exact one, so
    P = Pi / p and Q = Qi / q for integer polynomials Pi, Qi and integers
    p, q; for L = u / v the count is that of v q Pi - u p Qi.  Only the
    fields of ``gp`` are used.
    """
    Pi, Qi, p, q = [1], [1], 1, 1
    for a, g, d in zip(gp.alphas, gp.gammas, gp.offsets):
        d = _exact(d)
        factor = [d.numerator, d.denominator * g]
        for _ in range(abs(a)):
            if a > 0:
                Pi, p = _poly_mul(Pi, factor), p * d.denominator
            else:
                Qi, q = _poly_mul(Qi, factor), q * d.denominator
    Pi = [q * coeff for coeff in Pi]
    Qi = [p * coeff for coeff in Qi]
    window = _window(gp)

    def count(L: Fraction) -> int:
        total = [L.denominator * pc - L.numerator * qc for pc, qc in zip_longest(Pi, Qi, fillvalue=0)]
        assert any(total), "g is constant at the level"
        return _roots_in_window(total, *window)

    return count


def state_residual(net: ReactionNetwork, kappa, x) -> float:
    """Relative infinity-norm of the full vector rate balance at x,
    computed straight from the reaction list."""
    s = net.num_species
    acc = [0.0] * s
    scale = [0.0] * s
    for j, rx in enumerate(net.reactions):
        mono = float(kappa[j])
        for k, exp in enumerate(rx.reactant):
            mono *= float(x[k]) ** exp
        for k, d in enumerate(rx.change):
            acc[k] += d * mono
            scale[k] += abs(d) * mono
    return max(
        abs(a) / (1.0 + sc) for a, sc in zip(acc, scale)
    )


# ---------------------------------------------------------------------------
# Random generators (plain ``random.Random``, fixed seeds in the tests).


def random_bi_network(
    rng: random.Random, max_species: int = 5, max_coeff: int = 5
) -> ReactionNetwork:
    """A random two-reaction network with collinear change vectors.

    Every species participates, entries of both change vectors stay within
    ``max_coeff``, and reactant coefficients stay within ``max_coeff``.
    """
    while True:
        s = rng.randint(1, max_species)
        e = [rng.randint(-2, 2) for _ in range(s)]
        if not any(e):
            continue
        cmax = max_coeff // max(abs(v) for v in e)
        mults = [v for v in range(-cmax, cmax + 1) if v != 0]
        deltas = []
        for _ in range(2):
            m = rng.choice(mults)
            deltas.append([m * v for v in e])

        def side(delta):
            out = []
            for dk in delta:
                lo, hi = max(0, -dk), max_coeff - max(0, dk)
                if lo > hi:
                    return None
                out.append(rng.randint(lo, hi))
            return tuple(out)

        sides = [side(d) for d in deltas]
        if any(v is None for v in sides):
            continue
        rxs = tuple(
            Reaction(a, tuple(ak + dk for ak, dk in zip(a, d)))
            for a, d in zip(sides, deltas)
        )
        if rxs[0] == rxs[1]:
            continue
        if not all(
            e[k] != 0 or any(rx.reactant[k] > 0 for rx in rxs) for k in range(s)
        ):
            continue
        return ReactionNetwork(tuple(f"X{k + 1}" for k in range(s)), rxs)


def random_gproblem(rng: random.Random, max_species: int = 6) -> GProblem:
    """A random g-problem with positive offsets, so 0 is always interior."""
    while True:
        s = rng.randint(1, max_species)
        alphas = tuple(rng.randint(-4, 4) for _ in range(s))
        if not any(alphas):
            continue
        gammas = tuple(rng.randint(-3, 3) for _ in range(s))
        offsets = tuple(
            Fraction(rng.randint(1, 64), rng.randint(1, 8)) for _ in range(s)
        )
        gp = GProblem(alphas, gammas, offsets)
        if is_constant(gp):
            continue
        return gp


def clustered_gproblem(rng: random.Random) -> tuple[GProblem, float]:
    """A g-problem on a finite interval whose poles cluster within about
    1e-4 at each end (offsets with denominators up to 1e10), and a level K
    that g takes at a uniform interior point."""
    while True:
        s = rng.randint(3, 6)
        alphas = tuple(rng.randint(-3, 3) for _ in range(s))
        gammas = tuple(rng.choice((-2, -1, -1, 1, 2)) for _ in range(s))
        if not any(g > 0 for g in gammas) or not any(g < 0 for g in gammas):
            continue
        center = rng.randint(2, 20)
        poles = [
            (center if g < 0 else -center) + Fraction(rng.randint(-10**4, 10**4), 10 ** rng.randint(8, 10))
            for g in gammas
        ]
        gp = GProblem(alphas, gammas, tuple(-g * p for g, p in zip(gammas, poles)))
        if is_constant(gp):
            continue
        lo, hi = (float(v) for v in _window(gp))
        K = _g_value(gp, lo + (hi - lo) * rng.uniform(0.03, 0.97))
        if K is not None:
            return gp, K


def _g_value(gp: GProblem, z: float) -> float | None:
    """g at ``z`` in binary64, or None off the interval."""
    terms = []
    for a, g, d in zip(gp.alphas, gp.gammas, gp.offsets):
        arg = g * z + float(d)
        if arg <= 0.0:
            return None
        if a:
            terms.append(a * math.log(arg))
    return math.fsum(terms)


def sample_level(rng: random.Random, gp: GProblem, tries: int = 60):
    """A level K for g that stays clear of critical and limit values.

    K is accepted only when the exact count of solutions of g = ln L is the
    same at L = exp(K) and at L (1 -+ 1e-6).  Returns None when no such
    level was found (g nearly flat); callers skip those draws.
    """
    lo, hi = (None if v is None else float(v) for v in _window(gp))
    finite = [abs(v) for v in (lo, hi) if v is not None]
    reach = 8.0 * (1.0 + (max(finite) if finite else 1.0))
    a = lo if lo is not None else (hi if hi is not None else 0.0) - reach
    b = hi if hi is not None else (lo if lo is not None else 0.0) + reach
    count = level_counter(gp)
    near = Fraction(1, 10**6)
    for _ in range(tries):
        u = rng.uniform(0.03, 0.97)
        k = _g_value(gp, a + u * (b - a))
        if k is None:
            continue
        if rng.random() < 0.25:
            k += rng.choice((-1.0, 1.0)) * rng.uniform(4.0, 24.0)
        L = Fraction(math.exp(k))
        counts = {count(L * f) for f in (1 - near, 1, 1 + near)}
        if len(counts) == 1:
            return k
    return None


# ---------------------------------------------------------------------------
# Isomorphism key.


def brute_force_key(pairs) -> tuple:
    """Minimal coefficient table of a reaction list, one row
    ``reactant + product`` per reaction, over all s! species orders and all
    m! reaction orders.  ``pairs`` holds ``(reactant, product)`` vectors."""
    pairs = [(tuple(r), tuple(p)) for r, p in pairs]
    best = None
    for sperm in permutations(range(len(pairs[0][0]))):
        rows = [tuple(r[k] for k in sperm) + tuple(p[k] for k in sperm) for r, p in pairs]
        for table in permutations(rows):
            if best is None or table < best:
                best = table
    return best
