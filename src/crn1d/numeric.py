"""Scalar reduction of steady-state counting, and its numeric machinery.

On an invariant line ``x_k = gamma_k * z + d_k`` the steady-state condition
of an opposed reaction pair collapses to ``g(z) = K`` with

    g(z) = sum_k alpha_k * ln(gamma_k * z + d_k)

on the interval where every argument is positive.  This module owns that
function: exact interval endpoints and pole bookkeeping (offsets are stored
as ``Fraction``), evaluation with derivatives, critical points isolated
exactly by a Sturm chain over the integers (the rational chain made
primitive), a root finder with verified residuals (one root per monotone
piece), an independent grid oracle that cross-checks root counts, and the
witness verifier that replays claimed steady states on the full network.

The root finder and the oracle share no code beyond ``GProblem`` itself;
agreement between them is part of the test contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterator

from .network import CrnError, ReactionNetwork, conservation_constants, one_dim_structure

if TYPE_CHECKING:
    import numpy as np


class EmptyInterval(CrnError):
    """The offsets leave no open interval of positive concentrations."""


class OutOfDomain(CrnError):
    """Evaluation outside the open interval where all arguments are positive."""


class ConstantG(CrnError):
    """g is constant on its interval; root counting is all-or-nothing."""


class DimensionMismatch(CrnError):
    """Witness data has the wrong arity for the network."""


class NumericOverflow(CrnError):
    """A mass-action quantity does not fit in binary64."""


def _exact(value) -> Fraction:
    """Coerce to Fraction.  Floats convert exactly (binary64 is rational)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"offset must be finite, got {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact offset")


@dataclass(frozen=True)
class GProblem:
    """The function g plus its exact domain data.

    ``alphas`` and ``gammas`` are integers per species; ``offsets`` are kept
    as exact rationals so pole coincidences and the interval endpoints are
    decided without floating point.  ``lower_exact``/``upper_exact`` are
    ``None`` for an unbounded side.  Everything derived from the three
    fields is computed once per instance, on first use.
    """

    alphas: tuple[int, ...]
    gammas: tuple[int, ...]
    offsets: tuple[Fraction, ...]

    def __post_init__(self):
        alphas = tuple(int(a) for a in self.alphas)
        gammas = tuple(int(g) for g in self.gammas)
        offsets = tuple(_exact(d) for d in self.offsets)
        if not (len(alphas) == len(gammas) == len(offsets)) or not alphas:
            raise ValueError("alphas, gammas and offsets must be equally sized and nonempty")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "offsets", offsets)
        for a, g, d in zip(alphas, gammas, offsets):
            if g == 0 and d <= 0:
                raise EmptyInterval(f"a fixed species {'with' if a else 'without'} weight needs a positive offset")
        lo = self.lower_exact
        hi = self.upper_exact
        if lo is not None and hi is not None and lo >= hi:
            raise EmptyInterval(f"interval is empty: lower {lo} >= upper {hi}")

    @cached_property
    def poles(self) -> tuple[Fraction | None, ...]:
        """Exact pole ``-d / gamma`` of each species; ``None`` for a fixed one."""
        return tuple(-d / g if g else None for g, d in zip(self.gammas, self.offsets))

    @cached_property
    def lower_exact(self) -> Fraction | None:
        vals = [p for g, p in zip(self.gammas, self.poles) if g > 0]
        return max(vals) if vals else None

    @cached_property
    def upper_exact(self) -> Fraction | None:
        vals = [p for g, p in zip(self.gammas, self.poles) if g < 0]
        return min(vals) if vals else None

    @cached_property
    def lower(self) -> float:
        lo = self.lower_exact
        return -math.inf if lo is None else float(lo)

    @cached_property
    def upper(self) -> float:
        hi = self.upper_exact
        return math.inf if hi is None else float(hi)

    @cached_property
    def terms(self) -> tuple[tuple[int, int, float], ...]:
        """``(alpha, gamma, float(offset))`` per species: what ``eval_g`` reads."""
        return tuple((a, g, float(d)) for a, g, d in zip(self.alphas, self.gammas, self.offsets))

    @cached_property
    def pole_groups(self) -> tuple[tuple[Fraction, int], ...]:
        """Exact poles of g' with their residues (sum of alphas sharing the pole)."""
        groups: dict[tuple[int, int], list] = {}  # keyed on the reduced pair: no Fraction hashing
        for a, p in zip(self.alphas, self.poles):
            if p is not None:
                groups.setdefault((p.numerator, p.denominator), [p, 0])[1] += a
        return tuple(sorted((p, r) for p, r in groups.values()))

    @cached_property
    def critical_points(self) -> tuple[float, ...]:
        """What :func:`critical_points` returns."""
        if is_constant(self):
            raise ConstantG("every pole group of g' has zero residue")
        chain = _derivative_numerator(self)
        p = chain[0]
        if len(p) == 1:
            return ()
        return tuple(_polish_critical(self, p, a, b) for a, b in _isolate(chain, self.lower_exact, self.upper_exact))


def is_constant(gp: GProblem) -> bool:
    """g is constant iff every pole group of g' has zero residue."""
    return all(res == 0 for _p, res in gp.pole_groups)


def _in_domain(gp: GProblem, z) -> float:
    """``float(z)`` inside the interval.  The reads below then walk ``gp.terms``
    once: every argument, weighted or not, must be positive."""
    z = float(z)
    if not (gp.lower < z < gp.upper):
        raise OutOfDomain(f"z={z} outside ({gp.lower}, {gp.upper})")
    return z


def eval_g(gp: GProblem, z) -> tuple[float, float, float]:
    """Evaluate (g, g', g'') at ``z``; raises OutOfDomain off the interval."""
    z = _in_domain(gp, z)
    g0, g1, g2 = [], [], []
    for a, g, d in gp.terms:
        if (arg := g * z + d) <= 0.0:
            raise OutOfDomain(f"argument for slope {g} vanished at z={z}")
        if a:
            g0.append(a * math.log(arg))
            g1.append(a * g / arg)
            g2.append(a * g * g / (arg * arg))
    return math.fsum(g0), math.fsum(g1), -math.fsum(g2)


def eval_g_value(gp: GProblem, z) -> float:
    """g alone: ``eval_g(gp, z)[0]`` bit for bit (same terms, same fsum)."""
    z = _in_domain(gp, z)
    g0 = []
    for a, g, d in gp.terms:
        if (arg := g * z + d) <= 0.0:
            raise OutOfDomain(f"argument for slope {g} vanished at z={z}")
        if a:
            g0.append(a * math.log(arg))
    return math.fsum(g0)


def eval_g_slope(gp: GProblem, z) -> float:
    """g' alone: ``eval_g(gp, z)[1]`` bit for bit (same terms, same fsum)."""
    z = _in_domain(gp, z)
    g1 = []
    for a, g, d in gp.terms:
        if (arg := g * z + d) <= 0.0:
            raise OutOfDomain(f"argument for slope {g} vanished at z={z}")
        if a:
            g1.append(a * g / arg)
    return math.fsum(g1)


def _limit(gp: GProblem, side: str) -> tuple[str, float]:
    """Limit of g at an interval endpoint: ('+inf'|'-inf'|'finite', value)."""
    if side == "lower":
        end, fend = gp.lower_exact, gp.lower
        inf_coeff = sum(a for a, g in zip(gp.alphas, gp.gammas) if g < 0)
    else:
        end, fend = gp.upper_exact, gp.upper
        inf_coeff = sum(a for a, g in zip(gp.alphas, gp.gammas) if g > 0)
    if end is None:
        if inf_coeff > 0:
            return "+inf", math.inf
        if inf_coeff < 0:
            return "-inf", -math.inf
        val = math.fsum(
            a * math.log(abs(g)) if g != 0 else a * math.log(d)
            for a, g, d in gp.terms
            if a != 0
        )
        return "finite", val
    sigma = 0
    finite_terms = []
    for (a, g, d), pole in zip(gp.terms, gp.poles):
        if pole == end:
            sigma += a
            if a != 0:
                finite_terms.append(a * math.log(abs(g)))
        elif a != 0:
            arg = g * fend + d
            finite_terms.append(a * math.log(arg))
    if sigma > 0:
        return "-inf", -math.inf
    if sigma < 0:
        return "+inf", math.inf
    return "finite", math.fsum(finite_terms)


def _primitive(p: list[int]) -> list[int]:
    """``p`` (ascending powers, leading zeros dropped) divided by the gcd of
    its coefficients, so every sign is kept."""
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    g = math.gcd(*p)
    return [c // g for c in p]


def _pseudo_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder scaled by |lc(den)| per step: positive multiples of the rational ones."""
    scale, sign = abs(den[-1]), (1 if den[-1] > 0 else -1)
    rem, quo = list(num), [0] * max(1, len(num) - len(den) + 1)
    for off in range(len(num) - len(den), -1, -1):
        f = sign * rem[off + len(den) - 1]
        rem, quo = [scale * c for c in rem], [scale * c for c in quo]
        quo[off] = f
        for i, c in enumerate(den):
            rem[off + i] -= f * c
    rem = rem[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _sign_at(p: list[int], x: Fraction) -> int:
    """Sign of the integer polynomial ``p`` at the rational ``x``."""
    u, v = x.numerator, x.denominator
    acc, vp = 0, 1
    for c in reversed(p):
        acc, vp = acc * u + c * vp, vp * v
    return (acc > 0) - (acc < 0)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    chain = [p, _primitive([i * c for i, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1 and (rem := _pseudo_divmod(chain[-2], chain[-1])[1]):
        chain.append(_primitive([-c for c in rem]))
    return chain


def _variations(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _derivative_numerator(gp: GProblem) -> list[list[int]]:
    """Sturm chain of the square-free integer polynomial (its first member)
    with the zeros of g' inside the interval.

    Per pole group, residue r_j != 0 at u_j / v_j: g' = N / prod_j (v_j z - u_j)
    with N = sum_i r_i v_i prod_{j != i} (v_j z - u_j), no pole inside the
    interval.  Repeated roots of N and roots at a finite end are divided out.
    """
    groups = [(pole.numerator, pole.denominator, r) for pole, r in gp.pole_groups if r != 0]
    num = [0] * len(groups)
    for i, (_u, v_i, r) in enumerate(groups):
        term = [r * v_i]
        for u, v, _r in groups[:i] + groups[i + 1:]:  # term *= (v z - u)
            term = [-u * term[0]] + [v * c - u * d for c, d in zip(term, term[1:])] + [v * term[-1]]
        num = [n + t for n, t in zip(num, term)]
    chain = _sturm_chain(_primitive(num))
    p = chain[0]
    if len(chain[-1]) > 1:  # gcd(N, N'): repeated roots
        p = _primitive(_pseudo_divmod(p, chain[-1])[0])
    for end in (gp.lower_exact, gp.upper_exact):
        if end is not None and len(p) > 1 and _sign_at(p, end) == 0:
            p = _primitive(_pseudo_divmod(p, [-end.numerator, end.denominator])[0])
    return chain if p is chain[0] else _sturm_chain(p)


def bracketed_root(f, f_and_slope, lo: float, hi: float) -> float:
    """A zero of ``f`` on ``[lo, hi]``, where it changes sign.

    Bisects on ``f(z)`` (geometrically across orders of magnitude) to a
    relative width of 1e-15, then takes Newton steps with
    ``f_and_slope(z) == (f(z), f'(z))`` while they stay inside the bracket.
    """
    flo = f(lo)
    for _ in range(300):
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
        if lo > 0.0 and hi / lo > 4.0:
            mid = math.sqrt(lo * hi)
        elif hi < 0.0 and lo / hi > 4.0:
            mid = -math.sqrt(lo * hi)
        else:
            mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    z = 0.5 * (lo + hi)
    for _ in range(10):
        value, slope = f_and_slope(z)
        if slope == 0.0:
            break
        nz = z - value / slope
        if not (lo <= nz <= hi) or nz == z:
            break
        z = nz
    return z


def _isolate(chain: list[list[int]], lo: Fraction | None, hi: Fraction | None) -> Iterator[tuple[Fraction, Fraction]]:
    """Sorted intervals ``(a, b]`` in ``(lo, hi]``, one root of the square-free
    ``p = chain[0]`` (degree >= 1, ``chain`` its ``_sturm_chain``) in each; a
    ``None`` end (not both) is the Cauchy bound.

    By Sturm, ``(a, b]`` holds ``variations(a) - variations(b)`` roots: halve until one each.
    """
    p = chain[0]
    bound = 2 + max(map(abs, p[:-1])) // abs(p[-1])  # Cauchy: every root has |z| < bound
    lo = Fraction(min(-bound, hi - 1) if lo is None else lo)
    hi = Fraction(max(bound, lo + 1) if hi is None else hi)
    stack = [(lo, hi, _variations(chain, lo), _variations(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        if va - vb == 1:
            yield a, b
        elif va - vb > 1:
            mid = (a + b) / 2
            vm = _variations(chain, mid)
            stack += [(mid, b, vm, vb), (a, mid, va, vm)]


def _narrow(p: list[int], a: Fraction, b: Fraction) -> Iterator[tuple[Fraction, Fraction]]:
    """Yield the isolating interval ``(a, b]`` of ``p`` and its exact halvings
    by the sign of ``p`` until the float ends are adjacent; an end or midpoint
    at an exact root ``r`` ends it with ``(r, r)``."""
    sign_b = _sign_at(p, b)
    if not sign_b:
        a = b
    while True:
        yield a, b
        if float(b) <= math.nextafter(float(a), math.inf):
            return
        mid = (a + b) / 2
        sign_mid = _sign_at(p, mid)
        if not sign_mid:
            a = b = mid
        elif sign_mid == sign_b:
            b = mid
        else:
            a = mid


def _polish_critical(gp: GProblem, p: list[int], a: Fraction, b: Fraction) -> float:
    """The zero of g' in the isolating interval ``(a, b]`` of ``p``.

    The first interval from ``_narrow`` with float g' of opposite signs at its
    ends goes to the bracketed solver; without one (an end at a pole or a root
    of ``p``, even multiplicity, cancellation in a tail) the last lower end."""
    for a, b in _narrow(p, a, b):
        fa, fb = float(a), float(b)
        if fb > math.nextafter(fa, math.inf) and _sign_at(p, a):
            try:
                ga, gb = eval_g_slope(gp, fa), eval_g_slope(gp, fb)
            except OutOfDomain:
                continue
            if min(ga, gb) < 0.0 < max(ga, gb):
                return bracketed_root(lambda z: eval_g_slope(gp, z), lambda z: eval_g(gp, z)[1:], fa, fb)
    return fa


def critical_points(gp: GProblem) -> tuple[float, ...]:
    """Zeros of g' inside the interval, in increasing order, once per ``GProblem``.

    Counted and isolated exactly by an integer Sturm chain of the numerator
    of g' (the rational chain made primitive), then polished in binary64.
    Raises :class:`ConstantG` when g' vanishes identically (all residues 0),
    on every call: an exception is not cached.
    """
    return gp.critical_points


@dataclass(frozen=True)
class RootSet:
    """Roots of g = K with the brackets and residuals that certify them.

    ``suspected_degenerate`` lists critical points whose value sits on K to
    within tolerance; crossings there are tangential and not counted.
    """

    roots: tuple[float, ...]
    brackets: tuple[tuple[float, float], ...]
    residuals: tuple[float, ...]
    suspected_degenerate: tuple[float, ...]


def _march_to_sign(gp: GProblem, K: float, start: float, endpoint: float, want_positive: bool) -> float | None:
    """Walk from ``start`` toward ``endpoint`` until g-K has the wanted sign."""
    for n in range(1, 62):
        if math.isinf(endpoint):
            step = max(1.0, abs(start)) * 3.0**n
            zn = start + step if endpoint > 0 else start - step
        else:
            zn = endpoint + (start - endpoint) * 4.0**-n
            if zn == endpoint:
                return None
        try:
            val = eval_g_value(gp, zn) - K
        except OutOfDomain:
            return None
        if val == 0.0:
            continue
        if (val > 0.0) == want_positive:
            return zn
    return None


def find_roots(gp: GProblem, K) -> RootSet:
    """All solutions of g(z) = K, one per strictly monotone piece.

    Pieces are delimited by the critical points; a root is claimed only when
    K lies strictly between the piece's end values (limits at the interval
    endpoints are classified exactly).  Each root is bracketed and solved
    with the bracketed solver; the residual |g - K| is recorded.  Roots come
    out in increasing order.
    """
    K = float(K)

    def level(z):
        return eval_g_value(gp, z) - K

    def level_and_slope(z):
        g, g1, _g2 = eval_g(gp, z)
        return g - K, g1

    crits = critical_points(gp)
    kind_lo, val_lo = _limit(gp, "lower")
    kind_hi, val_hi = _limit(gp, "upper")
    tol_deg = 1e-12 * (1.0 + abs(K))
    crit_vals = [eval_g_value(gp, c) for c in crits]
    suspected = tuple(c for c, v in zip(crits, crit_vals) if abs(v - K) <= tol_deg)

    ends = [gp.lower, *crits, gp.upper]
    values = [val_lo, *crit_vals, val_hi]

    roots: list[float] = []
    brackets: list[tuple[float, float]] = []
    residuals: list[float] = []
    for i in range(len(ends) - 1):
        zl, zr = ends[i], ends[i + 1]
        vl, vr = values[i], values[i + 1]
        if math.isfinite(vl) and abs(vl - K) <= tol_deg:
            continue
        if math.isfinite(vr) and abs(vr - K) <= tol_deg:
            continue
        if not (min(vl, vr) < K < max(vl, vr)):
            continue
        left_is_crit = i > 0
        right_is_crit = i + 1 < len(ends) - 1
        if left_is_crit:
            lo = zl
        else:
            start = zr if right_is_crit else _interior_start(gp)
            lo = _march_to_sign(gp, K, start, zl, want_positive=vl > K)
        if right_is_crit:
            hi = zr
        else:
            start = zl if left_is_crit else _interior_start(gp)
            hi = _march_to_sign(gp, K, start, zr, want_positive=vr > K)
        if lo is None or hi is None or not (lo < hi):
            raise CrnError(f"failed to bracket the root of g = {K} in piece ({zl}, {zr})")
        z = bracketed_root(level, level_and_slope, lo, hi)
        gz, slope, _ = eval_g(gp, z)
        res = abs(gz - K)
        # Steep pieces (root hugging a pole) cannot beat a few ulps of
        # backward error; allow the residual the slope explains there.
        slack = 1e-10 * (1.0 + abs(K)) + 8.0 * abs(slope) * 1e-15 * max(1.0, abs(z))
        if res > slack:
            raise CrnError(f"root residual {res} too large near z = {z}")
        roots.append(z)
        brackets.append((lo, hi))
        residuals.append(res)
    return RootSet(tuple(roots), tuple(brackets), tuple(residuals), suspected)


def _interior_start(gp: GProblem) -> float:
    lo, hi = gp.lower, gp.upper
    if math.isfinite(lo) and math.isfinite(hi):
        return 0.5 * (lo + hi)
    if math.isfinite(lo):
        return lo + (1.0 + abs(lo))
    if math.isfinite(hi):
        return hi - (1.0 + abs(hi))
    raise ConstantG("g has no poles; it is constant on the whole line")


# ---------------------------------------------------------------------------
# Independent oracle.  Separate compactification, separate evaluation path:
# this code must not share root-finding logic with find_roots.  The grid is
# evaluated in one pass, and each crossing is bisected with the grid's own
# arithmetic.  numpy is imported inside each function: nothing else in the
# package uses it, and loading it would double the start-up of every CLI
# command.


def _oracle_arrays(gp: GProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """alphas, gammas and float offsets as arrays, built once per oracle call."""
    import numpy as np

    offsets = [float(v) for v in gp.offsets]
    return np.array(gp.alphas, dtype=float), np.array(gp.gammas, dtype=float), np.array(offsets, dtype=float)


def _oracle_tail(arrays, K: float, end: float, up: bool) -> float:
    """How far from the finite end ``end`` the grid must reach toward the
    infinite one (above it when ``up``) to settle g vs K."""
    import numpy as np

    a, g, d = arrays
    side = g > 0 if up else g < 0
    fixed = (g == 0) & (a != 0)
    coeff = float(np.sum(a[side]))
    with np.errstate(divide="ignore"):
        const = float(np.sum(a[side] * np.log(np.abs(g[side])))) + float(np.sum(a[fixed] * np.log(d[fixed])))
    if coeff == 0.0:
        return (abs(end) + 1.0) * 1e12
    need = (abs(K) + abs(const) + 40.0) / abs(coeff)
    return min(math.exp(min(need, 640.0)), 1e280) + 8.0 * (abs(end) + 1.0)


def _log_offsets(end: float, reach: float, n: int) -> np.ndarray:
    """Log-uniform distances from a finite endpoint, from below float
    granularity at that endpoint out to ``reach``, after the distances to
    the floats next to it on either side (one of them is inside)."""
    import numpy as np

    eps0 = max((1.0 + abs(end)) * 1e-20, abs(end) * 4e-16)
    nearest = [math.nextafter(end, math.inf) - end, end - math.nextafter(end, -math.inf)]
    return np.concatenate([nearest, np.exp(np.linspace(math.log(eps0), math.log(reach), n))])


def _oracle_grid(gp: GProblem, arrays, K: float, n: int) -> np.ndarray:
    import numpy as np

    lo, hi = gp.lower, gp.upper
    if math.isfinite(lo) and math.isfinite(hi):
        w = hi - lo
        geo = 2.0 ** -np.arange(3, 121)
        core = lo + w * np.linspace(1.0 / (n + 1), 1.0, n, endpoint=False)
        z = np.concatenate([core, lo + w * geo[::-1], hi - w * geo])
    elif math.isfinite(lo):
        z = lo + _log_offsets(lo, _oracle_tail(arrays, K, lo, True), n)
    else:  # hi is finite: oracle_count refuses a g without poles
        z = hi - _log_offsets(hi, _oracle_tail(arrays, K, hi, False), n)[::-1]
    z = np.sort(z, kind="stable")
    inside = (z > lo) & (z < hi)
    inside[1:] &= z[1:] != z[:-1]
    return z[inside]


def _oracle_g(arrays, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(valid z, g values) on the given grid, computed with numpy only."""
    import numpy as np

    a, g, d = arrays
    args = np.multiply.outer(g, z)
    args += d[:, None]
    ok = (args > 0.0).all(axis=0)
    if not ok.all():  # compress keeps args C-ordered; the sum order of @ follows it
        z = z[ok]
        args = np.compress(ok, args, axis=1)
    keep = a != 0.0
    if not keep.all():
        a, args = a[keep], args[keep]
    return z, a @ np.log(args, out=args)


def oracle_count(gp: GProblem, K, samples: int = 200_001) -> int:
    """Count solutions of g = K by dense sign scanning; independent of find_roots.

    The grid size is a configuration value; the default is sized for
    cross-checking the root finder.  Close crossings are deduplicated after
    a local bisection refinement.
    """
    try:
        import numpy as np
    except ModuleNotFoundError as exc:
        raise ImportError('oracle_count needs numpy: pip install "crn1d[oracle]"') from exc

    if type(samples) is not int or samples < 1:
        raise ValueError("samples must be a positive integer")
    K = float(K)
    if is_constant(gp):
        raise ConstantG("every pole group of g' has zero residue")
    arrays = _oracle_arrays(gp)
    z, vals = _oracle_g(arrays, _oracle_grid(gp, arrays, K, samples))
    f = vals - K
    roots: list[float] = []
    idx = np.nonzero(f == 0.0)[0]
    roots.extend(float(z[i]) for i in idx)
    sign_change = np.nonzero(f[:-1] * f[1:] < 0.0)[0]
    # Float products and sums are monotone: every argument at a midpoint stays positive.
    a, g, d = arrays
    keep = a != 0.0
    a, g, d = a[keep], g[keep, None], d[keep, None]
    for i in sign_change:
        lo, hi = float(z[i]), float(z[i + 1])
        flo = float(f[i])
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            fm = (a @ np.log(g * mid + d))[0] - K
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    roots.sort()
    count = 0
    last = None
    for r in roots:
        if last is None or abs(r - last) > 1e-9 * (1.0 + abs(r)):
            count += 1
        last = r
    return count


# ---------------------------------------------------------------------------
# Mass action and witness verification against the full network.


def monomials(net: ReactionNetwork, x) -> list:
    """``x ** reactant_j`` for each reaction ``j``, in reaction order.

    Factors multiply in species order starting from the integer 1, so float
    states give float monomials and exact (int / Fraction) states exact
    ones.  Raises :class:`NumericOverflow` when a float monomial leaves
    binary64.
    """
    out = []
    for j, rx in enumerate(net.reactions):
        try:
            mono = math.prod(x[k] ** e for k, e in enumerate(rx.reactant) if e)
        except OverflowError:
            mono = math.inf
        if isinstance(mono, float) and not math.isfinite(mono):
            raise NumericOverflow(f"the mass-action monomial of reaction {j + 1} leaves binary64")
        out.append(mono)
    return out


def rate_terms(net: ReactionNetwork, lam, kappa, x) -> list:
    """The terms ``lambda_j * kappa_j * x ** reactant_j`` of the rate balance
    at ``x``, one per reaction; the balance is their sum."""
    return [lam[j] * kappa[j] * mono for j, mono in enumerate(monomials(net, x))]


def rate_term_slopes(net: ReactionNetwork, terms, gammas, x) -> list[float]:
    """The derivative of each rate term along ``gammas`` at the positive
    state ``x``: ``t_j * sum_k reactant_jk * gamma_k / x_k``."""
    return [
        t * math.fsum(e * gammas[k] / x[k] for k, e in enumerate(rx.reactant)) for t, rx in zip(terms, net.reactions)
    ]


@dataclass(frozen=True)
class StateCheck:
    """Replay of one claimed steady state."""

    state: tuple[float, ...]
    positive: bool
    rate_residual: float
    conservation_residual: float
    nondegenerate: bool
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    tol: float
    states: tuple[StateCheck, ...]
    passed: bool


def verify_witness(net: ReactionNetwork, witness, tol: float = 1e-9) -> VerificationReport:
    """Check a witness against the network it claims to certify.

    Works from ``(kappa, c, states)`` alone.  For each state it checks
    strict positivity, the relative residual of the rate balance
    ``sum_j lambda_j kappa_j x^(alpha_j)``, the conservation relations pinned
    by ``c``, and flags numeric nondegeneracy (the directional derivative of
    the balance along gamma, relatively bounded away from zero).  Raises
    ``ValueError`` for a non-finite number, a rate constant that is not
    positive (a malformed witness rather than a failed one) or a meaningless
    ``tol`` (not finite and positive).
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    struct = one_dim_structure(net)
    s = net.num_species
    m = net.num_reactions
    kappa = [float(v) for v in witness.kappa]
    cs = [float(v) for v in witness.c]
    if len(kappa) != m:
        raise DimensionMismatch(f"expected {m} rate constants, got {len(kappa)}")
    if len(cs) != s - 1:
        raise DimensionMismatch(f"expected {s - 1} conservation constants, got {len(cs)}")
    if not all(math.isfinite(v) for v in (*kappa, *cs)):
        raise ValueError("rate and conservation constants must be finite")
    if any(k <= 0 for k in kappa):
        raise ValueError("rate constants must be positive")
    lam = [float(v) for v in struct.lambdas]
    g = struct.gamma
    b, *rest = struct.species_perm
    checks = []
    for raw in witness.states:
        x = [float(v) for v in raw]
        if len(x) != s:
            raise DimensionMismatch(f"state has {len(x)} coordinates, expected {s}")
        if not all(math.isfinite(v) for v in x):
            raise ValueError("state coordinates must be finite")
        positive = all(v > 0.0 for v in x)
        if not positive:
            checks.append(StateCheck(tuple(x), False, math.inf, math.inf, False, False))
            continue
        terms = rate_terms(net, lam, kappa, x)
        denom = math.fsum(abs(t) for t in terms)
        rate_residual = abs(math.fsum(terms)) / denom if denom > 0 else math.inf
        cons = 0.0
        for k, ck, want in zip(rest, conservation_constants(struct, x), cs):
            scale = abs(g[k] * x[b]) + abs(g[b] * x[k]) + abs(want) + 1e-300
            cons = max(cons, abs(ck - want) / scale)
        slopes = rate_term_slopes(net, terms, g, x)
        dh = math.fsum(slopes)
        dh_scale = math.fsum(abs(v) for v in slopes) + 1e-300
        nondeg = abs(dh) / dh_scale > 1e-8
        ok = positive and rate_residual <= tol and cons <= tol
        checks.append(StateCheck(tuple(x), positive, rate_residual, cons, nondeg, ok))
    return VerificationReport(tol=tol, states=tuple(checks), passed=all(c.passed for c in checks))
