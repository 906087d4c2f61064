"""Construction of verified steady-state witnesses.

Two goals are supported, each constructed from the :class:`Report` that
:func:`classify` built, which decides whether the goal is attainable.
``witness_three`` targets bi-reaction networks in the finite-at-least-three
capacity class: it picks exact rational offsets by the class-driven recipes
(balancing the first derivative of the scalar reduction at the origin while
forcing the right curvature), picks a level K between the origin's critical
value and an adjacent one, confirms at least three crossings, and converts
the roots of that confirming solve (of a second one where weightless species
were masked) back to positive states.

``witness_two_general`` works for any reaction count once the sufficient
pair certificate and the pair-diagram test hold.  It first tries to lift a
nondegenerate opposed pair (balanced offsets give a critical point at the
origin; a nearby level yields two crossings; the remaining reactions are
embedded with small rates and the roots re-bracketed on the full balance).
If no pair lifts, it builds two explicit positive points on a shared line
whose rate-balance ratios can be equalized by moving the rates between two
concentrated limits, then rescales, and finally polishes two rates exactly
by solving a rational 2x2 system.

Both ``witness_three`` and the pair lift solve on the line of one opposed
pair through the same step, ``_pair_line``.  The recipes take their sign
classes in the roles set by the class pair the capacity ladder fired, and
every rate term comes from :func:`~crn1d.numeric.rate_terms`.  Every
returned witness has been replayed through the verifier at 1e-9; where
``nondegenerate`` is set, its flags are the verifier's (the endpoint
construction leaves it ``None``).

A goal fails in one of two ways.  :class:`GoalUnattainable` is raised only
where the report's own verdicts rule the goal out; a construction that did
not get there raises a plain :class:`~crn1d.network.CrnError`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .arrows import AdReport
from .classify import (
    CAP_AT_LEAST_THREE,
    CAP_INFINITE,
    CAP_ZERO,
    BiReactionProfile,
    CapacityClass,
    Report,
    nondeg_pair,
)
from .network import CrnError, OneDimStructure, ReactionNetwork, conservation_constants, pair_sign_data
from .numeric import (
    GProblem,
    NumericOverflow,
    RootSet,
    bracketed_root,
    critical_points,
    eval_g,
    eval_g_value,
    find_roots,
    monomials,
    rate_term_slopes,
    rate_terms,
    verify_witness,
)


class GoalUnattainable(CrnError):
    """The requested witness is ruled out (or not certified) for this network."""


@dataclass(frozen=True)
class Witness:
    """Parameters plus states claimed steady, in user order.

    ``kappa`` follows the reaction order, ``states`` the species order;
    ``c`` is in the permuted species order used by the conservation
    relations.  The scalar-reduction fields (``z_roots``, ``level``,
    ``offsets``) are present when the witness came from a line
    parametrization.
    """

    kappa: tuple
    c: tuple
    states: tuple[tuple, ...]
    z_roots: tuple[float, ...] | None = None
    level: float | None = None
    offsets: tuple | None = None
    nondegenerate: tuple[bool, ...] | None = None


# ---------------------------------------------------------------------------
# Offset recipes for three states.

# For each class pair (k, l) the capacity ladder fires: which classes of the
# profile play S1..S4 of the recipes, and the sign multiplying the curvature
# target.  The recipes are written for (1, 4).  Negating alpha maps g to -g
# and swaps S1 with S4 and S2 with S3, giving (4, 1); negating gamma mirrors
# z and swaps S1 with S3 and S2 with S4, giving (3, 2); both give (2, 3).
# Offsets read only |alpha| and |gamma|, so they serve the original profile.
_RECIPE_ROLES = {
    (1, 4): ((1, 2, 3, 4), 1),
    (4, 1): ((4, 3, 2, 1), -1),
    (3, 2): ((3, 4, 1, 2), 1),
    (2, 3): ((2, 1, 4, 3), -1),
}


def _exact_g1_at_zero(profile: BiReactionProfile, weights: dict[int, Fraction]) -> Fraction:
    total = Fraction(0)
    for k, w in weights.items():
        sigma = 1 if profile.alphas[k] * profile.gammas[k] > 0 else -1
        total += sigma * abs(profile.alphas[k]) * w
    return total

def _exact_g2_at_zero(alphas, weights: dict[int, Fraction]) -> Fraction:
    return -sum(alphas[k] * w * w for k, w in weights.items())


def _weights_to_offsets(gammas, weights: dict[int, Fraction]):
    d = []
    for k, g in enumerate(gammas):
        if k in weights:
            d.append(Fraction(abs(g)) / weights[k])
        elif g != 0:
            d.append(Fraction(abs(g)))
        else:
            d.append(Fraction(1))
    return tuple(d)


def _curved_offsets(profile: BiReactionProfile, target: int, recipe: str, weights_at):
    """Offsets from the first ``weights_at(eps)``, eps = 1/16, 1/32, ... (41
    tries), whose weights are positive and make g'(0) vanish exactly with
    g''(0) of the sign of ``target``."""
    eps = Fraction(1, 16)
    for _ in range(41):
        weights = weights_at(eps)
        if all(w > 0 for w in weights.values()) and _exact_g1_at_zero(profile, weights) == 0:
            g2 = _exact_g2_at_zero(profile.alphas, weights)
            if (g2 > 0) == (target > 0) and g2 != 0:
                return _weights_to_offsets(profile.gammas, weights)
        eps /= 2
    raise CrnError(f"{recipe} recipe: no epsilon met the curvature condition")


def choose_d_three(profile: BiReactionProfile, capacity: CapacityClass):
    """Exact offsets putting a correctly-curved critical point at the origin.

    ``capacity`` is the ladder's class of ``profile`` and must be
    finite-at-least-three.  The weights (the values ``|gamma_k| / d_k``)
    follow the populated-class recipe.  For the class pair the ladder fired
    (``capacity.classes``), ``_RECIPE_ROLES`` names the classes that play
    S1..S4 and the sign of the curvature target; the epsilon is halved until
    the exact curvature check passes.
    """
    if capacity.tag != CAP_AT_LEAST_THREE:
        raise GoalUnattainable(f"three steady states need capacity class "
                               f"{CAP_AT_LEAST_THREE}, got {capacity.tag}")
    roles, sign = _RECIPE_ROLES[capacity.classes]
    absa = [abs(a) for a in profile.alphas]
    s1e, s2e, s3e, s4e = (sorted(k - 1 for k in profile.sets[c - 1]) for c in roles)
    sum1, sum4 = profile.sums[roles[0] - 1], profile.sums[roles[3] - 1]
    one = Fraction(1)
    if not s2e and not s3e:
        pivot = min(s4e, key=lambda k: (absa[k], k))
        rest4 = [k for k in s4e if k != pivot]

        def pair_weights(eps):
            weights = {k: one for k in s1e}
            weights[pivot] = (sum1 * one - sum(absa[k] for k in rest4) * eps) / absa[pivot]
            weights.update({k: eps for k in rest4})
            return weights

        return _curved_offsets(profile, sign, "pair", pair_weights)
    pivot = min(s1e, key=lambda k: (absa[k], k))
    spread = [k for k in s1e + s2e if k != pivot]

    def spread_weights(eps1):
        eps2 = eps1 / 2
        y = (absa[pivot] * one + sum(absa[k] for k in spread) * eps1
             - sum(absa[k] for k in s3e) * eps2) / sum4
        weights = {pivot: one}
        weights.update({k: eps1 for k in spread})
        weights.update({k: eps2 for k in s3e})
        weights.update({k: y for k in s4e})
        return weights

    return _curved_offsets(profile, -sign, "spread", spread_weights)


def _level_ladder(g0: float, side: float):
    """Levels ``(1 + |g0|) * 2^-k`` away from ``g0``, k = 1..60, above it
    when ``side > 0`` and below it otherwise."""
    for k in range(1, 61):
        delta = (1.0 + abs(g0)) * 2.0**-k
        yield g0 + delta if side > 0 else g0 - delta


def choose_K_three(gp: GProblem) -> tuple[float, RootSet]:
    """A level with at least three confirmed crossings, and its solve.

    Expects a critical point at the origin with nonzero curvature (what the
    offset recipes guarantee).  Prefers the midpoint between the origin's
    value and an adjacent critical value; falls back to a shrinking offset
    from the origin's value.  Returns ``(K, rs)``, where ``rs`` is the
    ``find_roots`` solve that confirmed the level.
    """
    g0, g1_0, g2_0 = eval_g(gp, 0.0)
    scale1 = sum(abs(a * g) / d for a, g, d in gp.terms if g != 0)
    if abs(g1_0) > 1e-9 * (1.0 + scale1):
        raise CrnError(f"no critical point at the origin (g'(0) = {g1_0})")
    scale2 = sum(abs(a) * g * g / d**2 for a, g, d in gp.terms if g != 0)
    if abs(g2_0) <= 1e-12 * (1.0 + scale2):
        raise CrnError("flat curvature at the origin")
    crits = list(critical_points(gp))
    if crits:
        crits.remove(min(crits, key=abs))  # the origin's own critical point
    below = max((c for c in crits if c < 0), default=None)
    above = min((c for c in crits if c > 0), default=None)
    values = [eval_g_value(gp, c) for c in (above, below) if c is not None]
    values.sort(key=lambda v: -abs(v - g0))
    for K in itertools.chain((0.5 * (g0 + v) for v in values), _level_ladder(g0, g2_0)):
        rs = find_roots(gp, K)
        if len(rs.roots) >= 3 and not rs.suspected_degenerate:
            return K, rs
    raise CrnError("no level produced three confirmed crossings")


def _level_rate(K: float, num: float, den: float) -> float:
    """``exp(K) * num / den``: the rate constant that puts a pair on level K."""
    try:
        rate = math.exp(K) * num / den
    except OverflowError:
        rate = math.inf
    if not 0.0 < rate < math.inf:
        raise NumericOverflow(f"level K = {K} needs a rate constant outside the positive binary64 range")
    return rate


def _pair_line(alphas, gammas, d0, pick, clear=lambda roots: roots):
    """``(GProblem, K, RootSet)`` of ``g = K`` on an opposed pair's line.

    Moving species with zero alpha do not change g: they are masked as
    fixed for ``pick(probe)``, which returns ``(K, RootSet)``.  With none
    masked the probe is the line and that solve is the answer.  Otherwise
    their offsets are widened until their poles clear ``clear(roots)`` and
    ``g = K`` is solved once more on the full line.
    """
    passive = [k for k, (a, g) in enumerate(zip(alphas, gammas)) if a == 0 and g != 0]
    probe = GProblem(
        alphas,
        tuple(0 if k in passive else g for k, g in enumerate(gammas)),
        tuple(Fraction(1) if k in passive else d for k, d in enumerate(d0)),
    )
    K, rs = pick(probe)
    if not passive:
        return probe, K, rs
    w = 2 * (1 + math.ceil(max(abs(float(r)) for r in clear(rs.roots))))
    d = list(d0)
    for k in passive:
        d[k] = Fraction(abs(gammas[k]) * w)
    gp = GProblem(alphas, gammas, tuple(d))
    return gp, K, find_roots(gp, K)


def witness_three(report: Report) -> Witness:
    """Three verified positive steady states for a qualifying bi-reaction network.

    Reads the profile and capacity class from ``report`` (what
    :func:`classify` built).  The level comes from :func:`choose_K_three` on
    the line of the pair with its weightless moving species masked (see
    :func:`_pair_line`); the roots of that solve become the states, with
    the base rate 1 and the second rate putting the pair on the level.
    Without exactly two reactions there is no construction: the goal is
    unattainable where a pair test fails or the capacity class is zero or
    infinitely-many, and not constructed otherwise.
    """
    net, profile, capacity = report.network, report.profile, report.capacity
    if profile is None and capacity.tag not in (CAP_ZERO, CAP_INFINITE):
        for test in (report.necessary_three, report.necessary_pair):
            if not test.passes:
                raise GoalUnattainable(test.note)
        raise CrnError(f"no three-state construction for {net.num_reactions} reactions "
                       "(the report does not rule three states out)")
    if capacity.tag != CAP_AT_LEAST_THREE:
        raise GoalUnattainable(f"capacity class is {capacity.tag}; three states are not available")
    d0 = choose_d_three(profile, capacity)
    gp, K, rs = _pair_line(profile.alphas, profile.gammas, d0, choose_K_three)
    if len(rs.roots) < 3:
        raise CrnError("crossings lost after widening passive offsets")
    witness = Witness(
        kappa=(1.0, _level_rate(K, 1.0, float(-profile.lambda2))),
        c=conservation_constants(report.structure, gp.offsets),
        states=tuple(tuple(g * z + d for _a, g, d in gp.terms) for z in rs.roots),
        z_roots=rs.roots,
        level=K,
        offsets=gp.offsets,
    )
    verification = verify_witness(net, witness, 1e-9)
    if not verification.passed:
        worst = max(c.rate_residual for c in verification.states)
        raise CrnError(f"witness failed verification (worst residual {worst})")
    return replace(witness, nondegenerate=tuple(c.nondegenerate for c in verification.states))


# ---------------------------------------------------------------------------
# Two states for general networks.


def _balanced_pair_weights(alphas, gammas):
    """Weights making the pair reduction critical at the origin with
    nonzero exact curvature, by a deterministic jitter if needed."""
    pos = [k for k, (a, g) in enumerate(zip(alphas, gammas)) if a * g > 0]
    neg = [k for k, (a, g) in enumerate(zip(alphas, gammas)) if a * g < 0]
    up = Fraction(1, sum(abs(alphas[k]) for k in pos))
    un = Fraction(1, sum(abs(alphas[k]) for k in neg))
    weights = {k: up for k in pos}
    weights.update({k: un for k in neg})
    for n in range(20):
        g2 = _exact_g2_at_zero(alphas, weights)
        if g2 != 0:
            return weights, (1 if g2 > 0 else -1)
        bump = 1 + Fraction(1, 2 ** (3 + n))
        weights = {k: w for k, w in weights.items()}
        weights[pos[0]] *= bump
        s_pos = sum(abs(alphas[k]) * weights[k] for k in pos)
        s_neg = sum(abs(alphas[k]) * weights[k] for k in neg)
        for k in neg:
            weights[k] *= s_pos / s_neg
    return None, 0


def _straddle(roots):
    """The roots nearest the origin on each side, or ``None`` if a side is empty."""
    lows = [r for r in roots if r < 0]
    highs = [r for r in roots if r > 0]
    return (max(lows), min(highs)) if lows and highs else None


def _lift_pair(net: ReactionNetwork, struct: OneDimStructure, i: int, j: int) -> Witness | None:
    """Two states from one nondegenerate opposed pair, then full embedding."""
    alphas, pair_gammas = pair_sign_data(net, i, j)
    if not nondeg_pair(alphas, pair_gammas).nondegenerate_multistationary:
        return None
    weights, g2_sign = _balanced_pair_weights(alphas, pair_gammas)
    if weights is None:
        return None

    def pick(probe):
        for K in _level_ladder(eval_g_value(probe, 0.0), g2_sign):
            try:
                rs = find_roots(probe, K)
            except CrnError:
                continue
            if _straddle(rs.roots) is not None:
                return K, rs
        raise CrnError("no level has crossings on both sides of the origin")

    try:
        gp, K, rs = _pair_line(alphas, pair_gammas, _weights_to_offsets(pair_gammas, weights), pick, _straddle)
    except CrnError:
        return None
    d_final = gp.offsets
    pair = _straddle(rs.roots)
    if pair is None:
        return None
    r_lo, r_hi = pair

    lam = [float(v) for v in struct.lambdas]
    gammas = struct.gamma
    li, lj = lam[i], lam[j]
    z_pair = sorted((li * r_lo, li * r_hi))
    line = GProblem(alphas, gammas, d_final)
    lo_dom, hi_dom = line.lower, line.upper
    gap = z_pair[1] - z_pair[0]
    all_z = sorted(li * r for r in rs.roots)
    kappa_j = _level_rate(K, li, -lj)
    d_float = [float(v) for v in d_final]
    eps = 1e-2
    for _ in range(12):
        kappa = [eps] * net.num_reactions
        kappa[i] = 1.0
        kappa[j] = kappa_j

        def state(zz):
            return [g * zz + dv for g, dv in zip(gammas, d_float)]

        def balance(zz):
            return math.fsum(rate_terms(net, lam, kappa, state(zz)))

        def balance_and_slope(zz):
            x = state(zz)
            terms = rate_terms(net, lam, kappa, x)
            return math.fsum(terms), math.fsum(rate_term_slopes(net, terms, gammas, x))

        polished = []
        ok = True
        for zr in z_pair:
            # the bracket must not swallow a neighbouring pair root
            near = min(
                (abs(zr - o) for o in all_z if abs(zr - o) > 1e-12 * (1 + abs(zr))),
                default=math.inf,
            )
            h = min(gap / 4.0, near / 2.0, (zr - lo_dom) / 2.0, (hi_dom - zr) / 2.0)
            flo, fhi = balance(zr - h), balance(zr + h)
            if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
                ok = False
                break
            z = bracketed_root(balance, balance_and_slope, zr - h, zr + h)
            polished.append(z)
        if ok and abs(polished[1] - polished[0]) > 1e-9 * (1 + abs(polished[1])):
            witness = Witness(
                kappa=tuple(kappa),
                c=conservation_constants(struct, d_final),
                states=tuple(tuple(state(z)) for z in polished),
                z_roots=tuple(polished),
                level=None,
                offsets=tuple(d_final),
            )
            report = verify_witness(net, witness, 1e-9)
            if report.passed:
                return replace(witness, nondegenerate=tuple(c.nondegenerate for c in report.states))
        eps /= 4.0
    return None


def _endpoint_points(net: ReactionNetwork, struct: OneDimStructure, k3: int, flip: bool):
    """Two positive points on one line whose monomial ratios are ordered.

    The anchor species takes values 2 and 1; every other moving species is
    placed through a ratio offset r chosen inside its positivity window,
    with the species sharing the anchor-constraint orientation ordered
    relative to the constrained species ``k3``.
    """
    gammas = struct.gamma
    b = struct.species_perm[0]
    yb, zb = Fraction(2), Fraction(1)
    ascending = (gammas[k3] > 0) != flip
    rs: dict[int, Fraction] = {}
    for k in range(net.num_species):
        if k == b or gammas[k] == 0:
            continue
        sigma_pos = gammas[k] * gammas[b] > 0
        constrained = gammas[k] * gammas[k3] > 0
        if constrained:
            is_k3 = k == k3
            if sigma_pos:
                if k3 == b:
                    rs[k] = Fraction(1) if ascending else Fraction(-1, 2)
                elif ascending:
                    rs[k] = Fraction(0) if is_k3 else Fraction(1)
                else:
                    rs[k] = Fraction(1) if is_k3 else Fraction(0)
            else:
                if ascending:
                    rs[k] = Fraction(-4) if is_k3 else Fraction(-3)
                else:
                    rs[k] = Fraction(-3) if is_k3 else Fraction(-4)
        else:
            rs[k] = Fraction(0) if sigma_pos else Fraction(-3)
    y = [Fraction(1)] * net.num_species
    z = [Fraction(1)] * net.num_species
    y[b], z[b] = yb, zb
    for k, r in rs.items():
        ratio = Fraction(gammas[k], gammas[b])
        y[k] = ratio * (yb + r)
        z[k] = ratio * (zb + r)
    return tuple(y), tuple(z)


def _up_down(net: ReactionNetwork, lam, kappa, x) -> tuple[float, float]:
    """The sums of the rate terms at ``x`` with lambda > 0 and of the negated ones with lambda < 0."""
    terms = list(zip(rate_terms(net, lam, kappa, [float(v) for v in x]), lam))
    return math.fsum(t for t, lj in terms if lj > 0), math.fsum(-t for t, lj in terms if lj < 0)


def _log_ratio_gap(net: ReactionNetwork, lam, kappa, y, z) -> float:
    """ln of the up/down rate ratio at y minus the same at z."""
    up_y, down_y = _up_down(net, lam, kappa, y)
    up_z, down_z = _up_down(net, lam, kappa, z)
    return math.log(up_y) - math.log(down_y) - math.log(up_z) + math.log(down_z)


def _two_by_endpoints(net: ReactionNetwork, struct: OneDimStructure, ad: AdReport) -> Witness:
    """Two states on an explicit line by matching rate ratios between
    concentrated-rate endpoints, with an exact rational polish."""
    k3 = ad.left_right[0][0] - 1
    lam_exact = struct.lambdas
    lam = [float(v) for v in lam_exact]
    opposed = struct.opposed_pairs()
    for flip in (False, True):
        y, z = _endpoint_points(net, struct, k3, flip)
        gaps = []
        for (i, j) in opposed:
            alphas, _gammas = pair_sign_data(net, i, j)
            d = math.fsum(
                a * (math.log(float(y[k])) - math.log(float(z[k]))) for k, a in enumerate(alphas)
            )
            gaps.append((d, i, j))
        neg = min(gaps)
        pos = max(gaps)
        if not (neg[0] < -1e-12 and pos[0] > 1e-12):
            last_error = CrnError("monomial-ratio gaps do not take both signs across opposed pairs")
            continue
        witness = _match_and_polish(net, struct, lam_exact, lam, y, z, neg, pos)
        if witness is not None:
            return witness
        last_error = CrnError("endpoint matching did not verify")
    raise last_error


def _match_and_polish(net, struct, lam_exact, lam, y, z, neg, pos) -> Witness | None:
    m = net.num_reactions
    background = 1e-9
    for _ in range(4):
        k1 = [background] * m
        k1[neg[1]] = 1.0
        k1[neg[2]] = 1.0
        k2 = [background] * m
        k2[pos[1]] = 1.0
        k2[pos[2]] = 1.0
        f1 = _log_ratio_gap(net, lam, k1, y, z)
        f2 = _log_ratio_gap(net, lam, k2, y, z)
        if f1 < 0 < f2:
            break
        background *= 1e-3
    else:
        return None
    lo_t, hi_t = 0.0, 1.0
    f_lo = f1
    for _ in range(200):
        mid = 0.5 * (lo_t + hi_t)
        kappa = [(1 - mid) * a + mid * b for a, b in zip(k1, k2)]
        fm = _log_ratio_gap(net, lam, kappa, y, z)
        if abs(fm) <= 1e-13:
            break
        if (fm > 0) == (f_lo > 0):
            lo_t, f_lo = mid, fm
        else:
            hi_t = mid
        if hi_t - lo_t <= 1e-17:
            break
    if abs(_log_ratio_gap(net, lam, kappa, y, z)) > 1e-6:
        raise CrnError("ratio-matching bisection left a visible gap")
    up, down = _up_down(net, lam, kappa, z)
    kappa = [kappa[j] / up if lam[j] > 0 else kappa[j] / down for j in range(m)]

    mono_y = monomials(net, y)
    mono_z = monomials(net, z)
    kf = [Fraction(v) for v in kappa]
    terms_y = rate_terms(net, lam_exact, kf, y)
    terms_z = rate_terms(net, lam_exact, kf, z)
    positives = sorted((j for j in range(m) if lam[j] > 0), key=lambda j: -kappa[j])
    negatives = sorted((j for j in range(m) if lam[j] < 0), key=lambda j: -kappa[j])
    exact = None
    tried = 0
    for i_star in positives:
        for j_star in negatives:
            if tried >= 6:
                break
            tried += 1
            a11 = lam_exact[i_star] * mono_y[i_star]
            a12 = lam_exact[j_star] * mono_y[j_star]
            a21 = lam_exact[i_star] * mono_z[i_star]
            a22 = lam_exact[j_star] * mono_z[j_star]
            det = a11 * a22 - a12 * a21
            if det == 0:
                continue
            r1 = -sum(t for j, t in enumerate(terms_y) if j not in (i_star, j_star))
            r2 = -sum(t for j, t in enumerate(terms_z) if j not in (i_star, j_star))
            ka = (r1 * a22 - a12 * r2) / det
            kb = (a11 * r2 - r1 * a21) / det
            if ka > 0 and kb > 0:
                exact = list(kf)
                exact[i_star] = ka
                exact[j_star] = kb
                break
        if exact is not None:
            break
    final_kappa = tuple(exact) if exact is not None else tuple(kappa)
    witness = Witness(
        kappa=final_kappa,
        c=conservation_constants(struct, y),
        states=(tuple(y), tuple(z)),
    )
    if verify_witness(net, witness, 1e-9).passed:
        return witness
    return None


def witness_two_general(report: Report) -> Witness:
    """Two verified positive steady states on one line, any reaction count.

    Requires the sufficient pair certificate of ``report`` (what
    :func:`classify` built) together with the pair-diagram test; raises
    :class:`GoalUnattainable` otherwise.  Tries to lift a nondegenerate
    opposed pair first, then the endpoint construction.
    """
    net, struct = report.network, report.structure
    if struct.t == net.num_reactions:
        raise GoalUnattainable("no opposed reaction pair exists")
    cert = report.sufficient_two
    if cert is None:
        raise GoalUnattainable("no opposed pair with finite capacity")
    if not cert.satisfied:
        raise GoalUnattainable("pair-diagram test fails; two nondegenerate states "
                               "are excluded while the capacity is finite")
    for i, j in struct.opposed_pairs():
        witness = _lift_pair(net, struct, i, j)
        if witness is not None:
            return witness
    return _two_by_endpoints(net, struct, report.ad)
