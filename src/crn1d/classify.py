"""Capacity classification of one-dimensional networks.

For a two-reaction (bi-reaction) network the number of positive steady
states an invariant line can carry is decided combinatorially.  Writing
``alpha_k`` for the reactant difference of species ``k`` between the two
reactions and ``gamma_k`` for its net change under the first, species split
into sign classes

    S1: alpha>0, gamma>0    S2: alpha<0, gamma<0
    S3: alpha>0, gamma<0    S4: alpha<0, gamma>0    S5: alpha*gamma = 0

and a short ladder of tests on the absolute-alpha totals of these classes
yields one of: no positive steady states, a forced continuum for tuned
rates, at most two, or at least three for suitable parameters.

Networks with more reactions get the exact degenerate cases plus the
necessary/sufficient pair tests built on the bi-arrow count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arrows import AdReport, BOTH, ad_count, one_species_diagram
from .network import (
    Embedding,
    EssentialSets,
    OneDimStructure,
    ReactionNetwork,
    embed,
    essential_sets,
    one_dim_structure,
    pair_sign_data,
    parse_network,
)

CAP_ZERO = "zero"
CAP_INFINITE = "infinitely-many"
CAP_AT_MOST_TWO = "finite-at-most-two"
CAP_AT_LEAST_THREE = "finite-at-least-three"
CAP_UNKNOWN = "unknown"


@dataclass(frozen=True)
class BiReactionProfile:
    """Sign data of a bi-reaction network, in user species order.

    ``classes[k]`` is the class name of species ``k``; ``sets`` holds the
    five classes as 1-based index sets; ``sums`` and ``mins`` store the
    absolute-alpha totals and minima of S1..S4 (``None`` when empty).
    """

    alphas: tuple[int, ...]
    gammas: tuple[int, ...]
    lambda2: Fraction
    classes: tuple[str, ...]
    sets: tuple[frozenset[int], ...]
    sums: tuple[int, int, int, int]
    mins: tuple[int | None, int | None, int | None, int | None]

    def nonempty(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, 5) if self.sets[i - 1])


_CLASSES = ("S1", "S2", "S3", "S4", "S5")


def _class_index(alpha: int, gamma: int) -> int:
    """0-based index into ``_CLASSES`` of a species' sign class."""
    if alpha > 0:
        return 0 if gamma > 0 else 2 if gamma < 0 else 4
    if alpha < 0:
        return 1 if gamma < 0 else 3 if gamma > 0 else 4
    return 4


def sign_profile(alphas, gammas, lambda2) -> BiReactionProfile:
    """Sign profile of a two-reaction network from its sign data.

    ``alphas`` and ``gammas`` are as returned by
    :func:`~crn1d.network.pair_sign_data`; ``lambda2`` is the second
    reaction's change over the first's.  The profile depends on nothing
    else, so a caller that already knows these (as ``enumerate`` does)
    needs no :func:`~crn1d.network.one_dim_structure`.  One pass puts each species
    in its class; the sets, sums and minima are read from those lists.
    """
    members: tuple[list[int], ...] = ([], [], [], [], [])  # 1-based species per class
    classes = []
    for k, (a, g) in enumerate(zip(alphas, gammas), start=1):
        i = _class_index(a, g)
        members[i].append(k)
        classes.append(_CLASSES[i])
    sizes = [[abs(alphas[k - 1]) for k in ks] for ks in members[:4]]
    return BiReactionProfile(
        alphas=tuple(alphas),
        gammas=tuple(gammas),
        lambda2=Fraction(lambda2),
        classes=tuple(classes),
        sets=tuple(map(frozenset, members)),
        sums=tuple(map(sum, sizes)),
        mins=tuple(min(v) if v else None for v in sizes),
    )


@dataclass(frozen=True)
class CapacityClass:
    """Outcome of the capacity ladder with its audit trail.

    ``rule`` is a stable identifier of the branch that decided the class;
    ``inequalities`` shows the instantiated comparisons that fired.  On
    finite-at-least-three, ``classes`` is the pair ``(k, l)`` the ladder
    fired, "the S_l total beats the S_k minimum" (the offset recipes are
    oriented by it); it is ``None`` on every other outcome.
    """

    tag: str
    rule: str
    detail: str
    inequalities: tuple[str, ...] = ()
    classes: tuple[int, int] | None = None


# Three populated classes determine which total is compared against which
# minimum: {classes present} -> (k, l) meaning "sum over S_l vs min over S_k".
_TRIPLE_RULE = {
    frozenset({1, 2, 4}): (1, 4),
    frozenset({1, 3, 4}): (4, 1),
    frozenset({2, 3, 4}): (3, 2),
    frozenset({1, 2, 3}): (2, 3),
}


def capacity_class_bi(profile: BiReactionProfile) -> CapacityClass:
    """Decide the steady-state capacity of a bi-reaction profile.

    The ladder order matters: the sign gate and the flatness gate come
    first because the populated-class rules presuppose a finite count.
    """
    if profile.lambda2 > 0:
        return CapacityClass(
            tag=CAP_ZERO,
            rule="lambda-same-sign",
            detail="both reactions move along the base direction, so the rate "
            "balance is a sum of positive terms with no positive root",
        )
    sums, mins = profile.sums, profile.mins
    if sums[0] == sums[3] and sums[1] == sums[2]:
        return CapacityClass(
            tag=CAP_INFINITE,
            rule="co-located-poles",
            detail="offsets proportional to the slopes make the scalar balance "
            "constant on its whole interval, so tuned rates yield a continuum",
        )
    populated = profile.nonempty()
    if len(populated) == 1:
        return CapacityClass(
            tag=CAP_AT_MOST_TWO,
            rule="case-a",
            detail=f"only S{populated[0]} is populated; the scalar balance has "
            "at most one interior extremum",
        )
    if len(populated) == 2:
        k, l = populated
        if populated not in ((1, 4), (2, 3)):
            return CapacityClass(
                tag=CAP_AT_MOST_TWO,
                rule="case-b",
                detail=f"classes S{k} and S{l} do not "
                "alternate in both sign sequences; at most one interior extremum",
            )
        lhs1, rhs1 = sums[k - 1], mins[l - 1]
        lhs2, rhs2 = sums[l - 1], mins[k - 1]
        if lhs1 > rhs1 and lhs2 > rhs2:
            return CapacityClass(
                tag=CAP_AT_LEAST_THREE,
                rule="case-b",
                detail=f"S{k} and S{l} populated and each total beats the "
                "opposite minimum",
                inequalities=(f"{lhs1} > {rhs1}", f"{lhs2} > {rhs2}"),
                classes=(k, l) if lhs2 > lhs1 else (l, k),
            )
        failed = f"{lhs1} > {rhs1}" if not (lhs1 > rhs1) else f"{lhs2} > {rhs2}"
        return CapacityClass(
            tag=CAP_AT_MOST_TWO,
            rule="case-b",
            detail=f"S{k} and S{l} populated but the comparison {failed} fails",
        )
    if len(populated) == 3:
        k, l = _TRIPLE_RULE[frozenset(populated)]
        lhs, rhs = sums[l - 1], mins[k - 1]
        if lhs > rhs:
            return CapacityClass(
                tag=CAP_AT_LEAST_THREE,
                rule="case-c",
                detail=f"classes S{populated[0]}, S{populated[1]}, S{populated[2]} "
                f"populated and the S{l} total beats the S{k} minimum",
                inequalities=(f"{lhs} > {rhs}",),
                classes=(k, l),
            )
        return CapacityClass(
            tag=CAP_AT_MOST_TWO,
            rule="case-c",
            detail=f"three classes populated but {lhs} > {rhs} fails",
        )
    # Some comparison holds: if none did, sum4 <= min1 <= sum1 <= min4 <= sum4
    # and sum3 <= min2 <= sum2 <= min3 <= sum3, the co-located poles above.
    holding = [(k, l) for k, l in ((1, 4), (4, 1), (2, 3), (3, 2)) if sums[l - 1] > mins[k - 1]]
    k, l = holding[0]
    return CapacityClass(
        tag=CAP_AT_LEAST_THREE,
        rule="case-d",
        detail=f"all four classes populated; S{l} total vs S{k} minimum fires",
        inequalities=tuple(f"{sums[l - 1]} > {mins[k - 1]}" for k, l in holding),
        classes=(k, l),
    )


@dataclass(frozen=True)
class TwoReactionReport:
    """Nondegenerate-pair criterion for an opposed reaction pair."""

    nondegenerate_multistationary: bool
    products: tuple[int, ...]
    reason: str


def nondeg_pair(alphas, gammas) -> TwoReactionReport:
    """Nondegenerate-pair criterion on the sign data of an opposed pair.

    The per-species products ``(alpha_k1 - alpha_k2) * gamma_k`` must take
    both signs, excluding the exceptional cancellation when exactly one
    species is active on each side.
    """
    products = tuple(a * g for a, g in zip(alphas, gammas))
    pos = [k for k, p in enumerate(products) if p > 0]
    neg = [k for k, p in enumerate(products) if p < 0]
    if not pos or not neg:
        return TwoReactionReport(False, products, "the per-species products do not take both signs")
    if len(pos) == 1 and len(neg) == 1 and alphas[pos[0]] == -alphas[neg[0]]:
        return TwoReactionReport(
            False, products, "exactly one species on each side and their reactant differences cancel"
        )
    return TwoReactionReport(True, products, "products take both signs without exact cancellation")


@dataclass(frozen=True)
class TestReport:
    passes: bool
    note: str


def necessary_pair_test(ad: AdReport) -> TestReport:
    """Necessary condition for nondegenerate multistationarity: the signed
    diagram triples must occur with both orientations.

    Failing this rules out multiple nondegenerate steady states whenever the
    parameter capacity is finite; a network with infinite capacity can still
    carry degenerate continua.
    """
    has_pos = bool(ad.left_right)
    if has_pos and ad.right_left:
        return TestReport(True, "one-sided embedded diagrams occur with both orientations")
    missing = "left-right" if not has_pos else "right-left"
    return TestReport(
        False,
        f"no {missing} embedded diagram; with finite capacity this excludes "
        "multiple nondegenerate steady states (degenerate continua are not excluded)",
    )


def necessary_three_test(ad: AdReport) -> TestReport:
    """At least three signed triples are needed for three or more
    nondegenerate positive steady states on a line."""
    if ad.total >= 3:
        return TestReport(True, f"bi-arrow count {ad.total} >= 3")
    return TestReport(
        False,
        f"bi-arrow count {ad.total} < 3 rules out three nondegenerate steady "
        "states when the capacity is finite",
    )


@dataclass(frozen=True)
class SufficientCertificate:
    """An opposed reaction pair whose own capacity is positive and finite.

    ``pair`` is (reaction moving along gamma, reaction moving against it),
    1-based.  Together with a passing pair test this certifies at least two
    positive steady states for suitable rates.
    """

    pair: tuple[int, int]
    satisfied: bool
    note: str


def _pair_is_finite(alphas, gammas) -> bool:
    """A pair has finite capacity iff some side's signed alpha total is nonzero."""
    up = sum(a for a, g in zip(alphas, gammas) if g > 0)
    down = sum(a for a, g in zip(alphas, gammas) if g < 0)
    return up != 0 or down != 0


def sufficient_two_test(
    net: ReactionNetwork, struct: OneDimStructure, necessary: TestReport
) -> SufficientCertificate | None:
    """Find an opposed pair with positive finite capacity, if any.

    Scans pairs in ``struct.opposed_pairs()`` order and returns the first
    hit; ``satisfied`` also requires ``necessary``, the pair-diagram test of
    :func:`necessary_pair_test`, which is what turns the certificate into a
    two-state guarantee.
    """
    for i, j in struct.opposed_pairs():
        if _pair_is_finite(*pair_sign_data(net, i, j)):
            return SufficientCertificate(
                pair=(i + 1, j + 1),
                satisfied=necessary.passes,
                note="pair capacity is positive and finite; with the pair "
                "test this yields two positive steady states for tuned rates",
            )
    return None


@dataclass(frozen=True)
class Notice:
    id: str
    message: str


@dataclass(frozen=True)
class Report:
    """Everything :func:`classify` derives for one network."""

    network: ReactionNetwork
    structure: OneDimStructure
    essential: EssentialSets
    ad: AdReport
    necessary_pair: TestReport
    necessary_three: TestReport
    sufficient_two: SufficientCertificate | None
    capacity: CapacityClass
    profile: BiReactionProfile | None
    two_reaction: TwoReactionReport | None
    reduction: Embedding | None
    reduced: "Report | None"
    warnings: tuple[Notice, ...]


def canonical_key(reactions) -> tuple:
    """Isomorphism key of ``(reactant, product)`` pairs such as ``net.reactions``:
    the minimal table, one row ``reactant + product`` per reaction, over species
    and reaction relabelings.  For each of the m! reaction orders the smallest
    species order sorts the columns ``(r1k, p1k, r2k, p2k, ...)``, so a key of
    s species and m reactions costs O(m! * s log s)."""
    best = min(
        tuple(zip(*sorted(zip(*(vec for rx in order for vec in rx)))))
        for order in itertools.permutations(reactions)
    )
    return tuple(r + p for r, p in zip(best[::2], best[1::2]))


_W1_TEXT = """
X1 + 2 X2 -> X2
2 X1 -> 3 X1 + X2
2 X2 -> X1 + 3 X2
"""

_W2_TEXT = """
2 X1 + X2 -> X1
X1 + 2 X2 -> 2 X1 + 3 X2
X1 + X2 -> 0
"""


@functools.cache
def _known_issue_registry() -> tuple[dict, frozenset]:
    """Key -> notice, and the set of (species, reactions) shapes of the keys."""
    registry = {
        canonical_key(parse_network(_W1_TEXT).reactions): Notice(
            id="reference-witness-mismatch",
            message="a commonly quoted two-state witness for this network "
            "(rates (1, 9, 1), conservation constant 0.5) does not satisfy its "
            "steady-state equation; those states solve the sign-flipped cubic "
            "x1*x2^2 - 9*x1^2 + x2^2 = 0 instead. Witnesses here are derived "
            "independently and verified numerically.",
        ),
        canonical_key(parse_network(_W2_TEXT).reactions): Notice(
            id="reference-claim-mismatch",
            message="this network is sometimes claimed to admit no "
            "multistationarity; the certificate test disagrees. A degenerate "
            "continuum of positive steady states occurs exactly when the two "
            "opposed rates are equal and the conservation constant is tuned "
            "(kappa2 = kappa1 with c1 = kappa3/kappa1); all other parameters "
            "give at most one positive steady state on a line.",
        ),
    }
    return registry, frozenset((len(key[0]) // 2, len(key)) for key in registry)


def known_issue_warnings(net: ReactionNetwork) -> tuple[Notice, ...]:
    """Warnings for networks matching the registry up to relabeling.  Only a
    network of a registry shape can match, so no key is computed for others."""
    registry, shapes = _known_issue_registry()
    if (net.num_species, net.num_reactions) not in shapes:
        return ()
    hit = registry.get(canonical_key(net.reactions))
    return (hit,) if hit else ()


def structural_warnings(net: ReactionNetwork) -> tuple[Notice, ...]:
    out = []
    if net.num_species == 1:
        diagram = one_species_diagram(net)
        if BOTH in diagram.glyphs:
            out.append(
                Notice(
                    id="both-arrow-level",
                    message="some reactant level sends arrows both ways; the "
                    "network admits infinitely many degenerate positive steady "
                    "states for tuned rates",
                )
            )
    return tuple(out)


def _multi_reaction_capacity(
    net: ReactionNetwork,
    struct: OneDimStructure,
    sets: EssentialSets,
    necessary: TestReport,
    three: TestReport,
    cert: SufficientCertificate | None,
) -> CapacityClass:
    m = net.num_reactions
    if struct.t == m:
        return CapacityClass(
            tag=CAP_ZERO,
            rule="lambda-same-sign",
            detail="every multiplier is positive, so the rate balance is a sum "
            "of positive terms with no positive root",
        )
    if not sets.eh:
        return CapacityClass(
            tag=CAP_INFINITE,
            rule="free-species-balance",
            detail="no species is both rate-relevant and moved, and both "
            "directions occur, so tuned rates make every point of a line steady",
        )
    notes = []
    if cert is not None and cert.satisfied:
        notes.append("at least two positive steady states for suitable rates (certificate pair "
                     f"{cert.pair[0]} and {cert.pair[1]})")
    elif not necessary.passes:
        notes.append("multiple nondegenerate steady states excluded while the capacity is finite")
    if not three.passes:
        notes.append("three or more nondegenerate states excluded while the capacity is finite")
    detail = "; ".join(notes) if notes else "the pair tests alone do not bound the count"
    return CapacityClass(tag=CAP_UNKNOWN, rule="tests-only", detail=detail)


def classify(net: ReactionNetwork) -> Report:
    """Full structural classification of a one-dimensional network.

    Bi-reaction networks get the exact capacity ladder; others get the
    exact degenerate cases plus the test outcomes.  When the essential
    species form a proper nonempty subset the reduced network is classified
    as well (reduction preserves steady-state counts per line).
    """
    struct = one_dim_structure(net)
    sets = essential_sets(net, struct)
    ad = ad_count(net, struct)
    necessary = necessary_pair_test(ad)
    three = necessary_three_test(ad)
    cert = sufficient_two_test(net, struct, necessary)
    profile = None
    two_report = None
    if net.num_reactions == 2:
        profile = sign_profile(*pair_sign_data(net, 0, 1), struct.lambdas[1])
        capacity = capacity_class_bi(profile)
        if profile.lambda2 < 0:
            two_report = nondeg_pair(profile.alphas, profile.gammas)
    else:
        capacity = _multi_reaction_capacity(net, struct, sets, necessary, three, cert)
    reduction = None
    reduced = None
    if sets.eh and len(sets.eh) < net.num_species:
        reduction = embed(net, sorted(sets.eh))
        reduced = classify(reduction.network)
    warnings = structural_warnings(net) + known_issue_warnings(net)
    return Report(
        network=net,
        structure=struct,
        essential=sets,
        ad=ad,
        necessary_pair=necessary,
        necessary_three=three,
        sufficient_two=cert,
        capacity=capacity,
        profile=profile,
        two_reaction=two_report,
        reduction=reduction,
        reduced=reduced,
        warnings=warnings,
    )
