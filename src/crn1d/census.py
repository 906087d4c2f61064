"""The census of canonical two-reaction networks.

Every two-reaction network with a one-dimensional stoichiometric subspace
has change vectors ``(c1*e, c2*e)`` for a primitive base direction ``e``
(first nonzero entry positive) and nonzero integer multipliers.  The census
splits the sweep into work cells ``(species, max_coeff, e, c1, c2)``, one
per direction and ordered pair of multipliers, and generates the canonical
representative of each isomorphism class (species relabeling, reaction
swap) inside its cell.  Cells are plain tuples, so a worker pool can take
them; :func:`cell_records` turns one into its classified JSON lines.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

from .classify import canonical_key, capacity_class_bi, sign_profile
from .network import Reaction, ReactionNetwork, format_reaction


def cells(species: int, max_coeff: int):
    """The census's work cells ``(species, max_coeff, e, c1, c2)``: primitive
    directions ``e`` with entries in [-max_coeff, max_coeff] in lexicographic
    order, and for each every ordered pair of multipliers from ``c, -c``,
    ``c = 1 .. max_coeff // max|e|``."""
    for e in product(range(-max_coeff, max_coeff + 1), repeat=species):
        if math.gcd(*e) != 1 or next(v for v in e if v != 0) < 0:
            continue
        cmax = max_coeff // max(abs(v) for v in e)
        multipliers = [m for c in range(1, cmax + 1) for m in (c, -c)]
        for c1 in multipliers:
            for c2 in multipliers:
                yield species, max_coeff, e, c1, c2


def _cell_networks(species: int, bound: int, e, c1: int, c2: int):
    """Canonical representatives among networks with changes (c1*e, c2*e),
    each as its coefficient pairs ``((a1, p1), (a2, p2))``, in product order
    of ``a1`` and then ``a2``.

    A pair is its own :func:`canonical_key` exactly when its columns
    ``(a1k, p1k, a2k, p2k)`` are non-decreasing and its table is not larger
    than the table of the swapped order, whose first row begins with
    ``sorted(a2)``.  Where two columns of ``(a1, p1)`` tie, ``e`` ties too,
    so ``a2`` must be non-decreasing there.  ``sorted(a2) < a1`` rejects,
    ``sorted(a2) > a1`` accepts, and only a tie needs the key itself.
    """
    d1 = tuple(c1 * v for v in e)
    d2 = tuple(c2 * v for v in e)
    ranges1 = [range(max(0, -d1[k]), bound - max(0, d1[k]) + 1) for k in range(species)]
    ranges2 = [range(max(0, -d2[k]), bound - max(0, d2[k]) + 1) for k in range(species)]
    seconds = [(a2, tuple(sorted(a2)), tuple(a + d for a, d in zip(a2, d2))) for a2 in product(*ranges2)]
    unchanged = [k for k in range(species) if e[k] == 0]
    for a1 in product(*ranges1):
        p1 = tuple(a + d for a, d in zip(a1, d1))
        columns = list(zip(a1, p1))
        if sorted(columns) != columns:
            continue
        ties = [k for k in range(species - 1) if columns[k] == columns[k + 1]]
        absent = [k for k in unchanged if a1[k] == 0]  # the second reaction must use these
        for a2, swapped, p2 in seconds:
            if swapped < a1 or any(a2[k] > a2[k + 1] for k in ties) or not all(a2[k] for k in absent):
                continue
            pair = ((a1, p1), (a2, p2))
            if swapped == a1 and (a2 == a1 and d2 == d1 or canonical_key(pair) != (a1 + p1, a2 + p2)):
                continue
            yield pair


def enumerate_bi_networks(species: int, max_coeff: int):
    """Yield canonical two-reaction networks with coefficients <= max_coeff.

    Each isomorphism class (species relabeling, reaction swap) appears
    exactly once, through its lexicographically minimal representative.
    """
    names = tuple(f"X{k + 1}" for k in range(species))
    for cell in cells(species, max_coeff):
        for pair in _cell_networks(*cell):
            yield ReactionNetwork(names, tuple(Reaction(*rx) for rx in pair))


def cell_records(cell) -> list[tuple[str, str]]:
    """``(tag, JSON line)`` for each network of one cell of :func:`cells`.

    The cell fixes the change vectors ``(c1*e, c2*e)``, so every network in
    it has ``gammas = c1*e`` and lambda2 ``= c2/c1``, known without
    elimination.  The sign profile depends only on ``(alphas, gammas,
    lambda2)``, so within the cell it depends only on ``alphas``: the
    capacity (the same ladder :func:`classify` runs) and the bi-arrow count
    are computed once per distinct ``alphas`` and are exact for every
    network sharing it.  When ``c1*c2 > 0`` the ladder stops at its first
    rung, which reads only lambda2, so it runs once for the whole cell.
    The bi-arrow count is the number of species in S1..S4 when the two
    reactions are opposed (one pair, embedding on each such species) and 0
    otherwise.  Each line is ``json.dumps(record, sort_keys=True)`` put
    together from cached pieces: the keys sort as ad, network, rule, tag.
    """
    species, _, e, c1, c2 = cell
    names = tuple(f"X{k + 1}" for k in range(species))
    lambda2, opposed = Fraction(c2, c1), c1 * c2 < 0
    gammas = tuple(c1 * v for v in e)
    derived: dict[tuple | None, tuple[str, str, str]] = {}  # alphas (None: same sign) -> tag, head, tail
    texts: dict[tuple, str] = {}  # (reactant, product) -> its .crn line as a JSON string
    out = []
    for first, second in _cell_networks(*cell):
        alphas = tuple(a - b for a, b in zip(first[0], second[0]))
        key = alphas if opposed else None
        fields = derived.get(key)
        if fields is None:
            profile = sign_profile(alphas, gammas, lambda2)
            capacity = capacity_class_bi(profile)
            ad = sum(map(len, profile.sets[:4])) if opposed else 0
            head = f'{{"ad": {ad}, "network": ['
            tail = f'], "rule": {json.dumps(capacity.rule)}, "tag": {json.dumps(capacity.tag)}}}'
            fields = derived[key] = (capacity.tag, head, tail)
        tag, head, tail = fields
        for rx in (first, second):
            if rx not in texts:
                texts[rx] = json.dumps(format_reaction(*rx, names))
        out.append((tag, head + texts[first] + ", " + texts[second] + tail))
    return out
