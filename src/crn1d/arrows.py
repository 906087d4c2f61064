"""Arrow diagrams of one-species restrictions and the bi-arrow count.

A one-species network is summarized by its sorted distinct reactant levels
and, per level, whether all reactions there raise the species, lower it, or
both.  For multi-species networks we never rebuild those diagrams: a pair of
opposed reactions (i, j) embeds onto species k as a two-reaction one-species
network showing "up at one level, down at another" exactly when the product

    (alpha[k][i] - alpha[k][j]) * (beta[k][i] - alpha[k][i])

is nonzero, with the sign telling the orientation.  Counting these signed
triples gives the bi-arrow number Ad, the quantity the multistationarity
tests read.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import OneDimStructure, ReactionNetwork, pair_sign_data

RIGHT = "right"
LEFT = "left"
BOTH = "both"


@dataclass(frozen=True)
class ArrowDiagram:
    """Distinct reactant levels of a one-species network with directions."""

    reactant_values: tuple[int, ...]
    glyphs: tuple[str, ...]


@dataclass(frozen=True)
class AdReport:
    """Bi-arrow count: total, per-species breakdown, and signed triples.

    Each triple is (species k, reaction i, reaction j, sign), all indices
    1-based, with ``i`` moving along gamma and ``j`` against it.
    """

    total: int
    per_species: tuple[int, ...]
    triples: tuple[tuple[int, int, int, int], ...]

    @property
    def left_right(self) -> tuple[tuple[int, int, int], ...]:
        """(k, i, j) of the positive triples: k rises under i at the higher
        reactant level."""
        return tuple((k, i, j) for k, i, j, sign in self.triples if sign > 0)

    @property
    def right_left(self) -> tuple[tuple[int, int, int], ...]:
        """(k, i, j) of the negative triples: k rises under i at the lower
        reactant level."""
        return tuple((k, i, j) for k, i, j, sign in self.triples if sign < 0)


def one_species_diagram(net: ReactionNetwork) -> ArrowDiagram:
    """Arrow diagram of a network with exactly one species."""
    if net.num_species != 1:
        raise ValueError("one_species_diagram needs a single-species network")
    levels = sorted({rx.reactant[0] for rx in net.reactions})
    glyphs = []
    for a in levels:
        ups = any(rx.reactant[0] == a and rx.product[0] > a for rx in net.reactions)
        downs = any(rx.reactant[0] == a and rx.product[0] < a for rx in net.reactions)
        glyphs.append(BOTH if ups and downs else RIGHT if ups else LEFT)
    return ArrowDiagram(tuple(levels), tuple(glyphs))


def ad_count(net: ReactionNetwork, struct: OneDimStructure) -> AdReport:
    """Count signed diagram triples; the total is the bi-arrow number.

    Triples are listed in the ``species_perm`` and ``opposed_pairs`` orders
    and reported with 1-based network indices.
    """
    opposed = struct.opposed_pairs()
    sign_data = [pair_sign_data(net, i, j) for i, j in opposed]
    triples = []
    per = [0] * net.num_species
    for k in struct.species_perm:
        for (i, j), (alphas, gammas) in zip(opposed, sign_data):
            product = alphas[k] * gammas[k]
            if product != 0:
                triples.append((k + 1, i + 1, j + 1, 1 if product > 0 else -1))
                per[k] += 1
    return AdReport(total=len(triples), per_species=tuple(per), triples=tuple(triples))
