"""Reaction networks whose change vectors span a single line.

This module covers the structural layer: parsing and printing the ``.crn``
text format, exact detection of the one-dimensional geometry (the base
direction ``gamma`` and the rational multipliers ``lambda``), conservation
constants of a positive point, and the species-level reductions (essential
sets, embeddings) that the classifier builds on.

All structural arithmetic is exact: coefficients are integers and the
multipliers are ``fractions.Fraction`` values, so downstream sign decisions
never depend on floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class CrnError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CrnError):
    """Malformed ``.crn`` input.  Carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NotOneDimensional(CrnError):
    """The change vectors of the network do not lie on a single line."""


class EmptyEmbedding(CrnError):
    """Restricting to the kept species left no species or no reactions."""


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _as_int_tuple(values: Iterable[int], what: str) -> tuple[int, ...]:
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"{what} must contain plain integers, got {v!r}")
        if v < 0:
            raise ValueError(f"{what} must be nonnegative, got {v}")
        out.append(v)
    return tuple(out)


def _change(reactant: Sequence[int], product: Sequence[int]) -> tuple[int, ...]:
    return tuple(p - r for r, p in zip(reactant, product))


@dataclass(frozen=True)
class Reaction:
    """A single reaction, stored as dense coefficient vectors.

    ``reactant[k]`` and ``product[k]`` are the (nonnegative integer)
    coefficients of species ``k`` on each side.  The two complexes must
    differ, otherwise the reaction changes nothing.
    """

    reactant: tuple[int, ...]
    product: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "reactant", _as_int_tuple(self.reactant, "reactant"))
        object.__setattr__(self, "product", _as_int_tuple(self.product, "product"))
        if len(self.reactant) != len(self.product):
            raise ValueError("reactant and product vectors differ in length")
        if self.reactant == self.product:
            raise ValueError("reactant complex equals product complex")

    @property
    def change(self) -> tuple[int, ...]:
        return _change(self.reactant, self.product)

    def __iter__(self):
        """Unpack as ``reactant, product``."""
        return iter((self.reactant, self.product))


@dataclass(frozen=True)
class ReactionNetwork:
    """A named species list plus an ordered list of reactions."""

    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]

    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "reactions", tuple(self.reactions))
        if not self.species:
            raise ValueError("a network needs at least one species")
        if not self.reactions:
            raise ValueError("a network needs at least one reaction")
        seen = set()
        for name in self.species:
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"invalid species name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate species name {name!r}")
            seen.add(name)
        for rx in self.reactions:
            if len(rx.reactant) != len(self.species):
                raise ValueError("reaction arity does not match species count")

    @property
    def num_species(self) -> int:
        return len(self.species)

    @property
    def num_reactions(self) -> int:
        return len(self.reactions)


def _tokenize_line(text: str, lineno: int) -> list[tuple[str, str, int]]:
    """Split one source line into (kind, value, column) tokens.

    Kinds: INT, NAME, PLUS, ARROW.  Columns are 1-based.  The comment
    marker ``#`` ends the line.
    """
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch in " \t\r":
            i += 1
            continue
        col = i + 1
        if text.startswith("->", i):
            tokens.append(("ARROW", "->", col))
            i += 2
            continue
        if ch == "+":
            tokens.append(("PLUS", "+", col))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise ParseError("coefficients must be integers", lineno, col)
            try:
                int(text[i:j])
            except ValueError:  # more digits than Python converts to an int
                raise ParseError(f"coefficient has {j - i} digits, too many to read",
                                 lineno, col) from None
            tokens.append(("INT", text[i:j], col))
            i = j
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(("NAME", m.group(), col))
            i = m.end()
            continue
        if ch == "-":
            raise ParseError("negative coefficients are not allowed", lineno, col)
        raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return tokens


def _parse_complex(
    tokens: Sequence[tuple[str, str, int]],
    lineno: int,
    arrow_col: int,
    species_order: list[str],
    species_index: dict[str, int],
) -> dict[int, int]:
    """Parse one side of a reaction into a {species index: coefficient} map."""
    if not tokens:
        raise ParseError("empty complex (use '0' for no species)", lineno, arrow_col)
    if len(tokens) == 1 and tokens[0][0] == "INT":
        kind, value, col = tokens[0]
        if int(value) != 0:
            raise ParseError("a bare number is not a complex (use '0' for the empty complex)", lineno, col)
        return {}
    coeffs: dict[int, int] = {}
    i = 0
    while True:
        coeff = 1
        if i < len(tokens) and tokens[i][0] == "INT":
            coeff = int(tokens[i][1])
            if coeff == 0:
                raise ParseError("zero coefficient (omit the species instead)", lineno, tokens[i][2])
            i += 1
        if i >= len(tokens) or tokens[i][0] != "NAME":
            where = tokens[i][2] if i < len(tokens) else (tokens[-1][2] + len(tokens[-1][1]))
            raise ParseError("expected a species name", lineno, where)
        name = tokens[i][1]
        if name not in species_index:
            species_index[name] = len(species_order)
            species_order.append(name)
        k = species_index[name]
        coeffs[k] = coeffs.get(k, 0) + coeff
        i += 1
        if i == len(tokens):
            return coeffs
        if tokens[i][0] != "PLUS":
            raise ParseError("expected '+' between terms", lineno, tokens[i][2])
        i += 1
        if i == len(tokens):
            raise ParseError("dangling '+'", lineno, tokens[i - 1][2])


def parse_network(text: str) -> ReactionNetwork:
    """Parse the ``.crn`` text format.

    One reaction per line, ``reactant-complex -> product-complex``.  A
    complex is ``0`` or a ``+``-separated list of terms; a term is a species
    name with an optional positive integer coefficient (``3 X2`` and ``3X2``
    both work).  ``#`` starts a comment, blank lines are skipped.  Species
    are numbered by first appearance.
    """
    species_order: list[str] = []
    species_index: dict[str, int] = {}
    raw: list[tuple[dict[int, int], dict[int, int], int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        arrows = [t for t in tokens if t[0] == "ARROW"]
        if not arrows:
            raise ParseError("missing '->'", lineno, tokens[-1][2] + len(tokens[-1][1]))
        if len(arrows) > 1:
            raise ParseError("more than one '->'", lineno, arrows[1][2])
        split = tokens.index(arrows[0])
        arrow_col = arrows[0][2]
        lhs = _parse_complex(tokens[:split], lineno, arrow_col, species_order, species_index)
        rhs = _parse_complex(tokens[split + 1 :], lineno, arrow_col, species_order, species_index)
        raw.append((lhs, rhs, lineno))
    if not raw:
        raise ParseError("no reactions found", 1, 1)
    s = len(species_order)
    reactions = []
    for lhs, rhs, lineno in raw:
        reactant = tuple(lhs.get(k, 0) for k in range(s))
        product = tuple(rhs.get(k, 0) for k in range(s))
        if reactant == product:
            raise ParseError("reactant complex equals product complex", lineno, 1)
        reactions.append(Reaction(reactant, product))
    return ReactionNetwork(tuple(species_order), tuple(reactions))


def _format_complex(coeffs: Sequence[int], species: Sequence[str]) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        terms.append(species[k] if c == 1 else f"{c} {species[k]}")
    return " + ".join(terms) if terms else "0"


def format_reaction(reactant: Sequence[int], product: Sequence[int], species: Sequence[str]) -> str:
    """One ``.crn`` line, ``reactant -> product``, over the species names."""
    return f"{_format_complex(reactant, species)} -> {_format_complex(product, species)}"


def format_network(net: ReactionNetwork) -> str:
    """Render a network in the ``.crn`` format; inverse of :func:`parse_network`."""
    return "".join(format_reaction(*rx, net.species) + "\n" for rx in net.reactions)


def pair_sign_data(net: ReactionNetwork, i: int, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(alphas, gammas) of reactions ``i`` and ``j`` (0-based), user order.

    ``alphas[k]`` is the reactant difference of species ``k``, reaction
    ``i`` minus reaction ``j``, and ``gammas`` is the change vector of
    reaction ``i``: the data the scalar reduction of the pair and its sign
    classes are built from.
    """
    first, second = net.reactions[i], net.reactions[j]
    return tuple(a - b for a, b in zip(first.reactant, second.reactant)), first.change


@dataclass(frozen=True)
class OneDimStructure:
    """Exact description of a network with collinear change vectors.

    ``gamma`` is the change vector of the first listed reaction, and every
    reaction's change vector equals ``lambdas[j] * gamma`` exactly, so
    ``lambdas[0] == 1``.  Both are in the network's own species and
    reaction order; ``t`` multipliers are positive.

    ``species_perm`` and ``reaction_perm`` are presentation orders of
    0-based indices: the base species (the first one reaction 1 moves)
    before the others, and the reactions with a positive multiplier before
    those with a negative one.  They order the report, :meth:`opposed_pairs`
    and the conservation constants, never the vectors.
    """

    gamma: tuple[int, ...]
    lambdas: tuple[Fraction, ...]
    species_perm: tuple[int, ...]
    reaction_perm: tuple[int, ...]
    t: int

    def opposed_pairs(self) -> list[tuple[int, int]]:
        """0-based (i, j) with reaction i moving along gamma and j against
        it, in ``reaction_perm`` lexicographic order."""
        m = len(self.lambdas)
        return [
            (self.reaction_perm[ip], self.reaction_perm[jp])
            for ip in range(self.t)
            for jp in range(self.t, m)
        ]


def one_dim_structure(net: ReactionNetwork) -> OneDimStructure:
    """Check collinearity of all change vectors and extract (gamma, lambda, t).

    Raises :class:`NotOneDimensional` when some change vector is not a
    rational multiple of the first reaction's.
    """
    changes = [rx.change for rx in net.reactions]
    base = changes[0]
    b = next(k for k, v in enumerate(base) if v != 0)
    lambdas = []
    for j, delta in enumerate(changes):
        lam = Fraction(delta[b], base[b])
        if lam == 0 or any(delta[k] != lam * base[k] for k in range(len(base))):
            raise NotOneDimensional(
                f"change vector of reaction {j + 1} is not proportional to reaction 1's"
            )
        lambdas.append(lam)
    positives = [j for j, lam in enumerate(lambdas) if lam > 0]
    negatives = [j for j, lam in enumerate(lambdas) if lam < 0]
    return OneDimStructure(
        gamma=base,
        lambdas=tuple(lambdas),
        species_perm=tuple([b] + [k for k in range(net.num_species) if k != b]),
        reaction_perm=tuple(positives + negatives),
        t=len(positives),
    )


def conservation_constants(struct: OneDimStructure, x0: Sequence) -> tuple:
    """Constants pinning down the line through ``x0`` along ``gamma``.

    ``x0`` is a point in network species order.  With ``b`` the base
    species, the result is ``gamma[k] * x0[b] - gamma[b] * x0[k]`` for each
    ``k`` in ``species_perm[1:]``, in that order.  Exact inputs
    (int / Fraction) give exact constants.
    """
    if len(x0) != len(struct.gamma):
        raise ValueError("x0 length does not match the species count")
    g = struct.gamma
    b, *rest = struct.species_perm
    return tuple(g[k] * x0[b] - g[b] * x0[k] for k in rest)


@dataclass(frozen=True)
class EssentialSets:
    """Species that matter for steady states, as 1-based index sets.

    ``e`` holds species whose reactant coefficient varies across reactions
    (they influence some rate ratio); ``h`` holds species actually moved by
    the reactions (nonzero gamma).  Their intersection carries all
    steady-state structure.
    """

    e: frozenset[int]
    h: frozenset[int]

    @property
    def eh(self) -> frozenset[int]:
        return self.e & self.h


def essential_sets(net: ReactionNetwork, struct: OneDimStructure) -> EssentialSets:
    e = set()
    for k in range(net.num_species):
        coeffs = {rx.reactant[k] for rx in net.reactions}
        if len(coeffs) > 1:
            e.add(k + 1)
    h = {k + 1 for k in range(net.num_species) if struct.gamma[k] != 0}
    return EssentialSets(e=frozenset(e), h=frozenset(h))


@dataclass(frozen=True)
class Embedding:
    """Result of restricting a network to a subset of its species."""

    network: ReactionNetwork
    kept_species: tuple[int, ...]
    dropped_reactions: tuple[int, ...]


def _resolve_species(net: ReactionNetwork, keep) -> list[int]:
    """Map a collection of names or 1-based indices to 0-based indices."""
    out = set()
    for item in keep:
        if isinstance(item, str):
            if item not in net.species:
                raise ValueError(f"unknown species {item!r}")
            out.add(net.species.index(item))
        elif isinstance(item, int) and not isinstance(item, bool):
            if not 1 <= item <= net.num_species:
                raise ValueError(f"species index {item} out of range 1..{net.num_species}")
            out.add(item - 1)
        else:
            raise TypeError(f"keep entries must be names or 1-based indices, got {item!r}")
    return sorted(out)


def embed(net: ReactionNetwork, keep) -> Embedding:
    """Restrict the network to ``keep`` (species names or 1-based indices).

    Reactions whose two sides coincide after the restriction are dropped;
    their 1-based original indices are reported.  Unknown names or
    out-of-range indices raise ValueError; an empty keep list or a
    restriction that degenerates every reaction raises
    :class:`EmptyEmbedding`.
    """
    kept = _resolve_species(net, keep)
    if not kept:
        raise EmptyEmbedding("no species kept")
    species = tuple(net.species[k] for k in kept)
    reactions = []
    dropped = []
    for j, rx in enumerate(net.reactions):
        reactant = tuple(rx.reactant[k] for k in kept)
        product = tuple(rx.product[k] for k in kept)
        if reactant == product:
            dropped.append(j + 1)
        else:
            reactions.append(Reaction(reactant, product))
    if not reactions:
        raise EmptyEmbedding("every reaction is trivial on the kept species")
    return Embedding(
        network=ReactionNetwork(species, tuple(reactions)),
        kept_species=tuple(k + 1 for k in kept),
        dropped_reactions=tuple(dropped),
    )
