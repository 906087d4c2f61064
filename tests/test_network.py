"""Parsing, printing, one-dimensional structure, and species reductions."""

from fractions import Fraction

import pytest

from crn1d import (
    Reaction,
    ReactionNetwork,
    classify,
    conservation_constants,
    embed,
    essential_sets,
    format_network,
    one_dim_structure,
    parse_network,
)
from crn1d.network import (
    EmptyEmbedding,
    NotOneDimensional,
    ParseError,
)

from conftest import load


class TestParse:
    def test_species_order_is_first_appearance(self, five_species):
        assert five_species.species == ("X1", "X2", "X4", "X5", "X3")

    def test_coefficients(self, gb):
        assert gb.reactions[0].reactant == (3, 2, 1)
        assert gb.reactions[0].product == (4, 3, 2)
        assert gb.reactions[1].reactant == (1, 1, 3)
        assert gb.reactions[1].product == (0, 0, 2)

    def test_zero_complex(self):
        net = parse_network("X1 -> 0")
        assert net.reactions[0].product == (0,)

    def test_repeated_species_in_complex_accumulates(self):
        net = parse_network("X1 + X1 -> X2")
        assert net.reactions[0].reactant == (2, 0)

    def test_coefficient_without_space(self):
        net = parse_network("2X1 -> X2")
        assert net.reactions[0].reactant == (2, 0)

    def test_comments_and_blank_lines_skipped(self):
        net = parse_network("# header\nX1 -> 2 X1\n\nX1 -> 0\n")
        assert net.num_reactions == 2

    def test_underscore_names(self):
        net = parse_network("A_3 + B -> 2 A_3")
        assert net.species == ("A_3", "B")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("X1 -> X1", "equals"),
            ("0 X1 + X2 -> X1", "zero coefficient"),
            ("X1 => X2", "unexpected character"),
            ("X1 -> X2 -> X3", "more than one"),
            ("", "no reactions"),
            ("1.5 X1 -> X2", "must be integers"),
            ("X1 -> -1 X2", "negative coefficients"),
            (" -> X1", "empty complex"),
            ("2 -> X1", "bare number"),
            ("X1 + 2 -> X2", "expected a species name"),
            ("X1 X2 -> X3", "between terms"),
            ("X1 + -> X2", "dangling"),
            ("X1 + X2", "missing '->'"),
        ],
    )
    def test_rejects(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_network(text)

    def test_rejects_over_long_coefficient(self):
        # int() refuses more than 4300 digits by default; the tokenizer reports it
        with pytest.raises(ParseError, match="5000 digits") as err:
            parse_network("X1 -> 2 X1\nX1 + " + "7" * 5000 + " X1 -> 0")
        assert (err.value.line, err.value.column) == (2, 6)

    def test_rejects_non_decimal_digit(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_network("\u00b2 X1 -> X1")

    def test_error_carries_position(self):
        # the last two point past the last token: a missing name, a missing arrow
        for text, column in (("X2 => X1", 4), ("X1 + 2 -> X2", 7), ("X1 + X2", 8)):
            with pytest.raises(ParseError) as err:
                parse_network("X1 -> 2 X1\n" + text)
            assert err.value.line == 2
            assert err.value.column == column

    def test_missing_arrow_column_skips_comment(self):
        # one past the last token, as on the same line without the comment
        with pytest.raises(ParseError, match="missing '->'") as err:
            parse_network("X1 -> X2\nX1 + X2  # no arrow\n")
        assert (err.value.line, err.value.column) == (2, 8)

    @pytest.mark.parametrize(
        "name",
        ["ga", "gb", "gc", "gd", "ad_example", "five_species", "w1", "w2", "nb"],
    )
    def test_format_round_trip(self, name):
        net = load(name)
        assert parse_network(format_network(net)) == net


class TestValidation:
    def test_reaction_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Reaction((-1,), (1,))

    def test_reaction_rejects_bool(self):
        with pytest.raises(ValueError, match="plain integers"):
            Reaction((True,), (0,))

    def test_reaction_rejects_no_change(self):
        with pytest.raises(ValueError, match="equals"):
            Reaction((1, 2), (1, 2))

    def test_network_rejects_duplicate_species(self):
        with pytest.raises(ValueError, match="duplicate"):
            ReactionNetwork(("X1", "X1"), (Reaction((1, 0), (0, 1)),))

    def test_network_rejects_bad_name(self):
        with pytest.raises(ValueError, match="invalid species name"):
            ReactionNetwork(("1X",), (Reaction((1,), (2,)),))

    def test_network_rejects_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            ReactionNetwork(("X1", "X2"), (Reaction((1,), (2,)),))


class TestOneDimStructure:
    def test_exact_proportionality(self, gb):
        struct = one_dim_structure(gb)
        lam = struct.lambdas
        gamma = struct.gamma
        for j, rx in enumerate(gb.reactions):
            assert all(
                Fraction(d) == lam[j] * g for d, g in zip(rx.change, gamma)
            )

    def test_first_multiplier_is_one(self, gd):
        assert one_dim_structure(gd).lambdas[0] == 1

    def test_sign_grouping(self, w2):
        struct = one_dim_structure(w2)
        assert struct.t == 2
        assert struct.reaction_perm == (0, 2, 1)
        grouped = [struct.lambdas[j] for j in struct.reaction_perm]
        assert all(l > 0 for l in grouped[: struct.t])
        assert all(l < 0 for l in grouped[struct.t :])

    def test_base_species_moves(self, ad_example):
        struct = one_dim_structure(ad_example)
        assert struct.gamma[struct.species_perm[0]] != 0
        assert struct.gamma == (-1, 1, 1)

    def test_rejects_two_dimensional(self):
        net = parse_network("X1 -> 2 X1\nX2 -> 2 X2")
        with pytest.raises(NotOneDimensional):
            one_dim_structure(net)


class TestConservation:
    def test_exact_constants(self, gb):
        struct = one_dim_structure(gb)
        assert conservation_constants(struct, (2, 3, 5)) == (-1, -3)

    def test_fraction_input_stays_exact(self, gc):
        struct = one_dim_structure(gc)
        assert struct.gamma == (1, -1, 1)
        c = conservation_constants(struct, (Fraction(1, 3), Fraction(1, 5), 1))
        assert all(isinstance(v, Fraction) for v in c)
        assert c == (Fraction(-8, 15), Fraction(-2, 3))

    def test_constants_invariant_along_line(self, gd):
        struct = one_dim_structure(gd)
        gamma = struct.gamma
        x0 = (Fraction(5), Fraction(7), Fraction(2), Fraction(9))
        x1 = tuple(v + 3 * g for v, g in zip(x0, gamma))
        assert conservation_constants(struct, x0) == conservation_constants(struct, x1)

    def test_length_check(self, gb):
        struct = one_dim_structure(gb)
        with pytest.raises(ValueError):
            conservation_constants(struct, (1, 2))


class TestEssentialSets:
    def test_five_species_by_name(self, five_species):
        struct = one_dim_structure(five_species)
        sets = essential_sets(five_species, struct)
        names = five_species.species
        assert {names[i - 1] for i in sets.e} == {"X1", "X2", "X3", "X5"}
        assert {names[i - 1] for i in sets.h} == {"X1", "X2", "X3", "X4"}
        assert {names[i - 1] for i in sets.eh} == {"X1", "X2", "X3"}

    def test_all_essential(self, ad_example):
        struct = one_dim_structure(ad_example)
        sets = essential_sets(ad_example, struct)
        assert sets.e == sets.h == sets.eh == frozenset({1, 2, 3})

    def test_disjoint_sets(self, eh_empty):
        struct = one_dim_structure(eh_empty)
        sets = essential_sets(eh_empty, struct)
        assert sets.e == frozenset({2})
        assert sets.h == frozenset({1})
        assert sets.eh == frozenset()


class TestEmbed:
    def test_names_and_indices_agree(self, five_species):
        by_name = embed(five_species, ["X1", "X2", "X3", "X4"])
        idx = [five_species.species.index(n) + 1 for n in ("X1", "X2", "X3", "X4")]
        by_index = embed(five_species, idx)
        assert by_name.network == by_index.network

    def test_five_species_h_restriction(self, five_species, gh):
        emb = embed(five_species, ["X1", "X2", "X3", "X4"])
        assert emb.network == gh
        assert emb.dropped_reactions == ()

    def test_keeps_nontrivial_restrictions(self, eh_empty):
        emb = embed(eh_empty, ["X1"])
        assert emb.dropped_reactions == ()
        assert emb.network == parse_network("X1 -> 2 X1\nX1 -> 0")

    def test_drops_trivialized_reactions(self):
        net = parse_network("X1 + X2 -> 2 X1 + X2\nX1 + 2 X2 -> X1 + X2")
        emb = embed(net, ["X1"])
        assert emb.dropped_reactions == (2,)
        assert emb.network == parse_network("X1 -> 2 X1")

    def test_empty_embedding(self):
        net = parse_network("X1 + X2 -> 2 X1 + X2")
        with pytest.raises(EmptyEmbedding):
            embed(net, ["X2"])

    def test_unknown_species(self, gb):
        with pytest.raises(ValueError):
            embed(gb, ["X9"])


class TestReduceToEssential:
    def test_five_species_reduces_to_core(self, five_species, ad_example):
        red = classify(five_species).reduction
        assert red.network == ad_example
        kept = {five_species.species[i - 1] for i in red.kept_species}
        assert kept == {"X1", "X2", "X3"}

    def test_empty_core(self, eh_empty):
        # no species is both rate-relevant and moved: nothing to reduce to
        assert classify(eh_empty).reduction is None
