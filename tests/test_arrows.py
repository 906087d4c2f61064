"""One-species projections and the signed bi-arrow count."""

import pytest

from crn1d import ad_count, one_dim_structure, one_species_diagram, parse_network

from conftest import load


class TestOneSpeciesDiagram:
    def test_levels_sorted_and_distinct(self):
        d = one_species_diagram(parse_network("2 X1 -> 3 X1\nX1 -> 0\n3 X1 -> X1"))
        assert d.reactant_values == tuple(sorted(set(d.reactant_values)))
        assert len(d.glyphs) == len(d.reactant_values)

    def test_shared_level_merges(self):
        d = one_species_diagram(parse_network("X1 -> 2 X1\nX1 -> 0"))
        assert d.reactant_values == (1,)
        assert d.glyphs == ("both",)

    def test_directions(self):
        d = one_species_diagram(parse_network("2 X1 -> 3 X1\nX1 -> 0"))
        assert d.reactant_values == (1, 2)
        assert d.glyphs == ("left", "right")


class TestAdCount:
    def test_reference_three(self, ad_example):
        struct = one_dim_structure(ad_example)
        ad = ad_count(ad_example, struct)
        assert ad.total == 3
        assert ad.per_species == (1, 1, 1)
        assert ad.triples == ((1, 1, 2, -1), (2, 1, 2, 1), (3, 1, 2, -1))

    def test_pair_witnesses(self, ad_example):
        ad = ad_count(ad_example, one_dim_structure(ad_example))
        assert ad.right_left == ((1, 1, 2), (3, 1, 2))
        assert ad.left_right == ((2, 1, 2),)

    def test_one_sided_network(self, ga):
        struct = one_dim_structure(ga)
        ad = ad_count(ga, struct)
        assert ad.total == 2
        assert ad.right_left == ()
        assert len(ad.left_right) == 2

    def test_total_is_sum(self):
        for name in ("ga", "gb", "gc", "gd", "w1", "w2", "five_species"):
            net = load(name)
            struct = one_dim_structure(net)
            ad = ad_count(net, struct)
            assert ad.total == sum(ad.per_species) == len(ad.triples)
            assert all(sign in (-1, 1) for *_kij, sign in ad.triples)

    def test_triples_match_pair_lists(self, gd):
        struct = one_dim_structure(gd)
        ad = ad_count(gd, struct)
        neg = tuple((k, i, j) for k, i, j, s in ad.triples if s < 0)
        pos = tuple((k, i, j) for k, i, j, s in ad.triples if s > 0)
        assert neg == ad.right_left
        assert pos == ad.left_right

    def test_equal_reactant_levels_do_not_count(self):
        # both reactions read species 1 at the same level
        net = parse_network("X1 + X2 -> 2 X1 + X2\nX1 + 2 X2 -> 2 X2")
        struct = one_dim_structure(net)
        ad = ad_count(net, struct)
        assert ad.per_species[0] == 0

    def test_zero_sided_species_do_not_count(self, w2):
        # species 1 reads level 1 in both reactions of the pair (3, 2),
        # so only species 2 contributes an arrow pair there
        struct = one_dim_structure(w2)
        ad = ad_count(w2, struct)
        assert ad.triples == ((1, 1, 2, -1), (2, 1, 2, 1), (2, 3, 2, 1))
