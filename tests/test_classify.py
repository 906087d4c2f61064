"""Profile extraction, the capacity ladder, tests, and the full report."""

import importlib
from fractions import Fraction

from crn1d import (
    ad_count,
    capacity_class_bi,
    classify,
    necessary_pair_test,
    necessary_three_test,
    one_dim_structure,
    parse_network,
    sufficient_two_test,
)
from crn1d.classify import known_issue_warnings, structural_warnings

from conftest import bi_profile


def profile_of(net):
    return bi_profile(net, one_dim_structure(net))


def certificate_of(net):
    struct = one_dim_structure(net)
    return sufficient_two_test(net, struct, necessary_pair_test(ad_count(net, struct)))


def capacity_of(net):
    return capacity_class_bi(profile_of(net))


class TestBiProfile:
    def test_gb(self, gb):
        prof = profile_of(gb)
        assert prof.alphas == (2, 1, -2)
        assert prof.gammas == (1, 1, 1)
        assert prof.lambda2 == Fraction(-1)
        assert prof.classes == ("S1", "S1", "S4")
        assert prof.sets[0] == frozenset({1, 2})
        assert prof.sets[3] == frozenset({3})
        assert prof.sums == (3, 0, 0, 2)
        assert prof.mins == (1, None, None, 2)

    def test_gd_uses_all_classes(self, gd):
        prof = profile_of(gd)
        assert prof.classes == ("S1", "S2", "S3", "S4")
        assert prof.sums == (2, 1, 1, 1)
        assert prof.mins == (2, 1, 1, 1)

    def test_flat_species_are_s5(self, five_species):
        prof = profile_of(five_species)
        # parse order is X1, X2, X4, X5, X3; X4 and X5 do not move
        assert prof.classes == ("S3", "S1", "S5", "S5", "S4")
        assert prof.sets[4] == frozenset({3, 4})


class TestCapacityLadder:
    def test_same_sign_multipliers(self):
        cap = capacity_of(parse_network("X1 -> 2 X1\n2 X1 -> 3 X1"))
        assert cap.tag == "zero"
        assert cap.rule == "lambda-same-sign"

    def test_colocated_poles(self, example42):
        cap = capacity_of(example42)
        assert cap.tag == "infinitely-many"
        assert cap.rule == "co-located-poles"

    def test_balanced_two_sided_pair_is_infinite(self):
        # opposite signed totals cancel on both sides
        cap = capacity_of(parse_network("2 X1 -> 3 X1 + X2\nX1 + X2 -> 0"))
        assert cap.tag == "infinitely-many"

    def test_single_class(self, ga):
        cap = capacity_of(ga)
        assert (cap.tag, cap.rule) == ("finite-at-most-two", "case-a")
        assert cap.inequalities == ()

    def test_two_classes_at_least_three(self, gb):
        cap = capacity_of(gb)
        assert (cap.tag, cap.rule) == ("finite-at-least-three", "case-b")
        assert cap.inequalities == ("3 > 2", "2 > 1")

    def test_two_classes_at_most_two(self):
        cap = capacity_of(parse_network("2 X1 -> 3 X1 + X2\nX1 + 2 X2 -> X2"))
        assert (cap.tag, cap.rule) == ("finite-at-most-two", "case-b")

    def test_three_classes_at_least_three(self, gc):
        cap = capacity_of(gc)
        assert (cap.tag, cap.rule) == ("finite-at-least-three", "case-c")
        assert cap.inequalities == ("2 > 1",)

    def test_three_classes_at_most_two(self):
        net = parse_network("2 X1 + X2 -> 3 X1 + X3\nX1 + 2 X2 + X3 -> 3 X2")
        prof = profile_of(net)
        assert prof.classes == ("S1", "S2", "S4")
        cap = capacity_of(net)
        assert (cap.tag, cap.rule) == ("finite-at-most-two", "case-c")

    def test_triple_s2_s3_s4(self):
        net = parse_network("2 X1 + X2 + X3 -> X1 + 2 X3\n4 X1 + 2 X3 -> 5 X1 + X2 + X3")
        prof = profile_of(net)
        assert prof.classes == ("S2", "S3", "S4")
        cap = capacity_of(net)
        assert (cap.tag, cap.inequalities) == ("finite-at-least-three", ("2 > 1",))

    def test_triple_s1_s2_s3(self):
        net = parse_network("2 X1 + X2 + 2 X3 -> 3 X1 + X3\nX1 + 2 X2 -> 3 X2 + X3")
        prof = profile_of(net)
        assert prof.classes == ("S1", "S2", "S3")
        cap = capacity_of(net)
        assert (cap.tag, cap.inequalities) == ("finite-at-least-three", ("2 > 1",))

    def test_four_classes_fires_s1_vs_s4(self, gd):
        cap = capacity_of(gd)
        assert (cap.tag, cap.rule) == ("finite-at-least-three", "case-d")
        assert cap.inequalities == ("2 > 1",)
        assert "S1 total vs S4 minimum" in cap.detail

    def test_four_classes_fires_s4_vs_s1(self):
        net = parse_network(
            "2 X1 + X2 + 2 X3 + 2 X4 -> 3 X1 + X3 + 3 X4\n"
            "X1 + 2 X2 + X3 + 4 X4 -> 3 X2 + 2 X3 + 3 X4"
        )
        prof = profile_of(net)
        assert prof.classes == ("S1", "S2", "S3", "S4")
        cap = capacity_of(net)
        assert (cap.tag, cap.rule) == ("finite-at-least-three", "case-d")
        assert "S4 total vs S1 minimum" in cap.detail

    def test_four_classes_lists_every_holding_condition(self):
        net = parse_network(
            "2 X1 + 3 X2 + X4 + 2 X5 + 2 X6 -> 3 X1 + 4 X2 + X3 + X5 + X6\n"
            "X1 + X2 + X3 + 2 X4 + X5 + X6 -> 3 X4 + 2 X5 + 2 X6"
        )
        prof = profile_of(net)
        # parse order puts X3 last (it first appears in a product)
        assert prof.classes == ("S1", "S1", "S2", "S3", "S3", "S4")
        cap = capacity_of(net)
        assert cap.tag == "finite-at-least-three"
        assert cap.inequalities == ("3 > 1", "2 > 1")
        assert "S1 total vs S4 minimum" in cap.detail

    def test_balanced_four_classes_hit_the_infinite_gate(self):
        # all four conditions failing forces equal totals on both axes,
        # so the continuum gate catches such profiles before case-d can
        net = parse_network(
            "2 X1 + X2 + 2 X3 + X4 -> 3 X1 + X3 + 2 X4\n"
            "X1 + 2 X2 + X3 + 2 X4 -> 3 X2 + 2 X3 + X4"
        )
        prof = profile_of(net)
        assert prof.classes == ("S1", "S2", "S3", "S4")
        cap = capacity_of(net)
        assert (cap.tag, cap.rule) == ("infinitely-many", "co-located-poles")


class TestTwoReaction:
    def test_one_sided_products(self, ga):
        rep = classify(ga).two_reaction
        assert not rep.nondegenerate_multistationary
        assert rep.products == (1, 1)

    def test_exact_cancellation(self):
        net = parse_network("2 X1 -> 3 X1 + X2\nX1 + X2 -> 0")
        rep = classify(net).two_reaction
        assert not rep.nondegenerate_multistationary
        assert "cancel" in rep.reason

    def test_both_signs(self):
        net = parse_network("2 X1 -> 3 X1 + X2\nX1 + 2 X2 -> X2")
        rep = classify(net).two_reaction
        assert rep.nondegenerate_multistationary
        assert rep.products == (1, -2)


class TestNecessaryAndSufficient:
    def test_pair_needs_both_orientations(self, ga):
        struct = one_dim_structure(ga)
        ad = ad_count(ga, struct)
        assert not necessary_pair_test(ad).passes

    def test_pair_passes(self, gb):
        struct = one_dim_structure(gb)
        ad = ad_count(gb, struct)
        assert necessary_pair_test(ad).passes

    def test_three_needs_three_diagrams(self, ga, ad_example):
        for net, expect in ((ga, False), (ad_example, True)):
            struct = one_dim_structure(net)
            assert necessary_three_test(ad_count(net, struct)).passes is expect

    def test_certificate_w2(self, w2):
        cert = certificate_of(w2)
        assert cert.pair == (3, 2)
        assert cert.satisfied

    def test_certificate_requires_pair_test(self, ga):
        cert = certificate_of(ga)
        assert cert.pair == (1, 2)
        assert not cert.satisfied

    def test_no_certificate_without_opposition(self):
        net = parse_network("X1 -> 2 X1\n2 X1 -> 3 X1")
        assert certificate_of(net) is None

    def test_no_certificate_for_balanced_pairs(self):
        net = parse_network("2 X1 -> 3 X1 + X2\nX1 + X2 -> 0")
        assert certificate_of(net) is None


class TestWarnings:
    def test_reference_witness_mismatch(self, w1):
        assert [n.id for n in known_issue_warnings(w1)] == ["reference-witness-mismatch"]

    def test_reference_claim_mismatch(self, w2):
        assert [n.id for n in known_issue_warnings(w2)] == ["reference-claim-mismatch"]

    def test_registry_matches_up_to_relabeling(self):
        # same network as w1 with species swapped and reactions permuted
        net = parse_network("2 X2 -> 3 X2 + X1\n2 X1 -> X2 + 3 X1\nX2 + 2 X1 -> X1")
        assert [n.id for n in known_issue_warnings(net)] == ["reference-witness-mismatch"]

    def test_registry_silent_elsewhere(self, gb):
        assert known_issue_warnings(gb) == ()

    def test_registry_gated_by_shape(self, monkeypatch, gb, w1):
        # only 2-species, 3-reaction networks can match: others never need a key
        def no_key(reactions):
            raise AssertionError("canonical_key called")

        assert known_issue_warnings(w1)  # builds the registry with the real key
        monkeypatch.setattr(importlib.import_module("crn1d.classify"), "canonical_key", no_key)
        wide = parse_network("X1 + X2 -> X3\nX3 -> X4 + X5\nX5 -> 2 X6\nX6 -> X1")
        assert (wide.num_species, wide.num_reactions) == (6, 4)
        assert known_issue_warnings(gb) == ()
        assert known_issue_warnings(wide) == ()

    def test_both_arrow_level(self, example42):
        assert [n.id for n in structural_warnings(example42)] == ["both-arrow-level"]

    def test_no_structural_warning(self, ga):
        assert structural_warnings(ga) == ()


class TestClassifyReport:
    def test_gb_report(self, gb):
        rep = classify(gb)
        assert rep.capacity.tag == "finite-at-least-three"
        assert rep.profile is not None
        assert rep.two_reaction is not None
        assert rep.reduction is None
        assert rep.warnings == ()

    def test_multi_reaction_uses_tests(self, nb_mirror):
        rep = classify(nb_mirror)
        assert rep.capacity.tag == "unknown"
        assert rep.capacity.rule == "tests-only"
        assert rep.profile is None
        assert rep.two_reaction is None
        assert rep.sufficient_two.satisfied
        assert not rep.necessary_three.passes

    def test_multi_reaction_free_species_balance(self, free_balance):
        # X1 moves but its reactant coefficient never varies; X2 varies but never moves
        cap = classify(free_balance).capacity
        assert (cap.tag, cap.rule) == ("infinitely-many", "free-species-balance")
        assert cap.detail == (
            "no species is both rate-relevant and moved, and both directions "
            "occur, so tuned rates make every point of a line steady"
        )

    def test_multi_reaction_pair_test_excludes_two(self, pair_excluded):
        cap = classify(pair_excluded).capacity
        assert (cap.tag, cap.rule) == ("unknown", "tests-only")
        assert cap.detail == "multiple nondegenerate steady states excluded while the capacity is finite"

    def test_five_species_reduces(self, five_species):
        rep = classify(five_species)
        assert rep.capacity.tag == "finite-at-least-three"
        assert rep.reduction is not None
        assert rep.reduced is not None
        assert rep.reduced.capacity.tag == "finite-at-least-three"
        assert rep.reduced.capacity.inequalities == ("2 > 1",)

    def test_no_reduction_when_all_essential(self, ad_example):
        rep = classify(ad_example)
        assert rep.reduction is None
        assert rep.reduced is None

    def test_empty_core_reported_infinite(self, eh_empty):
        rep = classify(eh_empty)
        assert rep.capacity.tag == "infinitely-many"
        assert rep.essential.eh == frozenset()
        assert rep.reduction is None

    def test_w2_carries_warning(self, w2):
        rep = classify(w2)
        assert "reference-claim-mismatch" in [n.id for n in rep.warnings]
