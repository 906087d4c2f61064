"""Offset recipes, level selection, and the two witness constructors."""

import math
from fractions import Fraction

import pytest

from crn1d import (
    CrnError,
    GoalUnattainable,
    GProblem,
    capacity_class_bi,
    choose_K_three,
    choose_d_three,
    classify,
    find_roots,
    one_dim_structure,
    parse_network,
    sign_profile,
    verify_witness,
    witness_three,
    witness_two_general,
)
from crn1d.witness import _balanced_pair_weights

from conftest import bi_profile
from support import count_line_states


def profile_of(net):
    return bi_profile(net, one_dim_structure(net))


def offsets_of(prof):
    return choose_d_three(prof, capacity_class_bi(prof))


class TestChooseD:
    def test_gb_offsets(self, gb):
        assert offsets_of(profile_of(gb)) == (16, Fraction(8, 15), 1)

    def test_gc_offsets(self, gc):
        assert offsets_of(profile_of(gc)) == (1, 16, Fraction(32, 17))

    def test_gd_offsets(self, gd):
        assert offsets_of(profile_of(gd)) == (Fraction(64, 33), 32, 16, 1)

    def test_requires_at_least_three(self, ga):
        with pytest.raises(GoalUnattainable, match="finite-at-most-two"):
            offsets_of(profile_of(ga))

    def test_offsets_balance_the_origin(self, gc):
        prof = profile_of(gc)
        gp = GProblem(prof.alphas, prof.gammas, offsets_of(prof))
        from crn1d import eval_g

        g0, g1, g2 = eval_g(gp, 0.0)
        assert g1 == pytest.approx(0.0, abs=1e-14)
        assert g2 != 0.0

    @pytest.mark.parametrize(
        "alphas, gammas, offsets",
        [
            pytest.param((2, -1, -1, -1, 0), (3, 1, 2, 1, 2), ("3", "8/15", "32", "16", "2"), id="S1S4"),
            pytest.param((1, 1, 1, -2, 1), (1, 2, 1, 3, 0), ("8/15", "32", "16", "3", "1"), id="S1S4-flip"),
            pytest.param((2, -1, -1, -1), (-1, -2, -1, -3), ("1", "16/15", "16", "48"), id="S2S3"),
            pytest.param((1, 1, 1, -2), (-2, -1, -1, -1), ("16/15", "16", "16", "1"), id="S2S3-flip"),
            pytest.param((1, -1, -2, 0), (2, -1, 1, 1), ("2", "16", "32/17", "1"), id="S1S2S4"),
            pytest.param((2, 1, -1), (1, -3, 2), ("32/17", "48", "2"), id="S1S3S4"),
            pytest.param((-2, 1, -1), (-1, -2, 1), ("32/17", "2", "16"), id="S2S3S4"),
            pytest.param((1, -1, 2), (1, -1, -2), ("16", "1", "64/17"), id="S1S2S3"),
            pytest.param((1, -1, 1, -2), (1, -1, -1, 1), ("1", "16", "32", "64/33"), id="all-s4>m1"),
            pytest.param((2, -1, 1, -1), (1, -2, -1, 1), ("64/33", "64", "16", "1"), id="all-s1>m4"),
            pytest.param((1, -1, 2, -1, 0), (1, -1, -1, 2, 1), ("16", "1", "64/33", "64", "1"), id="all-s3>m2"),
            pytest.param((1, -2, 1, -1), (2, -1, -1, 1), ("64", "64/33", "1", "16"), id="all-s2>m3"),
        ],
    )
    def test_every_orientation_branch(self, alphas, gammas, offsets):
        """Exact offsets for one hand-built profile per orientation branch.

        Cases are named by the populated classes and, for two classes, by
        whether alpha is negated ("flip"), for four, by the first comparison
        that fires.  Each is finite-at-least-three at lambda2 = -1.  Equal
        totals in a two-class profile are the co-located-poles continuum, so
        each two-class branch has just these two sides.
        """
        assert offsets_of(sign_profile(alphas, gammas, -1)) == tuple(map(Fraction, offsets))

    def test_g_problem_length_check(self, gb):
        with pytest.raises(ValueError):
            prof = profile_of(gb)
            GProblem(prof.alphas, prof.gammas, (1, 2))


class TestChooseK:
    def test_three_confirmed_crossings(self, gb):
        prof = profile_of(gb)
        gp = GProblem(prof.alphas, prof.gammas, offsets_of(prof))
        K, rs = choose_K_three(gp)
        assert rs == find_roots(gp, K)
        assert len(rs.roots) >= 3
        assert rs.suspected_degenerate == ()

    def test_needs_critical_origin(self):
        with pytest.raises(CrnError, match="no critical point at the origin"):
            choose_K_three(GProblem((2, -1), (1, 1), (1, 2)))


class TestAssemble:
    def test_packaging(self, gb):
        """``witness_three`` packages the roots of its own confirming solve."""
        w = witness_three(classify(gb))
        gp = GProblem((2, 1, -2), (1, 1, 1), w.offsets)
        K, rs = choose_K_three(gp)
        roots = rs.roots
        assert (w.level, w.z_roots) == (K, roots)
        assert w.z_roots == tuple(sorted(w.z_roots))
        assert w.kappa[1] == pytest.approx(math.exp(K), rel=1e-15)
        assert w.states == tuple((z + 16.0, z + 8 / 15, z + 1.0) for z in roots)
        assert all(v > 0 for state in w.states for v in state)


class TestWitnessThree:
    @pytest.mark.parametrize("name", ["gb", "gc", "gd"])
    def test_three_verified_states(self, name, request):
        net = request.getfixturevalue(name)
        w = witness_three(classify(net))
        assert len(w.states) == 3
        assert all(v > 0 for state in w.states for v in state)
        assert w.nondegenerate == (True, True, True)
        zs = w.z_roots
        assert all(zs[i + 1] - zs[i] > 1e-6 for i in range(len(zs) - 1))
        report = verify_witness(net, w, 1e-9)
        assert report.passed
        assert count_line_states(net, w.kappa, w.c) == 3

    def test_gb_details(self, gb):
        w = witness_three(classify(gb))
        assert w.kappa[0] == 1.0
        assert w.kappa[1] == pytest.approx(89.0413422794189, rel=1e-9)
        assert w.c == (Fraction(232, 15), Fraction(15))
        assert w.offsets == (16, Fraction(8, 15), 1)

    def test_passive_species_are_masked_then_widened(self):
        # X4 moves but carries no weight in the scalar reduction
        net = parse_network(
            "3 X1 + 2 X2 + X3 + X4 -> 4 X1 + 3 X2 + 2 X3 + 2 X4\n"
            "X1 + X2 + 3 X3 + X4 -> 2 X3"
        )
        assert profile_of(net).classes == ("S1", "S1", "S4", "S5")
        w = witness_three(classify(net))
        assert w.offsets == (16, Fraction(8, 15), 1, 112)
        assert w.c == (Fraction(232, 15), Fraction(15), Fraction(-96))
        assert verify_witness(net, w, 1e-9).passed
        assert count_line_states(net, w.kappa, w.c) == 3

    def test_rejects_at_most_two(self, ga):
        with pytest.raises(GoalUnattainable, match="finite-at-most-two"):
            witness_three(classify(ga))

    def test_rejects_zero_capacity(self):
        net = parse_network("X1 -> 2 X1\n2 X1 -> 3 X1")
        with pytest.raises(GoalUnattainable, match="zero"):
            witness_three(classify(net))

    def test_rejects_infinite_capacity(self, example42):
        with pytest.raises(GoalUnattainable, match="infinitely-many"):
            witness_three(classify(example42))

    def test_rejects_three_reactions(self, w1):
        # the pair tests pass and the capacity is unknown: not ruled out, not constructed
        with pytest.raises(CrnError, match="no three-state construction for 3 reactions") as caught:
            witness_three(classify(w1))
        assert not isinstance(caught.value, GoalUnattainable)


class TestBalancedPairWeights:
    def test_jitter_restores_curvature(self):
        # equal weights per sign class leave g''(0) = 0 here; the jitter breaks the tie
        alphas, gammas = (2, -2, 1, -1), (1, 1, 1, 1)
        weights, sign = _balanced_pair_weights(alphas, gammas)
        assert sign == -1
        assert len(set(weights.values())) > 1
        # with w_k = |gamma_k| / d_k: g'(0) = sum alpha_k sgn(gamma_k) w_k, g''(0) = -sum alpha_k w_k^2
        g1 = sum(alphas[k] * (1 if gammas[k] > 0 else -1) * w for k, w in weights.items())
        g2 = -sum(alphas[k] * w * w for k, w in weights.items())
        assert g1 == 0
        assert g2 < 0

    def test_no_jitter_curves(self):
        assert _balanced_pair_weights((1, -1), (1, 1)) == (None, 0)


class TestWitnessTwo:
    def test_w1_lifted_pair(self, w1):
        w = witness_two_general(classify(w1))
        assert len(w.states) == 2
        assert w.nondegenerate == (True, True)
        assert w.kappa[0] == 1.0
        assert verify_witness(w1, w, 1e-9).passed
        assert count_line_states(w1, w.kappa, w.c) >= 2

    def test_passive_offset_clears_the_straddling_pair(self, lift_passive):
        """Pair 1 and 3 gives X3 no weight, so X3 is masked for the level
        search and its offset widened after it: from the two roots straddling
        the origin (4), not from every root of the masked line (6)."""
        w = witness_two_general(classify(lift_passive))
        assert w.offsets == (4, 2, 4, 2, 8)
        assert w.z_roots == (-0.48443041354816097, 0.6590824002605145)
        assert w.kappa == (1.0, 0.01, 1980.15235608255)
        assert verify_witness(lift_passive, w, 1e-9).passed

    def test_gb_two_states(self, gb):
        w = witness_two_general(classify(gb))
        assert len(w.states) == 2
        assert verify_witness(gb, w, 1e-9).passed
        assert count_line_states(gb, w.kappa, w.c) == 2

    def test_nb_endpoint_construction(self, nb):
        w = witness_two_general(classify(nb))
        assert w.states == ((2, 3), (1, 2))
        assert w.c == (-1,)
        assert verify_witness(nb, w, 1e-9).passed
        assert count_line_states(nb, w.kappa, w.c) == 2
        # the rational polish makes the balance exactly zero
        struct = one_dim_structure(nb)
        lam = struct.lambdas
        for state in w.states:
            balance = sum(
                lam[j]
                * Fraction(w.kappa[j])
                * math.prod(
                    Fraction(state[k]) ** e
                    for k, e in enumerate(nb.reactions[j].reactant)
                    if e
                )
                for j in range(nb.num_reactions)
            )
            assert balance == 0

    def test_nb_mirror_lands_on_continuum(self, nb_mirror):
        w = witness_two_general(classify(nb_mirror))
        assert w.states == ((2, 1), (1, 2))
        assert verify_witness(nb_mirror, w, 1e-9).passed
        assert count_line_states(nb_mirror, w.kappa, w.c) is None

    def test_w2_continuum_witness(self, w2):
        w = witness_two_general(classify(w2))
        assert w.kappa == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))
        assert w.c == (1,)
        assert w.states == ((2, 3), (1, 2))
        report = verify_witness(w2, w, 1e-9)
        assert report.passed
        assert [s.nondegenerate for s in report.states] == [False, False]
        assert count_line_states(w2, w.kappa, w.c) is None

    def test_rejects_single_reaction(self):
        net = parse_network("X1 -> 2 X1")
        with pytest.raises(GoalUnattainable, match="no opposed reaction pair"):
            witness_two_general(classify(net))

    def test_rejects_one_sided_multipliers(self):
        net = parse_network("X1 -> 2 X1\n2 X1 -> 3 X1")
        with pytest.raises(GoalUnattainable, match="no opposed reaction pair"):
            witness_two_general(classify(net))

    def test_rejects_balanced_pair(self):
        net = parse_network("2 X1 -> 3 X1 + X2\nX1 + X2 -> 0")
        with pytest.raises(GoalUnattainable, match="finite capacity"):
            witness_two_general(classify(net))

    def test_rejects_one_sided_diagrams(self, ga):
        with pytest.raises(GoalUnattainable, match="pair-diagram test fails"):
            witness_two_general(classify(ga))
