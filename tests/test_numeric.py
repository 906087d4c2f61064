"""The scalar reduction: domains, evaluation, roots, oracle, verifier."""

import math
import sys
from fractions import Fraction

import pytest

from crn1d import (
    ConstantG,
    DimensionMismatch,
    EmptyInterval,
    GProblem,
    OutOfDomain,
    Witness,
    critical_points,
    eval_g,
    eval_g_slope,
    eval_g_value,
    find_roots,
    is_constant,
    oracle_count,
    parse_network,
    verify_witness,
)
from crn1d import numeric
from crn1d.numeric import _narrow, bracketed_root

from support import CLUSTERED, DOUBLE_ZERO, END_ROOT, FLAT_TAIL, exact_critical_count

# gb-shaped problem with recipe offsets: g'(z) has roots exactly at 0 and 13
GB_LIKE = GProblem((2, 1, -2), (1, 1, 1), (16, Fraction(8, 15), 1))


class TestGProblem:
    def test_exact_domain(self):
        assert GB_LIKE.lower_exact == Fraction(-8, 15)
        assert GB_LIKE.upper_exact is None
        assert GB_LIKE.lower == pytest.approx(-8 / 15)
        assert GB_LIKE.upper == math.inf

    def test_bounded_domain(self):
        gp = GProblem((1, 1), (1, -1), (1, 1))
        assert gp.lower_exact == Fraction(-1)
        assert gp.upper_exact == Fraction(1)

    def test_float_offsets_convert_exactly(self):
        gp = GProblem((1,), (2,), (0.5,))
        assert gp.offsets == (Fraction(1, 2),)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            GProblem((1, 2), (1,), (1, 1))

    def test_empty_interval(self):
        with pytest.raises(EmptyInterval):
            GProblem((1, 1), (1, -1), (-1, -1))

    def test_weighted_fixed_species_needs_positive_offset(self):
        with pytest.raises(EmptyInterval, match="^a fixed species with weight needs a positive offset$"):
            GProblem((1,), (0,), (0,))
        # without weight it has no positive concentration either: every read would fail
        with pytest.raises(EmptyInterval, match="^a fixed species without weight needs a positive offset$"):
            GProblem((1, 0), (1, 0), (1, -1))

    def test_rejects_weird_offsets(self):
        with pytest.raises(ValueError):
            GProblem((1,), (1,), (math.inf,))
        with pytest.raises(TypeError):
            GProblem((1,), (1,), (True,))


class TestEvalG:
    def test_log_identity(self):
        gp = GProblem((1,), (1,), (0,))
        g, g1, g2 = eval_g(gp, 2.0)
        assert g == pytest.approx(math.log(2.0), rel=1e-15)
        assert g1 == pytest.approx(0.5, rel=1e-15)
        assert g2 == pytest.approx(-0.25, rel=1e-15)

    def test_value_at_recipe_origin(self):
        g, g1, g2 = eval_g(GB_LIKE, 0.0)
        assert g == pytest.approx(11 * math.log(2) - math.log(15), rel=1e-14)
        assert g1 == 0.0
        assert g2 == -1.5234375

    def test_out_of_domain(self):
        gp = GProblem((1, 1), (1, -1), (1, 1))
        for evaluate in (eval_g, eval_g_value, eval_g_slope):
            with pytest.raises(OutOfDomain):
                evaluate(gp, 1.0)
            with pytest.raises(OutOfDomain):
                evaluate(gp, -2.0)

    def test_weightless_species_bounds_the_domain(self):
        # the species without weight has its pole at -1/69, just above the
        # float lower end: its argument is not positive one ulp inside
        gp = GProblem((1, 0), (-1, 3), (5, Fraction(1, 23)))
        z = math.nextafter(gp.lower, math.inf)
        for evaluate in (eval_g, eval_g_value, eval_g_slope):
            with pytest.raises(OutOfDomain) as info:
                evaluate(gp, z)
            assert str(info.value) == "argument for slope 3 vanished at z=-0.014492753623188404"

    def test_warm_problem_does_no_exact_arithmetic(self, monkeypatch):
        # domain (-1, 8/15); a species without weight and a fixed one ride along
        gp = GProblem((2, 1, -2, 0, 3), (1, -1, 1, 2, 0), (16, Fraction(8, 15), 1, 5, Fraction(1, 3)))
        points = (-0.75, -0.5, 0.0, 0.25, 0.5)
        expected = [eval_g(gp, z) for z in points]

        def refuse(*_args):
            raise AssertionError("exact arithmetic in eval_g on a warm problem")

        monkeypatch.setattr(Fraction, "__truediv__", refuse)
        monkeypatch.setattr(Fraction, "__neg__", refuse)
        assert [eval_g(gp, z) for z in points] == expected


class TestCriticalPoints:
    def test_exact_pair(self):
        crits = critical_points(GB_LIKE)
        assert len(crits) == 2
        assert crits[0] == pytest.approx(0.0, abs=1e-12)
        assert crits[1] == pytest.approx(13.0, rel=1e-12)

    def test_monotone_piece_has_none(self):
        assert critical_points(GProblem((2, -1), (1, 1), (1, 2))) == ()

    def test_close_pair_is_found(self):
        # two critical points 8e-5 apart, next to a third far away
        crits = critical_points(CLUSTERED)
        assert crits == pytest.approx((-0.000598, 8.9996589, 8.9997362), abs=1e-6)
        assert len(find_roots(CLUSTERED, -5.614283631956511).roots) == 4

    def test_cancelling_tail_has_none(self):
        # g' is about 1e-33 near z = -1e15 and keeps its sign
        assert critical_points(FLAT_TAIL) == ()

    def test_double_zero_is_one_point(self):
        # g' vanishes twice over at z = -1/4; float g' reads 0.0 across a
        # window about 1e-8 wide there, so the polished point is that close
        crits = critical_points(DOUBLE_ZERO)
        assert len(crits) == exact_critical_count(DOUBLE_ZERO) == 1
        assert abs(crits[0] + 0.25) < 1e-8

    def test_zero_at_an_end_is_not_a_point(self):
        # the numerator of g' vanishes at the upper end z = 1
        assert critical_points(END_ROOT) == ()

    def test_one_sturm_chain_per_numerator(self, monkeypatch):
        chains = []
        sturm_chain = numeric._sturm_chain

        def counted(p):
            chains.append(p)
            return sturm_chain(p)

        monkeypatch.setattr(numeric, "_sturm_chain", counted)
        # square free, no root at an end: the square-free test's chain is reused
        assert len(critical_points(GProblem(GB_LIKE.alphas, GB_LIKE.gammas, GB_LIKE.offsets))) == 2
        assert len(chains) == 1
        # a division (repeated root, root at an end) builds the divided one's chain
        for gp, want in ((DOUBLE_ZERO, 1), (END_ROOT, 0)):
            chains.clear()
            assert len(critical_points(GProblem(gp.alphas, gp.gammas, gp.offsets))) == want
            assert len(chains) == 2

    def test_narrowing_ends(self):
        # 1/3 has no binary64 form: the halvings stop with it between two neighbours
        *_, (a, b) = _narrow([-1, 3], Fraction(0), Fraction(1))
        assert a < Fraction(1, 3) < b
        assert float(a) < float(b) == math.nextafter(float(a), math.inf)
        # a root at a midpoint (1/4) or at the upper end (1) ends them there
        for p, root in (([-1, 4], Fraction(1, 4)), ([-1, 1], Fraction(1))):
            assert list(_narrow(p, Fraction(0), Fraction(1)))[-1] == (root, root)

    def test_constant_g(self):
        gp = GProblem((1, -1), (1, 1), (1, 1))
        assert is_constant(gp)
        with pytest.raises(ConstantG):
            critical_points(gp)
        with pytest.raises(ConstantG):
            find_roots(gp, 0.0)

    def test_no_poles_is_constant(self):
        gp = GProblem((1,), (0,), (1,))
        assert is_constant(gp)
        with pytest.raises(ConstantG):
            oracle_count(gp, 0.0)


class TestFindRoots:
    def test_golden_ratio_root(self):
        rs = find_roots(GProblem((2, -1), (1, 1), (1, 2)), 0.0)
        assert len(rs.roots) == 1
        assert rs.roots[0] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_three_crossings(self):
        g0 = eval_g(GB_LIKE, 0.0)[0]
        K = 0.5 * (g0 + eval_g(GB_LIKE, 13.0)[0])
        rs = find_roots(GB_LIKE, K)
        assert rs.roots == pytest.approx(
            (-0.4027913984199514, 2.153258890614649, 54.75754145389084), rel=1e-9
        )
        assert rs.suspected_degenerate == ()
        assert all(r <= 1e-10 * (1 + abs(K)) for r in rs.residuals)
        for z, (lo, hi) in zip(rs.roots, rs.brackets):
            assert lo <= z <= hi
        assert list(rs.roots) == sorted(rs.roots)
        # one root per monotone piece
        assert len(rs.roots) <= len(critical_points(GB_LIKE)) + 1

    def test_monotone_level_sweep(self):
        g0 = eval_g(GB_LIKE, 0.0)[0]
        assert len(find_roots(GB_LIKE, g0 + 1.0).roots) == 1
        assert len(find_roots(GB_LIKE, g0 - 5.0).roots) == 1

    def test_tangent_level_is_flagged_not_counted(self):
        gp = GProblem((1, 1), (1, -1), (1, 1))
        rs = find_roots(gp, 0.0)
        assert rs.roots == ()
        assert rs.suspected_degenerate == pytest.approx((0.0,), abs=1e-12)

    def test_symmetric_pair(self):
        gp = GProblem((1, 1), (1, -1), (1, 1))
        rs = find_roots(gp, -math.log(2.0))
        assert rs.roots == pytest.approx(
            (-1 / math.sqrt(2), 1 / math.sqrt(2)), rel=1e-14
        )

    def test_bisection_stops_on_an_exact_zero(self):
        # the first midpoint reads exactly 0.0
        assert bracketed_root(lambda z: z - 0.5, lambda z: (z - 0.5, 1.0), 0.0, 1.0) == 0.5


class TestOracle:
    def test_counts_match_find_roots(self):
        g0 = eval_g(GB_LIKE, 0.0)[0]
        K = 0.5 * (g0 + eval_g(GB_LIKE, 13.0)[0])
        assert oracle_count(GB_LIKE, K) == 3
        assert oracle_count(GB_LIKE, g0 + 1.0) == 1
        gp = GProblem((1, 1), (1, -1), (1, 1))
        assert oracle_count(gp, -math.log(2.0)) == 2

    def test_samples_must_be_a_positive_integer(self):
        gp = GProblem((1, -2), (1, 1), (1, 2))
        assert oracle_count(gp, -2.0) == 2
        assert oracle_count(gp, -2.0, samples=1) in (0, 1, 2)
        one_sided = GProblem((1,), (1,), (1,))
        for samples in (0, -1, 2.5, 200_001.0, True, "7"):
            for problem in (gp, one_sided):
                with pytest.raises(ValueError, match="samples must be a positive integer"):
                    oracle_count(problem, -2.0, samples=samples)

    @pytest.mark.parametrize("gammas", [(1, 3, 3, 3), (-1, -3, -3, -3)])
    def test_crossing_next_to_a_finite_end(self, gammas):
        # float g - K changes sign between the floats 1 and 2 ulps inside the
        # finite end, closer than the log-spaced points reach; the second
        # problem is the first mirrored, z -> -z
        gp = GProblem((4, 4, 3, -1), gammas, (Fraction(23, 4), Fraction(26, 3), 7, Fraction(47, 7)))
        K = 38.04633806025794
        assert oracle_count(gp, K, samples=30_001) == 2
        assert oracle_count(gp, K) == 2

    def test_without_numpy_names_the_extra(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "numpy", None)
        with pytest.raises(ImportError, match=r'pip install "crn1d\[oracle\]"'):
            oracle_count(GB_LIKE, 0.0)


class TestVerifyWitness:
    def test_passes_nondegenerate_state(self, ga):
        w = Witness(kappa=(1.0, 1.0), c=(0.0,), states=((1.0, 1.0),))
        report = verify_witness(ga, w)
        assert report.passed
        check = report.states[0]
        assert check.positive
        assert check.rate_residual <= 1e-15
        assert check.conservation_residual <= 1e-15
        assert check.nondegenerate

    def test_flags_degenerate_continuum(self):
        net = parse_network("X1 -> 2 X1\nX1 + X2 -> X2")
        # x2 = kappa1/kappa2 pins the line; x1 is free along it
        w = Witness(kappa=(1.0, 1.0), c=(-1.0,), states=((3.0, 1.0),))
        report = verify_witness(net, w)
        assert report.passed
        assert not report.states[0].nondegenerate

    def test_rejects_wrong_line(self, ga):
        w = Witness(kappa=(1.0, 1.0), c=(0.0,), states=((2.0, 0.5),))
        report = verify_witness(ga, w)
        assert not report.passed
        assert report.states[0].rate_residual <= 1e-15
        assert report.states[0].conservation_residual > 1e-3

    def test_rejects_unbalanced_rates(self, ga):
        w = Witness(kappa=(1.0, 2.0), c=(0.0,), states=((1.0, 1.0),))
        assert not verify_witness(ga, w).passed

    def test_rejects_nonpositive_state(self, ga):
        w = Witness(kappa=(1.0, 1.0), c=(0.0,), states=((-1.0, 1.0),))
        report = verify_witness(ga, w)
        assert not report.passed
        assert not report.states[0].positive
        assert report.states[0].rate_residual == math.inf

    def test_dimension_errors(self, ga):
        with pytest.raises(DimensionMismatch, match="expected 2 rate constants, got 1"):
            verify_witness(ga, Witness(kappa=(1.0,), c=(0.0,), states=()))
        with pytest.raises(DimensionMismatch, match="expected 1 conservation constants, got 0"):
            verify_witness(ga, Witness(kappa=(1.0, 1.0), c=(), states=()))
        with pytest.raises(DimensionMismatch, match="state has 3 coordinates, expected 2"):
            verify_witness(
                ga, Witness(kappa=(1.0, 1.0), c=(0.0,), states=((1.0, 1.0, 1.0),))
            )

    def test_rejects_nonpositive_rate(self, ga):
        with pytest.raises(ValueError, match="rate constants must be positive"):
            verify_witness(ga, Witness(kappa=(0.0, 1.0), c=(0.0,), states=()))

    @pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_meaningless_tolerance(self, ga, tol):
        w = Witness(kappa=(1.0, 1.0), c=(0.0,), states=((1.0, 1.0),))
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            verify_witness(ga, w, tol)
