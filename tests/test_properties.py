"""Invariants that must hold across randomly generated inputs."""

import math
import pickle
from fractions import Fraction
from functools import cached_property
from random import Random

import pytest
from hypothesis import assume, given, strategies as st

from crn1d import (
    ConstantG,
    CrnError,
    GProblem,
    OutOfDomain,
    ad_count,
    canonical_key,
    capacity_class_bi,
    choose_d_three,
    classify,
    conservation_constants,
    critical_points,
    embed,
    eval_g,
    eval_g_slope,
    eval_g_value,
    find_roots,
    format_network,
    one_dim_structure,
    oracle_count,
    parse_network,
    sign_profile,
    witness_three,
)
from crn1d import numeric
from crn1d.numeric import _derivative_numerator, _isolate, _narrow, _sturm_chain

from conftest import bi_profile
from support import (
    CLUSTERED,
    DEGREE_GAP,
    DOUBLE_ZERO,
    END_ROOT,
    FLAT_TAIL,
    _g_value,
    _poly_mul,
    _roots_in_window,
    _sign_at,
    brute_force_key,
    clustered_gproblem,
    count_line_states,
    exact_critical_count,
    random_bi_network,
    random_gproblem,
    sample_level,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# (alphas, gammas) of one to six species, entries in -4..4
sign_data = st.integers(min_value=1, max_value=6).flatmap(
    lambda s: st.tuples(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=s, max_size=s),
        st.lists(st.integers(min_value=-4, max_value=4), min_size=s, max_size=s),
    )
)


def seeded_net(seed: int):
    return random_bi_network(Random(seed), max_species=4, max_coeff=4)


class TestStructure:
    @given(seeds)
    def test_changes_are_proportional(self, seed):
        net = seeded_net(seed)
        struct = one_dim_structure(net)
        gam = struct.gamma
        lam = struct.lambdas
        assert lam[0] == 1
        for j, rx in enumerate(net.reactions):
            for k in range(net.num_species):
                assert Fraction(rx.change[k]) == lam[j] * gam[k]

    @given(seeds)
    def test_permutation_grouping(self, seed):
        net = seeded_net(seed)
        struct = one_dim_structure(net)
        lam = struct.lambdas
        for pos, j in enumerate(struct.reaction_perm):
            assert (lam[j] > 0) == (pos < struct.t)
        assert struct.gamma[struct.species_perm[0]] != 0
        assert sorted(struct.reaction_perm) == list(range(net.num_reactions))
        assert sorted(struct.species_perm) == list(range(net.num_species))

    @given(seeds)
    def test_conservation_constant_along_the_line(self, seed):
        rng = Random(seed)
        net = random_bi_network(rng, max_species=4, max_coeff=4)
        struct = one_dim_structure(net)
        gam = struct.gamma
        x0 = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in gam)
        base = conservation_constants(struct, x0)
        for step in (1, -3, Fraction(5, 2)):
            shifted = tuple(x + step * g for x, g in zip(x0, gam))
            assert conservation_constants(struct, shifted) == base

    @given(seeds)
    def test_conservation_defining_relation(self, seed):
        rng = Random(seed)
        net = random_bi_network(rng, max_species=4, max_coeff=4)
        struct = one_dim_structure(net)
        x0 = tuple(Fraction(rng.randint(1, 9)) for _ in range(net.num_species))
        c = conservation_constants(struct, x0)
        perm, g = struct.species_perm, struct.gamma
        for i in range(1, net.num_species):
            assert c[i - 1] == g[perm[i]] * x0[perm[0]] - g[perm[0]] * x0[perm[i]]


class TestDiagrams:
    @given(seeds)
    def test_ad_bookkeeping(self, seed):
        net = seeded_net(seed)
        struct = one_dim_structure(net)
        ad = ad_count(net, struct)
        assert ad.total == len(ad.triples) == sum(ad.per_species)
        assert all(sign in (-1, 1) for *_kij, sign in ad.triples)
        neg = {(k, i, j) for k, i, j, s in ad.triples if s < 0}
        pos = {(k, i, j) for k, i, j, s in ad.triples if s > 0}
        assert set(ad.right_left) == neg
        assert set(ad.left_right) == pos


class TestCapacity:
    @given(seeds)
    def test_sign_and_flatness_gates(self, seed):
        net = seeded_net(seed)
        struct = one_dim_structure(net)
        prof = bi_profile(net, struct)
        cap = capacity_class_bi(prof)
        assert cap.tag != "unknown"
        assert (cap.tag == "zero") == (prof.lambda2 > 0)
        if prof.lambda2 < 0:
            s1, s2, s3, s4 = prof.sums
            assert (cap.tag == "infinitely-many") == (s1 == s4 and s2 == s3)

    @given(seeds)
    def test_at_least_three_implies_three_diagrams(self, seed):
        net = seeded_net(seed)
        rep = classify(net)
        if rep.capacity.tag == "finite-at-least-three":
            assert rep.ad.total >= 3
            assert rep.necessary_pair.passes

    @given(seeds)
    def test_report_coherence(self, seed):
        rep = classify(seeded_net(seed))
        assert rep.profile is not None
        assert (rep.two_reaction is not None) == (rep.profile.lambda2 < 0)
        assert (rep.reduced is None) == (rep.reduction is None)
        eh = rep.essential.eh
        if rep.reduction is not None:
            assert 0 < len(eh) < rep.network.num_species
            assert rep.reduction.dropped_reactions == ()
            # reducing again changes nothing
            assert rep.reduced.reduction is None

    @given(seeds)
    def test_reduction_preserves_capacity(self, seed):
        rep = classify(seeded_net(seed))
        if rep.reduced is not None:
            assert rep.reduced.capacity.tag == rep.capacity.tag

    @given(sign_data)
    def test_fired_class_pair(self, data):
        # at least three states: the pair (k, l) is populated and the S_l
        # total beats the S_k minimum; no pair on any other outcome
        prof = sign_profile(*data, -1)
        cap = capacity_class_bi(prof)
        if cap.tag == "finite-at-least-three":
            k, l = cap.classes
            assert prof.sets[k - 1] and prof.sets[l - 1]
            assert prof.sums[l - 1] > prof.mins[k - 1]
        else:
            assert cap.classes is None

    @given(sign_data, st.lists(st.integers(min_value=1, max_value=4), min_size=8, max_size=8))
    def test_four_classes_fire_case_d(self, data, sizes):
        # one species in each of S1..S4 ahead of the drawn ones: unless the
        # poles co-locate, some total beats the opposite minimum
        a, g = sizes[:4], sizes[4:]
        alphas = (a[0], -a[1], a[2], -a[3], *data[0])
        gammas = (g[0], -g[1], -g[2], g[3], *data[1])
        prof = sign_profile(alphas, gammas, -1)
        cap = capacity_class_bi(prof)
        s1, s2, s3, s4 = prof.sums
        if s1 == s4 and s2 == s3:
            assert cap.rule == "co-located-poles"
        else:
            assert (cap.tag, cap.rule) == ("finite-at-least-three", "case-d")


class TestSignProfile:
    # restated from the definition: S1 (+,+), S2 (-,-), S3 (+,-), S4 (-,+)
    # by the signs of (alpha, gamma); S5 when either is zero
    @staticmethod
    def restated_class(alpha, gamma):
        signs = ((alpha > 0) - (alpha < 0), (gamma > 0) - (gamma < 0))
        return {(1, 1): "S1", (-1, -1): "S2", (1, -1): "S3", (-1, 1): "S4"}.get(signs, "S5")

    @given(sign_data, st.fractions(min_value=-4, max_value=4, max_denominator=6))
    def test_matches_restatement(self, data, lambda2):
        alphas, gammas = data
        prof = sign_profile(alphas, gammas, lambda2)
        classes = tuple(self.restated_class(a, g) for a, g in zip(alphas, gammas))
        assert prof.alphas == tuple(alphas)
        assert prof.gammas == tuple(gammas)
        assert prof.lambda2 == lambda2
        assert prof.classes == classes
        for i in range(1, 6):
            members = {k + 1 for k, c in enumerate(classes) if c == f"S{i}"}
            assert prof.sets[i - 1] == members
            if i < 5:
                sizes = [abs(alphas[k - 1]) for k in members]
                assert prof.sums[i - 1] == sum(sizes)
                assert prof.mins[i - 1] == (min(sizes) if sizes else None)


def reaction_lists(species: int):
    vec = st.tuples(*[st.integers(min_value=0, max_value=2)] * species)
    return st.lists(st.tuples(vec, vec), min_size=1, max_size=4)


class TestCanonicalKey:
    # coefficients 0-2 make equal columns and equal rows common, so ties
    # between relabelings are exercised
    @given(st.integers(min_value=1, max_value=5).flatmap(reaction_lists))
    def test_matches_brute_force(self, pairs):
        assert canonical_key(pairs) == brute_force_key(pairs)


class TestNetworkRoundTrips:
    @staticmethod
    def coefficient_maps(net):
        out = []
        for rx in net.reactions:
            out.append(
                (
                    {s: a for s, a in zip(net.species, rx.reactant) if a},
                    {s: p for s, p in zip(net.species, rx.product) if p},
                )
            )
        return out

    @given(seeds)
    def test_format_parse_round_trip(self, seed):
        net = seeded_net(seed)
        # species may be re-ordered by first appearance, but nothing else moves
        again = parse_network(format_network(net))
        assert sorted(again.species) == sorted(net.species)
        assert self.coefficient_maps(again) == self.coefficient_maps(net)
        # one normalization pass reaches the fixed point
        assert parse_network(format_network(again)) == again

    @given(seeds)
    def test_full_embedding_is_identity(self, seed):
        net = seeded_net(seed)
        emb = embed(net, net.species)
        assert emb.network == net
        assert emb.dropped_reactions == ()


class TestRootFinding:
    @given(seeds)
    def test_roots_match_oracle(self, seed):
        rng = Random(seed)
        gp = random_gproblem(rng, max_species=5)
        K = sample_level(rng, gp)
        if K is None:
            return
        rs = find_roots(gp, K)
        count = len(rs.roots)
        oracle = oracle_count(gp, K, samples=30_001)
        if oracle != count:
            oracle = oracle_count(gp, K, samples=300_001)
        assert oracle == count
        assert count <= len(gp.alphas) + 1

    @given(seeds)
    def test_root_layout(self, seed):
        rng = Random(seed)
        gp = random_gproblem(rng, max_species=5)
        K = sample_level(rng, gp)
        if K is None:
            return
        rs = find_roots(gp, K)
        assert list(rs.roots) == sorted(rs.roots)
        for z in rs.roots:
            assert gp.lower < z < gp.upper
        crits = critical_points(gp)
        for z1, z2 in zip(rs.roots, rs.roots[1:]):
            assert any(z1 < c < z2 for c in crits)


class TestEvaluators:
    @given(seeds, st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=8))
    def test_one_component_evaluators_match_eval_g(self, seed, spots):
        gp = random_gproblem(Random(seed))
        lo = gp.lower if math.isfinite(gp.lower) else -1e3
        hi = gp.upper if math.isfinite(gp.upper) else 1e3
        for z in [0.0, *(lo + t * (hi - lo) for t in spots)]:
            g, g1, _g2 = eval_g(gp, z)
            assert eval_g_value(gp, z).hex() == g.hex()
            assert eval_g_slope(gp, z).hex() == g1.hex()

    @given(seeds, st.booleans(), st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_value_matches_support_inside_the_interval(self, seed, clustered, spots):
        # bit for bit where every argument is positive, OutOfDomain exactly
        # where one is not (a few ulps from a pole, weighted species or not)
        rng = Random(seed)
        gp = clustered_gproblem(rng)[0] if clustered else random_gproblem(rng)
        lo = gp.lower if math.isfinite(gp.lower) else -1e3
        hi = gp.upper if math.isfinite(gp.upper) else 1e3
        points = [lo + t * (hi - lo) for t in spots]
        for end, inward in ((gp.lower, math.inf), (gp.upper, -math.inf)):
            for _ in range(4 if math.isfinite(end) else 0):
                end = math.nextafter(end, inward)
                points.append(end)
        for z in points:
            if not gp.lower < z < gp.upper:
                continue
            want = _g_value(gp, z)
            if want is None:
                with pytest.raises(OutOfDomain):
                    eval_g_value(gp, z)
            else:
                assert eval_g_value(gp, z).hex() == want.hex()


class TestGProblemCache:
    @given(seeds)
    def test_cache_is_invisible(self, seed):
        warm = random_gproblem(Random(seed))
        critical_points(warm)
        eval_g(warm, 0.0)
        fresh = GProblem(warm.alphas, warm.gammas, warm.offsets)
        thawed = pickle.loads(pickle.dumps(warm))
        for other in (fresh, thawed):
            assert other == warm
            assert hash(other) == hash(warm)
            assert repr(other) == repr(warm)

        poles = [-Fraction(d) / g if g else None for g, d in zip(warm.gammas, warm.offsets)]
        lows = [p for g, p in zip(warm.gammas, poles) if g > 0]
        highs = [p for g, p in zip(warm.gammas, poles) if g < 0]
        residues = {}
        for a, p in zip(warm.alphas, poles):
            if p is not None:
                residues[p] = residues.get(p, 0) + a
        expected = {
            "poles": tuple(poles),
            "lower_exact": max(lows, default=None),
            "upper_exact": min(highs, default=None),
            "lower": float(max(lows)) if lows else -math.inf,
            "upper": float(min(highs)) if highs else math.inf,
            "terms": tuple((a, g, float(d)) for a, g, d in zip(warm.alphas, warm.gammas, warm.offsets)),
            "pole_groups": tuple(sorted(residues.items())),
            "critical_points": critical_points(GProblem(warm.alphas, warm.gammas, warm.offsets)),
        }
        cached = {name for name, v in vars(GProblem).items() if isinstance(v, cached_property)}
        assert cached == set(expected)
        for gp in (warm, fresh, thawed):
            for name, value in expected.items():
                assert getattr(gp, name) == value, name

    def test_constant_g_raises_on_every_call(self):
        gp = GProblem((1, -1), (1, 1), (1, 1))  # one pole, residue 0
        for _ in range(2):
            with pytest.raises(ConstantG):
                critical_points(gp)
            with pytest.raises(ConstantG):
                find_roots(gp, 0.0)
        assert "critical_points" not in vars(gp)

    def test_one_isolation_per_line_in_witness_three(self, gb, monkeypatch):
        report = classify(gb)
        lines = []
        derivative_numerator = numeric._derivative_numerator

        def counted(gp):
            lines.append(gp)
            return derivative_numerator(gp)

        monkeypatch.setattr(numeric, "_derivative_numerator", counted)
        witness_three(report)
        assert lines
        assert len(lines) == len(set(lines))

    @given(seeds)
    def test_warm_and_cold_solves_agree(self, seed):
        rng = Random(seed)
        warm = random_gproblem(rng)
        K = eval_g_value(warm, 0.0) + rng.uniform(-2.0, 2.0)

        def solve(gp):
            try:
                return repr(find_roots(gp, K))
            except CrnError as exc:
                return f"{type(exc).__name__}: {exc}"

        cold = solve(GProblem(warm.alphas, warm.gammas, warm.offsets))
        critical_points(warm)
        assert solve(warm) == cold


def _euclid_divmod(num, den):
    """Quotient and remainder of rational polynomials (ascending powers)."""
    rem = [Fraction(c) for c in num]
    quo = [Fraction(0)] * max(1, len(num) - len(den) + 1)
    for off in range(len(num) - len(den), -1, -1):
        f = quo[off] = rem[off + len(den) - 1] / den[-1]
        for i, c in enumerate(den):
            rem[off + i] -= f * c
    rem = rem[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quo, rem


def _euclid_chain(p):
    """Sturm chain of ``p`` over the rationals: p, p', then the negated
    Euclidean remainders."""
    chain = [p, [i * c for i, c in enumerate(p)][1:]]
    while len(chain[-1]) > 1 and (rem := _euclid_divmod(chain[-2], chain[-1])[1]):
        chain.append([-c for c in rem])
    return chain


def _euclid_numerator(gp):
    """The numerator of g' over the rationals, sum_i r_i prod_{j != i}
    (z - p_j) over the pole groups with nonzero residue, divided by its gcd
    with its derivative and by (z - end) where it vanishes at a finite end."""
    groups = [(pole, r) for pole, r in gp.pole_groups if r]
    num = [Fraction(0)] * len(groups)
    for i, (_pole, r) in enumerate(groups):
        term = [Fraction(r)]
        for pole, _r in groups[:i] + groups[i + 1:]:
            term = [a - pole * b for a, b in zip([Fraction(0), *term], [*term, Fraction(0)])]
        num = [a + b for a, b in zip(num, term)]
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    if len(num) > 2 and len(common := _euclid_chain(num)[-1]) > 1:
        num = _euclid_divmod(num, common)[0]
    for end in (gp.lower_exact, gp.upper_exact):
        if end is not None and len(num) > 1 and sum(c * end**i for i, c in enumerate(num)) == 0:
            num = _euclid_divmod(num, [-end, 1])[0]
    return num


def _positive_multiple(ints, ref) -> bool:
    """``ints`` is c * ``ref`` for some rational c > 0."""
    if len(ints) != len(ref):
        return False
    c = Fraction(ints[-1]) / ref[-1]
    return c > 0 and all(a == c * b for a, b in zip(ints, ref))


def assert_chain_matches_euclid(gp):
    chain = _derivative_numerator(gp)
    p, ref = chain[0], _euclid_numerator(gp)
    assert _positive_multiple(p, ref), (p, ref)
    if len(p) > 1:
        assert chain == _sturm_chain(p)  # the chain handed to _isolate is the numerator's own
        ref_chain = _euclid_chain(ref)
        assert len(chain) == len(ref_chain)
        for q, ref_q in zip(chain, ref_chain):
            assert _positive_multiple(q, ref_q), (q, ref_q)


@st.composite
def square_free_polys(draw):
    """Distinct rational roots and pairs of irrational ones (z^2 - c, c not
    a square), maybe with z^2 + 1 and a scale: square-free, degree >= 1."""
    p = [draw(st.sampled_from([-3, -1, 1, 2]))]
    for r in draw(st.sets(st.fractions(min_value=-20, max_value=20, max_denominator=8), max_size=5)):
        p = _poly_mul(p, [-r.numerator, r.denominator])
    for c in draw(st.sets(st.integers(min_value=2, max_value=30).filter(lambda c: math.isqrt(c) ** 2 != c),
                          max_size=2)):
        p = _poly_mul(p, [-c, 0, 1])
    if draw(st.booleans()):
        p = _poly_mul(p, [1, 0, 1])
    assume(len(p) > 1)
    return p


def assert_isolates(p, lo, hi) -> int:
    """``_isolate``'s intervals are sorted, disjoint and inside the window,
    each holds one root by the independent counter in ``support`` and each
    narrows to adjacent floats or an exact root; returns their number."""
    intervals = list(_isolate(_sturm_chain(p), lo, hi))
    for (a, b), (c, _d) in zip(intervals, intervals[1:]):
        assert b <= c
    for a, b in intervals:
        assert a < b and (lo is None or lo <= a) and (hi is None or b <= hi)
        assert _roots_in_window(p, a, b) + (_sign_at(p, b) == 0) == 1, (p, a, b)
        halvings = list(_narrow(p, a, b))
        for (a0, b0), (a1, b1) in zip(halvings, halvings[1:]):
            assert a0 <= a1 <= b1 <= b0 and (a1 == b1 or b1 - a1 == (b0 - a0) / 2)
        a, b = halvings[-1]
        assert _sign_at(p, b) == 0 if a == b else float(b) <= math.nextafter(float(a), math.inf)
        assert a == b or _roots_in_window(p, a, b) + (_sign_at(p, b) == 0) == 1
    return len(intervals)


class TestCriticalPoints:
    @given(seeds)
    def test_count_is_exact(self, seed):
        gp = random_gproblem(Random(seed))
        assert len(critical_points(gp)) == exact_critical_count(gp)

    @pytest.mark.parametrize(
        "gp",
        [CLUSTERED, FLAT_TAIL, DOUBLE_ZERO, END_ROOT, DEGREE_GAP],
        ids=["clustered", "flat_tail", "double_zero", "end_root", "degree_gap"],
    )
    def test_reproducers(self, gp):
        assert len(critical_points(gp)) == exact_critical_count(gp)
        assert_chain_matches_euclid(gp)

    @given(seeds)
    def test_chain_is_a_positive_multiple_of_euclid(self, seed):
        # every member keeps the sign of the Euclidean chain over the
        # rationals, so sign variations and the isolation steps are the same
        rng = Random(seed)
        assert_chain_matches_euclid(random_gproblem(rng))
        assert_chain_matches_euclid(clustered_gproblem(rng)[0])

    @given(seeds)
    def test_isolation_of_the_numerator(self, seed):
        gp = random_gproblem(Random(seed))
        p = _derivative_numerator(gp)[0]
        count = assert_isolates(p, gp.lower_exact, gp.upper_exact) if len(p) > 1 else 0
        assert count == exact_critical_count(gp)

    @given(
        square_free_polys(),
        st.one_of(st.none(), st.fractions(min_value=-25, max_value=25, max_denominator=6)),
        st.one_of(st.none(), st.fractions(min_value=-25, max_value=25, max_denominator=6)),
    )
    def test_isolation_of_square_free_polynomials(self, p, lo, hi):
        assume((lo, hi) != (None, None) and (lo is None or hi is None or lo < hi))
        ends = hi is not None and _sign_at(p, hi) == 0
        assert assert_isolates(p, lo, hi) == _roots_in_window(p, lo, hi) + ends


class TestRecipes:
    def test_origin_balanced_exactly(self):
        rng = Random(20260816)
        found = 0
        tried = 0
        while found < 12 and tried < 20_000:
            tried += 1
            net = random_bi_network(rng, max_species=5, max_coeff=5)
            struct = one_dim_structure(net)
            prof = bi_profile(net, struct)
            cap = capacity_class_bi(prof)
            if cap.tag != "finite-at-least-three":
                continue
            found += 1
            d = choose_d_three(prof, cap)
            slope = sum(
                Fraction(a) * g / dk
                for a, g, dk in zip(prof.alphas, prof.gammas, d)
            )
            assert slope == 0
            curvature = sum(
                -Fraction(a) * g * g / (dk * dk)
                for a, g, dk in zip(prof.alphas, prof.gammas, d)
            )
            assert curvature != 0
            gp = GProblem(prof.alphas, prof.gammas, d)
            assert gp.lower < 0 < gp.upper
        assert found == 12


rates = st.fractions(
    min_value=Fraction(1, 8), max_value=Fraction(8), max_denominator=64
)


class TestContinuumLaw:
    @given(rates, rates, rates)
    def test_w2_tuned_level_set(self, w2, k1, k2, k3):
        n = count_line_states(w2, (k1, k2, k3), (k3 / k2,))
        if k1 == k2:
            assert n is None
        else:
            assert n is not None and n <= 1

    @given(
        rates,
        st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=64),
    )
    def test_w2_generic_lines(self, w2, k1, c1):
        n = count_line_states(w2, (k1, 1, 1), (c1,))
        if k1 == 1 and c1 == 1:
            assert n is None
        else:
            assert n is not None and n <= 1
