"""End-to-end acceptance gate.

Each test is one release criterion; ``pytest -v`` prints one pass/fail
line per criterion.  Tolerances and sample sizes are part of the
contract and must not be loosened.
"""

import json
import math
import time
from fractions import Fraction
from random import Random

from crn1d import (
    GProblem,
    Witness,
    ad_count,
    classify,
    critical_points,
    embed,
    essential_sets,
    eval_g,
    find_roots,
    is_constant,
    main,
    one_dim_structure,
    oracle_count,
    verify_witness,
    witness_three,
    witness_two_general,
)

from conftest import DATA, bi_profile
from support import count_line_states, exact_critical_count, random_bi_network, random_gproblem, sample_level

# Rounded reference tables for the three showcase networks: rate constants,
# conservation constants, and the steady states they are known to produce.
REFERENCE = {
    "gb": (
        Fraction(26879, 4294967296),
        Fraction(1, 2),
        (Fraction(19999, 2), Fraction(9999)),
        (
            (9999.50, 0.00020, 0.50),
            (11716.81, 1717.31, 1717.81),
            (68177.66, 58178.16, 58178.66),
        ),
    ),
    "gc": (
        Fraction(102624395269, 16384),
        Fraction(1, 2),
        (Fraction(-10001), Fraction(-1)),
        (
            (0.00080, 10001.00, 1.00),
            (1465.72, 8535.28, 1466.72),
            (8533.28, 1467.72, 8534.28),
        ),
    ),
    "gd": (
        Fraction(262251, 4194304),
        Fraction(1, 2),
        (Fraction(-10003), Fraction(-10002), Fraction(1)),
        (
            (1.17, 10001.83, 10000.83, 0.17),
            (6.83, 9996.17, 9995.17, 5.83),
            (10002.00, 1.00, 0.00080, 10001.00),
        ),
    ),
}


def states_from_reference(net, kappa1, kappa2, c):
    """Steady states on the compatibility class c at the given rates."""
    struct = one_dim_structure(net)
    prof = bi_profile(net, struct)
    # x = gamma z + d with d[b] = 0 for the base species b meets
    # c = gamma[k] x[b] - gamma[b] x[k] when d[k] = -c / gamma[b]
    b, *rest = struct.species_perm
    d = [Fraction(0)] * net.num_species
    for k, ck in zip(rest, c):
        d[k] = -Fraction(ck) / prof.gammas[b]
    gp = GProblem(prof.alphas, prof.gammas, tuple(d))
    K = math.log(float(-prof.lambda2) * float(kappa2) / float(kappa1))
    roots = find_roots(gp, K)
    states = [tuple(float(g) * z + float(dk) for g, dk in zip(prof.gammas, d)) for z in roots.roots]
    states.sort(key=lambda row: row[0])
    return states


def rate_balance_gap(net, kappa1, kappa2, x):
    """|k1*m1/(k2*m2) - 1| for the two mass-action monomials at x."""
    r1, r2 = net.reactions
    m1 = math.prod(xi**a for xi, a in zip(x, r1.reactant))
    m2 = math.prod(xi**a for xi, a in zip(x, r2.reactant))
    return abs(float(kappa1) * m1 / (float(kappa2) * m2) - 1.0)


def test_criterion_1_classification_regression(ga, gb, gc, gd):
    t0 = time.perf_counter()
    reports = {name: classify(net) for name, net in
               [("ga", ga), ("gb", gb), ("gc", gc), ("gd", gd)]}
    elapsed = time.perf_counter() - t0

    expected = {
        "ga": ("finite-at-most-two", "case-a", ()),
        "gb": ("finite-at-least-three", "case-b", ("3 > 2", "2 > 1")),
        "gc": ("finite-at-least-three", "case-c", ("2 > 1",)),
        "gd": ("finite-at-least-three", "case-d", ("2 > 1",)),
    }
    for name, (tag, rule, ineqs) in expected.items():
        cap = reports[name].capacity
        assert cap.tag == tag, name
        assert cap.rule == rule, name
        assert cap.inequalities == ineqs, name
    assert elapsed < 1.0, f"classification took {elapsed:.3f}s"


def test_criterion_2_reference_witness_tables(gb, gc, gd):
    nets = {"gb": gb, "gc": gc, "gd": gd}
    for name, (kappa1, kappa2, c, table) in REFERENCE.items():
        got = states_from_reference(nets[name], kappa1, kappa2, c)
        assert len(got) == 3, name
        for row, want in zip(got, table):
            assert all(x > 0 for x in row)
            for x, ref in zip(row, want):
                tol = 2.5e-2 if ref == 0.00020 else 1e-2
                assert abs(x - ref) <= tol * ref, (name, ref, x)
            assert rate_balance_gap(nets[name], kappa1, kappa2, row) <= 5e-3


def test_criterion_3_constructive_witnesses(gb, gc, gd):
    for name, net in [("gb", gb), ("gc", gc), ("gd", gd)]:
        t0 = time.perf_counter()
        w = witness_three(classify(net))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name}: witness took {elapsed:.3f}s"

        assert len(w.states) == 3
        assert all(x > 0 for state in w.states for x in state)
        assert verify_witness(net, w, tol=1e-9).passed, name
        zs = sorted(w.z_roots)
        assert all(b - a > 1e-6 for a, b in zip(zs, zs[1:]))

        prof = bi_profile(net, one_dim_structure(net))
        gp = GProblem(prof.alphas, prof.gammas, w.offsets)
        assert oracle_count(gp, w.level) == 3, name


def test_criterion_4_diagram_count_and_species_sets(ad_example, five_species, gh):
    struct = one_dim_structure(ad_example)
    assert ad_count(ad_example, struct).total == 3

    struct5 = one_dim_structure(five_species)
    sets = essential_sets(five_species, struct5)
    names = five_species.species
    assert {names[i - 1] for i in sets.e} == {"X1", "X2", "X3", "X5"}
    assert {names[i - 1] for i in sets.h} == {"X1", "X2", "X3", "X4"}
    assert {names[i - 1] for i in sets.eh} == {"X1", "X2", "X3"}

    emb = embed(five_species, ["X1", "X2", "X3", "X4"])
    assert emb.network == gh

    assert classify(five_species).reduction.network == ad_example


def test_criterion_5_randomized_capacity_checks():
    rng = Random(2024)
    nets = [random_bi_network(rng) for _ in range(500)]
    sweep = Random(20240)

    tags = {}
    for net in nets:
        struct = one_dim_structure(net)
        prof = bi_profile(net, struct)
        rep = classify(net)
        tag = rep.capacity.tag
        tags[tag] = tags.get(tag, 0) + 1

        if tag == "zero":
            assert prof.lambda2 > 0

        elif tag == "finite-at-least-three":
            w = witness_three(rep)
            assert verify_witness(net, w, tol=1e-9).passed
            assert rep.ad.total >= 3

        elif tag == "infinitely-many":
            d = tuple(abs(g) if g else Fraction(1) for g in prof.gammas)
            gp = GProblem(prof.alphas, prof.gammas, d)
            assert is_constant(gp)
            a = gp.lower if math.isfinite(gp.lower) else -9.0
            b = gp.upper if math.isfinite(gp.upper) else 9.0
            a, b = a + 1e-3 * (b - a), b - 1e-3 * (b - a)
            ref = eval_g(gp, 0.5 * (a + b))[0]
            worst = max(
                abs(eval_g(gp, a + i * (b - a) / 199)[0] - ref) for i in range(200)
            )
            assert worst < 1e-12

        elif tag == "finite-at-most-two":
            # By Rolle's theorem, at most one distinct critical point of g
            # in its interval leaves at most two solutions of g = K at every
            # level K, so the exact count decides the claim for all levels.
            for _ in range(25):
                d = tuple(
                    Fraction(sweep.randint(1, 96), sweep.randint(1, 12))
                    for _ in prof.gammas
                )
                gp = GProblem(prof.alphas, prof.gammas, d)
                assert not is_constant(gp)
                assert exact_critical_count(gp) <= 1, (net.reactions, d)
        else:
            raise AssertionError(f"unexpected tag {tag}")

    print(f"criterion 5 tag counts: {tags}")
    assert sum(tags.values()) == 500
    assert tags == {
        "zero": 250,
        "finite-at-most-two": 240,
        "infinitely-many": 2,
        "finite-at-least-three": 8,
    }


def test_criterion_6_root_finder_oracle_equivalence():
    rng = Random(123)
    tested = 0
    draws = 0
    while tested < 1000 and draws < 2500:
        draws += 1
        gp = random_gproblem(rng)
        K = sample_level(rng, gp)
        if K is None:
            continue
        tested += 1
        rs = find_roots(gp, K)
        count = len(rs.roots)
        assert count <= len(gp.alphas) + 1

        oracle = oracle_count(gp, K, samples=30_001)
        if oracle != count:
            oracle = oracle_count(gp, K, samples=300_001)
        assert oracle == count, (gp, K)

        crits = critical_points(gp)
        for z1, z2 in zip(rs.roots, rs.roots[1:]):
            assert any(z1 < c < z2 for c in crits)
    print(f"criterion 6: {tested} levels across {draws} draws")
    assert tested >= 1000


def test_criterion_7_known_issue_handling(capsys, w1, w2):
    # Shipped two-state table: states solve the sign-flipped cubic, not the
    # network's own balance, so they must fail verification.
    printed = ((0.30806, 0.80806), (6.8111, 7.3111))
    for x1, x2 in printed:
        scale = x1 * x2**2 + 9 * x1**2 + x2**2
        assert abs(x1 * x2**2 - 9 * x1**2 + x2**2) / scale <= 1e-3
        assert abs(x1 * x2**2 - 9 * x1**2 - x2**2) / scale > 1e-2
    bad = Witness(kappa=(1.0, 9.0, 1.0), c=(0.5,), states=printed)
    assert not verify_witness(w1, bad, tol=1e-3).passed

    w = witness_two_general(classify(w1))
    assert len(w.states) == 2
    assert verify_witness(w1, w, tol=1e-9).passed

    for name, wid in [("w1", "reference-witness-mismatch"),
                      ("w2", "reference-claim-mismatch")]:
        code = main(["classify", str(DATA / f"{name}.crn"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert wid in [n["id"] for n in doc["warnings"]]

    # Claimed impossibility is replaced by the checked law: away from the
    # tuned rates at most one positive state, on them a continuum.
    rng = Random(4242)
    for _ in range(1000):
        k1 = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        k2 = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        while k2 == k1:
            k2 = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        k3 = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        c1 = Fraction(rng.randint(-8, 40), rng.randint(1, 8))
        n = count_line_states(w2, (k1, k2, k3), (c1,))
        assert n is not None and n <= 1, (k1, k2, k3, c1)
    for _ in range(20):
        q = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        r = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        assert count_line_states(w2, (q, q, r), (r / q,)) is None

    rep = classify(w2)
    cert = rep.sufficient_two
    assert cert is not None
    assert cert.pair == (3, 2)
    assert cert.satisfied


def test_criterion_8_closed_form_spot_check():
    gp = GProblem((2, -1), (1, 1), (1, 2))
    rs = find_roots(gp, 0.0)
    assert len(rs.roots) == 1
    assert abs(rs.roots[0] - (math.sqrt(5.0) - 1.0) / 2.0) <= 1e-12
