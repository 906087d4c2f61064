"""Seeded inputs for the three workloads.

Everything the program under test receives is made here from the workload
seed (or, for the fixed fault and clustered sets, from a constant), without
calling the program: root-problem levels are chosen with the exact counter
in ``exact.py``.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import exact

HERE = os.path.dirname(os.path.abspath(__file__))

# ---------------------------------------------------------------------------
# cli workload.

FIXTURES = {
    "gb": ("3 X1 + 2 X2 + X3 -> 4 X1 + 3 X2 + 2 X3", "X1 + X2 + 3 X3 -> 2 X3"),
    "gc": ("2 X1 + X2 -> 3 X1 + X3", "X1 + 2 X2 + 2 X3 -> 3 X2 + X3"),
    "gd": ("3 X1 + X2 + X3 -> 4 X1 + X4", "X1 + 2 X2 + X4 -> 3 X2 + X3"),
    "gh": ("X1 + 3 X2 + X4 -> 4 X2 + X3", "X2 + X3 + X4 -> X1 + 2 X4"),
    "w1": ("X1 + 2 X2 -> X2", "2 X1 -> 3 X1 + X2", "2 X2 -> X1 + 3 X2"),
    "nb": ("2 X1 -> 3 X1 + X2", "2 X1 + X2 -> X1", "X1 + X2 -> 0"),
}

# Inputs on which the program fails every time (see README, "Known faults").
FAULTS = {
    # witness --goal two exits 5 although an exact count finds 3 states at
    # kappa = (14559, 3/9769, 87604), c = (43, 21/4, 10/3, 18).
    "fault_b1": (
        "X1 + X3 -> X3 + 2 X4 + 2 X5",
        "X2 + X3 + 2 X4 + 2 X5 -> X1 + X2 + X3",
        "2 X1 + 3 X4 + 3 X5 -> 3 X1 + X4 + X5",
    ),
    # witness --goal two exits 5 on a network with 2 states for suitable rates.
    "fault_b2": (
        "2 X2 + 2 X3 + X4 + X6 -> 2 X1 + 3 X2 + 3 X3 + 2 X4 + X5 + 3 X6",
        "2 X2 + X4 + X5 + X6 -> 2 X1 + 3 X2 + X3 + 2 X4 + 2 X5 + 3 X6",
        "2 X1 + 2 X2 + 3 X3 + X4 + 3 X5 + 2 X6 -> X2 + 2 X3 + 2 X5",
        "3 X1 + X2 + 3 X3 + 2 X4 + 3 X5 + 2 X6 -> X1 + 2 X3 + X4 + 2 X5",
    ),
    # witness --goal two lets a bare OverflowError escape main.
    "fault_c": ("X1 + 400 X2 -> 2 X1 + 401 X2", "3 X1 + 300 X2 -> 2 X1 + 299 X2"),
}

# A witness for fault_b1 with three states, to show the goal is attainable.
FAULT_B1_WITNESS = ((14559, Fraction(3, 9769), 87604), (43, Fraction(21, 4), Fraction(10, 3), 18))


@dataclass(frozen=True)
class Net:
    id: str
    reactions: tuple[str, ...]
    goal: str  # witness goal: "two" or "three"
    fault: bool = False

    @property
    def text(self) -> str:
        return "\n".join(self.reactions) + "\n"


def load_pool(name: str) -> list[tuple[str, ...]]:
    with open(os.path.join(HERE, "data", name), encoding="utf-8") as fh:
        return [tuple(line.strip().split(" / ")) for line in fh if line.strip() and not line.startswith("#")]


def cli_inputs(seed: int, per_round: int):
    """(fixed networks run every round, seeded list of rounds).

    Round r holds the next ``per_round`` two-reaction networks (goal three)
    and multi-reaction networks (goal two), each pool in a seeded order.
    Ids name the pool line, so they are the same under every seed.
    """
    fixed = [Net(k, v, "three" if len(v) == 2 else "two") for k, v in FIXTURES.items()]
    fixed += [Net(k, v, "two", fault=True) for k, v in FAULTS.items()]
    rng = random.Random(f"cli-{seed}")
    pools = []
    for kind, name, goal in (("two", "two_reaction.txt", "three"), ("multi", "multi_reaction.txt", "two")):
        nets = [Net(f"{kind}{i}", rx, goal) for i, rx in enumerate(load_pool(name))]
        rng.shuffle(nets)
        pools.append(nets)
    size = min(len(p) for p in pools) // per_round
    rounds = [
        [net for pool in pools for net in pool[r * per_round:(r + 1) * per_round]] for r in range(size)
    ]
    return fixed, rounds


# ---------------------------------------------------------------------------
# roots workload.

DELTA = Fraction(1, 10**6)


@dataclass(frozen=True)
class Problem:
    id: str
    alphas: tuple[int, ...]
    gammas: tuple[int, ...]
    offsets: tuple[Fraction, ...]
    K: float
    count: int  # exact number of solutions, stable for levels L(1 +- DELTA)


def _float_g(alphas, gammas, offsets, z: float) -> float:
    return math.fsum(a * math.log(g * z + float(d)) for a, g, d in zip(alphas, gammas, offsets) if a)


def _pole_exponents(alphas, gammas, offsets) -> dict[Fraction, list[int]]:
    """Each pole with the exponents of the species that share it."""
    exps: dict[Fraction, list[int]] = {}
    for a, g, d in zip(alphas, gammas, offsets):
        if g:
            exps.setdefault(-Fraction(d) / g, []).append(a)
    return exps


def _has_pole_weight(alphas, gammas, offsets) -> bool:
    """g is non-constant iff some pole keeps a nonzero total exponent."""
    return any(sum(v) for v in _pole_exponents(alphas, gammas, offsets).values())


def _cancelling_end(alphas, gammas, offsets) -> bool:
    """An interval end where several species share a pole whose exponents
    cancel, so g has a finite limit there made of diverging logarithms."""
    exps = _pole_exponents(alphas, gammas, offsets)
    return any(
        end is not None and len(exps[end]) > 1 and sum(exps[end]) == 0
        for end in exact.g_interval(gammas, offsets)
    )


def _level(x: float) -> Fraction:
    """A short exact rational near x > 0 (12 significant digits)."""
    return Fraction(f"{x:.11e}")


def stable_count(alphas, gammas, offsets, level: Fraction) -> int | None:
    """Exact count at ``level`` when it is the same at level*(1 +- DELTA)."""
    counts = {exact.level_count(alphas, gammas, offsets, level * f) for f in (1 - DELTA, 1, 1 + DELTA)}
    if len(counts) != 1:
        return None
    (count,) = counts
    return count


def _pick_level(alphas, gammas, offsets, z_draw, tries: int = 12):
    for _ in range(tries):
        z0 = z_draw()
        try:
            k0 = _float_g(alphas, gammas, offsets, z0)
        except ValueError:
            continue
        if not -600.0 < k0 < 600.0:
            continue
        level = _level(math.exp(k0))
        count = stable_count(alphas, gammas, offsets, level)
        if count is not None:
            K = math.log(level.numerator) - math.log(level.denominator)
            return K, count
    return None


def general_problem(rng: random.Random, ident: str) -> Problem:
    """1-6 species, positive offsets (so 0 is interior), one level."""
    while True:
        s = rng.randint(1, 6)
        alphas = tuple(rng.randint(-4, 4) for _ in range(s))
        gammas = tuple(rng.randint(-3, 3) for _ in range(s))
        offsets = tuple(Fraction(rng.randint(1, 64), rng.randint(1, 8)) for _ in range(s))
        # Cancelling ends are left to the fixed pole faults: oracle_count
        # miscounts next to some of them, and which draws hit one depends
        # on the seed.
        if not _has_pole_weight(alphas, gammas, offsets) or _cancelling_end(alphas, gammas, offsets):
            continue
        lo, hi = exact.g_interval(gammas, offsets)
        flo = float(lo) if lo is not None else None
        fhi = float(hi) if hi is not None else None

        def z_draw():
            u = rng.uniform(0.03, 0.97)
            if flo is not None and fhi is not None:
                return flo + u * (fhi - flo)
            if flo is not None:
                return flo + 8.0 * (1.0 + abs(flo)) * u
            return fhi - 8.0 * (1.0 + abs(fhi)) * u

        picked = _pick_level(alphas, gammas, offsets, z_draw)
        if picked is not None:
            return Problem(ident, alphas, gammas, offsets, *picked)


def clustered_problem(rng: random.Random, ident: str) -> Problem:
    """Poles clustered within about 1e-4 at each end of a finite interval."""
    while True:
        s = rng.randint(3, 6)
        alphas = tuple(rng.randint(-3, 3) for _ in range(s))
        gammas = tuple(rng.choice((-2, -1, -1, 1, 2)) for _ in range(s))
        if not any(g > 0 for g in gammas) or not any(g < 0 for g in gammas):
            continue
        center = rng.randint(2, 20)
        poles = [
            (center if g < 0 else -center) + Fraction(rng.randint(-10**4, 10**4), 10 ** rng.randint(8, 10))
            for g in gammas
        ]
        offsets = tuple(-g * p for g, p in zip(gammas, poles))
        if not _has_pole_weight(alphas, gammas, offsets):
            continue
        lo, hi = exact.g_interval(gammas, offsets)
        flo, fhi = float(lo), float(hi)

        def z_draw():
            if rng.random() < 0.5:
                return flo + (fhi - flo) * rng.uniform(0.03, 0.97)
            gap = (fhi - flo) * 10.0 ** -rng.uniform(2.0, 6.0)
            return fhi - gap if rng.random() < 0.5 else flo + gap

        picked = _pick_level(alphas, gammas, offsets, z_draw)
        if picked is not None:
            return Problem(ident, alphas, gammas, offsets, *picked)


# find_roots misses a pair of critical points inside one scan cell here and
# returns 2 roots; the exact count is 4.
FAULT_A = Problem(
    "fault_a",
    (3, -3, 1, 2, 1, -2),
    (-1, -2, -1, -1, 1, -1),
    (
        Fraction(90003, 10000),
        Fraction(90000001, 5000000),
        Fraction(89999, 10000),
        Fraction(4500000001, 500000000),
        Fraction(4501, 500),
        Fraction(4499999, 500000),
    ),
    -5.614283631956511,
    4,
)

# Levels far out on g, found in a sweep of the general family with levels
# shifted by 4-24 from g at an interior point: find_roots fails to bracket a
# root that hugs a pole (pole0, pole1), and oracle_count at 30,001 samples
# counts 2 where the exact count is 1 next to an end where two poles cancel
# (pole2; pole3 comes from the family without the shift).
POLE_FAULTS = (
    ((-1, 4, -1), (3, 1, -2), (Fraction(27, 2), Fraction(23, 5), Fraction(50, 7)), 21.77371426563517),
    ((1, -1, 4, 2, 1), (-2, -1, -3, -2, 0), (Fraction(40), Fraction(17, 8), Fraction(41, 6), Fraction(12), Fraction(5)),
     43.58701342713971),
    ((-1, 3, -3, -2), (0, 1, 3, -1), (Fraction(20), Fraction(20, 3), Fraction(20), Fraction(9)), -11.731260717820302),
    ((4, 3, -4, 0, -2), (-1, 0, -3, 0, 2), (Fraction(4), Fraction(41, 8), Fraction(12), Fraction(64, 5), Fraction(25, 7)),
     -3.9317673958909225),
)

CLUSTERED_SEED = "clustered-2108.09695"


def roots_fixed(clustered: int) -> list[Problem]:
    """The clustered family (fixed seed, failures kept), the pole faults and
    fault (a): inputs that do not depend on the seed."""
    rng = random.Random(CLUSTERED_SEED)
    fixed = [clustered_problem(rng, f"clustered{i}") for i in range(clustered)]
    for i, (alphas, gammas, offsets, K) in enumerate(POLE_FAULTS):
        count = stable_count(alphas, gammas, offsets, _level(math.exp(K)))
        fixed.append(Problem(f"pole{i}", alphas, gammas, offsets, K, count))
    return fixed + [FAULT_A]
