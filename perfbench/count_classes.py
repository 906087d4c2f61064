"""Count two-reaction networks up to isomorphism, apart from ``crn1d``.

    python3 perfbench/count_classes.py

A network here is an unordered pair of distinct reactions with every
coefficient in 0..B, nonzero parallel change vectors, and every species in
some complex; two networks are the same class when a species relabeling
and a reaction swap turn one into the other.  This is the set that
``crn1d enumerate --species S --max-coeff B`` promises to list once per
class.  The counter walks every reaction pair and keeps the brute-force
key from ``exact.iso_key``; it shares nothing with the program's
generator.  It prints the counts and stores them in
``data/expected_counts.json``, which the ``enumerate`` workload compares
its line counts against.
"""

from __future__ import annotations

import json
import math
import os
import sys
from itertools import combinations, product

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from exact import iso_key  # noqa: E402

SIZES = ((2, 1), (2, 2), (3, 2), (3, 3))
EXPECTED_PATH = os.path.join(HERE, "data", "expected_counts.json")


def _direction(d):
    g = 0
    for v in d:
        g = math.gcd(g, abs(v))
    prim = tuple(v // g for v in d)
    first = next(v for v in prim if v)
    return prim if first > 0 else tuple(-v for v in prim)


def count_classes(species: int, bound: int) -> int:
    box = list(product(range(bound + 1), repeat=species))
    groups: dict[tuple, list] = {}
    for r in box:
        for p in box:
            if r != p:
                d = tuple(b - a for a, b in zip(r, p))
                groups.setdefault(_direction(d), []).append((r, p))
    keys = set()
    for members in groups.values():
        for (r1, p1), (r2, p2) in combinations(members, 2):
            if all(r1[k] or p1[k] or r2[k] or p2[k] for k in range(species)):
                keys.add(iso_key([(r1, p1), (r2, p2)]))
    return len(keys)


def load_expected() -> dict[str, int]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    counts = {}
    for s, b in SIZES:
        counts[f"{s},{b}"] = count_classes(s, b)
        print(f"species {s}, max-coeff {b}: {counts[f'{s},{b}']} classes", flush=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
