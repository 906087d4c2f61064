"""Regenerate the fixed network pools the ``cli`` workload draws from.

    python3 perfbench/make_pools.py

Writes ``perfbench/data/two_reaction.txt`` (two-reaction networks that
``classify`` puts in ``finite-at-least-three``) and
``perfbench/data/multi_reaction.txt`` (3-4 reactions, 3-6 species, with a
satisfied sufficient-pair certificate), one network per line with its
reactions joined by " / ".  Candidates come from a fixed seed, so the pools
do not depend on the benchmark's ``--seed``; the seed only picks members.

A candidate joins its pool only if ``witness`` succeeds on it with the
program at hand when the pools are made; the ones it rejects are counted in
the file header.  Pools are frozen data: later versions of the program are
measured and checked on the same networks.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from crn1d import classify, parse_network  # noqa: E402
from crn1d.cli import main as crn1d_main  # noqa: E402

sys.path.insert(0, HERE)
from exact import format_reactions  # noqa: E402

SEED = 20210823
POOL_SIZE = 320


def random_network(rng: random.Random, reactions, species_lo: int, species_hi: int, max_coeff: int = 3):
    """Reactions with collinear change vectors, both directions present,
    every species in some complex; None when the draw is unusable."""
    s = rng.randint(species_lo, species_hi)
    m = rng.choice(reactions)
    e = [rng.randint(-2, 2) for _ in range(s)]
    if not any(e):
        return None
    cmax = max_coeff // max(abs(v) for v in e)
    mults = [v for v in range(-cmax, cmax + 1) if v]
    lams = [rng.choice(mults) for _ in range(m)]
    if all(v > 0 for v in lams) or all(v < 0 for v in lams):
        return None
    rxs = []
    for lam in lams:
        d = [lam * v for v in e]
        reactant = []
        for dk in d:
            lo, hi = max(0, -dk), max_coeff - max(0, dk)
            reactant.append(rng.randint(lo, hi))
        rxs.append((tuple(reactant), tuple(a + b for a, b in zip(reactant, d))))
    if len(set(rxs)) < m:
        return None
    if not all(any(r[k] or p[k] for r, p in rxs) for k in range(s)):
        return None
    return rxs


def _runs_clean(text: str, goal: str, work: str) -> bool:
    path = os.path.join(work, "net.crn")
    with open(path, "w") as fh:
        fh.write(text)
    report = os.path.join(work, "w.json")
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            if crn1d_main(["witness", path, "--goal", goal, "--out", report]) != 0:
                return False
            return crn1d_main(["verify", path, "--witness", report, "--out", os.path.join(work, "v.json")]) == 0
        except Exception:  # a bare exception is one more way to be rejected
            return False


def build(kind: str, size: int, work: str):
    rng = random.Random(f"{SEED}-{kind}")
    pool: list[str] = []
    seen = set()
    draws = rejected = 0
    while len(pool) < size:
        draws += 1
        if kind == "two":
            rxs = random_network(rng, (2,), 2, 5)
        else:
            rxs = random_network(rng, (3, 4), 3, 6)
        if rxs is None:
            continue
        lines = format_reactions(rxs)
        if " / ".join(lines) in seen:
            continue
        report = classify(parse_network("\n".join(lines)))
        if kind == "two":
            if report.capacity.tag != "finite-at-least-three":
                continue
            goal = "three"
        else:
            cert = report.sufficient_two
            if cert is None or not cert.satisfied:
                continue
            goal = "two"
        if not _runs_clean("\n".join(lines) + "\n", goal, work):
            rejected += 1
            continue
        seen.add(" / ".join(lines))
        pool.append(" / ".join(lines))
    return pool, draws, rejected


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for kind, name in (("two", "two_reaction.txt"), ("multi", "multi_reaction.txt")):
            pool, draws, rejected = build(kind, POOL_SIZE, work)
            with open(os.path.join(HERE, "data", name), "w") as fh:
                fh.write(f"# {len(pool)} networks from {draws} draws (seed {SEED}-{kind}); "
                         f"{rejected} candidates rejected because witness or verify failed\n")
                fh.write("\n".join(pool) + "\n")
            print(f"{name}: {len(pool)} networks, {draws} draws, {rejected} rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
