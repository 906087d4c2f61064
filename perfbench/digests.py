"""Regenerate the reference SHA-256 digests of every CLI output.

    python3 perfbench/digests.py

Run from the repository root.  Runs classify, witness and verify once on
every network the ``cli`` workload can draw (fixtures, faults, both pools)
and the two ``enumerate`` commands, and writes
``perfbench/data/reference_digests.json``.  Benchmark runs print how many
of their outputs differ from it, so a change meant to leave outputs alone
can show byte-identical JSON.  The digests are a reference, not a check: a
change that corrects an output is judged by the exact checks alone.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import inputs
import run as bench


def main() -> int:
    cli = bench.load_crn1d()
    os.makedirs(bench.WORK, exist_ok=True)
    fixed, rounds = inputs.cli_inputs(0, 1)
    digests = {}
    for net in fixed + [n for chunk in rounds for n in chunk]:
        base = os.path.join(bench.WORK, net.id)
        with open(base + ".crn", "w", encoding="utf-8") as fh:
            fh.write(net.text)
        for kind, argv in (
            ("classify", ["classify", base + ".crn"]),
            ("witness", ["witness", base + ".crn", "--goal", net.goal]),
            ("verify", ["verify", base + ".crn", "--witness", base + ".witness"]),
        ):
            out = f"{base}.{kind}"
            if os.path.exists(out):
                os.remove(out)
            bench.call_main(cli.main, argv + ["--out", out])
            digest = bench.sha256_file(out)
            if digest is not None:
                digests[f"{kind} {net.id}"] = digest
    for s, b in (bench.ENUMERATE_MAIN[0], bench.ENUMERATE_AUX[0]):
        path = os.path.join(bench.WORK, f"enumerate_s{s}_b{b}.jsonl")
        _, _, stdout = bench.call_main(
            cli.main, ["enumerate", "--species", str(s), "--max-coeff", str(b), "--jobs", "1", "--out", path]
        )
        digests[f"enumerate s{s}b{b}.jsonl"] = bench.sha256_file(path)
        digests[f"enumerate s{s}b{b}.summary"] = hashlib.sha256(stdout.encode()).hexdigest()
    with open(bench.REFERENCE_DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {os.path.relpath(bench.REFERENCE_DIGESTS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
