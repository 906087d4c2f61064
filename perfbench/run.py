#!/usr/bin/env python3
"""Benchmark for crn1d: three workloads, exact output checks, per-layer trace.

    python3 perfbench/run.py --workload {enumerate,cli,roots} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from the repository root: it imports ``crn1d`` from ``./src`` and
refuses to run without it.  It prints a report (every metric by name with
its unit, the sample counts, every check, the SHA-256 of every CLI output)
and, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the public functions of the package are
wrapped (see ``tracer.py``) and the metrics are the per-layer ones.
``--smoke`` shrinks every workload to one quick round with the same checks.
See ``perfbench/README.md`` for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import count_classes  # noqa: E402
import inputs  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE_DIGESTS = os.path.join(HERE, "data", "reference_digests.json")

# Sizes: (normal, smoke).
ENUMERATE_MAIN = ((3, 3), (2, 2))
ENUMERATE_AUX = ((3, 2), (2, 1))
ENUMERATE_AUX_REPEATS = (5, 1)
CLI_PER_ROUND = (20, 2)  # pool networks of each kind per round
ROOTS_GENERAL = (100, 5)  # fresh seeded problems per round
ROOTS_CLUSTERED = (60, 5)  # fixed clustered problems per round
SETUP_REPEATS = (9, 1)
RECOUNT_SAMPLES = 30_001


@dataclass
class Run:
    seed: int
    seconds: float
    smoke: bool
    cli: object = None  # the crn1d.cli module
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)  # failures on inputs not known to fail
    known: set = field(default_factory=set)  # failures on the fixed fault inputs
    problems: list = field(default_factory=list)  # failed whole-output checks
    notes: list = field(default_factory=list)  # check results worth printing
    metrics: dict = field(default_factory=dict)  # end-to-end: name -> (value, unit)
    figures: list = field(default_factory=list)  # report-only lines
    digests: dict = field(default_factory=dict)  # "<command> <input>" -> sha256
    rounds: int = 0
    peak_rss_mb: float = 0.0

    def size(self, pair):
        return pair[1] if self.smoke else pair[0]

    def fail(self, what: str, expected: bool) -> None:
        self.failed += 1
        if expected:
            self.known.add(what)
        else:
            self.unexpected.append(what)


def load_crn1d():
    """Import crn1d.cli from ./src, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "crn1d", "cli.py")):
        raise SystemExit("perfbench: src/crn1d/cli.py not found; run from the repository root")
    sys.path.insert(0, SRC)
    import crn1d.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(crn1d.cli.__file__))) != SRC:
        raise SystemExit(f"perfbench: crn1d was imported from {crn1d.cli.__file__}, not ./src")
    return crn1d.cli


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(repeats: int) -> list[float]:
    """CPU seconds for a fresh interpreter to import crn1d.cli (after one
    warm-up import, so compiled bytecode is cached as it is for a user)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", "import crn1d.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(repeats):
        start = _children_cpu()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(_children_cpu() - start)
    return times


def call_main(main, argv):
    """(CPU milliseconds, exit code or the exception that escaped, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = process_time()
        try:
            rc = main(argv)
        except Exception as exc:  # an escaping exception is a failed command, not a benchmark crash
            rc = exc
        ms = 1000.0 * (process_time() - start)
    return ms, rc, out.getvalue()


def sha256_file(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def beyond(values, q: float) -> int:
    """Samples above the nearest-rank percentile's rank."""
    return len(values) - max(1, math.ceil(q / 100.0 * len(values)))


def note_peak_rss(run: Run) -> None:
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record_digest(run: Run, label: str, digest: str | None) -> None:
    """Keep the first digest of an output; a later round must match it."""
    if digest is None:
        return
    first = run.digests.setdefault(label, digest)
    if first != digest:
        run.problems.append(f"{label}: output bytes changed between rounds")


# ---------------------------------------------------------------------------
# enumerate: the enumerate command at --max-coeff 3 once, at --max-coeff 2 five
# times.  That takes about as long as a run of the other workloads, so
# --seconds does not apply.


def run_enumerate(run: Run) -> None:
    main = run.cli.main
    sizes = [run.size(ENUMERATE_MAIN), run.size(ENUMERATE_AUX)]
    samples = {size: [] for size in sizes}
    summaries = {}
    for (s, b), repeats in zip(sizes, (1, run.size(ENUMERATE_AUX_REPEATS))):
        path = os.path.join(WORK, f"enumerate_s{s}_b{b}.jsonl")
        argv = ["enumerate", "--species", str(s), "--max-coeff", str(b), "--jobs", "1", "--out", path]
        for _ in range(repeats):
            ms, rc, stdout = call_main(main, argv)
            run.attempted += 1
            if rc != 0:
                run.fail(f"enumerate s={s} b={b}: {rc!r}", expected=False)
                continue
            samples[(s, b)].append(ms)
            summaries[(s, b)] = json.loads(stdout)
            record_digest(run, f"enumerate s{s}b{b}.jsonl", sha256_file(path))
            record_digest(run, f"enumerate s{s}b{b}.summary", hashlib.sha256(stdout.encode()).hexdigest())
    run.rounds = 1
    note_peak_rss(run)
    if run.unexpected:
        return

    expected = count_classes.load_expected()
    for s, b in sizes:
        path = os.path.join(WORK, f"enumerate_s{s}_b{b}.jsonl")
        found = checks.check_enumeration(path, s, b, summaries[(s, b)], expected[f"{s},{b}"])
        run.problems.extend(f"enumerate s={s} b={b}: {p}" for p in found)
        run.notes.append(f"enumerate s={s} b={b}: {summaries[(s, b)]['count']} lines, independent count "
                         f"{expected[f'{s},{b}']}, no two isomorphic, bounds and zero tags hold"
                         if not found else f"enumerate s={s} b={b}: {len(found)} problems")
    # --jobs 2 must write the same bytes as --jobs 1 (untimed).
    s, b = sizes[1]
    path1 = os.path.join(WORK, f"enumerate_s{s}_b{b}.jsonl")
    path2 = os.path.join(WORK, f"enumerate_s{s}_b{b}_jobs2.jsonl")
    subprocess.run(
        [sys.executable, "-c", "import sys; from crn1d.cli import main; sys.exit(main())",
         "enumerate", "--species", str(s), "--max-coeff", str(b), "--jobs", "2", "--out", path2],
        env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    if sha256_file(path1) != sha256_file(path2):
        run.problems.append(f"enumerate s={s} b={b}: --jobs 2 output differs from --jobs 1")
    else:
        run.notes.append(f"enumerate s={s} b={b}: --jobs 2 output is byte-identical to --jobs 1")

    (s, b), (s2, b2) = sizes
    main_ms = samples[(s, b)]
    networks = summaries[(s, b)]["count"]
    run.metrics["throughput_per_cpu_s"] = (networks / (statistics.median(main_ms) / 1000.0), "1/s")
    run.metrics["main_p50_cpu_ms"] = (statistics.median(main_ms), "ms")
    run.metrics["main_tail_cpu_ms"] = (max(main_ms), "ms")
    run.metrics["aux_p50_cpu_ms"] = (statistics.median(samples[(s2, b2)]), "ms")
    run.figures += [
        ("networks_per_s", run.metrics["throughput_per_cpu_s"][0], "networks/s", f"{networks} networks, s={s} b={b}"),
        (f"enumerate_s{s}_b{b}_ms", statistics.median(main_ms), "ms", f"n={len(main_ms)}"),
        (f"enumerate_s{s2}_b{b2}_ms", statistics.median(samples[(s2, b2)]), "ms",
         f"n={len(samples[(s2, b2)])}"),
    ]


# ---------------------------------------------------------------------------
# cli: closed loop, one client, classify -> witness -> verify per network.


def run_cli(run: Run) -> None:
    main = run.cli.main
    fixed, rounds = inputs.cli_inputs(run.seed, run.size(CLI_PER_ROUND))
    if run.smoke:
        rounds = rounds[:1]
    nets = {n.id: n for n in fixed + [n for chunk in rounds for n in chunk]}
    os.makedirs(os.path.join(WORK, "cli"), exist_ok=True)
    paths = {}
    for net in nets.values():
        base = os.path.join(WORK, "cli", net.id)
        paths[net.id] = {k: f"{base}.{k}" for k in ("crn", "classify", "witness", "verify")}
        with open(paths[net.id]["crn"], "w", encoding="utf-8") as fh:
            fh.write(net.text)

    latency = {"classify": [], "witness": [], "verify": []}
    outcomes = []  # (command, net, exit code or exception)

    def command(kind, net, argv):
        out = paths[net.id][kind]
        if os.path.exists(out):
            os.remove(out)
        ms, rc, _ = call_main(main, argv + ["--out", out])
        outcomes.append((kind, net, rc))
        if rc == 0:
            latency[kind].append((ms, net.goal) if kind == "witness" else ms)
        record_digest(run, f"{kind} {net.id}", sha256_file(out))
        return rc

    rates = []  # completed commands per CPU second, one figure per round
    start = perf_counter()
    for chunk in rounds:
        round_start = process_time()
        done = sum(len(v) for v in latency.values())
        for net in fixed + chunk:
            p = paths[net.id]
            command("classify", net, ["classify", p["crn"]])
            rc = command("witness", net, ["witness", p["crn"], "--goal", net.goal])
            if rc in (0, 1):
                command("verify", net, ["verify", p["crn"], "--witness", p["witness"]])
        rates.append((sum(len(v) for v in latency.values()) - done) / (process_time() - round_start))
        run.rounds += 1
        if perf_counter() - start >= run.seconds:
            break
    wall = perf_counter() - start
    note_peak_rss(run)

    # Independent checks, once per distinct output (outputs repeat byte for byte).
    verdicts = {}
    states = {}
    for kind, net, rc in outcomes:
        key = (kind, net.id, rc if isinstance(rc, int) else type(rc).__name__)
        if key not in verdicts:
            verdicts[key] = cli_verdict(kind, net, rc, paths[net.id], verdicts, states)
        run.attempted += 1
        if verdicts[key] is not None:
            run.fail(f"{kind} {net.id}: {verdicts[key]}", expected=net.fault)
    for net in nets.values():
        if verdicts.get(("classify", net.id, 0), "not run") is None:
            with open(paths[net.id]["classify"], encoding="utf-8") as fh:
                tag = json.load(fh)["classification"]["tag"]
            if net.id in states and not checks.consistent_tag(tag, states[net.id]):
                run.problems.append(f"classify {net.id}: tag {tag!r} but {states[net.id]} states verified")
    b1 = nets["fault_b1"]
    with open(paths[b1.id]["classify"], encoding="utf-8") as fh:
        count = checks.fault_b1_attainable(b1.reactions, json.load(fh), *inputs.FAULT_B1_WITNESS)
    run.notes.append(f"fault_b1: exact count {count} states at the known rates, so goal two is attainable")
    counted = [c for c in states.values() if c is not None]
    run.notes.append(f"{len(states)} witnesses replayed in 50 digits and Sturm-counted: "
                     f"{sum(1 for c in counted if c >= 3)} lines with >= 3 states")

    commands = sum(len(v) for v in latency.values())
    three = [ms for ms, goal in latency["witness"] if goal == "three"]
    two = [ms for ms, goal in latency["witness"] if goal == "two"]
    w = [ms for ms, _ in latency["witness"]]
    run.metrics["throughput_per_cpu_s"] = (statistics.median(rates), "1/s")
    run.metrics["main_p50_cpu_ms"] = (statistics.median(three), "ms")
    run.metrics["main_tail_cpu_ms"] = (percentile(three, 90), "ms")
    run.metrics["aux_p50_cpu_ms"] = (statistics.median(two), "ms")
    run.figures += [
        ("commands_per_s", statistics.median(rates), "commands/s",
         f"median of {len(rates)} rounds; {commands} completed in {wall:.2f} s"),
        ("classify_p50_ms", statistics.median(latency["classify"]), "ms", f"n={len(latency['classify'])}"),
        ("witness_p50_ms", statistics.median(w), "ms", f"n={len(w)}"),
        ("witness_p90_ms", percentile(w, 90), "ms", f"n={len(w)}, {beyond(w, 90)} beyond"),
        ("witness_three_p50_ms", statistics.median(three), "ms", f"n={len(three)}"),
        ("witness_three_p90_ms", percentile(three, 90), "ms", f"n={len(three)}, {beyond(three, 90)} beyond"),
        ("witness_two_p50_ms", statistics.median(two), "ms", f"n={len(two)}"),
        ("verify_p50_ms", statistics.median(latency["verify"]), "ms", f"n={len(latency['verify'])}"),
    ]


def cli_verdict(kind, net, rc, paths, verdicts, states):
    """None when the command succeeded and its output checks out."""
    if rc != 0:
        return f"exit {rc!r}" if isinstance(rc, int) else f"raised {type(rc).__name__}"
    with open(paths[kind], encoding="utf-8") as fh:
        doc = json.load(fh)
    if kind == "classify":
        return checks.check_classify(net.reactions, doc)
    if kind == "witness":
        err, count = checks.check_witness(net.reactions, doc, net.goal)
        states[net.id] = count
        return err
    return checks.check_verify(doc, verdicts.get(("witness", net.id, 0), "the witness command did not pass"))


# ---------------------------------------------------------------------------
# roots: find_roots then oracle_count on one level per problem.


def run_roots(run: Run) -> None:
    from crn1d import numeric

    fixed = inputs.roots_fixed(run.size(ROOTS_CLUSTERED))
    known = {p.id for p in fixed}  # the fixed set may fail; fresh draws must not
    rng = random.Random(f"roots-{run.seed}")
    solve_ms, recount_ms = [], []
    rates = []  # levels solved and recounted per CPU second, one figure per round
    measured = 0.0
    while True:
        general = [inputs.general_problem(rng, f"r{run.rounds}.{i}") for i in range(run.size(ROOTS_GENERAL))]
        batch = [(p, numeric.GProblem(p.alphas, p.gammas, p.offsets)) for p in general + fixed]
        results = []
        start = perf_counter()
        cpu = process_time()
        for p, gp in batch:
            t0 = process_time()
            try:
                found = len(numeric.find_roots(gp, p.K).roots)
            except Exception as exc:  # counted as a failed solve
                found = exc
            t1 = process_time()
            try:
                recount = numeric.oracle_count(gp, p.K, samples=RECOUNT_SAMPLES)
            except Exception as exc:  # counted as a failed recount
                recount = exc
            t2 = process_time()
            results.append((p, found, recount))
            solve_ms.append(1000.0 * (t1 - t0))
            recount_ms.append(1000.0 * (t2 - t1))
        measured += perf_counter() - start
        rates.append(len(batch) / (process_time() - cpu))
        for p, found, recount in results:
            for what, got in (("find_roots", found), ("oracle_count", recount)):
                run.attempted += 1
                if got != p.count:
                    run.fail(f"{what} {p.id}: {got!r}, exact count {p.count}", expected=p.id in known)
        run.rounds += 1
        if measured >= run.seconds or run.smoke:
            break
    note_peak_rss(run)
    levels = len(solve_ms)
    run.notes.append(f"{levels} levels checked against exact Sturm counts "
                     f"({run.size(ROOTS_GENERAL)} fresh + {len(fixed)} fixed per round)")
    run.metrics["throughput_per_cpu_s"] = (statistics.median(rates), "1/s")
    run.metrics["main_p50_cpu_ms"] = (statistics.median(solve_ms), "ms")
    run.metrics["main_tail_cpu_ms"] = (percentile(solve_ms, 99), "ms")
    run.metrics["aux_p50_cpu_ms"] = (statistics.median(recount_ms), "ms")
    run.figures += [
        ("levels_per_s", statistics.median(rates), "levels/s", f"median of {len(rates)} rounds"),
        ("solves_per_s", 1000.0 * levels / sum(solve_ms), "solves/s", f"n={levels}"),
        ("solve_p50_ms", statistics.median(solve_ms), "ms", f"n={levels}"),
        ("solve_p99_ms", percentile(solve_ms, 99), "ms", f"n={levels}, {beyond(solve_ms, 99)} beyond"),
        ("recounts_per_s", 1000.0 * levels / sum(recount_ms), "recounts/s", f"n={levels}"),
    ]


WORKLOADS = {"enumerate": run_enumerate, "cli": run_cli, "roots": run_roots}


# ---------------------------------------------------------------------------


def report_digests(run: Run) -> None:
    for label in sorted(run.digests):
        print(f"sha256 {label} {run.digests[label]}")
    if not os.path.exists(REFERENCE_DIGESTS):
        return
    with open(REFERENCE_DIGESTS, encoding="utf-8") as fh:
        reference = json.load(fh)
    known = [k for k in run.digests if k in reference]
    differ = [k for k in known if reference[k] != run.digests[k]]
    print(f"digests: {len(known)} of {len(run.digests)} outputs have a reference; "
          f"{len(differ)} differ (reference only, not a check)")
    for k in differ[:20]:
        print(f"  differs from reference: {k}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="crn1d benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one quick round of every step")
    args = ap.parse_args(argv)

    run = Run(seed=args.seed, seconds=args.seconds, smoke=args.smoke)
    run.cli = load_crn1d()
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    setup = [] if args.trace else measure_setup(run.size(SETUP_REPEATS))
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        bindings = tracing.install(tracer)
        print(f"trace: {bindings} bindings of {len(tracing.public_functions())} public functions wrapped")
    WORKLOADS[args.workload](run)

    print(f"workload {args.workload}, seed {args.seed}, {run.rounds} round(s), "
          f"attempted {run.attempted}, failed {run.failed}")
    if setup:
        run.metrics["setup_s"] = (statistics.median(setup), "s")
        run.figures.insert(0, ("setup_s", statistics.median(setup), "s", f"n={len(setup)}"))
    run.metrics["peak_rss_mb"] = (run.peak_rss_mb, "MB")
    run.figures.append(("peak_rss_mb", run.peak_rss_mb, "MB", ""))
    for name, value, unit, note in run.figures:
        print(f"  {name:<22} {value:12.4f} {unit:<12} {note}")
    for line in run.notes:
        print(f"check ok: {line}")
    for line in sorted(run.known):
        print(f"failed, known fault input: {line}")
    for line in run.unexpected:
        print(f"check FAILED: {line}")
    for line in run.problems:
        print(f"check FAILED: {line}")
    report_digests(run)

    if tracer is not None:
        import tracer as tracing

        metrics = tracing.layer_metrics(tracer, run.rounds)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:14.4f} {unit}")
    else:
        metrics = run.metrics
    correct = not run.unexpected and not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
