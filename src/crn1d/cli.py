"""Command-line surface.

Five subcommands: ``analyze`` (structure, essential sets, diagrams),
``classify`` (adds tests, capacity class, essential reduction), ``witness``
(adds a constructed witness plus its verification), ``verify`` (replays a
witness file against a network), and ``enumerate`` (streams canonical
two-reaction networks up to a coefficient bound, classified).

Output is a single JSON document with sorted keys, so identical input gives
byte-identical output; ``--pretty`` switches to a human-readable rendering.
Exact numbers are serialized as ``{"rational": "p/q", "decimal": "..."}``,
binary64 numbers as ``{"float64": x}`` (non-finite values as strings);
counts and 1-based indices stay plain integers.

Exit codes: 0 success; 1 a verification ran and failed; 2 usage, parse,
witness-file, read or write problems; 3 the network's stoichiometric
subspace is not one-dimensional; 4 the classification rules the requested
witness goal out; 5 the witness was not constructed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections import Counter
from fractions import Fraction

from .census import cell_records, cells
from .classify import Report, classify
from .network import (
    CrnError,
    NotOneDimensional,
    ParseError,
    ReactionNetwork,
    format_network,
    pair_sign_data,
    parse_network,
)
from .numeric import DimensionMismatch, GProblem, NumericOverflow, OutOfDomain, eval_g_value, verify_witness
from .witness import GoalUnattainable, Witness, witness_three, witness_two_general

SCHEMA_VERSION = "1"


class UsageError(CrnError):
    """Bad invocation or unreadable/ill-formed input files."""


# ---------------------------------------------------------------------------
# Number tagging.


def _binary64(frac: Fraction) -> float:
    """The binary64 rounding of an exact number, infinite beyond the range."""
    try:
        return float(frac)
    except OverflowError:
        return math.inf if frac > 0 else -math.inf


def _tag(value) -> dict:
    if isinstance(value, float):
        if math.isfinite(value):
            return {"float64": value}
        return {"float64": str(value)}
    frac = Fraction(value)
    return {"rational": str(frac), "decimal": "%.17g" % _binary64(frac)}


def _tag_seq(values) -> list:
    return [_tag(v) for v in values]


def _untag(value):
    if isinstance(value, bool):
        raise UsageError("witness file: expected a number, found a boolean")
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"witness file: bad rational string {value!r}") from exc
    if isinstance(value, dict):
        if "rational" in value:
            return _untag(value["rational"])
        raw = value.get("float64")
        if isinstance(raw, (int, float, str)) and not isinstance(raw, bool):
            try:
                return float(raw)
            except (ValueError, OverflowError) as exc:
                raise UsageError(f"witness file: bad float64 value {raw!r}") from exc
    raise UsageError(f"witness file: unrecognized number {value!r}")


def _show(tagged) -> str:
    if "float64" in tagged:
        raw = tagged["float64"]
        return raw if isinstance(raw, str) else "%.12g" % raw
    rational = tagged["rational"]
    if "/" not in rational:
        return rational
    return f"{rational} ({'%.6g' % _binary64(Fraction(rational))})"


# ---------------------------------------------------------------------------
# Report sections.


def _network_section(net: ReactionNetwork) -> dict:
    lines = format_network(net).splitlines()
    return {
        "species": list(net.species),
        "reactions": [
            {"reactant": list(rx.reactant), "product": list(rx.product), "text": line}
            for rx, line in zip(net.reactions, lines)
        ],
    }


def _structure_section(struct) -> dict:
    return {
        "species_order": [k + 1 for k in struct.species_perm],
        "reaction_order": [j + 1 for j in struct.reaction_perm],
        "t": struct.t,
        "gamma": _tag_seq(struct.gamma),
        "lambda": _tag_seq(struct.lambdas),
    }


def _essential_section(sets) -> dict:
    return {
        "e": sorted(sets.e),
        "h": sorted(sets.h),
        "intersection": sorted(sets.eh),
    }


def _diagram_section(ad) -> dict:
    return {
        "right_left": [list(p) for p in ad.right_left],
        "left_right": [list(p) for p in ad.left_right],
        "ad": {
            "total": ad.total,
            "per_species": list(ad.per_species),
            "triples": [list(t) for t in ad.triples],
        },
    }


def _tests_section(report: Report) -> dict:
    cert = report.sufficient_two
    return {
        "necessary_pair": {
            "passes": report.necessary_pair.passes,
            "note": report.necessary_pair.note,
        },
        "necessary_three": {
            "passes": report.necessary_three.passes,
            "note": report.necessary_three.note,
        },
        "sufficient_two": {
            "certificate": list(cert.pair) if cert else None,
            "satisfied": bool(cert and cert.satisfied),
            "note": cert.note if cert else "no opposed pair has finite capacity",
        },
    }


def _capacity_fields(cap) -> dict:
    return {"tag": cap.tag, "rule": cap.rule, "detail": cap.detail, "inequalities": list(cap.inequalities)}


def _classification_section(report: Report) -> dict:
    out = _capacity_fields(report.capacity)
    out["profile"] = None
    out["two_reaction"] = None
    if report.profile is not None:
        p = report.profile
        out["profile"] = {
            "alphas": list(p.alphas),
            "gammas": list(p.gammas),
            "lambda2": _tag(p.lambda2),
            "classes": list(p.classes),
            "sets": {f"S{i}": sorted(p.sets[i - 1]) for i in range(1, 6)},
            "sums": list(p.sums),
            "mins": list(p.mins),
        }
    if report.two_reaction is not None:
        two = report.two_reaction
        out["two_reaction"] = {
            "nondegenerate_multistationary": two.nondegenerate_multistationary,
            "products": list(two.products),
            "reason": two.reason,
        }
    return out


def _reduction_section(report: Report) -> dict | None:
    red = report.reduction
    if red is None:
        return None
    out = {
        "kept_species": sorted(red.kept_species),
        "dropped_reactions": sorted(red.dropped_reactions),
        "network": format_network(red.network).splitlines(),
        "note": "positive steady-state counts per invariant line match the original network",
        "classification": None,
    }
    if report.reduced is not None:
        out["classification"] = _capacity_fields(report.reduced.capacity)
    return out


def _warnings_section(report: Report) -> list:
    return [{"id": w.id, "message": w.message} for w in report.warnings]


def _witness_section(goal: str, w: Witness) -> dict:
    return {
        "goal": goal,
        "kappa": _tag_seq(w.kappa),
        "c": _tag_seq(w.c),
        "states": [_tag_seq(x) for x in w.states],
        "z_roots": _tag_seq(w.z_roots) if w.z_roots is not None else None,
        "level": _tag(w.level) if w.level is not None else None,
        "offsets": _tag_seq(w.offsets) if w.offsets is not None else None,
        "nondegenerate": list(w.nondegenerate) if w.nondegenerate is not None else None,
    }


def _verification_section(rep) -> dict:
    return {
        "passed": rep.passed,
        "tol": _tag(rep.tol),
        "states": [
            {
                "state": _tag_seq(check.state),
                "positive": check.positive,
                "rate_residual": _tag(check.rate_residual),
                "conservation_residual": _tag(check.conservation_residual),
                "nondegenerate": check.nondegenerate,
                "passed": check.passed,
            }
            for check in rep.states
        ],
    }


def _analyze_doc(report: Report, command: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "network": _network_section(report.network),
        "structure": _structure_section(report.structure),
        "essential": _essential_section(report.essential),
        "diagrams": _diagram_section(report.ad),
        "warnings": _warnings_section(report),
    }


def _classify_doc(report: Report, command: str) -> dict:
    doc = _analyze_doc(report, command)
    doc["tests"] = _tests_section(report)
    doc["classification"] = _classification_section(report)
    doc["reduction"] = _reduction_section(report)
    return doc


# ---------------------------------------------------------------------------
# Pretty renderings.


def _pretty_analyze(doc: dict) -> list[str]:
    species = doc["network"]["species"]
    lines = [f"network: {len(species)} species, {len(doc['network']['reactions'])} reactions"]
    for n, rx in enumerate(doc["network"]["reactions"], start=1):
        lines.append(f"  R{n}: {rx['text']}")
    st = doc["structure"]
    lines.append(f"structure: t = {st['t']}")
    lines.append("  species order: " + ", ".join(species[k - 1] for k in st["species_order"]))
    lines.append("  reaction order: " + ", ".join(f"R{j}" for j in st["reaction_order"]))
    lines.append("  gamma:  " + ", ".join(_show(t) for t in st["gamma"]))
    lines.append("  lambda: " + ", ".join(_show(t) for t in st["lambda"]))
    es = doc["essential"]
    lines.append(
        f"essential: E = {set(es['e']) or '{}'}, H = {set(es['h']) or '{}'}, "
        f"E & H = {set(es['intersection']) or '{}'}"
    )
    ad = doc["diagrams"]["ad"]
    lines.append(f"diagrams: Ad = {ad['total']}, per species {ad['per_species']}")
    for label in ("left_right", "right_left"):
        for k, i, j in doc["diagrams"][label]:
            lines.append(f"  {label.replace('_', '-')}: species {k}, reactions ({i}, {j})")
    for w in doc["warnings"]:
        lines.append(f"warning [{w['id']}]: {w['message']}")
    return lines


def _pretty_classify(doc: dict) -> list[str]:
    lines = _pretty_analyze(doc)
    cls = doc["classification"]
    lines.append(f"classification: {cls['tag']}  [{cls['rule']}]")
    lines.append(f"  {cls['detail']}")
    if cls["inequalities"]:
        lines.append("  inequalities: " + "; ".join(cls["inequalities"]))
    if cls["profile"] is not None:
        species = doc["network"]["species"]
        pairs = ", ".join(
            f"{name}: {c}" for name, c in zip(species, cls["profile"]["classes"])
        )
        lines.append(f"  classes: {pairs}")
    tests = doc["tests"]
    for key in ("necessary_pair", "necessary_three"):
        entry = tests[key]
        verdict = "pass" if entry["passes"] else "FAIL"
        lines.append(f"test {key.replace('_', ' ')}: {verdict} ({entry['note']})")
    cert = tests["sufficient_two"]
    if cert["certificate"] is not None:
        verdict = "satisfied" if cert["satisfied"] else "not satisfied"
        lines.append(
            f"test sufficient two: pair {tuple(cert['certificate'])} {verdict} ({cert['note']})"
        )
    else:
        lines.append(f"test sufficient two: {cert['note']}")
    red = doc["reduction"]
    if red is not None:
        lines.append(
            f"reduction: kept species {set(red['kept_species'])}, "
            f"dropped reactions {set(red['dropped_reactions']) or '{}'}"
        )
        for text in red["network"]:
            lines.append(f"  {text}")
        if red["classification"] is not None:
            sub = red["classification"]
            lines.append(f"  reduced classification: {sub['tag']}  [{sub['rule']}]")
    return lines


def _pretty_witness(doc: dict) -> list[str]:
    lines = _pretty_classify(doc)
    w = doc["witness"]
    lines.append(f"witness (goal {w['goal']}):")
    lines.append("  kappa: " + ", ".join(_show(t) for t in w["kappa"]))
    lines.append("  c:     " + ", ".join(_show(t) for t in w["c"]))
    for n, state in enumerate(w["states"], start=1):
        lines.append(f"  state {n}: " + ", ".join(_show(t) for t in state))
    if w["z_roots"] is not None:
        lines.append("  z roots: " + ", ".join(_show(t) for t in w["z_roots"]))
    if w["level"] is not None:
        lines.append(f"  level K: {_show(w['level'])}")
    lines.extend(_pretty_verification(doc))
    return lines


def _pretty_verification(doc: dict) -> list[str]:
    rep = doc["verification"]
    verdict = "pass" if rep["passed"] else "FAIL"
    lines = [f"verification: {verdict} at tol {_show(rep['tol'])}"]
    for n, check in enumerate(rep["states"], start=1):
        lines.append(
            f"  state {n}: rate residual {_show(check['rate_residual'])}, "
            f"conservation residual {_show(check['conservation_residual'])}, "
            f"positive {'yes' if check['positive'] else 'NO'}, "
            f"nondegenerate {'yes' if check['nondegenerate'] else 'no'}"
        )
    return lines


# ---------------------------------------------------------------------------
# Command plumbing.


def _read_network(path: str) -> ReactionNetwork:
    try:
        with contextlib.nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from exc
    return parse_network(text)


def _emit(args, doc: dict, pretty_lines) -> None:
    if args.pretty:
        text = "\n".join(pretty_lines) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_REPORTS = {"analyze": (_analyze_doc, _pretty_analyze), "classify": (_classify_doc, _pretty_classify)}


def cmd_report(args) -> int:
    """``analyze`` and ``classify``: one classification, rendered per command."""
    build, pretty = _REPORTS[args.command]
    doc = build(classify(_read_network(args.path)), args.command)
    _emit(args, doc, pretty(doc))
    return 0


def _dump_g_csv(path: str, net: ReactionNetwork, w: Witness) -> None:
    """Sample (z, g(z)) around the witness roots; header-only when the
    witness does not come from a two-reaction line parametrization."""
    rows = ["z,g"]
    if w.offsets is not None and w.z_roots and net.num_reactions == 2:
        alphas, gammas = pair_sign_data(net, 0, 1)
        gp = GProblem(alphas, gammas, w.offsets)
        span = max(w.z_roots) - min(w.z_roots)
        span = span if span > 0 else 1.0
        lo = max(gp.lower, min(w.z_roots) - 2 * span)
        hi = min(gp.upper, max(w.z_roots) + 2 * span)
        for i in range(513):
            z = lo + (hi - lo) * i / 512
            try:
                g = eval_g_value(gp, z)
            except OutOfDomain:
                continue
            rows.append(f"{z!r},{g!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


def cmd_witness(args) -> int:
    net = _read_network(args.path)
    report = classify(net)
    witness = witness_three(report) if args.goal == "three" else witness_two_general(report)
    verification = verify_witness(net, witness, args.tol)
    doc = _classify_doc(report, "witness")
    doc["witness"] = _witness_section(args.goal, witness)
    doc["verification"] = _verification_section(verification)
    if args.dump_g:
        _dump_g_csv(args.dump_g, net, witness)
    _emit(args, doc, _pretty_witness(doc))
    return 0 if verification.passed else 1


def _load_witness(path: str) -> Witness:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"witness file: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError("witness file: expected a JSON object")
    obj = doc.get("witness", doc)
    if not isinstance(obj, dict):
        raise UsageError("witness file: 'witness' is not an object")
    for field in ("kappa", "c", "states"):
        if field not in obj or not isinstance(obj[field], list):
            raise UsageError(f"witness file: missing or non-list field {field!r}")
    kappa = tuple(_untag(v) for v in obj["kappa"])
    c = tuple(_untag(v) for v in obj["c"])
    states = []
    for state in obj["states"]:
        if not isinstance(state, list):
            raise UsageError("witness file: each state must be a list")
        states.append(tuple(_untag(v) for v in state))
    return Witness(kappa=kappa, c=c, states=tuple(states))


def cmd_verify(args) -> int:
    net = _read_network(args.path)
    witness = _load_witness(args.witness)
    try:
        verification = verify_witness(net, witness, args.tol)
    except (ValueError, OverflowError, NumericOverflow) as exc:
        raise UsageError(f"witness file: {exc}") from exc
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "network": _network_section(net),
        "verification": _verification_section(verification),
    }
    _emit(args, doc, _pretty_verification(doc))
    return 0 if verification.passed else 1


# ---------------------------------------------------------------------------
# Enumeration.


def cmd_enumerate(args) -> int:
    """``enumerate``: the census's records, cell by cell in order, then a summary."""
    species, bound = args.species, args.max_coeff
    work = list(cells(species, bound))
    counts: Counter = Counter()
    workers = min(args.jobs, len(work), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        sink = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        batches = map(cell_records, work)
        if workers > 1:
            from multiprocessing import Pool  # imported here so other commands do not load it

            batches = stack.enter_context(Pool(workers)).imap(cell_records, work, chunksize=8)
        for batch in batches:
            for tag, line in batch:
                sink.write(line + "\n")
                counts[tag] += 1
        sink.flush()  # a failed write shows before the summary, not after it
    total = sum(counts.values())
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        "species": species,
        "max_coeff": bound,
        "count": total,
        "by_tag": dict(sorted(counts.items())),
    }
    pretty = [f"enumerated {total} canonical networks (species {species}, coefficients <= {bound})"]
    pretty.extend(f"  {tag}: {n}" for tag, n in sorted(counts.items()))
    stream = sys.stdout if args.out else sys.stderr
    if args.pretty:
        stream.write("\n".join(pretty) + "\n")
    else:
        stream.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch.


def _add_io_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON output (the default)")
    group.add_argument("--pretty", action="store_true", help="human-readable output")
    sub.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="crn1d",
        description="Analyze mass-action reaction networks whose stoichiometric "
        "subspace is one-dimensional.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="structure, essential sets, diagrams")
    analyze.add_argument("path", nargs="?", default="-", help=".crn file ('-' for stdin)")
    _add_io_flags(analyze)
    analyze.set_defaults(func=cmd_report)

    cls = commands.add_parser("classify", help="analyze plus tests and capacity class")
    cls.add_argument("path", nargs="?", default="-", help=".crn file ('-' for stdin)")
    _add_io_flags(cls)
    cls.set_defaults(func=cmd_report)

    wit = commands.add_parser("witness", help="construct and verify a steady-state witness")
    wit.add_argument("path", nargs="?", default="-", help=".crn file ('-' for stdin)")
    wit.add_argument("--goal", choices=("two", "three"), required=True,
                     help="number of steady states to realize")
    wit.add_argument("--tol", type=float, default=1e-9,
                     help="verification tolerance (default 1e-9)")
    wit.add_argument("--dump-g", metavar="PATH",
                     help="write (z, g(z)) samples around the roots as CSV")
    _add_io_flags(wit)
    wit.set_defaults(func=cmd_witness)

    ver = commands.add_parser("verify", help="replay a witness file against a network")
    ver.add_argument("path", nargs="?", default="-", help=".crn file ('-' for stdin)")
    ver.add_argument("--witness", required=True, metavar="PATH",
                     help="witness JSON (a report or its witness object)")
    ver.add_argument("--tol", type=float, default=1e-9,
                     help="verification tolerance (default 1e-9)")
    _add_io_flags(ver)
    ver.set_defaults(func=cmd_verify)

    enum = commands.add_parser("enumerate",
                               help="stream canonical two-reaction networks, classified")
    enum.add_argument("--species", type=int, required=True, help="species count (1..4)")
    enum.add_argument("--max-coeff", type=int, required=True,
                      help="stoichiometric coefficient bound (1..4)")
    enum.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    enum.add_argument("--out", metavar="PATH",
                      help="write JSON lines to PATH; summary then goes to stdout")
    group = enum.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="JSON summary (the default)")
    group.add_argument("--pretty", action="store_true", help="human-readable summary")
    enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "enumerate":
        if not 1 <= args.species <= 4:
            parser.error("--species must be between 1 and 4")
        if not 1 <= args.max_coeff <= 4:
            parser.error("--max-coeff must be between 1 and 4")
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
    if args.command in ("witness", "verify") and not 0 < args.tol < math.inf:
        parser.error("--tol must be finite and positive")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered write that fails (a full disk) fails here, not at exit
        return code
    except (ParseError, UsageError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotOneDimensional as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GoalUnattainable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CrnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:  # a file that cannot be read or written, a closed pipe, a full disk
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:
            # stdout itself failed: what it still buffers goes to devnull at exit
            with contextlib.suppress(OSError, ValueError):  # no real descriptor
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
