"""Checks of crn1d's outputs against the computations in ``exact.py``.

Each ``check_*`` returns an error message, or None when the output holds.
Only the declared conventions of the JSON reports are read from the
program (species numbering, the species order behind ``c``, the tags);
every claim in them is recomputed here.
"""

from __future__ import annotations

import json
from fractions import Fraction

import exact

TAGS = {"zero", "finite-at-most-two", "finite-at-least-three", "infinitely-many", "unknown"}
GOAL_STATES = {"two": 2, "three": 3}


def _structure(reactions, doc):
    """(gamma, 0-based species order) from a report, after checking that the
    declared gamma and lambda reproduce every change vector exactly."""
    st = doc["structure"]
    gamma = [exact.exact_number(v) for v in st["gamma"]]
    lams = [exact.exact_number(v) for v in st["lambda"]]
    order = [k - 1 for k in st["species_order"]]
    s = len(gamma)
    if sorted(order) != list(range(s)) or gamma[order[0]] == 0:
        raise ValueError(f"bad species order {st['species_order']} for gamma")
    if len(lams) != len(reactions):
        raise ValueError("lambda has the wrong length")
    for (r, p), lam in zip(reactions, lams):
        if any(b - a != lam * g for a, b, g in zip(r, p, gamma)):
            raise ValueError("declared gamma and lambda do not reproduce a change vector")
    return gamma, order


def check_network(lines, doc):
    names, reactions = exact.parse_reactions(lines)
    net = doc["network"]
    if net["species"] != names:
        return None, f"species {net['species']} != {names}"
    got = [(tuple(r["reactant"]), tuple(r["product"])) for r in net["reactions"]]
    if got != reactions:
        return None, "reaction coefficients differ from the input"
    return reactions, None


def check_classify(lines, doc):
    if doc.get("schema_version") != "1" or doc.get("command") != "classify":
        return "not a classify report"
    reactions, err = check_network(lines, doc)
    if err:
        return err
    try:
        _structure(reactions, doc)
    except ValueError as exc:
        return str(exc)
    if doc["classification"]["tag"] not in TAGS:
        return f"unknown tag {doc['classification']['tag']!r}"
    return None


def consistent_tag(tag: str, states: int | None) -> bool:
    """A network with ``states`` verified steady states on one line cannot
    carry a capacity tag below that."""
    if states is None:
        return tag in ("infinitely-many", "unknown")
    if tag == "zero":
        return states == 0
    if tag == "finite-at-most-two":
        return states <= 2
    return True


def check_witness(lines, doc, goal: str):
    """(error or None, exact state count on the witness's line)."""
    if doc.get("schema_version") != "1" or doc.get("command") != "witness":
        return "not a witness report", None
    reactions, err = check_network(lines, doc)
    if err:
        return err, None
    try:
        gamma, order = _structure(reactions, doc)
    except ValueError as exc:
        return str(exc), None
    w = doc["witness"]
    kappa = [exact.exact_number(v) for v in w["kappa"]]
    c = [exact.exact_number(v) for v in w["c"]]
    states = [tuple(exact.exact_number(v) for v in x) for x in w["states"]]
    need = GOAL_STATES[goal]
    if len(kappa) != len(reactions) or len(c) != len(gamma) - 1:
        return "kappa or c has the wrong length", None
    if any(k <= 0 for k in kappa):
        return "a rate constant is not positive", None
    if len(set(states)) < need:
        return f"{len(set(states))} distinct states, goal {goal}", None
    if not doc["verification"]["passed"]:
        return "the report's own verification failed", None
    tol = float(exact.exact_number(doc["verification"]["tol"]))
    rate, cons = exact.replay_states(reactions, order, gamma, kappa, c, states)
    if rate > tol or cons > tol:
        return f"50-digit replay: rate residual {rate:.3g}, conservation residual {cons:.3g}", None
    count = exact.line_state_count(reactions, gamma, order, kappa, c)
    if count is not None and count < need:
        return f"Sturm count {count} on the witness line, goal {goal}", count
    return None, count


def check_verify(doc, witness_error):
    if doc.get("command") != "verify":
        return "not a verify report"
    if doc["verification"]["passed"] != (witness_error is None):
        return f"verify says passed={doc['verification']['passed']}, replay says {witness_error or 'pass'}"
    return None


def fault_b1_attainable(lines, classify_doc, kappa, c) -> int | None:
    """Exact state count of fault_b1 at a known rate choice."""
    names, reactions = exact.parse_reactions(lines)
    gamma, order = _structure(reactions, classify_doc)
    return exact.line_state_count(reactions, gamma, order, [Fraction(k) for k in kappa], [Fraction(v) for v in c])


# ---------------------------------------------------------------------------
# Enumeration.


def check_enumeration(path: str, species: int, bound: int, summary: dict, expected: int):
    """Whole-file properties of an ``enumerate --out`` file; list of failures."""
    problems = []
    names = [f"X{k + 1}" for k in range(species)]
    keys = set()
    lines = 0
    by_tag: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            lines += 1
            rec = json.loads(raw)
            by_tag[rec["tag"]] = by_tag.get(rec["tag"], 0) + 1
            _, reactions = exact.parse_reactions(rec["network"], names)
            if len(reactions) != 2 or reactions[0] == reactions[1]:
                problems.append(f"line {lines}: not two distinct reactions")
                continue
            if any(v > bound for r, p in reactions for v in r + p):
                problems.append(f"line {lines}: coefficient above {bound}")
            if not all(any(r[k] or p[k] for r, p in reactions) for k in range(species)):
                problems.append(f"line {lines}: a species appears in no complex")
            direction = exact.collinear_direction(reactions)
            if direction is None:
                problems.append(f"line {lines}: change vectors are not parallel")
                continue
            same_way = direction[1][1] > 0
            if (rec["tag"] == "zero") != same_way:
                problems.append(f"line {lines}: tag {rec['tag']!r} but change vectors "
                                f"point {'the same way' if same_way else 'opposite ways'}")
            key = exact.iso_key(reactions)
            if key in keys:
                problems.append(f"line {lines}: isomorphic to an earlier line")
            keys.add(key)
    if lines != summary.get("count"):
        problems.append(f"{lines} lines, summary count {summary.get('count')}")
    if by_tag != summary.get("by_tag"):
        problems.append(f"tag counts {by_tag} differ from the summary {summary.get('by_tag')}")
    if lines != expected:
        problems.append(f"{lines} lines, independent class count {expected}")
    return problems[:10]
