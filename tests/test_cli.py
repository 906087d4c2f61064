"""End-to-end CLI behavior: documents, exit codes, files, enumeration."""

import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import crn1d
from crn1d import (
    census,
    ReactionNetwork,
    canonical_key,
    capacity_class_bi,
    classify,
    enumerate_bi_networks,
    format_network,
    format_reaction,
    main,
    parse_network,
    sign_profile,
)

from conftest import DATA
from support import brute_force_key


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def crn(name):
    return str(DATA / f"{name}.crn")


# the networks of tests/data/pool_multi.txt, one line each, reactions split by " / "
POOL_MULTI = [line for line in (DATA / "pool_multi.txt").read_text().splitlines() if not line.startswith("#")]


class TestAnalyze:
    def test_json_document(self, capsys):
        code, out, err = run(capsys, "analyze", crn("gb"))
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "analyze"
        assert doc["network"]["species"] == ["X1", "X2", "X3"]
        assert doc["structure"]["t"] == 1
        assert doc["structure"]["gamma"] == [{"rational": "1", "decimal": "1"}] * 3
        assert doc["essential"]["intersection"] == [1, 2, 3]
        assert doc["diagrams"]["ad"]["total"] == 3
        assert doc["warnings"] == []

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "analyze", crn("w2"))
        _, second, _ = run(capsys, "analyze", crn("w2"))
        assert first == second

    def test_stdin(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, "analyze", "-", stdin="X1 -> 2 X1\nX1 -> 0\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["network"]["species"] == ["X1"]

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "analyze", crn("gb"), "--pretty")
        assert code == 0
        assert "structure: t = 1" in out
        assert "diagrams: Ad = 3" in out


class TestClassify:
    def test_gb_document(self, capsys):
        code, out, _ = run(capsys, "classify", crn("gb"))
        assert code == 0
        doc = json.loads(out)
        cls = doc["classification"]
        assert cls["tag"] == "finite-at-least-three"
        assert cls["rule"] == "case-b"
        assert cls["inequalities"] == ["3 > 2", "2 > 1"]
        assert cls["profile"]["classes"] == ["S1", "S1", "S4"]
        assert cls["profile"]["sets"]["S1"] == [1, 2]
        assert cls["two_reaction"]["nondegenerate_multistationary"] is True
        assert doc["tests"]["necessary_pair"]["passes"] is True
        assert doc["tests"]["sufficient_two"]["certificate"] == [1, 2]
        assert doc["reduction"] is None

    def test_reduction_section(self, capsys):
        code, out, _ = run(capsys, "classify", crn("five_species"))
        assert code == 0
        doc = json.loads(out)
        red = doc["reduction"]
        species = doc["network"]["species"]
        assert [species[k - 1] for k in red["kept_species"]] == ["X1", "X2", "X3"]
        assert red["dropped_reactions"] == []
        assert red["classification"]["tag"] == "finite-at-least-three"
        reduced = parse_network("\n".join(red["network"]))
        assert canonical_key(reduced.reactions) == canonical_key(
            parse_network((DATA / "ad_example.crn").read_text()).reactions
        )

    def test_warning_surfaces(self, capsys):
        code, out, _ = run(capsys, "classify", crn("w2"))
        assert code == 0
        doc = json.loads(out)
        assert [w["id"] for w in doc["warnings"]] == ["reference-claim-mismatch"]
        assert doc["tests"]["sufficient_two"]["certificate"] == [3, 2]

    def test_one_species_warning(self, capsys):
        code, out, _ = run(capsys, "classify", crn("example42"))
        assert code == 0
        doc = json.loads(out)
        assert [w["id"] for w in doc["warnings"]] == ["both-arrow-level"]
        assert doc["classification"]["tag"] == "infinitely-many"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "classify", crn("gb"), "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "classify"


class TestWitnessCommand:
    def test_three_for_gb(self, capsys):
        code, out, _ = run(capsys, "witness", crn("gb"), "--goal", "three")
        assert code == 0
        doc = json.loads(out)
        w = doc["witness"]
        assert w["goal"] == "three"
        assert w["kappa"][0] == {"float64": 1.0}
        assert w["c"][0]["rational"] == "232/15"
        assert len(w["states"]) == 3
        assert w["nondegenerate"] == [True, True, True]
        assert doc["verification"]["passed"] is True

    def test_two_for_w1(self, capsys):
        code, out, _ = run(capsys, "witness", crn("w1"), "--goal", "two")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["witness"]["states"]) == 2
        assert doc["verification"]["passed"] is True
        assert [w["id"] for w in doc["warnings"]] == ["reference-witness-mismatch"]

    def test_goal_unattainable_exit(self, capsys):
        code, _, err = run(capsys, "witness", crn("ga"), "--goal", "three")
        assert code == 4
        assert "error:" in err

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("w1", 5),  # the pair tests pass and the capacity is unknown: not constructed
            ("pair_excluded", 4),  # no left-right diagram: the pair test rules it out
            ("free_balance", 4),  # infinitely-many
        ],
    )
    def test_goal_three_beyond_two_reactions(self, capsys, name, expected):
        code, out, err = run(capsys, "witness", crn(name), "--goal", "three")
        assert (code, out) == (expected, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_goal_three_one_reaction(self, capsys, monkeypatch):
        code, out, err = run(capsys, "witness", "-", "--goal", "three", stdin="X1 -> 2 X1\n",
                             monkeypatch=monkeypatch)
        assert (code, out) == (4, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("line", [pytest.param(line, id=f"net{i}") for i, line in enumerate(POOL_MULTI)])
    def test_goal_three_exit_follows_the_report(self, capsys, tmp_path, line):
        """Exit 4 exactly where the report rules three states out, 5 otherwise."""
        path = tmp_path / "net.crn"
        path.write_text(line.replace(" / ", "\n") + "\n")
        report = classify(parse_network(path.read_text()))
        ruled_out = (not report.necessary_three.passes or not report.necessary_pair.passes
                     or report.capacity.tag in ("zero", "infinitely-many"))
        code, out, err = run(capsys, "witness", str(path), "--goal", "three")
        assert (code, out) == (4 if ruled_out else 5, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_dump_g(self, capsys, tmp_path):
        csv = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "witness", crn("gb"), "--goal", "three", "--dump-g", str(csv)
        )
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "z,g"
        assert 3 <= len(lines) <= 514
        zs = [float(line.split(",")[0]) for line in lines[1:]]
        assert zs == sorted(zs)
        for line in lines[1:]:
            z, g = line.split(",")
            float(z), float(g)

    def test_dump_g_header_only_off_the_line(self, capsys, tmp_path):
        # the endpoint witness for nb has no scalar-reduction data
        csv = tmp_path / "g.csv"
        code, _, _ = run(
            capsys, "witness", crn("nb"), "--goal", "two", "--dump-g", str(csv)
        )
        assert code == 0
        assert csv.read_text() == "z,g\n"


class TestVerifyCommand:
    def test_round_trip(self, capsys, tmp_path):
        report = tmp_path / "witness.json"
        code, _, _ = run(
            capsys, "witness", crn("gc"), "--goal", "three", "--out", str(report)
        )
        assert code == 0
        code, out, _ = run(
            capsys, "verify", crn("gc"), "--witness", str(report)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["verification"]["passed"] is True

    def test_handwritten_rational_witness(self, capsys, tmp_path):
        blob = {
            "kappa": [{"rational": "1"}, {"rational": "1"}],
            "c": ["0"],
            "states": [[1, {"rational": "1"}]],
        }
        path = tmp_path / "w.json"
        path.write_text(json.dumps(blob))
        code, out, _ = run(capsys, "verify", crn("ga"), "--witness", str(path))
        assert code == 0
        assert json.loads(out)["verification"]["passed"] is True

    def test_failing_witness_exits_one(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        # a state off the balance, then one with a zero coordinate
        for state in ([1, 1], [0, 1]):
            path.write_text(json.dumps({"kappa": [1, 2], "c": [0], "states": [state]}))
            code, out, _ = run(capsys, "verify", crn("ga"), "--witness", str(path))
            assert code == 1
            doc = json.loads(out)["verification"]
            assert doc["passed"] is False
        check = doc["states"][0]
        assert check["positive"] is False
        assert check["rate_residual"] == check["conservation_residual"] == {"float64": "inf"}

    @pytest.mark.parametrize(
        "blob",
        [
            "not json at all {",
            json.dumps([1, 2]),
            json.dumps({"kappa": [1, 1], "c": [0]}),
            json.dumps({"kappa": [1, 1], "c": [0], "states": [[True, 1]]}),
            json.dumps({"kappa": [1], "c": [0], "states": [[1, 1]]}),
            json.dumps({"kappa": [0, 1], "c": [0], "states": [[1, 1]]}),
            pytest.param(json.dumps({"witness": [1, 2]}), id="witness-not-an-object"),
            pytest.param(json.dumps({"kappa": [1, 1], "c": [0], "states": [1]}), id="state-not-a-list"),
            pytest.param("[" * 100_000, id="deep-nesting"),
            pytest.param(b"\xff\xfe not utf-8", id="not-utf8"),
        ],
    )
    def test_bad_witness_files_exit_two(self, capsys, tmp_path, blob):
        path = tmp_path / "w.json"
        path.write_bytes(blob if isinstance(blob, bytes) else blob.encode())
        code, _, err = run(capsys, "verify", crn("ga"), "--witness", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", crn("ga"), "--witness", "/nonexistent.json")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "field, number",
        [("kappa", {"float64": [1]}), ("kappa", {"float64": {}}), ("kappa", {"float64": "abc"}),
         ("kappa", {"float64": True}), ("kappa", "1/0"), ("kappa", {"rational": "1/0"}), ("kappa", 10**400),
         ("kappa", {"float64": "nan"}), ("kappa", {"float64": "inf"}), ("c", {"float64": "nan"}),
         ("states", {"float64": "nan"})],
        ids=["float64-list", "float64-dict", "float64-text", "float64-bool", "zero-denominator",
             "tagged-zero-denominator", "huge-int", "kappa-nan", "kappa-inf", "c-nan", "state-nan"],
    )
    def test_malformed_number_exits_two(self, capsys, tmp_path, field, number):
        doc = {"kappa": [1, 1], "c": [0], "states": [[1, 1]]}
        (doc["states"][0] if field == "states" else doc[field])[0] = number
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", crn("ga"), "--witness", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: witness file:") and err.count("\n") == 1


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.floats(min_value=1e-3, max_value=1e3),
    st.sampled_from(["1/3", "2", "-1", "1/0", "abc", "nan", "-inf", "1e400", ""]),
    st.text(max_size=6),
)
_ENTRIES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["rational", "float64", "other"]), inner, max_size=2),
    ),
    max_leaves=6,
)


def _field(size):
    return st.one_of(st.lists(_ENTRIES, min_size=size, max_size=size), st.lists(_ENTRIES, max_size=3), _ENTRIES)


@settings(max_examples=50)
@given(kappa=_field(2), c=_field(1), states=st.lists(_field(2), max_size=2) | _ENTRIES)
def test_verify_exit_code_contract(kappa, c, states):
    """Whatever a witness file holds, verify ends in a documented code with no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "w.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kappa": kappa, "c": c, "states": states}, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", crn("ga"), "--witness", path])
    assert code in (0, 1, 2)


class TestExitCodes:
    def test_parse_error(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, "classify", "-", stdin="X1 => X2\n", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error:" in err

    def test_not_one_dimensional(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            "classify",
            "-",
            stdin="X1 -> 2 X1\nX2 -> 2 X2\n",
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert "error:" in err

    def test_unreadable_network_file(self, capsys):
        code, _, err = run(capsys, "classify", "/nonexistent.crn")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["classify"], ["witness", "--goal", "two"], ["verify", "--witness", "unread.json"]],
    )
    def test_undecodable_network_file(self, capsys, tmp_path, argv):
        path = tmp_path / "bad.crn"
        path.write_bytes(b"X1 -> 2 X1\n\xff X1 -> 0\n")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "utf-8" in err and err.count("\n") == 1

    def test_failed_stdout_without_descriptor(self, capsys, monkeypatch):
        class FullStream(io.StringIO):  # an in-process stdout that fails and has no descriptor
            def write(self, text):
                raise OSError(28, "No space left on device")

            def flush(self):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr("sys.stdout", FullStream())
        code = main(["classify", crn("gb")])
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"

    def test_over_long_coefficient(self, capsys, monkeypatch):
        text = "X1 -> " + "9" * 4301 + " X1\n"
        code, out, err = run(capsys, "classify", "-", stdin=text, monkeypatch=monkeypatch)
        assert code == 2
        assert out == ""
        assert err == "error: line 1, column 7: coefficient has 4301 digits, too many to read\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize("command", ["witness", "verify"])
    def test_meaningless_tolerance(self, capsys, tmp_path, command, tol):
        extra = ["--goal", "two"] if command == "witness" else ["--witness", str(tmp_path / "w.json")]
        with pytest.raises(SystemExit) as exc:
            main([command, crn("gb"), *extra, f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: --tol must be finite and positive\n")

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_enumerate_bounds_checked(self, capsys):
        for flag, value in (("--species", "9"), ("--max-coeff", "5"), ("--jobs", "0")):
            with pytest.raises(SystemExit) as exc:
                main(["enumerate", "--species", "2", "--max-coeff", "2", flag, value])  # the last value counts
            assert exc.value.code == 2
            assert f"error: {flag} must be" in capsys.readouterr().err

    def test_one_parser_serves_every_command(self, capsys):
        """A usage error, then classify, then witness through the parser the
        process already built give the bytes of a first call each."""
        argvs = (["frobnicate"], ["classify", crn("gb")], ["witness", "--goal", "three", crn("gb")])

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            return (code, *capsys.readouterr())

        first = []
        for argv in argvs:
            crn1d.cli._build_parser.cache_clear()
            first.append(outcome(argv))
        assert [outcome(argv) for argv in argvs] == first
        assert [code for code, _out, _err in first] == [2, 0, 0]
        assert crn1d.cli._build_parser.cache_info().hits == 3


def steep_pair(scale: int) -> str:
    """A nondegenerate opposed pair whose rates overflow binary64 on its line."""
    a, c = 4 * scale, 3 * scale
    return f"X1 + {a} X2 -> 2 X1 + {a + 1} X2\n3 X1 + {c} X2 -> 2 X1 + {c - 1} X2\n"


class TestOverflow:
    @pytest.mark.parametrize("scale", [100, 1000])
    def test_witness_exits_five(self, capsys, monkeypatch, scale):
        # scale 100 overflows a monomial, scale 1000 the rate exp(K)
        code, out, err = run(
            capsys, "witness", "-", "--goal", "two", stdin=steep_pair(scale), monkeypatch=monkeypatch
        )
        assert code == 5
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_verify_exits_two(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kappa": [1, 1], "c": [0], "states": [[1e200, 1e200]]}))
        code, out, err = run(
            capsys, "verify", "-", "--witness", str(path), stdin=steep_pair(100), monkeypatch=monkeypatch
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: witness file:") and err.count("\n") == 1


class TestNumbersBeyondBinary64:
    # lambda = (1, -10^400) and (1, -10^400/3): exact, but beyond binary64
    @pytest.mark.parametrize("gain", [1, 3])
    def test_json_decimal_is_infinite(self, capsys, monkeypatch, gain):
        text = f"A -> {gain + 1} A\n{10**400} A -> 0\n"
        code, out, err = run(capsys, "classify", "-", stdin=text, monkeypatch=monkeypatch)
        assert code == 0 and err == ""
        lam = json.loads(out)["structure"]["lambda"][1]
        assert Fraction(lam["rational"]) == Fraction(-(10**400), gain)
        assert lam["decimal"] == "-inf"

    def test_pretty_shows_infinite_rounding(self, capsys, monkeypatch):
        code, out, err = run(capsys, "classify", "-", "--pretty", stdin=f"A -> 4 A\n{10**400} A -> 0\n",
                             monkeypatch=monkeypatch)
        assert code == 0 and err == ""
        lam_line = next(line for line in out.splitlines() if line.strip().startswith("lambda:"))
        assert lam_line.endswith("/3 (-inf)")


class TestEnumerate:
    def test_one_species_histogram(self, capsys, tmp_path):
        out_path = tmp_path / "nets.jsonl"
        code, out, _ = run(
            capsys,
            "enumerate",
            "--species",
            "1",
            "--max-coeff",
            "2",
            "--out",
            str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["count"] == 15
        assert summary["by_tag"] == {
            "finite-at-most-two": 8,
            "infinitely-many": 1,
            "zero": 6,
        }
        lines = out_path.read_text().splitlines()
        assert len(lines) == 15
        # each streamed record re-classifies to its own tag
        for line in lines:
            record = json.loads(line)
            net = parse_network("\n".join(record["network"]))
            report = classify(net)
            assert report.capacity.tag == record["tag"]
            assert report.ad.total == record["ad"]

    @pytest.mark.parametrize("species,bound", [(1, 4), (2, 3), (3, 2)])
    def test_records_match_classify(self, capsys, tmp_path, species, bound):
        # records are built from each pair's sign data; classify derives the
        # same fields from the full structure (ad from ad_count)
        out_path = tmp_path / "nets.jsonl"
        code, _, _ = run(capsys, "enumerate", "--species", str(species), "--max-coeff", str(bound),
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            record = json.loads(line)
            report = classify(parse_network("\n".join(record["network"])))
            assert (record["tag"], record["rule"], record["ad"]) == (
                report.capacity.tag, report.capacity.rule, report.ad.total,
            ), line

    @pytest.mark.parametrize("species,bound", [(3, 2), (2, 3)])
    def test_cell_lines(self, species, bound):
        # each line is the sorted-key json.dumps of its record, and a record
        # of a same-sign cell is what the ladder gives for its own alphas
        names = tuple(f"X{k + 1}" for k in range(species))
        for cell in census.cells(species, bound):
            _, _, e, c1, c2 = cell
            records = census.cell_records(cell)
            for (tag, line), pair in zip(records, census._cell_networks(*cell), strict=True):
                record = json.loads(line)
                assert line == json.dumps(record, sort_keys=True) and tag == record["tag"]
                if c1 * c2 < 0:
                    continue
                alphas = tuple(a - b for a, b in zip(pair[0][0], pair[1][0]))
                capacity = capacity_class_bi(sign_profile(alphas, tuple(c1 * v for v in e), Fraction(c2, c1)))
                assert record == {
                    "network": [format_reaction(*rx, names) for rx in pair],
                    "tag": capacity.tag,
                    "rule": capacity.rule,
                    "ad": 0,
                }, line

    @pytest.mark.parametrize("species,bound", [(2, 3), (3, 2)])
    def test_generator_matches_records(self, capsys, tmp_path, species, bound):
        # records are formatted from coefficient pairs; the public generator
        # wraps the same pairs in networks, in the same order
        out_path = tmp_path / "nets.jsonl"
        code, _, _ = run(capsys, "enumerate", "--species", str(species), "--max-coeff", str(bound),
                         "--out", str(out_path))
        assert code == 0
        nets = list(enumerate_bi_networks(species, bound))
        assert all(isinstance(net, ReactionNetwork) for net in nets)
        records = [json.loads(line)["network"] for line in out_path.read_text().splitlines()]
        assert [format_network(net).splitlines() for net in nets] == records

    def test_canonical_forms_are_unique(self, capsys, tmp_path):
        out_path = tmp_path / "nets.jsonl"
        run(capsys, "enumerate", "--species", "2", "--max-coeff", "2",
            "--out", str(out_path))
        lines = out_path.read_text().splitlines()
        assert len(lines) == 206
        keys = set()
        for line in lines:
            net = parse_network("\n".join(json.loads(line)["network"]))
            keys.add(canonical_key(net.reactions))
        assert len(keys) == 206

    def test_two_species_histogram(self, capsys, tmp_path):
        out_path = tmp_path / "nets.jsonl"
        code, out, _ = run(
            capsys, "enumerate", "--species", "2", "--max-coeff", "2",
            "--out", str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["by_tag"] == {
            "finite-at-most-two": 102,
            "infinitely-many": 10,
            "zero": 94,
        }

    def test_jobs_deterministic(self, capsys, tmp_path):
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for species in ("1", "2"):
            run(capsys, "enumerate", "--species", species, "--max-coeff", "2",
                "--out", str(serial))
            run(capsys, "enumerate", "--species", species, "--max-coeff", "2",
                "--jobs", "2", "--out", str(parallel))
            assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize(
        "species,bound,jobs,cpus,size",
        [
            (1, 1, 1000, 64, 4),  # 4 cells
            (1, 2, 8, 3, 3),  # 16 cells, 3 CPUs
            (1, 2, 8, None, None),  # CPU count unknown: serial
            (1, 2, 1, 64, None),
        ],
    )
    def test_jobs_bounded(self, capsys, tmp_path, monkeypatch, species, bound, jobs, cpus, size):
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        serial = tmp_path / "serial.jsonl"
        pooled = tmp_path / "pooled.jsonl"
        run(capsys, "enumerate", "--species", str(species), "--max-coeff", str(bound),
            "--out", str(serial))
        monkeypatch.setattr("multiprocessing.Pool", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run(capsys, "enumerate", "--species", str(species), "--max-coeff", str(bound),
            "--jobs", str(jobs), "--out", str(pooled))
        assert sizes == ([] if size is None else [size])
        assert pooled.read_bytes() == serial.read_bytes()

    def test_gb_is_enumerated(self, gb):
        # gb's changes are multiples of (1, 1, 1): only those cells can hold it
        key = canonical_key(gb.reactions)
        assert any(
            canonical_key(parse_network("\n".join(json.loads(line)["network"])).reactions) == key
            for cell in census.cells(3, 4) if cell[2] == (1, 1, 1)
            for _, line in census.cell_records(cell)
        )

    def test_output_routing(self, capsys, tmp_path):
        # without --out the records go to stdout and the summary to stderr;
        # with --out the summary goes to stdout
        code, out, err = run(capsys, "enumerate", "--species", "1", "--max-coeff", "2")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 15 and all(set(r) == {"network", "tag", "rule", "ad"} for r in records)
        summary = json.loads(err)
        assert (summary["command"], summary["count"]) == ("enumerate", 15)
        out_path = tmp_path / "nets.jsonl"
        code, out, err = run(capsys, "enumerate", "--species", "1", "--max-coeff", "2", "--out", str(out_path))
        assert (code, err) == (0, "")
        assert json.loads(out) == summary
        assert out_path.read_text() == "".join(line + "\n" for line in map(json.dumps, records))
        code, out, err = run(capsys, "enumerate", "--species", "1", "--max-coeff", "2", "--pretty",
                             "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "enumerated 15 canonical networks (species 1, coefficients <= 2)",
            "  finite-at-most-two: 8",
            "  infinitely-many: 1",
            "  zero: 6",
        ]

    def test_matches_brute_force_census(self):
        # independent census: every 1-species reaction pair with
        # coefficients <= 2, grouped by the brute-force key
        brute = set()
        for a1, p1, a2, p2 in product(range(3), repeat=4):
            if a1 == p1 or a2 == p2:
                continue
            if (a1, p1) == (a2, p2):
                continue
            brute.add(brute_force_key((((a1,), (p1,)), ((a2,), (p2,)))))
        streamed = [brute_force_key(net.reactions) for net in enumerate_bi_networks(1, 2)]
        assert len(streamed) == len(set(streamed)) == 15
        assert set(streamed) == brute

    @pytest.mark.parametrize(
        "species,bound",
        [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)],
    )
    def test_matches_filtered_product(self, species, bound):
        # the generator decides most candidates without canonical_key; the
        # reference tries every a2 against every column-sorted (a1, p1) of a
        # cell, in the same order, and keeps the pairs that are their own key
        assert [tuple((rx.reactant, rx.product) for rx in net.reactions)
                for net in enumerate_bi_networks(species, bound)] == list(filtered_product(species, bound))


def filtered_product(species, bound):
    """Canonical pairs ``((a1, p1), (a2, p2))`` with changes ``(c1*e, c2*e)``:
    primitive ``e`` in lexicographic order, multipliers ``c, -c`` for each
    ``c``, and the full ``a1 x a2`` product of each cell, filtered by
    :func:`canonical_key`."""
    for e in product(range(-bound, bound + 1), repeat=species):
        if math.gcd(*e) != 1 or next(v for v in e if v != 0) < 0:
            continue
        cmax = bound // max(map(abs, e))
        multipliers = [m for c in range(1, cmax + 1) for m in (c, -c)]
        for c1, c2 in product(multipliers, repeat=2):
            d1, d2 = tuple(c1 * v for v in e), tuple(c2 * v for v in e)
            firsts = product(*(range(max(0, -d), bound - max(0, d) + 1) for d in d1))
            seconds = list(product(*(range(max(0, -d), bound - max(0, d) + 1) for d in d2)))
            for a1 in firsts:
                p1 = tuple(a + d for a, d in zip(a1, d1))
                if sorted(zip(a1, p1)) != list(zip(a1, p1)):
                    continue
                for a2 in seconds:
                    if a1 == a2 and d1 == d2:
                        continue
                    if not all(e[k] != 0 or a1[k] > 0 or a2[k] > 0 for k in range(species)):
                        continue
                    p2 = tuple(a + d for a, d in zip(a2, d2))
                    pair = ((a1, p1), (a2, p2))
                    if canonical_key(pair) == (a1 + p1, a2 + p2):
                        yield pair


_STARTUP_PROBE = """
import json, sys
import crn1d.cli
loaded = [name for name in ("numpy", "multiprocessing") if name in sys.modules]
import crn1d, crn1d.numeric
gp = crn1d.GProblem((1, 1), (1, -1), (0, 1))  # g = ln z + ln(1 - z), peak -2 ln 2 at z = 1/2
print(json.dumps({
    "loaded": loaded,
    "same": crn1d.oracle_count is crn1d.numeric.oracle_count,
    "module": crn1d.oracle_count.__module__,
    "count": crn1d.oracle_count(gp, -2.0),
}))
"""


def _python_env():
    src = str(Path(crn1d.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run_python(*args):
    return subprocess.run([sys.executable, *args], env=_python_env(), capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_out_numpy_and_multiprocessing():
    done = _run_python("-c", _STARTUP_PROBE)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"loaded": [], "same": True, "module": "crn1d.numeric", "count": 2}


def test_module_form_runs_the_cli():
    done = _run_python("-m", "crn1d", "classify", crn("gb"))
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["command"] == "classify"


def _enumerate_into_closed_pipe(*flags):
    """Exit code and stderr of ``enumerate`` at s=3 b=3 whose reader leaves after one line."""
    # the stream (about 2 MB) outgrows the pipe buffer, so the writer meets
    # the closed pipe long before it finishes
    argv = [sys.executable, "-m", "crn1d", "enumerate", "--species", "3", "--max-coeff", "3", *flags]
    with subprocess.Popen(argv, env=_python_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        first = json.loads(proc.stdout.readline())
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first["network"] == ["0 -> X3", "X1 + X2 -> X1 + X2 + X3"]
    return code, err


def test_closed_pipe_exits_two_without_traceback():
    code, err = _enumerate_into_closed_pipe()
    assert code == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_closed_pipe_with_workers_exits_two_without_traceback():
    code, err = _enumerate_into_closed_pipe("--jobs", "2")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1, err  # one line, so no traceback


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv, stdout_full",
    [
        (["classify", crn("gb")], True),
        (["enumerate", "--species", "1", "--max-coeff", "1"], True),
        (["enumerate", "--species", "1", "--max-coeff", "1", "--out", "/dev/full"], False),
    ],
    ids=["classify", "enumerate", "enumerate-out"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_disk_exits_two_without_traceback(argv, stdout_full, unbuffered):
    env = _python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full" if stdout_full else os.devnull, "w") as sink:
        done = subprocess.run([sys.executable, "-m", "crn1d", *argv], env=env, stdout=sink,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr, done.stderr
    assert done.stderr.startswith("error:") and "No space left on device" in done.stderr


def test_no_module_imports_a_private_name():
    """Each module uses only the public names of the others."""
    found = []
    for path in sorted(Path(crn1d.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("crn1d")):
                found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []
