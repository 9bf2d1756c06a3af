import json
import subprocess
import sys

import pytest

from ctlenum.cli import main
from ctlenum.enumeration import OracleKind, enumerate_submodels
from ctlenum.formula import parse_formula
from ctlenum.kripke import KripkeModel, save_model
from ctlenum import families


@pytest.fixture
def oven_path(tmp_path, microwave):
    path = tmp_path / "oven.json"
    save_model(microwave, str(path))
    return str(path)


@pytest.fixture
def oven_cut_path(tmp_path, microwave_cut):
    path = tmp_path / "oven-cut.json"
    save_model(microwave_cut, str(path))
    return str(path)


@pytest.fixture
def two_world_path(tmp_path, two_world_model):
    path = tmp_path / "two.json"
    save_model(two_world_model, str(path))
    return str(path)


OVEN_FORMULA = "AG (Error -> A[!Heat U !Start])"


def run_cli(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "ctlenum.cli", *argv],
        capture_output=True,
        text=True,
    )
    return result.returncode, result.stdout, result.stderr


class TestCheck:
    def test_faulty_oven(self, oven_path):
        code, out, _ = run_cli("check", "--model", oven_path, "--formula", OVEN_FORMULA)
        assert (code, out) == (0, "false\n")

    def test_strongly_interpreted_cut(self, oven_cut_path):
        # the strong until still fails on the w2 <-> w5 cycle
        code, out, _ = run_cli(
            "check", "--model", oven_cut_path, "--formula", OVEN_FORMULA
        )
        assert (code, out) == (0, "false\n")

    def test_release_variant(self, oven_path, oven_cut_path):
        weak = "AG (Error -> A[!Start R (!Heat | !Start)])"
        assert run_cli("check", "--model", oven_path, "--formula", weak)[1] == "false\n"
        assert (
            run_cli("check", "--model", oven_cut_path, "--formula", weak)[1] == "true\n"
        )

    def test_malformed_model(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run_cli("check", "--model", str(bad), "--formula", "true")
        assert code == 2
        assert "error" in err

    def test_missing_file(self):
        code, _, _ = run_cli("check", "--model", "/nonexistent.json", "--formula", "true")
        assert code == 2

    def test_bad_formula(self, two_world_path):
        code, _, err = run_cli("check", "--model", two_world_path, "--formula", "p &")
        assert code == 2
        assert "expected" in err

    def test_formula_nested_deeply(self, two_world_path):
        # parentheses and A[..] nest on the parser's own stack, as prefix
        # and implication chains do (TestEnumerate::test_deep_formula_chains)
        for text, shallow in (
            ("(" * 3000 + "p" + ")" * 3000, "p"),
            ("A[" * 2000 + "p" + " U q]" * 2000, "A[p U q]"),
        ):
            code, out, err = run_cli("check", "--model", two_world_path, "--formula", text)
            assert (code, err) == (0, "")
            assert out == run_cli("check", "--model", two_world_path, "--formula", shallow)[1]
        code, out, err = run_cli(
            "check", "--model", two_world_path, "--formula", "(" * 3000 + "p" + ")" * 2999
        )
        assert (code, out) == (2, "")
        assert err == "error: 1:6001: expected ')', found end of input\n"

    def test_model_nested_too_deeply(self, tmp_path):
        # JSON decoding still recurses: a model nested past the limit is
        # refused with exit code 2
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run_cli("check", "--model", str(path), "--formula", "true")
        assert (code, out) == (2, "")
        assert err == "error: input nested too deeply\n"

    def test_invalid_model(self, tmp_path):
        path = tmp_path / "nontotal.json"
        path.write_text(
            json.dumps(
                {"worlds": [{"id": "r", "labels": []}], "edges": [], "root": "r"}
            )
        )
        code, _, _ = run_cli("check", "--model", str(path), "--formula", "true")
        assert code == 2

    @pytest.mark.parametrize("label", [["x"], 3])
    def test_non_string_label(self, tmp_path, label):
        path = tmp_path / "labels.json"
        path.write_text(
            json.dumps(
                {"worlds": [{"id": "r", "labels": [label]}], "edges": [["r", "r"]], "root": "r"}
            )
        )
        for command in ("check", "exists", "enumerate"):
            code, out, err = run_cli(command, "--model", str(path), "--formula", "true")
            assert (code, out) == (2, "")
            assert err.startswith("error: bad world entry")

    def test_not_utf8_input(self, two_world_path, tmp_path):
        # a UTF-16 byte-order mark is not UTF-8: a parse error, no traceback
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + "true".encode("utf-16-le"))
        for argv in (
            ("check", "--model", str(path), "--formula", "true"),
            ("check", "--model", two_world_path, "--formula-file", str(path)),
            ("reduce", "hampath-af", "--digraph", str(path), "--out", str(tmp_path / "out")),
        ):
            code, out, err = run_cli(*argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: ")
            assert "Traceback" not in err

    def test_formula_file(self, two_world_path, tmp_path):
        formula_path = tmp_path / "phi.txt"
        formula_path.write_text("true\n")
        code, out, _ = run_cli(
            "check", "--model", two_world_path, "--formula-file", str(formula_path)
        )
        assert (code, out) == (0, "true\n")


class TestExists:
    def test_counterexample(self, tmp_path, cycle_counterexample):
        path = tmp_path / "m0.json"
        save_model(cycle_counterexample, str(path))
        code, out, _ = run_cli("exists", "--model", str(path), "--formula", "AG AF x")
        assert (code, out) == (0, "false\n")

    def test_revisit_example(self, tmp_path, revisit_example):
        path = tmp_path / "ex.json"
        save_model(revisit_example, str(path))
        code, out, _ = run_cli(
            "exists", "--model", str(path), "--formula", "AF AG AG AF x"
        )
        assert (code, out) == (0, "true\n")

    def test_unlabeled_model(self, two_world_path):
        code, out, _ = run_cli("exists", "--model", two_world_path, "--formula", "AF p")
        assert (code, out) == (0, "false\n")


class TestEnumerate:
    def test_three_lines(self, two_world_path):
        code, out, _ = run_cli("enumerate", "--model", two_world_path, "--formula", "true")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert len(set(lines)) == 3
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {"worlds", "edges"}

    def test_zero_solutions_exit_zero(self, two_world_path):
        code, out, _ = run_cli(
            "enumerate", "--model", two_world_path, "--formula", "false"
        )
        assert (code, out) == (0, "")

    def test_limit(self, two_world_path):
        code, out, _ = run_cli(
            "enumerate", "--model", two_world_path, "--formula", "true", "--limit", "1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1

    def test_out_under_a_file(self, two_world_path, tmp_path):
        # NotADirectoryError: a path error, no traceback
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(
            "enumerate", "--model", two_world_path, "--formula", "true", "--out", str(taken / "x")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("oracle", ["auto", "brute"])
    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_rejected(self, tmp_path, oracle, limit):
        path = tmp_path / "chain3.json"
        save_model(families.chain_models(3), str(path))
        code, out, err = run_cli(
            "enumerate", "--model", str(path), "--formula", "EF p",
            "--oracle", oracle, "--limit", limit,
        )
        assert (code, out) == (2, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"ctlenum enumerate: error: argument --limit: must be an integer "
            f"of at least 1, not '{limit}'"
        ]

    def test_oracle_mismatch_exit_code(self, two_world_model, two_world_path):
        # the oracle is chosen by the formula as written, not by its
        # negation normal form: !AG !x is EF x and !EF !x is AG x
        for text, oracle in (("AG x", "monotone"), ("!AG !x", "monotone"), ("!EF !x", "afag")):
            code, _, _ = run_cli(
                "enumerate",
                "--model",
                two_world_path,
                "--formula",
                text,
                "--oracle",
                oracle,
            )
            assert code == 3
        for text in ("!AG !x", "!EF !x"):
            session = enumerate_submodels(two_world_model, parse_formula(text))
            assert session.oracle_kind is OracleKind.EXHAUSTIVE

    def test_stats_appended(self, two_world_path):
        code, out, _ = run_cli(
            "enumerate", "--model", two_world_path, "--formula", "true", "--stats"
        )
        assert code == 0
        lines = out.strip().splitlines()
        stats = json.loads(lines[-1])
        assert stats["solutions"] == 3
        assert len(stats["delays_ns"]) == 4
        assert len(stats["oracle_calls"]) == 4
        assert stats["fallback_queries"] == 0
        # the root's closure satisfies `true`, which has no E-operator: the
        # root settles without a must pass
        assert (stats["must_passes"], stats["settled"]) == (0, 1)
        assert stats["may_passes"] == 0

    def test_stats_count_may_passes(self, tmp_path):
        # every closure that keeps a world's self-loop fails AF q; the may
        # pass over its kept edges prunes the nodes that keep one
        chain = families.chain_models(6)
        model = KripkeModel.of(
            [(w.id, ["q"] if w.id == "w6" else []) for w in chain.worlds],
            chain.edges,
            chain.root,
        )
        path = tmp_path / "chain.json"
        save_model(model, str(path))
        code, out, _ = run_cli(
            "enumerate", "--model", str(path), "--formula", "AF q", "--stats"
        )
        assert code == 0
        *lines, last = out.strip().splitlines()
        assert len(lines) == 1
        stats = json.loads(last)
        session = enumerate_submodels(model, parse_formula("AF q"))
        assert len(list(session)) == 1
        assert stats["may_passes"] == session.stats.may_passes > 0
        assert stats["settled"] == 0

    def test_brute_oracle_agrees(self, two_world_path):
        fast = run_cli("enumerate", "--model", two_world_path, "--formula", "true")[1]
        brute = run_cli(
            "enumerate",
            "--model",
            two_world_path,
            "--formula",
            "true",
            "--oracle",
            "brute",
        )[1]
        assert set(fast.strip().splitlines()) == set(brute.strip().splitlines())

    @pytest.mark.parametrize("limit", [None, 2])
    def test_brute_stats(self, two_world_path, limit):
        argv = ["enumerate", "--model", two_world_path, "--formula", "true"]
        argv += ["--oracle", "brute", "--stats"]
        if limit is not None:
            argv += ["--limit", str(limit)]
        code, out, _ = run_cli(*argv)
        assert code == 0
        *lines, last = out.strip().splitlines()
        expected = 3 if limit is None else limit
        assert len(lines) == expected
        assert lines == sorted(lines)
        stats = json.loads(last)
        assert stats["solutions"] == expected
        assert len(stats["delays_ns"]) == expected + 1
        assert stats["oracle_calls"] == [0] * (expected + 1)
        assert stats["fallback_queries"] == stats["may_passes"] == 0
        assert stats["must_passes"] == stats["settled"] == 0

    def test_include_disconnected(self, tmp_path):
        from ctlenum.kripke import KripkeModel

        model = KripkeModel.of(
            [("r", []), ("a", [])], [("r", "r"), ("a", "a")], "r"
        )
        path = tmp_path / "split.json"
        save_model(model, str(path))
        connected = run_cli("enumerate", "--model", str(path), "--formula", "true")[1]
        both = run_cli(
            "enumerate",
            "--model",
            str(path),
            "--formula",
            "true",
            "--include-disconnected",
        )[1]
        assert len(connected.strip().splitlines()) == 1
        assert len(both.strip().splitlines()) == 2

    def test_byte_identical_runs(self, oven_path):
        first = run_cli(
            "enumerate", "--model", oven_path, "--formula", OVEN_FORMULA
        )
        second = run_cli(
            "enumerate", "--model", oven_path, "--formula", OVEN_FORMULA
        )
        assert first == second
        assert first[0] == 0
        lines = first[1].splitlines()
        assert len(lines) == len(set(lines)) > 0

    def test_out_file(self, two_world_path, tmp_path):
        out_path = tmp_path / "solutions.jsonl"
        code, stdout, _ = run_cli(
            "enumerate",
            "--model",
            two_world_path,
            "--formula",
            "true",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert stdout == ""
        assert len(out_path.read_text().strip().splitlines()) == 3

    def test_streams_before_search_finishes(self, tmp_path):
        # the first solution must be observable while the enumeration of
        # the remaining ~16k solutions is still running
        model = families.chain_models(14)
        path = tmp_path / "chain.json"
        save_model(model, str(path))
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "ctlenum.cli",
                "enumerate",
                "--model",
                str(path),
                "--formula",
                "EF p",
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            first = process.stdout.readline()
            assert first.startswith('{"worlds"')
            assert process.poll() is None
        finally:
            process.kill()
            process.wait()

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # the reader stops after one line, as `| head -1` does
        model = families.chain_models(14)
        path = tmp_path / "chain.json"
        save_model(model, str(path))
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "ctlenum.cli",
                "enumerate",
                "--model",
                str(path),
                "--formula",
                "EF p",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert process.stdout.readline().startswith('{"worlds"')
            process.stdout.close()
            assert process.wait(timeout=60) == 0
            assert process.stderr.read() == ""
        finally:
            process.kill()
            process.wait()
            process.stderr.close()

    @pytest.mark.parametrize(
        "formula, shallow",
        [("!" * 10000 + "p", "p"), (" -> ".join(["p"] * 10000), "!p | p")],
        ids=["not", "implies"],
    )
    def test_deep_formula_chains(self, tmp_path, formula, shallow):
        # 10,000 prefixes or implications parse without recursion and
        # enumerate what an equivalent shallow formula does
        path = tmp_path / "labelled.json"
        save_model(
            KripkeModel.of(
                [("r", ["p"]), ("w", [])], [("r", "r"), ("r", "w"), ("w", "w")], "r"
            ),
            str(path),
        )
        code, out, err = run_cli("enumerate", "--model", str(path), "--formula", formula)
        assert (code, err) == (0, "")
        assert out == run_cli("enumerate", "--model", str(path), "--formula", shallow)[1]
        assert len(out.splitlines()) == 3

    def test_deep_model(self, tmp_path):
        # a ground set of 1,199 elements: the search must not recurse per element
        path = tmp_path / "chain400.json"
        save_model(families.chain_models(400), str(path))
        code, out, err = run_cli(
            "enumerate", "--model", str(path), "--formula", "EF p", "--limit", "1"
        )
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1
        assert out.startswith('{"worlds"')


class TestTrim:
    def test_worked_example(self):
        code, out, _ = run_cli("trim", "--formula", "AF AG AG AF x")
        assert (code, out) == (0, "AG AF x\n")

    def test_fixed_point(self):
        code, out, _ = run_cli("trim", "--formula", "AG x")
        assert (code, out) == (0, "AG x\n")

    def test_not_a_chain(self):
        code, _, err = run_cli("trim", "--formula", "EF x")
        assert code == 4
        assert "chain" in err


class TestReduce:
    def test_sat_ag_writes_files(self, tmp_path, xor_formula, microwave):
        out_dir = tmp_path / "xor"
        code, out, _ = run_cli(
            "reduce",
            "sat-ag",
            "--formula",
            "(x1 & !x2) | (!x1 & x2)",
            "--out",
            str(out_dir),
        )
        assert code == 0
        paths = out.strip().splitlines()
        assert len(paths) == 3
        model = json.loads((out_dir / "model.json").read_text())
        assert [w["id"] for w in model["worlds"]] == [
            "w0",
            "w1^0",
            "w1^1",
            "w2^0",
            "w2^1",
        ]
        formula_text = (out_dir / "formula.txt").read_text().strip()
        assert "AG" in formula_text
        provenance = json.loads((out_dir / "provenance.json").read_text())
        assert provenance["construction"] == "sat-ag"

    def test_diamond_reduction(self, tmp_path, square_digraph):
        from ctlenum.reductions import digraph_to_dict

        digraph_path = tmp_path / "square.json"
        digraph_path.write_text(json.dumps(digraph_to_dict(square_digraph)))
        out_dir = tmp_path / "au"
        code, _, _ = run_cli(
            "reduce", "hampath-au", "--digraph", str(digraph_path), "--out", str(out_dir)
        )
        assert code == 0
        formula_text = (out_dir / "formula.txt").read_text().strip()
        assert formula_text == "A[A[A[A[A[true U x_t] U x1] U x2] U x3] U x4]"
        model = json.loads((out_dir / "model.json").read_text())
        assert len(model["worlds"]) == 24

    def test_source_equals_target(self, tmp_path):
        digraph_path = tmp_path / "loop.json"
        digraph_path.write_text(
            json.dumps(
                {"vertices": ["s"], "edges": [], "source": "s", "target": "s"}
            )
        )
        code, _, _ = run_cli(
            "reduce", "hampath-af", "--digraph", str(digraph_path), "--out", str(tmp_path)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "formula, message",
        [
            ("AG p", "error: not a propositional formula in NNF: AG p\n"),
            ("!(x1 | x2)", "error: not a propositional formula in NNF: !(x1 | x2)\n"),
            ("true", "error: at least one variable is required\n"),
        ],
    )
    def test_sat_ag_bad_formula(self, tmp_path, formula, message):
        out_dir = tmp_path / "bad"
        code, out, err = run_cli("reduce", "sat-ag", "--formula", formula, "--out", str(out_dir))
        assert (code, out, err) == (2, "", message)
        assert not out_dir.exists()

    @pytest.mark.parametrize("encoding", ["negation", "relabel"])
    def test_sat_ag_flat_cnf(self, tmp_path, encoding):
        # a 1,500-clause & chain parses in a loop and is left-deep; the
        # reduction's NNF check, substitution and rendering must not recurse
        from ctlenum.formula import parse_formula
        from ctlenum.reductions import sat_to_ag

        names = [f"x{i}" for i in range(12)]
        clauses = [
            f"({names[i % 12]} | !{names[(i * 5 + 1) % 12]} | {names[(i * 7 + 3) % 12]})"
            for i in range(1500)
        ]
        text = " & ".join(clauses)
        source = tmp_path / "cnf.txt"
        source.write_text(text)
        out_dir = tmp_path / "flat"
        code, _, err = run_cli(
            "reduce", "sat-ag", "--formula-file", str(source),
            "--encoding", encoding, "--out", str(out_dir),
        )
        assert (code, err) == (0, "")
        written = parse_formula((out_dir / "formula.txt").read_text())
        assert written == sat_to_ag(parse_formula(text), encoding=encoding).formula

    def test_out_is_a_file(self, tmp_path, square_digraph):
        # FileExistsError: a path error, no traceback
        from ctlenum.reductions import digraph_to_dict

        digraph_path = tmp_path / "g.json"
        digraph_path.write_text(json.dumps(digraph_to_dict(square_digraph)))
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(
            "reduce", "hampath-ax", "--digraph", str(digraph_path), "--out", str(taken)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "Traceback" not in err
        assert taken.read_text() == ""

    @pytest.mark.parametrize("kind", ["hampath-af", "hampath-ax", "hampath-au", "hampath-ar"])
    def test_formula_file_reads_back(self, tmp_path, kind):
        # every character an atom allows, in vertex ids; the path is
        # s, a_1, B2^x, t
        digraph = {
            "vertices": ["s", "a_1", "B2^x", "t"],
            "edges": [["s", "a_1"], ["a_1", "B2^x"], ["B2^x", "t"], ["s", "t"]],
            "source": "s",
            "target": "t",
        }
        digraph_path = tmp_path / "g.json"
        digraph_path.write_text(json.dumps(digraph))
        out_dir = tmp_path / kind
        code, _, _ = run_cli("reduce", kind, "--digraph", str(digraph_path), "--out", str(out_dir))
        assert code == 0
        code, out, err = run_cli(
            "exists", "--model", str(out_dir / "model.json"),
            "--formula-file", str(out_dir / "formula.txt"),
        )
        assert (code, out, err) == (0, "true\n", "")

    @pytest.mark.parametrize("vertex", ["a-1", "a b", "1.5", "é"])
    def test_vertex_without_atom(self, tmp_path, vertex):
        digraph = {
            "vertices": ["s", vertex, "t"],
            "edges": [["s", vertex], [vertex, "t"]],
            "source": "s",
            "target": "t",
        }
        digraph_path = tmp_path / "g.json"
        digraph_path.write_text(json.dumps(digraph))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            "reduce", "hampath-af", "--digraph", str(digraph_path), "--out", str(out_dir)
        )
        assert (code, out) == (2, "")
        assert err == f"error: vertex {vertex!r} does not make an atom x_{vertex}\n"
        assert not out_dir.exists()

    def test_missing_input(self, tmp_path):
        for kind, needed in (("hampath-af", "--digraph"), ("sat-ag", "--formula")):
            code, _, err = run_cli("reduce", kind, "--out", str(tmp_path))
            assert code == 2
            assert err.startswith("error: ")
            assert needed in err


class TestMainEntry:
    def test_in_process_exit_codes(self, two_world_path):
        assert main(["check", "--model", two_world_path, "--formula", "true"]) == 0
        assert main(["check", "--model", two_world_path, "--formula", "(("]) == 2
        assert main(["trim", "--formula", "p & q"]) == 4
