"""Command line behavior: output text, JSON shapes, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gqsm.cli import main
from gqsm.parser import parse_program
from gqsm.quantifiers import Registry
from gqsm.solver import compare_semantics

from conftest import COUNT_GUARD, NEGATIVE_LOOP, SUM_THRESHOLD

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


@pytest.fixture
def sum_path(tmp_path):
    p = tmp_path / "sum_threshold.gq"
    p.write_text(SUM_THRESHOLD)
    return str(p)


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return go


def test_solve_default_is_sm_operator(run, sum_path):
    code, out, err = run("solve", sum_path)
    assert code == 0
    assert out == "Answer 1: p(-1) p(1)\nAnswer 2: p(-1) p(1) p(2)\n"
    assert err == ""


def test_solve_grid_with_sections_and_agreement(run, sum_path):
    code, out, _ = run(
        "solve", sum_path, "--semantics", "both", "--route", "both"
    )
    assert code == 0
    assert out == (
        "== sm route=reduct\n"
        "Answer 1: p(-1) p(1)\n"
        "Answer 2: p(-1) p(1) p(2)\n"
        "== sm route=operator\n"
        "Answer 1: p(-1) p(1)\n"
        "Answer 2: p(-1) p(1) p(2)\n"
        "== flp route=reduct\n"
        "skipped: the flp semantics has no reduct route\n"
        "== flp route=operator\n"
        "Answer 1: p(-1) p(1)\n"
        "== agreement\n"
        "all computed model sets agree: no\n"
    )


def test_solve_unsatisfiable(run, tmp_path):
    p = tmp_path / "loop.gq"
    p.write_text(NEGATIVE_LOOP)
    code, out, _ = run("solve", str(p))
    assert code == 0
    assert out == "UNSATISFIABLE\n"


def test_solve_prints_empty_answers_without_trailing_space(run, tmp_path):
    p = tmp_path / "empty.gq"
    p.write_text("#universe {1}.\np(1) :- q(1).\n")
    code, out, _ = run("solve", str(p))
    assert code == 0
    assert out == "Answer 1:\n"


def test_solve_reads_stdin(run, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(SUM_THRESHOLD))
    code, out, _ = run("solve", "-")
    assert code == 0
    assert "Answer 2: p(-1) p(1) p(2)" in out


def test_solve_json_shape(run, sum_path):
    code, out, _ = run(
        "solve", sum_path, "--format", "json", "--semantics", "both",
        "--route", "operator",
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["semantics"] for r in doc["results"]] == ["sm", "flp"]
    assert doc["results"][0]["models"] == [
        ["p(-1)", "p(1)"],
        ["p(-1)", "p(1)", "p(2)"],
    ]
    assert doc["agreement"] == {"agree": False}
    # keys are sorted and the document ends with a newline
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_solve_json_notes_skipped_cells(run, sum_path):
    code, out, _ = run(
        "solve", sum_path, "--format", "json", "--semantics", "flp",
        "--route", "both",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 1
    assert doc["skipped"] == [
        {
            "semantics": "flp",
            "route": "reduct",
            "note": "the flp semantics has no reduct route",
        }
    ]


def test_solve_errors_when_nothing_can_run(run, sum_path):
    code, out, err = run(
        "solve", sum_path, "--semantics", "flp", "--route", "reduct"
    )
    assert code == 1
    assert out == ""
    assert err == "error: the flp semantics has no reduct route\n"


def test_ground_output(run, sum_path):
    code, out, _ = run("ground", sum_path)
    assert code == 0
    assert out == (
        "not sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } < 2 -> p(2)\n"
        "sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } > -1 -> p(-1)\n"
        "p(-1) -> p(1)\n"
    )


def test_ground_json(run, sum_path):
    code, out, _ = run("ground", sum_path, "--format", "json")
    doc = json.loads(out)
    (entry,) = doc["results"]
    assert entry["command"] == "ground"
    assert len(entry["rules"]) == 3
    assert entry["rules"][2]["quantifier"] == "impl"


def test_reduct_simplified_and_exact(run, sum_path):
    code, out, _ = run("reduct", sum_path, "--model", "p(-1), p(1), p(2)")
    assert code == 0
    assert out.splitlines()[0] == "top -> p(2)"
    code, out, _ = run(
        "reduct", sum_path, "--model", "p(-1), p(1), p(2)", "--no-simplify"
    )
    assert out.splitlines()[0] == "(bot -> bot) -> p(2)"


def test_reduct_of_the_smaller_model(run, sum_path):
    code, out, _ = run(
        "reduct", sum_path, "--model", "p(-1), p(1)", "--no-simplify"
    )
    assert out == (
        "bot -> bot\n"
        "sum{ -1 : p(-1); 1 : p(1); 2 : bot } > -1 -> p(-1)\n"
        "p(-1) -> p(1)\n"
    )


def test_reduct_json_counts_replacements(run, sum_path):
    code, out, _ = run(
        "reduct", sum_path, "--model", "p(-1), p(1)", "--format", "json",
        "--no-simplify",
    )
    doc = json.loads(out)
    (entry,) = doc["results"]
    assert entry["command"] == "reduct"
    assert entry["model"] == ["p(-1)", "p(1)"]
    assert [r["replaced"] for r in entry["rules"]] == [2, 1, 0]
    assert entry["rules"][0]["text"] == "bot -> bot"


def test_compare_text(run, tmp_path):
    p = tmp_path / "guard.gq"
    p.write_text(COUNT_GUARD)
    code, out, _ = run("compare", str(p))
    assert code == 0
    assert out == (
        "== sm route=operator\n"
        "Answer 1:\n"
        "Answer 2: p(a)\n"
        "== flp route=operator\n"
        "Answer 1:\n"
        "== agreement\n"
        "in class: no\n"
        "  rule 1: not atmost(0){X : p(X)}: quantifier 'atmost(0)' is not"
        " monotone in every position, so it cannot be negated\n"
        "difference: 1 model(s)\n"
        "  p(a)\n"
        "agreement violated: no\n"
    )


def test_compare_text_of_two_atoms_guarding_each_other(run, tmp_path):
    # p(a) and q(a) read each other only inside quantifier arguments, so
    # they are one block of the dependency graph
    p = tmp_path / "mutual.gq"
    p.write_text(
        "#universe {a}.\n"
        "p(a) :- not atmost(0){X : q(X)}.\n"
        "q(a) :- not atmost(0){X : p(X)}.\n"
    )
    code, out, _ = run("compare", str(p))
    assert code == 0
    assert out == (
        "== sm route=operator\n"
        "Answer 1:\n"
        "Answer 2: p(a) q(a)\n"
        "== flp route=operator\n"
        "Answer 1:\n"
        "== agreement\n"
        "in class: no\n"
        "  rule 1: not atmost(0){X : q(X)}: quantifier 'atmost(0)' is not"
        " monotone in every position, so it cannot be negated\n"
        "  rule 2: not atmost(0){X : p(X)}: quantifier 'atmost(0)' is not"
        " monotone in every position, so it cannot be negated\n"
        "difference: 1 model(s)\n"
        "  p(a) q(a)\n"
        "agreement violated: no\n"
    )


def test_compare_in_class_text(run, tmp_path):
    p = tmp_path / "plain.gq"
    p.write_text("#universe {1, 2}.\np(1) | p(2).\nq(X) :- p(X).\n")
    code, out, _ = run("compare", str(p))
    assert code == 0
    assert "in class: yes\n" in out
    assert "difference: none\n" in out
    assert "agreement violated: no\n" in out


def test_compare_json(run, tmp_path):
    p = tmp_path / "guard.gq"
    p.write_text(COUNT_GUARD)
    code, out, _ = run("compare", str(p), "--format", "json")
    doc = json.loads(out)
    assert doc["agreement"]["in_class"] is False
    assert doc["agreement"]["difference"] == [["p(a)"]]
    assert doc["agreement"]["agreement_violated"] is False
    assert doc["results"][0]["semantics"] == "sm"
    # the document is the report's own
    registry = Registry()
    assert doc == compare_semantics(parse_program(COUNT_GUARD, registry), registry).to_json()


def test_parse_errors_exit_1_with_position(run, tmp_path):
    p = tmp_path / "bad.gq"
    p.write_text("#universe {1}.\np(2).\n")
    code, out, err = run("solve", str(p))
    assert code == 1
    assert out == ""
    assert err == f"{p}:2:3: constant 2 is not a universe element\n"


LONG_INT = "7" * 5000  # more digits than Python's int() reads from text


@pytest.mark.parametrize(
    "text, args, want",
    [
        (f"p({LONG_INT}).\n", ("solve",), "1:3"),
        (f"#universe {{{LONG_INT}}}.\np.\n", ("ground",), "1:12"),
        (f"#universe {{1}}.\nq :- atleast({LONG_INT}){{X : p(X)}}.\n", ("solve",), "2:14"),
    ],
    ids=["term", "universe", "quantifier parameter"],
)
def test_an_over_long_integer_literal_is_a_parse_error(run, tmp_path, text, args, want):
    p = tmp_path / "long.gq"
    p.write_text(text)
    assert run(*args, str(p)) == (1, "", f"{p}:{want}: integer literal too long (5000 digits)\n")


def test_an_over_long_integer_in_a_model_is_a_parse_error(run, sum_path):
    assert run("reduct", sum_path, "--model", f"p(1), p({LONG_INT})") == (
        1,
        "",
        "<model>:1:9: integer literal too long (5000 digits)\n",
    )


@pytest.mark.parametrize("digit", ["٣", "１", "²"])
def test_integers_are_ascii_digits(run, tmp_path, digit):
    p = tmp_path / "digit.gq"
    p.write_text(f"#universe {{1, 3}}.\np(1{digit}).\n")
    assert run("solve", str(p)) == (1, "", f"{p}:2:4: unexpected character {digit!r}\n")


def test_an_unexpected_character_after_a_comment_is_placed_after_it(run, tmp_path):
    p = tmp_path / "bad.gq"
    p.write_text("#universe {1}. % one\n  % two\n\tp(1) :- ? .\n")
    assert run("solve", str(p)) == (1, "", f"{p}:3:10: unexpected character '?'\n")


def test_a_text_run_does_not_import_json(tmp_path):
    # json is loaded only for --format json, so a cold start skips it
    p = tmp_path / "p.gq"
    p.write_text(SUM_THRESHOLD)
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import gqsm.cli\n"
        "assert 'json' not in sys.modules, 'import gqsm.cli loaded json'\n"
        f"assert gqsm.cli.main(['solve', {str(p)!r}]) == 0\n"
        "assert 'json' not in sys.modules, 'a text solve loaded json'\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Answer 1: p(-1) p(1)\nAnswer 2: p(-1) p(1) p(2)\n"


def test_missing_file_exits_1(run):
    code, out, err = run("solve", "/no/such/file.gq")
    assert code == 1
    assert err.startswith("error: ")


def test_cap_overflow_exits_2(run, tmp_path):
    lines = ["#universe {1, 2, 3}."]
    for q in "abcdefghi":
        for e in (1, 2, 3):
            lines.append(f"x{q}({e}).")
    p = tmp_path / "big.gq"
    p.write_text("\n".join(lines) + "\n")
    code, out, err = run("solve", str(p))
    assert code == 2
    assert "2**27 candidate sets" in err


def test_bad_cap_env_exits_1(run, sum_path, monkeypatch):
    monkeypatch.setenv("GQSM_ATOM_CAP", "many")
    code, _, err = run("solve", sum_path)
    assert code == 1
    assert "GQSM_ATOM_CAP must be an integer" in err


def test_negative_cap_env_exits_1(run, sum_path, monkeypatch):
    monkeypatch.setenv("GQSM_ATOM_CAP", "-1")
    code, out, err = run("solve", sum_path)
    assert (code, out) == (1, "")
    assert err == "error: GQSM_ATOM_CAP must not be negative, got -1\n"


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_negative_cap_flag_exits_1(run, sum_path, command):
    code, out, err = run(command, sum_path, "--cap", "-1")
    assert (code, out) == (1, "")
    assert err == "error: the atom cap (--cap or cap=) must not be negative, got -1\n"


@pytest.mark.parametrize("rules", [1_200, 10_000])
def test_long_programs_solve_on_the_operator_route(run, tmp_path, rules):
    p = tmp_path / "long.gq"
    p.write_text("#universe {1}.\n" + "p :- not q.\n" * rules)
    code, out, err = run("solve", str(p), "--route", "operator")
    assert (code, out, err) == (0, "Answer 1: p\n", "")
    code, out, err = run("compare", str(p))
    assert (code, err) == (0, "")
    assert out.startswith(
        "== sm route=operator\nAnswer 1: p\n== flp route=operator\nAnswer 1: p\n"
    )
    assert out.endswith("difference: none\nagreement violated: no\n")


def test_unknown_model_atom_exits_1(run, sum_path):
    code, _, err = run("reduct", sum_path, "--model", "zz(1)")
    assert code == 1
    assert "no predicate named 'zz'" in err


def test_help_exits_0(run):
    # argparse raises SystemExit internally; main converts it to a code
    code, out, _ = run("--help")
    assert code == 0
    assert "solve" in out


def test_missing_required_argument_exits_nonzero(run, sum_path):
    code, _, err = run("reduct", sum_path)
    assert code != 0


def test_output_is_deterministic(run, sum_path):
    first = run("solve", sum_path, "--semantics", "both", "--route", "both")
    second = run("solve", sum_path, "--semantics", "both", "--route", "both")
    assert first == second
    jf = run("compare", sum_path, "--format", "json")
    js = run("compare", sum_path, "--format", "json")
    assert jf == js


@pytest.mark.parametrize("literals", [1_200, 10_000])
def test_long_bodies_solve_on_the_operator_route(run, tmp_path, literals):
    p = tmp_path / "long_body.gq"
    p.write_text("#universe {1}.\np :- " + ", ".join(["not q"] * literals) + ".\n")
    for args in (("--route", "operator"), ("--semantics", "flp")):
        code, out, err = run("solve", str(p), *args)
        assert (code, out, err) == (0, "Answer 1: p\n", ""), args
    code, out, err = run("compare", str(p))
    assert (code, err) == (0, "")
    assert out.startswith(
        "== sm route=operator\nAnswer 1: p\n== flp route=operator\nAnswer 1: p\n"
    )
    assert out.endswith("difference: none\nagreement violated: no\n")


@pytest.mark.parametrize("literals", [1_200, 10_000])
def test_long_bodies_solve_on_the_reduct_route(run, tmp_path, literals):
    p = tmp_path / "long_body.gq"
    p.write_text("#universe {1}.\np :- " + ", ".join(["not q"] * literals) + ".\n")
    code, out, err = run("solve", str(p), "--route", "reduct")
    assert (code, out, err) == (0, "Answer 1: p\n", "")
    code, out, err = run("solve", str(p), "--semantics", "both", "--route", "both")
    assert (code, err) == (0, "")
    assert out == (
        "== sm route=reduct\nAnswer 1: p\n"
        "== sm route=operator\nAnswer 1: p\n"
        "== flp route=reduct\nskipped: the flp semantics has no reduct route\n"
        "== flp route=operator\nAnswer 1: p\n"
        "== agreement\nall computed model sets agree: yes\n"
    )


@pytest.mark.parametrize("literals", [1_200, 10_000])
def test_long_bodies_print_on_ground_and_reduct(run, tmp_path, literals):
    p = tmp_path / "long_body.gq"
    p.write_text("#universe {1}.\np :- " + ", ".join(["not q"] * literals) + ".\n")
    code, out, err = run("ground", str(p))
    assert (code, out, err) == (0, " & ".join(["not q"] * literals) + " -> p\n", "")
    code, out, err = run("reduct", str(p), "--model", "p")
    assert (code, out, err) == (0, "top -> p\n", "")
    code, out, err = run("reduct", str(p), "--model", "p", "--no-simplify")
    assert (code, err) == (0, "")
    assert out == " & ".join(["(bot -> bot)"] * literals) + " -> p\n"


@pytest.mark.parametrize("literals", [250, 1_200, 10_000])
def test_ground_json_refuses_long_bodies_with_one_error_line(run, tmp_path, literals):
    p = tmp_path / "long_body.gq"
    p.write_text("#universe {1}.\np :- " + ", ".join(["not q"] * literals) + ".\n")
    code, out, err = run("ground", str(p), "--format", "json")
    assert (code, out) == (1, "")
    assert err == (
        "error: the ground rules nest too deeply for JSON output; "
        "the text format prints them\n"
    )


NESTED = {
    "600 not": "#universe {1}.\np :- " + "not " * 600 + "q.\n",
    "1,000 not": "#universe {1}.\np :- " + "not " * 1_000 + "q.\n",
    "200 parentheses": "#universe {1}.\np :- " + "(" * 200 + "q" + ")" * 200 + ".\n",
}
COMMANDS = (
    ("solve", "--route", "reduct"),
    ("solve", "--route", "operator"),
    ("solve", "--semantics", "flp"),
    ("solve", "--semantics", "both", "--route", "both"),
    ("compare",),
    ("ground",),
    ("ground", "--format", "json"),
    ("reduct", "--model="),
)
NESTING_ERROR = "error: the program nests too deeply to read\n"
JSON_NESTING_ERROR = (
    "error: the ground rules nest too deeply for JSON output; the text format prints them\n"
)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
@pytest.mark.parametrize("label", NESTED)
def test_deep_nesting_answers_or_fails_with_one_error_line(run, tmp_path, label, command):
    p = tmp_path / "nested.gq"
    p.write_text(NESTED[label])
    code, out, err = run(command[0], str(p), *command[1:])
    if label == "600 not" and command == ("ground", "--format", "json"):
        # grounding answers; the JSON of the ground rule nests too deeply
        assert (code, out, err) == (1, "", JSON_NESTING_ERROR)
    elif code == 0:
        assert out and err == ""
    else:
        assert (code, out, err) == (1, "", NESTING_ERROR)


def test_compare_answers_600_nots_as_both_of_its_scans_do(run, tmp_path):
    # the class report renders each body literal, a chain of nots in a loop
    p = tmp_path / "nested.gq"
    p.write_text(NESTED["600 not"])
    code, out, err = run("compare", str(p))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:4] == ["== sm route=operator", "Answer 1:", "== flp route=operator", "Answer 1:"]
    assert lines[5] == "in class: no"
    assert lines[6] == "  rule 1: " + "not " * 600 + "q: negated quantifier has a non-atomic argument"
    assert lines[-1] == "agreement violated: no"


@pytest.mark.parametrize(
    "command, want",
    [
        (("ground",), (0, "not " * 600 + "q -> p\n", "")),
        (("ground", "--format", "json"), (1, "", JSON_NESTING_ERROR)),
    ],
    ids=["ground", "ground --format json"],
)
def test_grounding_600_nots_prints_the_rule_or_nothing_on_stdout(run, tmp_path, command, want):
    # grounding spends one frame per level and the text format prints the
    # chain of nots in a loop; the JSON encoder recurses once per level,
    # so it refuses the rule with the JSON error and prints nothing
    p = tmp_path / "nested.gq"
    p.write_text(NESTED["600 not"])
    assert run(command[0], str(p), *command[1:]) == want


UNDER_ATLEAST = "#universe {1}.\nr :- atleast(1){X : " + "not " * 600 + "p(X)}.\n"
BOTH_ROUTES = (
    "== sm route=reduct\nAnswer 1:\n== sm route=operator\nAnswer 1:\n"
    "== flp route=reduct\nskipped: the flp semantics has no reduct route\n"
    "== flp route=operator\nAnswer 1:\n== agreement\nall computed model sets agree: yes\n"
)


@pytest.mark.parametrize(
    "command, want",
    [
        (("solve", "--route", "operator"), "Answer 1:\n"),
        (("solve", "--semantics", "flp"), "Answer 1:\n"),
        (("solve", "--route", "reduct"), "Answer 1:\n"),
        (("solve", "--semantics", "both", "--route", "both"), BOTH_ROUTES),
        (("compare",), None),
    ],
    ids=["solve --route operator", "solve --semantics flp", "solve --route reduct",
         "solve --semantics both --route both", "compare"],
)
def test_600_nots_inside_a_quantifier_argument_answer_on_every_route(
    run, tmp_path, command, want
):
    # a shared application is keyed by its id and the values it reads,
    # never by a hash of the ground subtree, which recurses per level
    p = tmp_path / "nested.gq"
    p.write_text(UNDER_ATLEAST)
    code, out, err = run(command[0], str(p), *command[1:])
    assert (code, err) == (0, "")
    if want is not None:
        assert out == want
    else:
        lines = out.splitlines()
        assert lines[:4] == ["== sm route=operator", "Answer 1:", "== flp route=operator", "Answer 1:"]
        assert lines[-2:] == ["difference: none", "agreement violated: no"]


CONJUNCTION = " & ".join(["q"] * 1_000)
UNDER_ATLEAST_AND = " & ".join(["q(X)"] * 600)


@pytest.mark.parametrize(
    "text, literal",
    [
        (
            f"#universe {{1}}.\np :- not ({CONJUNCTION}).\n",
            f"not ({CONJUNCTION}): negated quantifier has a non-atomic argument",
        ),
        (
            f"#universe {{1}}.\nr :- atleast(1){{X : {UNDER_ATLEAST_AND}}}.\n",
            f"atleast(1){{X : {UNDER_ATLEAST_AND}}}: quantifier argument is not atomic",
        ),
    ],
    ids=["1,000 conjuncts under not", "600 conjuncts under atleast"],
)
def test_compare_prints_long_conjunctions_in_its_class_report(run, tmp_path, text, literal):
    # the class report prints each literal, and a spine of & prints in a loop
    p = tmp_path / "long.gq"
    p.write_text(text)
    code, out, err = run("compare", str(p))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[5:] == ["in class: no", "  rule 1: " + literal,
                         "difference: none", "agreement violated: no"]


OPERATOR_CELLS = (
    "== sm route=operator\nAnswer 1:\n== flp route=operator\nAnswer 1:\n"
    "== agreement\nall computed model sets agree: yes\n"
)
LONG_OR_COMMANDS = {
    "solve --route operator": lambda disj: "Answer 1:\n",
    "solve --semantics flp": lambda disj: "Answer 1:\n",
    "solve --route reduct": lambda disj: "Answer 1:\n",
    "solve --semantics both --route operator": lambda disj: OPERATOR_CELLS,
    "solve --semantics both --route both": lambda disj: BOTH_ROUTES,
    "reduct --model=": lambda disj: "bot -> bot\n",
    "compare": lambda disj: (
        "== sm route=operator\nAnswer 1:\n== flp route=operator\nAnswer 1:\n"
        f"== agreement\nin class: no\n  rule 1: {disj}: quantifier argument is not atomic\n"
        "difference: none\nagreement violated: no\n"
    ),
    "ground": lambda disj: disj + " -> p\n",
}


@pytest.mark.parametrize("command", LONG_OR_COMMANDS)
@pytest.mark.parametrize("n", [600, 1_000])
def test_long_disjunctions_answer_on_every_command(run, tmp_path, n, command):
    # grounding, the compiler and the reduct route's walkers read a left
    # spine of | in a loop, and one compiled node reads it as the nested
    # disjunctions do; the printer prints it in a loop
    disj = " | ".join(["q"] * n)
    p = tmp_path / "long.gq"
    p.write_text(f"#universe {{1}}.\np :- {disj}.\n")
    name, *options = command.split()
    assert run(name, str(p), *options) == (0, LONG_OR_COMMANDS[command](disj), "")


def test_ground_prints_no_rule_when_a_later_one_cannot_be_rendered(
    run, sum_path, monkeypatch
):
    import gqsm.cli

    rendered = []

    def render(g):
        if rendered:
            raise RecursionError
        rendered.append(g)
        return "first"

    monkeypatch.setattr(gqsm.cli, "render_ground_rule", render)
    assert run("ground", sum_path) == (1, "", NESTING_ERROR)


def test_a_program_file_that_is_not_utf8_fails_as_on_stdin(run, tmp_path, monkeypatch):
    import io

    data = b"#universe {1}.\np :- q\xff.\n"
    p = tmp_path / "bad.gq"
    p.write_bytes(data)
    assert run("solve", str(p)) == (1, "", f"{p}:2:7: unexpected character '\\udcff'\n")
    monkeypatch.setattr("sys.stdin", io.StringIO(data.decode("utf-8", "surrogateescape")))
    assert run("solve", "-") == (1, "", "<stdin>:2:7: unexpected character '\\udcff'\n")
    # under a UTF-8 locale stdin decodes strictly, and cannot read the byte
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert run("solve", "-") == (
        1,
        "",
        "error: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte\n",
    )


@pytest.mark.parametrize("name", ["default_closure.gq", "sum_threshold.gq"])
def test_json_candidates_count_the_head_bounded_base(run, name):
    # default_closure.gq has six ground atoms; the three of p, which
    # heads no rule, are never enumerated
    code, out, _ = run("solve", str(PROGRAMS / name), "--format", "json")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["stats"] == {"candidates": 8}


def test_the_cap_counts_the_head_bounded_base(run, tmp_path):
    p = tmp_path / "closure.gq"
    p.write_text("#universe {1, 2, 3}.\nq(X) :- not p(X).\n")
    assert run("solve", str(p), "--cap", "3") == (0, "Answer 1: q(1) q(2) q(3)\n", "")
    assert run("solve", str(p), "--cap", "2") == (
        2,
        "",
        "error: 3 atoms would mean 2**3 candidate sets; the cap is 2 "
        "(set GQSM_ATOM_CAP or pass cap= to raise it)\n",
    )


def test_closure_over_ten_elements_solves_on_every_route(run, tmp_path):
    p = tmp_path / "closure10.gq"
    p.write_text("#universe {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}.\nq(X) :- not p(X).\n")
    answer = "Answer 1: " + " ".join(f"q({i})" for i in range(1, 11)) + "\n"
    for args in (("--route", "operator"), ("--route", "reduct"), ("--semantics", "flp")):
        assert run("solve", str(p), *args) == (0, answer, ""), args
    assert run("compare", str(p)) == (
        0,
        "== sm route=operator\n" + answer + "== flp route=operator\n" + answer
        + "== agreement\nin class: yes\ndifference: none\nagreement violated: no\n",
        "",
    )


# V escapes into the second argument of count_ge; h heads no rule, so the
# head-bounded base is q, p(1) and p(2)
ESCAPING_BINDER = (
    "#universe {1, 2}.\n"
    "q :- h(1), count_ge[V][W](p(V); W = V).\n"
    "p(1) :- q.\n"
)


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--route", "reduct"),
        ("solve", "--route", "operator"),
        ("solve", "--semantics", "flp"),
        ("compare",),
    ],
)
def test_the_cap_is_checked_before_grounding_or_the_sentence(run, tmp_path, args):
    p = tmp_path / "escaping.gq"
    p.write_text(ESCAPING_BINDER)
    assert run(*args, str(p), "--cap", "0") == (
        2,
        "",
        "error: 3 atoms would mean 2**3 candidate sets; the cap is 0 "
        "(set GQSM_ATOM_CAP or pass cap= to raise it)\n",
    )


@pytest.mark.parametrize(
    "args",
    [
        ("solve", "--route", "reduct"),
        ("solve", "--route", "operator"),
        ("solve", "--semantics", "flp"),
        ("solve", "--semantics", "both", "--route", "both"),
        ("compare",),
        ("ground",),
        ("reduct", "--model", ""),
    ],
)
def test_without_the_cap_the_reduct_route_fails_at_grounding(run, tmp_path, args):
    # every command compiles or grounds the whole program before it reads
    # a candidate, so none skips the node that no candidate reaches
    p = tmp_path / "escaping.gq"
    p.write_text(ESCAPING_BINDER)
    assert run(args[0], str(p), *args[1:]) == (
        1,
        "",
        "error: unbound free variable V\n",
    )


def test_the_reduct_route_refuses_extensional_predicates_before_the_cap(
    run, tmp_path
):
    p = tmp_path / "extensional.gq"
    p.write_text("#universe {1, 2}.\n#intensional p.\np(X) :- e(X).\n")
    assert run("solve", str(p), "--route", "reduct", "--cap", "0") == (
        1,
        "",
        "error: the reduct route requires every predicate to be intensional; "
        "extensional here: e\n",
    )


def test_models_are_ordered_by_their_sorted_atoms_not_by_size(run, tmp_path):
    p = tmp_path / "order.gq"
    p.write_text(
        "#universe {1, 2, 3}.\n"
        "p(2) :- not p(1).\n"
        "p(1) :- not p(2).\n"
        "p(3) :- p(1).\n"
    )
    answers = "Answer 1: p(1) p(3)\nAnswer 2: p(2)\n"
    for args in (("--route", "reduct"), ("--route", "operator"), ("--semantics", "flp")):
        assert run("solve", str(p), *args) == (0, answers, ""), args
    assert run("compare", str(p)) == (
        0,
        "== sm route=operator\n" + answers + "== flp route=operator\n" + answers
        + "== agreement\nin class: yes\ndifference: none\nagreement violated: no\n",
        "",
    )
