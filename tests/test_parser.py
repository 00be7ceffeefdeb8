"""Surface syntax: tokens, formulas, rules, programs, model strings."""

import pytest

from gqsm.parser import (
    ParseError,
    Token,
    aggregate_apply,
    fresh_variable,
    parse_formula,
    parse_model,
    parse_program,
    parse_rule,
    tokenize,
)
from gqsm.render import render
from gqsm.syntax import (
    BOT,
    TOP,
    Apply,
    Atom,
    Constant,
    Equality,
    Program,
    Rule,
    Variable,
)

from conftest import SUM_THRESHOLD


def perr(fn, text, *args):
    with pytest.raises(ParseError) as exc:
        fn(text, *args)
    return exc.value


def test_tokenizer_tracks_line_and_column():
    toks = tokenize("p(X) :-\n  q.")
    assert [(t.kind, t.line, t.col) for t in toks] == [
        ("IDENT", 1, 1),
        ("LPAREN", 1, 2),
        ("VAR", 1, 3),
        ("RPAREN", 1, 4),
        ("GETS", 1, 6),
        ("IDENT", 2, 3),
        ("DOT", 2, 4),
        ("EOF", 2, 5),
    ]


def test_comments_run_to_end_of_line(registry):
    prog = parse_program("#universe {1}. % one element\np. % fact\n", registry)
    assert len(prog.rules) == 1


def test_atom_parsing(registry):
    f = parse_formula("p(X, 1, a)", registry)
    assert f == Atom("p", (Variable("X"), Constant(1), Constant("a")))
    assert parse_formula("q", registry) == Atom("q", ())
    # "q()" is quantifier application syntax, so a 0-ary atom is bare "q"
    e = perr(parse_formula, "q()", registry)
    assert "unknown quantifier" in e.message


def test_precedence_not_binds_tightest_then_and_or_impl(registry):
    f = parse_formula("not p & q | r -> s", registry)
    # ((not p & q) | r) -> s
    assert f.quantifier == "impl"
    left = f.args[0]
    assert left.quantifier == "or"
    assert left.args[0].quantifier == "and"
    assert left.args[0].args[0].quantifier == "impl"  # not p


def test_implication_is_right_associative(registry):
    f = parse_formula("p -> q -> r", registry)
    assert render(f) == "p -> q -> r"
    assert f.args[0] == Atom("p")
    assert f.args[1].quantifier == "impl"


def test_equality_and_its_negation(registry):
    f = parse_formula("X = 1", registry)
    assert f == Equality(Variable("X"), Constant(1))
    g = parse_formula("X != 1", registry)
    assert g.quantifier == "impl"
    assert g.args == (Equality(Variable("X"), Constant(1)), BOT)


def test_classic_quantifier_forms(registry):
    f = parse_formula("forall X (p(X) -> q(X))", registry)
    assert isinstance(f, Apply) and f.quantifier == "forall"
    assert f.var_lists == (("X",),)
    g = parse_formula("exists X (p(X))", registry)
    assert g.quantifier == "exists"


def test_braces_application(registry):
    f = parse_formula("majority{X : p(X)}", registry)
    assert f.quantifier == "majority"
    assert f.var_lists == (("X",),)
    assert f.args == (Atom("p", ("X",)),)


def test_parameterized_quantifier(registry):
    f = parse_formula("atmost(2){X : p(X)}", registry)
    assert f.quantifier == "atmost(2)"
    # and the same name with different delimiters is an atom
    g = parse_formula("atmost(2)", registry)
    assert g == Atom("atmost", (Constant(2),))


def test_aggregate_desugars_to_a_two_place_quantifier(registry):
    f = parse_formula("sum{X : p(X)} < 2", registry)
    assert f.quantifier == "sum_lt"
    assert f.var_lists[0] == ("X",)
    (y,) = f.var_lists[1]
    assert y not in ("X",)
    body, bound = f.args
    assert body == Atom("p", ("X",))
    assert bound == Equality(Variable(y), Constant(2))


def test_aggregate_bound_variable_dodges_captures(registry):
    f = parse_formula("count{Y : p(Y, Y0)} >= 1", registry)
    (fresh,) = f.var_lists[1]
    assert fresh not in ("Y", "Y0")


def test_aggregate_apply_helper_matches_parser_output(registry):
    built = aggregate_apply("sum", "lt", "X", Atom("p", ("X",)), 2)
    parsed = parse_formula("sum{X : p(X)} < 2", registry)
    assert built == parsed


def test_general_application_syntax(registry):
    f = parse_formula("sum_lt[X][Y](p(X); q(Y))", registry)
    assert f.quantifier == "sum_lt"
    assert f.var_lists == (("X",), ("Y",))
    assert render(f) == "sum_lt[X][Y](p(X); q(Y))"


def test_rule_and_constraint_parsing(registry):
    r = parse_rule("p(X); q(X) :- r(X), not s(X).", registry)
    assert r.head.quantifier == "or"
    assert r.body.quantifier == "and"
    c = parse_rule(":- p(1).", registry)
    assert c.head is BOT
    f = parse_rule("p(1).", registry)
    assert f.body is TOP


def test_program_with_directives(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    assert prog.universe == frozenset({-1, 1, 2})
    assert prog.intensional == frozenset({"p"})
    assert len(prog.rules) == 3


def test_intensional_directive(registry):
    prog = parse_program(
        "#universe {1}.\n#intensional p.\np(1) :- q(1).", registry
    )
    assert prog.intensional == frozenset({"p"})
    empty = parse_program(
        "#universe {1}.\n#intensional.\np(1) :- q(1).", registry
    )
    assert empty.intensional == frozenset()


def test_universe_inferred_from_constants(registry):
    prog = parse_program("p(1).\nq(a) :- p(2).", registry)
    assert prog.universe == frozenset({1, 2, "a"})


def test_error_positions_and_messages(registry):
    e = perr(parse_formula, "p < q", registry)
    assert (e.line, e.col) == (1, 3)
    assert "aggregate bounds" in e.message

    e = perr(parse_formula, "sum{X : p(X)}", registry)
    assert "needs a comparison bound" in e.message

    e = perr(parse_formula, "atmost(-1){X : p(X)}", registry)
    assert "nonnegative" in e.message

    e = perr(parse_formula, "q[X][Y](p(X); p(Y))", registry)
    assert "unknown quantifier" in e.message

    e = perr(parse_formula, "p(1) q", registry)
    assert (e.line, e.col) == (1, 6)

    e = perr(parse_rule, "p :- q; r.", registry)
    assert "use '|' for disjunction" in e.message


def test_str_of_parse_error_carries_position(registry):
    e = perr(parse_program, "#universe {1}.\np(2).", registry)
    assert str(e) == "<string>:2:3: constant 2 is not a universe element"


def test_program_level_errors(registry):
    e = perr(parse_program, "p(X) :- q(X).", registry)
    assert "no #universe directive" in e.message

    e = perr(parse_program, "#universe {}.", registry)
    assert "must not be empty" in e.message

    e = perr(parse_program, "#universe {1}.\n#universe {2}.\np.", registry)
    assert "duplicate" in e.message
    assert e.line == 2

    e = perr(parse_program, "#universe {1}.\n#intensional q.\np(1).", registry)
    assert "no predicate named 'q'" in e.message

    e = perr(parse_program, "#universe {1}.\np(1, 1).\np(1).", registry)
    assert "takes 2 argument(s)" in e.message


def test_arity_conflict_reports_first_use_line(registry):
    e = perr(parse_program, "#universe {1}.\np(1).\n\np(1, 1).", registry)
    assert "first used at line 2" in e.message


def test_fresh_variable_walks_the_series():
    assert fresh_variable(set()) == "Y"
    assert fresh_variable({"Y"}) == "Y0"
    assert fresh_variable({"Y", "Y0"}) == "Y1"


def test_parse_model(registry):
    prog = parse_program("#universe {1, 2}.\np(1).\nq(1) :- p(1).", registry)
    m = parse_model("p(1), q(2)", prog)
    assert sorted(str(a) for a in m) == ["p(1)", "q(2)"]
    assert parse_model("", prog) == frozenset()
    # spaces work as separators too
    assert len(parse_model("p(1) p(2)", prog)) == 2


def test_parse_model_rejects_bad_atoms(registry):
    prog = parse_program("#universe {1, 2}.\np(1).\nq(1) :- p(1).", registry)
    e = perr(parse_model, "r(1)", prog)
    assert "no predicate named 'r'" in e.message
    e = perr(parse_model, "p(1, 2)", prog)
    assert "takes 1 argument" in e.message
    e = perr(parse_model, "p(9)", prog)
    assert "not a universe element" in e.message
    for text in ("p(", "p(1,"):
        e = perr(parse_model, text, prog)
        assert e.message == "expected a universe element, got end of input"


def test_tokenizer_skips_whitespace_and_comments_in_line_and_column():
    toks = tokenize("% head\n  p. % tail\n\n")
    assert [(t.kind, t.value, t.line, t.col) for t in toks] == [
        ("IDENT", "p", 2, 3),
        ("DOT", ".", 2, 4),
        ("EOF", "", 4, 1),
    ]
    assert tokenize("") == [Token("EOF", "", 1, 1)]


@pytest.mark.parametrize(
    "text, where, char",
    [("p(٣)", (1, 3), "٣"), ("p(1٣)", (1, 4), "٣"), ("% c\n  - 1", (2, 3), "-"), ("X ! Y", (1, 3), "!")],
)
def test_tokenizer_rejects_characters_that_start_no_token(text, where, char):
    e = perr(tokenize, text)
    assert (e.line, e.col) == where
    assert e.message == f"unexpected character {char!r}"


def test_over_long_integer_literals_are_parse_errors(registry):
    long = "9" * 5000
    for fn, text, where in [
        (parse_formula, f"p(-{long})", (1, 3)),
        (parse_formula, f"X = {long}", (1, 5)),
        (parse_rule, f"q :- atmost({long}){{X : p(X)}}.", (1, 13)),
        (parse_program, f"#universe {{1,\n {long}}}.\np.", (2, 2)),
    ]:
        e = perr(fn, text, registry)
        assert (e.line, e.col) == where
        assert e.message == "integer literal too long (5000 digits)"
    prog = parse_program("#universe {1}.\np(1).", registry)
    e = perr(parse_model, f"p({long})", prog)
    assert (e.line, e.col, e.message) == (1, 3, "integer literal too long (5000 digits)")


def test_parsed_nodes_equal_the_checked_constructors(registry):
    r = parse_rule("p(X, a) :- count{Y : q(Y, X)} >= 1, forall Z (q(Z, Z)), X != 2.", registry)
    assert r.variables == ("X",)
    assert r == Rule(r.head, r.body)
    assert repr(r) == repr(Rule(r.head, r.body))
    prog = parse_program("#universe {1, 2, a}.\nq(1, 1).\n" + render(r), registry)
    rebuilt = Program(prog.rules, prog.universe, prog.intensional)
    assert prog == rebuilt
    assert list(prog.signature.items()) == list(rebuilt.signature.items()) == [("q", 2), ("p", 2)]
