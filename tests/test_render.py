"""Text output: formulas, programs, ground formulas, and round trips."""

import random

import pytest

from gqsm.ground import (
    G_BOT,
    G_TOP,
    GApply,
    GBot,
    GroundAtom,
    GTop,
    Interpretation,
    PairSet,
    ground,
    ground_program,
    herbrand_base,
)
from gqsm.parser import parse_formula, parse_program
from gqsm.quantifiers import Registry
from gqsm.reduct import reduct
from gqsm.render import (
    _ground_aggregate_parts,
    _key_str,
    _plain_sides,
    render,
    render_ground_rule,
    simplify_ground,
    simplify_rule_sides,
)
from gqsm.syntax import TOP, BOT, Atom, Rule, conj, disj, impl, neg

import randprog
from conftest import SUM_THRESHOLD


FIXED_POINTS = [
    "p",
    "p(1, a, X)",
    "not p",
    "not not p",
    "p & q & r",
    "p | q & r",
    "(p | q) & r",
    "p -> q -> r",
    "(p -> q) -> r",
    "not (p & q)",
    "X = 1",
    "X != 1",
    "forall X (p(X))",
    "exists X (p(X) & q(X))",
    "majority{X : p(X)}",
    "atmost(2){X : p(X)}",
    "atleast(0){X : p(X)}",
    "sum{X : p(X)} < 2",
    "sum{X : p(X)} >= -1",
    "count{X : p(X, Y)} != 0",
    "sum_lt[X][Y](p(X); q(Y))",
    "top",
    "bot",
    "top -> p",
    "p -> bot -> q",
]


@pytest.mark.parametrize("text", FIXED_POINTS)
def test_formula_text_is_a_fixed_point(text, registry):
    f = parse_formula(text, registry)
    assert render(f) == text
    assert parse_formula(render(f), registry) == f


def test_needless_parens_are_dropped(registry):
    assert render(parse_formula("((p))", registry)) == "p"
    assert render(parse_formula("(p & q) & r", registry)) == "p & q & r"
    assert render(parse_formula("p -> (q -> r)", registry)) == "p -> q -> r"


def test_connective_construction_renders_like_parsed_text(registry):
    p, q = Atom("p"), Atom("q")
    assert render(conj(p, q)) == "p & q"
    assert render(disj(p, q)) == "p | q"
    assert render(impl(p, q)) == "p -> q"
    assert render(neg(p)) == "not p"
    assert render(neg(neg(p))) == "not not p"


def test_rule_rendering(registry):
    assert render(Rule(Atom("p"), TOP)) == "p."
    assert render(Rule(BOT, Atom("p"))) == ":- p."
    assert render(Rule(Atom("p"), Atom("q"))) == "p :- q."
    assert (
        render(Rule(disj(Atom("p"), Atom("q")), conj(Atom("r"), Atom("s"))))
        == "p; q :- r, s."
    )


def test_program_rendering_always_shows_both_directives(registry):
    prog = parse_program("#universe {2, -1, 1}.\np(1) :- q(1).", registry)
    text = render(prog)
    assert text.splitlines()[0] == "#universe {-1, 1, 2}."
    assert "#intensional p, q." in text
    narrowed = parse_program(
        "#universe {1}.\n#intensional.\np(1) :- q(1).", registry
    )
    assert "#intensional." in render(narrowed)


def test_program_round_trip(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    again = parse_program(render(prog), registry)
    assert again == prog


def test_ground_rendering_golden(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    rules = ground_program(prog, registry)
    assert render_ground_rule(rules[0]) == (
        "not sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } < 2 -> p(2)"
    )


def test_ground_aggregate_sugar_needs_a_recognizable_bound(registry):
    i = Interpretation(frozenset({-1, 1, 2}))
    g = ground(parse_formula("sum{X : p(X)} < 2", registry), i, registry)
    assert render(g) == "sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } < 2"
    # the sugar survives a reduct because the bound rows are left alone
    r = reduct(g, frozenset(), frozenset({-1, 1, 2}), registry)
    assert render(r.formula) == "sum{ -1 : bot; 1 : bot; 2 : bot } < 2"
    # a bound set with no true row has no displayable value
    body, bound = g.sets
    h = GApply("sum_lt", (body, PairSet(tuple((k, GBot()) for k in bound.keys()))))
    assert render(h) == (
        "sum_lt{ -1 : p(-1); 1 : p(1); 2 : p(2) }{ -1 : bot; 1 : bot; 2 : bot }"
    )


def test_ground_not_sugar(registry):
    i = Interpretation(frozenset({1}))
    g = ground(parse_formula("not p(1)", registry), i, registry)
    assert render(g) == "not p(1)"
    # a bot antecedent is spelled as a plain implication instead
    b = ground(parse_formula("bot -> bot", registry), i, registry)
    assert render(b) == "bot -> bot"


def test_render_ground_rule_keeps_the_top_arrow(registry):
    i = Interpretation(frozenset({1}))
    g = ground(parse_formula("p(1) -> bot", registry), i, registry)
    assert render(g) == "not p(1)"
    assert render_ground_rule(g) == "p(1) -> bot"


def test_simplify_ground_folds_constants(registry):
    i = Interpretation(frozenset({1}))

    def simp(text):
        return render(simplify_ground(ground(parse_formula(text, registry), i, registry)))

    assert simp("top & p(1)") == "p(1)"
    assert simp("bot & p(1)") == "bot"
    assert simp("bot | p(1)") == "p(1)"
    assert simp("bot -> p(1)") == "top"
    assert simp("top -> p(1)") == "p(1)"
    assert simp("p(1) -> top") == "top"
    assert simp("p(1) -> bot") == "not p(1)"
    assert simp("(bot -> bot) -> p(1)") == "p(1)"


def test_simplify_rule_sides_never_folds_the_rule_arrow(registry):
    i = Interpretation(frozenset({1}))
    g = ground(parse_formula("(bot -> bot) -> p(1)", registry), i, registry)
    s = simplify_rule_sides(g)
    assert render_ground_rule(s) == "top -> p(1)"


def test_simplify_ground_leaves_quantifier_sets_alone(registry):
    i = Interpretation(frozenset({1, 2}))
    g = ground(parse_formula("majority{X : p(X)}", registry), i, registry)
    assert simplify_ground(g) == g


def test_random_program_round_trips():
    reg = Registry()
    rng = random.Random(424)
    for _ in range(120):
        src = randprog.random_wild_program(rng)
        prog = parse_program(src, reg)
        text = render(prog)
        assert parse_program(text, reg) == prog, src


def test_random_formula_round_trips():
    reg = Registry()
    rng = random.Random(425)
    for _ in range(120):
        universe = randprog.random_universe(rng)
        f = randprog.random_sentence(rng, universe)
        assert parse_formula(render(f), reg) == f, render(f)


def test_random_ground_render_reparses_consistently():
    # ground text is display-only, but for connective-only formulas it
    # matches the formula layer spelling
    reg = Registry()
    i = Interpretation(frozenset({1}))
    for text in ("p(1) & q(1)", "p(1) | q(1)", "not p(1)", "top", "bot"):
        g = ground(parse_formula(text, reg), i, reg)
        assert render(g) == text


# An API-built connective whose pair-sets are not exactly two, each one
# entry keyed (), is not a plain binary connective: it prints in the
# generic form and is left unsimplified.
@pytest.mark.parametrize(
    "g",
    [
        GApply("and", (PairSet((((), G_TOP),)),)),
        GApply("or", (PairSet((((), G_TOP),)),)),
        GApply("impl", (PairSet((((), G_TOP),)),) * 3),
    ],
    ids=["and-one-set", "or-one-set", "impl-three-sets"],
)
def test_connectives_without_two_plain_sets_use_the_generic_form(g):
    text = g.quantifier + "{ top }" * len(g.sets)
    assert render(g) == text
    assert render_ground_rule(g) == text
    assert simplify_ground(g) is g
    assert simplify_rule_sides(g) is g


@pytest.mark.parametrize("name, op", [("and", " & "), ("or", " | ")])
def test_a_10000_literal_spine_prints_in_a_loop(name, op, registry):
    text = op.join(["q"] * 10_000)
    assert str(parse_formula(text, registry)) == text
    g = GroundAtom("q")
    for _ in range(9_999):
        g = GApply(name, (PairSet((((), g),)), PairSet((((), GroundAtom("q")),))))
    assert str(g) == text
    assert str(simplify_ground(g)) == text


# ---------------------------------------------------------------------------
# Long ``and`` and ``or`` spines: the ground printers against their
# recursive form
#
# ``render`` and ``simplify_ground`` walk a left-deep spine of plain
# ``and`` or ``or`` nodes in a loop.  The oracles below are the two as
# they were, one recursive call per node; text and trees must be the same.


def oracle_render_ground(g, min_level):
    text, level = oracle_ground_node(g)
    return f"({text})" if level < min_level else text


def oracle_set_body(ps):
    parts = []
    for key, child in ps.entries:
        child_str = oracle_render_ground(child, 1)
        parts.append(f"{_key_str(key)} : {child_str}" if key else child_str)
    return "; ".join(parts)


def oracle_ground_node(g):
    if isinstance(g, GroundAtom):
        return str(g), 5
    if isinstance(g, GTop):
        return "top", 5
    if isinstance(g, GBot):
        return "bot", 5
    name = g.quantifier
    sides = _plain_sides(g)
    if sides is not None:
        a, b = sides
        if name == "impl":
            if isinstance(b, GBot) and not isinstance(a, (GTop, GBot)):
                return f"not {oracle_render_ground(a, 4)}", 4
            return f"{oracle_render_ground(a, 2)} -> {oracle_render_ground(b, 1)}", 1
        if name == "and":
            return f"{oracle_render_ground(a, 3)} & {oracle_render_ground(b, 4)}", 3
        return f"{oracle_render_ground(a, 2)} | {oracle_render_ground(b, 3)}", 2
    agg = _ground_aggregate_parts(g)
    if agg is not None:
        family, sym, bound = agg
        return f"{family}{{ {oracle_set_body(g.sets[0])} }} {sym} {bound}", 5
    return name + "".join(f"{{ {oracle_set_body(s)} }}" for s in g.sets), 5


def oracle_simplify(g):
    sides = _plain_sides(g)
    if sides is None:
        return g
    a, b = map(oracle_simplify, sides)
    name = g.quantifier
    if name == "impl":
        if isinstance(a, GBot) or isinstance(b, GTop):
            return G_TOP
        if isinstance(a, GTop):
            return b
    elif name == "and":
        if isinstance(a, GBot) or isinstance(b, GBot):
            return G_BOT
        if isinstance(a, GTop):
            return b
        if isinstance(b, GTop):
            return a
    else:
        if isinstance(a, GTop) or isinstance(b, GTop):
            return G_TOP
        if isinstance(a, GBot):
            return b
        if isinstance(b, GBot):
            return a
    return GApply(name, (PairSet((((), a),)), PairSet((((), b),))))


def check_printers(g):
    assert render(g) == oracle_render_ground(g, 1)
    want = oracle_simplify(g)
    got = simplify_ground(g)
    assert got == want and render(got) == oracle_render_ground(want, 1)


def _app(name, a, b, keys):
    return GApply(name, (PairSet(((keys[0], a),)), PairSet(((keys[1], b),))))


def _and(a, b, keys=((), ())):
    return _app("and", a, b, keys)


def _or(a, b, keys=((), ())):
    return _app("or", a, b, keys)


def _not(a):
    return _app("impl", a, G_BOT, ((), ()))


P1, P2, Q1 = (GroundAtom(p, (v,)) for p, v in (("p", 1), ("p", 2), ("q", 1)))


@pytest.mark.parametrize(
    "g",
    [
        # top and bot operands fold anywhere along the spine
        _and(_and(_and(P1, G_TOP), Q1), P2),
        _and(_and(_and(G_TOP, G_TOP), G_TOP), P1),
        _and(_and(_and(P1, G_BOT), Q1), P2),
        # a keyed node cuts the spine of & and prints in the generic form
        _and(_and(_and(P1, Q1), P2, keys=((1,), (2,))), Q1),
        _and(_and(_and(P1, Q1, keys=((1,), ())), P2), G_TOP),
        _and(_and(P1, G_TOP, keys=((), (2,))), P2, keys=((1,), ())),
        # a spine as the right operand, and under a negation
        _and(P1, _and(_and(Q1, P2), G_TOP)),
        _not(_and(_and(P1, Q1), P2)),
        # the same for spines of |, and the two spines inside each other
        _or(_or(_or(P1, G_BOT), Q1), P2),
        _or(_or(_or(P1, G_TOP), Q1), P2),
        _or(_or(_or(P1, Q1), P2, keys=((1,), (2,))), Q1),
        _or(_or(P1, G_BOT, keys=((), (2,))), P2, keys=((1,), ())),
        _or(P1, _or(_or(Q1, P2), G_BOT)),
        _not(_or(_or(P1, Q1), P2)),
        _or(_and(_and(P1, Q1), G_TOP), _not(_or(P2, Q1))),
        _and(_or(_or(P1, Q1), P2), _or(G_BOT, _and(Q1, P2))),
    ],
)
def test_and_spines_print_as_they_did(g):
    check_printers(g)


def test_ground_rules_and_their_reducts_print_as_they_did():
    reg = Registry()
    rng = random.Random(4711)
    sources = [SUM_THRESHOLD] + [randprog.random_wild_program(rng) for _ in range(60)]
    sources.append("#universe {1}.\np :- " + ", ".join(["not q", "q", "top"] * 20) + ".\n")
    for src in sources:
        prog = parse_program(src, reg)
        atoms = sorted(herbrand_base(prog), key=GroundAtom.sort_key)
        for g in ground_program(prog, reg):
            check_printers(g)
            for cut in range(0, len(atoms) + 1, 2):
                try:
                    r = reduct(g, atoms[:cut], prog.universe, reg)
                except Exception:  # a truth function may raise; not ours
                    continue
                check_printers(r.formula)


@pytest.mark.parametrize("literals", [1_200, 10_000])
def test_a_long_body_prints_and_simplifies(literals):
    reg = Registry()
    prog = parse_program(
        "#universe {1}.\np :- " + ", ".join(["not q"] * literals) + ".\n", reg
    )
    (g,) = ground_program(prog, reg)
    assert render_ground_rule(g) == " & ".join(["not q"] * literals) + " -> p"
    r = reduct(g, [GroundAtom("p")], prog.universe, reg).formula
    assert render_ground_rule(r) == " & ".join(["(bot -> bot)"] * literals) + " -> p"
    assert render_ground_rule(simplify_rule_sides(r)) == "top -> p"
    assert render_ground_rule(simplify_rule_sides(g)) == render_ground_rule(g)
