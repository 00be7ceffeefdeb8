"""Grounding, two satisfaction routes, and the two fixpoint-style checks
used by the solver (starred evaluation and the body-substitution test)."""

import copy
import itertools
import json
import pickle
import random

import pytest

from gqsm.ground import (
    GApply,
    GBot,
    GTop,
    GroundAtom,
    GroundingError,
    Interpretation,
    PairSet,
    _BOT_NODE,
    _TOP_NODE,
    _atom_node,
    _compile_program,
    _compile_sentence,
    _eval,
    _fired,
    _junction_node,
    _or_node,
    _read_set,
    atom_set_key,
    eval_flp_transform,
    eval_star,
    flp_reduct,
    format_atoms,
    ground,
    ground_program,
    ground_rule,
    ground_to_json,
    herbrand_base,
    iter_ground_subformulas,
    satisfies,
    satisfies_direct,
    satisfies_program,
)
from gqsm import Mono, QuantifierDef, Registry, solver
from gqsm.parser import parse_formula, parse_program
from gqsm.reduct import _subsets_ascending
from gqsm.render import render_ground_rule
from gqsm.syntax import GqError, impl

from conftest import SUM_THRESHOLD


def ga(pred, *args):
    return GroundAtom(pred, args)


def interp(universe, *atoms):
    return Interpretation(frozenset(universe), frozenset(atoms))


@pytest.fixture
def i_empty():
    return interp({-1, 1, 2})


def test_ground_atom_ordering_and_display():
    atoms = [ga("q"), ga("p", 2), ga("p", -1), ga("p", 1, 2)]
    atoms.sort(key=lambda a: a.sort_key())
    assert [str(a) for a in atoms] == ["p(-1)", "p(1, 2)", "p(2)", "q"]
    assert format_atoms([ga("q"), ga("p", 1)]) == "p(1) q"
    assert format_atoms([]) == ""


def test_atom_set_key_orders_by_size_then_content():
    a = frozenset({ga("p", 1)})
    b = frozenset({ga("p", 1), ga("p", 2)})
    assert atom_set_key(a) < atom_set_key(b)


def test_interpretation_validates_atoms():
    with pytest.raises(GqError, match="not a universe element"):
        interp({1}, ga("p", 9))
    with pytest.raises(GqError, match="must not be empty"):
        Interpretation(frozenset())


def test_ground_atom_is_the_pair_of_predicate_and_arguments():
    atom = GroundAtom("p", (1,))
    assert atom == ("p", (1,))
    assert hash(atom) == hash(("p", (1,)))
    assert ("p", (1,)) in frozenset({atom})
    assert GroundAtom("p", [1]).args == (1,)
    assert GroundAtom("q").args == ()


def test_ground_atom_repr_str_and_copies():
    atom = GroundAtom("p", (-1, "a"))
    assert repr(atom) == "GroundAtom(pred='p', args=(-1, 'a'))"
    assert str(atom) == "p(-1, a)"
    assert str(GroundAtom("q")) == "q"
    for copied in (pickle.loads(pickle.dumps(atom)), copy.copy(atom)):
        assert copied == atom
        assert type(copied) is GroundAtom
        assert str(copied) == "p(-1, a)"


def test_with_atoms_keeps_the_checked_universe_and_constants():
    base = Interpretation(frozenset({2, 1}), constants={"a": 1})
    derived = base.with_atoms({ga("p", 2)})
    assert derived.atoms == frozenset({ga("p", 2)})
    assert derived.universe is base.universe
    assert derived.universe_sorted == (1, 2)
    assert derived.constants == {"a": 1}
    assert derived.value("a") == 1
    assert base.atoms == frozenset()


def test_with_atoms_checks_the_new_atoms():
    base = interp({1, 2})
    with pytest.raises(GqError, match=r"^not a ground atom: \('p', \(1,\)\)$"):
        base.with_atoms({("p", (1,))})
    with pytest.raises(
        GqError, match=r"^atom p\(9\) mentions 9, not a universe element$"
    ):
        base.with_atoms({ga("p", 9)})


@pytest.mark.parametrize("reverse", [False, True], ids=["atom first", "tuple first"])
def test_a_plain_tuple_beside_its_equal_atom_is_refused_in_either_order(reverse):
    # a GroundAtom equals its plain tuple, so a set keeps only the first
    # of the two; every element is checked before the set is built
    atoms = [GroundAtom("p", (1,)), ("p", (1,))]
    if reverse:
        atoms.reverse()
    with pytest.raises(GqError, match=r"^not a ground atom: \('p', \(1,\)\)$"):
        Interpretation({1}, atoms)
    with pytest.raises(GqError, match=r"^not a ground atom: \('p', \(1,\)\)$"):
        interp({1}).with_atoms(atoms)


def test_interpretation_constant_values():
    herbrand = interp({1, 2})
    assert herbrand.value(1) == 1
    with pytest.raises(GroundingError):
        herbrand.value("a")
    named = Interpretation(frozenset({1, 2}), frozenset(), constants={"a": 1})
    assert named.value("a") == 1
    # an explicit constant map is total authority, no identity fallback
    with pytest.raises(GroundingError):
        named.value(2)


def test_intensional_slice():
    i = interp({1}, ga("p", 1), ga("q", 1))
    assert i.intensional_slice({"p"}) == frozenset({ga("p", 1)})


def test_herbrand_base_is_sorted(registry):
    prog = parse_program("#universe {2, 1}.\np(1).\nq :- p(X).", registry)
    assert [str(a) for a in herbrand_base(prog)] == ["p(1)", "p(2)", "q"]
    # built in sort_key order, not sorted after: _search takes each
    # model's witness pool from the base without sorting
    mixed = parse_program(
        "#universe {b, 2, -3, a, 10, -1}.\n"
        "e(X, Y) :- p(X), not r.\np(X) :- not h(X).\nr :- e(a, -3), not s.",
        registry,
    )
    base = herbrand_base(mixed)
    assert {a.pred: len(a.args) for a in base} == {"e": 2, "h": 1, "p": 1, "r": 0, "s": 0}
    assert [str(a) for a in base[:3]] == ["e(-3, -3)", "e(-3, -1)", "e(-3, 2)"]
    assert list(base) == sorted(base, key=GroundAtom.sort_key)
    kept = solver._checked_base(mixed, len(base))
    assert list(kept) == [a for a in base if a.pred not in ("h", "s")]


def test_pair_set_sorts_and_rejects_duplicate_keys():
    ps = PairSet((((2,), GBot()), ((1,), GTop())))
    assert ps.keys() == ((1,), (2,))
    with pytest.raises(GqError, match="duplicate pair-set key"):
        PairSet((((1,), GTop()), ((1,), GBot())))


def test_grounding_an_atom(registry, i_empty):
    g = ground(parse_formula("p(1)", registry), i_empty, registry)
    assert type(g) is GroundAtom
    assert g == GroundAtom("p", (1,))
    assert hash(g) == hash(GroundAtom("p", (1,)))
    assert g in i_empty.with_atoms([ga("p", 1)]).atoms
    assert g not in i_empty.atoms


def test_grounding_equality_collapses_to_truth_values(registry, i_empty):
    assert isinstance(ground(parse_formula("1 = 1", registry), i_empty, registry), GTop)
    assert isinstance(ground(parse_formula("1 = 2", registry), i_empty, registry), GBot)


def test_grounding_builds_total_sorted_pair_sets(registry, i_empty):
    g = ground(parse_formula("majority{X : p(X)}", registry), i_empty, registry)
    assert isinstance(g, GApply)
    (ps,) = g.sets
    assert ps.keys() == ((-1,), (1,), (2,))


def test_grounding_is_interpretation_independent(registry):
    f = parse_formula("sum{X : p(X)} < 2", registry)
    a = ground(f, interp({-1, 1, 2}), registry)
    b = ground(f, interp({-1, 1, 2}, ga("p", 1)), registry)
    assert a == b


def test_grounding_unbound_variable_fails(registry, i_empty):
    with pytest.raises(GroundingError, match="unbound free variable X"):
        ground(parse_formula("p(X)", registry), i_empty, registry)


def test_connectives_ground_through_epsilon_pair_sets(registry, i_empty):
    g = ground(parse_formula("p(1) & q(2)", registry), i_empty, registry)
    assert isinstance(g, GApply) and g.quantifier == "and"
    for ps in g.sets:
        assert ps.keys() == ((),)


def test_iter_ground_subformulas(registry, i_empty):
    g = ground(parse_formula("p(1) & q(2)", registry), i_empty, registry)
    nodes = list(iter_ground_subformulas(g))
    assert [type(x) for x in nodes] == [GApply, GroundAtom, GroundAtom]
    leaves = nodes[1:]
    assert leaves == [ga("p", 1), ga("q", 2)]
    # the read set holds the leaf objects themselves, not copies
    read = _read_set(g)
    assert read == frozenset(leaves)
    assert {id(a) for a in read} == {id(a) for a in leaves}


def _recursive_subformulas(g):
    yield g
    if isinstance(g, GApply):
        for ps in g.sets:
            for _, child in ps.entries:
                yield from _recursive_subformulas(child)


def test_iter_ground_subformulas_is_a_pre_order_walk(registry, i_empty):
    g = ground(
        parse_formula("p(1) & (sum{X : p(X)} > 1 | not q(2)) -> forall X (q(X))", registry),
        i_empty,
        registry,
    )
    got = list(iter_ground_subformulas(g))
    assert [id(n) for n in got] == [id(n) for n in _recursive_subformulas(g)]
    assert len(got) == 18
    for rule in ground_program(parse_program(SUM_THRESHOLD, registry), registry):
        want = list(_recursive_subformulas(rule))
        assert [id(n) for n in iter_ground_subformulas(rule)] == [id(n) for n in want]


@pytest.mark.parametrize("literals", [1_200, 10_000])
def test_iter_ground_subformulas_walks_a_long_body(registry, literals):
    prog = parse_program(
        "#universe {1}.\np :- " + ", ".join(["not q"] * literals) + ".\n", registry
    )
    (rule,) = ground_program(prog, registry)
    nodes = list(iter_ground_subformulas(rule))
    # the arrow, the and spine, each literal's q -> bot, and the head
    assert len(nodes) == 1 + (literals - 1) + 3 * literals + 1
    assert [str(n) for n in nodes[-4:]] == ["not q", "q", "bot", "p"]


def test_two_satisfaction_routes_agree_on_hand_cases(registry):
    cases = [
        ("p(1) | p(2)", {1, 2}, [ga("p", 2)], True),
        ("p(1) & p(2)", {1, 2}, [ga("p", 2)], False),
        ("not p(1)", {1, 2}, [ga("p", 2)], True),
        ("forall X (p(X))", {1, 2}, [ga("p", 1), ga("p", 2)], True),
        ("forall X (p(X))", {1, 2}, [ga("p", 1)], False),
        ("exists X (p(X) & q(X))", {1, 2}, [ga("p", 1), ga("q", 2)], False),
        ("majority{X : p(X)}", {1, 2}, [ga("p", 1), ga("p", 2)], True),
        ("majority{X : p(X)}", {1, 2}, [ga("p", 1)], False),
        ("sum{X : p(X)} > 1", {-1, 1, 2}, [ga("p", -1), ga("p", 2)], False),
        ("sum{X : p(X)} > 1", {-1, 1, 2}, [ga("p", 1), ga("p", 2)], True),
        ("count{X : p(X)} <= 1", {1, 2}, [ga("p", 1)], True),
        ("X = 1 -> p(1)", {1}, [], None),  # skipped: X unbound
    ]
    for text, universe, atoms, expected in cases:
        if expected is None:
            continue
        f = parse_formula(text, registry)
        i = interp(universe, *atoms)
        direct = satisfies_direct(i, f, registry)
        grounded = satisfies(i.atoms, ground(f, i, registry), i.universe, registry)
        assert direct == grounded == expected, text


def test_satisfaction_with_shadowed_binder(registry):
    f = parse_formula("forall X (p(X) -> exists X (q(X)))", registry)
    i = interp({1, 2}, ga("p", 1), ga("q", 2))
    assert satisfies_direct(i, f, registry)


def test_satisfies_program(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    good = interp({-1, 1, 2}, ga("p", -1), ga("p", 1))
    bad = interp({-1, 1, 2}, ga("p", -1))  # p(1) missing but forced
    assert satisfies_program(good, prog, registry)
    assert not satisfies_program(bad, prog, registry)


def test_ground_program_instantiates_free_variables(registry):
    prog = parse_program("#universe {1, 2}.\nq(X) :- p(X).", registry)
    rules = ground_program(prog, registry)
    assert len(rules) == 2


def test_eval_star_on_a_plain_atom(registry):
    i = interp({1}, ga("p", 1))
    f = parse_formula("p(1)", registry)
    # the starred atom reads the smaller valuation
    assert not eval_star(f, i, frozenset(), {"p"}, registry)
    assert eval_star(f, i, {ga("p", 1)}, {"p"}, registry)


def test_eval_star_reads_extensional_atoms_from_the_interpretation(registry):
    i = interp({1}, ga("p", 1), ga("q", 1))
    f = parse_formula("q(1)", registry)
    assert eval_star(f, i, frozenset(), {"p"}, registry)


@pytest.mark.parametrize(
    "smaller, message",
    [
        ({"p(1)"}, "not a ground atom: 'p(1)'"),
        (
            {ga("q", 1)},
            "atom q(1) is not intensional; the smaller valuation may only "
            "mention intensional predicates",
        ),
        ({ga("p", 9)}, "atom p(9) mentions 9, not a universe element"),
    ],
    ids=["non-atom", "extensional", "outside-the-universe"],
)
def test_eval_star_checks_the_smaller_valuation_of_a_formula(registry, smaller, message):
    i = interp({1, 2}, ga("p", 1), ga("q", 1))
    f = parse_formula("p(1) | q(1)", registry)
    with pytest.raises(GqError) as raised:
        eval_star(f, i, smaller, {"p"}, registry)
    assert str(raised.value) == message


def test_eval_star_negation_needs_falsity_in_the_interpretation(registry):
    # not p(1) stays false at every smaller valuation when p(1) holds
    i = interp({1}, ga("p", 1))
    f = parse_formula("not p(1)", registry)
    assert not eval_star(f, i, frozenset(), {"p"}, registry)
    j = interp({1})
    assert eval_star(f, j, frozenset(), {"p"}, registry)


def test_eval_star_applies_the_plain_check_at_every_quantifier(registry):
    # exists fails outright under I, so the star fails for every smaller set
    i = interp({1, 2})
    f = parse_formula("exists X (p(X))", registry)
    assert not eval_star(f, i, frozenset(), {"p"}, registry)


def test_eval_star_validates_the_smaller_valuation(registry):
    i = interp({1}, ga("p", 1))
    f = parse_formula("p(1)", registry)
    with pytest.raises(GqError, match="only mention intensional"):
        eval_star(f, i, {ga("q", 1)}, {"p"}, registry)
    with pytest.raises(GqError):
        eval_star(f, i, {ga("p", 9)}, {"p"}, registry)


def test_eval_flp_transform_only_tests_rules_with_satisfied_bodies(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    i1 = interp({-1, 1, 2}, ga("p", -1), ga("p", 1))
    # the whole interpretation trivially passes its own transform
    assert eval_flp_transform(prog, i1, i1.atoms, registry)
    # dropping p(1) falsifies the substituted head of the third rule
    assert not eval_flp_transform(prog, i1, {ga("p", -1)}, registry)


@pytest.mark.parametrize(
    "smaller, message",
    [
        ({"p(1)"}, "not a ground atom: 'p(1)'"),
        (
            {ga("q", 1)},
            "atom q(1) is not intensional; the smaller valuation may only "
            "mention intensional predicates",
        ),
        ({ga("p", 9)}, "atom p(9) mentions 9, not a universe element"),
    ],
    ids=["non-atom", "extensional", "outside-the-universe"],
)
def test_eval_flp_transform_checks_the_smaller_valuation_of_a_program(
    registry, smaller, message
):
    prog = parse_program("#universe {1, 2}.\n#intensional p.\np(X) :- q(X).\n", registry)
    i = interp({1, 2}, ga("p", 1), ga("q", 1))
    with pytest.raises(GqError) as raised:
        eval_flp_transform(prog, i, smaller, registry)
    assert str(raised.value) == message


def test_the_star_and_flp_readers_report_a_predicate_fault_before_a_universe_fault(
    registry,
):
    # the predicates are checked over the whole set first, whatever the
    # set's order, and the universe only after them
    prog = parse_program("#universe {1, 2}.\n#intensional p.\np(X) :- q(X).\n", registry)
    i = interp({1, 2}, ga("p", 1), ga("q", 1))
    smaller = {ga("p", 5), ga("p", 6), ga("p", 7), ga("p", 8), ga("p", 9), ga("q", 1)}
    message = (
        "atom q(1) is not intensional; the smaller valuation may only "
        "mention intensional predicates"
    )
    with pytest.raises(GqError) as raised:
        eval_star(parse_formula("p(1)", registry), i, smaller, {"p"}, registry)
    assert str(raised.value) == message
    with pytest.raises(GqError) as raised:
        eval_flp_transform(prog, i, smaller, registry)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "text",
    [
        "top", "bot", "1 = 2", "p(1)", "not p(1)", "p(1) -> q(2)", "not (p(1) & q(2))",
        "p(1) & q(2)", "p(1) | q(2)", "p(1) | 1 = 2", "forall X (p(X))", "exists X (p(X))",
        "size{X : p(X)}", "size{X : X = 1 -> p(X)}", "majority{X : X = 1 -> p(X)}",
        "sum{X : p(X)} > 1", "sum{X : p(X) & X != 2} >= 1",
    ],
)
def test_every_node_reading_is_a_bool(text):
    # a conjunction or disjunction compares its children's answers with
    # ``is``, so a reading must give True or False, whatever the truth
    # function returns: size returns the relation's size
    registry = Registry()
    registry.register(QuantifierDef("size", (1,), lambda u, rels: len(rels[0]), (Mono.NEITHER,)))
    plain, star = _compile_sentence(parse_formula(text, registry), interp({1, 2}), registry, {"p"})
    base = [ga("p", 1), ga("p", 2), ga("q", 1), ga("q", 2)]
    for atoms in _subsets_ascending(base):
        assert type(plain(frozenset(atoms))) is bool
        for j in _subsets_ascending(base[:2]):
            assert type(star(frozenset(atoms), frozenset(j))) is bool


def test_a_compiled_program_reads_each_interpretation_s_own_frozen_part(registry):
    # e is extensional, so the frozen part of I is its e atoms; the
    # compiled program keeps it, and the reduct, for the model it last
    # found, and must not read them for another I
    prog = parse_program(
        "#universe {1, 2}.\n#intensional p, q.\n"
        "p(X) :- e(X), not q(X).\nq(X) :- e(X), not p(X).\n",
        registry,
    )
    rules = _compile_program(prog, interp({1, 2}), registry)
    sentence = solver.program_to_sentence(prog)
    base = sorted(herbrand_base(prog), key=GroundAtom.sort_key)
    pairs = []
    for combo in _subsets_ascending(base):
        i = interp({1, 2}, *combo)
        if satisfies_program(i, rules, registry):
            pool = [a for a in combo if a.pred != "e"]
            pairs += [(i, j) for j in _subsets_ascending(pool)]
    # alternate the interpretations from one J to the next
    pairs = pairs[::2] + pairs[1::2]
    seen = set()
    for i, j in pairs:
        got = eval_flp_transform(rules, i, j, registry)
        want = eval_flp_transform(prog, i, j, registry)
        assert got == want, (i.atoms, j)
        seen.add(got)
        got = eval_star(rules, i, j, prog.intensional, registry)
        assert got == eval_star(sentence, i, j, prog.intensional, registry), (i.atoms, j)
        seen.add(got)
    assert seen == {True, False}


def test_eval_flp_transform_validates_inputs(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    i1 = interp({-1, 1, 2}, ga("p", -1), ga("p", 1))
    with pytest.raises(GqError):
        eval_flp_transform(prog, i1, {ga("zz", 1)}, registry)


def test_flp_reduct_keeps_ground_rule_order(registry):
    prog = parse_program(
        "#universe {1, 2, 3}.\n"
        "q(X, Y) :- p(X), not p(Y).\n"
        "p(X) :- not q(X, X).\n"
        "r :- sum{X : p(X)} > 2.\n",
        registry,
    )
    i = interp({1, 2, 3}, ga("p", 1), ga("p", 3), ga("q", 2, 2))
    fired = flp_reduct(prog, i, registry)
    assert [(prog.rules.index(r), env) for r, env in fired] == [
        (0, {"X": 1, "Y": 2}),
        (0, {"X": 3, "Y": 2}),
        (1, {"X": 1}),
        (1, {"X": 3}),
        (2, {}),
    ]
    # the same instances, in the same order, as the ground rules whose
    # ground body holds
    want = [
        g
        for rule in prog.rules
        for g in ground_rule(rule, i, registry)
        if satisfies(i.atoms, g.sets[0].entries[0][1], i.universe, registry)
    ]
    got = [ground(impl(r.body, r.head), i, registry, dict(env)) for r, env in fired]
    assert got == want
    # every instance has its own env
    assert len({id(env) for _, env in fired}) == len(fired)


def test_eval_flp_transform_reads_the_kept_reduct(registry):
    # a compiled program keeps the instances that fired in the model it
    # last found, as the solver reads them
    prog = parse_program(SUM_THRESHOLD, registry)
    i1 = interp({-1, 1, 2}, ga("p", -1), ga("p", 1))
    rules = _compile_program(prog, i1, registry)
    assert satisfies_program(i1, rules, registry)
    atoms, kept, _ = rules.model
    assert atoms is i1.atoms
    assert list(kept) == list(_fired(rules, i1.atoms))
    assert len(kept) == len(flp_reduct(prog, i1, registry)) == 2
    for j in ((), (ga("p", -1),), (ga("p", 1),), (ga("p", -1), ga("p", 1))):
        assert eval_flp_transform(rules, i1, j, registry) == eval_flp_transform(
            prog, i1, j, registry
        )
    assert not eval_flp_transform(rules, i1, (ga("p", -1),), registry)
    # only the kept instances are read
    rules.model = (atoms, (), rules.model[2])
    assert eval_flp_transform(rules, i1, (ga("p", -1),), registry)


def test_eval_star_below_a_model_is_exact_for_any_j(registry):
    # I = {} is a model and J = {q} is not below it: F*(J) reads every
    # instance, not only the kept reduct, which is empty
    prog = parse_program("#universe {1}.\np :- q.\n", registry)
    i = interp({1})
    rules = _compile_program(prog, i, registry)
    assert satisfies_program(i, rules, registry)
    assert rules.model[1] == ()
    sentence = solver.program_to_sentence(prog)
    j = {ga("q")}
    assert eval_star(sentence, i, j, prog.intensional, registry) is False
    assert eval_star(rules, i, j, prog.intensional, registry) is False


def test_ground_to_json_shape(registry, i_empty):
    g = ground(parse_formula("sum{X : p(X)} < 2", registry), i_empty, registry)
    d = ground_to_json(g)
    assert d["kind"] == "apply"
    assert d["quantifier"] == "sum_lt"
    body_set, bound_set = d["sets"]
    assert [k for k, _ in body_set] == [[-1], [1], [2]]
    assert body_set[0][1] == {"kind": "atom", "pred": "p", "args": [-1]}
    kinds = {child["kind"] for _, child in bound_set}
    assert kinds == {"top", "bot"}
    assert json.dumps(d)  # serializable


def test_the_instances_of_a_rule_share_one_quantifier_application(registry):
    # the sum reads only Y, which it binds, so the three instances of the
    # rule over X hold one ground application; the connectives around it
    # are built per instance, and another rule has its own
    text = "p(X) :- not sum{Y : p(Y)} < 2.\n"
    prog = parse_program("#universe {-1, 1, 2}.\n" + text + text, registry)
    rules = ground_program(prog, registry)
    sums = [g.sets[0].entries[0][1].sets[0].entries[0][1] for g in rules]
    assert sums[0].quantifier == "sum_lt"
    assert all(s is sums[0] for s in sums[:3]) and all(s is sums[3] for s in sums[3:])
    assert sums[3] is not sums[0] and sums[3] == sums[0]
    assert len({id(g) for g in rules}) == len({id(g.sets[0]) for g in rules}) == 6
    assert rules[:3] == ground_rule(prog.rules[0], interp({-1, 1, 2}), registry)
    # each instance prints and exports in full, as if nothing were shared
    body = "not sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } < 2 -> "
    assert [render_ground_rule(g) for g in rules] == [body + f"p({x})" for x in (-1, 1, 2)] * 2

    def apply(name, *sets):
        return {"kind": "apply", "quantifier": name, "sets": [list(s) for s in sets]}

    def atom(x):
        return {"kind": "atom", "pred": "p", "args": [x]}

    bound = [[[x], {"kind": "top" if x == 2 else "bot"}] for x in (-1, 1, 2)]
    sum_json = apply("sum_lt", [[[x], atom(x)] for x in (-1, 1, 2)], bound)
    not_sum = apply("impl", [[[], sum_json]], [[[], {"kind": "bot"}]])
    want = [apply("impl", [[[], not_sum]], [[[], atom(x)]]) for x in (-1, 1, 2)]
    assert [ground_to_json(g) for g in rules] == want * 2


@pytest.mark.parametrize("read", ["eval", "eval_both", "ground"])
def test_a_read_that_raises_mid_binder_leaves_the_env_unchanged(registry, read):
    # V escapes into the second argument of count_ge, which meets it
    # unbound while X, Y and W are bound by the binders around it
    f = parse_formula("forall X (exists Y (count_ge[V][W](p(V); W = V)))", registry)
    i = interp({1, 2}, ga("p", 1))
    env = {"X": 2, "W": 2, "Z": 1}
    calls = {
        "eval": lambda: _eval(f, i, registry, env),
        "eval_both": lambda: _compile_sentence(f, i, registry, {"p"}, env)[1](
            i.atoms, frozenset()
        ),
        "ground": lambda: ground(f, i, registry, env),
    }
    with pytest.raises(GroundingError, match="unbound free variable V"):
        calls[read]()
    assert env == {"X": 2, "W": 2, "Z": 1}


def _logged(node, name, log):
    """``node`` with each reading appended to ``log`` as it is read."""
    plain, star = node

    def logged_plain(atoms):
        log.append(("plain", name))
        return plain(atoms)

    def logged_star(atoms, j):
        log.append(("star", name))
        return star(atoms, j)

    return logged_plain, logged_star


def test_an_or_spine_reads_as_the_nested_disjunctions_do():
    # d0 | ... | dn is one node; the nested binary reading is the two-child
    # disjunction folded from the left.  Every value, and every reading of
    # a disjunct in order, agrees on every (I, J), J not below I included.
    p, q, r = ga("p"), ga("q"), ga("r")
    leaves = {
        "p": _atom_node(p, True, False),
        "q": _atom_node(q, True, False),
        "not p": _atom_node(p, True, True),
        "r": _atom_node(r, False, False),
        "not r": _atom_node(r, False, True),
        "p & not q": _junction_node([_atom_node(p, True, False), _atom_node(q, True, True)], False),
        "top": _TOP_NODE,
        "bot": _BOT_NODE,
    }
    sets = [frozenset(c) for k in range(4) for c in itertools.combinations((p, q, r), k)]
    rng = random.Random(11)
    for _ in range(300):
        names = [rng.choice(list(leaves)) for _ in range(rng.randint(2, 7))]
        logs = [], []

        def kids(log):
            # bot reads nothing, and the compiler knows it by identity
            return [leaves[n] if n == "bot" else _logged(leaves[n], i, log)
                    for i, n in enumerate(names)]

        flat = _or_node(kids(logs[0]))
        nested, *rest = kids(logs[1])
        for kid in rest:
            nested = _junction_node([nested, kid], True)
        for atoms in sets:
            got = [flat[0](atoms)] + [flat[1](atoms, j) for j in sets]
            want = [nested[0](atoms)] + [nested[1](atoms, j) for j in sets]
            assert (got, logs[0]) == (want, logs[1]), (names, atoms)
