"""Reduct construction and minimal model enumeration."""

import itertools

import pytest

from gqsm.ground import (
    GApply,
    GBot,
    GroundAtom,
    GroundingError,
    Interpretation,
    PairSet,
    ground_program,
    herbrand_base,
    satisfies,
)
from gqsm.parser import parse_program
from gqsm.quantifiers import Registry
from gqsm.reduct import (
    DEFAULT_ATOM_CAP,
    EnumerationCapError,
    minimal_models,
    reduct,
    reduct_program,
)
from gqsm.render import render_ground_rule, simplify_rule_sides
from gqsm.syntax import GqError

import reference_semantics as ref
from conftest import SUM_THRESHOLD, COUNT_GUARD


def ga(pred, *args):
    return GroundAtom(pred, args)


U = frozenset({-1, 1, 2})
I1 = frozenset({ga("p", -1), ga("p", 1)})
I2 = frozenset({ga("p", -1), ga("p", 1), ga("p", 2)})


@pytest.fixture(scope="module")
def sum_rules():
    reg = Registry()
    prog = parse_program(SUM_THRESHOLD, reg)
    return ground_program(prog, reg), reg


def test_ground_rule_display(sum_rules):
    rules, _ = sum_rules
    assert [render_ground_rule(g) for g in rules] == [
        "not sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } < 2 -> p(2)",
        "sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } > -1 -> p(-1)",
        "p(-1) -> p(1)",
    ]


def test_reduct_wrt_the_smaller_stable_model(sum_rules):
    rules, reg = sum_rules
    results = [reduct(g, I1, U, reg) for g in rules]
    assert [render_ground_rule(r.formula) for r in results] == [
        "bot -> bot",
        "sum{ -1 : p(-1); 1 : p(1); 2 : bot } > -1 -> p(-1)",
        "p(-1) -> p(1)",
    ]
    assert [r.replaced for r in results] == [2, 1, 0]


def test_reduct_wrt_the_larger_stable_model(sum_rules):
    rules, reg = sum_rules
    results = [reduct(g, I2, U, reg) for g in rules]
    texts = [render_ground_rule(r.formula) for r in results]
    # the negated sum threshold holds under I2, so its body survives intact
    assert texts[0] == "(bot -> bot) -> p(2)"
    assert render_ground_rule(simplify_rule_sides(results[0].formula)) == "top -> p(2)"
    assert texts[1] == "sum{ -1 : p(-1); 1 : p(1); 2 : p(2) } > -1 -> p(-1)"
    assert texts[2] == "p(-1) -> p(1)"


def test_reduct_replaces_unsatisfied_subformulas_with_bot(sum_rules):
    rules, reg = sum_rules
    r = reduct(rules[0], I1, U, reg)
    # body and head both fail under I1, each replaced wholesale
    assert isinstance(r.formula.sets[0].entries[0][1], GBot)
    assert isinstance(r.formula.sets[1].entries[0][1], GBot)


def test_reduct_of_count_guard(registry):
    prog = parse_program(COUNT_GUARD, registry)
    rules = ground_program(prog, registry)
    with_p = reduct(rules[0], {ga("p", "a")}, frozenset({"a"}), registry)
    empty = reduct(rules[0], frozenset(), frozenset({"a"}), registry)
    assert render_ground_rule(with_p.formula) == "(bot -> bot) -> p(a)"
    assert render_ground_rule(empty.formula) == "bot -> bot"


def test_reduct_program_maps_each_rule(sum_rules):
    rules, reg = sum_rules
    results = reduct_program(rules, I1, U, reg)
    assert len(results) == 3
    assert sum(r.replaced for r in results) == 3


def test_reduct_keeps_satisfied_formulas_exact(sum_rules):
    rules, reg = sum_rules
    r = reduct(rules[2], I1, U, reg)
    assert r.formula == rules[2]
    assert r.replaced == 0


def brute_minimal(formulas, base, universe, reg):
    base = sorted(base, key=lambda a: a.sort_key())
    sat = []
    for k in range(len(base) + 1):
        for combo in itertools.combinations(base, k):
            s = frozenset(combo)
            if all(satisfies(s, g, universe, reg) for g in formulas):
                sat.append(s)
    return sorted(
        (s for s in sat if not any(t < s for t in sat)),
        key=lambda s: sorted(a.sort_key() for a in s),
    )


def test_minimal_models_of_the_reduct(sum_rules):
    rules, reg = sum_rules
    reduced = [r.formula for r in reduct_program(rules, I1, U, reg)]
    base = [ga("p", -1), ga("p", 1), ga("p", 2)]
    models = minimal_models(reduced, base, U, reg)
    assert models == (I1,)


def test_minimal_models_against_brute_force(registry):
    prog = parse_program(
        "#universe {1, 2}.\np(1) | p(2).\nq(X) :- p(X).", registry
    )
    rules = ground_program(prog, registry)
    base = herbrand_base(prog)
    got = minimal_models(rules, base, prog.universe, registry)
    want = brute_minimal(rules, base, prog.universe, registry)
    assert sorted(got) == sorted(want)
    assert len(got) == 2  # {p(1),q(1)} and {p(2),q(2)}


def test_minimal_models_can_be_empty(registry):
    prog = parse_program("#universe {1}.\np(1).\n:- p(1).", registry)
    rules = ground_program(prog, registry)
    assert minimal_models(rules, herbrand_base(prog), prog.universe, registry) == ()


def test_minimality_prunes_supersets(registry):
    prog = parse_program("#universe {1, 2}.\np(1) | p(2).", registry)
    rules = ground_program(prog, registry)
    models = minimal_models(rules, herbrand_base(prog), prog.universe, registry)
    assert models == (frozenset({ga("p", 1)}), frozenset({ga("p", 2)}))


def test_enumeration_cap(registry):
    base = [ga("p", e) for e in range(5)]
    with pytest.raises(EnumerationCapError) as exc:
        minimal_models((), base, frozenset(range(5)), registry, cap=4)
    assert exc.value.size == 5
    assert exc.value.cap == 4
    assert "GQSM_ATOM_CAP" in str(exc.value)
    assert DEFAULT_ATOM_CAP == 20


@pytest.mark.parametrize(
    "bad, want",
    [
        (("p", (1,)), r"^not a ground atom: \('p', \(1,\)\)$"),
        ("p(1)", r"^not a ground atom: 'p\(1\)'$"),
        (ga("p", 2), r"^atom p\(2\) mentions 2, not a universe element$"),
    ],
    ids=["tuple", "string", "outside-universe"],
)
def test_minimal_models_checks_its_base(registry, bad, want):
    # the base is read as an Interpretation reads its atoms
    with pytest.raises(GqError, match=want):
        minimal_models([], [bad], {1}, registry)


def test_minimal_models_reads_the_cap_from_the_environment(registry, monkeypatch):
    monkeypatch.setenv("GQSM_ATOM_CAP", "3")
    base = [ga("p", e) for e in range(4)]
    with pytest.raises(EnumerationCapError) as exc:
        minimal_models((), base, frozenset(range(4)), registry)
    assert (exc.value.size, exc.value.cap) == (4, 3)
    # an explicit cap still wins over the environment
    assert minimal_models((), base, frozenset(range(4)), registry, cap=4) == (frozenset(),)


def test_negative_enumeration_cap_is_refused(registry):
    # the solver's message: both read the cap through resolve_cap
    want = r"^the atom cap \(--cap or cap=\) must not be negative, got -1$"
    with pytest.raises(GqError, match=want) as exc:
        minimal_models((), (), frozenset({1}), registry, cap=-1)
    assert not isinstance(exc.value, EnumerationCapError)


P1_ONLY = PairSet((((), ga("p", 1)),))
AT_1 = PairSet((((1,), ga("p", 1)),))


@pytest.mark.parametrize(
    "g, message",
    [
        (GApply("and", (P1_ONLY,)), "ground quantifier 'and' has 1 pair-sets, expected 2"),
        (
            GApply("or", (P1_ONLY, P1_ONLY, P1_ONLY)),
            "ground quantifier 'or' has 3 pair-sets, expected 2",
        ),
        (GApply("exists", (AT_1, AT_1)), "ground quantifier 'exists' has 2 pair-sets, expected 1"),
    ],
    ids=["one-set-and", "three-set-or", "two-set-exists"],
)
def test_a_miscounted_application_fails_alike_in_satisfies_and_reduct(registry, g, message):
    # an API-built application whose pair-sets do not match its
    # quantifier's arguments fails before any of them is read
    atoms, universe = {ga("p", 1)}, {1}
    readers = [
        lambda: satisfies(atoms, g, universe, registry),
        lambda: reduct(g, atoms, universe, registry),
        lambda: ref.gsat(g, frozenset(atoms), frozenset(universe), registry),
        lambda: ref.reduct(g, atoms, universe, registry),
    ]
    for read in readers:
        with pytest.raises(GroundingError) as raised:
            read()
        assert str(raised.value) == message
