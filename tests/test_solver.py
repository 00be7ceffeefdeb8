"""Stable and FLP model search, the syntactic class check, comparison."""

import random

import pytest

from gqsm import Mono, QuantifierDef, solver
from gqsm.ground import GroundAtom, format_atoms
from gqsm.parser import parse_program
from gqsm.quantifiers import Registry
from gqsm.reduct import CAP_ENV_VAR, EnumerationCapError
from gqsm.render import render
from gqsm.solver import (
    ReductRouteError,
    SolveStats,
    compare_semantics,
    flp_stable_models,
    monotone_class_report,
    program_to_sentence,
    resolve_cap,
    stable_and_flp_models,
    stable_models_operator,
    stable_models_reduct,
)
from gqsm.syntax import GqError

import randprog
from conftest import COUNT_GUARD, NEGATIVE_LOOP, SUM_THRESHOLD


def ga(pred, *args):
    return GroundAtom(pred, args)


def models_as_text(result):
    return [format_atoms(m) for m in result.models]


I1 = frozenset({ga("p", -1), ga("p", 1)})
I2 = frozenset({ga("p", -1), ga("p", 1), ga("p", 2)})


def test_sum_threshold_stable_models_both_routes(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    op = stable_models_operator(prog, registry)
    red = stable_models_reduct(prog, registry)
    assert op.models == (I1, I2)
    assert red.models == (I1, I2)
    assert op.route == "operator" and red.route == "reduct"
    assert op.semantics == red.semantics == "sm"


def test_sum_threshold_flp_models(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    flp = flp_stable_models(prog, registry)
    assert flp.models == (I1,)
    assert flp.semantics == "flp"


def test_count_guard_semantics_split(registry):
    prog = parse_program(COUNT_GUARD, registry)
    assert stable_models_operator(prog, registry).models == (
        frozenset(),
        frozenset({ga("p", "a")}),
    )
    assert stable_models_reduct(prog, registry).models == (
        frozenset(),
        frozenset({ga("p", "a")}),
    )
    assert flp_stable_models(prog, registry).models == (frozenset(),)


def test_negative_loop_has_no_models(registry):
    prog = parse_program(NEGATIVE_LOOP, registry)
    assert stable_models_operator(prog, registry).models == ()
    assert stable_models_reduct(prog, registry).models == ()
    assert flp_stable_models(prog, registry).models == ()


def test_positive_facts_and_closure(registry):
    prog = parse_program("#universe {1, 2}.\np(1).\nq(X) :- p(X).", registry)
    (m,) = stable_models_operator(prog, registry).models
    assert format_atoms(m) == "p(1) q(1)"


def test_stats_count_candidates(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    res = stable_models_operator(prog, registry)
    assert res.stats == SolveStats(8)  # 2**3 subsets of the base


def test_solver_result_to_json(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    d = stable_models_operator(prog, registry).to_json()
    assert d == {
        "semantics": "sm",
        "route": "operator",
        "models": [["p(-1)", "p(1)"], ["p(-1)", "p(1)", "p(2)"]],
        "stats": {"candidates": 8},
    }


def test_reduct_route_requires_all_intensional(registry):
    prog = parse_program(
        "#universe {1}.\n#intensional p.\np(1) :- q(1).", registry
    )
    with pytest.raises(ReductRouteError, match="extensional here: q"):
        stable_models_reduct(prog, registry)


def test_operator_route_treats_extensional_atoms_as_free_inputs(registry):
    # q may be anything; p follows q and is minimized for each choice of q
    prog = parse_program(
        "#universe {1}.\n#intensional p.\np(1) :- q(1).", registry
    )
    assert stable_models_operator(prog, registry).models == (
        frozenset(),
        frozenset({ga("p", 1), ga("q", 1)}),
    )
    # pinning q with a fact where q is intensional removes the free choice
    pinned = parse_program("#universe {1}.\nq(1).\np(1) :- q(1).", registry)
    assert stable_models_operator(pinned, registry).models == (
        frozenset({ga("p", 1), ga("q", 1)}),
    )
    # the flp route sees the same two models here
    assert flp_stable_models(prog, registry).models == (
        frozenset(),
        frozenset({ga("p", 1), ga("q", 1)}),
    )


def test_program_to_sentence_universal_closure(registry):
    prog = parse_program("#universe {1, 2}.\nq(X) :- p(X).", registry)
    s = program_to_sentence(prog)
    assert render(s) == "forall X (p(X) -> q(X))"
    multi = parse_program("#universe {1}.\np(1).\nq(1) :- p(1).", registry)
    assert render(program_to_sentence(multi)) == "(top -> p(1)) & (p(1) -> q(1))"


def test_cap_resolution(monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    assert resolve_cap() == 20
    assert resolve_cap(7) == 7
    monkeypatch.setenv(CAP_ENV_VAR, "25")
    assert resolve_cap() == 25
    assert resolve_cap(7) == 7
    monkeypatch.setenv(CAP_ENV_VAR, "abc")
    with pytest.raises(GqError, match="must be an integer"):
        resolve_cap()


def test_negative_caps_are_refused(monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    assert resolve_cap(0) == 0
    with pytest.raises(GqError, match=r"--cap or cap=\) must not be negative, got -1"):
        resolve_cap(-1)
    monkeypatch.setenv(CAP_ENV_VAR, "-3")
    with pytest.raises(GqError, match=f"{CAP_ENV_VAR} must not be negative, got -3"):
        resolve_cap()
    # an explicit cap still wins over the environment
    assert resolve_cap(4) == 4


def test_cap_stops_large_enumerations(registry):
    lines = ["#universe {1, 2, 3}."]
    for p in "abcdefghi":
        for e in (1, 2, 3):
            lines.append(f"x{p}({e}).")
    prog = parse_program("\n".join(lines), registry)
    # 27 atoms exceeds the default cap of 20 before any search starts
    with pytest.raises(EnumerationCapError):
        stable_models_operator(prog, registry)


def test_cap_argument_loosens_and_tightens(registry):
    prog = parse_program(
        "#universe {1, 2, 3}.\np(1).\np(2).\nq(X) :- p(X).", registry
    )
    with pytest.raises(EnumerationCapError):
        stable_models_operator(prog, registry, cap=5)
    res = stable_models_operator(prog, registry, cap=6)
    assert len(res.models) == 1


def test_monotone_class_accepts_simple_programs(registry):
    prog = parse_program(
        "#universe {1, 2}.\np(1) | p(2).\nq(X) :- p(X), not r(X).\n"
        "s :- majority{X : p(X)}.\nt :- not exists X (p(X)).",
        registry,
    )
    report = monotone_class_report(prog, registry)
    assert report.in_class
    assert report.violations == ()


def test_monotone_class_rejects_negated_non_monotone_quantifier(registry):
    prog = parse_program(COUNT_GUARD, registry)
    report = monotone_class_report(prog, registry)
    assert not report.in_class
    (v,) = report.violations
    assert v.rule_index == 0
    assert "atmost(0)" in v.literal
    assert "not monotone in every position" in v.reason


def test_monotone_class_rejects_negated_aggregate(registry):
    prog = parse_program(SUM_THRESHOLD, registry)
    report = monotone_class_report(prog, registry)
    assert not report.in_class
    (v,) = report.violations
    assert "sum_lt" in v.reason


def test_monotone_class_rejects_double_negation(registry):
    prog = parse_program("#universe {1}.\np :- not not p.", registry)
    report = monotone_class_report(prog, registry)
    assert not report.in_class
    (v,) = report.violations
    assert "impl" in v.reason


def test_monotone_class_rejects_non_atomic_heads(registry):
    prog = parse_program("#universe {1}.\nnot p :- q.", registry)
    report = monotone_class_report(prog, registry)
    assert not report.in_class
    assert report.violations[0].reason == "head disjunct is not atomic"


def test_monotone_class_rejects_nested_quantifier_arguments(registry):
    prog = parse_program("#universe {1}.\np :- exists X (q(X) & r(X)).", registry)
    report = monotone_class_report(prog, registry)
    assert not report.in_class
    assert report.violations[0].reason == "quantifier argument is not atomic"


def test_monotone_class_rejects_negated_quantifier_with_nested_argument(registry):
    prog = parse_program(
        "#universe {1, 2}.\np(X) :- q(X), not majority{Y : q(Y) & r(Y)}.", registry
    )
    report = monotone_class_report(prog, registry)
    assert not report.in_class
    (v,) = report.violations
    assert v.literal == "not majority{Y : q(Y) & r(Y)}"
    assert v.reason == "negated quantifier has a non-atomic argument"


def test_monotone_class_allows_positive_aggregates_and_ne(registry):
    prog = parse_program(
        "#universe {1, 2}.\np(X) :- sum{W : q(W)} > 1, X != 1.\nq(2).",
        registry,
    )
    assert monotone_class_report(prog, registry).in_class


def test_class_violation_lists_every_bad_literal(registry):
    prog = parse_program(
        "#universe {1}.\nnot p :- not atmost(0){X : q(X)}.\nq(1).", registry
    )
    report = monotone_class_report(prog, registry)
    reasons = {v.reason for v in report.violations}
    assert len(report.violations) == 2
    assert "head disjunct is not atomic" in reasons


def test_compare_semantics_on_the_count_guard(registry):
    prog = parse_program(COUNT_GUARD, registry)
    rep = compare_semantics(prog, registry)
    assert rep.sm.models == (frozenset(), frozenset({ga("p", "a")}))
    assert rep.flp.models == (frozenset(),)
    assert rep.difference == (frozenset({ga("p", "a")}),)
    assert not rep.class_report.in_class
    assert not rep.agreement_violated


def test_compare_semantics_in_class_agreement(registry):
    prog = parse_program(
        "#universe {1, 2}.\np(1) | p(2).\nq(X) :- p(X), not r(X).", registry
    )
    rep = compare_semantics(prog, registry)
    assert rep.class_report.in_class
    assert rep.difference == ()
    assert not rep.agreement_violated


def test_compare_report_to_json(registry):
    rep = compare_semantics(parse_program(COUNT_GUARD, registry), registry)
    d = rep.to_json()
    assert [r["semantics"] for r in d["results"]] == ["sm", "flp"]
    assert d["results"][0]["models"] == [[], ["p(a)"]]
    assert d["results"][1]["models"] == [[]]
    agreement = d["agreement"]
    assert list(agreement) == ["in_class", "violations", "difference", "agreement_violated"]
    assert agreement["difference"] == [["p(a)"]]
    assert agreement["in_class"] is False
    assert agreement["agreement_violated"] is False
    assert agreement["violations"][0]["rule"] == 0


@pytest.mark.parametrize(
    "solve",
    [
        stable_models_operator,
        stable_models_reduct,
        flp_stable_models,
        stable_and_flp_models,
        compare_semantics,
    ],
)
@pytest.mark.parametrize("text", [SUM_THRESHOLD, COUNT_GUARD, NEGATIVE_LOOP])
def test_two_solves_of_one_program_compare_equal(registry, solve, text):
    prog = parse_program(text, registry)
    first, second = solve(prog, registry), solve(prog, registry)
    assert first == second and hash(first) == hash(second)
    assert first is not second


def test_routes_agree_on_a_random_pool():
    reg = Registry()
    rng = random.Random(4242)
    for _ in range(60):
        prog = parse_program(randprog.random_wild_program(rng), reg)
        assert (
            stable_models_reduct(prog, reg).models
            == stable_models_operator(prog, reg).models
        )


def test_flp_matches_sm_on_a_random_in_class_pool():
    reg = Registry()
    rng = random.Random(4243)
    for _ in range(60):
        prog = parse_program(randprog.random_in_class_program(rng), reg)
        rep = compare_semantics(prog, reg)
        assert rep.class_report.in_class
        assert rep.difference == ()


# ---------------------------------------------------------------------------
# The search block by block


def blocks_of(text, registry):
    """``solver._blocks`` of a program's compiled instances, each block as
    its atoms and its instances, each as the rule's index and the env;
    None for one block."""
    prog = parse_program(text, registry)
    base, _, compiled = solver._setup(prog, registry, None)
    blocks = solver._blocks(
        compiled.instances, compiled.reads, compiled.heads, base, prog.intensional
    )
    if blocks is None:
        return None
    return [
        ([str(a) for a in atoms], [(prog.rules.index(r), env) for r, env, _, _ in part])
        for atoms, part in blocks
    ]


def test_the_blocks_are_searched_dependencies_first(registry):
    # r(X, Z) reads r(Y, Z) for every Y, so the r atoms of one Z are one
    # block, after the e atoms they read; an e atom that heads no instance
    # is a block of no instances
    text = (
        "#universe {1, 2}.\n"
        "e(1, 2).\n"
        "r(X, Y) :- e(X, Y).\n"
        "r(X, Z) :- e(X, Y), r(Y, Z).\n"
    )
    inner = [(2, {"X": x, "Y": y, "Z": z}) for x in (1, 2) for y in (1, 2) for z in (1, 2)]
    assert blocks_of(text, registry) == [
        (["e(1, 1)"], []),
        (["e(1, 2)"], [(0, {})]),
        (["e(2, 1)"], []),
        (["e(2, 2)"], []),
        (["r(1, 1)", "r(2, 1)"], [(1, {"X": 1, "Y": 1}), (1, {"X": 2, "Y": 1})]
         + [i for i in inner if i[1]["Z"] == 1]),
        (["r(1, 2)", "r(2, 2)"], [(1, {"X": 1, "Y": 2}), (1, {"X": 2, "Y": 2})]
         + [i for i in inner if i[1]["Z"] == 2]),
    ]


def test_a_constraint_joins_the_block_of_the_last_atom_it_reads(registry):
    text = (
        "#universe {1, 2}.\n"
        "#intensional p, q, r.\n"
        "p(X) :- not q(X).\n"
        "q(X) :- not p(X).\n"
        ":- p(1), p(2).\n"
        ":- not r.\n"
        "r :- q(1).\n"
        ":- e.\n"
    )
    assert blocks_of(text, registry) == [
        # a constraint that reads no intensional atom of the base goes first
        (["p(1)", "q(1)"], [(0, {"X": 1}), (1, {"X": 1}), (5, {})]),
        (["p(2)", "q(2)"], [(0, {"X": 2}), (1, {"X": 2}), (2, {})]),
        (["r"], [(3, {}), (4, {})]),
    ]


@pytest.mark.parametrize(
    "text",
    [
        # the quantifier argument and the negated atom are both edges
        "#universe {a}.\np(a) :- not atmost(0){X : q(X)}.\nq(a) :- not atmost(0){X : p(X)}.\n",
        "#universe {1}.\np(1) :- not q(1).\nq(1) :- not p(1).\n",
        # a disjunctive head puts its atoms in one block
        "#universe {1}.\np(1) | q(1).\n",
        # one intensional atom in the base
        "#universe {1}.\n#intensional p.\np(1) :- e(1), not p(1).\n",
    ],
)
def test_a_program_of_one_block_is_searched_over_its_whole_base(text, registry):
    assert blocks_of(text, registry) is None


def test_a_quantifier_outside_the_built_ins_makes_one_block():
    # only a user truth function can raise in a search, so such a program
    # is scanned over the whole base, as the definitions read it
    reg = Registry()
    reg.register(QuantifierDef("frob", (1,), lambda u, rels: bool(rels[0]), (Mono.MONOTONE,)))
    text = "#universe {1, 2}.\np(X) :- not q(X).\nq(X) :- not p(X).\nr :- frob{X : p(X)}.\n"
    # both routes check the names before they build the graph
    for t, splits in ((text, False), (text.replace("frob", "atleast(1)"), True)):
        prog = parse_program(t, reg)
        base, _, compiled = solver._setup(prog, reg, None)
        assert solver._splits(base, compiled.quantifiers) is splits
        assert solver._splits(base, solver._applied_names(prog)) is splits
    prog = parse_program(text, reg)
    assert len(stable_models_operator(prog, reg).models) == 4
    assert stable_models_reduct(prog, reg).models == stable_models_operator(prog, reg).models


def test_components_come_after_the_components_they_reach():
    # Tarjan's components against the mutual reachability of every pair,
    # on seeded random graphs
    rng = random.Random(2909)
    for _ in range(500):
        n = rng.randint(0, 8)
        succ = [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(n)]
        reach = [{v} for v in range(n)]
        for _ in range(n):
            reach = [reach[v].union(*[reach[w] for w in succ[v]]) for v in range(n)]
        got = solver._components(succ)
        assert sorted(map(tuple, got)) == sorted(
            {tuple(w for w in range(n) if v in reach[w] and w in reach[v]) for v in range(n)}
        ), succ
        assert all(c == sorted(c) for c in got)
        position = {v: k for k, c in enumerate(got) for v in c}
        assert all(position[w] <= position[v] for v in range(n) for w in succ[v])


def test_large_families_answer_block_by_block(registry):
    # 20 atoms in ten blocks of two, and transitive closure over {1, 2, 3}
    # in twelve blocks: each scan, the reduct route's too, reads a few
    # hundred local models where the whole base has 2 ** 20 and 2 ** 18
    # candidates
    choice = parse_program(
        "#universe {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}.\np(X) :- not q(X).\nq(X) :- not p(X).\n",
        registry,
    )
    report = compare_semantics(choice, registry)
    assert len(report.sm.models) == len(report.flp.models) == 1024
    assert report.sm.stats.candidates == 2 ** 20 and not report.difference
    reduct = stable_models_reduct(choice, registry)
    assert (reduct.models, reduct.stats) == (report.sm.models, report.sm.stats)
    closure = parse_program(
        "#universe {1, 2, 3}.\ne(1, 2).\ne(2, 3).\n"
        "r(X, Y) :- e(X, Y).\nr(X, Z) :- e(X, Y), r(Y, Z).\n",
        registry,
    )
    want = ("e(1, 2) e(2, 3) r(1, 2) r(1, 3) r(2, 3)",)
    for result in (
        stable_models_reduct(closure, registry),
        stable_models_operator(closure, registry),
        flp_stable_models(closure, registry),
        *stable_and_flp_models(closure, registry),
    ):
        assert tuple(models_as_text(result)) == want
        assert result.stats.candidates == 2 ** 18


def test_a_constraint_is_read_once_every_atom_it_reads_is_chosen(registry):
    # the constraint reads p(1), in the first block, and p(2), in the
    # second; read with the first, it would see p(2) false and keep
    # {p(1), p(2), ...}.  Six atoms, so the base is searched block by block
    prog = parse_program(
        "#universe {1, 2, 3}.\np(X) :- not q(X).\nq(X) :- not p(X).\n:- p(1), p(2).\n", registry
    )
    assert len(solver._checked_base(prog, None)) > solver._WHOLE_BASE_ATOMS
    want = [
        "p(1) p(3) q(2)", "p(1) q(2) q(3)", "p(2) p(3) q(1)",
        "p(2) q(1) q(3)", "p(3) q(1) q(2)", "q(1) q(2) q(3)",
    ]
    assert models_as_text(stable_models_reduct(prog, registry)) == want
    for result in (
        stable_models_operator(prog, registry),
        flp_stable_models(prog, registry),
        *stable_and_flp_models(prog, registry),
    ):
        assert models_as_text(result) == want
