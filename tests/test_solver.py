"""Stable and FLP model search, the syntactic class check, comparison."""

import random

import pytest

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
