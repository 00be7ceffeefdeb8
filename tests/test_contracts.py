"""Contracts that the reference semantics cannot see.

The harness holds every route and reader to what the definitions
answer.  These tests hold the package to how it gets there: the reduct
route reads each rule once per projection of the candidate, a solve
resolves each quantifier a bounded number of times, no compiled form
outlives its solve, the atom cap counts the head-bounded base, and
every entry point raises a program's first static failure before it
reads anything.
"""

import dataclasses
from collections import Counter

import pytest

import reference_semantics as ref
from reference_semantics import outcome
from gqsm import (
    Apply, Atom, Constant, Equality, Mono, Program, QuantifierDef, Registry, Rule, Variable,
    atom, conj,
)
from gqsm import solver
from gqsm.ground import (
    GroundAtom, Interpretation, _read_set, eval_flp_transform, eval_star, flp_reduct,
    ground_program, satisfies_direct, satisfies_program,
)
from gqsm.parser import parse_program
from gqsm.quantifiers import UnknownQuantifierError
from gqsm.reduct import EnumerationCapError
from gqsm.solver import (
    compare_semantics, flp_stable_models, program_to_sentence, stable_models_operator,
    stable_models_reduct,
)

ROUTES = (stable_models_operator, stable_models_reduct, flp_stable_models)


def count_ge(x, arg, bound):
    """``count{x : arg} >= bound`` in the application form."""
    return Apply("count_ge", ((x,), ("W",)), (arg, Equality(Variable("W"), bound)))


# ---------------------------------------------------------------------------
# What the reduct route's memo reads


def test_a_read_set_holds_the_atoms_inside_quantifier_arguments():
    reg = Registry()
    prog = parse_program(
        "#universe {-1, 1, 2}.\np(2) :- not sum{X : p(X)} < 2, q.\nq.\n", reg
    )
    rule, fact = ground_program(prog, reg)
    want = {GroundAtom("p", (v,)) for v in (-1, 1, 2)} | {GroundAtom("q")}
    assert _read_set(rule) == want
    assert _read_set(fact) == {GroundAtom("q")}


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_each_rule_and_each_reduced_rule_is_read_once_per_projection(n):
    reg = Registry()
    prog = parse_program(ref.choice_text(n), reg)
    reads, reducts = Counter(), Counter()
    keep = []  # keeps every read formula alive, so ids stay unique
    real_gsat, real_reduct = solver._gsat, solver.reduct

    def gsat(g, atoms, universe, registry):
        keep.append(g)
        reads[id(g), atoms] += 1
        return real_gsat(g, atoms, universe, registry)

    def counted_reduct(g, atoms, universe, registry):
        keep.append(g)
        reducts[id(g), frozenset(atoms)] += 1
        return real_reduct(g, atoms, universe, registry)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_gsat", gsat)
        mp.setattr(solver, "reduct", counted_reduct)
        result = stable_models_reduct(prog, reg)
    assert len(result.models) == 2**n
    assert set(reads.values()) == {1} and set(reducts.values()) == {1}
    rules = {gid for gid, _ in reducts}
    rule_reads = [atoms for gid, atoms in reads if gid in rules]
    reduced_reads = [atoms for gid, atoms in reads if gid not in rules]
    # 2n ground rules, each mentioning p(x) and q(x): 4 projections each
    assert len(rule_reads) <= 4 * 2 * n and len(reducts) <= 4 * 2 * n
    # a reduced rule mentions at most its head, so J is read through it
    assert reduced_reads and all(len(atoms) <= 1 for atoms in reduced_reads)


# ---------------------------------------------------------------------------
# Quantifiers are resolved when a solve compiles, not per candidate


class CountingRegistry(Registry):
    """Counts the lookups of each name, and the calls of every truth
    function it hands out."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()
        self.truth_calls = 0

    def resolve(self, name):
        self.calls[name] += 1
        qdef = super().resolve(name)

        def truth(universe, rels):
            self.truth_calls += 1
            return qdef.truth(universe, rels)

        return dataclasses.replace(qdef, truth=truth)


def _guarded_choice(n):
    # atmost(3) and atmost(4) are one node each, true at n <= 3; the
    # candidates grow as 4**n
    universe = ", ".join(str(v) for v in range(1, n + 1))
    return (
        f"#universe {{{universe}}}.\n"
        "p(X) :- not q(X), atmost(3){Y : p(Y)}.\n"
        "q(X) :- not p(X), atmost(4){Y : q(Y)}.\n"
    )


@pytest.mark.parametrize(
    "route", [stable_models_operator, flp_stable_models], ids=["operator", "flp"]
)
def test_one_solve_resolves_each_quantifier_a_bounded_number_of_times(route):
    seen = []
    for n in (1, 2, 3):
        reg = CountingRegistry()
        prog = parse_program(_guarded_choice(n), reg)
        reg.calls.clear()
        result = route(prog, reg)
        assert result.stats.candidates == 4**n and len(result.models) == 2**n
        seen.append(dict(reg.calls))
    # the same for 4, 16 and 64 candidates: once per name per compile
    assert seen == [{"atmost(3)": 1, "atmost(4)": 1}] * 3


def test_compare_resolves_once_per_route():
    reg = CountingRegistry()
    prog = parse_program(_guarded_choice(3), reg)
    reg.calls.clear()
    report = compare_semantics(prog, reg)
    assert len(report.sm.models) == len(report.flp.models) == 8
    # once per route
    assert reg.calls == {"atmost(3)": 2, "atmost(4)": 2}


def _frob_program():
    # r :- frob{X : p(X)}. and p(1) :- r.  frob holds of a nonempty set
    body = Apply("frob", (("X",),), (atom("p", "X"),))
    rules = (Rule(atom("r"), body), Rule(atom("p", 1), atom("r")))
    return Program(rules, frozenset({1, 2}))


@pytest.mark.parametrize(
    "route",
    [stable_models_operator, flp_stable_models, compare_semantics],
    ids=["operator", "flp", "compare"],
)
def test_no_compiled_form_outlives_its_solve(route):
    reg = Registry()
    prog = _frob_program()
    with pytest.raises(UnknownQuantifierError, match="unknown quantifier 'frob'"):
        route(prog, reg)
    reg.register(QuantifierDef("frob", (1,), lambda u, rels: bool(rels[0]), (Mono.MONOTONE,)))
    result = route(prog, reg)
    # r and p(1) only support each other, so the empty set is the one model
    models = result.models if route is not compare_semantics else result.sm.models
    assert models == (frozenset(),)


# ---------------------------------------------------------------------------
# The cap counts the head-bounded base


def test_the_cap_counts_the_bounded_base():
    reg = Registry()
    prog = parse_program("#universe {1, 2, 3}.\nq(X) :- not p(X).\n", reg)
    for route in ROUTES:
        res = route(prog, reg, 3)
        assert [sorted(map(str, m)) for m in res.models] == [["q(1)", "q(2)", "q(3)"]]
        assert res.stats.candidates == 8
        with pytest.raises(EnumerationCapError) as info:
            route(prog, reg, 2)
        assert (info.value.size, info.value.cap) == (3, 2)
        assert str(info.value).startswith("3 atoms would mean 2**3 candidate sets")
    # the full base, which the cap of 3 would refuse, holds p as well
    assert len(ref.herbrand_base(prog)) == 6


# ---------------------------------------------------------------------------
# Static failures: every entry point raises grounding's first error before
# it reads anything


class OddAtom(Atom):
    """Passes the checks of ``Rule``, but grounding and the compiler read
    only the five formula types themselves."""


ODD = OddAtom("p", (1,))
UNBOUND = ("GroundingError", "unbound free variable V")
UNKNOWN = ("UnknownQuantifierError", "unknown quantifier 'frob'")
MISSHAPEN = (
    "GroundingError",
    "quantifier 'and' binds 0 variable(s) per argument in this position, got 1",
)
P1 = atom("p", 1)

# kind: (the failing conjunct, the head of its rule, the error)
STATIC = {
    "unbound-variable": (ref.ESCAPING, P1, UNBOUND),
    "constant-without-value": (
        Atom("p", (Constant("c"),)), P1, ("GroundingError", "constant 'c' has no value")
    ),
    "unknown-quantifier": (ref.FROB, P1, UNKNOWN),
    "misshapen-application": (ref.MISSHAPEN_AND, P1, MISSHAPEN),
    "non-formula": (ODD, P1, ("GqError", f"not a formula: {ODD!r}")),
    # two failures: the first in grounding order wins
    "unknown-before-unbound": (conj(ref.FROB, ref.ESCAPING), P1, UNKNOWN),
    "body-before-head": (ref.ESCAPING, ref.MISSHAPEN_AND, UNBOUND),
}

ENTRY_POINTS = {
    "reduct": lambda prog, reg, frame: stable_models_reduct(prog, reg),
    "operator": lambda prog, reg, frame: stable_models_operator(prog, reg),
    "flp": lambda prog, reg, frame: flp_stable_models(prog, reg),
    "compare": lambda prog, reg, frame: compare_semantics(prog, reg),
    "satisfies_direct": lambda prog, reg, frame: satisfies_direct(
        frame, program_to_sentence(prog), reg
    ),
    "eval_star": lambda prog, reg, frame: eval_star(
        program_to_sentence(prog), frame, (), prog.intensional, reg
    ),
    "satisfies_program": lambda prog, reg, frame: satisfies_program(frame, prog, reg),
    "eval_flp_transform": lambda prog, reg, frame: eval_flp_transform(prog, frame, (), reg),
    "flp_reduct": lambda prog, reg, frame: flp_reduct(prog, frame, reg),
}

# A route reads its program under the identity valuation, in which every
# constant of a Program names a universe element, so only a reader given
# a valuation meets a constant without a value.
STATIC_CASES = [
    (kind, entry)
    for kind in STATIC
    for entry in ENTRY_POINTS
    if kind != "constant-without-value" or entry not in ("reduct", "operator", "flp", "compare")
]


@pytest.mark.parametrize(
    "kind, entry", STATIC_CASES, ids=[f"{k}-{e}" for k, e in STATIC_CASES]
)
def test_a_static_failure_raises_before_any_read(kind, entry):
    # h heads no rule, so no candidate of the head-bounded base, and not
    # the empty interpretation, reaches the failing conjunct; the count
    # rule before it is read by every candidate and every reader
    risky, head, want = STATIC[kind]
    universe = frozenset({1, 2, "c"})
    prog = Program(
        (
            Rule(atom("q"), count_ge("X", atom("p", "X"), Constant(1))),
            Rule(head, conj(atom("h", 1), risky)),
            Rule(atom("p", 2), atom("q")),
        ),
        universe,
    )
    frame = Interpretation(universe, constants={1: 1, 2: 2})
    reg = CountingRegistry()
    assert outcome(lambda: ground_program(prog, reg, frame)) == want
    assert outcome(lambda: ref.ground_program(prog, reg, frame)) == want
    assert outcome(lambda: ENTRY_POINTS[entry](prog, reg, frame)) == want
    assert reg.truth_calls == 0
