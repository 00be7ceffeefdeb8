"""The head-bounded candidate base against the full Herbrand base.

Every enumerator searches the subsets of ``solver._checked_base``: the
program's ground atoms less those of the intensional predicates that
head no rule.  The oracle runs the same three enumerators over the whole
``herbrand_base``, as they ran before the bound, and the model sets must
be equal on the example programs, on the seeded random suites and on
API-built programs whose headless predicates are partly extensional.
"""

import random
from pathlib import Path

import pytest

import randprog
from gqsm import (
    Apply,
    Atom,
    Equality,
    Program,
    Registry,
    Rule,
    Variable,
    atom,
    conj,
    disj,
    neg,
)
from gqsm import solver
from gqsm.ground import herbrand_base
from gqsm.parser import parse_program
from gqsm.reduct import EnumerationCapError
from gqsm.solver import (
    flp_stable_models,
    resolve_cap,
    stable_models_operator,
    stable_models_reduct,
)
from gqsm.syntax import iter_subformulas

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))

ROUTES = (stable_models_operator, stable_models_reduct, flp_stable_models)


# ---------------------------------------------------------------------------
# The oracle


def full_base(program, cap):
    """The candidate base before the bound: every ground atom."""
    base = herbrand_base(program)
    limit = resolve_cap(cap)
    if len(base) > limit:
        raise EnumerationCapError(len(base), limit)
    return base


def headless_intensional(program):
    heads = {
        sub.pred
        for rule in program.rules
        for sub in iter_subformulas(rule.head)
        if isinstance(sub, Atom)
    }
    return program.intensional - heads


def outcome(fn):
    try:
        return ("value", fn())
    except Exception as e:
        return (type(e).__name__, str(e))


def solve_all(program, registry, cap=None):
    """Model sets and candidate counts of every route that accepts the
    program, or the exception a route raised."""
    out = {}
    for route in ROUTES:
        if route is stable_models_reduct and not program.all_intensional:
            continue
        got = outcome(lambda: route(program, registry, cap))
        if got[0] == "value":
            got = ("value", got[1].models, got[1].stats.candidates)
        out[route.__name__] = got
    return out


def oracle_solve_all(program, registry, cap=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_checked_base", full_base)
        return solve_all(program, registry, cap)


def check_program(program, registry):
    """Compare the bounded enumerators with the oracle; returns whether
    the bound dropped anything."""
    full = herbrand_base(program)
    dropped = headless_intensional(program)
    bounded = [a for a in full if a.pred not in dropped]
    assert list(solver._checked_base(program, None)) == bounded
    got = solve_all(program, registry)
    want = oracle_solve_all(program, registry)
    assert got.keys() == want.keys()
    for name, result in got.items():
        assert result[0] == "value", (name, result)
        assert want[name][0] == "value", (name, want[name])
        assert result[1] == want[name][1], name
        assert result[2] == 2 ** len(bounded), name
        assert want[name][2] == 2 ** len(full), name
    return len(bounded) < len(full)


# ---------------------------------------------------------------------------
# Parsed programs


def test_example_programs_match_the_full_base():
    reg = Registry()
    bounded = 0
    for path in PROGRAMS:
        bounded += check_program(parse_program(path.read_text(), reg), reg)
    # default_closure.gq: p heads no rule; in majority_vote.gq the
    # extensional supports heads none and stays
    assert bounded == 1


def test_random_programs_match_the_full_base():
    reg = Registry()
    rng = random.Random(9090)
    checked = bounded = 0
    for i in range(400):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        prog = parse_program(gen(rng), reg)
        if len(herbrand_base(prog)) > 6:
            continue
        checked += 1
        bounded += check_program(prog, reg)
    assert checked > 350 and bounded > 80, (checked, bounded)


# ---------------------------------------------------------------------------
# API-built programs with extensional predicates

def _api_programs():
    universe = frozenset({1, 2})
    # e is extensional and heads no rule; q is intensional and heads none
    yield Program(
        (Rule(atom("p", "X"), conj(atom("e", "X"), neg(atom("q", "X")))),),
        universe,
        frozenset({"p", "q"}),
    )
    # the extensional e heads a rule; the intensional r heads none
    yield Program(
        (
            Rule(atom("e", 1), atom("p", 1)),
            Rule(disj(atom("p", "X"), atom("s", "X")), neg(atom("r", "X"))),
        ),
        universe,
        frozenset({"p", "r", "s"}),
    )
    # a headless intensional predicate under a generalized quantifier,
    # and an extensional one inside the head's quantifier
    yield Program(
        (
            Rule(
                Apply("exists", (("X",),), (conj(atom("p", "X"), atom("e", "X")),)),
                neg(Apply("atleast(1)", (("X",),), (atom("q", "X"),))),
            ),
            Rule(atom("p", 2), Apply("count_ge", (("X",), ("Y",)), (
                atom("q", "X"), Equality(Variable("Y"), 1)))),
        ),
        universe,
        frozenset({"p", "q"}),
    )
    # nothing to drop: the one intensional predicate heads its rule
    yield Program(
        (Rule(atom("p"), conj(atom("e"), neg(atom("f")))),),
        frozenset({1}),
        frozenset({"p"}),
    )


def test_api_programs_with_extensional_predicates_match_the_full_base():
    reg = Registry()
    bounded = 0
    for prog in _api_programs():
        assert not prog.all_intensional
        bounded += check_program(prog, reg)
    assert bounded == 3


# ---------------------------------------------------------------------------
# The cap counts the bounded base

CLOSURE = "#universe {1, 2, 3}.\nq(X) :- not p(X).\n"


def test_the_cap_counts_the_bounded_base():
    reg = Registry()
    prog = parse_program(CLOSURE, reg)
    for route in ROUTES:
        res = route(prog, reg, 3)
        assert [sorted(map(str, m)) for m in res.models] == [["q(1)", "q(2)", "q(3)"]]
        assert res.stats.candidates == 8
        with pytest.raises(EnumerationCapError) as info:
            route(prog, reg, 2)
        assert (info.value.size, info.value.cap) == (3, 2)
        assert str(info.value).startswith("3 atoms would mean 2**3 candidate sets")
    # the full base would have been refused at the same cap
    for name, result in oracle_solve_all(prog, reg, 3).items():
        assert result[0] == "EnumerationCapError", name
