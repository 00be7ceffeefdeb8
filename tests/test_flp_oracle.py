"""``eval_flp_transform``, ``satisfies_program`` and ``flp_reduct``
against the instance-by-instance reading of the FLP transformation.

The oracle below reads every rule instance afresh for every smaller
valuation u: the body in I, then the body and the head under u, in a
whole interpretation built and checked for u.  The package reads the
bodies in I once per candidate (the FLP reduct) and each u only against
the instances that fired.  These tests hold it to the oracle's values
and to the oracle's exceptions, type and text, including on programs
whose bodies raise at an interpretation that is not a model.
"""

import itertools
import random
from pathlib import Path

import pytest

import randprog
from gqsm import (
    Apply,
    Atom,
    Equality,
    Mono,
    Program,
    QuantifierDef,
    Registry,
    Rule,
    Variable,
    atom,
    conj,
    neg,
)
from gqsm.ground import (
    GroundAtom,
    Interpretation,
    _eval,
    eval_flp_transform,
    flp_reduct,
    herbrand_base,
    satisfies_program,
)
from gqsm.parser import parse_program
from gqsm.syntax import Bot, GqError, Top, term_variables

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))


# ---------------------------------------------------------------------------
# The oracle


def oracle_free_variables(f):
    """The recursive definition: an application binds every variable of
    every binder list throughout its arguments."""
    if isinstance(f, Atom):
        out = frozenset()
        for t in f.args:
            out |= term_variables(t)
        return out
    if isinstance(f, Equality):
        return term_variables(f.left) | term_variables(f.right)
    if isinstance(f, (Top, Bot)):
        return frozenset()
    if isinstance(f, Apply):
        bound = {x for xs in f.var_lists for x in xs}
        out = frozenset()
        for a in f.args:
            out |= oracle_free_variables(a)
        return out - bound
    raise GqError(f"not a formula: {f!r}")


def _oracle_fvs(rule):
    return sorted(oracle_free_variables(rule.head) | oracle_free_variables(rule.body))


def oracle_satisfies_program(interp, program, registry):
    for rule in program.rules:
        fvs = _oracle_fvs(rule)
        env = {}
        for combo in itertools.product(interp.universe_sorted, repeat=len(fvs)):
            for x, v in zip(fvs, combo):
                env[x] = v
            if _eval(rule.body, interp, registry, env) and not _eval(
                rule.head, interp, registry, env
            ):
                return False
    return True


def oracle_flp_transform(program, interp, smaller, registry):
    preds = program.intensional
    smaller = frozenset(smaller)
    for a in smaller:
        if not isinstance(a, GroundAtom):
            raise GqError(f"not a ground atom: {a!r}")
        if a.pred not in preds:
            raise GqError(
                f"atom {a} is not intensional; the smaller valuation may "
                "only mention intensional predicates"
            )
    frozen = frozenset(a for a in interp.atoms if a.pred not in preds)
    subst = interp.with_atoms(frozen | smaller)
    for rule in program.rules:
        fvs = _oracle_fvs(rule)
        env = {}
        for combo in itertools.product(interp.universe_sorted, repeat=len(fvs)):
            for x, v in zip(fvs, combo):
                env[x] = v
            if not _eval(rule.body, interp, registry, env):
                continue
            if not _eval(rule.body, subst, registry, env):
                continue
            if not _eval(rule.head, subst, registry, env):
                return False
    return True


def oracle_flp_reduct(program, interp, registry):
    out = []
    for rule in program.rules:
        fvs = _oracle_fvs(rule)
        for combo in itertools.product(interp.universe_sorted, repeat=len(fvs)):
            env = dict(zip(fvs, combo))
            if _eval(rule.body, interp, registry, dict(env)):
                out.append((rule, env))
    return tuple(out)


def outcome(fn):
    try:
        return ("value", fn())
    except Exception as e:  # user truth functions may raise anything
        return (type(e).__name__, str(e))


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from map(frozenset, itertools.combinations(items, r))


def check_program(program, registry):
    """Compare the package with the oracle on every I over the base and
    every intensional J, J below I or not.  Returns the number of pairs
    and the outcomes seen."""
    base = herbrand_base(program)
    slice_ = [a for a in base if a.pred in program.intensional]
    pairs = 0
    kinds = []
    for i_atoms in subsets(base):
        interp = Interpretation(program.universe, i_atoms)
        want = outcome(lambda: oracle_satisfies_program(interp, program, registry))
        got = outcome(lambda: satisfies_program(interp, program, registry))
        assert got == want, (sorted(map(str, i_atoms)), got, want)
        reduct = outcome(lambda: flp_reduct(program, interp, registry))
        assert reduct == outcome(
            lambda: oracle_flp_reduct(program, interp, registry)
        ), sorted(map(str, i_atoms))
        seen = set()
        for j in subsets(slice_):
            want = outcome(lambda: oracle_flp_transform(program, interp, j, registry))
            got = outcome(lambda: eval_flp_transform(program, interp, j, registry))
            assert got == want, (
                sorted(map(str, i_atoms)), sorted(map(str, j)), got, want,
            )
            if reduct[0] == "value":
                with_fired = outcome(
                    lambda: eval_flp_transform(
                        program, interp, j, registry, fired=reduct[1]
                    )
                )
                assert with_fired == want, (
                    sorted(map(str, i_atoms)), sorted(map(str, j)), with_fired, want,
                )
            seen.add(want[0])
            pairs += 1
        kinds.append(seen)
    return pairs, kinds


# ---------------------------------------------------------------------------
# Parsed programs


def _program_sources():
    for path in PROGRAMS:
        yield path.name, path.read_text()
    rng = random.Random(4242)
    for i in range(200):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        yield f"random #{i}", gen(rng)


def test_flp_checks_match_the_oracle_on_programs():
    reg = Registry()
    pairs = programs = 0
    for label, src in _program_sources():
        prog = parse_program(src, reg)
        for rule in prog.rules:
            assert list(rule.variables) == _oracle_fvs(rule), label
        if len(herbrand_base(prog)) > 5 and not label.endswith(".gq"):
            continue
        n, _ = check_program(prog, reg)
        pairs += n
        programs += 1
    assert programs > 150 and pairs > 15_000, (programs, pairs)


# ---------------------------------------------------------------------------
# Programs whose bodies raise at interpretations that are not models


def _boom(universe, rels):
    if len(rels[0]) == 2:
        raise ValueError("boom on a full relation")
    return bool(rels[0])


def _raising_registry():
    reg = Registry()
    reg.register(QuantifierDef("boom", (1,), _boom, (Mono.NEITHER,)))
    return reg


# V is bound by the first binder list only, so reading the second
# argument meets it unbound
ESCAPING = Apply(
    "count_ge", (("V",), ("W",)), (atom("p", "V"), Equality(Variable("W"), Variable("V")))
)
MISSHAPEN_AND = Apply("and", (("Z",), ()), (atom("p", "Z"), atom("p", 2)))
BOOM = Apply("boom", (("Z",),), (atom("p", "Z"),))


def _raising_program(risky):
    """``q(X) :- p(X)`` first, so some u fail before the risky rule is
    reached; the risky body is read only when r(X) and p(2) hold in I;
    ``r(X) :- q(X), not p(X)`` after it is reached only when nothing
    raised."""
    rules = (
        Rule(atom("q", "X"), atom("p", "X")),
        Rule(atom("r", "X"), conj(atom("r", "X"), atom("p", 2), risky)),
        Rule(atom("r", "X"), conj(atom("q", "X"), neg(atom("p", "X")))),
    )
    return Program(rules, frozenset({1, 2}))


@pytest.mark.parametrize(
    "risky, error",
    [(BOOM, ("ValueError", "boom on a full relation"))],
    ids=["raising-truth"],
)
def test_flp_checks_match_the_oracle_where_bodies_raise(risky, error):
    reg = _raising_registry()
    prog = _raising_program(risky)
    pairs, kinds = check_program(prog, reg)
    assert pairs == 2**6 * 2**6
    # some interpretations raise for one u and give a value for another:
    # the u that fail at q(X) :- p(X) never reach the risky body
    assert sum(1 for seen in kinds if len(seen) == 2) > 5
    raised = {k for seen in kinds for k in seen} - {"value"}
    assert raised == {error[0]}
    interp = Interpretation(
        frozenset({1, 2}),
        frozenset(
            GroundAtom(p, (v,)) for p in ("p", "r") for v in (1, 2)
        ),
    )
    assert outcome(lambda: eval_flp_transform(prog, interp, (), reg)) == error
    assert outcome(lambda: flp_reduct(prog, interp, reg)) == error


# ---------------------------------------------------------------------------
# The smaller valuation is checked as it always was


def _extensional_program():
    rules = (Rule(atom("p", "X"), atom("e", "X")),)
    return Program(rules, frozenset({1, 2}), frozenset({"p"}))


@pytest.mark.parametrize(
    "smaller",
    [
        # not intensional, and outside the universe: the first check wins
        {GroundAtom("e", (1,)), GroundAtom("p", (9,))},
        {GroundAtom("e", (9,)), GroundAtom("p", (9,))},
        {GroundAtom("p", (9,)), GroundAtom("p", (7,)), GroundAtom("p", (8,))},
        {GroundAtom("p", (1,)), GroundAtom("p", (1, 9))},
        # several strays: the one a whole-interpretation check meets first
        {GroundAtom("p", (v,)) for v in range(3, 40)},
        {"p(1)", GroundAtom("p", (9,))},
        {GroundAtom("p", (1,))},
    ],
)
def test_the_smaller_valuation_fails_with_the_oracles_error(smaller):
    reg = Registry()
    prog = _extensional_program()
    interp = Interpretation(
        frozenset({1, 2}), frozenset({GroundAtom("e", (1,)), GroundAtom("p", (1,))})
    )
    want = outcome(lambda: oracle_flp_transform(prog, interp, smaller, reg))
    assert outcome(lambda: eval_flp_transform(prog, interp, smaller, reg)) == want
    fired = flp_reduct(prog, interp, reg)
    assert outcome(
        lambda: eval_flp_transform(prog, interp, smaller, reg, fired=fired)
    ) == want
