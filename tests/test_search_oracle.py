"""The shared stability search against the three loops it replaced.

Each route used to write out its own scan over candidates and smaller
valuations.  The oracle below keeps those three loops as they were; the
routes now only say how a candidate is tested and ``solver._search``
runs the scan.  Models, their order and the candidate count must be
equal, and where a route raises, the oracle must raise the same
exception type with the same text.  That pins what the scan owns: the
cap check before any candidate is read, the witness pool made of the
candidate's intensional atoms, and the smaller valuations tried smallest
first, stopping at the first that rules the candidate out.
"""

import itertools
import random
from pathlib import Path

import pytest

import randprog
from gqsm import Apply, Equality, Program, Registry, Rule, Variable, atom, conj, neg
from gqsm import solver
from gqsm.ground import (
    GroundAtom,
    Interpretation,
    _eval,
    _gsat,
    atom_set_key,
    eval_flp_transform,
    eval_star,
    flp_reduct,
    ground_program,
    herbrand_base,
    satisfies_program,
)
from gqsm.parser import parse_program
from gqsm.reduct import EnumerationCapError, reduct
from gqsm.solver import (
    ReductRouteError,
    SolveResult,
    SolveStats,
    flp_stable_models,
    program_to_sentence,
    resolve_cap,
    stable_models_operator,
    stable_models_reduct,
)

from test_flp_oracle import (
    BOOM,
    ESCAPING,
    MISSHAPEN_AND,
    _raising_program,
    _raising_registry,
)
from test_head_bound_oracle import _api_programs

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))


# ---------------------------------------------------------------------------
# The oracle: the three loops as each route wrote them out


def _subsets_ascending(pool):
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def oracle_reduct(program, registry, cap=None):
    if not program.all_intensional:
        extensional = sorted(set(program.signature) - program.intensional)
        raise ReductRouteError(
            "the reduct route requires every predicate to be intensional; "
            f"extensional here: {', '.join(extensional)}"
        )
    base = solver._checked_base(program, cap)
    universe = program.universe
    rules = ground_program(program, registry)
    models = []
    candidates = 0
    for combo in _subsets_ascending(base):
        candidates += 1
        s = frozenset(combo)
        idx = frozenset((a.pred, a.args) for a in s)
        if not all(_gsat(g, idx, universe, registry) for g in rules):
            continue
        reduced = tuple(reduct(g, s, universe, registry).formula for g in rules)
        pool = sorted(s, key=GroundAtom.sort_key)
        minimal = True
        for r in range(len(pool)):
            for sub in itertools.combinations(pool, r):
                sub_idx = frozenset((a.pred, a.args) for a in sub)
                if all(_gsat(g, sub_idx, universe, registry) for g in reduced):
                    minimal = False
                    break
            if not minimal:
                break
        if minimal:
            models.append(s)
    models.sort(key=atom_set_key)
    return SolveResult("sm", "reduct", tuple(models), SolveStats(candidates, 0.0))


def oracle_operator(program, registry, cap=None):
    base = solver._checked_base(program, cap)
    universe = program.universe
    sentence = program_to_sentence(program)
    intensional = program.intensional
    models = []
    candidates = 0
    for combo in _subsets_ascending(base):
        candidates += 1
        s = frozenset(combo)
        interp = Interpretation(universe, s)
        if not _eval(sentence, interp, registry, {}):
            continue
        slice_pool = sorted(
            (a for a in s if a.pred in intensional), key=GroundAtom.sort_key
        )
        stable = True
        for r in range(len(slice_pool)):
            for sub in itertools.combinations(slice_pool, r):
                if eval_star(sentence, interp, frozenset(sub), intensional, registry):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            models.append(s)
    models.sort(key=atom_set_key)
    return SolveResult("sm", "operator", tuple(models), SolveStats(candidates, 0.0))


def oracle_flp(program, registry, cap=None):
    base = solver._checked_base(program, cap)
    universe = program.universe
    intensional = program.intensional
    models = []
    candidates = 0
    for combo in _subsets_ascending(base):
        candidates += 1
        s = frozenset(combo)
        interp = Interpretation(universe, s)
        if not satisfies_program(interp, program, registry):
            continue
        slice_pool = sorted(
            (a for a in s if a.pred in intensional), key=GroundAtom.sort_key
        )
        fired = flp_reduct(program, interp, registry)
        stable = True
        for r in range(len(slice_pool)):
            for sub in itertools.combinations(slice_pool, r):
                if eval_flp_transform(
                    program, interp, frozenset(sub), registry, fired=fired
                ):
                    stable = False
                    break
            if not stable:
                break
        if stable:
            models.append(s)
    models.sort(key=atom_set_key)
    return SolveResult("flp", "operator", tuple(models), SolveStats(candidates, 0.0))


PAIRS = (
    (stable_models_reduct, oracle_reduct),
    (stable_models_operator, oracle_operator),
    (flp_stable_models, oracle_flp),
)


def outcome(fn):
    try:
        res = fn()
    except Exception as e:  # user truth functions may raise anything
        return (type(e).__name__, str(e))
    return ("value", res.semantics, res.route, res.models, res.stats.candidates)


def full_base(program, cap):
    """Every ground atom, checked against the cap as the bounded base is."""
    base = herbrand_base(program)
    limit = resolve_cap(cap)
    if len(base) > limit:
        raise EnumerationCapError(len(base), limit)
    return base


def check_program(program, registry, cap=None):
    """Every route against its oracle, over the head-bounded base and
    over the full base; returns the outcomes seen."""
    seen = []
    for base_fn in (solver._checked_base, full_base):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_checked_base", base_fn)
            for route, oracle in PAIRS:
                got = outcome(lambda: route(program, registry, cap))
                want = outcome(lambda: oracle(program, registry, cap))
                assert got == want, (route.__name__, base_fn.__name__, got, want)
                seen.append(got)
    return seen


# ---------------------------------------------------------------------------
# Parsed programs


def test_example_programs_match_the_oracle():
    reg = Registry()
    for path in PROGRAMS:
        seen = check_program(parse_program(path.read_text(), reg), reg)
        assert any(got[0] == "value" and got[3] for got in seen), path.name


def test_random_programs_match_the_oracle():
    reg = Registry()
    rng = random.Random(5150)
    checked = with_models = 0
    for i in range(300):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        prog = parse_program(gen(rng), reg)
        if len(herbrand_base(prog)) > 5:
            continue
        checked += 1
        seen = check_program(prog, reg)
        with_models += any(got[0] == "value" and got[3] for got in seen)
    assert checked > 200 and with_models > 100, (checked, with_models)


# ---------------------------------------------------------------------------
# API-built programs with extensional predicates


def test_api_programs_with_extensional_predicates_match_the_oracle():
    reg = Registry()
    for prog in _api_programs():
        assert not prog.all_intensional
        seen = check_program(prog, reg)
        # the reduct route refuses them; the other two answer
        assert [got[0] for got in seen] == ["ReductRouteError", "value", "value"] * 2


# ---------------------------------------------------------------------------
# Programs whose bodies raise


@pytest.mark.parametrize(
    "risky, kinds",
    [
        (ESCAPING, {"GroundingError"}),
        (MISSHAPEN_AND, {"GroundingError"}),
        (BOOM, {"value", "ValueError"}),
    ],
    ids=["escaping", "misshapen", "boom"],
)
def test_programs_that_raise_match_the_oracle(risky, kinds):
    reg = _raising_registry()
    # p heads no rule, so only the full base holds p(2) and reaches the
    # risky body, where boom raises; a static failure raises on every
    # route whatever the base
    seen = check_program(_raising_program(risky), reg)
    assert {got[0] for got in seen} == kinds


# The constraint keeps every candidate with exactly two p atoms from
# reading boom.  The model {p(1), p(2), p(3), r} does not fire it, so its
# smaller valuations with two p atoms read boom and raise, while the
# empty one, tried first, rules the model out.
GUARDED_BOOM = (
    "#universe {1, 2, 3}.\n"
    ":- count{X : p(X)} = 2.\n"
    "p(X) :- p(X).\n"
    "r :- boom{X : p(X)}.\n"
)


def test_the_smallest_witness_decides_before_a_larger_one_raises():
    reg = _raising_registry()
    prog = parse_program(GUARDED_BOOM, reg)
    for got in check_program(prog, reg):
        assert got[0] == "value" and got[3] == (frozenset(),), got
    i_atoms = frozenset(GroundAtom("p", (v,)) for v in (1, 2, 3)) | {GroundAtom("r", ())}
    interp = Interpretation(prog.universe, i_atoms)
    fired = flp_reduct(prog, interp, reg)
    assert eval_flp_transform(prog, interp, frozenset(), reg, fired=fired)
    with pytest.raises(ValueError, match="boom on a full relation"):
        eval_flp_transform(
            prog, interp, i_atoms - {GroundAtom("p", (3,))}, reg, fired=fired
        )


# An unguarded body that raises at every candidate: a route that read a
# candidate before checking the cap would report this error, not the cap.
UNGUARDED = (
    "#universe {1, 2}.\n"
    "q :- count_ge[V][W](p(V); W = V).\n"
    "p(1) :- q.\n"
)


@pytest.mark.parametrize("cap", [None, 0, 1, 2])
def test_the_cap_is_checked_before_any_candidate_is_read(cap):
    reg = Registry()
    error = "GroundingError" if cap is None else "EnumerationCapError"
    seen = check_program(parse_program(UNGUARDED, reg), reg, cap)
    assert [got[0] for got in seen] == [error] * 6
    # with an extensional e, the reduct route refuses before the cap
    prog = Program(
        (
            Rule(atom("q"), Apply("count_ge", (("V",), ("W",)), (
                atom("p", "V"), Equality(Variable("W"), Variable("V"))))),
            Rule(atom("p", 1), conj(atom("q"), neg(atom("e", 1)))),
        ),
        frozenset({1, 2}),
        frozenset({"p", "q"}),
    )
    seen = check_program(prog, reg, cap)
    assert [got[0] for got in seen] == ["ReductRouteError", error, error] * 2
