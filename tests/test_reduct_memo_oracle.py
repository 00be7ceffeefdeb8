"""The reduct route's memoised scan against the scan it replaced.

``solver.stable_models_reduct`` reads each ground rule once per
projection of the candidate onto the rule's atoms, builds each reduct
once per such projection, and reads each reduced rule once per
projection of the smaller valuation J onto its own atoms.  The oracle
below is the route as it was before: every rule and every reduct read
against the whole candidate, and every reduced rule against the whole J.

Models, their order and the candidate count must be equal.  So must the
scan itself: ``_search`` is wrapped to log every candidate and every J
it tests, with the answer, so where the route raises, it must raise the
oracle's exception type with the oracle's text, at the same candidate
and the same J.
"""

import random
import time
from collections import Counter
from pathlib import Path

import pytest

import randprog
from gqsm import Registry
from gqsm import solver
from gqsm.ground import (
    GroundAtom,
    _gsat,
    _read_set,
    ground_program,
    herbrand_base,
)
from gqsm.parser import parse_program
from gqsm.reduct import EnumerationCapError, reduct
from gqsm.solver import ReductRouteError, stable_models_reduct

from test_flp_oracle import (
    BOOM,
    ESCAPING,
    MISSHAPEN_AND,
    _raising_program,
    _raising_registry,
)
from test_search_oracle import GUARDED_BOOM

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))


# ---------------------------------------------------------------------------
# The oracle: the route as it was


def oracle_reduct(program, registry, cap=None):
    if not program.all_intensional:
        extensional = sorted(set(program.signature) - program.intensional)
        raise ReductRouteError(
            "the reduct route requires every predicate to be intensional; "
            f"extensional here: {', '.join(extensional)}"
        )
    t0 = time.perf_counter()
    base = solver._checked_base(program, cap)
    universe = program.universe
    rules = ground_program(program, registry)

    def model_test(s):
        if not all(_gsat(g, s, universe, registry) for g in rules):
            return None
        reduced = tuple(reduct(g, s, universe, registry).formula for g in rules)

        def witness(j):
            j = frozenset(j)
            return all(_gsat(g, j, universe, registry) for g in reduced)

        return witness

    return solver._search("sm", "reduct", t0, base, program.intensional, model_test)


def full_base(program, cap):
    """Every ground atom, checked against the cap as the bounded base is."""
    base = herbrand_base(program)
    limit = solver.resolve_cap(cap)
    if len(base) > limit:
        raise EnumerationCapError(len(base), limit)
    return base


def run_logged(route, program, registry, cap=None):
    """The outcome of ``route``, and the scan's log: each candidate and
    each J in the order tested, each followed by its answer.  After an
    error the log ends at the test that raised."""
    log = []
    search = solver._search

    def logged_search(semantics, name, t0, base, intensional, model_test):
        def test(s):
            log.append(("I", s))
            witness = model_test(s)
            log.append(witness is not None)
            if witness is None:
                return None

            def logged_witness(j):
                log.append(("J", j))
                got = witness(j)
                log.append(got)
                return got

            return logged_witness

        return search(semantics, name, t0, base, intensional, test)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_search", logged_search)
        try:
            res = route(program, registry, cap)
        except Exception as e:  # user truth functions may raise anything
            return (type(e).__name__, str(e)), log
    return ("value", res.models, res.stats.candidates), log


def check_program(program, registry, cap=None, bases=(solver._checked_base,)):
    """The route against the oracle over each base; the outcomes seen."""
    seen = []
    for base_fn in bases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_checked_base", base_fn)
            got = run_logged(stable_models_reduct, program, registry, cap)
            want = run_logged(oracle_reduct, program, registry, cap)
        assert got[0] == want[0], (base_fn.__name__, got[0], want[0])
        assert got[1] == want[1], base_fn.__name__
        seen.append(got[0])
    return seen


def choice_text(n):
    universe = ", ".join(str(v) for v in range(1, n + 1))
    return f"#universe {{{universe}}}.\np(X) :- not q(X).\nq(X) :- not p(X).\n"


# ---------------------------------------------------------------------------
# Parsed programs


def test_example_programs_match_the_oracle():
    reg = Registry()
    for path in PROGRAMS:
        prog = parse_program(path.read_text(), reg)
        seen = check_program(prog, reg, bases=(solver._checked_base, full_base))
        if prog.all_intensional:
            assert all(got[0] == "value" and got[1] for got in seen), path.name


def test_random_programs_match_the_oracle():
    reg = Registry()
    rng = random.Random(2718)
    checked = with_models = 0
    for i in range(400):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        prog = parse_program(gen(rng), reg)
        if not prog.all_intensional or len(herbrand_base(prog)) > 7:
            continue
        checked += 1
        for got in check_program(prog, reg, bases=(solver._checked_base, full_base)):
            with_models += got[0] == "value" and bool(got[1])
    assert checked > 300 and with_models > 300, (checked, with_models)


# ---------------------------------------------------------------------------
# Programs whose bodies raise


@pytest.mark.parametrize(
    "risky", [ESCAPING, MISSHAPEN_AND, BOOM], ids=["escaping", "misshapen", "boom"]
)
def test_programs_that_raise_match_the_oracle(risky):
    reg = _raising_registry()
    seen = check_program(
        _raising_program(risky), reg, bases=(solver._checked_base, full_base)
    )
    assert any(got[0] != "value" for got in seen), seen


def test_a_truth_function_raises_at_the_oracles_candidate():
    # boom raises on a full relation, which only some candidates reach
    reg = _raising_registry()
    prog = parse_program(
        "#universe {1, 2}.\n"
        "p(X) :- not q(X).\n"
        "q(X) :- not p(X).\n"
        "r :- boom{X : p(X)}.\n",
        reg,
    )
    (seen,) = check_program(prog, reg)
    assert seen == ("ValueError", "boom on a full relation")


def test_the_smallest_witness_decides_before_a_larger_one_raises():
    reg = _raising_registry()
    prog = parse_program(GUARDED_BOOM, reg)
    for got in check_program(prog, reg, bases=(solver._checked_base, full_base)):
        assert got[:2] == ("value", (frozenset(),)), got


# ---------------------------------------------------------------------------
# Larger programs


def test_the_choice_family_matches_the_oracle():
    reg = Registry()
    ((kind, models, candidates),) = check_program(parse_program(choice_text(6), reg), reg)
    assert (kind, len(models), candidates) == ("value", 64, 4096)


def test_a_long_body_matches_the_oracle():
    reg = Registry()
    src = "#universe {1}.\np :- " + ", ".join(["not q"] * 10_000) + ".\n"
    ((kind, models, _),) = check_program(parse_program(src, reg), reg)
    assert (kind, models) == ("value", (frozenset({GroundAtom("p")}),))


# ---------------------------------------------------------------------------
# What the memo reads


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
    prog = parse_program(choice_text(n), reg)
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
