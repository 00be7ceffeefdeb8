"""The compiled readings against the walkers they replaced.

The package compiles a sentence (or a program's rule instances) once per
solve and reads every candidate I and every smaller valuation J off the
compiled nodes.  The oracle below is the plain walker it replaced, kept
as it was: ``oracle_eval`` walks the formula, resolving quantifiers,
checking shapes and reading variables at every visit.  The star reading
is held to the two-pass definition, ``oracle_star`` of
``test_star_oracle``.  On every (I, J) pair the compiled form must give
the oracles' plain value, F*(J) value and FLP checks, or raise the
oracles' exception type with its text where a truth function raises.  A
formula that grounding rejects (an unbound variable, an unknown or
misshapen quantifier) fails to compile with grounding's first error,
and the last section holds every entry point to that before any read.
"""

import dataclasses
import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

import randprog
from gqsm import (
    Apply,
    Atom,
    Constant,
    Equality,
    Mono,
    Program,
    QuantifierDef,
    Registry,
    Rule,
    Variable,
    atom,
    conj,
    disj,
    impl,
    neg,
)
from gqsm.ground import (
    GroundAtom,
    GroundingError,
    Interpretation,
    _compile_program,
    _compile_sentence,
    _eval,
    eval_flp_transform,
    eval_star,
    flp_reduct,
    ground,
    ground_program,
    herbrand_base,
    satisfies_direct,
    satisfies_program,
)
from gqsm.parser import parse_program
from gqsm.quantifiers import UnknownQuantifierError
from gqsm.solver import (
    compare_semantics,
    flp_stable_models,
    program_to_sentence,
    stable_models_operator,
    stable_models_reduct,
)
from gqsm.syntax import Bot, GqError, Top, exists, flatten_spine, forall

from test_flp_oracle import (
    BOOM,
    ESCAPING,
    MISSHAPEN_AND,
    _raising_program,
    _raising_registry,
)
from test_star_oracle import oracle_star

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))


# ---------------------------------------------------------------------------
# The oracle: the dict-env plain walker as it was before compilation

_MISSING = object()


def _term_value(t, interp, env):
    if isinstance(t, Variable):
        try:
            return env[t.name]
        except KeyError:
            raise GroundingError(f"unbound free variable {t.name}") from None
    return interp.value(t.value)


def _check_shape(f, qdef):
    if len(f.var_lists) != len(qdef.arities):
        raise GroundingError(
            f"quantifier {f.quantifier!r} takes {len(qdef.arities)} arguments, "
            f"got {len(f.var_lists)}"
        )
    for xs, n in zip(f.var_lists, qdef.arities):
        if len(xs) != n:
            raise GroundingError(
                f"quantifier {f.quantifier!r} binds {n} variable(s) per "
                f"argument in this position, got {len(xs)}"
            )


def _one_binder(f):
    return len(f.var_lists) == 1 and len(f.var_lists[0]) == 1


def _restore(env, x, old):
    if old is _MISSING:
        del env[x]
    else:
        env[x] = old


def _restore_all(env, xs, saved):
    for x, old in zip(xs, saved):
        _restore(env, x, old)


def oracle_eval(f, interp, registry, env):
    t = type(f)
    if t is Atom:
        vals = tuple(_term_value(a, interp, env) for a in f.args)
        return (f.pred, vals) in interp.atoms
    if t is Equality:
        return _term_value(f.left, interp, env) == _term_value(f.right, interp, env)
    if t is Top:
        return True
    if t is Bot:
        return False
    if t is not Apply:
        raise GqError(f"not a formula: {f!r}")
    name = f.quantifier
    args = f.args
    if f.var_lists == ((), ()):
        if name == "and":
            for part in flatten_spine(f, "and"):
                if not oracle_eval(part, interp, registry, env):
                    return False
            return True
        if name == "or":
            return oracle_eval(args[0], interp, registry, env) or oracle_eval(
                args[1], interp, registry, env
            )
        if name == "impl":
            return not oracle_eval(args[0], interp, registry, env) or oracle_eval(
                args[1], interp, registry, env
            )
    elif (name == "forall" or name == "exists") and _one_binder(f):
        want = name == "exists"
        x = f.var_lists[0][0]
        old = env.get(x, _MISSING)
        result = not want
        try:
            for v in interp.universe_sorted:
                env[x] = v
                if oracle_eval(args[0], interp, registry, env) == want:
                    result = want
                    break
        finally:
            _restore(env, x, old)
        return result
    qdef = registry.resolve(name)
    _check_shape(f, qdef)
    rels = []
    for xs, arg in zip(f.var_lists, args):
        rows = set()
        saved = [env.get(x, _MISSING) for x in xs]
        try:
            for combo in itertools.product(interp.universe_sorted, repeat=len(xs)):
                for x, v in zip(xs, combo):
                    env[x] = v
                if oracle_eval(arg, interp, registry, env):
                    rows.add(combo)
        finally:
            _restore_all(env, xs, saved)
        rels.append(frozenset(rows))
    return bool(qdef.truth(interp.universe, tuple(rels)))


def _oracle_instances(program, interp):
    for rule in program.rules:
        fvs = rule.variables
        for combo in itertools.product(interp.universe_sorted, repeat=len(fvs)):
            yield rule, dict(zip(fvs, combo))


def oracle_satisfies_program(interp, program, registry):
    for rule, env in _oracle_instances(program, interp):
        if oracle_eval(rule.body, interp, registry, env) and not oracle_eval(
            rule.head, interp, registry, env
        ):
            return False
    return True


def oracle_flp_reduct(program, interp, registry):
    return tuple(
        (rule, env)
        for rule, env in _oracle_instances(program, interp)
        if oracle_eval(rule.body, interp, registry, env)
    )


def oracle_flp_transform(program, interp, j, registry):
    """``B and B(u) -> H(u)`` over the instances, reading each body in I
    as it goes; ``j`` is a valid smaller valuation."""
    subst = interp.with_atoms(
        frozenset(a for a in interp.atoms if a.pred not in program.intensional) | j
    )
    for rule, env in _oracle_instances(program, interp):
        if not oracle_eval(rule.body, interp, registry, env):
            continue
        if oracle_eval(rule.body, subst, registry, env) and not oracle_eval(
            rule.head, subst, registry, env
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# The comparison


def outcome(fn):
    try:
        return ("value", fn())
    except Exception as e:  # user truth functions may raise anything
        return (type(e).__name__, str(e))


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from map(frozenset, itertools.combinations(items, r))


def check_sentence(f, frame, atoms, js, intensional, registry):
    """Compile ``f`` once over ``frame`` (an interpretation giving the
    universe and constants) and compare every I made of ``atoms`` and
    every J in ``js`` with the oracle.  Returns the outcome kinds seen.
    A formula that grounding rejects must fail to compile with the same
    error, and is read no further."""
    intensional = frozenset(intensional)
    static = outcome(lambda: ground(f, frame, registry))
    if static[0] != "value":
        assert outcome(lambda: _compile_sentence(f, frame, registry, intensional)) == static
        return {static[0]}
    compiled = _compile_sentence(f, frame, registry, intensional)
    kinds = set()
    for i_atoms in subsets(atoms):
        interp = frame.with_atoms(i_atoms)
        want = outcome(lambda: oracle_eval(f, interp, registry, {}))
        assert outcome(lambda: _eval(compiled, interp, registry, {})) == want, (
            str(f), sorted(map(str, i_atoms)),
        )
        assert outcome(lambda: _eval(f, interp, registry, {})) == want
        kinds.add(want[0])
        for j in js:
            want = outcome(
                lambda: oracle_star(f, interp, j, intensional, registry, {})
            )
            got = outcome(lambda: compiled.star(interp.atoms, j))
            assert got == want, (str(f), sorted(map(str, i_atoms)), sorted(map(str, j)))
            star = outcome(lambda: eval_star(compiled, interp, j, intensional, registry))
            assert star == want
            kinds.add(want[0])
    return kinds


def check_program(program, registry, frame=None):
    """The sentence of ``program`` under every I over its base and every
    intensional J, then its FLP checks: the model check with its reduct,
    and the transformation with and without that reduct.  A program that
    grounding rejects must fail to compile with the same error."""
    frame = frame or Interpretation(program.universe)
    base = herbrand_base(program)
    slice_ = [a for a in base if a.pred in program.intensional]
    js = list(subsets(slice_))
    kinds = check_sentence(
        program_to_sentence(program), frame, base, js, program.intensional, registry
    )
    static = outcome(lambda: ground_program(program, registry, frame))
    if static[0] != "value":
        assert outcome(lambda: _compile_program(program, frame, registry)) == static
        return kinds
    rules = _compile_program(program, frame, registry)
    for i_atoms in subsets(base):
        interp = frame.with_atoms(i_atoms)
        model = outcome(lambda: oracle_satisfies_program(interp, program, registry))
        fired = []
        got = outcome(lambda: satisfies_program(interp, rules, registry, fired=fired))
        assert got == model, sorted(map(str, i_atoms))
        assert outcome(lambda: satisfies_program(interp, program, registry)) == model
        is_model = model == ("value", True)
        if is_model:
            assert len(fired) == len(oracle_flp_reduct(program, interp, registry))
        for j in js:
            want = outcome(lambda: oracle_flp_transform(program, interp, j, registry))
            got = outcome(lambda: eval_flp_transform(rules, interp, j, registry))
            assert got == want, (sorted(map(str, i_atoms)), sorted(map(str, j)))
            if is_model:
                got = outcome(
                    lambda: eval_flp_transform(rules, interp, j, registry, fired=fired)
                )
                assert got == want, (sorted(map(str, i_atoms)), sorted(map(str, j)))
            kinds.add(want[0])
    return kinds


# ---------------------------------------------------------------------------
# Parsed programs


# Argument shapes the compiler reads without a node per tuple
KERNEL_SHAPES = {
    # an argument that skips its bound variable names one atom for every
    # tuple
    "skipped binder": (
        "#universe {1, 2}.\n"
        "p(1) :- not p(2).\n"
        "p(2) :- not p(1), count{W : q(1)} < 1.\n"
        "q(X) :- majority{W : p(X)}.\n"
    ),
    # extensional atoms inside count and majority arguments keep their
    # value in the star reading
    "extensional count and majority": (
        "#universe {1, 2}.\n"
        "#intensional p.\n"
        "p(X) :- e(X), not majority{Y : p(Y)}.\n"
        "p(2) :- count{Y : e(Y)} >= 2, majority{Y : e(Y)}.\n"
    ),
    "extensional count under negation": (
        "#universe {1, 2}.\n"
        "#intensional q.\n"
        "q(1) :- not count{Y : e(Y)} < 1, not q(2).\n"
        "q(2) :- majority{Y : q(Y)}, e(1).\n"
    ),
}


def _program_sources():
    for path in PROGRAMS:
        yield path.name, path.read_text()
    yield from KERNEL_SHAPES.items()
    rng = random.Random(7117)
    for i in range(120):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        yield f"random #{i}", gen(rng)


def test_programs_match_the_oracle():
    reg = Registry()
    checked = 0
    for label, src in _program_sources():
        prog = parse_program(src, reg)
        if len(herbrand_base(prog)) > 4 and not label.endswith(".gq"):
            continue
        assert check_program(prog, reg), label
        checked += 1
    assert checked > 60, checked


# ---------------------------------------------------------------------------
# Nodes that raise: a truth function when read, any other failure when
# compiled

# frob is registered nowhere, so resolving it fails
FROB = Apply("frob", (("Z",),), (atom("p", "Z"),))
X, Y, W, Z = Variable("X"), Variable("Y"), Variable("W"), Variable("Z")
# holds of a binary relation with at least two pairs
PAIRS = QuantifierDef("pairs", (2,), lambda u, rels: len(rels[0]) >= 2, (Mono.MONOTONE,))


def count_ge(x, arg, bound):
    """``count{x : arg} >= bound`` in the application form."""
    return Apply("count_ge", ((x,), ("W",)), (arg, Equality(W, bound)))


def majority(x, arg):
    return Apply("majority", ((x,),), (arg,))


def pairs(arg):
    return Apply("pairs", (("X", "Y"),), (arg,))


@pytest.mark.parametrize(
    "risky, kinds",
    [
        (ESCAPING, {"GroundingError"}),
        (MISSHAPEN_AND, {"GroundingError"}),
        (BOOM, {"value", "ValueError"}),
        (FROB, {"UnknownQuantifierError"}),
    ],
    ids=["escaping-binder", "misshapen-and", "raising-truth", "unknown-quantifier"],
)
def test_programs_whose_bodies_raise_match_the_oracle(risky, kinds):
    # the risky body is read only where r(X) and p(2) hold in I, so only
    # a truth function raises at some (I, J) and not at others; a static
    # failure raises at compile time
    assert check_program(_raising_program(risky), _raising_registry()) == kinds


# ESCAPING, MISSHAPEN_AND, FROB, the binder variables read after their
# binder and the arguments whose terms have no value fail to compile
SENTENCES = [
    ESCAPING,
    MISSHAPEN_AND,
    BOOM,
    FROB,
    impl(atom("p", 1), FROB),
    disj(atom("q", 2), conj(BOOM, atom("q", 1))),
    # a binder's variable is unbound again after it
    conj(forall("X", atom("p", "X")), atom("q", "X")),
    conj(neg(exists("X", atom("p", "X"))), atom("q", "X")),
    conj(count_ge("X", atom("p", "X"), X), atom("q", "X")),
    # the escaping V reads the binding around the application
    forall("V", ESCAPING),
    # and the outer binding comes back after an inner binder shadows it
    forall("X", impl(atom("q", "X"), conj(exists("X", atom("p", "X")), atom("p", "X")))),
    exists(
        "X",
        conj(Apply("count_ge", (("X",), ("W",)), (atom("q", "X"), Top())), neg(atom("q", "X"))),
    ),
    # an argument that skips its bound variable
    forall("X", impl(atom("q", "X"), majority("W", atom("p", "X")))),
    neg(majority("W", atom("q", 1))),
    # two variables bound at once: p(X) names two pairs, q(Y) two, and
    # X = Y is fixed at compile time
    pairs(atom("p", "X")),
    disj(neg(pairs(atom("q", "Y"))), pairs(Equality(X, Y))),
    # equality arguments that read a constant
    conj(atom("p", 1), count_ge("X", atom("p", "X"), Constant(2))),
    neg(majority("W", Equality(Constant(1), W))),
    # atom and equality arguments whose terms have no value
    disj(atom("q", 1), majority("W", atom("p", "Z"))),
    disj(atom("q", 2), count_ge("X", atom("p", "X"), Z)),
    forall("Z", disj(atom("q", "Z"), count_ge("X", atom("q", "X"), Z))),
]


@pytest.mark.parametrize("sentence", SENTENCES, ids=[str(s) for s in SENTENCES])
def test_sentences_with_raising_or_shadowed_nodes_match_the_oracle(sentence):
    reg = _raising_registry()
    reg.register(PAIRS)
    frame = Interpretation(frozenset({1, 2}))
    atoms = [GroundAtom(p, (v,)) for p in ("p", "q") for v in (1, 2)]
    js = list(subsets(atoms))
    assert check_sentence(sentence, frame, atoms, js, {"p", "q"}, reg)


def test_shadowed_rule_variables_match_the_oracle():
    # the rule's X is read again after exists and count_ge rebind X
    rules = (
        Rule(atom("r", "X"), conj(atom("q", "X"), exists("X", atom("p", "X")), atom("q", "X"))),
        Rule(atom("p", "X"), conj(count_ge("X", atom("r", "X"), Constant(1)), neg(atom("q", "X")))),
    )
    prog = Program(rules, frozenset({1, 2}))
    assert check_program(prog, Registry()) == {"value"}


def test_a_constant_valuation_is_read_at_compile_time():
    # a and b name 1 and 2 in atoms, in an equality and in an equality
    # argument
    a, b = Constant("a"), Constant("b")
    rules = (
        Rule(Atom("p", (b,)), Atom("p", (a,))),
        Rule(Atom("q", (a,)), conj(Atom("p", (b,)), neg(Atom("q", (b,))))),
        Rule(atom("p", "X"), conj(atom("q", "X"), Equality(X, a))),
        Rule(atom("q", "X"), conj(atom("p", "X"), count_ge("Y", atom("p", "Y"), a))),
    )
    prog = Program(rules, frozenset({1, 2, "a", "b"}))
    frame = Interpretation(frozenset({1, 2}), constants={"a": 1, "b": 2})
    base = [GroundAtom(p, (v,)) for p in ("p", "q") for v in (1, 2)]
    js = list(subsets(base))
    sentence = program_to_sentence(prog)
    kinds = check_sentence(sentence, frame, base, js, {"p", "q"}, Registry())
    assert kinds == {"value"}


def test_a_long_body_matches_the_oracle():
    src = "#universe {1}.\np :- " + ", ".join(["not q"] * 10_000) + ".\n"
    prog = parse_program(src, Registry())
    assert check_program(prog, Registry()) == {"value"}


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
# Static failures: every entry point raises grounding's first error before
# it reads anything


class OddAtom(Atom):
    """Passes the checks of ``Rule``, but grounding and the compiler read
    only the five formula types themselves."""


ODD = OddAtom("p", (1,))
UNBOUND = ("GroundingError", "unbound free variable V")
UNKNOWN = ("UnknownQuantifierError", "unknown quantifier 'frob'")

# kind: (the failing conjunct, the head of its rule, the error)
STATIC = {
    "unbound-variable": (ESCAPING, atom("p", 1), UNBOUND),
    "constant-without-value": (
        Atom("p", (Constant("c"),)),
        atom("p", 1),
        ("GroundingError", "constant 'c' has no value"),
    ),
    "unknown-quantifier": (FROB, atom("p", 1), UNKNOWN),
    "misshapen-application": (
        MISSHAPEN_AND,
        atom("p", 1),
        (
            "GroundingError",
            "quantifier 'and' binds 0 variable(s) per argument in this position, got 1",
        ),
    ),
    "non-formula": (ODD, atom("p", 1), ("GqError", f"not a formula: {ODD!r}")),
    # two failures: the first in grounding order wins
    "unknown-before-unbound": (conj(FROB, ESCAPING), atom("p", 1), UNKNOWN),
    "body-before-head": (ESCAPING, MISSHAPEN_AND, UNBOUND),
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
    "eval_flp_transform": lambda prog, reg, frame: eval_flp_transform(
        prog, frame, (), reg
    ),
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
    assert outcome(lambda: ENTRY_POINTS[entry](prog, reg, frame)) == want
    assert reg.truth_calls == 0
