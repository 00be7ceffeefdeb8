"""The package against the reference definitions of ``reference_semantics.py``.

One harness reads every suite with every target.  The suites are the
example programs, the seeded random programs, API-built programs and
programs whose bodies raise; the targets are the three routes,
``compare_semantics`` and the readers.

* **Routes and compare.**  Model sets equal the reference's over the
  full Herbrand base, and a route tries ``2 ** len(_checked_base)``
  candidates.  On the raising suite the outcome, or the raised type and
  text, and the whole scan, every I and J with its answer, equal the
  reference's run over the route's own base, head-bounded or full.
* **Readers.**  A program is compiled once, as a solve compiles it, and
  every I over the full base and every intensional J, below I or not, is
  read: the sentence's plain and star readings, the FLP model check,
  its reduct and transformation, and the reduct route's walkers on every
  ground rule.  Ground and reduced trees equal the reference's.  On the
  example programs the public readers, which compile per call, are read
  on every pair too.

To add a route or a reader, give it a target here, and a definition in
``reference_semantics.py`` if it reads a new one.  A change to which
(I, J) a route reads shows in the raising suite's scans, and nowhere
else.
"""

import functools
import random

import pytest

import randprog
import reference_semantics as ref
from reference_semantics import outcome, subsets
from gqsm import (
    Apply, Atom, Bot, Constant, Equality, Mono, Program, QuantifierDef, Registry, Rule,
    Top, Variable, aggregate_apply, atom, conj, disj, exists, forall, impl, neg,
)
from gqsm import solver
from gqsm.ground import (
    GApply, GroundAtom, GroundAtomNode, Interpretation, PairSet, _compile_program,
    _compile_sentence, _eval, _gsat, eval_flp_transform, eval_star, flp_reduct, ground,
    ground_program, ground_to_json, satisfies, satisfies_direct, satisfies_program,
)
from gqsm.parser import parse_program
from gqsm.reduct import EnumerationCapError, reduct
from gqsm.solver import (
    ReductRouteError, compare_semantics, flp_stable_models, monotone_class_report,
    program_to_sentence, stable_models_operator, stable_models_reduct,
)

# ---------------------------------------------------------------------------
# Suites: (label, program, registry, cap)

X, Y, W, Z = Variable("X"), Variable("Y"), Variable("W"), Variable("Z")
A, B = Constant("a"), Constant("b")


def count_ge(x, arg, bound):
    """``count{x : arg} >= bound`` in the application form."""
    return Apply("count_ge", ((x,), ("W",)), (arg, Equality(W, bound)))


def majority(x, arg):
    return Apply("majority", ((x,),), (arg,))


# the rule's X is read again after exists and count_ge rebind X
SHADOWED = Program(
    (
        Rule(atom("r", "X"), conj(atom("q", "X"), exists("X", atom("p", "X")), atom("q", "X"))),
        Rule(
            atom("p", "X"),
            conj(count_ge("X", atom("r", "X"), Constant(1)), neg(atom("q", "X"))),
        ),
    ),
    frozenset({1, 2}),
)


@functools.lru_cache(maxsize=None)
def suite(name):
    if name == "raising":
        reg = ref._raising_registry()
        risky = {"escaping": ref.ESCAPING, "misshapen": ref.MISSHAPEN_AND, "boom": ref.BOOM,
                 "frob": ref.FROB}
        cases = [(label, ref._raising_program(f), reg, None) for label, f in risky.items()]
        for label, src in (("guarded boom", ref.GUARDED_BOOM), ("choice boom", ref.CHOICE_BOOM)):
            cases.append((label, parse_program(src, reg), reg, None))
        for cap in (None, 0, 1, 2):
            cases.append((f"unguarded cap={cap}", parse_program(ref.UNGUARDED, reg), reg, cap))
            cases.append((f"unguarded e cap={cap}", ref.unguarded_extensional(), reg, cap))
        return tuple(cases)
    reg = Registry()
    if name == "examples":
        return tuple(
            (label, parse_program(src, reg), reg, None) for label, src in ref.example_sources()
        )
    if name == "api":
        body = ", ".join(["not q"] * 20 + ["p"] * 40)
        cases = [(f"api #{i}", prog, reg, None) for i, prog in enumerate(ref._api_programs())]
        cases.append(("shadowed rule variables", SHADOWED, reg, None))
        prog = parse_program(f"#universe {{1}}.\np :- {body}.\n", reg)
        cases.append(("60-literal body", prog, reg, None))
        return tuple(cases)
    cases = [
        (label, parse_program(src, reg), reg, None) for label, src in ref.KERNEL_SHAPES.items()
    ]
    for seed, count, bound in ref.ROUTE_SETS:
        for label, src in ref.random_sources(seed, count):
            prog = parse_program(src, reg)
            # the 2718 set holds only programs the reduct route accepts
            if len(ref.herbrand_base(prog)) <= bound and (seed != 2718 or prog.all_intensional):
                cases.append((label, prog, reg, None))
    return tuple(cases)


SUITES = ("examples", "random", "api", "raising")


@pytest.fixture(scope="module", autouse=True)
def _forget_the_suites():
    # the suites and the reference's answers hold many objects; the tests
    # after this module need not carry them
    yield
    suite.cache_clear()
    _MODELS.clear()


def _in_pair_bound(label, prog):
    """Whether the readers read every (I, J) of a program: a seeded random
    program when its set is in ``PAIR_SETS``, within the set's bound; any
    other program when it has at most 4,096 pairs."""
    base = ref.herbrand_base(prog)
    if label.startswith("random "):
        seed = int(label.split()[1])
        return any(s == seed and len(base) <= b for s, _, b in ref.PAIR_SETS)
    return 2 ** (len(base) + sum(a.pred in prog.intensional for a in base)) <= 4096


def test_the_suites_hold_what_the_seeded_sets_drew():
    counts = {}
    for label, _, _, _ in suite("random"):
        if label.startswith("random "):
            seed = int(label.split()[1])
            counts[seed] = counts.get(seed, 0) + 1
    assert counts == {2718: 400, 4242: 179, 5150: 257, 7117: 105, 9090: 400}
    assert sum(_in_pair_bound(label, p) for label, p, _, _ in suite("random")) == 287


# ---------------------------------------------------------------------------
# Routes and compare

_MODELS = {}


def reference_models(label, program, registry):
    """The reference's models over the full base: FLP; SM by the reduct
    where every predicate is intensional, and by F*(J) where one is not or
    where the readers read every pair.  The two SM definitions agree (a
    test below holds the reference to it), so either stands for SM.
    Computed at the first request."""
    if id(program) not in _MODELS:
        definitions = ["flp"]
        if program.all_intensional:
            definitions.append("sm_reduct")
        if not program.all_intensional or _in_pair_bound(label, program):
            definitions.append("sm_operator")
        models = dict(zip(definitions, ref.models(definitions, program, registry)))
        models["sm"] = models.get("sm_reduct", models.get("sm_operator"))
        _MODELS[id(program)] = (program, models)
    return _MODELS[id(program)][1]


ROUTES = {
    "reduct": (stable_models_reduct, ("sm_reduct",)),
    "operator": (stable_models_operator, ("sm_operator",)),
    "flp": (flp_stable_models, ("flp",)),
    "compare": (compare_semantics, ("sm_operator", "flp")),
}


def full_base(program, cap):
    """Every ground atom, checked against the cap as the bounded base is."""
    base, limit = ref.herbrand_base(program), solver.resolve_cap(cap)
    if len(base) > limit:
        raise EnumerationCapError(len(base), limit)
    return base


def _refuse_extensional(program):
    if not program.all_intensional:
        extensional = sorted(set(program.signature) - program.intensional)
        raise ReductRouteError(
            "the reduct route requires every predicate to be intensional; "
            f"extensional here: {', '.join(extensional)}"
        )


def run_logged(call):
    """The outcome of ``call()``, as ``(models, candidates)`` per scan, and
    the log of every ``_search`` it ran: each candidate and each J in the
    order tested, each followed by its answer."""
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
                log.append(("J", frozenset(j)))
                log.append(witness(j))
                return log[-1]

            return logged_witness

        return search(semantics, name, t0, base, intensional, test)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_search", logged_search)
        got = outcome(call)
    if got[0] == "value":
        scans = (got[1].sm, got[1].flp) if hasattr(got[1], "sm") else (got[1],)
        got = ("value", [(r.models, r.stats.candidates) for r in scans])
    return got, log


def reference_run(definitions, program, registry, cap, base_fn):
    """The reference's outcome and log over ``base_fn``'s base, after the
    checks a route makes first."""
    log = []

    def run():
        if "sm_reduct" in definitions:
            _refuse_extensional(program)
        base = base_fn(program, cap)
        return [(m, 2 ** len(base)) for m in ref.models(definitions, program, registry, base, log)]

    return outcome(run), log


def check_scans(target, program, registry, cap, bases=(solver._checked_base, full_base)):
    """The outcome and the scan against the reference's, over each base;
    the outcome kinds seen."""
    call, definitions = ROUTES[target]
    kinds = set()
    for base_fn in bases:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_checked_base", base_fn)
            got, log = run_logged(lambda: call(program, registry, cap))
            want, want_log = reference_run(definitions, program, registry, cap, base_fn)
        assert got == want, (base_fn.__name__, got, want)
        assert log == want_log, base_fn.__name__
        kinds.add(want[0])
    return kinds


def check_models(target, label, program, registry):
    call, _ = ROUTES[target]
    if target == "reduct" and not program.all_intensional:
        want = outcome(lambda: _refuse_extensional(program))
        assert outcome(lambda: call(program, registry)) == want
        return
    got = call(program, registry)
    want = reference_models(label, program, registry)
    n = 2 ** len(solver._checked_base(program, None))
    if target != "compare":
        assert (got.models, got.stats.candidates) == (want["flp" if target == "flp" else "sm"], n)
        return
    assert (got.sm.models, got.flp.models) == (want["sm"], want["flp"])
    assert got.sm.stats.candidates == got.flp.stats.candidates == n
    assert got.difference == tuple(sorted(set(want["sm"]) ^ set(want["flp"]), key=ref.model_key))
    assert got.class_report == monotone_class_report(program, registry)
    assert got.agreement_violated == (got.class_report.in_class and bool(got.difference))


@pytest.mark.parametrize("target", ROUTES)
@pytest.mark.parametrize("name", ("examples", "random", "api"))
def test_routes_and_compare_match_the_reference(name, target):
    for label, program, registry, _ in suite(name):
        check_models(target, label, program, registry)


def case(name, label):
    """The suite entry named ``label``."""
    (found,) = [entry for entry in suite(name) if entry[0] == label]
    return found


@pytest.mark.parametrize("target", ROUTES)
@pytest.mark.parametrize("label", [label for label, _, _, _ in suite("raising")])
def test_routes_and_compare_scan_the_raising_programs_as_the_reference_does(label, target):
    _, program, registry, cap = case("raising", label)
    check_scans(target, program, registry, cap)


@pytest.mark.parametrize("target", ROUTES)
def test_the_raising_programs_meet_every_way_to_fail(target):
    # each static failure, a truth function, the cap, and the reduct
    # route's refusal, over each base; the test above holds the route to
    # each of these outcomes
    _, definitions = ROUTES[target]
    kinds = {
        reference_run(definitions, program, registry, cap, base_fn)[0][0]
        for _, program, registry, cap in suite("raising")
        for base_fn in (solver._checked_base, full_base)
    }
    want = {"value", "GroundingError", "UnknownQuantifierError", "ValueError",
            "EnumerationCapError"} | ({"ReductRouteError"} if target == "reduct" else set())
    assert kinds == want, kinds


def test_the_reduct_route_scans_the_choice_family_as_the_reference_does():
    reg = Registry()
    prog = parse_program(ref.choice_text(6), reg)
    assert check_scans("reduct", prog, reg, None, bases=(solver._checked_base,)) == {"value"}
    result = stable_models_reduct(prog, reg)
    assert (len(result.models), result.stats.candidates) == (64, 4096)


def test_the_two_definitions_of_stable_models_agree():
    # the reduct and F*(J), on every program the reduct route accepts and
    # the readers read pair by pair
    checked = 0
    for name in ("examples", "random", "api"):
        for label, program, registry, _ in suite(name):
            models = reference_models(label, program, registry)
            if "sm_reduct" in models and "sm_operator" in models:
                assert models["sm_reduct"] == models["sm_operator"], label
                checked += 1
    assert checked > 250, checked


def test_stable_models_are_flp_models_inside_the_agreement_class():
    # the paper's theorem, on the reference; outside the class the suites
    # hold programs where the two split
    inside = split = 0
    for name in ("examples", "random", "api"):
        for label, program, registry, _ in suite(name):
            models = reference_models(label, program, registry)
            if monotone_class_report(program, registry).in_class:
                assert models["sm"] == models["flp"], label
                inside += 1
            else:
                split += models["sm"] != models["flp"]
    assert inside > 500 and split > 0, (inside, split)


# ---------------------------------------------------------------------------
# Readers: every (I, J) of a program, compiled once


def check_tree(g, want, deep=False):
    """``g`` is the reference's tree: equal, hash-equal, and printed and
    exported the same.  A deep tree is compared by its text."""
    assert str(g) == str(want)
    if not deep:
        assert g == want and hash(g) == hash(want) and ground_to_json(g) == ground_to_json(want)


def check_ground_rule(g, I, universe, registry):
    """``_gsat`` and ``reduct`` of a ground formula under I, and ``_gsat``
    of its reduct under every J below I; the outcome kinds seen."""
    want = outcome(lambda: ref.gsat(g, I, universe, registry))
    assert outcome(lambda: _gsat(g, I, universe, registry)) == want, (str(g), sorted(map(str, I)))
    kinds = {want[0]}
    want = outcome(lambda: ref.reduct(g, I, universe, registry))
    got = outcome(lambda: reduct(g, I, universe, registry))
    if got[0] != "value":
        assert got == want
        return kinds | {got[0]}
    assert want[0] == "value" and got[1].replaced == want[1][1]
    check_tree(got[1].formula, want[1][0])
    for j in subsets(I):
        want = outcome(lambda: ref.gsat(got[1].formula, j, universe, registry))
        assert outcome(lambda: _gsat(got[1].formula, j, universe, registry)) == want
        kinds.add(want[0])
    return kinds


def check_pairs(program, registry, deep=False, public=False):
    """Every (I, J) of ``program`` against the reference, read off one
    compile, and with ``public`` through the public readers too; the
    outcome kinds seen.  A program that grounding rejects fails to compile
    with grounding's first error."""
    frame = Interpretation(program.universe)
    intensional, universe = program.intensional, program.universe
    f = program_to_sentence(program)
    assert deep or f == ref.sentence(program)
    base = ref.herbrand_base(program)
    js = list(subsets(a for a in base if a.pred in intensional))
    # the sentence grounds as the rules do, and fails where they fail
    static = outcome(lambda: ref.ground_program(program, registry))
    kinds = check_sentence(
        f, frame, list(subsets(base)), lambda I: js, intensional, registry, public, static
    )
    if static[0] != "value":
        assert outcome(lambda: _compile_program(program, frame, registry)) == static
        assert outcome(lambda: ground_program(program, registry)) == static
        return kinds
    for rule in program.rules:
        assert list(rule.variables) == ref.rule_variables(rule)
    rules = _compile_program(program, frame, registry)
    grounded = ground_program(program, registry)
    assert len(grounded) == len(static[1])
    for g, want in zip(grounded, static[1]):
        check_tree(g, want, deep)
    insts = ref.instances(program, frame)
    for I in subsets(base):
        interp = frame.with_atoms(I)
        model = outcome(lambda: ref.satisfies_program(interp, insts, registry))
        fired = []
        assert outcome(lambda: satisfies_program(interp, rules, registry, fired=fired)) == model
        kinds.add(model[0])
        is_model = model == ("value", True)
        if is_model:
            assert len(fired) == len(ref.flp_reduct(insts, interp, registry))
        if public:
            assert outcome(lambda: satisfies_program(interp, program, registry)) == model
            reduct_ = outcome(lambda: flp_reduct(program, interp, registry))
            assert reduct_ == outcome(lambda: ref.flp_reduct(insts, interp, registry))
            for g in grounded:
                want = outcome(lambda: ref.gsat(g, I, universe, registry))
                assert outcome(lambda: satisfies(I, g, universe, registry)) == want
        # a deep rule is read by the walkers on the reduct route's scan
        for g in () if deep else grounded:
            kinds |= check_ground_rule(g, I, universe, registry)
        for j in js:
            flp = outcome(lambda: ref.flp_transform(insts, intensional, interp, j, registry))
            assert outcome(lambda: eval_flp_transform(rules, interp, j, registry)) == flp
            if is_model:
                got = outcome(lambda: eval_flp_transform(rules, interp, j, registry, fired=fired))
                assert got == flp
            kinds.add(flp[0])
            if public:
                assert outcome(lambda: eval_flp_transform(program, interp, j, registry)) == flp
    return kinds


@pytest.mark.parametrize("name", SUITES)
def test_readers_match_the_reference_on_every_pair(name):
    kinds = set()
    for label, program, registry, cap in suite(name):
        if _in_pair_bound(label, program) and cap is None:
            kinds |= check_pairs(program, registry, public=name == "examples")
    want = {"value"}
    if name == "raising":
        want |= {"GroundingError", "UnknownQuantifierError", "ValueError"}
    assert kinds == want, kinds


@pytest.mark.parametrize("label", [label for label, _ in ref.example_sources()])
def test_fired_on_a_program_is_its_flp_reduct(label):
    # on every model I, satisfies_program collects the instances as
    # (rule, env), as flp_reduct gives them, and eval_flp_transform reads
    # either list as the reduct it would take itself
    _, program, registry, _ = case("examples", label)
    frame = Interpretation(program.universe)
    base = ref.herbrand_base(program)
    js = list(subsets(a for a in base if a.pred in program.intensional))
    models = 0
    for I in subsets(base):
        interp = frame.with_atoms(I)
        fired = []
        if not satisfies_program(interp, program, registry, fired=fired):
            continue
        models += 1
        reduct_ = flp_reduct(program, interp, registry)
        assert fired == list(reduct_)
        for j in js:
            want = eval_flp_transform(program, interp, j, registry)
            for given in (fired, reduct_):
                assert eval_flp_transform(program, interp, j, registry, fired=given) == want
    assert models


def test_a_long_body_matches_the_reference():
    # 10,000 literals: the reduct route's scan, and every pair read off
    # one compile
    reg = Registry()
    prog = parse_program(ref.long_body(10_000), reg)
    assert check_scans("reduct", prog, reg, None, bases=(solver._checked_base,)) == {"value"}
    assert check_pairs(prog, reg, deep=True) == {"value"}


# ---------------------------------------------------------------------------
# Readers: sentences

PQ = [GroundAtom(p, (v,)) for p in ("p", "q") for v in (1, 2)]
# a and b name 1 and 2
FRAME = Interpretation(frozenset({1, 2}), constants={1: 1, 2: 2, "a": 1, "b": 2})


def check_sentence(f, frame, atoms, js, intensional, registry, public=False, static=None):
    """``f`` grounded and compiled once over ``frame``, and read under
    every I in ``atoms`` and every J in ``js(I)``, and with ``public``
    through the public readers too; the outcome kinds seen.  ``static`` is
    the outcome of grounding, when the caller has it.  A formula that
    grounding rejects fails to compile, and to be read by the public
    readers, with grounding's first error."""
    intensional = frozenset(intensional)
    if static is None:
        static = outcome(lambda: ref.ground(f, frame, registry, {}))
        got = outcome(lambda: ground(f, frame, registry))
        if static[0] == "value":
            check_tree(got[1], static[1])
        else:
            assert got == static
    if static[0] != "value":
        assert outcome(lambda: _compile_sentence(f, frame, registry, intensional)) == static
        assert outcome(lambda: _eval(f, frame, registry, {})) == static
        assert outcome(lambda: eval_star(f, frame, (), intensional, registry)) == static
        return {static[0]}
    compiled = _compile_sentence(f, frame, registry, intensional)
    kinds = set()
    for I in atoms:
        interp = frame.with_atoms(I)
        want = outcome(lambda: ref.plain(f, interp, registry, {}))
        got = outcome(lambda: _eval(compiled, interp, registry, {}))
        assert got == want, (str(f), sorted(map(str, I)))
        assert not public or outcome(lambda: satisfies_direct(interp, f, registry)) == want
        kinds.add(want[0])
        for j in js(I):
            want = outcome(lambda: ref.star(f, interp, j, intensional, registry, {}))
            got = outcome(lambda: eval_star(compiled, interp, j, intensional, registry))
            assert got == want, (str(f), sorted(map(str, I)), sorted(map(str, j)))
            if public:
                assert outcome(lambda: eval_star(f, interp, j, intensional, registry)) == want
            kinds.add(want[0])
    return kinds


# holds of a binary relation with at least two pairs
PAIRS = QuantifierDef("pairs", (2,), lambda u, rels: len(rels[0]) >= 2, (Mono.MONOTONE,))


def pairs(arg):
    return Apply("pairs", (("X", "Y"),), (arg,))


# ESCAPING, MISSHAPEN_AND, FROB, the binder variables read after their
# binder and the arguments whose terms have no value fail to ground
SENTENCES = [
    ref.ESCAPING,
    ref.MISSHAPEN_AND,
    ref.BOOM,
    ref.FROB,
    impl(atom("p", 1), ref.FROB),
    disj(atom("q", 2), conj(ref.BOOM, atom("q", 1))),
    # a truth function inside an argument, whose star reading is read only
    # where the application around it holds in I
    Apply("atmost(0)", (("W",),), (ref.BOOM,)),
    # a binder's variable is unbound again after it
    conj(forall("X", atom("p", "X")), atom("q", "X")),
    conj(neg(exists("X", atom("p", "X"))), atom("q", "X")),
    conj(count_ge("X", atom("p", "X"), X), atom("q", "X")),
    # the escaping V reads the binding around the application
    forall("V", ref.ESCAPING),
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
    # constants named in atoms, in an equality and in an equality argument
    program_to_sentence(Program(
        (
            Rule(Atom("p", (B,)), Atom("p", (A,))),
            Rule(Atom("q", (A,)), conj(Atom("p", (B,)), neg(Atom("q", (B,))))),
            Rule(atom("p", "X"), conj(atom("q", "X"), Equality(X, A))),
            Rule(atom("q", "X"), conj(atom("p", "X"), count_ge("Y", atom("p", "Y"), A))),
        ),
        frozenset({1, 2, "a", "b"}),
    )),
]

P_X, P_1, Q_1 = atom("p", "X"), atom("p", 1), atom("q", 1)
BINDS = (
    "GroundingError: quantifier {!r} binds {} variable(s) per argument in this position, got {}"
)
TAKES = "GroundingError: quantifier {!r} takes {} arguments, got {}"
# misshapen applications, and the error each reports whatever reads it
MISSHAPEN = {
    Apply("and", (("X",), ()), (P_X, P_1)): BINDS.format("and", 0, 1),
    Apply("or", ((), ("X",)), (P_1, P_X)): BINDS.format("or", 0, 1),
    Apply("impl", ((), (), ()), (P_1, P_1, P_1)): TAKES.format("impl", 2, 3),
    Apply("forall", (("X", "Y"),), (P_X,)): BINDS.format("forall", 1, 2),
    Apply("exists", ((),), (P_1,)): BINDS.format("exists", 1, 0),
    Apply("sum_lt", (("X",),), (P_X,)): TAKES.format("sum_lt", 2, 1),
    Apply("frob", (("X",),), (P_X,)): "UnknownQuantifierError: unknown quantifier 'frob'",
    forall("X", impl(P_X, Apply("and", (("Y",), ()), (P_X, P_1)))): BINDS.format("and", 0, 1),
    Apply("forall", (("X",), ("Y",)), (P_X, atom("q", "Y"))): TAKES.format("forall", 1, 2),
    Apply("or", (("X",), ()), (P_X, Q_1)): BINDS.format("or", 0, 1),
    conj(Apply("and", ((), ("Z",)), (P_1, atom("q", "Z"))), atom("p", 2)):
        BINDS.format("and", 0, 1),
    Apply("top", (), ()): None,
}
FORMULAS = SENTENCES + list(MISSHAPEN)


@pytest.mark.parametrize("f", FORMULAS, ids=list(map(str, FORMULAS)))
def test_sentences_match_the_reference(f):
    reg = ref._raising_registry()
    reg.register(PAIRS)
    all_pq = list(subsets(PQ))
    check_sentence(f, FRAME, all_pq, lambda I: all_pq, {"p", "q"}, reg)
    if MISSHAPEN.get(f):
        assert ": ".join(outcome(lambda: ground(f, FRAME, reg))) == MISSHAPEN[f]
    # grounded under bindings from outside
    for env in ({"X": 1}, {"X": 2, "V": 1}):
        want = outcome(lambda: ref.ground(f, FRAME, reg, dict(env)))
        got = outcome(lambda: ground(f, FRAME, reg, dict(env)))
        assert got[0] == want[0] and (got[0] == "value" or got == want), env
        if got[0] == "value":
            check_tree(got[1], want[1])
            for I in subsets(PQ):
                check_ground_rule(got[1], I, FRAME.universe, reg)


def _risky_sentence(rng, universe, depth):
    """A random formula in which some nodes cannot be grounded: atoms over
    variables no binder supplies (each with its own name, so the message
    says which node failed first) and misshapen connectives."""
    counter = [0]

    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def term(scope):
        if scope and rng.random() < 0.6:
            return Variable(rng.choice(scope))
        return Constant(rng.choice(universe))

    def atomic(scope):
        r = rng.random()
        if r < 0.12:
            return Atom("p", (Variable(fresh("Z")),))
        if r < 0.7:
            return Atom(rng.choice(("p", "q", "e")), (term(scope),))
        if r < 0.85:
            return Equality(term(scope), term(scope))
        return Top() if r < 0.93 else Bot()

    def go(d, scope):
        if d == 0 or rng.random() < 0.25:
            return atomic(scope)
        r = rng.random()
        if r < 0.04:
            return Apply("and", ((fresh("B"),), ()), (go(d - 1, scope), go(d - 1, scope)))
        if r < 0.2:
            return conj(go(d - 1, scope), go(d - 1, scope), go(d - 1, scope))
        if r < 0.38:
            return disj(go(d - 1, scope), go(d - 1, scope))
        if r < 0.52:
            return impl(go(d - 1, scope), go(d - 1, scope))
        if r < 0.6:
            return neg(go(d - 1, scope))
        v = fresh("V")
        inner = scope + (v,)
        if r < 0.85:
            name = rng.choice(("forall", "exists", "exists", "exists", "majority", "atmost(1)"))
            return Apply(name, ((v,),), (go(d - 1, inner),))
        return aggregate_apply(
            rng.choice(("sum", "count")), rng.choice(randprog.CMPS), v, go(d - 1, inner),
            Constant(rng.choice(universe)),
        )

    return go(depth, ())


def _random_atoms(rng, universe, preds):
    return frozenset(GroundAtom(p, (e,)) for p in preds for e in universe if rng.random() < 0.5)


def test_risky_sentences_match_the_reference():
    reg = Registry()
    rng = random.Random(977)
    raised = 0
    for _ in range(3000):
        universe = tuple(sorted(rng.sample((-1, 0, 1, 2), rng.randint(1, 3))))
        f = _risky_sentence(rng, universe, rng.randint(2, 5))
        # p and q are intensional, e is not; J is drawn apart from I, so
        # it is often not below I
        I = _random_atoms(rng, universe, ("p", "q", "e"))
        js = [_random_atoms(rng, universe, ("p", "q")) for _ in range(4)]
        frame = Interpretation(frozenset(universe))
        raised += check_sentence(f, frame, [I], lambda I: js, {"p", "q"}, reg) != {"value"}
    # both kinds of outcome are well represented
    assert 125 < raised < 2500, raised


def test_random_closed_sentences_match_the_reference():
    reg = Registry()
    seed, count = ref.CLOSED_SENTENCES
    rng = random.Random(seed)
    for _ in range(count):
        universe = randprog.random_universe(rng, allow_symbols=False)
        f = randprog.random_sentence(rng, universe)
        I = randprog.random_interpretation(rng, universe).atoms
        js = list(subsets(randprog.random_interpretation(rng, universe).atoms))
        frame = Interpretation(frozenset(universe))
        assert check_sentence(f, frame, [I], lambda I: js, {"p", "q"}, reg) == {"value"}


# ---------------------------------------------------------------------------
# Readers: ground formulas built through the API

P1, P2, Q1, Q2 = (GroundAtomNode(p, (v,)) for p in ("p", "q") for v in (1, 2))


def one(child, key=()):
    return PairSet(((key, child),))


def app(name, *sets):
    return GApply(name, sets)


def conn(name, a, b):
    return app(name, one(a), one(b))


G_FROB = app("frob", PairSet((((1,), P1), ((2,), P2))))
# boom raises when p(1) and p(2) both hold
G_BOOM = ground(ref.BOOM, FRAME, ref._raising_registry())
SHARED = conn("or", Q1, G_BOOM)

GROUND_FORMULAS = {
    "and-one-set": app("and", one(P1)),
    "and-three-sets": app("and", one(P1), one(Q1), one(G_FROB)),
    "and-three-sets-boom": app("and", one(P1), one(Q1), one(G_BOOM)),
    "or-two-entries": app("or", PairSet((((1,), P1), ((2,), G_FROB))), one(P2)),
    "impl-two-entries": app("impl", one(Q1), PairSet((((1,), P1), ((2,), G_FROB)))),
    "exists-two-sets": app("exists", PairSet((((1,), P1), ((2,), Q1))), one(G_FROB)),
    "exists-two-sets-boom": app("exists", PairSet((((1,), P1),)), one(G_BOOM)),
    "forall-two-sets": app("forall", PairSet((((1,), P1), ((2,), P2))), one(Q1)),
    "forall-keyed": app("forall", PairSet((((1,), P1), ((2,), G_BOOM)))),
    "exists-empty-or-boom": conn("or", app("exists", PairSet(())), G_BOOM),
    "keyed-and": app("and", one(P1, (1,)), one(conn("or", Q1, G_BOOM), (2,))),
    **{
        f"{name}-{side}-{risky}": conn(name, *((r, Q1) if side == "left" else (Q1, r)))
        for name in ("and", "or", "impl")
        for side in ("left", "right")
        for risky, r in (("frob", G_FROB), ("boom", G_BOOM))
    },
    "and-spine-boom": conn("and", conn("and", conn("and", P1, Q1), G_BOOM), P2),
    "and-spine-misshapen": conn(
        "and", conn("and", app("and", one(P1), one(Q2), one(G_FROB)), Q1), P2
    ),
    # one node under two parents, read once per reduct
    "shared-node": conn("and", conn("impl", SHARED, P1), SHARED),
}


@pytest.mark.parametrize("g", list(GROUND_FORMULAS.values()), ids=list(GROUND_FORMULAS))
def test_misshapen_and_raising_formulas_match_the_reference(g):
    kinds = set()
    for I in subsets(PQ):
        kinds |= check_ground_rule(g, I, FRAME.universe, ref._raising_registry())
    assert kinds - {"value"}, kinds


# ---------------------------------------------------------------------------
# The smaller valuation of a program is checked as it always was


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
def test_the_smaller_valuation_fails_with_the_references_error(smaller):
    reg = Registry()
    prog = Program((Rule(atom("p", "X"), atom("e", "X")),), frozenset({1, 2}), frozenset({"p"}))
    interp = Interpretation(
        frozenset({1, 2}), frozenset({GroundAtom("e", (1,)), GroundAtom("p", (1,))})
    )
    insts = ref.instances(prog, interp)
    want = outcome(lambda: ref.flp_transform(insts, prog.intensional, interp, smaller, reg))
    assert outcome(lambda: eval_flp_transform(prog, interp, smaller, reg)) == want
    fired = flp_reduct(prog, interp, reg)
    assert outcome(lambda: eval_flp_transform(prog, interp, smaller, reg, fired=fired)) == want
