"""``eval_star`` and ``_eval`` against the literal two-pass reading of the
stability transformation.

The oracle below evaluates F*(J) the way the definition reads: at every
quantifier application it first evaluates the whole application in I
(the plain conjunct), then the application over the starred arguments,
resolving the quantifier and checking its shape at every visit.  The
package reads its compiled nodes the same way, keeping each node's plain
answer per candidate; these tests hold it to the oracle's values, and to
the oracle's exceptions, on every J, below I or not, which shows that it
visits the nodes the oracle visits, in the oracle's order.
"""

import itertools
import random
from pathlib import Path

import pytest

import randprog
from gqsm import (
    Apply,
    Atom,
    BOT,
    Constant,
    Equality,
    TOP,
    Variable,
    aggregate_apply,
    conj,
    disj,
    impl,
    neg,
)
from gqsm.ground import (
    GroundAtom,
    Interpretation,
    _check_shape,
    _eval,
    _term_value,
    eval_star,
    ground,
    herbrand_base,
)
from gqsm.parser import parse_program
from gqsm.quantifiers import Registry
from gqsm.solver import program_to_sentence
from gqsm.syntax import GqError, atom, flatten_spine, forall

from test_flp_oracle import BOOM, _raising_program, _raising_registry

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))


# ---------------------------------------------------------------------------
# The oracle

_UNSET = object()


def oracle_plain(f, interp, registry, env):
    """Truth of ``f`` in ``interp``."""
    t = type(f)
    if t is Atom:
        vals = tuple(_term_value(a, interp, env) for a in f.args)
        return (f.pred, vals) in interp.atoms
    if t is Equality:
        return _term_value(f.left, interp, env) == _term_value(f.right, interp, env)
    if t is not Apply:
        return t is type(TOP)
    qdef = registry.resolve(f.quantifier)
    _check_shape(f, qdef)
    return _apply(f, qdef, interp, env, lambda g: oracle_plain(g, interp, registry, env))


def oracle_star(f, interp, j_idx, intensional, registry, env):
    """Truth of F*(J): intensional atoms read from J, and every quantifier
    application conjoined with its plain reading, evaluated afresh."""
    t = type(f)
    if t is Atom:
        vals = tuple(_term_value(a, interp, env) for a in f.args)
        return (f.pred, vals) in (j_idx if f.pred in intensional else interp.atoms)
    if t is not Apply:
        return oracle_plain(f, interp, registry, env)
    qdef = registry.resolve(f.quantifier)
    _check_shape(f, qdef)
    if not oracle_plain(f, interp, registry, env):
        return False
    return _apply(
        f, qdef, interp, env,
        lambda g: oracle_star(g, interp, j_idx, intensional, registry, env),
    )


def _apply(f, qdef, interp, env, value):
    """``Q(value(F1), ..., value(Fk))``, with the connectives' left to
    right short circuits."""
    name, args = f.quantifier, f.args
    if name == "and":
        # the whole left spine at once: the plain reading of a conjunction
        # implies each conjunct's, so F* is the same, and a body of 10,000
        # literals stays within the recursion limit
        return all(value(g) for g in flatten_spine(f, "and"))
    if name == "or":
        return value(args[0]) or value(args[1])
    if name == "impl":
        return not value(args[0]) or value(args[1])
    if name == "forall" or name == "exists":
        want = name == "exists"
        x = f.var_lists[0][0]
        old = env.get(x, _UNSET)
        result = not want
        for v in interp.universe_sorted:
            env[x] = v
            if value(args[0]) == want:
                result = want
                break
        _put_back(env, x, old)
        return result
    rels = []
    for xs, arg in zip(f.var_lists, args):
        rows = set()
        saved = [env.get(x, _UNSET) for x in xs]
        for combo in itertools.product(interp.universe_sorted, repeat=len(xs)):
            env.update(zip(xs, combo))
            if value(arg):
                rows.add(combo)
        for x, old in zip(xs, saved):
            _put_back(env, x, old)
        rels.append(frozenset(rows))
    return bool(qdef.truth(interp.universe, tuple(rels)))


def _put_back(env, x, old):
    if old is _UNSET:
        del env[x]
    else:
        env[x] = old


def outcome(fn):
    try:
        return ("value", fn())
    except (GqError, ValueError) as e:  # ValueError: a raising truth function
        return (type(e).__name__, str(e))


def both_agree(f, interp, j, intensional, registry):
    """The package and the oracle give the same outcome, plain and starred."""
    j_idx = frozenset((a.pred, a.args) for a in j)
    got_plain = outcome(lambda: _eval(f, interp, registry, {}))
    want_plain = outcome(lambda: oracle_plain(f, interp, registry, {}))
    got_star = outcome(lambda: eval_star(f, interp, j, intensional, registry))
    want_star = outcome(
        lambda: oracle_star(f, interp, j_idx, frozenset(intensional), registry, {})
    )
    return got_plain == want_plain and got_star == want_star, (
        got_plain, want_plain, got_star, want_star,
    )


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from map(frozenset, itertools.combinations(items, r))


# ---------------------------------------------------------------------------
# Programs: every I over the base, every intensional J, J below I or not


def _program_sources():
    for path in PROGRAMS:
        yield path.name, path.read_text()
    rng = random.Random(4242)
    for i in range(200):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        yield f"random #{i}", gen(rng)


def test_eval_star_matches_the_oracle_on_programs():
    reg = Registry()
    checked = 0
    for label, src in _program_sources():
        prog = parse_program(src, reg)
        sentence = program_to_sentence(prog)
        base = herbrand_base(prog)
        if len(base) > 5 and not label.endswith(".gq"):
            continue
        slice_ = [a for a in base if a.pred in prog.intensional]
        for i_atoms in subsets(base):
            interp = Interpretation(prog.universe, i_atoms)
            for j in subsets(slice_):
                ok, detail = both_agree(sentence, interp, j, prog.intensional, reg)
                assert ok, (label, sorted(map(str, i_atoms)), sorted(map(str, j)), detail)
                checked += 1
    assert checked > 15_000, checked


# ---------------------------------------------------------------------------
# Random sentences, including nodes that grounding rejects


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
        return TOP if r < 0.93 else BOT

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
            rng.choice(("sum", "count")),
            rng.choice(randprog.CMPS),
            v,
            go(d - 1, inner),
            Constant(rng.choice(universe)),
        )

    return go(depth, ())


def _random_atoms(rng, universe, preds, p):
    return frozenset(
        GroundAtom(pred, (e,)) for pred in preds for e in universe if rng.random() < p
    )


def test_eval_star_matches_the_oracle_on_risky_sentences():
    reg = Registry()
    rng = random.Random(977)
    raised = values = 0
    for _ in range(3000):
        universe = tuple(sorted(rng.sample((-1, 0, 1, 2), rng.randint(1, 3))))
        sentence = _risky_sentence(rng, universe, rng.randint(2, 5))
        # p and q are intensional, e is not
        interp = Interpretation(
            frozenset(universe), _random_atoms(rng, universe, ("p", "q", "e"), 0.5)
        )
        # a sentence that grounding rejects fails with grounding's first
        # error whatever I and J are; any other is read as the oracle reads
        static = outcome(lambda: ground(sentence, interp, reg))
        for _ in range(4):
            # J is drawn independently of I, so it is often not below I
            j = _random_atoms(rng, universe, ("p", "q"), 0.5)
            if static[0] != "value":
                assert outcome(lambda: _eval(sentence, interp, reg, {})) == static
                assert outcome(
                    lambda: eval_star(sentence, interp, j, {"p", "q"}, reg)
                ) == static
                raised += 1
                continue
            ok, detail = both_agree(sentence, interp, j, {"p", "q"}, reg)
            assert ok, (str(sentence), detail)
            values += 1
    # both kinds of outcome are well represented
    assert raised > 500 and values > 2000


def test_random_closed_sentences_match_the_oracle():
    reg = Registry()
    rng = random.Random(31)
    for _ in range(400):
        universe = randprog.random_universe(rng, allow_symbols=False)
        sentence = randprog.random_sentence(rng, universe)
        interp = randprog.random_interpretation(rng, universe)
        for j in subsets(randprog.random_interpretation(rng, universe).atoms):
            ok, detail = both_agree(sentence, interp, j, {"p", "q"}, reg)
            assert ok, (str(sentence), detail)


# ---------------------------------------------------------------------------
# A truth function that raises: every I, every J, J below I or not

# the program of test_flp_oracle whose risky body is boom{Z : p(Z)}, and
# the sentences of test_compiled_oracle that read boom, over their atoms
BOOM_CASES = [
    (program_to_sentence(_raising_program(BOOM)), ("p", "q", "r")),
    (BOOM, ("p", "q")),
    (disj(atom("q", 2), conj(BOOM, atom("q", 1))), ("p", "q")),
]


@pytest.mark.parametrize("sentence, preds", BOOM_CASES, ids=["program", "boom", "or-boom"])
def test_a_raising_truth_function_matches_the_oracle_on_every_pair(sentence, preds):
    # boom raises on a full relation; a star reading that the definition
    # never reaches must not raise, J below I or not
    reg = _raising_registry()
    atoms = [GroundAtom(p, (v,)) for p in preds for v in (1, 2)]
    intensional = set(preds)
    kinds = set()
    for i_atoms in subsets(atoms):
        interp = Interpretation(frozenset({1, 2}), i_atoms)
        for j in subsets(atoms):
            ok, detail = both_agree(sentence, interp, j, intensional, reg)
            assert ok, (sorted(map(str, i_atoms)), sorted(map(str, j)), detail)
            kinds.add(detail[3][0])
    assert kinds == {"value", "ValueError"}


# ---------------------------------------------------------------------------
# Misshapen applications report what they always reported

P_X = atom("p", "X")
P_1 = atom("p", 1)

MISSHAPEN = [
    (
        Apply("and", (("X",), ()), (P_X, P_1)),
        "GroundingError",
        "quantifier 'and' binds 0 variable(s) per argument in this position, got 1",
    ),
    (
        Apply("or", ((), ("X",)), (P_1, P_X)),
        "GroundingError",
        "quantifier 'or' binds 0 variable(s) per argument in this position, got 1",
    ),
    (
        Apply("impl", ((), (), ()), (P_1, P_1, P_1)),
        "GroundingError",
        "quantifier 'impl' takes 2 arguments, got 3",
    ),
    (
        Apply("forall", (("X", "Y"),), (P_X,)),
        "GroundingError",
        "quantifier 'forall' binds 1 variable(s) per argument in this position, got 2",
    ),
    (
        Apply("exists", ((),), (P_1,)),
        "GroundingError",
        "quantifier 'exists' binds 1 variable(s) per argument in this position, got 0",
    ),
    (
        Apply("sum_lt", (("X",),), (P_X,)),
        "GroundingError",
        "quantifier 'sum_lt' takes 2 arguments, got 1",
    ),
    (
        Apply("frob", (("X",),), (P_X,)),
        "UnknownQuantifierError",
        "unknown quantifier 'frob'",
    ),
    (
        forall("X", impl(P_X, Apply("and", (("Y",), ()), (P_X, P_1)))),
        "GroundingError",
        "quantifier 'and' binds 0 variable(s) per argument in this position, got 1",
    ),
]


@pytest.mark.parametrize("formula, kind, message", MISSHAPEN)
def test_misshapen_applications_raise_the_same_text(formula, kind, message):
    reg = Registry()
    interp = Interpretation(frozenset({1, 2}), frozenset({GroundAtom("p", (1,))}))
    want = (kind, message)
    assert outcome(lambda: _eval(formula, interp, reg, {})) == want
    assert outcome(lambda: eval_star(formula, interp, frozenset(), {"p"}, reg)) == want
