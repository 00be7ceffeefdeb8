"""The paper's three definitions, transcribed literally, and the suites
the differential harness (``test_harness.py``) reads them on.

Nothing here compiles, memoises or prunes: every formula is read afresh
at every visit, and every candidate I and every smaller J in full.

* **F\\*(J)** (Ferraris, Lee and Lifschitz, AIJ 2011; the paper's
  operator definition), read in two passes.  ``plain`` is truth in I;
  ``star`` reads an intensional atom in J and any other in I, and every
  application, connectives included, as its plain reading and then the
  application over its arguments' star readings.  I is stable when it
  satisfies the program's sentence F and no J below its intensional
  part satisfies F*(J).
* **The reduct** (Ferraris, LPNMR 2005; the paper's first definition).
  The program is grounded through the public, validating constructors,
  and the reduct relative to I replaces every maximal subformula that I
  does not satisfy by ``bot``.  I is stable when it satisfies the ground
  rules and is a minimal model of their reducts.
* **FLP** (Faber, Pfeifer and Leone, AIJ 2011).  I satisfies every rule
  instance, and no J below its intensional part satisfies every instance
  read as ``B and B(J) -> H(J)``, with ``B`` read in I and ``B(J)``,
  ``H(J)`` in I with its intensional part replaced by J.

``scan`` tries the candidates of one or more definitions over a base
given as a parameter, smallest first, and for each model each
definition's witnesses in turn, and logs each I and J with its answer.
The program is grounded before a scan, so its first static failure (an
unbound variable, an unknown or misshapen quantifier, a non-formula) is
raised before any candidate is read, as the package's error contract
says.  Static failures are grounding's, so the readings look up only
the generalized quantifiers, for their truth functions.

The second half of the module holds the suites: the example programs,
the seeded random programs, API-built programs and programs that raise.
"""

import itertools
import random
from pathlib import Path

import randprog
from gqsm import (
    Apply, Atom, Equality, Mono, Program, QuantifierDef, Registry, Rule, Variable, atom,
    conj, disj, impl, neg,
)
from gqsm.ground import (
    GApply, GBot, GroundAtom, GroundingError, GTop, Interpretation,
    PairSet, _check_shape, _term_value,
)
from gqsm.syntax import Bot, GqError, Top

PROGRAMS = sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.gq"))


def outcome(fn):
    """``("value", fn())``, or the type name and text of what it raised."""
    try:
        return ("value", fn())
    except Exception as e:  # user truth functions may raise anything
        return (type(e).__name__, str(e))


def subsets(items):
    """Every subset of ``items`` as a frozenset, smallest first."""
    items = list(items)
    for r in range(len(items) + 1):
        yield from map(frozenset, itertools.combinations(items, r))


# ---------------------------------------------------------------------------
# Formulas: free variables, shapes, terms

_UNSET = object()


def free_variables(f):
    """The recursive definition: an application binds every variable of
    its binder lists throughout its arguments.  (The walk keeps its own
    stack, so a long body is fine.)"""
    out = set()
    stack = [(f, frozenset())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, Apply):
            if any(f.var_lists):
                bound = bound | {x for xs in f.var_lists for x in xs}
            for a in f.args:
                stack.append((a, bound))
            continue
        if isinstance(f, Atom):
            terms = f.args
        elif isinstance(f, Equality):
            terms = (f.left, f.right)
        elif isinstance(f, (Top, Bot)):
            continue
        else:
            raise GqError(f"not a formula: {f!r}")
        for t in terms:
            if type(t) is Variable and t.name not in bound:
                out.add(t.name)
    return out


def _spine(f, name):
    """The operands of a left spine of plain binary ``name`` nodes."""
    rights = []
    while type(f) is Apply and f.quantifier == name and f.var_lists == ((), ()):
        rights.append(f.args[1])
        f = f.args[0]
    return [f] + rights[::-1]


def _unbind(env, xs, saved):
    for x, old in zip(xs, saved):
        if old is _UNSET:
            del env[x]
        else:
            env[x] = old


def sentence(program):
    """The program as one sentence: the left-deep conjunction of the
    universal closures of ``body -> head``, outermost variable first."""
    out = None
    for rule in program.rules:
        f = impl(rule.body, rule.head)
        for x in reversed(rule_variables(rule)):
            f = Apply("forall", ((x,),), (f,))
        out = f if out is None else Apply("and", ((), ()), (out, f))
    return Top() if out is None else out


def herbrand_base(program):
    """Every ground atom over the program's signature and universe."""
    u = program.universe_sorted()
    atoms = [
        GroundAtom(pred, combo)
        for pred, n in program.signature.items()
        for combo in itertools.product(u, repeat=n)
    ]
    return tuple(sorted(atoms, key=GroundAtom.sort_key))


# ---------------------------------------------------------------------------
# F*(J): truth in I, and the stability transformation


def plain(f, interp, registry, env):
    """Truth of ``f`` in ``interp`` under ``env``."""
    return _read(f, interp, None, (), registry, env)


def star(f, interp, j, intensional, registry, env):
    """Truth of F*(J): an intensional atom read in ``j``, and every
    application its plain reading and then the application over its
    arguments' star readings."""
    return _read(f, interp, j, intensional, registry, env)


def _read(f, interp, j, intensional, registry, env):
    """The plain reading when ``j`` is None, else the star reading."""
    t = type(f)
    if t is Apply:
        if j is not None and not _read(f, interp, None, intensional, registry, env):
            return False
    elif t is Atom:
        key = (f.pred, tuple([_term_value(a, interp, env) for a in f.args]))
        if j is not None and f.pred in intensional:
            return key in j
        return key in interp.atoms
    elif t is Equality:
        return _term_value(f.left, interp, env) == _term_value(f.right, interp, env)
    elif t is Top or t is Bot:
        return t is Top
    else:
        raise GqError(f"not a formula: {f!r}")
    # Q(read(F1), ..., read(Fk)), with the connectives' left to right
    # short circuits
    name, args = f.quantifier, f.args
    if f.var_lists == ((), ()):
        if name == "and":
            # a left spine at once: the plain reading of a conjunction
            # implies each conjunct's, so the value and the order of reads
            # are those of the nested reading, and a long body stays within
            # the recursion limit
            for g in _spine(f, "and"):
                if not _read(g, interp, j, intensional, registry, env):
                    return False
            return True
        if name == "or":
            return _read(args[0], interp, j, intensional, registry, env) or _read(
                args[1], interp, j, intensional, registry, env
            )
        if name == "impl":
            return not _read(args[0], interp, j, intensional, registry, env) or _read(
                args[1], interp, j, intensional, registry, env
            )
    if name == "forall" or name == "exists":
        want = name == "exists"
        (x,) = f.var_lists[0]
        old = env.get(x, _UNSET)
        result = not want
        try:
            for v in interp.universe_sorted:
                env[x] = v
                if _read(args[0], interp, j, intensional, registry, env) == want:
                    result = want
                    break
        finally:
            _unbind(env, (x,), (old,))
        return result
    rels = []
    for xs, arg in zip(f.var_lists, args):
        rows = []
        saved = [env.get(x, _UNSET) for x in xs]
        try:
            for combo in itertools.product(interp.universe_sorted, repeat=len(xs)):
                env.update(zip(xs, combo))
                if _read(arg, interp, j, intensional, registry, env):
                    rows.append(combo)
        finally:
            _unbind(env, xs, saved)
        rels.append(frozenset(rows))
    return bool(registry.resolve(name).truth(interp.universe, tuple(rels)))


# ---------------------------------------------------------------------------
# Grounding and the reduct


def ground(f, interp, registry, env):
    """``f`` grounded under ``env``, built by the public constructors."""
    t = type(f)
    if t is Atom:
        return GroundAtom(f.pred, tuple(_term_value(a, interp, env) for a in f.args))
    if t is Equality:
        same = _term_value(f.left, interp, env) == _term_value(f.right, interp, env)
        return GTop() if same else GBot()
    if t is Top or t is Bot:
        return GTop() if t is Top else GBot()
    if t is not Apply:
        raise GqError(f"not a formula: {f!r}")
    _check_shape(f, registry.resolve(f.quantifier))
    if f.quantifier == "and" and f.var_lists == ((), ()):
        # the inner nodes of a left spine are plain ands as well; a loop
        # keeps a long body within the recursion limit
        parts = _spine(f, "and")
        out = ground(parts[0], interp, registry, env)
        for part in parts[1:]:
            out = _and(out, ground(part, interp, registry, env))
        return out
    sets = []
    for xs, arg in zip(f.var_lists, f.args):
        entries = []
        for combo in itertools.product(interp.universe_sorted, repeat=len(xs)):
            saved = [env.get(x, _UNSET) for x in xs]
            env.update(zip(xs, combo))
            try:
                entries.append((combo, ground(arg, interp, registry, env)))
            finally:
                _unbind(env, xs, saved)
        sets.append(PairSet(tuple(entries)))
    return GApply(f.quantifier, tuple(sets))


def _and(left, right, keys=((), ())):
    return GApply("and", (PairSet(((keys[0], left),)), PairSet(((keys[1], right),))))


def rule_variables(rule):
    """The free variables of a rule, sorted by name."""
    return sorted(free_variables(rule.head) | free_variables(rule.body))


def instances(program, interp):
    """Every rule instance ``(rule, env)`` as a list: rules in order, then
    the assignments of the rule's free variables, sorted by name, in the
    order of the sorted universe.  A read restores every binding it
    makes, so the list serves every interpretation over the universe."""
    out = []
    for rule in program.rules:
        xs = rule_variables(rule)
        for combo in itertools.product(interp.universe_sorted, repeat=len(xs)):
            out.append((rule, dict(zip(xs, combo))))
    return out


def ground_program(program, registry, interp=None):
    """One ground implication per rule instance."""
    interp = interp or Interpretation(program.universe)
    return tuple(
        ground(impl(rule.body, rule.head), interp, registry, env)
        for rule, env in instances(program, interp)
    )


def _sides(g):
    """The operands of ``g`` when it has two one-entry pair-sets, the shape
    in which ``and``, ``or`` and ``impl`` are connectives; else None."""
    sets = g.sets
    if len(sets) == 2 and len(sets[0].entries) == 1 and len(sets[1].entries) == 1:
        return sets[0].entries[0][1], sets[1].entries[0][1]
    return None


def _ground_spine(g):
    """The bottom of a left spine of ground ``and`` connectives, and its
    nodes from the innermost out, each with its right operand."""
    nodes = []
    while type(g) is GApply and g.quantifier == "and":
        sides = _sides(g)
        if sides is None:
            break
        nodes.append((g, sides[1]))
        g = sides[0]
    return g, nodes[::-1]


def gsat(g, atoms, universe, registry):
    """Truth of the ground formula ``g`` in the atom set ``atoms``; the
    connectives stop at the first side that decides them, and ``exists``
    at its first true instance."""
    t = type(g)
    if t is GroundAtom:
        return (g.pred, g.args) in atoms
    if t is GTop or t is GBot:
        return t is GTop
    if t is not GApply:
        raise GqError(f"not a ground formula: {g!r}")
    name, sets = g.quantifier, g.sets
    sides = _sides(g) if name in ("and", "or", "impl") else None
    if sides and name == "and":
        bottom, nodes = _ground_spine(g)
        if not gsat(bottom, atoms, universe, registry):
            return False
        return all(gsat(right, atoms, universe, registry) for _, right in nodes)
    if sides:
        a = gsat(sides[0], atoms, universe, registry)
        if name == "or":
            return a or gsat(sides[1], atoms, universe, registry)
        return not a or gsat(sides[1], atoms, universe, registry)
    if name == "exists" and len(sets) == 1:
        return any(gsat(c, atoms, universe, registry) for _, c in sets[0].entries)
    qdef = registry.resolve(name)
    if len(sets) != len(qdef.arities):
        raise GroundingError(
            f"ground quantifier {name!r} has {len(sets)} pair-sets, "
            f"expected {len(qdef.arities)}"
        )
    rels = tuple(
        frozenset([k for k, c in ps.entries if gsat(c, atoms, universe, registry)])
        for ps in sets
    )
    return bool(qdef.truth(universe, rels))


def reduct(g, atoms, universe, registry):
    """The reduct of ``g`` relative to ``atoms``, and the number of maximal
    subformulas it replaced by ``bot``; ``top`` and ``bot`` stay.  Every
    node is read once, children before their parent, left to right."""
    return _reduct(g, frozenset(atoms), frozenset(universe), registry)[1:]


def _reduct(g, atoms, universe, registry):
    """``(truth, reduct, replaced)`` of ``g``.  A node that holds, and has
    nothing replaced below it, is its own reduct."""
    t = type(g)
    if t is GTop or t is GBot:
        return t is GTop, g, 0
    if t is GroundAtom:
        held = (g.pred, g.args) in atoms
        return (True, g, 0) if held else (False, GBot(), 1)
    if t is not GApply:
        raise GqError(f"not a ground formula: {g!r}")
    if g.quantifier == "and" and _sides(g):
        # a left spine in a loop: each node holds when both sides do
        bottom, nodes = _ground_spine(g)
        held, out, replaced = _reduct(bottom, atoms, universe, registry)
        for n, right in nodes:
            r_held, r_out, r_replaced = _reduct(right, atoms, universe, registry)
            if not (held and r_held):
                out, replaced = GBot(), 1
            elif replaced or r_replaced:
                keys = (n.sets[0].entries[0][0], n.sets[1].entries[0][0])
                out, replaced = _and(out, r_out, keys), replaced + r_replaced
            else:
                out = n
            held = held and r_held
        return held, out, replaced
    qdef = registry.resolve(g.quantifier)
    if len(g.sets) != len(qdef.arities):
        raise GroundingError(
            f"ground quantifier {g.quantifier!r} has {len(g.sets)} pair-sets, "
            f"expected {len(qdef.arities)}"
        )
    read = [
        [(k, _reduct(c, atoms, universe, registry)) for k, c in ps.entries]
        for ps in g.sets
    ]
    rels = tuple(frozenset([k for k, r in entries if r[0]]) for entries in read)
    if not qdef.truth(universe, rels):
        return False, GBot(), 1
    replaced = sum(r[2] for entries in read for _, r in entries)
    if not replaced:
        return True, g, 0
    sets = tuple(PairSet(tuple((k, r[1]) for k, r in entries)) for entries in read)
    return True, GApply(g.quantifier, sets), replaced


# ---------------------------------------------------------------------------
# FLP, instance by instance


def satisfies_program(interp, insts, registry):
    """Every instance of ``insts``, the program's ``instances``, has its
    body false or its head true, read in order."""
    for rule, env in insts:
        if plain(rule.body, interp, registry, env) and not plain(
            rule.head, interp, registry, env
        ):
            return False
    return True


def flp_reduct(insts, interp, registry):
    """The instances whose body ``interp`` satisfies, in order."""
    return tuple(
        (rule, dict(env)) for rule, env in insts if plain(rule.body, interp, registry, env)
    )


def flp_transform(insts, intensional, interp, j, registry):
    """``B and B(J) -> H(J)`` over every instance.  J may mention only
    ``intensional`` predicates, and only universe elements."""
    j = frozenset(j)
    for a in j:
        if not isinstance(a, GroundAtom):
            raise GqError(f"not a ground atom: {a!r}")
        if a.pred not in intensional:
            raise GqError(
                f"atom {a} is not intensional; the smaller valuation may "
                "only mention intensional predicates"
            )
    kept = frozenset(a for a in interp.atoms if a.pred not in intensional)
    subst = interp.with_atoms(kept | j)
    for rule, env in insts:
        if (
            plain(rule.body, interp, registry, env)
            and plain(rule.body, subst, registry, env)
            and not plain(rule.head, subst, registry, env)
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# The three definitions, and the scan


def scan(base, intensional, model_tests, log=None):
    """The models of several definitions among the subsets of ``base``,
    read candidate by candidate.

    Candidates I are tried smallest first, in ``combinations`` order.
    Each definition's ``model_test(I)`` is None when I is not a model,
    and otherwise a test ``witness(J)``; the definitions agree on which I
    are models.  For a model, each definition in turn tries the J, the
    proper subsets of I's intensional atoms, in atom order, smallest
    first, and the first that holds rules I out.  ``log`` gets each I
    and its one model answer, then each definition's J's, each followed
    by its answer.  Each definition's models are sorted by their sorted
    atoms."""
    log = [] if log is None else log
    found = [[] for _ in model_tests]
    for I in itertools.chain.from_iterable(
        map(frozenset, itertools.combinations(base, r)) for r in range(len(base) + 1)
    ):
        log.append(("I", I))
        witnesses = [model_test(I) for model_test in model_tests]
        log.append(witnesses[0] is not None)
        assert all((w is None) is (witnesses[0] is None) for w in witnesses), I
        if witnesses[0] is None:
            continue
        pool = sorted((a for a in I if a.pred in intensional), key=GroundAtom.sort_key)
        for witness, models in zip(witnesses, found):
            if not _ruled_out(witness, pool, log):
                models.append(I)
    return tuple(tuple(sorted(models, key=model_key)) for models in found)


def _ruled_out(witness, pool, log):
    """Whether some proper subset J of ``pool`` is a witness, trying them
    smallest first; ``log`` gets each J and its answer."""
    for k in range(len(pool)):
        for J in map(frozenset, itertools.combinations(pool, k)):
            log.append(("J", J))
            log.append(witness(J))
            if log[-1]:
                return True
    return False


def model_key(atoms):
    """Models are ordered by the sorted keys of their atoms."""
    return sorted(a.sort_key() for a in atoms)


def sm_operator(program, registry, rules):
    """The model test of SM by F*(J)."""
    f = sentence(program)
    frame = Interpretation(program.universe)

    def model_test(I):
        interp = frame.with_atoms(I)
        if not plain(f, interp, registry, {}):
            return None
        return lambda J: star(f, interp, J, program.intensional, registry, {})

    return model_test


def sm_reduct(program, registry, rules):
    """The model test of SM by the reduct: J is a witness when it
    satisfies the reduct of every ground rule relative to I."""
    universe = frozenset(program.universe)

    def model_test(I):
        if not all(gsat(g, I, universe, registry) for g in rules):
            return None
        reduced = [reduct(g, I, universe, registry)[0] for g in rules]
        return lambda J: all(gsat(r, J, universe, registry) for r in reduced)

    return model_test


def flp(program, registry, rules):
    """The model test of FLP."""
    frame = Interpretation(program.universe)
    insts = instances(program, frame)

    def model_test(I):
        interp = frame.with_atoms(I)
        if not satisfies_program(interp, insts, registry):
            return None
        return lambda J: flp_transform(insts, program.intensional, interp, J, registry)

    return model_test


DEFINITIONS = {"sm_operator": sm_operator, "sm_reduct": sm_reduct, "flp": flp}


def models(definitions, program, registry, base=None, log=None):
    """The models of each of ``definitions`` over ``base``, by default
    the full Herbrand base, read in one scan into one ``log``.  The
    program is grounded first, once."""
    rules = ground_program(program, registry)
    base = herbrand_base(program) if base is None else base
    tests = [DEFINITIONS[d](program, registry, rules) for d in definitions]
    return scan(base, program.intensional, tests, log)


# ---------------------------------------------------------------------------
# Suites: seeded random programs


# (seed, count, largest full base) of each seeded set of programs
ROUTE_SETS = ((4242, 200, 5), (7117, 120, 4), (9090, 400, 6), (5150, 300, 5), (2718, 400, 7))
# the sets whose programs the readers read pair by pair, every I and J
PAIR_SETS = ((4242, 200, 5), (7117, 120, 4))
# a sentence suite: (seed, count) of closed random sentences
CLOSED_SENTENCES = (31, 400)


def random_sources(seed, count):
    """``count`` seeded programs, in-class and wild in turn."""
    rng = random.Random(seed)
    for i in range(count):
        gen = randprog.random_wild_program if i % 2 else randprog.random_in_class_program
        yield f"random {seed} #{i}", gen(rng)


def example_sources():
    for path in PROGRAMS:
        yield path.name, path.read_text()


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
    # a sum is false wherever an element off the integers is in its
    # relation: p(a) p(2) does not sum to 2
    "sum over a symbol": (
        "#universe {a, 1, 2}.\n"
        "q :- sum{Y : p(Y)} >= 2.\n"
        "p(X) :- not q.\n"
        "p(1) :- sum{Y : p(Y)} <= 2, not p(2).\n"
    ),
    # a bound relation that is not one integer: no tuple, several, or a
    # symbol
    "bounds that are not one integer": (
        "#universe {a, 1, 2}.\n"
        "q :- sum_lt[Y][W](p(Y); W != 2).\n"
        "q :- count_ge[Y][W](p(Y); W = W).\n"
        "q :- count_le[Y][W](p(Y); 1 = 2).\n"
        "r :- sum{Y : p(Y)} < a.\n"
        "p(X) :- not q, not r.\n"
    ),
    # p(X) is named by every tuple, so it counts as two
    "count of an atom named by every tuple": (
        "#universe {1, 2}.\n"
        "p(1).\n"
        "q(X) :- count{W : p(X)} >= 2.\n"
        "p(2) :- not q(1), count{W : p(2)} != 1.\n"
    ),
    # a sum of extensional atoms keeps its value in the star reading
    "extensional sum over a symbol": (
        "#universe {a, 1, 2}.\n"
        "#intensional q.\n"
        "q(X) :- e(X), sum{Y : e(Y)} > 1, not sum{Y : q(Y)} > 2.\n"
    ),
    # arguments whose node is top or bot at some tuples, fixed at compile
    # time, and live at the others; a bot in a disjunction is dropped
    "constant and live rows": (
        "#universe {1, 2}.\n"
        "p(1) :- not q.\n"
        "p(2) :- majority{X : X = 1 -> p(X)}.\n"
        "q :- atleast(2){X : p(X) | X = 2}, not r.\n"
        "r :- exists{X : X != 1 & p(X)}.\n"
    ),
    "aggregates of constant and live rows": (
        "#universe {1, 2}.\n"
        "p(X) :- not q(X).\n"
        "q(X) :- not p(X).\n"
        "r :- sum{X : p(X) & X != 2} >= 1.\n"
        "s :- not sum{X : X = 1 -> q(X)} > 2, count{X : X = 1 | q(X)} >= 2.\n"
    ),
    # a bound argument whose entries are not all top or bot goes through
    # the truth function, not the aggregate kernel
    "aggregates of live bounds": (
        "#universe {1, 2}.\n"
        "p(X) :- not q(X).\n"
        "q(X) :- not p(X).\n"
        "r :- sum_lt[Y][W](p(Y); q(W)).\n"
        "s :- count_ge[Y][W](q(Y); W = 1 & p(W)).\n"
    ),
}


def choice_text(n):
    universe = ", ".join(str(v) for v in range(1, n + 1))
    return f"#universe {{{universe}}}.\np(X) :- not q(X).\nq(X) :- not p(X).\n"


def long_body(n):
    return "#universe {1}.\np :- " + ", ".join(["not q"] * n) + ".\n"


# ---------------------------------------------------------------------------
# Suites: API-built programs with extensional predicates


def _api_programs():
    """Programs with extensional predicates, some headed, some not."""
    u, X, Y = frozenset({1, 2}), "X", "Y"
    return (
        # e is extensional and heads no rule; q is intensional and heads none
        Program((Rule(atom("p", X), conj(atom("e", X), neg(atom("q", X)))),), u, {"p", "q"}),
        # the extensional e heads a rule; the intensional r heads none
        Program(
            (
                Rule(atom("e", 1), atom("p", 1)),
                Rule(disj(atom("p", X), atom("s", X)), neg(atom("r", X))),
            ),
            u, {"p", "r", "s"},
        ),
        # a headless intensional predicate under a generalized quantifier,
        # and an extensional one inside the head's quantifier
        Program(
            (
                Rule(Apply("exists", ((X,),), (conj(atom("p", X), atom("e", X)),)),
                     neg(Apply("atleast(1)", ((X,),), (atom("q", X),)))),
                Rule(atom("p", 2),
                     Apply("count_ge", ((X,), (Y,)), (atom("q", X), Equality(Variable(Y), 1)))),
            ),
            u, {"p", "q"},
        ),
        # nothing to drop: the one intensional predicate heads its rule
        Program((Rule(atom("p"), conj(atom("e"), neg(atom("f")))),), frozenset({1}), {"p"}),
    )


# ---------------------------------------------------------------------------
# Suites: bodies that raise


def _boom(universe, rels):
    if len(rels[0]) == 2:
        raise ValueError("boom on a full relation")
    return bool(rels[0])


def _raising_registry():
    """The default registry and ``boom``, which raises on a full relation
    over {1, 2}."""
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
# frob is registered nowhere, so resolving it fails
FROB = Apply("frob", (("Z",),), (atom("p", "Z"),))


def _raising_program(risky):
    """``q(X) :- p(X)`` first, so some J fail before the risky rule is
    reached; the risky body is read only when r(X) and p(2) hold in I;
    ``r(X) :- q(X), not p(X)`` after it is reached only when nothing
    raised.  p heads no rule, so only the full base reaches the risky
    body."""
    rules = (
        Rule(atom("q", "X"), atom("p", "X")),
        Rule(atom("r", "X"), conj(atom("r", "X"), atom("p", 2), risky)),
        Rule(atom("r", "X"), conj(atom("q", "X"), neg(atom("p", "X")))),
    )
    return Program(rules, frozenset({1, 2}))


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

# boom raises on a full relation, which only some candidates reach
CHOICE_BOOM = (
    "#universe {1, 2}.\n"
    "p(X) :- not q(X).\n"
    "q(X) :- not p(X).\n"
    "r :- boom{X : p(X)}.\n"
)

# boom reads a relation that holds 2 at every candidate, fixed at compile
# time, and 1 where p(1) is read true, so it raises exactly there
MIXED_BOOM = (
    "#universe {1, 2}.\n"
    "p(X) :- not q(X).\n"
    "q(X) :- not p(X).\n"
    "r :- boom{X : X = 1 -> p(X)}.\n"
)

# An unguarded body that fails at every candidate: a route that read a
# candidate before checking the cap would report this error, not the cap.
UNGUARDED = (
    "#universe {1, 2}.\n"
    "q :- count_ge[V][W](p(V); W = V).\n"
    "p(1) :- q.\n"
)


def unguarded_extensional():
    """UNGUARDED with an extensional ``e``, which the reduct route
    refuses before the cap."""
    return Program(
        (
            Rule(atom("q"), ESCAPING),
            Rule(atom("p", 1), conj(atom("q"), neg(atom("e", 1)))),
        ),
        frozenset({1, 2}),
        frozenset({"p", "q"}),
    )
