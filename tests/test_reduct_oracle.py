"""The ground-formula walkers of the reduct route against the ones they
replaced.

``ground._gsat`` and ``reduct.reduct`` read the built-in connectives and
binders by their shape, and ``reduct.reduct`` and ``ground._ground``
build their trees without re-checking them; all three walk a long
``and`` spine in a loop.  The oracles below are those walkers as they
were before: every quantifier, built-ins included, resolved through the
registry on every visit, and every node built by the public, validating
constructors.  On every input the package must give the
oracle's value, or raise the oracle's exception type with its text, and
every tree it builds must be equal, hash-equal, ``str``-equal and
``ground_to_json``-equal to the same tree rebuilt through the public
constructors.
"""

import itertools

import pytest

from gqsm import Registry, atom, impl
from gqsm.ground import (
    G_BOT,
    G_TOP,
    GApply,
    GBot,
    GroundAtom,
    GroundAtomNode,
    GroundingError,
    GTop,
    Interpretation,
    PairSet,
    _gsat,
    ground,
    ground_program,
    ground_to_json,
    herbrand_base,
)
from gqsm.parser import parse_program
from gqsm.reduct import reduct
from gqsm.syntax import Apply, Atom, Bot, Equality, GqError, Top

from test_compiled_oracle import (
    _MISSING,
    PAIRS,
    SENTENCES,
    _check_shape,
    _program_sources,
    _restore_all,
    _term_value,
    outcome,
    subsets,
)
from test_flp_oracle import BOOM, _raising_registry

# ---------------------------------------------------------------------------
# The oracles: the walkers as they were, names aside


def oracle_gsat(g, atoms, universe, registry) -> bool:
    t = type(g)
    if t is GroundAtomNode:
        return (g.pred, g.args) in atoms
    if t is GTop:
        return True
    if t is GBot:
        return False
    if t is GApply:
        qdef = registry.resolve(g.quantifier)
        name = g.quantifier
        sets = g.sets
        if len(sets) != len(qdef.arities):
            raise GroundingError(
                f"ground quantifier {name!r} has {len(sets)} pair-sets, "
                f"expected {len(qdef.arities)}"
            )
        if name in ("and", "or", "impl") and all(len(s) == 1 for s in sets):
            a = oracle_gsat(sets[0].entries[0][1], atoms, universe, registry)
            if name == "and":
                return a and oracle_gsat(sets[1].entries[0][1], atoms, universe, registry)
            if name == "or":
                return a or oracle_gsat(sets[1].entries[0][1], atoms, universe, registry)
            return not a or oracle_gsat(sets[1].entries[0][1], atoms, universe, registry)
        if name == "exists":
            return any(
                oracle_gsat(child, atoms, universe, registry)
                for _, child in sets[0].entries
            )
        rels = tuple(
            frozenset(
                key
                for key, child in ps.entries
                if oracle_gsat(child, atoms, universe, registry)
            )
            for ps in sets
        )
        return bool(qdef.truth(universe, rels))
    raise GqError(f"not a ground formula: {g!r}")


def oracle_reduct(g, atoms, universe, registry):
    """The reduct formula and its count of replacements."""
    u = frozenset(universe)
    atoms = frozenset(atoms)
    memo: dict = {}

    def sat(n) -> bool:
        key = id(n)
        got = memo.get(key)
        if got is not None:
            return got
        t = type(n)
        if t is GTop:
            v = True
        elif t is GBot:
            v = False
        elif t is GroundAtomNode:
            v = (n.pred, n.args) in atoms
        elif t is GApply:
            qdef = registry.resolve(n.quantifier)
            rels = tuple(
                frozenset(k for k, c in ps.entries if sat(c)) for ps in n.sets
            )
            v = bool(qdef.truth(u, rels))
        else:
            raise GqError(f"not a ground formula: {n!r}")
        memo[key] = v
        return v

    replaced = 0

    def rebuild(n):
        nonlocal replaced
        t = type(n)
        if t is GTop or t is GBot:
            return n
        if not sat(n):
            replaced += 1
            return G_BOT
        if t is GroundAtomNode:
            return n
        sets = tuple(
            PairSet(tuple((k, rebuild(c)) for k, c in ps.entries)) for ps in n.sets
        )
        return GApply(n.quantifier, sets)

    return rebuild(g), replaced


def oracle_ground(f, interp, registry, env):
    t = type(f)
    if t is Atom:
        vals = tuple(_term_value(a, interp, env) for a in f.args)
        return GroundAtomNode(f.pred, vals)
    if t is Equality:
        lv = _term_value(f.left, interp, env)
        rv = _term_value(f.right, interp, env)
        return G_TOP if lv == rv else G_BOT
    if t is Top:
        return G_TOP
    if t is Bot:
        return G_BOT
    if t is Apply:
        qdef = registry.resolve(f.quantifier)
        _check_shape(f, qdef)
        sets = []
        for xs, arg in zip(f.var_lists, f.args):
            n = len(xs)
            entries = []
            saved = [env.get(x, _MISSING) for x in xs]
            try:
                for combo in itertools.product(interp.universe_sorted, repeat=n):
                    for x, v in zip(xs, combo):
                        env[x] = v
                    entries.append((combo, oracle_ground(arg, interp, registry, env)))
            finally:
                _restore_all(env, xs, saved)
            sets.append(PairSet(tuple(entries)))
        return GApply(f.quantifier, tuple(sets))
    raise GqError(f"not a formula: {f!r}")


def oracle_ground_program(program, registry):
    interp = Interpretation(program.universe)
    out = []
    for rule in program.rules:
        fvs = rule.variables
        formula = impl(rule.body, rule.head)
        for combo in itertools.product(interp.universe_sorted, repeat=len(fvs)):
            out.append(oracle_ground(formula, interp, registry, dict(zip(fvs, combo))))
    return tuple(out)


# ---------------------------------------------------------------------------
# The comparison


def rebuilt(g):
    """``g`` built again through the public, validating constructors."""
    if type(g) is not GApply:
        return g
    return GApply(
        g.quantifier,
        tuple(PairSet(tuple((k, rebuilt(c)) for k, c in ps.entries)) for ps in g.sets),
    )


def check_tree(g, want):
    """``g`` is the oracle's tree ``want``, and a tree the public
    constructors would build."""
    for other in (want, rebuilt(g)):
        assert g == other
        assert hash(g) == hash(other)
        assert str(g) == str(other)
        assert ground_to_json(g) == ground_to_json(other)


def reduct_outcome(g, atoms, universe, registry):
    def read():
        r = reduct(g, atoms, universe, registry)
        return r.formula, r.replaced

    return outcome(read)


def check_formula(g, atoms_pool, universe, registry, witnesses=True):
    """``_gsat`` and the reduct of ``g`` against the oracles under every
    subset I of ``atoms_pool``; and, with ``witnesses``, ``_gsat`` of each
    reduct under every subset J of I, as the solver reads it.  Returns
    the outcome kinds seen."""
    kinds = set()
    for i_atoms in subsets(atoms_pool):
        want = outcome(lambda: oracle_gsat(g, i_atoms, universe, registry))
        assert outcome(lambda: _gsat(g, i_atoms, universe, registry)) == want, (
            str(g), sorted(map(str, i_atoms)),
        )
        kinds.add(want[0])
        want = outcome(lambda: oracle_reduct(g, i_atoms, universe, registry))
        got = reduct_outcome(g, i_atoms, universe, registry)
        assert got == want, (str(g), sorted(map(str, i_atoms)))
        kinds.add(want[0])
        if got[0] != "value":
            continue
        reduced = got[1][0]
        check_tree(reduced, want[1][0])
        if not witnesses:
            continue
        for j in subsets(i_atoms):
            want = outcome(lambda: oracle_gsat(reduced, j, universe, registry))
            assert outcome(lambda: _gsat(reduced, j, universe, registry)) == want
            kinds.add(want[0])
    return kinds


def check_program(program, registry):
    want = outcome(lambda: oracle_ground_program(program, registry))
    got = outcome(lambda: ground_program(program, registry))
    assert got == want
    if got[0] != "value":
        return {got[0]}
    for g, w in zip(got[1], want[1]):
        check_tree(g, w)
    base = herbrand_base(program)
    kinds = set()
    for g in got[1]:
        kinds |= check_formula(g, base, program.universe, registry)
    return kinds


# ---------------------------------------------------------------------------
# Parsed programs


def test_programs_match_the_oracles():
    # programs/*.gq and the seeded random programs of test_compiled_oracle
    reg = Registry()
    checked = 0
    for label, src in _program_sources():
        prog = parse_program(src, reg)
        if len(herbrand_base(prog)) > 4 and not label.endswith(".gq"):
            continue
        assert check_program(prog, reg), label
        checked += 1
    assert checked > 60, checked


def test_a_long_body_matches_the_oracles():
    # the recursive oracles and rebuilt() stay within the recursion limit
    src = "#universe {1}.\np :- " + ", ".join(["not q"] * 20 + ["p"] * 40) + ".\n"
    reg = Registry()
    prog = parse_program(src, reg)
    assert check_program(prog, reg) == {"value"}


# ---------------------------------------------------------------------------
# Misshapen and raising ground formulas, built through the API

P1, P2, Q1, Q2 = (GroundAtomNode(p, (v,)) for p in ("p", "q") for v in (1, 2))
POOL = [GroundAtom(p, (v,)) for p in ("p", "q") for v in (1, 2)]
UNIVERSE = frozenset({1, 2})


def one(child, key=()):
    return PairSet(((key, child),))


def app(name, *sets):
    return GApply(name, sets)


def conn(name, a, b):
    return app(name, one(a), one(b))


# frob is registered nowhere, so resolving it fails
FROB = app("frob", PairSet((((1,), P1), ((2,), P2))))
# boom raises when p(1) and p(2) both hold
G_BOOM = ground(BOOM, Interpretation(UNIVERSE), _raising_registry())

FORMULAS = {
    "and-one-set": app("and", one(P1)),
    "and-three-sets": app("and", one(P1), one(Q1), one(FROB)),
    "and-three-sets-boom": app("and", one(P1), one(Q1), one(G_BOOM)),
    "or-two-entries": app("or", PairSet((((1,), P1), ((2,), FROB))), one(P2)),
    "impl-two-entries": app("impl", one(Q1), PairSet((((1,), P1), ((2,), FROB)))),
    "exists-two-sets": app("exists", PairSet((((1,), P1), ((2,), Q1))), one(FROB)),
    "exists-two-sets-boom": app("exists", PairSet((((1,), P1),)), one(G_BOOM)),
    "forall-two-sets": app("forall", PairSet((((1,), P1), ((2,), P2))), one(Q1)),
    "forall-keyed": app("forall", PairSet((((1,), P1), ((2,), G_BOOM)))),
    "exists-empty-or-boom": conn("or", app("exists", PairSet(())), G_BOOM),
    "keyed-and": app("and", one(P1, (1,)), one(conn("or", Q1, G_BOOM), (2,))),
    **{
        f"{name}-{side}-{risky}": conn(name, *((r, Q1) if side == "left" else (Q1, r)))
        for name in ("and", "or", "impl")
        for side in ("left", "right")
        for risky, r in (("frob", FROB), ("boom", G_BOOM))
    },
    "and-spine-boom": conn("and", conn("and", conn("and", P1, Q1), G_BOOM), P2),
    "and-spine-misshapen": conn(
        "and", conn("and", app("and", one(P1), one(Q2), one(FROB)), Q1), P2
    ),
}


@pytest.mark.parametrize("g", list(FORMULAS.values()), ids=list(FORMULAS))
def test_misshapen_and_raising_formulas_match_the_oracles(g):
    kinds = check_formula(g, POOL, UNIVERSE, _raising_registry())
    assert kinds - {"value"}, kinds


def test_a_shared_node_is_read_once_per_reduct():
    shared = conn("or", Q1, G_BOOM)
    g = conn("and", conn("impl", shared, P1), shared)
    assert check_formula(g, POOL, UNIVERSE, _raising_registry()) >= {"value", "ValueError"}


# ---------------------------------------------------------------------------
# Grounding formulas that raise, or are misshapen, built through the API

MISSHAPEN = [
    Apply("exists", (("X", "Y"),), (atom("p", "X"),)),
    Apply("forall", (("X",), ("Y",)), (atom("p", "X"), atom("q", "Y"))),
    Apply("or", (("X",), ()), (atom("p", "X"), atom("q", 1))),
    Apply("impl", ((), (), ()), (atom("p", 1), atom("q", 1), atom("q", 2))),
    Apply(
        "and",
        ((), ()),
        (Apply("and", ((), ("Z",)), (atom("p", 1), atom("q", "Z"))), atom("p", 2)),
    ),
    Apply("top", (), ()),
]


@pytest.mark.parametrize(
    "f", SENTENCES + MISSHAPEN, ids=[str(f) for f in SENTENCES + MISSHAPEN]
)
def test_grounding_matches_the_oracle(f):
    reg = _raising_registry()
    reg.register(PAIRS)
    frame = Interpretation(UNIVERSE)
    for env in ({}, {"X": 1}, {"X": 2, "V": 1}):
        want = outcome(lambda: oracle_ground(f, frame, reg, dict(env)))
        got = outcome(lambda: ground(f, frame, reg, dict(env)))
        assert got == want, env
        if got[0] == "value":
            check_tree(got[1], want[1])
            check_formula(got[1], POOL, UNIVERSE, reg, witnesses=False)
