"""Interpretations, grounding, and the three satisfaction relations.

Grounding replaces every quantified argument by a pair-set that maps
each tuple of universe elements to the ground instance of the argument
formula, so a ground quantifier application carries one total, finite
table per argument position.  On top of that live:

* ``satisfies``        truth of a ground formula in a set of atoms,
* ``satisfies_direct`` truth of a sentence in an interpretation,
* ``eval_star``        truth of the stability transformation F*(u),
  where u is a second, smaller valuation of the intensional predicates,
  read by its definition: every application is its plain reading and
  the application over its starred arguments,
* ``eval_flp_transform``  truth of the rule-wise transformation
  B and B(u) implies H(u) used by the FLP semantics.  B is read in the
  interpretation alone, so for a fixed interpretation the test only
  needs the rule instances whose body it satisfies, the FLP reduct,
  and each u is read against those.

``satisfies`` after ``ground`` and ``satisfies_direct`` always agree;
the test suite exercises that equivalence heavily.

``satisfies`` and the reduct (``reduct.reduct``) walk ground formulas
node by node; the solver's reduct route calls them once per projection
of a candidate onto a rule's atoms (``_read_set``).  They read the
built-in connectives and binders, ``and``, ``or``, ``impl``, ``forall``
and ``exists``, by their shape, which the registry cannot shadow; only
a generalized quantifier, or a misshapen built-in, is looked up in the
registry.  Grounding runs once per solve and checks every application
against the registry.  All three walk a left-deep ``and`` spine in a
loop.  Grounding and the reduct build their pair-sets sorted and with
unique keys, so they skip the checks of the public constructors.

The last three, and ``satisfies_program``, read a compiled form: a
sentence compiled by ``_compile_sentence``, or a program's rule
instances compiled by ``_compile_program``.  Given a formula or a
``Program`` they compile it per call; the solver compiles once per solve
and reads every candidate and every u off the same compiled nodes.  A
compiled node keeps its last plain answer, so the plain readings of a
candidate are computed once however many u are tested against it.

A ``GroundAtom`` is the pair ``(pred, args)``, so every atom set, an
interpretation's included, is its own index: a lookup asks whether
``(pred, args)`` is in it.  ``Interpretation.with_atoms`` derives an
interpretation over the same universe and constants, and checks only
the new atoms.
"""
from __future__ import annotations

import gc
import itertools
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .syntax import (
    Apply,
    Atom,
    Bot,
    Constant,
    Element,
    Equality,
    Formula,
    GqError,
    Program,
    Rule,
    Top,
    Variable,
    check_element,
    element_key,
    flatten_spine,
    impl,
    iter_subformulas,
)
from .quantifiers import Registry, _row_key

_MISSING = object()


class GroundingError(GqError):
    pass


# ---------------------------------------------------------------------------
# Ground atoms and interpretations


class GroundAtom(namedtuple("GroundAtom", "pred args")):
    """A predicate applied to universe elements, e.g. ``p(-1)``.

    An atom is the pair ``(pred, args)`` itself: it equals that plain
    tuple and hashes like it, so a set of atoms is its own lookup index.
    """

    __slots__ = ()

    def __new__(cls, pred: str, args: Iterable[Element] = ()):
        return super().__new__(cls, pred, tuple(args))

    def sort_key(self):
        return (self.pred, tuple(element_key(v) for v in self.args))

    def __str__(self):
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(v) for v in self.args)})"


AtomSet = frozenset


def atom_set_key(atoms: Iterable[GroundAtom]):
    """Sort key for a whole model: the sorted tuple of atom keys."""
    return tuple(sorted(a.sort_key() for a in atoms))


def atom_strings(atoms: Iterable[GroundAtom]) -> list:
    """The atoms as strings, sorted: how a model is written in JSON."""
    return [str(a) for a in sorted(atoms, key=GroundAtom.sort_key)]


def format_atoms(atoms: Iterable[GroundAtom]) -> str:
    return " ".join(atom_strings(atoms))


def _checked_atoms(atoms: Iterable[GroundAtom], universe: frozenset) -> AtomSet:
    """``atoms`` as a set, once each is known to be a ground atom over
    ``universe``."""
    atoms = frozenset(atoms)
    for a in atoms:
        if not isinstance(a, GroundAtom):
            raise GqError(f"not a ground atom: {a!r}")
        for v in a.args:
            if v not in universe:
                raise GqError(f"atom {a} mentions {v!r}, not a universe element")
    return atoms


@dataclass(frozen=True)
class Interpretation:
    """A universe, a set of true ground atoms, and a constant valuation.

    ``constants`` maps object constants to universe elements; ``None``
    is the usual identity valuation, under which every constant names
    itself and must belong to the universe.  The atom set is also the
    lookup index: ``(pred, args) in interp.atoms`` asks whether an atom
    is true.
    """

    universe: frozenset
    atoms: AtomSet = frozenset()
    constants: Optional[Mapping[Element, Element]] = None
    universe_sorted: tuple = field(
        default=None, compare=False, repr=False, hash=False
    )

    def __post_init__(self):
        universe = frozenset(check_element(e) for e in self.universe)
        if not universe:
            raise GqError("the universe must not be empty")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(
            self, "universe_sorted", tuple(sorted(universe, key=element_key))
        )
        object.__setattr__(self, "atoms", _checked_atoms(self.atoms, universe))
        if self.constants is not None:
            for c, v in self.constants.items():
                check_element(c)
                if v not in universe:
                    raise GqError(
                        f"constant {c!r} maps to {v!r}, not a universe element"
                    )

    def value(self, constant: Element) -> Element:
        if self.constants is not None:
            try:
                return self.constants[constant]
            except KeyError:
                raise GroundingError(f"constant {constant!r} has no value") from None
        if constant not in self.universe:
            raise GroundingError(
                f"constant {constant!r} is not a universe element"
            )
        return constant

    def with_atoms(self, atoms: Iterable[GroundAtom]) -> "Interpretation":
        """This interpretation with another atom set.  The universe, its
        sorted order and the constants were checked already; only the
        atoms are checked here."""
        new = object.__new__(Interpretation)
        new.__dict__.update(
            self.__dict__, atoms=_checked_atoms(atoms, self.universe)
        )
        return new

    def intensional_slice(self, intensional: Iterable[str]) -> AtomSet:
        preds = frozenset(intensional)
        return frozenset(a for a in self.atoms if a.pred in preds)


def herbrand_base(program: Program) -> tuple[GroundAtom, ...]:
    """All ground atoms over the program's signature, sorted."""
    u_sorted = program.universe_sorted()
    out = []
    for pred in sorted(program.signature):
        arity = program.signature[pred]
        for combo in itertools.product(u_sorted, repeat=arity):
            out.append(GroundAtom(pred, combo))
    return tuple(sorted(out, key=GroundAtom.sort_key))


# ---------------------------------------------------------------------------
# Ground formulas


class GroundFormula:
    """Base class of the ground formula algebra."""

    def __str__(self):
        from .render import render

        return render(self)


@dataclass(frozen=True)
class GTop(GroundFormula):
    def __str__(self):
        return "top"


@dataclass(frozen=True)
class GBot(GroundFormula):
    def __str__(self):
        return "bot"


G_TOP = GTop()
G_BOT = GBot()


@dataclass(frozen=True)
class GroundAtomNode(GroundFormula):
    """A ground atom used as a leaf of a ground formula."""

    pred: str
    args: tuple[Element, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))

    def to_atom(self) -> GroundAtom:
        return GroundAtom(self.pred, self.args)

    def __str__(self):
        return str(self.to_atom())


@dataclass(frozen=True)
class PairSet:
    """A total table from element tuples to ground formulas.

    Entries are kept sorted by key and keys are unique, so two pair-sets
    built from the same mapping compare equal.
    """

    entries: tuple

    def __post_init__(self):
        rows = []
        seen = set()
        for key, child in self.entries:
            key = tuple(key)
            if key in seen:
                raise GqError(f"duplicate pair-set key {key!r}")
            seen.add(key)
            if not isinstance(child, GroundFormula):
                raise GqError(f"pair-set value is not a ground formula: {child!r}")
            rows.append((key, child))
        rows.sort(key=lambda kv: _row_key(kv[0]))
        object.__setattr__(self, "entries", tuple(rows))

    @classmethod
    def _sorted(cls, entries: tuple) -> "PairSet":
        """A pair-set of ``entries`` that are already sorted by key, with
        unique tuple keys and ground-formula values, so nothing is checked.
        Only ``_ground`` and ``reduct`` build one, where that holds by
        construction."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "entries", entries)
        return ps

    def __len__(self):
        return len(self.entries)

    def keys(self):
        return tuple(k for k, _ in self.entries)


@dataclass(frozen=True)
class GApply(GroundFormula):
    """Ground quantifier application: one pair-set per argument position."""

    quantifier: str
    sets: tuple

    def __post_init__(self):
        sets = tuple(self.sets)
        for s in sets:
            if not isinstance(s, PairSet):
                raise GqError(f"not a pair-set: {s!r}")
        object.__setattr__(self, "sets", sets)

    @classmethod
    def _of(cls, quantifier: str, sets: tuple) -> "GApply":
        """An application of ``sets``, a tuple of pair-sets, unchecked.
        Only ``_ground`` and ``reduct`` build one, from pair-sets they
        built."""
        g = object.__new__(cls)
        object.__setattr__(g, "quantifier", quantifier)
        object.__setattr__(g, "sets", sets)
        return g

    __str__ = GroundFormula.__str__


def _binary(name: str, left: tuple, right: tuple) -> GApply:
    """``name`` applied to two one-entry pair-sets, of the entries
    ``left`` and ``right``, unchecked."""
    return GApply._of(name, (PairSet._sorted((left,)), PairSet._sorted((right,))))


def _sides(g: GApply):
    """The two values of ``g``'s pair-sets when it has two of one entry
    each, the shape in which ``and``, ``or`` and ``impl`` are connectives;
    None otherwise.  Unlike ``render``'s check, the keys are not read."""
    sets = g.sets
    if len(sets) == 2:
        left, right = sets[0].entries, sets[1].entries
        if len(left) == 1 and len(right) == 1:
            return left[0][1], right[0][1]
    return None


def _and_spine(g: GroundFormula):
    """The left spine of ``and`` connectives from ``g``, by the rule of
    ``syntax.flatten_spine``: the operand at its bottom, and the spine's
    nodes from the innermost out, each with its right operand.  A ``g``
    that is not such a node is its own bottom.  The walk is a loop, so a
    spine of any length is fine."""
    nodes = []
    while type(g) is GApply and g.quantifier == "and":
        sides = _sides(g)
        if sides is None:
            break
        nodes.append((g, sides[1]))
        g = sides[0]
    nodes.reverse()
    return g, nodes


def iter_ground_subformulas(g: GroundFormula):
    """Every node of ``g`` in pre-order: a node, then its children left
    to right, pair-set by pair-set.  The walk keeps its own stack, so a
    formula of any depth is fine."""
    stack = [g]
    while stack:
        g = stack.pop()
        yield g
        if isinstance(g, GApply):
            stack += [c for ps in reversed(g.sets) for _, c in reversed(ps.entries)]


def _read_set(g: GroundFormula) -> frozenset:
    """The atoms ``g`` mentions, those inside quantifier arguments
    included, as ``(pred, args)`` pairs.  ``_gsat`` and ``reduct.reduct``
    read an atom set only by asking whether one of these is in it, so on
    ``g`` a set and its intersection with the read set give the same
    answers."""
    return frozenset(
        [
            (n.pred, n.args)
            for n in iter_ground_subformulas(g)
            if isinstance(n, GroundAtomNode)
        ]
    )


# ---------------------------------------------------------------------------
# Compiled evaluation of formulas in an interpretation
#
# A formula is compiled once for an interpretation's universe and constant
# valuation, a registry and a set of intensional predicates.  Binders are
# unrolled over the sorted universe, so every variable and constant is
# read, every spine flattened, every quantifier resolved and its shape
# checked at compile time.  What remains is one node per ground
# occurrence, a pair of closures (the arguments of a quantifier
# application are read apart, below):
#
# * ``plain(atoms)``   the truth of the node when ``atoms`` are the true
#   atoms;
# * ``star(atoms, j)`` the truth of its stability transformation F*(j), by
#   the definition (Ferraris, Lee and Lifschitz, AIJ 2011): an intensional
#   atom is read from ``j``, any other atom from ``atoms``, and every
#   application, connectives included, is its plain reading conjoined
#   with the application over its children's star readings, in that
#   order.
#
# A node with children keeps its last plain answer per atom set (a
# negation through its child's), so the plain readings of a candidate are
# computed once, and each j after that reads only star readings.
#
# A quantifier application reads each argument position as a relation,
# the tuples of universe elements at which the argument holds, and the
# compiler picks the reader of each position from the argument's shape:
#
# * an atom, ``p(Y)`` in ``sum{Y : p(Y)}``, is the set of atoms it names,
#   each with the tuples that name it; a relation is the tuples of the
#   named atoms in ``atoms`` (in the star reading, in ``j`` when the
#   predicate is intensional), so no node is built per tuple;
# * an equality, the bound ``Y0 = 2`` of every aggregate, holds at the
#   same tuples in every reading, so its relation is fixed at compile
#   time;
# * any other argument is its node per tuple, read in tuple order.
#
# The truth function gets the same relations either way, as many times
# and in the same order.
#
# A read that fails at compile time (an unbound variable, a constant with
# no value, an unknown quantifier, a misshapen application, a non-formula)
# raises there, in the order in which grounding meets the same nodes, so
# every route reports a program's first such failure, with grounding's
# message, before any candidate is read.  Only a truth function can fail
# after that.  A compiled form is built per solve (or per call of the
# public readers) and never cached past it, so a registry change is seen
# by the next one.


def _term_value(t, interp: Interpretation, env: dict) -> Element:
    if isinstance(t, Variable):
        try:
            return env[t.name]
        except KeyError:
            raise GroundingError(f"unbound free variable {t.name}") from None
    return interp.value(t.value)


def _check_shape(f: Apply, qdef) -> None:
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


_BINDERS = ("forall", "exists")


def _one_binder(f: Apply) -> bool:
    """The fixed shape of ``forall``/``exists``: one variable, one argument."""
    return len(f.var_lists) == 1 and len(f.var_lists[0]) == 1


def _restore(env: dict, x: str, old) -> None:
    if old is _MISSING:
        del env[x]
    else:
        env[x] = old


def _restore_all(env: dict, xs, saved) -> None:
    for x, old in zip(xs, saved):
        _restore(env, x, old)


def _kept(read):
    """The plain reading ``read``, keeping its last answer.  Atom sets are
    immutable, so the answer holds while the same set is asked again; a
    read that raises keeps nothing."""
    last = (None, None)

    def plain(atoms):
        nonlocal last
        if last[0] is atoms:
            return last[1]
        value = read(atoms)
        last = (atoms, value)
        return value

    return plain


_TOP_NODE = (lambda atoms: True, lambda atoms, j: True)
_BOT_NODE = (lambda atoms: False, lambda atoms, j: False)


def _atom_node(key: tuple, intensional: bool, negated: bool) -> tuple:
    """The node of an atom, or of its negation ``atom -> bot``, whose star
    reading is its plain reading and the atom's star reading false."""
    if negated:

        def plain(atoms):
            return key not in atoms

        def star(atoms, j):
            return key not in atoms and not (intensional and key in j)

    else:

        def plain(atoms):
            return key in atoms

        def star(atoms, j):
            return key in (j if intensional else atoms)

    return plain, star


def _all_node(kids: list) -> tuple:
    """A conjunction spine, or ``forall`` over its instances, read left
    to right; the plain reading stops at the first false child.  The
    plain reading of the whole implies each child's, so a spine can be
    flattened, and a ``top`` child dropped."""
    kids = [k for k in kids if k is not _TOP_NODE]
    if not kids:
        return _TOP_NODE
    plains = tuple(p for p, _ in kids)
    stars = tuple(s for _, s in kids)

    @_kept
    def plain(atoms):
        for p in plains:
            if not p(atoms):
                return False
        return True

    def star(atoms, j):
        if not plain(atoms):
            return False
        for s in stars:
            if not s(atoms, j):
                return False
        return True

    return plain, star


def _any_node(kids: list) -> tuple:
    """A disjunction, or ``exists`` over its instances, read left to
    right; each reading stops at the first true child.  A nested
    disjunction is not flattened: a child's star reading may hold where
    its plain reading does not, and the inner node masks it."""
    plains = tuple(p for p, _ in kids)
    stars = tuple(s for _, s in kids)

    @_kept
    def plain(atoms):
        for p in plains:
            if p(atoms):
                return True
        return False

    def star(atoms, j):
        if not plain(atoms):
            return False
        for s in stars:
            if s(atoms, j):
                return True
        return False

    return plain, star


def _not_node(a: tuple) -> tuple:
    """``a -> bot``: ``a`` false, in the plain and in the star reading."""
    plain_a, star_a = a

    def plain(atoms):
        return not plain_a(atoms)

    def star(atoms, j):
        return not plain_a(atoms) and not star_a(atoms, j)

    return plain, star


def _impl_node(a: tuple, b: tuple) -> tuple:
    if a is _BOT_NODE:
        return _TOP_NODE
    if b is _BOT_NODE:
        return _BOT_NODE if a is _TOP_NODE else _not_node(a)
    plain_a, star_a = a
    plain_b, star_b = b

    @_kept
    def plain(atoms):
        return not plain_a(atoms) or plain_b(atoms)

    def star(atoms, j):
        return plain(atoms) and (not star_a(atoms, j) or star_b(atoms, j))

    return plain, star


def _atom_reader(named: dict, intensional: bool) -> tuple:
    """The relation of an atom argument; ``named`` maps each atom it
    names to the list of tuples that name it, several when the argument
    skips a bound variable, as ``majority{W : p(X)}`` does."""
    keys = frozenset(named)
    tuples = named.__getitem__
    chain = itertools.chain.from_iterable

    def plain(atoms):
        return frozenset(chain(map(tuples, keys & atoms)))

    def star(atoms, j):
        return frozenset(chain(map(tuples, keys & (j if intensional else atoms))))

    return plain, star


def _fixed_reader(rel: frozenset) -> tuple:
    """The relation of an argument whose truth no atom set changes."""
    return (lambda atoms: rel), (lambda atoms, j: rel)


def _rows_reader(rows: list) -> tuple:
    """The relation of any other argument: its node at each tuple, read
    in the order of the tuples."""
    combos, nodes = zip(*rows)
    plains = tuple(p for p, _ in nodes)
    stars = tuple(s for _, s in nodes)

    def plain(atoms):
        return frozenset([c for c, p in zip(combos, plains) if p(atoms)])

    def star(atoms, j):
        return frozenset([c for c, s in zip(combos, stars) if s(atoms, j)])

    return plain, star


def _apply_node(truth, universe: frozenset, readers: list) -> tuple:
    """A quantifier application; ``readers`` holds, per argument
    position, the plain and star readings of its relation, read in
    position order.  One node may serve several occurrences (see
    ``_Compiler``): a truth function gives the same answer for the same
    relations, so they share its kept plain answer.
    """
    plains = tuple(p for p, _ in readers)
    stars = tuple(s for _, s in readers)

    @_kept
    def plain(atoms):
        return bool(truth(universe, tuple([p(atoms) for p in plains])))

    def star(atoms, j):
        if not plain(atoms):
            return False
        return bool(truth(universe, tuple([s(atoms, j) for s in stars])))

    return plain, star


class _Compiler:
    """Compiles formulas for interpretations over ``interp``'s universe
    and constants: ``node(f, env)`` is the node of ``f`` under the
    bindings ``env``.  Each quantifier name is resolved at most once per
    compiler, and the occurrences of a quantifier application under
    bindings that agree on what it reads share one node:
    ``sum{Y : p(Y)} < 2`` in a rule over X is read in an interpretation
    once, not once per instance.  A compiler is not kept past its
    compile."""

    def __init__(self, interp: Interpretation, registry: Registry, intensional):
        self.interp = interp
        self.registry = registry
        self.intensional = frozenset(intensional)
        self.resolved = {}  # name -> its definition
        self.reads = {}  # id of an application -> _read_names of it
        self.shared = {}  # (id, the values of what it reads) -> its node

    def resolve(self, name: str):
        if name not in self.resolved:
            self.resolved[name] = self.registry.resolve(name)
        return self.resolved[name]

    def atom(self, f: Atom, env: dict, negated: bool = False) -> tuple:
        vals = tuple(_term_value(a, self.interp, env) for a in f.args)
        return _atom_node((f.pred, vals), f.pred in self.intensional, negated)

    def conjuncts(self, f: Formula, env: dict, out: list) -> list:
        """Append the nodes of the conjuncts of ``f`` to ``out``: its
        ``and`` spine, with each ``forall`` unrolled into the instances
        of its argument.  The plain reading of the whole implies each
        inner conjunction's, so their plain conjuncts, and the nesting,
        may go."""
        for g in flatten_spine(f, "and"):
            if type(g) is Apply and g.quantifier == "forall" and _one_binder(g):
                x = g.var_lists[0][0]
                for v in self.interp.universe_sorted:
                    self.conjuncts(g.args[0], {**env, x: v}, out)
            else:
                out.append(self.node(g, env))
        return out

    def node(self, f: Formula, env: dict) -> tuple:
        t = type(f)
        if t is Atom:
            return self.atom(f, env)
        if t is Equality:
            left = _term_value(f.left, self.interp, env)
            same = left == _term_value(f.right, self.interp, env)
            return _TOP_NODE if same else _BOT_NODE
        if t is Top:
            return _TOP_NODE
        if t is Bot:
            return _BOT_NODE
        if t is not Apply:
            raise GqError(f"not a formula: {f!r}")
        # The five built-in connectives are dispatched by name, their shape
        # checked structurally; the registry cannot shadow them.  A
        # misshapen one falls through to _check_shape, which reports it.
        name = f.quantifier
        if f.var_lists == ((), ()):
            if name == "and":
                return _all_node(self.conjuncts(f, env, []))
            if name == "or":
                a, b = f.args
                return _any_node([self.node(a, env), self.node(b, env)])
            if name == "impl":
                a, b = f.args
                if type(a) is Atom and type(b) is Bot:
                    return self.atom(a, env, negated=True)
                return _impl_node(self.node(a, env), self.node(b, env))
        elif name == "forall" and _one_binder(f):
            return _all_node(self.conjuncts(f, env, []))
        elif name == "exists" and _one_binder(f):
            x = f.var_lists[0][0]
            u_sorted = self.interp.universe_sorted
            return _any_node([self.node(f.args[0], {**env, x: v}) for v in u_sorted])
        qdef = self.resolve(name)
        _check_shape(f, qdef)
        if id(f) not in self.reads:
            self.reads[id(f)] = _read_names(f)
        key = (id(f),) + tuple(env.get(x, _MISSING) for x in self.reads[id(f)])
        if key not in self.shared:
            readers = [self.argument(xs, arg, env) for xs, arg in zip(f.var_lists, f.args)]
            self.shared[key] = _apply_node(qdef.truth, self.interp.universe, readers)
        return self.shared[key]

    def argument(self, xs: tuple, arg: Formula, env: dict) -> tuple:
        """The reader of the argument ``arg`` of an application that binds
        ``xs`` under ``env``, picked by its shape (see above)."""
        envs = []
        for combo in itertools.product(self.interp.universe_sorted, repeat=len(xs)):
            inner = dict(env)
            inner.update(zip(xs, combo))
            envs.append((combo, inner))
        t = type(arg)
        interp = self.interp
        if t is Atom:
            named = {}
            for combo, inner in envs:
                vals = tuple([_term_value(a, interp, inner) for a in arg.args])
                named.setdefault((arg.pred, vals), []).append(combo)
            return _atom_reader(named, arg.pred in self.intensional)
        if t is Equality:
            return _fixed_reader(
                frozenset(
                    [
                        combo
                        for combo, inner in envs
                        if _term_value(arg.left, interp, inner)
                        == _term_value(arg.right, interp, inner)
                    ]
                )
            )
        return _rows_reader([(combo, self.node(arg, inner)) for combo, inner in envs])


def _read_names(f: Formula) -> tuple:
    """The variables that terms in ``f`` read, bound in ``f`` or not: the
    bindings that a compiled node of ``f`` can depend on."""
    out = set()
    for g in iter_subformulas(f):
        t = type(g)
        terms = g.args if t is Atom else (g.left, g.right) if t is Equality else ()
        out.update(x.name for x in terms if type(x) is Variable)
    return tuple(sorted(out))


def _without_gc(build):
    """``build()`` with the cyclic garbage collector paused.  A compile
    allocates a few long-lived objects per ground node, and each full
    collection they would trigger rescans the whole heap."""
    if not gc.isenabled():
        return build()
    gc.disable()
    try:
        return build()
    finally:
        gc.enable()


class _Sentence:
    """A formula compiled by ``_compile_sentence``: the two readings of
    its root node."""

    __slots__ = ("plain", "star")

    def __init__(self, root: tuple):
        self.plain, self.star = root


class _Rules:
    """A program compiled by ``_compile_program``: its intensional
    predicates, and the plain readings ``(body, head)`` of its rule
    instances in the order of ``_instances``.  ``frozen`` keeps the last
    atom set ``eval_flp_transform`` read and its non-intensional part."""

    __slots__ = ("intensional", "instances", "frozen")

    def __init__(self, intensional, instances: tuple):
        self.intensional = intensional
        self.instances = instances
        self.frozen = (None, frozenset())


def _compile_sentence(
    f: Formula,
    interp: Interpretation,
    registry: Registry,
    intensional=(),
    env: Optional[Mapping] = None,
) -> _Sentence:
    """``f`` compiled for interpretations over ``interp``'s universe and
    constants, with ``intensional`` read from the smaller valuation in
    the star reading and ``env`` binding its free variables."""
    node = _Compiler(interp, registry, intensional).node
    return _without_gc(lambda: _Sentence(node(f, dict(env or {}))))


def _compile_program(
    program: Program, interp: Interpretation, registry: Registry
) -> _Rules:
    """Every rule instance of ``program``, compiled for interpretations
    over ``interp``'s universe and constants."""
    node = _Compiler(interp, registry, ()).node
    instances = _without_gc(
        lambda: tuple(
            (node(rule.body, env)[0], node(rule.head, env)[0])
            for rule, env in _instances(program, interp)
        )
    )
    return _Rules(program.intensional, instances)


def _eval(f, interp: Interpretation, registry: Registry, env: dict) -> bool:
    """Truth of ``f`` in ``interp`` under the bindings ``env``.  ``f`` is a
    formula, compiled here, or a ``_Sentence`` compiled for ``interp``'s
    universe and constants, whose bindings were fixed then."""
    if type(f) is not _Sentence:
        f = _compile_sentence(f, interp, registry, (), env)
    return f.plain(interp.atoms)


def satisfies_direct(
    interp: Interpretation, sentence: Formula, registry: Registry
) -> bool:
    """Truth of a sentence in an interpretation, without grounding.  The
    sentence is compiled per call."""
    return _eval(sentence, interp, registry, {})


def _instances(program: Program, interp: Interpretation):
    """Every rule instance ``(rule, env)``: rules in program order, then
    the assignments of each rule's free variables in sorted order (the
    order of ``ground_rule``), each with its own env dict."""
    u_sorted = interp.universe_sorted
    for rule in program.rules:
        fvs = rule.variables
        for combo in itertools.product(u_sorted, repeat=len(fvs)):
            yield rule, dict(zip(fvs, combo))


def satisfies_program(
    interp: Interpretation,
    program,
    registry: Registry,
    *,
    fired: Optional[list] = None,
) -> bool:
    """Does the interpretation satisfy every rule's universal closure?

    ``program`` is a ``Program``, compiled per call, or a ``_Rules``.
    Each instance's body is read once, and its head only where the body
    holds; the first violated instance ends the pass.  When ``fired`` is
    a list, the instances whose body holds are appended to it: compiled
    ones for a ``_Rules``, and ``(rule, env)`` pairs for a ``Program``, as
    ``flp_reduct`` returns them.  After a true answer it is the FLP
    reduct that ``eval_flp_transform`` takes with the same program.
    """
    if type(program) is not _Rules:
        compiled = _compile_program(program, interp, registry)
        held = None if fired is None else []
        answer = satisfies_program(interp, compiled, registry, fired=held)
        if held:
            named = dict(zip(map(id, compiled.instances), _instances(program, interp)))
            fired.extend(named[id(instance)] for instance in held)
        return answer
    atoms = interp.atoms
    for instance in program.instances:
        body, head = instance
        if body(atoms):
            if not head(atoms):
                return False
            if fired is not None:
                fired.append(instance)
    return True


def flp_reduct(program: Program, interp: Interpretation, registry: Registry) -> tuple:
    """The FLP reduct of the program relative to ``interp``: the rule
    instances ``(rule, env)`` whose body ``interp`` satisfies, in rule
    order and then in sorted assignment order, each with its own env.

    ``eval_flp_transform`` reads only these instances, so a caller that
    tests many smaller valuations against one interpretation computes
    the reduct once and passes it as ``fired``.
    """
    rules = _compile_program(program, interp, registry)
    atoms = interp.atoms
    return tuple(
        instance
        for instance, (body, _) in zip(_instances(program, interp), rules.instances)
        if body(atoms)
    )


# ---------------------------------------------------------------------------
# Grounding


def ground(
    f: Formula,
    interp: Interpretation,
    registry: Registry,
    env: Optional[dict] = None,
) -> GroundFormula:
    """Ground a sentence over the interpretation's universe.

    Atoms become ground atoms, equalities collapse to ``top``/``bot``,
    and each quantified argument becomes a total pair-set with one entry
    per tuple of universe elements.  Only the universe and the constant
    valuation matter here; the interpretation's atom set does not.
    """
    if env is None:
        env = {}
    return _ground(f, interp, registry, env)


def _ground(f, interp, registry, env) -> GroundFormula:
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
    if t is not Apply:
        raise GqError(f"not a formula: {f!r}")
    name = f.quantifier
    _check_shape(f, registry.resolve(name))
    if name == "and" and f.var_lists == ((), ()):
        # The inner nodes of a left-deep spine are plain ``and``s too, so
        # their shape holds; the spine is grounded in a loop.
        parts = flatten_spine(f, "and")
        out = _ground(parts[0], interp, registry, env)
        for part in parts[1:]:
            out = _binary("and", ((), out), ((), _ground(part, interp, registry, env)))
        return out
    # Keys come in the order of the sorted universe, so each pair-set is
    # sorted and its keys unique as built.
    sets = []
    for xs, arg in zip(f.var_lists, f.args):
        n = len(xs)
        entries = []
        saved = [env.get(x, _MISSING) for x in xs]
        try:
            for combo in itertools.product(interp.universe_sorted, repeat=n):
                for x, v in zip(xs, combo):
                    env[x] = v
                entries.append((combo, _ground(arg, interp, registry, env)))
        finally:
            _restore_all(env, xs, saved)
        sets.append(PairSet._sorted(tuple(entries)))
    return GApply._of(name, tuple(sets))


def ground_rule(rule: Rule, interp: Interpretation, registry: Registry) -> tuple:
    """Ground instances of one rule, one implication per assignment of
    the rule's free variables, in sorted assignment order."""
    fvs = rule.variables
    formula = impl(rule.body, rule.head)
    out = []
    for combo in itertools.product(interp.universe_sorted, repeat=len(fvs)):
        env = dict(zip(fvs, combo))
        out.append(_ground(formula, interp, registry, env))
    return tuple(out)


def ground_program(
    program: Program,
    registry: Registry,
    interp: Optional[Interpretation] = None,
) -> tuple:
    """Ground every rule; returns a flat tuple of implications."""
    if interp is None:
        interp = Interpretation(program.universe)
    out = []
    for rule in program.rules:
        out.extend(ground_rule(rule, interp, registry))
    return tuple(out)


# ---------------------------------------------------------------------------
# Satisfaction of ground formulas


def satisfies(
    atoms: Iterable[GroundAtom],
    g: GroundFormula,
    universe: Iterable[Element],
    registry: Registry,
) -> bool:
    """Truth of a ground formula in a set of atoms.

    The universe is needed because quantifier truth functions may
    consult it; ``g`` should be ground with respect to an
    interpretation over that same universe.
    """
    return _gsat(g, frozenset(atoms), frozenset(universe), registry)


def _gsat(g, atoms, universe, registry) -> bool:
    """Truth of the ground formula ``g`` in the atom set ``atoms``.

    The built-ins are read by their shape, and only a generalized
    quantifier, or a misshapen built-in, goes through the registry.
    ``and``, ``or`` and ``impl`` with two one-entry pair-sets, whatever
    their keys, are connectives that stop at the first side that decides
    them, and a left-deep ``and`` spine is read in a loop.  ``exists``
    with one pair-set stops at its first true instance; ``forall`` with
    one reads every instance and counts the true ones, as its truth
    function does.
    """
    t = type(g)
    if t is GroundAtomNode:
        return (g.pred, g.args) in atoms
    if t is GTop:
        return True
    if t is GBot:
        return False
    if t is not GApply:
        raise GqError(f"not a ground formula: {g!r}")
    name = g.quantifier
    sets = g.sets
    if name == "and":
        bottom, nodes = _and_spine(g)
        if nodes:
            if not _gsat(bottom, atoms, universe, registry):
                return False
            for _, right in nodes:
                if not _gsat(right, atoms, universe, registry):
                    return False
            return True
    elif name == "or" or name == "impl":
        sides = _sides(g)
        if sides is not None:
            a = _gsat(sides[0], atoms, universe, registry)
            if name == "or":
                return a or _gsat(sides[1], atoms, universe, registry)
            return not a or _gsat(sides[1], atoms, universe, registry)
    elif name in _BINDERS and len(sets) == 1:
        if name == "exists":
            for _, child in sets[0].entries:
                if _gsat(child, atoms, universe, registry):
                    return True
            return False
        held = [_gsat(child, atoms, universe, registry) for _, child in sets[0].entries]
        return held.count(True) == len(universe)
    qdef = registry.resolve(name)
    if len(sets) != len(qdef.arities):
        raise GroundingError(
            f"ground quantifier {name!r} has {len(sets)} pair-sets, "
            f"expected {len(qdef.arities)}"
        )
    rels = tuple(
        [
            frozenset([k for k, c in ps.entries if _gsat(c, atoms, universe, registry)])
            for ps in sets
        ]
    )
    return bool(qdef.truth(universe, rels))


# ---------------------------------------------------------------------------
# The stability transformation F*(u)


def eval_star(
    sentence,
    interp: Interpretation,
    smaller: Iterable[GroundAtom],
    intensional: Iterable[str],
    registry: Registry,
) -> bool:
    """Truth of F*(u) where u is the valuation given by ``smaller``.

    ``smaller`` reinterprets the intensional predicates only; every
    other atom, and one conjunct of every quantifier application, is
    still read from ``interp``.  A quantifier application, connectives
    included, is true only when it holds under the plain reading in
    ``interp`` and then under the recursive star reading, read in that
    order, so evaluation visits what the definition visits, and a truth
    function that raises does so where the definition's reading would,
    whether or not u is below ``interp``.  A static failure, such as an
    unbound variable, raises when ``sentence`` is compiled, before any
    reading.

    ``sentence`` is a formula, compiled per call, whose ``smaller`` is
    checked here atom by atom; or a ``_Sentence`` compiled for
    ``interp``'s universe and constants and these intensional
    predicates.  Only the solver builds a ``_Sentence``, and its u are
    subsets of a checked candidate, so they are not checked again.  The
    plain readings of ``interp`` are kept from one u to the next.
    """
    smaller = frozenset(smaller)
    if type(sentence) is not _Sentence:
        preds = frozenset(intensional)
        for a in smaller:
            if not isinstance(a, GroundAtom):
                raise GqError(f"not a ground atom: {a!r}")
            if a.pred not in preds:
                raise GqError(
                    f"atom {a} is not intensional; the smaller valuation may "
                    "only mention intensional predicates"
                )
            for v in a.args:
                if v not in interp.universe:
                    raise GqError(f"atom {a} mentions {v!r}, not a universe element")
        sentence = _compile_sentence(sentence, interp, registry, preds)
    return sentence.star(interp.atoms, smaller)


# ---------------------------------------------------------------------------
# The FLP transformation


def eval_flp_transform(
    program,
    interp: Interpretation,
    smaller: Iterable[GroundAtom],
    registry: Registry,
    *,
    fired: Optional[Iterable] = None,
) -> bool:
    """Truth of the conjunction, over all rule instances, of
    ``B and B(u) implies H(u)``.

    ``B`` is read in ``interp``; ``B(u)`` and ``H(u)`` reinterpret the
    program's intensional predicates by ``smaller`` while everything
    else keeps its value from ``interp``.  Since ``B`` does not depend
    on u, only the instances of the FLP reduct can fail; ``fired`` is
    that reduct, computed once per interpretation by the caller, or read
    here as it goes when absent.  Either way each instance is read in
    ``interp`` at most once, and an instance whose body's truth function
    raises in ``interp`` raises only after the instances before it have
    been tested, as the instance-by-instance definition does.

    ``program`` is a ``Program``, compiled whole per call, so its first
    static failure raises before any reading, and its ``smaller`` is
    checked here atom by atom, with ``fired`` from ``flp_reduct``; or a
    ``_Rules``, with ``fired`` filled by ``satisfies_program``.  Only the
    solver builds a ``_Rules``, and its u are subsets of a checked
    candidate, so they are not checked again, and the non-intensional
    part of ``interp`` is kept from one u to the next.
    """
    preds = program.intensional
    smaller = frozenset(smaller)
    if type(program) is _Rules:
        atoms, frozen = program.frozen
        if atoms is not interp.atoms:
            atoms = interp.atoms
            frozen = frozenset([a for a in atoms if a.pred not in preds])
            program.frozen = (atoms, frozen)
        subst = frozen | smaller if frozen else smaller
    else:
        frozen = frozenset(a for a in interp.atoms if a.pred not in preds)
        for a in smaller:
            if not isinstance(a, GroundAtom):
                raise GqError(f"not a ground atom: {a!r}")
            if a.pred not in preds:
                raise GqError(
                    f"atom {a} is not intensional; the smaller valuation may "
                    "only mention intensional predicates"
                )
        subst = _checked_atoms(frozen | smaller, interp.universe)
        compiled = _compile_program(program, interp, registry)
        if fired is not None:
            node = _Compiler(interp, registry, ()).node
            fired = (
                (node(rule.body, env)[0], node(rule.head, env)[0]) for rule, env in fired
            )
        program = compiled
    if fired is None:
        atoms = interp.atoms
        fired = (inst for inst in program.instances if inst[0](atoms))
    for body, head in fired:
        if body(subst) and not head(subst):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON export


def ground_to_json(g: GroundFormula) -> dict:
    """A JSON-ready mirror of a ground formula's structure."""
    t = type(g)
    if t is GTop:
        return {"kind": "top"}
    if t is GBot:
        return {"kind": "bot"}
    if t is GroundAtomNode:
        return {"kind": "atom", "pred": g.pred, "args": list(g.args)}
    if t is GApply:
        return {
            "kind": "apply",
            "quantifier": g.quantifier,
            "sets": [
                [[list(key), ground_to_json(child)] for key, child in ps.entries]
                for ps in g.sets
            ],
        }
    raise GqError(f"not a ground formula: {g!r}")
