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
  the application over its starred arguments; below a model, only its
  rule instances whose body the model satisfies can fail,
* ``eval_flp_transform``  truth of the rule-wise transformation
  B and B(u) implies H(u) used by the FLP semantics.  B is read in the
  interpretation alone, so for a fixed interpretation the test only
  needs the rule instances whose body it satisfies, the FLP reduct,
  and each u is read against those.

``satisfies`` after ``ground`` and ``satisfies_direct`` always agree;
the test suite exercises that equivalence heavily.

Every route reads one grounding: ``_Grounder`` is the one walk over
non-ground syntax, whose ground formulas ``ground``, ``ground_rule`` and
``ground_program`` return and the compiler (``_Compiler``) compiles.  So
a program's static failures come from grounding alone, with one message
and in one order on every route.

``satisfies`` and the reduct (``reduct.reduct``) walk ground formulas
node by node; the solver's reduct route calls them once per projection
of a candidate onto a rule's atoms (``_read_set``).  They read the
built-in connectives and binders, ``and``, ``or``, ``impl``, ``forall``
and ``exists``, by their shape, which the registry cannot shadow; only
a generalized quantifier, or a misshapen built-in, is looked up in the
registry, checked against its pair-set count (``_resolved``).  They and
grounding walk a left-deep ``and`` or ``or`` spine in a loop.
Grounding and the reduct build their pair-sets sorted and with unique
keys, so they skip the checks of the public constructors.

The last three, and ``satisfies_program``, read compiled nodes, and
compile a formula or a ``Program`` given them per call.  The solver
compiles its program once per solve, or once per compare
(``_compile_program``): the nodes of each rule instance's body and
head, whose implications, read one by one, are its sentence.  A
compiled node keeps its last plain answer, so the plain readings of a
candidate are computed once however many u are tested against it, and
a compiled program found a model keeps its FLP reduct, the instances a
u below it can falsify (``_Program.model``).  The compile also records
the atoms each instance reads and the intensional atoms of its head,
off the ground formulas it compiles, which the solver's dependency
graph reads (``_Program.reads`` and ``heads``).

A ``GroundAtom`` is the pair ``(pred, args)``, so every atom set, an
interpretation's included, is its own index: a lookup asks whether
``(pred, args)`` is in it.  It is also the leaf of a ground formula, so
``satisfies`` and the reduct ask whether the leaf itself is in a set,
and ``_read_set`` collects the leaves.  ``Interpretation.with_atoms``
derives an interpretation over the same universe and constants, and
checks only the new atoms, unless the solver says its base was checked.
"""
from __future__ import annotations

import functools
import gc
import itertools
from collections import namedtuple
from typing import Iterable, Mapping, Optional

from .syntax import (
    Apply,
    Atom,
    Bot,
    Element,
    Equality,
    Formula,
    GqError,
    Program,
    Record,
    Rule,
    Top,
    Variable,
    check_element,
    element_key,
    flatten_spine,
    impl,
    iter_subformulas,
)
from .quantifiers import AGGREGATES, Registry, _row_key, _single_int

class GroundingError(GqError):
    pass


# ---------------------------------------------------------------------------
# Ground atoms and interpretations


class GroundFormula:
    """Base class of the ground formula algebra."""

    __slots__ = ()

    def __str__(self):
        from .render import render

        return render(self)


class GroundAtom(namedtuple("GroundAtom", "pred args"), GroundFormula):
    """A predicate applied to universe elements, e.g. ``p(-1)``, and the
    leaf of a ground formula.

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
    ``universe``.  Every element is checked before the set is built: a
    ``GroundAtom`` equals its plain tuple, so the set keeps only one of
    the two, whichever came first."""
    atoms = tuple(atoms)
    for a in atoms:
        if not isinstance(a, GroundAtom):
            raise GqError(f"not a ground atom: {a!r}")
        for v in a.args:
            if v not in universe:
                raise GqError(f"atom {a} mentions {v!r}, not a universe element")
    return frozenset(atoms)


class Interpretation(Record):
    """A universe, a set of true ground atoms, and a constant valuation.

    ``constants`` maps object constants to universe elements; ``None``
    is the usual identity valuation, under which every constant names
    itself and must belong to the universe.  The atom set is also the
    lookup index: ``(pred, args) in interp.atoms`` asks whether an atom
    is true.  ``universe_sorted`` is derived from the universe.
    """

    _fields = ("universe", "atoms", "constants")

    def __init__(
        self,
        universe: frozenset,
        atoms: AtomSet = frozenset(),
        constants: Optional[Mapping[Element, Element]] = None,
    ):
        universe = frozenset(check_element(e) for e in universe)
        if not universe:
            raise GqError("the universe must not be empty")
        universe_sorted = tuple(sorted(universe, key=element_key))
        atoms = _checked_atoms(atoms, universe)
        if constants is not None:
            for c, v in constants.items():
                check_element(c)
                if v not in universe:
                    raise GqError(
                        f"constant {c!r} maps to {v!r}, not a universe element"
                    )
        self.__dict__.update(
            universe=universe, atoms=atoms, constants=constants, universe_sorted=universe_sorted
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

    def with_atoms(self, atoms: Iterable[GroundAtom], checked=False) -> "Interpretation":
        """This interpretation with another atom set.  The universe, its
        sorted order and the constants were checked already; only the
        atoms are checked here, unless ``checked`` says they were: the
        solver's candidates are subsets of a base it checks once."""
        new = object.__new__(Interpretation)
        atoms = frozenset(atoms) if checked else _checked_atoms(atoms, self.universe)
        new.__dict__.update(self.__dict__, atoms=atoms)
        return new

    def intensional_slice(self, intensional: Iterable[str]) -> AtomSet:
        preds = frozenset(intensional)
        return frozenset(a for a in self.atoms if a.pred in preds)


def herbrand_base(program: Program) -> tuple[GroundAtom, ...]:
    """All ground atoms over the program's signature, in ``sort_key``
    order: the predicates sorted, and each one's tuples in product order
    over the sorted universe."""
    u_sorted = program.universe_sorted()
    return tuple(
        GroundAtom(pred, combo)
        for pred in sorted(program.signature)
        for combo in itertools.product(u_sorted, repeat=program.signature[pred])
    )


# ---------------------------------------------------------------------------
# Ground formulas


class GTop(GroundFormula, Record):
    def __str__(self):
        return "top"


class GBot(GroundFormula, Record):
    def __str__(self):
        return "bot"


G_TOP = GTop()
G_BOT = GBot()


class PairSet(Record):
    """A total table from element tuples to ground formulas.

    Entries are kept sorted by key and keys are unique, so two pair-sets
    built from the same mapping compare equal.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple):
        rows = []
        seen = set()
        for key, child in entries:
            key = tuple(key)
            if key in seen:
                raise GqError(f"duplicate pair-set key {key!r}")
            seen.add(key)
            if not isinstance(child, GroundFormula):
                raise GqError(f"pair-set value is not a ground formula: {child!r}")
            rows.append((key, child))
        rows.sort(key=lambda kv: _row_key(kv[0]))
        self.__dict__["entries"] = tuple(rows)

    @classmethod
    def _sorted(cls, entries: tuple) -> "PairSet":
        """A pair-set of ``entries`` that are already sorted by key, with
        unique tuple keys and ground-formula values, so nothing is checked.
        Only the grounder and ``reduct`` build one, where that holds by
        construction."""
        ps = object.__new__(cls)
        ps.__dict__["entries"] = entries
        return ps

    def __len__(self):
        return len(self.entries)

    def keys(self):
        return tuple(k for k, _ in self.entries)


class GApply(GroundFormula, Record):
    """Ground quantifier application: one pair-set per argument position."""

    _fields = ("quantifier", "sets")

    def __init__(self, quantifier: str, sets: tuple):
        sets = tuple(sets)
        for s in sets:
            if not isinstance(s, PairSet):
                raise GqError(f"not a pair-set: {s!r}")
        self.__dict__.update(quantifier=quantifier, sets=sets)

    @classmethod
    def _of(cls, quantifier: str, sets: tuple) -> "GApply":
        """An application of ``sets``, a tuple of pair-sets, unchecked.
        Only the grounder and ``reduct`` build one, from pair-sets they
        built."""
        g = object.__new__(cls)
        g.__dict__.update(quantifier=quantifier, sets=sets)
        return g


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


def _spine(g: GroundFormula, name: str):
    """The left spine of ``name`` connectives from ``g``, by the rule of
    ``syntax.flatten_spine``: the operand at its bottom, and the spine's
    nodes from the innermost out, each with its right operand.  A ``g``
    that is not such a node is its own bottom.  The walk is a loop, so a
    spine of any length is fine."""
    nodes = []
    while type(g) is GApply and g.quantifier == name:
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
    included: its ``GroundAtom`` leaves themselves.  ``_gsat`` and
    ``reduct.reduct`` read an atom set only by asking whether one of
    these is in it, so on ``g`` a set and its intersection with the read
    set give the same answers."""
    return frozenset([n for n in iter_ground_subformulas(g) if type(n) is GroundAtom])


# ---------------------------------------------------------------------------
# Compiled evaluation of formulas in an interpretation
#
# A formula (``_compile_sentence``), or the body and head of every rule
# instance of a program (``_compile_program``), is ground for an
# interpretation's universe and constants and a registry, and compiled
# for a set of intensional predicates.  The compiler reads only the
# ground form: one node per ground occurrence, a pair of closures (the
# arguments of a quantifier application are read apart, below):
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
# computed once, and each j after that reads only star readings.  A
# conjunction and ``forall``, and a disjunction and ``exists``, are one
# junction node (``_junction_node``), which differ only in the answer that
# stops their left-to-right scan; a longer disjunction is one ``_or_node``.
#
# A quantifier application reads each argument position as a relation,
# the tuples of universe elements at which the argument holds, and the
# compiler picks the reader of each position from its pair-set:
#
# * an atom argument, whose entries are all atoms, ``p(Y)`` in
#   ``sum{Y : p(Y)}``, is the set of atoms it names, each with the tuples
#   that name it; a relation is the tuples of the named atoms in
#   ``atoms`` (in the star reading, in ``j`` when the predicate is
#   intensional), so no node is built per tuple;
# * any other argument is its node per tuple.  A tuple whose node is
#   ``top`` or ``bot`` is in or out of every relation, so it is fixed at
#   compile time; only the other tuples are read, in tuple order.  An
#   equality, the bound ``Y0 = 2`` of every aggregate, is ``top`` or
#   ``bot`` at every tuple.
#
# The truth function gets the same relations either way, as many times
# and in the same order.  The one exception, a built-in ``sum`` or
# ``count`` of an atom argument against one whose entries are all ``top``
# or ``bot`` (the equality the parser builds), calls no truth function:
# it reads per-atom measures against a bound fixed at compile time, the
# ``top`` tuples of the second argument (``_aggregate_node``).
#
# A static failure (an unbound variable, a constant with no value, an
# unknown quantifier, a misshapen application, a non-formula) raises in
# grounding, before any candidate is read; only a truth function can fail
# after that.  A compiled form is built per solve (or per call of the
# public readers) and never cached past it, so a registry change is seen
# by the next one.


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


def _junction_node(kids: list, stop: bool) -> tuple:
    """A conjunction spine or ``forall`` over its instances (``stop``
    False), or two disjuncts or ``exists`` over its instances (``stop``
    True), read left to right; each reading stops at the first child
    whose answer is ``stop``.  A child that never answers ``stop``,
    ``top`` in a conjunction and ``bot`` in a disjunction, is dropped.
    A conjunction spine can be flattened, its plain reading implying
    each child's; a longer disjunction cannot (``_or_node``).  Every
    reading gives a bool, so answers are compared with ``is``."""
    idle = _BOT_NODE if stop else _TOP_NODE
    kids = [k for k in kids if k is not idle]
    if not kids:
        return idle
    plains = tuple(p for p, _ in kids)
    stars = tuple(s for _, s in kids)

    @_kept
    def plain(atoms):
        for p in plains:
            if p(atoms) is stop:
                return stop
        return not stop

    def star(atoms, j):
        if not plain(atoms):
            return False
        for s in stars:
            if s(atoms, j) is stop:
                return stop
        return not stop

    return plain, star


def _or_node(kids: list) -> tuple:
    """A left spine d0 | ... | dn, read as the nested binary disjunctions,
    whose star reading is the plain one, then the two operands' stars up
    to a true one.  With k0 the first disjunct that holds plain, kept,
    the star reading reads d_s to d_n, s being 0 when k0 is at most 1 and
    k0 after that: the inner nodes below d_k0 fail plain, reading none."""
    if len(kids) == 2:  # k0 is at most 1, and a junction reads it faster
        return _junction_node(kids, True)
    plains, stars = zip(*kids)

    @_kept
    def start(atoms):
        return next((k if k > 1 else 0 for k, p in enumerate(plains) if p(atoms)), None)

    def star(atoms, j):
        k = start(atoms)
        return k is not None and any(s(atoms, j) for s in stars[k:])

    return (lambda atoms: start(atoms) is not None), star


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


def _rows_reader(rows: list) -> tuple:
    """The relation of any other argument: its node at each tuple.  A
    tuple whose node is ``top`` or ``bot`` is in or out of every
    relation, fixed here; the others are read in the order of the
    tuples."""
    fixed = frozenset([c for c, n in rows if n is _TOP_NODE])
    live = [(c, n) for c, n in rows if n is not _TOP_NODE and n is not _BOT_NODE]
    if not live:
        return (lambda atoms: fixed), (lambda atoms, j: fixed)
    combos = tuple(c for c, _ in live)
    plains = tuple(p for _, (p, _) in live)
    stars = tuple(s for _, (_, s) in live)

    def plain(atoms):
        return fixed.union([c for c, p in zip(combos, plains) if p(atoms)])

    def star(atoms, j):
        return fixed.union([c for c, s in zip(combos, stars) if s(atoms, j)])

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


def _aggregate_node(named: dict, intensional: bool, measure, cmp, bound) -> tuple:
    """A built-in ``sum`` or ``count`` of the atoms in ``named``, as
    ``_atom_reader`` takes it, against ``bound``, None when the bound
    relation is not one integer.  Each tuple names one atom, so the
    measure of a relation is the sum of its atoms' measures; an atom with
    none, a sum off the integers, makes the aggregate false."""
    if bound is None:
        return _BOT_NODE
    measures = {key: measure(tuples) for key, tuples in named.items()}
    undefined = frozenset([key for key, m in measures.items() if m is None])
    keys = frozenset(measures) - undefined
    of = measures.__getitem__

    def value(present):
        return undefined.isdisjoint(present) and cmp(sum(map(of, keys & present)), bound)

    plain = _kept(value)

    def star(atoms, j):
        return plain(atoms) and value(j if intensional else atoms)

    return plain, star


class _Compiler:
    """Compiles the ground formulas of its one grounder for
    interpretations over ``interp``'s universe: ``node(g)`` is the node
    of ``g``, and appends the atoms ``g`` mentions to the list ``read``.
    An application that the grounder shares across instances is one
    object, with one node and one list of atoms: ``sum{Y : p(Y)} < 2`` in
    a rule over X is read in an interpretation once, not once per
    instance.  The grounder keeps those objects alive, so their ids stay
    unique.  A compiler is not kept past its compile."""

    def __init__(self, interp: Interpretation, registry: Registry, intensional):
        self.grounder = _Grounder(interp, registry)
        self.universe = interp.universe
        self.intensional = frozenset(intensional)
        self.shared = {}  # id of a ground application -> its node and atoms
        self.read = []  # the atoms of the nodes compiled since it was reset
        self.reads = []  # per instance, the atoms it mentions
        self.heads = []  # per instance, the intensional atoms of its head

    def instance(self, rule: Rule, env: dict) -> tuple:
        """``(rule, env, body, head)``, the body and head ground apart.
        The atoms the instance mentions, and those of its head that are
        intensional, go to ``reads`` and ``heads`` as lists, in the order
        met, an atom as often as it is met."""
        ground = self.grounder.ground
        read = self.read = []
        body = self.node(ground(rule.body, env))
        n = len(read)
        head = self.node(ground(rule.head, env))
        self.reads.append(read)
        self.heads.append([a for a in read[n:] if a.pred in self.intensional])
        return rule, env, body, head

    def conjuncts(self, g: GroundFormula, out: list) -> list:
        """Append the nodes of the conjuncts of ``g`` to ``out``: its
        ``and`` spine, with each ``forall`` unrolled into its instances.
        The plain reading of the whole implies each inner conjunction's,
        so their plain conjuncts, and the nesting, may go."""
        bottom, nodes = _spine(g, "and")
        for c in [bottom] + [right for _, right in nodes]:
            if type(c) is GApply and c.quantifier == "forall":
                for _, inner in c.sets[0].entries:
                    self.conjuncts(inner, out)
            else:
                out.append(self.node(c))
        return out

    def node(self, g: GroundFormula) -> tuple:
        t = type(g)
        if t is GroundAtom:
            self.read.append(g)
            return _atom_node(g, g.pred in self.intensional, False)
        if t is GTop:
            return _TOP_NODE
        if t is GBot:
            return _BOT_NODE
        # grounding checked every shape, so a built-in is read by its name
        name = g.quantifier
        if name == "and" or name == "forall":
            return _junction_node(self.conjuncts(g, []), False)
        if name == "exists":
            return _junction_node([self.node(c) for _, c in g.sets[0].entries], True)
        if name == "or":
            bottom, nodes = _spine(g, "or")
            return _or_node([self.node(c) for c in [bottom] + [right for _, right in nodes]])
        if name == "impl":
            a, b = _sides(g)
            if type(a) is GroundAtom and type(b) is GBot:
                self.read.append(a)
                return _atom_node(a, a.pred in self.intensional, True)
            return _impl_node(self.node(a), self.node(b))
        entry = self.shared.get(id(g))
        if entry is None:
            outer, self.read = self.read, []
            node = self.application(g)
            entry = self.shared[id(g)] = (node, self.read)
            self.read = outer
        self.read += entry[1]
        return entry[0]

    def application(self, g: GApply) -> tuple:
        """A generalized quantifier application, with a reader per
        pair-set picked by its entries (see above)."""
        name, sets = g.quantifier, g.sets
        named = [_named(ps) for ps in sets]
        for atoms in named:
            if atoms is not None:
                self.read += atoms
        if name in AGGREGATES and named[0] is not None and all(
            [type(c) is GTop or type(c) is GBot for _, c in sets[1].entries]
        ):
            bound = frozenset([k for k, c in sets[1].entries if type(c) is GTop])
            intensional = sets[0].entries[0][1].pred in self.intensional
            return _aggregate_node(named[0], intensional, *AGGREGATES[name], _single_int(bound))
        readers = []
        for ps, atoms in zip(sets, named):
            if atoms is None:
                readers.append(_rows_reader([(k, self.node(c)) for k, c in ps.entries]))
            else:
                readers.append(_atom_reader(atoms, ps.entries[0][1].pred in self.intensional))
        return _apply_node(self.grounder.resolved[name].truth, self.universe, readers)


def _named(ps: PairSet):
    """Each atom of an atom argument ``ps`` with the tuples that name it;
    None when an entry of ``ps`` is not an atom."""
    named = {}
    for combo, a in ps.entries:
        if type(a) is not GroundAtom:
            return None
        named.setdefault(a, []).append(combo)
    return named


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


class _Program:
    """A program compiled by ``_compile_program``: its intensional
    predicates, and its rule instances in the order of ``_instances``,
    each ``(rule, env, body, head)`` with the nodes of its body and head.
    Its sentence, the conjunction of their ``body -> head``, is read off
    the instances (``satisfies_program``, ``eval_star``).  ``model`` is
    ``(atoms, reduct, extensional)`` for the last model found by
    ``satisfies_program``: its FLP reduct and non-intensional part.

    The compile also records, per instance, a list of the atoms it
    reads, those inside quantifier arguments included (``reads``, its
    ``_read_set`` as a list), and of the intensional atoms of its head
    (``heads``), and the names of the quantifiers the instances apply,
    connectives included (``quantifiers``).  A program of some of
    another's instances, sharing their nodes, records none of them."""

    __slots__ = ("intensional", "instances", "model", "reads", "heads", "quantifiers")

    def __init__(self, intensional, instances: tuple, reads=(), heads=(), quantifiers=()):
        self.intensional = intensional
        self.instances = instances
        self.model = (None, (), frozenset())
        self.reads = reads
        self.heads = heads
        self.quantifiers = quantifiers


def _compile_sentence(
    f: Formula,
    interp: Interpretation,
    registry: Registry,
    intensional=(),
    env: Optional[Mapping] = None,
) -> tuple:
    """The node of ``f``, compiled for interpretations over ``interp``'s
    universe and constants, with ``intensional`` read from the smaller
    valuation in the star reading and ``env`` binding its free variables."""
    compiler = _Compiler(interp, registry, intensional)
    return _without_gc(lambda: compiler.node(compiler.grounder.ground(f, dict(env or {}))))


def _compile_program(
    program: Program, interp: Interpretation, registry: Registry
) -> _Program:
    """Every rule instance of ``program``, compiled for interpretations
    over ``interp``'s universe and constants."""
    compiler = _Compiler(interp, registry, program.intensional)
    instances = itertools.starmap(compiler.instance, _instances(program, interp))

    def build():
        compiled = tuple(instances)
        return _Program(
            program.intensional, compiled, compiler.reads, compiler.heads,
            tuple(compiler.grounder.resolved),
        )

    return _without_gc(build)


def _eval(f, interp: Interpretation, registry: Registry, env: dict) -> bool:
    """Truth of ``f`` in ``interp`` under the bindings ``env``.  ``f`` is a
    formula, compiled here, or a ``_Program`` compiled for ``interp``'s
    universe and constants, read as its sentence by ``satisfies_program``."""
    if type(f) is _Program:
        return satisfies_program(interp, f, registry)
    return _compile_sentence(f, interp, registry, (), env)[0](interp.atoms)


def satisfies_direct(
    interp: Interpretation, sentence: Formula, registry: Registry
) -> bool:
    """Truth of a sentence in an interpretation.  The sentence is ground
    and compiled per call, and read in the interpretation's atoms."""
    return _eval(sentence, interp, registry, {})


def _instances(program: Program, interp: Interpretation):
    """Every rule instance ``(rule, env)``: rules in program order, then
    the assignments of each rule's free variables in sorted order (the
    order of ``ground_rule``), each with its own env dict."""
    u_sorted = interp.universe_sorted
    for rule in program.rules:
        for _, env in _bindings(u_sorted, rule.variables, {}):
            yield rule, env


def satisfies_program(interp: Interpretation, program, registry: Registry) -> bool:
    """Does the interpretation satisfy every rule's universal closure?

    ``program`` is a ``Program``, compiled per call, or a ``_Program``.
    Each instance's body is read once, and its head only where the body
    holds; the first violated instance ends the pass.  A ``_Program``
    found a model keeps it, its FLP reduct and its non-intensional part
    (``model``); every body keeps its plain answer after a true answer,
    so ``_fired`` reads that reduct with no truth function.
    """
    compiled = program
    if type(program) is not _Program:
        compiled = _compile_program(program, interp, registry)
    atoms = interp.atoms
    for _, _, (body, _), (head, _) in compiled.instances:
        if body(atoms) and not head(atoms):
            return False
    if compiled is program:
        extensional = frozenset([a for a in atoms if a.pred not in program.intensional])
        program.model = (atoms, tuple(_fired(program, atoms)), extensional)
    return True


def _fired(compiled: _Program, atoms: AtomSet):
    """The instances of ``compiled`` whose body holds in ``atoms``, the
    FLP reduct, read lazily and in instance order."""
    return (inst for inst in compiled.instances if inst[2][0](atoms))


def flp_reduct(program: Program, interp: Interpretation, registry: Registry) -> tuple:
    """The FLP reduct of the program relative to ``interp``: the rule
    instances ``(rule, env)`` whose body ``interp`` satisfies, in rule
    order and then in sorted assignment order, each with its own env."""
    compiled = _compile_program(program, interp, registry)
    return tuple((rule, env) for rule, env, _, _ in _fired(compiled, interp.atoms))


# ---------------------------------------------------------------------------
# Grounding


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


def _bindings(u_sorted: tuple, xs: tuple, env: dict):
    """Each tuple of elements of the sorted universe ``u_sorted`` for the
    variables ``xs``, in product order, with a new env that extends
    ``env`` by binding ``xs`` to it; ``env`` itself is never changed."""
    for combo in itertools.product(u_sorted, repeat=len(xs)):
        yield combo, {**env, **dict(zip(xs, combo))}


def _read_names(f: Formula) -> tuple:
    """The variables that terms in ``f`` read, bound in ``f`` or not: the
    bindings that the ground form of ``f`` can depend on."""
    out = set()
    for g in iter_subformulas(f):
        t = type(g)
        terms = g.args if t is Atom else (g.left, g.right) if t is Equality else ()
        out.update(x.name for x in terms if type(x) is Variable)
    return tuple(sorted(out))


_CONNECTIVES = ("and", "or", "impl")
_BINDERS = ("forall", "exists")
_MISSING = object()
# ``GroundAtom((pred, args))`` for an args tuple, skipping its ``__new__``
_new_atom = functools.partial(tuple.__new__, GroundAtom)


class _Grounder:
    """Grounds formulas over ``interp``'s universe and constants:
    ``ground(f, env)`` is ``f`` under the bindings ``env``.  It resolves
    each quantifier name, connectives included, once per grounder, and
    checks each application's shape.  The occurrences of a
    generalized quantifier application under bindings that agree on what
    it reads are one ground application, whose shape is checked once;
    connectives and binders are built afresh."""

    def __init__(self, interp: Interpretation, registry: Registry):
        self.interp = interp
        self.registry = registry
        self.resolved = {}  # name -> its definition
        self.reads = {}  # id of an application -> _read_names of it
        self.shared = {}  # (id, the values of what it reads) -> its ground form

    def ground(self, f: Formula, env: dict) -> GroundFormula:
        t = type(f)
        if t is Atom:
            return _new_atom((f.pred, tuple([_term_value(a, self.interp, env) for a in f.args])))
        if t is Equality:
            lv = _term_value(f.left, self.interp, env)
            rv = _term_value(f.right, self.interp, env)
            return G_TOP if lv == rv else G_BOT
        if t is Top:
            return G_TOP
        if t is Bot:
            return G_BOT
        if t is not Apply:
            raise GqError(f"not a formula: {f!r}")
        name = f.quantifier
        key = None  # set for a generalized quantifier, whose application is shared
        if name not in _CONNECTIVES and name not in _BINDERS:
            reads = self.reads.get(id(f))
            if reads is None:
                reads = self.reads[id(f)] = _read_names(f)
            key = (id(f),) + tuple([env.get(x, _MISSING) for x in reads])
            g = self.shared.get(key)
            if g is not None:
                return g
        qdef = self.resolved.get(name)
        if qdef is None:
            qdef = self.resolved[name] = self.registry.resolve(name)
        _check_shape(f, qdef)
        if name in _CONNECTIVES:
            # A connective is binary, and so is each inner node of a
            # left-deep ``and`` or ``or`` spine, which is ground in a loop.
            parts = f.args if name == "impl" else flatten_spine(f, name)
            g = self.ground(parts[0], env)
            for part in parts[1:]:
                g = _binary(name, ((), g), ((), self.ground(part, env)))
            return g
        # Keys come in the order of the sorted universe, so each pair-set
        # is sorted and its keys unique as built.  The entries are built in
        # a plain loop, so a level of nesting costs one frame.
        sets = []
        for xs, arg in zip(f.var_lists, f.args):
            entries = []
            pairs = _bindings(self.interp.universe_sorted, xs, env) if xs else [((), env)]
            for combo, inner in pairs:
                entries.append((combo, self.ground(arg, inner)))
            sets.append(PairSet._sorted(tuple(entries)))
        g = GApply._of(name, tuple(sets))
        if key is not None:
            self.shared[key] = g
        return g


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
    return _Grounder(interp, registry).ground(f, {} if env is None else env)


def ground_rule(rule: Rule, interp: Interpretation, registry: Registry) -> tuple:
    """Ground instances of one rule, one implication per assignment of
    the rule's free variables, in sorted assignment order.  The instances
    share each generalized quantifier application that reads the same
    values in them."""
    formula = impl(rule.body, rule.head)
    ground = _Grounder(interp, registry).ground
    pairs = _bindings(interp.universe_sorted, rule.variables, {})
    return tuple([ground(formula, env) for _, env in pairs])


def ground_program(
    program: Program,
    registry: Registry,
    interp: Optional[Interpretation] = None,
) -> tuple:
    """Ground every rule; returns a flat tuple of implications."""
    if interp is None:
        interp = Interpretation(program.universe)
    return tuple([g for rule in program.rules for g in ground_rule(rule, interp, registry)])


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


def _resolved(name: str, sets: tuple, registry: Registry):
    """The definition of ``name``, once it is known to take as many
    arguments as ``sets``, a ground application's pair-sets, holds."""
    qdef = registry.resolve(name)
    if len(sets) != len(qdef.arities):
        raise GroundingError(
            f"ground quantifier {name!r} has {len(sets)} pair-sets, "
            f"expected {len(qdef.arities)}"
        )
    return qdef


def _gsat(g, atoms, universe, registry) -> bool:
    """Truth of the ground formula ``g`` in the atom set ``atoms``.

    The built-ins are read by their shape, and only a generalized
    quantifier, or a misshapen built-in, goes through the registry.
    ``and``, ``or`` and ``impl`` with two one-entry pair-sets, whatever
    their keys, are connectives that stop at the first side that decides
    them, and a left-deep ``and`` or ``or`` spine is read in a loop.
    ``exists`` with one pair-set stops at its first true instance;
    ``forall`` with one reads every instance and counts the true ones, as
    its truth function does.
    """
    t = type(g)
    if t is GroundAtom:
        return g in atoms
    if t is GTop:
        return True
    if t is GBot:
        return False
    if t is not GApply:
        raise GqError(f"not a ground formula: {g!r}")
    name = g.quantifier
    sets = g.sets
    if name == "and" or name == "or":
        bottom, nodes = _spine(g, name)
        if nodes:
            stop = name == "or"
            if _gsat(bottom, atoms, universe, registry) is stop:
                return stop
            for _, right in nodes:
                if _gsat(right, atoms, universe, registry) is stop:
                    return stop
            return not stop
    elif name == "impl":
        sides = _sides(g)
        if sides is not None:
            a = _gsat(sides[0], atoms, universe, registry)
            return not a or _gsat(sides[1], atoms, universe, registry)
    elif name in _BINDERS and len(sets) == 1:
        if name == "exists":
            for _, child in sets[0].entries:
                if _gsat(child, atoms, universe, registry):
                    return True
            return False
        held = [_gsat(child, atoms, universe, registry) for _, child in sets[0].entries]
        return held.count(True) == len(universe)
    qdef = _resolved(name, sets, registry)
    rels = tuple(
        [
            frozenset([k for k, c in ps.entries if _gsat(c, atoms, universe, registry)])
            for ps in sets
        ]
    )
    return bool(qdef.truth(universe, rels))


# ---------------------------------------------------------------------------
# The stability transformation F*(u)


def _checked_smaller(smaller: AtomSet, preds: frozenset) -> AtomSet:
    """``smaller`` once each atom is known to be a ground atom of one of
    ``preds``.  Each reader then checks the universe over the whole set
    it reads, so a predicate fault is reported before a universe fault."""
    for a in smaller:
        if not isinstance(a, GroundAtom):
            raise GqError(f"not a ground atom: {a!r}")
        if a.pred not in preds:
            raise GqError(
                f"atom {a} is not intensional; the smaller valuation may "
                "only mention intensional predicates"
            )
    return smaller


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
    checked here (``_checked_smaller``); or a ``_Program`` compiled for
    ``interp``'s universe and constants, read as its sentence with its
    own intensional predicates.  The solver builds one per solve, or per
    compare, and its u are subsets of a checked candidate, so they are
    not checked again.  The plain readings of ``interp`` are kept from
    one u to the next.

    A ``_Program``'s F*(u) is its plain reading in ``interp`` and then
    each instance's starred ``body -> head``.  So the plain reading is
    ``satisfies_program``'s model check, whose answers the starred
    readings keep; it is not run again when the program keeps
    ``interp``'s atoms as a model (``_Program.model``).  A u below
    ``interp`` reads only the kept FLP reduct, exactly: there a starred
    reading implies the plain one, so an instance whose body is false in
    ``interp`` holds, and its star reading calls no truth function.  Any
    other u reads every instance.
    """
    smaller = frozenset(smaller)
    if type(sentence) is not _Program:
        preds = frozenset(intensional)
        _checked_atoms(_checked_smaller(smaller, preds), interp.universe)
        return _compile_sentence(sentence, interp, registry, preds)[1](interp.atoms, smaller)
    atoms = interp.atoms
    if sentence.model[0] is not atoms and not satisfies_program(interp, sentence, registry):
        return False
    instances = sentence.model[1] if smaller <= atoms else sentence.instances
    for _, _, (_, body), (_, head) in instances:
        if body(atoms, smaller) and not head(atoms, smaller):
            return False
    return True


# ---------------------------------------------------------------------------
# The FLP transformation


def eval_flp_transform(
    program,
    interp: Interpretation,
    smaller: Iterable[GroundAtom],
    registry: Registry,
) -> bool:
    """Truth of the conjunction, over all rule instances, of
    ``B and B(u) implies H(u)``.

    ``B`` is read in ``interp``; ``B(u)`` and ``H(u)`` reinterpret the
    program's intensional predicates by ``smaller`` while everything
    else keeps its value from ``interp``.  Since ``B`` does not depend
    on u, only the instances of the FLP reduct can fail, so only those
    are read, as ``_fired`` finds them; an instance whose body's truth
    function raises in ``interp`` raises only after the instances before
    it have been tested, as the instance-by-instance definition does.

    ``program`` is a ``Program``, compiled whole per call, so its first
    static failure raises before any reading, and its ``smaller`` is
    checked here (``_checked_smaller``); or a ``_Program``, which only
    the solver builds: its u are subsets of a checked candidate, so they
    are not checked again, and a model it keeps (``_Program.model``) is
    read through its kept reduct and non-intensional part.
    """
    preds = program.intensional
    smaller = frozenset(smaller)
    if type(program) is not _Program:
        extensional = frozenset(a for a in interp.atoms if a.pred not in preds)
        _checked_atoms(extensional | _checked_smaller(smaller, preds), interp.universe)
        program = _compile_program(program, interp, registry)
    atoms, reduct, extensional = program.model
    if atoms is not interp.atoms:
        reduct = _fired(program, interp.atoms)
        extensional = frozenset([a for a in interp.atoms if a.pred not in preds])
    subst = extensional | smaller if extensional else smaller
    for _, _, (body, _), (head, _) in reduct:
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
    if t is GroundAtom:
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
