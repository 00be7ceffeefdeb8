"""Interpretations, grounding, and the three satisfaction relations.

Grounding replaces every quantified argument by a pair-set that maps
each tuple of universe elements to the ground instance of the argument
formula, so a ground quantifier application carries one total, finite
table per argument position.  On top of that live:

* ``satisfies``        truth of a ground formula in a set of atoms,
* ``satisfies_direct`` truth of a sentence in an interpretation,
* ``eval_star``        truth of the stability transformation F*(u),
  where u is a second, smaller valuation of the intensional predicates;
  one pass visits each node once per u and yields both the plain and the
  starred reading of it,
* ``eval_flp_transform``  truth of the rule-wise transformation
  B and B(u) implies H(u) used by the FLP semantics.  B is read in the
  interpretation alone, so for a fixed interpretation the test only
  needs the rule instances whose body it satisfies: ``flp_reduct``
  computes them once per candidate, and each u is read against those.

``satisfies`` after ``ground`` and ``satisfies_direct`` always agree;
the test suite exercises that equivalence heavily.

A ``GroundAtom`` is the pair ``(pred, args)``, so every atom set, an
interpretation's included, is its own index: a lookup asks whether
``(pred, args)`` is in it.  ``Interpretation.with_atoms`` derives an
interpretation over the same universe and constants, and checks only
the new atoms.
"""
from __future__ import annotations

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

    __str__ = GroundFormula.__str__


def iter_ground_subformulas(g: GroundFormula):
    yield g
    if isinstance(g, GApply):
        for ps in g.sets:
            for _, child in ps.entries:
                yield from iter_ground_subformulas(child)


# ---------------------------------------------------------------------------
# Direct evaluation of formulas in an interpretation


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


def _one_binder(f: Apply) -> bool:
    """The fixed shape of ``forall``/``exists``: one variable, one argument."""
    return len(f.var_lists) == 1 and len(f.var_lists[0]) == 1


def _eval(f: Formula, interp: Interpretation, registry: Registry, env: dict) -> bool:
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
    # The five built-in connectives are dispatched by name, their shape
    # checked structurally; the registry cannot shadow them.  A misshapen
    # one falls through to _check_shape, which reports it.
    name = f.quantifier
    args = f.args
    if f.var_lists == ((), ()):
        if name == "and":
            for part in flatten_spine(f, "and"):
                if not _eval(part, interp, registry, env):
                    return False
            return True
        if name == "or":
            return _eval(args[0], interp, registry, env) or _eval(
                args[1], interp, registry, env
            )
        if name == "impl":
            return not _eval(args[0], interp, registry, env) or _eval(
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
                if _eval(args[0], interp, registry, env) == want:
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
                if _eval(arg, interp, registry, env):
                    rows.add(combo)
        finally:
            _restore_all(env, xs, saved)
        rels.append(frozenset(rows))
    return bool(qdef.truth(interp.universe, tuple(rels)))


def _restore(env: dict, x: str, old) -> None:
    if old is _MISSING:
        del env[x]
    else:
        env[x] = old


def _restore_all(env: dict, xs, saved) -> None:
    for x, old in zip(xs, saved):
        _restore(env, x, old)


def satisfies_direct(
    interp: Interpretation, sentence: Formula, registry: Registry
) -> bool:
    """Truth of a sentence in an interpretation, without grounding."""
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


def satisfies_program(interp: Interpretation, program: Program, registry: Registry) -> bool:
    """Does the interpretation satisfy every rule's universal closure?"""
    for rule, env in _instances(program, interp):
        if _eval(rule.body, interp, registry, env) and not _eval(
            rule.head, interp, registry, env
        ):
            return False
    return True


def _fired(program: Program, interp: Interpretation, registry: Registry):
    """The rule instances whose body holds in ``interp``, lazily: a body
    that raises does so only once the instances before it are used."""
    for rule, env in _instances(program, interp):
        if _eval(rule.body, interp, registry, env):
            yield rule, env


def flp_reduct(program: Program, interp: Interpretation, registry: Registry) -> tuple:
    """The FLP reduct of the program relative to ``interp``: the rule
    instances ``(rule, env)`` whose body ``interp`` satisfies, in rule
    order and then in sorted assignment order, each with its own env.

    ``eval_flp_transform`` reads only these instances, so a caller that
    tests many smaller valuations against one interpretation computes
    the reduct once and passes it as ``fired``.
    """
    return tuple(_fired(program, interp, registry))


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
                    entries.append((combo, _ground(arg, interp, registry, env)))
            finally:
                _restore_all(env, xs, saved)
            sets.append(PairSet(tuple(entries)))
        return GApply(f.quantifier, tuple(sets))
    raise GqError(f"not a formula: {f!r}")


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
            a = _gsat(sets[0].entries[0][1], atoms, universe, registry)
            if name == "and":
                return a and _gsat(sets[1].entries[0][1], atoms, universe, registry)
            if name == "or":
                return a or _gsat(sets[1].entries[0][1], atoms, universe, registry)
            return not a or _gsat(sets[1].entries[0][1], atoms, universe, registry)
        if name == "exists":
            return any(
                _gsat(child, atoms, universe, registry) for _, child in sets[0].entries
            )
        rels = tuple(
            frozenset(
                key
                for key, child in ps.entries
                if _gsat(child, atoms, universe, registry)
            )
            for ps in sets
        )
        return bool(qdef.truth(universe, rels))
    raise GqError(f"not a ground formula: {g!r}")


# ---------------------------------------------------------------------------
# The stability transformation F*(u)


def eval_star(
    sentence: Formula,
    interp: Interpretation,
    smaller: Iterable[GroundAtom],
    intensional: Iterable[str],
    registry: Registry,
) -> bool:
    """Truth of F*(u) where u is the valuation given by ``smaller``.

    ``smaller`` reinterprets the intensional predicates only; every
    other atom, and one conjunct of every quantifier application, is
    still read from ``interp``.  A quantifier application is true only
    when it holds both under the recursive star reading and under the
    plain reading in ``interp``.

    Both readings come out of one pass that visits each node once per
    ``smaller``; a child is visited only where the two-pass definition
    would visit it, so evaluation fails exactly where that one does.
    """
    preds = frozenset(intensional)
    smaller = frozenset(smaller)
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
    return _force(_eval_both(sentence, interp, smaller, preds, registry, {})[1])


# A star reading is True, False, or a thunk returning one of the two.  A
# thunk stands for work the two-pass definition does only once the star
# reading of an enclosing node is asked for: visiting a subformula that
# the plain reading skipped.  Forcing thunks in the order that definition
# reads the children visits what it visits, in its order, so a program
# raises exactly where it did.  Truth functions are total (verify_profile
# calls them on every relation tuple), so calling one on star relations
# whose reading nobody asks for is harmless.

_FALSE_BOTH = (False, False)
_TRUE_BOTH = (True, True)


def _force(star) -> bool:
    return star if star is True or star is False else star()


def _all_stars(stars: list):
    """The conjunction of star readings, read left to right."""
    for i, s in enumerate(stars):
        if s is False:
            return False
        if s is not True:
            rest = stars[i:]
            return lambda: all(_force(r) for r in rest)
    return True


def _any_stars(stars: list):
    """The disjunction of star readings, read left to right."""
    for i, s in enumerate(stars):
        if s is True:
            return True
        if s is not False:
            rest = stars[i:]
            return lambda: any(_force(r) for r in rest)
    return False


def _star_later(f, interp, j, intensional, registry, env):
    """A thunk for the star reading of ``f``, a node the plain pass did
    not visit, in a copy of the current bindings."""
    env = dict(env)
    return lambda: _force(
        _eval_both(f, interp, j, intensional, registry, env)[1]
    )


def _eval_both(f, interp, j, intensional, registry, env) -> tuple:
    """``(truth of f in interp, star reading of f)`` in one visit per node.

    At an ``Apply`` node the star reading is the plain reading and the
    quantifier applied to the children's star readings, so it is False
    whenever the plain reading is.  The plain reading short-circuits as
    ``_eval`` does; the star reading visits what the plain pass skipped
    only through thunks.
    """
    t = type(f)
    if t is Atom:
        key = (f.pred, tuple(_term_value(a, interp, env) for a in f.args))
        plain = key in interp.atoms
        if f.pred in intensional:
            return plain, key in j
        return plain, plain
    if t is Equality:
        v = _term_value(f.left, interp, env) == _term_value(f.right, interp, env)
        return v, v
    if t is Top:
        return _TRUE_BOTH
    if t is Bot:
        return _FALSE_BOTH
    if t is not Apply:
        raise GqError(f"not a formula: {f!r}")
    name = f.quantifier
    args = f.args
    if f.var_lists == ((), ()):
        if name == "and":
            stars = []
            for part in flatten_spine(f, "and"):
                p, s = _eval_both(part, interp, j, intensional, registry, env)
                if not p:
                    return _FALSE_BOTH
                stars.append(s)
            return True, _all_stars(stars)
        if name == "or":
            pa, sa = _eval_both(args[0], interp, j, intensional, registry, env)
            if pa:
                if sa is True:
                    return _TRUE_BOTH
                later = _star_later(args[1], interp, j, intensional, registry, env)
                return True, _any_stars([sa, later])
            pb, sb = _eval_both(args[1], interp, j, intensional, registry, env)
            if not pb:
                return _FALSE_BOTH
            return True, _any_stars([sa, sb])
        if name == "impl":
            pa, sa = _eval_both(args[0], interp, j, intensional, registry, env)
            if not pa:
                # sa is a bool here; it holds only when J is not below I
                if not sa:
                    return _TRUE_BOTH
                return True, _star_later(
                    args[1], interp, j, intensional, registry, env
                )
            pb, sb = _eval_both(args[1], interp, j, intensional, registry, env)
            if not pb:
                return _FALSE_BOTH
            if sa is False:
                return _TRUE_BOTH
            if sa is True:
                return True, sb
            return True, lambda: not sa() or _force(sb)
    elif (name == "forall" or name == "exists") and _one_binder(f):
        every = name == "forall"
        x = f.var_lists[0][0]
        old = env.get(x, _MISSING)
        plain = every
        stars = []
        try:
            for v in interp.universe_sorted:
                env[x] = v
                if plain and not every:
                    # exists holds in interp; its star reading reads on
                    stars.append(
                        _star_later(args[0], interp, j, intensional, registry, env)
                    )
                    continue
                p, s = _eval_both(args[0], interp, j, intensional, registry, env)
                stars.append(s)
                if p != every:
                    plain = p
                    if every:
                        break
        finally:
            _restore(env, x, old)
        if not plain:
            return _FALSE_BOTH
        return True, (_all_stars(stars) if every else _any_stars(stars))
    qdef = registry.resolve(name)
    _check_shape(f, qdef)
    plain_rels = []
    star_rows = []  # per position: (tuple, star) for every star not False
    deferred = False
    for xs, arg in zip(f.var_lists, args):
        rows = set()
        marked = []
        saved = [env.get(x, _MISSING) for x in xs]
        try:
            for combo in itertools.product(interp.universe_sorted, repeat=len(xs)):
                for x, v in zip(xs, combo):
                    env[x] = v
                p, s = _eval_both(arg, interp, j, intensional, registry, env)
                if p:
                    rows.add(combo)
                if s is not False:
                    marked.append((combo, s))
                    deferred = deferred or s is not True
        finally:
            _restore_all(env, xs, saved)
        plain_rels.append(frozenset(rows))
        star_rows.append(marked)
    universe = interp.universe
    if not qdef.truth(universe, tuple(plain_rels)):
        return _FALSE_BOTH

    def star_truth():
        rels = tuple(
            frozenset(combo for combo, s in marked if _force(s))
            for marked in star_rows
        )
        return bool(qdef.truth(universe, rels))

    return True, (star_truth if deferred else star_truth())


# ---------------------------------------------------------------------------
# The FLP transformation


def eval_flp_transform(
    program: Program,
    interp: Interpretation,
    smaller: Iterable[GroundAtom],
    registry: Registry,
    *,
    fired: Optional[Iterable[tuple]] = None,
) -> bool:
    """Truth of the conjunction, over all rule instances, of
    ``B and B(u) implies H(u)``.

    ``B`` is read in ``interp``; ``B(u)`` and ``H(u)`` reinterpret the
    program's intensional predicates by ``smaller`` while everything
    else keeps its value from ``interp``.  Since ``B`` does not depend
    on u, only the instances of the FLP reduct (``flp_reduct``) can
    fail; ``fired`` is that reduct, computed once per interpretation by
    the caller, or read here as it goes when absent.  Either way each
    instance is read in ``interp`` at most once, and an instance whose
    body raises in ``interp`` raises only after the instances before it
    have been tested, as the instance-by-instance definition does.
    """
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
    if fired is None:
        fired = _fired(program, interp, registry)
    for rule, env in fired:
        if _eval(rule.body, subst, registry, env) and not _eval(
            rule.head, subst, registry, env
        ):
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
