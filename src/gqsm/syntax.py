"""Terms, formulas built from generalized quantifiers, rules, and programs.

A formula is either atomic (an atom, an equality between terms, ``top``,
``bot``) or an application ``Q[x1]...[xk](F1, ..., Fk)`` of a named
quantifier to k argument formulas, each with its own list of bound
variables.  The standard connectives and first-order quantifiers are
ordinary quantifier applications: ``and``/``or``/``impl`` take two
arguments with empty binder lists, ``forall``/``exists`` take one
argument with a single bound variable.  ``not F`` abbreviates
``impl(F, bot)``.
"""
from __future__ import annotations

import operator
import re
from dataclasses import FrozenInstanceError
from typing import Iterator, Optional, Sequence, Union

Element = Union[int, str]

# Words the parser treats specially; they cannot name constants,
# predicates, or quantifiers (the four built-in quantifier names that
# coincide with keywords are registered before user code runs).
RESERVED_WORDS = frozenset({"not", "bot", "top", "forall", "exists"})

_CONST_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
_QNAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*(\(\d+\))?\Z")


class GqError(Exception):
    """Base class for all errors raised by this package."""


def check_element(value: object) -> Element:
    """Validate a universe element (an integer or a lowercase symbol)."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise GqError(f"universe element must be an int or a symbol, got {value!r}")
    if isinstance(value, str):
        if not _CONST_RE.match(value) or value in RESERVED_WORDS:
            raise GqError(f"invalid symbolic element {value!r}")
    return value


def element_key(value: Element):
    """Total order on elements: integers first, then symbols."""
    if isinstance(value, int):
        return (0, value, "")
    return (1, 0, value)


# ---------------------------------------------------------------------------
# Immutable values


class Record:
    """Base of the package's immutable values.

    A subclass names its compared fields in ``_fields``.  The base
    ``__init__`` takes them by position, in that order, or by name; a
    subclass that checks or derives values writes its own, which puts
    the fields, and any derived attribute, into ``__dict__``.  As with a
    frozen dataclass, two records are equal when their class and fields
    are, a record hashes as the tuple of its fields and prints as
    ``Name(field=value, ...)``, and no attribute can be assigned or
    deleted.  Derived attributes are left out of all three.
    """

    _fields = ()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for field in kwargs:
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
        values.update(kwargs)
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() is missing field(s) {', '.join(missing)}")
        self.__dict__.update(values)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields
        get = operator.attrgetter(*fields) if fields else None
        # the tuple of the fields, which attrgetter gives from two on
        key = get if len(fields) > 1 else lambda self: (get(self),) if get else ()
        cls._key = staticmethod(key)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    @classmethod
    def _trusted(cls, **attrs):
        """A record of ``attrs``, fields and derived attributes alike,
        built without ``__init__`` and its checks: only for a caller whose
        values hold what those checks ask, as the parser's do."""
        new = object.__new__(cls)
        new.__dict__.update(attrs)
        return new

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Terms


class Variable(Record):
    _fields = ("name",)

    def __init__(self, name: str):
        if not _VAR_RE.match(name):
            raise GqError(f"variable names start with an uppercase letter: {name!r}")
        self.__dict__["name"] = name

    def __str__(self):
        return self.name


class Constant(Record):
    _fields = ("value",)

    def __init__(self, value: Element):
        self.__dict__["value"] = check_element(value)

    def __str__(self):
        return str(self.value)


Term = Union[Variable, Constant]


def as_term(x: object) -> Term:
    """Coerce ints and strings to terms; uppercase strings become variables."""
    if isinstance(x, (Variable, Constant)):
        return x
    if isinstance(x, bool):
        raise GqError(f"not a term: {x!r}")
    if isinstance(x, int):
        return Constant(x)
    if isinstance(x, str):
        if x[:1].isupper():
            return Variable(x)
        return Constant(x)
    raise GqError(f"not a term: {x!r}")


def term_variables(t: Term) -> frozenset[str]:
    if isinstance(t, Variable):
        return frozenset((t.name,))
    return frozenset()


# ---------------------------------------------------------------------------
# Formulas


class Formula(Record):
    """Base class; all nodes are immutable and compare structurally."""

    def __str__(self):
        from .render import render

        return render(self)


class Atom(Formula):
    _fields = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...] = ()):
        if not _CONST_RE.match(pred) or pred in RESERVED_WORDS:
            raise GqError(f"invalid predicate name {pred!r}")
        self.__dict__.update(pred=pred, args=tuple(as_term(a) for a in args))


class Equality(Formula):
    _fields = ("left", "right")

    def __init__(self, left: Term, right: Term):
        self.__dict__.update(left=as_term(left), right=as_term(right))


class Top(Formula):
    pass


class Bot(Formula):
    pass


TOP = Top()
BOT = Bot()


class Apply(Formula):
    """Application of the quantifier named ``quantifier``.

    ``var_lists[i]`` is the tuple of variables bound for argument ``i``;
    its length must equal the quantifier's declared arity for that
    position (checked against the registry when the formula is parsed,
    evaluated, or grounded).
    """

    _fields = ("quantifier", "var_lists", "args")

    def __init__(
        self,
        quantifier: str,
        var_lists: tuple[tuple[str, ...], ...],
        args: tuple[Formula, ...],
    ):
        if not _QNAME_RE.match(quantifier) or quantifier == "not":
            raise GqError(f"invalid quantifier name {quantifier!r}")
        lists = tuple(tuple(xs) for xs in var_lists)
        for xs in lists:
            for x in xs:
                if not _VAR_RE.match(x):
                    raise GqError(f"invalid bound variable {x!r}")
            if len(set(xs)) != len(xs):
                raise GqError(f"repeated variable in binder list {xs!r}")
        args = tuple(args)
        if len(args) != len(lists):
            raise GqError(
                f"quantifier {quantifier!r} applied to {len(args)} "
                f"arguments but has {len(lists)} binder lists"
            )
        for a in args:
            if not isinstance(a, Formula):
                raise GqError(f"argument is not a formula: {a!r}")
        self.__dict__.update(quantifier=quantifier, var_lists=lists, args=args)


# Convenient constructors.  Conjunction and disjunction fold to the left,
# matching how the parser folds ``,`` and ``;`` chains.


def conj(*formulas: Formula) -> Formula:
    if not formulas:
        return TOP
    out = formulas[0]
    for f in formulas[1:]:
        out = Apply("and", ((), ()), (out, f))
    return out


def disj(*formulas: Formula) -> Formula:
    if not formulas:
        return BOT
    out = formulas[0]
    for f in formulas[1:]:
        out = Apply("or", ((), ()), (out, f))
    return out


def impl(antecedent: Formula, consequent: Formula) -> Formula:
    return Apply("impl", ((), ()), (antecedent, consequent))


def neg(f: Formula) -> Formula:
    return impl(f, BOT)


def forall(var: str, f: Formula) -> Formula:
    return Apply("forall", ((var,),), (f,))


def exists(var: str, f: Formula) -> Formula:
    return Apply("exists", ((var,),), (f,))


def atom(pred: str, *args: object) -> Atom:
    return Atom(pred, tuple(as_term(a) for a in args))


def equality(left: object, right: object) -> Equality:
    return Equality(as_term(left), as_term(right))


def is_atomic(f: Formula) -> bool:
    return isinstance(f, (Atom, Equality, Top, Bot))


def is_bot(f: Formula) -> bool:
    return isinstance(f, Bot) or (isinstance(f, Apply) and f.quantifier == "bot")


def flatten_spine(f: Formula, name: str) -> list[Formula]:
    """The operands of the left spine of plain binary ``name``
    applications, left to right; ``[f]`` when ``f`` is not one.

    This undoes the left fold of ``conj``/``disj`` and of the parser's
    ','/';' chains.  The walk is a loop, so a spine of any length is
    fine.
    """
    rights = []
    while isinstance(f, Apply) and f.quantifier == name and f.var_lists == ((), ()):
        rights.append(f.args[1])
        f = f.args[0]
    rights.append(f)
    rights.reverse()
    return rights


# ---------------------------------------------------------------------------
# Formula walks


def iter_subformulas(f: Formula) -> Iterator[Formula]:
    """Yield ``f`` and every subformula, preorder.  The walk keeps its
    own stack, so a formula of any depth is fine."""
    stack = [f]
    while stack:
        f = stack.pop()
        yield f
        if isinstance(f, Apply):
            stack.extend(reversed(f.args))


def free_variables(f: Formula) -> frozenset[str]:
    """Free variables of a formula.

    Any variable listed in any binder list of an application is treated
    as bound throughout that application, including in argument
    positions other than its own.  A variable that escapes its binder
    list that way has no value there, and grounding or compiling the
    formula reports it as an unbound free variable.  The walk keeps its
    own stack, so a formula of any depth is fine.
    """
    out: set[str] = set()
    stack = [(f, frozenset())]
    while stack:
        f, bound = stack.pop()
        if isinstance(f, Atom):
            terms: Sequence[Term] = f.args
        elif isinstance(f, Equality):
            terms = (f.left, f.right)
        elif isinstance(f, (Top, Bot)):
            continue
        elif isinstance(f, Apply):
            binders = {x for xs in f.var_lists for x in xs}
            if binders:
                bound = bound | binders
            stack.extend((a, bound) for a in reversed(f.args))
            continue
        else:
            raise GqError(f"not a formula: {f!r}")
        for t in terms:
            if isinstance(t, Variable) and t.name not in bound:
                out.add(t.name)
    return frozenset(out)


def constants_in(f: Formula) -> set[Element]:
    out: set[Element] = set()
    for sub in iter_subformulas(f):
        terms: Sequence[Term] = ()
        if isinstance(sub, Atom):
            terms = sub.args
        elif isinstance(sub, Equality):
            terms = (sub.left, sub.right)
        for t in terms:
            if isinstance(t, Constant):
                out.add(t.value)
    return out


def predicates_in(f: Formula) -> dict[str, int]:
    out: dict[str, int] = {}
    for sub in iter_subformulas(f):
        if isinstance(sub, Atom):
            arity = len(sub.args)
            known = out.setdefault(sub.pred, arity)
            if known != arity:
                raise GqError(
                    f"predicate {sub.pred!r} used with arities {known} and {arity}"
                )
    return out


# ---------------------------------------------------------------------------
# Rules and programs


class Rule(Record):
    """``head :- body``; facts have body ``top``, constraints head ``bot``.
    ``variables``, the sorted free variables of head and body, is
    computed once."""

    _fields = ("head", "body")

    def __init__(self, head: Formula, body: Formula):
        variables = tuple(sorted(free_variables(head) | free_variables(body)))
        self.__dict__.update(head=head, body=body, variables=variables)

    def free_variables(self) -> frozenset[str]:
        return frozenset(self.variables)


class Program(Record):
    """A rule list plus its universe and intensional predicate set.

    ``intensional=None`` defaults to every predicate occurring in the
    rules.  ``signature``, derived from the rules, maps each predicate to
    its arity; it does not participate in equality.
    """

    _fields = ("rules", "universe", "intensional")

    def __init__(
        self,
        rules: tuple[Rule, ...],
        universe: frozenset[Element],
        intensional: Optional[frozenset[str]] = None,
    ):
        rules = tuple(rules)
        for r in rules:
            if not isinstance(r, Rule):
                raise GqError(f"not a rule: {r!r}")

        universe = frozenset(check_element(e) for e in universe)
        if not universe:
            raise GqError("the universe must not be empty")

        signature = {}
        constants: set[Element] = set()
        for r in rules:
            for f in (r.head, r.body):
                for pred, arity in predicates_in(f).items():
                    known = signature.setdefault(pred, arity)
                    if known != arity:
                        raise GqError(
                            f"predicate {pred!r} used with arities {known} and {arity}"
                        )
                constants |= constants_in(f)
        stray = constants - universe
        if stray:
            shown = ", ".join(str(c) for c in sorted(stray, key=element_key))
            raise GqError(f"constants outside the universe: {shown}")

        if intensional is None:
            intensional = frozenset(signature)
        else:
            intensional = frozenset(intensional)
            unknown = intensional - set(signature)
            if unknown:
                raise GqError(
                    "intensional predicates not used in any rule: "
                    + ", ".join(sorted(unknown))
                )
        self.__dict__.update(
            rules=rules, universe=universe, intensional=intensional, signature=signature
        )

    @property
    def all_intensional(self) -> bool:
        return self.intensional == frozenset(self.signature)

    def universe_sorted(self) -> tuple[Element, ...]:
        return tuple(sorted(self.universe, key=element_key))

    def __str__(self):
        from .render import render

        return render(self)
