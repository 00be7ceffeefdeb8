"""Quantifier definitions, the registry of named quantifiers, built-ins.

A quantifier of type ``<n1, ..., nk>`` maps k relations (relation i is a
set of length-``ni`` tuples over the universe) to a truth value, for
every universe.  Nullary positions use the empty tuple, so a relation
for a 0-ary position is either ``{()}`` or the empty set; that is how
the propositional connectives fit the same mold.

Monotonicity is declared metadata, one flag per argument position, and
can be verified exhaustively on small universes (``verify_profile``).
The class analyzer in :mod:`gqsm.solver` trusts these flags.
"""
from __future__ import annotations

import enum
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .syntax import _CONST_RE, Element, GqError, RESERVED_WORDS, check_element, element_key

Relation = frozenset
TruthFunction = Callable[[frozenset, tuple[Relation, ...]], bool]

_FAMILY_RE = re.compile(r"(atmost|atleast)\((\d+)\)\Z")


class Mono(enum.Enum):
    MONOTONE = "monotone"
    ANTIMONOTONE = "antimonotone"
    NEITHER = "neither"


class RegistryError(GqError):
    pass


class UnknownQuantifierError(GqError):
    pass


class RelationError(GqError):
    pass


@dataclass(frozen=True)
class QuantifierDef:
    """A named quantifier: its type, truth function, monotonicity flags."""

    name: str
    arities: tuple[int, ...]
    truth: TruthFunction
    mono: tuple[Mono, ...]

    def __post_init__(self):
        object.__setattr__(self, "arities", tuple(self.arities))
        object.__setattr__(self, "mono", tuple(self.mono))
        for n in self.arities:
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise GqError(f"arity must be a nonnegative int, got {n!r}")
        if len(self.mono) != len(self.arities):
            raise GqError(
                f"quantifier {self.name!r}: {len(self.arities)} argument "
                f"positions but {len(self.mono)} monotonicity flags"
            )
        for m in self.mono:
            if not isinstance(m, Mono):
                raise GqError(f"monotonicity flag must be a Mono value, got {m!r}")

    @property
    def monotone_everywhere(self) -> bool:
        return all(m is Mono.MONOTONE for m in self.mono)


# ---------------------------------------------------------------------------
# Built-in truth functions.  Relations arrive as frozensets of tuples that
# are already validated (or produced internally), so these stay lean.


def _t_top(universe, rels):
    return True


def _t_bot(universe, rels):
    return False


def _t_and(universe, rels):
    return bool(rels[0]) and bool(rels[1])


def _t_or(universe, rels):
    return bool(rels[0]) or bool(rels[1])


def _t_impl(universe, rels):
    return not rels[0] or bool(rels[1])


def _t_forall(universe, rels):
    return len(rels[0]) == len(universe)


def _t_exists(universe, rels):
    return bool(rels[0])


def _t_majority(universe, rels):
    # |R| > |U \ R|, with R a subset of U
    return 2 * len(rels[0]) > len(universe)


def _sum_of(rel) -> int | None:
    """Sum of a set of singleton tuples; None when any member is not an int.

    The empty sum is 0.
    """
    total = 0
    for t in rel:
        v = t[0]
        if isinstance(v, bool) or not isinstance(v, int):
            return None
        total += v
    return total


def _count_of(rel) -> int:
    return len(rel)


def _single_int(rel) -> int | None:
    """The sole element of a singleton {(b,)} with b an integer, else None."""
    if len(rel) != 1:
        return None
    (t,) = rel
    v = t[0]
    if isinstance(v, bool) or not isinstance(v, int):
        return None
    return v


CMP_SYMBOLS = {"lt": "<", "le": "<=", "eq": "=", "ne": "!=", "ge": ">=", "gt": ">"}

_CMP = {key: getattr(operator, key) for key in CMP_SYMBOLS}

AGGREGATE_FAMILIES = ("sum", "count")

# The built-in aggregates by name, ``sum_lt`` to ``count_gt``: the measure
# of the first relation, None off the integers, and its comparison with
# the bound, the one integer of the second.  ``ground`` reads an
# aggregate over an atom argument off the same table.
AGGREGATES = {
    f"{family}_{key}": (measure, cmp)
    for family, measure in zip(AGGREGATE_FAMILIES, (_sum_of, _count_of))
    for key, cmp in _CMP.items()
}


def _make_aggregate(name: str) -> TruthFunction:
    measure, cmp = AGGREGATES[name]

    def truth(universe, rels):
        value = measure(rels[0])
        bound = _single_int(rels[1])
        if value is None or bound is None:
            return False
        return cmp(value, bound)

    return truth


def _make_atmost(k: int) -> TruthFunction:
    def truth(universe, rels):
        return len(rels[0]) <= k

    return truth


def _make_atleast(k: int) -> TruthFunction:
    def truth(universe, rels):
        return len(rels[0]) >= k

    return truth


def _builtin_defs() -> dict[str, QuantifierDef]:
    M, A, N = Mono.MONOTONE, Mono.ANTIMONOTONE, Mono.NEITHER
    defs = [
        QuantifierDef("top", (), _t_top, ()),
        QuantifierDef("bot", (), _t_bot, ()),
        QuantifierDef("and", (0, 0), _t_and, (M, M)),
        QuantifierDef("or", (0, 0), _t_or, (M, M)),
        QuantifierDef("impl", (0, 0), _t_impl, (A, M)),
        QuantifierDef("forall", (1,), _t_forall, (M,)),
        QuantifierDef("exists", (1,), _t_exists, (M,)),
        QuantifierDef("majority", (1,), _t_majority, (M,)),
    ]
    # SUM is undefined off the integers, so its truth can flip either way
    # when the first relation grows; COUNT in the first position follows
    # the comparison's direction.  The bound position must stay a
    # singleton, hence NEITHER there across the board.
    count_first = {"lt": A, "le": A, "eq": N, "ne": N, "ge": M, "gt": M}
    for name in AGGREGATES:
        family, key = name.split("_")
        first = count_first[key] if family == "count" else N
        defs.append(QuantifierDef(name, (1, 1), _make_aggregate(name), (first, N)))
    return {d.name: d for d in defs}


_BUILTINS = _builtin_defs()


def _family_instance(name: str) -> QuantifierDef | None:
    m = _FAMILY_RE.match(name)
    if not m:
        return None
    kind, k = m.group(1), int(m.group(2))
    if kind == "atmost":
        return QuantifierDef(name, (1,), _make_atmost(k), (Mono.ANTIMONOTONE,))
    return QuantifierDef(name, (1,), _make_atleast(k), (Mono.MONOTONE,))


def is_builtin_name(name: str) -> bool:
    return name in _BUILTINS or _FAMILY_RE.match(name) is not None


# ---------------------------------------------------------------------------
# Registry


class Registry:
    """Named quantifiers available to the parser, evaluator, and solver.

    Built-ins are pre-registered and cannot be shadowed.  ``atmost(k)``
    and ``atleast(k)`` are built-in families instantiated on demand.
    After ``freeze()`` no further registrations are accepted, so a
    frozen registry can be shared between threads.
    """

    def __init__(self, quantifiers: Iterable[QuantifierDef] = ()):
        self._defs: dict[str, QuantifierDef] = dict(_BUILTINS)
        self._frozen = False
        for q in quantifiers:
            self.register(q)

    def register(self, qdef: QuantifierDef) -> None:
        """Add a user quantifier; its profile is trusted (see verify_profile)."""
        if self._frozen:
            raise RegistryError("registry is frozen")
        if not isinstance(qdef, QuantifierDef):
            raise RegistryError(f"not a QuantifierDef: {qdef!r}")
        name = qdef.name
        if not _CONST_RE.match(name):
            raise RegistryError(f"invalid quantifier name {name!r}")
        if name in RESERVED_WORDS or is_builtin_name(name) or name in AGGREGATE_FAMILIES:
            raise RegistryError(f"cannot shadow built-in quantifier {name!r}")
        if name in self._defs:
            raise RegistryError(f"duplicate quantifier {name!r}")
        self._defs[name] = qdef

    def resolve(self, name: str) -> QuantifierDef:
        qdef = self._defs.get(name)
        if qdef is not None:
            return qdef
        qdef = _family_instance(name)
        if qdef is not None:
            # Pure cache: the instance is deterministic, so inserting it
            # after a freeze does not change observable state.
            self._defs[name] = qdef
            return qdef
        raise UnknownQuantifierError(f"unknown quantifier {name!r}")

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except UnknownQuantifierError:
            return False
        return True

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._defs))

    def freeze(self) -> None:
        self._frozen = True

    @property
    def frozen(self) -> bool:
        return self._frozen

    def evaluate(
        self,
        name: str,
        universe: Iterable[Element],
        relations: Sequence[Iterable],
    ) -> bool:
        """Evaluate one quantifier on explicit relations.

        Convenience entry point: members of an arity-1 relation may be
        given as bare elements instead of singleton tuples.
        """
        qdef = self.resolve(name)
        u = frozenset(check_element(e) for e in universe)
        if len(relations) != len(qdef.arities):
            raise RelationError(
                f"{name!r} expects {len(qdef.arities)} relations, "
                f"got {len(relations)}"
            )
        normalized = []
        for n, rel in zip(qdef.arities, relations):
            rows = set()
            for row in rel:
                if not isinstance(row, tuple):
                    row = (row,)
                if len(row) != n:
                    raise RelationError(
                        f"{name!r}: relation row {row!r} does not have arity {n}"
                    )
                for v in row:
                    check_element(v)
                    if v not in u:
                        raise RelationError(
                            f"{name!r}: relation member {v!r} is outside the universe"
                        )
                rows.add(row)
            normalized.append(frozenset(rows))
        return bool(qdef.truth(u, tuple(normalized)))


# ---------------------------------------------------------------------------
# Exhaustive verification of declared monotonicity flags


def _powerset(items: Sequence) -> list[frozenset]:
    out = []
    for size in range(len(items) + 1):
        out.extend(frozenset(c) for c in itertools.combinations(items, size))
    return out


def _row_key(row: tuple[Element, ...]):
    return tuple(element_key(v) for v in row)


def _sorted_rows(rel) -> list[tuple[Element, ...]]:
    return sorted(rel, key=_row_key)


def _relation_space(universe_sorted: tuple[Element, ...], arity: int) -> list[frozenset]:
    rows = list(itertools.product(universe_sorted, repeat=arity))
    return _powerset(rows)


def verify_profile(
    qdef: QuantifierDef,
    elements: Sequence[Element] = (-2, -1, 0, 1, 2),
    max_size: int = 3,
    budget: int = 1 << 18,
) -> list[str]:
    """Check declared MONOTONE/ANTIMONOTONE flags on all small universes.

    Exhaustive over every universe drawn from ``elements`` with size
    1..``max_size`` and every combination of relations.  Returns a list
    of human-readable violations, empty when the declaration holds.
    NEITHER positions make no claim and are not checked.
    """
    checked_positions = [
        i for i, m in enumerate(qdef.mono) if m is not Mono.NEITHER
    ]
    if not checked_positions:
        return []
    problems: list[str] = []
    pool = sorted(set(elements), key=element_key)
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(pool, size):
            universe = frozenset(combo)
            u_sorted = tuple(combo)
            spaces = [_relation_space(u_sorted, n) for n in qdef.arities]
            total = 1
            for s in spaces:
                total *= len(s)
            if total > budget:
                raise GqError(
                    f"verification of {qdef.name!r} needs {total} cases on a "
                    f"size-{size} universe, over the budget of {budget}"
                )
            for rels in itertools.product(*spaces):
                if not qdef.truth(universe, tuple(rels)):
                    continue
                for i in checked_positions:
                    rows = list(itertools.product(u_sorted, repeat=qdef.arities[i]))
                    if qdef.mono[i] is Mono.MONOTONE:
                        extra = [r for r in rows if r not in rels[i]]
                        variants = (rels[i] | add for add in _powerset(extra))
                    else:
                        variants = (
                            rels[i] - drop for drop in _powerset(_sorted_rows(rels[i]))
                        )
                    for variant in variants:
                        changed = rels[:i] + (frozenset(variant),) + rels[i + 1 :]
                        if not qdef.truth(universe, tuple(changed)):
                            problems.append(
                                f"{qdef.name}: position {i + 1} declared "
                                f"{qdef.mono[i].value} but truth flips on "
                                f"universe {sorted(universe, key=element_key)} "
                                f"when {_sorted_rows(rels[i])} becomes "
                                f"{_sorted_rows(variant)}"
                            )
                            break
    return problems
