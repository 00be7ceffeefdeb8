"""Reducts of ground formulas, and minimal models of the result.

The reduct of a ground formula relative to a set of atoms replaces
every maximal subformula not satisfied by those atoms with ``bot``;
satisfied parts are kept and rebuilt recursively.  ``top`` and ``bot``
are left alone and never counted as replacements.

Truth here is read on the ground formula, as ``ground._gsat`` reads it:
the built-in connectives and binders by their shape, and only the
generalized quantifiers through the registry.  The reduct route does not
read the stability operator's compiled nodes, so it checks the paper's
theorem independently of them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .syntax import Element, GqError
from .quantifiers import Registry
from .ground import (
    G_BOT,
    GApply,
    GBot,
    GroundAtom,
    GroundFormula,
    GTop,
    PairSet,
    _BINDERS,
    _and_spine,
    _binary,
    _gsat,
    _sides,
    atom_set_key,
)

DEFAULT_ATOM_CAP = 20


class EnumerationCapError(GqError):
    """Raised instead of enumerating an unreasonably large subset space."""

    def __init__(self, size: int, cap: int):
        super().__init__(
            f"{size} atoms would mean 2**{size} candidate sets; "
            f"the cap is {cap} (set GQSM_ATOM_CAP or pass cap= to raise it)"
        )
        self.size = size
        self.cap = cap


def check_cap(cap: int, source: str) -> int:
    """``cap``, unless it is negative; ``source`` names where it came from."""
    if cap < 0:
        raise GqError(f"{source} must not be negative, got {cap}")
    return cap


@dataclass(frozen=True)
class ReductResult:
    formula: GroundFormula
    replaced: int

    def __str__(self):
        return str(self.formula)


def reduct(
    g: GroundFormula,
    atoms: Iterable[GroundAtom],
    universe: Iterable[Element],
    registry: Registry,
) -> ReductResult:
    """The reduct of ``g`` relative to ``atoms``: each maximal subformula
    that ``atoms`` do not satisfy becomes ``bot``, and ``replaced`` counts
    them.

    Every node's truth is read once, and every instance of every node is
    read, so an error is raised wherever one is met.  The built-ins are
    read by their shape, as in ``ground._gsat``, and only a generalized
    quantifier, or a misshapen built-in, goes through the registry.  A
    left-deep ``and`` spine is read, and rebuilt, in a loop.  The kept
    nodes are rebuilt from pair-sets that were checked already, so they
    are not checked again.
    """
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
        elif t is GroundAtom:
            v = n in atoms
        elif t is GApply:
            v = sat_apply(n)
        else:
            raise GqError(f"not a ground formula: {n!r}")
        memo[key] = v
        return v

    def sat_apply(n) -> bool:
        # Both sides of a connective are read, the left first, whatever
        # the left says.
        name = n.quantifier
        if name == "and":
            bottom, nodes = _and_spine(n)
            if nodes:
                v = sat(bottom)
                for node, right in nodes:
                    v = sat(right) and v
                    memo[id(node)] = v
                return v
        elif name == "or" or name == "impl":
            sides = _sides(n)
            if sides is not None:
                a, b = sat(sides[0]), sat(sides[1])
                return (a or b) if name == "or" else (not a or b)
        sets = n.sets
        if name in _BINDERS and len(sets) == 1:
            held = [sat(c) for _, c in sets[0].entries]
            return any(held) if name == "exists" else held.count(True) == len(u)
        qdef = registry.resolve(name)
        rels = tuple([frozenset([k for k, c in ps.entries if sat(c)]) for ps in sets])
        return bool(qdef.truth(u, rels))

    replaced = 0

    def rebuild(n):
        nonlocal replaced
        t = type(n)
        if t is GTop or t is GBot:
            return n
        if not sat(n):
            replaced += 1
            return G_BOT
        if t is GroundAtom:
            return n
        # A true and holds on both sides, so its whole spine is kept.
        bottom, nodes = _and_spine(n)
        if nodes:
            out = rebuild(bottom)
            for node, right in nodes:
                ((k0, _),), ((k1, _),) = node.sets[0].entries, node.sets[1].entries
                out = _binary("and", (k0, out), (k1, rebuild(right)))
            return out
        sets = [
            PairSet._sorted(tuple([(k, rebuild(c)) for k, c in ps.entries]))
            for ps in n.sets
        ]
        return GApply._of(n.quantifier, tuple(sets))

    return ReductResult(rebuild(g), replaced)


def reduct_program(
    ground_rules: Iterable[GroundFormula],
    atoms: Iterable[GroundAtom],
    universe: Iterable[Element],
    registry: Registry,
) -> tuple:
    """Reduct of each ground rule, in order."""
    atoms = frozenset(atoms)
    return tuple(reduct(g, atoms, universe, registry) for g in ground_rules)


def _subsets_ascending(pool, largest: Optional[int] = None):
    """The subsets of ``pool`` as tuples, smallest first and in
    ``itertools.combinations`` order within a size; only those of at
    most ``largest`` elements when it is given."""
    for r in range(len(pool) + 1 if largest is None else largest + 1):
        yield from itertools.combinations(pool, r)


def minimal_models(
    formulas: Iterable[GroundFormula],
    base: Iterable[GroundAtom],
    universe: Iterable[Element],
    registry: Registry,
    cap: int = DEFAULT_ATOM_CAP,
) -> tuple:
    """All minimal (by inclusion) subsets of ``base`` satisfying every
    formula, enumerated in ascending cardinality so supersets of a hit
    can be skipped."""
    u = frozenset(universe)
    pool = sorted(frozenset(base), key=GroundAtom.sort_key)
    if len(pool) > check_cap(cap, "cap"):
        raise EnumerationCapError(len(pool), cap)
    formulas = tuple(formulas)
    found: list = []
    for combo in _subsets_ascending(pool):
        s = frozenset(combo)
        if any(m <= s for m in found):
            continue
        if all(_gsat(g, s, u, registry) for g in formulas):
            found.append(s)
    return tuple(sorted(found, key=atom_set_key))
