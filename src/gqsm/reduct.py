"""Reducts of ground formulas, and minimal models of the result.

The reduct of a ground formula relative to a set of atoms replaces
every maximal subformula not satisfied by those atoms with ``bot``, in
one walk, children before parent; ``top`` and ``bot`` are left alone
and never counted as replacements.

Truth here is read on the ground formula, as ``ground._gsat`` reads it:
the built-in connectives and binders by their shape, and only the
generalized quantifiers through the registry.  The reduct route does not
read the stability operator's compiled nodes, so it checks the paper's
theorem independently of them.
"""
from __future__ import annotations

import itertools
import os
from typing import Iterable, Optional

from .syntax import Element, GqError, Record
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
    _binary,
    _checked_atoms,
    _gsat,
    _resolved,
    _sides,
    _spine,
    atom_set_key,
)

DEFAULT_ATOM_CAP = 20
CAP_ENV_VAR = "GQSM_ATOM_CAP"


class EnumerationCapError(GqError):
    """Raised instead of enumerating an unreasonably large subset space."""

    def __init__(self, size: int, cap: int):
        super().__init__(
            f"{size} atoms would mean 2**{size} candidate sets; "
            f"the cap is {cap} (set GQSM_ATOM_CAP or pass cap= to raise it)"
        )
        self.size = size
        self.cap = cap


def resolve_cap(cap: Optional[int] = None) -> int:
    """The atom cap: ``cap`` when given, else the environment, else the
    default.  A negative cap is an error, wherever it comes from."""
    source = "the atom cap (--cap or cap=)"
    if cap is None:
        raw = os.environ.get(CAP_ENV_VAR)
        if raw is None:
            return DEFAULT_ATOM_CAP
        try:
            cap, source = int(raw), CAP_ENV_VAR
        except ValueError:
            raise GqError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 0:
        raise GqError(f"{source} must not be negative, got {cap}")
    return cap


class ReductResult(Record):
    _fields = ("formula", "replaced")

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

    One walk returns each node's reduct, its truth in ``atoms`` and the
    replacements inside it, reading the children left to right before
    the node, with no short circuit, so an error is raised wherever one
    is met.  A subtree shared by two parents, as grounding shares a
    generalized quantifier application, is read once per occurrence.
    Built-ins are read by their shape, as in ``ground._gsat``; only a
    generalized quantifier, or a misshapen built-in, is resolved in the
    registry and checked against its pair-set count, as ``_gsat`` does,
    before its arguments are read.  A left-deep ``and`` or ``or`` spine
    is read in a loop.  Kept nodes reuse checked pair-sets unchecked.
    """
    u = frozenset(universe)
    atoms = frozenset(atoms)

    def walk(n):
        t = type(n)
        if t is GroundAtom:
            return (n, True, 0) if n in atoms else (G_BOT, False, 1)
        if t is GTop or t is GBot:
            return n, t is GTop, 0
        if t is not GApply:
            raise GqError(f"not a ground formula: {n!r}")
        name, sets = n.quantifier, n.sets
        bottom, nodes = _spine(n, name) if name == "and" or name == "or" else (n, ())
        if nodes:
            # each step leaves the answer a walk of the prefix would give
            stop = name == "or"
            out, v, count = walk(bottom)
            for node, right in nodes:
                kept, held, inside = walk(right)
                v = (v or held) if stop else (v and held)
                if v:
                    ((k0, _),), ((k1, _),) = node.sets[0].entries, node.sets[1].entries
                    out, count = _binary(name, (k0, out), (k1, kept)), count + inside
                else:
                    out, count = G_BOT, 1
            return out, v, count
        connective = name == "impl" and _sides(n) is not None
        binder = name in _BINDERS and len(sets) == 1
        qdef = None if connective or binder else _resolved(name, sets, registry)
        kept_sets, rels, count = [], [], 0
        for ps in sets:
            rows, held = [], []
            for k, c in ps.entries:
                kept, v, inside = walk(c)
                rows.append((k, kept))
                if v:
                    held.append(k)
                count += inside
            kept_sets.append(PairSet._sorted(tuple(rows)))
            rels.append(frozenset(held))
        if connective:
            v = not rels[0] or bool(rels[1])
        elif binder:
            v = bool(rels[0]) if name == "exists" else len(rels[0]) == len(u)
        else:
            v = bool(qdef.truth(u, tuple(rels)))
        if not v:
            return G_BOT, False, 1
        return GApply._of(name, tuple(kept_sets)), True, count

    formula, _, replaced = walk(g)
    return ReductResult(formula, replaced)


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
    cap: Optional[int] = None,
) -> tuple:
    """All minimal (by inclusion) subsets of ``base`` satisfying every
    formula, enumerated in ascending cardinality so supersets of a hit
    can be skipped.  ``base`` is checked as an ``Interpretation``'s atoms
    are.  The cap is ``resolve_cap(cap)``, as in the solver."""
    u = frozenset(universe)
    pool = sorted(_checked_atoms(base, u), key=GroundAtom.sort_key)
    limit = resolve_cap(cap)
    if len(pool) > limit:
        raise EnumerationCapError(len(pool), limit)
    formulas = tuple(formulas)
    found: list = []
    for combo in _subsets_ascending(pool):
        s = frozenset(combo)
        if any(m <= s for m in found):
            continue
        if all(_gsat(g, s, u, registry) for g in formulas):
            found.append(s)
    return tuple(sorted(found, key=atom_set_key))
