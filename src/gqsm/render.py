"""Text form of formulas, rules, programs, and ground formulas.

Rendering and parsing are inverse on everything the parser can build:
``parse(render(x))`` reproduces ``x`` node for node.  Sugared forms are
re-detected structurally, so an aggregate application prints as
``sum{X : p(X)} < 2`` again rather than as its desugared shape.

Ground formulas print with spaced braces and explicit pair-sets, e.g.
``sum{ -1 : p(-1); 1 : p(1); 2 : bot } > -1``; they are display only
and have no parser.  One printer serves both algebras: the connectives
print by the same rules, and only the leaves and the other
applications depend on the kind of node.
"""
from __future__ import annotations

from .syntax import (
    Apply,
    Atom,
    Bot,
    Equality,
    Formula,
    GqError,
    Program,
    Rule,
    Top,
    Variable,
    free_variables,
    term_variables,
)
from .quantifiers import AGGREGATES, CMP_SYMBOLS
from .ground import (
    G_BOT,
    G_TOP,
    GApply,
    GBot,
    GroundAtom,
    GroundFormula,
    GTop,
    _binary,
)
from .reduct import ReductResult

# Precedence levels: "->" 1 (right associative), "|" 2, "&" 3, "not" 4,
# everything else is primary at 5.


def render(x) -> str:
    if isinstance(x, (Formula, GroundFormula)):
        return _text(x, 1)
    if isinstance(x, Rule):
        return _render_rule(x)
    if isinstance(x, Program):
        return _render_program(x)
    if isinstance(x, ReductResult):
        return _text(x.formula, 1)
    if isinstance(x, (list, tuple)):
        return "\n".join(render(e) for e in x)
    raise GqError(f"cannot render {x!r}")


# ---------------------------------------------------------------------------
# Connectives, of formulas and ground formulas alike


def _plain_sides(g: GroundFormula):
    """The two sides of a plain binary ``and``, ``or`` or ``impl``: two
    pair-sets, each one entry keyed ``()``.  None for anything else."""
    if isinstance(g, GApply) and g.quantifier in ("and", "or", "impl"):
        sets = g.sets
        if len(sets) == 2 and len(sets[0]) == 1 and len(sets[1]) == 1:
            ((k0, a),), ((k1, b),) = sets[0].entries, sets[1].entries
            if k0 == () and k1 == ():
                return a, b
    return None


def _sides(x):
    """The two operands of ``x`` when it prints as a binary connective:
    a formula applying ``and``, ``or`` or ``impl`` with two empty binder
    lists, or a ground formula ``_plain_sides`` reads.  None otherwise."""
    if isinstance(x, Apply):
        if x.quantifier in ("and", "or", "impl") and x.var_lists == ((), ()):
            return x.args
        return None
    return _plain_sides(x)


def _spine(x, name: str) -> list:
    """The operands of the left spine of ``name`` connectives from ``x``,
    left to right; ``[x]`` when ``x`` is not one.  On a formula this is
    ``syntax.flatten_spine``.  The walk is a loop, so a spine of any
    length is fine."""
    rights = []
    sides = _sides(x)
    while sides is not None and x.quantifier == name:
        x, right = sides
        rights.append(right)
        sides = _sides(x)
    rights.append(x)
    rights.reverse()
    return rights


def _negand(x):
    """The operand of ``x`` when ``x`` prints as ``not F``; None otherwise."""
    sides = _sides(x)
    if sides is not None and x.quantifier == "impl":
        a, b = sides
        if isinstance(b, (Bot, GBot)) and not isinstance(
            a, (Top, Bot, Equality, GTop, GBot)
        ):
            return a
    return None


def _text(x, min_level: int) -> str:
    text, level = _node(x)
    return f"({text})" if level < min_level else text


def _node(x) -> tuple[str, int]:
    sides = _sides(x)
    if sides is None:
        return _primary(x), 5
    name = x.quantifier
    if name == "impl":
        a, b = sides
        if isinstance(b, Bot) and isinstance(a, Equality):
            return f"{a.left} != {a.right}", 5
        # A chain of negations is read in a loop, so its length costs no
        # stack.
        nots, inner = 0, _negand(x)
        while inner is not None:
            nots, x, inner = nots + 1, inner, _negand(inner)
        if nots:
            return "not " * nots + _text(x, 4), 4
        return f"{_text(a, 2)} -> {_text(b, 1)}", 1
    # So is a left spine of "&" or of "|".
    level, op = (3, " & ") if name == "and" else (2, " | ")
    bottom, *rights = _spine(x, name)
    parts = [_text(bottom, level)] + [_text(right, level + 1) for right in rights]
    return op.join(parts), level


# ---------------------------------------------------------------------------
# Leaves and applications


def _primary(x) -> str:
    if isinstance(x, GroundAtom):
        return str(x)
    if isinstance(x, Atom):
        if not x.args:
            return x.pred
        return f"{x.pred}({', '.join(str(a) for a in x.args)})"
    if isinstance(x, (Top, GTop)):
        return "top"
    if isinstance(x, (Bot, GBot)):
        return "bot"
    if isinstance(x, Equality):
        return f"{x.left} = {x.right}"
    if isinstance(x, Apply):
        return _application(x)
    if isinstance(x, GApply):
        agg = _ground_aggregate_parts(x)
        if agg is not None:
            family, sym, bound = agg
            return f"{family}{{ {_set_body(x.sets[0])} }} {sym} {bound}"
        return x.quantifier + "".join(f"{{ {_set_body(s)} }}" for s in x.sets)
    raise GqError(f"cannot render {x!r}")


def _application(f: Apply) -> str:
    name = f.quantifier
    if name in ("top", "bot") and not f.args:
        return name
    agg = _aggregate_parts(f)
    if agg is not None:
        family, sym, x, body, bound = agg
        return f"{family}{{{x} : {_text(body, 1)}}} {sym} {bound}"
    if name in ("forall", "exists") and len(f.args) == 1 and len(f.var_lists[0]) == 1:
        return f"{name} {f.var_lists[0][0]} ({_text(f.args[0], 1)})"
    if len(f.args) == 1 and len(f.var_lists[0]) >= 1:
        xs = ", ".join(f.var_lists[0])
        return f"{name}{{{xs} : {_text(f.args[0], 1)}}}"
    if not f.args:
        return f"{name}()"
    brackets = "".join(f"[{','.join(xs)}]" for xs in f.var_lists)
    args = "; ".join(_text(a, 1) for a in f.args)
    return f"{name}{brackets}({args})"


def _aggregate_parts(f: Apply):
    """If ``f`` is a desugared aggregate, return (family, symbol, var,
    body, bound term); otherwise None."""
    if f.quantifier not in AGGREGATES:
        return None
    if len(f.var_lists) != 2 or len(f.args) != 2:
        return None
    first, second = f.var_lists
    if len(first) != 1 or len(second) != 1:
        return None
    x, y = first[0], second[0]
    body, eq = f.args
    if not isinstance(eq, Equality):
        return None
    if not isinstance(eq.left, Variable) or eq.left.name != y:
        return None
    if y == x or y in free_variables(body) or y in term_variables(eq.right):
        return None
    family, key = f.quantifier.split("_")
    return family, CMP_SYMBOLS[key], x, body, eq.right


def _key_str(key: tuple) -> str:
    return ", ".join(str(v) for v in key)


def _set_body(ps) -> str:
    return "; ".join(
        f"{_key_str(key)} : {_text(child, 1)}" if key else _text(child, 1)
        for key, child in ps.entries
    )


def _ground_aggregate_parts(g: GApply):
    """If the second pair-set marks exactly one key true, the
    application prints as an aggregate with that key as its bound."""
    if g.quantifier not in AGGREGATES or len(g.sets) != 2:
        return None
    bound = None
    for key, child in g.sets[1].entries:
        if len(key) != 1:
            return None
        if isinstance(child, GTop):
            if bound is not None:
                return None
            bound = key[0]
        elif not isinstance(child, GBot):
            return None
    if bound is None:
        return None
    family, key = g.quantifier.split("_")
    return family, CMP_SYMBOLS[key], bound


# ---------------------------------------------------------------------------
# Rules and programs


def _render_rule(r: Rule) -> str:
    if isinstance(r.head, Bot):
        return f":- {_render_body(r.body)}."
    head = "; ".join(_text(p, 1) for p in _spine(r.head, "or"))
    if isinstance(r.body, Top):
        return f"{head}."
    return f"{head} :- {_render_body(r.body)}."


def _render_body(body: Formula) -> str:
    return ", ".join(_text(p, 1) for p in _spine(body, "and"))


def _render_program(p: Program) -> str:
    elems = ", ".join(str(e) for e in p.universe_sorted())
    lines = [f"#universe {{{elems}}}."]
    if p.intensional:
        lines.append(f"#intensional {', '.join(sorted(p.intensional))}.")
    else:
        lines.append("#intensional.")
    for r in p.rules:
        lines.append(_render_rule(r))
    return "\n".join(lines)


def render_ground_rule(g: GroundFormula) -> str:
    """Render a ground rule with its top-level implication always shown
    as an arrow, even when the consequent is ``bot``."""
    sides = _plain_sides(g)
    if sides is not None and g.quantifier == "impl":
        a, b = sides
        return f"{_text(a, 2)} -> {_text(b, 1)}"
    return _text(g, 1)


# ---------------------------------------------------------------------------
# Display simplification of ground formulas


def simplify_ground(g: GroundFormula) -> GroundFormula:
    """Fold truth constants through the binary connectives.

    Only ``and``, ``or``, and ``impl`` nodes are touched; quantifier
    applications proper (aggregates included) are kept exactly as they
    are, so the pair-sets a reduct produced stay visible.  A negated
    formula ``F -> bot`` is kept when F does not fold away.  A left
    spine of one connective is folded in a loop, from its bottom up.
    """
    if _plain_sides(g) is None:
        return g
    name = g.quantifier
    bottom, *rights = _spine(g, name)
    a = simplify_ground(bottom)
    for right in rights:
        a = _fold(name, a, simplify_ground(right))
    return a


def _fold(name: str, a: GroundFormula, b: GroundFormula) -> GroundFormula:
    """The connective ``name`` of the simplified sides ``a`` and ``b``,
    with truth constants folded away."""
    if name == "impl":
        if isinstance(a, GBot) or isinstance(b, GTop):
            return G_TOP
        if isinstance(a, GTop):
            return b
    elif name == "and":
        if isinstance(a, GBot) or isinstance(b, GBot):
            return G_BOT
        if isinstance(a, GTop):
            return b
        if isinstance(b, GTop):
            return a
    else:
        if isinstance(a, GTop) or isinstance(b, GTop):
            return G_TOP
        if isinstance(a, GBot):
            return b
        if isinstance(b, GBot):
            return a
    return _binary(name, ((), a), ((), b))


def simplify_rule_sides(g: GroundFormula) -> GroundFormula:
    """Simplify the two sides of a ground rule separately.

    The rule's own arrow is never folded away, so a rule whose body
    reduces to ``top`` still reads ``top -> head`` rather than just the
    head; anything that is not an implication is simplified whole.
    """
    sides = _plain_sides(g)
    if sides is not None and g.quantifier == "impl":
        a, b = map(simplify_ground, sides)
        return _binary("impl", ((), a), ((), b))
    return simplify_ground(g)
