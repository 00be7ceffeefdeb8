"""Text form of formulas, rules, programs, and ground formulas.

Rendering and parsing are inverse on everything the parser can build:
``parse(render(x))`` reproduces ``x`` node for node.  Sugared forms are
re-detected structurally, so an aggregate application prints as
``sum{X : p(X)} < 2`` again rather than as its desugared shape.

Ground formulas print with spaced braces and explicit pair-sets, e.g.
``sum{ -1 : p(-1); 1 : p(1); 2 : bot } > -1``; they are display only
and have no parser.
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
    flatten_spine,
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
    PairSet,
    _and_spine,
)
from .reduct import ReductResult

# Precedence levels: "->" 1 (right associative), "|" 2, "&" 3, "not" 4,
# everything else is primary at 5.


def render(x) -> str:
    if isinstance(x, Formula):
        return _render(x, 1)
    if isinstance(x, Rule):
        return _render_rule(x)
    if isinstance(x, Program):
        return _render_program(x)
    if isinstance(x, GroundFormula):
        return _render_ground(x, 1)
    if isinstance(x, ReductResult):
        return _render_ground(x.formula, 1)
    if isinstance(x, (list, tuple)):
        return "\n".join(render(e) for e in x)
    raise GqError(f"cannot render {x!r}")


# ---------------------------------------------------------------------------
# Formulas


def _render(f: Formula, min_level: int) -> str:
    text, level = _node(f)
    if level < min_level:
        return f"({text})"
    return text


def _is_plain_pair(f: Apply) -> bool:
    return f.var_lists == ((), ())


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
    from .syntax import Variable

    if not isinstance(eq.left, Variable) or eq.left.name != y:
        return None
    if y == x or y in free_variables(body) or y in term_variables(eq.right):
        return None
    family, key = f.quantifier.split("_")
    return family, CMP_SYMBOLS[key], x, body, eq.right


def _negand(f: Formula):
    """The operand of ``f`` when ``f`` prints as ``not F``; None otherwise."""
    if isinstance(f, Apply) and f.quantifier == "impl" and _is_plain_pair(f):
        a, b = f.args
        if isinstance(b, Bot) and not isinstance(a, (Top, Bot, Equality)):
            return a
    return None


def _node(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        if not f.args:
            return f.pred, 5
        return f"{f.pred}({', '.join(str(a) for a in f.args)})", 5
    if isinstance(f, Equality):
        return f"{f.left} = {f.right}", 5
    if isinstance(f, Top):
        return "top", 5
    if isinstance(f, Bot):
        return "bot", 5
    if isinstance(f, Apply):
        name = f.quantifier
        if name in ("and", "or", "impl") and _is_plain_pair(f):
            a, b = f.args
            if name == "impl":
                if isinstance(b, Bot) and isinstance(a, Equality):
                    return f"{a.left} != {a.right}", 5
                # A chain of negations is read in a loop, so its length
                # costs no stack.
                nots, inner = 0, _negand(f)
                while inner is not None:
                    nots, f, inner = nots + 1, inner, _negand(inner)
                if nots:
                    return "not " * nots + _render(f, 4), 4
                return f"{_render(a, 2)} -> {_render(b, 1)}", 1
            if name == "and":
                return f"{_render(a, 3)} & {_render(b, 4)}", 3
            return f"{_render(a, 2)} | {_render(b, 3)}", 2
        if name in ("top", "bot") and not f.args:
            return name, 5
        agg = _aggregate_parts(f)
        if agg is not None:
            family, sym, x, body, bound = agg
            return f"{family}{{{x} : {_render(body, 1)}}} {sym} {bound}", 5
        if (
            name in ("forall", "exists")
            and len(f.args) == 1
            and len(f.var_lists[0]) == 1
        ):
            return f"{name} {f.var_lists[0][0]} ({_render(f.args[0], 1)})", 5
        if len(f.args) == 1 and len(f.var_lists[0]) >= 1:
            xs = ", ".join(f.var_lists[0])
            return f"{name}{{{xs} : {_render(f.args[0], 1)}}}", 5
        if not f.args:
            return f"{name}()", 5
        brackets = "".join(f"[{','.join(xs)}]" for xs in f.var_lists)
        args = "; ".join(_render(a, 1) for a in f.args)
        return f"{name}{brackets}({args})", 5
    raise GqError(f"cannot render {f!r}")


# ---------------------------------------------------------------------------
# Rules and programs


def _render_rule(r: Rule) -> str:
    if isinstance(r.head, Bot):
        return f":- {_render_body(r.body)}."
    head = "; ".join(_render(p, 1) for p in flatten_spine(r.head, "or"))
    if isinstance(r.body, Top):
        return f"{head}."
    return f"{head} :- {_render_body(r.body)}."


def _render_body(body: Formula) -> str:
    return ", ".join(_render(p, 1) for p in flatten_spine(body, "and"))


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


# ---------------------------------------------------------------------------
# Ground formulas


def _key_str(key: tuple) -> str:
    return ", ".join(str(v) for v in key)


def _set_body(ps: PairSet) -> str:
    parts = []
    for key, child in ps.entries:
        child_str = _render_ground(child, 1)
        if key:
            parts.append(f"{_key_str(key)} : {child_str}")
        else:
            parts.append(child_str)
    return "; ".join(parts)


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


def _plain_and_spine(g: GApply):
    """The plain ``and`` spine from ``g``, itself one of its nodes: the
    operand at its bottom and the right operands, left to right.
    ``ground._and_spine`` walks it in a loop; only its outer run of
    nodes keyed ``()`` is a spine of ``&``, and the first node out of
    that run is the bottom."""
    bottom, nodes = _and_spine(g)
    i = len(nodes)
    while i and _plain_sides(nodes[i - 1][0]) is not None:
        i -= 1
    if i:
        bottom = nodes[i - 1][0]
    return bottom, [right for _, right in nodes[i:]]


def _ground_negand(g: GroundFormula):
    """The operand of ``g`` when ``g`` prints as ``not F``; None otherwise."""
    sides = _plain_sides(g)
    if sides is not None and g.quantifier == "impl":
        a, b = sides
        if isinstance(b, GBot) and not isinstance(a, (GTop, GBot)):
            return a
    return None


def _render_ground(g: GroundFormula, min_level: int) -> str:
    text, level = _ground_node(g)
    if level < min_level:
        return f"({text})"
    return text


def _ground_node(g: GroundFormula) -> tuple[str, int]:
    if isinstance(g, GroundAtom):
        return str(g), 5
    if isinstance(g, GTop):
        return "top", 5
    if isinstance(g, GBot):
        return "bot", 5
    if isinstance(g, GApply):
        name = g.quantifier
        sides = _plain_sides(g)
        if sides is not None:
            a, b = sides
            if name == "impl":
                # A chain of negations is read in a loop, as ``_node`` reads
                # one, so its length costs no stack.
                nots, inner = 0, _ground_negand(g)
                while inner is not None:
                    nots, g, inner = nots + 1, inner, _ground_negand(inner)
                if nots:
                    return "not " * nots + _render_ground(g, 4), 4
                return f"{_render_ground(a, 2)} -> {_render_ground(b, 1)}", 1
            if name == "and":
                bottom, rights = _plain_and_spine(g)
                parts = [_render_ground(bottom, 3)]
                parts += [_render_ground(right, 4) for right in rights]
                return " & ".join(parts), 3
            return f"{_render_ground(a, 2)} | {_render_ground(b, 3)}", 2
        agg = _ground_aggregate_parts(g)
        if agg is not None:
            family, sym, bound = agg
            return f"{family}{{ {_set_body(g.sets[0])} }} {sym} {bound}", 5
        sets = "".join(f"{{ {_set_body(s)} }}" for s in g.sets)
        return f"{name}{sets}", 5
    raise GqError(f"cannot render {g!r}")


def render_ground_rule(g: GroundFormula) -> str:
    """Render a ground rule with its top-level implication always shown
    as an arrow, even when the consequent is ``bot``."""
    sides = _plain_sides(g)
    if sides is not None and g.quantifier == "impl":
        a, b = sides
        return f"{_render_ground(a, 2)} -> {_render_ground(b, 1)}"
    return _render_ground(g, 1)


# ---------------------------------------------------------------------------
# Display simplification of ground formulas


def simplify_ground(g: GroundFormula) -> GroundFormula:
    """Fold truth constants through the binary connectives.

    Only ``and``, ``or``, and ``impl`` nodes are touched; quantifier
    applications proper (aggregates included) are kept exactly as they
    are, so the pair-sets a reduct produced stay visible.  A negated
    formula ``F -> bot`` is kept when F does not fold away.  A left-deep
    ``and`` spine is folded in a loop, from its bottom up.
    """
    sides = _plain_sides(g)
    if sides is None:
        return g
    name = g.quantifier
    if name == "and":
        bottom, rights = _plain_and_spine(g)
        a = simplify_ground(bottom)
        for right in rights:
            a = _fold("and", a, simplify_ground(right))
        return a
    return _fold(name, *map(simplify_ground, sides))


def _fold(name: str, a: GroundFormula, b: GroundFormula) -> GroundFormula:
    """The connective ``name`` of the simplified sides ``a`` and ``b``,
    with truth constants folded away."""
    if name == "impl":
        if isinstance(a, GBot):
            return G_TOP
        if isinstance(b, GTop):
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
    return GApply(name, (PairSet((((), a),)), PairSet((((), b),))))


def simplify_rule_sides(g: GroundFormula) -> GroundFormula:
    """Simplify the two sides of a ground rule separately.

    The rule's own arrow is never folded away, so a rule whose body
    reduces to ``top`` still reads ``top -> head`` rather than just the
    head; anything that is not an implication is simplified whole.
    """
    sides = _plain_sides(g)
    if sides is not None and g.quantifier == "impl":
        a, b = map(simplify_ground, sides)
        return GApply("impl", (PairSet((((), a),)), PairSet((((), b),))))
    return simplify_ground(g)
