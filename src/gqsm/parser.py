"""Lexer and recursive-descent parser for the rule language.

Grammar sketch (``.gq`` files, ``%`` starts a line comment):

    program    ::= (directive | rule)*
    directive  ::= "#universe" "{" element ("," element)* "}" "."
                 | "#intensional" [name ("," name)*] "."
    rule       ::= head "."  |  head ":-" body "."  |  ":-" body "."
    head       ::= formula (";" formula)*          disjunction, left fold
    body       ::= formula ("," formula)*          conjunction, left fold
    formula    ::= implication with "->" (right assoc, loosest)
                   over "|" over "&" over "not" over primaries
    primary    ::= "top" | "bot" | "(" formula ")"
                 | atom | term ("="|"!=") term
                 | "forall" VAR "(" formula ")" | "exists" VAR "(" formula ")"
                 | NAME "{" VAR ("," VAR)* ":" formula "}"
                 | ("sum"|"count") "{" VAR ":" formula "}" cmp term
                 | NAME ("[" [VAR ("," VAR)*] "]")+ "(" formula (";" formula)* ")"
                 | NAME "(" ")"

Integers are ASCII digits after an optional ``-``; one longer than
``int()`` reads is a parse error.  ``NAME`` may carry a nonnegative
parameter, as in ``atmost(2)``.  An identifier followed by ``(`` is read
as a quantifier only when the parentheses are empty or hold a single
integer directly followed by ``{`` or ``[``; otherwise it is an atom.  ``not F`` abbreviates
``F -> bot``, and ``t1 != t2`` abbreviates ``not t1 = t2``.
"""
from __future__ import annotations

import re

from .syntax import (
    BOT,
    TOP,
    Apply,
    Atom,
    Constant,
    Element,
    Equality,
    Formula,
    GqError,
    Program,
    RESERVED_WORDS,
    Record,
    Rule,
    Variable,
    as_term,
    free_variables,
    term_variables,
)
from .quantifiers import (
    AGGREGATE_FAMILIES,
    CMP_SYMBOLS,
    Registry,
    UnknownQuantifierError,
)
from .ground import GroundAtom


class ParseError(GqError):
    def __init__(self, message: str, origin: str = "<string>", line: int = 0, col: int = 0):
        self.origin = origin
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"{origin}:{line}:{col}: {message}")


class Token(Record):
    _fields = ("kind", "value", "line", "col")

    def __str__(self):
        """The token as an error message names it."""
        return "end of input" if self.kind == "EOF" else f"'{self.value}'"


# One match per token: the whitespace and comments before it, then the
# token as group 1.  The group is empty at the end of the text, and holds
# any single character that starts no token, for an error to name.
_SCAN_RE = re.compile(
    r"(?:\s+|%[^\n]*)*"
    r"(:-|->|<=|>=|!=|-?[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^\s%]|\Z)"
)

_KINDS = {
    "": "EOF", "-": "BAD", "#": "HASH", ":-": "GETS", "->": "IMPL",
    "<=": "LE", ">=": "GE", "!=": "NE", "=": "EQ", "<": "LT", ">": "GT",
    "{": "LBRACE", "}": "RBRACE", "(": "LPAREN", ")": "RPAREN", "[": "LBRACK", "]": "RBRACK",
    ",": "COMMA", ";": "SEMI", ":": "COLON", ".": "DOT", "&": "AMP", "|": "PIPE",
    **dict.fromkeys(RESERVED_WORDS, "KW"),
}
# the kind of any other token, by its first character
_FIRST = {
    **dict.fromkeys("abcdefghijklmnopqrstuvwxyz", "IDENT"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "VAR"),
    **dict.fromkeys("-0123456789", "INT"),
}

_CMP_KINDS = {"LT": "lt", "LE": "le", "EQ": "eq", "NE": "ne", "GE": "ge", "GT": "gt"}

# binary connectives: name, binding strength, and the strength above
# which pending operators are folded before this one (so '->' nests right)
_BINARY = {"AMP": ("and", 3, 2), "PIPE": ("or", 2, 1), "IMPL": ("impl", 1, 1)}


def tokenize(text: str, origin: str = "<string>") -> list[Token]:
    out: list[Token] = []
    line, line_start, prev = 1, 0, 0
    for m in _SCAN_RE.finditer(text):
        value = m.group(1)
        pos = m.start(1)
        newlines = text.count("\n", prev, pos)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", prev, pos) + 1
        prev = pos
        kind = _KINDS.get(value) or _FIRST.get(value[0], "BAD")
        if kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", origin, line, pos - line_start + 1)
        out.append(Token(kind, value, line, pos - line_start + 1))
        if kind == "EOF":
            return out


def fresh_variable(avoid) -> str:
    """The first of Y, Y0, Y1, ... not in ``avoid``."""
    avoid = set(avoid)
    if "Y" not in avoid:
        return "Y"
    i = 0
    while f"Y{i}" in avoid:
        i += 1
    return f"Y{i}"


_CMP_FROM_SYMBOL = {sym: key for key, sym in CMP_SYMBOLS.items()}


def _aggregate(family: str, key: str, var: str, body: Formula, bound: object) -> tuple:
    """The quantifier, binder lists and arguments that
    ``family{var : body} cmp bound`` parses to."""
    y = fresh_variable(free_variables(body) | {var} | term_variables(bound))
    return f"{family}_{key}", ((var,), (y,)), (body, Equality(Variable(y), bound))


def aggregate_apply(
    family: str, cmp: str, var: str, body: Formula, bound
) -> Apply:
    """Build the application that ``family{var : body} cmp bound`` parses
    to, choosing the bound-slot variable the same way the parser does."""
    if family not in AGGREGATE_FAMILIES:
        raise GqError(f"not an aggregate family: {family!r}")
    key = _CMP_FROM_SYMBOL.get(cmp, cmp)
    if key not in CMP_SYMBOLS:
        raise GqError(f"not a comparison: {cmp!r}")
    return Apply(*_aggregate(family, key, var, body, as_term(bound)))


# The parser builds its nodes unchecked: its grammar and bookkeeping
# already hold them to what the public constructors check.


def _apply(quantifier: str, var_lists: tuple, args: tuple) -> Apply:
    return Apply._trusted(quantifier=quantifier, var_lists=var_lists, args=args)


def _binary(name: str, left: Formula, right: Formula) -> Apply:
    return Apply._trusted(quantifier=name, var_lists=((), ()), args=(left, right))


class _Parser:
    """Recursive descent over the texts ``vals`` of the tokens and their
    ``kinds``, with ``i`` at the next token.  Both lists end in spare
    end-of-input tokens, so lookahead needs no bounds check.  A token's
    line and column are worked out only for an error message."""

    def __init__(self, text: str, origin: str, registry: Registry):
        vals = _SCAN_RE.findall(text)
        kinds = [_KINDS.get(v) or _FIRST.get(v[0], "BAD") for v in vals]
        if "BAD" in kinds:
            tokenize(text, origin)  # raises at the first one
        self.text = text
        self.origin = origin
        self.registry = registry
        self.vals = vals + [""] * 4
        self.kinds = kinds + ["EOF"] * 4
        self.i = 0
        self.arity: dict[str, int] = {}  # pred -> arity, in order of first use
        self.pred_at: dict[str, int] = {}  # pred -> its first token
        self.constants: dict[Element, int] = {}  # constant -> its first token
        self.terms: dict[str, object] = {}  # token text -> its term
        self.bound: list[str] = []  # variables bound where the descent is
        self.free: set[str] = set()  # variables met unbound in this rule

    # -- token plumbing

    def token(self, j: int) -> Token:
        toks = tokenize(self.text, self.origin)
        return toks[min(j, len(toks) - 1)]

    def error(self, message: str, j: int | None = None):
        tok = self.token(self.i if j is None else j)
        raise ParseError(message, self.origin, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> str:
        i = self.i
        if self.kinds[i] != kind:
            self.error(f"expected {what}, got {self.token(i)}", i)
        self.i = i + 1
        return self.vals[i]

    # -- bookkeeping

    def note_atom(self, pred: str, arity: int, j: int) -> None:
        known = self.arity.get(pred)
        if known is None:
            self.arity[pred] = arity
            self.pred_at[pred] = j
        elif known != arity:
            self.error(
                f"predicate {pred!r} takes {known} argument(s) "
                f"(first used at line {self.token(self.pred_at[pred]).line}), got {arity}",
                j,
            )

    def resolve_quantifier(self, name: str, j: int):
        try:
            return self.registry.resolve(name)
        except UnknownQuantifierError:
            self.error(f"unknown quantifier {name!r}", j)

    def element(self, j: int) -> Element:
        """The universe element that token ``j``, an INT or IDENT, names."""
        v = self.vals[j]
        if self.kinds[j] == "IDENT":
            return v
        try:
            return int(v)
        except ValueError:  # more digits than int() reads
            self.error(f"integer literal too long ({len(v.lstrip('-'))} digits)", j)

    # -- terms

    def term(self):
        i = self.i
        self.i = i + 1
        v = self.vals[i]
        kind = self.kinds[i]
        if kind == "VAR":
            if v not in self.bound:
                self.free.add(v)
        elif kind != "INT" and kind != "IDENT":
            self.error(f"expected a term, got {self.token(i)}", i)
        t = self.terms.get(v)
        if t is None:
            if kind == "VAR":
                t = Variable._trusted(name=v)
            else:
                value = self.element(i)
                self.constants.setdefault(value, i)
                t = Constant._trusted(value=value)
            self.terms[v] = t
        return t

    # -- formulas

    def formula(self) -> Formula:
        """'->' (right associative) over '|' over '&' over 'not' over a
        primary, folded with a stack of pending operators."""
        kinds = self.kinds
        vals = self.vals
        pending = []  # (left operand, connective, strength)
        while True:
            start = self.i
            while vals[self.i] == "not":
                self.i += 1
            nots = self.i - start
            f = self.primary()
            for _ in range(nots):
                f = _binary("impl", f, BOT)
            op = _BINARY.get(kinds[self.i])
            above = op[2] if op else 0
            while pending and pending[-1][2] > above:
                left, name, _ = pending.pop()
                f = _binary(name, left, f)
            if op is None:
                return f
            self.i += 1
            pending.append((f, op[0], op[1]))

    def primary(self) -> Formula:
        i = self.i
        kind = self.kinds[i]
        if kind == "IDENT":
            return self.ident_formula()
        if kind == "LPAREN":
            self.i = i + 1
            f = self.formula()
            self.expect("RPAREN", "')'")
            return f
        if kind == "INT" or kind == "VAR":
            return self.comparison(self.term())
        if kind == "KW":
            v = self.vals[i]
            if v == "top" or v == "bot":
                self.i = i + 1
                return TOP if v == "top" else BOT
            if v in ("forall", "exists"):
                self.i = i + 1
                if self.kinds[i + 1] == "LBRACE":
                    return self.braces_application(v, i)
                var = self.expect("VAR", f"a variable after '{v}'")
                self.expect("LPAREN", "'('")
                self.bound.append(var)
                f = self.formula()
                self.bound.pop()
                self.expect("RPAREN", "')'")
                return _apply(v, ((var,),), (f,))
            self.error(f"'{v}' cannot start a formula", i)
        self.error(f"expected a formula, got {self.token(i)}", i)

    def comparison(self, left) -> Formula:
        i = self.i
        op = self.kinds[i]
        if op not in _CMP_KINDS:
            self.error(f"expected a comparison operator, got {self.token(i)}", i)
        self.i = i + 1
        eq = Equality._trusted(left=left, right=self.term())
        if op == "EQ":
            return eq
        if op == "NE":
            return _binary("impl", eq, BOT)
        self.error(
            f"'{self.vals[i]}' between terms is not supported; ordered "
            "comparisons appear only as aggregate bounds",
            i,
        )

    def ident_formula(self) -> Formula:
        i = self.i
        name = self.vals[i]
        kinds = self.kinds
        nxt = kinds[i + 1]
        if nxt == "LPAREN":
            if kinds[i + 2] == "RPAREN":
                self.i = i + 3
                qdef = self.resolve_quantifier(name, i)
                if qdef.arities != ():
                    self.error(
                        f"quantifier {name!r} takes {len(qdef.arities)} "
                        "argument(s); '()' fits only quantifiers that take none",
                        i,
                    )
                return _apply(name, (), ())
            if (
                kinds[i + 2] == "INT"
                and kinds[i + 3] == "RPAREN"
                and kinds[i + 4] in ("LBRACE", "LBRACK")
            ):
                self.i = i + 4
                if self.element(i + 2) < 0:
                    self.error("quantifier parameter must be nonnegative", i + 2)
                qname = f"{name}({self.vals[i + 2]})"
                if kinds[i + 4] == "LBRACE":
                    return self.braces_application(qname, i)
                return self.general_application(qname, i)
            # plain atom with arguments
            self.i = i + 2
            args = [self.term()]
            while kinds[self.i] == "COMMA":
                self.i += 1
                args.append(self.term())
            self.expect("RPAREN", "')' after atom arguments")
            self.note_atom(name, len(args), i)
            return Atom._trusted(pred=name, args=tuple(args))
        if nxt == "LBRACE":
            self.i = i + 1
            return self.braces_application(name, i)
        if nxt == "LBRACK":
            self.i = i + 1
            return self.general_application(name, i)
        if nxt in _CMP_KINDS:
            return self.comparison(self.term())
        self.i = i + 1
        self.note_atom(name, 0, i)
        return Atom._trusted(pred=name, args=())

    def elements(self, close_kind: str, close_text: str) -> list:
        """Universe elements separated by commas, up to ``close_text``: the
        ``#universe`` list, or the arguments of a model's atom."""
        out = []
        while True:
            i = self.i
            if self.kinds[i] not in ("INT", "IDENT"):
                self.error(f"expected a universe element, got {self.token(i)}", i)
            out.append(self.element(i))
            self.i = i + 1
            if self.kinds[i + 1] != "COMMA":
                break
            self.i = i + 2
        self.expect(close_kind, close_text)
        return out

    def braces_application(self, name: str, at: int) -> Formula:
        self.expect("LBRACE", "'{'")
        names = [self.expect("VAR", "a bound variable")]
        while self.kinds[self.i] == "COMMA":
            self.i += 1
            j = self.i
            var = self.expect("VAR", "a variable")
            if var in names:
                self.error(f"repeated bound variable {var!r}", j)
            names.append(var)
        self.expect("COLON", "':'")
        self.bound += names
        body = self.formula()
        self.expect("RBRACE", "'}'")
        if name in AGGREGATE_FAMILIES:
            if len(names) != 1:
                self.error(f"'{name}' binds exactly one variable", at)
            i = self.i
            op = self.kinds[i]
            if op not in _CMP_KINDS:
                self.error(
                    f"'{name}' needs a comparison bound, "
                    f"as in {name}{{X : p(X)}} < 2",
                    i,
                )
            self.i = i + 1
            f = _apply(*_aggregate(name, _CMP_KINDS[op], names[0], body, self.term()))
        else:
            qdef = self.resolve_quantifier(name, at)
            if qdef.arities != (len(names),):
                self.error(
                    f"quantifier {name!r} does not take a single argument "
                    f"binding {len(names)} variable(s); use the bracket form",
                    at,
                )
            f = _apply(name, (tuple(names),), (body,))
        del self.bound[-len(names):]
        return f

    def general_application(self, name: str, at: int) -> Formula:
        kinds = self.kinds
        var_lists: list[tuple] = []
        while kinds[self.i] == "LBRACK":
            self.i += 1
            names: list[str] = []
            if kinds[self.i] == "RBRACK":
                self.i += 1
            else:
                while True:
                    j = self.i
                    var = self.expect("VAR", "a variable or ']'")
                    if var in names:
                        self.error(f"repeated bound variable {var!r}", j)
                    names.append(var)
                    if kinds[self.i] != "COMMA":
                        break
                    self.i += 1
                self.expect("RBRACK", "']'")
            var_lists.append(tuple(names))
        self.expect("LPAREN", "'(' after the binder lists")
        mark = len(self.bound)
        for xs in var_lists:
            self.bound += xs
        args = [self.formula()]
        while kinds[self.i] == "SEMI":
            self.i += 1
            args.append(self.formula())
        self.expect("RPAREN", "')'")
        del self.bound[mark:]
        qdef = self.resolve_quantifier(name, at)
        if len(var_lists) != len(qdef.arities):
            self.error(
                f"quantifier {name!r} takes {len(qdef.arities)} argument(s), "
                f"got {len(var_lists)} binder list(s)",
                at,
            )
        for pos, (xs, want) in enumerate(zip(var_lists, qdef.arities)):
            if len(xs) != want:
                self.error(
                    f"argument {pos + 1} of {name!r} binds {want} "
                    f"variable(s), got {len(xs)}",
                    at,
                )
        if len(args) != len(var_lists):
            self.error(
                f"quantifier {name!r} needs {len(var_lists)} argument "
                f"formula(s), got {len(args)}",
                at,
            )
        return _apply(name, tuple(var_lists), tuple(args))

    # -- rules and directives

    def rule(self) -> Rule:
        self.free = set()
        if self.kinds[self.i] == "GETS":
            self.i += 1
            head = BOT
            body = self.rule_body()
            self.expect("DOT", "'.'")
        else:
            head = self.rule_head()
            if self.kinds[self.i] == "GETS":
                self.i += 1
                body = self.rule_body()
            else:
                body = TOP
            self.expect("DOT", "'.' at the end of the rule")
        return Rule._trusted(head=head, body=body, variables=tuple(sorted(self.free)))

    def rule_head(self) -> Formula:
        f = self.formula()
        while self.kinds[self.i] == "SEMI":
            self.i += 1
            f = _binary("or", f, self.formula())
        return f

    def rule_body(self) -> Formula:
        f = self.formula()
        while self.kinds[self.i] == "COMMA":
            self.i += 1
            f = _binary("and", f, self.formula())
        if self.kinds[self.i] == "SEMI":
            self.error("';' is not allowed in a body; use '|' for disjunction")
        return f

    def directive(self, universe, intensional):
        at = self.i
        name = self.vals[at + 1]
        if self.kinds[at + 1] != "IDENT":
            self.error("expected a directive name after '#'", at + 1)
        self.i = at + 2
        if name == "universe":
            if universe is not None:
                self.error("duplicate #universe directive", at)
            self.expect("LBRACE", "'{'")
            if self.kinds[self.i] == "RBRACE":
                self.error("the universe must not be empty")
            elems = frozenset(self.elements("RBRACE", "'}'"))
            self.expect("DOT", "'.'")
            return elems, intensional
        if name == "intensional":
            if intensional is not None:
                self.error("duplicate #intensional directive", at)
            names: list[tuple[str, int]] = []
            if self.kinds[self.i] == "IDENT":
                while True:
                    names.append((self.vals[self.i], self.i))
                    self.i += 1
                    if self.kinds[self.i] != "COMMA":
                        break
                    self.i += 1
                    if self.kinds[self.i] != "IDENT":
                        self.error("expected a predicate name")
            self.expect("DOT", "'.'")
            return universe, names
        self.error(f"unknown directive '#{name}'", at + 1)

    def program(self) -> Program:
        universe = None
        intensional = None
        rules: list[Rule] = []
        kinds = self.kinds
        while kinds[self.i] != "EOF":
            if kinds[self.i] == "HASH":
                universe, intensional = self.directive(universe, intensional)
            else:
                rules.append(self.rule())
        if universe is None:
            universe = frozenset(self.constants)
            if not universe:
                self.error(
                    "no #universe directive and no constants to infer one from"
                )
        for value, j in self.constants.items():
            if value not in universe:
                self.error(f"constant {value!r} is not a universe element", j)
        signature = self.arity
        if intensional is None:
            preds = frozenset(signature)
        else:
            for pname, j in intensional:
                if pname not in signature:
                    self.error(f"no predicate named {pname!r} in the program", j)
            preds = frozenset(pname for pname, _ in intensional)
        return Program._trusted(
            rules=tuple(rules), universe=universe, intensional=preds, signature=signature
        )


def parse_formula(text: str, registry: Registry, origin: str = "<string>") -> Formula:
    p = _Parser(text, origin, registry)
    f = p.formula()
    if p.kinds[p.i] != "EOF":
        p.error(f"unexpected '{p.vals[p.i]}' after the formula")
    return f


def parse_rule(text: str, registry: Registry, origin: str = "<string>") -> Rule:
    p = _Parser(text, origin, registry)
    r = p.rule()
    if p.kinds[p.i] != "EOF":
        p.error(f"unexpected '{p.vals[p.i]}' after the rule")
    return r


def parse_program(text: str, registry: Registry, origin: str = "<string>") -> Program:
    return _Parser(text, origin, registry).program()


def parse_model(text: str, program: Program, origin: str = "<model>") -> frozenset:
    """Parse a comma- or space-separated list of ground atoms and check
    it against the program's signature and universe."""
    p = _Parser(text, origin, None)
    kinds = p.kinds
    atoms = set()
    while kinds[p.i] != "EOF":
        i = p.i
        p.i = i + 1
        if kinds[i] == "COMMA":
            continue
        if kinds[i] != "IDENT":
            p.error(f"expected a ground atom, got {p.token(i)}", i)
        pred = p.vals[i]
        args = []
        if kinds[p.i] == "LPAREN":
            p.i += 1
            args = p.elements("RPAREN", "')'")
        if pred not in program.signature:
            p.error(f"no predicate named {pred!r} in the program", i)
        want = program.signature[pred]
        if len(args) != want:
            p.error(f"predicate {pred!r} takes {want} argument(s), got {len(args)}", i)
        for v in args:
            if v not in program.universe:
                p.error(f"{v!r} is not a universe element", i)
        atoms.add(GroundAtom(pred, args))
    return frozenset(atoms)
