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

``NAME`` may carry a nonnegative parameter, as in ``atmost(2)``.  An
identifier followed by ``(`` is read as a quantifier only when the
parentheses are empty or hold a single integer directly followed by
``{`` or ``[``; otherwise it is an atom.  ``not F`` abbreviates
``F -> bot``, and ``t1 != t2`` abbreviates ``not t1 = t2``.
"""
from __future__ import annotations

import re
from typing import Optional

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
    conj,
    disj,
    free_variables,
    impl,
    neg,
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

    def __init__(self, kind: str, value: str, line: int, col: int):
        self.__dict__.update(kind=kind, value=value, line=line, col=col)

    def __str__(self):
        """The token as an error message names it."""
        return "end of input" if self.kind == "EOF" else f"'{self.value}'"


_PUNCT = {
    "{": "LBRACE",
    "}": "RBRACE",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACK",
    "]": "RBRACK",
    ",": "COMMA",
    ";": "SEMI",
    ":": "COLON",
    ".": "DOT",
    "&": "AMP",
    "|": "PIPE",
    "=": "EQ",
    "<": "LT",
    ">": "GT",
}

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>%[^\n]*)"
    r"|(?P<gets>:-)"
    r"|(?P<impl>->)"
    r"|(?P<le><=)|(?P<ge>>=)|(?P<ne>!=)"
    r"|(?P<int>-?\d+)"
    r"|(?P<ident>[a-z][A-Za-z0-9_]*)"
    r"|(?P<var>[A-Z][A-Za-z0-9_]*)"
    r"|(?P<hash>\#)"
    r"|(?P<punct>[{}()\[\],;:.&|=<>])"
)

_CMP_KINDS = {"LT": "lt", "LE": "le", "EQ": "eq", "NE": "ne", "GE": "ge", "GT": "gt"}


def tokenize(text: str, origin: str = "<string>") -> list[Token]:
    out: list[Token] = []
    pos = 0
    line = 1
    col = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", origin, line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            if kind == "punct":
                kind = _PUNCT[value]
            elif kind == "ident" and value in RESERVED_WORDS:
                kind = "KW"
            else:
                kind = kind.upper()
            out.append(Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    out.append(Token("EOF", "", line, col))
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
    bound_term = as_term(bound)
    y = fresh_variable(free_variables(body) | {var} | term_variables(bound_term))
    return Apply(
        f"{family}_{key}",
        ((var,), (y,)),
        (body, Equality(Variable(y), bound_term)),
    )


class _Parser:
    def __init__(self, tokens: list[Token], origin: str, registry: Registry):
        self.tokens = tokens
        self.i = 0
        self.origin = origin
        self.registry = registry
        # pred -> (arity, first token), constant -> first token
        self.signature: dict[str, tuple[int, Token]] = {}
        self.constants: dict[Element, Token] = {}

    # -- token plumbing

    def peek(self, k: int = 0) -> Token:
        j = self.i + k
        if j >= len(self.tokens):
            return self.tokens[-1]
        return self.tokens[j]

    def take(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, self.origin, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what}, got {tok}", tok)
        return self.take()

    # -- bookkeeping

    def note_atom(self, pred: str, arity: int, tok: Token) -> None:
        known = self.signature.get(pred)
        if known is None:
            self.signature[pred] = (arity, tok)
        elif known[0] != arity:
            self.error(
                f"predicate {pred!r} takes {known[0]} argument(s) "
                f"(first used at line {known[1].line}), got {arity}",
                tok,
            )

    def note_constant(self, value: Element, tok: Token) -> None:
        self.constants.setdefault(value, tok)

    def resolve_quantifier(self, name: str, tok: Token):
        try:
            return self.registry.resolve(name)
        except UnknownQuantifierError:
            self.error(f"unknown quantifier {name!r}", tok)

    # -- terms

    def term(self):
        tok = self.take()
        if tok.kind == "INT":
            value = int(tok.value)
            self.note_constant(value, tok)
            return Constant(value)
        if tok.kind == "IDENT":
            self.note_constant(tok.value, tok)
            return Constant(tok.value)
        if tok.kind == "VAR":
            return Variable(tok.value)
        self.error(f"expected a term, got {tok}", tok)

    # -- formulas

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "IMPL":
            self.take()
            return impl(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek().kind == "PIPE":
            self.take()
            f = disj(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.negation()
        while self.peek().kind == "AMP":
            self.take()
            f = conj(f, self.negation())
        return f

    def negation(self) -> Formula:
        if self.peek().kind == "KW" and self.peek().value == "not":
            self.take()
            return neg(self.negation())
        return self.primary()

    def primary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "LPAREN":
            self.take()
            f = self.formula()
            self.expect("RPAREN", "')'")
            return f
        if tok.kind == "KW":
            if tok.value == "top":
                self.take()
                return TOP
            if tok.value == "bot":
                self.take()
                return BOT
            if tok.value in ("forall", "exists"):
                self.take()
                if self.peek().kind == "LBRACE":
                    return self.braces_application(tok.value, tok)
                var = self.expect("VAR", f"a variable after '{tok.value}'")
                self.expect("LPAREN", "'('")
                f = self.formula()
                self.expect("RPAREN", "')'")
                return Apply(tok.value, ((var.value,),), (f,))
            self.error(f"'{tok.value}' cannot start a formula", tok)
        if tok.kind in ("INT", "VAR"):
            return self.comparison(self.term())
        if tok.kind == "IDENT":
            return self.ident_formula()
        self.error(f"expected a formula, got {tok}", tok)

    def comparison(self, left) -> Formula:
        op = self.peek()
        if op.kind not in _CMP_KINDS:
            self.error(f"expected a comparison operator, got {op}", op)
        self.take()
        right = self.term()
        if op.kind == "EQ":
            return Equality(left, right)
        if op.kind == "NE":
            return neg(Equality(left, right))
        self.error(
            f"'{op.value}' between terms is not supported; ordered "
            "comparisons appear only as aggregate bounds",
            op,
        )

    def ident_formula(self) -> Formula:
        tok = self.peek()
        name = tok.value
        nxt = self.peek(1)
        if nxt.kind == "LBRACE":
            self.take()
            return self.braces_application(name, tok)
        if nxt.kind == "LBRACK":
            self.take()
            return self.general_application(name, tok)
        if nxt.kind == "LPAREN":
            third = self.peek(2)
            if third.kind == "RPAREN":
                self.take()
                self.take()
                self.take()
                qdef = self.resolve_quantifier(name, tok)
                if qdef.arities != ():
                    self.error(
                        f"quantifier {name!r} takes {len(qdef.arities)} "
                        "argument(s); '()' fits only quantifiers that take none",
                        tok,
                    )
                return Apply(name, (), ())
            if (
                third.kind == "INT"
                and self.peek(3).kind == "RPAREN"
                and self.peek(4).kind in ("LBRACE", "LBRACK")
            ):
                self.take()
                self.take()
                param = self.take()
                self.take()
                if int(param.value) < 0:
                    self.error("quantifier parameter must be nonnegative", param)
                qname = f"{name}({param.value})"
                if self.peek().kind == "LBRACE":
                    return self.braces_application(qname, tok)
                return self.general_application(qname, tok)
            # plain atom with arguments
            self.take()
            self.take()
            args = [self.term()]
            while self.peek().kind == "COMMA":
                self.take()
                args.append(self.term())
            self.expect("RPAREN", "')' after atom arguments")
            self.note_atom(name, len(args), tok)
            return Atom(name, tuple(args))
        if nxt.kind in _CMP_KINDS:
            return self.comparison(self.term())
        self.take()
        self.note_atom(name, 0, tok)
        return Atom(name)

    def binder_list(self, close_kind: str, close_text: str) -> tuple:
        names: list[str] = []
        seen: set[str] = set()
        while True:
            var = self.expect("VAR", f"a variable or {close_text}")
            if var.value in seen:
                self.error(f"repeated bound variable {var.value!r}", var)
            seen.add(var.value)
            names.append(var.value)
            if self.peek().kind == "COMMA":
                self.take()
                continue
            break
        self.expect(close_kind, close_text)
        return tuple(names)

    def elements(self, close_kind: str, close_text: str) -> list:
        """Universe elements separated by commas, up to ``close_text``: the
        ``#universe`` list, or the arguments of a model's atom."""
        out = []
        while True:
            tok = self.take()
            if tok.kind == "INT":
                out.append(int(tok.value))
            elif tok.kind == "IDENT":
                out.append(tok.value)
            else:
                self.error(f"expected a universe element, got {tok}", tok)
            if self.peek().kind != "COMMA":
                break
            self.take()
        self.expect(close_kind, close_text)
        return out

    def braces_application(self, name: str, name_tok: Token) -> Formula:
        self.expect("LBRACE", "'{'")
        first = self.expect("VAR", "a bound variable")
        names = [first.value]
        while self.peek().kind == "COMMA":
            self.take()
            var = self.expect("VAR", "a variable")
            if var.value in names:
                self.error(f"repeated bound variable {var.value!r}", var)
            names.append(var.value)
        self.expect("COLON", "':'")
        body = self.formula()
        self.expect("RBRACE", "'}'")
        if name in AGGREGATE_FAMILIES:
            if len(names) != 1:
                self.error(f"'{name}' binds exactly one variable", name_tok)
            op = self.peek()
            if op.kind not in _CMP_KINDS:
                self.error(
                    f"'{name}' needs a comparison bound, "
                    f"as in {name}{{X : p(X)}} < 2",
                    op,
                )
            self.take()
            return aggregate_apply(
                name, _CMP_KINDS[op.kind], names[0], body, self.term()
            )
        qdef = self.resolve_quantifier(name, name_tok)
        if qdef.arities != (len(names),):
            self.error(
                f"quantifier {name!r} does not take a single argument "
                f"binding {len(names)} variable(s); use the bracket form",
                name_tok,
            )
        return Apply(name, (tuple(names),), (body,))

    def general_application(self, name: str, name_tok: Token) -> Formula:
        var_lists: list[tuple] = []
        while self.peek().kind == "LBRACK":
            self.take()
            if self.peek().kind == "RBRACK":
                self.take()
                var_lists.append(())
            else:
                var_lists.append(self.binder_list("RBRACK", "']'"))
        self.expect("LPAREN", "'(' after the binder lists")
        args = [self.formula()]
        while self.peek().kind == "SEMI":
            self.take()
            args.append(self.formula())
        self.expect("RPAREN", "')'")
        qdef = self.resolve_quantifier(name, name_tok)
        if len(var_lists) != len(qdef.arities):
            self.error(
                f"quantifier {name!r} takes {len(qdef.arities)} argument(s), "
                f"got {len(var_lists)} binder list(s)",
                name_tok,
            )
        for pos, (xs, want) in enumerate(zip(var_lists, qdef.arities)):
            if len(xs) != want:
                self.error(
                    f"argument {pos + 1} of {name!r} binds {want} "
                    f"variable(s), got {len(xs)}",
                    name_tok,
                )
        if len(args) != len(var_lists):
            self.error(
                f"quantifier {name!r} needs {len(var_lists)} argument "
                f"formula(s), got {len(args)}",
                name_tok,
            )
        return Apply(name, tuple(var_lists), tuple(args))

    # -- rules and directives

    def rule(self) -> Rule:
        if self.peek().kind == "GETS":
            self.take()
            body = self.rule_body()
            self.expect("DOT", "'.'")
            return Rule(BOT, body)
        head = self.rule_head()
        if self.peek().kind == "GETS":
            self.take()
            body = self.rule_body()
        else:
            body = TOP
        self.expect("DOT", "'.' at the end of the rule")
        return Rule(head, body)

    def rule_head(self) -> Formula:
        parts = [self.formula()]
        while self.peek().kind == "SEMI":
            self.take()
            parts.append(self.formula())
        return disj(*parts)

    def rule_body(self) -> Formula:
        parts = [self.formula()]
        while self.peek().kind == "COMMA":
            self.take()
            parts.append(self.formula())
        if self.peek().kind == "SEMI":
            self.error("';' is not allowed in a body; use '|' for disjunction")
        return conj(*parts)

    def directive(self, universe, intensional):
        hash_tok = self.take()
        name_tok = self.peek()
        if name_tok.kind != "IDENT":
            self.error("expected a directive name after '#'", name_tok)
        self.take()
        if name_tok.value == "universe":
            if universe is not None:
                self.error("duplicate #universe directive", hash_tok)
            self.expect("LBRACE", "'{'")
            if self.peek().kind == "RBRACE":
                self.error("the universe must not be empty")
            elems = frozenset(self.elements("RBRACE", "'}'"))
            self.expect("DOT", "'.'")
            return elems, intensional
        if name_tok.value == "intensional":
            if intensional is not None:
                self.error("duplicate #intensional directive", hash_tok)
            names: list[tuple[str, Token]] = []
            if self.peek().kind == "IDENT":
                while True:
                    tok = self.take()
                    names.append((tok.value, tok))
                    if self.peek().kind == "COMMA":
                        self.take()
                        tok = self.peek()
                        if tok.kind != "IDENT":
                            self.error("expected a predicate name", tok)
                        continue
                    break
            self.expect("DOT", "'.'")
            return universe, names
        self.error(f"unknown directive '#{name_tok.value}'", name_tok)

    def program(self) -> Program:
        universe = None
        intensional = None
        rules: list[Rule] = []
        while self.peek().kind != "EOF":
            if self.peek().kind == "HASH":
                universe, intensional = self.directive(universe, intensional)
            else:
                rules.append(self.rule())
        if universe is None:
            universe = frozenset(self.constants)
            if not universe:
                self.error(
                    "no #universe directive and no constants to infer one from"
                )
        for value, tok in self.constants.items():
            if value not in universe:
                self.error(f"constant {value!r} is not a universe element", tok)
        if intensional is None:
            preds = None
        else:
            for pname, tok in intensional:
                if pname not in self.signature:
                    self.error(f"no predicate named {pname!r} in the program", tok)
            preds = frozenset(pname for pname, _ in intensional)
        return Program(tuple(rules), universe, preds)


def parse_formula(text: str, registry: Registry, origin: str = "<string>") -> Formula:
    p = _Parser(tokenize(text, origin), origin, registry)
    f = p.formula()
    if p.peek().kind != "EOF":
        p.error(f"unexpected '{p.peek().value}' after the formula")
    return f


def parse_rule(text: str, registry: Registry, origin: str = "<string>") -> Rule:
    p = _Parser(tokenize(text, origin), origin, registry)
    r = p.rule()
    if p.peek().kind != "EOF":
        p.error(f"unexpected '{p.peek().value}' after the rule")
    return r


def parse_program(text: str, registry: Registry, origin: str = "<string>") -> Program:
    p = _Parser(tokenize(text, origin), origin, registry)
    return p.program()


def parse_model(text: str, program: Program, origin: str = "<model>") -> frozenset:
    """Parse a comma- or space-separated list of ground atoms and check
    it against the program's signature and universe."""
    p = _Parser(tokenize(text, origin), origin, None)
    atoms = set()
    while p.peek().kind != "EOF":
        tok = p.take()
        if tok.kind == "COMMA":
            continue
        if tok.kind != "IDENT":
            p.error(f"expected a ground atom, got {tok}", tok)
        pred = tok.value
        args = []
        if p.peek().kind == "LPAREN":
            p.take()
            args = p.elements("RPAREN", "')'")
        if pred not in program.signature:
            p.error(f"no predicate named {pred!r} in the program", tok)
        want = program.signature[pred]
        if len(args) != want:
            p.error(f"predicate {pred!r} takes {want} argument(s), got {len(args)}", tok)
        for v in args:
            if v not in program.universe:
                p.error(f"{v!r} is not a universe element", tok)
        atoms.add(GroundAtom(pred, args))
    return frozenset(atoms)
