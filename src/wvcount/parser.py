"""Surface syntax for ground ELPs.

Grammar (UTF-8, ``%`` starts a line comment)::

    rule := [head] [":-" body] "."
    head := atom {("|" | ";") atom}
    body := elem {"," elem}
    elem := lit | "not" lit | "-not" lit
          | "K" lit | "-K" lit | "M" lit | "-M" lit
    lit  := ["-"] name
    name := [a-z][A-Za-z0-9_]*

K and M are sugar for epistemic negation: ``K l`` is ``- not l``,
``M l`` is ``not -l``, ``-K l`` collapses to ``not l`` and ``-M l`` to
``- not -l``.  A bare ``-x`` in a body is plain default negation.
``not`` is a reserved word and cannot name an atom.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .model import AtomTable, Epistemic, Literal, Objective, Program, Rule

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<arrow>:-)
  | (?P<name>[a-z][A-Za-z0-9_]*)
  | (?P<modal>[KM])
  | (?P<dash>-)
  | (?P<or>[|;])
  | (?P<comma>,)
  | (?P<dot>\.)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                "unexpected character %r" % text[pos], line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, m.start() - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_program(self):
        table = AtomTable()
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.parse_rule(table))
        return Program(table, tuple(rules))

    def parse_rule(self, table):
        start = self.peek()
        head = []
        if self.peek().kind == "name" and self.peek().text != "not":
            head.append(table.intern(self.next().text))
            while self.peek().kind == "or":
                self.next()
                tok = self.next()
                if tok.kind != "name" or tok.text == "not":
                    self.error("expected atom name in head", tok)
                head.append(table.intern(tok.text))
        elif self.peek().kind in ("modal", "dash") or (
            self.peek().kind == "name" and self.peek().text == "not"
        ):
            self.error("epistemic or negated literal in head")
        body = []
        if self.peek().kind == "arrow":
            self.next()
            body.append(self.parse_element(table))
            while self.peek().kind == "comma":
                self.next()
                body.append(self.parse_element(table))
        tok = self.next()
        if tok.kind != "dot":
            self.error("expected '.' at end of rule", tok)
        if not head and not body:
            self.error("empty rule", start)
        try:
            return Rule(tuple(head), tuple(body))
        except ValueError as exc:
            raise ParseError(str(exc), start.line, start.col) from None

    def parse_element(self, table):
        tok = self.peek()
        if tok.kind == "modal":  # K l | M l
            self.next()
            lit = self.parse_literal(table)
            if tok.text == "K":
                return Epistemic(True, lit)
            return Epistemic(False, lit.negate())
        if tok.kind == "name" and tok.text == "not":  # not l
            self.next()
            return Epistemic(False, self.parse_literal(table))
        if tok.kind == "dash":
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "modal" or (nxt.kind == "name" and nxt.text == "not"):
                self.next()
                op = self.next()
                lit = self.parse_literal(table)
                if op.kind == "modal" and op.text == "K":  # -K l == not l
                    return Epistemic(False, lit)
                if op.kind == "modal":  # -M l == - not -l
                    return Epistemic(True, lit.negate())
                return Epistemic(True, lit)  # -not l
            return Objective(self.parse_literal(table))
        if tok.kind == "name":
            return Objective(self.parse_literal(table))
        self.error("expected body element")

    def parse_literal(self, table):
        positive = True
        tok = self.next()
        if tok.kind == "dash":
            positive = False
            tok = self.next()
            if tok.kind == "dash":
                self.error("duplicate negation", tok)
        if tok.kind != "name" or tok.text == "not":
            self.error("expected atom name", tok)
        return Literal(table.intern(tok.text), positive)


def parse_program(text: str) -> Program:
    """Parse program text into a :class:`Program`.

    Atoms are interned in first-occurrence order and rule order is kept.
    """
    return _Parser(text).parse_program()


def element_to_text(el, table) -> str:
    if isinstance(el, Objective):
        return el.literal.text(table)
    if el.negated:
        return "K %s" % el.literal.text(table)
    return "not %s" % el.literal.text(table)


def rule_to_text(rule: Rule, table: AtomTable) -> str:
    head = " | ".join(table.name(a) for a in rule.head)
    body = ", ".join(element_to_text(el, table) for el in rule.body)
    if head and body:
        return "%s :- %s." % (head, body)
    if head:
        return "%s." % head
    return ":- %s." % body


def program_to_text(program: Program) -> str:
    """Render a program in the surface syntax; inverse of :func:`parse_program`."""
    return "".join(rule_to_text(r, program.atoms) + "\n" for r in program.rules)


def parse_query(text: str, table: AtomTable):
    """Parse a comma-separated query literal list such as ``a,-b``.

    Returns a :class:`WVI` whose domain is exactly the listed atoms.
    Unknown atoms are rejected: queries range over program atoms.  So
    is an atom listed with both signs, which no WVI can decide.
    """
    from .model import WVI

    literals = []
    if text.strip():
        for part in text.split(","):
            part = part.strip()
            positive = True
            if part.startswith("-"):
                positive = False
                part = part[1:].strip()
            if not re.fullmatch(r"[a-z][A-Za-z0-9_]*", part or ""):
                raise ParseError("bad query literal %r" % part)
            if part not in table:
                raise ParseError("query atom %r does not occur in the program" % part)
            literals.append(Literal(table.id(part), positive))
            if literals[-1].negate() in literals:
                raise ParseError("query names both %s and -%s" % (part, part))
    return WVI.from_literals(literals)
