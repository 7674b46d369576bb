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

_NAME = r"[a-z][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>%[^\n]*)
  | (?P<arrow>:-)
  | (?P<name>{_NAME})
  | (?P<modal>[KM])
  | (?P<dash>-)
  | (?P<or>[|;])
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _position(text, offset):
    """The 1-based line and column of ``offset`` in ``text``, where only
    a newline ends a line.  Only errors report a position."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize(text):
    """``(kind, text, offset)`` per token, whitespace and comments
    dropped, then an ``eof`` token at the end of ``text``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws" or kind == "comment":
            continue
        if kind == "bad":
            line, col = _position(text, m.start())
            raise ParseError("unexpected character %r" % m.group(), line, col)
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        """A ``ParseError`` at ``tok``, by default the next token."""
        offset = (tok or self.peek())[2]
        return ParseError(message, *_position(self.text, offset))

    def parse_program(self):
        table = AtomTable()
        rules = []
        while self.peek()[0] != "eof":
            rules.append(self.parse_rule(table))
        return Program(table, tuple(rules))

    def parse_rule(self, table):
        start = self.peek()
        kind, text, _ = start
        head = []
        if kind == "name" and text != "not":
            head.append(table.intern(self.next()[1]))
            while self.peek()[0] == "or":
                self.next()
                tok = self.next()
                if tok[0] != "name" or tok[1] == "not":
                    raise self.error("expected atom name in head", tok)
                head.append(table.intern(tok[1]))
        elif kind in ("modal", "dash", "name"):  # K, M, - or not
            raise self.error("epistemic or negated literal in head")
        body = []
        if self.peek()[0] == "arrow":
            self.next()
            body.append(self.parse_element(table))
            while self.peek()[0] == "comma":
                self.next()
                body.append(self.parse_element(table))
        tok = self.next()
        if tok[0] != "dot":
            raise self.error("expected '.' at end of rule", tok)
        if not head and not body:
            raise self.error("empty rule", start)
        try:
            return Rule(tuple(head), tuple(body))
        except ValueError as exc:
            raise self.error(str(exc), start) from None

    def parse_element(self, table):
        kind, text, _ = self.peek()
        if kind == "modal":  # K l | M l
            self.next()
            lit = self.parse_literal(table)
            if text == "K":
                return Epistemic(True, lit)
            return Epistemic(False, lit.negate())
        if text == "not":  # not l
            self.next()
            return Epistemic(False, self.parse_literal(table))
        if kind == "dash":
            op = self.tokens[self.pos + 1][1]
            if op in ("K", "M", "not"):
                self.pos += 2
                lit = self.parse_literal(table)
                if op == "K":  # -K l == not l
                    return Epistemic(False, lit)
                if op == "M":  # -M l == - not -l
                    return Epistemic(True, lit.negate())
                return Epistemic(True, lit)  # -not l
            return Objective(self.parse_literal(table))
        if kind == "name":
            return Objective(self.parse_literal(table))
        raise self.error("expected body element")

    def parse_literal(self, table):
        positive = True
        tok = self.next()
        if tok[0] == "dash":
            positive = False
            tok = self.next()
            if tok[0] == "dash":
                raise self.error("duplicate negation", tok)
        if tok[0] != "name" or tok[1] == "not":
            raise self.error("expected atom name", tok)
        return Literal(table.intern(tok[1]), positive)


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

    signs: dict[int, bool] = {}  # atom -> the sign it was listed with
    if text.strip():
        for part in text.split(","):
            part = part.strip()
            positive = True
            if part.startswith("-"):
                positive = False
                part = part[1:].strip()
            if not re.fullmatch(_NAME, part):
                raise ParseError("bad query literal %r" % part)
            if part not in table:
                raise ParseError("query atom %r does not occur in the program" % part)
            atom = table.id(part)
            if signs.setdefault(atom, positive) != positive:
                raise ParseError("query names both %s and -%s" % (part, part))
    return WVI.from_literals(Literal(atom, positive) for atom, positive in signs.items())
