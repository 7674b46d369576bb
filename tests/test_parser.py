import random
import re

import pytest

from conftest import RUNNING_TEXT
from wvcount.bench import gen_random_elp, gen_scholarship
from wvcount.errors import ParseError
from wvcount.model import Epistemic, Literal, Objective
from wvcount.parser import _position, _tokenize, parse_program, parse_query, program_to_text


def test_disjunctive_fact():
    prog = parse_program("a | b.")
    assert len(prog.rules) == 1
    rule = prog.rules[0]
    assert rule.head == (0, 1)
    assert rule.body == ()
    assert prog.atoms.names == ["a", "b"]


def test_semicolon_head_separator():
    prog = parse_program("a ; b | c.")
    assert prog.rules[0].head == (0, 1, 2)


def test_default_negation_body():
    prog = parse_program("c :- -d.")
    rule = prog.rules[0]
    assert rule.head == (prog.atoms.id("c"),)
    assert rule.body == (Objective(Literal(prog.atoms.id("d"), False)),)
    assert rule.neg_mask == 1 << prog.atoms.id("d")


def test_modal_desugaring():
    prog = parse_program(":- K a, -K b, M c, -M d, not e, -not f.")
    a, b, c, d, e, f = (prog.atoms.id(x) for x in "abcdef")
    assert prog.rules[0].body == (
        Epistemic(True, Literal(a, True)),    # K a  == -not a
        Epistemic(False, Literal(b, True)),   # -K b == not b
        Epistemic(False, Literal(c, False)),  # M c  == not -c
        Epistemic(True, Literal(d, False)),   # -M d == -not -d
        Epistemic(False, Literal(e, True)),
        Epistemic(True, Literal(f, True)),
    )


def test_negative_inner_literals():
    prog = parse_program(":- K -a, not -b.")
    a, b = prog.atoms.id("a"), prog.atoms.id("b")
    assert prog.rules[0].body == (
        Epistemic(True, Literal(a, False)),
        Epistemic(False, Literal(b, False)),
    )


def test_atom_interning_order():
    prog = parse_program("b :- a.\nc | a :- -d.")
    assert prog.atoms.names == ["b", "a", "c", "d"]


def test_rule_order_preserved():
    prog = parse_program("x.\ny.\nz :- x.")
    assert prog.rules[0].head == (prog.atoms.id("x"),)
    assert prog.rules[1].head == (prog.atoms.id("y"),)
    assert prog.rules[2].head == (prog.atoms.id("z"),)


def test_comments_and_whitespace():
    prog = parse_program("% intro\n a .  % trailing\n\n% done\n")
    assert len(prog.rules) == 1


def test_duplicate_negation_rejected():
    with pytest.raises(ParseError, match="duplicate negation"):
        parse_program(":- --a.")


def test_epistemic_literal_in_head_rejected():
    with pytest.raises(ParseError, match="head"):
        parse_program("K a.")
    with pytest.raises(ParseError, match="head"):
        parse_program("not a.")
    with pytest.raises(ParseError, match="head"):
        parse_program("-a.")


def test_not_k_sequence_is_a_syntax_error():
    # "not K b" is not a body element; the K form already carries the
    # epistemic negation and must be written -K b.
    with pytest.raises(ParseError):
        parse_program(":- not K b, M c.")


def test_missing_dot():
    with pytest.raises(ParseError, match="expected '.'"):
        parse_program("a :- b")


def test_unknown_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse_program("a :- b & c.")


def test_mixed_objective_epistemic_atom_rejected():
    with pytest.raises(ParseError, match="objectively and epistemically"):
        parse_program("a :- not a.")


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("a.\nb :- --c.")
    assert err.value.line == 2


# Each row: program text, message, line, column.  Columns count
# characters from 1, a tab or a "\r" as one; only "\n" ends a line.
ERRORS = [
    ("a :- b & c.", "unexpected character '&'", 1, 8),
    ("% a & b\nc :- d # e.", "unexpected character '#'", 2, 8),
    ("a. % x\n&", "unexpected character '&'", 2, 1),
    ("a.\nb :- c.\nd :- e $ f.", "unexpected character '$'", 3, 8),
    ("a.\r\n\t\tb :- @c.", "unexpected character '@'", 2, 8),
    ("a :-\t\t\r\n\t! b.", "unexpected character '!'", 2, 2),
    ("a :- \u00e9.", "unexpected character '\u00e9'", 1, 6),
    # the whole text is tokenized first: this beats the syntax error on line 1
    ("a :- .\nb & c.", "unexpected character '&'", 2, 3),
    ("a :- b c.", "expected '.' at end of rule", 1, 8),
    ("a :- b\n", "expected '.' at end of rule", 2, 1),
    ("a :- K -b.\nc :- M d", "expected '.' at end of rule", 2, 9),
    (".", "empty rule", 1, 1),
    ("a.\n  .", "empty rule", 2, 3),
    ("K a.", "epistemic or negated literal in head", 1, 1),
    ("-a.", "epistemic or negated literal in head", 1, 1),
    ("b.\nnot a.", "epistemic or negated literal in head", 2, 1),
    ("a | K b.", "expected atom name in head", 1, 5),
    ("a | not.", "expected atom name in head", 1, 5),
    (":- --a.", "duplicate negation", 1, 5),
    (":- K not.", "expected atom name", 1, 6),
    (":- not not a.", "expected atom name", 1, 8),
    (":- -K .", "expected atom name", 1, 7),
    (":- K -.", "expected atom name", 1, 7),
    ("a :- .", "expected body element", 1, 6),
    ("a :- b, .", "expected body element", 1, 9),
    ("b.\n  a :- not a.", "atom used both objectively and epistemically in one rule", 2, 3),
    # errors at the end of a text without a trailing newline
    ("a :- b", "expected '.' at end of rule", 1, 7),
    ("a :- b,", "expected body element", 1, 8),
    ("a.\nb :- c,", "expected body element", 2, 8),
]


def test_every_parse_error_has_its_message_and_position():
    for text, message, line, col in ERRORS:
        with pytest.raises(ParseError) as err:
            parse_program(text)
        got = (str(err.value), err.value.line, err.value.col)
        assert got == ("line %d, col %d: %s" % (line, col, message), line, col), text


def test_roundtrip(running):
    text = program_to_text(running)
    again = parse_program(text)
    assert program_to_text(again) == text
    assert [r.head for r in again.rules] == [r.head for r in running.rules]
    assert [r.body for r in again.rules] == [r.body for r in running.rules]


def test_parse_query(running):
    q = parse_query("a,-b", running.atoms)
    a, b = running.atoms.id("a"), running.atoms.id("b")
    assert q.true == 1 << a
    assert q.false == 1 << b
    assert q.domain == (1 << a) | (1 << b)


def test_parse_query_unknown_atom(running):
    with pytest.raises(ParseError, match="does not occur"):
        parse_query("zz", running.atoms)
    with pytest.raises(ParseError, match="both a and -a"):
        parse_query("a,-a", running.atoms)


def test_long_query_with_its_only_conflict_last():
    # Signs are looked up, not scanned for: a 20,000-literal query parses
    # in a blink (a scan of the literals so far grows with their square),
    # and the errors are those of a short query, the first offending
    # literal's.
    import time

    from wvcount.model import AtomTable

    n = 20000
    table = AtomTable("x%d" % i for i in range(n))
    text = ",".join(("-x%d" if i % 3 == 0 else "x%d") % i for i in range(n))
    start = time.perf_counter()
    q = parse_query(text + ",x1", table)
    assert time.perf_counter() - start < 2
    assert q.domain == (1 << n) - 1
    assert q.false == sum(1 << i for i in range(0, n, 3))
    with pytest.raises(ParseError, match=r"^query names both x%d and -x%d$" % (n - 1, n - 1)):
        parse_query(text + ",-x%d,x0,zz" % (n - 1), table)
    with pytest.raises(ParseError, match=r"^query atom 'zz' does not occur in the program$"):
        parse_query(text + ",zz,x0", table)
    with pytest.raises(ParseError, match=r"^bad query literal '1x'$"):
        parse_query(text + ",-1x,x0", table)


# ---------------------------------------------------------------------------
# Reference tokenizer


REFERENCE_TOKEN_RE = re.compile(
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


def reference_tokenize(text):
    """Reference: a tokenizer that tracks the line and column of every
    token as it scans; ``(kind, text, line, col)`` per token."""
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                "unexpected character %r" % text[pos], line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line, m.start() - line_start + 1))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + value.rfind("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


# Surface forms the printer never writes: the modal sugar, comments,
# tabs and CRLF line ends.
SUGARED = (
    "% header\r\na | b ; c.\r\n\tc :- -K a, -M b, M c.\r\n"
    ":- K -a, -not b.  % trailing\r\nd_1 :- not -c, -d2.\n"
)

# Pieces a mutation inserts: tokens, separators, comment starts and
# characters no token takes.
PIECES = (
    "&", "\u00e9", "#", "\u00a0", "\n", "\r\n", "\t\t", " ", "%", "% c\n",
    "-", "--", "K", "M", "-K ", "-M ", "not ", "|", ";", ",", ".", ":-", "a", "x1",
)


def mutate(text, rng):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.random()
        if op < 0.5:
            text = text[:i] + rng.choice(PIECES) + text[i:]
        elif op < 0.75:
            text = text[:i] + text[i + rng.randint(1, 3):]
        else:
            text = text[:i] + rng.choice(PIECES) + text[i + 1:]
    return text


def test_tokens_and_positions_match_the_reference():
    bases = [RUNNING_TEXT, SUGARED, program_to_text(gen_scholarship(2, "many", 1))]
    bases += [program_to_text(gen_random_elp(8, 4, 10, seed)) for seed in range(6)]
    rng = random.Random(21)
    failed = 0
    for i in range(2000):
        text = mutate(bases[i % len(bases)], rng)
        try:
            want = reference_tokenize(text)
        except ParseError as exc:
            failed += 1
            with pytest.raises(ParseError) as err:
                _tokenize(text)
            assert (str(err.value), err.value.line, err.value.col) == (
                str(exc), exc.line, exc.col
            ), text
            continue
        got = _tokenize(text)
        assert [(kind, value) for kind, value, _ in got] == [
            (kind, value) for kind, value, _, _ in want
        ], text
        assert [_position(text, offset) for _, _, offset in got] == [
            (line, col) for _, _, line, col in want
        ], text
    # both paths are exercised: texts that tokenize and texts that fail
    assert 300 < failed < 1700
