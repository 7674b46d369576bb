import pytest

from wvcount.errors import ParseError
from wvcount.model import Epistemic, Literal, Objective
from wvcount.parser import parse_program, parse_query, program_to_text


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
