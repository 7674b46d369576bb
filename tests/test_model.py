import pytest

from wvcount.bench import gen_random_elp, gen_scholarship
from wvcount.model import (
    AtomTable,
    Epistemic,
    Literal,
    Objective,
    Program,
    Rule,
    WVI,
    bits,
    mask_of,
)
from wvcount.parser import parse_program, program_to_text


def test_atom_table_interning():
    table = AtomTable()
    a = table.intern("a")
    assert table.intern("a") == a == table.id("a")
    b = table.intern("b")
    assert (a, b) == (0, 1)
    assert table.names == ["a", "b"]
    assert len(table) == 2
    with pytest.raises(KeyError):
        table.id("zz")


def test_literal_negation_involution():
    lit = Literal(3, True)
    assert lit.negate().negate() == lit
    assert lit.negate() == Literal(3, False)


def test_bits_and_masks():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([0, 3]) == 0b1001


def test_rule_masks():
    rule = Rule(
        (0,),
        (
            Objective(Literal(1, True)),
            Objective(Literal(2, False)),
            Epistemic(False, Literal(3, True)),
        ),
    )
    assert rule.head_mask == 0b0001
    assert rule.pos_mask == 0b0010
    assert rule.neg_mask == 0b0100
    assert rule.eats_mask == 0b1000
    assert rule.aats_mask == 0b0111
    assert not rule.purely_epistemic


def test_rule_head_normalized():
    rule = Rule((2, 0, 2), ())
    assert rule.head == (0, 2)


def test_rule_rejects_mixed_atom():
    # Atom 0 in the head, in B+ or in B-, and under an epistemic element:
    # every shape is refused, whatever the element order.
    other = Objective(Literal(1, True))
    for e in (Epistemic(neg, Literal(0, pos)) for neg in (False, True) for pos in (True, False)):
        shapes = [((0,), (e,)), ((0, 2), (other, e)), ((0,), (e, other))]
        for o in (Objective(Literal(0, True)), Objective(Literal(0, False))):
            shapes += [((), (o, e)), ((), (e, o)), ((2,), (o, other, e)), ((2,), (e, other, o))]
        for head, body in shapes:
            with pytest.raises(ValueError, match="atom used both objectively and epistemically"):
                Rule(head, body)
    # An atom under two epistemic elements, or in B+ and B-, is one use.
    Rule((), (Epistemic(False, Literal(0, True)), Epistemic(True, Literal(0, False))))
    Rule((1,), (Objective(Literal(0, True)), Objective(Literal(0, False))))


def test_purely_epistemic_rule_has_empty_head():
    rule = Rule((), (Epistemic(True, Literal(1, False)),))
    assert rule.purely_epistemic


def test_wvi_invariants():
    with pytest.raises(ValueError):
        WVI(domain=1, true=1, false=1)
    with pytest.raises(ValueError):
        WVI(domain=0, true=1)
    wvi = WVI(domain=0b111, true=0b001, false=0b010)
    assert wvi.undecided == 0b100
    assert wvi.value(0) is True and wvi.value(1) is False and wvi.value(2) is None


def test_wvi_restrict_and_union():
    wvi = WVI(domain=0b111, true=0b001, false=0b010)
    small = wvi.restrict(0b011)
    assert small == WVI(0b011, 0b001, 0b010)
    other = WVI(domain=0b1000, true=0b1000)
    merged = wvi.union(other)
    assert merged.domain == 0b1111 and merged.true == 0b1001
    with pytest.raises(ValueError):
        wvi.union(WVI(domain=0b001, false=0b001))


def test_wvi_text_ordering():
    table = AtomTable(["a", "b", "c"])
    wvi = WVI(domain=0b111, true=0b100, false=0b001)
    assert wvi.text(table) == "-a c"


def test_program_masks():
    table = AtomTable(["a", "b"])
    prog = Program(
        table,
        (
            Rule((0,), ()),
            Rule((), (Epistemic(False, Literal(1, True)),)),
        ),
    )
    assert prog.ats_mask == 0b11
    assert prog.eats_mask == 0b10
    assert not prog.is_plain
    assert Program(table, (Rule((0,), ()),)).is_plain


def walked_masks(rule):
    """Every mask of ``rule``, by a walk over its head and body."""
    head = pos = neg = eats = 0
    for a in rule.head:
        head |= 1 << a
    for el in rule.body:
        bit = 1 << el.literal.atom
        if isinstance(el, Epistemic):
            eats |= bit
        elif el.literal.positive:
            pos |= bit
        else:
            neg |= bit
    aats = head | pos | neg
    return dict(
        head_mask=head, pos_mask=pos, neg_mask=neg, eats_mask=eats, aats_mask=aats,
        ats_mask=aats | eats, purely_epistemic=aats == 0,
    )


def mask_programs():
    yield from (gen_random_elp(12, 6, 12, s) for s in range(20))
    yield parse_program(program_to_text(gen_scholarship(40, "many", 0)))


def test_rule_masks_on_first_read_in_either_order():
    # Masks are computed when first read: read eats_mask or aats_mask
    # first, every mask agrees with a walk over the ids.
    for first in ("aats_mask", "eats_mask"):
        for program in mask_programs():
            for rule in program.rules:
                fresh = Rule(rule.head, rule.body)
                expected = walked_masks(fresh)
                getattr(fresh, first)
                assert {name: getattr(fresh, name) for name in expected} == expected


def test_without_epistemic_keeps_the_masks_of_its_residue():
    # A residue drops the epistemic elements over the domain and comes
    # with its masks: they equal a walk over the residue's own ids.
    for program in mask_programs():
        eats = program.eats_mask
        for domain in (eats, mask_of(list(bits(eats))[::2]), 0):
            for rule in program.rules:
                residue = rule.without_epistemic(domain)
                assert residue.head == rule.head
                assert residue.body == tuple(
                    el for el in rule.body
                    if isinstance(el, Objective) or not domain >> el.literal.atom & 1
                )
                assert {name: getattr(residue, name) for name in walked_masks(residue)} == (
                    walked_masks(residue)
                )


def test_program_masks_fold_read_and_unread_rules():
    # A program folds unread rules from their ids and read rules from
    # their kept masks: with none, every other and all read, the fold is
    # the OR of the walked masks.
    for program in mask_programs():
        eats = aats = 0
        for rule in program.rules:
            expected = walked_masks(rule)
            eats |= expected["eats_mask"]
            aats |= expected["aats_mask"]
        assert (program.eats_mask, program.aats_mask) == (eats, aats)
        for step in (2, 1):
            rules = [Rule(r.head, r.body) for r in program.rules]
            for rule in rules[::step]:
                rule.aats_mask
            folded = Program(program.atoms, rules)
            assert (folded.eats_mask, folded.aats_mask) == (eats, aats)
