import itertools
import os
from dataclasses import replace

import pytest

from wvcount.decomp import NiceTD
from wvcount.model import WVI, AtomTable, Epistemic, Literal, Objective, Program, Rule, bits
from wvcount.parser import parse_program
from wvcount.semantics import is_plausible

HERE = os.path.dirname(__file__)
RUNNING_PATH = os.path.join(HERE, "..", "instances", "running.elp")

with open(RUNNING_PATH, "r", encoding="utf-8") as _handle:
    RUNNING_TEXT = _handle.read()

# The plain core of the running example (first three rules).
PLAIN_TEXT = "a | b.\nc :- -d.\nd :- -c.\n"


@pytest.fixture
def running():
    return parse_program(RUNNING_TEXT)


@pytest.fixture
def plain_core():
    return parse_program(PLAIN_TEXT)


def running_nice_td(program):
    """The worked nice decomposition of the running example's epistemic
    primal graph: one branch introduces b, a, c and removes a, b; the
    other introduces d, c and removes d; both join on {c}."""
    t = program.atoms
    a, b, c, d = (t.id(x) for x in "abcd")
    bags = {
        1: set(), 2: {b}, 3: {a, b}, 4: {a, b, c},
        5: {b, c}, 6: {c},
        7: set(), 8: {d}, 9: {c, d}, 10: {c},
        11: {c}, 12: set(),
    }
    children = {1: (), 2: (1,), 3: (2,), 4: (3,), 5: (4,), 6: (5,),
                7: (), 8: (7,), 9: (8,), 10: (9,), 11: (6, 10), 12: (11,)}
    kind = {1: "leaf", 2: "intr", 3: "intr", 4: "intr", 5: "rem", 6: "rem",
            7: "leaf", 8: "intr", 9: "intr", 10: "rem", 11: "join", 12: "rem"}
    action = {2: b, 3: a, 4: c, 5: a, 6: b, 8: d, 9: c, 10: d, 12: c}
    return NiceTD(bags, children, 12, kind, action)


def row_masks(row, shift):
    """Split a table row, ``true_mask | false_mask << shift``, into
    ``(true_mask, false_mask)``."""
    return row & ((1 << shift) - 1), row >> shift


def wvi_from_names(table, names):
    """Build a WVI from decided literal names, e.g. ["a", "-b"]."""
    t = f = dom = 0
    for name in names:
        positive = not name.startswith("-")
        atom = table.id(name.lstrip("-"))
        dom |= 1 << atom
        if positive:
            t |= 1 << atom
        else:
            f |= 1 << atom
    return WVI(dom, t, f)


def brute_plausible_count(program):
    """Independent plausibility oracle: try all 3^k guesses directly."""
    eats = program.eats_mask
    atoms = sorted(bits(eats))
    count = 0
    for choice in itertools.product((None, True, False), repeat=len(atoms)):
        t = f = 0
        for atom, val in zip(atoms, choice):
            if val is True:
                t |= 1 << atom
            elif val is False:
                f |= 1 << atom
        if is_plausible(WVI(eats, t, f), program):
            count += 1
    return count


def brute_cnf_models(num_vars, clauses):
    """Independent model counter for DIMACS-style clause lists."""
    count = 0
    for assignment in range(1 << num_vars):
        ok = True
        for clause in clauses:
            if not any(
                ((assignment >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0)
                for l in clause
            ):
                ok = False
                break
        if ok:
            count += 1
    return count


def renamed_rules(rules, new):
    """``rules`` with every atom ``a`` renamed to ``new[a]``."""

    def move(literal):
        return Literal(new[literal.atom], literal.positive)

    return tuple(
        Rule(
            tuple(new[a] for a in r.head),
            tuple(replace(el, literal=move(el.literal)) for el in r.body),
        )
        for r in rules
    )


def with_renamed_copy(program, rng=None):
    """``program`` beside a copy of itself over fresh atoms, numbered after
    the program's.  The copy keeps the atoms' order unless ``rng`` is
    given, which shuffles it, so the two halves are then equal only up to
    a renaming that reorders atoms."""
    names = program.atoms.names
    n = len(names)
    order = list(range(n))
    if rng is not None:
        rng.shuffle(order)
    copy_names = [None] * n
    for a, b in enumerate(order):
        copy_names[b] = names[a] + "_copy"
    table = AtomTable(names + copy_names)

    copy = renamed_rules(program.rules, [n + b for b in order])
    return Program(table, program.rules + copy)


def shifted(program, offset):
    """``program`` with every atom id raised by ``offset``."""
    n = len(program.atoms)
    names = ["pad%d" % i for i in range(offset)] + program.atoms.names
    return Program(AtomTable(names), renamed_rules(program.rules, range(offset, offset + n)))


def same_atom_programs():
    """Programs whose rules put two epistemic elements on one atom, ``a``:
    every pair of ``not a``, ``not -a``, ``K a`` and ``K -a``, repeats
    included, in each of four rules, two headless purely-epistemic ones
    (``:- x, y.`` and ``:- x, y, K c.``) and two with objective atoms
    (``d :- x, y.`` and ``:- x, y, c.``).  Each program adds the core
    ``a | b. a :- not b. c :- not d. d :- not c.``, which has up to two
    world views, and a second such rule, with another pair in another of
    the four shapes, so ``a``'s true, false and undecided rule masks each
    collect several rules' kinds."""
    a, b, c, d = range(4)

    def epistemic(negated, atom, positive=True):
        return Epistemic(negated, Literal(atom, positive))

    # ``not a``, ``not -a``, ``K a`` (``- not a``) and ``K -a``.
    elements = [epistemic(negated, a, positive)
                for negated, positive in ((False, True), (False, False), (True, True), (True, False))]
    shapes = (
        lambda x, y: Rule((), (x, y)),
        lambda x, y: Rule((), (x, y, epistemic(True, c))),
        lambda x, y: Rule((d,), (x, y)),
        lambda x, y: Rule((), (x, y, Objective(Literal(c)))),
    )
    core = (
        Rule((a, b), ()),
        Rule((a,), (epistemic(False, b),)),
        Rule((c,), (epistemic(False, d),)),
        Rule((d,), (epistemic(False, c),)),
    )
    pairs = list(itertools.combinations_with_replacement(elements, 2))
    table = AtomTable("abcd")
    programs = []
    for i, pair in enumerate(pairs):
        partner = pairs[(i + 3) % len(pairs)]
        for s, shape in enumerate(shapes):
            second = shapes[(s + 1) % len(shapes)]
            programs.append(Program(table, core + (shape(*pair), second(*partner))))
    return programs
