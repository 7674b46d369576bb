"""Core data model for ground epistemic logic programs.

Atoms are interned into dense integer ids, and atom sets are bitmasks over
those ids.  A mask is as long as its highest atom id, so an operation on
it costs in proportion to the program's atoms, not the set's: with a few
thousand atoms, a one-atom mask is a few hundred digits.  Reducts,
compatibility checks and the dynamic programming tables use masks on one
component at a time.  The split into components and the component keys,
which read every rule of the program, use atom ids instead: a
``semantics.Component`` renames a rule list onto dense local atom numbers
and owns its key.  So a ``Rule`` stores only its atom ids and computes
its masks on first read: a parsed program holds no per-rule mask, and
only the rules of the components that reach the mask-based layers get
one.  A ``Program`` folds its own masks from the ids of rules whose
masks were never read.
All model values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class AtomTable:
    """Interning table mapping atom names to dense ids in first-occurrence order."""

    def __init__(self, names: Iterable[str] = ()):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        for n in names:
            self.intern(n)

    def intern(self, name: str) -> int:
        idx = self.ids.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self.ids[name] = idx
        return idx

    def id(self, name: str) -> int:
        try:
            return self.ids[name]
        except KeyError:
            raise KeyError("unknown atom %r" % name) from None

    def name(self, idx: int) -> str:
        return self.names[idx]

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.ids

    def mask_to_names(self, mask: int) -> list[str]:
        return [self.names[i] for i in bits(mask)]


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its (classical) negation."""

    atom: int
    positive: bool = True

    def negate(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def text(self, table: AtomTable) -> str:
        name = table.name(self.atom)
        return name if self.positive else "-" + name


@dataclass(frozen=True)
class Objective:
    """A plain body literal: positive atoms go to B+, negated ones to B-."""

    literal: Literal


@dataclass(frozen=True)
class Epistemic:
    """An epistemic body element.

    ``negated=False`` is the epistemic negation of ``literal`` itself
    ("not l"); ``negated=True`` is its classical complement ("- not l").
    The K/M surface forms desugar onto these two shapes.
    """

    negated: bool
    literal: Literal


BodyElement = Union[Objective, Epistemic]


def _split_masks(rules) -> tuple[int, int]:
    """``(eats_mask, aats_mask)`` over ``rules``: a rule's kept masks where
    it has them, else a walk over its atom ids, which keeps nothing."""
    eats = aats = 0
    for r in rules:
        masks = r._masks
        if masks is not None:
            eats |= masks[0]
            aats |= masks[1]
            continue
        for a in r.head:
            aats |= 1 << a
        for el in r.body:
            if isinstance(el, Objective):
                aats |= 1 << el.literal.atom
            else:
                eats |= 1 << el.literal.atom
    return eats, aats


@dataclass(frozen=True)
class Rule:
    """One ELP rule: disjunctive head plus a list of body elements.

    Head atoms are positive.  Within a single rule an atom is either
    objective or epistemic, never both; this keeps the per-rule split into
    epistemic atoms (``eats_mask``) and objective atoms (``aats_mask``)
    well defined.  Construction checks that on atom ids and builds no
    mask.  ``eats_mask`` and ``aats_mask`` are computed together, in one
    walk, the first time either is read, and kept on the instance; a rule
    made by ``without_epistemic`` gets them from its source at once.
    ``head_mask``, ``pos_mask`` and ``neg_mask`` are derived on each read.
    """

    head: tuple[int, ...]
    body: tuple[BodyElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "head", tuple(sorted(set(self.head))))
        object.__setattr__(self, "body", tuple(self.body))
        objective = list(self.head)
        epistemic = []
        for el in self.body:
            (objective if isinstance(el, Objective) else epistemic).append(el.literal.atom)
        if epistemic and not set(epistemic).isdisjoint(objective):
            raise ValueError(
                "atom used both objectively and epistemically in one rule"
            )

    # ``(eats_mask, aats_mask)`` once either was read.  A class attribute,
    # so it is no dataclass field and equality and hashing ignore it.
    _masks = None

    def _keep_masks(self) -> tuple[int, int]:
        masks = _split_masks((self,))
        object.__setattr__(self, "_masks", masks)
        return masks

    @property
    def eats_mask(self) -> int:
        """Atoms under an epistemic element."""
        return (self._masks or self._keep_masks())[0]

    @property
    def aats_mask(self) -> int:
        """Objective atoms: the head and the plain body literals."""
        return (self._masks or self._keep_masks())[1]

    def without_epistemic(self, domain: int) -> "Rule":
        """This rule less its epistemic elements over the atoms of
        ``domain``.  Its masks follow from this rule's, so the result
        keeps them at once."""
        eats, aats = self._masks or self._keep_masks()
        rule = Rule(self.head, tuple(
            el for el in self.body
            if isinstance(el, Objective) or not (domain >> el.literal.atom) & 1
        ))
        object.__setattr__(rule, "_masks", (eats & ~domain, aats))
        return rule

    @property
    def head_mask(self) -> int:
        return mask_of(self.head)

    @property
    def pos_mask(self) -> int:
        return mask_of(
            el.literal.atom
            for el in self.body
            if isinstance(el, Objective) and el.literal.positive
        )

    @property
    def neg_mask(self) -> int:
        return mask_of(
            el.literal.atom
            for el in self.body
            if isinstance(el, Objective) and not el.literal.positive
        )

    @property
    def ats_mask(self) -> int:
        return self.aats_mask | self.eats_mask

    @property
    def purely_epistemic(self) -> bool:
        return self.aats_mask == 0


@dataclass(frozen=True, eq=False)
class Program:
    """A set of ELP rules over a shared atom table.

    Specializes to a plain program when no epistemic element occurs.
    Derived programs (reducts, adjunctions) share the atom table; atom
    sets come from the program's own rules, not the table.  They are
    computed once, at construction: ``eats_mask`` (atoms under an
    epistemic element) and ``aats_mask`` (objective atoms) are folded
    over the rules (``_split_masks``), which fills no rule's masks, and
    ``ats_mask`` and ``is_plain`` derive from them.
    ``component`` is set only on a program the counting router built: its
    ``semantics.Component``, whose renaming and key the base solver reads.
    """

    atoms: AtomTable
    rules: tuple[Rule, ...]
    component: object = field(default=None, repr=False)

    eats_mask: int = field(init=False, repr=False, default=0)
    aats_mask: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        eats, aats = _split_masks(self.rules)
        object.__setattr__(self, "eats_mask", eats)
        object.__setattr__(self, "aats_mask", aats)

    @property
    def ats_mask(self) -> int:
        return self.eats_mask | self.aats_mask

    @property
    def is_plain(self) -> bool:
        return self.eats_mask == 0

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return Program(self.atoms, tuple(rules))

    def extended(self, extra: Iterable[Rule]) -> "Program":
        return Program(self.atoms, self.rules + tuple(extra))


@dataclass(frozen=True)
class WVI:
    """A world view interpretation: a three-valued partial assignment.

    ``domain`` is the atom set the interpretation speaks about; ``true``
    and ``false`` are the decided literals.  A domain atom that is neither
    true nor false is undecided ("possible"), which is distinct from an
    atom outside the domain.
    """

    domain: int
    true: int = 0
    false: int = 0

    def __post_init__(self):
        if self.true & self.false:
            raise ValueError("inconsistent WVI: atom decided both ways")
        if (self.true | self.false) & ~self.domain:
            raise ValueError("decided literal outside WVI domain")

    @property
    def decided(self) -> int:
        return self.true | self.false

    @property
    def undecided(self) -> int:
        return self.domain & ~self.decided

    def holds(self, lit: Literal) -> bool:
        bit = 1 << lit.atom
        return bool((self.true if lit.positive else self.false) & bit)

    def value(self, atom: int) -> Optional[bool]:
        bit = 1 << atom
        if self.true & bit:
            return True
        if self.false & bit:
            return False
        return None

    def restrict(self, mask: int) -> "WVI":
        return WVI(self.domain & mask, self.true & mask, self.false & mask)

    def union(self, other: "WVI") -> "WVI":
        """Combine two WVIs; raises on a conflicting decision."""
        if (self.true & other.false) or (self.false & other.true):
            raise ValueError("conflicting WVIs")
        return WVI(
            self.domain | other.domain,
            self.true | other.true,
            self.false | other.false,
        )

    def decided_literals(self) -> Iterator[Literal]:
        for atom in bits(self.decided):
            yield Literal(atom, bool(self.true & (1 << atom)))

    def text(self, table: AtomTable) -> str:
        """Decided literals in atom-id order, e.g. ``a -b -c d``."""
        return " ".join(l.text(table) for l in self.decided_literals())

    @staticmethod
    def from_literals(literals: Iterable[Literal], domain: int = 0) -> "WVI":
        t = f = 0
        for lit in literals:
            bit = 1 << lit.atom
            if lit.positive:
                t |= bit
            else:
                f |= bit
            domain |= bit
        return WVI(domain, t, f)


EMPTY_WVI = WVI(0, 0, 0)
