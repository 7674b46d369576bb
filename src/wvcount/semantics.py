"""ELP semantics: reducts, answer sets, world views, and brute-force oracles.

The enumerative functions here are deliberately simple.  They serve as the
base-case solver of the nested dynamic programming engine and as ground
truth in tests, guarded by explicit size caps.

Epistemic reducts are compiled once per rule list and domain
(``compile_reduct``) and read by atom: each domain atom names the rules
it kills when true, false or undecided, so a WVI's surviving rules are
one mask, every rule less the OR of one dead-rule mask per domain atom
(``survivors``).  Callers cache by that mask and build the reduct's
rule list (``reduct_rules``) only on a miss.  ``enumerate_world_views``
walks its guesses depth-first and ORs in each atom's mask on the way
down.

``Component`` alone renames a rule list onto dense local atom numbers
and keys it; the router's, the world-view and the answer-set memos all
key on ``Component.key``, and ``components`` is the one split into them.
"""

from __future__ import annotations

from fractions import Fraction

from . import kernel
from .errors import BruteForceCapExceeded, NoWorldViews, NotPlainError
from .model import (
    EMPTY_WVI,
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


# Default brute-force caps: atoms an answer-set enumeration may span, and
# epistemic atoms a world-view enumeration may guess over.
ANSWER_CAP = 24
WV_CAP = 12


def gl_reduct(program: Program, interpretation: int) -> Program:
    """Gelfond-Lifschitz reduct of a plain program under an interpretation mask."""
    if not program.is_plain:
        raise NotPlainError("GL reduct is defined for plain programs only")
    rules = []
    for r in program.rules:
        if r.neg_mask & interpretation:
            continue
        body = tuple(el for el in r.body if el.literal.positive)
        rules.append(Rule(r.head, body))
    return program.with_rules(rules)


def rule_atoms(rule: Rule) -> tuple[int, ...]:
    """The atom ids of ``rule``: its head, then the atom of each body
    element.  An atom may repeat; the rule has none iff it is a bare
    falsity constraint."""
    return rule.head + tuple([el.literal.atom for el in rule.body])


def rules_key(rules, index) -> tuple:
    """``rules`` as their local masks under ``index``, which maps each
    atom to its local number (``Component``): head, positive and negative
    body, and the four ``epistemic_masks``, built in one walk per rule.
    The masks stay as small as the atom list, however high its ids.  Rule
    lists that differ by an order-preserving renaming of their atoms get
    equal keys."""
    key = []
    for r in rules:
        head = 0
        for a in r.head:
            head |= 1 << index[a]
        pos = neg = kill_t = kill_f = need_t = need_f = 0
        for el in r.body:
            lit = el.literal
            bit = 1 << index[lit.atom]
            if isinstance(el, Objective):
                if lit.positive:
                    pos |= bit
                else:
                    neg |= bit
            elif el.negated:  # as in ``epistemic_masks``
                if lit.positive:
                    need_t |= bit
                else:
                    need_f |= bit
            elif lit.positive:
                kill_t |= bit
            else:
                kill_f |= bit
        key.append((head, pos, neg, kill_t, kill_f, need_t, need_f))
    return tuple(key)


def _components(rules, atoms):
    """Partition ``rules`` by connectivity of their ``atoms``, one nonempty
    sequence of atom ids per rule (``rule_atoms``, or a part of it);
    returns (atom list, rules) pairs in the order of their lowest atoms,
    each atom list the sorted union of its rules' atoms.  No mask is
    built, so the split costs no more at high atom ids.

    A union-find over atoms with path halving: each rule joins its atoms
    to the root of its first one.  The finds are written inline because
    the counting router runs this on every subproblem.
    """
    parent: dict[int, int] = {}
    for ids in atoms:
        root = -1
        for a in ids:
            while parent.setdefault(a, a) != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            if root < 0:
                root = a
            elif a != root:
                parent[a] = root
    # Atoms in ascending order, so each group's atom list comes out sorted
    # and the groups appear in the order of their lowest atoms.
    groups: dict[int, tuple] = {}
    for atom in sorted(parent):
        a = atom
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        groups.setdefault(a, ([], []))[0].append(atom)
    for r, ids in zip(rules, atoms):
        a = ids[0]
        while parent[a] != a:
            a = parent[a]
        groups[a][1].append(r)
    return list(groups.values())


class Component:
    """A rule list over ``atoms``, its sorted atom ids, renamed onto dense
    local numbers: the i-th atom becomes atom i.  ``mask`` is the atoms'
    mask, ``local`` maps a mask over them to local numbers (one shift for
    a run of consecutive ids, the common case), ``key`` is ``rules_key``
    over those numbers, equal for rule lists equal up to an
    order-preserving renaming, and ``plan`` is the router's ``dp._Plan``,
    which holds its ``Program``, made on the first memo miss.  Nothing
    here walks a mask over the whole program's atoms, so no part costs
    more at high atom ids."""

    __slots__ = ("atoms", "mask", "rules", "local", "key", "plan")

    def __init__(self, atoms, rules):
        index = {atom: i for i, atom in enumerate(atoms)}
        if atoms and atoms[-1] - atoms[0] == len(atoms) - 1:  # one run of consecutive ids
            lo = atoms[0]
            self.mask = ((1 << len(atoms)) - 1) << lo
            self.local = lambda mask: mask >> lo
        else:
            def local(mask):
                out = 0
                for a in bits(mask):
                    out |= 1 << index[a]
                return out

            self.mask, self.local = mask_of(atoms), local
        self.atoms, self.rules, self.key = atoms, rules, rules_key(rules, index)
        self.plan = None

    def local_wvi(self, wvi: WVI) -> tuple:
        """``wvi``'s domain, true and false masks in local numbers; ``wvi``
        speaks about the component's atoms only."""
        local = self.local
        return local(wvi.domain), local(wvi.true), local(wvi.false)


def components(rules) -> list:
    """``rules`` split into connected ``Component``s, in the order of their
    lowest atoms (``_components`` over each rule's ``rule_atoms``)."""
    split = _components(rules, [rule_atoms(r) for r in rules])
    return [Component(atoms, part) for atoms, part in split]


def answer_sets(program: Program, cap: int = ANSWER_CAP, memo=None) -> list[int]:
    """All answer sets of a plain program, as sorted interpretation masks.

    Disconnected parts of the program are enumerated separately and
    recombined; answer sets of a disjoint union are exactly the unions of
    per-part answer sets.  The cap bounds the total atom count.  An
    optional ``memo`` dict maps a component's ``key`` to its answer sets
    in local numbers, so components that differ only in their atom names
    are enumerated once and each maps the sets back to its own atoms.
    """
    if not program.is_plain:
        raise NotPlainError("answer sets are defined for plain programs only")
    n = program.ats_mask.bit_count()
    if n > cap:
        raise BruteForceCapExceeded(
            "answer-set enumeration over %d atoms exceeds cap %d" % (n, cap)
        )
    if any(not (r.head or r.body) for r in program.rules):
        return []
    memo = {} if memo is None else memo
    result = [0]
    for part in components(program.rules):
        local_sets = memo.get(part.key)
        if local_sets is None:
            heads, bpos, bneg = ([k[i] for k in part.key] for i in range(3))
            local_sets = memo[part.key] = kernel.answer_sets_masks(heads, bpos, bneg, len(part.atoms))
        if not local_sets:
            return []
        sets = [mask_of(part.atoms[i] for i in bits(m)) for m in local_sets]
        result = [base | extra for base in result for extra in sets]
    result.sort()
    return result


def epistemic_reduct(program: Program, wvi: WVI) -> Program:
    """Replace epistemic literals over the WVI's domain by their truth value.

    ``not l`` turns false when ``l`` is decided in the WVI and true
    otherwise; an outer classical negation flips that.  True elements drop
    from the body, false ones drop the whole rule.  Epistemic literals
    over atoms outside the domain are kept verbatim.
    """
    compiled = compile_reduct(program.rules, wvi.domain)
    alive = survivors(compiled, wvi.true, wvi.false)
    return program.with_rules(reduct_rules(compiled, alive))


def compile_reduct(rules, domain: int) -> tuple:
    """Compile ``rules`` for epistemic reducts under WVIs over ``domain``:
    ``(residues, all, dead)``.

    ``residues`` holds each rule without its epistemic elements over
    ``domain`` (a rule with none is its own residue), ``all`` has bit i
    set for each rule i, and ``dead`` is ``dead_masks(rules, domain)``.
    """
    residues = tuple(r.without_epistemic(domain) if r.eats_mask & domain else r for r in rules)
    return residues, (1 << len(residues)) - 1, dead_masks(rules, domain)


def dead_masks(rules, domain: int) -> tuple:
    """Which of ``rules`` die in the epistemic reduct under a WVI over
    ``domain``, transposed to one entry per atom: in ascending atom order,
    one ``(bit, when_true, when_false, when_undecided)`` for each domain
    atom some rule reads epistemically.  Bit i of a mask is set iff an
    element of rule i over that atom is false when the atom is true
    (``kill_t | need_f`` of ``epistemic_masks``), false (``kill_f |
    need_t``) or undecided (``need_t | need_f``).  No residue is built.
    """
    dead: dict[int, list[int]] = {}
    for i, r in enumerate(rules):
        if not r.eats_mask & domain:
            continue
        kill_t, kill_f, need_t, need_f = epistemic_masks(r)
        rule_bit = 1 << i
        for a in bits(r.eats_mask & domain):
            masks = dead.setdefault(a, [0, 0, 0])
            bit = 1 << a
            if (kill_t | need_f) & bit:
                masks[0] |= rule_bit
            if (kill_f | need_t) & bit:
                masks[1] |= rule_bit
            if (need_t | need_f) & bit:
                masks[2] |= rule_bit
    return tuple((1 << a, *dead[a]) for a in sorted(dead))


def survivors(compiled, t: int, f: int) -> int:
    """The rules of ``compile_reduct`` output that survive the reduct under
    the WVI with true atoms ``t`` and false atoms ``f``, disjoint: bit i is
    set iff rule i survives.  A rule dies iff one of its epistemic
    elements over the domain is false, so the dead rules are the OR of one
    mask per domain atom, chosen by the atom's value; bits of ``t`` and
    ``f`` outside the domain are not read, nor are the residues."""
    _residues, alive, dead_by_atom = compiled
    dead = 0
    for bit, when_true, when_false, when_undecided in dead_by_atom:
        dead |= when_true if t & bit else when_false if f & bit else when_undecided
    return alive & ~dead


def reduct_rules(compiled, alive: int) -> list[Rule]:
    """The residues of the rules in ``alive``, a ``survivors`` mask over
    ``compile_reduct`` output, in rule order."""
    residues = compiled[0]
    return [residues[i] for i in bits(alive)]


def with_wvi_constraints(program: Program, wvi: WVI) -> Program:
    """Adjoin constraints pinning a WVI: decided literals must be known,
    undecided domain atoms must stay possible both ways."""
    extra = []
    for lit in wvi.decided_literals():
        extra.append(Rule((), (Epistemic(False, lit),)))
    for atom in bits(wvi.undecided):
        extra.append(Rule((), (Epistemic(True, Literal(atom, False)),)))
        extra.append(Rule((), (Epistemic(True, Literal(atom, True)),)))
    return program.extended(extra)


def query_constraints(query: WVI) -> list[Rule]:
    """One constraint per decided query literal on its atom ``a``:
    ``:- not a.`` for a positive literal (``a`` must be known true) and
    ``:- K a.`` for a negative one (``a`` must not be known true;
    undecided is acceptable)."""
    return [
        Rule((), (Epistemic(not lit.positive, Literal(lit.atom)),))
        for lit in query.decided_literals()
    ]


def with_query_constraints(program: Program, query: WVI) -> Program:
    """``program`` with its ``query_constraints`` adjoined."""
    return program.extended(query_constraints(query))


def check_compatibility(wvi: WVI, answer_set_masks) -> bool:
    """Compatibility of a WVI with a set of interpretations.

    Requires: the set is nonempty; true atoms occur in every member;
    false atoms in none; undecided domain atoms in some but not all.
    """
    sets = list(answer_set_masks)
    if not sets:
        return False
    and_mask = or_mask = sets[0]
    for m in sets[1:]:
        and_mask &= m
        or_mask |= m
    if wvi.true & ~and_mask:
        return False
    if wvi.false & or_mask:
        return False
    if wvi.undecided & ~(or_mask & ~and_mask):
        return False
    return True


def is_plausible(wvi: WVI, program: Program) -> bool:
    """True iff no purely-epistemic rule survives the reduct as a violated
    constraint.  The WVI must cover all epistemic atoms of the program."""
    for r in program.rules:
        if not r.purely_epistemic:
            continue
        if r.eats_mask & ~wvi.domain:
            raise ValueError("WVI domain must cover the epistemic atoms")
        violated = True
        for el in r.body:
            value = not wvi.holds(el.literal)
            if el.negated:
                value = not value
            if not value:
                violated = False
                break
        if violated:
            return False
    return True


def epistemic_masks(rule: Rule) -> tuple[int, int, int, int]:
    """Compile a rule's epistemic body to ``(kill_t, kill_f, need_t, need_f)``.

    Under a guess with true atoms ``t`` and false atoms ``f`` the
    epistemic elements all hold, so the rule keeps its plain residue,
    iff ``not (t & kill_t or f & kill_f or need_t & ~t or need_f & ~f)``.
    Objective elements are ignored.
    """
    kill_t = kill_f = need_t = need_f = 0
    for el in rule.body:
        if not isinstance(el, Epistemic):
            continue
        bit = 1 << el.literal.atom
        if el.negated:  # "- not l" is false unless l is decided
            if el.literal.positive:
                need_t |= bit
            else:
                need_f |= bit
        else:  # "not l" is false exactly when l is decided
            if el.literal.positive:
                kill_t |= bit
            else:
                kill_f |= bit
    return kill_t, kill_f, need_t, need_f


def enumerate_world_views(
    program: Program, eats_cap: int = WV_CAP, atoms_cap: int = ANSWER_CAP, memo=None
) -> list[WVI]:
    """All world views of a program, by exhausting the 3^k guesses over its
    epistemic atoms.  Each guess extends uniquely to a WVI over all atoms
    via the answer sets of its epistemic reduct.

    The reduct is compiled once (``compile_reduct``) over every epistemic
    atom.  Guesses are walked depth-first, one atom at a time in ascending
    order, each atom undecided, then true, then false (the order of
    ``itertools.product``), and each step ORs the atom's dead rules into
    the guess's.  Answer sets are cached per survivor set, and a guess's
    reduct program is built only on a cache miss.
    """
    eats = program.eats_mask
    eats_count = eats.bit_count()
    if eats_count > eats_cap:
        raise BruteForceCapExceeded(
            "world-view enumeration over %d epistemic atoms exceeds cap %d"
            % (eats_count, eats_cap)
        )
    compiled = compile_reduct(program.rules, eats)
    _residues, all_rules, levels = compiled  # one level per epistemic atom
    rest = program.aats_mask & ~eats
    cache: dict[int, list[int]] = {}
    out = []

    def guess(t, f, dead):
        alive = all_rules & ~dead
        sets = cache.get(alive)
        if sets is None:
            reduct = Program(program.atoms, reduct_rules(compiled, alive))
            sets = cache[alive] = answer_sets(reduct, cap=atoms_cap, memo=memo)
        if not sets:
            return
        and_mask = or_mask = sets[0]
        for m in sets[1:]:
            and_mask &= m
            or_mask |= m
        # Compatible: true atoms in all answer sets, false in none, open in some.
        undecided = eats & ~(t | f)
        if t & ~and_mask or f & or_mask or undecided & ~(or_mask & ~and_mask):
            return
        out.append(WVI(program.ats_mask, t | (and_mask & rest), f | (rest & ~or_mask)))

    def walk(depth, t, f, dead):
        if depth == eats_count:
            guess(t, f, dead)
            return
        bit, when_true, when_false, when_undecided = levels[depth]
        depth += 1
        walk(depth, t, f, dead | when_undecided)
        walk(depth, t | bit, f, dead | when_true)
        walk(depth, t, f | bit, dead | when_false)

    walk(0, 0, 0, 0)
    return out


def query_agrees(query: WVI, world_view: WVI) -> bool:
    """Query agreement: positive query atoms known true, negative ones not
    known true (they may be known false or undecided)."""
    return (query.true & ~world_view.true) == 0 and (query.false & world_view.true) == 0


def count_world_views_bruteforce(
    program: Program,
    query: WVI = EMPTY_WVI,
    eats_cap: int = WV_CAP,
    atoms_cap: int = ANSWER_CAP,
) -> int:
    wvs = enumerate_world_views(program, eats_cap, atoms_cap)
    return sum(1 for w in wvs if query_agrees(query, w))


def probability_bruteforce(
    program: Program,
    query: WVI = EMPTY_WVI,
    eats_cap: int = WV_CAP,
    atoms_cap: int = ANSWER_CAP,
) -> Fraction:
    wvs = enumerate_world_views(program, eats_cap, atoms_cap)
    total = len(wvs)
    if total == 0:
        raise NoWorldViews("program has no world views")
    matching = sum(1 for w in wvs if query_agrees(query, w))
    return Fraction(matching, total)


def cnf_to_elp(num_vars: int, clauses) -> Program:
    """Encode model counting of a 3-CNF as plausible-WVI counting.

    Variables become atoms ``x1..xn``; every variable contributes a
    constraint forcing it to be decided, every clause one forbidding all
    three literals to be unknown.  Clauses are DIMACS-style signed ints;
    a literal 0 or over a variable past ``num_vars`` raises ``ValueError``.
    """
    table = AtomTable("x%d" % (i + 1) for i in range(num_vars))
    rules = []
    for v in range(num_vars):
        rules.append(
            Rule(
                (),
                (
                    Epistemic(False, Literal(v, True)),
                    Epistemic(False, Literal(v, False)),
                ),
            )
        )
    for clause in clauses:
        if len(clause) > 3:
            raise ValueError("clause with more than 3 literals")
        if not all(0 < abs(l) <= num_vars for l in clause):
            raise ValueError("clause %s has a literal outside 1..%d" % (list(clause), num_vars))
        body = tuple(
            Epistemic(False, Literal(abs(l) - 1, l > 0)) for l in clause
        )
        rules.append(Rule((), body))
    return Program(table, tuple(rules))
