"""ELP semantics: reducts, answer sets, world views, and brute-force oracles.

The enumerative functions here are deliberately simple.  They serve as the
base-case solver of the nested dynamic programming engine and as ground
truth in tests, guarded by explicit size caps.
"""

from __future__ import annotations

import itertools
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


def dense_renaming(atom_mask: int):
    """Dense local atom numbers for the atoms of ``atom_mask``: its i-th
    lowest atom becomes atom i.  Returns the atom list and the function
    that maps a mask over those atoms to its local mask.  Two programs
    that differ by an order-preserving renaming of their atoms compile to
    equal local masks."""
    atom_list = list(bits(atom_mask))
    low = atom_mask & -atom_mask
    if low and atom_mask & (atom_mask + low) == 0:  # one run of consecutive ids
        shift = low.bit_length() - 1
        return atom_list, lambda mask: mask >> shift
    remap = {atom: i for i, atom in enumerate(atom_list)}

    def local(mask):
        out = 0
        for a in bits(mask):
            out |= 1 << remap[a]
        return out

    return atom_list, local


def _answer_sets_whole(program: Program, memo=None) -> list[int]:
    """Single enumeration over all atoms, without component splitting.

    ``memo`` maps a compiled program (its rules' ``dense_renaming`` masks)
    to its local answer sets.  Programs that differ only in their atom
    names share an entry, and each hit maps the cached sets back to its
    own atoms.
    """
    atom_list, local = dense_renaming(program.ats_mask)
    heads = [local(r.head_mask) for r in program.rules]
    bpos = [local(r.pos_mask) for r in program.rules]
    bneg = [local(r.neg_mask) for r in program.rules]
    if memo is None:
        local_sets = kernel.answer_sets_masks(heads, bpos, bneg, len(atom_list))
    else:
        key = (tuple(heads), tuple(bpos), tuple(bneg))
        local_sets = memo.get(key)
        if local_sets is None:
            local_sets = kernel.answer_sets_masks(heads, bpos, bneg, len(atom_list))
            memo[key] = local_sets
    out = []
    for m in local_sets:
        g = 0
        for i in bits(m):
            g |= 1 << atom_list[i]
        out.append(g)
    out.sort()
    return out


def _components(program: Program):
    """Partition rules by atom connectivity; returns (atom_mask, rules)
    pairs in the order of their lowest atoms.

    A union-find over atoms with path halving: each rule joins its atoms
    to the root of its first one.  The finds are written inline because
    the counting router runs this on every subproblem.
    """
    parent: dict[int, int] = {}
    masks = [r.ats_mask for r in program.rules]
    for m in masks:
        root = -1
        for a in bits(m):
            while parent.setdefault(a, a) != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            if root < 0:
                root = a
            elif a != root:
                parent[a] = root
    groups: dict[int, list] = {}
    for r, m in zip(program.rules, masks):
        a = (m & -m).bit_length() - 1
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        group = groups.setdefault(a, [0, []])
        group[0] |= m
        group[1].append(r)
    return sorted(groups.values(), key=lambda g: g[0] & -g[0])


def answer_sets(program: Program, cap: int = ANSWER_CAP, memo=None) -> list[int]:
    """All answer sets of a plain program, as sorted interpretation masks.

    Disconnected parts of the program are enumerated separately and
    recombined; answer sets of a disjoint union are exactly the unions of
    per-part answer sets.  The cap bounds the total atom count.  An
    optional ``memo`` dict reuses the enumeration of parts already seen
    (see ``_answer_sets_whole``).
    """
    if not program.is_plain:
        raise NotPlainError("answer sets are defined for plain programs only")
    n = program.ats_mask.bit_count()
    if n > cap:
        raise BruteForceCapExceeded(
            "answer-set enumeration over %d atoms exceeds cap %d" % (n, cap)
        )
    if any(r.ats_mask == 0 for r in program.rules):
        return []
    result = [0]
    for mask, rules in _components(program):
        part = _answer_sets_whole(Program(program.atoms, tuple(rules)), memo)
        if not part:
            return []
        result = [base | extra for base in result for extra in part]
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
    return program.with_rules(survivors(compiled, wvi.true, wvi.false)[1])


def compile_reduct(rules, domain: int) -> tuple:
    """Compile ``rules`` for epistemic reducts under WVIs over ``domain``:
    each rule becomes its ``epistemic_masks`` restricted to ``domain`` and
    its residue, the rule without its epistemic elements over ``domain``.
    A rule with no epistemic atom in ``domain`` is its own residue.
    """
    compiled = []
    for r in rules:
        residue = r
        if r.eats_mask & domain:
            residue = Rule(r.head, tuple(
                el for el in r.body
                if isinstance(el, Objective) or not (domain >> el.literal.atom) & 1
            ))
        compiled.append(tuple(m & domain for m in epistemic_masks(r)) + (residue,))
    return tuple(compiled)


def survivors(compiled, t: int, f: int) -> tuple[int, list[Rule]]:
    """The reduct of ``compile_reduct`` output under the WVI with true atoms
    ``t`` and false atoms ``f``: ``(alive, residues)``, where bit i of
    ``alive`` is set iff rule i survives, and their residues in rule order."""
    alive = 0
    residues = []
    for i, (kill_t, kill_f, need_t, need_f, residue) in enumerate(compiled):
        if not (t & kill_t or f & kill_f or need_t & ~t or need_f & ~f):
            alive |= 1 << i
            residues.append(residue)
    return alive, residues


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


def with_query_constraints(program: Program, query: WVI) -> Program:
    """Adjoin one constraint per decided query literal on its atom ``a``:
    ``:- not a.`` for a positive literal (``a`` must be known true) and
    ``:- K a.`` for a negative one (``a`` must not be known true;
    undecided is acceptable)."""
    return program.extended(
        Rule((), (Epistemic(not lit.positive, Literal(lit.atom)),))
        for lit in query.decided_literals()
    )


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
    atom, so each guess's reduct is a plain program of surviving residues
    (``survivors``), and answer sets are cached per survivor set.
    """
    eats_list = sorted(bits(program.eats_mask))
    if len(eats_list) > eats_cap:
        raise BruteForceCapExceeded(
            "world-view enumeration over %d epistemic atoms exceeds cap %d"
            % (len(eats_list), eats_cap)
        )
    compiled = compile_reduct(program.rules, program.eats_mask)
    rest = program.aats_mask & ~program.eats_mask
    cache: dict[int, list[int]] = {}
    out = []
    for choice in itertools.product((None, True, False), repeat=len(eats_list)):
        t = f = 0
        for atom, v in zip(eats_list, choice):
            if v is True:
                t |= 1 << atom
            elif v is False:
                f |= 1 << atom
        alive, residues = survivors(compiled, t, f)
        sets = cache.get(alive)
        if sets is None:
            sets = answer_sets(Program(program.atoms, residues), cap=atoms_cap, memo=memo)
            cache[alive] = sets
        if not sets:
            continue
        and_mask = or_mask = sets[0]
        for m in sets[1:]:
            and_mask &= m
            or_mask |= m
        full = WVI(program.ats_mask, t | (and_mask & rest), f | (rest & ~or_mask))
        if check_compatibility(full, sets):
            out.append(full)
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
    three literals to be unknown.  Clauses are DIMACS-style signed ints.
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
        body = tuple(
            Epistemic(False, Literal(abs(l) - 1, l > 0)) for l in clause
        )
        rules.append(Rule((), body))
    return Program(table, tuple(rules))
