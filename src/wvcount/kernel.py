"""Answer-set search for plain programs.

Programs arrive compiled to parallel mask lists (head, positive body,
negative body) over dense bits.  ``semantics`` looks ``answer_sets_masks``
up on this module at each call, so a wrapper set here sees every call.

The search reads each rule as the clause ``head | negative body | not
positive body`` and enumerates its models by unit propagation and
branching (DPLL), then tests each candidate for stability: the least
model of the reduct when the candidate's reduct is normal, else a second
search of the same kind for a smaller model of the reduct (Janhunen,
Niemela, Seipel, Simons & You, TOCL 2006).  Both searches keep their
branches on an explicit stack, so no recursion depth grows with the
number of atoms.
"""

from __future__ import annotations


def kernel_name() -> str:
    return "python"


def _propagate(clauses, t, f):
    """Unit propagation over ``(pos, neg)`` clauses, each satisfied by an
    atom of ``pos`` true or an atom of ``neg`` false, from the true and
    false masks ``t`` and ``f``.  Returns ``(t, f, open)`` where ``open``
    holds the unassigned atoms of the first clause still unsatisfied (0
    when every clause is satisfied), or ``None`` on a falsified clause."""
    while True:
        changed = False
        open_atoms = 0
        for pos, neg in clauses:
            if pos & t or neg & f:
                continue
            up = pos & ~f
            un = neg & ~t
            if not up:
                if not un:
                    return None
                if not un & (un - 1):
                    f |= un
                    changed = True
                    continue
            elif not un and not up & (up - 1):
                t |= up
                changed = True
                continue
            if not open_atoms:
                open_atoms = up | un
        if not changed:
            return t, f, open_atoms


def _leaves(clauses, t, f):
    """Yield the true mask of every leaf of the search: a partial
    assignment, extending ``t``/``f``, under which propagation satisfies
    every clause.  The leaves are pairwise incompatible, and each total
    model of the clauses extends exactly one of them."""
    stack = [(t, f)]
    while stack:
        t, f = stack.pop()
        state = _propagate(clauses, t, f)
        if state is None:
            continue
        t, f, open_atoms = state
        if not open_atoms:
            yield t
            continue
        a = open_atoms & -open_atoms
        stack.append((t | a, f))
        stack.append((t, f | a))


def _is_stable(rules, i):
    """``i``, a model of the rules, is a minimal model of their reduct
    under ``i``.  Only rules whose bodies hold in ``i`` constrain a subset
    of ``i``, and of their heads only the atoms in ``i`` count."""
    kept = []
    normal = True
    for head, pos, neg in rules:
        if neg & i or pos & ~i:
            continue
        head &= i
        kept.append((head, pos))
        if head & (head - 1):
            normal = False
    if normal:
        # propagating definite clauses from nothing true derives their
        # least model, and never assigns false
        return _propagate(kept, 0, ~i)[0] == i
    # a model j of the reduct with j a proper subset of i: some atom of i false
    kept.append((0, i))
    return next(_leaves(kept, 0, ~i), None) is None


def answer_sets_masks(heads, bpos, bneg, n_atoms):
    """All answer sets of a plain program, as sorted interpretation masks.

    An interpretation I is an answer set iff it is a minimal model of the
    reduct under I.  Rules whose positive body meets their head or
    negative body hold in every interpretation and in every reduct, so
    they are dropped; an atom then in no head is false in every answer
    set.  A leaf of the model search, where every clause is satisfied
    with some atoms still open, yields at most one candidate: the leaf's
    true atoms.  Any larger completion I is no answer set, because that
    candidate models the reduct under I.
    """
    rules = []
    clauses = []
    in_head = 0
    for head, pos, neg in zip(heads, bpos, bneg):
        if pos & (head | neg):
            continue
        rules.append((head, pos, neg))
        clauses.append((head | neg, pos))
        in_head |= head
    full = (1 << n_atoms) - 1
    out = [i for i in _leaves(clauses, 0, full & ~in_head) if _is_stable(rules, i)]
    out.sort()
    return out
