"""Enumeration kernel for plain programs.

Programs arrive compiled to parallel mask lists (head, positive body,
negative body) over dense bits.  ``semantics`` looks ``answer_sets_masks``
up on this module at each call, so a wrapper set here sees every call.
"""

from __future__ import annotations


def kernel_name() -> str:
    return "python"


def answer_sets_masks(heads, bpos, bneg, n_atoms):
    """All answer sets of a plain program, as sorted interpretation masks.

    An interpretation I is an answer set iff it is a minimal model of the
    reduct under I: rules with a negative body atom in I drop out, the
    rest lose their negative bodies.  I models the reduct iff it models
    the original program, so one check serves both; minimality is tested
    against every proper submask.
    """
    m = len(heads)
    out = []
    for i in range(1 << n_atoms):
        ok = True
        for k in range(m):
            if bneg[k] & i:
                continue
            if (bpos[k] & ~i) == 0 and (heads[k] & i) == 0:
                ok = False
                break
        if not ok:
            continue
        kept = [k for k in range(m) if not (bneg[k] & i)]
        minimal = True
        j = (i - 1) & i
        while i:
            good = True
            for k in kept:
                if (bpos[k] & ~j) == 0 and (heads[k] & j) == 0:
                    good = False
                    break
            if good:
                minimal = False
                break
            if j == 0:
                break
            j = (j - 1) & i
        if minimal:
            out.append(i)
    return out
