"""The benchmark's workloads: inputs made from a seed, the operations run
on them, and the reference each result must equal.

Scholarship instances take the seed as their generator seed: they are
sums of many independent students, so their cost hardly depends on it.
Random ELPs and 3-CNFs are different.  Across generator seeds one
instance costs from 2 ms to 10 s, and renumbering a random ELP's atoms
moves its routing: ten windows of 40 consecutive generator seeds cost
1.3 to 3.1 s.  Even flipping CNF variables' signs, which keeps the model
count, moved ``count`` between 0.7 and 1.3 s.  No affordable number of
instances averages that out, so these workloads count fixed instances
(one 3-CNF; a contiguous range of random ELPs), and the benchmark seed
changes each instance only in ways that keep its work: a 3-CNF gets its
clauses shuffled (variables keep their numbers, as ``cnf_to_elp`` lists
them first), a random ELP gets its atom names permuted (its atom
numbering stays).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import refs

# Lowered thresholds put random ELPs (primal widths 4-9) on both sides
# of ``abstr`` and ``hybrid``; the default routing tables them directly.
LOWERED = {"hybrid": 6, "abstr": 4}
RANDOM_PARAMS = (12, 6, 12)  # atoms, epistemic atoms, rules
RANDOM_SEEDS = range(0, 12)
CNF = (40, 60, 0)  # variables, clauses, generator seed


@dataclass
class Case:
    """One operation: ``op`` on the program ``text``, checked against
    ``reference()``."""

    label: str
    text: str
    op: str  # count | prob | count_plausible
    reference: Callable[[], object]
    query: str = ""
    thresholds: Optional[dict] = None


def build(workload, seed, wv, gen):
    """The cases of ``workload`` for ``seed``.  ``wv`` is the package,
    ``gen`` its generator module."""
    return _BUILDERS[workload](seed, wv, gen)


def _scholarship(seed, wv, gen):
    cases = []
    for mode, n in (("classic", 500), ("classic", 2000), ("many", 400)):
        text = wv.program_to_text(gen.gen_scholarship(n, mode, seed))
        if mode == "classic":
            reference = lambda: 1
        else:
            reference = lambda text=text: 2 ** refs.ranked_students(text)
        cases.append(Case("%s[n=%d]" % (mode, n), text, "count", reference))
    return cases


def _query(seed, wv, gen):
    text = wv.program_to_text(gen.gen_scholarship(400, "many", seed))
    ranked = sorted(n for n in refs.atom_names(text) if n.startswith("rank_high_"))
    u = len(ranked)
    picks = random.Random(seed).sample(ranked, 4)
    cases = []
    for k in (1, 4):
        query = ",".join(picks[:k])
        cases.append(
            Case("prob[k=%d]" % k, text, "prob", lambda k=k: Fraction(1, 2**k), query)
        )
        cases.append(
            Case("count[k=%d]" % k, text, "count", lambda k=k: 2 ** (u - k), query)
        )
    return cases


def _cnf(seed, wv, gen):
    num_vars, num_clauses, g = CNF
    clauses = gen.gen_random_3cnf(num_vars, num_clauses, g)
    random.Random("cnf-%d" % seed).shuffle(clauses)
    text = wv.program_to_text(wv.cnf_to_elp(num_vars, clauses))
    label = "3cnf[v=%d,c=%d,g=%d]" % (num_vars, num_clauses, g)
    return [
        Case(
            label + ".plausible",
            text,
            "count_plausible",
            lambda: refs.count_models(num_vars, clauses),
        ),
        Case(label + ".count", text, "count", lambda: refs.cnf_world_views(clauses)),
    ]


def _random(seed, wv, gen):
    atoms, epistemic, rules = RANDOM_PARAMS
    cases = []
    for g in RANDOM_SEEDS:
        program = gen.gen_random_elp(atoms, epistemic, rules, g)
        names = list(program.atoms.names)
        random.Random("random-%d-%d" % (seed, g)).shuffle(names)
        text = wv.program_to_text(wv.Program(wv.AtomTable(names), program.rules))
        label = "random[a=%d,e=%d,r=%d,g=%d]" % (atoms, epistemic, rules, g)
        reference = lambda text=text: refs.count_world_views(text)
        cases.append(Case(label, text, "count", reference))
        cases.append(Case(label + ".lowered", text, "count", reference, thresholds=LOWERED))
    return cases


_BUILDERS = {
    "scholarship": _scholarship,
    "query": _query,
    "cnf": _cnf,
    "random": _random,
}
WORKLOADS = tuple(_BUILDERS)


def bind(cases, programs, wv):
    """Turn each case into a call ``fn(stats)`` on its parsed program,
    parsing its query against the program's atoms."""
    calls = []
    for case in cases:
        program = programs[case.text]
        query = wv.parse_query(case.query, program.atoms) if case.query else None
        thresholds = wv.Thresholds(**case.thresholds) if case.thresholds else None
        if case.op == "count_plausible":
            calls.append(lambda stats, p=program: wv.count_plausible(p))
        elif case.op == "prob":
            calls.append(
                lambda stats, p=program, q=query, t=thresholds: wv.acceptance_probability(
                    p, q, thresholds=t, jobs=1, stats=stats
                )
            )
        else:
            calls.append(
                lambda stats, p=program, q=query, t=thresholds: wv.count_world_views(
                    p, query=q, thresholds=t, jobs=1, stats=stats
                )
            )
    return calls
