"""Checks of the benchmark's references against plain brute force.

    python3 -m pytest -q perfbench

Run from the root of a source checkout; ``wvcount`` is imported from
``src/`` only to generate instances and to exercise the tracer.
"""

import itertools
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import refs  # noqa: E402
import tracing  # noqa: E402
import wvcount  # noqa: E402
from wvcount import bench  # noqa: E402

RUNNING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "instances", "running.elp")


def naive_models(num_vars, clauses):
    return sum(
        1
        for values in itertools.product((False, True), repeat=num_vars)
        if all(any((lit > 0) == values[abs(lit) - 1] for lit in c) for c in clauses)
    )


def naive_world_views(text):
    """The definition, enumerated without shortcuts: every guess over the
    epistemic atoms, every interpretation, every subset for minimality."""
    rules = refs.read_program(text)
    names = sorted(refs.atom_names(text))
    eatoms = sorted({a for r in rules for _k, a, _p in r[3]})

    def answer_sets(plain):
        def model(interp, rules_):
            return all(
                not (set(pos) <= interp and not set(neg) & interp) or set(head) & interp
                for head, pos, neg in rules_
            )

        out = []
        for bits in itertools.product((0, 1), repeat=len(names)):
            interp = {n for n, b in zip(names, bits) if b}
            if not model(interp, plain):
                continue
            reduct = [(h, p, ()) for h, p, n in plain if not set(n) & interp]
            smaller = (
                set(sub)
                for k in range(len(interp))
                for sub in itertools.combinations(sorted(interp), k)
            )
            if not any(model(s, reduct) for s in smaller):
                out.append(interp)
        return out

    count = 0
    for guess in itertools.product(("t", "f", "u"), repeat=len(eatoms)):
        value = dict(zip(eatoms, guess))
        plain = []
        for head, pos, neg, epi in rules:
            alive = True
            for kind, atom, positive in epi:
                known = value[atom] == ("t" if positive else "f")
                if known != (kind == "K"):
                    alive = False
            if alive:
                plain.append((head, pos, neg))
        sets = answer_sets(plain)
        if not sets:
            continue
        ok = True
        for atom, v in value.items():
            inside = sum(1 for s in sets if atom in s)
            if (v == "t" and inside < len(sets)) or (v == "f" and inside) or (
                v == "u" and inside in (0, len(sets))
            ):
                ok = False
        count += ok
    return count


@pytest.mark.parametrize("seed", range(40))
def test_model_count_matches_truth_table(seed):
    num_vars = 3 + seed % 8
    clauses = bench.gen_random_3cnf(num_vars, 2 + seed % 17, seed)
    assert refs.count_models(num_vars, clauses) == naive_models(num_vars, clauses)


@pytest.mark.parametrize("seed", range(60))
def test_world_views_match_definition(seed):
    atoms = 3 + seed % 4
    program = bench.gen_random_elp(atoms, min(atoms, 1 + seed % 4), 3 + seed % 7, seed)
    text = wvcount.program_to_text(program)
    assert refs.count_world_views(text) == naive_world_views(text)


def test_running_example_has_three_world_views():
    with open(RUNNING, encoding="utf-8") as handle:
        text = wvcount.program_to_text(wvcount.parse_program(handle.read()))
    assert refs.count_world_views(text) == naive_world_views(text) == 3


@pytest.mark.parametrize("seed", range(40))
def test_cnf_world_view_property(seed):
    num_vars = 2 + seed % 4
    rng = random.Random(seed)
    clauses = [
        [v * rng.choice((1, -1)) for v in rng.sample(range(1, num_vars + 1), min(3, num_vars))]
        for _ in range(1 + seed % 5)
    ]
    text = wvcount.program_to_text(wvcount.cnf_to_elp(num_vars, clauses))
    assert refs.cnf_world_views(clauses) == naive_world_views(text)


@pytest.mark.parametrize("seed", range(8))
def test_scholarship_counts(seed):
    classic = wvcount.program_to_text(bench.gen_scholarship(2, "classic", seed))
    assert refs.count_world_views(classic) == 1
    many = wvcount.program_to_text(bench.gen_scholarship(2, "many", seed))
    assert refs.count_world_views(many) == 2 ** refs.ranked_students(many)


@pytest.mark.parametrize("seed", range(10))
def test_query_counts(seed):
    text = wvcount.program_to_text(bench.gen_scholarship(2, "many", seed))
    ranked = sorted(n for n in refs.atom_names(text) if n.startswith("rank_high_"))
    u = refs.ranked_students(text)
    total = refs.count_world_views(text)
    for k in range(1, u + 1):
        # ":- not a." keeps the world views in which a is known true
        constrained = text + "".join(":- not %s.\n" % a for a in ranked[:k])
        count = refs.count_world_views(constrained)
        assert count == 2 ** (u - k)
        assert Fraction(count, total) == Fraction(1, 2**k)


def test_self_time_subtracts_direct_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("d", 5.0, 6.0, 0)]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_sees_calls_through_every_binding_and_restores_them():
    program = bench.gen_random_elp(8, 4, 8, 3)
    before = {(m, a): getattr(getattr(wvcount, m) if m != "wvcount" else wvcount, a)
              for m, a, _s in tracing.PATCHES}
    tracer = tracing.Tracer()
    tracer.install(wvcount)
    try:
        traced = wvcount.count_world_views(program, thresholds=wvcount.Thresholds(hybrid=6, abstr=4))
    finally:
        tracer.uninstall()
    assert traced == wvcount.count_world_views(program, thresholds=wvcount.Thresholds(hybrid=6, abstr=4))
    names = {span[0] for span in tracer.spans}
    assert {"dp.count_world_views", "graphs.primal_graph", "decomp.build_td",
            "kernel.answer_sets_masks", "semantics.answer_sets"} <= names
    assert any(n.startswith("backends.") for n in names)
    after = {(m, a): getattr(getattr(wvcount, m) if m != "wvcount" else wvcount, a)
             for m, a, _s in tracing.PATCHES}
    assert after == before
