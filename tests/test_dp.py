import itertools
import json
import os
import random
from dataclasses import astuple, replace
from fractions import Fraction

import pytest

from conftest import (
    RUNNING_PATH,
    brute_plausible_count,
    row_masks,
    renamed_rules,
    running_nice_td,
    same_atom_programs,
    shifted,
    with_renamed_copy,
    wvi_from_names,
)
from wvcount.backends import InternalBackend
from wvcount.bench import GenSpec, gen_random_3cnf, gen_random_elp, gen_scholarship
from wvcount.decomp import build_td, make_nice
from wvcount.dp import (
    RunStats,
    Thresholds,
    _Ctx,
    _base_case,
    _make_ctx,
    _table_pass,
    acceptance_probability,
    choose_abstraction,
    count_plausible,
    count_world_views,
    plausible_tables,
)
from wvcount.errors import BruteForceCapExceeded, NoWorldViews
from wvcount.graphs import epistemic_primal_graph, nested_primal_graph
from wvcount.model import (
    EMPTY_WVI,
    WVI,
    AtomTable,
    Epistemic,
    Literal,
    Program,
    Rule,
    bits,
    mask_of,
)
from wvcount.parser import parse_program, program_to_text
from wvcount.semantics import (
    _components,
    answer_sets,
    check_compatibility,
    cnf_to_elp,
    count_world_views_bruteforce,
    enumerate_world_views,
    epistemic_masks,
    is_plausible,
    probability_bruteforce,
    query_agrees,
    rule_atoms,
    with_query_constraints,
)

THRESHOLD_GRID = (
    Thresholds(hybrid=99, abstr=0, depth=0),
    Thresholds(hybrid=99, abstr=0, depth=2),
    Thresholds(hybrid=99, abstr=99, depth=0),
    Thresholds(hybrid=99, abstr=99, depth=2),
)


def table_by_names(program, table):
    out = {}
    for row, value in table.items():
        tm, fm = row_masks(row, program.eats_mask.bit_length())
        lits = []
        for atom in sorted(bits(tm | fm)):
            name = program.atoms.name(atom)
            lits.append(name if tm >> atom & 1 else "-" + name)
        out[" ".join(lits)] = value
    return out


# ---------------------------------------------------------------------------
# plausible counting


def test_plausible_tables_worked_example(running):
    nice = running_nice_td(running)
    tables = plausible_tables(running, nice)
    shift = running.eats_mask.bit_length()
    assert {row_masks(row, shift): c for row, c in tables[1].items()} == {(0, 0): 1}  # leaf
    assert table_by_names(running, tables[6]) == {"": 4, "c": 3, "-c": 2}
    assert table_by_names(running, tables[10]) == {"": 3, "c": 2, "-c": 3}
    assert table_by_names(running, tables[11]) == {"": 12, "c": 6, "-c": 6}
    assert table_by_names(running, tables[12]) == {"": 24}


def test_plausible_join_multiplies_and_rem_sums(running):
    nice = running_nice_td(running)
    tables = plausible_tables(running, nice)
    # join: intersection on the row WVI, counters multiplied
    for key, value in tables[11].items():
        assert value == tables[6][key] * tables[10][key]
    # removal: total mass is preserved
    for t in nice.postorder():
        if nice.kind[t] == "rem":
            child = nice.children[t][0]
            assert sum(tables[t].values()) == sum(tables[child].values())


def test_count_plausible_running(running):
    assert count_plausible(running) == 24
    assert brute_plausible_count(running) == 24


def test_count_plausible_unconstrained_guesses():
    prog = parse_program("p :- not q.\nq :- not p.\nr :- not r2.\nr2 :- not r.")
    assert not any(r.purely_epistemic for r in prog.rules)
    assert count_plausible(prog) == 3 ** prog.eats_mask.bit_count()


def test_count_plausible_cnf_clause():
    prog = cnf_to_elp(3, [[1, 2, 3]])
    assert count_plausible(prog) == 7


def test_count_plausible_plain_and_falsity(running):
    # A plain program has one plausible WVI, the empty one; a bare falsity
    # constraint leaves none, plain program or not.
    plain = parse_program("a :- -b. b :- -a.")
    assert plain.is_plain and count_plausible(plain) == 1
    for prog in (plain, running):
        assert count_plausible(prog.extended([Rule((), ())])) == 0


def test_count_plausible_matches_oracle_on_random_programs():
    for seed in range(40):
        prog = gen_random_elp(7, 4, 9, seed)
        assert count_plausible(prog) == brute_plausible_count(prog)


def test_plausible_root_single_row(running):
    nice = running_nice_td(running)
    tables = plausible_tables(running, nice)
    shift = running.eats_mask.bit_length()
    assert [row_masks(row, shift) for row in tables[nice.root]] == [(0, 0)]


def per_row_plausible_tables(program, nice):
    """``plausible_tables`` keyed on ``(true_mask, false_mask)`` tuples,
    with every candidate row checked on its own, element by element
    (``is_plausible``), against the purely-epistemic rules that hold the
    introduced atom and lie inside the bag."""
    tables = {}
    for t in nice.postorder():
        kind, kids = nice.kind[t], nice.children[t]
        if kind == "leaf":
            tables[t] = {(0, 0): 1}
        elif kind == "intr":
            atom = nice.action[t]
            bit = 1 << atom
            bag_mask = mask_of(nice.bags[t])
            checks = Program(program.atoms, tuple(
                r
                for r in program.rules
                if r.purely_epistemic and r.eats_mask & bit and r.eats_mask & ~bag_mask == 0
            ))
            tables[t] = {
                (nt, nf): c
                for (tm, fm), c in tables[kids[0]].items()
                for nt, nf in ((tm, fm), (tm | bit, fm), (tm, fm | bit))
                if is_plausible(WVI(bag_mask, nt, nf), checks)
            }
        elif kind == "rem":
            keep = ~(1 << nice.action[t])
            tables[t] = {}
            for (tm, fm), c in tables[kids[0]].items():
                key = (tm & keep, fm & keep)
                tables[t][key] = tables[t].get(key, 0) + c
        else:
            left, right = (tables[c] for c in kids)
            tables[t] = {key: c * right[key] for key, c in left.items() if key in right}
    return tables


def assert_per_row_tables(program, nice):
    """``plausible_tables`` holds the reference's rows, counts and
    insertion order at every node; returns the number of rows."""
    shift = program.eats_mask.bit_length()
    tables = plausible_tables(program, nice)
    expected = per_row_plausible_tables(program, nice)
    assert [[(row_masks(row, shift), c) for row, c in tables[t].items()]
            for t in nice.postorder()] == [list(expected[t].items()) for t in nice.postorder()]
    return sum(len(table) for table in tables.values())


def test_row_patterns_give_the_per_row_tables():
    programs = [gen_random_elp(7, 4, 9, seed) for seed in range(40)]
    programs += [
        cnf_to_elp(v, gen_random_3cnf(v, c, seed))
        for v, c in ((6, 10), (8, 14), (10, 18), (16, 24))
        for seed in range(4)
    ]
    checked = 0
    for prog in programs:
        for heuristic, seed in (("min-fill", 0), ("min-degree", 1)):
            nice = make_nice(build_td(epistemic_primal_graph(prog), heuristic, seed))
            checked += assert_per_row_tables(prog, nice)
    assert checked > 20_000


def _probability_or_none(probability, *args, **kwargs):
    try:
        return probability(*args, **kwargs)
    except NoWorldViews:
        return None


def test_two_epistemic_elements_on_one_atom():
    # Random programs draw distinct epistemic atoms per rule, and the CNF
    # encoding has only ``not x, not -x``: here one atom's three masks
    # collect every pair of element kinds, from several rules at once.
    # Queries: a; -a; c and -d.
    queries = (WVI(0b0001, 0b0001), WVI(0b0001, 0, 0b0001), WVI(0b1100, 0b0100, 0b1000))
    counts, rows = set(), 0
    for prog in same_atom_programs():
        assert count_plausible(prog) == brute_plausible_count(prog)
        for heuristic, seed in (("min-fill", 0), ("min-degree", 1)):
            nice = make_nice(build_td(epistemic_primal_graph(prog), heuristic, seed))
            rows += assert_per_row_tables(prog, nice)
        oracle = count_world_views_bruteforce(prog)
        counts.add(oracle)
        for thresholds in THRESHOLD_GRID:
            assert count_world_views(prog, thresholds=thresholds) == oracle
        for query in queries:
            query_oracle = count_world_views_bruteforce(prog, query)
            prob_oracle = _probability_or_none(probability_bruteforce, prog, query)
            for thresholds in THRESHOLD_GRID:
                assert count_world_views(prog, query, thresholds=thresholds) == query_oracle
                assert _probability_or_none(
                    acceptance_probability, prog, query, thresholds=thresholds
                ) == prob_oracle
    assert counts == {0, 1, 2} and rows > 1000


# RunStats fields, as a tuple, of the harness spec's programs counted under
# an assumption taken from one of their world views.  The assumed atoms
# reach introduce nodes, which then offer them one value only.
HARNESS_ASSUMED = {
    (6, 4, 2): [
        (1, (3, 2, 9, 4, 4, 3, 3, 1, 1)),
        (1, (2, 0, 9, 3, 3, 3, 2, 1, 3)),
        (1, (2, 0, 18, 6, 6, 10, 10, 1, 6)),
        (2, (2, 1, 19, 7, 7, 8, 16, 1, 5)),
        (8, (2, 1, 32, 12, 12, 10, 17, 1, 8)),
        (1, (6, -1, 0, 2, -1, 1, 0, 0, 1)),
        (1, (5, 3, 9, 4, 4, 2, 2, 1, 1)),
        (0, (4, 3, 9, 5, 4, 0, 1, 1, 1)),
    ],
    (3, 2, 3): [
        (1, (3, -1, 0, 4, -1, 1, 0, 0, 1)),
        (1, (2, 0, 9, 3, 3, 3, 2, 1, 3)),
        (1, (2, 0, 18, 6, 6, 10, 10, 1, 6)),
        (2, (2, 1, 19, 7, 7, 8, 16, 1, 5)),
        (8, (2, 1, 32, 12, 12, 10, 17, 1, 8)),
        (1, (6, -1, 0, 2, -1, 1, 0, 0, 1)),
        (1, (5, -1, 0, 4, -1, 1, 0, 0, 1)),
        (0, (4, -1, 0, 5, -1, 1, 0, 0, 1)),
    ],
}


def test_harness_programs_under_an_assumption(monkeypatch):
    import wvcount.dp as dp_mod

    monkeypatch.chdir(os.path.join(os.path.dirname(RUNNING_PATH), ".."))
    with open("instances/harness.json", "r", encoding="utf-8") as handle:
        specs = [GenSpec(**entry) for entry in json.load(handle)["instances"]]
    intr_table = dp_mod._intr_table
    one_option = []

    def spy(depth, program, nd, child, assumption, ctx):
        one_option.append(bool(assumption.domain & nd.options.bit))
        return intr_table(depth, program, nd, child, assumption, ctx)

    monkeypatch.setattr(dp_mod, "_intr_table", spy)
    got = {thresholds: [] for thresholds in HARNESS_ASSUMED}
    for spec in specs:
        prog = spec.build()
        wvs = enumerate_world_views(prog)
        first = mask_of(sorted(bits(prog.eats_mask))[:3])
        assumption = wvs[-1].restrict(first) if wvs else WVI(first, first, 0)
        oracle = sum(wv.restrict(first) == assumption for wv in wvs)
        for hybrid, abstr, depth in HARNESS_ASSUMED:
            stats = RunStats()
            count = count_world_views(
                prog,
                thresholds=Thresholds(hybrid=hybrid, abstr=abstr, depth=depth),
                stats=stats,
                assumption=assumption,
            )
            assert count == oracle
            got[hybrid, abstr, depth].append((count, astuple(stats)))
    assert got == HARNESS_ASSUMED
    assert any(one_option) and not all(one_option)


# ---------------------------------------------------------------------------
# row keys: true atoms in the low ``shift`` bits, false atoms above them


def spread_atoms(program):
    """``program`` renamed so that plain atoms sit below, between and above
    its epistemic atoms, with unused ids as gaps in ``eats_mask``; a fact
    on a fresh atom tops the atom table."""
    plain = iter(a for a in range(len(program.atoms)) if not program.eats_mask >> a & 1)
    new, top = {}, 0
    for i, atom in enumerate(bits(program.eats_mask)):
        for p in itertools.islice(plain, 1):
            new[p], top = top, top + 1
        top += i % 2  # an unused id
        new[atom], top = top, top + 1
    for p in plain:
        new[p], top = top, top + 1
    rules = renamed_rules(program.rules, new) + (Rule((top,), ()),)
    return Program(AtomTable("x%d" % i for i in range(top + 1)), rules)


def test_rows_split_above_the_epistemic_atoms():
    between = 0
    for seed in range(12):
        prog = spread_atoms(gen_random_elp(8, 4, 10, seed))
        eats = prog.eats_mask
        low, shift = (eats & -eats).bit_length() - 1, eats.bit_length()
        plain = prog.ats_mask & ~eats
        assert plain & ((1 << low) - 1) and plain >> shift  # plain atoms below and above
        assert eats.bit_count() < shift - low  # gaps
        between += bool(plain >> low & ((1 << (shift - low)) - 1))
        for heuristic, td_seed in (("min-fill", 0), ("min-degree", 1)):
            nice = make_nice(build_td(epistemic_primal_graph(prog), heuristic, td_seed))
            assert_per_row_tables(prog, nice)
        assert count_plausible(prog) == brute_plausible_count(prog)
        oracle = count_world_views_bruteforce(prog)
        for thresholds in THRESHOLD_GRID:
            assert count_world_views(prog, thresholds=thresholds) == oracle
    assert between >= 6


def hub_program(seed):
    """Three small random programs with world views, and a hub atom tied
    to an epistemic atom of each by a purely-epistemic constraint: the
    nested graph is a tree of cliques, so its decomposition removes,
    introduces and joins.  Atom 0 is the hub, chosen by a disjunctive
    fact."""
    rng = random.Random(seed)
    parts = [gen_random_elp(5, 3, 4, s) for s in range(7 * seed, 7 * seed + 7)]
    parts = [p for p in parts if p.eats_mask and enumerate_world_views(p)][:3]
    rules, top = [], 1
    for part in parts:
        rules += renamed_rules(part.rules, range(top, top + len(part.atoms)))
        tie = top + rng.choice(list(bits(part.eats_mask)))
        rules.append(Rule((), tuple(
            Epistemic(rng.random() < 0.5, Literal(a, rng.random() < 0.5)) for a in (0, tie)
        )))
        top += len(part.atoms)
    rules.append(Rule((0, top), ()))
    return Program(AtomTable("x%d" % i for i in range(top + 1)), tuple(rules))


def test_nested_rows_split_at_the_abstraction(monkeypatch):
    # An abstraction without the top epistemic atom splits rows lower
    # than ``eats_mask`` would; assumed atoms take the one-option branch.
    import wvcount.dp as dp_mod
    from wvcount.dp import _run_tables, _table_plan

    intr_table = dp_mod._intr_table
    calls = []

    def spy(depth, program, nd, child, assumption, ctx):
        table = intr_table(depth, program, nd, child, assumption, ctx)
        options = nd.options
        calls.append((depth, options.shift, bool(assumption.domain & options.bit)))
        parents = {row_masks(row, options.shift) for row in child}
        # Every purely-epistemic rule the bag completes, element by element.
        checks = Program(program.atoms, tuple(
            r for r in program.rules
            if r.purely_epistemic and r.eats_mask & ~nd.bag_mask == 0
        ))
        for row in table:
            tm, fm = row_masks(row, options.shift)
            assert tm & fm == 0 and (tm | fm) & ~nd.bag_mask == 0
            assert (tm & ~options.bit, fm & ~options.bit) in parents
            assert is_plausible(WVI(nd.bag_mask, tm, fm), checks)
        return table

    monkeypatch.setattr(dp_mod, "_intr_table", spy)
    shifts, one_option, counted = set(), [], 0
    for seed in range(8):
        prog = spread_atoms(hub_program(seed))
        eats = sorted(bits(prog.eats_mask))
        a_mask = mask_of(eats[:-1])
        assert a_mask.bit_length() < prog.eats_mask.bit_length()
        wvs = enumerate_world_views(prog)
        first = mask_of(eats[:2])
        for assumption in (EMPTY_WVI, wvs[-1].restrict(first) if wvs else WVI(first, first, 0)):
            oracle = sum(wv.restrict(assumption.domain) == assumption for wv in wvs)
            counted += oracle
            for thresholds in THRESHOLD_GRID:
                ctx = _make_ctx(thresholds, None, "min-fill", 0, None)
                calls.clear()
                assert _run_tables(0, _table_plan(prog, a_mask, ctx), assumption, ctx) == oracle
                top = [call for call in calls if call[0] == 0]
                assert {shift for _depth, shift, _one in top} == {a_mask.bit_length()}
                shifts.update(shift for _depth, shift, _one in calls)
                one_option += [one for _depth, _shift, one in top]
    assert counted and any(one_option) and not all(one_option)
    assert len(shifts) > 1  # nested tables below split their own rows


def test_nested_join_on_random_programs(monkeypatch):
    # Smaller random ELPs give one introduce chain at depth 0; these give
    # the depth-0 nested decomposition a join node, which must see rows.
    import wvcount.dp as dp_mod

    run_tables, table_pass = dp_mod._run_tables, dp_mod._table_pass
    depths, joins = [], []

    def run_spy(depth, *args):
        depths.append(depth)
        try:
            return run_tables(depth, *args)
        finally:
            depths.pop()

    def pass_spy(nice, introduce, shift):
        tables = table_pass(nice, introduce, shift)
        if depths[-1:] == [0]:
            joins.extend(len(tables[t]) for t, kind in nice.kind.items() if kind == "join")
        return tables

    monkeypatch.setattr(dp_mod, "_run_tables", run_spy)
    monkeypatch.setattr(dp_mod, "_table_pass", pass_spy)
    for args in ((14, 7, 10, 0), (14, 7, 10, 19), (14, 7, 10, 27), (16, 8, 10, 20)):
        prog = gen_random_elp(*args)
        oracle = count_world_views_bruteforce(prog)
        assert oracle == 1
        joins.clear()
        for thresholds in THRESHOLD_GRID:
            for heuristic in ("min-fill", "min-degree"):
                count = count_world_views(prog, thresholds=thresholds, heuristic=heuristic)
                assert count == oracle
        assert joins and all(joins), args


def test_benchmark_cnf_instance(monkeypatch):
    # perfbench's ``cnf`` workload reads the plausible rows off
    # ``plausible_tables``' return value; its CI smoke run pins them.
    import wvcount.dp as dp_mod

    tables = dp_mod.plausible_tables
    rows = []

    def spy(program, nice):
        out = tables(program, nice)
        rows.append(sum(len(table) for table in out.values()))
        return out

    monkeypatch.setattr(dp_mod, "plausible_tables", spy)
    assert count_plausible(cnf_to_elp(40, gen_random_3cnf(40, 60, 0))) == 217_798_992
    assert rows == [366_652]


# ---------------------------------------------------------------------------
# abstraction choice


def test_choose_abstraction_running(running):
    chosen = choose_abstraction(running.eats_mask, running, target_width=2, seed=0)
    assert set(running.atoms.mask_to_names(chosen)) == {"b", "c", "d"}


def test_choose_abstraction_keeps_sparse_sets():
    prog = parse_program(":- -K a.\n:- -K b.\na.\nb.")
    chosen = choose_abstraction(prog.eats_mask, prog, target_width=1, seed=0)
    assert chosen == prog.eats_mask  # already edgeless, width 0


def test_choose_abstraction_singleton():
    prog = parse_program("a.\n:- -K a.")
    assert choose_abstraction(prog.eats_mask, prog, 3, seed=1) == prog.eats_mask


def test_choose_abstraction_never_empty(running):
    chosen = choose_abstraction(running.eats_mask, running, target_width=0, seed=0)
    assert chosen != 0
    assert choose_abstraction(0, running, 1) == 0  # nothing to shrink


def rebuild_per_candidate_abstraction(
    a_mask, program, target_width, budget, seed, heuristic, readd=True
):
    """Reference greedy: builds the nested graph of every candidate.
    ``readd=False`` stops after the shrink phase."""

    def width_of(mask):
        return build_td(nested_primal_graph(program, mask), heuristic, seed).width

    steps = 0
    cur = a_mask
    while cur.bit_count() > 1 and steps <= budget and width_of(cur) >= target_width:
        best_key = None
        best = cur
        for atom in bits(cur):
            cand = cur & ~(1 << atom)
            key = (nested_primal_graph(program, cand).edge_count(), atom)
            steps += 1
            if best_key is None or key < best_key:
                best_key, best = key, cand
        cur = best
    for atom in bits(a_mask & ~cur) if readd else ():
        if steps > budget:
            break
        cand = cur | (1 << atom)
        steps += 1
        if width_of(cand) < target_width:
            cur = cand
    return cur


def test_choose_abstraction_matches_rebuild_per_candidate():
    programs = [gen_random_elp(12, 6, 14, seed) for seed in range(6)]
    programs += [cnf_to_elp(10, gen_random_3cnf(10, 16, seed)) for seed in (0, 1, 2, 4)]
    shrunk = 0
    for prog in programs:
        eats = prog.eats_mask
        for target in range(9):
            for budget in (0, 3, 10, 256):
                for heuristic in ("min-fill", "min-degree"):
                    got = choose_abstraction(eats, prog, target, budget, 1, heuristic)
                    want = rebuild_per_candidate_abstraction(
                        eats, prog, target, budget, 1, heuristic
                    )
                    assert got == want
                    shrunk += got != eats
    assert shrunk > 100
    # The re-add phase keeps an atom the shrink phase dropped: x1 of the
    # last 3-CNF at target 6.
    prog = programs[-1]
    x1 = 1 << prog.atoms.id("x1")
    for heuristic in ("min-fill", "min-degree"):
        got = choose_abstraction(prog.eats_mask, prog, 6, 256, 1, heuristic)
        shrunk_only = rebuild_per_candidate_abstraction(
            prog.eats_mask, prog, 6, 256, 1, heuristic, readd=False
        )
        assert got & x1 and not shrunk_only & x1 and got & ~x1 == shrunk_only


# ---------------------------------------------------------------------------
# base case


def _base_ctx(backend=None):
    return _Ctx(Thresholds(), backend or InternalBackend(), "min-fill", 0, RunStats())


def test_base_case_decided():
    ctx = _base_ctx()
    prog = parse_program("a.")
    assert _base_case(prog, WVI(1, true=1), ctx) == 1
    assert _base_case(prog, WVI(1, false=1), ctx) == 0
    assert ctx.stats.backend_calls == 2


def test_base_case_empty():
    prog = parse_program("")
    assert _base_case(prog, EMPTY_WVI, _base_ctx()) == 1


def test_base_case_undecided_needs_mixed():
    ctx = _base_ctx()
    split = parse_program("a | b.")
    assert _base_case(split, WVI(1), ctx) == 1  # a mixed across sets
    fact = parse_program("a.")
    assert _base_case(fact, WVI(1), ctx) == 0


def test_base_case_matches_existence_and_forbid_all_on_plain_programs():
    # The reference is the pair of answer-set calls the base case used to
    # make on a fully decided assumption, and the compatibility of the
    # assumption with the answer sets otherwise.
    rng = random.Random(11)
    decided = undecided = 0
    for seed in range(60):
        prog = gen_random_elp(6, 0, 7, seed)
        backend = InternalBackend()
        ctx = _base_ctx(backend)
        for _ in range(8):
            dom = t = f = 0
            for atom in range(6):
                value = rng.choice(("out", "out", None, True, False))
                if value == "out":
                    continue
                dom |= 1 << atom
                if value is True:
                    t |= 1 << atom
                elif value is False:
                    f |= 1 << atom
            assumption = WVI(dom, t, f)
            if assumption.undecided == 0:
                decided += 1
                ok = backend.as_exists(prog) and backend.as_forbid_all(prog, assumption)
            else:
                undecided += 1
                ok = check_compatibility(assumption, answer_sets(prog))
            expected = 1 if ok else 0
            assert _base_case(prog, assumption, ctx) == expected
    assert decided > 50 and undecided > 50


def test_plain_components_are_enumerated_apart():
    # One backend call on the whole plain program would enumerate the
    # product of its parts' answer sets and cap all 60 atoms at once; the
    # component split counts one part and reuses it for the other 29.
    prog = parse_program("".join("a%d | b%d.\n" % (i, i) for i in range(30)))
    stats = RunStats()
    assert count_world_views(prog, stats=stats) == 1
    assert stats.backend_calls == 1
    with pytest.raises(BruteForceCapExceeded):
        count_world_views_bruteforce(prog)


def test_classic_count_enumerates_once_per_plain_base_case(monkeypatch):
    # The backend remembers world views per program up to renaming, so a
    # plain base case costs one enumeration the first time its program
    # comes up and none after that.
    import wvcount.dp as dp_mod
    import wvcount.semantics as semantics_mod
    from wvcount.bench import gen_scholarship

    calls = {"enumerations": 0, "plain_cases": 0}
    plain_programs = set()
    answer_sets = semantics_mod.answer_sets
    base_case = dp_mod._base_case

    def spy_answer_sets(program, *args, **kwargs):
        calls["enumerations"] += 1
        return answer_sets(program, *args, **kwargs)

    def spy_base_case(program, *args):
        if program.is_plain:
            calls["plain_cases"] += 1
            plain_programs.add(reference_rules_key(program.rules, program.ats_mask))
        return base_case(program, *args)

    monkeypatch.setattr(semantics_mod, "answer_sets", spy_answer_sets)
    monkeypatch.setattr(dp_mod, "_base_case", spy_base_case)
    stats = RunStats()
    assert count_world_views(gen_scholarship(12, "classic", 3), stats=stats) == 1
    assert calls["enumerations"] == len(plain_programs) > 0
    assert calls["enumerations"] <= calls["plain_cases"]
    assert stats.backend_calls == calls["plain_cases"]


# ---------------------------------------------------------------------------
# nested counting


def test_count_running_all_routes(running):
    for thr in THRESHOLD_GRID:
        assert count_world_views(running, thresholds=thr) == 3


def test_count_plain_core(plain_core):
    assert count_world_views(plain_core) == 1


def test_count_with_partial_query(running):
    q = wvi_from_names(running.atoms, ["a"])
    assert count_world_views(running, query=q) == 2


def test_count_under_assumption(running):
    # world views extending the assumption exactly: a known true
    a = running.atoms.id("a")
    for thr in THRESHOLD_GRID:
        assumed = WVI(domain=1 << a, true=1 << a)
        assert count_world_views(running, thresholds=thr, assumption=assumed) == 2
        # no world view leaves a open
        assert count_world_views(running, thresholds=thr, assumption=WVI(1 << a)) == 0


def test_assumption_matches_exact_extension_oracle():
    from wvcount.semantics import enumerate_world_views

    rng = random.Random(17)
    for seed in range(25):
        prog = gen_random_elp(7, 4, 9, seed)
        eats = sorted(bits(prog.eats_mask))
        pick = rng.sample(eats, min(2, len(eats)))
        dom = mask_of(pick)
        true = mask_of(x for x in pick if rng.random() < 0.4)
        false = mask_of(x for x in pick if rng.random() < 0.4) & ~true & dom
        assumed = WVI(dom, true, false)
        expected = sum(
            1
            for view in enumerate_world_views(prog)
            if all(view.value(x) == assumed.value(x) for x in pick)
        )
        assert count_world_views(prog, assumption=assumed) == expected


def test_mutual_negation_pair_all_routes():
    pair = parse_program("hi :- not lo.\nlo :- not hi.")
    for thr in THRESHOLD_GRID:
        assert count_world_views(pair, thresholds=thr) == 2


def test_oracle_equivalence_under_all_routings():
    rng = random.Random(1)
    for seed in range(60):
        prog = gen_random_elp(8, 5, 10, seed)
        expected = count_world_views_bruteforce(prog)
        atoms = sorted(bits(prog.ats_mask))
        lits = rng.sample(atoms, min(2, len(atoms)))
        query = WVI(
            mask_of(lits),
            true=mask_of(l for l in lits if rng.random() < 0.5),
        )
        expected_q = count_world_views_bruteforce(prog, query)
        for thr in THRESHOLD_GRID:
            assert count_world_views(prog, thresholds=thr) == expected
            assert count_world_views(prog, query=query, thresholds=thr) == expected_q


def _random_assumption(rng, program):
    """Up to two atoms of the whole table, objective and unmentioned ones
    included, each assumed true, false or open."""
    atoms = rng.sample(range(len(program.atoms.names)), 2)
    dom = mask_of(atoms)
    value = {a: rng.choice("tfo") for a in atoms}
    true = mask_of(a for a in atoms if value[a] == "t")
    false = mask_of(a for a in atoms if value[a] == "f")
    return WVI(dom, true, false)


def test_probability_equivalence_under_all_routings():
    rng = random.Random(2)
    for seed in range(40):
        prog = gen_random_elp(8, 5, 10, seed)
        atoms = sorted(bits(prog.ats_mask))
        lits = rng.sample(atoms, min(2, len(atoms)))
        query = WVI(
            mask_of(lits),
            true=mask_of(l for l in lits if rng.random() < 0.5),
        )
        assumed = _random_assumption(rng, prog)
        # Any atom of the table, unmentioned ones included; its own
        # generator leaves the draws above as they were.
        atom = 1 << random.Random(seed).randrange(len(prog.atoms.names))
        try:
            expected = probability_bruteforce(prog, query)
        except NoWorldViews:
            expected = None
        for thr in (None,) + THRESHOLD_GRID:
            try:
                got = acceptance_probability(prog, query, thresholds=thr)
            except NoWorldViews:
                got = None
            assert got == expected
            # prob is count(query)/count() under the same assumption, and
            # raises exactly when that count is 0
            total = count_world_views(prog, thresholds=thr, assumption=assumed)
            # The query folded per component counts as the query adjoined
            # to the whole program, and "a" and "-a" split the count.
            assert count_world_views(
                prog, query=query, thresholds=thr, assumption=assumed
            ) == count_world_views(
                with_query_constraints(prog, query), thresholds=thr, assumption=assumed
            )
            assert sum(
                count_world_views(prog, query=q, thresholds=thr, assumption=assumed)
                for q in (WVI(atom, true=atom), WVI(atom, false=atom))
            ) == total
            if total == 0:
                with pytest.raises(NoWorldViews):
                    acceptance_probability(
                        prog, query, thresholds=thr, assumption=assumed
                    )
            else:
                hits = count_world_views(
                    prog, query=query, thresholds=thr, assumption=assumed
                )
                assert acceptance_probability(
                    prog, query, thresholds=thr, assumption=assumed
                ) == Fraction(hits, total)


def test_probability_running(running):
    q = wvi_from_names(running.atoms, ["a", "-b"])
    assert acceptance_probability(running, q) == Fraction(2, 3)
    assert acceptance_probability(running, EMPTY_WVI) == 1
    q0 = wvi_from_names(running.atoms, ["c", "d"])
    assert acceptance_probability(running, q0) == 0


def test_probability_no_world_views():
    prog = parse_program("a :- not b.\nb :- a.")
    with pytest.raises(NoWorldViews):
        acceptance_probability(prog, EMPTY_WVI)


def test_probability_bare_falsity_constraint():
    prog = parse_program("a :- not b.\nb :- not a.\nc :- -K a.\nz :- z.")
    prog = prog.extended((Rule((), ()),))
    q = wvi_from_names(prog.atoms, ["c"])
    for thr in (None,) + THRESHOLD_GRID:
        assert count_world_views(prog, thresholds=thr) == 0
        with pytest.raises(NoWorldViews):
            acceptance_probability(prog, q, thresholds=thr)


def test_probability_assumption_on_unmentioned_atom():
    prog = parse_program(
        "a :- not b.\nb :- not a.\nc :- -K a.\nd :- K b, not e.\ne :- not d."
    )
    z = 1 << prog.atoms.intern("z")  # no rule mentions z
    q = wvi_from_names(prog.atoms, ["c"])
    routings = (None, Thresholds(hybrid=2, abstr=1, depth=2)) + THRESHOLD_GRID
    for thr in routings:
        for claim in (WVI(z, true=z), WVI(z)):  # z true, z open
            assert count_world_views(prog, thresholds=thr, assumption=claim) == 0
            with pytest.raises(NoWorldViews):
                acceptance_probability(prog, q, thresholds=thr, assumption=claim)
        falsity = WVI(z, false=z)
        total = count_world_views(prog, thresholds=thr, assumption=falsity)
        hits = count_world_views(prog, query=q, thresholds=thr, assumption=falsity)
        assert (total, hits) == (3, 2)
        assert acceptance_probability(
            prog, q, thresholds=thr, assumption=falsity
        ) == Fraction(hits, total)


def test_probability_query_on_unmentioned_atom():
    # z is false in every answer set: "z" never holds, "-z" always does.
    prog = parse_program(
        "a :- not b.\nb :- not a.\nc :- -K a.\nd :- K b, not e.\ne :- not d."
    )
    z = 1 << prog.atoms.intern("z")  # no rule mentions z
    for thr in (None,) + THRESHOLD_GRID:
        plain = RunStats()
        total = count_world_views(prog, thresholds=thr, stats=plain)
        assert total == 3 and plain.eats_size == 4
        for q, hits in ((WVI(z, true=z), 0), (WVI(z, false=z), 3)):
            stats = RunStats()
            assert count_world_views(prog, query=q, thresholds=thr, stats=stats) == hits
            assert acceptance_probability(prog, q, thresholds=thr) == Fraction(
                hits, total
            )
            # z joins no component: "z" fails before any part is counted,
            # and "-z" counts the plain split.  eats_size counts z, as
            # adjoining the query to the whole program does.
            if hits:
                assert stats == replace(plain, eats_size=5)
            else:
                assert stats == RunStats(eats_size=5, components=1)


def test_one_primal_graph_per_subproblem(monkeypatch):
    # The router builds the primal graph for its width check only: the
    # abstraction search, the nested graph and the compatible sets derive
    # from a split of the rules and build none.
    import wvcount.dp as dp_mod
    import wvcount.graphs as graphs_mod

    prog = cnf_to_elp(10, gen_random_3cnf(10, 14, 0))
    builds = []
    for mod in (dp_mod, graphs_mod):
        build = mod.primal_graph

        def spy(program, build=build):
            builds.append(program)
            return build(program)

        monkeypatch.setattr(mod, "primal_graph", spy)
    stats = RunStats()
    thr = Thresholds(hybrid=99, abstr=2, depth=1)
    count = count_world_views(prog, thresholds=thr, stats=stats)
    assert count == count_world_views_bruteforce(prog)
    assert stats.abstraction_size < stats.eats_size  # the abstraction route
    assert len(builds) == 1


def test_nested_graphs_built_once_per_abstraction_pass(monkeypatch):
    # The shrink phase eliminates vertices from one nested graph; only the
    # re-add candidates and the tables build their own.
    import wvcount.dp as dp_mod

    prog = cnf_to_elp(10, gen_random_3cnf(10, 14, 0))
    builds = []
    build = dp_mod.nested_primal_graph

    def spy(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(dp_mod, "nested_primal_graph", spy)
    stats = RunStats()
    thr = Thresholds(hybrid=99, abstr=2, depth=1)
    count = count_world_views(prog, thresholds=thr, stats=stats)
    assert count == count_world_views_bruteforce(prog)
    dropped = stats.eats_size - stats.abstraction_size
    assert dropped > 0  # the abstraction route
    assert len(builds) <= 2 + dropped


def test_counters_exact_big():
    # forty independent two-view pairs: 2^40 world views, exact integers
    text = "".join(
        "p%d :- not q%d.\nq%d :- not p%d.\n" % (i, i, i, i) for i in range(40)
    )
    prog = parse_program(text)
    assert count_world_views(prog) == 2 ** 40


def test_stats_and_determinism(running):
    s1, s2 = RunStats(), RunStats()
    a = count_world_views(running, seed=7, stats=s1)
    b = count_world_views(running, seed=7, stats=s2)
    assert a == b == 3
    assert s1 == s2
    assert s1.primal_width >= 1 and s1.dp_nodes > 0


def test_elp_tables_root_single_row_and_positive_counts(running):
    import wvcount.dp as dp_mod
    from wvcount.dp import _make_ctx, _run_tables, _table_plan

    ctx = _make_ctx(Thresholds(hybrid=99, abstr=99, depth=1), None, "min-fill", 0, None)
    captured = []
    orig = dp_mod._intr_table

    def spy(*args, **kwargs):
        table = orig(*args, **kwargs)
        captured.append(table)
        return table

    dp_mod._intr_table = spy
    try:
        total = _run_tables(0, _table_plan(running, running.eats_mask, ctx), EMPTY_WVI, ctx)
    finally:
        dp_mod._intr_table = orig
    assert total == 3
    # stored rows always carry a positive counter
    for table in captured:
        for c in table.values():
            assert c >= 1


def test_elp_root_bag_is_empty(running):
    from wvcount.decomp import build_td, make_nice
    from wvcount.graphs import nested_primal_graph

    nice = make_nice(build_td(nested_primal_graph(running, running.eats_mask)))
    assert nice.bags[nice.root] == frozenset()


def test_threshold_validation():
    with pytest.raises(ValueError):
        Thresholds(hybrid=2, abstr=5)
    with pytest.raises(ValueError):
        Thresholds(depth=-1)
    # the brute-force caps belong to the base solver
    with pytest.raises(TypeError):
        Thresholds(answer_cap=40)
    with pytest.raises(ValueError):
        InternalBackend(answer_cap=-1)
    with pytest.raises(ValueError):
        InternalBackend(wv_cap=-3)
    # a zero cap is legal: it only makes every enumeration exceed it
    InternalBackend(answer_cap=0, wv_cap=0)


def test_every_entry_point_rejects_an_unknown_heuristic(tmp_path):
    # Checked up front: a plain program, a zero or one-atom abstraction
    # and a program that never builds a decomposition raise as well.
    from wvcount.bench import run_harness
    from wvcount.parser import parse_query

    bogus = dict(heuristic="bogus")
    text = "a :- -b. b :- -a."
    (tmp_path / "p.elp").write_text(text)
    for path, prog in ((tmp_path / "p.elp", parse_program(text)), (RUNNING_PATH, None)):
        if prog is None:
            with open(path, encoding="utf-8") as fh:
                prog = parse_program(fh.read())
        query = parse_query("a", prog.atoms)
        one_atom = prog.eats_mask & -prog.eats_mask
        for run in (
            lambda: count_world_views(prog, **bogus),
            lambda: count_world_views(prog, query=query, **bogus),
            lambda: acceptance_probability(prog, EMPTY_WVI, **bogus),
            lambda: acceptance_probability(prog, query, **bogus),
            lambda: count_plausible(prog, **bogus),
            lambda: choose_abstraction(0, prog, 1, **bogus),
            lambda: choose_abstraction(one_atom, prog, 1, **bogus),
            lambda: choose_abstraction(prog.eats_mask, prog, 1, **bogus),
            lambda: run_harness([GenSpec("file", path=str(path))], **bogus),
            lambda: build_td(epistemic_primal_graph(prog), "bogus"),
        ):
            with pytest.raises(ValueError, match="^unknown heuristic 'bogus'$"):
                run()


def test_no_decomposition_at_the_depth_cap(monkeypatch, running):
    # Subproblems at depth >= Thresholds.depth >= 1 go to the base solver
    # whatever their width, so no primal graph or decomposition is built.
    import wvcount.dp as dp_mod

    depths = []  # every decomposition is built while a component is planned
    builds = []
    capped = []
    make_plan = dp_mod._make_plan
    build = dp_mod.build_td

    def plan_spy(depth, atoms, part, ctx):
        if depth >= ctx.thresholds.depth and any(r.eats_mask for r in part.rules):
            capped.append(depth)
        depths.append(depth)
        try:
            return make_plan(depth, atoms, part, ctx)
        finally:
            depths.pop()

    def build_spy(*args, **kwargs):
        builds.append(depths[-1])
        return build(*args, **kwargs)

    monkeypatch.setattr(dp_mod, "_make_plan", plan_spy)
    monkeypatch.setattr(dp_mod, "build_td", build_spy)
    programs = [running] + [gen_random_elp(8, 5, 10, seed) for seed in range(10)]
    for cap in (1, 2):
        thr = Thresholds(hybrid=99, abstr=0, depth=cap)
        capped.clear()
        builds.clear()
        for prog in programs:
            assert count_world_views(prog, thresholds=thr) == (
                count_world_views_bruteforce(prog)
            )
        assert capped, "no subproblem reached the depth cap"
        assert builds and max(builds) < cap


def _spy_kernel(monkeypatch):
    import wvcount.kernel as kernel_mod

    calls = []
    enumerate_masks = kernel_mod.answer_sets_masks

    def spy(heads, bpos, bneg, n_atoms):
        calls.append((tuple(heads), tuple(bpos), tuple(bneg), n_atoms))
        return enumerate_masks(heads, bpos, bneg, n_atoms)

    monkeypatch.setattr(kernel_mod, "answer_sets_masks", spy)
    return calls


def test_answer_set_memo_enumerates_each_component_once(monkeypatch):
    from wvcount.bench import gen_scholarship

    calls = _spy_kernel(monkeypatch)
    assert count_world_views(gen_scholarship(40, "classic", 3)) == 1
    assert calls and len(calls) == len(set(calls))


def test_answer_set_memo_lives_for_one_run(monkeypatch):
    from wvcount.bench import gen_scholarship

    calls = _spy_kernel(monkeypatch)
    prog = gen_scholarship(40, "many", 3)
    first = count_world_views(prog)
    per_run = len(calls)
    assert count_world_views(prog) == first
    assert per_run > 0 and len(calls) == 2 * per_run


def test_engine_agrees_with_definitional_kernel(monkeypatch):
    # The oracle shares the engine's kernel, so engine-vs-oracle checks
    # cannot see a kernel fault; recount with answer sets taken from the
    # definition instead.
    import wvcount.kernel as kernel_mod
    from test_kernel import answer_sets_by_definition

    programs = [gen_random_elp(8, 4, 10, g) for g in range(20)]
    routings = (Thresholds(), THRESHOLD_GRID[1])
    expected = [[count_world_views(p, thresholds=thr) for thr in routings] for p in programs]
    assert any(row[0] for row in expected)
    monkeypatch.setattr(kernel_mod, "answer_sets_masks", answer_sets_by_definition)
    for prog, row in zip(programs, expected):
        assert [count_world_views(prog, thresholds=thr) for thr in routings] == row


def test_reused_backend_agrees_with_oracle():
    # Cached local answer sets are mapped back onto the atoms of each new
    # program that compiles to the same masks.
    backend = InternalBackend()
    for seed in range(10):
        prog = gen_random_elp(8, 5, 10, seed)
        expected = count_world_views_bruteforce(prog)
        for thr in THRESHOLD_GRID:
            assert count_world_views(prog, thresholds=thr, backend=backend) == expected
    assert backend._memo


# ---------------------------------------------------------------------------
# connected components


def test_disjoint_union_count_is_the_square():
    rng = random.Random(4)
    for seed in range(16):
        prog = gen_random_elp(6, 3, 8, seed)
        union = with_renamed_copy(prog, rng if seed % 2 else None)
        single = count_world_views_bruteforce(prog)
        assert count_world_views_bruteforce(union) == single**2
        for thr in THRESHOLD_GRID:
            half, whole = RunStats(), RunStats()
            assert count_world_views(prog, thresholds=thr, stats=half) == single
            assert count_world_views(union, thresholds=thr, stats=whole) == single**2
            assert whole.components == 2 * half.components
            assert whole.eats_size == 2 * half.eats_size
            if single and seed % 2 == 0:  # the copy's parts hit the memo
                assert whole.dp_nodes == 2 * half.dp_nodes
                assert whole.primal_width == half.primal_width
                assert whole.dp_width == half.dp_width
                assert whole.abstraction_size == max(2 * half.abstraction_size, -1)


def test_disjoint_union_queries_and_assumptions(running):
    # Query literals span both halves; the assumption is read off a world
    # view of the union or drawn at random, over atoms of either half.
    rng = random.Random(9)
    pair = parse_program("hi :- not lo.\nlo :- not hi.\nup :- K hi.")
    programs = [running, pair] + [
        prog
        for prog in (gen_random_elp(6, 3, 8, seed) for seed in range(12))
        if count_world_views_bruteforce(prog)
    ]
    with_hits = split_prob = 0
    for i, prog in enumerate(programs):
        union = with_renamed_copy(prog, rng if i % 2 else None)
        views = enumerate_world_views(union)
        n = len(prog.atoms)
        atoms = sorted(bits(prog.ats_mask))
        for _ in range(6):
            ends = (rng.choice(atoms), n + rng.choice(atoms))
            query = WVI(mask_of(ends), true=mask_of(x for x in ends if rng.random() < 0.5))
            picked = rng.sample(sorted(bits(union.ats_mask)), 2)
            source = rng.choice(views)
            values = {
                x: source.value(x) if rng.random() < 0.7 else rng.choice((True, False, None))
                for x in picked
            }
            assumed = WVI(
                mask_of(picked),
                mask_of(x for x in picked if values[x] is True),
                mask_of(x for x in picked if values[x] is False),
            )
            agreeing = [v for v in views if all(v.value(x) == values[x] for x in picked)]
            total = len(agreeing)
            hits = sum(1 for v in agreeing if query_agrees(query, v))
            expected_prob = Fraction(sum(1 for v in views if query_agrees(query, v)), len(views))
            with_hits += hits > 0
            split_prob += 0 < expected_prob < 1
            for thr in (None,) + THRESHOLD_GRID:
                assert count_world_views(union, thresholds=thr, assumption=assumed) == total
                assert count_world_views(
                    union, query=query, thresholds=thr, assumption=assumed
                ) == hits
                if total:
                    assert acceptance_probability(
                        union, query, thresholds=thr, assumption=assumed
                    ) == Fraction(hits, total)
                else:
                    with pytest.raises(NoWorldViews):
                        acceptance_probability(union, query, thresholds=thr, assumption=assumed)
                assert acceptance_probability(union, query, thresholds=thr) == expected_prob
    assert with_hits >= 10 and split_prob >= 3


def test_probability_with_assumption_and_query_on_one_objective_atom():
    # The query's constraint makes the objective atom epistemic, so on the
    # query side the assumption falls on an epistemic atom.
    rng = random.Random(23)
    seen = {True: 0, False: 0}  # nonzero counts, by "the query's component is the program"
    for g in range(24):
        prog = gen_random_elp(7, 3, 9, g)
        objective = sorted(bits(prog.aats_mask & ~prog.eats_mask))
        for target in (prog, with_renamed_copy(prog)):
            whole = len(_components(target.rules, [rule_atoms(r) for r in target.rules])) == 1
            views = enumerate_world_views(target)
            for _ in range(3):
                x = rng.choice(objective)
                value = rng.choice((True, False, None))
                assumed = WVI(1 << x, (1 << x) * (value is True), (1 << x) * (value is False))
                query = WVI(1 << x, true=(1 << x) * (rng.random() < 0.5))
                agreeing = [v for v in views if v.value(x) == value]
                hits = sum(1 for v in agreeing if query_agrees(query, v))
                if agreeing:
                    seen[whole] += 1
                for thr in THRESHOLD_GRID:
                    if agreeing:
                        assert acceptance_probability(
                            target, query, thresholds=thr, assumption=assumed
                        ) == Fraction(hits, len(agreeing))
                    else:
                        with pytest.raises(NoWorldViews):
                            acceptance_probability(target, query, thresholds=thr, assumption=assumed)
    assert seen[True] >= 5 and seen[False] >= 5


def test_isomorphic_components_hit_the_memo():
    runs = {}
    for n in (50, 500):
        stats = RunStats()
        assert count_world_views(gen_scholarship(n, "classic"), stats=stats) == 1
        assert stats.components == stats.eats_size == n
        runs[n] = stats
    # Each student is one of three components up to renaming, so the
    # backend is called as often for 500 students as for 50, while the
    # folded figures grow with the students.
    assert runs[50].backend_calls == runs[500].backend_calls
    assert runs[50].nested_calls == runs[500].nested_calls
    assert runs[500].dp_nodes == 10 * runs[50].dp_nodes
    assert runs[500].abstraction_size == 10 * runs[50].abstraction_size


def test_prob_makes_as_many_backend_calls_as_count(running):
    # A program that is one connected component is memoized like any
    # other, so the query side of ``prob`` reuses the base cases of the
    # count instead of calling the backend for them again.
    query = wvi_from_names(running.atoms, ["a", "-b"])
    count_stats, prob_stats = RunStats(), RunStats()
    assert count_world_views(running, stats=count_stats) == 3
    assert acceptance_probability(running, query, stats=prob_stats) == Fraction(2, 3)
    assert count_stats.components == 1
    assert prob_stats.backend_calls == count_stats.backend_calls


def test_one_driver_call_never_routes_a_component_twice(monkeypatch, running):
    import wvcount.dp as dp_mod

    base_case, run_tables = dp_mod._base_case, dp_mod._run_tables
    keys = []
    passes = []  # the depths of the table passes running

    def counted(depth, program, assumption):
        local = reference_local(program.ats_mask)
        key = reference_rules_key(program.rules, program.ats_mask)
        keys.append((depth, key) + tuple(map(local, (assumption.domain, assumption.true, assumption.false))))

    def spy_base_case(program, assumption, ctx):
        # A component one level below the innermost table pass, or at depth 0.
        counted(passes[-1] + 1 if passes else 0, program, assumption)
        return base_case(program, assumption, ctx)

    def spy_run_tables(depth, plan, assumption, ctx):
        counted(depth, plan.program, assumption)
        passes.append(depth)
        try:
            return run_tables(depth, plan, assumption, ctx)
        finally:
            passes.pop()

    monkeypatch.setattr(dp_mod, "_base_case", spy_base_case)
    monkeypatch.setattr(dp_mod, "_run_tables", spy_run_tables)
    rng = random.Random(31)
    programs = [running] + [gen_random_elp(8, 4, 10, s) for s in range(6)]
    routed = 0
    for prog in programs:
        atoms = sorted(bits(prog.ats_mask))
        query = WVI.from_literals(Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, 2))
        x = rng.choice(atoms)
        assumed = WVI(1 << x, true=(1 << x) * (rng.random() < 0.5))
        for thr in (None,) + THRESHOLD_GRID:
            for run in (
                lambda: count_world_views(prog, thresholds=thr),
                lambda: count_world_views(prog, query=query, thresholds=thr, assumption=assumed),
                lambda: acceptance_probability(prog, query, thresholds=thr),
            ):
                keys.clear()
                try:
                    run()
                except NoWorldViews:
                    pass
                assert len(set(keys)) == len(keys)
                routed += len(keys)
    assert routed > 100


def test_component_memo_lives_for_one_call():
    prog = gen_scholarship(60, "many", 3)
    query = WVI.from_literals(
        Literal(prog.atoms.id(name), True)
        for name in prog.atoms.names
        if name.startswith("rank_high_")
    )
    runs = []
    for _ in range(2):
        count_stats, prob_stats = RunStats(), RunStats()
        runs.append(
            (
                count_world_views(prog, stats=count_stats),
                acceptance_probability(prog, query, stats=prob_stats),
                count_stats,
                prob_stats,
            )
        )
    assert runs[0] == runs[1]
    assert runs[0][2].components > 1 and runs[0][2].backend_calls > 0
    first = _make_ctx(None, None, "min-fill", 0, None)
    second = _make_ctx(None, None, "min-fill", 0, None)
    assert first.memo == {} and first.memo is not second.memo


# ---------------------------------------------------------------------------
# component split and keys against mask-based references


def reference_local(atom_mask):
    """The mask-based local map: the i-th lowest atom of ``atom_mask``
    becomes atom i."""
    low = atom_mask & -atom_mask
    if low and atom_mask & (atom_mask + low) == 0:
        shift = low.bit_length() - 1
        return lambda mask: mask >> shift
    remap = {atom: i for i, atom in enumerate(bits(atom_mask))}
    return lambda mask: mask_of(remap[a] for a in bits(mask))


def reference_rules_key(rules, atom_mask):
    """The mask-based rules key: each rule's head, positive and negative
    body and ``epistemic_masks`` under ``reference_local``."""
    local = reference_local(atom_mask)
    return tuple(
        tuple(map(local, (r.head_mask, r.pos_mask, r.neg_mask) + epistemic_masks(r)))
        for r in rules
    )


def components_by_walk(rules):
    """``rules`` grouped by shared atoms, merging groups rule by rule;
    (atom list, rules) pairs in the order of their lowest atoms."""
    groups = []  # (atom mask, rule indices)
    for i, r in enumerate(rules):
        mask, members = r.ats_mask, [i]
        for group in [g for g in groups if g[0] & mask]:
            groups.remove(group)
            mask |= group[0]
            members += group[1]
        groups.append((mask, members))
    groups.sort(key=lambda g: g[0] & -g[0])
    return [(list(bits(mask)), [rules[i] for i in sorted(members)]) for mask, members in groups]


def key_programs():
    """Programs whose components lie at atom ids past 6,000, in runs of
    consecutive ids and with gaps, and one at low ids."""
    programs = [gen_scholarship(20, "many", 3), shifted(spread_atoms(hub_program(1)), 6000)]
    for seed in range(6):
        programs.append(shifted(spread_atoms(gen_random_elp(8, 4, 10, seed)), 6000))
        copy = with_renamed_copy(gen_random_elp(7, 3, 9, seed), random.Random(seed))
        programs.append(shifted(copy, 6100 + seed))
    return programs


def test_components_match_a_walk():
    split = 0
    for prog in key_programs():
        rules = [r for r in prog.rules if r.head or r.body]
        comps = _components(rules, [rule_atoms(r) for r in rules])
        assert comps == components_by_walk(rules)
        split += len(comps) > 1
    assert split >= 6


def test_router_keys_match_the_mask_reference(monkeypatch):
    # Every component the router builds, the query's constrained parts and
    # the reducts' components included, gets the atom list, mask, key, local
    # map and local WVI the mask-based references give it.
    import wvcount.dp as dp_mod
    import wvcount.semantics as semantics_mod
    from wvcount.semantics import with_query_constraints

    seen = {"parts": 0, "high": 0, "gaps": 0, "query": 0, "nested": 0}
    recount_rules = set()

    class CheckedPart(semantics_mod.Component):
        __slots__ = ()

        def __init__(self, atoms, rules):
            super().__init__(atoms, rules)
            mask = 0
            for r in rules:
                mask |= r.ats_mask
            assert self.atoms == list(bits(mask)) and self.mask == mask
            assert self.key == reference_rules_key(rules, mask)
            reference = reference_local(mask)
            evens, thirds = mask_of(self.atoms[::2]), mask_of(self.atoms[1::3])
            for sub in (0, mask, evens, thirds):
                assert self.local(sub) == reference(sub)
            odd_thirds = thirds & ~evens
            for wvi in (EMPTY_WVI, WVI(mask), WVI(mask, evens, odd_thirds), WVI(evens | thirds, odd_thirds)):
                assert self.local_wvi(wvi) == tuple(map(reference, (wvi.domain, wvi.true, wvi.false)))
            seen["parts"] += 1
            seen["high"] += atoms[0] > 6000
            seen["gaps"] += atoms[-1] - atoms[0] != len(atoms) - 1
            seen["query"] += rules[-1] in recount_rules

    # ``components`` builds each split's parts, and the query fold each constrained part.
    monkeypatch.setattr(semantics_mod, "Component", CheckedPart)
    monkeypatch.setattr(dp_mod, "Component", CheckedPart)
    rng = random.Random(41)
    for prog in key_programs():
        atoms = sorted(bits(prog.ats_mask))
        query = WVI.from_literals(Literal(a, rng.random() < 0.5) for a in rng.sample(atoms, 2))
        recount_rules.clear()
        recount_rules.update(with_query_constraints(Program(prog.atoms, ()), query).rules)
        recount_rules.difference_update(prog.rules)
        for thr in (None,) + THRESHOLD_GRID:
            stats = RunStats()
            count_world_views(prog, thresholds=thr, stats=stats)
            seen["nested"] += stats.nested_calls
            try:
                acceptance_probability(prog, query, thresholds=thr)
            except NoWorldViews:
                pass
    assert seen["parts"] > 500 and seen["nested"] > 500
    assert seen["high"] > 200 and seen["gaps"] > 50 and seen["query"] > 20


def test_backend_keys_plain_components_as_the_reference():
    # A program the router did not build is keyed by the backend; a plain
    # one's answer sets are memoized under the same key.  The components
    # of each program's plain rules add plain ones.
    plain = gapped = 0
    for prog in key_programs():
        rules = [r for r in prog.rules if r.head or r.body]
        plain_rules = [r for r in rules if not r.eats_mask]
        for atoms, rules in components_by_walk(rules) + components_by_walk(plain_rules):
            part = Program(prog.atoms, rules)
            backend = InternalBackend()
            try:
                backend.count_wv(part)
            except BruteForceCapExceeded:
                continue
            key = reference_rules_key(rules, part.ats_mask)
            assert part.component is None and list(backend._wv_memo) == [key]
            if part.is_plain:
                assert list(backend._memo) == [key]
                plain += 1
                gapped += atoms[-1] - atoms[0] != len(atoms) - 1
    assert plain > 50 and gapped > 20


def test_reduct_split_is_built_only_past_the_early_exits(monkeypatch):
    # On this probe 18,980 of 19,098 nested calls end at the router's exit
    # for assumed atoms the reduct no longer mentions; the component split
    # of a node's reduct is built only for calls that get past it.
    import wvcount.dp as dp_mod

    calls = []
    components = dp_mod.components

    def spy(rules):
        calls.append(rules)
        return components(rules)

    monkeypatch.setattr(dp_mod, "components", spy)
    stats = RunStats()
    with pytest.raises(BruteForceCapExceeded):
        count_world_views(gen_random_elp(40, 20, 70, 3), thresholds=Thresholds(depth=3), stats=stats)
    assert stats.nested_calls == 19098
    assert 0 < len(calls) <= 119


def test_no_cache_outlives_a_driver_call(monkeypatch):
    # The backend's world-view memo and the component splits live for one
    # call: counting one Program object twice enumerates world views and
    # splits programs as often the second time as the first.  The router
    # hands each Component to the backend on a Program of its own, so the
    # backend never builds one, and the caller's Program is left without
    # a component.
    import wvcount.backends as backends_mod
    import wvcount.dp as dp_mod
    import wvcount.semantics as semantics_mod

    calls = []

    def spy_on(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    spy_on(semantics_mod, "enumerate_world_views")
    spy_on(dp_mod, "components")
    spy_on(backends_mod, "Component")
    programs = [gen_scholarship(30, "many", 3)] + [gen_random_elp(12, 6, 12, g) for g in range(4)]
    for prog in programs:
        for thr in (None, Thresholds(hybrid=6, abstr=4)):
            per_call = []
            for _ in range(2):
                calls.clear()
                stats = RunStats()
                count_world_views(prog, thresholds=thr, stats=stats)
                per_call.append(sorted(calls))
                assert stats.backend_calls > 0 and prog.component is None
            assert per_call[0] == per_call[1]
            assert "enumerate_world_views" in per_call[0] and "components" in per_call[0]
            assert "Component" not in per_call[0]


def test_reducts_never_leave_a_bare_falsity_constraint(monkeypatch):
    # The drivers scan for a rule without atoms at depth 0 only: a reduct
    # keeps, of each delegated rule, its objective atoms and its epistemic
    # atoms outside the abstraction, and one of them is always there.
    import wvcount.dp as dp_mod

    subproblem = dp_mod._Subproblem
    checked = []

    def spy(rules):
        assert all(r.ats_mask for r in rules), "a reduct left a bare falsity"
        checked.append(len(rules))
        return subproblem(rules)

    monkeypatch.setattr(dp_mod, "_Subproblem", spy)
    for thr in THRESHOLD_GRID:
        for seed in range(12):
            count_world_views(gen_random_elp(10, 5, 12, seed), thresholds=thr)
    assert len(checked) > 100


def test_each_component_is_planned_once_per_driver_call(monkeypatch):
    # A component's route reads its depth, its rules and the thresholds,
    # never its assumption: one plan serves every assumption it meets.
    import wvcount.dp as dp_mod

    make_plan, run_tables = dp_mod._make_plan, dp_mod._run_tables
    planned, passes = [], []

    def plan_spy(depth, atoms, part, ctx):
        planned.append(part)
        return make_plan(depth, atoms, part, ctx)

    def tables_spy(depth, plan, assumption, ctx):
        passes.append(plan)
        return run_tables(depth, plan, assumption, ctx)

    monkeypatch.setattr(dp_mod, "_make_plan", plan_spy)
    monkeypatch.setattr(dp_mod, "_run_tables", tables_spy)
    reused = 0
    for seed in range(10):
        prog = gen_random_elp(12, 6, 12, seed)
        oracle = count_world_views_bruteforce(prog)
        for thresholds in THRESHOLD_GRID:
            for heuristic in ("min-fill", "min-degree"):
                planned.clear()
                passes.clear()
                assert count_world_views(prog, thresholds=thresholds, heuristic=heuristic) == oracle
                assert len({id(part) for part in planned}) == len(planned)
                reused += len({id(plan) for plan in passes}) < len(passes)
    assert reused >= 10  # runs in which a plan served more than one table pass


def test_parsed_r20_at_depth_2_builds_each_decomposition_once(monkeypatch):
    # The nesting probe pinned in CI (seed 3) and its neighbour: the same
    # counts and stats as ever, from one decomposition per component, where
    # planning per memo miss made 2,275 and 6,487 build_td calls.
    import wvcount.dp as dp_mod

    build = dp_mod.build_td
    builds = []

    def build_spy(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(dp_mod, "build_td", build_spy)
    for seed, pinned in (
        (3, RunStats(13, 7, 17, 10, 8, 4921, 8589, 2, 1)),
        (4, RunStats(9, 7, 17, 10, 8, 1585, 16281, 2, 1)),
    ):
        prog = parse_program(program_to_text(gen_random_elp(20, 10, 30, seed)))
        builds.clear()
        stats = RunStats()
        assert count_world_views(prog, thresholds=Thresholds(depth=2), stats=stats) == 1
        assert stats == pinned
        assert len(builds) < 1000
