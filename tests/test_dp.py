import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import brute_plausible_count, running_nice_td, wvi_from_names
from wvcount.backends import InternalBackend
from wvcount.bench import gen_random_3cnf, gen_random_elp, gen_scholarship
from wvcount.decomp import build_td
from wvcount.dp import (
    RunStats,
    Thresholds,
    _Ctx,
    _base_case,
    _make_ctx,
    acceptance_probability,
    choose_abstraction,
    count_plausible,
    count_world_views,
    plausible_tables,
)
from wvcount.errors import NoWorldViews
from wvcount.graphs import nested_primal_graph
from wvcount.model import EMPTY_WVI, WVI, AtomTable, Literal, Program, Rule, bits, mask_of
from wvcount.parser import parse_program
from wvcount.semantics import (
    cnf_to_elp,
    count_world_views_bruteforce,
    enumerate_world_views,
    probability_bruteforce,
    query_agrees,
)

THRESHOLD_GRID = (
    Thresholds(hybrid=99, abstr=0, depth=0),
    Thresholds(hybrid=99, abstr=0, depth=2),
    Thresholds(hybrid=99, abstr=99, depth=0),
    Thresholds(hybrid=99, abstr=99, depth=2),
)


def table_by_names(program, table):
    out = {}
    for (tm, fm), value in table.items():
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
    assert tables[1] == {(0, 0): 1}  # leaf
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


def test_count_plausible_matches_oracle_on_random_programs():
    for seed in range(40):
        prog = gen_random_elp(7, 4, 9, seed)
        assert count_plausible(prog) == brute_plausible_count(prog)


def test_plausible_root_single_row(running):
    nice = running_nice_td(running)
    tables = plausible_tables(running, nice)
    assert list(tables[nice.root]) == [(0, 0)]


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


def rebuild_per_candidate_abstraction(a_mask, program, target_width, budget, seed, heuristic):
    """Reference greedy: builds the nested graph of every candidate."""

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
    for atom in bits(a_mask & ~cur):
        if steps > budget:
            break
        cand = cur | (1 << atom)
        steps += 1
        if width_of(cand) < target_width:
            cur = cand
    return cur


def test_choose_abstraction_matches_rebuild_per_candidate():
    programs = [gen_random_elp(12, 6, 14, seed) for seed in range(6)]
    programs += [cnf_to_elp(10, gen_random_3cnf(10, 16, seed)) for seed in range(3)]
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
    # make on a fully decided assumption, and wv_exists otherwise.
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
                ok = backend.wv_exists(prog, assumption)
            expected = 1 if ok else 0
            assert _base_case(prog, assumption, ctx) == expected
    assert decided > 50 and undecided > 50


def test_classic_count_enumerates_once_per_plain_base_case(monkeypatch):
    import wvcount.backends as backends_mod
    import wvcount.dp as dp_mod
    from wvcount.bench import gen_scholarship

    calls = {"enumerations": 0, "plain_cases": 0}
    answer_sets = backends_mod.answer_sets
    base_case = dp_mod._base_case

    def spy_answer_sets(program, *args):
        calls["enumerations"] += 1
        return answer_sets(program, *args)

    def spy_base_case(program, *args):
        calls["plain_cases"] += program.is_plain
        return base_case(program, *args)

    monkeypatch.setattr(backends_mod, "answer_sets", spy_answer_sets)
    monkeypatch.setattr(dp_mod, "_base_case", spy_base_case)
    stats = RunStats()
    assert count_world_views(gen_scholarship(12, "classic", 3), stats=stats) == 1
    assert calls["plain_cases"] and calls["enumerations"] == calls["plain_cases"]
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
        total = count_world_views(prog, thresholds=thr)
        assert total == 3
        for q, hits in ((WVI(z, true=z), 0), (WVI(z, false=z), 3)):
            assert count_world_views(prog, query=q, thresholds=thr) == hits
            assert acceptance_probability(prog, q, thresholds=thr) == Fraction(
                hits, total
            )


def test_one_primal_graph_per_subproblem(monkeypatch):
    # The abstraction search, the nested graph and the compatible sets all
    # reuse the router's primal graph.
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
    from wvcount.dp import _make_ctx, _run_tables

    ctx = _make_ctx(Thresholds(hybrid=99, abstr=99, depth=1), None, "min-fill", 0, None)
    captured = []
    orig = dp_mod._intr_table

    def spy(*args, **kwargs):
        table = orig(*args, **kwargs)
        captured.append(table)
        return table

    dp_mod._intr_table = spy
    try:
        total = _run_tables(0, running, running.eats_mask, EMPTY_WVI, ctx)
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
    with pytest.raises(ValueError):
        Thresholds(answer_cap=-1)
    with pytest.raises(ValueError):
        Thresholds(wv_cap=-3)
    # a zero cap is legal: it only makes every enumeration exceed it
    Thresholds(answer_cap=0, wv_cap=0)


def test_no_decomposition_at_the_depth_cap(monkeypatch, running):
    # Subproblems at depth >= Thresholds.depth >= 1 go to the base solver
    # whatever their width, so no primal graph or decomposition is built.
    import wvcount.dp as dp_mod

    depths = []
    builds = []
    capped = []
    nested = dp_mod._nested_count
    build = dp_mod.build_td

    def nested_spy(depth, program, assumption, ctx):
        if depth >= ctx.thresholds.depth and program.eats_mask:
            capped.append(depth)
        depths.append(depth)
        try:
            return nested(depth, program, assumption, ctx)
        finally:
            depths.pop()

    def build_spy(*args, **kwargs):
        builds.append(depths[-1])
        return build(*args, **kwargs)

    monkeypatch.setattr(dp_mod, "_nested_count", nested_spy)
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

    def move(literal):
        return Literal(n + order[literal.atom], literal.positive)

    copy = tuple(
        Rule(
            tuple(n + order[a] for a in r.head),
            tuple(replace(el, literal=move(el.literal)) for el in r.body),
        )
        for r in program.rules
    )
    return Program(table, program.rules + copy)


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
    # The query's constraint makes the objective atom epistemic, so the
    # assumption on it must be pinned again before the query side counts.
    from wvcount.semantics import _components

    rng = random.Random(23)
    seen = {True: 0, False: 0}  # nonzero counts, by "the query's component is the program"
    for g in range(24):
        prog = gen_random_elp(7, 3, 9, g)
        objective = sorted(bits(prog.aats_mask & ~prog.eats_mask))
        for target in (prog, with_renamed_copy(prog)):
            whole = len(_components(target)) == 1
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
