"""Acceptance suite: one test per criterion, exact values, stated budgets.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from conftest import (
    RUNNING_PATH,
    RUNNING_TEXT,
    brute_cnf_models,
    row_masks,
    running_nice_td,
    wvi_from_names,
)
from wvcount.bench import gen_random_elp, gen_scholarship, undetermined_students
from wvcount.cli import main as cli_main
from wvcount.decomp import build_td, make_nice, validate_td
from wvcount.dp import (
    Thresholds,
    acceptance_probability,
    count_plausible,
    count_world_views,
    plausible_tables,
)
from wvcount.errors import NoWorldViews
from wvcount.graphs import (
    assign_compatible_sets,
    bag_programs,
    epistemic_primal_graph,
    nested_primal_graph,
)
from wvcount.model import WVI, bits, mask_of
from wvcount.parser import parse_program
from wvcount.semantics import (
    answer_sets,
    cnf_to_elp,
    count_world_views_bruteforce,
    probability_bruteforce,
)

RUNNING = parse_program(RUNNING_TEXT)

THRESHOLD_CONFIGS = (
    Thresholds(hybrid=99, abstr=0, depth=0),
    Thresholds(hybrid=99, abstr=0, depth=2),
    Thresholds(hybrid=99, abstr=99, depth=0),
    Thresholds(hybrid=99, abstr=99, depth=2),
)


def _row_names(table):
    out = {}
    for row, value in table.items():
        tm, fm = row_masks(row, RUNNING.eats_mask.bit_length())
        lits = []
        for atom in sorted(bits(tm | fm)):
            name = RUNNING.atoms.name(atom)
            lits.append(name if tm >> atom & 1 else "-" + name)
        out[frozenset(lits)] = value
    return out


def test_criterion_01_plain_answer_sets():
    """The plain core has exactly the four expected answer sets, fast."""
    start = time.perf_counter()
    plain = parse_program("a | b.\nc :- -d.\nd :- -c.\n")
    sets = {
        frozenset(plain.atoms.mask_to_names(m)) for m in answer_sets(plain)
    }
    assert sets == {
        frozenset(("a", "c")),
        frozenset(("a", "d")),
        frozenset(("b", "c")),
        frozenset(("b", "d")),
    }
    assert time.perf_counter() - start < 1.0


def test_criterion_02_running_count_and_world_views(capsys):
    """CLI count on the running instance is 3; wvs lists exactly the three."""
    assert cli_main(["count", RUNNING_PATH]) == 0
    assert capsys.readouterr().out == "3\n"
    assert cli_main(["wvs", RUNNING_PATH]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(["a -b -c d", "a -b c -d", "-a b c -d"])


def test_criterion_03_plausible_count_and_tables():
    """24 plausible WVIs; the worked decomposition reproduces both partial
    tables exactly."""
    assert count_plausible(RUNNING) == 24
    tables = plausible_tables(RUNNING, running_nice_td(RUNNING))
    assert _row_names(tables[6]) == {
        frozenset(): 4,
        frozenset(["c"]): 3,
        frozenset(["-c"]): 2,
    }
    assert _row_names(tables[10]) == {
        frozenset(): 3,
        frozenset(["c"]): 2,
        frozenset(["-c"]): 3,
    }


def test_criterion_04_query_count_and_probability():
    """Two world views contain a without b; probability exactly 2/3, via
    the table engine and the brute-force oracle alike."""
    query = wvi_from_names(RUNNING.atoms, ["a", "-b"])
    assert count_world_views(RUNNING, query=query) == 2
    assert count_world_views_bruteforce(RUNNING, query) == 2
    assert acceptance_probability(RUNNING, query) == Fraction(2, 3)
    assert probability_bruteforce(RUNNING, query) == Fraction(2, 3)


def test_criterion_05_nested_graph_and_bag_programs():
    """Abstraction {b,c,d}: exactly the edges b-c and c-d; the nested bag
    programs split the twelve rules exactly as worked out."""
    t = RUNNING.atoms
    mask = mask_of(t.id(x) for x in "bcd")
    graph = nested_primal_graph(RUNNING, mask)
    edges = {frozenset((t.name(u), t.name(v))) for u, v in graph.edges()}
    assert edges == {frozenset("bc"), frozenset("cd")}

    from wvcount.decomp import TreeDecomposition
    v = t.id

    td = TreeDecomposition(
        {1: {v("b"), v("c")}, 2: {v("c"), v("d")}, 3: {v("c")}},
        {1: (), 2: (), 3: (1, 2)},
        3,
    )
    asg = assign_compatible_sets(RUNNING, mask, td)
    _, nested1 = bag_programs(RUNNING, mask, asg, td, 1)
    _, nested2 = bag_programs(RUNNING, mask, asg, td, 2)
    _, nested3 = bag_programs(RUNNING, mask, asg, td, 3)
    indices = lambda rules: [RUNNING.rules.index(r) + 1 for r in rules]
    assert indices(nested1) == [1, 4, 5, 8, 9, 10, 11]
    assert indices(nested2) == [2, 3, 6, 7, 12]
    assert nested3 == []


def test_criterion_06_sharp_sat_reduction():
    """Fifty random 3-CNFs: the plausible-WVI count of the encoding equals
    the brute-force model count, within a minute overall."""
    start = time.perf_counter()
    rng = random.Random(606)
    for trial in range(50):
        num_vars = rng.randint(1, 12)
        num_clauses = rng.randint(0, 20)
        clauses = []
        for _ in range(num_clauses):
            vs = rng.sample(range(1, num_vars + 1), min(3, num_vars))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        prog = cnf_to_elp(num_vars, clauses)
        assert count_plausible(prog) == brute_cnf_models(num_vars, clauses)
    assert time.perf_counter() - start < 60.0


def test_criterion_07_oracle_equivalence():
    """200 random ELPs: nested counting and probability agree with the
    brute-force oracles under four threshold configurations, in budget."""
    start = time.perf_counter()
    rng = random.Random(707)
    for trial in range(200):
        atoms = rng.randint(2, 8)
        eatoms = rng.randint(1, min(5, atoms))
        prog = gen_random_elp(atoms, eatoms, rng.randint(1, 10), seed=trial)
        expected = count_world_views_bruteforce(prog)
        pool = sorted(bits(prog.ats_mask)) or [0]
        lits = rng.sample(pool, min(2, len(pool)))
        query = WVI(
            mask_of(lits), true=mask_of(l for l in lits if rng.random() < 0.5)
        )
        expected_q = count_world_views_bruteforce(prog, query)
        try:
            expected_p = probability_bruteforce(prog, query)
        except NoWorldViews:
            expected_p = None
        for thr in THRESHOLD_CONFIGS:
            assert count_world_views(prog, thresholds=thr) == expected
            assert count_world_views(prog, query=query, thresholds=thr) == expected_q
            try:
                got_p = acceptance_probability(prog, query, thresholds=thr)
            except NoWorldViews:
                got_p = None
            assert got_p == expected_p
    assert time.perf_counter() - start < 300.0


def test_criterion_08_tree_decomposition_suite():
    """Heuristic decompositions validate on 100 random graphs; nice form
    preserves width and validity; known widths come out exactly."""

    class Graph:
        def __init__(self, n, edges):
            self.adj = {v: set() for v in range(n)}
            for u, v in edges:
                self.adj[u].add(v)
                self.adj[v].add(u)

    rng = random.Random(808)
    for trial in range(100):
        n = rng.randint(1, 15)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        graph = Graph(n, edges)
        td = build_td(graph, rng.choice(("min-fill", "min-degree")), seed=trial)
        assert validate_td(graph, td)
        nice = make_nice(td)
        assert nice.width == td.width
        assert validate_td(graph, nice)

    chain = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert build_td(chain).width == 1
    star = Graph(5, [(0, i) for i in range(1, 5)])
    assert build_td(star).width == 1
    assert build_td(epistemic_primal_graph(RUNNING)).width == 2


def test_criterion_09_generator_laws():
    """Scholarship counts: always one world view in classic mode (oracle-
    checked up to six students), 2^u in many mode, and a 500-student
    instance solves by dynamic programming well within budget."""
    for n in range(1, 7):
        prog = gen_scholarship(n, "classic", seed=n)
        assert count_world_views_bruteforce(prog) == 1
        assert count_world_views(prog) == 1
    for u, (n, seed) in {1: (2, 0), 2: (3, 0), 3: (4, 3), 4: (4, 4)}.items():
        prog = gen_scholarship(n, "many", seed)
        assert undetermined_students(prog) == u
        assert count_world_views_bruteforce(prog) == 2 ** u
        assert count_world_views(prog) == 2 ** u
    start = time.perf_counter()
    big = gen_scholarship(500, "classic", seed=11)
    assert count_world_views(big) == 1
    assert time.perf_counter() - start < 120.0


def test_criterion_10_seeded_byte_reproducibility(tmp_path):
    """Every command with a fixed seed produces identical stdout bytes."""
    env = dict(os.environ, PYTHONHASHSEED="random")
    spec = tmp_path / "spec.json"
    spec.write_text(
        '{"instances": [{"family": "many", "n": 3, "seed": 0},'
        ' {"family": "random", "atoms": 6, "epistemic": 3, "rules": 8, "seed": 1}]}'
    )
    commands = (
        ["count", RUNNING_PATH, "--seed", "5", "--format", "structured"],
        ["prob", RUNNING_PATH, "--query", "a,-b", "--seed", "5"],
        ["wvs", RUNNING_PATH],
        ["oracle", RUNNING_PATH, "--query", "a,-b"],
        ["graph", RUNNING_PATH, "--kind", "nested", "--abstraction", "b,c,d"],
        ["td", RUNNING_PATH, "--graph", "epistemic", "--seed", "5"],
        ["gen", "many", "--n", "5", "--seed", "5"],
        ["harness", str(spec), "--seed", "5"],
    )
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "wvcount.cli"] + args,
                capture_output=True,
                env=env,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
