import random

import pytest

from wvcount.bench import gen_random_3cnf, gen_random_elp, gen_scholarship
from wvcount.decomp import TreeDecomposition, build_td, make_nice
from wvcount.errors import WvcountError
from wvcount.graphs import (
    CompatAssignment,
    _primal_components,
    anchor,
    assign_compatible_sets,
    bag_programs,
    epistemic_primal_graph,
    nested_primal_graph,
    primal_graph,
)
from wvcount.model import bits, mask_of
from wvcount.parser import parse_program
from wvcount.semantics import cnf_to_elp


def vertex_name(program, graph, v):
    """A vertex as ``(atom name, tag)``, read off its label."""
    return tuple(graph.label(program.atoms, v).split("^"))


def edge_names(program, graph):
    return {
        frozenset((vertex_name(program, graph, u), vertex_name(program, graph, v)))
        for u, v in graph.edges()
    }


def e_edges(program, graph):
    t = program.atoms
    return {frozenset((t.name(u), t.name(v))) for u, v in graph.edges()}


def a_vertex(atom):
    """The primal graph's vertex of ``atom``'s objective occurrences."""
    return 2 * atom


def e_vertex(atom):
    """The primal graph's vertex of ``atom``'s epistemic occurrences."""
    return 2 * atom + 1


def mask_by_names(program, names):
    return mask_of(program.atoms.id(n) for n in names)


def example_td(program):
    """The worked three-node decomposition of the nested primal graph for
    the abstraction {b, c, d}: bags {b,c}, {c,d} under a {c} root."""
    t = program.atoms
    v = t.id

    return TreeDecomposition(
        {1: {v("b"), v("c")}, 2: {v("c"), v("d")}, 3: {v("c")}},
        {1: (), 2: (), 3: (1, 2)},
        3,
    )


# ---------------------------------------------------------------------------
# primal graph


def test_primal_graph_running(running):
    g = primal_graph(running)
    assert len(g.vertices) == 8  # four atoms, objective and epistemic twins
    edges = edge_names(running, g)
    expected = {
        # objective co-occurrence
        (("a", "a"), ("b", "a")),
        (("c", "a"), ("d", "a")),
        # rules mixing objective and epistemic occurrences
        (("a", "a"), ("b", "e")),
        (("b", "a"), ("a", "e")),
        (("c", "a"), ("d", "e")),
        (("d", "a"), ("c", "e")),
        # purely-epistemic co-occurrence
        (("a", "e"), ("c", "e")),
        (("a", "e"), ("b", "e")),
        (("b", "e"), ("c", "e")),
        (("c", "e"), ("d", "e")),
        # objective/epistemic twins
        (("a", "a"), ("a", "e")),
        (("b", "a"), ("b", "e")),
        (("c", "a"), ("c", "e")),
        (("d", "a"), ("d", "e")),
    }
    assert edges == {frozenset(e) for e in expected}


def test_primal_graph_empty():
    assert primal_graph(parse_program("")).vertices == []


def test_primal_graph_adds_objective_twin():
    prog = parse_program("a :- -K b.")
    g = primal_graph(prog)
    assert {vertex_name(prog, g, v) for v in g.vertices} == {
        ("a", "a"), ("b", "e"), ("b", "a")
    }
    assert edge_names(prog, g) == {
        frozenset(((("a", "a")), ("b", "e"))),
        frozenset(((("b", "a")), ("b", "e"))),
    }


# ---------------------------------------------------------------------------
# epistemic primal graph


def test_epistemic_primal_running(running):
    g = epistemic_primal_graph(running)
    assert e_edges(running, g) == {
        frozenset("ab"), frozenset("ac"), frozenset("bc"), frozenset("cd")
    }


def test_epistemic_primal_no_pure_rules():
    prog = parse_program("a :- -K b.\nb.")
    g = epistemic_primal_graph(prog)
    assert len(g.vertices) == 1 and not g.edges()


def test_epistemic_primal_of_cnf_clause():
    from wvcount.semantics import cnf_to_elp

    prog = cnf_to_elp(3, [[1, 2, 3]])
    g = epistemic_primal_graph(prog)
    assert e_edges(prog, g) == {
        frozenset(("x1", "x2")), frozenset(("x1", "x3")), frozenset(("x2", "x3"))
    }


# ---------------------------------------------------------------------------
# nested primal graph


def test_nested_primal_bcd(running):
    mask = mask_by_names(running, ["b", "c", "d"])
    g = nested_primal_graph(running, mask)
    assert e_edges(running, g) == {frozenset("bc"), frozenset("cd")}


def test_nested_primal_empty_abstraction(running):
    g = nested_primal_graph(running, 0)
    assert g.vertices == [] and not g.edges()


def test_nested_primal_full_abstraction(running):
    mask = running.eats_mask
    g = nested_primal_graph(running, mask)
    epi = e_edges(running, epistemic_primal_graph(running))
    assert epi <= e_edges(running, g)
    # paths through objective vertices also connect a-b and c-d
    assert frozenset("ab") in e_edges(running, g)
    assert frozenset("cd") in e_edges(running, g)


def test_nested_supergraph_of_epistemic_on_random_programs():
    for seed in range(25):
        prog = gen_random_elp(6, 3, 8, seed)
        mask = prog.eats_mask
        nested = e_edges(prog, nested_primal_graph(prog, mask))
        epi = e_edges(prog, epistemic_primal_graph(prog))
        assert epi <= nested


def test_dropping_an_atom_eliminates_its_vertex():
    # nested(M - x) is nested(M) with (x, e) eliminated: a path through x
    # splits at its first and last visit to x.
    programs = [gen_random_elp(9, 5, 12, seed) for seed in range(8)]
    programs += [cnf_to_elp(6, gen_random_3cnf(6, 9, seed)) for seed in range(3)]
    checked = 0
    for prog in programs:
        eats = sorted(bits(prog.eats_mask))
        for pick in range(1 << len(eats)):
            mask = mask_of(a for i, a in enumerate(eats) if pick >> i & 1)
            for x in bits(mask):
                g = nested_primal_graph(prog, mask)
                g.eliminate(x)
                assert g.adj == nested_primal_graph(prog, mask & ~(1 << x)).adj
                checked += 1
    assert checked > 1000


def test_nested_rejects_non_epistemic_abstraction(running):
    with pytest.raises(WvcountError):
        nested_primal_graph(running, 1 << 30 | 1)


def test_graphs_simple_and_symmetric(running):
    for g in (
        primal_graph(running),
        epistemic_primal_graph(running),
        nested_primal_graph(running, running.eats_mask),
    ):
        for u, nbrs in g.adj.items():
            assert u not in nbrs
            for v in nbrs:
                assert u in g.adj[v]


# ---------------------------------------------------------------------------
# compatible sets and bag programs


def test_compat_assignment_example(running):
    t = running.atoms
    mask = mask_by_names(running, ["b", "c", "d"])
    td = example_td(running)
    asg = assign_compatible_sets(running, mask, td)
    comps = [tuple(t.name(a) for a in c[0]) for c in _primal_components(running, mask)]
    assert comps == [("a", "b"), ("c", "d")]
    assert asg.nested_bag_atoms == {
        1: mask_by_names(running, ["a", "b"]),
        2: mask_by_names(running, ["c", "d"]),
    }


def test_compat_full_abstraction_components(running):
    mask = running.eats_mask
    td = TreeDecomposition({0: set(bits(mask))}, {0: ()}, 0)
    asg = assign_compatible_sets(running, mask, td)
    t = running.atoms
    comps = [tuple(t.name(a) for a in c[0]) for c in _primal_components(running, mask)]
    assert comps == [("a", "b"), ("c", "d")]
    assert asg.nested_bag_atoms == {0: running.ats_mask}


def test_compat_plain_connected_program_single_component():
    prog = parse_program("a | b.\nc :- b.\n")
    td = TreeDecomposition({0: set()}, {0: ()}, 0)
    asg = assign_compatible_sets(prog, 0, td)
    assert [c[0] for c in _primal_components(prog, 0)] == [tuple(range(3))]
    assert asg.nested_bag_atoms == {0: 0b111}


def test_compat_plain_disconnected_parts(plain_core):
    td = TreeDecomposition({0: set()}, {0: ()}, 0)
    asg = assign_compatible_sets(plain_core, 0, td)
    assert [len(c[0]) for c in _primal_components(plain_core, 0)] == [2, 2]
    assert asg.nested_bag_atoms == {0: plain_core.ats_mask}


def test_bag_programs_example(running):
    mask = mask_by_names(running, ["b", "c", "d"])
    td = example_td(running)
    asg = assign_compatible_sets(running, mask, td)

    def indices(rules):
        return [running.rules.index(r) + 1 for r in rules]

    pe1, nested1 = bag_programs(running, mask, asg, td, 1)
    pe2, nested2 = bag_programs(running, mask, asg, td, 2)
    pe3, nested3 = bag_programs(running, mask, asg, td, 3)
    assert indices(nested1) == [1, 4, 5, 8, 9, 10, 11]
    assert indices(nested2) == [2, 3, 6, 7, 12]
    assert nested3 == []
    assert indices(pe1) == [9]
    assert indices(pe2) == [12]
    assert pe3 == []


def test_bag_programs_epistemic_td(running):
    # bags {a,b,c} and {c,d} of the epistemic primal graph carry the
    # purely-epistemic rules r8..r11 and r12 respectively
    t = running.atoms
    v = t.id

    td = TreeDecomposition(
        {1: {v("a"), v("b"), v("c")}, 2: {v("c"), v("d")}, 3: set()},
        {1: (), 2: (), 3: (1, 2)},
        3,
    )
    mask = running.eats_mask
    asg = assign_compatible_sets(running, mask, td)
    pe1, _ = bag_programs(running, mask, asg, td, 1)
    pe2, _ = bag_programs(running, mask, asg, td, 2)
    pe3, _ = bag_programs(running, mask, asg, td, 3)
    assert [running.rules.index(r) + 1 for r in pe1] == [8, 9, 10, 11]
    assert [running.rules.index(r) + 1 for r in pe2] == [12]
    assert pe3 == []


def test_unique_owner_for_objective_rules():
    for seed in range(25):
        prog = gen_random_elp(7, 3, 9, seed)
        half = mask_of(list(bits(prog.eats_mask))[::2])
        for mask in (prog.eats_mask, half):
            nice = make_nice(build_td(nested_primal_graph(prog, mask)))
            asg = assign_compatible_sets(prog, mask, nice)
            membership = []
            for t in nice.postorder():
                _, nested = bag_programs(prog, mask, asg, nice, t)
                membership.append({id(r) for r in nested if r.aats_mask})
                # a node verifies the rules of its nested bag program that
                # have an anchor, each once
                delegated = [id(r) for r in asg.delegated.get(t, [])]
                assert len(delegated) == len(set(delegated))
                assert set(delegated) == {id(r) for r in nested if anchor(r, mask)}
            for r in prog.rules:
                if r.aats_mask:
                    assert sum(1 for s in membership if id(r) in s) == 1
            # atoms outside the abstraction land in exactly one component
            covered = 0
            for comp, _nbrs, _rules in _primal_components(prog, mask):
                comp_mask = mask_of(comp)
                assert covered & comp_mask == 0
                covered |= comp_mask
            assert covered & ~mask == prog.ats_mask & ~mask


def test_compat_owner_is_introduce_node_on_nice_tds(running):
    mask = running.eats_mask
    nice = make_nice(build_td(nested_primal_graph(running, mask)))
    asg = assign_compatible_sets(running, mask, nice)
    assert asg.nested_bag_atoms
    for owner in asg.nested_bag_atoms:
        assert nice.kind[owner] == "intr"


# ---------------------------------------------------------------------------
# Reference walks over the tagged primal graph


def walk_components(program, a_mask):
    """Reference: the connected components of the primal graph after
    removing the abstraction e-vertices, projected to atoms, each with the
    removed vertices adjacent to it and the rules with a vertex in it,
    found by a graph walk."""
    primal = primal_graph(program)
    removed = {e_vertex(a) for a in bits(a_mask)}
    seen = set()
    comps = []
    for v in primal.vertices:
        if v in removed or v in seen:
            continue
        comp = set()
        nbrs = set()
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.add(u)
            for w in primal.adj[u]:
                if w in removed:
                    nbrs.add(w >> 1)
                elif w not in seen:
                    seen.add(w)
                    stack.append(w)
        atoms = tuple(sorted({u >> 1 for u in comp}))
        rules = [r for r in program.rules if rule_vertices(r) & comp]
        comps.append((atoms, tuple(sorted(nbrs)), rules))
    comps.sort()
    return comps


def rule_vertices(rule):
    vertices = {a_vertex(a) for a in bits(rule.aats_mask)}
    return vertices | {e_vertex(a) for a in bits(rule.eats_mask)}


def walk_nested_adj(program, a_mask):
    """Reference: the nested primal graph's adjacency, found by a
    breadth-first walk from each abstraction vertex that stops at the
    abstraction vertices it reaches, with the vertices mapped to atoms."""
    primal = primal_graph(program)
    targets = {e_vertex(a) for a in bits(a_mask)}
    adj = {v: set() for v in targets}
    for start in sorted(targets):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in primal.adj[u]:
                    if w in seen:
                        continue
                    seen.add(w)
                    if w in targets:
                        adj[start].add(w)
                        adj[w].add(start)
                    else:
                        nxt.append(w)
            frontier = nxt
    return {u >> 1: {w >> 1 for w in ws} for u, ws in adj.items()}


def assert_split_matches_walks(program, a_mask):
    assert _primal_components(program, a_mask) == walk_components(program, a_mask)
    assert nested_primal_graph(program, a_mask).adj == walk_nested_adj(program, a_mask)


def test_rule_split_matches_the_primal_graph_walks(running):
    rng = random.Random(11)
    programs = [
        gen_random_elp(n, n // 2, n + 4, seed) for n in (5, 8, 12, 16) for seed in range(8)
    ]
    programs += [gen_scholarship(n, mode, 2) for n in (3, 12) for mode in ("classic", "many")]
    programs += [cnf_to_elp(8, gen_random_3cnf(8, 10, seed)) for seed in range(4)]
    programs.append(running)
    checked = 0
    for prog in programs:
        eats = prog.eats_mask
        masks = [eats, 0] + [
            mask_of(a for a in bits(eats) if rng.random() < p) for p in (0.25, 0.5, 0.75)
        ]
        for mask in masks:
            assert_split_matches_walks(prog, mask)
            checked += 1
    assert checked == 5 * len(programs)


def test_rule_split_hand_cases():
    # b occurs only epistemically: left in the abstraction it is a
    # component of its own whose one neighbor is b itself.
    prog = parse_program("a :- not b.\nc :- a.\n")
    b = prog.atoms.id("b")
    assert ((b,), (b,), []) in _primal_components(prog, 1 << b)
    assert_split_matches_walks(prog, 1 << b)
    assert_split_matches_walks(prog, 0)
    # The constraint's atoms all lie in the abstraction, so it belongs to
    # no component, yet it joins b and c in the nested graph.
    prog = parse_program("a :- K b.\nd :- K c.\n:- K b, not c.\n")
    b, c = prog.atoms.id("b"), prog.atoms.id("c")
    mask = (1 << b) | (1 << c)
    assert nested_primal_graph(prog, mask).adj == {b: {c}, c: {b}}
    for m in (mask, 1 << b, 1 << c, 0):
        assert_split_matches_walks(prog, m)


def linear_scan_assignment(program, a_mask, td):
    """Reference: test every eligible node in post-order, per component."""
    intr_only = getattr(td, "kind", None) is not None
    order = [
        (t, mask_of(td.bags[t]))
        for t in td.postorder()
        if not intr_only or td.kind[t] == "intr"
    ]
    asg = CompatAssignment({}, {})
    for atoms, nbrs, rules in walk_components(program, a_mask):
        need = mask_of(nbrs)
        homes = [t for t, bag_mask in order if need & ~bag_mask == 0]
        if not homes:
            raise WvcountError("no eligible node")
        asg.nested_bag_atoms[homes[0]] = asg.nested_bag_atoms.get(
            homes[0], 0
        ) | mask_of(atoms)
        asg.delegated.setdefault(homes[0], []).extend(rules)
    return asg


def assignment_or_error(assign, program, a_mask, td):
    try:
        return assign(program, a_mask, td)
    except WvcountError:
        return "no eligible node"


def test_compat_assignment_matches_linear_scan():
    rng = random.Random(4)
    programs = [gen_random_elp(n, n // 2, n + 4, seed) for n in (8, 14) for seed in range(6)]
    programs += [gen_scholarship(12, mode, 1) for mode in ("classic", "many")]
    programs += [cnf_to_elp(8, gen_random_3cnf(8, 10, seed)) for seed in range(3)]
    checked = 0
    for prog in programs:
        eats = prog.eats_mask
        random_mask = mask_of(a for a in bits(eats) if rng.random() < 0.5)
        for mask in (eats, 0, random_mask):
            for heuristic in ("min-fill", "min-degree"):
                plain = build_td(nested_primal_graph(prog, mask), heuristic, 1)
                for td in (plain, make_nice(plain)):
                    got = assignment_or_error(assign_compatible_sets, prog, mask, td)
                    want = assignment_or_error(linear_scan_assignment, prog, mask, td)
                    assert got == want
                    checked += isinstance(got, CompatAssignment)
    assert checked > 100


def test_compat_skips_nodes_that_cover_one_neighbor(running):
    # Component (a, b) has neighbors b and c.  Nodes 1 to 4 each hold one
    # of them; node 5 is the first in post-order to cover both.
    t = running.atoms
    v = t.id

    td = TreeDecomposition(
        {1: {v("c"), v("d")}, 2: {v("b")}, 3: {v("b")}, 4: {v("b")}, 5: {v("b"), v("c")}},
        {1: (), 2: (1,), 3: (2,), 4: (3,), 5: (4,)},
        5,
    )
    mask = mask_by_names(running, ["b", "c", "d"])
    asg = assign_compatible_sets(running, mask, td)
    assert _primal_components(running, mask)[0][1] == (t.id("b"), t.id("c"))
    assert asg.nested_bag_atoms == {
        5: mask_by_names(running, ["a", "b"]),
        1: mask_by_names(running, ["c", "d"]),
    }
    assert asg == linear_scan_assignment(running, mask, td)


def test_dot_export(running):
    dot = epistemic_primal_graph(running).to_dot(running.atoms, name="epi")
    assert dot.startswith("graph epi {")
    assert '"a^e" -- "b^e";' in dot
    dot2 = primal_graph(running).to_dot(running.atoms)
    assert '"a^a" [label="a^a", shape=circle, style=filled];' in dot2
