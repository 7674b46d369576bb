import random

from wvcount.bench import gen_random_3cnf, gen_random_elp
from wvcount.decomp import (
    TreeDecomposition,
    build_td,
    fill_count,
    make_nice,
    td_stats,
    validate_td,
)
from wvcount.graphs import Graph, epistemic_primal_graph, nested_primal_graph, primal_graph
from wvcount.model import bits
from wvcount.semantics import cnf_to_elp


class _Graph:
    """Plain adjacency wrapper for decomposition tests."""

    def __init__(self, edges, vertices=()):
        self.adj = {}
        for v in vertices:
            self.adj.setdefault(v, set())
        for u, v in edges:
            self.adj.setdefault(u, set()).add(v)
            self.adj.setdefault(v, set()).add(u)


def random_graph(seed, max_vertices=15):
    rng = random.Random(seed)
    n = rng.randint(1, max_vertices)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.append((u, v))
    return _Graph(edges, vertices=range(n))


def test_tree_graph_width_one():
    g = _Graph([(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)])
    td = build_td(g)
    assert validate_td(g, td)
    assert td.width == 1


def test_single_vertex_width_zero():
    g = _Graph([], vertices=[7])
    td = build_td(g)
    assert td.width == 0
    assert validate_td(g, td)


def test_empty_graph():
    g = _Graph([])
    td = build_td(g)
    assert td.width == -1
    assert td.node_count == 1


def test_epistemic_graph_width_two(running):
    g = epistemic_primal_graph(running)
    td = build_td(g)
    assert validate_td(g, td)
    assert td.width == 2  # the a-b-c triangle forces it


def test_build_validates_on_random_graphs():
    for seed in range(100):
        g = random_graph(seed)
        for heuristic in ("min-fill", "min-degree"):
            td = build_td(g, heuristic, seed)
            assert validate_td(g, td)


def test_elimination_bags_are_closed_neighborhoods():
    for seed in range(30):
        g = random_graph(seed)
        td = build_td(g, "min-fill", seed)
        n = len(g.adj)
        assert all(len(b) <= n for b in td.bags.values())


def test_build_deterministic_per_seed():
    g = random_graph(3)
    a = build_td(g, "min-fill", 42)
    b = build_td(g, "min-fill", 42)
    assert a.bags == b.bags and a.children == b.children
    c = build_td(g, "min-fill", 43)
    assert isinstance(c, TreeDecomposition)


def pairwise_fill_count(adj, v):
    nbrs = sorted(adj[v])
    return sum(1 for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in adj[a])


def pairwise_elimination_bags(graph, heuristic, seed):
    """The bags ``build_td`` eliminates, in order, found by rescoring every
    vertex at every step, min-fill with ``pairwise_fill_count``."""
    adj = {v: set(ns) for v, ns in graph.adj.items()}
    rng = random.Random(seed)
    salt = {v: rng.random() for v in sorted(adj)}

    def key(v):
        score = len(adj[v]) if heuristic == "min-degree" else pairwise_fill_count(adj, v)
        return score, salt[v], v

    bags = []
    while adj:
        v = min(adj, key=key)
        nbrs = adj.pop(v)
        bags.append(frozenset(nbrs | {v}))
        for u in nbrs:
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
    return bags


def test_fill_count_equals_the_pairwise_count():
    graphs = [random_graph(seed, 25) for seed in range(60)]
    programs = [cnf_to_elp(40, gen_random_3cnf(40, 60, 0))]
    programs += [gen_random_elp(20, 10, 30, seed) for seed in range(6)]
    for prog in programs:
        graphs += [primal_graph(prog), nested_primal_graph(prog, prog.eats_mask)]
    checked = 0
    for i, g in enumerate(graphs):
        assert all(fill_count(g.adj, v) == pairwise_fill_count(g.adj, v) for v in g.adj)
        checked += len(g.adj)
        if isinstance(g, Graph):
            # Eliminations add fill edges; the counts must follow them.
            order = sorted(g.adj)
            random.Random(i).shuffle(order)
            for v in order[: len(order) // 2]:
                g.eliminate(v)
                assert all(fill_count(g.adj, u) == pairwise_fill_count(g.adj, u) for u in g.adj)
                checked += len(g.adj)
    assert checked > 5_000


def test_build_td_matches_a_pairwise_scored_elimination():
    prog = cnf_to_elp(40, gen_random_3cnf(40, 60, 0))
    graphs = [epistemic_primal_graph(prog)]
    for seed in range(4):
        prog = gen_random_elp(20, 10, 30, seed)
        half = sum(1 << a for a in list(bits(prog.eats_mask))[::2])
        graphs += [primal_graph(prog), nested_primal_graph(prog, half)]
    for g in graphs:
        for heuristic in ("min-fill", "min-degree"):
            for seed in range(3):
                td = build_td(g, heuristic, seed)
                bags = pairwise_elimination_bags(g, heuristic, seed)
                assert [td.bags[i] for i in range(len(bags))] == bags
                assert td.width == max(len(b) for b in bags) - 1


def test_validate_rejects_missing_edge_bag():
    g = _Graph([(0, 1)])
    bad = TreeDecomposition({0: {0}, 1: {1}}, {1: (0,)}, 1)
    assert not validate_td(g, bad)


def test_validate_rejects_disconnected_occurrence():
    g = _Graph([(0, 1), (1, 2)])
    bad = TreeDecomposition(
        {0: {0, 1}, 1: {1, 2}, 2: {0}}, {1: (0,), 2: (1,)}, 2
    )
    # vertex 0 occurs in nodes 0 and 2 but not on the path between them
    assert not validate_td(g, bad)


def test_validate_worked_epistemic_td(running):
    t = running.atoms
    v = t.id

    td = TreeDecomposition(
        {1: {v("a"), v("b"), v("c")}, 2: {v("c"), v("d")}, 3: {v("c")}},
        {1: (), 2: (), 3: (1, 2)},
        3,
    )
    assert validate_td(epistemic_primal_graph(running), td)


def test_make_nice_single_bag():
    td = TreeDecomposition({0: {"a"}}, {0: ()}, 0)
    nice = make_nice(td)
    assert nice.width == 0
    kinds = [nice.kind[t] for t in nice.postorder()]
    assert kinds == ["leaf", "intr", "rem"]
    assert nice.bags[nice.root] == frozenset()


def test_make_nice_preserves_width_and_validity():
    for seed in range(100):
        g = random_graph(seed, max_vertices=12)
        td = build_td(g, "min-fill", seed)
        nice = make_nice(td)
        assert nice.width == td.width
        assert validate_td(g, nice)
        assert nice.bags[nice.root] == frozenset()
        for t in nice.postorder():
            kind = nice.kind[t]
            kids = nice.children[t]
            if kind == "leaf":
                assert not kids and nice.bags[t] == frozenset()
            elif kind == "join":
                assert len(kids) == 2
                assert nice.bags[kids[0]] == nice.bags[t] == nice.bags[kids[1]]
            elif kind == "intr":
                (child,) = kids
                assert nice.bags[t] == nice.bags[child] | {nice.action[t]}
                assert len(nice.bags[t]) == len(nice.bags[child]) + 1
            else:
                (child,) = kids
                assert nice.bags[child] == nice.bags[t] | {nice.action[t]}
                assert len(nice.bags[child]) == len(nice.bags[t]) + 1


def test_make_nice_structurally_comparable_to_worked_example(running):
    # the nice form of the two-bag decomposition has twelve nodes:
    # 2 leaves, 5 introduces, 4 removes, 1 join
    t = running.atoms
    v = t.id

    td = TreeDecomposition(
        {1: {v("a"), v("b"), v("c")}, 2: {v("c"), v("d")}, 3: {v("c")}},
        {1: (), 2: (), 3: (1, 2)},
        3,
    )
    nice = make_nice(td)
    counts = nice.kind_counts()
    assert counts == {"leaf": 2, "intr": 5, "rem": 4, "join": 1}
    assert nice.node_count == 12
    assert nice.width == td.width == 2


def test_deep_chain_does_not_recurse():
    g = _Graph([(i, i + 1) for i in range(3000)])
    td = build_td(g, "min-degree", 0)
    assert td.width == 1
    nice = make_nice(td)
    assert nice.width == 1


def test_stats_rendering(running):
    nice = make_nice(build_td(epistemic_primal_graph(running)))
    text = td_stats(nice)
    assert text.startswith("width: 2\n")
    assert "nice nodes:" in text


def test_tagged_graph_helper(running):
    g = Graph(tagged=True)
    g.add_edge(0, 3)  # atom 0's a-vertex, atom 1's e-vertex
    g.add_edge(0, 0)  # self loops are ignored
    assert g.edge_count() == 1
