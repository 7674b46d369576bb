import random

from conftest import renamed_rules, with_renamed_copy
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
from wvcount.model import AtomTable, Program, bits
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


def pairwise_elimination(graph, heuristic, seed):
    """The vertices ``build_td`` eliminates and their bags, in order, found
    by rescoring every vertex at every step, min-fill with
    ``pairwise_fill_count``."""
    adj = {v: set(ns) for v, ns in graph.adj.items()}
    rng = random.Random(seed)
    salt = {v: rng.random() for v in sorted(adj)}

    def key(v):
        score = len(adj[v]) if heuristic == "min-degree" else pairwise_fill_count(adj, v)
        return score, salt[v], v

    eliminated, bags = [], []
    while adj:
        v = min(adj, key=key)
        nbrs = adj.pop(v)
        eliminated.append(v)
        bags.append(frozenset(nbrs | {v}))
        for u in nbrs:
            adj[u] |= nbrs - {u}
            adj[u].discard(v)
    return eliminated, bags


def parent_rule_tree(eliminated, bags):
    """Children and root by the parent rule: bag ``i`` hangs below the bag
    of its earliest later-eliminated member, else below bag ``i + 1``."""
    position = {v: i for i, v in enumerate(eliminated)}
    children = {i: [] for i in range(len(bags))}
    for i, bag in enumerate(bags[:-1]):
        later = [position[u] for u in bag if position[u] > i]
        children[min(later) if later else i + 1].append(i)
    return {i: tuple(kids) for i, kids in children.items()}, len(bags) - 1


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


def spaced(program, rng):
    """``program`` renamed onto atom ids past 6,000, each a random gap of 1
    to 40 after the previous one."""
    new, top = [], 6000
    for _ in program.atoms.names:
        top += rng.randint(1, 40)
        new.append(top)
    names = ["pad%d" % i for i in range(top + 1)]
    for a, b in enumerate(new):
        names[b] = program.atoms.names[a]
    return Program(AtomTable(names), renamed_rules(program.rules, new))


def scattered_union(graphs, rng):
    """The disjoint union of ``graphs``, each moved past the last by a
    random gap, with isolated vertices in the gaps."""
    union, top = _Graph([]), 0
    for g in graphs:
        top += rng.randint(1, 5)
        union.adj.update({top + i: set() for i in range(rng.randint(0, 2))})
        top += 3
        union.adj.update({top + v: {top + u for u in ns} for v, ns in g.adj.items()})
        top += max(g.adj, default=0) + 1
    return union


def component_count(graph):
    seen, count = set(), 0
    for v in graph.adj:
        if v not in seen:
            count += 1
            seen.add(v)
            stack = [v]
            while stack:
                for w in graph.adj[stack.pop()] - seen:
                    seen.add(w)
                    stack.append(w)
    return count


def test_build_td_matches_a_pairwise_scored_elimination():
    # The bags, children and root of one elimination over the whole graph,
    # on graphs of one component and of many: isolated vertices, unions of
    # renamed copies, and primal graphs whose vertices sit past 12,000 with
    # gaps between their components.
    prog = cnf_to_elp(40, gen_random_3cnf(40, 60, 0))
    graphs = [epistemic_primal_graph(prog)]
    for seed in range(4):
        rng = random.Random(seed)
        prog = gen_random_elp(20, 10, 30, seed)
        half = sum(1 << a for a in list(bits(prog.eats_mask))[::2])
        graphs += [primal_graph(prog), nested_primal_graph(prog, half)]
        union = with_renamed_copy(gen_random_elp(8, 4, 10, seed), rng)
        graphs += [primal_graph(union), epistemic_primal_graph(union)]
        far = spaced(with_renamed_copy(gen_random_elp(7, 3, 9, seed), rng), rng)
        graphs += [primal_graph(far), nested_primal_graph(far, far.eats_mask)]
        graphs.append(scattered_union([random_graph(seed * 5 + i, 8) for i in range(5)], rng))
    split = 0
    for g in graphs:
        split += component_count(g) > 1
        for heuristic in ("min-fill", "min-degree"):
            for seed in range(3):
                td = build_td(g, heuristic, seed)
                eliminated, bags = pairwise_elimination(g, heuristic, seed)
                assert [td.bags[i] for i in range(len(bags))] == bags
                assert (td.children, td.root) == parent_rule_tree(eliminated, bags)
                assert td.width == max(len(b) for b in bags) - 1
    assert split >= 16


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


def scanning_validate_td(graph, td):
    """The former ``validate_td``, kept as the reference: each edge scans
    every bag, and each vertex collects its nodes from every bag."""
    vertices = set(graph.adj)
    covered = set()
    for b in td.bags.values():
        covered |= b
    if vertices - covered:
        return False
    for u in graph.adj:
        for v in graph.adj[u]:
            if not any(u in b and v in b for b in td.bags.values()):
                return False
    for v in vertices:
        nodes = {t for t, b in td.bags.items() if v in b}
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            t = stack.pop()
            around = list(td.children[t])
            if t in td.parent:
                around.append(td.parent[t])
            for u in around:
                if u in nodes and u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != nodes:
            return False
    return True


def with_bags(td, bags):
    return TreeDecomposition(bags, td.children, td.root)


def without_node(td, t):
    """``td`` with node ``t`` removed and its children moved to its parent
    (for the root, below its first child, which becomes the root)."""
    children = {s: list(kids) for s, kids in td.children.items() if s != t}
    kids, root = list(td.children[t]), td.root
    if t == root:
        root, kids = kids[0], kids[1:]
        children[root] += kids
    else:
        parent = td.parent[t]
        children[parent] = [c for c in children[parent] if c != t] + kids
    return TreeDecomposition({s: b for s, b in td.bags.items() if s != t}, children, root)


def broken_decompositions(graph, td, rng):
    """``td`` mutated three ways, where the graph allows: a vertex dropped
    from a bag; the only bag covering an edge dropped from the tree; a
    vertex added to a bag that no node holding it touches."""
    nodes = sorted(t for t, b in td.bags.items() if b)
    if not nodes:
        return
    t = rng.choice(nodes)
    yield with_bags(td, {**td.bags, t: td.bags[t] - {rng.choice(sorted(td.bags[t]))}})
    edges = [(u, v) for u in sorted(graph.adj) for v in sorted(graph.adj[u]) if u < v]
    rng.shuffle(edges)
    for u, v in edges:
        covering = [t for t, b in td.bags.items() if u in b and v in b]
        if len(covering) == 1 and (covering[0] != td.root or td.children[td.root]):
            yield without_node(td, covering[0])
            break
    for v in rng.sample(sorted(graph.adj), len(graph.adj)):
        holding = {t for t, b in td.bags.items() if v in b}
        touching = holding | {td.parent[t] for t in holding if t in td.parent}
        touching.update(c for t in holding for c in td.children[t])
        far = sorted(set(td.bags) - touching)
        if far:
            t = rng.choice(far)
            yield with_bags(td, {**td.bags, t: td.bags[t] | {v}})
            break


def test_validate_matches_the_scanning_reference():
    rng = random.Random(0)
    verdicts = {True: 0, False: 0}
    for seed in range(120):
        g = random_graph(seed, 12)
        for td in (build_td(g, "min-fill", seed), make_nice(build_td(g, "min-degree", seed))):
            for candidate in [td, *broken_decompositions(g, td, rng)]:
                verdict = validate_td(g, candidate)
                assert verdict == scanning_validate_td(g, candidate)
                verdicts[verdict] += 1
    assert verdicts[True] >= 240 and verdicts[False] >= 400


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
