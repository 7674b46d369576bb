"""Tree decompositions: heuristic construction, validation, nice normal form.

Decompositions are built by bucket elimination along a min-fill or
min-degree ordering with a seed-salted tie break, then normalized to
nice form (leaf/introduce/remove/join nodes, empty leaf and root bags)
for the table algorithms.  Elimination works on int bitsets local to
each connected component: min-fill counts fill edges by popcounts of
adjacency masks, and eliminating a vertex ORs its neighbor mask into
each neighbor's.  ``fill_count`` is the same count over neighbor sets,
for callers that keep a set-based graph.  The engine's graphs have int
vertices (``graphs``), so bags are sets of ints, ties break in int order
and nothing here depends on the hash seed.  All traversals are
iterative; elimination chains can get deep on large instances.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Iterable


class TreeDecomposition:
    """Rooted tree of bags over orderable hashable vertices."""

    def __init__(self, bags: Dict[int, Iterable], children: Dict[int, Iterable[int]], root: int):
        self.bags = {t: frozenset(b) for t, b in bags.items()}
        self.children = {t: tuple(children.get(t, ())) for t in self.bags}
        self.root = root
        self.parent: Dict[int, int] = {}
        for t, kids in self.children.items():
            for c in kids:
                self.parent[c] = t

    def postorder(self):
        order = []
        stack = [self.root]
        while stack:
            t = stack.pop()
            order.append(t)
            stack.extend(self.children[t])
        order.reverse()
        return order

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1

    @property
    def node_count(self) -> int:
        return len(self.bags)

    def to_dot(self, name="td", vertex_label=str) -> str:
        lines = ["graph %s {" % name]
        for t in sorted(self.bags):
            label = "{%s}" % ", ".join(sorted(vertex_label(v) for v in self.bags[t]))
            lines.append('  n%d [shape=box, label="%s"];' % (t, label))
        for t in sorted(self.bags):
            for c in self.children[t]:
                lines.append("  n%d -- n%d;" % (t, c))
        lines.append("}")
        return "\n".join(lines) + "\n"


class NiceTD(TreeDecomposition):
    """Nice tree decomposition: every node is a leaf, introduce, remove or
    join node; leaf and root bags are empty."""

    def __init__(self, bags, children, root, kind, action):
        super().__init__(bags, children, root)
        self.kind = dict(kind)  # node -> leaf | intr | rem | join
        self.action = dict(action)  # node -> introduced/removed vertex

    def kind_counts(self):
        out = {"leaf": 0, "intr": 0, "rem": 0, "join": 0}
        for k in self.kind.values():
            out[k] += 1
        return out


def fill_count(adj, v):
    """Number of edges that eliminating ``v`` adds between its neighbors:
    the ``k(k-1)/2`` pairs of its ``k`` neighbors less the edges among
    them, each counted once from either end.  The graph has no loops, so
    no neighbor is counted in its own set."""
    nbrs = adj[v]
    k = len(nbrs)
    return (k * (k - 1) - sum(len(nbrs & adj[u]) for u in nbrs)) // 2


def _mask_fill(adj, i):
    """``fill_count`` over component masks: ``adj`` maps bits to neighbor
    masks, and ``i`` is the vertex's bit."""
    nbrs = adj[i]
    k = nbrs.bit_count()
    inside = 0
    m = nbrs
    while m:
        low = m & -m
        inside += (adj[low.bit_length() - 1] & nbrs).bit_count()
        m ^= low
    return (k * (k - 1) - inside) // 2


def _mask_degree(adj, i):
    return adj[i].bit_count()


HEURISTICS = ("min-fill", "min-degree")  # the elimination orderings ``build_td`` knows


def check_heuristic(heuristic: str) -> None:
    """Raise ``ValueError`` for a heuristic outside ``HEURISTICS``."""
    if heuristic not in HEURISTICS:
        raise ValueError("unknown heuristic %r" % heuristic)


def build_td(graph, heuristic: str = "min-fill", seed: int = 0) -> TreeDecomposition:
    """Tree decomposition via bucket elimination along a heuristic ordering.

    ``graph`` is anything with an ``adj`` mapping (vertex -> neighbor set).
    Ties are broken by a seeded salt, then by vertex order, so the result
    is a pure function of (graph, heuristic, seed).

    Elimination runs on int bitsets local to each connected component: a
    component's vertices get bits 0, 1, ... in ascending order, and each
    vertex keeps one adjacency mask over its component's bits.  Fill edges
    never join two components, so a mask grows at most to the width of its
    own component, however large the graph.  The min-fill score of ``v``
    with neighbor mask ``N`` of popcount ``k`` is
    ``(k(k-1) - sum over u in N of popcount(adj[u] & N)) / 2``, and
    eliminating ``v`` ORs ``N`` into each neighbor's mask.  One heap over
    all components pops ``(score, salt, rank)``, ``rank`` being a vertex's
    place in sorted order, so the order does not depend on the split.
    """
    check_heuristic(heuristic)
    vertices = sorted(graph.adj)
    n = len(vertices)
    if not n:
        return TreeDecomposition({0: frozenset()}, {0: ()}, 0)
    rng = random.Random(seed)
    salt = [rng.random() for _ in vertices]
    rank = {v: r for r, v in enumerate(vertices)}
    # Per rank: its component's list of adjacency masks and its list of
    # member ranks (both indexed by bit, and shared by the component's
    # vertices), and its own bit.
    masks = [None] * n
    members = [None] * n
    bit = [0] * n
    for r in range(n):
        if members[r] is not None:
            continue
        comp = [r]
        members[r] = comp
        for x in comp:  # grows while it is walked
            for u in graph.adj[vertices[x]]:
                y = rank[u]
                if members[y] is None:
                    members[y] = comp
                    comp.append(y)
        comp.sort()
        for i, x in enumerate(comp):
            bit[x] = i
        adj = [0] * len(comp)
        for i, x in enumerate(comp):
            m = 0
            for u in graph.adj[vertices[x]]:
                m |= 1 << bit[rank[u]]
            adj[i] = m
            masks[x] = adj

    score = _mask_fill if heuristic == "min-fill" else _mask_degree
    current = [score(masks[r], bit[r]) for r in range(n)]
    heap = [(s, salt[r], r) for r, s in enumerate(current)]
    heapq.heapify(heap)
    position = [-1] * n  # rank -> elimination step, -1 while alive
    bags = []
    neighbors = []  # step -> ranks of the eliminated vertex's neighbors
    while len(bags) < n:
        while True:
            s, _, r = heapq.heappop(heap)
            if position[r] < 0 and current[r] == s:
                break
        position[r] = len(bags)
        adj, comp, b = masks[r], members[r], bit[r]
        nbrs = adj[b]
        adj[b] = 0
        vb = 1 << b
        # Each neighbour gains its missing fill edges at once.  A score
        # changes only at ``nbrs`` and at the common neighbours of an added
        # edge; the others rescore to their unchanged score and push nothing.
        dirty = nbrs
        nbr_ranks = []
        m = nbrs
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            nbr_ranks.append(comp[i])
            old = adj[i] & ~vb
            missing = nbrs & ~old & ~low
            adj[i] = old | missing
            while missing:
                w = missing & -missing
                missing ^= w
                dirty |= old & adj[w.bit_length() - 1]
        bags.append(frozenset([vertices[r]] + [vertices[x] for x in nbr_ranks]))
        neighbors.append(nbr_ranks)
        while dirty:
            low = dirty & -dirty
            dirty ^= low
            i = low.bit_length() - 1
            s = score(adj, i)
            x = comp[i]
            if s != current[x]:
                current[x] = s
                heapq.heappush(heap, (s, salt[x], x))
    children: Dict[int, list] = {i: [] for i in range(n)}
    for i in range(n - 1):
        later = [position[x] for x in neighbors[i]]
        children[min(later) if later else i + 1].append(i)
    return TreeDecomposition(dict(enumerate(bags)), children, n - 1)


def validate_td(graph, td: TreeDecomposition) -> bool:
    """Check the three decomposition conditions: vertex coverage, edge
    coverage, and connectedness of each vertex's occurrence set.

    Each vertex's occurrence set (the nodes whose bags hold it) is built
    once; an edge is covered iff the sets of its ends meet."""
    occurs: Dict[object, set] = {}
    for t, b in td.bags.items():
        for v in b:
            occurs.setdefault(v, set()).add(t)
    if any(v not in occurs for v in graph.adj):
        return False
    for u, nbrs in graph.adj.items():
        for v in nbrs:
            if occurs[u].isdisjoint(occurs.get(v, ())):
                return False
    for v in graph.adj:
        nodes = occurs[v]
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


def make_nice(td: TreeDecomposition) -> NiceTD:
    """Normalize to a nice decomposition of the same width.

    Each original edge becomes a remove-then-introduce chain, children are
    joined pairwise, and the root is drained to an empty bag.
    """
    bags: Dict[int, frozenset] = {}
    children: Dict[int, list] = {}
    kind: Dict[int, str] = {}
    action: Dict[int, object] = {}
    counter = [0]

    def new_node(k, bag, kids=(), act=None):
        t = counter[0]
        counter[0] += 1
        bags[t] = frozenset(bag)
        children[t] = list(kids)
        kind[t] = k
        if act is not None:
            action[t] = act
        return t

    def chain(top_id, top_bag, target_bag):
        cur_id, cur = top_id, set(top_bag)
        for v in sorted(cur - set(target_bag)):
            cur.discard(v)
            cur_id = new_node("rem", cur, (cur_id,), v)
        for v in sorted(set(target_bag) - cur):
            cur.add(v)
            cur_id = new_node("intr", cur, (cur_id,), v)
        return cur_id

    built: Dict[int, int] = {}
    for t in td.postorder():
        target = td.bags[t]
        kids = td.children[t]
        if not kids:
            leaf = new_node("leaf", ())
            built[t] = chain(leaf, frozenset(), target)
            continue
        tops = [chain(built[c], td.bags[c], target) for c in kids]
        while len(tops) > 1:
            merged = []
            for i in range(0, len(tops) - 1, 2):
                merged.append(new_node("join", target, (tops[i], tops[i + 1])))
            if len(tops) % 2:
                merged.append(tops[-1])
            tops = merged
        built[t] = tops[0]
    root = chain(built[td.root], td.bags[td.root], frozenset())
    return NiceTD(bags, children, root, kind, action)


def td_stats(td: TreeDecomposition) -> str:
    lines = ["width: %d" % td.width, "nodes: %d" % td.node_count]
    if isinstance(td, NiceTD):
        counts = td.kind_counts()
        lines.append(
            "nice nodes: leaf=%d intr=%d rem=%d join=%d"
            % (counts["leaf"], counts["intr"], counts["rem"], counts["join"])
        )
    return "\n".join(lines) + "\n"
