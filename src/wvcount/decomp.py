"""Tree decompositions: heuristic construction, validation, nice normal form.

Decompositions are built by bucket elimination along a min-fill or
min-degree ordering with a seed-salted tie break (min-fill counts fill
edges by set intersections, and elimination adds them by set
differences), then normalized to nice form
(leaf/introduce/remove/join nodes, empty leaf and root bags) for the
table algorithms.  The engine's graphs have int vertices (``graphs``),
so bags are sets of ints, ties break in int order and nothing here
depends on the hash seed.  All traversals are iterative; elimination
chains can get deep on large instances.
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
    """
    check_heuristic(heuristic)
    adj = {v: set(ns) for v, ns in graph.adj.items()}
    vertices = sorted(adj)
    if not vertices:
        return TreeDecomposition({0: frozenset()}, {0: ()}, 0)
    rng = random.Random(seed)
    salt = {v: rng.random() for v in vertices}

    def score(v):
        if heuristic == "min-degree":
            return len(adj[v])
        return fill_count(adj, v)

    heap = [(score(v), salt[v], v) for v in vertices]
    heapq.heapify(heap)
    current = {v: s for s, _, v in heap}
    eliminated = []
    bags = []
    while current:
        while True:
            s, _, v = heapq.heappop(heap)
            if v in current and current[v] == s:
                break
        del current[v]
        nbrs = adj.pop(v)
        bags.append(frozenset(nbrs | {v}))
        eliminated.append(v)
        # Each neighbour gains its missing fill edges at once.  A score
        # changes only at ``nbrs`` and at the common neighbours of an added
        # edge; the others rescore to their unchanged score and push nothing.
        dirty = set(nbrs)
        for u in nbrs:
            around = adj[u]
            around.discard(v)
            missing = nbrs - around
            missing.discard(u)
            if missing:
                around |= missing
                for w in missing:
                    dirty |= around & adj[w]
        for u in dirty:
            if u in current:
                s = score(u)
                if s != current[u]:
                    current[u] = s
                    heapq.heappush(heap, (s, salt[u], u))
    n = len(eliminated)
    position = {v: i for i, v in enumerate(eliminated)}
    children: Dict[int, list] = {i: [] for i in range(n)}
    for i in range(n - 1):
        later = [position[u] for u in bags[i] if position[u] > i]
        parent = min(later) if later else i + 1
        children[parent].append(i)
    return TreeDecomposition(dict(enumerate(bags)), children, n - 1)


def validate_td(graph, td: TreeDecomposition) -> bool:
    """Check the three decomposition conditions: vertex coverage, edge
    coverage, and connectedness of each vertex's occurrence set."""
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
