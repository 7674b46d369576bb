"""Graph representations of ELPs and the abstraction machinery.

Three graphs drive the solver: the primal graph over tagged atom
occurrences, the epistemic primal graph over purely-epistemic rule
co-occurrence, and the nested primal graph, which abstracts the primal
graph onto a chosen subset of epistemic atoms.  Compatible sets carve the
remaining atoms into independently verifiable chunks and pin each chunk
to one tree-decomposition node.  Neither the compatible sets nor the
nested primal graph walks the primal graph: both follow from one split of
the rules by their anchors (``anchor``), the atoms a rule keeps once the
abstraction is removed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import WvcountError
from .model import Program, bits, mask_of
from .semantics import _components

A_TAG = "a"
E_TAG = "e"


class TaggedGraph:
    """Simple undirected graph over (atom, tag) vertices, tag in {a, e}."""

    def __init__(self):
        self.adj: dict[tuple[int, str], set[tuple[int, str]]] = {}

    def add_vertex(self, v):
        self.adj.setdefault(v, set())

    def add_edge(self, u, v):
        if u == v:
            return
        self.add_vertex(u)
        self.add_vertex(v)
        self.adj[u].add(v)
        self.adj[v].add(u)

    @property
    def vertices(self):
        return sorted(self.adj)

    def edges(self):
        out = []
        for u in self.vertices:
            for v in sorted(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def eliminate(self, v):
        """Join the neighbors of ``v`` into a clique and remove ``v``."""
        nbrs = self.adj.pop(v)
        for u in nbrs:
            self.adj[u].discard(v)
            self.adj[u] |= nbrs - {u}

    def to_dot(self, table, name="g") -> str:
        """DOT rendering: e-vertices as open circles labeled x^e, a-vertices filled."""
        lines = ["graph %s {" % name]
        for atom, tag in self.vertices:
            label = "%s^%s" % (table.name(atom), tag)
            style = "shape=circle" if tag == E_TAG else "shape=circle, style=filled"
            lines.append('  "%s" [label="%s", %s];' % (label, label, style))
        for (a1, t1), (a2, t2) in self.edges():
            lines.append(
                '  "%s^%s" -- "%s^%s";' % (table.name(a1), t1, table.name(a2), t2)
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def primal_graph(program: Program) -> TaggedGraph:
    """Tagged co-occurrence graph: objective occurrences as a-vertices,
    epistemic ones as e-vertices, plus an {a,e} link for every epistemic
    atom (its objective twin exists even without an objective occurrence)."""
    g = TaggedGraph()
    for atom in bits(program.aats_mask):
        g.add_vertex((atom, A_TAG))
    for atom in bits(program.eats_mask):
        g.add_vertex((atom, E_TAG))
        g.add_vertex((atom, A_TAG))
        g.add_edge((atom, A_TAG), (atom, E_TAG))
    for r in program.rules:
        occ = [(a, A_TAG) for a in bits(r.aats_mask)]
        occ += [(a, E_TAG) for a in bits(r.eats_mask)]
        for i in range(len(occ)):
            for j in range(i + 1, len(occ)):
                g.add_edge(occ[i], occ[j])
    return g


def epistemic_primal_graph(program: Program) -> TaggedGraph:
    """E-vertices for all epistemic atoms; edges join atoms sharing a
    purely-epistemic rule."""
    g = TaggedGraph()
    for atom in bits(program.eats_mask):
        g.add_vertex((atom, E_TAG))
    for r in program.rules:
        if not r.purely_epistemic:
            continue
        occ = [(a, E_TAG) for a in bits(r.eats_mask)]
        for i in range(len(occ)):
            for j in range(i + 1, len(occ)):
                g.add_edge(occ[i], occ[j])
    return g


def anchor(rule, a_mask: int) -> int:
    """The atoms of ``rule``'s vertices that stay in the primal graph once
    the abstraction e-vertices of ``a_mask`` are removed: its objective
    atoms and its epistemic atoms outside ``a_mask``.  They form a clique,
    so a rule with an anchor lies in one compatible set."""
    return rule.aats_mask | (rule.eats_mask & ~a_mask)


def nested_primal_graph(program: Program, a_mask: int) -> TaggedGraph:
    """Abstraction of the primal graph onto the epistemic atoms in a_mask.

    Two abstraction vertices are joined iff the primal graph connects them
    by a path whose interior avoids abstraction vertices.  (Interior
    vertices may be objective, or epistemic atoms left out of the
    abstraction; allowing the latter keeps every compatible set's
    neighborhood a clique, so it always fits in one bag.)  Such a path
    runs through one compatible set or is an edge of a rule without an
    anchor, so the graph is a clique on each compatible set's neighbors
    and one on the atoms of each rule without an anchor.
    """
    if a_mask & ~program.eats_mask:
        raise WvcountError("abstraction atoms must be epistemic atoms")
    g = TaggedGraph()
    for a in bits(a_mask):
        g.add_vertex((a, E_TAG))
    cliques = [nbrs for _atoms, nbrs, _rules in _primal_components(program, a_mask)]
    cliques += [tuple(bits(r.eats_mask)) for r in program.rules if not anchor(r, a_mask)]
    for clique in cliques:
        for i, u in enumerate(clique):
            for v in clique[i + 1:]:
                g.add_edge((u, E_TAG), (v, E_TAG))
    return g


@dataclass
class CompatAssignment:
    """Compatible sets of a primal graph minus abstraction vertices.

    ``components[i]`` is the atom set of one connected component,
    ``neighbors[i]`` the abstraction atoms adjacent to it, ``owner[i]``
    the unique tree node it is assigned to, ``nested_bag_atoms[t]`` the
    union of atom masks owned by node ``t``, and ``delegated[t]`` the
    rules it verifies by recursion: those with an anchor in its
    components.  The plausibility checks cover the rules without one.
    """

    components: list[tuple[int, ...]]
    neighbors: list[tuple[int, ...]]
    owner: dict[int, int]
    nested_bag_atoms: dict[int, int]
    delegated: dict[int, list]


def _primal_components(program: Program, a_mask: int):
    """The connected components of the primal graph minus the abstraction
    e-vertices, as (atoms, A-neighbors, rules whose anchors lie in them).

    The rules with an anchor split by their anchors; each part is a
    component, and its neighbors are its own abstraction atoms (their
    a-vertices touch their e-twins) plus those its rules use
    epistemically.  An abstraction atom that no anchor holds leaves an
    isolated a-vertex: a one-atom component whose only neighbor is itself.
    """
    a_mask &= program.eats_mask
    anchored = [r for r in program.rules if anchor(r, a_mask)]
    comps = []
    held = 0
    for mask, rules in _components(anchored, [anchor(r, a_mask) for r in anchored]):
        held |= mask
        nbrs = mask
        for r in rules:
            nbrs |= r.eats_mask
        comps.append((tuple(bits(mask)), tuple(bits(nbrs & a_mask)), rules))
    comps += [((a,), (a,), []) for a in bits(a_mask & ~held)]
    comps.sort()
    return comps


def assign_compatible_sets(program: Program, a_mask: int, td) -> CompatAssignment:
    """Assign every compatible set to the first eligible node in post-order.

    Eligibility means the node's bag covers all the component's
    A-neighbors; on a nice decomposition only introduce nodes are
    eligible, because nested verification happens at introductions.
    """
    order = [
        (t, mask_of(atom for atom, _tag in td.bags[t]))
        for t in td.postorder()
        if getattr(td, "kind", None) is None or td.kind[t] == "intr"
    ]
    assignment = CompatAssignment([], [], {}, {}, {})
    for idx, (atoms, nbrs, rules) in enumerate(_primal_components(program, a_mask)):
        need = mask_of(nbrs)
        home = next((t for t, bag_mask in order if need & ~bag_mask == 0), None)
        if home is None:
            raise WvcountError(
                "no eligible node covers component neighborhood %s" % (nbrs,)
            )
        assignment.components.append(atoms)
        assignment.neighbors.append(nbrs)
        assignment.owner[idx] = home
        assignment.nested_bag_atoms[home] = assignment.nested_bag_atoms.get(
            home, 0
        ) | mask_of(atoms)
        assignment.delegated.setdefault(home, []).extend(rules)
    return assignment


def bag_programs(program: Program, a_mask: int, assignment: CompatAssignment, td, t):
    """The epistemic bag program and the nested bag program of one node.

    The epistemic bag program holds the purely-epistemic rules fitting the
    bag.  The nested bag program holds every rule whose objective atoms
    lie in the node's nested bag atoms and whose epistemic atoms lie in
    those plus the bag; it is the ELP handed to nested solving.
    """
    bag_mask = mask_of(atom for atom, _tag in td.bags[t])
    a_t = assignment.nested_bag_atoms.get(t, 0)
    epistemic_bag = [
        r
        for r in program.rules
        if r.purely_epistemic and r.eats_mask & ~bag_mask == 0
    ]
    nested_bag = [
        r
        for r in program.rules
        if r.aats_mask & ~a_t == 0 and r.eats_mask & ~(a_t | bag_mask) == 0
    ]
    return epistemic_bag, nested_bag
