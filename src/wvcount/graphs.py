"""Graph representations of ELPs and the abstraction machinery.

Three graphs drive the solver: the primal graph over tagged atom
occurrences, the epistemic primal graph over purely-epistemic rule
co-occurrence, and the nested primal graph, which abstracts the primal
graph onto a chosen subset of epistemic atoms.  The last two hold only
e-vertices, so their vertices are atom ids, and so are the bags and
actions of their decompositions.  Only the primal graph tags its
vertices: ``2*atom + tag``, a = 0 and e = 1, which orders them as
``(atom, tag)`` pairs would; this module alone knows the encoding and
labels both kinds (``Graph.label``).  Compatible sets carve the
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


class Graph:
    """Simple undirected graph over int vertices: atom ids (e-vertices),
    or, when ``tagged``, primal vertices ``2*atom + tag``."""

    def __init__(self, tagged: bool = False):
        self.adj: dict[int, set[int]] = {}
        self.tagged = tagged

    def add_vertex(self, v):
        self.adj.setdefault(v, set())

    def add_edge(self, u, v):
        if u == v:
            return
        self.add_vertex(u)
        self.add_vertex(v)
        self.adj[u].add(v)
        self.adj[v].add(u)

    def add_clique(self, vertices):
        vertices = tuple(vertices)
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                self.add_edge(u, v)

    @property
    def vertices(self):
        return sorted(self.adj)

    def edges(self):
        return [(u, v) for u in self.vertices for v in sorted(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def eliminate(self, v):
        """Join the neighbors of ``v`` into a clique and remove ``v``."""
        nbrs = self.adj.pop(v)
        for u in nbrs:
            self.adj[u].discard(v)
            self.adj[u] |= nbrs - {u}

    def label(self, table, v) -> str:
        """Vertex ``v`` as ``name^a`` or ``name^e``."""
        atom, tag = (v >> 1, "ae"[v & 1]) if self.tagged else (v, "e")
        return "%s^%s" % (table.name(atom), tag)

    def to_dot(self, table, name="g") -> str:
        """DOT rendering: e-vertices as open circles labeled x^e, a-vertices filled."""
        lines = ["graph %s {" % name]
        for v in self.vertices:
            label = self.label(table, v)
            style = ", style=filled" if self.tagged and not v & 1 else ""
            lines.append('  "%s" [label="%s", shape=circle%s];' % (label, label, style))
        for u, v in self.edges():
            lines.append('  "%s" -- "%s";' % (self.label(table, u), self.label(table, v)))
        lines.append("}")
        return "\n".join(lines) + "\n"


def primal_graph(program: Program) -> Graph:
    """Tagged co-occurrence graph: objective occurrences as a-vertices
    ``2*atom``, epistemic ones as e-vertices ``2*atom + 1``, plus an {a,e}
    link for every epistemic atom (its objective twin exists even without
    an objective occurrence)."""
    g = Graph(tagged=True)
    for atom in bits(program.aats_mask):
        g.add_vertex(2 * atom)
    for atom in bits(program.eats_mask):
        g.add_edge(2 * atom, 2 * atom + 1)
    for r in program.rules:
        g.add_clique(
            [2 * a for a in bits(r.aats_mask)] + [2 * a + 1 for a in bits(r.eats_mask)]
        )
    return g


def epistemic_primal_graph(program: Program) -> Graph:
    """All epistemic atoms; edges join atoms sharing a purely-epistemic
    rule."""
    g = Graph()
    for atom in bits(program.eats_mask):
        g.add_vertex(atom)
    for r in program.rules:
        if r.purely_epistemic:
            g.add_clique(bits(r.eats_mask))
    return g


def anchor(rule, a_mask: int) -> int:
    """The atoms of ``rule``'s vertices that stay in the primal graph once
    the abstraction e-vertices of ``a_mask`` are removed: its objective
    atoms and its epistemic atoms outside ``a_mask``.  They form a clique,
    so a rule with an anchor lies in one compatible set."""
    return rule.aats_mask | (rule.eats_mask & ~a_mask)


def nested_primal_graph(program: Program, a_mask: int) -> Graph:
    """Abstraction of the primal graph onto the epistemic atoms in a_mask.

    Two abstraction vertices are joined iff the primal graph connects them
    by a path whose interior avoids abstraction vertices.  (Interior
    vertices may be objective, or epistemic atoms left out of the
    abstraction; allowing the latter keeps every compatible set's
    neighborhood a clique, so it always fits in one bag.)  Such a path
    runs through one compatible set or is an edge of a rule without an
    anchor, so the graph is a clique on each compatible set's neighbors
    and one on the atoms of each rule without an anchor.  Its vertices are
    the atoms of ``a_mask``.
    """
    if a_mask & ~program.eats_mask:
        raise WvcountError("abstraction atoms must be epistemic atoms")
    g = Graph()
    for a in bits(a_mask):
        g.add_vertex(a)
    for _atoms, nbrs, _rules in _primal_components(program, a_mask):
        g.add_clique(nbrs)
    for r in program.rules:
        if not anchor(r, a_mask):
            g.add_clique(bits(r.eats_mask))
    return g


@dataclass
class CompatAssignment:
    """Compatible sets of a primal graph minus abstraction vertices, by the
    tree node each is assigned to.

    ``nested_bag_atoms[t]`` is the union of the atom masks of the
    components owned by node ``t``, and ``delegated[t]`` the rules it
    verifies by recursion: those with an anchor in its components.  The
    plausibility checks cover the rules without one.
    """

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
    anchors = [tuple(bits(anchor(r, a_mask))) for r in anchored]
    comps = []
    held = 0
    for atoms, rules in _components(anchored, anchors):
        mask = mask_of(atoms)
        held |= mask
        nbrs = mask
        for r in rules:
            nbrs |= r.eats_mask
        comps.append((tuple(atoms), tuple(bits(nbrs & a_mask)), rules))
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
        (t, mask_of(td.bags[t]))
        for t in td.postorder()
        if getattr(td, "kind", None) is None or td.kind[t] == "intr"
    ]
    assignment = CompatAssignment({}, {})
    for atoms, nbrs, rules in _primal_components(program, a_mask):
        need = mask_of(nbrs)
        home = next((t for t, bag_mask in order if need & ~bag_mask == 0), None)
        if home is None:
            raise WvcountError(
                "no eligible node covers component neighborhood %s" % (nbrs,)
            )
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
    bag_mask = mask_of(td.bags[t])
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
