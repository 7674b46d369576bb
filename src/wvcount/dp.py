"""Table algorithms and nested dynamic programming drivers.

Counting runs over nice tree decompositions of graph abstractions.  Rows
pair a partial world view interpretation over the bag's epistemic atoms
with one counter (plus a second, query-side counter for probability
runs).  Introduce nodes guess a third truth value, check the bag's
purely-epistemic rules, and verify the rules delegated to the node by a
recursive call; remove nodes project and sum; join nodes match rows and
multiply.  Recursion bottoms out in one base-solver call per subproblem
(``_base_case``), steered by width and depth thresholds that change
routing but never results.

Both drivers take one route: ``count_world_views`` and
``acceptance_probability`` call the router ``_nested_count``, which
returns a world-view count together with its query count.  At every
depth it splits its subproblem into connected components, counts each
apart (``_route``) and multiplies; components equal up to renaming are
counted once per driver call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .decomp import NiceTD, build_td, fill_count, make_nice
from .errors import NoWorldViews
from .graphs import (
    E_TAG,
    assign_compatible_sets,
    epistemic_primal_graph,
    nested_primal_graph,
    primal_graph,
)
from .model import EMPTY_WVI, Program, Rule, WVI, bits, mask_of
from .semantics import (
    ANSWER_CAP,
    WV_CAP,
    _components,
    dense_renaming,
    epistemic_masks,
    epistemic_reduct,
    query_constraint,
    with_query_constraints,
    with_wvi_constraints,
)

# Candidate evaluations ``choose_abstraction`` may spend per subproblem.
ABSTRACTION_BUDGET = 256


@dataclass
class Thresholds:
    """Routing thresholds and brute-force caps.

    ``hybrid``: primal width at which the whole subproblem goes to the
    base solver; ``abstr``: width at which an abstraction is chosen before
    decomposing; ``depth``: nesting depth at which recursion stops and the
    base solver takes over.  Thresholds steer routing only; every route
    returns the same count.
    """

    hybrid: int = 45
    abstr: int = 8
    depth: int = 1
    answer_cap: int = ANSWER_CAP
    wv_cap: int = WV_CAP

    def __post_init__(self):
        if not (self.hybrid >= self.abstr >= 0):
            raise ValueError("need hybrid >= abstr >= 0")
        if self.depth < 0:
            raise ValueError("depth threshold must be nonnegative")


@dataclass
class RunStats:
    """Observability record for one counting run.

    ``eats_size`` counts the epistemic atoms of the whole depth-0 program
    and ``components`` the connected components it splits into.  The
    structural fields fold over the depth-0 components counted before the
    first zero, memo hits included: ``primal_width`` and ``dp_width`` are
    the maximum, ``dp_nodes`` and ``abstraction_size`` the sum, and a
    field stays -1 only if no component reached its stage.
    ``backend_calls`` and ``nested_calls`` count the calls made, so a memo
    hit adds nothing to them.
    """

    primal_width: int = -1
    dp_width: int = -1
    dp_nodes: int = 0
    eats_size: int = 0
    abstraction_size: int = -1
    backend_calls: int = 0
    nested_calls: int = 0
    max_depth: int = 0
    components: int = 0


@dataclass
class _Figures:
    """The structural ``RunStats`` fields of one depth-0 component."""

    primal_width: int = -1
    dp_width: int = -1
    dp_nodes: int = 0
    abstraction_size: int = -1


def _fold(stats: RunStats, figures: _Figures) -> None:
    stats.primal_width = max(stats.primal_width, figures.primal_width)
    stats.dp_width = max(stats.dp_width, figures.dp_width)
    stats.dp_nodes += figures.dp_nodes
    if figures.abstraction_size >= 0:
        stats.abstraction_size = max(stats.abstraction_size, 0) + figures.abstraction_size


@dataclass
class _Ctx:
    thresholds: Thresholds
    backend: object
    heuristic: str
    seed: int
    stats: RunStats
    # Component key -> (count, query count, figures); one per driver call.
    memo: dict = field(default_factory=dict)


def _rows_ok(checks, tmask, fmask) -> bool:
    """No purely-epistemic rule reduces to a violated constraint.  Each
    check is a rule's ``epistemic_masks``; the row ``(tmask, fmask)``
    satisfies the rule iff one of the four mask tests kills its body."""
    for kill_t, kill_f, need_t, need_f in checks:
        if not (tmask & kill_t or fmask & kill_f or need_t & ~tmask or need_f & ~fmask):
            return False
    return True


def _checks_by_atom(program: Program, a_mask: int):
    """Each purely-epistemic rule over ``a_mask`` atoms, as its epistemic
    atoms and ``epistemic_masks``, listed under every one of its atoms."""
    by_atom: dict[int, list[tuple[int, tuple]]] = {}
    for r in program.rules:
        if r.purely_epistemic and r.eats_mask & ~a_mask == 0:
            check = (r.eats_mask, epistemic_masks(r))
            for a in bits(r.eats_mask):
                by_atom.setdefault(a, []).append(check)
    return by_atom


def _node_checks(by_atom, atom: int, bag_mask: int) -> tuple:
    """The checks an introduce node of ``atom`` runs: the rules on
    ``atom`` that the bag completes."""
    return tuple(masks for eats, masks in by_atom.get(atom, ()) if eats & ~bag_mask == 0)


# ---------------------------------------------------------------------------
# Plausible-WVI counting (tables over the epistemic primal graph)


def plausible_tables(program: Program, nice: NiceTD):
    """Run the plausible-counting table algorithm; returns node -> table.

    Tables map (true_mask, false_mask) row keys to counters.  At an
    introduce node only rules completed by the introduced atom need
    checking; earlier rows already satisfy the rest of the bag program.
    """
    checks_by_atom = _checks_by_atom(program, program.eats_mask)
    tables = {}
    for t in nice.postorder():
        kind = nice.kind[t]
        if kind == "leaf":
            tables[t] = {(0, 0): 1}
        elif kind == "intr":
            atom = nice.action[t][0]
            bit = 1 << atom
            bag_mask = mask_of(a for a, _tag in nice.bags[t])
            checks = _node_checks(checks_by_atom, atom, bag_mask)
            out = {}
            for (tm, fm), c in tables[nice.children[t][0]].items():
                for nt, nf in ((tm, fm), (tm | bit, fm), (tm, fm | bit)):
                    if _rows_ok(checks, nt, nf):
                        out[(nt, nf)] = c
            tables[t] = out
        elif kind == "rem":
            atom = nice.action[t][0]
            keep = ~(1 << atom)
            out = {}
            for (tm, fm), c in tables[nice.children[t][0]].items():
                key = (tm & keep, fm & keep)
                out[key] = out.get(key, 0) + c
            tables[t] = out
        else:  # join
            left, right = (tables[c] for c in nice.children[t])
            tables[t] = {
                key: c1 * right[key] for key, c1 in left.items() if key in right
            }
    return tables


def count_plausible(program: Program, heuristic: str = "min-fill", seed: int = 0) -> int:
    """Number of plausible WVIs, by dynamic programming over a tree
    decomposition of the epistemic primal graph."""
    if any(r.ats_mask == 0 for r in program.rules):
        return 0  # a bare falsity constraint admits nothing
    if program.is_plain:
        return 1
    nice = make_nice(build_td(epistemic_primal_graph(program), heuristic, seed))
    root_table = plausible_tables(program, nice)[nice.root]
    return sum(root_table.values())


# ---------------------------------------------------------------------------
# Abstraction choice


def choose_abstraction(
    a_mask: int,
    program: Program,
    target_width: int,
    budget: int = ABSTRACTION_BUDGET,
    seed: int = 0,
    heuristic: str = "min-fill",
    primal=None,
) -> int:
    """Shrink the abstraction until its nested graph decomposes below the
    width target, greedily dropping the atom whose removal leaves the
    fewest edges, then greedily re-adding atoms that still fit.  The
    budget bounds candidate evaluations, keeping the search deterministic.

    Dropping atom x from the abstraction turns ``(x, e)`` into an interior
    vertex, so the nested graph of the smaller mask is the current one
    with ``(x, e)`` eliminated.  The shrink phase builds the nested graph
    once, scores each candidate as ``edges - deg(x) + fill(x)`` and
    eliminates the chosen vertex; each re-add candidate is built afresh.
    All builds read one primal graph: ``primal`` when given, else one
    built here.
    """
    if a_mask == 0:
        return 0
    if primal is None:
        primal = primal_graph(program)

    steps = 0
    cur = a_mask
    graph = None  # the nested graph of cur, built on the first round
    while cur.bit_count() > 1 and steps <= budget:
        if graph is None:
            graph = nested_primal_graph(program, cur, primal)
        if build_td(graph, heuristic, seed).width < target_width:
            break
        edges = graph.edge_count()
        _edges_left, drop = min(
            (edges - len(graph.adj[(a, E_TAG)]) + fill_count(graph.adj, (a, E_TAG)), a)
            for a in bits(cur)
        )
        steps += cur.bit_count()
        cur &= ~(1 << drop)
        graph.eliminate((drop, E_TAG))
    for atom in bits(a_mask & ~cur):
        if steps > budget:
            break
        cand = cur | (1 << atom)
        steps += 1
        width = build_td(nested_primal_graph(program, cand, primal), heuristic, seed).width
        if width < target_width:
            cur = cand
    return cur


# ---------------------------------------------------------------------------
# Nested counting


@dataclass
class _NodeData:
    bag_mask: int = 0
    checks: tuple = ()  # epistemic_masks of the bag's purely-epistemic rules
    nested: tuple = ()  # rules verified by recursion at this node
    owned_mask: int = 0  # the node's nested bag atoms (owned components)
    query_extra: tuple = ()  # query constraints resolved at this node


def _prepare_nodes(program, a_mask, nice, query: Optional[WVI], primal):
    """Attach bag programs, delegated rules, and query constraints to the
    introduce nodes of a nice decomposition."""
    asg = assign_compatible_sets(program, a_mask, nice, primal)
    comp_of_atom = {}
    for idx, atoms in enumerate(asg.components):
        for a in atoms:
            comp_of_atom[a] = idx
    nested_by_node: dict[int, list[Rule]] = {}
    for r in program.rules:
        anchor = r.aats_mask | (r.eats_mask & ~a_mask)
        if anchor == 0:
            continue  # lives entirely on bag atoms; plausibility checks cover it
        owner = asg.owner[comp_of_atom[next(bits(anchor))]]
        nested_by_node.setdefault(owner, []).append(r)
    checks_by_atom = _checks_by_atom(program, a_mask)
    query_by_atom: dict[int, list[Rule]] = {}
    query_by_node: dict[int, list[Rule]] = {}
    if query is not None:
        for lit in query.decided_literals():
            constraint = query_constraint(lit)
            if a_mask & (1 << lit.atom):
                query_by_atom.setdefault(lit.atom, []).append(constraint)
            else:
                owner = asg.owner[comp_of_atom[lit.atom]]
                query_by_node.setdefault(owner, []).append(constraint)
    data = {}
    for t in nice.postorder():
        if nice.kind[t] != "intr":
            continue
        atom = nice.action[t][0]
        bag_mask = mask_of(a for a, _tag in nice.bags[t])
        data[t] = _NodeData(
            bag_mask=bag_mask,
            checks=_node_checks(checks_by_atom, atom, bag_mask),
            nested=tuple(nested_by_node.get(t, ())),
            owned_mask=asg.nested_bag_atoms.get(t, 0),
            query_extra=tuple(
                query_by_node.get(t, []) + query_by_atom.get(atom, [])
            ),
        )
    return data


def _nested_verify(depth, base_rules, extra, table, wvi, assumption, ctx):
    sub = epistemic_reduct(Program(table, base_rules + extra), wvi)
    if not sub.rules and assumption.domain == 0:
        return 1
    # An empty reduct still needs its assumption checked: literals whose
    # defining rules dropped out are underivable, so e.g. an assumed-true
    # atom must fail here rather than slip through.
    ctx.stats.nested_calls += 1
    return _nested_count(depth + 1, sub, assumption, ctx)[0]


def _run_tables(depth, program, a_mask, assumption, query, ctx, primal=None, figures=None):
    """Dynamic programming over a nice decomposition of the nested primal
    graph; returns the count and the query count (the count again when no
    query is given).  ``figures``, when given, takes the decomposition's
    width and node count."""
    nice = make_nice(
        build_td(nested_primal_graph(program, a_mask, primal), ctx.heuristic, ctx.seed)
    )
    if figures is not None:
        figures.dp_width = nice.width
        figures.dp_nodes = nice.node_count
    data = _prepare_nodes(program, a_mask, nice, query, primal)
    with_q = query is not None
    tables = {}
    for t in nice.postorder():
        kind = nice.kind[t]
        if kind == "leaf":
            tables[t] = {(0, 0): (1, 1)}
        elif kind == "intr":
            tables[t] = _intr_table(
                depth, program, data[t], nice.action[t][0],
                tables[nice.children[t][0]], assumption, with_q, ctx,
            )
        elif kind == "rem":
            keep = ~(1 << nice.action[t][0])
            out = {}
            for (tm, fm), (c, q) in tables[nice.children[t][0]].items():
                key = (tm & keep, fm & keep)
                oc, oq = out.get(key, (0, 0))
                out[key] = (oc + c, oq + q)
            tables[t] = out
        else:  # join
            left, right = (tables[c] for c in nice.children[t])
            out = {}
            for key, (c1, q1) in left.items():
                if key in right:
                    c2, q2 = right[key]
                    out[key] = (c1 * c2, q1 * q2)
            tables[t] = out
    root = tables[nice.root]
    total_c = sum(c for c, _q in root.values())
    total_q = sum(q for _c, q in root.values())
    return total_c, total_q


def _intr_table(depth, program, nd, atom, child, assumption, with_q, ctx):
    bit = 1 << atom
    table = {}
    for (tm, fm), (c, q) in child.items():
        for nt, nf in ((tm, fm), (tm | bit, fm), (tm, fm | bit)):
            if not _rows_ok(nd.checks, nt, nf):
                continue
            wvi = WVI(nd.bag_mask, nt, nf)
            # The node answers for every atom it owns: decided ones must be
            # known in the nested world views, undecided ones genuinely open.
            sub_assumption = assumption.union(wvi).restrict(nd.owned_mask)
            mult = 1
            if nd.nested or sub_assumption.domain:
                mult = _nested_verify(
                    depth, nd.nested, (), program.atoms, wvi, sub_assumption, ctx
                )
            c2 = c * mult
            if c2 == 0:
                continue
            if not with_q:
                table[nt, nf] = (c2, c2)
                continue
            if nd.query_extra:
                qmult = _nested_verify(
                    depth, nd.nested, nd.query_extra, program.atoms, wvi,
                    sub_assumption, ctx,
                )
            else:
                qmult = mult
            table[nt, nf] = (c2, q * qmult)
    return table


def _base_case(program, assumption, query, ctx):
    """``(count, query_count)`` from one backend call: ``wv_exists`` as 0/1
    for a plain program, which has at most one world view, and
    ``count_wv`` otherwise.  The query side costs one more ``count_wv``
    call only when a query is given and the count is non-zero."""
    ctx.stats.backend_calls += 1
    if program.is_plain:
        count = 1 if ctx.backend.wv_exists(program, assumption) else 0
    else:
        count = ctx.backend.count_wv(program, assumption)
    if query is None or count == 0:
        return count, count
    ctx.stats.backend_calls += 1
    return count, ctx.backend.count_wv(with_query_constraints(program, query), assumption)


def _nested_count(depth, program, assumption, ctx, query=None):
    """Count the world views of ``program`` that agree exactly with the
    assumption on its domain, and those of them that also agree with
    ``query``; returns ``(count, query_count)``, the two equal when no
    query is given.  The one router of both drivers: it resolves the
    assumption and query literals, then counts each connected component
    with ``_route``, once per component up to renaming.
    """
    ctx.stats.max_depth = max(ctx.stats.max_depth, depth)
    if any(r.ats_mask == 0 for r in program.rules):
        return 0, 0  # a bare falsity constraint, given or left by a reduct
    eats, ats = program.eats_mask, program.ats_mask
    overlap = assumption.domain & eats
    if overlap:
        # Assumptions about epistemic atoms fold into the program as
        # pinning constraints; the tables then only ever see assumptions
        # over objective atoms.  The constraints mention only atoms in
        # ``overlap``, which are epistemic already, so ``eats`` and
        # ``ats`` still describe the rebound program.
        program = with_wvi_constraints(program, assumption.restrict(overlap))
        assumption = assumption.restrict(~overlap)
    assert assumption.domain & eats == 0
    # Assumed atoms no rule mentions anymore are underivable: a truth or
    # openness claim on them fails outright, a falsity claim is free.
    gone = assumption.domain & ~ats
    if gone:
        if (assumption.true | assumption.undecided) & gone:
            return 0, 0
        assumption = assumption.restrict(ats)
    # Likewise for query literals: such an atom is false in every answer
    # set, so a positive literal fails and a negative one always holds.
    if query is not None and query.domain & ~ats:
        if query.true & ~ats:
            return _nested_count(depth, program, assumption, ctx)[0], 0
        query = query.restrict(ats)
    parts = _components(program)
    if depth == 0:
        ctx.stats.eats_size = eats.bit_count()
        ctx.stats.components = len(parts)
    if len(parts) <= 1:
        figures = _Figures()
        result = _route(depth, program, assumption, query, ctx, figures)
        if depth == 0:
            _fold(ctx.stats, figures)
        return result
    # The world views of a disjoint union are the products of its parts'
    # world views, and compatibility and query agreement are tested atom
    # by atom, so both counts multiply over the components.
    count = query_count = 1
    for mask, rules in parts:
        sub_assumption = assumption.restrict(mask)
        sub_query = None
        if query is not None and query.domain & mask:
            sub_query = query.restrict(mask)
        key = _component_key(depth, mask, rules, sub_assumption, sub_query)
        entry = ctx.memo.get(key)
        if entry is None:
            figures = _Figures()
            part = Program(program.atoms, tuple(rules))
            c, q = _route(depth, part, sub_assumption, sub_query, ctx, figures)
            entry = ctx.memo[key] = (c, q, figures)
        c, q, figures = entry
        if depth == 0:
            _fold(ctx.stats, figures)
        if c == 0:
            return 0, 0
        count *= c
        query_count *= q
    return count, query_count


def _component_key(depth, mask, rules, assumption, query):
    """A component's memo key, equal for components that differ only by an
    order-preserving renaming of their atoms: its rules, assumption and
    query over ``dense_renaming`` masks, and the depth."""
    local = dense_renaming(mask)[1]
    return (
        depth,
        tuple(
            tuple(map(local, (r.head_mask, r.pos_mask, r.neg_mask) + epistemic_masks(r)))
            for r in rules
        ),
        (local(assumption.domain), local(assumption.true), local(assumption.false)),
        None if query is None else (local(query.domain), local(query.true), local(query.false)),
    )


def _route(depth, program, assumption, query, ctx, figures):
    """Count one connected subproblem: the base solver when it is plain,
    past the depth cap or too wide, else tables over a decomposition of an
    abstraction of it.  At depth 0, ``figures`` takes its widths, table
    nodes and abstraction size."""
    eats = program.eats_mask
    thr = ctx.thresholds
    if eats == 0 or (depth and depth >= thr.depth):
        # A plain subproblem has nothing to decompose, and past the depth
        # cap the base solver takes the subproblem whatever its width, so
        # neither builds a decomposition.  An epistemic subproblem at depth
        # 0 builds one for stats even when the cap is 0.
        return _base_case(program, assumption, query, ctx)
    primal = primal_graph(program)  # the one build for this subproblem
    primal_td = build_td(primal, ctx.heuristic, ctx.seed)
    if depth == 0:
        figures.primal_width = primal_td.width
    if primal_td.width >= thr.hybrid or depth >= thr.depth:
        return _base_case(program, assumption, query, ctx)
    a_mask = eats
    if primal_td.width >= thr.abstr:
        a_mask = choose_abstraction(
            a_mask, program, thr.abstr, ABSTRACTION_BUDGET, ctx.seed,
            ctx.heuristic, primal,
        )
    if depth == 0:
        figures.abstraction_size = a_mask.bit_count()
    return _run_tables(
        depth, program, a_mask, assumption, query, ctx, primal,
        figures if depth == 0 else None,
    )


def _make_ctx(thresholds, backend, heuristic, seed, stats):
    from .backends import InternalBackend

    thresholds = thresholds or Thresholds()
    if backend is None:
        backend = InternalBackend(thresholds.answer_cap, thresholds.wv_cap)
    return _Ctx(thresholds, backend, heuristic, seed, stats or RunStats())


def count_world_views(
    program: Program,
    query: Optional[WVI] = None,
    thresholds: Optional[Thresholds] = None,
    backend=None,
    heuristic: str = "min-fill",
    seed: int = 0,
    jobs: int = 1,
    stats: Optional[RunStats] = None,
    assumption: WVI = EMPTY_WVI,
) -> int:
    """Number of world views agreeing with the query's decided literals.

    Queries fold into the program as epistemic constraints (positive
    literals must be known, negative ones must not be known true), after
    which the count is an unconditional world-view count.  An assumption
    WVI restricts the count to world views matching it exactly on its
    domain, undecidedness included.

    ``jobs`` is accepted and ignored: counting runs in one thread.
    """
    ctx = _make_ctx(thresholds, backend, heuristic, seed, stats)
    target = program
    if query is not None and query.domain:
        target = with_query_constraints(program, query)
    return _nested_count(0, target, assumption, ctx)[0]


def acceptance_probability(
    program: Program,
    query: WVI,
    thresholds: Optional[Thresholds] = None,
    backend=None,
    heuristic: str = "min-fill",
    seed: int = 0,
    jobs: int = 1,
    stats: Optional[RunStats] = None,
    assumption: WVI = EMPTY_WVI,
) -> Fraction:
    """Probability that a world view agrees with the query, as an exact
    fraction: the query count over the count, from one run of the router.
    Raises ``NoWorldViews`` exactly when ``count_world_views`` under the
    same assumption is 0.

    ``jobs`` is accepted and ignored: counting runs in one thread.
    """
    ctx = _make_ctx(thresholds, backend, heuristic, seed, stats)
    total_c, total_q = _nested_count(0, program, assumption, ctx, query)
    if total_c == 0:
        raise NoWorldViews("program has no world views")
    return Fraction(total_q, total_c)
