"""Table algorithms and nested dynamic programming drivers.

Counting runs over nice tree decompositions of graph abstractions.  Rows
map a partial world view interpretation over the bag's epistemic atoms
to a count.  Both table algorithms share one pass (``_table_pass``):
remove nodes project and sum, join nodes match rows and multiply.  Their
introduce nodes guess a third truth value and check the bag's
purely-epistemic rules; the nested algorithm also verifies the rules
delegated to the node by a recursive call on their epistemic reduct,
compiled once per node.  Recursion bottoms out in one base-solver call
per subproblem (``_base_case``), steered by width and depth thresholds
that change routing but never results.

Both drivers take one route, the router ``_nested_count``.  At every
depth it splits its subproblem into connected components, counts each
apart (``_route``) and multiplies.  Every component, one or many, goes
through one memo (``_count_part``), so components equal up to renaming
are counted once per driver call.  A query is resolved at the depth-0
split only: each component it touches is counted again with the query's
constraints adjoined, so ``acceptance_probability`` gets its two counts
from one run of the router.  The router never turns the assumption into
rules: an introduce node offers an assumed atom only its assumed value,
and nested calls and the base solver enforce the rest.
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
    compile_reduct,
    dense_renaming,
    epistemic_masks,
    epistemic_reduct,  # unused here; perfbench's tracer wraps dp.epistemic_reduct
    survivors,
    with_query_constraints,
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
        if self.answer_cap < 0 or self.wv_cap < 0:
            raise ValueError("caps must be nonnegative")


@dataclass
class RunStats:
    """Observability record for one counting run.

    ``eats_size`` counts the epistemic atoms of the whole depth-0 program
    and ``components`` the connected components it splits into.  The
    structural fields fold over the depth-0 components counted before the
    first zero, memo hits included: ``primal_width`` and ``dp_width`` are
    the maximum, ``dp_nodes`` and ``abstraction_size`` the sum, and a
    field stays -1 only if no component reached its stage.
    ``backend_calls`` and ``nested_calls`` count the calls made.  Every
    component goes through the memo, the whole subproblem too when it is
    one component, so a memo hit adds nothing to them.  For
    ``acceptance_probability`` the structural fields describe the program
    without the query, whose constraints only join the recount of each
    component they touch at the depth-0 split; the call counters and
    ``max_depth`` include those recounts.
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
    # Component key -> (count, figures); one per driver call.
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
# The shared table pass, and plausible-WVI counting over the epistemic primal graph


def _table_pass(nice: NiceTD, introduce):
    """Run a table algorithm over ``nice``; returns node -> table.

    Tables map (true_mask, false_mask) row keys to counts.  Leaves hold
    the empty row, remove nodes project and sum, join nodes match rows and
    multiply; ``introduce(t, child_table)`` builds an introduce node's.
    """
    tables = {}
    for t in nice.postorder():
        kind = nice.kind[t]
        if kind == "leaf":
            tables[t] = {(0, 0): 1}
        elif kind == "intr":
            tables[t] = introduce(t, tables[nice.children[t][0]])
        elif kind == "rem":
            keep = ~(1 << nice.action[t][0])
            out = {}
            for (tm, fm), c in tables[nice.children[t][0]].items():
                key = (tm & keep, fm & keep)
                out[key] = out.get(key, 0) + c
            tables[t] = out
        else:  # join
            left, right = (tables[c] for c in nice.children[t])
            tables[t] = {key: c1 * right[key] for key, c1 in left.items() if key in right}
    return tables


def plausible_tables(program: Program, nice: NiceTD):
    """Run the plausible-counting table algorithm; returns node -> table.

    At an introduce node only rules completed by the introduced atom need
    checking; earlier rows already satisfy the rest of the bag program.
    """
    checks_by_atom = _checks_by_atom(program, program.eats_mask)

    def introduce(t, child):
        atom = nice.action[t][0]
        bit = 1 << atom
        checks = _node_checks(checks_by_atom, atom, mask_of(a for a, _tag in nice.bags[t]))
        return {
            (nt, nf): c
            for (tm, fm), c in child.items()
            for nt, nf in ((tm, fm), (tm | bit, fm), (tm, fm | bit))
            if _rows_ok(checks, nt, nf)
        }

    return _table_pass(nice, introduce)


def count_plausible(program: Program, heuristic: str = "min-fill", seed: int = 0) -> int:
    """Number of plausible WVIs, by dynamic programming over a tree
    decomposition of the epistemic primal graph."""
    if any(r.ats_mask == 0 for r in program.rules):
        return 0  # a bare falsity constraint admits nothing
    if program.is_plain:
        return 1
    nice = make_nice(build_td(epistemic_primal_graph(program), heuristic, seed))
    return sum(plausible_tables(program, nice)[nice.root].values())


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
    nested: tuple = ()  # compile_reduct of the rules verified by recursion here
    owned_mask: int = 0  # the node's nested bag atoms (owned components)


def _prepare_nodes(program, a_mask, nice, primal):
    """Attach bag programs and delegated rules to the introduce nodes of a
    nice decomposition."""
    asg = assign_compatible_sets(program, a_mask, nice, primal)
    comp_of_atom = {a: idx for idx, atoms in enumerate(asg.components) for a in atoms}
    nested_by_node: dict[int, list[Rule]] = {}
    for r in program.rules:
        anchor = r.aats_mask | (r.eats_mask & ~a_mask)
        if anchor == 0:
            continue  # lives entirely on bag atoms; plausibility checks cover it
        owner = asg.owner[comp_of_atom[next(bits(anchor))]]
        nested_by_node.setdefault(owner, []).append(r)
    checks_by_atom = _checks_by_atom(program, a_mask)
    data = {}
    for t in nice.postorder():
        if nice.kind[t] != "intr":
            continue
        bag_mask = mask_of(a for a, _tag in nice.bags[t])
        data[t] = _NodeData(
            bag_mask=bag_mask,
            checks=_node_checks(checks_by_atom, nice.action[t][0], bag_mask),
            nested=compile_reduct(nested_by_node.get(t, ()), bag_mask),
            owned_mask=asg.nested_bag_atoms.get(t, 0),
        )
    return data


def _run_tables(depth, program, a_mask, assumption, ctx, primal=None, figures=None):
    """Dynamic programming over a nice decomposition of the nested primal
    graph; returns the count.  ``figures``, when given, takes the
    decomposition's width and node count."""
    nice = make_nice(
        build_td(nested_primal_graph(program, a_mask, primal), ctx.heuristic, ctx.seed)
    )
    if figures is not None:
        figures.dp_width = nice.width
        figures.dp_nodes = nice.node_count
    data = _prepare_nodes(program, a_mask, nice, primal)

    def introduce(t, child):
        return _intr_table(depth, program, data[t], nice.action[t][0], child, assumption, ctx)

    return sum(_table_pass(nice, introduce)[nice.root].values())


def _intr_table(depth, program, nd, atom, child, assumption, ctx):
    bit = 1 << atom
    options = ((0, 0), (bit, 0), (0, bit))
    if assumption.domain & bit:  # an assumed atom takes its assumed value only
        options = ((assumption.true & bit, assumption.false & bit),)
    # The node answers for every atom it owns: decided ones must be known
    # in the nested world views, undecided ones genuinely open.
    owned = nd.owned_mask
    sub_domain = (assumption.domain | nd.bag_mask) & owned
    table = {}
    for (tm, fm), c in child.items():
        for dt, df in options:
            nt, nf = tm | dt, fm | df
            if not _rows_ok(nd.checks, nt, nf):
                continue
            residues = survivors(nd.nested, nt, nf)[1] if nd.nested else ()
            mult = 1
            # An empty reduct still checks the assumption: an assumed-true
            # atom that no residue derives must fail there.
            if residues or sub_domain:
                ctx.stats.nested_calls += 1
                sub = WVI(
                    sub_domain, (assumption.true | nt) & owned, (assumption.false | nf) & owned
                )
                mult = _nested_count(depth + 1, Program(program.atoms, residues), sub, ctx)[0]
            if mult:
                table[nt, nf] = c * mult
    return table


def _base_case(program, assumption, ctx):
    """The count from one backend call, ``count_wv``, plain program or
    not; routing by program kind is the backend's business."""
    ctx.stats.backend_calls += 1
    return ctx.backend.count_wv(program, assumption)


def _nested_count(depth, program, assumption, ctx, query=None):
    """Count the world views of ``program`` that agree exactly with the
    assumption on its domain, and those of them that also agree with
    ``query``; returns ``(count, query_count)``, the two equal when no
    query is given.  The one router of both drivers: it resolves the
    assumption and query literals, then counts each connected component
    through ``_count_part``, once per component up to renaming.  A
    component the query touches is counted a second time, with the
    query's constraints adjoined and under the same assumption; nothing
    below this split sees a query.
    """
    ctx.stats.max_depth = max(ctx.stats.max_depth, depth)
    if any(r.ats_mask == 0 for r in program.rules):
        return 0, 0  # a bare falsity constraint, given or left by a reduct
    ats = program.ats_mask
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
        ctx.stats.eats_size = program.eats_mask.bit_count()
        ctx.stats.components = len(parts)
    # The world views of a disjoint union are the products of its parts'
    # world views, and compatibility and query agreement are tested atom
    # by atom, so both counts multiply over the components.
    count = query_count = 1
    for mask, rules in parts:
        sub_assumption = assumption.restrict(mask)
        c, figures = _count_part(depth, program, mask, rules, sub_assumption, ctx)
        if depth == 0:
            _fold(ctx.stats, figures)
        if c == 0:
            return 0, 0
        q = c
        if query is not None and query.domain & mask:
            q_rules = with_query_constraints(
                program.with_rules(rules), query.restrict(mask)
            ).rules
            q = _count_part(depth, program, mask, q_rules, sub_assumption, ctx)[0]
        count *= c
        query_count *= q
    return count, query_count


def _count_part(depth, program, mask, rules, assumption, ctx):
    """Count the connected component of ``program`` made of ``rules`` with
    ``_route``; returns the count and the component's figures.  Every
    component goes through this memo, so components equal up to renaming
    are counted once per driver call."""
    key = _component_key(depth, mask, rules, assumption)
    entry = ctx.memo.get(key)
    if entry is None:
        figures = _Figures()
        count = _route(depth, program.with_rules(rules), assumption, ctx, figures)
        entry = ctx.memo[key] = (count, figures)
    return entry


def _component_key(depth, mask, rules, assumption):
    """A component's memo key, equal for components that differ only by an
    order-preserving renaming of their atoms: its rules and assumption
    over ``dense_renaming`` masks, and the depth."""
    local = dense_renaming(mask)[1]
    return (
        depth,
        tuple(
            tuple(map(local, (r.head_mask, r.pos_mask, r.neg_mask) + epistemic_masks(r)))
            for r in rules
        ),
        (local(assumption.domain), local(assumption.true), local(assumption.false)),
    )


def _route(depth, program, assumption, ctx, figures):
    """Count one connected subproblem: the base solver when it is plain,
    past the depth cap or too wide, else tables over a decomposition of an
    abstraction of it.  ``figures`` takes its widths, table nodes and
    abstraction size."""
    eats = program.eats_mask
    thr = ctx.thresholds
    if eats == 0 or (depth and depth >= thr.depth):
        # A plain subproblem has nothing to decompose, and past the depth
        # cap the base solver takes the subproblem whatever its width, so
        # neither builds a decomposition.  An epistemic subproblem at depth
        # 0 builds one for stats even when the cap is 0.
        return _base_case(program, assumption, ctx)
    primal = primal_graph(program)  # the one build for this subproblem
    primal_td = build_td(primal, ctx.heuristic, ctx.seed)
    figures.primal_width = primal_td.width
    if primal_td.width >= thr.hybrid or depth >= thr.depth:
        return _base_case(program, assumption, ctx)
    a_mask = eats
    if primal_td.width >= thr.abstr:
        a_mask = choose_abstraction(
            a_mask, program, thr.abstr, ABSTRACTION_BUDGET, ctx.seed,
            ctx.heuristic, primal,
        )
    figures.abstraction_size = a_mask.bit_count()
    return _run_tables(depth, program, a_mask, assumption, ctx, primal, figures)


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
    if query is not None and query.domain:
        program = with_query_constraints(program, query)
    return _nested_count(0, program, assumption, ctx)[0]


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
