"""Table algorithms and nested dynamic programming drivers.

Counting runs over nice tree decompositions of graph abstractions, the
epistemic and the nested primal graph, whose vertices are atom ids: a
bag is a set of atoms, and an introduce or remove node's action is the
atom itself.  Rows map a partial world view interpretation over the
bag's epistemic atoms to a count.  A row is one int,
``tm | fm << shift``: the true atoms in the low ``shift`` bits and the
false atoms above them.  Both table algorithms share one pass
(``_table_pass``): remove nodes clear the atom's two bits and sum, join
nodes match rows and multiply.  Their introduce nodes share one step
(``_expand``): guess a third truth value and check the bag's
purely-epistemic rules, once per pattern of the rows on the bits those
rules read (``_RowOptions``).  Checks and delegated rules alike are
epistemic reducts compiled once per node by ``semantics``: a row's
surviving rules are one mask, built from one dead-rule mask per bag
atom, and a value passes the checks iff no check rule survives.  The
nested algorithm filters its rows, verifying the delegated rules by a
recursive call on their reduct (``compile_reduct``).  Rows with the
same surviving rules share one reduct program (``_Subproblem``), built
on the first such row, and its component split is built on the first
nested call that gets past the router's early exit.  Recursion bottoms
out in one base-solver call per subproblem (``_base_case``), steered by
width and depth thresholds that change routing but never results.  The
abstraction search scores candidates by the edges their elimination
adds less those it removes (``decomp.fill_count``, which counts by set
intersections).

Both drivers take one route.  The router ``_nested_count`` splits a
subproblem into connected components, counts each apart (``_route``)
and multiplies.  Every component goes through one memo (``_count_part``),
so components equal up to renaming are counted once per driver call.
The split (``semantics.components``) reads atom ids, not masks, and
each ``semantics.Component`` owns its renaming onto dense local numbers
and its key, which its ``Program`` carries to the base solver.  The
depth-0 split is the drivers' own (``_count_root``), and only there is a
query folded in, as constraints on the components of its atoms.  The
router never turns the assumption into rules: an introduce node offers
an assumed atom only its assumed value, and nested calls and the base
solver enforce the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .decomp import NiceTD, build_td, check_heuristic, fill_count, make_nice
from .errors import NoWorldViews
from .graphs import (
    assign_compatible_sets,
    epistemic_primal_graph,
    nested_primal_graph,
    primal_graph,
)
from .model import EMPTY_WVI, Program, WVI, bits, mask_of
from .semantics import (
    Component,
    compile_reduct,
    components,
    dead_masks,
    epistemic_reduct,  # unused here; perfbench's tracer wraps dp.epistemic_reduct
    query_constraints,
    reduct_rules,
    survivors,
)

# Candidate evaluations ``choose_abstraction`` may spend per subproblem.
ABSTRACTION_BUDGET = 256


@dataclass
class Thresholds:
    """Routing thresholds.

    ``hybrid``: primal width at which the whole subproblem goes to the
    base solver; ``abstr``: width at which an abstraction is chosen before
    decomposing; ``depth``: nesting depth at which recursion stops and the
    base solver takes over.  Thresholds steer routing only; every route
    returns the same count.  The caps belong to the base solver.
    """

    hybrid: int = 45
    abstr: int = 8
    depth: int = 1

    def __post_init__(self):
        if not (self.hybrid >= self.abstr >= 0):
            raise ValueError("need hybrid >= abstr >= 0")
        if self.depth < 0:
            raise ValueError("depth threshold must be nonnegative")


@dataclass
class RunStats:
    """Observability record for one counting run.

    ``eats_size`` counts the epistemic atoms of the whole depth-0 program,
    those of ``count_world_views``' decided query literals included, and
    ``components`` the connected components the program splits into.
    The structural fields fold over the depth-0 components counted before
    the first zero, memo hits included, those with query constraints for
    ``count_world_views``: ``primal_width`` and ``dp_width`` are the
    maximum, ``dp_nodes`` and ``abstraction_size`` the sum, and a field
    stays -1 only if no component reached its stage.  ``backend_calls``
    and ``nested_calls`` count the calls made, so a memo hit adds nothing
    to them.  For ``acceptance_probability`` the structural fields
    describe the program without the query; the call counters and
    ``max_depth`` include the counts of the components the query touches.
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


def _node_checks(program: Program, a_mask: int, nice: NiceTD) -> dict:
    """Each introduce node of ``nice`` -> its bag's mask and its check
    rules: the purely-epistemic rules over ``a_mask`` atoms that hold the
    node's atom and that its bag completes."""
    by_atom: dict[int, list] = {}
    for r in program.rules:
        if r.purely_epistemic and r.eats_mask & ~a_mask == 0:
            for a in bits(r.eats_mask):
                by_atom.setdefault(a, []).append(r)
    out = {}
    for t in nice.postorder():
        if nice.kind[t] == "intr":
            bag_mask = mask_of(nice.bags[t])
            rules = [r for r in by_atom.get(nice.action[t], ()) if r.eats_mask & ~bag_mask == 0]
            out[t] = bag_mask, rules
    return out


def _split_row(row: int, shift: int):
    """A table row's ``(true_mask, false_mask)``."""
    return row & ((1 << shift) - 1), row >> shift


class _RowOptions(dict):
    """The options an introduce node of ``atom`` lets each child row take,
    decided once per row pattern.

    The check rules are compiled over the bag (``dead_masks``), the
    introduced atom's masks held apart as ``own``.  Child rows that agree
    on ``rel``, the other compiled atoms' bits in both halves of the row,
    pass the same options.  The map takes a pattern ``row & rel`` to a
    3-bit mask: 1 leaves the atom undecided, 2 makes it true (sets
    ``bit``), 4 false (sets ``fbit``).  A value passes iff no check rule
    survives: the pattern's ``survivors`` less ``own``'s mask for it.
    """

    __slots__ = ("rest", "own", "bit", "fbit", "rel", "shift")

    def __init__(self, bag_mask: int, rules: list, atom: int, shift: int):
        super().__init__()
        self.shift = shift
        self.bit = bit = 1 << atom
        self.fbit = bit << shift
        self.own, rest, rel = (0, 0, 0), [], 0
        for masks in dead_masks(rules, bag_mask):
            if masks[0] == bit:
                self.own = masks[1:]
            else:
                rest.append(masks)
                rel |= masks[0]
        self.rest = ((), (1 << len(rules)) - 1, rest)
        self.rel = rel | rel << shift

    def __missing__(self, pattern):
        alive = survivors(self.rest, *_split_row(pattern, self.shift))
        when_true, when_false, when_undecided = self.own
        ok = self[pattern] = (
            (not alive & ~when_undecided)
            | (not alive & ~when_true) << 1
            | (not alive & ~when_false) << 2
        )
        return ok


def _expand(options: _RowOptions, child: dict, allowed: int = 7) -> dict:
    """An introduce node's table: each child row extended by the values
    of ``allowed`` (``_RowOptions``' 3-bit mask) that its pattern
    passes, in the order undecided, true, false."""
    bit, fbit, rel = options.bit, options.fbit, options.rel
    # A row left undecided keeps the child's row int: ``row | 0``
    # would copy a multi-digit int into every such row.
    out = {}
    for row, c in child.items():
        ok = options[row & rel] & allowed
        if ok & 1:
            out[row] = c
        if ok & 2:
            out[row | bit] = c
        if ok & 4:
            out[row | fbit] = c
    return out


# ---------------------------------------------------------------------------
# The shared table pass, and plausible-WVI counting over the epistemic primal graph


def _table_pass(nice: NiceTD, introduce, shift: int):
    """Run a table algorithm over ``nice``; returns node -> table.

    Tables map rows, ``true_mask | false_mask << shift``, to counts.
    Leaves hold the empty row, remove nodes project and sum, join nodes
    match rows and multiply; ``introduce(t, child_table)`` builds an
    introduce node's.
    """
    tables = {}
    for t in nice.postorder():
        kind = nice.kind[t]
        if kind == "leaf":
            tables[t] = {0: 1}
        elif kind == "intr":
            tables[t] = introduce(t, tables[nice.children[t][0]])
        elif kind == "rem":
            bit = 1 << nice.action[t]
            keep = ~(bit | bit << shift)
            out = {}
            for row, c in tables[nice.children[t][0]].items():
                key = row & keep
                out[key] = out.get(key, 0) + c
            tables[t] = out
        else:  # join
            left, right = (tables[c] for c in nice.children[t])
            tables[t] = {key: c1 * right[key] for key, c1 in left.items() if key in right}
    return tables


def plausible_tables(program: Program, nice: NiceTD):
    """Run the plausible-counting table algorithm; returns node -> table,
    its rows split at ``program.eats_mask.bit_length()``.

    At an introduce node only rules completed by the introduced atom need
    checking; earlier rows already satisfy the rest of the bag program.
    """
    shift = program.eats_mask.bit_length()
    checks = _node_checks(program, program.eats_mask, nice)

    def introduce(t, child):
        return _expand(_RowOptions(*checks[t], nice.action[t], shift), child)

    return _table_pass(nice, introduce, shift)


def count_plausible(program: Program, heuristic: str = "min-fill", seed: int = 0) -> int:
    """Number of plausible WVIs, by dynamic programming over a tree
    decomposition of the epistemic primal graph."""
    check_heuristic(heuristic)
    if any(not (r.head or r.body) for r in program.rules):
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
) -> int:
    """Shrink the abstraction until its nested graph decomposes below the
    width target, greedily dropping the atom whose removal leaves the
    fewest edges, then greedily re-adding atoms that still fit.  The
    budget bounds candidate evaluations, keeping the search deterministic.

    Dropping atom x from the abstraction turns its e-vertex into an
    interior vertex, so the nested graph of the smaller mask is the current
    one with x eliminated.  The shrink phase builds the nested graph
    once, scores each candidate as ``fill(x) - deg(x)``, the change in
    the edge count, and eliminates the chosen vertex; each re-add
    candidate is built afresh.
    """
    check_heuristic(heuristic)
    if a_mask == 0:
        return 0

    steps = 0
    cur = a_mask
    graph = None  # the nested graph of cur, built on the first round
    while cur.bit_count() > 1 and steps <= budget:
        if graph is None:
            graph = nested_primal_graph(program, cur)
        if build_td(graph, heuristic, seed).width < target_width:
            break
        _score, drop = min((fill_count(graph.adj, a) - len(graph.adj[a]), a) for a in bits(cur))
        steps += cur.bit_count()
        cur &= ~(1 << drop)
        graph.eliminate(drop)
    for atom in bits(a_mask & ~cur):
        if steps > budget:
            break
        cand = cur | (1 << atom)
        steps += 1
        width = build_td(nested_primal_graph(program, cand), heuristic, seed).width
        if width < target_width:
            cur = cand
    return cur


# ---------------------------------------------------------------------------
# Nested counting


@dataclass
class _NodeData:
    bag_mask: int
    # The bag's purely-epistemic rule checks, decided once per row pattern
    # for every assumption that reaches the node.
    options: _RowOptions
    nested: tuple  # compile_reduct of the rules verified by recursion here
    owned_mask: int  # the node's nested bag atoms (owned components)
    # A row's survivors mask -> the _Subproblem of its reduct.
    reducts: dict = field(default_factory=dict)


def _prepare_nodes(program, a_mask, nice):
    """Attach bag programs and delegated rules to the introduce nodes of a
    nice decomposition; rows split at ``a_mask.bit_length()``."""
    shift = a_mask.bit_length()
    asg = assign_compatible_sets(program, a_mask, nice)
    data = {}
    for t, (bag_mask, rules) in _node_checks(program, a_mask, nice).items():
        data[t] = _NodeData(
            bag_mask=bag_mask,
            options=_RowOptions(bag_mask, rules, nice.action[t], shift),
            nested=compile_reduct(asg.delegated.get(t, ()), bag_mask),
            owned_mask=asg.nested_bag_atoms.get(t, 0),
        )
    return data


def _run_tables(depth, program, a_mask, assumption, ctx, figures):
    """Dynamic programming over a nice decomposition of the nested primal
    graph; returns the count.  ``figures`` takes the decomposition's width
    and node count."""
    nice = make_nice(build_td(nested_primal_graph(program, a_mask), ctx.heuristic, ctx.seed))
    figures.dp_width = nice.width
    figures.dp_nodes = nice.node_count
    data = _prepare_nodes(program, a_mask, nice)

    def introduce(t, child):
        return _intr_table(depth, program, data[t], child, assumption, ctx)

    return sum(_table_pass(nice, introduce, a_mask.bit_length())[nice.root].values())


def _intr_table(depth, program, nd, child, assumption, ctx):
    """``_expand``'s rows that pass nested verification, each count
    times its nested count."""
    bit, shift = nd.options.bit, nd.options.shift
    allowed = 7  # ``_RowOptions``' undecided, true and false
    if assumption.domain & bit:  # an assumed atom takes its assumed value only
        allowed = 2 if assumption.true & bit else 4 if assumption.false & bit else 1
    rows = _expand(nd.options, child, allowed)
    # The node answers for every atom it owns: decided ones must be known
    # in the nested world views, undecided ones genuinely open.
    owned = nd.owned_mask
    sub_domain = (assumption.domain | nd.bag_mask) & owned
    nested = nd.nested
    if not nested[0] and not sub_domain:
        return rows  # no delegated rule and no owned atom: no row makes a nested call
    table = {}
    for row, c in rows.items():
        nt, nf = _split_row(row, shift)
        alive = survivors(nested, nt, nf)
        mult = 1
        # An empty reduct still checks the assumption: an assumed-true
        # atom that no residue derives must fail there.
        if alive or sub_domain:
            ctx.stats.nested_calls += 1
            sub = WVI(sub_domain, (assumption.true | nt) & owned, (assumption.false | nf) & owned)
            reduct = nd.reducts.get(alive)
            if reduct is None:
                reduct = nd.reducts[alive] = _Subproblem(
                    Program(program.atoms, reduct_rules(nested, alive))
                )
            mult = _nested_count(depth + 1, reduct, sub, ctx)
        if mult:
            table[row] = c * mult
    return table


def _base_case(program, assumption, ctx):
    """The count from one backend call, ``count_wv``, plain program or
    not; routing by program kind is the backend's business."""
    ctx.stats.backend_calls += 1
    return ctx.backend.count_wv(program, assumption)


class _Subproblem:
    """A program to count and, built on first use, its connected
    components (``semantics.components``).  An introduce node keeps one
    per set of surviving rules, so none outlives a driver call.
    """

    __slots__ = ("program", "_parts")

    def __init__(self, program):
        self.program = program
        self._parts = None

    @property
    def parts(self):
        if self._parts is None:
            self._parts = components(self.program.rules)
        return self._parts


def _nested_count(depth, subproblem, assumption, ctx):
    """Count the world views of a ``_Subproblem``'s program that agree
    exactly with the assumption on its domain, below the drivers'
    depth-0 split (``_count_root``)."""
    ctx.stats.max_depth = max(ctx.stats.max_depth, depth)
    program = subproblem.program
    if assumption.domain & ~assumption.false & ~program.ats_mask:
        return 0  # as in ``_count_root``
    return _product(depth, program.atoms, subproblem.parts, assumption, ctx)


def _product(depth, atoms, parts, assumption, ctx, stats=None):
    """The product of the counts of ``parts``, ``Component``s over the
    atom table ``atoms``, under their shares of the assumption; 0 from the
    first zero.  ``stats``, when given, takes each counted part's figures.
    The world views of a disjoint union are the products of its parts'
    world views, and compatibility is tested atom by atom."""
    count = 1
    for part in parts:
        c, figures = _count_part(depth, atoms, part, assumption.restrict(part.mask), ctx)
        if stats is not None:
            _fold(stats, figures)
        if c == 0:
            return 0
        count *= c
    return count


def _count_part(depth, atoms, part, assumption, ctx):
    """Count a ``Component`` over the atom table ``atoms`` with
    ``_route``; returns the count and the component's figures.  Every
    component goes through this memo, keyed on the depth, its ``key`` and
    its assumption in local numbers, so components equal up to renaming
    are counted once per driver call."""
    memo_key = (depth, part.key) + part.local_wvi(assumption)
    entry = ctx.memo.get(memo_key)
    if entry is None:
        if part.program is None:
            part.program = Program(atoms, part.rules, part)
        figures = _Figures()
        count = _route(depth, part.program, assumption, ctx, figures)
        entry = ctx.memo[memo_key] = (count, figures)
    return entry


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
    primal_td = build_td(primal_graph(program), ctx.heuristic, ctx.seed)
    figures.primal_width = primal_td.width
    if primal_td.width >= thr.hybrid or depth >= thr.depth:
        return _base_case(program, assumption, ctx)
    a_mask = eats
    if primal_td.width >= thr.abstr:
        a_mask = choose_abstraction(
            a_mask, program, thr.abstr, ABSTRACTION_BUDGET, ctx.seed, ctx.heuristic
        )
    figures.abstraction_size = a_mask.bit_count()
    return _run_tables(depth, program, a_mask, assumption, ctx, figures)


def _count_root(program, assumption, query, ctx, adjoin):
    """The depth-0 entry of both drivers: the number of world views of
    ``program`` that agree exactly with the assumption and, when
    ``adjoin``, with ``query``; and the query's fold, which maps each part
    the query touches to the part with its ``query_constraints``.  The
    fold is None when a positive literal falls on an atom no rule
    mentions, which no world view knows; a negative one there holds.
    ``ctx.stats`` takes the figures of the split it counts."""
    if any(not (r.head or r.body) for r in program.rules):
        return 0, None  # a bare falsity constraint; reducts leave none (``CompatAssignment``)
    ats = program.ats_mask
    # Assumed atoms no rule mentions are underivable: a truth or openness
    # claim on them fails outright, a falsity claim is free.
    if assumption.domain & ~assumption.false & ~ats:
        return 0, None
    parts = components(program.rules)
    stats = ctx.stats
    stats.eats_size = (program.eats_mask | (query.decided if adjoin else 0)).bit_count()
    stats.components = len(parts)
    fold = None if query.true & ~ats else {
        part: Component(part.atoms, part.rules + query_constraints(query.restrict(part.mask)))
        for part in parts
        if query.decided & part.mask
    }
    if adjoin:
        if fold is None:
            return 0, None
        parts = [fold.get(part, part) for part in parts]
    return _product(0, program.atoms, parts, assumption, ctx, stats), fold


def _make_ctx(thresholds, backend, heuristic, seed, stats):
    from .backends import InternalBackend

    check_heuristic(heuristic)
    backend = InternalBackend() if backend is None else backend
    return _Ctx(thresholds or Thresholds(), backend, heuristic, seed, stats or RunStats())


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

    The query folds into the program's split (``_count_root``) as
    epistemic constraints (positive literals must be known, negative ones
    must not be known true) on the components of their atoms.  An
    assumption WVI restricts the count to world views matching it exactly
    on its domain, undecidedness included.

    ``jobs`` is accepted and ignored: counting runs in one thread.
    """
    ctx = _make_ctx(thresholds, backend, heuristic, seed, stats)
    return _count_root(program, assumption, query or EMPTY_WVI, ctx, True)[0]


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
    fraction: the query count over the count.  Raises ``NoWorldViews``
    exactly when ``count_world_views`` under the same assumption is 0.
    Components the query leaves alone cancel, so only the touched ones
    are counted again, with their constraints.

    ``jobs`` is accepted and ignored: counting runs in one thread.
    """
    ctx = _make_ctx(thresholds, backend, heuristic, seed, stats)
    count, fold = _count_root(program, assumption, query or EMPTY_WVI, ctx, False)
    if count == 0:
        raise NoWorldViews("program has no world views")
    if fold is None:
        return Fraction(0)
    hits = _product(0, program.atoms, fold.values(), assumption, ctx)
    return Fraction(hits, _product(0, program.atoms, fold.keys(), assumption, ctx))
