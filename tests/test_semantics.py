import random

import pytest

from conftest import brute_cnf_models, brute_plausible_count, wvi_from_names
from wvcount.bench import gen_random_3cnf, gen_random_elp
from wvcount.dp import count_plausible
from wvcount.errors import BruteForceCapExceeded, NoWorldViews, NotPlainError
from wvcount.model import (
    EMPTY_WVI,
    AtomTable,
    Epistemic,
    Literal,
    Objective,
    Program,
    Rule,
    WVI,
    bits,
    mask_of,
)
from wvcount.parser import parse_program, program_to_text
from wvcount.semantics import (
    _answer_sets_whole,
    answer_sets,
    check_compatibility,
    cnf_to_elp,
    count_world_views_bruteforce,
    enumerate_world_views,
    epistemic_masks,
    epistemic_reduct,
    gl_reduct,
    is_plausible,
    probability_bruteforce,
    with_query_constraints,
    with_wvi_constraints,
)


def names(program, mask):
    return set(program.atoms.mask_to_names(mask))


def as_name_sets(program, masks):
    return {frozenset(program.atoms.mask_to_names(m)) for m in masks}


# ---------------------------------------------------------------------------
# classification


def test_classify_running(running):
    assert names(running, running.eats_mask) == {"a", "b", "c", "d"}
    pure = [i for i, r in enumerate(running.rules) if r.purely_epistemic]
    assert pure == [7, 8, 9, 10, 11]  # the five constraints
    assert running.ats_mask == running.aats_mask | running.eats_mask
    assert not running.is_plain


def test_classify_plain(plain_core):
    assert plain_core.eats_mask == 0
    assert plain_core.is_plain
    assert plain_core.ats_mask == plain_core.aats_mask != 0


def test_classify_epistemic_only():
    prog = parse_program(":- -K v.")
    assert names(prog, prog.eats_mask) == {"v"}
    assert prog.aats_mask == 0
    assert prog.ats_mask == prog.eats_mask
    assert not prog.is_plain


def assert_masks_fold_rules(program):
    """The atom sets a program stores equal the fold over its rules."""
    eats = aats = ats = 0
    for r in program.rules:
        eats |= r.eats_mask
        aats |= r.aats_mask
        ats |= r.ats_mask
    assert program.eats_mask == eats
    assert program.aats_mask == aats
    assert program.ats_mask == ats
    assert program.is_plain == (eats == 0)


def test_stored_masks_on_random_and_derived_programs():
    rng = random.Random(7)
    for seed in range(40):
        prog = gen_random_elp(8, 4, 10, seed)
        other = gen_random_elp(8, 3, 5, seed + 100)
        eats = prog.eats_mask
        t = f = 0
        for a in bits(eats):
            v = rng.choice((None, True, False))
            if v is True:
                t |= 1 << a
            elif v is False:
                f |= 1 << a
        full = WVI(eats, t, f)
        partial = full.restrict(rng.getrandbits(8))
        query = WVI.from_literals(
            Literal(a, rng.random() < 0.5) for a in rng.sample(range(8), 2)
        )
        derived = [
            prog,
            epistemic_reduct(prog, full),
            epistemic_reduct(prog, partial),
            prog.with_rules(prog.rules[::2]),
            prog.with_rules(()),
            prog.extended(other.rules),
            with_wvi_constraints(prog, full),
            with_wvi_constraints(prog, partial),
            with_query_constraints(prog, query),
        ]
        for program in derived:
            assert_masks_fold_rules(program)


# ---------------------------------------------------------------------------
# GL reduct and answer sets


def test_gl_reduct_running_core(plain_core):
    t = plain_core.atoms
    interp = mask_of([t.id("a"), t.id("c")])
    reduct = gl_reduct(plain_core, interp)
    assert [r.head for r in reduct.rules] == [
        (t.id("a"), t.id("b")),
        (t.id("c"),),
    ]
    assert all(not r.body for r in reduct.rules)


def test_gl_reduct_empty_interpretation(plain_core):
    reduct = gl_reduct(plain_core, 0)
    assert len(reduct.rules) == len(plain_core.rules)
    assert all(r.neg_mask == 0 for r in reduct.rules)


def test_gl_reduct_self_blocker():
    prog = parse_program("a :- -a.")
    assert gl_reduct(prog, 1).rules == ()


def test_gl_reduct_requires_plain(running):
    with pytest.raises(NotPlainError):
        gl_reduct(running, 0)


def test_answer_sets_running_core(plain_core):
    sets = as_name_sets(plain_core, answer_sets(plain_core))
    assert sets == {
        frozenset("ac"), frozenset("ad"), frozenset("bc"), frozenset("bd")
    }


def test_answer_sets_empty_program():
    prog = parse_program("")
    assert answer_sets(prog) == [0]


def test_answer_sets_unsatisfiable():
    prog = Program(parse_program("").atoms, (Rule((), ()),))
    assert answer_sets(prog) == []


def test_answer_sets_cap():
    text = "".join("x%d.\n" % i for i in range(30))
    with pytest.raises(BruteForceCapExceeded):
        answer_sets(parse_program(text), cap=24)


def _random_plain(seed, atoms=6, rules=7):
    rng = random.Random(seed)
    table_text = []
    names_pool = ["p%d" % i for i in range(atoms)]
    for _ in range(rules):
        head = rng.sample(names_pool, rng.randint(0, 2))
        pos = rng.sample(names_pool, rng.randint(0, 2))
        neg = rng.sample(names_pool, rng.randint(0, 2))
        body = pos + ["-" + n for n in neg]
        if not head and not body:
            continue
        line = " | ".join(head)
        if body:
            line += " :- " + ", ".join(body)
        table_text.append(line + ".")
    return parse_program("\n".join(table_text) + "\n")


def test_answer_sets_component_split_matches_whole_enumeration():
    for seed in range(40):
        prog = _random_plain(seed)
        assert answer_sets(prog) == _answer_sets_whole(prog)


def test_answer_sets_are_minimal_models():
    # every answer set models the program; no proper subset models the reduct
    for seed in range(25):
        prog = _random_plain(seed)
        for m in answer_sets(prog):
            reduct = gl_reduct(prog, m)
            for r in reduct.rules:
                assert (r.pos_mask & ~m) != 0 or (r.head_mask & m) != 0
            sub = (m - 1) & m
            while m:
                ok = all(
                    (r.pos_mask & ~sub) != 0 or (r.head_mask & sub) != 0
                    for r in reduct.rules
                )
                assert not ok
                if sub == 0:
                    break
                sub = (sub - 1) & m


# ---------------------------------------------------------------------------
# epistemic reduct


def test_epistemic_reduct_running_wv(running):
    t = running.atoms
    wvi = wvi_from_names(t, ["a", "d", "-b", "-c"])
    reduct = epistemic_reduct(running, wvi)
    assert reduct.is_plain
    rendered = program_to_text(reduct)
    assert rendered == "a | b.\nc :- -d.\nd :- -c.\na.\nd.\n"


def test_epistemic_reduct_empty_domain(running):
    reduct = epistemic_reduct(running, EMPTY_WVI)
    assert program_to_text(reduct) == program_to_text(running)


def test_epistemic_reduct_undecided_gives_constraint():
    prog = parse_program(":- -K a, -K -a.")
    wvi = WVI(domain=1)  # a undecided
    reduct = epistemic_reduct(prog, wvi)
    assert len(reduct.rules) == 1
    assert reduct.rules[0].head == ()
    assert reduct.rules[0].body == ()


def test_epistemic_reduct_plain_when_domain_covers_eats():
    for seed in range(20):
        prog = gen_random_elp(6, 3, 8, seed)
        wvi = WVI(domain=prog.eats_mask)
        assert epistemic_reduct(prog, wvi).is_plain


# ---------------------------------------------------------------------------
# adjunction


def test_adjoin_empty(running):
    assert with_wvi_constraints(running, EMPTY_WVI).rules == running.rules


def test_adjoin_decided():
    prog = parse_program("a.")
    adjoined = with_wvi_constraints(prog, WVI(domain=1, true=1))
    assert program_to_text(adjoined) == "a.\n:- not a.\n"


def test_adjoin_undecided():
    prog = parse_program("a.")
    adjoined = with_wvi_constraints(prog, WVI(domain=1))
    assert program_to_text(adjoined) == "a.\n:- K -a.\n:- K a.\n"


def test_query_constraints():
    prog = parse_program("a.\nb.")
    q = wvi_from_names(prog.atoms, ["a", "-b"])
    adjoined = with_query_constraints(prog, q)
    assert program_to_text(adjoined) == "a.\nb.\n:- not a.\n:- K b.\n"


# ---------------------------------------------------------------------------
# compatibility


def test_compatibility_running_wv(running):
    t = running.atoms
    wvi = wvi_from_names(t, ["a", "d", "-b", "-c"])
    sets = [mask_of([t.id("a"), t.id("d")])]
    full = WVI(mask_of(range(4)), wvi.true, wvi.false)
    assert check_compatibility(full, sets)


def test_compatibility_empty_set():
    assert not check_compatibility(EMPTY_WVI, [])


def test_compatibility_undecided_needs_mixed():
    wvi = WVI(domain=1)  # a undecided
    assert not check_compatibility(wvi, [1])
    assert not check_compatibility(wvi, [0])
    assert check_compatibility(wvi, [0, 1])


def _conds(wvi, sets):
    and_mask = or_mask = sets[0] if sets else 0
    for m in sets[1:]:
        and_mask &= m
        or_mask |= m
    c1 = bool(sets)
    c2 = wvi.true & ~and_mask == 0 if sets else False
    c3 = wvi.false & or_mask == 0 if sets else False
    c4 = wvi.undecided & ~(or_mask & ~and_mask) == 0 if sets else False
    return c1, c2, c3, c4


def test_compatibility_monotonicity():
    # growing the answer-set collection can only break conditions 2-3 and
    # only help conditions 1 and 4
    rng = random.Random(5)
    for _ in range(300):
        dom = rng.getrandbits(4)
        true = rng.getrandbits(4) & dom
        false = rng.getrandbits(4) & dom & ~true
        wvi = WVI(dom, true, false)
        small = [rng.getrandbits(4) for _ in range(rng.randint(1, 3))]
        big = small + [rng.getrandbits(4)]
        s1, s2, s3, s4 = _conds(wvi, small)
        b1, b2, b3, b4 = _conds(wvi, big)
        assert b1 >= s1
        assert b4 >= s4
        assert s2 >= b2
        assert s3 >= b3


# ---------------------------------------------------------------------------
# world views and counting


def test_world_views_running(running):
    t = running.atoms
    wvs = enumerate_world_views(running)
    expected = {
        wvi_from_names(t, ["a", "d", "-b", "-c"]),
        wvi_from_names(t, ["a", "c", "-b", "-d"]),
        wvi_from_names(t, ["b", "c", "-a", "-d"]),
    }
    expected = {WVI(mask_of(range(4)), w.true, w.false) for w in expected}
    assert set(wvs) == expected


def test_world_views_plain_core(plain_core):
    wvs = enumerate_world_views(plain_core)
    assert len(wvs) == 1
    assert wvs[0].decided == 0  # every atom mixed across answer sets


def test_world_views_forced_fact():
    prog = parse_program("a.\n:- -K a.")
    wvs = enumerate_world_views(prog)
    assert len(wvs) == 1
    assert wvs[0].true == 1


def test_world_views_cap():
    text = "\n".join("x%d :- not y%d." % (i, i) for i in range(13))
    with pytest.raises(BruteForceCapExceeded):
        enumerate_world_views(parse_program(text))


def test_every_world_view_is_plausible():
    for seed in range(30):
        prog = gen_random_elp(6, 3, 8, seed)
        for w in enumerate_world_views(prog):
            assert is_plausible(w.restrict(prog.eats_mask), prog)


def test_is_plausible_running(running):
    t = running.atoms
    assert is_plausible(wvi_from_names(t, ["a", "c", "-b", "-d"]), running)
    assert not is_plausible(WVI(mask_of(range(4))), running)


def test_epistemic_masks_agree_with_element_evaluation():
    # The four-mask test against is_plausible's element-by-element walk,
    # on random purely-epistemic rules over three atoms, repeats included.
    rng = random.Random(2)
    table = AtomTable("abc")
    rows = [WVI(0b111, t, f) for t in range(8) for f in range(8) if t & f == 0]
    for _ in range(200):
        body = tuple(
            Epistemic(rng.random() < 0.5, Literal(rng.randrange(3), rng.random() < 0.5))
            for _ in range(rng.randint(1, 4))
        )
        rule = Rule((), body)
        kill_t, kill_f, need_t, need_f = epistemic_masks(rule)
        program = Program(table, (rule,))
        for w in rows:
            t, f = w.true, w.false
            survives = not (t & kill_t or f & kill_f or need_t & ~t or need_f & ~f)
            assert survives == (not is_plausible(w, program))


def _reduct_by_elements(program, wvi):
    """The epistemic reduct, evaluated element by element: the reference
    for ``epistemic_reduct``'s compiled masks."""
    rules = []
    for r in program.rules:
        body = []
        dead = False
        for el in r.body:
            if isinstance(el, Epistemic) and (wvi.domain >> el.literal.atom) & 1:
                value = not wvi.holds(el.literal)
                if el.negated:
                    value = not value
                if value:
                    continue
                dead = True
                break
            body.append(el)
        if not dead:
            rules.append(Rule(r.head, tuple(body)))
    return rules


def test_epistemic_reduct_agrees_with_element_evaluation():
    # Random programs over six atoms, mixing objective and epistemic
    # elements, under WVIs over random partial domains.  Tuple equality
    # also checks that the reduct keeps rule order.
    rng = random.Random(5)
    table = AtomTable("abcdef")
    untouched = dropped = 0
    for _ in range(300):
        rules = []
        for _ in range(rng.randint(1, 6)):
            ep = rng.sample(range(6), rng.randint(0, 3))
            obj = [a for a in range(6) if a not in ep]
            body = [
                Epistemic(rng.random() < 0.5, Literal(a, rng.random() < 0.5)) for a in ep
            ] + [
                Objective(Literal(a, rng.random() < 0.5))
                for a in rng.sample(obj, rng.randint(0, min(2, len(obj))))
            ]
            rng.shuffle(body)
            head = tuple(rng.sample(obj, rng.randint(0, min(2, len(obj)))))
            rules.append(Rule(head, tuple(body)))
        program = Program(table, tuple(rules))
        domain = rng.getrandbits(6)
        t = rng.getrandbits(6) & domain
        wvi = WVI(domain, t, rng.getrandbits(6) & domain & ~t)
        expected = _reduct_by_elements(program, wvi)
        assert epistemic_reduct(program, wvi).rules == tuple(expected)
        untouched += sum(1 for r in rules if r.eats_mask & domain == 0)
        dropped += len(rules) - len(expected)
    assert untouched and dropped


def test_is_plausible_without_pure_rules(plain_core):
    assert is_plausible(EMPTY_WVI, plain_core)


def test_count_running(running):
    t = running.atoms
    assert count_world_views_bruteforce(running) == 3
    assert count_world_views_bruteforce(running, wvi_from_names(t, ["a", "-b"])) == 2
    assert count_world_views_bruteforce(running, wvi_from_names(t, ["c", "d"])) == 0


def test_count_monotone_in_query():
    rng = random.Random(9)
    for seed in range(20):
        prog = gen_random_elp(6, 3, 8, seed)
        atoms = sorted(bits(prog.ats_mask))
        dom = rng.sample(atoms, min(2, len(atoms)))
        q = WVI(
            mask_of(dom),
            mask_of(a for a in dom if rng.random() < 0.5) & mask_of(dom),
        )
        assert count_world_views_bruteforce(prog, q) <= count_world_views_bruteforce(prog)


def test_probability_running(running):
    t = running.atoms
    assert probability_bruteforce(running, wvi_from_names(t, ["a", "-b"])) == (
        pytest.approx(2 / 3)
    )
    assert probability_bruteforce(running, EMPTY_WVI) == 1
    assert probability_bruteforce(running, wvi_from_names(t, ["c", "d"])) == 0


def test_probability_no_world_views():
    # b known-true fails (unsupported), known-false and open both derive b
    prog = parse_program("a :- not b.\nb :- a.")
    assert enumerate_world_views(prog) == []
    with pytest.raises(NoWorldViews):
        probability_bruteforce(prog)


# ---------------------------------------------------------------------------
# CNF encoding


def test_cnf_empty_formula():
    prog = cnf_to_elp(0, [])
    assert prog.rules == ()
    assert brute_plausible_count(prog) == 1


def test_cnf_single_clause():
    prog = cnf_to_elp(3, [[1, 2, 3]])
    assert brute_plausible_count(prog) == 7


def test_cnf_unsat():
    prog = cnf_to_elp(1, [[1], [-1]])
    assert brute_plausible_count(prog) == 0


def test_cnf_clause_too_long():
    with pytest.raises(ValueError):
        cnf_to_elp(4, [[1, 2, 3, 4]])


def test_cnf_plausible_count_equals_model_count():
    for seed in range(50):
        rng = random.Random(seed)
        num_vars = rng.randint(1, 12)
        clauses = gen_random_3cnf(num_vars, rng.randint(0, 20), seed)
        prog = cnf_to_elp(num_vars, clauses)
        models = brute_cnf_models(num_vars, clauses)
        assert count_plausible(prog) == models
        # The 3^n plausibility oracle cross-checks the smaller instances.
        if num_vars <= 8:
            assert brute_plausible_count(prog) == models
