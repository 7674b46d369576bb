import random

from wvcount import kernel


def random_masks(seed, atoms=7, rules=8):
    rng = random.Random(seed)
    full = (1 << atoms) - 1
    heads, bpos, bneg = [], [], []
    for _ in range(rules):
        h = rng.getrandbits(atoms) & rng.getrandbits(atoms)
        p = rng.getrandbits(atoms) & rng.getrandbits(atoms) & ~h
        n = rng.getrandbits(atoms) & rng.getrandbits(atoms) & ~h & ~p
        heads.append(h & full)
        bpos.append(p)
        bneg.append(n)
    return heads, bpos, bneg


def _models(interp, rules):
    """``interp`` satisfies every (head, positive body) rule."""
    return all((pos & ~interp) != 0 or (head & interp) != 0 for head, pos in rules)


def answer_sets_by_definition(heads, bpos, bneg, n_atoms):
    """Interpretations that model the program and are minimal models of
    their Gelfond-Lifschitz reduct, found by trying every interpretation."""
    universe = range(1 << n_atoms)
    out = []
    for i in universe:
        reduct = [(h, p) for h, p, n in zip(heads, bpos, bneg) if not (n & i)]
        if not _models(i, reduct):
            continue
        smaller = [j for j in universe if j != i and (j & ~i) == 0]
        if not any(_models(j, reduct) for j in smaller):
            out.append(i)
    return out


def test_kernel_name_is_python():
    assert kernel.kernel_name() == "python"


def test_kernel_is_complete_on_random_programs():
    sizes = set()
    for seed in range(60):
        heads, bpos, bneg = random_masks(seed)
        expected = answer_sets_by_definition(heads, bpos, bneg, 7)
        assert kernel.answer_sets_masks(heads, bpos, bneg, 7) == expected
        sizes.add(len(expected))
    # the programs are not all trivial: none, one and several answer sets occur
    assert {0, 1} <= sizes and max(sizes) > 1


def test_pure_kernel_basics():
    # single fact: the only answer set is {a}
    assert kernel.answer_sets_masks([1], [0], [0], 1) == [1]
    # empty program: the empty set
    assert kernel.answer_sets_masks([], [], [], 2) == [0]
    # a | b: two minimal models
    assert kernel.answer_sets_masks([0b11], [0], [0], 2) == [1, 2]
    # bare constraint: nothing
    assert kernel.answer_sets_masks([0], [0], [0], 1) == []


def test_pure_kernel_negation():
    # c :- -d ; d :- -c  over bits c=0, d=1
    heads = [0b01, 0b10]
    bpos = [0, 0]
    bneg = [0b10, 0b01]
    assert kernel.answer_sets_masks(heads, bpos, bneg, 2) == [1, 2]


def test_pure_kernel_minimality():
    # a :- b ; b :- a: {a,b} is a model of the reduct but not minimal
    heads = [0b01, 0b10]
    bpos = [0b10, 0b01]
    assert kernel.answer_sets_masks(heads, bpos, [0, 0], 2) == [0]
