import random

from wvcount import kernel


def random_masks(seed, atoms=7, rules=8):
    """Independent head, positive and negative masks, so an atom may occur
    in more than one of them (``a :- a.``, ``a :- b, not b.``)."""
    rng = random.Random(seed)
    heads, bpos, bneg = [], [], []
    for _ in range(rules):
        heads.append(rng.getrandbits(atoms) & rng.getrandbits(atoms))
        bpos.append(rng.getrandbits(atoms) & rng.getrandbits(atoms))
        bneg.append(rng.getrandbits(atoms) & rng.getrandbits(atoms))
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
    for atoms in range(1, 10):
        for seed in range(40):
            heads, bpos, bneg = random_masks(seed, atoms, atoms + 2)
            expected = answer_sets_by_definition(heads, bpos, bneg, atoms)
            assert kernel.answer_sets_masks(heads, bpos, bneg, atoms) == expected
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


# Named cases over bits a=0, b=1: (heads, positive bodies, negative bodies,
# atoms, answer sets).
NAMED = {
    "a :- a.": ([0b01], [0b01], [0], 1, [0]),
    "a :- b, not b.": ([0b01], [0b10], [0b10], 2, [0]),
    "a :- not a.": ([0b01], [0], [0b01], 1, []),
    "a | b :- a.": ([0b11], [0b01], [0], 2, [0]),
    # not head-cycle-free: {a} and {b} are no models, {a, b} is minimal
    "a | b. a :- b. b :- a.": ([0b11, 0b01, 0b10], [0, 0b10, 0b01], [0, 0, 0], 2, [0b11]),
}


def test_named_programs():
    for text, (heads, bpos, bneg, atoms, expected) in NAMED.items():
        assert answer_sets_by_definition(heads, bpos, bneg, atoms) == expected, text
        assert kernel.answer_sets_masks(heads, bpos, bneg, atoms) == expected, text


def test_64_atoms_one_answer_set():
    # a0 | a1.  a(i+1) :- a(i) around a cycle of 64 atoms: every model is
    # all atoms, which the disjunctive minimality check must confirm.
    n = 64
    heads = [0b11] + [1 << ((i + 1) % n) for i in range(n)]
    bpos = [0] + [1 << i for i in range(n)]
    assert kernel.answer_sets_masks(heads, bpos, [0] * (n + 1), n) == [(1 << n) - 1]


def test_64_atoms_no_classical_model():
    # a(i) | b(i) for 32 pairs, :- a(i). and :- b(31).
    heads = [0b11 << 2 * i for i in range(32)] + [0] * 33
    bpos = [0] * 32 + [1 << 2 * i for i in range(32)] + [1 << 63]
    assert kernel.answer_sets_masks(heads, bpos, [0] * 65, 64) == []
