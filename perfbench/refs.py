"""Reference results computed apart from the engine.

Nothing here imports ``wvcount``: programs are read from the text the
benchmark rendered, and every count is made by plain enumeration or by
a property the instance family guarantees.

* ``count_models``: #SAT of a CNF by DPLL with component splitting and a
  component cache; the reference for ``count_plausible`` on
  ``cnf_to_elp`` programs.
* ``cnf_world_views``: the ``cnf_to_elp`` program has one world view
  (every atom known false) exactly when every clause has a negative
  literal, and none otherwise.
* ``count_world_views``: world views by trying all 3^k guesses over the
  k epistemic atoms, with answer sets taken as minimal models found by
  bitset enumeration over all interpretations.
* ``ranked_students``: the scholarship ``many`` family has 2^u world
  views, u being its number of ``rank_high_`` atoms.
"""

from __future__ import annotations

import itertools

# ---------------------------------------------------------------------------
# Program text


def read_program(text):
    """Rules of a program in the surface syntax that ``program_to_text``
    writes, as (head, positive body, negative body, epistemic body)
    tuples over atom names.  An epistemic element is (kind, atom,
    positive) with kind ``"not"`` for ``not l`` and ``"K"`` for ``K l``.
    """
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if not line.endswith("."):
            raise ValueError("rule without final period: %r" % line)
        head_text, _sep, body_text = line[:-1].partition(":-")
        head = tuple(a.strip() for a in head_text.split("|") if a.strip())
        pos, neg, epi = [], [], []
        for part in (p.strip() for p in body_text.split(",")):
            if not part:
                continue
            words = part.split()
            if len(words) == 2 and words[0] in ("not", "K"):
                atom = words[1]
                positive = not atom.startswith("-")
                epi.append((words[0], atom.lstrip("-"), positive))
            elif len(words) == 1:
                (neg if part.startswith("-") else pos).append(part.lstrip("-"))
            else:
                raise ValueError("unreadable body element %r" % part)
        rules.append((head, tuple(pos), tuple(neg), tuple(epi)))
    return rules


def atom_names(text):
    names = set()
    for head, pos, neg, epi in read_program(text):
        names.update(head, pos, neg, (atom for _kind, atom, _pos in epi))
    return names


def ranked_students(text) -> int:
    """Number of ranked-undetermined students of a scholarship instance."""
    return sum(1 for name in atom_names(text) if name.startswith("rank_high_"))


# ---------------------------------------------------------------------------
# World views by enumeration


def _cube(must_in, must_out, n):
    """Bitset over the 2^n interpretations I (bit I set) that contain
    every atom of ``must_in`` and none of ``must_out``."""
    if must_in & must_out:
        return 0
    b = 1
    for i in range(n):
        if must_in >> i & 1:
            b <<= 1 << i
        elif not must_out >> i & 1:
            b |= b << (1 << i)
    return b


class _Enumerator:
    """Answer sets of plain programs over n atoms, as interpretation
    bitsets.  Every answer set is a minimal model of the program read
    classically, so candidates are the minimal models; each is then
    tested for minimality among the models of its own reduct."""

    def __init__(self, n):
        self.n = n
        self.full = (1 << (1 << n)) - 1
        self.lacks = [_cube(0, 1 << i, n) for i in range(n)]

    def strictly_above(self, b):
        up = 0
        for i in range(self.n):
            up |= (b & self.lacks[i]) << (1 << i)
        for i in range(self.n):
            up |= (up & self.lacks[i]) << (1 << i)
        return up

    def answer_sets(self, rules):
        """``rules``: (head, pos, neg) masks.  Returns interpretation masks."""
        n = self.n
        violated = 0
        for head, pos, neg in rules:
            violated |= _cube(pos, neg | head, n)
        models = self.full & ~violated
        minimal = models & ~self.strictly_above(models)
        out = []
        while minimal:
            low = minimal & -minimal
            minimal ^= low
            interp = low.bit_length() - 1
            reduct_violated = 0
            for head, pos, neg in rules:
                if not neg & interp:
                    reduct_violated |= _cube(pos, head, n)
            below = _cube(0, ~interp & ((1 << n) - 1), n) & ~low
            if not below & ~reduct_violated:
                out.append(interp)
        return out


def count_world_views(text) -> int:
    """Number of world views of a program, by brute force."""
    rules = read_program(text)
    names = sorted(atom_names(text))
    index = {name: i for i, name in enumerate(names)}
    eatoms = sorted({index[a] for r in rules for _k, a, _p in r[3]})
    compiled = []  # (kill_t, kill_f, need_t, need_f, (head, pos, neg))
    for head, pos, neg, epi in rules:
        kill_t = kill_f = need_t = need_f = 0
        for kind, atom, positive in epi:
            bit = 1 << index[atom]
            # "not l" is false once l is known; "K l" is true only then.
            if kind == "not":
                if positive:
                    kill_t |= bit
                else:
                    kill_f |= bit
            elif positive:
                need_t |= bit
            else:
                need_f |= bit
        residue = tuple(
            sum(1 << index[a] for a in part) for part in (head, pos, neg)
        )
        compiled.append((kill_t, kill_f, need_t, need_f, residue))
    enum = _Enumerator(len(names))
    cache = {}
    count = 0
    for guess in itertools.product((0, 1, 2), repeat=len(eatoms)):
        t = f = 0
        for atom, value in zip(eatoms, guess):
            if value == 1:
                t |= 1 << atom
            elif value == 2:
                f |= 1 << atom
        alive = tuple(
            i
            for i, (kill_t, kill_f, need_t, need_f, _res) in enumerate(compiled)
            if not (t & kill_t or f & kill_f or need_t & ~t or need_f & ~f)
        )
        sets = cache.get(alive)
        if sets is None:
            sets = cache[alive] = enum.answer_sets([compiled[i][4] for i in alive])
        if not sets:
            continue
        always = sometimes = sets[0]
        for m in sets[1:]:
            always &= m
            sometimes |= m
        undecided = sum(1 << a for a in eatoms) & ~(t | f)
        if t & ~always or f & sometimes or undecided & ~(sometimes & ~always):
            continue
        count += 1
    return count


# ---------------------------------------------------------------------------
# CNF


def cnf_world_views(clauses) -> int:
    """World views of ``cnf_to_elp(num_vars, clauses)``."""
    return 1 if all(any(lit < 0 for lit in c) for c in clauses) else 0


def count_models(num_vars, clauses) -> int:
    """Models of a CNF over variables 1..num_vars."""
    cls = frozenset(
        frozenset(c) for c in clauses if not any(-lit in c for lit in c)
    )
    used = {abs(lit) for c in cls for lit in c}
    return (1 << (num_vars - len(used))) * _Counter().count(cls)


class _Counter:
    def __init__(self):
        self.cache = {}

    def count(self, cls):
        """Models of ``cls`` over exactly the variables it mentions."""
        if not cls:
            return 1
        if frozenset() in cls:
            return 0
        hit = self.cache.get(cls)
        if hit is not None:
            return hit
        parts = _components(cls)
        if len(parts) > 1:
            result = 1
            for part in parts:
                result *= self.count(part)
                if not result:
                    break
        else:
            result = self._branch(cls)
        self.cache[cls] = result
        return result

    def _branch(self, cls):
        unit = next((c for c in cls if len(c) == 1), None)
        if unit is not None:
            var = abs(next(iter(unit)))
        else:
            freq = {}
            for c in cls:
                for lit in c:
                    freq[abs(lit)] = freq.get(abs(lit), 0) + 1
            var = max(sorted(freq), key=freq.__getitem__)
        n_vars = len({abs(lit) for c in cls for lit in c})
        total = 0
        for lit in (var, -var):
            rest = frozenset(c - {-lit} for c in cls if lit not in c)
            left = len({abs(x) for c in rest for x in c})
            total += self.count(rest) << (n_vars - 1 - left)
        return total


def _components(cls):
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in cls:
        vs = [abs(lit) for lit in c]
        for v in vs:
            parent.setdefault(v, v)
        root = find(vs[0])
        for v in vs[1:]:
            other = find(v)
            if other != root:
                parent[other] = root
    groups = {}
    for c in cls:
        groups.setdefault(find(abs(next(iter(c)))), []).append(c)
    return [frozenset(g) for g in groups.values()]
