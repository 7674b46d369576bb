"""Instance generators and a verification harness.

The scholarship family builds one independent gadget per student.  A
student's eligibility is either settled by the plain rules (high or low
chance) or left open, in which case an epistemic rule derives an
interview; settled or not, each student contributes exactly one world
view.  The "many" variant additionally ranks some students' chances with
a two-way undetermined pair, doubling the world views per such student,
so an instance with u undetermined-chance students has exactly 2^u world
views.  Generation is a pure function of (family, parameters, seed).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, fields
from typing import Optional

from .dp import RunStats, Thresholds, count_world_views
from .errors import ParseError, WvcountError
from .model import (
    EMPTY_WVI,
    AtomTable,
    Epistemic,
    Literal,
    Objective,
    Program,
    Rule,
    bits,
)
from .semantics import cnf_to_elp, count_world_views_bruteforce


def _interview_rule(interview: int, elig: int) -> Rule:
    # interview :- -K elig, -K -elig.  (eligibility not determined either way)
    return Rule(
        (interview,),
        (
            Epistemic(False, Literal(elig, True)),
            Epistemic(False, Literal(elig, False)),
        ),
    )


def gen_scholarship(n: int, mode: str = "classic", seed: int = 0) -> Program:
    """A scholarship-eligibility instance with n independent students.

    ``classic`` (and its size-scaled "large" use) has exactly one world
    view for every n; ``many`` has 2^u world views, where u counts the
    students whose chance ranking came out undetermined.
    """
    if n < 1:
        raise ValueError("need at least one student")
    if mode not in ("classic", "large", "many"):
        raise ValueError("unknown scholarship mode %r" % mode)
    rng = random.Random(seed)
    table = AtomTable()
    rules = []
    for i in range(1, n + 1):
        kind = rng.choice(("high", "low", "fair"))
        ranked = mode == "many" and rng.random() < 0.5
        elig = table.intern("elig_%d" % i)
        interview = table.intern("interview_%d" % i)
        if kind == "high":
            high = table.intern("high_%d" % i)
            rules.append(Rule((high,), ()))
            rules.append(Rule((elig,), (Objective(Literal(high, True)),)))
        elif kind == "low":
            low = table.intern("low_%d" % i)
            rules.append(Rule((low,), ()))
            rules.append(
                Rule(
                    (),
                    (
                        Objective(Literal(elig, True)),
                        Objective(Literal(low, True)),
                    ),
                )
            )
        else:
            fair = table.intern("fair_%d" % i)
            reject = table.intern("reject_%d" % i)
            rules.append(Rule((fair,), ()))
            rules.append(Rule((elig, reject), (Objective(Literal(fair, True)),)))
        rules.append(_interview_rule(interview, elig))
        if ranked:
            hi = table.intern("rank_high_%d" % i)
            lo = table.intern("rank_low_%d" % i)
            rules.append(Rule((hi,), (Epistemic(False, Literal(lo, True)),)))
            rules.append(Rule((lo,), (Epistemic(False, Literal(hi, True)),)))
    return Program(table, tuple(rules))


def undetermined_students(program: Program) -> int:
    """Number of ranked-undetermined students in a "many" instance."""
    return sum(1 for name in program.atoms.names if name.startswith("rank_high_"))


def gen_random_elp(atoms: int, epistemic_atoms: int, rules: int, seed: int) -> Program:
    """Random well-formed ELP for oracle testing.

    Every epistemic atom also occurs non-epistemically; a padding rule
    ``x :- x.`` (semantically inert) is added where a random draw left an
    epistemic atom without an objective occurrence.
    """
    if epistemic_atoms > atoms:
        raise ValueError("epistemic_atoms must not exceed atoms")
    rng = random.Random(seed)
    table = AtomTable("a%d" % (i + 1) for i in range(atoms))
    pool = list(range(atoms))
    epool = sorted(rng.sample(pool, epistemic_atoms)) if epistemic_atoms else []
    out = []
    for _ in range(rules):
        n_epi = rng.randint(0, min(2, len(epool)))
        epi_atoms = rng.sample(epool, n_epi)
        rest = [a for a in pool if a not in epi_atoms]
        n_head = rng.randint(0, min(2, len(rest)))
        head = rng.sample(rest, n_head)
        rest = [a for a in rest if a not in head]
        n_obj = rng.randint(0, min(2, len(rest)))
        obj_atoms = rng.sample(rest, n_obj)
        body = [
            Objective(Literal(a, rng.random() >= 0.4)) for a in obj_atoms
        ]
        body += [
            Epistemic(rng.random() < 0.3, Literal(a, rng.random() >= 0.4))
            for a in epi_atoms
        ]
        if not head and not body:
            continue
        out.append(Rule(tuple(head), tuple(body)))
    program = Program(table, tuple(out))
    for a in bits(program.eats_mask & ~program.aats_mask):
        out.append(Rule((a,), (Objective(Literal(a, True)),)))
    return Program(table, tuple(out))


def gen_random_3cnf(num_vars: int, num_clauses: int, seed: int):
    """Random 3-CNF as DIMACS-style clause list."""
    if num_vars < 1:
        raise ValueError("need at least one variable")
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), min(3, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


@dataclass
class GenSpec:
    """One harness instance: a generator family plus its parameters."""

    family: str
    n: int = 0
    atoms: int = 0
    epistemic: int = 0
    rules: int = 0
    num_vars: int = 0
    clauses: int = 0
    seed: int = 0
    path: Optional[str] = None

    def __post_init__(self):
        # Each field must have exactly its declared type: a harness file
        # could give "3", 1.5 or true where an int goes.
        allowed = {"str": (str,), "int": (int,), "Optional[str]": (str, type(None))}
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) not in allowed[f.type]:
                raise ValueError("%s must be %s, not %r" % (f.name, f.type, value))

    def label(self) -> str:
        if self.family == "file":
            return "file:%s" % self.path
        if self.family in ("classic", "large", "many"):
            return "%s[n=%d,seed=%d]" % (self.family, self.n, self.seed)
        if self.family == "random":
            return "random[a=%d,e=%d,r=%d,seed=%d]" % (
                self.atoms,
                self.epistemic,
                self.rules,
                self.seed,
            )
        return "random3cnf[v=%d,c=%d,seed=%d]" % (
            self.num_vars,
            self.clauses,
            self.seed,
        )

    def build(self) -> Program:
        if self.family in ("classic", "large", "many"):
            mode = "classic" if self.family == "large" else self.family
            return gen_scholarship(self.n, mode, self.seed)
        if self.family == "random":
            return gen_random_elp(self.atoms, self.epistemic, self.rules, self.seed)
        if self.family == "random3cnf":
            num_vars = self.num_vars
            clauses = gen_random_3cnf(num_vars, self.clauses, self.seed)
            return cnf_to_elp(num_vars, clauses)
        if self.family == "file":
            from .parser import parse_program

            try:
                with open(self.path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, TypeError) as exc:
                raise ParseError("cannot read %s: %s" % (self.path, exc)) from exc
            return parse_program(text)
        raise WvcountError("unknown generator family %r" % self.family)


@dataclass
class HarnessRow:
    label: str
    count: int
    oracle: Optional[int]
    agree: Optional[bool]
    width: int
    seconds: float


@dataclass
class HarnessReport:
    rows: list = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if r.agree is False)

    def render(self, with_time: bool = False) -> str:
        lines = []
        for r in self.rows:
            cells = [
                r.label,
                str(r.count),
                "-" if r.oracle is None else str(r.oracle),
                "-" if r.agree is None else ("ok" if r.agree else "MISMATCH"),
                str(r.width),
            ]
            if with_time:
                cells.append("%.3f" % r.seconds)
            lines.append("\t".join(cells))
        lines.append(
            "total\t%d instances\t%d disagreements" % (len(self.rows), self.failures)
        )
        return "\n".join(lines) + "\n"


def run_harness(
    specs,
    thresholds: Optional[Thresholds] = None,
    oracle: bool = True,
    heuristic: str = "min-fill",
    seed: int = 0,
) -> HarnessReport:
    """Count every instance with the DP engine and, when asked, cross-check
    against the brute-force oracle."""
    thresholds = thresholds or Thresholds()

    def one(spec: GenSpec) -> HarnessRow:
        try:
            program = spec.build()
        except ValueError as exc:  # generator parameters out of range
            raise ParseError("bad harness instance %s: %s" % (spec.label(), exc)) from exc
        stats = RunStats()
        start = time.perf_counter()
        count = count_world_views(
            program,
            thresholds=thresholds,
            heuristic=heuristic,
            seed=seed,
            stats=stats,
        )
        elapsed = time.perf_counter() - start
        expected = None
        agree = None
        if oracle:
            expected = count_world_views_bruteforce(
                program,
                EMPTY_WVI,
                thresholds.wv_cap,
                thresholds.answer_cap,
            )
            agree = expected == count
        return HarnessRow(
            spec.label(), count, expected, agree, stats.primal_width, elapsed
        )

    return HarnessReport([one(s) for s in specs])
