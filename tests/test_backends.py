import os
import random
import stat
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace

import pytest

from conftest import wvi_from_names
import wvcount.backends
from wvcount.backends import BackendConfig, ExternalBackend, InternalBackend
from wvcount.bench import gen_random_elp
from wvcount.dp import RunStats, Thresholds, acceptance_probability, count_world_views
from wvcount.errors import BackendError, BackendTimeout, BruteForceCapExceeded
from wvcount.model import EMPTY_WVI, WVI, AtomTable, Epistemic, Literal, Program, Rule
from wvcount.parser import parse_program, parse_query
from wvcount.semantics import (
    count_world_views_bruteforce,
    enumerate_world_views,
    with_wvi_constraints,
)


def script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!%s\n%s" % (sys.executable, textwrap.dedent(body)))
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


# ---------------------------------------------------------------------------
# internal backend


def test_internal_as_exists(plain_core):
    backend = InternalBackend()
    assert backend.as_exists(plain_core)
    empty_constraint = parse_program("a.\n:- a.")
    assert not backend.as_exists(empty_constraint)


def test_internal_forbid_all(plain_core):
    backend = InternalBackend()
    # answer set {b,c} lacks a
    assert not backend.as_forbid_all(plain_core, wvi_from_names(plain_core.atoms, ["a"]))
    assert backend.as_forbid_all(plain_core, EMPTY_WVI)


def test_internal_wv_exists(running):
    backend = InternalBackend()
    assert backend.wv_exists(running, wvi_from_names(running.atoms, ["a"]))
    assert not backend.wv_exists(running, wvi_from_names(running.atoms, ["c", "d"]))


def test_internal_count(running):
    backend = InternalBackend()
    assert backend.count_wv(running, EMPTY_WVI) == 3
    assert backend.count_wv(running, wvi_from_names(running.atoms, ["a"])) == 2


def test_internal_count_empty_wvs():
    backend = InternalBackend()
    prog = parse_program("a :- not b.\nb :- a.")
    assert backend.count_wv(prog) == 0


def test_internal_plain_shortcut(plain_core):
    backend = InternalBackend()
    assert backend.count_wv(plain_core) == 1
    # undecided domain atom must be genuinely mixed
    assert backend.wv_exists(plain_core, WVI(domain=1))


def pinned_count(program, wvi):
    """The reference: the world views of the program with ``wvi`` pinned
    by epistemic constraints, counted by the oracle."""
    return count_world_views_bruteforce(with_wvi_constraints(program, wvi))


def mask_draw(rng, mask):
    """A random submask of ``mask``."""
    return sum(1 << a for a in range(mask.bit_length()) if mask >> a & 1 and rng.random() < 0.5)


def test_internal_count_equals_pinned_count():
    rng = random.Random(3)
    seen = {"agree": 0, "undecided": 0, "unmentioned": 0}
    for epistemic in (0, 3):
        for seed in range(30):
            prog = gen_random_elp(6, epistemic, 7, seed)
            extra = [prog.atoms.intern("z1"), prog.atoms.intern("z2")]
            wvs = enumerate_world_views(prog)
            backend = InternalBackend()
            for _ in range(5):
                dom = 0
                for atom in rng.sample(list(range(6)) + extra, rng.randint(0, 4)):
                    dom |= 1 << atom
                if wvs and rng.random() < 0.5:
                    # a world view restricted to the domain, so some agree
                    w = rng.choice(wvs)
                    t, f = w.true & dom, (w.false | dom & ~w.domain) & dom
                else:
                    t = mask_draw(rng, dom)
                    f = mask_draw(rng, dom & ~t)
                wvi = WVI(dom, t, f)
                expected = pinned_count(prog, wvi)
                assert backend.count_wv(prog, wvi) == expected
                assert backend.wv_exists(prog, wvi) == (expected > 0)
                seen["agree"] += expected > 0
                seen["undecided"] += wvi.undecided != 0
                seen["unmentioned"] += dom & ~prog.ats_mask != 0
    assert min(seen.values()) > 30, seen


def test_wv_cap_bounds_the_programs_own_epistemic_atoms():
    # The program's epistemic atoms are a and c; pinning the assumption
    # adds d, one past a cap of 2.  The guesses span a and c only.
    prog = parse_program("a | b.\nc :- K a.\nd :- not c.")
    assumption = wvi_from_names(prog.atoms, ["d", "-c"])
    assert InternalBackend(wv_cap=2).count_wv(prog, assumption) == 1
    with pytest.raises(BruteForceCapExceeded):
        count_world_views_bruteforce(with_wvi_constraints(prog, assumption), eats_cap=2)
    with pytest.raises(BruteForceCapExceeded):
        InternalBackend(wv_cap=1).count_wv(prog, assumption)
    # the same through the router, with the base solver taking depth 0
    thr = Thresholds(hybrid=0, abstr=0)
    backend = InternalBackend(wv_cap=2)
    assert count_world_views(prog, thresholds=thr, backend=backend, assumption=assumption) == 1
    with pytest.raises(BruteForceCapExceeded):
        count_world_views(
            prog, thresholds=thr, backend=InternalBackend(wv_cap=1), assumption=assumption
        )


def renamed(program, order):
    """``program`` with atom ``a`` renamed to ``order[a]``, over a fresh
    table with two unmentioned atoms past the last renamed one."""
    table = AtomTable("r%d" % i for i in range(max(order) + 3))

    def move(literal):
        return Literal(order[literal.atom], literal.positive)

    return Program(
        table,
        tuple(
            Rule(
                tuple(order[a] for a in r.head),
                tuple(replace(el, literal=move(el.literal)) for el in r.body),
            )
            for r in program.rules
        ),
    )


def test_world_view_memo_agrees_with_a_fresh_backend():
    # One backend serves renamed copies of each program under many
    # assumptions; it must count what a backend built for the call counts.
    rng = random.Random(7)
    backend = InternalBackend()
    seen = dict.fromkeys(
        ("agree", "decided", "undecided", "unmentioned true", "unmentioned false",
         "unmentioned undecided"),
        0,
    )
    programs = []
    for seed in range(12):
        prog = gen_random_elp(7, 4, 9, seed)
        # The same objective rules under flipped epistemic negations.
        flipped = prog.with_rules(
            Rule(r.head, tuple(
                replace(el, negated=not el.negated) if isinstance(el, Epistemic) else el
                for el in r.body
            ))
            for r in prog.rules
        )
        programs += [prog, flipped]
    for prog in programs:
        n = len(prog.atoms)
        shuffled = rng.sample(range(n), n)
        # The first three keep the atoms' order, so they share a memo entry.
        for order in (range(n), [a + 3 for a in range(n)], [2 * a + 1 for a in range(n)], shuffled):
            copy = renamed(prog, order)
            wvs = enumerate_world_views(copy)
            for _ in range(8):
                dom = mask_draw(rng, (1 << len(copy.atoms)) - 1)
                if wvs and rng.random() < 0.5:
                    w = rng.choice(wvs)
                    t, f = w.true & dom, (w.false | dom & ~w.domain) & dom
                else:
                    t = mask_draw(rng, dom)
                    f = mask_draw(rng, dom & ~t)
                wvi = WVI(dom, t, f)
                expected = InternalBackend().count_wv(copy, wvi)
                assert backend.count_wv(copy, wvi) == expected
                unmentioned = dom & ~copy.ats_mask
                seen["agree"] += expected > 0
                seen["decided"] += wvi.decided != 0
                seen["undecided"] += wvi.undecided != 0
                seen["unmentioned true"] += unmentioned & t != 0
                seen["unmentioned false"] += unmentioned & f != 0
                seen["unmentioned undecided"] += unmentioned & wvi.undecided != 0
    assert min(seen.values()) > 20, seen
    assert len(backend._wv_memo) <= 2 * len(programs)


def test_world_view_memo_never_keeps_a_capped_program():
    # Three epistemic atoms (a, c, d) against a cap of two: every call
    # enumerates again and raises again.
    prog = parse_program("a | b.\nc :- K a.\nd :- not c.\ne :- not d.")
    backend = InternalBackend(wv_cap=2)
    for _ in range(2):
        with pytest.raises(BruteForceCapExceeded):
            backend.count_wv(prog)
    assert not backend._wv_memo


# ---------------------------------------------------------------------------
# external backend


def test_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(command="solver")  # no {file}
    with pytest.raises(ValueError):
        BackendConfig(command="solver {file} {file}")
    with pytest.raises(ValueError):
        BackendConfig(command="solver {file}", parse="maybe")
    # 1e300 is finite but longer than any wait the platform can time
    for timeout in (float("nan"), float("inf"), 1e300, 0, -1):
        with pytest.raises(ValueError):
            BackendConfig(command="solver {file}", timeout=timeout)


def test_external_count_roundtrip(tmp_path, running):
    # a genuine solver process: this package's own brute-force oracle
    cmd = "%s -m wvcount.cli oracle {file}" % sys.executable
    backend = ExternalBackend(BackendConfig(command=cmd, parse="count", timeout=60))
    assert backend.count_wv(running) == 3
    assert backend.count_wv(running, wvi_from_names(running.atoms, ["a"])) == 2


def test_external_agrees_with_internal(tmp_path, running):
    cmd = "%s -m wvcount.cli oracle {file}" % sys.executable
    external = ExternalBackend(BackendConfig(command=cmd, parse="count", timeout=60))
    internal = InternalBackend()
    for wvi in (EMPTY_WVI, wvi_from_names(running.atoms, ["a"])):
        assert external.count_wv(running, wvi) == internal.count_wv(running, wvi)


def test_external_delegation_through_dp(running):
    cmd = "%s -m wvcount.cli oracle {file}" % sys.executable
    backend = ExternalBackend(BackendConfig(command=cmd, parse="count", timeout=60))
    thr = Thresholds(hybrid=0, abstr=0)  # force immediate delegation
    assert count_world_views(running, thresholds=thr, backend=backend) == 3


def test_external_sat_marker(tmp_path, plain_core):
    sat = script(
        tmp_path,
        "sat.py",
        """
        import sys
        open(sys.argv[1]).read()
        print("some chatter")
        print("SAT")
        """,
    )
    backend = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, sat), parse="sat")
    )
    assert backend.count_wv(plain_core, EMPTY_WVI) == 1

    unsat = script(tmp_path, "unsat.py", "print('UNSAT')\n")
    backend2 = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, unsat), parse="sat")
    )
    assert backend2.count_wv(plain_core, EMPTY_WVI) == 0

    # No answer is no count: empty output, chatter only, or both answers.
    for name, body in (
        ("empty.py", ""),
        ("chatter.py", "print('solving'); print('sat'); print('SATISFIABLE')\n"),
        ("both.py", "print('SAT'); print('UNSAT')\n"),
    ):
        silent = script(tmp_path, name, body)
        backend3 = ExternalBackend(
            BackendConfig(command="%s %s {file}" % (sys.executable, silent), parse="sat")
        )
        with pytest.raises(BackendError, match="expected a SAT or UNSAT line"):
            backend3.count_wv(plain_core, EMPTY_WVI)


def test_external_timeout(tmp_path, running):
    sleeper = script(tmp_path, "sleep.py", "import time\ntime.sleep(60)\n")
    backend = ExternalBackend(
        BackendConfig(
            command="%s %s {file}" % (sys.executable, sleeper),
            parse="count",
            timeout=0.4,
        )
    )
    with pytest.raises(BackendTimeout):
        backend.count_wv(running)


def test_external_error_while_waiting_kills_the_solver(tmp_path, monkeypatch, running):
    sleeper = script(tmp_path, "sleep.py", "import time\ntime.sleep(60)\n")
    backend = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, sleeper), parse="count")
    )
    waited = []
    communicate = subprocess.Popen.communicate

    def failing(proc, *args, **kwargs):
        if not waited:
            waited.append(proc)
            raise ValueError("cannot wait")
        return communicate(proc, *args, **kwargs)

    monkeypatch.setattr(subprocess.Popen, "communicate", failing)
    with pytest.raises(ValueError, match="cannot wait"):
        backend.count_wv(running)
    (proc,) = waited
    assert proc.returncode is not None  # killed and reaped
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # and no process of its group is left


def test_external_rejects_garbage(tmp_path, running):
    # "\u00b2" (superscript two) passes str.isdigit but is no decimal count
    for name, line in (("noisy.py", "models: many"), ("super.py", "\u00b2")):
        noisy = script(tmp_path, name, "print(%r)\n" % line)
        backend = ExternalBackend(
            BackendConfig(command="%s %s {file}" % (sys.executable, noisy), parse="count")
        )
        with pytest.raises(BackendError):
            backend.count_wv(running)


def test_external_emitter_failure_leaves_no_temp_file(tmp_path, monkeypatch, running):
    def broken(program):
        raise ValueError("cannot render")

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(wvcount.backends, "program_to_text", broken)
    backend = ExternalBackend(BackendConfig(command="cat {file}", parse="count"))
    with pytest.raises(ValueError):
        backend.count_wv(running)
    assert list(tmp_path.iterdir()) == []


def test_external_exit_code_is_not_a_count(tmp_path, running):
    # nonzero exit with a clean count line on stdout: the count is parsed
    exiter = script(
        tmp_path, "exit.py", "import sys\nprint(3)\nsys.exit(20)\n"
    )
    backend = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, exiter), parse="count")
    )
    assert backend.count_wv(running) == 3


def oracle_sat_checker(tmp_path):
    """A sat-mode solver script: SAT iff this package's oracle counts at
    least one world view."""
    return script(
        tmp_path,
        "sat.py",
        """
        import contextlib, io, sys
        from wvcount.cli import main
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["oracle", sys.argv[1]])
        print("SAT" if int(out.getvalue()) > 0 else "UNSAT")
        """,
    )


def spy_on_solvers(backend):
    """Record which solver answers each ``count_wv`` of ``backend``."""
    calls = []
    run = backend._run
    count = backend.internal.count_wv

    def external(program):
        calls.append("external")
        return run(program)

    def internal(program, wvi=EMPTY_WVI):
        calls.append("internal")
        return count(program, wvi)

    backend._run = external
    backend.internal.count_wv = internal
    return calls


def test_external_routing(tmp_path, running, plain_core):
    unsat = parse_program("a.\n:- a.")
    a = wvi_from_names(running.atoms, ["a"])
    oracle = "%s -m wvcount.cli oracle {file}" % sys.executable
    checker = "%s %s {file}" % (sys.executable, oracle_sat_checker(tmp_path))
    # count mode: epistemic subproblems go out, plain ones stay internal;
    # sat mode: plain ones go out as 0/1, epistemic ones stay internal
    for parse, command, plain_to, epistemic_to in (
        ("count", oracle, "internal", "external"),
        ("sat", checker, "external", "internal"),
    ):
        backend = ExternalBackend(BackendConfig(command=command, parse=parse))
        calls = spy_on_solvers(backend)
        assert backend.count_wv(running, EMPTY_WVI) == 3
        assert backend.count_wv(running, a) == 2
        assert calls == [epistemic_to] * 2
        calls.clear()
        assert backend.count_wv(plain_core, WVI(domain=1)) == 1
        assert backend.count_wv(unsat, EMPTY_WVI) == 0
        assert calls == [plain_to] * 2


def test_external_sat_mode_through_the_router(tmp_path):
    # Plain subproblems reach the external solver as one run each, on
    # the program with the assumption pinned.
    checker = oracle_sat_checker(tmp_path)
    backend = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, checker), parse="sat")
    )
    probes = []
    run = backend._run

    def counted_run(program):
        probes.append(program)
        return run(program)

    backend._run = counted_run
    prog = parse_program("a | b.\nc :- K a.\n")
    stats = RunStats()
    assert count_world_views(prog, backend=backend, stats=stats) == 1
    assert count_world_views(prog) == 1
    assert len(probes) == stats.backend_calls == 3


def test_bare_external_backend_counts_like_the_internal_one(tmp_path, running):
    # No wrapper: each parse mode's ExternalBackend routes its own base
    # cases.  At the default thresholds every base case here is plain
    # (sat mode sends them out); at the lowered ones every base case is
    # epistemic (count mode sends them out).
    oracle = "%s -m wvcount.cli oracle {file}" % sys.executable
    checker = "%s %s {file}" % (sys.executable, oracle_sat_checker(tmp_path))
    random_elp = gen_random_elp(8, 4, 10, 35)
    assert count_world_views_bruteforce(random_elp) >= 1
    cases = ((running, "c,-d"), (random_elp, "a5"))
    runs = {"count": 0, "sat": 0}
    for thresholds in (Thresholds(), Thresholds(hybrid=3, abstr=2, depth=3)):
        for program, query_text in cases:
            query = parse_query(query_text, program.atoms)
            for driver in (count_world_views, acceptance_probability):
                expected_stats = RunStats()
                expected = driver(program, query, thresholds=thresholds, stats=expected_stats)
                for parse, command in (("count", oracle), ("sat", checker)):
                    backend = ExternalBackend(BackendConfig(command=command, parse=parse))
                    calls = spy_on_solvers(backend)
                    stats = RunStats()
                    result = driver(
                        program, query, thresholds=thresholds, backend=backend, stats=stats
                    )
                    assert result == expected
                    assert (stats.backend_calls, stats.nested_calls) == (
                        expected_stats.backend_calls,
                        expected_stats.nested_calls,
                    )
                    runs[parse] += calls.count("external")
    assert min(runs.values()) > 0, runs
