import pytest

from wvcount.bench import (
    GenSpec,
    gen_random_3cnf,
    gen_random_elp,
    gen_scholarship,
    run_harness,
    undetermined_students,
)
from wvcount.dp import Thresholds, count_world_views
from wvcount.errors import BruteForceCapExceeded
from wvcount.parser import parse_program, program_to_text
from wvcount.semantics import count_world_views_bruteforce, enumerate_world_views


# ---------------------------------------------------------------------------
# scholarship generator


def test_classic_single_world_view_small():
    for n in range(1, 7):
        for seed in (0, 1, 2):
            prog = gen_scholarship(n, "classic", seed)
            assert count_world_views_bruteforce(prog) == 1
            assert count_world_views(prog) == 1


def test_classic_single_student_interview_decided():
    prog = gen_scholarship(1, "classic", seed=0)
    (wv,) = enumerate_world_views(prog)
    interview = prog.atoms.id("interview_1")
    assert wv.value(interview) is not None  # settled one way or the other


def test_fair_student_gets_interview():
    # find a seed whose single student is of the undetermined kind
    for seed in range(20):
        prog = gen_scholarship(1, "classic", seed)
        if "fair_1" in prog.atoms:
            (wv,) = enumerate_world_views(prog)
            assert wv.value(prog.atoms.id("interview_1")) is True
            assert wv.value(prog.atoms.id("elig_1")) is None
            break
    else:
        pytest.fail("no fair student found in 20 seeds")


def test_many_counts_follow_power_law():
    # frozen witnesses: (students, seed) -> undetermined count u
    witnesses = {1: (2, 0), 2: (3, 0), 3: (4, 3), 4: (4, 4)}
    for u, (n, seed) in witnesses.items():
        prog = gen_scholarship(n, "many", seed)
        assert undetermined_students(prog) == u
        assert count_world_views_bruteforce(prog) == 2 ** u
        assert count_world_views(prog) == 2 ** u


def test_many_three_students_example():
    prog = gen_scholarship(3, "many", seed=0)
    assert undetermined_students(prog) == 2
    assert count_world_views_bruteforce(prog) == 4


def test_generator_determinism():
    a = program_to_text(gen_scholarship(5, "many", seed=9))
    b = program_to_text(gen_scholarship(5, "many", seed=9))
    assert a == b
    c = program_to_text(gen_scholarship(5, "many", seed=10))
    assert a != c


def test_large_alias():
    a = program_to_text(gen_scholarship(4, "large", seed=3))
    b = program_to_text(gen_scholarship(4, "classic", seed=3))
    assert a == b


def test_scholarship_rejects_bad_input():
    with pytest.raises(ValueError):
        gen_scholarship(0)
    with pytest.raises(ValueError):
        gen_scholarship(1, "weird")


# ---------------------------------------------------------------------------
# random programs


def test_random_elp_contract():
    prog = gen_random_elp(4, 2, 6, seed=1)
    again = parse_program(program_to_text(prog))
    assert program_to_text(again) == program_to_text(prog)
    assert prog.eats_mask & ~prog.aats_mask == 0  # epistemic atoms occur plainly


def test_random_elp_empty():
    prog = gen_random_elp(0, 0, 0, seed=5)
    assert prog.rules == ()


def test_random_elp_deterministic():
    a = program_to_text(gen_random_elp(6, 3, 8, seed=42))
    b = program_to_text(gen_random_elp(6, 3, 8, seed=42))
    assert a == b


def test_random_elp_validates_budget():
    with pytest.raises(ValueError):
        gen_random_elp(3, 4, 5, seed=0)


def test_random_3cnf_deterministic():
    assert gen_random_3cnf(6, 10, 3) == gen_random_3cnf(6, 10, 3)


# ---------------------------------------------------------------------------
# harness


def test_harness_agreement():
    specs = [GenSpec(family="random", atoms=6, epistemic=3, rules=8, seed=s) for s in range(8)]
    specs += [GenSpec(family="classic", n=3, seed=1), GenSpec(family="many", n=2, seed=0)]
    report = run_harness(specs, Thresholds())
    assert len(report.rows) == 10
    assert report.failures == 0
    assert all(row.agree for row in report.rows)
    rendered = report.render()
    assert rendered.endswith("10 instances\t0 disagreements\n")
    assert "\t" in rendered.splitlines()[0]


def test_harness_without_oracle():
    report = run_harness([GenSpec(family="classic", n=2, seed=0)], oracle=False)
    assert report.rows[0].oracle is None
    assert report.rows[0].agree is None
    assert report.failures == 0


def test_harness_empty():
    report = run_harness([])
    assert report.rows == [] and report.failures == 0


def test_harness_file_family(tmp_path, running):
    path = tmp_path / "prog.elp"
    path.write_text(program_to_text(running))
    report = run_harness([GenSpec(family="file", path=str(path))])
    assert report.rows[0].count == 3
    assert report.rows[0].agree


def test_harness_cnf_family():
    report = run_harness([GenSpec(family="random3cnf", num_vars=4, clauses=6, seed=2)])
    assert report.failures == 0


def test_harness_caps_reach_the_engine_and_the_oracle(tmp_path, running):
    # The engine's backend and the oracle take the harness's caps.
    path = tmp_path / "prog.elp"
    path.write_text(program_to_text(running))
    specs = [GenSpec(family="file", path=str(path))]
    with pytest.raises(BruteForceCapExceeded):
        run_harness(specs, answer_cap=0)
    with pytest.raises(BruteForceCapExceeded):
        run_harness(specs, wv_cap=0)  # the oracle's guesses; the engine's reducts are plain
    assert run_harness(specs, oracle=False, wv_cap=0).rows[0].count == 3
