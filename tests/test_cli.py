import json
import os
import subprocess
import sys

import pytest

from conftest import RUNNING_PATH
from wvcount.backends import InternalBackend
from wvcount.cli import _thresholds, build_parser, main
from wvcount.dp import Thresholds


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "wvcount.cli"] + args,
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_count(capsys):
    assert main(["count", RUNNING_PATH]) == 0
    assert capsys.readouterr().out == "3\n"


def test_count_with_query(capsys):
    assert main(["count", RUNNING_PATH, "--query", "a,-b"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_prob(capsys):
    assert main(["prob", RUNNING_PATH, "--query", "a,-b"]) == 0
    out = capsys.readouterr().out
    assert out.split()[0] == "2/3"
    assert "0.666667" in out


def test_oracle(capsys):
    assert main(["oracle", RUNNING_PATH, "--query", "a,-b"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_query_may_start_with_a_negative_literal(capsys):
    # argparse reads a separate "-b,c" as an option; both forms must work.
    expected_out = {"prob": "1/3 (0.333333)\n", "count": "1\n", "oracle": "1\n"}
    for command, expected in expected_out.items():
        for query_args in (["--query", "-b,c"], ["--query=-b,c"]):
            assert main([command, RUNNING_PATH] + query_args) == 0
            assert capsys.readouterr().out == expected
    run = run_cli(["prob", RUNNING_PATH, "--query", "-b,c"])
    assert (run.returncode, run.stdout) == (0, "1/3 (0.333333)\n")


def test_wvs(capsys):
    assert main(["wvs", RUNNING_PATH]) == 0
    # in guess order: atoms undecided, then true, then false, the first
    # atom slowest
    assert capsys.readouterr().out.splitlines() == ["a -b c -d", "a -b -c d", "-a b c -d"]


def test_structured_output(capsys):
    assert main(["count", RUNNING_PATH, "--format", "structured"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["count"] == "3"
    assert record["probability"] is None
    assert record["widths"]["dp"] >= 1
    assert record["backend_calls"] > 0
    assert "wall_time_s" not in record


def test_structured_prob_with_timings(capsys):
    assert main(
        ["prob", RUNNING_PATH, "--query", "a,-b", "--format", "structured", "--timings"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["probability"] == {"num": 2, "den": 3}
    assert record["wall_time_s"] >= 0


def test_graph_nested(capsys):
    assert main(
        ["graph", RUNNING_PATH, "--kind", "nested", "--abstraction", "b,c,d"]
    ) == 0
    out = capsys.readouterr().out
    assert '"b^e" -- "c^e";' in out
    assert '"c^e" -- "d^e";' in out
    assert '"a^e"' not in out


def test_graph_primal(capsys):
    assert main(["graph", RUNNING_PATH, "--kind", "primal"]) == 0
    out = capsys.readouterr().out
    assert '"a^a" -- "a^e";' in out


DOT_DIR = os.path.join(os.path.dirname(__file__), "dot")


@pytest.mark.parametrize(
    "name, args",
    [
        ("graph-primal", ["graph", "--kind", "primal"]),
        ("graph-epistemic", ["graph", "--kind", "epistemic"]),
        ("graph-nested", ["graph", "--kind", "nested"]),
        ("graph-nested-bcd", ["graph", "--kind", "nested", "--abstraction", "b,c,d"]),
        ("td-primal", ["td", "--graph", "primal", "--dot"]),
        ("td-nested", ["td", "--graph", "nested", "--dot"]),
    ],
)
def test_dot_output_is_pinned(capsys, name, args):
    # The whole DOT text of the running example, byte for byte: vertex
    # labels, their order, styles, and the decomposition's nodes.
    assert main(args[:1] + [RUNNING_PATH] + args[1:]) == 0
    with open(os.path.join(DOT_DIR, name + ".dot"), "r", encoding="utf-8") as handle:
        assert capsys.readouterr().out == handle.read()


def test_td_stats(capsys):
    assert main(["td", RUNNING_PATH, "--graph", "epistemic"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("width: 2\n")
    assert "nice nodes:" in out


def test_td_dot(capsys):
    assert main(["td", RUNNING_PATH, "--graph", "nested", "--dot"]) == 0
    assert capsys.readouterr().out.startswith("graph td {")


def test_gen_writes_file(tmp_path, capsys):
    out = tmp_path / "inst.elp"
    assert main(["gen", "classic", "--n", "3", "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "interview_1" in text
    assert main(["count", str(out)]) == 0
    assert capsys.readouterr().out == "1\n"


def test_gen_unwritable_out_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "inst.elp"
    assert main(["gen", "classic", "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: cannot write %s: " % out)


def test_harness_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "instances": [
                    {"family": "classic", "n": 2, "seed": 0},
                    {"family": "random", "atoms": 5, "epistemic": 2, "rules": 6, "seed": 3},
                ]
            }
        )
    )
    assert main(["harness", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out


# exit codes


def test_exit_usage():
    proc = run_cli(["count"])
    assert proc.returncode == 2


def test_exit_input_error(tmp_path):
    bad = tmp_path / "bad.elp"
    bad.write_text("a :- --b.")
    assert main(["count", str(bad)]) == 3
    assert main(["count", str(tmp_path / "missing.elp")]) == 3
    assert main(["count", RUNNING_PATH, "--query", "zz"]) == 3
    for command in ("count", "prob", "oracle"):
        assert main([command, RUNNING_PATH, "--query", "a,-a"]) == 3


def test_exit_usage_on_invalid_option_values(capsys):
    for args in (
        ["count", RUNNING_PATH, "--threshold-abstr", "50"],
        ["count", RUNNING_PATH, "--max-depth", "-1"],
        ["count", RUNNING_PATH, "--cap-atoms", "-1"],
        ["count", RUNNING_PATH, "--cap-epistemic", "-3"],
        ["oracle", RUNNING_PATH, "--cap-atoms", "-1"],
        ["wvs", RUNNING_PATH, "--cap-epistemic", "-3"],
        ["harness", os.path.join(os.path.dirname(RUNNING_PATH), "harness.json"), "--cap-atoms", "-1"],
        ["gen", "random", "--atoms", "3", "--epistemic", "5"],
        ["gen", "classic", "--n", "0"],
        ["gen", "random3cnf", "--vars", "0"],
        # negative counts, each named, not written as an empty program
        ["gen", "random", "--atoms", "3", "--epistemic", "1", "--rules", "-3"],
        ["gen", "random", "--atoms", "3", "--epistemic", "-1"],
        ["gen", "random", "--atoms", "-1"],
        ["gen", "random3cnf", "--vars", "3", "--clauses", "-2"],
        # each subcommand takes only the options it reads
        ["harness", RUNNING_PATH, "--backend", "external", "--external-cmd", "false {file}"],
        ["harness", RUNNING_PATH, "--format", "structured"],
        ["graph", RUNNING_PATH, "--kind", "primal", "--max-depth", "7"],
        ["graph", RUNNING_PATH, "--kind", "primal", "--seed", "1"],
        ["td", RUNNING_PATH, "--graph", "primal", "--cap-atoms", "3"],
        ["wvs", RUNNING_PATH, "--threshold-abstr", "5"],
        ["oracle", RUNNING_PATH, "--heuristic", "min-degree"],
        ["gen", "classic", "--timings"],
    ) + tuple(
        # the internal backend would ignore them, though these thresholds
        # send every subproblem to the backend
        [command, RUNNING_PATH, "--query", "a", "--threshold-hybrid", "0", "--threshold-abstr", "0",
         option, value, *backend]
        for command in ("count", "prob")
        for option, value in (
            ("--external-cmd", "false {file}"),
            ("--external-parse", "sat"),
            ("--external-timeout", "5"),
        )
        for backend in ([], ["--backend", "internal"])
    ) + tuple(
        # rejected before any solver starts, though these thresholds
        # send every subproblem to the backend
        ["count", RUNNING_PATH, "--threshold-hybrid", "0", "--threshold-abstr", "0",
         "--backend", "external", "--external-cmd", cmd, "--external-timeout", timeout]
        for cmd, timeout in (
            ("cat", "60"),
            ("cat {file}", "nan"),
            ("cat {file}", "inf"),
            ("cat {file}", "1e300"),
            ("cat {file}", "0"),
            ("cat {file}", "-1"),
        )
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        # Every usage error names the subcommand it was given to, an
        # option that subcommand does not take included.
        assert err.startswith("usage: wvcount %s " % args[0]), (args, err)


def test_exit_usage_on_unrecognized_arguments(capsys):
    # argparse reports a subcommand's leftovers on the top-level parser;
    # the CLI reports them on the subcommand's own.
    for args, extra in (
        (["harness", RUNNING_PATH, "--format", "structured"], "--format structured"),
        (["count", RUNNING_PATH, "--bogus"], "--bogus"),
        (["prob", RUNNING_PATH, "--query", "a", "stray"], "stray"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wvcount %s " % args[0])
        assert err.endswith("wvcount %s: error: unrecognized arguments: %s\n" % (args[0], extra))


def test_exit_usage_on_external_backend_without_command(capsys):
    for command in ("count", "prob"):
        with pytest.raises(SystemExit) as exc:
            main([command, RUNNING_PATH, "--query", "a", "--backend", "external"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: wvcount %s " % command)
        assert err.endswith("error: --backend external requires --external-cmd\n")


def test_option_defaults_are_the_default_thresholds():
    # ... and the cap options default to the base solver's caps
    args = build_parser().parse_args(["count", "x.elp"])
    assert _thresholds(args) == Thresholds()
    backend = InternalBackend()
    assert (args.answer_cap, args.wv_cap) == (backend.answer_cap, backend.wv_cap)


def test_exit_input_error_on_bad_atoms_and_harness_files(tmp_path, capsys):
    assert main(["graph", RUNNING_PATH, "--kind", "nested", "--abstraction", "nosuch"]) == 3
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{bad")
    unknown_key = tmp_path / "key.json"
    unknown_key.write_text(json.dumps({"instances": [{"family": "classic", "nosuch": 1}]}))
    missing_path = tmp_path / "file.json"
    missing_path.write_text(
        json.dumps({"instances": [{"family": "file", "path": str(tmp_path / "none.elp")}]})
    )
    # generator parameters out of range are input errors too, not disagreements
    too_many_epistemic = tmp_path / "random.json"
    too_many_epistemic.write_text(
        json.dumps({"instances": [{"family": "random", "atoms": 3, "epistemic": 5}]})
    )
    no_students = tmp_path / "classic.json"
    no_students.write_text(json.dumps({"instances": [{"family": "classic", "n": 0}]}))
    no_variables = tmp_path / "cnf.json"
    no_variables.write_text(
        json.dumps({"instances": [{"family": "random3cnf", "num_vars": 0, "clauses": 2}]})
    )
    negative = []
    for i, entry in enumerate((
        {"family": "random", "atoms": 3, "epistemic": 1, "rules": -3},
        {"family": "random", "atoms": 3, "epistemic": -1},
        {"family": "random", "atoms": -1},
        {"family": "random3cnf", "num_vars": 3, "clauses": -2},
    )):
        negative.append(tmp_path / ("negative%d.json" % i))
        negative[-1].write_text(json.dumps({"instances": [entry]}))
    # so are wrong-typed fields: a string, a float, a bool where an int goes
    wrong_types = []
    for i, entry in enumerate((
        {"family": "classic", "n": "3"},
        {"family": "classic", "n": 3, "seed": 1.5},
        {"family": "classic", "n": True},
    )):
        wrong_types.append(tmp_path / ("typed%d.json" % i))
        wrong_types[-1].write_text(json.dumps({"instances": [entry]}))
    # the oracle switch must be a JSON boolean: "no" would read as true
    for i, oracle in enumerate(("no", 0, None)):
        wrong_types.append(tmp_path / ("oracle%d.json" % i))
        wrong_types[-1].write_text(json.dumps({"instances": [], "oracle": oracle}))
    for spec in (
        tmp_path / "missing.json", malformed, unknown_key, missing_path,
        too_many_epistemic, no_students, no_variables, *negative, *wrong_types,
    ):
        assert main(["harness", str(spec)]) == 3
    err = capsys.readouterr().err
    assert err.count("input error:") == 18
    for name in ("rules", "epistemic_atoms", "atoms", "num_clauses"):
        assert ": %s must not be negative" % name in err


def test_exit_cap_exceeded(tmp_path):
    big = tmp_path / "big.elp"
    text = "".join("x%d :- not y%d.\ny%d.\n" % (i, i, i) for i in range(13))
    big.write_text(text)
    assert main(["wvs", str(big)]) == 5
    # cap 0 is legal: the running example needs an answer-set enumeration
    assert main(["count", RUNNING_PATH, "--cap-atoms", "0"]) == 5
    assert main(["count", RUNNING_PATH, "--cap-epistemic", "0"]) == 0


def test_exit_no_world_views(tmp_path):
    prog = tmp_path / "none.elp"
    prog.write_text("a :- not b.\nb :- a.\n")
    assert main(["prob", str(prog), "--query", "a"]) == 6


def test_exit_backend_failure(tmp_path):
    assert (
        main(
            [
                "count",
                RUNNING_PATH,
                "--backend",
                "external",
                "--external-cmd",
                "echo nonsense {file}",
                "--threshold-hybrid",
                "0",
                "--threshold-abstr",
                "0",
            ]
        )
        == 4
    )


def test_exit_backend_failure_on_sat_mode_output_without_an_answer():
    # The default thresholds send plain base cases to a sat-mode solver.
    for command in ("count", "prob"):
        args = [command, RUNNING_PATH, "--query", "a", "--backend", "external",
                "--external-parse", "sat", "--external-cmd", "false {file}"]
        assert main(args) == 4


def test_byte_reproducibility(tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="random")
    many = str(tmp_path / "many.elp")
    assert main(["gen", "many", "--n", "12", "--seed", "5", "--out", many]) == 0
    split = run_cli(["count", many, "--format", "structured"], env=env)
    assert json.loads(split.stdout)["components"] > 1
    for args in (
        ["count", RUNNING_PATH, "--seed", "3", "--format", "structured"],
        ["count", many, "--format", "structured"],
        ["prob", many, "--query", "-rank_high_1,rank_high_4", "--format", "structured"],
        ["prob", RUNNING_PATH, "--query", "a,-b", "--seed", "3"],
        ["wvs", RUNNING_PATH],
        ["graph", RUNNING_PATH, "--kind", "primal"],
        ["td", RUNNING_PATH, "--graph", "nested"],
        ["gen", "many", "--n", "4", "--seed", "9"],
    ):
        first = run_cli(args, env=env)
        second = run_cli(args, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
