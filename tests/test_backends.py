import stat
import sys
import tempfile
import textwrap

import pytest

from conftest import wvi_from_names
from wvcount.backends import (
    BackendConfig,
    ExternalBackend,
    InternalBackend,
    StackedBackend,
)
from wvcount.dp import RunStats, Thresholds, count_world_views
from wvcount.errors import BackendError, BackendTimeout
from wvcount.model import EMPTY_WVI, WVI
from wvcount.parser import parse_program


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


# ---------------------------------------------------------------------------
# external backend


def test_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(command="solver")  # no {file}
    with pytest.raises(ValueError):
        BackendConfig(command="solver {file} {file}")
    with pytest.raises(ValueError):
        BackendConfig(command="solver {file}", parse="maybe")


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
    stacked = StackedBackend(
        ExternalBackend(BackendConfig(command=cmd, parse="count", timeout=60)),
        InternalBackend(),
    )
    thr = Thresholds(hybrid=0, abstr=0)  # force immediate delegation
    assert count_world_views(running, thresholds=thr, backend=stacked) == 3


def test_external_sat_marker(tmp_path, running):
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
    assert backend.wv_exists(running, EMPTY_WVI)

    unsat = script(tmp_path, "unsat.py", "print('UNSAT')\n")
    backend2 = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, unsat), parse="sat")
    )
    assert not backend2.wv_exists(running, EMPTY_WVI)


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
    backend = ExternalBackend(
        BackendConfig(command="cat {file}", parse="count", emitter=broken)
    )
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


def test_external_wrong_mode_errors(running):
    backend = ExternalBackend(BackendConfig(command="echo {file}", parse="count"))
    with pytest.raises(BackendError):
        backend.wv_exists(running, EMPTY_WVI)
    backend2 = ExternalBackend(BackendConfig(command="echo {file}", parse="sat"))
    with pytest.raises(BackendError):
        backend2.count_wv(running)


def test_stacked_routing(running):
    cmd = "%s -m wvcount.cli oracle {file}" % sys.executable
    stacked = StackedBackend(
        ExternalBackend(BackendConfig(command=cmd, parse="count")),
        InternalBackend(),
    )
    assert stacked.count_wv(running, EMPTY_WVI) == 3
    assert stacked.count_wv == stacked.external.count_wv
    # the sat-side op falls back to the internal backend
    assert stacked.wv_exists == stacked.internal.wv_exists
    assert stacked.wv_exists(running, wvi_from_names(running.atoms, ["a"]))
    assert not stacked.wv_exists(parse_program("a.\n:- a."), EMPTY_WVI)


def test_stacked_sat_mode_through_the_router(tmp_path):
    # Plain subproblems reach the external solver as one wv_exists call
    # each, on the program with the assumption pinned.
    checker = script(
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
    external = ExternalBackend(
        BackendConfig(command="%s %s {file}" % (sys.executable, checker), parse="sat")
    )
    probes = []
    sat = external._sat

    def counted_sat(program):
        probes.append(program)
        return sat(program)

    external._sat = counted_sat
    stacked = StackedBackend(external, InternalBackend())
    prog = parse_program("a | b.\nc :- K a.\n")
    stats = RunStats()
    assert count_world_views(prog, backend=stacked, stats=stats) == 1
    assert count_world_views(prog) == 1
    assert len(probes) == stats.backend_calls == 3
