"""Base solvers behind a uniform interface.

The internal backend answers every query by brute force within its caps.
The external backend routes each base case by program kind: what its
parse mode expresses goes to a solver process, the rest to an internal
backend.  The program is written to a temporary file in the native text
format, the command template runs with ``{file}`` substituted, and only
the declared output channel is parsed; process exit codes are never read
as results.
"""

from __future__ import annotations

import os
import shlex
import signal
import subprocess
import tempfile
import threading
from dataclasses import dataclass

from . import semantics
from .errors import BackendError, BackendTimeout
from .model import EMPTY_WVI, Program, WVI, bits
from .parser import program_to_text
from .semantics import ANSWER_CAP, WV_CAP, Component, answer_sets, with_wvi_constraints


class InternalBackend:
    """Brute-force solver over the in-process semantics, capped.

    The counting engine calls ``count_wv`` only, on plain and epistemic
    subproblems alike.  ``wv_exists`` is that count read as a truth
    value; ``as_exists`` and ``as_forbid_all`` answer answer-set
    questions on plain programs.  The engine calls none of the three;
    they stay because the benchmark's per-layer tracer patches them on
    this class by name (``perfbench/tracing.py``, ``BACKEND_METHODS``).

    The backend owns the brute-force caps, nonnegative: ``answer_cap``
    bounds the atoms of one answer-set enumeration, ``wv_cap`` the
    epistemic atoms of one world-view enumeration.

    It keeps two memos for its whole life, keyed by ``Component.key``.
    The answer-set memo enumerates a plain component once, whichever
    atoms it is over.  The world-view memo keeps each program's world
    views as true and false masks in local numbers, and each call filters
    them by its assumption in the same numbers (``Component.local_wvi``).
    A program the counting router built carries its ``Component``
    (``Program.component``); only other programs get one here.  A program
    whose enumeration raises is not remembered, so it raises again.  The
    counting drivers build a fresh backend per call unless one is passed
    in, so the memos span one run.
    """

    def __init__(self, answer_cap: int = ANSWER_CAP, wv_cap: int = WV_CAP):
        if answer_cap < 0 or wv_cap < 0:
            raise ValueError("caps must be nonnegative")
        self.answer_cap = answer_cap
        self.wv_cap = wv_cap
        self._memo = {}
        self._wv_memo = {}

    def as_exists(self, program: Program) -> bool:
        return bool(answer_sets(program, self.answer_cap, self._memo))

    def as_forbid_all(self, program: Program, wvi: WVI) -> bool:
        """True iff every answer set satisfies every decided literal."""
        for m in answer_sets(program, self.answer_cap, self._memo):
            if wvi.true & ~m or wvi.false & m:
                return False
        return True

    def wv_exists(self, program: Program, wvi: WVI) -> bool:
        return self.count_wv(program, wvi) > 0

    def count_wv(self, program: Program, wvi: WVI = EMPTY_WVI) -> int:
        """World views agreeing with ``wvi`` exactly on its domain, an atom
        the program never mentions being false.  ``wv_cap`` bounds the
        program's own epistemic atoms; a plain program is one guess."""
        ats = program.ats_mask
        if wvi.domain & ~ats & ~wvi.false:
            return 0  # an unmentioned atom assumed true or undecided
        # A program the counting router did not build carries no component.
        part = program.component or Component(list(bits(ats)), program.rules)
        wvs = self._wv_memo.get(part.key)
        if wvs is None:
            local = part.local
            # Looked up on the module, so a wrapper patched onto it sees the call.
            wvs = [
                (local(w.true), local(w.false))
                for w in semantics.enumerate_world_views(
                    program, self.wv_cap, self.answer_cap, self._memo
                )
            ]
            self._wv_memo[part.key] = wvs
        dom, t, f = part.local_wvi(wvi.restrict(ats) if wvi.domain & ~ats else wvi)
        return sum(1 for wt, wf in wvs if wt & dom == t and wf & dom == f)


@dataclass
class BackendConfig:
    """External solver configuration.

    ``command`` is a whitespace-split template containing exactly one
    ``{file}`` placeholder; ``parse`` selects the output contract: a
    single decimal line (``count``) or a ``SAT`` or ``UNSAT`` line
    (``sat``), and with it the subproblems the solver takes (see
    ``ExternalBackend``); ``timeout`` is in seconds, > 0 and <=
    ``threading.TIMEOUT_MAX``.
    """

    command: str
    parse: str = "count"
    timeout: float = 60.0

    def __post_init__(self):
        if self.command.count("{file}") != 1:
            raise ValueError("command template needs exactly one {file}")
        if self.parse not in ("count", "sat"):
            raise ValueError("parse mode must be 'count' or 'sat'")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # nan fails both tests
            limit = threading.TIMEOUT_MAX
            raise ValueError("timeout must be > 0 and at most %g seconds" % limit)


class ExternalBackend:
    """The one router of base cases by program kind.  The external solver
    takes what its parse mode expresses: epistemic subproblems in
    ``count`` mode, plain ones in ``sat`` mode, read as 1 on a ``SAT``
    line and 0 on an ``UNSAT`` line; other lines are ignored.  Output
    without the mode's answer (no decimal line in ``count`` mode,
    neither or both of ``SAT`` and ``UNSAT`` in ``sat`` mode) raises
    ``BackendError``.  ``internal`` takes the rest; it defaults to a
    fresh ``InternalBackend``.  The solver receives the program with the
    assumption pinned by ``with_wvi_constraints``."""

    def __init__(self, config: BackendConfig, internal: InternalBackend | None = None):
        self.config = config
        self.internal = InternalBackend() if internal is None else internal

    def _run(self, program: Program) -> str:
        # Render before the file exists, so a rendering error leaves no
        # temp file behind.
        text = program_to_text(program)
        with tempfile.NamedTemporaryFile(
            "w", suffix=".elp", delete=False
        ) as handle:
            handle.write(text)
            path = handle.name
        argv = [
            part.replace("{file}", path)
            for part in shlex.split(self.config.command)
        ]
        try:
            proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
            )
        except OSError as exc:
            os.unlink(path)
            raise BackendError("cannot start external solver: %s" % exc) from exc
        try:
            stdout, _stderr = proc.communicate(timeout=self.config.timeout)
        except BaseException as exc:  # a timeout, an interrupt or any other error
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except OSError:
                pass
            proc.communicate()  # reaps the process and closes its pipes
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BackendTimeout(
                    "external solver exceeded %.1fs" % self.config.timeout
                ) from None
            raise
        finally:
            os.unlink(path)
        return stdout

    def count_wv(self, program: Program, wvi: WVI = EMPTY_WVI) -> int:
        counting = self.config.parse == "count"
        if program.is_plain == counting:
            return self.internal.count_wv(program, wvi)
        if wvi.domain:
            program = with_wvi_constraints(program, wvi)
        out = self._run(program)
        lines = [l.strip() for l in out.splitlines() if l.strip()]
        if not counting:
            verdicts = {l for l in lines if l in ("SAT", "UNSAT")}
            if len(verdicts) != 1:
                raise BackendError("expected a SAT or UNSAT line on stdout, got %r" % out)
            return 1 if "SAT" in verdicts else 0
        if len(lines) != 1 or not lines[0].isdecimal():
            raise BackendError(
                "expected a single decimal count on stdout, got %r" % out
            )
        return int(lines[0])
