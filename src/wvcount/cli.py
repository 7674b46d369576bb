"""Command-line front end.

Exit codes: 0 success, 2 usage, 3 input error, 4 backend failure,
5 brute-force cap exceeded, 6 no world views (prob only), 7 out of
memory, 1 harness disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import fields

from .backends import BackendConfig, ExternalBackend, InternalBackend
from .bench import GenSpec, run_harness
from .decomp import HEURISTICS, build_td, make_nice, td_stats, validate_td
from .dp import RunStats, Thresholds, acceptance_probability, count_world_views
from .errors import (
    BackendError,
    BruteForceCapExceeded,
    NoWorldViews,
    ParseError,
    WvcountError,
)
from .graphs import epistemic_primal_graph, nested_primal_graph, primal_graph
from .model import EMPTY_WVI, mask_of
from .parser import parse_program, parse_query, program_to_text
from .semantics import ANSWER_CAP, WV_CAP, count_world_views_bruteforce, enumerate_world_views


_OPTIONS = {
    "--threshold-hybrid": dict(dest="hybrid", type=int, default=Thresholds.hybrid, metavar="N"),
    "--threshold-abstr": dict(dest="abstr", type=int, default=Thresholds.abstr, metavar="N"),
    "--max-depth": dict(dest="depth", type=int, default=Thresholds.depth, metavar="N"),
    "--cap-atoms": dict(dest="answer_cap", type=int, default=ANSWER_CAP, metavar="N"),
    "--cap-epistemic": dict(dest="wv_cap", type=int, default=WV_CAP, metavar="N"),
    "--heuristic": dict(choices=HEURISTICS, default="min-fill"),
    "--seed": dict(type=int, default=0),
    "--timings": dict(action="store_true", help="add wall time to the output (not reproducible)"),
    "--backend": dict(choices=("internal", "external"), default="internal"),
    "--external-cmd": dict(default=None, metavar="CMD"),
    "--external-parse": dict(choices=("count", "sat"), default=None),
    "--external-timeout": dict(type=float, default=None),
    "--format": dict(choices=("text", "structured"), default="text"),
}
# Each subcommand takes the options it reads.
_CAPS = ("--cap-atoms", "--cap-epistemic")
_DECOMPOSITION = ("--heuristic", "--seed")
_ROUTING = (
    "--threshold-hybrid", "--threshold-abstr", "--max-depth", *_CAPS, *_DECOMPOSITION, "--timings"
)
_BACKEND = ("--backend", "--external-cmd", "--external-parse", "--external-timeout", "--format")


def _add_options(parser, names):
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


class _UsageError(Exception):
    """An option value that parses but is invalid; exits 2 like argparse."""


def _checked(make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ``ValueError`` (an option value or
    generator parameter out of range) raised as a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _thresholds(args) -> Thresholds:
    """``Thresholds`` from the options the command takes, defaults for the rest."""
    given = {f.name: getattr(args, f.name) for f in fields(Thresholds) if hasattr(args, f.name)}
    return _checked(Thresholds, **given)


def _internal(args) -> InternalBackend:
    """The internal base solver under the command's caps; it owns them."""
    return _checked(InternalBackend, args.answer_cap, args.wv_cap)


def _backend(args):
    """The internal base solver, or an external one routing to it."""
    internal = _internal(args)
    options = {name: getattr(args, "external_" + name) for name in ("cmd", "parse", "timeout")}
    given = {name: value for name, value in options.items() if value is not None}
    if args.backend == "internal":
        if given:
            raise _UsageError("--external-%s requires --backend external" % next(iter(given)))
        return internal
    if not args.external_cmd:
        raise _UsageError("--backend external requires --external-cmd")
    config = _checked(BackendConfig, command=given.pop("cmd"), **given)
    return ExternalBackend(config, internal)


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc


def _load_program(path):
    return parse_program(sys.stdin.read() if path == "-" else _read_text(path))


def _emit_result(args, stats: RunStats, seconds, result):
    """Print a ``count`` result, or a ``prob`` one, in ``args.format``."""
    count, probability = (None, result) if args.command == "prob" else (result, None)
    if args.format == "text":
        if probability is not None:
            print("%s (%.6f)" % (probability, float(probability)))
        else:
            print(count)
        return
    record = {
        "count": None if count is None else str(count),
        "probability": None
        if probability is None
        else {"num": probability.numerator, "den": probability.denominator},
        "widths": {"primal": stats.primal_width, "dp": stats.dp_width},
        "epistemic_atoms": stats.eats_size,
        "abstraction_size": stats.abstraction_size,
        "dp_nodes": stats.dp_nodes,
        "backend_calls": stats.backend_calls,
        "nested_calls": stats.nested_calls,
        "components": stats.components,
    }
    if args.timings:
        record["wall_time_s"] = round(seconds, 6)
    print(json.dumps(record, sort_keys=True))


def _cmd_count(args):
    """``count`` and ``prob``: one driver call.  An empty ``prob`` query
    reads as no query, which gives the same probability."""
    program = _load_program(args.file)
    query = parse_query(args.query, program.atoms) if args.query else None
    thresholds = _thresholds(args)
    stats = RunStats()
    start = time.perf_counter()
    driver = acceptance_probability if args.command == "prob" else count_world_views
    result = driver(
        program,
        query,
        thresholds=thresholds,
        backend=_backend(args),
        heuristic=args.heuristic,
        seed=args.seed,
        stats=stats,
    )
    _emit_result(args, stats, time.perf_counter() - start, result)
    return 0


def _cmd_wvs(args):
    program = _load_program(args.file)
    caps = _internal(args)
    for wv in enumerate_world_views(program, caps.wv_cap, caps.answer_cap):
        print(wv.text(program.atoms))
    return 0


def _cmd_oracle(args):
    program = _load_program(args.file)
    query = parse_query(args.query, program.atoms) if args.query else EMPTY_WVI
    caps = _internal(args)
    print(count_world_views_bruteforce(program, query, caps.wv_cap, caps.answer_cap))
    return 0


def _graph(program, kind, abstraction=None):
    """The program's primal, epistemic or nested graph; the nested one
    abstracts onto the named atoms, or onto every epistemic atom."""
    if kind == "primal":
        return primal_graph(program)
    if kind == "epistemic":
        return epistemic_primal_graph(program)
    mask = program.eats_mask
    if abstraction:
        atoms = [a.strip() for a in abstraction.split(",") if a.strip()]
        for a in atoms:
            if a not in program.atoms:
                raise ParseError("abstraction atom %r does not occur in the program" % a)
        mask = mask_of(program.atoms.id(a) for a in atoms)
    return nested_primal_graph(program, mask)


def _cmd_graph(args):
    program = _load_program(args.file)
    graph = _graph(program, args.kind, args.abstraction)
    sys.stdout.write(graph.to_dot(program.atoms, name=args.kind))
    return 0


def _cmd_td(args):
    program = _load_program(args.file)
    graph = _graph(program, args.graph)
    td = build_td(graph, args.heuristic, args.seed)
    assert validate_td(graph, td)
    nice = make_nice(td)
    if args.dot:
        dot = nice.to_dot(name="td", vertex_label=lambda v: graph.label(program.atoms, v))
        sys.stdout.write(dot)
    else:
        sys.stdout.write(td_stats(nice))
    return 0


def _cmd_gen(args):
    spec = GenSpec(
        family=args.family,
        n=args.n,
        atoms=args.atoms,
        epistemic=args.epistemic,
        rules=args.rules,
        num_vars=args.vars,
        clauses=args.clauses,
        seed=args.seed,
    )
    text = program_to_text(_checked(spec.build))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise WvcountError("cannot write %s: %s" % (args.out, exc)) from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_harness(args):
    try:
        raw = json.loads(_read_text(args.spec))
        specs = [GenSpec(**entry) for entry in raw.get("instances", [])]
        oracle = raw.get("oracle", True)
        if type(oracle) is not bool:
            raise ValueError("oracle must be true or false, not %r" % (oracle,))
    except (ValueError, TypeError, AttributeError) as exc:
        raise ParseError("bad harness spec %s: %s" % (args.spec, exc)) from exc
    thresholds = _thresholds(args)
    caps = _internal(args)
    report = run_harness(
        specs,
        thresholds=thresholds,
        oracle=oracle and not args.no_oracle,
        heuristic=args.heuristic,
        seed=args.seed,
        answer_cap=caps.answer_cap,
        wv_cap=caps.wv_cap,
    )
    sys.stdout.write(report.render(with_time=args.timings))
    return 1 if report.failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wvcount",
        description="Count world views of ground epistemic logic programs "
        "and answer probabilistic acceptance queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="world-view count, optionally under a query")
    p.add_argument("file")
    p.add_argument("--query", default=None, metavar="L[,L...]")
    _add_options(p, _ROUTING + _BACKEND)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("prob", help="probability of a query holding in a world view")
    p.add_argument("file")
    p.add_argument("--query", required=True, metavar="L[,L...]")
    _add_options(p, _ROUTING + _BACKEND)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("wvs", help="list world views by brute force")
    p.add_argument("file")
    _add_options(p, _CAPS)
    p.set_defaults(func=_cmd_wvs)

    p = sub.add_parser("oracle", help="brute-force world-view count")
    p.add_argument("file")
    p.add_argument("--query", default=None, metavar="L[,L...]")
    _add_options(p, _CAPS)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("graph", help="export a program graph as DOT")
    p.add_argument("file")
    p.add_argument("--kind", choices=("primal", "epistemic", "nested"), required=True)
    p.add_argument("--abstraction", default=None, metavar="a,b,...")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("td", help="tree decomposition stats or DOT")
    p.add_argument("file")
    p.add_argument("--graph", choices=("primal", "epistemic", "nested"), required=True)
    p.add_argument("--dot", action="store_true")
    _add_options(p, _DECOMPOSITION)
    p.set_defaults(func=_cmd_td)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("family", choices=("classic", "large", "many", "random", "random3cnf"))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--atoms", type=int, default=6)
    p.add_argument("--epistemic", type=int, default=3)
    p.add_argument("--rules", type=int, default=8)
    p.add_argument("--vars", type=int, default=6)
    p.add_argument("--clauses", type=int, default=10)
    p.add_argument("--out", default=None)
    _add_options(p, ("--seed",))
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("harness", help="run a JSON instance spec and verify")
    p.add_argument("spec")
    p.add_argument("--no-oracle", action="store_true")
    _add_options(p, _ROUTING)
    p.set_defaults(func=_cmd_harness)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # a usage error found later names its subcommand
    return parser


def _attach_query_values(argv):
    """Rewrite ``--query -b,c`` as ``--query=-b,c``.  argparse takes a
    separate value that starts with one ``-`` for an option, so a query
    whose first literal is negative would stop with a usage error."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--":
            return out + argv[i:]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        if arg == "--query" and value.startswith("-") and not value.startswith("--"):
            out.append("--query=" + value)
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = parser.parse_known_args(_attach_query_values(argv))
    if extra:  # argparse would report them on the top-level parser
        args.parser.error("unrecognized arguments: %s" % " ".join(extra))
    try:
        return args.func(args)
    except _UsageError as exc:
        args.parser.error(str(exc))
    except ParseError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 3
    except BruteForceCapExceeded as exc:
        print("cap exceeded: %s" % exc, file=sys.stderr)
        return 5
    except NoWorldViews as exc:
        print("no world views: %s" % exc, file=sys.stderr)
        return 6
    except BackendError as exc:
        print("backend failure: %s" % exc, file=sys.stderr)
        return 4
    except WvcountError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        print("out of memory: %s" % exc, file=sys.stderr)
        return 7


if __name__ == "__main__":
    sys.exit(main())
