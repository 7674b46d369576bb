"""World-view counting benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/``.  Prints a summary and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Results and spans are also written under ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and the measuring method.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

SETUP_REPS = 7  # at least this many set-ups ...
SETUP_MIN_S = 2.0  # ... and as many more as fit in this time

# The host's speed changes from one second to the next.  A timer runs a
# fixed unit of pure-Python work every SAMPLE_S seconds while operations
# run, and every time is scaled to a host on which the unit takes
# CAL_NOMINAL seconds.
SAMPLE_S = 0.01
CAL_NOMINAL = 0.0003
MIN_SAMPLES = 5  # an operation shorter than these is scaled by the latest

# The engine's graphs key sets and dicts on (atom, tag) tuples, whose
# hashes follow the per-process string hash seed; on ``query`` one hash
# seed ran 26% slower than another with identical counts.  Runs pin it.
HASH_SEED = "0"

clock = time.perf_counter


_LOOKUP = {i: (i * 7919) & 511 for i in range(1024)}


def calibration_unit():
    """Fixed pure-Python work in three parts of about equal time, because
    host noise slows them unequally: allocating dict, set and big-int
    updates; lookups in a prebuilt dict; small-int arithmetic."""
    table = {}
    seen = set()
    mask = 0
    for i in range(200):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        seen.add((key, i & 31))
        mask ^= 1 << (i & 255)
    acc = len(table) + len(seen) + mask.bit_count()
    for key in range(1024):
        acc ^= _LOOKUP[key]
    for i in range(640):
        acc = (acc * 5 + i) & 127
        if acc & 1:
            acc ^= 3
    return acc


class HostSpeed:
    """Times calls and scales them by the host speed sampled during them.

    While active, SIGALRM fires every SAMPLE_S seconds and its handler
    times one calibration unit.  The handler's own time is subtracted
    from the timed call.
    """

    def __init__(self):
        self.samples = []
        self.busy = 0.0

    def _sample(self, _signum=None, _frame=None):
        start = clock()
        calibration_unit()
        took = clock() - start
        self.samples.append(took)
        self.busy += took

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn):
        """``fn()``'s result, its seconds, and its seconds at nominal speed."""
        first, busy = len(self.samples), self.busy
        start = clock()
        result = fn()
        elapsed = clock() - start - (self.busy - busy)
        recent = self.samples[max(0, min(first, len(self.samples) - MIN_SAMPLES)):]
        return result, elapsed, elapsed * CAL_NOMINAL / statistics.median(recent)


def import_engine():
    """Import ``wvcount`` afresh from the checkout's ``src``."""
    for name in [m for m in sys.modules if m == "wvcount" or m.startswith("wvcount.")]:
        del sys.modules[name]
    wv = importlib.import_module("wvcount")
    gen = importlib.import_module("wvcount.bench")
    if os.path.dirname(os.path.abspath(wv.__file__)) != os.path.join(SRC, "wvcount"):
        raise ImportError("wvcount was not imported from %s" % SRC)
    return wv, gen


def setup(workload, seed):
    """What a CLI user pays before counting: import the package, build the
    inputs, render them to text and parse them back."""
    wv, gen = import_engine()
    cases = workloads.build(workload, seed, wv, gen)
    programs = {}
    for case in cases:
        if case.text not in programs:
            programs[case.text] = wv.parse_program(case.text)
    return wv, cases, workloads.bind(cases, programs, wv)


def measure_setup(workload, seed):
    """Median scaled seconds of repeated set-ups, and the last one's state."""
    samples = []
    start = clock()
    with HostSpeed() as speed:
        while len(samples) < SETUP_REPS or clock() - start < SETUP_MIN_S:
            gc.collect()
            state, _raw, scaled = speed.timed(lambda: setup(workload, seed))
            samples.append(scaled)
    return statistics.median(samples), state


def attempt(call, stats):
    try:
        return call(stats)
    except Exception as exc:  # a failed operation; the run goes on
        traceback.print_exc(file=sys.stderr)
        return exc


class Pass:
    """One run of every operation, in workload order."""

    def __init__(self, wv, calls, speed, tracer=None):
        self.traced = tracer is not None
        self.raw = []  # seconds per operation
        self.scaled = []  # the same, at nominal host speed
        self.results = []
        self.stats = []
        gc.collect()
        if tracer:
            tracer.reset()
            tracer.install(wv)
        try:
            for call in calls:
                stats = wv.RunStats()
                result, raw, scaled = speed.timed(lambda: attempt(call, stats))
                self.raw.append(raw)
                self.scaled.append(scaled)
                self.results.append(result)
                self.stats.append(stats)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            self.spans = list(tracer.spans)
            self.counts = dict(tracer.counts)

    @property
    def wall(self):
        return sum(self.scaled)

    @property
    def scale(self):
        return self.wall / sum(self.raw)


def run_passes(wv, calls, seconds, tracer=None):
    """Passes until one more would pass ``seconds`` (at least one; with a
    tracer, untraced and traced passes alternate, at least one each)."""
    passes = []
    start = clock()
    with HostSpeed() as speed:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            t0 = clock()
            passes.append(Pass(wv, calls, speed, tracer if traced else None))
            last = clock() - t0
            if len(passes) >= (1 if tracer is None else 2) and clock() - start + last > seconds:
                return passes


def check(cases, passes):
    """Failed operations over all passes; each result must equal its
    case's reference, computed apart from the engine."""
    expected = [case.reference() for case in cases]
    failed = 0
    for p in passes:
        for case, want, result in zip(cases, expected, p.results):
            if isinstance(result, Exception) or result != want:
                failed += 1
                print("# FAILED %s: got %r, expected %r" % (case.label, result, want))
    return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_s, passes):
    """Each operation's time is its median over the run's passes: a pass
    costs the sum of those, its slowest operation their maximum."""
    per_op = [statistics.median(times) for times in zip(*(p.scaled for p in passes))]
    return {
        "wall_s": metric(sum(per_op), "s"),
        "op_max_s": metric(max(per_op), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(parse_s, passes):
    """Medians over the traced passes; counts must repeat exactly."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    rows = []
    for p in traced:
        row = tracing.layer_metrics(p.spans, p.counts)
        for key, value in row.items():
            if isinstance(value, float):
                row[key] = value * p.scale
        row["dp.nested_calls"] = sum(s.nested_calls for s in p.stats)
        row["dp.backend_calls"] = sum(s.backend_calls for s in p.stats)
        rows.append(row)
    counts = [k for k in rows[0] if isinstance(rows[0][k], int)]
    repeat = all(r[k] == rows[0][k] for r in rows for k in counts)
    out = {"parser.s": metric(parse_s, "s")}
    for key in rows[0]:
        if key in counts:
            out[key] = metric(rows[0][key], "count")
        else:
            out[key] = metric(statistics.median(r[key] for r in rows), "s")
    out["trace.overhead_s"] = metric(
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain),
        "s",
    )
    return out, repeat


def traced_parse(wv, tracer, cases):
    """Scaled seconds in ``parse_program`` for every distinct input."""
    parse = tracer.wrap("parser.parse_program", wv.parse_program)
    tracer.reset()
    gc.collect()
    with HostSpeed() as speed:
        _result, raw, scaled = speed.timed(
            lambda: [parse(text) for text in dict.fromkeys(c.text for c in cases)]
        )
    spans = sum(end - start for _n, start, end, _p in tracer.spans)
    return spans * scaled / raw


def write_spans(path, spans):
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent in spans:
            record = {"name": name, "start": start - origin, "end": end - origin, "parent": parent}
            handle.write(json.dumps(record) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isfile(os.path.join(SRC, "wvcount", "__init__.py")):
        print("error: no wvcount sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup_s, (wv, cases, calls) = measure_setup(args.workload, args.seed)
    if args.trace:
        tracer = tracing.Tracer()
        parse_s = traced_parse(wv, tracer, cases)
        passes = run_passes(wv, calls, args.seconds, tracer)
        metrics, repeat = per_layer(parse_s, passes)
    else:
        passes = run_passes(wv, calls, args.seconds)
        metrics, repeat = end_to_end(setup_s, passes), True
    failed = check(cases, passes)
    if not repeat:
        print("# traced counts differ between passes of one run")

    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        write_spans(os.path.join(OUT, tag + ".spans.jsonl"), next(p.spans for p in passes if p.traced))
    result = {
        "correct": repeat,
        "attempted": len(cases) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        kernel=wv.kernel_name(),
        cases=[c.label for c in cases],
        passes=[{"traced": p.traced, "raw_s": p.raw, "scaled_s": p.scaled} for p in passes],
    )
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(
        "# %s seed=%d kernel=%s passes=%d ops/pass=%d raw wall median %.4f s, host scale %.3f"
        % (
            args.workload,
            args.seed,
            wv.kernel_name(),
            len(passes),
            len(cases),
            statistics.median(sum(p.raw) for p in passes if not p.traced),
            statistics.median(p.scale for p in passes),
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
