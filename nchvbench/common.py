"""Round loop, timing, file accounting and result assembly shared by the workloads.

A run sets up once, then repeats whole rounds of the same operations until
its time budget is spent. Every round starts from the same inputs and
writes the same files, so each round is one instance of the workload's
fixed job and the share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import time
from pathlib import Path

from nchv import cli

from checks import CheckFailure, require


class Recorder:
    """Timed operations, per-op latencies and written bytes of one round.

    ``op`` times one call of the program; only what runs inside it counts
    toward the round's run time, so correctness checks made between calls
    stay out. ``stream_op`` additionally records the latency sample of a
    unit operation of the workload's request stream. ``out`` keeps the
    program's outputs until the round's checks read them.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy = 0.0
        self.samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.out_bytes = 0
        self.counts: dict[str, float] = {}
        self.out: dict = {}

    def op(self, name, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            with self.tracer.span("bench." + name):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
        self.busy += dt
        return result

    def stream_op(self, name, fn, *args, **kwargs):
        busy = self.busy
        result = self.op(name, fn, *args, **kwargs)
        self.samples.append(self.busy - busy)
        return result

    def cli(self, name, argv):
        """Run ``nchv.cli.main(argv)`` in-process; return (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.op(name, cli.main, [str(a) for a in argv])
        return code, buf.getvalue()

    def cli_expect_error(self, name, argv, expected_exc):
        """A malformed-input CLI call whose documented outcome is exit code 4.

        It counts as failed when the CLI raises instead; any other exit
        code is a wrong answer and fails the check.
        """
        try:
            code, _ = self.cli(name, argv)
        except expected_exc as exc:
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}")
            return
        require(code == 4, f"{name}: exit code {code}, expected 4")

    def wrote(self, *paths):
        """Add the sizes of files the program has just written."""
        for p in paths:
            self.out_bytes += Path(p).stat().st_size


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, inputs, workdir, seconds, tracer=None, min_rounds=1, min_samples=0):
    """Repeat whole rounds until ``seconds`` of wall time are used.

    A further round starts only when the slowest round so far still fits
    in the remaining budget. At least ``min_rounds`` rounds run, and
    untraced rounds continue until they hold ``min_samples`` stream
    samples, so the tail percentile has samples beyond it. With a tracer,
    rounds alternate untraced and traced (the first untraced), so the same
    run yields both sides of the tracing overhead. Returns the list of
    (traced, recorder) pairs.
    """
    start = time.perf_counter()
    rounds = []
    slowest = 0.0
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        rec = Recorder(tracer if traced else None)
        t0 = time.perf_counter()
        if traced:
            tracer.begin_round()
            with tracer.installed():
                workload.run_round(inputs, workdir, rec)
            tracer.end_round()
        else:
            workload.run_round(inputs, workdir, rec)
        workload.check_round(inputs, workdir, rec)
        # every round starts from the same heap: outputs go, and so do the
        # reference cycles the program leaves behind (find_truth_functions'
        # recursive closure keeps its solution list alive until a full
        # collection), which would otherwise pile up with the round count
        rec.out.clear()
        gc.collect()
        slowest = max(slowest, time.perf_counter() - t0)
        rounds.append((traced, rec))
        used = time.perf_counter() - start
        samples = sum(len(r.samples) for t, r in rounds if not t)
        if len(rounds) >= min_rounds and samples >= min_samples and used + slowest > seconds:
            return rounds


def summarize(rounds, setup_s):
    """End-to-end metrics over the untraced rounds of a run."""
    plain = [rec for traced, rec in rounds if not traced]
    samples = [s for rec in plain for s in rec.samples]
    sizes = {rec.out_bytes for rec in plain}
    if len(sizes) != 1:
        raise CheckFailure(f"rounds wrote different byte counts: {sorted(sizes)}")
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (statistics.median(rec.busy for rec in plain), "s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (percentile(samples, 90) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "out_bytes": (float(sizes.pop()), "bytes"),
    }


def report(workload_name, metrics, rounds, correct):
    """Print the human summary, then the result object as the last line."""
    attempted = sum(rec.attempted for _, rec in rounds)
    failed = sum(rec.failed for _, rec in rounds)
    samples = sum(len(rec.samples) for traced, rec in rounds if not traced)
    print(f"workload {workload_name}: {len(rounds)} rounds, "
          f"{samples} stream samples, attempted {attempted}, failed {failed}")
    kinds = sorted({f for _, rec in rounds for f in rec.failures})
    for kind in kinds:
        print(f"  failed op: {kind}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
