"""Benchmark of nchv: projective, unsharp and truth-function workloads.

Run one workload (from the root of the repository):

    python3 nchvbench/run.py --workload pvm --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--workload all`` runs every workload, each in a
fresh process of its own, and prints a table; with ``--quick`` every
workload runs once at tiny sizes, traced and untraced, with every check on.
The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys
import time

T0 = time.perf_counter()
# one BLAS/OpenMP thread, fixed before numpy loads: the machine has two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".nchvbench"
WORKLOADS = ("pvm", "povm", "kscheck")
SETUP_REPEATS = 3
# stream samples a full run holds at least, so ten or more lie beyond p90
MIN_SAMPLES = 100

# per-layer metric -> unit; the README maps each to the end-to-end metric it should move
PER_LAYER = {
    "opcore.commutator_batch_us": "us",
    "opcore.commutator_batch_n5_us": "us",
    "opcore.check_density_us": "us",
    "basisfamily.generate_s": "s",
    "basisfamily.pair_us": "us",
    "basisfamily.repair_attempts": "count",
    "basisfamily.repair_yield": "1/attempt",
    "basisfamily.nearest_ms": "ms",
    "basisfamily.save_ms": "ms",
    "basisfamily.load_ms": "ms",
    "basisfamily.family_bytes": "bytes",
    "pba.build_block_us": "us",
    "pba.born_weights_us": "us",
    "pba.populate_us": "us",
    "pba.block_extremes_s": "s",
    "simulator.pvm_candidates_ms": "ms",
    "simulator.pvm_run_trials_ms": "ms",
    "simulator.pvm_trials_per_s": "1/s",
    "simulator.simulate_trial_ms": "ms",
    "simulator.audit_s": "s",
    "simulator.realize_povm_ms": "ms",
    "simulator.povm_run_trials_ms": "ms",
    "povmfamily.snap_n2_ms": "ms",
    "povmfamily.snap_n3_ms": "ms",
    "povmfamily.snap_n4_ms": "ms",
    "povmfamily.snap_n5_ms": "ms",
    "povmfamily.psd_cert_ms": "ms",
    "povmfamily.register_first_ms": "ms",
    "povmfamily.register_last_ms": "ms",
    "povmfamily.lookup_hit_ms": "ms",
    "povmfamily.lookup_miss_ms": "ms",
    "povmfamily.min_cross_s": "s",
    "povmfamily.save_s": "s",
    "povmfamily.load_s": "s",
    "povmfamily.registry_bytes": "bytes",
    "povmfamily.den_bits_max": "bits",
    "kscheck.build_problem_ms": "ms",
    "kscheck.discover_ms": "ms",
    "kscheck.search_ms": "ms",
    "kscheck.discover_contexts": "count",
    "kscheck.search_nodes": "count",
    "kscheck.enumerate_s": "s",
    "kscheck.problem_from_family_s": "s",
    "kscheck.load_fixture_ms": "ms",
    "cli.family_gen_s": "s",
    "cli.simulate_pvm_s": "s",
    "cli.povm_snap_s": "s",
    "cli.simulate_povm_s": "s",
    "cli.kscheck_s": "s",
    "opcore.self_s": "s",
    "basisfamily.self_s": "s",
    "pba.self_s": "s",
    "povmfamily.self_s": "s",
    "simulator.self_s": "s",
    "kscheck.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="wall-time budget for the rounds (default 40; 0 with --quick, which "
                        "runs one round, or one of each kind when traced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny sizes, one round, all checks")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else 40.0
    return args


def run_workload(args):
    src = ROOT / "src"
    if not (src / "nchv" / "__init__.py").is_file():
        print(f"error: no nchv package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import importlib

    import checks
    import common

    # nchv pulls in numpy and scipy; their import time is part of setup_s
    workload = importlib.import_module(f"wl_{args.workload}")
    import_s = time.perf_counter() - T0

    size = "quick" if args.quick else "full"
    workdir = OUT / f"{args.workload}-{args.seed}"
    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        workdir.mkdir(parents=True)
        inputs = workload.setup(args.seed, size, workdir)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    correct = True
    try:
        rounds = common.run_rounds(workload, inputs, workdir, args.seconds, tracer,
                                   min_rounds=2 if tracer else 1,
                                   min_samples=0 if args.quick else MIN_SAMPLES)
        if tracer is None:
            metrics = common.summarize(rounds, setup_s)
        else:
            metrics = layer_metrics(workload, tracer, rounds, inputs)
            tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
    except checks.CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
        rounds, metrics = [], {}
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    common.report(args.workload, metrics, rounds, correct)
    return 0 if correct else 1


def layer_metrics(workload, tracer, rounds, inputs):
    """Per-layer metrics: the median over traced rounds of each round's value."""
    from spans import SpanView

    traced = [rec for is_traced, rec in rounds if is_traced]
    plain = [rec for is_traced, rec in rounds if not is_traced]
    per_round = []
    for (lo, hi), rec in zip(tracer.rounds, traced):
        view = SpanView(tracer, lo, hi)
        values = workload.layer_metrics(view, rec, inputs)
        for layer, self_s in view.layer_self_times().items():
            values[f"{layer}.self_s"] = self_s
        per_round.append(values)
    metrics = {}
    for name, unit in PER_LAYER.items():
        vals = [v[name] for v in per_round if name in v]
        metrics[name] = (float(statistics.median(vals)) if vals else 0.0, unit)
    overhead = (statistics.median(r.busy for r in traced)
                - statistics.median(r.busy for r in plain))
    metrics["trace.overhead_s"] = (overhead, PER_LAYER["trace.overhead_s"])
    return metrics


def run_all(args):
    """Every workload in its own process, one after another; then a table."""
    traces = (0, 1) if args.quick else (args.trace,)
    results = {}
    status = 0
    for name in WORKLOADS:
        for trace in traces:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)] + (["--quick"] if args.quick else [])
            proc = subprocess.run(argv, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}): exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            results[(name, trace)] = json.loads(lines[-1])
    for (name, trace), res in results.items():
        print(f"{name} trace={trace}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>16.6g} {entry['unit']}")
        if not res["correct"]:
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
