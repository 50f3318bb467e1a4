"""Command line front end.

Subcommands:

    family gen        generate a pairwise totally incompatible basis family
    simulate pvm      run projective trials against a family
    simulate povm     run positive-operator trials against a registry file
    povm snap         rationalize a resolution within a tolerance budget
    kscheck           search a projection fixture for truth functions

Exit codes: 0 on success, 2 when no realization candidate exists, 3 when a
precision target is unattainable, 4 on validation or search-budget errors,
a malformed command line included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .basisfamily import BasisFamily, generate_family
from .errors import NCHVError, NoCandidateError, PrecisionError, ValidationError
from .kscheck import find_truth_functions, load_fixture
from .opcore import JsonNode, json_text, operator_from_json, read_json, write_json, write_text_atomic
from .povmfamily import ResolutionRegistry, snap_resolution
from .simulator import MeasurementRequest, SimulationContext, run_trials

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument parser that raises ValidationError where argparse would exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(f"{self.prog}: {message}")


def _report_spec(value: str) -> tuple[str, str | None]:
    """A --report value as (format, path), where a path of None means stdout."""
    for fmt in ("json", "csv"):
        if value == fmt:
            return fmt, None
        if value.endswith("." + fmt):
            return fmt, value
    raise argparse.ArgumentTypeError(f"cannot infer a report format from {value!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nchv",
        description="simulate finite-precision quantum measurements with "
                    "non-contextual hidden-variable bookkeeping",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    family = sub.add_parser("family", help="basis family utilities")
    family_sub = family.add_subparsers(dest="subcommand", required=True)
    gen = family_sub.add_parser("gen", help="generate and save a family")
    gen.add_argument("--n", type=int, required=True, help="Hilbert space dimension")
    gen.add_argument("--count", type=int, required=True, help="number of members")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.add_argument("--check", action="store_true",
                     help="recompute the achieved incompatibility floor")

    simulate = sub.add_parser("simulate", help="run measurement trials")
    simulate_sub = simulate.add_subparsers(dest="subcommand", required=True)
    for kind in ("pvm", "povm"):
        cmd = simulate_sub.add_parser(kind)
        cmd.add_argument("--state", required=True, help="density operator JSON")
        cmd.add_argument("--eps", type=float, required=True, help="realization precision")
        cmd.add_argument("--trials", type=int, required=True)
        cmd.add_argument("--seed-app", type=int, default=0, help="apparatus stream seed")
        cmd.add_argument("--seed-sys", type=int, default=1, help="system stream seed")
        cmd.add_argument("--fixed-apparatus", action="store_true",
                         help="realize once and reuse for every trial")
        cmd.add_argument("--report", type=_report_spec, default=None,
                         help="'json' or 'csv' to stdout, or a path with that suffix")
        if kind == "pvm":
            cmd.add_argument("--family", required=True, help="family JSON path")
            cmd.add_argument("--target", required=True, help="observable operator JSON")
        else:
            cmd.add_argument("--registry", required=True,
                             help="registry JSON path; created when missing")
            cmd.add_argument("--targets", required=True,
                             help="JSON with a members list of operators")

    snap = sub.add_parser("povm", help="positive-operator utilities")
    snap_sub = snap.add_subparsers(dest="subcommand", required=True)
    do_snap = snap_sub.add_parser("snap", help="rationalize a resolution")
    do_snap.add_argument("--targets", required=True)
    do_snap.add_argument("--eps", type=float, required=True)
    do_snap.add_argument("--out", required=True)

    ks = sub.add_parser("kscheck", help="truth-function search on a fixture")
    ks.add_argument("--fixture", required=True)
    ks.add_argument("--limit", type=int, default=None,
                    help="stop after this many solutions")
    return parser


def _load_targets(path):
    node = JsonNode(read_json(path), "targets")
    entries = node["members"] if isinstance(node.value, dict) else node
    return [operator_from_json(entry) for entry in entries.elements()]


def _report_text(report, spec: tuple[str, str | None] | None) -> str:
    if spec is None:
        lines = [f"{report.kind} run, {report.n_trials} trials, "
                 f"tv distance {report.tv_distance:.5f}"]
        for label, count, emp, born in zip(report.labels, report.counts,
                                           report.empirical, report.born):
            lines.append(f"  {label}: {count}  empirical {emp:.5f}  born {born:.5f}")
        return "\n".join(lines) + "\n"
    return json_text(report.to_json()) if spec[0] == "json" else report.to_csv()


def _cmd_family_gen(args) -> int:
    family = generate_family(args.n, args.count, seed=args.seed)
    family.save(args.out)
    moved = sum(m.provenance.replacements for m in family.members)
    print(f"wrote {args.count} bases of dimension {args.n} to {args.out} "
          f"({moved} repair replacements)")
    if args.check:
        from .pba import PartialBooleanAlgebra, block_structure_extremes

        pba = PartialBooleanAlgebra.from_family(family)
        _, cross = block_structure_extremes(pba)
        print(f"achieved cross-member commutator floor {cross:.3e}")
    return 0


def _cmd_simulate(args, kind: str) -> int:
    density = operator_from_json(JsonNode(read_json(args.state), "state"))
    if kind == "pvm":
        target = operator_from_json(JsonNode(read_json(args.target), "target"))
        request = MeasurementRequest.pvm(target, args.eps,
                                         apparatus_seed=args.seed_app,
                                         system_seed=args.seed_sys)
        context = SimulationContext(density, family=BasisFamily.load(args.family),
                                    fixed_apparatus=args.fixed_apparatus)
    else:
        targets = _load_targets(args.targets)
        request = MeasurementRequest.povm(targets, args.eps,
                                          apparatus_seed=args.seed_app,
                                          system_seed=args.seed_sys)
        registry_path = Path(args.registry)
        if registry_path.exists():
            registry = ResolutionRegistry.load(registry_path)
        else:
            registry = ResolutionRegistry(targets[0].shape[0])
        context = SimulationContext(density, registry=registry,
                                    fixed_apparatus=args.fixed_apparatus)
    report = run_trials(request, args.trials, context)
    text = _report_text(report, args.report)
    report_path = args.report[1] if args.report else None
    files = [(text, report_path)] if report_path else []
    if kind == "povm":
        files.append((json_text(registry.to_json()), registry_path))
    # the report file and the registry are staged together, so a failed write
    # leaves both as they were, and stdout gets the report only once both are written
    write_text_atomic(*files)
    if report_path is None:
        print(text, end="")
    return 0


def _cmd_snap(args) -> int:
    targets = _load_targets(args.targets)
    resolution, diag = snap_resolution(targets, args.eps, return_diagnostics=True)
    write_json(resolution.to_json(), args.out)
    print(f"snapped {resolution.k} members in dimension {resolution.dim} "
          f"to {args.out} (max shift {diag.max_member_shift:.3e})")
    return 0


def _cmd_kscheck(args) -> int:
    problem = load_fixture(args.fixture)
    result = find_truth_functions(problem, limit=args.limit)
    print(f"universe of {problem.size} projections, "
          f"{len(problem.resolutions)} resolutions")
    if not result.solutions:
        verdict = "no truth function exists" if result.exhausted \
            else "none found before the limit"
        print(f"{verdict} ({result.nodes} nodes)")
    else:
        tail = "search exhausted" if result.exhausted else "stopped at the limit"
        print(f"{len(result.solutions)} truth functions ({tail}, {result.nodes} nodes)")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "family":
            return _cmd_family_gen(args)
        if args.command == "simulate":
            return _cmd_simulate(args, args.subcommand)
        if args.command == "povm":
            return _cmd_snap(args)
        return _cmd_kscheck(args)
    except NoCandidateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NCHVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
