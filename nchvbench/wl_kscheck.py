"""Workload ``kscheck``: truth-function search with resolution discovery.

One unit operation is one problem built from a seeded subset of rays of the
rational unit sphere: ``build_problem(..., discover=True)`` deduplicates the
rank-1 projections and discovers every orthogonal triple among them, then
``find_truth_functions(..., limit=1)`` finds one truth function. Subsets are
grown one orthogonal triple at a time, preferring triples that share a ray
with the subset, so they hold many interlocking triples. Meyer's colouring
of S^2 with rational coordinates (PRL 83, 3751, 1999) restricts to every
subset, so a truth function always exists.

Outside the stream the round runs the bundled Cabello 18-vector fixture and
Peres' 24 rays (written without resolutions, so the CLI discovers them)
through ``nchv kscheck``, makes two malformed ``kscheck`` calls, and
enumerates every truth function of ``problem_from_family`` on a small
family that ``family gen`` writes through the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from nchv import basisfamily, kscheck

import checks
from checks import require

SIZES = {
    "full": dict(bound=20, rays=60, stream=40, blocks=9),
    "quick": dict(bound=9, rays=24, stream=4, blocks=4),
}
CABELLO = Path(__file__).resolve().parents[1] / "src" / "nchv" / "fixtures" / "ks18_dim4.json"


def _grow_subset(triples, by_ray, size, rng):
    chosen = set()
    while len(chosen) < size:
        front = sorted({t for r in chosen for t in by_ray[r]
                        if not set(t) <= chosen and len(chosen | set(t)) <= size})
        if not front:
            front = [t for t in triples if not set(t) & chosen and len(chosen) + 3 <= size]
            if not front:
                break
        chosen |= set(front[int(rng.integers(len(front)))])
    return sorted(chosen)


def setup(seed, size, workdir):
    rng = np.random.default_rng([seed, 3])
    s = SIZES[size]
    rays = checks.rational_sphere_rays(s["bound"])
    triples = checks.orthogonal_triples(rays)
    by_ray = {}
    for t in triples:
        for r in t:
            by_ray.setdefault(r, []).append(t)
    problems = []
    for _ in range(s["stream"]):
        subset = _grow_subset(triples, by_ray, s["rays"], rng)
        sub_rays = [rays[i] for i in subset]
        ops = []
        for r in sub_rays:
            v = np.array(r, dtype=float)
            v /= np.linalg.norm(v)
            ops.append(np.outer(v, v).astype(complex))
        problems.append((ops, checks.orthogonal_triples(sub_rays)))

    peres = checks.peres_24_rays()
    (workdir / "peres24.json").write_text(json.dumps({"dim": 4, "vectors": peres}))
    (workdir / "malformed.json").write_text('{"dim": 4, "vectors": [[1, 0, 0, 0], [0, 1')
    cabello = json.loads(CABELLO.read_text())
    return SimpleNamespace(
        size=s,
        problems=problems,
        peres_tetrads=len(checks.orthogonal_tetrads(peres)),
        cabello=(len(cabello["vectors"]), len(cabello["resolutions"])),
        family_seed=int(rng.integers(2**31)),
    )


def _serve(ops):
    problem = kscheck.build_problem(ops, discover=True)
    return problem, kscheck.find_truth_functions(problem, limit=1)


def run_round(inputs, workdir, rec):
    s = inputs.size
    rec.out["cabello"] = rec.cli("cli_kscheck", ["kscheck", "--fixture", CABELLO])
    rec.out["peres"] = rec.cli("cli_kscheck", ["kscheck", "--fixture", workdir / "peres24.json"])
    rec.cli_expect_error("cli_kscheck_malformed", ["kscheck", "--fixture",
                                                   workdir / "malformed.json"],
                         json.JSONDecodeError)
    rec.cli_expect_error("cli_kscheck_missing", ["kscheck", "--fixture",
                                                 workdir / "no_such_fixture.json"],
                         FileNotFoundError)

    fam_path = workdir / "family_blocks.json"
    code, _ = rec.cli("cli_family_gen", ["family", "gen", "--n", 3, "--count", s["blocks"],
                                         "--seed", inputs.family_seed, "--out", fam_path])
    require(code == 0, f"family gen exited {code}")
    rec.wrote(fam_path)
    family = rec.op("family_load", basisfamily.BasisFamily.load, fam_path)
    problem = rec.op("problem_from_family", kscheck.problem_from_family, family)
    rec.out["enumerated"] = (problem, rec.op("enumerate", kscheck.find_truth_functions, problem))

    served = []
    for ops, _ in inputs.problems:
        served.append(rec.stream_op("ks_request", _serve, ops))
    rec.out["served"] = served


def _check_cli(label, result, size, contexts):
    code, text = result
    require(code == 0, f"{label}: exit code {code}")
    require(f"universe of {size} projections, {contexts} resolutions" in text,
            f"{label}: expected {size} projections and {contexts} resolutions, got {text!r}")
    require("no truth function exists" in text, f"{label}: search did not refute: {text!r}")


def check_round(inputs, workdir, rec):
    s = inputs.size
    out = rec.out
    _check_cli("Cabello-18", out["cabello"], *inputs.cabello)
    _check_cli("Peres-24", out["peres"], 24, inputs.peres_tetrads)

    problem, result = out["enumerated"]
    c = s["blocks"]
    blocks = [tuple(range(3 * k, 3 * k + 3)) for k in range(c)]
    require(problem.size == 3 * c and list(problem.resolutions) == blocks,
            "problem_from_family did not give disjoint dimension-3 blocks")
    require(result.exhausted and len(result.solutions) == 3**c,
            f"{len(result.solutions)} truth functions on {c} blocks, expected {3**c}")
    require(len(set(result.solutions)) == 3**c, "enumeration repeated a truth function")
    require(all(checks.is_truth_function(v, blocks) for v in result.solutions),
            "an enumerated assignment is no truth function")

    contexts = nodes = 0
    for i, ((ops, triples), (problem, result)) in enumerate(zip(inputs.problems, out["served"])):
        require(problem.size == len(ops), f"problem {i}: universe shrank to {problem.size}")
        require(list(problem.resolutions) == triples,
                f"problem {i}: discovered {len(problem.resolutions)} resolutions, "
                f"integer orthogonality gives {len(triples)}")
        require(len(result.solutions) == 1 and checks.is_truth_function(result.solutions[0],
                                                                        triples),
                f"problem {i}: no valid truth function found on a colourable subset")
        contexts += len(problem.resolutions)
        nodes += result.nodes
    rec.counts["discover_contexts"] = contexts
    rec.counts["search_nodes"] = nodes


def layer_metrics(view, rec, inputs):
    build = view.select("kscheck.build_problem", parent="bench.ks_request")
    discover = view.select("kscheck.discover_resolutions", within="bench.ks_request")
    own = view.dur[build] - view.dur[discover]      # one discovery inside each build
    return {
        "kscheck.build_problem_ms": float(np.median(own)) * 1e3,
        "kscheck.discover_ms": view.median("kscheck.discover_resolutions", 1e3,
                                           within="bench.ks_request"),
        "kscheck.search_ms": view.median("kscheck.find_truth_functions", 1e3,
                                         parent="bench.ks_request"),
        "kscheck.discover_contexts": rec.counts["discover_contexts"],
        "kscheck.search_nodes": rec.counts["search_nodes"],
        "kscheck.enumerate_s": view.total("kscheck.find_truth_functions", parent="bench.enumerate"),
        "kscheck.problem_from_family_s": view.total("kscheck.problem_from_family",
                                                    parent="bench.problem_from_family"),
        "kscheck.load_fixture_ms": view.median("kscheck.load_fixture", 1e3),
        "cli.kscheck_s": view.total("cli.main", parent="bench.cli_kscheck"),
    }
