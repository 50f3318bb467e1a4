"""Workload ``pvm``: family generation and projective requests served against it.

The round generates a dimension-3 family of about a hundred members through
the CLI (with ``--check``) and a small dimension-5 family through the
library, round-trips the first through JSON, matches seeded Haar targets
with ``nearest_member``, runs single ``simulate_trial`` calls, a
noncontextuality audit and one ``simulate pvm`` CLI call, then serves the
request stream. One unit operation is one projective request served the
way the CLI serves it: build the request, ``pvm_candidates`` over the
family, then ``run_trials`` with a fixed trial count. Every target is a
seeded small rotation of a seeded member's basis, so every request has at
least one candidate.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np

from nchv import basisfamily, opcore, simulator

import checks
from checks import require

SIZES = {
    "full": dict(count3=100, count5=6, nearest=20, single=30, audit=2000, stream=150,
                 trials=20_000),
    "quick": dict(count3=10, count5=3, nearest=3, single=3, audit=50, stream=12,
                  trials=2_000),
}
EPS = 0.3           # request precision
NUDGE = 0.05        # radius of the seeded rotation applied to a member's basis
LABELS = np.array([1.0, 2.0, 3.0])
FLOOR = 1e-8        # the CLI's default commutator floor


def setup(seed, size, workdir):
    rng = np.random.default_rng([seed, 1])
    s = SIZES[size]
    density = checks.random_density(3, rng)

    def target_spec():
        return (int(rng.integers(s["count3"])), checks.random_unitary_near(3, NUDGE, rng),
                int(rng.integers(2**31)), int(rng.integers(2**31)))

    inputs = SimpleNamespace(
        size=s,
        family_seed=int(rng.integers(2**31)),
        family5_seed=int(rng.integers(2**31)),
        density=density,
        haar=[np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
              for _ in range(s["nearest"])],
        single=target_spec(),
        audit=target_spec(),
        cli=target_spec(),
        stream=[target_spec() for _ in range(s["stream"])],
    )
    (workdir / "state.json").write_text(json.dumps(checks.operator_json(density)))
    return inputs


def _target(family_bases, spec):
    """Observable whose eigenbasis is the seeded rotation of a member's basis."""
    member, rot, _, _ = spec
    basis = rot @ family_bases[member]
    return basis, (basis * LABELS) @ basis.conj().T


def _serve(observable, spec, family, context, trials):
    request = simulator.MeasurementRequest.pvm(observable, EPS, apparatus_seed=spec[2],
                                               system_seed=spec[3])
    cands, _ = simulator.pvm_candidates(request.observable, family, EPS)
    return cands, simulator.run_trials(request, trials, context)


def run_round(inputs, workdir, rec):
    s = inputs.size
    fam_path = workdir / "family3.json"
    code, text = rec.cli("cli_family_gen", [
        "family", "gen", "--n", 3, "--count", s["count3"], "--seed", inputs.family_seed,
        "--out", fam_path, "--check"])
    require(code == 0, f"family gen exited {code}")
    rec.wrote(fam_path)
    rec.out["gen_text"] = text

    rec.out["family5"] = rec.op("generate_family", basisfamily.generate_family, 5, s["count5"],
                                seed=inputs.family5_seed)

    family = rec.op("family_load", basisfamily.BasisFamily.load, fam_path)
    rt_path = workdir / "family3_roundtrip.json"
    rec.op("family_save", family.save, rt_path)
    rec.wrote(rt_path)
    rec.out["family"] = family
    rec.out["reloaded"] = rec.op("family_load", basisfamily.BasisFamily.load, rt_path)
    bases = [m.basis.mat for m in family.members]

    rec.out["nearest"] = [
        rec.op("nearest",
               lambda t=t: basisfamily.nearest_member(family, opcore.OrthonormalBasis(t)))
        for t in inputs.haar
    ]

    context = simulator.SimulationContext(inputs.density, family=family)
    basis, obs = _target(bases, inputs.single)
    request = simulator.MeasurementRequest.pvm(obs, EPS)
    rng_app = np.random.default_rng(inputs.single[2])
    rng_sys = np.random.default_rng(inputs.single[3])
    rec.out["single"] = (basis, [
        rec.op("simulate_trial", simulator.simulate_trial, request, context, rng_app, rng_sys, i)
        for i in range(s["single"])
    ])

    basis, obs = _target(bases, inputs.audit)
    request = simulator.MeasurementRequest.pvm(obs, EPS, apparatus_seed=inputs.audit[2],
                                               system_seed=inputs.audit[3])
    rec.out["audit"] = rec.op("audit", simulator.run_noncontextuality_audit, request, context,
                              s["audit"])

    basis, obs = _target(bases, inputs.cli)
    (workdir / "target.json").write_text(json.dumps(checks.operator_json(obs)))
    report_path = workdir / "report.json"
    code, _ = rec.cli("cli_simulate_pvm", [
        "simulate", "pvm", "--family", fam_path, "--target", workdir / "target.json",
        "--state", workdir / "state.json", "--eps", EPS, "--trials", s["trials"],
        "--seed-app", inputs.cli[2], "--seed-sys", inputs.cli[3], "--report", report_path])
    require(code == 0, f"simulate pvm exited {code}")
    rec.wrote(report_path)
    rec.out["cli_report"] = (basis, json.loads(report_path.read_text()))

    served = []
    for spec in inputs.stream:
        basis, obs = _target(bases, spec)
        cands, report = rec.stream_op("pvm_request", _serve, obs, spec, family, context,
                                      s["trials"])
        served.append((basis, cands, report.to_json()))
    rec.out["served"] = served


def _check_report(label, report, target_basis, bases, density, trials):
    """Candidates, Born reference and sampling error of one projective report."""
    dist, perms = checks.projection_distances(target_basis, bases)
    within = [i for i in range(len(bases)) if dist[i] < EPS]
    ids = [i - 1 for i in report["config"]["realized_ids"]]
    require(sorted(ids) == within,
            f"{label}: realized members {sorted(ids)}, members within {EPS}: {within}")
    require(np.allclose(report["config"]["realized_distances"], dist[ids], atol=1e-9),
            f"{label}: realized distances disagree with the atom-projection distances")
    born = np.mean([checks.born_in_label_order(density, bases[i], perms[i]) for i in ids], axis=0)
    require(np.allclose(report["born"], born, atol=1e-9),
            f"{label}: Born reference {report['born']} != {born.tolist()}")
    require(np.allclose(report["labels"], LABELS, atol=1e-9), f"{label}: labels {report['labels']}")
    counts = np.array(report["counts"])
    require(counts.sum() == trials, f"{label}: {counts.sum()} outcomes for {trials} trials")
    tv = 0.5 * float(np.abs(counts / trials - born).sum())
    require(tv < checks.tv_bound(trials, len(LABELS)),
            f"{label}: empirical TV {tv:.4f} above {checks.tv_bound(trials, len(LABELS)):.4f}")


def check_round(inputs, workdir, rec):
    s = inputs.size
    out = rec.out
    n, bases, raw = checks.bases_from_family_json(workdir / "family3.json")
    require(n == 3 and len(bases) == s["count3"], "family file has the wrong shape")
    weakest = float(checks.min_pair_commutators(bases).min())
    require(weakest > FLOOR, f"family pair commutator {weakest:.3e} not above {FLOOR}")
    reported = float(out["gen_text"].rsplit("floor", 1)[1].split()[0])
    require(abs(reported - weakest) <= 0.01 * weakest,
            f"--check reports floor {reported:.3e}, the pairs give {weakest:.3e}")
    for m in raw["members"]:
        bound = min(raw["net_bound"], 2.0 ** -m["index"])
        require(m["provenance"]["distance_moved"] <= bound,
                f"member {m['index']} moved beyond its repair budget")

    fam5 = out["family5"]
    require(len(fam5.members) == s["count5"] and fam5.dim == 5, "n=5 family has the wrong shape")
    weakest5 = float(checks.min_pair_commutators([m.basis.mat for m in fam5.members]).min())
    require(weakest5 > FLOOR, f"n=5 family pair commutator {weakest5:.3e} not above {FLOOR}")

    family = out["family"]
    for a, b, mat in zip(family.members, out["reloaded"].members, bases):
        require(np.array_equal(a.basis.mat, mat) and np.array_equal(b.basis.mat, mat)
                and a.index == b.index and a.provenance == b.provenance,
                f"member {a.index} changed in the JSON round trip")

    for t, (index, dist) in zip(inputs.haar, out["nearest"]):
        own = np.array([checks.spectral_norms(np.eye(3) - t @ b.conj().T) for b in bases])
        require(index == int(own.argmin()) + 1 and abs(dist - own.min()) < 1e-9,
                f"nearest member {index} at {dist}, own {own.argmin() + 1} at {own.min()}")

    basis, outcomes = out["single"]
    dist, _ = checks.projection_distances(basis, bases)
    for o in outcomes:
        require(np.abs(LABELS - o.label).min() < 1e-9,
                f"simulate_trial label {o.label} is no eigenvalue")
        require(dist[o.realized_id - 1] < EPS, "simulate_trial realized a member beyond eps")
    require(out["audit"] == 0, f"audit found {out['audit']} violations")

    basis, report = out["cli_report"]
    _check_report("simulate pvm", report, basis, bases, inputs.density, s["trials"])
    for i, (basis, cands, report) in enumerate(out["served"]):
        require(sorted(c.member_index for c in cands) == sorted(report["config"]["realized_ids"]),
                f"request {i}: pvm_candidates and run_trials disagree")
        _check_report(f"request {i}", report, basis, bases, inputs.density, s["trials"])
    rec.counts["family_bytes"] = (workdir / "family3.json").stat().st_size
    rec.counts["repaired"] = sum(m.provenance.replacements > 0
                                 for m in family.members + fam5.members)


def layer_metrics(view, rec, inputs):
    trials = inputs.size["trials"]
    gen_s = view.total("basisfamily.generate_family")
    pairs = view.count("opcore.pairwise_commutator_norms", within="basisfamily.generate_family")
    attempts = view.count("basisfamily.random_nearby_basis", within="basisfamily.generate_family")
    run_trials_ms = view.median("simulator.run_trials", 1e3, parent="bench.pvm_request")
    return {
        "opcore.commutator_batch_us": view.median("opcore.pairwise_commutator_norms", 1e6, tag=3),
        "opcore.commutator_batch_n5_us": view.median("opcore.pairwise_commutator_norms", 1e6,
                                                     tag=5),
        "opcore.check_density_us": view.median("opcore.check_density", 1e6),
        "basisfamily.generate_s": gen_s,
        "basisfamily.pair_us": gen_s / pairs * 1e6 if pairs else 0.0,
        "basisfamily.repair_attempts": attempts,
        "basisfamily.repair_yield": rec.counts["repaired"] / attempts if attempts else 0.0,
        "basisfamily.nearest_ms": view.median("basisfamily.nearest_member", 1e3,
                                              parent="bench.nearest"),
        "basisfamily.save_ms": view.median("basisfamily.BasisFamily.save", 1e3,
                                           parent="bench.family_save"),
        "basisfamily.load_ms": view.median("basisfamily.BasisFamily.load", 1e3,
                                           parent="bench.family_load"),
        "basisfamily.family_bytes": rec.counts["family_bytes"],
        "pba.build_block_us": view.median("pba.build_block", 1e6),
        "pba.born_weights_us": view.median("pba.born_weights", 1e6),
        "pba.populate_us": view.median("pba.TruthValuation.populate", 1e6),
        "pba.block_extremes_s": view.total("pba.block_structure_extremes"),
        "simulator.pvm_candidates_ms": view.median("simulator.pvm_candidates", 1e3,
                                                   parent="bench.pvm_request"),
        "simulator.pvm_run_trials_ms": run_trials_ms,
        "simulator.pvm_trials_per_s": trials / run_trials_ms * 1e3 if run_trials_ms else 0.0,
        "simulator.simulate_trial_ms": view.median("simulator.simulate_trial", 1e3),
        "simulator.audit_s": view.total("simulator.run_noncontextuality_audit"),
        "cli.family_gen_s": view.total("cli.main", parent="bench.cli_family_gen"),
        "cli.simulate_pvm_s": view.total("cli.main", parent="bench.cli_simulate_pvm"),
    }
