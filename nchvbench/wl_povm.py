"""Workload ``povm``: exact snapping and a registry that grows.

The request stream drifts like acceptance criterion 6: three seeded
dimension-2 effects move along two seeded directions, so every member of
every request moves and no request is within the precision of an earlier
one. Each request therefore scans the whole registry (read) and then adds
one entry (write), and the registry grows to a few hundred entries in the
round. One unit operation is one unsharp request: ``realize_povm``
followed by ``run_trials``.

Outside the stream the round re-requests a seeded sample of earlier
targets (each must hit), times lookups at the final size, computes the
cross-member floor, saves and reloads the registry, snaps seeded
resolutions at n = 2..5 through ``povm snap``, makes one malformed
``povm snap`` call, and one ``simulate povm`` call against a copy of the
saved registry file.
"""

from __future__ import annotations

import json
import math
import shutil
from types import SimpleNamespace

import numpy as np

from nchv import povmfamily, simulator

import checks
from checks import require

SIZES = {
    "full": dict(stream=200, rerequest=20, lookups=10, snap_dims=(2, 3, 4, 5), trials=2000,
                 cli_trials=20_000),
    "quick": dict(stream=12, rerequest=3, lookups=2, snap_dims=(2, 3), trials=500,
                  cli_trials=2000),
}
EPS = 1e-5          # request precision of the stream
STEP = 1e-4         # drift per request, ten times EPS so no request hits an earlier one
SNAP_EPS = 0.05


def _drift_targets(base, d1, d2, t):
    s = (t + 1) * STEP
    return [base[0] + s * d1, base[1] + s * d2, base[2] - s * (d1 + d2)]


def _unit_hermitian(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = (z + z.conj().T) / 2
    return h / checks.spectral_norms(h)


def setup(seed, size, workdir):
    rng = np.random.default_rng([seed, 2])
    s = SIZES[size]
    # half a random resolution plus I/6 each: every effect keeps eigenvalues
    # >= 1/6, far inside the positive cone for the whole drift
    base = [0.5 * r + np.eye(2) / 6 for r in checks.random_resolution(2, 3, rng)]
    d1, d2 = _unit_hermitian(rng), _unit_hermitian(rng)
    n_total = s["stream"] + s["lookups"] + 1
    targets = [_drift_targets(base, d1, d2, t) for t in range(n_total)]
    density = checks.random_density(2, rng)
    inputs = SimpleNamespace(
        size=s,
        density=density,
        stream=targets[:s["stream"]],
        miss=targets[s["stream"]:s["stream"] + s["lookups"]],
        cli_targets=targets[-1],
        seeds=[(int(rng.integers(2**31)), int(rng.integers(2**31))) for _ in range(n_total)],
        rerequest=[int(i) for i in rng.choice(s["stream"], size=s["rerequest"], replace=False)],
        snaps={},
    )
    for n in s["snap_dims"]:
        k = int(rng.choice([3, 4]))
        inputs.snaps[n] = checks.random_resolution(n, k, rng)
        (workdir / f"snap_targets_{n}.json").write_text(json.dumps(
            {"members": [checks.operator_json(t) for t in inputs.snaps[n]]}))
    (workdir / "snap_targets_bad.json").write_text(json.dumps(
        {"resolution": [checks.operator_json(t) for t in inputs.snaps[2]]}))
    (workdir / "cli_targets.json").write_text(json.dumps(
        {"members": [checks.operator_json(t) for t in inputs.cli_targets]}))
    (workdir / "state.json").write_text(json.dumps(checks.operator_json(density)))
    return inputs


def _serve(targets, seeds, registry, context, trials):
    request = simulator.MeasurementRequest.povm(targets, EPS, apparatus_seed=seeds[0],
                                                system_seed=seeds[1])
    tagged = simulator.realize_povm(request, registry, np.random.default_rng(seeds[0]))
    return tagged, simulator.run_trials(request, trials, context)


def run_round(inputs, workdir, rec):
    s = inputs.size
    registry = povmfamily.ResolutionRegistry(2)
    context = simulator.SimulationContext(inputs.density, registry=registry)
    served = []
    for targets, seeds in zip(inputs.stream, inputs.seeds):
        tagged, report = rec.stream_op("povm_request", _serve, targets, seeds, registry, context,
                                       s["trials"])
        served.append((tagged.index, len(registry), report.to_json()))
    rec.out["served"] = served

    rng = np.random.default_rng(0)
    rec.out["rerequest"] = [
        (t, rec.op("povm_rerequest", lambda t=t: simulator.realize_povm(
            simulator.MeasurementRequest.povm(inputs.stream[t], EPS), registry, rng)).index,
         len(registry))
        for t in inputs.rerequest
    ]
    rec.out["lookup_hit"] = [
        (t, [e.index for e in rec.op("lookup_hit", registry.candidates_within,
                                     inputs.stream[t], EPS)])
        for t in inputs.rerequest[:s["lookups"]]
    ]
    rec.out["lookup_miss"] = [
        len(rec.op("lookup_miss", registry.candidates_within, targets, EPS))
        for targets in inputs.miss
    ]
    rec.out["min_cross"] = rec.op("min_cross", registry.min_cross_member_distance)

    reg_path = workdir / "registry.json"
    rec.op("registry_save", registry.save, reg_path)
    rec.wrote(reg_path)
    rec.out["registry"] = registry
    rec.out["reloaded"] = rec.op("registry_load", povmfamily.ResolutionRegistry.load, reg_path)

    for n in s["snap_dims"]:
        out = workdir / f"snapped_{n}.json"
        code, _ = rec.cli("cli_povm_snap", ["povm", "snap", "--targets",
                                            workdir / f"snap_targets_{n}.json",
                                            "--eps", SNAP_EPS, "--out", out])
        require(code == 0, f"povm snap at n={n} exited {code}")
        rec.wrote(out)
    rec.cli_expect_error("cli_povm_snap_no_members", [
        "povm", "snap", "--targets", workdir / "snap_targets_bad.json", "--eps", SNAP_EPS,
        "--out", workdir / "snapped_bad.json"], KeyError)

    cli_reg = workdir / "registry_cli.json"
    shutil.copyfile(reg_path, cli_reg)
    report_path = workdir / "report.json"
    seeds = inputs.seeds[-1]
    code, _ = rec.cli("cli_simulate_povm", [
        "simulate", "povm", "--registry", cli_reg, "--targets", workdir / "cli_targets.json",
        "--state", workdir / "state.json", "--eps", EPS, "--trials", s["cli_trials"],
        "--seed-app", seeds[0], "--seed-sys", seeds[1], "--report", report_path])
    require(code == 0, f"simulate povm exited {code}")
    rec.wrote(cli_reg, report_path)


def _check_report(label, report, ids, floats_by_index, density, trials):
    require(report["config"]["realized_ids"] == ids,
            f"{label}: realized {report['config']['realized_ids']}, expected {ids}")
    born = np.mean([[float(np.trace(density @ m).real) for m in floats_by_index[i]]
                    for i in ids], axis=0)
    require(np.allclose(report["born"], born, atol=1e-9),
            f"{label}: Born reference {report['born']} != {born.tolist()}")
    counts = np.array(report["counts"])
    require(counts.sum() == trials, f"{label}: {counts.sum()} outcomes for {trials} trials")
    tv = 0.5 * float(np.abs(counts / trials - born).sum())
    bound = checks.tv_bound(trials, len(born))
    require(tv < bound, f"{label}: empirical TV {tv:.4f} above {bound:.4f}")


def _check_registry_file(path, targets, label):
    """Exact checks on every saved base; returns (pairs, tagged floats, max bits)."""
    obj = json.loads(path.read_text())
    pairs, floats, bits = [], {}, 0
    require(len(obj["entries"]) == len(targets),
            f"{label}: {len(obj['entries'])} entries, expected {len(targets)}")
    for entry, tgt in zip(obj["entries"], targets):
        m = int(entry["index"])
        members = [checks.rational_matrix(mo) for mo in entry["base"]["members"]]
        b, f = checks.check_rational_base(members, tgt, EPS, f"{label} entry {m}", tag_index=m)
        bits = max(bits, b)
        floats[m] = f
        pairs.append((m, members))
    return pairs, floats, bits


def check_round(inputs, workdir, rec):
    s = inputs.size
    out = rec.out
    indices = []
    for t, (index, size, _) in enumerate(out["served"]):
        require(size == t + 1, f"request {t} left {size} entries, expected {t + 1}")
        indices.append(index)
    require(all(a < b for a, b in zip(indices, indices[1:])), "tag indices do not increase")
    require(all(4.0 * (math.pi / 4.0) ** m <= EPS / 2 for m in indices),
            "a tag displacement bound exceeds eps/2")

    pairs, floats, bits = _check_registry_file(workdir / "registry.json", inputs.stream,
                                               "registry")
    require([m for m, _ in pairs] == indices, "saved registry indices differ from the stream's")
    for t, (index, _, report) in enumerate(out["served"]):
        _check_report(f"request {t}", report, [index], floats, inputs.density, s["trials"])

    own_floor = checks.min_cross_member_distance([floats[m] for m in indices])
    require(own_floor > 1e-9, f"cross-member floor {own_floor:.3e} not above 1e-9")
    require(abs(out["min_cross"] - own_floor) <= 1e-9 + 1e-6 * own_floor,
            f"min_cross_member_distance {out['min_cross']:.6e}, own {own_floor:.6e}")

    for t, index, size in out["rerequest"]:
        require(index == indices[t] and size == s["stream"],
                f"re-request of target {t} got entry {index} with {size} entries")
    for t, hit in out["lookup_hit"]:
        require(hit == [indices[t]], f"lookup of target {t} returned {hit}")
    require(out["lookup_miss"] == [0] * len(inputs.miss), "a fresh target hit the registry")

    for label, reg in (("in memory", out["registry"]), ("reloaded", out["reloaded"])):
        held = [(e.index, [[tuple(x) for x in row] for row in mo.rows])
                for e in reg.entries for mo in e.base.members]
        saved = [(m, [[tuple(x) for x in row] for row in mo]) for m, members in pairs
                 for mo in members]
        require(held == saved, f"{label} registry differs from the saved (index, base) pairs")

    for n in s["snap_dims"]:
        obj = json.loads((workdir / f"snapped_{n}.json").read_text())
        members = [checks.rational_matrix(mo) for mo in obj["members"]]
        require(obj["dim"] == n and len(members) == len(inputs.snaps[n]),
                f"snap at n={n} has the wrong shape")
        b, _ = checks.check_rational_base(members, inputs.snaps[n], SNAP_EPS, f"snap n={n}")
        bits = max(bits, b)

    cli_pairs, cli_floats, _ = _check_registry_file(
        workdir / "registry_cli.json", inputs.stream + [inputs.cli_targets], "simulate povm")
    new = cli_pairs[-1][0]
    require(new > indices[-1], "simulate povm did not append a fresh index")
    _check_report("simulate povm", json.loads((workdir / "report.json").read_text()), [new],
                  cli_floats, inputs.density, s["cli_trials"])

    rec.counts["registry_bytes"] = (workdir / "registry.json").stat().st_size
    rec.counts["den_bits_max"] = bits


REG = "povmfamily.ResolutionRegistry."
PSD = "povmfamily.RationalOperator.is_positive_semidefinite"


def layer_metrics(view, rec, inputs):
    registers = view.durations(REG + "register")
    tenth = max(1, len(registers) // 10)
    out = {
        "simulator.realize_povm_ms": view.median("simulator.realize_povm", 1e3,
                                                 parent="bench.povm_request"),
        "simulator.povm_run_trials_ms": view.median("simulator.run_trials", 1e3,
                                                    parent="bench.povm_request"),
        "povmfamily.psd_cert_ms": view.median(PSD, 1e3),
        "povmfamily.register_first_ms": float(np.median(registers[:tenth])) * 1e3,
        "povmfamily.register_last_ms": float(np.median(registers[-tenth:])) * 1e3,
        "povmfamily.lookup_hit_ms": view.median(REG + "candidates_within", 1e3,
                                                parent="bench.lookup_hit"),
        "povmfamily.lookup_miss_ms": view.median(REG + "candidates_within", 1e3,
                                                 parent="bench.lookup_miss"),
        "povmfamily.min_cross_s": view.total(REG + "min_cross_member_distance",
                                             parent="bench.min_cross"),
        "povmfamily.save_s": view.total(REG + "save", parent="bench.registry_save"),
        "povmfamily.load_s": view.total(REG + "load", parent="bench.registry_load"),
        "povmfamily.registry_bytes": rec.counts["registry_bytes"],
        "povmfamily.den_bits_max": rec.counts["den_bits_max"],
        "cli.povm_snap_s": view.total("cli.main", parent="bench.cli_povm_snap"),
        "cli.simulate_povm_s": view.total("cli.main", parent="bench.cli_simulate_povm"),
    }
    for n in (2, 3, 4, 5):
        out[f"povmfamily.snap_n{n}_ms"] = view.median("povmfamily.snap_resolution", 1e3, tag=n,
                                                      within="bench.cli_povm_snap")
    return out
