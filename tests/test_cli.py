"""Command line behavior: happy paths, report formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nchv
from helpers import random_resolution, saved_layout_registry
from nchv import opcore
from nchv.basisfamily import BasisFamily, min_cross_commutator_norm
from nchv.cli import build_parser, main
from nchv.opcore import OrthonormalBasis, basis_to_json, operator_to_json
from nchv.povmfamily import ResolutionRegistry

FIXTURE = "src/nchv/fixtures/ks18_dim4.json"


@pytest.fixture()
def workdir(tmp_path, family10):
    """Family, state, and target payloads on disk for CLI runs."""
    fam_path = tmp_path / "family.json"
    family10.save(fam_path)
    b = family10.members[3].basis.mat
    target = (b * np.array([1.0, 2.0, 3.0])) @ b.conj().T
    (tmp_path / "target.json").write_text(json.dumps(operator_to_json(target)))
    (tmp_path / "state.json").write_text(json.dumps(operator_to_json(np.eye(3) / 3)))
    targets = random_resolution(3, 3, np.random.default_rng(42))
    (tmp_path / "targets.json").write_text(
        json.dumps({"members": [operator_to_json(t) for t in targets]})
    )
    return tmp_path


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestFamilyGen:
    def test_writes_family_and_reports(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        code = run_cli("family", "gen", "--n", 2, "--count", 4,
                       "--seed", 7, "--out", out)
        assert code == 0
        assert "wrote 4 bases" in capsys.readouterr().out
        fam = BasisFamily.load(out)
        assert fam.dim == 2 and len(fam.members) == 4

    def test_check_flag_prints_floor(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        code = run_cli("family", "gen", "--n", 2, "--count", 3,
                       "--seed", 8, "--out", out, "--check")
        assert code == 0
        printed = capsys.readouterr().out.split("commutator floor ")[1].strip()
        bases = [m.basis for m in BasisFamily.load(out).members]
        floor = min(min_cross_commutator_norm(a, b)
                    for i, a in enumerate(bases) for b in bases[i + 1:])
        assert printed == f"{floor:.3e}"


class TestSimulatePvm:
    def test_human_summary(self, workdir, capsys):
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "state.json",
                       "--target", workdir / "target.json",
                       "--eps", 1e-6, "--trials", 400)
        assert code == 0
        assert "tv distance" in capsys.readouterr().out

    def test_json_report_parses(self, workdir, capsys):
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "state.json",
                       "--target", workdir / "target.json",
                       "--eps", 1e-6, "--trials", 400, "--report", "json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_trials"] == 400
        assert sum(payload["counts"]) == 400

    def test_csv_report_to_stdout(self, workdir, capsys):
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "state.json",
                       "--target", workdir / "target.json",
                       "--eps", 1e-6, "--trials", 100, "--report", "csv")
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,count,empirical,born,z_score"
        assert len(lines) == 4

    def test_csv_report_file(self, workdir):
        out = workdir / "report.csv"
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "state.json",
                       "--target", workdir / "target.json",
                       "--eps", 1e-6, "--trials", 100, "--report", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,count,empirical,born,z_score"
        assert len(lines) == 4

    def test_large_scale_target_runs(self, workdir, capsys):
        """A target with entries near 1e8, whose roundoff outgrows the absolute tolerances,
        gives the counts of the unit-scale target and its labels times 1e8."""
        target = json.loads((workdir / "target.json").read_text())
        scaled = {"dim": 3, "re": [1e8 * x for x in target["re"]], "im": [1e8 * x for x in target["im"]]}
        (workdir / "big.json").write_text(json.dumps(scaled))
        reports = []
        for name in ("target.json", "big.json"):
            assert run_cli("simulate", "pvm", "--family", workdir / "family.json",
                           "--state", workdir / "state.json", "--target", workdir / name,
                           "--eps", 1e-6, "--trials", 400, "--report", "json") == 0
            reports.append(json.loads(capsys.readouterr().out))
        unit, big = reports
        assert big["counts"] == unit["counts"]
        assert np.allclose(big["labels"], 1e8 * np.array(unit["labels"]), rtol=1e-12, atol=0)

    def test_far_target_exits_two(self, workdir, capsys):
        (workdir / "far.json").write_text(
            json.dumps(operator_to_json(np.diag([1.0, 2.0, 3.0])))
        )
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "state.json",
                       "--target", workdir / "far.json",
                       "--eps", 1e-8, "--trials", 10)
        assert code == 2
        assert "nearest" in capsys.readouterr().err

    def test_degenerate_target_exits_four(self, workdir, capsys):
        (workdir / "deg.json").write_text(
            json.dumps(operator_to_json(np.diag([1.0, 1.0, 2.0])))
        )
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "state.json",
                       "--target", workdir / "deg.json",
                       "--eps", 0.5, "--trials", 10)
        assert code == 4

    def test_malformed_state_exits_four(self, workdir, capsys):
        (workdir / "broken.json").write_text('{"dim": 2, "re": [[1,0],[0,1]]}')
        code = run_cli("simulate", "pvm", "--family", workdir / "family.json",
                       "--state", workdir / "broken.json",
                       "--target", workdir / "target.json",
                       "--eps", 0.5, "--trials", 10)
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestSimulatePovm:
    def test_creates_and_reuses_registry(self, workdir, capsys):
        reg = workdir / "registry.json"
        args = ("simulate", "povm", "--registry", reg,
                "--state", workdir / "state.json",
                "--targets", workdir / "targets.json",
                "--eps", 0.02, "--trials", 300)
        assert run_cli(*args) == 0
        first = json.loads(reg.read_text())
        assert run_cli(*args) == 0
        second = json.loads(reg.read_text())
        assert len(first["entries"]) == len(second["entries"]) == 1

    @staticmethod
    def _request(workdir, targets):
        return ("simulate", "povm", "--registry", workdir / "registry.json",
                "--state", workdir / "state.json", "--targets", workdir / targets,
                "--eps", 0.02, "--trials", 300)

    def test_a_hit_leaves_the_registry_file_alone(self, workdir):
        reg = workdir / "registry.json"
        assert run_cli(*self._request(workdir, "targets.json")) == 0
        before = reg.stat().st_ino, reg.read_bytes()
        assert run_cli(*self._request(workdir, "targets.json")) == 0
        assert (reg.stat().st_ino, reg.read_bytes()) == before

    def test_a_miss_writes_the_grown_registry(self, workdir):
        reg = workdir / "registry.json"
        assert run_cli(*self._request(workdir, "targets.json")) == 0
        inode = reg.stat().st_ino
        other = random_resolution(3, 3, np.random.default_rng(43))
        (workdir / "other.json").write_text(
            json.dumps({"members": [operator_to_json(t) for t in other]}))
        assert run_cli(*self._request(workdir, "other.json")) == 0
        assert reg.stat().st_ino != inode
        assert len(json.loads(reg.read_text())["entries"]) == 2


class TestSnap:
    def test_writes_rational_resolution(self, workdir, capsys):
        out = workdir / "snapped.json"
        code = run_cli("povm", "snap", "--targets", workdir / "targets.json",
                       "--eps", 1e-3, "--out", out)
        assert code == 0
        assert "max shift" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert len(payload["members"]) == 3

    def test_same_input_writes_the_same_bytes(self, workdir):
        outs = [workdir / "first.json", workdir / "second.json"]
        for out in outs:
            assert run_cli("povm", "snap", "--targets", workdir / "targets.json",
                           "--eps", 1e-3, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_unattainable_eps_exits_three(self, workdir, capsys):
        code = run_cli("povm", "snap", "--targets", workdir / "targets.json",
                       "--eps", 1e-30, "--out", workdir / "x.json")
        assert code == 3

    def test_snaps_below_five_times_ten_to_the_minus_seven(self, workdir, capsys):
        code = run_cli("povm", "snap", "--targets", workdir / "targets.json",
                       "--eps", 1e-7, "--out", workdir / "fine.json")
        assert code == 0
        shift = float(capsys.readouterr().out.rsplit("max shift ", 1)[1].rstrip(")\n"))
        assert 0 < shift < 1e-7


def one_layout(text):
    """``text`` in the one layout nchv writes JSON in, restated with the standard library."""
    return json.dumps(json.loads(text), sort_keys=True) + "\n"


SIMULATE_PVM = ("simulate", "pvm", "--family", "{dir}/family.json", "--state", "{dir}/state.json",
                "--target", "{dir}/target.json", "--eps", 1e-6, "--trials", 100)


class TestOneJsonLayout:
    @pytest.mark.parametrize("argv", [
        ("family", "gen", "--n", 3, "--count", 4, "--seed", 7, "--out", "{dir}/out.json"),
        ("simulate", "povm", "--registry", "{dir}/out.json", "--state", "{dir}/state.json",
         "--targets", "{dir}/targets.json", "--eps", 0.02, "--trials", 50),
        ("povm", "snap", "--targets", "{dir}/targets.json", "--eps", 1e-3, "--out", "{dir}/out.json"),
        SIMULATE_PVM + ("--report", "{dir}/out.json"),
        SIMULATE_PVM + ("--report", "json"),
    ], ids=["family", "registry", "snap", "report-file", "report-stdout"])
    def test_written_json_is_one_sorted_line(self, workdir, capsys, argv):
        assert run_cli(*(str(a).format(dir=workdir) for a in argv)) == 0
        stdout = capsys.readouterr().out
        text = stdout if argv[-1] == "json" else (workdir / "out.json").read_text()
        assert text == one_layout(text)

    @pytest.mark.parametrize("cls", [BasisFamily, ResolutionRegistry])
    def test_indented_files_of_earlier_versions_load(self, tmp_path, family10, cls):
        """A file in the indented layout that earlier versions wrote loads as the same
        record, and saves again in the one layout."""
        obj = family10.to_json() if cls is BasisFamily else saved_layout_registry()
        (tmp_path / "old.json").write_text(json.dumps(obj, sort_keys=True, indent=1))
        loaded = cls.load(tmp_path / "old.json")
        assert loaded.to_json() == obj
        loaded.save(tmp_path / "new.json")
        text = (tmp_path / "new.json").read_text()
        assert text == one_layout(text) and cls.load(tmp_path / "new.json").to_json() == obj


@pytest.mark.parametrize("name", ["report.json", "report.csv", "snapped.json"])
def test_interrupted_write_keeps_the_previous_file(workdir, monkeypatch, capsys, name):
    out = workdir / name
    if name.startswith("report"):
        argv = ("simulate", "pvm", "--family", workdir / "family.json",
                "--state", workdir / "state.json", "--target", workdir / "target.json",
                "--eps", 1e-6, "--trials", 100, "--report", out)
    else:
        argv = ("povm", "snap", "--targets", workdir / "targets.json", "--eps", 1e-3, "--out", out)
    out.write_text("previous")
    before = sorted(p.name for p in workdir.iterdir())

    def broken(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(opcore.os, "replace", broken)
    assert run_cli(*argv) == 4
    assert f"error: cannot write {out}: disk full" in capsys.readouterr().err
    assert out.read_text() == "previous"
    assert sorted(p.name for p in workdir.iterdir()) == before


class TestKscheck:
    def test_uncolorable_fixture(self, capsys):
        assert run_cli("kscheck", "--fixture", FIXTURE) == 0
        out = capsys.readouterr().out
        assert "no truth function exists" in out

    def test_limit_reported(self, workdir, family10, capsys):
        from nchv.kscheck import problem_from_family

        prob = problem_from_family(family10, count=2)
        payload = {
            "dim": 3,
            "operators": [operator_to_json(op) for op in prob.operators],
            "resolutions": [list(r) for r in prob.resolutions],
        }
        path = workdir / "blocks.json"
        path.write_text(json.dumps(payload))
        assert run_cli("kscheck", "--fixture", path, "--limit", 4) == 0
        assert "stopped at the limit" in capsys.readouterr().out


def nearly_orthonormal_family():
    """A one-member n = 2 family whose Gram error is 8e-11 entrywise but 1.6e-10 in norm.

    The basis is nearly Hadamard, so no diagonal target is within 0.5 of it:
    only a check made when the family loads can give exit code 4.
    """
    mat = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2) @ (np.eye(2) + 4e-11 * np.ones((2, 2)))
    vectors = [{"re": [float(x) for x in mat[:, i]], "im": [0.0, 0.0]} for i in range(2)]
    return {"n": 2, "net_bound": 1.0, "floor": 1e-8, "seed": 0,
            "members": [{"index": 1, "basis": {"dim": 2, "vectors": vectors},
                         "provenance": {"seed": 0, "replacements": 0, "distance_moved": 0.0}}]}


def mixed_dimension_family():
    """A three-member n = 2 family whose second member is a dimension-3 basis."""
    family = nearly_orthonormal_family()
    member = family["members"][0]
    family["members"] = [
        dict(member, index=i, basis=basis_to_json(OrthonormalBasis(np.eye(dim))))
        for i, dim in ((1, 2), (2, 3), (3, 2))
    ]
    return family


def valid_family(**member):
    """A one-member n = 2 family of the standard basis, with ``member`` fields replaced."""
    family = nearly_orthonormal_family()
    entry = dict(family["members"][0], basis=basis_to_json(OrthonormalBasis(np.eye(2))))
    family["members"] = [dict(entry, **member)]
    return family


def dimension_three_family():
    """A one-member n = 3 family of the standard basis."""
    return dict(valid_family(basis=basis_to_json(OrthonormalBasis(np.eye(3)))), n=3)


def operator_fixture(entry):
    return json.dumps({"dim": 2, "operators": [entry]})


BAD_RE = {"dim": 2, "re": [1, 0, 0, "x"], "im": [0, 0, 0, 0]}
SCALAR_RE = {"dim": 2, "re": 7, "im": [0, 0, 0, 0]}
SIMULATE_PVM_AT = ("simulate", "pvm", "--family", "{dir}/bad.json", "--state", "{dir}/state.json",
                   "--target", "{dir}/target.json", "--eps", 0.5, "--trials", 10)
SIMULATE_POVM_NEW = ("simulate", "povm", "--registry", "{dir}/registry.json",
                     "--state", "{dir}/state.json", "--targets", "{dir}/targets.json",
                     "--eps", 0.5, "--trials", 10)
SIMULATE_POVM_AT = ("simulate", "povm", "--registry", "{dir}/bad.json", "--state", "{dir}/state.json",
                    "--targets", "{dir}/targets.json", "--eps", 0.5, "--trials", 10)
SNAP_AT = ("povm", "snap", "--targets", "{dir}/targets.json", "--eps", 0.01, "--out", "{dir}/x.json")
FAMILY_GEN_AT = ("family", "gen", "--n", 2, "--count", 2, "--seed", 1, "--out", "{dir}/f.json")


def with_value(argv, flag, value):
    """``argv`` with the value of its ``flag`` replaced."""
    at = argv.index(flag) + 1
    return argv[:at] + (value,) + argv[at + 1:]


def without(argv, flag):
    """``argv`` without ``flag`` and its value."""
    at = argv.index(flag)
    return argv[:at] + argv[at + 2:]


def registry_with(change):
    """``saved_layout_registry()`` as JSON text, after ``change`` has edited its one entry."""
    obj = saved_layout_registry()
    change(obj["entries"][0])
    return json.dumps(obj)


RATIONAL_IDENTITY_3 = {"dim": 3, "entries": [[{"re": {"num": int(r == c), "den": 1}, "im": {"num": 0, "den": 1}}
                                              for c in range(3)] for r in range(3)]}


@pytest.mark.parametrize("argv, payload", [
    (("kscheck", "--fixture", "{dir}/bad.json"), '{"dim": 3, "vectors": ['),
    (("kscheck", "--fixture", "{dir}/missing.json"), None),
    (("povm", "snap", "--targets", "{dir}/bad.json", "--eps", 0.01, "--out", "{dir}/x.json"),
     '{"resolution": []}'),
    (("simulate", "pvm", "--family", "{dir}/missing.json", "--state", "{dir}/state.json",
      "--target", "{dir}/target.json", "--eps", 0.5, "--trials", 10), None),
    (("simulate", "povm", "--registry", "{dir}/bad.json", "--state", "{dir}/state.json",
      "--targets", "{dir}/targets.json", "--eps", 0.5, "--trials", 10), "{"),
    (("simulate", "povm", "--registry", "{dir}/bad.json", "--state", "{dir}/state.json",
      "--targets", "{dir}/targets.json", "--eps", 0.5, "--trials", 10),
     json.dumps({"dim": 2, "entries": saved_layout_registry()["entries"] * 2})),
    (("simulate", "povm", "--registry", "{dir}/bad.json", "--state", "{dir}/state.json",
      "--targets", "{dir}/targets.json", "--eps", 0.5, "--trials", 10),
     json.dumps({"dim": 2, "entries": [dict(saved_layout_registry()["entries"][0], index=m)
                                       for m in (90, 91)]})),
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "resolutions": [[0, 5]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "resolutions": [[0, "x"]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "resolutions": [[0, -1]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "vectors": [[1, "x"], [0, 1]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "vectors": [[1, [1]], [0, 1]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "vectors": 5})),
    (SIMULATE_PVM_AT, json.dumps(nearly_orthonormal_family())),
    (SIMULATE_PVM_AT, json.dumps(mixed_dimension_family())),
    (("kscheck", "--fixture", "{dir}/bad.json"), operator_fixture(BAD_RE)),
    (("kscheck", "--fixture", "{dir}/bad.json"), operator_fixture(SCALAR_RE)),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "operators": 5})),
    (("povm", "snap", "--targets", "{dir}/bad.json", "--eps", 0.01, "--out", "{dir}/x.json"),
     json.dumps({"members": [BAD_RE]})),
    (("simulate", "pvm", "--family", "{dir}/missing.json", "--state", "{dir}/bad.json",
      "--target", "{dir}/target.json", "--eps", 0.5, "--trials", 10), json.dumps(BAD_RE)),
    (with_value(SIMULATE_PVM_AT, "--eps", "nan"), json.dumps(valid_family())),
    (with_value(SIMULATE_PVM_AT, "--eps", "inf"), json.dumps(valid_family())),
    (with_value(SIMULATE_POVM_NEW, "--eps", "nan"), None),
    (with_value(SIMULATE_POVM_NEW, "--eps", "inf"), None),
    (with_value(SNAP_AT, "--eps", "nan"), None),
    (with_value(SNAP_AT, "--eps", "inf"), None),
    (("kscheck", "--fixture", FIXTURE, "--limit", 0), None),
    (FAMILY_GEN_AT + ("--net-bound", 1), None),
    (with_value(SIMULATE_PVM_AT, "--eps", "x"), json.dumps(valid_family())),
    (without(SIMULATE_POVM_NEW, "--targets"), None),
    (without(SNAP_AT, "--out"), None),
    (("kscheck",), None),
    (("family", "gen", "--n", 2, "--count", 2, "--seed", -1, "--out", "{dir}/f.json"), None),
    (SIMULATE_PVM_AT + ("--seed-app", -1), json.dumps(valid_family())),
    (SIMULATE_POVM_NEW + ("--seed-sys", -1), None),
    (with_value(SIMULATE_POVM_NEW, "--state", "{dir}/state3.json"), None),
    (with_value(SIMULATE_PVM_AT, "--state", "{dir}/state3.json"), json.dumps(valid_family())),
    (with_value(FAMILY_GEN_AT, "--out", "{dir}/nodir/f.json"), None),
    (with_value(SNAP_AT, "--out", "{dir}/nodir/x.json"), None),
    (with_value(SIMULATE_POVM_NEW, "--registry", "{dir}/nodir/r.json"), None),
    (SIMULATE_PVM_AT + ("--report", "{dir}/nodir/r.json"), json.dumps(valid_family())),
    (with_value(FAMILY_GEN_AT, "--out", "{dir}/taken.json"), None),
    (SIMULATE_PVM_AT + ("--report", "{dir}/out.txt"), json.dumps(valid_family())),
    (SIMULATE_POVM_NEW + ("--report", "{dir}/out.txt"), None),
    (with_value(SIMULATE_PVM_AT, "--trials", 0), json.dumps(valid_family())),
    (SIMULATE_PVM_AT, json.dumps(dimension_three_family())),
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 0]], "resolutions": [[0, 1]]})),
    (("simulate", "povm", "--registry", "{dir}/bad.json", "--state", "{dir}/state3.json",
      "--targets", "{dir}/targets3.json", "--eps", 0.5, "--trials", 10),
     json.dumps(saved_layout_registry())),
    (SIMULATE_POVM_NEW + ("--report", "{dir}/nodir/r.json"), None),
    (with_value(SIMULATE_POVM_NEW, "--registry", "{dir}/nodir/r.json") + ("--report", "{dir}/out.json"), None),
    (with_value(SIMULATE_POVM_NEW, "--registry", "{dir}/nodir/r.json") + ("--report", "json"), None),
    (SIMULATE_POVM_AT, registry_with(lambda e: e["base"]["members"][0]["entries"][0][0]["re"].update(den=0))),
    (SIMULATE_POVM_AT, registry_with(lambda e: e.update(index=0))),
    (SIMULATE_POVM_AT, registry_with(lambda e: e["base"]["members"].pop())),
    (SIMULATE_POVM_AT, registry_with(lambda e: e["base"]["members"].__setitem__(1, RATIONAL_IDENTITY_3))),
], ids=["malformed-json", "missing-file", "targets-without-members", "missing-family",
        "malformed-registry", "repeated-registry-index", "colliding-registry-members",
        "resolution-index-past-end",
        "resolution-index-not-integer", "resolution-index-negative", "vector-entry-not-a-number",
        "vector-entry-short-pair", "vectors-not-a-list", "basis-orthonormal-only-entrywise",
        "family-mixed-dimensions", "operator-entry-not-a-number", "operator-entries-not-a-list",
        "operators-not-a-list", "target-entry-not-a-number", "state-entry-not-a-number",
        "pvm-eps-nan", "pvm-eps-inf", "povm-eps-nan", "povm-eps-inf", "snap-eps-nan",
        "snap-eps-inf", "kscheck-limit-zero", "gen-unknown-flag", "pvm-eps-not-a-number",
        "povm-missing-flag", "snap-missing-flag", "kscheck-missing-flag",
        "gen-negative-seed", "pvm-negative-apparatus-seed", "povm-negative-system-seed",
        "povm-state-dimension", "pvm-state-dimension", "gen-out-missing-dir",
        "snap-out-missing-dir", "povm-registry-missing-dir", "pvm-report-missing-dir",
        "gen-out-is-a-directory", "pvm-report-unknown-suffix", "povm-report-unknown-suffix",
        "pvm-zero-trials", "pvm-family-dimension", "vector-zero", "povm-registry-dimension",
        "povm-report-missing-dir", "povm-registry-missing-dir-report-file",
        "povm-registry-missing-dir-report-stdout", "registry-zero-denominator", "registry-index-zero",
        "registry-base-of-one-member", "registry-members-of-mixed-dimension"])
def test_unreadable_input_exits_four(tmp_path, capsys, argv, payload):
    """Exit 4 with an error line, and nothing written: no report on stdout or in a file,
    no temp file, no new registry, and the input file as it was."""
    if payload is not None:
        (tmp_path / "bad.json").write_text(payload)
    (tmp_path / "taken.json").mkdir()
    (tmp_path / "state.json").write_text(json.dumps(operator_to_json(np.eye(2) / 2)))
    (tmp_path / "state3.json").write_text(json.dumps(operator_to_json(np.eye(3) / 3)))
    (tmp_path / "target.json").write_text(json.dumps(operator_to_json(np.diag([1.0, 2.0]))))
    (tmp_path / "targets.json").write_text(
        json.dumps({"members": [operator_to_json(np.eye(2) / 2)] * 2})
    )
    (tmp_path / "targets3.json").write_text(
        json.dumps({"members": [operator_to_json(np.eye(3) / 2)] * 2})
    )
    code = run_cli(*(str(a).format(dir=tmp_path) for a in argv))
    assert code == 4
    out, err = capsys.readouterr()
    assert "error:" in err
    assert out == ""
    assert not (tmp_path / "out.json").exists()
    assert not list(tmp_path.rglob("*.tmp"))
    assert not (tmp_path / "registry.json").exists()
    if payload is not None:
        assert (tmp_path / "bad.json").read_text() == payload


@pytest.mark.parametrize("argv, payload", [
    (SIMULATE_POVM_AT, json.dumps({"dim": 2, "entries": [
        dict(saved_layout_registry()["entries"][0], index=57.9)]})),
    (SIMULATE_PVM_AT, json.dumps(valid_family(index=2.7))),
    (SIMULATE_PVM_AT, json.dumps(valid_family(provenance={"seed": 0, "replacements": "lots",
                                                          "distance_moved": 0.0}))),
], ids=["registry-index-not-integer", "member-index-not-integer", "replacements-not-integer"])
def test_malformed_number_exits_four(tmp_path, capsys, argv, payload):
    """Numbers that an int() or a dataclass once let through."""
    test_unreadable_input_exits_four(tmp_path, capsys, argv, payload)


def test_valid_family_runs(tmp_path, capsys):
    """The payload the rows above break loads and serves the same request."""
    (tmp_path / "bad.json").write_text(json.dumps(valid_family()))
    (tmp_path / "state.json").write_text(json.dumps(operator_to_json(np.eye(2) / 2)))
    (tmp_path / "target.json").write_text(json.dumps(operator_to_json(np.diag([1.0, 2.0]))))
    assert run_cli(*(str(a).format(dir=tmp_path) for a in SIMULATE_PVM_AT)) == 0


def test_infinite_target_entries_exit_four_without_warning(workdir):
    """Two off-diagonal target entries of Infinity: the file is refused before any
    arithmetic, so a run that turns RuntimeWarning into an error still exits 4."""
    payload = json.loads((workdir / "target.json").read_text())
    payload["re"][1] = payload["re"][3] = float("inf")
    (workdir / "inf.json").write_text(json.dumps(payload))
    src = str(Path(nchv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "nchv", "simulate", "pvm",
         "--family", str(workdir / "family.json"), "--state", str(workdir / "state.json"),
         "--target", str(workdir / "inf.json"), "--eps", "0.5", "--trials", "10"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr


def _option_strings(parser, path=()):
    """Each leaf subcommand of ``parser`` mapped to the set of its option strings."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {" ".join(path): {s for a in parser._actions for s in a.option_strings}}
    return {leaf: opts for name, sub in subs[0].choices.items()
            for leaf, opts in _option_strings(sub, path + (name,)).items()}


def test_command_line_surface_is_pinned():
    """A new or removed option shows up here as a deliberate edit."""
    common = {"-h", "--help"}
    simulate = common | {"--state", "--eps", "--trials", "--seed-app", "--seed-sys",
                         "--fixed-apparatus", "--report"}
    assert _option_strings(build_parser()) == {
        "family gen": common | {"--n", "--count", "--seed", "--out", "--check"},
        "simulate pvm": simulate | {"--family", "--target"},
        "simulate povm": simulate | {"--registry", "--targets"},
        "povm snap": common | {"--targets", "--eps", "--out"},
        "kscheck": common | {"--fixture", "--limit"},
    }


def test_help_exits_zero(capsys):
    for argv in ([], ["family", "gen"], ["simulate", "pvm"], ["povm", "snap"], ["kscheck"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: nchv")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nchv", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "family" in proc.stdout


NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import nchv
from nchv.basisfamily import BasisFamily
from nchv.cli import main
from nchv.opcore import operator_to_json

loaded = [name for name, mod in sys.modules.items()
          if name.split(".")[0] == "scipy" and mod is not None]
assert loaded == [], loaded
out = sys.argv[1]
codes = [main(["family", "gen", "--n", "2", "--count", "3", "--seed", "5",
               "--out", out + "/family.json"])]
basis = BasisFamily.load(out + "/family.json").members[1].basis.mat
payloads = {
    "target": operator_to_json((basis * np.array([1.0, 2.0])) @ basis.conj().T),
    "state": operator_to_json(np.eye(2) / 2),
    "targets": {"members": [operator_to_json(np.diag([0.3, 0.6])),
                            operator_to_json(np.diag([0.7, 0.4]))]},
}
for name, payload in payloads.items():
    with open(f"{out}/{name}.json", "w") as fh:
        json.dump(payload, fh)
codes.append(main(["simulate", "pvm", "--family", out + "/family.json",
                   "--state", out + "/state.json", "--target", out + "/target.json",
                   "--eps", "1e-6", "--trials", "50"]))
codes.append(main(["simulate", "povm", "--registry", out + "/registry.json",
                   "--state", out + "/state.json", "--targets", out + "/targets.json",
                   "--eps", "0.02", "--trials", "50"]))
codes.append(main(["kscheck", "--fixture", sys.argv[2]]))
assert codes == [0, 0, 0, 0], codes
"""


def test_runs_without_scipy(tmp_path):
    src = str(Path(nchv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path),
         str(Path(nchv.__file__).parent / "fixtures" / "ks18_dim4.json")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
