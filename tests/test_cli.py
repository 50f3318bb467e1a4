"""Command line behavior: happy paths, report formats, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from helpers import random_resolution, saved_layout_registry
from nchv.basisfamily import BasisFamily
from nchv.cli import main
from nchv.opcore import operator_to_json

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
        assert "commutator floor" in capsys.readouterr().out


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
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "resolutions": [[0, 5]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "resolutions": [[0, "x"]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"),
     json.dumps({"dim": 2, "vectors": [[1, 0], [0, 1]], "resolutions": [[0, -1]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "vectors": [[1, "x"], [0, 1]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "vectors": [[1, [1]], [0, 1]]})),
    (("kscheck", "--fixture", "{dir}/bad.json"), json.dumps({"dim": 2, "vectors": 5})),
], ids=["malformed-json", "missing-file", "targets-without-members", "missing-family",
        "malformed-registry", "repeated-registry-index", "resolution-index-past-end",
        "resolution-index-not-integer", "resolution-index-negative", "vector-entry-not-a-number",
        "vector-entry-short-pair", "vectors-not-a-list"])
def test_unreadable_input_exits_four(tmp_path, capsys, argv, payload):
    if payload is not None:
        (tmp_path / "bad.json").write_text(payload)
    (tmp_path / "state.json").write_text(json.dumps(operator_to_json(np.eye(2) / 2)))
    (tmp_path / "target.json").write_text(json.dumps(operator_to_json(np.diag([1.0, 2.0]))))
    (tmp_path / "targets.json").write_text(
        json.dumps({"members": [operator_to_json(np.eye(2) / 2)] * 2})
    )
    code = run_cli(*(str(a).format(dir=tmp_path) for a in argv))
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "nchv", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "family" in proc.stdout
