"""Seeded mutation fuzz of every command line input file.

Each kind of input starts from a valid file; every mutant changes one node
with one entry of ``helpers.FUZZ_MUTATIONS`` and is run through the command
line in process, with every warning turned into an error. A run must end
with exit code 0, 2, 3 or 4, and a failing one must say ``error:`` on
stderr: a traceback or a warning fails the test.
"""

import contextlib
import io
import json
import random
import warnings

import numpy as np
import pytest

from helpers import mutate_json, random_resolution
from nchv.basisfamily import generate_family
from nchv.cli import main
from nchv.opcore import operator_to_json

MUTANTS = 300
FIXTURE = {"dim": 3, "vectors": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, -1, 0],
                                  [[0, 0], [0, 1], [1, 0]]],
           "resolutions": [[0, 1, 2], [2, 3, 4]]}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid payloads of the six kinds, the paths of the unmutated ones, and a scratch directory."""
    base = tmp_path_factory.mktemp("fuzz")
    family = generate_family(2, 3, seed=11)
    b = family.members[1].basis.mat
    payloads = {
        "family": family.to_json(),
        "target": operator_to_json((b * np.array([1.0, 2.0])) @ b.conj().T),
        "state": operator_to_json(np.diag([0.25, 0.75])),
        "targets": {"members": [operator_to_json(t)
                                for t in random_resolution(2, 2, np.random.default_rng(3))]},
        "fixture": FIXTURE,
    }
    for name, payload in payloads.items():
        (base / f"{name}.json").write_text(json.dumps(payload))
    assert main(list(map(str, argv_for("registry", base, base / "registry.json")))) == 0
    payloads["registry"] = json.loads((base / "registry.json").read_text())
    return payloads, base


def argv_for(kind, base, mutant):
    """Command line that reads ``mutant`` as the input of ``kind`` and valid files otherwise."""
    path = {k: base / f"{k}.json" for k in ("family", "target", "state", "targets", "fixture")}
    path["registry"] = base / "fresh-registry.json"
    path[kind] = mutant
    if kind == "fixture":
        return ["kscheck", "--fixture", mutant]
    if kind in ("targets", "registry"):
        return ["simulate", "povm", "--registry", path["registry"], "--state", path["state"],
                "--targets", path["targets"], "--eps", 0.05, "--trials", 1]
    return ["simulate", "pvm", "--family", path["family"], "--state", path["state"],
            "--target", path["target"], "--eps", 0.5, "--trials", 1]


@pytest.mark.parametrize("kind", ["family", "target", "state", "targets", "registry", "fixture"])
def test_mutated_input_exits_cleanly(inputs, kind):
    payloads, base = inputs
    rng = random.Random(f"nchv-fuzz-{kind}")
    mutant = base / f"mutant-{kind}.json"
    for _ in range(MUTANTS):
        name, path, text = mutate_json(payloads[kind], rng)
        mutant.write_text(text)
        (base / "fresh-registry.json").unlink(missing_ok=True)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([str(a) for a in argv_for(kind, base, mutant)])
        where = f"{name} at {list(path)}"
        assert code in (0, 2, 3, 4), where
        assert code == 0 or err.getvalue().startswith("error:"), where
