"""Truth-function search: small oracles, brute-force cross-checks, the fixture."""

import gc
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchv.basisfamily import generate_family
from nchv.errors import SearchCapError, ValidationError
from nchv.kscheck import (
    ValuationProblem,
    build_problem,
    discover_resolutions,
    find_truth_functions,
    load_fixture,
    problem_from_family,
    verify_solution,
)
from nchv.opcore import OrthonormalBasis, atom_projections

FIXTURE = "src/nchv/fixtures/ks18_dim4.json"


def brute_force(problem):
    hits = []
    for bits in itertools.product((0, 1), repeat=problem.size):
        if verify_solution(problem, list(bits)):
            hits.append(bits)
    return set(hits)


def atoms_of(basis_mat):
    stack = atom_projections(OrthonormalBasis(basis_mat))
    return [stack[i] for i in range(stack.shape[0])]


class TestBuildProblem:
    def test_deduplicates_close_operators(self):
        p = np.diag([1.0, 0.0])
        q = p + 1e-12
        prob = build_problem([p, q, np.diag([0.0, 1.0])], [[1, 2]])
        assert prob.size == 2
        assert prob.resolutions == ((0, 1),)

    def test_rejects_duplicate_within_resolution(self):
        p = np.diag([1.0, 0.0])
        with pytest.raises(ValidationError):
            build_problem([p, p + 1e-12], [[0, 1]])

    def test_rejects_short_sum(self):
        ops = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]
        with pytest.raises(ValidationError):
            build_problem(ops, [[0, 1]])

    def test_rejects_non_projection(self):
        with pytest.raises(ValidationError):
            build_problem([np.diag([0.5, 0.5])], [])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValidationError):
            build_problem([np.eye(2), np.eye(3)], [])


class TestDiscovery:
    def test_finds_both_bases_and_nothing_between(self):
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        ops = atoms_of(np.eye(2)) + atoms_of(hadamard)
        found = discover_resolutions(ops)
        assert sorted(found) == [(0, 1), (2, 3)]

    def test_complement_pair_included(self):
        ops = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]),
               np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        found = discover_resolutions(ops)
        assert (0, 1) in found and (0, 2, 3) in found

    def test_budget_enforced(self):
        ops = atoms_of(np.eye(3))
        with pytest.raises(SearchCapError):
            discover_resolutions(ops, node_budget=2)


class TestFindTruthFunctions:
    def test_single_resolution_has_k_solutions(self):
        ops = atoms_of(np.eye(4))
        prob = build_problem(ops, [[0, 1, 2, 3]])
        res = find_truth_functions(prob)
        assert len(res.solutions) == 4
        assert res.exhausted
        assert all(sum(s) == 1 for s in res.solutions)

    def test_union_of_blocks_multiplies_choices(self, family10):
        prob = problem_from_family(family10, count=2)
        res = find_truth_functions(prob)
        assert len(res.solutions) == 9
        assert brute_force(prob) == set(res.solutions)

    def test_limit_short_circuits(self, family10):
        prob = problem_from_family(family10, count=3)
        res = find_truth_functions(prob, limit=5)
        assert len(res.solutions) == 5
        assert not res.exhausted

    def test_node_budget_enforced(self, family10):
        prob = problem_from_family(family10, count=3)
        with pytest.raises(SearchCapError):
            find_truth_functions(prob, node_budget=1)

    def test_no_resolutions_means_free_assignments(self):
        prob = build_problem(atoms_of(np.eye(2)), [])
        res = find_truth_functions(prob)
        assert len(res.solutions) == 4

    @given(seed=st.integers(0, 10**4), count=st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_on_small_families(self, seed, count):
        fam = generate_family(2, count, seed=seed)
        prob = problem_from_family(fam)
        res = find_truth_functions(prob)
        assert res.exhausted
        assert set(res.solutions) == brute_force(prob)

    def test_overlapping_contexts_constrain_jointly(self):
        """Two bases sharing one vector: the shared atom ties the contexts."""
        shared = np.diag([1.0, 0.0, 0.0])
        rest1 = atoms_of(np.eye(3))[1:]
        theta = np.array([
            [1.0, 0.0, 0.0],
            [0.0, np.cos(0.3), -np.sin(0.3)],
            [0.0, np.sin(0.3), np.cos(0.3)],
        ])
        rest2 = atoms_of(theta)[1:]
        ops = [shared] + rest1 + rest2
        prob = build_problem(ops, [[0, 1, 2], [0, 3, 4]])
        res = find_truth_functions(prob)
        assert set(res.solutions) == brute_force(prob)
        # shared atom true: one solution; otherwise 2x2 independent picks
        assert len(res.solutions) == 1 + 4


    def test_search_deeper_than_the_recursion_limit(self):
        pair = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        problem = ValuationProblem(pair * 1100, tuple((2 * i, 2 * i + 1) for i in range(1100)), 2)
        result = find_truth_functions(problem, limit=1)
        assert len(result.solutions) == 1 and not result.exhausted
        assert verify_solution(problem, result.solutions[0])
        assert result.solutions[0][:4] == (0, 1, 0, 1)

    def test_search_leaves_no_garbage_cycle(self, family10):
        problem = problem_from_family(family10, count=4)
        gc.collect()
        gc.disable()
        try:
            find_truth_functions(problem)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_discovery_leaves_no_garbage_cycle(self):
        problem = load_fixture(FIXTURE)
        gc.collect()
        gc.disable()
        try:
            found = discover_resolutions(problem.operators)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(found) == 9


class TestVerifySolution:
    def test_length_checked(self, family10):
        prob = problem_from_family(family10, count=1)
        with pytest.raises(ValidationError):
            verify_solution(prob, [0, 1])

    def test_non_binary_rejected(self, family10):
        prob = problem_from_family(family10, count=1)
        assert not verify_solution(prob, [2, 0, 0])


class TestFixture:
    def test_loads_with_declared_resolutions(self):
        prob = load_fixture(FIXTURE)
        assert prob.dim == 4
        assert prob.size == 18
        assert len(prob.resolutions) == 9

    def test_every_vector_sits_in_two_resolutions(self):
        prob = load_fixture(FIXTURE)
        counts = [0] * prob.size
        for ctx in prob.resolutions:
            for i in ctx:
                counts[i] += 1
        assert counts == [2] * 18

    def test_has_no_truth_function(self):
        res = find_truth_functions(load_fixture(FIXTURE))
        assert res.solutions == ()
        assert res.exhausted

    def test_discovery_recovers_the_nine_tetrads(self, tmp_path):
        data = json.loads(open(FIXTURE).read())
        declared = {tuple(sorted(r)) for r in data.pop("resolutions")}
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(data))
        prob = load_fixture(path)
        assert {tuple(r) for r in prob.resolutions} == declared

    def test_dropping_one_resolution_restores_colorability(self, tmp_path):
        """The parity obstruction needs all nine contexts."""
        data = json.loads(open(FIXTURE).read())
        data["resolutions"] = data["resolutions"][:-1]
        path = tmp_path / "weakened.json"
        path.write_text(json.dumps(data))
        res = find_truth_functions(load_fixture(path))
        assert len(res.solutions) > 0

    def test_operator_layout_accepted(self, tmp_path):
        from nchv.opcore import operator_to_json

        ops = atoms_of(np.eye(2))
        payload = {
            "dim": 2,
            "operators": [operator_to_json(o) for o in ops],
            "resolutions": [[0, 1]],
        }
        path = tmp_path / "ops.json"
        path.write_text(json.dumps(payload))
        prob = load_fixture(path)
        assert prob.size == 2
        assert len(find_truth_functions(prob).solutions) == 2

    def test_unknown_layout_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(ValidationError):
            load_fixture(path)
