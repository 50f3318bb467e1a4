"""Truth-function search: small oracles, brute-force cross-checks, the fixture."""

import gc
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    integer_orthogonal_triads,
    peres_33_rays,
    rank_one_projections,
    rational_sphere_rays,
    reference_dedup,
    reference_discover_resolutions,
)
from nchv import kscheck
from nchv.basisfamily import generate_family, haar_basis
from nchv.errors import DimensionMismatchError, SearchCapError, ValidationError
from nchv.kscheck import (
    ValuationProblem,
    _dedup,
    build_problem,
    discover_resolutions,
    find_truth_functions,
    load_fixture,
    problem_from_family,
    verify_solution,
)
from nchv.opcore import SPECTRAL_TOL, OrthonormalBasis, atom_projections, check_projections

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

    def test_invalid_projection_before_the_other_dimension_reported_first(self):
        with pytest.raises(ValidationError, match="not idempotent"):
            build_problem([np.eye(2), np.diag([0.5, 0.5]), np.eye(3)], [])

    @pytest.mark.parametrize("resolutions", [
        [[0, 2]], [[0, 5]], [[0, -1]], [[0, "x"]], [[0, 1.0]], [[0, True]], [[0, None]], [1], 3,
    ], ids=["past-end", "far-past-end", "negative", "string", "float", "bool", "null",
            "bare-index", "bare-number"])
    def test_rejects_bad_resolution_indices(self, resolutions):
        with pytest.raises(ValidationError):
            build_problem(atoms_of(np.eye(2)), resolutions)

    def test_bad_sum_listed_before_an_unreadable_resolution_is_reported_first(self):
        ops = atoms_of(np.eye(3))
        with pytest.raises(ValidationError, match="sum to the identity"):
            build_problem(ops, [[0, 1, 2], [0, 1], [0, 7]])
        with pytest.raises(ValidationError, match="not an integer"):
            build_problem(ops, [[0, 1, 2], [0, 7], [0, 1]])
        with pytest.raises(ValidationError, match="twice"):
            build_problem(ops, [[0, 0], [0, 1]])

    def test_accepts_numpy_integer_indices(self):
        prob = build_problem(atoms_of(np.eye(2)), [np.array([1, 0])])
        assert prob.resolutions == ((0, 1),)

    def test_operators_are_read_only(self):
        prob = build_problem(atoms_of(np.eye(2)), [[0, 1]])
        assert not any(op.flags.writeable for op in prob.operators)


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

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(kscheck, "DEFAULT_DISCOVERY_BUDGET", 2)
        ops = atoms_of(np.eye(3))
        with pytest.raises(SearchCapError):
            discover_resolutions(ops)


def _perturbed(ops, scale, rng):
    """Each operator plus a random Hermitian of norm ``scale``: still rank 1,
    idempotent only to about ``scale``."""
    out = []
    for op in ops:
        z = rng.normal(size=op.shape) + 1j * rng.normal(size=op.shape)
        e = (z + z.conj().T) / 2
        out.append(op + scale * e / np.linalg.norm(e, 2))
    return out


def _tilted(dim, overlap):
    """|e_0><e_0| and the projection onto a unit vector with <e_0, w> = overlap."""
    w = np.zeros(dim)
    w[0], w[1] = overlap, np.sqrt(1 - overlap**2)
    return rank_one_projections([np.eye(dim)[0], w])


def _compensated(overlap, shear):
    """Three dimension-3 elements: e_2 e_2* sheared by -shear (e_0 e_1* + e_1 e_0*),
    e_0 e_0*, and a ray at ``overlap`` to e_0. The shear cancels most of the
    overlap in the sum, so the set resolves the identity although its last
    two rays overlap by more than the tolerance."""
    h = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h[0, 1] = h[1, 0] = -shear
    return [h] + _tilted(3, overlap)


def _peres_24_rays():
    rays = [tuple(np.eye(4)[i]) for i in range(4)]
    for i, j in itertools.combinations(range(4), 2):
        for sign in (1, -1):
            v = np.zeros(4)
            v[i], v[j] = 1, sign
            rays.append(tuple(v))
    rays += [(1,) + signs for signs in itertools.product((1, -1), repeat=3)]
    return rays


def _equivalence_cases():
    rng = np.random.default_rng(20261018)
    cabello = rank_one_projections(json.loads(open(FIXTURE).read())["vectors"])
    sphere14 = rational_sphere_rays(14)
    triads = integer_orthogonal_triads(sphere14)
    subset = sorted({i for t in rng.choice(triads, size=30, replace=False) for i in t})
    e = atoms_of(np.eye(3))
    low, high = SPECTRAL_TOL * (1 - 1e-6), SPECTRAL_TOL * (1 + 1e-6)
    border = e + _tilted(3, low)[1:] + _tilted(3, high)[1:]
    return {
        "cabello-18": cabello,
        "peres-24": rank_one_projections(_peres_24_rays()),
        "peres-33": rank_one_projections(peres_33_rays()),
        "sphere-9": rank_one_projections(rational_sphere_rays(9)),
        "sphere-14-subset": rank_one_projections([sphere14[i] for i in subset]),
        "mixed-ranks": [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0]),
                        np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]),
                        np.diag([1.0, 1.0, 0.0])],
        "cabello-idempotent-to-1e-11": _perturbed(cabello, 1e-11, rng),
        "overlap-at-tol": border,
        "compensated-overlap": _compensated(1.05e-9, 0.06e-9),
        "compensated-overlap-pruned-prefix": _compensated(1.05e-9, 0.06e-9)[::-1],
        "hadamard-pairs": atoms_of(np.eye(2)) + atoms_of(np.array([[1, 1], [1, -1]]) / np.sqrt(2)),
    }


EQUIVALENCE = _equivalence_cases()


class TestReferenceEquivalence:
    """Rank-1 discovery and the batched dedup against the scans they replaced."""

    @pytest.mark.parametrize("name", list(EQUIVALENCE))
    def test_discovery_matches_the_depth_first_scan(self, name):
        ops = EQUIVALENCE[name]
        ranks = check_projections(np.array(ops))
        expected = reference_discover_resolutions(ops, ranks)
        assert discover_resolutions(ops) == expected
        assert discover_resolutions(ops, ranks) == expected

    @pytest.mark.parametrize("name", list(EQUIVALENCE))
    def test_dedup_matches_the_all_pairs_scan(self, name):
        ops = EQUIVALENCE[name]
        rng = np.random.default_rng(7)
        picks = rng.integers(len(ops), size=len(ops))
        # near copies: every entry shifted by 1e-12, or by 3e-10, which moves an
        # operator by 3e-10 n in norm, below the tolerance for n <= 3 and above at n = 4
        noisy = ops + [ops[i] + s for i, s in zip(picks, (1e-12, 3e-10) * len(ops))]
        order = rng.permutation(len(noisy))
        stack = np.array([noisy[i] for i in order])
        reps, expected = reference_dedup(list(stack), SPECTRAL_TOL)
        first, index_map = _dedup(stack, SPECTRAL_TOL)
        assert index_map == expected
        assert all(np.array_equal(stack[i], rep) for i, rep in zip(first, reps))

    def test_compensated_overlap_needs_the_eigenvalue_slack(self):
        ops = EQUIVALENCE["compensated-overlap"]
        assert check_projections(np.array(ops)) == [1, 1, 1]
        assert discover_resolutions(ops) == [(0, 1, 2)]
        # listed the other way round, the scan prunes the prefix of the two rays
        assert discover_resolutions(ops[::-1]) == []

    @pytest.mark.parametrize("shortfall, found", [(0.5e-9, [(0, 1)]), (2e-9, [])])
    def test_short_sum_with_declared_ranks(self, shortfall, found):
        """Remainders that stay positive but exceed the tolerance in norm."""
        ops = [(1 - shortfall) * p for p in atoms_of(np.eye(2))]
        assert reference_discover_resolutions(ops, [1, 1]) == found
        assert discover_resolutions(ops, [1, 1]) == found

    def test_border_overlaps_split_at_the_tolerance(self):
        found = discover_resolutions(EQUIVALENCE["overlap-at-tol"])
        assert (0, 2, 3) in found and (0, 2, 4) not in found

    @pytest.mark.parametrize("factor, merged", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_dedup_border_at_the_tolerance(self, factor, merged):
        angle = np.arcsin(SPECTRAL_TOL * factor)
        ops = np.array(rank_one_projections([[1.0, 0.0], [np.cos(angle), np.sin(angle)]]))
        _, expected = reference_dedup(list(ops), SPECTRAL_TOL)
        first, index_map = _dedup(ops, SPECTRAL_TOL)
        assert index_map == expected == ([0, 0] if merged else [0, 1])

    def test_dedup_joins_representatives_only(self):
        # rays at these angles (in units of tol) are as far apart as their
        # angles differ: 0.9 is within tol of both representatives 0 and 1.2
        # and joins the first, 2.5 is within tol only of 1.8, which joined 1.2
        angles = SPECTRAL_TOL * np.array([0.0, 0.6, 1.2, 0.9, 1.8, 0.3, 2.5])
        ops = np.array(rank_one_projections([[np.cos(a), np.sin(a)] for a in angles]))
        _, expected = reference_dedup(list(ops), SPECTRAL_TOL)
        first, index_map = _dedup(ops, SPECTRAL_TOL)
        assert index_map == expected == [0, 0, 1, 0, 1, 0, 2]
        assert first == [0, 2, 6]

    def test_build_problem_matches_reference_pipeline(self):
        ops = EQUIVALENCE["sphere-14-subset"] + EQUIVALENCE["sphere-14-subset"][:5]
        reps, _ = reference_dedup(ops, SPECTRAL_TOL)
        expected = reference_discover_resolutions(reps, [1] * len(reps))
        prob = build_problem(ops, discover=True)
        assert prob.size == len(reps) == len(ops) - 5
        assert list(prob.resolutions) == sorted(expected)

    def test_peres_33_has_sixteen_triads_and_is_colourable(self):
        prob = build_problem(rank_one_projections(peres_33_rays()), discover=True)
        assert (prob.size, len(prob.resolutions)) == (33, 16)
        res = find_truth_functions(prob)
        assert res.exhausted and len(res.solutions) == 3072


def _mixed_rank_universe(n, rng):
    """Shuffled projections from one to three bases that share the columns of a
    common unitary outside a rotated subset. Each basis is cut into groups
    that become projections of rank 1 or more, some groups also appear as
    their rank-1 atoms, zero projections are added, and about 30% of the
    elements are moved by a random Hermitian of norm 1e-11.

    Returns the operators and how many of them were moved.
    """
    base = haar_basis(n, rng).mat
    ops = []
    for _ in range(rng.integers(1, 4)):
        q = base.copy()
        moved = rng.permutation(n)[:rng.integers(2, n + 1)]
        q[:, moved] = q[:, moved] @ haar_basis(len(moved), rng).mat
        cuts = np.flatnonzero(rng.random(n - 1) < 0.5) + 1
        for group in np.split(rng.permutation(n), cuts):
            ops.append(q[:, group] @ q[:, group].conj().T)
            if len(group) > 1 and rng.random() < 0.4:
                ops += [np.outer(q[:, i], q[:, i].conj()) for i in group]
    ops += [np.zeros((n, n), dtype=complex)] * int(rng.integers(0, 3))
    noisy = np.flatnonzero(rng.random(len(ops)) < 0.3)
    for i in noisy:
        ops[i] = _perturbed([ops[i]], 1e-11, rng)[0]
    return [ops[i] for i in rng.permutation(len(ops))], len(noisy)


def _split_bases(count, seed):
    """``count`` random dimension-4 bases, each as the rank-2 projection onto
    its first two vectors followed by its four rank-1 atoms."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(count):
        q = haar_basis(4, rng).mat
        ops.append(q[:, :2] @ q[:, :2].conj().T)
        ops += [np.outer(q[:, i], q[:, i].conj()) for i in range(4)]
    return ops


class TestMixedRanks:
    """The clique search against the depth-first scan on universes of mixed rank."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_seeded_universes_match_the_depth_first_scan(self, n):
        rng = np.random.default_rng(1000 + n)
        seen = {"rank 0": 0, "rank >= 2": 0, "moved": 0, "found": 0}
        for _ in range(60):
            ops, moved = _mixed_rank_universe(n, rng)
            ranks = check_projections(np.array(ops))
            expected = reference_discover_resolutions(ops, ranks)
            assert discover_resolutions(ops) == expected
            assert discover_resolutions(ops, ranks) == expected
            seen["rank 0"] += 0 in ranks
            seen["rank >= 2"] += max(ranks) >= 2
            seen["moved"] += moved > 0
            seen["found"] += bool(expected)
        assert all(count >= 10 for count in seen.values()), seen

    def test_zero_elements_join_only_before_the_rank_is_full(self):
        e = atoms_of(np.eye(2))
        ops = [e[0], np.zeros((2, 2)), e[1], np.zeros((2, 2))]
        assert check_projections(np.array(ops)) == [1, 0, 1, 0]
        expected = reference_discover_resolutions(ops, [1, 0, 1, 0])
        assert discover_resolutions(ops) == expected == [(0, 1, 2), (0, 2)]

    def test_700_operators_within_the_default_budget(self):
        ops = _split_bases(140, seed=5)
        expected = [r for k in range(0, 700, 5) for r in ((k, k + 3, k + 4), (k + 1, k + 2, k + 3, k + 4))]
        assert discover_resolutions(ops) == expected
        # the depth-first scan runs out of nodes on the same universe
        with pytest.raises(SearchCapError):
            reference_discover_resolutions(ops, check_projections(np.array(ops)))

    @pytest.mark.parametrize("operators", [[np.eye(2), np.eye(3)], [np.ones((2, 3))], np.eye(2)],
                             ids=["mixed-dimensions", "not-square", "one-matrix"])
    def test_rejects_operators_that_do_not_stack(self, operators):
        with pytest.raises(DimensionMismatchError):
            discover_resolutions(operators)

    def test_budget_enforced_on_mixed_ranks(self, monkeypatch):
        ops = _split_bases(12, seed=6)
        assert len(discover_resolutions(ops)) == 24
        monkeypatch.setattr(kscheck, "DEFAULT_DISCOVERY_BUDGET", 40)
        with pytest.raises(SearchCapError):
            discover_resolutions(ops)


class TestDiscoveryScale:
    """Sizes past the old scan's node budget; no wall-clock asserts."""

    def test_sphere_bound_20_gives_the_integer_triads(self):
        rays = rational_sphere_rays(20)
        assert len(rays) == 519
        triads = integer_orthogonal_triads(rays)
        assert len(triads) == 175
        assert discover_resolutions(rank_one_projections(rays)) == triads

    def test_problem_from_400_member_family(self):
        family = generate_family(2, 400, seed=11)
        prob = problem_from_family(family)
        assert prob.size == 800
        assert prob.resolutions == tuple((2 * k, 2 * k + 1) for k in range(400))


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

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, family10, limit):
        with pytest.raises(ValidationError, match="limit must be at least 1"):
            find_truth_functions(problem_from_family(family10, count=2), limit=limit)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, family10, count):
        with pytest.raises(ValidationError, match="count must be at least 1"):
            problem_from_family(family10, count=count)

    def test_node_budget_enforced(self, family10, monkeypatch):
        monkeypatch.setattr(kscheck, "DEFAULT_SEARCH_BUDGET", 1)
        prob = problem_from_family(family10, count=3)
        with pytest.raises(SearchCapError):
            find_truth_functions(prob)

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

    @pytest.mark.parametrize("payload", ['{"dim": "two", "vectors": []}', '{"vectors": []}', '[2]'],
                             ids=["dim-not-integer", "dim-missing", "not-an-object"])
    def test_unreadable_fixture_rejected(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(ValidationError):
            load_fixture(path)

    def test_unknown_layout_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"dim": 2}))
        with pytest.raises(ValidationError):
            load_fixture(path)
