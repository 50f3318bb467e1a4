"""Realization, trial statistics, and the in-trial consistency audit."""

import numpy as np
import pytest

from helpers import (
    random_density,
    random_resolution,
    reference_grouped_outcomes,
    reference_pvm_matches,
)
from nchv.basisfamily import BasisFamily, FamilyMember, Provenance, generate_family, haar_basis
from nchv.errors import DegenerateTargetError, DimensionMismatchError, NoCandidateError, ValidationError
from nchv.opcore import HermitianObservable
from nchv import pba, povmfamily, simulator
from nchv.opcore import operator_norm
from nchv.povmfamily import ResolutionRegistry, snap_resolution
from nchv.simulator import (
    MeasurementRequest,
    SimulationContext,
    TrialReport,
    pvm_candidates,
    realize_povm,
    realize_pvm,
    run_noncontextuality_audit,
    run_trials,
    simulate_trial,
)
from nchv.pba import TruthValuation, born_weights, verify_homomorphism


def observable_on_member(family, member_pos, eigenvalues):
    """Hermitian operator whose eigenbasis is an exact family member."""
    b = family.members[member_pos].basis.mat
    return (b * np.array(eigenvalues)) @ b.conj().T


class TestRequestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            MeasurementRequest("qnd", None, None, 0.1, 0, 1)

    def test_nonpositive_precision(self):
        halves = [np.eye(2) / 2, np.eye(2) / 2]
        for precision in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite positive"):
                MeasurementRequest.pvm(np.diag([1.0, 2.0]), precision)
            with pytest.raises(ValidationError, match="finite positive"):
                MeasurementRequest.povm(halves, precision)

    @pytest.mark.parametrize("seeds", [(-1, 0), (0, -1), (-5, -5)])
    def test_negative_seed(self, seeds):
        halves = [np.eye(2) / 2, np.eye(2) / 2]
        with pytest.raises(ValidationError, match="seeds must be nonnegative"):
            MeasurementRequest.pvm(np.diag([1.0, 2.0]), 0.1, *seeds)
        with pytest.raises(ValidationError, match="seeds must be nonnegative"):
            MeasurementRequest.povm(halves, 0.1, *seeds)

    def test_povm_targets_must_resolve(self):
        with pytest.raises(ValidationError):
            MeasurementRequest.povm([np.eye(2), np.eye(2)], 0.1)

    def test_povm_needs_two_targets(self):
        # a lone identity is a resolution, but not one the snap can mix
        with pytest.raises(ValidationError, match="at least two"):
            MeasurementRequest.povm([np.eye(2)], 0.1)


class TestPvmRealization:
    def test_exact_member_is_single_tight_candidate(self, family10):
        h = observable_on_member(family10, 4, [1.0, 2.0, 3.0])
        obs = HermitianObservable.from_operator(h)
        cands, nearest = pvm_candidates(obs, family10, 1e-9)
        assert len(cands) == 1
        assert cands[0].member_index == family10.members[4].index
        assert nearest < 1e-12

    def test_loose_precision_admits_everyone(self, family10):
        h = observable_on_member(family10, 0, [1.0, 2.0, 3.0])
        obs = HermitianObservable.from_operator(h)
        cands, _ = pvm_candidates(obs, family10, 1.999)
        assert len(cands) == 10

    def test_huge_precision_admits_everyone(self, family10):
        obs = HermitianObservable.from_operator(np.diag([1.0, 2.0, 3.0]))
        cands, _ = pvm_candidates(obs, family10, 1e200)
        assert len(cands) == 10

    def test_label_to_atom_mapping_respects_eigenvalue_order(self, family10):
        # eigenvalues handed over unsorted; labels must still land on the
        # atoms carrying the matching eigenvectors
        h = observable_on_member(family10, 7, [5.0, -1.0, 2.0])
        obs = HermitianObservable.from_operator(h)
        cands, _ = pvm_candidates(obs, family10, 1e-9)
        real = cands[0]
        assert obs.eigenvalues == pytest.approx((-1.0, 2.0, 5.0))
        basis = family10.members[7].basis
        for label_pos, atom in enumerate(real.target_to_atom):
            proj = obs.projections[label_pos]
            v = basis.mat[:, atom]
            assert v.conj() @ proj @ v == pytest.approx(1.0, abs=1e-9)

    def test_no_candidate_reports_nearest(self, family10):
        obs = HermitianObservable.from_operator(np.diag([1.0, 2.0, 3.0]))
        req = MeasurementRequest.pvm(obs, 1e-8)
        with pytest.raises(NoCandidateError) as info:
            realize_pvm(req, family10, np.random.default_rng(0))
        assert info.value.nearest_distance > 1e-8
        ctx = SimulationContext(np.eye(3) / 3, family=family10)
        for entry in (lambda: run_trials(req, 10, ctx),
                      lambda: run_noncontextuality_audit(req, ctx, 10)):
            with pytest.raises(NoCandidateError) as other:
                entry()
            assert str(other.value) == str(info.value)
            assert other.value.nearest_distance == info.value.nearest_distance

    def test_degenerate_target_rejected(self, family10):
        obs = HermitianObservable.from_operator(np.diag([1.0, 1.0, 3.0]))
        req = MeasurementRequest.pvm(obs, 0.5)
        with pytest.raises(DegenerateTargetError):
            realize_pvm(req, family10, np.random.default_rng(0))


def observable_on_basis(basis, rng):
    """Nondegenerate observable diagonal in ``basis``, labels in seeded order."""
    labels = rng.permutation(basis.dim) + 1.0
    return HermitianObservable.from_operator((basis.mat * labels) @ basis.mat.conj().T)


class TestBatchedMatch:
    """pvm_candidates against the per-member loop in ``helpers``."""

    @staticmethod
    def check_against_reference(obs, family, precision):
        ref = reference_pvm_matches(obs, family)
        cands, nearest = pvm_candidates(obs, family, precision)
        want = [r for r in ref if r[2] < precision]
        assert [(c.member_index, c.target_to_atom) for c in cands] == [r[:2] for r in want]
        for c, r in zip(cands, want):
            assert c.distance == pytest.approx(r[2], rel=1e-12, abs=1e-14)
        assert nearest == pytest.approx(min(r[2] for r in ref), rel=1e-12, abs=1e-14)
        return cands, nearest

    @pytest.mark.parametrize("n,count", [(2, 12), (3, 12), (4, 6), (5, 4)])
    def test_haar_and_exact_member_targets(self, n, count):
        family = generate_family(n, count, seed=50 + n)
        rng = np.random.default_rng(n)
        for _ in range(6):
            self.check_against_reference(observable_on_basis(haar_basis(n, rng), rng),
                                         family, 2.0)
        for member in family.members[:3]:
            cands, nearest = self.check_against_reference(
                observable_on_basis(member.basis, rng), family, 1e-9)
            assert [c.member_index for c in cands] == [member.index]
            assert nearest < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_precision_next_to_a_member_distance(self, n):
        family = generate_family(n, 8, seed=60 + n)
        rng = np.random.default_rng(60 + n)
        obs = observable_on_basis(haar_basis(n, rng), rng)
        dist = sorted(r[2] for r in reference_pvm_matches(obs, family))[4]
        below, _ = self.check_against_reference(obs, family, dist * (1 - 1e-9))
        above, _ = self.check_against_reference(obs, family, dist * (1 + 1e-9))
        assert len(above) == len(below) + 1

    @pytest.mark.parametrize("n,count", [(2, 12), (3, 12), (4, 6), (5, 4)])
    def test_loose_precision_and_no_candidate(self, n, count):
        family = generate_family(n, count, seed=50 + n)
        rng = np.random.default_rng(80 + n)
        for _ in range(4):
            obs = observable_on_basis(haar_basis(n, rng), rng)
            everyone, unpruned = self.check_against_reference(obs, family, 1.999)
            assert len(everyone) == count
            # a miss skips members by their bound, yet finds the same nearest, bit for bit
            nobody, nearest = self.check_against_reference(obs, family, 1e-6)
            assert nobody == [] and nearest == unpruned

    def test_assignments_skip_members_out_of_reach(self, monkeypatch):
        rng = np.random.default_rng(90)
        members = tuple(FamilyMember(i + 1, haar_basis(3, rng), Provenance(None, 0, 0.0))
                        for i in range(100))
        family = BasisFamily(3, 1.7, 1e-8, 0, members)
        calls = []
        real = simulator._max_overlap_columns
        # one entry per member assigned, whichever path assigns it
        monkeypatch.setattr(simulator, "_max_overlap_columns",
                            lambda overlap: calls.extend([1] * len(overlap)) or real(overlap))
        cands, nearest = pvm_candidates(observable_on_basis(members[40].basis, rng), family, 0.3)
        assert [c.member_index for c in cands] == [41] and nearest < 1e-12
        assert len(calls) < 10

    def test_empty_family(self):
        empty = BasisFamily(3, 1.7, 1e-8, 0, ())
        obs = HermitianObservable.from_operator(np.diag([1.0, 2.0, 3.0]))
        assert pvm_candidates(obs, empty, 0.5) == ([], float("inf"))
        with pytest.raises(NoCandidateError):
            realize_pvm(MeasurementRequest.pvm(obs, 0.5), empty, np.random.default_rng(0))

    def test_svd_calls_do_not_grow_with_family_size(self, monkeypatch):
        # no SVD at all: the bases were checked orthonormal when they were made
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        families = [generate_family(3, count, seed=70) for count in (4, 16)]
        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        for family in families:
            obs = observable_on_basis(family.members[1].basis, np.random.default_rng(0))
            calls.clear()
            cands, _ = pvm_candidates(obs, family, 1e-9)
            assert len(cands) == 1 and len(calls) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_assignment_returns_scipys_columns(n):
    # scipy is a test-only oracle; the library carries its own port
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(100 + n)
    mats = [np.zeros((n, n)), np.ones((n, n)), np.full((n, n), 1.0 / n)]
    for _ in range(150):
        mats.append(rng.normal(size=(n, n)))
        # small integers tie often, which exercises the tie rule
        mats.append(rng.integers(-1, 3, size=(n, n)).astype(float))
        mats.append(-np.abs(haar_basis(n, rng).mat) ** 2)
        # near a permutation, as for a target on a member: the stacked shortcut's case
        mats.append(-np.abs(haar_basis(n, rng).mat[:, rng.permutation(n)]) ** 2 * 1e-3
                    - np.eye(n)[rng.permutation(n)])
    want = [linear_sum_assignment(cost)[1].tolist() for cost in mats]
    assert [simulator._assignment(cost.tolist()) for cost in mats] == want
    assert simulator._max_overlap_columns(-np.array(mats)).tolist() == want


def test_a_block_is_its_family_member(family10, monkeypatch):
    algebra = pba.PartialBooleanAlgebra.from_family(family10)
    assert all(algebra.block(i) is family10.members[i - 1] for i in range(1, 11))
    checked = []
    real = simulator.verify_homomorphism
    monkeypatch.setattr(simulator, "verify_homomorphism",
                        lambda val, block: checked.append(block) or real(val, block))
    h = observable_on_member(family10, 5, [1.0, 2.0, 3.0])
    req = MeasurementRequest.pvm(h, 1.999, apparatus_seed=15, system_seed=16)
    ctx = SimulationContext(np.eye(3) / 3, family=family10)
    assert run_noncontextuality_audit(req, ctx, 300) == 0
    # every audited block is the drawn candidate's member itself
    assert len(checked) == 300
    assert {id(b) for b in checked} == {id(m) for m in family10.members}


CHUNK = simulator._CHUNK


class TestGroupedOutcomes:
    """The chunked sampler against the per-candidate sampler in ``helpers``."""

    @pytest.mark.parametrize("k", [1, 2, 10, 100])
    @pytest.mark.parametrize("n_trials", [1, 57, 5000])
    def test_matches_the_per_candidate_sampler(self, k, n_trials):
        rng = np.random.default_rng(1000 * k + n_trials)
        weights = rng.dirichlet(np.ones(4), size=k)
        # zero weights put thresholds at 0 and repeat them
        weights[::3] = [1.0, 0.0, 0.0, 0.0]
        weights[1::3] = [0.0, 0.5, 0.5, 0.0]
        cand_ids = rng.integers(0, k, size=n_trials)
        seed = int(rng.integers(2**32))
        self.check_against_reference(cand_ids, weights, seed)

    @staticmethod
    def check_against_reference(cand_ids, weights, seed):
        want = reference_grouped_outcomes(cand_ids, weights, np.random.default_rng(seed))
        counts = simulator._grouped_outcomes(cand_ids, weights, np.random.default_rng(seed))
        assert np.array_equal(counts, np.bincount(want, minlength=weights.shape[1]))

    @pytest.mark.parametrize("fixed", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 100])
    @pytest.mark.parametrize("n_trials", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 20000])
    def test_chunk_boundaries(self, n_trials, k, fixed):
        rng = np.random.default_rng(7 * n_trials + k)
        weights = rng.dirichlet(np.ones(3), size=k)
        weights[::2] = [0.0, 1.0, 0.0]
        if fixed:
            cand_ids = np.full(n_trials, int(rng.integers(k)), dtype=np.int64)
        else:
            cand_ids = rng.integers(0, k, size=n_trials)
        self.check_against_reference(cand_ids, weights, int(rng.integers(2**32)))

    @pytest.mark.parametrize("fixed", [False, True])
    def test_run_trials_against_per_block_weights(self, family10, fixed):
        h = observable_on_member(family10, 0, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 1.999, apparatus_seed=3, system_seed=4)
        ctx = SimulationContext(random_density(3, np.random.default_rng(5)), family=family10,
                                fixed_apparatus=fixed)
        rep = run_trials(req, 3000, ctx)
        cands, _ = pvm_candidates(req.observable, family10, 1.999)
        weights = [born_weights(ctx.density, c.member)[list(c.target_to_atom)] for c in cands]
        if fixed:
            # the reference distribution is the weights of the one candidate every trial uses
            rows = [tuple(w.tolist()) for w in weights]
            assert rows.count(rep.born) == 1
            cand_ids = np.full(3000, rows.index(rep.born))
        else:
            cand_ids = np.random.default_rng(3).integers(0, len(cands), size=3000)
            assert rep.born == tuple(float(x) for x in np.mean(weights, axis=0))
        want = reference_grouped_outcomes(cand_ids, weights, np.random.default_rng(4))
        assert rep.counts == tuple(np.bincount(want, minlength=3).tolist())


class TestRunTrialsPvm:
    def test_seeded_runs_are_identical(self, family10):
        h = observable_on_member(family10, 2, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 0.5, apparatus_seed=7, system_seed=8)
        ctx = SimulationContext(np.eye(3) / 3, family=family10)
        a = run_trials(req, 2000, ctx)
        b = run_trials(req, 2000, ctx)
        assert a.counts == b.counts
        assert a.tv_distance == b.tv_distance

    @pytest.mark.parametrize("scale", [1e-3, 1e3, 1e5, 1e6, 1e8, 1e10])
    def test_scaled_observable_gives_the_same_counts(self, family10, scale):
        """The checks on an observable have a roundoff floor that grows with its entries,
        so a scaled observable draws the same outcomes and its labels scale with it."""
        ctx = SimulationContext(np.eye(3) / 3, family=family10)

        def report(s):
            request = MeasurementRequest.pvm(observable_on_member(family10, 2, [s, 2 * s, 3 * s]), 0.5,
                                             apparatus_seed=7, system_seed=8)
            return run_trials(request, 2000, ctx)

        unit, scaled = report(1.0), report(scale)
        assert scaled.counts == unit.counts
        assert np.allclose(scaled.labels, scale * np.array(unit.labels), rtol=1e-12, atol=0)

    def test_scaled_down_observable_still_merges(self, family10):
        """Below unit scale the tolerances stay absolute: eigenvalues 1e-9 apart merge."""
        obs = HermitianObservable.from_operator(1e-9 * observable_on_member(family10, 2, [1.0, 2.0, 3.0]))
        assert len(obs.eigenvalues) == 1

    def test_statistics_track_born(self, family10):
        rng = np.random.default_rng(23)
        d = random_density(3, rng)
        h = observable_on_member(family10, 6, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 1e-6, apparatus_seed=1, system_seed=2)
        rep = run_trials(req, 50000, SimulationContext(d, family=family10))
        assert rep.tv_distance < 0.01
        assert max(abs(z) for z in rep.z_scores) < 4.0

    @staticmethod
    def _candidate_weights(family, req, density):
        cands, _ = pvm_candidates(req.observable, family, req.precision)
        return [tuple(born_weights(density, c.member)[list(c.target_to_atom)].tolist())
                for c in cands]

    def test_fixed_apparatus_uses_one_candidate(self, family10):
        h = observable_on_member(family10, 0, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 1.999, apparatus_seed=3, system_seed=4)
        ctx = SimulationContext(random_density(3, np.random.default_rng(5)), family=family10,
                                fixed_apparatus=True)
        rep = run_trials(req, 500, ctx)
        weights = self._candidate_weights(family10, req, ctx.density)
        assert len(set(weights)) == 10 and weights.count(rep.born) == 1

    def test_fresh_apparatus_spreads_over_candidates(self, family10):
        h = observable_on_member(family10, 0, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 1.999, apparatus_seed=3, system_seed=4)
        ctx = SimulationContext(random_density(3, np.random.default_rng(5)), family=family10)
        rep = run_trials(req, 500, ctx)
        weights = self._candidate_weights(family10, req, ctx.density)
        assert len(set(weights)) == 10 and rep.born not in weights
        assert rep.born == tuple(float(x) for x in np.mean(weights, axis=0))

    def test_report_serialization(self, family10):
        h = observable_on_member(family10, 1, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 0.5, apparatus_seed=5, system_seed=6)
        rep = run_trials(req, 100, SimulationContext(np.eye(3) / 3, family=family10))
        payload = rep.to_json()
        assert payload["n_trials"] == 100
        assert sum(payload["counts"]) == 100
        csv_text = rep.to_csv()
        assert csv_text.splitlines()[0] == "label,count,empirical,born,z_score"
        assert len(csv_text.splitlines()) == 4

    def test_counts_must_sum(self):
        with pytest.raises(ValidationError):
            TrialReport("pvm", 10, (0, 1), (3, 4), (0.3, 0.4), (0.5, 0.5),
                        0.0, (0.0, 0.0), {})


class TestRunTrialsPovm:
    def test_miss_registers_then_hits(self):
        rng = np.random.default_rng(24)
        targets = random_resolution(2, 3, rng)
        reg = ResolutionRegistry(2)
        req = MeasurementRequest.povm(targets, 0.02, apparatus_seed=9, system_seed=10)
        ctx = SimulationContext(random_density(2, rng), registry=reg)
        run_trials(req, 1000, ctx)
        assert len(reg.entries) == 1
        run_trials(req, 1000, ctx)
        assert len(reg.entries) == 1

    def test_one_registry_scan_per_run(self, monkeypatch):
        scans = []
        real = ResolutionRegistry.candidates_within

        def counted(self, targets, eps):
            scans.append(eps)
            return real(self, targets, eps)

        monkeypatch.setattr(ResolutionRegistry, "candidates_within", counted)
        rng = np.random.default_rng(26)
        req = MeasurementRequest.povm(random_resolution(2, 3, rng), 0.02)
        ctx = SimulationContext(random_density(2, rng), registry=ResolutionRegistry(2))
        run_trials(req, 100, ctx)
        assert len(scans) == 1
        run_trials(req, 100, ctx)
        assert len(scans) == 2 and len(ctx.registry) == 1

    @staticmethod
    def _shared_base(copies):
        """A request within reach of ``copies`` registrations of one snapped base."""
        rng = np.random.default_rng(31)
        targets = random_resolution(2, 3, rng)
        reg = ResolutionRegistry(2)
        base = snap_resolution(targets, 0.01)
        for _ in range(copies):
            reg.register(base, 0.5)
        req = MeasurementRequest.povm(targets, 0.5, apparatus_seed=5, system_seed=6)
        return req, SimulationContext(random_density(2, rng), registry=reg)

    def test_density_is_checked_only_by_the_context(self, monkeypatch):
        req, ctx = self._shared_base(2)
        calls = []
        for module in (povmfamily, simulator):
            real = module.check_density
            monkeypatch.setattr(module, "check_density",
                                lambda d, real=real: calls.append(1) or real(d))
        report = run_trials(req, 200, ctx)
        assert report.config["realized_ids"] == [9, 10]
        simulate_trial(req, ctx, np.random.default_rng(1), np.random.default_rng(2))
        assert calls == []

    def test_fixed_apparatus_uses_the_realize_povm_draw(self):
        req, ctx = self._shared_base(3)
        ctx.fixed_apparatus = True
        used, drawn = [], []
        for seed in range(20):
            req = MeasurementRequest.povm(req.povm_targets, 0.5, apparatus_seed=seed)
            report = run_trials(req, 10, ctx)
            # the fixed candidate is the one whose weights are the reference distribution
            cands = ctx.registry.candidates_within(req.povm_targets, 0.5)
            rows = [tuple(w.tolist()) for w in povmfamily._povm_weights(ctx.density,
                                                                        [c.members for c in cands])]
            assert len(set(rows)) == 3
            used.append(cands[rows.index(report.born)].index)
            drawn.append(realize_povm(req, ctx.registry, np.random.default_rng(seed)).index)
        assert len(set(drawn)) == 3
        assert used == drawn

    def test_realized_distances_match_the_member_loop(self):
        req, ctx = self._shared_base(4)
        cands = ctx.registry.entries
        fast = simulator._realized_distances(req.povm_targets, cands)
        slow = [max(operator_norm(t - m) for t, m in zip(req.povm_targets, c.members))
                for c in cands]
        assert len(fast) == 4 and len(set(slow)) == 4
        assert all(abs(a - b) <= 1e-15 * b for a, b in zip(fast, slow))
        assert run_trials(req, 100, ctx).config["realized_distances"] == fast
        out = simulate_trial(req, ctx, np.random.default_rng(3), np.random.default_rng(4))
        assert out.realized_distance == fast[[c.index for c in cands].index(out.realized_id)]

    def test_realized_members_stay_within_precision(self):
        rng = np.random.default_rng(25)
        targets = random_resolution(2, 2, rng)
        reg = ResolutionRegistry(2)
        req = MeasurementRequest.povm(targets, 0.05, apparatus_seed=11, system_seed=12)
        tagged = realize_povm(req, reg, np.random.default_rng(0))
        for t, m in zip(targets, tagged.members):
            assert operator_norm(t - m) < 0.05

    def test_a_miss_validates_the_targets_once(self, monkeypatch):
        calls = []
        for module in (povmfamily, simulator):
            real = module.validate_resolution
            monkeypatch.setattr(module, "validate_resolution",
                                lambda ops, real=real: calls.append(1) or real(ops))
        rng = np.random.default_rng(27)
        ctx = SimulationContext(random_density(2, rng), registry=ResolutionRegistry(2))
        req = MeasurementRequest.povm(random_resolution(2, 3, rng), 0.02)
        run_trials(req, 100, ctx)
        assert len(ctx.registry) == 1 and len(calls) == 1

    def test_statistics_track_realized_born(self):
        rng = np.random.default_rng(26)
        targets = random_resolution(2, 4, rng)
        reg = ResolutionRegistry(2)
        req = MeasurementRequest.povm(targets, 0.01, apparatus_seed=13, system_seed=14)
        d = random_density(2, rng)
        rep = run_trials(req, 50000, SimulationContext(d, registry=reg))
        assert rep.tv_distance < 0.01
        assert rep.labels == (0, 1, 2, 3)


class TestSingleTrial:
    def test_outcome_label_comes_from_spectrum(self, family10):
        h = observable_on_member(family10, 3, [2.0, 4.0, 8.0])
        req = MeasurementRequest.pvm(h, 1e-6)
        ctx = SimulationContext(np.eye(3) / 3, family=family10)
        out = simulate_trial(req, ctx, np.random.default_rng(1),
                             np.random.default_rng(2), trial_id=17)
        assert out.trial_id == 17
        assert min(abs(out.label - v) for v in (2.0, 4.0, 8.0)) < 1e-9
        assert out.realized_distance < 1e-9

    def test_pvm_trials_leave_the_checked_density_alone(self, family10, monkeypatch):
        checked = []
        for module in (pba, simulator):
            real = module.check_density
            monkeypatch.setattr(module, "check_density",
                                lambda d, real=real: checked.append(1) or real(d))
        ctx = SimulationContext(np.eye(3) / 3, family=family10)
        req = MeasurementRequest.pvm(observable_on_member(family10, 4, [1.0, 2.0, 3.0]), 1.999)
        rng_app, rng_sys = np.random.default_rng(5), np.random.default_rng(6)
        assert len(checked) == 1  # the context's own check
        outs = [simulate_trial(req, ctx, rng_app, rng_sys, i) for i in range(50)]
        assert len(checked) == 1
        assert {o.label for o in outs} <= set(req.observable.eigenvalues)

    def test_pvm_outcome_is_the_valuation_draw(self, family10):
        """The label is the one a fresh TruthValuation on the realized block reads."""
        ctx = SimulationContext(np.eye(3) / 3 + np.diag([0.1, 0.0, -0.1]), family=family10)
        req = MeasurementRequest.pvm(observable_on_member(family10, 2, [1.0, 2.0, 3.0]), 1.999)
        for seed in range(20):
            out = simulate_trial(req, ctx, np.random.default_rng(seed),
                                 np.random.default_rng(100 + seed))
            real = realize_pvm(req, family10, np.random.default_rng(seed))
            atom = TruthValuation(ctx.density, np.random.default_rng(100 + seed)).populate(real.member)
            assert out.label == req.observable.eigenvalues[real.target_to_atom.index(atom)]
            assert out.realized_id == real.member_index

    def test_povm_outcome_is_an_index(self):
        rng = np.random.default_rng(27)
        targets = random_resolution(2, 3, rng)
        req = MeasurementRequest.povm(targets, 0.05)
        ctx = SimulationContext(np.eye(2) / 2, registry=ResolutionRegistry(2))
        out = simulate_trial(req, ctx, np.random.default_rng(3), np.random.default_rng(4))
        assert out.label in (0, 1, 2)


PVM_NO_SOURCE = MeasurementRequest.pvm(np.diag([1.0, 2.0, 3.0]), 0.5)
POVM_NO_SOURCE = MeasurementRequest.povm(random_resolution(3, 2, np.random.default_rng(29)), 0.1)


@pytest.mark.parametrize("entry", [
    lambda ctx: simulate_trial(PVM_NO_SOURCE, ctx, np.random.default_rng(0),
                               np.random.default_rng(1)),
    lambda ctx: simulate_trial(POVM_NO_SOURCE, ctx, np.random.default_rng(0),
                               np.random.default_rng(1)),
    lambda ctx: run_noncontextuality_audit(PVM_NO_SOURCE, ctx, 10),
    lambda ctx: run_trials(PVM_NO_SOURCE, 10, ctx),
    lambda ctx: run_trials(POVM_NO_SOURCE, 10, ctx),
], ids=["simulate_trial-pvm", "simulate_trial-povm", "audit", "run_trials-pvm",
        "run_trials-povm"])
def test_context_without_family_or_registry_is_a_validation_error(entry):
    with pytest.raises(ValidationError, match="in the context"):
        entry(SimulationContext(np.eye(3) / 3))


@pytest.mark.parametrize("request_", [MeasurementRequest.pvm(np.diag([1.0, 2.0, 3.0]), 1.999),
                                      POVM_NO_SOURCE], ids=["pvm", "povm"])
@pytest.mark.parametrize("entry", [
    lambda req, ctx: simulate_trial(req, ctx, np.random.default_rng(0), np.random.default_rng(1)),
    lambda req, ctx: run_trials(req, 10, ctx),
], ids=["simulate_trial", "run_trials"])
def test_state_of_another_dimension_is_a_dimension_mismatch(family10, request_, entry):
    ctx = SimulationContext(np.eye(2) / 2, family=family10, registry=ResolutionRegistry(3))
    with pytest.raises(DimensionMismatchError, match="dimensions differ"):
        entry(request_, ctx)


class TestAudit:
    def test_single_valuation_consistent_across_partitions(self, pba10):
        val = TruthValuation(np.eye(3) / 3, np.random.default_rng(5))
        assert verify_homomorphism(val, pba10.block(2))

    def test_run_returns_zero_violations(self, family10):
        h = observable_on_member(family10, 5, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 0.5, apparatus_seed=15, system_seed=16)
        ctx = SimulationContext(np.eye(3) / 3, family=family10)
        assert run_noncontextuality_audit(req, ctx, 300) == 0

    def test_run_checks_the_density_once(self, family10, monkeypatch):
        checked = []
        real = pba.check_density
        monkeypatch.setattr(pba, "check_density", lambda d: checked.append(1) or real(d))
        h = observable_on_member(family10, 5, [1.0, 2.0, 3.0])
        req = MeasurementRequest.pvm(h, 1.999, apparatus_seed=15, system_seed=16)
        ctx = SimulationContext(np.eye(3) / 3, family=family10)
        assert run_noncontextuality_audit(req, ctx, 300) == 0
        assert len(checked) == 1

    def test_counts_a_block_that_breaks_a_law(self, pba10):
        val = TruthValuation(np.eye(3) / 3, np.random.default_rng(5))
        val.chosen[2] = 3  # no atom 3 in dimension 3: every value reads 0
        assert not verify_homomorphism(val, pba10.block(2))

    def test_audit_is_pvm_only(self):
        rng = np.random.default_rng(28)
        targets = random_resolution(2, 2, rng)
        req = MeasurementRequest.povm(targets, 0.1)
        ctx = SimulationContext(np.eye(2) / 2, registry=ResolutionRegistry(2))
        with pytest.raises(ValidationError):
            run_noncontextuality_audit(req, ctx, 10)
