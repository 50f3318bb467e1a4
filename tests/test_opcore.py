"""Operator-layer oracles: hand-computed values and algebraic invariants."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import commutator, random_density, random_hermitian, reference_spectral_distances
from nchv.basisfamily import BasisFamily, FamilyMember, Provenance, random_nearby_basis
from nchv.errors import DimensionMismatchError, ValidationError
from nchv import opcore
from nchv.opcore import (
    ALGEBRA_TOL,
    SCAN_CHUNK,
    STRUCT_TOL,
    HermitianObservable,
    OrthonormalBasis,
    atom_projections,
    basis_distance,
    check_density,
    check_projections,
    commutator_norms,
    min_commutator_norm,
    nontrivial_masks,
    operator_from_json,
    operator_norm,
    operator_to_json,
    read_json,
    require_same_dim,
    spectral_distances,
    spectral_resolution,
    subset_projection,
    validate_resolution,
    write_json,
    write_text_atomic,
)

HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)


def seeded(draw_seed):
    return np.random.default_rng(draw_seed)


class TestOperatorNorm:
    def test_nilpotent_shift(self):
        assert operator_norm(np.array([[0, 1], [0, 0]])) == pytest.approx(1.0)

    def test_diagonal_takes_largest_magnitude(self):
        assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_rank_one_projector_commutator_is_half(self):
        # |[ |0><0|, |+><+| ]| = 1/2, a textbook value worth freezing
        p = np.diag([1.0, 0.0])
        plus = np.full((2, 2), 0.5)
        assert operator_norm(commutator(p, plus)) == pytest.approx(0.5, abs=1e-12)


def _near_pairs(n, rng):
    """Two seeded stacks of Hermitian operators; some items of the second sit
    within 1e-12 ... 0.1 of an item of the first, one is an exact copy."""
    first = np.array([random_hermitian(n, rng) for _ in range(10)])
    second = [random_hermitian(n, rng) for _ in range(4)] + [first[3].copy()]
    for i, scale in enumerate((1e-12, 1e-9, 1e-6, 1e-3, 0.1)):
        second.append(first[2 * i] + random_hermitian(n, rng, scale=scale))
    return first, np.array(second)


def _check_against_oracle(got, oracle, reach):
    rows, cols, dist = got
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    assert [oracle[i, j] for i, j in zip(rows.tolist(), cols.tolist())] == dist.tolist()
    limit = min(oracle.values(), default=np.inf) if reach is None else reach
    within = {pair for pair, d in oracle.items() if d <= limit}
    assert within <= set(zip(rows.tolist(), cols.tolist()))


class TestSpectralDistances:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("reach", [0.0, 1e-9, 1e-6, 0.05, 1.0, None])
    def test_pairs_and_distances_match_the_oracle(self, n, reach):
        first, second = _near_pairs(n, np.random.default_rng(n))
        oracle = reference_spectral_distances(first, second)
        _check_against_oracle(spectral_distances(first, second, reach), oracle, reach)
        stack = np.concatenate([first, second])
        owners = np.arange(len(stack)) % 4
        for labels in (None, owners):
            oracle = reference_spectral_distances(stack, owners=labels)
            got = spectral_distances(stack, reach=reach, owners=labels)
            _check_against_oracle(got, oracle, reach)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
    def test_border_pairs_are_decided_by_the_svd(self, n, factor):
        # D = diag(t, t/2, 0, ...) has |D| = t but |D|_F = 1.118 t and
        # |D|_F / sqrt(n) <= 0.79 t, so the Frobenius bounds straddle the reach
        rng = np.random.default_rng(40 + n)
        u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        t = 1e-3
        shift = u @ np.diag([t, t / 2] + [0.0] * (n - 2)) @ u.conj().T
        base = random_hermitian(n, rng)
        first, second = base[None], (base + shift)[None]
        reach = factor * operator_norm(base - (base + shift))
        rows, cols, dist = spectral_distances(first, second, reach)
        assert (rows.tolist(), cols.tolist()) == ([0], [0])
        assert (dist[0] <= reach) == (factor > 1)

    def test_duplicates_are_found_without_a_negative_square_root(self):
        # large entries make the Gram difference of equal operators round
        # away from 0, below it for some pairs
        rng = np.random.default_rng(3)
        ops = [random_hermitian(4, rng, scale=1e3) for _ in range(6)]
        stack = np.array([ops[i] for i in (0, 1, 0, 2, 1, 3, 4, 5, 0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for reach in (0.0, None):
                rows, cols, dist = spectral_distances(stack, reach=reach)
                assert sorted(zip(rows.tolist(), cols.tolist())) == [(2, 0), (4, 1), (8, 0), (8, 2)]
                assert dist.tolist() == [0.0] * 4

    def test_self_and_same_owner_pairs_are_never_reported(self):
        half = np.eye(2) / 2
        other = np.array([[0.5, 0.25], [0.25, 0.5]])
        stack = np.array([half, half, other, np.eye(2) - other])
        rows, cols, dist = spectral_distances(stack, reach=10.0, owners=np.array([0, 0, 1, 1]))
        assert sorted(zip(rows.tolist(), cols.tolist())) == [(2, 0), (2, 1), (3, 0), (3, 1)]
        floor = spectral_distances(stack, owners=np.array([0, 0, 1, 1]))[2].min()
        assert floor == pytest.approx(0.25, abs=1e-15)
        rows, cols, _ = spectral_distances(stack, reach=10.0)
        assert all(i > j for i, j in zip(rows, cols)) and len(rows) == 6

    @pytest.mark.parametrize("reach", [1e-6, 0.3, None])
    def test_tuple_items_take_the_largest_member_distance(self, reach):
        rng = np.random.default_rng(11)
        first, second = _near_pairs(3, rng)
        first, second = first.reshape(5, 2, 3, 3), second.reshape(5, 2, 3, 3)
        oracle = reference_spectral_distances(first, second)
        _check_against_oracle(spectral_distances(first, second, reach), oracle, reach)

    @pytest.mark.parametrize("reach", [1e-6, 0.5, None])
    def test_chunks_change_nothing(self, monkeypatch, reach):
        first, second = _near_pairs(3, np.random.default_rng(12))
        stack = np.concatenate([first, second, first[:4]])
        owners = np.arange(len(stack)) % 5
        calls = [(stack, None, owners), (stack, None, None), (first, second, None)]
        whole = [spectral_distances(a, b, reach, o) for a, b, o in calls]
        monkeypatch.setattr(opcore, "PAIR_CHUNK", 7)
        for (a, b, o), want in zip(calls, whole):
            got = spectral_distances(a, b, reach, o)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


class TestProjectionAndDensity:
    def test_projection_rank(self):
        assert check_projections(np.diag([1.0, 1.0, 0.0])[None])[0] == 2

    def test_rejects_non_idempotent(self):
        with pytest.raises(ValidationError):
            check_projections(np.diag([0.5, 0.0])[None])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            check_projections(np.array([[1.0, 1e-9], [0.0, 0.0]])[None])

    def test_density_accepts_maximally_mixed(self):
        check_density(np.eye(4) / 4)

    def test_density_rejects_trace(self):
        with pytest.raises(ValidationError):
            check_density(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            check_density(np.diag([1.5, -0.5]))

    def test_dimension_mismatch_raised(self):
        with pytest.raises(DimensionMismatchError):
            require_same_dim(np.eye(2), np.eye(3))


def reference_check_projection(op):
    """The per-operator check that ``check_projections`` batches."""
    if not np.max(np.abs(op - op.conj().T)) <= STRUCT_TOL:
        raise ValidationError("projection is not Hermitian")
    if operator_norm(op @ op - op) > ALGEBRA_TOL:
        raise ValidationError("projection is not idempotent")
    eigs = np.linalg.eigvalsh((op + op.conj().T) / 2)
    return int(np.sum(np.abs(eigs - 1.0) <= 1e-8))


NOT_HERMITIAN = np.array([[1.0, 1e-9], [0.0, 0.0]])
NOT_IDEMPOTENT = np.diag([0.5, 1.0])
NEITHER = np.array([[0.5, 1e-9], [0.0, 0.0]])


class TestCheckProjections:
    def test_ranks_match_one_at_a_time(self, rng):
        basis = OrthonormalBasis(np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0])
        stack = np.array([subset_projection(basis, m) for m in range(16)])
        assert check_projections(stack) == [reference_check_projection(p) for p in stack]
        assert check_projections(stack) == [bin(m).count("1") for m in range(16)]

    @pytest.mark.parametrize("bad, message", [
        ([NOT_IDEMPOTENT, NOT_HERMITIAN], "not idempotent"),
        ([NOT_HERMITIAN, NOT_IDEMPOTENT], "not Hermitian"),
        ([NEITHER, NOT_IDEMPOTENT], "not Hermitian"),
        ([np.full((2, 2), np.nan), NOT_IDEMPOTENT], "not Hermitian"),
        ([NOT_IDEMPOTENT, np.full((2, 2), np.nan)], "not idempotent"),
    ])
    def test_first_failure_decides_the_error(self, bad, message):
        good = np.diag([1.0, 0.0])
        stack = np.array([good, good] + bad + [good])
        with pytest.raises(ValidationError, match=message):
            check_projections(stack)
        with pytest.raises(ValidationError, match=message):
            for op in stack:
                reference_check_projection(op)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_error_matches_a_scan_in_order(self, seed):
        rng = seeded(seed)
        pool = [np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)), NOT_HERMITIAN, NOT_IDEMPOTENT,
                NEITHER]
        stack = np.array([pool[i] for i in rng.integers(len(pool), size=6)], dtype=complex)
        try:
            expected = [reference_check_projection(op) for op in stack]
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=str(exc)):
                check_projections(stack)
        else:
            assert check_projections(stack) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trace_rank_matches_the_eigenvalue_count(self, n):
        # seeded projections of every rank plus Hermitian noise of spectral
        # norm 1e-16 ... 1e-11, which all pass both checks
        rng = np.random.default_rng(n)
        for scale in 10.0 ** np.arange(-16, -10):
            z = rng.normal(size=(500, n, n)) + 1j * rng.normal(size=(500, n, n))
            v = np.linalg.qr(z)[0]
            ranks = rng.integers(n + 1, size=500)
            proj = (v * (np.arange(n) < ranks[:, None])[:, None]) @ v.conj().swapaxes(-1, -2)
            noise = z + z.conj().swapaxes(-1, -2)
            stack = proj + scale * noise / np.linalg.norm(noise, 2, axis=(-2, -1))[:, None, None]
            eigs = np.linalg.eigvalsh((stack + stack.conj().swapaxes(-1, -2)) / 2)
            old = np.sum(np.abs(eigs - 1.0) <= 1e-8, axis=-1)
            assert check_projections(stack) == old.tolist() == ranks.tolist()

    def test_ranks_take_no_eigendecomposition(self, monkeypatch):
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(*args, real=getattr(np.linalg, name), name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        stack = np.array([subset_projection(OrthonormalBasis(np.eye(3)), m) for m in range(8)])
        assert check_projections(stack) == [bin(m).count("1") for m in range(8)]
        assert calls == []


class TestBasis:
    def test_columns_must_be_orthonormal(self):
        with pytest.raises(ValidationError):
            OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_orthonormality_is_checked_in_the_spectral_norm(self):
        # Gram error 8e-11 entrywise but 1.6e-10 in the spectral norm
        mat = np.eye(3) + 4e-11 * (np.ones((3, 3)) - np.eye(3))
        gap = mat.conj().T @ mat - np.eye(3)
        assert np.abs(gap).max() < ALGEBRA_TOL < operator_norm(gap)
        with pytest.raises(ValidationError, match="orthonormal"):
            OrthonormalBasis(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_entries_must_be_finite(self, bad):
        mat = np.eye(3, dtype=complex)
        mat[0, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            OrthonormalBasis(mat)

    def test_distance_to_hadamard_is_two(self):
        # I - H has eigenvalues {0, 2} since H is a Hermitian unitary
        b1 = OrthonormalBasis(np.eye(2))
        b2 = OrthonormalBasis(HADAMARD)
        assert basis_distance(b1, b2) == pytest.approx(2.0, abs=1e-12)

    def test_distance_is_order_sensitive(self):
        # the metric lives on ordered bases: a swap (eigenvalue -1) is
        # maximally far, a 3-cycle sits at |1 - e^{2pi i/3}| = sqrt(3)
        b1 = OrthonormalBasis(np.eye(2))
        swapped = OrthonormalBasis(b1.mat[:, [1, 0]])
        assert basis_distance(b1, swapped) == pytest.approx(2.0, abs=1e-12)
        c1 = OrthonormalBasis(np.eye(3))
        assert basis_distance(c1, OrthonormalBasis(c1.mat[:, [1, 2, 0]])) == pytest.approx(
            np.sqrt(3), abs=1e-12
        )

    def test_atoms_resolve_identity(self):
        rng = seeded(11)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(z)
        atoms = atom_projections(OrthonormalBasis(q))
        assert np.allclose(atoms.sum(axis=0), np.eye(4), atol=1e-12)

    def test_json_roundtrip(self):
        b = OrthonormalBasis(HADAMARD)
        family = BasisFamily(2, 1.0, 1e-8, 0, (FamilyMember(1, b, Provenance(0, 0, 0.0)),))
        again = BasisFamily.from_json(family.to_json()).members[0].basis
        assert basis_distance(b, again) == pytest.approx(0.0, abs=1e-15)


class TestSubsetProjections:
    def test_mask_count(self):
        assert len(nontrivial_masks(3)) == 6
        assert len(nontrivial_masks(4)) == 14

    def test_each_is_a_projection_of_popcount_rank(self):
        rng = seeded(2)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(z)
        basis = OrthonormalBasis(q)
        for mask in nontrivial_masks(3):
            assert check_projections(subset_projection(basis, mask)[None])[0] == bin(mask).count("1")

    def test_complement_masks_sum_to_identity(self):
        basis = OrthonormalBasis(np.eye(3))
        total = subset_projection(basis, 0b011) + subset_projection(basis, 0b100)
        assert np.allclose(total, np.eye(3), atol=STRUCT_TOL)


class TestSpectralResolution:
    def test_merges_near_degenerate_eigenvalues(self):
        h = np.diag([1.0, 1.0 + 1e-12, 5.0])
        pairs = spectral_resolution(h)
        assert len(pairs) == 2
        ranks = check_projections([p for _, p in pairs])
        assert ranks == [2, 1]

    def test_large_entries_keep_small_gaps(self):
        """The roundoff floor of diag(1, 2, 1e9) is 1e-3, so 1 and 2 stay apart."""
        assert [v for v, _ in spectral_resolution(np.diag([1.0, 2.0, 1e9]))] == [1.0, 2.0, 1e9]

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e8, 1e12])
    def test_scaled_degenerate_eigenvalues_merge(self, scale):
        """Rotated, a degenerate pair splits by roundoff that grows with the scale."""
        u = np.linalg.qr(random_hermitian(3, seeded(5)) + 1j * np.eye(3))[0]
        h = scale * (u @ np.diag([1.0, 1.0, 2.0]) @ u.conj().T)
        assert np.ptp(np.linalg.eigvalsh((h + h.conj().T) / 2)[:2]) > 0
        pairs = spectral_resolution(h)
        assert [v / scale for v, _ in pairs] == pytest.approx([1.0, 2.0], rel=1e-12)
        assert check_projections([p for _, p in pairs]) == [2, 1]

    def test_eigenvalues_ascend(self):
        h = np.diag([3.0, -1.0, 2.0])
        vals = [v for v, _ in spectral_resolution(h)]
        assert vals == sorted(vals)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_reconstructs_random_hermitian(self, seed):
        h = random_hermitian(4, seeded(seed))
        rebuilt = sum(v * p for v, p in spectral_resolution(h))
        assert operator_norm(h - rebuilt) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_projections_sum_to_identity(self, seed):
        h = random_hermitian(3, seeded(seed))
        total = sum(p for _, p in spectral_resolution(h))
        assert operator_norm(total - np.eye(3)) < 1e-10


class TestHermitianObservable:
    def test_diagonal_spectrum(self):
        obs = HermitianObservable.from_operator(np.diag([1.0, 2.0, 3.0]))
        assert obs.eigenvalues == pytest.approx((1.0, 2.0, 3.0))
        assert obs.is_nondegenerate()

    def test_degenerate_flagged(self):
        obs = HermitianObservable.from_operator(np.diag([1.0, 1.0, 3.0]))
        assert not obs.is_nondegenerate()
        assert len(obs.projections) == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianObservable.from_operator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_both_checks_take_one_svd(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(np.linalg._linalg, "svd", counted)
        HermitianObservable.from_operator(random_hermitian(4, seeded(12)))
        assert len(calls) == 1

    def test_reconstruction_is_checked_before_the_sum(self, monkeypatch):
        # both gaps fail; the reconstruction message wins, as before
        monkeypatch.setattr(opcore, "spectral_norms", lambda stack: np.ones(len(stack)))
        with pytest.raises(ValidationError, match="reconstruct"):
            HermitianObservable.from_operator(np.diag([1.0, 2.0]))
        monkeypatch.setattr(opcore, "spectral_norms", lambda stack: np.array([0.0, 1.0]))
        with pytest.raises(ValidationError, match="sum to the identity"):
            HermitianObservable.from_operator(np.diag([1.0, 2.0]))


class TestValidateResolution:
    def test_projective_resolution_passes(self):
        assert validate_resolution([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])

    def test_smooth_povm_passes(self):
        third = np.eye(2) / 3
        assert validate_resolution([third, third, third])

    def test_short_sum_fails(self):
        assert not validate_resolution([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])

    def test_negative_member_fails(self):
        assert not validate_resolution([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])

    @pytest.mark.parametrize("kind, size, expected", [
        ("skew", 5e-11, True), ("skew", 2e-10, False),
        ("dip", 5e-11, True), ("dip", 2e-10, False),
        ("gap", 5e-10, True), ("gap", 2e-9, False),
        ("nan", 1.0, False),
    ])
    def test_batched_pass_matches_member_by_member(self, kind, size, expected):
        """Each tolerance decides as it would one member at a time, with the
        offending change made to the last member only."""
        last = np.eye(3) / 3
        if kind == "skew":
            last = last + size * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
        elif kind == "dip":
            last = np.diag([-size, 1 / 3, 1 / 3])
        elif kind == "gap":
            last = last + size * np.eye(3)
        else:
            last = last + np.diag([np.nan, 0, 0])
        ops = [np.eye(3) / 3, np.eye(3) / 3 + (kind == "dip") * np.diag([1 / 3 + size, 0, 0]), last]

        def member_by_member():
            for m in ops:
                if not np.abs(m - m.conj().T).max() <= 1e-10:
                    return False
                if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -1e-10:
                    return False
            return operator_norm(sum(ops) - np.eye(3)) <= 1e-9

        assert validate_resolution(ops) == member_by_member() == expected

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_random_density_spectral_family(self, seed):
        """Eigenprojections of any density operator resolve the identity."""
        d = random_density(3, seeded(seed))
        assert validate_resolution([p for _, p in spectral_resolution(d)])


class TestOperatorJson:
    def test_roundtrip_preserves_entries(self):
        rng = seeded(9)
        m = random_hermitian(3, rng)
        again = operator_from_json(operator_to_json(m))
        assert operator_norm(m - again) == 0.0

    def test_malformed_payload(self):
        with pytest.raises(ValidationError):
            operator_from_json({"dim": 2, "re": [[1, 0], [0, 1]]})


class TestJsonFiles:
    def test_write_replaces_the_file_instead_of_rewriting_it(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"b": 1}, path)
        alias = tmp_path / "alias.json"
        alias.hardlink_to(path)
        write_json({"b": 2, "a": [0.5]}, path)
        # a rewrite in place would change the shared inode as well
        assert alias.read_text() == '{"b": 1}\n'
        assert path.read_text() == '{"a": [0.5], "b": 2}\n'
        assert read_json(path) == {"a": [0.5], "b": 2}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alias.json", "out.json"]

    def test_failed_rename_keeps_the_old_file_and_no_partial_one(self, tmp_path, monkeypatch):
        self.check_failed_rename(tmp_path, monkeypatch, OSError("disk full"), ValidationError,
                                 "cannot write .*out.json: disk full")

    def test_failed_rename_passes_other_exceptions_on(self, tmp_path, monkeypatch):
        self.check_failed_rename(tmp_path, monkeypatch, KeyboardInterrupt("stop"), KeyboardInterrupt, "stop")

    @staticmethod
    def check_failed_rename(tmp_path, monkeypatch, raised, expected, message):
        """An OSError becomes a ValidationError naming the path; anything else propagates."""
        path = tmp_path / "out.json"
        write_json({"b": 1}, path)

        def broken(src, dst):
            raise raised

        monkeypatch.setattr(opcore.os, "replace", broken)
        with pytest.raises(expected, match=message):
            write_json({"b": 2}, path)
        assert path.read_text() == '{"b": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_files_written_together_are_renamed_only_once_all_are_written(self, tmp_path):
        first = tmp_path / "first.json"
        write_json({"b": 1}, first)
        with pytest.raises(ValidationError, match="cannot write .*nodir.*second.json"):
            write_text_atomic(("changed\n", first), ("new\n", tmp_path / "nodir" / "second.json"))
        assert first.read_text() == '{"b": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["first.json"]

    def test_read_maps_file_errors_to_validation_errors(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            read_json(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text("{")
        with pytest.raises(ValidationError, match="cannot read"):
            read_json(tmp_path / "bad.json")


def random_basis(n, rng):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return OrthonormalBasis(np.linalg.qr(z)[0])


def loop_commutator_norms(first, second):
    """One commutator SVD per pair, masks 1 ... 2**(n-1)-1 on both sides."""
    halves = range(1, 1 << (first.dim - 1))
    return [operator_norm(commutator(subset_projection(first, a), subset_projection(second, b)))
            for a in halves for b in halves]


class TestIncompatibilityScan:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("radius", [None, 1e-3, 1e-8])
    def test_norms_match_one_svd_per_pair(self, n, radius):
        """The same norms as the direct loop, one per complementary pair on each side."""
        rng = seeded(30 + n)
        first = random_basis(n, rng)
        seconds = [random_basis(n, rng) if radius is None else random_nearby_basis(first, radius, rng)
                   for _ in range(2)]
        table = commutator_norms(first.mat, np.array([b.mat for b in seconds]))
        assert table.shape == (2, (2 ** (n - 1) - 1) ** 2)
        for row, second in zip(table, seconds):
            loop = np.sort(loop_commutator_norms(first, second))
            assert np.abs(np.sort(row) - loop).max() <= 1e-14

    def test_a_basis_against_itself_commutes(self):
        basis = random_basis(6, seeded(31))
        assert commutator_norms(basis.mat, basis.mat[None]).max() <= 1e-14

    def test_chunked_min_over_many_bases(self):
        rng = seeded(33)
        first = random_basis(5, rng).mat
        step = SCAN_CHUNK // (2 ** 4 - 1) ** 2
        others = np.array([random_basis(5, rng).mat for _ in range(2 * step + 3)])
        each = [commutator_norms(first, other[None]).min() for other in others]
        assert min_commutator_norm(first, others) == min(each)

    def test_no_others_gives_inf(self):
        first = random_basis(2, seeded(34)).mat
        assert min_commutator_norm(first, np.empty((0, 2, 2))) == np.inf

    def test_stops_after_the_first_chunk_at_or_below_the_threshold(self, monkeypatch):
        rng = seeded(35)
        first = random_basis(5, rng).mat
        step = SCAN_CHUNK // (2 ** 4 - 1) ** 2
        others = np.array([first] + [random_basis(5, rng).mat for _ in range(2 * step)])
        calls = []
        real = opcore.commutator_norms

        def counted(a, b):
            calls.append(len(b))
            return real(a, b)

        monkeypatch.setattr(opcore, "commutator_norms", counted)
        assert min_commutator_norm(first, others, 1e-8) <= 1e-8
        assert calls == [step]
