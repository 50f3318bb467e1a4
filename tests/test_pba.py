"""Blocks, Born weights, truth valuations, and the fullness argument."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_density
from nchv.errors import ValidationError, WeightNormalizationError
from nchv.opcore import OrthonormalBasis, operator_norm, subset_projections
from nchv import pba
from nchv.pba import (
    PartialBooleanAlgebra,
    ProjectionBlock,
    TruthValuation,
    atom_partitions,
    block_structure_extremes,
    born_weights,
    build_block,
    evaluate_element,
    sample_block_valuations,
    verify_block_assignment,
    verify_fullness,
    verify_homomorphism,
)


def _std_block(n=3):
    from nchv.basisfamily import FamilyMember, Provenance

    member = FamilyMember(1, OrthonormalBasis(np.eye(n)), Provenance(None, 0, 0.0))
    return build_block(member)


class TestBuildBlock:
    def test_has_all_subset_elements(self, pba10):
        block = pba10.block(1)
        direct = subset_projections(block.member.basis, range(8))
        for mask in range(8):
            assert operator_norm(block.element(mask) - direct[mask]) < 1e-12
        assert operator_norm(block.element(0)) == 0.0
        assert operator_norm(block.element(7) - np.eye(3)) < 1e-10

    def test_elements_match_direct_subset_projections(self, pba10):
        block = pba10.block(3)
        masks = list(range(1, 8))
        direct = subset_projections(block.member.basis, masks)
        for mask, proj in zip(masks, direct):
            assert operator_norm(block.element(mask) - proj) < 1e-12

    def test_unknown_mask_rejected(self, pba10):
        with pytest.raises(ValidationError):
            pba10.block(1).element(99)


class TestPartialBooleanAlgebra:
    def test_from_family_takes_prefix(self, family10):
        pba = PartialBooleanAlgebra.from_family(family10, count=4)
        assert len(pba.blocks) == 4

    def test_nontrivial_element_count(self, pba10):
        assert sum(1 for _ in pba10.nontrivial_elements()) == 10 * 6

    def test_block_lookup_by_member_index(self, pba10):
        assert pba10.block(5).index == 5


class TestBornWeights:
    def test_diagonal_oracle(self):
        block = _std_block()
        d = np.diag([0.5, 0.3, 0.2]).astype(complex)
        w = born_weights(d, block)
        assert w == pytest.approx([0.5, 0.3, 0.2], abs=1e-12)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValidationError):
            born_weights(np.eye(3), _std_block())

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_weights_normalized_for_random_states(self, seed, pba10):
        d = random_density(3, np.random.default_rng(seed))
        for m in (1, 4, 9):
            w = born_weights(d, pba10.block(m))
            assert abs(w.sum() - 1.0) < 1e-12
            assert (w >= 0).all()


class TestStackedWeights:
    def test_rows_equal_the_single_block_formula_bit_for_bit(self, pba10):
        d = random_density(3, np.random.default_rng(3))
        bases = np.array([pba10.block(m).member.basis.mat for m in range(1, 11)])
        for row, v in zip(pba._atom_weights(d, bases), bases):
            w = np.clip(np.einsum("ji,jk,ki->i", v.conj(), d, v).real, 0.0, None)
            assert np.array_equal(row, w / float(w.sum()))

    def test_first_failing_basis_decides_the_error(self):
        d = np.diag([1.5, -0.5]).astype(complex)  # unit trace, not positive
        good = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)  # weights 1/2, 1/2
        long = 1.2 * good  # weights sum to 1.44
        negative = np.eye(2, dtype=complex)  # weights 1.5, -0.5, summing to 1
        with pytest.raises(WeightNormalizationError, match="sum to"):
            pba._atom_weights(d, np.array([good, long, negative]))
        with pytest.raises(WeightNormalizationError, match="negative"):
            pba._atom_weights(d, np.array([good, negative, long]))


class TestSampling:
    def test_deterministic_under_seed(self, pba10):
        d = np.eye(3) / 3
        a = sample_block_valuations(d, pba10.block(2), np.random.default_rng(7), 100)
        b = sample_block_valuations(d, pba10.block(2), np.random.default_rng(7), 100)
        assert np.array_equal(a, b)

    def test_empirical_matches_weights(self, pba10):
        rng = np.random.default_rng(8)
        d = random_density(3, rng)
        block = pba10.block(6)
        w = born_weights(d, block)
        n = 20000
        atoms = sample_block_valuations(d, block, rng, n)
        emp = np.bincount(atoms, minlength=3) / n
        # 4 sigma per outcome
        for i in range(3):
            assert abs(emp[i] - w[i]) < 4 * np.sqrt(w[i] * (1 - w[i]) / n) + 1e-9


class TestTruthValuation:
    def test_chosen_atom_is_stable(self, pba10):
        val = TruthValuation(np.eye(3) / 3, np.random.default_rng(3))
        block = pba10.block(4)
        first = val.populate(block)
        assert val.populate(block) == first

    def test_complement_law(self, pba10):
        val = TruthValuation(np.eye(3) / 3, np.random.default_rng(4))
        block = pba10.block(1)
        for mask in range(8):
            assert val.evaluate(block, mask) + val.evaluate(block, 7 ^ mask) == 1

    def test_assignment_requires_population(self, pba10):
        val = TruthValuation(np.eye(3) / 3, np.random.default_rng(5))
        with pytest.raises(ValidationError):
            val.block_assignment(pba10.block(2))

    def test_density_checked_once_per_valuation(self, pba10, monkeypatch):
        calls = []
        real = pba.check_density

        def counted(density):
            calls.append(1)
            return real(density)

        monkeypatch.setattr(pba, "check_density", counted)
        d = random_density(3, np.random.default_rng(7))
        val = TruthValuation(d, np.random.default_rng(8))
        atoms = [val.populate(block) for block in pba10.blocks]
        assert len(calls) == 1
        # same draws as the checked public sampler
        rng = np.random.default_rng(8)
        assert atoms == [int(sample_block_valuations(d, b, rng, 1)[0]) for b in pba10.blocks]

    def test_evaluate_element_convenience(self, pba10):
        val = TruthValuation(np.eye(3) / 3, np.random.default_rng(6))
        total = sum(evaluate_element(val, pba10, 3, 1 << i) for i in range(3))
        assert total == 1


class TestAssignmentLaws:
    def test_exactly_three_valid_assignments_in_dimension_three(self):
        """Brute force over all 2^8 mask assignments: only atom indicators pass."""
        valid = []
        for code in range(256):
            values = [(code >> m) & 1 for m in range(8)]
            if verify_block_assignment(values, 3):
                valid.append(tuple(values))
        expected = set()
        for atom in range(3):
            expected.add(tuple((mask >> atom) & 1 for mask in range(8)))
        assert set(valid) == expected
        assert len(valid) == 3

    def test_sampled_valuations_are_homomorphisms(self, pba10):
        rng = np.random.default_rng(11)
        d = random_density(3, rng)
        for _ in range(50):
            val = TruthValuation(d, rng)
            for m in (1, 5, 10):
                assert verify_homomorphism(val, pba10.block(m))

    @given(st.integers(1, 4), st.integers(0, 10**5))
    @settings(max_examples=40, deadline=None)
    def test_atom_indicators_always_pass(self, n, seed):
        atom = seed % n
        values = [(mask >> atom) & 1 for mask in range(1 << n)]
        assert verify_block_assignment(values, n)

    def test_partition_counts_are_bell_numbers(self):
        assert len(atom_partitions(1)) == 1
        assert len(atom_partitions(2)) == 2
        assert len(atom_partitions(3)) == 5
        assert len(atom_partitions(4)) == 15

    def test_partitions_cover_disjointly(self):
        for parts in atom_partitions(4):
            combined = 0
            for mask in parts:
                assert combined & mask == 0
                combined |= mask
            assert combined == 0b1111


class TestFullness:
    def test_all_ordered_pairs_distinguished(self, pba10):
        report = verify_fullness(pba10)
        assert report.full
        assert not report.undistinguished
        assert len(report.witnesses) == 60 * 59

    def test_witnesses_actually_separate(self, pba10):
        """Independent recheck: evaluate both elements under the witness map."""
        report = verify_fullness(pba10)
        for (mi, a), (pj, b), witness in report.witnesses[:500]:
            va = (a >> witness[mi]) & 1
            vb = (b >> witness[pj]) & 1
            assert va != vb


class TestBlockExtremes:
    def test_within_block_commutes_cross_block_does_not(self, pba10):
        max_within, min_cross = block_structure_extremes(pba10)
        assert max_within <= 1e-10
        assert min_cross > 1e-8
