"""Family generation, incompatibility checks, and the repair loop."""

import gc
import itertools
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchv.basisfamily import (
    BasisFamily,
    FamilyMember,
    Provenance,
    generate_family,
    haar_basis,
    min_cross_commutator_norm,
    nearest_member,
    random_nearby_basis,
    repair_member,
    totally_incompatible,
)
from nchv.errors import RepairExhaustedError, ValidationError
from nchv.opcore import OrthonormalBasis, basis_distance, nontrivial_masks, subset_projection

HADAMARD = OrthonormalBasis(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
STD2 = OrthonormalBasis(np.eye(2))


def test_haar_is_seed_deterministic():
    a = haar_basis(4, np.random.default_rng(77))
    b = haar_basis(4, np.random.default_rng(77))
    assert np.array_equal(a.mat, b.mat)


def test_haar_columns_orthonormal():
    b = haar_basis(5, np.random.default_rng(1))
    gram = b.mat.conj().T @ b.mat
    assert np.allclose(gram, np.eye(5), atol=1e-12)


@given(st.integers(0, 10**6), st.floats(1e-6, 3.0))
@settings(max_examples=60, deadline=None)
def test_nearby_basis_stays_strictly_inside_radius(seed, radius):
    rng = np.random.default_rng(seed)
    base = haar_basis(3, rng)
    moved = random_nearby_basis(base, radius, rng)
    assert basis_distance(base, moved) < radius


def test_nearby_basis_rejects_bad_radius():
    with pytest.raises(ValidationError):
        random_nearby_basis(STD2, 0.0, np.random.default_rng(0))


def test_standard_vs_hadamard_min_commutator_is_half():
    # every cross pair of rank-1 projectors here gives |[P,Q]| = 1/2
    assert min_cross_commutator_norm(STD2, HADAMARD) == pytest.approx(0.5, abs=1e-12)
    assert totally_incompatible(STD2, HADAMARD)


def test_a_basis_is_never_incompatible_with_itself():
    assert min_cross_commutator_norm(STD2, STD2) == 0.0
    assert not totally_incompatible(STD2, STD2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_min_cross_norm_matches_brute_force_over_all_masks(n):
    rng = np.random.default_rng(100 + n)
    first, second = haar_basis(n, rng), haar_basis(n, rng)
    brute = min(
        np.linalg.norm(p @ q - q @ p, 2)
        for p in (subset_projection(first, a) for a in nontrivial_masks(n))
        for q in (subset_projection(second, b) for b in nontrivial_masks(n))
    )
    assert min_cross_commutator_norm(first, second) == pytest.approx(brute, rel=1e-12)


def test_incompatibility_needs_dimension_two():
    one = OrthonormalBasis(np.eye(1))
    with pytest.raises(ValidationError):
        min_cross_commutator_norm(one, one)


class TestRepair:
    def test_clear_candidate_returned_unchanged(self):
        rng = np.random.default_rng(3)
        first = FamilyMember(1, haar_basis(3, rng), Provenance(None, 0, 0.0))
        candidate = haar_basis(3, rng)
        member = repair_member(candidate, [first], budget=0.5, rng=rng)
        assert member.provenance.replacements == 0
        assert np.array_equal(member.basis.mat, candidate.mat)

    def test_identical_candidate_gets_moved(self):
        rng = np.random.default_rng(4)
        basis = haar_basis(3, rng)
        first = FamilyMember(1, basis, Provenance(None, 0, 0.0))
        member = repair_member(basis, [first], budget=0.25, rng=rng)
        assert member.provenance.replacements > 0
        assert 0.0 < member.provenance.distance_moved < 0.25
        assert totally_incompatible(member.basis, basis)

    def test_needs_rng_when_dirty(self):
        basis = haar_basis(3, np.random.default_rng(5))
        first = FamilyMember(1, basis, Provenance(None, 0, 0.0))
        with pytest.raises(ValidationError):
            repair_member(basis, [first], budget=0.25, rng=None)

    def test_unreachable_floor_exhausts(self):
        # |[P,Q]| <= 1/2 for projections, so a floor of 1 can never clear
        rng = np.random.default_rng(6)
        basis = haar_basis(2, rng)
        first = FamilyMember(1, haar_basis(2, rng), Provenance(None, 0, 0.0))
        with pytest.raises(RepairExhaustedError):
            repair_member(basis, [first], budget=0.5, floor=1.0, rng=rng,
                          attempts_per_radius=4, radius_levels=3)


class TestGenerateFamily:
    def test_bitwise_deterministic(self):
        a = generate_family(3, 6, seed=99)
        b = generate_family(3, 6, seed=99)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_all_pairs_clear_the_floor(self):
        fam = generate_family(2, 8, seed=5)
        for i in range(8):
            for j in range(i + 1, 8):
                assert totally_incompatible(
                    fam.members[i].basis, fam.members[j].basis, fam.floor
                )

    def test_member_indices_start_at_one(self):
        fam = generate_family(3, 4, seed=2)
        assert [m.index for m in fam.members] == [1, 2, 3, 4]

    def test_displacement_respects_shrinking_budget(self):
        fam = generate_family(3, 8, seed=11)
        for m in fam.members:
            assert m.provenance.distance_moved <= min(fam.net_bound, 2.0 ** -m.index)

    def test_grows_past_the_float_underflow_of_the_budget(self):
        # 2.0 ** -m is 0.0 from m = 1075 on; the budget stays positive
        fam = generate_family(2, 1100, seed=3)
        assert len(fam) == 1100
        for m in fam.members:
            assert m.provenance.distance_moved <= min(fam.net_bound, 2.0 ** -m.index)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValidationError):
            generate_family(1, 3, seed=0)

    def test_json_roundtrip(self, tmp_path):
        fam = generate_family(3, 5, seed=8)
        path = tmp_path / "fam.json"
        fam.save(path)
        again = BasisFamily.load(path)
        assert again.seed == fam.seed
        assert again.net_bound == fam.net_bound
        for a, b in zip(fam.members, again.members):
            assert np.array_equal(a.basis.mat, b.basis.mat)

    def test_failed_save_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "fam.json"
        generate_family(2, 3, seed=8).save(path)
        before = path.read_bytes()
        fam = generate_family(2, 4, seed=8)

        def broken(self):
            raise RuntimeError("serialisation failed")

        monkeypatch.setattr(BasisFamily, "to_json", broken)
        with pytest.raises(RuntimeError):
            fam.save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["fam.json"]

    def test_load_maps_file_errors_to_validation_errors(self, tmp_path):
        with pytest.raises(ValidationError):
            BasisFamily.load(tmp_path / "missing.json")
        (tmp_path / "bad.json").write_text('{"members": [], "n": "three"}')
        with pytest.raises(ValidationError):
            BasisFamily.load(tmp_path / "bad.json")


class TestMemberStack:
    def test_read_only_cached_and_in_member_order(self, family10):
        stack = family10.stack
        assert stack is family10.stack and not stack.flags.writeable
        assert stack.shape == (10, 3, 3)
        assert all(np.array_equal(s, m.basis.mat) for s, m in zip(stack, family10.members))

    def test_the_stack_does_not_keep_its_family_alive(self):
        family = generate_family(2, 3, seed=5)
        assert family.stack.shape == (3, 2, 2)
        ref = weakref.ref(family)
        del family
        gc.collect()
        assert ref() is None


class TestNearestMember:
    def test_finds_exact_member(self, family10):
        target = family10.members[6].basis
        idx, dist = nearest_member(family10, target)
        assert idx == family10.members[6].index
        assert dist < 1e-12

    def test_order_insensitive_matches_permuted(self, family10):
        target = family10.members[2].basis.permuted([2, 0, 1])
        _, ordered_dist = nearest_member(family10, target)
        idx, dist = nearest_member(family10, target, order_insensitive=True)
        assert idx == family10.members[2].index
        assert dist < 1e-12
        assert ordered_dist > dist

    def test_order_insensitive_capped_above_dimension_six(self):
        fam = generate_family(7, 1, seed=1)
        with pytest.raises(ValidationError):
            nearest_member(fam, OrthonormalBasis(np.eye(7)), order_insensitive=True)

    @pytest.mark.parametrize("order_insensitive", [False, True])
    def test_batch_matches_member_loop_bit_for_bit(self, family10, order_insensitive):
        # reference: one basis_distance per member and target ordering,
        # the first strict minimum winning
        rng = np.random.default_rng(31)
        orders = list(itertools.permutations(range(3))) if order_insensitive else [(0, 1, 2)]
        for _ in range(10):
            target = haar_basis(3, rng)
            dists = [min(basis_distance(m.basis, target.permuted(o)) for o in orders)
                     for m in family10.members]
            best = int(np.argmin(dists))
            assert nearest_member(family10, target, order_insensitive) == (
                family10.members[best].index, dists[best])

    def test_first_of_tied_members_wins(self, family10):
        twins = [FamilyMember(i, family10.members[3].basis, Provenance(None, 0, 0.0))
                 for i in (5, 2)]
        fam = BasisFamily(3, 1.7, 1e-8, 0, (family10.members[0], *twins))
        assert nearest_member(fam, family10.members[3].basis)[0] == 5
