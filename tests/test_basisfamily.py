"""Family generation, incompatibility checks, and the repair loop."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nchv import basisfamily
from nchv.basisfamily import (
    DEFAULT_FLOOR,
    BasisFamily,
    FamilyMember,
    Provenance,
    generate_family,
    haar_basis,
    min_cross_commutator_norm,
    nearest_member,
    random_nearby_basis,
    repair_member,
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
    assert min_cross_commutator_norm(STD2, HADAMARD) > DEFAULT_FLOOR


def test_a_basis_is_never_incompatible_with_itself():
    assert min_cross_commutator_norm(STD2, STD2) == 0.0


def brute_min_cross_norm(first, second):
    """One commutator SVD for every pair of nontrivial masks."""
    n = first.dim
    return min(
        np.linalg.norm(p @ q - q @ p, 2)
        for p in (subset_projection(first, a) for a in nontrivial_masks(n))
        for q in (subset_projection(second, b) for b in nontrivial_masks(n))
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_min_cross_norm_matches_brute_force_over_all_masks(n):
    rng = np.random.default_rng(100 + n)
    first, second = haar_basis(n, rng), haar_basis(n, rng)
    brute = brute_min_cross_norm(first, second)
    assert min_cross_commutator_norm(first, second) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("radius", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_min_cross_norm_of_near_compatible_pairs(n, radius):
    """Near a commuting pair the norms are tiny, so they agree in absolute terms."""
    rng = np.random.default_rng(200 + n)
    first = haar_basis(n, rng)
    second = random_nearby_basis(first, radius, rng)
    brute = brute_min_cross_norm(first, second)
    assert brute < 2 * radius
    assert min_cross_commutator_norm(first, second) == pytest.approx(brute, abs=1e-14)


def test_incompatibility_needs_dimension_two():
    one = OrthonormalBasis(np.eye(1))
    with pytest.raises(ValidationError):
        min_cross_commutator_norm(one, one)


class TestRepair:
    def test_clear_candidate_returned_unchanged(self):
        rng = np.random.default_rng(3)
        first = FamilyMember(1, haar_basis(3, rng), Provenance(None, 0, 0.0))
        candidate = haar_basis(3, rng)
        member = repair_member(candidate, first.basis.mat[None], budget=0.5, rng=rng, index=2, seed=3)
        assert (member.index, member.provenance.seed, member.provenance.replacements) == (2, 3, 0)
        assert np.array_equal(member.basis.mat, candidate.mat)

    def test_identical_candidate_gets_moved(self):
        rng = np.random.default_rng(4)
        basis = haar_basis(3, rng)
        first = FamilyMember(1, basis, Provenance(None, 0, 0.0))
        member = repair_member(basis, first.basis.mat[None], budget=0.25, rng=rng, index=2, seed=4)
        assert (member.index, member.provenance.seed) == (2, 4)
        assert member.provenance.replacements > 0
        assert 0.0 < member.provenance.distance_moved < 0.25
        assert min_cross_commutator_norm(member.basis, basis) > DEFAULT_FLOOR

    def test_unreachable_floor_exhausts(self, monkeypatch):
        # |[P,Q]| <= 1/2 for projections, so a floor of 1 can never clear
        monkeypatch.setattr(basisfamily, "ATTEMPTS_PER_RADIUS", 4)
        monkeypatch.setattr(basisfamily, "RADIUS_LEVELS", 3)
        monkeypatch.setattr(basisfamily, "DEFAULT_FLOOR", 1.0)
        rng = np.random.default_rng(6)
        basis = haar_basis(2, rng)
        first = haar_basis(2, rng)
        with pytest.raises(RepairExhaustedError, match="after 12 attempts"):
            repair_member(basis, first.mat[None], budget=0.5, rng=rng, index=2, seed=6)


class TestGenerateFamily:
    def test_bitwise_deterministic(self):
        a = generate_family(3, 6, seed=99)
        b = generate_family(3, 6, seed=99)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)

    def test_all_pairs_clear_the_floor(self):
        fam = generate_family(2, 8, seed=5)
        for i in range(8):
            for j in range(i + 1, 8):
                assert min_cross_commutator_norm(fam.members[i].basis, fam.members[j].basis) > DEFAULT_FLOOR

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

    def test_budget_and_floor_are_read_at_call_time(self, monkeypatch):
        # a floor of 0.2 makes member 2 of this seed need repair, within 0.125 < 2**-2
        monkeypatch.setattr(basisfamily, "DEFAULT_NET_BOUND", 0.125)
        monkeypatch.setattr(basisfamily, "DEFAULT_FLOOR", 0.2)
        fam = generate_family(2, 4, seed=4)
        assert (fam.net_bound, fam.floor) == (0.125, 0.2)
        bases = [m.basis for m in fam.members]
        assert min(min_cross_commutator_norm(a, b)
                   for i, a in enumerate(bases) for b in bases[i + 1:]) > 0.2
        assert fam.members[1].provenance.replacements > 0
        for m in fam.members:
            assert m.provenance.distance_moved <= min(0.125, 2.0 ** -m.index)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValidationError):
            generate_family(1, 3, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
            generate_family(2, 2, seed=-1)

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

    @pytest.mark.parametrize("permuted_member", [False, True])
    def test_batch_matches_member_loop_bit_for_bit(self, family10, permuted_member):
        # reference: one basis_distance per member, the first strict minimum
        # winning; reordered members check that vector order counts
        rng = np.random.default_rng(31)
        for k in range(10):
            if permuted_member:
                target = OrthonormalBasis(family10.members[k].basis.mat[:, rng.permutation(3)])
            else:
                target = haar_basis(3, rng)
            dists = [basis_distance(m.basis, target) for m in family10.members]
            best = int(np.argmin(dists))
            assert nearest_member(family10, target) == (family10.members[best].index, dists[best])

    def test_first_of_tied_members_wins(self, family10):
        twins = [FamilyMember(i, family10.members[3].basis, Provenance(None, 0, 0.0))
                 for i in (5, 2)]
        fam = BasisFamily(3, 1.7, 1e-8, 0, (family10.members[0], *twins))
        assert nearest_member(fam, family10.members[3].basis)[0] == 5


@pytest.mark.parametrize("call, message", [
    (lambda family10: repair_member(family10.members[0].basis, family10.stack, 0.0,
                                    np.random.default_rng(0), 10, 0), "budget must be positive"),
    (lambda family10: generate_family(3, 0, seed=1), "count must be at least 1"),
    (lambda family10: nearest_member(dataclasses.replace(family10, members=()),
                                     family10.members[0].basis), "family has no members"),
], ids=["repair-budget-zero", "count-zero", "nearest-in-empty-family"])
def test_malformed_input_is_a_validation_error(family10, call, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call(family10)
