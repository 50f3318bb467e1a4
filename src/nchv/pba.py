"""Boolean blocks of subset projections and lazily sampled truth valuations.

A block is a ``FamilyMember``: its basis spans the 2**n projections onto
subsets of its vectors, keyed by atom bitmask, and
``opcore.subset_projection(member.basis, mask)`` computes any of them on
demand. The atoms sum to the identity because ``OrthonormalBasis`` checked
the basis when it was made. Distinct blocks of a totally incompatible
family share only the zero and identity operators, so a global valuation
factorizes: pick one atom per block, independently, with Born weights.
The verification helpers here deliberately recheck what the construction
guarantees, so they accept arbitrary assignments as well; the block laws
come down to one point-evaluation check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basisfamily import BasisFamily, FamilyMember
from .errors import DimensionMismatchError, ValidationError
from .opcore import (
    check_density,
    commutator_norms,
    draw_indices,
    min_commutator_norm,
    nontrivial_masks,
    normalized_weights,
)

__all__ = [
    "PartialBooleanAlgebra",
    "born_weights",
    "sample_block_valuations",
    "TruthValuation",
    "atom_partitions",
    "verify_block_assignment",
    "verify_homomorphism",
    "FullnessReport",
    "verify_fullness",
    "block_structure_extremes",
]


class PartialBooleanAlgebra:
    """A union of blocks sharing exactly the zero and identity elements."""

    def __init__(self, blocks):
        blocks = tuple(blocks)
        if not blocks:
            raise ValidationError("need at least one block")
        dims = {b.n for b in blocks}
        if len(dims) != 1:
            raise ValidationError("blocks live on different dimensions")
        self._by_index = {}
        for block in blocks:
            if block.index in self._by_index:
                raise ValidationError(f"duplicate block index {block.index}")
            self._by_index[block.index] = block
        self.blocks = blocks
        self.dim = dims.pop()

    @classmethod
    def from_family(cls, family: BasisFamily, count: int | None = None) -> "PartialBooleanAlgebra":
        if count is not None and count < 1:
            raise ValidationError(f"count must be at least 1, got {count}")
        members = family.members if count is None else family.members[:count]
        return cls(members)

    def block(self, index: int) -> FamilyMember:
        try:
            return self._by_index[index]
        except KeyError:
            raise ValidationError(f"unknown block index {index}") from None

    def nontrivial_elements(self):
        """Yield (block index, mask) for every projection besides 0 and I."""
        for block in self.blocks:
            for mask in nontrivial_masks(block.n):
                yield block.index, mask


def born_weights(density: np.ndarray, block: FamilyMember) -> np.ndarray:
    """Born weights of the block's atoms in the given state, normalized.

    Noise floor: weights in [-1e-10, 0) are clamped to 0. Anything more
    negative, or a total farther than 1e-9 from 1, means the state and the
    block disagree and raises WeightNormalizationError.
    """
    return _atom_weights(check_density(density), block.basis.mat[None])[0]


def _atom_weights(d: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """``born_weights`` of every basis in a (m, n, n) stack, in one pass.

    ``d`` must already have passed check_density; ``normalized_weights``
    decides which basis, if any, fails.
    """
    if bases.shape[-1] != d.shape[0]:
        raise DimensionMismatchError("state and block dimensions differ")
    return normalized_weights(np.einsum("mji,jk,mki->mi", bases.conj(), d, bases).real)


def sample_block_valuations(density, block: FamilyMember, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` independent chosen atoms from the block's Born weights."""
    return draw_indices(born_weights(density, block), rng, size)


class TruthValuation:
    """Lazily sampled global valuation: one chosen atom per visited block.

    Blocks are sampled at first use and memoized by block index, so every
    element of a block is evaluated against the same chosen atom for the
    life of the valuation. Element value is 1 exactly when the chosen
    atom's bit lies in the element's mask.
    """

    def __init__(self, density, rng: np.random.Generator):
        self.density = check_density(density)
        self.rng = rng
        self.chosen: dict[int, int] = {}

    def populate(self, block: FamilyMember) -> int:
        atom = self.chosen.get(block.index)
        if atom is None:
            # the constructor validated the density, so no block rechecks it
            w = _atom_weights(self.density, block.basis.mat[None])[0]
            atom = int(draw_indices(w, self.rng, 1)[0])
            self.chosen[block.index] = atom
        return atom

    def evaluate(self, block: FamilyMember, mask: int) -> int:
        if not 0 <= mask < 1 << block.n:
            raise ValidationError(f"mask {mask} out of range for block {block.index}")
        atom = self.populate(block)
        return (mask >> atom) & 1

    def block_assignment(self, block: FamilyMember) -> list[int]:
        """Materialize the value of every mask of a populated block."""
        if block.index not in self.chosen:
            raise ValidationError(f"block {block.index} is not populated")
        atom = self.chosen[block.index]
        return [(mask >> atom) & 1 for mask in range(1 << block.n)]


@lru_cache(maxsize=None)
def atom_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n atoms into disjoint nonempty groups, as mask tuples."""
    if n < 1:
        raise ValidationError("need at least one atom")
    partitions: list[tuple[int, ...]] = []

    def extend(i, parts):
        if i == n:
            partitions.append(tuple(sorted(parts)))
            return
        bit = 1 << i
        for j in range(len(parts)):
            parts[j] |= bit
            extend(i + 1, parts)
            parts[j] ^= bit
        parts.append(bit)
        extend(i + 1, parts)
        parts.pop()

    extend(0, [])
    return tuple(partitions)


def verify_block_assignment(values, n: int) -> bool:
    """Check an arbitrary {0,1} assignment over all 2**n masks of one block.

    The laws: every partition of the atoms sums to exactly 1, complements
    map to 1 - value and products (mask intersections) multiply. They hold
    exactly for a point evaluation, values[m] = (m >> a) & 1 for one atom a,
    which is what this checks. Proof: a point evaluation obeys all three.
    Conversely, the singleton partition forces a unique atom a with value 1;
    for m holding a, products give values[m] = values[m] * values[1 << a] =
    values[1 << a] = 1, and complements force every other mask to 0.
    """
    size = 1 << n
    if len(values) != size:
        raise ValidationError(f"assignment must cover all {size} masks")
    atoms = [a for a in range(n) if values[1 << a] == 1]
    if len(atoms) != 1:
        return False
    a = atoms[0]
    return all(v == (m >> a) & 1 for m, v in enumerate(values))


def verify_homomorphism(valuation: TruthValuation, block: FamilyMember) -> bool:
    """Recheck the two-valued homomorphism laws, sampling the block if needed."""
    valuation.populate(block)
    return verify_block_assignment(valuation.block_assignment(block), block.n)


@dataclass(frozen=True)
class FullnessReport:
    full: bool
    witnesses: tuple
    undistinguished: tuple


def verify_fullness(pba: PartialBooleanAlgebra) -> FullnessReport:
    """Constructively separate every ordered pair of distinct nontrivial elements.

    For each pair a witness valuation (a chosen-atom map) is built under
    which the two elements take different values. Every pair gets one: two
    distinct masks of one block differ in some atom, and across blocks the
    first element holds an atom (it is nonzero) and the second misses one
    (it is proper). So ``full`` is always true and ``undistinguished``
    always (); both stay in the report, which acceptance criterion 3 reads.
    """
    elements = list(pba.nontrivial_elements())
    witnesses = []
    full_mask = (1 << pba.blocks[0].n) - 1
    for mi, a in elements:
        for pj, b in elements:
            if (mi, a) == (pj, b):
                continue
            if mi == pj:
                diff = a ^ b
                witness = {mi: (diff & -diff).bit_length() - 1}
            else:
                atom_in = (a & -a).bit_length() - 1
                outside = full_mask ^ b
                atom_out = (outside & -outside).bit_length() - 1
                witness = {mi: atom_in, pj: atom_out}
            witnesses.append(((mi, a), (pj, b), witness))
    return FullnessReport(full=True, witnesses=tuple(witnesses), undistinguished=())


def block_structure_extremes(pba: PartialBooleanAlgebra):
    """(max within-block, min cross-block) commutator norm over nontrivial pairs.

    Both are ``commutator_norms``, a block against itself for the first. The
    first should sit at roundoff level and the second clearly above the
    family floor: compatibility happens inside blocks and nowhere else.
    """
    bases = np.array([b.basis.mat for b in pba.blocks])
    max_within = max(float(commutator_norms(a, a[None]).max(initial=0.0)) for a in bases)
    min_cross = min(min_commutator_norm(a, bases[i + 1:]) for i, a in enumerate(bases))
    return max_within, min_cross
