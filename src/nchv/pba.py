"""Boolean blocks of subset projections and lazily sampled truth valuations.

Each basis spans a block containing the 2**n projections onto subsets of
its vectors, keyed by bitmask. Distinct blocks of a totally incompatible
family share only the zero and identity operators, so a global valuation
factorizes: pick one atom per block, independently, with Born weights.
The verification helpers here deliberately recheck what the construction
guarantees, so they accept arbitrary assignments as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basisfamily import BasisFamily, FamilyMember
from .errors import ValidationError, WeightNormalizationError
from .opcore import (
    ALGEBRA_TOL,
    SPECTRAL_TOL,
    atom_projections,
    check_density,
    incompatibility_stack,
    min_commutator_norm,
    nontrivial_masks,
    operator_norm,
    pairwise_commutator_norms,
    subset_projection,
)

__all__ = [
    "ProjectionBlock",
    "PartialBooleanAlgebra",
    "build_block",
    "born_weights",
    "sample_block_valuation",
    "sample_block_valuations",
    "TruthValuation",
    "evaluate_element",
    "atom_partitions",
    "verify_block_assignment",
    "verify_homomorphism",
    "FullnessReport",
    "verify_fullness",
    "block_structure_extremes",
]


@dataclass(frozen=True, eq=False)
class ProjectionBlock:
    """The atoms of one basis; its subset projections are keyed by atom bitmask."""

    member: FamilyMember
    atoms: tuple[np.ndarray, ...]

    @property
    def index(self) -> int:
        return self.member.index

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def element(self, mask: int) -> np.ndarray:
        """The projection onto the atoms in ``mask``, computed on each call."""
        return subset_projection(self.member.basis, mask)


def build_block(member: FamilyMember) -> ProjectionBlock:
    """Construct the block spanned by a family member from its atoms."""
    atoms = atom_projections(member.basis)
    if operator_norm(atoms.sum(axis=0) - np.eye(len(atoms))) > ALGEBRA_TOL:
        raise ValidationError("atoms do not sum to the identity within 1e-10")
    atoms.setflags(write=False)
    return ProjectionBlock(member=member, atoms=tuple(atoms))


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
        members = family.members if count is None else family.members[:count]
        return cls(build_block(m) for m in members)

    def block(self, index: int) -> ProjectionBlock:
        try:
            return self._by_index[index]
        except KeyError:
            raise ValidationError(f"unknown block index {index}") from None

    def nontrivial_elements(self):
        """Yield (block index, mask) for every projection besides 0 and I."""
        for block in self.blocks:
            for mask in nontrivial_masks(block.n):
                yield block.index, mask


def born_weights(density: np.ndarray, block: ProjectionBlock) -> np.ndarray:
    """Born weights of the block's atoms in the given state, normalized.

    Noise floor: weights in [-1e-10, 0) are clamped to 0. Anything more
    negative, or a total farther than 1e-9 from 1, means the state and the
    block disagree and raises WeightNormalizationError.
    """
    return _atom_weights(check_density(density), block.member.basis.mat[None])[0]


def _atom_weights(d: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """``born_weights`` of every basis in a (m, n, n) stack, in one pass.

    ``d`` must already have passed check_density. The first basis whose
    weights fail raises, with its negativity checked before its total.
    """
    if bases.shape[-1] != d.shape[0]:
        raise ValidationError("state and block dimensions differ")
    w = np.einsum("mji,jk,mki->mi", bases.conj(), d, bases).real
    low = w.min(axis=1)
    # the same values as np.clip(w, 0.0, None), without its dispatch cost
    w = np.maximum(w, 0.0)
    totals = w.sum(axis=1)
    bad = (low < -ALGEBRA_TOL) | (np.abs(totals - 1.0) > SPECTRAL_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        if low[k] < -ALGEBRA_TOL:
            raise WeightNormalizationError(f"atom weight {low[k]:.3e} is negative beyond tolerance")
        raise WeightNormalizationError(f"atom weights sum to {float(totals[k])!r}, expected 1")
    return w / totals[:, None]


def _draw_atoms(w: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right").astype(np.int64)


def sample_block_valuations(density, block: ProjectionBlock, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` independent chosen atoms from the block's Born weights."""
    return _draw_atoms(born_weights(density, block), rng, size)


def sample_block_valuation(density, block: ProjectionBlock, rng: np.random.Generator) -> int:
    """Draw the chosen atom for one block: index i with probability Tr(D atom_i)."""
    return int(sample_block_valuations(density, block, rng, 1)[0])


class TruthValuation:
    """Lazily sampled global valuation: one chosen atom per visited block.

    Blocks are sampled at first use and memoized by block index, so every
    element of a block is evaluated against the same chosen atom for the
    life of the valuation. Element value is 1 exactly when the chosen
    atom's bit lies in the element's mask.
    """

    def __init__(self, density, rng: np.random.Generator, stream_id: str | None = None):
        self.density = check_density(density)
        self.rng = rng
        self.stream_id = stream_id
        self.chosen: dict[int, int] = {}

    def populate(self, block: ProjectionBlock) -> int:
        atom = self.chosen.get(block.index)
        if atom is None:
            # the constructor validated the density, so no block rechecks it
            w = _atom_weights(self.density, block.member.basis.mat[None])[0]
            atom = int(_draw_atoms(w, self.rng, 1)[0])
            self.chosen[block.index] = atom
        return atom

    def evaluate(self, block: ProjectionBlock, mask: int) -> int:
        if not 0 <= mask <= block.full_mask:
            raise ValidationError(f"mask {mask} out of range for block {block.index}")
        atom = self.populate(block)
        return (mask >> atom) & 1

    def block_assignment(self, block: ProjectionBlock) -> list[int]:
        """Materialize the value of every mask of a populated block."""
        if block.index not in self.chosen:
            raise ValidationError(f"block {block.index} is not populated")
        atom = self.chosen[block.index]
        return [(mask >> atom) & 1 for mask in range(1 << block.n)]

    def to_json(self) -> dict:
        return {
            "chosen": {str(k): v for k, v in sorted(self.chosen.items())},
            "provenance": {"stream": self.stream_id, "dim": int(self.density.shape[0])},
        }


def evaluate_element(valuation: TruthValuation, pba: PartialBooleanAlgebra, block_index: int, mask: int) -> int:
    """Evaluate element (block, mask), sampling the block on first access."""
    return valuation.evaluate(pba.block(block_index), mask)


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

    Required: every partition of the atoms gets total value exactly 1,
    complements map to 1 - value, and products (mask intersections)
    multiply. Assignments induced by a single chosen atom always pass.
    """
    size = 1 << n
    if len(values) != size:
        raise ValidationError(f"assignment must cover all {size} masks")
    if any(v not in (0, 1) for v in values):
        return False
    full = size - 1
    for a in range(size):
        if values[full ^ a] != 1 - values[a]:
            return False
    for parts in atom_partitions(n):
        if sum(values[mask] for mask in parts) != 1:
            return False
    for a in range(size):
        va = values[a]
        for b in range(a, size):
            if values[a & b] != va * values[b]:
                return False
    return True


def verify_homomorphism(valuation: TruthValuation, block: ProjectionBlock) -> bool:
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
    which the two elements take different values. Pairs that cannot be
    separated are reported instead; an empty list means the algebra is full.
    """
    elements = list(pba.nontrivial_elements())
    witnesses = []
    undistinguished = []
    full_mask = (1 << pba.blocks[0].n) - 1
    for mi, a in elements:
        for pj, b in elements:
            if (mi, a) == (pj, b):
                continue
            witness = None
            if mi == pj:
                diff = a ^ b
                if diff:
                    atom = (diff & -diff).bit_length() - 1
                    witness = {mi: atom}
            else:
                atom_in = (a & -a).bit_length() - 1
                outside = full_mask ^ b
                atom_out = (outside & -outside).bit_length() - 1
                witness = {mi: atom_in, pj: atom_out}
            if witness is None:
                undistinguished.append(((mi, a), (pj, b)))
            else:
                witnesses.append(((mi, a), (pj, b), witness))
    return FullnessReport(
        full=not undistinguished,
        witnesses=tuple(witnesses),
        undistinguished=tuple(undistinguished),
    )


def block_structure_extremes(pba: PartialBooleanAlgebra):
    """(max within-block, min cross-block) commutator norm over nontrivial pairs.

    The first should sit at roundoff level and the second clearly above the
    family floor: compatibility happens inside blocks and nowhere else.
    """
    stacks = [incompatibility_stack(b.member.basis) for b in pba.blocks]
    upper = np.triu_indices(len(stacks[0]), k=1)
    max_within = max(pairwise_commutator_norms(s, s)[upper].max(initial=0.0) for s in stacks)
    min_cross = min(min_commutator_norm(s, stacks[i + 1:]) for i, s in enumerate(stacks))
    return float(max_within), float(min_cross)
