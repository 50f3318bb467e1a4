"""Seeded generation of families of pairwise totally incompatible bases.

Two ordered orthonormal bases are totally incompatible when every
projection onto a nonempty proper subset of one fails to commute with
every such projection of the other. Candidates are drawn pseudo-uniformly
from the unitary group; a candidate that lands too close to an existing
member's commuting locus is nudged by a small random unitary, with the
move bounded by a per-member budget that halves at each family index.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import RepairExhaustedError, ValidationError
from .opcore import (
    JsonNode,
    OrthonormalBasis,
    _bases_from_json,
    basis_distance,
    basis_to_json,
    min_commutator_norm,
    read_json,
    require_same_dim,
    spectral_norms,
    write_json,
)

DEFAULT_FLOOR = 1e-8
# empirical coverage radius: for n = 3 families of 50 seeded members,
# Haar targets land within 1.7 of some member well over 95 times in 100
DEFAULT_NET_BOUND = 1.7
ATTEMPTS_PER_RADIUS = 64
RADIUS_LEVELS = 10

__all__ = [
    "DEFAULT_FLOOR",
    "DEFAULT_NET_BOUND",
    "Provenance",
    "FamilyMember",
    "BasisFamily",
    "haar_basis",
    "random_nearby_basis",
    "min_cross_commutator_norm",
    "repair_member",
    "generate_family",
    "nearest_member",
]


@dataclass(frozen=True)
class Provenance:
    """How a member came to be: generator seed, repair attempts, distance moved."""

    seed: int | None
    replacements: int
    distance_moved: float


@dataclass(frozen=True)
class FamilyMember:
    """One basis of a family, and the block of its subset projections, keyed by atom bitmask."""

    index: int
    basis: OrthonormalBasis
    provenance: Provenance

    @property
    def n(self) -> int:
        return self.basis.dim


@dataclass(frozen=True)
class BasisFamily:
    """An ordered family of pairwise totally incompatible bases."""

    dim: int
    net_bound: float
    floor: float
    seed: int
    members: tuple[FamilyMember, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @cached_property
    def stack(self) -> np.ndarray:
        """Read-only (M, n, n) stack of the member bases, in family order."""
        stack = np.array([m.basis.mat for m in self.members])
        stack.setflags(write=False)
        return stack

    def to_json(self) -> dict:
        return {
            "n": self.dim,
            "net_bound": self.net_bound,
            "floor": self.floor,
            "seed": self.seed,
            "members": [
                {
                    "index": m.index,
                    "basis": basis_to_json(m.basis),
                    "provenance": asdict(m.provenance),
                }
                for m in self.members
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "BasisFamily":
        node = JsonNode(obj, "family")
        n = node["n"].integer(1)
        entries = node["members"].elements()
        bases = _bases_from_json([entry["basis"] for entry in entries], n)
        members = []
        for entry, basis in zip(entries, bases):
            prov = entry["provenance"]
            seed = None if prov["seed"].value is None else prov["seed"].integer()
            moved = float(prov["distance_moved"].numbers(()))
            provenance = Provenance(seed, prov["replacements"].integer(0), moved)
            members.append(FamilyMember(entry["index"].integer(), basis, provenance))
        return cls(dim=n, net_bound=float(node["net_bound"].numbers(())),
                   floor=float(node["floor"].numbers(())), seed=node["seed"].integer(), members=tuple(members))

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "BasisFamily":
        return cls.from_json(read_json(path))


def haar_basis(n: int, rng: np.random.Generator) -> OrthonormalBasis:
    """Pseudo-uniform basis: complex Gaussian matrix, QR, phase-fixed R diagonal."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return OrthonormalBasis(q)


def random_nearby_basis(basis: OrthonormalBasis, radius: float, rng: np.random.Generator) -> OrthonormalBasis:
    """Apply exp(itH) for random Hermitian H, with t scaled so |I - U| < radius."""
    if radius <= 0:
        raise ValidationError("radius must be positive")
    n = basis.dim
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = (z + z.conj().T) / 2
    w, v = np.linalg.eigh(h)
    top = float(np.max(np.abs(w)))
    # |1 - e^{ia}| = 2 sin(a/2) < a, so capping t*max|eig| below the radius
    # keeps the move strictly inside it without phase wrap-around. The sin
    # gap is a^3/24, smaller than float roundoff for tiny radii, hence the
    # absolute shave; radii below it degenerate to no move at all, which is
    # still strictly inside.
    reach = min(radius, 2.0) - 1e-13
    if top < 1e-12 or reach <= 0:
        return basis
    t = reach / top
    u = (v * np.exp(1j * t * w)) @ v.conj().T
    return OrthonormalBasis(u @ basis.mat)


def min_cross_commutator_norm(first: OrthonormalBasis, second: OrthonormalBasis) -> float:
    """Smallest |[P, P']| over nonempty proper subset projections of each basis."""
    require_same_dim(first.mat, second.mat)
    if first.dim < 2:
        raise ValidationError("total incompatibility needs dimension >= 2")
    return min_commutator_norm(first.mat, second.mat[None])


def repair_member(
    candidate: OrthonormalBasis,
    stack: np.ndarray,
    budget: float,
    rng: np.random.Generator,
    index: int,
    seed: int,
) -> FamilyMember:
    """Return a member totally incompatible with every basis of the (m, n, n) ``stack``.

    Every cross commutator norm must exceed DEFAULT_FLOOR. The candidate
    is kept unchanged when it already clears everything. Otherwise random
    nearby bases are tried at radii budget, budget/2, ... (RADIUS_LEVELS
    levels, ATTEMPTS_PER_RADIUS draws each) until one clears, so the
    returned basis is within ``budget`` of the candidate.
    Raises RepairExhaustedError when every attempt fails.
    """
    if budget <= 0:
        raise ValidationError("budget must be positive")
    floor = DEFAULT_FLOOR
    if min_commutator_norm(candidate.mat, stack, floor) > floor:
        return FamilyMember(index, candidate, Provenance(seed, 0, 0.0))
    attempts = 0
    radius = budget
    for _ in range(RADIUS_LEVELS):
        for _ in range(ATTEMPTS_PER_RADIUS):
            attempts += 1
            moved = random_nearby_basis(candidate, radius, rng)
            if min_commutator_norm(moved.mat, stack, floor) > floor:
                dist = basis_distance(candidate, moved)
                return FamilyMember(index, moved, Provenance(seed, attempts, dist))
        radius /= 2
    raise RepairExhaustedError(
        f"gave up after {attempts} attempts (budget {budget:g}, floor {floor:g}); "
        "the floor or the budget is too demanding"
    )


def generate_family(n: int, count: int, seed: int) -> BasisFamily:
    """Grow a family of ``count`` pairwise totally incompatible bases.

    Member m gets repair budget min(DEFAULT_NET_BOUND, 2**-m), so the
    sequence of raw pseudo-uniform draws is disturbed less and less as it
    grows; from m = 1075 on, where 2**-m underflows, it is the smallest
    positive float. Deterministic: the same seed reproduces the family bit for bit.
    """
    if n < 2:
        raise ValidationError("dimension must be at least 2")
    if count < 1:
        raise ValidationError("count must be at least 1")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    stack = np.empty((count, n, n), dtype=complex)
    members: list[FamilyMember] = []
    for m in range(1, count + 1):
        raw = haar_basis(n, rng)
        budget = max(min(DEFAULT_NET_BOUND, 2.0 ** (-m)), math.ulp(0.0))
        member = repair_member(raw, stack[:m - 1], budget, rng, index=m, seed=seed)
        stack[m - 1] = member.basis.mat
        members.append(member)
    return BasisFamily(dim=n, net_bound=float(DEFAULT_NET_BOUND), floor=float(DEFAULT_FLOOR),
                       seed=int(seed), members=tuple(members))


def nearest_member(family: BasisFamily, target: OrthonormalBasis):
    """Index and distance of the family member closest to ``target``.

    The metric is ``basis_distance``, which respects vector order.
    """
    if not family.members:
        raise ValidationError("family has no members")
    require_same_dim(family.members[0].basis.mat, target.mat)
    # one stacked product: the same U as basis_distance, bit for bit
    u = target.mat @ family.stack.conj().swapaxes(1, 2)
    dists = spectral_norms(np.eye(family.dim) - u)
    best = int(np.argmin(dists))
    return family.members[best].index, float(dists[best])
