"""Exact rational positive-operator resolutions and the phase-tag registry.

Floating targets are snapped onto resolutions whose members are Hermitian
matrices with complex rational entries, all nonzero, positive by exact
certificate, and summing to the identity exactly. Registered resolutions
are conjugated by a phase tag diag(e^{i theta_m}, 1, ..., 1) with
sin(theta_m) = (pi/4)**m, one fresh index m per registration, which keeps
any two registered resolutions from sharing a member.

The rational side is exact: a RationalOperator is a pair of integer
matrices (real and imaginary numerators, Python integers that never wrap)
over one shared denominator kept in lowest terms. Snapping rounds onto a
power-of-two grid, so sums and products keep small denominators. numpy
enters the float side only when a rational operator is projected down to
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    PrecisionError,
    RegistryCollisionError,
    ValidationError,
)
from .opcore import (
    as_operator,
    check_density,
    dagger,
    draw_indices,
    is_hermitian,
    normalized_weights,
    operator_norm,
    read_json,
    require_same_dim,
    spectral_distances,
    validate_resolution,
    write_json,
)

DEFAULT_DENOMINATOR_CAP = 2**32
_CAP_BITS = DEFAULT_DENOMINATOR_CAP.bit_length() - 1
DISJOINTNESS_FLOOR = 1e-9

__all__ = [
    "DEFAULT_DENOMINATOR_CAP",
    "DISJOINTNESS_FLOOR",
    "RationalOperator",
    "RationalResolution",
    "SnapDiagnostics",
    "TaggedResolution",
    "ResolutionRegistry",
    "is_admissible",
    "hermitian_norm_at_most",
    "rationalize_po",
    "snap_resolution",
    "phase_tag",
    "sample_povm_outcomes",
]

_to_int = np.frompyfunc(int, 1, 1)


class RationalOperator:
    """Immutable square matrix (re + i im) / den over the complex rationals.

    ``re`` and ``im`` are read-only object arrays of Python integers and
    ``den`` is a positive integer sharing no factor with all of them, so
    every operator has one canonical form however it was computed.
    """

    __slots__ = ("n", "re", "im", "den")

    def __init__(self, re, im, den=1):
        re = np.array(re, dtype=object)
        im = np.array(im, dtype=object)
        n = len(re)
        if n == 0 or re.shape != (n, n) or im.shape != (n, n):
            raise ValidationError("rational operator must be square and nonempty")
        if den <= 0:
            raise ValidationError("rational operator denominator must be positive")
        g = math.gcd(den, *re.flat, *im.flat)
        if g != 1:
            re, im, den = re // g, im // g, den // g
        re.setflags(write=False)
        im.setflags(write=False)
        for name, value in (("n", n), ("re", re), ("im", im), ("den", den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RationalOperator is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n):
        return cls(np.zeros((n, n), dtype=object), np.zeros((n, n), dtype=object))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n, dtype=object), np.zeros((n, n), dtype=object))

    @classmethod
    def from_float(cls, mat):
        """Round every entry to the nearest multiple of 1 / DEFAULT_DENOMINATOR_CAP.

        Floats already on that grid convert exactly; every other entry moves
        by at most half a grid step in its real and in its imaginary part.
        """
        m = as_operator(mat)
        if not np.isfinite(m).all():
            raise ValidationError("cannot rationalize a non-finite entry")
        return cls._on_grid(m, _CAP_BITS)

    @classmethod
    def _on_grid(cls, mat, bits):
        scale = 2.0**bits
        return cls(_to_int(np.rint(mat.real * scale)), _to_int(np.rint(mat.imag * scale)),
                   2**bits)

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, RationalOperator) or other.n != self.n:
            raise ValidationError("rational operator dimension mismatch")

    def _add(self, other, sign):
        self._require_same(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return RationalOperator(a * self.re + b * other.re, a * self.im + b * other.im, den)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __matmul__(self, other):
        self._require_same(other)
        return RationalOperator(self.re @ other.re - self.im @ other.im,
                                self.re @ other.im + self.im @ other.re, self.den * other.den)

    def scale(self, factor):
        f = Fraction(factor)
        return RationalOperator(f.numerator * self.re, f.numerator * self.im,
                                f.denominator * self.den)

    def dagger(self):
        return RationalOperator(self.re.T, -self.im.T, self.den)

    def __eq__(self, other):
        return (isinstance(other, RationalOperator) and self.den == other.den
                and np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im))

    def __hash__(self):
        return hash((self.n, self.den, tuple(self.re.flat), tuple(self.im.flat)))

    # -- queries -----------------------------------------------------------

    @property
    def rows(self):
        """Rows of (re, im) Fraction pairs."""
        return tuple(
            tuple((Fraction(a, self.den), Fraction(b, self.den)) for a, b in zip(ra, rb))
            for ra, rb in zip(self.re, self.im)
        )

    def entry(self, a, b):
        return Fraction(self.re[a, b], self.den), Fraction(self.im[a, b], self.den)

    def is_hermitian(self) -> bool:
        return np.array_equal(self.re, self.re.T) and np.array_equal(self.im, -self.im.T)

    def all_entries_nonzero(self) -> bool:
        return bool(((self.re != 0) | (self.im != 0)).all())

    def _certificate(self) -> bool:
        """Positive semidefiniteness of a Hermitian operator.

        Pivoted fraction-free symmetric elimination (Bareiss) on the integer
        embedding [[A, -B], [B, A]] of den * (A + iB), which carries every
        eigenvalue of the operator twice. The pivot is the largest remaining
        diagonal entry; every entry stays an integer minor. A negative
        diagonal refutes, and a zero largest diagonal requires the whole
        remaining block to vanish.
        """
        m = np.block([[self.re, -self.im], [self.im, self.re]])
        prev = 1
        while len(m):
            diag = m.diagonal()
            p = int(np.argmax(diag))
            if diag.min() < 0:
                return False
            if diag[p] == 0:
                return not (m != 0).any()
            keep = np.arange(len(m)) != p
            col = m[keep, p]
            m = (diag[p] * m[np.ix_(keep, keep)] - np.outer(col, col)) // prev
            prev = diag[p]
        return True

    def is_positive_semidefinite(self) -> bool:
        """Exact PSD certificate by pivoted fraction-free elimination."""
        return self.is_hermitian() and self._certificate()

    def to_complex(self) -> np.ndarray:
        # int / int is correctly rounded however large the integers grow
        out = (self.re / self.den).astype(complex)
        out.imag = (self.im / self.den).astype(float)
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        def rat(q):
            return {"num": q.numerator, "den": q.denominator}

        return {
            "dim": self.n,
            "entries": [[{"re": rat(e[0]), "im": rat(e[1])} for e in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj) -> "RationalOperator":
        try:
            n = int(obj["dim"])
            rows = tuple(
                tuple(
                    (
                        Fraction(int(e["re"]["num"]), int(e["re"]["den"])),
                        Fraction(int(e["im"]["num"]), int(e["im"]["den"])),
                    )
                    for e in row
                )
                for row in obj["entries"]
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational operator: {exc}") from exc
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError("rational operator entries do not match dim")
        den = math.lcm(*(q.denominator for row in rows for e in row for q in e))
        return cls([[int(e[0] * den) for e in row] for row in rows],
                   [[int(e[1] * den) for e in row] for row in rows], den)


def is_admissible(op: RationalOperator) -> bool:
    """Membership in the snapping target set: exactly Hermitian, exactly
    positive semidefinite, and with every matrix entry nonzero."""
    return op.is_hermitian() and op.all_entries_nonzero() and op.is_positive_semidefinite()


def hermitian_norm_at_most(op: RationalOperator, bound: Fraction) -> bool:
    """Exact check that a Hermitian rational operator has |M| <= bound.

    Certified through positivity of bound*I - M and bound*I + M.
    """
    if not op.is_hermitian():
        raise ValidationError("norm bound check requires a Hermitian operator")
    b = RationalOperator.identity(op.n).scale(Fraction(bound))
    return (b - op).is_positive_semidefinite() and (b + op).is_positive_semidefinite()


@dataclass(frozen=True)
class RationalResolution:
    """Admissible rational operators summing to the identity exactly."""

    members: tuple[RationalOperator, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if len(members) < 2:
            raise ValidationError("a resolution needs at least two members")
        n = members[0].n
        if any(m.n != n for m in members):
            raise ValidationError("resolution members have mixed dimensions")
        for i, m in enumerate(members):
            if not is_admissible(m):
                raise ValidationError(f"member {i} is not admissible (Hermitian, PSD, entries nonzero)")
        total = members[0]
        for m in members[1:]:
            total = total + m
        if total != RationalOperator.identity(n):
            raise ValidationError("members do not sum exactly to the identity")
        object.__setattr__(self, "members", members)

    @property
    def dim(self) -> int:
        return self.members[0].n

    @property
    def k(self) -> int:
        return len(self.members)

    def to_complex(self):
        return tuple(m.to_complex() for m in self.members)

    def to_json(self) -> dict:
        return {"dim": self.dim, "k": self.k, "members": [m.to_json() for m in self.members]}

    @classmethod
    def from_json(cls, obj) -> "RationalResolution":
        try:
            members = tuple(RationalOperator.from_json(m) for m in obj["members"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed rational resolution: {exc}") from exc
        return cls(members)


def _positive_bump(n: int) -> RationalOperator:
    # I + J/2**c with 2**c >= 2n: positive definite, every entry nonzero,
    # spectral norm 1 + n/2**c <= 3/2, and a power-of-two denominator
    c = (2 * n - 1).bit_length()
    return RationalOperator(np.eye(n, dtype=object) * 2**c + 1, np.zeros((n, n), dtype=object),
                            2**c)


def rationalize_po(target, delta: float) -> RationalOperator:
    """Snap one positive operator onto an admissible rational operator within ``delta``.

    When the float entries already form an admissible rational matrix the
    exact conversion is returned unchanged. Otherwise the operator is
    factored as X*X, X is rounded entrywise onto the grid of multiples of
    2**-b, and a shrinking power-of-two multiple of a fixed all-nonzero
    positive bump is added until every entry is nonzero, so the result has
    a power-of-two denominator. b is the smallest grid that keeps the
    rounding's effect on X*X below delta/2, but 2**b never exceeds
    DEFAULT_DENOMINATOR_CAP. Each entry is affine in the bump weight with a
    nonzero coefficient, so at most n**2 weights can zero an entry and
    n**2 + 1 candidates always suffice.

    Raises PrecisionError when the achieved distance is not below delta,
    which happens once delta undercuts the denominator cap's resolution.
    """
    mat = as_operator(target)
    n = mat.shape[0]
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if not is_hermitian(mat, tol=1e-9):
        raise ValidationError("target must be Hermitian within 1e-9")
    w, v = np.linalg.eigh((mat + dagger(mat)) / 2)
    if w.min() < -1e-8:
        raise ValidationError("target must be positive within tolerance")

    exact = RationalOperator.from_float(mat)
    if np.array_equal(exact.to_complex(), mat) and is_admissible(exact):
        return exact

    w = np.clip(w, 0.0, None)
    factor = (np.sqrt(w)[:, None]) * dagger(v)
    # rounding moves X by |E| <= n 2**-b / sqrt(2) and X*X by at most
    # |E| (2|X| + |E|), which this grid keeps below delta / (2 sqrt(2))
    norm_x = math.sqrt(w.max())
    bits = math.ceil(math.log2(4 * n * (norm_x + 1) / delta))
    rounded = RationalOperator._on_grid(factor, max(0, min(bits, _CAP_BITS)))
    base = rounded.dagger() @ rounded
    bump = _positive_bump(n)
    # the largest power of two whose bump, of norm <= 3/2, moves by <= delta/4
    weight0 = Fraction(2) ** -math.ceil(math.log2(6 / delta))
    if weight0.denominator > DEFAULT_DENOMINATOR_CAP:
        raise PrecisionError("delta is below the resolution of the denominator cap")
    out = None
    for j in range(n * n + 1):
        cand = base + bump.scale(weight0 / (2**j))
        if cand.all_entries_nonzero():
            out = cand
            break
    if out is None:
        raise PrecisionError("could not clear zero entries within the candidate budget")
    achieved = operator_norm(mat - out.to_complex())
    if not achieved < delta:
        raise PrecisionError(
            f"achieved distance {achieved:.3e} does not beat delta {delta:.3e}; "
            "raise delta"
        )
    return out


def _mixing_coefficients(k: int):
    # distinct nonzero integers with zero sum; magnitudes at most k(k-1)/2
    return list(range(1, k)) + [-k * (k - 1) // 2]


@dataclass(frozen=True)
class SnapDiagnostics:
    """Intermediate quantities of one snap, for audits."""

    rational_bound: Fraction
    per_member_delta: Fraction
    mix_weights: tuple[Fraction, ...]
    max_member_shift: float
    sum_gap_within_bound: bool


def snap_resolution(targets, eps: float, return_diagnostics: bool = False):
    """Snap a floating positive-operator resolution onto an exact rational one.

    Parameters
    ----------
    targets : sequence of (n, n) arrays
        Positive operators summing to the identity within float tolerance.
    eps : float
        Strict bound on max_i |target_i - member_i| in spectral norm.

    The recipe: pick a rational bound r in (0, eps), set
    delta = min(r/(2+2k), 1/(4k)), and let u be the smallest power of two
    >= k*delta, so u < 2k*delta and u <= 1/4. Rationalize each shrunk
    target (1-u) T_i within delta to A_i and let H = sum A_i; an exact check
    confirms |H - (1-u) I| <= k*delta, so the gap I - H lies between
    (u - k*delta) I >= 0 and 3k*delta I. The members are
    M_i = A_i + t_i (I - H) for positive rational weights t_i that sum to
    one exactly: they sum to I, and every factor but t_i is dyadic, so the
    members' denominators have no odd factor beyond the weights'. The weights start at 1/k and
    are perturbed along a fixed direction of distinct integers with zero
    sum; the perturbation is rescaled through at most k*n**2 + 2 candidates
    until every entry of every member is nonzero.

    Per member, M_i - T_i = (A_i - (1-u) T_i) + (t_i (I - H) - u T_i). The
    first term is below delta. The second is a difference of two positive
    operators, so its norm is at most the larger of theirs: the weights
    keep k*t_i <= 1 + 1/8, so t_i |I - H| < 3.375 delta, and u |T_i| <
    2k*delta. For k >= 2, |M_i - T_i| < (1 + 2k) delta < r < eps.

    Returns the RationalResolution, plus a SnapDiagnostics when asked.
    """
    mats = [as_operator(t) for t in targets]
    k = len(mats)
    if k < 2:
        raise ValidationError("need at least two targets")
    n = require_same_dim(*mats)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if not validate_resolution(mats):
        raise ValidationError("targets are not a positive-operator resolution of the identity")

    bound = Fraction(eps).limit_denominator(10**6) * Fraction(3, 4)
    while not (0 < bound and float(bound) < eps):
        bound /= 2
        if bound < Fraction(1, 10**18):
            raise PrecisionError("eps too small to bracket with a rational bound")
    delta = min(bound / (2 + 2 * k), Fraction(1, 4 * k))
    reach = k * delta
    shrink = 1 - Fraction(1, 2 ** ((reach.denominator // reach.numerator).bit_length() - 1))

    primed = [rationalize_po(float(shrink) * m, float(delta)) for m in mats]
    total = primed[0]
    for p in primed[1:]:
        total = total + p
    ident = RationalOperator.identity(n)
    gap_ok = hermitian_norm_at_most(total - ident.scale(shrink), reach)
    if not gap_ok:
        raise PrecisionError("rationalized sum strayed farther from (1-u) I than k*delta")
    gap = ident - total

    coeffs = _mixing_coefficients(k)
    step0 = Fraction(1, k**4)
    members = None
    weights = None
    for attempt in range(k * n * n + 2):
        step = step0 / (attempt + 1)
        ts = [Fraction(1, k) + c * step for c in coeffs]
        cand = [primed[i] + gap.scale(ts[i]) for i in range(k)]
        if all(c.all_entries_nonzero() for c in cand):
            members = cand
            weights = ts
            break
    if members is None:
        raise PrecisionError("could not clear zero entries across the weight candidates")

    resolution = RationalResolution(tuple(members))

    shifts = [operator_norm(mats[i] - members[i].to_complex()) for i in range(k)]
    max_shift = float(max(shifts))
    if not max_shift < eps:
        raise PrecisionError(f"snap moved a member by {max_shift:.3e}, not below eps {eps:.3e}")

    if return_diagnostics:
        return resolution, SnapDiagnostics(
            rational_bound=bound,
            per_member_delta=delta,
            mix_weights=tuple(weights),
            max_member_shift=max_shift,
            sum_gap_within_bound=gap_ok,
        )
    return resolution


@dataclass(frozen=True, eq=False)
class TaggedResolution:
    """A rational resolution conjugated by the phase tag of registry index m.

    Identity is the (base, index) pair; the floating members are derived
    data, regenerable from it.
    """

    index: int
    base: RationalResolution
    theta: float
    tag: np.ndarray
    members: tuple[np.ndarray, ...]

    def __eq__(self, other):
        return (
            isinstance(other, TaggedResolution)
            and self.index == other.index
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.index, self.base))

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def k(self) -> int:
        return self.base.k


def phase_tag(base: RationalResolution, index: int) -> TaggedResolution:
    """Conjugate a rational resolution by diag(e^{i theta}, 1, ..., 1).

    The angle satisfies sin(theta) = (pi/4)**index with the positive
    cosine root. Conjugation is unitary, so eigenvalues are preserved and
    the members still sum to the identity up to roundoff.
    """
    if index < 1:
        raise ValidationError("registry index must be a positive integer")
    s = (math.pi / 4.0) ** index
    if s == 0.0:
        raise PrecisionError(f"phase angle underflows at index {index}")
    theta = math.asin(s)
    n = base.dim
    tag = np.eye(n, dtype=complex)
    tag[0, 0] = complex(math.cos(theta), math.sin(theta))
    members = tuple(tag @ m.to_complex() @ dagger(tag) for m in base.members)
    for m in members:
        m.setflags(write=False)
    tag.setflags(write=False)
    return TaggedResolution(index=index, base=base, theta=theta, tag=tag, members=members)


class ResolutionRegistry:
    """Registered tagged resolutions with strictly distinct indices.

    Every registration consumes the smallest unused index m whose tag
    displacement bound 4*(pi/4)**m fits the remaining precision budget.
    A numeric guard rejects registrations whose members come within
    1e-9 of an existing member of another resolution; with exact bases
    and distinct indices that would signal an arithmetic bug.

    Lookup, the guard (over all pairs on load) and the cross-member floor each
    make one ``spectral_distances`` pass over the held (M, n, n) float member
    stack and its owners' indices, which ``register`` and ``from_json`` grow.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValidationError("registry dimension must be at least 2")
        self.dim = dim
        self.entries: list[TaggedResolution] = []
        self._used: set[int] = set()
        self._members, self._owners = np.empty((0, dim, dim), dtype=complex), np.empty(0, np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    def smallest_free_index(self, eps_remaining: float) -> int:
        if eps_remaining <= 0:
            raise ValidationError("precision budget must be positive")
        m = 1
        while 4.0 * (math.pi / 4.0) ** m > eps_remaining:
            m += 1
            if m > 20000:
                raise PrecisionError("precision budget drives the phase angle into underflow")
        while m in self._used:
            m += 1
        return m

    def register(self, base: RationalResolution, eps_remaining: float) -> TaggedResolution:
        if base.dim != self.dim:
            raise ValidationError("resolution dimension does not match the registry")
        m = self.smallest_free_index(eps_remaining)
        tagged = phase_tag(base, m)
        self._check_disjoint(tagged)
        self._append(tagged)
        return tagged

    def _append(self, tagged: TaggedResolution) -> None:
        self._members = np.concatenate([self._members, tagged.members])
        self._owners = np.append(self._owners, [tagged.index] * tagged.k)
        self.entries.append(tagged)
        self._used.add(tagged.index)

    def _check_disjoint(self, tagged: TaggedResolution) -> None:
        _, cols, dist = spectral_distances(tagged.members, self._members, DISJOINTNESS_FLOOR)
        for j in cols[dist <= DISJOINTNESS_FLOOR]:
            raise RegistryCollisionError("member of new registration coincides with one of "
                                         f"index {self._owners[j]}")

    def candidates_within(self, targets, eps: float) -> list[TaggedResolution]:
        """Registered resolutions whose members match ``targets`` indexwise within eps."""
        mats = [as_operator(t) for t in targets]
        n = require_same_dim(*mats)
        pool = [e for e in self.entries if e.k == len(mats) and e.dim == n]
        if not pool:
            return []
        ks = np.array([e.k for e in self.entries])
        held = self._members[np.repeat(ks == len(mats), ks)].reshape(len(pool), len(mats), n, n)
        _, cols, dist = spectral_distances(np.array(mats)[None], held, eps)
        return [pool[i] for i in cols[dist < eps]]

    def min_cross_member_distance(self) -> float:
        """Smallest spectral distance between members of distinct resolutions."""
        return float(spectral_distances(self._members, owners=self._owners)[2].min(initial=np.inf))

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "entries": [
                {"index": e.index, "theta": e.theta, "base": e.base.to_json()}
                for e in self.entries
            ],
        }

    @classmethod
    def from_json(cls, obj) -> "ResolutionRegistry":
        try:
            reg = cls(int(obj["dim"]))
            for entry in obj["entries"]:
                base = RationalResolution.from_json(entry["base"])
                if base.dim != reg.dim:
                    raise ValidationError("registry entry dimension does not match the registry")
                tagged = phase_tag(base, int(entry["index"]))
                if tagged.index in reg._used:
                    raise ValidationError(f"registry index {tagged.index} appears twice")
                reg._append(tagged)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed registry object: {exc}") from exc
        rows, cols, dist = spectral_distances(reg._members, None, DISJOINTNESS_FLOOR, reg._owners)
        for i, j in zip(rows[dist <= DISJOINTNESS_FLOOR], cols[dist <= DISJOINTNESS_FLOOR]):
            raise RegistryCollisionError(f"member of index {reg._owners[i]} coincides with one "
                                         f"of index {reg._owners[j]}")
        return reg

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "ResolutionRegistry":
        return cls.from_json(read_json(path))


def _povm_weights(density, members) -> np.ndarray:
    """Outcome weights Tr(D member_i) for a density that already passed check_density.

    ``members`` is one resolution, (k, n, n), or a stack of them, (m, k, n, n);
    ``normalized_weights`` decides which resolution, if any, fails.
    """
    return normalized_weights(np.trace(density @ np.asarray(members), axis1=-2, axis2=-1).real)


def sample_povm_outcomes(density, tagged: TaggedResolution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` outcome indices with probabilities Tr(D member_i)."""
    return draw_indices(_povm_weights(check_density(density), tagged.members), rng, size)
