"""Exact rational positive-operator resolutions and the phase-tag registry.

Floating targets are snapped onto resolutions whose members are Hermitian
matrices with complex rational entries, all nonzero, positive by exact
certificate, and summing to the identity exactly. Registered resolutions
are conjugated by a phase tag diag(e^{i theta_m}, 1, ..., 1) with
sin(theta_m) = (pi/4)**m, one fresh index m per registration, which keeps
any two registered resolutions from sharing a member.

The rational side is exact: a RationalOperator holds the real and the
imaginary numerators as row tuples of Python integers, which never wrap,
over one shared denominator kept in lowest terms. Positivity is certified
by one pivoted fraction-free elimination on the n x n Gaussian-integer
numerator matrix. Snapping rounds onto a power-of-two grid, so sums and
products keep small denominators. Floats enter only where a float matrix
is rounded onto the grid and where a rational operator is projected down
to floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    PrecisionError,
    RegistryCollisionError,
    ValidationError,
)
from .opcore import (
    JsonNode,
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


def _dot(xs, ys):
    return sum(map(operator.mul, xs, ys))


def _grid_scaled(mat, bits):
    """Real and imaginary parts of ``mat`` times 2**bits, all finite or ValidationError."""
    with np.errstate(over="ignore"):
        parts = mat.real * 2.0**bits, mat.imag * 2.0**bits
    if not all(np.isfinite(part).all() for part in parts):
        raise ValidationError(f"cannot rationalize an entry not finite on the 2**-{bits} grid")
    return parts


class RationalOperator:
    """Immutable square matrix (re + i im) / den over the complex rationals.

    ``re`` and ``im`` are row tuples of Python integers and ``den`` is a
    positive integer sharing no factor with all of them, so every operator
    has one canonical form however it was computed.
    """

    __slots__ = ("n", "re", "im", "den")

    def __init__(self, re, im, den=1):
        re = tuple([tuple(map(int, row)) for row in re])
        im = tuple([tuple(map(int, row)) for row in im])
        n = len(re)
        if len(im) != n or set(map(len, re + im)) != {n}:
            raise ValidationError("rational operator must be square and nonempty")
        if den <= 0:
            raise ValidationError("rational operator denominator must be positive")
        g = math.gcd(den, *map(math.gcd, *re, *im))
        if g != 1:
            re = tuple(tuple(x // g for x in row) for row in re)
            im = tuple(tuple(x // g for x in row) for row in im)
            den //= g
        for name, value in (("n", n), ("re", re), ("im", im), ("den", den)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RationalOperator is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n):
        return cls([[0] * n] * n, [[0] * n] * n)

    @classmethod
    @functools.cache
    def identity(cls, n):
        return cls([[int(a == b) for b in range(n)] for a in range(n)], [[0] * n] * n)

    @classmethod
    def from_float(cls, mat):
        """Round every entry to the nearest multiple of 1 / DEFAULT_DENOMINATOR_CAP.

        Floats already on that grid convert exactly; every other entry moves
        by at most half a grid step in its real and in its imaginary part.
        """
        return cls._on_grid(as_operator(mat), _CAP_BITS)

    @classmethod
    def _on_grid(cls, mat, bits):
        re, im = _grid_scaled(mat, bits)
        return cls(np.rint(re), np.rint(im), 2**bits)

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, RationalOperator) or other.n != self.n:
            raise ValidationError("rational operator dimension mismatch")

    def _add(self, other, sign):
        self._require_same(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)

        def combine(xs, ys):
            return [[a * x + b * y for x, y in zip(rx, ry)] for rx, ry in zip(xs, ys)]

        return RationalOperator(combine(self.re, other.re), combine(self.im, other.im), den)

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def __matmul__(self, other):
        self._require_same(other)
        cols = tuple(zip(zip(*other.re), zip(*other.im)))
        re = [[_dot(ar, cr) - _dot(ai, ci) for cr, ci in cols] for ar, ai in zip(self.re, self.im)]
        im = [[_dot(ar, ci) + _dot(ai, cr) for cr, ci in cols] for ar, ai in zip(self.re, self.im)]
        return RationalOperator(re, im, self.den * other.den)

    def scale(self, factor):
        f = Fraction(factor)
        a = f.numerator
        return RationalOperator([[a * x for x in row] for row in self.re],
                                [[a * x for x in row] for row in self.im], f.denominator * self.den)

    def dagger(self):
        return RationalOperator(zip(*self.re), ([-x for x in col] for col in zip(*self.im)),
                                self.den)

    def __eq__(self, other):
        return (isinstance(other, RationalOperator) and self.den == other.den
                and self.re == other.re and self.im == other.im)

    def __hash__(self):
        return hash((self.n, self.den, self.re, self.im))

    # -- queries -----------------------------------------------------------

    @property
    def rows(self):
        """Rows of (re, im) Fraction pairs."""
        return tuple(
            tuple((Fraction(a, self.den), Fraction(b, self.den)) for a, b in zip(ra, rb))
            for ra, rb in zip(self.re, self.im)
        )

    def entry(self, a, b):
        return Fraction(self.re[a][b], self.den), Fraction(self.im[a][b], self.den)

    def is_hermitian(self) -> bool:
        return (self.re == tuple(zip(*self.re))
                and all(x == -y for row, col in zip(self.im, zip(*self.im))
                        for x, y in zip(row, col)))

    def all_entries_nonzero(self) -> bool:
        return all(x or y for rx, ry in zip(self.re, self.im) for x, y in zip(rx, ry))

    def _certificate(self) -> bool:
        """Positive semidefiniteness of a Hermitian operator.

        Pivoted fraction-free symmetric elimination (Bareiss) on the n x n
        Gaussian-integer matrix M = re + i im = den (A + iB). Each step takes
        as pivot p the largest remaining diagonal entry d, which is real
        because M is Hermitian, drops row and column p, and updates the rest
        as M[i][j] <- (d M[i][j] - M[i][p] M[p][j]) / prev, where prev is the
        previous pivot (1 at the start).

        Why the division is exact: after pivots p_1..p_s, entry (i, j) equals
        the minor of the original M on rows {p_1..p_s, i} and columns
        {p_1..p_s, j}. This is Sylvester's determinant identity, the
        invariant of Bareiss' scheme, and the update above is that identity
        applied to the bordered minors. A minor of a Gaussian-integer matrix
        is a Gaussian integer, and prev is a principal minor of a Hermitian
        matrix, hence a real integer, so the real and the imaginary part of
        the numerator are each divisible by prev.

        Why it decides positivity: the remaining block is (d / prev) times
        the Schur complement of the pivot, so it stays Hermitian and is
        positive semidefinite exactly when the block before the step was,
        given d > 0. A negative diagonal entry refutes positivity, and when
        the largest diagonal entry is zero the block is positive
        semidefinite only if it vanishes. Only the upper triangle is
        computed; the lower one is its conjugate.
        """
        re = [list(row) for row in self.re]
        im = [list(row) for row in self.im]
        live = list(range(self.n))
        prev = 1
        while live:
            diag = [re[i][i] for i in live]
            if min(diag) < 0:
                return False
            d = max(diag)
            if d == 0:
                return not any(re[i][j] or im[i][j] for i in live for j in live)
            p = live.pop(diag.index(d))
            rp, ip = re[p], im[p]
            for x, i in enumerate(live):
                ri, ii = re[i], im[i]
                a, b = ri[p], ii[p]
                for j in live[x:]:
                    c, e = rp[j], ip[j]
                    ri[j] = r = (d * ri[j] - a * c + b * e) // prev
                    ii[j] = s = (d * ii[j] - a * e - b * c) // prev
                    re[j][i], im[j][i] = r, -s
            prev = d
        return True

    def is_positive_semidefinite(self) -> bool:
        """Exact PSD certificate by pivoted fraction-free elimination."""
        return self.is_hermitian() and self._certificate()

    def to_complex(self) -> np.ndarray:
        # int / int is correctly rounded however large the integers grow
        out = np.empty((self.n, self.n), dtype=complex)
        out.real = [[x / self.den for x in row] for row in self.re]
        out.imag = [[x / self.den for x in row] for row in self.im]
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
        node = JsonNode(obj, "rational operator")
        n = node["dim"].integer()
        # each row alternates the (num, den) of an entry's real part and of its imaginary part
        pairs = [[(q["num"].integer(), q["den"].integer()) for e in row.elements(n)
                  for q in (e["re"], e["im"])] for row in node["entries"].elements(n)]
        den = math.lcm(*(d for row in pairs for _, d in row))
        if not den:
            raise ValidationError(f"{node.path} has a zero denominator")
        parts = [[[num * (den // d) for num, d in row[part::2]] for row in pairs] for part in (0, 1)]
        return cls(*parts, den)


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
        if sum(members[1:], members[0]) != RationalOperator.identity(n):
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
        node = JsonNode(obj, "rational resolution")
        return cls(tuple(RationalOperator.from_json(m) for m in node["members"].elements()))


@functools.cache
def _positive_bump(n: int) -> RationalOperator:
    # I + J/2**c with 2**c >= 2n: positive definite, every entry nonzero,
    # spectral norm 1 + n/2**c <= 3/2, and a power-of-two denominator
    c = (2 * n - 1).bit_length()
    return RationalOperator([[2**c * (a == b) + 1 for b in range(n)] for a in range(n)],
                            [[0] * n] * n, 2**c)


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

    Raises ValidationError when an entry is too large to scale onto the
    DEFAULT_DENOMINATOR_CAP grid, and PrecisionError when the achieved
    distance is not below delta, which happens once delta undercuts the
    denominator cap's resolution.
    """
    mat = as_operator(target)
    n = mat.shape[0]
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if not is_hermitian(mat, tol=1e-9):
        raise ValidationError("target must be Hermitian within 1e-9")
    re, im = _grid_scaled(mat, _CAP_BITS)
    w, v = np.linalg.eigh((mat + dagger(mat)) / 2)
    if w.min() < -1e-8:
        raise ValidationError("target must be positive within tolerance")

    if np.array_equal(np.rint(re), re) and np.array_equal(np.rint(im), im):
        exact = RationalOperator.from_float(mat)
        if is_admissible(exact):
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
    for j in range(n * n + 1):
        out = base + bump.scale(weight0 / (2**j))
        if out.all_entries_nonzero():
            break
    else:
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
    require_same_dim(*mats)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    if not validate_resolution(mats):
        raise ValidationError("targets are not a positive-operator resolution of the identity")
    resolution, diagnostics = _snap(mats, eps)
    return (resolution, diagnostics) if return_diagnostics else resolution


def _snap(mats, eps: float) -> tuple[RationalResolution, SnapDiagnostics]:
    """``snap_resolution``'s recipe on targets already proved a resolution of k >= 2 members."""
    k, n = len(mats), len(mats[0])
    bound = Fraction(eps).limit_denominator(10**6) * Fraction(3, 4)
    while not (0 < bound and float(bound) < eps):
        bound /= 2
        if bound < Fraction(1, 10**18):
            raise PrecisionError("eps too small to bracket with a rational bound")
    delta = min(bound / (2 + 2 * k), Fraction(1, 4 * k))
    reach = k * delta
    shrink = 1 - Fraction(1, 2 ** ((reach.denominator // reach.numerator).bit_length() - 1))

    primed = [rationalize_po(float(shrink) * m, float(delta)) for m in mats]
    total = sum(primed[1:], primed[0])
    ident = RationalOperator.identity(n)
    gap_ok = hermitian_norm_at_most(total - ident.scale(shrink), reach)
    if not gap_ok:
        raise PrecisionError("rationalized sum strayed farther from (1-u) I than k*delta")
    gap = ident - total

    coeffs = _mixing_coefficients(k)
    step0 = Fraction(1, k**4)
    for attempt in range(k * n * n + 2):
        step = step0 / (attempt + 1)
        weights = [Fraction(1, k) + c * step for c in coeffs]
        members = [primed[i] + gap.scale(weights[i]) for i in range(k)]
        if all(c.all_entries_nonzero() for c in members):
            break
    else:
        raise PrecisionError("could not clear zero entries across the weight candidates")

    resolution = RationalResolution(tuple(members))

    shifts = [operator_norm(mats[i] - members[i].to_complex()) for i in range(k)]
    max_shift = float(max(shifts))
    if not max_shift < eps:
        raise PrecisionError(f"snap moved a member by {max_shift:.3e}, not below eps {eps:.3e}")

    return resolution, SnapDiagnostics(
        rational_bound=bound,
        per_member_delta=delta,
        mix_weights=tuple(weights),
        max_member_shift=max_shift,
        sum_gap_within_bound=gap_ok,
    )


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
    # (pi/4)**m is 0.0 from m = 3085 on; the cap keeps an index past 2**1024 from overflowing float()
    s = (math.pi / 4.0) ** min(index, 4096)
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
        if not 2 <= dim < 2**29:  # past 2**29 the (0, dim, dim) member stack has no numpy shape
            raise ValidationError("registry dimension must be from 2 to 2**29 - 1")
        self.dim = dim
        self.entries: list[TaggedResolution] = []
        self._used: set[int] = set()
        self._members, self._owners = np.empty((0, dim, dim), dtype=complex), np.empty(0, np.int64)
        self._sizes = np.empty(0, np.int64)

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
        self._sizes = np.append(self._sizes, tagged.k)
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
        if n != self.dim:
            return []
        same = self._sizes == len(mats)
        pool = np.flatnonzero(same)
        if not len(pool):
            return []
        held = self._members[np.repeat(same, self._sizes)].reshape(len(pool), len(mats), n, n)
        _, cols, dist = spectral_distances(np.array(mats)[None], held, eps)
        return [self.entries[i] for i in pool[cols[dist < eps]]]

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
        node = JsonNode(obj, "registry")
        reg = cls(node["dim"].integer())
        for entry in node["entries"].elements():
            base = RationalResolution.from_json(entry["base"])
            if base.dim != reg.dim:
                raise ValidationError("registry entry dimension does not match the registry")
            tagged = phase_tag(base, entry["index"].integer())
            if tagged.index in reg._used:
                raise ValidationError(f"registry index {tagged.index} appears twice")
            reg._append(tagged)
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
