"""Exact rational positive-operator resolutions and the phase-tag registry.

Floating targets are snapped onto resolutions whose members are Hermitian
matrices with complex rational entries, all nonzero, positive by exact
certificate, and summing to the identity exactly. Registered resolutions
are conjugated by a phase tag diag(e^{i theta_m}, 1, ..., 1) with
sin(theta_m) = (pi/4)**m, one fresh index m per registration, which keeps
any two registered resolutions from sharing a member.

Everything on the rational side uses fractions.Fraction and is exact;
numpy enters only when a rational operator is projected down to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    PrecisionError,
    RegistryCollisionError,
    ValidationError,
    WeightNormalizationError,
)
from .opcore import (
    ALGEBRA_TOL,
    SPECTRAL_TOL,
    as_operator,
    check_density,
    dagger,
    is_hermitian,
    operator_norm,
    read_json,
    require_same_dim,
    spectral_norms,
    validate_resolution,
    write_json,
)

DEFAULT_DENOMINATOR_CAP = 2**32
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
    "sample_povm_outcome",
    "sample_povm_outcomes",
]

# ---------------------------------------------------------------------------
# complex rationals as (re, im) Fraction pairs

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _qc(re=0, im=0):
    return (Fraction(re), Fraction(im))


def _qc_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _qc_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _qc_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qc_div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    if d == 0:
        raise ZeroDivisionError("division by zero complex rational")
    return ((x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d)


def _qc_conj(x):
    return (x[0], -x[1])


def _qc_neg(x):
    return (-x[0], -x[1])


def _qc_is_zero(x):
    return x[0] == 0 and x[1] == 0


def _det_exact(rows):
    """Exact determinant of a small complex rational matrix (list of row lists)."""
    m = len(rows)
    rows = [list(r) for r in rows]
    det = _qc(1)
    for col in range(m):
        piv = next((r for r in range(col, m) if not _qc_is_zero(rows[r][col])), None)
        if piv is None:
            return _qc(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = _qc_neg(det)
        pivot = rows[col][col]
        det = _qc_mul(det, pivot)
        for r in range(col + 1, m):
            f = _qc_div(rows[r][col], pivot)
            if _qc_is_zero(f):
                continue
            rows[r] = [_qc_sub(rows[r][c], _qc_mul(f, rows[col][c])) for c in range(m)]
    return det


class RationalOperator:
    """Immutable square matrix over the complex rationals, exact arithmetic."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple((Fraction(e[0]), Fraction(e[1])) for e in row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValidationError("rational operator must be square and nonempty")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RationalOperator is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n):
        return cls(tuple(tuple(_qc(0) for _ in range(n)) for _ in range(n)))

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(_qc(1 if a == b else 0) for b in range(n)) for a in range(n)))

    @classmethod
    def from_float(cls, mat, max_denominator=DEFAULT_DENOMINATOR_CAP):
        """Entrywise best rational approximation with bounded denominators."""
        m = as_operator(mat)
        return cls(
            tuple(
                tuple(
                    (
                        Fraction(float(m[a, b].real)).limit_denominator(max_denominator),
                        Fraction(float(m[a, b].imag)).limit_denominator(max_denominator),
                    )
                    for b in range(m.shape[0])
                )
                for a in range(m.shape[0])
            )
        )

    # -- arithmetic --------------------------------------------------------

    def _require_same(self, other):
        if not isinstance(other, RationalOperator) or other.n != self.n:
            raise ValidationError("rational operator dimension mismatch")

    def __add__(self, other):
        self._require_same(other)
        return RationalOperator(
            tuple(
                tuple(_qc_add(self.rows[a][b], other.rows[a][b]) for b in range(self.n))
                for a in range(self.n)
            )
        )

    def __sub__(self, other):
        self._require_same(other)
        return RationalOperator(
            tuple(
                tuple(_qc_sub(self.rows[a][b], other.rows[a][b]) for b in range(self.n))
                for a in range(self.n)
            )
        )

    def __matmul__(self, other):
        self._require_same(other)
        n = self.n
        out = []
        for a in range(n):
            row = []
            for b in range(n):
                acc = _qc(0)
                for c in range(n):
                    acc = _qc_add(acc, _qc_mul(self.rows[a][c], other.rows[c][b]))
                row.append(acc)
            out.append(tuple(row))
        return RationalOperator(tuple(out))

    def scale(self, factor):
        f = (Fraction(factor), _ZERO)
        return RationalOperator(
            tuple(tuple(_qc_mul(f, e) for e in row) for row in self.rows)
        )

    def dagger(self):
        return RationalOperator(
            tuple(tuple(_qc_conj(self.rows[b][a]) for b in range(self.n)) for a in range(self.n))
        )

    def __eq__(self, other):
        return isinstance(other, RationalOperator) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    # -- queries -----------------------------------------------------------

    def entry(self, a, b):
        return self.rows[a][b]

    def is_hermitian(self) -> bool:
        for a in range(self.n):
            for b in range(a, self.n):
                if self.rows[a][b] != _qc_conj(self.rows[b][a]):
                    return False
        return True

    def all_entries_nonzero(self) -> bool:
        return all(not _qc_is_zero(e) for row in self.rows for e in row)

    def principal_minor(self, indices) -> Fraction:
        """det of the principal submatrix on ``indices``; exact, real for Hermitian input."""
        idx = tuple(indices)
        sub = [[self.rows[a][b] for b in idx] for a in idx]
        det = _det_exact(sub)
        if det[1] != 0:
            raise ValidationError("principal minor has nonzero imaginary part; operator not Hermitian")
        return det[0]

    def leading_principal_minors(self):
        return tuple(self.principal_minor(range(k)) for k in range(1, self.n + 1))

    def is_positive_definite(self) -> bool:
        if not self.is_hermitian():
            return False
        return all(m > 0 for m in self.leading_principal_minors())

    def is_positive_semidefinite(self) -> bool:
        """Exact PSD certificate: every principal minor is nonnegative."""
        if not self.is_hermitian():
            return False
        if self.is_positive_definite():
            return True
        for size in range(1, self.n + 1):
            for idx in combinations(range(self.n), size):
                if self.principal_minor(idx) < 0:
                    return False
        return True

    def to_complex(self) -> np.ndarray:
        return np.array(
            [[float(e[0]) + 1j * float(e[1]) for e in row] for row in self.rows], dtype=complex
        )

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
            entries = obj["entries"]
            rows = tuple(
                tuple(
                    (
                        Fraction(int(e["re"]["num"]), int(e["re"]["den"])),
                        Fraction(int(e["im"]["num"]), int(e["im"]["den"])),
                    )
                    for e in row
                )
                for row in entries
            )
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValidationError(f"malformed rational operator: {exc}") from exc
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError("rational operator entries do not match dim")
        return cls(rows)


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
    # I + J/(2n): positive definite, every entry nonzero, spectral norm 3/2.
    off = Fraction(1, 2 * n)
    return RationalOperator(
        tuple(tuple(_qc(off + 1 if a == b else off) for b in range(n)) for a in range(n))
    )


def rationalize_po(target, delta: float, max_denominator: int = DEFAULT_DENOMINATOR_CAP) -> RationalOperator:
    """Snap one positive operator onto an admissible rational operator within ``delta``.

    When the float entries already form an admissible rational matrix the
    exact conversion is returned unchanged. Otherwise the operator is
    factored as X*X, X is rounded entrywise to bounded-denominator
    rationals, and a shrinking positive multiple of a fixed all-nonzero
    positive bump is added until every entry is nonzero. Each entry is
    affine in the bump weight with a nonzero coefficient, so at most n**2
    weights can zero an entry and n**2 + 1 candidates always suffice.

    Raises PrecisionError when the achieved distance is not below delta,
    which happens once delta undercuts the denominator cap's resolution.
    """
    mat = as_operator(target)
    n = mat.shape[0]
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if not is_hermitian(mat, tol=1e-9):
        raise ValidationError("target must be Hermitian within 1e-9")
    eigs = np.linalg.eigvalsh((mat + dagger(mat)) / 2)
    if eigs.min() < -1e-8:
        raise ValidationError("target must be positive within tolerance")

    exact = RationalOperator.from_float(mat, max_denominator)
    if np.array_equal(exact.to_complex(), mat) and is_admissible(exact):
        return exact

    w, v = np.linalg.eigh((mat + dagger(mat)) / 2)
    w = np.clip(w, 0.0, None)
    factor = (np.sqrt(w)[:, None]) * dagger(v)
    rounded = RationalOperator.from_float(factor, max_denominator)
    base = rounded.dagger() @ rounded
    bump = _positive_bump(n)
    bump_norm = operator_norm(bump.to_complex())
    weight0 = Fraction(delta / (4 * bump_norm)).limit_denominator(max_denominator)
    if weight0 <= 0:
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
            "raise delta or the denominator cap"
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


def snap_resolution(targets, eps: float, max_denominator: int = DEFAULT_DENOMINATOR_CAP,
                    return_diagnostics: bool = False):
    """Snap a floating positive-operator resolution onto an exact rational one.

    Parameters
    ----------
    targets : sequence of (n, n) arrays
        Positive operators summing to the identity within float tolerance.
    eps : float
        Strict bound on max_i |target_i - member_i| in spectral norm.

    The recipe: pick a rational bound r in (0, eps), set delta = r/(5+k),
    rationalize each target within delta, and blend the deviation of the
    rational sum H from the identity back into the members with positive
    rational weights t_i that sum to one exactly. The weights start at 1/k
    and are perturbed along a fixed direction of distinct integers with
    zero sum; the perturbation is rescaled through at most k*n**2 + 2
    candidates until every entry of every member is nonzero.

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
    delta = bound / (5 + k)

    primed = [rationalize_po(m, float(delta), max_denominator) for m in mats]
    total = primed[0]
    for p in primed[1:]:
        total = total + p
    scale = _ONE + k * delta
    gap = RationalOperator.identity(n).scale(scale) - total

    coeffs = _mixing_coefficients(k)
    step0 = Fraction(1, k**4)
    members = None
    weights = None
    for attempt in range(k * n * n + 2):
        step = step0 / (attempt + 1)
        ts = [Fraction(1, k) + c * step for c in coeffs]
        cand = [(primed[i] + gap.scale(ts[i])).scale(1 / scale) for i in range(k)]
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
    gap_ok = hermitian_norm_at_most(total - RationalOperator.identity(n), k * delta)
    if not gap_ok:
        raise PrecisionError("rationalized sum strayed farther from the identity than k*delta")

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


# relative slack on Frobenius prefilters, far above their roundoff, so a
# prefilter never drops a member that the exact SVD would keep
_FRO_SLACK = 1e-12


def _stacked_members(entries, n: int):
    """Float members of ``entries`` as one (M, n, n) stack, with each member's registry index."""
    stack = np.array([m for e in entries for m in e.members], dtype=complex).reshape(-1, n, n)
    owners = np.array([e.index for e in entries for _ in e.members], dtype=np.int64)
    return stack, owners


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a (..., n, n) stack."""
    return np.sqrt(np.einsum("...ij,...ij->...", stack, stack.conj()).real)


class ResolutionRegistry:
    """Registered tagged resolutions with strictly distinct indices.

    Every registration consumes the smallest unused index m whose tag
    displacement bound 4*(pi/4)**m fits the remaining precision budget.
    A numeric guard rejects registrations whose members come within
    1e-9 of an existing member of another resolution; with exact bases
    and distinct indices that would signal an arithmetic bug.

    Lookup and the guard each make one vectorised pass over the stacked
    float members of ``entries``. Since |X|_F / sqrt(n) <= |X| <= |X|_F,
    one batched Frobenius table rules out every entry whose lower bound
    already misses, and a single batched SVD decides the few survivors.
    """

    def __init__(self, dim: int):
        if dim < 2:
            raise ValidationError("registry dimension must be at least 2")
        self.dim = dim
        self.entries: list[TaggedResolution] = []
        self._used: set[int] = set()

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
        self.entries.append(tagged)
        self._used.add(m)
        return tagged

    def _check_disjoint(self, tagged: TaggedResolution) -> None:
        old, owners = _stacked_members(self.entries, self.dim)
        diff = np.array(tagged.members)[:, None] - old[None]
        near = _frobenius(diff) <= DISJOINTNESS_FLOOR * math.sqrt(self.dim) * (1 + _FRO_SLACK)
        for i, j in np.argwhere(near):
            if operator_norm(diff[i, j]) <= DISJOINTNESS_FLOOR:
                raise RegistryCollisionError(
                    f"member of new registration coincides with one of index {owners[j]}"
                )

    def candidates_within(self, targets, eps: float) -> list[TaggedResolution]:
        """Registered resolutions whose members match ``targets`` indexwise within eps."""
        mats = [as_operator(t) for t in targets]
        n = require_same_dim(*mats)
        pool = [e for e in self.entries if e.k == len(mats) and e.dim == n]
        diff = np.array(mats) - _stacked_members(pool, n)[0].reshape(len(pool), len(mats), n, n)
        # an entry with a member whose lower bound fro/sqrt(n) reaches eps is out
        near = np.flatnonzero(_frobenius(diff).max(axis=1) < eps * math.sqrt(n) * (1 + _FRO_SLACK))
        if not near.size:
            return []
        dist = spectral_norms(diff[near]).max(axis=1)
        return [pool[i] for i in near[dist < eps]]

    def min_cross_member_distance(self) -> float:
        """Smallest spectral distance between members of distinct resolutions."""
        stack, owners = _stacked_members(self.entries, self.dim)
        if len(stack) < 2:
            return float("inf")
        flat = stack.reshape(len(stack), -1)
        sq = np.einsum("ij,ij->i", flat, flat.conj()).real
        gram = (flat @ flat.conj().T).real
        dist2 = np.clip(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0, None)
        fro = np.sqrt(dist2)
        cross = owners[:, None] != owners[None, :]
        upper = np.arange(len(flat))[:, None] < np.arange(len(flat))[None, :]
        pairs = np.argwhere(cross & upper)
        order = np.argsort(fro[pairs[:, 0], pairs[:, 1]])
        best = float("inf")
        sqrt_n = math.sqrt(self.dim)
        # the spectral norm sits in [fro/sqrt(n), fro]; walking pairs by
        # Frobenius distance lets the scan stop as soon as no pair can win
        for a, b in pairs[order]:
            if fro[a, b] >= best * sqrt_n:
                break
            spec = operator_norm(stack[a] - stack[b])
            best = min(best, spec)
        return best

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
                reg.entries.append(tagged)
                reg._used.add(tagged.index)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed registry object: {exc}") from exc
        return reg

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @classmethod
    def load(cls, path) -> "ResolutionRegistry":
        return cls.from_json(read_json(path))


def _povm_weights(density, members) -> np.ndarray:
    d = check_density(density)
    w = np.array([float(np.trace(d @ m).real) for m in members])
    if w.min() < -ALGEBRA_TOL:
        raise WeightNormalizationError(f"outcome weight {w.min():.3e} is negative beyond tolerance")
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if abs(total - 1.0) > SPECTRAL_TOL:
        raise WeightNormalizationError(f"outcome weights sum to {total!r}, expected 1")
    return w / total


def sample_povm_outcomes(density, tagged: TaggedResolution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` outcome indices with probabilities Tr(D member_i)."""
    w = _povm_weights(density, tagged.members)
    cum = np.cumsum(w)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right").astype(np.int64)


def sample_povm_outcome(density, tagged: TaggedResolution, rng: np.random.Generator) -> int:
    return int(sample_povm_outcomes(density, tagged, rng, 1)[0])
