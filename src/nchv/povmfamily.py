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
numerator matrix. A snap makes one float pass over the whole target stack
(one eigh, one grid rounding, batched distances) and then works on integer
rows over one power-of-two denominator, so sums keep small denominators
and only the final members become RationalOperators.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatchError,
    PrecisionError,
    RegistryCollisionError,
    ValidationError,
)
from .opcore import (
    SPECTRAL_TOL,
    JsonNode,
    as_operator,
    check_density,
    dagger,
    draw_indices,
    normalized_weights,
    read_json,
    require_same_dim,
    spectral_distances,
    spectral_norms,
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
    "rationalize_po",
    "snap_resolution",
    "phase_tag",
    "sample_povm_outcomes",
]


def _dot(xs, ys):
    return sum(map(operator.mul, xs, ys))


def _grid_scaled(mat, bits):
    """Real and imaginary parts of ``mat`` times 2**bits (an int, or ints broadcast over a stack),
    all finite or ValidationError."""
    with np.errstate(over="ignore"):
        parts = np.ldexp(mat.real, bits), np.ldexp(mat.imag, bits)
    if not all(np.isfinite(part).all() for part in parts):
        raise ValidationError(f"cannot rationalize an entry not finite on the 2**-{np.max(bits)} grid")
    return parts


def _int_rows(mat):
    """Row tuples of the Python integers nearest the entries of a finite float matrix."""
    return tuple(tuple(map(int, row)) for row in np.rint(mat).tolist())


def _to_complex(re, im, den) -> np.ndarray:
    # int / int is correctly rounded however large the integers grow, and whatever factor they share
    out = np.empty((len(re), len(re)), dtype=complex)
    out.real = [[x / den for x in row] for row in re]
    out.imag = [[x / den for x in row] for row in im]
    return out


def _hermitian(re, im) -> bool:
    return re == tuple(zip(*re)) and all(x == -y for row, col in zip(im, zip(*im))
                                         for x, y in zip(row, col))


def _nonzero(re, im) -> bool:
    return all(x or y for rx, ry in zip(re, im) for x, y in zip(rx, ry))


def _psd(re, im) -> bool:
    """Positive semidefiniteness of the Hermitian Gaussian-integer matrix re + i im.

    Pivoted fraction-free symmetric elimination (Bareiss) on M = re + i im,
    the numerator of an operator M / den, den > 0. Each step takes as pivot
    p the largest remaining diagonal entry d, real as M is Hermitian, drops
    row and column p, and updates the rest as M[i][j] <- (d M[i][j] -
    M[i][p] M[p][j]) / prev, where prev is the previous pivot (1 at first).

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
    re = [list(row) for row in re]
    im = [list(row) for row in im]
    live = list(range(len(re)))
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


def _norm_at_most(re, im, den, bound) -> bool:
    """|(re + i im) / den| <= bound = p / q for Hermitian integer rows and den > 0: ``_psd``
    of bound*I - M and of bound*I + M, each times the positive den * q."""
    bound = Fraction(bound)
    p, q = bound.numerator * den, bound.denominator
    return all(_psd([[p * (a == b) - sign * q * x for b, x in enumerate(row)] for a, row in enumerate(re)],
                    [[-sign * q * x for x in row] for row in im]) for sign in (1, -1))


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
    @functools.cache
    def identity(cls, n):
        return cls([[int(a == b) for b in range(n)] for a in range(n)], [[0] * n] * n)

    @classmethod
    def from_float(cls, mat):
        """Round every entry to the nearest multiple of 1 / DEFAULT_DENOMINATOR_CAP.

        Floats already on that grid convert exactly; every other entry moves
        by at most half a grid step in its real and in its imaginary part.
        """
        return cls(*map(_int_rows, _grid_scaled(as_operator(mat), _CAP_BITS)), 2**_CAP_BITS)

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

    def is_hermitian(self) -> bool:
        return _hermitian(self.re, self.im)

    def all_entries_nonzero(self) -> bool:
        return _nonzero(self.re, self.im)

    def is_positive_semidefinite(self) -> bool:
        """Exact PSD certificate by pivoted fraction-free elimination (``_psd``)."""
        return self.is_hermitian() and _psd(self.re, self.im)

    def to_complex(self) -> np.ndarray:
        return _to_complex(self.re, self.im, self.den)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        entries = [[{part: {"num": q.numerator, "den": q.denominator} for part, q in zip(("re", "im"), e)}
                    for e in row] for row in self.rows]
        return {"dim": self.n, "entries": entries}

    @classmethod
    def from_json(cls, obj) -> "RationalOperator":
        node = JsonNode(obj, "rational operator")
        n = node["dim"].integer()
        rows = node["entries"].value
        # per entry (re num, re den, im num, im den), read off the raw values with one type check;
        # only on a failure do the typed reads build key paths, so the error names the bad value
        try:
            quads = [[(e["re"]["num"], e["re"]["den"], e["im"]["num"], e["im"]["den"]) for e in row]
                     for row in rows]
        except (TypeError, KeyError):
            quads = None
        if quads is None or type(rows) is not list or len(rows) != n or any(
                type(row) is not list or len(row) != n or any(type(x) is not int for q in qs for x in q)
                for row, qs in zip(rows, quads)):
            quads = [[tuple(q[key].integer() for q in (e["re"], e["im"]) for key in ("num", "den"))
                      for e in row.elements(n)] for row in node["entries"].elements(n)]
        den = math.lcm(*(d for row in quads for q in row for d in q[1::2]))
        if not den:
            raise ValidationError(f"{node.path} has a zero denominator")
        return cls(*([[q[i] * (den // q[i + 1]) for q in row] for row in quads] for i in (0, 2)), den)


def is_admissible(op: RationalOperator) -> bool:
    """Membership in the snapping target set: exactly Hermitian, exactly
    positive semidefinite, and with every matrix entry nonzero."""
    return op.all_entries_nonzero() and op.is_positive_semidefinite()


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


def rationalize_po(target, delta: float) -> RationalOperator:
    """Snap one positive operator onto an admissible rational operator within ``delta``: the
    one-operator case of ``_rationalize`` (recipe, bounds, errors), over a power of two."""
    mat = as_operator(target)
    if not 0 < delta < math.inf:
        raise ValidationError(f"delta must be a finite positive number, got {delta}")
    (re, im, bits), = _rationalize(mat[None], delta)
    return RationalOperator(re, im, 2**bits)


def _rationalize(stack, delta: float) -> list[tuple]:
    """Snap every positive operator of a (k, n, n) stack within ``delta``; (re, im, e) per operator.

    Float stage, once for the stack: one Hermiticity check, one ``eigh``, one
    grid rounding, one batched ``spectral_norms`` of the achieved distances.
    An operator already admissible on the 2**-32 grid (DEFAULT_DENOMINATOR_CAP)
    is kept exactly; any other is factored as X*X, X rounded onto the grid
    2**-b, the coarsest keeping the rounding's effect on X*X below delta/2
    (2**b <= the cap). Exact stage, on integer rows (re, im) over 2**e: X*X
    plus a shrinking power-of-two multiple of the all-nonzero positive bump
    I + J/2**c until no entry is zero; an entry is affine in the weight with
    nonzero slope, so n**2 + 1 candidates suffice. ValidationError for a
    target not Hermitian within 1e-9, not positive within 1e-8 or too large
    for the grid; PrecisionError for an achieved distance not below delta,
    as once delta undercuts the cap's resolution.
    """
    k, n = stack.shape[:2]
    adjoint = stack.conj().swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the check
        if not np.abs(stack - adjoint).max() <= SPECTRAL_TOL:
            raise ValidationError("target must be Hermitian within 1e-9")
    re, im = _grid_scaled(stack, _CAP_BITS)
    w, v = np.linalg.eigh((stack + adjoint) / 2)
    if w.min() < -1e-8:
        raise ValidationError("target must be positive within tolerance")

    out = [None] * k
    for i in np.flatnonzero(((np.rint(re) == re) & (np.rint(im) == im)).all(axis=(1, 2))):
        rows = _int_rows(re[i]), _int_rows(im[i])
        if _nonzero(*rows) and _hermitian(*rows) and _psd(*rows):
            out[i] = (*rows, _CAP_BITS)
    todo = [i for i in range(k) if out[i] is None]
    if not todo:
        return out
    w = np.clip(w[todo], 0.0, None)
    factor = np.sqrt(w)[..., None] * v[todo].conj().swapaxes(-1, -2)
    # rounding moves X by |E| <= n 2**-b / sqrt(2) and X*X by at most
    # |E| (2|X| + |E|), which this grid keeps below delta / (2 sqrt(2));
    # a quotient past the float range is inf, whose log2 the cap clamps
    bits = [max(0, math.ceil(min(math.log2(4 * n * (math.sqrt(x) + 1) / delta), _CAP_BITS)))
            for x in w.max(axis=1)]
    xr, xi = _grid_scaled(factor, np.array(bits, np.intc)[:, None, None])  # ldexp takes a C int
    # the bump 2**-s (I + J/2**c), 2**c >= 2n, has norm <= (3/2) 2**-s <= delta/4
    c = (2 * n - 1).bit_length()
    scale = math.log2(6 / delta)  # inf for a subnormal delta
    if scale > _CAP_BITS:
        raise PrecisionError("delta is below the resolution of the denominator cap")
    s = math.ceil(scale)
    for i, b, x_re, x_im in zip(todo, bits, xr, xi):
        # X*X over 2**(2b): (X*X)[a][d] = sum_t conj(X[t][a]) X[t][d] is column a of (re; im)
        # dotted with column d of (re; im) plus i times with column d of (im; -re)
        x_re, x_im = _int_rows(x_re), _int_rows(x_im)
        left = list(zip(*x_re, *x_im))
        right = list(zip(*x_im, *(tuple(-x for x in row) for row in x_re)))
        g_re, g_im = ([[_dot(a, d) for d in cols] for a in left] for cols in (left, right))
        for j in range(n * n + 1):
            # X*X plus the bump at weight 2**-(s + j), both over 2**e
            e = max(2 * b, c + s + j)
            lift, shift = e - 2 * b, e - c - s - j
            rows = ([[(x << lift) + ((((a == d) << c) + 1) << shift) for d, x in enumerate(row)]
                     for a, row in enumerate(g_re)], [[x << lift for x in row] for row in g_im])
            if _nonzero(*rows):
                out[i] = (*rows, e)
                break
        else:
            raise PrecisionError("could not clear zero entries within the candidate budget")
    snapped = [_to_complex(*out[i][:2], 2**out[i][2]) for i in todo]
    for dist in spectral_norms(stack[todo] - np.array(snapped)):
        if not dist < delta:
            raise PrecisionError(f"achieved distance {dist:.3e} does not beat delta {delta:.3e}; "
                                 "raise delta")
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
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be a finite positive number, got {eps}")
    if not validate_resolution(mats):
        raise ValidationError("targets are not a positive-operator resolution of the identity")
    resolution, diagnostics = _snap(mats, eps)
    return (resolution, diagnostics) if return_diagnostics else resolution


def _snap(mats, eps: float) -> tuple[RationalResolution, SnapDiagnostics]:
    """``snap_resolution``'s recipe on targets already proved a resolution of k >= 2 members: one
    ``_rationalize`` stack, then integer rows over one 2**e until the members become operators."""
    stack = np.asarray(mats, dtype=complex)
    k, n = stack.shape[:2]
    # below 5e-7 the nearest fraction of denominator at most 10**6 is 0, so eps itself is used
    bound = (Fraction(eps).limit_denominator(10**6) or Fraction(eps)) * Fraction(3, 4)
    while bound and not float(bound) < eps:
        bound /= 2
    if bound < Fraction(1, 10**18):
        raise PrecisionError("eps too small to bracket with a rational bound")
    delta = min(bound / (2 + 2 * k), Fraction(1, 4 * k))
    reach = k * delta
    u_bits = (reach.denominator // reach.numerator).bit_length() - 1  # u = 2**-u_bits
    primed = _rationalize(float(1 - Fraction(1, 2**u_bits)) * stack, float(delta))

    e = max(u_bits, *(bits for *_, bits in primed))
    primed = [[[[x << (e - bits) for x in row] for row in part] for part in (re, im)]
              for re, im, bits in primed]
    total_re, total_im = ([[sum(xs) for xs in zip(*rows)] for rows in zip(*parts)]
                          for parts in zip(*primed))
    shrunk = (1 << e) - (1 << (e - u_bits))  # (1 - u) I over 2**e
    gap_ok = _norm_at_most([[x - shrunk * (a == b) for b, x in enumerate(row)]
                            for a, row in enumerate(total_re)], total_im, 1 << e, reach)
    if not gap_ok:
        raise PrecisionError("rationalized sum strayed farther from (1-u) I than k*delta")
    gap = ([[((a == b) << e) - x for b, x in enumerate(row)] for a, row in enumerate(total_re)],
           [[-x for x in row] for row in total_im])

    coeffs = _mixing_coefficients(k)
    for attempt in range(1, k * n * n + 3):
        # weights 1/k + c/(k**4 attempt), as numerators over one denominator
        den = k**4 * attempt
        weights = [k**3 * attempt + c for c in coeffs]
        members = [[[[den * x + t * g for x, g in zip(xs, gs)] for xs, gs in zip(part, gap_part)]
                    for part, gap_part in zip(parts, gap)] for parts, t in zip(primed, weights)]
        if all(_nonzero(*m) for m in members):
            break
    else:
        raise PrecisionError("could not clear zero entries across the weight candidates")

    resolution = RationalResolution(tuple(RationalOperator(*m, den << e) for m in members))

    max_shift = float(spectral_norms(stack - np.array(resolution.to_complex())).max())
    if not max_shift < eps:
        raise PrecisionError(f"snap moved a member by {max_shift:.3e}, not below eps {eps:.3e}")
    return resolution, SnapDiagnostics(bound, delta, tuple(Fraction(t, den) for t in weights),
                                       max_shift, gap_ok)


@dataclass(frozen=True)
class TaggedResolution:
    """A rational resolution conjugated by the phase tag of registry index m.

    Identity is the (index, base) pair; the angle and the floating members
    are derived data, regenerable from it.
    """

    index: int
    base: RationalResolution
    theta: float = field(compare=False)
    members: tuple[np.ndarray, ...] = field(compare=False)

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
    tag = np.eye(base.dim, dtype=complex)
    tag[0, 0] = complex(math.cos(theta), math.sin(theta))
    members = tuple(tag @ m.to_complex() @ dagger(tag) for m in base.members)
    for m in members:
        m.setflags(write=False)
    return TaggedResolution(index=index, base=base, theta=theta, members=members)


def _extend(held: np.ndarray, rows) -> np.ndarray:
    """``held`` (a leading view of its buffer, or an array of its own) followed by ``rows``:
    written into the buffer's spare rows, which double when they run out, so an append copies
    no held row until then and earlier views keep their contents."""
    end = len(held) + len(rows)
    buf = held.base
    if buf is None or len(buf) < end:
        buf = np.empty((2 * end, *held.shape[1:]), held.dtype)
        buf[:len(held)] = held
    buf[len(held):end] = rows
    return buf[:end]


class ResolutionRegistry:
    """Registered tagged resolutions with strictly distinct indices.

    Every registration consumes the smallest unused index m whose tag
    displacement bound 4*(pi/4)**m fits the remaining precision budget.
    A load adds the saved entries in file order through the checks a
    registration runs. A numeric guard there rejects an entry whose members
    come within 1e-9 of a member of another resolution, naming both indices;
    with exact bases and distinct indices that would signal an arithmetic bug.

    Lookup, the guard and the cross-member floor each make one
    ``spectral_distances`` pass over the held (M, n, n) float member stack
    and its owners' indices, which grow in place (``_extend``).
    """

    def __init__(self, dim: int):
        if not 2 <= dim < 2**29:  # past 2**29 the (0, dim, dim) member stack has no numpy shape
            raise ValidationError("registry dimension must be from 2 to 2**29 - 1")
        self.dim = dim
        self.entries: list[TaggedResolution] = []
        self._used: set[int] = set()
        self._walked = {}  # a budget's first index -> end of its last walk; all between stay used
        self._members, self._owners = np.empty((0, dim, dim), dtype=complex), np.empty(0, np.int64)
        self._sizes = np.empty(0, np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    def smallest_free_index(self, eps_remaining: float) -> int:
        if not eps_remaining > 0:
            raise ValidationError("precision budget must be positive")
        m = 1
        while 4.0 * (math.pi / 4.0) ** m > eps_remaining:
            m += 1
        free = self._walked.get(m, m)
        while free in self._used:
            free += 1
        self._walked[m] = free
        return free

    def register(self, base: RationalResolution, eps_remaining: float) -> TaggedResolution:
        return self._add(base, self.smallest_free_index(eps_remaining))

    def _add(self, base: RationalResolution, index: int) -> TaggedResolution:
        if base.dim != self.dim:
            raise ValidationError("resolution dimension does not match the registry")
        if index in self._used:
            raise ValidationError(f"registry index {index} appears twice")
        tagged = phase_tag(base, index)
        _, cols, dist = spectral_distances(tagged.members, self._members, DISJOINTNESS_FLOOR)
        for j in cols[dist <= DISJOINTNESS_FLOOR]:
            raise RegistryCollisionError(f"member of index {index} coincides with one of "
                                         f"index {self._owners[j]}")
        self._members = _extend(self._members, tagged.members)
        self._owners = _extend(self._owners, [index] * tagged.k)
        self._sizes = _extend(self._sizes, [tagged.k])
        self.entries.append(tagged)
        self._used.add(index)
        return tagged

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
            reg._add(RationalResolution.from_json(entry["base"]), entry["index"].integer())
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
    members = np.asarray(members)
    if members.shape[-1] != density.shape[0]:
        raise DimensionMismatchError("state and resolution dimensions differ")
    return normalized_weights(np.trace(density @ members, axis1=-2, axis2=-1).real)


def sample_povm_outcomes(density, tagged: TaggedResolution, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` outcome indices with probabilities Tr(D member_i)."""
    return draw_indices(_povm_weights(check_density(density), tagged.members), rng, size)
