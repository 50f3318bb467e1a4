"""Dense complex operator algebra on small Hilbert spaces.

Operators are plain complex128 numpy arrays of shape (n, n). Ordered
orthonormal bases get a thin immutable wrapper because vector order is
significant for the basis metric. Everything downstream shares one
tolerance ladder: structural identities at 1e-12, derived algebra at
1e-10, spectral and other iterative results at 1e-9 and 1e-8. Roundoff
grows with the entries, so the Hermiticity check of states and
observables, the eigenvalue merge and the spectral reconstruction check
each use the larger of their rung and STRUCT_TOL times the largest |entry|:
at unit scale and below they decide as the bare rungs do. The JSON helpers at the end decide the
one layout of every file and report nchv writes, and read every input file
through one typed decoder, ``JsonNode``, whose accessors turn any malformed
value into a ValidationError naming its key path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ValidationError, WeightNormalizationError

STRUCT_TOL = 1e-12
ALGEBRA_TOL = 1e-10
SPECTRAL_TOL = 1e-9
EIGEN_MERGE_TOL = 1e-8
ENTRY_CAP = 1e100  # largest magnitude of a number in an input file (see JsonNode)
SCAN_CHUNK = 4096  # commutator norms per batched call in min_commutator_norm
PAIR_CHUNK = 1 << 20  # operator pairs per Gram pass in spectral_distances

__all__ = [
    "STRUCT_TOL",
    "ALGEBRA_TOL",
    "SPECTRAL_TOL",
    "EIGEN_MERGE_TOL",
    "ENTRY_CAP",
    "as_operator",
    "require_same_dim",
    "dagger",
    "operator_norm",
    "spectral_norms",
    "spectral_distances",
    "commutator_norms",
    "min_commutator_norm",
    "is_hermitian",
    "check_projections",
    "check_density",
    "normalized_weights",
    "draw_indices",
    "spectral_resolution",
    "validate_resolution",
    "OrthonormalBasis",
    "basis_distance",
    "atom_projections",
    "nontrivial_masks",
    "subset_projection",
    "HermitianObservable",
    "operator_to_json",
    "operator_from_json",
    "basis_to_json",
    "read_json",
    "json_text",
    "write_json",
    "write_text_atomic",
    "JsonNode",
]


def as_operator(value) -> np.ndarray:
    """Coerce ``value`` to a square complex matrix, rejecting malformed shapes."""
    mat = np.asarray(value, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def require_same_dim(*ops) -> int:
    dims = {op.shape[0] for op in ops}
    if len(dims) != 1:
        raise DimensionMismatchError(f"dimension mismatch: {sorted(dims)}")
    return dims.pop()


def dagger(op: np.ndarray) -> np.ndarray:
    return op.conj().T


def operator_norm(op) -> float:
    """Largest singular value; for Hermitian input this is max |eigenvalue|."""
    return float(spectral_norms(as_operator(op)))


def spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of every matrix in a (..., n, n) stack."""
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def spectral_distances(first, second=None, reach=None, owners=None):
    """Pairs whose spectral distance could be <= ``reach``, each with its exact distance.

    Items of the stacks ``first`` (p, ..., n, n) and ``second`` (q, ..., n, n)
    are as far apart as the largest spectral norm of their differences; pair
    (i, j) is first[i] - second[j]. Without ``second``: pairs i > j of
    ``first`` with different ``owners``, if given. Without ``reach``: the
    least Frobenius distance of a pair, so the nearest pair is kept. Gram
    passes over chunks of about PAIR_CHUNK pairs give every |X|_F^2 as
    |a|^2 + |b|^2 - 2 Re<a, b>; a pair is ruled out only when |X|_F^2 / n <=
    |X|^2, less a roundoff margin of (2 n^2 + 8) ulps of |a|^2 + |b|^2,
    exceeds reach^2 (no square root is taken). One batched SVD of the direct
    differences decides the rest. Returns (rows, cols, distances), row-major.
    """
    a = np.asarray(first, dtype=complex)
    b = a if second is None else np.asarray(second, dtype=complex)
    n, c = a.shape[-1], int(np.prod(a.shape[1:-2]))
    fa, fb = (s.reshape(len(s), c, n * n).swapaxes(0, 1) for s in (a, b))
    sa, sb = ((f.real ** 2 + f.imag ** 2).sum(axis=-1) for f in (fa, fb))
    slack = (2 * n * n + 8) * np.finfo(float).eps
    # n reach^2 bounds |X|_F^2; a product of Python floats overflows to inf without a warning
    limit = np.inf if reach is None else n * float(reach) * float(reach)
    step = max(1, PAIR_CHUNK // max(1, c * len(b)))
    found = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for lo in range(0, len(a), step):
        hi = min(lo + step, len(a))
        width = hi if second is None else len(b)
        cross = (fa[:, lo:hi] @ fb[:, :width].conj().swapaxes(-1, -2)).real * -2.0
        tot = sa[:, lo:hi, None] + sb[:, None, :width]
        low = (cross + (1 - slack) * tot).max(axis=0)
        counted = (np.arange(lo, hi)[:, None] > np.arange(width) if second is None
                   else np.ones(low.shape, dtype=bool))
        if owners is not None:
            counted &= owners[lo:hi, None] != owners[:width]
        if reach is None:
            up = (cross + (1 + slack) * tot).max(axis=0)
            limit = min(limit, n * float(up[counted].min(initial=np.inf)))
        rows, cols = np.nonzero(counted & (low <= limit))
        found.append((rows + lo, cols, low[rows, cols]))
    rows, cols, low = (np.concatenate(part) for part in zip(*found))
    # a pair kept before a later chunk lowered the nearest bound may be out of reach now
    rows, cols = rows[low <= limit], cols[low <= limit]
    dist = spectral_norms(a[rows] - b[cols]).reshape(-1, c).max(axis=1) if len(rows) else np.empty(0)
    return rows, cols, dist


@lru_cache(maxsize=None)
def _scan_sets(n: int):
    """Indicator of the masks T = 1 ... 2**(n-1) - 1, rows i of the sets S = {i},
    and per size k = 2 ... n // 2 the sets S and their complements; at
    k = n / 2, only the S without index n - 1."""
    sel = (np.arange(1, 1 << (n - 1))[:, None] >> np.arange(n)) & 1
    blocks = []
    for k in range(2, n // 2 + 1):
        rows = list(combinations(range(n - (2 * k == n)), k))
        rest = [[i for i in range(n) if i not in s] for s in rows]
        blocks.append((np.array(rows), np.array(rest)))
    return sel.astype(float), np.arange(n - (n == 2)), tuple(blocks)


def commutator_norms(first: np.ndarray, others: np.ndarray) -> np.ndarray:
    """|[P_S, Q_T]| for the subset projections of an (n, n) basis and of each of an (m, n, n) stack.

    One row per basis in ``others``, one norm per complementary pair of
    masks on each side, since [I - P, Q] = -[P, Q]. In the coordinates of
    ``first``, P_S = diag(1_S) and Q_T = W diag(1_T) W* with W = first* others,
    and |[P, Q]| = |PQ(I - P)| for projections (Halmos, "Two subspaces",
    1969): the norm of the |S| x (n - |S|) block W[S, :] diag(1_T) W[S^c, :]*,
    with |S| <= n / 2. For S = {i} that is sqrt(p p'), p and p' the sums of
    |W_it|^2 over t in T and outside it: no SVD and no cancellation.
    """
    sel, singles, blocks = _scan_sets(first.shape[0])
    w = first.conj().T @ others
    sq = np.abs(w[:, singles]) ** 2
    parts = [np.sqrt((sq @ sel.T) * (sq @ (1.0 - sel).T)).reshape(len(w), -1)]
    for rows, rest in blocks:
        # (m, sets, 1, k, n) * (T, 1, n), then @ (m, sets, 1, n, n - k)
        left = w[:, rows][:, :, None] * sel[:, None, :]
        right = w[:, rest].conj().swapaxes(-1, -2)[:, :, None]
        parts.append(spectral_norms(left @ right).reshape(len(w), -1))
    return np.concatenate(parts, axis=1)


def min_commutator_norm(first: np.ndarray, others: np.ndarray, stop_at: float = -np.inf) -> float:
    """Smallest ``commutator_norms`` entry of ``first`` against the (m, n, n) stack ``others``.

    Each batched call takes as many bases as fit in SCAN_CHUNK norms (at
    least one), so temporaries stay small whatever the family size; the
    scan stops after the first chunk at or below ``stop_at``.
    """
    step = max(1, SCAN_CHUNK // max(1, (2 ** (first.shape[0] - 1) - 1) ** 2))
    best = np.inf
    for lo in range(0, len(others), step):
        best = min(best, float(commutator_norms(first, others[lo:lo + step]).min(initial=np.inf)))
        if best <= stop_at:
            break
    return best


def _roundoff_floor(mat) -> float:
    """STRUCT_TOL times the largest |entry| of ``mat``, 0 when an entry is not
    finite: a check on ``mat`` uses the larger of its rung and this floor."""
    top = float(np.abs(mat).max())
    return STRUCT_TOL * top if top < np.inf else 0.0


def is_hermitian(op) -> bool:
    """True when every entry of op - op* is within STRUCT_TOL of zero, or
    within the roundoff floor of ``op`` when that is larger."""
    mat = as_operator(op)
    return bool(np.max(np.abs(mat - dagger(mat))) <= max(STRUCT_TOL, _roundoff_floor(mat)))


def check_projections(stack) -> list[int]:
    """Validate a (m, n, n) stack of projections in batched passes, returning their ranks.

    The first failing matrix decides the error, its Hermitian check (within
    STRUCT_TOL) before its idempotence check (within ALGEBRA_TOL).
    Idempotence is measured only on the matrices before the first
    non-Hermitian one, so the SVD never sees a NaN.
    """
    stack = np.asarray(stack, dtype=complex)
    herm_bad = ~(np.abs(stack - stack.conj().swapaxes(-1, -2)).max(axis=(-1, -2)) <= STRUCT_TOL)
    first_herm = int(np.argmax(herm_bad)) if herm_bad.any() else len(stack)
    head = stack[:first_herm]
    idem_bad = ~(spectral_norms(head @ head - head) <= ALGEBRA_TOL)
    if idem_bad.any():
        raise ValidationError("projection is not idempotent")
    if first_herm < len(stack):
        raise ValidationError("projection is not Hermitian")
    # both checks put every eigenvalue of the Hermitian part within about
    # 1e-10 of 0 or 1, and the real part of the trace is their sum, so the
    # rounded trace is the rank
    return [int(r) for r in np.rint(np.trace(stack, axis1=-2, axis2=-1).real)]


def check_density(op) -> np.ndarray:
    """Validate a density operator: Hermitian, positive, unit trace."""
    mat = as_operator(op)
    if not is_hermitian(mat):
        raise ValidationError("density operator is not Hermitian")
    eigs = np.linalg.eigvalsh((mat + dagger(mat)) / 2)
    if eigs.min() < -ALGEBRA_TOL:
        raise ValidationError(f"density operator has negative eigenvalue {eigs.min():.3e}")
    trace = float(np.trace(mat).real)
    if abs(trace - 1.0) > ALGEBRA_TOL:
        raise ValidationError(f"density operator trace is {trace!r}, expected 1")
    return mat


def normalized_weights(raw: np.ndarray) -> np.ndarray:
    """Normalize raw Born weights Tr(D A_i), one distribution per row of a (..., k) array.

    Noise floor: weights in [-1e-10, 0) are clamped to 0. Anything more
    negative, or a row total farther than 1e-9 from 1, means the state and
    the operators disagree and raises WeightNormalizationError. The first
    failing row decides, with its negativity checked before its total.
    """
    low = raw.min(axis=-1)
    # the same values as np.clip(raw, 0.0, None), without its dispatch cost
    w = np.maximum(raw, 0.0)
    totals = w.sum(axis=-1, keepdims=True)
    bad = (low < -ALGEBRA_TOL) | (np.abs(totals[..., 0] - 1.0) > SPECTRAL_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        if low.flat[k] < -ALGEBRA_TOL:
            raise WeightNormalizationError(f"Born weight {low.flat[k]:.3e} is negative beyond tolerance")
        raise WeightNormalizationError(f"Born weights sum to {float(totals.flat[k])!r}, expected 1")
    return w / totals


def draw_indices(weights: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` indices drawn from one row of normalized weights.

    An index is the number of cumulative weights at or below a uniform; the
    last cumulative weight is pinned to 1, so roundoff never draws past the end.
    """
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(size), side="right").astype(np.int64)


def spectral_resolution(op) -> list[tuple[float, np.ndarray]]:
    """Eigenvalues and spectral projections of a Hermitian operator.

    Eigenvalues closer than EIGEN_MERGE_TOL, or than the roundoff floor of
    ``op`` when that is larger, are merged into one projection. Returns
    (eigenvalue, projection) pairs in ascending eigenvalue order. The pairs
    must rebuild ``op`` within SPECTRAL_TOL (or the floor) and the
    projections sum to the identity within ALGEBRA_TOL, both in spectral
    norm; a failed check raises ValidationError, the rebuild's first.
    """
    mat = as_operator(op)
    if not is_hermitian(mat):
        raise ValidationError("spectral resolution requires a Hermitian operator")
    w, v = np.linalg.eigh((mat + dagger(mat)) / 2)
    floor = _roundoff_floor(mat)
    merge = max(EIGEN_MERGE_TOL, floor)
    pairs: list[tuple[float, np.ndarray]] = []
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[start] > merge:
            cols = v[:, start:stop]
            proj = cols @ dagger(cols)
            pairs.append((float(np.mean(w[start:stop])), proj))
            start = stop
    recon = sum(val * proj for val, proj in pairs)
    recon_gap, sum_gap = spectral_norms(np.array([recon - mat, sum(p for _, p in pairs) - np.eye(len(w))]))
    if recon_gap > max(SPECTRAL_TOL, floor):
        raise ValidationError("spectral resolution does not reconstruct the operator")
    if sum_gap > ALGEBRA_TOL:
        raise ValidationError("spectral projections do not sum to the identity")
    return pairs


def validate_resolution(ops) -> bool:
    """True when ``ops`` are positive operators summing to the identity.

    Positivity means Hermitian with min eigenvalue >= -ALGEBRA_TOL; the sum
    must satisfy |sum - I| <= SPECTRAL_TOL in spectral norm. Malformed shapes
    raise; everything else reports False rather than erroring. One
    Hermitian test and one ``eigvalsh`` run over the whole (k, n, n) stack.
    """
    mats = [as_operator(o) for o in ops]
    if not mats:
        return False
    n = require_same_dim(*mats)
    stack = np.array(mats)
    adjoint = stack.conj().swapaxes(-1, -2)
    if not np.abs(stack - adjoint).max() <= ALGEBRA_TOL:
        return False
    if np.linalg.eigvalsh((stack + adjoint) / 2).min() < -ALGEBRA_TOL:
        return False
    gap = sum(mats) - np.eye(n)
    return operator_norm(gap) <= SPECTRAL_TOL


def _orthonormal(stack) -> np.ndarray:
    """Read-only copy of an (m, n, n) stack of matrices with orthonormal columns, or ValidationError."""
    stack = np.array(stack, dtype=complex)
    if not np.isfinite(stack).all():
        raise ValidationError("basis entries must be finite")
    # one batched SVD; |V*V - I| = |VV* - I|: the atoms of an accepted basis sum to the identity too
    gaps = spectral_norms(stack.conj().swapaxes(-1, -2) @ stack - np.eye(stack.shape[-1]))
    if not (gaps <= ALGEBRA_TOL).all():
        raise ValidationError("columns are not orthonormal within 1e-10")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class OrthonormalBasis:
    """Ordered orthonormal basis; column i of ``mat`` is the i-th vector."""

    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", _orthonormal(as_operator(self.mat)[None])[0])

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def basis_distance(first: OrthonormalBasis, second: OrthonormalBasis) -> float:
    """|I - U| for the unitary U carrying each vector of ``first`` to ``second``.

    Order matters: permuting one basis changes U and hence the distance.
    """
    require_same_dim(first.mat, second.mat)
    u = second.mat @ dagger(first.mat)
    return operator_norm(np.eye(first.dim) - u)


def atom_projections(basis: OrthonormalBasis) -> np.ndarray:
    """Rank-1 projections onto the basis vectors, stacked as (n, n, n)."""
    v = basis.mat
    return np.einsum("ai,bi->iab", v, v.conj())


def nontrivial_masks(n: int) -> list[int]:
    """Bitmasks of the nonempty proper subsets of an n-element basis."""
    return [m for m in range(1, (1 << n) - 1)]


def subset_projection(basis: OrthonormalBasis, mask: int) -> np.ndarray:
    """Projection onto the span of the basis vectors selected by ``mask``."""
    if not 0 <= mask < (1 << basis.dim):
        raise ValidationError(f"mask {mask} out of range for dimension {basis.dim}")
    sel = (mask >> np.arange(basis.dim)) & 1
    return np.tensordot(sel.astype(float), atom_projections(basis), axes=1)


@dataclass(frozen=True)
class HermitianObservable:
    """A Hermitian operator together with its merged spectral resolution."""

    op: np.ndarray
    eigenvalues: tuple[float, ...]
    projections: tuple[np.ndarray, ...]

    @classmethod
    def from_operator(cls, op) -> "HermitianObservable":
        mat = as_operator(op)
        values, projs = zip(*spectral_resolution(mat))
        for proj in projs:
            proj.setflags(write=False)
        return cls(op=mat, eigenvalues=values, projections=projs)

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    def is_nondegenerate(self) -> bool:
        return len(self.eigenvalues) == self.dim


def operator_to_json(op) -> dict:
    """Canonical serialization: row-major real and imaginary parts."""
    mat = as_operator(op)
    return {"dim": mat.shape[0], "re": mat.real.ravel().tolist(), "im": mat.imag.ravel().tolist()}


def operator_from_json(obj) -> np.ndarray:
    node = JsonNode(obj, "operator")
    n = node["dim"].integer(1)
    re, im = (node[part].numbers((n * n,)) for part in ("re", "im"))
    return re.reshape(n, n) + 1j * im.reshape(n, n)


def basis_to_json(basis: OrthonormalBasis) -> dict:
    """Serialize an ordered basis as a list of vectors, order preserved."""
    vectors = [{"re": v.real.tolist(), "im": v.imag.tolist()} for v in basis.mat.T]
    return {"dim": basis.dim, "vectors": vectors}


def _bases_from_json(nodes, n: int) -> list[OrthonormalBasis]:
    """Decoded basis objects, each of dimension ``n``, checked in one batched pass."""
    mats = []
    for node in nodes:
        if node["dim"].integer() != n:
            raise node["dim"].error(str(n))
        parts = [[v["re"].value, v["im"].value] for v in node["vectors"].elements(n)]
        arr = JsonNode(parts, f"{node.path}.vectors").numbers((n, 2, n))
        mats.append((arr[:, 0] + 1j * arr[:, 1]).T)
    # each basis takes its matrix from the checked stack, so no basis checks itself again
    bases = [object.__new__(OrthonormalBasis) for _ in mats]
    for basis, mat in zip(bases, _orthonormal(np.reshape(mats, (-1, n, n)))):
        object.__setattr__(basis, "mat", mat)
    return bases


def _no_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """Parse a JSON file; a missing or malformed file, NaN and Infinity included, raises ValidationError."""
    try:
        return json.loads(Path(path).read_text(), parse_constant=_no_constant)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


class JsonNode:
    """One value of a decoded JSON document and the key path it sits at.

    Every input file is read through these typed accessors. Each returns the
    value as the type its loader needs or raises ValidationError naming the
    key path, such as ``family.members[2].index``, and what it found there.
    ``node[key]`` is the required key of an object, ``elements(length)`` the
    items of a list, ``integer(low)`` a JSON integer (not a bool, not 2.0,
    not "3"), and ``numbers(shape)`` a float array from a JSON number, for
    shape (), or from nested lists of them, checked in one array pass.
    A number must have magnitude at most ENTRY_CAP (1e100), which rules out
    ``1e400`` too, as the parser reads it as infinity: squared and summed
    over the n**2 entries of an operator, as Gram and Frobenius sums do, it
    stays far below the float maximum of about 1.8e308.
    """

    __slots__ = ("value", "path")

    def __init__(self, value, path):
        # a node passed in keeps its own path, so a loader called by another names the whole path
        self.value, self.path = (value.value, value.path) if isinstance(value, JsonNode) else (value, path)

    def error(self, expected, found=None) -> ValidationError:
        kinds = {dict: "an object", list: "a list", str: "a string", bool: "a boolean", type(None): "null"}
        found = found or kinds.get(type(self.value)) or repr(self.value)
        return ValidationError(f"{self.path} must be {expected}, got {found}")

    def __getitem__(self, key) -> "JsonNode":
        if not isinstance(self.value, dict) or key not in self.value:
            raise self.error(f"an object with a key {key!r}",
                             isinstance(self.value, dict) and "an object without it")
        return JsonNode(self.value[key], f"{self.path}.{key}")

    def elements(self, length=None) -> list["JsonNode"]:
        if not isinstance(self.value, list) or length not in (None, len(self.value)):
            raise self.error("a list" if length is None else f"a list of {length} items",
                             isinstance(self.value, list) and f"{len(self.value)} items")
        return [JsonNode(v, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    def integer(self, low=None) -> int:
        if type(self.value) is not int or (low is not None and self.value < low):
            raise self.error("an integer" if low is None else f"an integer of at least {low}")
        return self.value

    def numbers(self, shape=None) -> np.ndarray:
        try:
            arr = np.array(self.value)
            arr = arr.astype(float) if arr.dtype.kind in "iufO" else None
        except (TypeError, ValueError, OverflowError):
            arr = None
        if arr is None or shape not in (None, arr.shape) or not np.abs(arr).max(initial=0) <= ENTRY_CAP:
            raise self.error(f"{'a number' if shape == () else 'numbers'} of magnitude at most "
                             f"{ENTRY_CAP:g}{f' in shape {shape}' if shape else ''}",
                             arr is not None and arr.ndim and f"shape {arr.shape}")
        return arr


def json_text(obj) -> str:
    """``obj`` in the one layout nchv writes JSON in: one line with sorted keys
    and the default separators, then a newline."""
    return json.dumps(obj, sort_keys=True) + "\n"


def write_json(obj, path) -> None:
    """Write ``json_text(obj)`` to ``path`` atomically."""
    write_text_atomic((json_text(obj), path))


def write_text_atomic(*files: tuple[str, object]) -> None:
    """Write each ``(text, path)`` of ``files`` atomically.

    Every text first goes to a fresh file in its path's directory, and only
    once all are written does each replace its path, one rename each: a text
    that cannot be written leaves every old file untouched. A failure removes
    the partial files, and an ``OSError`` raises ValidationError naming the
    path it hit.
    """
    staged: list[tuple[Path, Path]] = []
    try:
        try:
            for text, path in files:
                path = Path(path)
                staged.append((path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp"), path))
                staged[-1][0].write_text(text)
            for tmp, path in staged:
                os.replace(tmp, path)
        except BaseException:
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
