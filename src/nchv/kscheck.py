"""Truth-function search over finite sets of projections.

A problem is a finite universe of projections together with a list of
resolutions of the identity drawn from it. A truth function assigns 0 or 1
to every universe element so that each resolution carries exactly one 1.
Kochen-Specker style obstructions show up as problems with no truth
function at all; the search here either enumerates the solutions or
certifies that none exist.

Resolutions can be handed in explicitly or discovered. Discovery, for any
mix of ranks, enumerates the cliques of an orthogonality graph built from
one table of overlaps between the elements' top eigenvectors, with a rank
budget per clique, and confirms each clique with the positivity and norm
checks of a depth-first scan over the universe, whose output it provably
reproduces. Validation and deduplication each make batched passes over
the stacked operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SearchCapError, ValidationError
from .opcore import (
    SPECTRAL_TOL,
    JsonNode,
    as_operator,
    check_projections,
    operator_from_json,
    read_json,
    spectral_distances,
    spectral_norms,
)

__all__ = [
    "ValuationProblem",
    "SearchResult",
    "build_problem",
    "discover_resolutions",
    "find_truth_functions",
    "verify_solution",
    "problem_from_family",
    "load_fixture",
]

DEFAULT_DISCOVERY_BUDGET = 200_000
DEFAULT_SEARCH_BUDGET = 5_000_000


@dataclass(frozen=True)
class ValuationProblem:
    """Deduplicated projection universe plus resolutions as index tuples."""

    operators: tuple[np.ndarray, ...]
    resolutions: tuple[tuple[int, ...], ...]
    dim: int

    @property
    def size(self) -> int:
        return len(self.operators)


@dataclass(frozen=True)
class SearchResult:
    """Solutions found, whether the search space was exhausted, and the cost.

    ``exhausted`` is False only when an enumeration limit cut the search
    short; an empty, exhausted result is a certificate that no truth
    function exists.
    """

    solutions: tuple[tuple[int, ...], ...]
    exhausted: bool
    nodes: int


def _dedup(stack, tol):
    """First-wins clustering of a (m, n, n) stack within spectral distance ``tol``.

    Returns the stack positions of the representatives and, for every
    operator, the index of its representative: the first one within
    ``tol``, settled in the row-major order of ``spectral_distances`` pairs.
    """
    rows, cols, dist = spectral_distances(stack, reach=tol)
    rep_of = list(range(len(stack)))
    for i, j in zip(rows[dist <= tol].tolist(), cols[dist <= tol].tolist()):
        if rep_of[i] == i and rep_of[j] == j:
            rep_of[i] = j
    first = [i for i, r in enumerate(rep_of) if r == i]
    return first, np.searchsorted(first, rep_of).tolist()


def _universe_indices(res, size):
    try:
        members = list(res)
    except TypeError:
        raise ValidationError(f"resolution {res!r} is not a list of indices") from None
    for i in members:
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
            raise ValidationError(
                f"resolution index {i!r} is not an integer in [0, {size})"
            )
    return [int(i) for i in members]


def build_problem(operators, resolutions=None, *, discover=False) -> ValuationProblem:
    """Validate, deduplicate, and assemble a problem.

    Operators closer than SPECTRAL_TOL collapse to one universe element and
    resolution indices, integers into ``operators``, are remapped
    accordingly. With ``discover`` set, every subset of the universe
    resolving the identity is added as a resolution.
    """
    ops = [as_operator(o) for o in operators]
    if not ops:
        raise ValidationError("empty projection universe")
    dim = ops[0].shape[0]
    # the first operator of another dimension ends the stack; any invalid
    # projection before it is reported first, as a scan in order would
    mixed = next((i for i, op in enumerate(ops) if op.shape[0] != dim), len(ops))
    stack = np.array(ops[:mixed])
    ranks = check_projections(stack)
    if mixed < len(ops):
        raise ValidationError("universe operators have mixed dimensions")

    first, index_map = _dedup(stack, SPECTRAL_TOL)
    reps = stack[first]
    rep_ranks = [ranks[i] for i in first]

    try:
        resolutions = list(resolutions or ())
    except TypeError:
        raise ValidationError("resolutions must be a list of index lists") from None
    read: list[tuple[int, ...]] = []
    unreadable = None
    for res in resolutions:
        try:
            mapped = tuple(sorted(index_map[i] for i in _universe_indices(res, len(ops))))
            if len(set(mapped)) != len(mapped):
                raise ValidationError("resolution lists the same projection twice")
        except ValidationError as exc:
            unreadable = exc
            break
        read.append(mapped)
    # one batched SVD over the sums read so far: a bad sum still outranks an
    # unreadable resolution listed after it, as in a check in order
    if read:
        totals = np.array([reps[list(m)].sum(axis=0) for m in read])
        if (spectral_norms(totals - np.eye(dim)) > SPECTRAL_TOL).any():
            raise ValidationError("resolution members do not sum to the identity")
    if unreadable is not None:
        raise unreadable
    resolved = set(read)

    if discover:
        resolved.update(discover_resolutions(reps, rep_ranks))
    reps.flags.writeable = False
    return ValuationProblem(tuple(reps), tuple(sorted(resolved)), dim)


def discover_resolutions(operators, ranks=None):
    """Find every subset of the universe that sums to the identity.

    The answer is defined by a depth-first scan over increasing indices: a
    branch dies as soon as the remainder I - S has an eigenvalue below -tol
    or the ranks overshoot n, and a set whose ranks reach n is kept when
    |I - S| <= tol. Index tuples come back in lexicographic order. The scan
    itself is never run; its output is found as follows.

    Write H_c for the Hermitian part of element c, r_c >= 0 for its rank
    (declared, or from ``check_projections``), U_c for its top r_c
    eigenvectors and eta_c = |H_c - U_c U_c*|, the distance of its spectrum
    to r_c ones and n - r_c zeros. The scan accepts a set T only if its
    ranks sum to n and |I - S| <= tol. The Hermitian part of a matrix has at
    most its norm, so |I - sum_T H_c| <= tol, and by the triangle inequality
    |I - W W*| <= tol + sum_T eta_c for W = [U_c]_{c in T}. W is square, so
    W W* and W* W share their eigenvalues, and an entry of the off-diagonal
    block U_a* U_b of I - W* W is at most its norm. At most n members of T
    have nonzero rank, and z elements of the universe have rank 0, so every
    pair a, b of nonzero rank in T has
        max |entry of U_a* U_b| <= tol + eta_a + eta_b + (n - 2 + z) max eta.
    These pairs are the edges of an orthogonality graph; an element of rank
    0 owns no vectors and is adjacent to every element. Every accepted set
    is therefore a clique. For rank 1 the test reads
    |<u_a, u_b>| <= tol + eta_a + eta_b + (n - 2) max eta.

    The cliques are enumerated in lexicographic order, one node per partial
    clique, and a branch stops once its ranks reach n (so, as in the scan,
    no element follows a full set) or exceed it, or once its extensions are
    too few to make up the missing rank. Each clique then passes through
    the scan's own checks on the same prefix sums: no prefix remainder with
    an eigenvalue below -tol, and |I - S| <= tol. The output is therefore
    the scan's, tuple for tuple. Raises SearchCapError when more than
    DEFAULT_DISCOVERY_BUDGET partial cliques are visited.
    """
    try:
        ops = np.asarray(operators, dtype=complex)
    except ValueError as exc:
        raise DimensionMismatchError(f"operators do not form one stack: {exc}") from exc
    if not len(ops):
        return []
    if ops.ndim != 3 or ops.shape[1] != ops.shape[2] or ops.shape[1] == 0:
        raise DimensionMismatchError(f"expected a stack of square matrices, got shape {ops.shape}")
    m, dim = ops.shape[:2]
    ranks = [int(r) for r in (check_projections(ops) if ranks is None else ranks)]
    top_rank = max(ranks)
    if top_rank < 1:
        return []
    w, v = np.linalg.eigh((ops + ops.conj().swapaxes(-1, -2)) / 2)
    top = np.arange(dim) >= dim - np.array(ranks)[:, None]
    eta = np.abs(w - top).max(axis=1)
    # k rows per element: the columns of U_c, then zero rows (all zero at rank 0),
    # which leave the largest entry of every block U_a* U_b as it is
    k = min(top_rank, dim)
    vecs = (v[..., -k:] * top[:, None, -k:]).swapaxes(-1, -2).reshape(m * k, dim)
    # 1e-12 lies far above the roundoff of the eigenvectors and their overlaps
    slack = SPECTRAL_TOL + max(dim - 2 + ranks.count(0), 0) * eta.max() + 1e-12
    cols = np.arange(m)
    above = []  # bitset of the neighbours j > i of each element i
    step = max(1, (1 << 20) // (m * k * k))
    for lo in range(0, m, step):
        rows = cols[lo:lo + step]
        overlap = np.abs(vecs[lo * k:(lo + step) * k].conj() @ vecs.T)
        if k > 1:  # largest entry of each block U_a* U_b
            overlap = overlap.reshape(len(rows), k, m, k).max(axis=(1, 3))
        near = (overlap <= slack + eta[rows, None] + eta[None, :]) & (cols > rows[:, None])
        for bits in np.packbits(near, axis=1, bitorder="little"):
            above.append(int.from_bytes(bits.tobytes(), "little"))

    cliques: list[tuple[int, ...]] = []
    nodes = 0
    # partial cliques still to extend, deepest last: (clique, rank still missing, bitset of extensions)
    pending = [((), dim, (1 << m) - 1)]
    while pending:
        chosen, left, cand = pending.pop()
        if not cand:
            continue
        j = (cand & -cand).bit_length() - 1
        pending.append((chosen, left, cand & (cand - 1)))
        nodes += 1
        if nodes > DEFAULT_DISCOVERY_BUDGET:
            raise SearchCapError(f"resolution discovery exceeded {DEFAULT_DISCOVERY_BUDGET} nodes")
        rest = left - ranks[j]
        if rest <= 0:
            if rest == 0:
                cliques.append(chosen + (j,))
            continue
        ext = cand & above[j]
        # filling the rest takes at least rest / top_rank more elements
        if ext.bit_count() * top_rank >= rest:
            pending.append((chosen + (j,), rest, ext))
    if not cliques:
        return []
    # cliques padded in front with a zero element (index m) share one batch;
    # a zero prefix leaves the remainder at I, as the scan's empty sum does
    width = max(map(len, cliques))
    padded = np.array([(m,) * (width - len(c)) + c for c in cliques])
    sums = np.cumsum(np.concatenate((ops, np.zeros((1, dim, dim))))[padded], axis=1)
    gaps = np.eye(dim) - sums
    prefix_ok = ~(np.linalg.eigvalsh(gaps)[..., 0] < -SPECTRAL_TOL).any(axis=1)
    keep = prefix_ok & (spectral_norms(gaps[:, -1]) <= SPECTRAL_TOL)
    return [c for c, ok in zip(cliques, keep) if ok]


def find_truth_functions(problem: ValuationProblem, limit=None) -> SearchResult:
    """Enumerate truth functions by backtracking with unit propagation.

    Setting an element to 1 zeroes the rest of its resolutions; a resolution
    down to one undecided element with no 1 yet forces that element. The
    search is deterministic: lowest undecided index first, 0 before 1.
    ``limit`` stops the enumeration once that many solutions are in hand;
    a run cut short reports exhausted False. Raises SearchCapError past
    DEFAULT_SEARCH_BUDGET decisions, and ValidationError for a limit below 1.
    """
    if limit is not None and limit < 1:
        raise ValidationError(f"limit must be at least 1, got {limit}")
    n = problem.size
    ctxs = [list(r) for r in problem.resolutions]
    var_ctxs: list[list[int]] = [[] for _ in range(n)]
    for ci, ctx in enumerate(ctxs):
        for v in ctx:
            var_ctxs[v].append(ci)

    values = [-1] * n
    ones = [0] * len(ctxs)
    undecided = [len(c) for c in ctxs]
    trail: list[int] = []
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def assign(var, val) -> bool:
        queue = [(var, val)]
        while queue:
            v, x = queue.pop()
            if values[v] != -1:
                if values[v] != x:
                    return False
                continue
            values[v] = x
            trail.append(v)
            # counts first, in full; undo reverses the whole variable, so a
            # partial update here would corrupt the bookkeeping
            for ci in var_ctxs[v]:
                undecided[ci] -= 1
                if x == 1:
                    ones[ci] += 1
            for ci in var_ctxs[v]:
                if ones[ci] > 1:
                    return False
                if ones[ci] == 0 and undecided[ci] == 0:
                    return False
                if x == 1:
                    for w in ctxs[ci]:
                        if values[w] == -1:
                            queue.append((w, 0))
                elif ones[ci] == 0 and undecided[ci] == 1:
                    forced = next(w for w in ctxs[ci] if values[w] == -1)
                    queue.append((forced, 1))
        return True

    def undo(mark):
        while len(trail) > mark:
            v = trail.pop()
            for ci in var_ctxs[v]:
                undecided[ci] += 1
                if values[v] == 1:
                    ones[ci] -= 1
            values[v] = -1

    # branches still to try, deepest last: (trail length before it, variable, value)
    pending = [(0, None, None)]
    while pending:
        mark, var, val = pending.pop()
        undo(mark)
        if var is not None:
            nodes += 1
            if nodes > DEFAULT_SEARCH_BUDGET:
                raise SearchCapError(
                    f"truth-function search exceeded {DEFAULT_SEARCH_BUDGET} nodes")
            if not assign(var, val):
                continue
        var = next((i for i in range(n) if values[i] == -1), None)
        if var is None:
            solutions.append(tuple(values))
            if limit is not None and len(solutions) >= limit:
                return SearchResult(tuple(solutions), False, nodes)
        else:
            pending += [(len(trail), var, 1), (len(trail), var, 0)]
    return SearchResult(tuple(solutions), True, nodes)

def verify_solution(problem: ValuationProblem, values) -> bool:
    """Recheck a candidate assignment against every resolution."""
    if len(values) != problem.size:
        raise ValidationError("assignment length does not match the universe")
    if any(v not in (0, 1) for v in values):
        return False
    return all(sum(values[i] for i in ctx) == 1 for ctx in problem.resolutions)


def problem_from_family(family, count=None) -> ValuationProblem:
    """Universe of member atoms; one resolution per member, nothing shared."""
    from .opcore import atom_projections

    if count is not None and count < 1:
        raise ValidationError(f"count must be at least 1, got {count}")
    members = family.members if count is None else family.members[:count]
    if not members:
        raise ValidationError("family slice is empty")
    n = family.dim
    operators = [atom for member in members for atom in atom_projections(member.basis)]
    resolutions = [list(range(k * n, (k + 1) * n)) for k in range(len(members))]
    return build_problem(operators, resolutions)


def load_fixture(path) -> ValuationProblem:
    """Read a problem from JSON.

    Two layouts: {"dim", "vectors", "resolutions"?} with rank-1 projections
    built from (unnormalized, real or [re, im]) vectors, or
    {"dim", "operators", "resolutions"?} with full operator payloads. A
    missing resolutions key triggers discovery.
    """
    node = JsonNode(read_json(path), "fixture")
    dim = node["dim"].integer()
    if "vectors" in node.value:
        operators = []
        for entry in node["vectors"].elements():
            vec = entry.numbers()
            if vec.shape == (dim, 2):
                vec = vec[:, 0] + 1j * vec[:, 1]
            if vec.shape != (dim,):
                raise entry.error(f"{dim} numbers or {dim} [re, im] pairs", f"shape {vec.shape}")
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                raise ValidationError(f"{entry.path} is numerically zero")
            vec = vec / norm
            operators.append(np.outer(vec, vec.conj()))
    elif "operators" in node.value:
        operators = [operator_from_json(entry) for entry in node["operators"].elements()]
    else:
        raise ValidationError("fixture needs a vectors or operators key")
    resolutions = node.value.get("resolutions")
    return build_problem(operators, resolutions, discover=resolutions is None)
