"""Truth-function search over finite sets of projections.

A problem is a finite universe of projections together with a list of
resolutions of the identity drawn from it. A truth function assigns 0 or 1
to every universe element so that each resolution carries exactly one 1.
Kochen-Specker style obstructions show up as problems with no truth
function at all; the search here either enumerates the solutions or
certifies that none exist.

Resolutions can be handed in explicitly or discovered. When every element
has rank 1, discovery enumerates the cliques of an orthogonality graph
built from one table of eigenvector overlaps and confirms each clique with
the norm checks; otherwise a depth-first scan over the universe prunes
with positivity. Validation and deduplication each make batched passes
over the stacked operators.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SearchCapError, ValidationError
from .opcore import (
    SPECTRAL_TOL,
    as_operator,
    check_projections,
    operator_from_json,
    operator_norm,
    require_same_dim,
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

    @property
    def satisfiable(self) -> bool:
        return bool(self.solutions)


def _dedup(stack, tol):
    """First-wins clustering of a (m, n, n) stack within spectral distance ``tol``.

    Returns the stack positions of the representatives and, for every
    operator, the index of its representative: the first one within
    ``tol``. Each operator takes its Frobenius distances to the
    representatives so far in one pass; since |X|_F <= sqrt(n) |X|, only
    those within sqrt(n) tol (plus a roundoff margin) can be within ``tol``,
    and ``operator_norm`` confirms them in order.
    """
    reach = math.sqrt(stack.shape[-1]) * tol * (1 + 1e-12)
    reps = np.empty_like(stack)
    first: list[int] = []
    index_map: list[int] = []
    for i, op in enumerate(stack):
        near = np.flatnonzero(np.linalg.norm(reps[:len(first)] - op, axis=(1, 2)) <= reach)
        j = next((int(j) for j in near if operator_norm(op - reps[j]) <= tol), None)
        if j is None:
            j = len(first)
            reps[j] = op
            first.append(i)
        index_map.append(j)
    return first, index_map


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


def build_problem(operators, resolutions=None, *, discover=False,
                  dedup_tol=SPECTRAL_TOL,
                  node_budget=DEFAULT_DISCOVERY_BUDGET) -> ValuationProblem:
    """Validate, deduplicate, and assemble a problem.

    Operators closer than ``dedup_tol`` collapse to one universe element and
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

    first, index_map = _dedup(stack, dedup_tol)
    reps = stack[first]
    rep_ranks = [ranks[i] for i in first]

    ident = np.eye(dim)
    resolved: set[tuple[int, ...]] = set()
    try:
        resolutions = list(resolutions or ())
    except TypeError:
        raise ValidationError("resolutions must be a list of index lists") from None
    for res in resolutions:
        mapped = tuple(sorted(index_map[i] for i in _universe_indices(res, len(ops))))
        if len(set(mapped)) != len(mapped):
            raise ValidationError("resolution lists the same projection twice")
        total = sum(reps[j] for j in mapped)
        if operator_norm(total - ident) > SPECTRAL_TOL:
            raise ValidationError("resolution members do not sum to the identity")
        resolved.add(mapped)

    if discover:
        resolved.update(
            discover_resolutions(reps, rep_ranks, node_budget=node_budget)
        )
    reps.flags.writeable = False
    return ValuationProblem(tuple(reps), tuple(sorted(resolved)), dim)


def discover_resolutions(operators, ranks=None, *,
                         node_budget=DEFAULT_DISCOVERY_BUDGET):
    """Find every subset of the universe that sums to the identity.

    Returns index tuples in lexicographic order. When every element has
    rank 1 the candidates are the ``dim``-cliques of an orthogonality graph
    built from one overlap table (see ``_rank_one_resolutions``); otherwise
    a depth-first scan over increasing indices drops a branch as soon as
    the remainder I - S stops being positive semidefinite or the ranks
    overshoot the dimension. Raises SearchCapError when the node budget
    (partial cliques, or scan nodes) runs out.
    """
    ops = [as_operator(o) for o in operators]
    if not ops:
        return []
    dim = require_same_dim(*ops)
    ops = np.array(ops)
    if ranks is None:
        ranks = check_projections(ops)
    if all(r == 1 for r in ranks):
        return _rank_one_resolutions(ops, node_budget)
    ident = np.eye(dim)
    found: list[tuple[int, ...]] = []
    nodes = 0
    # levels still to scan, deepest last: (next index, chosen, partial sum, rank)
    pending = [(0, (), np.zeros((dim, dim), dtype=complex), 0)]
    while pending:
        start, chosen, total, rank = pending.pop()
        for j in range(start, len(ops)):
            nodes += 1
            if nodes > node_budget:
                raise SearchCapError(
                    f"resolution discovery exceeded {node_budget} nodes"
                )
            r = rank + ranks[j]
            if r > dim:
                continue
            s = total + ops[j]
            gap = ident - s
            if float(np.linalg.eigvalsh(gap)[0]) < -SPECTRAL_TOL:
                continue
            if r == dim:
                if operator_norm(gap) <= SPECTRAL_TOL:
                    found.append(chosen + (j,))
                continue
            # descend into j; this level resumes at j + 1 once that subtree is done
            pending += [(j + 1, chosen, total, rank), (j + 1, chosen + (j,), s, r)]
            break
    return found


def _rank_one_resolutions(ops, node_budget):
    """The scan's resolutions of a (m, n, n) stack of rank-1 elements.

    Write H_c for the Hermitian part of element c, u_c for its top
    eigenvector and eta_c = |H_c - u_c u_c*|, the distance of its spectrum
    to {1} (top eigenvalue) and {0} (the rest). The scan accepts a set T of
    n elements only if |I - S| <= tol for S their sum. The Hermitian part
    of a matrix has at most its norm, so |I - sum H_c| <= tol, and by Weyl
    |I - U U*| <= tol + sum_T eta_c for U = [u_c]. U U* and the Gram matrix
    U* U share their eigenvalues, and an off-diagonal entry is at most the
    norm, so every pair a, b in T has
        |<u_a, u_b>| <= tol + eta_a + eta_b + (n - 2) max eta.
    These pairs are the edges of the orthogonality graph, so every accepted
    set is an n-clique. Each clique found (in lexicographic order, one node
    per partial clique) then passes through the scan's own checks on the
    same prefix sums: no prefix remainder with an eigenvalue below -tol, and
    |I - S| <= tol. The output is therefore the scan's, element for element.
    """
    m, dim = len(ops), ops.shape[-1]
    w, v = np.linalg.eigh((ops + ops.conj().swapaxes(-1, -2)) / 2)
    vecs = v[..., -1]
    eta = np.maximum(np.abs(w[:, -1] - 1), np.abs(w[:, :-1]).max(axis=1, initial=0.0))
    # 1e-12 lies far above the roundoff of the eigenvectors and their overlaps
    slack = SPECTRAL_TOL + max(dim - 2, 0) * eta.max() + 1e-12
    cols = np.arange(m)
    above = []  # bitset of the neighbours j > i of each element i
    step = max(1, (1 << 20) // m)
    for lo in range(0, m, step):
        rows = cols[lo:lo + step]
        overlap = np.abs(vecs[rows].conj() @ vecs.T)
        near = (overlap <= slack + eta[rows, None] + eta[None, :]) & (cols > rows[:, None])
        for bits in np.packbits(near, axis=1, bitorder="little"):
            above.append(int.from_bytes(bits.tobytes(), "little"))

    cliques: list[tuple[int, ...]] = []
    nodes = 0
    # partial cliques still to extend, deepest last: (clique, bitset of extensions)
    pending = [((), (1 << m) - 1)]
    while pending:
        chosen, cand = pending.pop()
        if not cand:
            continue
        j = (cand & -cand).bit_length() - 1
        pending.append((chosen, cand & (cand - 1)))
        nodes += 1
        if nodes > node_budget:
            raise SearchCapError(f"resolution discovery exceeded {node_budget} nodes")
        clique = chosen + (j,)
        if len(clique) == dim:
            cliques.append(clique)
            continue
        ext = cand & above[j]
        if ext.bit_count() >= dim - len(clique):
            pending.append((clique, ext))
    if not cliques:
        return []
    gaps = np.eye(dim) - np.cumsum(ops[np.array(cliques)], axis=1)
    prefix_ok = ~(np.linalg.eigvalsh(gaps)[..., 0] < -SPECTRAL_TOL).any(axis=1)
    keep = prefix_ok & (spectral_norms(gaps[:, -1]) <= SPECTRAL_TOL)
    return [c for c, ok in zip(cliques, keep) if ok]


def find_truth_functions(problem: ValuationProblem, limit=None,
                         node_budget=DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Enumerate truth functions by backtracking with unit propagation.

    Setting an element to 1 zeroes the rest of its resolutions; a resolution
    down to one undecided element with no 1 yet forces that element. The
    search is deterministic: lowest undecided index first, 0 before 1.
    ``limit`` stops the enumeration once that many solutions are in hand;
    a run cut short reports exhausted False.
    """
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
            if nodes > node_budget:
                raise SearchCapError(f"truth-function search exceeded {node_budget} nodes")
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

    members = family.members if count is None else family.members[:count]
    if not members:
        raise ValidationError("family slice is empty")
    operators = []
    resolutions = []
    n = family.dim
    for k, member in enumerate(members):
        atoms = atom_projections(member.basis)
        operators.extend(atoms[i] for i in range(n))
        resolutions.append(list(range(k * n, (k + 1) * n)))
    return build_problem(operators, resolutions)


def load_fixture(path) -> ValuationProblem:
    """Read a problem from JSON.

    Two layouts: {"dim", "vectors", "resolutions"?} with rank-1 projections
    built from (unnormalized, real or [re, im]) vectors, or
    {"dim", "operators", "resolutions"?} with full operator payloads. A
    missing resolutions key triggers discovery.
    """
    try:
        data = json.loads(Path(path).read_text())
        dim = int(data["dim"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"cannot read fixture {path}: {exc}") from exc
    if "vectors" in data:
        operators = []
        for entry in data["vectors"]:
            vec = np.array(
                [complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c)
                 for c in entry]
            )
            if vec.shape != (dim,):
                raise ValidationError("fixture vector has the wrong length")
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                raise ValidationError("fixture vector is numerically zero")
            vec = vec / norm
            operators.append(np.outer(vec, vec.conj()))
    elif "operators" in data:
        operators = [operator_from_json(entry) for entry in data["operators"]]
    else:
        raise ValidationError("fixture needs a vectors or operators key")
    resolutions = data.get("resolutions")
    return build_problem(operators, resolutions, discover=resolutions is None)
