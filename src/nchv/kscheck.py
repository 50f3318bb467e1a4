"""Truth-function search over finite sets of projections.

A problem is a finite universe of projections together with a list of
resolutions of the identity drawn from it. A truth function assigns 0 or 1
to every universe element so that each resolution carries exactly one 1.
Kochen-Specker style obstructions show up as problems with no truth
function at all; the search here either enumerates the solutions or
certifies that none exist.

Resolutions can be handed in explicitly or discovered by a depth-first
scan over the universe with positivity pruning.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SearchCapError, ValidationError
from .opcore import (
    SPECTRAL_TOL,
    as_operator,
    check_projection,
    operator_from_json,
    operator_norm,
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


def _dedup(ops, tol):
    reps: list[np.ndarray] = []
    index_map: list[int] = []
    for op in ops:
        for j, rep in enumerate(reps):
            if operator_norm(op - rep) <= tol:
                index_map.append(j)
                break
        else:
            index_map.append(len(reps))
            reps.append(op)
    return reps, index_map


def build_problem(operators, resolutions=None, *, discover=False,
                  dedup_tol=SPECTRAL_TOL,
                  node_budget=DEFAULT_DISCOVERY_BUDGET) -> ValuationProblem:
    """Validate, deduplicate, and assemble a problem.

    Operators closer than ``dedup_tol`` collapse to one universe element and
    resolution indices are remapped accordingly. With ``discover`` set, every
    subset of the universe resolving the identity is added as a resolution.
    """
    ops = [as_operator(o) for o in operators]
    if not ops:
        raise ValidationError("empty projection universe")
    dim = ops[0].shape[0]
    ranks = []
    for op in ops:
        if op.shape[0] != dim:
            raise ValidationError("universe operators have mixed dimensions")
        ranks.append(check_projection(op))

    reps, index_map = _dedup(ops, dedup_tol)
    rep_ranks = [ranks[index_map.index(j)] for j in range(len(reps))]

    ident = np.eye(dim)
    resolved: set[tuple[int, ...]] = set()
    for res in resolutions or ():
        mapped = tuple(sorted(index_map[int(i)] for i in res))
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
    frozen = []
    for rep in reps:
        rep = rep.copy()
        rep.flags.writeable = False
        frozen.append(rep)
    return ValuationProblem(tuple(frozen), tuple(sorted(resolved)), dim)


def discover_resolutions(operators, ranks=None, *,
                         node_budget=DEFAULT_DISCOVERY_BUDGET):
    """Find every subset of the universe that sums to the identity.

    Depth-first over increasing indices; a branch dies as soon as the
    remainder I - S stops being positive semidefinite or the ranks overshoot
    the dimension. Raises SearchCapError when the node budget runs out.
    """
    ops = [as_operator(o) for o in operators]
    if ranks is None:
        ranks = [check_projection(o) for o in ops]
    dim = ops[0].shape[0]
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
