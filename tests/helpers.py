"""Random quantum objects for tests; every function takes an explicit rng."""

import copy
import functools
import json
import math
import re
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np


def random_density(n, rng):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    d = x @ x.conj().T
    return d / np.trace(d).real


def random_hermitian(n, rng, scale=1.0):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (z + z.conj().T) / 2


def commutator(a, b):
    """[a, b] = ab - ba, the brute-force oracle for the batched commutator scans."""
    return a @ b - b @ a


def random_resolution(n, k, rng):
    """k positive operators summing to I: Wishart pieces whitened by their sum."""
    pieces = []
    for _ in range(k):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        pieces.append(x @ x.conj().T)
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return [whiten @ p @ whiten for p in pieces]


def reference_pvm_matches(observable, family):
    """Per-member loop the batched projective match must agree with.

    For each member, in family order: the maximal-overlap assignment of
    target eigenprojections to atoms, and the largest spectral distance
    between matched projections, one ``operator_norm`` (an SVD) per atom.
    """
    from scipy.optimize import linear_sum_assignment

    from nchv.opcore import atom_projections, operator_norm

    targets = np.array(observable.projections)
    matches = []
    for member in family.members:
        atoms = atom_projections(member.basis)
        overlap = np.einsum("iab,jba->ij", targets, atoms).real
        _, cols = linear_sum_assignment(-overlap)
        dist = max(operator_norm(targets[i] - atoms[c]) for i, c in enumerate(cols))
        matches.append((member.index, tuple(int(c) for c in cols), float(dist)))
    return matches


def reference_grouped_outcomes(cand_ids, dists, rng):
    """Per-candidate sampler the one-draw sampler must agree with.

    Candidate by candidate, in index order: draw one uniform per trial of
    that candidate and look each up in the cumulative weights, whose last
    entry is pinned at 1.
    """
    out = np.empty(len(cand_ids), dtype=np.int64)
    for c, dist in enumerate(dists):
        sel = np.flatnonzero(cand_ids == c)
        if sel.size == 0:
            continue
        cum = np.cumsum(dist)
        cum[-1] = 1.0
        out[sel] = np.searchsorted(cum, rng.random(sel.size), side="right")
    return out


def reference_block_assignment(values, n):
    """Law-by-law check the point-evaluation check must agree with.

    Every partition of the atoms gets total value exactly 1, complements map
    to 1 - value, and products (mask intersections) multiply; a value
    outside {0, 1} fails.
    """
    from nchv.errors import ValidationError
    from nchv.pba import atom_partitions

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


def reference_minor(rows, idx):
    """Determinant of the principal submatrix of ``rows`` on ``idx``.

    ``rows`` holds (re, im) pairs of integers or Fractions; returns an (re, im)
    pair. Laplace expansion along the first remaining row, memoized on the
    set of columns left, so an s x s minor costs about s 2**s products and no
    division.
    """
    @functools.cache
    def det(cols):
        if not cols:
            return 1, 0
        row = rows[idx[len(idx) - len(cols)]]
        total_re = total_im = 0
        for k, c in enumerate(cols):
            x, y = row[c]
            if x or y:
                re, im = det(cols[:k] + cols[k + 1:])
                sign = -1 if k % 2 else 1
                total_re += sign * (x * re - y * im)
                total_im += sign * (x * im + y * re)
        return total_re, total_im

    return det(tuple(idx))


def reference_semidefinite(rows):
    """Positive semidefiniteness of a Hermitian matrix of (re, im) Fraction pairs.

    Sylvester's criterion: every principal minor is nonnegative. The minors
    are taken of the matrix times the common denominator of its entries,
    which scales each by a positive factor and leaves integer entries.
    """
    n = len(rows)
    den = math.lcm(*(q.denominator for row in rows for entry in row for q in entry))
    ints = [[(int(re * den), int(im * den)) for re, im in row] for row in rows]
    subsets = [idx for size in range(1, n + 1) for idx in combinations(range(n), size)]
    return all(reference_minor(ints, idx)[0] >= 0 for idx in subsets)


def _reference_grid_scaled(mat, bits):
    from nchv.errors import ValidationError

    with np.errstate(over="ignore"):
        re, im = mat.real * 2.0**bits, mat.imag * 2.0**bits
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError(f"cannot rationalize an entry not finite on the 2**-{bits} grid")
    return re, im


def reference_norm_at_most(op, bound):
    """|op| <= bound through positivity of bound*I - op and bound*I + op, operator by operator."""
    from nchv.errors import ValidationError
    from nchv.povmfamily import RationalOperator

    if not op.is_hermitian():
        raise ValidationError("norm bound check requires a Hermitian operator")
    b = RationalOperator.identity(op.n).scale(Fraction(bound))
    return (b - op).is_positive_semidefinite() and (b + op).is_positive_semidefinite()


def reference_rationalize_po(target, delta):
    """One operator at a time, the snap of one positive operator within ``delta``.

    The recipe ``povmfamily.rationalize_po`` must agree with, value for value
    and error type for error type: one Hermiticity check, one ``eigh`` and
    one grid rounding per operator, arithmetic on ``RationalOperator``s.
    """
    from nchv.errors import PrecisionError, ValidationError
    from nchv.opcore import as_operator, dagger, operator_norm
    from nchv.povmfamily import RationalOperator, is_admissible

    mat = as_operator(target)
    n = mat.shape[0]
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if not np.max(np.abs(mat - dagger(mat))) <= 1e-9:
        raise ValidationError("target must be Hermitian within 1e-9")
    re, im = _reference_grid_scaled(mat, 32)
    w, v = np.linalg.eigh((mat + dagger(mat)) / 2)
    if w.min() < -1e-8:
        raise ValidationError("target must be positive within tolerance")

    if np.array_equal(np.rint(re), re) and np.array_equal(np.rint(im), im):
        exact = RationalOperator(np.rint(re), np.rint(im), 2**32)
        if is_admissible(exact):
            return exact
    w = np.clip(w, 0.0, None)
    factor = (np.sqrt(w)[:, None]) * dagger(v)
    norm_x = math.sqrt(w.max())
    bits = math.ceil(math.log2(4 * n * (norm_x + 1) / delta))
    bits = max(0, min(bits, 32))
    rounded = RationalOperator(*map(np.rint, _reference_grid_scaled(factor, bits)), 2**bits)
    base = rounded.dagger() @ rounded
    c = (2 * n - 1).bit_length()
    bump = RationalOperator([[2**c * (a == b) + 1 for b in range(n)] for a in range(n)],
                            [[0] * n] * n, 2**c)
    weight0 = Fraction(2) ** -math.ceil(math.log2(6 / delta))
    if weight0.denominator > 2**32:
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


def reference_snap(mats, eps):
    """Member by member, the snap of a proved resolution ``povmfamily._snap`` must reproduce.

    Each shrunk target goes through ``reference_rationalize_po``; the sum,
    the gap certificate, the mixing weights and the members are
    ``RationalOperator`` arithmetic, and every member's shift is one SVD.
    Returns (RationalResolution, SnapDiagnostics).
    """
    from nchv.errors import PrecisionError
    from nchv.opcore import as_operator, operator_norm
    from nchv.povmfamily import RationalOperator, RationalResolution, SnapDiagnostics

    mats = [as_operator(m) for m in mats]
    k, n = len(mats), len(mats[0])
    bound = (Fraction(eps).limit_denominator(10**6) or Fraction(eps)) * Fraction(3, 4)
    while bound and not float(bound) < eps:
        bound /= 2
    if bound < Fraction(1, 10**18):
        raise PrecisionError("eps too small to bracket with a rational bound")
    delta = min(bound / (2 + 2 * k), Fraction(1, 4 * k))
    reach = k * delta
    shrink = 1 - Fraction(1, 2 ** ((reach.denominator // reach.numerator).bit_length() - 1))

    primed = [reference_rationalize_po(float(shrink) * m, float(delta)) for m in mats]
    total = sum(primed[1:], primed[0])
    ident = RationalOperator.identity(n)
    gap_ok = reference_norm_at_most(total - ident.scale(shrink), reach)
    if not gap_ok:
        raise PrecisionError("rationalized sum strayed farther from (1-u) I than k*delta")
    gap = ident - total

    coeffs = list(range(1, k)) + [-k * (k - 1) // 2]
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


def _rational_json(q):
    return {"num": q.numerator, "den": q.denominator}


def saved_layout_registry():
    """Registry object in the saved layout, one entry of index 9, whose base
    has coprime entry denominators (3, 5, 7) that are not powers of two.

    The base is A = [[1/3, 1/7 + i/5], [1/7 - i/5, 1/3]] and I - A; both are
    positive definite with every entry nonzero.
    """
    third, seventh, fifth = Fraction(1, 3), Fraction(1, 7), Fraction(1, 5)
    a = [[(third, Fraction(0)), (seventh, fifth)], [(seventh, -fifth), (third, Fraction(0))]]
    b = [[((r == c) - re, -im) for c, (re, im) in enumerate(row)] for r, row in enumerate(a)]
    members = [
        {"dim": 2, "entries": [[{"re": _rational_json(re), "im": _rational_json(im)}
                                for re, im in row] for row in m]}
        for m in (a, b)
    ]
    base = {"dim": 2, "k": 2, "members": members}
    theta = math.asin((math.pi / 4.0) ** 9)
    return {"dim": 2, "entries": [{"index": 9, "theta": theta, "base": base}]}


def reference_dedup(ops, tol):
    """All-pairs clustering the batched dedup must agree with: each operator
    joins the first representative within ``tol`` (one ``operator_norm``
    per pair), or becomes a new one."""
    from nchv.opcore import operator_norm

    reps, index_map = [], []
    for op in ops:
        for j, rep in enumerate(reps):
            if operator_norm(op - rep) <= tol:
                index_map.append(j)
                break
        else:
            index_map.append(len(reps))
            reps.append(op)
    return reps, index_map


def reference_spectral_distances(first, second=None, owners=None):
    """Every pair ``spectral_distances`` may report, with one ``operator_norm`` per operator pair.

    Maps (i, j) to the largest spectral norm of first[i] - second[j] over the
    middle axes; without ``second``, the pairs of ``first`` with i > j and,
    with ``owners``, different labels.
    """
    from nchv.opcore import operator_norm

    a = np.asarray(first, dtype=complex)
    b = a if second is None else np.asarray(second, dtype=complex)
    n = a.shape[-1]
    out = {}
    for i in range(len(a)):
        for j in range(i if second is None else len(b)):
            if owners is not None and owners[i] == owners[j]:
                continue
            diffs = (a[i] - b[j]).reshape(-1, n, n)
            out[i, j] = max(operator_norm(d) for d in diffs)
    return out


def reference_discover_resolutions(ops, ranks, node_budget=200_000):
    """Depth-first scan over increasing indices that rank-1 discovery must agree with.

    A branch dies once I - S has an eigenvalue below -SPECTRAL_TOL or the
    ranks overshoot the dimension; a set of full rank is a resolution when
    |I - S| <= SPECTRAL_TOL. One ``eigvalsh`` per node.
    """
    from nchv.errors import SearchCapError
    from nchv.opcore import SPECTRAL_TOL, operator_norm

    dim = ops[0].shape[0]
    ident = np.eye(dim)
    found, nodes = [], 0
    pending = [(0, (), np.zeros((dim, dim), dtype=complex), 0)]
    while pending:
        start, chosen, total, rank = pending.pop()
        for j in range(start, len(ops)):
            nodes += 1
            if nodes > node_budget:
                raise SearchCapError("reference discovery ran out of nodes")
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
            pending += [(j + 1, chosen, total, rank), (j + 1, chosen + (j,), s, r)]
            break
    return found


def reference_truth_functions(problem, limit=None):
    """The plain depth-first truth-function search that the replaying one must agree with.

    Backtracking with unit propagation, lowest undecided index first, 0
    before 1, and every subtree searched anew wherever it is reached.
    Returns (solutions, exhausted, nodes) and raises the same
    SearchCapError once ``kscheck.DEFAULT_SEARCH_BUDGET``, read at call
    time, is exceeded.
    """
    from nchv import kscheck
    from nchv.errors import SearchCapError

    n = problem.size
    ctxs = [list(r) for r in problem.resolutions]
    var_ctxs = [[] for _ in range(n)]
    for ci, ctx in enumerate(ctxs):
        for v in ctx:
            var_ctxs[v].append(ci)

    values = [-1] * n
    ones = [0] * len(ctxs)
    undecided = [len(c) for c in ctxs]
    trail = []
    solutions = []
    nodes = 0

    def assign(var, val):
        queue = [(var, val)]
        while queue:
            v, x = queue.pop()
            if values[v] != -1:
                if values[v] != x:
                    return False
                continue
            values[v] = x
            trail.append(v)
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

    pending = [(0, None, None)]
    while pending:
        mark, var, val = pending.pop()
        undo(mark)
        if var is not None:
            nodes += 1
            if nodes > kscheck.DEFAULT_SEARCH_BUDGET:
                raise SearchCapError(
                    f"truth-function search exceeded {kscheck.DEFAULT_SEARCH_BUDGET} nodes")
            if not assign(var, val):
                continue
        var = next((i for i in range(n) if values[i] == -1), None)
        if var is None:
            solutions.append(tuple(values))
            if limit is not None and len(solutions) >= limit:
                return tuple(solutions), False, nodes
        else:
            pending += [(len(trail), var, 1), (len(trail), var, 0)]
    return tuple(solutions), True, nodes


def rational_sphere_rays(bound):
    """Primitive integer rays (a, b, c), first nonzero coordinate positive,
    |coordinates| <= bound, whose squared norm is a perfect square."""
    rays = []
    for a in range(bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                ray = (a, b, c)
                if ray == (0, 0, 0) or math.gcd(a, b, c) != 1:
                    continue
                if next(x for x in ray if x) < 0:
                    continue
                sq = a * a + b * b + c * c
                if math.isqrt(sq) ** 2 == sq:
                    rays.append(ray)
    return rays


def integer_orthogonal_triads(rays):
    """Sorted index triples of pairwise orthogonal integer rays, by exact dot products."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    adj = [{j for j, v in enumerate(rays) if j > i and dot(u, v) == 0} for i, u in enumerate(rays)]
    return [(i, j, k) for i in range(len(rays)) for j in sorted(adj[i])
            for k in sorted(adj[i] & adj[j])]


def peres_33_rays():
    """Peres' 33 rays in dimension 3 (J. Phys. A 24, L175, 1991), up to sign: the
    permutations and sign changes of (1, 0, 0), (1, 1, 0), (1, sqrt2, 0) and
    (1, 1, sqrt2)."""
    rays = set()
    for comps in ((1, 0, 0), (1, 1, 0), (1, 2, 0), (1, 1, 2)):
        for perm in permutations(comps):
            for signs in product((1, -1), repeat=3):
                # 2 stands for sqrt(2); each ray is stored with its first nonzero sign +
                ray = tuple(s * x for s, x in zip(signs, perm))
                if next(x for x in ray if x) > 0:
                    rays.add(ray)
    return [tuple(math.copysign(math.sqrt(2), x) if abs(x) == 2 else float(x) for x in ray)
            for ray in sorted(rays)]


def rank_one_projections(vectors):
    """Normalised outer products v v* of real or complex vectors."""
    out = []
    for vec in vectors:
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return out


# Mutation catalogue of the input fuzz. Each entry is (name, nodes it applies
# to, replacement). A replacement string between two "\x01" is written to the
# file as a bare JSON token rather than as a string.
FUZZ_DEPTH = 10**5
FUZZ_TOKENS = {"Infinity": "Infinity", "NaN": "NaN", "1e400": "1e400",
               "deep": "[" * FUZZ_DEPTH + "]" * FUZZ_DEPTH}
FUZZ_MUTATIONS = (
    ("infinity", "any", "\x01Infinity\x01"),
    ("nan", "any", "\x01NaN\x01"),
    ("overflowing-literal", "any", "\x011e400\x01"),
    ("huge", "any", 1e308),
    ("negative-huge", "any", -1e308),
    ("big-integer", "any", 2**70),
    ("fraction-for-integer", "integer", 2.7),
    ("string", "any", "3"),
    ("null", "any", None),
    ("list", "any", [1, [2.5]]),
    ("object", "any", {"dim": 2}),
    ("dropped-key", "keyed", None),
    ("grown-list", "list", None),
    ("deep-nesting", "any", "\x01deep\x01"),
)


def _json_nodes(value, path=()):
    """(path, value) of every node of a decoded JSON value, root first, in document order."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _json_nodes(child, path + (key,))


def _applies(kind, path, value):
    if kind == "integer":
        return type(value) is int
    if kind == "keyed":
        return isinstance(path[-1], str)
    if kind == "list":
        return isinstance(value, list)
    return True


def mutate_json(value, rng):
    """JSON text of ``value`` after one mutation of FUZZ_MUTATIONS, drawn with ``rng``
    (a ``random.Random``), at one node it applies to, drawn alike; returns (name, path, text)."""
    name, kind, new = FUZZ_MUTATIONS[rng.randrange(len(FUZZ_MUTATIONS))]
    # the root sits in a one-item holder list, so every node has a parent
    holder = [copy.deepcopy(value)]
    path = rng.choice([p for p, v in _json_nodes(holder) if p and _applies(kind, p, v)])
    parent = holder
    for key in path[:-1]:
        parent = parent[key]
    if kind == "keyed":
        del parent[path[-1]]
    elif kind == "list":
        grown = parent[path[-1]]
        grown.append(copy.deepcopy(grown[-1]) if grown else 0)
    else:
        parent[path[-1]] = new
    text = re.sub(r'"\\u0001(\w+)\\u0001"', lambda m: FUZZ_TOKENS[m.group(1)], json.dumps(holder[0]))
    return name, path[1:], text
