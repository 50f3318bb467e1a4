"""Random quantum objects for tests; every function takes an explicit rng."""

import math
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


def reference_minor(rows, idx):
    """Leibniz determinant of the principal submatrix of ``rows`` on ``idx``.

    ``rows`` holds (re, im) Fraction pairs; returns an (re, im) pair.
    """
    total_re, total_im = Fraction(0), Fraction(0)
    for perm in permutations(range(len(idx))):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(len(perm)), 2))
        re, im = Fraction((-1) ** inversions), Fraction(0)
        for a, b in enumerate(perm):
            x, y = rows[idx[a]][idx[b]]
            re, im = re * x - im * y, re * y + im * x
        total_re, total_im = total_re + re, total_im + im
    return total_re, total_im


def reference_definiteness(rows):
    """(PSD, PD) of a Hermitian matrix of (re, im) Fraction pairs by Sylvester's criterion.

    Positive semidefinite iff every principal minor is nonnegative, positive
    definite iff every leading principal minor is positive.
    """
    n = len(rows)
    subsets = [idx for size in range(1, n + 1) for idx in combinations(range(n), size)]
    psd = all(reference_minor(rows, idx)[0] >= 0 for idx in subsets)
    pd = all(reference_minor(rows, tuple(range(size)))[0] > 0 for size in range(1, n + 1))
    return psd, pd


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
