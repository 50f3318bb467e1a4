"""Random quantum objects for tests; every function takes an explicit rng."""

import math
from fractions import Fraction
from itertools import combinations, permutations

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
