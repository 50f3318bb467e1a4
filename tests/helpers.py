"""Random quantum objects for tests; every function takes an explicit rng."""

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
