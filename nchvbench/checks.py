"""The benchmark's own reference computations and seeded input generators.

Nothing here calls nchv: the outputs of the program are compared with
quantities computed from scratch, with plain numpy for the float side and
``fractions.Fraction`` for the exact side, or with properties the method
must have.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np


class CheckFailure(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(cond, message):
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# float side


def spectral_norms(stack):
    """Largest singular value of each matrix in a (..., n, n) stack."""
    return np.linalg.norm(stack, ord=2, axis=(-2, -1))


def bases_from_family_json(path):
    """(n, [basis matrices], raw object) parsed from a family file."""
    obj = json.loads(Path(path).read_text())
    mats = []
    for entry in obj["members"]:
        cols = [np.array(v["re"]) + 1j * np.array(v["im"]) for v in entry["basis"]["vectors"]]
        mats.append(np.column_stack(cols))
    return int(obj["n"]), mats, obj


def subset_projection_stack(basis):
    """Projections onto every nonempty proper subset of the basis columns."""
    n = basis.shape[0]
    out = []
    for size in range(1, n):
        for cols in itertools.combinations(range(n), size):
            v = basis[:, cols]
            out.append(v @ v.conj().T)
    return np.array(out)


def min_pair_commutators(bases):
    """Minimum |[P, Q]| over subset projections, for every unordered member pair."""
    stacks = [subset_projection_stack(b) for b in bases]
    minima = []
    for i in range(len(stacks) - 1):
        a = stacks[i]
        rest = np.array(stacks[i + 1:])                     # (m, s, n, n)
        ab = np.einsum("pij,msjk->mpsik", a, rest)
        ba = np.einsum("msij,pjk->mpsik", rest, a)
        norms = spectral_norms(ab - ba).reshape(len(rest), -1)
        minima.extend(norms.min(axis=1))
    return np.array(minima)


def projection_distances(target_basis, member_bases):
    """Per member: min over atom matchings of max_i |P_i - Q_sigma(i)|.

    Returns the distances and the minimizing matching of every member.
    """
    n = target_basis.shape[0]
    tp = np.einsum("ai,bi->iab", target_basis, target_basis.conj())
    mb = np.asarray(member_bases)
    mp = np.einsum("mai,mbi->miab", mb, mb.conj())
    pair = spectral_norms(tp[None, :, None] - mp[:, None, :])    # (member, label, atom)
    perms = np.array(list(itertools.permutations(range(n))))
    cost = pair[:, np.arange(n)[None, :], perms].max(axis=2)     # (member, perm)
    best = cost.argmin(axis=1)
    return cost[np.arange(len(mb)), best], [tuple(perms[b]) for b in best]


def born_in_label_order(density, member_basis, perm):
    """Tr(rho v v^dagger) of the atom carrying each target label."""
    w = np.einsum("ji,jk,ki->i", member_basis.conj(), density, member_basis).real
    return np.array([w[perm[i]] for i in range(len(perm))])


def tv_bound(n_trials, k, delta=1e-9):
    """Total-variation radius that an empirical distribution of ``n_trials``
    draws over ``k`` outcomes exceeds with probability below ``delta``
    (the L1 deviation inequality of Weissman et al., 2003)."""
    return 0.5 * math.sqrt(2.0 * (k * math.log(2.0) + math.log(1.0 / delta)) / n_trials)


def random_density(n, rng):
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d = x @ x.conj().T
    return d / np.trace(d).real


def random_resolution(n, k, rng):
    """k positive operators summing to I: Wishart pieces whitened by their sum."""
    pieces = []
    for _ in range(k):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pieces.append(x @ x.conj().T)
    w, v = np.linalg.eigh(sum(pieces))
    whiten = (v / np.sqrt(w)) @ v.conj().T
    return [whiten @ p @ whiten for p in pieces]


def random_unitary_near(n, radius, rng):
    """exp(iH) with |I - U| below ``radius`` for a random Hermitian H."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w, v = np.linalg.eigh((z + z.conj().T) / 2)
    t = radius / np.max(np.abs(w)) * 0.99
    return (v * np.exp(1j * t * w)) @ v.conj().T


def operator_json(mat):
    return {"dim": mat.shape[0], "re": [float(x) for x in mat.real.ravel()],
            "im": [float(x) for x in mat.imag.ravel()]}


# ---------------------------------------------------------------------------
# exact side: complex rationals as (re, im) Fraction pairs


def rational_matrix(obj):
    """Rows of (re, im) Fractions from a snapped-operator JSON object."""
    return [[(Fraction(e["re"]["num"], e["re"]["den"]), Fraction(e["im"]["num"], e["im"]["den"]))
             for e in row] for row in obj["entries"]]


def exact_identity_sum(members):
    n = len(members[0])
    for a in range(n):
        for b in range(n):
            re = sum(m[a][b][0] for m in members)
            im = sum(m[a][b][1] for m in members)
            if re != (1 if a == b else 0) or im != 0:
                return False
    return True


def exact_hermitian(m):
    n = len(m)
    return all(m[a][b][0] == m[b][a][0] and m[a][b][1] == -m[b][a][1]
               for a in range(n) for b in range(a, n))


def no_zero_entry(m):
    return all(e[0] != 0 or e[1] != 0 for row in m for e in row)


def exact_psd(m):
    """Exact positive semidefiniteness of a Hermitian complex rational matrix.

    Symmetric elimination: a positive pivot is eliminated, a zero pivot
    requires its whole remaining row to vanish, a negative pivot refutes.
    """
    n = len(m)
    a = [[list(e) for e in row] for row in m]
    for k in range(n):
        piv = a[k][k][0]
        if piv < 0:
            return False
        if piv == 0:
            if any(a[k][j][0] != 0 or a[k][j][1] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            fr, fi = a[i][k][0] / piv, a[i][k][1] / piv          # a_ik / a_kk
            if fr == 0 and fi == 0:
                continue
            for j in range(k + 1, n):
                xr, xi = a[k][j]
                a[i][j][0] -= fr * xr - fi * xi
                a[i][j][1] -= fr * xi + fi * xr
    return True


def rational_to_float(m):
    return np.array([[float(e[0]) + 1j * float(e[1]) for e in row] for row in m])


def check_rational_base(members, targets, eps, label, tag_index=None):
    """Exact sum, Hermiticity, nonzero entries, PSD; float distance to targets.

    With ``tag_index`` the members are conjugated by the registry's phase
    tag diag(e^{i theta}, 1, ...), sin theta = (pi/4)**index, before the
    distance check. Returns the largest denominator bit length seen and
    the members as float matrices (tagged when ``tag_index`` is given).
    """
    require(exact_identity_sum(members), f"{label}: members do not sum exactly to I")
    bits = 0
    floats = []
    for i, m in enumerate(members):
        require(exact_hermitian(m), f"{label}: member {i} is not exactly Hermitian")
        require(no_zero_entry(m), f"{label}: member {i} has a zero entry")
        require(exact_psd(m), f"{label}: member {i} is not PSD")
        bits = max(bits, max(q.denominator.bit_length() for row in m for e in row for q in e))
        floats.append(rational_to_float(m))
    if tag_index is not None:
        theta = math.asin((math.pi / 4.0) ** tag_index)
        tag = np.eye(len(members[0]), dtype=complex)
        tag[0, 0] = complex(math.cos(theta), math.sin(theta))
        floats = [tag @ f @ tag.conj().T for f in floats]
    dist = max(float(spectral_norms(f - t)) for f, t in zip(floats, targets))
    require(dist < eps, f"{label}: member {dist:.3e} from its target, eps {eps:.3e}")
    return bits, floats


def min_cross_member_distance(member_sets):
    """Smallest spectral distance between members of different resolutions."""
    flat = []
    owner = []
    for k, members in enumerate(member_sets):
        flat.extend(members)
        owner.extend([k] * len(members))
    flat = np.array(flat)
    owner = np.array(owner)
    best = np.inf
    for i in range(len(flat) - 1):
        other = owner[i + 1:] != owner[i]
        if not other.any():
            continue
        diff = flat[i + 1:][other] - flat[i]
        best = min(best, float(np.abs(np.linalg.eigvalsh(diff)).max(axis=1).min()))
    return best


# ---------------------------------------------------------------------------
# rational unit sphere and integer orthogonality


def primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    v = tuple(x // g for x in v)
    first = next(x for x in v if x != 0)
    return v if first > 0 else tuple(-x for x in v)


def rational_sphere_rays(bound):
    """Primitive integer triples, up to sign, with a perfect-square squared norm."""
    rays = []
    for a in range(0, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if (a, b, c) == (0, 0, 0) or primitive((a, b, c)) != (a, b, c):
                    continue
                s = a * a + b * b + c * c
                if math.isqrt(s) ** 2 == s:
                    rays.append((a, b, c))
    return rays


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def orthogonal_triples(rays):
    """Every set of three pairwise orthogonal rays, as sorted index triples."""
    index = {r: i for i, r in enumerate(rays)}
    out = set()
    for i, u in enumerate(rays):
        for j in range(i + 1, len(rays)):
            w = rays[j]
            if dot(u, w) != 0:
                continue
            x = primitive((u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                           u[0] * w[1] - u[1] * w[0]))
            k = index.get(x)
            if k is not None:
                out.add(tuple(sorted((i, j, k))))
    return sorted(out)


def orthogonal_tetrads(rays):
    """Every set of four pairwise orthogonal rays in dimension 4, by brute force."""
    out = []
    for quad in itertools.combinations(range(len(rays)), 4):
        if all(dot(rays[a], rays[b]) == 0 for a, b in itertools.combinations(quad, 2)):
            out.append(quad)
    return out


def peres_24_rays():
    """Peres' 24 rays in dimension 4 (J. Phys. A 24, L175, 1991), up to sign."""
    rays = set()
    for i in range(4):
        rays.add(tuple(1 if j == i else 0 for j in range(4)))
    for i, j in itertools.combinations(range(4), 2):
        for s in (1, -1):
            v = [0] * 4
            v[i], v[j] = 1, s
            rays.add(tuple(v))
    for signs in itertools.product((1, -1), repeat=3):
        rays.add((1,) + signs)
    return sorted(rays)


def is_truth_function(values, resolutions):
    """Exactly one 1 in every resolution, every value 0 or 1."""
    if any(v not in (0, 1) for v in values):
        return False
    return all(sum(values[i] for i in res) == 1 for res in resolutions)
