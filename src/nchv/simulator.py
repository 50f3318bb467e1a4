"""Finite-precision measurement simulation against families and registries.

A projective request is realized by drawing uniformly among family members
whose atoms match the target's eigenprojections within the requested
precision; outcome labels ride along through a maximal-overlap assignment
between target eigenvectors and realized atoms. A positive-operator
request is served from the registry, snapping and registering a fresh
rational resolution on a cache miss. Trial statistics are compared to the
Born distribution of the realized objects.

Two seeded streams keep the randomness apart: the apparatus stream picks
realizations, the system stream picks outcomes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import linear_sum_assignment

from .basisfamily import BasisFamily, FamilyMember
from .errors import (
    DegenerateTargetError,
    NoCandidateError,
    ValidationError,
)
from .opcore import (
    ALGEBRA_TOL,
    SPECTRAL_TOL,
    HermitianObservable,
    as_operator,
    check_density,
    commutator,
    operator_norm,
    require_same_dim,
    spectral_norms,
    validate_resolution,
)
from .pba import (
    ProjectionBlock,
    TruthValuation,
    _atom_weights,
    atom_partitions,
    build_block,
)
from .povmfamily import (
    ResolutionRegistry,
    TaggedResolution,
    _draw_outcomes,
    _povm_weights,
    snap_resolution,
)

__all__ = [
    "MeasurementRequest",
    "MeasurementOutcome",
    "TrialReport",
    "SimulationContext",
    "PvmRealization",
    "pvm_candidates",
    "realize_pvm",
    "realize_povm",
    "born_probabilities",
    "joint_probability",
    "run_trials",
    "simulate_trial",
    "noncontextuality_audit",
    "run_noncontextuality_audit",
]


@dataclass(frozen=True)
class MeasurementRequest:
    """What to measure, how precisely, and with which random streams."""

    kind: str
    observable: HermitianObservable | None
    povm_targets: tuple[np.ndarray, ...] | None
    precision: float
    apparatus_seed: int
    system_seed: int

    def __post_init__(self):
        if self.kind not in ("pvm", "povm"):
            raise ValidationError(f"unknown request kind {self.kind!r}")
        if self.precision <= 0:
            raise ValidationError("precision must be positive")
        if self.kind == "pvm":
            if self.observable is None:
                raise ValidationError("projective request needs an observable")
        else:
            if not self.povm_targets:
                raise ValidationError("positive-operator request needs target operators")
            if not validate_resolution(self.povm_targets):
                raise ValidationError("targets are not a positive-operator resolution")

    @classmethod
    def pvm(cls, op, precision, apparatus_seed=0, system_seed=1):
        obs = op if isinstance(op, HermitianObservable) else HermitianObservable.from_operator(op)
        return cls("pvm", obs, None, float(precision), int(apparatus_seed), int(system_seed))

    @classmethod
    def povm(cls, targets, precision, apparatus_seed=0, system_seed=1):
        mats = tuple(as_operator(t) for t in targets)
        return cls("povm", None, mats, float(precision), int(apparatus_seed), int(system_seed))


@dataclass(frozen=True)
class MeasurementOutcome:
    label: float | int
    realized_id: int
    realized_distance: float
    trial_id: int


@dataclass(frozen=True, eq=False)
class PvmRealization:
    """A family member standing in for the target, with label plumbing.

    ``target_to_atom[i]`` is the realized atom carrying the i-th target
    eigenvalue; ``distance`` is the largest spectral gap between matched
    projections. The member's block is built on first access and kept, so
    only the candidates a run actually draws pay for one.
    """

    member: FamilyMember
    target_to_atom: tuple[int, ...]
    distance: float

    @property
    def member_index(self) -> int:
        return self.member.index

    @cached_property
    def block(self) -> ProjectionBlock:
        return build_block(self.member)


@dataclass
class SimulationContext:
    """State plus realization sources for a run."""

    density: np.ndarray
    family: BasisFamily | None = None
    registry: ResolutionRegistry | None = None
    fixed_apparatus: bool = False

    def __post_init__(self):
        self.density = check_density(self.density)


def born_probabilities(density, resolution) -> np.ndarray:
    """Born probabilities Tr(D A_i) of a positive-operator resolution."""
    d = check_density(density)
    mats = [as_operator(a) for a in resolution]
    require_same_dim(d, *mats)
    return np.array([float(np.trace(d @ a).real) for a in mats])


def joint_probability(density, first, second) -> float:
    """Tr(D P P') for a compatible projection pair."""
    d = check_density(density)
    p = as_operator(first)
    q = as_operator(second)
    require_same_dim(d, p, q)
    if operator_norm(commutator(p, q)) > ALGEBRA_TOL:
        raise ValidationError("joint probability requires commuting projections")
    return float(np.trace(d @ p @ q).real)


def pvm_candidates(observable: HermitianObservable, family: BasisFamily | None,
                   precision: float):
    """All family members realizable within ``precision``, plus the nearest miss.

    Bound first: since |v - P_i v|^2 = |v|^2 - <v, P_i v>, one product of
    the target projections with every vector of the family gives, per
    member, a squared distance that no labelling can beat: the largest,
    over rows and over columns, of the smallest such cost. The
    maximal-overlap assignment and the residual norms then run only on
    members whose bound reaches the precision or the smallest bound, and
    once more on those whose bound reaches the best distance found; a
    member skipped either way can be neither a candidate nor the nearest
    miss, so the result is that of a full pass. Each matched distance is
    the rank-1 identity |P - vv*| = |v - Pv| (the target is nondegenerate),
    which unlike sqrt(1 - overlap) stays accurate near 0. The candidates'
    atoms are checked to sum to the identity in one batched SVD; their
    blocks are built only when drawn (see ``PvmRealization``).
    """
    if family is None:
        raise ValidationError("projective request needs a family in the context")
    if not observable.is_nondegenerate():
        raise DegenerateTargetError(
            "observable has a repeated eigenvalue; realize a nondegenerate target"
        )
    n = observable.dim
    if family.dim != n:
        raise ValidationError("family and observable dimensions differ")
    if not family.members:
        return [], float("inf")
    bases, projs = family.stack, np.array(observable.projections)
    m_count = len(bases)
    # every vector of the family as a column, vector j of member m at j * M + m
    flat = bases.transpose(1, 2, 0).reshape(n, n * m_count)
    # cost[i, j, m] = |v|^2 - <v, P_i v> = |v - P_i v|^2 for v = v_j of member m
    cost = (np.einsum("ak,ak->k", flat.conj(), flat).real
            - np.einsum("ak,iak->ik", flat.conj(), projs @ flat).real).reshape(n, n, m_count)
    bound = np.maximum(cost.min(axis=1).max(axis=0), cost.min(axis=0).max(axis=0))
    dists = np.full(m_count, np.inf)
    perms = np.zeros((m_count, n), dtype=np.intp)
    # no distance exceeds 1, so a larger precision reaches every member anyway
    reach = max(min(precision, 2.0) ** 2, bound.min())
    for _ in range(2):
        # 1e-12 lies far above the roundoff between the bound and the residual norms
        todo = np.flatnonzero((bound <= reach + 1e-12) & np.isinf(dists))
        if todo.size:
            sub = bases[todo]
            # pv[m, i, :, j] = P_i v_j for the j-th vector of member m
            pv = np.matmul(projs, sub[:, None])
            overlap = np.einsum("maj,miaj->mij", sub.conj(), pv).real
            perm = np.array([linear_sum_assignment(-o)[1] for o in overlap])
            rows = np.arange(len(todo))[:, None]
            # resid[m, i] = v - P_i v for the vector v that member m assigns to label i
            resid = sub[rows, :, perm] - pv[rows, np.arange(n), :, perm]
            dists[todo] = np.linalg.norm(resid, axis=-1).max(axis=1)
            perms[todo] = perm
        reach = dists.min() ** 2
    keep = np.flatnonzero(dists < precision)
    if keep.size:
        v = bases[keep]
        if (spectral_norms(v @ v.conj().swapaxes(1, 2) - np.eye(n)) > ALGEBRA_TOL).any():
            raise ValidationError("atoms do not sum to the identity within 1e-10")
    cands = [
        PvmRealization(family.members[k], tuple(int(c) for c in perms[k]), float(dists[k]))
        for k in keep
    ]
    return cands, float(dists.min())


def realize_pvm(request: MeasurementRequest, family: BasisFamily | None,
                rng_apparatus: np.random.Generator) -> PvmRealization:
    """Draw one realizable family member uniformly at random."""
    if request.kind != "pvm":
        raise ValidationError("not a projective request")
    cands, nearest = pvm_candidates(request.observable, family, request.precision)
    if not cands:
        raise NoCandidateError(
            f"no family member within {request.precision:g} (nearest at {nearest:.3e})",
            nearest_distance=nearest,
        )
    return cands[int(rng_apparatus.integers(len(cands)))]


def realize_povm(request: MeasurementRequest, registry: ResolutionRegistry | None,
                 rng_apparatus: np.random.Generator) -> TaggedResolution:
    """Serve a positive-operator request from the registry, snapping on a miss.

    A cache hit is any registered resolution whose members sit within the
    requested precision of the targets, indexwise. On a miss the budget is
    split evenly between snapping and the phase tag.
    """
    if request.kind != "povm":
        raise ValidationError("not a positive-operator request")
    return _povm_draw(request, registry, rng_apparatus)[0]


def _povm_draw(request, registry, rng_apparatus):
    """``realize_povm``'s pick and the candidates it was drawn from, in one registry scan."""
    if registry is None:
        raise ValidationError("positive-operator request needs a registry in the context")
    cands = registry.candidates_within(request.povm_targets, request.precision)
    if cands:
        return cands[int(rng_apparatus.integers(len(cands)))], cands
    half = request.precision / 2.0
    base = snap_resolution(request.povm_targets, half)
    chosen = registry.register(base, half)
    return chosen, [chosen]


def _realized_distances(targets, cands) -> list[float]:
    """Largest spectral distance from the targets to each candidate's members, indexwise."""
    diff = np.array(targets, dtype=complex) - np.array([c.members for c in cands])
    return [float(d) for d in spectral_norms(diff).max(axis=1)]


def _grouped_outcomes(cand_ids: np.ndarray, weights: np.ndarray, rng: np.random.Generator,
                      in_trial_order: bool = True) -> np.ndarray:
    """Outcome index per trial from one seeded draw of uniforms.

    Candidate c takes the next ``bincount(cand_ids)[c]`` uniforms, in trial
    order within the candidate, and an outcome is the number of cumulative
    thresholds ``cumsum(weights[c])[:-1]`` at or below its uniform. Without
    ``in_trial_order`` the outcomes stay grouped by candidate; their counts
    do not depend on the order.
    """
    u = rng.random(len(cand_ids))
    per_cand = np.bincount(cand_ids, minlength=len(weights))
    outcomes = np.zeros(len(cand_ids), dtype=np.int64)
    # one threshold column at a time: a row-wise sum over a short axis is far slower
    for thresholds in np.cumsum(weights, axis=1)[:, :-1].T:
        outcomes += np.repeat(thresholds, per_cand) <= u
    if not in_trial_order:
        return outcomes
    # a stable sort on a narrow key is a radix sort
    order = np.argsort(cand_ids.astype(np.min_scalar_type(len(weights) - 1)), kind="stable")
    restored = np.empty_like(outcomes)
    restored[order] = outcomes
    return restored


@dataclass
class TrialReport:
    """Aggregate of a trial run against the realized Born distribution."""

    kind: str
    n_trials: int
    labels: tuple
    counts: tuple
    empirical: tuple
    born: tuple
    tv_distance: float
    z_scores: tuple
    config: dict
    samples: tuple | None = field(default=None, repr=False)

    def __post_init__(self):
        if sum(self.counts) != self.n_trials:
            raise ValidationError("outcome counts do not add up to the trial count")
        if abs(sum(self.born) - 1.0) > SPECTRAL_TOL:
            raise ValidationError("reference distribution does not sum to 1")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "n_trials": self.n_trials,
            "labels": list(self.labels),
            "counts": list(self.counts),
            "empirical": list(self.empirical),
            "born": list(self.born),
            "tv_distance": self.tv_distance,
            "z_scores": list(self.z_scores),
            "config": self.config,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "count", "empirical", "born", "z_score"])
        for row in zip(self.labels, self.counts, self.empirical, self.born, self.z_scores):
            writer.writerow(row)
        return buf.getvalue()

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1)


def _finish_report(kind, n_trials, labels, outcomes, born, config, keep, cand_ids):
    counts = np.bincount(outcomes, minlength=len(labels))
    emp = counts / n_trials
    tv = 0.5 * float(np.abs(emp - born).sum())
    z = np.zeros(len(labels))
    for i, p in enumerate(born):
        spread = p * (1.0 - p) / n_trials
        if spread > 0:
            z[i] = (emp[i] - p) / np.sqrt(spread)
        elif emp[i] != p:
            z[i] = np.inf
    return TrialReport(
        kind=kind,
        n_trials=n_trials,
        labels=tuple(labels),
        counts=tuple(int(c) for c in counts),
        empirical=tuple(float(x) for x in emp),
        born=tuple(float(x) for x in born),
        tv_distance=tv,
        z_scores=tuple(float(x) for x in z),
        config=config,
        samples=(cand_ids, outcomes) if keep else None,
    )


def run_trials(request: MeasurementRequest, n_trials: int, context: SimulationContext,
               keep_samples: bool = False) -> TrialReport:
    """Run repeated trials and compare empirical frequencies to Born.

    By default the apparatus is realized afresh on every trial; with
    ``context.fixed_apparatus`` one realization serves the whole run. The
    reference distribution averages the Born weights of the candidates
    the apparatus actually draws from. The weights of all candidates come
    from one batched pass, no block is built, and the outcomes from one
    draw of uniforms handed out by candidate; they are put back in trial
    order only when ``keep_samples`` returns them.
    """
    if n_trials < 1:
        raise ValidationError("need at least one trial")
    rng_app = np.random.default_rng(request.apparatus_seed)
    rng_sys = np.random.default_rng(request.system_seed)
    density = context.density

    if request.kind == "pvm":
        cands, nearest = pvm_candidates(request.observable, context.family, request.precision)
        if not cands:
            raise NoCandidateError(
                f"no family member within {request.precision:g} (nearest at {nearest:.3e})",
                nearest_distance=nearest,
            )
        labels = request.observable.eigenvalues
        w = _atom_weights(density, np.array([c.member.basis.mat for c in cands]))
        weights = np.take_along_axis(w, np.array([c.target_to_atom for c in cands]), axis=1)
        realized_ids = [c.member_index for c in cands]
        realized_distances = [c.distance for c in cands]
    else:
        _, cands = _povm_draw(request, context.registry, rng_app)
        labels = tuple(range(cands[0].k))
        weights = np.array([_povm_weights(density, c.members) for c in cands])
        realized_ids = [c.index for c in cands]
        realized_distances = _realized_distances(request.povm_targets, cands)

    if context.fixed_apparatus:
        fixed = int(rng_app.integers(len(cands)))
        cand_ids = np.full(n_trials, fixed, dtype=np.int64)
        born = weights[fixed]
    else:
        cand_ids = rng_app.integers(0, len(cands), size=n_trials)
        born = np.mean(weights, axis=0)

    outcomes = _grouped_outcomes(cand_ids, weights, rng_sys, in_trial_order=keep_samples)
    config = {
        "kind": request.kind,
        "precision": request.precision,
        "apparatus_seed": request.apparatus_seed,
        "system_seed": request.system_seed,
        "n_trials": n_trials,
        "fixed_apparatus": context.fixed_apparatus,
        "realized_ids": realized_ids,
        "realized_distances": realized_distances,
    }
    return _finish_report(request.kind, n_trials, labels, outcomes, born, config,
                          keep_samples, cand_ids)


def simulate_trial(request: MeasurementRequest, context: SimulationContext,
                   rng_apparatus: np.random.Generator, rng_system: np.random.Generator,
                   trial_id: int = 0) -> MeasurementOutcome:
    """One trial: realize the apparatus, sample a valuation, read the outcome."""
    density = context.density
    if request.kind == "pvm":
        realization = realize_pvm(request, context.family, rng_apparatus)
        valuation = TruthValuation(density, rng_system)
        atom = valuation.populate(realization.block)
        label_index = realization.target_to_atom.index(atom)
        label = request.observable.eigenvalues[label_index]
        return MeasurementOutcome(label, realization.member_index, realization.distance, trial_id)
    tagged = realize_povm(request, context.registry, rng_apparatus)
    idx = int(_draw_outcomes(density, tagged.members, rng_system, 1)[0])
    dist = _realized_distances(request.povm_targets, [tagged])[0]
    return MeasurementOutcome(idx, tagged.index, dist, trial_id)


def noncontextuality_audit(valuation: TruthValuation, block: ProjectionBlock) -> int:
    """Read every element of a block through every atom partition.

    Counts two kinds of violation: an element whose value changes between
    partitions, and a partition whose values do not sum to 1. The chosen
    atom representation makes both impossible; the audit rechecks anyway.
    """
    seen: dict[int, int] = {}
    violations = 0
    for parts in atom_partitions(block.n):
        total = 0
        for mask in parts:
            val = valuation.evaluate(block, mask)
            total += val
            if mask in seen and seen[mask] != val:
                violations += 1
            seen[mask] = val
        if total != 1:
            violations += 1
    return violations


def run_noncontextuality_audit(request: MeasurementRequest, context: SimulationContext,
                               n_trials: int) -> int:
    """Total violations over ``n_trials`` independent realized trials."""
    if request.kind != "pvm":
        raise ValidationError("the audit applies to projective requests")
    rng_app = np.random.default_rng(request.apparatus_seed)
    rng_sys = np.random.default_rng(request.system_seed)
    cands, nearest = pvm_candidates(request.observable, context.family, request.precision)
    if not cands:
        raise NoCandidateError("no realizable member for the audit", nearest_distance=nearest)
    violations = 0
    for _ in range(n_trials):
        cand = cands[int(rng_app.integers(len(cands)))]
        valuation = TruthValuation(context.density, rng_sys)
        violations += noncontextuality_audit(valuation, cand.block)
    return violations
