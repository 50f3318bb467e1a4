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
from dataclasses import dataclass

import numpy as np

from .basisfamily import BasisFamily, FamilyMember
from .errors import (
    DegenerateTargetError,
    NoCandidateError,
    ValidationError,
)
from .opcore import (
    SPECTRAL_TOL,
    HermitianObservable,
    as_operator,
    check_density,
    draw_indices,
    spectral_norms,
    validate_resolution,
)
from .pba import TruthValuation, _atom_weights, verify_homomorphism
from .povmfamily import (
    ResolutionRegistry,
    TaggedResolution,
    _povm_weights,
    _snap,
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
    "run_trials",
    "simulate_trial",
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
        if not 0 < self.precision < np.inf:
            raise ValidationError(f"precision must be a finite positive number, got {self.precision}")
        if min(self.apparatus_seed, self.system_seed) < 0:
            raise ValidationError(f"seeds must be nonnegative, got {self.apparatus_seed} "
                                  f"and {self.system_seed}")
        if self.kind == "pvm":
            if self.observable is None:
                raise ValidationError("projective request needs an observable")
        else:
            if len(self.povm_targets or ()) < 2:
                raise ValidationError("positive-operator request needs at least two targets")
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

    The member is the realized block. ``target_to_atom[i]`` is the realized
    atom carrying the i-th target eigenvalue; ``distance`` is the largest
    spectral gap between matched projections.
    """

    member: FamilyMember
    target_to_atom: tuple[int, ...]
    distance: float

    @property
    def member_index(self) -> int:
        return self.member.index


@dataclass
class SimulationContext:
    """State plus realization sources for a run."""

    density: np.ndarray
    family: BasisFamily | None = None
    registry: ResolutionRegistry | None = None
    fixed_apparatus: bool = False

    def __post_init__(self):
        self.density = check_density(self.density)


def _assignment(cost: list[list[float]]) -> list[int]:
    """Column of each row in a minimum-cost perfect matching of a square cost matrix.

    Shortest augmenting paths with dual variables (Crouse, IEEE TAES 52,
    2016), ported from scipy's ``rectangular_lsap`` step for step: the same
    row order, the unscanned columns kept in a list filled in reverse and
    compacted by moving the last into the scanned slot, and the same tie
    rule, which prefers an unassigned column. The floating-point operations
    are the same too, so ties resolve to scipy's columns.
    """
    n = len(cost)
    inf = float("inf")
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        i, min_val, sink = cur, 0.0, -1
        remaining = list(range(n - 1, -1, -1))
        seen_rows, seen_cols = [False] * n, [False] * n
        short = [inf] * n
        while sink == -1:
            index, lowest = -1, inf
            seen_rows[i] = True
            row, u_i = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            seen_cols[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if seen_rows[i] and i != cur:
                u[i] += min_val - short[col4row[i]]
        for j in range(n):
            if seen_cols[j]:
                v[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _max_overlap_columns(overlap: np.ndarray) -> np.ndarray:
    """``_assignment`` on the cost ``-overlap[m]`` of every matrix of an (M, n, n) stack.

    Where every column holds exactly one row maximum, each row has one
    largest entry and no two rows share its column (n rows, each with at
    least one maximum, fill the n columns once). Those columns are then the
    answer without the solver: each row's first scan finds its cheapest
    column free, so every augmenting path ends at once and the dual
    variables of the columns stay 0.
    """
    at_max = overlap == overlap.max(axis=2, keepdims=True)
    best = at_max.argmax(axis=2)
    for m in np.flatnonzero((at_max.sum(axis=1) != 1).any(axis=1)):
        best[m] = _assignment((-overlap[m]).tolist())
    return best


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
    which unlike sqrt(1 - overlap) stays accurate near 0.
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
            perm = _max_overlap_columns(overlap)
            rows = np.arange(len(todo))[:, None]
            # resid[m, i] = v - P_i v for the vector v that member m assigns to label i
            resid = sub[rows, :, perm] - pv[rows, np.arange(n), :, perm]
            dists[todo] = np.linalg.norm(resid, axis=-1).max(axis=1)
            perms[todo] = perm
        reach = dists.min() ** 2
    cands = [
        PvmRealization(family.members[k], tuple(int(c) for c in perms[k]), float(dists[k]))
        for k in np.flatnonzero(dists < precision)
    ]
    return cands, float(dists.min())


def _pvm_realizations(request: MeasurementRequest,
                      family: BasisFamily | None) -> list[PvmRealization]:
    """The candidates a projective request draws from; NoCandidateError when there are none."""
    cands, nearest = pvm_candidates(request.observable, family, request.precision)
    if not cands:
        raise NoCandidateError(
            f"no family member within {request.precision:g} (nearest at {nearest:.3e})",
            nearest_distance=nearest,
        )
    return cands


def _povm_realizations(request: MeasurementRequest,
                       registry: ResolutionRegistry | None) -> list[TaggedResolution]:
    """The registered candidates of a positive-operator request, in one registry scan.

    A cache hit is any registered resolution whose members sit within the
    requested precision of the targets, indexwise. On a miss the targets
    are snapped and registered, the budget split evenly between snapping
    and the phase tag, and the new entry is the only candidate. The request
    has already proved its targets a resolution, so the snap skips that check.
    """
    if registry is None:
        raise ValidationError("positive-operator request needs a registry in the context")
    cands = registry.candidates_within(request.povm_targets, request.precision)
    if cands:
        return cands
    half = request.precision / 2.0
    resolution, _ = _snap(request.povm_targets, half)
    return [registry.register(resolution, half)]


def realize_pvm(request: MeasurementRequest, family: BasisFamily | None,
                rng_apparatus: np.random.Generator) -> PvmRealization:
    """Draw one realizable family member uniformly at random."""
    if request.kind != "pvm":
        raise ValidationError("not a projective request")
    cands = _pvm_realizations(request, family)
    return cands[int(rng_apparatus.integers(len(cands)))]


def realize_povm(request: MeasurementRequest, registry: ResolutionRegistry | None,
                 rng_apparatus: np.random.Generator) -> TaggedResolution:
    """Serve a positive-operator request from the registry, snapping on a miss.

    Draws uniformly among the candidates of ``_povm_realizations``.
    """
    if request.kind != "povm":
        raise ValidationError("not a positive-operator request")
    cands = _povm_realizations(request, registry)
    return cands[int(rng_apparatus.integers(len(cands)))]


def _realized_distances(targets, cands) -> list[float]:
    """Largest spectral distance from the targets to each candidate's members, indexwise."""
    diff = np.array(targets, dtype=complex) - np.array([c.members for c in cands])
    return [float(d) for d in spectral_norms(diff).max(axis=1)]


# trials per block of uniforms: 8192 float64 are 64 KiB, half of glibc's default
# 128 KiB mmap threshold, above which every temporary is mapped and page-faulted afresh
_CHUNK = 8192


def _grouped_outcomes(cand_ids: np.ndarray, weights: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Outcome counts from seeded uniforms handed out by candidate.

    Candidate c takes the next ``bincount(cand_ids)[c]`` uniforms, in trial
    order within the candidate, and an outcome is the number of cumulative
    thresholds ``cumsum(weights[c])[:-1]`` at or below its uniform. The walk
    over that candidate-grouped order draws ``_CHUNK`` uniforms at a time,
    which continues the stream one draw would give, and repeats the
    thresholds of the candidates a chunk spans, one threshold column at a
    time; no temporary grows with the trial count. The weights are
    nonnegative, so the thresholds never decrease along a row, a trial's
    outcome exceeds j exactly when its uniform reaches threshold j, and the
    counts come from one tally per column.
    """
    n_trials, n_labels = len(cand_ids), len(weights[0])
    per_cand = np.bincount(cand_ids, minlength=len(weights))
    ends = np.cumsum(per_cand)
    begins = ends - per_cand
    thresholds = np.cumsum(weights, axis=1)[:, :-1]
    above = [0] * (n_labels - 1)
    for start in range(0, n_trials, _CHUNK):
        stop = min(start + _CHUNK, n_trials)
        u = rng.random(stop - start)
        # the candidates whose trials fall in [start, stop), and how many each
        lo, hi = np.searchsorted(ends, (start, stop - 1), side="right")
        span = np.minimum(ends[lo:hi + 1], stop) - np.maximum(begins[lo:hi + 1], start)
        for j, column in enumerate(thresholds[lo:hi + 1].T):
            above[j] += int(np.count_nonzero(np.repeat(column, span) <= u))
    return -np.diff([n_trials, *above, 0])


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


def _finish_report(kind, n_trials, labels, counts, born, config):
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
    )


def run_trials(request: MeasurementRequest, n_trials: int, context: SimulationContext) -> TrialReport:
    """Run repeated trials and compare empirical frequencies to Born.

    By default the apparatus is realized afresh on every trial; with
    ``context.fixed_apparatus`` one realization serves the whole run. The
    reference distribution averages the Born weights of the candidates
    the apparatus actually draws from. The weights of all candidates come
    from one batched pass, and the outcome counts from seeded uniforms
    handed out by candidate (``_grouped_outcomes``).
    """
    if n_trials < 1:
        raise ValidationError("need at least one trial")
    rng_app = np.random.default_rng(request.apparatus_seed)
    rng_sys = np.random.default_rng(request.system_seed)
    density = context.density

    if request.kind == "pvm":
        cands = _pvm_realizations(request, context.family)
        labels = request.observable.eigenvalues
        w = _atom_weights(density, np.array([c.member.basis.mat for c in cands]))
        weights = np.take_along_axis(w, np.array([c.target_to_atom for c in cands]), axis=1)
        realized_ids = [c.member_index for c in cands]
        realized_distances = [c.distance for c in cands]
    else:
        cands = _povm_realizations(request, context.registry)
        labels = tuple(range(cands[0].k))
        weights = _povm_weights(density, [c.members for c in cands])
        realized_ids = [c.index for c in cands]
        realized_distances = _realized_distances(request.povm_targets, cands)

    if context.fixed_apparatus:
        fixed = int(rng_app.integers(len(cands)))
        cand_ids = np.full(n_trials, fixed, dtype=np.int64)
        born = weights[fixed]
    else:
        cand_ids = rng_app.integers(0, len(cands), size=n_trials)
        born = np.mean(weights, axis=0)

    counts = _grouped_outcomes(cand_ids, weights, rng_sys)
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
    return _finish_report(request.kind, n_trials, labels, counts, born, config)


def simulate_trial(request: MeasurementRequest, context: SimulationContext,
                   rng_apparatus: np.random.Generator, rng_system: np.random.Generator,
                   trial_id: int = 0) -> MeasurementOutcome:
    """One trial: realize the apparatus, sample a valuation, read the outcome."""
    density = context.density
    if request.kind == "pvm":
        realization = realize_pvm(request, context.family, rng_apparatus)
        # the draw TruthValuation.populate makes, on the density the context checked
        w = _atom_weights(density, realization.member.basis.mat[None])[0]
        atom = int(draw_indices(w, rng_system, 1)[0])
        label_index = realization.target_to_atom.index(atom)
        label = request.observable.eigenvalues[label_index]
        return MeasurementOutcome(label, realization.member_index, realization.distance, trial_id)
    tagged = realize_povm(request, context.registry, rng_apparatus)
    idx = int(draw_indices(_povm_weights(density, tagged.members), rng_system, 1)[0])
    dist = _realized_distances(request.povm_targets, [tagged])[0]
    return MeasurementOutcome(idx, tagged.index, dist, trial_id)


def run_noncontextuality_audit(request: MeasurementRequest, context: SimulationContext,
                               n_trials: int) -> int:
    """Drawn blocks whose values break a homomorphism law, over ``n_trials`` trials."""
    if request.kind != "pvm":
        raise ValidationError("the audit applies to projective requests")
    rng_app = np.random.default_rng(request.apparatus_seed)
    rng_sys = np.random.default_rng(request.system_seed)
    cands = _pvm_realizations(request, context.family)
    # one valuation, emptied before each trial, draws what a fresh one would
    valuation = TruthValuation(context.density, rng_sys)
    violations = 0
    for _ in range(n_trials):
        cand = cands[int(rng_app.integers(len(cands)))]
        valuation.chosen.clear()
        # the chosen atom makes a violation impossible; the audit rechecks anyway
        violations += not verify_homomorphism(valuation, cand.member)
    return violations
