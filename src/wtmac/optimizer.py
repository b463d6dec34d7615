"""Search over factored inputs to estimate full achievable regions.

Derivative-free search: random restarts over the factor simplices (plus a
few structured starting points), followed by coordinate-wise local
refinement with a shrinking step, swept over a set of weighting directions
so the Pareto surface of the region gets traced.  Every reported point is
re-certified against a freshly recomputed region for its generating input,
and identical seeds reproduce identical estimates.

Estimates are lower bounds only: the auxiliary alphabet sizes are
configurable but there is no finite bound that provably suffices for the
two per-sender auxiliaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import PreconditionError, ValidationError
from .probkit import Alphabet, Channel, Dist, FactoredInput, WiretapMAC
from .regions import (
    CaseLabel,
    InfoProfile,
    RatePolytope,
    batch_vertices,
    classify_profile,
    info_profiles,
    region_common,
)
from .conferencing import region_conferencing

# Local refinement: the initial Gaussian step and its shrink factor after
# each rejected trial.
STEP_INIT = 0.35
STEP_DECAY = 0.85


def prefix_channel(mac: WiretapMAC, x_given_v1: Channel,
                   y_given_v2: Channel) -> WiretapMAC:
    """Compose artificial per-sender input channels in front of the physical MAC.

    The result is a MAC with inputs V1, V2; composing twice is the same as
    composing the prefix chains first.
    """
    if x_given_v1.output_alphabet.size != mac.x_alphabet.size:
        raise ValidationError("X-prefix output does not match the channel input")
    if y_given_v2.output_alphabet.size != mac.y_alphabet.size:
        raise ValidationError("Y-prefix output does not match the channel input")
    tensor = np.einsum("vx,wy,xytz->vwtz", x_given_v1.matrix, y_given_v2.matrix,
                       mac.tensor, optimize=True)
    v1 = x_given_v1.input_alphabet.size
    v2 = y_given_v2.input_alphabet.size
    rows = tensor.reshape(v1 * v2, -1)
    return WiretapMAC(x_given_v1.input_alphabet, y_given_v2.input_alphabet,
                      mac.t_alphabet, mac.z_alphabet,
                      Channel(Alphabet(v1 * v2),
                              Alphabet(mac.t_alphabet.size * mac.z_alphabet.size),
                              rows))


@dataclass(frozen=True)
class CommonMode:
    """Search target: common-message regions at randomness bound ``hc``."""

    hc: float


@dataclass(frozen=True)
class ConferencingMode:
    """Search target: conferencing regions at link capacities (c1, c2)."""

    c1: float
    c2: float


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the region search.

    ``u_size`` defaults to |X||Y| + 5 (a provably sufficient size for the
    common auxiliary); the per-sender auxiliaries default to the channel
    input sizes and are not provably sufficient.  ``max_evaluations`` is a
    deterministic budget: once exhausted the estimate is returned partial.
    """

    u_size: int | None = None
    v1_size: int | None = None
    v2_size: int | None = None
    restarts: int = 30
    refine_iters: int = 40
    directions: int = 16
    seed: int = 0
    independent_only: bool = False
    max_evaluations: int | None = None

    def sizes_for(self, mac: WiretapMAC) -> tuple[int, int, int]:
        nx, ny = mac.x_alphabet.size, mac.y_alphabet.size
        u = self.u_size if self.u_size is not None else nx * ny + 5
        v1 = self.v1_size if self.v1_size is not None else nx
        v2 = self.v2_size if self.v2_size is not None else ny
        if min(u, v1, v2) < 1:
            raise ValidationError("auxiliary sizes must be >= 1")
        return u, v1, v2


class _Parameterization:
    """Maps parameter vectors to projected factors of inputs on one channel.

    A parameter vector concatenates the factor blocks; each block row is
    projected onto the simplex (clipped at 1e-12, then normalized).
    """

    def __init__(self, mac: WiretapMAC, cfg: SearchConfig):
        self.mac = mac
        self.cfg = cfg
        nx, ny = mac.x_alphabet.size, mac.y_alphabet.size
        if cfg.independent_only:
            self.shapes = [(1, nx), (1, ny)]
            self.sizes = (1, nx, ny)
        else:
            u, v1, v2 = cfg.sizes_for(mac)
            self.sizes = (u, v1, v2)
            self.shapes = [(1, u), (u, v1), (u, v2), (v1, nx), (v2, ny)]
        self.length = sum(r * c for r, c in self.shapes)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        parts = [rng.dirichlet(np.ones(c), size=r).ravel() for r, c in self.shapes]
        return np.concatenate(parts)

    def structured(self) -> list[np.ndarray]:
        """Deterministic starting points worth trying on any channel."""
        mac, cfg = self.mac, self.cfg
        nx, ny = mac.x_alphabet.size, mac.y_alphabet.size
        out = []
        if cfg.independent_only:
            out.append(np.concatenate([np.full(nx, 1 / nx), np.full(ny, 1 / ny)]))
            return out
        u, v1, v2 = self.sizes
        # independent uniform inputs: the auxiliaries ignore U
        blocks = [np.full((1, u), 1 / u), np.full((u, v1), 1 / v1),
                  np.full((u, v2), 1 / v2), _wrapped_identity(v1, nx),
                  _wrapped_identity(v2, ny)]
        out.append(np.concatenate([b.ravel() for b in blocks]))
        # coupled uniform input: both senders track the shared symbol exactly
        blocks = [np.full((1, u), 1 / u), _wrapped_identity(u, v1),
                  _wrapped_identity(u, v2), _wrapped_identity(v1, nx),
                  _wrapped_identity(v2, ny)]
        out.append(np.concatenate([b.ravel() for b in blocks]))
        return out

    def factors(self, params: np.ndarray) -> tuple[np.ndarray, ...]:
        """(p_u, P(V1|U), P(V2|U), P(X|V1), P(Y|V2)) stacked over the rows of
        an (N, length) parameter array, as :func:`info_profiles` takes them."""
        n = params.shape[0]
        clipped = np.maximum(params, 1e-12)
        blocks, at = [], 0
        for rows, cols in self.shapes:
            block = clipped[:, at:at + rows * cols].reshape(n, rows, cols)
            blocks.append(block / block.sum(axis=2, keepdims=True))
            at += rows * cols
        if self.cfg.independent_only:
            # trivial U, identity prefixes: V1 = X, V2 = Y
            nx, ny = self.mac.x_alphabet.size, self.mac.y_alphabet.size
            return (np.ones((n, 1)), blocks[0], blocks[1],
                    np.broadcast_to(np.eye(nx), (n, nx, nx)),
                    np.broadcast_to(np.eye(ny), (n, ny, ny)))
        return (blocks[0][:, 0],) + tuple(blocks[1:])

    def build(self, params: np.ndarray) -> FactoredInput:
        """The validated factored input of one parameter vector."""
        p_u, v1, v2, x1, y2 = (f[0] for f in self.factors(params[None]))
        if self.cfg.independent_only:
            return FactoredInput.independent(Dist.from_mass(v1[0]),
                                             Dist.from_mass(v2[0]), self.mac)
        return FactoredInput(Dist.from_mass(p_u), Channel.from_matrix(v1),
                             Channel.from_matrix(v2), Channel.from_matrix(x1),
                             Channel.from_matrix(y2), self.mac)


def _wrapped_identity(rows: int, cols: int) -> np.ndarray:
    m = np.zeros((rows, cols))
    for r in range(rows):
        m[r, r % cols] = 1.0
    return m


@dataclass
class AchievablePoint:
    """One certified point of the estimate with its provenance."""

    rates: np.ndarray
    case: CaseLabel
    params: np.ndarray
    generator_id: int


@dataclass
class RegionEstimate:
    """Point cloud of certified achievable rate tuples plus its convex closure.

    ``evaluations`` is the number of inputs the search scored, the count
    that ``SearchConfig.max_evaluations`` bounds; ``batches`` the number of
    batches it scored them in (one profile-kernel call each);
    ``hull_degenerate`` is set when qhull rejected the cloud and the hull
    vertices are the deduplicated points themselves.  None of the three is
    written to JSON.
    """

    mode: object
    dim: int
    points: np.ndarray
    cases: list
    generators: list
    hull_vertices: np.ndarray
    partial: bool
    seed: int
    aux_sizes: tuple
    evaluations: int
    batches: int
    hull_degenerate: bool

    def max_sum_rate(self) -> float:
        if self.points.shape[0] == 0:
            return 0.0
        return float(self.points.sum(axis=1).max())

    def max_coordinate(self) -> float:
        if self.points.shape[0] == 0:
            return 0.0
        return float(self.points.max())

    def to_json_dict(self) -> dict:
        mode = {"kind": type(self.mode).__name__}
        mode.update({k: float(v) for k, v in self.mode.__dict__.items()})
        return {
            "mode": mode,
            "dim": self.dim,
            "points": [[float(v) for v in p] for p in self.points],
            "cases": [int(c) for c in self.cases],
            "hull_vertices": [[float(v) for v in p] for p in self.hull_vertices],
            "partial": self.partial,
            "seed": self.seed,
            "aux_sizes": list(self.aux_sizes),
            "note": "lower bound only: per-sender auxiliary sizes are not "
                    "provably sufficient",
        }

    def to_csv(self) -> str:
        cols = ["R0", "R1", "R2"][3 - self.dim:] if self.dim == 3 else ["R1", "R2"]
        lines = [",".join(cols + ["case", "generator"])]
        for pt, case, gen in zip(self.points, self.cases, range(len(self.cases))):
            lines.append(",".join(f"{v:.12g}" for v in pt)
                         + f",{int(case)},{gen}")
        return "\n".join(lines) + "\n"


def _achievable_regions(prof: InfoProfile, u_independent: bool,
                        mode) -> list[tuple[CaseLabel, object]]:
    """(case, region) of every case the profile classifies into under mode."""
    out = []
    if isinstance(mode, CommonMode):
        cases = classify_profile(prof, mode.hc, u_independent=u_independent).cases
        for case in cases:
            try:
                out.append((case, region_common(prof, mode.hc, case,
                                                check_membership=False)))
            except PreconditionError:
                continue
    else:
        hc = mode.c1 + mode.c2
        cases = classify_profile(prof, hc).cases
        for case in cases - {CaseLabel.CASE0}:
            try:
                out.append((case, region_conferencing(prof, mode.c1, mode.c2,
                                                      case, alpha_points=21)))
            except PreconditionError:
                continue
    return out


class _Scorer:
    """Scores batches of parameter vectors for one (channel, mode, config),
    counting the batches."""

    def __init__(self, par: _Parameterization, mode):
        self.par = par
        self.mode = mode
        self.batches = 0

    def regions(self, params) -> list[list[tuple[CaseLabel, object]]]:
        """The achievable regions of each input of the batch."""
        self.batches += 1
        batch = info_profiles(*self.par.factors(np.asarray(params)),
                              self.par.mac.tensor)
        return [_achievable_regions(prof, u_ind, self.mode)
                for prof, u_ind in zip(batch.profiles, batch.u_independent)]

    def vertices(self, params) -> list[list[tuple[CaseLabel, np.ndarray]]]:
        """(case, vertices) of each achievable region of each input, all
        polytopes of the batch enumerated together; a union region stacks
        its pieces' vertices."""
        found = self.regions(params)
        groups = [[region] if isinstance(region, RatePolytope)
                  else [poly for _, poly in region.pieces]
                  for regions in found for _, region in regions]
        flat = iter(batch_vertices([poly for group in groups for poly in group]))
        stacked = iter([np.vstack([next(flat) for _ in group]) for group in groups])
        return [[(case, next(stacked)) for case, _ in regions] for regions in found]


def _best_along(case_vertices, weights: np.ndarray):
    """Best weighted rate over one input's (case, vertices), with the
    witnessing case and vertex; a score must beat 0 to count."""
    best = (0.0, None, None)
    for case, verts in case_vertices:
        if verts.shape[0] == 0:
            continue
        scores = verts @ weights
        idx = int(np.argmax(scores))
        if scores[idx] > best[0]:
            best = (float(scores[idx]), case, verts[idx])
    return best


@dataclass
class _Walk:
    """One direction's refinement walk: its best score and input so far, the
    noise of each of its steps, and the current step size."""

    score: float
    params: np.ndarray
    noise: np.ndarray
    step: float = STEP_INIT


def _directions(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    fixed = [np.ones(dim)]
    fixed.extend(np.eye(dim))
    extra = rng.dirichlet(np.ones(dim), size=max(count - len(fixed), 0))
    dirs = np.vstack([fixed, extra])[:count]
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def achievable_region_estimate(mac: WiretapMAC, mode,
                               cfg: SearchConfig) -> RegionEstimate:
    """Estimate the achievable region of a channel under the given mode.

    Returns a cloud of certified points (each re-checked against the region
    of its generating input) whose convex closure with the origin is the
    estimate.  Deterministic for a fixed (channel, mode, config).  Inputs
    are scored in batches: all candidates at once, then each refinement
    step of every direction together.
    """
    if not isinstance(mode, (CommonMode, ConferencingMode)):
        raise ValidationError("mode must be CommonMode or ConferencingMode")
    rng = np.random.default_rng(cfg.seed)
    par = _Parameterization(mac, cfg)
    score = _Scorer(par, mode)
    dim = 3 if isinstance(mode, CommonMode) else 2
    dirs = _directions(dim, cfg.directions, rng)

    budget = cfg.max_evaluations if cfg.max_evaluations is not None else math.inf
    candidates = par.structured()
    for _ in range(cfg.restarts):
        candidates.append(par.random(rng))

    # Coverage pass: best candidate per direction (regions computed once per
    # candidate, scored along every direction); the first candidate reaching
    # a direction's maximum wins it.
    evaluations = int(min(len(candidates), budget))
    partial = evaluations < len(candidates)
    per_dir: list[tuple[float, np.ndarray]] = [(-1.0, None)] * len(dirs)
    if evaluations:
        best = np.full((evaluations, len(dirs)), -np.inf)
        for i, case_verts in enumerate(score.vertices(candidates[:evaluations])):
            verts = [v for _, v in case_verts if v.shape[0]]
            if verts:
                best[i] = (np.vstack(verts) @ dirs.T).max(axis=0)
        for d, i in enumerate(np.argmax(best, axis=0)):
            if best[i, d] > -1.0:
                per_dir[d] = (float(best[i, d]), candidates[i])

    # Refinement: every direction's accept/reject walk, in lockstep.  The
    # budget is spent in direction order and the noise drawn in that order,
    # so each walk sees the trials it would see run alone.
    walks: dict[int, _Walk] = {}
    for d, (s, params) in enumerate(per_dir):
        if params is None:
            continue
        steps = int(min(cfg.refine_iters, max(budget - evaluations, 0)))
        partial |= steps < cfg.refine_iters
        evaluations += steps
        walks[d] = _Walk(s, params, rng.standard_normal((steps, par.length)))
    for it in range(max((len(w.noise) for w in walks.values()), default=0)):
        live = [(d, w) for d, w in walks.items() if it < len(w.noise)]
        trials = [w.params + w.step * w.noise[it] for _, w in live]
        for (d, w), trial, case_verts in zip(live, trials, score.vertices(trials)):
            t_score = _best_along(case_verts, dirs[d])[0]
            if t_score > w.score:
                w.score, w.params = t_score, trial
            else:
                w.step *= STEP_DECAY
    points: list[AchievablePoint] = []
    if walks:
        finals = score.vertices([w.params for w in walks.values()])
        for (d, w), case_verts in zip(walks.items(), finals):
            _, case, vert = _best_along(case_verts, dirs[d])
            if vert is not None:
                points.append(AchievablePoint(vert, case, w.params, d))

    # Certification: recompute each generating region and re-check membership.
    certified: list[AchievablePoint] = []
    if points:
        for pt, regions in zip(points, score.regions([pt.params for pt in points])):
            if any(case == pt.case and region.contains(pt.rates, tol=1e-9)
                   for case, region in regions):
                certified.append(pt)

    if certified:
        cloud = np.vstack([pt.rates for pt in certified])
    else:
        cloud = np.zeros((1, dim))
    hull, degenerate = _hull_with_origin(cloud, dim)
    return RegionEstimate(
        mode=mode, dim=dim, points=cloud,
        cases=[pt.case for pt in certified] or [CaseLabel.CASE0],
        generators=[par.build(pt.params) for pt in certified],
        hull_vertices=hull, partial=partial, seed=cfg.seed,
        aux_sizes=par.sizes, evaluations=evaluations, batches=score.batches,
        hull_degenerate=degenerate,
    )


def _hull_with_origin(cloud: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    """Hull vertices of the cloud and the origin, and whether qhull rejected
    the points as degenerate (the deduplicated points are returned then)."""
    pts = np.vstack([np.zeros((1, dim)), cloud])
    pts = np.unique(np.round(pts, 12), axis=0)
    if pts.shape[0] <= dim + 1:
        return pts, False
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts, qhull_options="QJ")
    except QhullError:
        return pts, True
    return pts[hull.vertices], False


def single_sender_secrecy_capacity(mac: WiretapMAC, cfg: SearchConfig) -> float:
    """Search lower bound on the secrecy capacity with both senders combined.

    Maximizes the legitimate-minus-eavesdropper information gap over the
    factored input family; monotone nondecreasing in the search budget.
    The starts are scored as one batch, the refinement one trial at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    par = _Parameterization(mac, cfg)

    def objective(params) -> list[float]:
        batch = info_profiles(*par.factors(np.asarray(params)), mac.tensor)
        return [prof.it_v12 - prof.iz_v12 for prof in batch.profiles]

    best_val, best_params = 0.0, None
    starts: list[np.ndarray] = []
    if not cfg.independent_only:
        starts.extend(par.structured())
    for _ in range(cfg.restarts):
        starts.append(par.random(rng))
    for val, params in zip(objective(starts) if starts else [], starts):
        if val > best_val:
            best_val, best_params = val, params
    if best_params is None:
        return 0.0
    step = STEP_INIT
    val, params = best_val, best_params
    for _ in range(cfg.refine_iters):
        trial = params + step * rng.standard_normal(par.length)
        t_val = objective([trial])[0]
        if t_val > val:
            val, params = t_val, trial
        else:
            step *= STEP_DECAY
    return float(max(val, 0.0))
