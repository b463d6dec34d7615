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

from .errors import ValidationError
from .probkit import Alphabet, Channel, Dist, FactoredInput, WiretapMAC
from .regions import (
    CaseLabel,
    _columns,
    _inside,
    _scores,
    case_rhs,
    classify_profiles,
    info_profiles,
    stacked_vertices,
)
from .conferencing import CONF_COEFFS, conf_rhs

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
    common auxiliary); the per-sender auxiliaries take the channel input
    sizes |X| and |Y|, which are not provably sufficient.
    ``max_evaluations`` is a deterministic budget: once exhausted the
    estimate is returned partial.
    """

    u_size: int | None = None
    restarts: int = 30
    refine_iters: int = 40
    directions: int = 16
    seed: int = 0
    independent_only: bool = False
    max_evaluations: int | None = None

    def sizes_for(self, mac: WiretapMAC) -> tuple[int, int, int]:
        nx, ny = mac.x_alphabet.size, mac.y_alphabet.size
        u = self.u_size if self.u_size is not None else nx * ny + 5
        if u < 1:
            raise ValidationError(f"u_size must be >= 1, got {u}")
        return u, nx, ny


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
        # independent uniform inputs (the auxiliaries ignore U), then the
        # coupled uniform input (both senders track the shared symbol exactly)
        for aux in ([np.full((u, v1), 1 / v1), np.full((u, v2), 1 / v2)],
                    [_wrapped_identity(u, v1), _wrapped_identity(u, v2)]):
            blocks = [np.full((1, u), 1 / u), *aux, _wrapped_identity(v1, nx),
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
    return np.eye(cols)[np.arange(rows) % cols]


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


def _case_systems(profiles: np.ndarray, u_independent: np.ndarray, mode) -> list:
    """(case, rows, coeffs, rhs, pieces) of each case, in order, that some
    profile classifies into under ``mode``, with (n, P, m) rhs stacks."""
    common = isinstance(mode, CommonMode)
    hc = mode.hc if common else mode.c1 + mode.c2
    mask = classify_profiles(profiles, hc, u_independent & common)
    out = []
    for case in map(CaseLabel, np.nonzero(mask.any(axis=0))[0]):
        rows = np.nonzero(mask[:, case])[0]
        if common:
            coeffs, rhs, ok = case_rhs(profiles[rows], hc, case)
        else:
            coeffs, (rhs, _, ok) = CONF_COEFFS, conf_rhs(profiles[rows], mode.c1,
                                                         mode.c2, case, 21)
        out.append((case, rows, coeffs, rhs.reshape(len(rows), -1, rhs.shape[-1]),
                    ok.reshape(len(rows), -1)))
    return out


def _candidates(systems: list, n: int, dim: int):
    """(verts, keep, slot_case): n inputs' (n, K, dim) vertex candidates in
    case -> alpha-piece -> lexsort order, their vertex mask, each slot's case."""
    verts, keep, slot_case = [np.zeros((n, 0, dim))], [np.zeros((n, 0), bool)], []
    for case, rows, coeffs, rhs, pieces in systems:
        pts, kept = stacked_vertices(coeffs, rhs.reshape(-1, rhs.shape[2]))
        kept = kept.reshape(len(rows), rhs.shape[1], -1) & pieces[..., None]
        verts.append(np.zeros((n, kept[0].size, dim)))
        keep.append(np.zeros((n, kept[0].size), dtype=bool))
        verts[-1][rows] = pts.reshape(len(rows), -1, dim)
        keep[-1][rows] = kept.reshape(len(rows), -1)
        slot_case += [case] * kept[0].size
    return np.concatenate(verts, axis=1), np.concatenate(keep, axis=1), slot_case


def _best_vertices(candidates, weights: np.ndarray) -> list:
    """(score, case, vertex) of each input's first maximum along its row of
    ``weights``; a score must beat 0 to count, (0.0, None, None) otherwise."""
    verts, keep, slot_case = candidates
    scores = np.where(keep, _scores(verts, weights[:, None]), -np.inf)
    scores = np.concatenate([np.zeros((len(verts), 1)), scores], axis=1)
    return [(float(scores[i, j]), slot_case[j - 1], verts[i, j - 1]) if j
            else (0.0, None, None) for i, j in enumerate(np.argmax(scores, axis=1))]


def _certified(systems: list, rates: np.ndarray, cases: list) -> list[bool]:
    """Whether each input's case of ``cases`` holds its row of ``rates``."""
    held = np.zeros(len(cases), dtype=bool)
    for case, rows, coeffs, rhs, pieces in systems:
        sel = np.array([cases[r] == case for r in rows], dtype=bool)
        mats = coeffs[sel][:, None] if coeffs.ndim == 3 else coeffs
        held[rows[sel]] = np.any(
            pieces[sel] & _inside(rates[rows[sel], None], mats, rhs[sel]), axis=1)
    return held.tolist()


@dataclass
class _Walk:
    """One refinement walk (a search direction's, or the capacity's): its
    best score and input so far, the noise of each of its steps, and the
    current step size."""

    score: float
    params: np.ndarray
    noise: np.ndarray
    step: float = STEP_INIT


def _refine(walks: dict, evaluate) -> None:
    """Run every walk's accept/reject steps in lockstep.  Each step scores
    one trial per live walk as one batch: ``evaluate(trials, keys)`` takes
    the trials and their walks' keys, in the order of ``walks``."""
    for it in range(max((len(w.noise) for w in walks.values()), default=0)):
        live = [(k, w) for k, w in walks.items() if it < len(w.noise)]
        trials = [w.params + w.step * w.noise[it] for _, w in live]
        scores = evaluate(trials, [k for k, _ in live])
        for (_, w), trial, t_score in zip(live, trials, scores):
            if t_score > w.score:
                w.score, w.params = t_score, trial
            else:
                w.step *= STEP_DECAY


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
    dim = 3 if isinstance(mode, CommonMode) else 2
    dirs = _directions(dim, cfg.directions, rng)
    batches = []  # the size of each batch scored: one profile-kernel call each

    def systems(params) -> list:
        batches.append(len(params))
        batch = info_profiles(*par.factors(np.asarray(params)), mac.tensor)
        return _case_systems(batch.profiles, batch.u_independent, mode)

    def score(params):
        return _candidates(systems(params), len(params), dim)

    budget = cfg.max_evaluations if cfg.max_evaluations is not None else math.inf
    candidates = par.structured()
    for _ in range(cfg.restarts):
        candidates.append(par.random(rng))

    # Coverage pass: best candidate per direction (vertices computed once per
    # candidate, scored along every direction); the first candidate reaching
    # a direction's maximum wins it.
    evaluations = int(min(len(candidates), budget))
    partial = evaluations < len(candidates)
    per_dir: list[tuple[float, np.ndarray]] = [(-1.0, None)] * len(dirs)
    if evaluations:
        verts, keep, _ = score(candidates[:evaluations])
        best = np.max(_scores(verts[:, :, None], dirs), axis=1, initial=-np.inf,
                      where=keep[:, :, None])
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
    _refine(walks, lambda trials, keys: [
        t for t, _, _ in _best_vertices(score(trials), dirs[keys])])
    points = []  # (rates, case, params) of each walk's best vertex
    if walks:
        finals = _best_vertices(score([w.params for w in walks.values()]),
                                dirs[list(walks)])
        points = [(vert, case, w.params) for w, (_, case, vert)
                  in zip(walks.values(), finals) if vert is not None]

    # Certification: recompute each generating region and re-check membership.
    if points:
        rates, cases, params = zip(*points)
        held = _certified(systems(params), np.array(rates), cases)
        points = [pt for pt, ok in zip(points, held) if ok]
    cloud = np.vstack([pt[0] for pt in points]) if points else np.zeros((1, dim))
    hull, degenerate = _hull_with_origin(cloud, dim)
    return RegionEstimate(
        mode=mode, dim=dim, points=cloud,
        cases=[pt[1] for pt in points] or [CaseLabel.CASE0],
        generators=[par.build(pt[2]) for pt in points],
        hull_vertices=hull, partial=partial, seed=cfg.seed,
        aux_sizes=par.sizes, evaluations=evaluations, batches=len(batches),
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
    The starts are scored as one batch; the refinement is one walk of
    :func:`_refine`, one trial per step.
    """
    rng = np.random.default_rng(cfg.seed)
    par = _Parameterization(mac, cfg)

    def objective(params) -> list[float]:
        prof = _columns(info_profiles(*par.factors(np.asarray(params)),
                                      mac.tensor).profiles)
        return (prof.it_v12 - prof.iz_v12).tolist()

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
    walk = _Walk(best_val, best_params,
                 rng.standard_normal((cfg.refine_iters, par.length)))
    _refine({0: walk}, lambda trials, _: objective(trials))
    return float(max(walk.score, 0.0))
