"""Achievable-rate polytopes for the two-sender wiretap channel with common message.

Computes the information profiles of batches of factored inputs in one
array kernel, classifies inputs into the four coding cases, emits the case
regions over (R0, R1, R2) and their vertices (one stacked solve per
constraint shape), exposes the time-sharing ("alpha") elementary regions
whose unions rebuild the case regions, and verifies the two polyhedral
decomposition lemmas by dense sampling with explicit witnesses.  Both
verifiers state their time-sharing family once, as right-hand sides affine
in alpha, and read one stacked alpha-set check (union -> closed form) and
one alpha-window check (closed form -> union): a closed-form point is
certified exactly when its alpha-window hits.
The Case-2 region is the convex hull of an alpha-family: it and the hull
verifier read one closed form, :func:`_hull_rhs`, in the senders' given
order.

Naming convention for mutual informations (all in bits): ``it_v1_v2u``
reads I(T ^ V1 | V2 U) -- the token after the quantity is the variable
group, the token after the second underscore is the conditioning group.
``iz_v1u`` (no second underscore) is the unconditioned I(Z ^ V1 U).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import astuple, dataclass, field, fields
from enum import IntEnum
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ResourceBudgetError, ValidationError
from .probkit import (
    ARITH_TOL,
    AX_T,
    AX_U,
    AX_V1,
    AX_V2,
    AX_Z,
    CELL_BUDGET,
    FactoredInput,
    JointDist,
)

EQUALITY_TOL = 1e-12
# Feasibility slack of a vertex candidate against every constraint.
VERTEX_TOL = 1e-9
# Distance from a gate's threshold within which classification warns.
BOUNDARY_TOL = 1e-9

# The constraint shape every case region over (R0, R1, R2) shares; the
# decomposition lemmas only move its right-hand side.
RATE_COEFFS = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=float)
RATE_COEFFS.setflags(write=False)
RATE_NAMES = ("R1 bound", "R2 bound", "R1+R2 bound", "R0+R1+R2 bound")


def _scores(verts, dirs):
    """Weighted rates sum_i v[..., i] w[..., i], summed in coordinate order
    with the two arrays broadcast against each other: a score's bits depend
    on its vertex and direction only, never on how many share the call."""
    total = verts[..., 0] * dirs[..., 0]
    for i in range(1, verts.shape[-1]):
        total = total + verts[..., i] * dirs[..., i]
    return total


def _inside(x, coeffs, rhs, tol: float = VERTEX_TOL):
    """Whether x (..., dim) lies in {x >= 0 : coeffs x <= rhs} up to ``tol``."""
    return (x >= -tol).all(-1) & (_scores(x[..., None, :], coeffs) <= rhs + tol).all(-1)


def _pos(x):
    """Positive part, exact (no tolerance), elementwise."""
    return np.where(x > 0.0, x, 0.0)


def _first(better, *vals):
    """Elementwise builtin ``max`` (``better=np.greater``) or ``min``
    (``np.less``): ties and NaNs keep the earlier value, bit for bit."""
    out = vals[0]
    for v in vals[1:]:
        out = np.where(better(v, out), v, out)
    return out


class CaseLabel(IntEnum):
    CASE0 = 0
    CASE1 = 1
    CASE2 = 2
    CASE3 = 3


@dataclass(frozen=True)
class InfoProfile:
    """Every information quantity appearing in the rate bounds, in bits."""

    it_v1_v2u: float
    it_v2_v1u: float
    it_v12_u: float
    it_v12: float
    it_v1_u: float
    it_v2_u: float
    it_u: float
    iz_v1_v2u: float
    iz_v2_v1u: float
    iz_v12_u: float
    iz_v12: float
    iz_v1_u: float
    iz_v2_u: float
    iz_u: float
    iz_v1u: float
    iz_v2u: float

    def array(self) -> np.ndarray:
        return np.array(astuple(self))  # one row of a profile array

    def swapped(self) -> "InfoProfile":
        """The profile with the roles of the two senders exchanged."""
        return InfoProfile(*self.array()[SENDER_SWAP].tolist())

    def to_json_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


# A profile array holds one InfoProfile field per column, in field order;
# exchanging the senders permutes its columns.
SENDER_SWAP = [1, 0, 2, 3, 5, 4, 6, 8, 7, 9, 10, 12, 11, 13, 15, 14]
_Columns = namedtuple("_Columns", [f.name for f in fields(InfoProfile)])


def _columns(profiles) -> _Columns:
    a = np.asarray(profiles)  # (..., 16) -> 16 fields of shape (...), by name
    return _Columns(*a.transpose((a.ndim - 1,) + tuple(range(a.ndim - 1))))


class ProfileBatch(NamedTuple):
    """Profiles of a batch of inputs as (N, 16) rows, with each I(U ; V1 V2)
    from the same entropy table; ``u_independent`` flags (V1, V2) carrying no
    information about U (to ``ARITH_TOL``, and always when |U| = 1)."""

    profiles: np.ndarray
    u_info: np.ndarray
    u_independent: np.ndarray

    def profile(self, i: int) -> InfoProfile:
        return InfoProfile(*self.profiles[i].tolist())


# The 17 distinct marginals the profile reads, over the law's axes
# u, a = V1, b = V2, t, z: each is summed from the smallest marginal already
# taken that contains it, starting from the full law "uabtz".
_MARGINAL_PLAN = (
    ("uabt", "uabtz"), ("uabz", "uabtz"), ("uab", "uabt"),
    ("uat", "uabt"), ("ubt", "uabt"), ("abt", "uabt"), ("ut", "uat"), ("t", "ut"),
    ("uaz", "uabz"), ("ubz", "uabz"), ("abz", "uabz"), ("uz", "uaz"), ("z", "uz"),
    ("ua", "uab"), ("ub", "uab"), ("ab", "uab"), ("u", "ua"),
)
# (marginal, source, source axes summed away), the batch axis leading
_MARGINAL_STEPS = tuple(
    (key, source, tuple(1 + source.index(c) for c in source if c not in key))
    for key, source in _MARGINAL_PLAN)
_ENTROPY_COLUMN = {key: i for i, (key, _) in enumerate(_MARGINAL_PLAN)}
_ENTROPY_COLUMN[""] = len(_MARGINAL_PLAN)  # H of nothing: a zero column


def _mi_terms(ac: str, bc: str, abc: str, c: str = "") -> tuple[int, ...]:
    """Entropy columns of I(A ; B | C) = H(AC) + H(BC) - H(ABC) - H(C)."""
    return tuple(_ENTROPY_COLUMN[key] for key in (ac, bc, abc, c))


# One row per profile field, in InfoProfile order, then I(U ; V1 V2).
_FIELD_TERMS = np.array(
    [term for o in "tz" for term in (
        _mi_terms(f"ub{o}", "uab", f"uab{o}", "ub"),  # I(O ; V1 | V2 U)
        _mi_terms(f"ua{o}", "uab", f"uab{o}", "ua"),  # I(O ; V2 | V1 U)
        _mi_terms(f"u{o}", "uab", f"uab{o}", "u"),    # I(O ; V1 V2 | U)
        _mi_terms(o, "ab", f"ab{o}"),                 # I(O ; V1 V2)
        _mi_terms(f"u{o}", "ua", f"ua{o}", "u"),      # I(O ; V1 | U)
        _mi_terms(f"u{o}", "ub", f"ub{o}", "u"),      # I(O ; V2 | U)
        _mi_terms(o, "u", f"u{o}"),                   # I(O ; U)
    )]
    + [_mi_terms("z", "ua", "uaz"),                   # I(Z ; V1 U)
       _mi_terms("z", "ub", "ubz"),                   # I(Z ; V2 U)
       _mi_terms("u", "ab", "uab")])                  # I(U ; V1 V2)


def _profiles_of_laws(law: np.ndarray) -> ProfileBatch:
    """The kernel on a stack of (N, U, V1, V2, T, Z) laws."""
    n = law.shape[0]
    marginals = {"uabtz": law}
    flats, starts, at = [], [], 0
    for key, source, drop in _MARGINAL_STEPS:
        m = marginals[key] = np.add.reduce(marginals[source], axis=drop)
        flats.append(m.reshape(n, math.prod(m.shape[1:])))
        starts.append(at)
        at += flats[-1].shape[1]
    flat = np.concatenate(flats, axis=1)
    logs = np.log2(flat, out=np.zeros_like(flat), where=flat > 0.0)
    h = np.zeros((n, len(_MARGINAL_PLAN) + 1))
    h[:, :-1] = -np.add.reduceat(flat * logs, starts, axis=1)
    t = _FIELD_TERMS
    info = h[:, t[:, 0]] + h[:, t[:, 1]] - h[:, t[:, 2]] - h[:, t[:, 3]]
    u_info = info[:, -1]
    u_ind = (u_info <= ARITH_TOL) | (law.shape[1] == 1)
    return ProfileBatch(info[:, :-1], u_info, u_ind)


def info_profiles(p_u: np.ndarray, v1_given_u: np.ndarray, v2_given_u: np.ndarray,
                  x_given_v1: np.ndarray, y_given_v2: np.ndarray,
                  tensor: np.ndarray) -> ProfileBatch:
    """Information profiles of a batch of factored inputs on one channel.

    Takes stacked row-stochastic factors -- p_u (N, U), P(V1|U) (N, U, V1),
    P(V2|U) (N, U, V2), P(X|V1) (N, V1, X), P(Y|V2) (N, V2, Y) -- and the
    channel tensor (X, Y, T, Z).  Two pairwise contractions give the
    (N, U, V1, V2, T, Z) law directly (no profile field reads X or Y), and
    the 17 marginal entropies are taken once per batch.  Batches are cut
    into chunks of at most ``CELL_BUDGET`` cells.
    """
    n, u, a = v1_given_u.shape
    b = v2_given_u.shape[2]
    x, y, t, z = tensor.shape
    cells = max(u * a * b, a * y) * t * z
    if cells > CELL_BUDGET:
        raise ResourceBudgetError(f"input law would need {cells} cells")
    chunk = max(CELL_BUDGET // cells, 1)
    flat = tensor.reshape(x, y * t * z)
    parts = []
    for lo in range(0, max(n, 1), chunk):
        sl = slice(lo, lo + chunk)
        # P(T, Z | V1, V2): contract X, then Y.
        w = np.matmul(x_given_v1[sl], flat).reshape(-1, a, y, t * z)
        w = np.matmul(y_given_v2[sl][:, None], w)
        joint_uab = (p_u[sl][:, :, None, None] * v1_given_u[sl][:, :, :, None]
                     * v2_given_u[sl][:, :, None, :])
        law = joint_uab[..., None] * w[:, None]
        parts.append(_profiles_of_laws(law.reshape(-1, u, a, b, t, z)))
    return ProfileBatch(*(np.concatenate(field) for field in zip(*parts)))


def _profile_batch(p: FactoredInput | JointDist) -> ProfileBatch:
    """The kernel on a batch of one input; a joint is first marginalized to
    (U, V1, V2, T, Z)."""
    if isinstance(p, FactoredInput):
        return info_profiles(p.p_u.mass[None], p.v1_given_u.matrix[None],
                             p.v2_given_u.matrix[None], p.x_given_v1.matrix[None],
                             p.y_given_v2.matrix[None], p.mac.tensor)
    law = p.marginal_mass((AX_U, AX_V1, AX_V2, AX_T, AX_Z))
    return _profiles_of_laws(law[None])


def info_profile(p: FactoredInput | JointDist) -> InfoProfile:
    """The information profile of one factored input (or its joint): the
    batch kernel on one input, for the CLI, codes and single-input calls."""
    return _profile_batch(p).profile(0)


@dataclass(frozen=True)
class AlphaBounds:
    """Time-sharing interval endpoints; ``degenerate`` marks the equality branch."""

    alpha0: float | None
    alpha1: float | None
    degenerate: bool = False

    def contains(self, alpha: float, tol: float = 1e-9) -> bool:
        if self.degenerate:
            return False
        return self.alpha0 - tol <= alpha <= self.alpha1 + tol


def alpha_bounds_case1(prof: InfoProfile, tol: float = EQUALITY_TOL) -> AlphaBounds:
    """Time-sharing interval for Case 1 (and Case 0).

    Returns the degenerate flag when I(Z^V1|U) = I(Z^V1|V2U); the case region
    is then achieved directly and carries no alpha parameter.  In the strict
    branch, ``alpha0 <= alpha1`` holds exactly when the Case-1 compatibility
    inequalities hold.
    """
    gap = prof.iz_v1_v2u - prof.iz_v1_u  # equals iz_v2_v1u - iz_v2_u
    if abs(gap) <= tol:
        return AlphaBounds(None, None, degenerate=True)
    a0 = _pos((prof.it_v2_v1u - prof.iz_v2_v1u) / (prof.iz_v2_u - prof.iz_v2_v1u))
    a1 = min((prof.it_v1_v2u - prof.iz_v1_u) / (prof.iz_v1_v2u - prof.iz_v1_u), 1.0)
    return AlphaBounds(float(a0), a1)


def _case2_interval(p: _Columns, hc: float, tol: float = EQUALITY_TOL):
    """(alpha0, alpha1, degenerate) of the Case-2 time-sharing interval on
    profile columns.  The formulas branch on the sign of I(Z^V1|V2U) -
    I(Z^V2|V1U); the equality branch is degenerate (its ends are not read)."""
    a, b = p.iz_v1_v2u, p.iz_v2_v1u
    diff = a - b
    r1, r2, r12 = p.it_v1_v2u, p.it_v2_v1u, p.it_v12_u
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_r2_b = np.where(b > 0.0, r2 / np.where(b > 0.0, b, 1.0), math.inf)
        ratio_r1_a = np.where(a > 0.0, r1 / np.where(a > 0.0, a, 1.0), math.inf)
        up = diff > 0.0
        gate, sum_cap = (p.iz_v1u - hc) / diff, (r12 - b) / diff
        alpha0 = np.where(up, _first(np.greater, gate, 1.0 - ratio_r2_b, 0.0),
                          _first(np.greater, 1.0 - ratio_r2_b, sum_cap, 0.0))
        alpha1 = np.where(up, _first(np.less, ratio_r1_a, sum_cap, 1.0),
                          _first(np.less, (hc - p.iz_v1u) / (-diff), ratio_r1_a, 1.0))
    return alpha0, alpha1, np.abs(diff) <= tol


def alpha_bounds_case2(prof: InfoProfile, hc: float,
                       tol: float = EQUALITY_TOL) -> AlphaBounds:
    """Time-sharing interval for Case 2 at common-randomness bound ``hc``:
    :func:`_case2_interval` on one profile (degenerate: achieved directly)."""
    alpha0, alpha1, degenerate = _case2_interval(_columns(prof.array()), hc, tol)
    return (AlphaBounds(None, None, degenerate=True) if degenerate
            else AlphaBounds(float(alpha0), float(alpha1)))


@dataclass(frozen=True)
class CaseReport:
    """Classification outcome with near-boundary warnings."""

    cases: frozenset
    warnings: tuple[str, ...] = ()

    def __contains__(self, label) -> bool:
        return label in self.cases

    def __iter__(self):
        return iter(self.cases)


def classify_profiles(profiles: np.ndarray, hc: float,
                      u_independent=False) -> np.ndarray:
    """The (N, 4) mask of the cases each row of a profile array classifies
    into at ``hc``, strict gates strictly; ``u_independent`` (one flag or one
    per row) says whether (V1, V2) is independent of U, as Case 0 needs."""
    if hc < 0:
        raise PreconditionError("common randomness bound must be nonnegative")
    p = _columns(profiles)
    hc01 = p.iz_v1_u <= p.it_v1_v2u
    hc02 = p.iz_v2_u <= p.it_v2_v1u
    case2 = (np.minimum(p.iz_v1u, p.iz_v2u) < hc) & (hc <= p.iz_v12)
    if case2.any():  # the interval is read only inside the Case-2 window
        alpha0, alpha1, degenerate = _case2_interval(p, hc)
        case2 &= degenerate | (alpha0 <= alpha1)
    mask = np.stack([hc01 & hc02 & u_independent & (hc == 0.0),
                     (p.iz_u < hc) & hc01 & hc02
                     & (p.iz_v12_u <= p.it_v1_v2u + p.it_v2_v1u),
                     case2, p.iz_v12 < hc], axis=-1)
    return mask & ~(p.iz_v12 > p.it_v12)[:, None]


def classify_profile(prof: InfoProfile, hc: float,
                     u_independent: bool = False) -> CaseReport:
    """:func:`classify_profiles` on one profile, with a warning for each
    gate within ``BOUNDARY_TOL`` of its threshold."""
    mask = classify_profiles(prof.array()[None], hc, u_independent)[0]
    cases = frozenset(CaseLabel(c) for c in np.nonzero(mask)[0])

    def near(x, y):
        return abs(x - y) <= BOUNDARY_TOL

    if prof.iz_v12 > prof.it_v12:
        warn = [(near(prof.iz_v12, prof.it_v12),
                 "common-gate I(Z^V1V2) <= I(T^V1V2) holds only marginally")]
    else:
        warn = [(hc == 0.0 and u_independent and near(lhs, rhs),
                 f"Case-0 condition {name} is on its boundary")
                for name, lhs, rhs in (("HC01", prof.iz_v1_u, prof.it_v1_v2u),
                                       ("HC02", prof.iz_v2_u, prof.it_v2_v1u))]
        warn += [(near(prof.iz_u, hc), "Case-1 gate I(Z^U) < H_C is on its boundary"),
                 (near(min(prof.iz_v1u, prof.iz_v2u), hc) or near(hc, prof.iz_v12),
                  "Case-2 gate min{I(Z^V1U), I(Z^V2U)} < H_C <= I(Z^V1V2) "
                  "is on its boundary"),
                 (near(prof.iz_v12, hc),
                  "Case-3 gate I(Z^V1V2) < H_C is on its boundary")]
    return CaseReport(cases, tuple(msg for hit, msg in warn if hit))


def classify_case(p: FactoredInput, hc: float) -> frozenset:
    """Set of coding cases applicable to a factored input at bound ``hc``."""
    prof, u_ind = _resolve(p)
    return classify_profile(prof, hc, u_independent=u_ind).cases


# ---------------------------------------------------------------------------
# Polytopes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatePolytope:
    """A rate region {R >= 0 : coeffs @ R <= rhs} in 2 or 3 dimensions."""

    dim: int
    coeffs: np.ndarray  # (k, dim)
    rhs: np.ndarray     # (k,)
    names: tuple[str, ...] = ()

    def __post_init__(self):
        co = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        rh = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if co.shape != (rh.shape[0], self.dim):
            raise ValidationError(f"polytope shapes {co.shape} / {rh.shape} mismatch")
        if (co == 0.0).all(axis=1).any():
            raise ValidationError("zero coefficient row in polytope")
        if not np.isfinite(rh).all():
            raise ValidationError("non-finite right-hand side")
        co.setflags(write=False)
        rh.setflags(write=False)
        object.__setattr__(self, "coeffs", co)
        object.__setattr__(self, "rhs", rh)
        if self.names and len(self.names) != rh.shape[0]:
            raise ValidationError("one name per constraint required")

    def contains(self, point, tol: float = 1e-9) -> bool:
        x = np.asarray(point, dtype=float)
        if x.shape != (self.dim,):
            raise ValidationError(f"point dimension {x.shape} != {self.dim}")
        return bool(_inside(x, self.coeffs, self.rhs, tol))

    def violated(self, point, tol: float = 1e-9) -> list[str]:
        """Names (or indices) of the constraints the point breaks."""
        x = np.asarray(point, dtype=float)
        out = [f"R{i} >= 0" for i in range(self.dim) if x[i] < -tol]
        slack = _scores(x, self.coeffs) - self.rhs
        for i in np.nonzero(slack > tol)[0]:
            out.append(self.names[i] if self.names else f"constraint[{i}]")
        return out

    def contains_origin(self, tol: float = 1e-9) -> bool:
        return bool(np.all(self.rhs >= -tol))

    def vertices(self) -> np.ndarray:
        """All vertices (dim <= 3): :func:`stacked_vertices` on this
        polytope alone."""
        pts, keep = stacked_vertices(self.coeffs, self.rhs[None])
        return pts[0, keep[0]]

    def max_weighted(self, weights) -> float:
        """Maximum of weights @ R over the region (vertex enumeration)."""
        verts = self.vertices()
        if verts.shape[0] == 0:
            raise PreconditionError("empty polytope has no maximum")
        return float(np.max(verts @ np.asarray(weights, dtype=float)))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Random points: boundary ray hits plus scaled interior points."""
        if not self.contains_origin():
            return np.zeros((0, self.dim))
        return _ray_points(rng, self.coeffs, self.rhs, count, self.dim)

    def to_json_dict(self) -> dict:
        cons = [{"coeffs": [float(c) for c in row], "rhs": float(r)}
                for row, r in zip(self.coeffs, self.rhs)]
        for item, name in zip(cons, self.names):
            item["name"] = name
        return {"dim": self.dim, "constraints": cons}

    @staticmethod
    def from_json_dict(obj: dict) -> "RatePolytope":
        cons = obj["constraints"]
        return RatePolytope(
            int(obj["dim"]),
            np.array([c["coeffs"] for c in cons], dtype=float),
            np.array([c["rhs"] for c in cons], dtype=float),
            tuple(c.get("name", f"constraint[{i}]") for i, c in enumerate(cons)),
        )


def _active_sets(coeffs: np.ndarray):
    """Active ``dim``-row subsets of (coeffs, -I), their matrices, which are regular."""
    dim = coeffs.shape[-1]
    eye = np.broadcast_to(-np.eye(dim), coeffs.shape[:-2] + (dim, dim))
    combos = np.array(list(combinations(range(coeffs.shape[-2] + dim), dim)))
    mats = np.concatenate([coeffs, eye], axis=-2)[..., combos, :]
    return combos, mats, np.abs(np.linalg.det(mats)) >= 1e-12


@lru_cache(maxsize=64)
def _regular_sets(shape: tuple, data: bytes):
    """The regular active subsets of one fixed matrix and their matrices."""
    combos, mats, regular = _active_sets(np.frombuffer(data).reshape(shape))
    return combos[regular], mats[regular]


def stacked_vertices(coeffs: np.ndarray, rhs: np.ndarray):
    """Vertices of {x >= 0 : coeffs x <= b} for each row b of an (N, m) stack,
    with one (m, dim) matrix (its regular active subsets found once) or one
    per row.  Returns (points (N, C, dim), keep (N, C)): each row's candidates
    clipped at 0 in ``np.lexsort`` order, those off by over ``VERTEX_TOL``
    last, and its vertex mask, less each within 1e-9 of the last one kept."""
    rhs = np.asarray(rhs, dtype=float)
    dim = coeffs.shape[-1]
    if coeffs.ndim == 2:
        combos, mats = _regular_sets(coeffs.shape, coeffs.astype(float).tobytes())
        regular, cons = True, coeffs
    else:
        combos, mats, regular = _active_sets(coeffs)
        mats = np.where(regular[..., None, None], mats, np.eye(dim))
        cons = coeffs[:, None]
    vals = np.concatenate([rhs, np.zeros((rhs.shape[0], dim))], axis=1)[:, combos]
    xs = np.linalg.solve(mats, vals[..., None])[..., 0]
    feasible = regular & _inside(xs, cons, rhs[:, None])
    pts = np.clip(xs, 0.0, None)
    order = np.lexsort((*pts.transpose(2, 0, 1), ~feasible))
    at = np.arange(len(pts))[:, None]
    pts, keep = pts[at, order], feasible[at, order]
    near = keep[:, 1:] & (np.abs(pts[:, 1:] - pts[:, :-1]).max(axis=2) <= 1e-9)
    rows = np.nonzero(near.any(axis=1))[0]  # the rare rows that drop a point
    last = pts[rows, 0]
    for j in range(1, pts.shape[1] if rows.size else 0):
        keep[rows, j] &= np.abs(pts[rows, j] - last).max(axis=1) > 1e-9
        last = np.where(keep[rows, j, None], pts[rows, j], last)
    return pts, keep


def _resolve(p_or_prof, u_independent=None):
    """(profile, u-independence flag) of an input, from one kernel call; a
    profile passes through with the flag given (False when None)."""
    if isinstance(p_or_prof, FactoredInput):
        batch = _profile_batch(p_or_prof)
        return batch.profile(0), bool(batch.u_independent[0])
    return p_or_prof, bool(u_independent)


def _hull_rhs(r1, r2, r12, total, a, b, alpha0, alpha1):
    """The five right-hand sides of the convex hull of K_alpha =
    {x >= 0 : x1 <= r1 - alpha a, x2 <= r2 - (1 - alpha) b,
    x1 + x2 <= r12 - alpha a - (1 - alpha) b, x0 + x1 + x2 <= total} over
    alpha in [alpha0, alpha1], in the senders' given order and for either
    sign of a - b: R1, R2, R1+R2, the weighted row (0, b, a), and the total.
    Elementwise on arrays: the Case-2 region and the hull verifier both read
    it."""
    low = a <= b  # the largest sum bound is K_alpha1's, else K_alpha0's
    at = np.where(low, alpha1, alpha0)
    weighted = np.where(low, r12 * a + r1 * (b - a), r12 * b + r2 * (a - b)) - a * b
    return np.stack([r1 - alpha0 * a, r2 - (1.0 - alpha1) * b,
                     r12 - at * a - (1.0 - at) * b, weighted, total], axis=-1)


def case_rhs(profiles: np.ndarray, hc: float, case: CaseLabel):
    """(coeffs, rhs, ok): one case's region over (R0, R1, R2) for each row
    of a profile array, regardless of the case's gates; ``ok`` is False where
    the Case-2 time-sharing interval is empty.  Case 2 has (N, 5, 3)
    coefficients: its weighted row (0, I(Z^V2|V1U), I(Z^V1|V2U)) bounds the
    hull facet of the time-sharing corners (:func:`_hull_rhs`), and the
    equality branch repeats the R1+R2 row there.
    """
    p = _columns(profiles)
    total = p.it_v12 - p.iz_v12
    case = CaseLabel(case)
    if case != CaseLabel.CASE2:
        b1, b2 = _case1_bounds(p)
        rhs = {CaseLabel.CASE0: [np.zeros_like(total), b1, b2, total],
               CaseLabel.CASE1: [b1, b2, p.it_v12_u - p.iz_v12_u, total],
               CaseLabel.CASE3: [p.it_v1_v2u, p.it_v2_v1u, p.it_v12_u, total]}[case]
        coeffs = np.vstack([[1, 0, 0], RATE_COEFFS[:3]]) if case == 0 else RATE_COEFFS
        return coeffs, np.stack(rhs, 1), np.ones(len(profiles), dtype=bool)
    a, b = p.iz_v1_v2u, p.iz_v2_v1u
    alpha0, alpha1, degenerate = _case2_interval(p, hc)
    with np.errstate(invalid="ignore"):
        hull = _hull_rhs(p.it_v1_v2u, p.it_v2_v1u, p.it_v12_u, total, a, b,
                         alpha0, alpha1)
    direct = np.stack([p.it_v1_v2u, p.it_v2_v1u, *[p.it_v12_u - a] * 2, total], 1)
    coeffs = np.tile(RATE_COEFFS[[0, 1, 2, 2, 3]], (len(profiles), 1, 1))
    coeffs[~degenerate, 3, 1:] = np.stack([b, a], 1)[~degenerate]
    return (coeffs, np.where(degenerate[:, None], direct, hull),
            degenerate | ~(alpha0 > alpha1))


def region_common(p_or_prof, hc: float, case: CaseLabel, *,
                  check_membership: bool = True,
                  u_independent: bool | None = None) -> RatePolytope:
    """The case region over (R0, R1, R2) of one input or profile: its row
    of :func:`case_rhs`, for the CLI, codes and single-input calls.  With
    ``check_membership`` (default) the input must classify into ``case``."""
    prof, u_ind = _resolve(p_or_prof, u_independent)
    case = CaseLabel(case)
    if check_membership and case not in classify_profile(prof, hc, u_ind).cases:
        raise PreconditionError(f"input does not classify as {case.name} at H_C={hc}")
    coeffs, rhs, ok = case_rhs(prof.array()[None], hc, case)
    if not ok[0]:
        raise PreconditionError("Case-2 time-sharing interval is empty")
    rhs, names = rhs[0], RATE_NAMES
    if case == CaseLabel.CASE0:
        names = ("R0 = 0",) + RATE_NAMES[:3]
    elif case == CaseLabel.CASE2:
        coeffs = coeffs[0]
        if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) <= EQUALITY_TOL:
            coeffs, rhs = np.delete(coeffs, 3, axis=0), np.delete(rhs, 3)
        else:
            names = RATE_NAMES[:3] + ("weighted bound",) + RATE_NAMES[3:]
    return RatePolytope(3, coeffs, rhs, names)


def _case1_bounds(prof) -> tuple:
    """The Case-0/1 R1 and R2 bounds: each sender's information given the
    other and U, less its leakage given U and the other's excess leakage."""
    return (prof.it_v1_v2u - prof.iz_v1_u - _pos(prof.iz_v2_v1u - prof.it_v2_v1u),
            prof.it_v2_v1u - prof.iz_v2_u - _pos(prof.iz_v1_v2u - prof.it_v1_v2u))


def randomization_rates(prof: InfoProfile, case: CaseLabel,
                        alpha: float) -> tuple[float, float, float]:
    """The rates (J0, J1, J2) a case's code spends on randomization at the
    time-sharing fraction ``alpha``.

    J0 is the rate of the shared index, which H_C bounds and conferencing
    carries over the links; J1 and J2 are the rates of the private indices.
    Case 1 interpolates both senders' leakages between the two conditioning
    orders (Case 0 reads its row, with no shared index in its code); in
    Case 2 one sender pays its conditional leakage at a time and J0
    interpolates the single-sender-plus-U leakages; Case 3 pays the leakage
    of the full input pair on the shared index alone.  On profile columns
    (:func:`_columns`) and an array of alphas the rates broadcast.
    """
    case = CaseLabel(case)
    if case == CaseLabel.CASE3:
        return (prof.iz_v12, 0.0, 0.0)
    if case == CaseLabel.CASE2:
        j0 = alpha * prof.iz_v2u + (1 - alpha) * prof.iz_v1u
        return (j0, alpha * prof.iz_v1_v2u, (1 - alpha) * prof.iz_v2_v1u)
    j1 = alpha * prof.iz_v1_v2u + (1 - alpha) * prof.iz_v1_u
    j2 = alpha * prof.iz_v2_u + (1 - alpha) * prof.iz_v2_v1u
    return (prof.iz_u, j1, j2)


def elementary_region(p_or_prof, case: CaseLabel, alpha: float,
                      hc: float | None = None, *,
                      check_range: bool = True) -> RatePolytope:
    """The time-sharing elementary region at a fixed alpha.

    One formula for every case: each rate bound is its information term less
    the private randomization rates (J1, J2) of :func:`randomization_rates`
    it covers, and Case 0 adds R0 = 0.  ``hc`` is required to validate the
    Case-2 range; Case 3 has no alpha range.
    """
    prof, _ = _resolve(p_or_prof)
    case = CaseLabel(case)
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha={alpha} outside [0, 1]")
    if check_range and case != CaseLabel.CASE3:
        if case != CaseLabel.CASE2:
            ab = alpha_bounds_case1(prof)
        elif hc is None:
            raise PreconditionError("Case-2 range validation needs hc")
        else:
            ab = alpha_bounds_case2(prof, hc)
        if ab.degenerate:
            raise PreconditionError(
                "equal conditional leakages: the case region is achieved "
                "directly, no elementary decomposition applies"
            )
        if not ab.contains(alpha):
            raise PreconditionError(
                f"alpha={alpha} outside [{ab.alpha0}, {ab.alpha1}]"
            )
    _, j1, j2 = randomization_rates(prof, case, alpha)
    rhs = [prof.it_v1_v2u - j1, prof.it_v2_v1u - j2, prof.it_v12_u - (j1 + j2),
           prof.it_v12 - prof.iz_v12]
    if case == CaseLabel.CASE0:
        return RatePolytope(3, np.vstack([RATE_COEFFS, [1, 0, 0]]),
                            np.array(rhs + [0.0]), RATE_NAMES + ("R0 = 0",))
    return RatePolytope(3, RATE_COEFFS, np.array(rhs), RATE_NAMES)


# ---------------------------------------------------------------------------
# Decomposition lemma verification
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    """Outcome of a sampling-based set-equality verification."""

    lemma: str
    passed: bool
    checked: int
    counterexamples: list = field(default_factory=list)
    notes: tuple[str, ...] = ()
    witnesses: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "passed": bool(self.passed),
            "checked": int(self.checked),
            "counterexamples": [
                {k: (list(map(float, v)) if isinstance(v, (list, tuple, np.ndarray))
                     else (float(v) if isinstance(v, (int, float, np.floating)) else v))
                 for k, v in ce.items()}
                for ce in self.counterexamples
            ],
            "notes": list(self.notes),
            "witness_count": len(self.witnesses),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _alpha_grid(alpha0: float, alpha1: float, step: float) -> np.ndarray:
    if alpha1 <= alpha0:
        return np.array([alpha0])
    count = max(int(math.ceil((alpha1 - alpha0) / step)), 1)
    return np.linspace(alpha0, alpha1, count + 1)


def _ray_points(rng: np.random.Generator, coeffs: np.ndarray, rhs: np.ndarray,
                count: int, dim: int = 3) -> np.ndarray:
    """Boundary and interior points of {x >= 0 : coeffs x <= rhs} via rays.

    A (k,) right-hand side gives (count, dim) points; an (S, k) stack gives
    (S, count, dim), one set per row.  Each set draws its normals, then its
    scales, in turn, so the generator reads as in S one-set calls; the
    geometry then runs once on the whole stack.
    """
    rhs = np.asarray(rhs, dtype=float)
    sets = rhs.reshape(-1, rhs.shape[-1])
    half = count // 2
    dirs = np.empty((sets.shape[0], count, dim))
    scale = np.ones((sets.shape[0], count))
    for s in range(sets.shape[0]):
        dirs[s] = rng.standard_normal((count, dim))
        scale[s, half:] = rng.uniform(0.0, 1.0, size=count - half)
    dirs = np.abs(dirs) + 1e-9
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    proj = dirs @ coeffs.T  # (S, count, k)
    with np.errstate(divide="ignore"):
        limits = np.where(proj > 1e-15,
                          sets[:, None, :] / np.where(proj > 1e-15, proj, 1.0), np.inf)
    t = np.min(limits, axis=-1)
    t = np.where(np.isfinite(t), t, 1.0)
    pts = np.clip(dirs * (t * scale)[..., None], 0.0, None)
    return pts.reshape(rhs.shape[:-1] + (count, dim))


# An alpha-family (r, a, b) stacks three 4-vectors over the rows of
# RATE_COEFFS: K_alpha = {x >= 0 : RATE_COEFFS x <= r - alpha a - (1 - alpha) b}.

def _family_rhs(family: np.ndarray, alphas) -> np.ndarray:
    """The (G, 4) right-hand sides of K_alpha at each of G alphas."""
    r, a, b = family
    alpha = np.asarray(alphas, dtype=float)[:, None]
    return r - alpha * a - (1.0 - alpha) * b


def _alpha_windows(x_pts: np.ndarray, family: np.ndarray, alpha0: float,
                   alpha1: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Each point's feasible alpha-window within [alpha0, alpha1].

    Row i of K_alpha reads s_i <= r_i - b_i + alpha (b_i - a_i) (+ tol), with
    s = RATE_COEFFS x: it bounds alpha from below when b_i > a_i, from above
    when b_i < a_i, and is a fixed test when they are equal.  The window can
    have zero width at an interior alpha, which no grid can hit.  Returns
    (alpha, hit): the window's middle clipped to [alpha0, alpha1], and
    whether the point lies in K_alpha there.
    """
    r, a, b = family
    s = x_pts @ RATE_COEFFS.T
    lo = np.full(x_pts.shape[0], alpha0, dtype=float)
    hi = np.full(x_pts.shape[0], alpha1, dtype=float)
    feasible = np.ones(x_pts.shape[0], dtype=bool)
    for i in range(len(r)):
        slope = b[i] - a[i]
        if slope == 0.0:
            feasible &= s[:, i] <= r[i] - a[i] + tol
            continue
        bound = (s[:, i] - r[i] + b[i]) / slope - tol / slope
        if slope > 0:
            lo = _first(np.greater, lo, bound)
        else:
            hi = _first(np.less, hi, bound)
    alpha = _first(np.less, _first(np.greater, 0.5 * (lo + hi), alpha0), alpha1)
    margin = _family_rhs(family, alpha) - s
    return alpha, feasible & (lo <= hi) & (margin.min(axis=1) >= -tol)


def _alpha_set_check(report: LemmaReport, rng: np.random.Generator,
                     family: np.ndarray, alphas: np.ndarray, count: int,
                     k_coeffs: np.ndarray, k_rhs: np.ndarray, tol: float,
                     direction: str) -> None:
    """Sample ``count`` points of K_alpha at each alpha (one stacked draw),
    test them against K = {x : k_coeffs x <= k_rhs}, and add them to the
    report: the points checked, and the counterexamples in alpha order, then
    point order."""
    sub = _ray_points(rng, RATE_COEFFS, _family_rhs(family, alphas), count)
    report.checked += sub.shape[0] * count
    report.counterexamples += [
        {"direction": direction, "alpha": float(alphas[s]), "point": sub[s, j].tolist()}
        for s, j in zip(*np.nonzero(~_inside(sub, k_coeffs, k_rhs, tol)))]


def _k_to_union_check(report: LemmaReport, rng: np.random.Generator,
                      family: np.ndarray, alpha0: float, alpha1: float,
                      count: int, k_coeffs: np.ndarray, k_rhs: np.ndarray,
                      tol: float, direction: str
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``count`` points of the closed form K = {x : k_coeffs x <=
    k_rhs}, count them as checked, and add each point whose alpha-window
    misses to the counterexamples.  Returns the points, their window alphas
    and their hits."""
    pts = _ray_points(rng, k_coeffs, k_rhs, count)
    report.checked += pts.shape[0]
    alphas, hits = _alpha_windows(pts, family, alpha0, alpha1, tol)
    report.counterexamples += [{"direction": direction, "point": x}
                               for x in pts[~hits].tolist()]
    return pts, alphas, hits


def verify_union_lemma(a1, a2, b1, b2, c, d, r1, r2, r12, r012,
                       alpha0, alpha1, samples: int = 200, *,
                       grid_step: float = 1e-3, tol: float = 1e-9,
                       seed: int = 0) -> LemmaReport:
    """Check that the union of the interpolated boxes equals its closed form.

    The alpha-family has rate bounds interpolating linearly between two
    constraint pairs with matching totals (a1 + a2 = b1 + b2 = c), which
    makes the sum constraints alpha-free and the union convex: it equals the
    box with the R1 bound at alpha0 and the R2 bound at alpha1.  Sampled
    points of that box must lie in K_alpha at some alpha of [alpha0, alpha1]
    (their alpha-windows), and sampled points of K_alpha at grid alphas must
    lie in the box.
    """
    vals = dict(a1=a1, a2=a2, b1=b1, b2=b2, c=c, d=d,
                r1=r1, r2=r2, r12=r12, r012=r012)
    for name, v in vals.items():
        if v < 0:
            raise PreconditionError(f"{name} must be nonnegative, got {v}")
    if not a1 > b1:
        raise PreconditionError("hypothesis a1 > b1 violated")
    if not a2 < b2:
        raise PreconditionError("hypothesis a2 < b2 violated")
    if abs(a1 + a2 - c) > 1e-9 or abs(b1 + b2 - c) > 1e-9:
        raise PreconditionError("hypothesis a1+a2 = b1+b2 = c violated")
    if r1 + r2 < r12 - 1e-12:
        raise PreconditionError("hypothesis r1 + r2 >= r12 violated")
    if not 0.0 <= alpha0 <= alpha1 <= 1.0:
        raise PreconditionError("need 0 <= alpha0 <= alpha1 <= 1")

    family = np.array([[r1, r2, r12 - c, r012 - d], [a1, a2, 0, 0], [b1, b2, 0, 0]],
                      dtype=float)
    rng = np.random.default_rng(seed)
    grid = _alpha_grid(alpha0, alpha1, grid_step)
    rhs0, rhs1 = _family_rhs(family, (alpha0, alpha1))
    k_rhs = np.array([rhs0[0], rhs1[1], rhs0[2], rhs0[3]])
    empty_alpha = np.any(_family_rhs(family, grid) < -tol, axis=1)
    k_empty = np.any(k_rhs < -tol)
    report = LemmaReport("union-of-interpolated-boxes", True, 0)
    if k_empty and np.all(empty_alpha):
        report.notes = ("all sets empty; union trivially equals the closed form",)
        return report
    if k_empty or np.any(empty_alpha):
        raise PreconditionError("some alpha-sets are empty; the nonemptiness "
                                "hypothesis fails")

    # K -> union direction.
    _k_to_union_check(report, rng, family, alpha0, alpha1, samples,
                      RATE_COEFFS, k_rhs, tol,
                      "closed-form point not covered by any alpha")

    # union -> K direction (decimated alpha subsample).
    _alpha_set_check(report, rng, family, grid[:: max(len(grid) // 20, 1)],
                     max(samples // 20, 4), RATE_COEFFS, k_rhs, tol,
                     "alpha-set point outside the closed form")
    report.passed = not report.counterexamples
    return report


def verify_convexhull_lemma(r1, r2, r12, r012, a, b, c, alpha0, alpha1,
                            samples: int = 200, *, grid_step: float = 1e-3,
                            tol: float = 1e-9, seed: int = 0) -> LemmaReport:
    """Check the closed form of the convex hull of the alpha-family union.

    Direction one samples convex combinations of endpoint-set members (and
    interior-alpha members) and tests them against the closed form.
    Direction two certifies sampled closed-form points as members of the
    family by their alpha-windows: a point is certified exactly when its
    window hits, and the witness is that single-alpha membership.  No
    mixture of alphas can certify more: every row of K_alpha is affine in
    (x, alpha), so {(x, alpha) : x in K_alpha} is one convex polyhedron and
    the union over [alpha0, alpha1] is its projection, which is convex and
    contains conv(K_alpha0 u K_alpha1).
    """
    for name, v in dict(r1=r1, r2=r2, r12=r12, r012=r012, a=a, b=b, c=c).items():
        if v < 0:
            raise PreconditionError(f"{name} must be nonnegative, got {v}")
    if not (max(r1, r2) <= r12 + 1e-12 and r12 <= r1 + r2 + 1e-12):
        raise PreconditionError("hypothesis max(r1,r2) <= r12 <= r1+r2 violated")
    if not 0.0 <= alpha0 <= alpha1 <= 1.0:
        raise PreconditionError("need 0 <= alpha0 <= alpha1 <= 1")

    family = np.array([[r1, r2, r12, r012 - c], [a, 0, a, 0], [0, b, b, 0]],
                      dtype=float)
    rhs0, rhs1 = _family_rhs(family, (alpha0, alpha1))
    # Every row is affine in alpha, so K_alpha is nonempty on the whole
    # interval exactly when it is at both ends.
    for alpha, rhs in ((alpha0, rhs0), (alpha1, rhs1)):
        if np.any(rhs < -tol):
            raise PreconditionError(f"K_alpha empty at alpha={alpha}: "
                                    "nonemptiness hypothesis fails")

    rng = np.random.default_rng(seed)
    grid = _alpha_grid(alpha0, alpha1, grid_step)

    # Closed form K.
    k_rhs = _hull_rhs(r1, r2, r12, r012 - c, a, b, alpha0, alpha1)
    if a > 0 or b > 0:
        k_coeffs = np.insert(RATE_COEFFS, 3, [0, b, a], axis=0)
    else:  # the weighted row reads 0 <= 0
        k_coeffs, k_rhs = RATE_COEFFS, np.delete(k_rhs, 3)

    report = LemmaReport("convex-hull-of-alpha-family", True, 0)

    # conv(K_a0 u K_a1) -> K.
    p_pts, q_pts = _ray_points(rng, RATE_COEFFS, np.stack([rhs0, rhs1]), samples)
    lam = rng.uniform(0.0, 1.0, size=samples)
    lam[:3] = (0.0, 1.0, 0.5)
    combos = lam[:, None] * p_pts + (1.0 - lam)[:, None] * q_pts
    report.checked += samples
    report.counterexamples += [
        {"direction": "convex combination escapes the closed form",
         "lambda": float(lam[i]), "point": combos[i].tolist()}
        for i in np.nonzero(~_inside(combos, k_coeffs, k_rhs, tol))[0]]

    # Sampled interior alphas stay inside K as well.
    _alpha_set_check(report, rng, family, grid[:: max(len(grid) // 10, 1)],
                     max(samples // 20, 4), k_coeffs, k_rhs, tol,
                     "alpha-set point escapes the closed form")

    # K -> union direction.
    pts, alphas, hits = _k_to_union_check(
        report, rng, family, alpha0, alpha1, samples, k_coeffs, k_rhs, tol,
        "closed-form point not reachable by the family")
    report.witnesses = [{"point": x, "alpha": alpha} for x, alpha
                        in zip(pts[hits].tolist(), alphas[hits].tolist())]
    report.passed = not report.counterexamples
    return report


# ---------------------------------------------------------------------------
# Random hypothesis-satisfying instances (used by tests and the CLI)
# ---------------------------------------------------------------------------

def random_union_instance(rng: np.random.Generator) -> dict:
    """Random parameter tuple satisfying the union-lemma hypotheses."""
    b1 = rng.uniform(0.0, 1.0)
    a2 = rng.uniform(0.0, 1.0)
    gap = rng.uniform(1e-3, 1.0)
    a1, b2 = b1 + gap, a2 + gap
    c = a1 + a2
    alpha0 = rng.uniform(0.0, 1.0)
    alpha1 = rng.uniform(alpha0, 1.0)
    # Keep every K_alpha on [alpha0, alpha1] nonempty.
    r1 = alpha1 * a1 + (1.0 - alpha1) * b1 + rng.uniform(0.0, 2.0)
    r2 = alpha0 * a2 + (1.0 - alpha0) * b2 + rng.uniform(0.0, 2.0)
    r12 = c + rng.uniform(0.0, max(r1 + r2 - c, 0.0))
    if r12 > r1 + r2:
        r12 = r1 + r2
    d = rng.uniform(0.0, 1.0)
    r012 = d + rng.uniform(0.0, 3.0)
    return dict(a1=a1, a2=a2, b1=b1, b2=b2, c=c, d=d,
                r1=r1, r2=r2, r12=r12, r012=r012,
                alpha0=alpha0, alpha1=alpha1)


def random_hull_instance(rng: np.random.Generator) -> dict:
    """Random parameter tuple satisfying the hull-lemma hypotheses."""
    a = rng.uniform(0.0, 1.0)
    b = rng.uniform(0.0, 1.0)
    alpha0 = rng.uniform(0.0, 1.0)
    alpha1 = rng.uniform(alpha0, 1.0)
    r1 = alpha1 * a + rng.uniform(0.0, 2.0)
    r2 = (1.0 - alpha0) * b + rng.uniform(0.0, 2.0)
    r12 = max(r1, r2, alpha1 * a + (1.0 - alpha0) * b) + rng.uniform(0.0, 1.0)
    r12 = min(r12, r1 + r2)
    if r12 < max(r1, r2):
        r12 = max(r1, r2)
    c = rng.uniform(0.0, 1.0)
    r012 = c + rng.uniform(0.0, 3.0)
    return dict(r1=r1, r2=r2, r12=r12, r012=r012, a=a, b=b, c=c,
                alpha0=alpha0, alpha1=alpha1)
