"""Achievable-rate polytopes for the two-sender wiretap channel with common message.

Computes the information profiles of batches of factored inputs in one
array kernel, classifies inputs into the four coding cases, emits the case
regions over (R0, R1, R2) and their vertices (one stacked solve per
constraint shape), exposes the time-sharing ("alpha") elementary regions
whose unions rebuild the case regions, and verifies the two polyhedral
decomposition lemmas by dense sampling with explicit witnesses.

Naming convention for mutual informations (all in bits): ``it_v1_v2u``
reads I(T ^ V1 | V2 U) -- the token after the quantity is the variable
group, the token after the second underscore is the conditioning group.
``iz_v1u`` (no second underscore) is the unconditioned I(Z ^ V1 U).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
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

# The constraint shape every case region over (R0, R1, R2) shares; the
# decomposition lemmas only move its right-hand side.
RATE_COEFFS = np.array([[0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]], dtype=float)
RATE_COEFFS.setflags(write=False)
RATE_NAMES = ("R1 bound", "R2 bound", "R1+R2 bound", "R0+R1+R2 bound")


def _pos(x: float) -> float:
    """Positive part, exact (no tolerance)."""
    return x if x > 0.0 else 0.0


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

    def swapped(self) -> "InfoProfile":
        """The profile with the roles of the two senders exchanged."""
        return InfoProfile(
            it_v1_v2u=self.it_v2_v1u, it_v2_v1u=self.it_v1_v2u,
            it_v12_u=self.it_v12_u, it_v12=self.it_v12,
            it_v1_u=self.it_v2_u, it_v2_u=self.it_v1_u, it_u=self.it_u,
            iz_v1_v2u=self.iz_v2_v1u, iz_v2_v1u=self.iz_v1_v2u,
            iz_v12_u=self.iz_v12_u, iz_v12=self.iz_v12,
            iz_v1_u=self.iz_v2_u, iz_v2_u=self.iz_v1_u, iz_u=self.iz_u,
            iz_v1u=self.iz_v2u, iz_v2u=self.iz_v1u,
        )

    def to_json_dict(self) -> dict:
        return {k: float(v) for k, v in self.__dict__.items()}


class ProfileBatch(NamedTuple):
    """Profiles of a batch of inputs with I(U ; V1 V2) of each, taken from
    the same entropy table; ``u_independent`` flags (V1, V2) carrying no
    information about U (to ``ARITH_TOL``, and always when |U| = 1)."""

    profiles: list[InfoProfile]
    u_info: np.ndarray
    u_independent: np.ndarray


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
    profiles = [InfoProfile(*row) for row in info[:, :-1].tolist()]
    return ProfileBatch(profiles, u_info, u_ind)


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
    if len(parts) == 1:
        return parts[0]
    return ProfileBatch([prof for part in parts for prof in part.profiles],
                        np.concatenate([part.u_info for part in parts]),
                        np.concatenate([part.u_independent for part in parts]))


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
    """Compute the full information profile of a factored input (or its joint)."""
    return _profile_batch(p).profiles[0]


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
    return AlphaBounds(a0, a1)


def alpha_bounds_case2(prof: InfoProfile, hc: float,
                       tol: float = EQUALITY_TOL) -> AlphaBounds:
    """Time-sharing interval for Case 2 at common-randomness bound ``hc``.

    The interval formulas branch on the sign of I(Z^V1|V2U) - I(Z^V2|V1U);
    the equality branch is flagged degenerate (region achieved directly).
    """
    a = prof.iz_v1_v2u
    b = prof.iz_v2_v1u
    diff = a - b
    if abs(diff) <= tol:
        return AlphaBounds(None, None, degenerate=True)
    r1, r2, r12 = prof.it_v1_v2u, prof.it_v2_v1u, prof.it_v12_u
    ratio_r2_b = r2 / b if b > 0.0 else math.inf
    ratio_r1_a = r1 / a if a > 0.0 else math.inf
    if diff > 0.0:
        a0 = max((prof.iz_v1u - hc) / diff, 1.0 - ratio_r2_b, 0.0)
        a1 = min(ratio_r1_a, (r12 - b) / diff, 1.0)
    else:
        a0 = max(1.0 - ratio_r2_b, (r12 - b) / diff, 0.0)
        a1 = min((hc - prof.iz_v1u) / (-diff), ratio_r1_a, 1.0)
    return AlphaBounds(a0, a1)


@dataclass(frozen=True)
class CaseReport:
    """Classification outcome with near-boundary warnings."""

    cases: frozenset
    warnings: tuple[str, ...] = ()

    def __contains__(self, label) -> bool:
        return label in self.cases

    def __iter__(self):
        return iter(self.cases)


def classify_profile(prof: InfoProfile, hc: float, u_independent: bool = False,
                     boundary_tol: float = 1e-9) -> CaseReport:
    """Classify an information profile into its applicable coding cases.

    Strict gates are evaluated strictly; a gate within ``boundary_tol`` of
    its threshold is additionally reported as a warning.  ``u_independent``
    states whether (V1, V2) is independent of U (needed for Case 0).
    """
    if hc < 0:
        raise PreconditionError("common randomness bound must be nonnegative")
    cases: set[CaseLabel] = set()
    warnings: list[str] = []
    if prof.iz_v12 > prof.it_v12:
        if prof.iz_v12 - prof.it_v12 <= boundary_tol:
            warnings.append("common-gate I(Z^V1V2) <= I(T^V1V2) holds only marginally")
        return CaseReport(frozenset(), tuple(warnings))

    if hc == 0.0 and u_independent:
        hc01 = prof.iz_v1_u <= prof.it_v1_v2u
        hc02 = prof.iz_v2_u <= prof.it_v2_v1u
        if hc01 and hc02:
            cases.add(CaseLabel.CASE0)
        for name, ok, lhs, rhs in (("HC01", hc01, prof.iz_v1_u, prof.it_v1_v2u),
                                   ("HC02", hc02, prof.iz_v2_u, prof.it_v2_v1u)):
            if abs(lhs - rhs) <= boundary_tol:
                warnings.append(f"Case-0 condition {name} is on its boundary")

    compi = (prof.iz_v1_u <= prof.it_v1_v2u
             and prof.iz_v2_u <= prof.it_v2_v1u
             and prof.iz_v12_u <= prof.it_v1_v2u + prof.it_v2_v1u)
    if prof.iz_u < hc and compi:
        cases.add(CaseLabel.CASE1)
    if abs(prof.iz_u - hc) <= boundary_tol:
        warnings.append("Case-1 gate I(Z^U) < H_C is on its boundary")

    low = min(prof.iz_v1u, prof.iz_v2u)
    if low < hc <= prof.iz_v12:
        if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) <= EQUALITY_TOL:
            cases.add(CaseLabel.CASE2)
        else:
            ab = alpha_bounds_case2(prof, hc)
            if ab.alpha0 <= ab.alpha1:
                cases.add(CaseLabel.CASE2)
    if abs(low - hc) <= boundary_tol or abs(hc - prof.iz_v12) <= boundary_tol:
        warnings.append("Case-2 gate min{I(Z^V1U), I(Z^V2U)} < H_C <= I(Z^V1V2) "
                        "is on its boundary")

    if prof.iz_v12 < hc:
        cases.add(CaseLabel.CASE3)
    if abs(prof.iz_v12 - hc) <= boundary_tol:
        warnings.append("Case-3 gate I(Z^V1V2) < H_C is on its boundary")
    return CaseReport(frozenset(cases), tuple(warnings))


def classify_case(p: FactoredInput, hc: float,
                  boundary_tol: float = 1e-9) -> frozenset:
    """Set of coding cases applicable to a factored input at bound ``hc``."""
    prof, u_ind = _resolve(p)
    return classify_profile(prof, hc, u_independent=u_ind,
                            boundary_tol=boundary_tol).cases


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
    _vertices: np.ndarray | None = field(default=None, init=False, repr=False,
                                         compare=False)

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
        return bool(np.all(x >= -tol) and np.all(self.coeffs @ x <= self.rhs + tol))

    def violated(self, point, tol: float = 1e-9) -> list[str]:
        """Names (or indices) of the constraints the point breaks."""
        x = np.asarray(point, dtype=float)
        out = [f"R{i} >= 0" for i in range(self.dim) if x[i] < -tol]
        slack = self.coeffs @ x - self.rhs
        for i in np.nonzero(slack > tol)[0]:
            out.append(self.names[i] if self.names else f"constraint[{i}]")
        return out

    def contains_origin(self, tol: float = 1e-9) -> bool:
        return bool(np.all(self.rhs >= -tol))

    def vertices(self) -> np.ndarray:
        """All vertices (dim <= 3): :func:`batch_vertices` on this polytope
        alone.  Memoized per instance (the polytope is immutable), so the
        array returned is read-only."""
        return batch_vertices((self,))[0]

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
        out = {
            "dim": self.dim,
            "constraints": [
                {"coeffs": [float(c) for c in row], "rhs": float(r)}
                for row, r in zip(self.coeffs, self.rhs)
            ],
        }
        if self.names:
            for item, name in zip(out["constraints"], self.names):
                item["name"] = name
        return out

    @staticmethod
    def from_json_dict(obj: dict) -> "RatePolytope":
        cons = obj["constraints"]
        return RatePolytope(
            int(obj["dim"]),
            np.array([c["coeffs"] for c in cons], dtype=float),
            np.array([c["rhs"] for c in cons], dtype=float),
            tuple(c.get("name", f"constraint[{i}]") for i, c in enumerate(cons)),
        )


def batch_vertices(polys) -> list[np.ndarray]:
    """Vertices of each polytope, one stacked solve per constraint matrix.

    Polytopes sharing a coefficient matrix share its active-constraint
    subsets (``dim`` rows, nonnegativity included) and their determinant
    test; only the right-hand sides differ, so every nonsingular subset of
    every polytope of the group is solved in one ``np.linalg.solve``.  A
    candidate is a vertex when it breaks no constraint by more than
    ``VERTEX_TOL``.  Each polytope's result is memoized on it, so the arrays
    are read-only.
    """
    groups: dict[tuple, dict[int, RatePolytope]] = {}
    for poly in polys:
        if poly._vertices is None:
            key = (poly.coeffs.shape, poly.coeffs.tobytes())
            groups.setdefault(key, {})[id(poly)] = poly
    for group in groups.values():
        _enumerate_group(list(group.values()))
    return [poly._vertices for poly in polys]


def _enumerate_group(polys: list[RatePolytope]) -> None:
    """Solve, test and memoize the vertices of polytopes sharing coefficients."""
    coeffs, dim = polys[0].coeffs, polys[0].dim
    rows = np.vstack([coeffs, -np.eye(dim)])
    combos = np.array(list(combinations(range(rows.shape[0]), dim)))
    mats = rows[combos]
    regular = np.abs(np.linalg.det(mats)) >= 1e-12
    combos, mats = combos[regular], mats[regular]
    rhs = np.stack([poly.rhs for poly in polys])
    vals = np.concatenate([rhs, np.zeros((len(polys), dim))], axis=1)
    xs = np.linalg.solve(mats, vals[:, combos][..., None])[..., 0]
    feasible = (np.all(xs >= -VERTEX_TOL, axis=2)
                & np.all(xs @ coeffs.T <= rhs[:, None, :] + VERTEX_TOL, axis=2))
    for poly, pts, ok in zip(polys, xs, feasible):
        verts = _dedupe(np.clip(pts[ok], 0.0, None), dim)
        verts.setflags(write=False)
        object.__setattr__(poly, "_vertices", verts)


def _dedupe(pts: np.ndarray, dim: int) -> np.ndarray:
    """Lexicographically sorted points, dropping each point within 1e-9 (max
    norm) of the last one kept."""
    if pts.shape[0] == 0:
        return np.zeros((0, dim))
    pts = pts[np.lexsort(pts.T)]
    if (np.abs(np.diff(pts, axis=0)).max(axis=1, initial=0.0) > 1e-9).all():
        return pts  # no point near its predecessor: every point is kept
    rows = pts.tolist()
    keep, last = [0], rows[0]
    for i in range(1, len(rows)):
        if max(abs(p - q) for p, q in zip(rows[i], last)) > 1e-9:
            keep.append(i)
            last = rows[i]
    return pts[keep]


def _resolve(p_or_prof, u_independent=None):
    """(profile, u-independence flag) of an input, from one kernel call; a
    profile passes through with the flag given (False when None)."""
    if isinstance(p_or_prof, FactoredInput):
        batch = _profile_batch(p_or_prof)
        return batch.profiles[0], bool(batch.u_independent[0])
    return p_or_prof, bool(u_independent)


def region_common(p_or_prof, hc: float, case: CaseLabel, *,
                  check_membership: bool = True,
                  u_independent: bool | None = None) -> RatePolytope:
    """The case region over (R0, R1, R2) for one factored input.

    With ``check_membership`` (default) the input must actually classify
    into ``case`` at ``hc``; pass False to evaluate the constraint system of
    a case regardless of its gates (used by the nesting checks).
    """
    prof, u_ind = _resolve(p_or_prof, u_independent)
    case = CaseLabel(case)
    if check_membership:
        cases = classify_profile(prof, hc, u_independent=u_ind).cases
        if case not in cases:
            raise PreconditionError(
                f"input does not classify as {case.name} at H_C={hc}"
            )
    total = prof.it_v12 - prof.iz_v12
    if case == CaseLabel.CASE0:
        b1, b2 = _case1_bounds(prof)
        return RatePolytope(3, np.vstack([[1, 0, 0], RATE_COEFFS[:3]]),
                            np.array([0.0, b1, b2, total]),
                            ("R0 = 0",) + RATE_NAMES[:3])
    if case == CaseLabel.CASE1:
        b1, b2 = _case1_bounds(prof)
        return RatePolytope(3, RATE_COEFFS,
                            np.array([b1, b2, prof.it_v12_u - prof.iz_v12_u, total]),
                            RATE_NAMES)
    if case == CaseLabel.CASE2:
        return _case2_region(prof, hc, total)
    if case == CaseLabel.CASE3:
        return RatePolytope(
            3, RATE_COEFFS,
            np.array([prof.it_v1_v2u, prof.it_v2_v1u, prof.it_v12_u, total]),
            RATE_NAMES)
    raise PreconditionError(f"unknown case {case!r}")


def _case1_bounds(prof: InfoProfile) -> tuple[float, float]:
    """The Case-0/1 R1 and R2 bounds: each sender's information given the
    other and U, less its leakage given U and the other's excess leakage."""
    return (prof.it_v1_v2u - prof.iz_v1_u - _pos(prof.iz_v2_v1u - prof.it_v2_v1u),
            prof.it_v2_v1u - prof.iz_v2_u - _pos(prof.iz_v1_v2u - prof.it_v1_v2u))


def _case2_region(prof: InfoProfile, hc: float, total: float) -> RatePolytope:
    a = prof.iz_v1_v2u
    b = prof.iz_v2_v1u
    if abs(a - b) <= EQUALITY_TOL:
        return RatePolytope(3, RATE_COEFFS,
                            np.array([prof.it_v1_v2u, prof.it_v2_v1u,
                                      prof.it_v12_u - a, total]),
                            RATE_NAMES)
    if a < b:
        # Roles of the senders are exchanged; the swap is an involution.
        sw = _case2_region(prof.swapped(), hc, total)
        coeffs = sw.coeffs.copy()
        coeffs[:, [1, 2]] = coeffs[:, [2, 1]]
        names = tuple(n.replace("R1", "#").replace("R2", "R1").replace("#", "R2")
                      for n in sw.names)
        return RatePolytope(3, coeffs, sw.rhs, names)
    ab = alpha_bounds_case2(prof, hc)
    if ab.alpha0 > ab.alpha1:
        raise PreconditionError("Case-2 time-sharing interval is empty")
    a0, a1 = ab.alpha0, ab.alpha1
    r1, r2, r12 = prof.it_v1_v2u, prof.it_v2_v1u, prof.it_v12_u
    # Weighted bound: the hull facet traced by the time-sharing corner points.
    wsum_rhs = r12 * b + r2 * (a - b) - a * b
    return RatePolytope(
        3,
        np.insert(RATE_COEFFS, 3, [0, b, a], axis=0),
        np.array([r1 - a0 * a,
                  r2 - (1.0 - a1) * b,
                  r12 - a0 * a - (1.0 - a0) * b,
                  wsum_rhs,
                  total]),
        RATE_NAMES[:3] + ("weighted bound",) + RATE_NAMES[3:],
    )


def elementary_region(p_or_prof, case: CaseLabel, alpha: float,
                      hc: float | None = None, *,
                      check_range: bool = True) -> RatePolytope:
    """The time-sharing elementary region at a fixed alpha.

    For Case 1 (and Case 0) both rate bounds interpolate between the two
    conditioning patterns; for Case 2 only one sender pays the conditional
    leakage at a time.  ``hc`` is required to validate the Case-2 range.
    """
    prof, _ = _resolve(p_or_prof)
    case = CaseLabel(case)
    if not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha={alpha} outside [0, 1]")
    total = prof.it_v12 - prof.iz_v12
    if case in (CaseLabel.CASE0, CaseLabel.CASE1):
        if check_range:
            ab = alpha_bounds_case1(prof)
            if ab.degenerate:
                raise PreconditionError(
                    "equal conditional leakages: the case region is achieved "
                    "directly, no elementary decomposition applies"
                )
            if not ab.contains(alpha):
                raise PreconditionError(
                    f"alpha={alpha} outside [{ab.alpha0}, {ab.alpha1}]"
                )
        b1 = (prof.it_v1_v2u - alpha * prof.iz_v1_v2u
              - (1.0 - alpha) * prof.iz_v1_u)
        b2 = (prof.it_v2_v1u - alpha * prof.iz_v2_u
              - (1.0 - alpha) * prof.iz_v2_v1u)
        rhs = [b1, b2, prof.it_v12_u - prof.iz_v12_u, total]
        if case == CaseLabel.CASE0:
            return RatePolytope(3, np.vstack([RATE_COEFFS, [1, 0, 0]]),
                                np.array(rhs + [0.0]), RATE_NAMES + ("R0 = 0",))
        return RatePolytope(3, RATE_COEFFS, np.array(rhs), RATE_NAMES)
    if case == CaseLabel.CASE2:
        if check_range:
            if hc is None:
                raise PreconditionError("Case-2 range validation needs hc")
            ab = alpha_bounds_case2(prof, hc)
            if ab.degenerate:
                raise PreconditionError(
                    "equal conditional leakages: direct region, no alpha"
                )
            if not ab.contains(alpha):
                raise PreconditionError(
                    f"alpha={alpha} outside [{ab.alpha0}, {ab.alpha1}]"
                )
        a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
        return RatePolytope(
            3, RATE_COEFFS,
            np.array([prof.it_v1_v2u - alpha * a,
                      prof.it_v2_v1u - (1.0 - alpha) * b,
                      prof.it_v12_u - alpha * a - (1.0 - alpha) * b,
                      total]),
            RATE_NAMES)
    if case == CaseLabel.CASE3:
        return region_common(prof, hc if hc is not None else math.inf,
                             CaseLabel.CASE3, check_membership=False)
    raise PreconditionError(f"unknown case {case!r}")


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
    """Boundary and interior points of {x >= 0 : coeffs x <= rhs} via rays."""
    dirs = np.abs(rng.standard_normal((count, dim))) + 1e-9
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = dirs @ coeffs.T  # (count, k)
    with np.errstate(divide="ignore"):
        limits = np.where(proj > 1e-15, rhs[None, :] / np.where(proj > 1e-15, proj, 1.0),
                          np.inf)
    t = np.min(limits, axis=1)
    t = np.where(np.isfinite(t), t, 1.0)
    scale = np.ones(count)
    half = count // 2
    scale[half:] = rng.uniform(0.0, 1.0, size=count - half)
    return np.clip(dirs * (t * scale)[:, None], 0.0, None)


def verify_union_lemma(a1, a2, b1, b2, c, d, r1, r2, r12, r012,
                       alpha0, alpha1, samples: int = 200, *,
                       grid_step: float = 1e-3, tol: float = 1e-9,
                       seed: int = 0) -> LemmaReport:
    """Check that the union of the interpolated boxes equals its closed form.

    The alpha-family has rate bounds interpolating linearly between two
    constraint pairs with matching totals (a1 + a2 = b1 + b2 = c), which
    makes the sum constraints alpha-free and the union convex: it equals the
    box with the R1 bound at alpha0 and the R2 bound at alpha1.  Sampled
    points of that box must be covered by some grid alpha and vice versa.
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

    rng = np.random.default_rng(seed)
    grid = _alpha_grid(alpha0, alpha1, grid_step)
    bound1 = r1 - grid * a1 - (1.0 - grid) * b1
    bound2 = r2 - grid * a2 - (1.0 - grid) * b2
    s12 = r12 - c
    s012 = r012 - d
    k_rhs = np.array([r1 - alpha0 * a1 - (1.0 - alpha0) * b1,
                      r2 - alpha1 * a2 - (1.0 - alpha1) * b2,
                      s12, s012])
    member_rhs = np.stack([bound1, bound2], axis=1)  # (G, 2)
    empty_alpha = np.any(member_rhs < -tol, axis=1) | (min(s12, s012) < -tol)
    k_empty = np.any(k_rhs < -tol)
    report = LemmaReport("union-of-interpolated-boxes", True, 0)
    if k_empty and np.all(empty_alpha):
        report.notes = ("all sets empty; union trivially equals the closed form",)
        return report
    if k_empty or np.any(empty_alpha):
        raise PreconditionError("some alpha-sets are empty; the nonemptiness "
                                "hypothesis fails")

    # K -> union direction.  Grid membership first; points whose feasible
    # alpha-window is narrower than the grid spacing are resolved exactly
    # (the window endpoints are linear in alpha, so it is two divisions).
    pts = _ray_points(rng, RATE_COEFFS, k_rhs, samples)
    ok1 = pts[:, 1:2] <= bound1[None, :] + tol
    ok2 = pts[:, 2:3] <= bound2[None, :] + tol
    covered = np.any(ok1 & ok2, axis=1)
    report.checked += pts.shape[0]
    for idx in np.nonzero(~covered)[0]:
        r1_gap = a1 - b1
        r2_gap = b2 - a2
        hi = (r1 - b1 - pts[idx, 1]) / r1_gap + tol / r1_gap
        lo = (pts[idx, 2] - r2 + b2) / r2_gap - tol / r2_gap
        if max(lo, alpha0) <= min(hi, alpha1):
            continue
        report.counterexamples.append(
            {"direction": "closed-form point not covered by any alpha",
             "point": pts[idx].tolist()})

    # union -> K direction (decimated alpha subsample).
    stride = max(len(grid) // 20, 1)
    for alpha_idx in range(0, len(grid), stride):
        rhs_a = np.array([bound1[alpha_idx], bound2[alpha_idx], s12, s012])
        sub = _ray_points(rng, RATE_COEFFS, rhs_a, max(samples // 20, 4))
        inside = np.all(sub @ RATE_COEFFS.T <= k_rhs[None, :] + tol, axis=1)
        report.checked += sub.shape[0]
        for idx in np.nonzero(~inside)[0]:
            report.counterexamples.append(
                {"direction": "alpha-set point outside the closed form",
                 "alpha": float(grid[alpha_idx]), "point": sub[idx].tolist()})

    report.passed = not report.counterexamples
    return report


def _lp_witness(x: np.ndarray, rhs0: np.ndarray, rhs1: np.ndarray, tol: float):
    """LP fallback: find (u, v, lam) with u + v = x, u in lam*K0, v in (1-lam)*K1."""
    from scipy.optimize import linprog

    # variables: u (3), v (3), lam
    a_ub = np.zeros((8, 7))
    b_ub = np.zeros(8)
    a_ub[:4, :3] = RATE_COEFFS
    a_ub[:4, 6] = -rhs0
    a_ub[4:, 3:6] = RATE_COEFFS
    a_ub[4:, 6] = rhs1
    b_ub[4:] = rhs1
    a_eq = np.zeros((3, 7))
    a_eq[:, :3] = np.eye(3)
    a_eq[:, 3:6] = np.eye(3)
    b_eq = x
    bounds = [(0, None)] * 6 + [(0, 1)]
    res = linprog(np.zeros(7), A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    if not res.success:
        return None
    u, v, lam = res.x[:3], res.x[3:6], res.x[6]
    return u, v, float(lam)


def _k_to_union(x_pts: np.ndarray, rhs0: np.ndarray, rhs1: np.ndarray,
                r1, r2, r12, a, b, alpha0, alpha1, tol: float):
    """Certify each point of ``x_pts`` as a member of some K_alpha.

    Returns (witnesses, counterexamples), both in point order.  The window
    arithmetic runs over all points at once; only the points it misses go
    to the LP decomposition over the endpoint sets K_alpha0, K_alpha1.
    """
    x1, x2 = x_pts[:, 1], x_pts[:, 2]
    lo = np.full(x_pts.shape[0], alpha0, dtype=float)
    hi = np.full(x_pts.shape[0], alpha1, dtype=float)
    feasible = x_pts.sum(axis=1) <= rhs0[3] + tol
    # A window update keeps the old bound unless the new one is strictly
    # tighter, as the builtin min/max do: a tie or a NaN keeps the old bound.
    if a > 0:
        bound = (r1 - x1) / a + tol / a
        hi = np.where(bound < hi, bound, hi)
    else:
        feasible &= x1 <= r1 + tol
    if b > 0:
        bound = 1.0 - (r2 - x2) / b - tol / b
        lo = np.where(bound > lo, bound, lo)
    else:
        feasible &= x2 <= r2 + tol
    slope = b - a
    x12 = x1 + x2
    if abs(slope) <= 1e-15:
        feasible &= x12 <= r12 - a + tol
    else:
        bound = (x12 - r12 + b) / slope - tol / slope
        if slope > 0:
            lo = np.where(bound > lo, bound, lo)
        else:
            hi = np.where(bound < hi, bound, hi)
    mid = 0.5 * (lo + hi)
    alpha_star = np.where(alpha0 > mid, alpha0, mid)
    alpha_star = np.where(alpha1 < alpha_star, alpha1, alpha_star)
    star_rhs = np.stack([r1 - alpha_star * a, r2 - (1.0 - alpha_star) * b,
                         r12 - alpha_star * a - (1.0 - alpha_star) * b,
                         np.full_like(alpha_star, rhs0[3])], axis=1)
    margin = star_rhs - x_pts @ RATE_COEFFS.T
    hit = feasible & (lo <= hi) & (margin.min(axis=1) >= -tol)
    witnesses, misses = [], []
    for x, ok, alpha in zip(x_pts, hit, alpha_star):
        if ok:
            witnesses.append({"point": x.tolist(), "alpha": float(alpha)})
            continue
        lp = _lp_witness(x, rhs0, rhs1, tol)
        if lp is not None and _witness_valid(x, lp[0], lp[1], lp[2],
                                             rhs0, rhs1, tol):
            witnesses.append({"point": x.tolist(), "lambda": lp[2]})
        else:
            misses.append({"direction": "closed-form point not reachable by the family",
                           "point": x.tolist()})
    return witnesses, misses


def verify_convexhull_lemma(r1, r2, r12, r012, a, b, c, alpha0, alpha1,
                            samples: int = 200, *, grid_step: float = 1e-3,
                            tol: float = 1e-9, seed: int = 0) -> LemmaReport:
    """Check the closed form of the convex hull of the alpha-family union.

    Direction one samples convex combinations of endpoint-set members (and
    interior-alpha members) and tests them against the closed form.
    Direction two certifies sampled closed-form points as members of the
    family: the feasible alpha-window of each point is located by interval
    arithmetic (it can have zero width at an interior alpha, which a grid
    cannot hit) and the single-alpha membership is returned as the witness;
    an LP decomposition over the endpoint sets is the fallback.
    """
    for name, v in dict(r1=r1, r2=r2, r12=r12, r012=r012, a=a, b=b, c=c).items():
        if v < 0:
            raise PreconditionError(f"{name} must be nonnegative, got {v}")
    if not (max(r1, r2) <= r12 + 1e-12 and r12 <= r1 + r2 + 1e-12):
        raise PreconditionError("hypothesis max(r1,r2) <= r12 <= r1+r2 violated")
    if not 0.0 <= alpha0 <= alpha1 <= 1.0:
        raise PreconditionError("need 0 <= alpha0 <= alpha1 <= 1")

    def alpha_rhs(alpha: float) -> np.ndarray:
        return np.array([r1 - alpha * a, r2 - (1.0 - alpha) * b,
                         r12 - alpha * a - (1.0 - alpha) * b, r012 - c])

    grid = _alpha_grid(alpha0, alpha1, grid_step)
    for alpha in (grid if len(grid) <= 64 else grid[:: len(grid) // 64]):
        if np.any(alpha_rhs(alpha) < -tol):
            raise PreconditionError(f"K_alpha empty at alpha={alpha}: "
                                    "nonemptiness hypothesis fails")

    rng = np.random.default_rng(seed)
    rhs0 = alpha_rhs(alpha0)
    rhs1 = alpha_rhs(alpha1)

    # Closed form K.
    if a <= b:
        conv23 = r12 - alpha1 * a - (1.0 - alpha1) * b
        conv24 = r12 * a + r1 * (b - a) - a * b
    else:
        conv23 = r12 - alpha0 * a - (1.0 - alpha0) * b
        conv24 = r12 * b + r2 * (a - b) - a * b
    k_coeffs = RATE_COEFFS
    k_rhs = np.array([rhs0[0], rhs1[1], conv23, r012 - c])
    if a > 0 or b > 0:
        k_coeffs = np.insert(k_coeffs, 3, [0, b, a], axis=0)
        k_rhs = np.insert(k_rhs, 3, conv24)

    report = LemmaReport("convex-hull-of-alpha-family", True, 0)

    # conv(K_a0 u K_a1) -> K.
    n_combo = samples
    p_pts = _ray_points(rng, RATE_COEFFS, rhs0, n_combo)
    q_pts = _ray_points(rng, RATE_COEFFS, rhs1, n_combo)
    lam = rng.uniform(0.0, 1.0, size=n_combo)
    lam[:3] = (0.0, 1.0, 0.5)
    combos = lam[:, None] * p_pts + (1.0 - lam)[:, None] * q_pts
    inside = np.all(combos @ k_coeffs.T <= k_rhs[None, :] + tol, axis=1)
    report.checked += n_combo
    for idx in np.nonzero(~inside)[0]:
        report.counterexamples.append(
            {"direction": "convex combination escapes the closed form",
             "lambda": float(lam[idx]), "point": combos[idx].tolist()})

    # Sampled interior alphas stay inside K as well.
    for alpha in grid[:: max(len(grid) // 10, 1)]:
        sub = _ray_points(rng, RATE_COEFFS, alpha_rhs(alpha), max(samples // 20, 4))
        ok = np.all(sub @ k_coeffs.T <= k_rhs[None, :] + tol, axis=1)
        report.checked += sub.shape[0]
        for idx in np.nonzero(~ok)[0]:
            report.counterexamples.append(
                {"direction": "alpha-set point escapes the closed form",
                 "alpha": float(alpha), "point": sub[idx].tolist()})

    # K -> union direction.  The union over the whole alpha-interval is
    # already convex here (every group bound is a minimum of functions linear
    # in alpha, hence concave, so mixtures never beat a single alpha), but a
    # boundary point of K may need one exact interior alpha -- its feasible
    # alpha-window can have zero width, which no grid can hit.  We therefore
    # locate the window by interval arithmetic and return the single-alpha
    # membership as the witness.
    x_pts = _ray_points(rng, k_coeffs, k_rhs, samples)
    report.checked += x_pts.shape[0]
    witnesses, misses = _k_to_union(x_pts, rhs0, rhs1, r1, r2, r12, a, b,
                                    alpha0, alpha1, tol)
    report.witnesses.extend(witnesses)
    report.counterexamples.extend(misses)

    report.passed = not report.counterexamples
    return report


def _witness_valid(x, u, v, lam, rhs0, rhs1, tol) -> bool:
    if np.any(u < -tol) or np.any(v < -tol):
        return False
    if np.max(np.abs(u + v - x)) > 1e-7:
        return False
    ok0 = np.all(RATE_COEFFS @ u <= lam * rhs0 + tol)
    ok1 = np.all(RATE_COEFFS @ v <= (1.0 - lam) * rhs1 + tol)
    return bool(ok0 and ok1)


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
