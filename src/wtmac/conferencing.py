"""Rate regions and constructions for rate-limited encoder conferencing.

The two encoders hold no common message or randomness a priori; a one-shot,
rate-limited exchange manufactures both, reducing the problem to the
common-message setting.  This module emits the conferencing rate regions
over (R1, R2), their beta-elementary pieces (beta splits the randomness
cost across the two links), performs the rate-splitting reduction, and
builds the explicit one-shot stochastic conference maps.

The Case-3 split interval divides the full-input leakage across the two
links exactly the way Case 1 divides the shared-part leakage; only the cost
quantity changes between the cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CardinalityOverflowError,
    PreconditionError,
    ReductionInfeasibleError,
    ValidationError,
)
from .regions import (
    CaseLabel,
    InfoProfile,
    RatePolytope,
    _case1_bounds,
    _case2_interval,
    _columns,
    _first,
    _hull_vertices,
    _pos,
    _resolve,
    classify_profile,
    elementary_region,
    randomization_rates,
    region_common,
    stacked_vertices,
)

# The shape of every conferencing region over (R1, R2).
CONF_COEFFS = np.array([[1, 0], [0, 1], [1, 1]], dtype=float)
CONF_COEFFS.setflags(write=False)
CONF_NAMES = ("R1 bound", "R2 bound", "R1+R2 bound")


@dataclass(frozen=True)
class ConferencingCapacities:
    """Per-channel-use rate caps of the two conferencing links."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ValidationError("conferencing capacities must be finite")
        if self.c1 < 0 or self.c2 < 0:
            raise ValidationError("conferencing capacities must be nonnegative")


def j0_alpha(prof: InfoProfile, case: CaseLabel, alpha: float = 0.0) -> float:
    """Common-randomness rate the construction for a case has to generate:
    the J0 of :func:`randomization_rates`.  Case 0 has no randomness budget
    at all.
    """
    case = CaseLabel(case)
    if case == CaseLabel.CASE0:
        raise PreconditionError("Case 0 has no common randomness to size")
    if case == CaseLabel.CASE2 and not 0.0 <= alpha <= 1.0:
        raise PreconditionError(f"alpha={alpha} outside [0, 1]")
    return randomization_rates(prof, case, alpha)[0]


@dataclass(frozen=True)
class BetaBounds:
    """Feasible randomness-split interval; unconstrained when no randomness is needed."""

    beta0: float
    beta1: float
    unconstrained: bool = False

    def contains(self, beta: float, tol: float = 1e-9) -> bool:
        return self.beta0 - tol <= beta <= self.beta1 + tol


def beta_bounds(prof: InfoProfile, case: CaseLabel, alpha: float,
                caps: ConferencingCapacities) -> BetaBounds:
    """Feasible split of the randomness cost across the two conference links.

    Link nu can carry at most C_nu; the interval is nonempty whenever the
    cost is below C1 + C2.  A zero cost makes every split feasible
    (flagged ``unconstrained``).
    """
    j0 = j0_alpha(prof, case, alpha)
    if j0 <= 1e-12:  # no randomness needed; any split works
        return BetaBounds(0.0, 1.0, unconstrained=True)
    return BetaBounds(float(_pos(1.0 - caps.c2 / j0)), min(caps.c1 / j0, 1.0))


def _piece_bounds(prof, case: CaseLabel, alpha) -> tuple:
    """(r1, r2, J0) of conferencing pieces: the R1, R2 bounds of the matching
    common-message region (elementary at ``alpha`` in Case 2) and the shared
    randomization rate the links carry, broadcast over columns and alphas."""
    if case not in (CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3):
        raise PreconditionError("conferencing regions exist for Cases 1-3 only")
    j0, j1, j2 = randomization_rates(prof, case, alpha)
    if case == CaseLabel.CASE1:
        return (*_case1_bounds(prof), j0)
    return prof.it_v1_v2u - j1, prof.it_v2_v1u - j2, j0


def _sum_bound(prof, c1: float, c2: float):
    """The sum-rate bound every conferencing piece shares."""
    return _first(np.less, prof.it_v12_u + c1 + c2, prof.it_v12) - prof.iz_v12


def elementary_conf_region(prof: InfoProfile, case: CaseLabel, alpha: float,
                           beta: float, c1: float, c2: float, *,
                           check_range: bool = True) -> RatePolytope:
    """The conferencing region at fixed time-sharing and randomness split:
    link 1 carries beta*J0 and link 2 the rest."""
    case = CaseLabel(case)
    caps = ConferencingCapacities(c1, c2)
    if check_range:
        bb = beta_bounds(prof, case, alpha, caps)
        if not bb.contains(beta):
            raise PreconditionError(
                f"beta={beta} outside [{bb.beta0}, {bb.beta1}]"
            )
    if not 0.0 <= beta <= 1.0:
        raise PreconditionError(f"beta={beta} outside [0, 1]")
    r1, r2, j0 = _piece_bounds(prof, case, alpha)
    return RatePolytope(2, CONF_COEFFS,
                        np.array([r1 + c1 - beta * j0, r2 + c2 - (1.0 - beta) * j0,
                                  _sum_bound(prof, c1, c2)]),
                        CONF_NAMES)


@dataclass(frozen=True)
class ConferencingRegion:
    """A conferencing rate region over (R1, R2).

    Cases 1 and 3 are single polytopes.  Case 2 is a union over the
    time-sharing parameter: ``pieces`` holds (alpha, polytope) pairs on a
    grid.  ``hull_points`` are the hull vertices of every piece's vertices
    (``regions._hull_vertices``, counterclockwise), computed on first use.
    Membership is any piece's.
    """

    case: CaseLabel
    pieces: tuple

    @cached_property
    def _piece_vertices(self) -> list:
        """Each piece's vertices, from one :func:`stacked_vertices` call."""
        pts, keep = stacked_vertices(
            CONF_COEFFS, np.stack([poly.rhs for _, poly in self.pieces]))
        return [row[kept] for row, kept in zip(pts, keep)]

    @cached_property
    def hull_points(self) -> np.ndarray:
        return _hull_vertices(np.vstack(self._piece_vertices))

    @property
    def polytope(self) -> RatePolytope:
        if len(self.pieces) != 1:
            raise PreconditionError("a union region has no single polytope")
        return self.pieces[0][1]

    def contains(self, point, tol: float = 1e-9) -> bool:
        return any(poly.contains(point, tol) for _, poly in self.pieces)

    def max_weighted(self, weights) -> float:
        """Maximum of weights @ R over the union (every piece nonempty)."""
        if any(verts.shape[0] == 0 for verts in self._piece_vertices):
            raise PreconditionError("empty polytope has no maximum")
        w = np.asarray(weights, dtype=float)
        return max(float(np.max(verts @ w)) for verts in self._piece_vertices)

    def to_json_dict(self) -> dict:
        return {
            "case": int(self.case),
            "pieces": [{"alpha": (None if a is None else float(a)),
                        "polytope": poly.to_json_dict()}
                       for a, poly in self.pieces],
            "hull_points": [[float(v) for v in p] for p in self.hull_points],
        }


def conf_rhs(profiles: np.ndarray, c1: float, c2: float, case: CaseLabel,
             alpha_points: int):
    """(rhs, alphas, pieces): each profile row's conferencing pieces of one
    case, regardless of its gates, as (N, P, 3) rhs over ``CONF_COEFFS``,
    (N, P) alphas and the mask of the pieces that exist: Case 2 has a grid of
    ``alpha_points`` (one at alpha 0 if degenerate, none if empty).  Each
    piece raises the R1, R2 bounds of the matching common-message region by
    the link capacities, less what of the randomness cost j0 the other link
    cannot carry, under one sum bound."""
    ConferencingCapacities(c1, c2)
    alphas, pieces = np.zeros((len(profiles), 1)), np.ones((len(profiles), 1), bool)
    if case == CaseLabel.CASE2:
        alpha0, alpha1, flat = _case2_interval(_columns(profiles), c1 + c2)
        ends = np.where(flat, 0.0, [alpha0, alpha1]).T
        alphas = np.array([np.linspace(a, b, alpha_points) for a, b in ends])
        pieces = ((flat | ~(alpha0 > alpha1))[:, None]
                  & (~flat[:, None] | (np.arange(alpha_points) == 0)))
    p = _columns(profiles[:, None])
    r1, r2, j0 = _piece_bounds(p, case, alphas)
    rhs = (r1 + c1 - _pos(j0 - c2), r2 + c2 - _pos(j0 - c1), _sum_bound(p, c1, c2))
    return np.stack(np.broadcast_arrays(*rhs), axis=-1), alphas, pieces


def region_conferencing(p_or_prof, c1: float, c2: float, case: CaseLabel, *,
                        alpha_points: int = 101,
                        check_membership: bool = True) -> ConferencingRegion:
    """The case region with conferencing capacities (c1, c2) of one input
    or profile: its row of :func:`conf_rhs`, classified against H_C = c1 + c2,
    for the CLI and single-input calls.  Case 2 is a union over a grid of
    ``alpha_points`` time-sharing fractions."""
    ConferencingCapacities(c1, c2)
    if alpha_points < 1:
        raise ValidationError(f"alpha_points={alpha_points} must be >= 1")
    prof, _ = _resolve(p_or_prof)
    case = CaseLabel(case)
    if check_membership and case not in classify_profile(prof, c1 + c2).cases:
        raise PreconditionError(
            f"input does not classify as {case.name} at H_C=C1+C2={c1 + c2}")
    rhs, alphas, pieces = conf_rhs(prof.array()[None], c1, c2, case, alpha_points)
    if not pieces.any():
        raise PreconditionError("Case-2 time-sharing interval is empty")
    return ConferencingRegion(case, tuple(
        (float(alpha) if case == CaseLabel.CASE2 else None,
         RatePolytope(2, CONF_COEFFS, row, CONF_NAMES))
        for alpha, row in zip(alphas[pieces], rhs[pieces])))


@dataclass(frozen=True)
class RateSplit:
    """Outcome of the reduction to the common-message problem.

    ``r0_share1``/``r0_share2`` are the parts of each private message that
    travel over the conference and become common; the residual private rates
    plus the combined common rate form the triple handed to the
    common-message code.
    """

    r0_share1: float
    r0_share2: float
    r0: float
    r1: float
    r2: float
    alpha: float
    beta: float
    j0: float

    @property
    def triple(self) -> tuple[float, float, float]:
        return (self.r0, self.r1, self.r2)


def rate_split(r1_rate: float, r2_rate: float, prof: InfoProfile,
               case: CaseLabel, alpha: float, beta: float,
               c1: float, c2: float, *, tol: float = 1e-9) -> RateSplit:
    """Reduce a conferencing rate pair to a common-message rate triple.

    Each sender moves as much of its message as the conference link can
    still carry (capacity minus its share of the randomness cost) into the
    common message.  The resulting triple must land in the corresponding
    common-message region; a violation raises
    :class:`ReductionInfeasibleError` naming the broken constraint.
    """
    case = CaseLabel(case)
    piece = elementary_conf_region(prof, case, alpha, beta, c1, c2)
    if not piece.contains((r1_rate, r2_rate), tol):
        raise PreconditionError(
            f"({r1_rate}, {r2_rate}) is outside the elementary conferencing "
            f"region: violates {piece.violated((r1_rate, r2_rate), tol)}"
        )
    j0 = j0_alpha(prof, case, alpha)
    cap1 = c1 - beta * j0
    cap2 = c2 - (1.0 - beta) * j0
    if cap1 < -tol or cap2 < -tol:
        raise PreconditionError("randomness split exceeds a link capacity")
    share1 = min(r1_rate, max(cap1, 0.0))
    share2 = min(r2_rate, max(cap2, 0.0))
    split = RateSplit(share1, share2, share1 + share2,
                      r1_rate - share1, r2_rate - share2, alpha, beta, j0)
    if case == CaseLabel.CASE2:
        target = elementary_region(prof, CaseLabel.CASE2, alpha, c1 + c2,
                                   check_range=False)
    else:
        target = region_common(prof, c1 + c2, case, check_membership=False)
    if not target.contains(split.triple, tol):
        raise ReductionInfeasibleError(
            f"split triple {split.triple} leaves the {case.name} "
            f"common-message region",
            violation=", ".join(target.violated(split.triple, tol)),
        )
    return split


@dataclass(frozen=True)
class WillemsConference:
    """A one-shot stochastic conference: each link announces its common-message
    share together with a fresh uniform randomness index.

    ``link1``/``link2`` are the row-stochastic maps from each sender's
    message-share index to its link alphabet; the joint map factorizes into
    the product of the two marginals (non-iterative protocol).
    """

    iterations: int
    k1: int
    k2: int
    l0: int
    l0_part1: int
    l0_part2: int
    link1: np.ndarray
    link2: np.ndarray
    n: int
    capacities: ConferencingCapacities
    requested_beta: float
    realized_beta: float

    @property
    def j1_size(self) -> int:
        return self.link1.shape[1]

    @property
    def j2_size(self) -> int:
        return self.link2.shape[1]

    def joint(self, m1: int, m2: int) -> np.ndarray:
        """Distribution over (j1, j2), flattened with j2 minor."""
        return np.outer(self.link1[m1], self.link2[m2]).ravel()

    def rate_per_use(self) -> tuple[float, float]:
        return (math.log2(self.j1_size) / self.n,
                math.log2(self.j2_size) / self.n)

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "k1": self.k1, "k2": self.k2, "l0": self.l0,
            "l0_parts": [self.l0_part1, self.l0_part2],
            "j_sizes": [self.j1_size, self.j2_size],
            "n": self.n,
            "capacities": [self.capacities.c1, self.capacities.c2],
            "requested_beta": self.requested_beta,
            "realized_beta": self.realized_beta,
            "link1": [[float(v) for v in row] for row in self.link1],
            "link2": [[float(v) for v in row] for row in self.link2],
        }


def build_conference(k1: int, k2: int, l0: int, beta: float,
                     c1: float, c2: float, n: int) -> WillemsConference:
    """Build the one-shot conference carrying message shares and randomness.

    Sender nu must announce its share index from [k_nu] plus a uniformly
    random index from its part of the randomness pool; the pool of size
    ``l0`` splits into integer factors close to ``l0**beta`` and the
    complementary ceiling, and both (share, randomness) products must embed
    into alphabets of size ``floor(2**(n * c_nu))``.
    """
    caps = ConferencingCapacities(c1, c2)
    if min(k1, k2, l0) < 1 or n < 1:
        raise ValidationError("message shares, pool size and blocklength must be >= 1")
    if not 0.0 <= beta <= 1.0:
        raise PreconditionError(f"beta={beta} outside [0, 1]")
    if l0 == 1:
        part1, part2 = 1, 1
    else:
        part1 = max(int(math.floor(l0 ** beta)), 1)
        part2 = int(math.ceil(l0 / part1))
    realized = math.log2(part1) / math.log2(l0) if l0 > 1 else beta
    for side, (k, part, cap) in enumerate(
            ((k1, part1, c1), (k2, part2, c2)), start=1):
        limit = math.floor(2.0 ** (n * cap))
        if k * part > limit:
            raise CardinalityOverflowError(
                f"link {side}: share {k} x randomness {part} = {k * part} "
                f"exceeds floor(2^(n*C{side})) = {limit}"
            )
    # each share index announces itself with a uniform randomness index
    link1 = np.kron(np.eye(k1), np.full(part1, 1.0 / part1))
    link2 = np.kron(np.eye(k2), np.full(part2, 1.0 / part2))
    return WillemsConference(
        iterations=1, k1=k1, k2=k2, l0=l0, l0_part1=part1, l0_part2=part2,
        link1=link1, link2=link2, n=n, capacities=caps,
        requested_beta=beta, realized_beta=realized,
    )
