"""The two worked examples: additive noise channels and the time-sharing witness.

The first example is a pair of additive channels (ternary legitimate output,
six-valued eavesdropper output) where no independent-input choice beats the
eavesdropper but coupled inputs do; the second is a numeric 2x2x2x2 channel
pair whose time-sharing interval is strictly interior on one side.  A
brute-force search reproduces how such examples are found.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .probkit import (
    AX_T,
    AX_X,
    AX_Y,
    AX_Z,
    Dist,
    FactoredInput,
    WiretapMAC,
)
from .regions import (
    AlphaBounds,
    CaseLabel,
    _columns,
    alpha_bounds_case1,
    classify_profile,
    info_profile,
    info_profiles,
)

LN2 = math.log(2.0)

WB_EXAMPLE = np.array([[0.6178, 0.3822], [0.0624, 0.9376],
                       [0.9350, 0.0650], [0.2353, 0.7647]])
WE_EXAMPLE = np.array([[0.0729, 0.9271], [0.7264, 0.2736],
                       [0.3662, 0.6338], [0.4643, 0.5357]])
Q_EXAMPLE = 0.6933
R_EXAMPLE = 0.3151


def discussion_channels() -> WiretapMAC:
    """The additive example pair: t = x + y + N1 (mod 3), z = 2x - 2y + N2.

    N1, N2 are i.i.d. fair bits; z lives on {-2, ..., 3}, stored with offset
    2.  Every marginal transition probability is 0 or 1/2.
    """
    tensor = np.zeros((2, 2, 3, 6))
    for x, y, n1, n2 in itertools.product(range(2), repeat=4):
        tensor[x, y, (x + y + n1) % 3, 2 * x - 2 * y + n2 + 2] += 0.25
    return WiretapMAC.from_rows(tensor.reshape(4, 18), 2, 2, 3, 6)


@dataclass(frozen=True)
class GapPoint:
    """Information gap of the additive example at one independent input."""

    q: float
    r: float
    gap: float
    d2_gap_dq2: float


def _bias_rows(mac: WiretapMAC | None, q, r) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The broadcast shape of q and r, and the laws (q, 1 - q), (r, 1 - r)
    stacked one input per row; a MAC given must have binary inputs."""
    if mac is not None and (mac.x_alphabet.size != 2 or mac.y_alphabet.size != 2):
        raise ValidationError("independent binary inputs need |X| = |Y| = 2")
    q, r = np.broadcast_arrays(np.asarray(q, float), np.asarray(r, float))
    return (q.shape, np.stack([q.ravel(), 1.0 - q.ravel()], axis=1),
            np.stack([r.ravel(), 1.0 - r.ravel()], axis=1))


def independent_gaps(mac: WiretapMAC, q, r) -> np.ndarray:
    """Gap I(Z;XY) - I(T;XY) in bits at independent binary inputs
    P(X=0) = q, P(Y=0) = r, which broadcast against each other: one profile
    batch with |U| = 1 and identity prefixes."""
    shape, px, py = _bias_rows(mac, q, r)
    ident = np.broadcast_to(np.eye(2), (len(px), 2, 2))
    prof = _columns(info_profiles(np.ones((len(px), 1)), px[:, None], py[:, None],
                                  ident, ident, mac.tensor).profiles)
    return (prof.iz_v12 - prof.it_v12).reshape(shape)


def _fisher_sums(w: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """(N, 2): sum over outputs o of (dP(o)/dq)^2 / P(o), then the same in r,
    for a marginal channel w[x, y, o]; a term with P(o) = 0 counts 0."""
    law = np.einsum("nx,ny,xyo->no", px, py, w)[:, None]
    slopes = np.stack([py @ (w[0] - w[1]), px @ (w[:, 0] - w[:, 1])], axis=1)
    return np.divide(slopes * slopes, law, out=np.zeros_like(slopes),
                     where=law > 0.0).sum(axis=2)


def gap_curvatures(mac: WiretapMAC, q, r) -> tuple[np.ndarray, np.ndarray]:
    """Exact d^2/dq^2 and d^2/dr^2 of :func:`independent_gaps`, in bits.

    Each output law is linear in q, and so is H(out|XY), so
    d^2 I(out;XY)/dq^2 is -(1/ln 2) sum_o (dP(o)/dq)^2 / P(o), and likewise
    in r.  At an interior input P(o) = 0 forces dP(o)/dq = 0, so such a term
    contributes 0.
    """
    return _curvatures(mac.tensor.sum(axis=3), mac.tensor.sum(axis=2),
                       *_bias_rows(mac, q, r))


def _curvatures(w_t, w_z, shape, px, py) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gap_curvatures` from marginal channels w_t[x,y,t], w_z[x,y,z]."""
    d2 = (_fisher_sums(w_t, px, py) - _fisher_sums(w_z, px, py)) / LN2
    return d2[:, 0].reshape(shape), d2[:, 1].reshape(shape)


def lessnoisy_gap(q: float, r: float) -> GapPoint:
    """Gap I(Z;XY) - I(T;XY) of the additive example and its second q-derivative.

    Both in bits.  The gap equals H(Z) - H(T) here, because
    H(T|XY) = H(Z|XY) = 1 bit; its sign at every independent input decides
    whether the eavesdropper dominates.  Interior inputs only.
    """
    if not (0.0 < q < 1.0 and 0.0 < r < 1.0):
        raise PreconditionError("inputs must be strictly interior to (0,1)^2")
    mac = discussion_channels()
    return GapPoint(q, r, float(independent_gaps(mac, q, r)),
                    float(gap_curvatures(mac, q, r)[0]))


@dataclass
class ConcavityReport:
    """Sign scan of the gap's second derivative over an interior grid."""

    grid_shape: tuple
    violations: list
    min_margin: float

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {"grid_shape": list(self.grid_shape),
                "violations": self.violations,
                "min_abs_margin": self.min_margin,
                "passed": self.passed}


def concavity_scan(q_points: int = 99, r_points: int = 99) -> ConcavityReport:
    """Assert the strict negativity of the second q-derivative on a grid.

    The gap is symmetric in its two arguments, so negativity along q settles
    the other direction as well.
    """
    qs = np.linspace(0.0, 1.0, q_points + 2)[1:-1]
    rs = np.linspace(0.0, 1.0, r_points + 2)[1:-1]
    d2, _ = gap_curvatures(discussion_channels(), qs[:, None], rs[None, :])
    violations = [{"q": float(qs[i]), "r": float(rs[j]), "d2": float(d2[i, j])}
                  for i, j in np.argwhere(d2 >= 0.0)]
    return ConcavityReport((len(qs), len(rs)), violations,
                           float(np.abs(d2).min(initial=math.inf)))


@dataclass(frozen=True)
class EqualInputWitness:
    """Coupled-input rates on the additive example plus the scanned maximizer."""

    i_t: float
    i_z: float
    best_p0: float
    scanned: tuple


def coupled_input(mac: WiretapMAC, p0: float) -> FactoredInput:
    """Both senders transmit one shared fair-or-biased bit: x = y = U."""
    return FactoredInput.coupled(Dist.from_mass([p0, 1.0 - p0]), mac)


def equal_input_witness(scan_points: int = 99) -> EqualInputWitness:
    """Coupled uniform inputs: the eavesdropper sees pure noise.

    Returns the exact rates at the uniform coupling and a grid scan over the
    coupling bias confirming the uniform choice maximizes the legitimate
    rate.
    """
    mac = discussion_channels()
    # One profile batch: the scanned biases, then the uniform coupling.
    p0s = np.append(np.linspace(0.0, 1.0, scan_points + 2)[1:-1], 0.5)
    p_u = np.stack([p0s, 1.0 - p0s], axis=1)
    ident = np.broadcast_to(np.eye(2), (p0s.size, 2, 2))
    prof = _columns(info_profiles(p_u, ident, ident, ident, ident,
                                  mac.tensor).profiles)
    *scanned, _ = zip(p0s.tolist(), prof.it_v12.tolist())
    # max keeps the first of tied maxima
    best_p0 = max(scanned, key=lambda point: point[1])[0]
    return EqualInputWitness(i_t=float(prof.it_v12[-1]), i_z=float(prof.iz_v12[-1]),
                             best_p0=best_p0, scanned=tuple(scanned))


@dataclass
class Example62Report:
    """All numeric quantities of the explicit 2x2x2x2 example."""

    mac: WiretapMAC
    q: float
    r: float
    entropies: dict
    mutual_informations: dict
    profile: object
    alpha_first_sender: AlphaBounds
    alpha_second_sender: AlphaBounds
    hc01: bool
    hc02: bool
    case0: bool

    def to_json_dict(self) -> dict:
        return {
            "q": self.q, "r": self.r,
            "entropies": self.entropies,
            "mutual_informations": self.mutual_informations,
            "alpha_first_sender": _alpha_json(self.alpha_first_sender),
            "alpha_second_sender": _alpha_json(self.alpha_second_sender),
            "hc01": self.hc01, "hc02": self.hc02, "case0": self.case0,
        }


def _alpha_json(ab: AlphaBounds) -> dict:
    return {"alpha0": ab.alpha0, "alpha1": ab.alpha1, "degenerate": ab.degenerate}


def example62_channels() -> WiretapMAC:
    return WiretapMAC.from_marginals(WB_EXAMPLE, WE_EXAMPLE)


def example62() -> Example62Report:
    """Reconstruct the explicit example and evaluate everything it reports.

    The two senders could occupy either slot of the rate bounds, so both
    role assignments are evaluated and reported.  The interesting conclusion
    (interval strictly interior on the left, endpoint on the right) holds
    under the assignment where the second physical sender leads.
    """
    mac = example62_channels()
    p = FactoredInput.independent(Dist.from_mass([Q_EXAMPLE, 1 - Q_EXAMPLE]),
                                  Dist.from_mass([R_EXAMPLE, 1 - R_EXAMPLE]), mac)
    h = p.joint.entropy
    entropies = {
        "H(T|XY)": h({AX_X, AX_Y, AX_T}) - h({AX_X, AX_Y}),
        "H(Z|XY)": h({AX_X, AX_Y, AX_Z}) - h({AX_X, AX_Y}),
        "H(T|X)": h({AX_X, AX_T}) - h({AX_X}),
        "H(Z|X)": h({AX_X, AX_Z}) - h({AX_X}),
        "H(T|Y)": h({AX_Y, AX_T}) - h({AX_Y}),
        "H(Z|Y)": h({AX_Y, AX_Z}) - h({AX_Y}),
        "H(T)": h({AX_T}),
        "H(Z)": h({AX_Z}),
    }
    # V1 = X, V2 = Y and |U| = 1, so the profile holds every information
    prof = info_profile(p)
    mis = {
        "I(T^XY)": prof.it_v12,
        "I(Z^XY)": prof.iz_v12,
        "I(T^X|Y)": prof.it_v1_v2u,
        "I(Z^X|Y)": prof.iz_v1_v2u,
        "I(T^Y|X)": prof.it_v2_v1u,
        "I(Z^Y|X)": prof.iz_v2_v1u,
        "I(Z^X)": prof.iz_v1_u,
        "I(Z^Y)": prof.iz_v2_u,
    }
    return Example62Report(
        mac=mac, q=Q_EXAMPLE, r=R_EXAMPLE,
        entropies={k: float(v) for k, v in entropies.items()},
        mutual_informations={k: float(v) for k, v in mis.items()},
        profile=prof,
        alpha_first_sender=alpha_bounds_case1(prof),
        alpha_second_sender=alpha_bounds_case1(prof.swapped()),
        hc01=prof.iz_v1_u <= prof.it_v1_v2u,
        hc02=prof.iz_v2_u <= prof.it_v2_v1u,
        case0=CaseLabel.CASE0 in classify_profile(prof, 0.0, u_independent=True).cases,
    )


@dataclass
class FoundChannel:
    """A search hit: the channel pair, the input, and its certificate."""

    mac: WiretapMAC
    q: float
    r: float
    predicate: str
    certificate: dict

    def to_json_dict(self) -> dict:
        out = self.mac.to_json_dict()
        out["input"] = {"q": self.q, "r": self.r}
        out["predicate"] = self.predicate
        out["certificate"] = self.certificate
        return out


def _needs_time_sharing(mac: WiretapMAC, q: float, r: float,
                        tol: float) -> dict | None:
    p = FactoredInput.independent(Dist.from_mass([q, 1 - q]),
                                  Dist.from_mass([r, 1 - r]), mac)
    prof = info_profile(p)
    if prof.iz_v12 > prof.it_v12:
        return None
    for name, cand in (("first", prof), ("second", prof.swapped())):
        if cand.iz_v1_u > cand.it_v1_v2u or cand.iz_v2_u > cand.it_v2_v1u:
            continue  # zero-randomness conditions fail under this assignment
        ab = alpha_bounds_case1(cand)
        if ab.degenerate or ab.alpha0 > ab.alpha1:
            continue
        if ab.alpha0 > tol or ab.alpha1 < 1.0 - tol:
            return {
                "assignment": name,
                "alpha0": float(ab.alpha0),
                "alpha1": float(ab.alpha1),
                "zero_randomness_conditions": [
                    [float(cand.iz_v1_u), float(cand.it_v1_v2u)],
                    [float(cand.iz_v2_u), float(cand.it_v2_v1u)],
                ],
                "common_gate": [float(prof.iz_v12), float(prof.it_v12)],
            }
    return None


def _conferencing_helps(mac: WiretapMAC, rng: np.random.Generator,
                        tol: float, grid: int = 7) -> dict | None:
    # the eavesdropper must beat every independent input, including ones fed
    # through per-sender auxiliaries: that is concavity of the information
    # gap in each input bias (mixtures never flip the sign), checked here by
    # the exact curvatures on an interior grid (first: they are cheap and
    # reject most channels), plus pointwise positivity of the gap itself...
    qs = np.linspace(0.1, 0.9, grid)
    d2_dq2, d2_dr2 = gap_curvatures(mac, qs[:, None], qs[None, :])
    max_d2 = float(max(d2_dq2.max(), d2_dr2.max()))
    if max_d2 >= -tol:
        return None
    min_gap = float(independent_gaps(mac, qs[:, None], qs[None, :]).min())
    if min_gap < tol:
        return None
    # ... while some coupled input flips the sign
    couplings = [0.5, 0.3, 0.7] + list(rng.uniform(0.1, 0.9, size=3))
    for p0 in couplings:
        prof = info_profile(coupled_input(mac, p0))
        advantage = prof.it_v12 - prof.iz_v12
        if advantage > tol:
            return {
                "independent_min_gap": min_gap,
                "max_gap_curvature": max_d2,
                "independent_grid": int(grid),
                "coupling_p0": float(p0),
                "coupled_advantage": float(advantage),
            }
    return None


def bruteforce_search(budget: int, seed: int, predicate: str,
                      tol: float = 1e-3) -> list[FoundChannel]:
    """Randomly search 2x2 channel pairs for a structural predicate.

    ``needs-time-sharing``: the zero-randomness conditions hold but the
    time-sharing interval is strictly interior on one side.
    ``conferencing-helps``: independent inputs never beat the eavesdropper
    while some coupled input does.  Channel rows are uniform on the simplex,
    input biases uniform on [0.05, 0.95]; deterministic under the seed.
    A ``conferencing-helps`` channel is built only once its drawn marginals
    pass the curvature test, which about 2% do.
    """
    if predicate not in ("needs-time-sharing", "conferencing-helps"):
        raise ValidationError(f"unknown predicate {predicate!r}")
    rng = np.random.default_rng(seed)
    qs = np.linspace(0.1, 0.9, 7)  # the curvature grid of _conferencing_helps
    bias_rows = _bias_rows(None, qs[:, None], qs[None, :])
    found = []
    for _ in range(budget):
        rows_b = rng.dirichlet(np.ones(2), size=4)
        rows_e = rng.dirichlet(np.ones(2), size=4)
        q = float(rng.uniform(0.05, 0.95))
        r = float(rng.uniform(0.05, 0.95))
        # the curvature test of _conferencing_helps on the drawn rows, before a
        # channel is built; 1e-9 covers the last bits its marginals differ by
        if predicate == "conferencing-helps" and max(map(np.max, _curvatures(
                rows_b.reshape(2, 2, -1), rows_e.reshape(2, 2, -1),
                *bias_rows))) >= -tol + 1e-9:
            continue
        mac = WiretapMAC.from_marginals(rows_b, rows_e)
        if predicate == "needs-time-sharing":
            cert = _needs_time_sharing(mac, q, r, tol)
        else:
            cert = _conferencing_helps(mac, rng, tol)
        if cert is not None:
            found.append(FoundChannel(mac, q, r, predicate, cert))
    return found
