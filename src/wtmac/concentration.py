"""Empirical verification of the codebook concentration bounds.

Each bound concerns an event of one randomly drawn codebook family: enough
private sequences are jointly conditionally typical, or an empirical
channel-output average stays within a relative corridor of its reference
measure.  At desk scale the reference measures are computed exactly by
enumerating the truncated typical supports, events are evaluated on
resampled families, and the observed failure frequencies are compared
against the bound formulas (with the typicality slacks and the tail
exponent supplied as parameters, since their asymptotic forms carry
unspecified constants).

Reference measures defined through conditioning on a success event of the
inner indices cannot be enumerated directly; they are estimated from the
resamples themselves and flagged as estimated in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codesim import (
    CodeChain,
    CodebookFamily,
    DEFAULT_SLACK,
    DEFAULT_TAIL_EXPONENT,
    _channel_rows,
    sample_codebook_families,
)
from .errors import PreconditionError, ResourceBudgetError
from .probkit import (
    Alphabet,
    CELL_BUDGET,
    Channel,
    Dist,
    _typical_rows,
    truncated_typical_dist,
    typical_mask,
    zip_sequences,
)

LN2 = math.log(2.0)


@dataclass
class LemmaCheck:
    """One bound: its formula value and the observed failure frequency."""

    name: str
    bound: float
    empirical: float | None
    events: int
    vacuous: bool
    exceeded: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class ConcentrationReport:
    checks: list
    params: dict
    partial: bool = False
    notes: tuple = ()

    @property
    def passed(self) -> bool:
        return not any(c.exceeded for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "params": self.params,
            "partial": self.partial,
            "notes": list(self.notes),
            "passed": self.passed,
        }


class _Workspace:
    """Exact per-(u, y), per-u and Case-3 reference measures for one chain.

    Channel rows come only from stacked :func:`~wtmac.codesim._channel_rows`
    calls.  It keeps three caches: ``_typ_cache`` (truncated typical
    supports per law and context), ``_uy_cache`` (:meth:`theta_uy` per
    (u, y)) and ``_u_cache`` (:meth:`theta_u` per u).  :meth:`theta_uy`
    returns three arrays: the cut (u, y) reference, its support f1, and the
    typical-x average of the rows zeroed off E2, which :meth:`theta_u`
    weights by p(y) so that it builds no row of its own.  The (u, y) support
    f1 lies inside the typical output set given (y, u), so masking a row
    with f1 also masks it with that set.
    """

    def __init__(self, chain: CodeChain, n: int, delta: float, eps: float,
                 slack: float, tail_exponent: float):
        self.chain = chain
        self.n = n
        self.delta = delta
        self.eps = eps
        self.slack = slack
        mac = chain.mac
        self.nx = mac.x_alphabet.size
        self.ny = mac.y_alphabet.size
        self.nz = mac.z_alphabet.size
        self.nu = chain.p_u.alphabet.size
        if self.nz ** n > 1 << 20:
            raise ResourceBudgetError(f"|Z|^{n} output space too large")
        joint = chain.joint  # axes (U, X, Y, T, Z)
        h_z_xy = joint.entropy({1, 2, 4}) - joint.entropy({1, 2})
        prof = chain.profile  # V1 = X, V2 = Y
        self.i_z_x_yu = prof.iz_v1_v2u
        self.i_z_y_u = prof.iz_v2_u
        self.i_z_xy = prof.iz_v12
        self.i_z_u = prof.iz_u
        self.i_z_yu = prof.iz_v2u
        self.we = mac.eve.matrix
        # probability cap of the E1 outputs and typical-draw success floor
        self.cap = 2.0 ** (-n * (h_z_xy - slack))
        self.mu = 1.0 - 2.0 * 2.0 ** (-n * tail_exponent * delta ** 2)

        # conditional laws for typicality tests, context symbol y*|U| + u
        pair = Alphabet(self.ny * self.nu)
        self.x_given_yu = Channel(pair, Alphabet(self.nx),
                                  np.tile(chain.x_given_u.matrix, (self.ny, 1)))
        we3 = self.we.reshape(self.nx, self.ny, self.nz)
        zyu_rows = np.einsum("ux,xyz->yuz", chain.x_given_u.matrix, we3)
        self.z_given_yu = Channel(pair, Alphabet(self.nz),
                                  zyu_rows.reshape(-1, self.nz))
        zu_rows = np.einsum("ux,uy,xyz->uz", chain.x_given_u.matrix,
                            chain.y_given_u.matrix, we3)
        self.z_given_u = Channel(Alphabet(self.nu), Alphabet(self.nz), zu_rows)
        p_z = Dist(Alphabet(self.nz), joint.marginal_mass({4}))
        self._typ_cache: dict = {}
        self._uy_cache: dict = {}
        self._u_cache: dict = {}
        # plain typical-Z count at delta (threshold denominators)
        self.t_z_plain = int(typical_mask(p_z, delta, n).sum())
        big = 4 * self.ny * self.nx * self.nu * delta
        self.t_z_big_mask = typical_mask(p_z, big, n)

    # -- sequence-level pieces ------------------------------------------------

    def typical_given(self, law, useq: np.ndarray | None = None):
        """Support of ``law``'s truncated typical law (given ``useq`` for a
        channel) and its masses, both in lexicographic order."""
        key = (id(law), None if useq is None else useq.tobytes())
        out = self._typ_cache.get(key)
        if out is None:
            sd = truncated_typical_dist(law, self.n, self.delta, useq)
            out = (sd.support(), sd.mass[sd.mass > 0.0])
            self._typ_cache[key] = out
        return out

    def theta_uy(self, useq, yseq):
        """Exact reference measure given (u, y), cut to its support, that
        support, and the typical-x average of the inner rows zeroed off E2
        (the term of y in :meth:`theta_u`)."""
        key = (useq.tobytes(), yseq.tobytes())
        out = self._uy_cache.get(key)
        if out is None:
            xs, probs = self.typical_given(self.chain.x_given_u, useq)
            rows = _channel_rows(self.we, xs, yseq, self.ny)
            capped = rows <= self.cap
            ctx, _ = zip_sequences(yseq, useq, [self.ny, self.nu])
            zy_mask = typical_mask(self.z_given_yu, 2 * self.nx * self.delta,
                                   self.n, ctx)
            theta_hat, f1 = _cut(probs @ (rows * (zy_mask & capped)), zy_mask,
                                 self.eps / max(int(zy_mask.sum()), 1))
            out = (theta_hat, f1, probs @ (rows * (f1 & capped)))
            self._uy_cache[key] = out
        return out

    def theta_u(self, useq):
        """Exact reference measure given u alone (pairs enumerated), cut to
        its support, and that support."""
        key = useq.tobytes()
        out = self._u_cache.get(key)
        if out is None:
            theta = np.zeros(self.nz ** self.n)
            for yseq, pyv in zip(*self.typical_given(self.chain.y_given_u,
                                                      useq)):
                theta += pyv * self.theta_uy(useq, yseq)[2]
            ctx = np.asarray(useq, dtype=np.int64)
            zmask = typical_mask(self.z_given_u,
                                 3 * self.ny * self.nx * self.delta,
                                 self.n, ctx)
            out = _cut(theta, zmask, self.eps / max(int(zmask.sum()), 1))
            self._u_cache[key] = out
        return out

    def outer_rows(self, xs, ys) -> np.ndarray:
        """Output rows of the pairs (``xs``, ``ys``), zeroed off E3:
        probability-capped, on the enlarged typical output set."""
        rows = _channel_rows(self.we, xs, ys, self.ny)
        return rows * (self.t_z_big_mask & (rows <= self.cap))

    def pair_blocks(self, groups: int, group: int) -> list:
        """Slices over ``groups`` runs of ``group`` pairs each, whole runs
        only, whose output rows fit in ``CELL_BUDGET`` cells (at least one
        run per slice)."""
        step = max(CELL_BUDGET // (group * self.nz ** self.n), 1) * group
        return [slice(lo, lo + step) for lo in range(0, groups * group, step)]

    def theta_case3(self):
        """Exact Case-3 reference measure (typical triples enumerated), cut
        to its support, and that support."""
        theta = np.zeros(self.nz ** self.n)
        for useq, pu in zip(*self.typical_given(self.chain.p_u)):
            xs, xp = self.typical_given(self.chain.x_given_u, useq)
            ys, yp = self.typical_given(self.chain.y_given_u, useq)
            # the (y, x) pairs y-major, in as few calls as the budget
            # allows; one dot per y
            pairs = (np.tile(xs, (len(ys), 1)), np.repeat(ys, len(xs), axis=0))
            for block in self.pair_blocks(len(ys), len(xs)):
                rows = self.outer_rows(pairs[0][block], pairs[1][block])
                for pyv, y_rows in zip(yp[block.start // len(xs):],
                                       rows.reshape(-1, len(xs), theta.size)):
                    theta += (pu * pyv) * (xp @ y_rows)
        return _cut(theta, self.t_z_big_mask, self.eps / max(self.t_z_plain, 1))

    # -- bound formulas -------------------------------------------------------

    def tail(self, size: int, info: float, denom: float) -> float:
        """One-sided corridor tail of a mean over ``size`` draws whose
        output information is ``info``."""
        return math.exp(-size * self.eps ** 3
                        * 2.0 ** (-self.n * (info + 2 * self.slack))
                        / (denom * LN2))

    def typical_fraction_threshold(self, size: int) -> float:
        return (1.0 - self.eps) * self.mu * size

    def star_bound(self, size: int) -> float:
        if self.mu <= 0.0:
            return 1.0
        return min(math.exp(-size * self.eps ** 2 * self.mu / (2.0 * LN2)), 1.0)


def _cut(theta: np.ndarray, mask: np.ndarray, floor: float):
    """A reference measure kept on ``mask`` where it reaches ``floor``, and
    that support."""
    support = mask & (theta >= floor)
    return theta * support, support


def _check(name: str, bound: float, freq: float, events: int,
           note: str = "") -> LemmaCheck:
    """A vacuous bound (>= 1) is never exceeded; any other is exceeded when
    the frequency beats it by more than three binomial standard deviations."""
    sigma3 = 3.0 * math.sqrt(max(freq * (1.0 - freq), 1e-12) / max(events, 1))
    return LemmaCheck(name=name, bound=bound, empirical=freq, events=events,
                      vacuous=bound >= 1.0,
                      exceeded=bound < 1.0 and freq - sigma3 > bound,
                      note=note)


def _outside(mean: np.ndarray, ref: np.ndarray, width: float) -> np.ndarray:
    """Outputs where ``mean`` leaves the (1 +/- width) corridor of ``ref``."""
    return ((mean > (1.0 + width) * ref + 1e-15)
            | (mean < (1.0 - width) * ref - 1e-15))


def concentration_report(family: CodebookFamily, eps: float, *,
                         resamples: int = 300, seed: int = 12345,
                         slack: float = DEFAULT_SLACK,
                         tail_exponent: float = DEFAULT_TAIL_EXPONENT
                         ) -> ConcentrationReport:
    """Evaluate the applicable concentration bounds for one family shape.

    Resamples ``resamples`` fresh families of the same shape from the same
    chain, measures how often each event fails, and compares against the
    bound formulas.  A check is ``exceeded`` when the empirical frequency
    beats its bound by more than three binomial standard deviations;
    vacuous bounds (>= 1) can never be exceeded.
    """
    if family.k_sizes != (1, 1, 1):
        raise PreconditionError("concentration checks run on single-message "
                                "families (K sizes all 1)")
    if not 0.0 < eps < 0.5:
        raise PreconditionError(f"need 0 < eps < 1/2, got {eps}")
    if resamples < 1:
        raise PreconditionError(f"need at least one resample, got {resamples}")
    chain = family.chain
    n = family.n
    l0, l1, l2 = family.l_sizes
    params = {
        "n": n, "l_sizes": list(family.l_sizes), "delta": family.delta,
        "eps": eps, "resamples": resamples, "slack": slack,
        "tail_exponent": tail_exponent, "seed": seed,
    }
    try:
        ws = _Workspace(chain, n, family.delta, eps, slack, tail_exponent)
    except ResourceBudgetError as exc:
        return ConcentrationReport([], params, partial=True,
                                   notes=(f"budget exceeded: {exc}",))

    fams = sample_codebook_families(chain, n, family.l_sizes, family.delta,
                                    [seed + 7919 * i for i in range(resamples)])

    if l1 == 1 and l2 == 1:
        return ConcentrationReport(_case3_checks(ws, fams, l0), params)
    return ConcentrationReport(
        _pair_checks(ws, fams), params,
        notes=("outer reference measure estimated from the resamples",))


def _pair_checks(ws: _Workspace, fams) -> list:
    """The Case-1/2 checks in one pass over the resampled families.  Each
    shared index a reads one block of channel rows over its l1 x l2 (x, y)
    pairs (b-major) and one typicality test of every x given each partner's
    (y, u): per partner c a typical count and an inner mean, and in Case 1
    one pair mean.  Each index's corridor test (width eps for Case-2 inner
    means, 3 eps for Case-1 pair means) feeds both its own check and the
    family means, which are then checked against an estimated reference."""
    l0, l1, l2 = fams[0].l_sizes
    size = ws.nz ** ws.n
    threshold = ws.typical_fraction_threshold(l1)
    star_fail = 0
    inner_fail = np.zeros(size)
    pair_fail = np.zeros(size)
    per_fam = []
    for fam in fams:
        total = np.zeros(size)
        ok = np.ones(size, dtype=bool)
        for a in range(l0):
            useq, partners = fam.u[0, a], fam.y[0, a, 0]
            xs = np.repeat(fam.x[0, a, 0], l2, axis=0)
            ys = np.tile(partners, (l1, 1))
            ctx, _ = zip_sequences(ys, np.broadcast_to(useq, ys.shape),
                                   [ws.ny, ws.nu])
            good = _typical_rows(ws.x_given_yu.matrix, ctx, xs, ws.delta)
            star_fail += int((good.reshape(l1, l2).sum(axis=0)
                              < threshold).sum())
            refs, f1 = map(np.array, zip(*(ws.theta_uy(useq, y)[:2]
                                           for y in partners)))
            # rows zeroed off E2: probability-capped, on each partner's
            # (u, y) support
            rows = _channel_rows(ws.we, xs, ys, ws.ny).reshape(l1, l2, size)
            kept = rows * (f1 & (rows <= ws.cap))
            means = kept.mean(axis=0)
            outs = _outside(means, refs, ws.eps)
            inner_fail += outs.sum(axis=0)
            if l2 == 1:
                # a single partner: the family means read its inner mean
                mean, ref, out = means[0], refs[0], outs[0]
            else:
                ref, f2 = ws.theta_u(useq)
                mean = (kept * f2).reshape(-1, size).sum(axis=0) / (l1 * l2)
                out = _outside(mean, ref, 3 * ws.eps)
                pair_fail += out
            ok &= ~out
            total += mean
            if a == 0:
                first = ref
        per_fam.append((total / l0, ok, first))

    events = len(fams) * l0 * l2
    checks = [
        _check("typical-fraction (inner sequences vs partner)",
               ws.star_bound(l1), star_fail / events, events),
        _check("inner-mean corridor (per output sequence)",
               min(2.0 * ws.tail(l1, ws.i_z_x_yu, 2.0), 1.0),
               float(inner_fail.max()) / events, events),
    ]
    if l2 == 1:
        bound = min(2.0 * l0 * ws.tail(l1, ws.i_z_x_yu, 2.0)
                    + 2.0 * ws.tail(l0, ws.i_z_yu, 4.0), 1.0)
        return checks + [_estimated_reference_check(
            ws, per_fam, ws.eps / max(ws.t_z_plain, 1), 3 * ws.eps,
            "family-mean corridor (single partner, estimated reference)",
            bound)]
    events = len(fams) * l0
    checks.append(_check(
        "pair-mean corridor (per shared sequence)",
        min(2.0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
            + 2.0 * ws.tail(l2, ws.i_z_y_u, 4.0), 1.0),
        float(pair_fail.max()) / events, events))
    bound = min(2.0 * l0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * l0 * ws.tail(l2, ws.i_z_y_u, 4.0)
                + 2.0 * ws.tail(l0, ws.i_z_u, 4.0), 1.0)
    return checks + [_estimated_reference_check(
        ws, per_fam, 1.0 / max(int(ws.t_z_big_mask.sum()), 1), 5 * ws.eps,
        "family-mean corridor (common index, estimated reference)", bound)]


def _estimated_reference_check(ws: _Workspace, per_fam, floor: float,
                               width: float, name: str,
                               bound: float) -> LemmaCheck:
    """Corridor check of the family means around a reference estimated as the
    average index-0 reference over the families whose indices all passed,
    kept where it reaches ``floor`` on the enlarged typical output set."""
    acc = np.zeros(ws.nz ** ws.n)
    cnt = np.zeros(ws.nz ** ws.n)
    for _, ok, first in per_fam:
        acc += np.where(ok, first, 0.0)
        cnt += ok
    theta_est = np.divide(acc, np.maximum(cnt, 1.0))
    theta_hat, support = _cut(theta_est, ws.t_z_big_mask, floor)
    fail_by_z = np.zeros(ws.nz ** ws.n)
    for mean, _, _ in per_fam:
        fail_by_z += support & _outside(mean, theta_hat, width)
    return _check(name, bound, float(fail_by_z.max()) / len(per_fam),
                  len(per_fam), note="reference measure estimated from resamples")


def _case3_checks(ws: _Workspace, fams, l0: int) -> list:
    """The Case-3 checks over all resampled families at once: one typical
    count of the R*l0 shared-index pairs, and their outer rows in as few
    calls as the cell budget allows."""
    theta_hat, f3 = ws.theta_case3()
    us = np.stack([fam.u[0] for fam in fams])
    xs = np.stack([fam.x[0, :, 0, 0] for fam in fams]).reshape(-1, ws.n)
    ys = np.stack([fam.y[0, :, 0, 0] for fam in fams]).reshape(-1, ws.n)
    ctx, _ = zip_sequences(ys, us.reshape(-1, ws.n), [ws.ny, ws.nu])
    good = _typical_rows(ws.x_given_yu.matrix, ctx, xs, ws.delta)
    star_fail = int((good.reshape(len(fams), l0).sum(axis=1)
                     < ws.typical_fraction_threshold(l0)).sum())
    fail_by_z = np.zeros(ws.nz ** ws.n, dtype=np.int64)
    for block in ws.pair_blocks(len(fams), l0):
        means = ws.outer_rows(xs[block], ys[block]).reshape(
            -1, l0, fail_by_z.size).sum(axis=1) / l0
        fail_by_z += (f3 & _outside(means, theta_hat, ws.eps)).sum(axis=0)
    events = len(fams)
    return [
        _check("typical-fraction (shared-index pairs)", ws.star_bound(l0),
               star_fail / events, events),
        _check("family-mean corridor (exact reference)",
               min(2.0 * ws.tail(l0, ws.i_z_xy, 2.0), 1.0),
               float(fail_by_z.max()) / events, events),
    ]
