"""Empirical verification of the codebook concentration bounds.

Each bound concerns an event of one randomly drawn codebook family: enough
private sequences are jointly conditionally typical, or an empirical
channel-output average stays within a relative corridor of its reference
measure.  At desk scale the reference measures are computed exactly by
enumerating the truncated typical supports, events are evaluated on
resampled families, and the observed failure frequencies are compared
against the bound formulas (with the fixed typicality slack
``DEFAULT_SLACK`` and tail exponent ``DEFAULT_TAIL_EXPONENT``, since their
asymptotic forms carry unspecified constants).

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
from .errors import (
    DegenerateTypicalityError,
    PreconditionError,
    ResourceBudgetError,
)
from .probkit import (
    Alphabet,
    Channel,
    Dist,
    _typical_rows,
    all_sequences,
    truncated_typical_dist,
    zip_sequences,
)

LN2 = math.log(2.0)
# Cells of channel rows one workspace block holds: every benchmark shape fits
# in one block, and criterion 7's 1000-resample report stays near 100 MB.
ROW_BLOCK_CELLS = 1 << 20


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
    calls.  It keeps four caches: ``_typ_cache`` (:meth:`typical_given`,
    the truncated typical support of the shared-sequence law p_u),
    ``_ctx_cache`` (:meth:`context_table` rows per conditional law and
    context u), ``_uy_cache`` (:meth:`theta_uy` per (u, y)) and
    ``_u_cache`` (:meth:`theta_u` per u).  The x and y laws given u are
    read only from :meth:`context_table`, which tests every context it
    misses at once.  ``_uy_cache`` is filled per u by :meth:`fill_uy`, all
    of that u's missing ys in one stacked pass; :meth:`theta_uy` fills a
    single missing key that way, and :meth:`theta_u` fills every typical y
    given u before it sums their terms.  :meth:`theta_uy` returns three
    arrays: the cut (u, y) reference, its support f1, and the typical-x
    average of the rows zeroed off E2, which :meth:`theta_u` weights by
    p(y) so that it builds no row of its own.  The (u, y) support f1 lies
    inside the typical output set given (y, u), so masking a row with f1
    also masks it with that set.  :meth:`theta_case3` builds one row per
    distinct typical (x, y) pair.
    """

    def __init__(self, chain: CodeChain, n: int, delta: float, eps: float):
        self.chain = chain
        self.n = n
        self.delta = delta
        self.eps = eps
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
        self.cap = 2.0 ** (-n * (h_z_xy - DEFAULT_SLACK))
        self.mu = 1.0 - 2.0 * 2.0 ** (-n * DEFAULT_TAIL_EXPONENT * delta ** 2)

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
        self._ctx_cache: dict = {}
        self._uy_cache: dict = {}
        self._u_cache: dict = {}
        # every output sequence, lexicographic: the rows of each output mask
        self.zs = all_sequences(self.nz, n)
        plain = (p_z.mass[None, :], np.zeros(n, dtype=np.int64), self.zs)
        # plain typical-Z count at delta (threshold denominators)
        self.t_z_plain = int(_typical_rows(*plain, delta).sum())
        big = 4 * self.ny * self.nx * self.nu * delta
        self.t_z_big_mask = _typical_rows(*plain, big)

    # -- sequence-level pieces ------------------------------------------------

    def typical_given(self, law: Dist):
        """Support of the unconditional ``law``'s truncated typical law and
        its masses, both in lexicographic order."""
        out = self._typ_cache.get(id(law))
        if out is None:
            sd = truncated_typical_dist(law, self.n, self.delta)
            out = (sd.support(), sd.mass[sd.mass > 0.0])
            self._typ_cache[id(law)] = out
        return out

    def context_table(self, law: Channel, useqs: np.ndarray) -> np.ndarray:
        """Masses of ``law``'s truncated typical law given each row of
        ``useqs``, one row per context over all sequences (lexicographic):
        :func:`~wtmac.probkit.truncated_typical_dist` given that row, to the
        bit.  The contexts the cache misses take one typicality test per
        block of whole contexts whose sequences fit ``ROW_BLOCK_CELLS``
        cells (at least one context), one context per row over the block's
        contexts times all sequences.  Raises
        :class:`DegenerateTypicalityError` when a typical set is empty."""
        cache = self._ctx_cache.setdefault(id(law), {})
        missing = {useq.tobytes(): useq for useq in useqs
                   if useq.tobytes() not in cache}
        if missing:
            seqs = all_sequences(law.output_alphabet.size, self.n)
            contexts = np.array(list(missing.values()))
            table = np.empty((len(contexts), len(seqs)))
            step = max(ROW_BLOCK_CELLS // seqs.size, 1)
            for lo in range(0, len(contexts), step):
                block = contexts[lo:lo + step]
                ctx = np.repeat(block, len(seqs), axis=0)
                stacked = np.tile(seqs, (len(block), 1))
                mask = _typical_rows(law.matrix, ctx, stacked,
                                     self.delta).reshape(len(block), -1)
                probs = np.prod(law.matrix[ctx, stacked],
                                axis=1).reshape(len(block), -1)
                # per row, the sum of its typical masses that the
                # one-context law takes, in the same order
                totals = np.array([p[keep].sum()
                                   for p, keep in zip(probs, mask)])
                if not (totals > 0.0).all():
                    raise DegenerateTypicalityError(
                        f"empty {self.delta}-typical set at blocklength "
                        f"{self.n}")
                table[lo:lo + step] = (np.where(mask, probs, 0.0)
                                       / totals[:, None])
            cache.update(zip(missing, table))
        return np.array([cache[useq.tobytes()] for useq in useqs])

    def support_given(self, law: Channel, useq: np.ndarray):
        """Support of ``law``'s truncated typical law given ``useq`` and its
        masses, both in lexicographic order: one :meth:`context_table`
        row."""
        mass = self.context_table(law, useq[None])[0]
        ranks = np.flatnonzero(mass)
        return (_sequences(ranks, law.output_alphabet.size, self.n),
                mass[ranks])

    def theta_uy(self, useq, yseq):
        """Exact reference measure given (u, y), cut to its support, that
        support, and the typical-x average of the inner rows zeroed off E2
        (the term of y in :meth:`theta_u`)."""
        key = (useq.tobytes(), yseq.tobytes())
        if key not in self._uy_cache:
            self.fill_uy(useq, yseq[None, :])
        return self._uy_cache[key]

    def fill_uy(self, useq, ys) -> None:
        """Fill the :meth:`theta_uy` entries of the rows of ``ys`` given
        ``useq`` that the cache misses.  Per block of whole ys that fits
        ``ROW_BLOCK_CELLS`` cells: one channel-row call over the typical xs
        times those ys (y-major) and one typicality test of their output
        masks given (y, u), one context per row; then one dot per y."""
        by_key = {(useq.tobytes(), yseq.tobytes()): yseq for yseq in ys}
        keys = [key for key in by_key if key not in self._uy_cache]
        if not keys:
            return
        ys = np.array([by_key[key] for key in keys])
        xs, probs = self.support_given(self.chain.x_given_u, useq)
        ctx, _ = zip_sequences(ys, np.broadcast_to(useq, ys.shape),
                               [self.ny, self.nu])
        for block, part in self.pair_blocks(len(ys), len(xs)):
            count = len(keys[part])
            rows = _channel_rows(self.we, np.tile(xs, (count, 1)),
                                 np.repeat(ys[part], len(xs), axis=0), self.ny)
            zy = _typical_rows(self.z_given_yu.matrix,
                               np.repeat(ctx[part], len(self.zs), axis=0),
                               np.tile(self.zs, (count, 1)),
                               2 * self.nx * self.delta).reshape(count, -1)
            for key, zy_mask, y_rows in zip(keys[part], zy,
                                            rows.reshape(count, len(xs), -1)):
                capped = y_rows <= self.cap
                theta_hat, f1 = _cut(probs @ (y_rows * (zy_mask & capped)),
                                     zy_mask,
                                     self.eps / max(int(zy_mask.sum()), 1))
                self._uy_cache[key] = (theta_hat, f1,
                                       probs @ (y_rows * (f1 & capped)))

    def theta_u(self, useq):
        """Exact reference measure given u alone (pairs enumerated), cut to
        its support, and that support."""
        key = useq.tobytes()
        out = self._u_cache.get(key)
        if out is None:
            theta = np.zeros(self.nz ** self.n)
            ys, yp = self.support_given(self.chain.y_given_u, useq)
            self.fill_uy(useq, ys)
            for yseq, pyv in zip(ys, yp):
                theta += pyv * self.theta_uy(useq, yseq)[2]
            zmask = _typical_rows(self.z_given_u.matrix, useq, self.zs,
                                  3 * self.ny * self.nx * self.delta)
            out = _cut(theta, zmask, self.eps / max(int(zmask.sum()), 1))
            self._u_cache[key] = out
        return out

    def outer_rows(self, xs, ys) -> np.ndarray:
        """Output rows of the pairs (``xs``, ``ys``), zeroed off E3:
        probability-capped, on the enlarged typical output set."""
        rows = _channel_rows(self.we, xs, ys, self.ny)
        return rows * (self.t_z_big_mask & (rows <= self.cap))

    def pair_blocks(self, groups: int, group: int) -> list:
        """Blocks of whole runs over ``groups`` runs of ``group`` pairs each,
        whose output rows fit in ``ROW_BLOCK_CELLS`` cells (at least one run
        per block), each as its slice of the pairs and its slice of the
        runs."""
        step = max(ROW_BLOCK_CELLS // (group * self.nz ** self.n), 1)
        return [(slice(lo * group, (lo + step) * group), slice(lo, lo + step))
                for lo in range(0, groups, step)]

    def theta_case3(self):
        """Exact Case-3 reference measure (typical triples enumerated), cut
        to its support, and that support.  Each typical (u, y, x) triple
        adds the weight p(u) p(y|u) p(x|u) to its pair's rank
        rank_y |X|^n + rank_x; each distinct pair's row is built once."""
        useqs, pu = self.typical_given(self.chain.p_u)
        x_table = self.context_table(self.chain.x_given_u, useqs)
        y_table = self.context_table(self.chain.y_given_u, useqs)
        size_x = x_table.shape[1]
        ranks, weights = [], []
        for pu_v, x_mass, y_mass in zip(pu, x_table, y_table):
            xr, yr = np.flatnonzero(x_mass), np.flatnonzero(y_mass)
            ranks.append((yr[:, None] * size_x + xr).ravel())
            weights.append(((pu_v * y_mass[yr])[:, None] * x_mass[xr]).ravel())
        pairs, inverse = np.unique(np.concatenate(ranks), return_inverse=True)
        # each pair's weights summed in triple order
        weight = np.zeros(len(pairs))
        np.add.at(weight, inverse, np.concatenate(weights))
        y_ranks, x_ranks = np.divmod(pairs, size_x)
        xs = _sequences(x_ranks, self.nx, self.n)
        ys = _sequences(y_ranks, self.ny, self.n)
        theta = np.zeros(self.nz ** self.n)
        for block, _ in self.pair_blocks(len(pairs), 1):
            terms = weight[block, None] * self.outer_rows(xs[block], ys[block])
            # theta, then each pair's term in pair order: a sequential fold,
            # the same sum at any block size
            terms[0] += theta
            theta = terms.sum(axis=0)
        return _cut(theta, self.t_z_big_mask, self.eps / max(self.t_z_plain, 1))

    # -- bound formulas -------------------------------------------------------

    def tail(self, size: int, info: float, denom: float) -> float:
        """One-sided corridor tail of a mean over ``size`` draws whose
        output information is ``info``."""
        return math.exp(-size * self.eps ** 3
                        * 2.0 ** (-self.n * (info + 2 * DEFAULT_SLACK))
                        / (denom * LN2))

    def typical_fraction_threshold(self, size: int) -> float:
        return (1.0 - self.eps) * self.mu * size

    def star_bound(self, size: int) -> float:
        if self.mu <= 0.0:
            return 1.0
        return min(math.exp(-size * self.eps ** 2 * self.mu / (2.0 * LN2)), 1.0)


def _sequences(ranks: np.ndarray, size: int, n: int) -> np.ndarray:
    """The length-n sequences over {0..size-1} of lexicographic ``ranks``,
    shape (len(ranks), n)."""
    return np.stack(np.unravel_index(ranks, (size,) * n), axis=1)


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
                         resamples: int = 300, seed: int = 12345
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
        "eps": eps, "resamples": resamples, "slack": DEFAULT_SLACK,
        "tail_exponent": DEFAULT_TAIL_EXPONENT, "seed": seed,
    }
    try:
        ws = _Workspace(chain, n, family.delta, eps)
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
    """The Case-1/2 checks in one stacked pass over all resampled families.

    Each (family, shared index a) group holds l1 x l2 (x, y) pairs, b-major.
    One typicality test of all pairs gives the typical counts.  The x laws
    (and in Case 1 the y laws) given every distinct u come from one context
    table each; the (u, y) references are then filled per distinct u, in
    Case 1 over every typical y (:meth:`_Workspace.theta_u` reads them).
    Rows come in blocks of whole groups that fit ``ROW_BLOCK_CELLS``; each
    group's means are axis reductions of its block, and its corridor test
    (width eps for Case-2 inner means, 3 eps for Case-1 pair means) feeds
    both its own check and the family means, which are then checked against
    an estimated reference."""
    l0, l1, l2 = fams[0].l_sizes
    n, size = ws.n, ws.nz ** ws.n
    us = np.stack([fam.u[0] for fam in fams]).reshape(-1, n)
    xs = np.stack([fam.x[0, :, 0] for fam in fams]).reshape(-1, l1, 1, n)
    ys = np.stack([fam.y[0, :, 0] for fam in fams]).reshape(-1, l2, n)
    groups = len(us)
    pair_x, pair_y, pair_u = (
        np.broadcast_to(v, (groups, l1, l2, n)).reshape(-1, n)
        for v in (xs, ys[:, None], us[:, None, None]))
    ctx, _ = zip_sequences(pair_y, pair_u, [ws.ny, ws.nu])
    good = _typical_rows(ws.x_given_yu.matrix, ctx, pair_x, ws.delta)
    star_fail = int((good.reshape(groups, l1, l2).sum(axis=1)
                     < ws.typical_fraction_threshold(l1)).sum())

    by_u = {}
    for useq, partners in zip(us, ys):
        by_u.setdefault(useq.tobytes(), (useq, []))[1].append(partners)
    # the x laws, and in Case 1 the y laws, given every distinct u at once
    distinct = np.array([useq for useq, _ in by_u.values()])
    ws.context_table(ws.chain.x_given_u, distinct)
    if l2 > 1:
        ws.context_table(ws.chain.y_given_u, distinct)
    for useq, partners in by_u.values():
        if l2 > 1:
            partners.append(ws.support_given(ws.chain.y_given_u, useq)[0])
        ws.fill_uy(useq, np.concatenate(partners))
    refs, f1 = (np.array(v).reshape(groups, l2, size) for v in zip(
        *(ws.theta_uy(useq, y)[:2] for useq, partners in zip(us, ys)
          for y in partners)))
    if l2 > 1:
        ref_u, f2 = map(np.array, zip(*map(ws.theta_u, us)))
    mean = np.empty((groups, size))
    out = np.empty((groups, size), dtype=bool)
    inner_fail = np.zeros(size, dtype=np.int64)
    for block, g in ws.pair_blocks(groups, l1 * l2):
        rows = _channel_rows(ws.we, pair_x[block], pair_y[block], ws.ny)
        rows = rows.reshape(-1, l1, l2, size)
        # zeroed off E2: probability-capped, on each partner's (u, y) support
        rows *= f1[g, None] & (rows <= ws.cap)
        means = rows.mean(axis=1)
        outs = _outside(means, refs[g], ws.eps)
        inner_fail += outs.sum(axis=(0, 1))
        if l2 == 1:
            # a single partner: the family means read its inner mean
            mean[g], out[g] = means[:, 0], outs[:, 0]
        else:
            mean[g] = (rows * f2[g, None, None]).reshape(
                len(rows), -1, size).sum(axis=1) / (l1 * l2)
            out[g] = _outside(mean[g], ref_u[g], 3 * ws.eps)
    # per family: the mean over its shared indices, the outputs where all
    # of them passed, and index 0's reference
    means = mean.reshape(len(fams), l0, size).sum(axis=1) / l0
    ok = ~out.reshape(len(fams), l0, size).any(axis=1)
    first = (refs[:, 0] if l2 == 1 else ref_u)[::l0]

    events = groups * l2
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
            ws, means, ok, first, ws.eps / max(ws.t_z_plain, 1), 3 * ws.eps,
            "family-mean corridor (single partner, estimated reference)",
            bound)]
    checks.append(_check(
        "pair-mean corridor (per shared sequence)",
        min(2.0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
            + 2.0 * ws.tail(l2, ws.i_z_y_u, 4.0), 1.0),
        float(out.sum(axis=0).max()) / groups, groups))
    bound = min(2.0 * l0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * l0 * ws.tail(l2, ws.i_z_y_u, 4.0)
                + 2.0 * ws.tail(l0, ws.i_z_u, 4.0), 1.0)
    return checks + [_estimated_reference_check(
        ws, means, ok, first, 1.0 / max(int(ws.t_z_big_mask.sum()), 1),
        5 * ws.eps,
        "family-mean corridor (common index, estimated reference)", bound)]


def _estimated_reference_check(ws: _Workspace, means: np.ndarray,
                               ok: np.ndarray, first: np.ndarray,
                               floor: float, width: float, name: str,
                               bound: float) -> LemmaCheck:
    """Corridor check of the (R, size) family means around a reference
    estimated as the average index-0 reference (``first``) over the families
    whose indices all passed (``ok``), kept where it reaches ``floor`` on the
    enlarged typical output set."""
    acc = np.where(ok, first, 0.0).sum(axis=0)
    theta_est = np.divide(acc, np.maximum(ok.sum(axis=0), 1.0))
    theta_hat, support = _cut(theta_est, ws.t_z_big_mask, floor)
    fail_by_z = (support & _outside(means, theta_hat, width)).sum(axis=0)
    return _check(name, bound, float(fail_by_z.max()) / len(means),
                  len(means), note="reference measure estimated from resamples")


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
    for block, _ in ws.pair_blocks(len(fams), l0):
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
