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
    SAMPLER_VERSION,
    _channel_rows,
    sample_codebook_families,
)
from .errors import PreconditionError, ResourceBudgetError
from .probkit import (
    CELL_BUDGET,
    Alphabet,
    Channel,
    Dist,
    _truncated_laws,
    _typical_rows,
    all_sequences,
    zip_sequences,
)

LN2 = math.log(2.0)
# Cells of channel rows one workspace block holds (1 MB of floats).  The
# stacked (u, y) pass reads each block several times (cap mask, two masked
# products per u); at 2^18 or 2^20 its blocks fall out of cache and the
# criterion-7-shaped report ran about 30% slower, while at 2^17 the other
# block loops run as fast as at 2^20 and criterion 7's 1000-resample report
# peaks near 75 MB.
ROW_BLOCK_CELLS = 1 << 17


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
    """The checks of one report, and the work it did: the distinct shared
    sequences u and (u, y) reference keys of a Case-1/2 report (0 in Case
    3), and the channel-row blocks of any report.  The work counters depend
    only on the inputs and ``ROW_BLOCK_CELLS``; they are not part of
    :meth:`to_json_dict`."""

    checks: list
    params: dict
    partial: bool = False
    notes: tuple = ()
    distinct_u: int = 0
    uy_keys: int = 0
    row_blocks: int = 0

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
    """Exact reference measures for one chain: per (u, y), per u and Case 3.

    It holds no memo state: each report knows the keys it needs before it
    starts and computes each reference once per distinct key, in one call
    for all of them.  Truncated typical laws are rows of the one kernel,
    :func:`~wtmac.probkit._truncated_laws`, one table per law over many
    contexts.  :meth:`uy_refs` gives the (u, y) references of every key of
    a report as arrays: the cut reference, its support f1, and the
    typical-x average of the inner rows zeroed off E2 (the term of y), over
    channel rows built in :meth:`key_blocks` blocks of whole u-runs.
    :meth:`u_refs` folds the terms of the typical ys given each u, weighted
    by p(y|u), in lexicographic y order.  The (u, y) support f1 lies inside
    the typical output set given (y, u), so masking a row with f1 also masks
    it with that set.  :meth:`theta_case3` builds one row per distinct
    typical (x, y) pair.  Channel rows come only from stacked
    :func:`~wtmac.codesim._channel_rows` calls, through :meth:`rows`, which
    counts them in ``row_blocks``; :meth:`uy_refs` counts the distinct us
    and keys it is given.
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
        # the u, x and y sequence spaces the references enumerate or rank
        for size in (self.nu, self.nx, self.ny):
            if size ** n * n > CELL_BUDGET:
                raise ResourceBudgetError(
                    f"enumerating {size ** n} sequences exceeds the budget")
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
        # every output sequence, lexicographic: the rows of each output mask
        self.zs = all_sequences(self.nz, n)
        plain = (p_z.mass[None, :], np.zeros(n, dtype=np.int64), self.zs)
        # plain typical-Z count at delta (threshold denominators)
        self.t_z_plain = int(_typical_rows(*plain, delta).sum())
        big = 4 * self.ny * self.nx * self.nu * delta
        self.t_z_big_mask = _typical_rows(*plain, big)
        self.distinct_u = self.uy_keys = self.row_blocks = 0

    # -- sequence-level pieces ------------------------------------------------

    def uy_refs(self, useqs, x_table, key_u, key_ys):
        """The (u, y) references of every key, each cut to its support,
        those supports f1, and the typical-x averages of the inner rows
        zeroed off E2 (the terms of :meth:`u_refs`), as three
        (len(key_u), |Z|^n) arrays.  Key i is the pair
        (``useqs[key_u[i]]``, ``key_ys[i]``), ``key_u`` sorted; row j of
        ``x_table`` is the x law given ``useqs[j]``.  Per
        :meth:`key_blocks` block: one channel-row call over each key's
        typical xs (key-major), one typicality test of the keys' output
        masks given (y, u), one context per row, and one cap mask; then per
        u in the block one batched product of its x masses with its rows for
        the references and one for the terms.  A batched product is one dot
        per key, so a key's result does not depend on its block."""
        size = len(self.zs)
        xs, probs = [], []
        for x_mass in x_table:
            ranks = np.flatnonzero(x_mass)
            xs.append(_sequences(ranks, self.nx, self.n))
            probs.append(x_mass[ranks])
        ctx, _ = zip_sequences(key_ys, useqs[key_u], [self.ny, self.nu])
        theta = np.empty((len(key_u), size))
        f1 = np.empty(theta.shape, dtype=bool)
        terms = np.empty(theta.shape)
        self.distinct_u += len(useqs)
        self.uy_keys += len(key_u)
        for block in self.key_blocks(_runs(key_u, len(useqs)),
                                     [len(v) for v in xs]):
            lo, hi = block[0][1].start, block[-1][1].stop
            rows = self.rows(
                np.concatenate([np.tile(xs[u], (part.stop - part.start, 1))
                                for u, part in block]),
                np.concatenate([np.repeat(key_ys[part], len(xs[u]), axis=0)
                                for u, part in block]))
            zy = _typical_rows(self.z_given_yu.matrix,
                               np.repeat(ctx[lo:hi], size, axis=0),
                               np.tile(self.zs, (hi - lo, 1)),
                               2 * self.nx * self.delta).reshape(hi - lo, size)
            capped = rows <= self.cap
            first = 0
            for u, part in block:
                shape = (part.stop - part.start, len(xs[u]), size)
                span = slice(first, first + shape[0] * shape[1])
                first = span.stop
                u_rows = rows[span].reshape(shape)
                u_capped = capped[span].reshape(shape)
                zy_masks = zy[part.start - lo:part.stop - lo]
                floors = self.eps / np.maximum(zy_masks.sum(axis=1), 1)
                theta[part], f1[part] = _cut(
                    probs[u] @ (u_rows * (zy_masks[:, None] & u_capped)),
                    zy_masks, floors[:, None])
                terms[part] = probs[u] @ (u_rows * (f1[part, None] & u_capped))
        return theta, f1, terms

    def u_refs(self, useqs, key_u, y_probs, terms):
        """Exact reference measures given each u of ``useqs`` alone (pairs
        enumerated), cut to their supports, and those supports, as two
        (len(useqs), |Z|^n) arrays.  Row i of ``terms`` is the
        :meth:`uy_refs` term of a typical y given ``useqs[key_u[i]]`` of
        mass ``y_probs[i]``, ``key_u`` sorted and each u's ys lexicographic;
        one sequential fold sums each u's weighted terms in that order.
        The output masks given u come from one typicality test per block of
        whole us that fits ``ROW_BLOCK_CELLS``."""
        size = len(self.zs)
        theta = np.add.reduceat(y_probs[:, None] * terms,
                                np.searchsorted(key_u, np.arange(len(useqs))),
                                axis=0)
        zmask = np.empty((len(useqs), size), dtype=bool)
        for _, part in self.pair_blocks(len(useqs), 1):
            count = len(useqs[part])
            zmask[part] = _typical_rows(
                self.z_given_u.matrix, np.repeat(useqs[part], size, axis=0),
                np.tile(self.zs, (count, 1)),
                3 * self.ny * self.nx * self.delta).reshape(count, size)
        floors = self.eps / np.maximum(zmask.sum(axis=1), 1)
        return _cut(theta, zmask, floors[:, None])

    def rows(self, xs, ys) -> np.ndarray:
        """Channel rows of the pairs (``xs``, ``ys``): one block, counted in
        ``row_blocks``."""
        self.row_blocks += 1
        return _channel_rows(self.we, xs, ys, self.ny)

    def outer_rows(self, xs, ys) -> np.ndarray:
        """Output rows of the pairs (``xs``, ``ys``), zeroed off E3:
        probability-capped, on the enlarged typical output set."""
        rows = self.rows(xs, ys)
        return rows * (self.t_z_big_mask & (rows <= self.cap))

    def pair_blocks(self, groups: int, group: int) -> list:
        """Blocks of whole runs over ``groups`` runs of ``group`` pairs each,
        whose output rows fit in ``ROW_BLOCK_CELLS`` cells (at least one run
        per block), each as its slice of the pairs and its slice of the
        runs."""
        step = max(ROW_BLOCK_CELLS // (group * self.nz ** self.n), 1)
        return [(slice(lo * group, (lo + step) * group), slice(lo, lo + step))
                for lo in range(0, groups, step)]

    def key_blocks(self, runs: list, widths: list) -> list:
        """Blocks of keys whose channel rows fit in ``ROW_BLOCK_CELLS``
        cells, ``runs[u]`` being the slice of u's keys and ``widths[u]`` the
        rows of each: whole runs join a block while they fit, and a run too
        large for one block is split into parts that fit (at least one key
        each).  Each block lists its (u, slice of keys) parts in key
        order."""
        blocks, cells = [], 0
        for u, run in enumerate(runs):
            per = widths[u] * len(self.zs)
            step = max(ROW_BLOCK_CELLS // per, 1)
            for lo in range(run.start, run.stop, step):
                part = slice(lo, min(lo + step, run.stop))
                need = (part.stop - lo) * per
                if not blocks or cells + need > ROW_BLOCK_CELLS:
                    blocks.append([])
                    cells = 0
                blocks[-1].append((u, part))
                cells += need
        return blocks

    def theta_case3(self):
        """Exact Case-3 reference measure (typical triples enumerated), cut
        to its support, and that support.  Each typical (u, y, x) triple
        adds the weight p(u) p(y|u) p(x|u) to its pair's rank
        rank_y |X|^n + rank_x; each distinct pair's row is built once."""
        u_mass = _truncated_laws(self.chain.p_u.mass[None, :],
                                 np.zeros((1, self.n), dtype=np.int64),
                                 self.delta)[0]
        u_ranks = np.flatnonzero(u_mass)
        useqs = _sequences(u_ranks, self.nu, self.n)
        x_table = _truncated_laws(self.chain.x_given_u.matrix, useqs,
                                  self.delta)
        y_table = _truncated_laws(self.chain.y_given_u.matrix, useqs,
                                  self.delta)
        size_x = x_table.shape[1]
        ranks, weights = [], []
        for pu_v, x_mass, y_mass in zip(u_mass[u_ranks], x_table, y_table):
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
        theta = np.zeros(len(self.zs))
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


def _runs(labels: np.ndarray, count: int) -> list:
    """The slice of each label 0..count-1's run in the sorted ``labels``."""
    bounds = np.searchsorted(labels, np.arange(count + 1))
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


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
        "sampler_version": SAMPLER_VERSION,
    }
    try:
        ws = _Workspace(chain, n, family.delta, eps)
    except ResourceBudgetError as exc:
        return ConcentrationReport([], params, partial=True,
                                   notes=(f"budget exceeded: {exc}",))

    fams = sample_codebook_families(chain, n, family.l_sizes, family.delta,
                                    [seed + 7919 * i for i in range(resamples)])

    if l1 == 1 and l2 == 1:
        checks, notes = _case3_checks(ws, fams, l0), ()
    else:
        checks = _pair_checks(ws, fams)
        notes = ("outer reference measure estimated from the resamples",)
    return ConcentrationReport(checks, params, notes=notes,
                               distinct_u=ws.distinct_u, uy_keys=ws.uy_keys,
                               row_blocks=ws.row_blocks)


def _pair_checks(ws: _Workspace, fams) -> list:
    """The Case-1/2 checks in one stacked pass over all resampled families.

    Each (family, shared index a) group holds l1 x l2 (x, y) pairs, b-major.
    One typicality test of all pairs gives the typical counts.  The x laws
    (and in Case 1 the y laws) given every distinct u come from one law
    table each.  Sequences are keyed by integer ranks: one
    :meth:`_Workspace.uy_refs` call computes the references of every
    distinct (u, y) key, a u with its partner ys and, in Case 1, every
    typical y given it, whose terms one :meth:`_Workspace.u_refs` call
    folds; the results are scattered to the groups by index.  Rows come in
    blocks of whole groups that fit
    ``ROW_BLOCK_CELLS``; each group's means are axis reductions of its
    block, and its corridor test (width eps for Case-2 inner means, 3 eps
    for Case-1 pair means) feeds both its own check and the family means,
    which are then checked against an estimated reference."""
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

    # the distinct us and, per u, the distinct (u, y) keys by rank: its
    # partners and, in Case 1, every typical y given it
    _, first, u_of = np.unique(np.ravel_multi_index(us.T, (ws.nu,) * n),
                               return_index=True, return_inverse=True)
    distinct = us[first]
    x_table = _truncated_laws(ws.chain.x_given_u.matrix, distinct, ws.delta)
    y_space = ws.ny ** n
    keys = [np.repeat(u_of, l2) * y_space
            + np.ravel_multi_index(ys.reshape(-1, n).T, (ws.ny,) * n)]
    if l2 > 1:
        y_table = _truncated_laws(ws.chain.y_given_u.matrix, distinct,
                                  ws.delta)
        typ_u, typ_y = np.nonzero(y_table)
        keys.append(typ_u * y_space + typ_y)
    keys, key_of = np.unique(np.concatenate(keys), return_inverse=True)
    key_u, key_y = np.divmod(keys, y_space)
    theta, f1, terms = ws.uy_refs(distinct, x_table, key_u,
                                  _sequences(key_y, ws.ny, n))
    refs, f1 = (v[key_of[:groups * l2]].reshape(groups, l2, size)
                for v in (theta, f1))
    if l2 > 1:
        # each u's typical ys, lexicographic within its run
        ref_u, f2 = (v[u_of] for v in ws.u_refs(
            distinct, typ_u, y_table[typ_u, typ_y],
            terms[key_of[groups * l2:]]))
    mean = np.empty((groups, size))
    out = np.empty((groups, size), dtype=bool)
    inner_fail = np.zeros(size, dtype=np.int64)
    for block, g in ws.pair_blocks(groups, l1 * l2):
        rows = ws.rows(pair_x[block], pair_y[block]).reshape(-1, l1, l2, size)
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
