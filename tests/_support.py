"""Shared generators for the test suite: channels, inputs, sampled profiles;
and the one-input-at-a-time reference paths the batched kernels are checked
against."""

import math
from itertools import combinations

import numpy as np

from wtmac import optimizer
from wtmac.codesim import _channel_rows, joint_typicality_decode
from wtmac.concentration import _check, _estimated_reference_check, _outside
from wtmac.conferencing import region_conferencing
from wtmac.errors import DegenerateTypicalityError, PreconditionError
from wtmac.probkit import (
    AX_T,
    AX_U,
    AX_V1,
    AX_V2,
    AX_Z,
    Channel,
    Dist,
    FactoredInput,
    WiretapMAC,
    _sequence_law,
    mutual_information,
    typical_mask,
    typical_membership,
    zip_sequences,
)
from wtmac.regions import (
    CaseLabel,
    InfoProfile,
    RatePolytope,
    classify_profile,
    info_profile,
    region_common,
)

WB_62 = np.array([[0.6178, 0.3822], [0.0624, 0.9376],
                  [0.9350, 0.0650], [0.2353, 0.7647]])
WE_62 = np.array([[0.0729, 0.9271], [0.7264, 0.2736],
                  [0.3662, 0.6338], [0.4643, 0.5357]])


def example62_input():
    mac = WiretapMAC.from_marginals(WB_62, WE_62)
    return FactoredInput.independent(Dist.from_mass([0.6933, 0.3067]),
                                     Dist.from_mass([0.3151, 0.6849]), mac)


def point_mass(size, symbol):
    """The law putting all its mass on ``symbol``."""
    mass = np.zeros(size)
    mass[symbol] = 1.0
    return Dist.from_mass(mass)


def sequence_index(seq, size):
    """Lexicographic index of a sequence over {0..size-1}."""
    idx = 0
    for s in seq:
        idx = idx * size + int(s)
    return idx


def sequence_mass(sd, seq):
    """Mass of one sequence under a :class:`~wtmac.probkit.SequenceDist`."""
    return float(sd.mass[sequence_index(seq, sd.alphabet.size)])


def sequence_prob(law, seq, context=None):
    """Product probability of one sequence under an i.i.d. or conditional
    law."""
    seq = np.asarray(seq, dtype=np.int64)
    matrix, context, _ = _sequence_law(law, seq.shape[0], context)
    return float(np.prod(matrix[context, seq]))


def random_mac(rng, x=2, y=2, t=2, z=2, bob_quality=0.0):
    """Random MAC; bob_quality > 0 mixes Bob's marginal toward a clean channel."""
    rows_b = rng.dirichlet(np.ones(t), size=x * y)
    if bob_quality > 0:
        clean = np.eye(t)[rng.integers(0, t, size=x * y)]
        rows_b = (1 - bob_quality) * rows_b + bob_quality * clean
    rows_e = rng.dirichlet(np.ones(z), size=x * y)
    rows = np.einsum("it,iz->itz", rows_b, rows_e).reshape(x * y, t * z)
    return WiretapMAC.from_rows(rows, x, y, t, z)


def constant_eve_mac(rng, t=2):
    rows_b = rng.dirichlet(np.ones(t), size=4)
    rows_e = np.tile(rng.dirichlet(np.ones(2)), (4, 1))
    rows = np.einsum("it,iz->itz", rows_b, rows_e).reshape(4, -1)
    return WiretapMAC.from_rows(rows, 2, 2, t, 2)


def random_factored(rng, mac, u=2, v1=2, v2=2):
    return FactoredInput(
        Dist.from_mass(rng.dirichlet(np.ones(u))),
        Channel.from_matrix(rng.dirichlet(np.ones(v1), size=u)),
        Channel.from_matrix(rng.dirichlet(np.ones(v2), size=u)),
        Channel.from_matrix(rng.dirichlet(np.ones(mac.x_alphabet.size), size=v1)),
        Channel.from_matrix(rng.dirichlet(np.ones(mac.y_alphabet.size), size=v2)),
        mac,
    )


def sample_case1_profiles(rng, count, require_case2=False,
                          sufficient_randomness=False):
    """Random (profile, hc) pairs landing in Case 1 (optionally also Case 2).

    With ``sufficient_randomness`` the bound is drawn above both
    single-sender-plus-shared leakages, the regime where the Case-2
    time-sharing window is not throttled by the randomness budget (nesting
    of the case regions holds there; below it, it can genuinely fail).
    """
    out = []
    while len(out) < count:
        mac = random_mac(rng, bob_quality=rng.uniform(0.3, 0.9))
        p = random_factored(rng, mac)
        prof = info_profile(p)
        if prof.iz_v12 > prof.it_v12:
            continue
        compi = (prof.iz_v1_u <= prof.it_v1_v2u
                 and prof.iz_v2_u <= prof.it_v2_v1u
                 and prof.iz_v12_u <= prof.it_v1_v2u + prof.it_v2_v1u)
        if not compi:
            continue
        if require_case2:
            low = min(prof.iz_v1u, prof.iz_v2u)
            if sufficient_randomness:
                low = max(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-9 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-9, prof.iz_v12)
            cls = classify_profile(prof, hc).cases
            if CaseLabel.CASE1 in cls and CaseLabel.CASE2 in cls:
                out.append((prof, hc))
        else:
            hc = prof.iz_u + rng.uniform(1e-6, 1.0)
            if CaseLabel.CASE1 in classify_profile(prof, hc).cases:
                out.append((prof, hc))
    return out


def sample_case_profiles(rng, count, case, bob_quality=(0.3, 0.9)):
    """Random (profile, hc) pairs classifying into the requested case."""
    out = []
    while len(out) < count:
        mac = random_mac(rng, bob_quality=rng.uniform(*bob_quality))
        p = random_factored(rng, mac)
        prof = info_profile(p)
        if prof.iz_v12 > prof.it_v12:
            continue
        if case == CaseLabel.CASE3:
            hc = prof.iz_v12 + rng.uniform(1e-6, 0.5)
        elif case == CaseLabel.CASE2:
            low = min(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-9 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-9, prof.iz_v12)
        else:
            hc = prof.iz_u + rng.uniform(1e-6, 1.0)
        if case in classify_profile(prof, hc, u_independent=p.u_independent()).cases:
            out.append((prof, hc, p))
    return out


# ---------------------------------------------------------------------------
# Reference paths: one input, one polytope at a time
# ---------------------------------------------------------------------------

def reference_info_profile(p) -> InfoProfile:
    """The profile as 16 mutual informations of the 7-D joint: the
    reference for the batched profile kernel ``regions.info_profiles``."""
    j = p.joint if isinstance(p, FactoredInput) else p
    mi = mutual_information
    t, z, u, v1, v2 = {AX_T}, {AX_Z}, {AX_U}, {AX_V1}, {AX_V2}
    v12 = v1 | v2
    return InfoProfile(
        it_v1_v2u=mi(j, t, v1, v2 | u),
        it_v2_v1u=mi(j, t, v2, v1 | u),
        it_v12_u=mi(j, t, v12, u),
        it_v12=mi(j, t, v12),
        it_v1_u=mi(j, t, v1, u),
        it_v2_u=mi(j, t, v2, u),
        it_u=mi(j, t, u),
        iz_v1_v2u=mi(j, z, v1, v2 | u),
        iz_v2_v1u=mi(j, z, v2, v1 | u),
        iz_v12_u=mi(j, z, v12, u),
        iz_v12=mi(j, z, v12),
        iz_v1_u=mi(j, z, v1, u),
        iz_v2_u=mi(j, z, v2, u),
        iz_u=mi(j, z, u),
        iz_v1u=mi(j, z, v1 | u),
        iz_v2u=mi(j, z, v2 | u),
    )


def reference_case_j_values(chain, case, alpha):
    """Randomization-rate targets (j0, j1, j2) as seven mutual informations
    of the chain's (U, X, Y, T, Z) joint: the reference for
    ``codesim._case_j_values``, which reads them from the chain's profile."""
    # `|` below is set union: a union in the second argument makes a joint
    # group, a union in the third makes a joint conditioning
    z, ux, xx, yy = {4}, {0}, {1}, {2}

    def mi(a, b, cond=()):
        return mutual_information(chain.joint, a, b, cond)

    if case == CaseLabel.CASE3:
        return (mi(z, xx | yy), 0.0, 0.0)
    if case in (CaseLabel.CASE0, CaseLabel.CASE1):
        j1 = alpha * mi(z, xx, yy | ux) + (1 - alpha) * mi(z, xx, ux)
        j2 = alpha * mi(z, yy, ux) + (1 - alpha) * mi(z, yy, xx | ux)
        return (mi(z, ux), j1, j2)
    j0 = alpha * mi(z, yy | ux) + (1 - alpha) * mi(z, xx | ux)
    return (j0, alpha * mi(z, xx, yy | ux), (1 - alpha) * mi(z, yy, xx | ux))


def case2_sum_bound_min_form(prof, hc):
    """The min-form restatement of the Case-2 sum bound, as printed.

    Not an algebraic identity with the alpha-based sum bound: it replaces the
    nonemptiness entry of alpha0 with the R1-positivity entry of alpha1, so
    it can undershoot.  Kept for cross-checking; the emitted regions use the
    alpha-based bound.
    """
    a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
    if a < b:
        return case2_sum_bound_min_form(prof.swapped(), hc)
    third = (prof.it_v1_v2u * (b / a - 1.0) + prof.iz_v1_u) if a > 0 else math.inf
    return (prof.it_v12_u - prof.iz_v12_u
            + min(hc - prof.iz_u, prof.iz_v1_u, third))


def reference_vertices(poly, tol=1e-9):
    """Vertices by solving each active-constraint subset in turn: the
    reference for the stacked enumeration of ``regions.batch_vertices``."""
    rows = np.vstack([poly.coeffs, -np.eye(poly.dim)])
    vals = np.concatenate([poly.rhs, np.zeros(poly.dim)])
    found = []
    for combo in combinations(range(rows.shape[0]), poly.dim):
        a = rows[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, vals[list(combo)])
        if np.all(x >= -tol) and np.all(poly.coeffs @ x <= poly.rhs + tol):
            found.append(np.clip(x, 0.0, None))
    if not found:
        return np.zeros((0, poly.dim))
    pts = np.array(found)
    order = np.lexsort(pts.T)
    pts = pts[order]
    keep = [0]
    for i in range(1, pts.shape[0]):
        if np.max(np.abs(pts[i] - pts[keep[-1]])) > 1e-9:
            keep.append(i)
    return pts[keep]


def _reference_regions(p, mode, profile):
    prof = profile(p)
    out = []
    if isinstance(mode, optimizer.CommonMode):
        cases = classify_profile(prof, mode.hc, u_independent=p.u_independent()).cases
        for case in cases:
            try:
                out.append((case, region_common(prof, mode.hc, case,
                                                check_membership=False)))
            except PreconditionError:
                continue
    else:
        hc = mode.c1 + mode.c2
        for case in classify_profile(prof, hc).cases - {CaseLabel.CASE0}:
            try:
                out.append((case, region_conferencing(prof, mode.c1, mode.c2,
                                                      case, alpha_points=21)))
            except PreconditionError:
                continue
    return out


def _reference_case_vertices(p, mode, profile):
    for case, region in _reference_regions(p, mode, profile):
        if isinstance(region, RatePolytope):
            yield case, reference_vertices(region)
        else:
            yield case, np.vstack([reference_vertices(poly)
                                   for _, poly in region.pieces])


def _reference_best_along(p, mode, weights, profile):
    best = (0.0, None, None)
    for case, verts in _reference_case_vertices(p, mode, profile):
        if verts.shape[0] == 0:
            continue
        scores = verts @ weights
        idx = int(np.argmax(scores))
        if scores[idx] > best[0]:
            best = (float(scores[idx]), case, verts[idx])
    return best


def reference_search(mac, mode, cfg, profile=reference_info_profile):
    """The region search scoring one validated input at a time, each
    direction refined in turn: the reference for the batched search.
    Returns (points, cases, partial, evaluations)."""
    rng = np.random.default_rng(cfg.seed)
    par = optimizer._Parameterization(mac, cfg)
    dim = 3 if isinstance(mode, optimizer.CommonMode) else 2
    dirs = optimizer._directions(dim, cfg.directions, rng)
    evaluations = 0
    budget = cfg.max_evaluations if cfg.max_evaluations is not None else math.inf
    partial = False
    candidates = par.structured()
    for _ in range(cfg.restarts):
        candidates.append(par.random(rng))
    per_dir = [(-1.0, None)] * len(dirs)
    for params in candidates:
        if evaluations >= budget:
            partial = True
            break
        evaluations += 1
        vertex_sets = [verts for _, verts in
                       _reference_case_vertices(par.build(params), mode, profile)
                       if verts.shape[0]]
        if not vertex_sets:
            continue
        best_per_dir = (np.vstack(vertex_sets) @ dirs.T).max(axis=0)
        for d in range(len(dirs)):
            if best_per_dir[d] > per_dir[d][0]:
                per_dir[d] = (float(best_per_dir[d]), params)
    points = []
    for d, w in enumerate(dirs):
        score, params = per_dir[d]
        if params is None:
            continue
        step = optimizer.STEP_INIT
        for _ in range(cfg.refine_iters):
            if evaluations >= budget:
                partial = True
                break
            evaluations += 1
            trial = params + step * rng.standard_normal(par.length)
            t_score = _reference_best_along(par.build(trial), mode, w, profile)[0]
            if t_score > score:
                score, params = t_score, trial
            else:
                step *= optimizer.STEP_DECAY
        _, case, vert = _reference_best_along(par.build(params), mode, w, profile)
        if vert is not None:
            points.append((vert, case, params))
    certified = [(vert, case) for vert, case, params in points
                 if any(c == case and region.contains(vert, tol=1e-9)
                        for c, region in _reference_regions(par.build(params),
                                                            mode, profile))]
    cloud = (np.vstack([v for v, _ in certified]) if certified
             else np.zeros((1, dim)))
    cases = [c for _, c in certified] or [CaseLabel.CASE0]
    return cloud, cases, partial, evaluations


def reference_sample_typical(law, n, delta, rng, context=None):
    """The rejection sampler drawing each symbol with its own
    ``rng.choice``: the reference for ``probkit.sample_typical``'s
    inverse-CDF draws."""
    if context is None:
        rows = [law.mass] * n
    else:
        rows = [law.matrix[b] for b in context]
    for _ in range(100_000):
        seq = np.array([rng.choice(len(p), p=p) for p in rows], dtype=np.int64)
        if typical_membership(law, seq, delta, context):
            return seq
    raise DegenerateTypicalityError(f"no {delta}-typical draw")


def reference_mc_error(code, w_b=None, trials=2000, seed=0, decode_delta=None):
    """Monte Carlo error one trial at a time: draw an index tuple, draw each
    output symbol with ``rng.choice`` and decode the output alone.  The
    reference for ``average_error(mode="mc")``; returns the tuple and message
    error fractions and the drawn outputs."""
    delta = code.delta if decode_delta is None else decode_delta
    mac = code.chain.mac
    matrix = (w_b or mac.bob).matrix
    tuples = list(code.index_tuples())
    rng = np.random.default_rng(seed)
    hits = msg_hits = 0
    outputs = []
    for _ in range(trials):
        k, ls = tuples[rng.integers(0, len(tuples))]
        xseq, yseq = code.codeword_pair(k, ls)
        t_seq = np.array([rng.choice(matrix.shape[1],
                                     p=matrix[xi * mac.y_alphabet.size + yi])
                          for xi, yi in zip(xseq, yseq)], dtype=np.int64)
        outputs.append(t_seq)
        out = joint_typicality_decode(code, delta, t_seq)
        hits += out != (k, ls)
        msg_hits += out is None or out[0] != k
    return hits / trials, msg_hits / trials, np.array(outputs)


def reference_channel_row(matrix, xseq, yseq, y_size):
    """W^(x)n row over all output sequences for one input pair, one
    Kronecker factor per position."""
    row = np.ones(1)
    for xi, yi in zip(xseq, yseq):
        row = np.kron(row, matrix[xi * y_size + yi])
    return row


def reference_z_mask(ws, useq, yseq):
    """Typical output mask given (y, u) of a concentration workspace, its
    Z|(Y, U) law built one (y, u) row at a time."""
    we3 = ws.we.reshape(ws.nx, ws.ny, ws.nz)
    x_given_u = ws.chain.x_given_u.matrix
    rows = [x_given_u[u] @ we3[:, y, :]
            for y in range(ws.ny) for u in range(ws.nu)]
    ctx, _ = zip_sequences(yseq, useq, [ws.ny, ws.nu])
    return typical_mask(Channel.from_matrix(rows), 2 * ws.nx * ws.delta,
                        ws.n, ctx)


def reference_theta_uy(ws, useq, yseq):
    """The (u, y) reference measure one inner sequence x at a time, before
    its cut, and the typical output mask given (y, u): the reference for
    ``_Workspace.theta_uy``."""
    xs, xp = ws.typical_given(ws.chain.x_given_u, useq)
    zy = reference_z_mask(ws, useq, yseq)
    theta = np.zeros(ws.nz ** ws.n)
    for xseq, pxv in zip(xs, xp):
        row = reference_channel_row(ws.we, xseq, yseq, ws.ny)
        theta += pxv * row * (zy & (row <= ws.cap))
    return theta, zy


def reference_case3_theta(ws):
    """The Case-3 reference measure over every typical (u, y, x) triple, one
    per-pair row each (kept per pair, as the rows repeat across u), before
    its cut: the reference for ``_Workspace.theta_case3``."""
    theta = np.zeros(ws.nz ** ws.n)
    rows = {}
    for useq, pu in zip(*ws.typical_given(ws.chain.p_u)):
        xs, xp = ws.typical_given(ws.chain.x_given_u, useq)
        ys, yp = ws.typical_given(ws.chain.y_given_u, useq)
        for yseq, pyv in zip(ys, yp):
            for xseq, pxv in zip(xs, xp):
                key = (xseq.tobytes(), yseq.tobytes())
                if key not in rows:
                    rows[key] = reference_channel_row(ws.we, xseq, yseq, ws.ny)
                row = rows[key]
                e3 = ws.t_z_big_mask & (row <= ws.cap)
                theta += pu * pxv * pyv * row * e3
    return theta


def reference_pair_mean(ws, fam, a):
    """Average E0 row over the l1 x l2 pairs of shared index ``a``, one
    per-pair row and typical output mask at a time: the reference for
    ``_Workspace.pair_mean``."""
    _, l1, l2 = fam.l_sizes
    useq = fam.u[0, a]
    theta_hat_u, f2 = ws.theta_u(useq)
    mean = np.zeros_like(theta_hat_u)
    for b in range(l1):
        for c in range(l2):
            xseq = fam.x[0, a, 0, b]
            yseq = fam.y[0, a, 0, c]
            row = reference_channel_row(ws.we, xseq, yseq, ws.ny)
            _, f1 = ws.theta_uy(useq, yseq)[:2]
            e0 = reference_z_mask(ws, useq, yseq) & (row <= ws.cap) & f1 & f2
            mean += row * e0
    mean /= l1 * l2
    return mean, theta_hat_u


def reference_theta_u(ws, useq):
    """The per-u reference measure built from its own inner rows, one typical
    y at a time, before its cut, and the typical output mask given u: the
    reference for ``_Workspace.theta_u``."""
    xs, xp = ws.typical_given(ws.chain.x_given_u, useq)
    ys, yp = ws.typical_given(ws.chain.y_given_u, useq)
    theta = np.zeros(ws.nz ** ws.n)
    for yseq, pyv in zip(ys, yp):
        f1 = ws.theta_uy(useq, yseq)[1]
        rows = _channel_rows(ws.we, xs, yseq, ws.ny)
        theta += pyv * (xp @ (rows * (f1 & (rows <= ws.cap))))
    zmask = typical_mask(ws.z_given_u, 3 * ws.ny * ws.nx * ws.delta, ws.n,
                         np.asarray(useq, dtype=np.int64))
    return theta, zmask


# The Case-1/2 concentration checks one check at a time, each walking the
# resampled families again: the reference for ``concentration._pair_checks``.

def reference_pair_checks(ws, fams):
    l2 = fams[0].l_sizes[2]
    checks = [_pair_typicality_check(ws, fams), _mean_corridor_check(ws, fams)]
    if l2 == 1:
        checks.append(_outer_mean_check_case2(ws, fams))
    else:
        checks += [_joint_mean_check(ws, fams), _outer_mean_check_case1(ws, fams)]
    return checks


def _pair_typicality_check(ws, fams):
    """Fraction of inner sequences jointly typical with each partner sequence."""
    l0, l1, l2 = fams[0].l_sizes
    threshold = ws.typical_fraction_threshold(l1)
    failures = 0
    events = 0
    for fam in fams:
        for a in range(l0):
            for c in range(l2):
                good = ws.typical_count(fam.u[0, a], fam.x[0, a, 0],
                                        fam.y[0, a, 0, c])
                events += 1
                if good < threshold:
                    failures += 1
    return _check("typical-fraction (inner sequences vs partner)",
                  ws.star_bound(l1), failures / events, events)


def _mean_corridor_check(ws, fams):
    """Per-output concentration of the inner empirical channel average."""
    l0, l1, l2 = fams[0].l_sizes
    events = 0
    fail_by_z = np.zeros(ws.nz ** ws.n)
    for fam in fams:
        for a in range(l0):
            for c in range(l2):
                fail_by_z += _outside(*ws.inner_mean(fam.u[0, a], fam.x[0, a, 0],
                                                     fam.y[0, a, 0, c]), ws.eps)
                events += 1
    return _check("inner-mean corridor (per output sequence)",
                  min(2.0 * ws.tail(l1, ws.i_z_x_yu, 2.0), 1.0),
                  float(fail_by_z.max()) / events, events)


def _joint_mean_check(ws, fams):
    """Concentration of the pair-averaged output law around the per-u reference."""
    l0, l1, l2 = fams[0].l_sizes
    bound = min(2.0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * ws.tail(l2, ws.i_z_y_u, 4.0), 1.0)
    fail_by_z = np.zeros(ws.nz ** ws.n)
    events = 0
    for fam in fams:
        for a in range(l0):
            fail_by_z += _outside(*ws.pair_mean(fam, a), 3 * ws.eps)
            events += 1
    return _check("pair-mean corridor (per shared sequence)", bound,
                  float(fail_by_z.max()) / events, events)


def _family_means(ws, fams, mean_of, width):
    """Per family: the average over shared indices a of ``mean_of(fam, a)``'s
    means, the outputs where every one of them stays within ``width`` of its
    reference, and index 0's reference."""
    out = []
    for fam in fams:
        l0 = fam.l_sizes[0]
        total = np.zeros(ws.nz ** ws.n)
        ok = np.ones(ws.nz ** ws.n, dtype=bool)
        for a in range(l0):
            mean, ref = mean_of(fam, a)
            ok &= ~_outside(mean, ref, width)
            total += mean
            if a == 0:
                first = ref
        out.append((total / l0, ok, first))
    return out


def _outer_mean_check_case1(ws, fams):
    l0, l1, l2 = fams[0].l_sizes
    bound = min(2.0 * l0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * l0 * ws.tail(l2, ws.i_z_y_u, 4.0)
                + 2.0 * ws.tail(l0, ws.i_z_u, 4.0), 1.0)
    per_fam = _family_means(ws, fams, ws.pair_mean, 3 * ws.eps)
    return _estimated_reference_check(
        ws, per_fam, 1.0 / max(int(ws.t_z_big_mask.sum()), 1), 5 * ws.eps,
        "family-mean corridor (common index, estimated reference)", bound)


def _outer_mean_check_case2(ws, fams):
    l0, l1, _ = fams[0].l_sizes
    bound = min(2.0 * l0 * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * ws.tail(l0, ws.i_z_yu, 4.0), 1.0)
    per_fam = _family_means(
        ws, fams,
        lambda fam, a: ws.inner_mean(fam.u[0, a], fam.x[0, a, 0],
                                     fam.y[0, a, 0, 0]),
        ws.eps)
    return _estimated_reference_check(
        ws, per_fam, ws.eps / max(ws.t_z_plain, 1), 3 * ws.eps,
        "family-mean corridor (single partner, estimated reference)", bound)
