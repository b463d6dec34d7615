"""Shared generators for the test suite: channels, inputs, sampled profiles;
and the one-input-at-a-time reference paths the batched kernels are checked
against."""

import math
from itertools import combinations

import numpy as np

from wtmac import optimizer, probkit
from wtmac.casestudy import coupled_input
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
    _draw,
    _inverse_cdf,
    _sequence_law,
    _typical_rows,
    mutual_information,
    typical_mask,
    typical_membership,
    zip_sequences,
)
from wtmac.conferencing import CONF_COEFFS, CONF_NAMES
from wtmac.regions import (
    RATE_COEFFS,
    RATE_NAMES,
    CaseLabel,
    InfoProfile,
    RatePolytope,
    _alpha_grid,
    _case1_bounds,
    _scores,
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
    ``regions.randomization_rates``, which reads them from the chain's
    profile."""
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


def reference_elementary_region(prof, case, alpha):
    """The elementary region at a fixed alpha with each case's bounds written
    out by hand: the reference for ``regions.elementary_region``, which reads
    every case from one formula over ``randomization_rates``."""
    total = prof.it_v12 - prof.iz_v12
    if case in (CaseLabel.CASE0, CaseLabel.CASE1):
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
        a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
        return RatePolytope(
            3, RATE_COEFFS,
            np.array([prof.it_v1_v2u - alpha * a,
                      prof.it_v2_v1u - (1.0 - alpha) * b,
                      prof.it_v12_u - alpha * a - (1.0 - alpha) * b,
                      total]),
            RATE_NAMES)
    return RatePolytope(
        3, RATE_COEFFS,
        np.array([prof.it_v1_v2u, prof.it_v2_v1u, prof.it_v12_u, total]),
        RATE_NAMES)


def reference_elementary_conf_region(prof, case, alpha, beta, c1, c2):
    """The conferencing region at fixed alpha and beta with each case's piece
    written out by hand: the reference for
    ``conferencing.elementary_conf_region``.  Its Case-2 polytope keeps both
    sum rows, the conditional one and the total one; the library states
    their minimum."""
    total = prof.it_v12 - prof.iz_v12
    if case == CaseLabel.CASE1:
        j0 = prof.iz_u
        r1, r2 = _case1_bounds(prof)
        b1 = r1 - beta * j0 + c1
        b2 = r2 - (1.0 - beta) * j0 + c2
        s = min(prof.it_v12_u - prof.iz_v12_u - j0 + c1 + c2, total)
        return RatePolytope(2, CONF_COEFFS, np.array([b1, b2, s]), CONF_NAMES)
    if case == CaseLabel.CASE2:
        j0 = alpha * prof.iz_v2u + (1.0 - alpha) * prof.iz_v1u
        a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
        b1 = prof.it_v1_v2u - alpha * a + c1 - beta * j0
        b2 = prof.it_v2_v1u - (1.0 - alpha) * b + c2 - (1.0 - beta) * j0
        s1 = (prof.it_v12_u - alpha * a - (1.0 - alpha) * b
              + c1 + c2 - j0)
        return RatePolytope(
            2, np.array([[1, 0], [0, 1], [1, 1], [1, 1]], dtype=float),
            np.array([b1, b2, s1, total]),
            ("R1 bound", "R2 bound", "conditional sum bound", "total sum bound"))
    j0 = prof.iz_v12
    b1 = prof.it_v1_v2u + c1 - beta * j0
    b2 = prof.it_v2_v1u + c2 - (1.0 - beta) * j0
    s = min(prof.it_v12_u + c1 + c2 - j0, total)
    return RatePolytope(2, CONF_COEFFS, np.array([b1, b2, s]), CONF_NAMES)


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
    reference for the stacked enumeration of ``regions.stacked_vertices``."""
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


def reference_ray_points(rng, coeffs, rhs, count, dim=3):
    """One set of ray points of {x >= 0 : coeffs x <= rhs}: the reference
    for the stacked sets of ``regions._ray_points``."""
    dirs = np.abs(rng.standard_normal((count, dim))) + 1e-9
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj = dirs @ coeffs.T
    with np.errstate(divide="ignore"):
        limits = np.where(proj > 1e-15, rhs[None, :] / np.where(proj > 1e-15, proj, 1.0),
                          np.inf)
    t = np.min(limits, axis=1)
    t = np.where(np.isfinite(t), t, 1.0)
    scale = np.ones(count)
    half = count // 2
    scale[half:] = rng.uniform(0.0, 1.0, size=count - half)
    return np.clip(dirs * (t * scale)[:, None], 0.0, None)


def union_family(inst):
    """The union lemma's alpha-family (r, a, b), written out from its bounds:
    R1 <= r1 - alpha a1 - (1 - alpha) b1, R2 likewise, alpha-free sums."""
    return np.array([[inst["r1"], inst["r2"], inst["r12"] - inst["c"],
                      inst["r012"] - inst["d"]],
                     [inst["a1"], inst["a2"], 0.0, 0.0],
                     [inst["b1"], inst["b2"], 0.0, 0.0]])


def hull_family(inst):
    """The hull lemma's alpha-family (r, a, b): R1 pays alpha a, R2 pays
    (1 - alpha) b, and R1 + R2 pays both."""
    a, b = inst["a"], inst["b"]
    return np.array([[inst["r1"], inst["r2"], inst["r12"], inst["r012"] - inst["c"]],
                     [a, 0.0, a, 0.0],
                     [0.0, b, b, 0.0]])


def reference_alpha_windows(x_pts, family, alpha0, alpha1, tol):
    """Each point's alpha-window in turn, one row at a time: the reference
    for ``regions._alpha_windows``.  Row i reads
    (C x)_i <= r_i - alpha a_i - (1 - alpha) b_i + tol, a lower bound on
    alpha when b_i > a_i, an upper one when b_i < a_i, else a fixed test."""
    r, a, b = family
    alphas, hits = [], []
    for x in x_pts:
        s = RATE_COEFFS @ x
        lo, hi, feasible = alpha0, alpha1, True
        for i in range(len(r)):
            slope = b[i] - a[i]
            if slope == 0.0:
                feasible &= s[i] <= r[i] - a[i] + tol
            elif slope > 0:
                lo = max(lo, (s[i] - r[i] + b[i]) / slope - tol / slope)
            else:
                hi = min(hi, (s[i] - r[i] + b[i]) / slope - tol / slope)
        alpha = min(max(0.5 * (lo + hi), alpha0), alpha1)
        margin = r - alpha * a - (1.0 - alpha) * b - s
        alphas.append(float(alpha))
        hits.append(bool(feasible and lo <= hi and margin.min() >= -tol))
    return alphas, hits


def reference_union_cover(pts, inst, grid_step=1e-3, tol=1e-9):
    """The union verifier's K -> union pass as it was before the window
    kernel: a point is covered when its R1 and R2 bounds hold at some grid
    alpha, and an uncovered point is resolved by its hand-derived window.
    Returns the grid-covered mask and the counterexamples."""
    a1, a2, b1, b2 = (inst[k] for k in ("a1", "a2", "b1", "b2"))
    r1, r2, alpha0, alpha1 = (inst[k] for k in ("r1", "r2", "alpha0", "alpha1"))
    grid = _alpha_grid(alpha0, alpha1, grid_step)
    bound1 = r1 - grid * a1 - (1.0 - grid) * b1
    bound2 = r2 - grid * a2 - (1.0 - grid) * b2
    covered = np.any((pts[:, 1:2] <= bound1[None, :] + tol)
                     & (pts[:, 2:3] <= bound2[None, :] + tol), axis=1)
    misses = []
    for idx in np.nonzero(~covered)[0]:
        hi = (r1 - b1 - pts[idx, 1]) / (a1 - b1) + tol / (a1 - b1)
        lo = (pts[idx, 2] - r2 + b2) / (b2 - a2) - tol / (b2 - a2)
        if max(lo, alpha0) <= min(hi, alpha1):
            continue
        misses.append({"direction": "closed-form point not covered by any alpha",
                       "point": pts[idx].tolist()})
    return covered, misses


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
        scores = _scores(verts, weights)
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
        best_per_dir = _scores(np.vstack(vertex_sets)[:, None], dirs).max(axis=0)
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


def reference_draw_typical(law, n, delta, rng, context=None):
    """The per-proposal rejection loop: one inverse-CDF proposal and one
    membership test at a time.  Returns the sequence and the proposals it
    took: the reference for ``probkit.ProposalStreams``."""
    matrix, rows, _ = _sequence_law(law, n, context)
    cdf_rows = _inverse_cdf(matrix)[rows]
    for tries in range(1, probkit._MAX_TRIES + 1):
        seq = _draw(cdf_rows, rng)
        if typical_membership(law, seq, delta, context):
            return seq, tries
    raise DegenerateTypicalityError(
        f"no {delta}-typical draw in {probkit._MAX_TRIES} tries at "
        f"blocklength {n}")


def reference_codebook_family(chain, n, l_sizes, delta, seed,
                              k_sizes=(1, 1, 1)):
    """One family drawn a sequence at a time from its seed's generator (a u,
    then the x's and the y's under it), with the proposals drawn: the
    reference for ``codesim.sample_codebook_families``."""
    (k0, k1, k2), (l0, l1, l2) = k_sizes, l_sizes
    rng = np.random.default_rng(seed)
    u = np.empty((k0, l0, n), dtype=np.int64)
    x = np.empty((k0, l0, k1, l1, n), dtype=np.int64)
    y = np.empty((k0, l0, k2, l2, n), dtype=np.int64)
    proposals = 0
    for a0 in range(k0):
        for b0 in range(l0):
            u[a0, b0], tries = reference_draw_typical(chain.p_u, n, delta, rng)
            proposals += tries
            for out, law in ((x, chain.x_given_u), (y, chain.y_given_u)):
                for a in range(out.shape[2]):
                    for b in range(out.shape[3]):
                        out[a0, b0, a, b], tries = reference_draw_typical(
                            law, n, delta, rng, u[a0, b0])
                        proposals += tries
    return u, x, y, proposals


def reference_mc_error(code, trials=2000, seed=0):
    """Monte Carlo error one trial at a time: draw an index tuple, draw each
    output symbol with ``rng.choice`` and decode the output alone.  The
    reference for ``average_error(mode="mc")``; returns the tuple and message
    error fractions and the drawn outputs."""
    delta = code.delta
    mac = code.chain.mac
    matrix = mac.bob.matrix
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
    :func:`pair_mean`."""
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


# The per-call forms of the means ``concentration._pair_checks`` reads from
# its stacked row blocks and typicality test.

def typical_count(ws, useq, xs, yseq) -> int:
    """How many rows of ``xs`` are conditionally typical given (y, u)."""
    ctx, _ = zip_sequences(yseq, useq, [ws.ny, ws.nu])
    return int(_typical_rows(ws.x_given_yu.matrix, ctx, xs, ws.delta).sum())


def inner_mean(ws, useq, xs, yseq):
    """Average row of the inner sequences ``xs`` given (u, y), zeroed off
    E2 (probability-capped, on the support of the (u, y) reference, which
    lies inside the typical set given (y, u)), and that reference."""
    theta_hat, f1, _ = ws.theta_uy(useq, yseq)
    rows = _channel_rows(ws.we, xs, yseq, ws.ny)
    return (rows * (f1 & (rows <= ws.cap))).mean(axis=0), theta_hat


def pair_mean(ws, fam, a):
    """Average E0 row over the (x, y) pairs of shared index ``a`` and the
    per-u reference it concentrates around."""
    _, l1, l2 = fam.l_sizes
    useq = fam.u[0, a]
    theta_hat_u, f2 = ws.theta_u(useq)
    ys = fam.y[0, a, 0]
    f1 = np.array([ws.theta_uy(useq, yseq)[1] for yseq in ys])
    # pairs (b, c) in b-major order
    rows = _channel_rows(ws.we, np.repeat(fam.x[0, a, 0], l2, axis=0),
                         np.tile(ys, (l1, 1)), ws.ny)
    e0 = (rows <= ws.cap) & np.tile(f1, (l1, 1)) & f2
    return (rows * e0).sum(axis=0) / (l1 * l2), theta_hat_u


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


def reference_case3_checks(ws, fams, l0):
    """The Case-3 checks one family at a time, one typical count per pair:
    the reference for ``concentration._case3_checks``."""
    theta_hat, f3 = ws.theta_case3()
    threshold = ws.typical_fraction_threshold(l0)
    star_fail = 0
    fail_by_z = np.zeros(ws.nz ** ws.n)
    for fam in fams:
        us, xs, ys = fam.u[0], fam.x[0, :, 0, 0], fam.y[0, :, 0, 0]
        good = sum(typical_count(ws, useq, xseq[None, :], yseq)
                   for useq, xseq, yseq in zip(us, xs, ys))
        if good < threshold:
            star_fail += 1
        mean = ws.outer_rows(xs, ys).sum(axis=0) / l0
        fail_by_z += f3 & _outside(mean, theta_hat, ws.eps)
    events = len(fams)
    return [
        _check("typical-fraction (shared-index pairs)", ws.star_bound(l0),
               star_fail / events, events),
        _check("family-mean corridor (exact reference)",
               min(2.0 * ws.tail(l0, ws.i_z_xy, 2.0), 1.0),
               float(fail_by_z.max()) / events, events),
    ]


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
                good = typical_count(ws, fam.u[0, a], fam.x[0, a, 0],
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
                fail_by_z += _outside(*inner_mean(ws, fam.u[0, a], fam.x[0, a, 0],
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
            fail_by_z += _outside(*pair_mean(ws, fam, a), 3 * ws.eps)
            events += 1
    return _check("pair-mean corridor (per shared sequence)", bound,
                  float(fail_by_z.max()) / events, events)


def _family_means(ws, fams, mean_of, width):
    """Per family: the average over shared indices a of ``mean_of(fam, a)``'s
    means, the outputs where every one of them stays within ``width`` of its
    reference, and index 0's reference, each stacked over the families."""
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
    return map(np.array, zip(*out))


def _outer_mean_check_case1(ws, fams):
    l0, l1, l2 = fams[0].l_sizes
    bound = min(2.0 * l0 * ws.ny ** ws.n * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * l0 * ws.tail(l2, ws.i_z_y_u, 4.0)
                + 2.0 * ws.tail(l0, ws.i_z_u, 4.0), 1.0)
    means, ok, first = _family_means(
        ws, fams, lambda fam, a: pair_mean(ws, fam, a), 3 * ws.eps)
    return _estimated_reference_check(
        ws, means, ok, first, 1.0 / max(int(ws.t_z_big_mask.sum()), 1), 5 * ws.eps,
        "family-mean corridor (common index, estimated reference)", bound)


def _outer_mean_check_case2(ws, fams):
    l0, l1, _ = fams[0].l_sizes
    bound = min(2.0 * l0 * ws.tail(l1, ws.i_z_x_yu, 2.0)
                + 2.0 * ws.tail(l0, ws.i_z_yu, 4.0), 1.0)
    means, ok, first = _family_means(
        ws, fams,
        lambda fam, a: inner_mean(ws, fam.u[0, a], fam.x[0, a, 0],
                                  fam.y[0, a, 0, 0]),
        ws.eps)
    return _estimated_reference_check(
        ws, means, ok, first, ws.eps / max(ws.t_z_plain, 1), 3 * ws.eps,
        "family-mean corridor (single partner, estimated reference)", bound)


def _h2term(p):
    return 0.0 if p <= 0.0 else -p * math.log2(p / 2.0)


def eavesdropper_output_entropy(q, r):
    """H of the additive example's six-valued output under independent
    inputs (q, r), in closed form."""
    return (_h2term(q * (1 - r))
            + _h2term(q * r + (1 - q) * (1 - r))
            + _h2term((1 - q) * r))


def legitimate_output_entropy(q, r):
    """H of the additive example's ternary output under independent inputs
    (q, r), in closed form."""
    s1 = q * r + (1 - q) * (1 - r)
    s2 = q * r + q * (1 - r) + (1 - q) * r
    s3 = q * (1 - r) + (1 - q) * r + (1 - q) * (1 - r)
    return 0.5 * (_h2term(s1) + _h2term(s2) + _h2term(s3))


def _entropy_gap(mac, q, r):
    prof = info_profile(FactoredInput.independent(Dist.from_mass([q, 1 - q]),
                                                  Dist.from_mass([r, 1 - r]), mac))
    return prof.iz_v12 - prof.it_v12


def reference_conferencing_helps(mac, rng, tol, grid=7, step=1e-3):
    """The conferencing-helps predicate one input at a time, with central
    second differences of the gap in place of its exact curvatures: the
    reference for ``casestudy._conferencing_helps``."""
    # the eavesdropper must beat every independent input, including ones fed
    # through per-sender auxiliaries: that is concavity of the information
    # gap in each input bias (mixtures never flip the sign), checked here by
    # central second differences on an interior grid, plus pointwise
    # positivity of the gap itself...
    qs = np.linspace(0.1, 0.9, grid)
    min_gap = math.inf
    max_d2 = -math.inf
    for q in qs:
        for r in qs:
            gap = _entropy_gap(mac, q, r)
            min_gap = min(min_gap, gap)
            if gap < tol:
                return None
            d2q = (_entropy_gap(mac, q + step, r) - 2 * gap
                   + _entropy_gap(mac, q - step, r)) / step ** 2
            d2r = (_entropy_gap(mac, q, r + step) - 2 * gap
                   + _entropy_gap(mac, q, r - step)) / step ** 2
            max_d2 = max(max_d2, d2q, d2r)
            if max_d2 >= -tol:
                return None
    # ... while some coupled input flips the sign
    couplings = [0.5, 0.3, 0.7] + list(rng.uniform(0.1, 0.9, size=3))
    for p0 in couplings:
        prof = info_profile(coupled_input(mac, p0))
        advantage = prof.it_v12 - prof.iz_v12
        if advantage > tol:
            return {
                "independent_min_gap": float(min_gap),
                "max_second_difference": float(max_d2),
                "independent_grid": int(grid),
                "coupling_p0": float(p0),
                "coupled_advantage": float(advantage),
            }
    return None
