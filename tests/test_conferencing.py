import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    constant_eve_mac,
    example62_input,
    random_factored,
    random_mac,
    reference_elementary_conf_region,
    sample_case_profiles,
)
from wtmac.conferencing import (
    CONF_COEFFS,
    CONF_NAMES,
    ConferencingCapacities,
    ConferencingRegion,
    beta_bounds,
    build_conference,
    elementary_conf_region,
    j0_alpha,
    rate_split,
    region_conferencing,
)
from wtmac.errors import (
    CardinalityOverflowError,
    PreconditionError,
    ReductionInfeasibleError,
    ValidationError,
)
from wtmac.regions import (
    CaseLabel,
    RatePolytope,
    _pos,
    alpha_bounds_case2,
    info_profile,
    region_common,
)


class TestJ0:
    def test_case1_trivial_u(self):
        rng = np.random.default_rng(0)
        prof = info_profile(random_factored(rng, random_mac(rng), u=1))
        assert j0_alpha(prof, CaseLabel.CASE1) == pytest.approx(0.0, abs=1e-10)

    def test_case2_endpoint(self):
        rng = np.random.default_rng(1)
        prof = info_profile(random_factored(rng, random_mac(rng)))
        assert j0_alpha(prof, CaseLabel.CASE2, 1.0) == prof.iz_v2u
        assert j0_alpha(prof, CaseLabel.CASE2, 0.0) == prof.iz_v1u

    def test_case3_worked_example(self):
        prof = info_profile(example62_input())
        assert j0_alpha(prof, CaseLabel.CASE3) == pytest.approx(0.2147, abs=1e-3)

    def test_case0_rejected(self):
        prof = info_profile(example62_input())
        with pytest.raises(PreconditionError):
            j0_alpha(prof, CaseLabel.CASE0)


class TestBetaBounds:
    def test_slack_capacities(self):
        rng = np.random.default_rng(2)
        prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE3)[0]
        j0 = prof.iz_v12
        caps = ConferencingCapacities(j0 + 0.5, j0 + 0.5)
        bb = beta_bounds(prof, CaseLabel.CASE3, 0.0, caps)
        assert (bb.beta0, bb.beta1) == (0.0, 1.0)

    def test_one_sided_capacity(self):
        rng = np.random.default_rng(3)
        prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE3)[0]
        j0 = prof.iz_v12
        bb = beta_bounds(prof, CaseLabel.CASE3, 0.0,
                         ConferencingCapacities(j0 + 0.1, 0.0))
        assert (bb.beta0, bb.beta1) == (1.0, 1.0)

    def test_interval_nonempty_below_total(self):
        rng = np.random.default_rng(4)
        for prof, hc, _ in sample_case_profiles(rng, 20, CaseLabel.CASE3):
            j0 = prof.iz_v12
            if j0 == 0:
                continue
            c1 = rng.uniform(0.0, j0)
            c2 = j0 - c1 + rng.uniform(1e-9, 0.5)
            bb = beta_bounds(prof, CaseLabel.CASE3, 0.0,
                             ConferencingCapacities(c1, c2))
            assert bb.beta0 <= bb.beta1 + 1e-12

    def test_zero_cost_flagged(self):
        rng = np.random.default_rng(5)
        prof = info_profile(random_factored(rng, constant_eve_mac(rng)))
        bb = beta_bounds(prof, CaseLabel.CASE3, 0.0, ConferencingCapacities(0.1, 0.1))
        assert bb.unconstrained


class TestRegions:
    def test_huge_capacities_sum_bound(self):
        rng = np.random.default_rng(6)
        prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE3)[0]
        region = region_conferencing(prof, 10.0, 10.0, CaseLabel.CASE3)
        sum_row = np.where((region.polytope.coeffs == [1, 1]).all(axis=1))[0][0]
        assert region.polytope.rhs[sum_row] == pytest.approx(
            prof.it_v12 - prof.iz_v12, abs=1e-12)

    def test_constant_eve_loses_penalties(self):
        rng = np.random.default_rng(7)
        p = random_factored(rng, constant_eve_mac(rng))
        prof = info_profile(p)
        region = region_conferencing(prof, 0.15, 0.25, CaseLabel.CASE3)
        rhs = region.polytope.rhs
        assert rhs[0] == pytest.approx(prof.it_v1_v2u + 0.15, abs=1e-10)
        assert rhs[1] == pytest.approx(prof.it_v2_v1u + 0.25, abs=1e-10)

    def test_gate_enforced(self):
        prof = info_profile(example62_input())
        # H_C = C1 + C2 below I(Z^V1V2) = 0.2147 rules Case 3 out
        with pytest.raises(PreconditionError):
            region_conferencing(prof, 0.05, 0.05, CaseLabel.CASE3)

    def test_elementary_beta_endpoint_kills_gain(self):
        rng = np.random.default_rng(8)
        for prof, hc, _ in sample_case_profiles(rng, 5, CaseLabel.CASE3):
            j0 = prof.iz_v12
            if j0 < 1e-6:
                continue
            c1 = rng.uniform(0.1, 0.9) * j0
            c2 = j0  # beta1 = c1/j0 < 1
            beta1 = c1 / j0
            poly = elementary_conf_region(prof, CaseLabel.CASE3, 0.0, beta1, c1, c2)
            assert poly.rhs[0] == pytest.approx(prof.it_v1_v2u, abs=1e-10)

    def test_beta_union_rebuilds_case3_region(self):
        rng = np.random.default_rng(9)
        for prof, hc, _ in sample_case_profiles(rng, 10, CaseLabel.CASE3):
            j0 = prof.iz_v12
            if j0 < 1e-6:
                continue
            c1 = rng.uniform(0.2, 1.2) * j0
            c2 = max(j0 - c1, 0.0) + rng.uniform(0.05, 0.5) * j0
            region = region_conferencing(prof, c1, c2, CaseLabel.CASE3,
                                         check_membership=False)
            bb = beta_bounds(prof, CaseLabel.CASE3, 0.0,
                             ConferencingCapacities(c1, c2))
            # every sampled region point admits a feasible beta (exact interval)
            base1 = prof.it_v1_v2u + c1
            base2 = prof.it_v2_v1u + c2
            for point in region.polytope.sample(rng, 30):
                hi = min(bb.beta1, (base1 - point[0]) / j0 + 1e-9 / j0)
                lo = max(bb.beta0, 1.0 - (base2 - point[1]) / j0 - 1e-9 / j0)
                assert lo <= hi + 1e-12
            # and every elementary region stays inside
            for beta in np.linspace(bb.beta0, bb.beta1, 7):
                sub = elementary_conf_region(prof, CaseLabel.CASE3, 0.0,
                                             beta, c1, c2)
                for point in sub.sample(rng, 10):
                    assert region.contains(point, tol=1e-9)

    def test_beta_union_rebuilds_case1_region(self):
        rng = np.random.default_rng(10)
        for prof, hc, _ in sample_case_profiles(rng, 10, CaseLabel.CASE1):
            j0 = prof.iz_u
            if j0 < 1e-6:
                continue
            c1 = rng.uniform(0.2, 1.2) * j0
            c2 = max(j0 - c1, 0.0) + rng.uniform(0.05, 0.5) * j0
            region = region_conferencing(prof, c1, c2, CaseLabel.CASE1,
                                         check_membership=False)
            bb = beta_bounds(prof, CaseLabel.CASE1, 0.0,
                             ConferencingCapacities(c1, c2))
            rhs = region.polytope.rhs
            base1 = rhs[0] + (c1 - bb.beta0 * j0) - c1 + bb.beta0 * j0  # rhs at beta0
            for beta in np.linspace(bb.beta0, bb.beta1, 7):
                sub = elementary_conf_region(prof, CaseLabel.CASE1, 0.0,
                                             beta, c1, c2)
                for point in sub.sample(rng, 10):
                    assert region.contains(point, tol=1e-9)

    def test_zero_capacity_matches_common_message_bounds(self):
        # with no conferencing at all and a trivial U, the Case-1 formulas
        # collapse to the zero-randomness bounds
        rng = np.random.default_rng(11)
        p = random_factored(rng, random_mac(rng, bob_quality=0.8), u=1)
        prof = info_profile(p)
        region = region_conferencing(prof, 0.0, 0.0, CaseLabel.CASE1,
                                     check_membership=False)
        common = region_common(prof, 0.0, CaseLabel.CASE0, check_membership=False,
                               u_independent=True)
        # common is over (R0,R1,R2) with R0 = 0; compare the projections
        r1_row = np.where((common.coeffs == [0, 1, 0]).all(axis=1))[0][0]
        assert region.polytope.rhs[0] == pytest.approx(common.rhs[r1_row], abs=1e-10)

    def test_case2_union_region(self):
        rng = np.random.default_rng(12)
        found = 0
        while found < 3:
            prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE2)[0]
            if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) < 1e-6:
                continue
            found += 1
            c1 = hc / 2
            c2 = hc - c1
            region = region_conferencing(prof, c1, c2, CaseLabel.CASE2,
                                         alpha_points=21)
            assert len(region.pieces) == 21
            assert region.hull_points.shape[0] >= 3
            for alpha, poly in region.pieces[::5]:
                for point in poly.sample(rng, 5):
                    assert region.contains(point, tol=1e-9)
            for weights in ((1.0, 1.0), (0.3, 1.0), (1.0, 0.0)):
                assert region.max_weighted(weights) == max(
                    poly.max_weighted(weights) for _, poly in region.pieces)

    @pytest.mark.parametrize("case", [CaseLabel.CASE1, CaseLabel.CASE3])
    def test_single_piece_hull_walks_counterclockwise(self, case):
        # one hull path for every case: a single piece's hull points are its
        # vertices to 12 decimals, counterclockwise from the lexicographic
        # minimum, as a Case-2 union's are
        for prof, hc, _ in sample_case_profiles(np.random.default_rng(3), 20,
                                                case):
            for c1 in (hc / 4, hc / 2):
                region = region_conferencing(prof, c1, hc - c1, case)
                pts = region.hull_points
                verts = np.unique(np.round(region.polytope.vertices(), 12),
                                  axis=0)
                assert sorted(map(tuple, pts)) == list(map(tuple, verts))
                assert tuple(pts[0]) == tuple(verts[0])
                edges = np.roll(pts, -1, axis=0) - pts
                after = np.roll(edges, -1, axis=0)
                turns = edges[:, 0] * after[:, 1] - edges[:, 1] * after[:, 0]
                assert len(pts) < 3 or (turns > 0).all()

    def test_union_maximum_refuses_an_empty_piece(self):
        pieces = tuple((alpha, RatePolytope(2, CONF_COEFFS, np.array(rhs), CONF_NAMES))
                       for alpha, rhs in ((0.0, [1.0, 1.0, 1.5]), (1.0, [-0.5, 1.0, 1.0])))
        region = ConferencingRegion(CaseLabel.CASE2, pieces)
        with pytest.raises(PreconditionError, match="empty"):
            region.max_weighted((1.0, 1.0))

    def test_region_json(self):
        rng = np.random.default_rng(13)
        prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE3)[0]
        region = region_conferencing(prof, 0.4, 0.4, CaseLabel.CASE3,
                                     check_membership=False)
        obj = region.to_json_dict()
        assert obj["case"] == 3 and obj["pieces"]

    def test_huge_capacities_reach_secrecy_capacity(self):
        # with unconstrained links the best conferencing sum rate over the
        # searched inputs meets the combined-sender secrecy capacity estimate
        from wtmac.casestudy import coupled_input, discussion_channels
        from wtmac.optimizer import SearchConfig, single_sender_secrecy_capacity

        mac = discussion_channels()
        prof = info_profile(coupled_input(mac, 0.5))
        region = region_conferencing(prof, 10.0, 10.0, CaseLabel.CASE3)
        best_sum = region.polytope.max_weighted((1.0, 1.0))
        cap = single_sender_secrecy_capacity(
            mac, SearchConfig(restarts=20, refine_iters=10, seed=5, u_size=2))
        assert best_sum == pytest.approx(cap, abs=1e-6)

    def test_additive_example_coupled_input(self):
        # On the additive example channels with the coupled uniform input the
        # whole region is boxed by the link capacities: with generous links
        # nearly the full half-bit sum survives, with tiny links only a
        # strictly positive sliver does (the sum is capped at C1 + C2).
        from wtmac.casestudy import coupled_input, discussion_channels

        prof = info_profile(coupled_input(discussion_channels(), 0.5))
        big = region_conferencing(prof, 0.25, 0.25, CaseLabel.CASE3)
        assert big.polytope.contains((0.25, 0.24), tol=1e-9)  # sum 0.49
        tiny = region_conferencing(prof, 0.01, 0.01, CaseLabel.CASE3)
        assert tiny.polytope.contains((0.009, 0.009), tol=1e-12)
        assert tiny.polytope.max_weighted((1.0, 1.0)) <= 0.02 + 1e-12


def reference_conf_pieces(prof, c1, c2, case, alpha_points):
    """(alpha, rhs) of every conferencing piece, with one formula per case:
    the reference for the single piece formula of ``region_conferencing``."""
    if case == CaseLabel.CASE1:
        b1 = (prof.it_v1_v2u - prof.iz_v1_u
              - _pos(prof.iz_v2_v1u - prof.it_v2_v1u)
              + c1 - _pos(prof.iz_u - c2))
        b2 = (prof.it_v2_v1u - prof.iz_v2_u
              - _pos(prof.iz_v1_v2u - prof.it_v1_v2u)
              + c2 - _pos(prof.iz_u - c1))
        s = min(prof.it_v12_u + c1 + c2, prof.it_v12) - prof.iz_v12
        return [(None, [b1, b2, s])]
    if case == CaseLabel.CASE3:
        j0 = prof.iz_v12
        b1 = prof.it_v1_v2u + c1 - _pos(j0 - c2)
        b2 = prof.it_v2_v1u + c2 - _pos(j0 - c1)
        s = min(prof.it_v12_u + c1 + c2, prof.it_v12) - prof.iz_v12
        return [(None, [b1, b2, s])]
    ab = alpha_bounds_case2(prof, c1 + c2)
    alphas = ([0.0] if ab.degenerate
              else np.linspace(ab.alpha0, ab.alpha1, alpha_points))
    out = []
    for alpha in alphas:
        j0 = alpha * prof.iz_v2u + (1.0 - alpha) * prof.iz_v1u
        a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
        b1 = prof.it_v1_v2u - alpha * a + c1 - _pos(j0 - c2)
        b2 = prof.it_v2_v1u - (1.0 - alpha) * b + c2 - _pos(j0 - c1)
        s1 = min(prof.it_v12_u + c1 + c2, prof.it_v12) - prof.iz_v12
        out.append((float(alpha), [b1, b2, s1]))
    return out


class TestPieceFormula:
    def test_matches_per_case_reference(self):
        rng = np.random.default_rng(30)
        compared = {case: 0 for case in (1, 2, 3)}
        for _ in range(60):
            mac = random_mac(rng, bob_quality=rng.uniform(0.0, 0.9))
            prof = info_profile(random_factored(rng, mac,
                                                u=int(rng.integers(1, 4))))
            top = max(prof.iz_v12, 1e-3)
            c1, c2 = rng.uniform(0.0, top, size=2)
            points = int(rng.integers(1, 30))
            for case in (CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3):
                try:
                    region = region_conferencing(prof, c1, c2, case,
                                                 alpha_points=points,
                                                 check_membership=False)
                except PreconditionError:
                    ab = alpha_bounds_case2(prof, c1 + c2)
                    assert case == CaseLabel.CASE2 and ab.alpha0 > ab.alpha1
                    continue
                want = reference_conf_pieces(prof, c1, c2, case, points)
                assert [a for a, _ in region.pieces] == [a for a, _ in want]
                for (_, poly), (_, rhs) in zip(region.pieces, want):
                    assert poly.rhs.tolist() == rhs
                compared[case] += len(want)
        assert min(compared.values()) >= 50, compared

    @pytest.mark.parametrize("points", [0, -1])
    def test_alpha_points_below_one_rejected(self, points):
        prof = info_profile(example62_input())
        for case in (CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3):
            with pytest.raises(ValidationError, match="alpha_points"):
                region_conferencing(prof, 0.2, 0.2, case, alpha_points=points,
                                    check_membership=False)


class TestElementaryConfRegion:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([CaseLabel.CASE1, CaseLabel.CASE2, CaseLabel.CASE3]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_matches_per_case_reference(self, seed, case, alpha, beta, c1, c2):
        # The reference keeps Case 2's conditional and total sum rows; the
        # library's one sum row is their minimum (by the chain rule, the
        # conditional row is I(T;V1V2|U) + C1 + C2 - I(Z;V1V2)).
        rng = np.random.default_rng(seed)
        mac = random_mac(rng, bob_quality=rng.uniform(0.0, 0.9))
        prof = info_profile(random_factored(rng, mac, u=int(rng.integers(1, 4))))
        got = elementary_conf_region(prof, case, alpha, beta, c1, c2,
                                     check_range=False)
        want = reference_elementary_conf_region(prof, case, alpha, beta, c1, c2)
        want_rhs = want.rhs
        if case == CaseLabel.CASE2:
            want_rhs = [*want.rhs[:2], min(want.rhs[2:])]
        assert got.names == CONF_NAMES
        assert np.max(np.abs(got.rhs - want_rhs)) <= 1e-12, (got.rhs, want_rhs)


class TestRateSplit:
    def test_small_r1_goes_fully_common(self):
        rng = np.random.default_rng(14)
        for prof, hc, _ in sample_case_profiles(rng, 5, CaseLabel.CASE3):
            j0 = prof.iz_v12
            c1, c2 = j0 + 0.3, j0 + 0.3
            beta = 0.5
            cap1 = c1 - beta * j0
            r1 = cap1 / 2
            piece = elementary_conf_region(prof, CaseLabel.CASE3, 0.0, beta, c1, c2)
            if not piece.contains((r1, 0.0)):
                continue
            split = rate_split(r1, 0.0, prof, CaseLabel.CASE3, 0.0, beta, c1, c2)
            assert split.r0_share1 == pytest.approx(r1, abs=1e-12)
            assert split.r1 == pytest.approx(0.0, abs=1e-12)

    def test_no_conference_identity_split(self):
        rng = np.random.default_rng(15)
        p = random_factored(rng, constant_eve_mac(rng), u=1)
        prof = info_profile(p)
        piece = elementary_conf_region(prof, CaseLabel.CASE3, 0.0, 0.5, 0.0, 0.0)
        point = piece.sample(rng, 1)[0]
        split = rate_split(point[0], point[1], prof, CaseLabel.CASE3,
                           0.0, 0.5, 0.0, 0.0)
        assert split.r0 == 0.0
        assert split.r1 == pytest.approx(point[0], abs=1e-12)
        assert split.r2 == pytest.approx(point[1], abs=1e-12)

    def test_constructive_tuples_pass_membership(self):
        # forward-generate feasible tuples from common-message triples plus
        # link allocations; the canonical split must land back inside
        rng = np.random.default_rng(16)
        count = 0
        for prof, hc, _ in sample_case_profiles(rng, 40, CaseLabel.CASE3):
            j0 = prof.iz_v12
            c1 = rng.uniform(0.2, 1.5) * max(j0, 0.05)
            c2 = max(j0 - c1, 0.0) + rng.uniform(0.05, 0.6) * max(j0, 0.05)
            caps = ConferencingCapacities(c1, c2)
            bb = beta_bounds(prof, CaseLabel.CASE3, 0.0, caps)
            beta = rng.uniform(bb.beta0, bb.beta1)
            cap1 = max(c1 - beta * j0, 0.0)
            cap2 = max(c2 - (1 - beta) * j0, 0.0)
            target = region_common(prof, c1 + c2, CaseLabel.CASE3,
                                   check_membership=False)
            triple = target.sample(rng, 1)[0]
            rho1 = min(rng.uniform(0, 1) * triple[0], cap1)
            rho2 = min(triple[0] - rho1, cap2)
            if rho1 + rho2 < triple[0] - 1e-12:
                continue  # allocation cannot carry the whole common part
            r1, r2 = triple[1] + rho1, triple[2] + rho2
            split = rate_split(r1, r2, prof, CaseLabel.CASE3, 0.0, beta, c1, c2)
            assert target.contains(split.triple, tol=1e-9)
            count += 1
        assert count >= 20

    def test_reduction_infeasible_reports_constraint(self):
        # a corner of the elementary conferencing region that the canonical
        # split cannot serve: R2 at its per-user cap with the sum bound of the
        # common-message region binding
        rng = np.random.default_rng(17)
        hit = False
        for prof, hc, _ in sample_case_profiles(rng, 200, CaseLabel.CASE1):
            j0 = prof.iz_u
            if j0 < 1e-4:
                continue
            c1, c2 = 2.0, 0.05 * j0
            caps = ConferencingCapacities(c1, c2)
            bb = beta_bounds(prof, CaseLabel.CASE1, 0.0, caps)
            beta = bb.beta0
            piece = elementary_conf_region(prof, CaseLabel.CASE1, 0.0, beta, c1, c2)
            r2_cap = piece.rhs[1]
            point = (0.0, min(r2_cap, piece.rhs[2]) - 1e-9)
            if point[1] <= 0 or not piece.contains(point):
                continue
            try:
                rate_split(point[0], point[1], prof, CaseLabel.CASE1,
                           0.0, beta, c1, c2)
            except ReductionInfeasibleError as exc:
                assert exc.violation
                hit = True
                break
        # the flaw regime exists; recording it is part of the contract
        assert hit


class TestBuildConference:
    def test_trivial(self):
        conf = build_conference(1, 1, 1, 0.5, 0.5, 0.5, 4)
        assert conf.j1_size == 1 and conf.j2_size == 1

    def test_beta_one_all_randomness_left(self):
        conf = build_conference(2, 2, 8, 1.0, 2.0, 1.0, 4)
        assert conf.l0_part1 == 8 and conf.l0_part2 == 1

    def test_product_at_least_pool(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            l0 = int(rng.integers(1, 64))
            beta = rng.uniform(0, 1)
            conf = build_conference(1, 1, l0, beta, 3.0, 3.0, 4)
            assert conf.l0_part1 * conf.l0_part2 >= l0
            if l0 > 1:
                assert conf.realized_beta == pytest.approx(
                    math.log2(conf.l0_part1) / math.log2(l0), abs=1e-12)

    def test_marginal_factorization(self):
        conf = build_conference(3, 2, 6, 0.4, 2.0, 2.0, 3)
        for m1 in range(3):
            for m2 in range(2):
                joint = conf.joint(m1, m2).reshape(conf.j1_size, conf.j2_size)
                outer = np.outer(conf.link1[m1], conf.link2[m2])
                assert np.allclose(joint, outer, atol=0)
                assert joint.sum() == pytest.approx(1.0, abs=1e-12)

    def test_capacity_constraint_exact(self):
        conf = build_conference(2, 2, 4, 0.5, 1.5, 1.5, 2)
        rate1, rate2 = conf.rate_per_use()
        assert rate1 <= 1.5 and rate2 <= 1.5

    def test_overflow_names_side(self):
        with pytest.raises(CardinalityOverflowError, match="link 2"):
            build_conference(1, 8, 4, 0.0, 2.0, 0.5, 2)


class TestSerialization:
    def test_conference_json(self):
        conf = build_conference(2, 3, 6, 0.4, 2.0, 2.0, 3)
        obj = conf.to_json_dict()
        assert obj["j_sizes"] == [conf.j1_size, conf.j2_size]
        assert len(obj["link1"]) == 2 and len(obj["link2"]) == 3
        assert obj["iterations"] == 1

    def test_rate_split_fields(self):
        rng = np.random.default_rng(19)
        prof, hc, _ = sample_case_profiles(rng, 1, CaseLabel.CASE3)[0]
        j0 = prof.iz_v12
        c1 = c2 = j0 + 0.2
        piece = elementary_conf_region(prof, CaseLabel.CASE3, 0.0, 0.5, c1, c2)
        pt = piece.sample(rng, 1)[0] * 0.8
        split = rate_split(pt[0], pt[1], prof, CaseLabel.CASE3, 0.0, 0.5,
                           c1, c2)
        assert split.r0 == pytest.approx(split.r0_share1 + split.r0_share2)
        assert split.triple == (split.r0, split.r1, split.r2)
