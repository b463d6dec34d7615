import numpy as np
import pytest

from _support import (
    constant_eve_mac,
    random_mac,
    reference_info_profile,
    reference_search,
)
from wtmac.errors import ValidationError
from wtmac.optimizer import (
    CommonMode,
    ConferencingMode,
    SearchConfig,
    achievable_region_estimate,
    prefix_channel,
    single_sender_secrecy_capacity,
)
from wtmac.casestudy import example62_channels
from wtmac.probkit import Channel, Dist, FactoredInput, WiretapMAC
from wtmac.regions import info_profile, region_common


class TestPrefixChannel:
    def test_identity_prefixes(self):
        rng = np.random.default_rng(0)
        mac = random_mac(rng)
        same = prefix_channel(mac, Channel.identity(2), Channel.identity(2))
        assert np.allclose(same.channel.matrix, mac.channel.matrix, atol=1e-15)

    def test_constant_prefixes_flatten(self):
        rng = np.random.default_rng(1)
        mac = random_mac(rng)
        const = Channel.constant(2, Dist.from_mass([0.5, 0.5]))
        flat = prefix_channel(mac, const, const)
        assert np.allclose(flat.channel.matrix, flat.channel.matrix[0], atol=1e-12)

    def test_rows_stochastic(self):
        rng = np.random.default_rng(2)
        mac = random_mac(rng, t=3, z=2)
        pre1 = Channel.from_matrix(rng.dirichlet([1, 1], size=3))
        pre2 = Channel.from_matrix(rng.dirichlet([1, 1], size=2))
        out = prefix_channel(mac, pre1, pre2)
        assert np.allclose(out.channel.matrix.sum(axis=1), 1.0, atol=1e-12)
        assert out.x_alphabet.size == 3

    def test_composition_associative(self):
        rng = np.random.default_rng(3)
        mac = random_mac(rng)
        a1 = Channel.from_matrix(rng.dirichlet([1, 1], size=2))
        a2 = Channel.from_matrix(rng.dirichlet([1, 1], size=2))
        b1 = Channel.from_matrix(rng.dirichlet([1, 1], size=2))
        b2 = Channel.from_matrix(rng.dirichlet([1, 1], size=2))
        two_step = prefix_channel(prefix_channel(mac, a1, a2), b1, b2)
        composed = prefix_channel(mac, a1.compose(b1), a2.compose(b2))
        assert np.allclose(two_step.channel.matrix, composed.channel.matrix,
                           atol=1e-12)


class TestRegionEstimate:
    def test_constant_eve_sum_rate_matches_grid_oracle(self):
        # with a blind eavesdropper the best sum rate is the best legitimate
        # sum information; oracle = exhaustive grid over independent inputs
        rng = np.random.default_rng(4)
        mac = constant_eve_mac(rng, t=4)
        cfg = SearchConfig(restarts=40, refine_iters=30, directions=8, seed=5,
                           u_size=2)
        est = achievable_region_estimate(mac, CommonMode(0.3), cfg)
        from wtmac.probkit import AX_T, AX_X, AX_Y, mutual_information
        best = 0.0
        for q in np.linspace(0, 1, 21):
            for r in np.linspace(0, 1, 21):
                p = FactoredInput.independent(Dist.from_mass([q, 1 - q]),
                                              Dist.from_mass([r, 1 - r]), mac)
                best = max(best, mutual_information(p.joint, {AX_T}, {AX_X, AX_Y}))
        assert est.max_sum_rate() >= best - 2e-3

    def test_points_certified(self):
        rng = np.random.default_rng(6)
        mac = random_mac(rng, bob_quality=0.7)
        cfg = SearchConfig(restarts=15, refine_iters=10, directions=6, seed=7)
        est = achievable_region_estimate(mac, CommonMode(0.4), cfg)
        for rates, case, gen in zip(est.points, est.cases, est.generators):
            if not np.any(rates):
                continue
            prof = info_profile(gen)
            poly = region_common(prof, 0.4, case, check_membership=False)
            assert poly.contains(rates, tol=1e-9)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(8)
        mac = random_mac(rng, bob_quality=0.5)
        cfg = SearchConfig(restarts=10, refine_iters=8, directions=5, seed=11)
        est1 = achievable_region_estimate(mac, ConferencingMode(0.2, 0.2), cfg)
        est2 = achievable_region_estimate(mac, ConferencingMode(0.2, 0.2), cfg)
        assert np.array_equal(est1.points, est2.points)

    def test_budget_flags_partial(self):
        rng = np.random.default_rng(9)
        mac = random_mac(rng)
        cfg = SearchConfig(restarts=50, refine_iters=10, directions=4, seed=1,
                           max_evaluations=5)
        est = achievable_region_estimate(mac, CommonMode(0.2), cfg)
        assert est.partial
        assert est.evaluations == 5

    def test_unbudgeted_evaluation_count(self):
        # two structured starts and the restarts, then every direction's
        # refinement steps
        rng = np.random.default_rng(9)
        mac = random_mac(rng)
        cfg = SearchConfig(restarts=7, refine_iters=5, directions=4, seed=1,
                           u_size=3)
        for mode in (CommonMode(0.2), ConferencingMode(0.1, 0.1)):
            est = achievable_region_estimate(mac, mode, cfg)
            assert not est.partial
            assert est.evaluations == 2 + 7 + 4 * 5
            assert "evaluations" not in est.to_json_dict()

    def test_prefix_consistency(self):
        # estimating the prefixed channel cannot beat the original estimate's
        # achievable hull along the sum direction (same auxiliaries suffice)
        rng = np.random.default_rng(10)
        mac = random_mac(rng, bob_quality=0.6)
        pre1 = Channel.from_matrix(rng.dirichlet([2, 2], size=2))
        pre2 = Channel.from_matrix(rng.dirichlet([2, 2], size=2))
        tilde = prefix_channel(mac, pre1, pre2)
        cfg = SearchConfig(restarts=25, refine_iters=15, directions=6, seed=12)
        base = achievable_region_estimate(mac, CommonMode(0.5), cfg)
        sub = achievable_region_estimate(tilde, CommonMode(0.5), cfg)
        assert sub.max_sum_rate() <= base.max_sum_rate() + 1e-6

    def test_csv_and_json_exports(self):
        rng = np.random.default_rng(13)
        mac = random_mac(rng, bob_quality=0.6)
        cfg = SearchConfig(restarts=6, refine_iters=4, directions=4, seed=3)
        est = achievable_region_estimate(mac, CommonMode(0.3), cfg)
        csv = est.to_csv()
        assert csv.splitlines()[0].startswith("R0,R1,R2,case")
        obj = est.to_json_dict()
        assert obj["mode"]["kind"] == "CommonMode"
        assert len(obj["points"]) == len(obj["cases"])

    def test_bad_mode_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValidationError):
            achievable_region_estimate(random_mac(rng), "common", SearchConfig())


class TestBatchedSearch:
    # The reference search scores one validated input at a time and refines
    # each direction in turn, with the 16-MI profile or with the library's
    # profile of one input.  Along a direction normal to a facet every
    # vertex of the facet scores the same up to rounding, so on inputs that
    # sit on such a tie the two profiles (which differ in the last bits)
    # can pick different vertices; these searches meet no such tie.

    @pytest.mark.parametrize("budget", [None, 4, 9, 15, 29])
    def test_matches_reference_search(self, budget):
        rng = np.random.default_rng(18)
        macs = (random_mac(rng, t=3, z=3, bob_quality=0.6), example62_channels())
        cfg = SearchConfig(restarts=7, refine_iters=5, directions=4, seed=2,
                           u_size=2, max_evaluations=budget)
        for mac in macs:
            for mode in (CommonMode(0.3), ConferencingMode(0.1, 0.1)):
                est = achievable_region_estimate(mac, mode, cfg)
                for profile in (reference_info_profile, info_profile):
                    points, cases, partial, evaluations = reference_search(
                        mac, mode, cfg, profile=profile)
                    assert est.evaluations == evaluations
                    assert est.partial == partial
                    assert est.cases == cases
                    assert est.points.shape == points.shape
                    assert np.max(np.abs(est.points - points)) <= 1e-12

    def test_unbudgeted_batch_count(self):
        # one batch of candidates, one per refinement step (every direction
        # steps together), one of final points and one of certifications
        rng = np.random.default_rng(9)
        mac = random_mac(rng)
        cfg = SearchConfig(restarts=7, refine_iters=5, directions=4, seed=1,
                           u_size=3)
        for mode in (CommonMode(0.2), ConferencingMode(0.1, 0.1)):
            est = achievable_region_estimate(mac, mode, cfg)
            assert est.generators
            assert est.batches == 1 + cfg.refine_iters + 1 + 1
            assert "batches" not in est.to_json_dict()

    def test_budget_cut_inside_refinement(self):
        # 9 candidates, then 3 steps: all of them the first direction's
        rng = np.random.default_rng(9)
        mac = random_mac(rng)
        cfg = SearchConfig(restarts=7, refine_iters=5, directions=4, seed=1,
                           u_size=3, max_evaluations=9 + 3)
        est = achievable_region_estimate(mac, CommonMode(0.2), cfg)
        assert est.partial
        assert est.evaluations == 12
        assert est.generators
        assert est.batches == 1 + 3 + 1 + 1

    def test_degenerate_hull_flagged(self, monkeypatch):
        import scipy.spatial

        mac = example62_channels()
        cfg = SearchConfig(restarts=6, refine_iters=4, directions=6, seed=3,
                           u_size=2)
        est = achievable_region_estimate(mac, CommonMode(0.3), cfg)
        assert not est.hull_degenerate

        def refuse(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6154 initial simplex is flat")

        monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
        flat = achievable_region_estimate(mac, CommonMode(0.3), cfg)
        assert flat.hull_degenerate
        assert np.array_equal(flat.points, est.points)
        cloud = np.unique(np.round(np.vstack([np.zeros((1, 3)), est.points]), 12),
                          axis=0)
        assert cloud.shape[0] > 4  # enough points to ask qhull
        assert np.array_equal(flat.hull_vertices, cloud)
        assert "hull_degenerate" not in flat.to_json_dict()


class TestSecrecyCapacity:
    def test_identical_marginals_zero(self):
        rng = np.random.default_rng(15)
        rows = rng.dirichlet(np.ones(2), size=4)
        mac = WiretapMAC.from_marginals(rows, rows)
        cfg = SearchConfig(restarts=10, refine_iters=10, seed=4, u_size=3)
        assert single_sender_secrecy_capacity(mac, cfg) <= 1e-9

    def test_perfect_bob_blind_eve(self):
        rng = np.random.default_rng(16)
        bob = np.eye(4)  # noiseless on the input pair
        eve = np.tile(rng.dirichlet([1, 1]), (4, 1))
        mac = WiretapMAC.from_marginals(bob, eve)
        cfg = SearchConfig(restarts=10, refine_iters=10, seed=5, u_size=2)
        cap = single_sender_secrecy_capacity(mac, cfg)
        assert cap == pytest.approx(2.0, abs=1e-6)

    def test_budget_monotone(self):
        rng = np.random.default_rng(17)
        mac = random_mac(rng, bob_quality=0.5)
        small = SearchConfig(restarts=3, refine_iters=2, seed=6, u_size=2)
        large = SearchConfig(restarts=25, refine_iters=20, seed=6, u_size=2)
        assert (single_sender_secrecy_capacity(mac, large)
                >= single_sender_secrecy_capacity(mac, small) - 1e-12)
