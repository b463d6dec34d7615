import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from _support import (
    constant_eve_mac,
    random_factored,
    random_mac,
    reference_hull,
    reference_info_profile,
    reference_search,
)
from wtmac import conferencing, optimizer, regions
from wtmac.errors import ValidationError
from wtmac.optimizer import (
    CommonMode,
    ConferencingMode,
    SearchConfig,
    _best_vertices,
    _candidates,
    _case_systems,
    _directions,
    achievable_region_estimate,
    prefix_channel,
    single_sender_secrecy_capacity,
)
from wtmac.casestudy import discussion_channels, example62_channels
from wtmac.probkit import Channel, Dist, FactoredInput, WiretapMAC
from wtmac.regions import SENDER_SWAP, _scores, info_profile, info_profiles, region_common


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

    def test_flat_cloud_gets_its_in_plane_hull(self):
        # Case-0 points have R0 = 0: this cloud is flat, qhull refuses it,
        # and its hull is the exact polygon within the plane, less the
        # points inside it
        mac = random_mac(np.random.default_rng(11), bob_quality=0.8)
        cfg = SearchConfig(restarts=6, refine_iters=4, directions=6, seed=3,
                           independent_only=True)
        est = achievable_region_estimate(mac, CommonMode(0.0), cfg)
        cloud = np.unique(np.round(np.vstack([np.zeros((1, 3)), est.points]), 12),
                          axis=0)
        assert (cloud[:, 0] == 0.0).all()
        assert len(cloud) > len(est.hull_vertices) == 3
        with pytest.raises(QhullError):
            ConvexHull(cloud)
        assert np.array_equal(est.hull_vertices, cloud[reference_hull(cloud)])
        assert "hull_degenerate" not in est.to_json_dict()

    def test_seed1_clouds_within_tolerance_of_a_face(self):
        # Two seed-1 benchmark search clouds (random MACs, H_C = 0.3): in the
        # |T| = 4, |Z| = 2 one the fourth point lies 5.0e-14 inside the
        # R2 = 0 face, in the |T| = 2, |Z| = 4 one 7.6e-14 outside it.  Both
        # are within HULL_TOL of the face's edge, so neither is a vertex, as
        # qhull without its joggle finds; with the joggle it listed both.
        for cloud in ([[0, 0, 0], [0, 0, 0.431789015724], [0, 0.349441562713, 0],
                       [0.661406018601, 1e-12, 0], [0.661406018603, 0, 0]],
                      [[0, 0, 0], [0, 0, 0.000236041988], [0, 0.766728409845, 0],
                       [0.783435167098, 5e-12, 0], [0.783435167103, 0, 0]]):
            cloud = np.array(cloud, dtype=float)
            hull = regions._hull_vertices(cloud)
            assert np.array_equal(hull, np.delete(cloud, 3, axis=0))
            ref = cloud[ConvexHull(cloud).vertices]
            assert sorted(map(tuple, hull.tolist())) == sorted(map(tuple, ref.tolist()))


def _row_view(profiles, u_ind, mode, i, dirs):
    """Everything the scorer computes for input i of a profile batch: its
    case systems' rows, its kept vertices and their cases, their scores and
    its best vertex along each direction."""
    systems = _case_systems(profiles, u_ind, mode)
    verts, keep, slot_case = cands = _candidates(systems, len(profiles), dirs.shape[1])
    out = {"cases": [int(case) for case, rows, *_ in systems if i in rows]}
    for case, rows, coeffs, rhs, pieces in systems:
        if i in rows:
            at = int(np.nonzero(rows == i)[0][0])
            out[f"rhs{case}"] = rhs[at]
            out[f"pieces{case}"] = pieces[at]
            out[f"coeffs{case}"] = coeffs if coeffs.ndim == 2 else coeffs[at]
    out["verts"] = verts[i][keep[i]]
    out["vert_cases"] = np.array(slot_case, dtype=int)[keep[i]]
    # scored as the search scores a batch: every direction at once (the
    # coverage pass), then one direction per input (a refinement step)
    out["scores"] = _scores(verts[:, :, None], dirs)[i][keep[i]]
    for d in range(len(dirs)):
        score, case, vert = _best_vertices(cands, dirs[[d] * len(profiles)])[i]
        out[f"best{d}"] = np.array([score, -1 if case is None else int(case)]
                                   + ([] if vert is None else list(vert)))
    return out


@st.composite
def pipeline_batches(draw):
    """Profiles of one to four random inputs and of their sender-swapped
    twins (so that Case 2 meets both sender orders), a mode whose bound
    sits in the first input's Case-2 window half of the time, and the
    position of the input to follow."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mac = random_mac(rng, t=draw(st.integers(2, 3)), z=draw(st.integers(2, 3)),
                     bob_quality=draw(st.sampled_from([0.0, 0.5, 0.9])))
    u = draw(st.sampled_from([1, 2, 3]))
    inputs = [random_factored(rng, mac, u=u) for _ in range(draw(st.integers(1, 4)))]
    batch = info_profiles(*(np.stack(f) for f in zip(*(
        (p.p_u.mass, p.v1_given_u.matrix, p.v2_given_u.matrix,
         p.x_given_v1.matrix, p.y_given_v2.matrix) for p in inputs))), mac.tensor)
    profiles = np.vstack([batch.profiles, batch.profiles[:, SENDER_SWAP]])
    u_ind = np.concatenate([batch.u_independent] * 2)
    cols = regions._columns(profiles)
    low, high = min(cols.iz_v1u[0], cols.iz_v2u[0]), cols.iz_v12[0]
    frac = draw(st.floats(0.0, 1.0))
    hc = (low + frac * (high - low) if draw(st.booleans())
          else frac * 1.3 * max(cols.iz_v12.max(), 1e-3))
    split = draw(st.floats(0.0, 1.0))
    mode = draw(st.sampled_from([CommonMode(hc), ConferencingMode(split * hc,
                                                                  (1 - split) * hc)]))
    return profiles, u_ind, mode, draw(st.integers(0, len(profiles) - 1))


class TestArrayPipeline:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(pipeline_batches())
    def test_batch_composition_does_not_matter(self, batch):
        # An input's case mask, right-hand sides, vertices and scores are the
        # same bits alone, inside its batch, and padded between inputs with
        # more vertices.
        profiles, u_ind, mode, i = batch
        dim = 3 if isinstance(mode, CommonMode) else 2
        dirs = _directions(dim, 6, np.random.default_rng(0))
        whole = _row_view(profiles, u_ind, mode, i, dirs)
        counts = [len(_row_view(profiles, u_ind, mode, j, dirs)["verts"])
                  for j in range(len(profiles))]
        big = int(np.argmax(counts))
        pad = [big, i, big]
        views = [_row_view(profiles[[i]], u_ind[[i]], mode, 0, dirs),
                 _row_view(profiles[pad], u_ind[pad], mode, 1, dirs)]
        for view in views:
            assert view.keys() == whole.keys()
            for key, value in whole.items():
                assert np.array_equal(view[key], value), key
        # one score rule: the best along a direction is the coverage maximum
        for d in range(len(dirs)):
            assert whole[f"best{d}"][0] == max(
                whole["scores"][:, d].max(initial=0.0), 0.0)

    def test_both_sender_orders_and_pieces_are_met(self):
        # the strategy reaches Case 2 in both sender orders, in both modes
        seen = set()

        @settings(max_examples=80, deadline=None, derandomize=True, database=None)
        @given(pipeline_batches())
        def collect(batch):
            profiles, u_ind, mode, _ = batch
            for case, rows, coeffs, rhs, pieces in _case_systems(profiles, u_ind, mode):
                if case == 2:
                    cols = regions._columns(profiles[rows])
                    for a, b in zip(cols.iz_v1_v2u, cols.iz_v2_v1u):
                        seen.add((type(mode).__name__, bool(a < b), rhs.shape[1]))

        collect()
        assert {("CommonMode", True, 1), ("CommonMode", False, 1),
                ("ConferencingMode", True, 21),
                ("ConferencingMode", False, 21)} <= seen


def _perturbed_profiles(rng):
    """``optimizer.info_profiles`` with every profile entry moved by a draw
    of -2..+2 ulps from ``rng``."""
    original = info_profiles

    def perturbed(*args):
        batch = original(*args)
        steps = rng.integers(-2, 3, batch.profiles.shape)
        moved = batch.profiles
        for i in range(2):
            moved = np.where(steps > i, np.nextafter(moved, np.inf), moved)
            moved = np.where(steps < -i, np.nextafter(moved, -np.inf), moved)
        return batch._replace(profiles=moved)

    return perturbed


class TestTieRule:
    def test_first_vertex_within_the_margin_wins(self):
        # the second vertex scores one ulp above the first: the first is
        # chosen, scored as the maximum; a row with no kept vertex scores 0
        verts = np.array([[[0.5, 0.0], [np.nextafter(0.5, 1.0), 0.0]],
                          [[0.5, 0.0], [0.0, 0.0]]])
        keep = np.array([[True, True], [False, False]])
        best = _best_vertices((verts, keep, [1, 3]), np.array([[1.0, 0.0]] * 2))
        assert best[0][0] == np.nextafter(0.5, 1.0) and best[0][1] == 1
        assert np.array_equal(best[0][2], [0.5, 0.0])
        assert best[1] == (0.0, None, None)

    @pytest.mark.parametrize("seed, shape, u_size", [
        (9, (4, 2), 2), (19, (4, 2), 2), (27, (4, 4), None)])
    def test_last_bit_profile_changes_move_no_point(self, monkeypatch, seed,
                                                    shape, u_size):
        # Without the margin, 2-ulp profile changes move a point of each of
        # these searches (by up to 0.36) or change its case list.
        mac = random_mac(np.random.default_rng(seed), t=shape[0], z=shape[1])
        cfg = SearchConfig(restarts=6, refine_iters=6, directions=4, seed=seed,
                           u_size=u_size)
        plain = achievable_region_estimate(mac, CommonMode(0.3), cfg)
        monkeypatch.setattr(optimizer, "info_profiles",
                            _perturbed_profiles(np.random.default_rng(seed)))
        moved = achievable_region_estimate(mac, CommonMode(0.3), cfg)
        assert moved.cases == plain.cases
        assert moved.points.shape == plain.points.shape
        assert np.max(np.abs(moved.points - plain.points)) <= 1e-12


class TestNoPerInputObjects:
    def test_search_builds_no_profile_or_region_objects(self, monkeypatch):
        built = []
        for cls in (regions.InfoProfile, regions.RatePolytope,
                    conferencing.ConferencingRegion):
            init = cls.__init__

            def counted(self, *args, _init=init, _name=cls.__name__, **kw):
                built.append(_name)
                _init(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counted)
        cfg = SearchConfig(u_size=2, restarts=4, refine_iters=3, directions=4, seed=1)
        for mac, mode in ((example62_channels(), CommonMode(0.3)),
                          (example62_channels(), ConferencingMode(0.1, 0.1)),
                          (discussion_channels(), ConferencingMode(0.2, 0.2))):
            est = achievable_region_estimate(mac, mode, cfg)
            assert len(est.cases) > 1 and any(est.points.ravel())
            assert all(isinstance(p, FactoredInput) for p in est.generators)
        assert built == []
        info_profile(FactoredInput.independent(Dist.from_mass([0.5, 0.5]),
                                               Dist.from_mass([0.5, 0.5]),
                                               example62_channels()))
        assert built == ["InfoProfile"]  # the counter sees a one-input view


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
