import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import (
    _entropy_gap,
    eavesdropper_output_entropy,
    legitimate_output_entropy,
    reference_conferencing_helps,
    reference_needs_time_sharing,
)
from wtmac import casestudy
from wtmac.casestudy import (
    Q_EXAMPLE,
    _conferencing_helps,
    bruteforce_search,
    concavity_scan,
    coupled_input,
    discussion_channels,
    equal_input_witness,
    example62,
    gap_curvatures,
    independent_gaps,
    lessnoisy_gap,
)
from wtmac.errors import PreconditionError, ValidationError
from wtmac.probkit import (
    AX_T,
    AX_X,
    AX_Y,
    AX_Z,
    Dist,
    FactoredInput,
    WiretapMAC,
    mutual_information,
)
from wtmac.regions import alpha_bounds_case1, info_profile

REFERENCE_ENTROPIES = {
    "H(T|XY)": 0.5685, "H(Z|XY)": 0.7851, "H(T|X)": 0.8532, "H(Z|X)": 0.9952,
    "H(T|Y)": 0.6251, "H(Z|Y)": 0.8442, "H(T)": 0.8866, "H(Z)": 0.9999,
}
REFERENCE_MIS = {
    "I(T^XY)": 0.3181, "I(Z^XY)": 0.2147, "I(T^X|Y)": 0.0566,
    "I(Z^X|Y)": 0.0590, "I(T^Y|X)": 0.2847, "I(Z^Y|X)": 0.2101,
    "I(Z^X)": 0.0047, "I(Z^Y)": 0.1557,
}


class TestDiscussionChannels:
    def test_alphabets(self):
        mac = discussion_channels()
        assert (mac.x_alphabet.size, mac.y_alphabet.size) == (2, 2)
        assert (mac.t_alphabet.size, mac.z_alphabet.size) == (3, 6)

    def test_entries_are_half_or_zero(self):
        mac = discussion_channels()
        for m in (mac.bob.matrix, mac.eve.matrix):
            assert set(np.round(np.unique(m), 12)) <= {0.0, 0.5}

    def test_conditional_output_entropy_one(self):
        mac = discussion_channels()
        for row in mac.bob.matrix:
            ent = -sum(p * np.log2(p) for p in row if p > 0)
            assert ent == pytest.approx(1.0, abs=1e-12)

    def test_equal_inputs_make_eve_blind(self):
        mac = discussion_channels()
        eve = mac.eve.matrix
        # rows for (0,0) and (1,1): identical noise-only distributions
        assert np.allclose(eve[0], eve[3], atol=1e-15)


class TestGap:
    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q, r = rng.uniform(0.05, 0.95, size=2)
            assert lessnoisy_gap(q, r).gap == pytest.approx(
                lessnoisy_gap(r, q).gap, abs=1e-12)

    def test_second_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        h = 1e-4
        for _ in range(15):
            q, r = rng.uniform(0.1, 0.9, size=2)
            fd = (lessnoisy_gap(q + h, r).gap - 2 * lessnoisy_gap(q, r).gap
                  + lessnoisy_gap(q - h, r).gap) / h ** 2
            assert lessnoisy_gap(q, r).d2_gap_dq2 == pytest.approx(fd, abs=1e-5)

    def test_center_value_matches_entropy_definitions(self):
        mac = discussion_channels()
        p = FactoredInput.independent(Dist.uniform(2), Dist.uniform(2), mac)
        j = p.joint
        direct = j.entropy({AX_Z}) - j.entropy({AX_T})
        assert lessnoisy_gap(0.5, 0.5).gap == pytest.approx(direct, abs=1e-12)
        assert (eavesdropper_output_entropy(0.5, 0.5)
                - legitimate_output_entropy(0.5, 0.5)) == pytest.approx(direct,
                                                                        abs=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(PreconditionError):
            lessnoisy_gap(0.0, 0.5)


@st.composite
def dirichlet_macs(draw):
    """A 2x2-input MAC with uniform-on-the-simplex binary output rows, and an
    interior independent input (q, r)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mac = WiretapMAC.from_marginals(rng.dirichlet(np.ones(2), size=4),
                                    rng.dirichlet(np.ones(2), size=4))
    return mac, float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))


class TestGapCurvatures:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(dirichlet_macs())
    def test_matches_central_second_differences(self, case):
        # the reference stencil of the search's old predicate: step 1e-3,
        # one batch-of-one profile per gap
        mac, q, r = case
        step = 1e-3
        gap = _entropy_gap(mac, q, r)
        fd_q = (_entropy_gap(mac, q + step, r) - 2 * gap
                + _entropy_gap(mac, q - step, r)) / step ** 2
        fd_r = (_entropy_gap(mac, q, r + step) - 2 * gap
                + _entropy_gap(mac, q, r - step)) / step ** 2
        d2_dq2, d2_dr2 = gap_curvatures(mac, q, r)
        assert float(d2_dq2) == pytest.approx(fd_q, rel=1e-4, abs=1e-8)
        assert float(d2_dr2) == pytest.approx(fd_r, rel=1e-4, abs=1e-8)
        assert float(independent_gaps(mac, q, r)) == gap

    def test_grid_matches_points(self):
        mac = discussion_channels()
        qs = np.linspace(0.1, 0.9, 5)[:, None]
        rs = np.linspace(0.2, 0.8, 3)[None, :]
        gaps = independent_gaps(mac, qs, rs)
        d2_dq2, d2_dr2 = gap_curvatures(mac, qs, rs)
        assert gaps.shape == d2_dq2.shape == d2_dr2.shape == (5, 3)
        for i, q in enumerate(qs[:, 0]):
            for j, r in enumerate(rs[0]):
                assert gaps[i, j] == independent_gaps(mac, q, r)
                assert (d2_dq2[i, j], d2_dr2[i, j]) == gap_curvatures(mac, q, r)

    def test_zero_output_terms_count_zero(self):
        # the additive channels put no mass on some (input, output) pairs;
        # every curvature stays finite
        d2_dq2, d2_dr2 = gap_curvatures(discussion_channels(),
                                        np.linspace(0.05, 0.95, 19), 0.5)
        assert np.isfinite(d2_dq2).all() and np.isfinite(d2_dr2).all()

    def test_needs_binary_inputs(self):
        rng = np.random.default_rng(0)
        mac = WiretapMAC.from_rows(rng.dirichlet(np.ones(4), size=6), 3, 2, 2, 2)
        with pytest.raises(ValidationError):
            gap_curvatures(mac, 0.5, 0.5)
        with pytest.raises(ValidationError):
            independent_gaps(mac, 0.5, 0.5)


class TestConcavity:
    def test_coarse_grid(self):
        report = concavity_scan(3, 3)
        assert report.passed
        assert report.min_margin > 0

    def test_default_grid(self):
        report = concavity_scan()
        assert report.grid_shape == (99, 99)
        assert report.passed

    def test_report_json(self):
        obj = concavity_scan(5, 5).to_json_dict()
        assert obj["passed"] and obj["violations"] == []


class TestEqualInputWitness:
    def test_exact_values(self):
        w = equal_input_witness(scan_points=33)
        assert w.i_z == pytest.approx(0.0, abs=1e-12)
        assert w.i_t == pytest.approx(0.5, abs=1e-12)

    def test_uniform_maximizes(self):
        w = equal_input_witness(scan_points=99)
        assert w.best_p0 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("scan_points", [33, 99])
    def test_scan_matches_per_bias_mutual_information(self, scan_points):
        # the scan is one profile batch; the reference takes one joint per bias
        mac = discussion_channels()
        w = equal_input_witness(scan_points=scan_points)
        p0s = np.linspace(0.0, 1.0, scan_points + 2)[1:-1]
        ref = [mutual_information(coupled_input(mac, float(p0)).joint,
                                  {AX_T}, {AX_X, AX_Y}) for p0 in p0s]
        assert [p0 for p0, _ in w.scanned] == [float(p0) for p0 in p0s]
        assert np.allclose([i_t for _, i_t in w.scanned], ref, rtol=0.0, atol=1e-12)
        assert w.best_p0 == float(p0s[int(np.argmax(ref))])
        j = coupled_input(mac, 0.5).joint
        assert w.i_t == pytest.approx(mutual_information(j, {AX_T}, {AX_X, AX_Y}),
                                      rel=0.0, abs=1e-12)
        assert w.i_z == pytest.approx(mutual_information(j, {AX_Z}, {AX_X, AX_Y}),
                                      rel=0.0, abs=1e-12)

    def test_coupled_member_of_family(self):
        p = coupled_input(discussion_channels(), 0.5)
        j = p.joint
        assert mutual_information(j, {AX_Z}, {AX_X, AX_Y}) == pytest.approx(0.0,
                                                                            abs=1e-12)


class TestExample62:
    def test_all_reference_values(self):
        rep = example62()
        for key, value in REFERENCE_ENTROPIES.items():
            assert rep.entropies[key] == pytest.approx(value, abs=1e-3), key
        for key, value in REFERENCE_MIS.items():
            assert rep.mutual_informations[key] == pytest.approx(value, abs=1e-3), key

    def test_reference_inequalities(self):
        rep = example62()
        mis = rep.mutual_informations
        assert mis["I(Z^X|Y)"] > mis["I(T^X|Y)"]
        assert mis["I(Z^Y|X)"] < mis["I(T^Y|X)"]
        assert rep.hc01 and rep.hc02 and rep.case0

    def test_alpha_conclusions_pin_the_assignment(self):
        rep = example62()
        second = rep.alpha_second_sender
        assert second.alpha0 > 0.0
        assert second.alpha1 == 1.0
        first = rep.alpha_first_sender
        assert not (first.alpha0 > 0.0 and first.alpha1 == 1.0)

    def test_report_json(self):
        obj = example62().to_json_dict()
        assert obj["q"] == Q_EXAMPLE and obj["case0"]


class TestBruteforceSearch:
    def test_unknown_predicate(self):
        with pytest.raises(ValidationError):
            bruteforce_search(10, 0, "nope")

    def test_seeded_reproducibility(self):
        a = bruteforce_search(300, 7, "needs-time-sharing")
        b = bruteforce_search(300, 7, "needs-time-sharing")
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa.q == fb.q and fa.r == fb.r

    def test_finds_time_sharing_instances(self):
        found = bruteforce_search(2000, 11, "needs-time-sharing")
        assert found, "expected at least one hit in 2000 samples"

    def test_certificates_revalidate(self):
        found = bruteforce_search(2000, 11, "needs-time-sharing")[:5]
        for hit in found:
            p = FactoredInput.independent(Dist.from_mass([hit.q, 1 - hit.q]),
                                          Dist.from_mass([hit.r, 1 - hit.r]),
                                          hit.mac)
            prof = info_profile(p)
            cert = hit.certificate
            cand = prof if cert["assignment"] == "first" else prof.swapped()
            ab = alpha_bounds_case1(cand)
            assert ab.alpha0 == pytest.approx(cert["alpha0"], abs=1e-12)
            assert ab.alpha1 == pytest.approx(cert["alpha1"], abs=1e-12)
            assert cand.iz_v1_u <= cand.it_v1_v2u
            assert cand.iz_v2_u <= cand.it_v2_v1u
            assert ab.alpha0 > 1e-3 or ab.alpha1 < 1 - 1e-3

    @pytest.mark.parametrize("seed", [1, 3, 7, 11])
    @pytest.mark.parametrize("budget", [0, 1, 60, 2000])
    def test_needs_time_sharing_matches_the_per_channel_reference(self, seed, budget):
        assert_replays_the_reference(budget, seed)

    def test_needs_time_sharing_blocks_match_the_reference(self, monkeypatch):
        # blocks of 7 channels: the budget spans 9 profile batches
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return needs_time_sharing(*args)

        needs_time_sharing = casestudy._needs_time_sharing
        monkeypatch.setattr(casestudy, "_SEARCH_BLOCK", 7)
        monkeypatch.setattr(casestudy, "_needs_time_sharing", counted)
        assert_replays_the_reference(60, 11)
        assert calls == [7] * 8 + [4]

    def test_conferencing_helps_on_scaled_search(self):
        # the additive example itself satisfies the predicate; random search
        # hits are rarer, so just check the predicate machinery end to end
        found = bruteforce_search(400, 3, "conferencing-helps")
        for hit in found:
            cert = hit.certificate
            assert cert["independent_min_gap"] >= 1e-3
            assert cert["max_gap_curvature"] < 0
            assert cert["coupled_advantage"] > 1e-3

    def test_conferencing_helps_accepts_the_additive_pair(self):
        rng = np.random.default_rng(5)
        cert = _conferencing_helps(discussion_channels().tensor, rng, tol=1e-3)
        assert cert is not None
        assert cert["coupled_advantage"] == pytest.approx(0.5, abs=1e-9)
        assert cert["max_gap_curvature"] < 0

    def test_conferencing_helps_matches_the_stencil_reference(self):
        # the search's draws, replayed against the finite-difference
        # predicate: both must consume the same stream and hit the same
        # channels
        budget, seed, tol = 400, 3, 1e-3
        found = bruteforce_search(budget, seed, "conferencing-helps")
        rng = np.random.default_rng(seed)
        ref = []
        for _ in range(budget):
            rows_b = rng.dirichlet(np.ones(2), size=4)
            rows_e = rng.dirichlet(np.ones(2), size=4)
            mac = WiretapMAC.from_marginals(rows_b, rows_e)
            rng.uniform(0.05, 0.95, size=2)
            cert = reference_conferencing_helps(mac, rng, tol)
            if cert is not None:
                ref.append((mac, cert))
        assert ref, "expected at least one hit"
        # every draw is a distinct channel: equal channels are equal indices
        assert len(found) == len(ref)
        for hit, (mac, cert) in zip(found, ref):
            assert np.array_equal(hit.mac.channel.matrix, mac.channel.matrix)
            got = hit.certificate
            assert got["coupling_p0"] == cert["coupling_p0"]
            assert got["coupled_advantage"] == cert["coupled_advantage"]
            assert got["independent_min_gap"] == pytest.approx(
                cert["independent_min_gap"], rel=0.0, abs=1e-12)
            assert got["max_gap_curvature"] == pytest.approx(
                cert["max_second_difference"], rel=1e-4)

    def test_json_export(self):
        found = bruteforce_search(2000, 11, "needs-time-sharing")[:1]
        if found:
            obj = found[0].to_json_dict()
            assert "rows" in obj and "certificate" in obj


def assert_replays_the_reference(budget, seed, tol=1e-3):
    """The search's hits, in order, equal a replay of its draws through the
    per-channel reference, certificate fields compared with ==."""
    found = bruteforce_search(budget, seed, "needs-time-sharing")
    rng = np.random.default_rng(seed)
    ref = []
    for _ in range(budget):
        rows_b = rng.dirichlet(np.ones(2), size=4)
        rows_e = rng.dirichlet(np.ones(2), size=4)
        q, r = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        mac = WiretapMAC.from_marginals(rows_b, rows_e)
        cert = reference_needs_time_sharing(mac, q, r, tol)
        if cert is not None:
            ref.append((mac, q, r, cert))
    assert [(hit.q, hit.r, hit.certificate) for hit in found] == [
        (q, r, cert) for _, q, r, cert in ref]
    for hit, (mac, *_) in zip(found, ref):
        assert np.array_equal(hit.mac.channel.matrix, mac.channel.matrix)
