import numpy as np
import pytest

from wtmac.casestudy import (
    Q_EXAMPLE,
    bruteforce_search,
    concavity_scan,
    coupled_input,
    discussion_channels,
    eavesdropper_output_entropy,
    equal_input_witness,
    example62,
    legitimate_output_entropy,
    lessnoisy_gap,
)
from wtmac.errors import PreconditionError, ValidationError
from wtmac.probkit import AX_T, AX_X, AX_Y, AX_Z, Dist, FactoredInput, mutual_information
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

    def test_conferencing_helps_on_scaled_search(self):
        # the additive example itself satisfies the predicate; random search
        # hits are rarer, so just check the predicate machinery end to end
        found = bruteforce_search(400, 3, "conferencing-helps")
        for hit in found:
            cert = hit.certificate
            assert cert["independent_min_gap"] >= 1e-3
            assert cert["max_second_difference"] < 0
            assert cert["coupled_advantage"] > 1e-3

    def test_conferencing_helps_accepts_the_additive_pair(self):
        from wtmac.casestudy import _conferencing_helps, discussion_channels

        rng = np.random.default_rng(5)
        cert = _conferencing_helps(discussion_channels(), rng, tol=1e-3)
        assert cert is not None
        assert cert["coupled_advantage"] == pytest.approx(0.5, abs=1e-9)
        assert cert["max_second_difference"] < 0

    def test_json_export(self):
        found = bruteforce_search(2000, 11, "needs-time-sharing")[:1]
        if found:
            obj = found[0].to_json_dict()
            assert "rows" in obj and "certificate" in obj
