import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from _support import (
    constant_eve_mac,
    example62_input,
    pair_mean,
    point_mass,
    random_mac,
    reference_case3_checks,
    reference_case3_theta,
    reference_case_j_values,
    reference_channel_row,
    reference_codebook_family,
    reference_mc_error,
    reference_pair_checks,
    reference_pair_mean,
    reference_theta_u,
    reference_theta_uy,
    reference_z_mask,
    sequence_mass,
)
from wtmac.codesim import (
    DEFAULT_SLACK,
    DEFAULT_TAIL_EXPONENT,
    CodeChain,
    CodebookFamily,
    WiretapCode,
    _bob_rows,
    _channel_rows,
    _decode_all,
    average_error,
    build_wiretap_code,
    chernoff_bound,
    concentration_report,
    eavesdropper_conditionals,
    eve_map_error,
    exact_leakage,
    joint_typicality_decode,
    leakage_chain_check,
    mac_average_error,
    sample_codebook_families,
    sample_codebook_family,
    secrecy_from_variation,
    simulate_report,
)
from wtmac.errors import (
    BlocklengthTooSmallError,
    PreconditionError,
    ValidationError,
)
from wtmac.probkit import (
    Channel,
    Dist,
    WiretapMAC,
    all_sequences,
    mutual_information,
    truncated_typical_dist,
    typical_membership,
    zip_sequences,
)
from wtmac import concentration
from wtmac.concentration import ConcentrationReport, _Workspace, _check
from wtmac.regions import (
    CaseLabel,
    alpha_bounds_case1,
    alpha_bounds_case2,
    randomization_rates,
)


def chain_for(mac, p_u=None, x_given_u=None, y_given_u=None):
    size = mac.x_alphabet.size
    return CodeChain(p_u or Dist.uniform(2),
                     x_given_u or Channel.identity(size),
                     y_given_u or Channel.identity(size), mac)


def noiseless_bob_mac(eve_rows=None):
    bob = np.eye(4)
    eve = np.full((4, 2), 0.5) if eve_rows is None else eve_rows
    return WiretapMAC.from_marginals(bob, eve)


def coupled_chain(mac, p0=0.5):
    return CodeChain(Dist.from_mass([p0, 1 - p0]), Channel.identity(2),
                     Channel.identity(2), mac)


def reference_decode(code, delta, t_seq):
    """Per-tuple decode: zip each segment's (u, x, y, t) and test it with
    typical_membership; the first hit wins unless a second one ties."""
    chain = code.chain
    sizes = [chain.p_u.alphabet.size, chain.mac.x_alphabet.size,
             chain.mac.y_alphabet.size, chain.mac.t_alphabet.size]
    segments, at = [], 0
    for fam in code.families:
        segments.append(t_seq[at:at + fam.n])
        at += fam.n
    hit = None
    for k, ls in code.index_tuples():
        ok = True
        for fam, l, seg in zip(code.families, ls, segments):
            zipped, _ = zip_sequences(*fam.codeword(k, l), seg, sizes)
            if not typical_membership(chain.decode_law, zipped, delta):
                ok = False
                break
        if ok:
            if hit is not None:
                return None
            hit = (k, ls)
    return hit


def reference_errors(code, delta):
    """Per-output reference decodes, then the tuple, message and MAC errors
    from per-output tuple comparisons."""
    tuples = list(code.index_tuples())
    rows = _bob_rows(code)
    seqs = all_sequences(code.chain.mac.t_alphabet.size, code.n_total)
    decoded = [reference_decode(code, delta, t) for t in seqs]
    tuple_err = msg_err = mac_err = 0.0
    weight = 1.0 / len(tuples)
    for i, (k, ls) in enumerate(tuples):
        wrong_tuple = np.array([d != (k, ls) for d in decoded])
        wrong_msg = np.array([d is None or d[0] != k for d in decoded])
        tuple_err += weight * float(rows[i] @ wrong_tuple)
        msg_err += weight * float(rows[i] @ wrong_msg)
        mac_err += float(rows[i] @ wrong_tuple)
    return decoded, tuple_err, msg_err, mac_err / len(tuples)


@st.composite
def zero_mass_chains(draw):
    """A random chain with |U|, |X|, |Y| in {1, 2, 3} whose laws each put no
    mass on one symbol per row (when the row has two or more)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, x, y = (draw(st.integers(1, 3)) for _ in range(3))

    def law(rows, size):
        mass = rng.dirichlet(np.ones(size), size=rows)
        if size > 1:
            mass[np.arange(rows), rng.integers(0, size, size=rows)] = 0.0
        return mass / mass.sum(axis=1, keepdims=True)

    mac = WiretapMAC.from_rows(rng.dirichlet(np.ones(4), size=x * y),
                               x, y, 2, 2)
    return CodeChain(Dist.from_mass(law(1, u)[0]),
                     Channel.from_matrix(law(u, x)),
                     Channel.from_matrix(law(u, y)), mac)


class TestSampling:
    def test_deterministic_chain_constant(self):
        mac = noiseless_bob_mac()
        chain = CodeChain(point_mass(2, 1), Channel.identity(2),
                          Channel.identity(2), mac)
        fam = sample_codebook_family(chain, 6, (2, 1, 1), 0.2, seed=0)
        assert np.all(fam.u == 1) and np.all(fam.x == 1) and np.all(fam.y == 1)

    def test_all_sequences_typical(self):
        rng_seed = 3
        mac = random_mac(np.random.default_rng(1), bob_quality=0.5)
        chain = CodeChain(Dist.from_mass([0.6, 0.4]),
                          Channel.from_matrix([[0.8, 0.2], [0.3, 0.7]]),
                          Channel.from_matrix([[0.55, 0.45], [0.1, 0.9]]), mac)
        fam = sample_codebook_family(chain, 10, (2, 3, 2), 0.25, seed=rng_seed)
        for a in range(2):
            assert typical_membership(chain.p_u, fam.u[0, a], 0.25)
            for b in range(3):
                assert typical_membership(chain.x_given_u, fam.x[0, a, 0, b],
                                          0.25, fam.u[0, a])
            for c in range(2):
                assert typical_membership(chain.y_given_u, fam.y[0, a, 0, c],
                                          0.25, fam.u[0, a])

    def test_empirical_frequencies(self):
        mac = noiseless_bob_mac()
        chain = coupled_chain(mac, 0.5)
        fam = sample_codebook_family(chain, 50, (8, 1, 1), 0.1, seed=5)
        for a in range(8):
            freq = np.bincount(fam.u[0, a], minlength=2) / 50
            assert np.all(np.abs(freq - 0.5) <= 0.1)

    def test_seeded_reproducibility(self):
        mac = noiseless_bob_mac()
        chain = coupled_chain(mac)
        f1 = sample_codebook_family(chain, 8, (2, 2, 1), 0.3, seed=9)
        f2 = sample_codebook_family(chain, 8, (2, 2, 1), 0.3, seed=9)
        assert np.array_equal(f1.x, f2.x) and np.array_equal(f1.u, f2.u)

    def test_flat_csv_export(self):
        mac = noiseless_bob_mac()
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 4, (2, 2, 1), 0.3, seed=10,
                                     k_sizes=(1, 2, 1))
        csv = fam.to_csv()
        lines = csv.splitlines()
        assert lines[0] == "kind,k0,l0,k1_or_k2,l1_or_l2,sequence"
        # 2 shared + 2*(2*2) private-x + 2*1 private-y rows
        assert len(lines) == 1 + 2 + 8 + 2
        first_u = lines[1].split(",")
        assert first_u[0] == "u"
        assert first_u[-1] == " ".join(map(str, fam.u[0, 0]))


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, -1])
    def test_blocklength_below_one_rejected(self, n):
        chain = coupled_chain(noiseless_bob_mac())
        with pytest.raises(ValidationError, match="blocklength"):
            sample_codebook_family(chain, n, (2, 1, 1), 0.3, seed=0)

    # delta >= 1/n keeps every typical set non-empty: rounding n * P to
    # counts is off by less than 1 per symbol, and zero-mass symbols stay 0
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(zero_mass_chains(), st.integers(3, 9),
           st.tuples(*[st.integers(1, 3)] * 3),
           st.tuples(*[st.integers(1, 3)] * 3),
           st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=12),
           st.sampled_from([0.34, 0.4, 0.5]))
    def test_lockstep_families_match_per_family_loop(self, chain, n, l_sizes,
                                                     k_sizes, seeds, delta):
        fams = sample_codebook_families(chain, n, l_sizes, delta, seeds,
                                        k_sizes)
        assert [f.seed for f in fams] == seeds
        for fam, seed in zip(fams, seeds):
            u, x, y, proposals = reference_codebook_family(
                chain, n, l_sizes, delta, seed, k_sizes)
            assert np.array_equal(fam.u, u)
            assert np.array_equal(fam.x, x)
            assert np.array_equal(fam.y, y)
            assert fam.proposals == proposals
        one = sample_codebook_family(chain, n, l_sizes, delta, seeds[-1],
                                     k_sizes)
        assert np.array_equal(one.x, fams[-1].x)
        assert one.proposals == fams[-1].proposals
        assert replace(one, proposals=0).to_csv() == one.to_csv()


class TestBuild:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case, n, n2", [
        (CaseLabel.CASE3, 0, None), (CaseLabel.CASE3, -1, None),
        (CaseLabel.CASE1, 0, 4), (CaseLabel.CASE1, 4, 0),
        (CaseLabel.CASE1, 4, -1)])
    def test_blocklength_below_one_rejected(self, case, n, n2):
        chain = chain_for(constant_eve_mac(np.random.default_rng(2), t=4))
        with pytest.raises(ValidationError, match="blocklengths must be"):
            build_wiretap_code(chain, case, (0.0, 0.0, 0.0), hc=2.0, n=n,
                               delta=0.3, slack=0.25, n2=n2, alpha=0.5)

    def test_case3_constant_eve_window(self):
        rng = np.random.default_rng(2)
        mac = constant_eve_mac(rng, t=4)
        chain = chain_for(mac)
        slack = 0.25
        code = build_wiretap_code(chain, CaseLabel.CASE3, (0.0, 0.0, 0.0),
                                  hc=2.0, n=4, delta=0.3, slack=slack, seed=1)
        l0 = code.families[0].l_sizes[0]
        # leakage-free channel: the window floor is pure slack
        assert math.log2(l0) >= 4 * 2 * slack - 1e-9
        assert math.log2(l0) <= 4 * 3 * slack + 1e-9

    def test_case0_has_no_common_index(self):
        mac = noiseless_bob_mac()
        chain = chain_for(mac, p_u=Dist.uniform(2),
                          x_given_u=Channel.constant(2, Dist.uniform(2)),
                          y_given_u=Channel.constant(2, Dist.uniform(2)))
        code = build_wiretap_code(chain, CaseLabel.CASE0, (0.0, 0.1, 0.1),
                                  hc=0.0, n=4, delta=0.4, slack=0.3, seed=2,
                                  alpha=1.0)
        assert code.k_sizes[0] == 1
        assert code.families[0].l_sizes[0] == 1

    def test_case0_rejects_common_rate(self):
        mac = noiseless_bob_mac()
        chain = chain_for(mac)
        with pytest.raises(PreconditionError):
            build_wiretap_code(chain, CaseLabel.CASE0, (0.1, 0.0, 0.0),
                               hc=0.0, n=4, delta=0.3)

    def test_case1_randomness_within_bound(self):
        rng = np.random.default_rng(4)
        built = 0
        tries = 0
        while built < 3 and tries < 60:
            tries += 1
            mac = random_mac(rng, bob_quality=0.8)
            chain = CodeChain(Dist.from_mass(rng.dirichlet([2, 2])),
                              Channel.from_matrix(rng.dirichlet([2, 2], size=2)),
                              Channel.from_matrix(rng.dirichlet([2, 2], size=2)),
                              mac)
            prof = chain.profile
            if (prof.iz_v1_u > prof.it_v1_v2u or prof.iz_v2_u > prof.it_v2_v1u
                    or prof.iz_v12_u > prof.it_v1_v2u + prof.it_v2_v1u
                    or prof.iz_v12 > prof.it_v12):
                continue
            hc = prof.iz_u + 3.0
            try:
                code = build_wiretap_code(chain, CaseLabel.CASE1,
                                          (0.0, 0.0, 0.0), hc=hc, n=4,
                                          delta=0.35, slack=0.3, seed=tries,
                                          alpha=1.0)
            except (BlocklengthTooSmallError, PreconditionError):
                continue
            built += 1
            assert code.common_randomness_rate <= hc + 1e-12
        assert built >= 1

    def test_window_infeasible_reports_required_n(self):
        rng = np.random.default_rng(5)
        mac = constant_eve_mac(rng)
        chain = chain_for(mac)
        with pytest.raises(BlocklengthTooSmallError) as info:
            # slack 0.05: the pure-slack window needs roughly n >= 10
            build_wiretap_code(chain, CaseLabel.CASE3, (0.0, 0.0, 0.0),
                               hc=2.0, n=3, delta=0.3, slack=0.05)
        assert info.value.required_n is None or info.value.required_n > 3
        # Case 2 at alpha = 1/2: only the first family randomizes sender 1,
        # and its window at n + n2 = 4 holds no integer
        eve = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.1, 0.9]])
        chain = chain_for(noiseless_bob_mac(eve),
                          x_given_u=Channel.from_matrix([[0.8, 0.2], [0.3, 0.7]]),
                          y_given_u=Channel.from_matrix([[0.7, 0.3], [0.2, 0.8]]))
        with pytest.raises(BlocklengthTooSmallError, match="L1") as info:
            build_wiretap_code(chain, CaseLabel.CASE2, (0.0, 0.0, 0.0), hc=1.0,
                               n=2, n2=2, delta=0.4, slack=0.05, alpha=0.5)
        assert info.value.required_n > 4

    def test_case2_shapes_follow_alpha(self):
        rng = np.random.default_rng(7)
        mac = constant_eve_mac(rng)
        chain = chain_for(mac,
                          x_given_u=Channel.from_matrix([[0.8, 0.2], [0.3, 0.7]]),
                          y_given_u=Channel.from_matrix([[0.7, 0.3], [0.2, 0.8]]))
        only_g = build_wiretap_code(chain, CaseLabel.CASE2, (0, 0, 0), hc=1.0,
                                    n=4, delta=0.4, slack=0.25, seed=1,
                                    alpha=1.0)
        assert only_g.families[0].l_sizes[1] > 1
        assert only_g.families[0].l_sizes[2] == 1
        only_gp = build_wiretap_code(chain, CaseLabel.CASE2, (0, 0, 0), hc=1.0,
                                     n=4, delta=0.4, slack=0.25, seed=2,
                                     alpha=0.0)
        assert only_gp.families[0].l_sizes[1] == 1
        assert only_gp.families[0].l_sizes[2] > 1
        shared = build_wiretap_code(chain, CaseLabel.CASE2, (0, 0, 0), hc=1.0,
                                    n=4, n2=4, delta=0.4, slack=0.25, seed=3,
                                    alpha=0.5)
        assert shared.families[0].l_sizes[2] == 1
        assert shared.families[1].l_sizes[1] == 1

    def test_time_sharing_builds_two_families(self):
        mac = noiseless_bob_mac()
        chain = chain_for(mac, p_u=Dist.uniform(2),
                          x_given_u=Channel.constant(2, Dist.uniform(2)),
                          y_given_u=Channel.constant(2, Dist.uniform(2)))
        code = build_wiretap_code(chain, CaseLabel.CASE0, (0.0, 0.05, 0.05),
                                  hc=0.0, n=3, delta=0.4, slack=0.3, seed=3,
                                  alpha=0.5, n2=3)
        assert len(code.families) == 2
        assert code.n_total == 6

    def test_default_alpha_outside_interval_names_it(self):
        # on the explicit example the Case-0/1 interval is [0, 0.956] and
        # Case 2's at hc = 1 is [0, 0.959]: both exclude the default alpha = 1
        p = example62_input()
        prof = CodeChain.from_factored(p).profile
        for case, bounds in ((CaseLabel.CASE0, alpha_bounds_case1(prof)),
                             (CaseLabel.CASE1, alpha_bounds_case1(prof)),
                             (CaseLabel.CASE2, alpha_bounds_case2(prof, 1.0))):
            assert not bounds.degenerate and bounds.alpha1 < 1.0
            with pytest.raises(PreconditionError) as info:
                build_wiretap_code(p, case, (0.0, 0.0, 0.0), hc=1.0, n=4,
                                   delta=0.3, slack=0.25)
            message = str(info.value)
            assert f"[{bounds.alpha0}, {bounds.alpha1}]" in message
            assert "pass an alpha" in message and "n2" in message
            # an alpha from the interval builds
            code = build_wiretap_code(p, case, (0.0, 0.0, 0.0), hc=1.0, n=4,
                                      n2=4, delta=0.3, slack=0.25, alpha=0.5)
            assert len(code.families) == 2

    def test_rate_targets_validated(self):
        rng = np.random.default_rng(6)
        mac = constant_eve_mac(rng)
        chain = chain_for(mac)
        with pytest.raises(PreconditionError):
            build_wiretap_code(chain, CaseLabel.CASE3, (9.0, 9.0, 9.0),
                               hc=3.0, n=4, delta=0.3, slack=0.25)


class TestDecode:
    @staticmethod
    def separated_family(mac, k0=1, l0=4):
        # balanced length-8 words with one-sided disagreement counts of at
        # least 2, so delta = 0.15 separates every pair
        words = np.array([
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 1, 1, 1, 0, 0, 0, 0],
            [0, 0, 1, 1, 0, 0, 1, 1],
            [1, 1, 0, 0, 1, 1, 0, 0],
        ], dtype=np.int64)[:k0 * l0].reshape(k0, l0, 8)
        chain = coupled_chain(mac)
        return CodebookFamily(chain, 8, (k0, 1, 1), (l0, 1, 1), 0.15, 0,
                              words, words[:, :, None, None, :],
                              words[:, :, None, None, :])

    def test_noiseless_separated_always_correct(self):
        mac = noiseless_bob_mac()
        fam = self.separated_family(mac)
        code = WiretapCode(CaseLabel.CASE3, 2.0, 0.15, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        for a in range(4):
            x = fam.x[0, a, 0, 0]
            y = fam.y[0, a, 0, 0]
            t = 2 * x + y  # noiseless pair output
            out = joint_typicality_decode(code, 0.15, t)
            assert out == ((0, 0, 0), ((a, 0, 0),))

    def test_duplicate_codewords_tie_to_failure(self):
        mac = noiseless_bob_mac()
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 8, (2, 1, 1), 0.25, seed=12)
        dup = CodeChain(chain.p_u, chain.x_given_u, chain.y_given_u, mac)
        u = fam.u.copy()
        u[0, 1] = u[0, 0]
        x = fam.x.copy()
        x[0, 1] = x[0, 0]
        y = fam.y.copy()
        y[0, 1] = y[0, 0]
        forced = CodebookFamily(dup, 8, (1, 1, 1), (2, 1, 1), 0.25, 12, u, x, y)
        code = WiretapCode(CaseLabel.CASE3, 2.0, 0.25, 0.25, None, (forced,),
                           (0.0, 0.0, 0.0))
        t = 2 * x[0, 0, 0, 0] + y[0, 0, 0, 0]
        assert joint_typicality_decode(code, 0.25, t) is None

    def test_matches_bruteforce_enumeration(self):
        # independent oracle: raw-loop typicality over every candidate tuple
        rng = np.random.default_rng(13)
        mac = random_mac(rng, bob_quality=0.6)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 5, (2, 2, 1), 0.4, seed=14)
        code = WiretapCode(CaseLabel.CASE2, 2.0, 0.4, 0.25, 0.5, (fam,),
                           (0.0, 0.0, 0.0))
        law = chain.decode_law
        sizes = [2, 2, 2, 2]
        delta = 0.4

        def oracle(t_seq):
            hits = []
            for k in code.messages():
                for ls in [((a, b, c),) for a in range(2) for b in range(2)
                           for c in range(1)]:
                    useq, xseq, yseq = fam.codeword(k, ls[0])
                    counts = {}
                    n = len(t_seq)
                    for i in range(n):
                        key = (useq[i], xseq[i], yseq[i], t_seq[i])
                        counts[key] = counts.get(key, 0) + 1
                    ok = True
                    for u_ in range(2):
                        for x_ in range(2):
                            for y_ in range(2):
                                for t_ in range(2):
                                    freq = counts.get((u_, x_, y_, t_), 0) / n
                                    idx = ((u_ * 2 + x_) * 2 + y_) * 2 + t_
                                    if abs(freq - law.mass[idx]) > delta:
                                        ok = False
                    if ok:
                        hits.append((k, ls))
            return hits[0] if len(hits) == 1 else None

        for t_seq in all_sequences(2, 5):
            assert joint_typicality_decode(code, delta, t_seq) == oracle(t_seq)


class TestReferenceDecode:
    """The vectorized decode against the per-output reference, exactly."""

    @staticmethod
    def noisy_mac(seed, bob_quality=0.7):
        return random_mac(np.random.default_rng(seed), t=4,
                          bob_quality=bob_quality)

    def one_family_case3(self, seed=101, bob_quality=0.7):
        chain = coupled_chain(self.noisy_mac(seed, bob_quality))
        fam = sample_codebook_family(chain, 5, (2, 1, 1), 0.3, seed=seed,
                                     k_sizes=(2, 1, 1))
        return WiretapCode(CaseLabel.CASE3, 2.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))

    def two_family(self, seed=103):
        chain = CodeChain(Dist.from_mass([0.6, 0.4]),
                          Channel.from_matrix([[0.8, 0.2], [0.3, 0.7]]),
                          Channel.from_matrix([[0.7, 0.3], [0.25, 0.75]]),
                          self.noisy_mac(seed))
        fam1 = sample_codebook_family(chain, 3, (2, 1, 1), 0.35, seed=seed,
                                      k_sizes=(2, 1, 1))
        fam2 = sample_codebook_family(chain, 2, (1, 2, 1), 0.45,
                                      seed=seed + 1, k_sizes=(2, 1, 1))
        return WiretapCode(CaseLabel.CASE1, 2.0, 0.45, 0.25, 0.6,
                           (fam1, fam2), (0.0, 0.0, 0.0))

    def duplicate_tie(self, seed=105):
        chain = coupled_chain(self.noisy_mac(seed))
        fam = sample_codebook_family(chain, 5, (3, 1, 1), 0.3, seed=seed)
        u, x, y = fam.u.copy(), fam.x.copy(), fam.y.copy()
        u[0, 2], x[0, 2], y[0, 2] = u[0, 0], x[0, 0], y[0, 0]
        forced = CodebookFamily(chain, 5, (1, 1, 1), (3, 1, 1), 0.3, seed,
                                u, x, y)
        return WiretapCode(CaseLabel.CASE3, 2.0, 0.3, 0.25, None, (forced,),
                           (0.0, 0.0, 0.0))

    def assert_matches(self, code):
        decoded, tuple_err, msg_err, mac_err = reference_errors(code,
                                                                code.delta)
        tuples = list(code.index_tuples())
        assert [None if i < 0 else tuples[i]
                for i in _decode_all(code, code.delta)] == decoded
        est = average_error(code)
        assert est.tuple_error == tuple_err
        assert est.message_error == msg_err
        assert mac_average_error(code) == mac_err
        return decoded

    def test_one_family_case3(self):
        decoded = self.assert_matches(self.one_family_case3())
        assert any(d is not None for d in decoded)

    def test_two_family_time_sharing(self):
        code = self.two_family()
        decoded = self.assert_matches(code)
        assert any(d is not None for d in decoded)
        for t_seq in all_sequences(4, code.n_total)[::7]:
            assert joint_typicality_decode(code, code.delta, t_seq) \
                == reference_decode(code, code.delta, t_seq)

    def test_duplicate_codeword_tie(self):
        code = self.duplicate_tie()
        decoded = self.assert_matches(code)
        dup = ((0, 0, 0), ((0, 0, 0),))
        assert dup not in decoded  # its twin is typical wherever it is
        assert any(d is not None for d in decoded)

    def test_decode_delta_differs_from_code_delta(self):
        code = self.one_family_case3(seed=107)
        tuples = list(code.index_tuples())
        seqs = all_sequences(4, code.n_total)
        for delta in (0.2, 0.45):
            assert delta != code.delta
            assert [None if i < 0 else tuples[i]
                    for i in _decode_all(code, delta)] \
                == [reference_decode(code, delta, t) for t in seqs]

    def test_noisy_bob_channel(self):
        decoded = self.assert_matches(
            self.one_family_case3(seed=109, bob_quality=0.3))
        assert any(d is not None for d in decoded)


    def test_counts_split_across_output_blocks(self, monkeypatch):
        from wtmac import codesim

        monkeypatch.setattr(codesim, "_BLOCK_CELLS", 100)
        self.assert_matches(self.two_family(seed=111))

    def test_absent_base_on_the_boundary(self):
        # the all-zero codeword never uses base (1, 1, 1), whose law mass
        # is 0.25; every present (base, t) deviates by at most 1/8, so the
        # absent base alone decides at delta = 0.25
        chain = coupled_chain(noiseless_bob_mac(), p0=0.75)
        zeros = np.zeros((1, 1, 1, 1, 8), dtype=np.int64)
        fam = CodebookFamily(chain, 8, (1, 1, 1), (1, 1, 1), 0.25, 0,
                             zeros[0, 0], zeros, zeros)
        code = WiretapCode(CaseLabel.CASE3, 2.0, 0.25, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        t_seq = np.array([0, 0, 0, 0, 0, 0, 1, 2])
        for delta, want in ((0.25, ((0, 0, 0), ((0, 0, 0),))),
                            (np.nextafter(0.25, 0.0), None)):
            assert reference_decode(code, delta, t_seq) == want
            assert joint_typicality_decode(code, delta, t_seq) == want


class TestReferenceMonteCarlo:
    """Monte Carlo error against the per-trial loop: the same outputs from
    the same seeded stream, decoded together in one kernel call."""

    codes = TestReferenceDecode()

    def assert_matches(self, monkeypatch, code, trials, seed):
        """Returns the estimate and the drawn outputs."""
        from wtmac import codesim

        seen = []
        decode = codesim._typical_matrix
        monkeypatch.setattr(codesim, "_typical_matrix",
                            lambda *args: seen.append(args[2]) or decode(*args))
        est = average_error(code, mode="mc", trials=trials, seed=seed)
        monkeypatch.undo()
        tuple_err, msg_err, outputs = reference_mc_error(code, trials, seed)
        assert len(seen) == 1 and np.array_equal(seen[0], outputs)
        assert (est.tuple_error, est.message_error) == (tuple_err, msg_err)
        assert est.trials == trials
        return est, outputs

    def test_noisy_bob_channel(self, monkeypatch):
        code = self.codes.one_family_case3(seed=109, bob_quality=0.3)
        est, _ = self.assert_matches(monkeypatch, code, 300, 111)
        assert 0.0 < est.message_error < est.tuple_error < 1.0

    def test_decode_delta_differs_from_code_delta(self, monkeypatch):
        # the Monte Carlo outputs decoded at other deltas than the code's
        code = self.codes.one_family_case3(seed=107)
        for delta, seed in ((0.2, 112), (0.45, 113)):
            assert delta != code.delta
            _, outputs = self.assert_matches(monkeypatch, code, 200, seed)
            for t_seq in outputs:
                assert joint_typicality_decode(code, delta, t_seq) \
                    == reference_decode(code, delta, t_seq)

    def test_two_family_code(self, monkeypatch):
        est, _ = self.assert_matches(monkeypatch, self.codes.two_family(),
                                     300, 114)
        assert 0.0 < est.tuple_error < 1.0


class TestBobChannelShape:
    def test_out_of_alphabet_output_rejected(self):
        code = TestReferenceDecode().one_family_case3()
        with pytest.raises(ValidationError):
            joint_typicality_decode(code, 0.3, np.array([0, 1, 2, 3, 4]))


@st.composite
def random_codes(draw):
    """A random binary chain, one or two codebook families of arbitrary
    (not necessarily typical) codewords at n <= 5, and a decode delta."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(2, 3))
    mac = random_mac(rng, t=t, bob_quality=draw(st.floats(0.0, 0.9)))
    chain = CodeChain(Dist.from_mass(rng.dirichlet([2, 2])),
                      Channel.from_matrix(rng.dirichlet([2, 2], size=2)),
                      Channel.from_matrix(rng.dirichlet([2, 2], size=2)), mac)
    k = (draw(st.integers(1, 2)), draw(st.integers(1, 2)), 1)
    lengths = draw(st.sampled_from([(2,), (3,), (4,), (5,), (2, 2), (3, 2)]))
    families = []
    for n in lengths:
        l = (draw(st.integers(1, 2)), draw(st.integers(1, 2)), 1)
        families.append(CodebookFamily(
            chain, n, k, l, 0.3, 0,
            rng.integers(0, 2, (k[0], l[0], n)),
            rng.integers(0, 2, (k[0], l[0], k[1], l[1], n)),
            rng.integers(0, 2, (k[0], l[0], k[2], l[2], n))))
    code = WiretapCode(CaseLabel.CASE3, 2.0, 0.3, 0.25, None,
                       tuple(families), (0.0, 0.0, 0.0))
    if draw(st.booleans()):
        return code, draw(st.floats(0.02, 0.8))
    # a delta exactly on the typicality boundary of one (codeword, output)
    # pair of the first family, where the comparison's arithmetic decides
    fam = families[0]
    word = fam.codeword((0, 0, 0), (0, 0, 0))
    seg = rng.integers(0, t, fam.n)
    zipped, size = zip_sequences(*word, seg, [2, 2, 2, t])
    freq = np.bincount(zipped, minlength=size).astype(float) / fam.n
    delta = float(np.max(np.abs(freq - chain.decode_law.mass)))
    return code, delta


class TestDecodeProperty:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(random_codes())
    def test_decode_equals_reference_on_every_output(self, drawn):
        code, delta = drawn
        t_size = code.chain.mac.t_alphabet.size
        tuples = list(code.index_tuples())
        seqs = all_sequences(t_size, code.n_total)
        reference = [reference_decode(code, delta, t) for t in seqs]
        assert [joint_typicality_decode(code, delta, t) for t in seqs] \
            == reference
        assert [None if i < 0 else tuples[i]
                for i in _decode_all(code, delta)] == reference


class TestAverageError:
    def build_tiny_code(self, seed=21, l0=3):
        mac = noiseless_bob_mac()
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 6, (l0, 1, 1), 0.25, seed=seed,
                                     k_sizes=(2, 1, 1))
        return WiretapCode(CaseLabel.CASE3, 2.0, 0.25, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))

    def test_noiseless_separated_zero_error(self):
        mac = noiseless_bob_mac()
        fam = TestDecode.separated_family(mac, k0=2, l0=2)
        code = WiretapCode(CaseLabel.CASE3, 2.0, 0.15, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        est = average_error(code, mode="exact")
        assert est.tuple_error <= 1e-12
        assert est.message_error <= 1e-12

    def test_constant_bob_blind_guessing(self):
        rng = np.random.default_rng(22)
        bob = np.tile(rng.dirichlet([1, 1]), (4, 1))
        eve = rng.dirichlet(np.ones(2), size=4)
        mac = WiretapMAC.from_marginals(bob, eve)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 4, (1, 1, 1), 0.3, seed=23,
                                     k_sizes=(3, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        est = average_error(code, mode="exact")
        assert est.message_error >= 1 - 1 / 3 - 1e-9

    def test_exact_matches_mc(self):
        rng = np.random.default_rng(24)
        mac = random_mac(rng, bob_quality=0.9)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 6, (2, 1, 1), 0.3, seed=25,
                                     k_sizes=(2, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        exact = average_error(code, mode="exact")
        mc = average_error(code, mode="mc", trials=1500, seed=26)
        lo, hi = mc.wilson_interval
        assert lo - 1e-9 <= exact.tuple_error <= hi + 1e-9

    def test_uniform_mixing_identity(self):
        code = self.build_tiny_code(seed=27, l0=4)
        est = average_error(code, mode="exact")
        assert est.tuple_error == pytest.approx(mac_average_error(code),
                                                abs=1e-12)


class TestTrialCount:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_non_positive_trials_rejected_in_mc_mode(self, trials):
        code = TestAverageError().build_tiny_code()
        with pytest.raises(ValidationError):
            average_error(code, mode="mc", trials=trials)
        with pytest.raises(ValidationError):
            simulate_report(code, mode="mc", trials=trials)

    def test_exact_mode_ignores_trials(self):
        code = TestAverageError().build_tiny_code()
        assert average_error(code, mode="exact", trials=0) \
            == average_error(code, mode="exact")


class TestChannelRows:
    """The batched row kernel against the per-pair Kronecker reference."""

    def code(self):
        rng = np.random.default_rng(121)
        chain = chain_for(random_mac(rng, t=3, z=3))
        fam1 = sample_codebook_family(chain, 3, (2, 2, 1), 0.4, seed=122,
                                      k_sizes=(2, 1, 1))
        fam2 = sample_codebook_family(chain, 2, (1, 1, 2), 0.5, seed=123,
                                      k_sizes=(2, 1, 1))
        return WiretapCode(CaseLabel.CASE1, 2.0, 0.4, 0.25, 0.6, (fam1, fam2),
                           (0.0, 0.0, 0.0))

    def test_rows_equal_reference(self):
        rng = np.random.default_rng(124)
        matrix = rng.dirichlet(np.ones(3), size=6)  # |X| = 3, |Y| = 2
        xs = rng.integers(0, 3, (7, 4))
        ys = rng.integers(0, 2, (7, 4))
        rows = _channel_rows(matrix, xs, ys, 2)
        assert rows.shape == (7, 3 ** 4)
        for x, y, row in zip(xs, ys, rows):
            assert np.array_equal(row, reference_channel_row(matrix, x, y, 2))
        # one y broadcast against many x, and a single pair
        shared = _channel_rows(matrix, xs, ys[0], 2)
        for x, row in zip(xs, shared):
            assert np.array_equal(row, reference_channel_row(matrix, x, ys[0], 2))
        assert np.array_equal(_channel_rows(matrix, xs[3], ys[3], 2)[0],
                              reference_channel_row(matrix, xs[3], ys[3], 2))

    def test_bob_and_eve_rows_equal_reference(self):
        code = self.code()
        mac = code.chain.mac
        tuples = list(code.index_tuples())
        rows = _bob_rows(code)
        want = [reference_channel_row(mac.bob.matrix, *code.codeword_pair(k, ls),
                                      mac.y_alphabet.size) for k, ls in tuples]
        assert np.array_equal(rows, np.array(want))
        cond = eavesdropper_conditionals(code)
        for i, k in enumerate(code.messages()):
            per_l = [reference_channel_row(mac.eve.matrix,
                                           *code.codeword_pair(k2, ls),
                                           mac.y_alphabet.size)
                     for k2, ls in tuples if k2 == k]
            assert np.array_equal(cond[i], np.mean(per_l, axis=0))


class TestLeakage:
    def test_constant_eve_zero(self):
        rng = np.random.default_rng(31)
        mac = constant_eve_mac(rng)
        chain = chain_for(mac)
        fam = sample_codebook_family(chain, 4, (2, 1, 1), 0.3, seed=32,
                                     k_sizes=(2, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        assert exact_leakage(code) <= 1e-12

    def test_single_message_zero(self):
        rng = np.random.default_rng(33)
        mac = random_mac(rng)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 4, (2, 1, 1), 0.3, seed=34)
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        assert exact_leakage(code) == pytest.approx(0.0, abs=1e-12)

    def test_matches_joint_mutual_information(self):
        # independent oracle: assemble the (message, output) joint and reuse
        # the generic mutual-information path
        rng = np.random.default_rng(35)
        mac = random_mac(rng)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 5, (2, 1, 1), 0.3, seed=36,
                                     k_sizes=(2, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        cond = eavesdropper_conditionals(code)
        from wtmac.probkit import Alphabet, JointDist, mutual_information

        joint = JointDist((Alphabet(cond.shape[0]), Alphabet(cond.shape[1])),
                          cond / cond.shape[0])
        oracle = mutual_information(joint, {0}, {1})
        assert exact_leakage(code) == pytest.approx(oracle, abs=1e-9)

    def test_chain_bound_holds(self):
        rng = np.random.default_rng(37)
        held = 0
        for trial in range(12):
            mac = random_mac(rng, bob_quality=0.5)
            chain = coupled_chain(mac)
            fam = sample_codebook_family(chain, 5, (4, 1, 1), 0.35,
                                         seed=38 + trial, k_sizes=(2, 1, 1))
            code = WiretapCode(CaseLabel.CASE3, 1.5, 0.35, 0.25, None, (fam,),
                               (0.0, 0.0, 0.0))
            rep = leakage_chain_check(code)
            if rep.premise_holds:
                held += 1
                assert rep.holds, rep
        assert held >= 3

    def test_variation_bound_formula(self):
        assert secrecy_from_variation(0.5, 2, 1) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(PreconditionError):
            secrecy_from_variation(0.6, 2, 4)
        # continuity toward zero
        assert secrecy_from_variation(1e-9, 2, 4) < 1e-7


class TestEveMapError:
    def test_constant_eve_blind_guessing(self):
        rng = np.random.default_rng(41)
        mac = constant_eve_mac(rng)
        chain = chain_for(mac)
        fam = sample_codebook_family(chain, 4, (1, 1, 1), 0.3, seed=42,
                                     k_sizes=(4, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        assert eve_map_error(code) == pytest.approx(1 - 1 / 4, abs=1e-12)

    def test_noiseless_eve_decodes(self):
        eve = np.eye(4)
        bob = np.full((4, 3), 1 / 3)
        mac = WiretapMAC.from_marginals(bob, eve)
        fam = TestDecode.separated_family(mac, k0=2, l0=1)
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.15, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        assert eve_map_error(code) <= 1e-12

    def test_fano_consistency(self):
        rng = np.random.default_rng(44)
        for trial in range(8):
            mac = random_mac(rng, bob_quality=0.5)
            chain = coupled_chain(mac)
            fam = sample_codebook_family(chain, 5, (3, 1, 1), 0.35,
                                         seed=45 + trial, k_sizes=(2, 1, 1))
            code = WiretapCode(CaseLabel.CASE3, 1.5, 0.35, 0.25, None, (fam,),
                               (0.0, 0.0, 0.0))
            leak = exact_leakage(code)
            err = eve_map_error(code)
            k = code.message_count
            assert err >= 1 - (leak + 1) / math.log2(k) - 1e-9


class TestChernoff:
    def test_zero_count_vacuous(self):
        assert chernoff_bound(0, 0.25, 0.5, 1.0) == 1.0

    def test_direct_evaluation(self):
        val = chernoff_bound(64, 0.25, 1.0, 1.0)
        assert val == pytest.approx(math.exp(-64 * 0.0625 / (2 * math.log(2))),
                                    abs=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(PreconditionError):
            chernoff_bound(8, 0.6, 0.5, 1.0)
        with pytest.raises(PreconditionError):
            chernoff_bound(8, 0.25, 2.0, 1.0)

    def test_empirical_bernoulli(self):
        rng = np.random.default_rng(46)
        for count, eps in ((32, 0.25), (128, 0.1)):
            mu = 0.5
            batches = rng.random((4000, count)) < mu
            means = batches.mean(axis=1)
            upper = float(np.mean(means > (1 + eps) * mu))
            lower = float(np.mean(means < (1 - eps) * mu))
            bound = chernoff_bound(count, eps, mu, 1.0)
            sigma = 3 * math.sqrt(bound * (1 - bound) / 4000 + 1e-12)
            assert upper <= bound + sigma
            assert lower <= bound + sigma


class TestConcentration:
    def chain(self, seed=51):
        rng = np.random.default_rng(seed)
        mac = random_mac(rng, bob_quality=0.5)
        return CodeChain(Dist.from_mass([0.55, 0.45]),
                         Channel.from_matrix([[0.8, 0.2], [0.25, 0.75]]),
                         Channel.from_matrix([[0.7, 0.3], [0.2, 0.8]]), mac)

    def test_vacuous_regime_flagged(self):
        chain = self.chain()
        fam = sample_codebook_family(chain, 4, (2, 2, 1), 0.4, seed=52)
        rep = concentration_report(fam, eps=0.45, resamples=20, seed=53)
        assert any(c.vacuous for c in rep.checks)
        assert rep.passed

    def test_constant_eve_mean_checks_never_fail(self):
        rng = np.random.default_rng(54)
        mac = constant_eve_mac(rng)
        chain = CodeChain(Dist.uniform(2),
                          Channel.from_matrix([[0.8, 0.2], [0.3, 0.7]]),
                          Channel.from_matrix([[0.6, 0.4], [0.25, 0.75]]), mac)
        fam = sample_codebook_family(chain, 5, (2, 3, 1), 0.35, seed=55)
        rep = concentration_report(fam, eps=0.3, resamples=40, seed=56)
        for check in rep.checks:
            if "corridor" in check.name:
                assert check.empirical == pytest.approx(0.0, abs=1e-12)

    def test_case3_shape(self):
        chain = self.chain(seed=57)
        fam = sample_codebook_family(chain, 5, (6, 1, 1), 0.35, seed=58)
        rep = concentration_report(fam, eps=0.3, resamples=60, seed=59)
        names = [c.name for c in rep.checks]
        assert any("typical-fraction" in n for n in names)
        assert any("family-mean" in n for n in names)
        assert rep.passed, [c.to_json_dict() for c in rep.checks if c.exceeded]

    def test_case1_shape_runs_all_lemmas(self):
        chain = self.chain(seed=60)
        fam = sample_codebook_family(chain, 4, (2, 2, 2), 0.45, seed=61)
        rep = concentration_report(fam, eps=0.35, resamples=25, seed=62)
        assert len(rep.checks) == 4
        assert rep.passed, [c.to_json_dict() for c in rep.checks if c.exceeded]

    def test_report_json(self):
        chain = self.chain(seed=63)
        fam = sample_codebook_family(chain, 4, (4, 1, 1), 0.4, seed=64)
        obj = concentration_report(fam, eps=0.3, resamples=15,
                                   seed=65).to_json_dict()
        assert obj["params"]["n"] == 4 and isinstance(obj["checks"], list)
        # the fixed slack and tail exponent stay in every report's params
        assert (obj["params"]["slack"], obj["params"]["tail_exponent"]) \
            == (DEFAULT_SLACK, DEFAULT_TAIL_EXPONENT)


class TestConcentrationContract:
    """Check names, event counts and notes of each family shape, derived from
    the L sizes and the resample count."""

    INNER = "typical-fraction (inner sequences vs partner)"
    CORRIDOR = "inner-mean corridor (per output sequence)"
    ESTIMATED = "outer reference measure estimated from the resamples"

    def report(self, l_sizes, resamples):
        chain = TestConcentration().chain(seed=131)
        fam = sample_codebook_family(chain, 4, l_sizes, 0.45, seed=132)
        return concentration_report(fam, eps=0.3, resamples=resamples, seed=133)

    def expected(self, l_sizes, r):
        l0, _, l2 = l_sizes
        if l_sizes[1:] == (1, 1):
            return ([("typical-fraction (shared-index pairs)", r, ""),
                     ("family-mean corridor (exact reference)", r, "")], ())
        inner = [(self.INNER, r * l0 * l2, ""), (self.CORRIDOR, r * l0 * l2, "")]
        estimated = "reference measure estimated from resamples"
        if l2 == 1:
            outer = [("family-mean corridor (single partner, estimated "
                      "reference)", r, estimated)]
        else:
            outer = [("pair-mean corridor (per shared sequence)", r * l0, ""),
                     ("family-mean corridor (common index, estimated "
                      "reference)", r, estimated)]
        return inner + outer, (self.ESTIMATED,)

    @pytest.mark.parametrize("l_sizes", [(3, 1, 1), (2, 3, 1), (3, 2, 2)])
    @pytest.mark.parametrize("resamples", [1, 4])
    def test_checks_events_and_notes(self, l_sizes, resamples):
        rep = self.report(l_sizes, resamples)
        checks, notes = self.expected(l_sizes, resamples)
        assert [(c.name, c.events, c.note) for c in rep.checks] == checks
        assert rep.notes == notes and not rep.partial
        for c in rep.checks:
            assert c.vacuous == (c.bound >= 1.0)
            sigma3 = 3.0 * math.sqrt(
                max(c.empirical * (1.0 - c.empirical), 1e-12) / c.events)
            assert c.exceeded == (c.bound < 1.0
                                  and c.empirical - sigma3 > c.bound)

    def test_exceeded_only_beyond_three_sigma(self):
        # 3 sigma at freq 0.2 over 10 events is 0.379; over 10^4 it is 0.012
        assert not _check("c", 0.1, 0.2, 10).exceeded
        assert _check("c", 0.1, 0.2, 10_000).exceeded
        assert not _check("c", 0.19, 0.2, 10_000).exceeded
        vacuous = _check("c", 1.0, 1.0, 10_000)
        assert vacuous.vacuous and not vacuous.exceeded

    @pytest.mark.parametrize("l_sizes", [(3, 1, 1), (2, 3, 1), (3, 2, 2)])
    @pytest.mark.parametrize("resamples", [0, -2])
    def test_non_positive_resamples_rejected(self, l_sizes, resamples):
        with pytest.raises(PreconditionError):
            self.report(l_sizes, resamples)

    def test_typical_supports_match_truncated_laws(self):
        chain = TestConcentration().chain(seed=134)
        n, delta = 5, 0.35
        ws = _Workspace(chain, n, delta, 0.3)
        useqs, pu = ws.typical_given(chain.p_u)
        law = truncated_typical_dist(chain.p_u, n, delta)
        assert len(useqs) == int((law.mass > 0).sum())
        assert [float(m) for m in pu] == [sequence_mass(law, s) for s in useqs]
        for useq in useqs:
            for given in (chain.x_given_u, chain.y_given_u):
                seqs, masses = ws.typical_given(given, useq)
                law = truncated_typical_dist(given, n, delta, useq)
                assert len(seqs) == int((law.mass > 0).sum())
                assert [float(m) for m in masses] \
                    == [sequence_mass(law, s) for s in seqs]


@st.composite
def random_chains(draw):
    """A random (U, X|U, Y|U) chain on a random MAC, with |U| in {1, 2, 3}
    and the other alphabets of size 2 or 3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = draw(st.integers(1, 3))
    x, y, t, z = (draw(st.integers(2, 3)) for _ in range(4))
    mac = WiretapMAC.from_rows(rng.dirichlet(np.ones(t * z), size=x * y),
                               x, y, t, z)
    return CodeChain(Dist.from_mass(rng.dirichlet(np.ones(u))),
                     Channel.from_matrix(rng.dirichlet(np.ones(x), size=u)),
                     Channel.from_matrix(rng.dirichlet(np.ones(y), size=u)), mac)


CHAIN_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                          database=None)


class TestProfileReaders:
    """The code layer reads its informations from the chain's profile; each
    one matches its definition as a mutual information of the joint."""

    @CHAIN_SETTINGS
    @given(random_chains(), st.sampled_from(list(CaseLabel)),
           st.sampled_from([0.0, 1.0]) | st.floats(0.01, 0.99))
    def test_case_j_values_match_reference(self, chain, case, alpha):
        got = randomization_rates(chain.profile, case, alpha)
        want = reference_case_j_values(chain, case, alpha)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)

    @CHAIN_SETTINGS
    @given(random_chains())
    def test_workspace_informations_match_definitions(self, chain):
        # (U, X, Y, T, Z) = axes 0..4 of the chain's joint
        ws = _Workspace(chain, 3, 0.3, 0.3)
        j = chain.joint
        for got, (a, b, c) in ((ws.i_z_x_yu, ({4}, {1}, {2, 0})),
                               (ws.i_z_y_u, ({4}, {2}, {0})),
                               (ws.i_z_xy, ({4}, {1, 2}, ())),
                               (ws.i_z_u, ({4}, {0}, ())),
                               (ws.i_z_yu, ({4}, {2, 0}, ()))):
            assert got == pytest.approx(mutual_information(j, a, b, c),
                                        rel=0.0, abs=1e-12)


class TestWorkspaceReferences:
    """The workspace's stacked channel rows against the per-pair loops in
    ``tests/_support.py``: values to 1e-14, and each support mask equal
    wherever its measure lies more than 1e-12 from the cut."""

    @CHAIN_SETTINGS
    @given(random_chains())
    def test_case3_theta_matches_triple_loop(self, chain):
        ws = _Workspace(chain, 3, 0.45, 0.3)
        theta_hat, f3 = ws.theta_case3()
        theta = reference_case3_theta(ws)
        cut = ws.eps / max(ws.t_z_plain, 1)
        far = np.abs(theta - cut) > 1e-12
        assert np.array_equal(f3[far],
                              (ws.t_z_big_mask & (theta >= cut))[far])
        assert np.allclose(theta_hat, theta * f3, rtol=0.0, atol=1e-14)

    @staticmethod
    def check_theta_uy(ws, useq, yseq):
        theta_hat, f1 = ws.theta_uy(useq, yseq)[:2]
        theta, zy = reference_theta_uy(ws, useq, yseq)
        cut = ws.eps / max(int(zy.sum()), 1)
        far = np.abs(theta - cut) > 1e-12
        assert np.array_equal(f1[far], (zy & (theta >= cut))[far])
        assert not np.any(f1 & ~zy)
        assert np.allclose(theta_hat, theta * f1, rtol=0.0, atol=1e-14)

    def check_inner_and_pair_rows(self, ws, fam):
        for a in range(fam.l_sizes[0]):
            useq = fam.u[0, a]
            for yseq in fam.y[0, a, 0]:
                self.check_theta_uy(ws, useq, yseq)
            mean, ref = pair_mean(ws, fam, a)
            want, want_ref = reference_pair_mean(ws, fam, a)
            assert np.allclose(mean, want, rtol=0.0, atol=1e-14)
            assert ref is want_ref

    # n * delta = 1 keeps every typical set non-empty: rounding n * P to
    # counts is off by less than 1 per symbol
    @CHAIN_SETTINGS
    @given(random_chains(),
           st.sampled_from([(3, 1, 1), (2, 2, 1), (2, 2, 2), (1, 3, 2)]),
           st.integers(0, 2**16))
    def test_inner_and_pair_rows_match_pair_loops(self, chain, l_sizes, seed):
        ws = _Workspace(chain, 5, 0.2, 0.3)
        self.check_inner_and_pair_rows(
            ws, sample_codebook_family(chain, 5, l_sizes, 0.2, seed=seed))

    @staticmethod
    def skewed_chain(y_given_u):
        # u mostly 0; the Z law of (y, u) = (1, 0) (z = 0 w.p. 0.905) is far
        # from that of (y, u) = (0, 1) (z = 1 w.p. 0.896), so at n = 8 the
        # typical output masks given (y, u) depend on y
        we = np.array([[0.4, 0.6], [0.95, 0.05], [0.03, 0.97], [0.5, 0.5]])
        bob = np.array([[0.9, 0.1], [0.1, 0.9], [0.8, 0.2], [0.3, 0.7]])
        mac = WiretapMAC.from_rows(np.einsum("it,iz->itz", bob, we)
                                   .reshape(4, 4), 2, 2, 2, 2)
        return CodeChain(Dist.from_mass([0.9, 0.1]),
                         Channel.from_matrix([[0.9, 0.1], [0.2, 0.8]]),
                         Channel.from_matrix(y_given_u), mac)

    def test_typical_output_mask_cuts_inner_rows(self):
        # the mask given (y, u) has width 2 |X| delta = 0.25 at n = 8; with
        # y = 1 - u, the context (y, u) = (1, 0) fills most positions, so
        # reading (y, u) the wrong way round moves the support f1
        chain = self.skewed_chain([[0.0, 1.0], [1.0, 0.0]])
        ws = _Workspace(chain, 8, 0.125, 0.3)
        fam = sample_codebook_family(chain, 8, (2, 2, 1), 0.125, seed=0)
        _, zy = reference_theta_uy(ws, fam.u[0, 0], fam.y[0, 0, 0, 0])
        assert not zy.all()
        self.check_inner_and_pair_rows(ws, fam)

    # the ys one u's fill reads in _pair_checks: its partners (Case 2), or
    # its partners and every typical y given it (Case 1)
    def check_stacked_fill(self, chain, n, delta, fam):
        """Fills one u's ys at once and compares every entry with the
        per-key path and the reference; returns the ys' typical output
        masks."""
        stacked = _Workspace(chain, n, delta, 0.3)
        per_key = _Workspace(chain, n, delta, 0.3)
        masks = []
        for useq, partners in zip(fam.u[0], fam.y[0, :, 0]):
            ys = partners if fam.l_sizes[2] == 1 else np.concatenate(
                [partners, stacked.typical_given(chain.y_given_u, useq)[0]])
            stacked.fill_uy(useq, ys)
            for yseq in ys:
                got = stacked._uy_cache[(useq.tobytes(), yseq.tobytes())]
                want = per_key.theta_uy(useq, yseq)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
                self.check_theta_uy(stacked, useq, yseq)
                masks.append(reference_z_mask(stacked, useq, yseq))
        return masks

    @CHAIN_SETTINGS
    @given(random_chains(), st.sampled_from([1, 3]), st.integers(0, 2**16))
    def test_stacked_theta_uy_fill_matches_per_key_path(self, chain, l2, seed):
        self.check_stacked_fill(
            chain, 4, 0.25,
            sample_codebook_family(chain, 4, (2, 2, l2), 0.25, seed=seed))

    def test_stacked_fill_reads_each_ys_own_output_mask(self):
        # at n = 4 the masks given (y, u) of a random chain hold almost
        # every output; here they differ from y to y
        chain = self.skewed_chain([[0.25, 0.75], [0.75, 0.25]])
        for l2 in (1, 3):
            fam = sample_codebook_family(chain, 8, (2, 2, l2), 0.125, seed=7)
            masks = self.check_stacked_fill(chain, 8, 0.125, fam)
            assert len({m.tobytes() for m in masks}) > 1

    @CHAIN_SETTINGS
    @given(random_chains(), st.integers(0, 2**16))
    def test_theta_u_matches_per_y_loop(self, chain, seed):
        ws = _Workspace(chain, 5, 0.2, 0.3)
        fam = sample_codebook_family(chain, 5, (3, 1, 1), 0.2, seed=seed)
        for useq in fam.u[0]:
            theta_hat, f2 = ws.theta_u(useq)
            theta, zmask = reference_theta_u(ws, useq)
            cut = ws.eps / max(int(zmask.sum()), 1)
            far = np.abs(theta - cut) > 1e-12
            assert np.array_equal(f2[far], (zmask & (theta >= cut))[far])
            assert np.allclose(theta_hat, theta * f2, rtol=0.0, atol=1e-14)


class TestPairChecks:
    """The stacked Case-1/2 checks against the per-check walks over the
    resampled families in ``tests/_support.py``."""

    # 1 to 6 resamples: a single family, and more families than shared
    # indices
    @CHAIN_SETTINGS
    @given(random_chains(), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**16))
    def test_report_matches_per_check_reference(self, chain, l0, l1, l2,
                                                resamples, seed):
        assume((l1, l2) != (1, 1))
        n, delta, eps = 4, 0.25, 0.3
        l_sizes = (l0, l1, l2)
        fam = sample_codebook_family(chain, n, l_sizes, delta, seed=seed)
        rep = concentration_report(fam, eps=eps, resamples=resamples,
                                   seed=seed)
        # the resampled families of concentration_report, rebuilt
        ws = _Workspace(chain, n, delta, eps)
        fams = [sample_codebook_family(chain, n, l_sizes, delta,
                                       seed + 7919 * i)
                for i in range(resamples)]
        want = ConcentrationReport(reference_pair_checks(ws, fams), rep.params,
                                   notes=rep.notes)
        assert rep.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("l_sizes", [(2, 2, 2), (3, 2, 3), (3, 2, 1),
                                         (1, 4, 1)])
    def test_each_family_mean_computed_once(self, monkeypatch, l_sizes):
        # one stacked pass over all resamples: once a first pass has filled
        # the theta_uy and theta_u caches, a second makes one typicality test
        # and one channel-row call per cell-budget block, at any resample
        # count; blocks of one (family, shared index) each, in the pass and
        # in a cold fill, leave the checks unchanged
        chain = TestConcentration().chain(seed=131)
        n, delta = 4, 0.45

        def counted_pass(ws, fams):
            calls = {"_channel_rows": 0, "_typical_rows": 0}
            with monkeypatch.context() as patch:
                for name in calls:
                    def counted(*args, _kernel=getattr(concentration, name),
                                _name=name):
                        calls[_name] += 1
                        return _kernel(*args)
                    patch.setattr(concentration, name, counted)
                return concentration._pair_checks(ws, fams), calls

        for resamples in (5, 50):
            ws = _Workspace(chain, n, delta, 0.3)
            fams = sample_codebook_families(chain, n, l_sizes, delta,
                                            [133 + 7919 * i
                                             for i in range(resamples)])
            first = concentration._pair_checks(ws, fams)
            assert counted_pass(ws, fams) == (
                first, {"_channel_rows": 1, "_typical_rows": 1})
            with monkeypatch.context() as patch:
                patch.setattr(concentration, "ROW_BLOCK_CELLS", 1)
                assert counted_pass(ws, fams) == (
                    first, {"_channel_rows": resamples * l_sizes[0],
                            "_typical_rows": 1})
                cold = _Workspace(chain, n, delta, 0.3)
                assert concentration._pair_checks(cold, fams) == first


class TestCase3Checks:
    """The stacked Case-3 checks against the per-family loop in
    ``tests/_support.py``, and the work each report does."""

    # n * delta >= 1 keeps every typical set non-empty
    @CHAIN_SETTINGS
    @given(random_chains(), st.integers(1, 4), st.integers(0, 2**16))
    def test_report_matches_per_family_reference(self, chain, l0, seed):
        n, delta, eps, resamples = 4, 0.3, 0.3, 5
        fam = sample_codebook_family(chain, n, (l0, 1, 1), delta, seed=seed)
        rep = concentration_report(fam, eps=eps, resamples=resamples,
                                   seed=seed)
        ws = _Workspace(chain, n, delta, eps)
        fams = [sample_codebook_family(chain, n, (l0, 1, 1), delta,
                                       seed + 7919 * i)
                for i in range(resamples)]
        want = ConcentrationReport(reference_case3_checks(ws, fams, l0),
                                   rep.params)
        assert rep.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("budget", [1, 2 * 3 * 2**5, 10 * 2**5])
    def test_cell_budget_blocks_keep_theta_and_report(self, monkeypatch,
                                                      budget):
        chain = TestConcentration().chain(seed=57)
        fam = sample_codebook_family(chain, 5, (3, 1, 1), 0.35, seed=58)
        ws = _Workspace(chain, 5, 0.35, 0.3)
        theta = ws.theta_case3()
        rep = concentration_report(fam, eps=0.3, resamples=7, seed=59)
        monkeypatch.setattr(concentration, "ROW_BLOCK_CELLS", budget)
        blocked = _Workspace(chain, 5, 0.35, 0.3).theta_case3()
        assert all(np.array_equal(a, b) for a, b in zip(theta, blocked))
        assert (concentration_report(fam, eps=0.3, resamples=7,
                                     seed=59).to_json_dict()
                == rep.to_json_dict())

    def test_one_family_draw_per_report_one_row_call_per_u(self,
                                                           monkeypatch):
        draws = []
        draw = concentration.sample_codebook_families

        def counted_draw(*args, **kwargs):
            draws.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(concentration, "sample_codebook_families",
                            counted_draw)
        row_calls = []
        rows = _Workspace.outer_rows

        def counted_rows(self, xs, ys):
            row_calls.append(len(xs))
            return rows(self, xs, ys)

        monkeypatch.setattr(_Workspace, "outer_rows", counted_rows)
        chain = TestConcentration().chain(seed=57)
        for l_sizes in ((3, 1, 1), (2, 2, 2)):
            draws.clear()
            fam = sample_codebook_family(chain, 5, l_sizes, 0.35, seed=58)
            rep = concentration_report(fam, eps=0.3, resamples=7, seed=59)
            assert not rep.partial
            assert len(draws) == 1 and len(draws[0][4]) == 7
        ws = _Workspace(chain, 5, 0.35, 0.3)
        row_calls.clear()
        ws.theta_case3()
        useqs = ws.typical_given(chain.p_u)[0]
        assert len(row_calls) == len(useqs)
        ys = [len(ws.typical_given(chain.y_given_u, u)[0]) for u in useqs]
        assert max(ys) > 1


class TestSimReport:
    def test_full_report(self):
        rng = np.random.default_rng(71)
        mac = random_mac(rng, bob_quality=0.8)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 5, (2, 1, 1), 0.3, seed=72,
                                     k_sizes=(2, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        rep = simulate_report(code)
        assert 0.0 <= rep.tuple_error <= 1.0
        assert rep.leakage_bits >= -1e-12
        assert rep.message_count == 2
        assert rep.to_json_dict()["n_total"] == 5

    def test_determinism(self):
        rng = np.random.default_rng(73)
        mac = random_mac(rng, bob_quality=0.8)
        chain = coupled_chain(mac)
        fam1 = sample_codebook_family(chain, 5, (2, 1, 1), 0.3, seed=74,
                                      k_sizes=(2, 1, 1))
        fam2 = sample_codebook_family(chain, 5, (2, 1, 1), 0.3, seed=74,
                                      k_sizes=(2, 1, 1))
        c1 = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam1,),
                         (0.0, 0.0, 0.0))
        c2 = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam2,),
                         (0.0, 0.0, 0.0))
        assert simulate_report(c1) == simulate_report(c2)

    def test_one_eavesdropper_computation_per_audit(self, monkeypatch):
        # simulate_report reads the leakage, the variation and the MAP error,
        # and leakage_chain_check reads the variation and the leakage again:
        # five readers of the conditionals, which the code computes once
        from wtmac import codesim

        rng = np.random.default_rng(75)
        mac = random_mac(rng, bob_quality=0.8)
        fam = sample_codebook_family(coupled_chain(mac), 5, (2, 1, 1), 0.3,
                                     seed=76, k_sizes=(2, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        compute = codesim.eavesdropper_conditionals
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return compute(*args, **kwargs)

        monkeypatch.setattr(codesim, "eavesdropper_conditionals", counting)
        rep = simulate_report(code)
        chain_rep = leakage_chain_check(code)
        assert len(calls) == 1
        assert not code.eve_conditionals.flags.writeable
        assert np.array_equal(code.eve_conditionals, compute(code))
        assert chain_rep.leakage == rep.leakage_bits
        # the leakage takes w_e=None, as the benchmark's wrapper passes it,
        # and refuses any other eavesdropper
        assert exact_leakage(code, None) == rep.leakage_bits
        with pytest.raises(ValidationError):
            exact_leakage(code, mac.eve)
        assert len(calls) == 1


class TestBudgets:
    def test_exact_error_budget(self):
        rng = np.random.default_rng(81)
        mac = random_mac(rng, t=4)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 12, (8, 2, 2), 0.45, seed=82)
        code = WiretapCode(CaseLabel.CASE3, 3.0, 0.45, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        from wtmac.errors import ResourceBudgetError

        with pytest.raises(ResourceBudgetError):
            average_error(code, mode="exact")

    def test_concentration_budget_partial_report(self):
        rng = np.random.default_rng(83)
        mac = random_mac(rng, z=6)
        chain = coupled_chain(mac)
        fam = sample_codebook_family(chain, 10, (1, 2, 1), 0.45, seed=84)
        rep = concentration_report(fam, eps=0.3, resamples=2, seed=85)
        assert rep.partial and not rep.checks
        assert any("budget" in n for n in rep.notes)


class TestTimeSharing:
    def two_family_code(self, seed=91):
        mac = noiseless_bob_mac()
        chain = coupled_chain(mac)
        fam1 = sample_codebook_family(chain, 4, (2, 1, 1), 0.3, seed=seed,
                                      k_sizes=(2, 1, 1))
        fam2 = sample_codebook_family(chain, 3, (1, 2, 1), 0.4, seed=seed + 1,
                                      k_sizes=(2, 1, 1))
        return WiretapCode(CaseLabel.CASE1, 2.0, 0.4, 0.25, 0.57,
                           (fam1, fam2), (0.0, 0.0, 0.0))

    def test_concatenated_codewords(self):
        code = self.two_family_code()
        assert code.n_total == 7
        (k, ls) = next(code.index_tuples())
        xseq, yseq = code.codeword_pair(k, ls)
        assert xseq.shape == (7,) and yseq.shape == (7,)
        assert np.array_equal(xseq[:4], code.families[0].codeword(k, ls[0])[1])
        assert np.array_equal(xseq[4:], code.families[1].codeword(k, ls[1])[1])

    def test_decode_requires_both_halves(self):
        code = self.two_family_code()
        k, ls = (0, 0, 0), ((0, 0, 0), (0, 0, 0))
        xseq, yseq = code.codeword_pair(k, ls)
        t = 2 * xseq + yseq  # noiseless pair output
        out = joint_typicality_decode(code, 0.4, t)
        if out is not None:
            assert out[0] == k
        # corrupt only the second half beyond the typicality slack
        t_bad = t.copy()
        t_bad[4:] = (t_bad[4:] + 2) % 4
        bad = joint_typicality_decode(code, 0.05, t_bad)
        assert bad is None or bad != (k, ls)

    def test_exact_error_and_leakage_run(self):
        code = self.two_family_code(seed=93)
        est = average_error(code, mode="exact")
        assert 0.0 <= est.tuple_error <= 1.0
        assert est.message_error <= est.tuple_error + 1e-12
        assert est.tuple_error == pytest.approx(mac_average_error(code),
                                                abs=1e-12)
        leak = exact_leakage(code)
        assert -1e-12 <= leak <= 1.0 + 1e-12  # one message bit

    def test_randomness_rate_sums_over_families(self):
        code = self.two_family_code()
        assert code.common_randomness_rate == pytest.approx(
            (math.log2(2) + math.log2(1)) / 7, abs=1e-15)


class TestBuiltCodeEndToEnd:
    def test_case1_build_and_simulate(self):
        # a full Case-1 build (shared randomness plus both private
        # randomizations) pushed through the complete audit
        rng = np.random.default_rng(95)
        mac = constant_eve_mac(rng, t=4)
        chain = chain_for(mac,
                          x_given_u=Channel.from_matrix([[0.85, 0.15],
                                                         [0.2, 0.8]]),
                          y_given_u=Channel.from_matrix([[0.75, 0.25],
                                                         [0.15, 0.85]]))
        code = build_wiretap_code(chain, CaseLabel.CASE1, (0.0, 0.0, 0.0),
                                  hc=2.0, n=3, delta=0.45, slack=0.3, seed=96,
                                  alpha=1.0)
        l0, l1, l2 = code.families[0].l_sizes
        assert l0 > 1 and l1 > 1 and l2 > 1
        rep = simulate_report(code)
        assert rep.leakage_bits <= 1e-12  # blind eavesdropper
        assert 0.0 <= rep.tuple_error <= 1.0
        assert rep.common_randomness_rate <= 2.0

    def test_mc_mode_from_cli_surface(self):
        rng = np.random.default_rng(97)
        mac = constant_eve_mac(rng)
        chain = chain_for(mac)
        fam = sample_codebook_family(chain, 4, (2, 1, 1), 0.3, seed=98,
                                     k_sizes=(2, 1, 1))
        code = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                           (0.0, 0.0, 0.0))
        rep = simulate_report(code, mode="mc", trials=400, seed=5)
        assert rep.error_mode == "mc" and rep.wilson_interval is not None
