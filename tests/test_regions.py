from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from _support import reference_elementary_region
from wtmac import conferencing, regions
from wtmac.casestudy import discussion_channels, example62_channels
from wtmac.conferencing import CONF_COEFFS, region_conferencing
from wtmac.errors import (
    PreconditionError,
    ResourceBudgetError,
    ValidationError,
)
from wtmac.probkit import (
    AX_T,
    AX_U,
    AX_V1,
    AX_V2,
    AX_Z,
    Channel,
    Dist,
    FactoredInput,
    JointDist,
    WiretapMAC,
    mutual_information,
)
from wtmac.regions import (
    RATE_COEFFS,
    RATE_NAMES,
    AlphaBounds,
    CaseLabel,
    RatePolytope,
    alpha_bounds_case1,
    alpha_bounds_case2,
    classify_case,
    classify_profile,
    elementary_region,
    info_profile,
    info_profiles,
    random_hull_instance,
    random_union_instance,
    randomization_rates,
    region_common,
    verify_convexhull_lemma,
    verify_union_lemma,
)

WB_62 = np.array([[0.6178, 0.3822], [0.0624, 0.9376],
                  [0.9350, 0.0650], [0.2353, 0.7647]])
WE_62 = np.array([[0.0729, 0.9271], [0.7264, 0.2736],
                  [0.3662, 0.6338], [0.4643, 0.5357]])


def example62_input():
    mac = WiretapMAC.from_marginals(WB_62, WE_62)
    return FactoredInput.independent(Dist.from_mass([0.6933, 0.3067]),
                                     Dist.from_mass([0.3151, 0.6849]), mac)


def random_mac(rng, x=2, y=2, t=2, z=2, bob_quality=0.0):
    """Random MAC; bob_quality > 0 mixes Bob's marginal toward a clean channel."""
    rows_b = rng.dirichlet(np.ones(t), size=x * y)
    if bob_quality > 0:
        clean = np.eye(t)[rng.integers(0, t, size=x * y)]
        rows_b = (1 - bob_quality) * rows_b + bob_quality * clean
    rows_e = rng.dirichlet(np.ones(z), size=x * y)
    rows = np.einsum("it,iz->itz", rows_b, rows_e).reshape(x * y, t * z)
    return WiretapMAC.from_rows(rows, x, y, t, z)


def random_factored(rng, mac, u=2, v1=2, v2=2):
    return FactoredInput(
        Dist.from_mass(rng.dirichlet(np.ones(u))),
        Channel.from_matrix(rng.dirichlet(np.ones(v1), size=u)),
        Channel.from_matrix(rng.dirichlet(np.ones(v2), size=u)),
        Channel.from_matrix(rng.dirichlet(np.ones(mac.x_alphabet.size), size=v1)),
        Channel.from_matrix(rng.dirichlet(np.ones(mac.y_alphabet.size), size=v2)),
        mac,
    )


def constant_eve_mac(rng, t=2):
    rows_b = rng.dirichlet(np.ones(t), size=4)
    rows_e = np.tile(rng.dirichlet(np.ones(2)), (4, 1))
    rows = np.einsum("it,iz->itz", rows_b, rows_e).reshape(4, -1)
    return WiretapMAC.from_rows(rows, 2, 2, t, 2)


from _support import (  # noqa: E402  (shared generator and references)
    case2_sum_bound_min_form,
    hull_family,
    reference_alpha_windows,
    reference_hull,
    reference_info_profile,
    reference_ray_points,
    reference_union_cover,
    reference_vertices,
    sample_case1_profiles,
    union_family,
)


class TestInfoProfile:
    def test_constant_eve_zeroes_z_terms(self):
        rng = np.random.default_rng(0)
        prof = info_profile(random_factored(rng, constant_eve_mac(rng)))
        for name in ("iz_v1_v2u", "iz_v2_v1u", "iz_v12_u", "iz_v12",
                     "iz_v1_u", "iz_v2_u", "iz_u", "iz_v1u", "iz_v2u"):
            assert getattr(prof, name) == pytest.approx(0.0, abs=1e-10)

    def test_degenerate_inputs_zero_everything(self):
        rng = np.random.default_rng(1)
        p = random_factored(rng, random_mac(rng), u=1, v1=1, v2=1)
        prof = info_profile(p)
        for name, value in prof.to_json_dict().items():
            assert value == pytest.approx(0.0, abs=1e-10), name

    def test_worked_example_swapped_assignment(self):
        # With the second sender playing the "V1" slot the conditional leakages
        # swap: I(Z^V1|V2U) = I(Z^Y|X), I(Z^V2|V1U) = I(Z^X|Y).
        prof = info_profile(example62_input()).swapped()
        assert prof.iz_v1_v2u == pytest.approx(0.2101, abs=1e-3)
        assert prof.iz_v2_v1u == pytest.approx(0.0590, abs=1e-3)

    def test_swap_is_involution(self):
        rng = np.random.default_rng(2)
        prof = info_profile(random_factored(rng, random_mac(rng)))
        assert prof.swapped().swapped() == prof

    def test_chain_rule_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prof = info_profile(random_factored(rng, random_mac(rng)))
            assert prof.iz_v12_u + prof.iz_u == pytest.approx(prof.iz_v12, abs=1e-9)
            assert prof.iz_v1_u + prof.iz_u == pytest.approx(prof.iz_v1u, abs=1e-9)


@st.composite
def random_inputs(draw):
    """A random factored input on a random MAC whose T and Z outputs need not
    be conditionally independent; |X|, |Y|, |T|, |Z| in 2..3 and auxiliary
    alphabets in 1..3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y, t, z = (draw(st.integers(2, 3)) for _ in range(4))
    mac = WiretapMAC.from_rows(rng.dirichlet(np.ones(t * z), size=x * y),
                               x, y, t, z)
    u, v1, v2 = (draw(st.integers(1, 3)) for _ in range(3))
    return random_factored(rng, mac, u=u, v1=v1, v2=v2)


def sender_swapped(p):
    """The same physical input with the senders exchanged: the factor chains
    trade places and the MAC's X and Y axes are transposed."""
    mac = p.mac
    x, y = mac.x_alphabet.size, mac.y_alphabet.size
    t, z = mac.t_alphabet.size, mac.z_alphabet.size
    rows = mac.tensor.transpose(1, 0, 2, 3).reshape(y * x, t * z)
    return FactoredInput(p.p_u, p.v2_given_u, p.v1_given_u, p.y_given_v2,
                         p.x_given_v1, WiretapMAC.from_rows(rows, y, x, t, z))


PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                             database=None)


class TestInfoProfileProperties:
    @PROPERTY_SETTINGS
    @given(random_inputs())
    def test_sender_swap_equivariance(self, p):
        want = info_profile(p).swapped().to_json_dict()
        got = info_profile(sender_swapped(p)).to_json_dict()
        for name, value in want.items():
            assert abs(got[name] - value) <= 1e-12, name

    @PROPERTY_SETTINGS
    @given(random_inputs())
    def test_chain_rules(self, p):
        prof = info_profile(p)
        for out in ("it", "iz"):
            f = {name[3:]: value for name, value in prof.to_json_dict().items()
                 if name.startswith(out + "_")}
            pairs = [(f["v12_u"], f["v1_v2u"] + f["v2_u"]),
                     (f["v12_u"], f["v2_v1u"] + f["v1_u"]),
                     (f["v12"], f["v12_u"] + f["u"])]
            if out == "iz":
                pairs += [(f["v1u"], f["v1_u"] + f["u"]),
                          (f["v2u"], f["v2_u"] + f["u"])]
            for whole, parts in pairs:
                assert abs(whole - parts) <= 1e-12, (out, whole, parts)


# Each profile field as (A, B, C) of I(A ; B | C).
PROFILE_TERMS = {
    f"{out}_{name}": ({ax}, b, c)
    for out, ax in (("it", AX_T), ("iz", AX_Z))
    for name, b, c in (
        ("v1_v2u", {AX_V1}, {AX_V2, AX_U}), ("v2_v1u", {AX_V2}, {AX_V1, AX_U}),
        ("v12_u", {AX_V1, AX_V2}, {AX_U}), ("v12", {AX_V1, AX_V2}, set()),
        ("v1_u", {AX_V1}, {AX_U}), ("v2_u", {AX_V2}, {AX_U}), ("u", {AX_U}, set()),
        ("v1u", {AX_V1, AX_U}, set()), ("v2u", {AX_V2, AX_U}, set()))
    if (out, name) not in (("it", "v1u"), ("it", "v2u"))
}


class TestInfoProfileMemo:
    @PROPERTY_SETTINGS
    @given(random_inputs())
    def test_matches_one_mutual_information_per_field(self, p):
        # reference_info_profile takes its MIs of p's joint; each MI here is
        # taken of a fresh copy of that joint.
        j = p.joint
        prof = reference_info_profile(p).to_json_dict()
        assert prof.keys() == PROFILE_TERMS.keys()
        for name, (a, b, c) in PROFILE_TERMS.items():
            assert prof[name] == mutual_information(JointDist(j.axes, j.mass),
                                                    a, b, c), name


@st.composite
def input_batches(draw):
    """One to six random factored inputs sharing a random MAC and alphabet
    sizes, with |U| in {1, 2, 9}."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, y, t, z = (draw(st.integers(2, 3)) for _ in range(4))
    mac = WiretapMAC.from_rows(rng.dirichlet(np.ones(t * z), size=x * y),
                               x, y, t, z)
    u = draw(st.sampled_from([1, 2, 9]))
    v1, v2 = (draw(st.integers(1, 3)) for _ in range(2))
    count = draw(st.sampled_from([1, 2, 6]))
    return [random_factored(rng, mac, u=u, v1=v1, v2=v2) for _ in range(count)]


def stacked_factors(inputs):
    """The kernel's arguments for a batch of inputs on one channel."""
    return (np.stack([p.p_u.mass for p in inputs]),
            np.stack([p.v1_given_u.matrix for p in inputs]),
            np.stack([p.v2_given_u.matrix for p in inputs]),
            np.stack([p.x_given_v1.matrix for p in inputs]),
            np.stack([p.y_given_v2.matrix for p in inputs]),
            inputs[0].mac.tensor)


def assert_profiles_close(got, want, tol=1e-12):
    got, want = got.to_json_dict(), want.to_json_dict()
    for name, value in want.items():
        assert abs(got[name] - value) <= tol, (name, got[name], value)


class TestProfileKernel:
    @PROPERTY_SETTINGS
    @given(input_batches())
    def test_batch_matches_reference(self, inputs):
        batch = info_profiles(*stacked_factors(inputs))
        assert batch.profiles.shape == (len(inputs), 16)
        for i, (p, u_info, u_ind) in enumerate(zip(inputs, batch.u_info,
                                                    batch.u_independent)):
            prof = batch.profile(i)
            assert_profiles_close(prof, reference_info_profile(p))
            assert abs(u_info - mutual_information(p.joint, {AX_U},
                                                   {AX_V1, AX_V2})) <= 1e-12
            assert u_ind == p.u_independent()
            # the batch of one
            assert_profiles_close(info_profile(p), prof)

    def test_u_independent_auxiliaries(self):
        # auxiliaries that ignore U carry no information about it
        rng = np.random.default_rng(40)
        mac = random_mac(rng)
        row1, row2 = rng.dirichlet([1, 1, 1]), rng.dirichlet([1, 1])
        p = FactoredInput(Dist.from_mass(rng.dirichlet(np.ones(4))),
                          Channel.from_matrix(np.tile(row1, (4, 1))),
                          Channel.from_matrix(np.tile(row2, (4, 1))),
                          Channel.from_matrix(rng.dirichlet([1, 1], size=3)),
                          Channel.from_matrix(rng.dirichlet([1, 1], size=2)), mac)
        q = random_factored(rng, mac, u=4, v1=3, v2=2)
        batch = info_profiles(*stacked_factors([p, q]))
        assert batch.u_independent.tolist() == [True, False]
        assert p.u_independent() and not q.u_independent()

    def test_chunks_match_one_batch(self, monkeypatch):
        rng = np.random.default_rng(41)
        mac = random_mac(rng, t=3)
        inputs = [random_factored(rng, mac, u=3) for _ in range(7)]
        whole = info_profiles(*stacked_factors(inputs))
        cells = 3 * 2 * 2 * 3 * 2
        monkeypatch.setattr(regions, "CELL_BUDGET", 2 * cells)  # chunks of 2
        chunked = info_profiles(*stacked_factors(inputs))
        assert np.array_equal(chunked.profiles, whole.profiles)
        assert np.array_equal(chunked.u_info, whole.u_info)
        assert np.array_equal(chunked.u_independent, whole.u_independent)

    @pytest.mark.parametrize("t, z", [(2, 3), (3, 2), (4, 4)])
    def test_channel_stack_matches_one_tensor_calls(self, monkeypatch, t, z):
        # one channel per input: the stacked call equals the one-tensor calls
        # bit for bit, across a chunk boundary
        rng = np.random.default_rng(43 + 10 * t + z)
        macs = [random_mac(rng, x=3, t=t, z=z) for _ in range(7)]
        factors = stacked_factors([random_factored(rng, mac, u=3, v2=3)
                                   for mac in macs])[:-1]
        stack = np.stack([mac.tensor for mac in macs])
        monkeypatch.setattr(regions, "CELL_BUDGET", 3 * (3 * 2 * 3) * t * z)
        whole = info_profiles(*factors, stack)
        ones = [info_profiles(*(f[i:i + 1] for f in factors), mac.tensor)
                for i, mac in enumerate(macs)]
        for field, parts in zip(whole, zip(*ones)):
            assert np.array_equal(field, np.concatenate(parts))
        assert not whole.u_independent.all()

    def test_input_over_budget_refused(self, monkeypatch):
        rng = np.random.default_rng(42)
        p = random_factored(rng, random_mac(rng), u=3)
        monkeypatch.setattr(regions, "CELL_BUDGET", 3 * 2 * 2 * 2 * 2 - 1)
        with pytest.raises(ResourceBudgetError):
            info_profile(p)


class TestClassify:
    def test_constant_eve_is_case3(self):
        rng = np.random.default_rng(4)
        p = random_factored(rng, constant_eve_mac(rng))
        assert CaseLabel.CASE3 in classify_case(p, 0.5)

    def test_common_gate_violation_empty(self):
        rng = np.random.default_rng(5)
        while True:
            p = random_factored(rng, random_mac(rng, bob_quality=0.0))
            prof = info_profile(p)
            if prof.iz_v12 > prof.it_v12 + 1e-6:
                break
        assert classify_case(p, 0.2) == frozenset()

    def test_worked_example_is_case0(self):
        assert CaseLabel.CASE0 in classify_case(example62_input(), 0.0)

    def test_gate_monotonicity(self):
        # Case-1 and Case-3 gates are monotone in the randomness bound; the
        # Case-2 window closes exactly when Case 3 opens.
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = random_factored(rng, random_mac(rng, bob_quality=0.5))
            prof = info_profile(p)
            u_ind = p.u_independent()
            h1, h2 = sorted(rng.uniform(0.0, 1.2, size=2))
            c1 = classify_profile(prof, h1, u_ind).cases
            c2 = classify_profile(prof, h2, u_ind).cases
            if CaseLabel.CASE1 in c1:
                assert CaseLabel.CASE1 in c2
            if CaseLabel.CASE3 in c1:
                assert CaseLabel.CASE3 in c2
            if CaseLabel.CASE2 in c1:
                assert CaseLabel.CASE2 in c2 or CaseLabel.CASE3 in c2


class TestAlphaBounds:
    def test_case1_positive_part_vanishes(self):
        rng = np.random.default_rng(7)
        for prof, _ in sample_case1_profiles(rng, 10):
            ab = alpha_bounds_case1(prof)
            if ab.degenerate:
                continue
            if prof.it_v2_v1u >= prof.iz_v2_v1u:
                assert ab.alpha0 == 0.0

    def test_worked_example_alpha_interval(self):
        prof = info_profile(example62_input()).swapped()
        ab = alpha_bounds_case1(prof)
        assert ab.alpha1 == 1.0
        # cross-check against the same formula on the 4-decimal reference values
        reference = (0.0566 - 0.0590) / (0.0047 - 0.0590)
        assert ab.alpha0 == pytest.approx(reference, abs=1e-3)
        assert ab.alpha0 > 0.0

    def test_case1_interval_iff_compatible(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            prof = info_profile(random_factored(rng, random_mac(rng, bob_quality=0.4)))
            ab = alpha_bounds_case1(prof)
            if ab.degenerate:
                continue
            compi = (prof.iz_v1_u <= prof.it_v1_v2u + 1e-12
                     and prof.iz_v2_u <= prof.it_v2_v1u + 1e-12
                     and prof.iz_v12_u <= prof.it_v1_v2u + prof.it_v2_v1u + 1e-12)
            assert (ab.alpha0 <= ab.alpha1 + 1e-9) == compi

    def test_case2_equality_branch_flagged(self):
        prof = info_profile(example62_input())
        tweaked = InfoProfileLike = prof.swapped()  # any profile
        forced = AlphaBounds(None, None, True)
        assert forced.degenerate
        # genuine equality: a profile with zero eavesdropper terms
        rng = np.random.default_rng(9)
        zero = info_profile(random_factored(rng, constant_eve_mac(rng)))
        assert alpha_bounds_case2(zero, 0.5).degenerate

    def test_case2_interval_matches_elementary_nonemptiness(self):
        # alpha lies in [alpha0, alpha1] exactly when the elementary region is
        # nonempty and the randomness cost J0(alpha) stays below hc.
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 15:
            prof = info_profile(random_factored(rng, random_mac(rng, bob_quality=0.5)))
            if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) < 1e-6:
                continue
            if prof.iz_v12 > prof.it_v12:
                continue
            low = min(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-6 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-6, prof.iz_v12)
            ab = alpha_bounds_case2(prof, hc)
            if ab.degenerate or ab.alpha0 > ab.alpha1:
                continue
            checked += 1
            for alpha in np.linspace(0.0, 1.0, 41):
                poly = elementary_region(prof, CaseLabel.CASE2, alpha,
                                         hc, check_range=False)
                j0 = (alpha * prof.iz_v2u + (1 - alpha) * prof.iz_v1u)
                feasible = poly.contains_origin(tol=0.0) and j0 < hc
                inside = ab.alpha0 - 1e-9 <= alpha <= ab.alpha1 + 1e-9
                near_edge = (abs(alpha - ab.alpha0) < 1e-7
                             or abs(alpha - ab.alpha1) < 1e-7)
                if not near_edge:
                    assert feasible == inside


class TestRegionCommon:
    def test_case3_constant_eve_sum_bound(self):
        rng = np.random.default_rng(11)
        p = random_factored(rng, constant_eve_mac(rng))
        prof = info_profile(p)
        poly = region_common(p, 0.5, CaseLabel.CASE3)
        total_row = np.where((poly.coeffs == [1, 1, 1]).all(axis=1))[0][0]
        assert poly.rhs[total_row] == pytest.approx(prof.it_v12, abs=1e-10)

    def test_worked_example_case0_r1_bound(self):
        p = example62_input()
        prof = info_profile(p)
        poly = region_common(p, 0.0, CaseLabel.CASE0)
        expected = (prof.it_v1_v2u - prof.iz_v1_u
                    - max(prof.iz_v2_v1u - prof.it_v2_v1u, 0.0))
        r1_row = np.where((poly.coeffs == [0, 1, 0]).all(axis=1))[0][0]
        assert poly.rhs[r1_row] == pytest.approx(expected, abs=1e-12)
        # from the reference values: 0.0566 - 0.0047 - 0 = 0.0519
        assert poly.rhs[r1_row] == pytest.approx(0.0519, abs=1e-3)

    def test_case_gate_enforced(self):
        p = example62_input()
        with pytest.raises(PreconditionError):
            region_common(p, 0.0, CaseLabel.CASE3)

    def test_case2_min_form_never_exceeds_sum_bound(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 20:
            prof = info_profile(random_factored(rng, random_mac(rng, bob_quality=0.5)))
            if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) < 1e-6:
                continue
            low = min(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-6 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-6, prof.iz_v12)
            ab = alpha_bounds_case2(prof, hc)
            if ab.degenerate or ab.alpha0 > ab.alpha1:
                continue
            checked += 1
            poly = region_common(prof, hc, CaseLabel.CASE2, check_membership=False)
            sum_row = np.where((poly.coeffs == [0, 1, 1]).all(axis=1))[0][0]
            min_form = case2_sum_bound_min_form(prof, hc)
            assert min_form <= poly.rhs[sum_row] + 1e-9
            # equality whenever the two max-forms agree on the active entry
            base = prof if prof.iz_v1_v2u > prof.iz_v2_v1u else prof.swapped()
            a, b = base.iz_v1_v2u, base.iz_v2_v1u
            e1 = (base.iz_v1u - hc) / (a - b)
            if max(e1, 0.0) >= base.it_v1_v2u / a:
                assert min_form == pytest.approx(poly.rhs[sum_row], abs=1e-9)

    def test_origin_contained_when_rhs_nonneg(self):
        rng = np.random.default_rng(13)
        for prof, hc in sample_case1_profiles(rng, 10):
            poly = region_common(prof, hc, CaseLabel.CASE1, check_membership=False)
            if np.all(poly.rhs >= 0):
                assert poly.contains([0.0, 0.0, 0.0])

    def test_swap_involution_on_case2_region(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 10:
            prof = info_profile(random_factored(rng, random_mac(rng, bob_quality=0.5)))
            if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) < 1e-6:
                continue
            low = min(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-6 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-6, prof.iz_v12)
            ab = alpha_bounds_case2(prof, hc)
            if ab.degenerate or ab.alpha0 > ab.alpha1:
                continue
            checked += 1
            poly = region_common(prof, hc, CaseLabel.CASE2, check_membership=False)
            sw = region_common(prof.swapped(), hc, CaseLabel.CASE2,
                               check_membership=False)
            # each region, its R1 and R2 coordinates swapped, lies in the other
            rng2 = np.random.default_rng(checked)
            for point in poly.sample(rng2, 20):
                assert sw.contains(point[[0, 2, 1]], tol=1e-9)
            for point in sw.sample(rng2, 20):
                assert poly.contains(point[[0, 2, 1]], tol=1e-9)


class TestElementaryRegions:
    def test_case1_alpha_one_endpoint(self):
        rng = np.random.default_rng(15)
        for prof, hc in sample_case1_profiles(rng, 5):
            ab = alpha_bounds_case1(prof)
            if ab.degenerate or ab.alpha1 < 1.0:
                continue
            poly = elementary_region(prof, CaseLabel.CASE1, 1.0)
            r1_row = np.where((poly.coeffs == [0, 1, 0]).all(axis=1))[0][0]
            assert poly.rhs[r1_row] == pytest.approx(
                prof.it_v1_v2u - prof.iz_v1_v2u, abs=1e-12)

    def test_alpha_out_of_range_rejected(self):
        rng = np.random.default_rng(16)
        prof, hc = sample_case1_profiles(rng, 1)[0]
        ab = alpha_bounds_case1(prof)
        if not ab.degenerate and ab.alpha0 > 0.05:
            with pytest.raises(PreconditionError):
                elementary_region(prof, CaseLabel.CASE1, ab.alpha0 / 2)

    def test_case1_union_rebuilds_region(self):
        # every sampled point of the case region is covered by one alpha,
        # located by exact interval arithmetic; every elementary region sits
        # inside the case region
        rng = np.random.default_rng(17)
        for prof, hc in sample_case1_profiles(rng, 12):
            ab = alpha_bounds_case1(prof)
            if ab.degenerate:
                continue
            region = region_common(prof, hc, CaseLabel.CASE1, check_membership=False)
            a1g = prof.iz_v1_v2u - prof.iz_v1_u
            a2g = prof.iz_v2_u - prof.iz_v2_v1u  # negative of the R2 slope
            for point in region.sample(rng, 40):
                # R1 <= it_v1_v2u - a*iz_v1_v2u - (1-a)*iz_v1_u, decreasing in a
                hi = (prof.it_v1_v2u - prof.iz_v1_u - point[1]) / a1g + 1e-9 / a1g
                lo = (point[2] - prof.it_v2_v1u + prof.iz_v2_v1u) / (-a2g)
                lo -= 1e-9 / (-a2g)
                assert max(lo, ab.alpha0) <= min(hi, ab.alpha1) + 1e-12
            for alpha in np.linspace(ab.alpha0, ab.alpha1, 7):
                sub = elementary_region(prof, CaseLabel.CASE1, alpha)
                for point in sub.sample(rng, 10):
                    assert region.contains(point, tol=1e-9)

    def test_case2_union_rebuilds_region(self):
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 8:
            prof = info_profile(random_factored(rng, random_mac(rng, bob_quality=0.5)))
            if prof.iz_v1_v2u <= prof.iz_v2_v1u + 1e-6:
                continue  # canonical branch only; the swap test covers the rest
            low = min(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-6 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-6, prof.iz_v12)
            ab = alpha_bounds_case2(prof, hc)
            if ab.degenerate or ab.alpha0 > ab.alpha1:
                continue
            checked += 1
            region = region_common(prof, hc, CaseLabel.CASE2, check_membership=False)
            a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
            for point in region.sample(rng, 40):
                lo, hi = ab.alpha0, ab.alpha1
                if a > 0:
                    hi = min(hi, (prof.it_v1_v2u - point[1]) / a + 1e-9 / a)
                if b > 0:
                    lo = max(lo, 1 - (prof.it_v2_v1u - point[2]) / b - 1e-9 / b)
                slope = b - a  # negative on this branch
                x12 = point[1] + point[2]
                hi = min(hi, (x12 - prof.it_v12_u + b) / slope - 1e-9 / slope)
                assert lo <= hi + 1e-12
            for alpha in np.linspace(ab.alpha0, ab.alpha1, 7):
                sub = elementary_region(prof, CaseLabel.CASE2, alpha, hc)
                for point in sub.sample(rng, 10):
                    assert region.contains(point, tol=1e-9)


ALPHAS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


class TestRandomizationRates:
    """Every case's elementary region is one formula over the
    randomization-rate table; it matches the bounds written out per case."""

    @PROPERTY_SETTINGS
    @given(random_inputs(), st.sampled_from(list(CaseLabel)), ALPHAS)
    def test_elementary_region_matches_per_case_reference(self, p, case, alpha):
        prof = info_profile(p)
        got = elementary_region(prof, case, alpha, check_range=False)
        want = reference_elementary_region(prof, case, alpha)
        assert got.names == want.names
        assert np.array_equal(got.coeffs, want.coeffs)
        assert np.max(np.abs(got.rhs - want.rhs)) <= 1e-12, (got.rhs, want.rhs)

    @PROPERTY_SETTINGS
    @given(random_inputs(), st.sampled_from([CaseLabel.CASE0, CaseLabel.CASE1]),
           ALPHAS)
    def test_case1_private_rates_sum_to_conditional_leakage(self, p, case,
                                                             alpha):
        # chain rule: I(Z;V1|V2U) + I(Z;V2|U) = I(Z;V1|U) + I(Z;V2|V1U)
        prof = info_profile(p)
        _, j1, j2 = randomization_rates(prof, case, alpha)
        assert abs(j1 + j2 - prof.iz_v12_u) <= 1e-12


class TestPolytopeOps:
    def test_origin_with_nonneg_rhs(self):
        poly = RatePolytope(3, np.array([[0, 1, 0], [1, 1, 1]], dtype=float),
                            np.array([0.5, 1.0]))
        assert poly.contains([0, 0, 0], 1e-12)

    def test_violation_detected(self):
        poly = RatePolytope(2, np.array([[1.0, 0.0]]), np.array([1.0]))
        assert not poly.contains([1.0 + 2e-6, 0.0], 1e-6)
        assert poly.contains([1.0 + 0.5e-6, 0.0], 1e-6)

    def test_matches_direct_reevaluation(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            coeffs = rng.uniform(0, 1, size=(4, 3))
            coeffs[coeffs.sum(axis=1) == 0] += 0.1
            rhs = rng.uniform(0, 2, size=4)
            poly = RatePolytope(3, coeffs, rhs)
            pt = rng.uniform(-0.1, 1.5, size=3)
            direct = (all(float(coeffs[i] @ pt) <= rhs[i] + 1e-9 for i in range(4))
                      and all(pt >= -1e-9))
            assert poly.contains(pt, 1e-9) == direct

    @pytest.mark.parametrize("poly", [
        RatePolytope(2, CONF_COEFFS, np.ones(3)),
        RatePolytope(3, RATE_COEFFS, np.ones(4), RATE_NAMES)])
    def test_point_of_wrong_length_refused(self, poly):
        # contains and violated check the point's shape the same way
        for length in (poly.dim - 1, poly.dim + 1):
            for method in (poly.contains, poly.violated):
                with pytest.raises(ValidationError, match="point dimension"):
                    method(np.zeros(length))
        assert poly.violated(np.zeros(poly.dim)) == []

    def test_violated_empty_exactly_when_contained(self):
        # points within rounding of a face's tolerance boundary: violated
        # compares as contains does, so the two never disagree
        rng = np.random.default_rng(0)
        for _ in range(2000):
            rhs = rng.uniform(0.1, 2.0, 4)
            poly = RatePolytope(3, RATE_COEFFS, rhs, RATE_NAMES)
            x = rng.uniform(0.0, 1.0, 3)
            row = rng.integers(0, 4)
            x *= (rhs[row] + 1e-9) / (RATE_COEFFS[row] @ x)
            assert poly.contains(x) == (poly.violated(x) == [])

    def test_vertices_of_simplex(self):
        poly = RatePolytope(2, np.array([[1.0, 1.0]]), np.array([1.0]))
        verts = poly.vertices()
        expected = {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == expected

    def test_json_roundtrip(self):
        poly = RatePolytope(3, np.array([[0, 1, 1], [1, 1, 1]], dtype=float),
                            np.array([0.25, 0.75]), ("sum", "total"))
        again = RatePolytope.from_json_dict(poly.to_json_dict())
        assert np.allclose(again.coeffs, poly.coeffs)
        assert np.allclose(again.rhs, poly.rhs)


def swept_polytopes(rng, count):
    """Every region of ``count`` random inputs on the additive, Example 6.2
    and random channels: the case regions (Cases 0-3), the elementary
    regions at three alphas and the conferencing pieces."""
    fixed = (discussion_channels(), example62_channels())
    for i in range(count):
        mac = fixed[i % 3] if i % 3 < 2 else random_mac(
            rng, t=int(rng.integers(2, 4)), z=int(rng.integers(2, 4)),
            bob_quality=rng.uniform(0.0, 0.9))
        prof = info_profile(random_factored(rng, mac, u=int(rng.integers(1, 4))))
        top = max(prof.iz_v12, 1e-3)
        hc = rng.uniform(0.0, 1.3 * top)
        c1, c2 = rng.uniform(0.0, top, size=2)
        for case in CaseLabel:
            try:
                yield region_common(prof, hc, case, check_membership=False)
            except PreconditionError:
                pass  # empty Case-2 time-sharing interval
            for alpha in (0.0, rng.uniform(), 1.0):
                yield elementary_region(prof, case, alpha, hc, check_range=False)
            if case == CaseLabel.CASE0:
                continue
            try:
                region = region_conferencing(prof, c1, c2, case, alpha_points=5,
                                             check_membership=False)
            except PreconditionError:
                continue
            for _, poly in region.pieces:
                yield poly


class TestBatchedVertices:
    def test_matches_reference_on_swept_regions(self):
        rng = np.random.default_rng(29)
        polys = list(swept_polytopes(rng, 60))
        assert len(polys) > 1000
        assert any(p.coeffs.shape[0] == 5 for p in polys)  # Case-2 weighted row
        assert any(p.vertices().shape[0] == 0 for p in polys)
        for poly in polys:
            assert np.array_equal(poly.vertices(), reference_vertices(poly))

    def test_repeat_calls_reuse_the_enumeration(self, monkeypatch):
        # A Case-2 region's pieces are enumerated in one kernel call, which
        # its hull and its maximum then share.
        enumerated, kernel = [], regions.stacked_vertices

        def counted_kernel(coeffs, rhs):
            enumerated.append(np.array(rhs))
            return kernel(coeffs, rhs)

        for module in (regions, conferencing):
            monkeypatch.setattr(module, "stacked_vertices", counted_kernel)
        prof = info_profile(example62_input())
        region = region_conferencing(prof, 0.1, 0.1, CaseLabel.CASE2, alpha_points=9)
        pieces = [poly for _, poly in region.pieces]
        assert len(pieces) == 9
        region.max_weighted((1.0, 1.0))
        region.hull_points
        assert len(enumerated) == 1
        assert np.array_equal(enumerated[0], np.stack([poly.rhs for poly in pieces]))

    def test_empty_polytope(self):
        poly = RatePolytope(3, RATE_COEFFS, np.array([-0.5, 1.0, 1.0, 2.0]))
        assert poly.vertices().shape == (0, 3)
        assert np.array_equal(poly.vertices(), reference_vertices(poly))

    def test_near_duplicate_vertices_merge(self):
        # two R1 bounds 5e-10 apart: each corner they make with R2 = 0 and
        # with R2 <= 1 is found twice, within the 1e-9 dedupe tolerance
        poly = RatePolytope(2, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                            np.array([1.0, 1.0 - 5e-10, 1.0]))
        verts = poly.vertices()
        assert verts.shape == (4, 2)
        assert np.array_equal(verts, reference_vertices(poly))

    def test_duplicated_constraint_row(self):
        coeffs = np.vstack([RATE_COEFFS, RATE_COEFFS[2]])
        for extra in (0.75, 0.5):
            poly = RatePolytope(3, coeffs, np.array([0.5, 0.5, 0.75, 1.0, extra]))
            assert np.array_equal(poly.vertices(), reference_vertices(poly))


@st.composite
def shaped_polytopes(draw):
    """A polytope of one of the two shared constraint shapes with a
    nonnegative right-hand side, and nonnegative weights."""
    coeffs = draw(st.sampled_from([RATE_COEFFS, CONF_COEFFS]))
    k, dim = coeffs.shape
    amounts = st.floats(0.0, 4.0, allow_subnormal=False)
    rhs = np.array([draw(amounts) for _ in range(k)])
    weights = np.array([draw(st.floats(0.0, 1.0, allow_subnormal=False))
                        for _ in range(dim)])
    return RatePolytope(dim, coeffs, rhs), weights


class TestMaxWeightedProperties:
    @PROPERTY_SETTINGS
    @given(shaped_polytopes())
    def test_matches_linprog_optimum(self, drawn):
        poly, weights = drawn
        res = linprog(-weights, A_ub=poly.coeffs, b_ub=poly.rhs,
                      bounds=[(0, None)] * poly.dim, method="highs")
        assert res.status == 0
        assert abs(poly.max_weighted(weights) + res.fun) <= 1e-9


@st.composite
def polytopes_with_points(draw):
    """A random polytope in 2 or 3 dimensions (coefficients of either sign)
    and a point at least 1e-6 from every constraint boundary, nonnegativity
    included, so that the 1e-9 membership tolerance decides nothing."""
    dim = draw(st.integers(2, 3))
    k = draw(st.integers(1, 5))
    entries = st.floats(-1.0, 2.0, allow_subnormal=False)
    coeffs = np.array([[draw(entries) for _ in range(dim)] for _ in range(k)])
    assume(np.all(np.any(coeffs != 0.0, axis=1)))
    rhs = np.array([draw(st.floats(-0.5, 3.0, allow_subnormal=False))
                    for _ in range(k)])
    point = np.array([draw(st.floats(-0.5, 3.0, allow_subnormal=False))
                      for _ in range(dim)])
    assume(np.all(np.abs(coeffs @ point - rhs) > 1e-6))
    assume(np.all(np.abs(point) > 1e-6))
    return RatePolytope(dim, coeffs, rhs), point


class TestContainsProperties:
    @PROPERTY_SETTINGS
    @given(polytopes_with_points())
    def test_matches_linprog_feasibility(self, drawn):
        # The oracle asks linprog whether {x >= 0 : coeffs x <= rhs, x = point}
        # is feasible (status 0) or not (status 2).
        poly, point = drawn
        res = linprog(np.zeros(poly.dim), A_ub=poly.coeffs, b_ub=poly.rhs,
                      A_eq=np.eye(poly.dim), b_eq=point,
                      bounds=[(0, None)] * poly.dim, method="highs")
        assert res.status in (0, 2)
        assert poly.contains(point) == (res.status == 0)


def same_point_set(got, want, tol=1e-9):
    """Equal point sets up to ``tol`` in the max norm: every point of each
    set lies within ``tol`` of a point of the other."""
    if got.shape[0] == 0 or want.shape[0] == 0:
        return got.shape[0] == want.shape[0]
    dist = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2)
    return bool(dist.min(axis=0).max() <= tol and dist.min(axis=1).max() <= tol)


class TestCase2SwapProperties:
    @PROPERTY_SETTINGS
    @given(random_inputs(), st.floats(0.0, 1.5))
    def test_swapped_region_is_permuted_region(self, p, scale):
        # Exchanging the senders exchanges R1 and R2 and leaves R0 alone.  The
        # vertex sets are compared as point sets up to the 1e-9 to which
        # vertices() merges near-duplicates: which near-duplicate it keeps
        # depends on the coordinate order, so the counts can differ.
        prof = info_profile(p)
        hc = scale * max(prof.iz_v12, 1e-3)
        try:
            region = region_common(prof, hc, CaseLabel.CASE2, check_membership=False)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                region_common(prof.swapped(), hc, CaseLabel.CASE2,
                              check_membership=False)
            return
        swapped = region_common(prof.swapped(), hc, CaseLabel.CASE2,
                                check_membership=False)
        assert same_point_set(swapped.vertices(), region.vertices()[:, [0, 2, 1]])


class TestUnionLemma:
    def test_single_alpha_collapse(self):
        rng = np.random.default_rng(20)
        inst = random_union_instance(rng)
        inst["alpha1"] = inst["alpha0"]
        rep = verify_union_lemma(**inst, samples=100, seed=1)
        assert rep.passed

    def test_infeasible_total_trivially_equal(self):
        rng = np.random.default_rng(21)
        inst = random_union_instance(rng)
        inst["d"] = inst["r012"] + 1.0
        rep = verify_union_lemma(**inst, samples=100, seed=2)
        assert rep.passed and rep.notes

    def test_random_instances(self):
        rng = np.random.default_rng(22)
        for i in range(150):
            rep = verify_union_lemma(**random_union_instance(rng),
                                     samples=120, seed=i)
            assert rep.passed, rep.counterexamples[:2]

    def test_hypothesis_violation_rejected(self):
        rng = np.random.default_rng(23)
        inst = random_union_instance(rng)
        inst["a1"], inst["b1"] = inst["b1"], inst["a1"]  # break a1 > b1
        with pytest.raises(PreconditionError):
            verify_union_lemma(**inst, samples=10)


@st.composite
def union_instances(draw):
    """A random union instance, or one whose alpha-interval is one point."""
    inst = random_union_instance(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    if draw(st.booleans()):
        inst["alpha1"] = inst["alpha0"]
    return inst


class TestUnionWindow:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(union_instances(), st.integers(0, 2**32 - 1))
    def test_window_agrees_with_the_grid_pass(self, inst, seed):
        # Points of the closed form, and of the closed form with its R1 and
        # R2 bounds loosened by less and by more than the tolerance.
        fam = union_family(inst)
        ends = regions._family_rhs(fam, (inst["alpha0"], inst["alpha1"]))
        k_rhs = np.array([ends[0, 0], ends[1, 1], ends[0, 2], ends[0, 3]])
        loosened = k_rhs + np.outer([0.0, 1e-10, 1e-8, 1e-2], [1.0, 1.0, 0.0, 0.0])
        pts = regions._ray_points(np.random.default_rng(seed), RATE_COEFFS, loosened,
                                  20).reshape(-1, 3)
        _, hit = regions._alpha_windows(pts, fam, inst["alpha0"], inst["alpha1"], 1e-9)
        covered, misses = reference_union_cover(pts, inst)
        assert hit[covered].all()
        assert pts[~hit].tolist() == [m["point"] for m in misses]


def reference_k_to_union(x_pts, r1, r2, r12, total, a, b, alpha0, alpha1, tol):
    """Each point's feasible alpha-window in turn, derived by hand for the
    hull's family: the reference for the hull verifier's K -> union
    certification."""
    def alpha_rhs(alpha):
        return np.array([r1 - alpha * a, r2 - (1.0 - alpha) * b,
                         r12 - alpha * a - (1.0 - alpha) * b, total])

    witnesses, misses = [], []
    for x in x_pts:
        lo, hi = alpha0, alpha1
        feasible = x.sum() <= total + tol
        if a > 0:
            hi = min(hi, (r1 - x[1]) / a + tol / a)
        else:
            feasible &= x[1] <= r1 + tol
        if b > 0:
            lo = max(lo, 1.0 - (r2 - x[2]) / b - tol / b)
        else:
            feasible &= x[2] <= r2 + tol
        slope = b - a
        x12 = x[1] + x[2]
        if abs(slope) <= 1e-15:
            feasible &= x12 <= r12 - a + tol
        elif slope > 0:
            lo = max(lo, (x12 - r12 + b) / slope - tol / slope)
        else:
            hi = min(hi, (x12 - r12 + b) / slope - tol / slope)
        alpha_star = min(max(0.5 * (lo + hi), alpha0), alpha1)
        if (feasible and lo <= hi
                and (alpha_rhs(alpha_star) - RATE_COEFFS @ x).min() >= -tol):
            witnesses.append({"point": x.tolist(), "alpha": float(alpha_star)})
        else:
            misses.append({"direction": "closed-form point not reachable by the family",
                           "point": x.tolist()})
    return witnesses, misses


def hull_alpha_rhs(inst, alpha):
    """The right-hand side of K_alpha for a hull instance."""
    r12, a, b = inst["r12"], inst["a"], inst["b"]
    return np.array([inst["r1"] - alpha * a, inst["r2"] - (1.0 - alpha) * b,
                     r12 - alpha * a - (1.0 - alpha) * b, inst["r012"] - inst["c"]])


def k_to_union_args(inst, tol=1e-9):
    """``reference_k_to_union``'s arguments after the points, for a hull instance."""
    return (inst["r1"], inst["r2"], inst["r12"], inst["r012"] - inst["c"],
            *(inst[k] for k in ("a", "b", "alpha0", "alpha1")), tol)


def hull_closed_form(inst):
    """(coefficients, right-hand side) of the hull lemma's closed form K: the
    rate rows and the weighted row b R1 + a R2 (which reads 0 <= 0 when
    a = b = 0)."""
    k_rhs = regions._hull_rhs(*(inst[k] for k in ("r1", "r2", "r12")),
                              inst["r012"] - inst["c"],
                              *(inst[k] for k in ("a", "b", "alpha0", "alpha1")))
    return np.insert(RATE_COEFFS, 3, [0.0, inst["b"], inst["a"]], axis=0), k_rhs


def hull_points(rng, inst, per_alpha=12):
    """Boundary and interior points of K_alpha at five alphas, plus two points
    past the R0 + R1 + R2 bound, outside K."""
    pts = [regions._ray_points(rng, RATE_COEFFS, hull_alpha_rhs(inst, alpha), per_alpha)
           for alpha in np.linspace(inst["alpha0"], inst["alpha1"], 5)]
    total = inst["r012"] - inst["c"]
    pts.append([[total + 1e-8, 0.0, 0.0], [total + 1.0, 0.0, 0.0]])
    return np.vstack(pts)


def hull_certification(inst, pts, seed=0):
    """The hull verifier's witnesses and K -> union misses for ``pts``: its
    one single-set draw, the sample of the closed form, returns ``pts``."""
    ray_points = regions._ray_points

    def k_draw(rng, coeffs, rhs, count, dim=3):
        drawn = ray_points(rng, coeffs, rhs, count, dim)
        return pts if np.ndim(rhs) == 1 else drawn

    with mock.patch.object(regions, "_ray_points", k_draw):
        rep = verify_convexhull_lemma(**inst, samples=pts.shape[0], seed=seed)
    misses = [ce for ce in rep.counterexamples
              if ce["direction"] == "closed-form point not reachable by the family"]
    return rep.witnesses, misses


@st.composite
def hull_instances(draw):
    """A random hull instance, or one with a = 0, b = 0 or a = b.  Lowering a
    or b only loosens every K_alpha, so the hypotheses keep holding."""
    inst = random_hull_instance(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    variant = draw(st.sampled_from(["random", "a = 0", "b = 0", "a = b"]))
    if variant == "a = 0":
        inst["a"] = 0.0
    elif variant == "b = 0":
        inst["b"] = 0.0
    elif variant == "a = b":
        inst["a"] = inst["b"] = min(inst["a"], inst["b"])
    return inst


class TestKToUnion:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(hull_instances(), st.integers(0, 2**32 - 1))
    def test_matches_reference(self, inst, seed):
        pts = hull_points(np.random.default_rng(seed), inst)
        args = (hull_family(inst), inst["alpha0"], inst["alpha1"], 1e-9)
        alpha, hit = regions._alpha_windows(pts, *args)
        assert (alpha.tolist(), hit.tolist()) == reference_alpha_windows(pts, *args)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(hull_instances(), st.integers(0, 2**32 - 1))
    def test_verifier_matches_hand_derived_reference(self, inst, seed):
        # The hand-derived windows round row 2 as 1 - (r2 - x2)/b where the
        # row rule rounds (x2 - r2 + b)/b, so witness alphas agree to 1e-15.
        pts = hull_points(np.random.default_rng(seed), inst)
        witnesses, misses = hull_certification(inst, pts)
        want_witnesses, want_misses = reference_k_to_union(pts, *k_to_union_args(inst))
        assert misses == want_misses
        assert [w.keys() for w in witnesses] == [w.keys() for w in want_witnesses]
        assert [w["point"] for w in witnesses] == [w["point"] for w in want_witnesses]
        assert np.allclose([w["alpha"] for w in witnesses],
                           [w["alpha"] for w in want_witnesses], rtol=0.0, atol=1e-15)

    def test_misses_are_the_points_outside_k(self):
        inst = random_hull_instance(np.random.default_rng(30))
        pts = hull_points(np.random.default_rng(31), inst)
        witnesses, misses = hull_certification(inst, pts)
        outside = ~regions._inside(pts, *hull_closed_form(inst), 1e-9)
        assert outside.tolist() == [False] * (pts.shape[0] - 2) + [True, True]
        assert [m["point"] for m in misses] == pts[outside].tolist()
        assert [w["point"] for w in witnesses] == pts[~outside].tolist()
        assert all(w.keys() == {"point", "alpha"} for w in witnesses)

    def test_verifier_certifies_its_samples_like_the_reference(self, monkeypatch):
        inst = random_hull_instance(np.random.default_rng(32))
        drawn = []
        ray_points = regions._ray_points

        def recorded(*args, **kw):
            drawn.append(ray_points(*args, **kw))
            return drawn[-1]

        monkeypatch.setattr(regions, "_ray_points", recorded)
        rep = verify_convexhull_lemma(**inst, samples=120, seed=7)
        witnesses, misses = reference_k_to_union(drawn[-1], *k_to_union_args(inst))
        assert rep.witnesses == witnesses and not misses and rep.passed


class TestHullWindowsCoverTheHull:
    """Why a closed-form point needs no certificate but its alpha-window:
    every row of K_alpha is affine in (x, alpha), so the union over
    [alpha0, alpha1] is the projection of one convex polyhedron.  It is
    convex, so it holds every mixture of K_alpha0 and K_alpha1 points, the
    only points a decomposition over the endpoint sets could certify."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(hull_instances(), st.integers(0, 2**32 - 1))
    def test_windows_hit_closed_form_points_and_endpoint_mixtures(self, inst, seed):
        rng = np.random.default_rng(seed)
        family = hull_family(inst)
        alpha0, alpha1 = inst["alpha0"], inst["alpha1"]
        closed = regions._ray_points(rng, *hull_closed_form(inst), 40)
        p_pts, q_pts = regions._ray_points(
            rng, RATE_COEFFS, regions._family_rhs(family, (alpha0, alpha1)), 40)
        lam = rng.uniform(0.0, 1.0, size=(40, 1))
        lam[:3, 0] = (0.0, 1.0, 0.5)
        mixtures = lam * p_pts + (1.0 - lam) * q_pts
        for pts in (closed, mixtures):
            _, hit = regions._alpha_windows(pts, family, alpha0, alpha1, 1e-9)
            assert hit.all(), pts[~hit]


@st.composite
def ray_shapes(draw):
    """A constraint matrix the verifiers or ``RatePolytope.sample`` use, a
    stack of right-hand sides (some negative) and a point count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = draw(st.sampled_from([
        RATE_COEFFS, np.insert(RATE_COEFFS, 3, [0.0, 0.4, 0.7], axis=0), CONF_COEFFS]))
    sets = draw(st.integers(1, 12))
    rhs = rng.uniform(-0.2, 2.0, size=(sets, coeffs.shape[0]))
    return coeffs, rhs, draw(st.integers(0, 25)), draw(st.integers(0, 2**32 - 1))


class TestRayPoints:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ray_shapes())
    def test_stack_matches_one_set_calls_in_turn(self, drawn):
        coeffs, rhs, count, seed = drawn
        dim = coeffs.shape[1]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = regions._ray_points(got_rng, coeffs, rhs, count, dim)
        want = [reference_ray_points(want_rng, coeffs, row, count, dim) for row in rhs]
        assert got.shape == (rhs.shape[0], count, dim)
        assert np.array_equal(got, np.array(want).reshape(got.shape))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ray_shapes())
    def test_one_set_matches_reference(self, drawn):
        coeffs, rhs, count, seed = drawn
        dim = coeffs.shape[1]
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = regions._ray_points(got_rng, coeffs, rhs[0], count, dim)
        assert np.array_equal(got, reference_ray_points(want_rng, coeffs, rhs[0],
                                                        count, dim))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestLemmaCheckedCount:
    # The benchmark's lemma jobs assert these counts for every report.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 300))
    @example(seed=1, samples=4)
    @example(seed=2, samples=79)
    def test_checked_counts_every_sampled_point(self, seed, samples):
        rng = np.random.default_rng(seed)
        union, hull = random_union_instance(rng), random_hull_instance(rng)
        per_set = max(samples // 20, 4)
        g = len(regions._alpha_grid(union["alpha0"], union["alpha1"], 1e-3))
        rep = verify_union_lemma(**union, samples=samples, seed=seed)
        assert rep.checked == samples + len(range(0, g, max(g // 20, 1))) * per_set
        g = len(regions._alpha_grid(hull["alpha0"], hull["alpha1"], 1e-3))
        rep = verify_convexhull_lemma(**hull, samples=samples, seed=seed)
        assert rep.checked == 2 * samples + len(range(0, g, max(g // 10, 1))) * per_set


class TestConvexHullLemma:
    def test_single_alpha_collapse(self):
        rng = np.random.default_rng(24)
        inst = random_hull_instance(rng)
        inst["alpha1"] = inst["alpha0"]
        rep = verify_convexhull_lemma(**inst, samples=100, seed=3)
        assert rep.passed

    def test_equal_ab_reduces_to_sum_bound(self):
        # with a = b the weighted facet is a scalar multiple of the sum bound
        rng = np.random.default_rng(25)
        inst = random_hull_instance(rng)
        inst["b"] = inst["a"] = max(inst["a"], 1e-3)
        inst["r12"] = max(inst["r12"], inst["a"] + max(inst["r1"], inst["r2"]))
        inst["r12"] = min(inst["r12"], inst["r1"] + inst["r2"])
        rep = verify_convexhull_lemma(**inst, samples=100, seed=4)
        assert rep.passed

    def test_random_instances(self):
        rng = np.random.default_rng(26)
        for i in range(150):
            rep = verify_convexhull_lemma(**random_hull_instance(rng),
                                          samples=120, seed=i)
            assert rep.passed, rep.counterexamples[:2]

    def test_witnesses_recorded(self):
        rng = np.random.default_rng(27)
        rep = verify_convexhull_lemma(**random_hull_instance(rng),
                                      samples=60, seed=5)
        assert rep.passed and len(rep.witnesses) > 0
        assert all("alpha" in w or "lambda" in w for w in rep.witnesses)

    def test_report_json(self):
        rng = np.random.default_rng(28)
        rep = verify_convexhull_lemma(**random_hull_instance(rng),
                                      samples=40, seed=6)
        obj = rep.to_json_dict()
        assert obj["passed"] and obj["lemma"]

    def test_empty_alpha_sets_near_alpha1_rejected(self):
        # R1 <= r1 - alpha a is negative for alpha > 0.998; a grid probe with
        # a stride skipping alpha1 missed it, the endpoint test does not.
        inst = random_hull_instance(np.random.default_rng(5))
        inst.update(alpha0=0.0, alpha1=1.0, a=0.5, r1=0.499)
        inst["r12"] = min(max(inst["r12"], inst["r1"], inst["r2"]),
                          inst["r1"] + inst["r2"])
        with pytest.raises(PreconditionError, match="alpha=1.0"):
            verify_convexhull_lemma(**inst)


@st.composite
def case2_profiles(draw):
    """A profile of a random factored input, in a drawn sender order, with
    an H_C at which it classifies as non-degenerate Case 2."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mac = random_mac(rng, bob_quality=draw(st.sampled_from([0.0, 0.5])))
    prof = info_profile(random_factored(rng, mac, u=draw(st.integers(1, 3))))
    if draw(st.booleans()):
        prof = prof.swapped()
    low = min(prof.iz_v1u, prof.iz_v2u)
    hc = low + draw(st.floats(0.0, 1.0)) * (prof.iz_v12 - low)
    assume(abs(prof.iz_v1_v2u - prof.iz_v2_v1u) > regions.EQUALITY_TOL)
    assume(CaseLabel.CASE2 in classify_profile(prof, hc).cases)
    return prof, hc


class TestCase2HullInGivenOrder:
    def test_region_and_verifier_read_the_given_order(self):
        # The Case-2 region names its rows in the senders' given order, and
        # the hull verifier passes on the instance its profile gives, with
        # either conditional leakage the larger.
        orders, verified = set(), set()

        @PROPERTY_SETTINGS
        @given(case2_profiles())
        def check(drawn):
            prof, hc = drawn
            a, b = prof.iz_v1_v2u, prof.iz_v2_v1u
            orders.add(bool(a < b))
            region = region_common(prof, hc, CaseLabel.CASE2)
            assert region.names == RATE_NAMES[:3] + ("weighted bound",) + RATE_NAMES[3:]
            ab = alpha_bounds_case2(prof, hc)
            try:
                rep = verify_convexhull_lemma(
                    prof.it_v1_v2u, prof.it_v2_v1u, prof.it_v12_u,
                    prof.it_v12 - prof.iz_v12, a, b, 0.0, ab.alpha0, ab.alpha1,
                    samples=60, seed=0)
            except PreconditionError:
                return
            assert rep.passed and not rep.counterexamples
            verified.add(bool(a < b))

        check()
        assert orders == verified == {False, True}


def squared_excess(poly, point) -> Fraction:
    """The largest squared distance, per unit normal and in exact rationals,
    by which ``point`` breaks a row of ``poly`` (0 when it breaks none)."""
    x = [Fraction(v) for v in point]
    worst = Fraction(0)
    for row, rhs in zip(poly.coeffs, poly.rhs):
        row = [Fraction(c) for c in row]
        excess = sum(c * v for c, v in zip(row, x)) - Fraction(rhs)
        if excess > 0:
            worst = max(worst, excess * excess / sum(c * c for c in row))
    return worst


class TestCase2WeightedRowScale:
    def test_kept_vertices_within_vertex_tol_per_unit_normal(self):
        # The weighted row (0, b, a) is divided by its norm, so VERTEX_TOL
        # is a distance in rates on it as on every other row.  Unscaled, 41
        # of these regions kept a vertex more than 1e-9 outside the region,
        # the worst 1.24e-5 (a, b about 4e-5 and 6e-5).
        pairs = sample_case1_profiles(np.random.default_rng(5), 400,
                                      require_case2=True,
                                      sufficient_randomness=True)
        worst = max(squared_excess(poly, vertex)
                    for poly in (region_common(prof, hc, CaseLabel.CASE2)
                                 for prof, hc in pairs)
                    for vertex in poly.vertices())
        assert worst <= Fraction(regions.VERTEX_TOL) ** 2


class TestNesting:
    def test_case1_inside_case2_and_case3(self):
        rng = np.random.default_rng(29)
        pairs = sample_case1_profiles(rng, 25, require_case2=True,
                                      sufficient_randomness=True)
        for prof, hc in pairs:
            r1 = region_common(prof, hc, CaseLabel.CASE1)
            r2 = region_common(prof, hc, CaseLabel.CASE2)
            r3 = region_common(prof, hc, CaseLabel.CASE3, check_membership=False)
            for vertex in r1.vertices():
                assert r2.contains(vertex, tol=1e-9), (vertex, prof)
                assert r3.contains(vertex, tol=1e-9)

    def test_scarce_randomness_can_break_nesting(self):
        # Below max(I(Z^V1U), I(Z^V2U)) the Case-2 time-sharing window is
        # squeezed by the randomness budget and the first region can poke out
        # of the second; this documents the regime where that happens.
        rng = np.random.default_rng(4000)
        pairs = sample_case1_profiles(rng, 200, require_case2=True)
        violated = 0
        for prof, hc in pairs:
            if hc >= max(prof.iz_v1u, prof.iz_v2u):
                continue
            r1 = region_common(prof, hc, CaseLabel.CASE1)
            r2 = region_common(prof, hc, CaseLabel.CASE2)
            if any(not r2.contains(v, tol=1e-9) for v in r1.vertices()):
                violated += 1
        assert violated > 0


class TestHcMonotonicity:
    @PROPERTY_SETTINGS
    @given(random_inputs(), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_case2_region_grows_with_hc(self, p, u1, u2):
        # Raising H_C inside the Case-2 gate only lowers the left end of the
        # time-sharing interval (or raises its right end), so every bound of
        # the region loosens.
        prof = info_profile(p)
        low = min(prof.iz_v1u, prof.iz_v2u)
        h1, h2 = sorted(low + (prof.iz_v12 - low) * u for u in (u1, u2))
        assume(low < h1 < h2)
        try:
            inner = region_common(prof, h1, CaseLabel.CASE2, check_membership=False)
        except PreconditionError:
            assume(False)
        outer = region_common(prof, h2, CaseLabel.CASE2, check_membership=False)
        for vertex in inner.vertices():
            assert outer.contains(vertex, tol=1e-9), (vertex, h1, h2)


class TestBoundaryWarnings:
    def test_case1_gate_boundary_flagged(self):
        rng = np.random.default_rng(31)
        prof, _ = sample_case1_profiles(rng, 1)[0]
        report = classify_profile(prof, prof.iz_u)  # exactly on the gate
        assert CaseLabel.CASE1 not in report.cases  # strict gate
        assert any("Case-1" in w for w in report.warnings)

    def test_case3_gate_boundary_flagged(self):
        rng = np.random.default_rng(32)
        prof, _ = sample_case1_profiles(rng, 1)[0]
        report = classify_profile(prof, prof.iz_v12)
        assert CaseLabel.CASE3 not in report.cases
        assert any("Case-3" in w for w in report.warnings)


class TestCase2Endpoints:
    def test_alpha0_elementary_matches_region_r1_bound(self):
        # at the left endpoint the elementary R1 bound must reproduce the
        # case region's R1 bound (both are computed independently), in
        # either sender order
        rng = np.random.default_rng(33)
        checked = 0
        while checked < 10:
            prof = info_profile(random_factored(rng, random_mac(rng, bob_quality=0.5)))
            if abs(prof.iz_v1_v2u - prof.iz_v2_v1u) <= 1e-6:
                continue
            if prof.iz_v12 > prof.it_v12:
                continue
            low = min(prof.iz_v1u, prof.iz_v2u)
            if not low + 1e-6 < prof.iz_v12:
                continue
            hc = rng.uniform(low + 1e-6, prof.iz_v12)
            ab = alpha_bounds_case2(prof, hc)
            if ab.degenerate or ab.alpha0 > ab.alpha1:
                continue
            checked += 1
            region = region_common(prof, hc, CaseLabel.CASE2,
                                   check_membership=False)
            sub = elementary_region(prof, CaseLabel.CASE2, ab.alpha0, hc)
            assert sub.rhs[0] == pytest.approx(region.rhs[0], abs=1e-12)
            sub1 = elementary_region(prof, CaseLabel.CASE2, ab.alpha1, hc)
            assert sub1.rhs[1] == pytest.approx(region.rhs[1], abs=1e-12)


HULL_SCALES = (1e-11, 1e-6, 1.0, 1e3)


@st.composite
def lattice_clouds(draw, dim):
    """(points, scale): distinct points of the lattice {0..6}^dim, enough to
    span it, and the scale they are taken at."""
    pts = draw(st.lists(st.tuples(*[st.integers(0, 6)] * dim), min_size=dim + 1,
                        max_size=9, unique=True))
    return np.array(pts, dtype=float), draw(st.sampled_from(HULL_SCALES))


@st.composite
def flat_lattice_clouds(draw, dim):
    """(points, scale): distinct lattice points on a line, or in 3-D on a
    plane, through a lattice point along independent lattice vectors."""
    rank = draw(st.integers(1, dim - 1))
    base = np.array(draw(st.tuples(*[st.integers(0, 6)] * dim)))
    spans = np.array([draw(st.tuples(*[st.integers(-2, 2)] * dim))
                      for _ in range(rank)])
    assume(np.linalg.matrix_rank(spans) == rank)
    coords = draw(st.lists(st.tuples(*[st.integers(0, 3)] * rank), min_size=1,
                           max_size=8, unique=True))
    pts = np.unique(base + np.array(coords) @ spans, axis=0)
    return pts.astype(float), draw(st.sampled_from(HULL_SCALES))


def same_rows(got, want) -> bool:
    return sorted(map(tuple, got.tolist())) == sorted(map(tuple, want.tolist()))


class TestHullKernel:
    @PROPERTY_SETTINGS
    @given(st.sampled_from([2, 3]).flatmap(lattice_clouds))
    def test_matches_qhull_where_qhull_accepts(self, drawn):
        lattice, scale = drawn
        pts = np.round(lattice * scale, 12)
        try:
            ref = pts[ConvexHull(pts).vertices]
        except QhullError:
            assume(False)
        got = regions._hull_vertices(lattice * scale)
        assert same_rows(got, ref)
        if got.shape[1] == 3:  # lexicographic order
            assert np.array_equal(got, np.unique(got, axis=0))
        else:  # counterclockwise from the lexicographic minimum
            assert np.array_equal(got[0], np.unique(got, axis=0)[0])
            d1, d2 = np.roll(got, -1, axis=0) - got, np.roll(got, -2, axis=0) - got
            assert (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0).all()

    @PROPERTY_SETTINGS
    @given(st.sampled_from([2, 3]).flatmap(flat_lattice_clouds))
    def test_flat_clouds_match_exact_reference(self, drawn):
        # qhull refuses these; the kernel returns the hull within their
        # affine span: a point, a segment's two ends or a polygon
        lattice, scale = drawn
        got = regions._hull_vertices(lattice * scale)
        assert same_rows(got, np.round(lattice[reference_hull(lattice)] * scale, 12))

    def test_keeps_vertices_at_1e_11(self):
        # additive-channel search clouds: rates of 3.83e-11 and 1.58e-11
        # (3.8e-11 and 1.6e-11 at 12 decimals) beside rates near 0.5 are
        # real vertices
        for cloud in ([[0, 0, 0], [0.4955380298022, 0, 0], [0, 3.83e-11, 0],
                       [0, 0, 3.83e-11]],
                      [[0, 0, 0], [0.4999999998831, 0, 0], [0, 0.052002292103, 0],
                       [0, 1.58e-11, 0.0996407749325]]):
            pts = np.round(cloud, 12)
            got = regions._hull_vertices(pts)
            assert same_rows(got, pts)
            assert same_rows(got, pts[ConvexHull(pts).vertices])

    def test_refuses_clouds_beyond_the_cell_budget(self):
        # every point's distance to every triple's plane: 90 points need
        # C(90, 3) * 90 > CELL_BUDGET cells
        cloud = np.random.default_rng(0).uniform(size=(90, 3))
        with pytest.raises(ResourceBudgetError):
            regions._hull_vertices(cloud)
        assert len(regions._hull_vertices(cloud[:60])) >= 4
