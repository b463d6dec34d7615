import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from _support import (
    point_mass,
    reference_box,
    reference_sample_typical,
    reference_typical_row,
    sequence_index,
    sequence_mass,
    sequence_prob,
    variation_distance,
)
from wtmac.errors import (
    DegenerateTypicalityError,
    ResourceBudgetError,
    ValidationError,
)
from wtmac import probkit
from wtmac.probkit import (
    AX_T,
    AX_U,
    AX_V1,
    AX_V2,
    AX_X,
    AX_Y,
    AX_Z,
    CELL_BUDGET,
    Alphabet,
    Channel,
    Dist,
    FactoredInput,
    WiretapMAC,
    _CountBoxes,
    _truncated_laws,
    _typical_rows,
    all_sequences,
    entropy,
    joint_from_factors,
    mutual_information,
    n_fold,
    sample_typical,
    truncated_typical_dist,
    typical_mask,
    typical_membership,
)

WB_62 = np.array([[0.6178, 0.3822], [0.0624, 0.9376],
                  [0.9350, 0.0650], [0.2353, 0.7647]])
WE_62 = np.array([[0.0729, 0.9271], [0.7264, 0.2736],
                  [0.3662, 0.6338], [0.4643, 0.5357]])


def example62_input():
    mac = WiretapMAC.from_marginals(WB_62, WE_62)
    return FactoredInput.independent(Dist.from_mass([0.6933, 0.3067]),
                                     Dist.from_mass([0.3151, 0.6849]), mac)


def random_mac(rng, x=2, y=2, t=2, z=2):
    rows = rng.dirichlet(np.ones(t * z), size=x * y)
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


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(Dist.uniform(2)) == pytest.approx(1.0, abs=1e-15)

    def test_dyadic(self):
        assert entropy(Dist.from_mass([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-15)

    def test_worked_example_output_entropy(self):
        j = example62_input().joint
        assert j.entropy({AX_Z}) == pytest.approx(0.9999, abs=1e-3)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            entropy(np.array([0.5, 0.4]))


class TestMutualInformation:
    def test_noiseless_channel(self):
        mac = WiretapMAC.from_marginals(np.array([[1.0, 0], [0, 1], [0, 1], [1, 0]]),
                                        np.full((4, 2), 0.5))
        p = FactoredInput.independent(Dist.uniform(2), point_mass(2, 0), mac)
        assert mutual_information(p.joint, {AX_X}, {AX_T}) == pytest.approx(1.0, abs=1e-12)

    def test_product_independence(self):
        rng = np.random.default_rng(0)
        p = FactoredInput.independent(Dist.from_mass(rng.dirichlet([1, 1])),
                                      Dist.from_mass(rng.dirichlet([1, 1])),
                                      random_mac(rng))
        assert mutual_information(p.joint, {AX_X}, {AX_Y}) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_value(self):
        j = example62_input().joint
        assert mutual_information(j, {AX_T}, {AX_Y}, {AX_X}) == pytest.approx(0.2847, abs=1e-3)

    def test_overlap_rejected(self):
        j = example62_input().joint
        with pytest.raises(ValidationError):
            mutual_information(j, {AX_T}, {AX_T, AX_X})

    def test_chain_rule(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            j = random_factored(rng, random_mac(rng)).joint
            lhs = mutual_information(j, {AX_Z}, {AX_V1, AX_V2})
            rhs = (mutual_information(j, {AX_Z}, {AX_V1})
                   + mutual_information(j, {AX_Z}, {AX_V2}, {AX_V1}))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_nonnegativity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            j = random_factored(rng, random_mac(rng)).joint
            assert mutual_information(j, {AX_T}, {AX_V1}, {AX_V2, AX_U}) >= -1e-12


class TestEntropyMemo:
    def test_key_ignores_axis_order_and_duplicates(self):
        # the axes name a set: their order and repeats do not change the value
        rng = np.random.default_rng(6)
        j = random_factored(rng, random_mac(rng)).joint
        values = {j.entropy([1, 0]), j.entropy({0, 1}), j.entropy((0, 1, 1, 0))}
        assert values == {probkit.entropy_bits(j.marginal_mass({0, 1}))}
        assert (j.entropy() == j.entropy(reversed(range(j.ndim)))
                == probkit.entropy_bits(j.mass))


class TestJointFromFactors:
    def test_planned_contraction_matches_einsum(self):
        rng = np.random.default_rng(8)
        for u, v1, v2 in ((1, 2, 2), (3, 2, 3), (9, 2, 2), (3, 2, 3)):
            p = random_factored(rng, random_mac(rng, t=3), u=u, v1=v1, v2=v2)
            direct = np.einsum("u,ua,ub,ax,by,xytz->uabxytz", p.p_u.mass,
                               p.v1_given_u.matrix, p.v2_given_u.matrix,
                               p.x_given_v1.matrix, p.y_given_v2.matrix,
                               p.mac.tensor, optimize=True)
            assert np.array_equal(p.joint.mass, direct)

    def test_deterministic_chain_is_point_mass(self):
        mac = WiretapMAC.from_marginals(np.array([[1.0, 0], [0, 1], [0, 1], [1, 0]]),
                                        np.array([[1.0, 0], [1, 0], [1, 0], [1, 0]]))
        p = FactoredInput.coupled(point_mass(2, 1), mac)
        mass = p.joint.mass
        assert np.count_nonzero(mass) == 1
        assert mass.max() == pytest.approx(1.0, abs=1e-15)

    def test_trivial_u_gives_independent_v(self):
        rng = np.random.default_rng(3)
        p = random_factored(rng, random_mac(rng), u=1)
        assert mutual_information(p.joint, {AX_V1}, {AX_V2}) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example_leakage(self):
        j = example62_input().joint
        assert mutual_information(j, {AX_Z}, {AX_V1, AX_V2}) == pytest.approx(0.2147, abs=1e-3)

    def test_markov_structure(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            j = random_factored(rng, random_mac(rng)).joint
            assert mutual_information(j, {AX_V1}, {AX_V2}, {AX_U}) <= 1e-10
            assert mutual_information(j, {AX_T, AX_Z}, {AX_U, AX_V1, AX_V2},
                                      {AX_X, AX_Y}) <= 1e-10

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        mac = random_mac(rng)
        with pytest.raises(ValidationError):
            joint_from_factors(Dist.uniform(2),
                               Channel.from_matrix(rng.dirichlet([1, 1], size=3)),
                               Channel.identity(2), Channel.identity(2),
                               Channel.identity(2), mac)


BAD_ROWS = {
    "negative mass": ([-0.25, 1.25], "negative probability mass"),
    "negative and off": ([-0.25, 1.5], "negative probability mass"),
    "sum above 1": ([0.25, 0.75 + 1e-11], "mass sums to 1.00000000001, not 1 within 1e-12"),
    "sum below 1": ([0.5, 0.5 - 3e-12], "mass sums to 0.999999999997, not 1 within 1e-12"),
}


class TestChannelValidation:
    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    def test_first_bad_row_is_named(self, kind, row):
        values, problem = BAD_ROWS[kind]
        m = np.full((4, 2), 0.5)
        m[row] = values
        m[3] = [2.0, 0.0]  # a later bad row is not the one reported
        with pytest.raises(ValidationError) as err:
            Channel.from_matrix(m)
        assert str(err.value) == f"channel row {row}: {problem}"

    @pytest.mark.parametrize("shape, row", [((2, 3), 0), ((3, 2), 2)])
    def test_wrong_shape(self, shape, row):
        # (2, 3): row 0 already has three entries; (3, 2): row 2 is extra
        with pytest.raises(ValidationError) as err:
            Channel(Alphabet(2), Alphabet(2), np.full(shape, 1.0 / shape[1]))
        assert str(err.value) == (f"channel matrix shape {shape} does not match "
                                  f"alphabets (2, 2)")

    def test_clean_rows_accepted(self):
        m = np.array([[0.5, 0.5], [1.0 + 5e-13, -5e-13], [0.0, 1.0]])
        ch = Channel.from_matrix(m)
        assert not ch.matrix.flags.writeable
        assert np.array_equal(ch.matrix, np.clip(m, 0.0, None))


class TestVariationDistance:
    def test_disjoint_point_masses(self):
        assert variation_distance(point_mass(2, 0), point_mass(2, 1)) == 2.0

    def test_identity(self):
        d = Dist.from_mass([0.3, 0.7])
        assert variation_distance(d, d) == 0.0

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m1 = rng.dirichlet(np.ones(5))
            m2 = rng.dirichlet(np.ones(5))
            direct = sum(abs(float(m1[i]) - float(m2[i])) for i in range(5))
            assert variation_distance(m1, m2) == pytest.approx(direct, abs=1e-15)

    def test_subnormalized_accepted(self):
        assert variation_distance(np.array([0.25, 0.25]), np.zeros(2)) == 0.5

    def test_triangle_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m1, m2, m3 = (rng.dirichlet(np.ones(4)) for _ in range(3))
            assert (variation_distance(m1, m3)
                    <= variation_distance(m1, m2) + variation_distance(m2, m3) + 1e-12)


class TestNFold:
    def test_single_use_identity(self):
        ch = Channel.from_matrix([[0.9, 0.1], [0.2, 0.8]])
        assert np.allclose(n_fold(ch, 1).matrix, ch.matrix)

    def test_bsc_product_rule(self):
        eps = 0.1
        bsc = Channel.from_matrix([[1 - eps, eps], [eps, 1 - eps]])
        ext = n_fold(bsc, 2)
        assert ext.matrix[0, 0] == pytest.approx((1 - eps) ** 2, abs=1e-15)

    def test_rows_normalized(self):
        rng = np.random.default_rng(8)
        ch = Channel.from_matrix(rng.dirichlet(np.ones(3), size=2))
        ext = n_fold(ch, 3)
        assert np.allclose(ext.matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_budget_guard(self):
        ch = Channel.from_matrix(np.full((8, 8), 1 / 8))
        with pytest.raises(ResourceBudgetError):
            n_fold(ch, 5)


class TestTypicality:
    def test_exact_type_sequence(self):
        d = Dist.from_mass([0.5, 0.5])
        seq = np.array([0, 1] * 10)
        assert typical_membership(d, seq, 0.05)

    def test_all_zeros_not_typical(self):
        d = Dist.uniform(2)
        assert not typical_membership(d, np.zeros(20, dtype=int), 0.1)

    def test_matches_exhaustive_counting(self):
        # independent oracle: raw python loops over symbol counts
        rng = np.random.default_rng(9)
        for n in (4, 7, 10):
            d = Dist.from_mass(rng.dirichlet([2, 2]))
            delta = rng.uniform(0.05, 0.4)
            for seq in all_sequences(2, n):
                counts = [0, 0]
                for s in seq:
                    counts[s] += 1
                expect = all(abs(counts[a] / n - d.mass[a]) <= delta for a in (0, 1))
                assert typical_membership(d, seq, delta) == expect

    def test_conditional_matches_counting(self):
        rng = np.random.default_rng(10)
        ch = Channel.from_matrix(rng.dirichlet([2, 2], size=2))
        n = 8
        ctx = rng.integers(0, 2, size=n)
        delta = 0.2
        for seq in all_sequences(2, n):
            ok = True
            for b in range(2):
                nb = int((ctx == b).sum())
                for aa in range(2):
                    nab = int(((ctx == b) & (seq == aa)).sum())
                    if abs(nab / n - ch.matrix[b, aa] * nb / n) > delta:
                        ok = False
            assert typical_membership(ch, seq, delta, ctx) == ok

    def test_length_mismatch(self):
        ch = Channel.identity(2)
        with pytest.raises(ValidationError):
            typical_membership(ch, np.zeros(4, dtype=int), 0.1, np.zeros(3, dtype=int))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [0, -1])
    def test_blocklength_below_one_rejected(self, n):
        d = Dist.from_mass([0.6, 0.4])
        ch = Channel.from_matrix([[0.7, 0.3], [0.35, 0.65]])
        rng = np.random.default_rng(0)
        ctx = np.zeros(max(n, 0), dtype=np.int64)
        for law, context in ((d, None), (ch, ctx)):
            with pytest.raises(ValidationError, match="blocklength"):
                typical_mask(law, 0.2, n, context)
            with pytest.raises(ValidationError, match="blocklength"):
                truncated_typical_dist(law, n, 0.2, context)
            with pytest.raises(ValidationError, match="blocklength"):
                sample_typical(law, n, 0.2, rng, context)


class TestTruncatedTypical:
    def test_deterministic_point_mass(self):
        d = point_mass(2, 1)
        sd = truncated_typical_dist(d, 5, 0.3)
        assert sequence_mass(sd, [1, 1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-15)

    def test_large_delta_equals_product(self):
        d = Dist.uniform(2)
        sd = truncated_typical_dist(d, 4, 0.9)
        assert np.allclose(sd.mass, 1 / 16, atol=1e-15)

    def test_total_mass_one(self):
        rng = np.random.default_rng(11)
        for n in (6, 9, 12):
            d = Dist.from_mass(rng.dirichlet([3, 2]))
            sd = truncated_typical_dist(d, n, 0.2)
            assert float(sd.mass.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_empty_typical_set(self):
        # n = 5, delta = 0.05 under fair coin: N(0) would have to sit in
        # [2.25, 2.75], which holds no integer
        with pytest.raises(DegenerateTypicalityError):
            truncated_typical_dist(Dist.uniform(2), 5, 0.05)

    def test_conditional_support(self):
        rng = np.random.default_rng(12)
        ch = Channel.from_matrix(rng.dirichlet([2, 2], size=2))
        ctx = np.array([0, 1, 0, 1, 0, 1])
        sd = truncated_typical_dist(ch, 6, 0.25, ctx)
        for seq in sd.support():
            assert typical_membership(ch, seq, 0.25, ctx)

    def test_rejection_sampler_matches(self):
        rng = np.random.default_rng(13)
        d = Dist.from_mass([0.6, 0.4])
        seq = sample_typical(d, 30, 0.15, rng)
        assert typical_membership(d, seq, 0.15)


def _drawn_matrix(data, nb, na):
    """A stochastic (nb, na) matrix from hypothesis, some entries zero."""
    rows = []
    for _ in range(nb):
        row = np.array(data.draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 3.7]),
            min_size=na, max_size=na)))
        if row.sum() == 0.0:
            row[data.draw(st.integers(0, na - 1))] = 1.0
        rows.append(row / row.sum())
    return np.array(rows)


def _box_law(boxes, matrix, ctx):
    """The law of one draw given ``ctx`` over all sequences: per context
    symbol b, the mass of b's count vector in its box over the vector's
    multinomial coefficient (0 off the box)."""
    n, (nb, na) = len(ctx), matrix.shape
    group = {}
    for key in range(len(boxes.first) - 1):
        for i in range(boxes.first[key], boxes.first[key + 1]):
            group[key, tuple(boxes.counts[i])] = boxes.mass[i]
    law = []
    for seq in all_sequences(na, n):
        p = 1.0
        for b in range(nb):
            c = tuple(np.bincount(seq[ctx == b], minlength=na))
            p *= group.get((b * (n + 1) + sum(c), c), 0.0) / (
                math.factorial(sum(c)) / math.prod(map(math.factorial, c)))
        law.append(p)
    return np.array(law)


def _zero_mass_laws(rng, size=3, contexts=3):
    """A Dist and a Channel whose symbol 1 (and one whole channel entry per
    row) carry no mass, plus a context that uses every channel row."""
    mass = rng.dirichlet(np.ones(size))
    mass[1] = 0.0
    d = Dist.from_mass(mass / mass.sum())
    rows = rng.dirichlet(np.ones(size), size=contexts)
    rows[np.arange(contexts), np.arange(contexts) % size] = 0.0
    ch = Channel.from_matrix(rows / rows.sum(axis=1, keepdims=True))
    return d, ch


class TestSequenceLawKernel:
    """The one pair-count kernel behind membership, masks, truncation and
    sampling, against per-sequence and per-symbol references."""

    def test_mask_matches_membership(self):
        rng = np.random.default_rng(31)
        for n in (1, 3, 6):
            d, ch = _zero_mass_laws(rng)
            ctx = rng.integers(0, 3, size=n)
            for delta in (0.1, 0.25, 0.6):
                seqs = all_sequences(3, n)
                assert np.array_equal(
                    typical_mask(d, delta, n),
                    [typical_membership(d, s, delta) for s in seqs])
                assert np.array_equal(
                    typical_mask(ch, delta, n, ctx),
                    [typical_membership(ch, s, delta, ctx) for s in seqs])

    def test_mask_deviation_equal_to_delta(self):
        # N(0)/n = 3/4 against P(0) = 1/2, and N(0, 0)/n = 2/4 against
        # P(0|0) * N(0)/n = 1/2 * 2/4: both deviations are exactly 1/4
        d = Dist.from_mass([0.5, 0.5])
        ch = Channel.from_matrix([[0.5, 0.5], [0.25, 0.75]])
        ctx = np.array([0, 0, 1, 1])
        seqs = all_sequences(2, 4)
        for law, context, seq in ((d, None, [0, 0, 0, 1]),
                                  (ch, ctx, [0, 0, 0, 1])):
            at = sequence_index(seq, 2)
            for delta, want in ((0.25, True), (np.nextafter(0.25, 0.0), False)):
                mask = typical_mask(law, delta, 4, context)
                assert mask[at] == want
                assert typical_membership(law, seq, delta, context) == want
                assert np.array_equal(
                    mask, [typical_membership(law, s, delta, context)
                           for s in seqs])

    def test_mask_split_across_blocks(self, monkeypatch):
        rng = np.random.default_rng(32)
        d, ch = _zero_mass_laws(rng)
        ctx = rng.integers(0, 3, size=7)
        whole = typical_mask(d, 0.2, 7), typical_mask(ch, 0.3, 7, ctx)
        monkeypatch.setattr(probkit, "_BLOCK_CELLS", 50)
        assert np.array_equal(typical_mask(d, 0.2, 7), whole[0])
        assert np.array_equal(typical_mask(ch, 0.3, 7, ctx), whole[1])

    def test_law_errors(self):
        d = Dist.uniform(2)
        ch = Channel.identity(2)
        seq = np.zeros(4, dtype=int)
        with pytest.raises(ValidationError):
            typical_membership(ch, seq, 0.1)
        with pytest.raises(ValidationError):
            typical_mask(d, 0.1, 4, seq)
        with pytest.raises(ValidationError):
            truncated_typical_dist(ch, 4, 0.1)
        with pytest.raises(ValidationError):
            sample_typical(ch, 4, 0.1, np.random.default_rng(0), seq[:3])
        with pytest.raises(ValidationError):
            typical_membership(ch, seq, 0.1, np.array([0, 1, 2, 0]))
        with pytest.raises(ValidationError):
            typical_membership(d, np.array([0, 1, 2, 0]), 0.1)
        with pytest.raises(ValidationError):
            typical_membership(d, np.array([0, -1, 1, 0]), 0.1)
        with pytest.raises(ValidationError):
            typical_mask(d, 0.0, 4)

    @pytest.mark.parametrize("conditional", [False, True])
    def test_sampler_matches_per_symbol_reference(self, conditional):
        rng = np.random.default_rng(33)
        for trial in range(12):
            d, ch = _zero_mass_laws(rng)
            n = int(rng.integers(3, 9))
            ctx = rng.integers(0, 3, size=n)
            law, context = (ch, ctx) if conditional else (d, None)
            ours = np.random.default_rng(trial)
            ref = np.random.default_rng(trial)
            for _ in range(4):
                seq = sample_typical(law, n, 0.35, ours, context)
                assert np.array_equal(
                    seq, reference_sample_typical(law, n, 0.35, ref, context))
                assert seq.dtype == np.int64
            assert ours.bit_generator.state == ref.bit_generator.state

    def test_sampler_refuses_an_empty_box(self):
        # n = 5, delta = 0.05: no count of a fair coin is typical, and the
        # sampler says so before it reads the generator
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DegenerateTypicalityError,
                           match="empty 0.05-typical set at blocklength 5"):
            sample_typical(Dist.uniform(2), 5, 0.05, rng)
        assert rng.bit_generator.state == state

    def test_per_row_contexts_match_row_by_row_calls(self, monkeypatch):
        # 4 x 3 cells and n = 7: a step of 50 // 12 = 4 rows, so 10 rows span
        # three blocks
        rng = np.random.default_rng(35)
        _, ch = _zero_mass_laws(rng, contexts=4)
        ctx = rng.integers(0, 4, size=(10, 7))
        seqs = rng.integers(0, 3, size=(10, 7))
        for delta in (0.1, 0.15, 0.25, 0.3, 0.6):
            whole = _typical_rows(ch.matrix, ctx, seqs, delta)
            monkeypatch.setattr(probkit, "_BLOCK_CELLS", 50)
            blocked = _typical_rows(ch.matrix, ctx, seqs, delta)
            rows = [_typical_rows(ch.matrix, c, s[None, :], delta)[0]
                    for c, s in zip(ctx, seqs)]
            shared = _typical_rows(ch.matrix, ctx[0], seqs, delta)
            monkeypatch.undo()
            assert np.array_equal(whole, rows)
            assert np.array_equal(blocked, rows)
            assert np.array_equal(
                shared, _typical_rows(ch.matrix, np.tile(ctx[0], (10, 1)),
                                      seqs, delta))
            if delta == 0.25:
                assert whole.any() and not whole.all()

    # the whole stack in one kernel call, or one row per call
    @pytest.mark.parametrize("rows_per_call", [None, 1])
    @pytest.mark.parametrize("conditional", [False, True])
    def test_stacked_streams_match_per_stream_loops(self, conditional,
                                                    rows_per_call):
        rng = np.random.default_rng(36)
        for trial in range(6):
            d, ch = _zero_mass_laws(rng)
            matrix = ch.matrix if conditional else d.mass[None, :]
            n = int(rng.integers(3, 9))
            seeds = [int(s) for s in rng.integers(1 << 30, size=5)]
            boxes = _CountBoxes.build(matrix, n, 0.35)
            streams = [np.random.default_rng(s) for s in seeds]
            for count in (1, 7, 2):
                ctx = rng.integers(0, 3, size=(len(seeds), n))
                ctx = np.repeat(ctx if conditional else 0 * ctx, count, axis=0)
                draws = np.concatenate([g.random((count, len(matrix) + n))
                                        for g in streams])
                got = (boxes.draw(ctx, draws) if rows_per_call is None
                       else np.concatenate([boxes.draw(c[None], u[None])
                                            for c, u in zip(ctx, draws)]))
                assert got.shape == (len(seeds) * count, n)
                for seq, c, u in zip(got, ctx, draws):
                    assert np.array_equal(
                        seq, reference_typical_row(matrix, c, 0.35, u))

    def test_stack_gives_up_on_one_degenerate_stream(self):
        # X | U = 0 is a fair coin: under the all-zero context N(x, 0) would
        # have to sit in [2.25, 2.75] at n = 5, delta = 0.05, which holds no
        # integer; one U = 1 (whose X is always 0) moves it to [1.75, 2.25]
        ch = Channel.from_matrix([[0.5, 0.5], [1.0, 0.0]])
        fine, stuck = [0, 0, 1, 0, 0], [0, 0, 0, 0, 0]
        boxes = _CountBoxes.build(ch.matrix, 5, 0.05)
        draws = np.random.default_rng(1).random((3, 2 + 5))
        with pytest.raises(DegenerateTypicalityError,
                           match="empty 0.05-typical set at blocklength 5"):
            boxes.draw(np.array([fine, stuck, fine]), draws)
        got = boxes.draw(np.array([fine, fine]), draws[::2])
        for seq, u in zip(got, draws[::2]):
            assert np.array_equal(
                seq, reference_typical_row(ch.matrix, fine, 0.05, u))

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_box_law_equals_truncated_laws(self, data):
        # the law of one draw, per context symbol the box vector's mass
        # over its multinomial coefficient, against the enumerated
        # truncated law: same masses, same support, same refusals
        nb, na = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 6))
        matrix = _drawn_matrix(data, nb, na)
        delta = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5]))
        ctx = np.array(data.draw(st.lists(st.integers(0, nb - 1), min_size=n,
                                          max_size=n)), dtype=np.int64)
        boxes = _CountBoxes.build(matrix, n, delta)
        try:
            want = _truncated_laws(matrix, ctx[None], delta)[0]
        except DegenerateTypicalityError:
            with pytest.raises(DegenerateTypicalityError):
                boxes.keys(ctx[None])
            return
        boxes.keys(ctx[None])
        got = _box_law(boxes, matrix, ctx)
        assert np.array_equal(got > 0.0, want > 0.0)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_box_vectors_are_the_typical_count_vectors(self, data):
        nb, na = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 6))
        matrix = _drawn_matrix(data, nb, na)
        delta = data.draw(st.sampled_from([0.05, 0.1, 0.2, 0.3, 0.5]))
        ctx = np.array(data.draw(st.lists(st.integers(0, nb - 1), min_size=n,
                                          max_size=n)), dtype=np.int64)
        boxes = _CountBoxes.build(matrix, n, delta)
        seqs = all_sequences(na, n)
        typical = seqs[typical_mask(Channel.from_matrix(matrix), delta, n, ctx)
                       & (np.prod(matrix[ctx, seqs], axis=1) > 0.0)]
        try:
            keys = boxes.keys(ctx[None])[0]
        except DegenerateTypicalityError:
            assert len(typical) == 0
            return
        for b, key in enumerate(keys):
            box = {tuple(c) for c in boxes.counts[boxes.first[key]:
                                                   boxes.first[key + 1]]}
            seen = {tuple(np.bincount(s[ctx == b], minlength=na))
                    for s in typical}
            assert box == seen
            assert list(map(tuple, boxes.counts[boxes.first[key]:
                                               boxes.first[key + 1]])) \
                == reference_box(matrix, n, delta, b, int((ctx == b).sum()))[0]

    def test_count_boxes_refuse_over_the_cell_budget(self):
        # 9 symbols: C(n + 9, 9) vectors of 9 counts each, within the budget
        # up to n = 14
        assert math.comb(14 + 9, 9) * 9 <= CELL_BUDGET \
            < math.comb(15 + 9, 9) * 9
        with pytest.raises(ResourceBudgetError, match="count boxes"):
            _CountBoxes.build(np.full((1, 9), 1 / 9), 15, 0.2)
        with pytest.raises(ResourceBudgetError, match="count boxes"):
            sample_typical(Dist.uniform(9), 15, 0.2, np.random.default_rng(0))
        assert _CountBoxes.build(np.full((1, 9), 1 / 9), 6, 0.2).counts.shape[1] == 9

    @pytest.mark.parametrize("conditional", [False, True])
    def test_sampler_frequencies_follow_truncated_law(self, conditional):
        # chi-square goodness of fit at a fixed seed; sequences whose
        # expected count is under 5 are pooled into one cell
        ch = Channel.from_matrix([[0.7, 0.3], [0.35, 0.65]])
        law, context = ((ch, np.array([0, 1, 0, 0, 1, 1])) if conditional
                        else (Dist.from_mass([0.6, 0.4]), None))
        draws = 3000
        truth = truncated_typical_dist(law, 6, 0.2, context).mass
        rng = np.random.default_rng(34)
        index = [sequence_index(sample_typical(law, 6, 0.2, rng, context), 2)
                 for _ in range(draws)]
        counts = np.bincount(index, minlength=truth.size)
        assert not counts[truth == 0.0].any()
        big = truth * draws >= 5
        observed, expected = counts[big], truth[big] * draws
        if (truth[~big] > 0.0).any():
            observed = np.append(observed, counts[~big].sum())
            expected = np.append(expected, truth[~big].sum() * draws)
        assert chisquare(observed, expected).pvalue > 1e-3


class TestSerialization:
    def test_channel_json_roundtrip(self):
        rng = np.random.default_rng(14)
        mac = random_mac(rng, t=3, z=6)
        again = WiretapMAC.from_json_dict(json.loads(mac.to_json()))
        assert np.allclose(again.channel.matrix, mac.channel.matrix, atol=0)

    def test_marginals(self):
        mac = WiretapMAC.from_marginals(WB_62, WE_62)
        assert np.allclose(mac.bob.matrix, WB_62, atol=1e-12)
        assert np.allclose(mac.eve.matrix, WE_62, atol=1e-12)

    def test_sequence_prob(self):
        d = Dist.from_mass([0.75, 0.25])
        assert sequence_prob(d, [0, 0, 1]) == pytest.approx(0.75 * 0.75 * 0.25)


class TestBudgets:
    def test_factored_joint_budget(self):
        big = 50
        mac = WiretapMAC.from_rows(np.full((big * big, 4), 0.25), big, big, 2, 2)
        uniform = Dist.uniform(big)
        ident = Channel.identity(big)
        with pytest.raises(ResourceBudgetError):
            joint_from_factors(uniform, ident, ident, ident, ident, mac)
