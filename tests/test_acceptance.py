"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criterion 8b checks the conferencing gain against the
cap that the conferencing sum bound gives on the additive example channels,
min(C1 + C2, I(T^XY)) - I(Z^XY) at the coupled input x = y = U, which is
min(C1 + C2, 1/2): 0.02 at C1 = C2 = 0.01 and 0.3 at C1 = C2 = 0.15.
"""

import math
import time

import numpy as np

from _support import chernoff_bound, sample_case1_profiles, sample_case_profiles
from wtmac.casestudy import (
    concavity_scan,
    coupled_input,
    discussion_channels,
    equal_input_witness,
    example62,
    lessnoisy_gap,
)
from wtmac.codesim import (
    CodeChain,
    WiretapCode,
    average_error,
    build_wiretap_code,
    concentration_report,
    eavesdropper_conditionals,
    eve_map_error,
    exact_leakage,
    mac_average_error,
    max_message_variation,
    sample_codebook_family,
    secrecy_from_variation,
)
from wtmac.conferencing import (
    ConferencingCapacities,
    beta_bounds,
    build_conference,
    j0_alpha,
    rate_split,
    region_conferencing,
)
from wtmac.errors import ReductionInfeasibleError
from wtmac.optimizer import (
    CommonMode,
    ConferencingMode,
    SearchConfig,
    achievable_region_estimate,
    single_sender_secrecy_capacity,
)
from wtmac.probkit import (
    Alphabet,
    Channel,
    Dist,
    JointDist,
    WiretapMAC,
    mutual_information,
)
from wtmac.regions import (
    CaseLabel,
    alpha_bounds_case2,
    elementary_region,
    random_hull_instance,
    random_union_instance,
    region_common,
    verify_convexhull_lemma,
    verify_union_lemma,
)

REFERENCE = {
    "H(T|XY)": 0.5685, "H(Z|XY)": 0.7851, "H(T|X)": 0.8532, "H(Z|X)": 0.9952,
    "H(T|Y)": 0.6251, "H(Z|Y)": 0.8442, "H(T)": 0.8866, "H(Z)": 0.9999,
    "I(T^XY)": 0.3181, "I(Z^XY)": 0.2147, "I(T^X|Y)": 0.0566,
    "I(Z^X|Y)": 0.0590, "I(T^Y|X)": 0.2847, "I(Z^Y|X)": 0.2101,
    "I(Z^X)": 0.0047, "I(Z^Y)": 0.1557,
}


def report(number, passed, detail, elapsed=None):
    tag = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\n[{tag}] criterion {number}: {detail}{timing}", flush=True)


def test_criterion_1_worked_example_regression():
    start = time.perf_counter()
    rep = example62()
    values = {**rep.entropies, **rep.mutual_informations}
    mismatches = [k for k, v in REFERENCE.items()
                  if abs(values[k] - v) > 1e-3]
    mis = rep.mutual_informations
    inequalities = (mis["I(Z^X|Y)"] > mis["I(T^X|Y)"]
                    and mis["I(Z^Y|X)"] < mis["I(T^Y|X)"])
    alpha = rep.alpha_second_sender
    conclusions = (rep.hc01 and rep.hc02
                   and alpha.alpha0 > 0.0 and alpha.alpha1 == 1.0)
    elapsed = time.perf_counter() - start
    ok = not mismatches and inequalities and conclusions and elapsed < 1.0
    report(1, ok, "explicit-example regression, 16 values at 1e-3 plus "
                  "conditions and time-sharing conclusions", elapsed)
    assert not mismatches, mismatches
    assert inequalities and conclusions
    assert elapsed < 1.0


def test_criterion_2_additive_example():
    start = time.perf_counter()
    witness = equal_input_witness(scan_points=33)
    exact_ok = (abs(witness.i_z) <= 1e-12 and abs(witness.i_t - 0.5) <= 1e-12)
    scan = concavity_scan(99, 99)
    rng = np.random.default_rng(2024)
    h = 1e-4
    fd_ok = True
    for _ in range(40):
        q, r = rng.uniform(0.05, 0.95, size=2)
        fd = (lessnoisy_gap(q + h, r).gap - 2 * lessnoisy_gap(q, r).gap
              + lessnoisy_gap(q - h, r).gap) / h ** 2
        if abs(lessnoisy_gap(q, r).d2_gap_dq2 - fd) > 1e-5:
            fd_ok = False
    elapsed = time.perf_counter() - start
    ok = exact_ok and scan.passed and fd_ok and elapsed < 5.0
    report(2, ok, "coupled-input witness exact, 99x99 concavity scan, "
                  "finite-difference agreement", elapsed)
    assert exact_ok and scan.passed and fd_ok
    assert elapsed < 5.0


def test_criterion_3_lemma_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(3000)
    union_bad = 0
    for i in range(1000):
        rep = verify_union_lemma(**random_union_instance(rng), samples=200,
                                 grid_step=1e-3, tol=1e-9, seed=i)
        union_bad += len(rep.counterexamples)
    hull_bad = 0
    for i in range(1000):
        rep = verify_convexhull_lemma(**random_hull_instance(rng), samples=200,
                                      grid_step=1e-3, tol=1e-9, seed=i)
        hull_bad += len(rep.counterexamples)
    elapsed = time.perf_counter() - start
    ok = union_bad == 0 and hull_bad == 0 and elapsed < 60.0
    report(3, ok, f"decomposition lemmas on 1000+1000 random instances "
                  f"({union_bad} union / {hull_bad} hull counterexamples)",
           elapsed)
    assert union_bad == 0 and hull_bad == 0
    assert elapsed < 60.0


def test_criterion_4_region_nesting():
    # H_C is drawn above both single-sender-plus-shared leakages: the
    # sufficient-randomness regime, where the nesting holds (below it the
    # Case-2 time-sharing window is throttled and nesting genuinely fails;
    # see test_scarce_randomness_can_break_nesting in test_regions.py).
    start = time.perf_counter()
    rng = np.random.default_rng(4000)
    pairs = sample_case1_profiles(rng, 200, require_case2=True,
                                  sufficient_randomness=True)
    violations = 0
    for prof, hc in pairs:
        r1 = region_common(prof, hc, CaseLabel.CASE1)
        r2 = region_common(prof, hc, CaseLabel.CASE2)
        r3 = region_common(prof, hc, CaseLabel.CASE3, check_membership=False)
        points = np.vstack([r1.vertices(), r1.sample(rng, 20)])
        for point in points:
            if not (r2.contains(point, tol=1e-9)
                    and r3.contains(point, tol=1e-9)):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    report(4, ok, f"region nesting on 200 sampled inputs "
                  f"({violations} violations)", elapsed)
    assert violations == 0


def _reduction_instance(rng):
    case = CaseLabel(int(rng.choice([1, 2, 3])))
    prof, hc, _ = sample_case_profiles(rng, 1, case)[0]
    c1 = float(rng.uniform(0.15, 0.85)) * hc
    c2 = hc - c1
    caps = ConferencingCapacities(c1, c2)
    if case == CaseLabel.CASE2:
        ab = alpha_bounds_case2(prof, hc)
        if ab.degenerate or ab.alpha0 > ab.alpha1:
            return None
        span = ab.alpha1 - ab.alpha0
        alpha = float(ab.alpha0 + rng.uniform(0.05, 0.95) * span)
        target = elementary_region(prof, case, alpha, hc, check_range=False)
    else:
        alpha = 0.0
        target = region_common(prof, hc, case, check_membership=False)
    j0 = j0_alpha(prof, case, alpha)
    bb = beta_bounds(prof, case, alpha, caps)
    if bb.beta0 > bb.beta1:
        return None
    beta = float(rng.uniform(bb.beta0, bb.beta1))
    cap1 = max(c1 - beta * j0, 0.0)
    cap2 = max(c2 - (1.0 - beta) * j0, 0.0)
    triple = target.sample(rng, 1)[0]
    r0 = min(triple[0], cap1 + cap2 - 1e-12)
    if r0 < 0:
        r0 = 0.0
    rho1 = float(rng.uniform(max(0.0, r0 - cap2), min(cap1, r0))) \
        if r0 > 0 else 0.0
    rho2 = r0 - rho1
    rates = (triple[1] + rho1, triple[2] + rho2)
    return case, prof, alpha, beta, c1, c2, rates, target


def test_criterion_5_reduction_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(5000)
    done = 0
    failures = 0
    while done < 200:
        inst = _reduction_instance(rng)
        if inst is None:
            continue
        case, prof, alpha, beta, c1, c2, rates, target = inst
        try:
            split = rate_split(rates[0], rates[1], prof, case, alpha, beta,
                               c1, c2)
        except ReductionInfeasibleError:
            failures += 1
            done += 1
            continue
        if not target.contains(split.triple, tol=1e-9):
            failures += 1
        done += 1
    conf_ok = True
    for trial in range(50):
        k1 = int(rng.integers(1, 6))
        k2 = int(rng.integers(1, 6))
        l0 = int(rng.integers(1, 12))
        beta = float(rng.uniform(0, 1))
        n = 8
        probe = build_conference(k1, k2, l0, beta, 3.0, 3.0, n)
        c1 = math.log2(probe.j1_size) / n + 1e-9
        c2 = math.log2(probe.j2_size) / n + 1e-9
        conf = build_conference(k1, k2, l0, beta, c1, c2, n)
        rate1, rate2 = conf.rate_per_use()
        if rate1 > c1 or rate2 > c2:
            conf_ok = False
    elapsed = time.perf_counter() - start
    ok = failures == 0 and conf_ok
    report(5, ok, f"rate-splitting reduction on 200 feasible tuples "
                  f"({failures} failures) and exact conference capacities",
           elapsed)
    assert failures == 0
    assert conf_ok


def _tiny_code(rng, n, k0, l0, *, coupled=False, mac=None):
    if mac is None:
        rows_b = rng.dirichlet(np.ones(2), size=4)
        rows_e = rng.dirichlet(np.ones(2), size=4)
        mac = WiretapMAC.from_marginals(rows_b, rows_e)
    if coupled:
        chain = CodeChain(Dist.uniform(2), Channel.identity(2),
                          Channel.identity(2), mac)
    else:
        chain = CodeChain(Dist.from_mass([0.6, 0.4]),
                          Channel.from_matrix(rng.dirichlet([2, 2], size=2)),
                          Channel.from_matrix(rng.dirichlet([2, 2], size=2)),
                          mac)
    fam = sample_codebook_family(chain, n, (l0, 1, 1), 0.35,
                                 seed=int(rng.integers(1 << 30)),
                                 k_sizes=(k0, 1, 1))
    return WiretapCode(CaseLabel.CASE3, 2.0, 0.35, 0.25, None, (fam,),
                       (0.0, 0.0, 0.0))


def test_criterion_6_desk_scale_coding():
    start = time.perf_counter()
    rng = np.random.default_rng(6000)

    # (a) exact leakage equals the generic mutual-information path, n <= 6
    leakage_ok = True
    for n in (3, 4, 5, 6):
        for _ in range(4):
            code = _tiny_code(rng, n, k0=2, l0=2)
            cond = eavesdropper_conditionals(code)
            joint = JointDist((Alphabet(cond.shape[0]), Alphabet(cond.shape[1])),
                              cond / cond.shape[0])
            oracle = mutual_information(joint, {0}, {1})
            if abs(exact_leakage(code) - oracle) > 1e-9:
                leakage_ok = False

    # (b) the variation-to-leakage chain holds whenever its premise does
    chain_checked = 0
    chain_ok = True
    for _ in range(20):
        code = _tiny_code(rng, 5, k0=2, l0=4)
        eps = max_message_variation(code)
        if 0 < eps <= 0.5:
            chain_checked += 1
            bound = secrecy_from_variation(eps, 2, code.n_total)
            if exact_leakage(code) > bound + 1e-12:
                chain_ok = False

    # (c) a built Case-3 code: stochastic equals deterministic average error
    mix = 0.97
    rows_b = mix * np.eye(4) + (1 - mix) / 4
    rows_e = np.tile(np.array([0.55, 0.45]), (4, 1))
    built_mac = WiretapMAC.from_marginals(rows_b, rows_e)
    built_chain = CodeChain(Dist.uniform(2), Channel.identity(2),
                            Channel.identity(2), built_mac)
    built = None
    total = built_chain.profile.it_v12 - built_chain.profile.iz_v12
    for frac in (0.98, 0.95, 0.9, 0.85, 0.8, 0.7, 0.6):
        try:
            cand = build_wiretap_code(built_chain, CaseLabel.CASE3,
                                      (frac * total, 0.0, 0.0), hc=2.0, n=4,
                                      delta=0.3, slack=0.25, seed=61)
        except Exception:
            continue
        if cand.k_sizes[0] > 1:
            built = cand
            break
    assert built is not None, "no Case-3 code with a nontrivial message set"
    exact = average_error(built, mode="exact")
    equality_gap = abs(exact.tuple_error - mac_average_error(built))
    built_ok = built.k_sizes[0] > 1 and equality_gap <= 1e-12

    # (d) coupled codewords on the additive channels: zero leakage, blind Eve
    add_mac = discussion_channels()
    add_chain = CodeChain(Dist.uniform(2), Channel.identity(2),
                          Channel.identity(2), add_mac)
    fam = sample_codebook_family(add_chain, 4, (2, 1, 1), 0.3, seed=62,
                                 k_sizes=(4, 1, 1))
    secret = WiretapCode(CaseLabel.CASE3, 1.0, 0.3, 0.25, None, (fam,),
                         (0.0, 0.0, 0.0))
    leak = exact_leakage(secret)
    eve_err = eve_map_error(secret)
    secret_ok = leak <= 1e-12 and abs(eve_err - (1 - 1 / 4)) <= 1e-12

    elapsed = time.perf_counter() - start
    ok = (leakage_ok and chain_ok and chain_checked >= 5 and built_ok
          and secret_ok and elapsed < 120.0)
    report(6, ok, f"desk-scale coding: leakage oracle, variation chain "
                  f"({chain_checked} premised), uniform-mixing equality "
                  f"(gap {equality_gap:.1e}), coupled-codeword secrecy",
           elapsed)
    assert leakage_ok
    assert chain_ok and chain_checked >= 5
    assert built_ok
    assert secret_ok
    assert elapsed < 120.0


def test_criterion_7_concentration():
    start = time.perf_counter()
    rng = np.random.default_rng(7000)

    # tail bound against 1e4 batches of iid [0,1]-valued variables
    batches_ok = True
    for count, eps in ((32, 0.25), (128, 0.1)):
        for sampler in (lambda s: rng.random(s),
                        lambda s: (rng.random(s) < 0.5).astype(float)):
            draws = sampler((10_000, count))
            mu = 0.5
            means = draws.mean(axis=1)
            bound = chernoff_bound(count, eps, mu, 1.0)
            sigma = math.sqrt(bound * (1 - bound) / 10_000 + 1e-12)
            upper = float(np.mean(means > (1 + eps) * mu))
            lower = float(np.mean(means < (1 - eps) * mu))
            if upper > bound + 3 * sigma or lower > bound + 3 * sigma:
                batches_ok = False

    # typical-fraction concentration at n=8 with 64 inner sequences
    rows_b = rng.dirichlet(np.ones(2), size=4)
    rows_e = rng.dirichlet(np.ones(2), size=4)
    mac = WiretapMAC.from_marginals(rows_b, rows_e)
    chain = CodeChain(Dist.from_mass([0.5, 0.5]),
                      Channel.from_matrix([[0.75, 0.25], [0.25, 0.75]]),
                      Channel.from_matrix([[0.7, 0.3], [0.3, 0.7]]), mac)
    fam = sample_codebook_family(chain, 8, (1, 64, 1), 0.25, seed=70)
    rep = concentration_report(fam, eps=0.3, resamples=1000, seed=71)
    star = next(c for c in rep.checks if "typical-fraction" in c.name)
    star_ok = (not star.vacuous) and (not star.exceeded) \
        and star.empirical <= star.bound + 3 * math.sqrt(
            max(star.bound * (1 - star.bound), 1e-12) / star.events)

    elapsed = time.perf_counter() - start
    ok = batches_ok and star_ok and elapsed < 120.0
    report(7, ok, f"tail-bound batches and typical-fraction concentration "
                  f"(bound {star.bound:.3f}, empirical {star.empirical:.4f})",
           elapsed)
    assert batches_ok
    assert star_ok
    assert elapsed < 120.0


def test_criterion_8a_independent_inputs_give_nothing():
    start = time.perf_counter()
    mac = discussion_channels()
    cfg = SearchConfig(restarts=10_000, refine_iters=0, directions=4,
                       seed=8000, independent_only=True)
    est = achievable_region_estimate(mac, CommonMode(0.0), cfg)
    elapsed = time.perf_counter() - start
    ok = est.max_coordinate() < 1e-6
    report("8a", ok, f"independent inputs, no randomness: max coordinate "
                     f"{est.max_coordinate():.2e} over a 10^4-point search",
           elapsed)
    assert ok


def test_criterion_8b_conferencing_gain_honest_red():
    # Every conferencing sum bound is min(I(T^XY|U) + C1 + C2, I(T^XY)) -
    # I(Z^XY) (Willems' conferencing MAC).  On these channels conditionally
    # independent inputs always favor the eavesdropper (I(T^XY|U) <=
    # I(Z^XY|U), the concavity scan of criterion 2), so every sum bound is
    # at most min(C1 + C2 - I(Z^U), I(T^XY) - I(Z^XY)).  The coupled input
    # x = y = U has I(T^XY|U) = I(Z^XY) = 0 and I(T^XY) = 1/2, so it attains
    # the cap min(C1 + C2, I(T^XY)) - I(Z^XY) = min(C1 + C2, 1/2).  The
    # search must meet that cap from both sides: short of it the optimizer
    # misses the gain, above it a certified point would be unsound.
    start = time.perf_counter()
    mac = discussion_channels()
    witness = equal_input_witness()
    coupled = coupled_input(mac, 0.5)

    def cap(c1, c2):
        return min(c1 + c2, witness.i_t) - witness.i_z

    def best_sum(c1, c2):
        cfg = SearchConfig(restarts=60, refine_iters=30, directions=8,
                           seed=8001, u_size=2)
        est = achievable_region_estimate(mac, ConferencingMode(c1, c2), cfg)
        return est.max_sum_rate()

    c_small, c_large = 0.01, 0.15
    cap_small, cap_large = cap(c_small, c_small), cap(c_large, c_large)
    witness_sums = {
        (c, case): region_conferencing(coupled, c, c, case).max_weighted(
            (1.0, 1.0))
        for c in (c_small, c_large)
        for case in (CaseLabel.CASE1, CaseLabel.CASE3)
    }
    small_sum = best_sum(c_small, c_small)
    large_sum = best_sum(c_large, c_large)
    elapsed = time.perf_counter() - start

    witness_ok = all(abs(v - cap(c, c)) <= 1e-12
                     for (c, _), v in witness_sums.items())
    small_ok = abs(small_sum - cap_small) <= 1e-6
    large_ok = abs(large_sum - 0.3) <= 1e-6
    ok = witness_ok and small_ok and large_ok
    report("8b", ok, f"conferencing sum-rate cap min(C1+C2, I(T^XY)) - "
                     f"I(Z^XY): best sum {small_sum:.4f} at C1=C2=0.01 "
                     f"(cap {cap_small:.4f}), {large_sum:.4f} at C1=C2=0.15 "
                     f"(cap {cap_large:.4f})", elapsed)
    assert witness_ok, (
        f"the coupled input x = y = U must attain the sum-rate cap "
        f"min(C1 + C2, I(T^XY)) - I(Z^XY) in Cases 1 and 3: {witness_sums}"
    )
    assert small_ok, (
        f"at C1 = C2 = 0.01 the best certified sum {small_sum!r} must equal "
        f"the cap min(C1 + C2, I(T^XY)) - I(Z^XY) = {cap_small!r} to 1e-6"
    )
    assert abs(cap_large - 0.3) <= 1e-12, (
        f"at C1 = C2 = 0.15 the cap must be 0.3, got {cap_large!r}"
    )
    assert large_ok, (
        f"at C1 = C2 = 0.15 the best certified sum {large_sum!r} must equal "
        f"the cap min(C1 + C2, I(T^XY)) - I(Z^XY) = 0.3 to 1e-6"
    )


def test_criterion_8c_secrecy_capacity():
    start = time.perf_counter()
    mac = discussion_channels()
    cfg = SearchConfig(restarts=30, refine_iters=20, seed=8002, u_size=2)
    cap = single_sender_secrecy_capacity(mac, cfg)
    elapsed = time.perf_counter() - start
    ok = cap >= 0.499
    report("8c", ok, f"combined-sender secrecy capacity estimate {cap:.6f}",
           elapsed)
    assert cap >= 0.499
