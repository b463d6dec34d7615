"""The two benchmark workloads: seeded inputs, jobs and output checks.

Each workload is built from two of four job sets (searches and lemma
verifications; code audits and concentration reports); each set's builder
takes the workload seed and returns its jobs of one round.  Every input
(channels, factored inputs, codes' chains, lemma instances, search seeds)
is generated here from the seed; the jobs hand only those inputs to the
public ``wtmac`` API.  Jobs call the library through module attributes
(``codesim.simulate_report``), so the traced run can rebind those names
from outside.

Why these workloads (see README.md for the layer map):

* ``region_search`` is the information side: region searches load the
  optimizer -> info_profile -> mutual_information -> vertices loop, and
  lemma verifications load the verifier half of regions and the LP
  fallback in scipy.  It never touches codesim or concentration.
* ``code_audit`` is the sequence side: exact audits load per-output
  decoding (joint_typicality_decode -> typical_membership) and the
  eavesdropper audit, and concentration reports draw sequences (rejection
  sampler, typical masks, truncated typical laws).  It barely touches
  regions or the optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from wtmac import casestudy, codesim, conferencing, optimizer, probkit, regions
from wtmac.codesim import CodeChain, WiretapCode
from wtmac.optimizer import CommonMode, ConferencingMode, SearchConfig
from wtmac.probkit import Alphabet, Channel, Dist, JointDist, WiretapMAC
from wtmac.regions import CaseLabel

TOL_EQ = 1e-12       # tuple error == MAC error; MAP error range
TOL_LEAK = 1e-9      # exact leakage against the generic MI oracle
TOL_CERT = 1e-9      # outside re-certification of search points


@dataclass
class Job:
    """One unit of work of a workload round.

    ``run`` calls the library and returns its outputs; ``check`` returns the
    list of problems found in those outputs (empty when correct);
    ``summary`` reduces them to numbers that must repeat exactly on every
    round, since results are deterministic for a given seed.
    """

    name: str
    shape: dict
    run: Callable[[], Any]
    check: Callable[[Any], list]
    summary: Callable[[Any], tuple]
    # counters a traced round needs that the library does not expose
    tags: dict


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 31))


def _h2(p: float) -> float:
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _random_mac(rng: np.random.Generator, t: int, z: int) -> WiretapMAC:
    """Two binary senders; Bob's rows mixed toward a clean channel and the
    eavesdropper's toward a blind one, so that the case structure (and with
    it the cost of a search) varies little from seed to seed."""
    quality = rng.uniform(0.75, 0.95)
    rows_b = rng.dirichlet(np.ones(t), size=4)
    clean = np.eye(t)[rng.integers(0, t, size=4)]
    rows_b = (1.0 - quality) * rows_b + quality * clean
    rows_e = 0.2 * rng.dirichlet(np.ones(z), size=4) + 0.8 / z
    rows = np.einsum("it,iz->itz", rows_b, rows_e).reshape(4, t * z)
    return WiretapMAC.from_rows(rows, 2, 2, t, z)


def _coupled_chain(mac: WiretapMAC) -> CodeChain:
    """U uniform on two symbols, both senders send U."""
    return CodeChain(Dist.uniform(2), Channel.identity(2), Channel.identity(2), mac)


# ---------------------------------------------------------------------------
# region searches (workload region_search)
# ---------------------------------------------------------------------------

def _recertify(est, mode) -> list:
    """Re-check every returned point against the region of its input."""
    problems = []
    if est.partial:
        problems.append("estimate is partial without an evaluation budget")
    gens = est.generators
    if not gens:
        if np.any(np.abs(est.points) > 0.0):
            problems.append("nonzero point returned without a certificate")
        return problems
    if len(gens) != est.points.shape[0] or len(est.cases) != len(gens):
        return problems + ["points, cases and generators differ in length"]
    for point, case, p in zip(est.points, est.cases, gens):
        prof = regions.info_profile(p)
        if isinstance(mode, CommonMode):
            cases = regions.classify_profile(
                prof, mode.hc, u_independent=p.u_independent()).cases
            region = (regions.region_common(prof, mode.hc, case,
                                            check_membership=False)
                      if case in cases else None)
        else:
            cases = regions.classify_profile(prof, mode.c1 + mode.c2).cases
            region = (conferencing.region_conferencing(
                prof, mode.c1, mode.c2, case, alpha_points=21)
                if case in cases and case != CaseLabel.CASE0 else None)
        if region is None or not region.contains(point, tol=TOL_CERT):
            problems.append(f"point {point.tolist()} is outside the "
                            f"{case.name} region of its generating input")
        if np.any(point < -TOL_CERT):
            problems.append(f"negative rate in {point.tolist()}")
    return problems


def _search_job(name, mac, mode, cfg, extra=None) -> Job:
    def run():
        return optimizer.achievable_region_estimate(mac, mode, cfg)

    def check(est):
        problems = _recertify(est, mode)
        if extra is not None:
            problems += extra(est)
        return problems

    def summary(est):
        return (est.points.tobytes(), tuple(int(c) for c in est.cases),
                est.partial)

    u, v1, v2 = cfg.sizes_for(mac)
    shape = {"kind": "achievable_region_estimate", "mode": repr(mode),
             "x": mac.x_alphabet.size, "y": mac.y_alphabet.size,
             "t": mac.t_alphabet.size, "z": mac.z_alphabet.size,
             "aux_sizes": [u, v1, v2], "restarts": cfg.restarts,
             "refine_iters": cfg.refine_iters, "directions": cfg.directions,
             "independent_only": cfg.independent_only, "search_seed": cfg.seed}
    return Job(name, shape, run, check, summary,
               {"search": 1, "directions": cfg.directions})


def _capacity_job(name, mac, cfg, floor=None) -> Job:
    def run():
        return optimizer.single_sender_secrecy_capacity(mac, cfg)

    def check(cap):
        problems = []
        if not 0.0 <= cap <= math.log2(mac.t_alphabet.size) + TOL_CERT:
            problems.append(f"capacity estimate {cap} outside [0, log2|T|]")
        if floor is not None and cap < floor:
            problems.append(f"capacity estimate {cap} below {floor}")
        return problems

    u, v1, v2 = cfg.sizes_for(mac)
    shape = {"kind": "single_sender_secrecy_capacity",
             "x": mac.x_alphabet.size, "y": mac.y_alphabet.size,
             "t": mac.t_alphabet.size, "z": mac.z_alphabet.size,
             "aux_sizes": [u, v1, v2], "restarts": cfg.restarts,
             "refine_iters": cfg.refine_iters, "search_seed": cfg.seed}
    return Job(name, shape, run, check, lambda cap: (cap,), {"search": 1})


MAC_SHAPES = ((2, 2), (3, 3), (4, 4), (2, 4), (4, 2))  # (|T|, |Z|)


def search_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    additive = casestudy.discussion_channels()
    ex62 = casestudy.example62_channels()
    randoms = [_random_mac(rng, t, z) for t, z in MAC_SHAPES]

    def small(u_size=None, **kw):
        base = dict(restarts=6, refine_iters=6, directions=4, seed=_seed(rng),
                    u_size=u_size)
        base.update(kw)
        return SearchConfig(**base)

    def capacity(u_size=None):
        # one objective per step, so more steps than a region search: this
        # puts capacity jobs among the searches' costs, and the median job
        # inside one dense band of costs rather than between two
        return small(u_size, restarts=50, refine_iters=50)

    def cap_8a(est):
        top = est.max_coordinate()
        return [] if top < 1e-6 else [f"8a: max coordinate {top} >= 1e-6"]

    def cap_8b(est):
        total = est.max_sum_rate()
        return ([] if abs(total - 0.02) <= 1e-6
                else [f"8b: best sum rate {total} misses the 0.02 cap"])

    jobs = [
        _search_job("additive.common.hc0.independent", additive,
                    CommonMode(0.0),
                    small(restarts=20 if tiny else 120, refine_iters=0,
                          independent_only=True), cap_8a),
        _search_job("additive.conf.0.01.u2", additive,
                    ConferencingMode(0.01, 0.01),
                    small(2, restarts=10, refine_iters=6), cap_8b),
        _capacity_job("additive.capacity.u2", additive, capacity(2),
                      floor=0.499),
    ]
    if tiny:
        jobs.append(_search_job("random.t2z2.common.hc0.3.u2", randoms[0],
                                CommonMode(0.3), small(2)))
        return jobs
    jobs += [
        _search_job("additive.common.hc0.25.u9", additive, CommonMode(0.25),
                    small()),
        _search_job("additive.common.hc0.5.u9", additive, CommonMode(0.5),
                    small()),
        _search_job("additive.common.hc0.5.u2", additive, CommonMode(0.5),
                    small(2)),
        _search_job("additive.common.hc1.u2", additive, CommonMode(1.0),
                    small(2)),
        _search_job("additive.conf.0.2.u2", additive,
                    ConferencingMode(0.2, 0.2), small(2)),
        _capacity_job("additive.capacity.u9", additive, capacity()),
        _search_job("example62.common.hc0.1.u9", ex62, CommonMode(0.1),
                    small()),
        _search_job("example62.common.hc0.3.u2", ex62, CommonMode(0.3),
                    small(2)),
        _search_job("example62.conf.0.1.u2", ex62,
                    ConferencingMode(0.1, 0.1), small(2)),
        _capacity_job("example62.capacity.u9", ex62, capacity()),
    ]
    for (t, z), mac in zip(MAC_SHAPES, randoms):
        tag = f"random.t{t}z{z}"
        jobs.append(_search_job(f"{tag}.common.hc0.3.u9", mac, CommonMode(0.3),
                                small()))
        jobs.append(_search_job(f"{tag}.common.hc0.3.u2", mac, CommonMode(0.3),
                                small(2)))
        jobs.append(_capacity_job(f"{tag}.capacity.u2", mac, capacity(2)))
    return jobs


# ---------------------------------------------------------------------------
# code audits (workload code_audit)
# ---------------------------------------------------------------------------

# delta 0.15 keeps ambiguous outputs (which end a decode early) rare, so a
# decode costs the same on every seed; slack 0.07 puts exactly one integer
# (L0 = 2, K0 = 2) in every size window at n = 5, 6, 7
AUDIT_DELTA = 0.15
AUDIT_SLACK = 0.07
# at n = 3 no sequence of a uniform binary law is 0.15-typical (1/3 and 2/3
# miss 1/2 by 0.167); 0.2 admits them
TWO_FAMILY_DELTA = 0.2


def _audit_checks(code, rep, mac_err, chain_rep, expect) -> list:
    problems = []
    if (code.k_sizes, [f.l_sizes for f in code.families]) != expect:
        problems.append(f"built sizes {code.k_sizes}, "
                        f"{[f.l_sizes for f in code.families]} != {expect}")
    if abs(rep.tuple_error - mac_err) > TOL_EQ:
        problems.append(f"tuple error {rep.tuple_error} != MAC error {mac_err}")
    cond = codesim.eavesdropper_conditionals(code)
    m, zc = cond.shape
    joint = JointDist((Alphabet(m), Alphabet(zc)), cond / m)
    oracle = probkit.mutual_information(joint, {0}, {1})
    if abs(rep.leakage_bits - oracle) > TOL_LEAK:
        problems.append(f"exact leakage {rep.leakage_bits} != MI oracle {oracle}")
    top = 1.0 - 1.0 / rep.message_count
    if not -TOL_EQ <= rep.eve_map_error <= top + TOL_EQ:
        problems.append(f"MAP error {rep.eve_map_error} outside [0, {top}]")
    if not chain_rep.holds:
        problems.append("variation-to-leakage chain does not hold")
    return problems


def _audit_job(name, build, shape, expect) -> Job:
    def run():
        code = build()
        rep = codesim.simulate_report(code, mode="exact")
        mac_err = codesim.mac_average_error(code)
        chain_rep = codesim.leakage_chain_check(code)
        return code, rep, mac_err, chain_rep

    def check(out):
        return _audit_checks(*out, expect)

    def summary(out):
        _, rep, mac_err, chain_rep = out
        return (rep.tuple_error, rep.message_error, rep.leakage_bits,
                rep.max_variation, rep.eve_map_error, mac_err, chain_rep.holds)

    t_size, n_total = shape["t"], shape["n_total"]
    return Job(name, shape, run, check, summary,
               {"outputs": t_size ** n_total})


def _mc_job(name, build, shape, trials, seed) -> Job:
    def run():
        code = build()
        return codesim.average_error(code, mode="mc", trials=trials, seed=seed)

    def check(est):
        problems = []
        lo, hi = est.wilson_interval
        if not 0.0 <= est.message_error <= est.tuple_error <= 1.0:
            problems.append(f"errors out of order: {est}")
        if not lo <= est.tuple_error <= hi:
            problems.append(f"Wilson interval {lo, hi} misses {est.tuple_error}")
        if est.trials != trials:
            problems.append(f"{est.trials} trials != {trials}")
        return problems

    return Job(name, dict(shape, kind="average_error(mc)", trials=trials),
               run, check,
               lambda est: (est.tuple_error, est.message_error,
                            est.wilson_interval), {"mc_trials": trials})


def audit_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 2])
    mix = rng.uniform(0.9, 0.97)
    rows_b = mix * np.eye(4) + (1.0 - mix) / 4.0
    blind = _coupled_chain(WiretapMAC.from_marginals(
        rows_b, np.tile(rng.dirichlet([3.0, 3.0]), (4, 1))))
    # eavesdropper informative: Z | U is a binary symmetric channel
    e = rng.uniform(0.08, 0.12)
    rows_e = np.array([[0.5 + e, 0.5 - e], [0.5, 0.5], [0.5, 0.5],
                       [0.5 - e, 0.5 + e]])
    leaky = _coupled_chain(WiretapMAC.from_marginals(rows_b, rows_e))
    leak_target = 1.0 - _h2(0.5 - e)  # I(Z; X, Y) with X = Y = U uniform
    noiseless = _coupled_chain(WiretapMAC.from_marginals(
        np.eye(4), np.tile(rng.dirichlet([3.0, 3.0]), (4, 1))))

    def case3(chain, n, rate, code_seed):
        def build():
            return codesim.build_wiretap_code(
                chain, CaseLabel.CASE3, (rate, 0.0, 0.0), hc=2.0, n=n,
                delta=AUDIT_DELTA, slack=AUDIT_SLACK, seed=code_seed)
        shape = {"kind": "case3 build + exact audit", "t": 4, "z": 2, "n": n,
                 "n_total": n, "k_sizes": [2, 1, 1], "l_sizes": [[2, 1, 1]],
                 "rate": rate, "delta": AUDIT_DELTA, "slack": AUDIT_SLACK,
                 "code_seed": code_seed}
        return build, shape

    def two_family(n1, n2, code_seed):
        def build():
            fam1 = codesim.sample_codebook_family(
                noiseless, n1, (2, 1, 1), TWO_FAMILY_DELTA, seed=code_seed,
                k_sizes=(2, 1, 1))
            fam2 = codesim.sample_codebook_family(
                noiseless, n2, (1, 2, 1), TWO_FAMILY_DELTA, seed=code_seed + 1,
                k_sizes=(2, 1, 1))
            return WiretapCode(CaseLabel.CASE1, 2.0, TWO_FAMILY_DELTA, 0.25,
                               n1 / (n1 + n2), (fam1, fam2), (0.0, 0.0, 0.0))
        shape = {"kind": "two-family time-sharing code + exact audit", "t": 4,
                 "z": 2, "n": [n1, n2], "n_total": n1 + n2,
                 "k_sizes": [2, 1, 1], "l_sizes": [[2, 1, 1], [1, 2, 1]],
                 "code_seed": code_seed}
        return build, shape

    expect_one = ((2, 1, 1), [(2, 1, 1)])
    # three n = 6 audits per round and nothing larger: a run holds 8 to 16
    # rounds, so the eleventh-slowest job (job_s.tail) is always an n = 6
    # audit.  An n = 7 audit (~3.5 s) is left out: one per round put the
    # tail between the n = 7 and n = 6 classes whenever a run held about
    # eleven rounds, and gave jobs_per_s few, long samples.
    sizes = (5,) if tiny else (5, 6, 6, 6)
    jobs = []
    for i, n in enumerate(sizes):
        build, shape = case3(blind, n, 2.0 / n + 0.05, _seed(rng))
        jobs.append(_audit_job(f"case3.n{n}.{i}", build, shape, expect_one))
    build, shape = case3(leaky, 5, 0.45 - leak_target, _seed(rng))
    jobs.append(_audit_job("case3.n5.informative-eve", build,
                           dict(shape, eve_leak_bits=leak_target), expect_one))
    if not tiny:
        build, shape = two_family(3, 2, _seed(rng))
        jobs.append(_audit_job("two-family.n3+2", build, shape,
                               ((2, 1, 1), [(2, 1, 1), (1, 2, 1)])))
    # Monte Carlo jobs share one blocklength and outnumber the other jobs of
    # the round (15 of 26 with the concentration reports), so that the
    # median job is one of them on every seed rather than sitting between
    # two job classes
    n = 5 if tiny else 6
    for rep in range(1 if tiny else 15):
        build, shape = case3(blind, n, 2.0 / n + 0.05, _seed(rng))
        jobs.append(_mc_job(f"case3.n{n}.mc{rep}", build, shape, 100,
                            _seed(rng)))
    return jobs


# ---------------------------------------------------------------------------
# concentration reports (workload code_audit)
# ---------------------------------------------------------------------------

def _expected_events(check_name: str, l_sizes, resamples: int) -> int:
    l0, _, l2 = l_sizes
    if check_name.startswith(("typical-fraction (inner", "inner-mean")):
        return resamples * l0 * l2
    if check_name.startswith("pair-mean"):
        return resamples * l0
    return resamples


def _expected_check_count(l_sizes) -> int:
    _, l1, l2 = l_sizes
    if l1 == 1 and l2 == 1:
        return 2
    return 3 if l2 == 1 else 4


def _concentration_job(name, chain, n, l_sizes, delta, eps, resamples,
                       fam_seed, report_seed) -> Job:
    def run():
        fam = codesim.sample_codebook_family(chain, n, l_sizes, delta,
                                             seed=fam_seed)
        return codesim.concentration_report(fam, eps=eps, resamples=resamples,
                                            seed=report_seed)

    def check(rep):
        problems = []
        if rep.partial:
            problems.append(f"partial report: {rep.notes}")
        if len(rep.checks) != _expected_check_count(l_sizes):
            problems.append(f"{len(rep.checks)} checks for shape {l_sizes}")
        for c in rep.checks:
            if c.exceeded:
                problems.append(f"bound exceeded: {c.name} empirical "
                                f"{c.empirical} > bound {c.bound}")
            want = _expected_events(c.name, l_sizes, resamples)
            if c.events != want:
                problems.append(f"{c.name}: {c.events} events, expected {want}")
        return problems

    def summary(rep):
        return tuple((c.name, c.empirical, c.bound, c.events)
                     for c in rep.checks)

    shape = {"kind": "concentration_report", "n": n, "l_sizes": list(l_sizes),
             "delta": delta, "eps": eps, "resamples": resamples,
             "fam_seed": fam_seed, "report_seed": report_seed}
    return Job(name, shape, run, check, summary, {})


def concentration_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 3])
    # criterion 7's chain and the suite's concentration chain, fixed laws on
    # seeded channels; resample counts make every report cost about the
    # same (~0.2 s), between the Monte Carlo jobs and the n = 6 audits
    chain7 = CodeChain(Dist.from_mass([0.5, 0.5]),
                       Channel.from_matrix([[0.75, 0.25], [0.25, 0.75]]),
                       Channel.from_matrix([[0.7, 0.3], [0.3, 0.7]]),
                       _random_mac(rng, 2, 2))
    shapes = [("crit7.(1,64,1).n8", chain7, 8, (1, 64, 1), 0.25, 0.3, 16)]
    if not tiny:
        for i in range(2):
            chain = CodeChain(Dist.from_mass([0.55, 0.45]),
                              Channel.from_matrix([[0.8, 0.2], [0.25, 0.75]]),
                              Channel.from_matrix([[0.7, 0.3], [0.2, 0.8]]),
                              _random_mac(rng, 2, 2))
            shapes.append((f"case3.(6,1,1).n5.{i}", chain, 5, (6, 1, 1),
                           0.35, 0.3, 28))
            shapes.append((f"case1.(2,2,2).n4.{i}", chain, 4, (2, 2, 2),
                           0.45, 0.35, 90))
    return [_concentration_job(name, chain, n, l_sizes, delta, eps,
                               4 if tiny else resamples, _seed(rng), _seed(rng))
            for name, chain, n, l_sizes, delta, eps, resamples in shapes]


# ---------------------------------------------------------------------------
# lemma verifications (workload region_search)
# ---------------------------------------------------------------------------

LEMMA_SAMPLES = 200
GRID_STEP = 1e-3


def _grid_len(alpha0: float, alpha1: float) -> int:
    if alpha1 <= alpha0:
        return 1
    return max(int(math.ceil((alpha1 - alpha0) / GRID_STEP)), 1) + 1


def _expected_checked(union: dict, hull: dict) -> tuple[int, int]:
    sub = max(LEMMA_SAMPLES // 20, 4)
    g = _grid_len(union["alpha0"], union["alpha1"])
    union_n = LEMMA_SAMPLES + len(range(0, g, max(g // 20, 1))) * sub
    g = _grid_len(hull["alpha0"], hull["alpha1"])
    hull_n = 2 * LEMMA_SAMPLES + len(range(0, g, max(g // 10, 1))) * sub
    return union_n, hull_n


def _lemma_job(index: int, pairs: list) -> Job:
    """``len(pairs)`` verifications of each lemma, pair i seeded 10 * index + i."""
    seeds = [10 * index + i for i in range(len(pairs))]

    def run():
        out = []
        for seed, (union, hull) in zip(seeds, pairs):
            out.append(regions.verify_union_lemma(
                **union, samples=LEMMA_SAMPLES, grid_step=GRID_STEP, tol=1e-9,
                seed=seed))
            out.append(regions.verify_convexhull_lemma(
                **hull, samples=LEMMA_SAMPLES, grid_step=GRID_STEP, tol=1e-9,
                seed=seed))
        return out

    want = [n for union, hull in pairs for n in _expected_checked(union, hull)]

    def check(out):
        problems = []
        for rep, expected in zip(out, want):
            if rep.counterexamples:
                problems.append(f"{rep.lemma}: {len(rep.counterexamples)} "
                                "counterexamples")
            if rep.checked != expected:
                problems.append(f"{rep.lemma}: checked {rep.checked}, "
                                f"expected {expected}")
        return problems

    def summary(out):
        return tuple((r.checked, len(r.counterexamples), len(r.witnesses))
                     for r in out)

    shape = {"kind": "verify_union_lemma + verify_convexhull_lemma",
             "pairs": len(pairs), "samples": LEMMA_SAMPLES,
             "grid_step": GRID_STEP, "verifier_seeds": seeds,
             "union_grids": [_grid_len(u["alpha0"], u["alpha1"]) for u, _ in pairs],
             "hull_grids": [_grid_len(h["alpha0"], h["alpha1"]) for _, h in pairs]}
    return Job(f"lemma.{index}", shape, run, check, summary,
               {"hull_points": LEMMA_SAMPLES * len(pairs)})


# One verification pair takes ~15 ms.  With one pair per job a run holds
# ~1500 jobs and job_s.tail (the eleventh-slowest) is a p99.3 that any
# 150-ms burst of load from elsewhere on the host sets; ten pairs per job
# put it near p93, where it reads the verifiers rather than the host.
PAIRS_PER_JOB = 10


def lemma_jobs(seed: int, tiny: bool = False) -> list[Job]:
    rng = np.random.default_rng([seed, 4])
    pairs = [(regions.random_union_instance(rng),
              regions.random_hull_instance(rng))
             for _ in range(5 if tiny else 100)]
    per_job = 1 if tiny else PAIRS_PER_JOB
    return [_lemma_job(i, pairs[at:at + per_job])
            for i, at in enumerate(range(0, len(pairs), per_job))]


def region_search(seed: int, tiny: bool = False) -> list[Job]:
    return search_jobs(seed, tiny) + lemma_jobs(seed, tiny)


def code_audit(seed: int, tiny: bool = False) -> list[Job]:
    return audit_jobs(seed, tiny) + concentration_jobs(seed, tiny)


WORKLOADS = {
    "region_search": region_search,
    "code_audit": code_audit,
}
