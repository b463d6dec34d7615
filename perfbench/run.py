"""wtmac benchmark: one workload per process, one closed-loop client.

Usage (from the repository root):

    python3 perfbench/run.py --workload code_audit --seed 1 --seconds 50 --trace 0

The inputs of a workload are generated from ``--seed``.  Its jobs form a
fixed round; the timed phase runs whole rounds, one job at a time, until
``--seconds`` have passed.  ``jobs_per_s`` is the jobs of a round divided
by that round's wall time, median over the rounds, so that a burst of load
from elsewhere on the host moves it less than a whole-phase mean would.
Every job's output is checked after the timed phase (checks are not
timed), and every repeat of a job must reproduce the first round's numbers
exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced phase and then one traced round, which times calls into each
module's public functions from outside (see bench_trace.py), and prints
the per-layer metrics.  End-to-end numbers always come from untraced
rounds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every job passed its checks, 1 when one failed, 2 when the benchmark
could not start (for example when ``src/wtmac`` is missing).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10
WORKLOADS = ("region_search", "code_audit")

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_s.p50", "s"),
    ("job_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)

# name -> (unit, better); the traced run reports exactly these
TRACED_FUNCTIONS = (
    "probkit.mutual_information", "probkit.joint_from_factors",
    "probkit.Channel.from_matrix", "regions.info_profile",
    "regions.classify_profile", "regions.region_common",
    "regions.RatePolytope.vertices", "conferencing.region_conferencing",
    "optimizer.achievable_region_estimate",
    "optimizer.single_sender_secrecy_capacity",
    "probkit.typical_membership", "codesim.joint_typicality_decode",
    "codesim.average_error", "codesim.mac_average_error",
    "codesim.eavesdropper_conditionals", "codesim.simulate_report",
    "codesim.build_wiretap_code",
    "probkit.sample_typical", "probkit.typical_mask",
    "probkit.truncated_typical_dist", "codesim.sample_codebook_family",
    "concentration.concentration_report",
    "regions.verify_union_lemma", "regions.verify_convexhull_lemma",
)
PER_LAYER = {}
for _fn in TRACED_FUNCTIONS:
    PER_LAYER[f"{_fn}.calls"] = ("count", "lower")
    PER_LAYER[f"{_fn}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "optimizer.achievable_region_estimate.evals_per_job": ("evals/job", "lower"),
    "optimizer.achievable_region_estimate.certified_ratio": ("1", "higher"),
    "codesim.joint_typicality_decode.per_output": ("decodes/output", "lower"),
    "probkit.sample_typical.accept_ratio": ("1", "higher"),
    "regions.verify_convexhull_lemma.lp_ratio": ("1", "lower"),
    "host.calib_s": ("s", "lower"),
    "host.calib_s.end": ("s", "lower"),
    "trace.overhead_ratio": ("1", "lower"),
    "trace.self_sum_ratio": ("1", "higher"),
})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small jobs per round (the benchmark's own tests)")
    return ap.parse_args(argv)


def fail_to_start(reason: str):
    print(f"perfbench: {reason}", file=sys.stderr)
    raise SystemExit(2)


def import_library():
    """Import wtmac from this checkout's src/ and nowhere else."""
    for var in BLAS_VARS:  # one client, one thread: no BLAS worker pool
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import wtmac
    except ImportError as exc:
        fail_to_start(f"cannot import wtmac from {src}: {exc}")
    where = Path(wtmac.__file__).resolve()
    if src.resolve() not in where.parents:
        fail_to_start(f"imported wtmac from {where}, not from {src}")
    # the library imports these lazily on first use; load them in set-up
    import scipy.optimize  # noqa: F401
    import scipy.spatial  # noqa: F401


def calibrate() -> float:
    """Median of three timings of a fixed mixed Python/numpy probe."""
    import numpy as np

    seq = np.arange(7) % 4
    mass = np.full(4, 0.25)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        hits = 0
        for _ in range(8000):
            freq = np.bincount(seq, minlength=4) / 7.0
            hits += bool(np.all(np.abs(freq - mass) <= 0.3))
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_sha():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def tail_percentile(values):
    """The highest percentile with TAIL_BEYOND samples beyond it.

    That is the (TAIL_BEYOND + 1)-th largest value, at percentile
    100 (n - TAIL_BEYOND) / n.  With too few samples it falls back to the
    median.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return 50.0, statistics.median(values)
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(values)[n - TAIL_BEYOND - 1]


def run_round(jobs, keep: bool, tracer=None):
    """Run every job once; return per-job (wall_s, output, error).

    Unless ``keep``, each output is replaced by its summary right after the
    job (outside its wall time), so that stored outputs do not grow the
    peak resident set with the number of rounds.
    """
    out = []
    for i, job in enumerate(jobs):
        start = time.perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                with tracer.job(i, job.name):
                    result = job.run()
            error = None
        except Exception as exc:  # a job that raises is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        if not keep and error is None:
            result = job.summary(result)
        out.append((wall, result, error))
    return out


def check_first_round(jobs, first):
    """Problems per job index, from the first round's outputs."""
    problems = {}
    for i, (job, (_, result, error)) in enumerate(zip(jobs, first)):
        if error is not None:
            problems[i] = [f"raised {error}"]
            continue
        try:
            found = job.check(result)
        except Exception as exc:  # a check that raises marks the job failed
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[i] = found
    return problems


def per_layer_metrics(tracer, jobs, traced, overhead, calib):
    metrics = {}
    for fn in TRACED_FUNCTIONS:
        metrics[f"{fn}.calls"] = tracer.calls(fn)
        metrics[f"{fn}.self_s"] = tracer.self_s(fn)

    def ratio(num, den):
        return num / den if den else 0.0

    tags = {}
    for job in jobs:
        for key, value in job.tags.items():
            tags[key] = tags.get(key, 0) + value
    searches = tracer.calls("optimizer.achievable_region_estimate") \
        + tracer.calls("optimizer.single_sender_secrecy_capacity")
    certified = sum(len(r.generators) for job, (_, r, e) in zip(jobs, traced)
                    if e is None and job.shape.get("kind") == "achievable_region_estimate")
    directions = sum(job.tags["directions"] for job in jobs
                     if "directions" in job.tags)
    decodes = tracer.calls("codesim.joint_typicality_decode")
    metrics.update({
        "optimizer.achievable_region_estimate.evals_per_job":
            ratio(tracer.calls("regions.info_profile"), searches),
        "optimizer.achievable_region_estimate.certified_ratio":
            ratio(certified, directions),
        "codesim.joint_typicality_decode.per_output":
            ratio(decodes - tags.get("mc_trials", 0), tags.get("outputs", 0)),
        "probkit.sample_typical.accept_ratio":
            ratio(tracer.calls("probkit.sample_typical"),
                  tracer.calls("probkit.typical_membership",
                               parent="probkit.sample_typical")),
        "regions.verify_convexhull_lemma.lp_ratio":
            ratio(tracer.calls("scipy.linprog",
                               parent="regions.verify_convexhull_lemma"),
                  tags.get("hull_points", 0)),
        "host.calib_s": calib[0],
        "host.calib_s.end": calib[1],
        "trace.overhead_ratio": overhead,
        "trace.self_sum_ratio":
            ratio(tracer.library_self_s(), sum(w for w, _, _ in traced)),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import bench_trace
    import bench_workloads

    import_s = time.perf_counter() - T_START
    build = bench_workloads.WORKLOADS[args.workload]
    gen_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        jobs = build(args.seed, args.tiny)
        gen_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(gen_times)
    calib_start = calibrate()

    # timed phase: whole rounds until --seconds have passed
    rounds = []
    phase_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        results = run_round(jobs, keep=not rounds)
        rounds.append((time.perf_counter() - round_start, results))
        if time.perf_counter() - phase_start >= args.seconds:
            break
    phase_wall = time.perf_counter() - phase_start

    traced = None
    if args.trace:
        tracer = bench_trace.Tracer()
        with bench_trace.instrumented(tracer):
            tracer.active = True
            round_start = time.perf_counter()
            traced = run_round(jobs, True, tracer)
            traced_wall = time.perf_counter() - round_start
            tracer.active = False

    first = rounds[0][1]
    first_problems = check_first_round(jobs, first)
    reference = [job.summary(r) if e is None else None
                 for job, (_, r, e) in zip(jobs, first)]
    outcomes = [list(zip(reference, (e for _, _, e in first)))]
    outcomes += [[(s, e) for _, s, e in res] for _, res in rounds[1:]]
    if traced:
        outcomes.append([(job.summary(r) if e is None else None, e)
                         for job, (_, r, e) in zip(jobs, traced)])
    problems = dict(first_problems)
    attempted = failed = 0
    for results in outcomes:
        for i, (summary, error) in enumerate(results):
            attempted += 1
            if i in first_problems or error is not None or summary != reference[i]:
                failed += 1
                problems.setdefault(i, [f"raised {error}" if error is not None
                                        else "result differs between rounds"])
    calib_end = calibrate()

    walls = [w for _, res in rounds for w, _, _ in res]
    tail_p, tail_s = tail_percentile(walls)
    e2e = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(len(jobs) / w for w, _ in rounds),
        "job_s.p50": statistics.median(walls),
        "job_s.tail": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fail_ratio = failed / attempted

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(rounds)} x {len(jobs)} jobs in {phase_wall:.3f} s")
    print(f"  setup_s      {e2e['setup_s']:.6f} s  (imports {import_s:.4f} s + "
          f"median of {SETUP_REPEATS} input generations {statistics.median(gen_times):.4f} s)")
    print(f"  jobs_per_s   {e2e['jobs_per_s']:.6f} 1/s")
    print(f"  job_s.p50    {e2e['job_s.p50']:.6f} s")
    print(f"  job_s.tail   {e2e['job_s.tail']:.6f} s  (p{tail_p:g} of n={len(walls)} jobs)")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.3f} MB")
    print(f"  fail_ratio   {fail_ratio:.6f} 1  ({failed}/{attempted})")
    print(f"  host.calib_s {calib_start:.6f} s at start, {calib_end:.6f} s at end")
    for i, found in sorted(problems.items()):
        for text in found:
            print(f"  FAIL {jobs[i].name}: {text}")

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "host.calib_s": {"start": calib_start, "end": calib_end},
        "jobs": [{"name": j.name, "median_wall_s": statistics.median(
            res[i][0] for _, res in rounds), **j.shape} for i, j in enumerate(jobs)],
        "rounds": len(rounds), "round_walls_s": [w for w, _ in rounds],
        "import_s": import_s, "input_generation_s": gen_times,
        "end_to_end": e2e, "tail_percentile": tail_p, "tail_samples": len(walls),
        "fail_ratio": fail_ratio, "attempted": attempted, "failed": failed,
        "problems": {jobs[i].name: p for i, p in problems.items()},
    }
    if args.trace:
        overhead = traced_wall / statistics.median(w for w, _ in rounds)
        metrics = per_layer_metrics(tracer, jobs, traced, overhead,
                                    (calib_start, calib_end))
        print(f"  traced round {traced_wall:.3f} s, overhead x{overhead:.3f}")
        for name, value in metrics.items():
            print(f"  {name:58s} {value:.6g} {PER_LAYER[name][0]}")
        record.update(per_layer=metrics, trace_table=tracer.table(),
                      spans=tracer.spans)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = e2e
        units = dict(END_TO_END)

    out_dir = HERE / "runs"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=str) + "\n")
    print(f"  run record   {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
