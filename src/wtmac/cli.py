"""Command-line front end: JSON/CSV artifacts for scripted experiments.

Every subcommand writes one JSON artifact (stdout or --out), echoes its
seed, and prints floats with 12 significant digits so reruns with the same
seed are byte-identical.  Exit codes: 0 success, 1 validation problem
(including malformed input JSON), 2 resource-budget refusal.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .casestudy import (
    bruteforce_search,
    concavity_scan,
    equal_input_witness,
    example62,
    lessnoisy_gap,
)
from .codesim import (
    SAMPLER_VERSION,
    build_wiretap_code,
    exact_leakage,
    leakage_chain_check,
    max_message_variation,
    simulate_report,
)
from .conferencing import region_conferencing
from .errors import ResourceBudgetError, ValidationError
from .optimizer import (
    CommonMode,
    ConferencingMode,
    SearchConfig,
    achievable_region_estimate,
    single_sender_secrecy_capacity,
)
from .probkit import FactoredInput, WiretapMAC
from .regions import (
    CaseLabel,
    InfoProfile,
    _resolve,
    classify_profile,
    random_hull_instance,
    random_union_instance,
    region_common,
    verify_convexhull_lemma,
    verify_union_lemma,
)


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist(), digits)
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.{digits}g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what}: file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{what}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from None


def _load_channel(path: str) -> WiretapMAC:
    return WiretapMAC.from_json_dict(_load_json(path, "channel"))


def _load_input(path: str, mac: WiretapMAC) -> FactoredInput:
    return FactoredInput.from_json_dict(_load_json(path, "input"), mac)


def _load_profile(args) -> tuple[InfoProfile, bool]:
    """The input's profile and u-independence flag, from one kernel call."""
    return _resolve(_load_input(args.p, _load_channel(args.channel)))


def _cmd_info(args) -> dict:
    prof, u_ind = _load_profile(args)
    return {"profile": prof.to_json_dict(), "u_independent": u_ind}


def _cmd_classify(args) -> dict:
    prof, u_ind = _load_profile(args)
    report = classify_profile(prof, args.hc, u_independent=u_ind)
    return {"hc": args.hc,
            "cases": sorted(int(c) for c in report.cases),
            "warnings": list(report.warnings)}


def _case_regions(args, hc: float, cases, build) -> dict:
    """The JSON of ``build(case)`` for each case (only ``args.case`` if given)."""
    if args.case is not None:
        cases = {CaseLabel(args.case)} & cases
        if not cases:
            raise ValidationError(
                f"input does not classify as case {args.case} at hc={hc}")
    return {case.name: build(case).to_json_dict() for case in sorted(cases)}


def _cmd_region(args) -> dict:
    prof, u_ind = _load_profile(args)
    cases = classify_profile(prof, args.hc, u_independent=u_ind).cases
    return {"hc": args.hc, "regions": _case_regions(
        args, args.hc, cases, lambda case: region_common(
            prof, args.hc, case, check_membership=False, u_independent=u_ind))}


def _cmd_conf_region(args) -> dict:
    prof, _ = _load_profile(args)
    hc = args.c1 + args.c2
    cases = classify_profile(prof, hc).cases - {CaseLabel.CASE0}
    return {"c1": args.c1, "c2": args.c2, "regions": _case_regions(
        args, hc, cases, lambda case: region_conferencing(
            prof, args.c1, args.c2, case, alpha_points=args.alpha_points))}


def _cmd_optimize(args) -> dict:
    mac = _load_channel(args.channel)
    if args.mode == "common":
        mode = CommonMode(args.hc)
    else:
        mode = ConferencingMode(args.c1, args.c2)
    cfg = SearchConfig(
        u_size=args.u_size, restarts=args.restarts,
        refine_iters=args.refine_iters, directions=args.directions,
        seed=args.seed, independent_only=args.independent_only,
    )
    est = achievable_region_estimate(mac, mode, cfg)
    out = est.to_json_dict()
    out["seed"] = args.seed
    out["secrecy_capacity_estimate"] = single_sender_secrecy_capacity(mac, cfg) \
        if args.with_capacity else None
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(est.to_csv())
        out["csv"] = args.csv
    return out


def _build_code_from_args(args):
    mac = _load_channel(args.channel)
    p = _load_input(args.p, mac)
    return build_wiretap_code(
        p, CaseLabel(args.case), tuple(args.rates), args.hc, args.n,
        args.delta, slack=args.slack, seed=args.seed, n2=args.n2,
        alpha=args.alpha,
    )


def _cmd_simulate(args) -> dict:
    code = _build_code_from_args(args)
    rep = simulate_report(code, mode="mc" if args.mc else "exact",
                          trials=args.trials, seed=args.seed)
    out = rep.to_json_dict()
    out["case"] = int(code.case)
    out["realized_rates"] = list(code.realized_rates())
    return out


def _cmd_leakage(args) -> dict:
    code = _build_code_from_args(args)
    chain = leakage_chain_check(code)
    return {
        "seed": args.seed,
        "leakage_bits": exact_leakage(code),
        "max_message_variation": max_message_variation(code),
        "variation_premise_holds": chain.premise_holds,
        "variation_bound": chain.bound,
        "chain_holds": chain.holds,
        "message_count": code.message_count,
        "n_total": code.n_total,
        "sampler_version": SAMPLER_VERSION,
    }


def _cmd_verify_lemmas(args) -> dict:
    rng = np.random.default_rng(args.seed)
    union_bad = []
    hull_bad = []
    for i in range(args.instances):
        rep = verify_union_lemma(**random_union_instance(rng),
                                 samples=args.samples,
                                 grid_step=args.grid_step, tol=args.tol,
                                 seed=args.seed + i)
        if not rep.passed:
            union_bad.append(rep.to_json_dict())
    for i in range(args.instances):
        rep = verify_convexhull_lemma(**random_hull_instance(rng),
                                      samples=args.samples,
                                      grid_step=args.grid_step, tol=args.tol,
                                      seed=args.seed + i)
        if not rep.passed:
            hull_bad.append(rep.to_json_dict())
    return {
        "seed": args.seed,
        "instances": args.instances,
        "samples": args.samples,
        "union_counterexamples": union_bad,
        "hull_counterexamples": hull_bad,
        "passed": not union_bad and not hull_bad,
    }


def _cmd_example61(args) -> dict:
    witness = equal_input_witness()
    scan = concavity_scan(args.grid, args.grid)
    center = lessnoisy_gap(0.5, 0.5)
    return {
        "coupled_legitimate_rate": witness.i_t,
        "coupled_eavesdropper_rate": witness.i_z,
        "maximizing_bias": witness.best_p0,
        "gap_at_center": center.gap,
        "concavity": scan.to_json_dict(),
    }


def _cmd_example62(args) -> dict:
    return example62().to_json_dict()


def _cmd_search(args) -> dict:
    found = bruteforce_search(args.budget, args.seed, args.predicate)
    return {
        "seed": args.seed,
        "budget": args.budget,
        "predicate": args.predicate,
        "found": [hit.to_json_dict() for hit in found],
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtmac",
        description="secrecy rate regions and desk-scale wiretap codes for "
                    "the two-sender MAC",
    )
    parser.add_argument("--out", help="write the JSON artifact here "
                                      "(default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(handler=fn)
        return sp

    sp = add("info", _cmd_info, help="information profile of an input")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--p", required=True)

    sp = add("classify", _cmd_classify, help="coding cases of an input")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--hc", type=float, required=True)

    sp = add("region", _cmd_region, help="common-message rate polytopes")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--hc", type=float, required=True)
    sp.add_argument("--case", type=int, choices=range(4))

    sp = add("conf-region", _cmd_conf_region, help="conferencing rate regions")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--c1", type=float, required=True)
    sp.add_argument("--c2", type=float, required=True)
    sp.add_argument("--case", type=int, choices=(1, 2, 3))
    sp.add_argument("--alpha-points", type=int, default=101)

    sp = add("optimize", _cmd_optimize, help="search the achievable region")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--mode", choices=("common", "conferencing"),
                    required=True)
    sp.add_argument("--hc", type=float, default=0.0)
    sp.add_argument("--c1", type=float, default=0.0)
    sp.add_argument("--c2", type=float, default=0.0)
    sp.add_argument("--restarts", type=int, default=30)
    sp.add_argument("--refine-iters", type=int, default=40)
    sp.add_argument("--directions", type=int, default=16)
    sp.add_argument("--u-size", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--independent-only", action="store_true")
    sp.add_argument("--with-capacity", action="store_true")
    sp.add_argument("--csv")

    for name, fn in (("simulate", _cmd_simulate), ("leakage", _cmd_leakage)):
        sp = add(name, fn, help=f"build a code and report ({name})")
        sp.add_argument("--channel", required=True)
        sp.add_argument("--p", required=True)
        sp.add_argument("--case", type=int, choices=range(4), required=True)
        sp.add_argument("--rates", type=float, nargs=3, default=(0.0, 0.0, 0.0))
        sp.add_argument("--hc", type=float, default=1.0)
        sp.add_argument("--n", type=int, default=4)
        sp.add_argument("--n2", type=int, default=None)
        sp.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--delta", type=float, default=0.3)
        sp.add_argument("--slack", type=float, default=0.25)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--mc", action="store_true")
        sp.add_argument("--trials", type=int, default=2000)

    sp = add("verify-lemmas", _cmd_verify_lemmas,
             help="sample-verify the polytope decomposition lemmas")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--instances", type=int, default=100)
    sp.add_argument("--grid-step", type=float, default=1e-3)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("example61", _cmd_example61,
             help="additive example: coupled-input witness and concavity scan")
    sp.add_argument("--grid", type=int, default=99)

    add("example62", _cmd_example62,
        help="explicit numeric example: the full value table")

    sp = add("search", _cmd_search, help="brute-force channel search")
    sp.add_argument("--budget", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--predicate",
                    choices=("needs-time-sharing", "conferencing-helps"),
                    default="needs-time-sharing")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        artifact = args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 2
    artifact = {"command": args.command, **artifact}
    text = json.dumps(_round_floats(artifact), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
