"""Command-line interface.

Commands: decide, precompute-quad, switch-stats, oracle-quad, factor-prime,
advice-check. Exit codes: 0 for Yes/success, 1 for No, 2 for any input or
validation error and for any unexpected error (its traceback goes to
stderr), 3 when a bounded step gives up: the switching loop at its trial
budget, trial division, or form enumeration at its |D| bound.
All randomness flows from --seed (default 42) so runs are reproducible.
"""

import argparse
import json
import sys
import traceback

from .advice import load_advice
from .decide import conjectural_bound, decide_ideal, default_switch_config
from .errors import DpipError, GaveUpError
from .nf import kummer_dedekind
from .quadforms import genus_advice, is_principal_quad
from .serialize import load_field, load_ideal
from .switching import stats_csv, switch_stats

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_GAVE_UP = 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpip",
        description="Decide whether ideals of a monogenic number field are principal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide principality of an ideal")
    p.add_argument("--field", required=True, help="field JSON file")
    p.add_argument("--advice", required=True, help="advice JSON file")
    p.add_argument("--ideal", required=True, help="ideal JSON file")
    p.add_argument("-B", "--bound", type=int, default=16,
                   help="coefficient bound for ideal switching (default 16)")
    p.add_argument("--conjectural-bound", action="store_true",
                   help="use the conservative bound 2^d * |disc| instead of -B")
    p.add_argument("--max-trials", type=int, default=None,
                   help="switching attempts before giving up (default 64*degree)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("precompute-quad",
                       help="generate genus advice for an imaginary quadratic field")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-d", type=int, dest="m",
                       help="positive m selecting the field of x^2 + m")
    group.add_argument("--disc", type=int, help="fundamental discriminant (< 0)")
    p.add_argument("--output", default="-", help="output path (default stdout)")

    p = sub.add_parser("switch-stats", help="repeat-until-prime switching statistics")
    p.add_argument("--field", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--bounds", default="5,10,20",
                   help="comma-separated coefficient bounds (default 5,10,20)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for trials (default 1)")
    p.add_argument("--output", default="-", help="CSV output path (default stdout)")

    p = sub.add_parser("oracle-quad",
                       help="form-reduction principality oracle (quadratic fields)")
    p.add_argument("--field", required=True)
    p.add_argument("--ideal", required=True)

    p = sub.add_parser("factor-prime", help="factor a rational prime in the field")
    p.add_argument("--field", required=True)
    p.add_argument("-p", "--prime", type=int, required=True)

    p = sub.add_parser("advice-check", help="validate an advice file")
    p.add_argument("--advice", required=True)
    return parser


def _write(text, path):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def run_decide(args):
    K = load_field(args.field)
    advice = load_advice(args.advice)
    if advice.field != K:
        print("error: advice was computed for a different field", file=sys.stderr)
        return EXIT_ERROR
    ideal = load_ideal(args.ideal, K)
    bound = conjectural_bound(K) if args.conjectural_bound else args.bound
    cfg = default_switch_config(
        K, bound_B=bound, seed=args.seed, max_trials=args.max_trials
    )
    decision = decide_ideal(ideal, advice, cfg)
    print(f"verdict: {decision.verdict}")
    print(f"reason: {decision.reason}")
    print(f"switches_used: {decision.switches_used}")
    if decision.witness_prime is not None:
        print(f"witness_prime: {decision.witness_prime.label()}")
    return EXIT_YES if decision.verdict == "Yes" else EXIT_NO


def run_precompute_quad(args):
    if args.m is not None:
        if args.m <= 0:
            raise DpipError("-d expects a positive m for the field of x^2 + m")
        disc = -4 * args.m
    else:
        disc = args.disc
    bundle = genus_advice(disc)
    from .advice import advice_to_dict

    _write(json.dumps(advice_to_dict(bundle), indent=1) + "\n", args.output)
    return EXIT_YES


def run_switch_stats(args):
    K = load_field(args.field)
    ideal = load_ideal(args.ideal, K)
    bounds = [int(b) for b in args.bounds.split(",") if b]
    stats = switch_stats(ideal, bounds, args.trials, args.seed, jobs=args.jobs)
    _write(stats_csv(stats), args.output)
    return EXIT_YES


def run_oracle_quad(args):
    K = load_field(args.field)
    ideal = load_ideal(args.ideal, K)
    principal = is_principal_quad(ideal, K.disc)
    print("principal: " + ("yes" if principal else "no"))
    return EXIT_YES if principal else EXIT_NO


def run_factor_prime(args):
    K = load_field(args.field)
    factors = kummer_dedekind(args.prime, K)
    parts = []
    for P in factors:
        label = P.label()
        parts.append(label if P.ram_index == 1 else f"{label}^{P.ram_index}")
    print(f"({args.prime}) = " + " * ".join(parts))
    return EXIT_YES


def run_advice_check(args):
    bundle = load_advice(args.advice)
    degrees = [q for q, _ in bundle.subfields]
    print(f"ok: {len(bundle.subfields)} subfield(s) of degree {degrees}, "
          f"|S| = {len(bundle.S)}, field degree {bundle.field.degree}")
    return EXIT_YES


_RUNNERS = {
    "decide": run_decide,
    "precompute-quad": run_precompute_quad,
    "switch-stats": run_switch_stats,
    "oracle-quad": run_oracle_quad,
    "factor-prime": run_factor_prime,
    "advice-check": run_advice_check,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except GaveUpError as exc:
        print(f"gave up: {exc}", file=sys.stderr)
        return EXIT_GAVE_UP
    except (DpipError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:  # a crash must never read as the verdict No (exit 1)
        traceback.print_exc()
        return EXIT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
