"""The dpip benchmark: three seeded workloads, end-to-end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {switch32,decide48,primes_quad} \
        --seed N --seconds S --trace {0,1}

The library is imported from ``src/`` of the same checkout; without it the
run exits with code 2 and prints no result. Everything runs in this one
process with jobs=1.

``--trace 0`` sets up three times (``setup_s`` is the median), then runs
ops until they have taken ``--seconds`` and the deterministic-count prefix
is complete, and reports the end-to-end metrics. An op is one decision on
decide48 and primes_quad, and one switching draw on switch32: a trial
(draws until the cofactor is prime) varies too much in length from seed to
seed to give a steady rate. Times are scaled to a fixed host speed, see
``bench/hostspeed.py``; the raw figures are printed before the result.

``--trace 1`` sets up once and runs the ops for half of ``--seconds`` with
every layer wrapped by ``bench/tracer.py``, then runs the same ops again
untraced on fresh objects. It reports per-layer calls and self times (raw
seconds), the tracing overhead (traced minus untraced scaled time of the
same ops), and fails the run if wrapping changed any outcome or a span
count disagrees with a count known from the results.

Every op's answer is checked outside the timer. The counts of the first
``min_ops`` ops (draws, switches, Yes/No, a digest of the witnesses) are
stored in ``.bench_counts/`` of the checkout, keyed by a hash of the
library source; a later run of the same code with the same seed that does
not reproduce them fails. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
WALL_LIMIT_S = 150  # stop timing early so that the run ends within 180 s
SETUP_REPEATS = 3
START = perf_counter()

SELF_TIMES = (
    "lll.minkowski_gram", "lll.integral_lll", "lll.lll_reduce", "nf.norm_int",
    "fppoly.resultant", "nf.prime_power", "nf.as_prime_ideal", "nf.Ideal.inverse",
    "nf.Ideal.mul_element", "intlattice.IntLattice.add", "intlattice.bareiss_det",
    "residue.splits_completely", "residue.reduce_poly_mod_prime",
    "residue.element_in_prime", "decide.decide_ideal", "decide.decide_prime_ideal",
    "decide.draw_coefficients", "advice.load_advice", "serialize.load_field",
    "quadforms.genus_advice", "nf.kummer_dedekind", "switching.switch_stats",
)
CALL_COUNTS = (
    "lll.integral_lll", "nf.norm_int", "fppoly.resultant", "nf.prime_power",
    "nf.as_prime_ideal", "nf.Ideal.mul_element", "intlattice.IntLattice.add",
    "residue.splits_completely", "residue.element_in_prime",
)
HIT_RATIOS = ("nf.prime_power", "nf.as_prime_ideal")


def import_library():
    src = ROOT / "src"
    if not (src / "dpip" / "__init__.py").is_file():
        print(f"bench: no library at {src / 'dpip'}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dpip

    if Path(dpip.__file__).resolve().parent != src / "dpip":
        print(f"bench: imported dpip from {dpip.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def run_pass(wl, seconds, n_ops=None):
    """Whole cycles of ops until `seconds` of op time and the count prefix
    are done, or exactly `n_ops` ops. Returns (inputs, outcomes, clock)."""
    gc.collect()
    clock = hostspeed.ScaledClock()
    inputs, outs = [], []
    busy = 0.0
    while True:
        if n_ops is not None:
            if len(outs) == n_ops:
                break
        elif busy >= seconds and len(outs) >= wl.min_ops and len(outs) % wl.cycle == 0:
            break
        elif perf_counter() - START > WALL_LIMIT_S:
            break
        inp = wl.input(len(outs))
        t0 = perf_counter()
        out = wl.op(inp)
        dt = perf_counter() - t0
        busy += dt
        clock.add(dt)
        inputs.append(inp)
        outs.append(out)
    clock.flush()
    return inputs, outs, clock


def percentile(values, q):
    """The q-th percentile, or None with fewer than ten samples beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_figures(wl, outs, times):
    """(ops per second, median ms per op, p90 ms per op or None), taken
    over distinct inputs: an input decided more than once in a run counts
    once, with its mean time, so every run weighs the same inputs alike.
    On switch32 an op is a draw, so each trial's time is spread over its
    draws."""
    runs = {}
    for i, (out, t) in enumerate(zip(outs, times)):
        runs.setdefault(wl.key(i), (wl.work(out), []))[1].append(t)
    work = [w for w, _ in runs.values()]
    secs = [statistics.fmean(ts) for _, ts in runs.values()]
    per_op = [t / max(w, 1) for w, t in zip(work, secs)]
    p90 = percentile(per_op, 90)
    return sum(work) / sum(secs), statistics.median(per_op) * 1e3, p90 and p90 * 1e3


def compare_counts(wl, seed, counts):
    """Store the prefix counts of (library source, workload, seed), or
    compare them with the ones an earlier run of the same code stored."""
    code = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dpip").glob("*.py")):
        code.update(path.name.encode() + b"\0" + path.read_bytes())
    folder = ROOT / ".bench_counts"
    path = folder / f"{wl.name}-{seed}-{code.hexdigest()[:16]}.json"
    if path.is_file():
        stored = json.loads(path.read_text())
        if stored != counts:
            return [f"counts differ from an earlier run with seed {seed}: {stored} != {counts}"]
        return []
    folder.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def report(wl, args, outs, clock, failed_ops):
    """Print the run's context, counts and raw figures; return the problems
    found by the count comparison."""
    print(
        f"bench: workload={wl.name} seed={args.seed} jobs=1 trace={args.trace} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
    )
    print(
        "bench: cache hygiene: each timed pass uses fresh Ideal objects, so no _lll "
        "or _inv cache carries over; K._gram, K._kd_cache and the CRT primes are "
        "filled during set-up"
    )
    prefix = wl.counts(outs[: wl.min_ops])
    print(f"bench: counts of the first {wl.min_ops} ops: {json.dumps(prefix, sort_keys=True)}")
    whole = wl.counts(outs)
    whole.pop("switches", None)
    print(f"bench: counts of all {len(outs)} ops: {json.dumps(whole, sort_keys=True)}")
    for label, times in (("raw", clock.raw), ("scaled", clock.scaled)):
        rate, p50, p90 = op_figures(wl, outs, times)
        tail = "n/a (under 100 samples)" if p90 is None else f"{p90:.4f} ms"
        print(f"bench: {label}: {rate:.4f} ops/s, p50 {p50:.4f} ms, p90 {tail}")
    if wl.name == "switch32":
        p90 = percentile(clock.scaled, 90)
        print(
            f"bench: scaled trials: {len(outs) / sum(clock.scaled):.4f}/s, p50 "
            f"{statistics.median(clock.scaled) * 1e3:.2f} ms, p90 "
            f"{'n/a (under 100 trials)' if p90 is None else f'{p90 * 1e3:.2f} ms'}"
        )
    print(f"bench: fail_ratio {len(failed_ops)}/{len(outs)}")
    return compare_counts(wl, args.seed, prefix)


def set_up(wl, seed):
    workloads.cold_process_state()
    gc.collect()

    def run():
        wl.setup(seed)
        wl.start_pass()

    return hostspeed.scaled_call(run)


def measure(wl, args):
    setups = [set_up(wl, args.seed) for _ in range(SETUP_REPEATS)]
    inputs, outs, clock = run_pass(wl, args.seconds)
    failed_ops = wl.check(inputs, outs)
    problems = report(wl, args, outs, clock, failed_ops)
    print(
        "bench: set-up raw/scaled s: "
        + ", ".join(f"{raw:.3f}/{scaled:.3f}" for raw, scaled in setups)
    )
    rate, p50, _ = op_figures(wl, outs, clock.scaled)
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return outs, failed_ops, problems, metrics


def measure_traced(wl, args):
    tracer = Tracer()
    tracer.install()
    try:
        set_up(wl, args.seed)
        after_setup = tracer.calls()
        inputs, outs, clock = run_pass(wl, args.seconds / 2)
    finally:
        tracer.uninstall()
    wl.start_pass()
    _, plain_outs, plain_clock = run_pass(wl, 0, n_ops=len(outs))
    failed_ops = wl.check(inputs, outs)
    problems = report(wl, args, outs, clock, failed_ops)
    if tracer.missing:
        print(f"bench: not traced (not found in the library): {', '.join(tracer.missing)}")

    # self-test: wrapping changes nothing, and span counts match known counts
    draws = sum(wl.draws(o) for o in outs)
    calls = {name: n - after_setup[name] for name, n in tracer.calls().items()}
    selftest = []
    if plain_outs != outs:
        selftest.append("traced and untraced runs of the same ops gave different outcomes")
    if calls["decide.draw_coefficients"] != draws:
        selftest.append(f"draw_coefficients spans {calls['decide.draw_coefficients']} != draws {draws}")
    if calls["nf.norm_int"] < draws:
        selftest.append(f"norm_int spans {calls['nf.norm_int']} < draws {draws}")
    if calls["lll.integral_lll"] != wl.lll_runs(outs):
        selftest.append(f"integral_lll spans {calls['lll.integral_lll']} != {wl.lll_runs(outs)}")
    print(
        f"bench: tracer self-test on {len(outs)} ops: {'FAILED' if selftest else 'ok'} "
        f"(draws {draws}, norm_int spans {calls['nf.norm_int']}, "
        f"integral_lll spans {calls['lll.integral_lll']})"
    )
    problems += selftest

    st = tracer.stats
    metrics = {f"{name}.self_s": (st[name].self_s, "s") for name in SELF_TIMES}
    metrics.update({f"{name}.calls": (st[name].calls, "count") for name in CALL_COUNTS})
    for name in HIT_RATIOS:
        metrics[f"{name}.hit_ratio"] = (st[name].hits / max(st[name].calls, 1), "ratio")
    cofactor = st["decide.prime_cofactor"]
    metrics["decide.draws"] = (st["decide.draw_coefficients"].calls, "count")
    metrics["decide.prime_cofactor_ratio"] = (cofactor.hits / max(cofactor.calls, 1), "ratio")
    traced, plain = sum(clock.scaled), sum(plain_clock.scaled)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    metrics["trace.overhead_ratio"] = ((traced - plain) / plain, "ratio")
    return outs, failed_ops, problems, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_library()
    global workloads
    import workloads  # imports dpip, so only once the library is found

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    run = measure_traced if args.trace else measure
    outs, failed_ops, problems, metrics = run(wl, args)
    for p in problems:
        print(f"bench: FAILED: {p}")
    result = {
        "correct": not failed_ops and not problems,
        "attempted": len(outs),
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
