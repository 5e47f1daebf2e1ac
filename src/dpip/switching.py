"""Statistics for the randomized switching step.

Measures how many draws the repeat-until-prime loop needs for given
coefficient bounds, estimates the density of prime cofactors over the
sampling grid (exhaustively for tiny grids, by Monte Carlo otherwise),
and sanity-checks prime-ideal counts against T/log T.
"""

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .decide import cofactor_side, first_prime_cofactor, prime_cofactor, substream
from .nf import kummer_dedekind
from .ntheory import isprime

TRIAL_CAP = 10**5


@dataclass(frozen=True)
class SwitchStats:
    bound_B: int
    trials: int
    switch_counts: tuple
    mean: Fraction
    prime_fraction: Fraction
    seed: int
    capped_trials: int = 0


def ProcessPoolExecutor(max_workers):
    """concurrent.futures' process pool, imported only when jobs > 1."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _run_trials(side, bound, seed, trial_range, cap):
    counts = []
    capped = 0
    for t in trial_range:
        rng = substream(seed, "stats", bound, t)
        draws, witness = first_prime_cofactor(side, bound, rng, cap)
        counts.append(draws)
        capped += witness is None
    return counts, capped


def switch_stats(ideal, bounds, trials, seed, field=None, cap=TRIAL_CAP, jobs=1):
    """Repeat-until-prime switch counts for each bound.

    Each trial is an independent experiment with its own substream keyed
    by (seed, bound, trial index), so results do not depend on scheduling
    and identical seeds reproduce identical counts. A trial that exceeds
    `cap` draws records the cap and flags the run. The ideal is reduced
    once, and every draw runs on its cofactor side (J, W) (`lll_reduce`),
    with W packed once per bound; both stay cached on the ideal for later
    calls (`cofactor_side`). With jobs > 1 one process pool, of no more
    workers than tasks or CPUs, runs the trial ranges of every bound, each
    task receiving the pickled cofactor side.
    """
    if field is not None and field != ideal.K:
        raise ValueError("ideal does not belong to the given field")
    if trials < 1:
        raise ValueError("at least one trial is required")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if not bounds:
        raise ValueError("at least one bound is required")
    if any(bound < 1 for bound in bounds):
        raise ValueError("bounds must be positive")
    side = cofactor_side(ideal)
    chunk = -(-trials // jobs)
    ranges = [range(lo, min(lo + chunk, trials)) for lo in range(0, trials, chunk)]
    tasks = [(side, bound, seed, r, cap) for bound in bounds for r in ranges]
    if jobs > 1:
        # the pool starts all its workers at the first submit
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_trials, *task) for task in tasks]
            parts = [f.result() for f in futures]
    else:
        parts = [_run_trials(*task) for task in tasks]
    out = []
    for i, bound in enumerate(bounds):
        mine = parts[i * len(ranges) : (i + 1) * len(ranges)]
        counts = [c for part_counts, _ in mine for c in part_counts]
        capped = sum(part_capped for _, part_capped in mine)
        total = sum(counts)
        out.append(
            SwitchStats(
                bound_B=bound,
                trials=trials,
                switch_counts=tuple(counts),
                mean=Fraction(total, trials),
                prime_fraction=Fraction(trials - capped, total),
                seed=seed,
                capped_trials=capped,
            )
        )
    return out


@dataclass(frozen=True)
class DensityEstimate:
    value: Fraction
    stderr: float
    samples: int
    exhaustive: bool


def prime_switch_density(ideal, bound, mode="exhaustive", budget=10**6, seed=0):
    """Fraction of coefficient vectors in [-B, B]^d giving a prime cofactor.

    The zero vector counts in the denominator (2B+1)^d but can never hit,
    matching the sampling loop which redraws r = 0. Exhaustive mode walks
    the whole grid and is exact; sampled mode returns an unbiased estimate
    with its standard error.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    d = ideal.K.degree
    grid = (2 * bound + 1) ** d
    side = cofactor_side(ideal)
    J, combine = side.J, side.combiner(bound)

    def hit(coeffs):
        return any(coeffs) and prime_cofactor(J, combine(coeffs)) is not None

    if mode == "exhaustive":
        if grid > budget:
            raise ValueError(f"grid of {grid} points exceeds the budget {budget}")
        count = sum(1 for coeffs in product(range(-bound, bound + 1), repeat=d) if hit(coeffs))
        return DensityEstimate(Fraction(count, grid), 0.0, grid, True)
    rng = substream(seed, "density", bound)
    hits = 0
    for _ in range(budget):
        coeffs = [rng.randrange(-bound, bound + 1) for _ in range(d)]
        hits += hit(coeffs)
    phat = Fraction(hits, budget)
    se = math.sqrt(float(phat) * (1.0 - float(phat)) / budget)
    return DensityEstimate(phat, se, budget, False)


def prime_ideal_count(K, limit):
    """Number of prime ideals of norm <= limit."""
    count = 0
    for p in filter(isprime, range(2, limit + 1)):
        for prime in kummer_dedekind(p, K):
            if prime.norm() <= limit:
                count += 1
    return count


def landau_ratio(K, limit):
    """pi_K(T) * log(T) / T, which tends to 1 for every number field."""
    if limit < 100:
        raise ValueError("limit must be at least 100")
    if K.degree > 4:
        raise ValueError("exhaustive prime counting is limited to degree <= 4")
    return prime_ideal_count(K, limit) * math.log(limit) / limit


def stats_csv(stats):
    """CSV rows: bound_B,trials,mean_switches,prime_fraction,seed."""
    lines = ["bound_B,trials,mean_switches,prime_fraction,seed"]
    for s in stats:
        lines.append(
            f"{s.bound_B},{s.trials},{float(s.mean):.6g},{float(s.prime_fraction):.6g},{s.seed}"
        )
    return "\n".join(lines) + "\n"
