import itertools
import math
import pickle
from concurrent.futures import Future
from fractions import Fraction

import pytest
from sympy import primerange

from dpip import decide, fppoly, nf, switching
from dpip.decide import cofactor_side, first_prime_cofactor, substream
from dpip.lll import lll_reduce
from dpip.nf import Ideal, kummer_dedekind, prime_power
from dpip.serialize import load_field, load_ideal
from dpip.switching import (
    landau_ratio,
    prime_ideal_count,
    prime_switch_density,
    stats_csv,
    switch_stats,
)
from helpers import combine


def test_stats_deterministic(K5):
    ring = Ideal.ring(K5)
    a = switch_stats(ring, [5], trials=30, seed=123)
    b = switch_stats(ring, [5], trials=30, seed=123)
    assert a == b
    c = switch_stats(ring, [5], trials=30, seed=124)
    assert c[0].switch_counts != a[0].switch_counts


def test_stats_single_trial(K5):
    s = switch_stats(Ideal.ring(K5), [10], trials=1, seed=9)[0]
    assert s.trials == 1
    assert len(s.switch_counts) == 1
    assert s.mean == s.switch_counts[0]


def test_stats_mean_bookkeeping(K5):
    s = switch_stats(Ideal.ring(K5), [10], trials=40, seed=5)[0]
    assert s.mean == Fraction(sum(s.switch_counts), 40)
    assert s.prime_fraction == Fraction(40 - s.capped_trials, sum(s.switch_counts))
    assert 0 <= s.prime_fraction <= 1
    assert s.capped_trials == 0


def test_stats_jobs_match_serial(K5, K64, fixtures_dir):
    # the workers get a pickled ideal, field and reduced basis, and one pool
    # runs every bound
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    for ideal, bounds, trials in ((I, [4, 8], 12), (J, [5, 10], 4)):
        serial = switch_stats(ideal, bounds, trials=trials, seed=3, jobs=1)
        parallel = switch_stats(ideal, bounds, trials=trials, seed=3, jobs=2)
        assert serial == parallel


def test_stats_pool_is_no_larger_than_the_tasks(K5, monkeypatch):
    # a fake pool records its size and runs each task inline, so no
    # process starts
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(switching, "ProcessPoolExecutor", InlinePool)
    ring = Ideal.ring(K5)
    wide = switch_stats(ring, [5], trials=3, seed=11, jobs=10**6)
    assert len(sizes) == 1 and 1 <= sizes[0] <= 3
    assert wide == switch_stats(ring, [5], trials=3, seed=11, jobs=1)


def test_switch_counts_are_pinned(K64, fixtures_dir):
    # criterion-2 ideal: counts recorded at delta = 3/4, so any change to
    # the LLL basis, the draw, the norm or the prime test that alters a
    # verdict shows here
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    stats = switch_stats(J, [5, 10, 20], trials=8, seed=2026)
    assert [s.switch_counts for s in stats] == [
        (25, 12, 21, 15, 52, 21, 11, 24),
        (9, 24, 5, 2, 5, 92, 7, 12),
        (9, 127, 4, 11, 70, 27, 17, 6),
    ]
    assert not any(s.capped for s in stats)


def test_switch_stats_runs_no_gcd_on_prime_norm_cofactors(monkeypatch, K64, fixtures_dir):
    # every hit on the criterion-2 ideal has prime norm, so it is prime by
    # its norm and no trial needs its form (p, theta - a)
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    plain = switch_stats(J, [5, 10, 20], trials=4, seed=17)

    def refuse(a, b, p):
        raise AssertionError("fppoly.gcd ran during switch_stats")

    monkeypatch.setattr(fppoly, "gcd", refuse)
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    assert switch_stats(J, [5, 10, 20], trials=4, seed=17) == plain
    assert not any(s.capped for s in plain)


def test_switch_stats_unpacks_only_prime_power_draws(monkeypatch, K64, fixtures_dir):
    # a draw's norm reads its packed digits; its coordinates are unpacked
    # only when prime_cofactor goes on to read the cofactor
    unpacked = []
    coords = nf._PackedElement.coords

    def counted(r):
        if r._coords is None:
            unpacked.append(r)
        return coords.fget(r)

    hits = []
    test = decide.prime_power

    def recorded(n):
        out = test(n)
        hits.append(out is not None)
        return out

    monkeypatch.setattr(nf._PackedElement, "coords", property(counted))
    monkeypatch.setattr(decide, "prime_power", recorded)
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    stats = switch_stats(J, [5, 10], trials=3, seed=8)
    draws = sum(sum(s.switch_counts) for s in stats)
    assert len(hits) == draws and len(unpacked) == sum(hits) == 6
    n = J.norm_int()
    assert all(prime_power(abs(r.norm_int()) // n) for r in unpacked)


def test_switch_stats_packs_the_basis_once_per_bound(monkeypatch, K64, fixtures_dir):
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    _, W = lll_reduce(J)
    rows = [tuple(row) for row in zip(*W)]
    packs = []
    pack = nf._pack

    def counted(table, width):
        if [tuple(row) for row in table] == rows:
            packs.append(width)
        return pack(table, width)

    monkeypatch.setattr(nf, "_pack", counted)
    for bounds in ([5], [10, 20], [5], [20, 10], [5, 10, 20]):
        switch_stats(J, bounds, trials=2, seed=4)
    assert len(packs) == 3


def test_cofactor_side_pickles_with_its_packed_basis(monkeypatch, K64, fixtures_dir):
    J = load_ideal(fixtures_dir / "ideal_zeta64_switch.json", K64)
    side = cofactor_side(J)
    want = first_prime_cofactor(side, 5, substream(6, "pickle"), 500)
    copy = pickle.loads(pickle.dumps(side))
    assert copy.W == side.W and copy.J == side.J
    assert copy._packed == side._packed and list(copy._packed) == [5]

    def refuse(table, width):
        raise AssertionError("the unpickled side packed its basis again")

    monkeypatch.setattr(nf, "_pack", refuse)
    assert first_prime_cofactor(copy, 5, substream(6, "pickle"), 500) == want


def test_switch_stats_rejects_a_cap_below_one(fixtures_dir):
    K = load_field(fixtures_dir / "field_qsqrtm5.json")
    I = load_ideal(fixtures_dir / "ideal_qsqrtm5_3pt.json", K)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap"):
            switch_stats(I, [5], trials=2, seed=1, cap=cap)


def test_switch_stats_needs_a_bound_before_it_reduces(monkeypatch, fixtures_dir):
    # no bound means no statistics, so no LLL reduction is paid for either
    K = load_field(fixtures_dir / "field_qsqrtm5.json")
    I = load_ideal(fixtures_dir / "ideal_qsqrtm5_3pt.json", K)

    def refuse(ideal):
        raise AssertionError("reduced an ideal with no bound to draw at")

    monkeypatch.setattr(switching, "cofactor_side", refuse)
    with pytest.raises(ValueError, match="at least one bound is required"):
        switch_stats(I, [], trials=2, seed=1)


def test_exhaustive_density_unit_ideal(K5):
    """Independent oracle: count a^2+5b^2 prime (or a matching prime power)."""
    ring = Ideal.ring(K5)
    est = prime_switch_density(ring, 5, mode="exhaustive", budget=200)
    count = 0
    for a, b in itertools.product(range(-5, 6), repeat=2):
        if (a, b) == (0, 0):
            continue
        n = a * a + 5 * b * b
        pk = prime_power(n)
        if pk is None:
            continue
        p, k = pk
        if k == 1:
            count += 1
        else:
            count += any(
                P.res_degree == k
                and P.to_ideal() == Ideal.principal(K5, K5.element([a, b]))
                for P in kummer_dedekind(p, K5)
            )
    assert est.value == Fraction(count, 121)
    assert est.value > 0
    assert est.exhaustive and est.stderr == 0.0


def test_density_bound_zero(K5):
    est = prime_switch_density(Ideal.ring(K5), 0, mode="exhaustive", budget=10)
    assert est.value == 0


def test_density_budget_guard(K5):
    with pytest.raises(ValueError):
        prime_switch_density(Ideal.ring(K5), 50, mode="exhaustive", budget=100)


@pytest.mark.parametrize(
    "mode, budget, message",
    [
        ("sampled", 0, "budget must be at least 1"),
        ("sampled", -3, "budget must be at least 1"),
        ("exhaustive", 0, "budget must be at least 1"),
        ("grid", 100, "unknown mode 'grid'"),
    ],
)
def test_density_arguments_are_checked_before_it_reduces(monkeypatch, K5, mode, budget, message):
    # a sampled estimate over no samples, or one in an unknown mode, is
    # refused before an LLL reduction is paid for
    def refuse(ideal):
        raise AssertionError("reduced an ideal for a density that cannot be taken")

    monkeypatch.setattr(switching, "cofactor_side", refuse)
    with pytest.raises(ValueError, match=message):
        prime_switch_density(Ideal.ring(K5), 2, mode=mode, budget=budget)


def test_sampled_density_consistent_between_seeds(K5):
    ring = Ideal.ring(K5)
    a = prime_switch_density(ring, 5, mode="sampled", budget=4000, seed=1)
    b = prime_switch_density(ring, 5, mode="sampled", budget=4000, seed=2)
    se = math.hypot(a.stderr, b.stderr)
    assert abs(float(a.value) - float(b.value)) <= 4 * se


def test_geometric_consistency(K5):
    """Mean switch count ~ 1/density for the same ideal and bound."""
    ring = Ideal.ring(K5)
    density = prime_switch_density(ring, 5, mode="exhaustive", budget=200)
    stats = switch_stats(ring, [5], trials=400, seed=11)[0]
    p = float(density.value)
    mean = float(stats.mean)
    # waiting time of a Bernoulli(p) process: mean 1/p, variance (1-p)/p^2
    se = math.sqrt((1 - p) / (p * p * 400))
    assert abs(mean - 1 / p) <= 3.5 * se


def test_grid_monotone_under_basis_change(K5):
    """Cofactors reachable from one basis are reachable from another at
    a bound scaled by the transform's max column sum."""
    I = Ideal.from_generators(K5, [K5.rational(2), K5.element([1, 1])])
    J, lll_basis = lll_reduce(I)
    assert J is I
    hnf_basis = I.cols
    # write each hnf vector over the lll basis to get the transform bound
    from fractions import Fraction as F

    cols = [list(b) for b in lll_basis]
    det = cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
    scale = 0
    for target in hnf_basis:
        a0, a1 = target
        u = F(a0 * cols[1][1] - cols[1][0] * a1, det)
        v = F(cols[0][0] * a1 - a0 * cols[0][1], det)
        assert u.denominator == 1 and v.denominator == 1
        assert [u * c0 + v * c1 for c0, c1 in zip(*cols)] == [a0, a1]
        scale = max(scale, abs(u.numerator) + abs(v.numerator))
    bound = 2
    ni = I.norm_int()

    def cofactors(basis, b):
        out = set()
        for coeffs in itertools.product(range(-b, b + 1), repeat=2):
            if not any(coeffs):
                continue
            r = combine(K5, basis, list(coeffs))
            out.add(Ideal.principal(K5, r).divide(I))
        return out

    small = cofactors(hnf_basis, bound)
    large = cofactors(lll_basis, bound * scale)
    assert small <= large


def test_landau_examples(K5, Ki):
    assert 0.5 <= landau_ratio(K5, 10**4) <= 2
    assert 0.5 <= landau_ratio(Ki, 10**4) <= 2
    with pytest.raises(ValueError):
        landau_ratio(K5, 50)


def test_landau_small_count_self_consistent(K5):
    """Independent recount of pi_K(100) by sieving residues mod 20."""
    count = prime_ideal_count(K5, 100)
    expected = 0
    for p in primerange(2, 101):
        if p in (2, 5):
            expected += 1  # ramified
        elif pow(-5, (p - 1) // 2, p) == 1:
            expected += 2  # split
        elif p * p <= 100:
            expected += 1  # inert of norm p^2
    assert count == expected


def test_landau_qi_split_count(Ki):
    """pi_{Q(i)}(T): split primes are exactly p = 1 mod 4 (plus 2, inert p^2)."""
    T = 10**4
    count = prime_ideal_count(Ki, T)
    expected = 1  # (1+i) above 2
    for p in primerange(3, T + 1):
        if p % 4 == 1:
            expected += 2
        elif p * p <= T:
            expected += 1
    assert count == expected


def test_landau_degree_guard(K64):
    with pytest.raises(ValueError):
        landau_ratio(K64, 1000)


def test_csv_format(K5):
    stats = switch_stats(Ideal.ring(K5), [5, 10], trials=5, seed=2)
    text = stats_csv(stats)
    lines = text.strip().split("\n")
    assert lines[0] == "bound_B,trials,mean_switches,prime_fraction,seed"
    assert len(lines) == 3
    assert lines[1].startswith("5,5,")
    assert lines[2].startswith("10,5,")


def test_trial_cap_records_and_flags(K5):
    # cap=1 forces every non-immediate trial to stop at the cap
    I = Ideal.principal(K5, K5.rational(2))
    stats = switch_stats(I, [2], trials=20, seed=1, cap=1)[0]
    assert all(c <= 1 for c in stats.switch_counts)
    if stats.capped_trials:
        assert stats.capped
        assert stats.prime_fraction < 1
