"""The three workloads: seeded inputs, one timed op, and its correctness check.

Each workload splits its work the same way:

* ``setup`` does everything before the first timed op: fixture and field
  load, advice build and validation, the Gram matrix, and the input pool.
  It fills the process-wide caches (``K._gram``, ``K._kd_cache`` and the
  CRT prime list) so that work moved into them shows up in ``setup_s``.
* ``start_pass`` makes the fresh objects one timed pass needs, so no
  ``Ideal`` cache (``_lll``, ``_inv``) survives from one pass into another.
  For the measured pass it is timed as part of the set-up.
* ``input(i)`` is the raw input of the i-th op, a pure function of
  (seed, i), and ``key(i)`` names it: inputs drawn from a pool repeat once
  the pool is used up. Inputs repeat their kinds every ``cycle`` ops, and a
  timed pass ends only after a whole cycle, so every pass has the same mix.
* ``op(inp)`` is the timed call into the library. It returns an outcome
  tuple that ``check`` compares with an answer computed outside the timer.

Library calls go through module attributes (``decide.decide_ideal``), so
the tracer sees calls the benchmark makes as well as internal ones.
"""

import hashlib
import random
from pathlib import Path

from dpip import advice, decide, errors, lll, nf, quadforms, serialize, switching

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def derived_seed(*labels):
    """A 63-bit seed fixed by the labels, stable across Python versions."""
    key = ":".join(str(x) for x in labels).encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") >> 1


def cold_process_state():
    """Empty the process-wide CRT prime list so each set-up pays to fill it."""
    primes = getattr(nf, "_CRT_PRIMES", None)
    if isinstance(primes, list):
        primes.clear()


def witness_label(prime):
    return "-" if prime is None else f"{prime.p}:{','.join(map(str, prime.gen_poly))}"


class Switch32:
    """switch_stats trials on the criterion-2 ideal of Q[θ]/(θ^32+1)."""

    name = "switch32"
    bounds = (5, 10, 20)
    cycle = len(bounds)
    min_ops = 30  # trials in the deterministic-count prefix
    cap = 1000  # draws; a capped trial counts as failed

    def setup(self, seed):
        self.seed = seed
        self.K = serialize.load_field(FIXTURES / "field_zeta64.json")
        lll.minkowski_gram(self.K)

    def start_pass(self):
        # one ideal per pass, as one switch_stats run would use; its LLL
        # basis is computed by the first trial and cached on the ideal
        self.ideal = serialize.load_ideal(FIXTURES / "ideal_zeta64_switch.json", self.K)

    def input(self, i):
        return (self.bounds[i % len(self.bounds)], derived_seed("switch32", self.seed, i))

    def key(self, i):
        return i  # every trial has its own seed

    def op(self, inp):
        bound, trial_seed = inp
        (st,) = switching.switch_stats(
            self.ideal, [bound], trials=1, seed=trial_seed, field=self.K, cap=self.cap
        )
        return (st.switch_counts[0], st.capped_trials)

    def draws(self, out):
        return out[0]

    work = draws

    def lll_runs(self, outs):
        return 1  # the pass's one ideal, reduced by its first trial

    def check(self, inputs, outs):
        return [i for i, out in enumerate(outs) if out[1]]

    def counts(self, outs):
        return {
            "trials": len(outs),
            "draws": sum(o[0] for o in outs),
            "switches": [o[0] for o in outs],
            "capped": sum(o[1] for o in outs),
        }


class Decide48:
    """decide_ideal at B=5 on (α) and (α)·P in the conductor-180 field.

    The inputs are a fixed pool of three cycles (21 (α) drawn as in
    criterion 4, 3 (α)·P) decided in an order set by the seed. A run
    decides only about 30 ideals, and the number of switches each one takes
    is geometric, so a fresh set of inputs per seed would change a run's
    total work by about 10%; the pool keeps that work the same for every
    seed.
    """

    name = "decide48"
    min_ops = 24  # the whole pool
    cycle = 8  # the last input of each cycle is (α)·P, the others (α)
    pool_cycles = 3
    split_prime = 181  # 181 ≡ 1 (mod 180) splits into 48 degree-one primes

    def setup(self, seed):
        self.K = serialize.load_field(FIXTURES / "field_zeta180.json")
        self.advice = advice.load_advice(FIXTURES / "advice_zeta180.json")
        if self.advice.field != self.K:
            raise RuntimeError("advice fixture does not match the field fixture")
        lll.minkowski_gram(self.K)
        self.cfg = decide.default_switch_config(self.K, bound_B=5, seed=480)
        # non-principal factors: degree-one primes the direct path answers No
        self.prime_verdict = {}
        for P in nf.kummer_dedekind(self.split_prime, self.K):
            self.prime_verdict[P] = decide.decide_prime_ideal(P, self.advice).verdict
        self.non_principal = [P for P, v in self.prime_verdict.items() if v == decide.NO]
        for P in self.non_principal:
            P.to_ideal()
        if not self.non_principal:
            raise RuntimeError(f"no prime above {self.split_prime} answers No")
        rng = random.Random(180)
        principal, mixed = [], []
        for _ in range(self.pool_cycles):
            for j in range(self.cycle):
                while True:
                    alpha = tuple(rng.randint(-3, 3) for _ in range(self.K.degree))
                    if any(alpha):
                        break
                if j < self.cycle - 1:
                    principal.append((alpha, None))
                else:
                    mixed.append((alpha, self.non_principal[rng.randrange(len(self.non_principal))]))
        order = random.Random(derived_seed("decide48", seed))
        order.shuffle(principal)
        order.shuffle(mixed)
        self.pool = []
        for c in range(self.pool_cycles):
            self.pool += principal[c * (self.cycle - 1) : (c + 1) * (self.cycle - 1)] + [mixed[c]]
        # the first cycle's ideals, built here so their norms fill the CRT primes
        for inp in self.pool[: self.cycle]:
            self._ideal(inp)

    def start_pass(self):
        pass  # every op builds its own ideal

    def input(self, i):
        return self.pool[i % len(self.pool)]

    def key(self, i):
        return i % len(self.pool)

    def _ideal(self, inp):
        alpha, P = inp
        ideal = nf.Ideal.principal(self.K, self.K.element(list(alpha)))
        return ideal if P is None else ideal * P.to_ideal()

    def op(self, inp):
        try:
            d = decide.decide_ideal(self._ideal(inp), self.advice, self.cfg)
        except errors.MaxTrialsExceededError:
            return (None, self.cfg.max_trials, "-")
        return (d.verdict, d.switches_used, witness_label(d.witness_prime))

    def draws(self, out):
        return out[1]

    def work(self, out):
        return 1

    def lll_runs(self, outs):
        return sum(1 for o in outs if o[1] > 0)  # prime inputs skip switching

    def check(self, inputs, outs):
        bad = []
        for i, (inp, out) in enumerate(zip(inputs, outs)):
            P = inp[1]
            want = decide.YES if P is None else self.prime_verdict[P]
            if out[0] != want:
                bad.append(i)
        return bad

    def counts(self, outs):
        return {
            "decisions": len(outs),
            "draws": sum(o[1] for o in outs),
            "switches": [o[1] for o in outs],
            "yes": sum(o[0] == decide.YES for o in outs),
            "no": sum(o[0] == decide.NO for o in outs),
            "witness_digest": hashlib.sha256(
                "|".join(o[2] for o in outs).encode()
            ).hexdigest()[:16],
        }


class PrimesQuad:
    """decide_prime_ideal on every prime ideal of norm < 10^4 in three fields."""

    name = "primes_quad"
    discs = (-20, -84, -420)  # Q(√−5), Q(√−21), Q(√−105): t = 1, 2, 3
    norm_limit = 10**4
    min_ops = 2000
    cycle = 1

    def setup(self, seed):
        from sympy import primerange

        self.seed = seed
        self.pool = []
        for disc in self.discs:
            adv = quadforms.genus_advice(disc)
            for p in primerange(2, self.norm_limit):
                for P in nf.kummer_dedekind(p, adv.field):
                    if P.norm() < self.norm_limit:
                        self.pool.append((disc, adv, P))
        random.Random(derived_seed("primes_quad", seed)).shuffle(self.pool)
        self._oracle = {}

    def start_pass(self):
        pass  # prime ideals carry no decision cache

    def input(self, i):
        return self.pool[i % len(self.pool)]

    def key(self, i):
        return i % len(self.pool)

    def op(self, inp):
        d = decide.decide_prime_ideal(inp[2], inp[1])
        return (d.verdict, d.reason)

    def draws(self, out):
        return 0

    def work(self, out):
        return 1

    def lll_runs(self, outs):
        return 0

    def check(self, inputs, outs):
        bad = []
        for i, ((disc, _, P), out) in enumerate(zip(inputs, outs)):
            key = (disc, P.p, P.gen_poly)
            if key not in self._oracle:
                self._oracle[key] = quadforms.is_principal_quad(P.to_ideal(), disc)
            if (out[0] == decide.YES) != self._oracle[key]:
                bad.append(i)
        return bad

    def counts(self, outs):
        return {
            "decisions": len(outs),
            "draws": 0,
            "yes": sum(o[0] == decide.YES for o in outs),
            "no": sum(o[0] == decide.NO for o in outs),
            "verdict_digest": hashlib.sha256(
                "|".join(f"{o[0]}/{o[1]}" for o in outs).encode()
            ).hexdigest()[:16],
        }


WORKLOADS = {w.name: w for w in (Switch32, Decide48, PrimesQuad)}
