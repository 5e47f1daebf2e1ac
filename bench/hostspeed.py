"""Timings scaled to a fixed host speed.

On a shared host the same Python work can run up to 1.8 times slower for
tens of seconds at a time. Raw wall times then spread by 10-20% between
runs, which hides the changes the benchmark is meant to show. So the
benchmark also times a fixed reference kernel (plain Python integer
arithmetic, no dpip code) between ops and scales each op's time by
``REFERENCE_S`` over the kernel's time around it. A scaled time is the
time the op would take on a host where the kernel takes ``REFERENCE_S``;
raw times are printed alongside.
"""

from time import perf_counter

REFERENCE_S = 0.004  # the kernel's time on an unloaded core (Python 3.11)
_P = (1 << 61) - 1
_M = (1 << 1024) - 105


def kernel():
    """Polynomial products mod a word-size prime and a big-integer chain,
    the two kinds of arithmetic the library spends its time in."""
    a = [(i * 7919 + 13) % _P for i in range(48)]
    b = [(i * 104729 + 7) % _P for i in range(48)]
    for _ in range(3):
        out = [0] * 95
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % _P
        a = out[:48]
    x, y = 3**600, 5**430
    for k in range(1, 800):
        x = (x * y + k) % _M
    return a[0] ^ x


def probe():
    """Seconds the kernel takes now: the faster of two runs, so that one
    interrupt does not count as a slow host."""
    best = None
    for _ in range(2):
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class ScaledClock:
    """Collects op times and scales each window of them by the host speed
    probed at the window's two ends."""

    def __init__(self, window_s=0.25):
        self.window_s = window_s
        self.raw = []
        self.scaled = []
        self._pending = []
        self._last = probe()

    def add(self, seconds):
        self.raw.append(seconds)
        self._pending.append(seconds)
        if sum(self._pending) >= self.window_s:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        now = probe()
        factor = REFERENCE_S / ((self._last + now) / 2)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending = []
        self._last = now


def scaled_call(fn):
    """Run fn() once; return its raw and scaled seconds."""
    before = probe()
    t0 = perf_counter()
    fn()
    raw = perf_counter() - t0
    return raw, raw * REFERENCE_S / ((before + probe()) / 2)
