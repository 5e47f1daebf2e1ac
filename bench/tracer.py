"""Per-layer spans recorded from outside the library.

The tracer replaces library functions at the names their callers look
them up by (module attributes such as ``dpip.decide.lll_reduce`` and class
attributes such as ``FieldElement.norm_int``) with wrappers that time
each call. A span's self time is its duration minus the time covered by
the spans it caused, so nested layers are not counted twice. Nothing in
the library changes; ``uninstall`` puts every original back.
"""

import functools
import sys
from time import perf_counter

# (span name, module, attribute path, count non-None results as hits)
TARGETS = [
    ("lll.minkowski_gram", "dpip.lll", "minkowski_gram", False),
    ("lll.integral_lll", "dpip.lll", "integral_lll", False),
    ("lll.lll_reduce", "dpip.lll", "lll_reduce", False),
    ("nf.norm_int", "dpip.nf", "FieldElement.norm_int", False),
    ("fppoly.resultant", "dpip.fppoly", "resultant", False),
    ("nf.prime_power", "dpip.nf", "prime_power", True),
    ("nf.as_prime_ideal", "dpip.nf", "as_prime_ideal", True),
    ("nf.kummer_dedekind", "dpip.nf", "kummer_dedekind", False),
    ("nf.Ideal.inverse", "dpip.nf", "Ideal.inverse", False),
    ("nf.Ideal.mul_element", "dpip.nf", "Ideal.mul_element", False),
    ("intlattice.IntLattice.add", "dpip.intlattice", "IntLattice.add", False),
    ("intlattice.bareiss_det", "dpip.intlattice", "bareiss_det", False),
    ("residue.splits_completely", "dpip.residue", "splits_completely", False),
    ("residue.reduce_poly_mod_prime", "dpip.residue", "reduce_poly_mod_prime", False),
    ("residue.element_in_prime", "dpip.residue", "element_in_prime", False),
    ("decide.decide_ideal", "dpip.decide", "decide_ideal", False),
    ("decide.decide_prime_ideal", "dpip.decide", "decide_prime_ideal", False),
    ("decide.draw_coefficients", "dpip.decide", "draw_coefficients", False),
    ("decide.prime_cofactor", "dpip.decide", "prime_cofactor", True),
    ("advice.load_advice", "dpip.advice", "load_advice", False),
    ("serialize.load_field", "dpip.serialize", "load_field", False),
    ("quadforms.genus_advice", "dpip.quadforms", "genus_advice", False),
    ("switching.switch_stats", "dpip.switching", "switch_stats", False),
]


class SpanStats:
    __slots__ = ("calls", "hits", "self_s")

    def __init__(self):
        self.calls = 0
        self.hits = 0
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: SpanStats() for name, *_ in TARGETS}
        self.missing = []
        self._stack = []  # one [child seconds] cell per open span
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn, hits):
        st = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st.calls += 1
                st.self_s += dt - cell[0]
            if hits and out is not None:
                st.hits += 1
            return out

        return traced

    def install(self):
        """Wrap every target at its definition and at every import of it."""
        modules = [
            m for k, m in list(sys.modules.items()) if m and (k == "dpip" or k.startswith("dpip."))
        ]
        for name, modname, path, hits in TARGETS:
            owner = sys.modules.get(modname)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, hits)
            if owner_path:  # a method: one class attribute serves every caller
                self._patch(owner, attr, fn, wrapped)
                continue
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    self._patch(mod, attr, fn, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self):
        return {name: st.calls for name, st in self.stats.items()}
