"""The library names and calls that the benchmark in bench/ relies on.

The benchmark files are kept unchanged between runs, so a library change
that renames a traced function or a parameter a workload passes breaks the
benchmark, not the library's own tests. These tests catch that here: every
tracer target must resolve (three are known to be stale), and each
workload must set up and run one checked op in this process. They write
no benchmark output.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# tracer targets the library no longer has, tolerated by the CI bench smoke
STALE_TARGETS = {"fppoly.resultant", "nf.Ideal.mul_element", "intlattice.bareiss_det"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    # the attribute walk of Tracer.install: module, then each dotted part
    missing = []
    for name, modname, path, _ in _load("tracer").TARGETS:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(name)
    assert set(missing) <= STALE_TARGETS, sorted(set(missing) - STALE_TARGETS)


@pytest.mark.parametrize("name", ["switch32", "decide48", "primes_quad"])
def test_each_workload_runs_one_checked_op(name):
    wl = _load("workloads").WORKLOADS[name]()
    wl.setup(1)
    wl.start_pass()
    inp = wl.input(0)
    outs = [wl.op(inp)]
    assert wl.check([inp], outs) == []
    assert wl.counts(outs)
