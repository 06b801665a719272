"""The bench's own correctness checks, run in-process at its tiny size: every
op of every workload, built with seed 1 as ``bench/run.py`` builds it, must
get its reference answer, so a package change that breaks a bench op fails
here rather than only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_run():
    """bench/run.py, whose import puts bench/ on sys.path and imports its
    siblings by their plain names; both are undone for the rest of the test run."""
    path, held = list(sys.path), {n: sys.modules.get(n) for n in ("tracing", "workloads")}
    try:
        return _load("run")
    finally:
        sys.path[:] = path
        for name, module in held.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


RUN = _load_run()
WORKLOADS = _load("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_every_tiny_bench_op_is_answered_correctly(name):
    # the package as already imported: run.load_package would import it
    # afresh and leave the other tests' classes stale
    pkg = SimpleNamespace(**{m: importlib.import_module(f"mscgossip.{m}") for m in RUN.MODULES})
    workload = WORKLOADS.WORKLOADS[name]
    ops = RUN.seeded_inputs(workload, pkg, 1, WORKLOADS.TINY)
    assert ops
    wrong = [op.stratum for op in ops if not workload.run(pkg, op).correct]
    assert not wrong, wrong
