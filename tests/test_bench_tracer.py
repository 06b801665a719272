"""The bench tracer wraps package functions by name from outside the
package; these checks fail when a refactor removes or renames one."""

import importlib.util
import inspect
from pathlib import Path

import mscgossip
from mscgossip import constructions, tl

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_on_the_package():
    tracing = _load_tracing()
    for modname, attr in tracing.CALL_TARGETS:
        assert callable(getattr(getattr(mscgossip, modname), attr)), (modname, attr)
    for cls_name, meth in tracing.CORE_STEPS:
        assert inspect.isgeneratorfunction(getattr(getattr(constructions, cls_name), meth))
    # the tracer re-calls the constructor with these positional parameters
    params = list(inspect.signature(tl._TlMachine.__init__).parameters)
    assert params == ["self", "phi", "sig", "starts", "step_fn", "final_ok", "annotate_fn"]
