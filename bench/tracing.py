"""Span tracing of the package's public functions, installed from outside.

The tracer replaces each traced function at every module binding that holds
it (``linearize`` is bound in ``msc``, ``constructions``, ``cfm`` and
``impossibility``; ``Msc._anc`` reaches it through the ``msc`` global), so
every call path is seen without editing the package.  Spans are kept in
memory as flat arrays and written out once, at the end of the run.

A span records its name, start, end, parent span and op id.  Self time is a
span's duration minus the time covered by its direct children; spans nest
strictly because everything runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute) pairs traced as plain calls; the metric prefix is the
# module's short name.
CALL_TARGETS = (
    ("msc", "linearize"),
    ("msc", "msc_from_json"),
    ("msc", "last_on_process"),
    ("msc", "mirror_msc"),
    ("paths", "eval_path"),
    ("paths", "last"),
    ("paths", "first"),
    ("paths", "f_pair"),
    ("constructions", "last_theta"),
    ("constructions", "first_theta"),
    ("constructions", "fixpoint_bits"),
    ("constructions", "preorder_bits"),
    ("constructions", "build_gossip_cfm"),
    ("cfm", "find_accepting_run"),
    ("cfm", "attach_annotation"),
    ("cfm", "detach_annotation"),
    ("tl", "compile_tl"),
    ("tl", "eval_tl"),
)

# Core step generators, timed per resume and reported together.
CORE_STEPS = (
    ("LastCore", "step"),
    ("FirstCore", "step"),
    ("FixCore", "step_with_bit"),
)
CORE_STEP = "constructions.core_step"
TL_ANNOTATE = "tl.annotate"
PATH_ORACLE = ("paths.last", "paths.first", "paths.f_pair")


class Tracer:
    """In-memory span store plus plain counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self.current_op = 0
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.intern(name))

    # -- aggregation -------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: number of spans, inclusive and self seconds."""
        n = len(self.name)
        child = [0] * n
        for sid in range(n):
            par = self.parent[sid]
            if par >= 0:
                child[par] += self.end[sid] - self.start[sid]
        out = {name: {"spans": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            rec = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            rec["spans"] += 1
            rec["total_s"] += dur / 1e9
            rec["self_s"] += (dur - child[sid]) / 1e9
        return out

    def write(self, path) -> None:
        """Spans as columns: name index, op id, parent span, start/end in ns."""
        obj = {
            "names": self.names,
            "columns": ["name", "op", "parent", "start_ns", "end_ns"],
            "spans": [list(self.name), list(self.op), list(self.parent),
                      list(self.start), list(self.end)],
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(obj, fh)


class _Span:
    __slots__ = ("tracer", "nid", "sid")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.sid = self.tracer.begin(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.finish(self.sid)
        return False


def _traced_call(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.finish(sid)

    return traced


def _traced_generator(tracer: Tracer, name: str, fn):
    """Count invocations and yielded moves; time each resume as a span."""
    nid = tracer.intern(name)
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        counts[name + ".calls"] += 1
        gen = fn(*args, **kwargs)
        try:
            while True:
                sid = tracer.begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.finish(sid)
                counts[name + ".moves"] += 1
                yield item
        finally:
            gen.close()

    return traced


def _rebind(original, replacement) -> int:
    """Point every package-module binding of ``original`` at ``replacement``."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if modname != "mscgossip" and not modname.startswith("mscgossip."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer, pkg) -> None:
    """Wrap the traced functions of the already imported package ``pkg``."""
    for modname, attr in CALL_TARGETS:
        mod = getattr(pkg, modname)
        original = getattr(mod, attr)
        if not _rebind(original, _traced_call(tracer, f"{modname}.{attr}", original)):
            raise RuntimeError(f"{modname}.{attr} has no module binding to trace")
    for cls_name, meth in CORE_STEPS:
        cls = getattr(pkg.constructions, cls_name)
        setattr(cls, meth, _traced_generator(tracer, CORE_STEP, getattr(cls, meth)))

    # _TlMachine keeps its annotation function in a closure; wrapping the
    # constructor argument sees every real annotation pass (cache misses),
    # including the top-level one that decide() calls.
    machine_cls = pkg.tl._TlMachine
    original_init = machine_cls.__init__

    def init(self, phi, sig, starts, step_fn, final_ok, annotate_fn):
        original_init(self, phi, sig, starts, step_fn, final_ok,
                      _traced_call(tracer, TL_ANNOTATE, annotate_fn))

    machine_cls.__init__ = init
