"""Benchmark of the mscgossip package: one command, one workload per run.

    python3 bench/run.py --workload gossip-check --seed 1 --seconds 36 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
same checkout.  Each workload is a closed loop with one client: the next op
starts when the previous one has returned.  The loop runs whole rounds over
the seeded corpus, at least ``min_rounds`` of them, and starts no further
round that would end after ``--seconds``.  Every op is thus timed once per
round, and its latency is the fastest of those times.

The host this was tuned on slows its vCPUs by up to half for minutes at a
time, so wall time alone does not repeat from one run to the next.  A fixed
pure-Python task, the reference, is timed between every two ops and around
every set-up, and each time is scaled by the reference's nominal time over
its measured times next to it: ``setup_s`` and the latencies are seconds at
the reference's nominal speed.  The record line also holds the unscaled wall
times.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of one traced
round, and the spans are written to ``bench/out/``.  The line before it is
the full record: provenance, every metric, sample counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

# string hashing decides dict and set layouts, so the hash seed is pinned for
# two runs of one seed to execute the same program; no bytecode is written,
# so in a fresh checkout every set-up compiles the package, on every run
PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("msc", "paths", "cfm", "constructions", "tl", "impossibility", "corpus", "cli")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# stop adding rounds after this long, so a slow machine still exits in time
MAX_LOOP_SECONDS = 120.0
REFERENCE_N = 3000
# the reference's fastest time on the 2-vCPU host the bounds were set on, so
# that scaled times read as seconds on that host when it is not slowed down
REFERENCE_S = 0.0007
# an op is scaled by the fastest reference run within this many ops of it
REFERENCE_WINDOW = 2
# reference runs just before and just after each set-up
SETUP_REFERENCE_RUNS = 5


def load_package() -> SimpleNamespace:
    """Import the package afresh, as a new CLI process would."""
    for name in [n for n in sys.modules if n == "mscgossip" or n.startswith("mscgossip.")]:
        del sys.modules[name]
    importlib.import_module("mscgossip")
    return SimpleNamespace(**{m: sys.modules[f"mscgossip.{m}"] for m in MODULES})


def seeded_inputs(workload, pkg, seed: int, size):
    """The workload's ops and reference answers; a string seed hashes stably."""
    return workload.build(pkg, random.Random(f"{workload.name}:{seed}"), size)


def set_up(workload, seed: int, size):
    """Import, seeded inputs and their reference answers: what setup_s times."""
    pkg = load_package()
    return pkg, seeded_inputs(workload, pkg, seed, size)


def reference_work() -> int:
    """The reference: fixed work independent of the package, of the kind
    the package does (tuple keys, dict and set updates, calls)."""
    counts: dict = {}
    seen = set()
    for i in range(REFERENCE_N):
        key = (i % 53, i % 7)
        counts[key] = counts.get(key, 0) + 1
        if i % 3:
            seen.add(key)
    return len(counts) + len(seen)


def reference_time() -> float:
    """Wall time of one run of the reference."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def run_op(workload, pkg, op, errors: list) -> "workloads.Outcome":
    try:
        return workload.run(pkg, op)
    except Exception:  # the loop must go on; the op counts as failed
        if not errors:
            errors.append(traceback.format_exc())
        return workloads.Outcome(False)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def timed_rounds(workload, pkg, ops, seconds: float, min_rounds: int):
    """Closed loop over whole rounds; each op's fastest latency, round rates.

    The reference runs before the first op and after every op.  Each op's
    time is scaled by the nominal over the measured time of the reference,
    taken as the fastest of its runs within ``REFERENCE_WINDOW`` ops either
    side.  Host noise only ever slows work down, so the fastest of an op's
    rounds is its steadiest latency, and every metric of the loop derives
    from it.
    """
    best = [math.inf] * len(ops)
    wall = [math.inf] * len(ops)
    rates, references, errors = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        times, refs = [], [reference_time()]
        for op in ops:
            t0 = time.perf_counter()
            outcome = run_op(workload, pkg, op, errors)
            times.append(time.perf_counter() - t0)
            refs.append(reference_time())
            attempted += 1
            failed += not outcome.correct
        for i, t in enumerate(times):
            ref = min(refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 2])
            best[i] = min(best[i], t * REFERENCE_S / ref)
            wall[i] = min(wall[i], t)
        references += refs
        now = time.perf_counter()
        rates.append(len(ops) / sum(times))  # without the reference runs
        elapsed = now - start
        if elapsed >= MAX_LOOP_SECONDS:
            break
        if len(rates) >= min_rounds and elapsed + (now - t_round) > seconds:
            break
    return SimpleNamespace(
        best=best, rate=len(ops) / sum(best), wall=wall, rates=rates,
        references=references, attempted=attempted, failed=failed, errors=errors,
        seconds=time.perf_counter() - start,
    )


def scaled_set_up(workload, seed: int, size):
    """One set-up, its wall time and its time scaled by the reference.

    setup_s is a median over set-ups, so each is scaled by the median of
    the reference runs around it, as an op's fastest round is scaled by
    the fastest reference run near it.
    """
    refs = [reference_time() for _ in range(SETUP_REFERENCE_RUNS)]
    t0 = time.perf_counter()
    pkg, ops = set_up(workload, seed, size)
    t = time.perf_counter() - t0
    refs += [reference_time() for _ in range(SETUP_REFERENCE_RUNS)]
    return pkg, ops, t, t * REFERENCE_S / statistics.median(refs)


def end_to_end(workload, seed: int, seconds: float, size) -> tuple[dict, dict, dict]:
    setups, wall_setups = [], []
    for _ in range(size.setup_repeats):
        pkg, ops, wall_s, scaled_s = scaled_set_up(workload, seed, size)
        setups.append(scaled_s)
        wall_setups.append(wall_s)
    loop = timed_rounds(workload, pkg, ops, seconds, size.min_rounds)
    lat = sorted(loop.best)
    wall = sorted(loop.wall)
    beyond_p90 = len(lat) - math.ceil(0.9 * len(lat))
    error_rate = loop.failed / loop.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # one round at every op's fastest scaled latency
        "ops_per_s": (loop.rate, "ops/s"),
        "op_p50_ms": (1000 * percentile(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "success_rate": (1 - error_rate, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "error_rate": {"value": error_rate, "unit": "ratio"},
        "ops_per_round": len(ops),
        "rounds": len(loop.rates),
        "round_rates": loop.rates,
        "samples": len(lat),  # one per op: its fastest round
        "samples_beyond_p90": beyond_p90,
        "p90_valid": beyond_p90 >= 10,
        "loop_seconds": loop.seconds,
        "setup_repeats": setups,
        "reference_s": REFERENCE_S,
        "reference_median_s": statistics.median(loop.references),
        # the same figures in unscaled wall time
        "wall": {
            "setup_s": statistics.median(wall_setups),
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_ms": 1000 * percentile(wall, 0.5),
            "op_p90_ms": 1000 * percentile(wall, 0.9),
        },
        "first_error": loop.errors[0] if loop.errors else None,
    }
    return metrics, detail, {"attempted": loop.attempted, "failed": loop.failed}


def traced(workload, seed: int, seconds: float, size) -> tuple[dict, dict, dict]:
    """Untraced rounds for half the time, then one traced set-up and round."""
    pkg, ops = set_up(workload, seed, size)
    plain = timed_rounds(workload, pkg, ops, seconds / 2, 1)

    tracer = tracing.Tracer()
    tracing.install(tracer, pkg)
    with tracer.span("setup"):
        traced_ops = seeded_inputs(workload, pkg, seed, size)
    errors: list = []
    outcomes = []
    t0 = time.perf_counter()
    for i, op in enumerate(traced_ops, 1):
        tracer.current_op = i
        with tracer.span("op"):
            outcomes.append(run_op(workload, pkg, op, errors))
    traced_rate = len(traced_ops) / (time.perf_counter() - t0)
    tracer.current_op = 0

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload.name}-seed{seed}.json.gz"
    tracer.write(trace_file)

    metrics = per_layer(tracer, outcomes)
    # one traced round against a typical untraced round, not against the
    # fastest latencies, which a single round does not have
    untraced_rate = statistics.median(plain.rates)
    metrics["trace.ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1, "ratio")
    attempted = plain.attempted + len(outcomes)
    failed = sum(not o.correct for o in outcomes) + plain.failed
    detail = {
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "untraced_ops_per_s": untraced_rate,
        "traced_ops": len(traced_ops),
        "spans": len(tracer.name),
        "trace_file": str(trace_file.relative_to(ROOT)),
        "first_error": (plain.errors + errors or [None])[0],
    }
    return metrics, detail, {"attempted": attempted, "failed": failed}


CALL_COUNTS = (
    "msc.linearize", "msc.last_on_process", "msc.mirror_msc", "paths.eval_path",
    "constructions.last_theta", "constructions.first_theta",
    "constructions.fixpoint_bits", "constructions.preorder_bits",
    "cfm.find_accepting_run", "cfm.attach_annotation", "cfm.detach_annotation",
    "tl.compile_tl", "tl.annotate", "tl.eval_tl",
)
SELF_TIMES = (
    "msc.linearize", "msc.msc_from_json", "msc.last_on_process", "paths.eval_path",
    "constructions.last_theta", "constructions.first_theta",
    "constructions.fixpoint_bits", "constructions.preorder_bits",
    "constructions.build_gossip_cfm", "constructions.core_step",
    "cfm.find_accepting_run", "tl.compile_tl", "tl.annotate", "tl.eval_tl",
)


def per_layer(tracer: "tracing.Tracer", outcomes) -> dict:
    totals = tracer.totals()
    empty = {"spans": 0, "total_s": 0.0, "self_s": 0.0}

    def get(name):
        return totals.get(name, empty)

    metrics = {}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = (get(name)["spans"], "count")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (get(name)["self_s"], "s")
    core = tracing.CORE_STEP
    metrics[f"{core}.calls"] = (tracer.counts[f"{core}.calls"], "count")
    metrics[f"{core}.moves"] = (tracer.counts[f"{core}.moves"], "count")
    metrics["paths.oracle.self_s"] = (
        sum(get(name)["self_s"] for name in tracing.PATH_ORACLE), "s")

    nodes = sum(o.nodes for o in outcomes)
    search_s = get("cfm.find_accepting_run")["total_s"]
    accepted = [o for o in outcomes if o.accepted]
    accepted_nodes = sum(o.nodes for o in accepted)
    metrics["cfm.search.nodes"] = (nodes, "count")
    metrics["cfm.search.nodes_per_s"] = (nodes / search_s if search_s else 0.0, "1/s")
    metrics["cfm.search.useful_ratio"] = (
        sum(o.run_length for o in accepted) / accepted_nodes if accepted_nodes else 0.0,
        "ratio")
    return metrics


def commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository."""
    try:
        # the ceiling keeps git from finding a repository above the checkout
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few small inputs, for the smoke test")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.FULL if args.size == "full" else workloads.TINY
    measure = traced if args.trace else end_to_end
    metrics, detail, counts = measure(workload, args.seed, args.seconds, size)

    provenance = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": workload.name,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "search_budget": workload.budget,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"provenance": provenance, **detail, "metrics": printed}))
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": printed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
