"""Regenerate the gossip baseline table: decide against the oracle on a k × n grid.

    python3 bench/baseline.py                       # k = 2..5, n ≈ 10, 50, 250
    python3 bench/baseline.py --k 3 4 --n 50

For each cell one seeded ``random_msc`` of about n events is decided once
with ``build_gossip_cfm(sig).decide(oracle_gossip_annotation(m))``; the
table gives the number of gossip paths from p1 to p2, the event count and
the time of the decide and of the oracle.  The k = 5, n ≈ 250 cell takes
minutes at the seed commit.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from mscgossip import constructions, corpus, msc, paths  # noqa: E402
from workloads import sized_msc  # noqa: E402

SEED = 1


def cell(k: int, n: int) -> dict:
    sig = msc.SystemSignature(tuple(f"p{i}" for i in range(1, k + 1)), ("a", "b"))
    pkg = SimpleNamespace(corpus=corpus)
    m = sized_msc(pkg, sig, random.Random(f"baseline:{k}:{n}:{SEED}"), n, max(2, n // 10))
    t0 = time.perf_counter()
    ext = constructions.oracle_gossip_annotation(m)
    t1 = time.perf_counter()
    if not constructions.build_gossip_cfm(sig).decide(ext):
        raise RuntimeError(f"decide rejected the oracle annotation at k={k}, n={n}")
    t2 = time.perf_counter()
    return {
        "k": k,
        "gossip_paths": len(paths.gossip_paths_between(sig, "p1", "p2")) if k > 1 else 0,
        "events": len(m.events),
        "decide_s": t2 - t1,
        "oracle_s": t1 - t0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3, 4, 5])
    ap.add_argument("--n", type=int, nargs="+", default=[10, 50, 250])
    args = ap.parse_args(argv)

    print("| k | |gossip paths p1→p2| | n events | decide | oracle |")
    print("|---|---|---|---|---|")
    rows = []
    for k in args.k:
        for n in args.n:
            row = cell(k, n)
            rows.append(row)
            print(f"| {k} | {row['gossip_paths']} | {row['events']} "
                  f"| {row['decide_s']:.3g} s | {1000 * row['oracle_s']:.3g} ms |", flush=True)
    print(json.dumps({"seed": SEED, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
