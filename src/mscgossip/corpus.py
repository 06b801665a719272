"""Generation of MSC corpora: seeded random sampling and exhaustive enumeration.

Random MSCs are built by simulating a scheduler: at each step a process either
performs a local event, sends, or receives a pending message.  Every sent
message is eventually received, so the result is a valid MSC by construction.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Optional

from .msc import Msc, SystemSignature


def random_msc(
    sig: SystemSignature,
    rng: random.Random,
    max_events_per_proc: int = 4,
    p_send: float = 0.5,
    p_recv: float = 0.35,
) -> Msc:
    """One random valid MSC with at most max_events_per_proc events per process."""
    procs = sig.processes
    counts = {p: 0 for p in procs}
    per_proc: dict[str, list[tuple[str, str, object]]] = {p: [] for p in procs}
    pending: dict[tuple[str, str], list[str]] = {}  # channel -> queued send ids
    messages: list[tuple[str, str]] = []
    serial = itertools.count()

    def fresh(p: str) -> str:
        return f"{p}{next(serial)}"

    budget = {p: rng.randint(0, max_events_per_proc) for p in procs}
    while True:
        # receives of pending messages do not count against the budget:
        # they are forced at the end so every send is matched.
        open_procs = [p for p in procs if counts[p] < budget[p]]
        if not open_procs:
            break
        p = rng.choice(open_procs)
        roll = rng.random()
        others = [q for q in procs if q != p]
        inbound = [(q, p) for q in others if pending.get((q, p))]
        e = fresh(p)
        if roll < p_recv and inbound:
            chan = rng.choice(inbound)
            s = pending[chan].pop(0)
            per_proc[p].append((e, p, rng.choice(sig.alphabet)))
            messages.append((s, e))
        elif roll < p_recv + p_send and others:
            q = rng.choice(others)
            per_proc[p].append((e, p, rng.choice(sig.alphabet)))
            pending.setdefault((p, q), []).append(e)
        else:
            per_proc[p].append((e, p, rng.choice(sig.alphabet)))
        counts[p] += 1

    # drain unmatched sends with extra receives (FIFO order per channel)
    for (src, dst), sends in pending.items():
        for s in sends:
            e = fresh(dst)
            per_proc[dst].append((e, dst, rng.choice(sig.alphabet)))
            messages.append((s, e))

    events = [rec for p in procs for rec in per_proc[p]]
    return Msc(sig, events, messages)


def random_corpus(
    sig: SystemSignature,
    count: int,
    seed: int,
    max_events_per_proc: int = 4,
) -> list[Msc]:
    rng = random.Random(seed)
    return [random_msc(sig, rng, max_events_per_proc) for _ in range(count)]


def enumerate_mscs(
    sig: SystemSignature,
    max_events: int,
    max_labelings: Optional[int] = None,
) -> Iterator[Msc]:
    """All MSC shapes with at most max_events events, each with all labelings.

    Shapes are enumerated by choosing how many events each process has, which
    events are send/receive, and a FIFO-respecting matching; labelings are the
    full product over the alphabet (capped at max_labelings per shape).
    """
    for shape_events, messages in _enumerate_shapes(sig, max_events):
        labelings = itertools.product(sig.alphabet, repeat=len(shape_events))
        if max_labelings is not None:
            labelings = itertools.islice(labelings, max_labelings)
        for labels in labelings:
            events = [
                (eid, proc, lab) for (eid, proc), lab in zip(shape_events, labels)
            ]
            yield Msc(sig, events, messages)


def _enumerate_shapes(sig: SystemSignature, max_events: int):
    """Yield (events_without_labels, messages) for every valid shape."""
    procs = sig.processes
    for sizes in _compositions(len(procs), max_events):
        shape_events = []
        for p, k in zip(procs, sizes):
            shape_events.extend((f"{p}{i}", p) for i in range(k))
        ids = [e for e, _ in shape_events]
        loc = dict(shape_events)
        yield from _matchings(procs, ids, loc, shape_events)


def _compositions(k: int, total_max: int):
    """All tuples of k counts with sum between 0 and total_max."""
    if k == 0:
        yield ()
        return
    for head in range(total_max + 1):
        for tail in _compositions(k - 1, total_max - head):
            yield (head,) + tail


def _matchings(procs, ids, loc, shape_events):
    """All ways to pair up some events into FIFO-consistent, acyclic messages."""
    from .msc import is_valid

    n = len(ids)
    # choose a set of (send, recv) pairs over distinct events on distinct procs
    def extend(start: int, used: set[str], acc: list[tuple[str, str]]):
        yield shape_events, list(acc)
        for i in range(start, n):
            s = ids[i]
            if s in used:
                continue
            for r in ids:
                if r in used or r == s or loc[r] == loc[s]:
                    continue
                acc.append((s, r))
                used.update((s, r))
                cand = Msc(
                    SystemSignature(tuple(procs), ("x",)),
                    [(e, p, "x") for e, p in shape_events],
                    acc,
                )
                if is_valid(cand):
                    yield from extend(i + 1, used, acc)
                used.difference_update((s, r))
                acc.pop()

    yield from extend(0, set(), [])

