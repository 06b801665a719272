"""The benchmark's three workloads: seeded inputs, reference answers, one op.

An op is one CLI-equivalent request.  Every op's verdict is compared with a
reference answer computed at set-up by an oracle that shares no code with
the construction chain.  Inputs are serialised at set-up and every op
rebuilds its MSC from that text, as a fresh CLI process would, so memos kept
on an ``Msc`` cannot serve one op from another.

Each workload is built from strata of fixed size and op count, at least 100
ops in all, so that ten ops lie beyond ``op_p90_ms``.  Sorted by cost, the
strata put ``op_p50_ms`` and ``op_p90_ms`` inside a stratum rather than on
the boundary between two, which keeps both percentiles steady across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

ALPHABET = ("a", "b")
THETA = ("x", "y")
# Node budget of every run-search op; no op at the seed comes near it, so a
# budget stop means the search itself changed.
SEARCH_BUDGET = 50_000
# gossip cost grows with the event count; a tight window keeps each stratum's
# cost, and so p50 and p90, the same across seeds
GOSSIP_SLACK = 1


@dataclass(frozen=True)
class Size:
    """Corpus shape and sampling of one benchmark size."""

    setup_repeats: int  # setup_s is the median of this many set-ups
    min_rounds: int  # rounds over the corpus a run needs before it may stop
    gossip_strata: tuple[tuple[int, int, int], ...]  # (processes, events, ops)
    tl_temporal: tuple[int, ...]  # number of S/U operators per formula
    tl_per_stratum: int
    tl_events: tuple[int, ...]
    search_label_events: tuple[int, int]  # inclusive range, 2 processes
    search_fix_events: int  # every 2-process shape of exactly this size
    search_universal: tuple[int, int]  # (processes, events)


FULL = Size(
    setup_repeats=7,
    min_rounds=3,
    # sorted by cost, 104 ops put p50 in the n=20 and p90 in the n=28 stratum
    gossip_strata=((3, 16, 50), (3, 20, 30), (3, 28, 20), (4, 16, 4)),
    tl_temporal=(1, 2, 3),
    tl_per_stratum=50,
    tl_events=(4, 5, 6),
    search_label_events=(6, 8),
    search_fix_events=4,
    search_universal=(3, 250),
)

TINY = Size(
    setup_repeats=2,
    min_rounds=1,
    gossip_strata=((3, 8, 2), (4, 6, 2)),
    tl_temporal=(1,),
    tl_per_stratum=2,
    tl_events=(4, 5),
    search_label_events=(4, 6),
    search_fix_events=2,
    search_universal=(3, 30),
)


@dataclass(frozen=True)
class Op:
    stratum: str
    payload: Any
    expected: bool


@dataclass
class Outcome:
    """Verdict check of one op, plus what the search reported."""

    correct: bool
    nodes: int = 0
    run_length: int = 0
    accepted: bool = False


def sized_msc(pkg, sig, rng, events: int, slack: int):
    """A seeded random MSC whose event count is within ``slack`` of ``events``."""
    procs = len(sig.processes)
    # random_msc yields about 0.75 * processes * max_events_per_proc events
    per_proc = max(1, round(events / (0.75 * procs)))
    while True:
        m = pkg.corpus.random_msc(sig, rng, per_proc)
        if abs(len(m.events) - events) <= slack:
            return m


def _signature(pkg, procs):
    return pkg.msc.SystemSignature(tuple(procs), ALPHABET)


# ---------------------------------------------------------------------------
# gossip-check: what `mscgossip gossip check FILE` does
# ---------------------------------------------------------------------------


def build_gossip(pkg, rng, size: Size) -> list[Op]:
    ops = []
    for k, events, count in size.gossip_strata:
        sig = _signature(pkg, [f"p{i}" for i in range(1, k + 1)])
        for j in range(count):
            m = sized_msc(pkg, sig, rng, events, GOSSIP_SLACK)
            annot = dict(pkg.constructions.oracle_gossip_annotation(m).annot)
            mutate = j % 2 == 1
            if mutate:
                e = rng.choice(m.events)
                i = rng.randrange(k)
                wrong = [v for v in ALPHABET + (None,) if v != annot[e][i]]
                annot[e] = annot[e][:i] + (rng.choice(wrong),) + annot[e][i + 1:]
            text = json.dumps(
                pkg.msc.msc_to_json(m, {e: list(v) for e, v in annot.items()})
            )
            ops.append(Op(f"k{k}-n{events}", text, not mutate))
    rng.shuffle(ops)
    return ops


def run_gossip(pkg, op: Op) -> Outcome:
    ext = pkg.msc.extended_msc_from_json(json.loads(op.payload))
    # JSON has no tuples; the CLI turns annotation lists back into tuples
    annot = {e: tuple(v) if isinstance(v, list) else v for e, v in ext.annot.items()}
    ext = pkg.msc.ExtendedMsc(ext.base, annot)
    machine = pkg.constructions.build_gossip_cfm(ext.base.signature)
    return Outcome(machine.decide(ext) == op.expected)


# ---------------------------------------------------------------------------
# tl-check: what `mscgossip tl check FILE --formula F` does
# ---------------------------------------------------------------------------


def random_formula(tl, rng, depth: int):
    """The acceptance suite's formula grammar: a, b, @p, @q with ! | & S U."""
    leaves = [tl.Atom("a"), tl.Atom("b"), tl.Proc("p"), tl.Proc("q")]
    if depth == 0:
        return rng.choice(leaves)
    k = rng.randrange(6)
    if k == 0:
        return rng.choice(leaves)
    if k == 1:
        return tl.Not(random_formula(tl, rng, depth - 1))
    binary = (tl.Or, tl.And, tl.Since, tl.Until)[k - 2]
    return binary(random_formula(tl, rng, depth - 1), random_formula(tl, rng, depth - 1))


def temporal_count(tl, phi) -> int:
    own = 1 if isinstance(phi, (tl.Since, tl.Until)) else 0
    return own + sum(
        temporal_count(tl, getattr(phi, f))
        for f in ("sub", "left", "right")
        if hasattr(phi, f)
    )


def build_tl(pkg, rng, size: Size) -> list[Op]:
    tl = pkg.tl
    sig = _signature(pkg, ["p", "q"])
    ops = []
    for t in size.tl_temporal:
        for j in range(size.tl_per_stratum):
            while True:
                phi = random_formula(tl, rng, rng.randrange(1, 4))
                if temporal_count(tl, phi) == t:
                    break
            text = tl.format_tl(phi)
            if tl.parse_tl(text) != phi:
                raise RuntimeError(f"formula {text!r} does not survive a round trip")
            events = size.tl_events[j % len(size.tl_events)]
            m = sized_msc(pkg, sig, rng, events, 0)
            # criterion 7: the translation is correct, so check_translation
            # must report ok; eval_tl, the oracle, runs inside the op
            ops.append(Op(f"temporal{t}", (text, json.dumps(pkg.msc.msc_to_json(m))), True))
    rng.shuffle(ops)
    return ops


def run_tl(pkg, op: Op) -> Outcome:
    text, msc_text = op.payload
    m = pkg.msc.msc_from_json(json.loads(msc_text))
    ok, _ = pkg.tl.check_translation(pkg.tl.parse_tl(text), m)
    return Outcome(ok == op.expected)


# ---------------------------------------------------------------------------
# run-search: what `mscgossip cfm run CFM MSC --budget B` does
# ---------------------------------------------------------------------------

GOSSIP_PQ = "->* msg(p,q) ->*"  # the p-to-q gossip path of two processes


def _label_machine(pkg, stratum: str):
    c, paths = pkg.constructions, pkg.paths
    sig = _signature(pkg, ["p", "q"])
    if stratum == "first-label":
        return c.build_first_label_cfm(THETA, paths.parse_path(GOSSIP_PQ, sig))
    if stratum == "fa-label":
        return c.build_fa_label_cfm(THETA, "q", "q", paths.PLUS, paths.STAR, sig)
    # the (π, →*π) fixpoint component of the preorder machine for p to q
    pi = paths.parse_path(GOSSIP_PQ, sig)
    return c.build_fixpoint_cfm("p", "q", pi, paths.star_prepend(pi))


def _oracle_value(pkg, g, xi1):
    """ξ1 at an event, or the sentinel itself."""
    return g if g is pkg.msc.BOTTOM or g is pkg.msc.TOP else xi1[g]


def _label_instance(pkg, rng, stratum: str, m, mutate: bool):
    """The oracle annotation of a first- or fa-label machine, maybe with one error."""
    paths, msc = pkg.paths, pkg.msc
    xi1 = {e: rng.choice(THETA) for e in m.events}
    if stratum == "first-label":
        pi = paths.parse_path(GOSSIP_PQ, m.signature)
        annot = {e: (xi1[e], _oracle_value(pkg, paths.first(m, pi, e), xi1)) for e in m.events}
        choices, wrong = list(m.events), THETA + (msc.TOP,)
    else:
        # the fa-label machine checks q-events only; elsewhere ξ2 copies ξ1
        annot = {e: (xi1[e], xi1[e]) for e in m.events}
        for e in m.events_of("q"):
            g = paths.f_pair(m, paths.PLUS, paths.STAR, e)
            annot[e] = (xi1[e], _oracle_value(pkg, g, xi1))
        choices, wrong = list(m.events_of("q")), THETA + (msc.BOTTOM, msc.TOP)
    if mutate:
        e = rng.choice(choices)
        first, second = annot[e]
        annot[e] = (first, rng.choice([v for v in wrong if v != second]))
    return annot


def _fixpoint_ops(pkg, rng, events: int) -> list[Op]:
    """Every 2-process shape with ``events`` events and a q-event, seeded
    labels, the oracle bits and each of their single-bit errors on q.

    Search cost is heavy-tailed in the shape and in where the error sits;
    covering all of them keeps the stratum's cost the same for every seed.
    """
    paths, msc = pkg.paths, pkg.msc
    sig = _signature(pkg, ["p", "q"])
    pi = paths.parse_path(GOSSIP_PQ, sig)
    pi2 = paths.star_prepend(pi)
    ops = []
    for shape in pkg.corpus.enumerate_mscs(sig, events, max_labelings=1):
        if len(shape.events) != events or not shape.events_of("q"):
            continue
        m = msc.Msc(sig, [(e, shape.loc[e], rng.choice(ALPHABET)) for e in shape.events],
                    shape.msg)
        text = json.dumps(msc.msc_to_json(m))
        bits = {e: 0 for e in m.events}
        for e in m.events_of("q"):
            bits[e] = 1 if paths.f_pair(m, pi, pi2, e) == e else 0
        ops.append(Op("fixpoint", (text, bits), True))
        for e in m.events_of("q"):
            ops.append(Op("fixpoint", (text, {**bits, e: 1 - bits[e]}), False))
    return ops


def build_search(pkg, rng, size: Size) -> list[Op]:
    ops = _fixpoint_ops(pkg, rng, size.search_fix_events)
    # The fixpoint stratum is the same for every seed up to its labels, and
    # its costliest ops are the costliest of the workload.  Giving each of
    # the other strata a third as many ops puts op_p90_ms among fixpoint
    # ops of about the same cost, where it does not jump from seed to seed.
    per_stratum = max(1, len(ops) // 3)
    sig2 = _signature(pkg, ["p", "q"])
    lo, hi = size.search_label_events
    for stratum in ("first-label", "fa-label"):
        for j in range(per_stratum):
            while True:
                m = sized_msc(pkg, sig2, rng, (lo + hi) // 2, (hi - lo + 1) // 2)
                if m.events_of("q"):
                    break
            annot = _label_instance(pkg, rng, stratum, m, mutate=j % 2 == 1)
            ops.append(Op(stratum, (json.dumps(pkg.msc.msc_to_json(m)), annot), j % 2 == 0))
    k, events = size.search_universal
    sigk = _signature(pkg, [f"p{i}" for i in range(1, k + 1)])
    for _ in range(per_stratum):
        m = sized_msc(pkg, sigk, rng, events, max(2, events // 25))
        # the universal machine accepts every MSC over its signature
        ops.append(Op("universal", (json.dumps(pkg.msc.msc_to_json(m)), None), True))
    rng.shuffle(ops)
    return ops


def run_search(pkg, op: Op) -> Outcome:
    text, annot = op.payload
    m = pkg.msc.msc_from_json(json.loads(text))
    if op.stratum == "universal":
        machine, target = pkg.cfm.universal_cfm(m.signature), m
    else:
        machine = _label_machine(pkg, op.stratum)
        target = pkg.cfm.attach_annotation(pkg.msc.ExtendedMsc(m, annot))
    stats: dict = {}
    try:
        run = pkg.cfm.find_accepting_run(machine, target, budget=SEARCH_BUDGET, stats=stats)
    except pkg.cfm.BudgetExhausted:
        return Outcome(False, nodes=stats["visited"])
    nodes = stats["visited"]
    if run is None:
        return Outcome(not op.expected, nodes=nodes)
    complete = len(run.assignment) == len(target.events)
    return Outcome(op.expected and complete, nodes, len(run.assignment), True)


@dataclass(frozen=True)
class Workload:
    name: str
    build: Any
    run: Any
    budget: Optional[int] = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gossip-check", build_gossip, run_gossip),
        Workload("tl-check", build_tl, run_tl),
        Workload("run-search", build_search, run_search, SEARCH_BUDGET),
    )
}
