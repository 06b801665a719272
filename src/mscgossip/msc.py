"""Message sequence charts: data model, validation, causal order, structure ops.

An MSC is a finite partially ordered execution: per-process total orders of
events, plus matched send/receive pairs over point-to-point FIFO channels.
Event identifiers are opaque strings; the per-process order is the order in
which events are listed, and the direct-successor relation is derived from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Optional


class _Sentinel:
    """Extremal element adjoined to the causal order (below or above all events)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __deepcopy__(self, memo):
        return self


#: Below every event; also used as the "no such event" label value.
BOTTOM = _Sentinel("BOTTOM")
#: Above every event.
TOP = _Sentinel("TOP")

Label = Hashable
ExtEvent = Any  # event id, BOTTOM, or TOP


class MscError(ValueError):
    """Raised on malformed input (unknown ids, bad references)."""


@dataclass(frozen=True)
class SystemSignature:
    """The fixed system: ordered process identifiers and ordered action labels."""

    processes: tuple[str, ...]
    alphabet: tuple[Label, ...]

    def __post_init__(self):
        if not self.processes or len(set(self.processes)) != len(self.processes):
            raise MscError("processes must be nonempty and duplicate-free")
        if not self.alphabet or len(set(self.alphabet)) != len(self.alphabet):
            raise MscError("alphabet must be nonempty and duplicate-free")
        if BOTTOM in self.alphabet or TOP in self.alphabet:
            raise MscError("sentinels cannot be alphabet members")

    def proc_index(self, p: str) -> int:
        try:
            return self.processes.index(p)
        except ValueError:
            raise MscError(f"unknown process {p!r}") from None


class Msc:
    """An MSC over a signature.

    Construction is permissive: ``validate_msc`` reports axiom violations
    instead of raising, so malformed inputs can be diagnosed.  All other
    operations assume a valid MSC.  What is derived from an MSC is computed
    on first use and kept in its one memo dict, ``_caches``; an MSC is never
    changed after construction, so an MSC with other labels is a new one.
    """

    def __init__(
        self,
        signature: SystemSignature,
        events: Iterable[tuple[str, str, Label]],
        messages: Iterable[tuple[str, str]],
    ):
        self.signature = signature
        ev = tuple(events)
        # tuple([...]), not tuple(generator): CPython allocates the latter at
        # a guessed length and resizes it, and once freed it sits on the free
        # list of its final length, which only a full gc collection empties,
        # so a process reading many MSCs grew by ~3 MB
        self.events: tuple[str, ...] = tuple([e[0] for e in ev])
        self.loc: dict[str, str] = {e[0]: e[1] for e in ev}
        self.label: dict[str, Label] = {e[0]: e[2] for e in ev}
        self.msg: tuple[tuple[str, str], ...] = tuple([(s, r) for s, r in messages])
        # linearization, index, event table, events per process, pass
        # layouts, trie maps and annotations, each under its own key
        self._caches: dict[Any, Any] = {}

    # -- derived structure ------------------------------------------------

    @property
    def index(self) -> dict[str, int]:
        if "index" not in self._caches:
            self._caches["index"] = {e: i for i, e in enumerate(self.events)}
        return self._caches["index"]

    def events_of(self, p: str) -> tuple[str, ...]:
        if "per_proc" not in self._caches:
            per: dict[str, list[str]] = {q: [] for q in self.signature.processes}
            for e in self.events:
                per.setdefault(self.loc[e], []).append(e)
            self._caches["per_proc"] = {q: tuple(es) for q, es in per.items()}
        return self._caches["per_proc"].get(p, ())

    def kind_of(self, e: str) -> str:
        """'send', 'recv', or 'local'."""
        _, _, _, sender, receiver = self._links
        i = self.index[e]
        return "send" if receiver[i] >= 0 else "recv" if sender[i] >= 0 else "local"

    def peer_of(self, e: str) -> Optional[str]:
        """For a send (recv): the receiving (sending) process."""
        proc, _, _, sender, receiver = self._links
        i = self.index[e]
        j = receiver[i] if receiver[i] >= 0 else sender[i]
        return self.signature.processes[proc[j]] if j >= 0 else None

    @property
    def _links(self) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """The MSC's one event table.  Per event (in ``events`` position):
        its process's position in the signature, then the positions of its
        ⊏-predecessor, its ⊏-successor, its sender and its receiver, with -1
        for none.  On one process, position order is process order.  One
        pass over ``events`` and one over ``msg``; it assumes what
        ``validate_msc`` checks before it reads the table: event ids are
        distinct, every event is on a process of the signature, and every
        message end is an event in no other message."""
        links = self._caches.get("links")
        if links is None:
            col = {p: c for c, p in enumerate(self.signature.processes)}
            loc = self.loc
            proc = [col[loc[e]] for e in self.events]
            n = len(proc)
            pred, succ, sender, receiver = [-1] * n, [-1] * n, [-1] * n, [-1] * n
            last = [-1] * len(col)
            for i, c in enumerate(proc):
                j = last[c]
                if j >= 0:
                    pred[i], succ[j] = j, i
                last[c] = i
            idx = self.index
            for s, r in self.msg:
                i, j = idx[s], idx[r]
                sender[j], receiver[i] = i, j
            links = self._caches["links"] = (proc, pred, succ, sender, receiver)
        return links

    @property
    def _anc(self) -> list[int]:
        """Per event (in ``events`` position), bitmask of causal ancestors
        incl. itself: along ``linearize``, its own bit or'ed with the masks
        of its ⊏-predecessor and its sender, read off ``_links``."""
        if "anc" not in self._caches:
            idx = self.index
            _, pred, _, sender, _ = self._links
            anc = [0] * len(self.events)
            for e in linearize(self):
                i = idx[e]
                m = 1 << i
                p, s = pred[i], sender[i]
                if p >= 0:
                    m |= anc[p]
                if s >= 0:
                    m |= anc[s]
                anc[i] = m
            self._caches["anc"] = anc
        return self._caches["anc"]

    @property
    def causal_rows(self) -> tuple[list[int], list[int]]:
        """Per event (in ``events`` position), the bitmask of the events
        strictly below it (``_anc`` without the event itself) and of those
        strictly above it (the transpose), the bit-set form of a vector
        clock and of its dual."""
        if "rows" not in self._caches:
            below = [a ^ (1 << i) for i, a in enumerate(self._anc)]
            above = [0] * len(below)
            for j, row in enumerate(below):
                bit = 1 << j
                while row:
                    low = row & -row
                    above[low.bit_length() - 1] |= bit
                    row ^= low
            self._caches["rows"] = (below, above)
        return self._caches["rows"]


class ExtendedMsc:
    """An MSC whose events carry an extra annotation value."""

    def __init__(self, base: Msc, annot: dict[str, Any]):
        missing = [e for e in base.events if e not in annot]
        if missing:
            raise MscError(f"annotation missing for events {missing}")
        self.base = base
        self.annot = dict(annot)

    def with_annot(self, event: str, value: Any) -> "ExtendedMsc":
        new = dict(self.annot)
        new[event] = value
        return ExtendedMsc(self.base, new)


# -- validation ------------------------------------------------------------


def validate_msc(m: Msc) -> list[str]:
    """Check all MSC axioms; return a list of violations (empty iff valid)."""
    out: list[str] = []
    sig = m.signature
    seen: set[str] = set()
    for e in m.events:
        if e in seen:
            out.append(f"duplicate event id {e!r}")
        seen.add(e)
        if m.loc[e] not in sig.processes:
            out.append(f"event {e!r} on unknown process {m.loc[e]!r}")
        if m.label[e] not in sig.alphabet:
            out.append(f"event {e!r} has label {m.label[e]!r} outside the alphabet")
    endpoint_count: dict[str, int] = {}
    for s, r in m.msg:
        for x in (s, r):
            if x not in seen:
                out.append(f"message endpoint {x!r} is not an event")
            endpoint_count[x] = endpoint_count.get(x, 0) + 1
        if s in seen and r in seen and m.loc.get(s) == m.loc.get(r):
            out.append(f"message {s!r} -> {r!r} stays on one process")
    for x, n in endpoint_count.items():
        if n > 1:
            out.append(f"event {x!r} occurs in {n} message pairs")
    if out:
        return out

    # FIFO: per channel, send order must equal receive order; on one
    # process, index order is process order
    receiver, idx, events = m._links[4], m.index, m.events
    chans: dict[tuple[str, str], list[int]] = {}
    for s, r in m.msg:
        chans.setdefault((m.loc[s], m.loc[r]), []).append(idx[s])
    for (p, q), sends in chans.items():
        sends.sort()
        recvs = [receiver[i] for i in sends]
        if recvs != sorted(recvs):
            by_send = [(events[i], events[j]) for i, j in zip(sends, recvs)]
            out.append(f"FIFO violation on channel {p}->{q}: {by_send}")

    # acyclicity of ⊏ ∪ msg: linearize raises on a cycle
    try:
        linearize(m)
    except MscError:
        out.append("proc_succ ∪ msg has a cycle; ≤ is not a partial order")
    return out


def is_valid(m: Msc) -> bool:
    return not validate_msc(m)


# -- causal order and structure ops -----------------------------------------


def linearize(m: Msc) -> tuple[str, ...]:
    """Deterministic topological order of (E, <): the least by event id.

    Only the next event of each process can be ready, so the heap holds at
    most one ``(id, index)`` pair per process, read off ``m._links``.  A
    process's next event that receives a message not yet sent waits on the
    send's index, and is pushed when the send is emitted.  Computed once per
    MSC and kept in its caches; raises ``MscError`` on a cycle.
    """
    if "order" in m._caches:
        return m._caches["order"]
    events = m.events
    _, pred, succ, sender, _ = m._links
    n = len(events)
    heap: list[tuple[str, int]] = []
    waiting: dict[int, int] = {}  # send index -> its receive, a process's next event
    emitted = bytearray(n)
    for i in range(n):
        if pred[i] < 0:
            if sender[i] < 0:
                heap.append((events[i], i))
            else:
                waiting[sender[i]] = i
    heapq.heapify(heap)
    out = []
    while heap:
        e, i = heapq.heappop(heap)
        out.append(e)
        emitted[i] = 1
        if i in waiting:
            r = waiting.pop(i)
            heapq.heappush(heap, (events[r], r))
        j = succ[i]
        if j >= 0:
            s = sender[j]
            if s < 0 or emitted[s]:
                heapq.heappush(heap, (events[j], j))
            else:
                waiting[s] = j
    if len(out) != n:
        raise MscError("cannot linearize a cyclic MSC")
    m._caches["order"] = tuple(out)
    return m._caches["order"]


def causal_leq(m: Msc, e: ExtEvent, f: ExtEvent) -> bool:
    """e ≤ f under (⊏ ∪ ◁)*, extended with ⊥ < event < ⊤."""
    if e is BOTTOM or f is TOP:
        return True
    if e is TOP:
        return f is TOP
    if f is BOTTOM:
        return e is BOTTOM
    idx, anc = m.index, m._anc
    try:
        return bool(anc[idx[f]] >> idx[e] & 1)
    except KeyError:
        raise MscError(f"unknown event id {e!r} or {f!r}") from None


def causal_lt(m: Msc, e: ExtEvent, f: ExtEvent) -> bool:
    return e is not f and e != f and causal_leq(m, e, f)


def mirror_msc(m: Msc) -> Msc:
    """Time reversal: per-process orders reversed, sends become receives."""
    ev = [(e, m.loc[e], m.label[e]) for e in reversed(m.events)]
    msgs = [(r, s) for s, r in m.msg]
    return Msc(m.signature, ev, msgs)


def last_on_process(m: Msc, p: str, e: str) -> ExtEvent:
    """Most recent event of p strictly below e, or BOTTOM. Gossip ground truth."""
    if p not in m.signature.processes:
        raise MscError(f"unknown process {p!r}")
    if e not in m.index:
        raise MscError(f"unknown event id {e!r}")
    best = None
    for g in m.events_of(p):
        if g != e and causal_leq(m, g, e):
            best = g  # events_of(p) is in process order, so keep the latest
    return best if best is not None else BOTTOM


def vector_clocks(m: Msc) -> dict[str, tuple]:
    """Per event e, per process p of the signature (in order): the most recent
    event of p strictly below e, or BOTTOM.  Gossip ground truth for all
    events at once, from vector clocks (Fidge 1988; Mattern 1989): one pass
    along ``linearize``, O(n·k).  ``last_on_process`` is the reference."""
    idx, events = m.index, m.events
    proc, pred, _, sender, _ = m._links
    # per event index, the index of each process's latest event below or at
    # it, -1 for none: on one process index order is process order
    seen: list = [None] * len(events)
    out = {}
    for e in linearize(m):
        i = idx[e]
        p, s = pred[i], sender[i]
        clock = [-1] * len(m.signature.processes) if p < 0 else list(seen[p])
        if s >= 0:
            clock = [max(a, b) for a, b in zip(clock, seen[s])]
        out[e] = tuple([events[j] if j >= 0 else BOTTOM for j in clock])
        clock[proc[i]] = i
        seen[i] = clock
    return out


# -- JSON wire format --------------------------------------------------------


def msc_to_json(m: Msc, annot: Optional[dict[str, Any]] = None) -> dict:
    obj: dict[str, Any] = {
        "processes": list(m.signature.processes),
        "alphabet": list(m.signature.alphabet),
        "events": [
            {"id": e, "proc": m.loc[e], "label": m.label[e]} for e in m.events
        ],
        "messages": [[s, r] for s, r in m.msg],
    }
    if annot is not None:
        for rec in obj["events"]:
            rec["annot"] = annot[rec["id"]]
    return obj


def check_json(value, kind: type, what: str):
    """``value`` if it is a ``kind``; otherwise a TypeError, which the JSON
    readers report as a malformed object."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def json_strings(value, what: str) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if not all(isinstance(x, str) for x in check_json(value, list, what)):
        raise TypeError(f"{what} must be strings")
    return tuple(value)


def msc_from_json(obj: dict) -> Msc:
    try:
        procs = json_strings(obj["processes"], "processes")
        sig = SystemSignature(procs, tuple(check_json(obj["alphabet"], list, "alphabet")))
        # one pass over each list; a message that is no pair is reported
        # before a name that is no string
        named = True
        events = []
        for r in obj["events"]:
            e, p = r["id"], r["proc"]
            events.append((e, p, r["label"]))
            named = named and isinstance(e, str) and isinstance(p, str)
        messages = []
        for pair in obj["messages"]:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise TypeError("a message must be a pair of event ids")
            s, r = pair
            messages.append((s, r))
            named = named and isinstance(s, str) and isinstance(r, str)
        if not named:
            raise TypeError("event ids, procs and message ends must be strings")
    except (KeyError, TypeError) as exc:
        raise MscError(f"malformed MSC object: {exc}") from exc
    return Msc(sig, events, messages)


def extended_msc_from_json(obj: dict) -> ExtendedMsc:
    base = msc_from_json(obj)
    try:
        annot = {r["id"]: r["annot"] for r in obj["events"]}
    except KeyError as exc:
        raise MscError("extended MSC requires an 'annot' field per event") from exc
    return ExtendedMsc(base, annot)


# -- DOT export --------------------------------------------------------------


def export_dot(m: Msc, annot: Optional[dict[str, Any]] = None) -> str:
    """Render as a DOT digraph: one horizontal rank per process.  Drawn from
    ``events_of`` and ``msg``, so also an MSC that ``validate_msc`` refuses."""

    def node_label(e: str) -> str:
        lab = f"{e}\\n{m.label[e]}"
        if annot is not None:
            lab += f"\\n{annot[e]}"
        return lab

    lines = ["digraph msc {", "  rankdir=LR;", "  node [shape=box];"]
    for p in m.signature.processes:
        lines.append(f'  subgraph "cluster_{p}" {{')
        lines.append(f'    label="{p}"; rank=same;')
        for e in m.events_of(p):
            lines.append(f'    "{e}" [label="{node_label(e)}"];')
        lines.append("  }")
    for p in m.signature.processes:
        es = m.events_of(p)
        for a, b in zip(es, es[1:]):
            lines.append(f'  "{a}" -> "{b}" [style=solid];')
    for s, r in m.msg:
        lines.append(f'  "{s}" -> "{r}" [color=blue, constraint=false];')
    lines.append("}")
    return "\n".join(lines)
