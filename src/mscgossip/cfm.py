"""Communicating finite-state machines: runs, acceptance search, closure ops.

A CFM has one finite automaton per process, a finite message alphabet, and a
global set of accepting state tuples.  Acceptance of an MSC means there is a
transition assignment satisfying the five run conditions (label match, initial
start, per-process chaining, local kinds, message matching) whose final tuple
is accepting with all channels empty.

Machines come in two flavors sharing one search: explicit ``Cfm`` (states and
transitions materialized, JSON-serializable) and ``LazyCfm`` (structured
states produced on demand, for constructions whose state spaces are huge).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Optional

from .msc import (
    ExtendedMsc,
    Msc,
    SystemSignature,
    check_json,
    json_strings,
    linearize,
)

State = Hashable


class CfmError(ValueError):
    """Malformed machine or signature mismatch."""


class BudgetExhausted(Exception):
    """The accepting-run search hit its node budget; membership is unresolved."""

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} nodes exhausted")
        self.budget = budget


class _TransitionFields(NamedTuple):
    proc: str
    source: State
    kind: str  # 'local' | 'send' | 'recv'
    label: Hashable
    target: State
    msg: Optional[Hashable] = None  # send/recv only
    peer: Optional[str] = None  # receiver for send, sender for recv


class Transition(_TransitionFields):
    """One move of one process's automaton, checked when built.

    An immutable named tuple, so that the search can build one per pulled
    move cheaply; fields, repr, equality and hash are those of the field
    tuple.
    """

    __slots__ = ()

    def __new__(cls, proc, source, kind, label, target, msg=None, peer=None):
        if kind not in ("local", "send", "recv"):
            raise CfmError(f"bad transition kind {kind!r}")
        if kind == "local":
            if msg is not None or peer is not None:
                raise CfmError("local transitions carry no message or peer")
        elif msg is None or peer is None:
            raise CfmError(f"{kind} transition needs msg and peer")
        if peer == proc:
            raise CfmError("peer process must differ from own process")
        return tuple.__new__(cls, (proc, source, kind, label, target, msg, peer))


class Cfm:
    """Explicit CFM.

    accepting: set of global state tuples, one entry per process in signature
    order.  generalized_initial: optional set of global start tuples; when
    absent, the single tuple of per-process initials is used.
    """

    def __init__(
        self,
        signature: SystemSignature,
        messages: Iterable[Hashable],
        states: dict[str, Iterable[State]],
        initial: dict[str, State],
        transitions: Iterable[Transition],
        accepting: Iterable[tuple[State, ...]],
        generalized_initial: Optional[Iterable[tuple[State, ...]]] = None,
    ):
        self.signature = signature
        self.messages = tuple(dict.fromkeys(messages))
        self.states = {p: tuple(dict.fromkeys(states.get(p, ()))) for p in signature.processes}
        self.initial = dict(initial)
        self.transitions = tuple(transitions)
        self.accepting = frozenset(tuple(t) for t in accepting)
        self.generalized_initial = (
            None
            if generalized_initial is None
            else frozenset(tuple(t) for t in generalized_initial)
        )
        self._check()
        self._delta: dict[str, tuple[Transition, ...]] = {
            p: tuple(t for t in self.transitions if t.proc == p)
            for p in signature.processes
        }
        # step's buckets: (process, source, kind, label) -> transitions in order
        self._moves: dict[tuple, list[Transition]] = {}
        for t in self.transitions:
            self._moves.setdefault((t.proc, t.source, t.kind, t.label), []).append(t)

    def _check(self):
        procs = self.signature.processes
        for p in procs:
            if p not in self.initial:
                raise CfmError(f"no initial state for process {p!r}")
            if self.initial[p] not in self.states[p]:
                raise CfmError(f"initial state of {p!r} not in its state set")
        for t in self.transitions:
            if t.proc not in procs:
                raise CfmError(f"transition on unknown process {t.proc!r}")
            sts = self.states[t.proc]
            if t.source not in sts or t.target not in sts:
                raise CfmError(f"transition {t} references unknown states")
            if t.label not in self.signature.alphabet:
                raise CfmError(f"transition {t} uses unknown label")
            if t.kind != "local":
                if t.msg not in self.messages:
                    raise CfmError(f"transition {t} uses unknown message")
                if t.peer not in procs:
                    raise CfmError(f"transition {t} references unknown peer")
        for tup in self.accepting | (self.generalized_initial or frozenset()):
            if len(tup) != len(procs):
                raise CfmError(f"global tuple {tup} has wrong arity")
            for s, p in zip(tup, procs):
                if s not in self.states[p]:
                    raise CfmError(f"global tuple {tup} uses unknown state for {p!r}")

    # -- search interface --------------------------------------------------

    def transitions_of(self, p: str) -> tuple[Transition, ...]:
        return self._delta[p]

    def initial_tuples(self) -> Iterable[tuple[State, ...]]:
        if self.generalized_initial is not None:
            return sorted(self.generalized_initial, key=repr)
        return [tuple(self.initial[p] for p in self.signature.processes)]

    def step(
        self,
        p: str,
        state: State,
        kind: str,
        label: Hashable,
        peer: Optional[str],
        msg_in: Optional[Hashable],
    ) -> Iterator[tuple[State, Optional[Hashable], Transition]]:
        """All moves from (p, state) for an event shaped (kind, label, peer).

        Yields (new state, sent message or None, witnessing transition).
        For receives, only transitions matching the channel-head msg_in fire.
        """
        for t in self._moves.get((p, state, kind, label), ()):
            if kind != "local" and t.peer != peer:
                continue
            if kind == "recv" and t.msg != msg_in:
                continue
            yield t.target, (t.msg if kind == "send" else None), t

    def is_accepting(self, final: tuple[State, ...]) -> bool:
        return tuple(final) in self.accepting


class LazyCfm:
    """A CFM given behaviorally: per-process start states and a step function.

    step_fn(p, state, kind, label, peer, msg_in) yields (new_state, msg_out)
    pairs; msg_out must be None except for sends.  States and messages are
    arbitrary hashable structured values.  Acceptance is per-process:
    final_ok(p, state) for every process (empty processes are checked on a
    start state).  The run search relies on this: a process's state after
    its last event is its final state, so a move at that event to a state
    failing final_ok leads to no accepting run and is not searched.
    """

    def __init__(
        self,
        signature: SystemSignature,
        starts: Callable[[str], Iterable[State]],
        step_fn: Callable[..., Iterable[tuple[State, Any]]],
        final_ok: Callable[[str, State], bool],
        name: str = "lazy",
    ):
        self.signature = signature
        self._starts = starts
        self._step = step_fn
        self._final = final_ok
        self._name = name

    @property
    def name(self) -> str:
        return self._name

    def with_signature(self, sig: SystemSignature) -> "LazyCfm":
        return LazyCfm(sig, self._starts, self._step, self._final, self.name)

    def initial_tuples(self) -> Iterable[tuple[State, ...]]:
        procs = self.signature.processes
        per = [list(self._starts(p)) for p in procs]
        out: list[tuple[State, ...]] = [()]
        for opts in per:
            out = [t + (s,) for t in out for s in opts]
        return out

    def step(self, p, state, kind, label, peer, msg_in):
        # a transition carries the message it sends or receives, and a peer
        # unless local
        msg = msg_in if kind == "recv" else None
        t_peer = None if kind == "local" else peer
        for new_state, msg_out in self._step(p, state, kind, label, peer, msg_in):
            if kind == "send":
                msg = msg_out
            else:
                msg_out = None
            yield new_state, msg_out, Transition(p, state, kind, label, new_state, msg, t_peer)

    def is_accepting(self, final: tuple[State, ...]) -> bool:
        return all(
            self._final(p, s) for p, s in zip(self.signature.processes, final)
        )


@dataclass
class Run:
    """A transition assignment, one per event, plus the start tuple it chains from."""

    assignment: dict[str, Transition]
    start: tuple[State, ...]


# -- annotated MSCs as product-labeled MSCs ----------------------------------


def product_signature(sig: SystemSignature, annotations: Iterable[Hashable]) -> SystemSignature:
    """Signature over Σ×A for machines reading annotated MSCs."""
    alphabet = tuple((a, x) for a in sig.alphabet for x in annotations)
    return SystemSignature(sig.processes, alphabet)


def attach_annotation(ext: ExtendedMsc) -> Msc:
    """Encode an extended MSC as a plain MSC whose labels are (label, annot) pairs."""
    m = ext.base
    annots = tuple(dict.fromkeys(ext.annot.values())) or (None,)
    sig = product_signature(m.signature, annots)
    events = [(e, m.loc[e], (m.label[e], ext.annot[e])) for e in m.events]
    return Msc(sig, events, m.msg)


def detach_annotation(m: Msc) -> ExtendedMsc:
    """Inverse of attach_annotation: split (label, annot) pairs back apart."""
    events, annot = [], {}
    for e in m.events:
        lab = m.label[e]
        if not (isinstance(lab, tuple) and len(lab) == 2):
            raise CfmError(f"event {e!r} does not carry a (label, annot) pair")
        events.append((e, m.loc[e], lab[0]))
        annot[e] = lab[1]
    alphabet = tuple(dict.fromkeys(lab for _, _, lab in events)) or ("a",)
    base = Msc(SystemSignature(m.signature.processes, alphabet), events, m.msg)
    return ExtendedMsc(base, annot)


# -- run search --------------------------------------------------------------


DEFAULT_BUDGET = 10**7


def find_accepting_run(
    machine,
    m: Msc,
    budget: int = DEFAULT_BUDGET,
    stats: Optional[dict] = None,
) -> Optional[Run]:
    """Depth-first search for an accepting run; None if none exists.

    Deterministic: explores initial tuples and transitions in their canonical
    enumeration order, along the events in ``linearize(m)`` order, and
    returns the first run found.  ``m`` must be an MSC that ``validate_msc``
    accepts: under FIFO, the message at the head of a receive's channel is
    the one its matched send sent, so a receive reads its send's payload.

    A node is a depth d in that order with the moves chosen before d.  The
    search keeps them in one flat list of values: the state chosen at each
    depth, then each process's start state, then the payload sent at each
    depth.  So a node's situation is the value at its ⊏-predecessor's depth
    (or its process's start slot) and, on a receive, the payload at its
    sender's depth: one getter per depth reads both, and no node builds a
    state tuple or channel queues.  A node's moves depend only on its
    event's shape (process, kind, label, peer) and that situation, so the
    machine is stepped once per such key: a move table per shape keeps the
    moves pulled so far from each step, every node with the key reads them
    in the same order, and a step is pulled further only when a node needs
    more of it.  The path is held per depth in lists, not on the
    interpreter's stack, so the depth is not bounded by the recursion
    limit: the move-table entry read there, a cursor into its moves and
    the transition taken, off which the run returned is read.

    A node none of whose moves leads to acceptance is remembered and not
    searched again.  Its key is the values at each process's latest depth
    before d (or its start slot), then the payloads of the sends in flight
    at d.  At a fixed depth the sends in flight and their channels are
    fixed, so this key determines the state tuple and channel contents
    reached and is determined by them.  Failed keys are kept per depth, and
    the per-depth getters of keys are made at the search's first failure,
    so a search that never backtracks makes and hashes none.  The failure
    memo and the move table are local to the call and hold at most
    ``budget`` keys each: a node reads its entry only after it is counted
    against the budget, each node given up adds one failed key, and each
    node expanded adds at most one table entry.  A move pulled is taken,
    visiting a node, or dropped (below), and both count, so the table holds
    at most ``budget`` + 1 moves in all.

    On a ``LazyCfm``, which accepts process by process (``final_ok`` of
    each process's final state), a move at a process's last event whose
    new state fails that process's final test is dropped as if the step had
    not yielded it: it is never taken, visited or remembered as failed.
    No later event changes that process's state, so every run through the
    move ends in a tuple the machine rejects, and as the moves kept are
    tried in the same order, the run returned is the one found without the
    rule.  The closing acceptance check stays, for processes without
    events.  Both ask ``final_ok`` through a memo local to the call, once
    per (process, state); it holds at most one answer per move in the move
    table and per start state.  Explicit ``Cfm``s and other machines with
    global acceptance drop nothing.  Every send of an MSC has its receive,
    so the channels are empty at the end and the closing check does not
    look at them.

    Raises BudgetExhausted when the nodes visited and the moves dropped
    would together exceed ``budget`` before resolution.  When a ``stats``
    dict is supplied, the nodes visited are written into it as ``visited``,
    the machine steps started, one per table entry, as ``steps``, and the
    moves dropped at last events, once per node that reads one, as
    ``pruned``; ``visited`` + ``pruned`` is at most ``budget``.
    """
    if machine.signature is None:
        # signature-generic lazy machine: adopt the MSC's processes
        machine = machine.with_signature(m.signature)
    procs = machine.signature.processes
    if procs != m.signature.processes:
        raise CfmError("machine and MSC have different process sets")
    order = linearize(m)
    n = len(order)
    # a machine that accepts process by process has its moves at each
    # process's last event checked against that process's final test
    final_ok = machine._final if isinstance(machine, LazyCfm) else None
    answers: dict[tuple, bool] = {}

    def passes(p, state) -> bool:
        ok = answers.get((p, state))
        if ok is None:
            ok = answers[p, state] = bool(final_ok(p, state))
        return ok

    if final_ok is None:
        accepting = machine.is_accepting
    else:
        def accepting(final):
            return all(passes(p, s) for p, s in zip(procs, final))

    # vals: at [d] the state chosen at depth d, at [n + c] process c's
    # start state, at [pay + d] the payload sent at depth d, and at [none]
    # None, the message that a step at an event other than a receive reads
    pay = n + len(procs)
    none = pay + n
    vals = [None] * (none + 1)
    proc, _, _, sender, receiver = m._links
    index, label_of = m.index, m.label
    latest = list(range(n, pay))  # per process, the slot of its state so far
    read = [none] * n  # per event position, the slot of the message it reads
    # per depth, from the event table's process, receiver and sender of its
    # event: the getter of its situation (state, message) and its shape's
    # (move table, process, kind, label, peer); a move table maps a
    # situation to [moves pulled, step or None once exhausted]
    shapes: dict[tuple, tuple] = {}
    situation_at, shape_at = [], []
    for d, e in enumerate(order):
        i = index[e]
        c = proc[i]
        if (r := receiver[i]) >= 0:
            read[r] = pay + d
            shape = (procs[c], "send", label_of[e], procs[proc[r]])
        elif (s := sender[i]) >= 0:
            shape = (procs[c], "recv", label_of[e], procs[proc[s]])
        else:
            shape = (procs[c], "local", label_of[e], None)
        at = shapes.get(shape)
        if at is None:
            at = shapes[shape] = ({}, *shape)
        situation_at.append(itemgetter(latest[c], read[i]))
        shape_at.append(at)
        latest[c] = d
    # per depth on the current path: the move-table entry read, the cursor
    # into its moves and the transition taken; fixed per depth, the process
    # whose final test applies there
    entries: list = [None] * n
    cursors = [0] * n
    taken: list = [None] * n
    final_at: list = [None] * n
    if final_ok is not None:
        for c, d in enumerate(latest):
            if d < n:
                final_at[d] = procs[c]
    failed: list[Optional[set]] = [None] * n
    keys = None  # per depth, the getter of a failed node's key
    visited = steps = pruned = 0

    try:
        for start in machine.initial_tuples():
            vals[n:pay] = start
            depth = 0  # the node reached is at this depth
            while True:
                if visited + pruned == budget:
                    raise BudgetExhausted(budget)
                visited += 1
                if depth == n:
                    if accepting(tuple([vals[d] for d in latest])):
                        return Run(dict(zip(order, taken)), tuple(start))
                elif (f := failed[depth]) is None or keys[depth](vals) not in f:
                    situation = situation_at[depth](vals)
                    table, p, kind, label, peer = shape_at[depth]
                    entry = table.get(situation)
                    if entry is None:
                        steps += 1
                        step = machine.step(p, situation[0], kind, label, peer, situation[1])
                        entry = table[situation] = [[], iter(step)]
                    entries[depth] = entry
                    cursors[depth] = 0
                    depth += 1
                # the next move at the deepest depth on the path with one left
                while depth:
                    d = depth - 1
                    entry, j, fin = entries[d], cursors[d], final_at[d]
                    moves = entry[0]
                    while True:
                        if j == len(moves):
                            # the entry's moves are read: pull its step further
                            move = None if entry[1] is None else next(entry[1], None)
                            if move is None:
                                entry[1] = None
                                break
                            moves.append(move)
                        else:
                            move = moves[j]
                        j += 1
                        if fin is None or passes(fin, move[0]):
                            break
                        if visited + pruned == budget:
                            raise BudgetExhausted(budget)
                        pruned += 1
                    if move is not None:
                        break
                    depth = d
                    if keys is None:
                        keys = _failure_keys(m, order, len(procs))
                    if (f := failed[d]) is None:
                        failed[d] = {keys[d](vals)}
                    else:
                        f.add(keys[d](vals))
                else:
                    break
                cursors[d] = j
                vals[d], vals[pay + d], taken[d] = move
        return None
    finally:
        if stats is not None:
            stats["visited"] = visited
            stats["steps"] = steps
            stats["pruned"] = pruned


def _failure_keys(m: Msc, order: tuple[str, ...], width: int) -> list:
    """Per depth d of ``order``, the getter of a failed node's key off the
    run search's values: the slot of each of the ``width`` processes' latest
    state before d (its start slot when it has none), then the payload slots
    of the sends in flight at d, in the order they were sent."""
    proc, _, _, sender, receiver = m._links
    index = m.index
    n = len(order)
    latest = list(range(n, n + width))
    flight: dict[int, int] = {}  # a send's event position -> its payload slot
    keys = []
    for d, e in enumerate(order):
        keys.append(itemgetter(*latest, *flight.values()))
        i = index[e]
        latest[proc[i]] = d
        if receiver[i] >= 0:
            flight[i] = n + width + d
        elif sender[i] >= 0:
            del flight[sender[i]]
    return keys


def accepts(machine, m: Msc, budget: int = DEFAULT_BUDGET) -> bool:
    """Language membership by the run search.

    Annotation machines are decided without search by their own
    ``decide(ext)``, on the extended MSC itself.
    """
    return find_accepting_run(machine, m, budget) is not None


def validate_run(machine, m: Msc, run: Run) -> list[str]:
    """Check the five run conditions plus acceptance; empty list iff valid.

    ``m`` must be an MSC that ``validate_msc`` accepts.  Violations are
    listed per event in ``m.events`` order, then the final tuple's."""
    out: list[str] = []
    procs = machine.signature.processes
    rho = run.assignment
    for e in m.events:
        if e not in rho:
            out.append(f"no transition assigned to event {e!r}")
    if out:
        return out
    start = dict(zip(procs, run.start))
    events = m.events
    _, pred, _, sender, _ = m._links
    for i, e in enumerate(events):
        t = rho[e]
        if t.proc != m.loc[e]:
            out.append(f"{e!r}: transition belongs to process {t.proc!r}")
        if t.label != m.label[e]:
            out.append(f"{e!r}: label mismatch ({t.label!r} vs {m.label[e]!r})")
        kind = m.kind_of(e)
        if t.kind != kind:
            out.append(f"{e!r}: event is a {kind} but transition is a {t.kind}")
        if (j := pred[i]) < 0:
            if t.source != start[m.loc[e]]:
                out.append(f"{e!r}: first event does not start in the initial state")
        elif rho[events[j]].target != t.source:
            out.append(f"states do not chain across ({events[j]!r}, {e!r})")
        s = events[sender[i]] if sender[i] >= 0 else None
        if s is not None and rho[s].kind == "send" and t.kind == "recv":
            if rho[s].msg != t.msg:
                out.append(f"message letters differ on ({s!r}, {e!r})")
            if rho[s].peer != m.loc[e] or t.peer != m.loc[s]:
                out.append(f"peer processes wrong on ({s!r}, {e!r})")
        # the transition must be a move of the machine
        msg_in = t.msg if kind == "recv" else None
        moves = machine.step(t.proc, t.source, kind, t.label, t.peer, msg_in)
        if not any(
            ns == t.target and (kind != "send" or mo == t.msg) for ns, mo, _ in moves
        ):
            out.append(f"{e!r}: transition {t} is not a move of the machine")
    final = tuple([rho[es[-1]].target if (es := m.events_of(p)) else start[p] for p in procs])
    if not machine.is_accepting(final):
        out.append(f"final tuple {final} is not accepting")
    return out


# -- determinism --------------------------------------------------------------


def is_deterministic(c: Cfm) -> bool:
    """Same source and label: locals agree; sends per receiver agree on
    message and target; receives per (sender, message) agree on target."""
    for p in c.signature.processes:
        seen_local: dict[tuple, State] = {}
        seen_send: dict[tuple, tuple] = {}
        seen_recv: dict[tuple, State] = {}
        for t in c.transitions_of(p):
            if t.kind == "local":
                k = (t.source, t.label)
                if seen_local.setdefault(k, t.target) != t.target:
                    return False
            elif t.kind == "send":
                k = (t.source, t.label, t.peer)
                v = (t.target, t.msg)
                if seen_send.setdefault(k, v) != v:
                    return False
            else:
                k = (t.source, t.label, t.peer, t.msg)
                if seen_recv.setdefault(k, t.target) != t.target:
                    return False
    return True


# -- closure operations --------------------------------------------------------


def product(c1: Cfm, c2: Cfm) -> Cfm:
    """Synchronized intersection: L(product) = L(c1) ∩ L(c2)."""
    if c1.signature != c2.signature:
        raise CfmError("product requires identical signatures")
    sig = c1.signature
    states = {
        p: [(s1, s2) for s1 in c1.states[p] for s2 in c2.states[p]]
        for p in sig.processes
    }
    initial = {p: (c1.initial[p], c2.initial[p]) for p in sig.processes}
    transitions = []
    for p in sig.processes:
        for t1 in c1.transitions_of(p):
            for t2 in c2.transitions_of(p):
                if (t1.kind, t1.label, t1.peer) != (t2.kind, t2.label, t2.peer):
                    continue
                transitions.append(
                    Transition(
                        proc=p,
                        source=(t1.source, t2.source),
                        kind=t1.kind,
                        label=t1.label,
                        target=(t1.target, t2.target),
                        msg=None if t1.kind == "local" else (t1.msg, t2.msg),
                        peer=t1.peer,
                    )
                )
    messages = [(m1, m2) for m1 in c1.messages for m2 in c2.messages]
    accepting = [
        tuple(zip(a1, a2)) for a1 in c1.accepting for a2 in c2.accepting
    ]
    gi = None
    g1 = c1.generalized_initial
    g2 = c2.generalized_initial
    if g1 is not None or g2 is not None:
        g1 = g1 if g1 is not None else {tuple(c1.initial[p] for p in sig.processes)}
        g2 = g2 if g2 is not None else {tuple(c2.initial[p] for p in sig.processes)}
        gi = [tuple(zip(a1, a2)) for a1 in g1 for a2 in g2]
    return Cfm(sig, messages, states, initial, transitions, accepting, gi)


def relabel(c: Cfm, h: dict) -> Cfm:
    """Apply an alphabet morphism h to every transition label, onto h's image."""
    missing = [a for a in c.signature.alphabet if a not in h]
    if missing:
        raise CfmError(f"morphism undefined on {missing}")
    alphabet = tuple(dict.fromkeys(h[a] for a in c.signature.alphabet))
    sig = SystemSignature(c.signature.processes, alphabet)
    transitions = [
        Transition(t.proc, t.source, t.kind, h[t.label], t.target, t.msg, t.peer)
        for t in c.transitions
    ]
    return Cfm(
        sig, c.messages, c.states, c.initial, transitions, c.accepting,
        c.generalized_initial,
    )


def mirror_cfm(c: Cfm) -> Cfm:
    """Time reversal: L(mirror_cfm(c)) = {mirror(M) | M ∈ L(c)}.

    Transitions are reversed with Send and Recv swapped; the accepting tuples
    become generalized start tuples and the old start tuple becomes accepting.
    """
    sig = c.signature
    transitions = [
        Transition(
            proc=t.proc,
            source=t.target,
            kind={"send": "recv", "recv": "send", "local": "local"}[t.kind],
            label=t.label,
            target=t.source,
            msg=t.msg,
            peer=t.peer,
        )
        for t in c.transitions
    ]
    old_starts = c.initial_tuples()
    # pick a canonical per-process initial for the degenerate single-initial
    # slots; correctness rests on generalized_initial, not on these.  The
    # repr-least tuple keeps the output independent of hash order.
    initial = (
        dict(zip(sig.processes, min(c.accepting, key=repr)))
        if c.accepting
        else c.initial
    )
    return Cfm(
        sig,
        c.messages,
        c.states,
        initial,
        transitions,
        accepting=[tuple(t) for t in old_starts],
        generalized_initial=list(c.accepting),
    )


def universal_cfm(sig: SystemSignature, messages: Iterable[Hashable] = ("*",)) -> Cfm:
    """One state per process, every move allowed; accepts every MSC over sig."""
    messages = tuple(messages)
    states = {p: ["u"] for p in sig.processes}
    initial = {p: "u" for p in sig.processes}
    transitions = []
    for p in sig.processes:
        for a in sig.alphabet:
            transitions.append(Transition(p, "u", "local", a, "u"))
            for q in sig.processes:
                if q == p:
                    continue
                for mm in messages:
                    transitions.append(Transition(p, "u", "send", a, "u", mm, q))
                    transitions.append(Transition(p, "u", "recv", a, "u", mm, q))
    accepting = [tuple("u" for _ in sig.processes)]
    return Cfm(sig, messages, states, initial, transitions, accepting)


# -- JSON wire format ----------------------------------------------------------


def cfm_to_json(c: Cfm) -> dict:
    def enc_state(s):
        return s if isinstance(s, str) else json.dumps(s, default=str)

    machines = {}
    for p in c.signature.processes:
        trans = []
        for t in c.transitions_of(p):
            rec = {
                "src": enc_state(t.source),
                "kind": t.kind,
                "label": t.label,
                "dst": enc_state(t.target),
            }
            if t.kind != "local":
                rec["msg"] = t.msg if isinstance(t.msg, str) else json.dumps(t.msg, default=str)
                rec["peer"] = t.peer
            trans.append(rec)
        machines[p] = {
            "states": [enc_state(s) for s in c.states[p]],
            "initial": enc_state(c.initial[p]),
            "transitions": trans,
        }
    obj = {
        "processes": list(c.signature.processes),
        "alphabet": list(c.signature.alphabet),
        "messages": [m if isinstance(m, str) else json.dumps(m, default=str) for m in c.messages],
        "machines": machines,
        "accepting": [[enc_state(s) for s in tup] for tup in sorted(c.accepting, key=repr)],
    }
    if c.generalized_initial is not None:
        obj["generalizedInitial"] = [
            [enc_state(s) for s in tup]
            for tup in sorted(c.generalized_initial, key=repr)
        ]
    return obj


def cfm_from_json(obj: dict) -> Cfm:
    try:
        procs = json_strings(obj["processes"], "processes")
        sig = SystemSignature(procs, tuple(check_json(obj["alphabet"], list, "alphabet")))
        messages = json_strings(obj["messages"], "messages")
        states = {}
        initial = {}
        transitions = []
        for p, mobj in check_json(obj["machines"], dict, "machines").items():
            states[p] = json_strings(mobj["states"], "states")
            initial[p] = mobj["initial"]
            for t in mobj["transitions"]:
                transitions.append(
                    Transition(
                        proc=p,
                        source=t["src"],
                        kind=t["kind"],
                        label=t["label"],
                        target=t["dst"],
                        msg=t.get("msg"),
                        peer=t.get("peer"),
                    )
                )
        accepting = [json_strings(t, "an accepting tuple") for t in obj["accepting"]]
        gi = obj.get("generalizedInitial")
        gi = None if gi is None else [json_strings(t, "an initial tuple") for t in gi]
    except (KeyError, TypeError) as exc:
        raise CfmError(f"malformed CFM object: {exc}") from exc
    return Cfm(sig, messages, states, initial, transitions, accepting, gi)
