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
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

from .msc import ExtendedMsc, Msc, SystemSignature, check_json, json_strings, linearize

State = Hashable


class CfmError(ValueError):
    """Malformed machine or signature mismatch."""


class BudgetExhausted(Exception):
    """The accepting-run search hit its node budget; membership is unresolved."""

    def __init__(self, budget: int):
        super().__init__(f"search budget of {budget} nodes exhausted")
        self.budget = budget


@dataclass(frozen=True)
class Transition:
    proc: str
    source: State
    kind: str  # 'local' | 'send' | 'recv'
    label: Hashable
    target: State
    msg: Optional[Hashable] = None  # send/recv only
    peer: Optional[str] = None  # receiver for send, sender for recv

    def __post_init__(self):
        if self.kind not in ("local", "send", "recv"):
            raise CfmError(f"bad transition kind {self.kind!r}")
        if self.kind == "local" and (self.msg is not None or self.peer is not None):
            raise CfmError("local transitions carry no message or peer")
        if self.kind != "local" and (self.msg is None or self.peer is None):
            raise CfmError(f"{self.kind} transition needs msg and peer")
        if self.peer == self.proc:
            raise CfmError("peer process must differ from own process")


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
        for t in self._delta[p]:
            if t.source != state or t.kind != kind or t.label != label:
                continue
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
    start state).
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
        self.name = name

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
        for new_state, msg_out in self._step(p, state, kind, label, peer, msg_in):
            t = Transition(
                proc=p,
                source=state,
                kind=kind,
                label=label,
                target=new_state,
                msg=(msg_out if kind == "send" else msg_in)
                if kind != "local"
                else None,
                peer=peer if kind != "local" else None,
            )
            yield new_state, (msg_out if kind == "send" else None), t

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
    order: Optional[list[str]] = None,
    stats: Optional[dict] = None,
) -> Optional[Run]:
    """Depth-first search for an accepting run; None if none exists.

    Deterministic: explores initial tuples and transitions in their canonical
    enumeration order and returns the first run found.  A node is an event
    index with the state tuple and channel contents reached before it; a node
    none of whose moves leads to acceptance is remembered and not searched
    again.  That memo is local to the call and holds at most ``budget``
    keys: a node's frame is pushed only after the node is counted against
    the budget, and each popped frame adds one key.  The path is kept on an
    explicit stack, one frame per event, so the depth is not bounded by the
    interpreter's recursion limit.  Raises BudgetExhausted when more than
    ``budget`` nodes are visited before resolution.  When a ``stats`` dict
    is supplied, the visited-node count is written into it.
    """
    if machine.signature is None:
        # signature-generic lazy machine: adopt the MSC's processes
        machine = machine.with_signature(m.signature)
    if machine.signature.processes != m.signature.processes:
        raise CfmError("machine and MSC have different process sets")
    if order is None:
        order = linearize(m)
    pidx = {p: i for i, p in enumerate(machine.signature.processes)}
    shapes = [
        (pidx[m.loc[e]], m.loc[e], m.kind_of(e), m.peer_of(e), m.label[e])
        for e in order
    ]
    visited = 0
    failed: set[tuple[int, tuple, tuple]] = set()

    def channels_key(chans: dict) -> tuple:
        return tuple(sorted((c, q) for c, q in chans.items() if q))

    def moves(i: int, states: tuple, chans: dict):
        k, p, kind, peer, label = shapes[i]
        msg_in = None
        if kind == "recv":
            queue = chans.get((peer, p))
            if not queue:
                return iter(())  # cannot happen on a linearization of a valid MSC
            msg_in = queue[0]
        return iter(machine.step(p, states[k], kind, label, peer, msg_in))

    try:
        for start in machine.initial_tuples():
            # stack[i]: (key, states, channels, untried moves) of the node at
            # event i on the current path; path[i]: the transition taken there
            stack: list[tuple] = []
            path: list[Transition] = []
            states, chans = tuple(start), {}
            while True:
                visited += 1
                if visited > budget:
                    raise BudgetExhausted(budget)
                i = len(stack)
                if i == len(order):
                    if not any(chans.values()) and machine.is_accepting(states):
                        return Run(assignment=dict(zip(order, path)), start=tuple(start))
                else:
                    key = (i, states, channels_key(chans))
                    if key not in failed:
                        stack.append((key, states, chans, moves(i, states, chans)))
                move = None
                while stack and move is None:
                    key, states, chans, untried = stack[-1]
                    move = next(untried, None)
                    if move is None:
                        stack.pop()
                        failed.add(key)
                if move is None:
                    break
                i = len(stack) - 1
                k, p, kind, peer, _ = shapes[i]
                new_state, msg_out, t = move
                del path[i:]
                path.append(t)
                states = states[:k] + (new_state,) + states[k + 1 :]
                if kind == "send":
                    chans = dict(chans)
                    chans[(p, peer)] = chans.get((p, peer), ()) + (msg_out,)
                elif kind == "recv":
                    chans = dict(chans)
                    chans[(peer, p)] = chans[(peer, p)][1:]
        return None
    finally:
        if stats is not None:
            stats["visited"] = visited


def accepts(machine, m: Msc, budget: int = DEFAULT_BUDGET) -> bool:
    """Language membership by the run search.

    Annotation machines are decided without search by their own
    ``decide(ext)``, on the extended MSC itself.
    """
    return find_accepting_run(machine, m, budget) is not None


def validate_run(machine, m: Msc, run: Run) -> list[str]:
    """Check the five run conditions plus acceptance; empty list iff valid."""
    out: list[str] = []
    procs = machine.signature.processes
    rho = run.assignment
    for e in m.events:
        if e not in rho:
            out.append(f"no transition assigned to event {e!r}")
    if out:
        return out
    start = dict(zip(procs, run.start))
    for e in m.events:
        t = rho[e]
        if t.proc != m.loc[e]:
            out.append(f"{e!r}: transition belongs to process {t.proc!r}")
        if t.label != m.label[e]:
            out.append(f"{e!r}: label mismatch ({t.label!r} vs {m.label[e]!r})")
        kind = m.kind_of(e)
        if t.kind != kind:
            out.append(f"{e!r}: event is a {kind} but transition is a {t.kind}")
        if m.proc_pred_of(e) is None and t.source != start[m.loc[e]]:
            out.append(f"{e!r}: first event does not start in the initial state")
    for a, b in m.proc_succ:
        if rho[a].target != rho[b].source:
            out.append(f"states do not chain across ({a!r}, {b!r})")
    for s, r in m.msg:
        ts, tr = rho[s], rho[r]
        if ts.kind == "send" and tr.kind == "recv":
            if ts.msg != tr.msg:
                out.append(f"message letters differ on ({s!r}, {r!r})")
            if ts.peer != m.loc[r] or tr.peer != m.loc[s]:
                out.append(f"peer processes wrong on ({s!r}, {r!r})")
    final = []
    for p in procs:
        es = m.events_of(p)
        final.append(rho[es[-1]].target if es else start[p])
    if not machine.is_accepting(tuple(final)):
        out.append(f"final tuple {tuple(final)} is not accepting")
    # transitions must exist in the machine
    for e in m.events:
        t = rho[e]
        kind = m.kind_of(e)
        msg_in = t.msg if kind == "recv" else None
        moves = machine.step(t.proc, t.source, kind, t.label, t.peer, msg_in)
        if not any(
            ns == t.target and (kind != "send" or mo == t.msg) for ns, mo, _ in moves
        ):
            out.append(f"{e!r}: transition {t} is not a move of the machine")
    return out


def oracle_accepts(machine: Cfm, m: Msc) -> bool:
    """Brute force: try every assignment of transitions to events.

    Exponential; only usable on tiny MSCs.  Independent of the DFS search.
    """
    import itertools

    order = m.events
    choices = []
    for e in order:
        p = m.loc[e]
        kind = m.kind_of(e)
        cand = [
            t
            for t in machine.transitions_of(p)
            if t.kind == kind and t.label == m.label[e]
            and (kind == "local" or t.peer == m.peer_of(e))
        ]
        if not cand:
            return False
        choices.append(cand)
    for start in machine.initial_tuples():
        startd = dict(zip(machine.signature.processes, start))
        for combo in itertools.product(*choices):
            run = Run(assignment=dict(zip(order, combo)), start=tuple(start))
            if not _plain_conditions(machine, m, run, startd):
                continue
            return True
    return False


def _plain_conditions(machine: Cfm, m: Msc, run: Run, start) -> bool:
    rho = run.assignment
    for e in m.events:
        if m.proc_pred_of(e) is None and rho[e].source != start[m.loc[e]]:
            return False
    for a, b in m.proc_succ:
        if rho[a].target != rho[b].source:
            return False
    for s, r in m.msg:
        if rho[s].msg != rho[r].msg:
            return False
    final = tuple(
        rho[m.events_of(p)[-1]].target if m.events_of(p) else start[p]
        for p in machine.signature.processes
    )
    return machine.is_accepting(final)


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


def relabel(c: Cfm, h: dict, new_alphabet: Optional[tuple] = None) -> Cfm:
    """Apply an alphabet morphism h to every transition label."""
    missing = [a for a in c.signature.alphabet if a not in h]
    if missing:
        raise CfmError(f"morphism undefined on {missing}")
    alphabet = (
        tuple(dict.fromkeys(h[a] for a in c.signature.alphabet))
        if new_alphabet is None
        else tuple(new_alphabet)
    )
    sig = SystemSignature(c.signature.processes, alphabet)
    transitions = [
        Transition(t.proc, t.source, t.kind, h[t.label], t.target, t.msg, t.peer)
        for t in c.transitions
    ]
    return Cfm(
        sig, c.messages, c.states, c.initial, transitions, c.accepting,
        c.generalized_initial,
    )


def project_annotation(c: Cfm) -> Cfm:
    """Drop the second component of a product alphabet Σ×A (erases annotations)."""
    h = {}
    for lab in c.signature.alphabet:
        if not (isinstance(lab, tuple) and len(lab) == 2):
            raise CfmError("alphabet is not a product of pairs")
        h[lab] = lab[0]
    return relabel(c, h)


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


def lower_generalized_initial(c: Cfm) -> Cfm:
    """Remove generalized_initial by per-process index guessing.

    Each process guesses which start tuple the system uses, simulates from
    that tuple's component, and remembers the guess; acceptance requires all
    processes to have guessed the same index.  Language-preserving.
    """
    if c.generalized_initial is None:
        return c
    sig = c.signature
    tuples = sorted(c.generalized_initial, key=repr)
    states = {
        p: [("init",)] + [(i, s) for i in range(len(tuples)) for s in c.states[p]]
        for p in sig.processes
    }
    initial = {p: ("init",) for p in sig.processes}
    transitions = []
    for p in sig.processes:
        k = sig.proc_index(p)
        for t in c.transitions_of(p):
            for i, tup in enumerate(tuples):
                transitions.append(
                    Transition(p, (i, t.source), t.kind, t.label, (i, t.target),
                               t.msg, t.peer)
                )
                if t.source == tup[k]:
                    transitions.append(
                        Transition(p, ("init",), t.kind, t.label, (i, t.target),
                                   t.msg, t.peer)
                    )
    accepting = []
    for acc in c.accepting:
        for i in range(len(tuples)):
            accepting.append(tuple((i, s) for s in acc))
        # empty processes never leave ("init",); allow any subset of them to
        # stay there provided their guessed tuple's component is accepting
        # at its start: handled by also accepting mixed tuples where ("init",)
        # stands for "no events happened on p".
    mixed = []
    for acc in c.accepting:
        for i, tup in enumerate(tuples):
            base = [(i, s) for s in acc]
            for mask in range(1, 1 << len(sig.processes)):
                cand = list(base)
                ok = True
                for b, p in enumerate(sig.processes):
                    if mask >> b & 1:
                        # p had no events: final must equal start component
                        if acc[b] != tup[b]:
                            ok = False
                            break
                        cand[b] = ("init",)
                if ok:
                    mixed.append(tuple(cand))
    return Cfm(sig, c.messages, states, initial, transitions,
               accepting + mixed, None)


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


MATERIALIZE_CAP = 10**5


def materialize(lazy: LazyCfm, sig: SystemSignature, cap: int = MATERIALIZE_CAP) -> Cfm:
    """Explicit Cfm from a lazy one by reachable-state closure.

    Receives are expanded against the set of message values produced by
    reachable sends (iterated to a fixpoint), so the result is exact whenever
    every reachable state is found.  Raises CfmError when more than ``cap``
    states (or accepting tuples) would be produced.
    """
    if lazy.signature is None:
        lazy = lazy.with_signature(sig)
    procs = sig.processes
    states: dict[str, set] = {p: set(lazy._starts(p)) for p in procs}
    transitions: set[Transition] = set()
    messages: set = set()

    def explore() -> bool:
        grew = False
        for p in procs:
            others = [q for q in procs if q != p]
            for s in list(states[p]):
                for a in sig.alphabet:
                    moves = [("local", None, [None])]
                    for peer in others:
                        moves.append(("send", peer, [None]))
                        moves.append(("recv", peer, sorted(messages, key=repr)))
                    for kind, peer, inboxes in moves:
                        for msg_in in inboxes:
                            for ns, mo in lazy._step(p, s, kind, a, peer, msg_in):
                                msg = mo if kind == "send" else msg_in
                                t = Transition(p, s, kind, a, ns, msg, peer)
                                if t not in transitions:
                                    transitions.add(t)
                                    grew = True
                                if kind == "send" and mo not in messages:
                                    messages.add(mo)
                                    grew = True
                                if ns not in states[p]:
                                    states[p].add(ns)
                                    grew = True
                                    if sum(len(v) for v in states.values()) > cap:
                                        raise CfmError(
                                            f"materialization exceeds {cap} states"
                                        )
        return grew

    while explore():
        pass

    finals = {p: [s for s in states[p] if lazy._final(p, s)] for p in procs}
    n_acc = 1
    for p in procs:
        n_acc *= max(len(finals[p]), 1)
    if n_acc > cap:
        raise CfmError(f"materialization exceeds {cap} accepting tuples")
    import itertools as _it

    accepting = [tuple(t) for t in _it.product(*(finals[p] for p in procs))]
    initial = {p: next(iter(lazy._starts(p))) for p in procs}
    gen = [tuple(t) for t in _it.product(*(list(lazy._starts(p)) for p in procs))]
    return Cfm(
        sig,
        sorted(messages, key=repr) or ["*"],
        {p: sorted(states[p], key=repr) for p in procs},
        initial,
        sorted(transitions, key=repr),
        accepting,
        generalized_initial=gen if len(gen) > 1 else None,
    )


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


def load_cfm(path: str) -> Cfm:
    with open(path) as fh:
        return cfm_from_json(json.load(fh))
