"""The construction chain: from last/first-label tracking to the gossip machine.

Each construction is a machine over an annotated alphabet whose language is
"the annotation is correct".  Every machine comes with two membership routes:

* the genuine nondeterministic transition relation (states are the rule
  functions themselves, messages carry them, backward-flowing information is
  guessed and checked later), searchable with find_accepting_run;
* a direct decision procedure applying the same local rules along a
  linearization.  Because each machine admits exactly one consistent internal
  valuation per MSC, this decides membership without search and scales to
  large instances; it is the machine's ``decide(ext)``, while ``accepts``
  always runs the search.

The fixpoint, preorder and gossip machines also give the states of that
valuation's run (``canonical_states``).  ``replay`` steps the composite
relation along it, telling each step the state it must reach (``want``), so
the relation is checked on MSCs that blind search cannot finish.

The machines:
  last-label    ξ2(e) = ξ1(last_π(e))            forward, deterministic
  first-label   ξ2(e) = ξ1(first_π(e))           backward, guessed forward
  fa-label      ξ2(e) = ξ1(first_π'(last_π(e)))  the two chained
  fixpoint      γ(e) = 1 iff first_π'(last_π(e)) = e    via 4-coloring
  preorder      γ(e) = the total preorder ⪯_e over a finite path set
  gossip        ξ(e)(p) = λ(latest p-event below e)     for every process p
"""

from __future__ import annotations

import functools
import operator
from collections import defaultdict, deque
from typing import Callable, Hashable, Iterable, Optional

from .cfm import LazyCfm
from .msc import BOTTOM, TOP, ExtendedMsc, Msc, SystemSignature, linearize
from .paths import (
    Msg,
    PathError,
    PathExpr,
    StarStep,
    Step,
    comp,
    format_path,
    gossip_paths_between,
    plus_prepend,
    star_append,
    star_prepend,
)


def _theta_rule(head, parent, node, tail, none, pred, sender, proc, sender_proc, sigma):
    """θ at one event for a path ``node``, from θ at the same event for the
    path ``parent`` (``tail``) and the symbol ``head`` that node's path adds.

    ``pred`` and ``sender`` are θ at the ⊏-predecessor and at the message
    sender, None when the event has none; ``none`` marks an empty preimage.
    This is the one copy of the rules for ⊏, →*, msg(p,q) and [a]: the trie
    steps of the passes and of LastCore are compiled from it, and FirstCore
    runs it, the first direction on the mirror.
    """
    if isinstance(head, Step):
        return none if pred is None else pred[parent]
    if isinstance(head, StarStep):
        if tail is none and pred is not None:
            return pred[node]
        return tail
    if isinstance(head, Msg):
        hit = sender is not None and proc == head.dst and sender_proc == head.src
        return sender[parent] if hit else none
    return tail if sigma == head.letter else none  # LabelTest


class PathTrie:
    """A set of paths compiled into a prefix tree, so that paths sharing a
    prefix share its θ entries.  Node 0 is the empty path; each edge
    (node, head, parent) makes node n > 0 the path of ``parent`` extended by
    the symbol ``head``.

    A mirror trie holds paths read on the mirror MSC, whose last is the first
    of the reversed path on the original (see _mirror_symbols).  A single
    path is a chain: node i is its prefix of length i.

    ``step`` runs θ at one event as a program compiled from _theta_rule for
    the event's shape; the programs are kept on the trie.
    """

    def __init__(self, paths: Iterable[tuple], mirror: bool = False):
        self.mirror = mirror
        self._child: dict[tuple, int] = {}  # (parent, head) -> node
        edges: list[tuple] = []
        for symbols in paths:
            node = 0
            for head in symbols:
                nxt = self._child.get((node, head))
                if nxt is None:
                    nxt = self._child[node, head] = len(edges) + 1
                    edges.append((nxt, head, node))
                node = nxt
        self.edges = tuple(edges)
        self._programs: dict[tuple, tuple] = {}
        self._slots: Optional[list] = None

    def find(self, symbols: tuple) -> int:
        """The node of a path of the trie, or of a prefix of one."""
        node = 0
        for head in symbols:
            node = self._child[node, head]
        return node

    def step(self, none, base, pred, sender, proc, sender_proc, sigma) -> tuple:
        """θ at one event over the nodes of the trie: entry 0 is ``base``;
        ``pred`` and ``sender`` are θ at the ⊏-predecessor and at the message
        sender, None when the event has none."""
        key = (pred is not None, None if sender is None else sender_proc, proc, sigma)
        program = self._programs.get(key)
        if program is None:
            # a program compiled without reading the letter serves every letter
            program = self._programs.get(key[:3])
            if program is None:
                letter = _Letter(sigma)
                program = self._compile(*key[:3], letter)
                if not letter.read:
                    self._programs[key[:3]] = program
            self._programs[key] = program
        patches, gather = program
        src = [none, base, *(pred or ()), *(sender or ())]
        for tail, alt in patches:
            v = src[tail]
            src.append(src[alt] if v is none else v)
        return gather(src)

    def _compile(self, has_pred: bool, sender_proc, proc, sigma) -> tuple:
        """The program of one event shape: _theta_rule run on the slots of
        the list [none, base, *θ(pred), *θ(sender)], so that each entry is
        found to copy one slot.  The rule reads a tail only to copy it, or,
        for →*, another slot when the tail is none; such an entry gets a slot
        of its own, appended in node order by a patch (tail slot, slot read
        instead).  The result is the patches and the gather of every node's
        slot."""
        n = len(self.edges) + 1
        if self._slots is None:  # enough for θ(pred), θ(sender) and a patch per node
            self._slots = [_Slot(i) for i in range(2 + 3 * n)]
        slots = self._slots
        none = slots[0]
        pred = slots[2 : 2 + n] if has_pred else None
        offset = 2 + n * has_pred
        sender = None if sender_proc is None else slots[offset : offset + n]
        free = offset + n * (sender is not None)  # the first patch slot
        shape = (pred, sender, proc, sender_proc, sigma)
        entry = [slots[1]]
        patches = []
        for node, head, parent in self.edges:
            tail = entry[parent]
            v = _theta_rule(head, parent, node, tail, none, *shape)
            if v is tail and v is not none:
                v_none = _theta_rule(head, parent, node, none, none, *shape)
                if v_none is not none:
                    patches.append((tail.i, v_none.i))
                    v = slots[free]
                    free += 1
            entry.append(v)
        at = [s.i for s in entry]
        gather = operator.itemgetter(*at) if len(at) > 1 else lambda src: (src[1],)
        return tuple(patches), gather


class _Slot:
    """A position in the list of values of a compiled step."""

    __slots__ = ("i",)

    def __init__(self, i: int):
        self.i = i


class _Letter:
    """An event's letter while its step is compiled, noting whether the rule
    compared it with anything."""

    __slots__ = ("letter", "read")

    def __init__(self, letter):
        self.letter, self.read = letter, False

    def __eq__(self, other):
        self.read = True
        return self.letter == other

    __hash__ = None


@functools.cache
def _chain_trie(symbols: tuple, mirror: bool) -> PathTrie:
    """The one-path trie of ``symbols``, one per path and direction, so that
    its compiled programs serve every pass and core on that path."""
    return PathTrie([symbols], mirror)


# ⊥ and ⊤ among event indices
_BOT, _TOP = -1, -2


def _trie_pass(m: Msc, trie: PathTrie) -> list[tuple]:
    """trie.step along a linearization (of the mirror for a mirror trie), with
    each event as its index in ``m.events``: entry n of the result at index i
    is the index of last (first, on a mirror trie) of node n's path from
    event i, or _BOT (_TOP) if there is none."""
    x = m.mirror if trie.mirror else m
    none = _TOP if trie.mirror else _BOT
    idx = m.index
    theta: list = [None] * len(m.events)
    for e in linearize(x):
        pred = x.proc_pred_of(e)
        sender = x.send_of.get(e)
        theta[idx[e]] = trie.step(
            none,
            idx[e],
            None if pred is None else theta[idx[pred]],
            None if sender is None else theta[idx[sender]],
            x.loc[e],
            None if sender is None else x.loc[sender],
            x.label[e],
        )
    return theta


def trie_maps(m: Msc, trie: PathTrie) -> list[tuple]:
    """_trie_pass(m, trie), computed once per MSC and kept in its caches
    under the trie itself."""
    maps = m._caches.get(trie)
    if maps is None:
        maps = m._caches[trie] = _trie_pass(m, trie)
    return maps


def _mirror_symbols(pi: PathExpr) -> tuple:
    """π read backwards with each msg(p,q) turned into msg(q,p): its last on
    the mirror MSC is π's first on the original."""
    return tuple(
        Msg(s.dst, s.src) if isinstance(s, Msg) else s for s in reversed(pi.symbols)
    )


# ---------------------------------------------------------------------------
# direct propagation passes
# ---------------------------------------------------------------------------


def _chain_theta(m: Msc, trie: PathTrie, base: dict, none) -> dict[str, tuple]:
    """The trie pass on a one-path trie, each event index read through base."""
    vals = [base[e] for e in m.events]
    return {
        e: tuple(none if g < 0 else vals[g] for g in row)
        for e, row in zip(m.events, _trie_pass(m, trie))
    }


def last_theta(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, tuple]:
    """θ(e)[i] = base(last_{π[:i]}(e)) for every prefix length i, ⊥ if none."""
    return _chain_theta(m, _chain_trie(pi.symbols, False), base, BOTTOM)


def last_value(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, Hashable]:
    th = last_theta(m, pi, base)
    return {e: th[e][-1] for e in m.events}


def first_theta(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, tuple]:
    """θ(e)[j] = base(first_{π'}(e)) for the suffix π' of length j, ⊤ if none.

    first_{π'} on M is last of the reversed path on the mirror of M, so this
    is the last pass on the mirror with ⊤ in place of ⊥.
    """
    return _chain_theta(m, _chain_trie(_mirror_symbols(pi), True), base, TOP)


def first_value(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, Hashable]:
    th = first_theta(m, pi, base)
    return {e: th[e][-1] for e in m.events}


def fa_value(
    m: Msc, pi: PathExpr, pi2: PathExpr, base: dict[str, Hashable]
) -> dict[str, Hashable]:
    """base(first_{π'}(last_π(e))), with base(⊥)=⊥ and base(⊤)=⊤."""
    chi = first_value(m, pi2, base)
    return last_value(m, pi, chi)


def fixpoint_bits(m: Msc, pi: PathExpr, pi2: PathExpr) -> dict[str, bool]:
    """bit(e) = [first_{π'}(last_π(e)) = e]."""
    out = fa_target(m, pi, pi2)
    return {e: out[e] == e for e in m.events}


def fa_target(m: Msc, pi: PathExpr, pi2: PathExpr) -> dict[str, Hashable]:
    """The event first_{π'}(last_π(e)) itself (or a sentinel)."""
    return fa_value(m, pi, pi2, {e: e for e in m.events})


def closure_with_star(paths: Iterable[PathExpr]) -> tuple[PathExpr, ...]:
    """Π plus π→* for each π ∈ Π (identifying π→*→* with π→*)."""
    out: list[PathExpr] = []
    for pi in paths:
        for cand in (pi, star_append(pi)):
            if cand not in out:
                out.append(cand)
    return tuple(out)


def _star_app(clos: tuple) -> tuple:
    """Per closure path π_i, the index of π_i →* in the closure."""
    return tuple(clos.index(star_append(a)) for a in clos)


class _ClosurePlan:
    """The closure ``clos`` of ``paths`` addressed by index, with the trie
    nodes the ⪯ recurrence reads: last_a of each closure path a on the
    last-trie, and first_{→*b}, first_{→+b} of each closure path b on the
    first-trie.  ``members[k]`` is the index of the k-th given path.
    """

    def __init__(
        self, paths: tuple, clos: tuple, last_trie: PathTrie, first_trie: PathTrie
    ):
        self.clos = clos
        self.members = tuple(clos.index(pi) for pi in paths)
        self.star_app = _star_app(clos)
        self.last_trie, self.first_trie = last_trie, first_trie
        self.last_nodes = tuple(last_trie.find(a.symbols) for a in clos)
        self.star_nodes, self.plus_nodes = (
            tuple(first_trie.find(_mirror_symbols(prepend(b))) for b in clos)
            for prepend in (star_prepend, plus_prepend)
        )


def _closure_plans(path_sets: list[tuple]) -> list[_ClosurePlan]:
    """One plan per path set, all of them on one last-trie and one first-trie."""
    closures = [closure_with_star(paths) for paths in path_sets]
    last_trie = PathTrie([a.symbols for clos in closures for a in clos])
    first_trie = PathTrie(
        [
            _mirror_symbols(prepend(b))
            for clos in closures
            for b in clos
            for prepend in (star_prepend, plus_prepend)
        ],
        mirror=True,
    )
    return [
        _ClosurePlan(paths, clos, last_trie, first_trie)
        for paths, clos in zip(path_sets, closures)
    ]


@functools.cache
def _preorder_plan(paths: tuple) -> _ClosurePlan:
    return _closure_plans([paths])[0]


def preorder_combine(
    star_app: tuple, prev: Optional[frozenset], bot, star_bits, plus_bits
) -> frozenset:
    """One step of the ⪯ recurrence along ⊏ (shared by both machine routes),
    over the closure by index: the result holds (i, j) when π_i ⪯ π_j.

    With c closure paths, bot[i] is [last_{π_i}(f) = ⊥] and star_bits[i*c + j]
    (plus_bits[i*c + j]) says f is a f^{π_i,→*π_j} (f^{π_i,→+π_j}) fixpoint.
    (i,j) holds at f when: f is the first q-event (prev is None) or the pair
    of star-closed paths did not hold before, and last_{π_i}(f)=⊥ or f is a
    f^{π_i,→*π_j}-fixpoint; otherwise the pair persists unless f is a
    f^{π_j,→+π_i}-fixpoint or π_j newly became ⊥-free while π_i did not.
    """
    c = len(star_app)
    pairs = []
    for i in range(c):
        for j in range(c):
            if prev is None or (star_app[i], star_app[j]) not in prev:
                holds = bot[i] or star_bits[i * c + j]
            else:
                holds = not plus_bits[j * c + i] and (bot[i] or not bot[j])
            if holds:
                pairs.append((i, j))
    return frozenset(pairs)


def _preorder_steps(m: Msc, q: str, plan: _ClosurePlan):
    """Per q-event f in process order: f, the last events of the closure
    paths at f (event indices, _BOT for ⊥) and ⪯_f as closure index pairs,
    all read off the plan's trie maps.

    f is an f^{a,π'}-fixpoint iff first_{π'}(last_a(f)) = f.
    """
    lasts = trie_maps(m, plan.last_trie)
    firsts = trie_maps(m, plan.first_trie)
    idx = m.index
    pre: Optional[frozenset] = None
    for f in m.events_of(q):
        i = idx[f]
        row = lasts[i]
        at = [row[n] for n in plan.last_nodes]
        star_bits, plus_bits = (
            [g >= 0 and firsts[g][n] == i for g in at for n in nodes]
            for nodes in (plan.star_nodes, plan.plus_nodes)
        )
        pre = preorder_combine(
            plan.star_app, pre, [g == _BOT for g in at], star_bits, plus_bits
        )
        yield f, at, pre


def _path_pairs(clos: tuple, pre: frozenset) -> frozenset:
    return frozenset((clos[i], clos[j]) for i, j in pre)


def preorder_bits(
    m: Msc, q: str, paths: tuple[PathExpr, ...]
) -> dict[str, frozenset]:
    """For each q-event f, the set of pairs (π,π') with π ⪯_f π', over the
    star closure of the given path set, by the three switch rules along ⊏."""
    plan = _preorder_plan(tuple(paths))
    return {f: _path_pairs(plan.clos, pre) for f, _, pre in _preorder_steps(m, q, plan)}


def ord_annotation(pairs: frozenset, paths: Iterable[PathExpr]) -> frozenset:
    """Canonical preorder value: string pairs restricted to the original set."""
    keep = set(paths)
    return frozenset(
        (format_path(a), format_path(b)) for a, b in pairs if a in keep and b in keep
    )


# ---------------------------------------------------------------------------
# machine cores
# ---------------------------------------------------------------------------
#
# Component protocol: start() -> state; step(state, ctx, base, payload_in,
# want=None) yields (new_state, output_value, payload_out); final(state) ->
# bool.  States are the θ functions as tuples indexed by prefix (LastCore) or
# suffix (FirstCore) length; "start" marks an empty process history.
#
# ``want`` is a wanted new state, which the run search never passes.  With
# it, a step yields a subset of its moves that holds every move to ``want``:
# a guessing core guesses only what ``want`` holds, and a core may ignore it.


def _moves_to(moves, state):
    return (mv for mv in moves if mv[0] == state)


def product_moves(parts, msg_in, send: bool, want=None):
    """The moves of independent parts combined at one event.

    Part i is called once, with msg_in[i] (None when no message arrives) and
    want[i] (None without ``want``), and yields its moves as (state, out,
    payload).  Each combination comes out as (states, outs, payload), the
    payload being the parts' payloads on a send and None otherwise, with the
    last part varying fastest.  With ``want``, part i's moves to any state
    but want[i] are dropped.  A part's moves are pulled only as far as the
    combinations need them and kept, so no product is held in memory, and
    the product ends as soon as one part turns out to have no move.
    """
    n = len(parts)
    gens = [
        part(None if msg_in is None else msg_in[i], None if want is None else want[i])
        for i, part in enumerate(parts)
    ]
    if want is not None:
        gens = [_moves_to(gen, w) for gen, w in zip(gens, want)]
    seen: list[list] = [[] for _ in parts]  # the moves pulled from each part
    pick = [0] * n  # the current combination
    i = 0
    while i >= 0:
        if i < n and pick[i] == len(seen[i]):
            move = next(gens[i], None)
            if move is None and pick[i] == 0:
                return  # part i has no move, so neither has the product
            if move is not None:
                seen[i].append(move)
        if i < n and pick[i] < len(seen[i]):
            i += 1
            continue
        if i == n:
            moves = [kept[k] for kept, k in zip(seen, pick)]
            yield (
                tuple(mv[0] for mv in moves),
                tuple(mv[1] for mv in moves),
                tuple(mv[2] for mv in moves) if send else None,
            )
        else:  # part i is exhausted: start it over, advance the part before
            pick[i] = 0
        i -= 1
        if i >= 0:
            pick[i] += 1


class StepCtx:
    """Local view of one event: process, kind, peer, base-alphabet letter."""

    __slots__ = ("proc", "kind", "peer", "sigma")

    def __init__(self, proc, kind, peer, sigma):
        self.proc = proc
        self.kind = kind
        self.peer = peer
        self.sigma = sigma


class LastCore:
    """Deterministic forward tracking of θ over prefixes of π: the trie pass
    on π's chain, one event at a time."""

    def __init__(self, pi: PathExpr):
        self.trie = _chain_trie(pi.symbols, False)

    def start(self):
        return "start"

    def step(self, state, ctx: StepCtx, base, payload_in, want=None):
        t = self.trie.step(
            BOTTOM,
            base,
            None if state == "start" else state,
            payload_in,
            ctx.proc,
            ctx.peer,
            ctx.sigma,
        )
        yield t, t[-1], t if ctx.kind == "send" else None

    def final(self, state) -> bool:
        return True


_FREE = object()  # a FirstCore entry that reads a neighbour not yet seen


class FirstCore:
    """Guess-based forward realization of θ over suffixes of π.

    This is _theta_rule on the mirror, along the chain of π read backwards:
    entry j is the value of the suffix of length j, whose head is the j-th
    symbol from the end; the mirror's ⊏-predecessor is the ⊏-successor and
    the sender of a send is its receiver.  Both are later events, so at an
    event their θ is unseen (every entry _FREE) and each entry the rule
    leaves _FREE is guessed from Θ∪{⊤}, or, given a wanted state, only
    from that state's entry.
    When such a neighbour is seen (the successor at the next step, the
    receiver at the matching receive, no successor in final()), the same rule
    recomputes the entries that read it.
    """

    def __init__(self, pi: PathExpr, theta_set: tuple):
        self.edges = _chain_trie(_mirror_symbols(pi), True).edges
        self.domain = tuple(theta_set) + (TOP,)
        self.unseen = (_FREE,) * (len(self.edges) + 1)
        self.domains = (self.domain,) * len(self.unseen)  # per node, its guesses

    def start(self):
        return "start"

    def step(self, state, ctx: StepCtx, base, payload_in, want=None):
        send = ctx.kind == "send"
        later = (self.unseen, self.unseen if send else None, ctx.proc, ctx.peer, ctx.sigma)
        domains = self.domains
        if want is not None:
            domains = [(g,) if g in self.domain else () for g in want]
        guesses = [(base,)]
        for node, head, parent in self.edges:
            grown = []
            for t in guesses:
                v = _theta_rule(head, parent, node, t[parent], TOP, *later)
                if v is _FREE:
                    grown += [t + (g,) for g in domains[node]]
                else:
                    grown.append(t + (v,))
            guesses = grown
        if state != "start":
            guesses = self._agreeing(state, guesses)
        if payload_in is not None:
            guesses = self._agreeing(payload_in, guesses, (ctx.peer, ctx.proc))
        for t in guesses:
            yield t, t[-1], t if send else None

    def _agreeing(self, t, thetas: list, at: Optional[tuple] = None) -> list:
        """The θs that agree with t at its event's ⊏-successor, or with ``at``
        = (sender process, receiver process) at its message's receiver: from
        each, the rule gives the entries of t that it leaves _FREE while that
        neighbour is unseen.  No letter is passed: none of them reads it."""
        unseen = (self.unseen, None, None, None) if at is None else (None, self.unseen, *at)
        reads = [
            (node, head, parent)
            for node, head, parent in self.edges
            if _theta_rule(head, parent, node, t[parent], TOP, *unseen, None) is _FREE
        ]
        if not reads:
            return thetas
        out = []
        for theta in thetas:
            seen = (theta, None, None, None) if at is None else (None, theta, *at)
            for node, head, parent in reads:
                if _theta_rule(head, parent, node, t[parent], TOP, *seen, None) != t[node]:
                    break
            else:
                out.append(theta)
        return out

    def final(self, state) -> bool:
        return state == "start" or bool(self._agreeing(state, [None]))


class FaCore:
    """first-core for π' chained into a last-core for π (base = θ'(e)(π'))."""

    def __init__(self, pi: PathExpr, pi2: PathExpr, theta_set: tuple):
        self.first = FirstCore(pi2, theta_set)
        self.last = LastCore(pi)

    def start(self):
        return (self.first.start(), self.last.start())

    def step(self, state, ctx: StepCtx, base, payload_in, want=None):
        s5, s4 = state
        p5_in = p4_in = w5 = w4 = None
        if payload_in is not None:
            p5_in, p4_in = payload_in
        if want is not None:
            w5, w4 = want
        for n5, chi, pay5 in self.first.step(s5, ctx, base, p5_in, w5):
            for n4, out, pay4 in self.last.step(s4, ctx, chi, p4_in, w4):
                payload = (pay5, pay4) if ctx.kind == "send" else None
                yield (n5, n4), out, payload

    def final(self, state) -> bool:
        return self.first.final(state[0]) and self.last.final(state[1])


FOUR_COLORS = ("c1", "c2", "z1", "z2")


class FixCore:
    """Fixpoint detection: γ(e) = [fa(e) = e] on process q, via 4-coloring.

    The γ bit is supplied by the caller (from the label, or guessed by an
    enclosing machine); ζ colors are computed (γ=1 alternates c1/c2) or
    guessed (γ=0 from {z1, z2}); events off q get a fixed dummy color, which
    is sound because only q-colors ever reach a comparison.
    """

    def __init__(self, q: str, pi: PathExpr, pi2: PathExpr):
        self.q = q
        self.fa = FaCore(pi, pi2, FOUR_COLORS)

    def start(self):
        return (self.fa.start(), "c2")  # alternation starts at c1

    def step_with_bit(self, state, ctx: StepCtx, gamma, payload_in, want=None):
        fa_state, alt = state
        if ctx.proc != self.q:
            zetas = [("z1", alt)]
        elif gamma == 1:
            nxt = "c1" if alt == "c2" else "c2"
            zetas = [(nxt, nxt)]
        else:
            zetas = [("z1", alt), ("z2", alt)]
        fa_want = None
        if want is not None:  # the colour is entry 0 of the first-core's θ
            fa_want, want_alt = want
            zetas = [z for z in zetas if z == (fa_want[0][0], want_alt)]
        for zeta, new_alt in zetas:
            for n_fa, out, payload in self.fa.step(fa_state, ctx, zeta, payload_in, fa_want):
                if ctx.proc == self.q:
                    if (gamma == 1) != (out == zeta):
                        continue
                yield (n_fa, new_alt), payload

    def guess(self, state, ctx: StepCtx, payload_in, want=None):
        """step_with_bit with the bit guessed, γ ∈ {0,1} on q and γ = 0
        elsewhere; each move's output is its γ."""
        for gamma in (0, 1) if ctx.proc == self.q else (0,):
            for new_state, payload in self.step_with_bit(state, ctx, gamma, payload_in, want):
                yield new_state, gamma, payload

    def final(self, state) -> bool:
        return self.fa.final(state[0])


class PreorderCore:
    """All fixpoint/bottom components for a path set, plus the ⪯ recurrence.

    State: the components' states and the previous q-event's preorder
    (closure index pairs).  A step is the product of the components' moves:
    at each q-event every fixpoint component guesses its own bit, for later
    verification, and preorder_combine reads the bits off the moves' outputs
    into the next preorder, which is the core's output.  With c closure
    paths, the components are the bottom trackers, bots[i] for π_i, then
    fixes, indexed like the recurrence's bits: fixes[i*c + j] and
    fixes[c*c + i*c + j] for the f^{π_i,→*π_j} and f^{π_i,→+π_j} fixpoints.
    """

    def __init__(self, q: str, paths: tuple[PathExpr, ...]):
        self.q = q
        self.clos = closure_with_star(paths)
        self.star_app = _star_app(self.clos)
        self.bots = tuple(LastCore(a) for a in self.clos)
        self.fixes = tuple(
            FixCore(q, a, prepend(b))
            for prepend in (star_prepend, plus_prepend)
            for a in self.clos
            for b in self.clos
        )

    def start(self):
        states = tuple(bc.start() for bc in self.bots) + tuple(
            fc.start() for fc in self.fixes
        )
        return states, None  # no previous preorder

    def step(self, state, ctx: StepCtx, payload_in, want=None):
        states, prev = state
        c = len(self.bots)
        parts = [
            functools.partial(bc.step, s, ctx, "•") for bc, s in zip(self.bots, states)
        ] + [functools.partial(fc.guess, s, ctx) for fc, s in zip(self.fixes, states[c:])]
        moves = product_moves(
            parts, payload_in, ctx.kind == "send", None if want is None else want[0]
        )
        if ctx.proc != self.q:
            for new_states, _, payload in moves:
                yield (new_states, prev), None, payload
            return
        plus = c + c * c  # the outputs from here on are the →+ fixpoint bits
        for new_states, outs, payload in moves:
            bot = [out is BOTTOM for out in outs[:c]]
            pre = preorder_combine(self.star_app, prev, bot, outs[c:plus], outs[plus:])
            yield (new_states, pre), pre, payload

    def final(self, state) -> bool:
        states = state[0][len(self.bots) :]
        return all(fc.final(s) for fc, s in zip(self.fixes, states))


# ---------------------------------------------------------------------------
# the machine wrapper
# ---------------------------------------------------------------------------


class AnnotationCfm(LazyCfm):
    """A LazyCfm over an annotated alphabet, plus its direct decision route.

    decide(ext) computes the machine's unique consistent internal valuation
    with the direct passes and compares annotations; it defines the same
    language as the transition relation.  The two are cross-validated by run
    search on small instances and, where ``canonical_states`` is given, by
    ``replay`` of the valuation's run through the composite relation.
    ``accepts`` on the product-labeled encoding runs the search instead.
    """

    def __init__(
        self,
        name: str,
        starts,
        step_fn,
        final_ok,
        annotate: Callable[..., dict],
        decide: Callable[[ExtendedMsc], bool],
        canonical: Optional[Callable[[Msc], dict]] = None,
    ):
        super().__init__(None, starts, step_fn, final_ok, name)
        self._annotate_fn = annotate
        self._decide_fn = decide
        self._canonical_fn = canonical

    def annotate(self, m: Msc, *args, **kwargs) -> dict:
        """The canonical correct annotation."""
        return self._annotate_fn(m, *args, **kwargs)

    def decide(self, ext: ExtendedMsc) -> bool:
        return self._decide_fn(ext)

    def canonical_states(self, m: Msc) -> dict:
        """Per event, the structured state its process reaches in the unique
        accepting run on the correctly annotated MSC."""
        if self._canonical_fn is None:
            raise NotImplementedError(f"{self.name} has no canonical-state pass")
        return self._canonical_fn(m)


def _decode_label(label):
    if not (isinstance(label, tuple) and len(label) == 2):
        raise ValueError(f"expected (label, annotation) pairs, got {label!r}")
    return label


def _split_pair_annot(ext: ExtendedMsc) -> tuple[dict, dict]:
    xi1, xi2 = {}, {}
    for e, v in ext.annot.items():
        if not (isinstance(v, tuple) and len(v) == 2):
            raise ValueError(f"annotation at {e!r} is not a (ξ1, ξ2) pair")
        xi1[e], xi2[e] = v
    return xi1, xi2


def _pair_machine(
    core, name, annotate, decide, check_all: bool, check_proc: Optional[str] = None
) -> AnnotationCfm:
    """Wrap a θ-core whose annotations are (ξ1, ξ2) pairs."""

    def starts(p):
        return [core.start()]

    def step(p, state, kind, label, peer, msg_in):
        sigma, (xi1, xi2) = _decode_label(label)
        ctx = StepCtx(p, kind, peer, sigma)
        for new_state, out, payload in core.step(state, ctx, xi1, msg_in):
            if check_all or p == check_proc:
                if out != xi2:
                    continue
            yield new_state, payload

    def final_ok(p, state):
        return core.final(state)

    return AnnotationCfm(name, starts, step, final_ok, annotate, decide)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_last_label_cfm(theta_set: Iterable[Hashable], pi: PathExpr) -> AnnotationCfm:
    """ξ: E → Θ×(Θ∪{⊥}) with ξ2(e) = ξ1(last_π(e)); checked at every event."""
    theta_set = tuple(theta_set)
    if BOTTOM in theta_set:
        raise ValueError("⊥ cannot be a member of Θ")

    def annotate(m, xi1):
        vals = last_value(m, pi, xi1)
        return {e: (xi1[e], vals[e]) for e in m.events}

    def decide(ext):
        xi1, xi2 = _split_pair_annot(ext)
        vals = last_value(ext.base, pi, xi1)
        return all(xi2[e] == vals[e] for e in ext.base.events)

    return _pair_machine(
        LastCore(pi),
        f"last-label[{format_path(pi)}]",
        annotate,
        decide,
        check_all=True,
    )


def build_first_label_cfm(theta_set: Iterable[Hashable], pi: PathExpr) -> AnnotationCfm:
    """ξ: E → Θ×(Θ∪{⊤}) with ξ2(e) = ξ1(first_π(e)); checked at every event."""
    theta_set = tuple(theta_set)
    if TOP in theta_set:
        raise ValueError("⊤ cannot be a member of Θ")

    def annotate(m, xi1):
        vals = first_value(m, pi, xi1)
        return {e: (xi1[e], vals[e]) for e in m.events}

    def decide(ext):
        xi1, xi2 = _split_pair_annot(ext)
        vals = first_value(ext.base, pi, xi1)
        return all(xi2[e] == vals[e] for e in ext.base.events)

    return _pair_machine(
        FirstCore(pi, theta_set),
        f"first-label[{format_path(pi)}]",
        annotate,
        decide,
        check_all=True,
    )


def build_fa_label_cfm(
    theta_set: Iterable[Hashable],
    p: str,
    q: str,
    pi: PathExpr,
    pi2: PathExpr,
    sig: Optional[SystemSignature] = None,
) -> AnnotationCfm:
    """ξ2(e) = ξ1(first_{π'}(last_π(e))) for e on process q."""
    theta_set = tuple(theta_set)
    if BOTTOM in theta_set or TOP in theta_set:
        raise ValueError("Θ must avoid the sentinels")
    if sig is not None:
        if (p, q) not in comp(sig, pi) or (p, q) not in comp(sig, pi2):
            raise PathError(f"paths are not both compatible with ({p},{q})")

    def annotate(m, xi1):
        vals = fa_value(m, pi, pi2, xi1)
        return {e: (xi1[e], vals[e] if m.loc[e] == q else xi1[e]) for e in m.events}

    def decide(ext):
        xi1, xi2 = _split_pair_annot(ext)
        vals = fa_value(ext.base, pi, pi2, xi1)
        return all(xi2[e] == vals[e] for e in ext.base.events_of(q))

    return _pair_machine(
        FaCore(pi, pi2, theta_set),
        f"fa-label[{format_path(pi)};{format_path(pi2)}]@{q}",
        annotate,
        decide,
        check_all=False,
        check_proc=q,
    )


def build_fixpoint_cfm(p: str, q: str, pi: PathExpr, pi2: PathExpr) -> AnnotationCfm:
    """(M,γ) with γ(e) = [first_{π'}(last_π(e)) = e] for every q-event."""
    core = FixCore(q, pi, pi2)

    def annotate(m):
        bits = fixpoint_bits(m, pi, pi2)
        return {e: (1 if bits[e] else 0) if m.loc[e] == q else 0 for e in m.events}

    def decide(ext):
        bits = fixpoint_bits(ext.base, pi, pi2)
        return all(
            ext.annot[e] == (1 if bits[e] else 0) for e in ext.base.events_of(q)
        )

    def starts(pp):
        return [core.start()]

    def step(pp, state, kind, label, peer, msg_in, want=None):
        sigma, gamma = _decode_label(label)
        ctx = StepCtx(pp, kind, peer, sigma)
        yield from core.step_with_bit(state, ctx, gamma, msg_in, want)

    def final_ok(pp, state):
        return core.final(state)

    return AnnotationCfm(
        f"fixpoint[{format_path(pi)};{format_path(pi2)}]@{q}",
        starts,
        step,
        final_ok,
        annotate,
        decide,
        canonical=lambda m: fix_canonical_states(m, q, pi, pi2),
    )


def build_preorder_cfm(
    p: str,
    q: str,
    paths: Iterable[PathExpr],
    sig: Optional[SystemSignature] = None,
) -> AnnotationCfm:
    """(M,γ) with γ(f) = the preorder ⪯_f over the given path set, on E_q."""
    paths = tuple(paths)
    if sig is not None:
        for pi in paths:
            pairs = comp(sig, pi)
            if not any(pq[1] == q for pq in pairs):
                raise PathError(f"mixed Comp pairs: {format_path(pi)} cannot end on {q}")
    core = PreorderCore(q, paths)

    def annotate(m):
        bits = preorder_bits(m, q, paths)
        empty = frozenset()
        return {
            e: ord_annotation(bits[e], paths) if m.loc[e] == q else empty
            for e in m.events
        }

    def decide(ext):
        bits = preorder_bits(ext.base, q, paths)
        return all(
            ext.annot[e] == ord_annotation(bits[e], paths)
            for e in ext.base.events_of(q)
        )

    def starts(pp):
        return [core.start()]

    def step(pp, state, kind, label, peer, msg_in, want=None):
        sigma, annot = _decode_label(label)
        ctx = StepCtx(pp, kind, peer, sigma)
        for new_state, out, payload in core.step(state, ctx, msg_in, want):
            if pp == q and annot != ord_annotation(_path_pairs(core.clos, out), paths):
                continue
            yield new_state, payload

    def final_ok(pp, state):
        return core.final(state)

    return AnnotationCfm(
        f"preorder@{q}[{len(paths)} paths]",
        starts,
        step,
        final_ok,
        annotate,
        decide,
        canonical=lambda m: preorder_canonical_states(m, q, paths),
    )


def gossip_value_encoding(v) -> Optional[str]:
    return None if v is BOTTOM else v


_NO_MAXIMUM = object()


def gossip_component_value(members: tuple, pre_pairs: frozenset, values):
    """One ξ-component: the last-label along a ⪯-maximal path (None if that
    last is ⊥); the sentinel when the claimed preorder has no maximum (which
    only happens under inconsistent guesses).  Shared by both machine routes.

    ``members`` are the family's closure indices, ``pre_pairs`` the preorder
    as closure index pairs and ``values[k]`` the label value of the k-th
    member.
    """
    for k, j in enumerate(members):
        if all((other, j) in pre_pairs for other in members):
            return gossip_value_encoding(values[k])
    return _NO_MAXIMUM


@functools.cache
def _gossip_plan(sig: SystemSignature) -> tuple:
    """(src, tgt, family, closure plan) for every pair, tgt-major, the plans
    sharing one last-trie and one first-trie; compiled once per signature."""
    combos = [
        (src, tgt, gossip_paths_between(sig, src, tgt))
        for tgt in sig.processes
        for src in sig.processes
    ]
    plans = _closure_plans([fam for _, _, fam in combos])
    return tuple(combo + (plan,) for combo, plan in zip(combos, plans))


def build_gossip_cfm(sig: SystemSignature) -> AnnotationCfm:
    """(M,ξ) with ξ(e) = (λ(latest p₁-event under e), ..., λ(latest p_k ...)).

    The annotation at each event is the tuple, in process order, of the label
    of the most recent event of that process in the strict causal past (None
    when there is none).  Internally each component value is obtained as the
    last-label along a ⪯-maximal gossip path, never from the causal order
    directly.
    """
    procs = sig.processes
    combos = _gossip_plan(sig)

    @functools.cache
    def cores() -> tuple:
        """Per pair, its PreorderCore and one LastCore per family path; built
        the first time a search needs them, so annotate and decide never do."""
        return tuple(
            (PreorderCore(tgt, fam), tuple(LastCore(pi) for pi in fam))
            for _, tgt, fam, _ in combos
        )

    def annotate(m):
        # depends only on the base MSC; memoized so repeated membership
        # queries on the same MSC (mutation sweeps) cost one computation
        key = ("gossip-annot", procs)
        cached = m._caches.get(key)
        if cached is not None:
            return cached
        labels = [m.label[e] for e in m.events]
        out = {e: [] for e in m.events}
        for _, tgt, _, plan in combos:  # src in process order for each tgt
            for f, at, pre in _preorder_steps(m, tgt, plan):
                values = [BOTTOM if at[j] == _BOT else labels[at[j]] for j in plan.members]
                val = gossip_component_value(plan.members, pre, values)
                assert val is not _NO_MAXIMUM  # the true preorder is total
                out[f].append(val)
        result = {e: tuple(vals) for e, vals in out.items()}
        m._caches[key] = result
        return result

    def decide(ext):
        want = annotate(ext.base)
        return all(ext.annot[e] == want[e] for e in ext.base.events)

    def starts(p):
        state = tuple(
            (pc.start(), *(vc.start() for vc in vcs)) for pc, vcs in cores()
        )
        return [state]

    def step(p, state, kind, label, peer, msg_in, want=None):
        sigma, xi = _decode_label(label)
        ctx = StepCtx(p, kind, peer, sigma)
        if not (isinstance(xi, tuple) and len(xi) == len(procs)):
            return
        xi_by_proc = dict(zip(procs, xi))
        send = kind == "send"

        def pair_moves(src, tgt, plan, pc, vcs, pair_state, msg_in, want):
            """The product of a pair's PreorderCore and value LastCores,
            checked against the claimed component at tgt."""
            parts = [functools.partial(pc.step, pair_state[0], ctx)] + [
                functools.partial(vc.step, s, ctx, sigma)
                for vc, s in zip(vcs, pair_state[1:])
            ]
            for states, outs, payload in product_moves(parts, msg_in, send, want):
                if p != tgt or xi_by_proc[src] == gossip_component_value(
                    plan.members, outs[0], outs[1:]
                ):
                    yield states, None, payload

        parts = [
            functools.partial(pair_moves, src, tgt, plan, pc, vcs, pair_state)
            for (src, tgt, _, plan), (pc, vcs), pair_state in zip(combos, cores(), state)
        ]
        for states, _, payload in product_moves(parts, msg_in, send, want):
            yield states, payload

    def final_ok(p, state):
        return all(pc.final(st[0]) for (pc, _), st in zip(cores(), state))

    def canonical(m):
        parts = [
            (
                preorder_canonical_states(m, tgt, fam),
                [last_theta(m, pi, m.label) for pi in fam],
            )
            for _, tgt, fam, _ in combos
        ]
        return {
            e: tuple((pre[e], *(th[e] for th in ths)) for pre, ths in parts)
            for e in m.events
        }

    return AnnotationCfm(
        "gossip", starts, step, final_ok, annotate, decide, canonical=canonical
    )


def oracle_gossip_annotation(m: Msc) -> ExtendedMsc:
    """Ground truth straight from the causal order (independent of the chain)."""
    from .msc import vector_clocks

    lasts = vector_clocks(m)
    annot = {
        e: tuple(None if g is BOTTOM else m.label[g] for g in lasts[e]) for e in m.events
    }
    return ExtendedMsc(m, annot)


# ---------------------------------------------------------------------------
# canonical runs and state reporting
# ---------------------------------------------------------------------------


def canonical_coloring(m: Msc, q: str, pi: PathExpr, pi2: PathExpr) -> dict:
    """A 4-coloring witnessing the correct fixpoint bits.

    q-events with bit 1 alternate the two real colors along the process;
    bit-0 q-events take a hatted color different from their fa-target's
    (the targets form a functional graph, so chains and even cycles can
    always be 2-colored); other processes get a fixed dummy color.
    """
    bits = fixpoint_bits(m, pi, pi2)
    targets = fa_target(m, pi, pi2)
    zeta = {e: "z1" for e in m.events}
    alt = "c2"
    for e in m.events_of(q):
        if bits[e]:
            alt = "c1" if alt == "c2" else "c2"
            zeta[e] = alt
    gray = [e for e in m.events_of(q) if not bits[e]]
    grayset = set(gray)
    succ = {e: targets[e] for e in gray if targets[e] in grayset}
    color: dict[str, str] = {}
    for start in gray:
        if start in color:
            continue
        chain = [start]
        cur = succ.get(start)
        while cur is not None and cur not in color and cur not in chain:
            chain.append(cur)
            cur = succ.get(cur)
        if cur is not None and cur in chain:
            cyc = chain[chain.index(cur) :]
            chain = chain[: chain.index(cur)]
            if len(cyc) % 2:
                raise AssertionError("odd fa-target cycle; no valid coloring")
            for i, x in enumerate(cyc):
                color[x] = "z1" if i % 2 == 0 else "z2"
        for x in reversed(chain):
            nxt = succ.get(x)
            color[x] = "z2" if color.get(nxt) == "z1" else "z1"
    zeta.update(color)
    return zeta


def fix_canonical_states(m: Msc, q: str, pi: PathExpr, pi2: PathExpr) -> dict:
    """Per event, the FixCore state on the unique accepting run."""
    zeta = canonical_coloring(m, q, pi, pi2)
    th5 = first_theta(m, pi2, zeta)
    th4 = last_theta(m, pi, {e: th5[e][-1] for e in m.events})
    bits = fixpoint_bits(m, pi, pi2)
    alt = {p: "c2" for p in m.signature.processes}
    out = {}
    for e in linearize(m):
        p = m.loc[e]
        if p == q and bits[e]:
            alt[p] = "c1" if alt[p] == "c2" else "c2"
        out[e] = ((th5[e], th4[e]), alt[p])
    return out


def preorder_canonical_states(m: Msc, q: str, paths: tuple[PathExpr, ...]) -> dict:
    """Per event, the PreorderCore state on the unique accepting run."""
    plan = _preorder_plan(tuple(paths))
    clos = plan.clos
    parts = [last_theta(m, a, {e: "•" for e in m.events}) for a in clos] + [
        fix_canonical_states(m, q, a, prepend(b))
        for prepend in (star_prepend, plus_prepend)
        for a in clos
        for b in clos
    ]
    pres = {f: pre for f, _, pre in _preorder_steps(m, q, plan)}
    return {e: (tuple(s[e] for s in parts), pres.get(e)) for e in linearize(m)}


class ReplayError(Exception):
    """No move reaches the canonical state at ``event``; None: final_ok fails."""

    def __init__(self, name: str, event: Optional[str]):
        where = "the final check" if event is None else repr(event)
        super().__init__(f"{name}: replay fails at {where}")
        self.event = event


def replay(machine: AnnotationCfm, ext: ExtendedMsc) -> dict[str, list]:
    """Step the composite relation of ``machine`` on ``ext`` along its
    canonical run: along linearize, with FIFO channel queues, each event's
    step given (letter, annotation) and, as ``want``, the event's state in
    machine.canonical_states; then check final_ok.

    Returns, per process, its start state and the state after each of its
    events.  Raises ReplayError at the first event with no move to its
    canonical state, or at the final check.
    """
    m = ext.base
    canon = machine.canonical_states(m)
    states = {p: [next(iter(machine._starts(p)))] for p in m.signature.processes}
    chans: dict[tuple, deque] = defaultdict(deque)
    for e in linearize(m):
        p, kind, peer = m.loc[e], m.kind_of(e), m.peer_of(e)
        msg_in = chans[peer, p].popleft() if kind == "recv" else None
        label = (m.label[e], ext.annot[e])
        for new_state, payload in machine._step(
            p, states[p][-1], kind, label, peer, msg_in, canon[e]
        ):
            if new_state == canon[e]:
                break
        else:
            raise ReplayError(machine.name, e)
        states[p].append(new_state)
        if kind == "send":
            chans[p, peer].append(payload)
    if not all(machine._final(p, trace[-1]) for p, trace in states.items()):
        raise ReplayError(machine.name, None)
    return states


def reachable_state_report(machine: AnnotationCfm, mscs: Iterable[Msc]) -> dict:
    """Distinct states per process that replay reaches on a corpus, each MSC
    with its correct annotation."""
    per_proc: dict[str, set] = {}
    for m in mscs:
        for p, states in replay(machine, ExtendedMsc(m, machine.annotate(m))).items():
            per_proc.setdefault(p, set()).update(states)
    counts = {p: len(s) for p, s in sorted(per_proc.items())}
    return {"per_process": counts, "total": sum(counts.values())}
