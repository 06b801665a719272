"""Shared hand-built MSC fixtures, a random formula grammar and the time
reversal of formulas, used across the test suite.

``fig_base`` is a 24-event MSC over processes p, q, r in which p emits a
stream of b/a events, some relayed to q through r.  ``fig_annotated`` is the
same structure with two q-labels flipped; the flipped version is the one
whose per-event path comparisons are frozen in the tests.
``mirror_formula`` swaps until and since, so the oracle tests can check
``eval_tl`` on an MSC against ``eval_tl`` on its mirror.
``switch_rule_steps`` is ⪯ by the paper's switch rules along ⊏, the
reference that ``preorder_rows`` (⪯ by its definition) is checked against.
``oracle_rows`` is the brute-force ``paths.preorder_at`` in the rows of the
preorder machine's annotation.
``own_letters`` is an MSC's labels indexed like its events, the letters a
trie pass of the MSC itself is given.
``reference_dominance`` is the since/until dominance test read with two
generator ``max`` calls per pair and event, the reference for the compiled
tests of ``tl._dominance``.
``reference_gossip_readout`` is the gossip annotation read with one list
and one ``max`` per family and event, the reference for the compiled
read-outs of ``build_gossip_cfm``.
``reference_eval_tl`` is the brute-force semantics of the logic over
``causal_lt``, the reference for the mask evaluator ``tl.eval_tl``.
``oracle_accepts`` decides acceptance by an explicit CFM by trying every
transition assignment, the reference for the run search, and
``random_cfm`` draws the small explicit machines it is checked on.
``reference_links`` is each event's neighbours by name, read off
``Msc.events_of`` and ``Msc.msg`` alone, the reference for the event table
``Msc._links``; ``reference_kind_peer`` and ``causal_pairs`` are read off it.
``reference_linearize`` (a heap over every ready event),
``reference_pass_layout`` (name-keyed neighbours) and
``reference_causal_below`` (a search back along ⊏ and ◁) are the references
for ``linearize``, ``_pass_layout`` and ``Msc.causal_rows``, which read
the table; ``links_corpus`` is the MSCs they are compared on, and
``renamed`` permutes an MSC's event ids, so that the id order disagrees with
the causal order.
"""

import functools
import heapq
import itertools
import random

from mscgossip.cfm import Cfm, Run, Transition
from mscgossip.constructions import (
    _BOT,
    _gossip_plan,
    _mask,
    _mirror_symbols,
    _star_app,
    _star_lift,
    PathTrie,
    closure_with_star,
    preorder_combine,
    trie_maps,
)
from mscgossip.corpus import random_msc
from mscgossip.msc import Msc, SystemSignature, causal_lt
from mscgossip.paths import gossip_paths_between, plus_prepend, preorder_at, star_prepend
from mscgossip.tl import (
    _since_plan,
    And,
    Atom,
    Bool,
    Co,
    NextOn,
    Not,
    ObsOn,
    Or,
    PrevOn,
    Proc,
    Since,
    TlFormula,
    Until,
    UntilOn,
    expand_derived,
)

SIG3 = SystemSignature(processes=("p", "q", "r"), alphabet=("a", "b", "d"))

_P_LABELS = ["b", "b", "a", "b", "b", "a", "b", "a"]
_Q_LABELS_BASE = ["b", "a", "b", "b", "a", "b", "b", "a"]

_MESSAGES = [
    ("e0", "f0"),
    ("e1", "g0"),
    ("e2", "f1"),
    ("g1", "f2"),
    ("e3", "g2"),
    ("g3", "f3"),
    ("e4", "f5"),
    ("e5", "g4"),
    ("g5", "f4"),
    ("e6", "f6"),
    ("e7", "g6"),
    ("g7", "f7"),
]


def _build(q_labels):
    events = []
    events += [(f"e{i}", "p", _P_LABELS[i]) for i in range(8)]
    events += [(f"f{i}", "q", q_labels[i]) for i in range(8)]
    events += [(f"g{i}", "r", "d") for i in range(8)]
    return Msc(SIG3, events, _MESSAGES)


def fig_base() -> Msc:
    return _build(_Q_LABELS_BASE)


def fig_flipped() -> Msc:
    """fig_base with f2 and f5 relabeled from b to a."""
    q = list(_Q_LABELS_BASE)
    q[2] = "a"
    q[5] = "a"
    return _build(q)


def acceptance_formula(rng, depth):
    """A random formula over a, b, @p and @q: the acceptance grammar."""
    leaves = [Atom("a"), Atom("b"), Proc("p"), Proc("q")]
    if depth == 0:
        return rng.choice(leaves)
    k = rng.randrange(6)
    if k == 0:
        return rng.choice(leaves)
    if k == 1:
        return Not(acceptance_formula(rng, depth - 1))
    if k == 2:
        return Or(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))
    if k == 3:
        return And(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))
    if k == 4:
        return Since(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))
    return Until(acceptance_formula(rng, depth - 1), acceptance_formula(rng, depth - 1))


def mirror_formula(phi: TlFormula) -> TlFormula:
    """Time reversal on core formulas: until and since swap roles."""
    if isinstance(phi, (Atom, Proc, Bool)):
        return phi
    if isinstance(phi, Not):
        return Not(mirror_formula(phi.sub))
    if isinstance(phi, Or):
        return Or(mirror_formula(phi.left), mirror_formula(phi.right))
    if isinstance(phi, Co):
        return Co(mirror_formula(phi.sub))
    if isinstance(phi, Until):
        return Since(mirror_formula(phi.left), mirror_formula(phi.right))
    if isinstance(phi, Since):
        return Until(mirror_formula(phi.left), mirror_formula(phi.right))
    return mirror_formula(expand_derived(phi))


def oracle_rows(m, paths, e) -> tuple:
    """⪯_e over the distinct paths of ``paths``, in their order, from the
    brute-force preorder_at: bit j of row i says π_i ⪯_e π_j."""
    given = tuple(dict.fromkeys(paths))
    po = preorder_at(m, given, e)
    return tuple(_mask(po.holds(a, b) for b in given) for a in given)


@functools.cache
def switch_rule_tries(clos: tuple) -> tuple:
    """A last-trie over the closure, a mirror first-trie over every →*b and
    →+b, and the nodes of last_a, first_{→*b} and first_{→+b} in closure
    order."""
    last_trie = PathTrie([a.symbols for a in clos])
    first_trie = PathTrie(
        [_mirror_symbols(prepend(b)) for prepend in (star_prepend, plus_prepend) for b in clos],
        mirror=True,
    )
    star_nodes, plus_nodes = (
        [first_trie.find(_mirror_symbols(prepend(b))) for b in clos]
        for prepend in (star_prepend, plus_prepend)
    )
    return last_trie, first_trie, [last_trie.find(a.symbols) for a in clos], star_nodes, plus_nodes


def switch_rule_steps(m, q, paths) -> dict:
    """⪯_f for each q-event f, as rows over the star closure of ``paths``
    (bit j of row i: π_i ⪯_f π_j), by the three switch rules along ⊏:
    preorder_combine with its masks read off the trie maps.

    f is an f^{a,π'}-fixpoint iff first_{π'}(last_a(f)) = f.
    """
    clos = closure_with_star(paths)
    c = len(clos)
    last_trie, first_trie, last_nodes, star_nodes, plus_nodes = switch_rule_tries(clos)
    lasts, firsts = trie_maps(m, last_trie), trie_maps(m, first_trie)
    lift = _star_lift(_star_app(clos))
    out, rows = {}, None
    for f in m.events_of(q):
        fi = m.index[f]
        at = [lasts[fi][n] for n in last_nodes]
        star = [[g != _BOT and firsts[g][n] == fi for n in star_nodes] for g in at]
        plus = [[g != _BOT and firsts[g][n] == fi for n in plus_nodes] for g in at]
        rows = preorder_combine(
            lift,
            rows,
            _mask(g == _BOT for g in at),
            [_mask(s) for s in star],
            [_mask(plus[j][i] for j in range(c)) for i in range(c)],
        )
        out[f] = rows
    return out


def own_letters(m) -> list:
    return [m.label[e] for e in m.events]


def renamed(m, rng):
    """m with its event ids permuted, so that linearize, which breaks ties
    by event id, searches another order; and the map from old to new ids."""
    ids = list(m.events)
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    events = [(new[e], m.loc[e], m.label[e]) for e in m.events]
    return Msc(m.signature, events, [(new[s], new[r]) for s, r in m.msg]), new


@functools.cache
def links_corpus() -> tuple:
    """Two seeded random MSCs per k = 2..5 processes and about 10, 50 and
    250 events, each followed by a copy with its event ids permuted."""
    rng = random.Random(29)
    out = []
    for k in range(2, 6):
        sig = SystemSignature(tuple(f"p{i}" for i in range(k)), ("a", "b"))
        for n in (10, 50, 250):
            for _ in range(2):
                m = random_msc(sig, rng, max(1, round(n / (0.75 * k))))
                out += [m, renamed(m, rng)[0]]
    return tuple(out)


def reference_links(m) -> dict:
    """Per event id, the ids of its ⊏-predecessor, ⊏-successor, sender and
    receiver, None for none, read off ``m.events_of`` and ``m.msg`` alone:
    no reference reads the per-index table ``Msc._links`` it checks."""
    out = {e: [None] * 4 for e in m.events}
    for p in m.signature.processes:
        es = m.events_of(p)
        for a, b in zip(es, es[1:]):
            out[b][0], out[a][1] = a, b
    for s, r in m.msg:
        out[r][2], out[s][3] = s, r
    return out


def reference_kind_peer(m, links, e) -> tuple:
    """``m.kind_of(e)`` and ``m.peer_of(e)`` read off ``reference_links``."""
    _, _, sender, receiver = links[e]
    if receiver is not None:
        return "send", m.loc[receiver]
    if sender is not None:
        return "recv", m.loc[sender]
    return "local", None


def causal_pairs(m) -> list:
    """The pairs of ⊏, then those of ◁, from ``reference_links``."""
    links = reference_links(m)
    return [(a, links[a][1]) for a in m.events if links[a][1] is not None] + list(m.msg)


def reference_linearize(m) -> tuple:
    """The least topological order of (E, <) by event id, from a heap over
    every ready event and successor lists of ⊏ and ◁."""
    pred_count = {e: 0 for e in m.events}
    succs: dict = {e: [] for e in m.events}
    for a, b in causal_pairs(m):
        succs[a].append(b)
        pred_count[b] += 1
    ready = [e for e in m.events if pred_count[e] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        e = heapq.heappop(ready)
        out.append(e)
        for f in succs[e]:
            pred_count[f] -= 1
            if pred_count[f] == 0:
                heapq.heappush(ready, f)
    return tuple(out)


def reference_pass_layout(m, mirror) -> list:
    """_pass_layout read with name-keyed maps, each shape code read as its
    shape: each event's ⊏-predecessor and sender (on the mirror its
    ⊏-successor and receiver) looked up by name along reference_linearize
    (reversed on the mirror)."""
    links = reference_links(m)
    if mirror:
        order, at_pred, at_sender = reversed(reference_linearize(m)), 1, 3
    else:
        order, at_pred, at_sender = reference_linearize(m), 0, 2
    idx, loc = m.index, m.loc
    steps = []
    for e in order:
        pred, sender = links[e][at_pred], links[e][at_sender]
        steps.append((
            idx[e],
            -1 if pred is None else idx[pred],
            -1 if sender is None else idx[sender],
            (pred is not None, None if sender is None else loc[sender], loc[e]),
        ))
    return steps


def reference_causal_below(m) -> list:
    """Per event (in ``events`` position), the bitmask of the events
    strictly below it, found by a search back along ⊏ and ◁."""
    preds: dict = {e: [] for e in m.events}
    for a, b in causal_pairs(m):
        preds[b].append(a)
    rows = []
    for e in m.events:
        seen, todo = set(), list(preds[e])
        while todo:
            f = todo.pop()
            if f not in seen:
                seen.add(f)
                todo += preds[f]
        rows.append(sum(1 << m.index[f] for f in seen))
    return rows


def reference_dominance(m, sig, pairs, mirror) -> dict:
    """Bit 1 at a tgt-event iff, for some (src, tgt) in ``pairs``, the most
    recent last event of a left path is more recent than that of every right
    path, read off the since trie's map (its mirror's for until): recency is
    the event index forward and the reversed index on the mirror, with none
    (_BOT, _TOP) the least recent."""
    trie, nodes = _since_plan(sig, mirror)
    maps = trie_maps(m, trie)
    n = len(m.events)
    recency = [*(range(n, 0, -1) if mirror else range(n)), -1, -1]
    out = dict.fromkeys(m.events, 0)
    for src, tgt in pairs:
        lf, rt = nodes[src, tgt]
        for e in m.events_of(tgt):
            row = maps[m.index[e]]
            if max(recency[row[l]] for l in lf) > max(recency[row[r]] for r in rt):
                out[e] = 1
    return out


def reference_gossip_readout(m) -> dict:
    """Per event f, per source process in order, the label at the greatest
    entry of the source's family into f's process on the gossip last-trie's
    map at f (None at _BOT = -1)."""
    sig = m.signature
    trie = _gossip_plan(sig)[1]
    nodes = {
        tgt: [
            [trie.find(pi.symbols) for pi in gossip_paths_between(sig, src, tgt)]
            for src in sig.processes
        ]
        for tgt in sig.processes
    }
    labels = [m.label[e] for e in m.events] + [None]
    return {
        f: tuple([labels[max([row[j] for j in fam])] for fam in nodes[m.loc[f]]])
        for f, row in zip(m.events, trie_maps(m, trie))
    }


def reference_eval_tl(m: Msc, phi: TlFormula) -> dict[str, bool]:
    """Per-event truth values straight from the causal matrix, by brute
    force over causal_lt (O(n³) for since and until): the reference for
    the mask evaluator tl.eval_tl."""
    if isinstance(phi, Atom):
        return {e: m.label[e] == phi.letter for e in m.events}
    if isinstance(phi, Proc):
        return {e: m.loc[e] == phi.proc for e in m.events}
    if isinstance(phi, Bool):
        return {e: phi.value for e in m.events}
    if isinstance(phi, Not):
        v = reference_eval_tl(m, phi.sub)
        return {e: not v[e] for e in m.events}
    if isinstance(phi, Or):
        v1, v2 = reference_eval_tl(m, phi.left), reference_eval_tl(m, phi.right)
        return {e: v1[e] or v2[e] for e in m.events}
    if isinstance(phi, Co):
        v = reference_eval_tl(m, phi.sub)
        return {
            e: any(
                v[f]
                and not causal_lt(m, e, f)
                and not causal_lt(m, f, e)
                and e != f
                for f in m.events
            )
            for e in m.events
        }
    if isinstance(phi, Until):
        v1, v2 = reference_eval_tl(m, phi.left), reference_eval_tl(m, phi.right)
        out = {}
        for e in m.events:
            out[e] = any(
                causal_lt(m, e, f)
                and v2[f]
                and all(
                    v1[g]
                    for g in m.events
                    if causal_lt(m, e, g) and causal_lt(m, g, f)
                )
                for f in m.events
            )
        return out
    if isinstance(phi, Since):
        v1, v2 = reference_eval_tl(m, phi.left), reference_eval_tl(m, phi.right)
        out = {}
        for e in m.events:
            out[e] = any(
                causal_lt(m, f, e)
                and v2[f]
                and all(
                    v1[g]
                    for g in m.events
                    if causal_lt(m, f, g) and causal_lt(m, g, e)
                )
                for f in m.events
            )
        return out
    if isinstance(phi, And):
        v1, v2 = reference_eval_tl(m, phi.left), reference_eval_tl(m, phi.right)
        return {e: v1[e] and v2[e] for e in m.events}
    if isinstance(phi, NextOn):
        # the first p-event strictly above e satisfies the body
        v = reference_eval_tl(m, phi.sub)
        out = {}
        for e in m.events:
            above = [
                f
                for f in m.events_of(phi.proc)
                if causal_lt(m, e, f)
            ]
            nxt = [
                f
                for f in above
                if not any(causal_lt(m, g, f) for g in above if g != f)
            ]
            out[e] = bool(nxt) and v[nxt[0]]
        return out
    if isinstance(phi, PrevOn):
        v = reference_eval_tl(m, phi.sub)
        out = {}
        for e in m.events:
            below = [
                f
                for f in m.events_of(phi.proc)
                if causal_lt(m, f, e)
            ]
            prv = [
                f
                for f in below
                if not any(causal_lt(m, f, g) for g in below if g != f)
            ]
            out[e] = bool(prv) and v[prv[0]]
        return out
    if isinstance(phi, UntilOn):
        # non-strict until over the p-events at or above e
        v1, v2 = reference_eval_tl(m, phi.left), reference_eval_tl(m, phi.right)
        p = phi.proc
        out = {}
        for e in m.events:
            if m.loc[e] == p and v2[e]:
                out[e] = True
                continue
            ok = False
            for f in m.events_of(p):
                if not causal_lt(m, e, f) or not v2[f]:
                    continue
                gap = [
                    g
                    for g in m.events_of(p)
                    if causal_lt(m, g, f) and (g == e or causal_lt(m, e, g))
                ]
                if all(v1[g] for g in gap):
                    ok = True
                    break
            out[e] = ok
        return out
    if isinstance(phi, ObsOn):
        # the first p-event not strictly below e, e itself on p
        v = reference_eval_tl(m, phi.sub)
        out = {}
        for e in m.events:
            rest = [f for f in m.events_of(phi.proc) if not causal_lt(m, f, e)]
            first = [
                f
                for f in rest
                if not any(causal_lt(m, g, f) for g in rest if g != f)
            ]
            out[e] = bool(first) and v[first[0]]
        return out
    raise ValueError(f"unknown formula node {phi!r}")


def random_cfm(
    sig: SystemSignature,
    rng: random.Random,
    n_states: int = 2,
    n_msgs: int = 2,
    n_transitions: int = 10,
) -> Cfm:
    """A random explicit CFM (states s0..s_{n-1} per process, random moves)."""
    messages = [f"m{i}" for i in range(n_msgs)]
    states = {p: [f"{p}s{i}" for i in range(n_states)] for p in sig.processes}
    initial = {p: states[p][0] for p in sig.processes}
    transitions = []
    for _ in range(n_transitions):
        p = rng.choice(sig.processes)
        src = rng.choice(states[p])
        dst = rng.choice(states[p])
        a = rng.choice(sig.alphabet)
        kind = rng.choice(["local", "send", "recv"])
        if kind == "local" or len(sig.processes) == 1:
            transitions.append(Transition(p, src, "local", a, dst))
        else:
            peer = rng.choice([q for q in sig.processes if q != p])
            msg = rng.choice(messages)
            transitions.append(Transition(p, src, kind, a, dst, msg, peer))
    n_acc = rng.randint(1, 2)
    accepting = {
        tuple(rng.choice(states[p]) for p in sig.processes) for _ in range(n_acc)
    }
    accepting.add(tuple(initial[p] for p in sig.processes))
    return Cfm(sig, messages, states, initial, transitions, accepting)


def oracle_accepts(machine: Cfm, m: Msc) -> bool:
    """Brute force: try every assignment of transitions to events.

    Exponential; only usable on tiny MSCs.  Independent of the DFS search.
    """
    order = m.events
    links = reference_links(m)
    choices = []
    for e in order:
        p = m.loc[e]
        kind, peer = reference_kind_peer(m, links, e)
        cand = [
            t
            for t in machine.transitions_of(p)
            if t.kind == kind and t.label == m.label[e]
            and (kind == "local" or t.peer == peer)
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
    links = reference_links(m)
    for e in m.events:
        pred = links[e][0]
        if rho[e].source != (start[m.loc[e]] if pred is None else rho[pred].target):
            return False
    for s, r in m.msg:
        if rho[s].msg != rho[r].msg:
            return False
    final = tuple(
        rho[m.events_of(p)[-1]].target if m.events_of(p) else start[p]
        for p in machine.signature.processes
    )
    return machine.is_accepting(final)
