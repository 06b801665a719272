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
  always runs the search.  The preorder and gossip machines' decide and
  canonical states read ⪯ by its definition, as recency of last events on
  one forward trie pass; only their relation runs the ⪯ recurrence.

Every machine is an AnnotationCfm given one start state, one product part
and one final test; the search step is derived from them once, and keeps
the part's moves whose output is the claimed annotation.  The fixpoint,
preorder and gossip machines also give the states of that valuation's run
(``canonical_states``).  ``replay`` steps the composite relation along it:
each step, told the state it must reach (``want``), yields exactly its
moves to that state, so the relation is checked on MSCs that blind search
cannot finish.  Every composite step is one product of parts that each
core builds once (``product_moves``); the fa and fixpoint cores are not
products, but step in one frame over their cores' compiled tables.

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
from typing import Callable, Hashable, Iterable, Optional

from .cfm import ANY, LazyCfm, transitions
from .msc import BOTTOM, TOP, ExtendedMsc, Msc, SystemSignature, linearize
from .paths import (
    LabelTest,
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
    This is the one copy of the rules for ⊏, →*, msg(p,q) and [a], and one
    method runs it, PathTrie.template, which gives per event shape what
    each node's entry reads.  The trie steps of the passes and of LastCore,
    and FirstCore's guesses and agreement checks on the mirror
    (_GuessTables), are all read off those templates.
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

    θ at one event is read off the ``template`` of the event's shape, the
    one place that runs _theta_rule: it is compiled into one straight-line
    function (``program``), which LastCore and the passes call, and read
    by FirstCore's tables (``guess_tables``, one per guess domain).  The
    trie keeps the programs and the passes' tables of them
    (``shape_programs``), and the guess tables, but no template.

    A trie may carry a read-out (the gossip trie does): per process, a tuple
    of families of its paths.  The program of an event on that process then
    also reads, per family, the label at the greatest of the family's
    entries, and returns those labels as one tuple, the row's last entry.
    """

    def __init__(
        self, paths: Iterable[tuple], mirror: bool = False, readout: Optional[dict] = None
    ):
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
        # a pass of a trie without label tests needs no event's letter
        self.reads_letters = any(isinstance(head, LabelTest) for _, head, _ in edges)
        self.readout = None if readout is None else {
            proc: tuple(tuple(self.find(symbols) for symbols in fam) for fam in fams)
            for proc, fams in readout.items()
        }
        self._programs: dict[tuple, Callable] = {}
        self._coded: dict[tuple, _ShapePrograms] = {}
        self._guess_tables: dict[tuple, _GuessTables] = {}

    def guess_tables(self, domain: tuple) -> _GuessTables:
        """FirstCore's compiled steps on this chain for guesses from
        ``domain`` (Θ∪{⊤}), made once per trie and domain."""
        tables = self._guess_tables.get(domain)
        if tables is None:
            tables = self._guess_tables[domain] = _GuessTables(self, domain)
        return tables

    def find(self, symbols: tuple) -> int:
        """The node of a path of the trie, or of a prefix of one."""
        node = 0
        for head in symbols:
            node = self._child[node, head]
        return node

    def program(self, key: tuple) -> Callable:
        """The step of the event shape key = (whether the event has a
        ⊏-predecessor, the sender's process or None, the process, the
        letter), compiled once per trie.  Only a label test reads the letter,
        so a trie without one is given the letter None for every event."""
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = self._compile(key)
        return program

    def shape_programs(self, procs: tuple) -> _ShapePrograms:
        """The passes' programs of the shapes over the processes ``procs``,
        keyed by shape code (see _pass_steps), and on a trie with label
        tests by (shape code, letter); made once per trie and process
        tuple."""
        programs = self._coded.get(procs)
        if programs is None:
            programs = self._coded[procs] = _ShapePrograms(self, procs)
        return programs

    def template(self, key: tuple) -> list:
        """What θ at an event of shape ``key`` (as ``program`` takes it)
        holds at each node after the base: ("none", None); ("copy", j), the
        parent j's entry; ("pred", j) or ("sender", j), entry j of θ(pred)
        or θ(sender); or ("star", j), for →*: the parent j's entry, or
        θ(pred) at the node when the parent's is none.  _theta_rule is run
        on these entries, and again on none where it copies the parent's.
        Made afresh on each call."""
        has_pred, sender_proc, proc, sigma = key
        pred = _Entries("pred") if has_pred else None
        sender = None if sender_proc is None else _Entries("sender")
        rule, none, template = _theta_rule, ("none", None), []
        for node, head, parent in self.edges:
            copy = ("copy", parent)
            entry = rule(head, parent, node, copy, none, pred, sender, proc, sender_proc, sigma)
            if entry is copy:
                bare = rule(head, parent, node, none, none, pred, sender, proc, sender_proc, sigma)
                entry = copy if bare is none else ("star", parent)
            template.append(entry)
        return template

    def _compile(self, key: tuple) -> Callable:
        """The program of one event shape, written from its template: one
        straight-line function (none, base, θ(pred), θ(sender), labels) → θ
        that returns the tuple of every node's entry.  A →* entry whose
        parent's may be none at run time is a local, which reads the
        parent's entry and, when that ``is none``, θ(pred) at the node.

        On a trie with a read-out, that tuple ends with one more entry: per
        family of the process, ``labels[max(…)]`` over its nodes' entries.
        Read-outs are of last-tries, where none is _BOT = -1, the least
        index: a static none drops out of the max, a family of none reads
        None, and so does a max that is -1 at run time, as ``labels`` is
        indexed like the events and ends with None."""
        exprs = ["base"]  # per node, its entry in the function
        lines = ["def step(none, base, pred, sender, labels=None):"]
        for node, (kind, j) in enumerate(self.template(key), 1):
            if kind == "copy":
                expr = exprs[j]
            elif kind == "star" and exprs[j] != "none":
                expr = f"t{node}"
                lines += [f"    {expr} = {exprs[j]}", f"    if {expr} is none:"]
                lines.append(f"        {expr} = pred[{node}]")
            elif kind == "star":
                expr = f"pred[{node}]"
            else:
                expr = kind if j is None else f"{kind}[{j}]"
            exprs.append(expr)
        if self.readout is not None:
            reads = []
            for fam in self.readout[key[2]]:
                at = list(dict.fromkeys(exprs[j] for j in fam if exprs[j] != "none"))
                reads.append(
                    "None" if not at
                    else f"labels[{at[0]}]" if len(at) == 1
                    else f"labels[max({', '.join(at)})]"
                )
            exprs.append(f"({''.join(r + ', ' for r in reads)})")
        lines.append(f"    return ({''.join(r + ', ' for r in exprs)})")
        return _function("\n".join(lines))


class _Entries(str):
    """θ(pred) or θ(sender) as PathTrie.template hands it to the rule:
    entry j is (name, j)."""

    def __getitem__(self, j: int) -> tuple:
        return (str(self), j)


class _ShapePrograms(dict):
    """A trie's programs of the shapes over one process tuple, keyed by
    shape code, or by (shape code, letter) on a trie with label tests, and
    compiled the first time a pass meets the key."""

    def __init__(self, trie: PathTrie, procs: tuple):
        super().__init__()
        self.trie, self.procs = trie, procs

    def __missing__(self, key) -> Callable:
        code, sigma = key if self.trie.reads_letters else (key, None)
        program = self[key] = self.trie.program(_shape_of(self.procs, code) + (sigma,))
        return program


@functools.cache
def _function(source: str) -> Callable:
    """The function ``step`` defined by ``source``, compiled once per text:
    tries and shapes whose programs read alike share one function."""
    namespace: dict = {}
    exec(source, namespace)
    return namespace["step"]


@functools.cache
def _chain_trie(symbols: tuple, mirror: bool) -> PathTrie:
    """The one-path trie of ``symbols``, one per path and direction, so that
    its compiled programs serve every pass and core on that path."""
    return PathTrie([symbols], mirror)


# ⊥ and ⊤ among event indices
_BOT, _TOP = -1, -2


def _shape_of(procs: tuple, code: int) -> tuple:
    """The shape without its letter whose code is ``code`` (see
    _pass_steps): (whether the event has a ⊏-predecessor, the sender's
    process or None, the process)."""
    at, sender = divmod(code >> 1, len(procs) + 1)
    return bool(code & 1), procs[sender - 1] if sender else None, procs[at]


def _pass_steps(m: Msc, mirror: bool):
    """What a trie pass steps along: per event in the order of the pass,
    (its index, its predecessor's, its sender's, its shape code), with -1
    for no neighbour.  The code of an event on the process at position c,
    with sender process position c′, is 2·((k+1)·c + c′ + 1) + 1, where k is
    the number of processes; no sender counts as c′ = -1, and no
    predecessor drops the final + 1.  Generated as the pass runs, so a pass
    that stops early reads no further.

    The steps walk ``linearize(m)`` and read each event's neighbours off
    ``m._links``.  The mirror shares m's events and reverses its order, so
    a mirror pass steps along m's linearization reversed, with each event's
    ⊏-successor and message receiver, read off the same table, as its
    mirrored predecessor and sender.
    """
    idx = m.index
    order = linearize(m)
    proc, preds, succs, senders, receivers = m._links
    if mirror:
        order = reversed(order)
        preds, senders = succs, receivers
    width = len(m.signature.processes) + 1
    for e in order:
        i = idx[e]
        p, s = preds[i], senders[i]
        yield i, p, s, 2 * (width * proc[i] + (proc[s] + 1 if s >= 0 else 0)) + (p >= 0)


def _pass_layout(m: Msc, mirror: bool) -> list[tuple]:
    """_pass_steps of m in one direction, kept in m's caches for the
    passes that step along m more than once."""
    key = ("pass-layout", mirror)
    layout = m._caches.get(key)
    if layout is None:
        layout = m._caches[key] = list(_pass_steps(m, mirror))
    return layout


def _trie_walk(steps, programs, none, theta: list, labels: Optional[list] = None):
    """The one trie pass: each step's program, ``programs[key]`` for the
    key that ends the step (see _trie_pass), run on the rows of its
    predecessor and sender, yielding each event's row as it is made and
    keeping it in ``theta``, indexed like ``m.events``.  Entry 0 of a row
    is its base, the event's own index.  An event with no predecessor
    (sender) is passed the entry at index -1, which its program never
    reads.  ``labels`` is the read-out's (see PathTrie._compile)."""
    for i, p, s, k in steps:
        row = theta[i] = programs[k](none, i, theta[p], theta[s], labels)
        yield row


def _trie_pass(m: Msc, trie: PathTrie, letters: Optional[list]) -> list[tuple]:
    """The trie's programs along a linearization of m (of its mirror for a
    mirror trie, see _pass_steps), with each event as its index in
    ``m.events``: entry n of the result at index i is the index of last
    (first, on a mirror trie) of node n's path from event i, or _BOT (_TOP)
    if there is none, and on a trie with a read-out the last entry is the
    read-out.  ``letters`` is indexed like ``m.events`` and gives each
    event's letter; only a trie with label tests steps by it, and only a
    trie with a read-out reads it out.  The programs come from the trie's
    table (PathTrie.shape_programs): a trie with label tests keys each step
    by its shape code and its event's letter, and a trie without them by
    the code alone.  The pass steps along m's kept layout (_pass_layout).
    """
    steps = _pass_layout(m, trie.mirror)
    programs = trie.shape_programs(m.signature.processes)
    if trie.reads_letters:
        steps = [(i, p, s, (k, letters[i])) for i, p, s, k in steps]
    labels = None if trie.readout is None else [*letters, None]
    theta: list = [None] * len(m.events)
    for _ in _trie_walk(steps, programs, _TOP if trie.mirror else _BOT, theta, labels):
        pass
    return theta


def trie_maps(m: Msc, trie: PathTrie) -> list[tuple]:
    """_trie_pass of m's own labels, computed once per MSC and kept in its
    caches under the trie itself."""
    maps = m._caches.get(trie)
    if maps is None:
        reads = trie.reads_letters or trie.readout is not None
        letters = [m.label[e] for e in m.events] if reads else None
        maps = m._caches[trie] = _trie_pass(m, trie, letters)
    return maps


def trie_plan(families: dict, mirror: bool = False) -> tuple[PathTrie, dict]:
    """One trie over every path of ``families``, a dict of tuples of path
    families, and per key the trie nodes of each of its families."""
    paths = (pi.symbols for fams in families.values() for fam in fams for pi in fam)
    trie = PathTrie(paths, mirror)
    nodes = {
        key: tuple(tuple(trie.find(pi.symbols) for pi in fam) for fam in fams)
        for key, fams in families.items()
    }
    return trie, nodes


@functools.cache
def _mirror_symbols(pi: PathExpr) -> tuple:
    """π read backwards with each msg(p,q) turned into msg(q,p): its last on
    the mirror MSC is π's first on the original.  Kept per path, so that a
    warm lookup of π's mirror chain trie builds no symbol."""
    return tuple(
        Msg(s.dst, s.src) if isinstance(s, Msg) else s for s in reversed(pi.symbols)
    )


# ---------------------------------------------------------------------------
# direct propagation passes
# ---------------------------------------------------------------------------


def _chain_theta(m: Msc, trie: PathTrie, base: dict, none) -> dict[str, tuple]:
    """The memoised trie map of a one-path trie, each event index read
    through base: θ under any base is the identity-base map read through it,
    so one pass per MSC and path serves every base."""
    vals = [base[e] for e in m.events]
    # tuple([...]), not tuple(generator), as in Msc.__init__
    return {
        e: tuple([none if g < 0 else vals[g] for g in row])
        for e, row in zip(m.events, trie_maps(m, trie))
    }


def _chain_value(m: Msc, trie: PathTrie, base: dict, none) -> dict[str, Hashable]:
    """The last entry of _chain_theta, θ of the whole path, read off the
    path's own end node alone."""
    events = m.events
    return {
        e: none if row[-1] < 0 else base[events[row[-1]]]
        for e, row in zip(events, trie_maps(m, trie))
    }


def last_theta(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, tuple]:
    """θ(e)[i] = base(last_{π[:i]}(e)) for every prefix length i, ⊥ if none."""
    return _chain_theta(m, _chain_trie(pi.symbols, False), base, BOTTOM)


def last_value(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, Hashable]:
    """base(last_π(e)), ⊥ if none: last_theta's last entry."""
    return _chain_value(m, _chain_trie(pi.symbols, False), base, BOTTOM)


def first_theta(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, tuple]:
    """θ(e)[j] = base(first_{π'}(e)) for the suffix π' of length j, ⊤ if none.

    first_{π'} on M is last of the reversed path on the mirror of M, so this
    is the last pass on the mirror with ⊤ in place of ⊥.
    """
    return _chain_theta(m, _chain_trie(_mirror_symbols(pi), True), base, TOP)


def first_value(m: Msc, pi: PathExpr, base: dict[str, Hashable]) -> dict[str, Hashable]:
    """base(first_π(e)), ⊤ if none: first_theta's last entry."""
    return _chain_value(m, _chain_trie(_mirror_symbols(pi), True), base, TOP)


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
    """Π plus π→* for each π ∈ Π (identifying π→*→* with π→*): first the
    distinct paths of Π in their order, then each new π→*."""
    given = dict.fromkeys(paths)
    return tuple({**given, **dict.fromkeys(map(star_append, given))})


def _star_app(clos: tuple) -> tuple:
    """Per closure path π_i, the index of π_i →* in the closure."""
    return tuple(clos.index(star_append(a)) for a in clos)


@functools.cache
def _star_lift(star_app: tuple) -> Callable:
    """The map from the rows of ⪯ to the rows P_i of the recurrence: bit j of
    P_i is bit star_app[j] of row star_app[i], so P_i says π_i→* ⪯ π_j→*.

    When every path of the closure ends in →*, as in every gossip family,
    star_app is the identity and P_i is row i itself.
    """
    if star_app == tuple(range(len(star_app))):
        return lambda rows: rows
    return lambda rows: [
        sum((rows[a] >> b & 1) << j for j, b in enumerate(star_app)) for a in star_app
    ]


def _gather(nodes: tuple) -> Callable:
    """operator.itemgetter(*nodes), which returns a tuple for one node and
    for none too."""
    if len(nodes) == 1:
        return lambda row: (row[nodes[0]],)
    return operator.itemgetter(*nodes) if nodes else lambda row: ()


@functools.cache
def _preorder_plan(paths: tuple) -> tuple:
    """The star closure of a path set, compiled once per set: the closure
    ``clos``, one last-trie over it and each closure path's trie node."""
    clos = closure_with_star(paths)
    trie = PathTrie([a.symbols for a in clos])
    return clos, trie, tuple(trie.find(a.symbols) for a in clos)


def preorder_combine(
    lift: Callable, prev: Optional[tuple], botmask: int, star_rows, plus_cols
) -> tuple:
    """One step of the ⪯ recurrence along ⊏ (PreorderCore's switch rules),
    over the closure by index, in rows: bit j of row i says π_i ⪯ π_j.

    With c closure paths, bit i of ``botmask`` is [last_{π_i}(f) = ⊥], bit j
    of star_rows[i] says f is a f^{π_i,→*π_j}-fixpoint and bit j of
    plus_cols[i] that f is a f^{π_j,→+π_i}-fixpoint; ``lift`` is
    _star_lift(star_app) and ``prev`` the rows at the q-event before f, None
    at the first.  (i,j) holds at f when the pair of star-closed paths did
    not hold before (P_i, bit j) and last_{π_i}(f)=⊥ or f is a
    f^{π_i,→*π_j}-fixpoint; otherwise the pair persists unless f is a
    f^{π_j,→+π_i}-fixpoint or π_j newly became ⊥-free while π_i did not.
    """
    c = len(star_rows)
    full = (1 << c) - 1
    free = ~botmask
    rows = []
    bit = 1
    for p, star, plus in zip((0,) * c if prev is None else lift(prev), star_rows, plus_cols):
        rows.append(full & ~(p & plus) if botmask & bit else star & ~p | p & ~plus & free)
        bit <<= 1
    return tuple(rows)


def _mask(bits: Iterable) -> int:
    """The int whose bit k is the k-th truth value."""
    return sum(1 << k for k, b in enumerate(bits) if b)


def preorder_rows(m: Msc, q: str, paths: tuple[PathExpr, ...]) -> dict[str, tuple]:
    """⪯_f for each q-event f, over the star closure of the path set, by its
    definition: bit j of row i says π_i ⪯_f π_j, i.e. last_{π_i}(f) ⊑
    last_{π_j}(f).  Every path of the set starts on one process and
    ``m.events`` lists that process's events in process order, so ⊑ among
    the last events, read off one last-trie map, is the order of their
    indices, with ⊥ (_BOT = -1) the least.
    """
    _, trie, nodes = _preorder_plan(tuple(paths))
    maps = trie_maps(m, trie)
    idx = m.index
    out = {}
    for f in m.events_of(q):
        row = maps[idx[f]]
        at = [row[n] for n in nodes]
        out[f] = tuple([_mask(g <= h for h in at) for g in at])
    return out


def _given_rows(rows: tuple, d: int) -> tuple:
    """The rows of ⪯ among the first d closure paths, which closure_with_star
    lists first when they are the d distinct paths of the given set."""
    full = (1 << d) - 1
    return tuple(row & full for row in rows[:d])


def preorder_bits(
    m: Msc, q: str, paths: tuple[PathExpr, ...]
) -> dict[str, frozenset]:
    """For each q-event f, the set of pairs (π,π') with π ⪯_f π', over the
    star closure of the given path set, read off preorder_rows.  No machine
    reads it; bench/tracing.py traces it by name."""
    clos = _preorder_plan(tuple(paths))[0]
    return {
        f: frozenset(
            (a, b) for a, row in zip(clos, rows) for j, b in enumerate(clos) if row >> j & 1
        )
        for f, rows in preorder_rows(m, q, paths).items()
    }


# ---------------------------------------------------------------------------
# machine cores
# ---------------------------------------------------------------------------
#
# Component protocol: start() -> state; step(...) yields (new_state,
# output_value, payload_out); final(state) -> bool.  A product part's step is
# step(state, ctx, payload_in, want), made once by the core that owns it;
# LastCore, FirstCore and FaCore also take the event's base value after ctx,
# and FixCore.step_with_bit the bit γ.  A machine (AnnotationCfm) is one
# start, one part and one final test; its search step hands the part the
# event's claimed annotation as ``ctx.claim``, which a part whose base or bit
# is claimed reads, and filters the part's moves on the claim in one
# generator (cfm.transitions).  States are the θ functions as tuples indexed
# by prefix (LastCore) or suffix (FirstCore) length; "start" marks an empty
# process history.  FaCore and FixCore are not products: each step is one
# frame that reads its first core's compiled tables (FirstCore.agreed and
# FirstCore.guesses) and calls its last core's trie program (LastCore.program)
# once per guess, without resuming the two cores' own steps.
#
# ``want`` is a wanted new state, or None, as the run search passes it.  Given
# a state, a step yields exactly its moves to ``want``: a guessing core guesses
# only what ``want`` holds, and the others check their moves against it.


def product_moves(steps, states, ctx: StepCtx, msg_in, want):
    """The moves of independent parts combined at one event.

    Part i is called once, as steps[i](states[i], ctx, msg_in[i], want[i]),
    with msg_in[i] None when no message arrives and want[i] None without
    ``want``, and yields its moves as (state, out, payload).  Each
    combination comes out as (states, outs, payload), the payload being the
    parts' payloads on a send and None otherwise, with the last part varying
    fastest.  A part's moves are pulled only as far as the combinations need
    them and kept, so no product is held in memory, and the product ends as
    soon as one part turns out to have no move.
    """
    n = len(steps)
    gens = [
        step(s, ctx, None if msg_in is None else msg_in[i], None if want is None else want[i])
        for i, (step, s) in enumerate(zip(steps, states))
    ]
    send = ctx.kind == "send"
    seen: list[list] = [[] for _ in steps]  # the moves pulled from each part
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
    """Local view of one event: process, kind, peer, base-alphabet letter,
    and the annotation claimed there (None where no search step hands one
    down)."""

    __slots__ = ("proc", "kind", "peer", "sigma", "claim")

    def __init__(self, proc, kind, peer, sigma, claim=None):
        self.proc = proc
        self.kind = kind
        self.peer = peer
        self.sigma = sigma
        self.claim = claim


class LastCore:
    """Deterministic forward tracking of θ over prefixes of π: the trie pass
    on π's chain, one event at a time."""

    def __init__(self, pi: PathExpr):
        self.trie = _chain_trie(pi.symbols, False)

    def start(self):
        return "start"

    def program(self, state, ctx: StepCtx, payload_in) -> Callable:
        """The chain's program of the event's shape (PathTrie.program), called
        as program(⊥, base, θ(pred), θ(sender)); θ(pred) is None from the
        start state, and θ(sender) is the payload, None off a receive."""
        trie = self.trie
        return trie.program((
            state != "start",
            None if payload_in is None else ctx.peer,
            ctx.proc,
            ctx.sigma if trie.reads_letters else None,
        ))

    def step(self, state, ctx: StepCtx, base, payload_in, want=None):
        pred = None if state == "start" else state
        t = self.program(state, ctx, payload_in)(BOTTOM, base, pred, payload_in)
        if want is None or t == want:
            yield t, t[-1], t if ctx.kind == "send" else None

    def final(self, state) -> bool:
        return True


def _label_step(core: LastCore, state, ctx: StepCtx, msg_in, want):
    """A LastCore as a product part: the last event's label."""
    return core.step(state, ctx, ctx.sigma, msg_in, want)


def _bottom_step(core: LastCore, state, ctx: StepCtx, msg_in, want):
    """A LastCore as a product part: whether a last event exists."""
    return core.step(state, ctx, "•", msg_in, want)


class _GuessTables:
    """FirstCore's step on a mirror chain ``trie`` for guesses from
    ``domain``, read off the trie's templates and kept on the trie.

    At an event the θ of its mirror predecessor (its ⊏-successor) and, on a
    send, of its mirror sender (its receiver) are not yet seen, so per event
    shape (send or not, process, peer, letter) the template of the shape
    with both reads each entry of them as a guess from the domain.  The
    guesses of a (shape, base) are enumerated from it once, in the order of
    a rule-per-node loop, and kept.

    When a neighbour is seen, the entries of the state that read it must
    equal what the rule computes from it: the entries that read θ(pred) in
    the template of a shape with a predecessor alone, or θ(sender) in that
    of a shape with a sender alone.  A →* entry reads θ(pred) only where
    the state's tail is ⊤, so each check is compiled per neighbour and per
    values of those tails into two index tuples.  The guesses are kept
    indexed by their values at the read entries, and a step's moves are one
    lookup of the state's values there.
    """

    def __init__(self, trie: PathTrie, domain: tuple):
        self.trie, self.domain = trie, domain
        self._templates: dict[tuple, tuple] = {}  # shape -> template
        self._guesses: dict[tuple, list] = {}  # (*shape, base) -> θs
        self._indexes: dict[tuple, dict] = {}  # (*shape, base, reads) -> θs by reads
        self._neighbours: dict = {}  # at -> (template, gather of deciding tails, checks by them)

    def template(self, shape: tuple) -> tuple:
        """Per node after the base, (kind, j): ("none", None), ⊤; ("copy", j);
        ("free", None), a guess; or ("star", j), a guess if entry j is ⊤,
        else its copy."""
        template = self._templates.get(shape)
        if template is None:
            send, proc, peer, sigma = shape
            template = self._templates[shape] = tuple(
                ("free", None) if kind == "pred" or kind == "sender" else (kind, j)
                for kind, j in self.trie.template((True, peer if send else None, proc, sigma))
            )
        return template

    def indexed(self, key: tuple) -> dict:
        """The guesses of key = (*shape, base, reads) by their values at the
        entries ``reads``."""
        index = self._indexes.get(key)
        if index is None:
            thetas = self._guesses.get(key[:5])
            if thetas is None:
                thetas = self._guesses[key[:5]] = self._enumerate(key[:4], key[4])
            index = self._indexes[key] = {}
            project = _gather(key[5])
            for t in thetas:
                index.setdefault(project(t), []).append(t)
        return index

    def _enumerate(self, shape: tuple, base) -> list:
        thetas = [(base,)]
        for kind, j in self.template(shape):
            if kind == "none":
                thetas = [t + (TOP,) for t in thetas]
            elif kind == "copy":
                thetas = [t + (t[j],) for t in thetas]
            else:
                thetas = [
                    t + (g,)
                    for t in thetas
                    for g in (self.domain if kind == "free" or t[j] is TOP else (t[j],))
                ]
        return thetas

    def fits(self, shape: tuple, base, want: tuple) -> bool:
        """Whether ``want`` is one of the guesses of (shape, base), checked
        entry by entry against the template, without enumerating them."""
        template = self.template(shape)
        if len(want) != len(template) + 1 or want[0] != base:
            return False
        for (kind, j), w in zip(template, want[1:]):
            if kind == "free" or kind == "star" and want[j] is TOP:
                if w not in self.domain:
                    return False
            elif w != (TOP if kind == "none" else want[j]):
                return False
        return True

    def agreement(self, t: tuple, at: Optional[tuple]) -> tuple:
        """(reads, values): the entries of the θ of t's neighbour, its
        ⊏-successor when ``at`` is None and else its message's receiver with
        at = (sender process, receiver process), that the rule reads to
        recompute the entries of t that were guessed, and t's values at
        those entries, which the neighbour's must equal."""
        plan = self._neighbours.get(at)
        if plan is None:
            shape = (True, None, None, None) if at is None else (False, at[1], at[0], None)
            template = self.trie.template(shape)
            tails = _gather(tuple(j for kind, j in template if kind == "star"))
            plan = self._neighbours[at] = (template, tails, {})
        template, tails, checks = plan
        key = tails(t)
        check = checks.get(key)
        if check is None:
            reads, wants = [], []
            for node, (kind, j) in enumerate(template, 1):
                if kind == "pred" or kind == "sender" or kind == "star" and t[j] is TOP:
                    reads.append(node if kind == "star" else j)
                    wants.append(node)
            check = checks[key] = (tuple(reads), _gather(tuple(wants)))
        reads, wants = check
        return reads, wants(t)


class FirstCore:
    """Guess-based forward realization of θ over suffixes of π.

    This is _theta_rule on the mirror, along the chain of π read backwards:
    entry j is the value of the suffix of length j, whose head is the j-th
    symbol from the end; the mirror's ⊏-predecessor is the ⊏-successor and
    the sender of a send is its receiver.  Both are later events, so at an
    event their θ is unseen and each entry the rule cannot compute without
    them is guessed from Θ∪{⊤}.  When such a neighbour is seen (the
    successor at the next step, the receiver at the matching receive), the
    entries that read it must equal what the rule computes from it; with no
    successor (final()) they must be ⊤.

    The core runs the tables read off the templates of π's mirror chain
    trie for its domain (_GuessTables), so they outlive the core: a step
    reads the state's and the message's checks once (``agreed``) and looks
    up its (shape, base) guesses by the values those checks read
    (``guesses``).  Given a wanted state, a step checks it against the
    shape's template and the two checks and yields it or nothing, without
    enumerating the guesses.  FaCore and FixCore step on the same two
    helpers.
    """

    def __init__(self, pi: PathExpr, theta_set: tuple):
        trie = _chain_trie(_mirror_symbols(pi), True)
        self.tables = trie.guess_tables(tuple(theta_set) + (TOP,))
        self.width = len(trie.edges) + 1  # a state's length

    def start(self):
        return "start"

    def agreed(self, state, ctx: StepCtx, payload_in) -> tuple:
        """(reads, values): the entries of a new state that the state's check
        and, on a receive, the message's check read, and the values the
        new state must have there (_GuessTables.agreement).  They do not
        depend on the base, so a step reads them once."""
        tables = self.tables
        reads = values = ()
        if state != "start":
            reads, values = tables.agreement(state, None)
        if payload_in is not None:
            more, seen = tables.agreement(payload_in, (ctx.peer, ctx.proc))
            reads, values = reads + more, values + seen
        return reads, values

    def guesses(self, agreed: tuple, ctx: StepCtx, base, want) -> Iterable[tuple]:
        """The new states of a step on ``base`` that agree (``agreed``): the
        shape's guesses with those values at the read entries, looked up;
        given ``want``, want alone if it is one of them, checked against
        the shape's template without enumerating the guesses."""
        reads, values = agreed
        send = ctx.kind == "send"
        if want is None:
            return self.tables.indexed((send, ctx.proc, ctx.peer, ctx.sigma, base, reads)).get(
                values, ()
            )
        fits = self.tables.fits((send, ctx.proc, ctx.peer, ctx.sigma), base, want)
        return (want,) if fits and values == tuple([want[r] for r in reads]) else ()

    def step(self, state, ctx: StepCtx, base, payload_in, want=None):
        send = ctx.kind == "send"
        for t in self.guesses(self.agreed(state, ctx, payload_in), ctx, base, want):
            yield t, t[-1], t if send else None

    def final(self, state) -> bool:
        if state == "start":
            return True
        _, values = self.tables.agreement(state, None)
        return all(v is TOP for v in values)


class FaCore:
    """A FirstCore for π' (``first``) chained into a LastCore for π
    (``last``), whose base is θ'(e)(π'); states and payloads are pairs.

    A step is one frame, not a product of the two cores' steps: it reads the
    first core's agreement and the last core's program once (``prepare``),
    then makes one program call per guess of the first core on the base
    (FirstCore.guesses), in their order.  Given ``want``, the first core
    checks its half and the program's θ is compared with the other.
    """

    def __init__(self, pi: PathExpr, pi2: PathExpr, theta_set: tuple):
        self.first = FirstCore(pi2, theta_set)
        self.last = LastCore(pi)

    def start(self):
        return (self.first.start(), self.last.start())

    def prepare(self, state, ctx: StepCtx, payload_in) -> tuple:
        """What a step reads whatever the guess: the first core's agreement,
        and the last core's program with its θ(pred) and θ(sender)."""
        s5, s4 = state
        p5_in = p4_in = None
        if payload_in is not None:
            p5_in, p4_in = payload_in
        return (
            self.first.agreed(s5, ctx, p5_in),
            self.last.program(s4, ctx, p4_in),
            None if s4 == "start" else s4,
            p4_in,
        )

    def step(self, state, ctx: StepCtx, base, payload_in, want=None):
        w5 = w4 = None
        if want is not None:
            w5, w4 = want
        agreed, program, pred, sender = self.prepare(state, ctx, payload_in)
        send = ctx.kind == "send"
        for t5 in self.first.guesses(agreed, ctx, base, w5):
            t4 = program(BOTTOM, t5[-1], pred, sender)
            if w4 is None or t4 == w4:
                new = (t5, t4)
                yield new, t4[-1], new if send else None

    def final(self, state) -> bool:
        return self.first.final(state[0]) and self.last.final(state[1])


FOUR_COLORS = ("c1", "c2", "z1", "z2")


class FixCore:
    """Fixpoint detection: γ(e) = [fa(e) = e] on process q, via 4-coloring.

    The γ bit is supplied by the caller (claimed, or guessed by an enclosing
    machine), and each move's output is that γ; ζ colors are computed (γ=1
    alternates c1/c2) or guessed (γ=0 from {z1, z2}); events off q get a
    fixed dummy color, which is sound because only q-colors ever reach a
    comparison.  The colour is the base of the FaCore ``fa``, and on q a
    move's fa-output must equal it iff γ = 1.

    step_with_bit runs this rule around FaCore's step in one frame.  Given
    ``want``, only the wanted colour and alternation are tried, with one
    program call and no guess enumerated.
    """

    def __init__(self, q: str, pi: PathExpr, pi2: PathExpr):
        self.q = q
        self.fa = FaCore(pi, pi2, FOUR_COLORS)

    def start(self):
        return (self.fa.start(), "c2")  # alternation starts at c1

    def step_with_bit(self, state, ctx: StepCtx, gamma, payload_in, want=None):
        fa_state, alt = state
        on_q = ctx.proc == self.q
        if not on_q:
            zetas = (("z1", alt),)
        elif gamma == 1:
            nxt = "c1" if alt == "c2" else "c2"
            zetas = ((nxt, nxt),)
        else:
            zetas = (("z1", alt), ("z2", alt))
        w5 = w4 = None
        if want is not None:  # the colour is entry 0 of the first core's θ′
            (w5, w4), want_alt = want
            zetas = [z for z in zetas if z == (w5[0], want_alt)]
            if not zetas:
                return
        fa = self.fa
        agreed, program, pred, sender = fa.prepare(fa_state, ctx, payload_in)
        send = ctx.kind == "send"
        hit = gamma == 1
        for zeta, new_alt in zetas:
            for t5 in fa.first.guesses(agreed, ctx, zeta, w5):
                t4 = program(BOTTOM, t5[-1], pred, sender)
                if (w4 is None or t4 == w4) and not (on_q and hit != (t4[-1] == zeta)):
                    new = (t5, t4)
                    yield (new, new_alt), gamma, new if send else None

    def guess(self, state, ctx: StepCtx, payload_in, want=None):
        """step_with_bit with the bit guessed, γ ∈ {0,1} on q and γ = 0
        elsewhere."""
        for gamma in (0, 1) if ctx.proc == self.q else (0,):
            yield from self.step_with_bit(state, ctx, gamma, payload_in, want)

    def final(self, state) -> bool:
        return self.fa.final(state[0])


class PreorderCore:
    """All fixpoint/bottom components for a path set, plus the ⪯ recurrence.

    State: the components' states and the previous q-event's preorder (as
    preorder_combine's rows).  A step is the product of the components' moves:
    at each q-event every fixpoint component guesses its own bit, for later
    verification, and preorder_combine reads the bits off the moves' outputs,
    as masks, into the next preorder, which is the core's output; replay
    checks it against preorder_rows, ⪯ by its definition.  With c closure
    paths, the components are the bottom trackers, bots[i] for π_i, then
    fixes, indexed like the recurrence's bits: fixes[i*c + j] and
    fixes[c*c + i*c + j] for the f^{π_i,→*π_j} and f^{π_i,→+π_j} fixpoints.
    Given ``want``, a step keeps the product's moves whose rows are want's.
    """

    def __init__(self, q: str, paths: tuple[PathExpr, ...]):
        self.q = q
        self.clos = closure_with_star(paths)
        self.lift = _star_lift(_star_app(self.clos))
        self.bots = tuple(LastCore(a) for a in self.clos)
        self.fixes = tuple(
            FixCore(q, a, prepend(b))
            for prepend in (star_prepend, plus_prepend)
            for a in self.clos
            for b in self.clos
        )
        self.steps = tuple(functools.partial(_bottom_step, bc) for bc in self.bots) + tuple(
            fc.guess for fc in self.fixes
        )

    def start(self):
        states = tuple(bc.start() for bc in self.bots) + tuple(
            fc.start() for fc in self.fixes
        )
        return states, None  # no previous preorder

    def step(self, state, ctx: StepCtx, payload_in, want=None):
        states, prev = state
        wanted = None if want is None else want[0]
        on_q = ctx.proc == self.q
        c = len(self.bots)
        plus = c + c * c  # the outputs from here on are the →+ fixpoint bits
        for new_states, outs, pay in product_moves(self.steps, states, ctx, payload_in, wanted):
            pre = prev
            if on_q:
                pre = preorder_combine(
                    self.lift,
                    prev,
                    _mask(out is BOTTOM for out in outs[:c]),
                    [_mask(outs[c + i * c : c + i * c + c]) for i in range(c)],
                    [_mask(outs[plus + j * c + i] for j in range(c)) for i in range(c)],
                )
            if want is None or pre == want[1]:
                yield (new_states, pre), pre if on_q else None, pay

    def final(self, state) -> bool:
        states = state[0][len(self.bots) :]
        return all(fc.final(s) for fc, s in zip(self.fixes, states))


# ---------------------------------------------------------------------------
# the machine wrapper
# ---------------------------------------------------------------------------


def _unchecked(claim):
    return claim


class AnnotationCfm(LazyCfm):
    """A LazyCfm over an annotated alphabet, plus its direct decision route.

    The machine is one start state ``start()``, one product part
    ``part(state, ctx, msg_in, want)``, which yields (state, out, payload),
    and one final test ``final(state)``, the same on every process.  Its
    search step ``step(p, state, kind, label, peer, msg_in, want=None)``
    decodes the label (σ, a) and hands the part a StepCtx that carries a as
    ``claim``; between the run search (and ``replay``) and the part there is
    then one generator, cfm.transitions, as under LazyCfm.step.  It keeps
    the moves whose output is claim(a) on the events of ``check_proc``
    (every event when None) and every move elsewhere, and yields each as
    (state, message sent, Transition).

    annotate(m) is the canonical correct annotation, memoised on the MSC
    under the machine itself.  decide(ext) compares it with the claimed
    annotation, each claimed value first passed through ``claim``, on the
    events of ``check_proc``.  A machine whose annotation reads the claim
    (the label machines read ξ1 from it) is annotated given ξ1, unmemoised,
    and gives its own ``decide``; so does the gossip machine, whose decide
    stops at the first wrong event.  decide defines the same language as
    the transition relation; the two are cross-validated by run search on
    small instances and, where ``canonical`` is given, by ``replay`` of the
    valuation's run.
    """

    def __init__(
        self,
        name: str,
        start: Callable,
        part: Callable,
        final: Callable,
        annotate: Callable[..., dict],
        *,
        check_proc: Optional[str] = None,
        claim: Callable = _unchecked,
        decide: Optional[Callable[[ExtendedMsc], bool]] = None,
        canonical: Optional[Callable[[Msc], dict]] = None,
    ):
        # LazyCfm's hooks _starts and _final are methods of this class and
        # step overrides LazyCfm's, so LazyCfm.__init__ is not run
        self.signature, self._name = None, name
        self.start, self.part, self.final = start, part, final
        self._annotate_fn = annotate
        self._check_proc = check_proc
        self._claim = claim
        self._decide_fn = decide
        self._canonical_fn = canonical

    def _starts(self, p):
        return [self.start()]

    def step(self, p, state, kind, label, peer, msg_in, want=None):
        if not (isinstance(label, tuple) and len(label) == 2):
            raise ValueError(f"expected (label, annotation) pairs, got {label!r}")
        sigma, a = label
        moves = self.part(state, StepCtx(p, kind, peer, sigma, a), msg_in, want)
        check = self._check_proc
        claimed = self._claim(a) if check is None or p == check else ANY
        return transitions(p, state, kind, label, peer, msg_in, moves, claimed)

    def _final(self, p, state) -> bool:
        return self.final(state)

    def annotate(self, m: Msc, *args) -> dict:
        """The canonical correct annotation (given ξ1 for a label machine)."""
        if args:
            return self._annotate_fn(m, *args)
        cached = m._caches.get(self)
        if cached is None:
            cached = m._caches[self] = self._annotate_fn(m)
        return cached

    def decide(self, ext: ExtendedMsc) -> bool:
        if self._decide_fn is not None:
            return self._decide_fn(ext)
        m, claim = ext.base, self._claim
        want = self.annotate(m)
        events = m.events if self._check_proc is None else m.events_of(self._check_proc)
        return all(claim(ext.annot[e]) == want[e] for e in events)

    def canonical_states(self, m: Msc) -> dict:
        """Per event, the structured state its process reaches in the unique
        accepting run on the correctly annotated MSC."""
        if self._canonical_fn is None:
            raise NotImplementedError(f"{self.name} has no canonical-state pass")
        return self._canonical_fn(m)


def _pair_part(core, state, ctx: StepCtx, msg_in, want):
    """A θ-core as the part of a pair machine, on ξ1 of the claimed
    (ξ1, ξ2) as its base."""
    xi1, _ = ctx.claim
    return core.step(state, ctx, xi1, msg_in, want)


def _pair_machine(core, name, value, check_proc: Optional[str] = None) -> AnnotationCfm:
    """Wrap a θ-core whose annotations are (ξ1, ξ2) pairs with ξ2 =
    value(m, ξ1) on process ``check_proc``, or on every process when it is
    None.  Off check_proc ξ2 is free and the canonical annotation copies ξ1.
    The annotation and the decision read this one rule, and the search step
    checks ξ2, the claim, against the core's output."""

    def checks(p) -> bool:
        return check_proc is None or p == check_proc

    def annotate(m, xi1):
        vals = value(m, xi1)
        return {e: (xi1[e], vals[e] if checks(m.loc[e]) else xi1[e]) for e in m.events}

    def decide(ext):
        m, annot = ext.base, ext.annot
        for e, v in annot.items():
            if not (isinstance(v, tuple) and len(v) == 2):
                raise ValueError(f"annotation at {e!r} is not a (ξ1, ξ2) pair")
        vals = value(m, {e: v[0] for e, v in annot.items()})
        return all(annot[e][1] == vals[e] for e in m.events if checks(m.loc[e]))

    return AnnotationCfm(
        name,
        core.start,
        functools.partial(_pair_part, core),
        core.final,
        annotate,
        check_proc=check_proc,
        claim=operator.itemgetter(1),
        decide=decide,
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_last_label_cfm(theta_set: Iterable[Hashable], pi: PathExpr) -> AnnotationCfm:
    """ξ: E → Θ×(Θ∪{⊥}) with ξ2(e) = ξ1(last_π(e)); checked at every event."""
    theta_set = tuple(theta_set)
    if BOTTOM in theta_set:
        raise ValueError("⊥ cannot be a member of Θ")

    return _pair_machine(
        LastCore(pi),
        f"last-label[{format_path(pi)}]",
        lambda m, xi1: last_value(m, pi, xi1),
    )


def build_first_label_cfm(theta_set: Iterable[Hashable], pi: PathExpr) -> AnnotationCfm:
    """ξ: E → Θ×(Θ∪{⊤}) with ξ2(e) = ξ1(first_π(e)); checked at every event."""
    theta_set = tuple(theta_set)
    if TOP in theta_set:
        raise ValueError("⊤ cannot be a member of Θ")

    return _pair_machine(
        FirstCore(pi, theta_set),
        f"first-label[{format_path(pi)}]",
        lambda m, xi1: first_value(m, pi, xi1),
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

    return _pair_machine(
        FaCore(pi, pi2, theta_set),
        f"fa-label[{format_path(pi)};{format_path(pi2)}]@{q}",
        lambda m, xi1: fa_value(m, pi, pi2, xi1),
        check_proc=q,
    )


def build_fixpoint_cfm(p: str, q: str, pi: PathExpr, pi2: PathExpr) -> AnnotationCfm:
    """(M,γ) with γ(e) = [first_{π'}(last_π(e)) = e] for every q-event."""
    core = FixCore(q, pi, pi2)

    def annotate(m):
        bits = fixpoint_bits(m, pi, pi2)
        return {e: (1 if bits[e] else 0) if m.loc[e] == q else 0 for e in m.events}

    return AnnotationCfm(
        f"fixpoint[{format_path(pi)};{format_path(pi2)}]@{q}",
        core.start,
        lambda state, ctx, msg_in, want: core.step_with_bit(state, ctx, ctx.claim, msg_in, want),
        core.final,
        annotate,
        check_proc=q,
        canonical=lambda m: fix_canonical_states(m, q, pi, pi2),
    )


def build_preorder_cfm(
    p: str,
    q: str,
    paths: Iterable[PathExpr],
    sig: Optional[SystemSignature] = None,
) -> AnnotationCfm:
    """(M,γ) with γ(f) = the preorder ⪯_f over the given path set, on E_q.

    γ(f) is preorder_rows at f restricted to the d distinct given paths, in
    their order: a tuple of d ints, bit j of row i saying π_i ⪯_f π_j.  The
    canonical annotation off q is (); the machine does not check it.

    Every path must run from p to q: ⪯ compares last events on p (see
    preorder_rows).  With ``sig`` each path is checked against it; without,
    the caller guarantees that the paths share one source process.
    """
    paths = tuple(paths)
    if sig is not None:
        for pi in paths:
            if (p, q) not in comp(sig, pi):
                raise PathError(f"{format_path(pi)} is not compatible with ({p},{q})")

    @functools.cache
    def core() -> PreorderCore:
        """Built the first time a search needs it, so annotate and decide
        never do."""
        return PreorderCore(q, paths)

    d = len(dict.fromkeys(paths))

    def annotate(m):
        rows = preorder_rows(m, q, paths)
        return {e: _given_rows(rows[e], d) if e in rows else () for e in m.events}

    def part(state, ctx, msg_in, want):
        for new_state, out, payload in core().step(state, ctx, msg_in, want):
            yield new_state, None if out is None else _given_rows(out, d), payload

    return AnnotationCfm(
        f"preorder@{q}[{len(paths)} paths]",
        lambda: core().start(),
        part,
        lambda state: core().final(state),
        annotate,
        check_proc=q,
        canonical=lambda m: preorder_canonical_states(m, q, paths),
    )


_NO_MAXIMUM = object()


def gossip_component_value(members: tuple, rows: tuple, values):
    """One ξ-component of the transition relation: the last-label along the
    first ⪯-maximal path (None if that last is ⊥); the sentinel when the
    claimed preorder has no maximum, as under inconsistent guesses.
    ``members`` are the family's closure indices, ``rows`` the preorder as
    preorder_combine's rows and ``values[k]`` the k-th member's label value.
    The AND of the member rows has bit j set iff every member is ⪯ π_j.
    """
    above = -1
    for i in members:
        above &= rows[i]
    for j, value in zip(members, values):
        if above >> j & 1:
            return None if value is BOTTOM else value
    return _NO_MAXIMUM


def _pair_step(tgt: str, members: tuple, steps: tuple, state, ctx: StepCtx, msg_in, want):
    """A gossip (src, tgt) pair as one product part: the product of its
    PreorderCore and value LastCores (``steps``), whose output at tgt is the
    pair's component value, and None elsewhere."""
    at_tgt = ctx.proc == tgt
    for states, outs, payload in product_moves(steps, state, ctx, msg_in, want):
        value = gossip_component_value(members, outs[0], outs[1:]) if at_tgt else None
        yield states, value, payload


class _GossipCore:
    """The gossip relation: the product of one part per (src, tgt) pair of
    _gossip_plan, a product of the pair's PreorderCore and one value
    LastCore per family path (_pair_step).  The pairs run target by target,
    sources in process order, and the output at a p-event is p's slice of
    the pairs' outputs, the annotation that the move computes there."""

    def __init__(self, sig: SystemSignature):
        self.procs, self.pairs = sig.processes, _gossip_plan(sig)[0]

    @functools.cached_property
    def cores(self) -> tuple:
        """The pairs' start states, PreorderCores and parts, built the first
        time a search needs them, so that annotate and decide never do."""
        out = []
        for _, tgt, fam in self.pairs:
            pc = PreorderCore(tgt, fam)
            vcs = tuple(LastCore(pi) for pi in fam)
            steps = (pc.step, *(functools.partial(_label_step, vc) for vc in vcs))
            start = (pc.start(), *(vc.start() for vc in vcs))
            members = tuple(map(pc.clos.index, fam))
            out.append((start, pc, functools.partial(_pair_step, tgt, members, steps)))
        return tuple(zip(*out))

    def start(self):
        return self.cores[0]

    def step(self, state, ctx: StepCtx, msg_in, want=None):
        k = len(self.procs)
        at = k * self.procs.index(ctx.proc)
        for states, outs, payload in product_moves(self.cores[2], state, ctx, msg_in, want):
            yield states, outs[at : at + k], payload

    def final(self, state) -> bool:
        return all(pc.final(st[0]) for pc, st in zip(self.cores[1], state))


@functools.cache
def _gossip_plan(sig: SystemSignature) -> tuple:
    """The gossip families as build_gossip_cfm reads them, compiled once per
    signature: per (src, tgt) pair, (src, tgt, family), target by target in
    process order; one last-trie over every gossip family, whose read-out at
    a tgt-event is the annotation there, per source in process order the
    label at the greatest of its family's trie entries; and the trie's
    programs by shape code.
    """
    procs = sig.processes
    families = {tgt: [gossip_paths_between(sig, src, tgt) for src in procs] for tgt in procs}
    readout = {tgt: [[pi.symbols for pi in fam] for fam in fams] for tgt, fams in families.items()}
    paths = (symbols for fams in readout.values() for fam in fams for symbols in fam)
    trie = PathTrie(paths, readout=readout)
    pairs = tuple(
        (src, tgt, fam) for tgt, fams in families.items() for src, fam in zip(procs, fams)
    )
    return pairs, trie, trie.shape_programs(procs)


def _first_wrong(programs, ext: ExtendedMsc) -> Optional[tuple]:
    """The first event along linearize(ext.base) whose claimed annotation
    is not the gossip read-out, with the read-out; None if there is none.
    The pass stops there."""
    m, claim = ext.base, ext.annot
    events = m.events
    labels = [m.label[e] for e in events]
    labels.append(None)  # the value of ⊥, index _BOT = -1
    theta = [None] * len(events)
    for row in _trie_walk(_pass_steps(m, False), programs, _BOT, theta, labels):
        e = events[row[0]]  # entry 0 of a row is its event's index
        if row[-1] != claim[e]:
            return e, row[-1]
    return None


def gossip_first_wrong(ext: ExtendedMsc) -> Optional[tuple]:
    """Why build_gossip_cfm's decide rejects ``ext``: the first event along
    linearize(ext.base) whose claimed annotation is wrong, and the correct
    one there; None if decide accepts."""
    return _first_wrong(_gossip_plan(ext.base.signature)[2], ext)


def build_gossip_cfm(sig: SystemSignature) -> AnnotationCfm:
    """(M,ξ) with ξ(e) = (λ(latest p₁-event under e), ..., λ(latest p_k ...)).

    The annotation at each event is the tuple, in process order, of the label
    of the most recent event of that process in the strict causal past (None
    when there is none).  Internally each component value is obtained as the
    last-label along a ⪯-maximal gossip path, never from the causal order
    directly.

    annotate and decide read ⪯ among a family from src by its definition,
    π ⪯_f π′ iff last_π(f) ⊑ last_π′(f), off _gossip_plan's last-trie: those
    last events are src-events or ⊥ (_BOT = -1), and ``m.events`` lists each
    process's events in process order, so the ⪯-maximal one is the greatest
    index among the family's nodes.  That read-out is compiled into the
    trie's program of each event shape (PathTrie._compile), once per
    signature, so a row of the pass ends with the annotation at its event.
    annotate runs the pass to the end; decide steps along it and stops at
    the first event whose claim is wrong, and memoises nothing.  The
    relation runs the ⪯ recurrence.
    """
    pairs, trie, programs = _gossip_plan(sig)
    core = _GossipCore(sig)

    def annotate(m):
        return {e: row[-1] for e, row in zip(m.events, trie_maps(m, trie))}

    def decide(ext):
        return _first_wrong(programs, ext) is None

    def canonical(m):
        parts = [
            (
                preorder_canonical_states(m, tgt, fam),
                [last_theta(m, pi, m.label) for pi in fam],
            )
            for _, tgt, fam in pairs
        ]
        return {
            e: tuple((pre[e], *(th[e] for th in ths)) for pre, ths in parts)
            for e in m.events
        }

    return AnnotationCfm(
        "gossip", core.start, core.step, core.final, annotate, decide=decide, canonical=canonical
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
    bit-0 q-events take a hatted color, "z2" if their fa-target is a bit-0
    q-event colored "z1" and "z1" otherwise; other processes get a fixed
    dummy color.

    The fa-targets form no cycle but the fixpoints.  Each path symbol's
    preimage map is monotone along a process: at once for ⊏ and [a], by
    FIFO for msg(p,q), and →* only grows the preimage.  So last_π, first_π′
    and fa = first_π′∘last_π are monotone along q where defined, and a
    monotone map on a chain has no cycle but its fixpoints, the bit-1
    events.  It also keeps each target on its source's side: a bit-0 event
    whose target is later has a target whose own target is later still,
    and likewise for earlier.  Coloring first, in process order, the events
    whose target is not later, then, in reverse order, those whose target
    is later, colors every target before its source.
    """
    targets = fa_target(m, pi, pi2)
    zeta = {e: "z1" for e in m.events}
    alt = "c2"
    pos = {e: i for i, e in enumerate(m.events_of(q))}
    gray = []
    for e in pos:
        if targets[e] == e:
            alt = "c1" if alt == "c2" else "c2"
            zeta[e] = alt
        else:
            gray.append(e)
    # a target off q ranks -1, before every q-event
    back = [e for e in gray if pos.get(targets[e], -1) < pos[e]]
    ahead = [e for e in gray if pos.get(targets[e], -1) > pos[e]]
    color: dict[str, str] = {}
    for e in back + ahead[::-1]:
        color[e] = "z2" if color.get(targets[e]) == "z1" else "z1"
    zeta.update(color)
    return zeta


def fix_canonical_states(m: Msc, q: str, pi: PathExpr, pi2: PathExpr) -> dict:
    """Per event, the FixCore state on the unique accepting run."""
    zeta = canonical_coloring(m, q, pi, pi2)
    th5 = first_theta(m, pi2, zeta)
    th4 = last_theta(m, pi, {e: th5[e][-1] for e in m.events})
    # the bit-1 q-events are the ones coloured c1 or c2, and the alternation
    # of every other process stays at its start c2
    alt = "c2"
    out = {}
    for e in m.events:
        if zeta[e] in ("c1", "c2"):
            alt = zeta[e]
        out[e] = ((th5[e], th4[e]), alt if m.loc[e] == q else "c2")
    return out


def preorder_canonical_states(m: Msc, q: str, paths: tuple[PathExpr, ...]) -> dict:
    """Per event, the PreorderCore state on the unique accepting run."""
    clos = _preorder_plan(tuple(paths))[0]
    parts = [last_theta(m, a, {e: "•" for e in m.events}) for a in clos] + [
        fix_canonical_states(m, q, a, prepend(b))
        for prepend in (star_prepend, plus_prepend)
        for a in clos
        for b in clos
    ]
    pres = preorder_rows(m, q, paths)
    return {e: (tuple(s[e] for s in parts), pres.get(e)) for e in linearize(m)}


class ReplayError(Exception):
    """No move reaches the canonical state at ``event``; None: final_ok fails."""

    def __init__(self, name: str, event: Optional[str]):
        where = "the final check" if event is None else repr(event)
        super().__init__(f"{name}: replay fails at {where}")
        self.event = event


def replay(machine: AnnotationCfm, ext: ExtendedMsc) -> dict[str, list]:
    """Step the composite relation of ``machine`` on ``ext`` along its
    canonical run: along linearize, each event's step given (letter,
    annotation), on a receive the payload its matched send chose, and, as
    ``want``, the event's state in machine.canonical_states, so that it
    yields that state's move or none; then check final_ok.  ``ext.base``
    must be an MSC that ``validate_msc`` accepts: by FIFO the matched send's
    payload is then the head of its channel.

    Returns, per process, its start state and the state after each of its
    events.  Raises ReplayError at the first event with no move to its
    canonical state, or at the final check.
    """
    m = ext.base
    canon = machine.canonical_states(m)
    states = {p: [machine.start()] for p in m.signature.processes}
    index, sender = m.index, m._links[3]
    sent: list = [None] * len(m.events)  # per event position, the payload it sent
    for e in linearize(m):
        i = index[e]
        p, kind, peer = m.loc[e], m.kind_of(e), m.peer_of(e)
        msg_in = sent[sender[i]] if kind == "recv" else None
        label = (m.label[e], ext.annot[e])
        move = next(machine.step(p, states[p][-1], kind, label, peer, msg_in, canon[e]), None)
        if move is None or move[0] != canon[e]:
            raise ReplayError(machine.name, e)
        new_state, sent[i], _ = move
        states[p].append(new_state)
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
