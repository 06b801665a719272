"""Path expressions over MSCs: relational semantics, compatibility, extremal events.

A path expression is a word over {⊏, →*, msg(p,q), [a]} and denotes a binary
relation on events obtained by left-to-right relational composition.  This
module is the brute-force reference engine: it works directly on the causal
reachability matrix and never consults the CFM constructions it validates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional

from .msc import BOTTOM, TOP, ExtEvent, Msc, MscError, SystemSignature


class PathError(ValueError):
    """Malformed path expression or incompatible use."""


@dataclass(frozen=True)
class Step:
    """Direct process successor ⊏."""

    def __str__(self):
        return "->"


@dataclass(frozen=True)
class StarStep:
    """Reflexive-transitive process successor →*."""

    def __str__(self):
        return "->*"


@dataclass(frozen=True)
class Msg:
    """A message edge from process src to process dst."""

    src: str
    dst: str

    def __str__(self):
        return f"msg({self.src},{self.dst})"


@dataclass(frozen=True)
class LabelTest:
    """Identity restricted to events labeled with the given letter."""

    letter: object

    def __str__(self):
        return f"[{self.letter}]"


PathSymbol = Step | StarStep | Msg | LabelTest


@dataclass(frozen=True)
class PathExpr:
    symbols: tuple[PathSymbol, ...] = ()

    def __str__(self):
        return "eps" if not self.symbols else " ".join(str(s) for s in self.symbols)

    def __len__(self):
        return len(self.symbols)

    def concat(self, other: "PathExpr") -> "PathExpr":
        return PathExpr(self.symbols + other.symbols)


EPS = PathExpr()
STAR = PathExpr((StarStep(),))
PLUS = PathExpr((Step(), StarStep()))  # →+ is sugar for ⊏ →*


def check_path(sig: SystemSignature, pi: PathExpr) -> None:
    for s in pi.symbols:
        if isinstance(s, Msg):
            if s.src not in sig.processes or s.dst not in sig.processes:
                raise PathError(f"unknown process in {s}")
            if s.src == s.dst:
                raise PathError(f"message endpoints must differ in {s}")
        elif isinstance(s, LabelTest):
            if s.letter not in sig.alphabet:
                raise PathError(f"unknown label in {s}")


def star_append(pi: PathExpr) -> PathExpr:
    """π →*, identifying π →* →* with π →* (the only licensed rewriting)."""
    if pi.symbols and isinstance(pi.symbols[-1], StarStep):
        return pi
    return pi.concat(STAR)


def star_prepend(pi: PathExpr) -> PathExpr:
    if pi.symbols and isinstance(pi.symbols[0], StarStep):
        return pi
    return STAR.concat(pi)


def plus_prepend(pi: PathExpr) -> PathExpr:
    return PLUS.concat(pi)


# -- compatibility -----------------------------------------------------------


def comp(sig: SystemSignature, pi: PathExpr) -> set[tuple[str, str]]:
    """Process pairs (p,q) such that π may describe a path from p to q."""
    check_path(sig, pi)
    rel = {(p, p) for p in sig.processes}
    for s in pi.symbols:
        if isinstance(s, Msg):
            step = {(s.src, s.dst)}
        else:
            step = {(p, p) for p in sig.processes}
        rel = {(a, d) for a, b in rel for c, d in step if b == c}
    return rel


# -- relational semantics ----------------------------------------------------


def eval_path(m: Msc, pi: PathExpr) -> set[tuple[str, str]]:
    """⟦π⟧ as a set of event pairs, by composition of the base relations."""
    check_path(m.signature, pi)
    idx = m.index
    n = len(m.events)
    # cur[i] = bitmask of events reachable from event i via the prefix read so far
    cur = [1 << i for i in range(n)]
    desc = _descendant_masks(m)
    for s in pi.symbols:
        nxt = [0] * n
        if isinstance(s, StarStep):
            step = desc
        elif isinstance(s, Step):
            step = [0] * n
            for a, b in m.proc_succ:
                step[idx[a]] |= 1 << idx[b]
        elif isinstance(s, Msg):
            step = [0] * n
            for a, b in m.msg:
                if m.loc[a] == s.src and m.loc[b] == s.dst:
                    step[idx[a]] |= 1 << idx[b]
        else:  # LabelTest
            step = [
                (1 << i) if m.label[m.events[i]] == s.letter else 0 for i in range(n)
            ]
        for i in range(n):
            mask, out = cur[i], 0
            while mask:
                j = (mask & -mask).bit_length() - 1
                out |= step[j]
                mask &= mask - 1
            nxt[i] = out
        cur = nxt
    pairs = set()
    for i in range(n):
        mask = cur[i]
        while mask:
            j = (mask & -mask).bit_length() - 1
            pairs.add((m.events[i], m.events[j]))
            mask &= mask - 1
    return pairs


def _descendant_masks(m: Msc) -> list[int]:
    """step[i] = bitmask of events f with e_i →* f (same-process, reflexive)."""
    key = "path_desc"
    if key not in m._caches:
        idx = m.index
        n = len(m.events)
        step = [1 << i for i in range(n)]
        for p in m.signature.processes:
            es = m.events_of(p)
            acc = 0
            for e in reversed(es):
                acc |= 1 << idx[e]
                step[idx[e]] = acc
        m._caches[key] = step
    return m._caches[key]


def _extremal(m: Msc, events: Iterable[str], pick_max: bool) -> ExtEvent:
    """Max (min) of a set of events that must lie on one process; ⊥ (⊤) if empty."""
    events = list(events)
    if not events:
        return BOTTOM if pick_max else TOP
    procs = {m.loc[e] for e in events}
    if len(procs) > 1:
        raise AssertionError(
            f"path image spans processes {sorted(procs)}: invariant violation"
        )
    key = max if pick_max else min
    return key(events, key=m.pos_on_proc)


def last(m: Msc, pi: PathExpr, e: str) -> ExtEvent:
    """max ⟦π⟧⁻¹(e), or BOTTOM if the preimage is empty."""
    if e not in m.index:
        raise MscError(f"unknown event id {e!r}")
    rel = eval_path(m, pi)
    return _extremal(m, (f for f, g in rel if g == e), pick_max=True)


def first(m: Msc, pi: PathExpr, e: str) -> ExtEvent:
    """min ⟦π⟧(e), or TOP if the image is empty."""
    if e not in m.index:
        raise MscError(f"unknown event id {e!r}")
    rel = eval_path(m, pi)
    return _extremal(m, (g for f, g in rel if f == e), pick_max=False)


def f_pair(m: Msc, pi: PathExpr, pi2: PathExpr, e: str) -> ExtEvent:
    """first_{π'}(last_π(e)), with first_{π'}(⊥) = ⊥."""
    sig = m.signature
    cp, cp2 = comp(sig, pi), comp(sig, pi2)
    if not any(pq in cp2 for pq in cp):
        raise PathError("π and π' are not compatible with a common process pair")
    g = last(m, pi, e)
    if g is BOTTOM:
        return BOTTOM
    return first(m, pi2, g)


# -- preorder ----------------------------------------------------------------


@dataclass(frozen=True)
class EventPreorder:
    """The total preorder ⪯_e over a finite path set, at one event."""

    at: str
    paths: tuple[PathExpr, ...]
    leq: frozenset[tuple[PathExpr, PathExpr]]

    def holds(self, pi: PathExpr, pi2: PathExpr) -> bool:
        return (pi, pi2) in self.leq

    def strictly(self, pi: PathExpr, pi2: PathExpr) -> bool:
        """π ≺_e π', i.e. π' ⋠_e π."""
        return (pi2, pi) not in self.leq


def preorder_at(m: Msc, paths: Iterable[PathExpr], e: str) -> EventPreorder:
    """Brute-force ⪯_e: compare last_π(e) values under the causal order."""
    paths = tuple(paths)
    sig = m.signature
    for pi in paths:
        if not any(pq[1] == m.loc[e] for pq in comp(sig, pi)):
            raise PathError(f"{pi} cannot end on process {m.loc[e]}")
    lasts = {pi: last(m, pi, e) for pi in paths}

    def key(v: ExtEvent) -> int:
        return -1 if v is BOTTOM else m.pos_on_proc(v)

    leq = frozenset(
        (a, b) for a in paths for b in paths if key(lasts[a]) <= key(lasts[b])
    )
    return EventPreorder(at=e, paths=paths, leq=leq)


# -- the gossip path family ---------------------------------------------------


def gossip_paths_between(sig: SystemSignature, p: str, q: str) -> tuple[PathExpr, ...]:
    """All π_w for sequences w of pairwise distinct processes from p to q.

    π_w = →+ when w = p (single process), else →* msg(p1,p2) →* ... →*.
    Enumeration is in lexicographic process order for determinism.
    """
    if p not in sig.processes or q not in sig.processes:
        raise PathError("unknown process")
    out: list[PathExpr] = []
    if p == q:
        return (PLUS,)
    rest = [r for r in sig.processes if r not in (p, q)]

    def sequences(prefix: list[str], remaining: list[str]):
        yield prefix + [q]
        for i, r in enumerate(sorted(remaining)):
            yield from sequences(prefix + [r], [x for x in remaining if x != r])

    seqs = sorted(sequences([p], rest))
    for w in seqs:
        syms: list[PathSymbol] = [StarStep()]
        for a, b in zip(w, w[1:]):
            syms.extend((Msg(a, b), StarStep()))
        out.append(PathExpr(tuple(syms)))
    return tuple(out)


def gossip_paths(sig: SystemSignature) -> tuple[PathExpr, ...]:
    """Every pair's gossip paths, each once, in the order first met."""
    pairs = [(p, q) for p in sig.processes for q in sig.processes]
    return tuple(dict.fromkeys(pi for p, q in pairs for pi in gossip_paths_between(sig, p, q)))


# -- concrete syntax -----------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<eps>eps)|(?P<plus>->\+)|(?P<star>->\*)|(?P<step>->)"
    r"|msg\(\s*(?P<src>\w+)\s*,\s*(?P<dst>\w+)\s*\)|\[(?P<label>[^\]]+)\])"
)


def parse_path(text: str, sig: Optional[SystemSignature] = None) -> PathExpr:
    """Parse the concrete syntax: eps, ->, ->*, ->+, msg(p,q), [a]."""
    syms: list[PathSymbol] = []
    pos = 0
    saw_eps = False
    while pos < len(text):
        mt = _TOKEN.match(text, pos)
        if mt is None:
            if text[pos:].strip() == "":
                break
            raise PathError(f"syntax error at position {pos}: {text[pos:]!r}")
        pos = mt.end()
        if mt.group("eps"):
            saw_eps = True
        elif mt.group("plus"):
            syms.extend((Step(), StarStep()))
        elif mt.group("star"):
            syms.append(StarStep())
        elif mt.group("step"):
            syms.append(Step())
        elif mt.group("src"):
            syms.append(Msg(mt.group("src"), mt.group("dst")))
        else:
            syms.append(LabelTest(mt.group("label").strip()))
    if saw_eps and syms:
        raise PathError("'eps' cannot be combined with other symbols")
    pi = PathExpr(tuple(syms))
    if sig is not None:
        check_path(sig, pi)
    return pi


def format_path(pi: PathExpr) -> str:
    return str(pi)
