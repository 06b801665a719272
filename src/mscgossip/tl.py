"""Event-based temporal logic over MSCs: syntax, semantics, CFM compilation.

Formulas are evaluated at events.  The core connectives are label and process
atoms, boolean constants, negation, disjunction, a concurrency modality, and
strict until/since along the causal order.  Derived process-local modalities
(next/previous/non-strict until/first-observable) expand into the core.

``eval_tl`` is the brute-force semantic oracle (causal matrix only).
``compile_tl`` produces machines over Σ×{0,1} recognizing exactly the
correctly bit-annotated MSCs, built from the preorder construction chain:
a since formula reduces, after recoding subformula bits to a four-letter
alphabet, to a per-process-pair dominance test between two families of
letter-decorated paths (``compile_since``), stepped by the preorder machinery
and decided directly by comparing the indices of last events.  Until is the
time reversal of since: the same dominance test on the same MSC, read off the
mirror pass of the since paths, which walks the linearization backwards.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Hashable

from .constructions import AnnotationCfm, PathTrie, PreorderCore, StepCtx, product_moves, trie_maps
from .msc import ExtendedMsc, Msc, SystemSignature, causal_lt
from .paths import LabelTest, PathExpr, gossip_paths_between


class TlError(ValueError):
    """Malformed formula, bad syntax, or unsupported compilation target."""


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TlFormula:
    pass


@dataclass(frozen=True)
class Atom(TlFormula):
    letter: Hashable


@dataclass(frozen=True)
class Proc(TlFormula):
    proc: str


@dataclass(frozen=True)
class Bool(TlFormula):
    value: bool


@dataclass(frozen=True)
class Not(TlFormula):
    sub: TlFormula


@dataclass(frozen=True)
class Or(TlFormula):
    left: TlFormula
    right: TlFormula


@dataclass(frozen=True)
class And(TlFormula):
    left: TlFormula
    right: TlFormula


@dataclass(frozen=True)
class Co(TlFormula):
    """Holds at e iff some causally incomparable event satisfies the body."""

    sub: TlFormula


@dataclass(frozen=True)
class Until(TlFormula):
    """Strict until: a strictly later witness, the body along the strict gap."""

    left: TlFormula
    right: TlFormula


@dataclass(frozen=True)
class Since(TlFormula):
    """Strict since: the past dual of Until."""

    left: TlFormula
    right: TlFormula


@dataclass(frozen=True)
class NextOn(TlFormula):
    """X: the next event on the given process satisfies the body."""

    proc: str
    sub: TlFormula


@dataclass(frozen=True)
class PrevOn(TlFormula):
    """Y: the previous event on the given process satisfies the body."""

    proc: str
    sub: TlFormula


@dataclass(frozen=True)
class UntilOn(TlFormula):
    """Non-strict until restricted to the given process's events."""

    proc: str
    left: TlFormula
    right: TlFormula


@dataclass(frozen=True)
class ObsOn(TlFormula):
    """Holds at e iff the first event of the process not in e's past
    satisfies the body."""

    proc: str
    sub: TlFormula


CORE_TYPES = (Atom, Proc, Bool, Not, Or, Co, Until, Since)


# ---------------------------------------------------------------------------
# concrete syntax
# ---------------------------------------------------------------------------
#
#   formula  := orexpr (("U" | "S" | "Up_<proc>") orexpr)?
#   orexpr   := andexpr ("|" andexpr)*
#   andexpr  := unary ("&" unary)*
#   unary    := "!" unary | "co" unary
#             | "X_<proc>" unary | "Y_<proc>" unary | "O_<proc>" unary
#             | atom
#   atom     := "(" formula ")" | "@"<proc> | "true" | "false" | <identifier>

_TL_TOKEN = re.compile(
    r"\s*(?:(?P<lpar>\()|(?P<rpar>\))|(?P<bang>!)|(?P<bar>\|)|(?P<amp>&)"
    r"|(?P<at>@(?P<atproc>\w+))"
    r"|(?P<word>\w+))"
)

_SUGAR_UNARY = re.compile(r"(?P<op>[XYO])_(?P<proc>\w+)$")
_SUGAR_UNTIL = re.compile(r"Up_(?P<proc>\w+)$")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            mt = _TL_TOKEN.match(text, pos)
            if mt is None or mt.end() == pos:
                if text[pos:].strip() == "":
                    break
                raise TlError(f"syntax error at position {pos}: {text[pos:]!r}")
            pos = mt.end()
            if mt.group("lpar"):
                self.toks.append(("(", "(", mt.start()))
            elif mt.group("rpar"):
                self.toks.append((")", ")", mt.start()))
            elif mt.group("bang"):
                self.toks.append(("!", "!", mt.start()))
            elif mt.group("bar"):
                self.toks.append(("|", "|", mt.start()))
            elif mt.group("amp"):
                self.toks.append(("&", "&", mt.start()))
            elif mt.group("at"):
                self.toks.append(("@", mt.group("atproc"), mt.start()))
            else:
                self.toks.append(("word", mt.group("word"), mt.start()))
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, msg: str):
        _, _, at = self.peek()
        raise TlError(f"syntax error at position {at}: {msg}")

    def formula(self) -> TlFormula:
        left = self.orexpr()
        kind, val, _ = self.peek()
        if kind == "word":
            if val == "U":
                self.take()
                return Until(left, self.orexpr())
            if val == "S":
                self.take()
                return Since(left, self.orexpr())
            mu = _SUGAR_UNTIL.match(val)
            if mu:
                self.take()
                return UntilOn(mu.group("proc"), left, self.orexpr())
        return left

    def orexpr(self) -> TlFormula:
        out = self.andexpr()
        while self.peek()[0] == "|":
            self.take()
            out = Or(out, self.andexpr())
        return out

    def andexpr(self) -> TlFormula:
        out = self.unary()
        while self.peek()[0] == "&":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> TlFormula:
        kind, val, _ = self.peek()
        if kind == "!":
            self.take()
            return Not(self.unary())
        if kind == "word":
            if val == "co":
                self.take()
                return Co(self.unary())
            mu = _SUGAR_UNARY.match(val)
            if mu:
                self.take()
                body = self.unary()
                op = mu.group("op")
                p = mu.group("proc")
                return {"X": NextOn, "Y": PrevOn, "O": ObsOn}[op](p, body)
        return self.atom()

    def atom(self) -> TlFormula:
        kind, val, _ = self.take()
        if kind == "(":
            out = self.formula()
            k, _, _ = self.take()
            if k != ")":
                self.error("expected ')'")
            return out
        if kind == "@":
            return Proc(val)
        if kind == "word":
            if val == "true":
                return Bool(True)
            if val == "false":
                return Bool(False)
            if val in ("U", "S", "co"):
                self.error(f"{val!r} is an operator, not an atom")
            return Atom(val)
        self.error("expected a formula")


def parse_tl(text: str) -> TlFormula:
    p = _Parser(text)
    out = p.formula()
    if p.i != len(p.toks):
        p.error("trailing input")
    return out


def format_tl(phi: TlFormula) -> str:
    """Canonical fully-parenthesized rendering; parse ∘ format = identity."""
    if isinstance(phi, Atom):
        return str(phi.letter)
    if isinstance(phi, Proc):
        return f"@{phi.proc}"
    if isinstance(phi, Bool):
        return "true" if phi.value else "false"
    if isinstance(phi, Not):
        return f"!{format_tl(phi.sub)}"
    if isinstance(phi, Or):
        return f"({format_tl(phi.left)} | {format_tl(phi.right)})"
    if isinstance(phi, And):
        return f"({format_tl(phi.left)} & {format_tl(phi.right)})"
    if isinstance(phi, Co):
        return f"co {_wrap(phi.sub)}"
    if isinstance(phi, Until):
        return f"({format_tl(phi.left)} U {format_tl(phi.right)})"
    if isinstance(phi, Since):
        return f"({format_tl(phi.left)} S {format_tl(phi.right)})"
    if isinstance(phi, NextOn):
        return f"X_{phi.proc} {_wrap(phi.sub)}"
    if isinstance(phi, PrevOn):
        return f"Y_{phi.proc} {_wrap(phi.sub)}"
    if isinstance(phi, UntilOn):
        return f"({format_tl(phi.left)} Up_{phi.proc} {format_tl(phi.right)})"
    if isinstance(phi, ObsOn):
        return f"O_{phi.proc} {_wrap(phi.sub)}"
    raise TlError(f"unknown formula node {phi!r}")


def _wrap(phi: TlFormula) -> str:
    s = format_tl(phi)
    return s if s.startswith(("(", "!", "@")) or " " not in s else f"({s})"


# ---------------------------------------------------------------------------
# derived-modality expansion
# ---------------------------------------------------------------------------


def _and(l: TlFormula, r: TlFormula) -> TlFormula:
    return Not(Or(Not(l), Not(r)))


def expand_derived(phi: TlFormula) -> TlFormula:
    """Eliminate sugar, producing the core connectives only."""
    if isinstance(phi, (Atom, Proc, Bool)):
        return phi
    if isinstance(phi, Not):
        return Not(expand_derived(phi.sub))
    if isinstance(phi, Or):
        return Or(expand_derived(phi.left), expand_derived(phi.right))
    if isinstance(phi, Co):
        return Co(expand_derived(phi.sub))
    if isinstance(phi, Until):
        return Until(expand_derived(phi.left), expand_derived(phi.right))
    if isinstance(phi, Since):
        return Since(expand_derived(phi.left), expand_derived(phi.right))
    if isinstance(phi, And):
        return _and(expand_derived(phi.left), expand_derived(phi.right))
    if isinstance(phi, NextOn):
        p, body = Proc(phi.proc), expand_derived(phi.sub)
        return Until(Not(p), _and(p, body))
    if isinstance(phi, PrevOn):
        p, body = Proc(phi.proc), expand_derived(phi.sub)
        return Since(Not(p), _and(p, body))
    if isinstance(phi, UntilOn):
        p = Proc(phi.proc)
        f1, f2 = expand_derived(phi.left), expand_derived(phi.right)
        now = _and(p, f2)
        keep = Or(Not(p), f1)
        return Or(now, _and(keep, Until(keep, now)))
    if isinstance(phi, ObsOn):
        p = phi.proc
        body = phi.sub
        never_before = And(Not(PrevOn(p, Bool(True))), body)
        return expand_derived(
            Or(
                PrevOn(p, NextOn(p, body)),
                Or(
                    Co(And(Proc(p), never_before)),
                    NextOn(p, never_before),
                ),
            )
        )
    raise TlError(f"unknown formula node {phi!r}")


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


# ---------------------------------------------------------------------------
# brute-force semantics (the oracle)
# ---------------------------------------------------------------------------


def eval_tl(m: Msc, phi: TlFormula) -> dict[str, bool]:
    """Per-event truth values straight from the causal matrix."""
    if isinstance(phi, Atom):
        return {e: m.label[e] == phi.letter for e in m.events}
    if isinstance(phi, Proc):
        return {e: m.loc[e] == phi.proc for e in m.events}
    if isinstance(phi, Bool):
        return {e: phi.value for e in m.events}
    if isinstance(phi, Not):
        v = eval_tl(m, phi.sub)
        return {e: not v[e] for e in m.events}
    if isinstance(phi, Or):
        v1, v2 = eval_tl(m, phi.left), eval_tl(m, phi.right)
        return {e: v1[e] or v2[e] for e in m.events}
    if isinstance(phi, Co):
        v = eval_tl(m, phi.sub)
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
        v1, v2 = eval_tl(m, phi.left), eval_tl(m, phi.right)
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
        v1, v2 = eval_tl(m, phi.left), eval_tl(m, phi.right)
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
        v1, v2 = eval_tl(m, phi.left), eval_tl(m, phi.right)
        return {e: v1[e] and v2[e] for e in m.events}
    if isinstance(phi, NextOn):
        # the first p-event strictly above e satisfies the body
        v = eval_tl(m, phi.sub)
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
        v = eval_tl(m, phi.sub)
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
        v1, v2 = eval_tl(m, phi.left), eval_tl(m, phi.right)
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
    return eval_tl(m, expand_derived(phi))


# ---------------------------------------------------------------------------
# compilation to bit-annotated machines
# ---------------------------------------------------------------------------


ABCD = ("a", "b", "c", "d")


def _recode(b1: int, b2: int) -> str:
    """Two subformula bits to the four-letter alphabet: a=11, b=10, c=01, d=00."""
    return ABCD[(1 - b1) * 2 + (1 - b2)]


def _label_prepend(letter: str, pi: PathExpr) -> PathExpr:
    return PathExpr((LabelTest(letter),) + pi.symbols)


def _label_join(pi1: PathExpr, letter: str, pi2: PathExpr) -> PathExpr:
    return PathExpr(pi1.symbols + (LabelTest(letter),) + pi2.symbols)


@functools.cache
def since_path_sets(
    sig: SystemSignature, src: str, tgt: str
) -> tuple[tuple[PathExpr, ...], tuple[PathExpr, ...]]:
    """The two letter-decorated families compared at each tgt-event.

    Left: paths from a src-event satisfying the witness letters (a or c)
    straight to tgt.  Right: paths from src that pass through an intermediate
    event violating the gap letters (c or d) on the way to tgt.  The witness
    condition "some left strictly dominates every right" then says: the most
    recent witness is more recent than any src-event whose connection to here
    crosses a gap violation.  Built once per (sig, src, tgt).
    """
    left = []
    for letter in ("a", "c"):
        for pi in gossip_paths_between(sig, src, tgt):
            left.append(_label_prepend(letter, pi))
    right = []
    for r in sig.processes:
        for pi1 in gossip_paths_between(sig, src, r):
            for letter in ("c", "d"):
                for pi2 in gossip_paths_between(sig, r, tgt):
                    cand = _label_join(pi1, letter, pi2)
                    if cand not in right:
                        right.append(cand)
    return tuple(left), tuple(right)


@functools.cache
def _since_plan(sig: SystemSignature, mirror: bool) -> tuple[PathTrie, dict]:
    """One trie over the since paths of every pair, and per (src, tgt) the
    trie nodes of its left and right families; compiled once per signature
    and direction.  The until plan holds the same paths in a mirror trie,
    whose pass reads them on the time reversal of the MSC."""
    families = {
        (src, tgt): since_path_sets(sig, src, tgt)
        for tgt in sig.processes
        for src in sig.processes
    }
    trie = PathTrie((pi.symbols for lf, rt in families.values() for pi in lf + rt), mirror)
    nodes = {
        pair: tuple(tuple(trie.find(pi.symbols) for pi in fam) for fam in lf_rt)
        for pair, lf_rt in families.items()
    }
    return trie, nodes


def _dominates(rows: tuple, left: tuple, right: int) -> bool:
    """Some left path strictly above every right path in the total preorder,
    given as preorder_combine's rows: ``left`` holds the left paths' closure
    indices and bit r of ``right`` is set for each right path's index r."""
    return any(not rows[l] & right for l in left)


def _dominance(m: Msc, sig: SystemSignature, pairs, mirror: bool) -> dict[str, int]:
    """Bit 1 at a tgt-event iff, for some (src, tgt) in ``pairs``, the last
    event of a left path is more recent than that of every right path, all
    read off the one map of the since trie (its mirror for until).

    (l, r) is in the preorder at e iff last_l(e) <= last_r(e).  Every such
    last event is a src-event or none, and m.events lists src's events in
    process order, so recency is the event index on the forward pass and
    the index reversed on the mirror pass; none (_BOT, _TOP) is the least
    recent.
    """
    trie, nodes = _since_plan(sig, mirror)
    maps = trie_maps(m, trie)
    n = len(m.events)
    # an event index's recency; _BOT and _TOP index this list from its end
    recency = [*(range(n, 0, -1) if mirror else range(n)), -1, -1]
    out = dict.fromkeys(m.events, 0)
    for src, tgt in pairs:
        lf, rt = nodes[src, tgt]
        for e in m.events_of(tgt):
            row = maps[m.index[e]]
            if max(recency[row[l]] for l in lf) > max(recency[row[r]] for r in rt):
                out[e] = 1
    return out


def _abcd_msc(m: Msc, bits1: dict, bits2: dict) -> Msc:
    sig = SystemSignature(m.signature.processes, ABCD)
    events = [(e, m.loc[e], _recode(bits1[e], bits2[e])) for e in m.events]
    return Msc(sig, events, m.msg)


def _bit_of(annot) -> int:
    if annot not in (0, 1):
        raise TlError(f"annotation {annot!r} is not a bit")
    return annot


class _TlMachine(AnnotationCfm):
    """Compiled formula machine: bit annotations over Σ×{0,1}.

    Annotations are cached on the MSC under the formula and the signature
    (they do not depend on the claimed bits), so deciding many mutations of
    one instance costs one computation.
    """

    def __init__(self, phi, sig, starts, step_fn, final_ok, annotate_fn):
        name = f"tl[{format_tl(phi)}]"

        def annotate_cached(m):
            key = ("tl-annot", name, sig)
            if key not in m._caches:
                m._caches[key] = annotate_fn(m)
            return m._caches[key]

        def decide(ext):
            want = annotate_cached(ext.base)
            return all(_bit_of(ext.annot[e]) == want[e] for e in ext.base.events)

        super().__init__(
            name,
            starts,
            step_fn,
            final_ok,
            annotate_cached,
            decide,
        )


def _checker_machine(phi, sig, holds) -> _TlMachine:
    """One-state machine for connectives decidable from the event itself."""

    def starts(p):
        return ["s"]

    def step(p, state, kind, label, peer, msg_in):
        sigma, bit = label
        if _bit_of(bit) == (1 if holds(p, sigma) else 0):
            yield "s", None

    def annotate(m):
        return {e: (1 if holds(m.loc[e], m.label[e]) else 0) for e in m.events}

    return _TlMachine(phi, sig, starts, step, lambda p, s: True, annotate)


def _not_machine(phi, sig, inner: _TlMachine) -> _TlMachine:
    def starts(p):
        return inner._starts(p)

    def step(p, state, kind, label, peer, msg_in):
        sigma, bit = label
        yield from inner._step(p, state, kind, (sigma, 1 - _bit_of(bit)), peer, msg_in)

    def annotate(m):
        sub = inner._annotate_fn(m)
        return {e: 1 - sub[e] for e in m.events}

    return _TlMachine(phi, sig, starts, step, inner._final, annotate)


def _guessed(machine: _TlMachine, p, state, kind, sigma, peer, bits=(0, 1)):
    """A part for product_moves: the sub-formula machine's moves with its bit
    guessed from ``bits``; each move's output is its bit.  A wanted state is
    ignored."""

    def moves(msg_in, want=None):
        for b in bits:
            for new_state, payload in machine._step(p, state, kind, (sigma, b), peer, msg_in):
                yield new_state, b, payload

    return moves


def _or_machine(phi, sig, m1: _TlMachine, m2: _TlMachine) -> _TlMachine:
    def starts(p):
        return [(s1, s2) for s1 in m1._starts(p) for s2 in m2._starts(p)]

    def step(p, state, kind, label, peer, msg_in):
        sigma, bit = label
        bit = _bit_of(bit)
        parts = [_guessed(sub, p, s, kind, sigma, peer) for sub, s in zip((m1, m2), state)]
        for states, (b1, b2), payload in product_moves(parts, msg_in, kind == "send"):
            if (b1 | b2) == bit:
                yield states, payload

    def final_ok(p, state):
        return m1._final(p, state[0]) and m2._final(p, state[1])

    def annotate(m):
        v1, v2 = m1._annotate_fn(m), m2._annotate_fn(m)
        return {e: v1[e] | v2[e] for e in m.events}

    return _TlMachine(phi, sig, starts, step, final_ok, annotate)


def compile_since(
    p: str, q: str, sig: SystemSignature
) -> AnnotationCfm:
    """The single-pair dominance machine over the four-letter alphabet.

    Reads (letter, bit) pairs with letter in {a, b, c, d}; the bit on
    q-events must be 1 iff some decorated left path from p strictly
    dominates every right path.  Events off q must carry bit 0.  The direct
    route is _dominance for the one pair (p, q).

    This is the one construction of a pair: the since machine's search runs
    these.  ``moves(pp, state, ctx, msg_in, want=None)`` yields the
    preorder core's moves with their dominance bit (False off q) and ignores
    ``want``; the core is built the first time a search needs it, so
    annotate and decide never build it.
    """
    if p not in sig.processes or q not in sig.processes:
        raise TlError(f"unknown process in pair ({p!r}, {q!r})")
    lf, rt = since_path_sets(sig, p, q)

    @functools.cache
    def core() -> tuple[PreorderCore, tuple, int]:
        """The preorder core, the closure indices of lf and their mask for rt."""
        pc = PreorderCore(q, tuple(dict.fromkeys(lf + rt)))
        return pc, tuple(map(pc.clos.index, lf)), sum(1 << pc.clos.index(r) for r in rt)

    def moves(pp, state, ctx, msg_in, want=None):
        pc, lf_at, rt_mask = core()
        for ns, out, pay in pc.step(state, ctx, msg_in):
            yield ns, pp == q and _dominates(out, lf_at, rt_mask), pay

    def starts(pp):
        return [core()[0].start()]

    def step(pp, state, kind, label, peer, msg_in):
        sigma, bit = label
        bit = _bit_of(bit)
        if sigma not in ABCD:
            return
        for ns, dom, pay in moves(pp, state, StepCtx(pp, kind, peer, sigma), msg_in):
            if dom == bit:
                yield ns, pay

    def final_ok(pp, state):
        return core()[0].final(state)

    def annotate(m):
        return _dominance(m, sig, [(p, q)], False)

    def decide(ext):
        want = annotate(ext.base)
        return all(_bit_of(ext.annot[e]) == want[e] for e in ext.base.events)

    out = AnnotationCfm(
        f"since[{p}->{q}]", starts, step, final_ok, annotate, decide
    )
    out.moves = moves
    return out


def _since_machine(phi, sig, m1: _TlMachine, m2: _TlMachine) -> _TlMachine:
    """Since, and until as its time reversal, over the abcd recoding.

    The bit at an event on process tgt is 1 iff, for some src, the most
    recent src-witness (letters a/c) strictly dominates every src-event whose
    path to here crosses a letter in {c, d}.  For until, most recent is in
    reversed time: annotate is _dominance on the mirror pass of the since
    trie over the recoded MSC, so no mirror MSC is built.

    A search steps the product of the operands' machines and of every
    (src, tgt) pair's compile_since machine, built the first time a search
    needs them.  Until has no forward relation: its search raises TlError.
    """
    procs = sig.processes
    mirror = isinstance(phi, Until)
    every_pair = [(src, tgt) for tgt in procs for src in procs]

    @functools.cache
    def pairs() -> list:
        if mirror:
            raise TlError(
                "the until machine's transition relation is the mirror of its "
                "since core and cannot be searched forward; use decide()"
            )
        return [compile_since(src, tgt, sig) for src, tgt in every_pair]

    def starts(p):
        cs = tuple(pair._starts(p)[0] for pair in pairs())
        return [(s1, s2, *cs) for s1 in m1._starts(p) for s2 in m2._starts(p)]

    def step(p, state, kind, label, peer, msg_in):
        """The product of both operands' machines, at guessed bits b1 and
        b2, and of every pair's core on the event recoded from b1 and b2."""
        sigma, bit = label
        bit = _bit_of(bit)
        cores = list(zip(pairs(), state[2:]))
        for b1 in (0, 1):
            for b2 in (0, 1):
                ctx = StepCtx(p, kind, peer, _recode(b1, b2))
                parts = [
                    _guessed(m1, p, state[0], kind, sigma, peer, (b1,)),
                    _guessed(m2, p, state[1], kind, sigma, peer, (b2,)),
                ] + [functools.partial(pair.moves, p, cs, ctx) for pair, cs in cores]
                for states, outs, payload in product_moves(parts, msg_in, kind == "send"):
                    if any(outs[2:]) == bit:
                        yield states, payload

    def final_ok(p, state):
        return (
            m1._final(p, state[0])
            and m2._final(p, state[1])
            and all(pair._final(p, cs) for pair, cs in zip(pairs(), state[2:]))
        )

    def annotate(m):
        recoded = _abcd_msc(m, m1._annotate_fn(m), m2._annotate_fn(m))
        return _dominance(recoded, sig, every_pair, mirror)

    return _TlMachine(phi, sig, starts, step, final_ok, annotate)


def compile_tl(phi: TlFormula, sig: SystemSignature) -> AnnotationCfm:
    """Machine over Σ×{0,1} accepting exactly the correctly bit-annotated
    MSCs: the bit at every event equals the formula's truth value there."""
    phi = expand_derived(phi)
    return _compile_core(phi, sig)


def _compile_core(phi, sig) -> _TlMachine:
    if isinstance(phi, Atom):
        return _checker_machine(phi, sig, lambda p, s: s == phi.letter)
    if isinstance(phi, Proc):
        if phi.proc not in sig.processes:
            raise TlError(f"unknown process {phi.proc!r}")
        return _checker_machine(phi, sig, lambda p, s: p == phi.proc)
    if isinstance(phi, Bool):
        return _checker_machine(phi, sig, lambda p, s: phi.value)
    if isinstance(phi, Not):
        return _not_machine(phi, sig, _compile_core(phi.sub, sig))
    if isinstance(phi, Or):
        return _or_machine(
            phi, sig, _compile_core(phi.left, sig), _compile_core(phi.right, sig)
        )
    if isinstance(phi, (Since, Until)):
        return _since_machine(
            phi, sig, _compile_core(phi.left, sig), _compile_core(phi.right, sig)
        )
    if isinstance(phi, Co):
        raise TlError(
            "unsupported: external construction (the concurrency modality's "
            "machine is delegated to prior work and is not compiled here)"
        )
    raise TlError(f"cannot compile {phi!r}")


# ---------------------------------------------------------------------------
# the acceptance harness
# ---------------------------------------------------------------------------


def check_translation(phi: TlFormula, m: Msc) -> tuple[bool, list[str]]:
    """True iff the compiled machine accepts the oracle bits and rejects
    every single-bit mutation; the diff lists each failing case."""
    machine = compile_tl(phi, m.signature)
    want = eval_tl(m, phi)
    bits = {e: (1 if want[e] else 0) for e in m.events}
    diffs: list[str] = []
    if not machine.decide(ExtendedMsc(m, bits)):
        diffs.append("correct annotation rejected")
    for e in m.events:
        flipped = dict(bits)
        flipped[e] = 1 - bits[e]
        if machine.decide(ExtendedMsc(m, flipped)):
            diffs.append(f"mutation at {e!r} accepted")
    return not diffs, diffs
