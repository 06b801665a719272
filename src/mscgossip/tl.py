"""Event-based temporal logic over MSCs: syntax, semantics, CFM compilation.

Formulas are evaluated at events.  The core connectives are label and process
atoms, boolean constants, negation, disjunction, a concurrency modality, and
strict until/since along the causal order.  Derived process-local modalities
(next/previous/non-strict until/first-observable) expand into the core.

``eval_tl`` is the semantic oracle: it reads the causal order alone, as
bitmask rows of the events below and above each event.
``compile_tl`` produces machines over Σ×{0,1} recognizing exactly the
correctly bit-annotated MSCs, built from the preorder construction chain:
a since formula reduces, after recoding subformula bits to a four-letter
alphabet, to a per-process-pair dominance test between two families of
letter-decorated paths (``since_path_sets``), decided directly by comparing
the indices of last events (``_dominance``) and stepped, for a search, by
one ``PreorderCore`` per pair.  Each machine is one start state, one product
part that computes its bit and one final test, composed from its operands'
own; the search step, which ``AnnotationCfm`` derives, keeps the moves whose
bit is the claimed one.  Until is the time reversal of since: the same
dominance test on the same MSC, read off the mirror pass of the since paths,
which walks the linearization backwards.  On the direct route each machine
annotates an MSC with one int over event positions (``_TlMachine.mask``),
built from its operands' ints: not and or are bit operations, and since
and until set the bits where their dominance test holds.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Hashable, Optional

from .constructions import (
    AnnotationCfm,
    PreorderCore,
    StepCtx,
    _function,
    _trie_pass,
    product_moves,
    trie_plan,
)
from .msc import ExtendedMsc, Msc, SystemSignature
from .paths import LabelTest, PathExpr, gossip_paths_between


class TlError(ValueError):
    """Malformed formula, bad syntax, or unsupported compilation target."""


# The deepest nesting of subformulas (or, in the concrete syntax, of
# parentheses and prefix operators) that parse_tl, compile_tl and eval_tl
# accept: they and the machines compile_tl builds recurse on it.
MAX_DEPTH = 100
_TOO_DEEP = f"formula nests deeper than {MAX_DEPTH} levels"
_TOO_DEEP_EXPANDED = f"{_TOO_DEEP} once expanded"


# ---------------------------------------------------------------------------
# abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TlFormula:
    @functools.cached_property
    def depth(self) -> int:
        """The nesting of subformulas, a leaf being one level: the number
        of levels of a breadth-first walk, which does not recurse, so that
        any depth can be measured, and kept on the formula, which parse_tl,
        compile_tl and eval_tl then measure once.  A level holds each
        subformula object once, so that one shared by several parents (as
        in expand_derived's output) is walked once per level it is on."""
        depth, level = 0, [self]
        while level:
            depth += 1
            below = {}
            for f in level:
                for name in _SUBFORMULAS.get(type(f), ()):
                    sub = getattr(f, name)
                    below[id(sub)] = sub
            level = below.values()
        return depth


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
    """Holds at e iff the first event of the process not in e's strict past
    satisfies the body: on the process, e itself."""

    proc: str
    sub: TlFormula


# the fields of each connective that hold its subformulas
_SUBFORMULAS = {
    **dict.fromkeys((Not, Co, NextOn, PrevOn, ObsOn), ("sub",)),
    **dict.fromkeys((Or, And, Until, Since, UntilOn), ("left", "right")),
}


def check_depth(phi: TlFormula) -> None:
    """Raise TlError if phi nests deeper than MAX_DEPTH."""
    if phi.depth > MAX_DEPTH:
        raise TlError(_TOO_DEEP)


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
                rest = text[pos:].lstrip()
                if rest == "":
                    break
                raise TlError(f"syntax error at position {len(text) - len(rest)}: {rest!r}")
            pos = mt.end()
            # a token's position is where it starts, after the blanks before it
            kind = mt.lastgroup
            if kind == "at":
                self.toks.append(("@", mt.group("atproc"), mt.start(kind)))
            elif kind == "word":
                self.toks.append(("word", mt.group("word"), mt.start(kind)))
            else:
                sym = mt.group(kind)
                self.toks.append((sym, sym, mt.start(kind)))
        self.i = 0
        self.nesting = 0

    def nested(self, parse) -> TlFormula:
        """``parse`` one level deeper in parentheses or prefix operators,
        which the parser recurses on: at most MAX_DEPTH levels."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise TlError(_TOO_DEEP)
        out = parse()
        self.nesting -= 1
        return out

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def error(self, msg: str, at: Optional[int] = None):
        """Refuse the text at position ``at``, by default the next token's."""
        if at is None:
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
            return Not(self.nested(self.unary))
        if kind == "word":
            if val == "co":
                self.take()
                return Co(self.nested(self.unary))
            mu = _SUGAR_UNARY.match(val)
            if mu:
                self.take()
                body = self.nested(self.unary)
                op = mu.group("op")
                p = mu.group("proc")
                return {"X": NextOn, "Y": PrevOn, "O": ObsOn}[op](p, body)
        return self.atom()

    def atom(self) -> TlFormula:
        kind, val, at = self.take()
        if kind == "(":
            out = self.nested(self.formula)
            k, _, end = self.take()
            if k != ")":
                self.error("expected ')'", end)
            return out
        if kind == "@":
            return Proc(val)
        if kind == "word":
            if val == "true":
                return Bool(True)
            if val == "false":
                return Bool(False)
            if val in ("U", "S", "co"):
                self.error(f"{val!r} is an operator, not an atom", at)
            return Atom(val)
        self.error("expected a formula", at)


def parse_tl(text: str) -> TlFormula:
    p = _Parser(text)
    out = p.formula()
    if p.i != len(p.toks):
        p.error("trailing input")
    check_depth(out)
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


def _next(p: str, body: TlFormula) -> TlFormula:
    """X_p of an expanded body."""
    return Until(Not(Proc(p)), _and(Proc(p), body))


def _prev(p: str, body: TlFormula) -> TlFormula:
    """Y_p of an expanded body."""
    return Since(Not(Proc(p)), _and(Proc(p), body))


def expand_derived(phi: TlFormula) -> TlFormula:
    """Eliminate sugar, producing the core connectives only.  Each operand
    is expanded once and shared where the expansion repeats it, so the
    result is a DAG whose size is linear in phi's."""
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
        return _next(phi.proc, expand_derived(phi.sub))
    if isinstance(phi, PrevOn):
        return _prev(phi.proc, expand_derived(phi.sub))
    if isinstance(phi, UntilOn):
        p = Proc(phi.proc)
        f1, f2 = expand_derived(phi.left), expand_derived(phi.right)
        now = _and(p, f2)
        keep = Or(Not(p), f1)
        return Or(now, _and(keep, Until(keep, now)))
    if isinstance(phi, ObsOn):
        # Y_p X_p body | co (@p & first) | X_p first | (@p & first),
        # first = !Y_p true & body
        p, body = phi.proc, expand_derived(phi.sub)
        first = _and(Not(_prev(p, Bool(True))), body)
        here = _and(Proc(p), first)
        return Or(_prev(p, _next(p, body)), Or(Co(here), Or(_next(p, first), here)))
    raise TlError(f"unknown formula node {phi!r}")


# ---------------------------------------------------------------------------
# semantics on the causal order (the oracle)
# ---------------------------------------------------------------------------


def eval_tl(m: Msc, phi: TlFormula) -> dict[str, bool]:
    """Per-event truth values read off the causal order alone: no path,
    trie, θ or machine.  Each subformula is one int mask over event
    positions, built from two rows per event, the events strictly below and
    strictly above it (``Msc.causal_rows``).  The brute force over
    ``causal_lt`` is its reference in the tests.  A process outside the
    signature raises TlError, as compile_tl does."""
    check_depth(phi)
    v = _Masks(m).of(phi)
    return {e: bool(v >> i & 1) for i, e in enumerate(m.events)}


class _Masks:
    """Truth masks on one MSC, bit i holding the value at ``m.events[i]``,
    one per distinct subformula object."""

    def __init__(self, m: Msc):
        self.m = m
        self.below, self.above = m.causal_rows
        self.full = (1 << len(m.events)) - 1
        self.memo: dict[int, int] = {}
        # the events of each label and of each process
        self.letters: dict = {}
        self.procs: dict[str, int] = {}
        letters, procs = self.letters, self.procs
        for i, e in enumerate(m.events):
            a, p = m.label[e], m.loc[e]
            letters[a] = letters.get(a, 0) | 1 << i
            procs[p] = procs.get(p, 0) | 1 << i

    def proc(self, p: str) -> int:
        if p not in self.m.signature.processes:
            raise TlError(f"unknown process {p!r}")
        return self.procs.get(p, 0)

    def of(self, phi: TlFormula) -> int:
        v = self.memo.get(id(phi))
        if v is None:
            v = self.memo[id(phi)] = self._eval(phi)
        return v

    def _eval(self, phi: TlFormula) -> int:
        below, above = self.below, self.above
        if isinstance(phi, Atom):
            return self.letters.get(phi.letter, 0)
        if isinstance(phi, Proc):
            return self.proc(phi.proc)
        if isinstance(phi, Bool):
            return self.full if phi.value else 0
        if isinstance(phi, Not):
            return self.full ^ self.of(phi.sub)
        if isinstance(phi, Or):
            return self.of(phi.left) | self.of(phi.right)
        if isinstance(phi, And):
            return self.of(phi.left) & self.of(phi.right)
        if isinstance(phi, Since):
            return _since(self.of(phi.left), self.of(phi.right), below)
        if isinstance(phi, Until):
            return _since(self.of(phi.left), self.of(phi.right), above)
        out = 0
        if isinstance(phi, Co):
            # some body event that is neither below, above nor e itself
            v = self.of(phi.sub)
            for i, (lo, hi) in enumerate(zip(below, above)):
                if v & ~(lo | hi | 1 << i):
                    out |= 1 << i
            return out
        if not isinstance(phi, (NextOn, PrevOn, UntilOn, ObsOn)):
            raise TlError(f"unknown formula node {phi!r}")
        p = self.proc(phi.proc)
        if isinstance(phi, NextOn):
            # m.events lists p's events in process order, so the first
            # p-event above e is the lowest p-bit of its row
            v = self.of(phi.sub)
            for i, hi in enumerate(above):
                s = hi & p
                if v & s & -s:
                    out |= 1 << i
            return out
        if isinstance(phi, PrevOn):
            # and the last p-event below e the highest
            v = self.of(phi.sub)
            for i, lo in enumerate(below):
                s = lo & p
                if s and v >> (s.bit_length() - 1) & 1:
                    out |= 1 << i
            return out
        if isinstance(phi, UntilOn):
            # along the p-events at or above e, a right one comes no later
            # than the first that fails the left
            v1, v2 = self.of(phi.left), self.of(phi.right)
            for i, hi in enumerate(above):
                s = (hi | 1 << i) & p
                now, stop = s & v2, s & ~v1
                if now and (not stop or now & -now <= stop & -stop):
                    out |= 1 << i
            return out
        # ObsOn: the first p-event not strictly below e, e itself on p
        v = self.of(phi.sub)
        for i, lo in enumerate(below):
            rest = p & ~lo
            if v & rest & -rest:
                out |= 1 << i
        return out


def _since(v1: int, v2: int, rows: list[int]) -> int:
    """Strict since on the rows strictly below each event (until on the rows
    strictly above): some v2 event f in e's row with no event failing v1
    strictly between f and e, i.e. f outside the OR of the rows of the
    failing events in e's row."""
    out = 0
    fail = ~v1
    for i, row in enumerate(rows):
        witnesses = row & v2
        if witnesses:
            bad, blocked = row & fail, 0
            while bad:
                low = bad & -bad
                blocked |= rows[low.bit_length() - 1]
                bad ^= low
            if witnesses & ~blocked:
                out |= 1 << i
    return out


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
    crosses a gap violation.  Built once per (sig, src, tgt).  A right path
    π1·[x]·π2 splits only at its one label test, so no right path is built
    twice.
    """
    left = [_label_prepend(x, pi) for x in ("a", "c") for pi in gossip_paths_between(sig, src, tgt)]
    right = [
        _label_join(pi1, letter, pi2)
        for r in sig.processes
        for pi1 in gossip_paths_between(sig, src, r)
        for letter in ("c", "d")
        for pi2 in gossip_paths_between(sig, r, tgt)
    ]
    return tuple(left), tuple(right)


@functools.cache
def _since_plan(sig: SystemSignature, mirror: bool) -> tuple:
    """One trie over the since paths of every pair, and per (src, tgt) the
    trie nodes of its left and right families; compiled once per signature
    and direction.  The until plan holds the same paths in a mirror trie,
    whose pass reads them on the time reversal of the MSC."""
    families = {
        (src, tgt): since_path_sets(sig, src, tgt)
        for tgt in sig.processes
        for src in sig.processes
    }
    return trie_plan(families, mirror)


def _dominates(rows: tuple, left: tuple, right: int) -> bool:
    """Some left path strictly above every right path in the total preorder,
    given as preorder_combine's rows: ``left`` holds the left paths' closure
    indices and bit r of ``right`` is set for each right path's index r."""
    return any(not rows[l] & right for l in left)


@functools.cache
def _dominance_tests(sig: SystemSignature, mirror: bool, pairs: tuple) -> tuple:
    """The since trie (its mirror for until) and, per target process of
    ``pairs``, the dominance test of its pairs as one straight-line function
    step(row, rec) → 0 or 1, compiled once per signature, direction and
    pair set: ``row`` is the since trie map at a tgt-event and ``rec`` the
    recency of each event index.  The forward pass reads the indices
    themselves (see _dominance), so it reads no ``rec``."""
    trie, nodes = _since_plan(sig, mirror)
    by_tgt: dict[str, list] = {}
    for src, tgt in pairs:
        by_tgt.setdefault(tgt, []).append(nodes[src, tgt])
    read = "rec[row[{}]]" if mirror else "row[{}]"
    tests = {}
    for tgt, families in by_tgt.items():
        lines = ["def step(row, rec):"]
        for lf, rt in families:
            lines.append(f"    l = {read.format(lf[0])}")
            for node in lf[1:]:
                lines += [f"    t = {read.format(node)}", "    if t > l:", "        l = t"]
            beaten = " and ".join(f"l > {read.format(node)}" for node in dict.fromkeys(rt))
            lines += [f"    if {beaten}:", "        return 1"]
        lines.append("    return 0")
        tests[tgt] = _function("\n".join(lines))
    return trie, tests


def _no_pair(row, rec) -> int:
    return 0


def _dominance(m: Msc, letters: list, sig: SystemSignature, pairs: tuple, mirror: bool) -> int:
    """The mask over event positions whose bit i is set iff m.events[i] is a
    tgt-event where, for some (src, tgt) in ``pairs``, the last event of a
    left path is more recent than that of every right path, all read off
    the one pass of the since trie (its mirror for until) over m with each
    event's ABCD letter from ``letters``, indexed like ``m.events``, by the
    compiled test of the event's process (_dominance_tests).  The pass
    reads m's own layout and is not memoised, since its letters are not
    m's labels.

    (l, r) is in the preorder at e iff last_l(e) <= last_r(e).  Every such
    last event is a src-event or none, and m.events lists src's events in
    process order, so recency is the event index on the forward pass, where
    none is _BOT = -1, and the index reversed on the mirror pass; none
    (_BOT, _TOP) is the least recent.
    """
    trie, tests = _dominance_tests(sig, mirror, pairs)
    # the test of each process of m, by its position, as m._links gives it
    at = [tests.get(p, _no_pair) for p in m.signature.processes]
    maps = _trie_pass(m, trie, letters)
    n = len(m.events)
    # an event index's recency; _BOT and _TOP index this list from its end
    rec = [*range(n, 0, -1), -1, -1] if mirror else None
    out = 0
    for i, (row, p) in enumerate(zip(maps, m._links[0])):
        if at[p](row, rec):
            out |= 1 << i
    return out


def _bit_of(annot) -> int:
    if annot not in (0, 1):
        raise TlError(f"annotation {annot!r} is not a bit")
    return annot


class _TlMachine(AnnotationCfm):
    """Compiled formula machine: bit annotations over Σ×{0,1} for the
    formula ``phi`` over the signature ``sig``.  ``starts()`` gives its start
    state, ``step_fn`` is its product part, part(state, ctx, msg_in, want),
    which yields (state, bit, payload) with the formula's bit computed, and
    ``final_ok(state)`` its final test; the search step keeps the moves
    whose bit is the claimed one, and refuses a claim that is not a bit.

    ``annotate_fn(m)`` gives the formula's bits on m as one int, bit i
    holding the bit at ``m.events[i]``; ``mask(m)`` is that int, memoised
    on m under the machine, which the machines of the formula's parents
    read.  annotate(m) spells it out per event, and decide compares the
    claim with it event by event."""

    def __init__(self, phi, sig, starts, step_fn, final_ok, annotate_fn):
        super().__init__(None, starts, step_fn, final_ok, annotate_fn, claim=_bit_of)
        self.phi, self.sig = phi, sig

    # AnnotationCfm's memoised annotation, which here is the mask
    mask = AnnotationCfm.annotate

    def annotate(self, m: Msc) -> dict:
        v = self.mask(m)
        return {e: v >> i & 1 for i, e in enumerate(m.events)}

    def decide(self, ext: ExtendedMsc) -> bool:
        annot = ext.annot
        v = self.mask(ext.base)
        for i, e in enumerate(ext.base.events):
            a = annot[e]
            if a != v >> i & 1:
                _bit_of(a)  # a claim that is not a bit raises, as the search step does
                return False
        return True

    @property
    def name(self) -> str:
        # formatted when read: compile_tl makes a machine per subformula
        return f"tl[{format_tl(self.phi)}]"


def _checker_machine(phi, sig, holds) -> _TlMachine:
    """One-state machine for connectives decidable from the event itself."""

    def part(state, ctx, msg_in, want):
        if want is None or want == "s":
            yield "s", 1 if holds(ctx.proc, ctx.sigma) else 0, None

    def annotate(m):
        v, loc, label = 0, m.loc, m.label
        for i, e in enumerate(m.events):
            if holds(loc[e], label[e]):
                v |= 1 << i
        return v

    return _TlMachine(phi, sig, lambda: "s", part, lambda state: True, annotate)


def _not_machine(phi, sig, inner: _TlMachine) -> _TlMachine:
    def part(state, ctx, msg_in, want):
        for new_state, bit, payload in inner.part(state, ctx, msg_in, want):
            yield new_state, 1 - bit, payload

    def annotate(m):
        return (1 << len(m.events)) - 1 ^ inner.mask(m)

    return _TlMachine(phi, sig, inner.start, part, inner.final, annotate)


def _or_machine(phi, sig, m1: _TlMachine, m2: _TlMachine) -> _TlMachine:
    operands = (m1.part, m2.part)

    def part(state, ctx, msg_in, want):
        for states, (b1, b2), payload in product_moves(operands, state, ctx, msg_in, want):
            yield states, b1 | b2, payload

    def final(state):
        return m1.final(state[0]) and m2.final(state[1])

    def annotate(m):
        return m1.mask(m) | m2.mask(m)

    return _TlMachine(phi, sig, lambda: (m1.start(), m2.start()), part, final, annotate)


def _since_pair(src: str, tgt: str, sig: SystemSignature) -> tuple:
    """A (src, tgt) pair's preorder core over its since families, and the
    core as a product part whose output is the pair's dominance bit (False
    off tgt)."""
    lf, rt = since_path_sets(sig, src, tgt)
    pc = PreorderCore(tgt, lf + rt)
    left = tuple(map(pc.clos.index, lf))
    right = sum(1 << pc.clos.index(r) for r in rt)

    def step(state, ctx, msg_in, want):
        for ns, out, pay in pc.step(state, ctx, msg_in, want):
            yield ns, ctx.proc == tgt and _dominates(out, left, right), pay

    return pc, step


def _since_machine(phi, sig, m1: _TlMachine, m2: _TlMachine) -> _TlMachine:
    """Since, and until as its time reversal, over the abcd recoding.

    The bit at an event on process tgt is 1 iff, for some src, the most
    recent src-witness (letters a/c) strictly dominates every src-event whose
    path to here crosses a letter in {c, d}.  For until, most recent is in
    reversed time: annotate is _dominance on the mirror pass of the since
    trie.  Both passes step along m itself, given each event's letter
    recoded from its operands' bits, so neither a mirror MSC nor a recoded
    MSC is built.

    The part is the product of the operands' parts and, per move (b1, b2)
    of theirs, the product of every (src, tgt) pair's _since_pair part on
    the event recoded from b1 and b2, built the first time a search needs
    them; its bit is whether some pair dominates.  Until has no forward
    relation: its search raises TlError.
    """
    procs = sig.processes
    mirror = isinstance(phi, Until)
    every_pair = tuple((src, tgt) for tgt in procs for src in procs)
    operands = (m1.part, m2.part)

    built = None

    def pairs() -> tuple:
        """The pairs' cores and their product parts, built once."""
        nonlocal built
        if built is None:
            if mirror:
                raise TlError(
                    "the until machine's transition relation is the mirror of its "
                    "since core and cannot be searched forward; use decide()"
                )
            built = tuple(zip(*(_since_pair(src, tgt, sig) for src, tgt in every_pair)))
        return built

    def start():
        return (m1.start(), m2.start(), *(pc.start() for pc in pairs()[0]))

    def part(state, ctx, msg_in, want):
        ops_in, pairs_in = (None, None) if msg_in is None else (msg_in[:2], msg_in[2:])
        ops_want, pairs_want = (None, None) if want is None else (want[:2], want[2:])
        parts = pairs()[1]
        for ops, (b1, b2), ops_out in product_moves(operands, state[:2], ctx, ops_in, ops_want):
            recoded = StepCtx(ctx.proc, ctx.kind, ctx.peer, _recode(b1, b2))
            for cs, doms, outs in product_moves(parts, state[2:], recoded, pairs_in, pairs_want):
                yield (*ops, *cs), any(doms), None if outs is None else (*ops_out, *outs)

    def final(state):
        return (
            m1.final(state[0])
            and m2.final(state[1])
            and all(pc.final(cs) for pc, cs in zip(pairs()[0], state[2:]))
        )

    def annotate(m):
        v1, v2 = m1.mask(m), m2.mask(m)
        letters = [_recode(v1 >> i & 1, v2 >> i & 1) for i in range(len(m.events))]
        return _dominance(m, letters, sig, every_pair, mirror)

    return _TlMachine(phi, sig, start, part, final, annotate)


def compile_tl(phi: TlFormula, sig: SystemSignature) -> AnnotationCfm:
    """Machine over Σ×{0,1} accepting exactly the correctly bit-annotated
    MSCs: the bit at every event equals the formula's truth value there.
    Both phi and its expansion, which the machines recurse on, are held to
    MAX_DEPTH."""
    return _compile_core(expand_checked(phi), sig, {}, {})


def expand_checked(phi: TlFormula) -> TlFormula:
    """expand_derived of phi, with both held to MAX_DEPTH."""
    check_depth(phi)
    core = expand_derived(phi)
    if core.depth > MAX_DEPTH:
        raise TlError(_TOO_DEEP_EXPANDED)
    return core


def _compile_core(phi, sig, made: dict, seen: dict) -> _TlMachine:
    """The machine of phi, one per distinct subformula.  ``made`` maps a
    leaf formula, or a connective's type with its operands' machines, to
    its machine, so equal subformulas share one machine and its annotation
    memo, and no formula tree is hashed.  ``seen`` maps each subformula
    object to its machine, so an object shared by several parents is
    walked once."""
    machine = seen.get(id(phi))
    if machine is not None:
        return machine
    if isinstance(phi, Not):
        subs = (_compile_core(phi.sub, sig, made, seen),)
    elif isinstance(phi, (Or, Since, Until)):
        subs = (
            _compile_core(phi.left, sig, made, seen),
            _compile_core(phi.right, sig, made, seen),
        )
    else:
        subs = ()
    key = (type(phi), *subs) if subs else phi
    machine = made.get(key)
    if machine is None:
        machine = made[key] = _make_machine(phi, sig, *subs)
    seen[id(phi)] = machine
    return machine


def _make_machine(phi, sig, *subs) -> _TlMachine:
    if isinstance(phi, Atom):
        return _checker_machine(phi, sig, lambda p, s: s == phi.letter)
    if isinstance(phi, Proc):
        if phi.proc not in sig.processes:
            raise TlError(f"unknown process {phi.proc!r}")
        return _checker_machine(phi, sig, lambda p, s: p == phi.proc)
    if isinstance(phi, Bool):
        return _checker_machine(phi, sig, lambda p, s: phi.value)
    if isinstance(phi, Not):
        return _not_machine(phi, sig, *subs)
    if isinstance(phi, Or):
        return _or_machine(phi, sig, *subs)
    if isinstance(phi, (Since, Until)):
        return _since_machine(phi, sig, *subs)
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
    every single-bit mutation; the diff lists each failing case, a rejection
    of the oracle bits with the first event where the machine's own
    annotation differs from them."""
    machine = compile_tl(phi, m.signature)
    want = eval_tl(m, phi)
    bits = {e: (1 if want[e] else 0) for e in m.events}
    ext = ExtendedMsc(m, bits)
    diffs: list[str] = []
    if not machine.decide(ext):
        got = machine.annotate(m)
        at = next(e for e in m.events if got[e] != bits[e])
        diffs.append(f"correct annotation rejected at {at!r}: oracle {bits[at]}, machine {got[at]}")
    for e in m.events:
        # each mutation flips one bit of ext's own annotation, then restores it
        ext.annot[e] = 1 - bits[e]
        if machine.decide(ext):
            diffs.append(f"mutation at {e!r} accepted")
        ext.annot[e] = bits[e]
    return not diffs, diffs
