"""Why no deterministic machine solves gossip: counterexample family and refuter.

The target specification is the language L of MSCs over processes {p,q,r} and
labels {b,a,d} where every q-event is labeled with the label of the latest
p-event in its strict causal past.  ``refute_deterministic`` takes a
deterministic claimant machine and produces a machine-verified counterexample:
either an MSC the claimant accepts whose q-labels are wrong, or an MSC in L
that the claimant rejects.

The positive tool is the family M^k: p alternates b-sends (to q) and a-sends
(to r, forwarded to q), with k of the n direct messages delivered before the
forwarded block and n-k after.  The claimant's q-state pairs at the two block
boundaries collide for some k < k' by pigeonhole, and splicing the two runs
yields an accepted MSC with wrong labels.

Every step that runs the claimant is one ``cfm.find_accepting_run``: its run
on each M^k (a single path, since a deterministic machine has at most one
run), the check that it accepts a splice, and the search for an accepted
q-labeling that violates L, which runs the claimant with each q-label guessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .cfm import (
    DEFAULT_BUDGET,
    Cfm,
    Transition,
    accepts,
    find_accepting_run,
    is_deterministic,
)
from .msc import (
    BOTTOM,
    Msc,
    MscError,
    SystemSignature,
    validate_msc,
    vector_clocks,
)

GOSSIP_SIG = SystemSignature(processes=("p", "q", "r"), alphabet=("a", "b", "d"))


def q_label_spec(m: Msc) -> dict[str, object]:
    """For each q-event, the label demanded by L: the latest p-label in its past."""
    lasts = vector_clocks(m)
    p = m.signature.processes.index("p")
    out = {}
    for f in m.events_of("q"):
        g = lasts[f][p]
        out[f] = BOTTOM if g is BOTTOM else m.label[g]
    return out


def q_labels_correct(m: Msc) -> bool:
    return all(m.label[f] == want for f, want in q_label_spec(m).items())


def _with_labels(m: Msc, labels: dict) -> Msc:
    """m with each event in ``labels`` given that label."""
    return Msc(m.signature, [(e, m.loc[e], labels.get(e, m.label[e])) for e in m.events], m.msg)


@dataclass(frozen=True)
class FamilyParams:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1 or not 0 <= self.k < self.n:
            raise MscError(f"need 0 <= k < n, got n={self.n}, k={self.k}")


def build_family_msc(params: FamilyParams) -> Msc:
    """The MSC M^k: 2n events per process, labels forced by the specification."""
    n, k = params.n, params.k
    messages = []
    for i in range(k):
        messages.append((f"e{2 * i}", f"f{i}"))
    for i in range(k, n):
        messages.append((f"e{2 * i}", f"f{n + i}"))
    for i in range(n):
        messages.append((f"e{2 * i + 1}", f"g{2 * i}"))
        messages.append((f"g{2 * i + 1}", f"f{k + i}"))
    events = []
    for i in range(2 * n):
        events.append((f"e{i}", "p", "b" if i % 2 == 0 else "a"))
    for i in range(2 * n):
        events.append((f"f{i}", "q", "x"))  # placeholder, fixed below
    for i in range(2 * n):
        events.append((f"g{i}", "r", "d"))
    skeleton = Msc(GOSSIP_SIG, events, messages)
    # q labels never feed back into last_p
    m = _with_labels(skeleton, q_label_spec(skeleton))
    # closed form: b for i < 2k-1, a otherwise; any deviation means the
    # construction above drifted from the intended shape.
    for i in range(2 * n):
        want = "b" if i < 2 * k - 1 else "a"
        if m.label[f"f{i}"] != want:
            raise AssertionError(
                f"family labels disagree with closed form at f{i} (n={n}, k={k})"
            )
    bad = validate_msc(m)
    if bad:
        raise AssertionError(f"family MSC invalid: {bad}")
    return m


def splice_family_msc(n: int, k: int, kp: int) -> Msc:
    """Structure of M^k with q-labels b below index k+k'-1 and a from there on."""
    base = build_family_msc(FamilyParams(n, k))
    cut = k + kp - 1
    return _with_labels(
        base, {f: "b" if int(f[1:]) < cut else "a" for f in base.events_of("q")}
    )


def naive_gossip_cfm() -> Cfm:
    """The three-process forwarding machine: p broadcasts its label, r relays
    p's messages to q, q outputs each incoming message letter as its label."""
    sig = GOSSIP_SIG
    states = {"p": ["s0p"], "q": ["s0q"], "r": ["s0r", "s1r", "s2r"]}
    initial = {"p": "s0p", "q": "s0q", "r": "s0r"}
    t = []
    for x in ("b", "a"):
        for dest in ("q", "r"):
            t.append(Transition("p", "s0p", "send", x, "s0p", x, dest))
        for src in ("p", "r"):
            t.append(Transition("q", "s0q", "recv", x, "s0q", x, src))
    t.append(Transition("r", "s0r", "recv", "d", "s1r", "b", "p"))
    t.append(Transition("r", "s1r", "send", "d", "s0r", "b", "q"))
    t.append(Transition("r", "s0r", "recv", "d", "s2r", "a", "p"))
    t.append(Transition("r", "s2r", "send", "d", "s0r", "a", "q"))
    accepting = [("s0p", "s0q", "s0r")]
    return Cfm(sig, ["b", "a"], states, initial, t, accepting)


# -- accepted-but-wrong labeling search ----------------------------------------


class _GuessingQ:
    """The claimant reading each q-event as b and then as a.

    It runs on an MSC whose q-labels are the ones L demands.  q's state pairs
    the claimant's state with whether some guess so far differed from the
    demanded label; a final tuple is accepting when the claimant's is and some
    guess differed.  The guesses are the labels of the run's q-transitions.
    """

    def __init__(self, c: Cfm):
        self.c = c
        self.signature = c.signature
        self.q = c.signature.proc_index("q")

    def _with_q(self, tup: tuple, s) -> tuple:
        return tup[: self.q] + (s,) + tup[self.q + 1 :]

    def initial_tuples(self) -> list[tuple]:
        return [self._with_q(t, (t[self.q], False)) for t in self.c.initial_tuples()]

    def step(self, p, state, kind, label, peer, msg_in):
        if p != "q":
            yield from self.c.step(p, state, kind, label, peer, msg_in)
            return
        s, differed = state
        for guess in ("b", "a"):
            for new_state, msg_out, t in self.c.step(p, s, kind, guess, peer, msg_in):
                yield (new_state, differed or guess != label), msg_out, t

    def is_accepting(self, final: tuple) -> bool:
        s, differed = final[self.q]
        return differed and self.c.is_accepting(self._with_q(final, s))


def accepted_wrong_labeling(c: Cfm, m: Msc, budget: int = DEFAULT_BUDGET) -> Optional[Msc]:
    """A relabeling of m's q-events by {b, a} that the claimant accepts and
    that violates L, or None if there is none.

    One run search over ``_GuessingQ``: each q-event is guessed b before a,
    in q's event order, so the result is the first such labeling in that
    order.  Non-q labels are kept as given.
    """
    run = find_accepting_run(_GuessingQ(c), _with_labels(m, q_label_spec(m)), budget)
    if run is None:
        return None
    return _with_labels(m, {e: t.label for e, t in run.assignment.items()})


# -- the refuter ----------------------------------------------------------------


@dataclass
class RefutationResult:
    verdict: str  # 'not-deterministic' | 'accepts-wrong' | 'rejects-correct'
    #               | 'no-counterexample-found'
    counterexample: Optional[Msc] = None
    detail: str = ""

    @property
    def refuted(self) -> bool:
        return self.verdict in ("not-deterministic", "accepts-wrong", "rejects-correct")


def refute_deterministic(c: Cfm, budget: int = DEFAULT_BUDGET) -> RefutationResult:
    """Disprove that a claimant machine deterministically recognizes L.

    Strategy: (1) check the determinism clauses; (2) find the claimant's run
    on each member of the family M^0..M^{n-1} with n = |S_q|^2 + 1, read q's
    states at the block boundaries off it, splice colliding runs, and
    machine-verify the splice (accepted by a run search, and wrong); (3) if
    no splice works, search the claimant's accepted q-labelings of the
    interleaved structure and the family structures for one that violates
    the specification (``accepted_wrong_labeling``), which both exhibits an
    accepted-but-wrong MSC and dominates the weaker rejects-correct verdict;
    the first rejected M^k is the fallback counterexample.  ``budget`` bounds
    each splice check and each labeling search, and either one that exhausts
    it raises BudgetExhausted, so no verdict rests on a search cut short.
    """
    for needed in ("p", "q", "r"):
        if needed not in c.signature.processes:
            raise ValueError(f"claimant lacks process {needed!r}")
    if not is_deterministic(c):
        return RefutationResult("not-deterministic", detail="determinism clauses fail")
    # |S_q|^2 + 1 guarantees a collision; the floor of 3 guarantees a collision
    # other than (0, 1), whose splice relabels nothing and proves nothing.
    n = max(len(c.states["q"]) ** 2 + 1, 3)
    family = [build_family_msc(FamilyParams(n, k)) for k in range(n)]
    rejected_k = None
    sig_pairs: dict[int, tuple] = {}
    for k, mk in enumerate(family):
        run = find_accepting_run(c, mk)  # one path for a deterministic claimant
        if run is None:
            if rejected_k is None:
                rejected_k = k
            continue
        # q's states before the forwarded block (at f_k) and after it
        sig_pairs[k] = (
            run.assignment[f"f{k}"].source,
            run.assignment[f"f{k + n - 1}"].target,
        )

    # collisions in lexicographic order; verify each candidate splice.
    # (k, k') = (0, 1) is skipped implicitly: its splice relabels nothing,
    # so it equals M^0, is in L, and fails the wrongness check.
    for k, kp in itertools.combinations(sorted(sig_pairs), 2):
        if sig_pairs[k] != sig_pairs[kp]:
            continue
        spliced = splice_family_msc(n, k, kp)
        if q_labels_correct(spliced):
            continue
        if accepts(c, spliced, budget):
            return RefutationResult(
                "accepts-wrong",
                spliced,
                f"splice of runs k={k}, k'={kp} at n={n}",
            )

    # accepted-but-wrong search over the family structures and, first, the
    # structure where p interleaves direct and forwarded messages (the shape
    # on which the forwarding machine shows its defect).
    for structure in [_interleaved_structure()] + family:
        labeled = accepted_wrong_labeling(c, structure, budget)
        if labeled is not None:
            return RefutationResult(
                "accepts-wrong", labeled, "accepted labeling violates L"
            )

    if rejected_k is not None:
        return RefutationResult(
            "rejects-correct",
            family[rejected_k],
            f"M^{rejected_k} (n={n}) is in L but is rejected",
        )
    return RefutationResult("no-counterexample-found")


def _interleaved_structure() -> Msc:
    """p alternates sends to q and (via r) to q; 24 events, 12 messages."""
    events = []
    events += [(f"e{i}", "p", "b" if i in (0, 1, 3, 4, 6) else "a") for i in range(8)]
    events += [(f"f{i}", "q", "a") for i in range(8)]
    events += [(f"g{i}", "r", "d") for i in range(8)]
    messages = [
        ("e0", "f0"), ("e1", "g0"), ("e2", "f1"), ("g1", "f2"),
        ("e3", "g2"), ("g3", "f3"), ("e4", "f5"), ("e5", "g4"),
        ("g5", "f4"), ("e6", "f6"), ("e7", "g6"), ("g7", "f7"),
    ]
    return Msc(GOSSIP_SIG, events, messages)
